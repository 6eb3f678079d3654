"""Golden search results over the small atlas and at awkward node budgets.

`tests/data/atlas5_tree.json` holds, for every networkx atlas graph on at
most 5 vertices in both modes, the `solve_min_distinct` result at a
40,000-node budget, and the results of four anchor searches cut at node
budgets that land inside runs of labels rejected for adding a weight.  A
faster search core must reproduce every status, bound, node count and
witness.  Regenerate the file (only from a commit whose tree is trusted) with

    PYTHONPATH=src python tests/test_atlas_tree.py
"""

import json
from pathlib import Path

import pytest

from latlab import FamilySpec, Graph, SolveBudget, find_with_at_most_k, generate, solve_min_distinct

GOLDEN = Path(__file__).parent / "data" / "atlas5_tree.json"
ATLAS_NODES = 40_000
CUTS = (3, 17, 1023, 1024, 1025, 33333)
# (name, family, order, mode, k): k None is a full solve
ANCHORS = (("w4_total_k3", "wheel", 4, "total", 3), ("c5_total_k2", "cycle", 5, "total", 2),
           ("w5_edge_solve", "wheel", 5, "edge", None),
           ("p6_total_solve", "path", 6, "total", None))


def _labels(cert):
    return None if cert is None else list(cert.labels)


def _solve_record(res):
    return {"status": res.status, "value": res.value, "lower": res.lower, "upper": res.upper,
            "nodes": res.nodes_explored, "labels": _labels(res.certificate)}


def atlas_records():
    import networkx as nx
    records = []
    for i, G in enumerate(nx.graph_atlas_g()):
        if G.number_of_nodes() > 5:
            break
        g = Graph.from_edges(G.number_of_nodes(), G.edges())
        for mode in ("total", "edge"):
            res = solve_min_distinct(g, mode, SolveBudget(max_nodes=ATLAS_NODES))
            records.append({"atlas": i, "mode": mode, **_solve_record(res)})
    return records


def cut_records():
    records = []
    for name, kind, order, mode, k in ANCHORS:
        g = generate(FamilySpec(kind, (order,)))
        for limit in CUTS:
            budget = SolveBudget(max_nodes=limit)
            if k is None:
                record = _solve_record(solve_min_distinct(g, mode, budget))
            else:
                res = find_with_at_most_k(g, k, mode, budget)
                record = {"status": res.status, "nodes": res.nodes_explored,
                          "labels": _labels(res.certificate)}
            records.append({"anchor": name, "max_nodes": limit, **record})
    return records


def test_atlas_matches_golden():
    pytest.importorskip("networkx")
    golden = json.loads(GOLDEN.read_text())["atlas"]
    assert len(golden) == 2 * 53
    assert atlas_records() == golden


def test_budget_cuts_match_golden():
    golden = json.loads(GOLDEN.read_text())["cuts"]
    records = cut_records()
    assert records == golden
    # a search the budget stops reports the refused node, limit + 1
    for rec in records:
        if rec["status"] in ("unknown", "exhausted", "lower_upper"):
            assert rec["nodes"] == rec["max_nodes"] + 1


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"atlas": atlas_records(), "cuts": cut_records()},
                                 separators=(",", ":")) + "\n")

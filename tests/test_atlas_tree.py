"""Golden search results over the small atlas and at awkward node budgets.

`tests/data/atlas5_tree.json` holds, for every networkx atlas graph on at
most 5 vertices in both modes, the `solve_min_distinct` result at a
40,000-node budget, and the results of four anchor searches cut at node
budgets that land inside runs of labels rejected for adding a weight, or
past the end of the search (W5 in edge mode closes at 381 nodes, W4 at
k=3 at 3,383).  These pin the exhaustive tree, so they are taken with the
annealing witness search, the class-first engine and the orbit constraints
off; `atlas_phase` holds the atlas results with all three on.  A faster
search core must reproduce every status, bound, node count and witness,
also under a time budget far above the searches' length, where reading
the clock must change nothing.  To print each
record that a change of search moves (its key, then old -> new), and then
a tally of the moved records and of those whose answer moved, writing
nothing, run

    PYTHONPATH=src python tests/test_atlas_tree.py --diff

Regenerate the file (only from a commit whose tree is trusted) with

    PYTHONPATH=src python tests/test_atlas_tree.py
"""

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from latlab import (FamilySpec, Graph, SolveBudget, chi_lat_lower_bound, find_with_at_most_k,
                    generate, solve_min_distinct, verify)
from latlab import solver

GOLDEN = Path(__file__).parent / "data" / "atlas5_tree.json"
ATLAS_NODES = 40_000
CUTS = (3, 17, 1023, 1024, 1025, 33333)
FAR_MILLIS = 10**9  # a deadline that is read but never reached
# (name, family, order, mode, k): k None is a full solve
ANCHORS = (("w4_total_k3", "wheel", 4, "total", 3), ("c6_total_k2", "cycle", 6, "total", 2),
           ("w5_edge_solve", "wheel", 5, "edge", None),
           ("p6_total_solve", "path", 6, "total", None))


@contextmanager
def witness_phase(on):
    """Run with the annealing pass before the tree search, the class-first
    engine at k = 2 and the orbit constraints on, or with all three off."""
    moves, class_first, symmetry = solver._ANNEAL_MOVES, solver._CLASS_FIRST, solver._SYMMETRY
    solver._ANNEAL_MOVES = moves if on else 0
    solver._CLASS_FIRST = class_first and on
    solver._SYMMETRY = symmetry and on
    try:
        yield
    finally:
        solver._ANNEAL_MOVES, solver._CLASS_FIRST, solver._SYMMETRY = moves, class_first, symmetry


def _labels(cert):
    return None if cert is None else list(cert.labels)


def _solve_record(res):
    return {"status": res.status, "value": res.value, "lower": res.lower, "upper": res.upper,
            "nodes": res.nodes_explored, "labels": _labels(res.certificate)}


def atlas_records(max_millis=None, phase=False):
    import networkx as nx
    records = []
    with witness_phase(phase):
        for i, G in enumerate(nx.graph_atlas_g()):
            if G.number_of_nodes() > 5:
                break
            g = Graph.from_edges(G.number_of_nodes(), G.edges())
            for mode in ("total", "edge"):
                budget = SolveBudget(max_nodes=ATLAS_NODES, max_millis=max_millis)
                records.append({"atlas": i, "mode": mode,
                                **_solve_record(solve_min_distinct(g, mode, budget))})
    return records


def cut_records(max_millis=None):
    records = []
    with witness_phase(False):
        for name, kind, order, mode, k in ANCHORS:
            g = generate(FamilySpec(kind, (order,)))
            for limit in CUTS:
                budget = SolveBudget(max_nodes=limit, max_millis=max_millis)
                if k is None:
                    record = _solve_record(solve_min_distinct(g, mode, budget))
                else:
                    res = find_with_at_most_k(g, k, mode, budget)
                    record = {"status": res.status, "nodes": res.nodes_explored,
                              "labels": _labels(res.certificate)}
                records.append({"anchor": name, "max_nodes": limit, **record})
    return records


PARTS = (("atlas", ("atlas", "mode")), ("atlas_phase", ("atlas", "mode")),
         ("cuts", ("anchor", "max_nodes")))
ANSWER = ("status", "value", "lower", "upper")


def diff_lines(golden, fresh):
    """One line per record of `fresh` that differs from `golden`: the
    record's key, then each changed field as old -> new.  The key of an
    atlas record names its part, `atlas` or `atlas_phase`."""
    lines = []
    for part, keys in PARTS:
        old_part, new_part = golden.get(part, []), fresh.get(part, [])
        if len(old_part) != len(new_part):
            lines.append(f"{part}: {len(old_part)} -> {len(new_part)} records")
        for old, new in zip(old_part, new_part):
            if old != new:
                name = part if part.startswith(keys[0]) else keys[0]
                key = f"{name} {new[keys[0]]} {keys[1]} {new[keys[1]]}"
                moves = [f"{field} {old.get(field)} -> {value}"
                         for field, value in new.items() if old.get(field) != value]
                lines.append(f"{key}: " + ", ".join(moves))
    return lines


def diff_tally(golden, fresh):
    """How many records of `fresh` differ from `golden`, and how many of
    those in an answer (status, value, lower or upper), not only in nodes
    or witness."""
    pairs = [(old, new) for part, _ in PARTS
             for old, new in zip(golden.get(part, []), fresh.get(part, [])) if old != new]
    answers = sum(any(old.get(f) != new.get(f) for f in ANSWER) for old, new in pairs)
    return f"{len(pairs)} records moved, {answers} in status, value, lower or upper"


def test_diff_names_each_moved_record():
    golden = json.loads(GOLDEN.read_text())
    assert diff_lines(golden, golden) == []
    moved = json.loads(GOLDEN.read_text())
    moved["atlas"][3]["nodes"] += 1
    moved["atlas_phase"][3]["nodes"] += 2
    moved["cuts"][0]["status"] = "moved"
    a, ph, c = golden["atlas"][3], golden["atlas_phase"][3], golden["cuts"][0]
    assert diff_lines(golden, moved) == [
        f"atlas {a['atlas']} mode {a['mode']}: nodes {a['nodes']} -> {a['nodes'] + 1}",
        f"atlas_phase {ph['atlas']} mode {ph['mode']}: nodes {ph['nodes']} -> {ph['nodes'] + 2}",
        f"anchor {c['anchor']} max_nodes {c['max_nodes']}: status {c['status']} -> moved"]
    assert diff_tally(golden, golden) == "0 records moved, 0 in status, value, lower or upper"
    assert diff_tally(golden, moved) == "3 records moved, 1 in status, value, lower or upper"


def test_atlas_matches_golden():
    pytest.importorskip("networkx")
    golden = json.loads(GOLDEN.read_text())["atlas"]
    assert len(golden) == 2 * 53
    assert atlas_records() == golden


def test_atlas_with_the_witness_search_matches_golden():
    pytest.importorskip("networkx")
    golden = json.loads(GOLDEN.read_text())["atlas_phase"]
    assert len(golden) == 2 * 53
    assert atlas_records(phase=True) == golden


def test_budget_cuts_match_golden():
    golden = json.loads(GOLDEN.read_text())["cuts"]
    records = cut_records()
    assert records == golden
    # a search the budget stops reports the refused node, limit + 1
    for rec in records:
        if rec["status"] in ("unknown", "exhausted", "lower_upper"):
            assert rec["nodes"] == rec["max_nodes"] + 1


def test_time_budget_leaves_the_results_unchanged():
    pytest.importorskip("networkx")
    golden = json.loads(GOLDEN.read_text())
    assert atlas_records(FAR_MILLIS) == golden["atlas"]
    assert atlas_records(FAR_MILLIS, phase=True) == golden["atlas_phase"]
    assert cut_records(FAR_MILLIS) == golden["cuts"]


def test_every_graph_on_1_to_5_vertices_closes_at_3m_nodes():
    # total mode; the slowest, atlas 23, closes after 84,500 nodes (atlas
    # 28 after 285,833 with the class-first search off; with the witness
    # search off too, atlas 48 after 1,724,052)
    nx = pytest.importorskip("networkx")
    for i, G in enumerate(nx.graph_atlas_g()[1:53], start=1):
        g = Graph.from_edges(G.number_of_nodes(), G.edges())
        res = solve_min_distinct(g, "total", SolveBudget(max_nodes=3_000_000))
        assert res.status == "exact", i
        report = verify(g, res.certificate)
        assert report.valid and report.profile.distinct_count == res.value, i
        assert res.value >= chi_lat_lower_bound(g), i


def test_connected_6_vertex_graphs_closing_at_100k_nodes():
    # total mode: the witness search closes most of them; these stay cut
    # short (54 of the 112 closed with the search tree alone, and 105
    # before two weights were decided class first, which closes 79 and 99,
    # 107 before class-level weight ranges, which close 175, and 108
    # before the orbit constraints, which close 146)
    nx = pytest.importorskip("networkx")
    closed, cut = 0, []
    for i, G in enumerate(nx.graph_atlas_g()):
        if G.number_of_nodes() != 6 or not nx.is_connected(G):
            continue
        g = Graph.from_edges(6, G.edges())
        res = solve_min_distinct(g, "total", SolveBudget(max_nodes=100_000))
        report = verify(g, res.certificate)
        assert report.valid and report.profile.distinct_count == res.upper, i
        assert res.upper >= chi_lat_lower_bound(g), i
        if res.status == "exact":
            closed += 1
        else:
            cut.append(i)
    assert (closed, cut) == (109, [138, 163, 167])


if __name__ == "__main__":
    import sys
    fresh = {"atlas": atlas_records(), "atlas_phase": atlas_records(phase=True),
             "cuts": cut_records()}
    if sys.argv[1:] == ["--diff"]:
        golden = json.loads(GOLDEN.read_text())
        for line in diff_lines(golden, fresh):
            print(line)
        print(diff_tally(golden, fresh))
    else:
        GOLDEN.write_text(json.dumps(fresh, separators=(",", ":")) + "\n")

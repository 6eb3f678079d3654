"""Regenerate bench/graphs.json: every graph on 1 to 6 vertices with its
reference values of chi_lat (total mode) and chi_la (edge mode).

A reference value comes from one of two sources, recorded per entry:

* ``brute-force``: exhaustive enumeration of every bijection onto the label
  universe, done here with numpy, for universes of at most 10 labels;
* ``theorem:<name>``: a published closed form for a recognised family
  (complete graphs, cycles, paths, even wheels, complete bipartite graphs,
  edgeless graphs, K2 plus isolated vertices).  Where both sources apply
  they must agree, or generation fails.

Edge mode is ``infeasible`` exactly when the graph has an isolated edge
(a K2 component): such an edge's endpoints always share a weight, and
every graph without one has a local antimagic edge labeling (Haslegrave,
DMTCS 20, 2018).

This script needs networkx (for the graph atlas) and numpy; the benchmark
itself only reads the JSON it writes.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np

from graphs import POPULATION_FILE, graph6

BRUTE_FORCE_LIMIT = 10


def all_permutations(n):
    """Every permutation of range(n) as rows of an int8 array (n! x n)."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        perms = np.concatenate([np.insert(perms, pos, k, axis=1)
                                for pos in range(k + 1)])
    return perms


def brute_force(p, edges, mode):
    """Minimum distinct-weight count over all valid labelings, or None."""
    q = len(edges)
    if mode == "total":
        n = p + q
        vslots = [[v] + [p + e for e, uv in enumerate(edges) if v in uv]
                  for v in range(p)]
    else:
        n = q
        vslots = [[e for e, uv in enumerate(edges) if v in uv] for v in range(p)]
    if n == 0:
        return 1 if p else 0
    best = None
    perms = all_permutations(n)
    for start in range(0, len(perms), 400_000):
        labels = perms[start:start + 400_000].astype(np.int16) + 1
        weights = np.zeros((len(labels), p), dtype=np.int16)
        for v, slots in enumerate(vslots):
            if slots:
                weights[:, v] = labels[:, slots].sum(axis=1)
        valid = np.ones(len(labels), dtype=bool)
        for u, v in edges:
            valid &= weights[:, u] != weights[:, v]
        if not valid.any():
            continue
        w = np.sort(weights[valid], axis=1)
        distinct = 1 + (np.diff(w, axis=1) != 0).sum(axis=1)
        low = int(distinct.min())
        best = low if best is None else min(best, low)
    return best


def _family_graphs(p):
    """(name, graph, chi_lat, chi_la) for theorem families on p vertices."""
    out = [("theorem:complete", nx.complete_graph(p), p, p if p >= 3 else None),
           ("theorem:edgeless", nx.empty_graph(p), p, None)]
    if p >= 3:
        out.append(("theorem:cycle", nx.cycle_graph(p), 2 if p % 2 == 0 else 3, 3))
    if p >= 2:
        path_value = {2: 2, 3: 2, 4: 3, 5: 2, 7: 2}.get(p, 2 if p % 2 == 0 else None)
        out.append(("theorem:path", nx.path_graph(p), path_value, None))
    if p >= 5 and (p - 1) % 2 == 0:
        out.append(("theorem:even-wheel", nx.wheel_graph(p), 3, None))
    for a in range(1, p // 2 + 1):
        b = p - a
        covered = (a == 1 or (a == 2 and b == 2) or (a % 2 == b % 2 and 2 <= a < b)
                   or a % 2 != b % 2)
        if covered:
            out.append(("theorem:complete-bipartite",
                        nx.complete_bipartite_graph(a, b), 2, None))
    if p >= 3:
        n = p - 2
        k2 = nx.disjoint_union(nx.complete_graph(2), nx.empty_graph(n))
        out.append(("theorem:k2-plus-isolated", k2, 2 if n <= 2 else n, None))
    return out


def _has_isolated_edge(G):
    return any(G.degree(u) == 1 and G.degree(v) == 1 for u, v in G.edges())


def reference(G, mode):
    p, edges = G.number_of_nodes(), sorted(tuple(sorted(e)) for e in G.edges())
    if mode == "edge" and _has_isolated_edge(G):
        return "infeasible", "theorem:isolated-edge"
    value, source = None, None
    for name, F, chi_lat, chi_la in _family_graphs(p):
        known = chi_lat if mode == "total" else chi_la
        if known is not None and nx.is_isomorphic(G, F):
            value, source = known, name
            break
    universe = p + len(edges) if mode == "total" else len(edges)
    if universe <= BRUTE_FORCE_LIMIT:
        exact = brute_force(p, edges, mode)
        if value is not None and value != exact:
            raise SystemExit(f"{graph6(p, edges)} {mode}: {source} says {value}, "
                             f"brute force says {exact}")
        value, source = exact, "brute-force"
    return value, source


def main():
    entries = []
    for G in nx.graph_atlas_g()[1:209]:
        p = G.number_of_nodes()
        edges = sorted(tuple(sorted(e)) for e in G.edges())
        entry = {"g6": graph6(p, edges), "p": p, "q": len(edges),
                 "connected": nx.is_connected(G)}
        for mode, key in (("total", "chi_lat"), ("edge", "chi_la")):
            entry[key], entry[key + "_source"] = reference(G, mode)
        entries.append(entry)
        print(json.dumps(entry), flush=True)
    POPULATION_FILE.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()

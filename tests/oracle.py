"""Brute-force oracle: the reference the branch-and-bound solver is tested
against.

It enumerates every bijection of the label universe (numpy-chunked) and
shares no code with the solver's search: it builds its own slot lists and
checks its witness with the package's public verifier.  A reference
annealer, which rescores every labeling from scratch, checks the solver's
incremental witness search move by move.
"""

from collections import Counter
from itertools import islice, permutations
from math import exp

from latlab import IntegrityError, Labeling, SearchMode, SolveResult, TooLargeError
from latlab.labeling import check

BRUTE_FORCE_UNIVERSE_LIMIT = 10


def _vertex_slots(g, mode):
    """Label universe size and, per vertex, the slots feeding its weight: in
    total mode slot v is vertex v and slot p+e is edge e; in edge mode slot
    e is edge e."""
    incident = [[] for _ in range(g.p)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    if mode is SearchMode.TOTAL:
        return g.p + g.q, [[v] + [g.p + e for e in incident[v]] for v in range(g.p)]
    return g.q, incident


def _labeling(g, mode, assign):
    if mode is SearchMode.TOTAL:
        return Labeling(tuple(assign[: g.p]), tuple(assign[g.p:]))
    return Labeling(None, tuple(assign))


def brute_force_min_distinct(g, mode) -> SolveResult:
    """Enumerate every bijection of the label universe (numpy-chunked).

    Refuses universes larger than 10.
    """
    import numpy as np

    mode = SearchMode(mode)
    n, vslots = _vertex_slots(g, mode)
    if n > BRUTE_FORCE_UNIVERSE_LIMIT:
        raise TooLargeError(
            f"label universe {n} exceeds brute-force limit {BRUTE_FORCE_UNIVERSE_LIMIT}")
    if g.p == 0:
        return SolveResult("exact", value=0, lower=0, upper=0,
                           certificate=_labeling(g, mode, []))

    best = None
    best_perm = None
    count = 0
    chunk_size = 120_000
    perms = permutations(range(1, n + 1))
    while True:
        chunk = list(islice(perms, chunk_size))
        if not chunk:
            break
        count += len(chunk)
        arr = np.array(chunk, dtype=np.int64).reshape(len(chunk), n)
        wcols = np.zeros((len(chunk), g.p), dtype=np.int64)
        for v in range(g.p):
            if vslots[v]:
                wcols[:, v] = arr[:, list(vslots[v])].sum(axis=1)
        valid = np.ones(len(chunk), dtype=bool)
        for u, v in g.edges:
            valid &= wcols[:, u] != wcols[:, v]
        if not valid.any():
            continue
        wv = wcols[valid]
        if g.p > 1:
            sw = np.sort(wv, axis=1)
            distinct = 1 + (np.diff(sw, axis=1) != 0).sum(axis=1)
        else:
            distinct = np.ones(wv.shape[0], dtype=np.int64)
        i = int(distinct.argmin())
        if best is None or int(distinct[i]) < best:
            best = int(distinct[i])
            best_perm = [chunk[j] for j in np.nonzero(valid)[0][i:i + 1]][0]

    if best is None:
        return SolveResult("infeasible", nodes_explored=count)
    cert = _labeling(g, mode, list(best_perm))
    found = check(g, cert, "oracle witness").profile.distinct_count
    if found != best:
        raise IntegrityError(f"oracle witness has {found} distinct weights, "
                             f"not the claimed {best}")
    return SolveResult("exact", value=best, lower=best, upper=best,
                       certificate=cert, nodes_explored=count)


def anneal_by_rescoring(g, mode, lower, moves):
    """The witness search of `_Search.anneal` with no incremental state.

    Same 64-bit LCG and seed, the same shuffle, proposals, temperatures and
    Metropolis draws; after every proposed swap the weights are summed
    afresh from the slot labels and the labeling is scored from scratch:
    2 per adjacent pair of equal weights plus the vertices outside the
    `lower` largest weight classes.  Returns (fewest weights of a valid
    labeling met or None, its slot labels or None, moves made)."""
    n, vslots = _vertex_slots(g, SearchMode(mode))
    seed = 1

    def rand(m):
        nonlocal seed
        seed = (seed * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        return (seed >> 32) * m >> 32

    def rescore():
        weights = [sum(lab[s] for s in slots) for slots in vslots]
        equal = sum(weights[u] == weights[v] for u, v in g.edges)
        classes = sorted(Counter(weights).values(), reverse=True)
        return 2 * equal + g.p - sum(classes[:lower]), equal, len(classes)

    lab = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rand(i + 1)
        lab[i], lab[j] = lab[j], lab[i]
    score, equal, distinct = rescore()
    best, best_lab = (distinct, lab[:]) if not equal else (None, None)
    temp, cool = 0.25, 0.04 ** (1.0 / moves)
    made = 0
    while made < moves and (best is None or best > lower):
        made += 1
        a, b = rand(n), rand(n - 1)
        if b >= a:
            b += 1
        lab[a], lab[b] = lab[b], lab[a]
        new, equal, distinct = rescore()
        temp *= cool
        if new <= score or rand(2 ** 32) < exp((score - new) / temp) * 2.0 ** 32:
            score = new
            if not equal and (best is None or distinct < best):
                best, best_lab = distinct, lab[:]
        else:
            lab[a], lab[b] = lab[b], lab[a]
    return best, best_lab, made


def greedy_clique_by_edge_scan(g) -> int:
    """The greedy clique bound as first written, one `has_edge` scan per
    member: the reference for `coloring._greedy_clique`, which must pick the
    same clique."""
    best = 1 if g.p else 0
    for seed in range(g.p):
        clique = [seed]
        for v in sorted(g.neighbors(seed), key=lambda v: -g.degree(v)):
            if all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best

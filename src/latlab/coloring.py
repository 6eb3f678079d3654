"""Exact chromatic number for small graphs by a backtracking colouring
search, and a clique and odd-cycle lower bound for larger ones."""

from __future__ import annotations

from .errors import TooLargeError
from .graph import Graph

MAX_EXACT_ORDER = 16


def _greedy_clique(g: Graph) -> int:
    """Largest clique grown from each seed: its neighbours, by falling degree,
    join while in `cand`, the common neighbours of the members so far.  A
    seed of degree + 1 <= best, or a clique with size + |cand| <= best,
    cannot beat the best so far and is dropped."""
    adj = [frozenset(g.neighbors(v)) for v in range(g.p)]
    best = 1 if g.p else 0
    for seed in range(g.p):
        size, cand = 1, adj[seed]
        if len(cand) < best:
            continue
        for v in sorted(g.neighbors(seed), key=lambda v: -g.degree(v)):
            if size + len(cand) <= best:
                break
            if v in cand:
                size += 1
                cand = cand & adj[v]
        best = max(best, size)
    return best


def _colorable(g: Graph, k: int, order):
    """Yield every proper colouring of g into at most k unordered classes,
    as a list of colours 0..k-1 per vertex (one list, changed in place when
    resumed).  Along `order` a vertex takes at most one colour above those
    used so far, which keeps one colouring of each partition."""
    color = [-1] * g.p  # -1 until placed, so a vertex tries colour 0 first
    nbrs = [g.neighbors(v) for v in range(g.p)]
    used = [0] * (len(order) + 1)  # colours used before position i
    i = 0
    while i >= 0:
        if i == len(order):
            yield color
            i -= 1
            continue
        v, limit = order[i], min(k, used[i] + 1)
        c, taken = color[v] + 1, {color[u] for u in nbrs[v]}
        while c < limit and c in taken:
            c += 1
        if c < limit:
            color[v], used[i + 1] = c, max(used[i], c + 1)
            i += 1
        else:
            color[v] = -1
            i -= 1


def _bipartite(g: Graph) -> bool:
    """Whether g has no odd cycle: a search that 2-colours each component."""
    side = [-1] * g.p
    for root in range(g.p):
        if side[root] < 0:
            side[root], stack = 0, [root]
            while stack:
                v = stack.pop()
                for u in g.neighbors(v):
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        stack.append(u)
                    elif side[u] == side[v]:
                        return False
    return True


def chromatic_lower_bound(g: Graph) -> int:
    """The chromatic number, or above MAX_EXACT_ORDER the greedy clique
    size, raised to 3 when g has an odd cycle.  So a bound of at most 2
    means that g is bipartite: at most two weights need a 2-colouring."""
    if g.p <= MAX_EXACT_ORDER:
        return chromatic_number(g)
    clique = _greedy_clique(g)
    return clique if clique >= 3 or _bipartite(g) else 3


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number; 0 for the empty-order graph.  The least k,
    counting up from the greedy clique size, at which the colouring search
    along falling degree finds a colouring."""
    if g.p > MAX_EXACT_ORDER:
        raise TooLargeError(
            f"exact coloring limited to order {MAX_EXACT_ORDER}, got {g.p}")
    order = sorted(range(g.p), key=lambda v: -g.degree(v))
    k = _greedy_clique(g)
    while next(_colorable(g, k, order), None) is None:
        k += 1
    return k

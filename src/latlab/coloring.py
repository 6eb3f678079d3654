"""Exact chromatic number for small graphs by branch and bound."""

from __future__ import annotations

from .errors import TooLargeError
from .graph import Graph

MAX_EXACT_ORDER = 16


def _greedy_upper(g: Graph) -> int:
    order = sorted(range(g.p), key=lambda v: -g.degree(v))
    color = {}
    best = 0
    for v in order:
        used = {color[u] for u in g.neighbors(v) if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        best = max(best, c + 1)
    return best


def _greedy_clique(g: Graph) -> int:
    """Largest clique grown from each seed: its neighbours, by falling degree,
    join while in `cand`, the common neighbours of the members so far."""
    adj = [frozenset(g.neighbors(v)) for v in range(g.p)]
    best = 1 if g.p else 0
    for seed in range(g.p):
        size, cand = 1, adj[seed]
        for v in sorted(g.neighbors(seed), key=lambda v: -g.degree(v)):
            if v in cand:
                size += 1
                cand = cand & adj[v]
        best = max(best, size)
    return best


def _colorable(g: Graph, k: int, order) -> bool:
    color = [-1] * g.p

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        forbidden = {color[u] for u in g.neighbors(v) if color[u] >= 0}
        # allow at most one fresh color to break color-permutation symmetry
        limit = min(k, used + 1)
        for c in range(limit):
            if c in forbidden:
                continue
            color[v] = c
            if place(i + 1, max(used, c + 1)):
                return True
            color[v] = -1
        return False

    return place(0, 0)


def chromatic_lower_bound(g: Graph) -> int:
    """The chromatic number, or above MAX_EXACT_ORDER the greedy clique size."""
    return chromatic_number(g) if g.p <= MAX_EXACT_ORDER else _greedy_clique(g)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number; 0 for the empty-order graph."""
    if g.p > MAX_EXACT_ORDER:
        raise TooLargeError(
            f"exact coloring limited to order {MAX_EXACT_ORDER}, got {g.p}")
    if g.p == 0:
        return 0
    if g.q == 0:
        return 1
    lower = _greedy_clique(g)
    upper = _greedy_upper(g)
    order = sorted(range(g.p), key=lambda v: -g.degree(v))
    for k in range(lower, upper):
        if _colorable(g, k, order):
            return k
    return upper

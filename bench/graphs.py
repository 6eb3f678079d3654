"""Graph inputs for the benchmark, independent of latlab.

The population is every graph on 1 to 6 vertices (``graphs.json``, written by
``make_reference.py``) with its reference values.  Workloads draw from it
with a seeded vertex relabeling, so every seed meets the same isomorphism
classes as different labeled graphs: different cache keys and different
search trees, but the same reference answers.
"""

from __future__ import annotations

import json
from pathlib import Path

POPULATION_FILE = Path(__file__).resolve().parent / "graphs.json"


def load_population():
    return json.loads(POPULATION_FILE.read_text())


def graph6(p, edges):
    """Standard graph6 encoding (upper triangle, column order) for p <= 62."""
    adj = set(edges)
    bits = [1 if (i, j) in adj else 0 for j in range(1, p) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + p) + body


def graph6_decode(text):
    """(p, edges) of a graph6 string with p <= 62."""
    p = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> s & 1 for ch in text[1:] for s in (5, 4, 3, 2, 1, 0)]
    pairs = [(i, j) for j in range(1, p) for i in range(j)]
    return p, [pair for pair, bit in zip(pairs, bits) if bit]


def edges_of(entry):
    return graph6_decode(entry["g6"])[1]


def relabel(p, edges, rng):
    """The same graph under a random vertex permutation, edges canonical."""
    perm = list(range(p))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# Fixed graphs in the vertex order latlab's family generators use.

def cycle(n):
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def complete(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cone(p, edges):
    """K1 joined to the graph; the apex is the new last vertex p."""
    return sorted(list(edges) + [(v, p) for v in range(p)])


def wheel(n):
    return cone(n, cycle(n))


def has_isolated_edge(p, edges):
    degree = [0] * p
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return any(degree[u] == 1 and degree[v] == 1 for u, v in edges)


def chromatic_number(p, edges):
    """Exact chromatic number by backtracking (fine for p <= 10)."""
    if p == 0:
        return 0
    adj = [set() for _ in range(p)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    color = [-1] * p

    def place(v, k):
        if v == p:
            return True
        for c in range(k):
            if all(color[u] != c for u in adj[v]):
                color[v] = c
                if place(v + 1, k):
                    return True
        color[v] = -1
        return False

    k = 1
    while not place(0, k):
        k += 1
    return k


def canonical(p, edges):
    """Smallest sorted edge tuple over all vertex permutations (p <= 7)."""
    from itertools import permutations
    return min(tuple(sorted((min(s[u], s[v]), max(s[u], s[v])) for u, v in edges))
               for s in permutations(range(p)))


def find_class(population, p, edges):
    """The population entry isomorphic to the graph, or None."""
    key = canonical(p, edges)
    for entry in population:
        if entry["p"] == p and entry["q"] == len(edges) \
                and canonical(p, edges_of(entry)) == key:
            return entry
    return None

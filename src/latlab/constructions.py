"""Closed-form labelings for specific families, and the cycle-to-path cut."""

from __future__ import annotations

from typing import Tuple

from .errors import ParameterError, PreconditionError
from .graph import FamilySpec, Graph, generate
from .labeling import Labeling, check, verify

# Interleaved label sequences v1, e1, v2, e2, ..., vn for short odd paths,
# each achieving exactly two distinct weights.
ODD_PATH_SEQUENCES = {
    3: (1, 5, 3, 4, 2),
    5: (1, 9, 7, 3, 2, 5, 8, 6, 4),
    7: (13, 6, 4, 10, 1, 8, 9, 3, 5, 11, 2, 7, 12),
}


def construct_k2_plus_empty(n: int) -> Tuple[Graph, Labeling]:
    """K2 + On with the explicit labeling: endpoints 1 and 2, their edge 3,
    isolated vertex i labeled i+3.  Weights are (4, 5, 4, 5, 6, ...)."""
    if n < 1:
        raise ParameterError(f"k2_plus_empty construction requires n >= 1, got {n}")
    g = generate(FamilySpec("k2_plus_empty", (n,)))
    vertex_labels = (1, 2) + tuple(i + 3 for i in range(1, n + 1))
    f = Labeling(vertex_labels, (3,))
    check(g, f, "construct_k2_plus_empty")
    return g, f


def construct_small_odd_path(n: int) -> Tuple[Graph, Labeling]:
    """Two-weight total labelings of P3, P5, P7 from fixed sequences."""
    if n not in ODD_PATH_SEQUENCES:
        raise ParameterError(
            f"no closed-form odd-path labeling for n={n}; use the solver instead")
    seq = ODD_PATH_SEQUENCES[n]
    g = generate(FamilySpec("path", (n,)))
    f = Labeling(tuple(seq[0::2]), tuple(seq[1::2]))
    check(g, f, "construct_small_odd_path")
    return g, f


def path_from_cycle(cycle: Graph, f: Labeling, doomed: int) -> Tuple[Graph, Labeling]:
    """Cut a labeled cycle at an edge labeled 1 and shift all labels down by 1.

    Every vertex weight drops by exactly 3, so validity and the distinct
    weight count carry over to the resulting path.  The path is re-indexed
    starting from the doomed edge's higher endpoint, walking away from it.
    """
    if f.mode != "total":
        raise PreconditionError("path_from_cycle takes a total labeling, got an edge one")
    n = cycle.p
    if n < 3 or any(cycle.degree(v) != 2 for v in range(n)):
        raise PreconditionError("input graph is not a cycle")
    if not (0 <= doomed < cycle.q):
        raise PreconditionError(f"edge id {doomed} out of range")
    a, b = cycle.edges[doomed]
    walk = [b]
    prev = a
    while len(walk) < n:  # 2-regular: every vertex has a neighbour other than prev
        cur = walk[-1]
        nxt = next(u for u in cycle.neighbors(cur) if u != prev)
        prev = cur
        walk.append(nxt)
    if len(set(walk)) < n:  # the walk closed early: more than one cycle
        raise PreconditionError("input graph is not a cycle")
    report = verify(cycle, f)
    if not report.valid:
        raise PreconditionError("input labeling is not a valid local antimagic total labeling")
    if f.edge_labels[doomed] != 1:
        raise PreconditionError(
            f"doomed edge must be labeled 1, got {f.edge_labels[doomed]}")

    label = dict(zip(cycle.edges, f.edge_labels))
    path = generate(FamilySpec("path", (n,)))
    out = Labeling(tuple(f.vertex_labels[v] - 1 for v in walk),
                   tuple(label[min(u, v), max(u, v)] - 1 for u, v in zip(walk, walk[1:])))

    old_weights = report.profile.weights
    check(path, out, "path_from_cycle", [old_weights[v] - 3 for v in walk])
    return path, out

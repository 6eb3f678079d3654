"""Labeling transfers between a graph and its cones.

Three constructions move labelings across the cone operation:
  * cone_to_total: edge labeling of K1∨G  →  total labeling of G
  * total_to_cone: total labeling of G    →  edge labeling of K1∨G
  * double_cone_collapse: edge labeling of G∨O2  →  total labeling of G∨K1
In each one the induced weight of every surviving base vertex is preserved
exactly, which is what makes the chromatic-number bookkeeping sound.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Tuple

from .errors import PreconditionError, StructureError
from .graph import Graph, join
from .labeling import Labeling, check, verify


def _delete_vertices(g: Graph, gone: set) -> Tuple[Graph, list]:
    """Remove vertices, keeping the order of the rest.  Returns (graph, keep):
    new vertex i is old vertex keep[i]."""
    keep = [v for v in range(g.p) if v not in gone]
    edges = [(bisect_left(keep, u), bisect_left(keep, v))
             for u, v in g.edges if u not in gone and v not in gone]
    return Graph.from_edges(len(keep), edges), keep


def _label_of(g: Graph, lab: Labeling):
    """Look an edge label up by the edge's two endpoints, in either order."""
    by_edge = dict(zip(g.edges, lab.edge_labels))
    return lambda u, v: by_edge[(u, v) if u < v else (v, u)]


def cone_to_total(cone: Graph, g: Labeling, apex: int) -> Tuple[Graph, Labeling]:
    """Strip the apex: each base vertex inherits its apex-edge label, base
    edges keep theirs.  Base weights equal the original induced values."""
    if g.mode != "edge":
        raise PreconditionError("cone_to_total takes an edge labeling, got a total one")
    if not (0 <= apex < cone.p):
        raise StructureError(f"apex index {apex} out of range")
    if cone.degree(apex) != cone.p - 1:
        raise StructureError(f"apex {apex} is not adjacent to every other vertex")
    report = verify(cone, g)
    if not report.valid:
        raise PreconditionError("input is not a valid local antimagic edge labeling")

    base, keep = _delete_vertices(cone, {apex})
    label = _label_of(cone, g)
    f = Labeling(tuple(label(v, apex) for v in keep),
                 tuple(label(keep[u], keep[v]) for u, v in base.edges))

    old = report.profile.weights
    check(base, f, "cone_to_total", [old[v] for v in keep])
    return base, f


def total_to_cone(g: Graph, f: Labeling) -> Tuple[Graph, Labeling]:
    """Cone over G: vertex labels become apex-edge labels, edge labels stay.

    Requires the vertex-label sum S to avoid every weight of G, since S
    becomes the apex's induced value and the apex is adjacent to everything.
    """
    if f.mode != "total":
        raise PreconditionError("total_to_cone takes a total labeling, got an edge one")
    report = verify(g, f)
    if not report.valid:
        raise PreconditionError("input is not a valid local antimagic total labeling")
    s = sum(f.vertex_labels)
    for j, w in enumerate(report.profile.weights):
        if w == s:
            raise PreconditionError(
                f"vertex-label sum {s} collides with the weight of vertex {j}")

    cone = join(g, Graph(1, ()))
    apex = g.p
    label = _label_of(g, f)
    lab = Labeling(None, tuple(f.vertex_labels[u] if v == apex else label(u, v)
                               for u, v in cone.edges))

    check(cone, lab, "total_to_cone", report.profile.weights + (s,))
    return cone, lab


def double_cone_collapse(double_cone: Graph, g: Labeling,
                         apexes: Tuple[int, int]) -> Tuple[Graph, Labeling]:
    """Collapse G∨O2 to a total labeling of G∨K1.

    The second apex's cone-edge labels become vertex labels of G; the kept
    apex receives the one label not used by g, which is 2p+q+1 for a base
    graph of order p and size q.
    """
    if g.mode != "edge":
        raise PreconditionError("double_cone_collapse takes an edge labeling, got a total one")
    a1, a2 = apexes
    if a1 == a2 or not (0 <= a1 < double_cone.p) or not (0 <= a2 < double_cone.p):
        raise StructureError(f"bad apex pair {apexes}")
    if double_cone.has_edge(a1, a2):
        raise StructureError("the two apexes must be non-adjacent")
    p = double_cone.p - 2
    if double_cone.degree(a1) != p or double_cone.degree(a2) != p:
        raise StructureError("each apex must be adjacent to every base vertex")
    q = double_cone.q - 2 * p
    if p < 2 or q < 1:
        raise PreconditionError(f"base graph must have order >= 2 and size >= 1, got ({p},{q})")
    report = verify(double_cone, g)
    if not report.valid:
        raise PreconditionError("input is not a valid local antimagic edge labeling")

    top = 2 * p + q + 1
    weights = report.profile.weights
    for v in range(double_cone.p):
        if v not in (a1, a2) and weights[v] == top + weights[a1]:
            raise PreconditionError(
                f"kept-apex weight {top + weights[a1]} collides with vertex {v}")

    base, keep = _delete_vertices(double_cone, {a1, a2})
    out_graph = join(base, Graph(1, ()))
    label = _label_of(double_cone, g)
    vertex_labels = tuple(label(v, a2) for v in keep) + (top,)
    keep.append(a1)  # the kept apex is out-vertex base.p
    f = Labeling(vertex_labels, tuple(label(keep[u], keep[v]) for u, v in out_graph.edges))

    expected = [weights[v] for v in keep]
    expected[-1] += top
    check(out_graph, f, "double_cone_collapse", expected)
    return out_graph, f

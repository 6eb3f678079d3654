"""Labelings, induced vertex weights, and local antimagic checks.

A labeling assigns labels to edges and, for a total labeling, to vertices
as well; an edge labeling has no vertex labels.  Either way the weight of a
vertex is its own label (if it has one) plus the labels of its incident
edges, so isolated vertices of an edge labeling weigh 0.  The labels must
form a bijection onto {1, ..., n}, n being the number of labelled slots
(p + q for a total labeling, q for an edge labeling).  A labeling is locally
antimagic when, in addition, adjacent vertices never share a weight.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .errors import IntegrityError, ValidationError
from .graph import Graph


class Labeling(NamedTuple):
    vertex_labels: Optional[Tuple[int, ...]]  # None for an edge labeling
    edge_labels: Tuple[int, ...]

    @property
    def mode(self) -> str:
        return "edge" if self.vertex_labels is None else "total"

    @property
    def labels(self) -> Tuple[int, ...]:
        """Every label, vertex labels first."""
        return (self.vertex_labels or ()) + self.edge_labels


class WeightProfile(NamedTuple):
    weights: Tuple[int, ...]
    distinct_count: int


class VerifyReport(NamedTuple):
    profile: WeightProfile
    violations: Tuple[int, ...]  # edge ids whose endpoints share a weight
    duplicates: Tuple[int, ...]  # labels used more than once or outside {1, ..., n}
    gaps: Tuple[int, ...]  # labels of {1, ..., n} never used

    @property
    def bijection_ok(self) -> bool:
        return not (self.duplicates or self.gaps)

    @property
    def valid(self) -> bool:
        return self.bijection_ok and not self.violations


def _multiset_problems(labels, n):
    """Return (duplicates, gaps) of a label multiset vs {1, ..., n}."""
    seen = {}
    for x in labels:
        seen[x] = seen.get(x, 0) + 1
    bad = sorted(x for x, c in seen.items() if c > 1 or not 1 <= x <= n)
    gaps = sorted(x for x in range(1, n + 1) if x not in seen)
    return tuple(bad), tuple(gaps)


def verify(g: Graph, lab: Labeling) -> VerifyReport:
    """Full report on a candidate labeling.  Never raises on bad labels;
    raises ValidationError only when the label counts do not fit g."""
    vertex_labels = lab.vertex_labels
    if (vertex_labels is not None and len(vertex_labels) != g.p) \
            or len(lab.edge_labels) != g.q:
        shape = "-" if vertex_labels is None else len(vertex_labels)
        raise ValidationError(
            f"{lab.mode} labeling shape ({shape},{len(lab.edge_labels)}) "
            f"does not match graph (p={g.p}, q={g.q})")
    labels = lab.labels
    duplicates, gaps = _multiset_problems(labels, len(labels))
    weights = list(vertex_labels) if vertex_labels is not None else [0] * g.p
    for (u, v), x in zip(g.edges, lab.edge_labels):
        weights[u] += x
        weights[v] += x
    violations = tuple(e for e, (u, v) in enumerate(g.edges) if weights[u] == weights[v])
    profile = WeightProfile(tuple(weights), len(set(weights)))
    return VerifyReport(profile, violations, duplicates, gaps)


def check(g: Graph, lab: Labeling, what: str, weights=None) -> VerifyReport:
    """verify(g, lab), raising IntegrityError unless the labeling is valid
    and, when `weights` is given, induces exactly those weights.

    This is how the package re-checks its own results; unlike `assert`, it
    is not stripped by `python -O`.
    """
    report = verify(g, lab)
    if not report.valid:
        raise IntegrityError(f"{what}: not a valid local antimagic {lab.mode} labeling")
    if weights is not None and report.profile.weights != tuple(weights):
        raise IntegrityError(f"{what}: weights {list(report.profile.weights)} "
                             f"differ from the expected {list(weights)}")
    return report

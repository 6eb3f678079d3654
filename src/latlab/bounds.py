"""Lower/upper bounds and the table of proven values for named families.

The lower bound combines the chromatic number (a valid labeling's weights
form a proper coloring) with the isolated-vertex count (isolated vertices
all carry distinct weights in total mode).  The upper bound is a proven
table value or the trivial p; nothing here searches (`latlab solve` does).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .coloring import chromatic_lower_bound
from .graph import FamilySpec, Graph


class KnownResult(NamedTuple):
    quantity: str  # "chi_lat" | "chi_la"
    low: int
    high: int
    status: str  # "theorem" | "conjecture" | "range"
    citation: str


class BoundsReport(NamedTuple):
    chromatic: int  # above the exact-coloring order, a clique or odd-cycle bound
    isolated_count: int
    lower: int
    upper: int
    upper_source: str  # "known-table" | "trivial"
    notes: Tuple[str, ...] = ()


def chi_lat_lower_bound(g: Graph) -> int:
    """max(chromatic number, isolated-vertex count), with a clique and
    odd-cycle bound above the exact-coloring order; equals n on the
    edgeless graph On."""
    return max(chromatic_lower_bound(g), len(g.isolated_vertices()))


# ---------------------------------------------------------------------------
# Known-value table

def known_value(spec: FamilySpec) -> Optional[KnownResult]:
    """Proven (or conjectured) value of chi_lat / chi_la for a family.

    Returns None where no result is on record (e.g. odd wheels).
    Conjecture entries are flagged and must never feed solver bounds.
    """
    kind, params = spec.kind, spec.params
    if kind == "empty":
        n = params[0]
        return KnownResult("chi_lat", n, n, "theorem", "edgeless-definition")
    if kind == "complete":
        n = params[0]
        if n >= 1:
            return KnownResult("chi_lat", n, n, "theorem", "complete-graphs")
        return None
    if kind == "path":
        return _path_value(params[0])
    if kind == "cycle":
        n = params[0]
        v = 2 if n % 2 == 0 else 3
        return KnownResult("chi_lat", v, v, "theorem", "cycles")
    if kind == "wheel":
        return _wheel_value(params[0])
    if kind == "fan":
        n = params[0]
        if n >= 3 and n % 2 == 1:
            return KnownResult("chi_la", 3, 3, "theorem", "fans-odd-order")
        return None
    if kind == "k2_plus_empty":
        n = params[0]
        if n == 0:
            return KnownResult("chi_lat", 2, 2, "theorem", "complete-graphs")
        v = 2 if n <= 2 else n
        return KnownResult("chi_lat", v, v, "theorem", "k2-plus-isolated")
    if kind == "join_complete_cycle":
        m, n = params
        if m == 0:
            return known_value(FamilySpec("cycle", (n,)))
        if m == 1:
            return _wheel_value(n)
        # proven for K_m ∨ C_n when m+1 and n share parity (both >= 3)
        if m >= 2 and n >= 3:
            if m % 2 == 1 and n % 2 == 0:
                return KnownResult("chi_lat", m + 2, m + 2, "theorem", "complete-join-cycle")
            if m % 2 == 0 and n % 2 == 1:
                return KnownResult("chi_lat", m + 3, m + 3, "theorem", "complete-join-cycle")
        return None
    if kind == "cycle_join_empty":
        p, m = params
        if m == 0:
            return known_value(FamilySpec("cycle", (p,)))
        if m == 1:
            return _wheel_value(p)
        if m == 2 and p % 2 == 1:
            return KnownResult("chi_lat", 4, 5, "range", "cycle-double-cone-lemma")
        return None
    if kind == "complete_bipartite":
        return _bipartite_value(*params)
    return None


def _path_value(n: int) -> Optional[KnownResult]:
    if n == 1:
        return KnownResult("chi_lat", 1, 1, "theorem", "complete-graphs")
    if n == 4:
        return KnownResult("chi_lat", 3, 3, "theorem", "even-paths")
    if n % 2 == 0:
        return KnownResult("chi_lat", 2, 2, "theorem", "even-paths")
    if n in (3, 5, 7):
        return KnownResult("chi_lat", 2, 2, "theorem", "odd-path-sequences")
    return KnownResult("chi_lat", 2, 2, "conjecture", "odd-path-conjecture")


def _wheel_value(n: int) -> Optional[KnownResult]:
    if n == 3:
        # W3 is the complete graph on four vertices
        return KnownResult("chi_lat", 4, 4, "theorem", "complete-graphs")
    if n >= 4 and n % 2 == 0:
        return KnownResult("chi_lat", 3, 3, "theorem", "even-wheels")
    return None


def _bipartite_value(a: int, b: int) -> Optional[KnownResult]:
    if a < 1 or b < 1:
        return None
    p, q = min(a, b), max(a, b)
    covered = (
        p == 1
        or (p == 2 and q == 2)
        or (p % 2 == q % 2 and 2 <= p < q)
        or (p % 2 != q % 2)
    )
    if covered:
        return KnownResult("chi_lat", 2, 2, "theorem", "complete-bipartite")
    return None


def bounds_report(g: Graph, family: Optional[FamilySpec] = None) -> BoundsReport:
    """Combined bounds for chi_lat of g, found without search.

    The upper bound comes from the known table when a family is given and
    the table has a non-conjecture entry, else from the trivial bound p
    (every graph has a local antimagic total labeling).
    """
    chrom = chromatic_lower_bound(g)
    isolated = len(g.isolated_vertices())
    lower = max(chrom, isolated)
    notes = []
    upper, source = g.p, "trivial"
    if family is not None:
        kr = known_value(family)
        if kr is not None and kr.quantity == "chi_lat":
            notes.append(f"known[{kr.citation}]: {kr.quantity} in "
                         f"[{kr.low},{kr.high}] ({kr.status})")
            if kr.status != "conjecture":
                upper, source = kr.high, "known-table"

    if upper < lower:
        # a table entry below the computed lower bound: never invert
        notes.append("upper raised to lower (inconsistent sources)")
        upper = lower
    return BoundsReport(chrom, isolated, lower, upper, source, tuple(notes))

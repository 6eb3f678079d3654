"""Exact minimum-distinct-weight computation.

solve_min_distinct / find_with_at_most_k run a pruned backtracking search
over label slots; iter_valid_labelings lists labelings in its order.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .bounds import chi_lat_lower_bound
from .coloring import chromatic_lower_bound
from .errors import IntegrityError, ParameterError, TooLargeError
from .graph import FamilySpec, Graph
from .labeling import Labeling, check

_WEIGHT_TABLE_LIMIT = 10_000_000  # 80 MB of per-weight counts


class SearchMode(str, Enum):
    TOTAL = "total"
    EDGE = "edge"


@dataclass(frozen=True)
class SolveBudget:
    max_nodes: Optional[int] = None
    max_millis: Optional[int] = None

    def __post_init__(self):
        if self.max_nodes is None and self.max_millis is None:
            raise ParameterError("at least one of max_nodes / max_millis must be set")
        for limit in (self.max_nodes, self.max_millis):
            if limit is not None and limit <= 0:
                raise ParameterError("budget limits must be positive")


GENEROUS_BUDGET = SolveBudget(max_nodes=200_000_000, max_millis=600_000)


@dataclass(frozen=True)
class SolveResult:
    status: str  # "exact" | "lower_upper" | "infeasible" | "exhausted"
    value: Optional[int] = None
    lower: Optional[int] = None
    upper: Optional[int] = None
    certificate: Optional[Labeling] = None
    nodes_explored: int = 0


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "found" | "none" | "unknown"
    certificate: Optional[Labeling] = None
    nodes_explored: int = 0


# ---------------------------------------------------------------------------
# Slot model: in total mode slot v (v < p) is vertex v and slot p+e is edge e;
# in edge mode slot e is edge e.  vslots[v] lists the slots feeding v's weight.

def _slot_model(g: Graph, mode: SearchMode):
    if mode is SearchMode.TOTAL:
        n = g.p + g.q
        vslots = [(v,) + tuple(g.p + e for e in g.incident_edges(v)) for v in range(g.p)]
    else:
        n = g.q
        vslots = [tuple(g.incident_edges(v)) for v in range(g.p)]
    touches = [[] for _ in range(n)]
    for v, slots in enumerate(vslots):
        for s in slots:
            touches[s].append(v)
    return n, vslots, [tuple(t) for t in touches]


def _slot_order(g: Graph, mode: SearchMode, deadline: Optional[float] = None):
    """Static slot order: complete vertex weights as early as possible.

    Greedy: pick the slot finishing the most vertices; tie-break by how
    close it brings its nearest vertex to completion, then by slot index.
    Keys only fall as slots are placed, so a heap that gets each slot's
    new key when it changes pops the same slot as a full scan; a slot's
    older keys are larger and pop after it is placed.  Past `deadline`
    (checked every 1,024 placements) the unplaced slots follow in index
    order.
    """
    n, vslots, touches = _slot_model(g, mode)
    need = [len(s) for s in vslots]

    def key(s):
        completes = sum(1 for v in touches[s] if need[v] == 1)
        closeness = min((need[v] - 1 for v in touches[s]), default=n + 1)
        return (-completes, closeness, s)

    current = [key(s) for s in range(n)]
    heap = list(current)
    heapq.heapify(heap)
    placed = [False] * n
    order = []
    while heap:
        s = heapq.heappop(heap)[2]
        if placed[s]:
            continue
        placed[s] = True
        order.append(s)
        if deadline is not None and not len(order) & 1023 and time.monotonic() > deadline:
            return order + [t for t in range(n) if not placed[t]]
        for v in touches[s]:
            need[v] -= 1
            for t in vslots[v]:
                if not placed[t]:
                    k = key(t)
                    if k != current[t]:
                        current[t] = k
                        heapq.heappush(heap, k)
    return order


def _labeling_from_assignment(g: Graph, mode: SearchMode, assign) -> Labeling:
    if mode is SearchMode.TOTAL:
        return Labeling(tuple(assign[: g.p]), tuple(assign[g.p:]))
    return Labeling(None, tuple(assign))


def symmetry_orbit(g: Graph, spec: Optional[FamilySpec], mode: SearchMode):
    """A transitive automorphic slot orbit for families where it is known
    a priori: cycle rotation on edges, complete-graph symmetry."""
    if spec is None:
        return None
    if spec.kind == "cycle":
        if mode is SearchMode.TOTAL:
            return tuple(range(g.p, g.p + g.q))
        return tuple(range(g.q))
    if spec.kind == "complete":
        if mode is SearchMode.TOTAL:
            return tuple(range(g.p)) if g.p >= 2 else None
        return tuple(range(g.q)) if g.q >= 2 else None
    return None


def _has_isolated_edge(g: Graph) -> bool:
    return any(g.degree(u) == 1 and g.degree(v) == 1 for u, v in g.edges)


class _Search:
    """Backtracking over label slots with incremental weight bookkeeping.

    Slots are filled in the static order `_slot_order`, so the depth at
    which each vertex weight completes is fixed in advance; `steps[d]`
    holds what placing a label at depth d touches and which adjacent pairs
    it may set equal."""

    def __init__(self, g: Graph, mode: SearchMode, budget: SolveBudget,
                 family: Optional[FamilySpec] = None, pruning: bool = True):
        # the time budget covers set-up, slot ordering included
        self.deadline = (time.monotonic() + budget.max_millis / 1000.0
                         if budget.max_millis is not None else None)
        n, vslots, touches = _slot_model(g, mode)
        self.n = n
        # a vertex fed by r slots weighs at most the sum of the r largest labels
        r = max(map(len, vslots), default=0)
        heaviest = r * n - r * (r - 1) // 2
        if heaviest > _WEIGHT_TABLE_LIMIT:
            raise TooLargeError(f"vertex weights up to {heaviest} exceed the "
                                f"weight table limit {_WEIGHT_TABLE_LIMIT}")
        self.wcount = [0] * (heaviest + 1)  # vertices per weight
        order = _slot_order(g, mode, self.deadline)
        self.assign = [0] * n
        self.wpart = [0] * g.p
        # vertices with no contributing slots (isolated, edge mode) weigh 0
        self.wcount[0] = sum(1 for s in vslots if not s)
        self.distinct = int(self.wcount[0] > 0)
        self.nodes = 0
        self.cut = False  # set when the budget stopped the search
        self.pruning = pruning
        self.allowed = g.p  # max distinct weights tolerated in this search
        self.max_nodes = budget.max_nodes

        # the orbit representative (earlier in the order) keeps the orbit's
        # smallest label: a slot of orbit_rest starts above assign[star]
        orbit_rest, star = (), None
        if pruning:
            orbit = symmetry_orbit(g, family, mode)
            if orbit and len(orbit) >= 2:
                pos = {s: i for i, s in enumerate(order)}
                star = min(orbit, key=lambda s: pos[s])
                orbit_rest = frozenset(orbit) - {star}
        at = {v: d for d, s in enumerate(order) for v in touches[s]}  # v completes at d
        self.steps = []
        for d, s in enumerate(order):
            done = tuple(v for v in touches[s] if at[v] == d)
            pairs = tuple((v, u) for v in done for u in g.neighbors(v)
                          if at[u] < d or (at[u] == d and u < v))
            self.steps.append((s, touches[s], done, pairs,
                               star if s in orbit_rest else None))
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.cut = True  # set-up outlasted the budget: search no node

    def labelings(self):
        """Yield the distinct-weight count of every complete labeling, in
        ascending label order, leaving the labeling in `assign` until
        resumed; `allowed` is read again after each yield.  Each free label
        tried at a slot counts one node; `cut` is set when the budget stops
        the search.  With pruning, a label that would add a weight past
        `allowed` is refused by one `wcount` read, unapplied, and still
        counts its node, so the tree is that of applying it."""
        if self.cut:
            return
        n, steps, assign, wpart, wcount = (self.n, self.steps, self.assign,
                                           self.wpart, self.wcount)
        pruning, allowed, distinct = self.pruning, self.allowed, self.distinct
        limit = self.max_nodes if self.max_nodes is not None else sys.maxsize
        deadline, monotonic, nodes = self.deadline, time.monotonic, self.nodes
        # free labels as a doubly linked list between sentinels 0 and n + 1
        nxt = list(range(1, n + 2))
        prv = list(range(-1, n + 1))
        depth = 0
        while True:
            if depth == n:
                self.nodes = nodes
                yield distinct
                allowed = self.allowed
                label = n + 1
            else:
                s, touch, done, pairs, star = steps[depth]
                label = nxt[0]
                if star is not None:
                    floor = assign[star]
                    while label <= floor:
                        label = nxt[label]
            while True:  # try labels from `label` up; out of labels, back up
                if done and distinct >= allowed and pruning:
                    # a label giving done[0] a weight no vertex has yet would
                    # add one weight too many: refuse it unapplied
                    base = wpart[done[0]]
                    while label <= n and (distinct > allowed or not wcount[base + label]):
                        nodes += 1
                        if nodes > limit or (deadline is not None and not nodes & 1023
                                             and monotonic() > deadline):
                            self.nodes, self.cut = nodes, True
                            return
                        label = nxt[label]
                if label > n:
                    if depth == 0:
                        self.nodes = nodes
                        return
                    depth -= 1
                    s, touch, done, pairs, _ = steps[depth]
                    label = assign[s]
                    nxt[prv[label]] = prv[nxt[label]] = label
                    for v in done:
                        w = wpart[v]
                        wcount[w] -= 1
                        if not wcount[w]:
                            distinct -= 1
                    for v in touch:
                        wpart[v] -= label
                    label = nxt[label]
                    continue
                nodes += 1
                if nodes > limit or (deadline is not None and not nodes & 1023
                                     and monotonic() > deadline):
                    self.nodes, self.cut = nodes, True
                    return
                for v in touch:
                    wpart[v] += label
                for v, u in pairs:
                    if wpart[v] == wpart[u]:
                        break
                else:
                    for v in done:
                        w = wpart[v]
                        if not wcount[w]:
                            distinct += 1
                        wcount[w] += 1
                    if not pruning or distinct <= allowed:
                        break  # leaves the while loop: place label, descend
                    for v in done:
                        w = wpart[v]
                        wcount[w] -= 1
                        if not wcount[w]:
                            distinct -= 1
                for v in touch:
                    wpart[v] -= label
                label = nxt[label]
            assign[s] = label
            nxt[prv[label]], prv[nxt[label]] = nxt[label], prv[label]
            depth += 1


def solve_min_distinct(g: Graph, mode: SearchMode, budget: SolveBudget = GENEROUS_BUDGET,
                       family: Optional[FamilySpec] = None,
                       pruning: bool = True) -> SolveResult:
    """Minimum distinct-weight count by branch and bound.

    Returns an exact value with a verified certificate when the search
    closes; budget exhaustion yields bounds (or exhausted), never a wrong
    exact answer.
    """
    mode = SearchMode(mode)
    if mode is SearchMode.EDGE and _has_isolated_edge(g):
        return SolveResult("infeasible")
    lower = max(1, chi_lat_lower_bound(g) if mode is SearchMode.TOTAL
                else chromatic_lower_bound(g))
    srch = _Search(g, mode, budget, family=family, pruning=pruning)
    best = assign = None
    for d in srch.labelings():
        if best is None or d < best:
            best, assign = d, list(srch.assign)
            srch.allowed = d - 1
            if d <= lower:
                break

    nodes = srch.nodes
    if best is None and not srch.cut:
        # every graph has a local antimagic total labeling, and every graph
        # without an isolated edge a local antimagic one (Haslegrave 2018)
        raise IntegrityError(f"closed {mode.value}-mode search found no labeling")
    if best is None:
        return SolveResult("exhausted", lower=lower, nodes_explored=nodes)
    cert = _labeling_from_assignment(g, mode, assign)
    _check_witness(g, cert, best)
    if not srch.cut or best <= lower:
        return SolveResult("exact", value=best, lower=best, upper=best,
                           certificate=cert, nodes_explored=nodes)
    return SolveResult("lower_upper", lower=lower, upper=best,
                       certificate=cert, nodes_explored=nodes)


def find_with_at_most_k(g: Graph, k: int, mode: SearchMode,
                        budget: SolveBudget = GENEROUS_BUDGET,
                        family: Optional[FamilySpec] = None) -> FeasibilityResult:
    """Find any valid labeling with at most k distinct weights.

    Distinguishes found / definitively-none / unknown (budget ran out).
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    mode = SearchMode(mode)
    if mode is SearchMode.EDGE and _has_isolated_edge(g):
        return FeasibilityResult("none")
    srch = _Search(g, mode, budget, family=family)
    srch.allowed = k
    for _ in srch.labelings():
        cert = _labeling_from_assignment(g, mode, srch.assign)
        _check_witness(g, cert, None)
        return FeasibilityResult("found", cert, srch.nodes)
    return FeasibilityResult("unknown" if srch.cut else "none", nodes_explored=srch.nodes)


def iter_valid_labelings(g: Graph, mode: SearchMode, limit: int,
                         budget: SolveBudget = GENEROUS_BUDGET):
    """First `limit` valid labelings in deterministic search order.

    Raises TooLargeError when the budget stops the search first; a search
    that closes with fewer labelings returns them all."""
    mode = SearchMode(mode)
    srch = _Search(g, mode, budget, pruning=False)
    found = []
    for _ in srch.labelings():
        found.append(_labeling_from_assignment(g, mode, srch.assign))
        if len(found) >= limit:
            return found
    if srch.cut:
        raise TooLargeError(f"budget stopped the search after {srch.nodes} nodes "
                            f"with {len(found)} of {limit} labelings found")
    return found


def _check_witness(g: Graph, cert: Labeling, value):
    report = check(g, cert, "solver witness")
    if value is not None and report.profile.distinct_count != value:
        raise IntegrityError(f"solver witness has {report.profile.distinct_count} "
                             f"distinct weights, not the claimed {value}")

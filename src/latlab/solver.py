"""Exact minimum-distinct-weight computation.

solve_min_distinct / find_with_at_most_k run a pruned backtracking search
over label slots, filled in a static order that completes the most
constrained vertex first, one labeling per automorphism class
(`_Search.floors`).  solve_min_distinct first looks for a witness at the
lower bound by a seeded annealing pass, then searches below each labeling
found.  Two weights are decided class first (`_Search.two_weights`): each
proper colouring into two classes, then each pair of class weights, then
the labels.
"""

from __future__ import annotations

import heapq
import sys
import time
from enum import Enum
from itertools import chain
from math import exp, inf
from typing import NamedTuple, Optional

from .bounds import chi_lat_lower_bound
from .budget import SolveBudget
from .coloring import MAX_EXACT_ORDER, _colorable, chromatic_lower_bound
from .errors import IntegrityError, ParameterError, TooLargeError
from .graph import Graph, has_isolated_edge
from .labeling import Labeling, check

_WEIGHT_TABLE_LIMIT = 10_000_000  # 80 MB of per-weight counts
_ANNEAL_MOVES = 4_096  # most moves of the witness search before the tree; 0 skips it
_MOVE_NODES = 8  # search nodes charged per move
_CLASS_FIRST = True  # decide k = 2 by `_Search.two_weights`; False searches the tree
_SYMMETRY = True  # keep one labeling per automorphism class (`_Search.floors`)
# ceil(e**-4 * 2**32): a Metropolis draw this high refuses any move uphill
# by 1 or more below temperature 0.25, where every move of `anneal` is tested
_REFUSE = 78_665_071


class SearchMode(str, Enum):
    TOTAL = "total"
    EDGE = "edge"


GENEROUS_BUDGET = SolveBudget(max_nodes=200_000_000, max_millis=600_000)


class SolveResult(NamedTuple):
    status: str  # "exact" | "lower_upper" | "infeasible" | "exhausted"
    value: Optional[int] = None
    lower: Optional[int] = None
    upper: Optional[int] = None
    certificate: Optional[Labeling] = None
    nodes_explored: int = 0


class FeasibilityResult(NamedTuple):
    status: str  # "found" | "none" | "unknown"
    certificate: Optional[Labeling] = None
    nodes_explored: int = 0


# ---------------------------------------------------------------------------
# Slot model: in total mode slot v (v < p) is vertex v and slot p+e is edge e;
# in edge mode slot e is edge e.  vslots[v] lists the slots feeding v's weight,
# in ascending order.

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


def _slot_order(g: Graph, mode: SearchMode):
    """Static slot order: vertices complete one at a time, the most
    constrained first.

    The next vertex has the most neighbours already ordered, as in maximum
    cardinality search (Tarjan & Yannakakis 1984) and DSATUR (Brelaz 1979);
    ties go to the larger degree, then the lower index.  Its open slots go
    together: its vertex slot in total mode, then its edges to vertices
    ordered after it, in their order.  So each weight completes right next
    to the completed weights it must differ from.  A lazy heap of
    (-ordered neighbours, -degree, v) finds the next vertex, one entry per
    change of v: O((p + q) log p) in all."""
    seen = [0] * g.p  # neighbours ordered; -1 once v is ordered
    heap = [(0, -g.degree(v), v) for v in range(g.p)]
    heapq.heapify(heap)
    vorder = []
    while heap:
        k, _, v = heapq.heappop(heap)
        if seen[v] == -k:  # else stale: v is ordered or has gained neighbours
            seen[v] = -1
            vorder.append(v)
            for u in g.neighbors(v):
                if seen[u] >= 0:
                    seen[u] += 1
                    heapq.heappush(heap, (-seen[u], -g.degree(u), u))
    pos = {v: i for i, v in enumerate(vorder)}
    total = mode is SearchMode.TOTAL
    base = g.p if total else 0
    order = []
    for v in vorder:
        if total:
            order.append(v)
        later = sorted((pos[u], e) for u, e in zip(g.neighbors(v), g.incident_edges(v))
                       if pos[u] > pos[v])
        order.extend(base + e for _, e in later)
    return order


def _labeling_from_assignment(g: Graph, mode: SearchMode, assign) -> Labeling:
    if mode is SearchMode.TOTAL:
        return Labeling(tuple(assign[: g.p]), tuple(assign[g.p:]))
    return Labeling(None, tuple(assign))


_DRAWS = ()  # see _draws


def _draws(count):
    """At least the first `count` random draws of the witness search: the
    high 32 bits of each output of a 64-bit LCG (Knuth's MMIX constants)
    from seed 1, so draw * m >> 32 is uniform in [0, m).  Every pass reads
    this one stream from its start, so a process makes it once, remaking
    it at least doubled when a pass reads past its end, and never changes
    a stream it has handed out."""
    global _DRAWS
    if len(_DRAWS) < count:
        seed, out = 1, []
        for _ in range(max(count, 2 * len(_DRAWS))):
            seed = (seed * 6364136223846793005 + 1442695040888963407) & (2 ** 64 - 1)
            out.append(seed >> 32)
        _DRAWS = tuple(out)
    return _DRAWS


def _class_weights(n, q, size, lo, hi):
    """The pairs of distinct class weights (w1, w2) of a colouring into two
    classes of `size` vertices: each within lo..hi of its class, meeting the
    sum identity of `_Search.two_weights`, and in total mode centre out: w1,
    then w2 for each w1, nearest its class mean (|C| + q)(n + 1)/2|C| first."""
    a, b = size
    if n > q:  # total mode: all N labels, plus the q edge labels once more
        least = n * (n + 1) // 2 + q * (q + 1) // 2
        most = least + q * (n - q)

        def out(first, last, c):
            return sorted(range(first, last + 1), key=lambda w: abs(2 * c * w - (c + q) * (n + 1)))
        for w1 in out(lo[0], hi[0], a):
            for w2 in out(max(lo[1], -((a * w1 - least) // b)),
                          min(hi[1], (most - a * w1) // b), b):
                if w2 != w1:
                    yield w1, w2
    else:  # edge mode: each class sums every edge label once
        half = q * (q + 1) // 2
        w1, w2 = half // a, half // b
        if (w1 * a == w2 * b == half and w1 != w2
                and lo[0] <= w1 <= hi[0] and lo[1] <= w2 <= hi[1]):
            yield w1, w2


class _Search:
    """Backtracking over label slots with incremental weight bookkeeping.

    Slots are filled in the static order `_slot_order`, so the depth at
    which each vertex weight completes is fixed in advance; `steps[d]`
    holds the slot placed at depth d, the one or two vertices it touches,
    the vertices it completes and the adjacent pairs it may set equal."""

    def __init__(self, g: Graph, mode: SearchMode, budget: SolveBudget, started=None):
        # the time budget covers set-up, slot ordering included, from `started`
        self.deadline = inf if budget.max_millis is None else (
            (time.monotonic() if started is None else started) + budget.max_millis / 1000.0)
        self.limit = sys.maxsize if budget.max_nodes is None else budget.max_nodes
        n, vslots, touches = _slot_model(g, mode)
        self.n = n
        # a vertex fed by r slots weighs at most the sum of the r largest labels
        r = max(map(len, vslots), default=0)
        heaviest = r * n - r * (r - 1) // 2
        if heaviest > _WEIGHT_TABLE_LIMIT:
            raise TooLargeError(f"vertex weights up to {heaviest} exceed the "
                                f"weight table limit {_WEIGHT_TABLE_LIMIT}")
        self.heaviest = heaviest
        self.g, self.vslots, self.touches = g, vslots, touches
        order = _slot_order(g, mode)
        self.assign = [0] * n
        self.above = None  # see `floors`
        self.nodes = 0
        self.cut = False  # set when the budget stopped the search
        at = {v: d for d, s in enumerate(order) for v in touches[s]}  # v completes at d
        self.steps = []
        for d, s in enumerate(order):
            done = tuple(v for v in touches[s] if at[v] == d)
            pairs = tuple((v, u) for v in done for u in g.neighbors(v)
                          if at[u] < d or (at[u] == d and u < v))
            ta, tb = touches[s] if len(touches[s]) == 2 else (touches[s][0], g.p)
            self.steps.append((s, ta, tb, done, pairs))
        # the vertices in the order the slots first touch them, then the others
        self.vorder = list(dict.fromkeys([v for s in order for v in touches[s]]
                                         + list(range(g.p))))

    def next_stop(self, nodes):
        """The one budget check of the node-counted searches, made when the
        `nodes` charged reach a stop node: one past the node limit, or a
        multiple of 1,024, where the clock is read.  Stores `nodes`; returns
        0, setting `cut`, when the budget stops the search, else the next
        stop node, min(limit, nodes | 1023) + 1, where a search also starts."""
        self.nodes = nodes
        if nodes > self.limit or time.monotonic() > self.deadline:
            self.cut = True
            return 0
        return min(self.limit, nodes | 1023) + 1

    def floors(self):
        """Per depth, the earlier slots whose labels the slot there must
        exceed, made on first use for at most `coloring.MAX_EXACT_ORDER`
        vertices (Puget, IJCAI 2005): slot s_d takes the least label of its
        orbit under the automorphisms fixing s_0 .. s_{d-1}, a vertex slot
        pointwise and an edge slot as a set, which keeps the lex-least
        labeling of each automorphism class and no other.  Vertex maps
        within the classes of colour refinement, found by backtracking,
        merge orbits in a union-find; the clock is read every 1,024 images
        tried, and `cut` set past the deadline."""
        if self.above is not None:
            return self.above
        g, p, n, order = self.g, self.g.p, self.n, [step[0] for step in self.steps]
        self.above = above = [[] for _ in range(n)]
        if not _SYMMETRY or p > MAX_EXACT_ORDER:
            return above
        ends, vord = self.touches, self.vorder  # each slot's vertices, ascending
        slot, nb = {x: i for i, x in enumerate(ends)}, [set(g.neighbors(v)) for v in range(p)]
        mark, m, steps = [()] * p, [0] * p, 0  # mark: the fixed slots holding each vertex

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x
        for d, s in enumerate(order):
            col, size = [(g.degree(v), mark[v]) for v in range(p)], 0
            while len(set(col)) > size:  # split classes by their neighbours' classes
                size = len(set(col))
                sig = [(col[v], sorted(col[u] for u in nb[v])) for v in range(p)]
                col = list(map(sorted(sig).index, sig))
            key = [tuple(sorted(col[v] for v in x)) for x in ends]
            if len({key[t] for t in order[d:]}) == n - d:
                break  # each slot alone in its class: no symmetry is left
            parent = list(range(n + 1))  # n: the slots outside s's orbit
            for t in order[d + 1:]:
                if key[t] != key[s] or find(t) in (find(s), find(n)):
                    continue
                i, tried = 0, [0] * (p + 1)  # a vertex map m taking s onto t, along vord
                while 0 <= i < p:
                    v = vord[i]
                    images = ends[t] if v in ends[s] else range(p)
                    for j in range(tried[i], len(images)):
                        w, steps = images[j], steps + 1
                        if not steps & 1023 and time.monotonic() > self.deadline:
                            self.cut = True
                            return above
                        if col[w] == col[v] and all(m[u] != w and (u in nb[v]) == (m[u] in nb[w])
                                                    for u in vord[:i]):
                            m[v], tried[i], tried[i + 1], i = w, j + 1, 0, i + 1
                            break
                    else:
                        i -= 1
                merge = [(t, n)] if i < p else enumerate(slot[tuple(sorted(m[v] for v in x))]
                                                         for x in ends)
                for x, y in merge:
                    parent[find(x)] = find(y)
            for e in range(d + 1, n):  # s's orbit
                above[e] += [s] * (find(order[e]) == find(s))
            mark = [mk + (s,) * (v in ends[s]) for v, mk in enumerate(mark)]
        return above

    def labelings(self, allowed):
        """Yield the distinct-weight count of every complete labeling with
        at most `allowed` weights, in ascending label order, leaving the
        labeling in `assign` until resumed.  A slot starts above its floor,
        the largest label of its `floors`; each free label tried from there
        counts one node, on top of the `nodes` already charged; `cut` is set
        when the budget stops the search (`next_stop`).  The weight tables
        are made per call, so a restart starts clean and a solve the witness
        search closes never makes them.  With `allowed` weights present, a
        label that would add one is refused by one `wcount` read, unapplied,
        and still counts its node, so the tree is that of applying it; so is
        one completing both ends of an edge that would add two with one to
        spare: no applied label takes the weights past `allowed`.  At most
        p - 1 weights precede a vertex's completion: max(p, 1) refuses none."""
        above = self.floors()
        if self.cut or time.monotonic() > self.deadline:
            self.cut = True  # set-up outlasted the budget: search no node
            return
        n, steps, assign = self.n, self.steps, self.assign
        # a slot touching one vertex also adds to the spare wpart[p], never read
        wpart = [0] * (self.g.p + 1)
        wcount = [0] * (self.heaviest + 1)  # vertices per weight
        # vertices with no contributing slots (isolated, edge mode) weigh 0
        wcount[0] = sum(1 for s in self.vslots if not s)
        distinct = int(wcount[0] > 0)
        nodes = self.nodes
        stop = min(self.limit, nodes | 1023) + 1  # see `next_stop`
        # free labels as a doubly linked list between sentinels 0 and n + 1
        nxt = list(range(1, n + 2))
        prv = list(range(-1, n + 1))
        depth, done = 0, ()  # with no slots, the first resume reads `done`
        while True:
            if depth == n:
                self.nodes = nodes
                yield distinct
                label = n + 1
            else:
                s, ta, tb, done, pairs = steps[depth]
                label = nxt[0]
                for x in above[depth]:  # start above the floor
                    while label <= assign[x]:
                        label = nxt[label]
            while True:  # try labels from `label` up; out of labels, back up
                if done and distinct >= allowed - 1:
                    # refuse unapplied a label giving done[0] a weight no
                    # vertex has yet; completing both ends of an edge, one
                    # giving them more such weights than `allowed` has room for
                    base = wpart[done[0]]
                    if len(done) > 1:
                        other, room = wpart[done[1]], allowed - distinct
                        while label <= n and ((not wcount[base + label])
                                              + (not wcount[other + label]) > room):
                            nodes += 1
                            if nodes >= stop and not (stop := self.next_stop(nodes)):
                                return
                            label = nxt[label]
                    elif distinct == allowed:
                        while label <= n and not wcount[base + label]:
                            nodes += 1
                            if nodes >= stop and not (stop := self.next_stop(nodes)):
                                return
                            label = nxt[label]
                if label > n:
                    if depth == 0:
                        self.nodes = nodes
                        return
                    depth -= 1
                    s, ta, tb, done, pairs = steps[depth]
                    label = assign[s]
                    nxt[prv[label]] = prv[nxt[label]] = label
                    if done:
                        for v in done:
                            w = wpart[v]
                            wcount[w] -= 1
                            if not wcount[w]:
                                distinct -= 1
                    wpart[ta] -= label
                    wpart[tb] -= label
                    label = nxt[label]
                    continue
                nodes += 1
                if nodes >= stop and not (stop := self.next_stop(nodes)):
                    return
                wpart[ta] += label
                wpart[tb] += label
                if not done:
                    break  # completes no vertex
                for v, u in pairs:
                    if wpart[v] == wpart[u]:
                        break
                else:
                    for v in done:
                        w = wpart[v]
                        if not wcount[w]:
                            distinct += 1
                        wcount[w] += 1
                    break  # leaves the while loop: place label, descend
                wpart[ta] -= label
                wpart[tb] -= label
                label = nxt[label]
            assign[s] = label
            nxt[prv[label]], prv[nxt[label]] = nxt[label], prv[label]
            depth += 1

    def two_weights(self):
        """Look for a labeling with at most two weights, class first, on a
        graph whose lower bound is at most 2, so a bipartite one
        (`coloring.chromatic_lower_bound`).

        Its weight classes are a proper colouring into at most two classes.
        So for each colouring (`coloring._colorable`, along the vertices in
        the order the slots first touch them) and each pair of distinct
        class weights that fits it, centre out (`_class_weights`), the slots
        are filled to meet those weights (`_fill`).  A vertex fed by r slots
        weighs r(r+1)/2 .. rn - r(r-1)/2; a class weight w_C lies in all its
        members' ranges and, in total mode, in 1/|C| of that for r = |C| + q,
        as every edge has one end in C.  The weights sum to every label plus
        the edge labels once more: in total mode, sum |C_i| w_i - N(N+1)/2
        is a sum of q labels of 1..N; in edge mode each class sums every
        edge label once, to q(q+1)/2.  Each colouring and each pair costs
        one node.  Returns the number of weights of the labeling left in
        `assign`, or None when none exists or `cut` is set, under the budget
        rule of `next_stop`, each node tested for a stop node as `_fill`
        charges nodes too."""
        if time.monotonic() > self.deadline:
            self.cut = True
            return None
        g, n, p = self.g, self.n, self.g.p
        if not g.q:  # any labeling: each vertex weighs its label, or 0 in edge mode
            self.assign[:] = range(1, n + 1)
            return n or min(p, 1)
        reach = [(m * (m + 1) // 2, m * n - m * (m - 1) // 2) for m in range(n + 1)]
        vlo, vhi = zip(*(reach[len(slots)] for slots in self.vslots))
        # per step: its slot and the vertices it touches; the vertex it
        # completes (-1 for none) and the second it completes, else the
        # first again; then two vertices it touches and leaves open, each
        # with the least and greatest sum of its m labels still to come and
        # whether m is 1, the spare vertex p with bounds nothing breaks
        # standing in for a missing one
        left, fsteps = [len(slots) for slots in self.vslots] + [0], []
        for s, ta, tb, done, _ in self.steps:
            opens = []
            for u in (ta, tb) if tb < p else (ta,):
                left[u] -= 1
                if left[u]:
                    opens.append((u, *reach[left[u]], left[u] == 1))
            opens += [(p, -sys.maxsize, sys.maxsize, False)] * 2
            v0 = done[0] if done else -1
            fsteps.append((s, ta, tb, v0, done[-1] if done else v0, *opens[0], *opens[1]))
        taken = [0] * (n + 1)  # labels in use, none after a fill that finds nothing
        for color in _colorable(g, 2, self.vorder):
            size, lo, hi = [0, 0], [0, 0], [sys.maxsize] * 2
            for v, c in enumerate(color):
                size[c] += 1
                lo[c], hi[c] = max(lo[c], vlo[v]), min(hi[c], vhi[v])
            if n > g.q:  # total mode: class C weighs 1/|C| of |C| + q distinct labels
                for c in (0, 1):
                    least, most = reach[size[c] + g.q]
                    lo[c], hi[c] = max(lo[c], -(-least // size[c])), min(hi[c], most // size[c])
            for w in chain((None,), _class_weights(n, g.q, size, lo, hi)):
                nodes = self.nodes = self.nodes + 1  # the colouring's node, then each pair's
                if (nodes > self.limit or not nodes & 1023) and not self.next_stop(nodes):
                    return None
                if w and self._fill([w[c] for c in color] + [0], fsteps, taken):
                    return 2
                if self.cut:
                    return None
        return None

    def _fill(self, rem, fsteps, taken):
        """Fill the slots in the static order so that each vertex v's
        labels sum to rem[v], which each placed label lowers; True leaves
        the labeling in `assign`.  A slot completing v tries only rem[v], if
        the second vertex it completes needs the same and it is above the
        slot's floor (`labelings`), one node.  Any other slot tries, in
        ascending order from above its floor and one node each, the free
        labels that leave each open vertex it touches a remainder its m
        slots to come can reach: m(m+1)/2 .. mn - m(m-1)/2, and for m = 1
        another free label.  A fill that finds nothing leaves `taken` as it
        found it."""
        n, assign, above = self.n, self.assign, self.floors()
        if self.cut:
            return False
        nodes = self.nodes
        stop = min(self.limit, nodes | 1023) + 1  # see `next_stop`
        tops = [0] * n  # the last label a free slot may take, per depth
        depth = label = 0  # label 0 enters a depth; above, resumes its scan there
        while True:
            s, ta, tb, v0, v1, ua, la, ha, ka, ub, lb, hb, kb = fsteps[depth]
            ra, rb = rem[ua], rem[ub]
            if v0 >= 0:  # forced
                nodes += 1
                if nodes >= stop and not (stop := self.next_stop(nodes)):
                    return False
                label = top = rem[v0]
                if not (0 < label <= n and not taken[label] and rem[v1] == label
                        and la <= ra - label <= ha
                        and not (ka and (taken[ra - label] or ra == 2 * label))
                        and all(assign[x] < label for x in above[depth])):
                    label, top = 1, 0
            else:
                if label:
                    top = tops[depth]
                else:
                    label, top = ra - ha, ra - la
                    if rb - hb > label:
                        label = rb - hb
                    if rb - lb < top:
                        top = rb - lb
                    if label < 1:
                        label = 1
                    for x in above[depth]:  # start above the floor
                        if label <= assign[x]:
                            label = assign[x] + 1
                    if top > n:
                        top = n
                while label <= top:
                    if not taken[label]:
                        nodes += 1
                        if nodes >= stop and not (stop := self.next_stop(nodes)):
                            return False
                        if not (ka and (taken[ra - label] or ra == 2 * label)
                                or kb and (taken[rb - label] or rb == 2 * label)):
                            break
                    label += 1
            if label > top:  # out of labels: back up to a free slot's next one
                while True:
                    if depth == 0:
                        self.nodes = nodes
                        return False
                    depth -= 1
                    s, ta, tb, v0, _, _, _, _, _, _, _, _, _ = fsteps[depth]
                    label = assign[s]
                    taken[label] = 0
                    rem[ta] += label
                    rem[tb] += label
                    if v0 < 0:
                        break
                label += 1
                continue
            tops[depth] = top
            assign[s] = label
            taken[label] = 1
            rem[ta] -= label
            rem[tb] -= label
            depth += 1
            if depth == n:
                self.nodes = nodes
                return True
            label = 0

    def anneal(self, lower, moves):
        """Look for a labeling with `lower` weights by simulated annealing
        (Kirkpatrick, Gelatt & Vecchi 1983) before any node is searched.

        From a fixed-seed shuffle of the labels, a move swaps the labels of
        two slots and touches only their vertices and those vertices'
        edges; the random draws are read from the stream of `_draws`.  A
        labeling scores 2 per adjacent pair of equal weights plus 1 per
        vertex outside the `lower` largest weight classes, so 0 is a
        witness.  Counts of the weight classes by least size keep the class
        term in O(1) per weight change.  At most `moves` moves, each charged
        to `nodes`, are accepted by the Metropolis rule as the temperature
        falls geometrically from 0.25.  A move's class counts change first:
        a move that the class term alone makes uphill is refused before its
        weights change, using the draw the full test would make, whenever
        that draw refuses every uphill move.  The moves are still those of
        the reference annealer, which rescores each labeling from scratch
        (`anneal_by_rescoring` in tests/oracle.py).  A refused move is undone
        without rescanning neighbours.  The clock is read before the first
        move and then every 1,024.  Returns the fewest weights of a valid
        labeling met and its slot labels, or (None, None)."""
        deadline, monotonic = self.deadline, time.monotonic
        if monotonic() > deadline:
            return None, None
        g, n, p, touches = self.g, self.n, self.g.p, self.touches
        nbrs = [g.neighbors(v) for v in range(p)]
        # the shuffle takes n - 1 draws and a move at most 3: draws[di] is next
        draws, di = _draws(n - 1), n - 1
        lab = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = draws[n - 1 - i] * (i + 1) >> 32
            lab[i], lab[j] = lab[j], lab[i]
        # size[w] vertices weigh w and ge[k] classes hold k or more, so ge[1]
        # weights are present and the `lower` largest classes hold
        # top = sum over k >= 1 of min(ge[k], lower) vertices (the Ferrers
        # diagram of the class sizes, read by columns).
        wt = [sum(lab[s] for s in slots) for slots in self.vslots]
        size, ge = [0] * (self.heaviest + 1), [0] * (p + 1)
        for w in wt:
            size[w] = k = size[w] + 1
            ge[k] += 1
        top = sum(min(c, lower) for c in ge)
        equal = sum(wt[u] == wt[v] for u, v in g.edges)
        score = 2 * equal + p - top
        best, best_lab = (ge[1], lab[:]) if not equal else (None, None)
        temp, cool = 0.25, 0.04 ** (1.0 / moves)  # from 0.25 down to 0.01
        made = 0
        while made < moves and (best is None or best > lower):
            if not made & 127:  # the draws of the next 128 moves, and every 1,024 the clock
                if made and not made & 1023 and monotonic() > deadline:
                    break
                draws = _draws(di + 384)
            made += 1
            a = draws[di] * n >> 32
            b = draws[di + 1] * (n - 1) >> 32
            b += b >= a
            di += 2
            la, lb = lab[a], lab[b]
            ta, tb, d, old, moved = touches[a], touches[b], lb - la, top, []
            for v in ta + tb:  # the class counts first
                # a's vertices move by d, b's by -d; a vertex fed by both keeps its weight
                w = wt[v]
                if v not in tb:
                    x = w + d
                elif v not in ta:
                    x = w - d
                else:
                    continue
                moved.append((v, w, x))
                k = size[w]  # w's class loses v
                size[w] = k - 1
                top -= ge[k] <= lower
                ge[k] -= 1
                size[x] = k = size[x] + 1  # x's class gains v
                top += ge[k] < lower
                ge[k] += 1
            temp *= cool
            # uphill whatever the equal pairs do, and the draw the full test
            # would make refuses every uphill move: refused, no weight written
            if p - top > score and draws[di] >= _REFUSE:
                di += 1
            else:
                lab[a], lab[b] = lb, la
                saved = equal
                for v, w, x in moved:
                    wt[v] = x
                    for u in nbrs[v]:
                        y = wt[u]
                        if y == w:
                            equal -= 1
                        elif y == x:
                            equal += 1
                new = 2 * equal + p - top
                if new > score:  # uphill: kept with probability exp((score - new) / temp)
                    draw, di = draws[di], di + 1
                if new <= score or draw < exp((score - new) / temp) * 2.0 ** 32:
                    score = new
                    if not equal and (best is None or ge[1] < best):
                        best, best_lab = ge[1], lab[:]
                    continue
                lab[a], lab[b] = la, lb  # refused: equal is as saved
                equal = saved
                for v, w, x in moved:
                    wt[v] = w
            top = old  # refused: the moved vertices go back to their classes
            for v, w, x in moved:
                k = size[x]
                size[x] = k - 1
                ge[k] -= 1
                size[w] = k = size[w] + 1
                ge[k] += 1
        self.nodes = made * _MOVE_NODES
        return best, best_lab


def _lower_bound(g: Graph, mode: SearchMode) -> int:
    """A lower bound, at least 1, on the weights of any labeling of g in this mode."""
    return max(1, chi_lat_lower_bound(g) if mode is SearchMode.TOTAL
               else chromatic_lower_bound(g))


def solve_min_distinct(g: Graph, mode: SearchMode,
                       budget: SolveBudget = GENEROUS_BUDGET) -> SolveResult:
    """Minimum distinct-weight count: a witness search, then fixed-k searches.

    `_Search.anneal` first makes at most min(4,096, max_nodes // 32) moves,
    each charged as 8 nodes, and none that would take over a quarter of the
    whole tree's nodes.  A labeling it finds with as many weights as the
    lower bound is the answer.  Otherwise a fixed-k search restarts below
    each labeling found, with the rest of the budget, until one meets the
    lower bound or a search closes finding none, which refutes best - 1
    weights.  With a lower bound of 2 and no two-weight witness, two
    weights are decided class first (`_Search.two_weights`) before any
    restart: a `none` raises the lower bound to 3.  A closed search gives
    an exact value with a verified certificate; budget exhaustion yields
    bounds (or exhausted), never a wrong exact answer.
    """
    mode = SearchMode(mode)
    if mode is SearchMode.EDGE and has_isolated_edge(g):
        return SolveResult("infeasible")
    started = time.monotonic()  # the time budget covers the bound and set-up
    lower = _lower_bound(g, mode)
    srch = _Search(g, mode, budget, started)
    best = assign = None
    # the moves take at most a quarter of the node budget, and of the nodes
    # of the whole tree, n + n(n-1) + ... + n!, which a tiny search covers
    span, tree, step = 4 * _MOVE_NODES * _ANNEAL_MOVES, 0, 1
    for k in range(srch.n, 0, -1):
        step *= k
        tree += step
        if tree >= span:
            break
    moves = min(span, tree, srch.limit) // (4 * _MOVE_NODES)
    if moves:
        best, assign = srch.anneal(lower, moves)
    if lower == 2 and best != 2 and _CLASS_FIRST:
        found = srch.two_weights()
        if found is not None:
            best, assign = found, list(srch.assign)
        elif not srch.cut:
            lower = 3  # no two weights: the restarts aim at 3
    while (best is None or best > lower) and not srch.cut:  # restart below the incumbent
        found = next(srch.labelings(max(g.p, 1) if best is None else best - 1), None)
        if found is None:
            break
        best, assign = found, list(srch.assign)

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
                        budget: SolveBudget = GENEROUS_BUDGET) -> FeasibilityResult:
    """Find any valid labeling with at most k distinct weights.

    Distinguishes found / definitively-none / unknown (budget ran out).
    A k below the lower bound is `none` with no node; two weights are
    decided class first (`_Search.two_weights`), any other k by the tree.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    mode = SearchMode(mode)
    if mode is SearchMode.EDGE and has_isolated_edge(g):
        return FeasibilityResult("none")
    started = time.monotonic()  # the time budget covers set-up
    if k < _lower_bound(g, mode):
        return FeasibilityResult("none")  # before any set-up
    srch = _Search(g, mode, budget, started)
    if k == 2 and _CLASS_FIRST:
        found = srch.two_weights()
    else:
        found = next(srch.labelings(k), None)
    if found is None:
        return FeasibilityResult("unknown" if srch.cut else "none", nodes_explored=srch.nodes)
    cert = _labeling_from_assignment(g, mode, srch.assign)
    _check_witness(g, cert, None)
    return FeasibilityResult("found", cert, srch.nodes)


def _check_witness(g: Graph, cert: Labeling, value):
    report = check(g, cert, "solver witness")
    if value is not None and report.profile.distinct_count != value:
        raise IntegrityError(f"solver witness has {report.profile.distinct_count} "
                             f"distinct weights, not the claimed {value}")

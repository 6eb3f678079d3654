"""Acceptance suite: one test per release criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All values are integers; tolerance is zero everywhere.
"""

import random
import time

import pytest

from latlab import (FamilySpec, Graph, Labeling, SolveBudget,
                    chi_lat_lower_bound, cone_to_total,
                    construct_k2_plus_empty, construct_small_odd_path,
                    double_cone_collapse, find_with_at_most_k,
                    generate, iter_valid_labelings, make_certificate,
                    path_from_cycle, read_certificate, solve_min_distinct,
                    total_to_cone, verify, write_certificate)
from latlab.solver import SearchMode
from oracle import brute_force_min_distinct

BUDGET_10S = SolveBudget(max_millis=10_000, max_nodes=100_000_000)
BUDGET_60S = SolveBudget(max_millis=60_000, max_nodes=200_000_000)
BUDGET_10M = SolveBudget(max_millis=600_000, max_nodes=2_000_000_000)


def fam(kind, *params):
    return generate(FamilySpec(kind, params))


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_criterion_01_complete_graphs():
    """chi_lat(K_p) = p for p = 1..4 via the solver, <= 10 s each."""
    for p in range(1, 5):
        start = time.monotonic()
        res = solve_min_distinct(fam("complete", p), "total", BUDGET_10S)
        elapsed = time.monotonic() - start
        assert res.status == "exact" and res.value == p, p
        assert elapsed <= 10.0, (p, elapsed)
    report(1, "chi_lat(K_p)=p for p=1..4")


def test_criterion_02_cycles():
    """chi_lat(C3)=3, C4=2, C5=3 by brute + branch-and-bound agreement;
    C6=2 via feasibility at k=2 plus bipartite lower bound."""
    for n, expected in ((3, 3), (4, 2), (5, 3)):
        g = fam("cycle", n)
        start = time.monotonic()
        oracle = brute_force_min_distinct(g, "total")
        ours = solve_min_distinct(g, "total", BUDGET_60S)
        elapsed = time.monotonic() - start
        assert oracle.status == ours.status == "exact"
        assert oracle.value == ours.value == expected, n
        assert elapsed <= 60.0, (n, elapsed)
    c6 = fam("cycle", 6)
    found = find_with_at_most_k(c6, 2, "total", BUDGET_60S)
    assert found.status == "found"
    assert chi_lat_lower_bound(c6) == 2
    report(2, "cycle values 3,2,3 and C6=2")


def test_criterion_03_paths():
    """Path values: P2=2, P3=2, P4=3, P5=2, P6=2."""
    # P2, P3, P5: paper-style sequences verify and brute force confirms minimum
    assert solve_min_distinct(fam("path", 2), "total", BUDGET_60S).value == 2
    for n in (3, 5):
        g, f = construct_small_odd_path(n)
        assert verify(g, f).profile.distinct_count == 2
        assert brute_force_min_distinct(g, "total").value == 2
    assert solve_min_distinct(fam("path", 4), "total", BUDGET_60S).value == 3
    p6 = fam("path", 6)
    assert find_with_at_most_k(p6, 2, "total", BUDGET_60S).status == "found"
    assert chi_lat_lower_bound(p6) == 2
    report(3, "path values 2,2,3,2,2")


def test_criterion_04_odd_path_sequences():
    """The fixed P3/P5/P7 sequences verify with distinct count exactly 2."""
    for n in (3, 5, 7):
        g, f = construct_small_odd_path(n)
        rep = verify(g, f)
        assert rep.valid and rep.profile.distinct_count == 2, n
    report(4, "P3/P5/P7 sequences distinct=2")


def test_criterion_05_k2_plus_empty():
    """K2+On for n=1..5: distinct 2,2,3,4,5; lower bound matches for n>=3."""
    expected = {1: 2, 2: 2, 3: 3, 4: 4, 5: 5}
    for n, want in expected.items():
        g, f = construct_k2_plus_empty(n)
        rep = verify(g, f)
        assert rep.valid and rep.profile.distinct_count == want, n
        if n >= 3:
            assert chi_lat_lower_bound(g) == want, n
    report(5, "K2+On distinct counts 2,2,3,4,5")


def test_criterion_06_transform_weight_preservation():
    """>= 20 solver-found edge labelings of K4 and C4∨O2 each transform to
    valid totals with exact vertexwise weight transfer."""
    k4 = fam("complete", 4)
    k4_samples = iter_valid_labelings(k4, "edge", 20)
    assert len(k4_samples) >= 20
    for g in k4_samples:
        old = verify(k4, g).profile.weights
        base, f = cone_to_total(k4, g, apex=3)
        rep = verify(base, f)
        assert rep.valid
        assert rep.profile.weights == old[:3]

    dc = fam("cycle_join_empty", 4, 2)
    top = 2 * 4 + 4 + 1
    transformed = 0
    for g in iter_valid_labelings(dc, "edge", 60):
        w = verify(dc, g).profile.weights
        if any(top + w[4] == w[i] for i in range(4)):
            continue
        out, f = double_cone_collapse(dc, g, (4, 5))
        rep = verify(out, f)
        assert rep.valid
        assert rep.profile.weights[:4] == w[:4]
        transformed += 1
    assert transformed >= 20
    report(6, f"K4 x20, C4vO2 x{transformed} weight-exact transforms")


def test_criterion_07_cone_round_trip():
    """P2 example lifts to a 3-color triangle labeling with apex value 4;
    the P3 sequence is rejected with the documented collision."""
    from latlab import PreconditionError
    p2 = fam("path", 2)
    cone, g = total_to_cone(p2, Labeling((1, 3), (2,)))
    prof = verify(cone, g).profile
    assert prof.distinct_count == 3
    assert prof.weights[2] == 4  # apex
    p3, f3 = construct_small_odd_path(3)
    with pytest.raises(PreconditionError, match="sum 6 collides with the weight of vertex 0"):
        total_to_cone(p3, f3)
    report(7, "P2 lifts, P3 sequence rejected (S=6)")


def test_criterion_08_oracle_equivalence():
    """Branch-and-bound equals brute force on all connected graphs with
    p <= 4 and on O1..O4, both modes where brute force is feasible."""
    connected = [
        Graph(1, ()),
        Graph.from_edges(2, [(0, 1)]),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ]
    graphs = connected + [Graph(n, ()) for n in range(1, 5)]
    k2 = connected[1]
    checked = 0
    for g in graphs:
        for mode in (SearchMode.TOTAL, SearchMode.EDGE):
            universe = g.p + g.q if mode is SearchMode.TOTAL else g.q
            if universe > 10:
                continue
            oracle = brute_force_min_distinct(g, mode)
            ours = solve_min_distinct(g, mode, BUDGET_10M)
            assert ours.status == oracle.status, (g, mode)
            assert ours.value == oracle.value, (g, mode)
            checked += 1
    assert brute_force_min_distinct(k2, "edge").status == "infeasible"
    assert solve_min_distinct(k2, "edge", BUDGET_10M).status == "infeasible"
    report(8, f"{checked} oracle agreements incl. K2 edge infeasibility")


def test_criterion_09_even_wheel():
    """W4: feasibility at k=3 plus chromatic lower bound 3 certify
    chi_lat(W4) = 3."""
    w4 = fam("wheel", 4)
    res = find_with_at_most_k(w4, 3, "total", BUDGET_10M)
    assert (res.status, res.nodes_explored) == ("found", 3_383)
    rep = verify(w4, res.certificate)
    assert rep.valid and rep.profile.distinct_count <= 3
    assert chi_lat_lower_bound(w4) == 3
    report(9, "chi_lat(W4)=3 certified")


def test_criterion_10_p9_conjecture_evidence():
    """Best-effort: look for a 2-weight labeling of P9 inside 10 minutes.
    A definitively-none outcome would contradict the odd-path conjecture."""
    res = find_with_at_most_k(fam("path", 9), 2, "total", BUDGET_10M)
    assert res.status != "none", (
        "SEARCH CLOSED WITH NO 2-WEIGHT LABELING OF P9 - this contradicts "
        "the odd-path conjecture and must be investigated")
    if res.status == "found":
        assert res.nodes_explored == 5_957  # class first; the tree takes 2,864,380
        rep = verify(fam("path", 9), res.certificate)
        assert rep.valid and rep.profile.distinct_count == 2
    report(10, f"P9 at k=2: {res.status}")


def test_criterion_11_property_suites():
    """Generative suites, >= 1000 random instances each: bijectivity
    rejection, weight-sum identities, cycle-cut shift, certificate
    round-trip."""
    rng = random.Random(2024)

    def random_graph(max_p=7):
        p = rng.randint(1, max_p)
        edges = [(i, j) for i in range(p) for j in range(i + 1, p)
                 if rng.random() < 0.5]
        return Graph.from_edges(p, edges)

    def random_total(g):
        labels = list(range(1, g.p + g.q + 1))
        rng.shuffle(labels)
        return Labeling(tuple(labels[: g.p]), tuple(labels[g.p:]))

    # bijectivity rejection
    for _ in range(1000):
        g = random_graph()
        f = random_total(g)
        i = rng.randrange(g.p)
        labels = list(f.vertex_labels)
        labels[i] = labels[(i + 1) % g.p] if g.p > 1 else g.p + g.q + 5
        broken = Labeling(tuple(labels), f.edge_labels)
        rep = verify(g, broken)
        assert not rep.bijection_ok and not rep.valid

    # weight-sum identities
    for _ in range(1000):
        g = random_graph()
        f = random_total(g)
        prof = verify(g, f).profile
        assert sum(prof.weights) == sum(f.vertex_labels) + 2 * sum(f.edge_labels)
        n = g.p + g.q
        assert sum(f.vertex_labels) + sum(f.edge_labels) == n * (n + 1) // 2
        elabels = list(range(1, g.q + 1))
        rng.shuffle(elabels)
        eprof = verify(g, Labeling(None, tuple(elabels))).profile
        assert sum(eprof.weights) == g.q * (g.q + 1)

    # cycle-cut uniform -3 shift
    done = 0
    while done < 1000:
        n = rng.randint(3, 7)
        cyc = fam("cycle", n)
        f = random_total(cyc)
        rep = verify(cyc, f)
        if not rep.valid or 1 not in f.edge_labels:
            continue
        doomed = f.edge_labels.index(1)
        a, b = cyc.edges[doomed]
        path, out = path_from_cycle(cyc, f, doomed)
        new = verify(path, out)
        assert new.valid
        assert new.profile.distinct_count == rep.profile.distinct_count
        walk = [b]
        prev = a
        while len(walk) < n:
            nxt = next(u for u in cyc.neighbors(walk[-1]) if u != prev)
            prev = walk[-1]
            walk.append(nxt)
        assert all(new.profile.weights[i] == rep.profile.weights[walk[i]] - 3
                   for i in range(n))
        done += 1

    # certificate round-trip
    for _ in range(1000):
        g = random_graph(max_p=6)
        cert = make_certificate(g, random_total(g), "test:random")
        assert read_certificate(write_certificate(cert)) == cert

    report(11, "4 property suites x1000 instances")

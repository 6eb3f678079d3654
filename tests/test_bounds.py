import random
from itertools import combinations, product

import pytest

from latlab import (FamilySpec, Graph, SolveBudget, TooLargeError, bounds_report,
                    chi_lat_lower_bound, chromatic_number, generate, known_value,
                    solve_min_distinct)
from latlab.coloring import _colorable, _greedy_clique
from oracle import greedy_clique_by_edge_scan

QUICK = SolveBudget(max_nodes=50_000_000, max_millis=120_000)


def fam(kind, *params):
    return generate(FamilySpec(kind, params))


class TestChromaticNumber:
    @pytest.mark.parametrize("kind,params,chi", [
        ("cycle", (5,), 3), ("complete", (4,), 4), ("path", (6,), 2),
        ("cycle", (6,), 2), ("wheel", (4,), 3), ("wheel", (5,), 4),
        ("complete_bipartite", (3, 4), 2), ("empty", (3,), 1),
        ("k2_plus_empty", (3,), 2),
    ])
    def test_families(self, kind, params, chi):
        assert chromatic_number(generate(FamilySpec(kind, params))) == chi

    def test_empty_order(self):
        assert chromatic_number(Graph(0, ())) == 0

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            chromatic_number(fam("empty", 17))

    def test_greedy_clique_matches_the_edge_scan(self):
        nx = pytest.importorskip("networkx")
        graphs = [Graph.from_edges(G.number_of_nodes(), G.edges())
                  for G in nx.graph_atlas_g()]
        rng = random.Random(8)
        for p in range(31):
            for density in (0.2, 0.5, 0.8):
                graphs.append(Graph.from_edges(p, [e for e in combinations(range(p), 2)
                                                   if rng.random() < density]))
        assert [_greedy_clique(g) for g in graphs] == \
            [greedy_clique_by_edge_scan(g) for g in graphs]


    def test_greedy_clique_drops_seeds_that_cannot_win(self):
        # K60: the first seed's clique holds every vertex, so no other seed
        # sorts its neighbours; each visit reads `neighbors` or `degree` once
        class Counted:
            def __init__(self, g):
                self.p, self.g, self.reads = g.p, g, 0

            def neighbors(self, v):
                self.reads += 1
                return self.g.neighbors(v)

            def degree(self, v):
                self.reads += 1
                return self.g.degree(v)

        g = Counted(fam("complete", 60))
        assert _greedy_clique(g) == 60
        assert g.reads == 60 + 1 + 59  # every seed growing read 60 + 60 * 60

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_colourings_are_the_partitions(self, k):
        # every proper colouring into at most k unordered classes, once
        nx = pytest.importorskip("networkx")
        for G in nx.graph_atlas_g()[:53]:  # the graphs on at most 5 vertices
            g = Graph.from_edges(G.number_of_nodes(), G.edges())

            def partition(color):
                return frozenset(frozenset(v for v in range(g.p) if color[v] == c)
                                 for c in set(color))

            order = sorted(range(g.p), key=lambda v: -g.degree(v))
            found = [partition(color) for color in _colorable(g, k, order)]
            every = {partition(color) for color in product(range(k), repeat=g.p)
                     if all(color[u] != color[v] for u, v in g.edges)}
            assert len(found) == len(set(found)) and set(found) == every, G.edges()


class TestLowerBound:
    def test_k2_plus_o3(self):
        assert chi_lat_lower_bound(fam("k2_plus_empty", 3)) == 3

    def test_edgeless(self):
        assert chi_lat_lower_bound(fam("empty", 4)) == 4

    def test_even_cycle(self):
        assert chi_lat_lower_bound(fam("cycle", 6)) == 2

    def test_beyond_exact_coloring_order(self):
        # a clique bound stands in for the chromatic number above order 16
        assert chi_lat_lower_bound(fam("path", 20)) == 2
        assert chi_lat_lower_bound(fam("complete", 17)) == 17
        assert bounds_report(fam("empty", 17)).lower == 17

    @pytest.mark.parametrize("kind,params,lower", [
        ("cycle", (17,), 3), ("cycle", (101,), 3), ("path", (100,), 2),
        ("complete_bipartite", (300, 300), 2),
    ])
    def test_odd_cycle_beyond_exact_coloring_order(self, kind, params, lower):
        # above order 16 a graph with an odd cycle is bounded by 3, not by
        # its clique 2; so a bound of at most 2 means a bipartite graph
        assert chi_lat_lower_bound(generate(FamilySpec(kind, params))) == lower


class TestKnownValues:
    @pytest.mark.parametrize("spec,expected", [
        (FamilySpec("cycle", (7,)), (3, 3, "theorem")),
        (FamilySpec("cycle", (8,)), (2, 2, "theorem")),
        (FamilySpec("path", (9,)), (2, 2, "conjecture")),
        (FamilySpec("path", (4,)), (3, 3, "theorem")),
        (FamilySpec("path", (6,)), (2, 2, "theorem")),
        (FamilySpec("complete", (5,)), (5, 5, "theorem")),
        (FamilySpec("empty", (4,)), (4, 4, "theorem")),
        (FamilySpec("wheel", (4,)), (3, 3, "theorem")),
        (FamilySpec("wheel", (3,)), (4, 4, "theorem")),
        (FamilySpec("k2_plus_empty", (2,)), (2, 2, "theorem")),
        (FamilySpec("k2_plus_empty", (5,)), (5, 5, "theorem")),
        (FamilySpec("cycle_join_empty", (5, 2)), (4, 5, "range")),
        (FamilySpec("join_complete_cycle", (3, 4)), (5, 5, "theorem")),
        (FamilySpec("join_complete_cycle", (2, 5)), (5, 5, "theorem")),
        (FamilySpec("complete_bipartite", (1, 5)), (2, 2, "theorem")),
        (FamilySpec("complete_bipartite", (2, 2)), (2, 2, "theorem")),
        (FamilySpec("complete_bipartite", (2, 4)), (2, 2, "theorem")),
        (FamilySpec("complete_bipartite", (2, 3)), (2, 2, "theorem")),
    ])
    def test_table_entries(self, spec, expected):
        kr = known_value(spec)
        assert kr is not None
        assert (kr.low, kr.high, kr.status) == expected

    @pytest.mark.parametrize("spec", [
        FamilySpec("wheel", (5,)),               # open problem
        FamilySpec("join_complete_cycle", (3, 5)),  # mixed parity
        FamilySpec("join_complete_cycle", (2, 4)),  # mixed parity
        FamilySpec("complete_bipartite", (4, 4)),   # equal parts > 2
        FamilySpec("cycle_join_empty", (4, 2)),     # even cycle, two apexes
        FamilySpec("fan", (4,)),
    ])
    def test_silent_entries(self, spec):
        assert known_value(spec) is None

    def test_fan_is_chi_la(self):
        kr = known_value(FamilySpec("fan", (3,)))
        assert kr.quantity == "chi_la"
        assert (kr.low, kr.high) == (3, 3)

    def test_known_table_vs_solver_at_small_scale(self):
        # any mismatch here is release-blocking
        specs = [FamilySpec("cycle", (3,)), FamilySpec("cycle", (4,)),
                 FamilySpec("cycle", (5,)), FamilySpec("path", (2,)),
                 FamilySpec("path", (3,)), FamilySpec("path", (4,)),
                 FamilySpec("complete", (3,)), FamilySpec("complete", (4,)),
                 FamilySpec("empty", (3,)), FamilySpec("k2_plus_empty", (2,)),
                 FamilySpec("k2_plus_empty", (3,))]
        for spec in specs:
            kr = known_value(spec)
            res = solve_min_distinct(generate(spec), "total", QUICK)
            assert res.status == "exact"
            assert kr.low <= res.value <= kr.high, spec


class TestBoundsReport:
    def test_known_table_source(self):
        report = bounds_report(fam("cycle", 6), family=FamilySpec("cycle", (6,)))
        assert (report.lower, report.upper) == (2, 2)
        assert report.upper_source == "known-table"

    def test_conjecture_not_used_as_bound(self):
        report = bounds_report(fam("path", 9), family=FamilySpec("path", (9,)))
        assert report.upper_source != "known-table"
        assert any("conjecture" in note for note in report.notes)

    def test_trivial_fallback(self):
        report = bounds_report(Graph(1, ()))
        assert report.upper == 1 and report.upper_source == "trivial"
        assert report.lower == 1

    def test_order_zero_has_the_trivial_bound(self):
        report = bounds_report(Graph(0, ()))
        assert (report.lower, report.upper, report.upper_source) == (0, 0, "trivial")

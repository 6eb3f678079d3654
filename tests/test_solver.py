import json
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from latlab import (FamilySpec, Graph, IntegrityError, Labeling, ParameterError,
                    SolveBudget, TooLargeError, disjoint_union, find_with_at_most_k,
                    generate, iter_valid_labelings, solve_min_distinct, verify)
from latlab import solver
from latlab.solver import SearchMode, _Search, _slot_model, _slot_order
from oracle import brute_force_min_distinct

QUICK = SolveBudget(max_nodes=50_000_000, max_millis=120_000)


def fam(kind, *params):
    return generate(FamilySpec(kind, params))


# connected graphs on <= 4 vertices, one per isomorphism class
CONNECTED_SMALL = {
    "K1": Graph(1, ()),
    "K2": Graph.from_edges(2, [(0, 1)]),
    "P3": Graph.from_edges(3, [(0, 1), (1, 2)]),
    "K3": Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
    "P4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    "star4": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "paw": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "C4": Graph.from_edges(4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
    "diamond": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "K4": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


class TestBudget:
    def test_requires_a_finite_limit(self):
        with pytest.raises(ParameterError):
            SolveBudget()
        with pytest.raises(ParameterError):
            SolveBudget(max_nodes=0)

    def test_exhaustion_reports_not_wrong(self):
        res = solve_min_distinct(fam("cycle", 7), "total", SolveBudget(max_nodes=50))
        assert res.status in ("exhausted", "lower_upper")


class TestBruteForce:
    def test_c3_total(self):
        assert brute_force_min_distinct(fam("cycle", 3), "total").value == 3

    def test_p2_total(self):
        assert brute_force_min_distinct(fam("path", 2), "total").value == 2

    def test_k2_edge_infeasible(self):
        assert brute_force_min_distinct(fam("complete", 2), "edge").status == "infeasible"

    def test_refuses_large_universe(self):
        with pytest.raises(TooLargeError):
            brute_force_min_distinct(fam("cycle", 6), "total")  # universe 12

    def test_certificate_is_verified_witness(self):
        res = brute_force_min_distinct(fam("cycle", 4), "total")
        report = verify(fam("cycle", 4), res.certificate)
        assert report.valid
        assert report.profile.distinct_count == res.value == 2

    def test_empty_graphs(self):
        assert brute_force_min_distinct(Graph(0, ()), "total").value == 0
        assert brute_force_min_distinct(fam("empty", 3), "total").value == 3
        assert brute_force_min_distinct(fam("empty", 3), "edge").value == 1


class TestSolve:
    @pytest.mark.parametrize("kind,n,expected", [
        ("cycle", 4, 2), ("cycle", 5, 3), ("path", 4, 3), ("path", 3, 2),
    ])
    def test_known_small_values(self, kind, n, expected):
        res = solve_min_distinct(fam(kind, n), "total", QUICK)
        assert res.status == "exact" and res.value == expected

    def test_oracle_agreement_connected(self):
        for name, g in CONNECTED_SMALL.items():
            for mode in (SearchMode.TOTAL, SearchMode.EDGE):
                universe = g.p + g.q if mode is SearchMode.TOTAL else g.q
                if universe > 9:
                    continue
                oracle = brute_force_min_distinct(g, mode)
                ours = solve_min_distinct(g, mode, QUICK)
                assert ours.status == oracle.status, (name, mode)
                assert ours.value == oracle.value, (name, mode)

    def test_oracle_agreement_families(self):
        specs = [FamilySpec("cycle", (3,)), FamilySpec("cycle", (4,)),
                 FamilySpec("path", (4,)), FamilySpec("complete", (3,)),
                 FamilySpec("complete_bipartite", (2, 2)), FamilySpec("empty", (4,)),
                 FamilySpec("k2_plus_empty", (2,))]
        for spec in specs:
            g = generate(spec)
            for mode in (SearchMode.TOTAL, SearchMode.EDGE):
                universe = g.p + g.q if mode is SearchMode.TOTAL else g.q
                if universe > 9:
                    continue
                oracle = brute_force_min_distinct(g, mode)
                ours = solve_min_distinct(g, mode, QUICK, family=spec)
                assert (ours.status, ours.value) == (oracle.status, oracle.value), spec

    def test_lower_bound_safety(self):
        from latlab import chi_lat_lower_bound
        for g in CONNECTED_SMALL.values():
            res = solve_min_distinct(g, "total", QUICK)
            assert res.value >= chi_lat_lower_bound(g)

    def test_determinism(self):
        g = fam("cycle", 5)
        a = solve_min_distinct(g, "total", QUICK)
        b = solve_min_distinct(g, "total", QUICK)
        assert a == b

    def test_pruning_differential(self):
        for g in [fam("cycle", 3), fam("path", 3), fam("path", 4),
                  fam("complete", 3), fam("k2_plus_empty", 2)]:
            pruned = solve_min_distinct(g, "total", QUICK)
            plain = solve_min_distinct(g, "total", QUICK, pruning=False)
            assert pruned.value == plain.value

    def test_symmetry_breaking_preserves_value(self):
        spec = FamilySpec("cycle", (4,))
        g = generate(spec)
        with_sym = solve_min_distinct(g, "total", QUICK, family=spec)
        without = solve_min_distinct(g, "total", QUICK)
        assert with_sym.value == without.value == 2

    def test_isolated_edge_infeasible_edge_mode(self):
        g = fam("k2_plus_empty", 3)
        assert solve_min_distinct(g, "edge", QUICK).status == "infeasible"

    def test_closed_search_without_labeling_is_a_bug(self, monkeypatch):
        # every graph has a local antimagic total labeling, so a search that
        # closes without one is a solver fault, not an "infeasible" answer
        monkeypatch.setattr(_Search, "labelings", lambda self: iter(()))
        with pytest.raises(IntegrityError, match="found no labeling"):
            solve_min_distinct(fam("cycle", 4), "total", QUICK)
        assert solve_min_distinct(fam("complete", 2), "edge", QUICK).status == "infeasible"

    @pytest.mark.parametrize("mode,max_universe", [("total", 9), ("edge", 7)])
    def test_oracle_agreement_atlas(self, mode, max_universe):
        # every graph on <= 7 vertices whose label universe the oracle
        # enumerates quickly, with pruning on and off
        nx = pytest.importorskip("networkx")
        mismatches, checked = [], 0
        for i, G in enumerate(nx.graph_atlas_g()):
            g = Graph.from_edges(G.number_of_nodes(), G.edges())
            if (g.p + g.q if mode == "total" else g.q) > max_universe:
                continue
            checked += 1
            oracle = brute_force_min_distinct(g, mode)
            for pruning in (True, False):
                ours = solve_min_distinct(g, mode, QUICK, pruning=pruning)
                if (ours.status, ours.value) != (oracle.status, oracle.value):
                    mismatches.append((i, pruning, ours.status, ours.value, oracle.value))
        assert checked == {"total": 45, "edge": 273}[mode]
        assert mismatches == []

    def test_weight_counts_sized_by_the_heaviest_vertex(self):
        # 20,000 slots: counts sized by n(n+1)/2 would take 2*10^8 entries
        res = solve_min_distinct(fam("empty", 20_000), "total", QUICK)
        assert (res.status, res.value) == ("exact", 20_000)

    def test_weight_table_too_large_is_refused(self):
        # the hub of W4000 can weigh 40,014,001: a count for every weight up
        # to there would take 320 MB
        with pytest.raises(TooLargeError, match="weight table"):
            solve_min_distinct(fam("wheel", 4000), "total", QUICK)

    def test_edge_mode_lower_bound_beyond_exact_coloring_order(self):
        # C4 plus 13 isolated vertices: 17 vertices, above the exact-coloring
        # order.  The isolated vertices all weigh 0 in edge mode, so their
        # count is no lower bound; taken as one, it cut the search off at 5.
        g = disjoint_union(fam("cycle", 4), Graph(13, ()))
        res = solve_min_distinct(g, "edge", QUICK)
        assert (res.status, res.value) == ("exact", 4)


class TestFindWithAtMostK:
    def test_c4_at_2(self):
        res = find_with_at_most_k(fam("cycle", 4), 2, "total", QUICK)
        assert res.status == "found"
        report = verify(fam("cycle", 4), res.certificate)
        assert report.valid and report.profile.distinct_count <= 2

    def test_c3_at_2_definitively_none(self):
        assert find_with_at_most_k(fam("cycle", 3), 2, "total", QUICK).status == "none"

    def test_p7_at_2(self):
        res = find_with_at_most_k(fam("path", 7), 2, "total", QUICK)
        assert res.status == "found"

    def test_deeper_than_the_recursion_limit(self):
        g = fam("path", 600)
        assert g.p + g.q > sys.getrecursionlimit()
        res = find_with_at_most_k(g, 600, "total", QUICK)
        assert res.status == "found" and verify(g, res.certificate).valid

    def test_unknown_on_tiny_budget(self):
        res = find_with_at_most_k(fam("cycle", 7), 2, "total", SolveBudget(max_nodes=5))
        assert res.status == "unknown"

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            find_with_at_most_k(fam("cycle", 3), 0, "total", QUICK)

    def test_time_budget_covers_slot_ordering(self, monkeypatch):
        # set-up that outlasts the budget leaves no time for a single node
        slot_order = solver._slot_order

        def slow_slot_order(g, mode, deadline):
            time.sleep(0.1)
            return slot_order(g, mode, deadline)

        monkeypatch.setattr(solver, "_slot_order", slow_slot_order)
        res = find_with_at_most_k(fam("cycle", 5), 2, "total", SolveBudget(max_millis=50))
        assert (res.status, res.nodes_explored) == ("unknown", 0)
        res = solve_min_distinct(fam("cycle", 5), "total", SolveBudget(max_millis=50))
        assert (res.status, res.nodes_explored) == ("exhausted", 0)

    def test_slot_ordering_stops_at_the_deadline(self):
        # ordering the 1,830 slots of K60 takes far longer than 1 ms
        res = find_with_at_most_k(fam("complete", 60), 60, "total", SolveBudget(max_millis=1))
        assert (res.status, res.nodes_explored) == ("unknown", 0)
        # a passed deadline stops the ordering at its first check and
        # leaves the unplaced slots in index order
        p600 = fam("path", 600)
        order = _slot_order(p600, SearchMode.TOTAL, time.monotonic())
        assert order[:1_024] == _slot_order(p600, SearchMode.TOTAL)[:1_024]
        assert order[1_024:] == sorted(set(range(600 + 599)) - set(order[:1_024]))


class TestSearchTree:
    """The search tree is pinned: labels tried in ascending order, one node
    per free label tried, the budget checked before the weight conflict.
    A label that would add a weight past the allowed count is refused by
    one weight-table read instead of being applied, and still counts one
    node.  The counts and witnesses below are those of the original
    per-node method search, so a faster search core must reproduce them
    exactly."""

    def test_c5_total_at_2_none(self):
        res = find_with_at_most_k(fam("cycle", 5), 2, "total", QUICK)
        assert (res.status, res.nodes_explored) == ("none", 939_492)

    @pytest.mark.parametrize("kind,n,value,nodes,edge_labels", [
        ("wheel", 4, 3, 15_983, (2, 4, 5, 7, 6, 3, 1, 8)),
        ("complete", 4, 4, 6, (1, 2, 3, 4, 5, 6)),
    ])
    def test_edge_mode_solve(self, kind, n, value, nodes, edge_labels):
        res = solve_min_distinct(fam(kind, n), "edge", QUICK)
        assert (res.status, res.value, res.nodes_explored) == ("exact", value, nodes)
        assert res.certificate == Labeling(None, edge_labels)

    @pytest.mark.parametrize("kind,n,value,nodes,labels", [
        ("cycle", 5, 3, 3_437, ((1, 6, 7, 4, 10), (2, 3, 9, 5, 8))),
        ("complete", 4, 4, 10, ((1, 5, 8, 10), (2, 3, 4, 6, 7, 9))),
        ("cycle", 4, 2, 6_278, ((3, 8, 1, 4), (2, 7, 6, 5))),
    ])
    def test_family_orbit_solve(self, kind, n, value, nodes, labels):
        # the orbit's later slots start above the representative's label
        spec = FamilySpec(kind, (n,))
        res = solve_min_distinct(generate(spec), "total", QUICK, family=spec)
        assert (res.status, res.value, res.nodes_explored) == ("exact", value, nodes)
        assert res.certificate == Labeling(*labels)

    @pytest.mark.parametrize("kind,n,pruned,plain", [
        ("cycle", 4, 2_150, 3_196), ("path", 4, 8_196, 12_037),
        ("k2_plus_empty", 2, 148, 188),
    ])
    def test_pruning_on_and_off(self, kind, n, pruned, plain):
        g = fam(kind, n)
        assert solve_min_distinct(g, "total", QUICK).nodes_explored == pruned
        assert solve_min_distinct(g, "total", QUICK, pruning=False).nodes_explored == plain

    def test_budget_stop_counts_the_refused_node(self):
        res = find_with_at_most_k(fam("wheel", 4), 3, "total", SolveBudget(max_nodes=100_000))
        assert (res.status, res.nodes_explored) == ("unknown", 100_001)

    @pytest.mark.parametrize("name,kind,n,mode", [
        ("c5_total", "cycle", 5, "total"), ("w4_edge", "wheel", 4, "edge"),
    ])
    def test_first_labelings(self, name, kind, n, mode):
        golden = json.loads((Path(__file__).parent / "data" / "first_labelings.json")
                            .read_text())[name]
        labs = iter_valid_labelings(fam(kind, n), mode, 50)
        assert [list(lab.labels) for lab in labs] == golden


class TestIterValidLabelings:
    def test_all_distinct_and_valid(self):
        k4 = fam("complete", 4)
        labs = iter_valid_labelings(k4, "edge", 30)
        assert len(labs) == 30
        assert len(set(labs)) == 30
        for lab in labs:
            assert verify(k4, lab).valid

    def test_budget_stop_is_reported(self):
        with pytest.raises(TooLargeError, match="21 nodes with 2 of 50"):
            iter_valid_labelings(fam("wheel", 5), "total", 50, SolveBudget(max_nodes=20))

    def test_closed_search_returns_every_labeling(self):
        # K2 in total mode: all 3! labelings are valid
        assert len(iter_valid_labelings(fam("complete", 2), "total", 50)) == 6


def greedy_slot_order(g, mode):
    """The slot order by a full scan of every slot per placement: the
    reference for the heap in `_slot_order`."""
    n, vslots, touches = _slot_model(g, mode)
    need = [len(s) for s in vslots]
    placed = [False] * n
    order = []
    for _ in range(n):
        best_s, best_key = None, None
        for s in range(n):
            if placed[s]:
                continue
            completes = sum(1 for v in touches[s] if need[v] == 1)
            closeness = min((need[v] - 1 for v in touches[s]), default=n + 1)
            key = (-completes, closeness, s)
            if best_key is None or key < best_key:
                best_s, best_key = s, key
        placed[best_s] = True
        order.append(best_s)
        for v in touches[best_s]:
            need[v] -= 1
    return order


def test_slot_order_is_a_permutation():
    # and the heap orders the slots as the full scan does, on every graph
    # of the atlas (up to 7 vertices) and on larger ones
    nx = pytest.importorskip("networkx")
    atlas = [Graph.from_edges(G.number_of_nodes(), G.edges()) for G in nx.graph_atlas_g()]
    rng = random.Random(0)
    larger = [fam("wheel", 30), fam("complete", 8), fam("path", 40)] + [
        Graph.from_edges(n, rng.sample(list(combinations(range(n), 2)), rng.randint(0, 2 * n)))
        for n in (rng.randint(8, 14) for _ in range(500))]
    for g in list(CONNECTED_SMALL.values()) + atlas + larger:
        for mode in (SearchMode.TOTAL, SearchMode.EDGE):
            n = g.p + g.q if mode is SearchMode.TOTAL else g.q
            order = _slot_order(g, mode)
            assert sorted(order) == list(range(n))
            assert order == greedy_slot_order(g, mode)

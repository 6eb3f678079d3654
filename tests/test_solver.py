import json
import math
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from latlab import (FamilySpec, Graph, IntegrityError, Labeling, ParameterError,
                    SolveBudget, TooLargeError, disjoint_union, find_with_at_most_k,
                    generate, iter_valid_labelings, solve_min_distinct, verify)
from latlab import chi_lat_lower_bound, solver
from latlab.coloring import chromatic_lower_bound
from latlab.graph import graph6_decode
from latlab.solver import SearchMode, _Search, _class_weights, _slot_order
from oracle import anneal_by_rescoring, brute_force_min_distinct

QUICK = SolveBudget(max_nodes=50_000_000, max_millis=120_000)


@pytest.fixture
def tree_only(monkeypatch):
    """The annealing witness search and the class-first engine off, so
    solves search the tree, under the orbit constraints."""
    monkeypatch.setattr(solver, "_ANNEAL_MOVES", 0)
    monkeypatch.setattr(solver, "_CLASS_FIRST", False)


@pytest.fixture
def no_symmetry(monkeypatch):
    """The orbit constraints off: every labeling of each automorphism class
    is searched, node for node as before they were added."""
    monkeypatch.setattr(solver, "_SYMMETRY", False)


@pytest.fixture
def no_phase(tree_only, no_symmetry):
    """The orbit constraints off too, so solves search the pinned tree."""


# each rule of a solve, and the solver attribute and value that switch it off
RULES = {"witness pass": ("_ANNEAL_MOVES", 0), "class first": ("_CLASS_FIRST", False),
         "symmetry": ("_SYMMETRY", False)}


def switched_off(monkeypatch):
    """Yield None with every rule on, then the name of each rule in turn
    with that rule alone switched off until the next value is asked for."""
    yield None
    for rule, (name, value) in RULES.items():
        with monkeypatch.context() as m:
            m.setattr(solver, name, value)
            yield rule


def fam(kind, *params):
    return generate(FamilySpec(kind, params))


def named(name):
    """`atlas:<index>` (networkx) or `<family>:<param>:...`."""
    kind, *params = name.split(":")
    if kind == "atlas":
        G = pytest.importorskip("networkx").graph_atlas(int(params[0]))
        return Graph.from_edges(G.number_of_nodes(), G.edges())
    return fam(kind, *map(int, params))


@lru_cache(maxsize=None)
def atlas_oracle(mode, max_universe):
    """(index, graph, brute-force result) for every atlas graph whose label
    universe holds at most `max_universe` labels."""
    nx = pytest.importorskip("networkx")
    graphs = [(i, Graph.from_edges(G.number_of_nodes(), G.edges()))
              for i, G in enumerate(nx.graph_atlas_g())]
    return tuple((i, g, brute_force_min_distinct(g, mode)) for i, g in graphs
                 if (g.p + g.q if mode == "total" else g.q) <= max_universe)


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

    def test_value_semantics(self):
        budget = SolveBudget(max_nodes=5)
        assert budget == SolveBudget(5) and hash(budget) == hash(SolveBudget(5))
        assert repr(budget) == "SolveBudget(max_nodes=5, max_millis=None)"
        with pytest.raises(AttributeError):
            budget.max_nodes = 10

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
                ours = solve_min_distinct(g, mode, QUICK)
                assert (ours.status, ours.value) == (oracle.status, oracle.value), spec

    def test_lower_bound_safety(self):
        for g in CONNECTED_SMALL.values():
            res = solve_min_distinct(g, "total", QUICK)
            assert res.value >= chi_lat_lower_bound(g)

    def test_determinism(self):
        g = fam("cycle", 5)
        a = solve_min_distinct(g, "total", QUICK)
        b = solve_min_distinct(g, "total", QUICK)
        assert a == b

    def test_symmetry_breaking_preserves_value(self, monkeypatch):
        # C4's automorphisms map each labeling onto seven others; the
        # orbit constraints keep one of each eight, with every rule on or
        # with any one off
        g = fam("cycle", 4)
        values = {solve_min_distinct(g, "total", QUICK).value for _ in switched_off(monkeypatch)}
        assert values == {2}

    def test_isolated_edge_infeasible_edge_mode(self):
        g = fam("k2_plus_empty", 3)
        assert solve_min_distinct(g, "edge", QUICK).status == "infeasible"

    def test_closed_search_without_labeling_is_a_bug(self, monkeypatch):
        # every graph has a local antimagic total labeling, so a search that
        # closes without one is a solver fault, not an "infeasible" answer
        monkeypatch.setattr(_Search, "anneal", lambda self, lower, moves: (None, None))
        monkeypatch.setattr(_Search, "labelings", lambda self, allowed: iter(()))
        # C4 is bipartite, so the two-weight search runs before the tree
        monkeypatch.setattr(_Search, "two_weights", lambda self: None)
        with pytest.raises(IntegrityError, match="found no labeling"):
            solve_min_distinct(fam("cycle", 4), "total", QUICK)
        assert solve_min_distinct(fam("complete", 2), "edge", QUICK).status == "infeasible"

    @pytest.mark.parametrize("mode,max_universe", [("total", 9), ("edge", 7)])
    def test_oracle_agreement_atlas(self, monkeypatch, mode, max_universe):
        # every graph on <= 7 vertices whose label universe the oracle
        # enumerates quickly, with every rule on and with each one off
        graphs = atlas_oracle(mode, max_universe)
        assert len(graphs) == {"total": 45, "edge": 273}[mode]
        mismatches = []
        for rule in switched_off(monkeypatch):
            for i, g, oracle in graphs:
                ours = solve_min_distinct(g, mode, QUICK)
                if (ours.status, ours.value) != (oracle.status, oracle.value):
                    mismatches.append((i, rule, ours.status, ours.value, oracle.value))
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
        res = find_with_at_most_k(fam("cycle", 8), 2, "total", SolveBudget(max_nodes=5))
        assert (res.status, res.nodes_explored) == ("unknown", 6)

    @pytest.mark.parametrize("kind,n,k,mode,status,nodes", [
        # below the lower bound: the tree took 2,933,456, 1,038,635 and 35
        ("complete", 4, 3, "total", "none", 0), ("complete", 5, 4, "edge", "none", 0),
        ("cycle", 5, 1, "edge", "none", 0),
        # at the lower bound the search runs as before
        ("wheel", 4, 3, "total", "found", 3_383), ("complete", 4, 4, "total", "found", 10),
        ("complete", 5, 5, "edge", "found", 10),
    ])
    def test_lower_bound_refutes_every_k_below_it(self, kind, n, k, mode, status, nodes):
        res = find_with_at_most_k(fam(kind, n), k, mode, QUICK)
        assert (res.status, res.nodes_explored) == (status, nodes)

    def test_a_k_below_the_bound_builds_no_search(self, monkeypatch):
        # the bound answers before the slot model is built: on cycle:199999
        # that set-up took ten times the bound's time
        def no_slot_model(g, mode):
            raise AssertionError("slot model built")

        monkeypatch.setattr(solver, "_slot_model", no_slot_model)
        for g, k, mode in [(fam("complete", 4), 3, "total"), (fam("complete", 5), 4, "edge"),
                           (fam("cycle", 5), 2, "total"), (fam("cycle", 5), 1, "edge")]:
            assert find_with_at_most_k(g, k, mode, QUICK) == ("none", None, 0)

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            find_with_at_most_k(fam("cycle", 3), 0, "total", QUICK)

    def test_time_budget_covers_slot_ordering(self, monkeypatch):
        # set-up that outlasts the budget leaves no time for a single node,
        # nor for a move of the witness search, which would find C5's 3
        slot_order = solver._slot_order

        def slow_slot_order(g, mode):
            time.sleep(0.1)
            return slot_order(g, mode)

        monkeypatch.setattr(solver, "_slot_order", slow_slot_order)
        res = find_with_at_most_k(fam("cycle", 6), 2, "total", SolveBudget(max_millis=50))
        assert (res.status, res.nodes_explored) == ("unknown", 0)
        res = solve_min_distinct(fam("cycle", 5), "total", SolveBudget(max_millis=50))
        assert (res.status, res.nodes_explored) == ("exhausted", 0)

    def test_time_budget_covers_the_lower_bound(self, monkeypatch):
        lower_bound = solver.chi_lat_lower_bound

        def slow_lower_bound(g):
            time.sleep(0.1)
            return lower_bound(g)

        monkeypatch.setattr(solver, "chi_lat_lower_bound", slow_lower_bound)
        res = solve_min_distinct(fam("cycle", 5), "total", SolveBudget(max_millis=50))
        assert (res.status, res.nodes_explored) == ("exhausted", 0)
        res = find_with_at_most_k(fam("cycle", 6), 2, "total", SolveBudget(max_millis=50))
        assert (res.status, res.nodes_explored) == ("unknown", 0)

    def test_dense_set_up_outlasts_a_1ms_budget(self):
        # setting up the 1,830 slots of K60 takes several milliseconds
        res = find_with_at_most_k(fam("complete", 60), 60, "total", SolveBudget(max_millis=1))
        assert (res.status, res.nodes_explored) == ("unknown", 0)


@pytest.mark.usefixtures("no_phase")
class TestSearchTree:
    """The search tree is pinned, with the witness search off (its moves
    would be charged as nodes too): labels tried in ascending order, one node
    per free label tried, the budget checked before the weight conflict.
    A label that would add a weight past the allowed count is refused by
    one weight-table read instead of being applied, and still counts one
    node.  A solve restarts the search below each labeling it finds, and
    counts the nodes of every search.  The node budget stops the search at
    node max_nodes + 1; the clock is read on entering each search and then
    at every multiple of 1,024 nodes within the node budget, and a deadline
    found passed stops the search at that node.  The counts and
    witnesses below are those of the most-constrained-first slot order, so
    a faster search core must reproduce them exactly."""

    def test_c5_total_at_2_none(self):
        # find_with_at_most_k answers from C5's lower bound 3; the tree alone
        srch = _Search(fam("cycle", 5), SearchMode.TOTAL, QUICK)
        assert next(srch.labelings(2), None) is None
        assert (srch.nodes, srch.cut) == (939_492, False)

    def test_no_applied_label_exceeds_allowed(self):
        # a label that would take the weights past `allowed` is refused
        # before it is applied, so the tree never undoes one: every atlas
        # graph on at most 5 vertices, both modes, each `allowed` from the
        # lower bound to p, the first 200 labelings of each search yield
        # the distinct count of a valid labeling, at most `allowed`
        nx = pytest.importorskip("networkx")
        budget, wrong = SolveBudget(max_nodes=300_000), []
        for i, G in enumerate(nx.graph_atlas_g()[:53]):
            g = Graph.from_edges(G.number_of_nodes(), G.edges())
            for mode in SearchMode:
                for allowed in range(solver._lower_bound(g, mode), g.p + 1):
                    srch = _Search(g, mode, budget)
                    for found in islice(srch.labelings(allowed), 200):
                        lab = solver._labeling_from_assignment(g, mode, srch.assign)
                        report = verify(g, lab)
                        if not (report.valid and report.profile.distinct_count == found
                                and found <= allowed):
                            wrong.append((i, mode.value, allowed, found, lab))
        assert wrong == []

    @pytest.mark.parametrize("kind,n,value,nodes,edge_labels", [
        ("wheel", 4, 3, 8_141, (7, 3, 1, 2, 6, 4, 5, 8)),
        ("complete", 4, 4, 6, (1, 2, 3, 4, 5, 6)),
    ])
    def test_edge_mode_solve(self, kind, n, value, nodes, edge_labels):
        res = solve_min_distinct(fam(kind, n), "edge", QUICK)
        assert (res.status, res.value, res.nodes_explored) == ("exact", value, nodes)
        assert res.certificate == Labeling(None, edge_labels)

    @pytest.mark.parametrize("kind,n,value,nodes,labels", [
        ("cycle", 5, 3, 3_472, ((1, 6, 7, 4, 10), (2, 3, 9, 5, 8))),
        ("complete", 4, 4, 10, ((1, 5, 8, 10), (2, 3, 4, 6, 7, 9))),
        ("cycle", 4, 2, 2_203, ((1, 8, 5, 6), (3, 7, 4, 2))),
    ])
    def test_family_orbit_solve(self, kind, n, value, nodes, labels):
        # graphs whose automorphisms map any edge (cycles) or any vertex
        # (complete graphs) onto any other, with the orbit constraints off
        spec = FamilySpec(kind, (n,))
        res = solve_min_distinct(generate(spec), "total", QUICK)
        assert (res.status, res.value, res.nodes_explored) == ("exact", value, nodes)
        assert res.certificate == Labeling(*labels)

    @pytest.mark.parametrize("kind,n,mode,nodes", [
        ("cycle", 5, "total", 3_472), ("wheel", 4, "edge", 8_141),
        ("path", 6, "total", 68_447), ("cycle", 4, "total", 2_203),
        ("wheel", 5, "edge", 381), ("path", 4, "total", 8_241),
        ("k2_plus_empty", 2, "total", 23),
    ])
    def test_solve_is_a_chain_of_fixed_k_searches(self, kind, n, mode, nodes):
        # at most p weights first, then one fewer than each labeling found,
        # until a search finds none or a labeling meets the lower bound
        g = fam(kind, n)
        lower = max(1, chi_lat_lower_bound(g) if mode == "total" else chromatic_lower_bound(g))
        k, chain = g.p, 0
        while True:
            res = find_with_at_most_k(g, k, mode, QUICK)
            chain += res.nodes_explored
            if res.status != "found":
                break
            k = verify(g, res.certificate).profile.distinct_count - 1
            if k < lower:
                break
        assert solve_min_distinct(g, mode, QUICK).nodes_explored == chain == nodes

    def test_budget_stop_counts_the_refused_node(self):
        # W4 at k=3 closes at 3,383 nodes; node 2,001 is a refused label
        res = find_with_at_most_k(fam("wheel", 4), 3, "total", SolveBudget(max_nodes=2_000))
        assert (res.status, res.nodes_explored) == ("unknown", 2_001)

    @pytest.mark.parametrize("reads,status,nodes,labels", [
        (3, "lower_upper", 11, (10, 1, 4, 6, 8, 11, 3, 2, 5, 7, 9)),
        (6, "lower_upper", 1_024, (8, 1, 4, 7, 6, 11, 3, 2, 5, 9, 10)),
        (10, "lower_upper", 5_120, (8, 1, 4, 7, 6, 11, 3, 2, 5, 9, 10)),
        (43, "lower_upper", 38_912, (8, 1, 4, 7, 6, 11, 3, 2, 5, 9, 10)),
        (4, "unknown", 2_048, None),
    ])
    def test_deadline_is_read_every_1024_nodes(self, monkeypatch, reads, status, nodes, labels):
        # a clock that passes the deadline at its `reads`-th reading: one
        # starts the budget, one is taken on entering each search, then one
        # every 1,024 nodes.  P6 restarts after 11, 40 and 372 nodes, so the
        # third reading stops it on entering its second search; the later
        # cuts land in both a refused and an applied label
        readings = count(1)
        clock = SimpleNamespace(monotonic=lambda: 0.0 if next(readings) < reads else 1e9)
        monkeypatch.setattr(solver, "time", clock)
        budget = SolveBudget(max_millis=1_000)
        if labels is None:
            res = find_with_at_most_k(fam("wheel", 4), 3, "total", budget)
        else:
            res = solve_min_distinct(fam("path", 6), "total", budget)
        cert = res.certificate
        assert (res.status, res.nodes_explored, cert and cert.labels) == (status, nodes, labels)

    @pytest.mark.parametrize("name,kind,n,mode", [
        ("c5_total", "cycle", 5, "total"), ("w4_edge", "wheel", 4, "edge"),
    ])
    def test_first_labelings(self, name, kind, n, mode):
        golden = json.loads((Path(__file__).parent / "data" / "first_labelings.json")
                            .read_text())[name]
        labs = iter_valid_labelings(fam(kind, n), mode, 50)
        assert [list(lab.labels) for lab in labs] == golden


def slot_automorphisms(g, mode):
    """Each distinct permutation of the slots that an automorphism of g
    (networkx) makes: slot x goes to perm[x]."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    G = nx.Graph()
    G.add_nodes_from(range(g.p))
    G.add_edges_from(g.edges)
    ends = [(v,) for v in range(g.p)] * (SearchMode(mode) is SearchMode.TOTAL) + list(g.edges)
    slot = {x: i for i, x in enumerate(ends)}
    return list({tuple(slot[tuple(sorted(sigma[v] for v in x))] for x in ends)
                 for sigma in GraphMatcher(G, G).isomorphisms_iter()})


def constraints_of_every_automorphism(g, mode):
    """The pairs (slot, later slot) whose labels rise, derived from every
    automorphism: for each one that moves a slot, with i0 the first slot it
    moves in slot order, X[i0] < X[sigma^-1(i0)]."""
    pairs = set()
    for perm in slot_automorphisms(g, mode):
        moved = [s for s in _slot_order(g, mode) if perm[s] != s]
        if moved:
            pairs.add((moved[0], perm.index(moved[0])))
    return pairs


@pytest.mark.usefixtures("tree_only")
class TestOrbit:
    """The orbit constraints of `_Search.floors`, read off the graph: slot
    s_d takes a label below every later slot of its orbit under the
    automorphisms that fix s_0 .. s_{d-1}.  `_SYMMETRY = False` drops
    them."""

    def test_two_cycles_are_not_one(self):
        # C3 ∪ C5 is 2-regular, but no automorphism maps an edge of the C3
        # onto one of the C5: one orbit over all eight edges loses the
        # optimum, and the search then answers exact 4 (4,522 nodes
        # without the constraints)
        g = disjoint_union(fam("cycle", 3), fam("cycle", 5))
        res = solve_min_distinct(g, "edge", QUICK)
        assert (res.status, res.value, res.nodes_explored) == ("exact", 3, 1_007)

    def test_constraints_are_those_of_every_automorphism(self):
        # every atlas graph on at most 6 vertices, both modes
        nx = pytest.importorskip("networkx")
        graphs = [Graph.from_edges(G.number_of_nodes(), G.edges())
                  for G in nx.graph_atlas_g() if G.number_of_nodes() <= 6]
        assert len(graphs) == 209
        mismatches = []
        for i, g in enumerate(graphs):
            for mode in SearchMode:
                srch = _Search(g, mode, QUICK)
                ours = {(x, step[0]) for step, above in zip(srch.steps, srch.floors())
                        for x in above}
                if ours != constraints_of_every_automorphism(g, mode):
                    mismatches.append((i, mode.value))
        assert mismatches == []

    @pytest.mark.parametrize("g,mode,automorphisms", [
        (fam("cycle", 4), "total", 8), (fam("complete", 4), "edge", 24),
        (fam("complete_bipartite", 1, 3), "total", 6), (fam("path", 4), "total", 2),
        (fam("complete_bipartite", 2, 3), "edge", 12),
    ])
    def test_one_labeling_per_class(self, g, mode, automorphisms):
        # every non-identity slot permutation moves every labeling, so each
        # class holds `automorphisms` labelings; the tree keeps the least
        # of each in slot order, and no other
        perms = slot_automorphisms(g, mode)
        assert len(perms) == automorphisms
        order = _slot_order(g, SearchMode(mode))
        every = [lab.labels for lab in iter_valid_labelings(g, mode, 10**6)]
        least = [x for x in every if [x[s] for s in order] == min(
            [x[perm[s]] for s in order] for perm in perms)]
        srch = _Search(g, SearchMode(mode), QUICK)
        kept = [tuple(srch.assign) for _ in srch.labelings(max(g.p, 1))]
        assert kept == least and len(every) == automorphisms * len(kept)

    def test_tree_never_searches_more(self, monkeypatch):
        # every atlas graph on at most 5 vertices, both modes, every k from
        # the lower bound to p: the same status and witness with the
        # constraints on and off, and never more nodes on
        nx = pytest.importorskip("networkx")
        budget = SolveBudget(max_nodes=300_000)
        worse = []
        for i, G in enumerate(nx.graph_atlas_g()[:53]):
            g = Graph.from_edges(G.number_of_nodes(), G.edges())
            for mode in ("total", "edge"):
                lower = (chi_lat_lower_bound if mode == "total" else chromatic_lower_bound)(g)
                for k in range(max(lower, 1), g.p + 1):
                    on = find_with_at_most_k(g, k, mode, budget)
                    with monkeypatch.context() as m:
                        m.setattr(solver, *RULES["symmetry"])
                        off = find_with_at_most_k(g, k, mode, budget)
                    if on[:2] != off[:2] or on.nodes_explored > off.nodes_explored:
                        worse.append((i, mode, k, on, off))
        assert worse == []

    def test_c5_tree_at_2(self):
        # 939,492 nodes without the constraints (`TestSearchTree`)
        srch = _Search(fam("cycle", 5), SearchMode.TOTAL, QUICK)
        assert next(srch.labelings(2), None) is None
        assert (srch.nodes, srch.cut) == (146_874, False)

    @pytest.mark.parametrize("reads,status,nodes", [
        (2, "unknown", 0), (3, "unknown", 0), (4, "unknown", 0), (5, "found", 55),
    ])
    def test_orbit_search_reads_the_deadline(self, monkeypatch, reads, status, nodes):
        # K10 in total mode at k = 10: one reading starts the budget, the
        # orbit search takes two (after 1,024 and 2,048 images tried), then
        # one on entering the tree; a reading past the deadline stops the
        # search there, and no clock is read after it
        readings = count(1)
        taken = []

        def monotonic():
            taken.append(next(readings))
            return 0.0 if taken[-1] < reads else 1e9
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=monotonic))
        res = find_with_at_most_k(fam("complete", 10), 10, "total", SolveBudget(max_millis=1_000))
        assert (res.status, res.nodes_explored, len(taken)) == (status, nodes, min(reads, 4))

    def test_made_on_first_use_for_at_most_16_vertices(self, monkeypatch):
        made = []
        floors = _Search.floors

        def recorded(self):
            made.append(self.above is None)
            return floors(self)
        monkeypatch.setattr(_Search, "floors", recorded)
        # above 16 vertices, no constraint
        srch = _Search(fam("cycle", 17), SearchMode.TOTAL, QUICK)
        assert srch.floors() == [[]] * srch.n
        # W4 closes in the witness pass, which makes none
        monkeypatch.setattr(solver, "_ANNEAL_MOVES", 4_096)
        made.clear()
        assert solve_min_distinct(fam("wheel", 4), "total", QUICK).status == "exact"
        assert made == []
        # a solve that searches makes them once
        assert solve_min_distinct(fam("path", 4), "total", QUICK).status == "exact"
        assert made[0] and not any(made[1:])


class TestWitnessPhase:
    """solve_min_distinct first anneals over label permutations, at most
    min(4,096, max_nodes // 32) moves charged as 8 nodes each; a labeling
    at the lower bound ends the solve there."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(lower, moves, best) of every witness search, in call order."""
        calls, anneal = [], _Search.anneal

        def recorded(self, lower, moves):
            best, labels = anneal(self, lower, moves)
            calls.append((lower, moves, best))
            return best, labels

        monkeypatch.setattr(_Search, "anneal", recorded)
        return calls

    @pytest.mark.parametrize("kind,n,budget,status,nodes,labels", [
        ("wheel", 4, 100_000, "exact", 688, (3, 7, 2, 10, 5, 1, 11, 9, 12, 13, 4, 6, 8)),
        ("cycle", 5, 100_000, "exact", 392, (2, 6, 4, 5, 9, 7, 8, 3, 10, 1)),
        ("path", 4, 2_000, "lower_upper", 2_001, None),
    ])
    @pytest.mark.usefixtures("no_symmetry")
    def test_same_graph_same_witness_and_nodes(self, kind, n, budget, status, nodes, labels):
        # W4 and C5 close in the witness search; P4 (3 weights, bound 2) cannot
        first, again = (solve_min_distinct(fam(kind, n), "total", SolveBudget(max_nodes=budget))
                        for _ in range(2))
        assert first == again
        assert (first.status, first.nodes_explored) == (status, nodes)
        if labels is not None:
            assert first.certificate.labels == labels

    def test_p4_closes_within_2000_nodes_under_the_orbit_constraints(self):
        res = solve_min_distinct(fam("path", 4), "total", SolveBudget(max_nodes=2_000))
        assert (res.status, res.value, res.nodes_explored) == ("exact", 3, 1_916)
        assert res.certificate.labels == (2, 1, 7, 5, 6, 4, 3)

    @pytest.mark.parametrize("max_nodes,status", [
        (1, "exhausted"), (7, "exhausted"), (31, "lower_upper"), (32, "lower_upper"),
    ])
    def test_node_budget_still_stops_at_max_nodes_plus_one(self, max_nodes, status):
        # below 32 nodes no move is made; at 32 one, charged 8 nodes
        res = solve_min_distinct(fam("cycle", 7), "total", SolveBudget(max_nodes=max_nodes))
        assert (res.status, res.nodes_explored) == (status, max_nodes + 1)

    @pytest.mark.parametrize("reads,status,nodes", [
        (2, "exhausted", 0), (3, "lower_upper", 8_192), (4, "lower_upper", 16_384),
        (6, "lower_upper", 27_400),
    ])
    def test_clock_is_read_every_1024_moves(self, monkeypatch, reads, status, nodes):
        # K3 plus two isolated vertices needs 4 weights against a bound of 3,
        # so the pass runs its 3,425 moves (a quarter of the tree over 8
        # labels) unless the clock stops it.  One reading starts the budget,
        # one comes before the first move, then one every 1,024 moves; the
        # tree reads the clock on entry and stops there.
        readings = count(1)
        clock = SimpleNamespace(monotonic=lambda: 0.0 if next(readings) < reads else 1e9)
        monkeypatch.setattr(solver, "time", clock)
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2)])
        res = solve_min_distinct(g, "total", SolveBudget(max_millis=1_000))
        assert (res.status, res.nodes_explored) == (status, nodes)

    def test_moves_only_in_a_solve(self, calls):
        g = fam("cycle", 5)
        find_with_at_most_k(g, 3, "total", QUICK)
        iter_valid_labelings(g, "total", 5)
        assert calls == []
        solve_min_distinct(g, "total", QUICK)
        solve_min_distinct(g, "total", SolveBudget(max_nodes=100_000))
        assert [moves for _, moves, _ in calls] == [4_096, 3_125]

    @pytest.mark.parametrize("g", [Graph(0, ()), fam("complete", 1), fam("empty", 2),
                                   fam("empty", 8)])
    def test_trivial_graphs_answer_as_before(self, g, monkeypatch):
        # over 8 labels the whole tree has 109,600 nodes: room for 3,425 moves
        answers = {}
        for _ in switched_off(monkeypatch):
            for mode in ("total", "edge"):
                res = solve_min_distinct(g, mode, QUICK)
                answers.setdefault(mode, set()).add((res.status, res.value))
        for mode in ("total", "edge"):
            oracle = brute_force_min_distinct(g, mode)
            assert answers[mode] == {(oracle.status, oracle.value)}

    def test_every_exact_from_the_phase_is_a_witness_at_the_bound(self, calls):
        # every atlas graph on at most 5 vertices, both modes
        nx = pytest.importorskip("networkx")
        closed = 0
        for G in nx.graph_atlas_g()[:53]:
            g = Graph.from_edges(G.number_of_nodes(), G.edges())
            for mode in ("total", "edge"):
                calls.clear()
                res = solve_min_distinct(g, mode, SolveBudget(max_nodes=40_000))
                if calls and calls[0][2] == calls[0][0]:
                    closed += 1
                    assert (res.status, res.value) == ("exact", calls[0][0])
                    report = verify(g, res.certificate)
                    assert report.valid and report.profile.distinct_count == res.value
        assert closed == 50

    @pytest.mark.parametrize("mode", ["total", "edge"])
    def test_same_moves_as_the_reference_annealer(self, mode):
        # every atlas graph on at most 6 vertices with two slots or more, at
        # the lower bound and one above it: the incremental bookkeeping
        # makes the decisions of rescoring each labeling from scratch
        nx = pytest.importorskip("networkx")
        mode, compared = SearchMode(mode), 0
        for G in nx.graph_atlas_g()[:209]:
            g = Graph.from_edges(G.number_of_nodes(), G.edges())
            bound = max(1, chi_lat_lower_bound(g) if mode is SearchMode.TOTAL
                        else chromatic_lower_bound(g))
            for lower in (bound, bound + 1):
                srch = _Search(g, mode, SolveBudget(max_nodes=10**9))
                if srch.n < 2:
                    continue
                best, labels, made = anneal_by_rescoring(g, mode, lower, 256)
                assert srch.anneal(lower, 256) == (best, labels)
                assert srch.nodes == made * solver._MOVE_NODES
                compared += 1
        assert compared == {"total": 414, "edge": 394}[mode]

    @pytest.mark.parametrize("mode", ["total", "edge"])
    def test_full_passes_match_the_reference_annealer(self, mode):
        # every 8th connected 6-vertex atlas graph at the lower bound, with
        # the 3,125 moves of a 100,000-node solve: the passes that run to the
        # end reach the cold phase, where most moves are refused early
        nx = pytest.importorskip("networkx")
        mode, full = SearchMode(mode), 0
        graphs = [G for G in nx.graph_atlas_g()[:209]
                  if G.number_of_nodes() == 6 and nx.is_connected(G)]
        for G in graphs[::8]:
            g = Graph.from_edges(6, G.edges())
            lower = (chi_lat_lower_bound(g) if mode is SearchMode.TOTAL
                     else chromatic_lower_bound(g))
            srch = _Search(g, mode, SolveBudget(max_nodes=10**9))
            best, labels, made = anneal_by_rescoring(g, mode, lower, 3_125)
            assert srch.anneal(lower, 3_125) == (best, labels)
            assert srch.nodes == made * solver._MOVE_NODES
            full += made == 3_125
        assert (len(graphs[::8]), full) == (14, {"total": 1, "edge": 5}[mode])

    def test_early_refusal_refuses_only_what_the_metropolis_rule_refuses(self):
        # a draw of at least _REFUSE refuses a move uphill by 1 to 4 at every
        # temperature a pass tests, computed as the pass computes it
        assert solver._REFUSE == math.ceil(math.exp(-4) * 2 ** 32)
        for moves in (1, 256, 3_125, 4_096):
            temp, cool, kept = 0.25, 0.04 ** (1.0 / moves), []
            for _ in range(moves):
                temp *= cool
                kept += [(moves, temp, step) for step in range(1, 5)
                         if solver._REFUSE < math.exp(-step / temp) * 2.0 ** 32]
            assert temp < 0.25 and not kept

    def test_draw_stream_is_the_lcg_and_grows_unchanged(self, monkeypatch):
        monkeypatch.setattr(solver, "_DRAWS", ())
        seed, expected = 1, []
        for _ in range(10):
            seed = (seed * 6364136223846793005 + 1442695040888963407) % 2 ** 64
            expected.append(seed >> 32)
        short = solver._draws(5)
        assert short == tuple(expected[:5]) and solver._draws(4) is short
        assert solver._draws(6) == tuple(expected)  # remade doubled
        assert short == tuple(expected[:5])

    DOUBLE_STAR = [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]  # atlas 79

    @pytest.mark.parametrize("p,edges,mode,lower,moves,best,made", [
        # one weight, which adjacent vertices cannot share: every move runs,
        # many swapping a vertex slot with that vertex's own edge
        (2, [(0, 1)], "total", 1, 64, 2, 64),
        (3, [(0, 1), (1, 2)], "total", 1, 64, 2, 64),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], "total", 1, 256, 3, 256),
        # lower = p: every class is among the largest; the isolated edge of
        # paw + K2 keeps a pair equal, so no witness exists
        (6, [(0, 1), (1, 2), (1, 3), (2, 3), (4, 5)], "edge", 6, 256, None, 256),
        (4, list(combinations(range(4), 2)), "total", 4, 256, 4, 0),
        # an isolated vertex in edge mode: a weight-0 class fed by no slot
        (5, [(0, 1), (1, 2), (2, 3)], "edge", 2, 256, 4, 256),
        # one move: refused (it swaps two edges at a shared vertex), accepted
        (5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)], "total", 3, 1, 5, 1),
        (6, DOUBLE_STAR, "total", 2, 1, 5, 1),
        # whole 4,096-move passes that never reach the bound
        (6, DOUBLE_STAR, "total", 2, 4_096, 3, 4_096),
        (6, DOUBLE_STAR, "edge", 2, 4_096, 6, 4_096),
    ])
    def test_edge_cases_match_the_reference_annealer(self, p, edges, mode, lower, moves,
                                                     best, made):
        g, mode = Graph.from_edges(p, edges), SearchMode(mode)
        srch = _Search(g, mode, SolveBudget(max_nodes=10**9))
        ref_best, ref_labels, ref_made = anneal_by_rescoring(g, mode, lower, moves)
        assert (ref_best, ref_made) == (best, made)
        assert srch.anneal(lower, moves) == (ref_best, ref_labels)
        assert srch.nodes == made * solver._MOVE_NODES


CAPS = (1, 2, 3, 1_023, 1_024, 1_025, 33_333)  # node budgets that cut P13 class first


class TestClassFirst:
    """k = 2 is decided class first: each proper colouring into at most
    two classes, then each pair of class weights that fits it, then the
    labels, each completing label forced.  `_CLASS_FIRST = False` searches
    the tree instead."""

    @pytest.mark.parametrize("mode,max_universe", [("total", 9), ("edge", 7)])
    def test_agrees_with_the_oracle(self, mode, max_universe):
        # found exactly where the least weight count is at most 2, and
        # every witness has at most 2 weights
        mismatches = []
        for i, g, oracle in atlas_oracle(mode, max_universe):
            res = find_with_at_most_k(g, 2, mode, QUICK)
            two = oracle.status == "exact" and oracle.value <= 2
            if res.status != ("found" if two else "none"):
                mismatches.append((i, res.status, oracle.status, oracle.value))
            elif two:
                report = verify(g, res.certificate)
                assert report.valid and report.profile.distinct_count <= 2, i
        assert mismatches == []

    @pytest.mark.parametrize("mode,both,decided", [("total", 7, 16), ("edge", 15, 17)])
    @pytest.mark.usefixtures("no_symmetry")
    def test_agrees_with_the_tree_on_connected_6_vertex_graphs(self, monkeypatch, mode,
                                                               both, decided):
        # at 50,000 nodes each: the same verdict wherever both decide, on
        # the graphs whose lower bound leaves two weights to search for
        self.agree(monkeypatch, mode, both, decided)

    @pytest.mark.parametrize("mode,both,decided", [("total", 7, 17), ("edge", 17, 17)])
    def test_agrees_with_the_tree_under_the_orbit_constraints(self, monkeypatch, mode,
                                                              both, decided):
        self.agree(monkeypatch, mode, both, decided)

    @staticmethod
    def agree(monkeypatch, mode, both, decided):
        nx = pytest.importorskip("networkx")
        graphs = [Graph.from_edges(6, G.edges()) for G in nx.graph_atlas_g()
                  if G.number_of_nodes() == 6 and nx.is_connected(G)]
        assert len(graphs) == 112
        bound = chi_lat_lower_bound if mode == "total" else chromatic_lower_bound
        graphs = [g for g in graphs if bound(g) <= 2]
        assert len(graphs) == 17
        budget = SolveBudget(max_nodes=50_000)
        verdicts = []
        for g in graphs:
            ours = find_with_at_most_k(g, 2, mode, budget).status
            with monkeypatch.context() as m:
                m.setattr(solver, *RULES["class first"])
                verdicts.append((ours, find_with_at_most_k(g, 2, mode, budget).status))
        closed = [(ours, tree) for ours, tree in verdicts if "unknown" not in (ours, tree)]
        assert len(closed) == both and all(ours == tree for ours, tree in closed)
        assert sum(ours != "unknown" for ours, _ in verdicts) == decided

    @pytest.mark.parametrize("g,mode,nodes", [
        # C4 ∪ K1, 253,065 tree nodes; in edge mode the isolated vertex's
        # class of weight 0 holds a vertex of each C4 class
        (graph6_decode("Dl?"), "total", 2), (graph6_decode("Dl?"), "edge", 2),
        # atlas 79, a double star: 8,837,743 tree nodes
        (Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]), "total", 35_903),
        # a lower bound above 2 refutes with no node: an odd cycle, an edgeless graph
        (fam("cycle", 5), "total", 0), (fam("cycle", 5), "edge", 0),
        (fam("cycle", 7), "total", 0), (fam("empty", 3), "total", 0),
    ])
    @pytest.mark.usefixtures("no_symmetry")
    def test_refutations(self, g, mode, nodes):
        res = find_with_at_most_k(g, 2, mode, QUICK)
        assert (res.status, res.nodes_explored) == ("none", nodes)

    @pytest.mark.parametrize("g,mode,nodes", [
        # C4 ∪ K1: 42,575 tree nodes
        (graph6_decode("Dl?"), "total", 2), (graph6_decode("Dl?"), "edge", 2),
        # atlas 79: 1,126,187 tree nodes
        (Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]), "total", 23_770),
    ])
    def test_refutations_under_the_orbit_constraints(self, g, mode, nodes):
        res = find_with_at_most_k(g, 2, mode, QUICK)
        assert (res.status, res.nodes_explored) == ("none", nodes)

    @pytest.mark.parametrize("g,mode,nodes", [
        (fam("cycle", 4), "total", 6_282), (fam("path", 7), "total", 256),
        # no edge: every labeling will do, and no node is searched
        (fam("empty", 3), "edge", 0), (fam("empty", 2), "total", 0),
    ])
    @pytest.mark.usefixtures("no_symmetry")
    def test_witnesses(self, g, mode, nodes):
        res = find_with_at_most_k(g, 2, mode, QUICK)
        assert (res.status, res.nodes_explored) == ("found", nodes)
        report = verify(g, res.certificate)
        assert report.valid and report.profile.distinct_count <= 2

    @pytest.mark.parametrize("name,nodes", [
        # each unknown at 3M nodes before class-level weight ranges
        ("path:11", 10_942), ("path:13", 102_910), ("path:15", 59_765),
        ("atlas:525", 3_645), ("atlas:670", 39_875),  # atlas 670 is K2,5
    ])
    @pytest.mark.usefixtures("no_symmetry")
    def test_two_weights_found(self, name, nodes):
        g = named(name)
        res = find_with_at_most_k(g, 2, "total", SolveBudget(max_nodes=3_000_000))
        assert (res.status, res.nodes_explored) == ("found", nodes)
        report = verify(g, res.certificate)
        assert report.valid and report.profile.distinct_count == 2

    @pytest.mark.parametrize("name,nodes", [
        # 6,282, 3,645 and 39,875 nodes without the orbit constraints, and
        # K2,7 unknown at 3M; the paths do not move
        ("cycle:4", 2_661), ("atlas:525", 2_420), ("atlas:670", 10_899),
        ("complete_bipartite:2:7", 1_484_889), ("path:13", 102_910),
    ])
    def test_two_weights_found_under_the_orbit_constraints(self, name, nodes):
        self.test_two_weights_found(name, nodes)

    @pytest.mark.parametrize("g,nodes", [(fam("complete_bipartite", 2, 5), 72_643),
                                         (fam("path", 11), 43_710)])
    @pytest.mark.usefixtures("no_symmetry")
    def test_solve_decides_two_weights_after_the_witness_pass(self, g, nodes):
        # at the parent's order both ran their 3M nodes: 2..3 and 2..4
        res = solve_min_distinct(g, "total", SolveBudget(max_nodes=3_000_000))
        assert (res.status, res.value, res.nodes_explored) == ("exact", 2, nodes)
        assert verify(g, res.certificate).profile.distinct_count == 2

    @pytest.mark.parametrize("g,nodes", [(fam("complete_bipartite", 2, 5), 43_667),
                                         (fam("path", 11), 43_710)])
    def test_solve_decides_two_weights_under_the_orbit_constraints(self, g, nodes):
        self.test_solve_decides_two_weights_after_the_witness_pass(g, nodes)

    @pytest.mark.parametrize("p,q,size", [
        (9, 8, (5, 4)), (9, 8, (4, 5)), (7, 10, (2, 5)), (5, 4, (3, 2)), (7, 6, (1, 6)),
        (4, 3, (2, 2)), (2, 1, (1, 1)),
    ])
    def test_class_weights_go_centre_out(self, p, q, size):
        # every pair within the class-level ranges (|C| w sums |C| + q
        # distinct labels of 1..n) that meets the sum identity, nearest the
        # class means first: w1, then w2 for each w1; of two as near, the lower
        n = p + q
        least = n * (n + 1) // 2 + q * (q + 1) // 2
        most = least + q * (n - q)
        (lo0, hi0), (lo1, hi1) = [(math.ceil((c + q) * (c + q + 1) / 2 / c),
                                   ((c + q) * n - (c + q) * (c + q - 1) // 2) // c) for c in size]

        def away(c, w):  # distance from the class mean
            return abs(Fraction(w) - Fraction((c + q) * (n + 1), 2 * c))
        for lo, hi in [(lo0, hi0), (lo0 + 2, hi0 - 3)]:  # and a narrower w1 range
            pairs = [(w1, w2) for w1 in range(lo, hi + 1) for w2 in range(lo1, hi1 + 1)
                     if w1 != w2 and least <= size[0] * w1 + size[1] * w2 <= most]
            pairs.sort(key=lambda w: (away(size[0], w[0]), w[0], away(size[1], w[1]), w[1]))
            assert list(_class_weights(n, q, size, (lo, lo1), (hi, hi1))) == pairs

    @pytest.mark.parametrize("limit", CAPS)
    def test_capped_run_reports_the_refused_node(self, limit, max_millis=None):
        # P13 is found after 102,910 nodes: the budget stops each of these
        # on a colouring's, a pair's or a label's node
        budget = SolveBudget(max_nodes=limit, max_millis=max_millis)
        res = find_with_at_most_k(fam("path", 13), 2, "total", budget)
        assert (res.status, res.nodes_explored) == ("unknown", limit + 1)

    @pytest.mark.parametrize("limit", CAPS)
    def test_capped_run_under_a_far_deadline(self, limit):
        # a time budget the search never reaches: the same stops, through
        # the fill's and the pair loop's clock readings
        self.test_capped_run_reports_the_refused_node(limit, 10**9)

    @pytest.mark.parametrize("reads,nodes", [(2, 0), (3, 1_024), (5, 3_072)])
    def test_deadline_is_read_every_1024_nodes(self, monkeypatch, reads, nodes):
        # one reading starts the budget, one is taken on entering the
        # search, then one every 1,024 nodes
        readings = count(1)
        clock = SimpleNamespace(monotonic=lambda: 0.0 if next(readings) < reads else 1e9)
        monkeypatch.setattr(solver, "time", clock)
        res = find_with_at_most_k(fam("path", 9), 2, "total", SolveBudget(max_millis=1_000))
        assert (res.status, res.nodes_explored) == ("unknown", nodes)

    def test_solve_refutes_two_weights_class_first(self, monkeypatch):
        # C4 ∪ K1 at the atlas budget: two weights are refuted right after
        # the witness pass, and the restarts aim at 3
        g, budget = graph6_decode("Dl?"), SolveBudget(max_nodes=40_000)
        res = solve_min_distinct(g, "total", budget)
        assert (res.status, res.value, res.nodes_explored) == ("exact", 3, 10_002)
        monkeypatch.setattr(solver, *RULES["class first"])
        res = solve_min_distinct(g, "total", budget)
        assert (res.status, res.lower, res.upper, res.nodes_explored) == \
            ("lower_upper", 2, 3, 40_001)


class TestIterValidLabelings:
    def test_all_distinct_and_valid(self):
        k4 = fam("complete", 4)
        labs = iter_valid_labelings(k4, "edge", 30)
        assert len(labs) == 30
        assert len(set(labs)) == 30
        for lab in labs:
            assert verify(k4, lab).valid

    @pytest.mark.parametrize("kind,n,mode", [("cycle", 4, "total"), ("complete", 4, "edge"),
                                             ("wheel", 4, "edge")])
    def test_lists_every_labeling_with_the_constraints_on(self, monkeypatch, kind, n, mode):
        # C4 has 8 automorphisms, K4 24 and W4 8: each labeling is listed,
        # not one of each class
        on = iter_valid_labelings(fam(kind, n), mode, 10**6)
        monkeypatch.setattr(solver, *RULES["symmetry"])
        assert on == iter_valid_labelings(fam(kind, n), mode, 10**6)

    def test_budget_stop_is_reported(self):
        with pytest.raises(TooLargeError, match="21 nodes with 2 of 50"):
            iter_valid_labelings(fam("wheel", 5), "total", 50, SolveBudget(max_nodes=20))

    def test_closed_search_returns_every_labeling(self):
        # K2 in total mode: all 3! labelings are valid
        assert len(iter_valid_labelings(fam("complete", 2), "total", 50)) == 6

    def test_zero_limit_returns_nothing_without_searching(self):
        assert iter_valid_labelings(fam("complete", 4), "edge", 0) == []
        # a one-node budget stops any search, so [] here means none ran
        assert iter_valid_labelings(fam("wheel", 5), "total", 0, SolveBudget(max_nodes=1)) == []

    def test_negative_limit_rejected(self):
        with pytest.raises(ParameterError, match="limit must be >= 0, got -5"):
            iter_valid_labelings(fam("complete", 4), "edge", -5)


def full_scan_slot_order(g, mode):
    """The slot order by a full scan of every unordered vertex per step:
    the reference for the heap in `_slot_order`."""
    vorder = []
    for _ in range(g.p):
        v = min((v for v in range(g.p) if v not in vorder),
                key=lambda v: (-sum(u in vorder for u in g.neighbors(v)), -g.degree(v), v))
        vorder.append(v)
    base = g.p if mode is SearchMode.TOTAL else 0
    order = []
    for i, v in enumerate(vorder):
        if mode is SearchMode.TOTAL:
            order.append(v)
        order += [base + g.edges.index((min(u, v), max(u, v)))
                  for u in vorder[i + 1:] if g.has_edge(u, v)]
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
            assert order == full_scan_slot_order(g, mode)

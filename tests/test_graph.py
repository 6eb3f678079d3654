import copy
import itertools
import pickle

import pytest

from latlab import (FamilySpec, Graph, ParameterError, ParseError, TooLargeError,
                    ValidationError, disjoint_union, format_graph, generate, graph6_decode,
                    graph6_encode, join, parse_graph)
from latlab.graph import _FAMILIES, SIZE_LIMIT


def fam(kind, *params):
    return generate(FamilySpec(kind, params))


class TestGraphType:
    def test_canonical_validation(self):
        with pytest.raises(ValidationError):
            Graph(3, ((0, 0),))
        with pytest.raises(ValidationError):
            Graph(3, ((1, 0),))  # endpoints not ascending
        with pytest.raises(ValidationError):
            Graph(3, ((0, 1), (0, 1)))
        with pytest.raises(ValidationError):
            Graph(2, ((0, 2),))

    def test_from_edges_canonicalizes(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))
        with pytest.raises(ValidationError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_value_semantics(self):
        g, spec = fam("cycle", 4), FamilySpec("cycle", (4,))
        assert g == Graph.from_edges(4, [(3, 0), (0, 1), (1, 2), (2, 3)])
        assert hash(g) == hash(fam("cycle", 4)) and g != (4, g.edges)
        assert repr(g) == "Graph(p=4, edges=((0, 1), (0, 3), (1, 2), (2, 3)))"
        assert repr(spec) == "FamilySpec(kind='cycle', params=(4,))"
        for value in (g, spec):
            assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
        with pytest.raises(AttributeError):
            g.p = 5
        with pytest.raises(AttributeError):
            del spec.kind
        assert g.p == 4 and spec.kind == "cycle"

    def test_degree_and_adjacency(self):
        g = fam("cycle", 4)
        assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
        assert set(g.neighbors(0)) == {1, 3}
        assert g.isolated_vertices() == ()


class TestFamilies:
    def test_cycle4(self):
        g = fam("cycle", 4)
        assert (g.p, g.q) == (4, 4)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_wheel4_apex_last(self):
        g = fam("wheel", 4)
        assert (g.p, g.q) == (5, 8)
        assert set(g.neighbors(4)) == {0, 1, 2, 3}

    def test_k2_plus_empty3(self):
        g = fam("k2_plus_empty", 3)
        assert (g.p, g.q) == (5, 1)
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize("kind,params,pq", [
        ("cycle", (5,), (5, 5)),
        ("wheel", (5,), (6, 10)),
        ("fan", (5,), (6, 9)),
        ("complete_bipartite", (2, 3), (5, 6)),
        ("complete", (4,), (4, 6)),
        ("path", (6,), (6, 5)),
        ("empty", (4,), (4, 0)),
        ("join_complete_cycle", (2, 3), (5, 10)),
        ("cycle_join_empty", (4, 2), (6, 12)),
        ("k2_plus_empty", (5,), (7, 1)),
    ])
    def test_closed_form_counts(self, kind, params, pq):
        g = generate(FamilySpec(kind, params))
        assert (g.p, g.q) == pq

    def test_join_complete_cycle_counts_formula(self):
        for m in range(4):
            for n in range(3, 6):
                g = fam("join_complete_cycle", m, n)
                assert g.p == m + n
                assert g.q == m * (m - 1) // 2 + n + m * n

    @pytest.mark.parametrize("kind,params", [
        ("cycle", (2,)), ("wheel", (2,)), ("path", (0,)), ("empty", (-1,)),
        ("join_complete_cycle", (2, 2)), ("cycle_join_empty", (2, 2)),
    ])
    def test_out_of_range_parameters(self, kind, params):
        with pytest.raises(ParameterError):
            FamilySpec(kind, params)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            FamilySpec("moebius", (4,))

    def test_spec_parse(self):
        assert FamilySpec.parse("cycle:4") == FamilySpec("cycle", (4,))
        assert FamilySpec.parse("complete-bipartite:2:3") == FamilySpec(
            "complete_bipartite", (2, 3))


# kind -> (least parameters, (p, q) of the graph they build)
LEAST = {
    "empty": ((0,), (0, 0)),
    "path": ((1,), (1, 0)),
    "cycle": ((3,), (3, 3)),
    "complete": ((0,), (0, 0)),
    "complete_bipartite": ((0, 0), (0, 0)),
    "wheel": ((3,), (4, 6)),
    "fan": ((1,), (2, 1)),
    "k2_plus_empty": ((0,), (2, 1)),
    "join_complete_cycle": ((0, 3), (3, 3)),
    "cycle_join_empty": ((3, 0), (3, 3)),
}


@pytest.mark.parametrize("kind", sorted(LEAST))
def test_family_least_parameters(kind):
    least, pq = LEAST[kind]
    g = generate(FamilySpec(kind, least))
    assert (g.p, g.q) == pq
    for i in range(len(least)):
        with pytest.raises(ParameterError):
            FamilySpec(kind, least[:i] + (least[i] - 1,) + least[i + 1:])
    for params in (least[:-1], least + (0,)):
        with pytest.raises(ParameterError):
            FamilySpec(kind, params)


@pytest.mark.parametrize("kind", sorted(LEAST))
def test_family_size_formula_matches_the_built_graph(kind):
    # generate refuses a family instance past SIZE_LIMIT from this formula alone
    least, size, _ = _FAMILIES[kind]
    for shift in itertools.product(range(3), repeat=len(least)):
        params = tuple(x + d for x, d in zip(least, shift))
        g = generate(FamilySpec(kind, params))
        assert size(*params) == (g.p, g.q), params


def test_graph_past_the_size_limit_is_refused():
    with pytest.raises(TooLargeError, match="exceeds the limit"):
        Graph(SIZE_LIMIT + 1, ())


class TestCombinators:
    def test_join_wheel(self):
        g = join(fam("empty", 1), fam("cycle", 4))
        assert (g.p, g.q) == (5, 8)
        assert set(g.neighbors(0)) == {1, 2, 3, 4}

    def test_join_bipartite(self):
        g = join(fam("empty", 2), fam("empty", 3))
        assert g.q == 6

    def test_join_with_empty_is_identity(self):
        c3 = fam("cycle", 3)
        assert join(c3, Graph(0, ())) == c3

    def test_disjoint_union(self):
        g = disjoint_union(fam("complete", 2), fam("empty", 3))
        assert (g.p, g.q) == (5, 1)
        assert disjoint_union(fam("cycle", 3), Graph(0, ())) == fam("cycle", 3)
        two = disjoint_union(fam("cycle", 3), fam("cycle", 3))
        assert (two.p, two.q) == (6, 6)

    def test_inputs_not_mutated(self):
        c3 = fam("cycle", 3)
        before = c3.edges
        join(c3, c3)
        disjoint_union(c3, c3)
        assert c3.edges == before


class TestEdgeListCodec:
    def test_parse_simple(self):
        assert parse_graph("0 1\n1 2\n2 0") == fam("cycle", 3)

    def test_serialize_canonical(self):
        assert format_graph(fam("cycle", 3)) == "0 1\n0 2\n1 2\n"

    def test_p_line_for_isolated(self):
        g = fam("k2_plus_empty", 2)
        text = format_graph(g)
        assert text.startswith("p=4")
        assert parse_graph(text) == g

    def test_parse_errors_carry_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("0 1\n1 2 3\n")
        assert exc.value.offset == 4
        with pytest.raises(ParseError):
            parse_graph("0 x\n")

    def test_declared_p_too_small(self):
        with pytest.raises(ValidationError):
            parse_graph("p=2\n0 2\n")

    @pytest.mark.parametrize("kind,params", [
        ("cycle", (5,)), ("wheel", (4,)), ("fan", (3,)), ("empty", (3,)),
        ("complete", (4,)), ("k2_plus_empty", (3,)), ("complete_bipartite", (2, 3)),
    ])
    def test_round_trip(self, kind, params):
        g = generate(FamilySpec(kind, params))
        assert parse_graph(format_graph(g)) == g


class TestGraph6:
    def test_k3_is_Bw(self):
        assert graph6_encode(fam("complete", 3)) == "Bw"
        assert graph6_decode("Bw") == fam("complete", 3)

    def test_header_stripped(self):
        assert graph6_decode(">>graph6<<Bw") == fam("complete", 3)

    @pytest.mark.parametrize("kind,params", [
        ("cycle", (6,)), ("wheel", (5,)), ("complete", (5,)), ("empty", (4,)),
        ("path", (7,)), ("complete_bipartite", (3, 3)), ("cycle_join_empty", (4, 2)),
    ])
    def test_round_trip(self, kind, params):
        g = generate(FamilySpec(kind, params))
        assert graph6_decode(graph6_encode(g)) == g

    def test_networkx_agrees(self):
        nx = pytest.importorskip("networkx")
        for spec in [FamilySpec("cycle", (7,)), FamilySpec("wheel", (6,)),
                     FamilySpec("complete_bipartite", (2, 4))]:
            g = generate(spec)
            H = nx.from_graph6_bytes(graph6_encode(g).encode())
            assert set(H.edges()) == {tuple(e) for e in g.edges}
            ours = graph6_decode(nx.to_graph6_bytes(H, header=False).decode().strip())
            assert ours == g

    def test_bad_characters(self):
        with pytest.raises(ParseError):
            graph6_decode("B\x1f")
        with pytest.raises(ParseError):
            graph6_decode("Bww")  # wrong body length

    def test_large_n_prefix(self):
        g = Graph(63, ((0, 1),))
        assert graph6_decode(graph6_encode(g)) == g

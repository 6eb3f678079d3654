import random

import pytest
from hypothesis import given, strategies as st

from latlab import FamilySpec, Graph, Labeling, ValidationError, generate, verify

P3 = generate(FamilySpec("path", (3,)))
C3 = generate(FamilySpec("cycle", (3,)))


class TestTotalWeights:
    def test_p3_sequence(self):
        f = Labeling((1, 3, 2), (5, 4))
        report = verify(P3, f)
        assert report.profile.weights == (6, 12, 6)
        assert report.profile.distinct_count == 2
        assert report.valid

    def test_k1(self):
        prof = verify(Graph(1, ()), Labeling((1,), ())).profile
        assert prof.weights == (1,)
        assert prof.distinct_count == 1

    def test_p2(self):
        g = generate(FamilySpec("path", (2,)))
        prof = verify(g, Labeling((1, 3), (2,))).profile
        assert prof.weights == (3, 5)
        assert prof.distinct_count == 2

    def test_p2_exhaustive_all_valid(self):
        # every bijection on P2 is valid: weights differ by the vertex labels
        import itertools
        g = generate(FamilySpec("path", (2,)))
        for perm in itertools.permutations((1, 2, 3)):
            f = Labeling(perm[:2], perm[2:])
            assert verify(g, f).valid

    def test_bijection_error(self):
        report = verify(P3, Labeling((1, 1, 2), (5, 4)))
        assert 1 in report.duplicates
        assert 3 in report.gaps
        assert not report.bijection_ok and not report.valid

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            verify(P3, Labeling((1, 2), (3, 4)))
        with pytest.raises(ValidationError):
            verify(P3, Labeling(None, (1, 2, 3)))


class TestEdgeWeights:
    def test_c3(self):
        report = verify(C3, Labeling(None, (1, 3, 2)))
        assert report.profile.weights == (4, 3, 5)
        assert report.profile.distinct_count == 3
        assert report.valid

    def test_k2(self):
        g = generate(FamilySpec("complete", (2,)))
        report = verify(g, Labeling(None, (1,)))
        assert report.profile.weights == (1, 1)
        assert not report.valid

    def test_p3(self):
        prof = verify(P3, Labeling(None, (1, 2))).profile
        assert prof.weights == (1, 3, 2)
        assert prof.distinct_count == 3

    def test_isolated_vertex_weight_zero(self):
        g = generate(FamilySpec("k2_plus_empty", (1,)))
        prof = verify(g, Labeling(None, (1,))).profile
        assert prof.weights == (1, 1, 0)


class TestVerify:
    def test_valid_p3_sequence(self):
        report = verify(P3, Labeling((1, 3, 2), (5, 4)))
        assert report.valid
        assert report.profile.distinct_count == 2

    def test_invalid_p3(self):
        report = verify(P3, Labeling((5, 2, 4), (1, 3)))
        assert not report.valid
        assert report.violations == (0,)
        assert report.bijection_ok

    def test_empty_graph_total(self):
        g = Graph(2, ())
        report = verify(g, Labeling((1, 2), ()))
        assert report.valid
        assert report.profile.distinct_count == 2

    def test_non_bijective_is_reported_not_raised(self):
        report = verify(P3, Labeling((1, 1, 1), (1, 1)))
        assert not report.bijection_ok
        assert not report.valid

    def test_vertex_labels_are_never_dropped(self):
        # (1, 2) alone is a valid edge labeling of P3; with vertex labels the
        # universe is {1..5} and the labels (9, 9, 9, 1, 2) are no bijection
        report = verify(P3, Labeling((9, 9, 9), (1, 2)))
        assert 9 in report.duplicates and report.gaps == (3, 4, 5)
        assert not report.valid
        assert Labeling((9, 9, 9), (1, 2)).mode == "total"
        assert Labeling(None, (1, 2)).mode == "edge"

    def test_a_repeated_label_outside_the_range_is_listed_once(self):
        report = verify(P3, Labeling((9, 9, 1), (2, 3)))
        assert (report.duplicates, report.gaps) == ((9,), (4, 5))

    def test_verify_edge_examples(self):
        assert verify(C3, Labeling(None, (1, 3, 2))).valid
        k2 = generate(FamilySpec("complete", (2,)))
        report = verify(k2, Labeling(None, (1,)))
        assert not report.valid and report.violations == (0,)
        assert verify(P3, Labeling(None, (1, 2))).valid


def random_graph(rng, max_p=7):
    p = rng.randint(1, max_p)
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if rng.random() < 0.5]
    return Graph.from_edges(p, edges)


class TestWeightIdentities:
    def test_total_weight_sums(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng)
            labels = list(range(1, g.p + g.q + 1))
            rng.shuffle(labels)
            f = Labeling(tuple(labels[: g.p]), tuple(labels[g.p:]))
            prof = verify(g, f).profile
            assert sum(prof.weights) == sum(f.vertex_labels) + 2 * sum(f.edge_labels)

    def test_edge_weight_sums(self):
        rng = random.Random(8)
        for _ in range(300):
            g = random_graph(rng)
            labels = list(range(1, g.q + 1))
            rng.shuffle(labels)
            prof = verify(g, Labeling(None, tuple(labels))).profile
            assert sum(prof.weights) == g.q * (g.q + 1)

    def test_valid_total_is_proper_coloring(self):
        rng = random.Random(9)
        checked = 0
        while checked < 100:
            g = random_graph(rng, max_p=5)
            labels = list(range(1, g.p + g.q + 1))
            rng.shuffle(labels)
            f = Labeling(tuple(labels[: g.p]), tuple(labels[g.p:]))
            report = verify(g, f)
            if not report.valid:
                continue
            w = report.profile.weights
            assert all(w[u] != w[v] for u, v in g.edges)
            checked += 1


@given(st.permutations(list(range(1, 6))))
def test_verification_depends_only_on_values(perm):
    # relabeling slots and re-verifying is consistent with direct arithmetic
    f = Labeling(tuple(perm[:3]), tuple(perm[3:]))
    report = verify(P3, f)
    w = [perm[0] + perm[3], perm[1] + perm[3] + perm[4], perm[2] + perm[4]]
    assert list(report.profile.weights) == w
    assert report.valid == (w[0] != w[1] and w[1] != w[2])

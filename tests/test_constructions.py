import pytest

from latlab import (FamilySpec, Labeling, ParameterError, PreconditionError,
                    chi_lat_lower_bound, construct_k2_plus_empty,
                    construct_small_odd_path, disjoint_union, generate,
                    path_from_cycle, solve_min_distinct, verify)


class TestK2PlusEmpty:
    @pytest.mark.parametrize("n,weights,distinct", [
        (1, (4, 5, 4), 2),
        (2, (4, 5, 4, 5), 2),
        (3, (4, 5, 4, 5, 6), 3),
    ])
    def test_small_cases(self, n, weights, distinct):
        g, f = construct_k2_plus_empty(n)
        report = verify(g, f)
        assert report.valid
        assert report.profile.weights == weights
        assert report.profile.distinct_count == distinct

    @pytest.mark.parametrize("n", range(1, 8))
    def test_distinct_matches_known_value(self, n):
        g, f = construct_k2_plus_empty(n)
        report = verify(g, f)
        expected = 2 if n <= 2 else n
        assert report.profile.distinct_count == expected
        if n >= 3:
            assert chi_lat_lower_bound(g) == expected

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            construct_k2_plus_empty(0)


class TestSmallOddPath:
    @pytest.mark.parametrize("n,weights", [
        (3, (6, 12, 6)),
        (5, (10, 19, 10, 19, 10)),
        (7, (19, 20, 19, 20, 19, 20, 19)),
    ])
    def test_sequences(self, n, weights):
        g, f = construct_small_odd_path(n)
        report = verify(g, f)
        assert report.valid
        assert report.profile.weights == weights
        assert report.profile.distinct_count == 2

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_other_n_directed_to_solver(self, n):
        with pytest.raises(ParameterError, match="solver"):
            construct_small_odd_path(n)


def _c6_labeling_with_edge_one():
    """A valid 2-weight total labeling of C6 with an edge labeled 1."""
    c6 = generate(FamilySpec("cycle", (6,)))
    f = Labeling((2, 12, 7, 10, 9, 8), (3, 11, 5, 4, 6, 1))
    report = verify(c6, f)
    assert report.valid and report.profile.distinct_count == 2
    return c6, f


class TestPathFromCycle:
    def test_cut_c6(self):
        c6, f = _c6_labeling_with_edge_one()
        doomed = f.edge_labels.index(1)
        path, out = path_from_cycle(c6, f, doomed)
        report = verify(path, out)
        assert report.valid
        assert report.profile.distinct_count == 2
        assert sorted(out.vertex_labels + out.edge_labels) == list(range(1, 12))

    def test_uniform_minus_three_shift(self):
        c6, f = _c6_labeling_with_edge_one()
        doomed = f.edge_labels.index(1)
        old = verify(c6, f).profile.weights
        a, b = c6.edges[doomed]
        path, out = path_from_cycle(c6, f, doomed)
        new = verify(path, out).profile.weights
        # walk order starts at the higher endpoint of the doomed edge
        walk = [b]
        prev = a
        while len(walk) < 6:
            nxt = next(u for u in c6.neighbors(walk[-1]) if u != prev)
            prev = walk[-1]
            walk.append(nxt)
        assert all(new[i] == old[walk[i]] - 3 for i in range(6))

    def test_wrong_doomed_label_rejected(self):
        c6, f = _c6_labeling_with_edge_one()
        other = next(e for e, lab in enumerate(f.edge_labels) if lab != 1)
        with pytest.raises(PreconditionError, match="labeled 1"):
            path_from_cycle(c6, f, other)

    def test_invalid_labeling_rejected(self):
        c6 = generate(FamilySpec("cycle", (6,)))
        # weights of vertices 0 and 1 collide (both 18)
        f = Labeling((1, 2, 3, 4, 5, 6), (9, 8, 7, 10, 11, 12))
        assert not verify(c6, f).valid
        with pytest.raises(PreconditionError):
            path_from_cycle(c6, f, 0)

    def test_edge_labeling_rejected(self):
        c6 = generate(FamilySpec("cycle", (6,)))
        lab = Labeling(None, (1, 2, 3, 4, 5, 6))
        with pytest.raises(PreconditionError, match="takes a total labeling"):
            path_from_cycle(c6, lab, 0)

    def test_non_cycle_rejected(self):
        p4 = generate(FamilySpec("path", (4,)))
        f = Labeling((1, 2, 3, 4), (5, 6, 7))
        with pytest.raises(PreconditionError, match="cycle"):
            path_from_cycle(p4, f, 0)
        # two triangles: 2-regular, with a valid labeling and a doomed edge labeled 1
        c3 = generate(FamilySpec("cycle", (3,)))
        two_c3 = disjoint_union(c3, c3)
        f = Labeling((10, 2, 8, 12, 5, 4), (1, 9, 6, 3, 11, 7))
        assert verify(two_c3, f).valid
        with pytest.raises(PreconditionError, match="not a cycle"):
            path_from_cycle(two_c3, f, 0)

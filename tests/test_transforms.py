import pytest

from latlab import (FamilySpec, Graph, Labeling, PreconditionError, StructureError,
                    cone_to_total, double_cone_collapse, generate, iter_valid_labelings,
                    join, total_to_cone, verify)
from oracle import brute_force_min_distinct


def fam(kind, *params):
    return generate(FamilySpec(kind, params))


def relabel(g, lab, perm):
    """The same labeled graph with vertex v renamed perm[v]."""
    by_edge = sorted((tuple(sorted((perm[u], perm[v]))), x)
                     for (u, v), x in zip(g.edges, lab.edge_labels))
    vertex_labels = None
    if lab.vertex_labels is not None:
        vertex_labels = tuple(x for _, x in sorted(zip(perm, lab.vertex_labels)))
    return (Graph.from_edges(g.p, [e for e, _ in by_edge]),
            Labeling(vertex_labels, tuple(x for _, x in by_edge)))


class TestConeToTotal:
    def test_triangle_to_p2(self):
        c3 = fam("cycle", 3)
        # apex 0: edges (0,1)=1, (0,2)=3, (1,2)=2
        base, f = cone_to_total(c3, Labeling(None, (1, 3, 2)), apex=0)
        assert base == fam("path", 2)
        assert f == Labeling((1, 3), (2,))
        assert verify(base, f).profile.weights == (3, 5)

    def test_k4_solver_found(self):
        k4 = fam("complete", 4)
        res = brute_force_min_distinct(k4, "edge")
        assert res.status == "exact"
        base, f = cone_to_total(k4, res.certificate, apex=3)
        report = verify(base, f)
        assert report.valid
        assert report.profile.distinct_count == 3

    def test_weight_transfer_exact(self):
        k4 = fam("complete", 4)
        for g in iter_valid_labelings(k4, "edge", 25):
            old = verify(k4, g).profile.weights
            base, f = cone_to_total(k4, g, apex=3)
            assert verify(base, f).profile.weights == old[:3]

    def test_non_universal_apex(self):
        p4 = fam("path", 4)
        with pytest.raises(StructureError):
            cone_to_total(p4, Labeling(None, (1, 2, 3)), apex=0)

    def test_invalid_labeling_rejected(self):
        k2 = fam("complete", 2)
        with pytest.raises(PreconditionError):
            cone_to_total(k2, Labeling(None, (1,)), apex=1)

    def test_apex_not_last(self):
        # the apex of K1 ∨ P3 renamed 1, the path keeping its order: the
        # transfer must read the same labels as with the apex last
        cone = join(fam("path", 3), Graph(1, ()))
        perm = (0, 2, 3, 1)
        done = 0
        for g in iter_valid_labelings(cone, "edge", 30):
            moved, h = relabel(cone, g, perm)
            assert moved.degree(1) == 3
            assert cone_to_total(moved, h, apex=1) == cone_to_total(cone, g, apex=3)
            done += 1
        assert done == 30

    def test_label_set_accounting(self):
        k4 = fam("complete", 4)
        g = iter_valid_labelings(k4, "edge", 1)[0]
        base, f = cone_to_total(k4, g, apex=3)
        assert sorted(f.vertex_labels + f.edge_labels) == list(range(1, base.p + base.q + 1))


class TestTotalToCone:
    def test_p2_to_triangle(self):
        p2 = fam("path", 2)
        cone, g = total_to_cone(p2, Labeling((1, 3), (2,)))
        assert cone == fam("cycle", 3)
        prof = verify(cone, g).profile
        assert prof.weights == (3, 5, 4)  # apex (last) induced value is the label sum
        assert prof.distinct_count == 3

    def test_p3_sequence_rejected(self):
        p3 = fam("path", 3)
        with pytest.raises(PreconditionError, match="vertex 0"):
            total_to_cone(p3, Labeling((1, 3, 2), (5, 4)))

    def test_o2_star(self):
        o2 = fam("empty", 2)
        cone, g = total_to_cone(o2, Labeling((1, 2), ()))
        prof = verify(cone, g).profile
        assert prof.weights == (1, 2, 3)
        assert prof.distinct_count == 3

    def test_round_trip_preserves_base_weights(self):
        p2 = fam("path", 2)
        f0 = Labeling((1, 3), (2,))
        cone, g = total_to_cone(p2, f0)
        base, f1 = cone_to_total(cone, g, apex=2)
        assert verify(base, f1).profile.weights == verify(p2, f0).profile.weights

    @pytest.mark.parametrize("g", [fam("path", 3), fam("path", 4), fam("cycle", 4),
                                   Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])],
                             ids=["P3", "P4", "C4", "K1,3"])
    def test_round_trip_gives_back_graph_and_labeling(self, g):
        done = 0
        for f in iter_valid_labelings(g, "total", 40):
            if sum(f.vertex_labels) in verify(g, f).profile.weights:
                continue  # the apex weight would collide: no cone
            assert cone_to_total(*total_to_cone(g, f), apex=g.p) == (g, f)
            done += 1
        assert done >= 10


class TestDoubleConeCollapse:
    DC = join(generate(FamilySpec("path", (2,))), Graph(2, ()))

    def test_p2_example(self):
        # edges of DC: (0,1)=bc, (0,2),(1,2) to apex 2, (0,3),(1,3) to apex 3
        g = Labeling(None, (5, 1, 2, 3, 4))
        assert verify(self.DC, g).profile.weights == (8, 12, 4, 6)
        out, f = double_cone_collapse(self.DC, g, (2, 3))
        assert out == generate(FamilySpec("complete", (3,)))
        prof = verify(out, f).profile
        assert prof.weights == (8, 12, 10)
        assert f.vertex_labels[2] == 6  # kept apex gets 2p+q+1
        assert sorted(f.vertex_labels + f.edge_labels) == list(range(1, 7))

    def test_collision_rejected(self):
        g = Labeling(None, (5, 1, 3, 2, 4))  # kept-apex weight 9 = weight of vertex 0
        with pytest.raises(PreconditionError, match="vertex 0"):
            double_cone_collapse(self.DC, g, (2, 3))

    def test_adjacent_apexes_rejected(self):
        k4 = fam("complete", 4)
        with pytest.raises(StructureError, match="non-adjacent"):
            double_cone_collapse(k4, Labeling(None, (1, 2, 3, 4, 5, 6)), (2, 3))

    def test_c4_samples_become_wheel(self):
        dc = fam("cycle_join_empty", 4, 2)
        w4 = fam("wheel", 4)
        top = 2 * 4 + 4 + 1
        done = 0
        for g in iter_valid_labelings(dc, "edge", 40):
            w = verify(dc, g).profile.weights
            if any(top + w[4] == w[i] for i in range(4)):
                continue
            out, f = double_cone_collapse(dc, g, (4, 5))
            assert out == w4
            report = verify(out, f)
            assert report.valid
            assert report.profile.weights[:4] == w[:4]
            assert sorted(f.vertex_labels + f.edge_labels) == list(range(1, 14))
            done += 1
        assert done >= 20


    @pytest.mark.parametrize("apexes", [(4, 5), (5, 4)])
    def test_apexes_in_the_middle(self, apexes):
        # C4 ∨ O2 with the apexes renamed 1 and 3 and the cycle keeping its
        # order: each order of the pair transfers as with the apexes last
        dc = fam("cycle_join_empty", 4, 2)
        perm = (0, 2, 4, 5, 1, 3)
        done = 0
        for g in iter_valid_labelings(dc, "edge", 40):
            moved, h = relabel(dc, g, perm)
            try:
                expected = double_cone_collapse(dc, g, apexes)
            except PreconditionError:
                with pytest.raises(PreconditionError, match="kept-apex weight"):
                    double_cone_collapse(moved, h, (perm[apexes[0]], perm[apexes[1]]))
                continue
            assert double_cone_collapse(moved, h, (perm[apexes[0]], perm[apexes[1]])) == expected
            done += 1
        assert done >= 20


def test_wrong_mode_rejected():
    # each labeling below is valid in its own mode, so only the mode check
    # stands between it and a transfer that would misread its labels
    c3, p2 = fam("cycle", 3), fam("path", 2)
    total_c3 = iter_valid_labelings(c3, "total", 1)[0]
    with pytest.raises(PreconditionError, match="takes an edge labeling"):
        cone_to_total(c3, total_c3, apex=0)
    with pytest.raises(PreconditionError, match="takes a total labeling"):
        total_to_cone(p2, Labeling(None, (1,)))
    dc = TestDoubleConeCollapse.DC
    total_dc = iter_valid_labelings(dc, "total", 1)[0]
    assert verify(dc, total_dc).valid
    with pytest.raises(PreconditionError, match="takes an edge labeling"):
        double_cone_collapse(dc, total_dc, (2, 3))

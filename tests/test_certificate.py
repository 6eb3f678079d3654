import json
import random

import pytest

from latlab import (CertificateError, FamilySpec, Graph, IntegrityError, Labeling,
                    ParseError, export_dot, generate, make_certificate,
                    read_certificate, write_certificate)
from latlab.certificate import certificate_to_dict


def p3_paper_cert():
    g = generate(FamilySpec("path", (3,)))
    return make_certificate(g, Labeling((1, 3, 2), (5, 4)),
                            "construction:odd-path-sequence")


class TestRoundTrip:
    def test_p3_document_fields(self):
        doc = certificate_to_dict(p3_paper_cert())
        assert doc["vertex_labels"] == [1, 3, 2]
        assert doc["edge_labels"] == [5, 4]
        assert doc["weights"] == [6, 12, 6]
        assert doc["distinct"] == 2
        assert doc["mode"] == "total"
        assert doc["provenance"]["producer"] == "construction:odd-path-sequence"

    def test_read_write_identity(self):
        cert = p3_paper_cert()
        assert read_certificate(write_certificate(cert)) == cert

    def test_edge_mode_round_trip(self):
        c3 = generate(FamilySpec("cycle", (3,)))
        cert = make_certificate(c3, Labeling(None, (1, 3, 2)), "solver:branch-and-bound")
        back = read_certificate(write_certificate(cert))
        assert back == cert
        assert back.labeling.vertex_labels is None

    @pytest.mark.parametrize("kind", ["total", "edge"])
    def test_format_is_stable(self, kind):
        # documents as the format has always written them, key for key
        if kind == "total":
            g = generate(FamilySpec("path", (3,)))
            lab = Labeling((1, 3, 2), (5, 4))
            doc = {"distinct": 2, "edge_labels": [5, 4], "format": "latlab-certificate/1",
                   "graph": {"edges": [[0, 1], [1, 2]], "p": 3}, "mode": "total",
                   "provenance": {"producer": "test", "tool": "latlab 0.1.0"},
                   "vertex_labels": [1, 3, 2], "weights": [6, 12, 6]}
        else:
            g = generate(FamilySpec("cycle", (3,)))
            lab = Labeling(None, (1, 3, 2))
            doc = {"distinct": 3, "edge_labels": [1, 3, 2], "format": "latlab-certificate/1",
                   "graph": {"edges": [[0, 1], [0, 2], [1, 2]], "p": 3}, "mode": "edge",
                   "provenance": {"producer": "test", "tool": "latlab 0.1.0"},
                   "weights": [4, 3, 5]}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        cert = make_certificate(g, lab, "test")
        assert write_certificate(cert) == text
        assert read_certificate(text) == cert

    def test_unknown_fields_preserved(self):
        doc = certificate_to_dict(p3_paper_cert())
        doc["x-reviewer-note"] = {"seen": True}
        cert = read_certificate(json.dumps(doc))
        assert cert.extra == {"x-reviewer-note": {"seen": True}}
        rewritten = json.loads(write_certificate(cert))
        assert rewritten["x-reviewer-note"] == {"seen": True}

    def test_random_round_trip(self):
        rng = random.Random(42)
        for _ in range(50):
            p = rng.randint(1, 6)
            edges = [(i, j) for i in range(p) for j in range(i + 1, p)
                     if rng.random() < 0.5]
            g = Graph.from_edges(p, edges)
            labels = list(range(1, g.p + g.q + 1))
            rng.shuffle(labels)
            f = Labeling(tuple(labels[: g.p]), tuple(labels[g.p:]))
            cert = make_certificate(g, f, "test:random")
            assert read_certificate(write_certificate(cert)) == cert


class TestRejection:
    def test_duplicated_label_is_integrity_error(self):
        doc = certificate_to_dict(p3_paper_cert())
        doc["vertex_labels"] = [1, 3, 3]
        doc["edge_labels"] = [5, 4]
        with pytest.raises(IntegrityError, match="bijection"):
            read_certificate(json.dumps(doc))

    def test_tampered_weights(self):
        doc = certificate_to_dict(p3_paper_cert())
        doc["weights"] = [6, 11, 6]
        with pytest.raises(IntegrityError, match="weights"):
            read_certificate(json.dumps(doc))

    def test_tampered_distinct(self):
        doc = certificate_to_dict(p3_paper_cert())
        doc["distinct"] = 1
        with pytest.raises(IntegrityError, match="distinct"):
            read_certificate(json.dumps(doc))

    def test_schema_violation_carries_path(self):
        doc = certificate_to_dict(p3_paper_cert())
        doc["mode"] = "half"
        with pytest.raises(CertificateError) as exc:
            read_certificate(json.dumps(doc))
        assert exc.value.path is not None

    def test_not_json(self):
        with pytest.raises(ParseError):
            read_certificate("{broken")

    def test_missing_vertex_labels_in_total_mode(self):
        doc = certificate_to_dict(p3_paper_cert())
        del doc["vertex_labels"]
        with pytest.raises(CertificateError):
            read_certificate(json.dumps(doc))


class TestDot:
    def test_total_annotations(self):
        g = generate(FamilySpec("path", (2,)))
        cert = make_certificate(g, Labeling((1, 3), (2,)), "test")
        dot = export_dot(cert)
        assert 'v0 [label="1/3"]' in dot
        assert 'v1 [label="3/5"]' in dot
        assert 'v0 -- v1 [label="2"]' in dot

    def test_empty_graph_nodes(self):
        g = Graph(2, ())
        cert = make_certificate(g, Labeling((1, 2), ()), "test")
        dot = export_dot(cert)
        assert dot.count("--") == 0
        assert 'v0 [label="1/1"]' in dot

    def test_edge_mode_shows_induced_only(self):
        c3 = generate(FamilySpec("cycle", (3,)))
        cert = make_certificate(c3, Labeling(None, (1, 3, 2)), "test")
        dot = export_dot(cert)
        assert 'v0 [label="4"]' in dot
        assert "/" not in dot

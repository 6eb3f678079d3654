import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import latlab

from latlab import (Certificate, CertificateError, FamilySpec, Graph, IntegrityError,
                    Labeling, ParseError, export_dot, generate, make_certificate,
                    read_certificate, write_certificate)
from latlab.certificate import certificate_to_dict


def p3_paper_cert():
    g = generate(FamilySpec("path", (3,)))
    return make_certificate(g, Labeling((1, 3, 2), (5, 4)),
                            "construction:odd-path-sequence")


def c3_edge_doc():
    c3 = generate(FamilySpec("cycle", (3,)))
    return certificate_to_dict(make_certificate(c3, Labeling(None, (1, 3, 2)), "test"))


def _set(*keys_and_value):
    """A mutation that sets doc[k1][k2]... to the last argument."""
    *keys, value = keys_and_value

    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return mutate


# one structural violation per row, on the P3 total certificate unless the
# row starts from the C3 edge certificate.  Each path is the one jsonschema
# reported when it checked certificates, except for the integral floats
# (6.0, 2.0), which it let through.
MALFORMED = [
    ("missing-field", None, lambda doc: doc.pop("weights"), "$"),
    ("missing-graph-p", None, lambda doc: doc["graph"].pop("p"), "$.graph"),
    ("unknown-mode", None, _set("mode", "half"), "$.mode"),
    ("wrong-format", None, _set("format", "latlab-certificate/2"), "$.format"),
    ("true-label", None, _set("edge_labels", 1, True), "$.edge_labels[1]"),
    ("float-weight", None, _set("weights", 0, 6.0), "$.weights[0]"),
    ("float-distinct", None, _set("distinct", 2.0), "$.distinct"),
    ("zero-label", None, _set("vertex_labels", 0, 0), "$.vertex_labels[0]"),
    ("negative-weight", None, _set("weights", 2, -1), "$.weights[2]"),
    ("negative-p", None, _set("graph", "p", -1), "$.graph.p"),
    ("three-element-edge", None, _set("graph", "edges", 0, [0, 1, 2]), "$.graph.edges[0]"),
    ("string-endpoint", None, _set("graph", "edges", 1, [1, "2"]), "$.graph.edges[1][1]"),
    ("non-object-provenance", None, _set("provenance", "me"), "$.provenance"),
    ("non-string-citation", None, _set("citation", 7), "$.citation"),
    ("short-edge-labels", None, _set("edge_labels", [5]), "$.edge_labels"),
    ("edge-mode-vertex-labels", "edge", _set("vertex_labels", "x"), "$.vertex_labels"),
    ("edge-mode-null-vertex-labels", "edge", _set("vertex_labels", None), "$.vertex_labels"),
]


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

    def test_edge_labels_follow_their_edges(self):
        # a correct document need not list its edges in canonical order;
        # each label belongs to the edge at its own position
        doc = certificate_to_dict(p3_paper_cert())
        doc["graph"]["edges"] = [[1, 2], [0, 1]]
        doc["edge_labels"] = [4, 5]
        cert = read_certificate(json.dumps(doc))
        assert cert.weights == (6, 12, 6)
        assert cert.labeling == Labeling((1, 3, 2), (5, 4))
        assert write_certificate(cert) == write_certificate(p3_paper_cert())

    def test_unknown_fields_preserved(self):
        doc = certificate_to_dict(p3_paper_cert())
        doc["x-reviewer-note"] = {"seen": True}
        cert = read_certificate(json.dumps(doc))
        assert cert.extra == {"x-reviewer-note": {"seen": True}}
        rewritten = json.loads(write_certificate(cert))
        assert rewritten["x-reviewer-note"] == {"seen": True}

    def test_provenance_and_extra_default_to_empty(self):
        made = p3_paper_cert()
        cert = Certificate(made.graph, made.labeling, made.weights, made.distinct)
        assert (cert.provenance, cert.citation, cert.extra) == ({}, None, {})
        assert json.loads(write_certificate(cert))["provenance"] == {}

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

    def test_each_bad_label_is_named_once(self):
        # 9 is both repeated and outside {1..5}
        doc = certificate_to_dict(p3_paper_cert())
        doc["vertex_labels"] = [9, 9, 1]
        doc["edge_labels"] = [2, 3]
        with pytest.raises(IntegrityError, match=r"duplicates=\[9\], gaps=\[4, 5\]"):
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

    @pytest.mark.parametrize("start,mutate,path", [row[1:] for row in MALFORMED],
                             ids=[row[0] for row in MALFORMED])
    def test_malformed_field_carries_path(self, start, mutate, path):
        doc = c3_edge_doc() if start == "edge" else certificate_to_dict(p3_paper_cert())
        mutate(doc)
        with pytest.raises(CertificateError) as exc:
            read_certificate(json.dumps(doc))
        assert not isinstance(exc.value, IntegrityError)
        assert exc.value.path == path

    @pytest.mark.parametrize("doc", [[], "certificate", None], ids=["array", "string", "null"])
    def test_non_object_document(self, doc):
        with pytest.raises(CertificateError) as exc:
            read_certificate(json.dumps(doc))
        assert exc.value.path == "$"

    def test_huge_order_rejected_before_the_graph_is_built(self, monkeypatch):
        # a graph of 10**12 vertices would exhaust memory; the stub proves
        # the length check rejects the document first
        def refuse(p, edges):
            raise AssertionError(f"graph of order {p} built")

        doc = certificate_to_dict(p3_paper_cert())
        doc["graph"]["p"] = 10**12
        monkeypatch.setattr(latlab.certificate.Graph, "from_edges", refuse)
        with pytest.raises(CertificateError) as exc:
            read_certificate(json.dumps(doc))
        assert exc.value.path == "$.vertex_labels"

    def test_edge_mode_vertex_labels_checked_then_dropped(self):
        doc = c3_edge_doc()
        doc["vertex_labels"] = [7, 8]
        cert = read_certificate(json.dumps(doc))
        assert cert.labeling.vertex_labels is None
        assert "vertex_labels" not in json.loads(write_certificate(cert))

    def test_not_json(self):
        with pytest.raises(ParseError):
            read_certificate("{broken")

    def test_missing_vertex_labels_in_total_mode(self):
        doc = certificate_to_dict(p3_paper_cert())
        del doc["vertex_labels"]
        with pytest.raises(CertificateError):
            read_certificate(json.dumps(doc))


def test_import_does_not_load_jsonschema():
    # the reader is hand-written; a fresh interpreter shows what importing pulls in
    code = "import sys, latlab.cli; print('jsonschema' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(latlab.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

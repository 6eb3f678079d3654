"""Self-contained labeling certificates: JSON schema, round-trip, DOT export.

A certificate embeds the graph, the labels, the induced weights, and the
distinct-weight count, so any third party can recompute and confirm the
claim without this tool.  Unknown top-level fields survive a rewrite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import jsonschema

from . import __version__
from .errors import CertificateError, IntegrityError, ParseError
from .graph import Graph
from .labeling import Labeling, verify

FORMAT_TAG = "latlab-certificate/1"

_KNOWN_FIELDS = {"format", "graph", "mode", "vertex_labels", "edge_labels",
                 "weights", "distinct", "provenance", "citation"}

SCHEMA = {
    "type": "object",
    "required": ["format", "graph", "mode", "edge_labels", "weights", "distinct", "provenance"],
    "properties": {
        "format": {"const": FORMAT_TAG},
        "graph": {
            "type": "object",
            "required": ["p", "edges"],
            "properties": {
                "p": {"type": "integer", "minimum": 0},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "mode": {"enum": ["total", "edge"]},
        "vertex_labels": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "edge_labels": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "weights": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "distinct": {"type": "integer", "minimum": 0},
        "provenance": {"type": "object"},
        "citation": {"type": "string"},
    },
}


@dataclass(frozen=True)
class Certificate:
    graph: Graph
    labeling: Labeling
    weights: Tuple[int, ...]
    distinct: int
    provenance: dict = field(default_factory=dict)
    citation: Optional[str] = None
    extra: dict = field(default_factory=dict)


def make_certificate(g: Graph, labeling: Labeling, producer: str,
                     citation: Optional[str] = None,
                     provenance_extra: Optional[dict] = None) -> Certificate:
    """Build a certificate from a labeling; weights are recomputed here."""
    provenance = {"producer": producer, "tool": f"latlab {__version__}"}
    if provenance_extra:
        provenance.update(provenance_extra)
    report = verify(g, labeling)
    return Certificate(g, labeling, report.profile.weights,
                       report.profile.distinct_count, provenance, citation)


def certificate_to_dict(cert: Certificate) -> dict:
    doc = dict(cert.extra)
    doc["format"] = FORMAT_TAG
    doc["graph"] = {"p": cert.graph.p, "edges": [list(e) for e in cert.graph.edges]}
    doc["mode"] = cert.labeling.mode
    if cert.labeling.vertex_labels is not None:
        doc["vertex_labels"] = list(cert.labeling.vertex_labels)
    doc["edge_labels"] = list(cert.labeling.edge_labels)
    doc["weights"] = list(cert.weights)
    doc["distinct"] = cert.distinct
    doc["provenance"] = cert.provenance
    if cert.citation is not None:
        doc["citation"] = cert.citation
    return doc


def write_certificate(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"


def certificate_from_dict(doc: dict) -> Certificate:
    try:
        jsonschema.validate(doc, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise CertificateError(exc.message, path=exc.json_path) from exc

    try:
        graph = Graph.from_edges(doc["graph"]["p"], [tuple(e) for e in doc["graph"]["edges"]])
    except Exception as exc:
        raise CertificateError(f"bad embedded graph: {exc}", path="$.graph") from exc

    mode = doc["mode"]
    edge_labels = tuple(doc["edge_labels"])
    vertex_labels = None
    if mode == "total":
        if "vertex_labels" not in doc:
            raise CertificateError("total-mode certificate lacks vertex_labels",
                                   path="$.vertex_labels")
        vertex_labels = tuple(doc["vertex_labels"])
        if len(vertex_labels) != graph.p:
            raise CertificateError(
                f"{len(vertex_labels)} vertex labels for p={graph.p}", path="$.vertex_labels")
    if len(edge_labels) != graph.q:
        raise CertificateError(
            f"{len(edge_labels)} edge labels for q={graph.q}", path="$.edge_labels")
    if len(doc["weights"]) != graph.p:
        raise CertificateError(
            f"{len(doc['weights'])} weights for p={graph.p}", path="$.weights")

    cert = Certificate(
        graph, Labeling(vertex_labels, edge_labels), tuple(doc["weights"]),
        doc["distinct"], dict(doc["provenance"]), doc.get("citation"),
        {k: v for k, v in doc.items() if k not in _KNOWN_FIELDS})

    # re-verification: the document must reproduce its own claims
    report = verify(graph, cert.labeling)
    if not report.bijection_ok:
        raise IntegrityError(
            f"labels are not a bijection onto [1,{len(cert.labeling.labels)}] "
            f"(duplicates={list(report.duplicates)}, gaps={list(report.gaps)})")
    if report.profile.weights != cert.weights:
        raise IntegrityError("stored weights do not match recomputed weights")
    if report.profile.distinct_count != cert.distinct:
        raise IntegrityError(
            f"stored distinct count {cert.distinct} != recomputed "
            f"{report.profile.distinct_count}")
    return cert


def read_certificate(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"certificate is not valid JSON: {exc.msg}", exc.pos) from exc
    if not isinstance(doc, dict):
        raise CertificateError("certificate document must be a JSON object")
    return certificate_from_dict(doc)


def export_dot(cert: Certificate) -> str:
    """DOT rendering: vertices annotated label/weight (total) or induced
    value (edge); deterministic node order."""
    vertex_labels = cert.labeling.vertex_labels
    lines = ["graph latlab {"]
    for v in range(cert.graph.p):
        if vertex_labels is not None:
            ann = f"{vertex_labels[v]}/{cert.weights[v]}"
        else:
            ann = f"{cert.weights[v]}"
        lines.append(f'  v{v} [label="{ann}"];')
    for e, (u, v) in enumerate(cert.graph.edges):
        lines.append(f'  v{u} -- v{v} [label="{cert.labeling.edge_labels[e]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

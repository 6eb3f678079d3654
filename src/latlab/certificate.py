"""Self-contained labeling certificates: reading, writing, DOT export.

A certificate embeds the graph, the labels, the induced weights, and the
distinct-weight count, so any third party can recompute and confirm the
claim without this tool.  Reading checks every field (an error names its
JSON path) and re-verifies.  Unknown top-level fields survive a rewrite.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Tuple

from . import __version__
from .errors import CertificateError, IntegrityError, ParseError, ValidationError
from .graph import Graph
from .labeling import Labeling, verify

FORMAT_TAG = "latlab-certificate/1"

_KNOWN_FIELDS = {"format", "graph", "mode", "vertex_labels", "edge_labels",
                 "weights", "distinct", "provenance", "citation"}


class Certificate(NamedTuple):
    graph: Graph
    labeling: Labeling
    weights: Tuple[int, ...]
    distinct: int
    provenance: Mapping = MappingProxyType({})  # read-only, so a shared default is safe
    citation: Optional[str] = None
    extra: Mapping = MappingProxyType({})


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
    doc["provenance"] = dict(cert.provenance)
    if cert.citation is not None:
        doc["citation"] = cert.citation
    return doc


def write_certificate(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"


def _field(obj, key, kind: type, path: str, minimum: int = 0):
    """obj[key], a `kind` (a bool is no int) of at least `minimum`; obj is at JSON `path`."""
    if isinstance(obj, dict) and key not in obj:
        raise CertificateError(f"{key!r} is a required property", path=path)
    value = obj[key]
    path += f".{key}" if isinstance(obj, dict) else f"[{key}]"
    if isinstance(value, bool) or not isinstance(value, kind):
        raise CertificateError(f"{value!r} is not of type {kind.__name__!r}", path=path)
    if kind is int and value < minimum:
        raise CertificateError(f"{value} is less than the minimum of {minimum}", path=path)
    return value


def _int_list(obj, key, path: str, minimum: int, length=None) -> Tuple[int, ...]:
    """obj[key] as a tuple of ints >= `minimum`, of `length` items if given."""
    values = _field(obj, key, list, path)
    path += f".{key}" if isinstance(obj, dict) else f"[{key}]"
    items = tuple(_field(values, i, int, path, minimum) for i in range(len(values)))
    if length is not None and len(items) != length:
        raise CertificateError(f"{len(items)} items where {length} are expected", path=path)
    return items


def certificate_from_dict(doc: dict) -> Certificate:
    """Check a decoded document field by field, then re-verify its claims."""
    if not isinstance(doc, dict):
        raise CertificateError("certificate document must be a JSON object", path="$")
    if _field(doc, "format", str, "$") != FORMAT_TAG:
        raise CertificateError(f"{FORMAT_TAG!r} was expected", path="$.format")
    mode = _field(doc, "mode", str, "$")
    if mode not in ("total", "edge"):
        raise CertificateError(f"{mode!r} is not one of ['total', 'edge']", path="$.mode")
    graph_doc = _field(doc, "graph", dict, "$")
    p = _field(graph_doc, "p", int, "$.graph")
    edges = _field(graph_doc, "edges", list, "$.graph")
    edges = [_int_list(edges, i, "$.graph.edges", 0, 2) for i in range(len(edges))]
    # lengths are checked before the graph is built, so the document bounds p
    if mode == "total" and "vertex_labels" not in doc:
        raise CertificateError("vertex_labels missing in total mode", path="$.vertex_labels")
    vertex_labels = _int_list(doc, "vertex_labels", "$", 1, p) if mode == "total" else None
    if mode == "edge" and "vertex_labels" in doc:  # checked, then dropped
        _int_list(doc, "vertex_labels", "$", 1)
    edge_labels = _int_list(doc, "edge_labels", "$", 1, len(edges))
    weights = _int_list(doc, "weights", "$", 0, p)
    distinct = _field(doc, "distinct", int, "$")
    provenance = dict(_field(doc, "provenance", dict, "$"))
    citation = _field(doc, "citation", str, "$") if "citation" in doc else None
    # each label travels with its edge into the graph's canonical edge order
    order = sorted(range(len(edges)), key=lambda i: sorted(edges[i]))
    try:
        graph = Graph.from_edges(p, [edges[i] for i in order])
    except ValidationError as exc:
        raise CertificateError(f"bad embedded graph: {exc}", path="$.graph") from exc
    edge_labels = tuple(edge_labels[i] for i in order)

    cert = Certificate(graph, Labeling(vertex_labels, edge_labels), weights, distinct,
                       provenance, citation,
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

"""Independent output checker: the benchmark's own arithmetic, not latlab's.

Every witness is re-checked from its raw label vectors: the labels must be a
bijection onto {1, ..., n}, adjacent vertices must get different weights,
and the distinct-weight count must match the claim.  Every definite verdict
is compared with a reference (a theorem value or the brute-force table in
``graphs.json``) and with the chromatic lower bound.  A failed check raises
``CheckFailure``; the caller counts the operation as failed.
"""

from __future__ import annotations

from graphs import chromatic_number, has_isolated_edge

FORMAT_TAG = "latlab-certificate/1"
DEFINITE = ("exact", "found", "none", "infeasible")


class CheckFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailure(message)


def weights(p, edges, vertex_labels, edge_labels):
    w = list(vertex_labels) if vertex_labels is not None else [0] * p
    for (u, v), label in zip(edges, edge_labels):
        w[u] += label
        w[v] += label
    return tuple(w)


def check_labeling(p, edges, vertex_labels, edge_labels):
    """Weights of a valid local antimagic labeling; raises otherwise."""
    expect(len(edge_labels) == len(edges), "edge label count != edge count")
    labels = list(edge_labels)
    if vertex_labels is not None:
        expect(len(vertex_labels) == p, "vertex label count != vertex count")
        labels += list(vertex_labels)
    expect(sorted(labels) == list(range(1, len(labels) + 1)),
           f"labels are not a bijection onto [1,{len(labels)}]")
    w = weights(p, edges, vertex_labels, edge_labels)
    clashes = [(u, v) for u, v in edges if w[u] == w[v]]
    expect(not clashes, f"adjacent vertices share a weight on edges {clashes}")
    return w


def check_certificate_doc(doc):
    """Re-derive a certificate's claims; returns (p, edges, mode, weights)."""
    expect(isinstance(doc, dict) and doc.get("format") == FORMAT_TAG,
           "not a latlab certificate")
    p = doc["graph"]["p"]
    edges = sorted((min(u, v), max(u, v)) for u, v in doc["graph"]["edges"])
    mode = doc["mode"]
    vertex_labels = doc.get("vertex_labels") if mode == "total" else None
    expect(mode == "edge" or vertex_labels is not None, "total mode without vertex labels")
    w = check_labeling(p, edges, vertex_labels, doc["edge_labels"])
    expect(list(w) == list(doc["weights"]), "stored weights differ from recomputed")
    expect(len(set(w)) == doc["distinct"], "stored distinct count differs from recomputed")
    return p, edges, mode, w


def lower_bound(p, edges, mode):
    """chi_lat >= max(chromatic number, isolated vertices); chi_la >= chromatic."""
    chi = chromatic_number(p, edges)
    if mode == "edge":
        return chi
    isolated = p - len({v for e in edges for v in e})
    return max(chi, isolated)


def check_min_distinct(case, status, value=None, lower=None, upper=None, witness=None):
    """Check one minimum-distinct verdict.  ``case`` carries p, edges, mode and
    the reference ``ref`` (an int, "infeasible", or None when unknown);
    ``witness`` is the witness's distinct count when one was emitted."""
    p, edges, mode, ref = case["p"], case["edges"], case["mode"], case["ref"]
    if status == "infeasible":
        expect(mode == "edge" and has_isolated_edge(p, edges),
               "infeasible claimed for a graph with a labeling")
        return
    expect(ref != "infeasible", f"{status} claimed for an infeasible instance")
    lb = lower_bound(p, edges, mode)
    if status == "exact":
        expect(witness is None or witness == value, "witness does not attain the value")
        expect(value >= lb, f"exact {value} below lower bound {lb}")
        expect(ref is None or value == ref, f"exact {value} != reference {ref}")
    elif status == "lower_upper":
        expect(lower <= upper, "lower > upper")
        expect(witness is None or witness == upper, "witness does not attain the upper bound")
        expect(upper >= lb, f"upper {upper} below lower bound {lb}")
        expect(ref is None or lower <= ref <= upper, f"reference {ref} outside [{lower},{upper}]")
    elif status == "exhausted":
        expect(ref is None or lower is None or lower <= ref, f"lower {lower} above reference {ref}")
    else:
        raise CheckFailure(f"unknown status {status!r}")


def gap(p, status, lower, upper):
    """upper - lower of a verdict: 0 when decided, p bounds an open upper."""
    if status in DEFINITE:
        return 0
    if upper is None:
        upper = p
    return upper - (lower or 1)


def check_feasibility(case, k, status, witness=None):
    """Check one at-most-k verdict against the reference."""
    ref = case["ref"]
    if status == "found":
        expect(witness is not None and witness <= k, "witness has more than k weights")
        expect(not isinstance(ref, int) or ref <= k, f"found with k={k} below reference {ref}")
    elif status == "none":
        expect(ref == "infeasible" or (isinstance(ref, int) and ref > k)
               or (ref is None and k < lower_bound(case["p"], case["edges"], case["mode"])),
               f"none with k={k} contradicts reference {ref}")
    else:
        expect(status == "unknown", f"unknown status {status!r}")

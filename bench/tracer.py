"""Spans around calls into latlab's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper on every
latlab module that holds it (modules import names directly: ``cli`` holds
``solve_min_distinct`` and ``read_certificate``, ``certificate`` holds
``verify_total``, ``cache`` holds ``certificate_from_dict``, and ``solver``
imports ``chi_lat_lower_bound`` lazily from ``bounds``).  Spans are kept in
memory as (name, start, end, parent index, op id, info) and summarised when
the run ends.  Nothing is changed inside latlab's source.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from checker import DEFINITE

# (module, function, span name)
TARGETS = [
    ("graph", "graph6_decode", "graph.decode"),
    ("graph", "generate", "graph.generate"),
    ("bounds", "chi_lat_lower_bound", "bounds.lower"),
    ("coloring", "chromatic_number", "coloring.chromatic"),
    ("solver", "solve_min_distinct", "solver"),
    ("solver", "find_with_at_most_k", "solver"),
    ("labeling", "verify_total", "labeling.verify"),
    ("labeling", "verify_edge", "labeling.verify"),
    ("constructions", "construct_k2_plus_empty", "constructions"),
    ("constructions", "construct_small_odd_path", "constructions"),
    ("transforms", "cone_to_total", "transforms"),
    ("transforms", "total_to_cone", "transforms"),
    ("transforms", "double_cone_collapse", "transforms"),
    ("certificate", "read_certificate", "certificate.read"),
    ("certificate", "certificate_from_dict", "certificate.from_dict"),
    ("certificate", "make_certificate", "certificate.make"),
    ("certificate", "write_certificate", "certificate.write"),
    ("cache", "load_entry", "cache.load"),
    ("cache", "store_entry", "cache.store"),
    ("cli", "main", "cli.main"),
]

# Layer of each span name, for self-time shares.
LAYER = {"graph.decode": "graph", "graph.generate": "graph",
         "bounds.lower": "bounds", "coloring.chromatic": "bounds",
         "solver": "solver", "labeling.verify": "labeling",
         "constructions": "constructions", "transforms": "constructions",
         "certificate.read": "certificate", "certificate.from_dict": "certificate",
         "certificate.make": "certificate", "certificate.write": "certificate",
         "cache.load": "cache", "cache.store": "cache", "cli.main": "cli"}


def _dir_bytes(directory):
    return sum(f.stat().st_size for f in Path(directory).glob("*") if f.is_file())


def _info(name, args, result, before):
    """Facts about one call that the per-layer counts need."""
    if name == "solver":
        return {"nodes": result.nodes_explored, "status": result.status}
    if name == "cache.load":
        return {"hit": result is not None,
                "invalidated": result is None and before and not before[0].exists()}
    if name == "cache.store":
        return {"bytes": _dir_bytes(args[0]) - before}
    return None


def _before(name, args):
    if name == "cache.load":
        from latlab.cache import cache_key
        path = Path(args[0]) / (cache_key(args[1], args[2]) + ".json")
        return (path,) if path.exists() else ()
    if name == "cache.store":
        return _dir_bytes(args[0]) if Path(args[0]).exists() else 0
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            before = _before(name, args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, {"raised": True})
                raise
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op,
                            _info(name, args, result, before))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        importlib.import_module("latlab.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "latlab" or n.startswith("latlab."))]
        for module_name, attr, name in TARGETS:
            original = getattr(importlib.import_module("latlab." + module_name), attr, None)
            if original is None:  # renamed or removed: its layer reads as uncalled
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def probe(directory):
    """Call every traced function once on small fixed inputs.

    Gives a per-call time for layers that a workload never calls, so every
    per-layer time is a measured number; counts still come from the workload.
    A call whose signature has changed is skipped."""
    import json

    from latlab import (bounds, cache, certificate, coloring, constructions, graph,
                        labeling, solver, transforms)
    c5 = graph.generate(graph.FamilySpec("cycle", (5,)))
    budget = solver.SolveBudget(max_nodes=5000, max_millis=10 ** 9)
    calls = [
        lambda: graph.graph6_decode("Dhc"),
        lambda: bounds.chi_lat_lower_bound(c5),
        lambda: coloring.chromatic_number(c5),
        lambda: solver.solve_min_distinct(c5, solver.SearchMode.TOTAL, budget),
    ]
    for call in calls:
        try:
            call()
        except (AttributeError, TypeError, ValueError):
            pass
    try:
        p5, f = constructions.construct_small_odd_path(5)
        labeling.verify_total(p5, f)
        cone, lab = transforms.total_to_cone(p5, f)
        labeling.verify_edge(cone, lab)
        cert = certificate.make_certificate(p5, f, "probe")
        text = certificate.write_certificate(cert)
        certificate.read_certificate(text)
        cache.store_entry(Path(directory), p5, "total", "exact", value=2, lower=2,
                          upper=2, certificate_doc=json.loads(text))
        cache.load_entry(Path(directory), p5, "total")
    except (AttributeError, TypeError, ValueError):
        pass


SHARE_LAYERS = ["cli", "graph", "bounds", "solver", "labeling", "constructions",
                "certificate", "cache"]


def layer_metrics(spans, probe_spans, traced_op_ms, import_ms, overhead_frac, tampered):
    """Per-layer metrics of one traced run.

    Counts are over the first pass (op ids ``(0, ...)``) so they repeat
    exactly; per-call times average every traced call, or the probe's call
    when the workload made none."""
    own = self_times(spans)
    rows, probe_rows = {}, {}
    for span, self_s in zip(spans, own):
        rows.setdefault(span[0], []).append((span[2] - span[1], self_s, span[5], span[4]))
    for span, self_s in zip(probe_spans, self_times(probe_spans)):
        probe_rows.setdefault(span[0], []).append((span[2] - span[1], self_s, span[5], None))

    def first(name):
        return [r for r in rows.get(name, []) if r[3][0] == 0]

    def per_call(name, scale, use_self=False):
        sample = rows.get(name) or probe_rows.get(name) or []
        if not sample:
            return 0.0
        return scale * sum(r[1] if use_self else r[0] for r in sample) / len(sample)

    def ratio(hits, total):
        return hits / total if total else 0.0

    solver_first = first("solver")
    solver_all = rows.get("solver") or probe_rows.get("solver") or []
    solver_self = sum(r[1] for r in solver_all)
    loads = first("cache.load")
    m = {
        "cli.import_ms": import_ms,
        "graph.decode_calls": len(first("graph.decode")),
        "graph.decode_us": per_call("graph.decode", 1e6),
        "graph.generate_us": per_call("graph.generate", 1e6),
        "bounds.lower_calls": len(first("bounds.lower")),
        "bounds.lower_ms": per_call("bounds.lower", 1e3),
        "coloring.chromatic_ms": per_call("coloring.chromatic", 1e3),
        "solver.calls": len(solver_first),
        "solver.self_ms": per_call("solver", 1e3, use_self=True),
        "solver.nodes": sum(r[2]["nodes"] for r in solver_first if r[2] and "nodes" in r[2]),
        "solver.nodes_per_s": (sum(r[2]["nodes"] for r in solver_all if r[2] and "nodes" in r[2])
                               / solver_self if solver_self else 0.0),
        "solver.decided_ratio": ratio(sum(1 for r in solver_first if r[2]
                                          and r[2].get("status") in DEFINITE),
                                      len(solver_first)),
        "solver.budget_stops": sum(1 for r in solver_first if r[2] and "status" in r[2]
                                   and r[2]["status"] not in DEFINITE),
        "labeling.verify_calls": len(first("labeling.verify")),
        "labeling.verify_us": per_call("labeling.verify", 1e6),
        "constructions.us": per_call("constructions", 1e6),
        "transforms.us": per_call("transforms", 1e6),
        "certificate.read_calls": len(first("certificate.read")),
        "certificate.read_ms": per_call("certificate.read", 1e3),
        "certificate.make_us": per_call("certificate.make", 1e6),
        "certificate.write_us": per_call("certificate.write", 1e6),
        "certificate.reject_ratio": ratio(tampered[1], tampered[0]),
        "cache.load_calls": len(loads),
        "cache.hit_ratio": ratio(sum(1 for r in loads if r[2] and r[2].get("hit")), len(loads)),
        "cache.load_ms": per_call("cache.load", 1e3),
        "cache.invalidations": sum(1 for r in loads if r[2] and r[2].get("invalidated")),
        "cache.store_calls": len(first("cache.store")),
        "cache.store_ms": per_call("cache.store", 1e3),
        "cache.bytes_written": sum(r[2]["bytes"] for r in first("cache.store")
                                   if r[2] and "bytes" in r[2]),
    }
    total_s = traced_op_ms / 1e3
    for layer in SHARE_LAYERS:
        busy = sum(self_s for span, self_s in zip(spans, own) if LAYER[span[0]] == layer)
        m[f"{layer}.self_share"] = busy / total_s if total_s else 0.0
    m["trace.overhead_frac"] = overhead_frac
    return m

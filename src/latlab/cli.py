"""Command-line interface.

Exit codes: 0 success/valid, 1 internal error, 2 invalid input,
3 infeasible / definitively-none, 4 budget exhausted.

Each subcommand imports its own modules: `verify` never loads the solver.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import LatlabError, ParameterError, ParseError
from .graph import _G6_HEADER, FamilySpec, format_graph, generate, graph6_decode, parse_graph

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_EXHAUSTED = 4


def _read_source(path: str) -> str:
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise LatlabError(f"cannot read {name}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not {exc.encoding} text", exc.start) from exc


def _emit(text: str, out_path=None):
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise LatlabError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _budget_from_args(args):
    from .budget import SolveBudget
    return SolveBudget(max_nodes=args.max_nodes, max_millis=args.max_millis)


def _add_budget_flags(sp):
    sp.add_argument("--max-nodes", type=int, default=None,
                    help="search node limit: labels tried, each colouring and "
                         "weight pair of the two-weight search, plus 8 per "
                         "move of the witness search that a solve makes first")
    sp.add_argument("--max-millis", type=int, default=60_000,
                    help="wall-clock limit in milliseconds (default 60000)")


def _load_graph(args):
    if getattr(args, "family", None):
        spec = FamilySpec.parse(args.family)
        return generate(spec), spec
    if not getattr(args, "graph", None):
        raise ParameterError("provide a graph file ('-' for stdin) or --family")
    return parse_graph(_read_source(args.graph), args.format), None


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen(args) -> int:
    spec = FamilySpec(args.family_name.replace("-", "_"), tuple(args.params))
    _emit(format_graph(generate(spec), args.format), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .certificate import read_certificate
    from .labeling import verify
    cert = read_certificate(_read_source(args.certificate))
    report = verify(cert.graph, cert.labeling)
    payload = {
        "valid": report.valid,
        "bijection_ok": report.bijection_ok,
        "violations": list(report.violations),
        "weights": list(report.profile.weights),
        "distinct": report.profile.distinct_count,
    }
    if args.json:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif report.valid:
        _emit(f"valid: {report.profile.distinct_count} distinct weight(s)\n")
    else:
        _emit("INVALID: " + ("bijection broken; " if not report.bijection_ok else "")
              + f"violations on edges {list(report.violations)}\n")
    return EXIT_OK if report.valid else EXIT_INVALID


def _solve_payload(res):
    payload = {"status": res.status, "nodes": res.nodes_explored}
    if res.status == "exact":
        payload["value"] = res.value
    elif res.status == "lower_upper":
        payload["lower"], payload["upper"] = res.lower, res.upper
    elif res.status == "exhausted" and res.lower is not None:
        payload["lower"] = res.lower
    return payload


def cmd_solve(args) -> int:
    from .certificate import certificate_to_dict, make_certificate, write_certificate
    from .solver import find_with_at_most_k, solve_min_distinct
    g, _ = _load_graph(args)
    mode = args.mode
    budget = _budget_from_args(args)

    if args.k is not None:
        res = find_with_at_most_k(g, args.k, mode, budget)
        payload = {"status": res.status, "k": args.k, "nodes": res.nodes_explored}
        status_exit = {"found": EXIT_OK, "none": EXIT_INFEASIBLE,
                       "unknown": EXIT_EXHAUSTED}[res.status]
    else:
        res = solve_min_distinct(g, mode, budget)
        payload = _solve_payload(res)
        status_exit = {"exact": EXIT_OK, "infeasible": EXIT_INFEASIBLE,
                       "lower_upper": EXIT_EXHAUSTED,
                       "exhausted": EXIT_EXHAUSTED}[res.status]

    cert_doc = None
    if res.certificate is not None:
        certificate = make_certificate(g, res.certificate, "solver:branch-and-bound")
        cert_doc = certificate_to_dict(certificate)
        if args.cert:
            _emit(write_certificate(certificate), args.cert)

    if args.json:
        if cert_doc is not None and not args.cert:
            payload["certificate"] = cert_doc
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(" ".join(f"{k}={v}" for k, v in payload.items()) + "\n")
    return status_exit


def cmd_construct(args) -> int:
    from .certificate import make_certificate, write_certificate
    from .constructions import construct_k2_plus_empty, construct_small_odd_path
    name = args.name.replace("-", "_")
    if name == "k2_plus_empty":
        g, f = construct_k2_plus_empty(args.n)
        producer = "construction:k2-plus-empty"
        citation = "k2-plus-isolated"
    else:
        g, f = construct_small_odd_path(args.n)
        producer = "construction:odd-path-sequence"
        citation = "odd-path-sequences"
    cert = make_certificate(g, f, producer, citation=citation)
    _emit(write_certificate(cert), args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    from .certificate import make_certificate, read_certificate, write_certificate
    from .transforms import cone_to_total, double_cone_collapse, total_to_cone
    cert = read_certificate(_read_source(args.certificate))
    if args.kind == "cone-to-total":
        apex = args.apex if args.apex is not None else cert.graph.p - 1
        g, f = cone_to_total(cert.graph, cert.labeling, apex)
        out = make_certificate(g, f, "transform:cone-to-total",
                               provenance_extra={"apex": apex})
    elif args.kind == "total-to-cone":
        g, lab = total_to_cone(cert.graph, cert.labeling)
        out = make_certificate(g, lab, "transform:total-to-cone",
                               provenance_extra={"apex": g.p - 1})
    else:
        if args.apexes is None:
            apexes = (cert.graph.p - 2, cert.graph.p - 1)
        else:
            apexes = tuple(args.apexes)
        g, f = double_cone_collapse(cert.graph, cert.labeling, apexes)
        out = make_certificate(
            g, f, "transform:double-cone-collapse",
            provenance_extra={"kept_apex": apexes[0], "consumed_apex": apexes[1]})
    _emit(write_certificate(out), args.out)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    from .certificate import export_dot, read_certificate
    cert = read_certificate(_read_source(args.certificate))
    _emit(export_dot(cert), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .bounds import bounds_report, known_value
    g, spec = _load_graph(args)
    report = bounds_report(g, family=spec)
    payload = {
        "chromatic": report.chromatic,
        "isolated": report.isolated_count,
        "lower": report.lower,
        "upper": report.upper,
        "upper_source": report.upper_source,
        "notes": list(report.notes),
    }
    if spec is not None:
        kr = known_value(spec)
        if kr is not None:
            payload["known"] = {"quantity": kr.quantity, "low": kr.low, "high": kr.high,
                                "status": kr.status, "citation": kr.citation}
    if args.json:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(" ".join(f"{k}={v}" for k, v in payload.items() if k != "notes") + "\n")
        for note in report.notes:
            _emit(f"  note: {note}\n")
    return EXIT_OK


def cmd_atlas(args) -> int:
    from .cache import cache_dir, load_entry, store_entry
    text = _read_source(args.input)
    mode = args.mode
    budget = _budget_from_args(args)
    directory = cache_dir()
    out_lines = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        g = graph6_decode(line)
        answer = load_entry(directory, g, mode, budget) if directory else None
        cached = answer is not None
        if not cached:
            from .solver import solve_min_distinct  # a miss: only now load the search
            res = solve_min_distinct(g, mode, budget)
            answer = res._asdict()
            if directory:
                from .certificate import certificate_to_dict, make_certificate
                cert_doc = None if res.certificate is None else certificate_to_dict(
                    make_certificate(g, res.certificate, "solver:branch-and-bound"))
                store_entry(directory, g, mode, res.status, lower=res.lower,
                            certificate_doc=cert_doc, budget=budget)
        # the graph6 string without the optional ">>graph6<<" file header
        record = {"graph6": line.removeprefix(_G6_HEADER), "status": answer["status"],
                  "value": answer["value"], "lower": answer["lower"], "upper": answer["upper"],
                  "cached": cached}
        if args.json:
            out_lines.append(json.dumps(record, sort_keys=True))
        else:
            out_lines.append(" ".join(f"{k}={v}" for k, v in record.items()))
    _emit("\n".join(out_lines) + ("\n" if out_lines else ""), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latlab",
        description="Local antimagic (total) labelings: generate, verify, solve.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="emit a family graph")
    sp.add_argument("family_name")
    sp.add_argument("params", type=int, nargs="+")
    sp.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("verify", help="re-verify a certificate (exit 0 iff valid)")
    sp.add_argument("certificate")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("solve", help="exact solve or bounded feasibility search")
    sp.add_argument("graph", nargs="?", default=None, help="graph file or '-' for stdin")
    sp.add_argument("--family", default=None, help="family spec like cycle:6")
    sp.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    sp.add_argument("--mode", choices=["total", "edge"], required=True)
    sp.add_argument("--k", type=int, default=None,
                    help="feasibility: find a labeling with at most k distinct weights")
    sp.add_argument("--cert", default=None, help="write the witness certificate here")
    sp.add_argument("--json", action="store_true")
    _add_budget_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("construct", help="closed-form labeling certificates")
    sp.add_argument("name", choices=["k2-plus-empty", "odd-path"])
    sp.add_argument("n", type=int)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("transform", help="move a labeling across a cone")
    sp.add_argument("kind", choices=["cone-to-total", "total-to-cone", "double-cone"])
    sp.add_argument("certificate")
    sp.add_argument("--apex", type=int, default=None)
    sp.add_argument("--apexes", type=int, nargs=2, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("dot", help="export a certificate as DOT")
    sp.add_argument("certificate")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_export_dot)

    sp = sub.add_parser("bounds", help="lower/upper bounds and known values")
    sp.add_argument("graph", nargs="?", default=None)
    sp.add_argument("--family", default=None)
    sp.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("atlas", help="batch-solve a graph6 stream with caching")
    sp.add_argument("input", nargs="?", default="-")
    sp.add_argument("--mode", choices=["total", "edge"], default="total")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None)
    _add_budget_flags(sp)
    sp.set_defaults(func=cmd_atlas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

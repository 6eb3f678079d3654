"""The three workloads: inputs made from the seed, one pass of operations,
how an operation runs (timed), and how its output is checked.

Every workload is a closed loop with one client and one operation in
flight.  Searches run under a fixed node budget with ``max_millis`` far
above it, so verdicts and node counts are deterministic.  latlab only ever
sees the generated inputs, never the seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import graphs
from checker import (DEFINITE, CheckFailure, check_certificate_doc, check_feasibility,
                     check_labeling, check_min_distinct, expect, gap)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_ENV = "LATLAB_CACHE_DIR"
CLI = "import sys; from latlab.cli import main; sys.exit(main())"
NO_TIME_LIMIT_MS = 1_000_000_000  # far above any node budget below
ANCHOR_NODES = 1_000_000  # C5 total k=2 proves "none" after 939,492 nodes
DRAW_NODES = 100_000  # a capped search takes ~0.2 s: few enough samples that
                     # a scheduler hiccup does not reach the tail percentile
ATLAS_NODES = 40_000  # sits in a gap of the 5-vertex graphs' closing node counts
                     # (26k to 62k), so a relabeling seldom flips a verdict

# Sizes of one pass; "tiny" is for the benchmark's own smoke test.
SIZES = {
    "full": {"anchor_nodes": ANCHOR_NODES, "draw_nodes": DRAW_NODES, "draw": None,
             "atlas_max_p": 5, "cold_shard": 2, "warm_shard": 4,
             "total_certs": 4, "edge_certs": 2, "constructs": 4},
    "tiny": {"anchor_nodes": 5_000, "draw_nodes": 5_000, "draw": 3,
             "atlas_max_p": 3, "cold_shard": 2, "warm_shard": 4,
             "total_certs": 1, "edge_certs": 1, "constructs": 1},
}


def cli_call(argv, cache=None, in_process=False):
    """Run ``latlab <argv>``; returns (exit code, stdout, milliseconds).

    Untraced runs start a fresh interpreter, as a user's shell does.  The
    traced run calls ``latlab.cli.main`` in-process so spans can be kept."""
    if in_process:
        import latlab.cli
        if cache is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = str(cache)
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = latlab.cli.main(argv)
        return code, out.getvalue(), (time.perf_counter() - start) * 1e3
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(CACHE_ENV, None)
    if cache is not None:
        env[CACHE_ENV] = str(cache)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, (time.perf_counter() - start) * 1e3


def atlas_argv(shard_file):
    return ["atlas", str(shard_file), "--mode", "total", "--json",
            "--max-nodes", str(ATLAS_NODES), "--max-millis", str(NO_TIME_LIMIT_MS)]


def atlas_shards(rng, max_p, size, directory):
    """Every graph on 1..max_p vertices under a seeded relabeling, dealt into
    shard files of ``size`` graphs in seeded order.

    Graphs are dealt by label-universe size, largest with smallest, so every
    shard holds a similar amount of search and the median shard is the same
    kind of shard for every seed."""
    cases = []
    for entry in graphs.load_population():
        if entry["p"] <= max_p:
            edges = graphs.relabel(entry["p"], graphs.edges_of(entry), rng)
            cases.append({"g6": graphs.graph6(entry["p"], edges), "p": entry["p"],
                          "edges": edges, "mode": "total", "ref": entry["chi_lat"]})
    rng.shuffle(cases)
    cases.sort(key=lambda c: c["p"] + len(c["edges"]))
    count = -(-len(cases) // size)
    rows = [cases[r:r + count] for r in range(0, len(cases), count)]
    rows = [row if r % 2 == 0 else row[::-1] for r, row in enumerate(rows)]
    groups = [[row[i] for row in rows if i < len(row)] for i in range(count)]
    rng.shuffle(groups)
    directory.mkdir(parents=True)
    shards = []
    for i, group in enumerate(groups):
        path = directory / f"shard{i:03d}.g6"
        path.write_text("".join(c["g6"] + "\n" for c in group))
        shards.append({"file": str(path), "cases": group})
    return shards


def certificates_in(directory):
    """Witness certificates stored anywhere in a cache directory, by graph6."""
    found = {}

    def walk(node):
        if isinstance(node, dict):
            if node.get("format") == "latlab-certificate/1":
                p, edges, _, w = check_certificate_doc(node)
                found[graphs.graph6(p, edges)] = len(set(w))
            else:
                for value in node.values():
                    walk(value)

    for path in sorted(Path(directory).rglob("*.json")):
        walk(json.loads(path.read_text()))
    return found


def atlas_records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def atlas_verdicts(stdout):
    """What an atlas run claims, without how it got there (``cached``)."""
    return [[r["graph6"], r["status"], r["value"], r["lower"], r["upper"]]
            for r in atlas_records(stdout)]


def check_atlas_records(shard, stdout, cached, witnesses=None):
    """Check one atlas output against its shard; returns (decided, gap) per record."""
    records = atlas_records(stdout)
    expect(len(records) == len(shard["cases"]), "atlas record count != shard size")
    facts = []
    for case, rec in zip(shard["cases"], records):
        expect(rec["graph6"] == case["g6"], "atlas records out of input order")
        expect(rec["cached"] is cached, f"record cached={rec['cached']}, expected {cached}")
        witness = None
        if witnesses is not None and rec["status"] in ("exact", "lower_upper"):
            witness = witnesses.get(case["g6"])
        check_min_distinct(case, rec["status"], rec["value"], rec["lower"], rec["upper"],
                           witness)
        facts.append((rec["status"] in DEFINITE,
                      gap(case["p"], rec["status"], rec["lower"], rec["upper"])))
    return facts


class Search:
    """In-process library calls, as a user closing hard instances makes them."""

    name = "search"

    def setup(self, seed, work, size):
        rng = random.Random(seed)
        population = graphs.load_population()
        cases = []

        def add(label, p, edges, mode, k, anchor, ref):
            budget = SIZES[size]["anchor_nodes" if anchor else "draw_nodes"]
            cases.append({"id": label, "p": p, "edges": edges, "mode": mode, "k": k,
                          "budget": budget, "anchor": anchor, "ref": ref})

        for label, p, edges, mode, k in [("W4/total/k3", 5, graphs.wheel(4), "total", 3),
                                         ("P9/total/k2", 9, graphs.path(9), "total", 2),
                                         ("C5/total/k2", 5, graphs.cycle(5), "total", 2),
                                         ("K4/edge", 4, graphs.complete(4), "edge", None),
                                         ("W4/edge", 5, graphs.wheel(4), "edge", None)]:
            entry = graphs.find_class(population, p, edges) if p <= 6 else None
            key = "chi_lat" if mode == "total" else "chi_la"
            add(label, p, edges, mode, k, True, entry[key] if entry else None)
        # Every connected 6-vertex class in total mode and every other one in
        # edge mode as well, each under a seeded relabeling: budget-capped
        # total searches stay the majority, so the median operation does not
        # sit on the capped/closed boundary, and every seed meets the same
        # classes.
        connected = [e for e in population if e["p"] == 6 and e["connected"]]
        if SIZES[size]["draw"] is not None:
            connected = rng.sample(connected, SIZES[size]["draw"])
        for i, entry in enumerate(connected):
            for mode in ("total", "edge") if i % 2 == 0 else ("total",):
                edges = graphs.relabel(6, graphs.edges_of(entry), rng)
                key = "chi_lat" if mode == "total" else "chi_la"
                add(f"{entry['g6']}/{mode}", 6, edges, mode, None, False, entry[key])
        rng.shuffle(cases)
        return {"cases": cases}

    def attach(self, manifest, work, in_process):
        from latlab.graph import Graph
        from latlab.solver import SearchMode, SolveBudget
        self.cases = manifest["cases"]
        self.inputs = [(Graph.from_edges(c["p"], [tuple(e) for e in c["edges"]]),
                        SearchMode(c["mode"]),
                        SolveBudget(max_nodes=c["budget"], max_millis=NO_TIME_LIMIT_MS))
                       for c in self.cases]

    def ops(self):
        # An anchor takes seconds, so it runs in the first pass only: repeated,
        # the number of passes a machine manages would decide whether the tail
        # percentile lands on an anchor.
        return [{"id": c["id"], "index": i, "once": c["anchor"]}
                for i, c in enumerate(self.cases)]

    def run(self, op):
        from latlab import solver
        case = self.cases[op["index"]]
        g, mode, budget = self.inputs[op["index"]]
        start = time.perf_counter()
        if case["k"] is None:
            res = solver.solve_min_distinct(g, mode, budget)
        else:
            res = solver.find_with_at_most_k(g, case["k"], mode, budget)
        ms = (time.perf_counter() - start) * 1e3
        cert = res.certificate
        return {"ms": ms, "status": res.status, "nodes": res.nodes_explored,
                "value": getattr(res, "value", None), "lower": getattr(res, "lower", None),
                "upper": getattr(res, "upper", None),
                "vertex_labels": getattr(cert, "vertex_labels", None) if cert else None,
                "edge_labels": cert.edge_labels if cert else None}

    def check(self, op, out):
        case = self.cases[op["index"]]
        if out["status"] not in DEFINITE:
            expect(out["nodes"] >= case["budget"], "search stopped on time, not on nodes")
        witness = None
        if out["edge_labels"] is not None:
            vertex_labels = out["vertex_labels"] if case["mode"] == "total" else None
            edges = [tuple(e) for e in case["edges"]]
            witness = len(set(check_labeling(case["p"], edges, vertex_labels,
                                             out["edge_labels"])))
        if case["k"] is None:
            check_min_distinct(case, out["status"], out["value"], out["lower"],
                               out["upper"], witness)
            facts = [(out["status"] in DEFINITE,
                      gap(case["p"], out["status"], out["lower"], out["upper"]))]
        else:
            check_feasibility(case, case["k"], out["status"], witness)
            facts = [(out["status"] in DEFINITE, None)]
        return facts

    def fingerprint(self, op, out):
        return [out["status"], out["nodes"], out["value"], out["lower"], out["upper"]]

    def cleanup(self, out):
        pass


class AtlasCold:
    """``latlab atlas`` processes over shards of a graph6 stream, each with an
    empty cache: many short searches, a certificate and a cache write each."""

    name = "atlas-cold"

    def setup(self, seed, work, size):
        rng = random.Random(seed)
        return {"shards": atlas_shards(rng, SIZES[size]["atlas_max_p"],
                                       SIZES[size]["cold_shard"], work / "shards")}

    def attach(self, manifest, work, in_process):
        self.shards = manifest["shards"]
        self.work = work
        self.in_process = in_process
        self.runs = 0

    def ops(self):
        return [{"id": Path(s["file"]).stem, "shard": s} for s in self.shards]

    def run(self, op):
        self.runs += 1
        cache = self.work / f"cold-cache-{self.runs}"
        cache.mkdir()
        code, stdout, ms = cli_call(atlas_argv(op["shard"]["file"]), cache, self.in_process)
        return {"ms": ms, "code": code, "stdout": stdout, "cache": str(cache)}

    def check(self, op, out):
        expect(out["code"] == 0, f"atlas exited {out['code']}")
        return check_atlas_records(op["shard"], out["stdout"], False,
                                   certificates_in(out["cache"]))

    def fingerprint(self, op, out):
        return [out["code"], atlas_verdicts(out["stdout"])]

    def cleanup(self, out):
        shutil.rmtree(out["cache"], ignore_errors=True)


def _tamper(doc, rng):
    """A certificate that claims something false, and how it was made."""
    bad = json.loads(json.dumps(doc))
    kind = rng.choice(["swap-labels", "duplicate-label", "weight", "distinct",
                       "drop-weights"])
    if kind == "swap-labels" and len(bad["edge_labels"]) >= 2:
        labels = bad["edge_labels"]
        labels[0], labels[-1] = labels[-1], labels[0]
    elif kind == "duplicate-label" and len(bad["edge_labels"]) >= 2:
        bad["edge_labels"][0] = bad["edge_labels"][1]
    elif kind == "distinct":
        bad["distinct"] += 1
    elif kind == "drop-weights":
        del bad["weights"]
    else:
        kind = "weight"
        bad["weights"][0] += 1
    return kind, bad


class Check:
    """Non-search CLI processes: verify, dot, transform, construct, and atlas
    over shards whose cache set-up already filled (every record a cache read)."""

    name = "check"

    def setup(self, seed, work, size):
        from latlab import cli
        from latlab.certificate import make_certificate, write_certificate
        from latlab.graph import Graph
        from latlab.solver import SearchMode, SolveBudget, solve_min_distinct

        rng = random.Random(seed)
        sizes = SIZES[size]
        population = graphs.load_population()
        small = [e for e in population if e["connected"] and e["p"] in (3, 4)]
        (work / "certs").mkdir(parents=True)
        budget = SolveBudget(max_nodes=ANCHOR_NODES, max_millis=NO_TIME_LIMIT_MS)
        certs, ops = [], []

        def certify(p, edges, mode):
            res = solve_min_distinct(Graph.from_edges(p, edges), SearchMode(mode), budget)
            text = write_certificate(make_certificate(Graph.from_edges(p, edges),
                                                      res.certificate, "bench:setup"))
            path = work / "certs" / f"c{len(certs)}.json"
            path.write_text(text)
            certs.append({"file": str(path), "doc": json.loads(text)})
            check_certificate_doc(certs[-1]["doc"])
            return len(certs) - 1

        for entry in rng.sample(small, sizes["total_certs"]):
            p = entry["p"]
            i = certify(p, graphs.relabel(p, graphs.edges_of(entry), rng), "total")
            doc = certs[i]["doc"]
            if sum(doc["vertex_labels"]) not in doc["weights"]:
                ops.append({"kind": "transform", "how": "total-to-cone", "cert": i})
        for entry in rng.sample(small, sizes["edge_certs"]):
            p = entry["p"]
            i = certify(p + 1, graphs.cone(p, graphs.relabel(p, graphs.edges_of(entry), rng)),
                        "edge")
            ops.append({"kind": "transform", "how": "cone-to-total", "cert": i})
        for i, cert in enumerate(list(certs)):
            ops += [{"kind": "verify", "cert": i}, {"kind": "dot", "cert": i}]
            if rng.random() < 0.5:
                how, bad = _tamper(cert["doc"], rng)
                try:
                    check_certificate_doc(bad)
                except (CheckFailure, KeyError):
                    pass
                else:
                    raise SystemExit(f"tampered certificate ({how}) passes the checker")
                path = work / "certs" / f"x{i}.json"
                path.write_text(json.dumps(bad, indent=2))
                ops.append({"kind": "tampered", "how": how, "file": str(path)})
        constructs = [("odd-path", n) for n in (3, 5, 7)] + \
                     [("k2-plus-empty", n) for n in (1, 2, 3, 4)]
        for name, n in rng.sample(constructs, sizes["constructs"]):
            ops.append({"kind": "construct", "name": name, "n": n})

        # Fill the cache once; the timed atlas runs then only read it.
        shards = atlas_shards(rng, sizes["atlas_max_p"], sizes["warm_shard"],
                              work / "shards")
        cache = work / "warm-cache"
        for shard in shards:
            out = io.StringIO()
            os.environ[CACHE_ENV] = str(cache)
            with redirect_stdout(out):
                code = cli.main(atlas_argv(shard["file"]))
            if code != 0:
                raise SystemExit(f"cache fill exited {code}")
            shard["cold"] = out.getvalue()
            ops.append({"kind": "atlas", "shard": shard})
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op["id"] = f"{i:02d}-{op['kind']}"
        return {"certs": certs, "ops": ops, "cache": str(cache)}

    def attach(self, manifest, work, in_process):
        self.manifest = manifest
        self.work = work
        self.in_process = in_process

    def ops(self):
        return self.manifest["ops"]

    def run(self, op):
        kind, certs = op["kind"], self.manifest["certs"]
        out_file = self.work / "out.json"
        cache = None
        if kind in ("verify", "tampered"):
            argv = ["verify", certs[op["cert"]]["file"] if kind == "verify" else op["file"],
                    "--json"]
        elif kind == "dot":
            argv = ["dot", certs[op["cert"]]["file"]]
        elif kind == "transform":
            argv = ["transform", op["how"], certs[op["cert"]]["file"], "--out", str(out_file)]
        elif kind == "construct":
            argv = ["construct", op["name"], str(op["n"]), "--out", str(out_file)]
        else:
            argv = atlas_argv(op["shard"]["file"])
            cache = self.manifest["cache"]
        code, stdout, ms = cli_call(argv, cache, self.in_process)
        written = None
        if out_file.exists():
            written = out_file.read_text()
            out_file.unlink()
        return {"ms": ms, "code": code, "stdout": stdout, "written": written}

    def check(self, op, out):
        kind = op["kind"]
        if kind == "tampered":
            expect(out["code"] == 2, f"tampered certificate ({op['how']}) exited {out['code']}")
            return []
        expect(out["code"] == 0, f"{kind} exited {out['code']}")
        if kind == "atlas":
            check_atlas_records(op["shard"], op["shard"]["cold"], False)
            expect(atlas_verdicts(out["stdout"]) == atlas_verdicts(op["shard"]["cold"]),
                   "warm atlas records differ from their cold records")
            return check_atlas_records(op["shard"], out["stdout"], True)
        if kind == "construct":
            p, edges, mode, w = check_certificate_doc(json.loads(out["written"]))
            n = op["n"]
            if op["name"] == "odd-path":
                expect((p, edges) == (n, graphs.path(n)), "construct odd-path: wrong graph")
                expect(len(set(w)) == 2, "odd-path construction without two weights")
            else:
                expect((p, edges) == (n + 2, [(0, 1)]), "construct k2-plus-empty: wrong graph")
                expect(len(set(w)) == (2 if n <= 2 else n),
                       "k2-plus-empty construction off its theorem value")
            return []
        doc = self.manifest["certs"][op["cert"]]["doc"]
        p, edges, mode, w = check_certificate_doc(doc)
        if kind == "verify":
            payload = json.loads(out["stdout"])
            expect(payload["valid"] is True and payload["distinct"] == len(set(w))
                   and payload["weights"] == list(w), "verify disagrees with the certificate")
        elif kind == "dot":
            lines = out["stdout"].splitlines()
            shown = sorted(line.strip() for line in lines if " -- " in line)
            wanted = sorted(f'v{u} -- v{v} [label="{label}"];'
                            for (u, v), label in zip(edges, doc["edge_labels"]))
            expect(lines[0].startswith("graph") and shown == wanted,
                   "dot output does not show the certificate's edge labels")
        else:
            q, q_edges, q_mode, q_w = check_certificate_doc(json.loads(out["written"]))
            if op["how"] == "total-to-cone":
                expect(q_mode == "edge" and (q, q_edges) == (p + 1, graphs.cone(p, edges))
                       and list(q_w[:p]) == list(w), "total-to-cone broke a base weight")
            else:
                expect(q_mode == "total" and q == p - 1 and list(q_w) == list(w[:-1]),
                       "cone-to-total broke a base weight")
        return []

    def fingerprint(self, op, out):
        if op["kind"] == "atlas":
            return [out["code"], atlas_verdicts(out["stdout"])]
        return [out["code"], out["stdout"], out["written"]]

    def cleanup(self, out):
        pass


WORKLOADS = {w.name: w for w in (Search, AtlasCold, Check)}

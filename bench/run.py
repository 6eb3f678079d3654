"""latlab benchmark runner.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Sets up the workload's inputs from the seed, runs its operations in a closed
loop for ``--seconds``, checks every output with the benchmark's own checker,
and prints two JSON lines: a detail record (environment, sample counts,
per-operation node counts, failures) and, last, the result object whose
metrics are the ``end_to_end`` list of BENCHMARK.json (``--trace 0``) or its
``per_layer`` list (``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checker import CheckFailure  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

# Set-up is timed in fresh processes: at least 3, and up to 7 while they add
# up to under SETUP_SECONDS, so that a quick set-up still gives a steady median.
SETUP_SAMPLES = (3, 7)
SETUP_SECONDS = 1.5
TAIL_BEYOND = 10


def environment(seed):
    """What produced a result: source, seed, interpreter and library versions."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for package in ("numpy", "jsonschema"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def setup_child(args, work):
    """Entry of a fresh set-up process: make the inputs, then do what the
    runner does before its first operation."""
    wl = WORKLOADS[args.workload]()
    work.mkdir(parents=True)
    manifest = wl.setup(args.seed, work, args.size)
    wl.attach(manifest, work, in_process=False)
    (work / "manifest.json").write_text(json.dumps(manifest))


def run_setup(args, work, samples):
    """Time fresh set-up processes (``samples`` = (fewest, most)); the last
    one's inputs are used."""
    times = []
    while len(times) < samples[0] or (sum(times) < SETUP_SECONDS and len(times) < samples[1]):
        directory = work / f"setup{len(times)}"
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seed", str(args.seed), "--size", args.size,
                        "--setup-into", str(directory)], check=True, timeout=170)
        times.append(time.perf_counter() - start)
    return directory, json.loads((directory / "manifest.json").read_text()), times


class Loop:
    """Closed loop over passes of the workload's operations."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures = []
        self.first_outputs = {}
        self.facts = []  # (decided, gap) of the first pass
        self.nodes = {}  # op id -> nodes, where the program reports them
        self.tampered = [0, 0]  # offered, rejected (first pass)

    def run_pass(self, ops, pass_index, on_op=None):
        """Run one whole pass; returns [(op id, ms)] of the operations that
        completed."""
        times = []
        for op in ops:
            if pass_index > 0 and op.get("once"):
                continue
            if on_op:
                on_op(pass_index, op)
            self.attempted += 1
            try:
                out = self.wl.run(op)
            except Exception as exc:  # a crash in the program is a failed operation
                self.failures.append(f"{op['id']}: {type(exc).__name__}: {exc}")
                continue
            times.append((op["id"], out["ms"]))
            try:
                facts = self.wl.check(op, out)
                print_ = self.wl.fingerprint(op, out)
                if self.first_outputs.setdefault(op["id"], print_) != print_:
                    raise CheckFailure("output differs from the same operation's first run")
                if pass_index == 0:
                    self.facts += facts
                    if "nodes" in out:
                        self.nodes[op["id"]] = out["nodes"]
                    if op.get("kind") == "tampered":
                        self.tampered[0] += 1
                        self.tampered[1] += out["code"] == 2
            except (CheckFailure, LookupError, TypeError, ValueError) as exc:
                self.failures.append(f"{op['id']}: {type(exc).__name__}: {exc}")
            finally:
                self.wl.cleanup(out)
        return times

    def fingerprint(self):
        """Numbers that must repeat exactly for the same code and seed."""
        decided = [d for d, _ in self.facts]
        gaps = [g for _, g in self.facts if g is not None]
        return {"decided_frac": sum(decided) / len(decided) if decided else 0.0,
                "bound_gap": statistics.fmean(gaps) if gaps else 0.0,
                "nodes": sum(self.nodes.values()) if self.nodes else None}


def passes(seconds, at_least):
    """Pass indices: whole passes, so every operation runs equally often,
    ending at the pass boundary nearest to ``seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        yield index
        index += 1
        now = time.perf_counter()
        if index >= at_least and now + (now - began) / 2 >= start + seconds:
            return


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cli_import_ms(samples=3):
    """Median time for a fresh interpreter to ``import latlab.cli``."""
    code = ("import time; t = time.perf_counter(); import latlab.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(samples))


def untraced(args, wl, ops, setup_times):
    loop = Loop(wl)
    times = []
    for pass_index in passes(args.seconds, 1):
        times += loop.run_pass(ops, pass_index)
    ms = [t for _, t in times]
    tail_ms, tail_pct = tail(ms)
    fp = loop.fingerprint()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "decided_frac": fp["decided_frac"],
        "bound_gap": fp["bound_gap"],
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"samples": len(ms), "passes": pass_index + 1, "tail_percentile": tail_pct,
              "setup_samples_s": setup_times, "fingerprint": fp}
    return loop, metrics, detail


def traced(args, wl, ops, work):
    """Alternate traced and untraced passes; the first pass is traced."""
    from tracer import Tracer, layer_metrics, probe

    tracer = Tracer()
    loop = Loop(wl)
    on, off = [], []

    def tag(pass_index, op):
        tracer.op = (pass_index, op["id"])

    for pass_index in passes(args.seconds, 2):
        tracing = pass_index % 2 == 0
        if tracing:
            tracer.install()
        try:
            times = loop.run_pass(ops, pass_index, tag if tracing else None)
        finally:
            tracer.uninstall()
        (on if tracing else off).extend(times)
    both = {i for i, _ in on} & {i for i, _ in off}
    overhead = (statistics.median(t for i, t in on if i in both)
                / statistics.median(t for i, t in off if i in both) - 1.0) if both else 0.0

    probe_tracer = Tracer()
    probe_tracer.op = (None, "probe")
    probe_tracer.install()
    try:
        probe(work / "probe-cache")
    finally:
        probe_tracer.uninstall()

    metrics = layer_metrics(tracer.spans, probe_tracer.spans, sum(t for _, t in on),
                            cli_import_ms(), overhead, loop.tampered)
    shares = {k: round(v, 4) for k, v in metrics.items() if k.endswith("self_share")}
    detail = {"samples": len(on), "untraced_samples": len(off), "passes": pass_index + 1,
              "spans": len(tracer.spans), "self_shares": shares,
              "fingerprint": dict(loop.fingerprint(), solver_nodes=metrics["solver.nodes"])}
    return loop, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few inputs, for the benchmark's own smoke test")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "latlab" / "__init__.py").is_file():
        print(f"error: no latlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_into:
        setup_child(args, args.setup_into)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        samples = (1, 1) if args.trace or args.size == "tiny" else SETUP_SAMPLES
        directory, manifest, setup_times = run_setup(args, work, samples)
        wl = WORKLOADS[args.workload]()
        wl.attach(manifest, directory, in_process=bool(args.trace))
        ops = wl.ops()
        if args.trace:
            loop, metrics, detail = traced(args, wl, ops, work)
        else:
            loop, metrics, detail = untraced(args, wl, ops, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    detail.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  size=args.size, environment=environment(args.seed),
                  op_nodes=loop.nodes, failures=loop.failures[:20])
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

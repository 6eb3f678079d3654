"""The benchmark's own tests: a tiny run of every workload, and the checker.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checker import CheckFailure, check_certificate_doc, check_feasibility, check_min_distinct
from graphs import cycle, wheel

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(BENCH.parent, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


C5 = {"p": 5, "edges": cycle(5), "mode": "total", "ref": 3}


def test_checker_rejects_wrong_verdicts():
    with pytest.raises(CheckFailure):
        check_min_distinct(C5, "exact", value=2, witness=2)
    with pytest.raises(CheckFailure):
        check_feasibility(C5, 3, "none")
    with pytest.raises(CheckFailure):
        check_min_distinct({"p": 5, "edges": wheel(4)[:4], "mode": "edge", "ref": None},
                           "infeasible")
    check_min_distinct(C5, "lower_upper", lower=3, upper=4, witness=4)
    check_feasibility(C5, 2, "none")


def test_checker_rejects_a_tampered_certificate():
    doc = {"format": "latlab-certificate/1", "graph": {"p": 3, "edges": [[0, 1], [1, 2]]},
           "mode": "total", "vertex_labels": [1, 3, 2], "edge_labels": [5, 4],
           "weights": [6, 12, 6], "distinct": 2}
    assert check_certificate_doc(doc)[3] == (6, 12, 6)
    doc["edge_labels"] = [4, 5]
    with pytest.raises(CheckFailure):
        check_certificate_doc(doc)

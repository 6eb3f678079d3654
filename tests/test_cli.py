import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import latlab
from latlab.cli import main
from oracle import sample_valid_labelings

SRC = Path(latlab.__file__).resolve().parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_cycle_edge_list(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "4")
        assert code == 0
        assert out == "0 1\n0 3\n1 2\n2 3\n"

    def test_graph6(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "3", "--format", "graph6")
        assert code == 0 and out.strip() == "Bw"

    def test_bad_parameter(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "2")
        assert code == 2 and "error" in err

    def test_unwritable_out_is_invalid_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "cycle", "4",
                           "--out", str(tmp_path / "absent" / "x.txt"))
        assert code == 2 and "cannot write" in err


class TestSolve:
    def test_c4_total(self, capsys, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("0 1\n0 3\n1 2\n2 3\n")
        code, out, _ = run(capsys, "solve", str(path), "--mode", "total", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "exact" and payload["value"] == 2

    def test_family_shorthand(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "cycle:5", "--mode", "total",
                           "--json")
        assert code == 0 and json.loads(out)["value"] == 3

    def test_infeasible_exit(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "complete:2", "--mode", "edge")
        assert code == 3

    def test_feasibility_k(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "cycle:4", "--mode", "total",
                           "--k", "2", "--json")
        assert code == 0 and json.loads(out)["status"] == "found"

    def test_family_and_file_search_the_same_tree(self, capsys, tmp_path):
        # the search reads only the graph, however it arrives
        import latlab
        path = tmp_path / "w4.txt"
        path.write_text(latlab.format_graph(latlab.generate(latlab.FamilySpec("wheel", (4,)))))
        for source in (["--family", "wheel:4"], [str(path)]):
            code, out, _ = run(capsys, "solve", *source, "--mode", "total", "--k", "3")
            assert (code, out) == (0, "status=found k=3 nodes=3383\n")

    def test_feasibility_none(self, capsys):
        code, _, _ = run(capsys, "solve", "--family", "cycle:3", "--mode", "total",
                         "--k", "2")
        assert code == 3

    def test_search_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # 1,199 label slots, one search level each
        cert = tmp_path / "p600.json"
        code, out, _ = run(capsys, "solve", "--family", "path:600", "--mode", "total",
                           "--k", "600", "--json", "--cert", str(cert))
        payload = json.loads(out)
        assert code == 0
        assert (payload["status"], payload["nodes"]) == ("found", 1199)
        assert run(capsys, "verify", str(cert))[0] == 0

    def test_lower_upper_keeps_its_witness(self, capsys, tmp_path):
        cert = tmp_path / "c7.json"
        code, out, _ = run(capsys, "solve", "--family", "cycle:7", "--mode", "total",
                           "--max-nodes", "2000", "--json", "--cert", str(cert))
        payload = json.loads(out)
        assert code == 4 and payload["status"] == "lower_upper"
        code, out, _ = run(capsys, "verify", str(cert), "--json")
        assert code == 0 and json.loads(out)["distinct"] == payload["upper"]

    def test_budget_exhausted_exit(self, capsys):
        code, _, _ = run(capsys, "solve", "--family", "cycle:7", "--mode", "total",
                         "--max-nodes", "10")
        assert code == 4

    def test_certificate_emission(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "solve", "--family", "cycle:4", "--mode", "total",
                         "--cert", str(out_path))
        assert code == 0
        code, _, _ = run(capsys, "verify", str(out_path))
        assert code == 0


class TestVerify:
    def test_constructed_certificate_valid(self, capsys, tmp_path):
        cert_path = tmp_path / "k2o3.json"
        code, _, _ = run(capsys, "construct", "k2-plus-empty", "3",
                         "--out", str(cert_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert_path), "--json")
        assert code == 0
        assert json.loads(out)["distinct"] == 3

    def test_tampered_certificate(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(capsys, "construct", "odd-path", "3", "--out", str(cert_path))
        doc = json.loads(cert_path.read_text())
        doc["vertex_labels"] = [1, 3, 3]
        cert_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(cert_path))
        assert code == 2

    def test_equal_adjacent_weights_are_invalid(self, capsys, tmp_path):
        # P4, total: a bijection with weights (7, 15, 15, 9), so edge 1 has equal ends
        p4 = latlab.generate(latlab.FamilySpec("path", (4,)))
        cert = latlab.make_certificate(p4, latlab.Labeling((1, 2, 3, 4), (6, 7, 5)), "test")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(latlab.write_certificate(cert))
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert (code, out) == (2, "INVALID: violations on edges [1]\n")
        code, out, _ = run(capsys, "verify", str(cert_path), "--json")
        doc = json.loads(out)
        assert code == 2
        assert (doc["valid"], doc["bijection_ok"], doc["violations"], doc["distinct"]) == \
            (False, True, [1], 3)
        assert doc["weights"] == [7, 15, 15, 9]

    def test_missing_file_is_invalid_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2 and "cannot read" in err

    def test_non_ascii_file_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_bytes('{"format": "caf\u00e9"}'.encode("utf-8"))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "ascii" in err


class TestTransform:
    def test_total_to_cone_then_back(self, capsys, tmp_path):
        # start from the P2 labeling via an odd-path certificate is invalid
        # (its sum collides), so use solve on P2
        cert = tmp_path / "p2.json"
        code, _, _ = run(capsys, "solve", "--family", "path:2", "--mode", "total",
                         "--cert", str(cert))
        assert code == 0
        cone = tmp_path / "cone.json"
        code, _, err = run(capsys, "transform", "total-to-cone", str(cert),
                           "--out", str(cone))
        assert code == 0, err  # the solver's P2 witness misses the sum collision
        doc = json.loads(cone.read_text())
        assert doc["mode"] == "edge"
        back = tmp_path / "back.json"
        code, _, _ = run(capsys, "transform", "cone-to-total", str(cone),
                         "--out", str(back))
        assert code == 0

    def test_double_cone(self, capsys, tmp_path):
        import latlab
        dc = latlab.generate(latlab.FamilySpec("cycle_join_empty", (4, 2)))
        labs = sample_valid_labelings(dc, "edge", 40)
        pick = None
        for lab in labs:
            w = latlab.verify(dc, lab).profile.weights
            if all(13 + w[4] != w[i] for i in range(4)):
                pick = lab
                break
        cert = latlab.make_certificate(dc, pick, "test")
        path = tmp_path / "dc.json"
        path.write_text(latlab.write_certificate(cert))
        out = tmp_path / "w4.json"
        code, _, _ = run(capsys, "transform", "double-cone", str(path),
                         "--apexes", "4", "5", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "total"
        assert doc["provenance"]["kept_apex"] == 4


class TestBounds:
    def test_known_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "cycle:6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 2 and payload["upper"] == 2
        assert payload["known"]["citation"] == "cycles"

    def test_beyond_exact_coloring_order(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "path:20", "--json")
        assert code == 0
        assert json.loads(out)["lower"] == 2


class TestDotCommand:
    def test_dot_output(self, capsys, tmp_path):
        cert = tmp_path / "p3.json"
        run(capsys, "construct", "odd-path", "3", "--out", str(cert))
        code, out, _ = run(capsys, "dot", str(cert))
        assert code == 0
        assert out.startswith("graph latlab {")
        assert 'v0 [label="1/6"]' in out


class TestAtlas:
    def test_batch_with_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LATLAB_CACHE_DIR", str(tmp_path / "cache"))
        stream = tmp_path / "graphs.g6"
        import latlab
        lines = [latlab.graph6_encode(latlab.generate(latlab.FamilySpec("cycle", (n,))))
                 for n in (3, 4, 5)]
        stream.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "atlas", str(stream), "--mode", "total", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["value"] for r in records] == [3, 2, 3]
        assert all(not r["cached"] for r in records)
        # second run is served from cache
        code, out, _ = run(capsys, "atlas", str(stream), "--mode", "total", "--json")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["value"] for r in records] == [3, 2, 3]
        assert all(r["cached"] for r in records)

    def test_corrupt_cache_recomputed(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("LATLAB_CACHE_DIR", str(cache))
        stream = tmp_path / "one.g6"
        import latlab
        stream.write_text(latlab.graph6_encode(
            latlab.generate(latlab.FamilySpec("cycle", (4,)))) + "\n")
        run(capsys, "atlas", str(stream), "--mode", "total", "--json")
        entries = list(cache.glob("*.json"))
        assert len(entries) == 1
        doc = json.loads(entries[0].read_text())
        doc["certificate"]["distinct"] = 99  # tamper: the certificate no longer re-verifies
        entries[0].write_text(json.dumps(doc))
        code, out, _ = run(capsys, "atlas", str(stream), "--mode", "total", "--json")
        record = json.loads(out.splitlines()[0])
        assert record["value"] == 2 and not record["cached"]

    def test_record_holds_the_graph6_string_without_the_file_header(self, capsys, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setenv("LATLAB_CACHE_DIR", str(tmp_path / "cache"))
        stream = tmp_path / "k4.g6"
        stream.write_text(">>graph6<<C~\n")
        code, out, _ = run(capsys, "atlas", str(stream), "--mode", "total", "--json")
        record = json.loads(out)
        assert (code, record["graph6"], record["value"]) == (0, "C~", 4)

    def test_cache_directory_that_is_a_file_is_invalid_input(self, capsys, tmp_path,
                                                              monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("LATLAB_CACHE_DIR", str(blocker))
        stream = tmp_path / "one.g6"
        stream.write_text("Bw\n")
        code, out, err = run(capsys, "atlas", str(stream), "--mode", "total")
        assert code == 2 and out == ""
        assert f"cannot write cache directory {blocker}" in err


def _capped(*argv):
    """`latlab <argv>` in a child process limited to 1.5 GB of address space,
    so that a graph built before its size is checked fails there."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    return subprocess.run([sys.executable, "-m", "latlab.cli", *argv], capture_output=True,
                          text=True, timeout=120, preexec_fn=cap,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})


class TestHugeInputs:
    @pytest.mark.parametrize("argv", [
        ["solve", "--family", "cycle:99999999999", "--mode", "total", "--max-millis", "100"],
        ["solve", "HUGE_FILE", "--mode", "total"],
        ["gen", "complete", "200000"],
        ["gen", "complete", "1415"],  # 1,000,405 edges: the least complete graph past the limit
    ], ids=["solve-cycle", "solve-file", "gen-complete-200000", "gen-complete-1415"])
    def test_refused_before_the_graph_is_built(self, tmp_path, argv):
        huge = tmp_path / "huge.txt"
        huge.write_text("p=99999999999\n")
        proc = _capped(*[str(huge) if a == "HUGE_FILE" else a for a in argv])
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert "exceeds the limit of 1000000" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["gen", "cycle", "100000"], ["bounds", "--family", "cycle:100000"],
        ["gen", "complete", "200"], ["gen", "wheel", "1500"],
    ], ids=["gen-cycle-100000", "bounds-cycle-100000", "gen-complete-200", "gen-wheel-1500"])
    def test_sizes_in_use_still_run(self, argv):
        proc = _capped(*argv)
        assert proc.returncode == 0, proc.stderr

"""The package's self-checks must hold under `python -O`, which strips `assert`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latlab
from latlab.cli import main

SRC = Path(latlab.__file__).resolve().parent

# Each case hands a self-check a result it must refuse.
OPTIMIZED_SCRIPT = """
import sys
from latlab import FamilySpec, IntegrityError, Labeling, generate
from latlab.labeling import check
from latlab.solver import _check_witness

assert False, "unreachable under -O"  # proves the asserts really are stripped
p3 = generate(FamilySpec("path", (3,)))
cases = [
    lambda: _check_witness(p3, Labeling((1, 1, 1), (1, 1)), 5),
    lambda: _check_witness(p3, Labeling((1, 3, 2), (5, 4)), 1),
    lambda: check(p3, Labeling((1, 3, 2), (5, 4)), "test", (6, 12, 7)),
]
for case in cases:
    try:
        case()
    except IntegrityError:
        continue
    sys.exit("a self-check passed a bad result under -O")
print("ok")
"""


def test_self_checks_raise_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert is stripped by python -O; raise instead: {found}"


def test_no_recursion_in_the_solver():
    # the search runs one level per label slot, so a recursive solver would
    # refuse or crash on graphs deeper than the interpreter's recursion limit
    tree = ast.parse((SRC / "solver.py").read_text())
    found = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.Call)
             and fn.name == getattr(node.func, "id", getattr(node.func, "attr", None))]
    assert not found, f"solver.py functions call themselves: {found}"


def _absolute_imports():
    """(file:line, module) of each absolute import in the package;
    function-level imports count too."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", name) for name in names)


def test_package_imports_only_the_standard_library():
    # latlab has no runtime dependencies
    allowed = set(sys.stdlib_module_names) | {"latlab"}
    found = [f"{where}: {name}" for where, name in _absolute_imports()
             if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the standard library: {found}"


def test_no_dataclasses_in_package():
    # `dataclasses` imports inspect, ast, dis and tokenize: too slow to load
    # in every short CLI process
    found = [where for where, name in _absolute_imports() if name.split(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported at {found}"


def test_public_names_resolve_lazily():
    for name in latlab.__all__:
        assert getattr(latlab, name) is not None
    namespace = {}
    exec("from latlab import *", namespace)
    assert set(latlab.__all__) <= set(namespace)
    assert set(latlab.__all__) <= set(dir(latlab))
    from latlab import solver  # a submodule, not a public name
    assert solver.solve_min_distinct is latlab.solve_min_distinct
    with pytest.raises(AttributeError):
        latlab.no_such_name


# Runs `latlab <argv>` in the interpreter, then prints the modules it loaded.
FOOTPRINT_SCRIPT = """
import sys
from latlab.cli import main
code = main(sys.argv[1:])
print()
print(code, *sorted(sys.modules))
"""
NEVER_LOADED_BY_CHECKS = {"latlab.solver", "latlab.transforms", "latlab.constructions",
                          "dataclasses"}


def _loaded_by(argv, cache=None):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.pop("LATLAB_CACHE_DIR", None)
    if cache is not None:
        env["LATLAB_CACHE_DIR"] = str(cache)
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT_SCRIPT, *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    *output, last = proc.stdout.splitlines()
    code, *modules = last.split()
    assert code == "0", proc.stderr
    return "\n".join(output), set(modules)


def test_each_command_loads_only_its_modules(tmp_path, monkeypatch, capsys):
    cert = tmp_path / "p5.json"
    assert main(["construct", "odd-path", "5", "--out", str(cert)]) == 0
    stream = tmp_path / "two.g6"
    stream.write_text("Dhc\nCF\n")
    monkeypatch.setenv("LATLAB_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["atlas", str(stream)]) == 0
    assert "cached=False" in capsys.readouterr().out

    for argv in (["verify", str(cert)], ["dot", str(cert)]):
        _, loaded = _loaded_by(argv)
        assert "latlab.certificate" in loaded
        assert not loaded & (NEVER_LOADED_BY_CHECKS | {"latlab.bounds", "latlab.coloring",
                                                       "latlab.cache", "hashlib"}), argv
    out, loaded = _loaded_by(["atlas", str(stream)], tmp_path / "cache")
    assert out.count("cached=True") == 2 and "latlab.cache" in loaded
    assert not loaded & NEVER_LOADED_BY_CHECKS
    out, loaded = _loaded_by(["bounds", "--family", "wheel:5"])
    assert "upper_source=trivial" in out and "latlab.bounds" in loaded
    assert not loaded & {"latlab.solver", "latlab.transforms", "latlab.budget"}


def test_atlas_without_a_cache_makes_no_certificate(tmp_path):
    stream = tmp_path / "two.g6"
    stream.write_text("Dhc\nCF\n")
    out, loaded = _loaded_by(["atlas", str(stream)])
    assert out.count("cached=False") == 2 and "latlab.solver" in loaded
    assert "latlab.certificate" not in loaded

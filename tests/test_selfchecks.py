"""The package's self-checks must hold under `python -O`, which strips `assert`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import latlab

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


def test_package_imports_only_the_standard_library():
    # latlab has no runtime dependencies; function-level imports count too
    allowed = set(sys.stdlib_module_names) | {"latlab"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the standard library: {found}"

"""Which scipy modules each entry point loads.

``import vecot`` loads none; ``vecot --version``, ``certify``,
``disintegrate`` and solves that the tree engine answers compute without
scipy and run with it blocked; the leaf fit
loads LAPACK but not the optimizer package that holds HiGHS; smoothing never
loads ``scipy.stats``, and scalar solves never ``scipy.sparse.csgraph``.  No
module of vecot imports ``scipy.stats`` or ``scipy.sparse``.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vecot
from vecot import build_instance, dumps_instance, instance_to_dict
from vecot.cli import main

# Runs the command line given after the mode, then prints the scipy modules
# loaded by then to stderr, on exit.  A mode other than "normal" names the
# module, "scipy" or one of its packages, whose every import fails with
# ImportError.
CLI_SCRIPT = """
import atexit, json, sys
if sys.argv[1] != "normal":
    sys.modules[sys.argv[1]] = None
atexit.register(lambda: print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)), file=sys.stderr))
from vecot.cli import main
sys.exit(main(sys.argv[2:]))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(vecot.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def cli(mode: str, *argv: str) -> tuple[subprocess.CompletedProcess, list[str]]:
    """The finished process and the scipy modules it had loaded."""
    done = python("-c", CLI_SCRIPT, mode, *argv)
    return done, json.loads(done.stderr.splitlines()[-1])


def test_importing_vecot_loads_no_scipy():
    done = python(
        "-c",
        "import sys, vecot, vecot.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.fixture(scope="module")
def solution(tmp_path_factory) -> str:
    rng = np.random.default_rng(17)
    w = rng.normal(size=(10, 2))
    instance = tmp_path_factory.mktemp("scipy") / "instance.json"
    instance.write_text(dumps_instance(build_instance(rng.uniform(-1, 1, (10, 2)), w - w.mean(0))))
    path = instance.with_name("solution.json")
    assert main(["solve", "--input", str(instance), "--output", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["certify", "--input", "{solution}"],
        ["disintegrate", "--box", "-3", "3", "-3", "3", "-3", "3", "--resolution", "17",
         "--cd", "0,inf"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "33", "--mode", "radial",
         "--center", "0.3", "-0.2"],
    ],
    ids=["version", "certify", "disintegrate-slice", "disintegrate-radial"],
)
def test_commands_without_scipy_match_a_normal_run(capsys, solution, argv):
    argv = [a.format(solution=solution) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exit_:  # --version
        code = exit_.code
    expected = capsys.readouterr().out
    assert code == 0
    done, loaded = cli("scipy", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
    assert loaded == []


@pytest.mark.parametrize(
    "size, m", [(30, 2), (2, 3), (2, 1)], ids=["collinear", "two-point", "two-point-scalar"]
)
def test_tree_engine_solves_without_scipy(tmp_path, size, m):
    rng = np.random.default_rng([size, m])
    t = rng.uniform(-1.0, 1.0, size)
    w = rng.normal(size=(size, m))
    path = tmp_path / "instance.json"
    path.write_text(
        dumps_instance(build_instance(np.column_stack([t, 0.5 * t + 0.25]), w - w.mean(0)))
    )
    normal, loaded = cli("normal", "solve", "--input", str(path))
    assert normal.returncode == 0, normal.stderr
    doc = json.loads(normal.stdout)
    assert (doc["report"]["engine"], doc["certificate"]["verdict"]) == ("tree", "Optimal")
    assert loaded == []
    blocked, _ = cli("scipy", "solve", "--input", str(path))
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


def test_a_disconnected_scalar_solve_loads_no_csgraph(tmp_path):
    # Two unit squares 20 apart: the 12-nearest-neighbour start graph has two
    # components, which the solver joins with component_labels.
    rng = np.random.default_rng(7)
    points = rng.uniform(-1.0, 1.0, (120, 2))
    points[60:, 0] += 20.0
    w = rng.normal(size=(120, 1))
    path = tmp_path / "instance.json"
    path.write_text(dumps_instance(build_instance(points, w - w.mean(0))))
    normal, loaded = cli("normal", "solve", "--input", str(path))
    assert normal.returncode == 0, normal.stderr
    doc = json.loads(normal.stdout)
    assert (doc["report"]["engine"], doc["certificate"]["verdict"]) == ("lp", "Optimal")
    assert "scipy.optimize" in loaded
    assert not any(name.startswith("scipy.sparse.csgraph") for name in loaded)
    blocked, _ = cli("scipy.sparse.csgraph", "solve", "--input", str(path))
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


def test_leaf_extraction_loads_lapack_but_not_the_optimizer(tmp_path):
    # Points of a 3 x 3 grid mapped isometrically: one two-dimensional leaf,
    # whose boundary distances come from a convex hull.
    grid = np.argwhere(np.ones((3, 3))).astype(float)
    doc = {
        "instance": instance_to_dict(build_instance(grid, np.zeros((9, 2)))),
        "coupling": {"pairs": [], "flows": []},
        "potential": grid.tolist(),
    }
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    done, loaded = cli("normal", "leaves", "--input", str(path))
    assert done.returncode == 0, done.stderr
    assert [leaf["dimension"] for leaf in json.loads(done.stdout)["decomposition"]["leaves"]] == [2]
    assert {"scipy.linalg", "scipy.spatial"} <= set(loaded)
    assert not any(name.startswith("scipy.optimize") for name in loaded)


def test_smoothing_loads_no_scipy_stats():
    argv = ["counterexample", "--preset", "orthant", "--m", "4", "--smooth-eps", "0.05",
            "--points-per-ball", "6"]
    normal, loaded = cli("normal", *argv)
    assert normal.returncode == 0, normal.stderr
    assert json.loads(normal.stdout)["smoothed"]["size"] == 30
    assert not any(name.startswith("scipy.stats") for name in loaded)
    blocked, _ = cli("scipy.stats", *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


def imported_modules() -> list[tuple[str, str]]:
    """``(file name, imported name)`` of every import statement in vecot."""
    found = []
    for path in pathlib.Path(vecot.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found += [(path.name, f"{node.module}.{alias.name}") for alias in node.names]
    return found


def test_no_module_of_vecot_imports_scipy_stats():
    assert [(file, name) for file, name in imported_modules() if name.startswith("scipy.stats")] == []


def test_no_module_of_vecot_imports_scipy_sparse():
    assert [(file, name) for file, name in imported_modules() if name.startswith("scipy.sparse")] == []

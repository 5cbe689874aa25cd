"""Which scipy modules each entry point loads.

``import vecot`` loads none; ``vecot --version``, ``certify``,
``disintegrate``, solves that the tree engine answers, and ``leaves`` and
``massbalance`` without a convex hull compute without scipy and run with it
blocked: the leaf fit is numpy's.  A leaf hull loads ``scipy.spatial`` but
not the optimizer package that holds HiGHS; smoothing never loads
``scipy.stats``, and scalar solves never ``scipy.sparse.csgraph``.  No
module of vecot imports ``scipy.stats`` or ``scipy.sparse``.
"""

from __future__ import annotations

import ast
import json
import pathlib

import numpy as np
import pytest

import vecot
from vecot import build_instance, dumps_instance, instance_to_dict
from vecot.cli import main

from harness import cli, collinear_instance, python, seeded_instance, two_clusters


def test_importing_vecot_loads_no_scipy():
    done = python(
        "-c",
        "import sys, vecot, vecot.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict[str, str]:
    """Paths of a solved m = 2 and a solved 100-point scalar instance, and of a
    hand-built ray: points 0, 1, 2 on the line with u = x and no coupling."""
    folder = tmp_path_factory.mktemp("scipy")
    paths = {}
    rng = np.random.default_rng(17)
    w = rng.normal(size=(10, 2))
    for name, instance in [
        ("solution", build_instance(rng.uniform(-1, 1, (10, 2)), w - w.mean(0))),
        ("scalar", seeded_instance(100, 1)),
    ]:
        source = folder / f"{name}-instance.json"
        source.write_text(dumps_instance(instance))
        paths[name] = str(folder / f"{name}.json")
        assert main(["solve", "--input", str(source), "--output", paths[name]]) == 0
    line = np.arange(3.0)[:, None]
    ray = {
        "instance": instance_to_dict(build_instance(line, np.zeros((3, 1)))),
        "coupling": {"pairs": [], "flows": []},
        "potential": line.tolist(),
    }
    paths["ray"] = str(folder / "ray.json")
    pathlib.Path(paths["ray"]).write_text(json.dumps(ray))
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["certify", "--input", "{solution}"],
        ["disintegrate", "--box", "-3", "3", "-3", "3", "-3", "3", "--resolution", "17",
         "--cd", "0,inf"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "33", "--mode", "radial",
         "--center", "0.3", "-0.2"],
        ["disintegrate", "--box", "-3", "3", "-3", "3", "-3", "3", "--resolution", "33",
         "--cd", "0,inf"],
        ["disintegrate", "--box", "-4", "4", "-4", "4", "--resolution", "65", "--mode", "radial",
         "--center", "0.3", "-0.2"],
        ["leaves", "--input", "{ray}"],
        ["massbalance", "--input", "{ray}"],
        ["leaves", "--input", "{scalar}"],
        ["massbalance", "--input", "{scalar}"],
    ],
    ids=["version", "certify", "disintegrate-slice", "disintegrate-radial", "disintegrate-slice-33",
         "disintegrate-radial-65", "leaves-ray", "massbalance-ray", "leaves-scalar",
         "massbalance-scalar"],
)
def test_commands_without_scipy_match_a_normal_run(capsys, documents, argv):
    argv = [a.format(**documents) for a in argv]
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
    "instance",
    [collinear_instance(30, 2, [30, 2]), collinear_instance(2, 3, [2, 3]),
     collinear_instance(2, 1, [2, 1]), collinear_instance(30, 2, [30, 2, 2]),
     build_instance([[0.0, 0.0], [0.6, 0.8]], [[1.5], [-1.5]])],
    ids=["collinear", "two-point", "two-point-scalar", "collinear-battery-seed",
         "two-point-scalar-fixed"],
)
def test_tree_engine_solves_without_scipy(tmp_path, instance):
    path = tmp_path / "instance.json"
    path.write_text(dumps_instance(instance))
    normal, loaded = cli("normal", "solve", "--input", str(path))
    assert normal.returncode == 0, normal.stderr
    doc = json.loads(normal.stdout)
    assert (doc["report"]["engine"], doc["certificate"]["verdict"]) == ("tree", "Optimal")
    assert loaded == []
    blocked, _ = cli("scipy", "solve", "--input", str(path))
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


def test_a_disconnected_scalar_solve_loads_no_csgraph(tmp_path):
    # The start graph has two components, which the solver joins with
    # component_labels.
    path = tmp_path / "instance.json"
    path.write_text(dumps_instance(two_clusters()))
    normal, loaded = cli("normal", "solve", "--input", str(path))
    assert normal.returncode == 0, normal.stderr
    doc = json.loads(normal.stdout)
    assert (doc["report"]["engine"], doc["certificate"]["verdict"]) == ("lp", "Optimal")
    assert "scipy.optimize" in loaded
    assert not any(name.startswith("scipy.sparse.csgraph") for name in loaded)
    blocked, _ = cli("scipy.sparse.csgraph", "solve", "--input", str(path))
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


def test_a_leaf_hull_loads_scipy_spatial_but_not_the_optimizer(tmp_path):
    # Points of a 3 x 3 grid mapped isometrically: one two-dimensional leaf,
    # whose boundary distances come from a convex hull.  The hull, not the
    # fit, loads scipy: scipy.spatial brings scipy.linalg with it.
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

"""The console-script battery in one child process at OPENBLAS_NUM_THREADS=1
and one at 2: results are bit-identical at any BLAS thread count (README)."""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

from vecot import dumps_instance

from harness import collinear_instance, python, seeded_instance, stdlib_layout, two_clusters

# Runs each command line in this one process, its stdout to <out>/<name>.json,
# and prints the exit codes.  The mode blocks a module as in CLI_SCRIPT.
BATTERY_SCRIPT = """
import contextlib, json, sys
if sys.argv[1] != "normal":
    sys.modules[sys.argv[1]] = None
from vecot.cli import main
inputs, out, commands = sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
codes = {}
for name, argv in commands.items():
    with open(f"{out}/{name}.json", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        codes[name] = main([a.format(inputs=inputs, out=out) for a in argv])
print(json.dumps(codes))
"""

# Edge generation, the interior-point method (vector3's pinned Newton system
# has order 117) and leaves on components of hundreds of points (scalar1000);
# then the tree engine and a start graph joined across components.
SEEDED = {
    "scalar20": seeded_instance(20, 1), "scalar": seeded_instance(100, 1),
    "vector": seeded_instance(30, 2), "vector3": seeded_instance(40, 3),
    "scalar1000": seeded_instance(1000, 1),
}
INSTANCES = {**SEEDED, "collinear": collinear_instance(30, 2, [30, 2, 2]), "clusters": two_clusters()}
COMMANDS = {}
for name in INSTANCES:
    COMMANDS[f"{name}.solution"] = ["solve", "--input", f"{{inputs}}/{name}.json"]
    for command in ("certify", "leaves", "massbalance"):
        COMMANDS[f"{name}.{command}"] = [command, "--input", f"{{out}}/{name}.solution.json"]
# The lines run every CD branch: N infinite, finite, 1, and a negative kappa.
# The wide cells' steps have a partial product that overflows.
_CUBE = ["disintegrate", "--box", "-3", "3", "-3", "3", "-3", "3", "--resolution", "17"]
COMMANDS.update({
    "counterexample": ["counterexample", "--preset", "orthant", "--m", "4", "--smooth-eps", "0.05",
                       "--points-per-ball", "6"],
    "slice": [*_CUBE, "--m", "2", "--csv-dir", "{out}/slice"],
    "lines": [*_CUBE, "--cd", "0,inf", "--cd", "0.5,5", "--cd", "0,1", "--cd=-1,3", "--csv-dir", "{out}/lines"],
    "radial": [*_CUBE, "--mode", "radial", "--center", "0.2", "-0.1", "0.3", "--directions", "40",
               "--cd", "0,3", "--csv-dir", "{out}/radial"],
    "wide-cells": ["disintegrate", "--family", "uniform", "--box", "0", "1e200", "0", "1e200", "0",
                   "1e-250", "--resolution", "2"],
})


def battery(mode: str, out, inputs, commands: dict, **env: str) -> dict[str, str]:
    """Runs ``commands`` in one child process with warnings as errors, each
    exiting 0 with nothing on stderr; the digest of each file they wrote."""
    out.mkdir()
    done = python("-W", "error", "-c", BATTERY_SCRIPT, mode, str(inputs), str(out),
                  json.dumps(commands), **env)
    assert done.returncode == 0, done.stderr
    assert (json.loads(done.stdout), done.stderr) == (dict.fromkeys(commands, 0), "")
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_the_battery_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    inputs, out = tmp_path / "inputs", tmp_path / "1"
    inputs.mkdir()
    for name, instance in INSTANCES.items():
        (inputs / f"{name}.json").write_text(dumps_instance(instance))
    with ThreadPoolExecutor(2) as pool:
        one, two = pool.map(
            lambda threads: battery("normal", tmp_path / threads, inputs, COMMANDS,
                                    OPENBLAS_NUM_THREADS=threads),
            ["1", "2"],
        )
    assert len(one) > len(COMMANDS) and one == two
    for path in [*inputs.iterdir(), *out.glob("*.json")]:
        text = path.read_text(encoding="utf-8")
        assert text == stdlib_layout(text), path.name
    for doc in [f"{name}.{kind}" for name in SEEDED for kind in ("solution", "certify")]:
        assert json.loads((out / f"{doc}.json").read_text())["certificate"]["verdict"] == "Optimal", doc
    # Certify prints the same documents with every scipy import failing.
    certify = {f"{name}.certify": ["certify", "--input", f"{{inputs}}/{name}.solution.json"]
               for name in SEEDED}
    blocked = battery("scipy", tmp_path / "blocked", out, certify)
    assert blocked == {f"{name}.json": one[f"{name}.json"] for name in certify}

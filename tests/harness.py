"""Child processes on this vecot, the stdlib's JSON layout, and seeded instances."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import vecot
from vecot import build_instance

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


def python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` on this vecot, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(vecot.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=120,
    )


def cli(mode: str, *argv: str) -> tuple[subprocess.CompletedProcess, list[str]]:
    """The finished process and the scipy modules it had loaded."""
    done = python("-c", CLI_SCRIPT, mode, *argv)
    return done, json.loads(done.stderr.splitlines()[-1])


def stdlib_layout(text: str) -> str:
    """``text`` as ``json.dumps(sort_keys=True, indent=2, allow_nan=False)`` writes it."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"


def seeded_instance(size: int, m: int):
    """``size`` points uniform in [-1, 1]^2 with centred normal R^m weights."""
    rng = np.random.default_rng([size, 2, m])
    w = rng.normal(size=(size, m))
    return build_instance(rng.uniform(-1.0, 1.0, (size, 2)), w - w.mean(axis=0))


def collinear_instance(size: int, m: int, seed: list[int]):
    """``size`` points on the line y = x/2 + 1/4 with centred normal R^m weights."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size)
    w = rng.normal(size=(size, m))
    return build_instance(np.column_stack([t, 0.5 * t + 0.25]), w - w.mean(axis=0))


def two_clusters():
    """120 points in two squares 20 apart: a disconnected 12-NN start graph."""
    rng = np.random.default_rng(7)
    points = rng.uniform(-1.0, 1.0, (120, 2))
    points[60:, 0] += 20.0
    w = rng.normal(size=(120, 1))
    return build_instance(points, w - w.mean(axis=0))

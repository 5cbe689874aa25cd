"""The four workloads: seeded inputs, the timed pipeline of one item, its checks.

Each workload draws its instances once from a fixed master stream, which is
part of the workload's definition, and presents them under a seed-drawn
isometry: the points are rotated or reflected, translated and put in a new
order, and the weight vectors get an orthogonal map of R^m.  The transport
norm is invariant under all of these, so every seed asks for the same work
on different arrays, and the spread between runs measures the program, not
the draw.  The grid workload instead draws the Gaussian's centre and width.

An item has three steps.  ``reference`` computes what the outputs must match
and is not timed.  ``run`` is the timed pipeline: calls into vecot and
nothing else.  ``assess`` turns what ``run`` returned into a quality record
(status, iterations, relative gap, verdict, edge count, ...) and a list of
failed checks; it is not timed either.

All calls go through attribute lookups on the ``vecot`` package at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

import vecot

WORKLOADS = ("vector-batch", "vector-hard", "scalar-files", "grid-needles")

CERTIFY_TOL = 1e-6
PRESET_RTOL = 1e-6  # solve value against analytic_optimum
ORACLE_RTOL = 1e-9  # n = m = 1 solve value against line_oracle
GRID_TOL = 1e-12  # slice reassembly L1 and needle weight sum


def digest(*values) -> str:
    """Hash of exact values: floats by their hex form, the rest by repr."""
    text = "|".join(v.hex() if isinstance(v, float) else repr(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relative_error(value: float, expected: float) -> float:
    return abs(value - expected) / max(abs(expected), 1e-300)


def _orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def present(rng: np.random.Generator, points, weights) -> tuple[np.ndarray, np.ndarray]:
    """The same measure in seed-drawn coordinates (see the module docstring)."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = rng.permutation(len(points))
    moved = points @ _orthogonal(rng, points.shape[1]).T + rng.uniform(-1.0, 1.0, points.shape[1])
    turned = weights @ _orthogonal(rng, weights.shape[1]).T
    turned -= turned.mean(axis=0)
    return moved[order], turned[order]


def _random_measure(master: np.random.Generator, size: int, n: int, m: int):
    points = master.uniform(-1.0, 1.0, size=(size, n))
    weights = master.normal(size=(size, m))
    return points, weights - weights.mean(axis=0)


def _instance_quality(report, verdict: str, edges: int) -> dict:
    return {
        "status": report["status"],
        "iterations": report["iterations"],
        "primal_value": report["primal_value"],
        "dual_value": report["dual_value"],
        "rel_gap": report["gap"] / max(abs(report["primal_value"]), 1e-300),
        "verdict": verdict,
        "edges": edges,
    }


@dataclass
class InstanceItem:
    """One measure through the library pipeline, solve to mass balance."""

    name: str
    points: np.ndarray
    weights: np.ndarray
    spec: object = None  # CounterexampleSpec whose analytic optimum is the reference
    expected: float | None = None
    rtol: float = 0.0
    kind: ClassVar[str] = "instance"

    def reference(self) -> None:
        if self.spec is not None:
            self.expected, self.rtol = vecot.analytic_optimum(self.spec)[2], PRESET_RTOL
        elif self.points.shape[1] == 1 and self.weights.shape[1] == 1:
            instance = vecot.build_instance(self.points, self.weights)
            self.expected, self.rtol = vecot.line_oracle(instance), ORACLE_RTOL

    def run(self):
        instance = vecot.build_instance(self.points, self.weights)
        coupling, potential, report = vecot.solve(instance)
        cert = vecot.certify(instance, coupling, potential, tol=CERTIFY_TOL)
        decomposition = vecot.extract_leaves(vecot.isometry_graph(potential), potential)
        balance = vecot.mass_balance_report(instance, decomposition)
        return report, cert, coupling.edge_count, decomposition, balance

    def assess(self, out) -> tuple[dict, list[str]]:
        report, cert, edges, decomposition, balance = out
        quality = _instance_quality(vars(report), cert.verdict, edges)
        quality["leaves"] = len(decomposition.leaves)
        quality["balance"] = balance.verdict
        return quality, check_value(quality["primal_value"], self.expected, self.rtol)


@dataclass
class FileItem:
    """One instance file through the CLI in process: solve, then certify,
    leaves and massbalance reading the solution document back."""

    name: str
    input_path: str
    expected: tuple[float, float] | None = None  # library (primal, dual)
    outputs: dict = field(init=False)
    kind: ClassVar[str] = "files"

    def __post_init__(self):
        stem = os.path.splitext(self.input_path)[0]
        self.outputs = {
            cmd: f"{stem}.{cmd}.json" for cmd in ("solve", "certify", "leaves", "massbalance")
        }

    def reference(self) -> None:
        with open(self.input_path, encoding="utf-8") as fh:
            instance = vecot.instance_from_dict(json.load(fh))
        _, _, report = vecot.solve(instance)
        self.expected = (report.primal_value, report.dual_value)

    def run(self):
        solution = self.outputs["solve"]
        codes = {"solve": vecot.cli.main(["solve", "--input", self.input_path, "--output", solution])}
        for cmd in ("certify", "leaves", "massbalance"):
            codes[cmd] = vecot.cli.main([cmd, "--input", solution, "--output", self.outputs[cmd]])
        return codes

    def assess(self, codes) -> tuple[dict, list[str]]:
        failures = [f"vecot {cmd} exited {code}" for cmd, code in codes.items() if code != 0]
        if failures:
            return {"exit_codes": codes}, failures
        docs = {}
        for cmd, path in self.outputs.items():
            with open(path, encoding="utf-8") as fh:
                docs[cmd] = json.load(fh)
        solved = docs["solve"]
        quality = _instance_quality(
            solved["report"],
            docs["certify"]["certificate"]["verdict"],
            len(solved["coupling"]["pairs"]),
        )
        quality["leaves"] = len(docs["leaves"]["decomposition"]["leaves"])
        quality["balance"] = docs["massbalance"]["mass_balance"]["verdict"]
        solution_bytes = os.path.getsize(self.outputs["solve"])
        quality["bytes_read"] = os.path.getsize(self.input_path) + 3 * solution_bytes
        quality["bytes_written"] = sum(os.path.getsize(p) for p in self.outputs.values())
        got = (quality["primal_value"], quality["dual_value"])
        if [float(v).hex() for v in got] != [float(v).hex() for v in self.expected]:
            failures.append(f"CLI solve (primal, dual) {got!r} != library {self.expected!r}")
        return quality, failures


@dataclass
class GridItem:
    """One needle decomposition of a tabulated density, and its reassembly."""

    name: str
    density: object  # GridDensity
    mode: str  # "slice" or "radial"
    center: np.ndarray
    rays: int = 0
    kind: ClassVar[str] = "grid"

    def reference(self) -> None:
        pass

    def run(self):
        if self.mode == "slice":
            needles, weights = vecot.slice_disintegration(self.density, 1)
        else:
            needles, weights = vecot.radial_disintegration(
                self.density, self.center, n_directions=self.rays
            )
        rebuilt = vecot.reassemble(needles, weights, self.density)
        l1 = vecot.l1_distance(rebuilt, self.density)
        cd = []
        if self.mode == "slice":
            cd = [vecot.cd_check_1d(needle, 0.0, math.inf) for needle in needles]
        return len(needles), weights, l1, cd

    def assess(self, out) -> tuple[dict, list[str]]:
        count, weights, l1, cd = out
        quality = {
            "mode": self.mode,
            "needles": count,
            "weight_sum": float(weights.sum()),
            "l1": l1,
            "cd_passed": sum(r.passed for r in cd),
            "cd_worst": min((r.worst_violation for r in cd), default=math.inf),
        }
        return quality, check_grid(self.mode, quality)


def check_value(value: float, expected: float | None, rtol: float) -> list[str]:
    if expected is None or relative_error(value, expected) <= rtol:
        return []
    return [f"value {value!r} differs from reference {expected!r} by more than {rtol:g} relative"]


def check_grid(mode: str, quality: dict) -> list[str]:
    failures = []
    if abs(quality["weight_sum"] - 1.0) > GRID_TOL:
        failures.append(f"needle weights sum to {quality['weight_sum']!r}, not 1")
    if mode == "slice":
        if quality["l1"] > GRID_TOL:
            failures.append(f"slice reassembly L1 {quality['l1']!r} > {GRID_TOL:g}")
        if quality["cd_passed"] != quality["needles"]:
            failures.append(
                f"{quality['needles'] - quality['cd_passed']} Gaussian slice needles fail CD(0, inf)"
            )
    return failures


def item_digest(kind: str, quality: dict) -> str:
    if kind == "grid":
        return digest(quality["l1"], quality["weight_sum"], quality["needles"], quality["cd_worst"])
    return digest(quality.get("primal_value"), quality.get("dual_value"), quality.get("status"))


def succeeded(kind: str, quality: dict, failures: list[str]) -> bool:
    if failures:
        return False
    if kind == "grid":
        return True
    return quality["status"] == "Converged" and quality["verdict"] == "Optimal"


# ---------------------------------------------------------------------------
# Input generation (the timed set-up).  ``smoke`` shrinks every workload so the
# benchmark's own tests run in seconds.
# ---------------------------------------------------------------------------


def _vector_batch(rng, smoke: bool) -> list:
    # The master stream is the criterion-2 batch of the acceptance tests.
    master = np.random.default_rng(2024)
    items = []
    for k in range(6 if smoke else 100):
        size, n, m = int(master.integers(2, 26)), int(master.integers(1, 5)), int(master.integers(1, 4))
        points, weights = present(rng, *_random_measure(master, size, n, m))
        items.append(InstanceItem(f"batch-{k:03d}-N{size}-n{n}-m{m}", points, weights))
    return items


def _vector_hard(rng, smoke: bool) -> list:
    specs = [("paper", vecot.paper_preset())]
    specs += [(f"orthant-m{m}", vecot.orthant_spec(m)) for m in ((3,) if smoke else (3, 4))]
    items = [InstanceItem(name, *present(rng, s.anchors, s.vectors), spec=s) for name, s in specs]
    ladder = (0.2,) if smoke else (0.2, 0.1, 0.05)
    per_ball = 2 if smoke else 4
    for eps in ladder:
        inst = vecot.smoothed_instance(vecot.paper_preset(), eps, per_ball)
        points, weights = present(rng, inst.cloud.points, inst.measure.weights)
        items.append(InstanceItem(f"smoothed-eps{eps}", points, weights))
    master = np.random.default_rng(0)
    for size, n, m in ((12, 2, 2),) if smoke else ((50, 2, 2), (40, 3, 3)):
        points, weights = present(rng, *_random_measure(master, size, n, m))
        items.append(InstanceItem(f"random-N{size}-n{n}-m{m}", points, weights))
    return items


def _scalar_files(rng, smoke: bool, workdir: str) -> list:
    master = np.random.default_rng(400)
    items = []
    for size, n in ((30, 2), (40, 3)) if smoke else ((300, 2), (400, 3)):
        points, weights = present(rng, *_random_measure(master, size, n, 1))
        path = os.path.join(workdir, f"scalar-N{size}-n{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(vecot.dumps_instance(vecot.build_instance(points, weights)))
        items.append(FileItem(f"scalar-N{size}-n{n}", path))
    return items


def _grid_needles(rng, smoke: bool) -> list:
    items = []
    for dim, cells, mode, rays in ((3, 97, "slice", 0), (2, 513, "radial", 512)):
        if smoke:
            cells, rays = (17, 0) if mode == "slice" else (33, 16)
        center = rng.uniform(-0.5, 0.5, dim)
        width = rng.uniform(0.9, 1.1)

        def gaussian(x, center=center, width=width):
            return np.exp(-0.5 * ((x - center) ** 2).sum(axis=1) / width**2)

        density = vecot.tabulate_density([[-4.0, 4.0]] * dim, cells, gaussian)
        items.append(GridItem(f"gaussian-{cells}^{dim}-{mode}", density, mode, center, rays))
    return items


def generate(workload: str, seed: int, smoke: bool, workdir: str) -> list:
    """The workload's items for this seed: same seed, same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "vector-batch":
        return _vector_batch(rng, smoke)
    if workload == "vector-hard":
        return _vector_hard(rng, smoke)
    if workload == "scalar-files":
        return _scalar_files(rng, smoke, workdir)
    if workload == "grid-needles":
        return _grid_needles(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")

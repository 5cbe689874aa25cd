"""Tests of the benchmark itself, on reduced-size (smoke) workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import vecot  # noqa: E402
import vecot.cli  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def smoke(workload, tmp_path, trace=False, seed=5):
    return bench.run(workload, seed, 0.0, trace, True, 0.0, str(tmp_path))[0]


def test_benchmark_json_names_every_metric_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, tmp_path):
    result = smoke(workload, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = bench.per_layer_units() if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def test_same_seed_gives_same_inputs_and_other_seeds_other_arrays(tmp_path):
    a = workloads.generate("vector-batch", 3, True, str(tmp_path))
    b = workloads.generate("vector-batch", 3, True, str(tmp_path))
    c = workloads.generate("vector-batch", 4, True, str(tmp_path))
    for x, y, z in zip(a, b, c):
        assert (x.points == y.points).all() and (x.weights == y.weights).all()
        assert x.points.shape == z.points.shape and not (x.points == z.points).all()


def test_traced_shares_follow_the_layers(tmp_path):
    batch = smoke("vector-batch", tmp_path, trace=True)["metrics"]
    hard = smoke("vector-hard", tmp_path, trace=True)["metrics"]
    files = smoke("scalar-files", tmp_path, trace=True)["metrics"]
    grid = smoke("grid-needles", tmp_path, trace=True)["metrics"]
    assert hard["solver.solve.mge2.s"]["value"] > 0.5 * hard["trace.pass_s"]["value"]
    assert files["solver.solve.mge2.s"]["value"] == 0 and files["solver.solve.m1.s"]["value"] > 0
    spent = sum(v["value"] for k, v in grid.items() if k.startswith("disintegration.") and k.endswith(".s"))
    assert spent > 0.9 * grid["trace.pass_s"]["value"]
    assert files["cli.self.s"]["value"] > 0
    assert batch["cli.self.s"]["value"] == hard["cli.self.s"]["value"] == grid["cli.self.s"]["value"] == 0
    assert files["cli.bytes_written"]["value"] > 0 and files["cli.bytes_read"]["value"] > 0


def test_speedometer_probes_inside_the_region_and_takes_them_out():
    previous = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with pytest.raises(ZeroDivisionError):
        with speed.Speedometer() as meter:
            while time.perf_counter() - start < 10 * speed.PERIOD_S:
                pass
            1 / 0
    inside = meter.probes[1:-1]
    assert len(inside) >= 5
    assert 0 < meter.wall_s <= time.perf_counter() - start - sum(inside)
    assert meter.reference_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_value_checks_fire_on_corrupted_values():
    assert workloads.check_value(2.0, 2.0, 0.0) == []
    assert workloads.check_value(2.0, None, 0.0) == []
    assert workloads.check_value(2.0 * (1 + 2e-6), 2.0, workloads.PRESET_RTOL)
    assert workloads.check_value(1.0 + 1e-8, 1.0, workloads.ORACLE_RTOL)


def test_grid_checks_fire_on_corrupted_outputs():
    good = {"needles": 4, "weight_sum": 1.0, "l1": 1e-15, "cd_passed": 4, "cd_worst": 0.5}
    assert workloads.check_grid("slice", good) == []
    for key, bad in (("l1", 1e-9), ("weight_sum", 1.0 + 1e-9), ("cd_passed", 3)):
        assert workloads.check_grid("slice", {**good, key: bad})
    assert workloads.check_grid("radial", {**good, "l1": 0.3}) == []


def test_preset_check_fires_when_the_solve_value_is_off(monkeypatch, tmp_path):
    solve = vecot.solve

    def off(instance, params=None):
        coupling, potential, report = solve(instance, params)
        return coupling, potential, dataclasses.replace(report, primal_value=report.primal_value * (1 + 1e-4))

    monkeypatch.setattr(vecot, "solve", off)
    result = smoke("vector-hard", tmp_path)
    assert not result["correct"] and result["failed"] >= 2  # paper and orthant
    assert result["metrics"]["certified_frac"]["value"] < 1


def test_determinism_check_fires_when_passes_disagree(monkeypatch, tmp_path):
    solve = vecot.solve
    calls = []

    def drifting(instance, params=None):
        coupling, potential, report = solve(instance, params)
        calls.append(1)
        return coupling, potential, dataclasses.replace(report, dual_value=report.dual_value + len(calls))

    monkeypatch.setattr(vecot, "solve", drifting)
    result = smoke("vector-batch", tmp_path)
    assert not result["correct"] and result["failed"] >= result["attempted"] // 2


def test_cli_check_fires_on_a_corrupted_solution_document(monkeypatch, tmp_path):
    main = vecot.cli.main

    def corrupting(argv):
        code = main(argv)
        if argv[0] == "solve":
            path = argv[argv.index("--output") + 1]
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["report"]["primal_value"] = math.nextafter(doc["report"]["primal_value"], math.inf)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return code

    monkeypatch.setattr(vecot.cli, "main", corrupting)
    result = smoke("scalar-files", tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_reassembly_check_fires_on_a_corrupted_grid(monkeypatch, tmp_path):
    reassemble = vecot.reassemble

    def smudged(needles, weights, target):
        out = reassemble(needles, weights, target)
        samples = out.samples.copy()
        samples.flat[samples.argmax()] *= 1.01
        return vecot.GridDensity(box=out.box, samples=samples)

    monkeypatch.setattr(vecot, "reassemble", smudged)
    result = smoke("grid-needles", tmp_path)
    assert not result["correct"] and result["failed"] == bench.MIN_PASSES  # the slice item, every pass


def test_an_exception_is_a_failed_operation(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise vecot.VecotError("boom")

    monkeypatch.setattr(vecot, "certify", broken)
    result = smoke("vector-batch", tmp_path)
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["certified_frac"]["value"] == 0


def test_run_exits_nonzero_when_a_check_fails(monkeypatch):
    monkeypatch.setattr(vecot, "certify", lambda *a, **k: 1 / 0)
    args = ["--workload", "vector-batch", "--seed", "1", "--seconds", "0", "--smoke"]
    assert run.main(args) == 1


def test_command_line_run_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-needles", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == set(bench.END_TO_END)


def test_run_without_the_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vector-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

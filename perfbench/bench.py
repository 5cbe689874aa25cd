"""One benchmark run: set-up, references, timed passes, checks and metrics.

A run is a single process and a closed loop: each item starts only after the
previous one has returned.  It repeats whole passes over the workload's items
until ``seconds`` have gone by, and makes at least two: every item's
digest (primal value, dual value, status) must be the same in every pass,
and an item's time is its median over the passes.

Items and set-up are timed under a Speedometer, and the end-to-end times
are reported at its reference host speed (see speed.py); the wall times are
kept beside them in the details file.  With tracing on, the first pass runs
untraced and the later passes traced; the per-layer metrics come from the
traced passes, in wall seconds, and the tracing overhead is the difference
between the two kinds of pass at the reference speed.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

import numpy as np
import scipy

import vecot
import workloads
from speed import Speedometer
from tracing import Tracer

SETUP_REPEATS = 5
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "certified_frac": "ratio",
    "peak_rss_mib": "MiB",
}

# Busy seconds per traced pass: the self time of spans of this name.
SELF_SECONDS = (
    "core.build_instance",
    "core.distance_matrix",
    "core.lipschitz_constant",
    "core.instance_from_dict",
    "core.instance_to_dict",
    "solver.solve.m1",
    "solver.solve.mge2",
    "certifier.certify",
    "leaves.isometry_graph",
    "leaves.extract_leaves",
    "leaves.transport_set",
    "mass_balance.mass_balance_report",
    "disintegration.slice_disintegration",
    "disintegration.radial_disintegration",
    "disintegration.reassemble",
    "disintegration.l1_distance",
    "disintegration.cd_check_1d",
)
CLI_COMMANDS = ("solve", "certify", "leaves", "massbalance")
# Counts per traced pass, taken by the tracer from what the calls returned.
COUNTS = (
    "solver.calls",
    "solver.iterations",
    "solver.iterlimit_count",
    "solver.edges",
    "certifier.slack_violations",
    "leaves.leaf_count",
    "leaves.boundary_count",
    "mass_balance.transport_sets",
    "mass_balance.balance_fails",
    "disintegration.needles",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name + ".s": "s" for name in SELF_SECONDS}
    units.update({f"cli.main.{cmd}.s": "s" for cmd in CLI_COMMANDS})
    units.update({"cli.self.s": "s", "vecot.other.s": "s", "bench.unspanned.s": "s"})
    units.update({name: "count" for name in COUNTS})
    units.update({"solver.converged_frac": "ratio", "certifier.optimal_frac": "ratio"})
    units.update({"disintegration.radial_l1": "L1", "cli.bytes_written": "B", "cli.bytes_read": "B"})
    units.update({"trace.pass_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def environment(seed: int) -> dict:
    try:
        from scipy.optimize._highspy import _core

        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "vecot": vecot.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def run_item(item, pass_no: int, tracer: Tracer | None) -> dict:
    """Run one item under a Speedometer (see speed.py).  A traced item is
    probed only before and after, so that no probe falls inside a span."""
    if tracer is not None:
        tracer.item = f"{pass_no}/{item.name}"
    meter = Speedometer() if tracer is None else Speedometer(period_s=0.0)
    quality: dict = {}
    failures: list[str] = []
    gc.collect()  # every item starts from a collected heap
    try:
        with meter:
            out = item.run()
        quality, failures = item.assess(out)
    except Exception as exc:  # a failed operation: record it and go on
        failures = ["".join(traceback.format_exception_only(exc)).strip()]
    return {
        "pass": pass_no,
        "item": item.name,
        "kind": item.kind,
        "seconds": meter.wall_s,
        "reference_s": meter.reference_s,
        "probes": len(meter.probes),
        "traced": tracer is not None,
        "quality": quality,
        "digest": workloads.item_digest(item.kind, quality) if quality else None,
        "failures": failures,
    }


def measure(items: list, seconds: float, tracer: Tracer | None) -> list[dict]:
    """Whole passes until ``seconds`` have passed, at least MIN_PASSES."""
    outcomes: list[dict] = []
    passes = 0
    start = time.perf_counter()
    try:
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            traced = tracer is not None and passes > 0
            if traced and not tracer.installed:
                tracer.install()
            outcomes += [run_item(item, passes, tracer if traced else None) for item in items]
            passes += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    first = {o["item"]: o["digest"] for o in outcomes if o["pass"] == 0}
    for o in outcomes:
        if o["digest"] != first[o["item"]]:
            o["failures"].append(f"digest {o['digest']} differs from pass 0 ({first[o['item']]})")
        o["certified"] = workloads.succeeded(o["kind"], o["quality"], o["failures"])
    return outcomes


def pass_seconds(outcomes: list[dict], traced: bool, key: str = "seconds") -> list[float]:
    totals: dict[int, float] = {}
    for o in outcomes:
        if o["traced"] == traced:
            totals[o["pass"]] = totals.get(o["pass"], 0.0) + o[key]
    return list(totals.values())


def tail(values: list[float]) -> tuple[str, float]:
    """p90 when at least ten values lie above it, else the maximum."""
    if len(values) >= 20:
        return "p90", float(np.percentile(values, 90))
    return "max", max(values)


def item_times(items, outcomes: list[dict], key: str) -> list[float]:
    """Each item's median over the untraced passes of ``key``."""
    return [
        statistics.median(o[key] for o in outcomes if o["item"] == item.name and not o["traced"])
        for item in items
    ]


def end_to_end(items, outcomes, setup_s: float, lines: list[str]) -> tuple[dict, dict]:
    """The end-to-end metrics, times at the reference speed; and the same
    times in wall seconds, for the details file."""
    passes = len(pass_seconds(outcomes, traced=False))
    certified = sum(o["certified"] for o in outcomes)
    timed = {}
    for key in ("reference_s", "seconds"):
        times = item_times(items, outcomes, key)
        label, slowest = tail(times)
        timed[key] = {
            "items_per_s": len(times) / sum(times),
            "item_p50_s": statistics.median(times),
            "item_tail_s": slowest,
        }
    metrics = {
        "setup_s": setup_s,
        **timed["reference_s"],
        "certified_frac": certified / len(outcomes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = timed["seconds"]
    n = len(items)
    lines += [
        f"items_per_s    {metrics['items_per_s']:.6g} 1/s  {n} items over the sum of their median "
        f"times in {passes} untraced passes (wall {wall['items_per_s']:.4g})",
        f"item_p50_s     {metrics['item_p50_s']:.6g} s  median of {n} item times "
        f"(wall {wall['item_p50_s']:.4g})",
        f"item_tail_s    {metrics['item_tail_s']:.6g} s  {label} of {n} item times "
        f"(wall {wall['item_tail_s']:.4g})",
        f"certified_frac {metrics['certified_frac']:.6g} ratio  {certified} of {len(outcomes)} attempted",
        f"peak_rss_mib   {metrics['peak_rss_mib']:.6g} MiB  whole process",
    ]
    return metrics, wall


def per_layer(tracer: Tracer, outcomes: list[dict]) -> dict[str, float]:
    traced_passes = pass_seconds(outcomes, traced=True)
    k = len(traced_passes)
    inclusive, own, top = tracer.totals()
    counts = tracer.counts
    metrics = {name + ".s": own.get(name, 0.0) / k for name in SELF_SECONDS}
    for cmd in CLI_COMMANDS:
        metrics[f"cli.main.{cmd}.s"] = inclusive.get(f"cli.main.{cmd}", 0.0) / k
    metrics["cli.self.s"] = sum(v for n, v in own.items() if n.startswith("cli.main.")) / k
    metrics["vecot.other.s"] = (
        sum(v for n, v in own.items() if n not in SELF_SECONDS and not n.startswith("cli.main.")) / k
    )
    metrics["bench.unspanned.s"] = (sum(traced_passes) - top) / k
    metrics.update({name: counts.get(name, 0.0) / k for name in COUNTS})
    calls = counts.get("solver.calls", 0.0)
    metrics["solver.converged_frac"] = counts.get("solver.converged", 0.0) / calls if calls else 0.0
    calls = counts.get("certifier.calls", 0.0)
    metrics["certifier.optimal_frac"] = counts.get("certifier.optimal", 0.0) / calls if calls else 0.0
    traced = [o for o in outcomes if o["traced"]]
    radial = [o["quality"]["l1"] for o in traced if o["quality"].get("mode") == "radial"]
    metrics["disintegration.radial_l1"] = statistics.median(radial) if radial else 0.0
    for key in ("bytes_written", "bytes_read"):
        metrics["cli." + key] = sum(o["quality"].get(key, 0) for o in traced) / k
    metrics["trace.pass_s"] = statistics.median(traced_passes)
    metrics["trace.overhead_s"] = statistics.median(
        pass_seconds(outcomes, traced=True, key="reference_s")
    ) - statistics.median(pass_seconds(outcomes, traced=False, key="reference_s"))
    metrics["trace.spans"] = len(tracer.spans) / k
    return metrics


def run(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float, out_dir: str
) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the summary lines."""
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    workdir = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        generation = []
        for _ in range(SETUP_REPEATS):
            with Speedometer() as meter:
                items = workloads.generate(workload, seed, smoke, workdir)
            generation.append(meter.reference_s)
        setup_s = import_s + statistics.median(generation)

        start = time.perf_counter()
        for item in items:
            item.reference()
        references_s = time.perf_counter() - start

        tracer = Tracer() if trace else None
        outcomes = measure(items, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(seed)
    failed = sum(bool(o["failures"]) for o in outcomes)
    lines = [
        f"perfbench {workload} seed={seed} trace={int(trace)}: {len(items)} items, "
        f"{len(outcomes)} attempted, {failed} failed",
        "env " + json.dumps(env, sort_keys=True),
        f"setup_s        {setup_s:.6g} s  import {import_s:.4g} s + median of "
        f"{SETUP_REPEATS} generations {statistics.median(generation):.4g} s",
    ]
    e2e, wall = end_to_end(items, outcomes, setup_s, lines)
    if trace:
        metrics = per_layer(tracer, outcomes)
        units = per_layer_units()
        tracer.write(os.path.join(out_dir, tag + ".spans.jsonl"))
    else:
        metrics, units = e2e, END_TO_END
    for o in outcomes:
        for failure in o["failures"]:
            lines.append(f"FAILED pass {o['pass']} {o['item']}: {failure}")

    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = os.path.join(out_dir, tag + ".json")
    with open(details, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "environment": env,
                "setup_generation_s": generation,
                "import_s": import_s,
                "references_s": references_s,
                "end_to_end": e2e,
                "end_to_end_wall": wall,
                "result": result,
                "items": outcomes,
            },
            fh,
            indent=1,
        )
    lines.append(f"details {os.path.relpath(details)}")
    return result, lines

"""Command-line front end.

Every run emits exactly one JSON document (schema "vecot/1"), either to
stdout or to --output.  Identical invocations produce identical bytes:
arrays come from deterministic computations, and a document is written
exactly as ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``
writes it, plus a newline, so floats round-trip through repr.  Documents are
strict JSON: a number that can be non-finite is written as a string, "inf",
"-inf" or "nan".  Exit codes: 0 success, 2 validation error or an output
file that cannot be written, 3 iteration limit hit, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .certifier import certify
from .core import (
    DimensionMismatch,
    Instance,
    PotentialField,
    VecotError,
    VectorCoupling,
    _check_solution,
    _dumps,
    _json_numbers,
    instance_from_dict,
    instance_to_dict,
)
from .disintegration import (
    GridDensity,
    _product_grid,
    cd_check_1d,
    l1_distance,
    radial_disintegration,
    reassemble,
    slice_disintegration,
    tabulate_density,
)
from .leaves import LeafDecomposition, extract_leaves, isometry_graph
from .mass_balance import (
    analytic_optimum,
    check_counterexample_spec,
    marginal_abs_continuity_surrogate,
    mass_balance_report,
    orthant_spec,
    paper_preset,
    smoothed_instance,
)
from .solver import SolverParams, solve

SCHEMA = "vecot/1"


def _number(x: float) -> float | str:
    """A float that may be non-finite, as strict JSON: its repr when it is."""
    return x if math.isfinite(x) else repr(float(x))


def _solution_dict(instance: Instance, coupling: VectorCoupling, potential: PotentialField) -> dict:
    return {
        "instance": instance_to_dict(instance),
        "coupling": {
            "pairs": coupling.pairs.tolist(),
            "flows": coupling.flows.tolist(),
        },
        "potential": potential.values.tolist(),
    }


def _read_object(path: str, what: str) -> dict:
    """The JSON object a file holds; VecotError if it holds anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise VecotError(f"cannot read the {what} file as JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise VecotError(f"the {what} file must hold a JSON object, not {type(doc).__name__}")
    return doc


def _load_solution(path: str) -> tuple[Instance, VectorCoupling, PotentialField]:
    """Read a solution document, raising DimensionMismatch unless its coupling
    and potential fit its instance."""
    doc = _read_object(path, "solution")
    try:
        instance = instance_from_dict(doc["instance"])
        pairs = _json_numbers(doc["coupling"]["pairs"], "coupling pairs")
        flows = _json_numbers(doc["coupling"]["flows"], "coupling flows")
        values = _json_numbers(doc["potential"], "potential")
        if pairs.size == 0:  # a coupling without edges is written as [] and []
            pairs, flows = pairs.reshape(0, 2), flows.reshape(0, instance.target_dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed solution document: {exc}") from exc
    coupling = VectorCoupling(pairs=pairs, flows=flows)
    potential = PotentialField(cloud=instance.cloud, values=values)
    _check_solution(instance, coupling, potential)
    return instance, coupling, potential


def _decomposition_dict(dec: LeafDecomposition) -> dict:
    return {
        "eps": dec.graph.eps,
        "edge_count": int(dec.graph.edges.shape[0]),
        "leaves": [
            {
                "id": i,
                "members": leaf.member_indices.tolist(),
                "dimension": leaf.dimension,
                "fit_residual": leaf.fit_residual,
                "sigma": leaf.sigma.tolist(),
            }
            for i, leaf in enumerate(dec.leaves)
        ],
        "assignment": dec.assignment.tolist(),
        "boundary_flags": dec.boundary_flags.tolist(),
    }


def _balance_dict(report) -> dict:
    return {
        "verdict": report.verdict,
        "tol": report.tol,
        "witness": None if report.witness is None else report.witness.tolist(),
        "transport_sets": [
            {
                "set_id": e.set_id,
                "members": e.members.tolist(),
                "mass": e.mass.tolist(),
                "norm": e.norm,
            }
            for e in report.entries
        ],
    }


def _params_from_args(args) -> SolverParams:
    return SolverParams(**{f.name: getattr(args, f.name) for f in fields(SolverParams)})


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    """One ``--flag-name`` per SolverParams field, with its type and default."""
    for f in fields(SolverParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _cmd_solve(args) -> tuple[dict, int]:
    instance = instance_from_dict(_read_object(args.input, "instance"))
    params = _params_from_args(args)
    coupling, potential, report = solve(instance, params)
    cert = certify(instance, coupling, potential, tol=args.certify_tol)
    payload = {
        "command": "solve",
        **_solution_dict(instance, coupling, potential),
        "report": asdict(report),
        "certificate": asdict(cert),
    }
    code = 3 if report.status == "IterLimit" else (2 if report.status == "Infeasible" else 0)
    return payload, code


def _cmd_certify(args) -> tuple[dict, int]:
    instance, coupling, potential = _load_solution(args.input)
    cert = certify(instance, coupling, potential, tol=args.tol)
    return {
        "command": "certify",
        "certificate": asdict(cert),
    }, 0


def _cmd_leaves(args) -> tuple[dict, int]:
    instance, _, potential = _load_solution(args.input)
    dec = extract_leaves(isometry_graph(potential, eps=args.eps), potential)
    return {
        "command": "leaves",
        "decomposition": _decomposition_dict(dec),
    }, 0


def _cmd_massbalance(args) -> tuple[dict, int]:
    instance, coupling, potential = _load_solution(args.input)
    dec = extract_leaves(isometry_graph(potential, eps=args.eps), potential)
    report = mass_balance_report(instance, dec, tol=args.tol)
    return {
        "command": "massbalance",
        "mass_balance": _balance_dict(report),
        "marginal_surrogate": marginal_abs_continuity_surrogate(coupling, instance),
    }, 0


def _cmd_counterexample(args) -> tuple[dict, int]:
    if args.preset == "paper":
        if args.m is not None:
            raise VecotError("--preset paper is the fixed n=2, m=2 construction")
        spec = paper_preset()
    else:
        spec = orthant_spec(2 if args.m is None else args.m)
    margin = check_counterexample_spec(spec)
    u, pi, value = analytic_optimum(spec)
    instance = spec.instance()
    cert_analytic = certify(instance, pi, u, tol=1e-9)
    coupling, potential, report = solve(instance)
    cert_solver = certify(instance, coupling, potential, tol=args.certify_tol)
    dec = extract_leaves(isometry_graph(u, eps=args.eps), u)
    balance = mass_balance_report(instance, dec)
    payload = {
        "command": "counterexample",
        "preset": args.preset,
        "spec": {"anchors": spec.anchors.tolist(), "vectors": spec.vectors.tolist()},
        "margin": _number(margin),
        "analytic_value": value,
        "report": asdict(report),
        "certificate_analytic": asdict(cert_analytic),
        "certificate_solver": asdict(cert_solver),
        "mass_balance": _balance_dict(balance),
        "marginal_surrogate": marginal_abs_continuity_surrogate(pi, instance),
    }
    if args.smooth_eps is not None:
        smoothed = smoothed_instance(spec, args.smooth_eps, args.points_per_ball)
        _, _, smoothed_report = solve(smoothed)
        payload["smoothed"] = {
            "eps": args.smooth_eps,
            "points_per_ball": args.points_per_ball,
            "size": smoothed.size,
            "report": asdict(smoothed_report),
        }
    return payload, 0


def _gaussian_density(points: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a square past the float range weighs exp(-inf) = 0
        return np.exp(-0.5 * (points**2).sum(axis=1))


def _uniform_density(points: np.ndarray) -> np.ndarray:
    return np.ones(len(points))


_FAMILIES = {"gaussian": _gaussian_density, "uniform": _uniform_density}


def _cmd_disintegrate(args) -> tuple[dict, int]:
    if args.grid is not None:
        doc = _read_object(args.grid, "grid")
        box, samples = (_json_numbers(doc.get(key), key) for key in ("box", "samples"))
        density = GridDensity(box=box, samples=samples)
    else:
        if args.box is None or args.resolution is None:
            raise VecotError("--family requires --box and --resolution")
        density = tabulate_density(args.box, args.resolution, _FAMILIES[args.family])
    if args.mode == "slice":
        needles, weights = slice_disintegration(density, args.m)
    else:
        if args.center is None:
            raise VecotError("--mode radial requires --center")
        needles, weights = radial_disintegration(
            density, args.center, n_directions=args.directions, n_radial=args.radial_cells
        )
    rebuilt = reassemble(needles, weights, density)
    err = l1_distance(rebuilt, density)
    cd_reports = []
    for spec in args.cd or []:
        try:
            kappa, n_param = (float(v) for v in spec.split(","))
        except ValueError:
            raise VecotError(f"--cd expects KAPPA,N, got {spec!r}") from None
        reports = cd_check_1d(needles, kappa, n_param)
        cd_reports.append(
            {
                "kappa": _number(kappa),
                "N": _number(n_param),
                "all_pass": all(r.passed for r in reports),
                "worst_violation": _number(min(r.worst_violation for r in reports)),
                "tol": reports[0].tol,
            }
        )
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        # One row per cell of a needle's grid: its parameters t1..tk, then g.
        dim = needles.leaf_dim
        params = ["t"] if dim == 1 else [f"t{a + 1}" for a in range(dim)]
        grid = _product_grid(needles.axes)
        grid = np.broadcast_to(grid, (len(needles),) + grid.shape[-2:])
        for k, g in enumerate(needles.g):
            cols = np.column_stack([grid[k], g.ravel()])
            path = os.path.join(args.csv_dir, f"needle_{k:04d}.csv")
            np.savetxt(path, cols, delimiter=",", header=",".join([*params, "g"]), comments="")
    payload = {
        "command": "disintegrate",
        "mode": args.mode,
        "dim": density.dim,
        "resolution": list(density.resolution),
        "needle_count": len(needles),
        "weights": weights.tolist(),
        "weight_sum": float(weights.sum()),
        "reassembly_l1": err,
        "cd_reports": cd_reports,
    }
    return payload, 0


def _cmd_selftest(args) -> tuple[dict, int]:
    """Smoke run of the presets: each must solve to its analytic value,
    certify Optimal and break the mass balance."""
    parser = _build_parser()
    checks = []
    for name, preset_args in (("paper", []), ("orthant", ["--m", "3"])):
        doc, _ = _cmd_counterexample(
            parser.parse_args(["counterexample", "--preset", name, *preset_args])
        )
        value, expected = doc["report"]["primal_value"], doc["analytic_value"]
        verdict = doc["certificate_solver"]["verdict"]
        balance = doc["mass_balance"]["verdict"]
        checks.append(
            {
                "name": name,
                "passed": bool(
                    verdict == "Optimal"
                    and abs(value - expected) <= 1e-6 * abs(expected)
                    and balance == "BalanceFails"
                ),
                "detail": f"value {value:.9f} (analytic {expected:.9f}), verdict {verdict}, {balance}",
            }
        )
    all_passed = all(c["passed"] for c in checks)
    return {
        "command": "selftest",
        "checks": checks,
        "all_passed": all_passed,
    }, 0 if all_passed else 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vecot",
        description="Kantorovich-Rubinstein transport for vector measures: "
        "solve, certify, decompose, disintegrate.",
    )
    parser.add_argument("--version", action="version", version=f"vecot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags several commands share, each declared once.
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("--input", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")
    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--eps", type=float, default=1e-6)

    def command(name: str, func, parents: list, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    summary = "solve an instance file and certify the result"
    p = command("solve", _cmd_solve, [document, output], summary)
    p.add_argument("--certify-tol", type=float, default=1e-5)
    _add_solver_args(p)

    p = command("certify", _cmd_certify, [document, output], "re-check a solution document")
    p.add_argument("--tol", type=float, default=1e-6)

    summary = "leaf decomposition of a solution's potential"
    command("leaves", _cmd_leaves, [document, output, eps], summary)

    summary = "transport-set mass report for a solution"
    p = command("massbalance", _cmd_massbalance, [document, output, eps], summary)
    p.add_argument("--tol", type=float, default=1e-8)

    summary = "build and analyze a mass-balance counterexample"
    p = command("counterexample", _cmd_counterexample, [output, eps], summary)
    p.add_argument("--preset", choices=("paper", "orthant"), default="paper")
    p.add_argument("--m", type=int)
    p.add_argument("--certify-tol", type=float, default=1e-5)
    p.add_argument("--smooth-eps", type=float)
    p.add_argument("--points-per-ball", type=int, default=8)

    summary = "needle decomposition of a grid density"
    p = command("disintegrate", _cmd_disintegrate, [output], summary)
    p.add_argument("--family", choices=sorted(_FAMILIES), default="gaussian")
    p.add_argument("--grid", help="JSON file with box and samples")
    p.add_argument("--box", type=float, nargs="+", help="lo hi per axis")
    p.add_argument("--resolution", type=int, nargs="+")
    p.add_argument("--mode", choices=("slice", "radial"), default="slice")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--center", type=float, nargs="+")
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--radial-cells", type=int)
    cd_help = "check CD(KAPPA, N) on every needle; write a negative KAPPA as --cd=-1,3"
    p.add_argument("--cd", action="append", metavar="KAPPA,N", help=cd_help)
    p.add_argument("--csv-dir")

    command("selftest", _cmd_selftest, [output], "run the built-in verification checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
        document = {"schema": SCHEMA, **payload}
        text = _dumps(document) + "\n"
    except VecotError as exc:
        print(f"vecot: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"vecot: bad input: {exc!r}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"vecot: internal error: {exc!r}", file=sys.stderr)
        return 4
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"vecot: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

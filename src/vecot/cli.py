"""Command-line front end.

Every run emits exactly one JSON document (schema "vecot/1"), either to
stdout or to --output.  Identical invocations produce identical bytes:
keys are sorted, arrays come from deterministic computations, and floats
round-trip through repr.  Exit codes: 0 success, 2 validation error,
3 iteration limit hit, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .certifier import OptimalityCertificate, certify
from .core import (
    Instance,
    PointCloud,
    PotentialField,
    VecotError,
    VectorCoupling,
    build_instance,
    instance_from_dict,
    instance_to_dict,
)
from .disintegration import (
    Needle,
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
from .solver import SolveReport, SolverParams, line_oracle, solve

SCHEMA = "vecot/1"


def _jsonable(obj):
    """Recursively convert to JSON-serializable values.

    Non-finite floats become strings so the output stays strict JSON.
    """
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _report_dict(report: SolveReport) -> dict:
    return {
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "gap": report.gap,
        "iterations": report.iterations,
        "primal_residual": report.primal_residual,
        "dual_residual": report.dual_residual,
        "status": report.status,
        "engine": report.engine,
        "notes": report.notes,
    }


def _certificate_dict(cert: OptimalityCertificate) -> dict:
    return {
        "verdict": cert.verdict,
        "gap": cert.gap,
        "primal_value": cert.primal_value,
        "dual_value": cert.dual_value,
        "primal_feasibility": cert.primal_feasibility,
        "dual_feasibility": cert.dual_feasibility,
        "tol": cert.tol,
        "slack_violations": [
            {
                "pair": list(v.pair),
                "flow_norm": v.flow_norm,
                "saturation": v.saturation,
                "alignment": v.alignment,
            }
            for v in cert.slack_violations
        ],
    }


def _solution_dict(instance: Instance, coupling: VectorCoupling, potential: PotentialField) -> dict:
    return {
        "instance": instance_to_dict(instance),
        "coupling": {
            "pairs": coupling.pairs.tolist(),
            "flows": coupling.flows.tolist(),
        },
        "potential": potential.values.tolist(),
    }


def _load_solution(path: str) -> tuple[Instance, VectorCoupling, PotentialField]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    instance = instance_from_dict(doc["instance"])
    coupling = VectorCoupling(
        pairs=np.asarray(doc["coupling"]["pairs"], dtype=int),
        flows=np.asarray(doc["coupling"]["flows"], dtype=float),
    )
    potential = PotentialField(
        cloud=instance.cloud, values=np.asarray(doc["potential"], dtype=float)
    )
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
    return SolverParams(
        max_iters=args.max_iters,
        tol_primal=args.tol_primal,
        tol_gap=args.tol_gap,
        edge_policy=args.edge_policy,
    )


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    defaults = SolverParams()
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--tol-primal", type=float, default=defaults.tol_primal)
    p.add_argument("--tol-gap", type=float, default=defaults.tol_gap)
    p.add_argument("--edge-policy", default=defaults.edge_policy)


def _cmd_solve(args) -> tuple[dict, int]:
    with open(args.input, "r", encoding="utf-8") as fh:
        instance = instance_from_dict(json.load(fh))
    params = _params_from_args(args)
    coupling, potential, report = solve(instance, params)
    cert = certify(instance, coupling, potential, tol=args.certify_tol)
    payload = {
        "command": "solve",
        **_solution_dict(instance, coupling, potential),
        "report": _report_dict(report),
        "certificate": _certificate_dict(cert),
    }
    code = 3 if report.status == "IterLimit" else (2 if report.status == "Infeasible" else 0)
    return payload, code


def _cmd_certify(args) -> tuple[dict, int]:
    instance, coupling, potential = _load_solution(args.input)
    cert = certify(instance, coupling, potential, tol=args.tol)
    return {
        "command": "certify",
        "certificate": _certificate_dict(cert),
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
        if (args.n, args.m) not in ((None, None), (2, 2)):
            raise VecotError("--preset paper is the fixed n=2, m=2 construction")
        spec = paper_preset()
    else:
        m = args.m if args.m is not None else (args.n if args.n is not None else 2)
        if args.n is not None and args.n != m:
            raise VecotError("--preset orthant uses n = m")
        spec = orthant_spec(m)
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
        "margin": margin,
        "analytic_value": value,
        "report": _report_dict(report),
        "certificate_analytic": _certificate_dict(cert_analytic),
        "certificate_solver": _certificate_dict(cert_solver),
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
            "report": _report_dict(smoothed_report),
        }
    return payload, 0


def _gaussian_density(points: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * (points**2).sum(axis=1))


def _uniform_density(points: np.ndarray) -> np.ndarray:
    return np.ones(len(points))


_FAMILIES = {"gaussian": _gaussian_density, "uniform": _uniform_density}


def _cmd_disintegrate(args) -> tuple[dict, int]:
    if args.grid is not None:
        with open(args.grid, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        from .disintegration import GridDensity

        density = GridDensity(
            box=np.asarray(doc["box"], dtype=float),
            samples=np.asarray(doc["samples"], dtype=float),
        )
    else:
        if args.box is None or args.resolution is None:
            raise VecotError("--family requires --box and --resolution")
        box = np.asarray(args.box, dtype=float).reshape(-1, 2)
        density = tabulate_density(box, args.resolution, _FAMILIES[args.family])
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
        kappa_text, n_text = spec.split(",")
        kappa = float(kappa_text)
        n_param = float("inf") if n_text.strip().lower() in ("inf", "infinity") else float(n_text)
        per_needle = [cd_check_1d(nd, kappa, n_param) for nd in needles]
        cd_reports.append(
            {
                "kappa": kappa,
                "N": n_param,
                "all_pass": all(r.passed for r in per_needle),
                "worst_violation": min(r.worst_violation for r in per_needle),
                "tol": per_needle[0].tol,
            }
        )
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for k, nd in enumerate(needles):
            path = os.path.join(args.csv_dir, f"needle_{k:04d}.csv")
            cols = np.column_stack([nd.axes[0], nd.g]) if nd.leaf_dim == 1 else None
            if cols is None:
                continue
            np.savetxt(path, cols, delimiter=",", header="t,g", comments="")
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


def _selftest_checks() -> list[dict]:
    checks = []

    spec = paper_preset()
    u, pi, value = analytic_optimum(spec)
    instance = spec.instance()
    coupling, potential, report = solve(instance)
    cert = certify(instance, coupling, potential, tol=1e-5)
    dec = extract_leaves(isometry_graph(u, eps=1e-6), u)
    balance = mass_balance_report(instance, dec)
    expected = 1.0 + np.sqrt(5.0)
    checks.append(
        {
            "name": "counterexample",
            "passed": bool(
                abs(report.primal_value - expected) <= 1e-6 * expected
                and cert.verdict == "Optimal"
                and balance.verdict == "BalanceFails"
            ),
            "detail": f"value {report.primal_value:.9f}, verdict {cert.verdict}, {balance.verdict}",
        }
    )

    rng = np.random.default_rng(11)
    worst = 0.0
    all_opt = True
    for _ in range(10):
        n_pts = int(rng.integers(3, 15))
        pts = rng.standard_normal((n_pts, int(rng.integers(1, 4))))
        w = rng.standard_normal((n_pts, int(rng.integers(1, 4))))
        w -= w.mean(axis=0)
        inst = build_instance(pts, w)
        c, p, r = solve(inst)
        rel = abs(r.gap) / (1.0 + abs(r.primal_value))
        worst = max(worst, rel)
        if certify(inst, c, p, tol=1e-5).verdict != "Optimal":
            all_opt = False
    checks.append(
        {
            "name": "duality_batch",
            "passed": bool(worst <= 1e-5 and all_opt),
            "detail": f"worst relative gap {worst:.3e}",
        }
    )

    worst_line = 0.0
    for _ in range(5):
        n_pts = int(rng.integers(2, 30))
        pts = rng.uniform(-5, 5, (n_pts, 1))
        pts = np.unique(pts, axis=0)
        w = rng.standard_normal((len(pts), 1))
        w -= w.mean(axis=0)
        inst = build_instance(pts, w)
        oracle = line_oracle(inst)
        _, _, r = solve(inst)
        worst_line = max(worst_line, abs(r.primal_value - oracle) / (1.0 + oracle))
    checks.append(
        {
            "name": "line_oracle",
            "passed": bool(worst_line <= 1e-6),
            "detail": f"worst relative error {worst_line:.3e}",
        }
    )

    g = np.arange(5, dtype=float)
    pts = np.array([[x, y, z] for x in g for y in g for z in g])
    cloud = PointCloud(points=pts)
    proj = PotentialField(cloud=cloud, values=pts[:, :2].copy())
    dec = extract_leaves(isometry_graph(proj, eps=1e-9), proj)
    checks.append(
        {
            "name": "leaf_recovery",
            "passed": bool(
                len(dec.leaves) == 5
                and all(l.size == 25 and l.dimension == 2 for l in dec.leaves)
            ),
            "detail": f"{len(dec.leaves)} leaves, sizes {sorted({l.size for l in dec.leaves})}",
        }
    )

    t = np.linspace(-4, 4, 258)
    t = (t[:-1] + t[1:]) / 2.0
    gneedle = Needle(
        axes=(t,), g=np.exp(-0.5 * t * t), base=np.zeros(1), directions=np.eye(1)
    )
    uneedle = Needle(axes=(t,), g=np.ones_like(t), base=np.zeros(1), directions=np.eye(1))
    cd_ok = (
        cd_check_1d(gneedle, 1.0, np.inf).passed
        and not cd_check_1d(gneedle, 1.01, np.inf).passed
        and not cd_check_1d(uneedle, 0.1, np.inf).passed
    )
    checks.append({"name": "cd_checks", "passed": bool(cd_ok), "detail": "gaussian/uniform trio"})
    return checks


def _cmd_selftest(args) -> tuple[dict, int]:
    checks = _selftest_checks()
    all_passed = all(c["passed"] for c in checks)
    return {
        "command": "selftest",
        "checks": checks,
        "all_passed": all_passed,
    }, 0 if all_passed else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecot",
        description="Kantorovich-Rubinstein transport for vector measures: "
        "solve, certify, decompose, disintegrate.",
    )
    parser.add_argument("--version", action="version", version=f"vecot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file and certify the result")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--certify-tol", type=float, default=1e-5)
    _add_solver_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="re-check a solution document")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("leaves", help="leaf decomposition of a solution's potential")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(func=_cmd_leaves)

    p = sub.add_parser("massbalance", help="transport-set mass report for a solution")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_massbalance)

    p = sub.add_parser("counterexample", help="build and analyze a mass-balance counterexample")
    p.add_argument("--preset", choices=("paper", "orthant"), default="paper")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--output")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--certify-tol", type=float, default=1e-5)
    p.add_argument("--smooth-eps", type=float)
    p.add_argument("--points-per-ball", type=int, default=8)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("disintegrate", help="needle decomposition of a grid density")
    p.add_argument("--family", choices=sorted(_FAMILIES), default="gaussian")
    p.add_argument("--grid", help="JSON file with box and samples")
    p.add_argument("--box", type=float, nargs="+", help="lo hi per axis")
    p.add_argument("--resolution", type=int, nargs="+")
    p.add_argument("--mode", choices=("slice", "radial"), default="slice")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--center", type=float, nargs="+")
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--radial-cells", type=int)
    p.add_argument("--cd", action="append", metavar="KAPPA,N")
    p.add_argument("--csv-dir")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_disintegrate)

    p = sub.add_parser("selftest", help="run the built-in verification checks")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _apply_thread_cap() -> None:
    limit = os.environ.get("VECOT_THREADS")
    if not limit:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, limit)
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(int(limit))
    except Exception:
        pass


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except VecotError as exc:
        print(f"vecot: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"vecot: bad input: {exc!r}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"vecot: internal error: {exc!r}", file=sys.stderr)
        return 4
    document = {"schema": SCHEMA, **payload}
    text = json.dumps(_jsonable(document), sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

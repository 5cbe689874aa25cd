"""Tests for the coupling solver: oracles, scaling laws, determinism."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg.lapack

import vecot
from vecot import (
    NotConverged,
    NumericalBreakdown,
    PotentialField,
    SolverParams,
    VecotError,
    WrongDimension,
    build_instance,
    certify,
    cost,
    kr_norm,
    line_optimal_potential,
    line_oracle,
    lipschitz_constant,
    marginals,
    pairing,
    paper_preset,
    smoothed_instance,
    solve,
)


def random_instance(rng: np.random.Generator, n_points: int, n: int, m: int):
    pts = rng.uniform(-1.0, 1.0, size=(n_points, n))
    w = rng.normal(size=(n_points, m))
    w -= w.mean(axis=0)
    return build_instance(pts, w)


# ---------------------------------------------------------------------------
# Frozen values
# ---------------------------------------------------------------------------


def test_two_point_value_is_distance_times_mass():
    # Unit mass moved across a 3-4-5 gap costs exactly 5.
    inst = build_instance([[0.0, 0.0], [3.0, 4.0]], [[1.0], [-1.0]])
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    assert report.primal_value == pytest.approx(5.0, rel=1e-9)
    assert cost(coupling, inst) == pytest.approx(5.0, rel=1e-9)
    assert abs(pairing(potential, inst.measure) - 5.0) <= 1e-6 * 6.0


def test_three_point_line_with_pass_through():
    # Masses +2 at 0, -1 at 1, -1 at 3: oracle cost 2*1 + 1*2 = 4.
    inst = build_instance([[0.0], [1.0], [3.0]], [[2.0], [-1.0], [-1.0]])
    assert line_oracle(inst) == pytest.approx(4.0)
    assert kr_norm(inst) == pytest.approx(4.0, rel=1e-9)


def test_zero_measure_short_circuits():
    inst = build_instance([[0.0], [1.0]], [[0.0], [0.0]])
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    assert report.iterations == 0
    assert coupling.edge_count == 0
    np.testing.assert_array_equal(potential.values, np.zeros((2, 1)))


def test_single_point_short_circuits():
    inst = build_instance([[0.0, 0.0]], [[0.0, 0.0]])
    _, _, report = solve(inst)
    assert report.status == "Converged"
    assert report.primal_value == 0.0


# ---------------------------------------------------------------------------
# Scalar line oracle
# ---------------------------------------------------------------------------


def test_line_oracle_requires_scalar_line():
    inst2d = build_instance([[0.0, 0.0], [1.0, 0.0]], [[1.0], [-1.0]])
    with pytest.raises(WrongDimension):
        line_oracle(inst2d)
    inst_m2 = build_instance([[0.0], [1.0]], [[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(WrongDimension):
        line_oracle(inst_m2)


def test_solver_matches_line_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_points = int(rng.integers(2, 30))
        inst = random_instance(rng, n_points, 1, 1)
        val = kr_norm(inst)
        ref = line_oracle(inst)
        assert abs(val - ref) <= 1e-8 * (1.0 + ref)


def test_line_optimal_potential_is_tight():
    rng = np.random.default_rng(19)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(2, 20)), 1, 1)
        u = line_optimal_potential(inst)
        assert lipschitz_constant(u) <= 1.0 + 1e-12
        assert pairing(u, inst.measure) == pytest.approx(line_oracle(inst), abs=1e-10)


# ---------------------------------------------------------------------------
# Norm axioms
# ---------------------------------------------------------------------------


def test_homogeneity_is_exact_in_the_weights():
    rng = np.random.default_rng(23)
    inst = random_instance(rng, 6, 2, 2)
    base = kr_norm(inst)
    for c in (-2.0, 0.5, 4.0):
        scaled = build_instance(inst.cloud.points, c * inst.measure.weights)
        val = kr_norm(scaled)
        assert val == pytest.approx(abs(c) * base, rel=1e-9)


def test_homogeneity_is_exact_in_the_points():
    rng = np.random.default_rng(29)
    inst = random_instance(rng, 5, 3, 2)
    base = kr_norm(inst)
    scaled = build_instance(2.5 * inst.cloud.points, inst.measure.weights)
    assert kr_norm(scaled) == pytest.approx(2.5 * base, rel=1e-9)


def test_triangle_inequality_on_shared_cloud():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n_points = int(rng.integers(3, 8))
        pts = rng.uniform(-1.0, 1.0, size=(n_points, 2))
        wa = rng.normal(size=(n_points, 2))
        wa -= wa.mean(axis=0)
        wb = rng.normal(size=(n_points, 2))
        wb -= wb.mean(axis=0)
        na = kr_norm(build_instance(pts, wa))
        nb = kr_norm(build_instance(pts, wb))
        nab = kr_norm(build_instance(pts, wa + wb))
        assert nab <= na + nb + 3e-6 * (1.0 + na + nb)


def test_negation_symmetry():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, 6, 2, 3)
    neg = build_instance(inst.cloud.points, -inst.measure.weights)
    assert kr_norm(neg) == pytest.approx(kr_norm(inst), rel=1e-9)


# ---------------------------------------------------------------------------
# Convergence contract
# ---------------------------------------------------------------------------


def test_converged_solves_satisfy_the_advertised_bounds():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n_points = int(rng.integers(3, 12))
        inst = random_instance(rng, n_points, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        coupling, potential, report = solve(inst)
        assert report.status == "Converged"
        _, _, net = marginals(coupling, inst.size)
        resid = float(np.linalg.norm(net - inst.measure.weights))
        assert resid <= 1e-7 * (1.0 + inst.measure.mass_scale)
        assert lipschitz_constant(potential) <= 1.0 + 1e-9
        assert abs(report.gap) <= 1e-6 * (1.0 + abs(report.primal_value))


def test_converged_solves_certify_optimal():
    rng = np.random.default_rng(43)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(3, 10)), 2, 2)
        coupling, potential, report = solve(inst)
        assert report.status == "Converged"
        cert = certify(inst, coupling, potential, tol=1e-5)
        assert cert.verdict == "Optimal"


def test_potential_is_anchored_at_point_zero():
    rng = np.random.default_rng(47)
    inst = random_instance(rng, 7, 2, 2)
    _, potential, _ = solve(inst)
    np.testing.assert_allclose(potential.values[0], np.zeros(2), atol=1e-12)


def test_solve_is_deterministic():
    rng = np.random.default_rng(53)
    inst = random_instance(rng, 8, 2, 2)
    c1, u1, r1 = solve(inst)
    c2, u2, r2 = solve(inst)
    np.testing.assert_array_equal(c1.pairs, c2.pairs)
    np.testing.assert_array_equal(c1.flows, c2.flows)
    np.testing.assert_array_equal(u1.values, u2.values)
    assert r1.primal_value == r2.primal_value
    assert r1.iterations == r2.iterations


# ---------------------------------------------------------------------------
# Edge policies and parameter validation
# ---------------------------------------------------------------------------


def test_knn_policy_gives_an_upper_bound():
    rng = np.random.default_rng(59)
    inst = random_instance(rng, 10, 2, 1)
    full = kr_norm(inst)
    # The subgraph misses edges of the optimal coupling, so the solve cannot
    # certify and kr_norm would raise; the restricted value is still a bound.
    _, _, report = solve(inst, SolverParams(edge_policy="knn:4"))
    assert report.primal_value >= full - 1e-6 * (1.0 + full)


def test_knn_disconnection_reports_infeasible():
    # Two far clusters, k=1 edges stay inside each cluster, but mass must
    # cross between them.
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
    w = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    inst = build_instance(pts, w)
    coupling, _, report = solve(inst, SolverParams(edge_policy="knn:1"))
    assert report.status == "Infeasible"
    assert coupling.edge_count == 0


def test_bad_params_are_rejected():
    with pytest.raises(ValueError):
        SolverParams(max_iters=0)
    with pytest.raises(ValueError):
        SolverParams(tol_gap=0.0)
    with pytest.raises(ValueError):
        SolverParams(edge_policy="knn:0")
    with pytest.raises(ValueError):
        SolverParams(edge_policy="mesh")


def test_iter_limit_is_reported_not_raised():
    rng = np.random.default_rng(61)
    inst = random_instance(rng, 9, 2, 2)
    _, _, report = solve(inst, SolverParams(max_iters=3, tol_gap=1e-12))
    assert report.status == "IterLimit"
    assert report.iterations == 3


def test_kr_norm_raises_on_an_unconverged_solve():
    rng = np.random.default_rng(61)
    inst = random_instance(rng, 9, 2, 2)
    with pytest.raises(NotConverged) as info:
        kr_norm(inst, SolverParams(max_iters=3))
    assert isinstance(info.value, VecotError)
    assert info.value.report.status == "IterLimit"
    assert info.value.report.iterations == 3


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def hard_instances() -> dict:
    rng = np.random.default_rng(0)
    return {
        "smoothed-eps0.05": smoothed_instance(paper_preset(), 0.05, 4),
        "random-N50-m2": random_instance(rng, 50, 2, 2),
        "random-N40-m3": random_instance(rng, 40, 3, 3),
    }


@pytest.mark.parametrize("name", ["smoothed-eps0.05", "random-N50-m2", "random-N40-m3"])
def test_interior_point_engine_certifies_hard_instances(name):
    inst = hard_instances()[name]
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    assert report.engine == "ipm"
    assert report.iterations <= 50
    assert certify(inst, coupling, potential, tol=1e-6).verdict == "Optimal"


def test_collinear_vector_measures_match_the_line_closed_form():
    # On a line the flow across each gap is the cumulative vector mass F_k,
    # so the norm is sum_k ||F_k|| (x_{k+1} - x_k), the m >= 2 line oracle.
    rng = np.random.default_rng(67)
    for n, m in ((1, 2), (2, 3), (3, 2), (2, 4)):
        pos = rng.uniform(-3.0, 3.0, 12)
        direction = rng.normal(size=n)
        pts = rng.normal(size=n) + pos[:, None] * (direction / np.linalg.norm(direction))
        w = rng.normal(size=(12, m))
        w -= w.mean(axis=0)
        order = np.argsort(pos)
        cum = np.cumsum(w[order], axis=0)[:-1]
        expected = float(np.dot(np.linalg.norm(cum, axis=1), np.diff(pos[order])))
        inst = build_instance(pts, w)
        coupling, potential, report = solve(inst)
        assert report.engine == "tree"
        assert report.status == "Converged"
        assert abs(report.primal_value - expected) <= 1e-12 * expected
        assert certify(inst, coupling, potential, tol=1e-9).verdict == "Optimal"


def test_knn_graph_with_two_balanced_components_solves():
    rng = np.random.default_rng(71)
    left = rng.uniform(-1.0, 1.0, size=(6, 2))
    right = rng.uniform(-1.0, 1.0, size=(6, 2)) + [50.0, 0.0]
    w = rng.normal(size=(12, 2))
    w[:6] -= w[:6].mean(axis=0)
    w[6:] -= w[6:].mean(axis=0)
    inst = build_instance(np.vstack([left, right]), w)
    coupling, potential, report = solve(inst, SolverParams(edge_policy="knn:5"))
    assert report.status == "Converged"
    assert certify(inst, coupling, potential, tol=1e-6).verdict == "Optimal"
    separate = kr_norm(build_instance(left, w[:6])) + kr_norm(build_instance(right, w[6:]))
    assert report.primal_value == pytest.approx(separate, rel=1e-6)


def test_report_names_the_engine():
    rng = np.random.default_rng(79)
    two_points = build_instance([[0.0, 0.0], [3.0, 4.0]], [[1.0, 2.0], [-1.0, -2.0]])
    assert solve(two_points)[2].engine == "tree"
    assert solve(random_instance(rng, 8, 2, 1))[2].engine == "lp"
    assert solve(random_instance(rng, 8, 2, 2))[2].engine == "ipm"
    assert solve(build_instance([[0.0], [1.0]], [[0.0], [0.0]]))[2].engine == "none"


def test_unfactorable_newton_system_raises_numerical_breakdown(monkeypatch):
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kwargs: (a, 1))
    inst = random_instance(np.random.default_rng(83), 8, 2, 2)
    with pytest.raises(NumericalBreakdown):
        solve(inst)


DIGEST_SCRIPT = """
import hashlib
import numpy as np
from vecot import build_instance, solve
rng = np.random.default_rng(89)
pts = rng.uniform(-1.0, 1.0, size=(120, 2))
w = rng.normal(size=(120, 2))
w -= w.mean(axis=0)
coupling, potential, report = solve(build_instance(pts, w))
digest = hashlib.sha256(coupling.flows.tobytes() + potential.values.tobytes())
print(report.engine, report.status, report.iterations, report.primal_value.hex(), digest.hexdigest())
"""


def test_solve_is_bit_identical_across_runs_and_thread_counts():
    src = os.path.dirname(os.path.dirname(os.path.abspath(vecot.__file__)))
    outputs = []
    for threads in ("1", "2", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        done = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].startswith("ipm Converged ")
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]

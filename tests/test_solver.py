"""Tests for the coupling solver: oracles, scaling laws, determinism."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy import _core as highs_core

import vecot
import vecot.solver
from vecot import (
    DuplicatePoint,
    InvalidParameter,
    NotConverged,
    PotentialField,
    SolverParams,
    VecotError,
    WrongDimension,
    build_instance,
    certify,
    component_labels,
    cost,
    kr_norm,
    line_optimal_potential,
    line_oracle,
    lipschitz_constant,
    marginals,
    orthant_spec,
    pairing,
    paper_preset,
    smoothed_instance,
    solve,
)

from harness import python


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
    for inst in (inst2d, inst_m2):
        for line in (line_oracle, line_optimal_potential):
            with pytest.raises(WrongDimension) as raised:
                line(inst)
            assert str(raised.value) == (
                f"line transport needs n = m = 1, got n = {inst.ambient_dim}, m = {inst.target_dim}"
            )


def test_solver_matches_line_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_points = int(rng.integers(2, 30))
        inst = random_instance(rng, n_points, 1, 1)
        val = kr_norm(inst)
        ref = line_oracle(inst)
        assert abs(val - ref) <= 1e-8 * (1.0 + ref)


@pytest.mark.parametrize("weights", [[1.0, -1.0], [1.0, -2.0, 1.0]], ids=["two", "three"])
def test_weights_of_1e_150_match_the_line_oracle(weights):
    # Their mass scale lies four decades above 2^-511, below which a measure
    # is refused, and the value keeps its digits.
    inst = build_instance([[0.0], [1.0], [3.0]][: len(weights)], 1e-150 * np.array(weights)[:, None])
    expected = line_oracle(inst)
    assert abs(kr_norm(inst) - expected) <= 1e-12 * expected


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


@st.composite
def lattice_clouds(draw, measures: int = 1):
    """2-12 distinct lattice points in R^n, n <= 3, and ``measures`` integer
    weight sets in R^m, m <= 3, each centred to zero total mass."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lattice = st.tuples(*[st.integers(-4, 4)] * n)
    points = draw(st.lists(lattice, min_size=2, max_size=12, unique=True))
    size = len(points)
    weights = []
    for _ in range(measures):
        rows = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * m), min_size=size, max_size=size))
        w = np.array(rows, dtype=float)
        weights.append(w - w.mean(axis=0))
    return np.array(points, dtype=float), weights


def certified_interval(points: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """``[dual, primal]`` of a converged solve, the primal widened by what
    routing the coupling's residual across the cloud could cost."""
    inst = build_instance(points, weights)
    _, _, report = solve(inst)
    assert report.status == "Converged"
    reach = np.sqrt(inst.size) * float(inst.distances.max())
    return report.dual_value, report.primal_value + reach * report.primal_residual


def roundoff(points: np.ndarray, *weights: np.ndarray) -> float:
    """1e-12 of the largest mass scale times the cloud's diameter."""
    mass = max(float(np.linalg.norm(w, axis=1).sum()) for w in weights)
    return 1e-12 * mass * float(vecot.distance_matrix(points).max())


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(lattice_clouds())
def test_certified_intervals_of_a_measure_and_its_negation_overlap(cloud):
    points, (w,) = cloud
    lo, hi = certified_interval(points, w)
    neg_lo, neg_hi = certified_interval(points, -w)
    assert max(lo, neg_lo) <= min(hi, neg_hi) + roundoff(points, w)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(lattice_clouds(), st.integers(-30, 30), st.booleans())
def test_kr_norm_scales_bit_for_bit_by_powers_of_two(cloud, power, scale_points):
    # Normalization divides the scale out exactly, so the solve runs on the
    # same bits and its value is multiplied back exactly.
    points, (w,) = cloud
    factor = 2.0**power
    base = kr_norm(build_instance(points, w))
    if scale_points:
        scaled = kr_norm(build_instance(factor * points, w))
    else:
        scaled = kr_norm(build_instance(points, factor * w))
    assert scaled == factor * base


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(lattice_clouds(measures=2))
def test_dual_of_a_sum_is_at_most_the_sum_of_the_primals(cloud):
    points, (wa, wb) = cloud
    _, hi_a = certified_interval(points, wa)
    _, hi_b = certified_interval(points, wb)
    lo_ab, _ = certified_interval(points, wa + wb)
    assert lo_ab <= hi_a + hi_b + roundoff(points, wa, wb)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    lattice_clouds(),
    st.sampled_from([0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]),
    st.floats(1e-12, 1e-2),
    st.integers(0, 2**32 - 1),
)
def test_an_optimal_verdict_survives_a_tenfold_tolerance(cloud, noise, tol, seed):
    # Perturbed solutions fail some of the checks at small tolerances.
    points, (w,) = cloud
    inst = build_instance(points, w)
    coupling, potential, _ = solve(inst)
    rng = np.random.default_rng(seed)
    flows = coupling.flows * (1.0 + noise * rng.normal(size=coupling.flows.shape))
    values = potential.values * (1.0 + noise * rng.normal(size=potential.values.shape))
    coupling = vecot.VectorCoupling(coupling.pairs, flows)
    potential = PotentialField(inst.cloud, values)
    if certify(inst, coupling, potential, tol=tol).verdict == "Optimal":
        assert certify(inst, coupling, potential, tol=10.0 * tol).verdict == "Optimal"


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
# Feasibility and parameter validation
# ---------------------------------------------------------------------------


def test_residual_total_mass_above_tol_primal_reports_infeasible():
    # The edge set is connected, so only the total mass can block feasibility:
    # a sum of 5e-13 times the mass scale passes the instance check but not
    # a tol_primal of 1e-14.
    rng = np.random.default_rng(59)
    w = rng.normal(size=(6, 1))
    w -= w.mean(axis=0)
    w[0] += 5e-13 * np.abs(w).sum()
    inst = build_instance(rng.uniform(-1.0, 1.0, size=(6, 2)), w)
    coupling, _, report = solve(inst, SolverParams(tol_primal=1e-14))
    assert report.status == "Infeasible"
    assert report.engine == "none"
    assert coupling.edge_count == 0


def test_bad_params_are_rejected():
    with pytest.raises(ValueError):
        SolverParams(max_iters=0)
    for max_iters in (2.5, 3.0, "3", None):
        with pytest.raises(InvalidParameter, match="max_iters must be an integer"):
            SolverParams(max_iters=max_iters)
    assert SolverParams(max_iters=np.int64(7)).max_iters == 7
    with pytest.raises(ValueError):
        SolverParams(tol_gap=0.0)
    with pytest.raises(ValueError):
        SolverParams(tol_primal=float("nan"))
    with pytest.raises(ValueError):
        SolverParams(tol_primal=0.0)
    # An infinite tolerance would let any iterate stop as Converged.
    for name in ("tol_gap", "tol_primal"):
        for bad in (float("inf"), float("nan"), -1e-6):
            with pytest.raises(InvalidParameter, match=f"{name} must be finite and positive"):
                SolverParams(**{name: bad})


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


def test_report_names_the_engine():
    rng = np.random.default_rng(79)
    two_points = build_instance([[0.0, 0.0], [3.0, 4.0]], [[1.0, 2.0], [-1.0, -2.0]])
    assert solve(two_points)[2].engine == "tree"
    assert solve(random_instance(rng, 8, 2, 1))[2].engine == "lp"
    assert solve(random_instance(rng, 8, 2, 2))[2].engine == "ipm"
    assert solve(build_instance([[0.0], [1.0]], [[0.0], [0.0]]))[2].engine == "none"


def test_an_unfactorable_newton_system_ends_the_engine_at_the_last_iterate(monkeypatch):
    # Points 0 and 1 are 1e-12 apart: at iteration 22 the Newton system is
    # not positive definite in double precision, and the answer is the 21st
    # iterate, as when a direction is not finite.
    inst = near_duplicate_instance(0, 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coupling, potential, report = solve(inst)
    assert (report.engine, report.status, report.iterations) == ("ipm", "IterLimit", 21)
    assert report.notes == "interior-point iterates reached the limits of double precision"
    assert certify(inst, coupling, potential).verdict == "Suboptimal"
    with pytest.raises(NotConverged):
        kr_norm(inst)
    # A factor that fails at the first iteration leaves the starting point.
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kwargs: (a, 1))
    report = solve(random_instance(np.random.default_rng(83), 8, 2, 2))[2]
    assert (report.engine, report.status, report.iterations) == ("ipm", "IterLimit", 0)


# ---------------------------------------------------------------------------
# Edge generation (m = 1, complete graph)
# ---------------------------------------------------------------------------


def complete_graph_lp_value(inst) -> float:
    """The scalar transport LP on all N(N-1)/2 pairs, solved by HiGHS directly."""
    n = inst.size
    i, j = np.triu_indices(n, k=1)
    e_count = i.size
    edges = np.arange(e_count)
    incidence = scipy.sparse.csr_matrix(
        (np.r_[np.ones(e_count), -np.ones(e_count)], (np.r_[i, j], np.r_[edges, edges])),
        shape=(n, e_count),
    )
    d = inst.distances[i, j]
    res = scipy.optimize.linprog(
        np.r_[d, d],
        A_eq=scipy.sparse.hstack([incidence, -incidence]),
        b_eq=inst.measure.weights[:, 0],
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return float(res.fun)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_points", [16, 25, 40, 100, 300])
def test_edge_generation_matches_the_complete_graph_lp(n_points, dim):
    inst = random_instance(np.random.default_rng([n_points, dim]), n_points, dim, 1)
    all_pairs = n_points * (n_points - 1) // 2
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    assert report.engine == "lp"
    assert coupling.edge_count < all_pairs
    assert report.notes.startswith("edge generation: ")
    assert report.notes.endswith(f" rounds, {coupling.edge_count} of {all_pairs} pairs")
    full = complete_graph_lp_value(inst)
    assert abs(report.primal_value - full) <= 1e-9 * full
    assert abs(report.dual_value - full) <= 1e-9 * full
    assert certify(inst, coupling, potential, tol=1e-6).verdict == "Optimal"
    again_coupling, again_potential, again_report = solve(inst)
    assert again_report == report
    np.testing.assert_array_equal(again_coupling.pairs, coupling.pairs)
    np.testing.assert_array_equal(again_coupling.flows, coupling.flows)
    np.testing.assert_array_equal(again_potential.values, potential.values)


@pytest.mark.parametrize("n_points", [2, 3, 5])
def test_tiny_scalar_clouds_match_the_complete_graph_lp(n_points):
    # Up to 13 points the 12-nearest-neighbour start graph is the complete
    # graph; two points form a tree, which the closed form solves without
    # edge generation.
    inst = random_instance(np.random.default_rng([n_points, 109]), n_points, 2, 1)
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    assert report.engine == ("tree" if n_points == 2 else "lp")
    if n_points == 2:
        assert report.notes == ""
    else:
        assert report.notes.startswith("edge generation: 1 rounds, ")
    full = complete_graph_lp_value(inst)
    assert abs(report.primal_value - full) <= 1e-9 * full
    assert certify(inst, coupling, potential, tol=1e-6).verdict == "Optimal"


def test_edge_generation_on_a_collinear_cloud_matches_the_line_oracle():
    rng = np.random.default_rng(97)
    inst = random_instance(rng, 80, 1, 1)
    coupling, potential, report = solve(inst)
    assert report.notes.startswith("edge generation: ")
    expected = line_oracle(inst)
    assert abs(report.primal_value - expected) <= 1e-9 * expected
    assert certify(inst, coupling, potential, tol=1e-6).verdict == "Optimal"


def clustered_instance(dim: int):
    """120 points in five clusters of radius 1e-3, centred in [-10, 10]^dim."""
    rng = np.random.default_rng([120, dim, 8])
    centres = rng.uniform(-10.0, 10.0, (5, dim))
    pts = centres[rng.integers(0, 5, 120)] + 1e-3 * rng.normal(size=(120, dim))
    w = rng.normal(size=(120, 1))
    return build_instance(pts, w - w.mean(axis=0))


def two_cluster_instance():
    """120 points in two unit squares 20 apart."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(120, 2))
    pts[60:, 0] += 20.0
    w = rng.normal(size=(120, 1))
    return build_instance(pts, w - w.mean(axis=0))


@pytest.mark.parametrize(
    "make",
    [two_cluster_instance, lambda: clustered_instance(2), lambda: clustered_instance(3)],
    ids=["two-clusters", "five-clusters-2d", "five-clusters-3d"],
)
def test_edge_generation_joins_the_components_of_a_disconnected_neighbour_graph(make):
    # The 12-nearest-neighbour graph has a component per cluster, each
    # carrying net mass, so without the joining pairs the first LP is
    # infeasible.
    inst = make()
    n, k = inst.size, vecot.solver._GENERATION_NEIGHBOURS
    start = vecot.solver._start_keys(inst.distances, k)
    nearest = np.argsort(inst.distances, axis=1)[:, 1 : k + 1]
    i = np.repeat(np.arange(n), k)
    lo, hi = np.minimum(i, nearest.ravel()), np.maximum(i, nearest.ravel())
    assert component_labels(n, np.column_stack([lo, hi])).max() > 0
    assert np.isin(lo * n + hi, start).all()
    assert component_labels(n, np.column_stack([start // n, start % n])).max() == 0
    coupling, potential, report = solve(inst)
    assert (report.status, report.engine) == ("Converged", "lp")
    assert report.notes.startswith("edge generation: ")
    full = complete_graph_lp_value(inst)
    assert abs(report.primal_value - full) <= 1e-9 * full
    assert certify(inst, coupling, potential, tol=1e-6).verdict == "Optimal"


def test_edge_generation_certifies_near_duplicate_points():
    # Pairs of points 1e-7 apart.  At HiGHS's default feasibility tolerance
    # (1e-7) the LP potential overstretches them by more than tol_gap, and
    # the solve fell back to the interior-point method.
    rng = np.random.default_rng(113)
    pts = rng.uniform(-1.0, 1.0, size=(25, 2))
    pts = np.concatenate([pts, pts + 1e-7 * rng.normal(size=(25, 2))])
    w = rng.normal(size=(50, 1))
    inst = build_instance(pts, w - w.mean())
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    assert report.engine == "lp"
    # linprog's own value stops short of the optimum here: this solve's
    # coupling is cheaper, and its certified lower bound lies below both.
    full = complete_graph_lp_value(inst)
    assert report.dual_value <= report.primal_value <= full
    assert certify(inst, coupling, potential, tol=1e-6).verdict == "Optimal"


def test_generation_scan_adds_exactly_the_violated_pairs(monkeypatch):
    # Each round's new columns are the pairs i < j, found by a pair loop, that
    # the round's potential stretches beyond 1 and the model does not hold.
    highs = highs_core._Highs
    added, duals = [], []
    add_cols, get_solution = highs.addCols, highs.getSolution

    def recorded_add_cols(self, *args):
        indices = np.asarray(args[6])
        added.append(list(zip(indices[0::4].tolist(), indices[1::4].tolist())))
        return add_cols(self, *args)

    def recorded_get_solution(self):
        solution = get_solution(self)
        duals.append(np.array(solution.row_dual))
        return solution

    monkeypatch.setattr(highs, "addCols", recorded_add_cols)
    monkeypatch.setattr(highs, "getSolution", recorded_get_solution)
    inst = random_instance(np.random.default_rng(107), 120, 2, 1)
    solve(inst)
    monkeypatch.undo()
    assert len(added) == len(duals) >= 2
    n, dist_hat = inst.size, inst.distances / inst.distances.max()
    held = set(added[0])
    for round_, u_raw in enumerate(duals):
        norms = vecot.distance_matrix((u_raw - u_raw[0])[:, None])
        violated = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if norms[i, j] / dist_hat[i, j] > 1.0 and (i, j) not in held
        ]
        assert violated == (added[round_ + 1] if round_ + 1 < len(added) else [])
        held.update(violated)


def reference_prune(pairs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The metric pruning of the complete graph, in chunks of pairs."""
    n = dist.shape[0]
    e_count = pairs.shape[0]
    keep = np.ones(e_count, dtype=bool)
    chunk = max(1, 2_000_000 // max(n, 1))
    for lo in range(0, e_count, chunk):
        hi = min(lo + chunk, e_count)
        i = pairs[lo:hi, 0]
        j = pairs[lo:hi, 1]
        chain = dist[i, :] + dist[j, :]
        rows = np.arange(hi - lo)
        chain[rows, i] = np.inf
        chain[rows, j] = np.inf
        keep[lo:hi] = chain.min(axis=1) > dist[i, j] * (1.0 + 1e-12)
    pruned = pairs[keep]
    if pruned.shape[0] < e_count and component_labels(n, pruned).max() > 0:
        return pairs
    return pruned


def test_edge_list_matches_the_chunked_pruning_bit_for_bit():
    rng = np.random.default_rng(131)
    clouds = [rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 40)), dim)) for dim in (1, 2, 3, 2)]
    # Lattices and lines are full of exactly collinear triples.
    clouds += [np.argwhere(np.ones((5, 4))) * 0.5, np.argwhere(np.ones((3, 3, 3))).astype(float)]
    clouds += [np.column_stack([t, 2.0 * t]) for t in (np.arange(9.0), rng.uniform(size=12))]
    # Near-duplicate points, whose pruned graph can fall apart.
    base = rng.uniform(-1.0, 1.0, size=(12, 2))
    clouds += [np.concatenate([base, base + 1e-13 * rng.normal(size=(12, 2))])]
    clouds += [np.array([[0.0], [1.0], [1.0 + 1e-13], [3.0]])]
    for pts in clouds:
        inst = build_instance(pts, np.zeros((len(pts), 2)))
        everything = np.column_stack(np.triu_indices(len(pts), k=1))
        expected = reference_prune(everything, inst.distances)
        got = vecot.solver._edge_list(inst)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_edge_list_keeps_every_pair_when_pruning_disconnects_the_graph():
    # Within the 1e-12 slack, (0, 2) reroutes through 1 and (0, 1) through 2,
    # which leaves point 0 without an edge.
    inst = build_instance([[0.0], [1.0], [1.0 + 1e-13]], np.zeros((3, 2)))
    np.testing.assert_array_equal(vecot.solver._edge_list(inst), [[0, 1], [0, 2], [1, 2]])


@pytest.mark.parametrize("m", [1, 2])
def test_a_distance_that_underflows_is_a_duplicate_point(m):
    w = np.zeros((3, m))
    w[0], w[2] = 1.0, -1.0
    inst = build_instance([[0.0, 0.0], [1e-170, 0.0], [1.0, 0.3]], w)
    with pytest.raises(DuplicatePoint, match="points 0 and 1"):
        solve(inst)


def test_edge_generation_falls_back_when_the_lp_solver_declines(monkeypatch):
    monkeypatch.setattr(
        highs_core._Highs, "getModelStatus",
        lambda self: highs_core.HighsModelStatus.kIterationLimit,
    )
    inst = random_instance(np.random.default_rng(103), 80, 2, 1)
    all_pairs = 80 * 79 // 2
    coupling, potential, report = solve(inst)
    assert report.engine == "ipm"
    assert report.status == "Converged"
    assert report.notes == ""
    assert coupling.edge_count == all_pairs
    monkeypatch.undo()
    assert report.primal_value == pytest.approx(kr_norm(inst), rel=1e-6)


def test_iterations_sum_the_simplex_counts_of_every_round(monkeypatch):
    # HiGHS's info holds the count of its last run only.
    counts = []
    run = highs_core._Highs.run

    def counted_run(self):
        status = run(self)
        counts.append(self.getInfo().simplex_iteration_count)
        return status

    monkeypatch.setattr(highs_core._Highs, "run", counted_run)
    inst = random_instance(np.random.default_rng(107), 300, 2, 1)
    _, _, report = solve(inst)
    assert report.engine == "lp"
    assert len(counts) >= 2
    assert report.notes.startswith(f"edge generation: {len(counts)} rounds, ")
    assert report.iterations == sum(counts)


def test_the_repair_reuses_the_last_generation_scan(monkeypatch):
    # Each round scans every pair once; the last scan finds no violated pair,
    # and the potential repair starts from it rather than scanning again.
    calls = []
    scan = vecot.solver.stretch_ratios

    def counted(values, distances):
        calls.append(values.shape)
        return scan(values, distances)

    monkeypatch.setattr(vecot.solver, "stretch_ratios", counted)
    for n_points, dim in ((12, 1), (40, 2), (120, 3)):
        calls.clear()
        inst = random_instance(np.random.default_rng([n_points, 7]), n_points, dim, 1)
        _, _, report = solve(inst)
        assert (report.engine, report.status) == ("lp", "Converged")
        rounds = int(report.notes.split()[2])
        assert len(calls) == rounds


def reference_feasible_potential(u_raw: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """The potential repair with a full scan of the stretch matrix per sweep."""
    u = u_raw - u_raw[0]
    num = vecot.distance_matrix(u)
    safe_d = np.where(distances > 0, distances, 1.0)
    np.fill_diagonal(safe_d, 1.0)
    for _ in range(vecot.solver._REPAIR_SWEEPS):
        ratio = num / safe_d
        i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        if ratio[i, j] <= 1.0:
            break
        du = u[i] - u[j]
        nrm = num[i, j]
        shift = (0.5 * (nrm - distances[i, j] * (1.0 - 1e-12)) / nrm) * du
        u[i] -= shift
        u[j] += shift
        for k in (i, j):
            dk = u[k] - u
            num[k, :] = num[:, k] = np.sqrt(np.einsum("ij,ij->i", dk, dk))
            num[k, k] = 0.0
    lip = float((num / safe_d).max())
    if lip > 1.0:
        u = u * ((1.0 - 1e-15) / lip)
    return u - u[0]


def test_potential_repair_matches_the_full_scan_bit_for_bit():
    # Stretched potentials need many sweeps (some more than the sweep limit);
    # points on a coarse grid and rounded values make ties in the ratios.
    rng = np.random.default_rng(107)
    for trial in range(48):
        n_points, n, m = int(rng.integers(2, 60)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pts = rng.uniform(-1.0, 1.0, size=(n_points, n))
        if trial % 4 == 0:
            pts = np.round(pts * 3.0) / 3.0 + 1e-9 * np.arange(n_points)[:, None]
        distances = vecot.distance_matrix(pts)
        distances /= distances.max()
        u_raw = rng.normal(size=(n_points, m)) * (0.3, 0.32, 0.45, 0.9)[trial % 4]
        if trial % 3 == 0:
            u_raw = np.round(u_raw, 1)
        expected = reference_feasible_potential(u_raw.copy(), distances)
        got = vecot.solver._feasible_potential(u_raw.copy(), distances)
        np.testing.assert_array_equal(got, expected)


def reference_block_laplacian(h: np.ndarray, pairs: np.ndarray, n: int) -> np.ndarray:
    """Dense ``sum_e b_e b_e^T (x) h_e`` for ``b_e = e_i - e_j``, block by block:
    the interior-point engine's Newton matrix before it was assembled in place."""
    m = h.shape[1]
    i, j = pairs[:, 0], pairs[:, 1]
    blocks = np.zeros((n, n, m, m))
    blocks[i, j] = -h
    blocks[j, i] = -h
    diag = np.zeros((n, m, m))
    np.add.at(diag, i, h)
    np.add.at(diag, j, h)
    blocks[np.arange(n), np.arange(n)] = diag
    return blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def test_newton_assembly_matches_the_block_laplacian_bit_for_bit():
    # Connected edge sets (a random tree hung from point 0 plus random extra
    # pairs) with several edges at point 0, and blocks of the engine's form
    # (I + 2 w w^T) / beta^2 as well as unstructured ones.
    rng = np.random.default_rng(113)
    for trial in range(80):
        n, m = int(rng.integers(2, 61)), 1 + trial % 4
        tree = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        extra = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        extra[: n // 4, 0] = 0
        pairs = np.sort(np.concatenate([np.array(tree).reshape(-1, 2), extra]), axis=1)
        pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
        assert np.any(pairs[:, 0] == 0)
        w1 = rng.normal(size=(len(pairs), m))
        beta2 = rng.uniform(1e-3, 1e3, len(pairs))
        h = (np.eye(m) + 2.0 * w1[:, :, None] * w1[:, None, :]) / beta2[:, None, None]
        if trial % 2:
            h = rng.normal(size=h.shape) * 10.0 ** rng.integers(-8, 8, size=h.shape)
        expected = np.triu(reference_block_laplacian(h, pairs, n)[m:, m:])
        got = vecot.solver._newton_assembly(pairs, n, m)(h)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_incidence_products_match_scipy_csr_bit_for_bit():
    # scipy's CSR incidence matrix and its transpose, as the engine built
    # them, on connected edge sets sorted as the solver sorts them; the
    # vectors hold signed zeros, which the sums must turn into +0.0
    # wherever scipy does.
    rng = np.random.default_rng(127)
    for trial in range(30):
        n, m = int(rng.integers(3, 51)), 2 + trial % 3
        tree = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        extra = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        pairs = np.sort(np.concatenate([np.array(tree), extra]), axis=1)
        pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
        e_count = len(pairs)
        incidence = scipy.sparse.csr_matrix(
            (
                np.concatenate([np.ones(e_count), -np.ones(e_count)]),
                (pairs.T.ravel(), np.tile(np.arange(e_count), 2)),
            ),
            shape=(n, e_count),
        )
        v = rng.normal(size=(e_count, m)) * 10.0 ** rng.integers(-8, 8, size=(e_count, m))
        du = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 8, size=(n, m))
        for array in (v, du):
            array[rng.uniform(size=array.shape) < 0.2] = 0.0
            array[rng.uniform(size=array.shape) < 0.2] = -0.0
        net, difference = vecot.solver._incidence_products(n, m, pairs)
        for got, expected in ((net(v), incidence @ v), (difference(du), incidence.T.tocsr() @ du)):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def reference_interior_point_engine(w_hat, d_edge, pairs, params, accept):
    """The interior-point engine as it was before it stacked its two cones:
    primal points and dual slacks in separate arrays, with ``_step_frame``,
    ``_cone_det`` and ``_max_step`` below, ``np.einsum`` sums, and every
    Newton matrix factored and solved tile by tile."""
    n, m = w_hat.shape
    e_count = d_edge.shape[0]
    eye = np.eye(m)
    no_t = np.zeros(e_count)
    net, difference = vecot.solver._incidence_products(n, m, pairs)
    assemble = vecot.solver._newton_assembly(pairs, n, m)
    t = np.ones(e_count)
    x = np.zeros((e_count, m))
    u = np.zeros((n, m))
    sx = np.zeros((e_count, m))
    r_p = w_hat.copy()
    comp = _dot(t, d_edge)
    zj, sj = np.ones(e_count), d_edge
    for it in range(1, params.max_iters + 1):
        gamma2 = 2.0 * np.sqrt(0.5 * (1.0 + (t * d_edge + _rowdot(x, sx)) / (zj * sj)))
        frame_z, frame_s = _step_frame(t, x, zj), _step_frame(d_edge, sx, sj)
        w0 = (frame_s[0] + frame_z[0]) / gamma2
        w1 = (frame_s[1] - frame_z[1]) / gamma2[:, None]
        w0_1, w0_2, w1_2 = 1.0 + w0, 2.0 * w0, 2.0 * w1
        beta = np.sqrt(sj / zj)
        beta_c, beta2 = beta[:, None], beta * beta
        w1x = _rowdot(w1, x)
        lam0 = beta * (w0 * t + w1x)
        lam0_c = lam0[:, None]
        lam1 = beta_c * (t[:, None] * w1 + x + w1 * (w1x / w0_1)[:, None])
        lam_det = zj * sj

        h = (eye + w1_2[:, :, None] * w1[:, None, :]) / beta2[:, None, None]
        chol = vecot.solver._tiled_cholesky(assemble(h))
        if chol is None:
            return x, u, it - 1, comp, None

        def direction(rc0, rc1):
            q0 = (lam0 * rc0 - _rowdot(lam1, rc1)) / lam_det
            q1 = (rc1 - lam1 * q0[:, None]) / lam0_c
            wq = _rowdot(w1, q1)
            v0 = (w0 * q0 - wq) / beta
            v1 = (q1 - w1 * (q0 - wq / w0_1)[:, None]) / beta_c
            rhs = (r_p - net(v1)).ravel()[m:]
            du = np.zeros(n * m)
            du[m:] = vecot.solver._tiled_solve(chol, rhs)
            du = du.reshape(n, m)
            g = difference(du)
            wg = _rowdot(w1, g)
            dt = v0 - w0_2 * wg / beta2
            dx = v1 + (g + w1_2 * wg[:, None]) / beta2[:, None]
            dsx = -g
            step = min(_max_step(frame_z, dt, dx), _max_step(frame_s, no_t, dsx))
            return dt, dx, du, dsx, step

        lam_sq0 = lam0 * lam0 + _rowdot(lam1, lam1)
        lam_sq1 = 2.0 * lam0_c * lam1
        dt, dx, du, dsx, step = direction(-lam_sq0, -lam_sq1)
        alpha = min(1.0, step)
        comp_aff = _dot(t + alpha * dt, d_edge) + _dot(x + alpha * dx, sx + alpha * dsx)
        sigma = min(1.0, max(0.0, comp_aff / comp)) ** 3
        w1dx = _rowdot(w1, dx)
        w1ds = _rowdot(w1, dsx)
        a0 = beta * (w0 * dt + w1dx)
        a1 = beta_c * (dt[:, None] * w1 + dx + w1 * (w1dx / w0_1)[:, None])
        b0 = -w1ds / beta
        b1 = (dsx + w1 * (w1ds / w0_1)[:, None]) / beta_c
        rc0 = sigma * comp / e_count - lam_sq0 - (a0 * b0 + _rowdot(a1, b1))
        rc1 = -lam_sq1 - (a0[:, None] * b1 + b0[:, None] * a1)
        dt, dx, du, dsx, step = direction(rc0, rc1)
        alpha = min(1.0, 0.99 * step)
        t = t + alpha * dt
        x = x + alpha * dx
        sx = sx + alpha * dsx
        u = u + alpha * du

        r_p = w_hat - net(x)
        cone_primal = _dot(t, d_edge)
        comp = cone_primal + _dot(x, sx)
        if (
            comp <= 1e-12 + params.tol_gap * cone_primal
            and np.sqrt(_dot(r_p, r_p)) <= params.tol_primal
        ):
            u_hat = accept(x, u)
            if u_hat is not None:
                return x, u, it, comp, u_hat
        zj2 = _cone_det(t, x)
        sj2 = _cone_det(d_edge, sx)
        if not (np.all(zj2 > 0.0) and np.all(sj2 > 0.0)):
            return x, u, it, comp, None
        zj, sj = np.sqrt(zj2), np.sqrt(sj2)
    return x, u, params.max_iters, comp, None


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _dot(a, b) -> float:
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _cone_det(u0, u1):
    un = np.sqrt(_rowdot(u1, u1))
    return (u0 - un) * (u0 + un)


def _step_frame(u0, u1, uj):
    ub0 = u0 / uj
    return ub0, u1 / uj[:, None], ub0 + 1.0, uj


def _max_step(frame, du0, du1) -> float:
    ub0, ub1, ub0_1, uj = frame
    ubdu = ub0 * du0 - _rowdot(ub1, du1)
    rho1 = (du1 - ((ubdu + du0) / ub0_1)[:, None] * ub1) / uj[:, None]
    sigma = float(np.max(np.sqrt(_rowdot(rho1, rho1)) - ubdu / uj))
    return 1.0 / sigma if sigma > 0.0 else np.inf


def near_duplicate_instance(seed: int, gap: float):
    """Ten planar points, m = 2, with points 0 and 1 ``gap`` apart."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (10, 2))
    pts[1] = pts[0] + gap * rng.normal(size=2)
    w = rng.normal(size=(10, 2))
    w -= w.mean(axis=0)
    return build_instance(pts, w)


def engine_outcome(engine, args):
    """An engine's result as bytes and hex strings."""
    flows, u_raw, iterations, comp, u_hat = engine(*args)
    accepted = None if u_hat is None else u_hat.tobytes()
    return flows.tobytes(), u_raw.tobytes(), accepted, iterations, float(comp).hex()


def test_interior_point_engine_matches_the_reference_bit_for_bit(monkeypatch):
    # The engine's row dots call einsum's kernel directly; falling back to
    # np.einsum keeps the bits but loses the saving, so it must not go unseen.
    assert vecot.core._einsum is not np.einsum
    engine = vecot.solver._interior_point_engine
    outcomes = []

    def spy(*args):
        got = engine_outcome(engine, args)
        expected = engine_outcome(reference_interior_point_engine, args)
        assert got == expected
        outcomes.append(got)
        return engine(*args)

    monkeypatch.setattr(vecot.solver, "_interior_point_engine", spy)
    rng = np.random.default_rng(2024)  # the acceptance tests' criterion-2 batch
    batch = []
    for _ in range(100):
        big_n, n, m = int(rng.integers(2, 26)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        inst = random_instance(rng, big_n, n, m)
        if m >= 2:
            batch.append(inst)
    presets = [paper_preset().instance(), orthant_spec(3).instance(), orthant_spec(4).instance()]
    for inst in batch + presets + list(hard_instances().values()):
        solve(inst)
    for m in (2, 3, 4):
        solve(random_instance(np.random.default_rng(61), 9, 2, m), SolverParams(max_iters=3))
    # 49 of the batch's 70 vector items reach the engine; the rest are trees.
    assert len(outcomes) == 49 + 3 + 3 + 3
    stops = {}
    for gap in (1e-9, 1e-12):
        for seed in (0, 1, 2, 3, 5, 6, 7):
            report = solve(near_duplicate_instance(seed, gap))[2]
            precision = "interior-point iterates reached the limits of double precision"
            assert report.status == "Converged" or report.notes == precision
            stops[seed, gap] = (report.status, report.iterations)
    assert len(outcomes) == 58 + 14
    # Seed 0's Newton system at iteration 22 cannot be factored.
    assert stops[0, 1e-12] == ("IterLimit", 21)


def test_a_direction_that_is_not_finite_ends_the_engine_at_the_last_finite_iterate(monkeypatch):
    # Points 0 and 1 are 1e-12 apart: at iteration 18 the predictor divides
    # by a zero lam0, and the engine it was before stepped onto NaN flows.
    engine, calls = vecot.solver._interior_point_engine, []

    def spy(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(vecot.solver, "_interior_point_engine", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coupling, potential, report = solve(near_duplicate_instance(4, 1e-12))
    assert (report.engine, report.status, report.iterations) == ("ipm", "IterLimit", 17)
    assert report.notes == "interior-point iterates reached the limits of double precision"
    assert np.isfinite(coupling.flows).all() and np.isfinite(potential.values).all()
    assert np.isfinite(report.dual_residual)
    # The answer is the seventeenth iterate, and the eighteenth is not finite.
    ((w_hat, d_edge, pairs, _, accept),) = calls
    args = (w_hat, d_edge, pairs, SolverParams(max_iters=17), accept)
    assert engine_outcome(engine, args) == engine_outcome(reference_interior_point_engine, args)
    with np.errstate(all="ignore"):
        flows = reference_interior_point_engine(
            w_hat, d_edge, pairs, SolverParams(max_iters=18), accept
        )[0]
    assert np.isnan(flows).any()


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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
    outputs = []
    for threads in ("1", "2", "2"):
        done = python("-c", DIGEST_SCRIPT, **dict.fromkeys(THREAD_VARIABLES, threads))
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].startswith("ipm Converged ")
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


REDUCTION_SCRIPT = """
import numpy as np
from vecot import VectorCoupling, build_instance, cost, line_oracle
rng = np.random.default_rng(0)
cloud = build_instance(rng.uniform(-1.0, 1.0, (300, 2)), np.zeros((300, 1)))
iu, ju = np.triu_indices(300, k=1)
coupling = VectorCoupling(np.column_stack([iu, ju]), rng.normal(size=(len(iu), 2)))
w = rng.normal(size=(50_000, 1))
line = build_instance(rng.uniform(-1.0, 1.0, (50_000, 1)), w - w.mean())
print(cost(coupling, cloud).hex(), line_oracle(line).hex())
"""


def test_cost_and_line_oracle_are_bit_identical_across_thread_counts():
    # 44,850 edges and 50,000 gaps: long enough for OpenBLAS to split a dot
    # product over two threads.
    outputs = []
    for threads in ("1", "2"):
        done = python("-c", REDUCTION_SCRIPT, **dict.fromkeys(THREAD_VARIABLES, threads))
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[1] == outputs[0]

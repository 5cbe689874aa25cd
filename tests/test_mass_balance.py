"""Tests for the refuting instance family and transport-set mass balance."""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from vecot import mass_balance
from vecot import (
    BallOverlap,
    CounterexampleSpec,
    DimensionMismatch,
    DuplicatePoint,
    InvalidParameter,
    InvalidSpec,
    NonzeroTotalMass,
    RankDeficiency,
    ZeroVector,
    analytic_optimum,
    build_instance,
    certify,
    check_counterexample_spec,
    extract_leaves,
    isometry_graph,
    kr_norm,
    lipschitz_constant,
    marginal_abs_continuity_surrogate,
    mass_balance_report,
    orthant_spec,
    paper_preset,
    smoothed_instance,
    solve,
)

SQRT5 = float(np.sqrt(5.0))


def decompose(instance, potential, eps=1e-6):
    return extract_leaves(isometry_graph(potential, eps=eps), potential)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_enforces_shapes_and_zero_sum():
    with pytest.raises(DimensionMismatch):
        CounterexampleSpec(
            np.array([[0.0], [1.0], [2.0]]),
            np.array([[1.0], [-1.0], [0.0]]),  # needs m+1 = 2 anchors, got 3
        )
    with pytest.raises(DimensionMismatch):
        CounterexampleSpec(
            np.array([[0.0], [1.0], [2.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),  # m=2 > n=1
        )
    with pytest.raises(NonzeroTotalMass):
        CounterexampleSpec(
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            np.array([[1.0, 0.0], [1.0, 2.0], [-2.0, -1.0]]),  # sums to (0, 1)
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_vectors_that_are_not_finite(bad):
    vectors = np.array([[1.0, 0.0], [1.0, 2.0], [-2.0, -2.0]])
    vectors[1, 0] = bad
    with pytest.raises(DimensionMismatch, match="weights must be finite"):
        CounterexampleSpec(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), vectors)


@pytest.mark.parametrize(
    "scale, error, match",
    [(1e-200, DuplicatePoint, "points 0 and 1 are at distance 0.0"),
     (1e-160, DimensionMismatch, "points 0 and 1 is below 2\\^-511"),
     (1e200, DimensionMismatch, "points 0 and 1 overflows to inf")],
    ids=["1e-200", "1e-160", "1e200"],
)
def test_spec_rejects_anchor_distances_outside_the_numeric_range(scale, error, match):
    # Unrefused, such anchors give the margin a NaN, which the closed form
    # took for a valid spec of value 0.0 (1e-200), or overflow (1e200).
    anchors = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            CounterexampleSpec(anchors, paper_preset().vectors)


def test_spec_properties_and_instance():
    spec = paper_preset()
    assert spec.n == 2 and spec.m == 2
    inst = spec.instance()
    assert inst.size == 3
    np.testing.assert_array_equal(inst.measure.weights, spec.vectors)


def test_margin_of_the_preset():
    # Normalized weights have inner product 1/sqrt(5) twice and 0 once is
    # wrong: the binding pair is the anchor directions, which are
    # orthogonal, so the margin is min over pairs of <v_i, v_j>.
    margin = check_counterexample_spec(paper_preset())
    assert margin == pytest.approx(1.0 / SQRT5, rel=1e-12)


def test_margin_checks_raise_on_degenerate_weights():
    with pytest.raises(ZeroVector):
        check_counterexample_spec(
            CounterexampleSpec(
                np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                np.array([[1.0, 1.0], [0.0, 0.0], [-1.0, -1.0]]),
            )
        )
    with pytest.raises(RankDeficiency):
        check_counterexample_spec(
            CounterexampleSpec(
                np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                np.array([[1.0, 1.0], [2.0, 2.0], [-3.0, -3.0]]),
            )
        )


def test_scalar_specs_have_infinite_margin():
    spec = CounterexampleSpec(np.array([[0.0], [2.0]]), np.array([[1.5], [-1.5]]))
    assert check_counterexample_spec(spec) == np.inf
    _, _, value = analytic_optimum(spec)
    assert value == pytest.approx(3.0)


def test_analytic_optimum_requires_positive_margin(monkeypatch):
    aligned = CounterexampleSpec(
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
    )
    assert check_counterexample_spec(aligned) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InvalidSpec):
        analytic_optimum(aligned)
    # A margin that is not a number is not positive either.
    monkeypatch.setattr(mass_balance, "check_counterexample_spec", lambda spec: float("nan"))
    with pytest.raises(InvalidSpec, match="margin nan"):
        analytic_optimum(paper_preset())


# ---------------------------------------------------------------------------
# Closed form vs solver
# ---------------------------------------------------------------------------


def test_preset_closed_form_value():
    spec = paper_preset()
    u, coupling, value = analytic_optimum(spec)
    assert value == pytest.approx(1.0 + SQRT5, rel=1e-12)
    inst = spec.instance()
    cert = certify(inst, coupling, u, tol=1e-9)
    assert cert.verdict == "Optimal"
    assert kr_norm(inst) == pytest.approx(value, rel=1e-6)


def test_analytic_potential_is_isometric_on_star_edges_only():
    spec = paper_preset()
    u, _, _ = analytic_optimum(spec)
    inst = spec.instance()
    assert lipschitz_constant(u) <= 1.0 + 1e-12
    d = inst.distances
    vals = u.values
    # Hub edges are isometric; the cross edge strictly contracts.
    for i in (0, 1):
        assert np.linalg.norm(vals[i] - vals[2]) == pytest.approx(d[i, 2])
    assert np.linalg.norm(vals[0] - vals[1]) < d[0, 1] - 0.1


def test_orthant_family_matches_solver():
    for m in (2, 3):
        spec = orthant_spec(m)
        assert check_counterexample_spec(spec) > 0.0
        u, coupling, value = analytic_optimum(spec)
        inst = spec.instance()
        assert certify(inst, coupling, u, tol=1e-9).verdict == "Optimal"
        assert kr_norm(inst) == pytest.approx(value, rel=1e-5)


def test_orthant_spec_rejects_bad_parameters():
    with pytest.raises(InvalidSpec):
        orthant_spec(1)
    with pytest.raises(InvalidSpec):
        orthant_spec(3, pull=0.0)
    # A pull that is not finite would build vectors that are not finite.
    for pull in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidSpec, match="finite and positive"):
            orthant_spec(2, pull=pull)
    # A finite pull whose vectors' sum overflows is refused by the measure.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="weights must be finite"):
            orthant_spec(3, pull=1e308)


def test_orthant_spec_refuses_dimensions_above_64_before_allocating():
    # The interior-point Newton matrix grows as m^4; 2^70 would ask numpy for
    # m x m arrays that no machine holds.
    assert orthant_spec(64).m == 64
    for m in (65, 2**70):
        with pytest.raises(InvalidSpec, match=f"m = {m} exceeds 64"):
            orthant_spec(m)


# ---------------------------------------------------------------------------
# Balance verdicts
# ---------------------------------------------------------------------------


def test_preset_balance_fails_with_hub_witness():
    spec = paper_preset()
    u, coupling, _ = analytic_optimum(spec)
    inst = spec.instance()
    dec = decompose(inst, u)
    # Both leaves contain the hub (index 2).
    assert [tuple(l.member_indices) for l in dec.leaves] == [(0, 2), (1, 2)]
    np.testing.assert_array_equal(dec.boundary_flags, [2])
    report = mass_balance_report(inst, dec)
    assert report.verdict == "BalanceFails"
    np.testing.assert_array_equal(report.witness, [0, 2])
    np.testing.assert_allclose(report.entries[0].mass, [-1.0, -2.0])
    assert report.entries[0].norm == pytest.approx(SQRT5)
    np.testing.assert_allclose(report.entries[1].mass, [-1.0, 0.0])


def test_preset_balance_fails_from_solver_output_too():
    spec = paper_preset()
    inst = spec.instance()
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    dec = decompose(inst, potential, eps=1e-5)
    balance = mass_balance_report(inst, dec)
    assert balance.verdict == "BalanceFails"
    np.testing.assert_array_equal(balance.witness, [0, 2])


def test_scalar_tent_instance_breaks_balance_at_the_branch_atom():
    # Atoms +1, -2, +1 on a line: both transport sets absorb mass -1 at
    # the shared middle atom, so even m = 1 fails on atomic instances.
    inst = build_instance([[0.0], [1.0], [2.0]], [[1.0], [-2.0], [1.0]])
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    assert report.primal_value == pytest.approx(2.0, rel=1e-9)
    dec = decompose(inst, potential, eps=1e-6)
    assert [tuple(l.member_indices) for l in dec.leaves] == [(0, 1), (1, 2)]
    balance = mass_balance_report(inst, dec)
    assert balance.verdict == "BalanceFails"
    masses = [e.mass[0] for e in balance.entries]
    assert masses == pytest.approx([-1.0, -1.0])


def test_one_signed_scalar_instance_balances():
    # Cumulative mass never changes sign, so a single transport set covers
    # everything and carries zero net mass.
    inst = build_instance([[0.0], [1.0], [2.0]], [[1.0], [1.0], [-2.0]])
    coupling, potential, _ = solve(inst)
    dec = decompose(inst, potential, eps=1e-6)
    report = mass_balance_report(inst, dec)
    assert report.verdict == "BalanceHolds"
    assert len(report.entries) == 1
    np.testing.assert_array_equal(report.entries[0].members, [0, 1, 2])


def test_two_atom_instances_always_balance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        pts = rng.normal(size=(2, 2))
        w = rng.normal(size=(1, 2))
        inst = build_instance(pts, np.vstack([w, -w]))
        _, potential, _ = solve(inst)
        dec = decompose(inst, potential, eps=1e-6)
        assert mass_balance_report(inst, dec).verdict == "BalanceHolds"


def test_balance_report_checks_cloud_size():
    spec = paper_preset()
    u, _, _ = analytic_optimum(spec)
    dec = decompose(spec.instance(), u)
    other = build_instance([[0.0], [1.0]], [[1.0], [-1.0]])
    with pytest.raises(DimensionMismatch):
        mass_balance_report(other, dec)
    # Same size, other points: the decomposition's transport sets do not
    # belong to this instance.
    inst = build_instance([[0.0], [1.0], [2.0]], [[1.0], [1.0], [-2.0]])
    moved = build_instance([[0.0], [5.0], [7.0]], [[1.0], [1.0], [-2.0]])
    with pytest.raises(DimensionMismatch):
        mass_balance_report(inst, decompose(moved, solve(moved)[1]))
    # Equal points on another cloud object are the same cloud.
    twin = build_instance([[0.0], [1.0], [2.0]], [[1.0], [1.0], [-2.0]])
    assert mass_balance_report(inst, decompose(twin, solve(twin)[1])).verdict == "BalanceHolds"


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-8])
def test_balance_tol_must_be_finite_and_nonnegative(tol):
    spec = paper_preset()
    u, _, _ = analytic_optimum(spec)
    with pytest.raises(InvalidParameter):
        mass_balance_report(spec.instance(), decompose(spec.instance(), u), tol=tol)


# ---------------------------------------------------------------------------
# Marginal support surrogate
# ---------------------------------------------------------------------------


def test_surrogate_holds_on_the_preset():
    spec = paper_preset()
    _, coupling, _ = analytic_optimum(spec)
    assert marginal_abs_continuity_surrogate(coupling, spec.instance())


def test_surrogate_detects_uncharged_pass_through():
    # Mass routed through a point the measure does not charge.
    inst = build_instance([[0.0], [1.0], [2.0]], [[1.0], [0.0], [-1.0]])
    from vecot import VectorCoupling

    through = VectorCoupling(np.array([[0, 1], [1, 2]]), np.array([[1.0], [1.0]]))
    direct = VectorCoupling(np.array([[0, 2]]), np.array([[1.0]]))
    assert not marginal_abs_continuity_surrogate(through, inst)
    assert marginal_abs_continuity_surrogate(direct, inst)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_surrogate_tol_must_be_finite_and_nonnegative(tol):
    spec = paper_preset()
    _, coupling, _ = analytic_optimum(spec)
    with pytest.raises(InvalidParameter, match="tol must be finite and nonnegative"):
        marginal_abs_continuity_surrogate(coupling, spec.instance(), tol=tol)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------


def test_smoothed_instance_with_one_point_is_the_atomic_instance():
    spec = paper_preset()
    inst = smoothed_instance(spec, eps=0.1, points_per_ball=1)
    np.testing.assert_array_equal(inst.cloud.points, spec.anchors)
    np.testing.assert_array_equal(inst.measure.weights, spec.vectors)


def test_smoothed_instance_splits_mass_evenly():
    spec = paper_preset()
    inst = smoothed_instance(spec, eps=0.1, points_per_ball=5)
    assert inst.size == 15
    np.testing.assert_allclose(
        inst.measure.weights[:5], np.tile(spec.vectors[0] / 5.0, (5, 1))
    )
    # Every ball stays within its radius.
    for b in range(3):
        block = inst.cloud.points[5 * b : 5 * (b + 1)]
        radii = np.linalg.norm(block - spec.anchors[b], axis=1)
        assert radii.max() <= 0.1 + 1e-12
        assert radii.min() == 0.0  # center first


def test_smoothed_instance_rejects_overlap_and_bad_counts():
    spec = paper_preset()
    with pytest.raises(BallOverlap):
        smoothed_instance(spec, eps=0.5, points_per_ball=2)
    with pytest.raises(InvalidSpec):
        smoothed_instance(spec, eps=0.1, points_per_ball=0)
    with pytest.raises(InvalidSpec):
        smoothed_instance(spec, eps=-0.1, points_per_ball=2)
    with pytest.raises(InvalidSpec):
        smoothed_instance(spec, eps=float("nan"), points_per_ball=2)


@pytest.mark.parametrize("d", range(1, 21))
def test_halton_points_match_scipy_bit_for_bit(d):
    # Several consecutive draws from the start, and some deep in the
    # sequence, where every base has many digits.
    from scipy.stats import qmc

    sampler = qmc.Halton(d=d, scramble=False)
    start = 0
    for size in (1, 2, 7, 64, 1000, 4000):
        expected = sampler.random(size)
        got = mass_balance._halton(np.arange(start, start + size), d)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        start += size
    sampler.num_generated = 2**23 - 500  # fast_forward would draw the points
    expected = sampler.random(1000)
    assert mass_balance._halton(np.arange(2**23 - 500, 2**23 + 500), d).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "spec, eps, per_ball, digest",
    [
        (paper_preset(), 0.05, 4, "93f3a1b06abf9763ccff28df35781334bc7d62141048d7147f6cc2ceb3cc6c58"),
        (orthant_spec(4), 0.05, 6, "1475575dc381a6506667ce652242828e269987568a52c61c7f3a1cd13208e2a3"),
    ],
    ids=["paper", "orthant-4"],
)
def test_smoothed_points_keep_their_bytes(spec, eps, per_ball, digest):
    # Digests frozen from points drawn with scipy.stats.qmc.Halton.
    points = smoothed_instance(spec, eps=eps, points_per_ball=per_ball).cloud.points
    assert hashlib.sha256(points.tobytes()).hexdigest() == digest


def test_smoothing_converges_to_the_atomic_value():
    spec = paper_preset()
    _, _, value = analytic_optimum(spec)
    errs = []
    for eps in (0.2, 0.05):
        inst = smoothed_instance(spec, eps=eps, points_per_ball=4)
        errs.append(abs(kr_norm(inst) - value))
    assert errs[1] < errs[0]
    assert errs[1] <= 0.05 * 4.0  # error is O(eps) with a small constant

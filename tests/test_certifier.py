"""Tests for optimality certification of coupling/potential pairs."""

from __future__ import annotations

import numpy as np
import pytest

from vecot import (
    DimensionMismatch,
    PointCloud,
    PotentialField,
    VectorCoupling,
    build_instance,
    certify,
    isometry_saturation_set,
    solve,
)


def two_point():
    inst = build_instance([[0.0, 0.0], [3.0, 4.0]], [[1.0], [-1.0]])
    coupling = VectorCoupling(np.array([[0, 1]]), np.array([[1.0]]))
    # u(x) = -d(x, x0): 1-Lipschitz and tight on the used edge.
    potential = PotentialField(inst.measure.cloud, np.array([[0.0], [-5.0]]))
    return inst, coupling, potential


def test_optimal_verdict_on_tight_pair():
    inst, coupling, potential = two_point()
    cert = certify(inst, coupling, potential)
    assert cert.verdict == "Optimal"
    assert cert.gap == pytest.approx(0.0, abs=1e-12)
    assert cert.primal_value == pytest.approx(5.0)
    assert cert.dual_value == pytest.approx(5.0)
    assert cert.primal_feasibility == pytest.approx(0.0, abs=1e-12)
    assert cert.dual_feasibility == pytest.approx(1.0)
    assert cert.slack_violations == []


def test_infeasible_when_marginals_mismatch():
    inst, _, potential = two_point()
    wrong = VectorCoupling(np.array([[0, 1]]), np.array([[0.25]]))
    cert = certify(inst, wrong, potential)
    assert cert.verdict == "Infeasible"
    assert cert.primal_feasibility > 1.0


def test_infeasible_when_potential_stretches():
    inst, coupling, _ = two_point()
    steep = PotentialField(inst.measure.cloud, np.array([[0.0], [-6.0]]))
    cert = certify(inst, coupling, steep)
    assert cert.verdict == "Infeasible"
    assert cert.dual_feasibility == pytest.approx(1.2)


def test_suboptimal_when_potential_is_slack():
    inst, coupling, _ = two_point()
    flat = PotentialField(inst.measure.cloud, np.array([[0.0], [-2.5]]))
    cert = certify(inst, coupling, flat)
    # Feasible on both sides but the gap is 2.5 and the edge is unsaturated.
    assert cert.verdict == "Suboptimal"
    assert cert.gap == pytest.approx(2.5)
    assert len(cert.slack_violations) == 1
    v = cert.slack_violations[0]
    assert v.pair == (0, 1)
    assert v.saturation == pytest.approx(0.5)
    assert v.alignment == pytest.approx(0.5)


def test_alignment_never_exceeds_saturation():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(8, 2))
    w = rng.normal(size=(8, 2))
    w -= w.mean(axis=0)
    inst = build_instance(pts, w)
    coupling, _, _ = solve(inst)
    # A potential unrelated to the coupling still reports consistent ratios.
    bogus = PotentialField(inst.measure.cloud, 0.3 * pts)
    cert = certify(inst, coupling, bogus, tol=0.9999)
    for v in cert.slack_violations:
        assert v.alignment <= v.saturation + 1e-12


def test_verdict_is_monotone_in_tolerance():
    inst, coupling, _ = two_point()
    slightly_off = PotentialField(inst.measure.cloud, np.array([[0.0], [-4.9]]))
    rank = {"Infeasible": 0, "Suboptimal": 1, "Optimal": 2}
    verdicts = [
        certify(inst, coupling, slightly_off, tol=t).verdict
        for t in (1e-8, 1e-4, 1e-2, 0.5)
    ]
    ranks = [rank[v] for v in verdicts]
    assert ranks == sorted(ranks)
    assert verdicts[0] == "Suboptimal"
    assert verdicts[-1] == "Optimal"


def test_tol_must_be_positive():
    inst, coupling, potential = two_point()
    with pytest.raises(ValueError):
        certify(inst, coupling, potential, tol=0.0)


def test_dimension_mismatches_are_rejected():
    inst, _, potential = two_point()
    wrong_dim = VectorCoupling(np.array([[0, 1]]), np.array([[1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        certify(inst, wrong_dim, potential)
    out_of_range = VectorCoupling(np.array([[0, 5]]), np.array([[1.0]]))
    with pytest.raises(DimensionMismatch):
        certify(inst, out_of_range, potential)
    coupling = VectorCoupling(np.array([[0, 1]]), np.array([[1.0]]))
    three = build_instance([[0.0], [1.0], [2.0]], [[1.0], [0.0], [-1.0]])
    four_points = PotentialField(PointCloud(np.arange(4.0)[:, None]), np.zeros((4, 1)))
    with pytest.raises(DimensionMismatch):
        certify(three, coupling, four_points)
    moved = PotentialField(PointCloud(inst.cloud.points + 1.0), potential.values)
    with pytest.raises(DimensionMismatch):
        certify(inst, coupling, moved)
    same_points = PotentialField(PointCloud(inst.cloud.points.copy()), potential.values)
    assert certify(inst, coupling, same_points).verdict == "Optimal"


def test_zero_coupling_on_zero_measure_is_optimal():
    inst = build_instance([[0.0], [1.0]], [[0.0], [0.0]])
    coupling = VectorCoupling(np.zeros((0, 2), dtype=int), np.zeros((0, 1)))
    potential = PotentialField(inst.measure.cloud, np.zeros((2, 1)))
    cert = certify(inst, coupling, potential)
    assert cert.verdict == "Optimal"
    assert cert.slack_violations == []


def test_solver_output_certifies_across_tolerances():
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, size=(10, 3))
    w = rng.normal(size=(10, 2))
    w -= w.mean(axis=0)
    inst = build_instance(pts, w)
    coupling, potential, report = solve(inst)
    assert report.status == "Converged"
    for tol in (1e-5, 1e-4, 1e-3):
        assert certify(inst, coupling, potential, tol=tol).verdict == "Optimal"


# ---------------------------------------------------------------------------
# Saturation set
# ---------------------------------------------------------------------------


def test_saturation_set_lists_tight_flow_edges():
    inst, coupling, potential = two_point()
    assert isometry_saturation_set(inst, coupling, potential) == [(0, 1)]
    flat = PotentialField(inst.measure.cloud, np.array([[0.0], [-2.5]]))
    assert isometry_saturation_set(inst, coupling, flat) == []


def test_saturation_set_is_shift_invariant():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(7, 2))
    w = rng.normal(size=(7, 2))
    w -= w.mean(axis=0)
    inst = build_instance(pts, w)
    coupling, potential, _ = solve(inst)
    base = isometry_saturation_set(inst, coupling, potential)
    shifted = PotentialField(inst.measure.cloud, potential.values + np.array([3.0, -7.0]))
    assert isometry_saturation_set(inst, coupling, shifted) == base
    assert base  # a converged solve saturates its carrying edges


def test_saturation_set_empty_coupling():
    inst, _, potential = two_point()
    empty = VectorCoupling(np.zeros((0, 2), dtype=int), np.zeros((0, 1)))
    assert isometry_saturation_set(inst, empty, potential) == []


def test_saturation_set_ignores_negligible_flows():
    # Second edge carries 1e-12 of the total variation and is dropped even
    # though the potential saturates it.
    pts = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    inst = build_instance(pts.points, [[1.0], [-1.0 + 1e-12], [-1e-12]])
    coupling = VectorCoupling(
        np.array([[0, 1], [1, 2]]), np.array([[1.0], [1e-12]])
    )
    potential = PotentialField(pts, np.array([[0.0], [-1.0], [-2.0]]))
    assert isometry_saturation_set(inst, coupling, potential) == [(0, 1)]

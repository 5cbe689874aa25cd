"""Tests for optimality certification of coupling/potential pairs."""

from __future__ import annotations

import numpy as np
import pytest

import vecot.solver
from vecot import (
    DimensionMismatch,
    InvalidParameter,
    PointCloud,
    PotentialField,
    SlackViolation,
    SolverParams,
    VecotError,
    VectorCoupling,
    build_instance,
    certify,
    edge_slackness,
    isometry_graph,
    isometry_saturation_set,
    solve,
    stretch_ratios,
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


def test_certificate_names_the_worst_lipschitz_pair():
    inst = build_instance([[0.0], [1.0], [3.0]], [[1.0], [0.0], [-1.0]])
    coupling = VectorCoupling(np.array([[0, 2]]), np.array([[1.0]]))
    # Stretches: (0, 1) 0.5, (0, 2) 1.1, (1, 2) 1.4.
    potential = PotentialField(inst.cloud, np.array([[0.0], [0.5], [3.3]]))
    cert = certify(inst, coupling, potential)
    assert cert.worst_lipschitz_pair == (1, 2)
    assert cert.dual_feasibility == pytest.approx(1.4)
    single = build_instance([[0.0, 0.0]], [[0.0]])
    empty = VectorCoupling(np.zeros((0, 2)), np.zeros((0, 1)))
    cert = certify(single, empty, PotentialField(single.cloud, np.zeros((1, 1))))
    assert cert.worst_lipschitz_pair == (0, 0)


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


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_tol_must_be_finite(tol):
    inst, coupling, potential = two_point()
    with pytest.raises(InvalidParameter):
        certify(inst, coupling, potential, tol=tol)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_flows_are_rejected(bad):
    inst, coupling, potential = two_point()
    with pytest.raises(VecotError, match="finite"):
        VectorCoupling(np.array([[0, 1]]), np.array([[bad]]))
    # A solved coupling whose flow array was changed afterwards.
    solved, solved_potential, _ = solve(inst)
    solved.flows[0, 0] = bad
    with pytest.raises(VecotError, match="finite"):
        certify(inst, solved, solved_potential)
    potential.values[1, 0] = bad
    with pytest.raises(VecotError, match="finite"):
        certify(inst, coupling, potential)


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


@pytest.mark.parametrize("tol", [np.nan, -1e-6, np.inf])
def test_saturation_set_tol_must_be_finite_and_nonnegative(tol):
    inst, coupling, potential = two_point()
    with pytest.raises(InvalidParameter, match="tol must be finite and nonnegative"):
        isometry_saturation_set(inst, coupling, potential, tol=tol)


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


# ---------------------------------------------------------------------------
# The one slackness test
# ---------------------------------------------------------------------------


def test_edge_slackness_reports_the_carrying_edges_and_their_ratios():
    inst = build_instance(
        [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]
    )
    coupling = VectorCoupling(
        np.array([[0, 1], [0, 2], [1, 2]]), np.array([[3.0, 4.0], [1e-9, 0.0], [0.0, 2.0]])
    )
    # (0, 1) is saturated and aligned; (1, 2) is saturated, but its flow is not aligned.
    potential = PotentialField(inst.cloud, np.array([[0.0, 0.0], [-1.2, -1.6], [-3.2, -2.6]]))
    edges, flow_norms, saturation, alignment = edge_slackness(
        coupling.pairs, coupling.flows, potential.values, inst.distances, 1e-6
    )
    # Edge (0, 2) carries 1e-9 of a total variation of 7: below 1e-6 of it.
    np.testing.assert_array_equal(edges, [0, 2])
    np.testing.assert_allclose(flow_norms, [5.0, 2.0], rtol=1e-15)
    np.testing.assert_allclose(saturation, [1.0, 1.0], rtol=1e-14)
    np.testing.assert_allclose(alignment, [1.0, 1.0 / np.sqrt(5.0)], rtol=1e-14)
    [violation] = certify(inst, coupling, potential, tol=1e-6).slack_violations
    assert violation.pair == (1, 2)
    assert (violation.flow_norm, violation.saturation, violation.alignment) == (
        flow_norms[1], saturation[1], alignment[1]
    )


def reference_violations(instance, coupling, potential, tol):
    """The certifier's former per-edge loop, kept as the reference; its
    saturations sum squares in the pair scan's order (``stretch_ratios``)."""
    i, j = coupling.pairs[:, 0], coupling.pairs[:, 1]
    d = instance.distances[i, j]
    du = potential.values[i] - potential.values[j]
    flow_norms = np.linalg.norm(coupling.flows, axis=1)
    du_norms = np.sqrt(np.einsum("ij,ij->i", du, du))
    align = np.einsum("ij,ij->i", du, coupling.flows)
    violations = []
    for e in np.flatnonzero(flow_norms > tol * float(flow_norms.sum())):
        sat_ratio = du_norms[e] / d[e]
        align_ratio = align[e] / (d[e] * flow_norms[e])
        if sat_ratio < 1.0 - tol or align_ratio < 1.0 - tol:
            violations.append(
                SlackViolation(
                    (int(i[e]), int(j[e])), float(flow_norms[e]), float(sat_ratio), float(align_ratio)
                )
            )
    return violations


def test_slack_violations_match_the_per_edge_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    flagged = 0
    for size, m, max_iters in ((9, 2, 6), (14, 3, 9), (20, 1, 100), (12, 2, 100)):
        pts = rng.uniform(-1, 1, size=(size, 2))
        w = rng.normal(size=(size, m))
        inst = build_instance(pts, w - w.mean(axis=0))
        coupling, potential, _ = solve(inst, SolverParams(max_iters=max_iters))
        for tol in (1e-2, 1e-6, 1e-12):
            expected = reference_violations(inst, coupling, potential, tol)
            assert certify(inst, coupling, potential, tol=tol).slack_violations == expected
            flagged += len(expected)
    assert flagged > 0


def test_saturations_are_the_pair_scans_stretches_bit_for_bit():
    # One pair-norm kernel: for every m, a carrying edge's saturation is the
    # stretch the pair scan reports for its pair, so that the saturated edges
    # of a solved pair lie in its potential's isometry graph.
    rng = np.random.default_rng(41)
    distances = PointCloud(rng.uniform(-1.0, 1.0, size=(60, 2))).distances
    pairs = np.argwhere(~np.tri(60, dtype=bool))
    for m in range(1, 21):
        values = rng.normal(size=(60, m))
        flows = rng.normal(size=(len(pairs), m))
        edges, _, saturation, _ = edge_slackness(pairs, flows, values, distances, 0.0)
        assert len(edges) == len(pairs)
        stretch = stretch_ratios(values, distances)[pairs[:, 0], pairs[:, 1]]
        assert saturation.tobytes() == stretch.tobytes()
    for m in (3, 4):
        for seed in range(6):
            rng = np.random.default_rng([seed, m])
            w = rng.normal(size=(12, m))
            inst = build_instance(rng.uniform(-1.0, 1.0, size=(12, 2)), w - w.mean(axis=0))
            coupling, potential, report = solve(inst)
            assert report.status == "Converged"
            for eps in (1e-9, 1e-6, 1e-3):
                saturated = isometry_saturation_set(inst, coupling, potential, tol=eps)
                graph = isometry_graph(potential, eps).edges.tolist()
                assert set(saturated) <= set(map(tuple, graph))


def test_solver_stopping_rule_applies_the_slackness_test_at_tol_gap(monkeypatch):
    rng = np.random.default_rng(32)
    w = rng.normal(size=(10, 2))
    inst = build_instance(rng.uniform(-1, 1, size=(10, 2)), w - w.mean(axis=0))
    params = SolverParams(tol_gap=1e-7)
    coupling, potential, report = solve(inst, params)
    assert report.status == "Converged"
    assert not certify(inst, coupling, potential, tol=1e-7).slack_violations
    # The same solve, with every carrying edge reported misaligned, cannot stop.
    tols = []
    real = vecot.solver.edge_slackness

    def misaligned(pairs, flows, values, distances, tol):
        tols.append(tol)
        edges, flow_norms, saturation, alignment = real(pairs, flows, values, distances, tol)
        return edges, flow_norms, saturation, alignment - 1.0

    monkeypatch.setattr(vecot.solver, "edge_slackness", misaligned)
    assert solve(inst, params)[2].status == "IterLimit"
    assert tols and set(tols) == {1e-7}


def test_a_tolerance_whose_flow_threshold_overflows_checks_no_edge(recwarn):
    # tol * (total flow) = 1e300 * 1e9 is past the float range: the threshold
    # is inf, no edge carries more, and no overflow warning is raised.
    inst = build_instance([[0.0, 0.0], [3.0, 4.0]], [[1e9], [-1e9]])
    coupling = VectorCoupling(np.array([[0, 1]]), np.array([[1e9]]))
    potential = PotentialField(inst.measure.cloud, np.array([[0.0], [-5.0]]))
    edges, norms, _, _ = edge_slackness(
        coupling.pairs, coupling.flows, potential.values, inst.distances, 1e300
    )
    assert edges.size == norms.size == 0
    assert certify(inst, coupling, potential, tol=1e300).verdict == "Optimal"
    assert isometry_saturation_set(inst, coupling, potential, tol=1e300) == []
    assert not recwarn.list

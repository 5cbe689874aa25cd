"""Tests for the core data types, validation and serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

import vecot
from vecot import (
    DimensionMismatch,
    DiscreteVectorMeasure,
    DuplicatePoint,
    Instance,
    NonzeroTotalMass,
    PointCloud,
    PotentialField,
    VectorCoupling,
    build_instance,
    certify,
    cost,
    distance_matrix,
    dumps_instance,
    extract_leaves,
    instance_from_dict,
    instance_to_dict,
    isometry_graph,
    lipschitz_constant,
    lipschitz_info,
    loads_instance,
    marginals,
    mass_balance_report,
    pairing,
    solve,
    total_variation,
)


def two_point_instance() -> Instance:
    return build_instance([[0.0, 0.0], [3.0, 4.0]], [[1.0], [-1.0]])


# ---------------------------------------------------------------------------
# PointCloud / DiscreteVectorMeasure validation
# ---------------------------------------------------------------------------


def test_point_cloud_shapes_and_dims():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.5]]))
    assert cloud.size == 3
    assert cloud.ambient_dim == 1


def test_point_cloud_rejects_duplicates():
    with pytest.raises(DuplicatePoint):
        PointCloud(np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        PointCloud(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        PointCloud(np.array([[np.nan, 0.0]]))


def test_measure_requires_zero_total_mass():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(NonzeroTotalMass):
        DiscreteVectorMeasure(cloud, np.array([[1.0], [-0.5]]))


def test_measure_zero_mass_tolerance_is_relative():
    # A residual at the 1e-13 * scale level is accepted, 1e-11 is not.
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    DiscreteVectorMeasure(cloud, np.array([[1.0], [-1.0 + 1e-13]]))
    with pytest.raises(NonzeroTotalMass):
        DiscreteVectorMeasure(cloud, np.array([[1.0], [-1.0 + 1e-11]]))


def test_measure_row_count_must_match_cloud():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(DimensionMismatch):
        DiscreteVectorMeasure(cloud, np.array([[1.0], [-0.5], [-0.5]]))


def test_all_zero_weights_are_allowed():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    mu = DiscreteVectorMeasure(cloud, np.zeros((2, 3)))
    assert mu.mass_scale == 0.0
    assert mu.target_dim == 3


def test_build_instance_properties():
    inst = two_point_instance()
    assert inst.size == 2
    assert inst.ambient_dim == 2
    assert inst.target_dim == 1
    np.testing.assert_allclose(inst.distances, [[0.0, 5.0], [5.0, 0.0]])
    assert inst.distances is inst.cloud.distances


def test_point_distances_are_computed_once_per_cloud(monkeypatch):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((12, 2))
    inst = build_instance(rng.standard_normal((12, 2)), w - w.mean(axis=0))
    on_points = []
    real = vecot.core.distance_matrix

    def counting(x):
        on_points.append(np.array_equal(x, inst.cloud.points))
        return real(x)

    for module in (vecot.core, vecot.solver, vecot.leaves, vecot.mass_balance):
        monkeypatch.setattr(module, "distance_matrix", counting, raising=False)
    coupling, potential, _ = solve(inst)
    assert certify(inst, coupling, potential).verdict == "Optimal"
    decomposition = extract_leaves(isometry_graph(potential), potential)
    mass_balance_report(inst, decomposition)
    assert sum(on_points) == 1


# ---------------------------------------------------------------------------
# VectorCoupling canonicalization
# ---------------------------------------------------------------------------


def test_coupling_orients_pairs_and_flips_flows():
    # (2, 0) is stored as (0, 2) with the flow negated; the marginal
    # difference must be unchanged by the reorientation.
    c = VectorCoupling(np.array([[2, 0], [1, 2]]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(c.pairs, [[0, 2], [1, 2]])
    np.testing.assert_allclose(c.flows, [[-1.0, -2.0], [3.0, 4.0]])
    p1, p2, net = marginals(c, 3)
    np.testing.assert_allclose(net[0], [-1.0, -2.0])
    np.testing.assert_allclose(net[2], [1.0 - 3.0, 2.0 - 4.0])


def test_coupling_rejects_self_loops_and_negatives():
    with pytest.raises(DimensionMismatch):
        VectorCoupling(np.array([[1, 1]]), np.array([[1.0]]))
    with pytest.raises(DimensionMismatch):
        VectorCoupling(np.array([[-1, 2]]), np.array([[1.0]]))


def test_coupling_rejects_duplicate_pairs_after_orientation():
    # (0, 1) and (1, 0) describe the same unordered pair.
    with pytest.raises(DimensionMismatch):
        VectorCoupling(np.array([[0, 1], [1, 0]]), np.array([[1.0], [2.0]]))


def test_empty_coupling_is_valid():
    c = VectorCoupling(np.zeros((0, 2), dtype=int), np.zeros((0, 2)))
    assert c.edge_count == 0
    assert total_variation(c) == 0.0
    p1, p2, net = marginals(c, 4)
    np.testing.assert_array_equal(net, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# PotentialField
# ---------------------------------------------------------------------------


def test_potential_field_validates_shape():
    inst = two_point_instance()
    with pytest.raises(DimensionMismatch):
        PotentialField(inst.measure.cloud, np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(DimensionMismatch):
        PotentialField(inst.measure.cloud, np.array([[np.inf], [0.0]]))


def test_lipschitz_info_reports_first_maximizing_pair():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    u = PotentialField(cloud, np.array([[0.0], [1.0], [3.0]]))
    info = lipschitz_info(u)
    assert info.value == pytest.approx(2.0)
    assert info.pair == (1, 2)
    assert not info.single_point


def test_lipschitz_single_point_convention():
    cloud = PointCloud(np.array([[0.0, 0.0]]))
    u = PotentialField(cloud, np.array([[7.0, -3.0]]))
    info = lipschitz_info(u)
    assert info.value == 0.0
    assert info.single_point


def test_lipschitz_constant_matches_brute_force():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(7, 3))
    vals = rng.normal(size=(7, 2))
    cloud = PointCloud(pts)
    u = PotentialField(cloud, vals)
    d = distance_matrix(pts)
    best = 0.0
    for i in range(7):
        for j in range(i + 1, 7):
            best = max(best, float(np.linalg.norm(vals[i] - vals[j])) / d[i, j])
    assert lipschitz_constant(u) == pytest.approx(best, rel=1e-14)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def test_cost_and_total_variation():
    inst = two_point_instance()
    c = VectorCoupling(np.array([[0, 1]]), np.array([[1.0]]))
    assert total_variation(c) == pytest.approx(1.0)
    assert cost(c, inst) == pytest.approx(5.0)


def test_pairing_matches_manual_sum():
    inst = two_point_instance()
    u = PotentialField(inst.measure.cloud, np.array([[2.0], [-3.0]]))
    # <u, mu> = 2*1 + (-3)*(-1) = 5
    assert pairing(u, inst.measure) == pytest.approx(5.0)


def test_pairing_shape_mismatch():
    inst = two_point_instance()
    cloud = inst.measure.cloud
    u = PotentialField(cloud, np.array([[2.0, 0.0], [-3.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        pairing(u, inst.measure)


def test_marginal_difference_is_orientation_invariant():
    rng = np.random.default_rng(11)
    flows = rng.normal(size=(3, 2))
    a = VectorCoupling(np.array([[0, 1], [1, 2], [0, 3]]), flows.copy())
    b = VectorCoupling(np.array([[1, 0], [2, 1], [3, 0]]), -flows.copy())
    _, _, net_a = marginals(a, 4)
    _, _, net_b = marginals(b, 4)
    np.testing.assert_allclose(net_a, net_b)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_instance_dict_round_trip():
    inst = build_instance(
        [[0.0, 0.0], [1.0, 0.0], [0.25, 0.75]],
        [[1.0, 2.0], [-0.5, -1.0], [-0.5, -1.0]],
    )
    d = instance_to_dict(inst)
    assert d["n"] == 2 and d["m"] == 2
    back = instance_from_dict(d)
    np.testing.assert_array_equal(back.cloud.points, inst.cloud.points)
    np.testing.assert_array_equal(back.measure.weights, inst.measure.weights)


def test_dumps_loads_round_trip_is_byte_stable():
    inst = build_instance([[0.0], [1.0 / 3.0]], [[0.1], [-0.1]])
    text = dumps_instance(inst)
    again = dumps_instance(loads_instance(text))
    assert text == again
    assert text.endswith("\n")
    # Keys are sorted so the layout is deterministic.
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def test_loads_instance_reports_malformed_input():
    with pytest.raises(DimensionMismatch):
        loads_instance('{"n": 1, "m": 1, "points": [[0.0]]}')
    with pytest.raises(DimensionMismatch):
        loads_instance("[1, 2, 3]")


def test_instance_from_dict_checks_declared_dims():
    d = {
        "n": 3,
        "m": 1,
        "points": [[0.0, 0.0], [1.0, 0.0]],
        "weights": [[1.0], [-1.0]],
    }
    with pytest.raises(DimensionMismatch):
        instance_from_dict(d)

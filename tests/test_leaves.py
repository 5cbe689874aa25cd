"""Tests for leaf extraction, affine isometry fits and the diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from vecot import (
    DegenerateLeaf,
    DimensionMismatch,
    NotLipschitz,
    PointCloud,
    PotentialField,
    WrongDimension,
    affine_isometry_fit,
    derivative_modulus_check,
    extract_leaves,
    isometry_graph,
    reconstructed_potential,
    strengthened_lipschitz_residual,
    transport_set,
)


def grid_projection(side: int = 5):
    """side^3 grid in R^3 with u = projection onto the first two coordinates."""
    axis = np.arange(float(side))
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    cloud = PointCloud(pts)
    u = PotentialField(cloud, pts[:, :2].copy())
    return cloud, u


def two_rays(angle_deg: float = 60.0):
    """Two rays from the origin, each mapped isometrically to the line."""
    s = np.array([1.0, 1.25, 1.5, 1.75, 2.0])
    a = np.deg2rad(angle_deg)
    d1 = np.array([1.0, 0.0])
    d2 = np.array([np.cos(a), np.sin(a)])
    pts = np.vstack([np.outer(s, d1), np.outer(s, d2)])
    vals = np.concatenate([s, s])[:, None]
    cloud = PointCloud(pts)
    return cloud, PotentialField(cloud, vals)


# ---------------------------------------------------------------------------
# Saturation graph
# ---------------------------------------------------------------------------


def test_isometry_graph_collects_saturated_pairs():
    cloud = PointCloud(np.array([[0.0], [1.0], [3.0]]))
    u = PotentialField(cloud, np.array([[0.0], [1.0], [1.5]]))
    g = isometry_graph(u)
    np.testing.assert_array_equal(g.edges, [[0, 1]])
    adj = g.adjacency()
    assert adj[0, 1] and adj[1, 0] and not adj[0, 2]


def test_isometry_graph_rejects_stretching_maps():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    u = PotentialField(cloud, np.array([[0.0], [2.0]]))
    with pytest.raises(NotLipschitz):
        isometry_graph(u)


def test_isometry_graph_eps_widens_the_graph():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    u = PotentialField(cloud, np.array([[0.0], [0.9]]))
    assert isometry_graph(u, eps=1e-6).edges.size == 0
    assert isometry_graph(u, eps=0.2).edges.shape == (1, 2)
    with pytest.raises(ValueError):
        isometry_graph(u, eps=0.0)


# ---------------------------------------------------------------------------
# Affine isometry fit
# ---------------------------------------------------------------------------


def test_fit_recovers_a_planted_isometry():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = np.array([1.0, -2.0, 0.5])
    vals = pts @ q.T + shift
    T, b, residual = affine_isometry_fit(pts, vals)
    assert residual <= 1e-12
    np.testing.assert_allclose(T @ T.T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(
        T @ (pts - pts.mean(axis=0)).T + b[:, None], vals.T, atol=1e-12
    )


def test_fit_flags_non_isometries():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(10, 2))
    _, _, residual = affine_isometry_fit(pts, 2.0 * pts)
    assert residual > 0.1


def test_fit_projects_onto_the_sample_span():
    # Points on a line in R^3 mapped into R^2: T^T T is the line projection.
    t = np.linspace(0.0, 1.0, 7)[:, None]
    direction = np.array([[1.0, 2.0, 2.0]]) / 3.0
    pts = t @ direction
    vals = np.column_stack([t[:, 0], np.zeros(7)])
    T, _, residual = affine_isometry_fit(pts, vals)
    assert residual <= 1e-12
    proj = T.T @ T
    np.testing.assert_allclose(proj, direction.T @ direction, atol=1e-12)


def test_fit_single_point_is_exact():
    T, b, residual = affine_isometry_fit(np.array([[1.0, 2.0]]), np.array([[3.0]]))
    assert residual == 0.0
    np.testing.assert_array_equal(T, np.zeros((1, 2)))
    np.testing.assert_array_equal(b, [3.0])


# ---------------------------------------------------------------------------
# Leaf extraction
# ---------------------------------------------------------------------------


def test_grid_projection_recovers_slices_as_leaves():
    cloud, u = grid_projection(5)
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    assert len(dec.leaves) == 5
    for leaf in dec.leaves:
        assert leaf.size == 25
        assert leaf.dimension == 2
        assert leaf.fit_residual <= 1e-12
    # Index layout is x*25 + y*5 + z, so leaf k collects the z = k slice.
    np.testing.assert_array_equal(dec.assignment, np.arange(125) % 5)
    assert dec.boundary_flags.size == 0


def test_grid_leaf_boundary_distances():
    cloud, u = grid_projection(5)
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    leaf = dec.leaves[0]
    center = leaf.member_position(2 * 25 + 2 * 5 + 0)  # (x, y) = (2, 2)
    corner = leaf.member_position(0)  # (0, 0)
    assert leaf.sigma[center] == pytest.approx(2.0)
    assert leaf.sigma[corner] == pytest.approx(0.0, abs=1e-12)
    assert float(leaf.sigma.max()) == pytest.approx(2.0)


def test_four_dimensional_leaf_boundary_distances_use_the_hull():
    # The 3^4 grid in R^5 mapped onto its first four coordinates is one
    # 4-D leaf; a far point in its affine hull is not a boundary of it.
    axis = np.arange(3.0)
    grid = np.stack(np.meshgrid(*(axis,) * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    pts = np.vstack([np.column_stack([grid, np.zeros(81)]), [[10.0, 0.0, 0.0, 0.0, 0.0]]])
    cloud = PointCloud(pts)
    u = PotentialField(cloud, np.vstack([grid, np.zeros((1, 4))]))
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    (leaf,) = [leaf for leaf in dec.leaves if leaf.size == 81]
    assert leaf.dimension == 4
    corner = leaf.member_position(0)  # (0, 0, 0, 0)
    center = leaf.member_position(27 + 9 + 3 + 1)  # (1, 1, 1, 1)
    assert leaf.sigma[corner] == pytest.approx(0.0, abs=1e-12)
    assert leaf.sigma[center] == pytest.approx(1.0)
    assert float(leaf.sigma.max()) == pytest.approx(1.0)


def test_reconstruction_is_idempotent():
    cloud, u = grid_projection(4)
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    rebuilt = reconstructed_potential(dec)
    np.testing.assert_allclose(rebuilt.values, u.values, atol=1e-10)
    dec2 = extract_leaves(isometry_graph(rebuilt, eps=1e-9), rebuilt)
    assert len(dec2.leaves) == len(dec.leaves)
    for a, b in zip(dec.leaves, dec2.leaves):
        np.testing.assert_array_equal(a.member_indices, b.member_indices)
    np.testing.assert_array_equal(dec.assignment, dec2.assignment)


def test_contraction_yields_singletons():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    u = PotentialField(cloud, np.zeros((3, 1)))
    dec = extract_leaves(isometry_graph(u), u)
    assert [tuple(l.member_indices) for l in dec.leaves] == [(0,), (1,), (2,)]
    assert all(l.dimension == 0 for l in dec.leaves)
    np.testing.assert_array_equal(dec.assignment, [0, 1, 2])
    rebuilt = reconstructed_potential(dec)
    np.testing.assert_allclose(rebuilt.values, u.values, atol=1e-15)


def test_tent_potential_splits_into_overlapping_leaves():
    # u rises then falls; the middle point belongs to both slopes and is
    # flagged as a branch point.
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    u = PotentialField(cloud, np.array([[0.0], [1.0], [0.0]]))
    dec = extract_leaves(isometry_graph(u), u)
    assert [tuple(l.member_indices) for l in dec.leaves] == [(0, 1), (1, 2)]
    np.testing.assert_array_equal(dec.assignment, [0, 0, 1])
    np.testing.assert_array_equal(dec.boundary_flags, [1])
    rebuilt = reconstructed_potential(dec)
    np.testing.assert_allclose(rebuilt.values, u.values, atol=1e-12)


def test_leaves_are_pairwise_isometric_sets():
    cloud, u = two_rays()
    dec = extract_leaves(isometry_graph(u), u)
    assert len(dec.leaves) == 2
    for leaf in dec.leaves:
        d_pts = np.linalg.norm(
            leaf.points[:, None, :] - leaf.points[None, :, :], axis=2
        )
        d_val = np.linalg.norm(
            leaf.values[:, None, :] - leaf.values[None, :, :], axis=2
        )
        np.testing.assert_allclose(d_val, d_pts, atol=1e-9)


def test_member_position_rejects_non_members():
    cloud, u = two_rays()
    dec = extract_leaves(isometry_graph(u), u)
    leaf = dec.leaves[0]
    outsider = int(dec.leaves[1].member_indices[0])
    with pytest.raises(DegenerateLeaf):
        leaf.member_position(outsider)


# ---------------------------------------------------------------------------
# Transport sets
# ---------------------------------------------------------------------------


def test_transport_set_stops_at_branch_points():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    u = PotentialField(cloud, np.array([[0.0], [1.0], [0.0]]))
    dec = extract_leaves(isometry_graph(u), u)
    np.testing.assert_array_equal(transport_set(dec, [0]), [0, 1])
    np.testing.assert_array_equal(transport_set(dec, [2]), [1, 2])
    # A flagged seed joins but never expands.
    np.testing.assert_array_equal(transport_set(dec, [1]), [1])


def test_transport_set_expands_through_interior_points():
    cloud, u = grid_projection(3)
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    # Within one slice every point reaches the whole slice.
    ts = transport_set(dec, [0])
    np.testing.assert_array_equal(ts, dec.leaves[0].member_indices)


def test_extract_leaves_requires_the_graph_cloud():
    cloud, u = two_rays()
    graph = isometry_graph(u, eps=1e-9)
    moved = PotentialField(PointCloud(cloud.points + 1.0), u.values)
    with pytest.raises(DimensionMismatch):
        extract_leaves(graph, moved)
    same_points = PotentialField(PointCloud(cloud.points.copy()), u.values)
    assert len(extract_leaves(graph, same_points).leaves) == len(extract_leaves(graph, u).leaves)


def test_transport_set_validates_seeds():
    cloud, u = grid_projection(3)
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    with pytest.raises(DimensionMismatch):
        transport_set(dec, [999])


# ---------------------------------------------------------------------------
# Two-leaf diagnostics
# ---------------------------------------------------------------------------


def test_two_ray_strengthened_residual_frozen_value():
    # Midpoints of two unit-speed rays at 60 degrees: ||dx||^2 = 2.25,
    # du = 0, sigma = 0.5 each, ||P1 P2 - P1 T1^T T2 P2|| = 0.5, so the
    # residual is 2.25 - 2 * 0.25 * 0.5 = 2.
    cloud, u = two_rays(60.0)
    dec = extract_leaves(isometry_graph(u), u)
    leaf1, leaf2 = dec.leaves
    mid1 = int(leaf1.member_indices[2])
    mid2 = int(leaf2.member_indices[2])
    assert leaf1.sigma[2] == pytest.approx(0.5)
    res = strengthened_lipschitz_residual(leaf1, leaf2, mid1, mid2)
    assert res == pytest.approx(2.0, abs=1e-12)
    assert derivative_modulus_check(leaf1, leaf2, mid1, mid2)


def test_two_ray_derivative_gap_is_the_angle_chord():
    cloud, u = two_rays(60.0)
    dec = extract_leaves(isometry_graph(u), u)
    leaf1, leaf2 = dec.leaves
    lhs = float(np.linalg.norm(leaf1.map_matrix - leaf2.map_matrix, 2))
    assert lhs == pytest.approx(1.0)  # 2 sin(30 deg)


def test_strengthened_residual_nonnegative_across_grid_leaves():
    cloud, u = grid_projection(4)
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    for a in range(len(dec.leaves)):
        for b in range(a + 1, len(dec.leaves)):
            l1, l2 = dec.leaves[a], dec.leaves[b]
            i1 = int(l1.member_indices[5])
            i2 = int(l2.member_indices[9])
            res = strengthened_lipschitz_residual(l1, l2, i1, i2)
            assert res >= -1e-9
            assert derivative_modulus_check(l1, l2, i1, i2)


def test_grid_residual_reduces_to_height_gap():
    # Same-slice-position members of parallel leaves: the operator term
    # vanishes and the residual is the squared height difference.
    cloud, u = grid_projection(4)
    dec = extract_leaves(isometry_graph(u, eps=1e-9), u)
    l0, l3 = dec.leaves[0], dec.leaves[3]
    i0 = int(l0.member_indices[0])
    i3 = int(l3.member_indices[0])
    res = strengthened_lipschitz_residual(l0, l3, i0, i3)
    assert res == pytest.approx(9.0, abs=1e-12)


def test_derivative_check_requires_full_dimension():
    # 1-dimensional leaves of an R^2-valued potential cannot support the
    # derivative bound.
    pts = np.array([[0.0], [1.0], [2.0]])
    cloud = PointCloud(pts)
    u = PotentialField(cloud, np.column_stack([pts[:, 0], np.zeros(3)]))
    dec = extract_leaves(isometry_graph(u), u)
    leaf = dec.leaves[0]
    assert leaf.dimension == 1
    with pytest.raises(WrongDimension):
        derivative_modulus_check(leaf, leaf, 0, 1)


def test_derivative_check_vacuous_at_zero_boundary_distance():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    u = PotentialField(cloud, np.array([[0.0], [1.0], [0.0]]))
    dec = extract_leaves(isometry_graph(u), u)
    # Two-member leaves have sigma = 0 everywhere, so the check is vacuous
    # even though the derivatives differ by 2.
    assert derivative_modulus_check(dec.leaves[0], dec.leaves[1], 0, 2)

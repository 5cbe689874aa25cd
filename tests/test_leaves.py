"""Tests for leaf extraction, affine isometry fits and the diagnostics."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from vecot import (
    DegenerateLeaf,
    DimensionMismatch,
    InvalidParameter,
    IsometryGraph,
    Leaf,
    LeafDecomposition,
    NotLipschitz,
    PointCloud,
    PotentialField,
    TooManyCliques,
    WrongDimension,
    affine_isometry_fit,
    build_instance,
    derivative_modulus_check,
    extract_leaves,
    isometry_graph,
    line_optimal_potential,
    orthant_spec,
    paper_preset,
    reconstructed_potential,
    solve,
    strengthened_lipschitz_residual,
    transport_set,
)
from vecot.leaves import _boundary_distances, _fit, _fits


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


def short_pair_line():
    """x = 0, 1, ..., 10, 10.001 with u = x, except u(10.001) = 10.0005.

    With eps = 0.01 the whole cloud is one component whose fit passes, but
    the short pair (10, 11) is no edge: it stretches by 0.5 only.
    """
    x = np.append(np.arange(11.0), 10.001)
    cloud = PointCloud(x[:, None])
    values = x.copy()
    values[11] = 10.0005
    return cloud, PotentialField(cloud, values[:, None])


def stale_bound_line():
    """x = 0, 5, 8, 9, 10 with u = 0, -4, -1, -2, -3, for eps = 0.25.

    The saturated pairs (0, 1), (1, 2), (2, 3), (2, 4) and (3, 4) make one
    component of diameter 10.  Its fit fails and drops x = 0; the other four
    span 5 and fit with a residual between 0.25 * 5 and 0.25 * 10, so they
    pass the stale diameter bound and still fail.
    """
    cloud = PointCloud(np.array([[0.0], [5.0], [8.0], [9.0], [10.0]]))
    return cloud, PotentialField(cloud, np.array([[0.0], [-4.0], [-1.0], [-2.0], [-3.0]]))


def bent_line(k: int, angle: float = 0.3) -> PotentialField:
    """x = -k, ..., k on the line, mapped into R^2 along two rays that leave
    u(0) = 0 at this angle to each other: the two arms are the leaves.  A pair
    across the bend keeps at least cos(angle / 2) of its length, so a larger
    eps joins the arms into cliques that no affine isometry fits."""
    x = np.arange(-k, k + 1.0)
    arm = np.where(x < 0.0, x, 0.0)[:, None] * [1.0, 0.0]
    bent = np.where(x < 0.0, 0.0, x)[:, None] * [math.cos(angle), math.sin(angle)]
    return PotentialField(PointCloud(x[:, None]), arm + bent)


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
    for eps in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidParameter):
            isometry_graph(u, eps=eps)
        with pytest.raises(InvalidParameter):
            IsometryGraph(cloud=cloud, edges=[[0, 1]], eps=eps)


@pytest.mark.parametrize(
    "edges",
    [
        [[0, 9]],  # an index past the cloud
        [[3, 3]],  # a self-loop
        [[-1, 2]],  # a negative index, which numpy would read as point 5
        [[2.7, 4]],  # a fractional index, which a cast would truncate to 2
        [[np.nan, 1]],
        [[4, 2]],  # i > j
        np.zeros((2, 3), dtype=int),  # three columns
        [[True, False]],
        [["0", "1"]],
    ],
)
def test_isometry_graph_rejects_malformed_edges(edges):
    cloud = PointCloud(np.arange(6.0)[:, None])
    with pytest.raises(DimensionMismatch):
        IsometryGraph(cloud=cloud, edges=edges, eps=1e-6)


def test_isometry_graph_stores_integer_valued_edges_as_ints():
    cloud = PointCloud(np.arange(6.0)[:, None])
    for edges, expected in (([], []), ([[0.0, 2.0], [1, 5]], [[0, 2], [1, 5]])):
        graph = IsometryGraph(cloud=cloud, edges=edges, eps=1e-6)
        assert graph.edges.dtype == int and graph.edges.shape == (len(expected), 2)
        assert graph.edges.tolist() == expected


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


@pytest.mark.parametrize(
    "points, values",
    [
        (np.zeros((0, 2)), np.zeros((0, 1))),  # no points
        (np.zeros((3, 2)), np.zeros((4, 1))),  # row counts differ
        (np.zeros((3, 2)), np.zeros(3)),  # 1-D values
        ([[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0]], np.zeros((3, 1))),  # a nan point
    ],
)
def test_fit_rejects_malformed_samples_with_a_typed_error(points, values):
    with pytest.raises(DimensionMismatch):
        affine_isometry_fit(points, values)


def reference_fit(points: np.ndarray, values: np.ndarray, max_rank: int | None = None):
    """``_fit`` as written with ``mean`` and ``norm``, before it called the
    reductions underneath them directly, keeping at most ``max_rank``
    tangent directions when given."""
    m = values.shape[1]
    y0 = points.mean(axis=0)
    b = values.mean(axis=0)
    centered = points - y0
    target = values - b
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > 1e-7 * smax)) if smax > 0 else 0
    rank = rank if max_rank is None else min(rank, max_rank)
    tangent = vt[:rank].T
    coords = centered @ tangent
    cross = target.T @ coords
    if rank:
        uc, _, vct = np.linalg.svd(cross, full_matrices=False)
        rot = uc @ vct
    else:
        rot = np.zeros((m, 0))
    tmap = rot @ tangent.T
    errors = np.linalg.norm(target - coords @ rot.T, axis=1)
    residual = float(np.sqrt(np.mean(errors**2)))
    return tmap, b, y0, residual, rank, tangent, errors


def test_fit_matches_the_mean_and_norm_fit_bit_for_bit():
    # General, collinear, coincident and rank-deficient member sets, with
    # random, isometric and constant values.
    rng = np.random.default_rng(131)
    for trial in range(400):
        k, d, m = int(rng.integers(1, 61)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        shape = trial % 4
        if shape == 0:
            pts = rng.normal(size=(k, d))
        elif shape == 1:  # collinear
            pts = rng.normal(size=d) + rng.normal(size=(k, 1)) * rng.normal(size=d)
        elif shape == 2:  # coincident, in whole or in part
            pts = np.repeat(rng.normal(size=(1 + k // 3, d)), 3, axis=0)[:k]
        else:  # in a subspace of lower dimension
            r = int(rng.integers(0, d + 1))
            pts = rng.normal(size=(k, r)) @ rng.normal(size=(r, d)) + rng.normal(size=d)
        kind = trial % 3
        if kind == 0:
            vals = rng.normal(size=(k, m))
        elif kind == 1:
            q = np.linalg.qr(rng.normal(size=(max(d, m), max(d, m))))[0][:m, :d]
            vals = pts @ q.T + rng.normal(size=m)
        else:
            vals = np.full((k, m), rng.normal())
        got, expected = _fit(pts, vals), reference_fit(pts, vals)
        for a, b in zip(got, expected):
            assert type(a) is type(b)
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert np.float64(a).tobytes() == np.float64(b).tobytes()


def test_stacked_fits_match_one_at_a_time_bit_for_bit():
    # Each stack mixes every rank its shape allows: coincident, collinear,
    # coplanar and general members, with random, isometric and constant
    # values, m > n among them, and signed zeros in points and values.
    rng = np.random.default_rng(577)
    seen = collections.defaultdict(set)
    for k, n, m in itertools.product(range(1, 7), range(1, 5), range(1, 4)):
        ranks = range(min(k - 1, n) + 1)
        sets = []
        for s in range(int(rng.integers(1, 41))):
            r = ranks[s % len(ranks)]
            pts = rng.normal(size=(k, r)) @ rng.normal(size=(r, n)) + rng.normal(size=n)
            kind = s % 3
            if kind == 0:
                vals = rng.normal(size=(k, m))
            elif kind == 1:
                q = np.linalg.qr(rng.normal(size=(max(n, m), max(n, m))))[0][:m, :n]
                vals = pts @ q.T + rng.normal(size=m)
            else:
                vals = np.full((k, m), rng.normal())
            if s % 7 == 6:
                pts[:, -1], vals[:, 0] = np.copysign(0.0, pts[:, -1]), np.copysign(0.0, vals[:, 0])
            sets.append((pts, vals))
        points, values = np.stack([p for p, _ in sets]), np.stack([v for _, v in sets])
        for cap in (None, 1, 2, 3):  # the leaves at m keep m tangent directions at most
            stack = _fits(points, values, max_rank=cap)
            assert len(stack) == len(sets)
            seen[k, n, cap] |= {fit[4] for fit in stack}
            for got, (pts, vals) in zip(stack, sets):
                for a, b in zip(got, reference_fit(pts, vals, cap)):
                    assert type(a) is type(b)
                    if isinstance(a, np.ndarray):
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (k, n, m, cap)
                    else:
                        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (k, n, m, cap)
    assert all(seen[k, n, cap] == set(range(min(k - 1, n, cap or n) + 1)) for k, n, cap in seen)


def test_fit_raises_when_lapack_does_not_converge(monkeypatch):
    dgesdd = scipy.linalg.lapack.dgesdd

    def no_convergence(a, **kwargs):
        u, s, vt, _ = dgesdd(a, **kwargs)
        return u, s, vt, 1  # info > 0: the bidiagonal SVD did not converge

    monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", no_convergence)
    with pytest.raises(np.linalg.LinAlgError):
        _fit(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros((3, 1)))


def test_stacked_fits_raise_when_lapack_does_not_converge(monkeypatch):
    def no_convergence(a, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")  # as numpy's dgesdd loop does

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    corner = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        _fits(np.stack([corner, 2.0 * corner]), np.zeros((2, 3, 1)))


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


def test_boundary_distances_are_zero_where_qhull_builds_no_hull():
    # Four collinear points in two tangent coordinates span no polygon, which
    # Qhull refuses; the estimate then errs low, at 0.
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    np.testing.assert_array_equal(_boundary_distances(coords), np.zeros(4))


def test_boundary_distances_of_a_simplex_are_zero_without_a_hull(monkeypatch):
    # Every member of a simplex, r + 1 members in r tangent coordinates, is a
    # vertex: on the boundary.  No hull is built for one, or for a stack.
    def no_hull(points):
        raise AssertionError("a hull was built")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", no_hull)
    rng = np.random.default_rng(38)
    for r in (2, 3, 4):
        np.testing.assert_array_equal(_boundary_distances(rng.normal(size=(r + 1, r))), np.zeros(r + 1))
        np.testing.assert_array_equal(_boundary_distances(rng.normal(size=(5, r + 1, r))), np.zeros((5, r + 1)))
    with pytest.raises(AssertionError, match="a hull was built"):
        _boundary_distances(rng.normal(size=(4, 2)))


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


def test_a_component_with_a_passing_fit_still_needs_to_be_a_clique():
    cloud, u = short_pair_line()
    graph = isometry_graph(u, eps=0.01)
    assert graph.adjacency().sum() == 12 * 11 - 2
    dec = extract_leaves(graph, u)
    assert [l.member_indices.tolist() for l in dec.leaves] == [
        list(range(11)),
        list(range(10)) + [11],
    ]
    np.testing.assert_array_equal(dec.boundary_flags, np.arange(10))
    np.testing.assert_array_equal(dec.assignment, [0] * 11 + [1])


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
    # Seeds are point indices: a fraction or a bool is not one, an
    # integer-valued float is.
    for seeds in ([0.5], [True], [0, 1.5], [[0, 1]], 0, ["1"]):
        with pytest.raises(DimensionMismatch):
            transport_set(dec, seeds)
    np.testing.assert_array_equal(transport_set(dec, [1.0]), transport_set(dec, [1]))
    np.testing.assert_array_equal(transport_set(dec, []), np.zeros(0, dtype=int))


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
    # The tolerance is checked first all the same.
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(InvalidParameter, match="tol must be finite and nonnegative"):
            derivative_modulus_check(dec.leaves[0], dec.leaves[1], 0, 2, tol=tol)


# ---------------------------------------------------------------------------
# The extraction against a reference, and the leaf contract
# ---------------------------------------------------------------------------


def as_bytes(a: np.ndarray):
    return a.dtype, a.shape, a.tobytes()


def assert_same_decomposition(new: LeafDecomposition, ref: LeafDecomposition):
    assert len(new.leaves) == len(ref.leaves)
    for a, b in zip(new.leaves, ref.leaves):
        for f in dataclasses.fields(Leaf):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert as_bytes(x) == as_bytes(y), f.name
            else:
                assert x == y, f.name
    assert as_bytes(new.assignment) == as_bytes(ref.assignment)
    assert as_bytes(new.boundary_flags) == as_bytes(ref.boundary_flags)


def reference_decomposition(graph, u, member_sets) -> LeafDecomposition:
    """Leaves built one at a time, each member set fitted alone with at most m
    tangent directions; the assignment and the branch points from a loop over
    the members."""
    pts, vals, n = graph.cloud.points, u.values, graph.cloud.size
    leaves = []
    for members in member_sets:
        idx = np.array(members)
        tmap, b, y0, residual, rank, tangent, _ = _fits(pts[idx], vals[idx], vals.shape[1])[0]
        leaves.append(Leaf(
            member_indices=idx, points=pts[idx], values=vals[idx], dimension=rank,
            tangent=tangent, map_matrix=tmap, base_point=y0, offset=b, fit_residual=residual,
            sigma=_boundary_distances((pts[idx] - y0) @ tangent),
        ))
    assignment = np.full(n, -1, dtype=int)
    counts = np.zeros(n, dtype=int)
    for leaf_id, members in enumerate(member_sets):
        for p in members:
            counts[p] += 1
            if assignment[p] < 0:
                assignment[p] = leaf_id
    return LeafDecomposition(
        graph=graph, leaves=tuple(leaves), assignment=assignment, boundary_flags=np.flatnonzero(counts >= 2)
    )


def solved_potential(points, weights) -> PotentialField:
    _, potential, _ = solve(build_instance(points, weights))
    return potential


def reference_cases():
    """``(name, potential, eps)``: solved random and preset instances and the
    hand-built fixtures of this file."""
    rng = np.random.default_rng(1234)
    for k in range(30):
        size, n, m = int(rng.integers(2, 26)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        weights = rng.normal(size=(size, m))
        points = rng.uniform(-1.0, 1.0, (size, n))
        yield f"random-{k}", solved_potential(points, weights - weights.mean(axis=0)), 1e-6
    weights = rng.normal(size=(120, 1))
    points = rng.uniform(-1.0, 1.0, (120, 2))
    yield "scalar-120", solved_potential(points, weights - weights.mean()), 1e-6
    # m = 1 at a scale where the isometry graph is one spanning tree of all
    # 300 points, so the shrink loop runs about 300 steps on one component.
    weights = rng.normal(size=(300, 1))
    points = rng.uniform(-1.0, 1.0, (300, 2))
    yield "scalar-300", solved_potential(points, weights - weights.mean()), 1e-6
    weights = rng.normal(size=(400, 1))
    points = rng.uniform(-1.0, 1.0, (400, 3))
    yield "scalar-400-3d", solved_potential(points, weights - weights.mean()), 1e-6
    # m = 2 on a cloud of one component, whose leaves share members.
    weights = rng.normal(size=(60, 2))
    points = rng.uniform(-1.0, 1.0, (60, 2))
    yield "vector-60", solved_potential(points, weights - weights.mean(axis=0)), 1e-6
    for name, spec in (("paper", paper_preset()), ("orthant", orthant_spec(3))):
        inst = spec.instance()
        yield name, solved_potential(inst.cloud.points, inst.measure.weights), 1e-6
    yield "grid", grid_projection(5)[1], 1e-9
    yield "two-rays", two_rays()[1], 1e-9
    tent = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    yield "tent", PotentialField(tent, np.array([[0.0], [1.0], [0.0]])), 1e-6
    yield "short-pair", short_pair_line()[1], 0.01
    yield "stale-bound", stale_bound_line()[1], 0.25
    # m = 2 where maximal cliques fail their fit: a clique of 5, and cliques of 4.
    yield "bent-5", bent_line(2), 0.02
    yield "bent-7", bent_line(3), 0.01


def reference_maximal_cliques(n: int, edges: np.ndarray) -> list[tuple[int, ...]]:
    """Every maximal clique, sorted: every clique is grown by each larger
    common neighbour of its members, and a clique is maximal when its members
    have no common neighbour."""
    neighbours = [set() for _ in range(n)]
    for i, j in edges.tolist():
        neighbours[i].add(j)
        neighbours[j].add(i)
    cliques, layer = [], [(p,) for p in range(n)]
    while layer:
        common = [set.intersection(*(neighbours[p] for p in c)) for c in layer]
        cliques += [c for c, shared in zip(layer, common) if not shared]
        layer = [c + (q,) for c, shared in zip(layer, common) for q in sorted(shared) if q > c[-1]]
    return sorted(cliques)


def reference_pivot_cliques(n: int, edges: np.ndarray) -> list[tuple[int, ...]]:
    """Every maximal clique, sorted: the textbook Bron-Kerbosch with Tomita's
    pivot, recursive, on Python sets.  Unlike ``reference_maximal_cliques``
    it does not list every clique, so a clique of 25 points is quick."""
    neighbours = [set() for _ in range(n)]
    for i, j in edges.tolist():
        neighbours[i].add(j)
        neighbours[j].add(i)
    cliques = []

    def expand(members, cand, excl):
        if not cand and not excl:
            cliques.append(tuple(sorted(members)))
            return
        pivot = max(sorted(cand | excl), key=lambda p: len(cand & neighbours[p]))
        for v in sorted(cand - neighbours[pivot]):
            expand(members | {v}, cand & neighbours[v], excl & neighbours[v])
            cand, excl = cand - {v}, excl | {v}

    expand(set(), set(range(n)), set())
    return sorted(cliques)


def reference_split_cliques(graph, u) -> list[tuple[int, ...]]:
    """The m >= 2 leaves by the split rule as stated, round by round: every
    candidate is fitted, starting from the maximal cliques; one of more than
    two members whose residual exceeds eps times its diameter gives way to
    all its subsets one member smaller; an accepted set inside another is
    dropped."""
    pts, vals, dist, eps = graph.cloud.points, u.values, graph.cloud.distances, graph.eps
    candidates, accepted = set(reference_pivot_cliques(graph.cloud.size, graph.edges)), set()
    while candidates:
        failed = set()
        for c in candidates:
            sub = list(c)
            residual = reference_fit(pts[sub], vals[sub], vals.shape[1])[3]
            if len(c) > 2 and residual > eps * dist[np.ix_(sub, sub)].max():
                failed.add(c)
        accepted |= candidates - failed
        candidates = {c[:j] + c[j + 1 :] for c in failed for j in range(len(c))} - accepted
    return sorted(a for a in accepted if not any(set(a) < set(b) for b in accepted))


def test_vector_leaves_are_the_split_cliques_fitted_bit_for_bit():
    # At m >= 2 the leaves are the maximal cliques that fit, and the subsets
    # that failing cliques give way to.  Each leaf has the bits of its member
    # set fitted alone with at most m tangent directions, and sigma the bits
    # of that leaf's boundary distances alone.
    vector, split = 0, 0
    for name, u, eps in reference_cases():
        if u.values.shape[1] == 1:
            continue
        vector += 1
        graph = isometry_graph(u, eps=eps)
        members = reference_split_cliques(graph, u)
        split += members != reference_pivot_cliques(u.cloud.size, graph.edges)
        try:
            assert_same_decomposition(extract_leaves(graph, u), reference_decomposition(graph, u, members))
        except AssertionError as err:
            raise AssertionError(f"{name}: {err}") from err
    assert vector > 10 and split >= 2


def test_scalar_leaves_are_the_maximal_cliques_fitted_bit_for_bit():
    # Each clique is fitted once, in a stack of its size, with the bits of its
    # own fit and at most one tangent direction.
    scalar = 0
    for name, u, eps in reference_cases():
        if u.values.shape[1] > 1:
            continue
        scalar += 1
        graph = isometry_graph(u, eps=eps)
        dec = extract_leaves(graph, u)
        members = [tuple(leaf.member_indices.tolist()) for leaf in dec.leaves]
        assert members == reference_maximal_cliques(u.cloud.size, graph.edges), name
        for leaf in dec.leaves:
            idx = leaf.member_indices
            tmap, b, y0, residual, rank, tangent, _ = _fits(u.cloud.points[idx], u.values[idx], 1)[0]
            assert leaf.dimension == rank <= 1, name
            assert np.float64(leaf.fit_residual).tobytes() == np.float64(residual).tobytes(), name
            for got, want in zip(
                (leaf.map_matrix, leaf.offset, leaf.base_point, leaf.tangent), (tmap, b, y0, tangent)
            ):
                assert as_bytes(got) == as_bytes(want), name
        flat = np.concatenate(members)
        assert as_bytes(dec.boundary_flags) == as_bytes(np.flatnonzero(np.bincount(flat) >= 2))
    assert scalar > 10


def test_scalar_leaves_of_any_graph_are_its_maximal_cliques():
    # A saturation graph's cliques at m = 1 are collinear, but a graph built
    # by hand can be any graph, dense ones among them, with its pairs
    # repeated and in any order.
    rng = np.random.default_rng(36)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        pairs = np.argwhere(np.triu(rng.uniform(size=(n, n)) < rng.uniform(), 1))
        edges = rng.permutation(np.vstack([pairs, pairs[::2]]))
        cloud = PointCloud(rng.uniform(-1.0, 1.0, (n, 2)))
        u = PotentialField(cloud, rng.uniform(-1.0, 1.0, (n, 1)))
        leaves = extract_leaves(IsometryGraph(cloud=cloud, edges=edges, eps=1e-6), u).leaves
        assert [tuple(leaf.member_indices.tolist()) for leaf in leaves] == reference_maximal_cliques(n, pairs)


def test_scalar_leaves_hold_the_pairs_the_greedy_carve_left_out():
    # The greedy carve kept (2, 3), a strict subset of (2, 3, 4), and put the
    # saturated pair (1, 2) in no leaf.
    cloud, u = stale_bound_line()
    leaves = extract_leaves(isometry_graph(u, eps=0.25), u).leaves
    assert [leaf.member_indices.tolist() for leaf in leaves] == [[0, 1], [1, 2], [2, 3, 4]]
    # Points the greedy carve left alone in a one-point leaf, beside their
    # leaves with neighbours, lie in two-point leaves only.
    singles = {"random-4": (11, [[1, 11], [2, 11], [9, 11]]), "scalar-120": (72, [[31, 72], [72, 97]])}
    for name, u, eps in reference_cases():
        if name in singles:
            p, want = singles.pop(name)
            leaves = extract_leaves(isometry_graph(u, eps=eps), u).leaves
            assert [leaf.member_indices.tolist() for leaf in leaves if p in leaf.member_indices] == want
        if not singles:
            break
    assert not singles


def test_a_near_collinear_scalar_clique_reports_dimension_one():
    # The middle point lies 1e-4 off the segment: every pair saturates within
    # eps = 1e-6, and the centred points have two singular values above the
    # rank cut.  The leaf keeps the leading direction only.
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1e-4], [2.0, 0.0]]))
    u = PotentialField(cloud, np.array([[0.0], [1.0], [2.0]]))
    assert _fit(cloud.points, u.values)[4] == 2
    (leaf,) = extract_leaves(isometry_graph(u), u).leaves
    assert leaf.size == 3 and leaf.dimension == 1 and leaf.tangent.shape == (2, 1)
    assert abs(leaf.tangent[0, 0]) == pytest.approx(1.0) and leaf.fit_residual < 1e-8


def test_a_near_flat_vector_clique_reports_dimension_m():
    # At m = 2 the fourth point lies 1e-6 off the plane of the other three:
    # every pair saturates, and the centred points have three singular values
    # above the rank cut.  The leaf keeps the two leading directions only.
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-6]])
    u = PotentialField(PointCloud(points), points[:, :2].copy())
    assert _fit(points, u.values)[4] == 3
    (leaf,) = extract_leaves(isometry_graph(u), u).leaves
    assert leaf.size == 4 and leaf.dimension == 2 and leaf.tangent.shape == (3, 2)


def test_a_clique_of_any_size_needs_no_recursion():
    # u = x on 2,000 points of a line saturates every pair: one clique of all.
    x = np.arange(2000.0)[:, None]
    u = PotentialField(PointCloud(x), x.copy())
    graph = isometry_graph(u)
    assert len(graph.edges) == 2000 * 1999 // 2
    start = time.perf_counter()
    (leaf,) = extract_leaves(graph, u).leaves
    assert time.perf_counter() - start < 1.0
    assert leaf.member_indices.tolist() == list(range(2000)) and leaf.dimension == 1


def two_rows(k: int, gap: float) -> PotentialField:
    """u = x on the points (c, 0) and (c, gap), c = 0 .. k - 1."""
    cloud = PointCloud(np.array([[c, r] for c in range(k) for r in (0.0, gap)]))
    return PotentialField(cloud, cloud.points[:, :1].copy())


def test_cliques_that_are_no_rays_stop_the_search_in_bounded_time():
    # Each point saturates with both points of every other column, at eps =
    # 0.3 on the unit lattice and at the default eps when the rows lie 1e-3
    # apart; the two points of a column do not.  The graph's 2^k maximal
    # cliques zig-zag between the rows: no ray holds them.
    u = two_rows(5, 1.0)
    graph = isometry_graph(u, eps=0.3)
    leaves = extract_leaves(graph, u).leaves
    assert len(leaves) == 2**5
    assert [tuple(leaf.member_indices.tolist()) for leaf in leaves] == reference_maximal_cliques(10, graph.edges)
    for gap, eps in ((1.0, 0.3), (1e-3, 1e-6)):
        u = two_rows(30, gap)
        graph = isometry_graph(u, eps=eps)
        assert len(graph.edges) == 60 * 59 // 2 - 30
        start = time.perf_counter()
        with pytest.raises(TooManyCliques, match="no ray holds"):
            extract_leaves(graph, u)
        assert time.perf_counter() - start < 1.0


def test_vector_cliques_and_splits_past_the_budget_stop_in_bounded_time():
    # At m >= 2 the lattice rows of the test above list 2^30 cliques; along a
    # bent line of 161 points at eps 0.02 the graph is one clique, and most
    # of its subsets straddle the bend and fail their fit.
    for m in (2, 3):
        for gap, eps in ((1.0, 0.3), (1e-3, 1e-6)):
            u = two_rows(30, gap)
            u = PotentialField(u.cloud, np.pad(u.values, ((0, 0), (0, m - 1))))
            start = time.perf_counter()
            with pytest.raises(TooManyCliques, match=f"no leaf of dimension {m} or less holds"):
                extract_leaves(isometry_graph(u, eps=eps), u)
            assert time.perf_counter() - start < 1.0
    u = bent_line(80)
    graph = isometry_graph(u, eps=0.02)
    assert len(graph.edges) == 161 * 160 // 2
    start = time.perf_counter()
    with pytest.raises(TooManyCliques, match="passed 412804 steps"):
        extract_leaves(graph, u)
    assert time.perf_counter() - start < 1.0


def test_a_clique_that_fails_its_fit_gives_way_to_its_subsets():
    # Along a bent line the arms are the leaves, sharing the bend (point k).
    # At eps 0.02 the three points of bent_line(1) are one clique whose fit
    # fails; each pair is a leaf.  At eps 0.01 the graph of bent_line(3) also
    # joins the unbalanced pairs across the bend: its cliques (0, 1, 3, 4)
    # and (2, 3, 5, 6) fail, and give way to (0, 1, 4) and (2, 5, 6).
    cases = (
        (3, 1e-6, [[0, 1, 2, 3], [3, 4, 5, 6]]),
        (1, 0.02, [[0, 1], [0, 2], [1, 2]]),
        (3, 0.01, [[0, 1, 2, 3], [0, 1, 4], [2, 5, 6], [3, 4, 5, 6]]),
    )
    for k, eps, want in cases:
        u = bent_line(k)
        dec = extract_leaves(isometry_graph(u, eps=eps), u)
        assert [leaf.member_indices.tolist() for leaf in dec.leaves] == want
        assert all(leaf.dimension == 1 for leaf in dec.leaves)
    # In the last, every point lies in two leaves.
    np.testing.assert_array_equal(dec.boundary_flags, [0, 1, 2, 3, 4, 5, 6])


def test_a_failed_clique_gives_way_to_no_subset_of_a_larger_leaf():
    # A hand-built graph: the clique (0, 1, 3, 4) lies on a line mapped
    # isometrically, and the triangle (0, 1, 2) does not fit, since u halves
    # the height of point 2.  The larger clique is a leaf before the triangle
    # splits, so the triangle's side (0, 1) is no leaf of its own.
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [2.0, 0.0], [3.0, 0.0]])
    values = points * [1.0, 0.5]
    edges = [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [1, 3], [1, 4], [3, 4]]
    graph = IsometryGraph(cloud=PointCloud(points), edges=edges, eps=1e-6)
    leaves = extract_leaves(graph, PotentialField(graph.cloud, values)).leaves
    assert [leaf.member_indices.tolist() for leaf in leaves] == [[0, 1, 3, 4], [0, 2], [1, 2]]


def test_a_pair_of_the_graph_is_a_leaf_below_the_fit_rounding():
    # u turns the plane by a right angle: every pair saturates exactly, even
    # at eps 1e-300, but the fit of a pair misses by rounding.
    points = np.array([[0.3, -1.2], [1.7, 0.4]])
    u = PotentialField(PointCloud(points), points[:, ::-1] * [1.0, -1.0])
    graph = isometry_graph(u, eps=1e-300)
    assert graph.edges.tolist() == [[0, 1]]
    assert 0.0 < _fits(points, u.values, 2)[0][3]
    (leaf,) = extract_leaves(graph, u).leaves
    assert leaf.member_indices.tolist() == [0, 1] and leaf.dimension == 1


def test_vector_leaves_hold_the_pairs_the_greedy_carve_left_out():
    # The stale-bound line with its values along the unit vector (0.6, 0.8):
    # the greedy carve gave (0, 1), (2, 3), (2, 3, 4), a leaf inside another
    # and the pair (1, 2) in no leaf.
    cloud, u = stale_bound_line()
    u = PotentialField(cloud, u.values * np.array([0.6, 0.8]))
    leaves = extract_leaves(isometry_graph(u, eps=0.25), u).leaves
    assert [leaf.member_indices.tolist() for leaf in leaves] == [[0, 1], [1, 2], [2, 3, 4]]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.integers(-60, 60), min_size=2, max_size=30, unique=True),
    st.lists(st.integers(-3, 3), min_size=30, max_size=30),
)
def test_line_leaves_are_the_maximal_runs_of_one_slope(xs, ws):
    # On the line, the optimal potential has slope +-1 on every gap: a leaf
    # is a maximal run of consecutive points whose gaps share one slope.
    weights = np.array(ws[: len(xs)], dtype=float)[:, None]
    inst = build_instance(np.array(xs, dtype=float)[:, None], weights - weights.mean())
    u = line_optimal_potential(inst)
    order = np.argsort(xs)
    slopes = np.sign(np.diff(u.values[order, 0])).tolist()
    runs, start = [], 0
    for k in range(1, len(xs)):
        if k == len(xs) - 1 or slopes[k] != slopes[k - 1]:
            runs.append(tuple(sorted(order[start : k + 1].tolist())))
            start = k
    leaves = extract_leaves(isometry_graph(u), u).leaves
    assert [tuple(leaf.member_indices.tolist()) for leaf in leaves] == sorted(runs)


@st.composite
def lattice_instances(draw, m=st.integers(1, 3), max_size: int = 15):
    """An instance on 2 to ``max_size`` distinct lattice points in R^n, n <= 3,
    with integer weights in R^m; lattices make many saturated pairs."""
    n, m = draw(st.integers(1, 3)), draw(m)
    lattice = st.tuples(*[st.integers(-3, 3)] * n)
    points = draw(st.lists(lattice, min_size=2, max_size=max_size, unique=True))
    size = len(points)
    weights = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), min_size=size, max_size=size))
    weights = np.array(weights, dtype=float)
    return build_instance(np.array(points, dtype=float), weights - weights.mean(axis=0))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(lattice_instances())
def test_leaves_keep_their_contract(inst):
    coupling, u, _ = solve(inst)
    graph = isometry_graph(u)
    dec = extract_leaves(graph, u)
    n = u.cloud.size
    adj = graph.adjacency() | np.eye(n, dtype=bool)
    holders = [[] for _ in range(n)]
    for k, leaf in enumerate(dec.leaves):
        idx = leaf.member_indices
        assert adj[np.ix_(idx, idx)].all()
        assert leaf.fit_residual <= graph.eps * u.cloud.distances[np.ix_(idx, idx)].max()
        for p in idx:
            holders[p].append(k)
    assert all(holders)
    np.testing.assert_array_equal(dec.assignment, [h[0] for h in holders])
    shared = [p for p in range(n) if len(holders[p]) > 1]
    np.testing.assert_array_equal(dec.boundary_flags, shared)
    m = u.values.shape[1]
    if m == 1:
        members = [tuple(leaf.member_indices.tolist()) for leaf in dec.leaves]
        assert members == reference_maximal_cliques(n, graph.edges)
        return
    # Maximal at m >= 2: every pair of the graph, and so every flow edge,
    # lies in a leaf, no leaf lies inside another, and a point adjacent to all
    # of a leaf does not fit with it.
    members = [set(leaf.member_indices.tolist()) for leaf in dec.leaves]
    held = {(i, j) for s in members for i in s for j in s if i < j}
    assert set(map(tuple, graph.edges.tolist())) <= held
    flowing = np.linalg.norm(coupling.flows, axis=1) > 1e-6 * inst.measure.mass_scale
    assert set(map(tuple, np.sort(coupling.pairs[flowing], axis=1).tolist())) <= held
    assert not any(a < b for a, b in itertools.permutations(members, 2))
    for leaf in dec.leaves:
        assert leaf.dimension <= m
        for p in np.flatnonzero(graph.adjacency()[:, leaf.member_indices].all(axis=1)):
            grown = np.sort(np.append(leaf.member_indices, p))
            residual = _fits(u.cloud.points[grown], u.values[grown], m)[0][3]
            assert residual > graph.eps * u.cloud.distances[np.ix_(grown, grown)].max()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(lattice_instances(m=st.just(1), max_size=40))
def test_scalar_leaves_are_maximal_and_hold_every_saturated_pair(inst):
    coupling, u, _ = solve(inst)
    graph = isometry_graph(u)
    dec = extract_leaves(graph, u)
    members = [set(leaf.member_indices.tolist()) for leaf in dec.leaves]
    held = {(i, j) for s in members for i in s for j in s if i < j}
    assert set(map(tuple, graph.edges.tolist())) <= held
    assert not any(a < b for a, b in itertools.permutations(members, 2))
    adj = graph.adjacency()
    for leaf in dec.leaves:
        assert not adj[:, leaf.member_indices].all(axis=1).any()  # no point can join
        assert leaf.dimension <= 1
    flowing = np.linalg.norm(coupling.flows, axis=1) > 1e-6 * inst.measure.mass_scale
    assert set(map(tuple, np.sort(coupling.pairs[flowing], axis=1).tolist())) <= held


def test_pair_diagnostics_keep_the_bits_of_their_formulas():
    # Both diagnostics read one pair slack; each keeps the bits of its
    # formula spelled out in full.
    for cloud, u in (two_rays(60.0), grid_projection(3)):
        leaf1, leaf2 = extract_leaves(isometry_graph(u, eps=1e-9), u).leaves[:2]
        proj1, proj2 = leaf1.projection, leaf2.projection
        op = proj1 @ proj2 - proj1 @ leaf1.map_matrix.T @ leaf2.map_matrix @ proj2
        opnorm = float(np.linalg.norm(op, 2))
        lhs = float(np.linalg.norm(leaf1.map_matrix - leaf2.map_matrix, 2))
        for p1, i in enumerate(leaf1.member_indices.tolist()):
            for p2, j in enumerate(leaf2.member_indices.tolist()):
                dx = leaf1.points[p1] - leaf2.points[p2]
                du = leaf1.values[p1] - leaf2.values[p2]
                s1, s2 = float(leaf1.sigma[p1]), float(leaf2.sigma[p2])
                expected = float(dx @ dx - du @ du - 2.0 * s1 * s2 * opnorm)
                assert strengthened_lipschitz_residual(leaf1, leaf2, i, j) == expected
                if s1 * s2 == 0.0:
                    bound = True
                else:
                    rhs = np.sqrt(max(float(dx @ dx - du @ du), 0.0) / (2.0 * s1 * s2))
                    bound = lhs <= rhs + 1e-9 + leaf1.fit_residual + leaf2.fit_residual
                assert derivative_modulus_check(leaf1, leaf2, i, j) == bound


def test_a_fit_tolerance_past_the_float_range_accepts_without_a_warning(recwarn):
    # eps * diameter = 1e169 * 1e140 overflows to inf: every fit passes, and
    # no overflow warning is raised on the way.
    cloud = PointCloud(np.array([[0.0], [1e140]]))
    u = PotentialField(cloud, np.array([[0.0], [5e139]]))
    graph = isometry_graph(u, eps=1e169)
    assert graph.edges.tolist() == [[0, 1]]
    leaves = extract_leaves(graph, u).leaves
    assert [leaf.member_indices.tolist() for leaf in leaves] == [[0, 1]]
    assert not recwarn.list

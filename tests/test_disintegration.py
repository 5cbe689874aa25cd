"""Tests for grid densities, needle disintegration and CD(kappa, N) checks."""

from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np
import pytest

import vecot.disintegration
from vecot import (
    CdReport,
    CenterOutsideBox,
    EmptySlice,
    GeometryMismatch,
    GridDensity,
    InvalidParameter,
    NeedleBatch,
    NonpositiveDensity,
    TooFewPoints,
    VecotError,
    cd_check_1d,
    l1_distance,
    radial_disintegration,
    reassemble,
    slice_disintegration,
    tabulate_density,
)


def gaussian_2d(res: int = 129, half_width: float = 4.0) -> GridDensity:
    box = [[-half_width, half_width], [-half_width, half_width]]
    return tabulate_density(
        box, res, lambda p: np.exp(-0.5 * (p ** 2).sum(axis=1))
    )


def one_needle(axes, g, base, directions):
    """A needle checked and normalized on its own: the row of a one-row batch."""
    (row,) = NeedleBatch(axes=axes, g=np.asarray(g)[None], base=np.asarray(base)[None], directions=directions)
    return row


def row_quadrature(row):
    """A row's embedded cell positions and masses, by one matmul for the needle alone."""
    points = row.base + vecot.disintegration._product_grid(row.axes) @ row.directions.T
    return points, row.g.ravel() * vecot.disintegration._cell_volume(row.axes)


# ---------------------------------------------------------------------------
# GridDensity and needle basics
# ---------------------------------------------------------------------------


def test_grid_density_validation():
    with pytest.raises(GeometryMismatch):
        GridDensity(box=[[0.0, 1.0]], samples=np.ones((4, 4)))
    with pytest.raises(GeometryMismatch):
        GridDensity(box=[[1.0, 0.0]], samples=np.ones(4))
    with pytest.raises(NonpositiveDensity):
        GridDensity(box=[[0.0, 1.0]], samples=np.array([1.0, -0.1]))
    with pytest.raises(NonpositiveDensity):
        GridDensity(box=[[0.0, 1.0]], samples=np.zeros(4))
    # The widest box whose cells have a finite volume is fine.
    assert GridDensity(box=[[-8e307, 8e307]], samples=np.ones(2)).total_mass == 1.6e308


@pytest.mark.parametrize(
    "box, match",
    [
        ([[0.0, math.inf]], "bounds and widths must be finite"),
        ([[math.nan, 1.0]], "bounds and widths must be finite"),
        ([[0.0, 1.0], [-math.inf, math.inf]], "bounds and widths must be finite"),
        ([[-1e308, 1e308]], "bounds and widths must be finite"),
        ([[-1e200, 1e200], [-1e200, 1e200]], "cell volume inf"),
        ([[0.0, 1e-200], [0.0, 1e-200]], "cell volume 0.0"),
    ],
    ids=["infinite-hi", "nan-lo", "infinite-axis", "overflowing-width", "overflowing-cells", "vanishing-cells"],
)
def test_grid_boxes_must_be_finite(box, match):
    # Such boxes gave a total mass of inf, nan or 0, or an overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryMismatch, match=match):
            GridDensity(box=box, samples=np.ones((3,) * len(box)))
        with pytest.raises(GeometryMismatch, match=match):
            tabulate_density(box, 3, lambda p: np.ones(len(p)))


def test_cell_volumes_inside_the_float_range_are_found_when_partial_products_leave_it():
    # 5e199 * 5e199 overflows and 5e-251 * 5e-251 underflows, but neither
    # volume does; where the left-to-right product is finite and nonzero,
    # it keeps its bits.
    wide = GridDensity(box=[[0.0, 1e200], [0.0, 1e200], [0.0, 1e-250]], samples=np.ones((2, 2, 2)))
    assert wide.cell_volume == pytest.approx(1.25e149, rel=1e-15)
    thin = GridDensity(box=[[0.0, 1e-250], [0.0, 1e-250], [0.0, 1e200]], samples=np.ones((2, 2, 2)))
    assert thin.cell_volume == pytest.approx(1.25e-301, rel=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(200):
        box = np.column_stack([np.zeros(3), 10.0 ** rng.uniform(-90.0, 90.0, 3)])
        d = GridDensity(box=box, samples=np.ones((3, 1, 2)))
        assert d.cell_volume == d.steps[0] * d.steps[1] * d.steps[2]


def test_grid_density_quadrature_geometry():
    d = GridDensity(box=[[0.0, 1.0], [0.0, 2.0]], samples=np.ones((2, 4)))
    assert d.dim == 2
    assert d.resolution == (2, 4)
    np.testing.assert_allclose(d.steps, [0.5, 0.5])
    assert d.cell_volume == pytest.approx(0.25)
    assert d.total_mass == pytest.approx(2.0)
    np.testing.assert_allclose(d.centers(0), [0.25, 0.75])
    points, masses = d.quadrature()
    assert points.shape == (8, 2)
    assert masses.sum() == pytest.approx(2.0)


def test_tabulate_density_broadcasts_resolution():
    d = tabulate_density([[0.0, 1.0], [0.0, 1.0]], 8, lambda p: np.ones(len(p)))
    assert d.resolution == (8, 8)


def test_tabulate_density_validates_and_orders_its_grid():
    def ones(p):
        return np.ones(len(p))

    # Samples are indexed by cell, the last axis fastest.
    d = tabulate_density([[0.0, 1.0], [0.0, 3.0]], [2, 3], lambda p: 1.0 + p[:, 0] + 10.0 * p[:, 1])
    np.testing.assert_allclose(d.samples, 1.0 + d.centers(0)[:, None] + 10.0 * d.centers(1)[None, :])
    points, masses = d.quadrature()
    np.testing.assert_allclose(masses, (1.0 + points[:, 0] + 10.0 * points[:, 1]) * d.cell_volume)

    with pytest.raises(GeometryMismatch, match="lo and a hi"):
        tabulate_density([-1.0, 1.0, -1.0], 9, ones)
    with pytest.raises(GeometryMismatch, match="3 cell counts for 2 axes"):
        tabulate_density([-1.0, 1.0, -1.0, 1.0], [9, 9, 9], ones)
    for resolution in (-3, 0, [9, 0]):
        with pytest.raises(InvalidParameter, match="at least one cell"):
            tabulate_density([-1.0, 1.0, -1.0, 1.0], resolution, ones)
    with pytest.raises(GeometryMismatch, match="lo and a hi"):
        GridDensity(box=[-1.0, 1.0, -1.0], samples=np.ones((2, 2)))
    # The density must give one value per cell center.
    for fn in (lambda p: np.ones(2 * len(p)), lambda p: np.ones(len(p) - 1), lambda p: 1.0):
        with pytest.raises(GeometryMismatch, match="values for 9 cell centers"):
            tabulate_density([-1.0, 1.0, -1.0, 1.0], 3, fn)
    assert tabulate_density([-1.0, 1.0], 3, lambda p: np.ones((3, 1))).resolution == (3,)


def test_needle_normalizes_to_unit_mass():
    t = np.linspace(0.05, 0.95, 10)
    needle = NeedleBatch(
        axes=(t,), g=np.full((1, 10), 7.0), base=np.zeros((1, 2)), directions=np.eye(2)[:, :1]
    )
    _, masses = needle.quadrature()
    assert masses.shape == (1, 10) and masses.sum() == pytest.approx(1.0)
    assert needle.leaf_dim == 1
    np.testing.assert_allclose(needle.axes[0], t)


def test_needle_rejects_bad_data():
    t = np.linspace(0.0, 1.0, 8)
    with pytest.raises(EmptySlice):
        one_needle(axes=(t,), g=np.zeros(8), base=np.zeros(1), directions=np.eye(1))
    with pytest.raises(NonpositiveDensity):
        one_needle(axes=(t,), g=-np.ones(8), base=np.zeros(1), directions=np.eye(1))
    with pytest.raises(GeometryMismatch):
        one_needle(axes=(t,), g=np.ones(7), base=np.zeros(1), directions=np.eye(1))
    two_d = one_needle(axes=(t, t), g=np.ones((8, 8)), base=np.zeros(2), directions=np.eye(2))
    # A 2-D needle has no 1-D parameter grid to check CD on.
    with pytest.raises(GeometryMismatch, match="1-d needles only"):
        cd_check_1d(two_d, 0.0, math.inf)


# ---------------------------------------------------------------------------
# Needle batches
# ---------------------------------------------------------------------------


def test_needle_batch_is_a_sequence_of_unchecked_views():
    t = np.linspace(0.05, 0.95, 10)
    g = np.arange(1.0, 31.0).reshape(3, 10)
    batch = NeedleBatch(axes=(t,), g=g, base=np.eye(3)[:, :2], directions=np.array([[1.0], [0.0]]))
    assert len(batch) == 3 and batch.leaf_dim == 1
    points, masses = batch.quadrature()
    assert points.shape == (3, 10, 2) and masses.shape == (3, 10)
    for k, needle in enumerate(batch):
        one = one_needle(axes=(t,), g=g[k], base=np.eye(3)[k, :2], directions=[[1.0], [0.0]])
        assert needle.g.tobytes() == one.g.tobytes() and needle.base.tolist() == np.eye(3)[k, :2].tolist()
        assert np.shares_memory(needle.g, batch.g)
        assert points[k].tobytes() == row_quadrature(one)[0].tobytes()
        assert masses[k].tobytes() == row_quadrature(one)[1].tobytes()
    tail = batch[1:]
    assert isinstance(tail, NeedleBatch) and len(tail) == 2
    assert tail.g.tobytes() == batch.g[1:].tobytes()
    # Slices only: a needle on its own is a one-row batch, or a row while iterating.
    for key in (0, -1, 3, np.int64(1), [0, 1]):
        with pytest.raises(TypeError):
            batch[key]


def test_needle_batch_validates_once_for_the_whole_batch():
    t = np.linspace(0.0, 1.0, 8)
    ok = {"axes": (t,), "g": np.ones((2, 8)), "base": np.zeros((2, 1)), "directions": np.eye(1)}
    for bad in (
        {"g": np.ones((2, 7))},
        {"base": np.zeros((3, 1))},
        {"base": np.zeros(2)},
        {"directions": np.eye(2)},
        {"directions": np.ones((3, 1, 1))},
        {"axes": (np.ones((3, 8)),)},
    ):
        with pytest.raises(GeometryMismatch):
            NeedleBatch(**{**ok, **bad})
    with pytest.raises(NonpositiveDensity):
        NeedleBatch(**{**ok, "g": np.array([np.ones(8), np.full(8, np.nan)])})
    with pytest.raises(EmptySlice):
        NeedleBatch(**{**ok, "g": np.array([np.ones(8), np.zeros(8)])})
    # Per-needle grids and directions.
    per_needle = {"axes": (np.stack([t, 2.0 * t]),), "directions": -np.ones((2, 1, 1))}
    _, second = NeedleBatch(**{**ok, **per_needle})
    assert second.axes[0].tobytes() == (2.0 * t).tobytes()
    assert second.g.sum() * (2.0 * t[1]) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "bad",
    [
        {"base": [[0.5, 0.0], [np.nan, 0.0]]},
        {"base": [[0.5, 0.0], [np.inf, 0.0]]},
        {"directions": [[1.0], [np.nan]]},
        {"directions": [[[1.0], [0.0]], [[-np.inf], [0.0]]]},
        {"axes": (np.append(np.linspace(-1.0, 1.0, 8), np.nan),)},
        {"axes": (np.stack([np.linspace(-1.0, 1.0, 9), np.append(np.linspace(-1.0, 1.0, 8), np.inf)]),)},
    ],
    ids=["nan-base", "inf-base", "nan-direction", "inf-per-needle-direction", "nan-grid",
         "inf-per-needle-grid"],
)
def test_needle_batch_rejects_non_finite_geometry(bad):
    # Caught here, not in reassemble, which would blame its own output for a
    # NaN base and put all the mass of an infinite one on the edge row.  A
    # finite grid also makes t * 0 + b equal b up to the sign of a zero.
    ok = {
        "axes": (np.linspace(-1.0, 1.0, 9),),
        "g": np.ones((2, 9)),
        "base": [[0.5, 0.0], [-0.5, 0.0]],
        "directions": [[1.0], [0.0]],
    }
    with pytest.raises(GeometryMismatch, match="finite"):
        NeedleBatch(**{**ok, **bad})
    if "base" in bad:
        with pytest.raises(GeometryMismatch, match="finite"):
            one_needle(axes=ok["axes"], g=np.ones(9), base=bad["base"][1], directions=ok["directions"])


# ---------------------------------------------------------------------------
# Slice disintegration
# ---------------------------------------------------------------------------


def test_slice_weights_are_the_tail_marginal():
    d = gaussian_2d(res=33)
    needles, weights = slice_disintegration(d, 1)
    assert len(needles) == 33
    assert weights.sum() == pytest.approx(1.0)
    marginal = d.samples.sum(axis=0) * d.cell_volume / d.total_mass
    np.testing.assert_allclose(weights, marginal, atol=1e-14)


def test_slice_reassembly_is_exact():
    d = gaussian_2d(res=129)
    needles, weights = slice_disintegration(d, 1)
    rebuilt = reassemble(needles, weights, d)
    assert l1_distance(rebuilt, d) <= 1e-12


def test_slice_conditionals_of_a_product_density_are_identical():
    d = tabulate_density(
        [[0.0, 1.0], [0.0, 1.0]],
        16,
        lambda p: (1.0 + p[:, 0]) * (2.0 - p[:, 1]),
    )
    needles, _ = slice_disintegration(d, 1)
    for g in needles.g[1:]:
        np.testing.assert_allclose(g, needles.g[0], rtol=1e-12)


def test_slice_skips_massless_blocks():
    samples = np.ones((4, 4))
    samples[:, 2] = 0.0
    d = GridDensity(box=[[0.0, 1.0], [0.0, 1.0]], samples=samples)
    needles, weights = slice_disintegration(d, 1)
    assert len(needles) == 3
    assert weights.sum() == pytest.approx(1.0)


def test_slice_rejects_bad_split():
    d = gaussian_2d(res=9)
    with pytest.raises(GeometryMismatch):
        slice_disintegration(d, 0)
    with pytest.raises(GeometryMismatch):
        slice_disintegration(d, 2)


def test_slice_mixture_preserves_moments():
    d = gaussian_2d(res=65)
    needles, weights = slice_disintegration(d, 1)
    pts, masses = d.quadrature()
    total = masses.sum()
    mean_ref = (pts * masses[:, None]).sum(axis=0) / total
    second_ref = ((pts ** 2).sum(axis=1) * masses).sum() / total
    mean_mix = np.zeros(2)
    second_mix = 0.0
    for w, npts, nmass in zip(weights, *needles.quadrature()):
        mean_mix += w * (npts * nmass[:, None]).sum(axis=0)
        second_mix += w * ((npts ** 2).sum(axis=1) * nmass).sum()
    np.testing.assert_allclose(mean_mix, mean_ref, atol=1e-12)
    assert second_mix == pytest.approx(second_ref, abs=1e-12)


# ---------------------------------------------------------------------------
# Radial disintegration
# ---------------------------------------------------------------------------


def test_radial_needles_carry_the_jacobian():
    # For a centered standard Gaussian every ray conditional is
    # proportional to r * exp(-r^2/2); multilinear interpolation limits
    # the match to O(h^2).
    d = gaussian_2d(res=129)
    needles, weights = radial_disintegration(d, [0.0, 0.0], n_directions=16)
    assert len(needles) == 16
    np.testing.assert_allclose(weights, np.full(16, 1.0 / 16.0), atol=1e-3)
    for needle in needles[:4]:
        (t,) = needle.axes
        expected = t * np.exp(-0.5 * t ** 2)
        expected /= expected.sum() * (t[1] - t[0])
        err = float(np.abs(needle.g - expected).sum() * (t[1] - t[0]))
        assert err <= 1e-3


def test_radial_reassembly_error_decreases_with_the_fan():
    d = gaussian_2d(res=65)
    errs = []
    for count in (64, 128, 256):
        needles, weights = radial_disintegration(d, [0.0, 0.0], n_directions=count)
        errs.append(l1_distance(reassemble(needles, weights, d), d))
    assert errs[0] > errs[1] > errs[2]


def test_radial_mixture_preserves_the_mean_to_quadrature_tolerance():
    d = gaussian_2d(res=65)
    needles, weights = radial_disintegration(d, [0.5, -0.25], n_directions=128)
    mean_mix = np.zeros(2)
    for w, npts, nmass in zip(weights, *needles.quadrature()):
        mean_mix += w * (npts * nmass[:, None]).sum(axis=0)
    pts, masses = d.quadrature()
    mean_ref = (pts * masses[:, None]).sum(axis=0) / masses.sum()
    np.testing.assert_allclose(mean_mix, mean_ref, atol=5e-3)


def test_radial_validates_center_and_dimension():
    d = gaussian_2d(res=17)
    with pytest.raises(CenterOutsideBox):
        radial_disintegration(d, [5.0, 0.0])
    with pytest.raises(CenterOutsideBox):
        radial_disintegration(d, [np.nan, 0.0])
    for counts in ({"n_directions": 0}, {"n_directions": -3}, {"n_radial": 0}):
        with pytest.raises(InvalidParameter):
            radial_disintegration(d, [0.0, 0.0], **counts)
    with pytest.raises(GeometryMismatch):
        radial_disintegration(d, [0.0, 0.0, 0.0])
    d4 = tabulate_density([[0.0, 1.0]] * 4, 4, lambda p: np.ones(len(p)))
    with pytest.raises(GeometryMismatch):
        radial_disintegration(d4, [0.5] * 4)
    # A line always has two rays, but its direction count is checked too.
    line = tabulate_density([[-1.0, 1.0]], 8, lambda p: np.exp(-p[:, 0] ** 2))
    for count in (0, -5):
        with pytest.raises(InvalidParameter, match="at least one direction"):
            radial_disintegration(line, [0.0], count)


def test_radial_line_uses_two_rays():
    d = tabulate_density([[-1.0, 1.0]], 64, lambda p: np.exp(-p[:, 0] ** 2))
    needles, weights = radial_disintegration(d, [0.0])
    assert len(needles) == 2
    assert weights.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)


def test_radial_rays_that_carry_no_mass_are_skipped():
    # Mass only in the corner cells [24:, 24:]; seen from (-2, -2), two of
    # the sixteen rays cross it.
    samples = np.zeros((33, 33))
    samples[24:, 24:] = 1.0
    d = GridDensity(box=[[-4.0, 4.0], [-4.0, 4.0]], samples=samples)
    needles, weights = radial_disintegration(d, [-2.0, -2.0], 16)
    assert len(needles) == 2
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Reassembly plumbing
# ---------------------------------------------------------------------------


def test_row_views_are_refused_where_a_batch_is_needed():
    # A row of an 8^2 slice batch has 8 cells, as the batch has 8 needles.
    d = tabulate_density([[-1.0, 1.0]] * 2, 8, lambda p: np.exp(-(p ** 2).sum(axis=1)))
    needles, weights = slice_disintegration(d, 1)
    row = next(iter(needles))
    with pytest.raises(GeometryMismatch, match="no needle axis"):
        reassemble(row, weights, d)
    with pytest.raises(GeometryMismatch, match="no needle axis"):
        row.quadrature()
    # len() and a slice would count and cut the row's cells, not needles.
    with pytest.raises(GeometryMismatch, match="no needle axis"):
        len(row)
    with pytest.raises(GeometryMismatch, match="no needle axis"):
        row[1:]
    assert len(needles) == 8 and len(needles[1:]) == 7
    assert cd_check_1d(row, 0.0, math.inf) == cd_check_1d(needles, 0.0, math.inf)[0]


def test_cd_checks_refuse_steps_outside_the_stencils_float_range():
    # h^2 underflows to 0 or 10 h^2 overflows: refused before any stencil.
    for step in (1e-300, 1e-152, 1e154):
        t = np.arange(7) * step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            needles = line_needle(t, np.ones(7))
            with pytest.raises(GeometryMismatch, match="squares outside"):
                cd_check_1d(needles, 0.0, math.inf)
            with pytest.raises(GeometryMismatch, match="squares outside"):
                cd_check_1d(next(iter(needles)), 0.0, math.inf)
    # Just above the floor, rho'^2 / (N - 1) may overflow: the condition
    # fails by -inf, without a warning.
    t = np.arange(7) * 1.1e-151
    g = np.array([1e-150, 1.0, 1e150, 1.0, 1e-150, 1.0, 1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (report,) = cd_check_1d(line_needle(t, g), 0.0, 1.0001)
    assert report.worst_violation == -math.inf and not report.passed


def test_reassemble_output_is_unit_mass():
    d = gaussian_2d(res=33)
    needles, weights = slice_disintegration(d, 1)
    rebuilt = reassemble(needles, weights, d)
    assert rebuilt.total_mass == pytest.approx(1.0, rel=1e-12)


def reference_stencil(grid: GridDensity, points: np.ndarray) -> list:
    """Per axis, the edge-clamped cells below and above each point, and their weights.

    ``points`` have shape (..., P, dim).  Each axis gives ``(cells,
    weights)``, two arrays of shape (..., 2, P) holding the lower cell's
    index and weight first.  A coordinate equal to one of the axis's cell
    centers, bit for bit, is found by a search over all of them and sits
    on it: its offset q is that center's index j exactly, so the cell
    weighted 1 is j (the lower cell below the last center, the upper one
    at it).  It is written out axis by axis, apart from the library's
    stencil, so that the references below check the library rather than
    follow it; it needs points less than 2^63 cells from the box.
    """
    stencil = []
    for a, res in enumerate(grid.resolution):
        x = points[..., a]
        q = (x - grid.box[a, 0]) / grid.steps[a] - 0.5
        centers = grid.centers(a)
        j = np.minimum(np.searchsorted(centers, x), res - 1)
        q = np.where(centers[j] == x, j, q)
        lo = np.clip(np.floor(q).astype(int), 0, max(res - 2, 0))
        f = np.clip(q - lo, 0.0, 1.0) if res > 1 else np.zeros(q.shape)
        cells = np.stack([lo, np.minimum(lo + 1, res - 1)], axis=-2)
        stencil.append((cells, np.stack([1.0 - f, f], axis=-2)))
    return stencil


def reference_corners(grid: GridDensity, points: np.ndarray):
    """Yield ``(cell, weight)`` for each of the 2^dim multilinear corners, one at a time.

    The corners come in ``np.ndindex`` order.  ``cell`` indexes the grid
    (edge-clamped) and ``weight`` holds every point's interpolation weight
    at that corner; both are combined from one ``reference_stencil`` of the
    points.
    """
    stencil = reference_stencil(grid, points)
    for corner in np.ndindex(*(2,) * grid.dim):
        cell = tuple(cells[..., c, :] for (cells, _), c in zip(stencil, corner))
        weight = functools.reduce(np.multiply, [w[..., c, :] for (_, w), c in zip(stencil, corner)])
        yield cell, weight


def assert_corners_match_the_reference(grid: GridDensity, points: np.ndarray, cells, weight):
    """The library's corners of ``points``, taken as one block, against the reference's.

    An axis moves unless every reference weight on it is exactly 0 or 1,
    and the library keeps the 2^k corners of the k moving axes, in
    ``np.ndindex`` order.  A reference corner maps to the kept corner with
    its bits on the moving axes: where it holds each fixed axis's cell of
    weight 1, the library's cell and weight there have its bits; elsewhere
    its weight is exactly 0.
    """
    stencil = reference_stencil(grid, points)
    moving = [not np.all((w == 0.0) | (w == 1.0)) for _, w in stencil]
    kept = (2,) * sum(moving)
    shape = points.shape[:-2] + (2 ** sum(moving), points.shape[-2])
    assert cells.shape == np.broadcast_shapes(cells.shape, weight.shape) == shape
    for corner, (cell, w) in zip(np.ndindex(*(2,) * grid.dim), reference_corners(grid, points)):
        k = np.ravel_multi_index([c for c, m in zip(corner, moving) if m], kept)
        held = functools.reduce(
            np.logical_and,
            [ws[..., c, :] == 1.0 for (_, ws), c, m in zip(stencil, corner, moving) if not m],
            np.ones(w.shape, dtype=bool),
        )
        assert np.all(w[~held] == 0.0)
        flat = np.ravel_multi_index(cell, grid.resolution)
        assert cells[..., k, :][held].tobytes() == flat[held].tobytes()
        assert np.broadcast_to(weight, shape)[..., k, :][held].tobytes() == w[held].tobytes()


def reference_reassemble(needles, weights, target: GridDensity) -> np.ndarray:
    """The one-needle-at-a-time splat that blocked reassembly replaced."""
    mass_grid = np.zeros(target.resolution)
    for needle, w in zip(needles, np.asarray(weights, dtype=float)):
        points, masses = row_quadrature(needle)
        for cell, weight in reference_corners(target, points):
            np.add.at(mass_grid, cell, w * masses * weight)
    return mass_grid / target.cell_volume


def _skewed_3d(res) -> GridDensity:
    return tabulate_density(
        [[-3.0, 2.5], [-2.0, 3.0], [-2.5, 2.0]],
        res,
        lambda p: np.exp(-0.5 * (p ** 2).sum(axis=1) - 0.4 * p[:, 0] * p[:, 2]),
    )


def _off_grid_needles(name):
    # Slice needles of either leaf dimension, or rays from one of two
    # centers, with unrelated weights, on a target whose cells none of them
    # land on.
    d = _skewed_3d((9, 10, 11))
    if name == "lines":
        needles, _ = slice_disintegration(d, 1)
    elif name == "sheets":
        needles, _ = slice_disintegration(d, 2)
    elif name == "rays":
        needles, _ = radial_disintegration(d, [0.2, -0.1, 0.3], n_directions=12, n_radial=7)
    else:
        needles, _ = radial_disintegration(d, [-1.0, 0.5, 0.0], n_directions=5)
    weights = np.random.default_rng(11).uniform(0.1, 1.0, size=len(needles))
    return needles, weights, _skewed_3d((7, 13, 6))


def _reassembly_case(name):
    if name.startswith("off-grid"):
        return _off_grid_needles(name.split("-")[-1])
    if name.startswith("slice"):
        d = _skewed_3d((9, 10, 11))
        needles, weights = slice_disintegration(d, int(name[-1]))
        return needles, weights, d
    if name == "radial-2d":
        d = gaussian_2d(res=21)
        needles, weights = radial_disintegration(d, [0.3, -0.7], n_directions=40, n_radial=9)
        return needles, weights, d
    d = _skewed_3d(16)
    needles, weights = radial_disintegration(d, [0.1, 0.2, -0.3], n_directions=30)
    return needles, weights, d


REASSEMBLY_CASES = ["slice-m1", "slice-m2", "radial-2d", "radial-3d"]
REASSEMBLY_CASES += ["off-grid-lines", "off-grid-sheets", "off-grid-rays", "off-grid-more-rays"]


@pytest.mark.parametrize("case", REASSEMBLY_CASES)
def test_blocked_reassembly_matches_the_per_needle_loop_bit_for_bit(monkeypatch, case):
    needles, weights, target = _reassembly_case(case)
    expected = reference_reassemble(needles, weights, target).tobytes()
    assert reassemble(needles, weights, target).samples.tobytes() == expected
    # Small blocks split the batch many times; the m = 2 slices (90 points)
    # and the 3-D rays (64 points) are each larger than a block.
    monkeypatch.setattr(vecot.disintegration, "_BLOCK_POINTS", 50)
    assert reassemble(needles, weights, target).samples.tobytes() == expected


def reference_slices(density: GridDensity, m: int):
    """Slice needles and weights built one needle at a time."""
    n = density.dim
    head = tuple(density.centers(a) for a in range(m))
    needles, weights = [], []
    for tail in np.ndindex(*density.resolution[m:]):
        block = density.samples[(slice(None),) * m + tail]
        base = np.zeros(n)
        base[m:] = [density.centers(m + a)[i] for a, i in enumerate(tail)]
        try:
            needles.append(one_needle(axes=head, g=block, base=base, directions=np.eye(n)[:, :m]))
        except EmptySlice:
            continue
        weights.append(block.sum() * density.cell_volume / density.total_mass)
    return needles, np.array(weights)


def reference_rays(density: GridDensity, center, n_directions: int, n_radial: int):
    """Ray needles and weights built one needle (and one interpolation) per direction."""
    center = np.asarray(center, dtype=float)
    n = density.dim
    fans = {1: lambda k: np.array([[1.0], [-1.0]]), 2: vecot.disintegration._circle_fan}
    fan = fans.get(n, vecot.disintegration._sphere_fan)(n_directions)
    box = density.box
    needles, raw = [], []
    for direction in fan:
        with np.errstate(divide="ignore"):
            exits = np.where(
                direction > 0,
                (box[:, 1] - center) / direction,
                np.where(direction < 0, (box[:, 0] - center) / direction, np.inf),
            )
        dt = float(exits.min()) / n_radial
        t = (np.arange(n_radial) + 0.5) * dt
        rho = np.zeros(n_radial)
        points = center[None, :] + t[:, None] * direction[None, :]
        for cell, weight in reference_corners(density, points):
            rho += weight * density.samples[cell]
        g = t ** (n - 1) * rho
        if g.sum() * dt <= 0.0:
            continue
        needles.append(one_needle(axes=(t,), g=g, base=center, directions=direction[:, None]))
        raw.append(g.sum() * dt)
    return needles, np.array(raw) / np.sum(raw)


def _with_zeros(density: GridDensity, where) -> GridDensity:
    samples = density.samples.copy()
    samples[where] = 0.0
    return GridDensity(box=density.box, samples=samples)


def _batch_case(name):
    """A density, its disintegration, the one-needle-at-a-time reference and
    the number of leaves tried; every case has massless leaves to skip."""
    if name.startswith("slice"):
        m = int(name[-1])
        d = _with_zeros(_skewed_3d((9, 10, 11)), np.s_[:, 2, :] if m == 1 else np.s_[:, :, 4])
        return d, slice_disintegration(d, m), reference_slices(d, m), math.prod(d.resolution[m:])
    if name == "radial-1d":
        # From -0.5 the ray to the left crosses only empty cells.
        d = tabulate_density([[-1.0, 1.0]], 64, lambda p: np.exp(-p[:, 0] ** 2) * (p[:, 0] > 0.0))
        return d, radial_disintegration(d, [-0.5]), reference_rays(d, [-0.5], 1, 256), 2
    if name == "radial-2d":
        d = _with_zeros(gaussian_2d(res=33), np.s_[:20, :])
        center = [-2.0, 0.3]
        return d, radial_disintegration(d, center, 40, 9), reference_rays(d, center, 40, 9), 40
    # Rays from z = -1.2 that point down never reach the mass above z = 0.
    d = _with_zeros(_skewed_3d(12), np.s_[:, :, :6])
    center = [0.1, 0.2, -1.2]
    return d, radial_disintegration(d, center, 30), reference_rays(d, center, 30, 48), 30


@pytest.mark.parametrize("case", ["slice-m1", "slice-m2", "radial-1d", "radial-2d", "radial-3d"])
def test_batches_match_needles_built_one_at_a_time_bit_for_bit(case):
    d, (batch, weights), (needles, expected_weights), tried = _batch_case(case)
    assert isinstance(batch, NeedleBatch)
    assert 0 < len(batch) == len(needles) < tried
    assert weights.tobytes() == expected_weights.tobytes()
    points, masses = batch.quadrature()
    for k, (got, want) in enumerate(zip(batch, needles)):
        assert [a.tobytes() for a in got.axes] == [a.tobytes() for a in want.axes]
        for name in ("g", "base", "directions"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        want_points, want_masses = row_quadrature(want)
        assert points[k].tobytes() == want_points.tobytes()
        assert masses[k].tobytes() == want_masses.tobytes()
    expected = reference_reassemble(needles, expected_weights, d).tobytes()
    assert reassemble(batch, weights, d).samples.tobytes() == expected


@pytest.mark.parametrize("block", [None, 50])
def test_radial_steps_take_at_most_a_block_of_points(monkeypatch, block):
    # 512 rays of 260 points on 65^2 take five default blocks of 126 rays;
    # with 50-point blocks each 64-point ray of the 3-D case is interpolated
    # in two pieces.
    if block is not None:
        monkeypatch.setattr(vecot.disintegration, "_BLOCK_POINTS", block)
    if block is None:
        d, center, rays, cells = gaussian_2d(res=65), [0.3, -0.2], 512, 260
    else:
        d, center, rays, cells = _skewed_3d(16), [0.1, 0.2, -0.3], 30, 64
    expected, expected_weights = reference_rays(d, center, rays, cells)
    # _interpolate and _stencil take one coordinate array per axis; a
    # block's size is the count of points their broadcast shape stands for.
    sizes = {"_interpolate": [], "_stencil": []}
    for name, seen in sizes.items():
        def spy(grid, coordinates, real=getattr(vecot.disintegration, name), seen=seen):
            seen.append(math.prod(np.broadcast_shapes(*(x.shape for x in coordinates))))
            return real(grid, coordinates)

        monkeypatch.setattr(vecot.disintegration, name, spy)
    batch, weights = radial_disintegration(d, center, rays)
    limit = vecot.disintegration._BLOCK_POINTS
    assert max(sizes["_interpolate"]) <= limit
    assert sum(sizes["_interpolate"]) == rays * cells
    assert weights.tobytes() == expected_weights.tobytes()
    assert batch.g.tobytes() == np.stack([nd.g for nd in expected]).tobytes()
    sizes["_stencil"].clear()
    rebuilt = reassemble(batch, weights, d)
    # A needle larger than a block is a block of its own, and the blocks
    # cover every ray point once.
    assert max(sizes["_stencil"]) <= max(limit, cells)
    assert sum(sizes["_stencil"]) == len(batch) * cells
    assert rebuilt.samples.tobytes() == reference_reassemble(expected, expected_weights, d).tobytes()


@pytest.mark.parametrize("shape", [(40,), (3, 17), (5, 1), (1, 1)], ids=str)
def test_interpolation_adds_the_corners_in_order_bit_for_bit(shape):
    # With one point per row the corner axis is innermost, where a sum over
    # it would add the eight corners pairwise.
    d = _skewed_3d(16)
    points = np.random.default_rng(3).uniform(-3.5, 3.0, shape + (3,))
    expected = np.zeros(shape)
    for cell, weight in reference_corners(d, points):
        expected += weight * d.samples[cell]
    columns = [points[..., a] for a in range(d.dim)]
    assert vecot.disintegration._interpolate(d, columns).tobytes() == expected.tobytes()


def _stencil_grid(resolution) -> GridDensity:
    box = [[-1.0, 2.0], [0.5, 1.25], [-3.0, -2.0]][: len(resolution)]
    return tabulate_density(box, resolution, lambda p: 1.0 + np.exp(p.sum(axis=1)))


STENCIL_GRIDS = [(7,), (1,), (2,), (6, 1), (2, 5), (1, 2), (4, 2, 3), (3, 1, 5), (2, 2, 1)]


@pytest.mark.parametrize("block", [None, 50])
@pytest.mark.parametrize("shape", [(40,), (3, 17), (5, 1)], ids=str)
@pytest.mark.parametrize("resolution", STENCIL_GRIDS, ids=str)
def test_corner_weights_match_the_reference_bit_for_bit(monkeypatch, resolution, shape, block):
    # Points on straight needles that start up to a box width outside the
    # box, on either side, and cross it; axes of one and two cells clamp
    # every point to their edge cells.
    if block is not None:
        monkeypatch.setattr(vecot.disintegration, "_BLOCK_POINTS", block)
    grid = _stencil_grid(resolution)
    rng = np.random.default_rng(len(resolution) + 10 * len(shape))
    count, length = (1,) + shape if len(shape) == 1 else shape
    width = grid.box[:, 1] - grid.box[:, 0]
    base = rng.uniform(grid.box[:, 0] - width, grid.box[:, 1] + width, (count, grid.dim))
    directions = rng.normal(size=(count, grid.dim, 1))
    t = np.linspace(-2.0, 2.0, length) if length > 1 else np.zeros(1)
    needles = NeedleBatch(axes=(t,), g=np.ones((count, length)), base=base, directions=directions)
    points = needles.quadrature()[0].reshape(shape + (grid.dim,))
    outside = (points < grid.box[:, 0]) | (points > grid.box[:, 1])
    assert outside.any() and not outside.all()

    columns = [points[..., a] for a in range(grid.dim)]
    cells, weight = vecot.disintegration._corner_weights(grid, columns)
    assert_corners_match_the_reference(grid, points, cells, weight)
    expected = np.zeros(shape)
    for cell, w in reference_corners(grid, points):
        expected += w * grid.samples[cell]
    assert vecot.disintegration._interpolate(grid, columns).tobytes() == expected.tobytes()
    weights = rng.uniform(0.5, 1.0, count)
    want = reference_reassemble(needles, weights, grid).tobytes()
    assert reassemble(needles, weights, grid).samples.tobytes() == want


def _coordinate_case(name):
    """A batch, reassembly weights, a target grid, and the coordinate shapes
    ``_coordinates`` should give the batch: (K, 1) per needle, (1, P) per
    grid point, or None for a full (K, P) array."""
    if name.startswith("slice"):
        n, m = int(name[-2]), int(name[7])
        d = _skewed_3d((9, 10, 11)) if n == 3 else gaussian_2d(res=21)
        needles, weights = slice_disintegration(d, m)
        # A target none of the slice cells land on, so no weight is 0 or 1.
        box = d.box + [[-0.3, 0.2]] * n
        target = tabulate_density(box, [7, 13, 6][:n], lambda p: np.ones(len(p)))
        K, P = len(needles), math.prod(needles.g.shape[1:])
        return needles, weights, target, [(1, P)] * m + [(K, 1)] * (n - m)
    rng = np.random.default_rng(17)
    t = np.linspace(-1.0, 1.0, 6)
    if name == "per-needle-directions":
        # Fan directions in the (x, y) plane: no needle moves along z.
        angles = rng.uniform(0.0, 2.0 * np.pi, 9)
        directions = np.stack([np.cos(angles), np.sin(angles), np.zeros(9)], axis=1)[:, :, None]
        directions[:3, 1] = 0.0
        base = rng.uniform(-1.0, 1.0, (9, 3))
        needles = NeedleBatch(axes=(t,), g=rng.uniform(0.5, 1.0, (9, 6)), base=base, directions=directions)
        return needles, rng.uniform(0.1, 1.0, 9), _skewed_3d((5, 6, 4)), [None, None, (9, 1)]
    if name == "signed-zero-bases":
        # The box starts at 0 on every axis; bases on the z axis are 0.0 or
        # -0.0, and on the x axis, which the needles move along, all -0.0
        # but one 0.0, which compares equal.
        target = tabulate_density([[0.0, 2.0], [-1.0, 1.0], [0.0, 1.5]], (6, 5, 4), lambda p: 1.0 + p[:, 0])
        base = np.array([[-0.0, 0.3, 0.0], [0.0, -0.2, -0.0], [-0.0, 0.9, -0.0], [-0.0, 0.0, 0.0]])
        needles = NeedleBatch(
            axes=(np.linspace(0.0, 1.9, 8),), g=np.ones((4, 8)), base=base, directions=[[1.0], [0.0], [0.0]]
        )
        return needles, np.full(4, 0.25), target, [(1, 8), (4, 1), (4, 1)]
    if name == "far-outside":
        # 1e12 is far outside the box but below 2^63 cells, which the
        # reference's integer cast needs.  The x bases differ, so the axis
        # the needles move along is full.
        base = np.array([[0.0, 1e6, -3.0], [0.5, -1e12, 0.5], [-1e6, 0.1, 1e6]])
        needles = NeedleBatch(
            axes=(np.linspace(-4.0, 4.0, 7),), g=np.ones((3, 7)), base=base, directions=[[1.0], [0.0], [0.0]]
        )
        return needles, np.ones(3), _skewed_3d((5, 6, 4)), [None, (3, 1), (3, 1)]
    # One-cell axes in the target, and needles of one cell.
    target = tabulate_density([[-1.0, 1.0], [0.0, 1.0], [-2.0, 2.0]], (4, 1, 1), lambda p: np.ones(len(p)))
    sheets = NeedleBatch(
        axes=(np.zeros(1), np.linspace(-1.5, 1.5, 5)),
        g=np.ones((3, 1, 5)),
        base=rng.uniform(-2.0, 2.0, (3, 3)),
        directions=[[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]],
    )
    return sheets, np.ones(3), target, [(3, 1), None, None]


COORDINATE_CASES = ["slice-m1-2d", "slice-m1-3d", "slice-m2-3d", "per-needle-directions"]
COORDINATE_CASES += ["signed-zero-bases", "far-outside", "one-cell"]


@pytest.mark.parametrize("case", COORDINATE_CASES)
def test_per_axis_coordinates_match_the_reference_bit_for_bit(monkeypatch, case):
    # Per-axis coordinates sized by what varies give the corners and the
    # reassembly of the full (K, P, n) points, whose zeros may carry
    # another sign.  The points come from one matmul, not from quadrature,
    # which stacks these coordinates.
    needles, weights, target, shapes = _coordinate_case(case)
    coordinates = vecot.disintegration._coordinates(needles.base, needles.axes, needles.directions)
    K, P = len(needles), math.prod(needles.g.shape[1:])
    assert [x.shape for x in coordinates] == [s or (K, P) for s in shapes]
    cells, weight = vecot.disintegration._corner_weights(target, coordinates)
    grid = vecot.disintegration._product_grid(needles.axes)
    points = needles.base[:, None, :] + grid @ np.swapaxes(needles.directions, -1, -2)
    # Equal as numbers: only the sign of a zero may differ.
    assert np.array_equal(needles.quadrature()[0], points)
    assert_corners_match_the_reference(target, points, cells, weight)
    expected = reference_reassemble(needles, weights, target).tobytes()
    assert reassemble(needles, weights, target).samples.tobytes() == expected
    monkeypatch.setattr(vecot.disintegration, "_BLOCK_POINTS", 5)
    assert reassemble(needles, weights, target).samples.tobytes() == expected


def _library_offsets(grid: GridDensity, a: int, x: np.ndarray) -> np.ndarray:
    """q on axis a, rounded as the stencil rounds it, before any center rule."""
    q = x - grid.box[a, 0]
    q /= grid.steps[a]
    q -= 0.5
    return q


@pytest.mark.parametrize("resolution", [(7,), (1,), (6, 1), (2, 5), (4, 2, 3), (3, 1, 5)], ids=str)
def test_points_on_centers_interpolate_to_their_samples_bit_for_bit(resolution):
    # Every combination of first, last and a middle center on each axis,
    # alone (no axis moves: one corner) and in a block with points off
    # every center (every axis of more than one cell moves).
    grid = _stencil_grid(resolution)
    picks = [sorted({0, k // 2, k - 1}) for k in resolution]
    index = np.array(list(itertools.product(*picks)))
    points = np.stack([grid.centers(a)[index[:, a]] for a in range(grid.dim)], axis=-1)
    expected = grid.samples[tuple(index.T)]
    columns = [points[:, a] for a in range(grid.dim)]
    cells, weight = vecot.disintegration._corner_weights(grid, columns)
    assert cells.shape == (1, len(points)) and np.all(weight == 1.0)
    assert cells[0].tobytes() == np.ravel_multi_index(tuple(index.T), resolution).astype(np.intp).tobytes()
    assert vecot.disintegration._interpolate(grid, columns).tobytes() == expected.tobytes()
    off = np.random.default_rng(5).uniform(grid.box[:, 0], grid.box[:, 1], (50, grid.dim))
    mixed = np.concatenate([off, points])
    columns = [mixed[:, a] for a in range(grid.dim)]
    cells, weight = vecot.disintegration._corner_weights(grid, columns)
    assert_corners_match_the_reference(grid, mixed, cells, weight)
    values = vecot.disintegration._interpolate(grid, columns)
    assert values[50:].tobytes() == expected.tobytes()


def test_points_one_ulp_off_a_center_keep_the_two_corner_split_bit_for_bit():
    # One ulp either side of each center: the offsets are those of the
    # stencil without the center rule (the reference's off-center path),
    # and those strictly inside a cell still weigh both of its corners.
    grid = _stencil_grid((7, 6))
    centers = [grid.centers(a) for a in range(2)]
    ulp_off = [np.nextafter(c, side) for c in centers for side in (-np.inf, np.inf)]
    points = np.concatenate(
        [np.stack([x, np.full(7, 0.8)], axis=-1) for x in ulp_off[:2]]
        + [np.stack([np.full(6, -0.1), x], axis=-1) for x in ulp_off[2:]]
    )
    for a in range(2):
        assert not np.isin(points[:, a], centers[a]).any()
    columns = [points[:, a] for a in range(2)]
    cells, weight = vecot.disintegration._corner_weights(grid, columns)
    assert_corners_match_the_reference(grid, points, cells, weight)
    for (_, w), x, a in zip(reference_stencil(grid, points), columns, range(2)):
        q = _library_offsets(grid, a, x)
        lo = np.clip(np.floor(q), 0, grid.resolution[a] - 2)
        assert w[1].tobytes() == np.clip(q - lo, 0.0, 1.0).tobytes()
    split = (0.0 < weight) & (weight < 1.0)
    assert np.count_nonzero(split.all(axis=0)) > len(points) // 2


@pytest.mark.parametrize("side", ["below", "above"])
def test_one_center_in_a_full_block_is_found_bit_for_bit(side):
    # 2^15 points off every center, inside and outside the box, and one
    # on a center whose q rounds to a sliver on the given side of its
    # index: the gate that spares ray points the center test misses none.
    grid = tabulate_density([[-2.5, 2.0], [0.5, 1.25]], (11, 6), lambda p: 1.0 + np.exp(p.sum(axis=1)))
    rng = np.random.default_rng(8)
    width = grid.box[:, 1] - grid.box[:, 0]
    points = rng.uniform(grid.box[:, 0] - 0.2 * width, grid.box[:, 1] + 0.2 * width, (1 << 15, 2))
    q = _library_offsets(grid, 0, grid.centers(0))
    index = np.arange(11)
    j = index[(q < index if side == "below" else q > index) & (0 < index) & (index < 10)][0]
    k = 3
    points[12345] = grid.centers(0)[j], grid.centers(1)[k]
    columns = [points[:, a] for a in range(2)]
    cells, weight = vecot.disintegration._corner_weights(grid, columns)
    assert cells.shape == (4, 1 << 15)
    on = weight[:, 12345] == 1.0
    assert np.count_nonzero(on) == 1 and np.all(weight[~on, 12345] == 0.0)
    assert cells[on, 12345] == np.ravel_multi_index((j, k), grid.resolution)
    assert_corners_match_the_reference(grid, points, cells, weight)
    value = vecot.disintegration._interpolate(grid, columns)[12345]
    assert value == grid.samples[j, k]


@pytest.mark.parametrize(
    "box", [[-4.0, 4.0], [0.1, 0.7], [1e6, 1e6 + 3.0], [-3e-9, 5e-9], [0.0, 1e-300], [0.0, 1e-310]], ids=str
)
def test_million_cell_centers_lie_within_the_sliver_bound_bit_for_bit(box):
    # All 2^20 centers of an axis: q rounds within the stated bound of the
    # center's index, and each sits on its own cell, whether the block
    # holds every center or all but the last.
    k = 1 << 20
    grid = GridDensity(box=[box], samples=np.ones(k))
    centers = grid.centers(0)
    slivers = np.abs(_library_offsets(grid, 0, centers) - np.arange(k))
    bound = vecot.disintegration._sliver_bound(grid, 0)
    assert slivers.max() <= bound < 0.5
    for block in (centers, centers[:-1]):
        base, weights = vecot.disintegration._stencil(grid, [block])
        assert weights == [None]
        assert base.tobytes() == np.arange(len(block), dtype=np.intp).tobytes()


@pytest.mark.parametrize("case", ["2d-m1", "3d-m1", "3d-m2"])
def test_slices_reassemble_on_their_own_grid_to_rounding(case):
    d = gaussian_2d(res=33) if case.startswith("2d") else _skewed_3d((17, 18, 19))
    needles, weights = slice_disintegration(d, int(case[-1]))
    assert l1_distance(reassemble(needles, weights, d), d) <= 1e-15


def test_far_away_needles_land_on_the_edge_cells():
    # 1e300 is beyond 2^63 cells from the box; it clamps to the last row of
    # cells as 1e6 does, and no cast overflows (warnings are errors here).
    d = gaussian_2d(res=17)
    t = d.centers(1)
    grids = []
    for x in (1e6, 1e300):
        needle = NeedleBatch(axes=(t,), g=d.samples[:1], base=[[x, 0.0]], directions=[[0.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grids.append(reassemble(needle, [1.0], d).samples)
    assert grids[0].tobytes() == grids[1].tobytes()
    assert np.all(grids[0][:-1] == 0.0) and np.all(grids[0][-1] > 0.0)


def test_reassemble_validates_weights_and_geometry():
    d = gaussian_2d(res=17)
    needles, weights = slice_disintegration(d, 1)
    for shaped in (weights[:-1], weights[:, None], weights[0], np.tile(weights, 2)):
        with pytest.raises(GeometryMismatch, match="one weight per needle"):
            reassemble(needles, shaped, d)
    for bad in (math.nan, -1e-3, math.inf, -math.inf):
        corrupt = weights.copy()
        corrupt[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="finite and nonnegative"):
                reassemble(needles, corrupt, d)
    line = tabulate_density([[0.0, 1.0]], 8, lambda p: np.ones(len(p)))
    with pytest.raises(GeometryMismatch):
        reassemble(needles, weights, line)


def test_reassemble_checks_every_needle_before_depositing():
    needles, weights, target = _off_grid_needles("lines")
    flat = NeedleBatch(axes=needles.axes, g=needles.g, base=needles.base[:, :2], directions=np.eye(2)[:, :1])
    with pytest.raises(GeometryMismatch):
        reassemble(flat, weights, target)
    with pytest.raises(NonpositiveDensity, match="positive total mass"):
        reassemble(needles[:0], [], target)


def test_l1_distance_requires_matching_grids():
    a = gaussian_2d(res=17)
    b = gaussian_2d(res=19)
    with pytest.raises(GeometryMismatch):
        l1_distance(a, b)
    # Equal cell counts on boxes that differ by an eighth of a tiny width,
    # or by 3e-5 of one bound, which an absolute tolerance of 1e-8 let pass.
    def gaussian(box):
        return tabulate_density(box, 33, lambda p: np.exp(-0.5 * (p ** 2).sum(axis=1)))

    for lo, hi in (([[-4e-9, 4e-9], [-4.0, 4.0]], [[-3e-9, 5e-9], [-4.0, 4.0]]),
                   ([[-4.00003, 4.0], [-4.0, 4.0]], [[-4.0, 4.0], [-4.0, 4.0]])):
        with pytest.raises(GeometryMismatch, match="different grids"):
            l1_distance(gaussian(lo), gaussian(hi))


def test_l1_distance_scales_both_densities_to_unit_mass():
    d = gaussian_2d(res=17)
    doubled = GridDensity(box=d.box, samples=2.0 * d.samples)
    assert l1_distance(d, doubled) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "box, samples",
    [([[0.0, 1e-310]], [1.0, 1.0]), ([[0.0, 1e-160], [0.0, 1e-160]], [[1.0, 1.0], [1.0, 1.0]])],
    ids=["subnormal-line", "subnormal-square"],
)
def test_l1_distance_refuses_unit_masses_past_the_float_range(box, samples):
    # Cells of subnormal volume: a unit-mass sample is 1 / (N * volume) = inf.
    d = GridDensity(box=box, samples=samples)
    with pytest.raises(GeometryMismatch, match="leave the float range"):
        l1_distance(d, d)


# ---------------------------------------------------------------------------
# Curvature-dimension checks
# ---------------------------------------------------------------------------


def line_needle(t, g, n: int = 1) -> NeedleBatch:
    """A one-row batch: density g on the grid t along the first axis of R^n."""
    return NeedleBatch(axes=(t,), g=np.asarray(g)[None], base=np.zeros((1, n)), directions=np.eye(n)[:, :1])


def gaussian_needle(res: int = 256) -> NeedleBatch:
    t = np.linspace(-4.0, 4.0, res + 1)[:-1]
    t = t + 0.5 * (t[1] - t[0])
    return line_needle(t, np.exp(-0.5 * t ** 2))


def uniform_needle(res: int = 128) -> NeedleBatch:
    return line_needle((np.arange(res) + 0.5) / res, np.ones(res))


def test_gaussian_needle_cd_threshold():
    needle = gaussian_needle()
    assert cd_check_1d(needle, 1.0, np.inf)[0].passed
    assert not cd_check_1d(needle, 1.01, np.inf)[0].passed


def test_cd_reports_carry_the_parameters():
    reports = cd_check_1d(gaussian_needle(), 1.0, np.inf)
    assert len(reports) == 1 and isinstance(reports[0], CdReport)
    # A row, which has no needle axis, gives its report on its own.
    (row,) = gaussian_needle()
    assert cd_check_1d(row, 1.0, np.inf) == reports[0]
    report = reports[0]
    assert report.kappa == 1.0
    assert np.isinf(report.N)
    assert report.worst_violation == pytest.approx(0.0, abs=report.tol)


def test_r_squared_needle_saturates_cd_0_3():
    # g = r^2: rho = -2 log r gives rho'' - rho'^2/2 = 0 exactly.  The
    # stencil error grows like h^2/(3 t^4), so the check is meaningful only
    # away from the r = 0 margin; on [1/2, 1] the worst violation stays
    # within the 10 h^2 truncation budget.
    h = 0.01
    t = 0.5 + (np.arange(50) + 0.5) * h
    needle = line_needle(t, t ** 2, n=3)
    [report] = cd_check_1d(needle, 0.0, 3.0)
    assert report.passed
    assert abs(report.worst_violation) <= 10.0 * h * h
    # Lowering the dimension parameter makes the same needle fail.
    assert not cd_check_1d(needle, 0.0, 2.5)[0].passed


def test_uniform_needle_cd_verdicts():
    needle = uniform_needle()
    assert cd_check_1d(needle, 0.0, np.inf)[0].passed
    assert not cd_check_1d(needle, 0.1, np.inf)[0].passed
    # N = 1 demands a flat density, which the uniform needle satisfies.
    assert cd_check_1d(needle, 0.0, 1.0)[0].passed
    assert not cd_check_1d(needle, 0.1, 1.0)[0].passed
    # The Gaussian is not flat, so CD(kappa, 1) always fails.
    assert not cd_check_1d(gaussian_needle(), -10.0, 1.0)[0].passed


def test_cd_with_finite_n_is_stricter_than_infinite():
    needle = gaussian_needle()
    [inf_report] = cd_check_1d(needle, 0.5, np.inf)
    [finite_report] = cd_check_1d(needle, 0.5, 5.0)
    assert finite_report.worst_violation <= inf_report.worst_violation + 1e-12


def test_cd_trims_end_zeros_and_rejects_interior_zeros():
    t = (np.arange(64) + 0.5) / 64.0
    g = np.ones(64)
    g[:5] = 0.0
    g[-3:] = 0.0
    assert cd_check_1d(line_needle(t, g), 0.0, np.inf)[0].passed
    hole = np.ones(64)
    hole[30] = 0.0
    with pytest.raises(NonpositiveDensity):
        cd_check_1d(line_needle(t, hole), 0.0, np.inf)


def test_cd_needs_five_positive_cells():
    t = (np.arange(4) + 0.5) / 4.0
    with pytest.raises(TooFewPoints):
        cd_check_1d(line_needle(t, np.ones(4)), 0.0, np.inf)


def test_cd_default_tolerance_tracks_the_grid():
    [fine] = cd_check_1d(gaussian_needle(512), 1.0, np.inf)
    [coarse] = cd_check_1d(gaussian_needle(64), 1.0, np.inf)
    assert fine.tol < coarse.tol
    assert fine.passed and coarse.passed


def test_cd_is_invariant_under_density_scaling():
    t = (np.arange(128) + 0.5) / 128.0
    g = np.exp(-3.0 * t)
    # A power-of-two constant rescales every sample exactly, so the reports
    # agree bit for bit; a general constant agrees to log-rounding noise
    # amplified by 1/h^2.
    [ra] = cd_check_1d(line_needle(t, g), 0.0, np.inf)
    [rb] = cd_check_1d(line_needle(t, 64.0 * g), 0.0, np.inf)
    [rc] = cd_check_1d(line_needle(t, 42.0 * g), 0.0, np.inf)
    assert ra.worst_violation == rb.worst_violation
    assert ra.worst_violation == pytest.approx(rc.worst_violation, abs=1e-9)
    assert ra.passed == rb.passed == rc.passed


def _cd_batch(case) -> NeedleBatch:
    t = (np.arange(40) + 0.5) / 40.0
    rows = np.exp(-np.outer([1.0, 2.0, 3.0], (t - 0.4) ** 2))
    if case == "shared-grid":
        d = tabulate_density(
            [[-3.0, 3.0], [-3.0, 3.0]],
            65,
            lambda p: np.exp(-0.5 * (p ** 2).sum(axis=1) - 0.3 * p[:, 0] * p[:, 1]),
        )
        return slice_disintegration(d, 1)[0]
    if case == "per-needle-grids":
        return radial_disintegration(gaussian_2d(res=33), [0.3, -0.2], 24)[0]
    if case == "same-end-zeros":
        rows[:, :3] = 0.0
        rows[:, -2:] = 0.0
    else:
        rows[0, :3] = 0.0
        rows[2, -5:] = 0.0
    return NeedleBatch(axes=(t,), g=rows, base=np.zeros((3, 1)), directions=np.eye(1))


CD_PARAMETERS = [(0.0, math.inf, None), (0.5, 5.0, None), (0.0, 1.0, None), (-1.0, 3.0, 1e-3)]
CD_BATCHES = ["shared-grid", "per-needle-grids", "same-end-zeros", "different-end-zeros"]


@pytest.mark.parametrize("kappa, N, tol", CD_PARAMETERS)
@pytest.mark.parametrize("case", CD_BATCHES)
def test_cd_on_a_batch_equals_one_needle_at_a_time(case, kappa, N, tol):
    batch = _cd_batch(case)

    def exact(r):
        return r.kappa, r.N, r.worst_violation.hex(), r.passed, r.tol.hex()

    reports = cd_check_1d(batch, kappa, N, tol)
    assert [exact(r) for r in reports] == [exact(cd_check_1d(nd, kappa, N, tol)) for nd in batch]


def reference_cd_check_1d(needle, kappa: float, N: float, tol: float | None = None):
    """cd_check_1d as it was when one needle and a batch were two types.

    Frozen but for two reads: it tells one needle from a batch by the
    density's shape rather than by type, and reads the grid from ``axes``
    (a 2-D needle's ``t`` raised the same error as the leaf check).  A
    batch whose needles trim to different cells is checked one needle at
    a time; one needle is checked on 1-D arrays with a float step.
    """
    kappa, N = float(kappa), float(N)
    if not math.isfinite(kappa) or not N >= 1.0:
        raise InvalidParameter(f"CD(kappa, N) needs a finite kappa and N >= 1, got ({kappa}, {N})")
    if tol is not None:
        tol = float(tol)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise InvalidParameter(f"the CD tolerance must be finite and nonnegative, got {tol}")
    batch = needle.g.ndim > needle.leaf_dim
    if needle.leaf_dim != 1:
        raise GeometryMismatch("parameter grid t is defined for 1-d needles only")
    t, g = needle.axes[0], needle.g
    if g.size and g.min() <= 0.0:
        positive = g > 0.0
        first = positive.argmax(axis=-1)
        last = g.shape[-1] - 1 - positive[..., ::-1].argmax(axis=-1)
        if np.ptp(first) or np.ptp(last):
            return [reference_cd_check_1d(nd, kappa, N, tol) for nd in needle]
        g = g[..., first.min() : last.min() + 1]
        if g.min() <= 0.0:
            raise NonpositiveDensity("needle density vanishes in its interior")
    if g.shape[-1] < 5:
        raise TooFewPoints(f"need at least 5 positive cells, got {g.shape[-1]}")
    if batch:
        h = t[..., 1] - t[..., 0]
        hc = h[..., None]
    else:
        h = hc = float(t[1]) - float(t[0])
    tols = 10.0 * h * h if tol is None else tol
    rho = -np.log(g)
    d2 = (rho[..., 2:] - 2.0 * rho[..., 1:-1] + rho[..., :-2]) / (hc * hc)
    if math.isinf(N):
        worst = (d2 - kappa).min(axis=-1)
    else:
        d1 = (rho[..., 2:] - rho[..., :-2]) / (2.0 * hc)
        if N == 1.0:
            flat = np.maximum(np.abs(d1).max(axis=-1), np.abs(d2).max(axis=-1))
            worst = np.where(flat <= np.sqrt(tols), -kappa, -np.inf)
        else:
            worst = (d2 - d1 * d1 / (N - 1.0) - kappa).min(axis=-1)

    def report(w, s):
        return CdReport(kappa, N, worst_violation=float(w), passed=bool(w >= -s), tol=float(s))

    if not batch:
        return report(worst, tols)
    return [report(w, s) for w, s in zip(*np.broadcast_arrays(worst, tols))]


def _faulty_lines(case) -> NeedleBatch:
    """Three or four needles on one grid with holes or too few positive cells."""
    t = (np.arange(40) + 0.5) / 40.0
    rows = np.exp(-np.outer([1.0, 2.0, 3.0, 0.5], (t - 0.4) ** 2))
    if case == "hole":
        rows[1, 20] = 0.0
    elif case == "hole-among-ragged-ends":
        rows[0, :3] = 0.0
        rows[2, 17] = 0.0
        rows[3, -4:] = 0.0
    elif case == "few-ragged":
        # Needle 1 keeps 4 cells and needle 2 keeps 3: needle 1's count is reported.
        rows[0, :2] = 0.0
        rows[1, 4:] = 0.0
        rows[2, 3:] = 0.0
    elif case == "few-before-a-hole":
        rows[1, 4:] = 0.0
        rows[3, :10] = 0.0
        rows[3, 20] = 0.0
    else:
        # Every needle keeps the same 4 cells, and needle 2 has a hole among them.
        rows[:, 4:] = 0.0
        rows[2, 2] = 0.0
    return NeedleBatch(axes=(t,), g=rows, base=np.zeros((4, 1)), directions=np.eye(1))


def _extreme_lines(case) -> NeedleBatch:
    """Needles whose densities or steps stress the rounding of the stencils."""
    t = (np.arange(40) + 0.5) / 40.0
    if case == "flat":
        # Every stencil is exactly 0: CD(0, .) reports 0.0, not -0.0.
        rows = np.ones((3, 40))
        rows[1, :2] = 0.0
    elif case == "tiny-densities":
        # From 1e-300 to 1: log-linear, Gaussian and a step in between.
        rows = np.stack([
            np.logspace(-300.0, 0.0, 40),
            np.exp(-690.0 * (2.0 * t - 1.0) ** 2),
            np.where(t < 0.5, 1e-300, 1.0),
        ])
    elif case == "subnormal":
        # Cells of about 1e-310 and 5e-324 that stay subnormal after
        # normalization, at the ends and inside.
        rows = np.ones((3, 40))
        rows[0, 0], rows[0, -1] = 5e-324, 1e-310
        rows[1, 18:21] = [1e-310, 2e-315, 1e-310]
        rows[2, 1:] = np.logspace(-300.0, -320.0, 39)
    else:
        # Per-needle grids with steps of 1e-3, 1 and 1e3, each 1e3 times the last.
        steps = np.array([[1e-3], [1.0], [1e3]])
        grid = -2.0 * steps + np.arange(40) * steps
        rows = np.exp(-0.5 * (grid / (10.0 * steps)) ** 2) * [[1.0], [1e-200], [3.0]]
        return NeedleBatch(axes=(grid,), g=rows, base=np.zeros((3, 1)), directions=np.eye(1))
    return NeedleBatch(axes=(t,), g=rows, base=np.zeros((len(rows), 1)), directions=np.eye(1))


EXTREME_LINES = ["flat", "tiny-densities", "subnormal", "steps-1e3-apart"]
CD_REFERENCE_CASES = {
    "slice-rows": None,
    "radial-rows": None,
    **{case: None for case in CD_BATCHES},
    **{case: None for case in EXTREME_LINES},
    "hole": NonpositiveDensity,
    "hole-among-ragged-ends": NonpositiveDensity,
    "few-ragged": TooFewPoints,
    "few-before-a-hole": TooFewPoints,
    "few-same-ends-with-a-hole": NonpositiveDensity,
    "short-grid": TooFewPoints,
    "sheets": GeometryMismatch,
}


def _cd_reference_inputs(case) -> list:
    """The batches or rows a reference case checks."""
    if case == "slice-rows":
        return list(_cd_batch("shared-grid"))[::7]
    if case == "radial-rows":
        return list(_cd_batch("per-needle-grids"))
    if case in CD_BATCHES:
        return [_cd_batch(case)]
    if case in EXTREME_LINES:
        batch = _extreme_lines(case)
        return [batch, *batch]
    if case == "short-grid":
        t = (np.arange(4) + 0.5) / 4.0
        return [line_needle(t, np.ones(4)), next(iter(line_needle(t, np.ones(4))))]
    if case == "sheets":
        sheets, _ = slice_disintegration(_skewed_3d(9), 2)
        return [sheets, next(iter(sheets))]
    return [_faulty_lines(case)]


@pytest.mark.parametrize("kappa, N, tol", CD_PARAMETERS + [(0.0, math.inf, 0.0), (0.5, 2.0, 0.0)])
@pytest.mark.parametrize("case", list(CD_REFERENCE_CASES))
def test_cd_check_matches_the_reference_bit_for_bit(case, kappa, N, tol):
    def outcome(check, needles):
        try:
            reports = check(needles, kappa, N, tol)
        except VecotError as error:
            return type(error), str(error)

        def exact(r):
            return r.kappa.hex(), r.N.hex(), r.worst_violation.hex(), r.passed, r.tol.hex()

        return exact(reports) if isinstance(reports, CdReport) else [exact(r) for r in reports]

    fault = CD_REFERENCE_CASES[case]
    for needles in _cd_reference_inputs(case):
        got = outcome(cd_check_1d, needles)
        assert got == outcome(reference_cd_check_1d, needles)
        assert got[0] is fault if fault else isinstance(got, (tuple, list)) and got
    if case == "few-ragged":
        assert got[1] == "need at least 5 positive cells, got 4"


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf])
def test_cd_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(InvalidParameter, match="tolerance"):
        cd_check_1d(gaussian_needle(), 0.0, math.inf, tol)
    with pytest.raises(InvalidParameter, match="tolerance"):
        cd_check_1d(_cd_batch("shared-grid"), 0.0, math.inf, tol)
    assert cd_check_1d(gaussian_needle(), 0.0, math.inf, 0.0)[0].tol == 0.0


def test_cd_on_a_batch_without_needles_reports_nothing():
    # Mass on the y-axis only, seen from the origin along the four diagonals:
    # no ray carries mass, and the disintegration says why.
    samples = np.zeros((33, 33))
    samples[16, 32] = 1.0
    d = GridDensity(box=[[-4.0, 4.0], [-4.0, 4.0]], samples=samples)
    with pytest.raises(NonpositiveDensity, match="the density vanishes on every sampled ray"):
        radial_disintegration(d, [0.0, 0.0], 4)
    rays, weights = radial_disintegration(GridDensity(d.box, np.ones((33, 33))), [0.0, 0.0], 4)
    rays, weights = rays[:0], weights[:0]
    assert len(rays) == 0 and len(weights) == 0
    assert cd_check_1d(rays, 0.0, math.inf) == []
    with pytest.raises(NonpositiveDensity, match="positive total mass"):
        reassemble(rays, weights, d)


def test_cd_on_a_batch_rejects_what_one_needle_rejects():
    t = (np.arange(40) + 0.5) / 40.0

    def lines(rows):
        return NeedleBatch(axes=(t,), g=rows, base=np.zeros((3, 1)), directions=np.eye(1))

    hole, short = np.ones((3, 40)), np.ones((3, 40))
    hole[1, 20] = 0.0
    short[:, 4:] = 0.0
    with pytest.raises(NonpositiveDensity):
        cd_check_1d(lines(hole), 0.0, math.inf)
    with pytest.raises(TooFewPoints):
        cd_check_1d(lines(short), 0.0, math.inf)
    sheets, _ = slice_disintegration(_skewed_3d(9), 2)
    with pytest.raises(GeometryMismatch):
        cd_check_1d(sheets, 0.0, math.inf)


@pytest.mark.parametrize(
    "kappa, N",
    [(0.0, 0.5), (0.0, -3.0), (0.0, math.nan), (math.nan, math.inf), (math.inf, 3.0),
     (-math.inf, 3.0)],
)
def test_cd_rejects_meaningless_parameters(kappa, N):
    # CD(kappa, N) on a needle needs N >= 1 and a finite kappa.
    with pytest.raises(InvalidParameter):
        cd_check_1d(gaussian_needle(), kappa, N)
    with pytest.raises(InvalidParameter):
        cd_check_1d(_cd_batch("shared-grid"), kappa, N)


def test_log_concave_slices_pass_cd_0_inf():
    # Conditionals of a log-concave density are log-concave, so every
    # slice needle satisfies CD(0, inf).
    d = tabulate_density(
        [[-3.0, 3.0], [-3.0, 3.0]],
        65,
        lambda p: np.exp(-0.5 * (p ** 2).sum(axis=1) - 0.3 * p[:, 0] * p[:, 1]),
    )
    needles, _ = slice_disintegration(d, 1)
    for needle in needles[::8]:
        assert cd_check_1d(needle, 0.0, np.inf).passed


def test_radial_needle_of_flat_density_in_3d_passes_cd_0_3():
    # Flat density in a box: every ray conditional is exactly r^2 up to its
    # exit radius.  Restricting to the outer half keeps the check away from
    # the r = 0 margin where the stencil error diverges.
    d = tabulate_density([[-1.0, 1.0]] * 3, 33, lambda p: np.ones(len(p)))
    needles, _ = radial_disintegration(d, [0.0, 0.0, 0.0], n_directions=8)
    for needle in needles[:3]:
        (t,) = needle.axes
        keep = t >= 0.5 * t[-1]
        outer = NeedleBatch(
            axes=(t[keep],),
            g=needle.g[None, keep],
            base=needle.base[None],
            directions=needle.directions,
        )
        h = float(t[1] - t[0])
        [report] = cd_check_1d(outer, 0.0, 3.0)
        assert report.passed
        assert abs(report.worst_violation) <= 10.0 * h * h
        assert not cd_check_1d(outer, 0.0, 2.5)[0].passed

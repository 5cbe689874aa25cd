"""Grid densities, their disintegration into needles, and CD(kappa, N) checks.

Two potentials have closed-form leaf structure: the orthogonal projection
onto the first m coordinates, whose leaves are axis-aligned m-dimensional
slices, and the distance from a center point, whose leaves are rays.  For
densities tabulated on a regular grid we split the density into conditional
densities on those leaves (needles), with mixture weights, and check that
the weighted mixture reassembles the original.  Ray conditionals pick up
the Jacobian factor r^(n-1).

NeedleBatch is the one needle type.  A disintegration returns its needles
as one batch: the leaf grids, every conditional density in one array,
checked and normalized once, and the embedding of each leaf.  Reassembly
and CD checks take a batch; iterating a batch gives row views, its arrays
without the needle axis, which exist for iteration and which a CD check
takes as one needle.  One per-axis builder places every needle point, an
array per ambient axis sized by what varies: quadrature stacks them, equal
to ``base + grid @ directions.T`` bit for bit up to the sign of a zero (a
-0.0 base coordinate is the only case where they differ), and ray sampling
and reassembly weigh their multilinear corners in blocks of at most
``_BLOCK_POINTS`` points, bit-identical to one needle at a time.  A point
on a cell center of the grid sits on that cell alone, and a block builds
only the corners of the axes its points move along.

A 1-D needle with density g = e^(-rho) satisfies the curvature-dimension
condition CD(kappa, N) when rho'' - (rho')^2/(N-1) >= kappa on its
interior; cd_check_1d evaluates that with central differences of log g
and subtracts kappa once per needle, from its least stencil value.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameter, VecotError, _check_count, _check_tolerance

__all__ = [
    "EmptySlice",
    "CenterOutsideBox",
    "GeometryMismatch",
    "NonpositiveDensity",
    "TooFewPoints",
    "GridDensity",
    "NeedleBatch",
    "CdReport",
    "tabulate_density",
    "slice_disintegration",
    "radial_disintegration",
    "reassemble",
    "l1_distance",
    "cd_check_1d",
]


class EmptySlice(VecotError):
    """A massless needle in a ``NeedleBatch``; decompositions drop massless slices instead."""


class CenterOutsideBox(VecotError):
    """The radial center must lie strictly inside the grid box."""


class GeometryMismatch(VecotError):
    """Needles and target grid disagree on the ambient space."""


class NonpositiveDensity(VecotError):
    """A needle density vanishes in its interior; -log g is undefined there."""


class TooFewPoints(VecotError):
    """Finite differences need at least five grid points."""


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density sampled at the cell centers of a regular grid.

    The cell volume and the total mass must be positive and finite.
    """

    box: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        box = _box(self.box)
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != box.shape[0]:
            raise GeometryMismatch(
                f"samples have {samples.ndim} axes but the box has {box.shape[0]}"
            )
        if not np.all(np.isfinite(samples)) or np.any(samples < 0):
            raise NonpositiveDensity("density samples must be finite and nonnegative")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "samples", samples)
        with np.errstate(over="ignore"):
            if samples.sum() == 0.0:
                raise NonpositiveDensity("density must carry positive total mass")
            volume = self.cell_volume
            if not 0.0 < volume < math.inf:
                raise GeometryMismatch(f"the cell volume {volume} is not positive and finite")
            mass = self.total_mass
        if not 0.0 < mass < math.inf:
            raise NonpositiveDensity(f"the total mass {mass} is not positive and finite")

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def resolution(self) -> tuple[int, ...]:
        return self.samples.shape

    @functools.cached_property
    def steps(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / np.array(self.resolution)

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(_step_product(self.steps))

    def centers(self, axis: int) -> np.ndarray:
        return _cell_centers(*self.box[axis], self.resolution[axis])

    @functools.cached_property
    def total_mass(self) -> float:
        return float(self.samples.sum() * self.cell_volume)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell centers and the mass each cell carries."""
        points = _product_grid([self.centers(a) for a in range(self.dim)])
        return points, self.samples.ravel() * self.cell_volume


def _box(box) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.size == 0 or box.size % 2:
        raise GeometryMismatch(f"the box needs a lo and a hi per axis, got {box.size} bounds")
    box = box.reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        width = box[:, 1] - box[:, 0]
    # A bound that is not finite makes the width inf or nan, as an overflow does.
    if not np.all(np.isfinite(width)):
        raise GeometryMismatch(f"box bounds and widths must be finite, got {box.tolist()}")
    if np.any(width <= 0.0):
        raise GeometryMismatch("box bounds must satisfy lo < hi")
    return box


def _cell_centers(lo: float, hi: float, k: int, cells=None) -> np.ndarray:
    """Centers of the given cells of an axis, all k of them by default."""
    cells = np.arange(k) if cells is None else cells
    return lo + (cells + 0.5) * (hi - lo) / k


def _product_grid(axes) -> np.ndarray:
    """Points of the product of 1-D grids, one per row, last axis fastest.

    Grids given per needle, shape (K, L), give points per needle, (K, P, k).
    """
    k = len(axes)
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in axes))
    shape = lead + tuple(a.shape[-1] for a in axes)
    columns = [
        np.broadcast_to(a.reshape(a.shape[:-1] + (1,) * j + (-1,) + (1,) * (k - 1 - j)), shape)
        for j, a in enumerate(axes)
    ]
    return np.stack(columns, axis=-1).reshape(lead + (-1, k))


def tabulate_density(box, resolution, fn) -> GridDensity:
    """Evaluate a density function at the cell centers of a regular grid."""
    box = _box(box)
    # object entries keep their types: a numeric array would make [5, True] ints
    resolution = tuple(np.atleast_1d(np.asarray(resolution, dtype=object)).tolist())
    for count in resolution:
        _check_count(count, "a cell count")
    if len(resolution) == 1:
        resolution = resolution * box.shape[0]
    if len(resolution) != box.shape[0]:
        raise GeometryMismatch(f"{len(resolution)} cell counts for {box.shape[0]} axes")
    if min(resolution) < 1:
        raise InvalidParameter(f"need at least one cell per axis, got {list(resolution)}")
    points = _product_grid([_cell_centers(*b, k) for b, k in zip(box, resolution)])
    samples = np.asarray(fn(points), dtype=float)
    if samples.size != len(points):
        raise GeometryMismatch(f"the density gave {samples.size} values for {len(points)} cell centers")
    samples = samples.reshape(resolution)
    return GridDensity(box=box, samples=samples)


@dataclass(frozen=True, eq=False)
class NeedleBatch:
    """K needles whose leaf grids have one shape, held as arrays.

    ``axes`` hold the leaf grids, each shared by all needles, shape (L,), or
    given per needle, shape (K, L); ``g`` has shape (K, *grid shape); needle
    k embeds p as ``base[k] + directions @ p``, with ``directions`` shared,
    shape (n, leaf_dim), or per needle, shape (K, n, leaf_dim).  The
    densities are checked and normalized to unit quadrature mass once for
    the whole batch; a massless needle raises EmptySlice.

    A batch is a sequence of K needles: ``len`` counts them and a slice
    gives a batch.  Iteration gives one row view per needle, a batch
    holding that needle's arrays without the needle axis, not checked
    again; rows exist for iteration, and only ``cd_check_1d`` takes one.
    A row's ``len`` and slices would count and cut cells, so they raise
    GeometryMismatch.
    """

    axes: tuple[np.ndarray, ...]
    g: np.ndarray
    base: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        g = np.asarray(self.g, dtype=float)
        base = np.asarray(self.base, dtype=float)
        directions = np.asarray(self.directions, dtype=float)
        count, k = len(g), len(axes)
        if (
            any(a.ndim == 0 or a.shape[:-1] not in ((), (count,)) for a in axes)
            or g.shape[1:] != tuple(a.shape[-1] for a in axes)
            or base.ndim != 2
            or len(base) != count
            or directions.shape not in ((base.shape[1], k), (count, base.shape[1], k))
        ):
            raise GeometryMismatch(
                "need axes (L,) or (K, L), densities (K, *grid shape) matching them, "
                "bases (K, n) and directions (n, leaf_dim) or (K, n, leaf_dim)"
            )
        if not all(np.all(np.isfinite(x)) for x in (*axes, base, directions)):
            raise GeometryMismatch("needle grids, bases and directions must be finite")
        self.__dict__.update(axes=axes, g=_unit_mass(g, axes), base=base, directions=directions)

    def __len__(self) -> int:
        _check_needle_axis(self)
        return len(self.g)

    def __getitem__(self, key: slice) -> NeedleBatch:
        _check_needle_axis(self)
        if not isinstance(key, slice):
            raise TypeError(f"needle batches take slices, not {type(key).__name__}")
        return _unchecked(
            tuple(a if a.ndim == 1 else a[key] for a in self.axes),
            self.g[key],
            self.base[key],
            self.directions if self.directions.ndim == 2 else self.directions[key],
        )

    def __iter__(self):
        def rows(array, shared_ndim):
            return itertools.repeat(array) if array.ndim == shared_ndim else iter(array)

        axes = zip(*(rows(a, 1) for a in self.axes))
        return map(_unchecked, axes, self.g, self.base, rows(self.directions, 2))

    @property
    def leaf_dim(self) -> int:
        return len(self.axes)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Embedded cell positions (K, P, n) and masses (K, P) of the needles.

        The per-axis builder of every needle point gives the positions, equal
        to ``base + grid @ directions.T`` for each needle alone bit for bit
        up to the sign of a zero (a -0.0 base coordinate is the only case
        where they differ).  A row view has no needle axis and raises
        GeometryMismatch.
        """
        _check_needle_axis(self)
        shape = (len(self), math.prod(self.g.shape[1:]))
        coordinates = _coordinates(self.base, self.axes, self.directions)
        points = np.stack([np.broadcast_to(x, shape) for x in coordinates], axis=-1)
        return points, _cell_masses(self)


def _check_needle_axis(needles: NeedleBatch) -> None:
    if needles.g.ndim == needles.leaf_dim:
        raise GeometryMismatch("a row view has no needle axis; pass the batch it came from")


def _cell_masses(needles: NeedleBatch) -> np.ndarray:
    return needles.g.reshape(len(needles), -1) * np.reshape(_cell_volume(needles.axes), (-1, 1))


def _coordinates(base, axes, directions) -> list:
    """Needle points ``base + grid @ directions.T``, one array per ambient axis.

    ``base`` is (K, n) or a shared (1, n), each grid (L,) or (K, L), and
    ``directions`` (n, leaf_dim) or (K, n, leaf_dim); each array broadcasts
    to (K, P).  An axis no direction moves along holds the bases, (K, 1);
    with a shared grid and directions, an axis whose bases compare equal
    holds one row, (1, P).  A 1-D needle's matmul makes one product per
    entry, ``t * direction``.  Dropping the zero product of a finite grid,
    or taking the first of equal bases, changes at most the sign of a zero,
    and the stencil subtracts the box edge and 0.5 before it floors, so no
    zero's sign reaches it.
    """
    if len(axes) > 1:
        offsets = _product_grid(axes) @ np.swapaxes(directions, -1, -2)
    shared = directions.ndim == 2 and all(a.ndim == 1 for a in axes)
    coordinates = []
    for a in range(base.shape[1]):
        b = base[:, a, None]
        if directions[..., a, :].any():
            offset = axes[0] * directions[..., a, :] if len(axes) == 1 else offsets[..., a]
            b = (offset + b[0])[None] if shared and (b == b[0]).all() else offset + b
        coordinates.append(b)
    return coordinates


def _unchecked(axes, g, base, directions) -> NeedleBatch:
    """A batch, or a row view, holding the given arrays as they are."""
    batch = object.__new__(NeedleBatch)
    batch.__dict__.update(axes=axes, g=g, base=base, directions=directions)
    return batch


def _unit_mass(g: np.ndarray, axes) -> np.ndarray:
    """Check densities (one per needle along axis 0) and scale each to unit mass.

    A mass or a unit-mass density past the float range raises NonpositiveDensity.
    """
    if np.any(g < 0) or not np.all(np.isfinite(g)):
        raise NonpositiveDensity("needle density must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        mass = g.sum(axis=tuple(range(1, g.ndim))) * _cell_volume(axes)
        if np.any(mass <= 0.0):
            raise EmptySlice("needle carries no mass")
        unit = g / mass.reshape(mass.shape + (1,) * (g.ndim - 1))
    if not (np.all(mass < math.inf) and unit.max(initial=0.0) < math.inf):
        raise NonpositiveDensity("a needle's mass or unit-mass density leaves the float range")
    return unit


def _cell_volume(axes):
    """Product of the leaf grid steps (per needle for per-needle grids); one cell counts 1."""
    return _step_product(a[..., 1] - a[..., 0] if a.shape[-1] > 1 else 1.0 for a in axes)


def _step_product(steps):
    """The product of grid steps (arrays broadcast), from their mantissas and
    exponents: a partial product past the float range does not spoil a volume
    inside it.  Where multiplying left to right gives a finite nonzero
    volume, the mantissas round as its partial products do, to the same bits."""
    mantissa, exponent = 1.0, 0
    for step in steps:
        f, e = np.frexp(step)
        mantissa, exponent = mantissa * f, exponent + e
    return np.ldexp(mantissa, exponent)


def slice_disintegration(density: GridDensity, m: int) -> tuple[NeedleBatch, np.ndarray]:
    """Split a density into its slices over the first m coordinates.

    These are the leaves of the projection potential onto the last n - m
    coordinates' complement: one slice per tail cell block, conditional
    density the renormalized restriction, weight the slice's share of the
    total mass.  All-zero slices are skipped.  Weights sum to 1.
    """
    n = density.dim
    _check_count(m, "m")
    if not 0 < m < n:
        raise GeometryMismatch(f"need 0 < m < {n}, got m = {m}")
    head_axes = tuple(density.centers(a) for a in range(m))
    # One block and one base per tail cell, both in C order of the tail cells.
    blocks = density.samples.reshape(density.resolution[:m] + (-1,))
    blocks = np.ascontiguousarray(np.moveaxis(blocks, -1, 0))
    sums = blocks.sum(axis=tuple(range(1, m + 1)))
    bases = np.zeros((len(blocks), n))
    bases[:, m:] = _product_grid([density.centers(m + a) for a in range(n - m)])
    with np.errstate(over="ignore"):  # NeedleBatch refuses a slice mass that overflows
        mass = sums * _cell_volume(head_axes)
    blocks, bases, sums = _rows_with_mass(mass, blocks, bases, sums)
    needles = NeedleBatch(axes=head_axes, g=blocks, base=bases, directions=np.eye(n)[:, :m])
    return needles, sums * density.cell_volume / density.total_mass


def _rows_with_mass(mass, *arrays):
    """The arrays' rows where ``mass`` is positive; no copies when all of it is."""
    keep = mass > 0.0
    return arrays if keep.all() else tuple(a[keep] for a in arrays)


def _circle_fan(count: int) -> np.ndarray:
    angles = (np.arange(count) + 0.5) * (2.0 * np.pi / count)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _sphere_fan(count: int) -> np.ndarray:
    # Fibonacci lattice: near-uniform, fully deterministic
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def radial_disintegration(
    density: GridDensity,
    center,
    n_directions: int = 64,
    n_radial: int | None = None,
) -> tuple[NeedleBatch, np.ndarray]:
    """Split a density into ray conditionals around a center.

    The rays of the distance-from-center potential are the leaves; along a
    ray the conditional density is ``r^(n-1)`` times the interpolated
    density, normalized.  Directions form a deterministic fan (midpoint
    angles on the circle, a Fibonacci lattice on the sphere) with equal
    angular weights, and each ray is sampled up to its exit from the box.
    Rays that carry no mass are skipped; when none carries any, it raises
    and names the cause, a volume element that underflows on every ray or a
    density that vanishes on every sampled ray.  The density is interpolated in
    blocks of at most ``_BLOCK_POINTS`` ray points.  A line always has its
    two rays; ``n_directions`` must still be a positive integer there.
    """
    center = np.asarray(center, dtype=float)
    n = density.dim
    if center.shape != (n,):
        raise GeometryMismatch(f"center must have {n} coordinates")
    if not np.all((density.box[:, 0] < center) & (center < density.box[:, 1])):
        raise CenterOutsideBox(f"center {center.tolist()} is not strictly inside the box")
    _check_count(n_directions, "n_directions")
    if n_directions < 1:
        raise InvalidParameter(f"need at least one direction, got {n_directions}")
    if n == 1:
        fan = np.array([[1.0], [-1.0]])
    elif n == 2:
        fan = _circle_fan(n_directions)
    elif n == 3:
        fan = _sphere_fan(n_directions)
    else:
        raise GeometryMismatch("radial fans are implemented for dimensions 1 to 3")
    if n_radial is None:
        n_radial = 4 * max(density.resolution)
    _check_count(n_radial, "n_radial")
    if n_radial < 1:
        raise InvalidParameter(f"need at least one radial cell, got {n_radial}")
    # An exit past the float range is inf; each ray's least exit is finite.
    with np.errstate(divide="ignore", over="ignore"):
        exits = np.where(
            fan > 0,
            (density.box[:, 1] - center) / fan,
            np.where(fan < 0, (density.box[:, 0] - center) / fan, np.inf),
        )
    dt = exits.min(axis=1) / n_radial
    t = (np.arange(n_radial) + 0.5) * dt[:, None]
    with np.errstate(over="ignore"):
        if not np.all(t[:, -1] ** (n - 1) < math.inf):
            longest = float(exits.min(axis=1).max())
            raise GeometryMismatch(f"the Jacobian r^{n - 1} overflows on a ray of length {longest}")
    g = np.empty_like(t)
    rows, cols = max(1, _BLOCK_POINTS // n_radial), min(n_radial, _BLOCK_POINTS)
    # A ray's density or mass past the float range is inf (NaN on a ray
    # whose cells underflow to width 0); the total mass catches both.
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(0, len(fan), rows):
            for c in range(0, n_radial, cols):
                block = np.s_[r : r + rows, c : c + cols]
                coordinates = _coordinates(center[None], (t[block],), fan[r : r + rows, :, None])
                g[block] = t[block] ** (n - 1) * _interpolate(density, coordinates)
        mass = g.sum(axis=1) * dt
        total = mass.sum()
    if not total < math.inf:
        raise NonpositiveDensity(f"the rays' total mass {total} is not finite")
    if not total > 0.0:
        with np.errstate(over="ignore"):
            volume = (t ** (n - 1)).sum(axis=1) * dt
        if not volume.any():
            raise GeometryMismatch(f"the volume element r^{n - 1} dr underflows to 0 on every ray")
        raise NonpositiveDensity("the density vanishes on every sampled ray")
    t, g, fan, mass = _rows_with_mass(mass, t, g, fan, mass)
    needles = NeedleBatch(
        axes=(t,), g=g, base=np.tile(center, (len(fan), 1)), directions=fan[:, :, None]
    )
    return needles, mass / mass.sum()


def _stencil(grid: GridDensity, coordinates):
    """The flat cell of each point's lowest corner, and the weights of the axes it moves along.

    ``coordinates`` hold one array per axis, broadcastable to (..., P).  On
    each axis a point lies between the edge-clamped cell ``lo`` and
    ``lo + 1``, weighted ``1 - f`` and ``f``, with f its offset in cells
    from lo's center clipped to [0, 1].  A coordinate equal to a cell
    center bit for bit, as ``GridDensity.centers`` gives it, sits exactly
    on that center: f is 0, or 1 at the last center, whose lo is the cell
    before it.  An axis on which every weight is exactly 0 or 1 is fixed:
    each point's cell on it is the one weighted 1, it joins the lowest
    corner, and the axis's entry in the weight list is None.  A moving axis
    gives its weights, shape (2, ..., P) after its own coordinates' shape,
    the lower cell's first.  The lowest corner's cell has the broadcast
    shape; the products of the moving axes' weights are the multilinear
    interpolation weights.
    """
    base, weights = 0.0, []
    for a, (x, res) in enumerate(zip(coordinates, grid.resolution)):
        q = x - grid.box[a, 0]
        q /= grid.steps[a]
        q -= 0.5
        # Clamped as floats, so a point far outside the box casts no huge
        # value; fmax and fmin send NaN to cell 0 and leave its weight NaN.
        lo = np.floor(q)
        np.fmin(np.fmax(lo, 0.0, out=lo), max(res - 2, 0), out=lo)
        w = None
        if res > 1:
            q -= lo
            if _moves_at_centers(grid, a, x, lo, q):
                w = np.empty((2,) + q.shape)
                np.clip(q, 0.0, 1.0, out=w[1])
                np.subtract(1.0, w[1], out=w[0])
            else:
                lo += q >= 1.0
        weights.append(w)
        # Every flat cell index is an integer below 2^53, so float sums are
        # exact; each sum takes the shape its terms broadcast to.
        lo *= math.prod(grid.resolution[a + 1 :])
        base = base + lo
    return base.astype(np.intp), weights


def _sliver_bound(grid: GridDensity, a: int) -> float:
    """How far q may round from j at a coordinate equal to center j of axis a.

    The center c_j = lo + ((j + 1/2) W) / k, as ``_cell_centers`` rounds it,
    gives q = (c_j - lo) / step - 1/2 within

        delta = u k (7 + 2 M / W) + (k + 2) 2^-1074 / step

    of j, with u = 2^-53, k cells, W the box width and M the larger
    |bound|.  At cell index k, six roundings (the center's product and
    quotient, the step, c_j - lo, the quotient and the -1/2) move q by at
    most u k each, and the center's sum by u M, which is u k M / W cells:
    u k (6 + M / W) to first order.  The last term covers steps and
    center parts that underflow.  While delta < 1 the center is one of the
    point's two stencil cells.
    """
    lo, hi = float(grid.box[a, 0]), float(grid.box[a, 1])
    k, step = grid.resolution[a], float(grid.steps[a])
    return 2.0**-53 * k * (7.0 + 2.0 * max(abs(lo), abs(hi)) / (hi - lo)) + (k + 2) * 2.0**-1074 / step


def _least_nonnegative(values) -> float:
    """The least value that is not negative, read from the bits, which order
    nonnegative floats and put negative ones and NaN after them; negative or
    NaN when there is none."""
    return np.minimum.reduce(values.view(np.uint64), axis=None).view(np.float64)


def _moves_at_centers(grid: GridDensity, a: int, x, lo, f) -> bool:
    """Put the points whose coordinate is a center of axis ``a`` on it; does any still move?

    ``f`` holds the unclipped offsets from lo's center.  A point on a
    center is off by at most delta = ``_sliver_bound`` (a sliver), so only
    offsets within delta of 0 or 1 are compared with the centers of the
    point's two cells; a hit sets lo and f to those of q = j exactly.  The
    axis moves when some offset lies strictly between 0 and 1 (or is NaN).
    Ray points are never slivers: when the least nonnegative offset lies
    in (delta, 1 - delta) and no offset in [1 - delta, 1], reductions
    alone show the axis moves with no sliver on it.
    """
    delta = _sliver_bound(grid, a)
    if delta < _least_nonnegative(f) < 1.0 - delta and (
        f.max() < 1.0 - delta or _least_nonnegative(1.0 - f) > delta
    ):
        return True
    slivers = np.flatnonzero(((0.0 < f) & (f <= delta)) | ((1.0 - delta <= f) & (f < 1.0)))
    if slivers.size:
        near, at = x.flat[slivers], lo.flat[slivers]
        box, res = grid.box[a], grid.resolution[a]
        lower = near == _cell_centers(*box, res, at)
        upper = ~lower & (near == _cell_centers(*box, res, at + 1.0))
        hits = lower | upper
        center = at[hits] + upper[hits]
        lo.flat[slivers[hits]] = np.minimum(center, res - 2)
        f.flat[slivers[hits]] = center - lo.flat[slivers[hits]]
    return not np.all((f <= 0.0) | (f >= 1.0))


def _corner_weights(grid: GridDensity, coordinates):
    """Flat cell index and weight of each multilinear corner on the moving axes.

    ``coordinates`` hold one array per axis, broadcastable to (..., P).
    The corners are the 2^k of the k moving axes (``_stencil``), in
    ``np.ndindex`` order; a fixed axis adds its weight-1 cell to each.
    Cells have shape (..., 2^k, P) after the shapes the coordinates
    broadcast to, and weights broadcast to them: each is the product of
    the moving axes' stencil weights, first axis first, and 1 when no axis
    moves.  A fixed axis's other cell would get only zero weights, and its
    factor 1.0 changes no product, so the corners kept have the bits of
    the full 2^dim stencil's.
    """
    base, weights = _stencil(grid, coordinates)
    # A corner's cell is the lowest corner's plus one stride per upper axis.
    strides = [math.prod(grid.resolution[a + 1 :]) for a, w in enumerate(weights) if w is not None]
    offsets = [sum(itertools.compress(strides, c)) for c in np.ndindex(*(2,) * len(strides))]
    cells = base[..., None, :] + np.array(offsets, dtype=np.intp)[:, None]
    moving = [np.moveaxis(w, 0, -2) for w in weights if w is not None]
    weight = moving[0] if moving else np.ones((1, 1))
    for w in moving[1:]:
        # Each new axis's corner bit goes last, so C order is np.ndindex order.
        weight = weight[..., :, None, :] * w[..., None, :, :]
        weight = weight.reshape(weight.shape[:-3] + (-1, weight.shape[-1]))
    return cells, weight


def _interpolate(density: GridDensity, coordinates) -> np.ndarray:
    """Multilinear interpolation of the cell-center samples, one coordinate array per axis.

    The corners are added one at a time from the first; a sum over the
    corner axis adds them pairwise when that axis is the innermost loop.
    """
    cells, weight = _corner_weights(density, coordinates)
    return functools.reduce(np.add, np.moveaxis(weight * density.samples.ravel()[cells], -2, 0))


# Points per interpolation or reassembly block.  Each point makes up to
# 2^dim (cell, weight) pairs, so in three dimensions a block's index and
# weight buffers take at most 2 MiB each, near a core's L2 cache.
# Reassembly blocks end between needles and interpolation is pointwise, so
# no result depends on this size.
_BLOCK_POINTS = 1 << 15


def reassemble(needles: NeedleBatch, weights, target: GridDensity) -> GridDensity:
    """Deposit the weighted needle mixture back onto a grid.

    Each needle cell splats its mass multilinearly onto the target cells;
    the result is a unit-mass density regardless of the target's samples
    (only its geometry is used).  A point on a target cell center puts
    all of its mass on that cell (``_stencil``), and a block adds only the
    corners of the axes its points move along.  Slice needles on their own
    grid sit on its centers, so each of their cells makes one deposit, of
    its whole mass, to the cell it sits on.

    The weights, one finite nonnegative number per needle, and the batch's
    geometry are checked before anything is deposited.  The needles are
    then splatted in blocks of whole needles holding at most
    ``_BLOCK_POINTS`` (2^15) quadrature points (a larger needle is a block
    of its own), so the index and weight buffers stay near cache size
    whatever the needle count.  Each block is one ``np.add.at`` whose
    entries run needle by needle, then corner by corner, then point by
    point: every cell receives the same nonzero additions in the same
    order as splatting one needle at a time over all 2^dim corners, so the
    result does not depend on the block size.
    """
    _check_needle_axis(needles)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(needles),):
        raise GeometryMismatch("one weight per needle required")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise InvalidParameter("needle weights must be finite and nonnegative")
    if needles.base.shape[1] != target.dim:
        raise GeometryMismatch("needle geometry does not match the target grid")
    mass = np.zeros(math.prod(target.resolution))
    per_block = max(1, _BLOCK_POINTS // math.prod(needles.g.shape[1:]))
    for start in range(0, len(needles), per_block):
        block = needles[start : start + per_block]
        masses = _cell_masses(block)
        masses *= weights[start : start + len(block), None]
        cells, weight = _corner_weights(target, _coordinates(block.base, block.axes, block.directions))
        weight = weight * masses[:, None, :]
        np.add.at(mass, np.broadcast_to(cells, weight.shape).reshape(-1), weight.reshape(-1))
    with np.errstate(over="ignore"):
        samples = mass.reshape(target.resolution) / target.cell_volume
        if not samples.sum() < math.inf:
            raise GeometryMismatch(f"unit masses on cells of volume {target.cell_volume} leave the float range")
    return GridDensity(box=target.box, samples=samples)


def l1_distance(a: GridDensity, b: GridDensity) -> float:
    """L1 distance between two densities on the same grid, each scaled to unit mass.

    The grids must have the same cell counts and equal boxes; any other
    pair raises GeometryMismatch.
    """
    if a.dim != b.dim or a.resolution != b.resolution or not np.array_equal(a.box, b.box):
        raise GeometryMismatch("densities live on different grids")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(a.samples / a.total_mass - b.samples / b.total_mass)
        distance = float(diff.sum() * a.cell_volume)
    if not math.isfinite(distance):
        raise GeometryMismatch(f"unit masses on cells of volume {a.cell_volume} leave the float range")
    return distance


@dataclass(frozen=True)
class CdReport:
    """Outcome of a curvature-dimension check on a needle."""

    kappa: float
    N: float
    worst_violation: float
    passed: bool
    tol: float


# The stencils divide differences of log g, which lie within _LOG_SPAN of
# each other, by h and by h^2, and square the first quotient: each stays
# finite for h^2 >= _LEAST_SQUARED_STEP.  The default tolerance, 10 h^2,
# must be finite too.
_LOG_SPAN = math.log(sys.float_info.max) - math.log(math.ulp(0.0))
_LEAST_SQUARED_STEP = _LOG_SPAN**2 / sys.float_info.max


def cd_check_1d(needles: NeedleBatch, kappa: float, N: float, tol: float | None = None):
    """Check CD(kappa, N) for 1-D needle densities by finite differences.

    With rho = -log g the condition is ``rho'' - (rho')^2/(N-1) >= kappa``
    at interior grid points; for N = inf the middle term is dropped, and
    N = 1 demands a constant rho (then the condition reduces to kappa <= 0).
    The condition needs a finite kappa and N >= 1; other values raise
    InvalidParameter.  Each needle is checked on its positive cells: zeros
    at the ends of its grid are trimmed, interior zeros make rho undefined
    and raise NonpositiveDensity, and fewer than five positive cells raise
    TooFewPoints.  The first needle with either fault raises, except that
    when all needles trim to the same cells a hole in any of them comes
    first.  The default tolerance is ten times the squared grid spacing,
    matching the truncation error of the second-order stencils; a given
    tolerance must be finite and nonnegative.  A needle whose step h has
    h^2 below about 1.2e-302 (where a stencil of log g could overflow) or
    10 h^2 = inf raises GeometryMismatch before any stencil is taken.
    Normalization constants shift rho and leave the report unchanged.

    A batch gives a list with one report per needle.  A row view, which
    iterating a batch gives and which has no needle axis, gives one
    CdReport, equal to its entry in the batch's list.
    """
    kappa, N = float(kappa), float(N)
    if not math.isfinite(kappa) or not N >= 1.0:
        raise InvalidParameter(f"CD(kappa, N) needs a finite kappa and N >= 1, got ({kappa}, {N})")
    if tol is not None:
        tol = _check_tolerance(tol, "the CD tolerance")
    if needles.leaf_dim != 1:
        raise GeometryMismatch("parameter grid t is defined for 1-d needles only")
    (t,), g = needles.axes, needles.g
    inside = None
    if g.size and np.minimum.reduce(g, axis=None) <= 0.0:
        rows = g.reshape(-1, g.shape[-1])
        positive = rows > 0.0
        first = positive.argmax(axis=1)
        last = rows.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)
        count = last - first + 1
        hole, few = positive.sum(axis=1) < count, count < 5
        # Needles that all trim alike report a hole in any of them first.
        ragged = np.ptp(first) or np.ptp(last)
        stop = few.argmax() + 1 if ragged and few.any() else len(rows)
        if hole[:stop].any():
            raise NonpositiveDensity("needle density vanishes in its interior")
        if few.any():
            raise TooFewPoints(f"need at least 5 positive cells, got {count[few.argmax()]}")
        # The stencils whose three cells are all among the needle's positive cells.
        j = np.arange(rows.shape[1] - 2)
        inside = (first[:, None] <= j) & (j <= last[:, None] - 2)
        inside = inside.reshape(g.shape[:-1] + (-1,))
        g = np.where(positive.reshape(g.shape), g, 1.0)
    elif g.shape[-1] < 5:
        raise TooFewPoints(f"need at least 5 positive cells, got {g.shape[-1]}")
    # A shared grid's step is a Python float, which keeps a row's check cheap.
    if t.ndim == 1:
        h = hc = float(t[1]) - float(t[0])
        bad = None if _LEAST_SQUARED_STEP <= h * h and 10.0 * h * h < math.inf else h
    else:
        h = t[:, 1] - t[:, 0]
        hc = h[:, None]
        with np.errstate(over="ignore"):
            fits = (_LEAST_SQUARED_STEP <= h * h) & (10.0 * h * h < math.inf)
        bad = None if fits.all() else float(h[fits.argmin()])
    if bad is not None:
        raise GeometryMismatch(f"the needle grid step {bad} squares outside the stencils' float range")
    tols = 10.0 * h * h if tol is None else tol
    # rho = -log g exactly, and rounding is odd: (2 l1 - l2) - l0 has the bits
    # of (rho2 - 2 rho1) + rho0, signed zeros too, and l0 - l2 of rho2 - rho0.
    # Subtracting kappa is monotone, so it waits for each needle's minimum.
    log = np.log(g)
    l0, l1, l2 = log[..., :-2], log[..., 1:-1], log[..., 2:]
    d2 = l1 + l1
    d2 -= l2
    d2 -= l0
    d2 /= hc * hc
    if math.isinf(N):
        worst = _lowest(d2, inside) - kappa
    else:
        d1 = (l0 - l2) / (2.0 * hc)
        if N == 1.0:
            # The largest |rho'| or |rho''| over each needle's stencils.
            flat = -_lowest(-np.maximum(np.abs(d1), np.abs(d2)), inside)
            worst = np.where(flat <= np.sqrt(tols), -kappa, -np.inf)
        else:
            # rho'^2 / (N - 1) past the float range is inf: the condition fails by -inf.
            with np.errstate(over="ignore"):
                worst = _lowest(d2 - d1 * d1 / (N - 1.0), inside) - kappa
    if g.ndim == 1:
        return _cd_report(kappa, N, float(worst), tols)
    tols = np.broadcast_to(tols, worst.shape).tolist()
    return [_cd_report(kappa, N, w, s) for w, s in zip(worst.tolist(), tols)]


def _lowest(values, inside):
    """Each needle's least stencil value, over the stencils ``inside`` selects if given."""
    return np.minimum.reduce(values if inside is None else np.where(inside, values, np.inf), axis=-1)


def _cd_report(kappa: float, N: float, worst: float, tol: float) -> CdReport:
    """A report built without the dataclass ``__init__``, as ``_unchecked`` builds rows."""
    report = object.__new__(CdReport)
    report.__dict__.update(kappa=kappa, N=N, worst_violation=worst, passed=worst >= -tol, tol=tol)
    return report

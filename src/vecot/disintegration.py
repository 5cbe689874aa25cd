"""Grid densities, their disintegration into needles, and CD(kappa, N) checks.

Two potentials have closed-form leaf structure: the orthogonal projection
onto the first m coordinates, whose leaves are axis-aligned m-dimensional
slices, and the distance from a center point, whose leaves are rays.  For
densities tabulated on a regular grid we split the density into conditional
densities on those leaves (needles), with mixture weights, and check that
the weighted mixture reassembles the original.  Ray conditionals pick up
the Jacobian factor r^(n-1).

A 1-D needle with density g = e^(-rho) satisfies the curvature-dimension
condition CD(kappa, N) when rho'' - (rho')^2/(N-1) >= kappa on its
interior; cd_check_1d evaluates that with central differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameter, VecotError

__all__ = [
    "EmptySlice",
    "CenterOutsideBox",
    "GeometryMismatch",
    "NonpositiveDensity",
    "TooFewPoints",
    "GridDensity",
    "Needle",
    "CdReport",
    "tabulate_density",
    "slice_disintegration",
    "radial_disintegration",
    "reassemble",
    "l1_distance",
    "cd_check_1d",
]


class EmptySlice(VecotError):
    """A slice carries no mass; it is skipped with zero weight."""


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
    """Nonnegative density sampled at the cell centers of a regular grid."""

    box: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        box = _box(self.box)
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != box.shape[0]:
            raise GeometryMismatch(
                f"samples have {samples.ndim} axes but the box has {box.shape[0]}"
            )
        if np.any(box[:, 1] <= box[:, 0]):
            raise GeometryMismatch("box bounds must satisfy lo < hi")
        if not np.all(np.isfinite(samples)) or np.any(samples < 0):
            raise NonpositiveDensity("density samples must be finite and nonnegative")
        if samples.sum() == 0.0:
            raise NonpositiveDensity("density must carry positive total mass")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "samples", samples)

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
        return float(np.prod(self.steps))

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
    return box.reshape(-1, 2)


def _cell_centers(lo: float, hi: float, k: int) -> np.ndarray:
    return lo + (np.arange(k) + 0.5) * (hi - lo) / k


def _product_grid(axes) -> np.ndarray:
    """Points of the product of 1-D grids, one per row, last axis fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def tabulate_density(box, resolution, fn) -> GridDensity:
    """Evaluate a density function at the cell centers of a regular grid."""
    box = _box(box)
    resolution = tuple(int(r) for r in np.atleast_1d(resolution))
    if len(resolution) == 1:
        resolution = resolution * box.shape[0]
    if len(resolution) != box.shape[0]:
        raise GeometryMismatch(f"{len(resolution)} cell counts for {box.shape[0]} axes")
    if min(resolution) < 1:
        raise InvalidParameter(f"need at least one cell per axis, got {list(resolution)}")
    points = _product_grid([_cell_centers(*b, k) for b, k in zip(box, resolution)])
    samples = np.asarray(fn(points), dtype=float).reshape(resolution)
    return GridDensity(box=box, samples=samples)


@dataclass(frozen=True)
class Needle:
    """Conditional density on one leaf, sampled on the leaf's own grid.

    ``axes`` hold the leaf-internal parameter grids (cell centers, uniform
    spacing), ``g`` the density over their product, and a parameter vector
    p embeds as ``base + directions @ p``.  The density is normalized to
    unit quadrature mass at construction; a massless needle raises
    EmptySlice.
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
        if g.shape != tuple(len(a) for a in axes):
            raise GeometryMismatch(f"density shape {g.shape} does not match axes")
        if directions.ndim != 2 or directions.shape[1] != len(axes):
            raise GeometryMismatch("directions must be one column per needle axis")
        if np.any(g < 0) or not np.all(np.isfinite(g)):
            raise NonpositiveDensity("needle density must be finite and nonnegative")
        mass = g.sum() * np.prod([_spacing(a) for a in axes])
        if mass <= 0.0:
            raise EmptySlice("needle carries no mass")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "g", g / mass)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", directions)

    @property
    def leaf_dim(self) -> int:
        return len(self.axes)

    @property
    def t(self) -> np.ndarray:
        if self.leaf_dim != 1:
            raise GeometryMismatch("parameter grid t is defined for 1-d needles only")
        return self.axes[0]

    @property
    def spacing(self) -> np.ndarray:
        return np.array([_spacing(a) for a in self.axes])

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Embedded cell positions and their masses (summing to 1)."""
        points = self.base[None, :] + _product_grid(self.axes) @ self.directions.T
        masses = self.g.ravel() * float(np.prod(self.spacing))
        return points, masses


def _spacing(axis: np.ndarray) -> float:
    return float(axis[1] - axis[0]) if len(axis) > 1 else 1.0


def slice_disintegration(density: GridDensity, m: int) -> tuple[list[Needle], np.ndarray]:
    """Split a density into its slices over the first m coordinates.

    These are the leaves of the projection potential onto the last n - m
    coordinates' complement: one slice per tail cell block, conditional
    density the renormalized restriction, weight the slice's share of the
    total mass.  All-zero slices are skipped.  Weights sum to 1.
    """
    n = density.dim
    if not 0 < m < n:
        raise GeometryMismatch(f"need 0 < m < {n}, got m = {m}")
    head_axes = tuple(density.centers(a) for a in range(m))
    # One block and one base per tail cell, both in C order of the tail cells.
    blocks = np.moveaxis(density.samples.reshape(density.resolution[:m] + (-1,)), -1, 0)
    bases = np.zeros((len(blocks), n))
    bases[:, m:] = _product_grid([density.centers(m + a) for a in range(n - m)])
    directions = np.eye(n)[:, :m]
    total = density.total_mass
    needles: list[Needle] = []
    weights: list[float] = []
    for block, base in zip(blocks, bases):
        try:
            needle = Needle(axes=head_axes, g=block, base=base, directions=directions)
        except EmptySlice:
            continue
        needles.append(needle)
        weights.append(block.sum() * density.cell_volume / total)
    return needles, np.array(weights)


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
) -> tuple[list[Needle], np.ndarray]:
    """Split a density into ray conditionals around a center.

    The rays of the distance-from-center potential are the leaves; along a
    ray the conditional density is ``r^(n-1)`` times the interpolated
    density, normalized.  Directions form a deterministic fan (midpoint
    angles on the circle, a Fibonacci lattice on the sphere) with equal
    angular weights, and each ray is sampled up to its exit from the box.
    """
    center = np.asarray(center, dtype=float)
    n = density.dim
    if center.shape != (n,):
        raise GeometryMismatch(f"center must have {n} coordinates")
    if not np.all((density.box[:, 0] < center) & (center < density.box[:, 1])):
        raise CenterOutsideBox(f"center {center.tolist()} is not strictly inside the box")
    if n > 1 and n_directions < 1:
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
    if n_radial < 1:
        raise InvalidParameter(f"need at least one radial cell, got {n_radial}")
    needles: list[Needle] = []
    raw = []
    for direction in fan:
        with np.errstate(divide="ignore"):
            exits = np.where(
                direction > 0,
                (density.box[:, 1] - center) / direction,
                np.where(direction < 0, (density.box[:, 0] - center) / direction, np.inf),
            )
        r_max = float(exits.min())
        dt = r_max / n_radial
        t = (np.arange(n_radial) + 0.5) * dt
        rho = _interpolate(density, center[None, :] + t[:, None] * direction[None, :])
        g = t ** (n - 1) * rho
        mass = g.sum() * dt
        if mass <= 0.0:
            continue
        needles.append(
            Needle(axes=(t,), g=g, base=center, directions=direction[:, None])
        )
        raw.append(mass)
    raw = np.array(raw)
    return needles, raw / raw.sum()


def _index_fractions(density: GridDensity, points: np.ndarray):
    """Lower cell index and interpolation fraction per axis, edge-clamped."""
    idx = np.empty(points.shape, dtype=int)
    frac = np.empty(points.shape)
    for a in range(density.dim):
        q = (points[:, a] - density.box[a, 0]) / density.steps[a] - 0.5
        lo = np.clip(np.floor(q).astype(int), 0, density.resolution[a] - 2)
        if density.resolution[a] == 1:
            lo = np.zeros(len(points), dtype=int)
            f = np.zeros(len(points))
        else:
            f = np.clip(q - lo, 0.0, 1.0)
        idx[:, a] = lo
        frac[:, a] = f
    return idx, frac


def _corners(grid: GridDensity, points: np.ndarray):
    """Yield ``(cell, weight)`` for each of the 2^dim multilinear corners.

    ``cell`` indexes the grid (edge-clamped) and ``weight`` holds every
    point's interpolation weight at that corner.
    """
    idx, frac = _index_fractions(grid, points)
    for corner in np.ndindex(*(2,) * grid.dim):
        weight = np.ones(len(points))
        cell = []
        for a, c in enumerate(corner):
            weight *= frac[:, a] if c else 1.0 - frac[:, a]
            cell.append(np.minimum(idx[:, a] + c, grid.resolution[a] - 1))
        yield tuple(cell), weight


def _interpolate(density: GridDensity, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of the cell-center samples."""
    out = np.zeros(len(points))
    for cell, weight in _corners(density, points):
        out += weight * density.samples[cell]
    return out


# Quadrature points per reassemble block; each point makes 2^dim (index,
# value) pairs, so a block's buffers stay near 8 MB in three dimensions.
_BLOCK_POINTS = 1 << 16


def reassemble(needles: list[Needle], weights, target: GridDensity) -> GridDensity:
    """Deposit the weighted needle mixture back onto a grid.

    Each needle cell splats its mass multilinearly onto the target cells;
    the result is a unit-mass density regardless of the target's samples
    (only its geometry is used).  Slice needles land exactly on cell
    centers, so their reassembly is exact up to rounding.

    Every needle's geometry is checked before anything is deposited.  The
    needles are then splatted in blocks of whole needles holding at most
    ``_BLOCK_POINTS`` quadrature points (a larger needle is a block of its
    own), so the index and value buffers stay bounded whatever the needle
    count.  Each block is one ``np.add.at`` whose entries run needle by
    needle, then corner by corner, then point by point: every cell receives
    the same additions in the same order as splatting one needle at a time.
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(needles):
        raise GeometryMismatch("one weight per needle required")
    n = target.dim
    if any(nd.base.shape != (n,) or nd.directions.shape[0] != n for nd in needles):
        raise GeometryMismatch("needle geometry does not match the target grid")
    mass = np.zeros(math.prod(target.resolution))
    start = 0
    while start < len(needles):
        stop, size = start + 1, needles[start].g.size
        while stop < len(needles) and size + needles[stop].g.size <= _BLOCK_POINTS:
            size += needles[stop].g.size
            stop += 1
        quads = [nd.quadrature() for nd in needles[start:stop]]
        points = np.concatenate([p for p, _ in quads])
        masses = np.concatenate([w * m for (_, m), w in zip(quads, weights[start:stop])])
        cells, values = [], []
        for cell, weight in _corners(target, points):
            cells.append(np.ravel_multi_index(cell, target.resolution))
            values.append(masses * weight)
        owner = np.repeat(np.arange(stop - start), [len(m) for _, m in quads])
        order = np.argsort(owner * 2**n + np.arange(2**n)[:, None], axis=None, kind="stable")
        np.add.at(mass, np.concatenate(cells)[order], np.concatenate(values)[order])
        start = stop
    return GridDensity(box=target.box, samples=mass.reshape(target.resolution) / target.cell_volume)


def l1_distance(a: GridDensity, b: GridDensity, normalize: bool = True) -> float:
    """L1 distance between two densities on the same grid."""
    if a.dim != b.dim or a.resolution != b.resolution or not np.allclose(a.box, b.box):
        raise GeometryMismatch("densities live on different grids")
    fa, fb = a.samples, b.samples
    if normalize:
        fa = fa / a.total_mass
        fb = fb / b.total_mass
    return float(np.abs(fa - fb).sum() * a.cell_volume)


@dataclass(frozen=True)
class CdReport:
    """Outcome of a curvature-dimension check on a needle."""

    kappa: float
    N: float
    worst_violation: float
    passed: bool
    tol: float


def cd_check_1d(needle: Needle, kappa: float, N: float, tol: float | None = None) -> CdReport:
    """Check CD(kappa, N) for a 1-D needle density by finite differences.

    With rho = -log g the condition is ``rho'' - (rho')^2/(N-1) >= kappa``
    at interior grid points; for N = inf the middle term is dropped, and
    N = 1 demands a constant rho (then the condition reduces to kappa <= 0).
    Zeros at the ends of the grid are trimmed; interior zeros make rho
    undefined and raise NonpositiveDensity.  The default tolerance is ten
    times the squared grid spacing, matching the truncation error of the
    second-order stencils.  Normalization constants shift rho and leave the
    report unchanged.
    """
    t = needle.t
    g = needle.g
    positive = g > 0.0
    first, last = int(np.argmax(positive)), len(g) - 1 - int(np.argmax(positive[::-1]))
    g = g[first : last + 1]
    if np.any(g <= 0.0):
        raise NonpositiveDensity("needle density vanishes in its interior")
    if len(g) < 5:
        raise TooFewPoints(f"need at least 5 positive cells, got {len(g)}")
    h = float(t[1] - t[0])
    if tol is None:
        tol = 10.0 * h * h
    rho = -np.log(g)
    d1 = (rho[2:] - rho[:-2]) / (2.0 * h)
    d2 = (rho[2:] - 2.0 * rho[1:-1] + rho[:-2]) / (h * h)
    if N == 1:
        flat = max(float(np.abs(d1).max()), float(np.abs(d2).max()))
        worst = -kappa if flat <= np.sqrt(tol) else -np.inf
    elif np.isinf(N):
        worst = float((d2 - kappa).min())
    else:
        worst = float((d2 - d1 * d1 / (N - 1.0) - kappa).min())
    return CdReport(
        kappa=float(kappa), N=float(N), worst_violation=worst, passed=worst >= -tol, tol=float(tol)
    )

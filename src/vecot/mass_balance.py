"""Mass balance on transport sets and the family of instances refuting it.

For scalar measures, classical transport theory says optimal mass never
crosses the boundary of a transport set, so every maximal transport set
carries zero net mass.  For vector measures that conjecture fails: an
explicit family of (m+1)-atom instances admits an optimal potential whose
transport sets overlap only in a single branch atom, and the branch atom
soaks up mass from both sides.  This module builds that family, provides
its closed-form optimum, evaluates the balance property on the transport
sets of any decomposition, and offers a discrete stand-in for absolute
continuity of the coupling's marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    Instance,
    PotentialField,
    VectorCoupling,
    VecotError,
    _check_count,
    _check_tolerance,
    _same_cloud,
    build_instance,
    cost,
    total_variation,
)
from .leaves import LeafDecomposition, maximal_transport_sets

__all__ = [
    "ZeroVector",
    "RankDeficiency",
    "InvalidSpec",
    "BallOverlap",
    "CounterexampleSpec",
    "paper_preset",
    "orthant_spec",
    "check_counterexample_spec",
    "analytic_optimum",
    "TransportSetMass",
    "MassBalanceReport",
    "mass_balance_report",
    "marginal_abs_continuity_surrogate",
    "smoothed_instance",
]


class ZeroVector(VecotError):
    """A weight vector of the construction is zero."""


class RankDeficiency(VecotError):
    """The weight vectors admit a linear relation other than all-equal."""


class InvalidSpec(VecotError):
    """The strictness margin is not positive; the construction degenerates."""


class BallOverlap(VecotError):
    """Smoothing radius reaches half the minimum anchor distance."""


@dataclass(frozen=True)
class CounterexampleSpec:
    """m+1 anchors in R^n with weight vectors in R^m summing to zero.

    The anchors x_1..x_m each send their vector v_i to the hub x_{m+1}.
    The construction is valid when the pairwise inner products of the
    normalized weights strictly dominate those of the normalized anchor
    directions (the strictness margin); validity makes the radial potential
    1-Lipschitz and the star coupling optimal.  Past its shapes, a spec is
    checked as the instance it builds, once, under the measure's rules.
    """

    anchors: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.anchors, dtype=float)
        v = np.asarray(self.vectors, dtype=float)
        if a.ndim != 2 or v.ndim != 2 or a.shape[0] != v.shape[0]:
            raise DimensionMismatch("anchors and vectors must be matching 2-d arrays")
        if a.shape[0] != v.shape[1] + 1:
            raise DimensionMismatch(
                f"need m+1 = {v.shape[1] + 1} anchors for m = {v.shape[1]}, got {a.shape[0]}"
            )
        if v.shape[1] > a.shape[1]:
            raise DimensionMismatch("target dimension m must not exceed point dimension n")
        instance = build_instance(a, v)
        instance.distances  # refuses distances outside the numeric range
        object.__setattr__(self, "anchors", instance.cloud.points)
        object.__setattr__(self, "vectors", instance.measure.weights)
        object.__setattr__(self, "_instance", instance)

    @property
    def n(self) -> int:
        return self.anchors.shape[1]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]

    def instance(self) -> Instance:
        """The atomic instance of the spec, built and checked once at construction."""
        return self._instance


def paper_preset() -> CounterexampleSpec:
    """The smallest refuting instance: three atoms in the plane."""
    return CounterexampleSpec(
        anchors=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        vectors=np.array([[1.0, 0.0], [1.0, 2.0], [-2.0, -2.0]]),
    )


def orthant_spec(m: int, pull: float = 0.5) -> CounterexampleSpec:
    """A refuting instance for any m = n from 2 to 64.

    Anchors at the coordinate unit vectors plus the origin hub; weights
    v_i = e_i + pull * (1,..,1) all lean toward the diagonal, so their
    pairwise inner products are positive while the anchor directions are
    orthogonal.
    """
    _check_count(m, "m", InvalidSpec)
    if m < 2:
        raise InvalidSpec("need m >= 2 for a genuine counterexample")
    if m > 64:  # the solver's Newton matrix holds about m^4 floats: 2 GiB at m = 128
        raise InvalidSpec(f"m = {m} exceeds 64, the largest orthant the solver takes")
    if not (math.isfinite(pull) and pull > 0):
        raise InvalidSpec("pull must be finite and positive to create a margin")
    anchors = np.vstack([np.eye(m), np.zeros(m)])
    lean = np.eye(m) + pull * np.ones((m, m))
    with np.errstate(over="ignore"):  # the measure refuses an infinite weight
        vectors = np.vstack([lean, -lean.sum(axis=0)])
    return CounterexampleSpec(anchors=anchors, vectors=vectors)


def check_counterexample_spec(spec: CounterexampleSpec) -> float:
    """Strictness margin of the construction; positive means valid.

    The margin is the minimum over anchor pairs i < j <= m of
    ``<v_i/|v_i|, v_j/|v_j|> - <d_i/|d_i|, d_j/|d_j|>`` with d_i the
    direction from the hub to anchor i.  Raises ZeroVector for a vanishing
    weight and RankDeficiency when the weights admit a linear relation
    beyond the forced all-equal one.  With m = 1 there are no pairs and the
    margin is infinite.
    """
    v = spec.vectors
    m = spec.m
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector(f"weight vector {int(np.argmin(norms))} is zero")
    if np.linalg.matrix_rank(v) < m:
        raise RankDeficiency("weight vectors span less than the full target space")
    if m == 1:
        return float("inf")
    dirs = (spec.anchors[:m] - spec.anchors[m]) / spec.instance().distances[:m, m, None]
    vhat = v[:m] / norms[:m, None]
    gram_gap = vhat @ vhat.T - dirs @ dirs.T
    iu, ju = np.triu_indices(m, k=1)
    return float(gram_gap[iu, ju].min())


def analytic_optimum(
    spec: CounterexampleSpec,
) -> tuple[PotentialField, VectorCoupling, float]:
    """Closed-form optimal potential, coupling and value of the construction.

    The potential sends the hub to 0 and anchor i to ``|x_i - hub| v_i/|v_i|``;
    the coupling routes every v_i straight to the hub.  Both are optimal
    whenever the margin is positive.
    """
    margin = check_counterexample_spec(spec)
    if not margin > 0:
        raise InvalidSpec(f"strictness margin {margin:.6g} is not positive")
    m = spec.m
    radii = spec.instance().distances[:m, m]
    vnorms = np.linalg.norm(spec.vectors[:m], axis=1)
    values = np.vstack([radii[:, None] * spec.vectors[:m] / vnorms[:, None], np.zeros(m)])
    u = PotentialField(cloud=spec.instance().cloud, values=values)
    pairs = np.column_stack([np.arange(m), np.full(m, m)])
    coupling = VectorCoupling(pairs=pairs, flows=spec.vectors[:m].copy())
    return u, coupling, cost(coupling, spec.instance())


@dataclass(frozen=True)
class TransportSetMass:
    """Net vector mass carried by one maximal transport set."""

    set_id: int
    members: np.ndarray
    mass: np.ndarray
    norm: float


@dataclass(frozen=True)
class MassBalanceReport:
    entries: tuple[TransportSetMass, ...]
    verdict: str
    witness: np.ndarray | None
    tol: float


def mass_balance_report(
    instance: Instance, decomposition: LeafDecomposition, tol: float = 1e-8
) -> MassBalanceReport:
    """Net mass of every maximal transport set, with a balance verdict.

    BalanceHolds when every set's mass norm is at most ``tol`` times the
    instance's total mass scale, BalanceFails otherwise with the first
    offending set as witness.  A negative, infinite or nan ``tol`` raises
    InvalidParameter, and a decomposition whose graph is not on the
    instance's points raises DimensionMismatch.
    """
    tol = _check_tolerance(tol, "tol")
    cloud = decomposition.graph.cloud
    if not _same_cloud(cloud, instance.cloud):
        raise DimensionMismatch("decomposition and instance describe different clouds")
    weights = instance.measure.weights
    scale = instance.measure.mass_scale
    entries = []
    witness = None
    for set_id, members in enumerate(maximal_transport_sets(decomposition)):
        mass = weights[members].sum(axis=0)
        norm = float(np.linalg.norm(mass))
        entries.append(
            TransportSetMass(set_id=set_id, members=members, mass=mass, norm=norm)
        )
        if witness is None and norm > tol * scale:
            witness = members
    verdict = "BalanceHolds" if witness is None else "BalanceFails"
    return MassBalanceReport(
        entries=tuple(entries), verdict=verdict, witness=witness, tol=tol
    )


def marginal_abs_continuity_surrogate(
    coupling: VectorCoupling, instance: Instance, tol: float = 1e-8
) -> bool:
    """Support inclusion of the coupling's marginal in the measure's support.

    True iff every point whose incident flows total more than
    ``tol * tv(coupling)`` carries strictly positive measure mass.  Edge
    orientation is canonical rather than meaningful, so both endpoints
    count toward a point's marginal.  For atomic instances with common
    support this can hold while balance still fails; it becomes informative
    when the coupling routes mass through points the measure does not
    charge.  A ``tol`` that is not finite and nonnegative raises
    InvalidParameter.
    """
    tol = _check_tolerance(tol, "tol")
    node_flow = np.zeros(instance.size)
    flow_norms = np.linalg.norm(coupling.flows, axis=1)
    np.add.at(node_flow, coupling.pairs[:, 0], flow_norms)
    np.add.at(node_flow, coupling.pairs[:, 1], flow_norms)
    carrying = node_flow > tol * total_variation(coupling)
    charged = np.linalg.norm(instance.measure.weights, axis=1) > 0.0
    return bool(np.all(charged[carrying]))


# Sequence points _ball_offsets may draw before it gives up, and the size of
# its largest block.  The budget holds every ball of up to 16 points in up
# to 16 dimensions (the largest, 16 points in 16 dimensions, needs 5,626,823).
_HALTON_BUDGET = 2**23
_HALTON_BLOCK = 2**14


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput points of the given indices, with scipy's float steps:
    digit by digit from the lowest, ``acc += digit * scale; scale /= base``."""
    acc = np.zeros(len(index))
    quotient, scale = index, 1.0 / base
    while quotient.any():
        higher = quotient // base
        acc += (quotient - higher * base) * scale
        quotient, scale = higher, scale / base
    return acc


def _halton(index: np.ndarray, d: int) -> np.ndarray:
    """Points of the unscrambled Halton sequence at the given indices, one
    prime base per dimension: the rows of
    ``scipy.stats.qmc.Halton(d, scramble=False)`` bit for bit."""
    return np.array([_radical_inverse(index, base) for base in _primes(d)]).T


def _ball_offsets(n: int, count: int, radius: float) -> np.ndarray:
    """Center plus low-discrepancy points filling a ball of given radius.

    The points after the center are the first ``count - 1`` points of the
    unscrambled Halton sequence (Halton 1960; bases the first n primes),
    mapped from [0, 1)^n to [-1, 1]^n, that lie in the closed unit ball off
    its center, in sequence order and scaled by ``radius``.  The sequence
    is read in blocks of at most ``_HALTON_BLOCK`` points, one dimension at
    a time, and a point is dropped as soon as its running sum of squares
    leaves the ball; the sums add the dimensions in order, as the row norm
    of a column-major sample does.  In high dimensions hardly any point
    falls inside the ball, so after ``_HALTON_BUDGET`` sequence points
    InvalidSpec is raised.
    """
    bases = _primes(n)
    found: list[np.ndarray] = []
    start, size = 0, min(8 * count, _HALTON_BLOCK)
    while len(found) < count - 1:
        if start == _HALTON_BUDGET:
            raise InvalidSpec(
                f"{count - 1} Halton points inside the unit ball in n = {n} dimensions are "
                f"not among the first {_HALTON_BUDGET} sequence points: lower "
                f"points_per_ball = {count}"
            )
        stop = min(start + size, _HALTON_BUDGET)
        index, squares = np.arange(start, stop), np.zeros(stop - start)
        start, size = stop, min(2 * size, _HALTON_BLOCK)
        for base in bases:
            x = 2.0 * _radical_inverse(index, base) - 1.0
            squares += x * x
            inside = np.sqrt(squares) <= 1.0
            index, squares = index[inside], squares[inside]
            if not index.size:
                break
        found.extend(2.0 * _halton(index[np.sqrt(squares) > 1e-12], n) - 1.0)
    return np.vstack([np.zeros(n), radius * np.array(found[: count - 1]).reshape(-1, n)])


def smoothed_instance(
    spec: CounterexampleSpec, eps: float, points_per_ball: int
) -> Instance:
    """Spread each atom over a ball of radius eps, splitting its vector.

    Every anchor is replaced by the same deterministic low-discrepancy
    point set scaled into its ball, the first point being the center, each
    carrying an equal share of the anchor's vector.  Total mass stays zero.
    With one point per ball this is the atomic instance itself.
    """
    _check_count(points_per_ball, "points_per_ball", InvalidSpec)
    if points_per_ball < 1:
        raise InvalidSpec("points_per_ball must be at least 1")
    if not eps > 0:  # nan fails too
        raise InvalidSpec("eps must be positive")
    gap = spec.instance().distances[np.triu_indices(spec.m + 1, k=1)].min()
    if eps >= 0.5 * gap:
        raise BallOverlap(f"eps = {eps:.6g} reaches half the minimum anchor distance {gap:.6g}")
    offsets = _ball_offsets(spec.n, points_per_ball, eps)
    points = (spec.anchors[:, None, :] + offsets[None, :, :]).reshape(-1, spec.n)
    weights = np.repeat(spec.vectors / points_per_ball, points_per_ball, axis=0)
    return build_instance(points, weights)

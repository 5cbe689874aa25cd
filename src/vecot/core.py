"""Core data types for discrete vector-valued transport problems.

A problem instance is a finite point cloud ``x_0, ..., x_{N-1}`` in R^n
together with one R^m weight vector per point.  The weights are required to
sum to zero componentwise, which is exactly the condition under which
couplings with prescribed marginal difference exist.  Couplings are stored
as sparse edge lists with one R^m flow vector per unordered point pair, and
dual potentials as one R^m value per point.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

__all__ = [
    "ZERO_MASS_RTOL",
    "VecotError",
    "DimensionMismatch",
    "DuplicatePoint",
    "NonzeroTotalMass",
    "WrongDimension",
    "PointCloud",
    "DiscreteVectorMeasure",
    "VectorCoupling",
    "PotentialField",
    "Instance",
    "LipschitzInfo",
    "build_instance",
    "distance_matrix",
    "stretch_ratios",
    "component_labels",
    "marginals",
    "total_variation",
    "cost",
    "pairing",
    "lipschitz_constant",
    "lipschitz_info",
    "instance_to_dict",
    "instance_from_dict",
    "dumps_instance",
    "loads_instance",
]

# Relative tolerance for the zero-total-mass validation, measured against
# the total variation of the weights.
ZERO_MASS_RTOL = 1e-12


class VecotError(Exception):
    """Base class for all validation and computation errors."""


class DimensionMismatch(VecotError):
    """Array shapes are inconsistent with the declared dimensions."""


class DuplicatePoint(VecotError):
    """Two points of a cloud coincide exactly."""


class NonzeroTotalMass(VecotError):
    """The weight vectors do not sum to zero within tolerance."""

    def __init__(self, residual: np.ndarray, scale: float):
        self.residual = np.asarray(residual, dtype=float)
        self.scale = float(scale)
        super().__init__(
            f"total mass residual {self.residual.tolist()} exceeds "
            f"{ZERO_MASS_RTOL:g} * {self.scale:g}"
        )


class WrongDimension(VecotError):
    """An operation received data of an unsupported dimension."""


@dataclass(frozen=True)
class PointCloud:
    """Finite set of pairwise distinct points in R^n.

    Attributes
    ----------
    points : ndarray, shape (N, n)
        Point coordinates, float64.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DimensionMismatch(f"points must be (N, n) with N, n >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DimensionMismatch("points must be finite")
        object.__setattr__(self, "points", pts)
        _check_distinct(pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """Dense pairwise distance matrix, computed on first use."""
        return distance_matrix(self.points)


@dataclass(frozen=True)
class DiscreteVectorMeasure:
    """R^m-valued atomic measure with zero total mass on a point cloud."""

    cloud: PointCloud
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[1] < 1:
            raise DimensionMismatch(f"weights must be (N, m) with m >= 1, got {w.shape}")
        if w.shape[0] != self.cloud.size:
            raise DimensionMismatch(
                f"{self.cloud.size} points but {w.shape[0]} weight rows"
            )
        if not np.all(np.isfinite(w)):
            raise DimensionMismatch("weights must be finite")
        object.__setattr__(self, "weights", w)
        scale = float(np.linalg.norm(w, axis=1).sum())
        residual = w.sum(axis=0)
        if scale > 0.0 and float(np.abs(residual).max()) > ZERO_MASS_RTOL * scale:
            raise NonzeroTotalMass(residual, scale)

    @property
    def size(self) -> int:
        return self.cloud.size

    @property
    def target_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def mass_scale(self) -> float:
        """Sum of Euclidean norms of the weight vectors."""
        return float(np.linalg.norm(self.weights, axis=1).sum())


@dataclass(frozen=True)
class VectorCoupling:
    """Edge list with one R^m flow per unordered point pair.

    The orientation convention is ``(i, j, w) == (j, i, -w)``.  Edges are
    stored canonically with ``i < j``; constructing a coupling with ``i > j``
    entries flips them (negating the flow).  At most one entry per pair.
    """

    pairs: np.ndarray
    flows: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64)
        flows = np.asarray(self.flows, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DimensionMismatch(f"pairs must be (E, 2), got {pairs.shape}")
        if flows.ndim != 2 or flows.shape[0] != pairs.shape[0]:
            raise DimensionMismatch(
                f"flows must be (E, m) matching {pairs.shape[0]} pairs, got {flows.shape}"
            )
        if pairs.shape[0] > 0:
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise DimensionMismatch("self-loops are not allowed")
            if pairs.min() < 0:
                raise DimensionMismatch("negative point index")
            flip = pairs[:, 0] > pairs[:, 1]
            if np.any(flip):
                pairs = pairs.copy()
                flows = flows.copy()
                pairs[flip] = pairs[flip][:, ::-1]
                flows[flip] = -flows[flip]
            keys = pairs[:, 0] * (pairs.max() + 1) + pairs[:, 1]
            if np.unique(keys).size != keys.size:
                raise DimensionMismatch("duplicate unordered pair in coupling")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "flows", flows)

    @property
    def edge_count(self) -> int:
        return self.pairs.shape[0]

    @property
    def target_dim(self) -> int:
        return self.flows.shape[1]


@dataclass(frozen=True)
class PotentialField:
    """One R^m value per point of a cloud (a candidate dual potential)."""

    cloud: PointCloud
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.cloud.size:
            raise DimensionMismatch(
                f"values must be (N, m) with N = {self.cloud.size}, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("potential values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def target_dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Instance:
    """A measure on a point cloud, the unit the solver and certifier take."""

    measure: DiscreteVectorMeasure

    @property
    def cloud(self) -> PointCloud:
        return self.measure.cloud

    @property
    def distances(self) -> np.ndarray:
        """The cloud's pairwise distance matrix (cached on the cloud)."""
        return self.measure.cloud.distances

    @property
    def size(self) -> int:
        return self.measure.size

    @property
    def ambient_dim(self) -> int:
        return self.measure.cloud.ambient_dim

    @property
    def target_dim(self) -> int:
        return self.measure.target_dim


@dataclass(frozen=True)
class LipschitzInfo:
    """Exact Lipschitz constant of a potential over a finite cloud."""

    value: float
    pair: tuple[int, int]
    single_point: bool


def _check_distinct(points: np.ndarray) -> None:
    # Exact duplicate detection via lexicographic sort of rows.
    n = points.shape[0]
    if n < 2:
        return
    order = np.lexsort(points.T[::-1])
    sorted_pts = points[order]
    same = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    if np.any(same):
        k = int(np.argmax(same))
        i, j = sorted((int(order[k]), int(order[k + 1])))
        raise DuplicatePoint(f"points {i} and {j} coincide")


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix with an exactly zero diagonal.

    Rows may be points or potential values; this is the one place that
    forms pairwise norms.
    """
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(d, 0.0)
    return d


def stretch_ratios(values: np.ndarray, distances: np.ndarray):
    """Stretch ``||v_i - v_j|| / d_ij`` of every pair i < j.

    Returns ``(iu, ju, ratios)`` with the pairs in lexicographic order.
    """
    iu, ju = np.triu_indices(distances.shape[0], k=1)
    return iu, ju, distance_matrix(values)[iu, ju] / distances[iu, ju]


def component_labels(n: int, pairs: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by ``pairs``.

    Labels are ordered by smallest member: node 0 has label 0, and each
    new label first appears at a larger node than the previous one.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    # CSR built directly: the (row, col) constructor costs more than the labelling.
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pairs[:, 0], minlength=n))])
    graph = scipy.sparse.csr_matrix((np.ones(len(pairs)), pairs[:, 1], indptr), shape=(n, n))
    return scipy.sparse.csgraph.connected_components(graph, directed=False)[1]


def build_instance(points, weights) -> Instance:
    """Validate raw arrays and assemble an Instance.

    Raises
    ------
    DimensionMismatch
        Shapes are inconsistent or values non-finite.
    DuplicatePoint
        Two rows of ``points`` coincide exactly.
    NonzeroTotalMass
        Componentwise weight sums exceed the zero-mass tolerance; the
        exception carries the residual vector.
    """
    cloud = PointCloud(np.asarray(points, dtype=float))
    measure = DiscreteVectorMeasure(cloud, np.asarray(weights, dtype=float))
    return Instance(measure)


def marginals(coupling: VectorCoupling, n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First marginal, second marginal and their difference.

    ``P1[i]`` collects the flows of edges whose stored first index is ``i``,
    ``P2[j]`` those whose stored second index is ``j``.  The difference
    ``net = P1 - P2`` is the quantity constrained to equal the measure and
    is invariant under the orientation convention.
    """
    m = coupling.target_dim
    p1 = np.zeros((n_points, m))
    p2 = np.zeros((n_points, m))
    if coupling.edge_count:
        np.add.at(p1, coupling.pairs[:, 0], coupling.flows)
        np.add.at(p2, coupling.pairs[:, 1], coupling.flows)
    return p1, p2, p1 - p2


def total_variation(coupling: VectorCoupling) -> float:
    """Total variation: sum of Euclidean norms of the edge flows."""
    if coupling.edge_count == 0:
        return 0.0
    return float(np.linalg.norm(coupling.flows, axis=1).sum())


def cost(coupling: VectorCoupling, instance: Instance) -> float:
    """Transport cost: sum over edges of distance times flow norm."""
    if coupling.edge_count == 0:
        return 0.0
    d = instance.distances[coupling.pairs[:, 0], coupling.pairs[:, 1]]
    return float(np.dot(d, np.linalg.norm(coupling.flows, axis=1)))


def pairing(potential: PotentialField, measure: DiscreteVectorMeasure) -> float:
    """Duality pairing: sum over points of <u_i, mu_i>."""
    if potential.values.shape != measure.weights.shape:
        raise DimensionMismatch(
            f"potential {potential.values.shape} does not match "
            f"weights {measure.weights.shape}"
        )
    return float(np.einsum("ij,ij->", potential.values, measure.weights))


def lipschitz_info(potential: PotentialField) -> LipschitzInfo:
    """Exact Lipschitz constant over all point pairs of the potential's cloud.

    Returns the constant together with the first maximizing pair in
    lexicographic index order.  A single-point cloud has constant 0 by
    convention, reported with ``single_point=True``.
    """
    if potential.cloud.size < 2:
        return LipschitzInfo(0.0, (0, 0), True)
    iu, ju, ratios = stretch_ratios(potential.values, potential.cloud.distances)
    k = int(np.argmax(ratios))
    # argmax returns the first maximizer and (iu, ju) is lexicographic.
    return LipschitzInfo(float(ratios[k]), (int(iu[k]), int(ju[k])), False)


def lipschitz_constant(potential: PotentialField) -> float:
    """Exact Lipschitz constant of the potential (0 for a single point)."""
    return lipschitz_info(potential).value


# ---------------------------------------------------------------------------
# Instance (de)serialization.  The canonical JSON layout is
#   {"n": int, "m": int, "points": [[...]*n]*N, "weights": [[...]*m]*N}
# with keys sorted and floats written in shortest round-trip form, so that
# parse followed by serialize is byte-identical on canonical inputs.
# ---------------------------------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    return {
        "n": instance.ambient_dim,
        "m": instance.target_dim,
        "points": [[float(v) for v in row] for row in instance.cloud.points],
        "weights": [[float(v) for v in row] for row in instance.measure.weights],
    }


def instance_from_dict(doc: dict) -> Instance:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        points = np.asarray(doc["points"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed instance document: {exc}") from exc
    if points.ndim != 2 or points.shape[1] != n:
        raise DimensionMismatch(
            f"points shape {points.shape} inconsistent with n = {n}"
        )
    if weights.ndim != 2 or weights.shape[1] != m:
        raise DimensionMismatch(
            f"weights shape {weights.shape} inconsistent with m = {m}"
        )
    return build_instance(points, weights)


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), sort_keys=True, indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DimensionMismatch(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DimensionMismatch("instance document must be a JSON object")
    return instance_from_dict(doc)

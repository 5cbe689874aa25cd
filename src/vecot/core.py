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
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZERO_MASS_RTOL",
    "VecotError",
    "DimensionMismatch",
    "DuplicatePoint",
    "NonzeroTotalMass",
    "WrongDimension",
    "InvalidParameter",
    "PointCloud",
    "DiscreteVectorMeasure",
    "VectorCoupling",
    "PotentialField",
    "Instance",
    "LipschitzInfo",
    "build_instance",
    "distance_matrix",
    "stretch_ratios",
    "edge_slackness",
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
# The numeric range of an instance: pair distances in [2^-511, 2^512) and a
# mass scale in [2^-511, 2^512) unless every weight is zero.  Then the square
# of every distance and of the mass scale is a normal float, and a value, at
# most the mass scale times the diameter, is finite.
_MIN_SCALE = 2.0**-511
_MAX_MASS_SCALE = 2.0**512


class VecotError(Exception):
    """Base class for all validation and computation errors."""


class DimensionMismatch(VecotError):
    """Array shapes are inconsistent with the declared dimensions."""


class DuplicatePoint(VecotError):
    """Two points of a cloud coincide exactly, or their distance underflows to 0."""


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


class InvalidParameter(VecotError, ValueError):
    """A tolerance or count argument is out of its range."""


def _check_count(value, name: str, error: type[VecotError] = InvalidParameter) -> None:
    """Raise ``error`` unless a count argument is a Python or numpy integer;
    a bool, though an int subclass, is no count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")


def _check_tolerance(value, name: str, positive: bool = False) -> float:
    """A tolerance argument as a float; InvalidParameter unless it is finite
    and at least 0, or above 0 when ``positive``."""
    tol = float(value)
    if not (math.isfinite(tol) and (tol > 0.0 if positive else tol >= 0.0)):
        bound = "positive" if positive else "nonnegative"
        raise InvalidParameter(f"{name} must be finite and {bound}, got {value!r}")
    return tol


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
        if (pair := _first_duplicate(pts)) is not None:
            raise DuplicatePoint("points {} and {} coincide".format(*pair))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """Dense pairwise distance matrix, computed on first use.  Raises
        DuplicatePoint if a distance between two points underflows to 0.0,
        and DimensionMismatch if one overflows to inf or lies below 2^-511."""
        with np.errstate(over="ignore"):  # reported below, with the pair
            d = distance_matrix(self.points)
        if np.count_nonzero(d) < self.size * (self.size - 1):
            i, j = np.argwhere(np.triu(d == 0.0, 1))[0].tolist()
            raise DuplicatePoint(f"points {i} and {j} are at distance 0.0")
        if np.isinf(d).any():
            i, j = np.argwhere(np.triu(np.isinf(d), 1))[0].tolist()
            raise DimensionMismatch(f"the distance between points {i} and {j} overflows to inf")
        if np.count_nonzero(d < _MIN_SCALE) > self.size:
            i, j = np.argwhere(np.triu(d < _MIN_SCALE, 1))[0].tolist()
            raise DimensionMismatch(
                f"the distance {d[i, j]:.6g} between points {i} and {j} is below 2^-511"
            )
        return d


@dataclass(frozen=True)
class DiscreteVectorMeasure:
    """R^m-valued atomic measure with zero total mass on a point cloud.

    Its mass scale must lie in [2^-511, 2^512), where its square is a normal
    float, unless every weight is zero; DimensionMismatch otherwise.
    """

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
        with np.errstate(over="ignore"):  # an overflow is refused below
            scale = self.mass_scale
        if not scale < _MAX_MASS_SCALE:
            raise DimensionMismatch(f"the mass scale {scale:.6g} is not below 2^512")
        if scale < _MIN_SCALE and w.any():
            raise DimensionMismatch(f"the mass scale {scale:.6g} of nonzero weights is below 2^-511")
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


def _point_indices(a, what: str, below: int) -> np.ndarray:
    """``a`` as int64 point indices; DimensionMismatch unless each is an integer,
    or an integer-valued float, in [0, below), compared exactly before any cast."""
    a = np.asarray(a)
    kind = a.dtype.kind
    valid = kind in "iu" or kind == "f" and bool((np.isfinite(a) & (a == np.floor(a))).all())
    if not (valid and (a.size == 0 or 0 <= a.min().item() and a.max().item() < below)):
        raise DimensionMismatch(f"{what} must be integer point indices in [0, {below})")
    return a.astype(np.int64)


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
        pairs = _point_indices(self.pairs, "pairs", 2**63)
        flows = np.asarray(self.flows, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DimensionMismatch(f"pairs must be (E, 2), got {pairs.shape}")
        if flows.ndim != 2 or flows.shape[0] != pairs.shape[0]:
            raise DimensionMismatch(
                f"flows must be (E, m) matching {pairs.shape[0]} pairs, got {flows.shape}"
            )
        if not np.all(np.isfinite(flows)):
            raise DimensionMismatch("flows must be finite")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise DimensionMismatch("self-loops are not allowed")
        flip = pairs[:, 0] > pairs[:, 1]
        if np.any(flip):
            flows = flows.copy()
            pairs[flip] = pairs[flip][:, ::-1]
            flows[flip] = -flows[flip]
        if (rows := _first_duplicate(pairs)) is not None:
            i, j = pairs[rows[0]].tolist()
            raise DimensionMismatch(f"duplicate unordered pair ({i}, {j}) in coupling")
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


def _same_cloud(a: PointCloud, b: PointCloud) -> bool:
    """Whether two clouds hold the same points, in the same order."""
    return a is b or np.array_equal(a.points, b.points)


def _check_solution(instance: Instance, coupling: VectorCoupling, potential: PotentialField):
    """Raise DimensionMismatch unless the coupling and the potential live on
    the instance (its points, target dimension m and point indices) and are
    still finite: their arrays may have changed since construction."""
    m = instance.target_dim
    if not (np.all(np.isfinite(coupling.flows)) and np.all(np.isfinite(potential.values))):
        raise DimensionMismatch("flows and potential values must be finite")
    if coupling.target_dim != m:
        raise DimensionMismatch(f"coupling dimension {coupling.target_dim} != measure {m}")
    if potential.target_dim != m:
        raise DimensionMismatch(f"potential dimension {potential.target_dim} != measure {m}")
    if coupling.edge_count and int(coupling.pairs.max()) >= instance.size:
        raise DimensionMismatch("coupling references a point outside the instance")
    if not _same_cloud(potential.cloud, instance.cloud):
        raise DimensionMismatch("potential and instance describe different clouds")


@dataclass(frozen=True)
class LipschitzInfo:
    """Exact Lipschitz constant of a potential over a finite cloud."""

    value: float
    pair: tuple[int, int]
    single_point: bool


def _first_duplicate(rows: np.ndarray) -> tuple[int, int] | None:
    """The indices ``i < j`` of the first two equal rows, as neighbours after
    a stable lexicographic sort, or None when all rows differ."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    same = (ordered[1:] == ordered[:-1]).all(axis=1)
    if not same.any():
        return None
    k = int(np.argmax(same))
    return tuple(sorted(order[k : k + 2].tolist()))


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix with an exactly zero diagonal.

    Rows may be points or potential values; the norms are ``_row_norms``
    of the pair differences, which are filled one axis at a time: a
    broadcast subtraction of (n, 1, k) and (1, n, k) runs an inner loop of
    only k elements.
    """
    pts = np.asarray(points, dtype=float)
    n, k = pts.shape
    diff = np.empty((n, n, k))
    for a in range(k):
        np.subtract.outer(pts[:, a], pts[:, a], out=diff[:, :, a])
    d = _row_norms(diff.reshape(n * n, k)).reshape(n, n)
    np.fill_diagonal(d, 0.0)
    return d


def _row_norms(du: np.ndarray) -> np.ndarray:
    """Norms of the rows of ``du``: the one pair-norm kernel, which sums each
    norm in one order, so a pair's norm has the same bits wherever it is formed."""
    sq = _einsum("ij,ij->i", du, du)
    return np.sqrt(sq, out=sq)


def stretch_ratios(values: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Stretches ``_row_norms(v_i - v_j) / d_ij``, one symmetric n x n matrix.

    Its diagonal is ``-inf``.  This is the one layout of pair scans, and
    callers rely on two rules: the first maximum of ``np.argmax(ratios)``, in
    row-major order, is the lexicographically first maximizing pair i < j;
    and the flat index ``i * n + j`` of the upper triangle is the pair key.
    """
    ratios = distance_matrix(values)
    with np.errstate(invalid="ignore"):  # 0 / 0 on the diagonal
        np.divide(ratios, distances, out=ratios)
    np.fill_diagonal(ratios, -np.inf)
    return ratios


def edge_slackness(pairs, flows, values, distances, tol: float):
    """Slackness of the edges whose flow norm exceeds ``tol`` times the total.

    Returns their indices into ``pairs``, flow norms, saturations
    ``||u_i - u_j|| / d_ij`` and alignments ``<u_i - u_j, flow> / (d_ij
    ||flow||)``, saturations with the bits of ``stretch_ratios``.
    Optimality needs both ratios at least ``1 - tol``.
    """
    norms = np.linalg.norm(flows, axis=1)
    # A Python float, so that a threshold past the float range is inf without a warning.
    edges = np.flatnonzero(norms > tol * float(norms.sum()))
    i, j = pairs[edges, 0], pairs[edges, 1]
    d = distances[i, j]
    du = values[i] - values[j]
    saturation = _row_norms(du) / d
    alignment = np.einsum("ij,ij->i", du, flows[edges]) / (d * norms[edges])
    return edges, norms[edges], saturation, alignment


def component_labels(n: int, pairs: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by ``pairs``.

    Labels are ordered by smallest member: node 0 has label 0, and each
    new label first appears at a larger node than the previous one.  Each
    round hooks the larger root of every pair joining two trees to the
    smallest root it meets, then jumps pointers to the roots; a component's
    trees at least halve per round, and its last root is its smallest member.
    """
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    root = np.arange(n)
    while (split := root[i] != root[j]).any():
        ri, rj = root[i[split]], root[j[split]]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while ((up := root[root]) != root).any():
            root = up
    return (np.cumsum(root == np.arange(n)) - 1)[root]


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
    np.add.at(p1, coupling.pairs[:, 0], coupling.flows)
    np.add.at(p2, coupling.pairs[:, 1], coupling.flows)
    return p1, p2, p1 - p2


def total_variation(coupling: VectorCoupling) -> float:
    """Total variation: sum of Euclidean norms of the edge flows."""
    return float(np.linalg.norm(coupling.flows, axis=1).sum())


def cost(coupling: VectorCoupling, instance: Instance) -> float:
    """Transport cost: sum over edges of distance times flow norm."""
    d = instance.distances[coupling.pairs[:, 0], coupling.pairs[:, 1]]
    return _dot(d, np.linalg.norm(coupling.flows, axis=1))


try:
    # The kernel behind np.einsum, which calls it as is when ``optimize`` is
    # False (its default): the same sums without the Python dispatch, which
    # costs more than the sum on the interior-point engine's small arrays.
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # a numpy that has moved it
    _einsum = np.einsum


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product summed in a fixed order: OpenBLAS splits ``np.dot`` and
    whole-array norms over its threads, which changes the rounding."""
    return float(_einsum("i,i->", a.ravel(), b.ravel()))


def pairing(potential: PotentialField, measure: DiscreteVectorMeasure) -> float:
    """Duality pairing: sum over points of <u_i, mu_i>."""
    if potential.values.shape != measure.weights.shape:
        raise DimensionMismatch(
            f"potential {potential.values.shape} does not match "
            f"weights {measure.weights.shape}"
        )
    return float(np.einsum("ij,ij->", potential.values, measure.weights))


def _values(instance: Instance, coupling: VectorCoupling, potential: PotentialField):
    """``(cost, pairing, ||net(coupling) - mu||_F)`` in original units: the one
    arithmetic behind the values that ``solve`` reports and ``certify`` checks."""
    residual = marginals(coupling, instance.size)[2] - instance.measure.weights
    primal, dual = cost(coupling, instance), pairing(potential, instance.measure)
    return primal, dual, float(np.sqrt(_dot(residual, residual)))


def lipschitz_info(potential: PotentialField) -> LipschitzInfo:
    """Exact Lipschitz constant over all point pairs of the potential's cloud.

    Returns the constant together with the first maximizing pair in
    lexicographic index order.  A single-point cloud has constant 0 by
    convention, reported with ``single_point=True``.
    """
    if potential.cloud.size < 2:
        return LipschitzInfo(0.0, (0, 0), True)
    ratios = stretch_ratios(potential.values, potential.cloud.distances)
    i, j = divmod(int(np.argmax(ratios)), potential.cloud.size)
    return LipschitzInfo(float(ratios[i, j]), (i, j), False)


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
        "points": instance.cloud.points.tolist(),
        "weights": instance.measure.weights.tolist(),
    }


def _json_numbers(value, what: str) -> np.ndarray:
    """A JSON array of finite numbers, nested to any depth, as a float array.

    Only JSON integers and floats are numbers: a string, boolean, null or
    object anywhere in ``value``, ragged nesting, or a NaN or infinity
    (which JSON cannot write) raises DimensionMismatch.
    """
    level, widths = value, []
    try:
        while type(level) is list and level and type(level[0]) is list:
            (width,) = set(map(len, level))  # ValueError when ragged
            widths.append(width)
            level = list(itertools.chain.from_iterable(level))
        if type(level) is list and set(map(type, level)) <= {int, float}:
            array = np.array(level, dtype=float).reshape(len(value), *widths)
            if np.isfinite(array).all():
                return array
    except (TypeError, ValueError, OverflowError):
        pass
    raise DimensionMismatch(f"{what} must be an array of finite numbers")


# ---------------------------------------------------------------------------
# Document writer.  With an indent, ``json.dumps`` runs json's pure-Python
# encoder, one generator step per number; ``_dumps`` writes the same bytes and
# joins each list of numbers, or of equal rows of numbers, in one call.
# ---------------------------------------------------------------------------

_NUMBERS = {float, int}
_ROWS = {list, tuple}
_ascii = json.encoder.encode_basestring_ascii
# The values _dumps does not write itself go to the stdlib call it reproduces,
# which raises json's own TypeError, or its indent encoder's ValueError text
# for a NaN or infinity.
_json_dumps = functools.partial(json.dumps, sort_keys=True, indent=2, allow_nan=False)


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``, byte for
    byte, and the same exception for a value it cannot write (on documents
    without reference cycles)."""
    return _encode(doc, "\n")


def _encode(x, nl: str) -> str:
    """``x`` laid out as json's indent=2 encoder does; ``nl`` is a newline and
    the indent of the line ``x`` starts on."""
    write = _WRITERS.get(type(x))
    if write is None:  # a subclass (np.float64, IntEnum) takes its base's writer
        write = next((_WRITERS[t] for t in type(x).__mro__ if t in _WRITERS), None)
    return _json_dumps(x) if write is None else write(x, nl)


def _float(x: float, nl: str) -> str:
    return float.__repr__(x) if math.isfinite(x) else _json_dumps(x)


def _list(x, nl: str) -> str:
    if not x:
        return "[]"
    inner = nl + "  "
    body = _numbers(x, inner)
    if body is None:
        body = ("," + inner).join([_encode(v, inner) for v in x])
    return "[" + inner + body + nl + "]"


def _dict(x: dict, nl: str) -> str:
    if not x:
        return "{}"
    inner = nl + "  "
    items = [
        # json writes a non-string key as the text of its value.
        _ascii(k if isinstance(k, str) else next(iter(json.loads(_json_dumps({k: 0})))))
        + ": "
        + _encode(v, inner)
        for k, v in sorted(x.items())
    ]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


_WRITERS = {
    str: lambda x, nl: _ascii(x),
    type(None): lambda x, nl: "null",
    bool: lambda x, nl: "true" if x else "false",
    int: lambda x, nl: int.__repr__(x),
    float: _float,
    list: _list,
    tuple: _list,
    dict: _dict,
}


def _numbers(items, nl: str) -> str | None:
    """The items of a list of finite ``float`` and ``int`` values, or of equal,
    non-empty rows of them, laid out as ``_encode`` lays them out after ``nl``;
    None for any other list, which ``_encode`` then writes item by item."""
    kinds = set(map(type, items))
    try:
        if kinds <= _NUMBERS:
            body = ("," + nl).join(map(repr, items))
        elif kinds <= _ROWS and len(set(map(len, items))) == 1 and items[0]:
            flat = list(itertools.chain.from_iterable(items))
            if not set(map(type, flat)) <= _NUMBERS:
                return None
            width, row_nl = len(items[0]), nl + "  "
            seps = ["," + row_nl] * (len(flat) - 1)
            seps[width - 1 :: width] = [nl + "]," + nl + "[" + row_nl] * (len(items) - 1)
            parts = [""] * (2 * len(flat) - 1)
            parts[::2] = map(repr, flat)
            parts[1::2] = seps
            body = "[" + row_nl + "".join(parts) + nl + "]"
        else:
            return None
    except ValueError:  # an int too long to print: raise it in json's order
        return None
    return None if "n" in body else body  # "nan", "inf": json raises for them


def instance_from_dict(doc: dict) -> Instance:
    try:
        n, m, points, weights = doc["n"], doc["m"], doc["points"], doc["weights"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed instance document: {exc}") from exc
    if type(n) is not int or type(m) is not int:
        raise DimensionMismatch(f"n and m must be integers, got {n!r} and {m!r}")
    points, weights = _json_numbers(points, "points"), _json_numbers(weights, "weights")
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
    return _dumps(instance_to_dict(instance)) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DimensionMismatch(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DimensionMismatch("instance document must be a JSON object")
    return instance_from_dict(doc)

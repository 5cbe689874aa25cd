"""Leaf decomposition of a Lipschitz vector potential on a point sample.

A 1-Lipschitz map u restricted to a set S is an isometry exactly when every
pair of points in S has ``||u(x) - u(y)|| = ||x - y||``.  The maximal such
sets (leaves) are affine: u acts on a leaf as T(y - y0) + b with T a linear
isometry of the leaf's tangent space into R^m.  On a finite sample we build
the graph of distance-saturating pairs and read the leaves off its maximal
cliques.  At m = 1 a set on which u is an isometry is collinear and ordered
by u, a transport ray, so every clique is a leaf.  At m >= 2 a clique is a
leaf when an affine isometry fits it within eps, and one that does not
gives way to its subsets.  The fit is orthogonal Procrustes on numpy's
stacked SVD, the same path for one set as for many.  Each leaf keeps its
affine isometry and, for every member, the distance to the sampled leaf
boundary, read from the fit's tangent coordinates; only a hull (a leaf of
dimension r >= 2 with more than r + 1 members) loads scipy.  Points shared
by two leaves are branch points; they are flagged and transport sets do not
expand through them.

Everything here is deterministic: ties are broken by point index and leaves
are ordered by their member tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DimensionMismatch,
    PointCloud,
    PotentialField,
    VecotError,
    WrongDimension,
    _check_tolerance,
    _point_indices,
    _same_cloud,
    component_labels,
    stretch_ratios,
)

__all__ = [
    "NotLipschitz",
    "DegenerateLeaf",
    "TooManyCliques",
    "IsometryGraph",
    "Leaf",
    "LeafDecomposition",
    "isometry_graph",
    "extract_leaves",
    "affine_isometry_fit",
    "strengthened_lipschitz_residual",
    "derivative_modulus_check",
    "transport_set",
    "maximal_transport_sets",
    "reconstructed_potential",
]

# Singular values below this fraction of the largest are treated as zero
# when estimating tangent-space dimension.
_RANK_RTOL = 1e-7


class NotLipschitz(VecotError):
    """The potential exceeds the Lipschitz bound the graph would assume."""


class DegenerateLeaf(VecotError):
    """A leaf lacks the data a diagnostic needs (e.g. a non-member index)."""


class TooManyCliques(VecotError):
    """The saturation graph's cliques are too many to be leaves: eps is too large."""


@dataclass(frozen=True)
class IsometryGraph:
    """Pairs (i, j), i < j, with ||u_i - u_j|| >= (1 - eps) * d_ij, for a finite eps > 0.

    ``edges`` must be integer-valued with 0 <= i < j < n, else
    DimensionMismatch; it is stored as an (E, 2) int array.
    """

    cloud: PointCloud
    edges: np.ndarray
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "eps", _check_tolerance(self.eps, "eps", positive=True))
        e = _point_indices(self.edges, "edges", self.cloud.size)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise DimensionMismatch(f"edges must be (E, 2) point indices, got shape {e.shape}")
        if not (e[:, 0] < e[:, 1]).all():
            raise DimensionMismatch("edges must be pairs i < j")
        object.__setattr__(self, "edges", e)

    def adjacency(self) -> np.ndarray:
        """Symmetric boolean adjacency matrix."""
        n = self.cloud.size
        adj = np.zeros((n, n), dtype=bool)
        adj[self.edges[:, 0], self.edges[:, 1]] = True
        adj[self.edges[:, 1], self.edges[:, 0]] = True
        return adj


@dataclass(frozen=True)
class Leaf:
    """A validated isometry set with its fitted affine map.

    The map sends a member y to ``map_matrix @ (y - base_point) + offset``.
    ``map_matrix`` already includes the projection onto the fitted tangent
    space, so it doubles as the derivative of u on the leaf.  ``sigma`` holds
    one entry per member: the estimated distance, inside the tangent space,
    from the member to the boundary of the sampled leaf.  Boundary members
    get 0; the estimate errs low, never high.
    """

    member_indices: np.ndarray
    points: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    dimension: int
    tangent: np.ndarray = field(repr=False)
    map_matrix: np.ndarray = field(repr=False)
    base_point: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)
    fit_residual: float
    sigma: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.member_indices)

    @property
    def projection(self) -> np.ndarray:
        """Orthogonal projection onto the fitted tangent space."""
        return self.tangent @ self.tangent.T

    def member_position(self, point_index: int) -> int:
        pos = np.searchsorted(self.member_indices, point_index)
        if pos >= self.size or self.member_indices[pos] != point_index:
            raise DegenerateLeaf(f"point {point_index} is not a member of this leaf")
        return int(pos)


@dataclass(frozen=True)
class LeafDecomposition:
    """All leaves plus a total assignment of points to leaves.

    Leaves may share members (branch points).  ``assignment`` resolves each
    point to the lexicographically smallest leaf containing it, so the
    assigned member sets partition the sample.  ``boundary_flags`` lists the
    shared points.
    """

    graph: IsometryGraph
    leaves: tuple[Leaf, ...]
    assignment: np.ndarray
    boundary_flags: np.ndarray


def isometry_graph(u: PotentialField, eps: float = 1e-6) -> IsometryGraph:
    """Collect the pairs the potential maps isometrically, within eps.

    Raises NotLipschitz if some pair stretches by more than ``1 + eps``;
    the saturation graph of a non-Lipschitz map would be meaningless.
    """
    ratios = stretch_ratios(u.values, u.cloud.distances)
    edges = np.argwhere(ratios >= 1.0 - eps)  # symmetric: keep each pair once, as i < j
    graph = IsometryGraph(cloud=u.cloud, edges=edges[edges[:, 0] < edges[:, 1]], eps=eps)
    if float(ratios.max()) > 1.0 + eps:
        i, j = divmod(int(np.argmax(ratios)), u.cloud.size)
        raise NotLipschitz(f"pair ({i}, {j}) stretches by {ratios[i, j]:.6g}")
    return graph


def affine_isometry_fit(
    points: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best affine isometry ``y -> T(y - y0) + b`` for value samples.

    ``y0`` is the centroid of ``points`` and ``b`` the centroid of
    ``values``; T solves the orthogonal Procrustes problem restricted to the
    span of the centered points, so ``T^T T`` is the projection onto that
    span.  Returns ``(T, b, residual)`` with residual the RMS misfit; it is
    zero exactly when the samples are genuinely isometric.  Raises
    DimensionMismatch unless they are finite (k, n) and (k, m) arrays, k >= 1.
    """
    points, values = np.asarray(points, float), np.asarray(values, float)
    shaped = points.ndim == values.ndim == 2 and 0 < len(points) == len(values)
    if not (shaped and np.isfinite(points).all() and np.isfinite(values).all()):
        raise DimensionMismatch(
            f"need finite (k, n) points, (k, m) values, k >= 1; got {points.shape}, {values.shape}"
        )
    T, b, _, residual, _, _, _ = _fits(points[None], values[None])[0]
    return T, b, residual


def _fits(points: np.ndarray, values: np.ndarray, max_rank: int | None = None) -> list[tuple]:
    """The Procrustes fit of each set of a (K, k, n) point and (K, k, m)
    value stack, as ``(T, b, y0, residual, rank, tangent, coords)`` with
    ``coords`` the members' (k, rank) tangent coordinates.  Each set gets the
    bits of its own call: every step reduces, decomposes (numpy's LAPACK
    ``dgesdd``) or multiplies the matrices one by one.  The sets of one
    tangent rank share the tangent and rotation steps.  A set keeps at most
    ``max_rank`` tangent directions, its leading ones, when given.
    """
    k, m = values.shape[-2:]  # mean and norm below are spelled as the reductions they run
    y0 = np.add.reduce(points, axis=-2) / k
    b = np.add.reduce(values, axis=-2) / k
    centered, target = points - y0[:, None], values - b[:, None]
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    # above the tolerance of each set's largest singular value; no rank when all are 0
    ranks = np.count_nonzero(svals > _RANK_RTOL * svals[..., :1], axis=-1)
    if max_rank is not None:
        ranks = np.minimum(ranks, max_rank)
    groups: dict[int, list[int]] = {}
    for i, rank in enumerate(ranks.tolist()):
        groups.setdefault(rank, []).append(i)
    fits: list = [None] * len(ranks)
    for rank, group in groups.items():
        sel = ... if len(groups) == 1 else group
        tangent = vt[sel, :rank, :].swapaxes(-1, -2)
        coords, residue = centered[sel] @ tangent, target[sel]
        if rank:
            uc, _, vct = np.linalg.svd(residue.swapaxes(-1, -2) @ coords, full_matrices=False)
            rot = uc @ vct
        else:
            rot = np.zeros((len(group), m, 0))
        tmap = rot @ tangent.swapaxes(-1, -2)
        misfit = residue - coords @ rot.swapaxes(-1, -2)
        errors = np.sqrt(np.add.reduce(misfit * misfit, axis=-1))
        sums = (np.add.reduce(errors * errors, axis=-1) / k).tolist()
        for i, fit_map, fit_tangent, fit_coords, total in zip(group, tmap, tangent, coords, sums):
            fits[i] = (fit_map, b[i], y0[i], math.sqrt(total), rank, fit_tangent, fit_coords)
    return fits


def _boundary_distances(coords: np.ndarray) -> np.ndarray:
    """Per-member distance to the sampled boundary in tangent coordinates,
    for one leaf's (k, r) coordinates or for a (G, k, r) stack of leaves.

    Dimension 0 and a simplex (r + 1 members, all vertices) give zeros,
    dimension 1 uses the interval ends, and higher dimensions use the facets
    of each leaf's convex hull; a hull Qhull cannot build gives zeros.  The
    estimate is conservative: understating sigma only weakens diagnostics,
    never invalidates them.
    """
    k, r = coords.shape[-2:]
    if r == 0 or k <= r + 1:
        return np.zeros(coords.shape[:-1])
    if r == 1:
        c = coords[..., 0]
        return np.minimum(c - c.min(axis=-1, keepdims=True), c.max(axis=-1, keepdims=True) - c)
    if coords.ndim > 2:
        return np.array([_boundary_distances(c) for c in coords])
    from scipy.spatial import ConvexHull, QhullError  # deferred: keeps it out of `import vecot`

    try:
        hull = ConvexHull(coords)
    except (QhullError, ValueError):
        return np.zeros(k)
    # equations rows are (normal, offset) with normal . x + offset <= 0 inside
    gaps = -(coords @ hull.equations[:, :-1].T + hull.equations[:, -1])
    return np.maximum(gaps.min(axis=1), 0.0)


def _maximal_cliques(n: int, edges: np.ndarray, limit: int) -> tuple[list[tuple[int, ...]], int]:
    """Every maximal clique of the graph on n points with these edges, as a
    sorted member tuple, and the steps taken: Bron-Kerbosch with Tomita's
    pivot, iterative, so a clique of any size needs no recursion.

    Neighbours are the bits of a Python int, so a repeated pair sets its bit
    twice.  Each clique is listed from its smallest member, whose later
    neighbours are the candidates and earlier ones the excluded.  The pivot
    is the first point, in index order, adjacent to every candidate but
    itself, or else the first with the most candidate neighbours.  A step is
    a node, a pivot tried or a member listed.  Where every pair lies in at
    most c maximal cliques, the search takes at most 2n + 8cE steps for E
    pairs.  It stops once it passes ``limit``, with the cliques listed so far.
    """
    bits = np.zeros((n, n // 8 + 1), dtype=np.uint8)
    for i, j in ((edges[:, 0], edges[:, 1]), (edges[:, 1], edges[:, 0])):
        np.bitwise_or.at(bits, (i, j >> 3), np.left_shift(1, j & 7).astype(np.uint8))
    adj = [int.from_bytes(row, "little") for row in bits]
    cliques, steps = [], 0
    for v, row in enumerate(adj):
        later = row >> v + 1 << v + 1
        if not later:  # v is the largest member of every clique it is in
            cliques += [] if row else [(v,)]
            continue
        stack = [((v, None), later, row ^ later)]  # members as a chain (last, rest)
        while stack and steps <= limit:
            steps += 1
            chain, cand, excl = stack.pop()
            if not cand:
                if not excl:
                    members = []
                    while chain:
                        w, chain = chain
                        members.append(w)
                    steps += len(members)
                    cliques.append(tuple(sorted(members)))
                continue
            best, size, pool = -1, cand.bit_count(), excl | cand
            while pool:
                steps += 1
                p = (pool & -pool).bit_length() - 1  # the lowest point left
                pool &= pool - 1
                if (count := (cand & adj[p]).bit_count()) > best:
                    best, pivot = count, p
                    if count == size - (cand >> p & 1):  # adjacent to every other candidate
                        break
            branch = cand & ~adj[pivot]
            while branch:
                w = (branch & -branch).bit_length() - 1
                branch &= branch - 1
                stack.append(((w, chain), cand & adj[w], excl & adj[w]))
                cand ^= 1 << w
                excl |= 1 << w
        if stack:
            break
    return cliques, steps


def _diameters(dist: np.ndarray, idx: np.ndarray) -> list[float]:
    """The diameter of each member set of a (K, k) stack, read in blocks of
    about a million distances."""
    rows = max(1, 2**20 // idx.shape[1] ** 2)
    blocks = (idx[i : i + rows] for i in range(0, len(idx), rows))
    return [d for b in blocks for d in dist[b[:, :, None], b[:, None, :]].max(axis=(1, 2)).tolist()]


def _clique_fits(graph: IsometryGraph, vals: np.ndarray) -> dict:
    """``{members: fit}`` over the leaves, each member set fitted once, in a
    stack of its size, with at most m tangent directions.

    The candidates are the maximal cliques of the graph.  At m = 1 each one
    is a ray, so a leaf.  At m >= 2 a candidate is a leaf when its fit
    residual is at most eps times its diameter; one of k members that fails
    gives way to its (k - 1)-member subsets that no leaf holds yet.  The
    candidates go largest first, so no leaf lies inside another.  A pair of
    the graph fits within eps / 2 of its length, bar rounding, and is a leaf
    whenever it is a candidate, so every pair of the graph lies in a leaf.

    The clique search and the splits share one budget of 4n + 16mE steps:
    twice the search where every pair lies in at most m maximal cliques.  At
    m = 1 every pair lies in one, a ray; at m >= 2 two leaves can share a
    segment.  A failed candidate of k members costs k (k - 1)^2 steps, the
    distances its subsets' diameters read, so the splits' work is bounded
    too.  An eps large against the spacing of the cloud can make the
    cliques, or the failing subsets of one, exponentially many (2^k for
    u = x on the 2 x k unit lattice at eps 0.3): past the budget,
    TooManyCliques.
    """
    cloud, eps, m = graph.cloud, graph.eps, vals.shape[1]
    limit = 4 * cloud.size + 16 * m * len(graph.edges)
    cliques, steps = _maximal_cliques(cloud.size, graph.edges, limit)
    pool: dict[int, dict] = {}
    for clique in cliques:
        pool.setdefault(len(clique), {})[clique] = None
    fits, holders = {}, [0] * cloud.size  # holders[p]: the leaves holding p, as bits
    while pool and steps <= limit:
        k = max(pool)
        sets = list(pool.pop(k))
        idx = np.array(sets)
        stack = _fits(cloud.points[idx], vals[idx], max_rank=m)
        if m == 1:
            fits.update(zip(sets, stack))
            continue
        diameters = _diameters(cloud.distances, idx)
        failed = []
        for members, fit, diameter in zip(sets, stack, diameters):
            if k <= 2 or fit[3] <= eps * diameter:  # floats: eps * diameter may be inf, not a warning
                for p in members:
                    holders[p] |= 1 << len(fits)
                fits[members] = fit
            else:
                failed.append(members)
        for members in failed:
            steps += k * (k - 1) ** 2
            if steps > limit:
                break
            for j in range(k):
                subset = members[:j] + members[j + 1 :]
                held = holders[subset[0]]
                for p in subset[1:]:
                    held &= holders[p]
                if not held:
                    pool.setdefault(k - 1, {})[subset] = None
    if steps > limit:
        what = "ray" if m == 1 else f"leaf of dimension {m} or less"
        raise TooManyCliques(f"the clique search passed {limit} steps: no {what} holds the cliques")
    return fits


def extract_leaves(graph: IsometryGraph, u: PotentialField) -> LeafDecomposition:
    """The leaves of the potential ``u`` on its saturation graph ``graph``.

    They come from the maximal cliques of ``graph`` (``_clique_fits``).  At
    m = 1 every clique is a leaf: a set on which u is an isometry into the
    line is collinear and ordered by u, a transport ray.  At m >= 2 a clique
    is a leaf when its affine fit has a residual of at most eps times its
    diameter, and one that fails is split into its subsets one member
    smaller until they pass.  A fit keeps at most m tangent directions, so a
    near-collinear clique at m = 1 reports dimension 1.

    At every m no leaf lies inside another, and every pair of the graph lies
    in a leaf; each flow edge of ``solve``'s coupling saturates, so it lies
    in a leaf at the default eps.  At m >= 2 no point adjacent to every
    member of a leaf fits with it.  Where eps is so large that the cliques
    are too many to be leaves, TooManyCliques.  The leaves of one size and
    dimension are built as one stack, their boundary distances read from
    the tangent coordinates of their fits.
    """
    cloud = graph.cloud
    if not _same_cloud(u.cloud, cloud):
        raise DimensionMismatch("potential and graph describe different clouds")
    n, pts, vals = cloud.size, cloud.points, u.values
    fits = _clique_fits(graph, vals)

    member_sets, shapes, built = sorted(fits), {}, {}
    for s in member_sets:
        shapes.setdefault((len(s), fits[s][4]), []).append(s)
    for sets in shapes.values():  # the leaves of one size and dimension, as one stack
        idx, group = np.array(sets, dtype=int), [fits[s] for s in sets]
        points, values = pts[idx], vals[idx]
        sigma = _boundary_distances(np.stack([fit[6] for fit in group]))
        for j, (tmap, b, y0, residual, rank, tangent, _) in enumerate(group):
            built[sets[j]] = Leaf(
                member_indices=idx[j], points=points[j], values=values[j], dimension=rank,
                tangent=tangent, map_matrix=tmap, base_point=y0, offset=b, fit_residual=residual,
                sigma=sigma[j],
            )
    leaves = tuple(built[s] for s in member_sets)
    # minimum.at, not assignment: numpy does not say which repeated-index write wins.
    flat = np.concatenate(member_sets)
    leaf_ids = np.repeat(np.arange(len(member_sets)), [len(s) for s in member_sets])
    assignment = np.full(n, len(member_sets), dtype=int)
    np.minimum.at(assignment, flat, leaf_ids)
    boundary = np.flatnonzero(np.bincount(flat, minlength=n) >= 2)
    return LeafDecomposition(
        graph=graph, leaves=leaves, assignment=assignment, boundary_flags=boundary
    )


def _pair_slack(leaf1: Leaf, leaf2: Leaf, x1_idx: int, x2_idx: int):
    """``(||dx||^2 - ||du||^2, s1, s2)`` for a member of each leaf: the plain
    Lipschitz slack of the pair and the members' boundary distances."""
    p1 = leaf1.member_position(x1_idx)
    p2 = leaf2.member_position(x2_idx)
    dx = leaf1.points[p1] - leaf2.points[p2]
    du = leaf1.values[p1] - leaf2.values[p2]
    return float(dx @ dx - du @ du), float(leaf1.sigma[p1]), float(leaf2.sigma[p2])


def strengthened_lipschitz_residual(
    leaf1: Leaf, leaf2: Leaf, x1_idx: int, x2_idx: int
) -> float:
    """Slack of the strengthened Lipschitz bound between two leaf members.

    Returns ``||dx||^2 - ||du||^2 - 2 s1 s2 ||P1 P2 - P1 T1^T T2 P2||`` with
    the operator norm; s_i is the member's boundary distance.  For a correct
    decomposition this is nonnegative up to fit noise.  A member on its
    leaf's boundary has s = 0 and the value degrades to the plain Lipschitz
    slack.
    """
    slack, s1, s2 = _pair_slack(leaf1, leaf2, x1_idx, x2_idx)
    proj1, proj2 = leaf1.projection, leaf2.projection
    op = proj1 @ proj2 - proj1 @ leaf1.map_matrix.T @ leaf2.map_matrix @ proj2
    opnorm = float(np.linalg.norm(op, 2))
    return slack - 2.0 * s1 * s2 * opnorm


def derivative_modulus_check(
    leaf1: Leaf, leaf2: Leaf, x1_idx: int, x2_idx: int, tol: float = 1e-9
) -> bool:
    """Check the derivative modulus bound between two full-dimensional leaves.

    Verifies ``||T1 P1 - T2 P2|| <= sqrt((||dx||^2 - ||du||^2) / (2 s1 s2))``
    up to ``tol`` plus the two fit residuals.  Raises WrongDimension when a
    leaf's dimension falls short of the potential's target dimension; with a
    zero boundary distance the bound is vacuous and the check returns True.
    A ``tol`` that is not finite and nonnegative raises InvalidParameter.
    """
    tol = _check_tolerance(tol, "tol")
    m = leaf1.values.shape[1]
    if leaf1.dimension < m or leaf2.dimension < m:
        raise WrongDimension(
            f"leaves must have dimension {m}, got {leaf1.dimension} and {leaf2.dimension}"
        )
    slack, s1, s2 = _pair_slack(leaf1, leaf2, x1_idx, x2_idx)
    if s1 * s2 == 0.0:
        return True
    lhs = float(np.linalg.norm(leaf1.map_matrix - leaf2.map_matrix, 2))
    rhs = np.sqrt(max(slack, 0.0) / (2.0 * s1 * s2))
    return lhs <= rhs + tol + leaf1.fit_residual + leaf2.fit_residual


def _closure_classes(decomposition: LeafDecomposition):
    """Return ``(flagged, labels, joined, joined_to)``: the branch-point flags,
    the component labels of the isometry graph without its edges at flagged
    points, and for each edge from a flagged to an unflagged point, the
    flagged end and the label of the other.
    """
    n = decomposition.graph.cloud.size
    edges = decomposition.graph.edges
    flagged = np.zeros(n, dtype=bool)
    flagged[decomposition.boundary_flags] = True
    ends = flagged[edges]
    labels = component_labels(n, edges[~ends.any(axis=1)])
    cross = edges[ends[:, 0] != ends[:, 1]]
    return flagged, labels, cross[flagged[cross]], labels[cross[~flagged[cross]]]


def transport_set(decomposition: LeafDecomposition, seeds) -> np.ndarray:
    """Closure of the seeds under saturated pairs, stopped at branch points.

    A point already in the set expands to all its isometry-graph neighbours
    unless it is boundary-flagged; flagged points may join the set but never
    pull in further points.  Returns sorted point indices.  Seeds must be
    integer-valued point indices, else DimensionMismatch.
    """
    n = decomposition.graph.cloud.size
    seeds = _point_indices(seeds, "seeds", n)
    if seeds.ndim != 1:
        raise DimensionMismatch(f"seeds must be a list of point indices, got shape {seeds.shape}")
    flagged, labels, joined, joined_to = _closure_classes(decomposition)
    classes = labels[seeds[~flagged[seeds]]]
    mark = np.isin(labels, classes)
    mark[seeds] = True
    mark[joined[np.isin(joined_to, classes)]] = True
    return np.flatnonzero(mark)


def maximal_transport_sets(decomposition: LeafDecomposition) -> list[np.ndarray]:
    """The distinct transport sets of single points, by smallest member.

    An unflagged point's set is its class plus the flagged points joined to
    it; a flagged point in no such set is a set of its own.
    """
    _, labels, joined, joined_to = _closure_classes(decomposition)
    n = labels.size
    own = np.flatnonzero(np.bincount(joined, minlength=n) == 0)  # all but the joined points
    keys = np.unique(np.concatenate([labels[own], joined_to]) * n + np.concatenate([own, joined]))
    sets = np.split(keys % n, np.flatnonzero(np.diff(keys // n)) + 1)
    sets.sort(key=lambda s: int(s[0]))
    return sets


def reconstructed_potential(decomposition: LeafDecomposition) -> PotentialField:
    """Evaluate every point through its assigned leaf's affine isometry."""
    cloud = decomposition.graph.cloud
    out = np.empty((cloud.size, decomposition.leaves[0].values.shape[1]))
    for i in range(cloud.size):
        leaf = decomposition.leaves[decomposition.assignment[i]]
        out[i] = leaf.map_matrix @ (cloud.points[i] - leaf.base_point) + leaf.offset
    return PotentialField(cloud=cloud, values=out)

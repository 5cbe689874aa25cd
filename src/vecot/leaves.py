"""Leaf decomposition of a Lipschitz vector potential on a point sample.

A 1-Lipschitz map u restricted to a set S is an isometry exactly when every
pair of points in S has ``||u(x) - u(y)|| = ||x - y||``.  The maximal such
sets (leaves) are affine: u acts on a leaf as T(y - y0) + b with T a linear
isometry of the leaf's tangent space into R^m.  On a finite sample we build
the graph of distance-saturating pairs, carve it into validated leaves, fit
the affine isometries, and estimate for every member its distance to the
sampled leaf boundary.  Points shared by two leaves are branch points; they
are flagged and transport sets do not expand through them.

Everything here is deterministic: ties are broken by point index and leaves
are ordered by their member tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DimensionMismatch,
    PointCloud,
    PotentialField,
    VecotError,
    WrongDimension,
    component_labels,
    stretch_ratios,
)

__all__ = [
    "NotLipschitz",
    "DegenerateLeaf",
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


@dataclass(frozen=True)
class IsometryGraph:
    """Pairs (i, j), i < j, with ||u_i - u_j|| >= (1 - eps) * d_ij."""

    cloud: PointCloud
    edges: np.ndarray
    eps: float

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        object.__setattr__(self, "edges", e)

    def adjacency(self) -> np.ndarray:
        """Symmetric boolean adjacency matrix."""
        n = self.cloud.size
        adj = np.zeros((n, n), dtype=bool)
        if self.edges.size:
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
    if eps <= 0:
        raise ValueError("eps must be positive")
    iu, ju, ratios = stretch_ratios(u.values, u.cloud.distances)
    if ratios.size and float(ratios.max()) > 1.0 + eps:
        worst = int(np.argmax(ratios))
        raise NotLipschitz(
            f"pair ({iu[worst]}, {ju[worst]}) stretches by {ratios[worst]:.6g}"
        )
    keep = ratios >= 1.0 - eps
    edges = np.column_stack([iu[keep], ju[keep]])
    return IsometryGraph(cloud=u.cloud, edges=edges, eps=eps)


def affine_isometry_fit(
    points: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best affine isometry ``y -> T(y - y0) + b`` for value samples.

    ``y0`` is the centroid of ``points`` and ``b`` the centroid of
    ``values``; T solves the orthogonal Procrustes problem restricted to the
    span of the centered points, so ``T^T T`` is the projection onto that
    span.  Returns ``(T, b, residual)`` with residual the RMS misfit; it is
    zero exactly when the samples are genuinely isometric.
    """
    T, b, _, residual, _, _, _ = _fit(np.asarray(points, float), np.asarray(values, float))
    return T, b, residual


def _fit(points: np.ndarray, values: np.ndarray):
    """Procrustes fit returning all intermediates the extractor needs."""
    k, n = points.shape
    m = values.shape[1]
    y0 = points.mean(axis=0)
    b = values.mean(axis=0)
    centered = points - y0
    target = values - b
    if k == 1:
        return (
            np.zeros((m, n)),
            b,
            y0,
            0.0,
            0,
            np.zeros((n, 0)),
            np.zeros(1),
        )
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > _RANK_RTOL * smax)) if smax > 0 else 0
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


def _boundary_distances(coords: np.ndarray, all_coords: np.ndarray | None = None) -> np.ndarray:
    """Per-member distance to the sampled boundary in tangent coordinates.

    Dimension 0 gives zeros, dimension 1 uses the interval ends, dimensions
    2 and 3 use convex-hull facets; above that we fall back to the nearest
    in-hull non-member (``all_coords``) or, lacking one, to zeros.  The
    estimate is conservative: understating sigma only weakens diagnostics,
    never invalidates them.
    """
    k, r = coords.shape
    if r == 0 or k <= r:
        return np.zeros(k)
    if r == 1:
        c = coords[:, 0]
        return np.minimum(c - c.min(), c.max() - c)
    if r <= 3:
        try:
            from scipy.spatial import ConvexHull, QhullError

            hull = ConvexHull(coords)
            # equations rows are (normal, offset) with normal . x + offset <= 0 inside
            gaps = -(coords @ hull.equations[:, :-1].T + hull.equations[:, -1])
            return np.maximum(gaps.min(axis=1), 0.0)
        except (QhullError, ValueError):
            return np.zeros(k)
    if all_coords is not None and all_coords.size:
        gaps = np.linalg.norm(coords[:, None, :] - all_coords[None, :, :], axis=2)
        return gaps.min(axis=1)
    return np.zeros(k)


def _build_leaf(members: list[int], cloud: PointCloud, values: np.ndarray) -> Leaf:
    idx = np.array(sorted(members), dtype=int)
    pts = cloud.points[idx]
    vals = values[idx]
    tmap, b, y0, residual, rank, tangent, _ = _fit(pts, vals)
    coords = (pts - y0) @ tangent
    non_members = np.setdiff1d(np.arange(cloud.size), idx)
    all_coords = None
    if rank > 3 and non_members.size:
        rel = cloud.points[non_members] - y0
        inplane = rel @ tangent
        off = np.linalg.norm(rel - inplane @ tangent.T, axis=1)
        scale = float(np.linalg.norm(pts - y0, axis=1).max()) or 1.0
        all_coords = inplane[off <= 1e-9 * scale]
    sigma = _boundary_distances(coords, all_coords)
    return Leaf(
        member_indices=idx,
        points=pts,
        values=vals,
        dimension=rank,
        tangent=tangent,
        map_matrix=tmap,
        base_point=y0,
        offset=b,
        fit_residual=residual,
        sigma=sigma,
    )


def _diameter(dist: np.ndarray, members: list[int]) -> float:
    sub = dist[np.ix_(members, members)]
    return float(sub.max()) if len(members) > 1 else 0.0


def _validate_component(
    comp: list[int], adj: np.ndarray, dist: np.ndarray, pts: np.ndarray, vals: np.ndarray, eps: float
) -> tuple[list[int], list[int]]:
    """Shrink a component until it is a clique with an isometric fit.

    Removes the worst fit violator while the residual is too large, then the
    member with the most missing edges while the set is not a clique.  The
    removed members are returned for regrowth.
    """
    members = sorted(comp)
    pending: list[int] = []
    while len(members) > 1:
        sub = np.array(members)
        _, _, _, residual, _, _, errors = _fit(pts[sub], vals[sub])
        if residual > eps * _diameter(dist, members):
            drop = int(np.argmax(errors))
        else:
            missing = (~adj[np.ix_(sub, sub)]).sum(axis=1) - 1
            if not missing.any():
                break
            drop = int(np.argmax(missing))
        pending.append(members.pop(drop))
    return members, pending


def _grow_leaf(
    start: int, adj: np.ndarray, dist: np.ndarray, pts: np.ndarray, vals: np.ndarray, eps: float
) -> list[int]:
    """Greedily grow a clique with a passing fit around one point."""
    members = [start]
    for q in np.flatnonzero(adj[start]):
        q = int(q)
        if not all(adj[q, s] for s in members):
            continue
        trial = sorted(members + [q])
        sub = np.array(trial)
        _, _, _, residual, _, _, _ = _fit(pts[sub], vals[sub])
        if residual <= eps * _diameter(dist, trial):
            members = trial
    return members


def extract_leaves(graph: IsometryGraph, u: PotentialField) -> LeafDecomposition:
    """Carve the saturation graph into validated leaves.

    Connected components are candidate leaves; a component that is not a
    clique with an isometric affine fit is shrunk member by member, and the
    removed points regrow their own leaves, possibly re-using points that
    are already covered.  That is how branch points end up in two leaves.
    """
    cloud = graph.cloud
    if u.cloud is not cloud and not np.array_equal(u.cloud.points, cloud.points):
        raise DimensionMismatch("potential and graph describe different clouds")
    n = cloud.size
    pts = cloud.points
    vals = u.values
    eps = graph.eps
    adj = graph.adjacency()
    dist = cloud.distances

    member_sets: list[tuple[int, ...]] = []
    labels = component_labels(n, graph.edges)
    by_label = np.argsort(labels, kind="stable")
    for comp in np.split(by_label, np.cumsum(np.bincount(labels))[:-1]):
        survivors, pending = _validate_component(comp.tolist(), adj, dist, pts, vals, eps)
        covered = set(survivors)
        member_sets.append(tuple(survivors))
        for p in sorted(pending):
            if p in covered:
                continue
            grown = _grow_leaf(p, adj, dist, pts, vals, eps)
            covered.update(grown)
            member_sets.append(tuple(grown))

    member_sets = sorted(set(member_sets))
    leaves = tuple(_build_leaf(list(s), cloud, vals) for s in member_sets)

    assignment = np.full(n, -1, dtype=int)
    counts = np.zeros(n, dtype=int)
    for leaf_id, s in enumerate(member_sets):
        for p in s:
            counts[p] += 1
            if assignment[p] < 0:
                assignment[p] = leaf_id
    boundary = np.flatnonzero(counts >= 2)
    return LeafDecomposition(
        graph=graph, leaves=leaves, assignment=assignment, boundary_flags=boundary
    )


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
    p1 = leaf1.member_position(x1_idx)
    p2 = leaf2.member_position(x2_idx)
    dx = leaf1.points[p1] - leaf2.points[p2]
    du = leaf1.values[p1] - leaf2.values[p2]
    proj1, proj2 = leaf1.projection, leaf2.projection
    op = proj1 @ proj2 - proj1 @ leaf1.map_matrix.T @ leaf2.map_matrix @ proj2
    opnorm = float(np.linalg.norm(op, 2)) if op.size else 0.0
    s1 = float(leaf1.sigma[p1])
    s2 = float(leaf2.sigma[p2])
    return float(dx @ dx - du @ du - 2.0 * s1 * s2 * opnorm)


def derivative_modulus_check(
    leaf1: Leaf, leaf2: Leaf, x1_idx: int, x2_idx: int, tol: float = 1e-9
) -> bool:
    """Check the derivative modulus bound between two full-dimensional leaves.

    Verifies ``||T1 P1 - T2 P2|| <= sqrt((||dx||^2 - ||du||^2) / (2 s1 s2))``
    up to ``tol`` plus the two fit residuals.  Raises WrongDimension when a
    leaf's dimension falls short of the potential's target dimension; with a
    zero boundary distance the bound is vacuous and the check returns True.
    """
    m = leaf1.values.shape[1]
    if leaf1.dimension < m or leaf2.dimension < m:
        raise WrongDimension(
            f"leaves must have dimension {m}, got {leaf1.dimension} and {leaf2.dimension}"
        )
    p1 = leaf1.member_position(x1_idx)
    p2 = leaf2.member_position(x2_idx)
    s1 = float(leaf1.sigma[p1])
    s2 = float(leaf2.sigma[p2])
    if s1 * s2 == 0.0:
        return True
    dx = leaf1.points[p1] - leaf2.points[p2]
    du = leaf1.values[p1] - leaf2.values[p2]
    slack = max(float(dx @ dx - du @ du), 0.0)
    lhs = float(np.linalg.norm(leaf1.map_matrix - leaf2.map_matrix, 2))
    rhs = np.sqrt(slack / (2.0 * s1 * s2))
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
    pull in further points.  Returns sorted point indices.
    """
    n = decomposition.graph.cloud.size
    seeds = np.array([int(s) for s in seeds], dtype=np.int64)
    if np.any((seeds < 0) | (seeds >= n)):
        raise DimensionMismatch("seed index out of range")
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

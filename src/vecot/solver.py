"""Solver for the minimal-cost coupling of a vector-valued measure.

The problem is posed on the edges of a graph over the point cloud: find one
R^m flow vector per edge minimizing ``sum_e d_e ||flow_e||`` subject to the
signed edge-incidence constraint ``net(flow) = mu``.  Its dual is the
maximization of ``sum_i <u_i, mu_i>`` over potentials u that are 1-Lipschitz
across the edges.  With the complete graph (the default) the edge constraint
set equals the global 1-Lipschitz condition, so primal and dual optimal
values both equal the transport norm of the measure.

Written with one epigraph variable per edge, the problem is the second-order
cone program

    minimize  sum_e d_e t_e   subject to  ||x_e|| <= t_e,  net(x) = mu,

and three engines solve it:

* ``tree``: when the edge set is a forest (every two-point cloud, every
  collinear cloud once metrically redundant edges are pruned), ``net(x) = mu``
  fixes the flows, and the potential steps by ``d_e x_e / ||x_e||`` along
  each edge.  Closed form, no iterations.
* ``lp``: scalar weights (m = 1) make the problem a linear program, which
  HiGHS finishes at a vertex.
* ``ipm``: otherwise, and as the fallback of the other two, a primal-dual
  interior-point method with Nesterov-Todd scaling and a Mehrotra
  predictor-corrector.  Its Newton system reduces to a block graph
  Laplacian ``sum_e b_e b_e^T (x) H_e`` with one m x m block per edge, solved
  by a dense Cholesky factorization after pinning one node per connected
  component.  The dual iterate stays exactly feasible, and it is the
  potential.

Whatever the engine, the answer is accepted only by one stopping rule: the
potential is repaired into the global 1-Lipschitz set, and the duality gap
against it and per-edge complementary slackness must both hold.  The
instance is normalized internally (unit mass scale, unit diameter), so
reported values are exactly equivariant under scaling of weights or points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph

from .core import (
    Instance,
    PotentialField,
    VecotError,
    VectorCoupling,
    WrongDimension,
    component_labels,
    distance_matrix,
)

__all__ = [
    "SolverParams",
    "SolveReport",
    "NumericalBreakdown",
    "NotConverged",
    "solve",
    "kr_norm",
    "line_oracle",
    "line_optimal_potential",
]

_GAP_FLOOR_HAT = 1e-12  # absolute gap floor, in mass * diameter units
_STEP_TO_BOUNDARY = 0.99  # interior-point steps stop short of the cone boundary


class NumericalBreakdown(VecotError):
    """The interior-point Newton system could not be factored."""


class NotConverged(VecotError):
    """A solve ended with a status other than Converged.

    ``report`` is the :class:`SolveReport` of that solve.
    """

    def __init__(self, report: "SolveReport"):
        super().__init__(
            f"solve ended with status {report.status} after {report.iterations} "
            f"iterations (gap {report.gap:.3e})"
        )
        self.report = report


@dataclass(frozen=True)
class SolverParams:
    """Tunable parameters of the coupling solver.

    ``max_iters`` caps the interior-point iterations.  ``edge_policy`` is
    ``"complete"`` or ``"knn:<k>"``.  The k-nearest neighbor restriction
    solves the problem on a subgraph; when the subgraph misses edges of an
    optimal coupling the restricted value is an upper bound on the
    unrestricted optimum, and no optimality guarantee is made.
    """

    max_iters: int = 100
    tol_primal: float = 1e-8
    tol_gap: float = 1e-6
    edge_policy: str = "complete"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("tol_primal", "tol_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        _parse_edge_policy(self.edge_policy)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    ``primal_value`` is the cost of the returned coupling, ``dual_value``
    the pairing of the returned potential with the measure, and ``gap``
    their difference (nonnegative up to roundoff).  Residuals are reported
    in original units: ``primal_residual`` is the Frobenius norm of
    ``net(coupling) - mu`` and ``dual_residual`` the interior-point
    complementarity ``sum_e (d_e t_e + <x_e, s_e>)`` at the returned
    iterate, which bounds how far its cone objective is from optimal (0.0
    for the ``tree`` and ``lp`` engines, which finish exactly).  ``status``
    is Converged, IterLimit or Infeasible.  ``engine`` names the engine that
    produced the answer: ``"tree"``, ``"lp"`` or ``"ipm"``, or ``"none"``
    when the solve returned before running one.
    """

    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str
    engine: str
    notes: str = ""


def _parse_edge_policy(policy: str) -> tuple[str, int]:
    if policy == "complete":
        return "complete", 0
    if policy.startswith("knn:"):
        try:
            k = int(policy[4:])
        except ValueError:
            raise ValueError(f"bad edge policy {policy!r}") from None
        if k < 1:
            raise ValueError("knn neighbor count must be >= 1")
        return "knn", k
    raise ValueError(f"bad edge policy {policy!r}; expected 'complete' or 'knn:<k>'")


def _edge_list(instance: Instance, policy: str) -> np.ndarray:
    kind, k = _parse_edge_policy(policy)
    n = instance.size
    if kind == "complete" or k >= n - 1:
        iu, ju = np.triu_indices(n, k=1)
        return np.column_stack([iu, ju]).astype(np.int64)
    order = np.argsort(instance.distances, axis=1, kind="stable")
    neigh = order[:, 1 : k + 1]  # skip self at distance 0
    src = np.repeat(np.arange(n), k)
    pairs = np.sort(np.column_stack([src, neigh.ravel()]), axis=1)
    pairs = np.unique(pairs, axis=0)
    return pairs.astype(np.int64)


def _prune_metric_redundant(pairs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Drop edges that are exactly replaceable by a two-hop chain.

    An edge (i, j) with d(i,k) + d(k,j) <= d(i,j) (up to 1e-12 relative,
    k distinct from both endpoints) can be rerouted through k at equal
    cost, so removing it changes neither the optimal value nor dual
    saturation.  Collinear configurations, where the complete graph is
    maximally degenerate, collapse to near-minimal edge sets.  Falls back
    to the input edge set in the (theoretically impossible) event the
    pruned graph is disconnected.
    """
    n = dist.shape[0]
    e_count = pairs.shape[0]
    keep = np.ones(e_count, dtype=bool)
    chunk = max(1, 2_000_000 // max(n, 1))
    for lo in range(0, e_count, chunk):
        hi = min(lo + chunk, e_count)
        i = pairs[lo:hi, 0]
        j = pairs[lo:hi, 1]
        chain = dist[i, :] + dist[j, :]
        rows = np.arange(hi - lo)
        chain[rows, i] = np.inf
        chain[rows, j] = np.inf
        keep[lo:hi] = chain.min(axis=1) > dist[i, j] * (1.0 + 1e-12)
    pruned = pairs[keep]
    if pruned.shape[0] < e_count and component_labels(n, pruned).max() > 0:
        return pairs
    return pruned


_REPAIR_SWEEPS = 200


def _feasible_potential(u_raw: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Project a raw multiplier potential into the 1-Lipschitz set.

    Violations of the recovered multipliers concentrate on short edges
    (near-duplicate points), where a tiny absolute error is a large
    relative one; a global rescale would then sacrifice the pairing.
    Instead the worst violated pair is repaired by a symmetric shift of
    its two values (cyclic projection), which moves the potential by the
    absolute excess only.  A final rescale covers whatever the sweep
    limit leaves over, and the base value is pinned to zero.
    """
    u = u_raw - u_raw[0]
    n = u.shape[0]
    if n < 2:
        return u
    num = distance_matrix(u)
    safe_d = np.where(distances > 0, distances, 1.0)
    np.fill_diagonal(safe_d, 1.0)
    for _ in range(_REPAIR_SWEEPS):
        ratio = num / safe_d
        i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        if ratio[i, j] <= 1.0:
            break
        du = u[i] - u[j]
        nrm = num[i, j]
        # aim slightly inside the constraint so the pair is settled for good
        shift = (0.5 * (nrm - distances[i, j] * (1.0 - 1e-12)) / nrm) * du
        u[i] -= shift
        u[j] += shift
        for k in (i, j):
            dk = u[k] - u
            num[k, :] = num[:, k] = np.sqrt(np.einsum("ij,ij->i", dk, dk))
            num[k, k] = 0.0
    ratio = num / safe_d
    lip = float(ratio.max())
    if lip > 1.0:
        u = u * ((1.0 - 1e-15) / lip)
    return u - u[0]


def _tree_engine(w_hat, d_edge, pairs, roots):
    """Exact engine for a forest edge set: the constraint fixes the flows.

    The edge above a node carries the net mass of the node's subtree, and
    a potential that steps by ``d_e x_e / ||x_e||`` along every edge (by
    nothing where the flow vanishes) saturates and aligns with every flow.
    The forest hangs from ``roots``, one per component, and is walked level
    by level; children add their subtree masses to their parent's in
    increasing index order.  ``pairs`` must hold i < j, sorted
    lexicographically.  Returns ``(flows, u_raw)``.
    """
    n, m = w_hat.shape
    e_count = pairs.shape[0]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pairs[:, 0], minlength=n))])
    graph = scipy.sparse.csr_matrix((np.ones(e_count), pairs[:, 1], indptr), shape=(n, n))
    depth, parent, _ = scipy.sparse.csgraph.dijkstra(
        graph, directed=False, indices=roots, unweighted=True,
        return_predecessors=True, min_only=True,
    )
    child = np.flatnonzero(parent >= 0)
    parent = parent[child]
    lo, hi = np.minimum(child, parent), np.maximum(child, parent)
    edge = np.searchsorted(pairs[:, 0] * n + pairs[:, 1], lo * n + hi)
    # flows[e] enters net() with + at pairs[e, 0] and - at pairs[e, 1]
    sign = np.where(lo == child, 1.0, -1.0)[:, None]
    level = depth[child]
    levels = range(1, int(level.max(initial=0)) + 1)
    subtree = w_hat.copy()
    for k in reversed(levels):
        np.add.at(subtree, parent[level == k], subtree[child[level == k]])
    flows = np.zeros((e_count, m))
    flows[edge] = sign * subtree[child]
    norms = np.linalg.norm(flows, axis=1)
    steps = flows * (d_edge / np.where(norms > 0, norms, 1.0))[:, None]
    u_raw = np.zeros((n, m))
    for k in levels:
        at = level == k
        u_raw[child[at]] = u_raw[parent[at]] + sign[at] * steps[edge[at]]
    return flows, u_raw


def _scalar_simplex_engine(w_hat, d_edge, pairs, incidence):
    """Exact engine for scalar weights: the problem is a plain LP.

    Splitting each signed flow into its positive and negative part turns
    ``min sum d |x_e|, net(x) = mu`` into a linear program that a simplex
    solver finishes at a vertex, with the dual potential delivered by the
    equality multipliers.  Interior iterates approach degenerate optimal
    faces only in the limit, so the scalar case goes to the vertex solver.
    Returns ``(flows, u_raw, iterations)`` or None if the LP solver
    declined the problem.
    """
    e_count = pairs.shape[0]
    cost_vec = np.concatenate([d_edge, d_edge])
    a_eq = scipy.sparse.hstack([incidence, -incidence]).tocsc()
    res = scipy.optimize.linprog(
        cost_vec,
        A_eq=a_eq,
        b_eq=w_hat[:, 0],
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        return None
    flows = (res.x[:e_count] - res.x[e_count:])[:, None]
    u_raw = np.asarray(res.eqlin.marginals, dtype=float)[:, None]
    # Orient the multipliers so the pairing is the optimal value.
    if float(np.einsum("ij,ij->", u_raw, w_hat)) < 0.0:
        u_raw = -u_raw
    return flows, u_raw, int(res.nit)


# Reductions below avoid BLAS: OpenBLAS splits dot products, matrix products
# and factorizations over its threads in ways that change the rounding, and
# results must be bit-identical at any thread count.  einsum sums in a fixed
# order, and LAPACK is only called on tiles small enough to run on one thread.
_TILE = 32


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _tiled_cholesky(a: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor ``r`` with ``a = r^T r``, or None if ``a`` is
    not numerically positive definite."""
    n = a.shape[0]
    r = np.triu(a)
    for k0 in range(0, n, _TILE):
        k1 = min(k0 + _TILE, n)
        if k0:
            r[k0:k1, k0:] -= np.einsum("ki,kj->ij", r[:k0, k0:k1], r[:k0, k0:])
        diag, info = scipy.linalg.lapack.dpotrf(r[k0:k1, k0:k1], lower=0, clean=1)
        if info != 0:
            return None
        r[k0:k1, k0:k1] = diag
        for c0 in range(k1, n, _TILE):
            c1 = min(c0 + _TILE, n)
            r[k0:k1, c0:c1] = scipy.linalg.lapack.dtrtrs(diag, r[k0:k1, c0:c1], trans=1)[0]
    return r


def _tiled_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``r^T r x = b`` for the factor of :func:`_tiled_cholesky`."""
    n = r.shape[0]
    starts = range(0, n, _TILE)
    y = b.copy()
    for k0 in starts:
        k1 = min(k0 + _TILE, n)
        y[k0:k1] -= np.einsum("ki,k->i", r[:k0, k0:k1], y[:k0])
        y[k0:k1] = scipy.linalg.lapack.dtrtrs(r[k0:k1, k0:k1], y[k0:k1], trans=1)[0]
    for k0 in reversed(starts):
        k1 = min(k0 + _TILE, n)
        y[k0:k1] -= np.einsum("ij,j->i", r[k0:k1, k1:], y[k1:])
        y[k0:k1] = scipy.linalg.lapack.dtrtrs(r[k0:k1, k0:k1], y[k0:k1])[0]
    return y


def _cone_det(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """``u0^2 - ||u1||^2`` per cone point, positive exactly in the interior."""
    un = np.sqrt(_rowdot(u1, u1))
    return (u0 - un) * (u0 + un)


def _max_step(u0, u1, uj, du0, du1) -> float:
    """Largest step keeping every cone point ``u + alpha du`` in its cone.

    ``uj`` is ``sqrt(u0^2 - ||u1||^2)``.  Works in coordinates where ``u``
    is the cone's identity, which keeps the ratio test accurate next to
    the boundary; inf when no cone binds.
    """
    ub0 = u0 / uj
    ub1 = u1 / uj[:, None]
    ubdu = ub0 * du0 - _rowdot(ub1, du1)
    rho1 = (du1 - ((ubdu + du0) / (ub0 + 1.0))[:, None] * ub1) / uj[:, None]
    sigma = float(np.max(np.sqrt(_rowdot(rho1, rho1)) - ubdu / uj))
    return 1.0 / sigma if sigma > 0.0 else np.inf


def _block_laplacian(h: np.ndarray, pairs: np.ndarray, n: int) -> np.ndarray:
    """Dense ``sum_e b_e b_e^T (x) h_e`` for incidence vectors ``b_e = e_i - e_j``."""
    m = h.shape[1]
    i, j = pairs[:, 0], pairs[:, 1]
    blocks = np.zeros((n, n, m, m))
    blocks[i, j] = -h
    blocks[j, i] = -h
    diag = np.zeros((n, m, m))
    np.add.at(diag, i, h)
    np.add.at(diag, j, h)
    blocks[np.arange(n), np.arange(n)] = diag
    return blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def _interior_point_engine(w_hat, d_edge, pairs, incidence, roots, params, accept):
    """Primal-dual interior-point method for the edge cone program.

    Primal cone points are ``z_e = (t_e, x_e)``; the dual slack is
    ``s_e = (d_e, u_j - u_i)`` for the potential iterate u, so dual
    feasibility holds by construction and only ``net(x) = mu`` is reached
    in the limit.  Each iteration computes the Nesterov-Todd scaling
    ``W_e`` with ``W_e z_e = W_e^-1 s_e = lam_e``, factors the block
    Laplacian of the x-blocks of ``W_e^-2``, and takes a Mehrotra
    predictor-corrector step.  ``accept(flows, u_raw)`` is the stopping
    rule; it runs once the complementarity and the primal residual are
    within the tolerances of ``params``.

    Returns ``(flows, u_raw, iterations, complementarity, u_accepted)``,
    with ``u_accepted`` None when ``params.max_iters`` ran out first, or
    when fewer iterations ran because the last step reached a cone boundary
    in double precision.
    """
    n, m = w_hat.shape
    e_count = d_edge.shape[0]
    free = np.setdiff1d(np.arange(n), roots)
    free_idx = (free[:, None] * m + np.arange(m)).ravel()
    eye = np.eye(m)
    no_t = np.zeros(e_count)
    incidence_t = incidence.T.tocsr()
    t = np.ones(e_count)
    x = np.zeros((e_count, m))
    u = np.zeros((n, m))
    # The x-part of the dual slack, u_j - u_i, is carried along with u rather
    # than recomputed from it: on very short edges the difference of two
    # potential values loses the digits that keep s inside its cone.
    sx = np.zeros((e_count, m))
    r_p = w_hat.copy()
    comp = _dot(t, d_edge)
    zj, sj = np.ones(e_count), d_edge  # sqrt(t^2 - ||x||^2), sqrt(d^2 - ||sx||^2)
    for it in range(1, params.max_iters + 1):
        # Nesterov-Todd point w (w_0^2 - ||w_1||^2 = 1): W = beta H(w), with
        # H(w) the hyperbolic rotation taking (1, 0) to w.
        gamma = np.sqrt(0.5 * (1.0 + (t * d_edge + _rowdot(x, sx)) / (zj * sj)))
        w0 = (d_edge / sj + t / zj) / (2.0 * gamma)
        w1 = (sx / sj[:, None] - x / zj[:, None]) / (2.0 * gamma)[:, None]
        beta = np.sqrt(sj / zj)
        beta2 = beta * beta
        w1x = _rowdot(w1, x)
        lam0 = beta * (w0 * t + w1x)
        lam1 = beta[:, None] * (t[:, None] * w1 + x + w1 * (w1x / (1.0 + w0))[:, None])
        lam_det = zj * sj  # lam_0^2 - ||lam_1||^2

        h = (eye + 2.0 * w1[:, :, None] * w1[:, None, :]) / beta2[:, None, None]
        chol = _tiled_cholesky(_block_laplacian(h, pairs, n)[np.ix_(free_idx, free_idx)])
        if chol is None:
            raise NumericalBreakdown(
                f"interior-point Newton system is not positive definite (iteration {it})"
            )

        def direction(rc0, rc1):
            # Solve lam o (W dz + W^-1 ds) = rc, A dz = r_p, ds = -A^T du.
            q0 = (lam0 * rc0 - _rowdot(lam1, rc1)) / lam_det
            q1 = (rc1 - lam1 * q0[:, None]) / lam0[:, None]
            wq = _rowdot(w1, q1)
            v0 = (w0 * q0 - wq) / beta
            v1 = (q1 - w1 * (q0 - wq / (1.0 + w0))[:, None]) / beta[:, None]
            rhs = (r_p - incidence @ v1).ravel()[free_idx]
            du = np.zeros(n * m)
            du[free_idx] = _tiled_solve(chol, rhs)
            du = du.reshape(n, m)
            g = incidence_t @ du
            wg = _rowdot(w1, g)
            dt = v0 - 2.0 * w0 * wg / beta2
            dx = v1 + (g + 2.0 * w1 * wg[:, None]) / beta2[:, None]
            step = min(_max_step(t, x, zj, dt, dx), _max_step(d_edge, sx, sj, no_t, -g))
            return dt, dx, du, -g, step

        # Predictor: the affine-scaling direction, rc = -lam o lam.
        lam_sq0 = lam0 * lam0 + _rowdot(lam1, lam1)
        lam_sq1 = 2.0 * lam0[:, None] * lam1
        dt, dx, du, dsx, step = direction(-lam_sq0, -lam_sq1)
        alpha = min(1.0, step)
        comp_aff = _dot(t + alpha * dt, d_edge) + _dot(x + alpha * dx, sx + alpha * dsx)
        sigma = min(1.0, max(0.0, comp_aff / comp)) ** 3
        # Corrector: centring plus the second-order term (W dz) o (W^-1 ds).
        w1dx = _rowdot(w1, dx)
        w1ds = _rowdot(w1, dsx)
        a0 = beta * (w0 * dt + w1dx)
        a1 = beta[:, None] * (dt[:, None] * w1 + dx + w1 * (w1dx / (1.0 + w0))[:, None])
        b0 = -w1ds / beta
        b1 = (dsx + w1 * (w1ds / (1.0 + w0))[:, None]) / beta[:, None]
        rc0 = sigma * comp / e_count - lam_sq0 - (a0 * b0 + _rowdot(a1, b1))
        rc1 = -lam_sq1 - (a0[:, None] * b1 + b0[:, None] * a1)
        dt, dx, du, dsx, step = direction(rc0, rc1)
        alpha = min(1.0, _STEP_TO_BOUNDARY * step)
        t = t + alpha * dt
        x = x + alpha * dx
        sx = sx + alpha * dsx
        u = u + alpha * du

        r_p = w_hat - incidence @ x
        cone_primal = _dot(t, d_edge)
        comp = cone_primal + _dot(x, sx)
        if (
            comp <= _GAP_FLOOR_HAT + params.tol_gap * cone_primal
            and np.sqrt(_dot(r_p, r_p)) <= params.tol_primal
        ):
            u_hat = accept(x, u)
            if u_hat is not None:
                return x, u, it, comp, u_hat
        zj2 = _cone_det(t, x)
        sj2 = _cone_det(d_edge, sx)
        if not (np.all(zj2 > 0.0) and np.all(sj2 > 0.0)):
            # In double precision the step reached a cone boundary, where no
            # scaling exists: the iterate is as accurate as it can get.
            return x, u, it, comp, None
        zj, sj = np.sqrt(zj2), np.sqrt(sj2)
    return x, u, params.max_iters, comp, None


def solve(instance: Instance, params: SolverParams | None = None):
    """Compute a minimal coupling and a matching dual potential.

    Returns
    -------
    (coupling, potential, report)
        ``coupling`` satisfies ``net(coupling) = mu`` up to
        ``tol_primal * (1 + mass scale)``; ``potential`` has Lipschitz
        constant at most 1 (up to roundoff) and value zero at point 0.
        On ``status == "Converged"`` the duality gap is at most
        ``tol_gap * |primal_value|`` plus a floor of 1e-12 times the
        mass scale times the diameter.

    Raises
    ------
    NumericalBreakdown
        The interior-point Newton system could not be factored.

    Identical instances and parameters produce bit-identical results.
    """
    if params is None:
        params = SolverParams()
    n, m = instance.size, instance.target_dim
    weights = instance.measure.weights
    mass_scale = instance.measure.mass_scale

    def no_engine(status: str, residual: float, notes: str):
        coupling = VectorCoupling(np.zeros((0, 2), dtype=np.int64), np.zeros((0, m)))
        potential = PotentialField(instance.cloud, np.zeros((n, m)))
        return coupling, potential, SolveReport(
            0.0, 0.0, 0.0, 0, residual, 0.0, status, "none", notes
        )

    if mass_scale == 0.0 or n == 1:
        return no_engine("Converged", 0.0, "zero measure")

    pairs = _edge_list(instance, params.edge_policy)
    kind, _ = _parse_edge_policy(params.edge_policy)
    if kind == "complete" and n > 2:
        pairs = _prune_metric_redundant(pairs, instance.distances)
    e_count = pairs.shape[0]
    # The complete graph is connected, and pruning never disconnects it.
    labels = np.zeros(n, dtype=np.int64) if kind == "complete" else component_labels(n, pairs)
    components = int(labels.max()) + 1
    roots = np.unique(labels, return_index=True)[1]  # smallest member of each component

    # Normalized problem: unit mass scale and unit diameter.  Scaling back at
    # the end keeps kr_norm exactly homogeneous in the weights and the points.
    dist_scale = float(instance.distances.max())
    w_hat = weights / mass_scale
    d_edge = instance.distances[pairs[:, 0], pairs[:, 1]] / dist_scale

    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([np.arange(e_count), np.arange(e_count)])
    vals = np.concatenate([np.ones(e_count), -np.ones(e_count)])
    incidence = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, e_count))

    for c in range(components):
        block = w_hat[labels == c].sum(axis=0)
        if float(np.abs(block).max()) > params.tol_primal:
            return no_engine(
                "Infeasible",
                float(np.linalg.norm(weights.sum(axis=0))),
                f"edge subgraph component {c} carries nonzero mass",
            )

    value_scale = mass_scale * dist_scale
    # Stopping threshold in normalized units.  Both terms are invariant
    # under rescaling of the weights or the points, so kr_norm stays
    # exactly homogeneous; the absolute floor only matters when the
    # optimum is negligible against mass * diameter.
    gap_floor = _GAP_FLOOR_HAT
    dist_hat = instance.distances / dist_scale

    def slackness_ok(flows_hat: np.ndarray, pot_hat: np.ndarray) -> bool:
        # Require every flow-carrying edge to be aligned with the potential
        # difference, so a converged solve certifies at any tol >= tol_gap.
        # Alignment never exceeds saturation, so it implies saturation too.
        norms = np.linalg.norm(flows_hat, axis=1)
        carrying = norms > params.tol_gap * norms.sum()
        if not carrying.any():
            return True
        du = pot_hat[pairs[carrying, 0]] - pot_hat[pairs[carrying, 1]]
        align = np.einsum("ij,ij->i", du, flows_hat[carrying])
        bound = (1.0 - params.tol_gap) * d_edge[carrying] * norms[carrying]
        return bool(np.all(align >= bound))

    def accept(flows_hat: np.ndarray, u_raw: np.ndarray):
        """The stopping rule: the repaired potential if the pair passes, else None."""
        u_hat = _feasible_potential(u_raw, dist_hat)
        primal_hat = _dot(d_edge, np.linalg.norm(flows_hat, axis=1))
        dual_hat = float(np.einsum("ij,ij->", u_hat, w_hat))
        if primal_hat - dual_hat <= gap_floor + params.tol_gap * abs(
            primal_hat
        ) and slackness_ok(flows_hat, u_hat):
            return u_hat
        return None

    it = 0
    comp = 0.0
    u_hat = None
    if e_count == n - components:
        engine = "tree"
        flows_hat, u_raw = _tree_engine(w_hat, d_edge, pairs, roots)
        u_hat = accept(flows_hat, u_raw)
    elif m == 1:
        lp = _scalar_simplex_engine(w_hat, d_edge, pairs, incidence)
        if lp is not None:
            engine = "lp"
            flows_hat, u_raw, it = lp
            u_hat = accept(flows_hat, u_raw)
    if u_hat is None:
        engine = "ipm"
        flows_hat, u_raw, it, comp, u_hat = _interior_point_engine(
            w_hat, d_edge, pairs, incidence, roots, params, accept
        )
    status = "Converged"
    notes = []
    if u_hat is None:
        status = "IterLimit"
        u_hat = _feasible_potential(u_raw, dist_hat)
        if it < params.max_iters:
            notes.append("interior-point iterates reached the limits of double precision")

    flows = flows_hat * mass_scale
    coupling = VectorCoupling(pairs, flows)
    potential = PotentialField(instance.cloud, u_hat * dist_scale)

    primal_value = _dot(d_edge, np.linalg.norm(flows_hat, axis=1)) * value_scale
    dual_value = float(np.einsum("ij,ij->", u_hat, w_hat)) * value_scale
    net = np.zeros((n, m))
    np.add.at(net, pairs[:, 0], flows)
    np.add.at(net, pairs[:, 1], -flows)
    feas = float(np.sqrt(_dot(net - weights, net - weights)))

    if kind == "knn":
        notes.append(
            "edge subgraph restriction: value is an upper bound on the complete-graph optimum"
        )
    report = SolveReport(
        primal_value=primal_value,
        dual_value=dual_value,
        gap=primal_value - dual_value,
        iterations=it,
        primal_residual=feas,
        dual_residual=comp * value_scale,
        status=status,
        engine=engine,
        notes="; ".join(notes),
    )
    return coupling, potential, report


def kr_norm(instance: Instance, params: SolverParams | None = None) -> float:
    """Transport norm of the measure: optimal value of the coupling problem.

    Raises
    ------
    NotConverged
        The solve ended with a status other than Converged; the exception
        carries its report.
    """
    _, _, report = solve(instance, params)
    if report.status != "Converged":
        raise NotConverged(report)
    return report.primal_value


def line_oracle(instance: Instance) -> float:
    """Exact transport norm for scalar measures on the real line.

    Sorting the points and accumulating signed mass reduces the problem to
    ``sum_k |F_k| * (x_{k+1} - x_k)`` over consecutive gaps, where ``F_k``
    is the cumulative mass left of the gap.

    Raises
    ------
    WrongDimension
        Unless both the ambient and the target dimension equal 1.
    """
    if instance.ambient_dim != 1 or instance.target_dim != 1:
        raise WrongDimension(
            f"line oracle needs n = m = 1, got n = {instance.ambient_dim}, "
            f"m = {instance.target_dim}"
        )
    xs = instance.cloud.points[:, 0]
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    cum = np.cumsum(instance.measure.weights[order, 0])[:-1]
    gaps = np.diff(xs)
    return float(np.dot(np.abs(cum), gaps))


def line_optimal_potential(instance: Instance) -> PotentialField:
    """An exactly optimal potential for a scalar measure on the line.

    The slope on each gap between consecutive points is minus the sign of
    the cumulative mass (+1 on gaps with zero cumulative mass, where any
    admissible slope is optimal), so the pairing equals the oracle value.
    """
    if instance.ambient_dim != 1 or instance.target_dim != 1:
        raise WrongDimension("line potential needs n = m = 1")
    xs = instance.cloud.points[:, 0]
    order = np.argsort(xs, kind="stable")
    cum = np.cumsum(instance.measure.weights[order, 0])[:-1]
    slopes = np.where(cum > 0, -1.0, 1.0)
    gaps = np.diff(xs[order])
    vals_sorted = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
    values = np.empty_like(vals_sorted)
    values[order] = vals_sorted
    values -= values[0]
    return PotentialField(instance.cloud, values[:, None])

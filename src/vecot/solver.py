"""Solver for the minimal-cost coupling of a vector-valued measure.

The problem is posed on the edges of a graph over the point cloud: find one
R^m flow vector per edge minimizing ``sum_e d_e ||flow_e||`` subject to the
signed edge-incidence constraint ``net(flow) = mu``.  Its dual is the
maximization of ``sum_i <u_i, mu_i>`` over potentials u that are 1-Lipschitz
across the edges.  On the complete graph the edge constraint set equals
the global 1-Lipschitz condition, so primal and dual optimal values both
equal the transport norm of the measure.

Written with one epigraph variable per edge, the problem is the second-order
cone program

    minimize  sum_e d_e t_e   subject to  ||x_e|| <= t_e,  net(x) = mu,

and three engines solve it:

* ``tree``: when the edge set is a path along the line of its points
  (every two-point cloud; a collinear cloud with m >= 2 on the complete
  graph once metrically redundant edges are pruned), ``net(x) = mu`` fixes
  the flows.  The engine sweeps the path from point 0: each edge carries
  the mass beyond it, and the potential steps by ``d_e x_e / ||x_e||``
  along each edge.  Closed form, no iterations.  It takes no other tree.
* ``lp``: scalar weights (m = 1) make the problem a linear program, which
  HiGHS finishes at a vertex.  It is solved on the complete graph by
  certificate-driven edge generation: one HiGHS model, run without
  presolve, starts on the k-nearest-neighbour graph (joined across its
  components, if any, by nearest pairs), every pair of the cloud is scanned for
  ``|u_i - u_j| > d_ij`` under the returned potential, the violated pairs
  join the model, and the LP is solved again from the last basis until a
  round adds no pair.  The coupling lists the final edge set only, and
  ``SolveReport.notes`` of every scalar solve on three or more points reads
  ``edge generation:`` with the rounds and its size.
* ``ipm``: otherwise, and as the fallback of the other two, a primal-dual
  interior-point method with Nesterov-Todd scaling and a Mehrotra
  predictor-corrector.  Its Newton system reduces to a block graph Laplacian
  ``sum_e b_e b_e^T (x) H_e`` (one m x m block per edge), whose upper
  triangle without point 0 (pinned) is assembled in place and factored by a
  dense Cholesky.  The dual iterate stays exactly feasible: it is the potential.
  The primal cone points and the dual slacks are held as one stacked array,
  primal rows first, so that the step frame, the ratio test and the interior
  test each run once over both cones.

Whatever the engine, the answer is accepted only by one stopping rule: the
potential is repaired into the global 1-Lipschitz set, and the duality gap
against it and the certifier's own slackness test (``edge_slackness``) must
both pass at ``tol_gap``.  Because the repair covers every pair of the
cloud, the answer is certified against every pair, whichever edge set the
engine ran on.  The engines run on the instance normalized to unit mass
scale and unit diameter.  Scaling the weights or the points by a positive
power of two leaves that problem bit-identical, so the answer and every
reported value scale exactly.  Other factors scale them up to roundoff only,
and negated scalar weights can take another HiGHS simplex path.

scipy loads where an engine computes with it, so that ``import vecot``
loads none of it: HiGHS at the first scalar solve and LAPACK at the first
Newton factor.  The interior-point method's incidence products are numpy's,
bit for bit those of scipy's CSR matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Instance,
    InvalidParameter,
    PotentialField,
    VecotError,
    VectorCoupling,
    WrongDimension,
    _check_count,
    _check_tolerance,
    _dot,
    _einsum,
    _row_norms,
    _values,
    component_labels,
    edge_slackness,
    stretch_ratios,
)

__all__ = [
    "SolverParams",
    "SolveReport",
    "NotConverged",
    "solve",
    "kr_norm",
    "line_oracle",
    "line_optimal_potential",
]

# Absolute gap floor of the stopping rule, in normalized (mass * diameter)
# units, so that the rule does not depend on the scale of the weights or the
# points.  It only matters when the optimum is negligible against mass * diameter.
_GAP_FLOOR_HAT = 1e-12
_STEP_TO_BOUNDARY = 0.99  # interior-point steps stop short of the cone boundary
# Neighbour count of the start graph of the m = 1 edge generation.
_GENERATION_NEIGHBOURS = 12
# Its HiGHS options.  At the default feasibility tolerances (1e-7), warm rounds
# can end too far from the optimum for the stopping rule; 1e-10 is the tightest
# HiGHS takes.  No presolve: on a first-round model it removes the one
# redundant balance row and no column (on a collinear cloud, also some pairs
# that pass over other points), in 0.4-0.9 times the first simplex solve's
# time.  No thread count: run() fails if it differs from that of a scheduler
# an earlier HiGHS call started.
_HIGHS_OPTIONS = {
    "output_flag": False, "solver": "simplex", "parallel": "off", "presolve": "off",
    "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
}


def _highs():
    """HiGHS's own Python model, as scipy ships it: private API (scipy >= 1.17.1),
    loaded here only, so that a scipy change fails loudly in one place."""
    from scipy.optimize._highspy import _core

    return _core


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

    ``max_iters`` caps the interior-point iterations, ``tol_primal`` the
    residual of ``net(x) = mu`` and ``tol_gap`` the relative duality gap
    (normalized units); both must be finite and positive, since an infinite
    one would stop any iterate as Converged.  The edge set is not a parameter: scalar instances
    are solved by edge generation (see the module docstring), the rest on
    the pruned complete graph; the interior-point method pins point 0.
    """

    max_iters: int = 100
    tol_primal: float = 1e-8
    tol_gap: float = 1e-6

    def __post_init__(self):
        _check_count(self.max_iters, "max_iters")
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be positive")
        for name in ("tol_primal", "tol_gap"):
            _check_tolerance(getattr(self, name), name, positive=True)


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
    when the solve returned before running one.  ``iterations`` counts the
    engine's iterations, for ``lp`` summed over the rounds of edge generation.
    The values are computed as ``certify`` computes them, so a solve's report
    and its certificate agree bit for bit.  The zero-measure and Infeasible
    exits return an empty coupling, so their ``primal_residual`` is ||mu||_F.
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


def _edge_list(instance: Instance) -> np.ndarray:
    """The complete graph pruned of metrically redundant edges, as sorted pairs.

    An edge (i, j) with d(i,k) + d(k,j) <= d(i,j) (up to 1e-12 relative,
    k distinct from both endpoints) can be rerouted through k at equal
    cost, so removing it changes neither the optimal value nor dual
    saturation.  Collinear configurations, where the complete graph is
    maximally degenerate, collapse to near-minimal edge sets.  Within the
    relative slack, near-duplicate points can make every edge at a point
    redundant and disconnect the pruned graph; then all pairs are returned.
    """
    dist = instance.distances
    n = dist.shape[0]
    bound = dist * (1.0 + 1e-12)
    redundant = np.zeros((n, n), dtype=bool)
    for k in range(n):
        chain = dist[:, k, None] + dist[k]
        chain[k, :] = chain[:, k] = np.inf
        redundant |= chain <= bound
    pairs = np.argwhere(np.triu(~redundant, 1))
    if pairs.shape[0] < n * (n - 1) // 2 and component_labels(n, pairs).max() > 0:
        return np.argwhere(~np.tri(n, dtype=bool))
    return pairs


def _incidence_products(n: int, m: int, pairs: np.ndarray):
    """``(v -> A v, du -> A^T du)`` for the signed n x E incidence matrix A,
    +1 at ``pairs[e, 0]`` and -1 at ``pairs[e, 1]`` (i < j), on (E, m) and
    (n, m) arrays.  ``pairs`` must be sorted lexicographically, as every
    edge set of the solver is.

    Bit for bit the products of A and A^T held as scipy CSR matrices: an
    entry of ``A v`` sums its terms from 0.0 in increasing edge order, and
    in sorted pairs a point's edges (k, i) with k < i come before its edges
    (i, k), so one ``np.bincount`` over the j-ends, then the i-ends, adds
    them in that order.  A row of ``A^T du`` is ``(0.0 + du_i) - du_j``.
    """
    i, j = pairs[:, 0], pairs[:, 1]
    bins = (np.concatenate([j, i])[:, None] * m + np.arange(m)).ravel()

    def net(v: np.ndarray) -> np.ndarray:
        return np.bincount(bins, np.concatenate([-v, v]).ravel(), n * m).reshape(n, m)

    def difference(du: np.ndarray) -> np.ndarray:
        return (0.0 + du.take(i, axis=0)) - du.take(j, axis=0)

    return net, difference


def _start_keys(distances: np.ndarray, k: int) -> np.ndarray:
    """Sorted keys ``i * n + j`` (i < j) of the k-nearest-neighbour graph and,
    while it is disconnected, of each point's pair to its nearest point in
    another component (Boruvka's step: each round at least halves them)."""
    n = distances.shape[0]
    # Each row's k + 1 nearest points, the point itself included.
    near = np.argpartition(distances, k, axis=1)[:, : k + 1]
    i, j = np.repeat(np.arange(n), k + 1), near.ravel()
    while (labels := component_labels(n, np.column_stack([i, j]))).max() > 0:
        nearest = np.where(labels[:, None] == labels, np.inf, distances).argmin(axis=1)
        i, j = np.concatenate([i, np.arange(n)]), np.concatenate([j, nearest])
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return np.unique((lo * n + hi)[lo != hi])


def _generated_lp(w_hat: np.ndarray, dist_hat: np.ndarray):
    """Scalar LP on the complete graph, solved on the edges its potential needs.

    One HiGHS model holds the balance rows ``net(x) = mu``, whose multipliers
    are the potential, and the positive and negative part of each active
    pair's flow as columns.  The first pairs are the k-nearest-neighbour
    graph, joined across its components by ``_start_keys``.
    After each simplex solve every pair of the cloud is scanned for
    ``|u_i - u_j| > d_ij``, the violated pairs join the model, and the next
    solve starts from the last basis.  The dual of the restricted LP is
    feasible for the complete one once no pair is violated, and then the two
    optima coincide.  LP duals are feasible only to the solver's tolerance,
    so the loop ends when a round finds no violated pair outside the model;
    the stopping rule's global repair settles the rest with the same ratios.

    Returns ``(pairs, (flows, u_raw, iterations, scan), rounds)`` with the
    pairs sorted, ``iterations`` summed over the rounds and ``scan`` the last
    round's ``stretch_ratios``, which the repair starts from; or None when
    HiGHS ends a round without an optimal basis.
    """
    n = dist_hat.shape[0]
    balance = w_hat[:, 0]
    api = _highs()
    highs = api._Highs()
    for option, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(option, value)
    highs.addRows(n, balance, balance, 0, np.zeros(n, np.int32), np.zeros(0, np.int32), np.zeros(0))
    cols = np.zeros(0, dtype=np.int64)  # pair keys i * n + j in column order
    fresh = _start_keys(dist_hat, min(_GENERATION_NEIGHBOURS, n - 1))
    rounds = iterations = 0
    while True:
        # Columns 2e and 2e + 1 carry the positive and negative part of pair e.
        k, i, j = fresh.size, fresh // n, fresh % n
        highs.addCols(
            2 * k, np.repeat(dist_hat[i, j], 2), np.zeros(2 * k), np.full(2 * k, np.inf),
            4 * k, np.arange(0, 4 * k, 2, dtype=np.int32),
            np.column_stack([i, j, i, j]).ravel().astype(np.int32),
            np.tile([1.0, -1.0, -1.0, 1.0], k),
        )
        cols = np.concatenate([cols, fresh])
        highs.run()
        if highs.getModelStatus() != api.HighsModelStatus.kOptimal:
            return None
        rounds += 1
        iterations += highs.getInfo().simplex_iteration_count
        # HiGHS's row duals y price the columns at c - A^T y >= 0, so their
        # pairing with the measure is the optimal value.
        solution = highs.getSolution()
        u_raw = np.asarray(solution.row_dual)[:, None]
        # The repair measures the potential anchored at point 0: scan the same numbers.
        scan = stretch_ratios(u_raw - u_raw[0], dist_hat)
        # The scan is symmetric: keep the keys i * n + j with i < j, that is
        # i * (n + 1) < key, in row-major order.
        keys = np.flatnonzero(scan > 1.0)
        fresh = np.setdiff1d(keys[keys // n * (n + 1) < keys], cols, assume_unique=True)
        if fresh.size == 0:
            x = np.asarray(solution.col_value)
            order = np.argsort(cols)
            pairs = np.column_stack([cols[order] // n, cols[order] % n])
            return pairs, ((x[0::2] - x[1::2])[order, None], u_raw, iterations, scan), rounds


_REPAIR_SWEEPS = 200


def _feasible_potential(u_raw: np.ndarray, distances: np.ndarray, scan=None) -> np.ndarray:
    """Project a raw multiplier potential into the 1-Lipschitz set.

    Violations of the recovered multipliers concentrate on short edges
    (near-duplicate points), where a tiny absolute error is a large
    relative one; a global rescale would then sacrifice the pairing.
    Instead the worst violated pair is repaired by a symmetric shift of
    its two values (cyclic projection), which moves the potential by the
    absolute excess only.  A final rescale covers whatever the sweep
    limit leaves over, and the base value is pinned to zero.  ``scan`` is
    ``stretch_ratios`` of the anchored potential when the caller has it; the
    repair keeps it current with the scan's kernel, and so overwrites it.
    """
    u = u_raw - u_raw[0]
    n = u.shape[0]
    ratio = stretch_ratios(u, distances) if scan is None else scan
    for _ in range(_REPAIR_SWEEPS):
        i, j = divmod(int(np.argmax(ratio)), n)
        if ratio[i, j] <= 1.0:
            break
        du = u[i] - u[j]
        nrm = _row_norms(du[None])[0]
        # aim slightly inside the constraint so the pair is settled for good
        shift = (0.5 * (nrm - distances[i, j] * (1.0 - 1e-12)) / nrm) * du
        u[i] -= shift
        u[j] += shift
        # Only the rows and columns of i and j change: refresh those, not
        # the whole n x n ratio (most sweeps settle a pair that is over by
        # rounding only, and large clouds have hundreds of them).
        for k in (i, j):
            with np.errstate(invalid="ignore"):  # 0 / 0 at (k, k)
                ratio[k, :] = ratio[:, k] = _row_norms(u[k] - u) / distances[k, :]
            ratio[k, k] = -np.inf
    lip = float(ratio.max())
    if lip > 1.0:
        u = u * ((1.0 - 1e-15) / lip)
    return u - u[0]


def _tree_engine(w_hat, dist_hat, pairs):
    """Exact engine for a path edge set: the constraint fixes the flows.

    The points are swept in order of their distance from the path's first
    end (its smallest-index point of degree 1); unless the consecutive pairs
    of that order are exactly ``pairs``, it returns None.  The edge on
    either arm from point 0 carries the net mass beyond it, summed from the
    arm's far end, and a potential that steps by ``d_e x_e / ||x_e||`` along
    every edge (by nothing where the flow vanishes) from point 0 saturates
    and aligns with every flow.  ``pairs`` must hold i < j, sorted
    lexicographically.  Returns ``(flows, u_raw)``.
    """
    n, m = w_hat.shape
    end = np.argmax(np.bincount(pairs.ravel(), minlength=n) == 1)
    order = np.argsort(dist_hat[end], kind="stable")
    lo, hi = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
    edge = np.lexsort((hi, lo))
    if not np.array_equal(np.column_stack([lo, hi])[edge], pairs):
        return None
    # Sweep edge k joins order[k] and order[k + 1]; the arms meet at order[p] = 0.
    p = int(np.argmax(order == 0))
    w = w_hat[order]
    mass = np.concatenate([np.cumsum(w[:p], axis=0), np.cumsum(w[:p:-1], axis=0)[::-1]])
    child = np.concatenate([order[:p], order[p + 1 :]])
    norms = np.linalg.norm(mass, axis=1)
    rise = mass * (dist_hat[lo, hi] / np.where(norms > 0, norms, 1.0))[:, None]
    zero = np.zeros((1, m))
    u_raw = np.empty((n, m))
    u_raw[order] = np.concatenate([
        np.cumsum(np.concatenate([zero, rise[:p][::-1]]), axis=0)[::-1],
        np.cumsum(np.concatenate([zero, rise[p:]]), axis=0)[1:],
    ])
    # flows[e] enters net() with + at pairs[e, 0] and - at pairs[e, 1]
    return np.where(lo == child, 1.0, -1.0)[edge, None] * mass[edge], u_raw


# Reductions below avoid BLAS: OpenBLAS splits dot products, matrix products
# and factorizations over its threads in ways that change the rounding, and
# results must be bit-identical at any thread count.  einsum sums in a fixed
# order, and LAPACK is only called on tiles small enough to run on one thread.
_TILE = 32


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _einsum("ij,ij->i", a, b)


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, imported at the first Newton factor, so that
    ``import vecot`` loads no scipy; later calls return the cached module.
    Routines are looked up on it once per factor or solve."""
    from scipy.linalg import lapack

    return lapack


def _tiled_cholesky(r: np.ndarray) -> np.ndarray | None:
    """Factor in place: ``r``, a symmetric matrix's upper triangle (zeros below),
    becomes its upper Cholesky factor and is returned; None if not positive definite."""
    n, lapack = r.shape[0], _lapack()
    for k0 in range(0, n, _TILE):
        k1 = min(k0 + _TILE, n)
        if k0:
            r[k0:k1, k0:] -= np.einsum("ki,kj->ij", r[:k0, k0:k1], r[:k0, k0:])
        diag, info = lapack.dpotrf(r[k0:k1, k0:k1], lower=0, clean=1)
        if info != 0:
            return None
        r[k0:k1, k0:k1] = diag
        for c0 in range(k1, n, _TILE):
            c1 = min(c0 + _TILE, n)
            r[k0:k1, c0:c1] = lapack.dtrtrs(diag, r[k0:k1, c0:c1], trans=1)[0]
    return r


def _tiled_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``r^T r x = b`` for the factor of :func:`_tiled_cholesky`."""
    n, lapack = r.shape[0], _lapack()
    starts = range(0, n, _TILE)
    y = b.copy()
    for k0 in starts:
        k1 = min(k0 + _TILE, n)
        if k0:  # an empty sum is +0.0, which leaves y as it is
            y[k0:k1] -= np.einsum("ki,k->i", r[:k0, k0:k1], y[:k0])
        y[k0:k1] = lapack.dtrtrs(r[k0:k1, k0:k1], y[k0:k1], trans=1)[0]
    for k0 in reversed(starts):
        k1 = min(k0 + _TILE, n)
        if k1 < n:
            y[k0:k1] -= np.einsum("ij,j->i", r[k0:k1, k1:], y[k1:])
        y[k0:k1] = lapack.dtrtrs(r[k0:k1, k0:k1], y[k0:k1])[0]
    return y


def _newton_assembly(pairs: np.ndarray, n: int, m: int):
    """``h ->`` the upper triangle of ``sum_e b_e b_e^T (x) h_e`` (``b_e = e_i - e_j``,
    i < j) without point 0's rows and columns, at positions computed once.

    Edge e's off-diagonal block lies wholly above the diagonal unless i = 0.
    The diagonal blocks sum h over the i-incidences, then the j-incidences,
    in edge order (the order of two ``np.add.at`` calls).
    """
    size, i, j, span = (n - 1) * m, pairs[:, 0], pairs[:, 1], np.arange(m)
    off = i > 0
    rows, cols = (i[off, None] - 1) * m + span, (j[off, None] - 1) * m + span
    off_at = (rows[:, :, None] * size + cols[:, None, :]).ravel()
    sums_at = (np.concatenate([i, j])[:, None] * (m * m) + np.arange(m * m)).ravel()
    (p, q), nodes = np.triu_indices(m), np.arange(n - 1)[:, None] * m
    diag_at = ((nodes + p) * size + nodes + q).ravel()
    diag_from = ((nodes + m) * m + p * m + q).ravel()

    def assemble(h: np.ndarray) -> np.ndarray:
        a = np.zeros(size * size)
        a[off_at] = -h[off].ravel()
        a[diag_at] = np.bincount(sums_at, np.concatenate([h, h]).ravel(), n * m * m)[diag_from]
        return a.reshape(size, size)

    return assemble


def _interior_point_engine(w_hat, d_edge, pairs, params, accept):
    """Primal-dual interior-point method for the edge cone program.

    Primal cone points are ``z_e = (t_e, x_e)``; the dual slack is
    ``s_e = (d_e, u_j - u_i)`` for the potential iterate u, so dual
    feasibility holds by construction and only ``net(x) = mu`` is reached
    in the limit.  Each iteration computes the Nesterov-Todd scaling
    ``W_e`` with ``W_e z_e = W_e^-1 s_e = lam_e``, factors the block
    Laplacian of the x-blocks of ``W_e^-2``, and takes a Mehrotra
    predictor-corrector step.  ``accept(flows, u_raw)`` is the stopping
    rule; it runs once the complementarity and the primal residual are
    within the tolerances of ``params``.  The edge set is connected, so
    pinning point 0 (its m rows and columns) makes the Laplacian definite.
    The z_e and s_e are stacked in one array, the E primal rows first; the
    time direction of the dual rows is a stored zero.

    Returns ``(flows, u_raw, iterations, complementarity, u_accepted)``,
    with ``u_accepted`` None when ``params.max_iters`` ran out first, or
    when the iterates reached the limits of double precision: the last
    step reached a cone boundary, the next Newton system is not positive
    definite, or the next direction is not finite.
    """
    n, m = w_hat.shape
    e_count = d_edge.shape[0]
    eye = np.eye(m)
    net, difference = _incidence_products(n, m, pairs)
    assemble = _newton_assembly(pairs, n, m)
    # Cone points (c0, c1) and their directions (dc0, dc1).  The x-part of the
    # dual slack, u_j - u_i, is carried along with u rather than recomputed
    # from it: on very short edges the difference of two potential values
    # loses the digits that keep s inside its cone.
    c0, dc0 = np.concatenate([np.ones(e_count), d_edge]), np.zeros(2 * e_count)
    c1, dc1 = np.zeros((2, 2 * e_count, m))
    cj = c0.copy()  # sqrt(c0^2 - ||c1||^2)
    t, x, sx, zj, sj = c0[:e_count], c1[:e_count], c1[e_count:], cj[:e_count], cj[e_count:]
    dt, dx, dsx = dc0[:e_count], dc1[:e_count], dc1[e_count:]
    u = np.zeros((n, m))
    r_p = w_hat.copy()
    comp = _dot(t, d_edge)
    for it in range(1, params.max_iters + 1):
        # A zero lam0 next to a cone boundary makes a direction NaN: the ratio
        # tests catch that, so numpy need not warn.
        with np.errstate(all="ignore"):
            # Coordinates in which each cone point is the cone's identity.
            ub0 = c0 / cj
            ub1 = c1 / cj[:, None]
            ub0_1 = ub0 + 1.0
            # Nesterov-Todd point w (w_0^2 - ||w_1||^2 = 1): W = beta H(w), with
            # H(w) the hyperbolic rotation taking (1, 0) to w.
            lam_det = zj * sj  # lam_0^2 - ||lam_1||^2
            gamma2 = 2.0 * np.sqrt(0.5 * (1.0 + (t * d_edge + _rowdot(x, sx)) / lam_det))
            w0 = (ub0[e_count:] + ub0[:e_count]) / gamma2
            w1 = (ub1[e_count:] - ub1[:e_count]) / gamma2[:, None]
            w0_1, w0_2, w1_2 = 1.0 + w0, 2.0 * w0, 2.0 * w1
            beta = np.sqrt(sj / zj)
            beta_c, beta2 = beta[:, None], beta * beta
            w1x = _rowdot(w1, x)
            lam0 = beta * (w0 * t + w1x)
            lam0_c = lam0[:, None]
            lam1 = beta_c * (t[:, None] * w1 + x + w1 * (w1x / w0_1)[:, None])

            h = (eye + w1_2[:, :, None] * w1[:, None, :]) / beta2[:, None, None]
            chol = _tiled_cholesky(assemble(h))
            if chol is None:
                return x, u, it - 1, comp, None  # the last iterate

            def direction(rc0, rc1):
                # Solve lam o (W dz + W^-1 ds) = rc, A dz = r_p, ds = -A^T du into
                # (dc0, dc1) and du.  Returns du and the ratio test's inverse of the
                # largest step that keeps both cones (<= 0 if none binds), which
                # is inf or NaN when the direction is not finite.
                q0 = (lam0 * rc0 - _rowdot(lam1, rc1)) / lam_det
                q1 = (rc1 - lam1 * q0[:, None]) / lam0_c
                wq = _rowdot(w1, q1)
                v0 = (w0 * q0 - wq) / beta
                v1 = (q1 - w1 * (q0 - wq / w0_1)[:, None]) / beta_c
                du = np.zeros((n, m))
                du[1:] = _tiled_solve(chol, (r_p - net(v1)).ravel()[m:]).reshape(n - 1, m)
                g = difference(du)
                wg = _rowdot(w1, g)
                np.subtract(v0, w0_2 * wg / beta2, out=dt)
                np.add(v1, (g + w1_2 * wg[:, None]) / beta2[:, None], out=dx)
                np.negative(g, out=dsx)
                ubdu = ub0 * dc0 - _rowdot(ub1, dc1)
                rho1 = (dc1 - ((ubdu + dc0) / ub0_1)[:, None] * ub1) / cj[:, None]
                return du, float((np.sqrt(_rowdot(rho1, rho1)) - ubdu / cj).max())

            # Predictor: the affine-scaling direction, rc = -lam o lam.
            lam_sq0 = lam0 * lam0 + _rowdot(lam1, lam1)
            lam_sq1 = 2.0 * lam0_c * lam1
            du, inv_aff = direction(-lam_sq0, -lam_sq1)
            alpha = min(1.0, 1.0 / inv_aff) if inv_aff > 0.0 else 1.0
            comp_aff = _dot(t + alpha * dt, d_edge) + _dot(x + alpha * dx, sx + alpha * dsx)
            sigma = min(1.0, max(0.0, comp_aff / comp)) ** 3
            # Corrector: centring plus the second-order term (W dz) o (W^-1 ds).
            w1dx = _rowdot(w1, dx)
            w1ds = _rowdot(w1, dsx)
            a0 = beta * (w0 * dt + w1dx)
            a1 = beta_c * (dt[:, None] * w1 + dx + w1 * (w1dx / w0_1)[:, None])
            b0 = -w1ds / beta
            b1 = (dsx + w1 * (w1ds / w0_1)[:, None]) / beta_c
            rc0 = sigma * comp / e_count - lam_sq0 - (a0 * b0 + _rowdot(a1, b1))
            rc1 = -lam_sq1 - (a0[:, None] * b1 + b0[:, None] * a1)
            du, inv_step = direction(rc0, rc1)
            if not (math.isfinite(inv_aff) and math.isfinite(inv_step)):
                return x, u, it - 1, comp, None  # the last finite iterate
            alpha = min(1.0, _STEP_TO_BOUNDARY * (1.0 / inv_step)) if inv_step > 0.0 else 1.0
            t += alpha * dt
            c1 += alpha * dc1
            u += alpha * du

        r_p = w_hat - net(x)
        cone_primal = _dot(t, d_edge)
        comp = cone_primal + _dot(x, sx)
        if (
            comp <= _GAP_FLOOR_HAT + params.tol_gap * cone_primal
            and math.sqrt(_dot(r_p, r_p)) <= params.tol_primal
        ):
            u_hat = accept(x, u)
            if u_hat is not None:
                return x, u, it, comp, u_hat
        c1_norm = np.sqrt(_rowdot(c1, c1))
        det = (c0 - c1_norm) * (c0 + c1_norm)
        if not det.min() > 0.0:  # a NaN fails it too
            # In double precision the step reached a cone boundary, where no
            # scaling exists: the iterate is as accurate as it can get.
            return x, u, it, comp, None
        np.sqrt(det, out=cj)
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
        mass scale times the diameter.  A solve whose interior-point
        iterates reach the limits of double precision ends IterLimit with
        its last iterate, and its notes say so.

    Identical instances and parameters produce bit-identical results.
    """
    if params is None:
        params = SolverParams()
    n, m = instance.size, instance.target_dim
    mass_scale = instance.measure.mass_scale
    notes = []

    def report(pairs, flows, values, it, dual_residual, status, engine):
        """The answer in original units, its values computed as ``certify`` computes them."""
        coupling = VectorCoupling(pairs, flows)
        potential = PotentialField(instance.cloud, values)
        primal, dual, residual = _values(instance, coupling, potential)
        return coupling, potential, SolveReport(
            primal, dual, primal - dual, it, residual, dual_residual, status, engine, "; ".join(notes)
        )

    def no_engine(status: str, note: str):
        notes.append(note)
        empty = np.zeros((0, 2), dtype=np.int64), np.zeros((0, m)), np.zeros((n, m))
        return report(*empty, 0, 0.0, status, "none")

    if mass_scale == 0.0:
        return no_engine("Converged", "zero measure")

    # Normalized problem: unit mass scale and unit diameter.
    dist_scale = float(instance.distances.max())
    w_hat = instance.measure.weights / mass_scale
    dist_hat = instance.distances / dist_scale

    # Both edge sets below are connected, so the measure is feasible on them
    # exactly when its total mass vanishes.
    if float(np.abs(w_hat.sum(axis=0)).max()) > params.tol_primal:
        return no_engine("Infeasible", "the total mass of the measure is not zero")

    # Edge set: generated with the LP for a scalar measure on three or more
    # points, else (and when HiGHS declines it) the pruned complete graph,
    # which for two points is the tree the closed form solves.
    generated = _generated_lp(w_hat, dist_hat) if m == 1 and n > 2 else None
    if generated is None:
        pairs, lp = _edge_list(instance), None
    else:
        pairs, lp, rounds = generated
        notes.append(
            f"edge generation: {rounds} rounds, {pairs.shape[0]} of {n * (n - 1) // 2} pairs"
        )
    d_edge = dist_hat[pairs[:, 0], pairs[:, 1]]

    # Engine: closed form on a path, the LP for scalar weights, else (and
    # whenever those decline or fail the stopping rule) the interior-point method.
    def accept(flows_hat: np.ndarray, u_raw: np.ndarray, scan=None):
        """The stopping rule: the repaired potential if the pair passes, else None."""
        u_hat = _feasible_potential(u_raw, dist_hat, scan)
        primal_hat = _dot(d_edge, np.linalg.norm(flows_hat, axis=1))
        dual_hat = float(np.einsum("ij,ij->", u_hat, w_hat))
        tol = params.tol_gap
        if primal_hat - dual_hat <= _GAP_FLOOR_HAT + tol * abs(primal_hat):
            _, _, saturation, alignment = edge_slackness(pairs, flows_hat, u_hat, dist_hat, tol)
            if not np.any(np.minimum(saturation, alignment) < 1.0 - tol):
                return u_hat
        return None

    it = 0
    comp = 0.0
    u_hat = None
    tree = _tree_engine(w_hat, dist_hat, pairs) if pairs.shape[0] == n - 1 else None
    if tree is not None:
        engine = "tree"
        flows_hat, u_raw = tree
        u_hat = accept(flows_hat, u_raw)
    elif lp is not None:
        engine = "lp"
        flows_hat, u_raw, it, scan = lp
        u_hat = accept(flows_hat, u_raw, scan)
    if u_hat is None:
        engine = "ipm"
        flows_hat, u_raw, it, comp, u_hat = _interior_point_engine(
            w_hat, d_edge, pairs, params, accept
        )
    status = "Converged"
    if u_hat is None:
        status = "IterLimit"
        u_hat = _feasible_potential(u_raw, dist_hat)
        if it < params.max_iters:
            notes.append("interior-point iterates reached the limits of double precision")

    flows, values = flows_hat * mass_scale, u_hat * dist_scale
    return report(pairs, flows, values, it, comp * (mass_scale * dist_scale), status, engine)


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


def _line_masses(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of a scalar measure's points on the line, the gaps
    between sorted neighbours and the mass left of each gap."""
    if instance.ambient_dim != 1 or instance.target_dim != 1:
        raise WrongDimension(
            f"line transport needs n = m = 1, got n = {instance.ambient_dim}, "
            f"m = {instance.target_dim}"
        )
    xs = instance.cloud.points[:, 0]
    order = np.argsort(xs, kind="stable")
    return order, np.diff(xs[order]), np.cumsum(instance.measure.weights[order, 0])[:-1]


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
    _, gaps, cum = _line_masses(instance)
    return _dot(np.abs(cum), gaps)


def line_optimal_potential(instance: Instance) -> PotentialField:
    """An exactly optimal potential for a scalar measure on the line.

    The slope on each gap between consecutive points is minus the sign of
    the cumulative mass (+1 on gaps with zero cumulative mass, where any
    admissible slope is optimal), so the pairing equals the oracle value.
    WrongDimension unless n = m = 1.
    """
    order, gaps, cum = _line_masses(instance)
    slopes = np.where(cum > 0, -1.0, 1.0)
    vals_sorted = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
    values = np.empty_like(vals_sorted)
    values[order] = vals_sorted
    values -= values[0]
    return PotentialField(instance.cloud, values[:, None])

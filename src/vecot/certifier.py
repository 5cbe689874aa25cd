"""Optimality certificates for coupling/potential pairs.

A coupling and a potential certify each other: if the coupling is feasible,
the potential is 1-Lipschitz, their objective values agree, and every edge
carrying flow is saturated by the potential in the directional sense, then
both are optimal.  The checks below verify exactly these conditions at a
caller-chosen tolerance and report what failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    Instance,
    PotentialField,
    VectorCoupling,
    cost,
    lipschitz_constant,
    marginals,
    pairing,
    total_variation,
)

__all__ = [
    "SlackViolation",
    "OptimalityCertificate",
    "certify",
    "isometry_saturation_set",
]


@dataclass(frozen=True)
class SlackViolation:
    """One flow-carrying edge that the potential fails to saturate.

    ``saturation`` is ||u_i - u_j|| / d_ij and ``alignment`` is
    <u_i - u_j, flow> / (d_ij ||flow||); optimality requires both to be
    at least ``1 - tol``.
    """

    pair: tuple[int, int]
    flow_norm: float
    saturation: float
    alignment: float


@dataclass(frozen=True)
class OptimalityCertificate:
    """Outcome of certification.

    ``verdict`` is "Optimal" when all checks pass, "Infeasible" when the
    coupling misses the measure or the potential is not Lipschitz within
    tolerance, and "Suboptimal" otherwise.
    """

    gap: float
    primal_feasibility: float
    dual_feasibility: float
    slack_violations: list[SlackViolation]
    verdict: str
    tol: float
    primal_value: float
    dual_value: float


def _edge_geometry(instance: Instance, coupling: VectorCoupling, potential: PotentialField):
    i, j = coupling.pairs[:, 0], coupling.pairs[:, 1]
    d = instance.distances[i, j]
    du = potential.values[i] - potential.values[j]
    return i, j, d, du


def certify(
    instance: Instance,
    coupling: VectorCoupling,
    potential: PotentialField,
    tol: float = 1e-6,
) -> OptimalityCertificate:
    """Check primal feasibility, dual feasibility, gap and slackness.

    Checks, at tolerance ``tol``:

    * ``net(coupling) = mu`` with residual at most ``tol * (1 + mass)``;
    * Lipschitz constant of the potential at most ``1 + tol``;
    * ``|cost - pairing| <= tol * (1 + |cost|)``;
    * every edge with flow norm above ``tol * tv(coupling)`` is saturated:
      ``||u_i - u_j|| >= (1 - tol) d_ij`` and the flow is aligned,
      ``<u_i - u_j, flow> >= (1 - tol) d_ij ||flow||``.

    The verdict can only improve when ``tol`` is widened.  A coupling or
    potential that does not fit the instance's points raises
    DimensionMismatch.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    measure = instance.measure
    if coupling.target_dim != measure.target_dim:
        raise DimensionMismatch(
            f"coupling dimension {coupling.target_dim} != measure {measure.target_dim}"
        )
    if coupling.edge_count and int(coupling.pairs.max()) >= instance.size:
        raise DimensionMismatch("coupling references a point outside the instance")
    if potential.cloud is not instance.cloud and not np.array_equal(
        potential.cloud.points, instance.cloud.points
    ):
        raise DimensionMismatch("potential and instance describe different clouds")

    _, _, net = marginals(coupling, instance.size)
    feas_primal = float(np.linalg.norm(net - measure.weights))
    lip = lipschitz_constant(potential)

    primal_value = cost(coupling, instance)
    dual_value = pairing(potential, measure)
    gap = primal_value - dual_value

    tv = total_variation(coupling)
    violations: list[SlackViolation] = []
    if coupling.edge_count:
        i, j, d, du = _edge_geometry(instance, coupling, potential)
        flow_norms = np.linalg.norm(coupling.flows, axis=1)
        carrying = flow_norms > tol * tv
        du_norms = np.linalg.norm(du, axis=1)
        align = np.einsum("ij,ij->i", du, coupling.flows)
        for e in np.flatnonzero(carrying):
            sat_ratio = du_norms[e] / d[e]
            align_ratio = align[e] / (d[e] * flow_norms[e])
            if sat_ratio < 1.0 - tol or align_ratio < 1.0 - tol:
                violations.append(
                    SlackViolation(
                        pair=(int(i[e]), int(j[e])),
                        flow_norm=float(flow_norms[e]),
                        saturation=float(sat_ratio),
                        alignment=float(align_ratio),
                    )
                )

    feasible = (
        feas_primal <= tol * (1.0 + measure.mass_scale) and lip <= 1.0 + tol
    )
    tight = abs(gap) <= tol * (1.0 + abs(primal_value)) and not violations
    if not feasible:
        verdict = "Infeasible"
    elif tight:
        verdict = "Optimal"
    else:
        verdict = "Suboptimal"
    return OptimalityCertificate(
        gap=gap,
        primal_feasibility=feas_primal,
        dual_feasibility=lip,
        slack_violations=violations,
        verdict=verdict,
        tol=tol,
        primal_value=primal_value,
        dual_value=dual_value,
    )


def isometry_saturation_set(
    instance: Instance,
    coupling: VectorCoupling,
    potential: PotentialField,
    tol: float = 1e-6,
) -> list[tuple[int, int]]:
    """Flow-carrying edges whose endpoints the potential maps isometrically.

    Returns the pairs with flow norm above ``tol * tv`` and
    ``||u_i - u_j|| >= (1 - tol) d_ij``, sorted lexicographically.  Adding
    a constant vector to the potential does not change the result.
    """
    if coupling.edge_count == 0:
        return []
    tv = total_variation(coupling)
    i, j, d, du = _edge_geometry(instance, coupling, potential)
    flow_norms = np.linalg.norm(coupling.flows, axis=1)
    du_norms = np.linalg.norm(du, axis=1)
    mask = (flow_norms > tol * tv) & (du_norms >= (1.0 - tol) * d)
    sel = sorted((int(a), int(b)) for a, b in zip(i[mask], j[mask]))
    return sel

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
    Instance,
    PotentialField,
    VectorCoupling,
    _check_solution,
    _check_tolerance,
    _values,
    edge_slackness,
    lipschitz_info,
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
    tolerance, and "Suboptimal" otherwise.  ``dual_feasibility`` is the
    potential's Lipschitz constant over all point pairs, and
    ``worst_lipschitz_pair`` the first pair (i < j, lexicographic) attaining
    it; a single-point cloud reports ``(0, 0)``.
    """

    gap: float
    primal_feasibility: float
    dual_feasibility: float
    slack_violations: list[SlackViolation]
    verdict: str
    tol: float
    primal_value: float
    dual_value: float
    worst_lipschitz_pair: tuple[int, int]


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

    The verdict can only improve when ``tol`` is widened.  A ``tol`` that is
    not finite and positive raises InvalidParameter, and a coupling or
    potential that does not fit the instance's points DimensionMismatch.
    """
    tol = _check_tolerance(tol, "tol", positive=True)
    _check_solution(instance, coupling, potential)
    measure = instance.measure

    primal_value, dual_value, feas_primal = _values(instance, coupling, potential)
    gap = primal_value - dual_value
    lip = lipschitz_info(potential)

    edges, flow_norms, saturation, alignment = edge_slackness(
        coupling.pairs, coupling.flows, potential.values, instance.distances, tol
    )
    bad = np.minimum(saturation, alignment) < 1.0 - tol
    rows = (coupling.pairs[edges[bad]], flow_norms[bad], saturation[bad], alignment[bad])
    violations = [SlackViolation(tuple(p), *rest) for p, *rest in zip(*(r.tolist() for r in rows))]

    feasible = (
        feas_primal <= tol * (1.0 + measure.mass_scale) and lip.value <= 1.0 + tol
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
        dual_feasibility=lip.value,
        slack_violations=violations,
        verdict=verdict,
        tol=tol,
        primal_value=primal_value,
        dual_value=dual_value,
        worst_lipschitz_pair=lip.pair,
    )


def isometry_saturation_set(
    instance: Instance,
    coupling: VectorCoupling,
    potential: PotentialField,
    tol: float = 1e-6,
) -> list[tuple[int, int]]:
    """Flow-carrying edges whose endpoints the potential maps isometrically.

    Returns the pairs with flow norm above ``tol * tv`` and saturation
    ``||u_i - u_j|| / d_ij`` at least ``1 - tol``, sorted lexicographically.  Adding
    a constant vector to the potential does not change the result.  A
    ``tol`` that is not finite and nonnegative raises InvalidParameter.
    """
    tol = _check_tolerance(tol, "tol")
    edges, _, saturation, _ = edge_slackness(
        coupling.pairs, coupling.flows, potential.values, instance.distances, tol
    )
    return sorted(map(tuple, coupling.pairs[edges[saturation >= 1.0 - tol]].tolist()))

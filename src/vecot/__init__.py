"""Kantorovich-Rubinstein transport for vector-valued measures.

Discrete R^m-valued measures with zero total mass, the transport norm that
generalizes earth-mover distance to them, optimality certificates, leaf
decompositions of optimal potentials, the counterexample family for mass
balance on transport sets, and needle disintegration with CD(kappa, N)
checks.

Every name in a module's ``__all__`` is available here as ``vecot.<name>``.
"""

from __future__ import annotations

from . import certifier, core, disintegration, leaves, mass_balance, solver
from .certifier import *  # noqa: F403
from .core import *  # noqa: F403
from .disintegration import *  # noqa: F403
from .leaves import *  # noqa: F403
from .mass_balance import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *solver.__all__,
    *certifier.__all__,
    *leaves.__all__,
    *mass_balance.__all__,
    *disintegration.__all__,
]

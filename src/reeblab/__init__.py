"""reeblab: a numerical laboratory for a Reeb flow on a 3-sphere-like
energy surface in R^4.

The package instantiates an explicit split Hamiltonian whose energy surface
carries a tight contact form, and computes every desk-checkable invariant
of its Reeb dynamics: binding-orbit periods, Conley-Zehnder indices through
three independent routes, asymptotic-operator spectra, linking and
self-linking numbers, the explicit pseudo-holomorphic foliation leaves, and
the homoclinic separatrix structure.
"""

from .config import PRESETS, RunConfig
from .model import HamiltonianParams
from . import czindex, errors, jacobi, knots, leaves, model, orbits, \
    spectrum, svgplot

__all__ = [
    "PRESETS",
    "RunConfig",
    "HamiltonianParams",
    "czindex",
    "errors",
    "jacobi",
    "knots",
    "leaves",
    "model",
    "orbits",
    "spectrum",
    "svgplot",
]

__version__ = "0.1.0"

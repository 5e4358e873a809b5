"""Quench dynamics of the transverse-field Ising chain prepared in a
coherent Gibbs state: per-mode amplitudes, rate functions, Fisher zeros,
dynamical topological order parameter, and critical-mode diagnostics."""

__version__ = "0.1.0"

from .model import *  # noqa: F403
from .mode_dynamics import *  # noqa: F403
from .criticality import *  # noqa: F403
from .observables import *  # noqa: F403
from . import criticality, mode_dynamics, model, observables

__all__ = [
    "__version__",
    *model.__all__,
    *mode_dynamics.__all__,
    *criticality.__all__,
    *observables.__all__,
]

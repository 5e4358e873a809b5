"""Quench parameters and single-mode spectral primitives.

The chain is treated in its free-fermion momentum representation: each
positive momentum k pairs with -k into an independent two-level sector
spanned by the empty state and the doubly occupied state c+_k c+_{-k}|0>.
Everything downstream is built from the dispersion and the mixing angle
defined here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuenchProtocol",
    "ModeGrid",
    "mode_grid",
    "dispersion",
    "bogoliubov_angle",
    "delta_theta",
    "K_EPS",
]

K_EPS = 1e-9  # sampled momenta stay this far inside the open zone (0, pi)


def _wrap_phase(phi: float) -> float:
    # reduce to (-pi, pi]; math.remainder lands in [-pi, pi]
    r = math.remainder(phi, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True)
class QuenchProtocol:
    """Physical controls of a sudden quench from a coherent Gibbs state.

    lambda_pre and lambda_post are the transverse fields before and after
    the quench (the quantum critical point sits at 1).  beta is the inverse
    temperature of the preparation; ``math.inf`` selects the ground state.
    phi is the relative phase between the two levels of every mode sector
    and is normalized into (-pi, pi].  coupling sets the overall energy
    scale and defaults to 1.  2 * max(coupling, 1) * (max(lambda_pre,
    lambda_post) + 1) must be finite: twice the bound on every mode energy,
    with the coupling and without it.
    """

    lambda_pre: float
    lambda_post: float
    beta: float
    phi: float = 0.0
    coupling: float = 1.0

    def __post_init__(self):
        for name in ("lambda_pre", "lambda_post"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")
            object.__setattr__(self, name, v)
        b = float(self.beta)
        if math.isnan(b) or b <= 0.0:
            raise ValueError(f"beta must be positive (math.inf allowed), got {b!r}")
        object.__setattr__(self, "beta", b)
        p = float(self.phi)
        if not math.isfinite(p):
            raise ValueError(f"phi must be finite, got {p!r}")
        object.__setattr__(self, "phi", _wrap_phase(p))
        j = float(self.coupling)
        if not math.isfinite(j) or j <= 0.0:
            raise ValueError(f"coupling must be positive, got {j!r}")
        # every mode energy is at most j * (max field + 1): the critical-time
        # ladder divides by twice the energy, and the mixing angle adds
        # (lam - cos k) to the coupling-free energy; both sums must stay finite
        field = max(self.lambda_pre, self.lambda_post)
        if not math.isfinite(2.0 * max(j, 1.0) * (field + 1.0)):
            raise ValueError(f"coupling {j!r} with field {field!r} overflows the mode energies")
        object.__setattr__(self, "coupling", j)


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Antiperiodic momentum grid: k = (2n-1)pi/N for n = 1..N/2."""

    momenta: np.ndarray


def mode_grid(n_sites) -> ModeGrid:
    """Positive-momentum grid of a chain with antiperiodic sectors.

    n_sites must be an even integer >= 2; the grid holds the N/2 momenta
    (2n-1)pi/N, all strictly inside (0, pi).
    """
    if isinstance(n_sites, bool) or not isinstance(n_sites, numbers.Integral):
        raise ValueError(f"n_sites must be an integer, got {n_sites!r}")
    n = int(n_sites)
    if n < 2 or n % 2:
        raise ValueError(f"n_sites must be even and >= 2, got {n}")
    momenta = (2.0 * np.arange(1, n // 2 + 1) - 1.0) * (math.pi / n)
    return ModeGrid(momenta=momenta)


def dispersion(k, lam, coupling: float = 1.0):
    """Mode energy coupling * hypot(lam - cos k, sin k).

    Accepts scalars or arrays.  Exact at the band edges: k=0 gives
    coupling*|lam - 1| and k=pi gives coupling*(lam + 1).
    """
    out = coupling * _field_terms(np.cos(k), np.sin(k), lam)[1]
    return out.item() if np.ndim(out) == 0 else out


def bogoliubov_angle(k, lam):
    """Mixing angle of the mode Hamiltonian, principal branch.

    Defined as the argument of (lam - eps - cos k) + i sin k with eps the
    coupling-free dispersion; the overall energy scale drops out.  On
    (0, pi) the angle lies in (pi/2, pi).  At k = 0 the defining number is
    real and the sign convention gives 0 or pi; it vanishes when lam >= 1,
    where no angle exists and a ValueError is raised.
    """
    sin_k = np.sin(k)
    d, eps = _field_terms(np.cos(k), sin_k, lam)
    out = _mixing_angle(d, eps, sin_k, lam)
    return out.item() if np.ndim(out) == 0 else out


def _field_terms(cos_k, sin_k, lam):
    """(lam - cos k, hypot(lam - cos k, sin k)) from precomputed cos k, sin k.

    The coupling-free field offset and dispersion that dispersion,
    bogoliubov_angle and mode_coefficients share.
    """
    d = lam - cos_k
    return d, np.hypot(d, sin_k)


def _mixing_angle(d, eps, sin_k, lam):
    """Principal mixing angle from the terms of _field_terms; array out."""
    # d - eps cancels catastrophically near k = 0 when d > 0; the conjugate
    # form -sin^2 k / (d + eps) is exact algebra and fully conditioned there.
    # For d <= 0 both terms of d - eps have the same sign; keep it, form no quotient.
    re = np.asarray(d - eps)
    np.divide(-(sin_k * sin_k), d + eps, out=re, where=d > 0.0)
    if not sin_k.all() and np.any((re == 0.0) & (sin_k == 0.0)):
        raise ValueError(
            "mixing angle undefined: defining complex number vanishes "
            f"(k=0 with field {lam!r} >= 1)"
        )
    return np.arctan2(sin_k, re)


def delta_theta(k, protocol: QuenchProtocol):
    """Mixing-angle difference theta(lambda_pre) - theta(lambda_post).

    Both angles stay in (pi/2, pi) for k in (0, pi), so the difference is
    already continuous in k and needs no branch bookkeeping.
    """
    return bogoliubov_angle(k, protocol.lambda_pre) - bogoliubov_angle(
        k, protocol.lambda_post
    )

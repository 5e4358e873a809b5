"""Fisher-zero lines, critical momenta, critical times and winding jumps.

Two inequivalent critical-mode conditions circulate for the coherent Gibbs
initial state; they differ in whether the imbalance equation carries a
sinh or a tanh of beta*eps.  Only the sinh form is consistent with the
weights and the Fisher-zero line, so it is the default, but both are
implemented so the disagreement can be inspected (see variant_report).

Winding jumps follow in closed form: near a root k* of the imbalance A and
a rung t*_n of its ladder the amplitude G ~ (-1)^n [-eps' (t - t*) +
(k - k*) (i A'(k*) - t* d eps'/dk)] passes 0 on opposite sides before and
after t*, so the winding number steps by -sign A'(k*) at every rung.
critical_modes reads it off the root scan's bracket for free, so
with_jump_signs=False is kept for its callers and saves nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import K_EPS, QuenchProtocol, dispersion
from .mode_dynamics import ModeCoefficients, mode_coefficients
from .mode_dynamics import boundary_partition  # noqa: F401 (traced by perfbench)

__all__ = [
    "CriticalSet",
    "FisherLine",
    "VariantRow",
    "VariantReport",
    "critical_modes",
    "critical_times",
    "imbalance_roots",
    "fisher_zero_line",
    "variant_report",
    "VARIANTS",
]

VARIANTS = ("sinh", "tanh")

_BISECT_TOL = 1e-12
_ROOT_RESIDUAL = 1e-10  # bisection goes past _BISECT_TOL until both ends are this close
_SCAN_PANELS = 4096  # uniform panels of the root scan over (0, pi)


@dataclass(frozen=True, eq=False)
class CriticalSet:
    """Critical momenta with their time ladders and winding-jump signs.

    modes is ascending; times[i] is the ladder for modes[i]; jump_signs[i]
    is the winding jump, +1 or -1, at each of its rungs (None when not
    asked for); residuals[i] is the variant equation's value at the root.
    """

    modes: np.ndarray
    times: list
    jump_signs: list
    residuals: np.ndarray


@dataclass(frozen=True, eq=False)
class FisherLine:
    """One branch of the zero line of the boundary partition function."""

    momenta: np.ndarray
    zeros: np.ndarray
    skipped: np.ndarray
    coefficients: ModeCoefficients  # at momenta, the kept samples


@dataclass(frozen=True, eq=False)
class VariantRow:
    variant: str
    k_star: float
    residual: float
    residual_other: float
    fisher_confirmed: bool


@dataclass(frozen=True, eq=False)
class VariantReport:
    rows: list


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


def _variant_residual(protocol: QuenchProtocol, k, variant: str, coeffs=None):
    """Bounded residual whose zeros are the variant's critical momenta.

    sinh: the population imbalance itself (the sinh equation divided by
    cosh(beta*eps), same zeros, bounded by 1 for any beta).
    tanh: tanh(beta*eps)*cos(2 dtheta) + sin(phi)*sin(2 dtheta), the
    multiplied-through form of the cotangent equation.  coeffs, if given,
    must be mode_coefficients(protocol, k).
    """
    coeffs = mode_coefficients(protocol, k) if coeffs is None else coeffs
    if variant == "sinh":
        return coeffs.imbalance
    x = protocol.beta * np.asarray(coeffs.eps_pre)
    dth = np.asarray(coeffs.delta_theta)
    out = np.tanh(x) * np.cos(2.0 * dth) + math.sin(protocol.phi) * np.sin(2.0 * dth)
    return float(out) if np.ndim(k) == 0 else out


@functools.lru_cache(maxsize=1)  # built once per process and shared read-only
def _scan_nodes() -> np.ndarray:
    # uniform interior nodes plus geometric densification toward both
    # endpoints so roots within ~1e-3 of the edges are still bracketed
    interior = np.linspace(0.0, math.pi, _SCAN_PANELS + 1)[1:-1]
    lead = np.geomspace(K_EPS, interior[0], 48, endpoint=False)
    tail = math.pi - np.geomspace(K_EPS, math.pi - interior[-1], 48, endpoint=False)
    nodes = np.concatenate([lead, interior, np.sort(tail)])
    nodes.flags.writeable = False
    return nodes


def _bisect(fn, a: float, b: float, fa: float, fb: float) -> float:
    # plain bisection on a sign-change bracket, to _BISECT_TOL in k, and on
    # while an end's residual exceeds _ROOT_RESIDUAL (a steep root)
    while b - a > _BISECT_TOL or max(abs(fa), abs(fb)) > _ROOT_RESIDUAL:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval at float resolution
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) == (fm < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def _scan_for_roots(fn, vals=None):
    """Dense sign scan over (0, pi) followed by bisection; (roots, falls).

    fn must accept momentum arrays; vals, if given, must be fn(_scan_nodes()).
    An exact zero counts as no sign: a root is a sign change between
    neighbouring nonzero nodes, so bisection meets a crossing zero, and a
    tangent or end-node zero is no root.  falls[i]: fn is > 0 at the left
    end of roots[i]'s bracket, which bisection keeps.
    """
    nodes = _scan_nodes()
    vals = np.asarray(fn(nodes) if vals is None else vals)
    nz = np.flatnonzero(vals)
    change = np.signbit(vals[nz[:-1]]) != np.signbit(vals[nz[1:]])
    lo, hi = nz[:-1][change], nz[1:][change]
    scalar = lambda k: float(fn(k))
    roots = [
        _bisect(scalar, nodes[i], nodes[j], float(vals[i]), float(vals[j])) for i, j in zip(lo, hi)
    ]
    return np.asarray(roots, dtype=float), vals[lo] > 0.0


def imbalance_roots(protocol: QuenchProtocol) -> np.ndarray:
    """Momenta in (0, pi) where the population imbalance vanishes."""
    return _scan_for_roots(lambda k: _variant_residual(protocol, k, "sinh"))[0]


def _ladder(n, eps):
    # rung n of a mode's critical times, and Im z of its Fisher branch n
    return (2.0 * n + 1.0) * math.pi / (2.0 * eps)


def critical_times(protocol: QuenchProtocol, k_star: float, n_max: int) -> np.ndarray:
    """Ladder (2n+1)*pi/(2*eps_post(k_star)) for n = 0..n_max."""
    if not 0.0 < k_star < math.pi:
        raise ValueError(f"k_star must lie in (0, pi), got {k_star!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max!r}")
    eps = dispersion(k_star, protocol.lambda_post, protocol.coupling)
    return _ladder(np.arange(n_max + 1), eps)


def critical_modes(
    protocol: QuenchProtocol,
    variant: str = "sinh",
    n_max: int = 3,
    with_jump_signs: bool = True,
) -> CriticalSet:
    """Find the critical momenta of the chosen condition variant.

    An empty mode list is a valid outcome (no sign change anywhere means no
    dynamical transition).  A mode's jump sign is -sign of the residual's
    slope at the root (see the module docstring): for sinh the winding jump
    at every rung of its ladder; for tanh what that condition predicts.
    with_jump_signs=False leaves them None and saves nothing.
    """
    _check_variant(variant)
    roots, falls = _scan_for_roots(lambda k: _variant_residual(protocol, k, variant))
    residuals = np.asarray([float(_variant_residual(protocol, r, variant)) for r in roots])
    signs = [1 if f else -1 for f in falls] if with_jump_signs else [None] * len(roots)
    return CriticalSet(
        modes=roots,
        times=[critical_times(protocol, r, n_max) for r in roots],
        jump_signs=signs,
        residuals=residuals,
    )


def fisher_zero_line(protocol: QuenchProtocol, branch_n: int, k_samples, coeffs=None) -> FisherLine:
    """Branch branch_n of the zero line z_n(k) in the complex-time plane.

    Re z = ln(weight_plus/weight_minus)/(2 eps_post) and Im z =
    (2n+1)pi/(2 eps_post).  Samples where either weight vanishes (possible
    only in degenerate ground-state limits) are skipped and reported in
    ``skipped``.  coeffs, if given, must be mode_coefficients(protocol,
    k_samples) for a 1-d k_samples; several branches can then share them.
    """
    k_samples = np.atleast_1d(np.asarray(k_samples, dtype=float))
    if k_samples.size == 0:
        raise ValueError("k_samples must be nonempty")
    if np.any((k_samples <= 0.0) | (k_samples >= math.pi)):
        raise ValueError("k_samples must lie strictly inside (0, pi)")
    if coeffs is None:
        coeffs = mode_coefficients(protocol, k_samples)
    ok = (coeffs.weight_plus > 0.0) & (coeffs.weight_minus > 0.0)
    kept = coeffs  # its weights are computed once, whatever the branches
    if not ok.all():  # the kept samples of every array field; the weights follow on read
        fields = [f.name for f in dataclasses.fields(coeffs) if f.name != "_beta_phi"]
        kept = dataclasses.replace(coeffs, **{name: getattr(coeffs, name)[ok] for name in fields})
    eps = kept.eps_post
    re = (np.log(kept.weight_plus) - np.log(kept.weight_minus)) / (2.0 * eps)
    im = _ladder(branch_n, eps)
    return FisherLine(
        momenta=k_samples[ok],
        zeros=re + 1j * im,
        skipped=k_samples[~ok],
        coefficients=kept,
    )


def variant_report(protocol: QuenchProtocol) -> VariantReport:
    """Roots of both condition variants side by side.

    Each row carries the root's residual in its own equation, its residual
    in the other variant's equation, and whether the Fisher line actually
    changes sign there: Re z does iff the imbalance does, iff an odd
    number of sinh roots lie within h = min(1e-6, k*/2, (pi - k*)/2).
    """
    nodes = _scan_nodes()
    scan = mode_coefficients(protocol, nodes)  # both variants scan the same nodes
    rows, found = [], {}
    for variant in VARIANTS:  # sinh first: its roots confirm every row
        other = "tanh" if variant == "sinh" else "sinh"
        fn = lambda k: _variant_residual(protocol, k, variant)
        found[variant], _ = _scan_for_roots(fn, _variant_residual(protocol, nodes, variant, scan))
        for r in found[variant]:
            h = min(1e-6, 0.5 * r, 0.5 * (math.pi - r))
            confirmed = bool(np.count_nonzero(abs(found["sinh"] - r) < h) % 2)
            at_root = mode_coefficients(protocol, r)  # both residuals of the row
            residual, residual_other = (
                float(_variant_residual(protocol, r, v, at_root)) for v in (variant, other)
            )
            rows.append(VariantRow(variant, float(r), residual, residual_other, confirmed))
    return VariantReport(rows=rows)

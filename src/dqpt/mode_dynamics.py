"""Two-level dynamics of a single quenched momentum sector.

The closed forms in this module are what the rest of the package consumes.
mode_echo is the one formula for the per-mode Loschmidt echo |G_k(t)|^2:
the quadrature and finite-N rate functions, the single-mode critical rate
and the echo-decomposition task all take it from there.  mode_coefficients
takes the energies and angles of model's dispersion and bogoliubov_angle
from one cos k, one sin k and one hypot per field, and boundary_partition
evaluates a whole Fisher-zero branch in one array call.  The matrix
routines (eigenvectors, Pauli-rotation propagator, mode_amplitude_oracle,
null_work_decomposition) are an independent route kept deliberately free
of the trigonometric shortcuts, so the two can be checked against each
other.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import QuenchProtocol, _field_terms, _mixing_angle, dispersion
from .model import delta_theta  # noqa: F401 (traced by perfbench)

__all__ = [
    "ModeCoefficients",
    "mode_coefficients",
    "mode_amplitude",
    "mode_echo",
    "mode_eigenvectors",
    "evolution_operator",
    "mode_amplitude_oracle",
    "boundary_partition",
    "null_work_decomposition",
]


@dataclass(frozen=True, eq=False)
class ModeCoefficients:
    """Per-momentum derived quantities; scalars or parallel arrays.

    weight_plus and weight_minus are the populations of the upper and lower
    post-quench eigenstates; together with the imbalance they satisfy
    weight_plus + weight_minus = 1 and weight_plus - weight_minus =
    -imbalance.  They are read-only and computed on first read, from
    eps_pre, delta_theta and the protocol's beta and phi (_beta_phi): of
    the callers only the Fisher-zero line and boundary_partition read them.
    """

    eps_pre: float | np.ndarray
    eps_post: float | np.ndarray
    delta_theta: float | np.ndarray
    imbalance: float | np.ndarray
    _beta_phi: tuple = field(repr=False)

    @functools.cached_property
    def _weights(self):
        beta, phi = self._beta_phi
        dth = np.asarray(self.delta_theta)
        x = beta * np.asarray(self.eps_pre)
        em = np.exp(-x)  # exp(-inf) == 0 exactly
        em2 = em * em
        denom = 1.0 + em2
        # the imbalance's sin(phi) sin(2 dtheta), times e^{-x}
        coh_em = math.sin(phi) * np.sin(2.0 * dth) * em
        ch = np.cos(dth)
        sh = np.sin(dth)
        w_plus = (em2 * ch * ch + sh * sh - coh_em) / denom
        w_minus = (em2 * sh * sh + ch * ch + coh_em) / denom
        # exact values are squares, but roundoff can graze below zero at phi = +-pi/2
        w_plus = np.maximum(w_plus, 0.0)
        w_minus = np.maximum(w_minus, 0.0)
        if np.ndim(self.eps_pre) == 0:
            return float(w_plus), float(w_minus)
        if not np.asarray(self.eps_pre).flags.writeable:  # a result that may be kept and shared
            w_plus.flags.writeable = w_minus.flags.writeable = False
        return w_plus, w_minus

    @property
    def weight_plus(self) -> float | np.ndarray:
        return self._weights[0]

    @property
    def weight_minus(self) -> float | np.ndarray:
        return self._weights[1]


# momenta per mode_coefficients slice: an input above it is taken in slices of
# this many, so its temporaries cost O(_CHUNK), not a mode array each
_CHUNK = 8192


# the last read-only request: (protocol, grid, its coefficients once kept)
_kept = (None, None, None)


def mode_coefficients(protocol: QuenchProtocol, k) -> ModeCoefficients:
    """Energies, angle difference and imbalance at k; the eigenbasis weights
    follow on first read (ModeCoefficients).

    The Boltzmann factors are normalized by the dominant one before any
    exponential is taken, so every beta up to and including math.inf stays
    in range and the ground-state limit is exact.  An array of more than
    _CHUNK momenta is taken in slices (_sliced_coefficients), every bit the
    same.  A read-only array of at least one dimension, the way the package
    marks its shared grids, gets read-only fields; from the second request
    in a row for the same protocol object and the same grid object the
    result is kept and handed out again (_kept), until a read-only request
    for another pair replaces it.
    """
    if getattr(k, "size", 1) > _CHUNK:  # no np.size: 1 us a call on a float
        return _sliced_coefficients(protocol, k)
    if not isinstance(k, np.ndarray) or k.flags.writeable or k.ndim == 0:
        return _coefficients(protocol, k)
    global _kept
    # one read and one write of the whole slot: threads racing here can
    # only cost a recomputation, never hand out another pair's fields
    kept_protocol, kept_k, kept = _kept
    repeated = kept_protocol is protocol and kept_k is k
    if repeated and kept is not None:
        return kept
    coeffs = _coefficients(protocol, k)
    for v in (coeffs.eps_pre, coeffs.eps_post, coeffs.delta_theta, coeffs.imbalance):
        v.flags.writeable = False
    # a one-shot request keeps no fields; the second in a row keeps them
    _kept = (protocol, k, coeffs if repeated else None)
    return coeffs


def _coefficients(protocol: QuenchProtocol, k) -> ModeCoefficients:
    # the formulas of dispersion and delta_theta on one cos k and sin k;
    # each field's terms are dropped before the next field's are made
    cos_k = np.cos(k)
    sin_k = np.sin(k)
    d, h = _field_terms(cos_k, sin_k, protocol.lambda_pre)
    eps_pre = np.asarray(protocol.coupling * h)
    theta_pre = _mixing_angle(d, h, sin_k, protocol.lambda_pre)
    del d, h
    d, h = _field_terms(cos_k, sin_k, protocol.lambda_post)
    eps_post = np.asarray(protocol.coupling * h)
    dth = np.asarray(theta_pre - _mixing_angle(d, h, sin_k, protocol.lambda_post))
    del d, h, cos_k, sin_k, theta_pre

    x = protocol.beta * eps_pre
    em = np.exp(-x)  # exp(-inf) == 0 exactly
    coh = math.sin(protocol.phi) * np.sin(2.0 * dth)
    imbalance = np.cos(2.0 * dth) * np.tanh(x) + coh * (2.0 * em / (1.0 + em * em))

    fields = (eps_pre, eps_post, dth, imbalance)  # in ModeCoefficients order
    beta_phi = (protocol.beta, protocol.phi)
    if np.ndim(k) == 0:
        return ModeCoefficients(*map(float, fields), beta_phi)
    return ModeCoefficients(*fields, beta_phi)


def _sliced_coefficients(protocol: QuenchProtocol, k) -> ModeCoefficients:
    """mode_coefficients of k, _CHUNK momenta at a time: each slice's four
    fields are copied into arrays of k's shape, so only one slice's
    temporaries are alive at once.  The formulas are elementwise, so the
    bits are those of one call."""
    flat = np.ravel(k)
    fields = None
    for lo in range(0, flat.size, _CHUNK):
        part = _coefficients(protocol, flat[lo : lo + _CHUNK])
        values = (part.eps_pre, part.eps_post, part.delta_theta, part.imbalance)
        if fields is None:  # the dtypes one call would give
            fields = [np.empty(flat.size, dtype=v.dtype) for v in values]
        for out, v in zip(fields, values):
            out[lo : lo + _CHUNK] = v
    fields = [out.reshape(np.shape(k)) for out in fields]
    return ModeCoefficients(*fields, (protocol.beta, protocol.phi))


def mode_amplitude(coeffs: ModeCoefficients, t):
    """Return amplitude cos(eps_post t) + i A sin(eps_post t).

    Broadcasts over whichever of coeffs and t is array-valued.
    """
    phase = np.asarray(coeffs.eps_post) * np.asarray(t, dtype=float)
    out = np.cos(phase) + 1j * np.asarray(coeffs.imbalance) * np.sin(phase)
    return complex(out) if np.ndim(out) == 0 else out


def mode_echo(imbalance, eps_post, t, out=None, work=None):
    """Per-mode Loschmidt echo |G_k(t)|^2 = cos^2(eps' t) + A^2 sin^2(eps' t).

    Taken as (1 + (A tan)^2) / (1 + tan^2): positive terms only, so no
    cancellation near a zero of the echo, and one vectorized tangent costs a
    fraction of a sine plus a cosine.  Broadcasts over its arguments; out
    (returned) receives eps' t, its tangent and then the echo, and work A tan,
    so a caller owning both allocates nothing.  With A replaced by
    cos(2 delta_theta) it is the null-work probability of null_work_decomposition.
    """
    v = np.asarray(np.multiply(eps_post, t, out=out, dtype=float))
    np.tan(v, out=v)
    s = np.multiply(imbalance, v, out=work)
    s *= s
    s += 1.0
    v *= v
    v += 1.0
    np.divide(s, v, out=v)
    return float(v) if v.ndim == 0 else v


def _aligned_empty(shape) -> np.ndarray:
    """Empty C-contiguous float64 array at a 64-byte-aligned address; numpy's
    own come from malloc at 16 bytes, where its long vector loops ran at half
    speed on an AVX-512 Xeon."""
    n = 8 * int(np.prod(shape))
    raw = np.empty(n + 64, dtype=np.uint8)
    # two slices: an empty raw[skip:skip] would keep raw's own address
    return raw[-raw.ctypes.data % 64 :][:n].view(np.float64).reshape(shape)


def mode_eigenvectors(k: float, lam: float):
    """Eigenvectors of the mode Hamiltonian in the {c+c+|0>, |0>} basis.

    Returns (upper, lower) with eigenvalues +eps and -eps.  Components are
    (i sin theta, cos theta) and (cos theta, i sin theta) with theta the
    principal-branch mixing angle.
    """
    # inline principal-arg angle; shares only the defining formula
    d = lam - math.cos(k)
    eps = math.hypot(d, math.sin(k))
    s_k = math.sin(k)
    # conjugate form of d - eps avoids cancellation near k = 0 for d > 0
    re = -(s_k * s_k) / (d + eps) if d > 0.0 else d - eps
    theta = math.atan2(s_k, re)
    c = math.cos(theta)
    s = math.sin(theta)
    upper = np.array([1j * s, c], dtype=complex)
    lower = np.array([c, 1j * s], dtype=complex)
    return upper, lower


def evolution_operator(k: float, lam: float, t: float, coupling: float = 1.0) -> np.ndarray:
    """Pauli-rotation form of the mode propagator exp(-i H_k t).

    Exact at machine precision; no series truncation.
    """
    eps = dispersion(k, lam, coupling)
    ny = coupling * math.sin(k)
    nz = coupling * (lam - math.cos(k))
    norm = math.hypot(ny, nz)
    if norm == 0.0:  # gapless point: H vanishes identically
        return np.eye(2, dtype=complex)
    ny /= norm
    nz /= norm
    c = math.cos(eps * t)
    s = math.sin(eps * t)
    return np.array(
        [[c - 1j * s * nz, -s * ny], [s * ny, c + 1j * s * nz]], dtype=complex
    )


def mode_amplitude_oracle(protocol: QuenchProtocol, k: float, t: float) -> complex:
    """Matrix-route return amplitude: build the state, rotate it, project.

    Constructs the coherent Gibbs state of the sector explicitly from the
    pre-quench eigenvectors and applies the post-quench propagator.  Ground
    truth for mode_amplitude.
    """
    upper, lower = mode_eigenvectors(k, protocol.lambda_pre)
    x = protocol.beta * dispersion(k, protocol.lambda_pre, protocol.coupling)
    em = math.exp(-x)
    psi = (em * upper + cmath.exp(1j * protocol.phi) * lower) / math.sqrt(1.0 + em * em)
    u = evolution_operator(k, protocol.lambda_post, t, protocol.coupling)
    return complex(np.vdot(psi, u @ psi))


def boundary_partition(coeffs: ModeCoefficients, z):
    """Per-mode boundary partition factor at complex time z.

    exp(-z*eps_post)*weight_plus + exp(+z*eps_post)*weight_minus, broadcast
    over the coefficient arrays and z; a 0-d result is returned as complex.
    At z = i t this reproduces mode_amplitude.  Raises OverflowError if any
    |Re z| * eps_post exceeds 700, the double exp range, naming the first.
    """
    z = np.asarray(z, dtype=complex)
    eps = np.asarray(coeffs.eps_post, dtype=float)
    edge = np.abs(z.real) * eps
    over = edge[edge > 700.0]
    if over.size:
        raise OverflowError(f"boundary partition out of range: |Re z|*eps = {over[0]:.3g} > 700")
    ze = z * eps
    out = np.exp(-ze) * coeffs.weight_plus + np.exp(ze) * coeffs.weight_minus
    return complex(out) if out.ndim == 0 else out


def null_work_decomposition(protocol: QuenchProtocol, k: float, t: float):
    """Split the mode echo into zero-work probability and coherence part.

    Returns (null_work_prob, interference).  The probability is the
    population-weighted sum of squared diagonal propagator elements,
    computed through the matrix route; the interference is the echo minus
    that, so echo = null_work_prob + interference by construction and the
    content of the decomposition is in the matrix-vs-closed-form agreement.
    """
    upper, lower = mode_eigenvectors(k, protocol.lambda_pre)
    u = evolution_operator(k, protocol.lambda_post, t, protocol.coupling)
    x = protocol.beta * dispersion(k, protocol.lambda_pre, protocol.coupling)
    em2 = math.exp(-2.0 * x)
    p_upper = em2 / (1.0 + em2)
    p_lower = 1.0 / (1.0 + em2)
    a_uu = complex(np.vdot(upper, u @ upper))
    a_ll = complex(np.vdot(lower, u @ lower))
    null_work = p_upper * abs(a_uu) ** 2 + p_lower * abs(a_ll) ** 2
    echo = abs(mode_amplitude(mode_coefficients(protocol, k), t)) ** 2
    return null_work, echo - null_work

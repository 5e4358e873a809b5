"""Chain-level observables: rate functions, phase profiles, winding, cusps.

The thermodynamic-limit rate function is an adaptive panel quadrature whose
grid is pre-split at the imbalance roots, because that is where the
integrand develops its (integrable) logarithmic spikes at critical times.
Phase profiles are unwrapped along momentum with adaptive grid refinement;
an unresolvable jump is how a critical (k, t) pair announces itself.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .criticality import imbalance_roots
from .mode_dynamics import mode_coefficients
from .model import QuenchProtocol, dispersion, mode_grid

__all__ = [
    "RateSeries",
    "PhaseProfile",
    "UnwrapError",
    "rate_function",
    "rate_function_finite",
    "critical_rate_function",
    "compute_rate_series",
    "compute_rate_series_finite",
    "phase_profile",
    "winding_number",
    "detect_cusps",
    "K_EPS",
]

K_EPS = 1e-9  # momentum grids stop this far short of 0 and pi

_RATE_METHODS = ("quadrature", "finite_N")


@dataclass(frozen=True, eq=False)
class RateSeries:
    """Sampled rate function with the metadata cusp detection needs."""

    times: np.ndarray
    values: np.ndarray
    method: str
    protocol: QuenchProtocol
    estimated_error: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size >= 2 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if self.method not in _RATE_METHODS:
            raise ValueError(f"method must be one of {_RATE_METHODS}, got {self.method!r}")
        err = self.estimated_error
        if err is not None:
            err = np.asarray(err, dtype=float)
            if err.shape != times.shape:
                raise ValueError("estimated_error must match times in shape")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "estimated_error", err)


# ---------------------------------------------------------------------------
# thermodynamic-limit rate function

_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
# every panel carries both rules' nodes in one row: 15 Gauss-Legendre, then 7
_NODES_X = np.concatenate([_GL15_X, _GL7_X])

_MAX_PANELS = 16384
_MAX_SPLITS = 4096
_BLOCK_BYTES = 1 << 18  # size of one (time x panel x node) temporary


def _log_echo_values(imbalance, eps_post, t):
    # -(1/pi) ln|G_k(t)| from per-node (A, eps') data; nonnegative since |G| <= 1.
    # |G|^2 = cos^2 + A^2 sin^2 = (1 + (A tan)^2) / (1 + tan^2): positive terms
    # only, so no cancellation at the spike, and one vectorized tangent costs
    # a fraction of a sine plus a cosine.  In place on two buffers, since a
    # time block's temporaries are its bulk cost.
    v = eps_post * t
    np.tan(v, out=v)
    s = imbalance * v
    s *= s
    s += 1.0
    v *= v
    v += 1.0
    np.divide(s, v, out=v)
    np.log(v, out=v)
    np.negative(v, out=v)
    v /= 2.0 * math.pi
    return v


def _node_data(protocol, lefts, widths):
    # (A, eps') on the 22 nodes of each panel, shaped (panel, node)
    half = 0.5 * widths[:, None]
    k = (lefts[:, None] + half) + half * _NODES_X
    coeffs = mode_coefficients(protocol, k.ravel())
    return (
        np.asarray(coeffs.imbalance).reshape(k.shape),
        np.asarray(coeffs.eps_post).reshape(k.shape),
    )


def _panel_sums(half, v):
    # (GL15 value, |GL15 - GL7|) per panel; multiply-then-sum along the
    # contiguous node axis keeps each row's arithmetic independent of how
    # many rows share the call, unlike a BLAS product
    i15 = half * np.add.reduce(v[..., :15] * _GL15_W, axis=-1)
    i7 = half * np.add.reduce(v[..., 15:] * _GL7_W, axis=-1)
    return i15, np.abs(i15 - i7)


class _RateQuad:
    """Reusable rate evaluator for one protocol.

    The base panels split the zone at the imbalance roots and then to a
    uniform maximum width; their node data (A, eps') is computed once.  A
    block of times is integrated over all base panels in one numpy pass of
    shape (time x panel x node), with blocks sized so each temporary stays
    near _BLOCK_BYTES.  Each panel carries a 15-point and a 7-point
    Gauss-Legendre rule, and their difference is its error bound.  A
    sample whose summed bound exceeds tol is refined on its own by
    repeatedly halving the panel with the largest bound.  The children of a
    split are the same panels at every time, so their node data is cached
    per (left, width) of the split panel, up to _MAX_PANELS child panels,
    and the protocol's modes are evaluated once per panel, not per sample.

    The two rules are deliberately not nested.  In the Gauss-Kronrod 7/15
    pair the 7 Gauss nodes are among the 15, so a narrow logarithmic spike
    near a critical time that slips between the 15 is missed by both rules
    alike and their difference under-reports: at lambda 0.5 -> 2, beta 1,
    phi -pi/2, t 5.525 that pair claimed 4.0e-9 against a true error of
    2.65e-8.  Independent node sets do not share that blind spot.
    """

    def __init__(self, protocol: QuenchProtocol, tol: float = 1e-8):
        if tol <= 0.0:
            raise ValueError(f"tol must be positive, got {tol!r}")
        self.protocol = protocol
        self.tol = float(tol)
        self.extra_panels = 0  # refinement splits accumulated over all calls
        self.unconverged = 0

        edges = [0.0]
        for r in imbalance_roots(protocol):
            if edges[-1] < r < math.pi:
                edges.append(float(r))
        edges.append(math.pi)
        max_w = math.pi / 64.0
        lefts = []
        widths = []
        for a, b in zip(edges[:-1], edges[1:]):
            m = max(1, math.ceil((b - a) / max_w))
            sub = np.linspace(a, b, m + 1)
            lefts.extend(sub[:-1])
            widths.extend(np.diff(sub))
        self._lefts = np.asarray(lefts)
        self._widths = np.asarray(widths)
        self._half = 0.5 * self._widths
        self._imb, self._eps = _node_data(protocol, self._lefts, self._widths)
        self._block = max(1, _BLOCK_BYTES // self._imb.nbytes)
        self._children = {}  # (left, width) of a split panel -> its children's node data

    def _split(self, t, left, width):
        """Node data, values and bounds of the two halves of one panel."""
        key = (left, width)
        data = self._children.get(key)
        hw = 0.5 * width
        if data is None:
            data = _node_data(
                self.protocol, np.array([left, left + hw]), np.array([hw, hw])
            )
            if 2 * len(self._children) >= _MAX_PANELS:
                del self._children[next(iter(self._children))]
            self._children[key] = data
        i15, err = _panel_sums(0.5 * hw, _log_echo_values(data[0], data[1], t))
        return hw, i15.tolist(), err.tolist()

    def _refine(self, t, i15, err, total_err):
        """Greedy panel halving for one time, from its base-panel sums."""
        lefts = self._lefts
        widths = self._widths
        # base panels in pop order: largest bound first, then leftmost
        order = np.argsort(-err, kind="stable")
        n_base = order.size
        nxt = 0
        heap = []  # live children: (-bound, left, seq, width, value)
        seq = 0
        splits = 0
        while (
            total_err > self.tol
            and splits < _MAX_SPLITS
            and n_base + 2 * splits < _MAX_PANELS
        ):
            base = None
            if nxt < n_base:
                j = order[nxt]
                base = (-float(err[j]), float(lefts[j]), float(widths[j]))
            if base is not None and (not heap or base[:2] <= heap[0][:2]):
                neg_e, left, width = base
                nxt += 1
            else:
                neg_e, left, _, width, _ = heapq.heappop(heap)
            hw, ci, ce = self._split(t, left, width)
            for child_left, v, e in zip((left, left + hw), ci, ce):
                heapq.heappush(heap, (-e, child_left, seq, hw, v))
                seq += 1
                total_err += e
            total_err += neg_e  # minus the split panel's bound
            splits += 1
        self.extra_panels += splits

        rest = order[nxt:]
        alive_left = np.concatenate([lefts[rest], [h[1] for h in heap]])
        by_left = np.argsort(alive_left, kind="stable")
        value = float(np.sum(np.concatenate([i15[rest], [h[4] for h in heap]])[by_left]))
        total_err = float(np.sum(np.concatenate([err[rest], [-h[0] for h in heap]])[by_left]))
        if total_err > self.tol:
            self.unconverged += 1
        return value, total_err

    def evaluate_block(self, times):
        """Integrate at each of a 1-d array of times; returns (values, bounds)."""
        times = np.asarray(times, dtype=float)
        values = np.empty(times.size)
        bounds = np.empty(times.size)
        for lo in range(0, times.size, self._block):
            tb = times[lo : lo + self._block]
            v = _log_echo_values(self._imb, self._eps, tb[:, None, None])
            i15, err = _panel_sums(self._half, v)
            total = np.sum(err, axis=-1)
            values[lo : lo + tb.size] = np.sum(i15, axis=-1)
            bounds[lo : lo + tb.size] = total
            for b in np.nonzero(total > self.tol)[0]:
                values[lo + b], bounds[lo + b] = self._refine(
                    float(tb[b]), i15[b], err[b], float(total[b])
                )
        return values, bounds

    def evaluate(self, t: float):
        """Integrate at time t; returns (value, error_bound)."""
        values, bounds = self.evaluate_block(np.array([float(t)]))
        return float(values[0]), float(bounds[0])


def rate_function(protocol: QuenchProtocol, t, tol: float = 1e-8):
    """Thermodynamic-limit rate at one time; returns (value, error_bound).

    The error bound is the summed per-panel GL15-vs-GL7 discrepancy; a
    bound above tol means the subdivision budget ran out (the value is
    still the best available and the caller should flag it).  This is a
    time block of one through the same code as compute_rate_series, so
    the two agree bit for bit.
    """
    return _RateQuad(protocol, tol).evaluate(t)


def compute_rate_series(
    protocol: QuenchProtocol,
    times,
    tol: float = 1e-8,
    diagnostics: dict | None = None,
) -> RateSeries:
    """rate_function swept over a time grid in blocks of times."""
    times = np.asarray(times, dtype=float)
    quad = _RateQuad(protocol, tol)
    values, errors = quad.evaluate_block(times)
    if diagnostics is not None:
        diagnostics["extra_panels"] = quad.extra_panels
        diagnostics["unconverged_samples"] = quad.unconverged
    return RateSeries(
        times=times,
        values=values,
        method="quadrature",
        protocol=protocol,
        estimated_error=errors,
    )


# ---------------------------------------------------------------------------
# finite chains and single modes

def _finite_rate_from_mode_echoes(mode_echoes, n_sites: int) -> float:
    """Per-site rate from the per-mode squared amplitudes.

    An exact zero makes the log sum diverge; such a sample is returned as
    math.inf so callers can flag it as singular.
    """
    mode_echoes = np.asarray(mode_echoes)
    if np.any(mode_echoes == 0.0):
        return math.inf
    return float(-np.sum(np.log(mode_echoes)) / n_sites)


def _mode_echoes(coeffs, t: float):
    ph = np.asarray(coeffs.eps_post) * t
    c = np.cos(ph)
    s = np.sin(ph)
    return c * c + (np.asarray(coeffs.imbalance) * s) ** 2


def rate_function_finite(protocol: QuenchProtocol, n_sites: int, t) -> float:
    """Rate of an N-site chain: -(1/N) sum of per-mode log echoes."""
    coeffs = mode_coefficients(protocol, mode_grid(n_sites).momenta)
    return _finite_rate_from_mode_echoes(_mode_echoes(coeffs, float(t)), n_sites)


def compute_rate_series_finite(
    protocol: QuenchProtocol, n_sites: int, times
) -> RateSeries:
    times = np.asarray(times, dtype=float)
    coeffs = mode_coefficients(protocol, mode_grid(n_sites).momenta)
    values = np.empty(times.size)
    for i, t in enumerate(times):
        values[i] = _finite_rate_from_mode_echoes(_mode_echoes(coeffs, float(t)), n_sites)
    return RateSeries(times=times, values=values, method="finite_N", protocol=protocol)


def critical_rate_function(protocol: QuenchProtocol, k_star: float, t):
    """Single-mode rate -ln|G_{k_star}(t)|^2; +inf at an exact zero."""
    if not 0.0 < k_star < math.pi:
        raise ValueError(f"k_star must lie in (0, pi), got {k_star!r}")
    coeffs = mode_coefficients(protocol, float(k_star))
    echo = _mode_echoes(coeffs, np.asarray(t, dtype=float))
    with np.errstate(divide="ignore"):
        out = -np.log(echo)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# phases and winding number

_JUMP_LIMIT = 0.5 * math.pi
_MAX_UNWRAP_ROUNDS = 32


class UnwrapError(RuntimeError):
    """Phase unwrapping hit an unresolvable jump.

    Carries the offending momentum, the requested time, and (when the
    protocol has critical modes at all) the nearest critical time, which is
    where such failures live.
    """

    def __init__(self, momentum, time, nearest_critical_time=None):
        self.momentum = momentum
        self.time = time
        self.nearest_critical_time = nearest_critical_time
        msg = f"phase unwrap failed at k={momentum:.12g}, t={time:.12g}"
        if nearest_critical_time is not None:
            msg += f" (nearest critical time {nearest_critical_time:.12g})"
        super().__init__(msg)


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """Total, dynamical and geometric phases across the momentum zone."""

    k_samples: np.ndarray
    total_phase: np.ndarray
    dynamical_phase: np.ndarray
    geometric_phase: np.ndarray
    time: float
    refinements: int
    protocol: QuenchProtocol


def _phase_samples(protocol, t, k, gauge_offset):
    coeffs = mode_coefficients(protocol, k)
    eps = np.asarray(coeffs.eps_post)
    a = np.asarray(coeffs.imbalance)
    ph = eps * t
    wrapped = np.arctan2(a * np.sin(ph), np.cos(ph))
    dynamical = t * (eps * a + gauge_offset)
    return wrapped, dynamical


def _nearest_critical_time(protocol, t):
    best = None
    for r in imbalance_roots(protocol):
        eps = dispersion(r, protocol.lambda_post, protocol.coupling)
        n = max(0, round(t * eps / math.pi - 0.5))
        for m in (n - 1, n, n + 1):
            if m < 0:
                continue
            ts = (2 * m + 1) * math.pi / (2.0 * eps)
            if best is None or abs(ts - t) < abs(best - t):
                best = ts
    return best


def phase_profile(
    protocol: QuenchProtocol,
    t,
    k_resolution: int = 256,
    gauge_offset: float = 0.0,
) -> PhaseProfile:
    """Unwrapped phase profile at time t.

    The momentum grid starts uniform on (0, pi) and is refined by midpoint
    insertion until adjacent jumps of the total, dynamical and geometric
    phases all stay below pi/2; failure to get there raises UnwrapError.
    gauge_offset adds a constant to the dynamical-phase integrand, a hook
    for checking that winding jumps do not depend on that convention.
    """
    if k_resolution < 64:
        raise ValueError(f"k_resolution must be >= 64, got {k_resolution!r}")
    t = float(t)
    k = np.linspace(K_EPS, math.pi - K_EPS, int(k_resolution))
    wrapped, dynamical = _phase_samples(protocol, t, k, gauge_offset)
    rounds = 0
    added = 0
    while True:
        d_tot = np.mod(np.diff(wrapped) + math.pi, math.tau) - math.pi
        d_dyn = np.diff(dynamical)
        d_geo = d_tot - d_dyn
        bad = (
            (np.abs(d_tot) >= _JUMP_LIMIT)
            | (np.abs(d_dyn) >= _JUMP_LIMIT)
            | (np.abs(d_geo) >= _JUMP_LIMIT)
        )
        if not bad.any():
            break
        if rounds >= _MAX_UNWRAP_ROUNDS:
            i = int(np.argmax(bad))  # first offending gap
            raise UnwrapError(
                0.5 * (k[i] + k[i + 1]), t, _nearest_critical_time(protocol, t)
            )
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (k[idx] + k[idx + 1])
        w_m, d_m = _phase_samples(protocol, t, mids, gauge_offset)
        k = np.concatenate([k, mids])
        wrapped = np.concatenate([wrapped, w_m])
        dynamical = np.concatenate([dynamical, d_m])
        order = np.argsort(k, kind="stable")
        k = k[order]
        wrapped = wrapped[order]
        dynamical = dynamical[order]
        rounds += 1
        added += mids.size
    total = np.concatenate([[wrapped[0]], wrapped[0] + np.cumsum(d_tot)])
    geometric = total - dynamical
    return PhaseProfile(
        k_samples=k,
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=geometric,
        time=t,
        refinements=added,
        protocol=protocol,
    )


def winding_number(
    protocol: QuenchProtocol,
    t,
    k_resolution: int = 256,
    gauge_offset: float = 0.0,
) -> float:
    """Geometric-phase winding across the zone, in units of 2 pi."""
    prof = phase_profile(protocol, t, k_resolution, gauge_offset)
    return float((prof.geometric_phase[-1] - prof.geometric_phase[0]) / math.tau)


# ---------------------------------------------------------------------------
# cusp detection

def detect_cusps(
    series: RateSeries,
    ratio: float = 50.0,
    window: int = 5,
    guard: int = 2,
):
    """Times where the series has a second-difference spike.

    A kink contributes a second difference of order h, smooth curvature of
    order h^2, so the spike-to-background ratio grows as the sampling is
    refined; `ratio` is the firing threshold against the median of the
    `window` neighbours per side outside a `guard` band.  Non-finite
    samples are reported as cusps outright.  Returns an ascending list of
    times, one per spike cluster.
    """
    if ratio <= 0.0 or window < 1 or guard < 0:
        raise ValueError("need ratio > 0, window >= 1, guard >= 0")
    t = series.times
    r = series.values
    n = t.size
    if n < 5:
        raise ValueError(f"series must have at least 5 samples, got {n}")
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
        raise ValueError("series must be uniformly sampled")

    finite = np.isfinite(r)
    abs_d2 = np.full(n, np.nan)
    centers = np.nonzero(finite[:-2] & finite[1:-1] & finite[2:])[0] + 1
    if centers.size:
        abs_d2[centers] = np.abs(
            r[centers + 1] - 2.0 * r[centers] + r[centers - 1]
        )

    scale = float(np.max(np.abs(r[finite]), initial=0.0))
    floor = 1e-13 * max(1.0, scale)

    candidates = centers[abs_d2[centers] > ratio * floor]
    # the `window` neighbours per side outside the guard band, one row per
    # candidate; off-series and non-finite entries pad as +inf so they sort
    # past every finite one
    offsets = np.concatenate(
        [np.arange(-guard - window, -guard), np.arange(guard + 1, guard + window + 1)]
    )
    idx = candidates[:, None] + offsets
    nbhd = abs_d2[np.clip(idx, 0, n - 1)]
    nbhd[(idx < 0) | (idx >= n) | ~np.isfinite(nbhd)] = math.inf
    nbhd.sort(axis=1)
    count = np.sum(np.isfinite(nbhd), axis=1)
    rows = np.arange(candidates.size)
    lo = nbhd[rows, np.maximum(count - 1, 0) // 2]
    hi = nbhd[rows, count // 2]
    with np.errstate(over="ignore"):  # huge samples overflow to inf, as before
        # median of the finite entries, as np.median takes it; 0 when none
        background = np.where(count > 0, np.where(count % 2, lo, (lo + hi) / 2.0), 0.0)
        fired = candidates[abs_d2[candidates] > ratio * np.maximum(background, floor)]

    marked = sorted(set(fired.tolist()) | set(np.nonzero(~finite)[0].tolist()))
    if not marked:
        return []

    score = np.where(np.isfinite(abs_d2), abs_d2, 0.0)
    score[~finite] = math.inf
    cusps = []
    group = [marked[0]]
    for i in marked[1:]:
        if i - group[-1] <= 2:
            group.append(i)
        else:
            cusps.append(group)
            group = [i]
    cusps.append(group)
    return [float(t[max(g, key=lambda j: (score[j], -j))]) for g in cusps]

"""Chain-level observables: rate functions, phase profiles, winding, cusps.

The thermodynamic-limit rate function is an adaptive panel quadrature whose
grid is pre-split at the imbalance roots, because that is where the
integrand develops its (integrable) logarithmic spikes at critical times.
Phase profiles are unwrapped along momentum with adaptive grid refinement;
an unresolvable jump is how a critical (k, t) pair announces itself.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .criticality import critical_times, imbalance_roots
from .mode_dynamics import _aligned_empty, mode_coefficients, mode_echo
from .model import K_EPS, QuenchProtocol, dispersion, mode_grid  # noqa: F401 (traced by perfbench)

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
]

_RATE_METHODS = ("quadrature", "finite_N")


def _check_times(times) -> np.ndarray:
    """times as a float array; ValueError unless 1-d, finite and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-d array, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times.size >= 2 and not np.all(np.diff(times) > 0.0):
        raise ValueError("times must be strictly increasing")
    return times


@dataclass(frozen=True, eq=False)
class RateSeries:
    """Sampled rate function with the metadata cusp detection needs."""

    times: np.ndarray
    values: np.ndarray
    method: str
    protocol: QuenchProtocol
    estimated_error: np.ndarray | None = None

    def __post_init__(self):
        times = _check_times(self.times)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
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


_BLOCK_BYTES = 1 << 18  # size of one (time block x echo data) buffer
# blocks between two barriers, whatever the CPU count: a round's results are
# all held at once, and it runs on at most this many threads
_ROUND_BLOCKS = 8


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _echo_blocks(fn, eps_post, times, *imbalances, inline=False, diagnostics=None):
    """An iterator of fn(lo, time block, echoes) over a 1-d grid of times,
    in block order: echoes holds one mode_echo array of shape
    (block, *eps_post.shape) per imbalance.

    Blocks hold about _BLOCK_BYTES of echoes each.  eps' and the
    imbalances are copied once, all at 64-byte-aligned addresses
    (_aligned_empty).  The blocks run on min(CPUs, _ROUND_BLOCKS, blocks)
    threads, or on one if inline: the calling thread and a pool that lives
    for the call, each with its own echo and work buffers allocated once
    per call.  fn may overwrite its echoes in place.

    One thread runs fn inline and starts none: each block is computed when
    the next result is asked for, so fn's result may be a view of its
    echoes until then.  On more threads, rounds of _ROUND_BLOCKS blocks are
    dealt out in turn; a round's results are yielded only once all of them
    are in, so the caller's own work between two yields runs while no
    block does, and what fn returns must not be a view of its echoes,
    which the thread reuses for its next block.  Pool tasks run in a copy
    of the caller's context, so the caller's np.errstate holds inside fn
    on every thread.  An exception in fn propagates unchanged once every
    thread has stopped: inline after the blocks before its own, on threads
    after the earlier rounds and before any block of its own round.
    diagnostics, if given, receives block_threads before any block runs.
    """

    def aligned(a):
        out = _aligned_empty(np.shape(a))
        out[...] = a
        return out

    eps = aligned(eps_post)
    imbalances = [aligned(a) for a in imbalances]
    block = max(1, _BLOCK_BYTES // eps.nbytes)
    starts = range(0, times.size, block)
    threads = min(1 if inline else min(_cpus(), _ROUND_BLOCKS), len(starts))
    if diagnostics is not None:
        diagnostics["block_threads"] = threads
    shape = (min(block, times.size), *eps.shape)
    slots = [
        [_aligned_empty(shape) for _ in range(len(imbalances) + 1)] for _ in range(threads)
    ]

    def step(slot, lo):
        *bufs, work = slots[slot]
        tb = times[lo : lo + block]
        n = tb.size
        t = tb.reshape((n,) + (1,) * eps.ndim)
        return fn(lo, tb, [mode_echo(a, eps, t, b[:n], work[:n]) for a, b in zip(imbalances, bufs)])

    def rounds():
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            for first in range(0, len(starts), _ROUND_BLOCKS):
                round_ = starts[first : first + _ROUND_BLOCKS]
                # slot s takes every threads-th block of the round from the s-th; the
                # caller runs slot 0, the pool the others in a copy of its context
                dealt = [
                    map(functools.partial(step, s), round_[s::threads])
                    for s in range(min(threads, len(round_)))
                ]
                tasks = [pool.submit(copy_context().run, list, blocks) for blocks in dealt[1:]]
                done = [list(dealt[0]), *(task.result() for task in tasks)]
                for j in range(len(round_)):
                    yield done[j % threads][j // threads]

    return (step(0, lo) for lo in starts) if threads <= 1 else rounds()


# ---------------------------------------------------------------------------
# thermodynamic-limit rate function

_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
# every panel carries both rules' nodes in one row: 15 Gauss-Legendre, then 7
_NODES_X = np.concatenate([_GL15_X, _GL7_X])
_NODES_W = np.concatenate([_GL15_W, _GL7_W])

_MAX_SPLITS = 4096  # refinement splits per sample


def _log_echo_values(v):
    # -(1/pi) ln|G_k(t)| in place over echoes v = |G_k(t)|^2; nonnegative since |G| <= 1
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
    # (GL15 value, |GL15 - GL7|) per panel; overwrites v with weighted values.
    # Multiply-then-sum along the node axis keeps each row's arithmetic
    # independent of how many rows share the call, unlike a BLAS product
    np.multiply(v, _NODES_W, out=v)
    i15 = half * np.add.reduce(v[..., :15], axis=-1)
    i7 = half * np.add.reduce(v[..., 15:], axis=-1)
    return i15, np.abs(i15 - i7)


def _base_panels(protocol):
    """(lefts, widths) of the base panels: the zone split at the imbalance
    roots, then into panels no wider than pi/64."""
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
    return np.asarray(lefts), np.asarray(widths)


def _refine(protocol, tol, lefts, widths, held, values, bounds, splits):
    """Refine the held samples, blocks of (index, time, i15 row, err row,
    summed bound) over the base panels (lefts, widths), emptying held;
    writes each sample's value, bound and number of splits at its index.

    Greedy halving in lockstep rounds on array state: (left, width, value,
    bound) x sample x live panel.  Each round halves, in every unfinished
    sample, the live panel with the largest bound, the leftmost of equal
    ones, in one array pass, and evaluates the protocol's modes once per
    distinct split panel.  A sample stops once its running bound is within
    tol or it has split _MAX_SPLITS times; every sample still refining has
    split once per round, so those that stop together are summed in left
    order as one array and dropped."""
    index, times, total = (np.concatenate([h[q] for h in held]) for q in (0, 1, 4))
    panels = np.empty((4, index.size, lefts.size))
    panels[0], panels[1] = lefts, widths
    for q in (2, 3):
        np.concatenate([h[q] for h in held], out=panels[q])
    held.clear()  # the rows live on in panels only
    n = 0  # splits of every sample still refining
    while True:
        done = ~(total > tol)  # a NaN total stops too
        if n >= _MAX_SPLITS:
            done[:] = True
        if done.any():
            r = np.nonzero(done)[0]
            # flat positions of each stopped row's panels by left (all distinct)
            by_left = np.argsort(panels[0, r], axis=1) + (r * panels.shape[2])[:, None]
            values[index[r]] = panels[2].take(by_left).sum(axis=1)
            bounds[index[r]] = panels[3].take(by_left).sum(axis=1)
            splits[index[r]] = n
            keep = ~done
            index, times, total, panels = index[keep], times[keep], total[keep], panels[:, keep]
        if not index.size:
            return
        rows = np.arange(index.size)
        # the split panel: largest bound, then leftmost (never a NaN here:
        # it would have made the total NaN)
        largest = panels[3] == panels[3].max(axis=1, keepdims=True)
        j = np.where(largest, panels[0], math.inf).argmin(axis=1)
        left, width, _, bound = panels[:, rows, j]
        # one _node_data call for the halves of each distinct split panel
        keys = list(zip(left.tolist(), width.tolist()))
        at = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        nl, nw = np.array(list(at)).T
        hw = 0.5 * nw
        data = _node_data(protocol, np.stack([nl, nl + hw], 1).ravel(), np.repeat(hw, 2))
        pick = [at[key] for key in keys]
        imb, eps = (d.reshape(-1, 2, _NODES_X.size)[pick] for d in data)
        v = _log_echo_values(mode_echo(imb, eps, times[:, None, None]))  # sample x half x node
        hw = 0.5 * width
        ci, ce = _panel_sums(0.5 * hw[:, None], v)
        total = total + ce[:, 0] + ce[:, 1] - bound  # rounding follows this order
        panels[1:, rows, j] = hw, ci[:, 0], ce[:, 0]  # child 0 takes the split column
        child = np.stack([left + hw, hw, ci[:, 1], ce[:, 1]])
        panels = np.concatenate([panels, child[:, :, None]], axis=2)
        n += 1


def rate_function(protocol: QuenchProtocol, t, tol: float = 1e-8):
    """Thermodynamic-limit rate at one time; returns (value, error_bound).

    The error bound is the summed per-panel GL15-vs-GL7 discrepancy; a
    bound above tol means the subdivision budget ran out (the value is
    still the best available and the caller should flag it).  A time grid
    of one through compute_rate_series, so the two agree bit for bit.
    """
    series = compute_rate_series(protocol, [float(t)], tol)
    return float(series.values[0]), float(series.estimated_error[0])


def compute_rate_series(
    protocol: QuenchProtocol,
    times,
    tol: float = 1e-8,
    diagnostics: dict | None = None,
) -> RateSeries:
    """The thermodynamic-limit rate over a time grid, with its error bounds.

    The base panels (_base_panels) and their node data (A, eps') are built
    once.  A block of times is integrated over all base panels in one numpy
    pass of shape (time x panel x node), on the time blocks of _echo_blocks.
    Each panel carries a 15-point and a 7-point Gauss-Legendre rule, and
    their difference is its error bound.  Samples whose summed bound
    exceeds tol are held and refined (_refine) once they fill about one
    _BLOCK_BYTES, and at the end of the grid.

    The two rules are deliberately not nested.  In the Gauss-Kronrod 7/15
    pair the 7 Gauss nodes are among the 15, so a narrow logarithmic spike
    near a critical time that slips between the 15 is missed by both rules
    alike and their difference under-reports: at lambda 0.5 -> 2, beta 1,
    phi -pi/2, t 5.525 that pair claimed 4.0e-9 against a true error of
    2.65e-8.  Independent node sets do not share that blind spot.

    diagnostics, if given, receives the integrand evaluations
    (nodes_evaluated), the refinement splits (extra_panels), the samples
    whose bound exceeds tol (unconverged_samples), the most splits on one
    sample (max_splits), and the largest error bound (max_err_bound, a NaN
    bound counting as the largest) with its time (max_err_bound_t), and
    the number of block threads (block_threads).

    The bulk pass runs on the block threads; the held samples and their
    refinement stay on the calling thread, between rounds of blocks.
    """
    times = _check_times(times)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    tol = float(tol)
    lefts, widths = _base_panels(protocol)
    half = 0.5 * widths
    imb, eps = _node_data(protocol, lefts, widths)
    values, errors = np.empty(times.size), np.empty(times.size)
    splits = np.zeros(times.size, dtype=np.int64)
    # held samples (an i15 and an err row each, then four panel rows in
    # refinement) are refined once they fill about one _BLOCK_BYTES, and at the end
    flush = max(1, _BLOCK_BYTES // (4 * half.nbytes))

    def bulk(lo, tb, echoes):  # on a block thread: values, errors and the held rows
        i15, err = _panel_sums(half, _log_echo_values(echoes[0]))
        total = np.sum(err, axis=-1)
        values[lo : lo + tb.size] = np.sum(i15, axis=-1)
        errors[lo : lo + tb.size] = total
        over = np.nonzero(total > tol)[0]  # fancy indexing copies the rows
        return lo + over, tb[over], i15[over], err[over], total[over]

    held, n_held = [], 0
    for rows in _echo_blocks(bulk, eps, times, imb, diagnostics=diagnostics):
        held.append(rows)
        n_held += rows[0].size
        if n_held >= flush:
            _refine(protocol, tol, lefts, widths, held, values, errors, splits)  # empties held
            n_held = 0
    if held:
        _refine(protocol, tol, lefts, widths, held, values, errors, splits)
    if diagnostics is not None:
        worst = int(np.argmax(errors)) if errors.size else None  # argmax finds a NaN first
        extra = int(splits.sum())
        # integrand evaluations: every base node at every time, two halves per split
        diagnostics["nodes_evaluated"] = times.size * imb.size + 2 * _NODES_X.size * extra
        diagnostics["extra_panels"] = extra
        diagnostics["unconverged_samples"] = int(np.count_nonzero(errors > tol))
        diagnostics["max_splits"] = int(splits.max(initial=0))
        diagnostics["max_err_bound"] = math.nan if worst is None else float(errors[worst])
        diagnostics["max_err_bound_t"] = math.nan if worst is None else float(times[worst])
    return RateSeries(
        times=times,
        values=values,
        method="quadrature",
        protocol=protocol,
        estimated_error=errors,
    )


# ---------------------------------------------------------------------------
# finite chains and single modes

def _finite_rate_from_mode_echoes(mode_echoes, n_sites: int, overwrite: bool = False):
    """Per-site rate from the per-mode squared amplitudes, along the last axis.

    An exact zero's -inf log makes its row math.inf, so callers can flag it
    as singular.  1-d input gives a float.  overwrite logs in place.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(mode_echoes, out=mode_echoes if overwrite else None)
    out = -np.sum(logs, axis=-1) / n_sites
    return float(out) if out.ndim == 0 else out


def rate_function_finite(protocol: QuenchProtocol, n_sites: int, t) -> float:
    """Rate of an N-site chain: -(1/N) sum of per-mode log echoes.

    A time block of one through compute_rate_series_finite, so the two
    agree bit for bit.
    """
    return float(compute_rate_series_finite(protocol, n_sites, [float(t)]).values[0])


def compute_rate_series_finite(
    protocol: QuenchProtocol, n_sites: int, times, diagnostics: dict | None = None
) -> RateSeries:
    """rate_function_finite over a grid, in the (time block x mode) echo
    blocks of _echo_blocks, their logs taken in place.  diagnostics, if
    given, receives the number of block threads (block_threads)."""
    times = _check_times(times)
    coeffs = mode_coefficients(protocol, mode_grid(n_sites).momenta)
    values = np.empty(times.size)

    def fill(lo, tb, echoes):  # on a block thread
        rates = _finite_rate_from_mode_echoes(echoes[0], n_sites, overwrite=True)
        values[lo : lo + tb.size] = rates

    blocks = _echo_blocks(fill, coeffs.eps_post, times, coeffs.imbalance, diagnostics=diagnostics)
    for _ in blocks:
        pass
    return RateSeries(times=times, values=values, method="finite_N", protocol=protocol)


def critical_rate_function(protocol: QuenchProtocol, k_star: float, t):
    """Single-mode rate -ln|G_{k_star}(t)|^2; +inf at an exact zero."""
    if not 0.0 < k_star < math.pi:
        raise ValueError(f"k_star must lie in (0, pi), got {k_star!r}")
    coeffs = mode_coefficients(protocol, float(k_star))
    echo = mode_echo(coeffs.imbalance, coeffs.eps_post, t)
    return _finite_rate_from_mode_echoes(np.expand_dims(echo, -1), 1)  # one mode, N = 1


# ---------------------------------------------------------------------------
# phases and winding number

_JUMP_LIMIT = 0.5 * math.pi
_MAX_UNWRAP_ROUNDS = 32
_MAX_UNWRAP_MOMENTA = 1 << 16  # momenta refinement may add; grows with coupling * t


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

    @property
    def winding(self) -> float:
        """Geometric-phase winding across the zone, in units of 2 pi."""
        return float((self.geometric_phase[-1] - self.geometric_phase[0]) / math.tau)


def _phase_samples(protocol, t, k, gauge_offset):
    coeffs = mode_coefficients(protocol, k)
    eps = np.asarray(coeffs.eps_post)
    a = np.asarray(coeffs.imbalance)
    ph = eps * t
    wrapped = np.arctan2(a * np.sin(ph), np.cos(ph))
    dynamical = t * (eps * a + gauge_offset)
    return wrapped, dynamical


@functools.lru_cache(maxsize=4)  # shared read-only; phase_profile hands out copies
def _base_grid(k_resolution: int) -> np.ndarray:
    k = np.linspace(K_EPS, math.pi - K_EPS, k_resolution)
    k.flags.writeable = False
    return k


def _nearest_critical_time(protocol, t):
    # the rung (2n+1) t*_0 of any critical mode's ladder closest to t
    rungs = []
    for r in imbalance_roots(protocol):
        t0 = float(critical_times(protocol, r, 0)[0])
        rungs.append((2 * max(0, round((t / t0 - 1.0) / 2.0)) + 1) * t0)
    return min(rungs, key=lambda ts: abs(ts - t), default=None)


def phase_profile(
    protocol: QuenchProtocol,
    t,
    k_resolution: int = 256,
    gauge_offset: float = 0.0,
) -> PhaseProfile:
    """Unwrapped phase profile at time t.

    The momentum grid starts uniform on (0, pi) and is refined by midpoint
    insertion until adjacent jumps of the total, dynamical and geometric
    phases all stay below pi/2; failure to get there within
    _MAX_UNWRAP_ROUNDS rounds and _MAX_UNWRAP_MOMENTA added momenta raises
    UnwrapError.
    gauge_offset adds a constant to the dynamical-phase integrand, a hook
    for checking that winding jumps do not depend on that convention.
    """
    if k_resolution < 64:
        raise ValueError(f"k_resolution must be >= 64, got {k_resolution!r}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    k = _base_grid(int(k_resolution))
    wrapped, dynamical = _phase_samples(protocol, t, k, gauge_offset)
    rounds = 0
    added = 0
    while True:
        d_tot = np.mod(wrapped[1:] - wrapped[:-1] + math.pi, math.tau) - math.pi
        d_dyn = dynamical[1:] - dynamical[:-1]
        # largest of the three jumps per gap; fmax skips NaN as three >= tests did
        jump = np.fmax(np.abs(d_tot), np.abs(d_dyn))
        np.fmax(jump, np.abs(d_tot - d_dyn), out=jump)
        bad = jump >= _JUMP_LIMIT
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        if rounds >= _MAX_UNWRAP_ROUNDS or added + idx.size > _MAX_UNWRAP_MOMENTA:
            i = idx[0]  # first offending gap
            raise UnwrapError(
                0.5 * (k[i] + k[i + 1]), t, _nearest_critical_time(protocol, t)
            )
        mids = 0.5 * (k[idx] + k[idx + 1])
        w_m, d_m = _phase_samples(protocol, t, mids, gauge_offset)
        # within the round cap each midpoint lies strictly inside its gap: k stays sorted
        k = np.insert(k, idx + 1, mids)
        wrapped = np.insert(wrapped, idx + 1, w_m)
        dynamical = np.insert(dynamical, idx + 1, d_m)
        rounds += 1
        added += mids.size
    total = np.concatenate([[wrapped[0]], wrapped[0] + d_tot.cumsum()])
    geometric = total - dynamical
    return PhaseProfile(
        k_samples=k if added else k.copy(),  # never the shared base grid
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=geometric,
        time=t,
        refinements=added,
        protocol=protocol,
    )


def winding_number(
    protocol: QuenchProtocol, t, k_resolution: int = 256, gauge_offset: float = 0.0
) -> float:
    """PhaseProfile.winding of the profile at time t."""
    return phase_profile(protocol, t, k_resolution, gauge_offset).winding


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

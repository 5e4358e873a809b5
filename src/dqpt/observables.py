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
import time
from contextlib import nullcontext
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
    protocol: QuenchProtocol
    estimated_error: np.ndarray | None = None

    def __post_init__(self):
        times = _check_times(self.times)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        err = self.estimated_error
        if err is not None:
            err = np.asarray(err, dtype=float)
            if err.shape != times.shape:
                raise ValueError("estimated_error must match times in shape")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "estimated_error", err)


# size of one (time block x echo data) buffer.  A block pays numpy's fixed
# per-call cost whatever its size, so blocks are as large as the rule allows: a
# block thread's two buffers (echo and work) plus the shared eps' and A copies
# fit in a 2 MB per-core L2 (1 MB + 0.8 MB at N = 1e5)
_BLOCK_BYTES = 1 << 19
# blocks between two barriers, whatever the CPU count: a round's results are
# all held at once, and it runs on at most this many threads
_ROUND_BLOCKS = 8


def _times_per_block(eps_post) -> int:
    """Times in one (time block x mode) block of about _BLOCK_BYTES of echoes."""
    return max(1, _BLOCK_BYTES // eps_post.nbytes)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _echo_blocks(fn, eps_post, times, imbalance, diagnostics=None):
    """An iterator of fn(lo, time block, echo) over a 1-d grid of times, in
    block order: echo is the mode_echo array of shape (block, *eps_post.shape).

    Blocks hold about _BLOCK_BYTES of echoes each.  eps' and the imbalance
    are copied once, at 64-byte-aligned addresses (_aligned_empty).  The
    blocks run on min(CPUs, _ROUND_BLOCKS, blocks) threads: the calling
    thread and, on more than one, a pool that lives for the call, each with
    its own echo and work buffers allocated once per call, as the first
    round starts.  fn may overwrite its echo in place; what it returns must
    not be a view of it, which the thread reuses for its next block.

    Rounds of _ROUND_BLOCKS blocks are dealt out in turn; a round's results
    are yielded only once all of them are in, so the caller's own work
    between two yields runs while no block does.  Pool tasks run in a copy
    of the caller's context, so the caller's np.errstate holds inside fn on
    every thread.  An exception in fn propagates unchanged once every
    thread has stopped, after the earlier rounds and before any block of
    its own round.  diagnostics, if given, receives block_threads before
    any block runs.
    """

    def aligned(a):
        out = _aligned_empty(np.shape(a))
        out[...] = a
        return out

    eps, imbalance = aligned(eps_post), aligned(imbalance)
    block = _times_per_block(eps)
    starts = range(0, times.size, block)
    threads = min(_cpus(), _ROUND_BLOCKS, len(starts))
    if diagnostics is not None:
        diagnostics["block_threads"] = threads
    shape = (min(block, times.size), *eps.shape)

    def step(buffers, lo):
        out, work = buffers
        tb = times[lo : lo + block]
        n = tb.size
        t = tb.reshape((n,) + (1,) * eps.ndim)
        return fn(lo, tb, mode_echo(imbalance, eps, t, out[:n], work[:n]))

    def rounds():
        # allocated as the first round starts, once the caller has dropped what it no longer needs
        slots = [(_aligned_empty(shape), _aligned_empty(shape)) for _ in range(threads)]
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor  # (and logging: for 2+ threads)
        with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:
            for first in range(0, len(starts), _ROUND_BLOCKS):
                round_ = starts[first : first + _ROUND_BLOCKS]
                # slot s takes every threads-th block of the round from the s-th; the
                # caller runs slot 0, the pool the others in a copy of its context
                dealt = [
                    map(functools.partial(step, slots[s]), round_[s::threads])
                    for s in range(min(threads, len(round_)))
                ]
                tasks = [pool.submit(copy_context().run, list, blocks) for blocks in dealt[1:]]
                done = [list(dealt[0]), *(task.result() for task in tasks)]
                for j in range(len(round_)):
                    yield done[j % threads][j // threads]

    return rounds()


# ---------------------------------------------------------------------------
# thermodynamic-limit rate function

# np.polynomial.legendre.leggauss(15) and (7), bit for bit: literals, so that
# no run loads numpy.polynomial
_GL15_X = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_GL15_W = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_GL7_X = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_GL7_W = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])
# every panel carries both rules' nodes in one row: 15 Gauss-Legendre, then 7
_NODES_X = np.concatenate([_GL15_X, _GL7_X])

_MAX_SPLITS = 4096  # refinement splits per sample


def _log_echo_values(v):
    # ln|G_k(t)|^2 in place over echoes v = |G_k(t)|^2; nonpositive since |G| <= 1
    return np.log(v, out=v)


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
    # (GL15 value, |GL15 - GL7|) per panel of -(1/2pi) ln|G|^2 from the logs v,
    # left as they are.  einsum (optimize=False) sums each row on its own, so its
    # bits do not depend on how many rows share the call; a BLAS product's do
    scale = half / (-2.0 * math.pi)
    i15 = scale * np.einsum("...j,j->...", v[..., :15], _GL15_W)
    i7 = scale * np.einsum("...j,j->...", v[..., 15:], _GL7_W)
    return i15, np.abs(i15 - i7)


def _base_panels(protocol, roots=None):
    """(lefts, widths) of the base panels: the zone split at the imbalance
    roots (imbalance_roots(protocol) unless given), then into panels no
    wider than pi/64."""
    edges = [0.0]
    for r in imbalance_roots(protocol) if roots is None else roots:
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
    *,
    roots=None,
) -> RateSeries:
    """The thermodynamic-limit rate over a time grid, with its error bounds.

    The base panels (_base_panels) and their node data (A, eps') are built
    once.  A block of times is integrated over all base panels in one numpy
    pass of shape (time x panel x node), on the time blocks of _echo_blocks.
    Each panel carries a 15-point and a 7-point Gauss-Legendre rule, and
    their difference is its error bound; _panel_sums forms each (time,
    panel) row's sums on their own, so a row has the same bits in any block.  Samples whose summed bound
    exceeds tol are held and refined (_refine) once they fill about half a
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
    sample (max_splits), the largest error bound (max_err_bound, a NaN
    bound counting as the largest) with its time (max_err_bound_t), the
    number of block threads (block_threads) and perf_counter seconds: in
    _base_panels and _node_data (setup_seconds), in the block loop other
    than refinement (bulk_seconds) and in _refine (refine_seconds).

    The bulk pass runs on the block threads; the held samples and their
    refinement stay on the calling thread, between rounds of blocks.
    roots, if given, must be imbalance_roots(protocol), such as the modes of
    critical_modes(protocol) in the sinh variant: the panels are split there
    without a second root scan.
    """
    times = _check_times(times)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    tol = float(tol)
    started = time.perf_counter()
    lefts, widths = _base_panels(protocol, roots)
    half = 0.5 * widths
    imb, eps = _node_data(protocol, lefts, widths)
    setup_seconds = time.perf_counter() - started
    values, errors = np.empty(times.size), np.empty(times.size)
    splits = np.zeros(times.size, dtype=np.int64)
    # held samples (an i15 and an err row each, then four panel rows in
    # refinement) are refined once they fill about half a _BLOCK_BYTES, and at the end
    flush = max(1, _BLOCK_BYTES // (8 * half.nbytes))

    def bulk(lo, tb, echo):  # on a block thread: values, errors and the held rows
        i15, err = _panel_sums(half, _log_echo_values(echo))
        total = np.sum(err, axis=-1)
        values[lo : lo + tb.size] = np.sum(i15, axis=-1)
        errors[lo : lo + tb.size] = total
        over = np.nonzero(total > tol)[0]  # fancy indexing copies the rows
        return lo + over, tb[over], i15[over], err[over], total[over]

    def refine():  # on the calling thread: empties held, returns its seconds
        started = time.perf_counter()
        _refine(protocol, tol, lefts, widths, held, values, errors, splits)
        return time.perf_counter() - started

    held, n_held, refine_seconds = [], 0, 0.0
    started = time.perf_counter()
    for rows in _echo_blocks(bulk, eps, times, imb, diagnostics=diagnostics):
        held.append(rows)
        n_held += rows[0].size
        if n_held >= flush:
            refine_seconds += refine()
            n_held = 0
    if held:
        refine_seconds += refine()
    bulk_seconds = time.perf_counter() - started - refine_seconds
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
        diagnostics["setup_seconds"] = setup_seconds
        diagnostics["bulk_seconds"] = bulk_seconds
        diagnostics["refine_seconds"] = refine_seconds
    return RateSeries(
        times=times,
        values=values,
        protocol=protocol,
        estimated_error=errors,
    )


# ---------------------------------------------------------------------------
# finite chains and single modes

def _finite_rate_from_mode_echoes(mode_echoes, n_sites: int):
    """Per-site rate from the per-mode squared amplitudes, along the last axis.

    The logs overwrite mode_echoes, a float array.  An exact zero's -inf log
    makes its row math.inf, so callers can flag it as singular.  1-d input
    gives a float.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(mode_echoes, out=mode_echoes)
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
    eps_post, imbalance = coeffs.eps_post, coeffs.imbalance
    del coeffs  # eps_pre and delta_theta: the blocks read only eps' and A
    values = np.empty(times.size)

    def fill(lo, tb, echo):  # on a block thread
        rates = _finite_rate_from_mode_echoes(echo, n_sites)
        values[lo : lo + tb.size] = rates

    blocks = _echo_blocks(fill, eps_post, times, imbalance, diagnostics=diagnostics)
    del eps_post, imbalance  # the blocks hold their aligned copies
    for _ in blocks:
        pass
    return RateSeries(times=times, values=values, protocol=protocol)


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
    refinements: int

    @property
    def winding(self) -> float:
        """Geometric-phase winding across the zone, in units of 2 pi."""
        return float((self.geometric_phase[-1] - self.geometric_phase[0]) / math.tau)


def _phase_samples(protocol, t, k):
    coeffs = mode_coefficients(protocol, k)
    eps = np.asarray(coeffs.eps_post)
    a = np.asarray(coeffs.imbalance)
    ph = eps * t
    wrapped = np.arctan2(a * np.sin(ph), np.cos(ph))
    dynamical = t * (eps * a)
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


def phase_profile(protocol: QuenchProtocol, t, k_resolution: int = 256) -> PhaseProfile:
    """Unwrapped phase profile at time t.

    The momentum grid starts uniform on (0, pi) and is refined by midpoint
    insertion until adjacent jumps of the total, dynamical and geometric
    phases all stay below pi/2; failure to get there within
    _MAX_UNWRAP_ROUNDS rounds and _MAX_UNWRAP_MOMENTA added momenta raises
    UnwrapError.
    """
    if k_resolution < 64:
        raise ValueError(f"k_resolution must be >= 64, got {k_resolution!r}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    k = _base_grid(int(k_resolution))
    wrapped, dynamical = _phase_samples(protocol, t, k)
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
        w_m, d_m = _phase_samples(protocol, t, mids)
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
        refinements=added,
    )


def winding_number(protocol: QuenchProtocol, t, k_resolution: int = 256) -> float:
    """PhaseProfile.winding of the profile at time t."""
    return phase_profile(protocol, t, k_resolution).winding


# ---------------------------------------------------------------------------
# cusp detection

_CUSP_RATIO = 50.0  # a spike fires above this multiple of its background
_CUSP_WINDOW = 5  # the background: median |second difference| of this many samples per side
_CUSP_GUARD = 2  # samples per side next to a spike left out of its background


def detect_cusps(series: RateSeries):
    """Times where the series has a second-difference spike.

    A kink contributes a second difference of order h, smooth curvature of
    order h^2, so the spike-to-background ratio grows as the sampling is
    refined; _CUSP_RATIO is the firing threshold against the median of the
    _CUSP_WINDOW neighbours per side outside a _CUSP_GUARD band.  Non-finite
    samples are reported as cusps outright.  Returns an ascending list of
    times, one per spike cluster.
    """
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

    candidates = centers[abs_d2[centers] > _CUSP_RATIO * floor]
    # the _CUSP_WINDOW neighbours per side outside the guard band, one row per
    # candidate; off-series and non-finite entries pad as +inf so they sort
    # past every finite one
    side = np.arange(_CUSP_GUARD + 1, _CUSP_GUARD + _CUSP_WINDOW + 1)
    offsets = np.concatenate([-side, side])
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
        fired = candidates[abs_d2[candidates] > _CUSP_RATIO * np.maximum(background, floor)]

    # fired or non-finite, ascending: a mask, as np.union1d's np.unique loads numpy.ma (1 MB RSS)
    marked = np.flatnonzero(~finite | (np.bincount(fired, minlength=n) > 0))
    if not marked.size:
        return []

    score = np.where(np.isfinite(abs_d2), abs_d2, 0.0)
    score[~finite] = math.inf
    # marks at most 2 apart form one cluster; argmax keeps the first of equal scores
    clusters = np.split(marked, np.nonzero(np.diff(marked) > 2)[0] + 1)
    return [float(t[c[np.argmax(score[c])]]) for c in clusters]

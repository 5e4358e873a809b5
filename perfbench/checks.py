"""Correctness checks of one pass's outputs.

``check_pass`` returns ``(problems, info)``: problems maps a job id to the
messages of every check that job failed, info carries what the report
prints (per-cell cusp counts, ladder agreement).  The checks test
invariants of the physics and of the CLI contract, not the bytes of one
commit, so a correct change to the library keeps passing them.  The one
recorded reference, the fig_sweeps rates, is compared within the error
bounds both sides state.
"""

from __future__ import annotations

import csv
import math
import os
import random

import numpy as np
from workloads import TOPOLOGY_WINDOW

from dqpt import (
    QuenchProtocol,
    critical_modes,
    critical_times,
    mode_amplitude,
    mode_amplitude_oracle,
    mode_coefficients,
    mode_grid,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "fig_rates.npz")

# Floor under err_bound + err_bound_ref: a correct quadrature that sums its
# panels in another order moves r by some ulps even where both error
# estimates read 0 (at t = 0, for instance).
RATE_ROUNDING = 1e-13
# finite-N rate against -(1/N) fsum log|G_k|^2: relative 1e-12, plus an
# absolute floor of a few ulps of 1 per mode for the log of echoes near 1
FINITE_RTOL = 1e-12
FINITE_ATOL = 1e-14
# the matrix route carries ~1e-15 per mode
ORACLE_ATOL = 1e-13
FINITE_FULL_CHECK_MAX = 20_000_000  # modes x steps checked row by row
FINITE_SAMPLED_ROWS = 64
ORACLE_MAX_SITES = 1000
ORACLE_ROWS = 4
NULL_WORK_ATOL = 1e-12
CRITICAL_RESIDUAL_MAX = 1e-10
# A zone-edge mode (k -> 0+ or k -> pi-) whose imbalance A nearly vanishes,
# as a pre-quench field next to 1 at high temperature makes it, passes
# close to a Fisher zero at t = (n + 1/2) pi / eps_post.  Its amplitude
# cos(eps t) + i A sin(eps t) then turns its phase by about pi within a
# time of about 2|A| / eps, so when that is under one sampling step, nu
# moves by about 1/2 within one interval.  critical_modes finds interior
# roots only, so the winding check does not judge intervals that hold
# such an edge time.
EDGE_K = 1e-9
ZEROS_RESIDUAL_MAX = 1e-12


def read_csv(path: str) -> dict:
    """Columns of a CSV by header name, as lists of strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {h: [] for h in header}
        for row in reader:
            for h, v in zip(header, row):
                cols[h].append(v)
    return cols


def floats(cols: dict, name: str) -> np.ndarray:
    return np.asarray([float(v) for v in cols[name]], dtype=float)


def protocol_of(p: dict) -> QuenchProtocol:
    return QuenchProtocol(p["lambda_pre"], p["lambda_post"], p["beta"], p["phi"])


def ladder(protocol: QuenchProtocol, t_min: float, t_max: float):
    """(critical modes, sorted critical times in [t_min, t_max])."""
    cs = critical_modes(protocol, "sinh", 0, with_jump_signs=False)
    times = []
    for k, first in zip(cs.modes, cs.times):
        n_max = max(0, math.floor((t_max / first[0] - 1.0) / 2.0) + 1)
        times.extend(t for t in critical_times(protocol, k, n_max) if t_min <= t <= t_max)
    return cs, sorted(times)


def edge_times(protocol: QuenchProtocol, t_min: float, t_max: float, step: float) -> list:
    """Sorted times in [t_min, t_max] where a zone-edge mode turns its
    phase by about pi faster than one sampling step (|A| < eps * step)."""
    times = []
    for k in (EDGE_K, math.pi - EDGE_K):
        c = mode_coefficients(protocol, k)
        eps = float(c.eps_post)
        if eps <= 0.0 or abs(float(c.imbalance)) >= eps * step:
            continue
        n = max(0, math.ceil(t_min * eps / math.pi - 0.5))
        while (t := (n + 0.5) * math.pi / eps) <= t_max:
            times.append(t)
            n += 1
    return sorted(times)


class _Problems(dict):
    def add(self, job_id, msg):
        self.setdefault(job_id, []).append(msg)


def _check_grid(problems, job_id, t, t_min, t_max, steps) -> bool:
    if t.size != steps:
        problems.add(job_id, f"{t.size} rows, expected {steps}")
        return False
    if not np.allclose(t, np.linspace(t_min, t_max, steps), rtol=0.0, atol=1e-12):
        problems.add(job_id, "time column is not the requested grid")
        return False
    return True


# ---------------------------------------------------------------------------
# fig_sweeps

def load_reference(path: str = REFERENCE) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _check_rates(problems, jid, cell, rate, sweep, ref, params):
    t, r, err = floats(rate, "t"), floats(rate, "r"), floats(rate, "err_bound")
    if not _check_grid(problems, jid, t, sweep["t_min"], sweep["t_max"], sweep["steps"]):
        return
    bad = ~np.isfinite(r) | ~(err <= sweep["tol"])
    if bad.any():
        problems.add(jid, f"{cell}: {int(bad.sum())} rows non-finite or above tol")
    key = np.nonzero(np.all(np.isclose(ref[jid + ".params"], params, rtol=1e-12), axis=1))[0]
    if key.size != 1:
        problems.add(jid, f"{cell}: no reference rates")
        return
    r_ref, e_ref = ref[jid + ".r"][key[0]], ref[jid + ".err"][key[0]]
    excess = np.abs(r - r_ref) - (err + e_ref + RATE_ROUNDING * np.maximum(1.0, np.abs(r_ref)))
    if np.any(excess > 0.0):
        j = int(np.argmax(excess))
        problems.add(
            jid,
            f"{cell}: {int((excess > 0.0).sum())} rows off the reference beyond their bounds, "
            f"worst t={t[j]!r} r={r[j]!r} ref={r_ref[j]!r}",
        )


def _check_fig_sweep(job, out_dir, problems, ctx):
    if "reference" not in ctx:
        ctx["reference"] = load_reference()
    cells = ctx["info"].setdefault("cells", [])
    sweep, jid = job["sweep"], job["id"]
    sweep_dir = os.path.join(out_dir, job["out"])
    index = read_csv(os.path.join(sweep_dir, "index.csv"))
    n_cells = len(sweep["beta_list"]) * len(sweep["phi_list"]) * len(sweep["lambda_post_list"])
    if len(index["cell"]) != n_cells:
        problems.add(jid, f"index has {len(index['cell'])} cells, expected {n_cells}")
    for i, cell in enumerate(index["cell"]):
        beta = float(index["beta"][i])
        phi = float(index["phi"][i])
        lambda_post = float(index["lambda_post"][i])
        rate = read_csv(os.path.join(sweep_dir, cell, "rate.csv"))
        _check_rates(problems, jid, cell, rate, sweep, ctx["reference"], [beta, phi, lambda_post])

        protocol = QuenchProtocol(sweep["lambda_pre"], lambda_post, beta, phi)
        cs, times = ladder(protocol, sweep["t_min"], sweep["t_max"])
        first = min((ts[0] for ts in cs.times), default=math.nan)
        n_modes = int(index["n_critical_modes"][i])
        got_first = float(index["first_critical_time"][i])
        if n_modes != len(cs.modes):
            problems.add(jid, f"{cell}: n_critical_modes {n_modes}, API gives {len(cs.modes)}")
        both_nan = math.isnan(first) and math.isnan(got_first)
        if not (both_nan or math.isclose(got_first, first, rel_tol=1e-12)):
            problems.add(jid, f"{cell}: first_critical_time {got_first!r}, API gives {first!r}")
        found = int(index["cusp_count"][i])
        if found > len(times):
            problems.add(jid, f"{cell}: {found} cusps but only {len(times)} ladder times")
        cells.append(
            {
                "sweep": jid,
                "cell": cell,
                "cusps_found": found,
                "cusps_predicted": len(times),
            }
        )


# ---------------------------------------------------------------------------
# finite_grid

def _finite_close(r, expected, atol=FINITE_ATOL) -> bool:
    return abs(r - expected) <= FINITE_RTOL * abs(expected) + atol


def _check_rate_finite(job, cols, problems, rng):
    jid, n_sites, steps = job["id"], job["n_sites"], job["steps"]
    t, r = floats(cols, "t"), floats(cols, "r")
    if not _check_grid(problems, jid, t, job["t_min"], job["t_max"], steps):
        return
    protocol = protocol_of(job["protocol"])
    momenta = mode_grid(n_sites).momenta
    coeffs = mode_coefficients(protocol, momenta)
    if n_sites // 2 * steps <= FINITE_FULL_CHECK_MAX:
        rows = range(steps)
    else:
        rows = sorted({0, steps - 1, *rng.sample(range(steps), FINITE_SAMPLED_ROWS)})
    bad = []
    for i in rows:
        echo = np.abs(mode_amplitude(coeffs, t[i])) ** 2
        if not _finite_close(r[i], -math.fsum(np.log(echo)) / n_sites):
            bad.append(i)
    if bad:
        problems.add(jid, f"{len(bad)} rows differ from -(1/N) fsum log|G|^2, first t={t[bad[0]]!r}")
    if n_sites <= ORACLE_MAX_SITES:
        for i in rng.sample(range(steps), ORACLE_ROWS):
            logs = [
                math.log(abs(mode_amplitude_oracle(protocol, float(k), float(t[i]))) ** 2)
                for k in momenta
            ]
            expected = -math.fsum(logs) / n_sites
            if not _finite_close(r[i], expected, atol=ORACLE_ATOL):
                problems.add(jid, f"t={t[i]!r}: r={r[i]!r}, matrix oracle gives {expected!r}")


def _check_echo(job, cols, problems):
    jid, n_sites, steps = job["id"], job["n_sites"], job["steps"]
    t, k = floats(cols, "t"), floats(cols, "k")
    echo, null = floats(cols, "echo"), floats(cols, "null_work")
    interference = floats(cols, "interference")
    momenta = mode_grid(n_sites).momenta
    if t.size != steps * momenta.size:
        problems.add(jid, f"{t.size} rows, expected {steps * momenta.size}")
        return
    order = np.lexsort((k, t))
    grid_t = np.repeat(np.linspace(job["t_min"], job["t_max"], steps), momenta.size)
    grid_k = np.tile(momenta, steps)
    if not (
        np.allclose(t[order], grid_t, rtol=0.0, atol=1e-12)
        and np.allclose(k[order], grid_k, rtol=0.0, atol=1e-12)
    ):
        problems.add(jid, "(t, k) rows do not cover the grid once each")
        return
    ulps = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(echo))
    if np.any(~(np.abs(echo - (null + interference)) <= ulps)):
        problems.add(jid, "echo != null_work + interference")
    c = mode_coefficients(protocol_of(job["protocol"]), k)
    ph = np.asarray(c.eps_post) * t
    closed = np.cos(ph) ** 2 + np.sin(ph) ** 2 * np.cos(2.0 * np.asarray(c.delta_theta)) ** 2
    off = ~(np.abs(null - closed) <= NULL_WORK_ATOL)
    if off.any():
        problems.add(jid, f"{int(off.sum())} null_work rows off the closed form")


def _check_finite_job(job, out_dir, problems, ctx):
    cols = read_csv(os.path.join(out_dir, job["out"]))
    if job["task"] == "rate-finite":
        _check_rate_finite(job, cols, problems, ctx["rng"])
    else:
        _check_echo(job, cols, problems)


# ---------------------------------------------------------------------------
# topology_scan

def _check_winding(job, cols, problems, info):
    t_min, t_max, steps = TOPOLOGY_WINDOW
    t, nu = floats(cols, "t"), floats(cols, "nu")
    if not _check_grid(problems, job["id"], t, t_min, t_max, steps):
        return
    protocol = protocol_of(job["protocol"])
    _, times = ladder(protocol, t_min, t_max)

    def per_interval(times):
        idx = np.clip(np.searchsorted(t, times, side="right") - 1, 0, t.size - 2)
        return np.bincount(idx.astype(int), minlength=t.size - 1)

    ladder_count = per_interval(times)
    step = (t_max - t_min) / (steps - 1)
    edge = per_interval(edge_times(protocol, t_min, t_max, step)) > 0
    jumps = np.abs(np.diff(nu)) > 0.5
    # two ladder times in one interval may cancel, and an edge time moves nu
    # by about 1/2; such intervals are not judged
    single = (ladder_count == 1) & ~edge
    info["ladder_intervals_judged"] += int(single.sum())
    info["ladder_intervals_ambiguous"] += int(((ladder_count > 1) & ~edge).sum())
    info["edge_intervals"] += int(edge.sum())
    missed = np.nonzero(single & ~jumps)[0]
    extra = np.nonzero((ladder_count == 0) & ~edge & jumps)[0]
    if missed.size:
        problems.add(job["id"], f"no |dnu| > 1/2 across the ladder times after t={t[missed].tolist()}")
    if extra.size:
        problems.add(job["id"], f"|dnu| > 1/2 without a ladder time after t={t[extra].tolist()}")


def _check_topology_job(job, out_dir, problems, ctx):
    info = ctx["info"]
    info.setdefault("ladder_intervals_judged", 0)
    info.setdefault("ladder_intervals_ambiguous", 0)
    info.setdefault("edge_intervals", 0)
    jid, task = job["id"], job["task"]
    cols = read_csv(os.path.join(out_dir, job["out"]))
    if task == "critical-modes":
        res = np.abs(floats(cols, "residual"))
        if np.any(~(res <= CRITICAL_RESIDUAL_MAX)):
            problems.add(jid, f"critical-mode residual {res.max()!r} > {CRITICAL_RESIDUAL_MAX}")
    elif task == "variant-report":
        rows = zip(cols["variant"], cols["k_star"], cols["fisher_confirmed"])
        bad = [k for variant, k, ok in rows if variant == "sinh" and ok != "1"]
        if bad:
            problems.add(jid, f"sinh roots not confirmed by the Fisher line: {bad}")
    elif task == "zeros":
        res = floats(cols, "residual")
        if np.any(~(res <= ZEROS_RESIDUAL_MAX)):
            problems.add(jid, f"zeros residual {res.max()!r} > {ZEROS_RESIDUAL_MAX}")
    elif task == "winding":
        _check_winding(job, cols, problems, info)


_JOB_CHECKS = {
    "fig_sweeps": _check_fig_sweep,
    "finite_grid": _check_finite_job,
    "topology_scan": _check_topology_job,
}


def check_pass(workload, jobs, out_dir, seed=0, reference=None):
    """Check every job's outputs in out_dir; returns (problems, info)."""
    problems = _Problems()
    ctx = {"rng": random.Random(seed), "info": {}}
    if reference is not None:
        ctx["reference"] = reference
    for job in jobs:
        try:
            _JOB_CHECKS[workload](job, out_dir, problems, ctx)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            problems.add(job["id"], f"unreadable output: {exc!r}")
    return dict(problems), ctx["info"]

"""Command-line front end.

One task per invocation; every run writes one CSV data file plus a flat
key-value manifest next to it.  Configuration comes from ``key = value``
files and/or flags, flags winning.  Exit codes: 0 success, 2 config error,
3 numerical degradation or a failed sweep cell (output still written,
flagged in the manifest).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import errno
import functools
import glob
import itertools
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .criticality import VARIANTS, critical_modes, fisher_zero_line, variant_report
from .mode_dynamics import (  # noqa: F401 (perfbench traces null_work_decomposition here)
    boundary_partition,
    mode_coefficients,
    mode_echo,
    null_work_decomposition,
)
from .model import QuenchProtocol, mode_grid
from .observables import (
    RateSeries,
    UnwrapError,
    _base_grid,
    _times_per_block,
    compute_rate_series,
    compute_rate_series_finite,
    detect_cusps,
    phase_profile,
)

class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _fmt(x) -> str:
    """Serialize a value for CSV/manifest output; floats keep 17 digits."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


_INF_WORDS = {"inf", "infinity", "infinite"}
_MAX_STEPS = 10**7  # time grid length (80 MB of times) and ladder length
_MIN_TOL = 1e-15  # rate tolerance: below it float64 rounding keeps samples refining to the cap
# chain length: 40 MB per mode array; at the cap a fresh process peaks at 261 MB
# RSS for rate-finite and 796 MB for echo-decomposition at 2 steps (README Memory)
_MAX_SITES = 10**7
# zeros and winding base grid: 80 MB per array; at the cap a fresh process peaks
# at 1.34 GB RSS for zeros (one branch) and 1.03 GB for winding at 2 steps
_MAX_K_RESOLUTION = 10**7
_MAX_ECHO_ROWS = 10**8  # echo-decomposition rows, steps x n_sites/2: about 7 GB of CSV
_MAX_CELLS = 10**4  # sweep cells
_MAX_JOBS = 64  # sweep worker processes: a pool forks all of them at its first submit
_PI_RE = re.compile(
    r"^\s*([+-]?)\s*(?:(\d+(?:\.\d*)?|\.\d+)\s*\*?\s*)?pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$",
    re.IGNORECASE,
)


def parse_number(text) -> float:
    """Float parser that also accepts 'inf'/'infinite' and pi expressions
    like 'pi', '-pi/2', '3*pi/4'."""
    s = str(text).strip()
    if s.lower().lstrip("+") in _INF_WORDS:
        return math.inf
    m = _PI_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ConfigError(f"cannot parse number {text!r}: division by zero")
        return sign * num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"cannot parse number {text!r}") from None


def _parse_int(text) -> int:
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}") from None


def _parse_number_list(text) -> tuple:
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"empty list value {text!r}")
    return tuple(parse_number(p) for p in parts)


def _parse_int_list(text) -> tuple:
    return tuple(_parse_int(p) for p in str(text).split(",") if p.strip())


def _parse_text(text) -> str:
    return str(text).strip()


def _opt(default, parse, flag=None, **argparse_kwargs):
    """A RunConfig option: its default, the parser its file key and its
    flag share, and the flag (None for file-only keys) with its argparse
    settings."""
    return dataclasses.field(
        default=default, metadata={"parse": parse, "flag": flag, "argparse": argparse_kwargs}
    )


@dataclass
class RunConfig:
    # field order is the order of the config.* keys in every manifest
    task: str
    lambda_pre: float = _opt(0.5, parse_number, "--lambda-pre", metavar="X")
    lambda_post: float = _opt(2.0, parse_number, "--lambda-post", metavar="X")
    beta: float = _opt(
        10.0, parse_number, "--beta", metavar="X", help="inverse temperature; 'infinite' allowed"
    )
    phi: float = _opt(
        0.0, parse_number, "--phi", metavar="X", help="relative phase; accepts forms like pi/2"
    )
    coupling: float = _opt(1.0, parse_number, "--coupling", metavar="X")
    t_min: float = _opt(0.0, parse_number, "--t-min", metavar="X")
    t_max: float = _opt(4.0, parse_number, "--t-max", metavar="X")
    steps: int = _opt(401, _parse_int, "--steps", metavar="N")
    k_resolution: int = _opt(256, _parse_int, "--k-resolution", metavar="N")
    branches: tuple = _opt(
        (0,),
        _parse_int_list,
        "--branch",
        action="append",
        metavar="N",
        help="Fisher-line branch index; repeatable",
    )
    variant: str = _opt("sinh", _parse_text, "--variant", choices=VARIANTS)
    tol: float = _opt(1e-8, parse_number, "--tol", metavar="X")
    n_sites: int = _opt(1000, _parse_int, "--n-sites", metavar="N")
    n_max: int = _opt(3, _parse_int, "--n-max", metavar="N")
    out: str | None = _opt(None, _parse_text, "--out", metavar="PATH")
    jobs: int = _opt(1, _parse_int, "--jobs", metavar="N", help="sweep concurrency")
    beta_list: tuple | None = _opt(None, _parse_number_list)
    phi_list: tuple | None = _opt(None, _parse_number_list)
    lambda_post_list: tuple | None = _opt(None, _parse_number_list)


# option name -> its metadata; the config-file keys, in field order
_OPTIONS = {f.name: f.metadata for f in dataclasses.fields(RunConfig) if f.metadata}


def read_config_file(path: str) -> dict:
    """Flat key = value lines; # comments; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _OPTIONS[key]["parse"](value)
    return out


def _resolve_config(args) -> RunConfig:
    """Defaults, then the config file, then flags."""
    given = read_config_file(args.config) if args.config else {}
    for name, opt in _OPTIONS.items():
        raw = getattr(args, name, None)
        if raw is not None:
            # a repeatable flag's values parse like the file key's comma list
            given[name] = opt["parse"](",".join(raw) if isinstance(raw, list) else raw)
    cfg = RunConfig(task=args.task, **given)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.task != "sweep":  # a sweep's axes would be ignored, and recorded as if read
        for name in ("beta_list", "phi_list", "lambda_post_list"):
            if getattr(cfg, name) is not None:
                raise ConfigError(f"{name} is a sweep axis: only sweep reads it, not {cfg.task}")
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"variant must be {' or '.join(VARIANTS)}, got {cfg.variant!r}")
    if cfg.steps < 2:
        raise ConfigError(f"steps must be >= 2, got {cfg.steps}")
    if cfg.steps > _MAX_STEPS:  # before any task allocates its grid
        raise ConfigError(f"steps must be <= {_MAX_STEPS}, got {cfg.steps}")
    if not -math.inf < cfg.t_min < cfg.t_max < math.inf:
        raise ConfigError(f"need finite t_min < t_max, got [{cfg.t_min}, {cfg.t_max}]")
    if not 0.0 < cfg.tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {cfg.tol}")
    if cfg.task in ("rate", "sweep") and cfg.tol < _MIN_TOL:  # the only tasks that read tol
        raise ConfigError(f"tol must be >= {_MIN_TOL} for {cfg.task}, got {cfg.tol}")
    if cfg.k_resolution < 64:
        raise ConfigError(f"k_resolution must be >= 64, got {cfg.k_resolution}")
    if cfg.k_resolution > _MAX_K_RESOLUTION:  # before any task builds its momentum grid
        raise ConfigError(f"k_resolution must be <= {_MAX_K_RESOLUTION}, got {cfg.k_resolution}")
    if cfg.n_sites < 2 or cfg.n_sites % 2:
        raise ConfigError(f"n_sites must be even and >= 2, got {cfg.n_sites}")
    if cfg.n_sites > _MAX_SITES:  # before any task builds its modes
        raise ConfigError(f"n_sites must be <= {_MAX_SITES}, got {cfg.n_sites}")
    if cfg.task == "echo-decomposition" and cfg.steps * (cfg.n_sites // 2) > _MAX_ECHO_ROWS:
        raise ConfigError(
            f"echo-decomposition would write steps x n_sites/2 = {cfg.steps * (cfg.n_sites // 2)}"
            f" rows, above the cap of {_MAX_ECHO_ROWS}"
        )
    if cfg.n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {cfg.n_max}")
    if cfg.n_max > _MAX_STEPS:  # before critical_times builds a ladder per critical mode
        raise ConfigError(f"n_max must be <= {_MAX_STEPS}, got {cfg.n_max}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}")
    if cfg.jobs > _MAX_JOBS:  # before a sweep forks its pool
        raise ConfigError(f"jobs must be <= {_MAX_JOBS}, got {cfg.jobs}")
    if not cfg.branches:
        raise ConfigError("need at least one branch")
    for n in cfg.branches:  # branch n is rung n of the ladder: the n_max cap, either sign
        if abs(n) > _MAX_STEPS:
            raise ConfigError(f"branch must be between -{_MAX_STEPS} and {_MAX_STEPS}, got {n}")
    try:
        protocol = _protocol(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.task not in ("rate", "rate-finite", "winding", "echo-decomposition", "sweep"):
        return  # the other tasks read no time grid
    window = f"[{cfg.t_min}, {cfg.t_max}] in {cfg.steps} steps"
    # every mode energy is at most coupling * (lambda_post + 1); a sweep takes its largest
    posts = (cfg.lambda_post_list or ()) if cfg.task == "sweep" else ()
    lam = max(filter(math.isfinite, posts), default=cfg.lambda_post)  # its cells reject the rest
    if not math.isfinite(max(abs(cfg.t_min), abs(cfg.t_max)) * cfg.coupling * (lam + 1.0)):
        raise ConfigError(f"time window {window}: the phases eps*t overflow at lambda_post {lam}")
    try:  # the grid must pass the library's own checks: increasing, and uniform for cusps
        with np.errstate(all="ignore"):  # an overflowing window gives NaN times, rejected here
            grid = RateSeries(_times(cfg), np.zeros(cfg.steps), protocol)
        if cfg.task == "sweep":
            detect_cusps(grid)
    except ValueError as exc:
        raise ConfigError(f"time window {window}: {exc}") from None


def _protocol(cfg: RunConfig) -> QuenchProtocol:
    return QuenchProtocol(
        lambda_pre=cfg.lambda_pre,
        lambda_post=cfg.lambda_post,
        beta=cfg.beta,
        phi=cfg.phi,
        coupling=cfg.coupling,
    )


def _times(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.t_min, cfg.t_max, cfg.steps)


class RunManifest:
    """Ordered key = value record; serializes in the config-file format."""

    def __init__(self, entries=None):
        self.entries = list(entries) if entries else []

    def add(self, key, value):
        self.entries.append((str(key), _fmt(value)))

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.entries)

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        entries = []
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition("=")
            entries.append((key.strip(), value.strip()))
        return cls(entries)


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text file that appears at path only once it is completely written; a
    directory at path is refused before the .tmp opens, so before any work."""
    if os.path.isdir(path):  # a .tmp would open; only its rename would fail
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_csv(fh, header: str, template: str, rows) -> int:
    """Header line, then template % row per row, into fh; returns the rows written."""
    fh.write(header + "\n")
    count = 0
    for count, row in enumerate(rows, 1):
        fh.write(template % row)
    return count


def _write_manifest(fh, cfg: RunConfig, started: float, entries, warnings=(), tail=()):
    """Version, resolved config, entries, warnings, tail, then the duration, into fh."""
    manifest = RunManifest()
    manifest.add("version", __version__)
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        manifest.add(f"config.{f.name}", value)
    for key, value in entries:
        manifest.add(key, value)
    for i, w in enumerate(warnings):
        manifest.add(f"warning.{i}", w)
    for key, value in tail:
        manifest.add(key, value)
    manifest.add("duration_seconds", time.perf_counter() - started)
    fh.write(manifest.to_text())


# rows turned into Python values at a time: a whole column's would cost about
# 32 bytes a value (a float and its list slot) on top of the column itself
_ROW_CHUNK = 4096


def _column_rows(*columns):
    """The rows of equal-length 1-d arrays, as tuples of Python values,
    converted _ROW_CHUNK rows at a time."""
    for lo in range(0, len(columns[0]), _ROW_CHUNK):
        yield from zip(*(c[lo : lo + _ROW_CHUNK].tolist() for c in columns))


# ---------------------------------------------------------------------------
# task handlers: each returns (result, rows, diagnostics, degraded).  result is
# the library object the rows come from (None where there is no single one; a
# sweep cell reads back those of critical-modes and rate); rows, a list or an
# iterator, hold the plain values the task's row template formats


def _task_rate(cfg, warnings, roots=None):
    diag_in: dict = {}
    series = compute_rate_series(_protocol(cfg), _times(cfg), cfg.tol, diag_in, roots=roots)
    bad = ~np.isfinite(series.values) | (series.estimated_error > cfg.tol)
    singular = int(bad.sum())
    if singular:
        warnings.append(f"{singular} rate samples singular or above tolerance")
    columns = (series.times, series.values, series.estimated_error, bad)
    diag = [("blocks.threads", diag_in.pop("block_threads"))]
    timing = [("timing.quadrature_setup_s", diag_in.pop("setup_seconds"))]
    timing += [(f"timing.{s}_s", diag_in.pop(f"{s}_seconds")) for s in ("bulk", "refine")]
    diag += [("rate." + key, value) for key, value in diag_in.items()]
    diag += [("rate.singular_rows", singular), *timing]
    return series, _column_rows(*columns), diag, singular > 0


def _task_rate_finite(cfg, warnings):
    diag_in: dict = {}
    series = compute_rate_series_finite(_protocol(cfg), cfg.n_sites, _times(cfg), diag_in)
    bad = ~np.isfinite(series.values)
    singular = int(bad.sum())
    if singular:
        warnings.append(f"{singular} finite-size samples hit an exact amplitude zero")
    diag = [("blocks.threads", diag_in["block_threads"]), ("rate_finite.singular_rows", singular)]
    return series, _column_rows(series.times, series.values, bad), diag, singular > 0


def _task_zeros(cfg, warnings):
    protocol = _protocol(cfg)
    k = _base_grid(cfg.k_resolution)
    coeffs = mode_coefficients(protocol, k)  # shared by every branch
    branches = []
    worst = 0.0
    for n in cfg.branches:
        line = fisher_zero_line(protocol, n, k, coeffs)
        res = np.abs(boundary_partition(line.coefficients, line.zeros))
        worst = float(res.max(initial=worst))
        columns = (line.momenta, line.zeros.real, line.zeros.imag, res)
        branches.append(_column_rows(np.broadcast_to(n, res.shape), *columns))
        if line.skipped.size:  # one warning per branch: every sample can be skipped
            warnings.append(
                f"branch {n}: {line.skipped.size} samples skipped (vanishing weight),"
                f" the first at k={_fmt(line.skipped[0])}"
            )
    return None, itertools.chain(*branches), [("zeros.max_residual", worst)], False


def _task_critical_modes(cfg, warnings):
    cs = critical_modes(_protocol(cfg), cfg.variant, cfg.n_max, with_jump_signs=True)
    firsts = [float(ladder[0]) for ladder in cs.times]
    columns = (cs.modes.tolist(), cs.residuals.tolist(), firsts, cs.jump_signs)
    rows = list(zip(itertools.repeat(cfg.variant), *columns))
    diag = [("critical_modes.count", len(cs.modes))]
    diag += [(f"critical_modes.residual.{i}", r) for i, r in enumerate(cs.residuals)]
    return cs, rows, diag, False


def _task_winding(cfg, warnings):
    protocol = _protocol(cfg)
    rows = []
    failures = 0
    refinements = 0
    for t in _times(cfg).tolist():
        try:
            prof = phase_profile(protocol, t, cfg.k_resolution)
        except UnwrapError as exc:
            failures += 1
            warnings.append(f"sample t={_fmt(t)} skipped: {exc}")
            continue
        refinements += prof.refinements
        rows.append((t, prof.winding, prof.refinements))
    diag = [
        ("winding.refinements_total", refinements),
        ("winding.failed_samples", failures),
    ]
    return None, rows, diag, failures > 0


def _task_echo_decomposition(cfg, warnings):
    momenta = mode_grid(cfg.n_sites).momenta
    coeffs = mode_coefficients(_protocol(cfg), momenta)
    times = _times(cfg)
    # the null-work probability cos^2 + sin^2 cos^2(2 dtheta) is the echo
    # with the imbalance replaced by cos(2 dtheta); rows() holds no other mode array
    eps, imbalance = coeffs.eps_post, coeffs.imbalance
    null_imbalance = np.cos(2.0 * coeffs.delta_theta)
    # (time block x mode) echoes: per time, numpy's per-call cost sets the pace at few modes
    block = _times_per_block(eps)

    def rows():  # t and k are formatted once each; three buffers serve every block
        k_text = ["%.17g" % k for k in momenta.tolist()]
        echo_out, null_out, work = (np.empty((min(block, times.size), eps.size)) for _ in range(3))
        for lo in range(0, times.size, block):
            tb = times[lo : lo + block]
            n = tb.size
            echo = mode_echo(imbalance, eps, tb[:, None], echo_out[:n], work[:n])
            null = mode_echo(null_imbalance, eps, tb[:, None], null_out[:n], work[:n])
            for t, echo_t, null_t in zip(tb.tolist(), echo, null):
                t_text = itertools.repeat("%.17g" % t)
                for lo in range(0, eps.size, _ROW_CHUNK):  # Python values for _ROW_CHUNK modes
                    e, z = echo_t[lo : lo + _ROW_CHUNK], null_t[lo : lo + _ROW_CHUNK]
                    columns = (e.tolist(), z.tolist(), (e - z).tolist())
                    yield from zip(t_text, k_text[lo : lo + _ROW_CHUNK], *columns)

    return None, rows(), [("echo.rows", times.size * momenta.size)], False


def _task_variant_report(cfg, warnings):
    rep = variant_report(_protocol(cfg))
    rows = [dataclasses.astuple(row) for row in rep.rows]  # VariantRow fields are the columns
    return rep, rows, [("variant_report.rows", len(rows))], False


# task -> (handler, CSV header, row template)
_TASKS = {
    "rate": (_task_rate, "t,r,err_bound,singular_flag", "%.17g,%.17g,%.17g,%d\n"),
    "rate-finite": (_task_rate_finite, "t,r,singular_flag", "%.17g,%.17g,%d\n"),
    "zeros": (_task_zeros, "n,k,re_z,im_z,residual", "%d,%.17g,%.17g,%.17g,%.17g\n"),
    "critical-modes": (
        _task_critical_modes,
        "variant,k_star,residual,t_star_0,jump_sign",
        "%s,%.17g,%.17g,%.17g,%d\n",
    ),
    "winding": (_task_winding, "t,nu,unwrap_refinements", "%.17g,%.17g,%d\n"),
    "echo-decomposition": (
        _task_echo_decomposition,
        "t,k,echo,null_work,interference",
        "%s,%s,%.17g,%.17g,%.17g\n",
    ),
    "variant-report": (
        _task_variant_report,
        "variant,k_star,residual,residual_other_variant,fisher_confirmed",
        "%s,%.17g,%.17g,%.17g,%d\n",
    ),
}
TASKS = (*_TASKS, "sweep")


def _write_task(task: str, cfg: RunConfig, path: str, warnings: list, **kwargs):
    """Run one task, its handler given kwargs, into a CSV opened before it
    starts: (result, rows written, diagnostics, degraded, handler seconds,
    CSV seconds)."""
    handler, header, template = _TASKS[task]
    with _atomic_open(path) as fh:
        started = time.perf_counter()
        result, rows, diag, degraded = handler(cfg, warnings, **kwargs)
        handled = time.perf_counter()
        count = _write_csv(fh, header, template, rows)
    # streamed rows are made while the CSV is written, so the CSV seconds hold
    # echo-decomposition's echoes and, for rate, rate-finite and zeros, the
    # conversion of their columns to Python values (_column_rows)
    return result, count, diag, degraded, handled - started, time.perf_counter() - handled


def _run_task(cfg: RunConfig) -> int:
    started = time.perf_counter()
    out_path = cfg.out or cfg.task + ".csv"
    warnings: list = []
    with _atomic_open(out_path + ".manifest") as manifest:
        _, count, diag, degraded, *seconds = _write_task(cfg.task, cfg, out_path, warnings)
        entries = [("output", out_path), ("rows", count), *diag]
        entries += zip(("timing.task_s", "timing.csv_s"), seconds)
        _write_manifest(manifest, cfg, started, entries, warnings, [("degraded", degraded)])
    if degraded:
        print(f"dqpt: {cfg.task}: numerical degradation, see {out_path}.manifest", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep

def _cell_name(beta, phi, lambda_post) -> str:
    return f"beta={beta:.6f}_phi={phi:.6f}_lambda_post={lambda_post:.6f}"


def _sweep_cell(payload):
    """Run the critical-modes and rate tasks in one cell; (index row, degraded,
    seconds), the seconds taken in the process that ran the cell."""
    cfg, cell_dir = payload
    started = time.perf_counter()
    os.makedirs(cell_dir, exist_ok=True)
    warnings: list = []
    in_cell = functools.partial(os.path.join, cell_dir)
    with _atomic_open(in_cell("cell.manifest")) as manifest:
        cs, _, entries, _, *modes_s = _write_task(
            "critical-modes", cfg, in_cell("critical_modes.csv"), warnings
        )
        # the sinh modes are the imbalance roots the rate's panels split at
        roots = cs.modes if cfg.variant == "sinh" else None
        series, _, rate_diag, degraded, *rate_s = _write_task(
            "rate", cfg, in_cell("rate.csv"), warnings, roots=roots
        )
        cusps_started = time.perf_counter()
        cusps = detect_cusps(series)
        seconds = (sum(modes_s), sum(rate_s), time.perf_counter() - cusps_started)
        entries += [*rate_diag, ("cusps.count", len(cusps))]
        entries += [(f"cusps.{i}", c) for i, c in enumerate(cusps)]
        entries += zip(("timing.critical_modes_s", "timing.rate_s", "timing.cusps_s"), seconds)
        _write_manifest(manifest, cfg, started, entries, warnings)

    first_time = min((float(ladder[0]) for ladder in cs.times), default=math.nan)

    name = os.path.basename(cell_dir)
    row = (name, cfg.beta, cfg.phi, cfg.lambda_post, len(cs.modes), first_time, len(cusps))
    return row, degraded, time.perf_counter() - started


def _cell_outcome(cell_dir, result):
    """result() as (index row, degraded, seconds, None), or as (None, False, None,
    "<cell name>: <error>" on one line) if it raised, BrokenProcessPool too;
    MemoryError propagates."""
    try:
        return (*result(), None)
    except MemoryError:  # the whole sweep stops with exit 2, as any task would
        raise
    except Exception as exc:
        error = " ".join(f"{type(exc).__name__}: {exc}".split())
        return None, False, None, f"{os.path.basename(cell_dir)}: {error}"


def _pooled_outcomes(payloads, workers):
    """_cell_outcome of every cell, in cell order, from a pool holding at most
    `workers` cells at a time: a pool cannot cancel the calls it has queued,
    so a MemoryError then stops the sweep once the cells still running end.
    A worker that dies breaks the pool and fails every cell in it with
    BrokenProcessPool; those cells and the ones not yet submitted then run
    one at a time, each in a fresh one-worker pool, so that only a cell
    that kills its own worker fails."""
    from concurrent.futures import (  # (multiprocessing loads only for sweep --jobs N > 1)
        FIRST_COMPLETED,
        ProcessPoolExecutor,
        wait,
    )
    from concurrent.futures.process import BrokenProcessPool  # (loads with the pool)

    outcomes, running, broken = [None] * len(payloads), {}, []
    todo = collections.deque(range(len(payloads)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while running or (todo and not broken):
            while todo and not broken and len(running) < workers:
                i = todo.popleft()
                try:
                    running[pool.submit(_sweep_cell, payloads[i])] = i
                except BrokenProcessPool:  # a worker died since the last wait
                    broken.append(i)
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i = running.pop(future)
                if isinstance(future.exception(), BrokenProcessPool):
                    broken.append(i)
                else:
                    outcomes[i] = _cell_outcome(payloads[i][1], future.result)
    for i in sorted([*broken, *todo]):
        with ProcessPoolExecutor(max_workers=1) as alone:
            outcomes[i] = _cell_outcome(payloads[i][1], alone.submit(_sweep_cell, payloads[i]).result)
    return outcomes


_INDEX = (
    "cell,beta,phi,lambda_post,n_critical_modes,first_critical_time,cusp_count",
    "%s,%.17g,%.17g,%.17g,%d,%.17g,%d\n",
)


def _run_sweep(cfg: RunConfig) -> int:
    started = time.perf_counter()
    betas = cfg.beta_list if cfg.beta_list is not None else (cfg.beta,)
    phis = cfg.phi_list if cfg.phi_list is not None else (cfg.phi,)
    lambda_posts = (
        cfg.lambda_post_list if cfg.lambda_post_list is not None else (cfg.lambda_post,)
    )
    cells = [(b, p, lp) for b in betas for p in phis for lp in lambda_posts]
    if len(cells) > _MAX_CELLS:
        raise ConfigError(f"sweep has {len(cells)} cells, above the cap of {_MAX_CELLS}")

    out_dir = cfg.out or "sweep_out"
    payloads, names = [], set()
    for beta, phi, lambda_post in cells:
        name = _cell_name(beta, phi, lambda_post)
        if name in names:  # the name keeps 6 decimals, so distinct values can share it
            raise ConfigError(f"cell {name}: another cell has the same directory name")
        names.add(name)
        cell_cfg = dataclasses.replace(
            cfg,
            beta=beta,
            phi=phi,
            lambda_post=lambda_post,
            beta_list=None,
            phi_list=None,
            lambda_post_list=None,
            out=None,
        )
        try:
            _protocol(cell_cfg)
        except ValueError as exc:
            raise ConfigError(f"cell {name}: {exc}") from None
        payloads.append((cell_cfg, os.path.join(out_dir, name)))
    os.makedirs(out_dir, exist_ok=True)  # only once every cell is valid: exit 2 writes nothing
    # both open before the first cell; pool workers inherit them, so no byte goes
    # in until the last cell has finished.  A failed cell has no index row
    with _atomic_open(os.path.join(out_dir, "sweep.manifest")) as manifest:
        with _atomic_open(os.path.join(out_dir, "index.csv")) as fh:
            workers = min(cfg.jobs, len(payloads))  # a pool forks all its workers up front
            if workers > 1:
                results = _pooled_outcomes(payloads, workers)
            else:
                results = [_cell_outcome(p[1], functools.partial(_sweep_cell, p)) for p in payloads]
            _write_csv(fh, *_INDEX, [row for row, _, _, error in results if error is None])
        degraded = sum(bad for _, bad, _, _ in results)
        errors = [(i, error) for i, (*_, error) in enumerate(results) if error]
        # a dead worker makes the pool kill the rest, maybe mid-write; only failed cells hold a .tmp
        for i, _ in errors:
            for tmp in glob.glob(os.path.join(glob.escape(payloads[i][1]), "*.tmp")):
                os.remove(tmp)
        entries = [("cells", len(cells)), ("degraded_cells", degraded)]
        entries.append(("failed_cells", len(errors)))
        # cell names hold '=', so the key is the cell's position and a failure's value names it
        for i, (_, bad, seconds, error) in enumerate(results):
            if error:
                entries.append((f"cell_error.{i}", error))
            else:
                entries += [(f"cell_seconds.{i}", seconds), (f"cell_degraded.{i}", bad)]
        _write_manifest(manifest, cfg, started, entries)

    for _, error in errors:
        print(f"dqpt: sweep: failed cell {error}", file=sys.stderr)
    if degraded:
        print(f"dqpt: sweep: numerical degradation in some cells, see {out_dir}", file=sys.stderr)
    return 3 if degraded or errors else 0


# ---------------------------------------------------------------------------

@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dqpt",
        description="Quench diagnostics for the transverse-field Ising chain",
    )
    p.add_argument("task", choices=TASKS)
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    for name, opt in _OPTIONS.items():
        if opt["flag"]:
            # raw strings: _resolve_config parses them like the config file
            p.add_argument(opt["flag"], dest=name, **opt["argparse"])
    # let detached negative values like "-pi/2" or "-0.3" pass as arguments
    p._negative_number_matcher = re.compile(r"^-(\d|\.\d|(\d+(\.\d*)?\s*\*?\s*)?pi)", re.IGNORECASE)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _resolve_config(args)
        if cfg.task == "sweep":
            return _run_sweep(cfg)
        return _run_task(cfg)
    except ConfigError as exc:
        print(f"dqpt: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the atomic writers have removed any partial output
        print(f"dqpt: out of memory in {args.task}; reduce --steps or --n-sites", file=sys.stderr)
        return 2
    except OSError as exc:  # an unwritable --out; no partial output, as above
        print(f"dqpt: {args.task}: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

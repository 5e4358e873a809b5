"""Command-line front end.

One task per invocation; every run writes one CSV data file plus a flat
key-value manifest next to it.  Configuration comes from ``key = value``
files and/or flags, flags winning.  Exit codes: 0 success, 2 config error,
3 numerical degradation (output still written, flagged in the manifest).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .criticality import critical_modes, fisher_zero_line, variant_report
from .mode_dynamics import (  # noqa: F401 (perfbench traces null_work_decomposition here)
    boundary_partition,
    mode_coefficients,
    mode_echo,
    null_work_decomposition,
)
from .model import QuenchProtocol, mode_grid
from .observables import (
    _BLOCK_BYTES,
    UnwrapError,
    _base_grid,
    compute_rate_series,
    compute_rate_series_finite,
    detect_cusps,
    phase_profile,
)

TASKS = (
    "rate",
    "rate-finite",
    "zeros",
    "critical-modes",
    "winding",
    "echo-decomposition",
    "variant-report",
    "sweep",
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
    variant: str = _opt("sinh", _parse_text, "--variant", choices=("sinh", "tanh"))
    tol: float = _opt(1e-8, parse_number, "--tol", metavar="X")
    n_sites: int = _opt(1000, _parse_int, "--n-sites", metavar="N")
    n_max: int = _opt(3, _parse_int, "--n-max", metavar="N")
    out: str | None = _opt(None, _parse_text, "--out", metavar="PATH")
    jobs: int = _opt(1, _parse_int, "--jobs", metavar="N", help="sweep concurrency (env DQPT_JOBS)")
    sweep_cap: int = _opt(10000, _parse_int, "--sweep-cap", metavar="N")
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
    """Defaults, then the config file, then flags; DQPT_JOBS if neither set jobs."""
    given = read_config_file(args.config) if args.config else {}
    for name, opt in _OPTIONS.items():
        raw = getattr(args, name, None)
        if raw is not None:
            # a repeatable flag's values parse like the file key's comma list
            given[name] = opt["parse"](",".join(raw) if isinstance(raw, list) else raw)
    if "jobs" not in given and "DQPT_JOBS" in os.environ:
        given["jobs"] = _parse_int(os.environ["DQPT_JOBS"])
    cfg = RunConfig(task=args.task, **given)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.variant not in ("sinh", "tanh"):
        raise ConfigError(f"variant must be sinh or tanh, got {cfg.variant!r}")
    min_steps = 5 if cfg.task == "sweep" else 2  # a sweep's cusp detection needs 5
    if cfg.steps < min_steps:
        raise ConfigError(f"steps must be >= {min_steps}, got {cfg.steps}")
    if not -math.inf < cfg.t_min < cfg.t_max < math.inf:
        raise ConfigError(f"need finite t_min < t_max, got [{cfg.t_min}, {cfg.t_max}]")
    if not 0.0 < cfg.tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {cfg.tol}")
    if cfg.k_resolution < 64:
        raise ConfigError(f"k_resolution must be >= 64, got {cfg.k_resolution}")
    if cfg.n_sites < 2 or cfg.n_sites % 2:
        raise ConfigError(f"n_sites must be even and >= 2, got {cfg.n_sites}")
    if cfg.n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {cfg.n_max}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}")
    if cfg.sweep_cap < 1:
        raise ConfigError(f"sweep_cap must be >= 1, got {cfg.sweep_cap}")
    if not cfg.branches:
        raise ConfigError("need at least one branch")
    try:
        _protocol(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    """Text file that appears at path only once it is completely written."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_csv(path: str, header, rows) -> int:
    count = 0
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for count, row in enumerate(rows, 1):
            fh.write(",".join(row) + "\n")
    return count


def _write_manifest(path: str, cfg: RunConfig, started: float, entries, warnings=(), tail=()):
    """Version, resolved config, entries, warnings, tail, then the duration."""
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
    with _atomic_open(path) as fh:
        fh.write(manifest.to_text())


# ---------------------------------------------------------------------------
# task handlers: each returns (header, rows, diagnostics, degraded); rows may be a generator

_RATE_HEADER = ("t", "r", "err_bound", "singular_flag")


def _rate_rows(protocol, cfg, warnings):
    """Quadrature rate series, its CSV rows, manifest diagnostics, degraded flag."""
    diag_in: dict = {}
    series = compute_rate_series(protocol, _times(cfg), cfg.tol, diagnostics=diag_in)
    rows = []
    singular = 0
    for t, r, e in zip(
        series.times.tolist(), series.values.tolist(), series.estimated_error.tolist()
    ):
        bad = (not math.isfinite(r)) or e > cfg.tol
        singular += bad
        rows.append(("%.17g" % t, "%.17g" % r, "%.17g" % e, "1" if bad else "0"))
    if singular:
        warnings.append(f"{singular} rate samples singular or above tolerance")
    diag = [
        ("rate.extra_panels", diag_in["extra_panels"]),
        ("rate.unconverged_samples", diag_in["unconverged_samples"]),
        ("rate.singular_rows", singular),
    ]
    return series, rows, diag, singular > 0


_CRITICAL_HEADER = ("variant", "k_star", "residual", "t_star_0", "jump_sign")


def _critical_rows(protocol, cfg):
    """Critical modes with jump signs, and their CSV rows."""
    cs = critical_modes(protocol, cfg.variant, cfg.n_max, with_jump_signs=True)
    rows = [
        (cs.condition_variant, _fmt(k), _fmt(res), _fmt(ladder[0]), _fmt(int(sign)))
        for k, res, ladder, sign in zip(cs.modes, cs.residuals, cs.times, cs.jump_signs)
    ]
    return cs, rows


def _task_rate(cfg, warnings):
    _, rows, diag, degraded = _rate_rows(_protocol(cfg), cfg, warnings)
    return _RATE_HEADER, rows, diag, degraded


def _task_rate_finite(cfg, warnings):
    series = compute_rate_series_finite(_protocol(cfg), cfg.n_sites, _times(cfg))
    finite = np.isfinite(series.values).tolist()
    singular = finite.count(False)
    if singular:
        warnings.append(f"{singular} finite-size samples hit an exact amplitude zero")
    columns = zip(series.times.tolist(), series.values.tolist(), finite)
    rows = (("%.17g" % t, "%.17g" % r, "0" if ok else "1") for t, r, ok in columns)
    diag = [("rate_finite.singular_rows", singular)]
    return ("t", "r", "singular_flag"), rows, diag, singular > 0


def _task_zeros(cfg, warnings):
    protocol = _protocol(cfg)
    k = _base_grid(cfg.k_resolution)
    coeffs = mode_coefficients(protocol, k)  # shared by every branch
    rows = []
    worst = 0.0
    for n in cfg.branches:
        line = fisher_zero_line(protocol, n, k, coeffs)
        res = np.abs(boundary_partition(line.coefficients, line.zeros))
        worst = float(res.max(initial=worst))
        for km, z, r in zip(line.momenta.tolist(), line.zeros.tolist(), res.tolist()):
            rows.append((str(n), "%.17g" % km, "%.17g" % z.real, "%.17g" % z.imag, "%.17g" % r))
        for km in line.skipped:
            warnings.append(f"branch {n}: sample k={_fmt(km)} skipped (vanishing weight)")
    diag = [("zeros.max_residual", worst)]
    return ("n", "k", "re_z", "im_z", "residual"), rows, diag, False


def _task_critical_modes(cfg, warnings):
    cs, rows = _critical_rows(_protocol(cfg), cfg)
    diag = [("critical_modes.count", len(cs.modes))]
    for i, r in enumerate(cs.residuals):
        diag.append((f"critical_modes.residual.{i}", r))
    return _CRITICAL_HEADER, rows, diag, False


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
        rows.append(("%.17g" % t, "%.17g" % prof.winding, str(prof.refinements)))
    diag = [
        ("winding.refinements_total", refinements),
        ("winding.failed_samples", failures),
    ]
    return ("t", "nu", "unwrap_refinements"), rows, diag, failures > 0


def _task_echo_decomposition(cfg, warnings):
    momenta = mode_grid(cfg.n_sites).momenta
    coeffs = mode_coefficients(_protocol(cfg), momenta)
    times = _times(cfg)
    # the null-work probability cos^2 + sin^2 cos^2(2 dtheta) is the echo
    # with the imbalance replaced by cos(2 dtheta)
    null_imbalance = np.cos(2.0 * coeffs.delta_theta)
    block = max(1, _BLOCK_BYTES // momenta.nbytes)

    def rows():  # (time block x mode) arrays, formatted one time at a time
        k_text = ["%.17g" % k for k in momenta.tolist()]
        for lo in range(0, times.size, block):
            tb = times[lo : lo + block, None]
            echo = mode_echo(coeffs.imbalance, coeffs.eps_post, tb)
            null = mode_echo(null_imbalance, coeffs.eps_post, tb)
            for t, echo_t, null_t in zip(tb[:, 0].tolist(), echo, null):
                t_text = "%.17g" % t
                columns = zip(k_text, echo_t.tolist(), null_t.tolist(), (echo_t - null_t).tolist())
                for k, e, n, i in columns:
                    yield t_text, k, "%.17g" % e, "%.17g" % n, "%.17g" % i

    diag = [("echo.rows", times.size * momenta.size)]
    return ("t", "k", "echo", "null_work", "interference"), rows(), diag, False


def _task_variant_report(cfg, warnings):
    rep = variant_report(_protocol(cfg))
    rows = [
        (
            row.variant,
            _fmt(row.k_star),
            _fmt(row.residual),
            _fmt(row.residual_other),
            _fmt(row.fisher_confirmed),
        )
        for row in rep.rows
    ]
    diag = [("variant_report.rows", len(rows))]
    header = ("variant", "k_star", "residual", "residual_other_variant", "fisher_confirmed")
    return header, rows, diag, False


_HANDLERS = {
    "rate": _task_rate,
    "rate-finite": _task_rate_finite,
    "zeros": _task_zeros,
    "critical-modes": _task_critical_modes,
    "winding": _task_winding,
    "echo-decomposition": _task_echo_decomposition,
    "variant-report": _task_variant_report,
}


def _run_task(cfg: RunConfig) -> int:
    started = time.perf_counter()
    out_path = cfg.out or cfg.task + ".csv"
    warnings: list = []
    header, rows, diag, degraded = _HANDLERS[cfg.task](cfg, warnings)
    entries = [("output", out_path), ("rows", _write_csv(out_path, header, rows)), *diag]
    tail = [("degraded", degraded)]
    _write_manifest(out_path + ".manifest", cfg, started, entries, warnings, tail)
    if degraded:
        print(f"dqpt: {cfg.task}: numerical degradation, see {out_path}.manifest", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep

def _cell_name(beta, phi, lambda_post) -> str:
    return f"beta={beta:.6f}_phi={phi:.6f}_lambda_post={lambda_post:.6f}"


def _sweep_cell(payload):
    cfg, cell_dir = payload
    started = time.perf_counter()
    os.makedirs(cell_dir, exist_ok=True)
    protocol = _protocol(cfg)
    warnings: list = []

    cs, mode_rows = _critical_rows(protocol, cfg)
    _write_csv(os.path.join(cell_dir, "critical_modes.csv"), _CRITICAL_HEADER, mode_rows)
    series, rate_rows, rate_diag, degraded = _rate_rows(protocol, cfg, warnings)
    _write_csv(os.path.join(cell_dir, "rate.csv"), _RATE_HEADER, rate_rows)

    cusps = detect_cusps(series)
    first_time = min((ladder[0] for ladder in cs.times), default=math.nan)

    entries = [("critical_modes.count", len(cs.modes)), *rate_diag, ("cusps.count", len(cusps))]
    entries += [(f"cusps.{i}", c) for i, c in enumerate(cusps)]
    _write_manifest(os.path.join(cell_dir, "cell.manifest"), cfg, started, entries, warnings)

    return (
        os.path.basename(cell_dir),
        cfg.beta,
        cfg.phi,
        cfg.lambda_post,
        len(cs.modes),
        first_time,
        len(cusps),
        degraded,
    )


def _run_sweep(cfg: RunConfig) -> int:
    started = time.perf_counter()
    betas = cfg.beta_list if cfg.beta_list is not None else (cfg.beta,)
    phis = cfg.phi_list if cfg.phi_list is not None else (cfg.phi,)
    lambda_posts = (
        cfg.lambda_post_list if cfg.lambda_post_list is not None else (cfg.lambda_post,)
    )
    cells = [(b, p, lp) for b in betas for p in phis for lp in lambda_posts]
    if len(cells) > cfg.sweep_cap:
        raise ConfigError(
            f"sweep has {len(cells)} cells, above the cap of {cfg.sweep_cap}"
        )

    out_dir = cfg.out or "sweep_out"
    payloads = []
    for beta, phi, lambda_post in cells:
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
            raise ConfigError(f"cell {_cell_name(beta, phi, lambda_post)}: {exc}") from None
        payloads.append((cell_cfg, os.path.join(out_dir, _cell_name(beta, phi, lambda_post))))
    os.makedirs(out_dir, exist_ok=True)  # only once every cell is valid: exit 2 writes nothing

    workers = min(cfg.jobs, len(payloads))  # a pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, payloads))
    else:
        results = [_sweep_cell(p) for p in payloads]

    index_rows = [
        (name, _fmt(b), _fmt(p), _fmt(lp), _fmt(nm), _fmt(ft), _fmt(nc))
        for name, b, p, lp, nm, ft, nc, _ in results
    ]
    # the index is written only once every cell has finished
    _write_csv(
        os.path.join(out_dir, "index.csv"),
        (
            "cell",
            "beta",
            "phi",
            "lambda_post",
            "n_critical_modes",
            "first_critical_time",
            "cusp_count",
        ),
        index_rows,
    )

    entries = [("cells", len(cells)), ("degraded_cells", sum(1 for r in results if r[-1]))]
    _write_manifest(os.path.join(out_dir, "sweep.manifest"), cfg, started, entries)

    if any(r[-1] for r in results):
        print(f"dqpt: sweep: numerical degradation in some cells, see {out_dir}", file=sys.stderr)
        return 3
    return 0


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


if __name__ == "__main__":
    sys.exit(main())

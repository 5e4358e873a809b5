"""Command-line front end.

One task per invocation; every run writes one CSV data file plus a flat
key-value manifest next to it.  Configuration comes from ``key = value``
files and/or flags, flags winning.  Exit codes: 0 success, 2 config error,
3 numerical degradation (output still written, flagged in the manifest).
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .mode_dynamics import boundary_partition, mode_coefficients, null_work_decomposition
from .model import QuenchProtocol, mode_grid
from .observables import (
    K_EPS,
    UnwrapError,
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


@dataclass
class RunConfig:
    task: str
    lambda_pre: float = 0.5
    lambda_post: float = 2.0
    beta: float = 10.0
    phi: float = 0.0
    coupling: float = 1.0
    t_min: float = 0.0
    t_max: float = 4.0
    steps: int = 401
    k_resolution: int = 256
    branches: tuple = (0,)
    variant: str = "sinh"
    tol: float = 1e-8
    n_sites: int = 1000
    n_max: int = 3
    out: str | None = None
    jobs: int = 1
    sweep_cap: int = 10000
    beta_list: tuple | None = None
    phi_list: tuple | None = None
    lambda_post_list: tuple | None = None


# key -> converter for config files; flags reuse the same converters
_FILE_KEYS = {
    "lambda_pre": parse_number,
    "lambda_post": parse_number,
    "beta": parse_number,
    "phi": parse_number,
    "coupling": parse_number,
    "t_min": parse_number,
    "t_max": parse_number,
    "tol": parse_number,
    "steps": _parse_int,
    "k_resolution": _parse_int,
    "n_sites": _parse_int,
    "n_max": _parse_int,
    "jobs": _parse_int,
    "sweep_cap": _parse_int,
    "branches": lambda v: tuple(_parse_int(p) for p in str(v).split(",") if p.strip()),
    "variant": lambda v: str(v).strip(),
    "out": lambda v: str(v).strip(),
    "beta_list": _parse_number_list,
    "phi_list": _parse_number_list,
    "lambda_post_list": _parse_number_list,
}


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
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _FILE_KEYS[key](value)
    return out


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig(task=args.task)
    jobs_set = False
    if args.config:
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
            if key == "jobs":
                jobs_set = True
    overrides = {
        "lambda_pre": parse_number,
        "lambda_post": parse_number,
        "beta": parse_number,
        "phi": parse_number,
        "coupling": parse_number,
        "t_min": parse_number,
        "t_max": parse_number,
        "tol": parse_number,
        "steps": int,
        "k_resolution": int,
        "n_sites": int,
        "n_max": int,
        "jobs": int,
        "sweep_cap": int,
        "variant": str,
        "out": str,
    }
    for name, conv in overrides.items():
        raw = getattr(args, name)
        if raw is not None:
            setattr(cfg, name, conv(raw))
            if name == "jobs":
                jobs_set = True
    if args.branch:
        cfg.branches = tuple(args.branch)
    if not jobs_set:
        env = os.environ.get("DQPT_JOBS")
        if env is not None:
            cfg.jobs = _parse_int(env)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.variant not in ("sinh", "tanh"):
        raise ConfigError(f"variant must be sinh or tanh, got {cfg.variant!r}")
    if cfg.steps < 2:
        raise ConfigError(f"steps must be >= 2, got {cfg.steps}")
    if not cfg.t_min < cfg.t_max:
        raise ConfigError(f"need t_min < t_max, got [{cfg.t_min}, {cfg.t_max}]")
    if cfg.tol <= 0.0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
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


def _config_echo(manifest: RunManifest, cfg: RunConfig):
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        manifest.add(f"config.{f.name}", value)


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# task handlers: each returns (header, rows, diagnostics, degraded)

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
        rows.append((_fmt(t), _fmt(r), _fmt(e), "1" if bad else "0"))
    if singular:
        warnings.append(f"{singular} rate samples singular or above tolerance")
    diag = [
        ("rate.extra_panels", diag_in["extra_panels"]),
        ("rate.unconverged_samples", diag_in["unconverged_samples"]),
        ("rate.singular_rows", singular),
    ]
    return series, rows, diag, singular > 0


def _task_rate(cfg, warnings):
    _, rows, diag, degraded = _rate_rows(_protocol(cfg), cfg, warnings)
    return _RATE_HEADER, rows, diag, degraded


def _task_rate_finite(cfg, warnings):
    series = compute_rate_series_finite(_protocol(cfg), cfg.n_sites, _times(cfg))
    rows = []
    singular = 0
    for t, r in zip(series.times, series.values):
        bad = not math.isfinite(r)
        singular += bad
        rows.append((_fmt(t), _fmt(r), "1" if bad else "0"))
    if singular:
        warnings.append(f"{singular} finite-size samples hit an exact amplitude zero")
    diag = [("rate_finite.singular_rows", singular)]
    return ("t", "r", "singular_flag"), rows, diag, singular > 0


def _task_zeros(cfg, warnings):
    protocol = _protocol(cfg)
    k = np.linspace(K_EPS, math.pi - K_EPS, cfg.k_resolution)
    rows = []
    worst = 0.0
    for n in cfg.branches:
        line = fisher_zero_line(protocol, n, k)
        for km, z in zip(line.momenta, line.zeros):
            res = abs(boundary_partition(mode_coefficients(protocol, float(km)), z))
            worst = max(worst, res)
            rows.append((_fmt(int(n)), _fmt(km), _fmt(z.real), _fmt(z.imag), _fmt(res)))
        for km in line.skipped:
            warnings.append(f"branch {n}: sample k={_fmt(km)} skipped (vanishing weight)")
    diag = [("zeros.max_residual", worst)]
    return ("n", "k", "re_z", "im_z", "residual"), rows, diag, False


def _task_critical_modes(cfg, warnings):
    cs = critical_modes(_protocol(cfg), cfg.variant, cfg.n_max, with_jump_signs=True)
    rows = []
    for i, k_star in enumerate(cs.modes):
        rows.append(
            (
                cs.condition_variant,
                _fmt(k_star),
                _fmt(cs.residuals[i]),
                _fmt(cs.times[i][0]),
                _fmt(int(cs.jump_signs[i])),
            )
        )
    diag = [("critical_modes.count", len(cs.modes))]
    for i, r in enumerate(cs.residuals):
        diag.append((f"critical_modes.residual.{i}", r))
    return ("variant", "k_star", "residual", "t_star_0", "jump_sign"), rows, diag, False


def _task_winding(cfg, warnings):
    protocol = _protocol(cfg)
    rows = []
    failures = 0
    refinements = 0
    for t in _times(cfg):
        try:
            prof = phase_profile(protocol, float(t), cfg.k_resolution)
        except UnwrapError as exc:
            failures += 1
            warnings.append(f"sample t={_fmt(t)} skipped: {exc}")
            continue
        nu = (prof.geometric_phase[-1] - prof.geometric_phase[0]) / math.tau
        refinements += prof.refinements
        rows.append((_fmt(t), _fmt(nu), str(prof.refinements)))
    diag = [
        ("winding.refinements_total", refinements),
        ("winding.failed_samples", failures),
    ]
    return ("t", "nu", "unwrap_refinements"), rows, diag, failures > 0


def _task_echo_decomposition(cfg, warnings):
    protocol = _protocol(cfg)
    momenta = mode_grid(cfg.n_sites).momenta
    rows = []
    for t in _times(cfg):
        for k in momenta:
            null, interference = null_work_decomposition(protocol, float(k), float(t))
            rows.append(
                (
                    _fmt(t),
                    _fmt(k),
                    _fmt(null + interference),
                    _fmt(null),
                    _fmt(interference),
                )
            )
    diag = [("echo.rows", len(rows))]
    return ("t", "k", "echo", "null_work", "interference"), rows, diag, False


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
    _write_csv(out_path, header, rows)
    manifest = RunManifest()
    manifest.add("version", __version__)
    _config_echo(manifest, cfg)
    manifest.add("output", out_path)
    manifest.add("rows", len(rows))
    for key, value in diag:
        manifest.add(key, value)
    for i, w in enumerate(warnings):
        manifest.add(f"warning.{i}", w)
    manifest.add("degraded", degraded)
    manifest.add("duration_seconds", time.perf_counter() - started)
    with open(out_path + ".manifest", "w", encoding="utf-8") as fh:
        fh.write(manifest.to_text())
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

    cs = critical_modes(protocol, cfg.variant, cfg.n_max, with_jump_signs=True)
    mode_rows = [
        (
            cs.condition_variant,
            _fmt(cs.modes[i]),
            _fmt(cs.residuals[i]),
            _fmt(cs.times[i][0]),
            _fmt(int(cs.jump_signs[i])),
        )
        for i in range(len(cs.modes))
    ]
    _write_csv(
        os.path.join(cell_dir, "critical_modes.csv"),
        ("variant", "k_star", "residual", "t_star_0", "jump_sign"),
        mode_rows,
    )

    series, rate_rows, rate_diag, degraded = _rate_rows(protocol, cfg, warnings)
    _write_csv(os.path.join(cell_dir, "rate.csv"), _RATE_HEADER, rate_rows)

    cusps = detect_cusps(series)
    first_time = min((ladder[0] for ladder in cs.times), default=math.nan)

    manifest = RunManifest()
    manifest.add("version", __version__)
    _config_echo(manifest, cfg)
    manifest.add("critical_modes.count", len(cs.modes))
    for key, value in rate_diag:
        manifest.add(key, value)
    manifest.add("cusps.count", len(cusps))
    for i, c in enumerate(cusps):
        manifest.add(f"cusps.{i}", c)
    for i, w in enumerate(warnings):
        manifest.add(f"warning.{i}", w)
    manifest.add("duration_seconds", time.perf_counter() - started)
    with open(os.path.join(cell_dir, "cell.manifest"), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_text())

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
    os.makedirs(out_dir, exist_ok=True)
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

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
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

    manifest = RunManifest()
    manifest.add("version", __version__)
    _config_echo(manifest, cfg)
    manifest.add("cells", len(cells))
    manifest.add("degraded_cells", sum(1 for r in results if r[-1]))
    manifest.add("duration_seconds", time.perf_counter() - started)
    with open(os.path.join(out_dir, "sweep.manifest"), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_text())

    if any(r[-1] for r in results):
        print(f"dqpt: sweep: numerical degradation in some cells, see {out_dir}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dqpt",
        description="Quench diagnostics for the transverse-field Ising chain",
    )
    p.add_argument("task", choices=TASKS)
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    p.add_argument("--lambda-pre", dest="lambda_pre", metavar="X")
    p.add_argument("--lambda-post", dest="lambda_post", metavar="X")
    p.add_argument("--beta", metavar="X", help="inverse temperature; 'infinite' allowed")
    p.add_argument("--phi", metavar="X", help="relative phase; accepts forms like pi/2")
    p.add_argument("--coupling", metavar="X")
    p.add_argument("--t-min", dest="t_min", metavar="X")
    p.add_argument("--t-max", dest="t_max", metavar="X")
    p.add_argument("--steps", type=int, metavar="N")
    p.add_argument("--k-resolution", dest="k_resolution", type=int, metavar="N")
    p.add_argument(
        "--branch",
        action="append",
        type=int,
        metavar="N",
        help="Fisher-line branch index; repeatable",
    )
    p.add_argument("--variant", choices=("sinh", "tanh"))
    p.add_argument("--tol", metavar="X")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--jobs", type=int, metavar="N", help="sweep concurrency (env DQPT_JOBS)")
    p.add_argument("--n-sites", dest="n_sites", type=int, metavar="N")
    p.add_argument("--n-max", dest="n_max", type=int, metavar="N")
    p.add_argument("--sweep-cap", dest="sweep_cap", type=int, metavar="N")
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


if __name__ == "__main__":
    sys.exit(main())

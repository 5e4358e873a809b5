"""Task CSVs against the row-building code they replaced, byte for byte.

Every task declares one CSV header and one row template (``template %
row``) in the CLI's task table.  Before, each handler formatted its values
one at a time with ``"%.17g"`` or ``_fmt`` and joined them with commas.
The functions below are that earlier code, verbatim apart from their names,
fed from the same library calls; the CSVs of rate, zeros, critical-modes,
winding, variant-report and a sweep (its index and every cell's CSVs) must
equal what they produce.  The finite tasks have their own oracle in
tests/test_cli_streaming.py.
"""

import math
import os

import numpy as np
import pytest

import dqpt.cli as cli
from dqpt import (
    boundary_partition,
    compute_rate_series,
    critical_modes,
    detect_cusps,
    fisher_zero_line,
    mode_coefficients,
    observables,
    phase_profile,
    variant_report,
)
from dqpt.cli import RunManifest, _protocol, _times, main
from dqpt.observables import UnwrapError, _base_grid


def old_fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def old_rate_rows(protocol, cfg):
    diag_in: dict = {}
    series = compute_rate_series(protocol, _times(cfg), cfg.tol, diagnostics=diag_in)
    rows = []
    for t, r, e in zip(
        series.times.tolist(), series.values.tolist(), series.estimated_error.tolist()
    ):
        bad = (not math.isfinite(r)) or e > cfg.tol
        rows.append(("%.17g" % t, "%.17g" % r, "%.17g" % e, "1" if bad else "0"))
    return series, ("t", "r", "err_bound", "singular_flag"), rows


def old_critical_rows(protocol, cfg):
    cs = critical_modes(protocol, cfg.variant, cfg.n_max, with_jump_signs=True)
    rows = [
        (cfg.variant, old_fmt(k), old_fmt(res), old_fmt(ladder[0]), old_fmt(int(sign)))
        for k, res, ladder, sign in zip(cs.modes, cs.residuals, cs.times, cs.jump_signs)
    ]
    return cs, ("variant", "k_star", "residual", "t_star_0", "jump_sign"), rows


def old_zeros_rows(cfg):
    protocol = _protocol(cfg)
    k = _base_grid(cfg.k_resolution)
    coeffs = mode_coefficients(protocol, k)
    rows = []
    for n in cfg.branches:
        line = fisher_zero_line(protocol, n, k, coeffs)
        res = np.abs(boundary_partition(line.coefficients, line.zeros))
        for km, z, r in zip(line.momenta.tolist(), line.zeros.tolist(), res.tolist()):
            rows.append((str(n), "%.17g" % km, "%.17g" % z.real, "%.17g" % z.imag, "%.17g" % r))
    return ("n", "k", "re_z", "im_z", "residual"), rows


def old_winding_rows(cfg):
    protocol = _protocol(cfg)
    rows = []
    for t in _times(cfg).tolist():
        try:
            prof = phase_profile(protocol, t, cfg.k_resolution)
        except UnwrapError:
            continue
        rows.append(("%.17g" % t, "%.17g" % prof.winding, str(prof.refinements)))
    return ("t", "nu", "unwrap_refinements"), rows


def old_variant_rows(cfg):
    rep = variant_report(_protocol(cfg))
    rows = [
        (
            row.variant,
            old_fmt(row.k_star),
            old_fmt(row.residual),
            old_fmt(row.residual_other),
            old_fmt(row.fisher_confirmed),
        )
        for row in rep.rows
    ]
    header = ("variant", "k_star", "residual", "residual_other_variant", "fisher_confirmed")
    return header, rows


def old_index_row(cell_cfg, name):
    # what a sweep cell returned for its index row, formatted as the index was
    protocol = _protocol(cell_cfg)
    cs, _, _ = old_critical_rows(protocol, cell_cfg)
    series, _, _ = old_rate_rows(protocol, cell_cfg)
    cusps = detect_cusps(series)
    first_time = min((ladder[0] for ladder in cs.times), default=math.nan)
    values = (cell_cfg.beta, cell_cfg.phi, cell_cfg.lambda_post, len(cs.modes), first_time)
    return (name, *(old_fmt(v) for v in values), old_fmt(len(cusps)))


def csv_text(header, rows):
    return "".join(",".join(r) + "\n" for r in [header, *rows])


def run(tmp_path, argv):
    out = tmp_path / "out.csv"
    argv = [*argv, "--out", str(out)]
    code = main(argv)
    cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
    return code, out.read_text(encoding="utf-8"), cfg


# (lambda_pre, lambda_post, beta, phi): zero temperature, both signs of the
# coherence phase, a hot quench with two critical modes, a generic phase
PROTOCOLS = [
    ("0.5", "2.0", "inf", "pi/2"),
    ("0.5", "2.0", "1", "-pi/2"),
    ("0", "0.5", "0.1", "-pi/2"),
    ("1.2", "0.8", "0.05", "-2.5"),
]


def protocol_flags(protocol):
    lam_pre, lam_post, beta, phi = protocol
    return [
        f"--lambda-pre={lam_pre}",
        f"--lambda-post={lam_post}",
        f"--beta={beta}",
        f"--phi={phi}",
    ]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_rate_csv_equals_the_old_rows(tmp_path, protocol, assert_same_csv):
    argv = ["rate", *protocol_flags(protocol), "--t-max=6", "--steps=41"]
    code, text, cfg = run(tmp_path, argv)
    assert code == 0
    _, header, rows = old_rate_rows(_protocol(cfg), cfg)
    assert_same_csv(text, csv_text(header, rows))


def test_rate_csv_with_singular_rows_equals_the_old_rows(tmp_path, monkeypatch, assert_same_csv):
    # within 0.01 of the first critical time (1.1708) the base panels' bounds
    # exceed the default tol, and no split is allowed: every row flagged
    monkeypatch.setattr(observables, "_MAX_SPLITS", 0)
    argv = ["rate", *protocol_flags(PROTOCOLS[0]), "--t-min=1.16", "--t-max=1.18", "--steps=4"]
    code, text, cfg = run(tmp_path, argv)
    assert code == 3
    _, header, rows = old_rate_rows(_protocol(cfg), cfg)
    assert [r[-1] for r in rows] == ["1"] * 4
    assert_same_csv(text, csv_text(header, rows))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_zeros_csv_with_two_branches_equals_the_old_rows(tmp_path, protocol, assert_same_csv):
    argv = ["zeros", *protocol_flags(protocol), "--branch", "0", "--branch", "1"]
    code, text, cfg = run(tmp_path, argv)
    assert code == 0 and cfg.branches == (0, 1)
    assert_same_csv(text, csv_text(*old_zeros_rows(cfg)))


@pytest.mark.parametrize("variant", ["sinh", "tanh"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_critical_modes_csv_equals_the_old_rows(tmp_path, protocol, variant, assert_same_csv):
    argv = ["critical-modes", *protocol_flags(protocol), "--variant", variant]
    code, text, cfg = run(tmp_path, argv)
    assert code == 0
    _, header, rows = old_critical_rows(_protocol(cfg), cfg)
    assert_same_csv(text, csv_text(header, rows))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_winding_csv_equals_the_old_rows(tmp_path, protocol, assert_same_csv):
    code, text, cfg = run(tmp_path, ["winding", *protocol_flags(protocol), "--steps=21"])
    assert code == 0
    assert_same_csv(text, csv_text(*old_winding_rows(cfg)))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_variant_report_csv_equals_the_old_rows(tmp_path, protocol, assert_same_csv):
    code, text, cfg = run(tmp_path, ["variant-report", *protocol_flags(protocol)])
    assert code == 0
    assert_same_csv(text, csv_text(*old_variant_rows(cfg)))


def test_sweep_index_and_cells_equal_the_old_rows(tmp_path, assert_same_csv):
    # beta = inf and 1, phi = +-pi/2; lambda 0.5 -> 0.8 has no critical mode
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(
        "lambda_pre = 0.5\nlambda_post_list = 0.8, 2\nbeta_list = inf, 1\n"
        "phi_list = pi/2, -pi/2\nt_max = 6\nsteps = 61\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    index_rows = []
    for line in (out / "index.csv").read_text(encoding="utf-8").splitlines()[1:]:
        name = line.split(",", 1)[0]
        beta, phi, lambda_post = (float(v) for v in line.split(",")[1:4])
        cell_cfg = cli.RunConfig(
            "sweep", 0.5, lambda_post, beta, phi, t_max=6.0, steps=61
        )
        index_rows.append(old_index_row(cell_cfg, name))
        protocol = _protocol(cell_cfg)
        cs, header, rows = old_critical_rows(protocol, cell_cfg)
        assert_same_csv((out / name / "critical_modes.csv").read_text(), csv_text(header, rows))
        _, header, rows = old_rate_rows(protocol, cell_cfg)
        assert_same_csv((out / name / "rate.csv").read_text(), csv_text(header, rows))
        manifest = dict(RunManifest.from_text((out / name / "cell.manifest").read_text()).entries)
        assert manifest["critical_modes.count"] == str(len(cs.modes))
        for i, r in enumerate(cs.residuals):
            assert manifest[f"critical_modes.residual.{i}"] == old_fmt(r)
    index_header = "cell,beta,phi,lambda_post,n_critical_modes,first_critical_time,cusp_count"
    assert_same_csv((out / "index.csv").read_text(), csv_text(index_header.split(","), index_rows))
    assert len(index_rows) == 8 == len(os.listdir(out)) - 2
    assert sum(row[5] == "nan" for row in index_rows) == 4
    assert {row[1] for row in index_rows} == {"inf", "1"}

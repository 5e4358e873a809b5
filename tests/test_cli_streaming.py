"""The finite tasks stream their rows, and a task out of memory fails cleanly.

rate-finite and echo-decomposition hand _write_csv a row generator, so a
CSV is formatted only as it is written.  The oracles below are the
list-building loops the two handlers were first written as: the streamed
CSVs must equal them byte for byte, and the manifest must count the rows
that were written.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

import dqpt.cli as cli
from dqpt import mode_coefficients, mode_echo, mode_grid, observables
from dqpt.cli import RunManifest, _fmt, _protocol, _times, main

PROTOCOLS = [
    ("0.5", "2.0", "10", "0"),
    ("2.7", "0.3", "inf", "pi/2"),
    ("1.2", "0.8", "0.05", "-2.5"),
]


def old_rate_finite_rows(cfg):
    series = cli.compute_rate_series_finite(_protocol(cfg), cfg.n_sites, _times(cfg))
    rows = []
    for t, r in zip(series.times, series.values):
        bad = not math.isfinite(r)
        rows.append((_fmt(t), _fmt(r), "1" if bad else "0"))
    return ("t", "r", "singular_flag"), rows


def old_echo_rows(cfg):
    momenta = mode_grid(cfg.n_sites).momenta
    coeffs = mode_coefficients(_protocol(cfg), momenta)
    times = _times(cfg)
    echo = mode_echo(coeffs.imbalance, coeffs.eps_post, times[:, None])
    null = mode_echo(np.cos(2.0 * coeffs.delta_theta), coeffs.eps_post, times[:, None])
    k_text = [_fmt(k) for k in momenta.tolist()]
    rows = []
    for t, echo_t, null_t in zip(times.tolist(), echo, null):
        t_text = _fmt(t)
        columns = zip(k_text, echo_t.tolist(), null_t.tolist(), (echo_t - null_t).tolist())
        rows.extend((t_text, k, _fmt(e), _fmt(n), _fmt(i)) for k, e, n, i in columns)
    return ("t", "k", "echo", "null_work", "interference"), rows


ORACLES = {"rate-finite": old_rate_finite_rows, "echo-decomposition": old_echo_rows}


def read_manifest(path):
    with open(str(path) + ".manifest", encoding="utf-8") as fh:
        return dict(RunManifest.from_text(fh.read()).entries)


def csv_text(header, rows):
    return "".join(",".join(r) + "\n" for r in [header, *rows])


def run(tmp_path, task, protocol, n_sites, steps):
    lam_pre, lam_post, beta, phi = protocol
    out = tmp_path / f"{task}.csv"
    argv = [
        task,
        f"--lambda-pre={lam_pre}",
        f"--lambda-post={lam_post}",
        f"--beta={beta}",
        f"--phi={phi}",
        f"--n-sites={n_sites}",
        f"--steps={steps}",
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    manifest = read_manifest(out)
    cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
    return out.read_text(encoding="utf-8"), manifest, cfg


@pytest.mark.parametrize("task", sorted(ORACLES))
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "n_sites, steps", [(2, 2), (8, 57), (64, 401), (200, 1301), (100_000, 3)]
)
def test_streamed_csv_equals_the_list_oracle(
    tmp_path, task, protocol, n_sites, steps, assert_same_csv
):
    text, manifest, cfg = run(tmp_path, task, protocol, n_sites, steps)
    assert_same_csv(text, csv_text(*ORACLES[task](cfg)))
    data_lines = text.count("\n") - 1
    assert manifest["rows"] == str(data_lines)
    if task == "echo-decomposition":
        assert manifest["echo.rows"] == str(data_lines) == str(steps * n_sites // 2)
    else:
        assert manifest["rate_finite.singular_rows"] == "0"


def test_write_csv_counts_the_rows_it_writes():
    fh = io.StringIO()
    assert cli._write_csv(fh, "a", "%s\n", iter([("1",), ("2",), ("3",)])) == 3
    assert fh.getvalue() == "a\n1\n2\n3\n"
    fh = io.StringIO()
    assert cli._write_csv(fh, "a", "%s\n", []) == 0
    assert fh.getvalue() == "a\n"


def test_echo_decomposition_memory_does_not_grow_with_its_output(tmp_path, monkeypatch):
    # defaults: 1000 sites x 401 steps, 200,500 rows (a 19.7 MB CSV); the
    # list-building handler peaked about 63 MB above its start here.  It
    # computes one block of times at a time on the calling thread, so the
    # bound holds on any host
    bound_mb = 8.0
    for cpus in (1, 2, 64):
        monkeypatch.setattr(observables, "_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(["echo-decomposition", "--out", str(tmp_path / "echo.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / 1e6 < bound_mb
        manifest = read_manifest(tmp_path / "echo.csv")
        assert manifest["rows"] == "200500"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def assert_clean_exit_2(tmp_path, capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dqpt: out of memory")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_before_writing_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "compute_rate_series_finite", _out_of_memory)
    argv = ["rate-finite", "--out", str(tmp_path / "r.csv")]
    assert_clean_exit_2(tmp_path, capsys, argv)


def test_out_of_memory_mid_write_leaves_no_csv_and_no_temporary(tmp_path, capsys, monkeypatch):
    calls = []

    def echo_then_out_of_memory(*args):
        # two calls per time block (echo, null work): fail in the third block
        calls.append(1)
        if len(calls) > 4:
            assert (tmp_path / "e.csv.tmp").stat().st_size > 0
            raise MemoryError
        return mode_echo(*args)

    monkeypatch.setattr(cli, "mode_echo", echo_then_out_of_memory)
    argv = ["echo-decomposition", "--out", str(tmp_path / "e.csv")]
    for cpus in (1, 2, 64):  # its blocks stay on the calling thread
        monkeypatch.setattr(observables, "_cpus", lambda: cpus)
        calls.clear()
        assert_clean_exit_2(tmp_path, capsys, argv)
        assert len(calls) == 5  # rows of two blocks went to the temporary first


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
def test_column_rows_are_the_whole_columns_rows(n):
    assert cli._ROW_CHUNK == 4096
    x = np.random.default_rng(n).standard_normal(n)
    columns = (x, x > 0.0, np.exp(x))
    rows = cli._column_rows(*columns)
    assert iter(rows) is rows  # converted as they are read
    got = list(rows)
    assert got == list(zip(*(c.tolist() for c in columns)))
    assert all(type(r[0]) is float and type(r[1]) is bool for r in got)

import concurrent.futures
import math
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from dqpt import QuenchProtocol, critical_times, dispersion, phase_profile
from dqpt.cli import ConfigError, RunManifest, _sweep_cell, main, parse_number, read_config_file
from dqpt.observables import _base_panels

K_STAR = math.acos(0.8)
T_STAR = math.pi / (2.0 * dispersion(K_STAR, 2.0))


def read_rows(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("PI", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("-pi/2", -math.pi / 2),
            ("3*pi/4", 3 * math.pi / 4),
            ("2pi", 2 * math.pi),
            ("0.5pi", 0.5 * math.pi),
            ("0.25", 0.25),
            ("-1.5e-3", -1.5e-3),
            (" 2 ", 2.0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_number(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["inf", "Infinite", "INFINITY", "+inf"])
    def test_infinity_tokens(self, text):
        assert math.isinf(parse_number(text))

    @pytest.mark.parametrize("text", ["abc", "pie", "2*pi*3", "", "pi/", "1/2", "pi/0", "-3pi/0.0"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ConfigError):
            parse_number(text)


class TestConfigFile:
    def test_parses_comments_and_lists(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# full-line comment\n"
            "lambda_pre = 0.5\n"
            "beta_list = 10, 0.1  # inline comment\n"
            "phi = -pi/2\n"
            "\n"
            "steps = 51\n",
            encoding="utf-8",
        )
        entries = read_config_file(str(cfg))
        assert entries["lambda_pre"] == 0.5
        assert entries["beta_list"] == (10.0, 0.1)
        assert entries["phi"] == pytest.approx(-math.pi / 2)
        assert entries["steps"] == 51

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_prev = 0.5\n", encoding="utf-8")
        assert main(["rate", "--config", str(cfg)]) == 2

    def test_malformed_line_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        assert main(["rate", "--config", str(cfg)]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["rate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_flags_override_file_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1\nsteps = 5\nt_max = 1\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        rc = main(["rate", "--config", str(cfg), "--beta", "2", "--out", str(out)])
        assert rc == 0
        manifest = RunManifest.from_text((tmp_path / "r.csv.manifest").read_text())
        entries = dict(manifest.entries)
        assert entries["config.beta"] == "2"
        assert entries["config.steps"] == "5"


class TestValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--steps", "1"],
            ["--t-min", "2", "--t-max", "1"],
            ["--tol", "0"],
            ["--k-resolution", "32"],
            ["--n-sites", "7"],
            ["--n-sites", "0"],
            ["--lambda-pre", "-0.5"],
            ["--beta", "0"],
            ["--jobs", "0"],
            ["--n-max", "-1"],
            ["--tol", "nan"],
            ["--t-max", "inf"],
            ["--t-min", "-inf"],
        ],
    )
    def test_bad_values_exit_2_without_output(self, tmp_path, flags):
        out = tmp_path / "x.csv"
        assert main(["rate", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_task_exits_2(self):
        assert main(["densify"]) == 2

    def test_unparseable_flag_value_exits_2(self):
        assert main(["rate", "--beta", "warm"]) == 2


class TestManifest:
    def test_round_trip_is_lossless(self):
        m = RunManifest()
        m.add("version", "0.1.0")
        m.add("config.beta", 0.1)
        m.add("config.out", "some path with spaces")
        m.add("rows", 42)
        again = RunManifest.from_text(m.to_text())
        assert again.entries == m.entries

    def test_floats_round_trip_exactly(self):
        m = RunManifest()
        m.add("x", 0.1)
        m.add("y", T_STAR)
        parsed = dict(RunManifest.from_text(m.to_text()).entries)
        assert float(parsed["x"]) == 0.1
        assert float(parsed["y"]) == T_STAR


class TestRateTask:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "rate.csv"
        rc = main(
            ["rate", "--t-min", "0", "--t-max", "2", "--steps", "21", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["t", "r", "err_bound", "singular_flag"]
        assert len(rows) == 21
        assert all(row[3] == "0" for row in rows)
        assert float(rows[0][1]) == 0.0
        manifest = dict(RunManifest.from_text((tmp_path / "rate.csv.manifest").read_text()).entries)
        assert manifest["rows"] == "21"
        assert manifest["degraded"] == "0"
        assert "duration_seconds" in manifest

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["rate", "--steps", "11", "--t-max", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["rate", "--steps", "5", "--t-max", "1"]) == 0
        assert (tmp_path / "rate.csv").exists()
        assert (tmp_path / "rate.csv.manifest").exists()


class TestRateFiniteTask:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "rf.csv"
        rc = main(
            ["rate-finite", "--n-sites", "64", "--steps", "9", "--t-max", "2", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["t", "r", "singular_flag"]
        assert len(rows) == 9


class TestZerosTask:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "z.csv"
        rc = main(
            [
                "zeros",
                "--branch", "0",
                "--branch", "2",
                "--k-resolution", "64",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["n", "k", "re_z", "im_z", "residual"]
        assert {row[0] for row in rows} == {"0", "2"}
        assert len(rows) == 128
        assert max(float(row[4]) for row in rows) <= 1e-9


class TestCriticalModesTask:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "cm.csv"
        rc = main(["critical-modes", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["variant", "k_star", "residual", "t_star_0", "jump_sign"]
        assert len(rows) == 1
        assert rows[0][0] == "sinh"
        assert float(rows[0][1]) == pytest.approx(K_STAR, abs=1e-6)
        assert float(rows[0][3]) == pytest.approx(T_STAR, abs=1e-6)
        assert rows[0][4] == "-1"

    def test_variant_flag_selects_condition(self, tmp_path):
        out = tmp_path / "cm.csv"
        rc = main(
            ["critical-modes", "--variant", "tanh", "--beta", "1", "--phi", "-pi/2",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_rows(out)
        assert rows[0][0] == "tanh"


class TestWindingTask:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(
            ["winding", "--t-min", "1", "--t-max", "1.3", "--steps", "3", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["t", "nu", "unwrap_refinements"]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-3)
        assert float(rows[2][1]) == pytest.approx(-1.0, abs=1e-3)

    def test_manifest_names_the_largest_jump_and_its_time(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["winding", "--t-min", "1", "--t-max", "1.3", "--steps", "7",
                     "--out", str(out)]) == 0
        manifest = read_manifest(tmp_path / "w.csv.manifest")
        _, rows = read_rows(out)
        jumps = [phase_profile(QuenchProtocol(0.5, 2.0, 10.0), float(row[0])).max_jump
                 for row in rows]
        worst = int(np.argmax(jumps))
        assert float(manifest["winding.max_jump"]) == jumps[worst] < math.pi / 2
        assert manifest["winding.max_jump_t"] == rows[worst][0]

    def test_a_run_with_no_row_reports_no_jump(self, tmp_path):
        out = tmp_path / "w.csv"
        argv = ["winding", "--coupling", "1e6", "--t-min", "0.1", "--t-max", "0.2",
                "--steps", "2", "--out", str(out)]
        assert main(argv) == 3  # both samples fail to unwrap
        assert read_manifest(tmp_path / "w.csv.manifest")["winding.failed_samples"] == "2"
        manifest = read_manifest(tmp_path / "w.csv.manifest")
        assert manifest["winding.max_jump"] == manifest["winding.max_jump_t"] == "nan"

    def test_unresolvable_sample_skipped_and_flagged(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(
            [
                "winding",
                "--t-min", "%.17g" % T_STAR,
                "--t-max", "%.17g" % (T_STAR + 0.1),
                "--steps", "2",
                "--out", str(out),
            ]
        )
        assert rc == 3
        _, rows = read_rows(out)
        assert len(rows) == 1  # the exactly-critical sample is dropped
        manifest = dict(RunManifest.from_text((tmp_path / "w.csv.manifest").read_text()).entries)
        assert manifest["winding.failed_samples"] == "1"
        assert "warning.0" in manifest


class TestEchoDecompositionTask:
    def test_rows_and_identity(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(
            ["echo-decomposition", "--n-sites", "6", "--steps", "4", "--t-max", "2",
             "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["t", "k", "echo", "null_work", "interference"]
        assert len(rows) == 4 * 3
        for row in rows:
            echo, null, interference = map(float, row[2:])
            assert echo == pytest.approx(null + interference, abs=1e-12)
            assert 0.0 <= echo <= 1.0 + 1e-12


class TestVariantReportTask:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["variant-report", "--beta", "1", "--phi", "-pi/2", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["variant", "k_star", "residual", "residual_other_variant",
                          "fisher_confirmed"]
        flags = {row[0]: row[4] for row in rows}
        assert flags == {"sinh": "1", "tanh": "0"}


class TestSweepTask:
    CFG = (
        "lambda_pre = 0\n"
        "lambda_post_list = 0.5\n"
        "beta_list = 10, 0.1\n"
        "phi_list = -pi/2\n"
        "steps = 41\n"
        "t_max = 8\n"
    )

    def test_cells_and_index(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(self.CFG, encoding="utf-8")
        out = tmp_path / "sweep_out"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        cold = out / "beta=10.000000_phi=-1.570796_lambda_post=0.500000"
        hot = out / "beta=0.100000_phi=-1.570796_lambda_post=0.500000"
        for cell in (cold, hot):
            assert (cell / "critical_modes.csv").exists()
            assert (cell / "rate.csv").exists()
            assert (cell / "cell.manifest").exists()
        header, rows = read_rows(out / "index.csv")
        assert header == ["cell", "beta", "phi", "lambda_post", "n_critical_modes",
                          "first_critical_time", "cusp_count"]
        by_cell = {row[0]: row for row in rows}
        assert by_cell[cold.name][4] == "0"
        assert by_cell[cold.name][5] == "nan"
        assert by_cell[hot.name][4] == "2"
        assert float(by_cell[hot.name][5]) > 0.0

    def test_parallel_run_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(self.CFG, encoding="utf-8")
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(cfg), "--jobs", "2", "--out", str(parallel)]) == 0
        assert (serial / "index.csv").read_bytes() == (parallel / "index.csv").read_bytes()
        for cell in os.listdir(serial):
            if not cell.startswith("beta="):
                continue
            for name in ("critical_modes.csv", "rate.csv"):
                assert (serial / cell / name).read_bytes() == (
                    parallel / cell / name
                ).read_bytes()

    def test_cap_exceeded_exits_before_any_computation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dqpt.cli._MAX_CELLS", 1)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(self.CFG, encoding="utf-8")
        out = tmp_path / "capped"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "dqpt: sweep has 2 cells, above the cap of 1\n"
        assert not out.exists()

    def test_scalar_fallback_single_cell(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("beta = 0.5\nsteps = 21\n", encoding="utf-8")
        out = tmp_path / "one"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "index.csv")
        assert len(rows) == 1


@pytest.mark.parametrize("steps", ["2", "3", "4"])
def test_sweep_with_too_few_steps_for_cusp_detection_exits_2(tmp_path, steps):
    out = tmp_path / "short"
    rc = main(["sweep", "--beta", "0.1", "--steps", steps, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_sweep_with_five_steps_runs(tmp_path):
    out = tmp_path / "five"
    assert main(["sweep", "--beta", "0.1", "--steps", "5", "--out", str(out)]) == 0
    assert (out / "index.csv").exists()


class _FakePool:
    """ProcessPoolExecutor stand-in that records max_workers and runs each
    submitted call inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # as a pool does: the error waits in the future
            future.set_exception(exc)
        return future


@pytest.mark.parametrize("cells,expected", [("10, 0.1", [2]), ("0.1", [])])
def test_sweep_pool_never_exceeds_the_cell_count(tmp_path, monkeypatch, cells, expected):
    monkeypatch.setattr(_FakePool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"beta_list = {cells}\nsteps = 11\n", encoding="utf-8")
    out = tmp_path / "pooled"
    assert main(["sweep", "--config", str(cfg), "--jobs", "64", "--out", str(out)]) == 0
    assert _FakePool.created == expected
    _, rows = read_rows(out / "index.csv")
    assert len(rows) == len(cells.split(","))


def test_a_serial_sweep_builds_no_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(_FakePool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta_list = 10, 0.1\nsteps = 11\n", encoding="utf-8")
    out = tmp_path / "serial"
    assert main(["sweep", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
    assert _FakePool.created == []
    _, rows = read_rows(out / "index.csv")
    assert len(rows) == 2


class _NoPool:
    """ProcessPoolExecutor stand-in that fails the test if it is built."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was built")


def test_jobs_above_the_cap_exit_2_before_any_pool(tmp_path, capsys, monkeypatch):
    import dqpt.cli

    monkeypatch.setattr(dqpt.cli, "_MAX_JOBS", 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta_list = 10, 1, 0.1\nsteps = 11\n", encoding="utf-8")
    out = tmp_path / "capped"
    assert main(["sweep", "--config", str(cfg), "--jobs", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "dqpt: jobs must be <= 2, got 3\n"
    assert not out.exists()


def test_jobs_at_the_cap_are_accepted(tmp_path, monkeypatch):
    import dqpt.cli

    monkeypatch.setattr(dqpt.cli, "_MAX_JOBS", 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    out = tmp_path / "one_cell"  # one cell: the sweep runs it without a pool
    assert main(["sweep", "--beta", "0.1", "--steps", "11", "--jobs", "2", "--out", str(out)]) == 0
    _, rows = read_rows(out / "index.csv")
    assert len(rows) == 1


def test_sweep_with_an_invalid_cell_exits_2_and_writes_nothing(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("beta_list = 1, -1\nsteps = 11\n", encoding="utf-8")
    out = tmp_path / "never"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_zeros_computes_the_mode_coefficients_once_for_all_branches(tmp_path, monkeypatch):
    import dqpt.cli
    import dqpt.criticality

    calls = []
    for module in (dqpt.cli, dqpt.criticality):
        orig = module.mode_coefficients
        monkeypatch.setattr(
            module, "mode_coefficients", lambda p, k, orig=orig: calls.append(1) or orig(p, k)
        )
    out = tmp_path / "z.csv"
    argv = ["zeros", "--beta", "0.1", "--phi", "-pi/2", "--branch", "0", "--branch", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(calls) == 1
    _, rows = read_rows(out)
    assert len(rows) == 2 * 256


def test_rate_and_cell_manifests_report_max_splits_and_the_worst_bound(tmp_path):
    out = tmp_path / "rate.csv"
    argv = ["--lambda-pre", "0.5", "--lambda-post", "2", "--beta", "1", "--phi", "-pi/2",
            "--t-min", "5.4", "--t-max", "5.6", "--steps", "21"]
    assert main(["rate", *argv, "--out", str(out)]) == 0
    manifest = dict(RunManifest.from_text((tmp_path / "rate.csv.manifest").read_text()).entries)
    _, rows = read_rows(out)
    bounds = [float(row[2]) for row in rows]
    worst = int(np.argmax(bounds))
    assert float(manifest["rate.max_err_bound"]) == bounds[worst]
    assert manifest["rate.max_err_bound_t"] == rows[worst][0]
    splits = int(manifest["rate.max_splits"])
    assert 0 < splits <= int(manifest["rate.extra_panels"])

    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "lambda_pre = 0.5\nlambda_post_list = 2\nbeta_list = 1\nphi_list = -pi/2\n"
        "t_min = 5.4\nt_max = 5.6\nsteps = 21\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    (cell,) = [p for p in (tmp_path / "sweep").iterdir() if p.is_dir()]
    cell_manifest = dict(RunManifest.from_text((cell / "cell.manifest").read_text()).entries)
    for key in ("rate.max_splits", "rate.max_err_bound", "rate.max_err_bound_t",
                "rate.nodes_evaluated"):
        assert cell_manifest[key] == manifest[key]
    # every base node at each of the 21 times, two 22-node halves per split
    n_base = _base_panels(QuenchProtocol(0.5, 2.0, 1.0, -math.pi / 2))[0].size
    nodes = 21 * n_base * 22 + 44 * int(manifest["rate.extra_panels"])
    assert int(manifest["rate.nodes_evaluated"]) == nodes


def read_manifest(path):
    return dict(RunManifest.from_text(path.read_text()).entries)


def untimed(manifest):
    """The manifest without the keys that may differ between identical runs."""
    timed = ("duration_seconds", "timing.", "cell_seconds.")
    return {k: v for k, v in manifest.items() if not k.startswith(timed)}


def test_rate_and_cell_manifests_time_their_stages(tmp_path):
    # samples next to a rung, so refinement runs
    window = ["--t-min", "5.4", "--t-max", "5.6", "--steps", "21"]
    protocol = ["--lambda-pre", "0.5", "--lambda-post", "2", "--beta", "1", "--phi", "-pi/2"]
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "lambda_pre = 0.5\nlambda_post_list = 2\nbeta_list = 1\nphi_list = -pi/2\n",
        encoding="utf-8",
    )
    out, sweep = tmp_path / "rate.csv", tmp_path / "sweep"
    runs = []
    for _ in range(2):  # the second run overwrites the first's files
        assert main(["rate", *protocol, *window, "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(cfg), *window, "--out", str(sweep)]) == 0
        (cell,) = [p for p in sweep.iterdir() if p.is_dir()]
        rate = read_manifest(tmp_path / "rate.csv.manifest")
        cell_manifest = read_manifest(cell / "cell.manifest")
        csvs = [p.read_bytes() for p in (out, cell / "rate.csv", cell / "critical_modes.csv")]
        runs.append((untimed(rate), untimed(cell_manifest), csvs))

        quadrature = ["timing.quadrature_setup_s", "timing.bulk_s", "timing.refine_s"]
        timed = [*quadrature, "timing.task_s", "timing.csv_s"]
        assert [k for k in rate if k.startswith("timing.")] == timed
        assert int(rate["rate.extra_panels"]) > 0
        seconds = {k: float(rate[k]) for k in (*timed, "duration_seconds")}
        assert all(math.isfinite(s) and s >= 0.0 for s in seconds.values())
        assert seconds["timing.refine_s"] > 0.0
        assert sum(seconds[k] for k in quadrature) <= seconds["timing.task_s"]
        assert seconds["timing.task_s"] <= seconds["duration_seconds"]

        stages = ["timing.critical_modes_s", "timing.rate_s", "timing.cusps_s"]
        assert [k for k in cell_manifest if k.startswith("timing.")] == quadrature + stages
        seconds = {k: float(cell_manifest[k]) for k in (*quadrature, *stages, "duration_seconds")}
        assert all(math.isfinite(s) and s >= 0.0 for s in seconds.values())
        assert sum(seconds[k] for k in quadrature) <= seconds["timing.rate_s"]
        assert sum(seconds[k] for k in stages) <= seconds["duration_seconds"]
    # between runs only the timings move; every CSV byte stays
    assert runs[0] == runs[1]


def assert_exit_2_writes_nothing(tmp_path, capsys, argv):
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dqpt:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    return err


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["rate", "--steps", "abc"], None, "cannot parse integer 'abc'"),
        (["sweep"], "beta_list = ,\n", "empty list value ','"),
        (["rate"], "variant = foo\n", "variant must be sinh or tanh, got 'foo'"),  # no choices
        (["zeros", "--branch", ","], None, "need at least one branch"),
        # a sweep's axes given to a single task, which would ignore them
        (
            ["rate"],
            "beta_list = 1, 0.1\n",
            "beta_list is a sweep axis: only sweep reads it, not rate",
        ),
        (["zeros"], "phi_list = 0\n", "phi_list is a sweep axis: only sweep reads it, not zeros"),
        (
            ["rate-finite"],
            "lambda_post_list = 2\n",
            "lambda_post_list is a sweep axis: only sweep reads it, not rate-finite",
        ),
    ],
    ids=["integer", "list", "variant", "branch", "beta_list", "phi_list", "lambda_post_list"],
)
def test_a_bad_value_exits_2_with_its_message(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    err = assert_exit_2_writes_nothing(tmp_path, capsys, [*argv, "--out", str(tmp_path / "x")])
    assert err == f"dqpt: {message}\n"


def test_rate_finite_flags_an_exact_amplitude_zero_and_exits_3(tmp_path, capsys, monkeypatch):
    import dqpt.observables

    rate_from_echoes = dqpt.observables._finite_rate_from_mode_echoes
    zeroed = []

    def one_zero(echoes, n_sites):  # the first mode's echo at the last time of the first block
        if not zeroed:
            echoes[-1, 0] = 0.0
            zeroed.append(1)
        return rate_from_echoes(echoes, n_sites)

    monkeypatch.setattr(dqpt.observables, "_finite_rate_from_mode_echoes", one_zero)
    out = tmp_path / "f.csv"
    assert main(["rate-finite", "--n-sites", "4", "--steps", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"dqpt: rate-finite: numerical degradation, see {out}.manifest\n"
    _, rows = read_rows(out)
    assert [row[1:] for row in rows if row[2] == "1"] == [["inf", "1"]]
    manifest = dict(RunManifest.from_text((tmp_path / "f.csv.manifest").read_text()).entries)
    assert manifest["rate_finite.singular_rows"] == "1"
    assert manifest["warning.0"] == "1 finite-size samples hit an exact amplitude zero"
    assert manifest["degraded"] == "1"


SMALL_TASKS = {  # every single task, at sizes that run in milliseconds
    "rate": ["--steps", "11"],
    "rate-finite": ["--n-sites", "20", "--steps", "11"],
    "zeros": ["--k-resolution", "64", "--branch", "0", "--branch", "1"],
    "critical-modes": [],
    "winding": ["--steps", "5"],
    "echo-decomposition": ["--n-sites", "20", "--steps", "11"],
    "variant-report": [],
}


@pytest.mark.parametrize("task", sorted(SMALL_TASKS))
@pytest.mark.parametrize("out", ["missing/x.csv", "adir", ".", "m.csv"])
def test_an_unwritable_out_exits_2_before_the_handler_runs(
    tmp_path, capsys, monkeypatch, out, task
):
    import dqpt.cli

    handler, header, template = dqpt.cli._TASKS[task]
    calls = []

    def spy(*args, **kwargs):  # its work would be lost: the CSV cannot be written
        calls.append(task)
        return handler(*args, **kwargs)

    monkeypatch.setitem(dqpt.cli._TASKS, task, (spy, header, template))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "m.csv.manifest").mkdir()  # the CSV could be written, its manifest not
    err = assert_exit_2_writes_nothing(tmp_path, capsys, [task, *SMALL_TASKS[task], "--out", out])
    assert err.startswith(f"dqpt: {task}: cannot write output: ")
    assert f"'{out}" in err  # the path, its .tmp in a missing directory, or its manifest
    assert calls == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "m.csv.manifest"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", ["index.csv", "sweep.manifest"])
def test_a_sweep_output_that_is_a_directory_exits_2_before_any_cell(
    tmp_path, capsys, monkeypatch, name, jobs
):
    import dqpt.cli

    def no_cell(payload):  # a pool pickles this by name, so it stays a plain raise
        raise AssertionError("a cell ran")

    monkeypatch.setattr(dqpt.cli, "_sweep_cell", no_cell)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta_list = 10, 0.1\nsteps = 11\n", encoding="utf-8")
    (tmp_path / "out" / name).mkdir(parents=True)
    argv = ["sweep", "--config", str(cfg), "--jobs", jobs, "--out", str(tmp_path / "out")]
    err = assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    directory = tmp_path / "out" / name
    assert err == f"dqpt: sweep: cannot write output: [Errno 21] Is a directory: '{directory}'\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["s.cfg", "out", name])


def test_rate_below_a_regular_file_exits_2(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("keep me\n", encoding="utf-8")
    argv = ["rate", "--steps", "3", "--out", str(plain / "x.csv")]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)


def test_sweep_onto_a_regular_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta_list = 10, 0.1\nsteps = 11\n", encoding="utf-8")
    plain = tmp_path / "plain"
    plain.write_text("keep me\n", encoding="utf-8")
    argv = ["sweep", "--config", str(cfg), "--out", str(plain)]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert plain.is_file()


@pytest.mark.parametrize("in_file", [False, True], ids=["flag", "config"])
def test_pi_over_zero_exits_2(tmp_path, capsys, in_file):
    out = tmp_path / "x.csv"
    if in_file:
        cfg = tmp_path / "s.cfg"
        cfg.write_text("phi = pi/0\n", encoding="utf-8")
        argv = ["rate", "--config", str(cfg), "--steps", "3", "--out", str(out)]
    else:
        argv = ["rate", "--phi", "pi/0", "--steps", "3", "--out", str(out)]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert not out.exists()


@pytest.mark.parametrize("betas", ["1e-7, 2e-7", "1, 1"])
def test_sweep_cells_sharing_a_directory_name_exit_2(tmp_path, capsys, betas):
    # cell names keep 6 decimals: 1e-7 and 2e-7 are both beta=0.000000
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"beta_list = {betas}\nsteps = 11\n", encoding="utf-8")
    out = tmp_path / "never"
    argv = ["sweep", "--config", str(cfg), "--out", str(out)]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert not out.exists()


# windows whose linspace floating point cannot make strictly increasing: two
# steps one ulp apart repeat a time, and a span past the largest float
# overflows to NaN times, rejected as not finite (at lambda_post 0 the mode
# energies stay below 1, so the phases of the window's ends do not overflow)
ULP_WINDOW = ["--t-min", "1", "--t-max", "1.0000000000000002", "--steps", "3"]
OVERFLOW_WINDOW = ["--t-min", "-1e308", "--t-max", "1e308", "--steps", "3", "--lambda-post", "0"]


@pytest.mark.parametrize(
    "task,window",
    [
        ("rate", ULP_WINDOW),
        ("rate", OVERFLOW_WINDOW),
        ("rate-finite", ULP_WINDOW),
        ("rate-finite", OVERFLOW_WINDOW),
        ("winding", ULP_WINDOW),
        ("winding", OVERFLOW_WINDOW),
        ("echo-decomposition", OVERFLOW_WINDOW),
    ],
    ids=["rate-ulp", "rate-overflow", "finite-ulp", "finite-overflow", "winding-ulp",
         "winding-overflow", "echo-overflow"],
)
def test_a_time_grid_that_is_not_increasing_exits_2(tmp_path, capsys, task, window):
    out = tmp_path / "x.csv"
    argv = [task, *window, "--n-sites", "4", "--out", str(out)]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert not out.exists()


def test_a_time_grid_that_is_not_increasing_names_its_window(tmp_path, capsys):
    assert main(["rate", *ULP_WINDOW, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err == (
        "dqpt: time window [1.0, 1.0000000000000002] in 3 steps: "
        "times must be strictly increasing\n"
    )


@pytest.mark.parametrize("task", ["rate", "rate-finite", "winding", "echo-decomposition", "sweep"])
def test_a_window_whose_phases_overflow_exits_2_naming_it(tmp_path, capsys, task):
    # every mode energy is at most coupling * (lambda_post + 1) = 3: 6.5e307 * 3 overflows
    argv = [task, "--t-max", "6.5e307", "--steps", "5", "--n-sites", "2"]
    err = assert_exit_2_writes_nothing(tmp_path, capsys, [*argv, "--out", str(tmp_path / "x")])
    assert err == (
        "dqpt: time window [0.0, 6.5e+307] in 5 steps:"
        " the phases eps*t overflow at lambda_post 2.0\n"
    )


def test_a_window_whose_phases_stay_finite_runs_without_numpy_warnings(tmp_path, capsys):
    # 5e307 * 3 is finite: the bound rejects no window it need not
    argv = ["rate-finite", "--t-max", "5e307", "--steps", "5", "--n-sites", "2"]
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_a_sweep_bounds_the_phases_at_its_largest_lambda_post(tmp_path, capsys):
    # 1e308 * (0.5 + 1) is finite, 1e308 * (2 + 1) is not
    cfg = tmp_path / "s.cfg"
    cfg.write_text("lambda_post_list = 0.5, 2\n", encoding="utf-8")
    argv = ["sweep", "--config", str(cfg), "--lambda-post", "0.5", "--t-max", "1e308",
            "--steps", "5", "--out", str(tmp_path / "never")]
    err = assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert err.endswith("the phases eps*t overflow at lambda_post 2.0\n")


def test_a_sweep_over_a_non_uniform_time_grid_exits_2(tmp_path, capsys):
    # at t ~ 1e12 one ulp is 1.2e-4, a quarter of the 5e-4 step: the grid
    # increases but is not uniform enough for cusp detection
    out = tmp_path / "never"
    argv = ["sweep", "--t-min", "1e12", "--t-max", "1000000000001", "--steps", "2001",
            "--beta", "0.1", "--out", str(out)]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert not out.exists()


@pytest.mark.parametrize("task", ["winding", "zeros", "critical-modes", "variant-report"])
def test_a_coupling_that_overflows_the_mode_energies_exits_2(tmp_path, capsys, task):
    out = tmp_path / "x.csv"
    argv = [task, "--coupling", "1e308", "--steps", "2", "--out", str(out)]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert not out.exists()


def test_a_field_that_overflows_twice_the_mode_energies_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["critical-modes", "--lambda-post", "1e308", "--out", str(out)]
    err = assert_exit_2_writes_nothing(tmp_path, capsys, argv)
    assert err == "dqpt: coupling 1.0 with field 1e+308 overflows the mode energies\n"
    # at 8e307, twice the energy bound is finite: the first critical time is not 0
    assert main(["critical-modes", "--lambda-post", "8e307", "--out", str(out)]) == 0
    t_star_0 = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
    assert t_star_0 and all(0.0 < t < math.inf for t in t_star_0)


@pytest.mark.parametrize("task", ["rate", "zeros", "critical-modes", "variant-report", "sweep"])
def test_steps_above_the_cap_exit_2_before_any_time_grid(tmp_path, capsys, monkeypatch, task):
    def no_grid(cfg):
        raise AssertionError("the time grid was built")

    monkeypatch.setattr("dqpt.cli._times", no_grid)
    argv = [task, "--steps", "10000001", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "dqpt: steps must be <= 10000000, got 10000001\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("task", ["zeros", "critical-modes", "variant-report"])
def test_tasks_that_read_no_time_grid_build_none(tmp_path, monkeypatch, task):
    expected = tmp_path / "expected.csv"
    assert main([task, "--steps", "401", "--out", str(expected)]) == 0

    def no_grid(cfg):
        raise AssertionError("the time grid was built")

    monkeypatch.setattr("dqpt.cli._times", no_grid)
    out = tmp_path / "x.csv"
    assert main([task, "--steps", "10000000", "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_the_steps_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dqpt.cli._MAX_STEPS", 5)
    assert main(["rate", "--steps", "5", "--out", str(tmp_path / "a.csv")]) == 0
    argv = ["rate", "--steps", "6", "--out", str(tmp_path / "b.csv")]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)


@pytest.mark.parametrize("task", ["critical-modes", "sweep"])
def test_n_max_above_the_cap_exits_2_before_any_ladder(tmp_path, capsys, monkeypatch, task):
    def no_ladder(*args):
        raise AssertionError("a critical-time ladder was built")

    monkeypatch.setattr("dqpt.criticality.critical_times", no_ladder)
    argv = [task, "--n-max", "10000001", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "dqpt: n_max must be <= 10000000, got 10000001\n"
    assert list(tmp_path.iterdir()) == []


def test_the_n_max_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dqpt.cli._MAX_STEPS", 5)
    common = ["critical-modes", "--steps", "5"]
    assert main([*common, "--n-max", "5", "--out", str(tmp_path / "a.csv")]) == 0
    argv = [*common, "--n-max", "6", "--out", str(tmp_path / "b.csv")]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)


@pytest.mark.parametrize(
    "branch", ["10000001", "-10000001", "1" + "0" * 400], ids=["above", "below", "1e400"]
)
def test_a_branch_beyond_the_ladder_cap_exits_2_before_any_zero_line(
    tmp_path, capsys, monkeypatch, branch
):
    def no_line(*args):
        raise AssertionError("a Fisher zero line was built")

    monkeypatch.setattr("dqpt.cli.fisher_zero_line", no_line)
    argv = ["zeros", "--branch", "0", "--branch", branch, "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"dqpt: branch must be between -10000000 and 10000000, got {branch}\n"
    assert list(tmp_path.iterdir()) == []


def test_the_branch_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dqpt.cli._MAX_STEPS", 5)
    common = ["zeros", "--k-resolution", "64", "--steps", "5"]
    assert main([*common, "--branch", "5", "--branch", "-5", "--out", str(tmp_path / "a.csv")]) == 0
    for branch in ("6", "-6"):
        argv = [*common, "--branch", branch, "--out", str(tmp_path / "b.csv")]
        assert_exit_2_writes_nothing(tmp_path, capsys, argv)


@pytest.mark.parametrize("task", ["rate", "rate-finite", "echo-decomposition", "sweep"])
def test_n_sites_above_the_cap_is_a_config_error(task):
    from dqpt.cli import _MAX_SITES, RunConfig, _validate

    _validate(RunConfig(task=task, n_sites=_MAX_SITES, steps=5))
    with pytest.raises(ConfigError, match=f"n_sites must be <= {_MAX_SITES}, got {_MAX_SITES + 2}"):
        _validate(RunConfig(task=task, n_sites=_MAX_SITES + 2, steps=5))


def test_echo_rows_above_the_cap_are_a_config_error():
    from dqpt.cli import _MAX_ECHO_ROWS, RunConfig, _validate

    steps = _MAX_ECHO_ROWS // 1000  # 1000 modes at 2000 sites
    _validate(RunConfig(task="echo-decomposition", n_sites=2000, steps=steps))
    _validate(RunConfig(task="rate-finite", n_sites=2000, steps=steps + 1))  # writes steps rows
    with pytest.raises(ConfigError, match="above the cap"):
        _validate(RunConfig(task="echo-decomposition", n_sites=2000, steps=steps + 1))


@pytest.mark.parametrize("task", ["zeros", "winding"])
def test_k_resolution_above_the_cap_exits_2_before_any_grid(tmp_path, capsys, monkeypatch, task):
    def no_grid(k_resolution):
        raise AssertionError("a momentum grid was built")

    monkeypatch.setattr("dqpt.cli._base_grid", no_grid)
    monkeypatch.setattr("dqpt.observables._base_grid", no_grid)
    argv = [task, "--k-resolution", "10000001", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "dqpt: k_resolution must be <= 10000000, got 10000001\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("task", ["zeros", "winding"])
def test_the_k_resolution_cap_is_inclusive(tmp_path, capsys, monkeypatch, task):
    monkeypatch.setattr("dqpt.cli._MAX_K_RESOLUTION", 100)
    common = [task, "--steps", "3"]
    assert main([*common, "--k-resolution", "100", "--out", str(tmp_path / "a.csv")]) == 0
    argv = [*common, "--k-resolution", "101", "--out", str(tmp_path / "b.csv")]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)


@pytest.mark.parametrize("task", ["rate", "sweep"])
@pytest.mark.parametrize("tol", ["1e-16", "1e-300"])
def test_tol_below_the_float64_floor_exits_2_before_any_rate(
    tmp_path, capsys, monkeypatch, task, tol
):
    def no_rate(*args, **kwargs):
        raise AssertionError("a rate series was computed")

    monkeypatch.setattr("dqpt.cli.compute_rate_series", no_rate)
    assert main([task, "--tol", tol, "--out", str(tmp_path / "x")]) == 2
    expected = f"dqpt: tol must be >= 1e-15 for {task}, got {float(tol)}\n"
    assert capsys.readouterr().err == expected
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "task",
    ["rate-finite", "zeros", "critical-modes", "winding", "echo-decomposition", "variant-report"],
)
def test_tasks_that_read_no_tol_take_one_below_the_floor(tmp_path, task):
    argv = [task, "--steps", "5", "--n-sites", "20", "--tol", "1e-300"]
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0


def test_the_tol_floor_is_inclusive(tmp_path, capsys, monkeypatch):
    from dqpt.cli import _MIN_TOL, RunConfig, _validate

    _validate(RunConfig(task="rate", tol=_MIN_TOL))
    monkeypatch.setattr("dqpt.cli._MIN_TOL", 1e-6)
    common = ["rate", "--steps", "5"]
    assert main([*common, "--tol", "1e-6", "--out", str(tmp_path / "a.csv")]) == 0
    argv = [*common, "--tol", "9.99e-7", "--out", str(tmp_path / "b.csv")]
    assert_exit_2_writes_nothing(tmp_path, capsys, argv)


def test_the_work_caps_are_inclusive_and_exit_2_writing_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dqpt.cli._MAX_SITES", 20)
    monkeypatch.setattr("dqpt.cli._MAX_ECHO_ROWS", 50)
    assert main(["rate-finite", "--n-sites", "20", "--out", str(tmp_path / "a.csv")]) == 0
    assert_exit_2_writes_nothing(
        tmp_path, capsys, ["rate-finite", "--n-sites", "22", "--out", str(tmp_path / "b.csv")]
    )
    echo = ["echo-decomposition", "--n-sites", "10"]
    assert main([*echo, "--steps", "10", "--out", str(tmp_path / "c.csv")]) == 0
    assert_exit_2_writes_nothing(
        tmp_path, capsys, [*echo, "--steps", "11", "--out", str(tmp_path / "d.csv")]
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_sweep_cell_is_recorded_and_the_others_finish(
    tmp_path, capsys, monkeypatch, jobs
):
    import dqpt.cli

    cfg = tmp_path / "s.cfg"
    cfg.write_text(TestSweepTask.CFG, encoding="utf-8")
    clean = tmp_path / "clean"
    assert main(["sweep", "--config", str(cfg), "--out", str(clean)]) == 0
    capsys.readouterr()

    handler, header, template = dqpt.cli._TASKS["rate"]

    def rate_or_fail(cell_cfg, warnings, **kwargs):  # the pool's forked workers inherit it
        if cell_cfg.beta == 0.1:
            raise RuntimeError("no rate here\n(two lines)")
        return handler(cell_cfg, warnings, **kwargs)

    monkeypatch.setitem(dqpt.cli._TASKS, "rate", (rate_or_fail, header, template))
    out = tmp_path / "faulty"
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs, "--out", str(out)]) == 3
    hot = "beta=0.100000_phi=-1.570796_lambda_post=0.500000"
    cold = "beta=10.000000_phi=-1.570796_lambda_post=0.500000"
    error = "RuntimeError: no rate here (two lines)"
    assert capsys.readouterr().err == f"dqpt: sweep: failed cell {hot}: {error}\n"

    manifest = dict(RunManifest.from_text((out / "sweep.manifest").read_text()).entries)
    counts = (manifest["cells"], manifest["degraded_cells"], manifest["failed_cells"])
    assert counts == ("2", "0", "1")
    # the key is the cell's position in the sweep (cold first), the value names it
    assert manifest["cell_error.1"] == f"{hot}: {error}"
    assert "cell_error.0" not in manifest
    # the finished cell's index row under the same header, and its outputs unchanged
    clean_lines = (clean / "index.csv").read_text().splitlines()
    assert (out / "index.csv").read_text().splitlines() == [
        line for line in clean_lines if not line.startswith(hot)
    ]
    for name in ("critical_modes.csv", "rate.csv"):
        assert (out / cold / name).read_bytes() == (clean / cold / name).read_bytes()
    assert not (out / hot / "rate.csv").exists()
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_sweep_cell_out_of_memory_stops_the_sweep_with_exit_2(
    tmp_path, capsys, monkeypatch, jobs
):
    import dqpt.cli

    cfg = tmp_path / "s.cfg"
    cfg.write_text(TestSweepTask.CFG, encoding="utf-8")
    handler, header, template = dqpt.cli._TASKS["rate"]

    def rate_or_out_of_memory(cell_cfg, warnings, **kwargs):  # the pool's forked workers inherit it
        if cell_cfg.beta == 0.1:
            raise MemoryError
        return handler(cell_cfg, warnings, **kwargs)

    monkeypatch.setitem(dqpt.cli._TASKS, "rate", (rate_or_out_of_memory, header, template))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "dqpt: out of memory in sweep; reduce --steps or --n-sites\n"
    assert not (out / "index.csv").exists()
    assert not (out / "sweep.manifest").exists()
    assert not list(out.rglob("*.tmp"))


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the patched rate handler",
)
def test_a_pooled_sweep_out_of_memory_starts_no_further_cell(tmp_path, capsys, monkeypatch):
    import dqpt.cli

    handler, header, template = dqpt.cli._TASKS["rate"]

    def slow_rate_or_out_of_memory(cell_cfg, warnings, **kwargs):
        if cell_cfg.beta == 10.0:  # the first cell
            raise MemoryError
        time.sleep(0.5)
        return handler(cell_cfg, warnings, **kwargs)

    monkeypatch.setitem(dqpt.cli._TASKS, "rate", (slow_rate_or_out_of_memory, header, template))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "lambda_pre = 0\nlambda_post_list = 0.5\nbeta_list = 10, 9, 8, 7, 6, 5, 4, 3\n"
        "phi_list = -pi/2\nsteps = 41\nt_max = 8\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--jobs", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "dqpt: out of memory in sweep; reduce --steps or --n-sites\n"
    started = [p for p in out.iterdir() if p.is_dir()]  # a cell makes its directory first
    assert len(started) < 4
    assert not (out / "index.csv").exists()
    assert not list(out.rglob("*.tmp"))


_DEAD_WORKER_CFG = (
    "lambda_pre = 0\n"
    "lambda_post_list = 0.5, 2\n"
    "beta_list = 10, 0.1\n"
    "phi_list = -pi/2\n"
    "steps = 41\n"
    "t_max = 8\n"
)
_KILLED = "beta=0.100000_phi=-1.570796_lambda_post=2.000000"  # the last of the 4 cells


def _sweep_cell_or_die(payload):  # module level, so the pool can pickle it by name
    cell_dir = payload[1]
    if os.path.basename(cell_dir) == _KILLED:
        # a worker killed mid-write (for memory, or in native code) leaves its temporary
        os.makedirs(cell_dir, exist_ok=True)  # the cell runs again, alone
        open(os.path.join(cell_dir, "rate.csv.tmp"), "w").close()
        os._exit(1)
    return _sweep_cell(payload)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the patched _sweep_cell",
)
def test_a_dead_sweep_worker_fails_only_its_own_cell_and_the_sweep_exits_3(
    tmp_path, capfd, monkeypatch
):
    import dqpt.cli

    cfg = tmp_path / "s.cfg"
    cfg.write_text(_DEAD_WORKER_CFG, encoding="utf-8")
    clean = tmp_path / "clean"
    assert main(["sweep", "--config", str(cfg), "--out", str(clean)]) == 0
    capfd.readouterr()

    monkeypatch.setattr(dqpt.cli, "_sweep_cell", _sweep_cell_or_die)
    out = tmp_path / "dead"
    (out / "other").mkdir(parents=True)
    (out / "other" / "keep.tmp").write_text("not the sweep's\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--jobs", "2", "--out", str(out)]) == 3
    err = capfd.readouterr().err
    assert "Traceback" not in err

    # every healthy cell's row, as in a clean sweep, under the same header
    clean_lines = (clean / "index.csv").read_text().splitlines()
    assert (out / "index.csv").read_text().splitlines() == [
        line for line in clean_lines if not line.startswith(_KILLED)
    ]
    manifest = dict(RunManifest.from_text((out / "sweep.manifest").read_text()).entries)
    assert (manifest["cells"], manifest["failed_cells"]) == ("4", "1")
    assert [k for k in manifest if k.startswith("cell_error.")] == ["cell_error.3"]
    assert manifest["cell_error.3"].startswith(f"{_KILLED}: BrokenProcessPool: ")
    assert err == f"dqpt: sweep: failed cell {manifest['cell_error.3']}\n"
    assert [p.relative_to(out).as_posix() for p in out.rglob("*.tmp")] == ["other/keep.tmp"]
    assert not multiprocessing.active_children()


class _PoolBrokenAfterOneCell(_FakePool):
    """A many-worker stand-in whose worker dies after its first cell: every
    later submit raises BrokenProcessPool, as a broken pool's does."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.breaks = max_workers > 1  # the one-worker pools do not
        self.used = False

    def submit(self, fn, *args):
        if self.breaks and self.used:
            raise BrokenProcessPool("a worker died")
        self.used = True
        return super().submit(fn, *args)


def test_cells_a_broken_pool_never_took_run_alone_in_fresh_pools(tmp_path, monkeypatch):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(_DEAD_WORKER_CFG, encoding="utf-8")
    clean = tmp_path / "clean"
    assert main(["sweep", "--config", str(cfg), "--out", str(clean)]) == 0
    monkeypatch.setattr(_FakePool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolBrokenAfterOneCell)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--jobs", "2", "--out", str(out)]) == 0
    assert _FakePool.created == [2, 1, 1, 1]  # cells 1, 2 and 3 alone
    assert (out / "index.csv").read_bytes() == (clean / "index.csv").read_bytes()


def _sweep_cell_or_leave_a_temporary(payload):
    cell_dir = payload[1]
    if os.path.basename(cell_dir) == _KILLED:  # as a worker killed mid-write
        os.makedirs(cell_dir)
        open(os.path.join(cell_dir, "rate.csv.tmp"), "w").close()
        raise RuntimeError("killed")
    return _sweep_cell(payload)


def test_a_pooled_sweep_removes_temporaries_only_in_its_failed_cells(
    tmp_path, capsys, monkeypatch
):
    import dqpt.cli

    monkeypatch.setattr(_FakePool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(dqpt.cli, "_sweep_cell", _sweep_cell_or_leave_a_temporary)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(_DEAD_WORKER_CFG, encoding="utf-8")
    out = tmp_path / "out"
    finished = "beta=10.000000_phi=-1.570796_lambda_post=0.500000"
    keep = [out / "other" / "keep.tmp", out / finished / "keep.tmp"]
    for path in keep:
        path.parent.mkdir(parents=True)
        path.write_text("not the sweep's\n", encoding="utf-8")

    assert main(["sweep", "--config", str(cfg), "--jobs", "2", "--out", str(out)]) == 3
    assert _FakePool.created == [2]
    manifest = dict(RunManifest.from_text((out / "sweep.manifest").read_text()).entries)
    assert manifest["failed_cells"] == "1"
    assert manifest["cell_error.3"] == f"{_KILLED}: RuntimeError: killed"
    assert capsys.readouterr().err == f"dqpt: sweep: failed cell {_KILLED}: RuntimeError: killed\n"
    assert sorted(out.rglob("*.tmp")) == sorted(keep)


@pytest.mark.parametrize("task", sorted(SMALL_TASKS))
def test_a_task_manifest_times_its_handler_and_its_csv(tmp_path, task):
    out = tmp_path / "out.csv"
    assert main([task, *SMALL_TASKS[task], "--out", str(out)]) == 0
    manifest = read_manifest(tmp_path / "out.csv.manifest")
    keys = ["timing.task_s", "timing.csv_s"]
    assert [k for k in manifest if k in keys] == keys
    seconds = [float(manifest[k]) for k in keys]
    assert all(math.isfinite(s) and s >= 0.0 for s in seconds)
    assert sum(seconds) <= float(manifest["duration_seconds"])


@pytest.mark.parametrize("variant,scans", [("sinh", 0), ("tanh", 1)])
def test_a_sinh_sweep_cell_hands_its_modes_to_the_rate(tmp_path, monkeypatch, variant, scans):
    from dqpt import observables

    calls = []
    orig = observables.imbalance_roots
    monkeypatch.setattr(observables, "imbalance_roots", lambda p: calls.append(p) or orig(p))
    protocol = ["--lambda-pre", "1.5", "--lambda-post", "2", "--beta", "0.1", "--phi", "-pi/2"]
    window = ["--t-max", "6", "--steps", "61", "--variant", variant]
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta_list = 0.1\nphi_list = -pi/2\nlambda_post_list = 2\n", encoding="utf-8")
    sweep = ["sweep", "--config", str(cfg), "--lambda-pre", "1.5", *window]
    assert main([*sweep, "--out", str(tmp_path / "sweep")]) == 0
    assert len(calls) == scans  # the rate's panels: the cell's sinh modes, or a scan of its own
    (cell,) = [p for p in (tmp_path / "sweep").iterdir() if p.is_dir()]
    # the rate task scans the roots itself: the same bytes
    assert main(["rate", *protocol, *window, "--out", str(tmp_path / "rate.csv")]) == 0
    assert (cell / "rate.csv").read_bytes() == (tmp_path / "rate.csv").read_bytes()


def test_the_task_timings_stay_out_of_the_cell_manifest(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta_list = 1\nphi_list = 0\nlambda_post_list = 2\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--steps", "21", "--out", str(tmp_path)]) == 0
    (cell,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    manifest = read_manifest(cell / "cell.manifest")
    assert not {"timing.task_s", "timing.csv_s"} & manifest.keys()


@pytest.mark.parametrize(
    "jobs",
    [
        "1",
        pytest.param(
            "2",
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the workers must inherit the patched split cap",
            ),
        ),
    ],
)
def test_the_sweep_manifest_records_each_cells_seconds_and_degraded_flag(
    tmp_path, monkeypatch, jobs
):
    import dqpt.observables

    # no refinement: the two cells with samples above tol are degraded
    monkeypatch.setattr(dqpt.observables, "_MAX_SPLITS", 0)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(_DEAD_WORKER_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs, "--out", str(out)]) == 3
    manifest = read_manifest(out / "sweep.manifest")
    sweep_seconds = float(manifest["duration_seconds"])
    # the sweep's cell order: beta 10 before 0.1, lambda_post 0.5 before 2
    names = [
        f"beta={b}_phi=-1.570796_lambda_post={lp}"
        for b in ("10.000000", "0.100000")
        for lp in ("0.500000", "2.000000")
    ]
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(names)
    flags = []
    for i, name in enumerate(names):
        cell = read_manifest(out / name / "cell.manifest")
        degraded = any("rate samples" in v for k, v in cell.items() if k.startswith("warning."))
        assert manifest[f"cell_degraded.{i}"] == ("1" if degraded else "0")
        flags.append(degraded)
        # taken in the worker, after the cell's own manifest was written
        seconds = float(manifest[f"cell_seconds.{i}"])
        assert float(cell["duration_seconds"]) <= seconds <= sweep_seconds
    assert flags == [False, True, True, False]
    assert manifest["degraded_cells"] == "2"
    assert not [k for k in manifest if k.startswith("cell_error.")]

"""The option table of dqpt.cli: one declaration per option drives the
config-file keys, the flags, the defaults and the manifest echo."""

import math
import re
from pathlib import Path

import pytest

from dqpt import QuenchProtocol
from dqpt.cli import (
    _OPTIONS,
    RunConfig,
    RunManifest,
    _build_parser,
    _resolve_config,
    _write_csv,
    main,
)
from dqpt.observables import phase_profile, rate_function

# every option with its flag (None: config-file key only) and default
EXPECTED = {
    "lambda_pre": ("--lambda-pre", 0.5),
    "lambda_post": ("--lambda-post", 2.0),
    "beta": ("--beta", 10.0),
    "phi": ("--phi", 0.0),
    "coupling": ("--coupling", 1.0),
    "t_min": ("--t-min", 0.0),
    "t_max": ("--t-max", 4.0),
    "steps": ("--steps", 401),
    "k_resolution": ("--k-resolution", 256),
    "branches": ("--branch", (0,)),
    "variant": ("--variant", "sinh"),
    "tol": ("--tol", 1e-8),
    "n_sites": ("--n-sites", 1000),
    "n_max": ("--n-max", 3),
    "out": ("--out", None),
    "jobs": ("--jobs", 1),
    "sweep_cap": ("--sweep-cap", 10000),
    "beta_list": (None, None),
    "phi_list": (None, None),
    "lambda_post_list": (None, None),
}

# a valid non-default value for every option, written as in a config file
SAMPLES = {
    "lambda_pre": "0.25",
    "lambda_post": "3*pi/4",
    "beta": "inf",
    "phi": "-pi/2",
    "coupling": "1.5",
    "t_min": "0.5",
    "t_max": "2pi",
    "steps": "17",
    "k_resolution": "128",
    "branches": "1, 3",
    "variant": "tanh",
    "tol": "1e-6",
    "n_sites": "64",
    "n_max": "2",
    "out": "some dir/r.csv",
    "jobs": "3",
    "sweep_cap": "5",
    "beta_list": "1, 0.1",
    "phi_list": "pi/2, -pi/2",
    "lambda_post_list": "2",
}

# the config.* keys of every manifest, in the order they are written
CONFIG_KEYS = [
    "config.task",
    "config.lambda_pre",
    "config.lambda_post",
    "config.beta",
    "config.phi",
    "config.coupling",
    "config.t_min",
    "config.t_max",
    "config.steps",
    "config.k_resolution",
    "config.branches",
    "config.variant",
    "config.tol",
    "config.n_sites",
    "config.n_max",
    "config.out",
    "config.jobs",
    "config.sweep_cap",
    "config.beta_list",
    "config.phi_list",
    "config.lambda_post_list",
]

FLAGGED = [name for name, (flag, _) in EXPECTED.items() if flag]


def resolve(argv):
    return _resolve_config(_build_parser().parse_args(argv))


def flag_argv(name, text):
    flag = EXPECTED[name][0]
    if name == "branches":  # repeatable: one flag per value
        return [a for v in text.split(",") for a in (flag, v.strip())]
    return [flag, text]


def test_table_keys_flags_and_defaults_are_unchanged():
    assert list(_OPTIONS) == list(EXPECTED)
    assert {n: o["flag"] for n, o in _OPTIONS.items()} == {n: f for n, (f, _) in EXPECTED.items()}
    defaults = RunConfig(task="rate")
    assert {n: getattr(defaults, n) for n in _OPTIONS} == {n: d for n, (_, d) in EXPECTED.items()}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_file_key_parses_to_a_non_default(tmp_path, name, monkeypatch):
    monkeypatch.delenv("DQPT_JOBS", raising=False)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {SAMPLES[name]}\n", encoding="utf-8")
    value = getattr(resolve(["rate", "--config", str(cfg_file)]), name)
    assert value != EXPECTED[name][1]


@pytest.mark.parametrize("name", FLAGGED)
def test_file_key_and_flag_give_the_same_value(tmp_path, name, monkeypatch):
    monkeypatch.delenv("DQPT_JOBS", raising=False)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {SAMPLES[name]}\n", encoding="utf-8")
    from_file = resolve(["rate", "--config", str(cfg_file)])
    from_flag = resolve(["rate", *flag_argv(name, SAMPLES[name])])
    assert from_flag == from_file
    assert getattr(from_flag, name) != EXPECTED[name][1]


def test_flag_beats_file_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("DQPT_JOBS", "4")
    assert resolve(["rate"]).jobs == 4
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("jobs = 2\n", encoding="utf-8")
    assert resolve(["rate", "--config", str(cfg_file)]).jobs == 2
    assert resolve(["rate", "--config", str(cfg_file), "--jobs", "3"]).jobs == 3


@pytest.mark.parametrize("name", FLAGGED)
def test_help_lists_each_flag_once(name):
    text = _build_parser().format_help()
    flag = EXPECTED[name][0]
    assert len(re.findall(rf"^\s+{re.escape(flag)}\b", text, re.MULTILINE)) == 1


def test_manifest_config_keys_keep_their_order(tmp_path):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(
        "lambda_post_list = 2\nbeta_list = 1\nphi_list = 0\nsteps = 5\nt_max = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "one"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    entries = RunManifest.from_text((out / "sweep.manifest").read_text()).entries
    assert [k for k, _ in entries if k.startswith("config.")] == CONFIG_KEYS
    cell = next(p for p in out.iterdir() if p.is_dir())
    entries = RunManifest.from_text((cell / "cell.manifest").read_text()).entries
    # a cell drops the sweep axes and the output path
    dropped = {"config.out", "config.beta_list", "config.phi_list", "config.lambda_post_list"}
    assert [k for k, _ in entries if k.startswith("config.")] == [
        k for k in CONFIG_KEYS if k not in dropped
    ]


def test_sweep_cell_outputs_equal_the_task_outputs(tmp_path):
    common = ["--lambda-pre", "0.5", "--t-max", "6", "--steps", "61"]
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(
        "beta_list = 1\nphi_list = -pi/2\nlambda_post_list = 2\n", encoding="utf-8"
    )
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_file), *common, "--out", str(sweep)]) == 0
    cell = sweep / "beta=1.000000_phi=-1.570796_lambda_post=2.000000"
    protocol = ["--beta", "1", "--phi", "-pi/2", "--lambda-post", "2"]
    for task, name in (("critical-modes", "critical_modes.csv"), ("rate", "rate.csv")):
        out = tmp_path / name
        assert main([task, *protocol, *common, "--out", str(out)]) == 0
        assert out.read_bytes() == (cell / name).read_bytes()
    assert len((cell / "critical_modes.csv").read_text().splitlines()) == 2  # one mode


@pytest.mark.parametrize(
    "argv",
    [
        ["winding", "--t-max", "inf"],
        ["rate-finite", "--t-max", "inf"],
        ["rate", "--t-min=-inf"],
        ["rate", "--tol", "inf"],
    ],
)
def test_non_finite_window_or_tol_exits_2_without_output(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "x.csv.manifest").exists()


def test_library_rejects_non_finite_time_and_nan_tol():
    p = QuenchProtocol(0.5, 2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        phase_profile(p, math.inf)
    with pytest.raises(ValueError):
        rate_function(p, 1.0, tol=math.nan)


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "rate.csv"
    path.write_bytes(b"t,r\n0,0\n")

    def rows():
        yield ("1", "2")
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError):
        _write_csv(str(path), "t,r", "%s,%s\n", rows())
    assert path.read_bytes() == b"t,r\n0,0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rate.csv"]


def test_the_cached_parser_keeps_calls_independent(tmp_path, monkeypatch):
    # one parser serves every main call; an appended --branch list must not
    # leak from one call into the next
    from dqpt import cli

    seen = []
    monkeypatch.setattr(cli, "_run_task", lambda cfg: seen.append(cfg) or 0)
    out = str(tmp_path / "z.csv")
    assert main(["zeros", "--branch", "0", "--branch", "1", "--out", out]) == 0
    assert main(["zeros", "--out", out]) == 0
    assert main(["zeros", "--branch", "2", "--out", out]) == 0
    assert [cfg.branches for cfg in seen] == [(0, 1), (0,), (2,)]
    assert _build_parser() is _build_parser()


def test_winding_at_a_huge_coupling_skips_its_samples_and_exits_3(tmp_path, capsys):
    # unwrapping t = 4 at coupling 1e6 needs more momenta than the refinement
    # budget allows; the sample is skipped with a warning instead
    out = tmp_path / "w.csv"
    assert main(["winding", "--coupling", "1e6", "--steps", "2", "--out", str(out)]) == 3
    assert out.read_text() == "t,nu,unwrap_refinements\n0,0,0\n"
    manifest = dict(RunManifest.from_text((tmp_path / "w.csv.manifest").read_text()).entries)
    assert manifest["winding.failed_samples"] == "1"
    assert manifest["warning.0"].startswith("sample t=4 skipped: phase unwrap failed")
    assert "warning.1" not in manifest
    assert "numerical degradation" in capsys.readouterr().err


def test_the_readme_lists_exactly_the_common_flags():
    # README's "Common flags" list, up to --config, against the option table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Common flags: (.*?`--config FILE`)", readme, re.DOTALL).group(1)
    flags = re.findall(r"`(--[a-z][a-z-]*)[^`]*`", listed)
    assert len(flags) == len(set(flags))
    assert set(flags) == {opt["flag"] for opt in _OPTIONS.values() if opt["flag"]} | {"--config"}

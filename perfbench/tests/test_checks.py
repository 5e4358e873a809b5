"""Each workload's checks pass on real output and catch a corrupted copy."""

import math
import os
import shutil

import numpy as np
import pytest

import checks
import workloads
from worker import _import_dqpt, run_pass

from conftest import ROOT


def _run(jobs, tmp_path):
    cli = _import_dqpt(ROOT)
    inputs = str(tmp_path / "inputs")
    workloads.write_inputs(jobs, inputs)
    out = str(tmp_path / "out")
    record = run_pass(cli, jobs, inputs, out)
    assert [j["outcome"] for j in record["jobs"]] == ["ok"] * len(jobs)
    return out


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))


def _set_field(line, col, value):
    fields = line.rstrip("\n").split(",")
    fields[col] = repr(float(value))
    return ",".join(fields) + "\n"


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    jobs = workloads.fig_sweeps_jobs(0, sweeps=["fig2"])
    return jobs, _run(jobs, tmp_path_factory.mktemp("fig2"))


def test_fig_sweep_passes_and_reports_cusps(fig2):
    jobs, out = fig2
    problems, info = checks.check_pass("fig_sweeps", jobs, out)
    assert problems == {}
    assert [c["cusps_predicted"] for c in info["cells"]] == [0, 5]


def test_fig_check_catches_a_rate_row_moved_beyond_its_bound(fig2, tmp_path):
    jobs, out = fig2
    corrupt = str(tmp_path / "out")
    shutil.copytree(out, corrupt)
    cell = checks.read_csv(os.path.join(corrupt, "fig2", "index.csv"))["cell"][1]
    path = os.path.join(corrupt, "fig2", cell, "rate.csv")
    rate = checks.read_csv(path)
    row = 700
    r, err = float(rate["r"][row]), float(rate["err_bound"][row])
    ref = checks.load_reference()
    moved = r + 2.0 * (err + ref["fig2.err"][1][row]) + 1e-12
    _rewrite(path, lambda lines: lines[: row + 1] + [_set_field(lines[row + 1], 1, moved)] + lines[row + 2 :])
    problems, _ = checks.check_pass("fig_sweeps", jobs, corrupt)
    assert list(problems) == ["fig2"]
    assert "off the reference" in problems["fig2"][0]


def test_finite_checks_pass_and_catch_a_dropped_echo_row(tmp_path):
    jobs = workloads.finite_grid_jobs(5, sizes=(("rate-finite", 200, 41), ("echo-decomposition", 20, 11)))
    out = _run(jobs, tmp_path)
    assert checks.check_pass("finite_grid", jobs, out, seed=5)[0] == {}

    _rewrite(os.path.join(out, jobs[1]["out"]), lambda lines: lines[:40] + lines[41:])
    problems, _ = checks.check_pass("finite_grid", jobs, out, seed=5)
    assert list(problems) == [jobs[1]["id"]]
    assert "rows, expected 110" in problems[jobs[1]["id"]][0]


def test_finite_check_catches_a_perturbed_rate(tmp_path):
    jobs = workloads.finite_grid_jobs(6, sizes=(("rate-finite", 200, 41),))
    out = _run(jobs, tmp_path)
    path = os.path.join(out, jobs[0]["out"])
    r = float(checks.read_csv(path)["r"][20])
    _rewrite(path, lambda lines: lines[:21] + [_set_field(lines[21], 1, r * (1 + 1e-9))] + lines[22:])
    problems, _ = checks.check_pass("finite_grid", jobs, out, seed=6)
    assert list(problems) == [jobs[0]["id"]]


def test_topology_checks_pass_and_catch_a_flipped_winding(tmp_path):
    protocol = {"lambda_pre": 0.5, "lambda_post": 2.0, "beta": 1.0, "phi": math.pi / 2}
    jobs = [
        {"id": task, "task": task, "protocol": protocol, "out": task + ".csv"}
        for task in workloads.TOPOLOGY_TASKS
    ]
    out = _run(jobs, tmp_path)
    problems, info = checks.check_pass("topology_scan", jobs, out)
    assert problems == {}
    assert info["ladder_intervals_judged"] >= 1

    path = os.path.join(out, "winding.csv")
    nu = checks.floats(checks.read_csv(path), "nu")
    row = int(np.argmax(np.abs(nu[1:-1]))) + 1
    assert abs(nu[row]) > 0.25
    _rewrite(path, lambda lines: lines[: row + 1] + [_set_field(lines[row + 1], 1, -nu[row])] + lines[row + 2 :])
    problems, _ = checks.check_pass("topology_scan", jobs, out)
    assert list(problems) == ["winding"]
    assert "without a ladder time" in problems["winding"][0]


def test_winding_half_jump_at_a_zone_edge_zero_is_not_judged(tmp_path):
    # pre-quench field next to 1 at high temperature: the k -> 0+ imbalance
    # is ~1e-4, so nu moves by ~1/2 near t = pi / (2 eps_post(0)) = 1.661
    protocol = {
        "lambda_pre": 0.9993164856815514,
        "lambda_post": 1.9455002062459528,
        "beta": 0.11014984460555724,
        "phi": -0.744901451427785,
    }
    jobs = [{"id": "winding", "task": "winding", "protocol": protocol, "out": "winding.csv"}]
    out = _run(jobs, tmp_path)
    t_min, t_max, steps = workloads.TOPOLOGY_WINDOW
    edges = checks.edge_times(checks.protocol_of(protocol), t_min, t_max, (t_max - t_min) / (steps - 1))
    assert any(abs(t - 1.6613) < 1e-3 for t in edges)
    problems, info = checks.check_pass("topology_scan", jobs, out)
    assert problems == {}
    assert info["edge_intervals"] >= 1

    # a jump away from every ladder and edge time is still caught
    path = os.path.join(out, "winding.csv")
    nu = checks.floats(checks.read_csv(path), "nu")
    row = 100  # t = 1.0
    _rewrite(path, lambda lines: lines[: row + 1] + [_set_field(lines[row + 1], 1, nu[row] + 1.0)] + lines[row + 2 :])
    problems, _ = checks.check_pass("topology_scan", jobs, out)
    assert "without a ladder time" in problems["winding"][0]

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads

from conftest import BENCH, ROOT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.build_jobs(workload, 7) == workloads.build_jobs(workload, 7)


def test_seed_changes_generated_protocols_but_not_the_figure_cells():
    assert workloads.topology_scan_jobs(7) != workloads.topology_scan_jobs(8)
    assert workloads.finite_grid_jobs(7) != workloads.finite_grid_jobs(8)
    key = lambda jobs: sorted((j["id"], json.dumps(j["sweep"])) for j in jobs)
    assert key(workloads.fig_sweeps_jobs(7)) == key(workloads.fig_sweeps_jobs(8))


def test_protocol_draws_stay_in_their_ranges():
    rng = random.Random(0)
    draws = [workloads.draw_protocol(rng) for _ in range(2000)]
    assert all(0.0 <= d["lambda_pre"] <= 3.0 and 0.0 <= d["lambda_post"] <= 3.0 for d in draws)
    assert all(-math.pi < d["phi"] <= math.pi for d in draws)
    finite = [d["beta"] for d in draws if math.isfinite(d["beta"])]
    assert all(0.01 <= b <= 10.0 for b in finite)
    assert 0.1 < 1.0 - len(finite) / len(draws) < 0.2


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig_sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_adjustment_cancels_a_uniform_slowdown():
    passes = [
        {
            "traced": False,
            "jobs": [
                {"wall_s": 2.0 * f, "probe_s": run.PROBE_REF_S * f},
                {"wall_s": 1.0 * f, "probe_s": run.PROBE_REF_S * f},
            ],
        }
        for f in (1.0, 1.5, 1.2)
    ]
    passes.append({"traced": True, "jobs": [{"wall_s": 99.0, "probe_s": run.PROBE_REF_S}]})
    assert run.speed_adjusted_wall_s(passes) == pytest.approx(3.0)


def test_every_job_gets_the_probe_time_around_it(tmp_path):
    from worker import _import_dqpt, run_pass

    protocol = {"lambda_pre": 0.5, "lambda_post": 2.0, "beta": 1.0, "phi": 0.0}
    jobs = [
        {"id": f"p{i}", "task": "critical-modes", "protocol": protocol, "out": f"p{i}.csv"}
        for i in range(3)
    ]
    times = iter([0.001 * (i + 1) for i in range(10_000)])
    record = run_pass(_import_dqpt(ROOT), jobs, str(tmp_path), str(tmp_path / "out"), probe=lambda: next(times))
    assert [j["outcome"] for j in record["jobs"]] == ["ok"] * 3
    probes = record["probe_s"]
    assert probes[0] == 0.001 and len(probes) >= 2
    around = [job["probe_s"] for job in record["jobs"]]
    # the probe times rise, so the means of the probes around each job do too
    assert around == sorted(around)
    assert min(probes) < around[0] and around[-1] < max(probes)

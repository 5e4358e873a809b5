"""Seeded inputs for the three benchmark workloads.

A job is a plain dict: the CLI task, its protocol and sizes, and the output
path relative to the pass directory.  ``job_argv`` turns it into the
argument list for ``dqpt.cli.main``; the checks read the same dict to know
what the output must contain.  Nothing here imports dqpt, so building the
inputs costs the same whatever the library does.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("fig_sweeps", "finite_grid", "topology_scan")

# The paper's figure sweeps, the parameters of configs/fig1.cfg .. fig4.cfg
# at the commit that introduced the benchmark.  They are copied rather than
# read so that an edit to configs/ cannot silently change the workload or
# invalidate the recorded reference rates.
FIG_SWEEPS = {
    "fig1": {
        "lambda_pre": 0.5,
        "lambda_post_list": (2.0,),
        "beta_list": (10.0, 1.0, 0.1),
        "phi_list": (0.0,),
        "t_min": 0.0,
        "t_max": 4.0,
        "steps": 2001,
        "tol": 1e-8,
        "n_max": 3,
    },
    "fig2": {
        "lambda_pre": 0.0,
        "lambda_post_list": (0.5,),
        "beta_list": (10.0, 0.1),
        "phi_list": (-math.pi / 2,),
        "t_min": 0.0,
        "t_max": 8.0,
        "steps": 2001,
        "tol": 1e-8,
        "n_max": 3,
    },
    "fig3": {
        "lambda_pre": 0.5,
        "lambda_post_list": (2.0,),
        "beta_list": (1.0, 0.1),
        "phi_list": (math.pi / 2, -math.pi / 2),
        "t_min": 0.0,
        "t_max": 6.0,
        "steps": 2401,
        "tol": 1e-8,
        "n_max": 3,
    },
    "fig4": {
        "lambda_pre": 1.5,
        "lambda_post_list": (2.0,),
        "beta_list": (0.1, 0.01),
        "phi_list": (-math.pi / 2,),
        "t_min": 0.0,
        "t_max": 6.0,
        "steps": 2001,
        "tol": 1e-8,
        "n_max": 3,
    },
}

# finite_grid: (task, n_sites, steps).  Large arrays first, then per-sample
# overhead at small N, then the per-row echo decomposition.
FINITE_SIZES = (
    ("rate-finite", 100_000, 2001),
    ("rate-finite", 1_000, 20_001),
    ("echo-decomposition", 200, 401),
)

TOPOLOGY_PROTOCOLS = 64
TOPOLOGY_TASKS = ("critical-modes", "winding", "zeros", "variant-report")
# CLI defaults the topology jobs run at; the checks need them
TOPOLOGY_WINDOW = (0.0, 4.0, 401)


def draw_protocol(rng: random.Random) -> dict:
    """lambda_pre, lambda_post ~ U[0, 3]; beta = inf with probability 0.15,
    else log-uniform on [0.01, 10]; phi ~ U(-pi, pi]."""
    lambda_pre = rng.uniform(0.0, 3.0)
    lambda_post = rng.uniform(0.0, 3.0)
    beta = math.inf if rng.random() < 0.15 else 10.0 ** rng.uniform(-2.0, 1.0)
    phi = math.pi - rng.uniform(0.0, math.tau)
    return {"lambda_pre": lambda_pre, "lambda_post": lambda_post, "beta": beta, "phi": phi}


def _cfg_value(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(repr(float(x)) for x in v)
    return repr(v)


def fig_sweeps_jobs(seed: int, sweeps=None) -> list:
    """The four figure sweeps in a seeded order; the cells are fixed."""
    names = sorted(sweeps if sweeps is not None else FIG_SWEEPS)
    random.Random(seed).shuffle(names)
    return [
        {"id": name, "task": "sweep", "sweep": dict(FIG_SWEEPS[name]), "out": name}
        for name in names
    ]


def finite_grid_jobs(seed: int, sizes=FINITE_SIZES) -> list:
    protocol = draw_protocol(random.Random(seed))
    t_min, t_max = 0.0, 4.0
    return [
        {
            "id": f"{task}-N{n_sites}",
            "task": task,
            "protocol": protocol,
            "n_sites": n_sites,
            "t_min": t_min,
            "t_max": t_max,
            "steps": steps,
            "out": f"{task}-N{n_sites}.csv",
        }
        for task, n_sites, steps in sizes
    ]


def topology_scan_jobs(seed: int, n_protocols: int = TOPOLOGY_PROTOCOLS) -> list:
    rng = random.Random(seed)
    jobs = []
    for i in range(n_protocols):
        protocol = draw_protocol(rng)
        for task in TOPOLOGY_TASKS:
            jobs.append(
                {
                    "id": f"p{i:02d}-{task}",
                    "task": task,
                    "protocol": protocol,
                    "out": f"p{i:02d}-{task}.csv",
                }
            )
    return jobs


def build_jobs(workload: str, seed: int) -> list:
    if workload == "fig_sweeps":
        return fig_sweeps_jobs(seed)
    if workload == "finite_grid":
        return finite_grid_jobs(seed)
    if workload == "topology_scan":
        return topology_scan_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(jobs: list, input_dir: str):
    """Write the config files the sweep jobs read."""
    os.makedirs(input_dir, exist_ok=True)
    for job in jobs:
        if job["task"] == "sweep":
            text = "".join(f"{k} = {_cfg_value(v)}\n" for k, v in job["sweep"].items())
            with open(os.path.join(input_dir, job["id"] + ".cfg"), "w", encoding="utf-8") as fh:
                fh.write(text)


def job_argv(job: dict, input_dir: str, out_dir: str) -> list:
    out = os.path.join(out_dir, job["out"])
    if job["task"] == "sweep":
        cfg = os.path.join(input_dir, job["id"] + ".cfg")
        return ["sweep", "--config", cfg, "--out", out, "--jobs", "1"]
    p = job["protocol"]
    argv = [
        job["task"],
        f"--lambda-pre={p['lambda_pre']!r}",
        f"--lambda-post={p['lambda_post']!r}",
        f"--beta={p['beta']!r}",
        f"--phi={p['phi']!r}",
        "--out",
        out,
        "--jobs",
        "1",
    ]
    if "n_sites" in job:
        argv += [
            f"--n-sites={job['n_sites']}",
            f"--steps={job['steps']}",
            f"--t-min={job['t_min']!r}",
            f"--t-max={job['t_max']!r}",
        ]
    if job["task"] == "zeros":
        argv += ["--branch", "0", "--branch", "1"]
    return argv


def sizes(workload: str, jobs: list) -> dict:
    """Workload size summary recorded with every result."""
    if workload == "fig_sweeps":
        cells = sum(
            len(s["beta_list"]) * len(s["phi_list"]) * len(s["lambda_post_list"])
            for s in (j["sweep"] for j in jobs)
        )
        return {"jobs": len(jobs), "sweeps": [j["id"] for j in jobs], "cells": cells}
    if workload == "finite_grid":
        return {"jobs": len(jobs), "runs": [[j["task"], j["n_sites"], j["steps"]] for j in jobs]}
    return {"jobs": len(jobs), "protocols": len(jobs) // len(TOPOLOGY_TASKS)}

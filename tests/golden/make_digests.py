"""Regenerate tests/golden/digests.json, the CSV digests that
tests/test_golden_digests.py checks every CLI output against.

    PYTHONPATH=src python3 tests/golden/make_digests.py

The runs are the four configs/fig*.cfg sweeps, perfbench's finite_grid jobs
and the first 8 protocols x 4 tasks of its topology_scan jobs at seed 1,
rate and rate-finite at their defaults, echo-decomposition at
--n-sites 2 --steps 10000, and zeros and variant-report at the edges of the
eigenbasis weights.  Their argument lists are written into the file,
so that an edit to the benchmark's inputs cannot change what the gate runs;
when the file exists, its runs are kept and only the digests, exit codes
and platform fingerprint are rewritten.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DIGESTS = os.path.join(HERE, "digests.json")


def fingerprint() -> dict:
    """numpy's version and the SIMD targets it dispatches to on this CPU:
    tan and log may round differently on another path."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "cpu_dispatch": targets}


def _benchmark_runs() -> list:
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = workloads.finite_grid_jobs(1) + workloads.topology_scan_jobs(1, n_protocols=8)
    # each job's arguments with its output under {out}
    return [" ".join(workloads.job_argv(job, "", "{out}")) for job in jobs]


def default_runs() -> list:
    figs = [
        f"sweep --config {{root}}/configs/{fig}.cfg --out {{out}}/{fig} --jobs 1"
        for fig in ("fig1", "fig2", "fig3", "fig4")
    ]
    tasks = [
        "rate --out {out}/rate.csv",
        "rate-finite --out {out}/rate-finite.csv",
        "echo-decomposition --n-sites 2 --steps 10000 --out {out}/echo.csv",
    ]
    # the eigenbasis weights at their edges: every sample skipped (no quench),
    # a ground state at phi = pi/2, and fig4's two roots in both variants
    weights = [
        "zeros --lambda-pre 1.3 --lambda-post 1.3 --beta inf --branch 0 --branch 1"
        " --out {out}/zeros-no-quench.csv",
        "zeros --lambda-pre 0.5 --lambda-post 2 --beta inf --phi 1.5707963267948966"
        " --branch 0 --branch 1 --out {out}/zeros-ground-phi.csv",
        "variant-report --lambda-pre 1.5 --lambda-post 2 --beta 0.1 --phi -1.5707963267948966"
        " --out {out}/variant-report-fig4.csv",
    ]
    return figs + _benchmark_runs() + tasks + weights


def run_all(runs, out_dir) -> tuple:
    """Run each command line, split at spaces and with {root} and {out}
    filled in, through dqpt.cli.main; (exit codes, {CSV path under out_dir:
    SHA-256})."""
    from dqpt.cli import main

    codes = [main([a.format(root=ROOT, out=out_dir) for a in run.split()]) for run in runs]
    digests = {}
    for folder, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith(".csv"):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                digests[os.path.relpath(path, out_dir).replace(os.sep, "/")] = digest
    return codes, dict(sorted(digests.items()))


def main():
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            runs = [run["command"] for run in json.load(fh)["runs"]]
    else:
        runs = default_runs()
    with tempfile.TemporaryDirectory() as out_dir:
        codes, digests = run_all(runs, out_dir)
    record = {
        "platform": fingerprint(),
        "runs": [{"command": run, "exit": code} for run, code in zip(runs, codes)],
        "digests": digests,
    }
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{DIGESTS}: {len(runs)} runs, {len(digests)} CSVs", file=sys.stderr)


if __name__ == "__main__":
    main()

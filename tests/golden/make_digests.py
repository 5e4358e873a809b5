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

A change that means to move output bits reports its moves in two steps:
run the script with --keep on the old library and again on the new one,
each into its own new directory, then compare the two directories:

    PYTHONPATH=<old>/src python3 tests/golden/make_digests.py --keep old
    PYTHONPATH=src python3 tests/golden/make_digests.py --keep new
    python3 tests/golden/make_digests.py --compare old new

--compare writes no digests.  It names every CSV that changed, and for each
rate CSV (columns t, r, err_bound) prints the samples that moved, the
largest |dr| and |dr|/max(1, |r|), and every sample whose move exceeds the
sum of its old and new err_bound.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
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


def _csv_paths(root) -> set:
    """The CSVs under root, as '/'-separated paths relative to it."""
    return {
        os.path.relpath(os.path.join(folder, name), root).replace(os.sep, "/")
        for folder, _, files in os.walk(root)
        for name in files
        if name.endswith(".csv")
    }


def run_all(runs, out_dir) -> tuple:
    """Run each command line, split at spaces and with {root} and {out}
    filled in, through dqpt.cli.main; (exit codes, {CSV path under out_dir:
    SHA-256})."""
    from dqpt.cli import main

    codes = [main([a.format(root=ROOT, out=out_dir) for a in run.split()]) for run in runs]
    digests = {}
    for path in sorted(_csv_paths(out_dir)):
        with open(os.path.join(out_dir, path), "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    return codes, digests


def _read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def rate_moves(old_rows, new_rows) -> dict:
    """The moves of a rate CSV's r column between two runs of the same grid,
    both given as rows with a header: the samples that moved, the largest
    |dr| and |dr|/max(1, |r_old|), and (t, |dr|, old + new err_bound) of
    every sample whose move exceeds the sum of its two bounds.  Two NaNs, or
    two equal infinities, are no move."""
    header = old_rows[0]
    t_col, r_col, b_col = (header.index(c) for c in ("t", "r", "err_bound"))
    moved, max_abs, max_rel, over = 0, 0.0, 0.0, []
    for old, new in zip(old_rows[1:], new_rows[1:]):
        r0, r1 = float(old[r_col]), float(new[r_col])
        if r0 == r1 or (math.isnan(r0) and math.isnan(r1)):
            continue
        moved += 1
        dr = abs(r1 - r0)
        if math.isnan(dr):  # one side NaN, or two different infinities
            dr = math.inf
        max_abs = max(max_abs, dr)
        max_rel = max(max_rel, dr / max(1.0, abs(r0)))
        bounds = float(old[b_col]) + float(new[b_col])
        if not dr <= bounds:
            over.append((float(old[t_col]), dr, bounds))
    return {
        "samples": len(old_rows) - 1,
        "moved": moved,
        "max_abs": max_abs,
        "max_rel": max_rel,
        "over_bounds": over,
    }


def compare(old_dir, new_dir) -> list:
    """Report lines for the CSVs of two --keep directories: one per changed,
    missing or new CSV, then a count of the unchanged ones."""
    old_paths, new_paths = _csv_paths(old_dir), _csv_paths(new_dir)
    lines = [f"{p}: only in {old_dir}" for p in sorted(old_paths - new_paths)]
    lines += [f"{p}: only in {new_dir}" for p in sorted(new_paths - old_paths)]
    same = 0
    for path in sorted(old_paths & new_paths):
        old_rows = _read_csv(os.path.join(old_dir, path))
        new_rows = _read_csv(os.path.join(new_dir, path))
        if old_rows == new_rows:
            same += 1
            continue
        rate_csv = old_rows[0][:3] == ["t", "r", "err_bound"] == new_rows[0][:3]
        if not rate_csv or len(old_rows) != len(new_rows) or any(
            a[0] != b[0] for a, b in zip(old_rows, new_rows)
        ):
            lines.append(f"{path}: changed")
            continue
        m = rate_moves(old_rows, new_rows)
        lines.append(
            f"{path}: {m['moved']} of {m['samples']} samples moved, max |dr| {m['max_abs']:.3g}, "
            f"max |dr|/max(1,|r|) {m['max_rel']:.3g}, {len(m['over_bounds'])} above the "
            "sum of their two err_bounds"
        )
        lines += [
            f"  t={t!r}: |dr| {dr:.3g} > err_bound sum {bounds:.3g}"
            for t, dr, bounds in m["over_bounds"]
        ]
    lines.append(f"{same} of {len(old_paths | new_paths)} CSVs unchanged")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate or compare the CLI's CSV digests.")
    parser.add_argument(
        "--keep", metavar="DIR",
        help="write the runs' outputs into DIR, which must be new or empty, not a temporary one",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"),
        help="compare the CSVs of two --keep directories; writes no digests",
    )
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            runs = [run["command"] for run in json.load(fh)["runs"]]
    else:
        runs = default_runs()
    if args.keep:
        if os.path.exists(args.keep) and os.listdir(args.keep):
            parser.error(f"--keep {args.keep}: not empty")  # its CSVs would join the digests
        os.makedirs(args.keep, exist_ok=True)
        codes, digests = run_all(runs, os.path.abspath(args.keep))
    else:
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

"""dqpt benchmark: time to a finished scan, with its outputs checked.

    python3 perfbench/run.py --workload fig_sweeps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see workloads.py and BENCHMARK.json for why each exists):

* fig_sweeps     the four figure sweeps, 11 cells, through ``dqpt sweep``
* finite_grid    rate-finite at N=1e5 and N=1e3, echo-decomposition at N=200
* topology_scan  64 seeded protocols x critical-modes, winding, zeros,
                 variant-report

A run times ``setup`` several times (fresh interpreter until dqpt and
dqpt.cli are imported and the inputs built), then starts one worker process
that repeats passes over the workload's jobs, in one process and with
``--jobs 1``, until ``--seconds`` have gone by.  The first pass is checked
in full (checks.py); every later pass must write byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
CSV rows per second, the median setup time and the worker's peak RSS.
The times are taken at a fixed reference host speed: the worker runs a
speed probe between jobs and scales each job's time by it (README, Noise).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracer.py.  Human-readable lines go first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed job is one that raised, exited 2 or 3
(degraded), or failed a check; ``fail_ratio`` is ``failed / attempted``.
Each run also leaves its result with provenance in
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 9
# Time of worker.make_probe's probe at the reference host speed: on a
# 2-vCPU Intel Xeon VM with no contention it takes about this long.  Times
# are reported at this speed, so that the host's drift cancels out.
PROBE_REF_S = 0.010
SETUP_PROBES = 3  # speed probes run before and after each setup sample
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "wall_s": ("s", "lower"),
    "samples_per_s": ("rows/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "observables.rate_s": ("s", "lower"),
    "observables.rate_us_per_sample": ("us", "lower"),
    "observables.rate_samples": ("count", "higher"),
    "observables.rate_extra_panels": ("count", "lower"),
    "observables.rate_splits_per_sample": ("1", "lower"),
    "observables.rate_unconverged": ("count", "lower"),
    "mode_dynamics.coeff_calls": ("count", "lower"),
    "mode_dynamics.coeff_momenta": ("count", "lower"),
    "mode_dynamics.momenta_per_call": ("count", "higher"),
    "mode_dynamics.self_s": ("s", "lower"),
    "model.calls": ("count", "lower"),
    "model.self_s": ("s", "lower"),
    "observables.cusps_s": ("s", "lower"),
    "observables.cusps_found": ("count", "higher"),
    "observables.cusps_predicted": ("count", "higher"),
    "observables.cusps_found_over_predicted": ("1", "higher"),
    "observables.winding_calls": ("count", "lower"),
    "observables.winding_s": ("s", "lower"),
    "observables.winding_refinements": ("count", "lower"),
    "observables.unwrap_failures": ("count", "lower"),
    "criticality.calls": ("count", "lower"),
    "criticality.self_s": ("s", "lower"),
    "criticality.roots_found": ("count", "higher"),
    "criticality.jump_sign_s": ("s", "lower"),
    "observables.finite_s": ("s", "lower"),
    "observables.finite_mode_samples_per_s": ("1/s", "higher"),
    "observables.self_s": ("s", "lower"),
    "mode_dynamics.null_work_calls": ("count", "lower"),
    "mode_dynamics.null_work_s": ("s", "lower"),
    "cli.calls": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.rows_written": ("count", "higher"),
    "cli.bytes_written": ("B", "lower"),
    "cli.us_per_row": ("us", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
    "trace.unattributed_ratio": ("1", "lower"),
}
FAIL_CLASSES = ("raised", "exit2", "exit3", "check")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker_cmd(mode, work, args):
    return [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        mode,
        "--root",
        ROOT,
        "--work",
        work,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]


def time_setup(work, args, probe) -> float:
    """Seconds from starting a fresh interpreter until it reports ready,
    at the reference host speed measured by the probes around it."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    started = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd("setup", work, args),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    probes += [probe() for _ in range(SETUP_PROBES)]
    return elapsed * PROBE_REF_S / statistics.fmean(probes)


def run_worker(work, args) -> dict:
    cmd = _worker_cmd("run", work, args) + [
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    log_path = os.path.join(work, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=log, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            raise BenchError(f"worker failed (exit {proc.returncode}): {fh.read()[-2000:]}")
    with open(os.path.join(work, "worker.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _csv_digests(out_dir) -> dict:
    digests = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def output_volume(out_dir):
    """(CSV data rows, bytes of every file) written into out_dir."""
    rows = size = 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            size += os.path.getsize(path)
            if name.endswith(".csv"):
                with open(path, "rb") as fh:
                    rows += max(sum(1 for _ in fh) - 1, 0)
    return rows, size


def _job_of(path, jobs):
    top = path.split(os.sep, 1)[0]
    for job in jobs:
        if job["out"] == top:
            return job["id"]
    return None


def judge(workload, seed, jobs, passes):
    """Failure classes per (pass, job), plus the first pass's check info."""
    import checks

    first = passes[0]
    problems, info = checks.check_pass(workload, jobs, first["dir"], seed)
    first_digests = _csv_digests(first["dir"])
    failures = []  # (pass index, job id, class, detail)
    for p in passes:
        bad_files = {}
        if p is not first:
            digests = _csv_digests(p["dir"])
            for path in set(digests) | set(first_digests):
                if digests.get(path) != first_digests.get(path):
                    bad_files.setdefault(_job_of(path, jobs), []).append(path)
        for outcome in p["jobs"]:
            jid = outcome["id"]
            if outcome["outcome"] != "ok":
                cls = outcome["outcome"] if outcome["outcome"] in FAIL_CLASSES else "raised"
                failures.append((p["index"], jid, cls, outcome["detail"].strip()[-500:]))
            elif jid in problems:
                failures.append((p["index"], jid, "check", "; ".join(problems[jid])))
            elif jid in bad_files:
                failures.append((p["index"], jid, "check", f"output differs from pass 0: {bad_files[jid]}"))
    return failures, info


def speed_adjusted_wall_s(passes) -> float:
    """Median over the untraced passes of the pass wall time at the
    reference host speed.

    Each job's wall time is scaled by PROBE_REF_S over the mean time of the
    speed probes run just before and just after it (worker.make_probe), and
    a pass's time is the sum over its jobs.
    """
    return statistics.median(
        sum(job["wall_s"] * PROBE_REF_S / job["probe_s"] for job in p["jobs"])
        for p in passes
        if not p["traced"]
    )


def cusps_predicted(cusp_calls) -> int:
    import checks
    from dqpt import QuenchProtocol

    total = 0
    for call in cusp_calls:
        protocol = QuenchProtocol(*call["protocol"])
        total += len(checks.ladder(protocol, call["t_min"], call["t_max"])[1])
    return total


def per_layer_metrics(work, passes) -> dict:
    import tracer

    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    per_pass = []
    for p in (p for p in passes if p["traced"]):
        trace = tracer.load(os.path.join(work, f"trace_{p['index']}"))
        m = tracer.layer_metrics(trace, p["wall_s"])
        m["observables.cusps_predicted"] = cusps_predicted(trace["cusp_calls"])
        m["observables.cusps_found_over_predicted"] = m["observables.cusps_found"] / max(
            m["observables.cusps_predicted"], 1
        )
        rows, size = output_volume(p["dir"])
        m["cli.rows_written"] = rows
        m["cli.bytes_written"] = size
        m["cli.us_per_row"] = 1e6 * m["cli.self_s"] / max(rows, 1)
        m["trace.overhead_ratio"] = p["wall_s"] / untraced
        per_pass.append(m)
    return {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}


def provenance(args, jobs, passes) -> dict:
    import numpy

    import workloads

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "dqpt")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "sizes": workloads.sizes(args.workload, jobs),
    }


def _parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dqpt", "__init__.py")):
        print(f"perfbench: no dqpt sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        import worker

        probe = worker.make_probe()
        probe()  # warm up
        setup = [time_setup(os.path.join(work, "setup"), args, probe) for _ in range(SETUP_SAMPLES)]
        result = run_worker(work, args)
        passes, jobs = result["passes"], result["jobs"]
        failures, info = judge(args.workload, args.seed, jobs, passes)
        if args.trace:
            metrics = per_layer_metrics(work, passes)
            table = PER_LAYER
        else:
            wall = speed_adjusted_wall_s(passes)
            rows, _ = output_volume(passes[0]["dir"])
            metrics = {
                "wall_s": wall,
                "samples_per_s": rows / wall,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            table = END_TO_END
        prov = provenance(args, jobs, passes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = len(jobs) * len(passes)
    failed_jobs = {(p, j) for p, j, _, _ in failures}
    classes = {c: sum(1 for f in failures if f[2] == c) for c in FAIL_CLASSES}
    report = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": len(failed_jobs),
        "fail_classes": classes,
        "failures": failures[:50],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_probe_mean_s": [statistics.fmean(p["probe_s"]) for p in passes],
        "job_median_wall_s": {
            job["id"]: statistics.median(
                p["jobs"][i]["wall_s"] for p in passes if not p["traced"]
            )
            for i, job in enumerate(jobs)
        },
        "setup_samples_s": setup,
        "info": info,
    }
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    with open(os.path.join(WORK_ROOT, "results", os.path.basename(work) + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    print(f"provenance {json.dumps(prov)}")
    print(f"passes {len(passes)}  wall_s per pass {[round(p['wall_s'], 3) for p in passes]}")
    for cell in info.get("cells", []):
        print(
            f"cell {cell['sweep']}/{cell['cell']}  cusps found {cell['cusps_found']}"
            f"  predicted {cell['cusps_predicted']}"
        )
    if "cells" in info:
        found = sum(c["cusps_found"] for c in info["cells"])
        predicted = sum(c["cusps_predicted"] for c in info["cells"])
        print(f"cusps total found {found} predicted {predicted} ratio {found / max(predicted, 1):.4g}")
    if "ladder_intervals_judged" in info:
        print(
            f"winding ladder intervals judged {info['ladder_intervals_judged']}"
            f"  ambiguous {info['ladder_intervals_ambiguous']}"
            f"  edge {info['edge_intervals']}"
        )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {table[name][0]}")
    print(
        f"fail_ratio {len(failed_jobs) / attempted:.6g} 1  (failed {len(failed_jobs)} of {attempted}"
        f" jobs; " + ", ".join(f"{c} {n}" for c, n in classes.items()) + ")"
    )
    for p, jid, cls, detail in failures[:10]:
        print(f"failure pass {p} {jid} {cls}: {detail}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failed_jobs),
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

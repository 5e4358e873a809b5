"""One fresh interpreter that imports dqpt and runs a workload's jobs.

    python3 perfbench/worker.py setup --root DIR --work DIR --workload W --seed N
    python3 perfbench/worker.py run   --root DIR --work DIR --workload W --seed N
                                      --seconds S --trace 0|1

``setup`` imports dqpt and dqpt.cli, builds the inputs, prints ``ready``
and exits; run.py times it from process start.  ``run`` repeats passes over
the jobs until ``--seconds`` have gone by, each pass into its own output
directory, and writes ``worker.json`` (pass wall times, job outcomes, peak
RSS).  With ``--trace 1`` untraced and traced passes alternate and each
traced pass also leaves its spans in ``trace_<pass>.npz``/``.json``.  The
worker does no checking, so its peak RSS is the workload's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

# Seconds of speed probe run per second of job time; see make_probe.
PROBE_SHARE = 0.1


def make_probe():
    """A fixed piece of work whose time tells how fast the host runs now.

    The host's cores are shared with other tenants, and its speed drifts by
    up to a third over seconds to minutes.  The probe mixes the kinds of work
    dqpt does: an interpreted loop of scalar math, many numpy calls on short
    arrays, and passes over a 40,000-element complex array.  It does not
    touch dqpt, so no change to the library moves it, and its arrays are
    small next to the workloads' own, so it leaves their peak RSS alone.
    Returns a function that runs it once and returns its wall time in
    seconds.
    """
    import math

    import numpy as np

    small, big = np.linspace(0.0, 1.0, 24), np.linspace(0.0, 9.0, 40_000)

    def probe() -> float:
        started = time.perf_counter()
        x = 0.0
        for i in range(25_000):
            x += math.cos(i * 1e-3) * 0.5 + (i % 7)
        for i in range(700):
            c = np.cos(small * i)
            x += float(np.sum(c * c))
        for _ in range(3):
            x += float(np.abs(np.exp(1j * big)).sum())
        return time.perf_counter() - started

    return probe


def _import_dqpt(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dqpt
    import dqpt.cli

    here = os.path.realpath(os.path.dirname(dqpt.__file__))
    if os.path.commonpath([here, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"dqpt imported from {here}, not from {src}")
    return dqpt.cli


def run_pass(cli, jobs, input_dir, out_dir, tracer=None, probe=None) -> dict:
    """Run every job once through cli.main; returns wall times and outcomes.

    A job's outcome is ok, exit<code> for a nonzero return, or raised.
    With a speed ``probe``, it runs once before the first job, after the
    last, and between jobs for PROBE_SHARE of the job time gone by.  Each
    job's ``probe_s`` is then the mean probe time of the probes run just
    before and just after it, and the pass's ``wall_s`` leaves the probe
    time out.
    """
    from workloads import job_argv

    os.makedirs(out_dir)
    outcomes = []
    groups = [[probe()]] if probe is not None else []
    pending = []  # jobs run since the last probe group
    budget = 0.0
    started = time.perf_counter()
    for n, job in enumerate(jobs, 1):
        argv = job_argv(job, input_dir, out_dir)
        span = tracer.job() if tracer is not None else contextlib.nullcontext()
        job_started = time.perf_counter()
        try:
            with span, contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            outcome, detail = ("ok" if code == 0 else f"exit{code}"), err.getvalue()
        except Exception:  # a failing job must not stop the pass
            outcome, detail = "raised", traceback.format_exc()
        outcomes.append(
            {
                "id": job["id"],
                "outcome": outcome,
                "detail": detail,
                "wall_s": time.perf_counter() - job_started,
            }
        )
        if probe is None:
            continue
        pending.append(outcomes[-1])
        budget += PROBE_SHARE * outcomes[-1]["wall_s"]
        if budget > 0 or n == len(jobs):
            group = [probe()]
            budget -= group[0]
            while budget > 0:
                group.append(probe())
                budget -= group[-1]
            around = sum(groups[-1] + group) / (len(groups[-1]) + len(group))
            for outcome in pending:
                outcome["probe_s"] = around
            groups.append(group)
            pending = []
    probe_total = sum(sum(g) for g in groups[1:])
    return {
        "wall_s": time.perf_counter() - started - probe_total,
        "jobs": outcomes,
        "probe_s": [t for g in groups for t in g],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = _import_dqpt(args.root)
    import workloads

    jobs = workloads.build_jobs(args.workload, args.seed)
    input_dir = os.path.join(args.work, "inputs")
    workloads.write_inputs(jobs, input_dir)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    from tracer import Tracer

    probe = make_probe()
    probe()  # warm up

    passes = []
    started = time.perf_counter()
    # untraced passes only, or untraced and traced alternating; at least
    # one of each kind, then stop once the time is used
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        out_dir = os.path.join(args.work, f"pass_{i}")
        if traced:
            tracer = Tracer()
            with tracer.installed():
                record = run_pass(cli, jobs, input_dir, out_dir, tracer, probe)
            tracer.save(os.path.join(args.work, f"trace_{i}"))
        else:
            record = run_pass(cli, jobs, input_dir, out_dir, probe=probe)
        record.update(index=i, traced=traced, dir=out_dir)
        passes.append(record)
        enough_kinds = not args.trace or len(passes) >= 2
        if enough_kinds and time.perf_counter() - started >= args.seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.work, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_mb": peak_kb / 1024.0, "jobs": jobs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

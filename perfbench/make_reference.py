"""Record the fig_sweeps reference rates the checks compare against.

    python3 perfbench/make_reference.py

Runs the four figure sweeps once through ``dqpt.cli.main`` with the
library in ``src/`` and writes ``perfbench/reference/fig_rates.npz``: per
sweep, the cell parameters (beta, phi, lambda_post) and each cell's ``r``
and ``err_bound`` columns.  Rerun it only to move the reference to another
commit, and say so where the benchmark's history is kept.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    from worker import _import_dqpt, run_pass

    cli = _import_dqpt(ROOT)
    import checks
    import workloads

    jobs = workloads.fig_sweeps_jobs(0)
    work = tempfile.mkdtemp(prefix="fig_reference_", dir=ROOT)
    try:
        workloads.write_inputs(jobs, os.path.join(work, "inputs"))
        out_dir = os.path.join(work, "out")
        record = run_pass(cli, jobs, os.path.join(work, "inputs"), out_dir)
        failed = [j for j in record["jobs"] if j["outcome"] != "ok"]
        if failed:
            print(f"sweeps failed: {failed}", file=sys.stderr)
            return 1
        arrays = {}
        for job in jobs:
            sweep_dir = os.path.join(out_dir, job["out"])
            index = checks.read_csv(os.path.join(sweep_dir, "index.csv"))
            params, r, err = [], [], []
            for i, cell in enumerate(index["cell"]):
                params.append([float(index[c][i]) for c in ("beta", "phi", "lambda_post")])
                rate = checks.read_csv(os.path.join(sweep_dir, cell, "rate.csv"))
                r.append(checks.floats(rate, "r"))
                err.append(checks.floats(rate, "err_bound"))
            arrays[job["id"] + ".params"] = np.asarray(params)
            arrays[job["id"] + ".r"] = np.asarray(r)
            arrays[job["id"] + ".err"] = np.asarray(err)
        os.makedirs(os.path.dirname(checks.REFERENCE), exist_ok=True)
        np.savez_compressed(checks.REFERENCE, **arrays)
    finally:
        shutil.rmtree(work)
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

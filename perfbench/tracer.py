"""Span tracing of dqpt from the outside, and the per-layer arithmetic.

``Tracer.installed()`` replaces each cross-module public function at the
name its caller looks it up by (``dqpt.cli.compute_rate_series``,
``dqpt.criticality.mode_coefficients``, ...) with a wrapper that records a
span and a few counts taken from arguments and return values, and puts every
original back on exit, also when the body raises.  The library itself is
not edited.  Spans live in flat arrays in memory until ``save`` writes them.

A span belongs to the layer of the module that defines the function, so
``dqpt.cli.mode_coefficients`` counts for ``mode_dynamics``.  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "criticality", "observables", "mode_dynamics", "model")

# module -> names it looks up from another dqpt module
WRAPPED = {
    "dqpt.cli": (
        "compute_rate_series",
        "compute_rate_series_finite",
        "detect_cusps",
        "phase_profile",
        "critical_modes",
        "fisher_zero_line",
        "variant_report",
        "boundary_partition",
        "mode_coefficients",
        "null_work_decomposition",
        "mode_grid",
    ),
    "dqpt.observables": (
        "imbalance_roots",
        "mode_coefficients",
        "dispersion",
        "mode_grid",
        # criticality._measure_jump_sign calls observables.winding_number
        "winding_number",
    ),
    "dqpt.criticality": ("mode_coefficients", "boundary_partition", "dispersion"),
    "dqpt.mode_dynamics": ("dispersion", "delta_theta"),
}

JOB = "job"  # root span name: one CLI invocation


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_args(tracer, fn, args, kwargs, result):
    """Work counts read off one finished call."""
    c = tracer.counts
    if fn == "mode_coefficients":
        c["coeff_momenta"] += int(np.size(_arg(args, kwargs, 1, "k")))
    elif fn == "compute_rate_series":
        c["rate_samples"] += int(np.size(_arg(args, kwargs, 1, "times")))
        diag = kwargs.get("diagnostics")
        if diag is None and len(args) > 3:
            diag = args[3]
        if diag:
            c["rate_extra_panels"] += int(diag.get("extra_panels", 0))
            c["rate_unconverged"] += int(diag.get("unconverged_samples", 0))
    elif fn == "compute_rate_series_finite":
        n_sites = int(_arg(args, kwargs, 1, "n_sites"))
        c["finite_mode_samples"] += (n_sites // 2) * int(np.size(_arg(args, kwargs, 2, "times")))
    elif fn == "detect_cusps":
        series = _arg(args, kwargs, 0, "series")
        p = series.protocol
        tracer.cusp_calls.append(
            {
                "protocol": [p.lambda_pre, p.lambda_post, p.beta, p.phi, p.coupling],
                "t_min": float(series.times[0]),
                "t_max": float(series.times[-1]),
                "found": len(result),
            }
        )
    elif fn == "phase_profile":
        c["winding_refinements"] += int(result.refinements)
    elif fn == "critical_modes":
        c["roots_found"] += len(result.modes)
    elif fn == "variant_report":
        c["roots_found"] += len(result.rows)
    elif fn == "imbalance_roots":
        c["roots_found"] += len(result)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list = []  # span-name table; index 0 is the job span
        self._name_ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: dict = {}
        self.cusp_calls: list = []
        self._stack: list = []
        self._originals: list = []
        self._name_id(JOB, "cli")
        for key in (
            "coeff_momenta",
            "rate_samples",
            "rate_extra_panels",
            "rate_unconverged",
            "finite_mode_samples",
            "winding_refinements",
            "roots_found",
        ):
            self.counts[key] = 0

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool = False):
        self.end[idx] = time.perf_counter()
        self.failed[idx] = int(failed)
        self._stack.pop()

    @contextlib.contextmanager
    def job(self):
        idx = self._open(0)
        try:
            yield
        except BaseException:
            self._close(idx, failed=True)
            raise
        self._close(idx)

    def _wrap(self, fn_name: str, orig):
        layer = orig.__module__.rpartition(".")[2]
        name_id = self._name_id(fn_name, layer)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self._close(idx, failed=True)
                raise
            self._close(idx)
            _count_args(self, fn_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPPED; restore them all on exit."""
        try:
            for mod_name, attrs in WRAPPED.items():
                module = importlib.import_module(mod_name)
                for attr in attrs:
                    orig = getattr(module, attr)
                    self._originals.append((module, attr, orig))
                    setattr(module, attr, self._wrap(attr, orig))
            yield self
        finally:
            while self._originals:
                module, attr, orig = self._originals.pop()
                setattr(module, attr, orig)

    def arrays(self) -> dict:
        return {
            "name_of": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path_stem: str):
        """Write spans to <stem>.npz and names and counts to <stem>.json."""
        np.savez(path_stem + ".npz", **self.arrays())
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "counts": self.counts, "cusp_calls": self.cusp_calls}, fh
            )


def load(path_stem: str) -> dict:
    with open(path_stem + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with np.load(path_stem + ".npz") as z:
        meta.update({k: z[k] for k in z.files})
    return meta


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass whose wall time is wall_s.

    Returns plain floats keyed by metric name (cusps_predicted and the
    CLI output counts are added by the caller, which owns the outputs).
    """
    names = [tuple(n) for n in trace["names"]]
    name_of = trace["name_of"]
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    dur = end - start
    self_t = self_times(start, end, parent)
    fn = np.array([n[0] for n in names])[name_of]
    layer = np.array([n[1] for n in names])[name_of]
    counts = trace["counts"]

    def total(mask):
        return float(np.sum(dur[mask]))

    def n(mask):
        return int(np.count_nonzero(mask))

    out = {}
    for lay in LAYERS:
        out[f"{lay}.self_s"] = float(np.sum(self_t[layer == lay]))
    jobs = fn == JOB
    out["cli.calls"] = n(jobs)

    coeff = fn == "mode_coefficients"
    out["mode_dynamics.coeff_calls"] = n(coeff)
    out["mode_dynamics.coeff_momenta"] = counts["coeff_momenta"]
    out["mode_dynamics.momenta_per_call"] = counts["coeff_momenta"] / max(n(coeff), 1)
    out["model.calls"] = n(layer == "model")
    null = fn == "null_work_decomposition"
    out["mode_dynamics.null_work_calls"] = n(null)
    out["mode_dynamics.null_work_s"] = total(null)

    rate = fn == "compute_rate_series"
    samples = counts["rate_samples"]
    out["observables.rate_s"] = total(rate)
    out["observables.rate_samples"] = samples
    out["observables.rate_us_per_sample"] = 1e6 * total(rate) / max(samples, 1)
    out["observables.rate_extra_panels"] = counts["rate_extra_panels"]
    out["observables.rate_splits_per_sample"] = counts["rate_extra_panels"] / max(samples, 1)
    out["observables.rate_unconverged"] = counts["rate_unconverged"]

    out["observables.cusps_s"] = total(fn == "detect_cusps")
    out["observables.cusps_found"] = sum(c["found"] for c in trace["cusp_calls"])

    winding = (fn == "phase_profile") | (fn == "winding_number")
    out["observables.winding_calls"] = n(winding)
    out["observables.winding_s"] = total(winding)
    out["observables.winding_refinements"] = counts["winding_refinements"]
    out["observables.unwrap_failures"] = n(winding & (trace["failed"] != 0))

    finite = fn == "compute_rate_series_finite"
    out["observables.finite_s"] = total(finite)
    out["observables.finite_mode_samples_per_s"] = (
        counts["finite_mode_samples"] / total(finite) if n(finite) else 0.0
    )

    out["criticality.calls"] = n(layer == "criticality")
    out["criticality.roots_found"] = counts["roots_found"]
    under_cm = np.zeros(dur.size, dtype=bool)
    has_parent = parent >= 0
    under_cm[has_parent] = fn[parent[has_parent]] == "critical_modes"
    out["criticality.jump_sign_s"] = total((fn == "winding_number") & under_cm)

    out["trace.unattributed_ratio"] = (wall_s - total(jobs)) / wall_s
    return out

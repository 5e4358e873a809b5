import importlib
import math

import numpy as np
import pytest

import tracer
import workloads
from tracer import WRAPPED, Tracer, layer_metrics, self_times
from worker import _import_dqpt, run_pass

from conftest import ROOT


def _current():
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attrs in WRAPPED.items()
        for attr in attrs
    }


def _finite_job():
    return workloads.finite_grid_jobs(3, sizes=(("rate-finite", 20, 11),))


def test_every_wrapped_name_is_replaced_then_restored(tmp_path):
    cli = _import_dqpt(ROOT)
    before = _current()
    t = Tracer()
    with t.installed():
        during = _current()
        record = run_pass(cli, _finite_job(), str(tmp_path), str(tmp_path / "out"), t)
    assert all(during[key] is not before[key] for key in before)
    assert all(during[key].__wrapped__ is before[key] for key in before)
    assert _current() == before
    assert record["jobs"][0]["outcome"] == "ok"
    assert t.counts["finite_mode_samples"] == 10 * 11


def test_names_restored_when_a_job_raises(tmp_path, monkeypatch):
    cli = _import_dqpt(ROOT)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "compute_rate_series_finite", broken)
    before = _current()
    t = Tracer()
    with t.installed():
        record = run_pass(cli, _finite_job(), str(tmp_path), str(tmp_path / "out"), t)
    assert record["jobs"][0]["outcome"] == "raised"
    assert "injected" in record["jobs"][0]["detail"]
    assert _current() == before
    spans = t.arrays()
    assert spans["failed"].all()  # the job span and the raising call
    assert not t._stack


def test_names_restored_when_the_traced_block_raises():
    before = _current()
    with pytest.raises(KeyError):
        with Tracer().installed():
            raise KeyError("boom")
    assert _current() == before


def _synthetic():
    # job [0, 10] > mode_coefficients [1, 4] > dispersion [2, 3]; job > dispersion [5, 9]
    names = [["job", "cli"], ["mode_coefficients", "mode_dynamics"], ["dispersion", "model"]]
    return {
        "names": names,
        "name_of": np.array([0, 1, 2, 2]),
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0]),
        "failed": np.zeros(4, dtype=np.int8),
        "counts": {
            "coeff_momenta": 30,
            "rate_samples": 0,
            "rate_extra_panels": 0,
            "rate_unconverged": 0,
            "finite_mode_samples": 0,
            "winding_refinements": 0,
            "roots_found": 0,
        },
        "cusp_calls": [],
    }


def test_self_time_arithmetic_on_a_synthetic_tree():
    s = _synthetic()
    assert self_times(s["start"], s["end"], s["parent"]).tolist() == [3.0, 2.0, 1.0, 4.0]
    m = layer_metrics(s, wall_s=12.0)
    assert m["cli.self_s"] == 3.0
    assert m["mode_dynamics.self_s"] == 2.0
    assert m["model.self_s"] == 5.0
    assert m["model.calls"] == 2
    assert m["mode_dynamics.coeff_calls"] == 1
    assert m["mode_dynamics.momenta_per_call"] == 30
    assert m["trace.unattributed_ratio"] == pytest.approx(2.0 / 12.0)
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(10.0)


def test_layer_self_times_account_for_a_real_job(tmp_path):
    cli = _import_dqpt(ROOT)
    jobs = [j for j in workloads.topology_scan_jobs(4, n_protocols=1) if j["task"] == "winding"]
    t = Tracer()
    with t.installed():
        record = run_pass(cli, jobs, str(tmp_path), str(tmp_path / "out"), t)
    t.save(str(tmp_path / "trace"))
    trace = tracer.load(str(tmp_path / "trace"))
    m = layer_metrics(trace, record["wall_s"])
    job_s = float(np.sum((trace["end"] - trace["start"])[trace["name_of"] == 0]))
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert math.isclose(layers, job_s, rel_tol=1e-9)
    assert m["observables.winding_calls"] == 401
    assert m["mode_dynamics.coeff_calls"] >= 401
    assert 0.0 <= m["trace.unattributed_ratio"] < 0.5

"""The echo block size is a pure performance parameter.

observables._BLOCK_BYTES sets how many times share one (time block x echo
data) array of _echo_blocks, and with it how many held samples the rate
quadrature refines at once.  Each row's arithmetic does not depend on how
many rows share a call, so the two rate series must give the same bits,
and the same diagnostics apart from the thread count and the timings, at
the earlier 256 KB blocks and at today's size, on one thread and on two.
"""

import math
from unittest import mock

import numpy as np
import pytest

from dqpt import (
    QuenchProtocol,
    compute_rate_series,
    compute_rate_series_finite,
    observables,
    rate_function,
)

BLOCK_SIZES = (1 << 18, observables._BLOCK_BYTES)
CPUS = (1, 2)
# diagnostics that may differ: the thread count and the time taken
UNCOMPARED = {"block_threads", "refine_seconds"}

# two figure cells: fig3's hot phi = -pi/2 cell and fig4's hottest
FIG_CELLS = {
    "fig3": (QuenchProtocol(0.5, 2.0, 0.1, -math.pi / 2), np.linspace(0.0, 6.0, 2401)),
    "fig4": (QuenchProtocol(1.5, 2.0, 0.01, -math.pi / 2), np.linspace(0.0, 6.0, 2001)),
}


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def run(fn, block_bytes, cpus, *args):
    diag = {}
    with mock.patch.object(observables, "_BLOCK_BYTES", block_bytes), mock.patch.object(
        observables, "_cpus", lambda: cpus
    ):
        series = fn(*args, diagnostics=diag)
    return series, diag


@pytest.mark.parametrize("cell", FIG_CELLS)
def test_rate_series_keep_every_bit_whatever_the_block_size(cell):
    protocol, times = FIG_CELLS[cell]
    reference, ref_diag = run(compute_rate_series, BLOCK_SIZES[0], 1, protocol, times)
    assert ref_diag["extra_panels"] > 0  # refinement runs, so the held-row batches differ
    for block_bytes in BLOCK_SIZES:
        for cpus in CPUS:
            series, diag = run(compute_rate_series, block_bytes, cpus, protocol, times)
            assert np.array_equal(bits(series.values), bits(reference.values))
            assert np.array_equal(bits(series.estimated_error), bits(reference.estimated_error))
            assert diag.keys() == ref_diag.keys()
            for key in diag.keys() - UNCOMPARED:
                assert bits(diag[key]) == bits(ref_diag[key]), key

    # a one-point series, whatever block it falls in, is the series at that time
    worst = int(np.argmax(reference.estimated_error))
    for i in (0, 1, times.size // 3, worst, times.size - 1):
        value, bound = rate_function(protocol, times[i])
        assert bits(value) == bits(reference.values[i])
        assert bits(bound) == bits(reference.estimated_error[i])


@pytest.mark.parametrize("n_sites,steps", [(1000, 301), (100_000, 7)])
def test_finite_rate_series_keep_every_bit_whatever_the_block_size(n_sites, steps):
    protocol, _ = FIG_CELLS["fig3"]
    times = np.linspace(0.0, 6.0, steps)
    reference, _ = run(compute_rate_series_finite, BLOCK_SIZES[0], 1, protocol, n_sites, times)
    for block_bytes in BLOCK_SIZES:
        for cpus in CPUS:
            series, diag = run(
                compute_rate_series_finite, block_bytes, cpus, protocol, n_sites, times
            )
            assert np.array_equal(bits(series.values), bits(reference.values))
            assert diag.keys() == {"block_threads"}

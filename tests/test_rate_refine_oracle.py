"""The lockstep rate refinement against its earlier per-sample form, kept
here as the oracle.

The rate quadrature once refined each sample over tol on its own,
splitting one panel per call of _split; now the held samples go through
lockstep rounds (_refine) that split the next panel of every unfinished
sample in one array pass.  OldRateQuad below keeps that earlier _refine,
_split and evaluate_block verbatim, with the bounded node cache and the
block size they used, driven per sample from the same bulk rows.  Values
and bounds must agree bit for bit with compute_rate_series, and its
extra_panels and unconverged_samples with the oracle's counters, also
near the ladder rungs, under small flush sizes and when the split cap
fires.
"""

import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import QuenchProtocol, compute_rate_series, critical_times, imbalance_roots, mode_echo
from dqpt import observables
from dqpt.observables import _base_panels, _log_echo_values, _node_data, _panel_sums, _refine

_MAX_PANELS = 16384  # child panels the oracle's node cache holds
_MAX_SPLITS = observables._MAX_SPLITS


class OldRateQuad:
    """The rate evaluator with the per-sample refinement that _refine replaced."""

    def __init__(self, protocol, tol=1e-8):
        self.protocol = protocol
        self.tol = float(tol)
        self.extra_panels = 0  # refinement splits accumulated over all calls
        self.unconverged = 0
        self._lefts, self._widths = _base_panels(protocol)
        self._half = 0.5 * self._widths
        self._imb, self._eps = _node_data(protocol, self._lefts, self._widths)
        self._block = max(1, observables._BLOCK_BYTES // self._imb.nbytes)
        self._children = {}  # (left, width) of a split panel -> its children's node data

    def _split(self, t, left, width):
        """Node data, values and bounds of the two halves of one panel."""
        key = (left, width)
        data = self._children.get(key)
        hw = 0.5 * width
        if data is None:
            data = _node_data(
                self.protocol, np.array([left, left + hw]), np.array([hw, hw])
            )
            if 2 * len(self._children) >= _MAX_PANELS:
                del self._children[next(iter(self._children))]
            self._children[key] = data
        i15, err = _panel_sums(0.5 * hw, _log_echo_values(mode_echo(data[0], data[1], t)))
        return hw, i15.tolist(), err.tolist()

    def _refine(self, t, i15, err, total_err):
        """Greedy panel halving for one time, from its base-panel sums."""
        lefts = self._lefts
        widths = self._widths
        # base panels in pop order: largest bound first, then leftmost
        order = np.argsort(-err, kind="stable")
        n_base = order.size
        nxt = 0
        heap = []  # live children: (-bound, left, seq, width, value)
        seq = 0
        splits = 0
        while (
            total_err > self.tol
            and splits < _MAX_SPLITS
            and n_base + 2 * splits < _MAX_PANELS
        ):
            base = None
            if nxt < n_base:
                j = order[nxt]
                base = (-float(err[j]), float(lefts[j]), float(widths[j]))
            if base is not None and (not heap or base[:2] <= heap[0][:2]):
                neg_e, left, width = base
                nxt += 1
            else:
                neg_e, left, _, width, _ = heapq.heappop(heap)
            hw, ci, ce = self._split(t, left, width)
            for child_left, v, e in zip((left, left + hw), ci, ce):
                heapq.heappush(heap, (-e, child_left, seq, hw, v))
                seq += 1
                total_err += e
            total_err += neg_e  # minus the split panel's bound
            splits += 1
        self.extra_panels += splits

        rest = order[nxt:]
        alive_left = np.concatenate([lefts[rest], [h[1] for h in heap]])
        by_left = np.argsort(alive_left, kind="stable")
        value = float(np.sum(np.concatenate([i15[rest], [h[4] for h in heap]])[by_left]))
        total_err = float(np.sum(np.concatenate([err[rest], [-h[0] for h in heap]])[by_left]))
        if total_err > self.tol:
            self.unconverged += 1
        return value, total_err

    def evaluate_block(self, times):
        """Integrate at each of a 1-d array of times; returns (values, bounds)."""
        times = np.asarray(times, dtype=float)
        values = np.empty(times.size)
        bounds = np.empty(times.size)
        for lo in range(0, times.size, self._block):
            tb = times[lo : lo + self._block]
            v = _log_echo_values(mode_echo(self._imb, self._eps, tb[:, None, None]))
            i15, err = _panel_sums(self._half, v)
            total = np.sum(err, axis=-1)
            values[lo : lo + tb.size] = np.sum(i15, axis=-1)
            bounds[lo : lo + tb.size] = total
            for b in np.nonzero(total > self.tol)[0]:
                values[lo + b], bounds[lo + b] = self._refine(
                    float(tb[b]), i15[b], err[b], float(total[b])
                )
        return values, bounds


def assert_same_refinement(protocol, times, tol):
    """The series against the oracle; returns the series' diagnostics."""
    diag = {}
    series = compute_rate_series(protocol, times, tol, diagnostics=diag)
    old = OldRateQuad(protocol, tol)
    old_values, old_bounds = old.evaluate_block(times)
    assert np.array_equal(series.values.view(np.int64), old_values.view(np.int64))
    assert np.array_equal(series.estimated_error.view(np.int64), old_bounds.view(np.int64))
    assert diag["extra_panels"] == old.extra_panels
    assert diag["unconverged_samples"] == old.unconverged
    return diag


# perfbench's protocol distribution (coupling 1)
finite = dict(allow_nan=False, allow_infinity=False)
protocol_st = st.builds(
    QuenchProtocol,
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 3.0, **finite),
    st.one_of(
        st.just(math.inf),
        st.floats(-2.0, 1.0, **finite).map(lambda e: 10.0**e),
    ),
    st.floats(-math.pi, math.pi, **finite),
)


@st.composite
def near_rung_times(draw, protocol):
    """A few times in (0.05, 6), plus times within 1e-4 of ladder rungs."""
    times = draw(st.lists(st.floats(0.05, 6.0, **finite), min_size=1, max_size=6))
    for k_star in imbalance_roots(protocol).tolist():
        for rung in critical_times(protocol, k_star, 2).tolist():
            offsets = st.lists(st.floats(-1e-4, 1e-4, **finite), min_size=1, max_size=3)
            times += [rung + d for d in draw(offsets)]
    return np.unique(np.asarray(times))


@given(protocol_st, st.data(), st.sampled_from([1e-8, 1e-10]), st.booleans())
@settings(deadline=None, max_examples=100)
def test_lockstep_refinement_equals_the_per_sample_refinement(protocol, data, tol, small_blocks):
    times = data.draw(near_rung_times(protocol))
    # small blocks hold one time each and flush every few samples
    block_bytes = 1 << 14 if small_blocks else observables._BLOCK_BYTES
    with mock.patch.object(observables, "_BLOCK_BYTES", block_bytes):
        assert_same_refinement(protocol, times, tol)


FIG3 = QuenchProtocol(0.5, 2.0, 1.0, -math.pi / 2)


@pytest.mark.parametrize("small_blocks", [False, True])
def test_a_grid_through_a_log_spike_equals_the_per_sample_refinement(small_blocks):
    # many samples over tol at once: several flushes and rounds, shared children
    block_bytes = 1 << 14 if small_blocks else observables._BLOCK_BYTES
    with mock.patch.object(observables, "_BLOCK_BYTES", block_bytes):
        diag = assert_same_refinement(FIG3, np.linspace(0.0, 6.0, 601), 1e-8)
    assert diag["extra_panels"] > 100


def test_the_split_cap_stops_refinement_as_before():
    # a tolerance below roundoff keeps every sample splitting until the cap stops it
    times = np.linspace(5.4, 5.6, 30)
    caps = {"_MAX_SPLITS": 25}
    # the oracle above reads this module's cap, _refine its own
    with mock.patch.multiple(observables, **caps), mock.patch.dict(globals(), caps):
        diag = assert_same_refinement(FIG3, times, 1e-18)
    assert diag["extra_panels"] == times.size * 25
    assert diag["unconverged_samples"] == times.size


def test_a_full_fig3_cell_equals_the_per_sample_refinement():
    # configs/fig3.cfg at beta 0.1, phi -pi/2: its whole time grid
    protocol = QuenchProtocol(0.5, 2.0, 0.1, -math.pi / 2)
    diag = assert_same_refinement(protocol, np.linspace(0.0, 6.0, 2401), 1e-8)
    assert diag["extra_panels"] > 200


def _synthetic_panel_sums(half, v):
    # child 0 gets bound 0.5, child 1 bound 1.0: ties with the base panels'
    # bound 1.0 between panels of different columns and lefts
    i15 = np.multiply(half, [1.0, 3.0])
    return i15, np.broadcast_to([0.5, 1.0], i15.shape).copy()


def test_equal_bounds_split_the_leftmost_panel_as_the_heap_did():
    # synthetic base rows of equal bounds, refined with synthetic halves:
    # every round has ties, and child 1 of a split sits in a later column
    # than base panels to its right, so only "largest bound, then leftmost"
    # gives the heap's order
    lefts, widths = _base_panels(FIG3)
    old = OldRateQuad(FIG3)
    n_base = lefts.size
    err = np.ones((3, n_base))
    err[1, 10] = 2.0
    err[2, -1] = 1.5
    i15 = np.arange(3 * n_base, dtype=float).reshape(3, n_base)
    times = np.array([1.0, 2.0, 3.0])
    total = np.sum(err, axis=1)
    values, bounds, splits = np.empty(3), np.empty(3), np.zeros(3, dtype=np.int64)
    caps = {"_MAX_SPLITS": 12}
    with (
        mock.patch.multiple(observables, _panel_sums=_synthetic_panel_sums, **caps),
        mock.patch.dict(globals(), {"_panel_sums": _synthetic_panel_sums, **caps}),
    ):
        held = [(np.arange(3), times, i15.copy(), err.copy(), total.copy())]
        _refine(FIG3, 1e-8, lefts, widths, held, values, bounds, splits)
        expected = [old._refine(t, i15[s], err[s], float(total[s])) for s, t in enumerate(times)]
    assert values.tolist() == [v for v, _ in expected]
    assert bounds.tolist() == [b for _, b in expected]
    assert splits.sum() == old.extra_panels == 3 * 12
    assert splits.max() == 12

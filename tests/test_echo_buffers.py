"""The echo written into caller-owned buffers: mode_echo's out and work, the
aligned buffers they live in, the time blocks of _echo_blocks that fill
them, and the in-place steps around them.

Every in-place path must give the bits of the allocating one, leave its
inputs alone and allocate nothing of the buffers' size.  The panel sums over
the logs must give each row the bits it has alone, and the weighted sums
within a few ulp.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqpt import mode_echo, observables
from dqpt.mode_dynamics import _aligned_empty
from dqpt.observables import (
    _GL7_W,
    _GL15_W,
    _echo_blocks,
    _finite_rate_from_mode_echoes,
    _log_echo_values,
    _panel_sums,
)

finite = dict(allow_nan=False, allow_infinity=False)


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def buffer(shape, aligned):
    return _aligned_empty(shape) if aligned else np.empty(shape)


@st.composite
def echo_case(draw):
    """(A, eps', t): scalar t over modes, (T, 1) times x modes, or
    (T, 1, 1) times x (panel, 22) node data; A = 0 and the echo's zeros
    (eps' t on an odd multiple of pi/2) included."""
    layout = draw(st.sampled_from(["scalar", "modes", "nodes"]))
    if layout == "nodes":
        data_shape = (draw(st.integers(1, 4)), 22)
    else:
        data_shape = (draw(st.integers(1, 9)),)
    size = math.prod(data_shape)
    a = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0, **finite)), min_size=size,
                      max_size=size))
    eps = draw(st.lists(st.floats(0.0, 6.0, **finite), min_size=size, max_size=size))
    a, eps = np.reshape(a, data_shape), np.reshape(eps, data_shape)
    # a time that puts eps' t of the first node on the echo's m-th zero
    zero_t = (2 * draw(st.integers(0, 5)) + 1) * (0.5 * math.pi) / max(eps.flat[0], 0.1)
    time_st = st.one_of(st.floats(0.0, 50.0, **finite), st.just(zero_t), st.just(0.0))
    if layout == "scalar":
        return a, eps, draw(time_st)
    times = np.array(draw(st.lists(time_st, min_size=1, max_size=5)))
    return a, eps, times.reshape((-1,) + (1,) * len(data_shape))


@given(echo_case(), st.booleans())
@settings(deadline=None, max_examples=300)
def test_echo_into_given_buffers_is_the_allocating_echo_bit_for_bit(case, aligned):
    a, eps, t = case
    shape = np.broadcast_shapes(a.shape, eps.shape, np.shape(t))
    out, work = buffer(shape, aligned), buffer(shape, aligned)
    before = a.copy(), eps.copy()
    expected = mode_echo(a, eps, t)
    assert mode_echo(a, eps, t, out=out, work=work) is out
    assert_bitwise(out, expected)
    assert_bitwise(a, before[0])
    assert_bitwise(eps, before[1])


@given(echo_case())
@settings(deadline=None, max_examples=100)
def test_log_echo_values_in_place_are_the_allocating_logs(case):
    a, eps, t = case
    echo = mode_echo(a, eps, t)
    with np.errstate(divide="ignore"):  # an exact zero echo logs to -inf
        expected = np.log(echo)
        assert _log_echo_values(echo) is echo
    assert_bitwise(echo, expected)


@st.composite
def echo_blocks_case(draw):
    """(eps', imbalance, times, rows per block): (modes,) or (panel, 22)
    echo data and a block of 1-4 rows, so that block boundaries fall inside
    the grid."""
    if draw(st.booleans()):
        data_shape = (draw(st.integers(1, 4)), 22)
    else:
        data_shape = (draw(st.integers(1, 9)),)
    size = math.prod(data_shape)

    def node_values(lo, hi):
        values = st.lists(st.floats(lo, hi, **finite), min_size=size, max_size=size)
        return np.reshape(draw(values), data_shape)

    eps = node_values(0.0, 6.0)
    imbalance = node_values(-1.0, 1.0)
    times = np.cumsum(draw(st.lists(st.floats(1e-3, 2.0, **finite), min_size=1, max_size=11)))
    return eps, imbalance, times, draw(st.integers(1, 4))


@given(echo_blocks_case(), st.integers(0, 7))
@settings(deadline=None, max_examples=200)
def test_echo_blocks_tile_the_grid_with_the_allocating_echoes(case, spare_bytes):
    eps, imbalance, times, rows = case
    inputs = [eps.copy(), imbalance.copy()]
    block_bytes = rows * eps.nbytes + spare_bytes  # rows per block, whatever the spare

    def check(lo, tb, echo):
        assert_bitwise(tb, times[lo : lo + rows])
        assert echo.ctypes.data % 64 == 0
        assert echo.flags.c_contiguous
        assert_bitwise(echo, mode_echo(imbalance, eps, tb.reshape((-1,) + (1,) * eps.ndim)))
        echo[...] = math.nan  # callers may overwrite a block in place
        return lo

    with mock.patch.object(observables, "_BLOCK_BYTES", block_bytes):
        starts = list(_echo_blocks(check, eps, times, imbalance))
    assert starts == list(range(0, times.size, rows))
    for before, after in zip(inputs, [eps, imbalance]):
        assert_bitwise(after, before)


@st.composite
def panel_logs(draw):
    """(half, v): logs v of echoes in [0, 1], exact zeros (-inf logs) and
    NaNs among them, of shape (*leading, panel, 22), where leading is (),
    (time,) as in the bulk pass or (sample, half) as in _refine; v is a
    leading slice of a larger buffer, 0-7 doubles past a 64-byte boundary."""
    leading = tuple(draw(st.lists(st.integers(1, 4), min_size=0, max_size=2)))
    n_panels = draw(st.integers(1, 9))
    shape = (*leading, n_panels, 22)
    size = math.prod(shape)
    e = np.array(draw(st.lists(st.floats(0.0, 1.0, **finite), min_size=size, max_size=size)))
    specials = st.tuples(st.integers(0, size - 1), st.sampled_from([0.0, math.nan]))
    for i, x in draw(st.lists(specials, max_size=3)):  # few, so most rows stay finite
        e[i] = x
    e = e.reshape(shape)
    half = np.array(draw(st.lists(st.floats(1e-12, 0.05), min_size=n_panels,
                                  max_size=n_panels)))
    spare, offset = draw(st.integers(0, 3)), draw(st.integers(0, 7))
    flat = _aligned_empty(offset + math.prod(shape) + spare * 22 * n_panels)
    v = flat[offset : offset + e.size].reshape(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        v[...] = np.log(e)
    return half, v


def special_logs():
    """Three panels' logs, always checked: plain, an exact zero echo among
    the 15 GL15 nodes (+inf value) and a NaN echo among the 7 GL7 nodes."""
    e = np.linspace(0.05, 1.0, 3 * 22).reshape(3, 22)
    e[1, 3], e[2, 18] = 0.0, math.nan
    with np.errstate(divide="ignore"):
        return np.full(3, 0.01), np.log(e)


@given(panel_logs(), st.integers(0, 7))
@example(special_logs(), 3)
@settings(deadline=None, max_examples=200)
def test_panel_sums_of_a_row_alone_are_its_bits_in_the_batch(case, alone_offset):
    # rate_function(t) is a one-point compute_rate_series, and a block's rows
    # are summed wherever the block and the refinement round put them
    half, v = case
    original = v.copy()
    with np.errstate(invalid="ignore"):  # zero echoes in both rules give inf - inf
        i15, err = _panel_sums(half, v)
        assert_bitwise(v, original)  # the logs are left as they are
        for index in np.ndindex(v.shape[:-1]):
            row = _aligned_empty(alone_offset + 22)[alone_offset:]
            row[...] = v[index]
            alone_i15, alone_err = _panel_sums(half[index[-1]], row)
            assert_bitwise(alone_i15, i15[index])
            assert_bitwise(alone_err, err[index])


def fsum_rule(half, logs, weights):
    """-(half/2pi) sum_j w_j ln e_j: the rounded products summed exactly."""
    return -half / (2.0 * math.pi) * math.fsum(w * x for w, x in zip(weights, logs))


# the error allowed against fsum_rule: the rounding of 15 products of one sign
# and their sums, in any order, may reach about 19 ulp at worst; 10^5-row
# searches, random and with repeated values, never found more than 4
PANEL_SUM_ULPS = 8


@given(panel_logs())
@example(special_logs())
@settings(deadline=None, max_examples=200)
def test_panel_sums_are_the_weighted_sums_of_the_logs(case):
    half, v = case
    with np.errstate(invalid="ignore"):
        i15, err = _panel_sums(half, v)
    for index in np.ndindex(v.shape[:-1]):
        h, logs = float(half[index[-1]]), v[index].tolist()
        want = fsum_rule(h, logs[:15], _GL15_W.tolist())
        want7 = fsum_rule(h, logs[15:], _GL7_W.tolist())
        got, got_err = float(i15[index]), float(err[index])
        if not math.isfinite(want):  # a NaN, or an exact zero echo: +inf
            assert got == want or math.isnan(got) and math.isnan(want)
        else:
            assert abs(got - want) <= PANEL_SUM_ULPS * math.ulp(want)
        if math.isfinite(want) and math.isfinite(want7):
            want_err = abs(want - want7)
            slack = PANEL_SUM_ULPS * (math.ulp(want) + math.ulp(want7))
            assert abs(got_err - want_err) <= slack + math.ulp(max(got_err, want_err))
        else:
            assert not math.isfinite(got_err)


@given(
    st.lists(st.lists(st.floats(0.0, 1.0, **finite), min_size=3, max_size=3), min_size=1,
             max_size=4),
)
@settings(deadline=None, max_examples=100)
def test_finite_rate_in_place_is_the_allocating_rate(echoes):
    echoes = np.array(echoes)  # exact zeros included
    with np.errstate(divide="ignore"):
        expected = -np.sum(np.log(echoes), axis=-1) / 6
    logs = echoes.copy()
    assert_bitwise(_finite_rate_from_mode_echoes(logs, 6), expected)
    with np.errstate(divide="ignore"):
        assert_bitwise(logs, np.log(echoes))


def test_aligned_empty_is_64_byte_aligned_c_contiguous_float64():
    for shape in [(0,), (1,), (3, 7), (50000,)]:
        for _ in range(4):  # each call cuts a new over-allocated buffer
            a = _aligned_empty(shape)
            assert a.shape == shape
            assert a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable
            assert a.ctypes.data % 64 == 0


def traced_peak(call):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_echo_into_given_buffers_allocates_no_row():
    modes = 50_000
    row = 8 * modes
    a = np.linspace(-1.0, 1.0, modes)
    eps = np.linspace(0.5, 3.0, modes)
    out, work = _aligned_empty(modes), _aligned_empty(modes)
    assert traced_peak(lambda: mode_echo(a, eps, 0.7, out=out, work=work)) < row
    assert traced_peak(lambda: mode_echo(a, eps, 0.7)) >= 2 * row

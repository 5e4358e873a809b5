"""The echo written into caller-owned buffers: mode_echo's out and work, the
aligned buffers they live in, the time blocks of _echo_blocks that fill
them, and the in-place steps around them.

Every in-place path must give the bits of the allocating one, leave its
inputs alone and allocate nothing of the buffers' size.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
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
        expected = -np.log(echo) / (2.0 * math.pi)
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


def old_panel_sums(half, v):
    # the products as fresh temporaries, as before the sums worked in place
    i15 = half * np.add.reduce(v[..., :15] * _GL15_W, axis=-1)
    i7 = half * np.add.reduce(v[..., 15:] * _GL7_W, axis=-1)
    return i15, np.abs(i15 - i7)


@given(
    st.integers(1, 6),
    st.integers(1, 70),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=100)
def test_panel_sums_in_place_keep_the_bits_of_fresh_products(n_times, n_panels, spare, seed):
    # v is a leading slice of a larger aligned buffer, as in the bulk pass
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.0, 0.05, n_panels)
    buf = _aligned_empty((n_times + spare, n_panels, 22))
    v = buf[:n_times]
    v[...] = rng.uniform(0.0, 3.0, v.shape)
    original = v.copy()
    i15, err = _panel_sums(half, v)
    old_i15, old_err = old_panel_sums(half, original)
    assert_bitwise(i15, old_i15)
    assert_bitwise(err, old_err)
    assert_bitwise(v[..., :15], original[..., :15] * _GL15_W)  # documented: v is overwritten
    assert_bitwise(v[..., 15:], original[..., 15:] * _GL7_W)


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

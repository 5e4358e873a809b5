"""The finite-N rate in time blocks against the rate one time at a time.

compute_rate_series_finite evaluates the per-mode echoes on (time block x
mode) arrays sized by observables._BLOCK_BYTES and sums their logs per row.
Every value must equal rate_function_finite at that time, and the
per-sample loop the series was first written as, bit for bit, whatever
the block boundaries; slices of a grid must concatenate to the whole.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import (
    QuenchProtocol,
    compute_rate_series_finite,
    mode_coefficients,
    mode_echo,
    mode_grid,
    rate_function_finite,
)
from dqpt import observables
from dqpt.observables import _finite_rate_from_mode_echoes

SIZES = (2, 8, 1000, 100_000)


def old_rate_series_finite(protocol, n_sites, times):
    """The per-sample loop: one echo vector, one any/log/sum per time."""
    coeffs = mode_coefficients(protocol, mode_grid(n_sites).momenta)
    values = np.empty(len(times))
    for i, t in enumerate(times):
        echoes = mode_echo(coeffs.imbalance, coeffs.eps_post, float(t))
        if np.any(echoes == 0.0):
            values[i] = math.inf
        else:
            values[i] = float(-np.sum(np.log(echoes)) / n_sites)
    return values


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


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
def finite_case(draw):
    """(protocol, n_sites, rows per block or None for the default, times)."""
    protocol = draw(protocol_st)
    n = draw(st.sampled_from(SIZES))
    default_rows = max(1, observables._BLOCK_BYTES // (8 * (n // 2)))
    # the default block is 32768 rows at N = 2, so small N also runs with
    # a block shrunk to a few rows to put its boundaries inside the grid
    choices = [1, 2, 3] + ([None] if default_rows <= 65 else [])
    rows = draw(st.sampled_from(choices))
    per_block = default_rows if rows is None else rows
    length = max(1, per_block * draw(st.integers(1, 2)) + draw(st.sampled_from([-1, 0, 1])))
    t0 = draw(st.floats(0.0, 5.0, **finite))
    span = draw(st.floats(0.01, 10.0, **finite))
    return protocol, n, rows, np.linspace(t0, t0 + span, length)


@given(finite_case(), st.data())
@settings(deadline=None, max_examples=150)
def test_blocks_equal_per_sample_rates_bitwise(case, data):
    protocol, n, rows, times = case
    size = observables._BLOCK_BYTES if rows is None else rows * 8 * (n // 2)
    with mock.patch.object(observables, "_BLOCK_BYTES", size):
        series = compute_rate_series_finite(protocol, n, times)
        assert_bitwise(series.values, [rate_function_finite(protocol, n, t) for t in times])
        assert_bitwise(series.values, old_rate_series_finite(protocol, n, times))
        cut = data.draw(st.integers(0, times.size))
        parts = [compute_rate_series_finite(protocol, n, times[:cut]).values]
        parts.append(compute_rate_series_finite(protocol, n, times[cut:]).values)
    assert_bitwise(np.concatenate(parts), series.values)


@given(
    st.integers(1, 6),
    st.integers(1, 40),
    st.data(),
)
@settings(deadline=None, max_examples=200)
def test_a_zero_makes_its_row_infinite_and_rows_match_1d_calls(n_rows, n_modes, data):
    echoes = np.asarray(
        data.draw(
            st.lists(
                st.lists(st.floats(1e-300, 1.0, **finite), min_size=n_modes, max_size=n_modes),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
    )
    row = data.draw(st.integers(0, n_rows - 1))
    echoes[row, data.draw(st.integers(0, n_modes - 1))] = 0.0
    n_sites = 2 * n_modes
    out = _finite_rate_from_mode_echoes(echoes.copy(), n_sites)  # it logs in place
    assert out.shape == (n_rows,)
    assert out[row] == math.inf
    assert np.all(np.isfinite(np.delete(out, row)))
    singles = [_finite_rate_from_mode_echoes(echoes[i].copy(), n_sites) for i in range(n_rows)]
    assert all(type(v) is float for v in singles)
    assert_bitwise(out, singles)


def test_block_of_one_is_a_float():
    p = QuenchProtocol(0.5, 2.0, 10.0)
    value = rate_function_finite(p, 8, 1.3)
    assert type(value) is float
    assert_bitwise(value, compute_rate_series_finite(p, 8, [1.3]).values[0])
    assert compute_rate_series_finite(p, 8, []).values.shape == (0,)

"""mode_echo, the one per-mode echo formula, against the amplitude and the
matrix-route null-work probability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import (
    QuenchProtocol,
    mode_amplitude,
    mode_coefficients,
    mode_echo,
    null_work_decomposition,
)

finite = dict(allow_nan=False, allow_infinity=False)
sample_st = st.tuples(
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 3.0, **finite),
    st.floats(0.01, 1000.0, **finite),
    st.floats(-math.pi, math.pi, **finite),
    st.floats(1e-6, math.pi - 1e-6, **finite),
    st.floats(0.0, 50.0, **finite),
)


@given(sample_st)
@settings(deadline=None, max_examples=300)
def test_echo_is_squared_amplitude_and_null_work_is_echo_of_cos_2dtheta(sample):
    lam, lamp, beta, phi, k, t = sample
    p = QuenchProtocol(lam, lamp, beta, phi)
    c = mode_coefficients(p, k)
    echo = mode_echo(c.imbalance, c.eps_post, t)
    assert echo == pytest.approx(abs(mode_amplitude(c, t)) ** 2, rel=1e-13, abs=0.0)
    null = mode_echo(math.cos(2.0 * c.delta_theta), c.eps_post, t)
    assert abs(null - null_work_decomposition(p, k, t)[0]) <= 1e-12


def test_broadcasts_like_elementwise_calls():
    p = QuenchProtocol(0.5, 2.0, 1.0, math.pi / 2)
    c = mode_coefficients(p, np.linspace(0.1, 3.0, 7))
    times = np.linspace(0.0, 5.0, 4)
    grid = mode_echo(c.imbalance, c.eps_post, times[:, None])
    assert grid.shape == (4, 7)
    for i, t in enumerate(times):
        for j in range(7):
            assert grid[i, j] == mode_echo(c.imbalance[j], c.eps_post[j], float(t))


def test_scalar_in_scalar_out_and_inputs_untouched():
    eps = np.array([1.0, 2.0])
    t = np.array([0.5, 0.25])
    assert isinstance(mode_echo(0.3, 1.0, 0.5), float)
    assert mode_echo(0.3, 1.0, 0.0) == 1.0
    mode_echo(np.array([0.3, 0.4]), eps, t)
    assert eps.tolist() == [1.0, 2.0] and t.tolist() == [0.5, 0.25]

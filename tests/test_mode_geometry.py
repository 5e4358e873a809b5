"""The mode primitives against the formulas they were composed from.

mode_coefficients takes cos k, sin k and one hypot per field once and
shares them between the energies and the mixing angles; dispersion and
bogoliubov_angle go through the same two model helpers.  The oracle below
is the code as first written, one formula per call: every field must agree
bit for bit, for arrays, scalars and 0-d arrays alike.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import (
    K_EPS,
    ModeCoefficients,
    QuenchProtocol,
    bogoliubov_angle,
    delta_theta,
    dispersion,
    fisher_zero_line,
    mode_coefficients,
)

FIELDS = (
    "eps_pre",
    "eps_post",
    "delta_theta",
    "imbalance",
    "weight_plus",
    "weight_minus",
)


def old_dispersion(k, lam, coupling: float = 1.0):
    out = coupling * np.hypot(lam - np.cos(k), np.sin(k))
    return out.item() if np.ndim(out) == 0 else out


def old_bogoliubov_angle(k, lam):
    d = lam - np.cos(k)
    eps = np.hypot(d, np.sin(k))
    im = np.sin(k)
    with np.errstate(invalid="ignore", divide="ignore"):
        re = np.where(d > 0.0, -(im * im) / (d + eps), d - eps)
    if np.any((re == 0.0) & (im == 0.0)):
        raise ValueError(
            "mixing angle undefined: defining complex number vanishes "
            f"(k=0 with field {lam!r} >= 1)"
        )
    out = np.arctan2(im, re)
    return out.item() if np.ndim(out) == 0 else out


def old_delta_theta(k, protocol):
    return old_bogoliubov_angle(k, protocol.lambda_pre) - old_bogoliubov_angle(
        k, protocol.lambda_post
    )


def old_mode_coefficients(protocol, k):
    eps_pre = np.asarray(old_dispersion(k, protocol.lambda_pre, protocol.coupling))
    eps_post = np.asarray(old_dispersion(k, protocol.lambda_post, protocol.coupling))
    dth = np.asarray(old_delta_theta(k, protocol))

    x = protocol.beta * eps_pre
    em = np.exp(-x)
    em2 = em * em
    denom = 1.0 + em2
    sphi = math.sin(protocol.phi)

    c2 = np.cos(2.0 * dth)
    s2 = np.sin(2.0 * dth)
    imbalance = c2 * np.tanh(x) + sphi * s2 * (2.0 * em / denom)

    ch = np.cos(dth)
    sh = np.sin(dth)
    w_plus = (em2 * ch * ch + sh * sh - sphi * s2 * em) / denom
    w_minus = (em2 * sh * sh + ch * ch + sphi * s2 * em) / denom
    w_plus = np.maximum(w_plus, 0.0)
    w_minus = np.maximum(w_minus, 0.0)

    # a plain namespace: ModeCoefficients computes its weights itself
    if np.ndim(k) == 0:
        return SimpleNamespace(
            eps_pre=float(eps_pre),
            eps_post=float(eps_post),
            delta_theta=float(dth),
            imbalance=float(imbalance),
            weight_plus=float(w_plus),
            weight_minus=float(w_minus),
        )
    return SimpleNamespace(
        eps_pre=eps_pre,
        eps_post=eps_post,
        delta_theta=dth,
        imbalance=imbalance,
        weight_plus=w_plus,
        weight_minus=w_minus,
    )


def outcome(fn, *args):
    """("ok", value) or ("ValueError", message): what a call produced."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def assert_bitwise(new, old):
    assert type(new) is type(old)
    assert np.shape(new) == np.shape(old)
    a = np.ascontiguousarray(new, dtype=float).view(np.int64)
    b = np.ascontiguousarray(old, dtype=float).view(np.int64)
    np.testing.assert_array_equal(a, b)


def assert_same_outcome(fn, old_fn, *args):
    (kind, new), (old_kind, old) = outcome(fn, *args), outcome(old_fn, *args)
    assert kind == old_kind
    if kind == "ValueError":
        assert new == old
    elif isinstance(new, ModeCoefficients):
        # the weights are computed on first read: read them last here, first
        # on a second result, and once more from the cache
        again = fn(*args)
        for name in (*FIELDS, *FIELDS[-2:]):
            assert_bitwise(getattr(new, name), getattr(old, name))
        for name in (*FIELDS[-2:], *FIELDS[:-2]):
            assert_bitwise(getattr(again, name), getattr(old, name))
    else:
        assert_bitwise(new, old)


# perfbench's protocol distribution, with the coupling drawn as well
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
    st.floats(0.1, 5.0, **finite),
)
edge_k = st.sampled_from([0.0, K_EPS, math.pi - K_EPS, math.pi])
k_scalar = st.one_of(edge_k, st.floats(K_EPS, math.pi - K_EPS, **finite))
k_any = st.one_of(
    k_scalar,
    k_scalar.map(np.float64),
    k_scalar.map(np.asarray),
    st.lists(k_scalar, min_size=1, max_size=40).map(np.asarray),
    st.integers(2, 300).map(lambda n: np.linspace(K_EPS, math.pi - K_EPS, n)),
)


@given(protocol_st, k_any)
@settings(deadline=None, max_examples=500)
def test_mode_coefficients_bitwise_equal_to_composed_formulas(protocol, k):
    assert_same_outcome(mode_coefficients, old_mode_coefficients, protocol, k)


@given(protocol_st, k_any)
@settings(deadline=None, max_examples=300)
def test_model_primitives_bitwise_equal_to_first_forms(protocol, k):
    for lam in (protocol.lambda_pre, protocol.lambda_post):
        assert_same_outcome(dispersion, old_dispersion, k, lam, protocol.coupling)
        assert_same_outcome(bogoliubov_angle, old_bogoliubov_angle, k, lam)
    assert_same_outcome(delta_theta, old_delta_theta, k, protocol)


@pytest.mark.parametrize(
    "lambda_pre,lambda_post", [(1.0, 0.5), (2.5, 0.5), (0.5, 1.0), (0.5, 2.5), (1.5, 2.0)]
)
@pytest.mark.parametrize("k", [0.0, np.asarray(0.0), np.array([0.0, 1.0, math.pi])])
def test_zone_center_without_angle_raises_the_same_error(lambda_pre, lambda_post, k):
    protocol = QuenchProtocol(lambda_pre, lambda_post, 1.0, 0.3)
    with pytest.raises(ValueError) as new:
        mode_coefficients(protocol, k)
    with pytest.raises(ValueError) as old:
        old_mode_coefficients(protocol, k)
    assert str(new.value) == str(old.value)
    first = lambda_pre if lambda_pre >= 1.0 else lambda_post  # the pre-quench angle comes first
    assert f"field {first!r} >= 1" in str(new.value)


def _weight_zero(protocol):
    """The momentum where the phi = +-pi/2 weight's square root e^{-x} cos
    dtheta - sin dtheta (+pi/2) or e^{-x} sin dtheta - cos dtheta (-pi/2)
    changes sign, by bisection on the oracle's fields."""

    def root(k):
        c = old_mode_coefficients(protocol, k)
        em, dth = math.exp(-protocol.beta * c.eps_pre), c.delta_theta
        if protocol.phi > 0.0:
            return em * math.cos(dth) - math.sin(dth)
        return em * math.sin(dth) - math.cos(dth)

    a, b = 1e-3, math.pi - 1e-3
    fa = root(a)
    assert (fa < 0.0) != (root(b) < 0.0)
    for _ in range(200):
        m = 0.5 * (a + b)
        if (root(m) < 0.0) == (fa < 0.0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


@pytest.mark.parametrize("beta", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2])
def test_fisher_subset_weights_bitwise_equal_to_the_oracle_subset(beta, phi):
    # next to a weight's double zero roundoff leaves it slightly either side of
    # 0 and the clamp makes it exactly 0, so some samples are skipped
    protocol = QuenchProtocol(0.5, 2.0, beta, phi)
    k = _weight_zero(protocol) + np.arange(-40, 41) * 1e-10
    old = old_mode_coefficients(protocol, k)
    ok = (old.weight_plus > 0.0) & (old.weight_minus > 0.0)
    assert 0 < np.count_nonzero(ok) < k.size
    for shared in (None, mode_coefficients(protocol, k)):
        line = fisher_zero_line(protocol, 1, k, shared)
        assert_bitwise(line.skipped, k[~ok])
        kept = line.coefficients
        for name in (*FIELDS[-2:], *FIELDS):  # the weights first, then again from the cache
            assert_bitwise(getattr(kept, name), getattr(old, name)[ok])
        eps = old.eps_post[ok]
        re = (np.log(old.weight_plus[ok]) - np.log(old.weight_minus[ok])) / (2.0 * eps)
        assert_bitwise(line.zeros.real, re)

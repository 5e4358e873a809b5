import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqpt.mode_dynamics as md
from dqpt import (
    VARIANTS,
    ModeCoefficients,
    QuenchProtocol,
    boundary_partition,
    compute_rate_series,
    compute_rate_series_finite,
    critical_modes,
    delta_theta,
    dispersion,
    evolution_operator,
    fisher_zero_line,
    mode_amplitude,
    mode_amplitude_oracle,
    mode_coefficients,
    mode_eigenvectors,
    null_work_decomposition,
    phase_profile,
    variant_report,
)

K_STAR = math.acos(0.8)  # equal-population momentum of the 0.5 -> 2 quench


def mode_hamiltonian(k, lam, coupling=1.0):
    a = coupling * (lam - math.cos(k))
    b = coupling * math.sin(k)
    return np.array([[a, -1j * b], [1j * b, -a]])


finite = dict(allow_nan=False, allow_infinity=False)
sample_st = st.tuples(
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 3.0, **finite),
    st.floats(0.01, 1000.0, **finite),
    st.floats(-math.pi, math.pi, **finite),
    st.floats(1e-6, math.pi - 1e-6, **finite),
    st.floats(0.0, 20.0, **finite),
)


@given(sample_st)
@settings(deadline=None, max_examples=300)
def test_mode_quantities_satisfy_all_invariants(sample):
    lam, lamp, beta, phi, k, t = sample
    p = QuenchProtocol(lam, lamp, beta, phi)
    c = mode_coefficients(p, k)

    assert abs(c.imbalance) <= 1.0 + 1e-12
    assert -1e-12 <= c.weight_plus <= 1.0 + 1e-12
    assert -1e-12 <= c.weight_minus <= 1.0 + 1e-12
    assert c.weight_plus + c.weight_minus == pytest.approx(1.0, abs=1e-12)
    assert c.weight_plus - c.weight_minus == pytest.approx(-c.imbalance, abs=1e-12)

    g = mode_amplitude(c, t)
    assert abs(g) <= 1.0 + 1e-12
    assert abs(g - mode_amplitude_oracle(p, k, t)) <= 1e-12
    assert abs(boundary_partition(c, 1j * t) - g) <= 1e-12


class TestModeCoefficients:
    def test_ground_state_limit_weights_are_overlaps(self):
        p = QuenchProtocol(0.5, 2.0, math.inf)
        c = mode_coefficients(p, 0.9)
        dth = delta_theta(0.9, p)
        assert c.weight_plus == math.sin(dth) ** 2
        assert c.weight_minus == pytest.approx(math.cos(dth) ** 2, abs=1e-15)
        assert c.imbalance == pytest.approx(math.cos(2.0 * dth), abs=1e-15)

    def test_trivial_quench_reduces_to_thermal_population(self):
        p = QuenchProtocol(1.3, 1.3, 2.0, phi=0.7)
        k = 0.9
        c = mode_coefficients(p, k)
        x = 2.0 * dispersion(k, 1.3)
        assert c.imbalance == pytest.approx(math.tanh(x), abs=1e-15)
        assert c.weight_minus == pytest.approx(1.0 / (1.0 + math.exp(-2.0 * x)), abs=1e-15)

    def test_imbalance_vanishes_at_equal_population_momentum(self):
        for beta in (10.0, 1.0, 0.1):
            c = mode_coefficients(QuenchProtocol(0.5, 2.0, beta), K_STAR)
            assert abs(c.imbalance) < 1e-12

    def test_extreme_beta_weights_stay_finite(self):
        for beta in (1e3, 1e6, math.inf):
            c = mode_coefficients(QuenchProtocol(0.5, 2.0, beta, phi=0.4), 2.5)
            assert math.isfinite(c.weight_plus) and math.isfinite(c.weight_minus)

    def test_array_momenta_broadcast(self):
        k = np.linspace(0.1, 3.0, 7)
        c = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0, 0.3), k)
        assert c.imbalance.shape == (7,)
        assert c.weight_plus.shape == (7,)

    def test_weights_are_computed_once_and_read_only(self):
        c = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0, 0.3), np.linspace(0.1, 3.0, 7))
        assert c.weight_plus is c.weight_plus and c.weight_minus is c.weight_minus
        for name in ("weight_plus", "weight_minus"):
            with pytest.raises(AttributeError):
                setattr(c, name, 0.0)


def test_only_the_fisher_line_and_boundary_partition_read_the_weights(monkeypatch):
    def unread(self):
        raise AssertionError("eigenbasis weights read")

    monkeypatch.setattr(ModeCoefficients, "weight_plus", property(unread))
    monkeypatch.setattr(ModeCoefficients, "weight_minus", property(unread))
    p = QuenchProtocol(1.5, 2.0, 0.1, -math.pi / 2)  # fig4: two roots in each variant
    times = np.linspace(0.0, 6.0, 31)
    assert phase_profile(p, 2.0).refinements >= 0
    for variant in VARIANTS:
        assert critical_modes(p, variant).modes.size == 2
    assert len(variant_report(p).rows) == 4
    assert np.isfinite(compute_rate_series(p, times).values).all()
    assert np.isfinite(compute_rate_series_finite(p, 100, times).values).all()
    # the spy is live: the readers do raise
    with pytest.raises(AssertionError, match="weights read"):
        fisher_zero_line(p, 0, [1.0])
    with pytest.raises(AssertionError, match="weights read"):
        boundary_partition(mode_coefficients(p, 1.0), 0.5j)


class TestModeAmplitude:
    def test_starts_at_unity(self):
        c = mode_coefficients(QuenchProtocol(0.5, 2.0, 10.0), 1.1)
        assert mode_amplitude(c, 0.0) == 1.0 + 0.0j

    def test_periodic_in_time(self):
        p = QuenchProtocol(0.5, 2.0, 1.0, 0.5)
        c = mode_coefficients(p, 1.1)
        period = math.tau / c.eps_post
        assert mode_amplitude(c, 1.3 + period) == pytest.approx(mode_amplitude(c, 1.3), abs=1e-9)

    def test_vanishes_at_critical_mode_and_time(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        c = mode_coefficients(p, K_STAR)
        t_star = math.pi / (2.0 * c.eps_post)
        assert abs(mode_amplitude(c, t_star)) < 1e-10

    def test_time_array_broadcast(self):
        c = mode_coefficients(QuenchProtocol(0.5, 2.0, 10.0), 1.1)
        t = np.linspace(0.0, 5.0, 11)
        g = mode_amplitude(c, t)
        assert g.shape == (11,) and g.dtype == complex


class TestEigenvectorsAndPropagator:
    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = rng.uniform(1e-6, math.pi - 1e-6)
            lam = rng.uniform(0.0, 3.0)
            up, lo = mode_eigenvectors(k, lam)
            assert abs(np.vdot(up, up) - 1.0) < 1e-12
            assert abs(np.vdot(lo, lo) - 1.0) < 1e-12
            assert abs(np.vdot(up, lo)) < 1e-12

    def test_eigenvectors_diagonalize_mode_hamiltonian(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = rng.uniform(1e-6, math.pi - 1e-6)
            lam = rng.uniform(0.0, 3.0)
            h = mode_hamiltonian(k, lam)
            eps = dispersion(k, lam)
            up, lo = mode_eigenvectors(k, lam)
            assert np.max(np.abs(h @ up - eps * up)) < 1e-12
            assert np.max(np.abs(h @ lo + eps * lo)) < 1e-12

    def test_propagator_unitary_and_composes(self):
        u1 = evolution_operator(1.1, 2.0, 0.7)
        u2 = evolution_operator(1.1, 2.0, 1.9)
        assert np.max(np.abs(u1.conj().T @ u1 - np.eye(2))) < 1e-12
        assert np.max(np.abs(u1 @ u2 - evolution_operator(1.1, 2.0, 2.6))) < 1e-12

    def test_propagator_identity_at_zero_time(self):
        np.testing.assert_array_equal(evolution_operator(1.1, 2.0, 0.0), np.eye(2))

    def test_propagator_generated_by_mode_hamiltonian(self):
        k, lam, t = 0.8, 1.7, 1.3
        h = mode_hamiltonian(k, lam)
        w, v = np.linalg.eigh(h)
        u_ref = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
        assert np.max(np.abs(evolution_operator(k, lam, t) - u_ref)) < 1e-12

    def test_gapless_mode_is_frozen(self):
        # at the critical field the zone-center mode has zero energy
        np.testing.assert_array_equal(evolution_operator(0.0, 1.0, 5.0), np.eye(2))


class TestBoundaryPartition:
    def test_unity_at_origin(self):
        c = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0, 0.3), 1.1)
        assert boundary_partition(c, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_real_axis_values_are_real_weight_sums(self):
        c = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0), 1.1)
        z = boundary_partition(c, 0.8)
        expected = (
            math.exp(-0.8 * c.eps_post) * c.weight_plus
            + math.exp(0.8 * c.eps_post) * c.weight_minus
        )
        assert z == pytest.approx(expected, rel=1e-12)

    def test_far_real_argument_overflows_loudly(self):
        c = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0), 1.1)
        with pytest.raises(OverflowError):
            boundary_partition(c, 800.0 / c.eps_post)


class TestNullWorkDecomposition:
    def test_zero_time(self):
        null, interference = null_work_decomposition(QuenchProtocol(0.5, 2.0, 1.0, 0.4), 1.1, 0.0)
        assert null == pytest.approx(1.0, abs=1e-12)
        assert interference == pytest.approx(0.0, abs=1e-12)

    def test_trivial_quench_dephasing(self):
        # populations are untouched (null work certain) yet the two-level
        # superposition still dephases: interference = -sech^2 sin^2(eps t)
        p = QuenchProtocol(1.3, 1.3, 2.0, phi=0.9)
        eps = dispersion(0.9, 1.3)
        for t in (0.5, 2.0, 7.7):
            null, interference = null_work_decomposition(p, 0.9, t)
            assert null == pytest.approx(1.0, abs=1e-12)
            expected = -(math.sin(eps * t) / math.cosh(2.0 * eps)) ** 2
            assert interference == pytest.approx(expected, abs=1e-12)

    def test_ground_state_has_no_interference(self):
        p = QuenchProtocol(0.5, 2.0, math.inf, phi=0.9)
        for t in (0.5, 2.0, 7.7):
            _, interference = null_work_decomposition(p, 0.9, t)
            assert abs(interference) < 1e-12

    def test_thermal_interference_closed_form(self):
        # at phi = 0 the coherence term is -cos^2(2 dth) sech^2(beta eps) sin^2(eps' t)
        rng = np.random.default_rng(4)
        for _ in range(200):
            lam, lamp = rng.uniform(0.0, 3.0, 2)
            beta = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
            k = rng.uniform(1e-6, math.pi - 1e-6)
            t = rng.uniform(0.0, 20.0)
            p = QuenchProtocol(lam, lamp, beta, 0.0)
            _, interference = null_work_decomposition(p, k, t)
            x = beta * dispersion(k, lam)
            sech = 2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))
            dth = delta_theta(k, p)
            expected = (
                -math.cos(2.0 * dth) ** 2
                * sech**2
                * math.sin(dispersion(k, lamp) * t) ** 2
            )
            assert interference == pytest.approx(expected, abs=1e-12)

    def test_decomposition_sums_to_echo(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            lam, lamp = rng.uniform(0.0, 3.0, 2)
            beta = math.exp(rng.uniform(math.log(0.01), math.log(1000.0)))
            phi = rng.uniform(-math.pi, math.pi)
            k = rng.uniform(1e-6, math.pi - 1e-6)
            t = rng.uniform(0.0, 20.0)
            p = QuenchProtocol(lam, lamp, beta, phi)
            null, interference = null_work_decomposition(p, k, t)
            echo = abs(mode_amplitude(mode_coefficients(p, k), t)) ** 2
            assert null + interference == pytest.approx(echo, abs=1e-12)


def test_cross_propagator_elements_cancel_in_pre_quench_basis():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam, lamp = rng.uniform(0.0, 3.0, 2)
        k = rng.uniform(1e-6, math.pi - 1e-6)
        t = rng.uniform(0.0, 20.0)
        up, lo = mode_eigenvectors(k, lam)
        u = evolution_operator(k, lamp, t)
        cross = complex(np.vdot(up, u @ lo)) + complex(np.vdot(lo, u @ up))
        assert abs(cross) < 1e-12


# --- mode_coefficients in slices of _CHUNK momenta ---------------------------

COEFF_FIELDS = ("eps_pre", "eps_post", "delta_theta", "imbalance", "weight_plus", "weight_minus")


def coefficient_fields(protocol, k):
    c = mode_coefficients(protocol, k)
    return [getattr(c, name) for name in COEFF_FIELDS]


def assert_same_fields(got, want):
    for name, g, w in zip(COEFF_FIELDS, got, want):
        assert type(g) is type(w), name
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.dtype == w.dtype, name
        assert np.array_equal(g.view(np.int64), w.view(np.int64)), name


protocol_st = st.builds(
    QuenchProtocol,
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 3.0, **finite),
    st.one_of(st.sampled_from([math.inf, 1e-300, 1e300]), st.floats(1e-3, 50.0)),
    st.floats(-math.pi, math.pi, **finite),
    st.floats(0.1, 10.0, **finite),
)
momentum_st = st.one_of(st.sampled_from([0.0, 1e-300, math.pi]), st.floats(0.0, math.pi))


@given(
    protocol_st,
    st.lists(momentum_st, min_size=0, max_size=40),
    st.sampled_from([None, 2, 3]),
)
@settings(deadline=None, max_examples=300)
def test_sliced_coefficients_are_one_calls_bits(protocol, momenta, columns):
    k = np.array(momenta, dtype=float)
    if columns is not None:  # a 2-d grid, as the quadrature's (panel, node) nodes
        k = k[: k.size - k.size % columns].reshape(-1, columns)
    try:
        want = coefficient_fields(protocol, k)  # one call: k.size is far below _CHUNK
    except ValueError as exc:  # k = 0 with a field >= 1
        with pytest.raises(ValueError) as raised, mock.patch.object(md, "_CHUNK", 7):
            coefficient_fields(protocol, k)
        assert str(raised.value) == str(exc)
        return
    with mock.patch.object(md, "_CHUNK", 7):  # sizes 8 to 40 cross one to five slice edges
        got = coefficient_fields(protocol, k)
    assert_same_fields(got, want)


@pytest.mark.parametrize("k", [0.0, 1.3, math.pi, np.float64(0.4), np.array(2.2)])
def test_a_scalar_momentum_takes_no_slices(k):
    protocol = QuenchProtocol(0.5, 0.8, 10.0, 0.7)  # both fields below 1: k = 0 has an angle
    want = coefficient_fields(protocol, k)
    with mock.patch.object(md, "_CHUNK", 1):  # any array of two or more would be sliced
        assert_same_fields(coefficient_fields(protocol, k), want)
    assert all(type(v) is float for v in want)


@pytest.mark.parametrize("lambdas", [(1.5, 0.5), (0.5, 1.0)])
def test_the_undefined_angle_is_raised_from_a_later_slice(lambdas):
    protocol = QuenchProtocol(*lambdas, 2.0)
    k = np.linspace(0.1, 3.0, 20)
    k[17] = 0.0  # in the third slice of 7
    with pytest.raises(ValueError, match="mixing angle undefined") as whole:
        mode_coefficients(protocol, k)
    with mock.patch.object(md, "_CHUNK", 7), pytest.raises(ValueError) as sliced:
        mode_coefficients(protocol, k)
    assert str(sliced.value) == str(whole.value)

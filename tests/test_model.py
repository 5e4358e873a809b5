import dataclasses
import math
import warnings

import numpy as np
import pytest

from dqpt import (
    K_EPS,
    QuenchProtocol,
    bogoliubov_angle,
    delta_theta,
    dispersion,
    mode_coefficients,
    mode_grid,
)


class TestModeGrid:
    def test_two_sites(self):
        g = mode_grid(2)
        np.testing.assert_allclose(g.momenta, [math.pi / 2])

    def test_four_sites(self):
        np.testing.assert_allclose(mode_grid(4).momenta, [math.pi / 4, 3 * math.pi / 4])

    def test_eight_sites(self):
        expected = [(2 * n - 1) * math.pi / 8 for n in range(1, 5)]
        np.testing.assert_allclose(mode_grid(8).momenta, expected)

    def test_momenta_lie_strictly_inside_zone(self):
        k = mode_grid(1000).momenta
        assert k.shape == (500,)
        assert np.all(k > 0.0) and np.all(k < math.pi)
        assert np.all(np.diff(k) > 0.0)

    @pytest.mark.parametrize("bad", [0, -2, 3, 7, 1])
    def test_rejects_odd_or_nonpositive_counts(self, bad):
        with pytest.raises(ValueError):
            mode_grid(bad)

    @pytest.mark.parametrize("bad", [2.0, "4", True, None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises((TypeError, ValueError)):
            mode_grid(bad)


class TestDispersion:
    def test_zero_field_band_is_flat(self):
        k = np.linspace(0.0, math.pi, 50)
        np.testing.assert_allclose(dispersion(k, 0.0), np.ones(50))

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 1.7, 2.5])
    def test_zone_center_gap(self, lam):
        assert dispersion(0.0, lam) == pytest.approx(abs(lam - 1.0), abs=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 2.5])
    def test_zone_edge_value(self, lam):
        assert dispersion(math.pi, lam) == pytest.approx(lam + 1.0, abs=1e-15)

    def test_gap_closes_only_at_critical_field(self):
        assert dispersion(0.0, 1.0) == 0.0
        assert dispersion(0.0, 0.999) > 0.0

    @pytest.mark.parametrize("lam", [0.2, 0.8, 1.5, 3.0])
    def test_monotone_across_zone(self, lam):
        k = np.linspace(0.0, math.pi, 400)
        assert np.all(np.diff(dispersion(k, lam)) > 0.0)

    def test_coupling_scales_linearly(self):
        k = np.linspace(0.1, 3.0, 17)
        np.testing.assert_allclose(dispersion(k, 0.7, coupling=2.5), 2.5 * dispersion(k, 0.7))

    def test_scalar_input_returns_scalar(self):
        out = dispersion(0.5, 2.0)
        assert isinstance(out, float)


class TestBogoliubovAngle:
    def test_zero_field_midzone(self):
        assert bogoliubov_angle(math.pi / 2, 0.0) == pytest.approx(3 * math.pi / 4)

    def test_lies_in_upper_left_quadrant_inside_zone(self):
        k = np.linspace(1e-6, math.pi - 1e-6, 300)
        for lam in (0.0, 0.5, 1.0, 2.0):
            th = bogoliubov_angle(k, lam)
            assert np.all(th > math.pi / 2) and np.all(th < math.pi)

    def test_matches_normalized_phase_definition(self):
        # the naive reference below cancels near k = 0, so stay midzone
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = rng.uniform(1e-3, math.pi - 1e-3)
            lam = rng.uniform(0.0, 3.0)
            num = lam - math.cos(k) - dispersion(k, lam) + 1j * math.sin(k)
            th = bogoliubov_angle(k, lam)
            assert abs(np.exp(1j * th) - num / abs(num)) < 1e-12

    def test_zone_center_ferromagnetic_limit(self):
        assert bogoliubov_angle(0.0, 0.5) == math.pi

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
    def test_zone_center_undefined_from_paramagnet(self, lam):
        with pytest.raises(ValueError):
            bogoliubov_angle(0.0, lam)

    @pytest.mark.parametrize("k", [0.0, K_EPS, math.pi - K_EPS, math.pi])
    @pytest.mark.parametrize("form", [float, np.asarray, lambda k: np.array([k, 1.0])])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_zone_ends_raise_no_floating_point_warning(self, k, form, lam):
        # the conjugate quotient is formed only where d > 0, so k = 0 with
        # lam < 1 never divides 0 by 0; k = 0 with lam >= 1 has no angle
        message = (
            "mixing angle undefined: defining complex number vanishes "
            f"(k=0 with field {lam!r} >= 1)"
        )
        undefined = k == 0.0 and lam >= 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, args in [
                (bogoliubov_angle, (form(k), lam)),
                (mode_coefficients, (QuenchProtocol(lam, 0.5, 1.0, 0.3), form(k))),
                (mode_coefficients, (QuenchProtocol(0.5, lam, math.inf, -0.3), form(k))),
            ]:
                if undefined:
                    with pytest.raises(ValueError) as exc:
                        fn(*args)
                    assert str(exc.value) == message
                else:
                    fn(*args)

    def test_float_pi_zone_edge_is_regular(self):
        # sin(float pi) is tiny but nonzero, so the angle degrades gracefully
        assert bogoliubov_angle(np.pi, 2.0) == pytest.approx(math.pi / 2, abs=1e-12)


class TestDeltaTheta:
    def test_trivial_quench_vanishes(self):
        p = QuenchProtocol(1.3, 1.3, 2.0)
        k = np.linspace(1e-6, math.pi - 1e-6, 100)
        np.testing.assert_allclose(delta_theta(k, p), np.zeros(100), atol=1e-15)

    def test_continuous_across_zone(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        k = np.linspace(1e-8, math.pi - 1e-8, 10000)
        assert np.max(np.abs(np.diff(delta_theta(k, p)))) < 0.01

    def test_zone_center_ground_states_orthogonal_across_transition(self):
        # quench straddling the critical field: pre/post ground states at
        # k -> 0 differ maximally, i.e. cos(2 dtheta) -> -1
        p = QuenchProtocol(0.5, 2.0, 10.0)
        assert math.cos(2.0 * delta_theta(1e-8, p)) == pytest.approx(-1.0, abs=1e-6)

    def test_equal_population_momentum_closed_form(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        k_star = math.acos((1.0 + 0.5 * 2.0) / (0.5 + 2.0))
        assert abs(math.cos(2.0 * delta_theta(k_star, p))) < 1e-12


class TestQuenchProtocol:
    def test_defaults(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        assert p.phi == 0.0 and p.coupling == 1.0

    def test_phase_wraps_to_half_open_interval(self):
        assert QuenchProtocol(0.5, 2.0, 1.0, phi=-math.pi).phi == math.pi
        assert QuenchProtocol(0.5, 2.0, 1.0, phi=3 * math.pi).phi == pytest.approx(math.pi)
        assert QuenchProtocol(0.5, 2.0, 1.0, phi=math.tau).phi == pytest.approx(0.0, abs=1e-15)

    def test_infinite_beta_accepted(self):
        assert math.isinf(QuenchProtocol(0.5, 2.0, math.inf).beta)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda_pre=-0.1, lambda_post=2.0, beta=1.0),
            dict(lambda_pre=0.5, lambda_post=-2.0, beta=1.0),
            dict(lambda_pre=math.inf, lambda_post=2.0, beta=1.0),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=0.0),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=-1.0),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=math.nan),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=1.0, phi=math.nan),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=1.0, phi=math.inf),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=1.0, coupling=0.0),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=1.0, coupling=-2.0),
            dict(lambda_pre=0.5, lambda_post=2.0, beta=1.0, coupling=1e308),
            dict(lambda_pre=2.0, lambda_post=0.5, beta=1.0, coupling=1e308),
            # twice the energy bound overflows: t*_0 would be 0, the mixing angle inf
            dict(lambda_pre=0.5, lambda_post=1e308, beta=10.0),
            dict(lambda_pre=1.7e308, lambda_post=2.0, beta=10.0, phi=0.0, coupling=0.5),
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            QuenchProtocol(**kwargs)

    @pytest.mark.parametrize("lambdas", [(0.5, 2.0), (2.0, 0.5)])
    def test_a_coupling_whose_mode_energies_stay_finite_is_accepted(self, lambdas):
        # every mode energy is at most coupling * (max(lambda_pre, lambda_post) + 1)
        p = QuenchProtocol(*lambdas, 1.0, coupling=1e300)
        assert dispersion(math.pi, max(lambdas), p.coupling) == 3e300

    @pytest.mark.parametrize("lambdas", [(0.5, 8e307), (8e307, 0.5)])
    def test_a_field_whose_doubled_energy_bound_stays_finite_is_accepted(self, lambdas):
        p = QuenchProtocol(*lambdas, 10.0)
        k = np.linspace(0.1, math.pi, 8)
        assert np.isfinite(2.0 * dispersion(k, max(lambdas), p.coupling)).all()
        assert np.isfinite(bogoliubov_angle(k, max(lambdas))).all()

    def test_immutable(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.beta = 1.0

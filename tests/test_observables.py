import functools
import math

import numpy as np
import pytest

from dqpt import (
    QuenchProtocol,
    RateSeries,
    UnwrapError,
    compute_rate_series,
    compute_rate_series_finite,
    critical_rate_function,
    critical_times,
    detect_cusps,
    dispersion,
    mode_coefficients,
    mode_eigenvectors,
    phase_profile,
    rate_function,
    rate_function_finite,
    winding_number,
)
from dqpt import observables
from dqpt.mode_dynamics import mode_amplitude
from dqpt.observables import _finite_rate_from_mode_echoes

K_STAR = math.acos(0.8)
STANDARD = QuenchProtocol(0.5, 2.0, 10.0)
T_STAR = math.pi / (2.0 * dispersion(K_STAR, 2.0))


class TestRateFunction:
    def test_zero_at_zero_time(self):
        value, err = rate_function(STANDARD, 0.0)
        assert abs(value) < 1e-14
        assert err >= 0.0

    def test_error_bound_within_tolerance(self):
        for t in (0.4, 1.9, 3.3):
            value, err = rate_function(STANDARD, t, tol=1e-8)
            assert err <= 1e-8
            assert math.isfinite(value) and value >= 0.0

    def test_halving_tolerance_self_consistency(self):
        for t in (0.7, 1.9, 3.3):
            v1, _ = rate_function(STANDARD, t, tol=1e-8)
            v2, _ = rate_function(STANDARD, t, tol=5e-9)
            assert abs(v1 - v2) < 1e-8

    def test_matches_large_chain_sum(self):
        # thermodynamic integral against a dense momentum-grid sum
        for t in (0.7, 1.9, 3.3):
            ref, _ = rate_function(STANDARD, t, tol=1e-10)
            assert abs(rate_function_finite(STANDARD, 10000, t) - ref) < 1e-9

    def test_finite_at_critical_time(self):
        value, err = rate_function(STANDARD, T_STAR)
        assert math.isfinite(value)
        assert err <= 1e-8

    def test_series_matches_pointwise_values(self):
        times = np.linspace(0.0, 2.0, 9)
        series = compute_rate_series(STANDARD, times)
        for t, v in zip(times, series.values):
            assert v == rate_function(STANDARD, float(t))[0]

    def test_series_diagnostics_counters(self):
        diag = {}
        compute_rate_series(STANDARD, np.linspace(0.0, 2.0, 9), diagnostics=diag)
        assert diag["extra_panels"] >= 0
        assert diag["unconverged_samples"] == 0

    def test_trivial_quench_is_smooth(self):
        p = QuenchProtocol(1.3, 1.3, 2.0)
        series = compute_rate_series(p, np.linspace(0.0, 4.0, 201))
        assert np.all(np.isfinite(series.values))
        assert detect_cusps(series) == []


class TestFiniteSizeRate:
    def test_matches_explicit_mode_sum(self):
        from dqpt import mode_grid

        t = 1.3
        n = 8
        total = 0.0
        for k in mode_grid(n).momenta:
            g = mode_amplitude(mode_coefficients(STANDARD, float(k)), t)
            total += math.log(abs(g) ** 2)
        assert rate_function_finite(STANDARD, n, t) == pytest.approx(-total / n, abs=1e-14)

    def test_exact_amplitude_zero_reported_as_infinite(self):
        assert _finite_rate_from_mode_echoes(np.array([1.0, 0.0, 0.5]), 6) == math.inf
        assert math.isfinite(_finite_rate_from_mode_echoes(np.array([1.0, 0.3, 0.5]), 6))


class TestRateSeries:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            RateSeries(np.array([0.0, 2.0, 1.0]), np.zeros(3), STANDARD)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            RateSeries(np.array([0.0, 1.0]), np.zeros(3), STANDARD)
        with pytest.raises(ValueError):
            RateSeries(np.array([0.0, 1.0]), np.zeros(2), STANDARD, estimated_error=np.zeros(3))

    def test_rejects_a_2d_grid(self):
        with pytest.raises(ValueError, match="times must be a 1-d array"):
            RateSeries(np.zeros((2, 1)), np.zeros((2, 1)), STANDARD)


def _no_echo(*args):
    raise AssertionError("an echo was evaluated")


QUADRATURE = functools.partial(compute_rate_series, STANDARD)
FINITE_N = functools.partial(compute_rate_series_finite, STANDARD, 20)
TWO_D = "times must be a 1-d array, got shape \\(2, 3\\)"


@pytest.mark.parametrize(
    "call, times, message",
    [
        (QUADRATURE, np.linspace(0.0, 1.0, 6).reshape(2, 3), TWO_D),
        (FINITE_N, np.linspace(0.0, 1.0, 6).reshape(2, 3), TWO_D),
        (QUADRATURE, np.array([0.0, 2.0, 1.0]), "times must be strictly increasing"),
        (FINITE_N, np.array([0.0, 2.0, 1.0]), "times must be strictly increasing"),
        (QUADRATURE, [0.0, math.inf], "times must be finite"),
        (FINITE_N, [0.0, math.nan], "times must be finite"),
        (functools.partial(rate_function, STANDARD), math.inf, "times must be finite"),
        (functools.partial(rate_function_finite, STANDARD, 20), -math.inf, "times must be finite"),
    ],
    ids=[
        "2d-quadrature",
        "2d-finite_N",
        "decreasing-quadrature",
        "decreasing-finite_N",
        "inf-quadrature",
        "nan-finite_N",
        "inf-rate_function",
        "-inf-rate_function_finite",
    ],
)
def test_a_bad_time_grid_fails_before_any_echo(monkeypatch, call, times, message):
    # the rule of RateSeries, checked before the grid is integrated
    monkeypatch.setattr(observables, "mode_echo", _no_echo)
    with pytest.raises(ValueError, match=message):
        call(times)


class TestCriticalRateFunction:
    def test_zero_at_zero_time(self):
        assert critical_rate_function(STANDARD, K_STAR, 0.0) == 0.0

    def test_spikes_at_critical_time(self):
        assert critical_rate_function(STANDARD, K_STAR, T_STAR) > 60.0

    def test_peak_aligns_with_full_rate_peak(self):
        times = np.linspace(0.8, 1.6, 801)
        series = compute_rate_series(STANDARD, times)
        single = [critical_rate_function(STANDARD, K_STAR, float(t)) for t in times]
        t_full = times[int(np.argmax(series.values))]
        t_single = times[int(np.argmax(single))]
        assert abs(t_full - t_single) < 0.05

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.pi, 4.0])
    def test_rejects_momentum_outside_zone(self, bad):
        with pytest.raises(ValueError):
            critical_rate_function(STANDARD, bad, 1.0)


class TestPhaseProfile:
    def test_zero_time_profile_vanishes(self):
        prof = phase_profile(STANDARD, 0.0)
        assert np.max(np.abs(prof.total_phase)) < 1e-12
        assert np.max(np.abs(prof.dynamical_phase)) < 1e-12
        assert np.max(np.abs(prof.geometric_phase)) < 1e-12

    def test_decomposition_identity(self):
        prof = phase_profile(STANDARD, 0.9)
        np.testing.assert_allclose(
            prof.geometric_phase,
            prof.total_phase - prof.dynamical_phase,
            atol=1e-15,
        )

    def test_unwrapped_total_phase_has_no_jumps(self):
        prof = phase_profile(STANDARD, 3.7)
        assert np.max(np.abs(np.diff(prof.total_phase))) < math.pi / 2

    def test_dynamical_phase_matches_energy_expectation(self):
        # phase accumulated at rate -<H'> computed through the matrix route
        t = 1.7
        p = QuenchProtocol(0.5, 2.0, 1.0, phi=0.8)
        prof = phase_profile(p, t)
        for i in range(0, prof.k_samples.size, 37):
            k = float(prof.k_samples[i])
            up, lo = mode_eigenvectors(k, 0.5)
            x = p.beta * dispersion(k, 0.5)
            em = math.exp(-x)
            psi = (em * up + np.exp(1j * p.phi) * lo) / math.sqrt(1.0 + em * em)
            a = 2.0 - math.cos(k)
            b = math.sin(k)
            h_post = np.array([[a, -1j * b], [1j * b, -a]])
            expected = -t * float(np.real(np.vdot(psi, h_post @ psi)))
            assert prof.dynamical_phase[i] == pytest.approx(expected, abs=1e-12)

    def test_ground_state_geometric_phase_vanishes_at_zone_ends(self):
        prof = phase_profile(QuenchProtocol(0.5, 2.0, math.inf), 0.7)
        assert abs(prof.geometric_phase[0]) < 1e-6
        assert abs(prof.geometric_phase[-1]) < 1e-6

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            phase_profile(STANDARD, 1.0, k_resolution=32)

    def test_refinement_counter_reported(self):
        prof = phase_profile(STANDARD, T_STAR * 1.001)
        assert prof.refinements >= 1
        assert prof.k_samples.size > 256

    @pytest.mark.parametrize("t", [0.0, 0.7, T_STAR * 0.999, T_STAR * 1.001, 9.3])
    def test_max_jump_is_the_largest_jump_of_its_own_phases(self, t):
        prof = phase_profile(STANDARD, t)
        jumps = [np.abs(np.diff(getattr(prof, f"{kind}_phase"))).max()
                 for kind in ("total", "dynamical", "geometric")]
        # the profile's arrays are cumulative sums of the jumps it tested
        assert prof.max_jump == pytest.approx(max(jumps), rel=0.0, abs=1e-12)
        assert 0.0 <= prof.max_jump < math.pi / 2


class TestWindingNumber:
    def test_zero_before_first_critical_time(self):
        assert winding_number(STANDARD, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert winding_number(STANDARD, T_STAR * 0.999) == pytest.approx(0.0, abs=1e-2)

    def test_unit_jump_across_critical_time(self):
        before = winding_number(STANDARD, T_STAR * 0.999)
        after = winding_number(STANDARD, T_STAR * 1.001)
        assert after - before == pytest.approx(-1.0, abs=1e-2)

    def test_unresolvable_twist_raises_with_location(self):
        with pytest.raises(UnwrapError) as exc_info:
            winding_number(STANDARD, T_STAR)
        err = exc_info.value
        assert err.time == T_STAR
        assert abs(err.momentum - K_STAR) < 1e-3
        assert err.nearest_critical_time == pytest.approx(T_STAR, abs=1e-6)

    def test_refinement_stops_at_its_momentum_budget(self, monkeypatch):
        # 272 added momenta at coupling 30, t = 4: a budget of 272 is enough,
        # 271 is not, and the refusal comes before the round that would pass it
        protocol = QuenchProtocol(0.5, 2.0, 1.0, 0.0, coupling=30.0)
        full = phase_profile(protocol, 4.0)
        assert full.refinements == 272
        monkeypatch.setattr(observables, "_MAX_UNWRAP_MOMENTA", 272)
        assert np.array_equal(phase_profile(protocol, 4.0).k_samples, full.k_samples)
        monkeypatch.setattr(observables, "_MAX_UNWRAP_MOMENTA", 271)
        with pytest.raises(UnwrapError) as exc_info:
            phase_profile(protocol, 4.0)
        assert exc_info.value.time == 4.0

    def test_huge_coupling_fails_fast_instead_of_refining_without_end(self):
        # the added momenta grow with coupling * t: 550, 8,126 and 82,861 at
        # couplings 1e3, 1e4 and 1e5 and t = 0.2 without a budget
        assert phase_profile(QuenchProtocol(0.5, 2.0, 10.0, coupling=1e4), 0.2).refinements == 8126
        for coupling in (1e5, 1e6):
            with pytest.raises(UnwrapError):
                phase_profile(QuenchProtocol(0.5, 2.0, 10.0, coupling=coupling), 0.2)


class TestDetectCusps:
    @staticmethod
    def _series(times, values):
        return RateSeries(np.asarray(times), np.asarray(values), STANDARD)

    def test_smooth_series_has_no_cusps(self):
        t = np.linspace(0.0, 4.0, 400)
        assert detect_cusps(self._series(t, np.sin(t) + 2.0)) == []

    def test_kink_is_located(self):
        t = np.linspace(0.0, 2.0, 201)
        cusps = detect_cusps(self._series(t, np.abs(t - 1.0)))
        assert len(cusps) == 1
        assert cusps[0] == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_sample_is_a_cusp(self):
        t = np.linspace(0.0, 2.0, 201)
        r = np.sin(t) + 2.0
        r[77] = math.inf
        cusps = detect_cusps(self._series(t, r))
        assert cusps == [pytest.approx(t[77])]

    def test_rate_series_cusps_lie_on_critical_ladder(self):
        times = np.linspace(0.0, 4.0, 4000)
        series = compute_rate_series(STANDARD, times)
        cusps = detect_cusps(series)
        ladder = critical_times(STANDARD, K_STAR, 1)
        step = times[1] - times[0]
        assert len(cusps) == 2
        for c, expected in zip(cusps, ladder):
            assert abs(c - expected) <= 2.0 * step

    def test_rejects_short_series(self):
        t = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            detect_cusps(self._series(t, np.zeros(4)))

    def test_rejects_nonuniform_sampling(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5])
        with pytest.raises(ValueError):
            detect_cusps(self._series(t, np.zeros(6)))

"""The blocked rate quadrature: honest bounds, block invariance, bounded cache."""

import math

import numpy as np
import pytest

from dqpt import QuenchProtocol, compute_rate_series, critical_times, imbalance_roots, rate_function
from dqpt import observables
from dqpt.observables import _RateQuad

STANDARD = QuenchProtocol(0.5, 2.0, 10.0)
# fig3 cell: lambda 0.5 -> 2, beta 1, phi -pi/2, with a log spike near t = 5.525
FIG3 = QuenchProtocol(0.5, 2.0, 1.0, -math.pi / 2)
T_STAR = float(critical_times(STANDARD, float(imbalance_roots(STANDARD)[0]), 0)[0])


def _mp_rate(protocol, t):
    """Rate at t by mpmath.quad at 20 digits, split at the imbalance roots."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        mpf = mpmath.mpf
        lam_pre, lam_post = mpf(protocol.lambda_pre), mpf(protocol.lambda_post)
        coupling = mpf(protocol.coupling)
        sphi = mpmath.sin(mpf(protocol.phi))
        t = mpf(t)

        def energy(k, lam):
            return coupling * mpmath.sqrt((lam - mpmath.cos(k)) ** 2 + mpmath.sin(k) ** 2)

        def angle(k, lam):
            d = lam - mpmath.cos(k)
            s = mpmath.sin(k)
            e = mpmath.sqrt(d * d + s * s)
            return mpmath.atan2(s, -(s * s) / (d + e) if d > 0 else d - e)

        def integrand(k):
            dth = angle(k, lam_pre) - angle(k, lam_post)
            if math.isinf(protocol.beta):
                a = mpmath.cos(2 * dth)
            else:
                x = protocol.beta * energy(k, lam_pre)
                em = mpmath.exp(-x)
                a = mpmath.cos(2 * dth) * mpmath.tanh(x) + sphi * mpmath.sin(
                    2 * dth
                ) * 2 * em / (1 + em * em)
            ph = energy(k, lam_post) * t
            mag2 = mpmath.cos(ph) ** 2 + (a * mpmath.sin(ph)) ** 2
            return -mpmath.log(mag2) / (2 * mpmath.pi)

        points = [mpf(0)] + [mpf(float(r)) for r in imbalance_roots(protocol)] + [mpmath.pi]
        value, err = mpmath.quad(integrand, points, error=True)
        assert err < 1e-13
        return float(value)


@pytest.mark.parametrize(
    "protocol, t",
    [
        (FIG3, 5.5225),
        (FIG3, 5.525),
        (FIG3, 5.5275),
        (STANDARD, T_STAR),
        (STANDARD, T_STAR - 1e-3),
        (STANDARD, T_STAR + 1e-3),
    ],
    ids=["fig3-5.5225", "fig3-5.525", "fig3-5.5275", "t*", "t*-1e-3", "t*+1e-3"],
)
def test_error_bound_dominates_true_error(protocol, t):
    # near a critical time the integrand has a narrow log spike; a rule pair
    # that misses it together reports a bound below its true error
    value, bound = rate_function(protocol, t)
    assert abs(value - _mp_rate(protocol, t)) <= bound + 1e-13


class TestBlockInvariance:
    TIMES = np.linspace(0.0, 6.0, 301)

    @pytest.mark.parametrize("protocol", [STANDARD, FIG3])
    def test_grid_spans_several_blocks(self, protocol):
        assert self.TIMES.size > 3 * _RateQuad(protocol)._block

    @pytest.mark.parametrize("protocol", [STANDARD, FIG3])
    @pytest.mark.parametrize("cuts", [(1,), (7, 8, 150), (37, 100, 101, 299)])
    def test_slices_concatenate_bitwise(self, protocol, cuts):
        whole_diag = {}
        whole = compute_rate_series(protocol, self.TIMES, diagnostics=whole_diag)
        values, errors = [], []
        extra = unconverged = 0
        for part in np.split(self.TIMES, cuts):
            diag = {}
            s = compute_rate_series(protocol, part, diagnostics=diag)
            values.append(s.values)
            errors.append(s.estimated_error)
            extra += diag["extra_panels"]
            unconverged += diag["unconverged_samples"]
        assert np.array_equal(np.concatenate(values), whole.values)
        assert np.array_equal(np.concatenate(errors), whole.estimated_error)
        assert extra == whole_diag["extra_panels"]
        assert unconverged == whole_diag["unconverged_samples"]
        assert whole_diag["extra_panels"] > 0

    def test_pointwise_equals_series_through_refinement(self):
        times = np.linspace(5.5, 5.55, 21)
        series = compute_rate_series(FIG3, times)
        for t, v, e in zip(times, series.values, series.estimated_error):
            assert (v, e) == rate_function(FIG3, float(t))


def test_node_cache_is_bounded(monkeypatch):
    cap = 256
    monkeypatch.setattr(observables, "_MAX_PANELS", cap)
    # a tolerance below roundoff keeps every sample splitting until the
    # panel budget runs out
    quad = _RateQuad(FIG3, tol=1e-18)
    sizes = []
    for t in np.linspace(5.4, 5.6, 12):
        quad.evaluate(float(t))
        sizes.append(len(quad._children))
    assert quad.extra_panels > cap
    assert max(sizes) == cap // 2  # each entry holds a split panel's two halves
    assert quad.unconverged == 12

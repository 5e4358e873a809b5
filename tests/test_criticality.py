import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import (
    QuenchProtocol,
    boundary_partition,
    critical_modes,
    critical_times,
    dispersion,
    fisher_zero_line,
    imbalance_roots,
    mode_coefficients,
    variant_report,
)
from dqpt.criticality import _scan_for_roots, _scan_nodes


def closed_form_root(lam, lamp):
    return math.acos((1.0 + lam * lamp) / (lam + lamp))


def bisect_inline(fn, a, b, tol=1e-13):
    fa = fn(a)
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = fn(m)
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def sinh_condition(protocol, k):
    # equal post-quench populations, written out longhand as a reference
    from dqpt import delta_theta

    x = protocol.beta * dispersion(k, protocol.lambda_pre)
    dth = delta_theta(k, protocol)
    sech = 2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))
    return math.cos(2.0 * dth) * math.tanh(x) + math.sin(protocol.phi) * math.sin(
        2.0 * dth
    ) * sech


def tanh_condition(protocol, k):
    from dqpt import delta_theta

    x = protocol.beta * dispersion(k, protocol.lambda_pre)
    dth = delta_theta(k, protocol)
    return math.cos(2.0 * dth) * math.tanh(x) + math.sin(protocol.phi) * math.sin(2.0 * dth)


class TestImbalanceRoots:
    @pytest.mark.parametrize("pair", [(0.5, 2.0), (0.2, 3.0), (0.9, 1.5)])
    @pytest.mark.parametrize("beta", [10.0, 1.0, 0.1])
    def test_thermal_cross_critical_quench_has_closed_form_root(self, pair, beta):
        p = QuenchProtocol(pair[0], pair[1], beta)
        roots = imbalance_roots(p)
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(closed_form_root(*pair), abs=1e-9)

    @pytest.mark.parametrize("pair", [(0.0, 0.5), (1.5, 2.0), (2.0, 3.0)])
    @pytest.mark.parametrize("beta", [10.0, 1.0, 0.1])
    def test_thermal_same_phase_quench_has_no_roots(self, pair, beta):
        assert imbalance_roots(QuenchProtocol(pair[0], pair[1], beta)).size == 0

    @pytest.mark.parametrize("beta", [10.0, 1.0, 0.1])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, -math.pi / 2])
    def test_cross_critical_quench_always_critical(self, beta, phi):
        assert imbalance_roots(QuenchProtocol(0.5, 2.0, beta, phi)).size >= 1

    @pytest.mark.parametrize("pair", [(0.0, 0.5), (1.5, 2.0)])
    def test_coherence_sign_controls_root_parity(self, pair):
        # lifting the imbalance (phi = +pi/2 for an upward quench) never
        # creates roots; the opposite sign creates none or a pair
        for beta in (10.0, 1.0, 0.1):
            up = QuenchProtocol(pair[0], pair[1], beta, math.pi / 2)
            assert imbalance_roots(up).size == 0
        down_cold = QuenchProtocol(pair[0], pair[1], 10.0, -math.pi / 2)
        down_hot = QuenchProtocol(pair[0], pair[1], 0.1, -math.pi / 2)
        assert imbalance_roots(down_cold).size == 0
        assert imbalance_roots(down_hot).size == 2

    def test_roots_match_independent_bisection(self):
        p = QuenchProtocol(0.0, 0.5, 0.1, -math.pi / 2)
        roots = imbalance_roots(p)
        expected = [
            bisect_inline(lambda k: sinh_condition(p, k), 0.01, 0.5),
            bisect_inline(lambda k: sinh_condition(p, k), 2.6, 3.1),
        ]
        np.testing.assert_allclose(roots, expected, atol=1e-9)

    def test_deterministic(self):
        p = QuenchProtocol(0.5, 2.0, 0.1, -math.pi / 2)
        assert np.array_equal(imbalance_roots(p), imbalance_roots(p))

    def test_root_sitting_exactly_on_a_scan_node_is_found(self):
        target = float(_scan_nodes()[1234])
        roots = _scan_for_roots(lambda k: k - target)[0]
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(target, abs=1e-9)


class TestCriticalTimes:
    def test_ladder_spacing(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        k_star = closed_form_root(0.5, 2.0)
        times = critical_times(p, k_star, 3)
        base = math.pi / (2.0 * dispersion(k_star, 2.0))
        np.testing.assert_allclose(times, base * np.array([1.0, 3.0, 5.0, 7.0]), rtol=1e-14)

    def test_uses_post_quench_dispersion_and_coupling(self):
        p = QuenchProtocol(0.5, 2.0, 10.0, coupling=2.0)
        k_star = closed_form_root(0.5, 2.0)
        t0 = critical_times(p, k_star, 0)[0]
        assert t0 == pytest.approx(math.pi / (2.0 * dispersion(k_star, 2.0, coupling=2.0)))

    @pytest.mark.parametrize("bad_k", [0.0, -1.0, math.pi, 5.0])
    def test_rejects_momentum_outside_zone(self, bad_k):
        with pytest.raises(ValueError):
            critical_times(QuenchProtocol(0.5, 2.0, 10.0), bad_k, 1)

    def test_rejects_negative_ladder_length(self):
        with pytest.raises(ValueError):
            critical_times(QuenchProtocol(0.5, 2.0, 10.0), 0.6, -1)


class TestCriticalModes:
    def test_variant_residuals_are_tiny_at_returned_roots(self):
        for phi in (0.0, -math.pi / 2):
            for variant in ("sinh", "tanh"):
                cs = critical_modes(
                    QuenchProtocol(0.5, 2.0, 1.0, phi), variant, 0, with_jump_signs=False
                )
                assert np.all(np.abs(cs.residuals) < 1e-10)

    def test_sinh_roots_against_inline_bisection(self):
        cases = [
            (1.0, math.pi / 2, 0.1, 0.3),
            (1.0, -math.pi / 2, 1.1, 1.5),
            (0.1, math.pi / 2, 0.005, 0.1),
            (0.1, -math.pi / 2, 2.5, 2.9),
        ]
        for beta, phi, lo, hi in cases:
            p = QuenchProtocol(0.5, 2.0, beta, phi)
            cs = critical_modes(p, "sinh", 0, with_jump_signs=False)
            expected = bisect_inline(lambda k: sinh_condition(p, k), lo, hi)
            assert cs.modes.shape == (1,)
            assert cs.modes[0] == pytest.approx(expected, abs=2e-6)

    def test_tanh_roots_against_inline_bisection(self):
        for phi, lo, hi in ((math.pi / 2, 0.1, 0.3), (-math.pi / 2, 1.3, 1.7)):
            p = QuenchProtocol(0.5, 2.0, 1.0, phi)
            cs = critical_modes(p, "tanh", 0, with_jump_signs=False)
            expected = bisect_inline(lambda k: tanh_condition(p, k), lo, hi)
            assert cs.modes.shape == (1,)
            assert cs.modes[0] == pytest.approx(expected, abs=2e-6)

    def test_variants_agree_at_high_temperature(self):
        # both conditions linearize to the same equation as beta -> 0
        for phi in (math.pi / 2, -math.pi / 2):
            p = QuenchProtocol(0.5, 2.0, 0.1, phi)
            k_sinh = critical_modes(p, "sinh", 0, with_jump_signs=False).modes[0]
            k_tanh = critical_modes(p, "tanh", 0, with_jump_signs=False).modes[0]
            assert abs(k_sinh - k_tanh) < 5e-3

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            critical_modes(QuenchProtocol(0.5, 2.0, 1.0), "cosh", 0)

    def test_ladders_and_signs_align_with_modes(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        cs = critical_modes(p, "sinh", 2)
        assert len(cs.times) == len(cs.modes) == len(cs.jump_signs)
        assert cs.times[0].shape == (3,)
        assert cs.jump_signs == [-1]

    def test_two_mode_quench_has_opposite_jump_signs(self):
        cs = critical_modes(QuenchProtocol(0.0, 0.5, 0.1, -math.pi / 2), "sinh", 0)
        assert cs.jump_signs == [1, -1]

    def test_jump_signs_skippable(self):
        cs = critical_modes(QuenchProtocol(0.5, 2.0, 10.0), "sinh", 0, with_jump_signs=False)
        assert cs.jump_signs == [None]


class TestFisherZeroLine:
    def test_imaginary_part_is_branch_ladder(self):
        p = QuenchProtocol(0.5, 2.0, 1.0, 0.4)
        k = np.linspace(0.2, 3.0, 40)
        for n in (0, 1, 2):
            line = fisher_zero_line(p, n, k)
            expected = (2 * n + 1) * math.pi / (2.0 * dispersion(line.momenta, 2.0))
            np.testing.assert_allclose(np.imag(line.zeros), expected, rtol=1e-12)

    def test_zeros_annihilate_boundary_partition(self):
        p = QuenchProtocol(0.5, 2.0, 0.1, -math.pi / 2)
        k = np.linspace(0.1, 3.0, 64)
        line = fisher_zero_line(p, 1, k)
        for km, z in zip(line.momenta, line.zeros):
            assert abs(boundary_partition(mode_coefficients(p, float(km)), z)) < 1e-9

    def test_real_part_changes_sign_at_critical_mode(self):
        p = QuenchProtocol(0.5, 2.0, 10.0)
        k_star = closed_form_root(0.5, 2.0)
        line = fisher_zero_line(p, 0, np.array([k_star - 0.05, k_star + 0.05]))
        re = np.real(line.zeros)
        assert re[0] * re[1] < 0.0

    def test_noncritical_quench_stays_off_the_imaginary_axis(self):
        p = QuenchProtocol(0.0, 0.5, 10.0)
        line = fisher_zero_line(p, 0, np.linspace(0.1, 3.0, 50))
        re = np.real(line.zeros)
        assert np.all(re < 0.0) or np.all(re > 0.0)

    def test_ground_state_samples_all_skipped(self):
        # trivial quench from the ground state: one population is exactly 0
        p = QuenchProtocol(1.3, 1.3, math.inf)
        k = np.linspace(0.1, 3.0, 10)
        line = fisher_zero_line(p, 0, k)
        assert line.momenta.size == 0
        assert line.skipped.size == 10

    @pytest.mark.parametrize(
        "p",
        [
            QuenchProtocol(0.5, 2.0, 0.1, -math.pi / 2),
            QuenchProtocol(0.0, 0.5, math.inf),
            QuenchProtocol(1.3, 1.3, math.inf),  # every sample skipped
        ],
    )
    def test_shared_coefficients_give_the_same_line(self, p):
        k = np.linspace(0.1, 3.0, 57)
        coeffs = mode_coefficients(p, k)
        for n in (0, 2):
            own, shared = fisher_zero_line(p, n, k), fisher_zero_line(p, n, k, coeffs)
            for a, b in [
                (own.momenta, shared.momenta),
                (own.zeros, shared.zeros),
                (own.skipped, shared.skipped),
            ]:
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            # the line carries the coefficients of its kept momenta
            kept = mode_coefficients(p, own.momenta)
            for name in ("eps_post", "imbalance", "weight_plus", "weight_minus"):
                a, b = getattr(shared.coefficients, name), getattr(kept, name)
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), name

    def test_rejects_empty_or_out_of_zone_samples(self):
        p = QuenchProtocol(0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            fisher_zero_line(p, 0, np.array([]))
        with pytest.raises(ValueError):
            fisher_zero_line(p, 0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            fisher_zero_line(p, 0, np.array([1.0, math.pi]))


class TestVariantReport:
    def test_thermal_case_variants_coincide(self):
        rep = variant_report(QuenchProtocol(0.5, 2.0, 10.0))
        assert [row.variant for row in rep.rows] == ["sinh", "tanh"]
        assert rep.rows[0].k_star == pytest.approx(rep.rows[1].k_star, abs=1e-9)
        assert all(row.fisher_confirmed for row in rep.rows)

    def test_coherent_case_flags_the_inconsistent_variant(self):
        rep = variant_report(QuenchProtocol(0.5, 2.0, 1.0, -math.pi / 2))
        by_name = {row.variant: row for row in rep.rows}
        assert by_name["sinh"].fisher_confirmed
        assert not by_name["tanh"].fisher_confirmed
        # each variant's own residual vanishes at its root while the other
        # condition stays visibly nonzero there
        for row in rep.rows:
            assert abs(row.residual) < 1e-10
            assert abs(row.residual_other) > 0.01


def _per_variant_report_rows(protocol):
    # variant_report as it was, one critical_modes scan per variant
    from dqpt.criticality import VARIANTS, _variant_residual

    def _straddle(protocol: QuenchProtocol, k_star: float, variant: str):
        # the variant's residual just left and just right of k_star
        h = min(1e-6, 0.5 * k_star, 0.5 * (math.pi - k_star))
        return tuple(float(_variant_residual(protocol, k, variant)) for k in (k_star - h, k_star + h))

    def _sign_change_at(protocol: QuenchProtocol, k_star: float) -> bool:
        # the line's Re z changes sign across k_star iff the imbalance does
        left, right = _straddle(protocol, k_star, "sinh")
        return (left < 0.0) != (right < 0.0)

    rows = []
    for variant in VARIANTS:
        other = "tanh" if variant == "sinh" else "sinh"
        cs = critical_modes(protocol, variant, 0, with_jump_signs=False)
        for r, residual in zip(cs.modes, cs.residuals):
            rows.append(
                (
                    variant,
                    float(r),
                    float(residual),
                    float(_variant_residual(protocol, r, other)),
                    _sign_change_at(protocol, float(r)),
                )
            )
    return rows


VARIANT_PROTOCOLS = [
    QuenchProtocol(0.5, 2.0, 10.0),
    QuenchProtocol(0.5, 2.0, 0.1, -1.2),
    QuenchProtocol(0.5, 2.0, 1.0, -math.pi / 2),
    QuenchProtocol(1.5, 2.0, 0.36, -math.pi / 2),
    QuenchProtocol(2.5, 0.2, math.inf, 2.0),
    QuenchProtocol(0.0, 0.5, 0.1, -math.pi / 2),
]


@pytest.mark.parametrize("protocol", VARIANT_PROTOCOLS)
def test_variant_report_scans_its_nodes_once(monkeypatch, protocol):
    from dqpt import criticality

    scan_size = _scan_nodes().size
    sizes = []
    orig = criticality.mode_coefficients
    monkeypatch.setattr(
        criticality, "mode_coefficients", lambda p, k: sizes.append(np.size(k)) or orig(p, k)
    )
    rep = variant_report(protocol)
    assert sizes.count(scan_size) == 1
    rows = [
        (r.variant, r.k_star, r.residual, r.residual_other, r.fisher_confirmed) for r in rep.rows
    ]
    assert rows == _per_variant_report_rows(protocol)


@pytest.mark.parametrize("protocol", VARIANT_PROTOCOLS)
def test_variant_report_takes_each_rows_residuals_from_one_call(monkeypatch, protocol):
    from dqpt import criticality

    at = []
    orig = criticality.mode_coefficients
    monkeypatch.setattr(
        criticality, "mode_coefficients", lambda p, k: at.append(np.copy(k)) or orig(p, k)
    )
    rep = variant_report(protocol)
    for row in rep.rows:  # bisection never evaluates the midpoint it returns
        rows_there = sum(r.k_star == row.k_star for r in rep.rows)  # both variants, if thermal
        assert sum(1 for k in at if k.ndim == 0 and k == row.k_star) == rows_there


finite = dict(allow_nan=False, allow_infinity=False)
protocol_st = st.builds(
    QuenchProtocol,
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 3.0, **finite),
    st.one_of(st.just(math.inf), st.floats(-2.0, 1.0, **finite).map(lambda e: 10.0**e)),
    st.floats(-math.pi, math.pi, **finite),
)


@given(protocol_st)
@settings(deadline=None, max_examples=100)
def test_the_sinh_modes_are_the_imbalance_roots_bit_for_bit(protocol):
    # a sweep cell hands the sinh modes to the rate as its panel edges
    modes = critical_modes(protocol, "sinh", 0).modes
    roots = imbalance_roots(protocol)
    assert modes.dtype == roots.dtype
    assert modes.view(np.int64).tolist() == roots.view(np.int64).tolist()


# perfbench's topology_scan protocol p33 of seed 1222: a sinh root at
# k = 5.96e-7 where the residual's slope is about -546, so a bracket of
# 1e-12 in k alone left a residual of -1.66e-10 (tanh: 1.56e-10)
STEEP = QuenchProtocol(
    1.0010700230580851, 2.3588705013515847, 0.30413425865837507, -2.517016594847984
)


@pytest.mark.parametrize("variant", ["sinh", "tanh"])
def test_a_steep_root_is_bisected_to_a_small_residual(variant):
    cs = critical_modes(STEEP, variant, 0, with_jump_signs=False)
    assert cs.modes.size == 2 and cs.modes[0] < 1e-6
    assert np.all(np.abs(cs.residuals) <= 1e-10)


def test_variant_report_on_a_steep_root_has_small_residuals():
    rows = variant_report(STEEP).rows
    assert len(rows) == 4
    assert all(abs(r.residual) <= 1e-10 for r in rows)
    assert sum(r.k_star < 1e-6 for r in rows) == 2


def test_the_residual_rule_moves_only_roots_that_need_it(monkeypatch):
    from dqpt import criticality

    target = 1.234567891
    gentle = _scan_for_roots(lambda k: 0.5 * (k - target))[0]
    steep = _scan_for_roots(lambda k: 1e4 * (k - target))[0]
    monkeypatch.setattr(criticality, "_ROOT_RESIDUAL", math.inf)  # the k tolerance alone
    assert _scan_for_roots(lambda k: 0.5 * (k - target))[0].tolist() == gentle.tolist()
    k_only = _scan_for_roots(lambda k: 1e4 * (k - target))[0]
    assert abs(1e4 * (k_only[0] - target)) > 1e-10 >= abs(1e4 * (steep[0] - target))


# ROADMAP item 4: at the edge of fig4's two-mode region (lambda 1.5 -> 2,
# phi = -pi/2) two imbalance roots are born as a pair near k = 0.33592, at
# beta_c ~ 0.3632700851.  Just below beta_c they are closer than the scan
# spacing (7.7e-4), so the scan sees no sign change between its nodes.
PAIR_BIRTH = {"lambda_pre": 1.5, "lambda_post": 2.0, "phi": -math.pi / 2}


@pytest.mark.parametrize("beta", [0.3632700850, 0.3632700841])
def test_a_dense_scan_sees_the_pair_of_roots(beta):
    # the oracle of the test below: 200,001 points across the pair
    protocol = QuenchProtocol(beta=beta, **PAIR_BIRTH)
    imbalance = mode_coefficients(protocol, np.linspace(0.3355, 0.3363, 200_001)).imbalance
    assert np.count_nonzero(np.diff(np.sign(imbalance))) == 2
    assert imbalance.min() < 0.0 < imbalance[0] and imbalance[-1] > 0.0


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 4: the root scan loses a pair just born"
)
def test_critical_modes_find_a_pair_of_roots_just_born():
    # the imbalance dips to -4.0e-11 at k = 0.335922 (1.4e-5 between the roots)
    cs = critical_modes(QuenchProtocol(beta=0.3632700850, **PAIR_BIRTH))
    assert cs.modes.size == 2
    assert sorted(cs.jump_signs) == [-1, 1]


def test_critical_modes_find_a_pair_of_roots_a_little_older():
    cs = critical_modes(QuenchProtocol(beta=0.3632700841, **PAIR_BIRTH))
    assert cs.modes.tolist() == pytest.approx([0.33590048, 0.33594319], abs=1e-8)
    assert sorted(cs.jump_signs) == [-1, 1]

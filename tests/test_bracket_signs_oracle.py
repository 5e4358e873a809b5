"""Jump signs and Fisher confirmation from the root scan's brackets, against
the residual samples they replaced, kept here as the oracle.

critical_modes once read each jump sign off the variant's residual at
k* - h and k* + h (h <= 1e-6), and variant_report confirmed a sign change
of the Fisher line from the imbalance at the same two momenta.  Both now
come from the scan itself: the sign of the residual at the left end of a
root's bracket, and the parity of the sinh roots within h of k*.
_straddle and _sign_change_at below are the earlier code, verbatim.  Jump
signs and report rows must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import K_EPS, QuenchProtocol, critical_modes, variant_report
from dqpt import criticality
from dqpt.criticality import VARIANTS, _scan_for_roots, _scan_nodes, _variant_residual


def _straddle(protocol: QuenchProtocol, k_star: float, variant: str):
    # the variant's residual just left and just right of k_star
    h = min(1e-6, 0.5 * k_star, 0.5 * (math.pi - k_star))
    return tuple(float(_variant_residual(protocol, k, variant)) for k in (k_star - h, k_star + h))


def _sign_change_at(protocol: QuenchProtocol, k_star: float) -> bool:
    # the line's Re z changes sign across k_star iff the imbalance does
    left, right = _straddle(protocol, k_star, "sinh")
    return (left < 0.0) != (right < 0.0)


def old_jump_signs(protocol, variant):
    modes = critical_modes(protocol, variant, 0, with_jump_signs=False).modes
    straddles = [_straddle(protocol, float(r), variant) for r in modes]
    return [1 if left > right else -1 for left, right in straddles]


def old_report_rows(protocol):
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


def report_rows(protocol):
    return [
        (r.variant, r.k_star, r.residual, r.residual_other, r.fisher_confirmed)
        for r in variant_report(protocol).rows
    ]


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

# perfbench's topology_scan protocol p33 of seed 1222: a sinh root at
# k = 5.96e-7, where h = k*/2 rather than 1e-6
STEEP = QuenchProtocol(
    1.0010700230580851, 2.3588705013515847, 0.30413425865837507, -2.517016594847984
)
# the two-mode hot cells of configs/fig2.cfg and configs/fig4.cfg
FIG2_HOT = QuenchProtocol(0.0, 0.5, 0.1, -math.pi / 2)
FIG4_HOT = [QuenchProtocol(1.5, 2.0, beta, -math.pi / 2) for beta in (0.1, 0.01)]
PINNED = [STEEP, FIG2_HOT, *FIG4_HOT]
PINNED_IDS = ["steep", "fig2-hot", "fig4-beta0.1", "fig4-beta0.01"]


@pytest.mark.parametrize("variant", VARIANTS)
@given(protocol_st)
@settings(deadline=None, max_examples=300)
def test_jump_signs_equal_the_straddle_signs(variant, protocol):
    assert critical_modes(protocol, variant, 0).jump_signs == old_jump_signs(protocol, variant)


@given(protocol_st)
@settings(deadline=None, max_examples=300)
def test_report_rows_equal_the_straddle_rows(protocol):
    assert report_rows(protocol) == old_report_rows(protocol)


@pytest.mark.parametrize("protocol", PINNED, ids=PINNED_IDS)
def test_pinned_protocols_agree_with_the_oracle(protocol):
    for variant in VARIANTS:
        signs = critical_modes(protocol, variant, 3).jump_signs
        assert signs == old_jump_signs(protocol, variant)
        assert sorted(signs) == [-1, 1]  # two modes, jumping opposite ways
    rows = report_rows(protocol)
    assert rows == old_report_rows(protocol)
    assert [r[4] for r in rows if r[0] == "sinh"] == [True, True]


@pytest.mark.parametrize("protocol", PINNED[:2] + [QuenchProtocol(0.5, 2.0, 10.0)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_jump_signs_make_no_coefficient_call(monkeypatch, protocol, variant):
    calls = []
    orig = criticality.mode_coefficients
    monkeypatch.setattr(
        criticality, "mode_coefficients", lambda p, k: calls.append(np.size(k)) or orig(p, k)
    )
    counts = []
    for with_signs in (True, False):
        calls.clear()
        critical_modes(protocol, variant, 3, with_jump_signs=with_signs)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_a_zero_run_from_a_node_gives_one_root_inside_it():
    nodes = _scan_nodes()
    a = float(nodes[1234])
    b = 0.5 * (a + float(nodes[1235]))  # strictly between nodes 1234 and 1235
    assert a < b < nodes[1235]

    def fn(k):  # positive left of a, zero on [a, b], negative right of b
        return np.where(k < a, 1.0, np.where(k > b, -1.0, 0.0))

    roots, falls = _scan_for_roots(fn)
    assert roots.shape == (1,) and a <= roots[0] <= b
    assert falls.tolist() == [True]
    roots, falls = _scan_for_roots(lambda k: -fn(k))
    assert roots.shape == (1,) and a <= roots[0] <= b
    assert falls.tolist() == [False]


def test_zeros_on_the_first_and_last_node_are_no_root():
    # an exact zero counts as no sign, so a zero on an end node is no sign change
    nodes = _scan_nodes()
    assert nodes[0] == K_EPS
    roots, falls = _scan_for_roots(lambda k: np.where((k > nodes[0]) & (k < nodes[-1]), 1.0, 0.0))
    assert roots.tolist() == []
    assert falls.tolist() == []

"""phase_profile against its earlier implementation, kept here as the oracle.

The jump test of phase_profile takes gaps by slicing and the largest of
the three phase jumps per gap in one comparison; before, it used np.diff
and three comparisons joined by OR.  The oracle below is that earlier
code, verbatim apart from its names, the budget on added momenta that
phase_profile gained later, the gauge offset it has since lost (a
constant added to every dynamical phase, which cancels in every jump) and
the largest final jump (max_jump) it has since gained.  The unwrapped profile, its
refinement count, its largest jump and any UnwrapError must agree bit for bit.  The mode
coefficients both sides start from are checked against their own first
form in tests/test_mode_geometry.py.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dqpt import K_EPS, QuenchProtocol, critical_times, imbalance_roots, mode_coefficients
from dqpt import observables
from dqpt.observables import PhaseProfile, UnwrapError, _nearest_critical_time, phase_profile

_JUMP_LIMIT = 0.5 * math.pi
_MAX_UNWRAP_ROUNDS = 32


def old_phase_samples(protocol, t, k):
    coeffs = mode_coefficients(protocol, k)
    eps = np.asarray(coeffs.eps_post)
    a = np.asarray(coeffs.imbalance)
    ph = eps * t
    wrapped = np.arctan2(a * np.sin(ph), np.cos(ph))
    dynamical = t * (eps * a)
    return wrapped, dynamical


def old_phase_profile(
    protocol: QuenchProtocol,
    t,
    k_resolution: int = 256,
) -> PhaseProfile:
    if k_resolution < 64:
        raise ValueError(f"k_resolution must be >= 64, got {k_resolution!r}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    k = np.linspace(K_EPS, math.pi - K_EPS, int(k_resolution))
    wrapped, dynamical = old_phase_samples(protocol, t, k)
    rounds = 0
    added = 0
    while True:
        d_tot = np.mod(np.diff(wrapped) + math.pi, math.tau) - math.pi
        d_dyn = np.diff(dynamical)
        d_geo = d_tot - d_dyn
        bad = (
            (np.abs(d_tot) >= _JUMP_LIMIT)
            | (np.abs(d_dyn) >= _JUMP_LIMIT)
            | (np.abs(d_geo) >= _JUMP_LIMIT)
        )
        if not bad.any():
            break
        # the momentum budget, as phase_profile has it: stop before a round
        # would add more than observables._MAX_UNWRAP_MOMENTA in all
        over_budget = added + int(np.count_nonzero(bad)) > observables._MAX_UNWRAP_MOMENTA
        if rounds >= _MAX_UNWRAP_ROUNDS or over_budget:
            i = int(np.argmax(bad))  # first offending gap
            raise UnwrapError(
                0.5 * (k[i] + k[i + 1]), t, _nearest_critical_time(protocol, t)
            )
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (k[idx] + k[idx + 1])
        w_m, d_m = old_phase_samples(protocol, t, mids)
        k = np.concatenate([k, mids])
        wrapped = np.concatenate([wrapped, w_m])
        dynamical = np.concatenate([dynamical, d_m])
        order = np.argsort(k, kind="stable")
        k = k[order]
        wrapped = wrapped[order]
        dynamical = dynamical[order]
        rounds += 1
        added += mids.size
    total = np.concatenate([[wrapped[0]], wrapped[0] + np.cumsum(d_tot)])
    geometric = total - dynamical
    return PhaseProfile(
        k_samples=k,
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=geometric,
        refinements=added,
        max_jump=float(max(np.max(np.abs(d)) for d in (d_tot, d_dyn, d_geo))),
    )


ARRAYS = ("k_samples", "total_phase", "dynamical_phase", "geometric_phase")


def outcome(fn, *args):
    """("ok", profile) or ("UnwrapError", message): what a call produced."""
    try:
        return "ok", fn(*args)
    except UnwrapError as exc:
        return "UnwrapError", str(exc)


def assert_same_outcome(*args):
    (kind, new), (old_kind, old) = outcome(phase_profile, *args), outcome(old_phase_profile, *args)
    assert kind == old_kind
    if kind == "UnwrapError":
        assert new == old
        return
    for name in ARRAYS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert new.refinements == old.refinements
    assert new.max_jump == old.max_jump < _JUMP_LIMIT
    assert new.winding == old.winding


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
resolution_st = st.sampled_from([64, 256, 257])


@given(protocol_st, st.floats(0.0, 8.0, **finite), resolution_st)
@settings(deadline=None, max_examples=400)
# 3.7e-4 before this protocol's first critical time 91450.2098: the momentum
# budget stops refinement at k = 2.435e-5; without it, 32 rounds reach
# k = 1.397e-5
@example(QuenchProtocol(2.0, 0.99999, 1.0, -1.0), 91450.20944400439, 64)
def test_profile_bitwise_equal_to_the_earlier_implementation(protocol, t, k_resolution):
    assert_same_outcome(protocol, t, k_resolution)


@given(protocol_st, st.data(), resolution_st)
@settings(deadline=None, max_examples=60)
def test_same_unwrap_outcome_on_a_first_critical_time(protocol, data, k_resolution):
    roots = imbalance_roots(protocol)
    assume(roots.size > 0)
    k_star = data.draw(st.sampled_from(roots.tolist()))
    t0 = float(critical_times(protocol, k_star, 0)[0])
    assert_same_outcome(protocol, t0, k_resolution)


@pytest.mark.parametrize(
    "protocol,t",
    [
        (QuenchProtocol(0.5, 2.0, 1.0, 0.4), 1.3),
        (QuenchProtocol(0.0, 0.5, 0.1, -math.pi / 2), 6.1),
        (QuenchProtocol(2.5, 0.2, math.inf, 2.0), 7.7),
    ],
)
@pytest.mark.parametrize("kind", ["total", "dynamical", "geometric"])
def test_a_jump_equal_to_the_limit_is_refined(monkeypatch, protocol, t, kind):
    # set the limit to the largest jump of one kind on the base grid: that
    # gap sits exactly on the limit, and >= must refine it
    k = np.linspace(K_EPS, math.pi - K_EPS, 256)
    wrapped, dynamical = old_phase_samples(protocol, t, k)
    d_tot = np.mod(np.diff(wrapped) + math.pi, math.tau) - math.pi
    d_dyn = np.diff(dynamical)
    jumps = {"total": d_tot, "dynamical": d_dyn, "geometric": d_tot - d_dyn}
    limit = float(np.max(np.abs(jumps[kind])))
    monkeypatch.setattr(observables, "_JUMP_LIMIT", limit)
    monkeypatch.setitem(globals(), "_JUMP_LIMIT", limit)
    new = outcome(phase_profile, protocol, t, 256)
    assert new[0] == "UnwrapError" or new[1].refinements > 0
    assert_same_outcome(protocol, t, 256)


@pytest.mark.parametrize("t", [0.0, 0.4])
def test_a_mutated_profile_does_not_leak_into_the_next(t):
    protocol = QuenchProtocol(0.5, 2.0, 1.0, 0.4)
    first = phase_profile(protocol, t, 256)
    assert first.refinements == 0  # the base grid itself is handed out
    first.k_samples[:] = 1.0
    first.total_phase[:] = 1.0
    assert_same_outcome(protocol, t, 256)

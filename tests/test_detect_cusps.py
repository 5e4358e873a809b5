"""detect_cusps against the per-candidate loop it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import QuenchProtocol, RateSeries, detect_cusps

PROTOCOL = QuenchProtocol(0.5, 2.0, 10.0)


def loop_detect_cusps(series, ratio=50.0, window=5, guard=2):
    """One np.median per candidate: the detector as first written."""
    t = series.times
    r = series.values
    n = t.size
    finite = np.isfinite(r)
    abs_d2 = np.full(n, np.nan)
    centers = np.nonzero(finite[:-2] & finite[1:-1] & finite[2:])[0] + 1
    if centers.size:
        abs_d2[centers] = np.abs(r[centers + 1] - 2.0 * r[centers] + r[centers - 1])

    scale = float(np.max(np.abs(r[finite]), initial=0.0))
    floor = 1e-13 * max(1.0, scale)

    fired = []
    candidates = centers[abs_d2[centers] > ratio * floor]
    for i in candidates:
        lo = max(0, i - guard - window)
        hi = min(n, i + guard + window + 1)
        nbhd = np.concatenate([abs_d2[lo : max(i - guard, 0)], abs_d2[i + guard + 1 : hi]])
        nbhd = nbhd[np.isfinite(nbhd)]
        background = float(np.median(nbhd)) if nbhd.size else 0.0
        if abs_d2[i] > ratio * max(background, floor):
            fired.append(i)

    marked = sorted(set(fired) | set(np.nonzero(~finite)[0].tolist()))
    if not marked:
        return []

    score = np.where(np.isfinite(abs_d2), abs_d2, 0.0)
    score[~finite] = math.inf
    cusps = []
    group = [marked[0]]
    for i in marked[1:]:
        if i - group[-1] <= 2:
            group.append(i)
        else:
            cusps.append(group)
            group = [i]
    cusps.append(group)
    return [float(t[max(g, key=lambda j: (score[j], -j))]) for g in cusps]


_sample = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, 1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


# samples near the float limit overflow the second difference in both
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(_sample, min_size=5, max_size=60),
    ratio=st.floats(1e-3, 1e3),
    window=st.integers(1, 8),
    guard=st.integers(0, 5),
)
def test_matches_loop_detector(values, ratio, window, guard):
    r = np.asarray(values, dtype=float)
    series = RateSeries(np.linspace(0.0, 1.0, r.size), r, "quadrature", PROTOCOL)
    expected = loop_detect_cusps(series, ratio, window, guard)
    assert detect_cusps(series, ratio, window, guard) == expected


@settings(max_examples=100, deadline=None)
@given(
    kinks=st.lists(st.integers(3, 196), max_size=6),
    slopes=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
    noise=st.floats(0.0, 1e-6),
    window=st.integers(1, 8),
    guard=st.integers(0, 5),
)
def test_matches_loop_detector_on_kinked_curves(kinks, slopes, noise, window, guard):
    # smooth curves with slope jumps, the shape a rate series has
    t = np.linspace(0.0, 2.0, 200)
    r = np.sin(3.0 * t) + 2.0
    for i, s in zip(kinks, slopes):
        r = r + s * np.maximum(t - t[i], 0.0)
    r = r + noise * np.cos(37.0 * t)
    series = RateSeries(t, r, "quadrature", PROTOCOL)
    assert detect_cusps(series, 50.0, window, guard) == loop_detect_cusps(
        series, 50.0, window, guard
    )

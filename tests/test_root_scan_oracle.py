"""The one-pass root scan against its two-pass form, kept here as the oracle.

_scan_for_roots once re-scanned on a grid shifted by 0.37 of a panel when
any residual on its grid was exactly 0, and when the shifted grid hit an
exact zero too it returned the zero nodes alone.  It now makes one pass and
reads an exact zero as no sign.  old_scan_nodes and old_scan_for_roots
below are the earlier code, verbatim apart from their names.  Where no
node is an exact zero, which is every protocol tried, the roots and their
falls must agree bit for bit; the pins below hold the exact-zero cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqpt import K_EPS, QuenchProtocol, critical_modes, imbalance_roots, mode_coefficients
from dqpt.criticality import (
    _SCAN_PANELS,
    VARIANTS,
    _bisect,
    _scan_for_roots,
    _scan_nodes,
    _variant_residual,
)


def old_scan_nodes(shift: float = 0.0) -> np.ndarray:
    # uniform interior nodes, optionally shifted, plus geometric
    # densification toward both endpoints so roots within ~1e-3 of the
    # edges are still bracketed
    interior = np.linspace(0.0, math.pi, _SCAN_PANELS + 1)[1:-1]
    if shift:
        interior = interior + shift * (math.pi / _SCAN_PANELS)
    lead = np.geomspace(K_EPS, interior[0], 48, endpoint=False)
    tail = math.pi - np.geomspace(K_EPS, math.pi - interior[-1], 48, endpoint=False)
    return np.concatenate([lead, interior, np.sort(tail)])


def old_scan_for_roots(fn, vals=None):
    nodes = old_scan_nodes()
    vals = np.asarray(fn(nodes) if vals is None else vals)
    if np.any(vals == 0.0):
        nodes = old_scan_nodes(shift=0.37)
        vals = np.asarray(fn(nodes))
        if np.any(vals == 0.0):  # twice in a row is not coincidence
            at = np.flatnonzero(vals == 0.0)
            pad = np.pad(vals, 1, mode="edge")  # node i's neighbours: pad[i], pad[i + 2]
            return nodes[at], pad[at] > pad[at + 2]
    idx = np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))
    scalar = lambda k: float(fn(k))
    roots = [
        _bisect(scalar, nodes[i], nodes[i + 1], float(vals[i]), float(vals[i + 1])) for i in idx
    ]
    return np.asarray(roots, dtype=float), vals[idx] > 0.0


def test_the_scan_nodes_are_built_once_read_only_with_the_oracles_bits():
    nodes = _scan_nodes()
    assert _scan_nodes() is nodes
    assert not nodes.flags.writeable
    assert nodes.tobytes() == old_scan_nodes().tobytes()


def assert_same_scan(protocol, variant):
    fn = lambda k: _variant_residual(protocol, k, variant)
    # once from fn alone (critical_modes) and once from a shared
    # coefficient scan (variant_report)
    nodes = _scan_nodes()
    vals = _variant_residual(protocol, nodes, variant, mode_coefficients(protocol, nodes))
    for given_vals in (None, vals):
        roots, falls = _scan_for_roots(fn, given_vals)
        old_roots, old_falls = old_scan_for_roots(fn, given_vals)
        assert roots.tolist() == old_roots.tolist()
        assert falls.tolist() == old_falls.tolist()


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

# perfbench's topology_scan protocol p33 of seed 1222 (a root at 5.96e-7),
# the two-mode hot cells of configs/fig2.cfg and configs/fig4.cfg, and
# fig4's lambda 1.5 -> 2 just below the pair birth at beta_c ~ 0.3632700851
PINNED = [
    QuenchProtocol(
        1.0010700230580851, 2.3588705013515847, 0.30413425865837507, -2.517016594847984
    ),
    QuenchProtocol(0.0, 0.5, 0.1, -math.pi / 2),
    QuenchProtocol(1.5, 2.0, 0.1, -math.pi / 2),
    QuenchProtocol(1.5, 2.0, 0.01, -math.pi / 2),
    QuenchProtocol(1.5, 2.0, 0.3632700851 - 1e-9, -math.pi / 2),
]
PINNED_IDS = ["steep", "fig2-hot", "fig4-beta0.1", "fig4-beta0.01", "fig4-pair"]


@pytest.mark.parametrize("variant", VARIANTS)
@given(protocol_st)
@settings(deadline=None, max_examples=300)
def test_roots_and_falls_equal_the_two_pass_scan(variant, protocol):
    assert_same_scan(protocol, variant)


@pytest.mark.parametrize("protocol", PINNED, ids=PINNED_IDS)
def test_pinned_protocols_agree_with_the_oracle(protocol):
    for variant in VARIANTS:
        assert_same_scan(protocol, variant)
    assert len(critical_modes(protocol).modes) == 2
    assert len(imbalance_roots(protocol)) == 2


def test_a_zero_on_the_first_node_keeps_the_root_at_one():
    # the two-pass scan met this zero on both grids and returned only it
    roots, falls = _scan_for_roots(lambda k: (k - K_EPS) * (k - 1.0))
    assert roots.shape == (1,) and abs(roots[0] - 1.0) < 1e-12
    assert falls.tolist() == [False]


def test_a_crossing_zero_is_the_node_and_the_grid_is_evaluated_once():
    nodes = _scan_nodes()
    target = float(nodes[1234])
    sizes = []

    def fn(k):
        sizes.append(np.size(k))
        return k - target

    roots, falls = _scan_for_roots(fn)
    assert roots.tolist() == [target]
    assert falls.tolist() == [False]
    assert sizes.count(nodes.size) == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_tangent_zero_is_no_root(sign):
    target = float(_scan_nodes()[1234])
    roots, falls = _scan_for_roots(lambda k: sign * (k - target) ** 2)
    assert roots.tolist() == []
    assert falls.tolist() == []

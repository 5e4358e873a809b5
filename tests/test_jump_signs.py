"""Winding jump signs from the closed form, against the measured winding.

critical_modes takes each jump sign as -sign of the condition residual's
slope at the root.  The oracle below is the measurement it replaced: the
winding number just after a critical time minus just before it.
"""

import ast
import math
import pathlib
import random

import numpy as np
import pytest

from dqpt import QuenchProtocol, critical_modes, mode_coefficients, winding_number

N_PROTOCOLS = 200
WINDOW = 1e-3  # relative offset of the two winding samples around t*


def draw_protocol(rng: random.Random) -> QuenchProtocol:
    """lambda_pre, lambda_post ~ U[0, 3]; beta = inf with probability 0.15,
    else log-uniform on [0.01, 10]; phi ~ U(-pi, pi]."""
    lambda_pre = rng.uniform(0.0, 3.0)
    lambda_post = rng.uniform(0.0, 3.0)
    beta = math.inf if rng.random() < 0.15 else 10.0 ** rng.uniform(-2.0, 1.0)
    phi = math.pi - rng.uniform(0.0, math.tau)
    return QuenchProtocol(lambda_pre, lambda_post, beta, phi)


def measured_jump(protocol, t_star):
    """Winding number at t*(1 + WINDOW) minus at t*(1 - WINDOW)."""
    after = winding_number(protocol, t_star * (1.0 + WINDOW))
    return after - winding_number(protocol, t_star * (1.0 - WINDOW))


def sign_of(jump):
    return 1 if jump > 0.0 else -1


@pytest.fixture(scope="module")
def seeded_rungs():
    """(protocol, k*, rung n, t*_n, closed-form sign) for every sinh mode of
    the seeded protocols whose +-WINDOW holds no other ladder time."""
    rng = random.Random(20261018)
    out = []
    for _ in range(N_PROTOCOLS):
        protocol = draw_protocol(rng)
        cs = critical_modes(protocol, "sinh", 3)
        ladder = [float(t) for times in cs.times for t in times]
        for k, times, sign in zip(cs.modes, cs.times, cs.jump_signs):
            for n, t in enumerate(times.tolist()):
                lo, hi = t * (1.0 - WINDOW), t * (1.0 + WINDOW)
                if sum(lo <= other <= hi for other in ladder) == 1:
                    out.append((protocol, float(k), n, t, sign))
    return out


def test_first_rung_sign_matches_measured_winding(seeded_rungs):
    first = [r for r in seeded_rungs if r[2] == 0]
    assert len(first) >= 100
    wrong = [
        (p, k, t, sign)
        for p, k, _, t, sign in first
        if sign_of(measured_jump(p, t)) != sign
    ]
    assert not wrong


def test_every_resolved_higher_rung_has_the_same_sign(seeded_rungs):
    # the same sign holds at t*_1..3; a measurement that moved nu by less
    # than 1/2 missed the jump and says nothing about its sign
    higher = [r for r in seeded_rungs if r[2] > 0]
    jumps = [measured_jump(p, t) for p, _, _, t, _ in higher]
    resolved = [(r, j) for r, j in zip(higher, jumps) if abs(j) > 0.5]
    assert len(resolved) >= 0.95 * len(higher) >= 200
    assert all(sign_of(j) == r[4] for r, j in resolved)


@pytest.mark.parametrize(
    "pre,post,beta",
    [(0.0, 0.5, 0.1), (1.5, 2.0, 0.1), (1.5, 2.0, 0.01)],
    ids=["fig2-hot", "fig4-beta0.1", "fig4-beta0.01"],
)
def test_two_mode_figure_cells_jump_down_then_up(pre, post, beta):
    cs = critical_modes(QuenchProtocol(pre, post, beta, -math.pi / 2), "sinh", 3)
    assert cs.modes.size == 2
    assert cs.jump_signs == [1, -1]


def tanh_residual(protocol, k):
    # tanh(beta eps) cos(2 dtheta) + sin(phi) sin(2 dtheta), written out here
    c = mode_coefficients(protocol, k)
    dth = np.asarray(c.delta_theta)
    x = np.tanh(protocol.beta * np.asarray(c.eps_pre))
    return x * np.cos(2.0 * dth) + math.sin(protocol.phi) * np.sin(2.0 * dth)


def test_tanh_sign_is_the_drop_of_its_residual_across_the_root():
    rng = random.Random(7)
    count = 0
    for _ in range(N_PROTOCOLS):
        protocol = draw_protocol(rng)
        cs = critical_modes(protocol, "tanh", 0)
        for k, sign in zip(cs.modes, cs.jump_signs):
            h = min(1e-7, 0.5 * k, 0.5 * (math.pi - k))
            left, right = tanh_residual(protocol, np.array([k - h, k + h]))
            assert sign == (1 if left > right else -1)
            count += 1
    assert count >= 50


def test_criticality_imports_nothing_from_observables():
    import dqpt.criticality

    tree = ast.parse(pathlib.Path(dqpt.criticality.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("observables" in name.split(".") for name in names), ast.dump(node)

"""boundary_partition on arrays, against the scalar cmath formula it replaced.

The zeros task evaluates a whole Fisher-zero branch in one call.  np.exp
and cmath.exp may differ in the last bits, so the residuals are compared
within 4 ulp of the old value (plus 1e-30 absolute, for residuals that
round to nearly nothing), not bitwise.
"""

import cmath
import math
import random

import numpy as np
import pytest

from dqpt import (
    K_EPS,
    QuenchProtocol,
    boundary_partition,
    fisher_zero_line,
    mode_coefficients,
)
from dqpt.cli import RunManifest, main

N_PAIRS = 500
K = np.linspace(K_EPS, math.pi - K_EPS, 32)


def old_boundary_partition(coeffs, z) -> complex:
    z = complex(z)
    eps = float(coeffs.eps_post)
    if abs(z.real) * eps > 700.0:
        raise OverflowError(
            f"boundary partition out of range: |Re z|*eps = {abs(z.real) * eps:.3g} > 700"
        )
    ze = z * eps
    return cmath.exp(-ze) * float(coeffs.weight_plus) + cmath.exp(ze) * float(
        coeffs.weight_minus
    )


def draw_protocol(rng: random.Random) -> QuenchProtocol:
    """lambda_pre, lambda_post ~ U[0, 3]; beta = inf with probability 0.15,
    else log-uniform on [0.01, 10]; phi ~ U(-pi, pi]."""
    lambda_pre = rng.uniform(0.0, 3.0)
    lambda_post = rng.uniform(0.0, 3.0)
    beta = math.inf if rng.random() < 0.15 else 10.0 ** rng.uniform(-2.0, 1.0)
    phi = math.pi - rng.uniform(0.0, math.tau)
    return QuenchProtocol(lambda_pre, lambda_post, beta, phi)


def test_branch_residuals_match_the_scalar_formula():
    rng = random.Random(7)
    compared = 0
    for _ in range(N_PAIRS):
        protocol = draw_protocol(rng)
        line = fisher_zero_line(protocol, rng.randrange(4), K)
        new = boundary_partition(mode_coefficients(protocol, line.momenta), line.zeros)
        assert new.shape == line.zeros.shape
        for km, z, value in zip(line.momenta, line.zeros, new):
            old = old_boundary_partition(mode_coefficients(protocol, float(km)), z)
            assert abs(value - old) <= 4.0 * np.finfo(float).eps * abs(old) + 1e-30
            compared += 1
    assert compared > N_PAIRS * K.size // 2


def test_one_element_out_of_range_raises():
    coeffs = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0, 0.3), K)
    z = np.full(K.size, 0.5j)
    z[17] += 701.0 / coeffs.eps_post[17]
    with pytest.raises(OverflowError, match=r"\|Re z\|\*eps = 701 > 700"):
        boundary_partition(coeffs, z)
    z[17] = -z[17].conjugate()  # the negative real side is guarded too
    with pytest.raises(OverflowError):
        boundary_partition(coeffs, z)
    z[17] = 0.5j
    assert np.all(np.isfinite(boundary_partition(coeffs, z)))


def test_scalar_in_gives_complex_out():
    coeffs = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0, 0.3), 1.1)
    for z in (0.8, 0.3 + 1.2j, np.complex128(0.3 + 1.2j), np.asarray(0.3 + 1.2j)):
        value = boundary_partition(coeffs, z)
        assert type(value) is complex
        assert value == pytest.approx(old_boundary_partition(coeffs, z), rel=1e-15)


def test_shapes_broadcast():
    coeffs = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0, 0.3), K)
    z = np.array([0.0, 0.4j, 0.1 + 2.0j])[:, None]
    grid = boundary_partition(coeffs, z)
    assert grid.shape == (3, K.size)
    np.testing.assert_array_equal(grid[1], boundary_partition(coeffs, z[1, 0]))
    np.testing.assert_allclose(grid[0], 1.0, rtol=0, atol=1e-15)
    empty = mode_coefficients(QuenchProtocol(0.5, 2.0, 1.0), K[:0])
    assert boundary_partition(empty, K[:0]).shape == (0,)


def test_zeros_task_with_every_sample_skipped_writes_a_header_only_csv(tmp_path):
    # ground state of a field above 1, quenched to the same field: one weight
    # vanishes at every momentum, so the branch arrives at the residual empty
    out = tmp_path / "z.csv"
    argv = ["zeros", "--lambda-pre", "2", "--lambda-post", "2", "--beta", "inf"]
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == "n,k,re_z,im_z,residual\n"
    entries = dict(RunManifest.from_text((tmp_path / "z.csv.manifest").read_text()).entries)
    assert sum(key.startswith("warning.") for key in entries) == 256
    assert entries["rows"] == "0"
    assert entries["zeros.max_residual"] == "0"

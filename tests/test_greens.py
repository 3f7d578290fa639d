import math

import numpy as np
import pytest
import scipy.special

from deltaresolvent.errors import SingularAtOrigin
from deltaresolvent.greens import greens_closed, greens_quadrature

# frozen reference values
D1_AT_TWO = 0.06766764161830635          # e^-2 / 2  (z = -1)
D3_AT_ONE = 0.029274915762159584         # e^-1 / (4 pi)
D4_AT_ONE = 0.015246488251616222         # K1(1) / (4 pi^2)
D2_AT_HALF = 0.14712586467430186         # quadrature-only dimension


def test_closed_form_values():
    assert greens_closed(1, -1.0, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert greens_closed(1, -1.0, 2.0) == pytest.approx(D1_AT_TWO, rel=1e-14)
    assert greens_closed(3, -1.0, 1.0) == pytest.approx(D3_AT_ONE, rel=1e-14)
    assert greens_closed(4, -1.0, 1.0) == pytest.approx(D4_AT_ONE, rel=1e-11)


def test_closed_form_scaling_in_z():
    """G_d(z, x) = kappa^(d-2) G_d(-1, kappa x) with kappa = sqrt(-z)."""
    for d in (1, 3, 4):
        for z in (-0.5, -4.0, -9.0):
            kappa = math.sqrt(-z)
            for x in (0.3, 1.1):
                lhs = greens_closed(d, z, x)
                rhs = kappa ** (d - 2) * greens_closed(d, -1.0, kappa * x)
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_closed_form_guards():
    with pytest.raises(ValueError):
        greens_closed(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        greens_closed(2, -1.0, 0.5)
    with pytest.raises(ValueError):
        greens_closed(3, -1.0, -0.5)
    for d in (3, 4):
        with pytest.raises(SingularAtOrigin):
            greens_closed(d, -1.0, 0.0)


def test_quadrature_matches_closed_forms():
    """Heat-kernel quadrature agrees with the elementary kernels."""
    lattice = np.linspace(0.05, 3.0, 20)
    for d in (1, 3, 4):
        for z in (-0.5, -1.0, -6.0):
            for x in lattice:
                a = greens_closed(d, z, float(x))
                b = greens_quadrature(d, z, float(x))
                assert b == pytest.approx(a, rel=1e-8, abs=1e-13)


def test_quadrature_d1_at_origin():
    # the transformed integrand loses a little accuracy at coincidence
    assert greens_quadrature(1, -4.0, 0.0) == pytest.approx(0.25, rel=1e-7)


def test_quadrature_d2_reference():
    assert greens_quadrature(2, -1.0, 0.5) == pytest.approx(
        D2_AT_HALF, rel=1e-10)
    # cross-check with the standard K0 representation
    ref = scipy.special.k0(0.5) / (2.0 * math.pi)
    assert greens_quadrature(2, -1.0, 0.5) == pytest.approx(ref, rel=1e-10)


def test_quadrature_guards():
    with pytest.raises(SingularAtOrigin):
        greens_quadrature(2, -1.0, 0.0)
    with pytest.raises(ValueError):
        greens_quadrature(3, -1.0, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        greens_quadrature(3, 0.0, 0.5)


def test_kernels_decay_monotonically():
    xs = np.linspace(0.2, 5.0, 25)
    for d in (1, 3, 4):
        vals = greens_closed(d, -2.0, xs)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)

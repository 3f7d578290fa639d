import numpy as np
import pytest

from deltaresolvent.bump import LimitCouplingMap
from deltaresolvent.forms import (apply_trace, evaluate_form,
                                  fourier_trace_identities, h1_norm_squared,
                                  momentum_trace, trace_adjoint)
from deltaresolvent.grid import (Grid, lab_axes_from_front, lab_axes_to_front,
                                 pair_frame_adjoint, pair_frame_forward,
                                 random_band_limited, to_momentum)
from deltaresolvent.system import SystemSpec, enumerate_pairs, frame_weights

SPEC2 = SystemSpec(masses=(1.0, 1.0), g=1.0)
SPEC3 = SystemSpec(masses=(1.0, 2.0, 0.5), g=1.0)


def test_trace_restricts_to_collision_hyperplane():
    """For equal masses the trace of f is f evaluated at x_1 = x_2."""
    grid = Grid(64, 12.8, 2)
    xi = grid.x[:, None]
    xj = grid.x[None, :]
    f = np.exp(-xi ** 2 - 0.7 * xj ** 2 + 0.3 * xi * xj)
    pair = enumerate_pairs(SPEC2)[0]
    t = apply_trace(grid, SPEC2, pair, f)
    diag = np.exp(-(1.0 + 0.7 - 0.3) * grid.x ** 2)
    # the reduced coordinate is the pair centre of mass = x at coincidence
    assert np.max(np.abs(t - diag)) < 1e-6


def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("spec", [SystemSpec(masses=(1.0, 2.0), g=1.0), SPEC3],
                         ids=["n2", "n3"])
def test_diagonal_gather_matches_pair_frame_row(spec):
    """Trace and limit map (gather/scatter) against the spectral pair frame at r = 0.

    The limit map's support rows all carry the r = 0 row, weighted by the
    window.  The frame change and the map run on Fourier coefficients, so
    each is wrapped in the FFTs here: lab axes in, reduced axes out.
    """
    grid = Grid(16, 3.2, spec.n)
    N = grid.npoints
    lab, reduced = range(spec.n), range(1, spec.n)
    rng = np.random.default_rng(9)
    batch = (2,)
    for pair in enumerate_pairs(spec):
        alpha, beta = frame_weights(spec, pair)
        cmap = LimitCouplingMap(grid, spec, pair)
        f = rng.standard_normal(grid.shape + batch) \
            + 1j * rng.standard_normal(grid.shape + batch)
        y = rng.standard_normal(grid.shape[1:] + batch) \
            + 1j * rng.standard_normal(grid.shape[1:] + batch)
        front = np.fft.fft2(lab_axes_to_front(f, pair), axes=(0, 1))
        row = np.fft.ifft(pair_frame_forward(grid, front, alpha, beta), axis=1)[N // 2]
        assert _relative_gap(apply_trace(grid, spec, pair, f), row) <= 1e-14
        w = cmap.weights.reshape((-1,) + (1,) * row.ndim)
        mapped = np.fft.ifftn(cmap.forward(np.fft.fftn(f, axes=lab)), axes=reduced)
        assert _relative_gap(mapped, w * row[None]) <= 1e-14

        def frame_adjoint(embedded):
            framed = pair_frame_adjoint(grid, np.fft.fft(embedded, axis=1), alpha, beta)
            return lab_axes_from_front(np.fft.ifft2(framed, axes=(0, 1)), pair)

        embedded = np.zeros((N,) + y.shape, dtype=complex)
        embedded[N // 2] = y
        ref = frame_adjoint(embedded)
        assert _relative_gap(trace_adjoint(grid, spec, pair, y), ref / grid.h) <= 1e-14
        chi = w * y[None]
        embedded[N // 2] = np.sum(w * chi, axis=0)
        ref = frame_adjoint(embedded)
        mapped = np.fft.ifftn(cmap.adjoint(np.fft.fftn(chi, axes=reduced)), axes=lab)
        assert _relative_gap(mapped, ref) <= 1e-14


def test_trace_adjoint_pairing():
    grid = Grid(16, 3.2, 3)
    rng = np.random.default_rng(0)
    reduced_grid = Grid(16, 3.2, 2)
    for pair in enumerate_pairs(SPEC3):
        for _ in range(4):
            f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            y = rng.standard_normal(reduced_grid.shape) \
                + 1j * rng.standard_normal(reduced_grid.shape)
            lhs = reduced_grid.weight * np.vdot(y, apply_trace(grid, SPEC3, pair, f))
            rhs = grid.weight * np.vdot(trace_adjoint(grid, SPEC3, pair, y), f)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_momentum_trace_equals_restriction():
    """Summing the transform over the relative momentum is the trace at zero."""
    grid = Grid(32, 6.4, 2)
    rng = np.random.default_rng(1)
    f = random_band_limited(grid, rng)
    hat = to_momentum(grid, f, axes=(0,))
    restricted = f[grid.npoints // 2]
    assert np.allclose(momentum_trace(grid, hat), restricted, atol=1e-12)


def test_fourier_trace_identities_machine_exact():
    grid = Grid(16, 3.2, 3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        res = fourier_trace_identities(grid, f)
        assert set(res) == {"transform_after", "full_transform", "relative_only"}
        for value in res.values():
            assert value < 1e-12


def test_gradient_norm_matches_plane_wave():
    grid = Grid(32, 6.4, 2)
    wave = np.exp(1j * grid.p[3] * grid.x)[:, None] * np.ones(32)[None, :]
    norm2 = grid.weight * float(np.sum(np.abs(wave) ** 2))
    assert h1_norm_squared(grid, wave) == pytest.approx(
        (1.0 + grid.p[3] ** 2) * norm2, rel=1e-12)


def test_form_and_h1_norm_match_per_axis_derivatives():
    """The Parseval sums equal the spectral-derivative definitions, Nyquist
    column included: white noise puts weight on every wavenumber."""
    grid = Grid(16, 3.2, 3)
    rng = np.random.default_rng(8)
    phi, psi = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                for _ in range(2))

    def derivative(field, axis):
        shape = [1] * field.ndim
        shape[axis] = grid.npoints
        hat = np.fft.fft(field, axis=axis) * (1j * grid.p.reshape(shape))
        return np.fft.ifft(hat, axis=axis)

    spec_free = SystemSpec(masses=SPEC3.masses, g=0.0)
    kinetic = sum(grid.weight * np.vdot(derivative(phi, a), derivative(psi, a)) / (2.0 * m)
                  for a, m in enumerate(SPEC3.masses))
    assert evaluate_form(grid, spec_free, phi, psi) == pytest.approx(kinetic, rel=1e-12)
    h1 = grid.weight * (np.vdot(phi, phi).real + sum(
        np.vdot(derivative(phi, a), derivative(phi, a)).real for a in range(3)))
    assert h1_norm_squared(grid, phi) == pytest.approx(h1, rel=1e-12)


def test_trace_bounded_by_sobolev_norm():
    """The hyperplane trace is H^1-bounded with constant one."""
    grid = Grid(32, 6.4, 2)
    rng = np.random.default_rng(3)
    pair = enumerate_pairs(SPEC2)[0]
    for _ in range(25):
        f = random_band_limited(grid, rng)
        t = apply_trace(grid, SPEC2, pair, f)
        trace_sq = grid.h * float(np.sum(np.abs(t) ** 2))
        assert trace_sq <= h1_norm_squared(grid, f)


def test_form_is_hermitian():
    grid = Grid(16, 3.2, 3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        phi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        a = evaluate_form(grid, SPEC3, phi, psi)
        b = evaluate_form(grid, SPEC3, psi, phi)
        assert a == pytest.approx(np.conj(b), rel=1e-12)


def test_form_positive_for_repulsive_coupling():
    spec = SystemSpec(masses=(1.0, 1.0), g=-2.0)
    grid = Grid(32, 6.4, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi = random_band_limited(grid, rng)
        q = evaluate_form(grid, spec, phi, phi)
        assert abs(q.imag) < 1e-12
        assert q.real >= 0.0


def test_form_kinetic_part_matches_free_energy():
    """With g = 0 the form is the free Rayleigh quotient."""
    spec = SystemSpec(masses=(1.0, 2.0), g=0.0)
    grid = Grid(32, 6.4, 2)
    wave = (np.exp(1j * grid.p[2] * grid.x)[:, None]
            * np.exp(1j * grid.p[5] * grid.x)[None, :])
    t = evaluate_form(grid, spec, wave, wave)
    norm2 = grid.weight * float(np.sum(np.abs(wave) ** 2))
    expected = (grid.p[2] ** 2 / 2.0 + grid.p[5] ** 2 / 4.0) * norm2
    assert t.real == pytest.approx(expected, rel=1e-12)
    assert t.imag == pytest.approx(0.0, abs=1e-10)


def test_form_rejects_reduced_fields():
    grid = Grid(16, 3.2, 3)
    with pytest.raises(ValueError):
        evaluate_form(grid, SPEC3, np.zeros((16, 16)), np.zeros((16, 16, 16)))


def test_form_couples_through_traces():
    """t(phi, psi) minus the free part equals -g sum of trace pairings."""
    grid = Grid(16, 3.2, 3)
    rng = np.random.default_rng(6)
    phi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spec_free = SystemSpec(masses=SPEC3.masses, g=0.0)
    coupled = evaluate_form(grid, SPEC3, phi, psi)
    free = evaluate_form(grid, spec_free, phi, psi)
    acc = 0.0 + 0.0j
    w = grid.h ** 2
    for pair in enumerate_pairs(SPEC3):
        tp = apply_trace(grid, SPEC3, pair, phi)
        tq = apply_trace(grid, SPEC3, pair, psi)
        acc += w * complex(np.vdot(tp, tq))
    assert coupled - free == pytest.approx(-SPEC3.g * acc, rel=1e-10)

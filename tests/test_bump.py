import numpy as np
import pytest

from deltaresolvent.bump import (BumpProfile, ChainCouplingMap, DEFAULT_PROFILE,
                                 LimitCouplingMap, ShearCouplingMap, TraceMap,
                                 build_hamiltonian, coupling_map,
                                 renormalized_samples, resolution_ok,
                                 sampled_pair_potential)
from deltaresolvent.errors import PotentialOverflowsBox, UnresolvedBump
from deltaresolvent.forms import apply_trace, trace_adjoint
from deltaresolvent.grid import (Grid, lab_axes_from_front, lab_axes_to_front,
                                 minimum_image_separation, pair_frame_adjoint,
                                 pair_frame_forward, random_band_limited)
from deltaresolvent.resolvent import FactoredAssembly
from deltaresolvent.system import SystemSpec, enumerate_pairs, frame_weights

# quadrature values for the default profile, frozen ahead of time
SQUARED_MASS = 1.0
SECOND_MOMENT = 0.11492724584548189
POTENTIAL_AT_ZERO = 1.0169000522168499
VALUE_AT_HALF = 0.72256065153955595


def _position_forward(cmap, f):
    """A map in position space: its momentum form wrapped in the FFTs."""
    n = cmap.spec.n
    return np.fft.ifftn(cmap.forward(np.fft.fftn(f, axes=range(n))), axes=range(1, n))


def _position_adjoint(cmap, chi):
    n = cmap.spec.n
    return np.fft.ifftn(cmap.adjoint(np.fft.fftn(chi, axes=range(1, n))), axes=range(n))


def test_profile_is_normalized():
    assert DEFAULT_PROFILE.potential_moment(0) == pytest.approx(
        SQUARED_MASS, abs=1e-12)
    recomputed = BumpProfile.calibrated()
    assert recomputed.normalization == pytest.approx(
        DEFAULT_PROFILE.normalization, rel=1e-12)


def test_profile_pointwise_values():
    assert DEFAULT_PROFILE.potential(0.0) == pytest.approx(POTENTIAL_AT_ZERO)
    assert DEFAULT_PROFILE.value(0.5) == pytest.approx(VALUE_AT_HALF)
    assert DEFAULT_PROFILE.value(np.array([-0.25, 0.25])).tolist() == \
        pytest.approx([DEFAULT_PROFILE.value(0.25)] * 2)  # even


def test_profile_vanishes_outside_support():
    x = np.array([-2.0, -1.0, 1.0, 1.5])
    assert np.all(DEFAULT_PROFILE.value(x) == 0.0)
    # smooth cutoff: tiny just inside the endpoint
    assert 0.0 < DEFAULT_PROFILE.value(0.999) < 1e-100


def test_second_moment():
    assert DEFAULT_PROFILE.potential_moment(2) == pytest.approx(
        SECOND_MOMENT, rel=1e-10)
    assert DEFAULT_PROFILE.potential_moment(1) == pytest.approx(0.0, abs=1e-13)


def test_scaled_potential_keeps_unit_mass():
    """V_eps = V(./eps)/eps integrates to one for every width."""
    grid = Grid(1024, 8.0)
    for eps in (1.0, 0.5, 0.25):
        v = DEFAULT_PROFILE.scaled_potential(grid.x, eps)
        assert grid.h * np.sum(v) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        DEFAULT_PROFILE.scaled_potential(grid.x, 0.0)


def test_renormalized_samples_close_grid_quadrature():
    grid = Grid(64, 4.0)
    v = renormalized_samples(grid)
    assert grid.h * np.sum(v ** 2) == pytest.approx(1.0, rel=1e-14)
    raw = DEFAULT_PROFILE.value(grid.x)
    assert np.max(np.abs(v - raw)) < 1e-3 * np.max(raw)


def test_chain_map_samples_the_pair_frame_field_at_squeezed_points():
    """Row a of the chain map is the window at r_a times the field at eps * r_a.

    Equal masses put the pair frame at r = x1 - x2, R = (x1 + x2)/2, so a
    lab field G(x1 - x2) H((x1 + x2)/2) has a closed-form image; the
    squeeze carries no amplitude factor.
    """
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(128, 12.8, 2)
    xi = grid.x[:, None]
    xj = grid.x[None, :]
    f = np.exp(-0.5 * (xi - xj) ** 2 - ((xi + xj) / 2) ** 2) + 0.0j
    for eps in (0.5, 0.1):
        cmap = ChainCouplingMap(grid, spec, pair, eps)
        r = grid.x[cmap.support][:, None]
        expected = (cmap.weights[:, None] * np.exp(-0.5 * (eps * r) ** 2)
                    * np.exp(-grid.x[None, :] ** 2))
        assert (np.max(np.abs(_position_forward(cmap, f) - expected))
                < 1e-10 * np.max(expected))


def _dilation_waves(cmap):
    """Waves of the trigonometric interpolant at eps * x, all N rows."""
    grid = cmap.grid
    pts = cmap.eps * grid.x - grid.x[0]
    waves = np.exp(1j * np.outer(pts, grid.p))
    waves[:, grid.npoints // 2] = np.cos(np.pi * pts / grid.h)
    return waves


def _full_rows_forward(cmap, f):
    """Each map's full-row position-space composition, all N relative rows."""
    grid, spec, pair = cmap.grid, cmap.spec, cmap.pair
    N = grid.npoints
    front = lab_axes_to_front(f, pair)
    if isinstance(cmap, LimitCouplingMap):
        window = renormalized_samples(grid)
        trace = apply_trace(grid, spec, pair, f)
        return window.reshape((-1,) + (1,) * trace.ndim) * trace[None]
    if isinstance(cmap, ShearCouplingMap):
        d, q = np.arange(N)[:, None], np.arange(N)[None, :]
        sheared = front[(d + q) % N, q]
        root = np.sqrt(DEFAULT_PROFILE.scaled_potential(
            minimum_image_separation(grid)[:, 0], cmap.eps))
        return root.reshape((-1,) + (1,) * (sheared.ndim - 1)) * sheared
    # chain: pair frame, then the dilation (trigonometric interpolation of
    # the relative axis at eps * r, the Nyquist term split evenly between
    # +-pi/h), then the window
    framed = np.fft.ifft(pair_frame_forward(grid, np.fft.fft2(front, axes=(0, 1)),
                                            *frame_weights(spec, pair)), axis=1)
    phases = _dilation_waves(cmap)
    squeezed = np.tensordot(phases, np.fft.fft(framed, axis=0) / N, axes=(1, 0))
    window = renormalized_samples(grid)
    return window.reshape((-1,) + (1,) * (squeezed.ndim - 1)) * squeezed


def _full_rows_adjoint(cmap, chi):
    """Adjoint of :func:`_full_rows_forward` on a field over all N rows."""
    grid, spec, pair = cmap.grid, cmap.spec, cmap.pair
    N = grid.npoints
    if isinstance(cmap, LimitCouplingMap):
        window = renormalized_samples(grid)
        w = window.reshape((-1,) + (1,) * (chi.ndim - 1))
        embedded = np.zeros((N,) + chi.shape[1:], dtype=complex)
        embedded[np.arange(N), np.arange(N)] = np.sum(w * chi, axis=0)
        return lab_axes_from_front(embedded, pair)
    if isinstance(cmap, ShearCouplingMap):
        root = np.sqrt(DEFAULT_PROFILE.scaled_potential(
            minimum_image_separation(grid)[:, 0], cmap.eps))
        d, q = np.arange(N)[:, None], np.arange(N)[None, :]
        out = np.zeros_like(chi)
        out[(d + q) % N, q] = root.reshape((-1,) + (1,) * (chi.ndim - 1)) * chi
        return lab_axes_from_front(out, pair)
    window = renormalized_samples(grid)
    phases = _dilation_waves(cmap)
    w = window.reshape((-1,) + (1,) * (chi.ndim - 1))
    unsqueezed = np.fft.ifft(np.tensordot(phases.conj().T, w * chi, axes=(1, 0)),
                             axis=0)
    framed = np.fft.ifft2(pair_frame_adjoint(grid, np.fft.fft(unsqueezed, axis=1),
                                             *frame_weights(spec, pair)), axes=(0, 1))
    return lab_axes_from_front(framed, pair)


@pytest.mark.parametrize("masses", [(1.0, 2.0), (1.0, 2.0, 0.5), (1.0, 2.0, 0.5, 1.5)],
                         ids=["n2", "n3", "n4"])
def test_support_rows_match_the_full_row_composition(masses):
    """forward is the full-row composition at the support rows; adjoint is the
    full-row adjoint of the zero-padded embedding."""
    spec = SystemSpec(masses=masses, g=1.0)
    grid = Grid(16, 3.2, spec.n)
    N = grid.npoints
    rng = np.random.default_rng(11)
    batch = (2,)
    for pair in enumerate_pairs(spec):
        maps = [LimitCouplingMap(grid, spec, pair),
                ChainCouplingMap(grid, spec, pair, 0.2),
                ShearCouplingMap(grid, spec, pair, 0.8)]
        for cmap in maps:
            f = (rng.standard_normal(grid.shape + batch)
                 + 1j * rng.standard_normal(grid.shape + batch))
            ref = _full_rows_forward(cmap, f)
            assert np.all(ref[np.setdiff1d(np.arange(N), cmap.support)] == 0.0)
            assert _relative_gap(_position_forward(cmap, f), ref[cmap.support]) <= 1e-14
            shape = (cmap.support.size,) + grid.shape[1:] + batch
            chi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            embedded = np.zeros((N,) + shape[1:], dtype=complex)
            embedded[cmap.support] = chi
            assert _relative_gap(_position_adjoint(cmap, chi),
                                 _full_rows_adjoint(cmap, embedded)) <= 1e-14


def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("grid, masses", [
    (Grid(32, 6.4, 2), (1.0, 1.5)),
    (Grid(16, 3.2, 3), (1.0, 0.5, 2.0)),
    (Grid(8, 3.2, 4), (1.0, 2.0, 0.5, 1.5)),
], ids=["n2", "n3", "n4"])
def test_trace_map_is_the_position_space_trace(grid, masses):
    """The theta route's one-row map is the independent trace of the forms
    module under the FFT: forward is h^(-1/2) apply_trace, adjoint is
    h^(1/2) trace_adjoint, for every pair."""
    spec = SystemSpec(masses=masses, g=1.0)
    lab, reduced = tuple(range(spec.n)), tuple(range(spec.n - 1))
    rng = np.random.default_rng(12)
    for pair in enumerate_pairs(spec):
        tmap = TraceMap(grid, spec, pair)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u = (rng.standard_normal(grid.shape[1:])
             + 1j * rng.standard_normal(grid.shape[1:]))
        forward = tmap.forward(np.fft.fftn(f, axes=lab))
        assert forward.shape == (1,) + grid.shape[1:]
        assert _relative_gap(forward[0], grid.h ** -0.5 * np.fft.fftn(
            apply_trace(grid, spec, pair, f), axes=reduced)) <= 1e-13
        assert _relative_gap(tmap.adjoint(np.fft.fftn(u, axes=reduced)[None]),
                             grid.h ** 0.5 * np.fft.fftn(
                                 trace_adjoint(grid, spec, pair, u), axes=lab)) <= 1e-13


def test_sampled_potential_overflow_guard():
    grid = Grid(16, 3.2, 2)
    with pytest.raises(PotentialOverflowsBox):
        sampled_pair_potential(grid, 2.0)
    v2 = sampled_pair_potential(grid, 1.0)
    assert v2.shape == (16, 16)
    assert np.max(v2) == pytest.approx(POTENTIAL_AT_ZERO)


def test_coupling_maps_reject_overflowing_width():
    """A bump wider than half the box is refused by the map it selects.

    Such a width is always resolved, so the dispatcher picks the shear map;
    the chain map's own check is test_width_map_constructors_check_the_box.
    """
    grid = Grid(16, 3.2, 2)
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    with pytest.raises(PotentialOverflowsBox):
        coupling_map(grid, spec, pair, 2.0)
    with pytest.raises(PotentialOverflowsBox):
        FactoredAssembly(grid, spec, -20.0, 2.0)
    assert isinstance(coupling_map(grid, spec, pair, 1.5), ShearCouplingMap)


def test_width_map_constructors_check_the_box():
    """Built directly, not through coupling_map, both width maps still refuse."""
    grid = Grid(16, 3.2, 2)
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    for cls in (ChainCouplingMap, ShearCouplingMap):
        with pytest.raises(PotentialOverflowsBox):
            cls(grid, spec, pair, 2.0)
        assert isinstance(cls(grid, spec, pair, 1.5), cls)


def test_resolution_gate():
    grid = Grid(32, 6.4, 2)  # h = 0.2
    assert resolution_ok(grid, 0.8)
    assert not resolution_ok(grid, 0.4)
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    with pytest.raises(UnresolvedBump):
        build_hamiltonian(grid, spec, 0.4)


def test_hamiltonian_is_hermitian_and_dense_matrix_matches_apply():
    spec = SystemSpec(masses=(1.0, 2.0), g=1.3)
    grid = Grid(16, 3.2, 2)
    ham = build_hamiltonian(grid, spec, 1.0)
    mat = ham.matrix()
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    assert np.allclose(ham.apply(f).ravel(), mat @ f.ravel(), atol=1e-10)


def test_dense_matrix_matches_apply_three_particles():
    """The Kronecker-sum assembly handles three axes with unequal masses."""
    spec = SystemSpec(masses=(1.0, 2.0, 3.0), g=1.0)
    grid = Grid(16, 3.2, 3)
    ham = build_hamiltonian(grid, spec, 0.8)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    assert np.max(np.abs(ham.matrix() @ f.ravel() - ham.apply(f).ravel())) < 1e-10


def test_hamiltonian_potential_term_signs():
    """Attractive coupling lowers the Rayleigh quotient of a peaked state."""
    spec_att = SystemSpec(masses=(1.0, 1.0), g=1.0)
    spec_rep = SystemSpec(masses=(1.0, 1.0), g=-1.0)
    grid = Grid(32, 6.4, 2)
    xi = grid.x[:, None]
    xj = grid.x[None, :]
    f = np.exp(-xi ** 2 - xj ** 2)
    f = f / (np.sqrt(grid.weight) * np.linalg.norm(f))
    e_att = grid.weight * np.vdot(f, build_hamiltonian(grid, spec_att, 0.8).apply(f)).real
    e_rep = grid.weight * np.vdot(f, build_hamiltonian(grid, spec_rep, 0.8).apply(f)).real
    assert e_att < e_rep


@pytest.mark.parametrize("masses", [(1.0, 1.0), (0.5, 1.5)])
def test_coupling_map_adjoints(masses):
    """The maps run on unnormalized FFT coefficients (numpy's default) in and
    out, so each adjoint is N times the Euclidean adjoint of its forward map."""
    spec = SystemSpec(masses=masses, g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(64, 12.8, 2)
    rng = np.random.default_rng(2)
    for cmap in (ChainCouplingMap(grid, spec, pair, 0.8),
                 ShearCouplingMap(grid, spec, pair, 0.8),
                 LimitCouplingMap(grid, spec, pair)):
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        shape = (cmap.support.size,) + grid.shape[1:]
        chi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lhs = grid.npoints * np.vdot(chi, cmap.forward(f))
        rhs = np.vdot(cmap.adjoint(chi), f)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_shear_square_reproduces_sampled_potential():
    """A* A equals multiplication by V_eps when the bump is resolved."""
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(32, 6.4, 2)
    eps = 0.8
    cmap = ShearCouplingMap(grid, spec, pair, eps)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid.shape)
    via_map = _position_adjoint(cmap, _position_forward(cmap, f))
    v2 = sampled_pair_potential(grid, eps)
    sep = np.abs(grid.x[:, None] - grid.x[None, :])
    direct = v2 * f
    assert np.max(np.abs(via_map - direct)) < 1e-10 * np.max(np.abs(direct))


def test_chain_form_narrows_onto_trace_pairing():
    """The narrow-width factorization concentrates on the hyperplane.

    <f, A_eps* A_eps f> approaches the squared hyperplane trace as the
    width shrinks; the channel parametrization differs from the shear
    route, so this weak statement (not pointwise agreement) is the
    contract.
    """
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(64, 12.8, 2)
    rng = np.random.default_rng(4)
    f = random_band_limited(grid, rng)
    t = apply_trace(grid, spec, pair, f)
    target = grid.h * float(np.sum(np.abs(t) ** 2))
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        cmap = ChainCouplingMap(grid, spec, pair, eps)
        chi = _position_forward(cmap, f)
        q = grid.weight * float(np.vdot(f, _position_adjoint(cmap, chi)).real)
        # the form factorizes, hence equals the channel norm exactly
        assert q == pytest.approx(
            grid.weight * float(np.sum(np.abs(chi) ** 2)), rel=1e-12)
        gaps.append(abs(q - target) / target)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3
    assert gaps[-2] / gaps[-1] > 3.0  # roughly quadratic in the width


def test_dispatcher_selects_route():
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(64, 12.8, 2)
    assert isinstance(coupling_map(grid, spec, pair, None), LimitCouplingMap)
    assert isinstance(coupling_map(grid, spec, pair, 0.8), ShearCouplingMap)
    assert isinstance(coupling_map(grid, spec, pair, 0.1), ChainCouplingMap)

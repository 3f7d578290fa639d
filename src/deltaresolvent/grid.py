"""Periodic-box spectral discretization and the solvers built on it.

Fields live on uniform tensor grids over [-L/2, L/2)^d with N points per
axis; derivative and free-resolvent applications go through the FFT and are
exact on band-limited data.  Operators are plain callables on complex
arrays; every map here tolerates extra trailing axes so batches of fields
can be pushed through in one call.
"""

import functools

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse.linalg

from .errors import NoConvergence, ShiftTooCloseToSpectrum
from .system import enumerate_pairs

# Upper limit on total grid points for dense-matrix code paths.
DENSE_LIMIT = 4096

# Shifted GMRES: restart cycles before it raises, relative residual to reach.
_GMRES_MAXITER = 300
_GMRES_TOL = 1e-10


class Grid:
    """Uniform periodic grid: N points per axis on a box of side L.

    Attributes x and p hold the per-axis sample positions and the signed
    FFT wavenumbers; h is the spacing.  ndim is the number of axes a full
    field carries (reduced spaces reuse the same axis data with a smaller
    ndim).
    """

    def __init__(self, npoints, box, ndim=1):
        npoints = int(npoints)
        if npoints < 2 or npoints & (npoints - 1):
            raise ValueError("npoints must be a power of two >= 2, got %d" % npoints)
        if not 0 < box < np.inf:
            raise ValueError("box length must be positive and finite")
        self.npoints = npoints
        self.box = float(box)
        self.ndim = int(ndim)
        self.h = self.box / npoints
        self.x = -self.box / 2 + self.h * np.arange(npoints)
        self.p = 2 * np.pi * scipy.fft.fftfreq(npoints, d=self.h)

    @property
    def shape(self):
        return (self.npoints,) * self.ndim

    @property
    def size(self):
        return self.npoints ** self.ndim

    @property
    def weight(self):
        """Cell volume, i.e. the quadrature weight of one grid point."""
        return self.h ** self.ndim

    def __repr__(self):
        return "Grid(npoints=%d, box=%g, ndim=%d)" % (self.npoints, self.box, self.ndim)


def kinetic_multiplier(grid, masses):
    """Momentum-space symbol of the free generator, sum_i p_i^2 / (2 m_i)."""
    n = len(masses)
    out = np.zeros((grid.npoints,) * n)
    for axis, m in enumerate(masses):
        shape = [1] * n
        shape[axis] = grid.npoints
        out = out + (grid.p ** 2 / (2.0 * m)).reshape(shape)
    return out


def fourier_multiply(mult, field):
    """Apply a momentum-space multiplier on the leading mult.ndim axes of field.

    The FFT runs over those axes; any trailing axes are a batch.
    """
    axes = tuple(range(mult.ndim))
    ext = mult.reshape(mult.shape + (1,) * (field.ndim - mult.ndim))
    return scipy.fft.ifftn(scipy.fft.fftn(field, axes=axes) * ext, axes=axes)


def free_resolvent(grid, masses, z):
    """Handle applying (H0 - z)^{-1} through the FFT on the leading axes."""
    mult = 1.0 / (kinetic_multiplier(grid, masses) - z)

    def apply(field):
        return fourier_multiply(mult, field)

    return apply


# ---------------------------------------------------------------------------
# Continuum-calibrated Fourier transform
# ---------------------------------------------------------------------------
#
# to_momentum returns genuine samples of the unitary continuum transform
# (2 pi)^{-1/2} integral f(x) exp(-i p x) dx on the wavenumber lattice.  The
# (-1)^k factor accounts for the box starting at -L/2 rather than 0 (exact
# because N is even), so hyperplane-restriction identities hold to machine
# precision.


def _alternating(npoints):
    sign = np.ones(npoints)
    sign[1::2] = -1.0
    return sign


def to_momentum(grid, field, axes=None):
    if axes is None:
        axes = tuple(range(grid.ndim))
    out = scipy.fft.fftn(field, axes=axes)
    sign = _alternating(grid.npoints)
    scale = grid.h / np.sqrt(2 * np.pi)
    for ax in axes:
        shape = [1] * out.ndim
        shape[ax] = grid.npoints
        out = out * sign.reshape(shape)
        out = out * scale
    return out


def random_band_limited(grid, rng):
    """Random smooth field: Gaussian momentum data under a soft spectral cutoff
    at a third of the largest wavenumber, normalized in L2."""
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    window = np.exp(-((np.abs(grid.p) / ((1.0 / 3.0) * np.max(np.abs(grid.p)))) ** 8))
    damp = functools.reduce(np.multiply.outer, [window] * grid.ndim)
    field = scipy.fft.ifftn(coef * damp)
    nrm = np.sqrt(np.sum(np.abs(field.reshape(-1)) ** 2)) * np.sqrt(grid.weight)
    return field / nrm


# ---------------------------------------------------------------------------
# Pair-momentum classes and the pair-frame change (band-limited, exact adjoint)
# ---------------------------------------------------------------------------
#
# Every coupling map commutes with joint translations of the pair, so on
# lab Fourier coefficients it acts class by class on the pair momentum
# K = (k1 + k2) mod N.  The maps run on unnormalized FFT coefficients
# (numpy's default), in and out: a map's ``forward`` is the position-space
# map conjugated by the FFTs, and so is its ``adjoint``, which makes the
# latter N times the Euclidean adjoint of ``forward``.


def class_gather(coeffs):
    """Sort the leading two axes of lab coefficients into pair-momentum classes.

    out[K, k1, ...] = coeffs[k1, (K - k1) mod N, ...]; trailing axes ride along.
    """
    k = np.arange(coeffs.shape[0])
    return coeffs[k, (k[:, None] - k) % k.size]


def class_scatter(classes):
    """Inverse of :func:`class_gather`, a permutation, hence also its adjoint."""
    k = np.arange(classes.shape[0])
    return classes[(k[:, None] + k) % k.size, k[:, None]]


def _nyquist_waves(grid, scale, points):
    """waves[a, k] = exp(i scale p_k points_a), the trigonometric interpolant's
    waves at ``scale`` times each point, with the unpaired Nyquist wavenumber
    -pi/h split evenly between +-pi/h (a cosine) so a real field stays real."""
    waves = np.exp(1j * scale * np.outer(points, grid.p))
    waves[:, grid.npoints // 2] = np.cos(scale * np.pi * points / grid.h)
    return waves


def pair_frame_rows(grid, alpha, beta, rows):
    """The pair-frame change's per-class mixer times ``rows`` (m x N) from the
    left: rows @ mixer[K] for every class K, a [K, m, k1] array.

    mixer[K, a, k1] = V[a, k1] W[a, (K - k1) mod N] / N with the member
    waves V = exp(i alpha p x_a) and W = exp(-i beta p x_a) of
    :func:`_nyquist_waves`.  Built one class at a time, so it needs m N^2
    memory where the whole mixer (``rows`` the identity) takes N^3, and
    each product stays a small matrix product.
    """
    N = grid.npoints
    V = _nyquist_waves(grid, alpha, grid.x)
    W = _nyquist_waves(grid, -beta, grid.x)
    k = np.arange(N)
    return np.stack([rows @ (V * W[:, (K - k) % N] / N) for K in range(N)])


def pair_frame_forward(grid, coeffs, alpha, beta):
    """Re-express a lab field in pair coordinates, spectrally, class by class.

    The leading two axes of ``coeffs`` are the Fourier coefficients of the
    two pair members; the output's leading axes are the relative position
    r_a and the pair-centre momentum K, the Fourier coefficients along R_b
    of out(r_a, R_b, ...) = field(R_b + alpha*r_a, R_b - beta*r_a, ...)
    evaluated by trigonometric interpolation.  Remaining axes ride along.
    The chain coupling maps are built from this change's per-class mixer;
    the change itself is their reference.
    """
    N = grid.npoints
    rest = coeffs.shape[2:]
    mixer = pair_frame_rows(grid, alpha, beta, np.eye(N))
    out = np.matmul(mixer, class_gather(coeffs).reshape(N, N, -1))  # [K, a, rest]
    return out.transpose(1, 0, 2).reshape((N, N) + rest)


def pair_frame_adjoint(grid, field, alpha, beta):
    """The adjoint frame change on coefficients: N times the Euclidean adjoint
    of :func:`pair_frame_forward`, the reference of the chain maps' adjoint."""
    N = grid.npoints
    rest = field.shape[2:]
    adjoint = N * pair_frame_rows(grid, alpha, beta, np.eye(N)).conj().transpose(0, 2, 1)
    mixed = np.matmul(adjoint, field.reshape(N, N, -1).transpose(1, 0, 2))  # [K, k1]
    return class_scatter(mixed).reshape((N, N) + rest)


def lab_axes_to_front(field, pair):
    """Move the two axes belonging to ``pair`` to the front, spectators after."""
    return np.moveaxis(field, (pair.i - 1, pair.j - 1), (0, 1))


def lab_axes_from_front(field, pair):
    return np.moveaxis(field, (0, 1), (pair.i - 1, pair.j - 1))


# ---------------------------------------------------------------------------
# The regularized generator on the grid
# ---------------------------------------------------------------------------


class HamiltonianEps:
    """Grid realization of H0 - g * sum_pairs V(x_i - x_j).

    ``pair_potential`` is V over (x_i, x_j) indices, the same for every
    pair, sampled at the wrapped (minimum-image) separation so the operator
    stays symmetric on the periodic box: V_eps, or the lattice delta.
    """

    def __init__(self, grid, spec, pair_potential):
        self.grid = grid
        self.spec = spec
        self._kin = kinetic_multiplier(grid, spec.masses)
        pot = np.zeros(grid.shape)
        for pair in enumerate_pairs(spec):
            shape = [1] * spec.n
            shape[pair.i - 1] = shape[pair.j - 1] = grid.npoints
            pot = pot + pair_potential.reshape(shape)
        self.potential = pot

    def apply(self, field):
        out = fourier_multiply(self._kin, field)
        pot = self.potential.reshape(
            self.potential.shape + (1,) * (field.ndim - self.spec.n)
        )
        return out - self.spec.g * pot * field

    __call__ = apply

    def matrix(self):
        """Dense real symmetric matrix: the Kronecker sum of the per-axis kinetic
        circulants plus the potential; refuses beyond DENSE_LIMIT points."""
        size = self.grid.size
        if size > DENSE_LIMIT:
            raise ValueError(
                "dense assembly limited to %d points, grid has %d" % (DENSE_LIMIT, size)
            )
        kin = np.zeros((1, 1))  # the Kronecker sum's neutral element
        for m in self.spec.masses:
            col = scipy.fft.ifft(self.grid.p ** 2 / (2.0 * m)).real
            col = 0.5 * (col + np.roll(col[::-1], 1))
            kin = scipy.sparse.kronsum(scipy.linalg.circulant(col), kin)
        pot = scipy.sparse.diags(self.spec.g * self.potential.reshape(-1))
        return (kin - pot).toarray()


def minimum_image_separation(grid):
    """Wrapped coordinate differences x_i - x_j folded into [-L/2, L/2)."""
    N = grid.npoints
    d = (np.arange(N)[:, None] - np.arange(N)[None, :] + N // 2) % N - N // 2
    return d * grid.h


def total_momentum_sectors(grid):
    """Flat lab-coefficient indices sorted by total momentum, an int [K, s] array.

    Row K lists the multi-indices (k_1, ..., k_n) with k_1 + ... + k_n = K
    (mod N), n = grid.ndim; s runs over (k_1, ..., k_(n-1)) in C order and
    k_n = (K - k_1 - ... - k_(n-1)) mod N.  At n = 2 this is the layout of
    :func:`class_gather`.
    """
    N, n = grid.npoints, grid.ndim
    head = np.indices((N,) * (n - 1)).reshape(n - 1, N ** (n - 1))  # [axis, s]
    last = (np.arange(N)[:, None] - head.sum(axis=0)) % N        # [K, s]
    return np.ravel_multi_index(tuple(head[:, None, :]) + (last,), grid.shape)


def shifted_solver(ham, z):
    """Handle applying (H_eps - z)^{-1}, with all set-up done once here.

    H_eps commutes with joint lattice translations, so on lab Fourier
    coefficients it is block diagonal in the total momentum K
    (:func:`total_momentum_sectors`).  Small grids probe the operator once
    with N^(n-1) combs, one unit coefficient per sector each, to read off
    every sector's (N^(n-1) x N^(n-1)) matrix, and invert all N shifted
    sector matrices in one batch; a solve is then one FFT pair around a
    batched matmul, and every solution's residual is checked against the
    operator itself.  Larger grids run GMRES preconditioned by the free
    resolvent (exact when g = 0) to _GMRES_TOL.  At real z a real
    right-hand side gets a real solution, and the handle tolerates
    trailing batch axes.
    """
    grid = ham.grid
    size, shape = grid.size, grid.shape
    axes = tuple(range(grid.ndim))

    def shifted(flat):
        f = flat.reshape(shape + flat.shape[1:])
        return (ham.apply(f) - z * f).reshape(flat.shape)

    if size <= DENSE_LIMIT:
        sectors = total_momentum_sectors(grid)
        dim = sectors.shape[1]
        combs = np.zeros((size, dim))
        combs[sectors, np.arange(dim)] = 1.0
        probed = scipy.fft.fftn(
            ham.apply(scipy.fft.ifftn(combs.reshape(shape + (dim,)), axes=axes)),
            axes=axes).reshape(size, dim)
        mats = probed[sectors]                   # [K, t, s]: row t of column s
        mats[:, np.arange(dim), np.arange(dim)] -= z
        try:
            inverses = np.linalg.inv(mats)
        except np.linalg.LinAlgError as exc:
            raise ShiftTooCloseToSpectrum(str(exc)) from exc

        def solve(flat):
            fields = shape + flat.shape[1:]
            coeffs = scipy.fft.fftn(flat.reshape(fields), axes=axes).reshape(flat.shape)
            sol = np.empty_like(coeffs)
            sol[sectors] = inverses @ coeffs[sectors]
            sol = scipy.fft.ifftn(sol.reshape(fields), axes=axes).reshape(flat.shape)
            resid = np.linalg.norm(shifted(sol) - flat) / (np.linalg.norm(flat) or 1.0)
            if not np.isfinite(resid) or resid > 1e-6:
                raise ShiftTooCloseToSpectrum(
                    "dense solve residual %.3e suggests z on the spectrum" % resid
                )
            return sol
    else:
        r0 = free_resolvent(grid, ham.spec.masses, z)
        op = scipy.sparse.linalg.LinearOperator((size, size), shifted, dtype=complex)
        pre = scipy.sparse.linalg.LinearOperator(
            (size, size), lambda v: r0(v.reshape(shape)).reshape(-1), dtype=complex)

        def solve(flat):
            cols = []
            for rhs in flat.T:
                sol, info = scipy.sparse.linalg.gmres(
                    op, rhs, rtol=_GMRES_TOL, atol=0.0, maxiter=_GMRES_MAXITER,
                    M=pre, restart=60)
                if info != 0:
                    resid = np.linalg.norm(shifted(sol) - rhs) / np.linalg.norm(rhs)
                    raise NoConvergence(_GMRES_MAXITER if info < 0 else info, resid,
                                        "shifted GMRES solve")
                cols.append(sol)
            return np.stack(cols, axis=1)

    def apply(field):
        field = np.asarray(field)
        sol = solve(field.reshape(size, -1)).reshape(field.shape)
        # both paths run complex; at real z the imaginary part they leave on a
        # real right-hand side is rounding or solver noise
        return sol.real if np.isrealobj(field) and np.isrealobj(z) else sol

    return apply


# ---------------------------------------------------------------------------
# Norm and eigenvalue estimation: one ARPACK driver
# ---------------------------------------------------------------------------

# Relative accuracy lowest_eigenvalues asks of its eigenvalue, and the
# shifted solves it may spend on it (runs settle in 21 to 31).
EIGEN_TOL = 1e-9
LANCZOS_STEPS = 80


def _eigsh(apply_op, solve, v0, steps, tol, shift, what):
    """One eigenpair of a self-adjoint operator: the package's one ARPACK call.

    Shift-inverted about ``shift`` when ``solve`` applies (Op - shift)^{-1},
    else of largest magnitude; in v0's arithmetic.  The Krylov applications
    are counted; the one past ``steps`` and any ARPACK failure raise
    NoConvergence.  Returns (value e, residual ||Op x - e x||, count).
    """
    count = 0

    def step(v):
        nonlocal count
        if count == steps:
            raise NoConvergence(steps, float("nan"), what)
        count += 1
        return (apply_op if solve is None else solve)(v)

    def operator(fn):
        return scipy.sparse.linalg.LinearOperator((v0.size,) * 2, fn, dtype=v0.dtype)

    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            operator(step if solve is None else apply_op), 1, sigma=shift, which="LM",
            v0=v0, tol=tol, OPinv=None if solve is None else operator(step))
    except scipy.sparse.linalg.ArpackError as exc:  # also: Op v0 = 0, no Krylov space
        raise NoConvergence(count, float("nan"), what) from exc
    value, vec = float(vals[0]), vecs[:, 0]
    return value, float(np.linalg.norm(apply_op(vec) - value * vec)), count


def hermitian_norm(apply_op, shape, rng):
    """Norm max |lambda| of a Hermitian operator on fields of ``shape``.

    Returns (norm, Ritz residual, applications); the norm lies within the
    residual of an eigenvalue.  Relative tolerance 1e-4, at most 200 steps.
    """
    size = int(np.prod(shape))
    value, rho, count = _eigsh(
        lambda v: apply_op(v.reshape(shape)).reshape(-1), None,
        rng.standard_normal(size) + 1j * rng.standard_normal(size), 200, 1e-4,
        None, "Lanczos operator norm")
    return abs(value), rho, count + 1


def lowest_eigenvalues(apply_op, solve, size, shift, rng=None):
    """The eigenvalue of a real symmetric operator nearest ``shift`` (below it).

    Shift-inverted Lanczos in real arithmetic from a start vector drawn
    from ``rng``; ``solve(v)`` applies (Op - shift)^{-1} at most
    LANCZOS_STEPS times.  The eigenvalue is asked to relative accuracy
    EIGEN_TOL: a Ritz value's error goes as its residual squared, so ARPACK
    runs at sqrt(EIGEN_TOL).  Raises NoConvergence also when the residual
    rho = ||Op x - E x|| reaches |E - shift| (E +- rho would hold the shift).
    """
    if rng is None:
        rng = np.random.default_rng(1)
    value, rho, count = _eigsh(apply_op, solve, rng.standard_normal(size),
                               LANCZOS_STEPS, np.sqrt(EIGEN_TOL), shift,
                               "Lanczos eigenvalue iteration")
    if not rho < abs(value - shift):
        raise NoConvergence(count, rho, "Lanczos residual check")
    return value

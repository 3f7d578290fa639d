"""Periodic-box spectral discretization and the solvers built on it.

Fields live on uniform tensor grids over [-L/2, L/2)^d with N points per
axis; derivative and free-resolvent applications go through the FFT and are
exact on band-limited data.  Operators are plain callables on complex
arrays; every map here tolerates extra trailing axes so batches of fields
can be pushed through in one call.
"""

import struct

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NoConvergence, ShiftTooCloseToSpectrum

# Upper limit on total grid points for dense-matrix code paths.
DENSE_LIMIT = 4096

# Chunk budget (bytes) for the frame-change gather buffers.
_CHUNK_BYTES = 1 << 25


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
        if box <= 0:
            raise ValueError("box length must be positive")
        self.npoints = npoints
        self.box = float(box)
        self.ndim = int(ndim)
        self.h = self.box / npoints
        self.x = -self.box / 2 + self.h * np.arange(npoints)
        self.p = 2 * np.pi * np.fft.fftfreq(npoints, d=self.h)

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

    def norm(self, field):
        return float(np.sqrt(self.weight) * np.linalg.norm(field))

    def inner(self, a, b):
        """L2 inner product (conjugate-linear in the first slot)."""
        return self.weight * complex(np.vdot(a, b))

    def with_ndim(self, ndim):
        return Grid(self.npoints, self.box, ndim)

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


def apply_free_hamiltonian(grid, masses, field):
    """Spectral application of the free generator on the leading len(masses) axes."""
    n = len(masses)
    mult = kinetic_multiplier(grid, masses)
    axes = tuple(range(n))
    ext = mult.reshape(mult.shape + (1,) * (field.ndim - n))
    return np.fft.ifftn(np.fft.fftn(field, axes=axes) * ext, axes=axes)


def free_resolvent(grid, masses, z):
    """Handle applying (H0 - z)^{-1} through the FFT on the leading axes."""
    n = len(masses)
    mult = 1.0 / (kinetic_multiplier(grid, masses) - z)
    axes = tuple(range(n))

    def apply(field):
        ext = mult.reshape(mult.shape + (1,) * (field.ndim - n))
        return np.fft.ifftn(np.fft.fftn(field, axes=axes) * ext, axes=axes)

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
    out = np.fft.fftn(field, axes=axes)
    sign = _alternating(grid.npoints)
    scale = grid.h / np.sqrt(2 * np.pi)
    for ax in axes:
        shape = [1] * out.ndim
        shape[ax] = grid.npoints
        out = out * sign.reshape(shape)
        out = out * scale
    return out


def from_momentum(grid, field, axes=None):
    if axes is None:
        axes = tuple(range(grid.ndim))
    sign = _alternating(grid.npoints)
    scale = np.sqrt(2 * np.pi) / grid.h
    out = field
    for ax in axes:
        shape = [1] * out.ndim
        shape[ax] = grid.npoints
        out = out * sign.reshape(shape)
        out = out * scale
    return np.fft.ifftn(out, axes=axes)


def random_band_limited(grid, rng, ndim=None, cutoff=1.0 / 3.0, batch=()):
    """Random smooth field: Gaussian momentum data under a soft spectral cutoff."""
    if ndim is None:
        ndim = grid.ndim
    shape = (grid.npoints,) * ndim + tuple(batch)
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pmax = np.max(np.abs(grid.p))
    damp = np.ones(())
    for ax in range(ndim):
        sh = [1] * len(shape)
        sh[ax] = grid.npoints
        window = np.exp(-((np.abs(grid.p) / (cutoff * pmax)) ** 8))
        damp = damp * window.reshape(sh)
    field = np.fft.ifftn(coef * damp, axes=tuple(range(ndim)))
    flat = field.reshape((-1,) + tuple(batch))
    nrm = np.sqrt(np.sum(np.abs(flat) ** 2, axis=0)) * np.sqrt(grid.h ** ndim)
    return field / nrm


# ---------------------------------------------------------------------------
# Pair-frame change and dilation (band-limited, exact adjoints)
# ---------------------------------------------------------------------------


def pair_frame_forward(grid, field, alpha, beta):
    """Re-express a lab field in pair coordinates, spectrally.

    The leading two axes of ``field`` are the positions of the two pair
    members; the output's leading axes are (r, R) with
    out(r_a, R_b, ...) = field(R_b + alpha*r_a, R_b - beta*r_a, ...)
    evaluated by trigonometric interpolation.  Remaining axes ride along.
    """
    N = grid.npoints
    rest = field.shape[2:]
    ph = np.fft.fft2(field.reshape(N, N, -1), axes=(0, 1)) / N ** 2
    K = np.arange(N)
    idx = (K[:, None] - K[None, :]) % N                      # [K, k1] -> k2
    phg = ph[np.arange(N)[None, :], idx]                     # [K, k1, rest]
    V = np.exp(1j * alpha * np.outer(grid.x, grid.p))        # [a, k1]
    W = np.exp(-1j * beta * np.outer(grid.x, grid.p))        # [a, k2]
    nrest = phg.shape[-1]
    out = np.empty((N, N, nrest), dtype=complex)             # [a, K, rest]
    step = max(1, _CHUNK_BYTES // (16 * N * N))
    for lo in range(0, N, step):
        hi = min(N, lo + step)
        # phase matrix per momentum class: [Kc, a, k1]
        mixer = V[None, :, :] * W[:, idx[lo:hi]].transpose(1, 0, 2)
        out[:, lo:hi] = np.matmul(mixer, phg[lo:hi]).transpose(1, 0, 2)
    out = N * np.fft.ifft(out, axis=1)
    return out.reshape((N, N) + rest)


def pair_frame_adjoint(grid, field, alpha, beta):
    """Exact discrete adjoint of :func:`pair_frame_forward`."""
    N = grid.npoints
    rest = field.shape[2:]
    ct = np.fft.fft(field.reshape(N, N, -1), axis=1)         # adjoint of N*ifft
    K = np.arange(N)
    idx = (K[:, None] - K[None, :]) % N                      # [K, k1] -> k2
    V = np.exp(1j * alpha * np.outer(grid.x, grid.p))
    W = np.exp(-1j * beta * np.outer(grid.x, grid.p))
    nrest = ct.shape[-1]
    mixed = np.empty((N, N, nrest), dtype=complex)           # [K, k1, rest]
    step = max(1, _CHUNK_BYTES // (16 * N * N))
    for lo in range(0, N, step):
        hi = min(N, lo + step)
        mixer = V.conj()[None, :, :] * W.conj()[:, idx[lo:hi]].transpose(1, 0, 2)
        mixed[lo:hi] = np.matmul(
            mixer.transpose(0, 2, 1), ct[:, lo:hi].transpose(1, 0, 2)
        )
    # undo the class gather: [k1, k2, rest] from class (k1 + k2) mod N
    sumidx = (K[:, None] + K[None, :]) % N
    pht = mixed[sumidx, K[:, None], :]
    out = np.fft.ifft2(pht, axes=(0, 1))
    return out.reshape((N, N) + rest)


def _dilation_phases(grid, eps):
    # Offset by -x[0] so plain FFT coefficients (no centre phase) can be used.
    pts = eps * grid.x - grid.x[0]
    return np.exp(1j * np.outer(pts, grid.p))


def dilation_eval(grid, field, eps):
    """Evaluate a field at the squeezed points eps*r along axis 0 (no amplitude factor)."""
    ph = np.fft.fft(field, axis=0) / grid.npoints
    T = _dilation_phases(grid, eps)
    return np.tensordot(T, ph, axes=(1, 0))


def dilation_eval_adjoint(grid, field, eps):
    T = _dilation_phases(grid, eps)
    return np.fft.ifft(np.tensordot(T.conj().T, field, axes=(1, 0)), axis=0)


def lab_axes_to_front(field, spec, pair):
    """Move the two axes belonging to ``pair`` to the front, spectators after."""
    return np.moveaxis(field, (pair.i - 1, pair.j - 1), (0, 1))


def lab_axes_from_front(field, spec, pair):
    return np.moveaxis(field, (0, 1), (pair.i - 1, pair.j - 1))


# ---------------------------------------------------------------------------
# The regularized generator on the grid
# ---------------------------------------------------------------------------


class HamiltonianEps:
    """Grid realization of H0 - g * sum_pairs V_eps(x_i - x_j).

    The pair potentials are sampled at the wrapped (minimum-image)
    separation so the operator stays symmetric on the periodic box.
    """

    def __init__(self, grid, spec, eps, pair_samples):
        self.grid = grid
        self.spec = spec
        self.eps = float(eps)
        # pair_samples: list of (pair, 2-d array over (x_i, x_j) indices)
        self.pair_samples = pair_samples
        self._kin = kinetic_multiplier(grid, spec.masses)
        pot = np.zeros(grid.shape)
        n = spec.n
        for pair, v2 in pair_samples:
            shape = [1] * n
            shape[pair.i - 1] = grid.npoints
            shape[pair.j - 1] = grid.npoints
            pot = pot + v2.reshape(shape)
        self.potential = pot

    def apply(self, field):
        axes = tuple(range(self.spec.n))
        kin = self._kin.reshape(self._kin.shape + (1,) * (field.ndim - self.spec.n))
        out = np.fft.ifftn(np.fft.fftn(field, axes=axes) * kin, axes=axes)
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
            col = np.fft.ifft(self.grid.p ** 2 / (2.0 * m)).real
            col = 0.5 * (col + np.roll(col[::-1], 1))
            kin = scipy.sparse.kronsum(scipy.linalg.circulant(col), kin)
        pot = scipy.sparse.diags(self.spec.g * self.potential.reshape(-1))
        return (kin - pot).toarray()


def minimum_image_separation(grid):
    """Wrapped coordinate differences x_i - x_j folded into [-L/2, L/2)."""
    N = grid.npoints
    d = (np.arange(N)[:, None] - np.arange(N)[None, :] + N // 2) % N - N // 2
    return d * grid.h


def shifted_solver(ham, z, tol=1e-10, maxiter=300):
    """Handle applying (H_eps - z)^{-1}, with all set-up done once here.

    Small grids factor the dense shifted matrix once by LU (a real one for
    real z, so complex right-hand sides cost two triangular solves) and
    check every solution's residual against the operator itself; larger
    grids run GMRES preconditioned by the free resolvent (exact when
    g = 0).  The handle tolerates trailing batch axes.
    """
    grid = ham.grid
    size, shape = grid.size, grid.shape

    def shifted(flat):
        f = flat.reshape(shape + flat.shape[1:])
        return (ham.apply(f) - z * f).reshape(flat.shape)

    if size <= DENSE_LIMIT:
        mat = np.asarray(ham.matrix(), dtype=np.result_type(z, float))
        mat[np.diag_indices(size)] -= z
        try:
            lu = scipy.linalg.lu_factor(mat, overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:
            raise ShiftTooCloseToSpectrum(str(exc)) from exc

        def solve(flat):
            if np.isrealobj(lu[0]):
                sol = (scipy.linalg.lu_solve(lu, flat.real)
                       + 1j * scipy.linalg.lu_solve(lu, flat.imag))
            else:
                sol = scipy.linalg.lu_solve(lu, flat)
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
                sol, info = scipy.sparse.linalg.gmres(op, rhs, rtol=tol, atol=0.0,
                                                      maxiter=maxiter, M=pre, restart=60)
                if info != 0:
                    resid = np.linalg.norm(shifted(sol) - rhs) / np.linalg.norm(rhs)
                    raise NoConvergence(maxiter if info < 0 else info, resid,
                                        "shifted GMRES solve")
                cols.append(sol)
            return np.stack(cols, axis=1)

    def apply(field):
        field = np.asarray(field, dtype=complex)
        return solve(field.reshape(size, -1)).reshape(field.shape)

    return apply


# ---------------------------------------------------------------------------
# Norm and eigenvalue estimation
# ---------------------------------------------------------------------------


def operator_norm(apply_fn, adjoint_fn, shape, rng=None, iters=40, restarts=3):
    """Largest singular value by power iteration on op* . op.

    Runs ``restarts`` independent random starts stacked on a trailing axis
    (the operator callables must tolerate trailing batch axes) and returns
    (best estimate, last relative update of the winning run).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    vec = rng.standard_normal(tuple(shape) + (restarts,)) + 1j * rng.standard_normal(
        tuple(shape) + (restarts,)
    )
    flat = vec.reshape(-1, restarts)
    vec = (vec.reshape(-1, restarts) / np.linalg.norm(flat, axis=0)).reshape(vec.shape)
    est = np.zeros(restarts)
    delta = np.full(restarts, np.inf)
    for _ in range(iters):
        img = apply_fn(vec)
        back = adjoint_fn(img)
        nrm = np.linalg.norm(back.reshape(-1, restarts), axis=0)
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        new = np.sqrt(np.linalg.norm(img.reshape(-1, restarts), axis=0) ** 2)
        delta = np.abs(new - est) / np.where(new == 0.0, 1.0, new)
        est = new
        vec = (back.reshape(-1, restarts) / nrm).reshape(vec.shape)
    best = int(np.argmax(est))
    return float(est[best]), float(delta[best])


def lowest_eigenvalues(apply_op, solve, size, shift, k=1, steps=60, tol=1e-9, rng=None):
    """Smallest eigenvalues of a self-adjoint operator by shift-inverted Lanczos.

    ``solve(v)`` must apply (Op - shift)^{-1}; ``apply_op`` is used only for
    the final residual check.  Full reorthogonalization against the stored
    basis keeps the tridiagonal honest at these modest step counts.

    Raises NoConvergence when ``steps`` run out before the Ritz values settle
    (a Krylov breakdown counts as settled), or when a Ritz residual
    rho = ||Op x - E x|| reaches |E - shift|, so E +- rho would hold the shift.
    """
    if rng is None:
        rng = np.random.default_rng(1)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    basis = [v]
    alphas, betas = [], []
    theta_prev = None
    change = float("nan")
    for step in range(steps):
        w = solve(basis[-1])
        wnorm = np.linalg.norm(w)
        if not np.isfinite(wnorm) or wnorm > 1e14:
            raise ShiftTooCloseToSpectrum(
                "inverted iterate norm %.3e at step %d" % (wnorm, step)
            )
        alpha = np.real(np.vdot(basis[-1], w))
        w = w - alpha * basis[-1]
        if len(basis) > 1:
            w = w - betas[-1] * basis[-2]
        # full reorthogonalization
        for b in basis:
            w = w - np.vdot(b, w) * b
        beta = np.linalg.norm(w)
        alphas.append(alpha)
        if len(alphas) >= max(k, 2):
            theta = scipy.linalg.eigh_tridiagonal(
                np.array(alphas), np.array(betas), eigvals_only=True
            )
            top = np.sort(theta)[::-1][:k]
            if theta_prev is not None:
                change = np.max(np.abs(top - theta_prev))
            theta_prev = top
            if change < tol * max(1.0, np.max(np.abs(top))):
                break
        if beta < 1e-13:
            break  # invariant subspace: the Ritz values are exact
        betas.append(beta)
        basis.append(w / beta)
    else:
        theta_prev = None  # steps ran out before the Ritz values settled
    if theta_prev is None:
        raise NoConvergence(steps, change, "Lanczos eigenvalue iteration")
    # unit Ritz vectors (orthonormal basis, unit eigenvectors), largest theta first
    vecs = scipy.linalg.eigh_tridiagonal(np.array(alphas), np.array(betas))[1]
    ritz = np.stack(basis[:len(alphas)], axis=1) @ vecs[:, ::-1][:, :k]
    eigs = shift + 1.0 / theta_prev
    rho = np.array([np.linalg.norm(apply_op(x) - e * x) for e, x in zip(eigs, ritz.T)])
    if not np.all(rho < np.abs(eigs - shift)):
        raise NoConvergence(len(alphas), np.max(rho), "Lanczos residual check")
    return sorted(eigs)


# ---------------------------------------------------------------------------
# Field container I/O
# ---------------------------------------------------------------------------


def save_field(path, grid, field):
    """Flat binary container: header (ndim, N, L) + interleaved re/im f64."""
    arr = np.ascontiguousarray(field, dtype=complex)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qqd", arr.ndim, grid.npoints, grid.box))
        inter = np.empty(arr.size * 2)
        inter[0::2] = arr.real.reshape(-1)
        inter[1::2] = arr.imag.reshape(-1)
        inter.astype("<f8").tofile(fh)


def load_field(path):
    with open(path, "rb") as fh:
        ndim, npoints, box = struct.unpack("<qqd", fh.read(24))
        data = np.fromfile(fh, dtype="<f8")
    vals = data[0::2] + 1j * data[1::2]
    grid = Grid(npoints, box, ndim)
    return grid, vals.reshape((npoints,) * ndim)

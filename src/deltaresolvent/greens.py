"""Free-resolvent kernels on R^d for real negative spectral parameter.

For z < 0 the operator (-Delta - z)^(-1) on L^2(R^d) has an integral
kernel that depends only on the distance between the two arguments.
This module provides the closed forms in the dimensions where they are
elementary (d = 1, 3, 4) plus an independent heat-kernel quadrature that
works in any dimension, used to cross-check the closed forms.

Closed forms, with kappa = sqrt(-z):

    d = 1:  exp(-kappa*|x|) / (2*kappa)
    d = 3:  exp(-kappa*x) / (4*pi*x)
    d = 4:  kappa * K1(kappa*x) / (4*pi^2*x)

K1 comes from scipy.special; the heat-kernel quadrature is the
independent check on the d = 4 closed form.
"""

import math

import numpy as np
import scipy.special
from scipy.integrate import quad

from .errors import SingularAtOrigin


def greens_closed(dim, z, x):
    """Closed-form free-resolvent kernel at separation x >= 0.

    Supported dimensions: 1, 3, 4.  The spectral parameter must satisfy
    z < 0.  For dim in (3, 4) the kernel diverges at coincidence and
    SingularAtOrigin is raised if any separation is zero.
    """
    if z >= 0:
        raise ValueError("closed kernel requires z < 0")
    kappa = math.sqrt(-z)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("separation must be non-negative")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    if dim == 1:
        out = np.exp(-kappa * arr) / (2.0 * kappa)
    elif dim == 3:
        if np.any(arr == 0.0):
            raise SingularAtOrigin("3-d kernel diverges at zero separation")
        out = np.exp(-kappa * arr) / (4.0 * math.pi * arr)
    elif dim == 4:
        if np.any(arr == 0.0):
            raise SingularAtOrigin("4-d kernel diverges at zero separation")
        out = kappa * scipy.special.k1(kappa * arr) / (4.0 * math.pi ** 2 * arr)
    else:
        raise ValueError("closed form implemented for dim in (1, 3, 4)")
    return float(out) if scalar else out


def greens_quadrature(dim, z, x):
    """Heat-kernel representation of the same kernel, any dimension.

    Integrates (4 pi t)^(-d/2) exp(-x^2/(4t) + z t) over t in (0, inf)
    after the substitution t = e^s, which regularizes both endpoints.
    Scalar separations only; serves as the independent cross-check for
    greens_closed and as the only route in dimensions without an
    elementary closed form (notably d = 2).
    """
    if z >= 0:
        raise ValueError("quadrature kernel requires z < 0")
    if np.ndim(x) != 0:
        raise ValueError("greens_quadrature takes a scalar separation")
    xv = float(x)
    if xv < 0.0:
        raise ValueError("separation must be non-negative")
    if xv == 0.0 and dim >= 2:
        raise SingularAtOrigin(
            "kernel in dimension %d diverges at zero separation" % dim
        )

    x2 = xv * xv
    zv = float(z)
    d = int(dim)

    def integrand(s):
        t = math.exp(s)
        # Jacobian dt = t ds folded in; exponents kept together so the
        # whole expression underflows gracefully far from the peak.
        log_val = (
            -0.5 * d * math.log(4.0 * math.pi * t)
            + zv * t
            + s
        )
        if x2 > 0.0:
            log_val -= x2 / (4.0 * t)
        if log_val < -745.0:
            return 0.0
        return math.exp(log_val)

    value, estimate = quad(integrand, -40.0, 40.0, epsabs=1e-12,
                           epsrel=1e-12, limit=400)
    return value

"""Exception types shared across the package."""


class DeltaResolventError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DeltaResolventError):
    """A run configuration is malformed or inconsistent."""


class PotentialOverflowsBox(DeltaResolventError):
    """The scaled pair potential does not fit inside the periodic box."""


class UnresolvedBump(DeltaResolventError):
    """The grid is too coarse to sample the scaled pair potential honestly.

    Raised by code paths that evaluate V_eps pointwise on the grid; the
    narrow-width coupling maps do not need this and never raise it.
    """


class SingularAtOrigin(DeltaResolventError):
    """Green's function evaluation requested at its singular point."""


class SameBlockRequested(DeltaResolventError):
    """An off-diagonal coupling block needs two distinct pairs."""


class AboveThreshold(DeltaResolventError):
    """Spectral point does not sit below the guaranteed inversion threshold.

    Attributes
    ----------
    z : the requested spectral point
    z0 : the threshold it had to stay below
    """

    def __init__(self, z, z0):
        self.z = z
        self.z0 = z0
        super().__init__(
            "z = %g is not below the inversion threshold z0 = %g" % (z, z0)
        )


class SeriesDiverging(DeltaResolventError):
    """Measured contraction ratio reached 1; the geometric series cannot close."""


class NoConvergence(DeltaResolventError):
    """An iterative solver exhausted its budget.

    Carries the iteration count and the last residual so callers can report
    or escalate.
    """

    def __init__(self, iterations, residual, what="iterative solve"):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            "%s did not converge after %d iterations (residual %.3e)"
            % (what, iterations, residual)
        )


class ShiftTooCloseToSpectrum(DeltaResolventError):
    """A shifted solve detected the shift sitting numerically on the spectrum."""

"""System description: particles, interacting pairs, frame weights, thresholds.

Positions are one-dimensional and natural units (hbar = 1) are used
throughout, so the free generator is sum_i -(1/2 m_i) d^2/dx_i^2 and each
pair (i, j) carries the attraction -g V_eps(x_i - x_j).
"""

from dataclasses import dataclass
import math


@dataclass(frozen=True)
class Pair:
    """An interacting pair (i, j) with 1 <= i < j <= n.

    mu is the reduced mass m_i m_j / (m_i + m_j) and total is m_i + m_j.
    """

    i: int
    j: int
    mu: float
    total: float

    def __str__(self):
        return "(%d,%d)" % (self.i, self.j)


@dataclass(frozen=True)
class SystemSpec:
    """Masses and coupling of the n-particle system."""

    masses: tuple
    g: float

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "g", float(self.g))
        if len(masses) < 2:
            raise ValueError("need at least two particles, got %d" % len(masses))
        if any(not (m > 0.0) or not math.isfinite(m) for m in masses):
            raise ValueError("all masses must be positive and finite: %r" % (masses,))
        if not math.isfinite(self.g):
            raise ValueError("coupling must be finite")

    @property
    def n(self):
        return len(self.masses)


def enumerate_pairs(spec):
    """All interacting pairs in lexicographic order, with masses attached."""
    out = []
    m = spec.masses
    for i in range(1, spec.n + 1):
        for j in range(i + 1, spec.n + 1):
            mi, mj = m[i - 1], m[j - 1]
            out.append(Pair(i, j, mi * mj / (mi + mj), mi + mj))
    return out


def spectator_indices(spec, pair):
    """1-based indices of the particles not in ``pair``, in ascending order."""
    return [k for k in range(1, spec.n + 1) if k != pair.i and k != pair.j]


def frame_weights(spec, pair):
    """Coefficients (alpha, beta) with x_i = R + alpha r and x_j = R - beta r."""
    mi = spec.masses[pair.i - 1]
    mj = spec.masses[pair.j - 1]
    total = mi + mj
    return mj / total, mi / total


@dataclass(frozen=True)
class BoundConstants:
    """Closed-form constants controlling the coupling-block norm estimates.

    diag_coeff bounds every diagonal block norm by diag_coeff*|g|/sqrt(|z|);
    offdiag_coeff plays the same role for the pair-coupling blocks; threshold
    is the negative number below which the block matrix is invertible by a
    geometric series.
    """

    diag_coeff: float
    offdiag_coeff: float
    threshold: float


def bound_constants(spec):
    pairs = enumerate_pairs(spec)
    diag = math.sqrt(max(p.mu for p in pairs) / 2.0)
    off = max(max(m ** 1.5 for m in spec.masses), max(m ** 2 for m in spec.masses))
    n = spec.n
    z0 = -(spec.g ** 2) * (n * (n - 1) * off / 2.0 + diag) ** 2
    return BoundConstants(diag, off, z0)


def parse_masses(text):
    """Parse a comma- or space-separated list of positive masses."""
    raw = text.replace(",", " ").split()
    if not raw:
        raise ValueError("empty mass list")
    return tuple(float(tok) for tok in raw)

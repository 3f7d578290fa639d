"""The benchmark's workloads: seeded inputs, set-up, checked calls.

A workload runs in rounds.  A round is one or more calls that share their
inputs and are checked together: a ``channels-n3`` round is a width ladder
of three calls on one batch of probes, a ``spectrum-*`` round is one
``ground_energy`` call.  Every input comes from numpy generators seeded by
``SeedSequence(seed, spawn_key=(stream, round))``; the package receives
only those generated inputs.
"""

import hashlib
import time

import numpy as np

import oracles
from deltaresolvent.errors import DeltaResolventError
from deltaresolvent.grid import Grid
from deltaresolvent.resolvent import FactoredAssembly, TraceAssembly, ground_energy
from deltaresolvent.system import SystemSpec

TIMED, WARMUP = 0, 1


class Outcome:
    """One checked call: wall seconds, verdict, and the gate values behind it."""

    __slots__ = ("seconds", "ok", "error", "gates")

    def __init__(self, seconds, ok, error=None, gates=()):
        self.seconds = seconds
        self.ok = ok
        self.error = error
        self.gates = list(gates)


def generator(seed, stream, index):
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(stream, index)))


def digest(chunks):
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(np.ascontiguousarray(chunk).tobytes())
    return sha.hexdigest()


class ChannelsN3:
    """Three equal masses below z0: limit, theta and chain-map kk routes."""

    name = "channels-n3"
    # The n = 3 width sweep is where most of the test suite's time goes; a call
    # exercises blocks, bump, forms and the pair frame and no shifted solves.
    calls_per_round = 3
    min_calls = 60
    traced_calls = 3
    z = -20.0
    widths = (0.2, 0.1, 0.05)
    nprobe = 2

    def __init__(self, seed, npoints=16, box=3.2):
        self.seed = seed
        self.grid = Grid(npoints, box, 3)
        self.spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)

    def settings(self):
        return {"lattice": repr(self.grid), "masses": list(self.spec.masses),
                "g": self.spec.g, "z": self.z, "widths": list(self.widths),
                "probes_per_call": self.nprobe,
                "routes": ["limit", "theta", "kk"]}

    def build_oracle(self):
        """The gates are cross-route; there is no separate oracle to build."""

    def probes(self, stream, index):
        rng = generator(self.seed, stream, index)
        shape = self.grid.shape + (self.nprobe,)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def inputs_digest(self, rounds):
        return digest(self.probes(TIMED, r) for r in range(rounds))

    def setup(self):
        """Build the assemblies, then fill their lazy caches with one warm-up round."""
        state = {
            "limit": FactoredAssembly(self.grid, self.spec, self.z),
            "theta": TraceAssembly(self.grid, self.spec, self.z),
            "kk": [FactoredAssembly(self.grid, self.spec, self.z, eps)
                   for eps in self.widths],
        }
        return state, self._round(state, self.probes(WARMUP, 0))

    def run_round(self, state, index):
        return self._round(state, self.probes(TIMED, index))

    def _round(self, state, batch):
        outcomes, gaps = [], []
        for kk in state["kk"]:
            start = time.perf_counter()
            try:
                limit = state["limit"].apply(batch)
                theta = state["theta"].apply(batch)
                result = kk.apply(batch)
            except DeltaResolventError as exc:
                outcomes.append(Outcome(time.perf_counter() - start, False,
                                        "%s: %s" % (type(exc).__name__, exc)))
                continue
            seconds = time.perf_counter() - start
            deviation = oracles.relative_gaps(theta, limit)
            gap = oracles.relative_gaps(result, limit)
            gaps.append(gap)
            ok = bool(np.all(deviation <= oracles.THETA_LIMIT_TOL))
            outcomes.append(Outcome(
                seconds, ok, None if ok else "theta vs limit %.3e" % deviation.max(),
                list(deviation) + list(gap)))
        if len(gaps) == len(self.widths):
            orders = oracles.ladder_orders(self.widths, gaps)
            ladder = oracles.ladder_ok(self.widths, gaps)
            outcomes[-1].gates.extend(orders)
        else:
            ladder, orders = False, []
        if not ladder:
            # The ladder gate covers the kk result of every call in the round.
            for out in outcomes:
                if out.ok:
                    out.ok = False
                    out.error = "kk width ladder: gaps %s orders %s" % (
                        np.array2string(np.asarray(gaps)), orders)
        return outcomes


class Spectrum:
    """Two particles: shift-inverted Lanczos ground energy vs the K = 0 oracle."""

    calls_per_round = 1
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    shift = -2.0

    def __init__(self, seed):
        self.seed = seed
        self.grid = Grid(self.npoints, self.box, 2)
        self.oracle = None

    def settings(self):
        return {"lattice": repr(self.grid), "masses": list(self.spec.masses),
                "g": self.spec.g, "eps": self.eps, "shift": self.shift,
                "oracle": "K = 0 relative-coordinate eigvalsh",
                "energy_rtol": oracles.ENERGY_RTOL}

    def build_oracle(self):
        self.oracle = oracles.relative_ground_energy(
            self.grid.npoints, self.grid.box, self.eps,
            self.spec.masses, self.spec.g)

    def inputs_digest(self, rounds):
        states = (repr(generator(self.seed, TIMED, r).bit_generator.state).encode()
                  for r in range(rounds))
        return digest(np.frombuffer(s, dtype=np.uint8) for s in states)

    def setup(self):
        """Nothing to prebuild: ``ground_energy`` assembles per call; warm up once."""
        return {}, self._call(generator(self.seed, WARMUP, 0))

    def run_round(self, state, index):
        return self._call(generator(self.seed, TIMED, index))

    def _call(self, rng):
        start = time.perf_counter()
        try:
            energy = ground_energy(self.grid, self.spec, self.eps,
                                   shift=self.shift, rng=rng)
        except DeltaResolventError as exc:
            return [Outcome(time.perf_counter() - start, False,
                            "%s: %s" % (type(exc).__name__, exc))]
        seconds = time.perf_counter() - start
        ok = oracles.energy_ok(energy, self.oracle)
        error = oracles.energy_error(energy, self.oracle)
        return [Outcome(seconds, ok,
                        None if ok else "energy %.12f vs oracle %.12f (rel %.3e)"
                        % (energy, self.oracle, error),
                        [energy, error])]


class SpectrumGmres(Spectrum):
    """Above the dense limit: every shifted solve is preconditioned GMRES."""

    name = "spectrum-gmres"
    # All time in HamiltonianEps.apply FFTs and GMRES; no coupling maps or
    # channel blocks, so channel-path optimisations should not move it.
    npoints, box, eps = 128, 12.8, 0.4
    min_calls = 30
    traced_calls = 2


class SpectrumDense(Spectrum):
    """At the dense limit: every Lanczos step rebuilds and solves the dense matrix."""

    name = "spectrum-dense"
    # The path a factor-once shifted solver changes, which spectrum-gmres bypasses.
    npoints, box, eps = 32, 6.4, 0.8
    min_calls = 11
    traced_calls = 1


WORKLOADS = {w.name: w for w in (ChannelsN3, SpectrumGmres, SpectrumDense)}

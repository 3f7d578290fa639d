"""Tests of the benchmark's own oracles, tracer and seeded inputs.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import oracles
import run
import tracer as tracermod
import workloads
from deltaresolvent import blocks, grid, resolvent
from deltaresolvent.grid import Grid
from deltaresolvent.resolvent import ground_energy


def test_oracle_matches_dense_lattice_and_rejects_perturbed_energy():
    lattice = Grid(16, 6.4, 2)
    exact = oracles.relative_ground_energy(16, 6.4, 1.6)
    computed = ground_energy(lattice, workloads.Spectrum.spec, 1.6,
                             rng=np.random.default_rng(0))
    assert oracles.energy_ok(computed, exact)
    assert not oracles.energy_ok(computed * (1.0 + 1e-5), exact)
    assert not oracles.energy_ok(float("nan"), exact)


def test_ladder_gate_rejects_flat_or_growing_gaps():
    widths = (0.2, 0.1, 0.05)
    assert oracles.ladder_ok(widths, [[4e-3], [1e-3], [2.5e-4]])
    assert not oracles.ladder_ok(widths, [[4e-3], [3e-3], [2.5e-3]])
    assert not oracles.ladder_ok(widths, [[4e-3], [5e-3], [1e-4]])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_stack():
    clock = FakeClock()
    tr = tracermod.Tracer(clock)
    outer = tr.open("outer")        # 0 .. 10
    clock.now = 1.0
    first = tr.open("first")        # 1 .. 4, contains leaf 2 .. 3
    clock.now = 2.0
    leaf = tr.open("leaf")
    clock.now = 3.0
    tr.close(leaf)
    clock.now = 4.0
    tr.close(first)
    clock.now = 5.0
    second = tr.open("second")      # 5 .. 9
    clock.now = 9.0
    tr.close(second)
    clock.now = 10.0
    tr.close(outer)
    selfs = tracermod.self_times(tr.spans)
    assert selfs[outer.sid] == pytest.approx(3.0)
    assert selfs[first.sid] == pytest.approx(2.0)
    assert selfs[leaf.sid] == pytest.approx(1.0)
    assert selfs[second.sid] == pytest.approx(4.0)
    assert tracermod.merged_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_same_seed_gives_identical_inputs():
    a, b, c = (workloads.ChannelsN3(s, npoints=8) for s in (7, 7, 8))
    assert np.array_equal(a.probes(workloads.TIMED, 3), b.probes(workloads.TIMED, 3))
    assert not np.array_equal(a.probes(workloads.TIMED, 3), c.probes(workloads.TIMED, 3))
    assert a.inputs_digest(2) == b.inputs_digest(2) != c.inputs_digest(2)


def _tiny_channels():
    return workloads.ChannelsN3(5, npoints=8, box=3.2)


def test_traced_pass_restores_every_patched_attribute():
    originals = {
        (resolvent, "invert_lambda"): resolvent.invert_lambda,
        (blocks, "invert_lambda"): blocks.invert_lambda,
        (resolvent, "build_hamiltonian"): resolvent.build_hamiltonian,
        (grid.HamiltonianEps, "__call__"): vars(grid.HamiltonianEps)["__call__"],
        (np.fft, "fftn"): np.fft.fftn,
    }
    tr = tracermod.Tracer()
    tr.install()
    try:
        live = tr.patched()
        for owner, attr in originals:
            assert getattr(owner, attr) is not originals[(owner, attr)]
    finally:
        tr.uninstall()
    assert not tr.patched()
    for owner, attr, original in live:
        if original is None:
            assert attr not in vars(owner)
        else:
            assert vars(owner)[attr] is original
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original

    tracer, _, outcomes, _ = run.traced_pass(_tiny_channels())
    assert outcomes and tracer.spans and not tracer.patched()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer, _, outcomes, _ = run.traced_pass(_tiny_channels())
        metrics = tracermod.layer_metrics(tracer.spans, len(outcomes))
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["blocks.rfree_per_offdiag"] == 4.0
    assert counts[0]["blocks.neumann_terms"] > 0


def test_benchmark_json_lists_what_the_run_reports():
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = list(tracermod.layer_metrics([], 1)) + ["trace.overhead_ratio"]
    assert [m["name"] for m in bench["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]]
               for m in bench["end_to_end"])
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("min_calls", [11, 30, 60])
def test_tail_leaves_ten_calls_beyond_or_falls_back_to_median(min_calls):
    for ncalls in (min_calls, min_calls + 1, min_calls + 7, 3 * min_calls):
        times = [float(k) for k in range(ncalls)]
        value = run.tail_value(times, min_calls)
        if min_calls >= 21:
            assert sum(t > value for t in times) >= 10
        else:
            assert value >= np.median(times)

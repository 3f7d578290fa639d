"""Benchmark of the deltaresolvent package, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload channels-n3 --seed 1 --seconds 20 --trace 0

Each run is one process and one closed-loop client.  It builds the
workload's oracle, sets the workload up three times (reporting the median
set-up time), then calls it until ``--seconds`` have passed and at least
the workload's minimum call count is done.  Every call is checked against
an independent oracle or a cross-route gate; a gate miss or a package
error is a failed call.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the untraced loop runs after one set-up, then a fresh set-up
and the workload's fixed number of traced calls run with spans on every
layer boundary, and the last line carries the per-layer metrics.  The line
before it is the full report (settings in force, call counts, failures);
reports and span dumps are also written under ``perfbench/out/``.
"""

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time

# One BLAS thread, set before numpy loads OpenBLAS.  A second thread leaves
# call times unchanged but spins on the second core, doubling CPU time and
# exposing every call to whatever else that core runs.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracer as tracermod  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "call_s.p50": "s", "call_s.tail": "s",
                    "calls_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def openblas_info():
    """Version string and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"),
                                                ("64_", "")):
            config = getattr(lib, prefix + "get_config" + suffix, None)
            threads = getattr(lib, prefix + "get_num_threads" + suffix, None)
            if config is not None and threads is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
                break
        found.append(entry)
    return found


def run_metadata(workload, seconds):
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "settings": workload.settings(),
        "min_calls": workload.min_calls,
        "tail_percentile": tail_percentile(workload.min_calls),
        "traced_calls": workload.traced_calls,
        "clients": 1,
        "loop": "closed",
    }


def tail_percentile(min_calls):
    """Highest percentile with at least 10 calls beyond it at ``min_calls`` calls.

    A workload with fewer than 21 calls has no such percentile above the
    median, so its tail is reported at p50.
    """
    return max(50.0, 100.0 * (min_calls - 11) / (min_calls - 1))


def tail_value(times, min_calls):
    """``times`` at the tail percentile, rounding the sorted position up.

    At ``min_calls`` calls the position is min_calls - 11, leaving ten calls
    above it; longer runs leave more.  Integer arithmetic keeps it exact.
    """
    last = len(times) - 1
    if min_calls >= 21:
        position = -(-(min_calls - 11) * last // (min_calls - 1))
    else:
        position = -(-last // 2)
    return sorted(times)[position]


def setup_once(workload):
    start = time.perf_counter()
    state, warm = workload.setup()
    return state, warm, time.perf_counter() - start


def run_loop(workload, state, seconds):
    """Closed loop: rounds until ``seconds`` passed and ``min_calls`` are done."""
    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        outcomes.extend(workload.run_round(state, index))
        index += 1
        if (len(outcomes) >= workload.min_calls
                and time.perf_counter() - start >= seconds):
            break
    return outcomes, time.perf_counter() - start, index


def traced_pass(workload):
    """Fresh set-up plus the fixed traced calls, with spans on every layer."""
    tracer = tracermod.Tracer()
    tracer.install()
    try:
        tracer.call_id = "setup"
        state, warm = workload.setup()
        outcomes = []
        rounds = workload.traced_calls // workload.calls_per_round
        start = time.perf_counter()
        for index in range(rounds):
            tracer.call_id = index
            outcomes.extend(workload.run_round(state, index))
        wall = time.perf_counter() - start
    finally:
        tracer.call_id = None
        tracer.uninstall()
    return tracer, warm, outcomes, wall


def summarize(outcomes, wall, workload):
    verified = [o.seconds for o in outcomes if o.ok]
    times = verified or [o.seconds for o in outcomes]
    return {
        "call_s.p50": statistics.median(times),
        "call_s.tail": tail_value(times, workload.min_calls),
        "calls_per_s": len(verified) / wall,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "deltaresolvent", "__init__.py")):
        sys.stderr.write("perfbench: no package source at %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (known: %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    meta = run_metadata(workload, args.seconds)
    workload.build_oracle()

    setup_repeats = 1 if args.trace else SETUP_REPEATS
    setup_times, warm = [], []
    for _ in range(setup_repeats):
        state, warm_calls, seconds = setup_once(workload)
        setup_times.append(seconds)
        warm.extend(warm_calls)
    outcomes, wall, rounds = run_loop(workload, state, args.seconds)
    del state

    end_to_end = summarize(outcomes, wall, workload)
    end_to_end["setup_s"] = statistics.median(setup_times)
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    checked = warm + outcomes
    gate_rounds = workload.min_calls // workload.calls_per_round
    report = {
        "meta": meta,
        "calls": len(outcomes),
        "rounds": rounds,
        "loop_s": wall,
        "call_s": [o.seconds for o in outcomes],
        "setup_s_each": setup_times,
        "warmup_calls": len(warm),
        "inputs_sha256": workload.inputs_digest(gate_rounds),
        "gates_sha256": workloads.digest(
            [o.gates for o in outcomes[:workload.min_calls]]),
        "end_to_end": end_to_end,
    }
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        tracer, traced_warm, traced, traced_wall = traced_pass(workload)
        checked += traced_warm + traced
        layers = tracermod.layer_metrics(tracer.spans, len(traced))
        rate = end_to_end["calls_per_s"]
        traced_rate = sum(o.ok for o in traced) / traced_wall
        layers["trace.overhead_ratio"] = 1.0 - traced_rate / rate if rate else 0.0
        report.update({
            "traced_calls": len(traced),
            "traced_loop_s": traced_wall,
            "spans": len(tracer.spans),
            "missing_trace_targets": tracer.missing,
            "per_layer": layers,
        })
        tracer.write(os.path.join(
            OUT, "spans-%s-seed%d.jsonl" % (workload.name, args.seed)))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    failed = [o.error for o in checked if not o.ok]
    report["fail_ratio"] = len(failed) / len(checked)
    report["failures"] = failed[:20]
    with open(os.path.join(OUT, "report-%s-seed%d-trace%d.json"
                           % (workload.name, args.seed, args.trace)), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def layer_unit(name):
    if name in ("bump.build_hamiltonian.self_s",
                "blocks.materialize_slices.self_s"):
        return "s/setup"
    if name.endswith(".self_s"):
        return "s/call"
    if name == "fft.bytes":
        return "B/call"
    if name in ("trace.overhead_ratio", "grid.matvecs_per_solve",
                "blocks.neumann_terms", "blocks.rfree_per_offdiag"):
        return "ratio"
    return "count/call"


if __name__ == "__main__":
    sys.exit(main())

"""One set-up and one round of every benchmark workload, all gates passing.

The benchmark lives outside the default test paths and only a manual
``perfbench/run.py`` would otherwise show a broken import or a failing gate.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_workload_runs_one_round_with_every_gate_ok(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS[name](1)
    workload.build_oracle()
    state, warm = workload.setup()
    outcomes = warm + workload.run_round(state, 0)
    assert outcomes
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]

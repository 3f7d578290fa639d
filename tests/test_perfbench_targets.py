"""The benchmark's tracer finds every package boundary it patches.

A renamed target is only listed in ``Tracer.missing`` and its per-layer
rows then read 0, so a rename would otherwise go unnoticed.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_its_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer()
    try:
        traced.install()
        # grid.solve_shifted became the grid.shifted_solver handle; the
        # tracer still names the old function.
        assert set(traced.missing) <= {"deltaresolvent.grid.solve_shifted"}
    finally:
        traced.uninstall()
    assert traced.patched() == []

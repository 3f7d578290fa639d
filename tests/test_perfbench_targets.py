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


def test_lowest_eigenvalues_keeps_its_solve_parameter():
    """The tracer counts Lanczos steps by wrapping the argument named ``solve``.

    Under another name it would wrap nothing, and the steps row would read 0
    without any missing target to show for it.
    """
    import inspect

    from deltaresolvent import grid

    assert "solve" in inspect.signature(grid.lowest_eigenvalues).parameters


def test_resolvent_keeps_the_names_perfbench_reads():
    """perfbench/tests read these attributes of the resolvent module directly.

    That suite lies outside the default test paths, so a dropped import
    would otherwise only show in a manual run of it.
    """
    from deltaresolvent import blocks, bump, resolvent

    assert resolvent.invert_lambda is blocks.invert_lambda
    assert resolvent.build_hamiltonian is bump.build_hamiltonian
    assert resolvent.FactoredAssembly is blocks.LambdaMatrix

"""The benchmark's tracer finds every package boundary it patches.

A renamed target is only listed in ``Tracer.missing`` and its per-layer
rows then read 0, so a rename would otherwise go unnoticed.
"""

from pathlib import Path

import pytest

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


def _count_calls(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_chain_lift_and_drop_call_the_traced_chain_map_methods(monkeypatch):
    """The tracer times the chain maps by patching these two methods on
    ChainCouplingMap, which inherits them from its support-row base.

    A kk lift or drop reaching the chain rows another way would leave the
    bump.chain rows at 0 with no missing target to show for it.
    """
    import numpy as np

    from deltaresolvent.blocks import LambdaMatrix
    from deltaresolvent.bump import ChainCouplingMap
    from deltaresolvent.grid import Grid
    from deltaresolvent.system import SystemSpec

    log = []
    for name in ("forward", "adjoint"):
        _count_calls(monkeypatch, ChainCouplingMap, name, log)
    spec = SystemSpec(masses=(1.0, 2.0, 0.5), g=1.0)
    grid = Grid(16, 3.2, 3)
    lam = LambdaMatrix(grid, spec, -20.0, eps=0.2)
    assert all(isinstance(cmap, ChainCouplingMap) for cmap in lam.maps)
    coeffs = np.ones(grid.shape + (2,), dtype=complex)
    for k in range(len(lam.pairs)):
        chi = lam.lift(k, coeffs)
        assert log == ["forward"]
        lam.drop(k, chi)
        assert log == ["forward", "adjoint"]
        log.clear()


@pytest.mark.parametrize("route", ["LambdaMatrix", "TraceAssembly"])
def test_invert_lambda_calls_the_traced_lambda_methods(monkeypatch, route):
    """The tracer times the Neumann terms through these two methods, patched
    on LambdaMatrix as the blocks rows and on TraceAssembly as the theta rows.

    Both inherit them from ChannelSystem.  Were TraceAssembly a subclass of
    LambdaMatrix, the two wrappers would nest and theta's terms would also
    count in the blocks rows.
    """
    import numpy as np

    from deltaresolvent.blocks import LambdaMatrix, invert_lambda
    from deltaresolvent.grid import Grid
    from deltaresolvent.resolvent import TraceAssembly
    from deltaresolvent.system import SystemSpec

    logs = {LambdaMatrix: [], TraceAssembly: []}
    for cls, log in logs.items():
        for name in ("apply_offdiag", "apply_diag_inverse"):
            _count_calls(monkeypatch, cls, name, log)
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    grid = Grid(16, 3.2, 3)
    if route == "LambdaMatrix":
        lam = LambdaMatrix(grid, spec, -20.0, eps=0.2)
    else:
        assert not issubclass(TraceAssembly, LambdaMatrix)
        lam = TraceAssembly(grid, spec, -20.0)
    field = np.ones(grid.shape, dtype=complex)
    invert_lambda(lam, [lam.lift(k, field) for k in range(len(lam.pairs))])
    log = logs[type(lam)]
    terms = log.count("apply_offdiag")
    assert terms >= 1
    assert log == ["apply_diag_inverse"] + ["apply_offdiag",
                                            "apply_diag_inverse"] * terms
    if route == "TraceAssembly":
        assert logs[LambdaMatrix] == []

import math

import numpy as np
import pytest

from deltaresolvent.audits import (ABS_SLACK, _finish, audit_convergence_constant,
                                   audit_diagonal_bound, audit_schur_3d,
                                   audit_schur_4d, default_audit_grid,
                                   run_default_sweep, schur_row_closed_3d)
from deltaresolvent.system import SystemSpec

SUP_AT_MINUS_ONE = 0.3535533905932738  # 1 / (2 sqrt(2))


def test_verdict_rule_slack():
    assert _finish("x", {}, 1.0, 1.0 + 0.5 * ABS_SLACK).passed
    assert not _finish("x", {}, 1.0, 1.0 + 5.0 * ABS_SLACK).passed
    # an error bar wider than the slack widens it to two half-widths
    assert _finish("x", {}, 1.0, 1.0 + 1.5e-5, ci=1e-5).passed
    assert not _finish("x", {}, 1.0, 1.0 + 2.5e-5, ci=1e-5).passed
    audit = _finish("x", {"z": -1.0}, 2.0, 1.5)
    assert audit.margin == pytest.approx(0.5)
    assert audit.detail == {}


def test_closed_row_values_and_scaling():
    assert schur_row_closed_3d(-1.0, 0.0) == pytest.approx(SUP_AT_MINUS_ONE,
                                                           rel=1e-15)
    # kappa doubles when z quadruples, so the zero-offset row halves
    assert (schur_row_closed_3d(-1.0, 0.0)
            == pytest.approx(2.0 * schur_row_closed_3d(-4.0, 0.0), rel=1e-13))
    # offset decay: exp(-kappa d / 2)
    ratio = schur_row_closed_3d(-2.0, 1.0) / schur_row_closed_3d(-2.0, 0.0)
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_schur_3d_attains_supremum_at_zero_offset():
    audit = audit_schur_3d(-1.0)
    assert audit.passed
    assert audit.name == "offdiag-3d-row"
    assert audit.claimed == pytest.approx(SUP_AT_MINUS_ONE, rel=1e-15)
    # equality case: the verdict leans on the absolute slack
    assert abs(audit.margin) < 1e-9
    rows = audit.detail["rows"]
    closed = audit.detail["closed_rows"]
    for d, value in rows.items():
        assert value == pytest.approx(closed[d], rel=1e-9)
    offsets = sorted(rows)
    decay = [rows[d] for d in offsets]
    assert all(b < a for a, b in zip(decay, decay[1:]))


def test_schur_3d_rejects_nonnegative_z():
    with pytest.raises(ValueError):
        audit_schur_3d(0.0)
    with pytest.raises(ValueError):
        audit_schur_4d(1.0)


def test_schur_4d_monte_carlo_matches_quadrature():
    audit = audit_schur_4d(-1.0)
    assert audit.passed
    assert audit.name == "offdiag-4d-row"
    assert audit.inputs == {"z": -1.0, "offsets": [0.0]}
    assert audit.claimed == pytest.approx(SUP_AT_MINUS_ONE, rel=1e-15)
    # equality case, measured to quadrature precision with its error bar
    assert abs(audit.measured - audit.claimed) <= 1e-12
    assert 0.0 <= audit.ci <= 1e-10
    assert audit.detail["rows"] == {0.0: audit.measured}


def test_diagonal_bound_example():
    grid = default_audit_grid()
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    audit = audit_diagonal_bound(grid, spec, -4.0, eps=0.1)
    assert audit.passed
    assert audit.name == "diag-block-norm"
    assert audit.claimed == pytest.approx(0.25, rel=1e-15)
    assert audit.measured == pytest.approx(0.231773, abs=1e-4)
    assert audit.detail["majorant"] == pytest.approx(0.861182, abs=1e-4)
    assert audit.detail["majorant"] <= audit.detail["majorant_claim"]
    assert audit.detail["neumann_inverse_measured"] == pytest.approx(
        1.301698, abs=1e-4)
    assert (audit.detail["neumann_inverse_measured"]
            <= audit.detail["neumann_inverse_claim"])
    assert audit.detail["neumann_inverse_claim"] == pytest.approx(4.0 / 3.0)


def test_convergence_constant_audit():
    grid = default_audit_grid()
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    audit = audit_convergence_constant(grid, spec, -4.0)
    assert audit.passed
    assert audit.name == "diag-width-rate"
    assert audit.measured <= audit.claimed + ABS_SLACK
    assert audit.detail["double_moment"] == pytest.approx(0.459709, abs=1e-5)
    assert audit.detail["double_moment"] < audit.detail["double_moment_claim"]
    assert 0.8 < audit.detail["slope"] <= 1.05
    assert len(audit.detail["gaps"]) == len(audit.detail["eps"]) == 2


def test_default_sweep_all_pass():
    audits = run_default_sweep()
    assert len(audits) == 60
    assert all(a.passed for a in audits)
    names = {a.name for a in audits}
    assert names == {"offdiag-3d-row", "offdiag-4d-row",
                     "diag-block-norm", "diag-width-rate"}
    by_name = {n: sum(1 for a in audits if a.name == n) for n in names}
    assert by_name["offdiag-3d-row"] == by_name["offdiag-4d-row"] == 3
    assert by_name["diag-block-norm"] == by_name["diag-width-rate"] == 27

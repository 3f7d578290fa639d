import math

import pytest

from deltaresolvent.system import (Pair, SystemSpec, bound_constants,
                                   enumerate_pairs, frame_weights,
                                   parse_masses, spectator_indices)


def test_spec_counts():
    spec = SystemSpec(masses=(1.0, 2.0, 3.0), g=1.0)
    assert spec.n == 3
    assert len(enumerate_pairs(spec)) == 3
    assert len(enumerate_pairs(SystemSpec(masses=(1.0,) * 5, g=0.3))) == 10


def test_spec_coerces_to_floats():
    spec = SystemSpec(masses=(1, 2), g=1)
    assert spec.masses == (1.0, 2.0)
    assert isinstance(spec.g, float)


@pytest.mark.parametrize("masses", [(), (1.0,), (1.0, -2.0), (1.0, 0.0),
                                    (1.0, float("inf"))])
def test_spec_rejects_bad_masses(masses):
    with pytest.raises(ValueError):
        SystemSpec(masses=masses, g=1.0)


def test_spec_rejects_nonfinite_coupling():
    with pytest.raises(ValueError):
        SystemSpec(masses=(1.0, 1.0), g=float("nan"))


def test_pair_enumeration_order_and_masses():
    spec = SystemSpec(masses=(1.0, 2.0, 6.0), g=1.0)
    pairs = enumerate_pairs(spec)
    assert [(p.i, p.j) for p in pairs] == [(1, 2), (1, 3), (2, 3)]
    assert pairs[0].mu == pytest.approx(2.0 / 3.0)
    assert pairs[1].mu == pytest.approx(6.0 / 7.0)
    assert pairs[2].mu == pytest.approx(1.5)
    assert pairs[2].total == pytest.approx(8.0)
    assert str(pairs[1]) == "(1,3)"


def test_spectators_ascend():
    spec = SystemSpec(masses=(1.0,) * 4, g=1.0)
    pair = enumerate_pairs(spec)[2]  # (1, 4)
    assert (pair.i, pair.j) == (1, 4)
    assert spectator_indices(spec, pair) == [2, 3]


def test_frame_weights_reconstruct_positions():
    """x_i = R + alpha r and x_j = R - beta r with alpha + beta = 1."""
    spec = SystemSpec(masses=(0.5, 1.5), g=1.0)
    pair = enumerate_pairs(spec)[0]
    alpha, beta = frame_weights(spec, pair)
    assert alpha + beta == pytest.approx(1.0)
    x = [1.1, -0.4]
    r = x[0] - x[1]
    com = (0.5 * x[0] + 1.5 * x[1]) / 2.0
    assert com + alpha * r == pytest.approx(x[0])
    assert com - beta * r == pytest.approx(x[1])
    # heavier particle sits closer to the centre of mass
    assert alpha > beta


def test_threshold_examples():
    # two unit-mass particles: z0 = -g^2 (1 + 1/2)^2
    c = bound_constants(SystemSpec(masses=(1.0, 1.0), g=1.0))
    assert c.threshold == pytest.approx(-2.25)
    assert c.diag_coeff == pytest.approx(0.5)
    assert c.offdiag_coeff == pytest.approx(1.0)
    c2 = bound_constants(SystemSpec(masses=(1.0, 1.0), g=2.0))
    assert c2.threshold == pytest.approx(-9.0)
    c3 = bound_constants(SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0))
    assert c3.threshold == pytest.approx(-12.25)


def test_threshold_scales_quadratically_in_g():
    base = bound_constants(SystemSpec(masses=(0.5, 1.5, 2.0), g=1.0))
    scaled = bound_constants(SystemSpec(masses=(0.5, 1.5, 2.0), g=3.0))
    assert scaled.threshold == pytest.approx(9.0 * base.threshold)
    assert scaled.diag_coeff == base.diag_coeff
    assert scaled.offdiag_coeff == base.offdiag_coeff


def test_offdiag_coefficient_covers_light_and_heavy():
    # below unit mass the 3/2 power dominates, above it the square does
    light = bound_constants(SystemSpec(masses=(0.25, 0.25), g=1.0))
    assert light.offdiag_coeff == pytest.approx(0.25 ** 1.5)
    heavy = bound_constants(SystemSpec(masses=(2.0, 1.0), g=1.0))
    assert heavy.offdiag_coeff == pytest.approx(4.0)


def test_parse_masses():
    assert parse_masses("1, 2, 3") == (1.0, 2.0, 3.0)
    assert parse_masses("0.5 1.5") == (0.5, 1.5)
    assert parse_masses("4") == (4.0,)
    with pytest.raises(ValueError):
        parse_masses("   ")
    with pytest.raises(ValueError):
        parse_masses("1, two")


def test_pair_is_hashable_value_object():
    a = Pair(1, 2, 0.5, 2.0)
    b = Pair(1, 2, 0.5, 2.0)
    assert a == b and hash(a) == hash(b)

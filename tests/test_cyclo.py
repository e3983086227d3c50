"""Exact cyclotomic counter behavior."""

import cmath
import math

import pytest

from stratsums.cyclo import CycloValue


def test_canonical_form_subtracts_min():
    v = CycloValue(3, [5, 2, 2])
    assert v.counts == (3, 0, 0)
    assert v == CycloValue.integer(3, 3)


def test_relation_all_roots_sum_to_zero():
    v = CycloValue(5, [1, 1, 1, 1, 1])
    assert v == CycloValue.zero(5)
    assert abs(v.to_complex()) < 1e-12


@pytest.mark.parametrize("build, args", [
    (CycloValue.integer, (7, 0)),  # the arguments swapped
    (CycloValue.integer, (3, 1)),
    (CycloValue.root, (1, 0)),
    (CycloValue.root, (0, -2)),
    (CycloValue.zero, (0,)),
    (CycloValue, (1, [4])),
], ids=["integer-p0", "integer-p1", "root-p0", "root-p-2", "zero-p0", "init-p1"])
def test_order_below_two_is_refused(build, args):
    # p = 1 has no relation 1 + zeta + ... + zeta^{p-1} = 0 to canonicalize by
    with pytest.raises(ValueError, match="order p must be >= 2"):
        build(*args)


@pytest.mark.parametrize("p", [4, 6, 9, 15])
def test_composite_order_is_refused(p):
    # 1 + zeta_4^2 = 0: for composite p the all-ones vector is not the only
    # relation, and the canonical form would not make equality exact
    with pytest.raises(ValueError, match=f"prime, got {p}"):
        CycloValue(p, [1] + [0] * (p - 1))


def test_arithmetic_and_rotation():
    a = CycloValue.root(1, 3)
    b = CycloValue.root(2, 3)
    assert a + b == CycloValue.integer(-1, 3)  # zeta + zeta^2 = -1
    assert a.rotate(1) == b
    assert a.rotate(3) == a
    assert (a - a) == CycloValue.zero(3)
    assert 2 * a == a + a


def test_integer_detection():
    assert CycloValue.integer(-7, 5).as_integer() == -7
    v = CycloValue(3, [0, 1, 0])
    assert not v.is_integer()
    with pytest.raises(ValueError):
        v.as_integer()


def test_complex_rendering_matches_roots():
    for p in (3, 5, 7):
        for j in range(p):
            v = CycloValue.root(j, p)
            expect = cmath.exp(2j * cmath.pi * j / p)
            assert cmath.isclose(v.to_complex(), expect, abs_tol=1e-12)


def test_rendering_consistency_tolerance():
    # magnitude of the rendering agrees with fsum evaluation to 1e-9 relative
    v = CycloValue(7, [10 ** 6, 3, 0, 0, 5, 0, 1])
    total = sum(abs(c) for c in v.counts)
    z = v.to_complex()
    re = sum(c * math.cos(2 * math.pi * j / 7) for j, c in enumerate(v.counts))
    im = sum(c * math.sin(2 * math.pi * j / 7) for j, c in enumerate(v.counts))
    assert abs(z - complex(re, im)) <= 1e-9 * total


def test_str_forms():
    assert str(CycloValue.integer(4, 3)) == "4"
    assert "z1" in str(CycloValue.root(1, 3))

"""Field arithmetic, trace, character and Gauss-sum checks."""

import cmath
import math
import random

import pytest

from stratsums.errors import CapExceeded
from stratsums.ffield import (
    FieldCtx,
    gauss_sum,
    is_prime,
    least_irreducible,
    next_irreducible,
    orbit_minima,
    poly_is_irreducible,
    quadratic_gauss_sum,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def brute_trace(ctx, x):
    """Oracle: sum of the m Frobenius conjugates, computed by repeated
    p-th powers with plain multiplication."""
    acc = ctx.zero()
    conj = x
    for _ in range(ctx.m):
        acc = acc + conj
        conj = conj ** ctx.p
    assert all(c == 0 for c in acc.coeffs[1:])
    return acc.coeffs[0]


def test_least_irreducible_is_t2_plus_1_for_f9():
    assert least_irreducible(3, 2) == (1, 0, 1)


def test_irreducible_scan_visits_every_monic_irreducible_once():
    # least_irreducible, then next_irreducible to the end, lists the monic
    # irreducibles of degree m >= 2 in rank order (sum c_i p^i), all
    # (1/m) sum_{d | m} mu(d) p^(m/d) of them
    mobius = {1: 1, 2: -1, 3: -1, 4: 0}
    for p in (2, 3, 5):
        for m in (2, 3, 4):
            found = [least_irreducible(p, m)]
            while True:
                try:
                    found.append(next_irreducible(p, m, found[-1]))
                except RuntimeError:
                    break
            count = sum(mobius[d] * p ** (m // d) for d in mobius if m % d == 0) // m
            assert len(found) == count == len(set(found))
            assert all(poly_is_irreducible(list(f), p) for f in found)
            assert found == sorted(found, key=lambda f: f[::-1])


def test_modulus_irreducibility_rejects_reducible():
    # t^2 - 1 = (t-1)(t+1) mod 5
    assert not poly_is_irreducible([4, 0, 1], 5)
    with pytest.raises(ValueError):
        FieldCtx(5, 2, modulus=(4, 0, 1))


def test_orbit_minima_match_an_orbit_walk():
    # x -> c x mod N for every unit c of a prime N (the scaling orbits of
    # F_p^*, and 0) and for c = p, N = p^m - 1 (the Frobenius orbits of the
    # exponents k of g^k), against walking each orbit
    cases = [(c, N) for N in (2, 3, 7, 13) for c in range(1, N)]
    cases += [(p, p ** m - 1) for p, m in [(2, 1), (2, 4), (2, 6), (3, 2), (3, 4), (5, 3)]]
    for c, N in cases:
        orbits = {}
        for x in range(N):
            orbit, y = [x], x * c % N
            while y != x:
                orbit.append(y)
                y = y * c % N
            orbits[min(orbit)] = len(orbit)
        mins, sizes = orbit_minima(c, N)
        assert mins.tolist() == sorted(orbits), (c, N)
        assert sizes.tolist() == [orbits[x] for x in sorted(orbits)], (c, N)


def test_field_cap_fails_loudly():
    with pytest.raises(CapExceeded):
        FieldCtx(3, 2, cap=8)


def test_arithmetic_closure_and_inverse():
    ctx = FieldCtx(5, 3)
    rng = random.Random(0)
    for _ in range(50):
        a = ctx.from_rank(rng.randrange(ctx.q))
        b = ctx.from_rank(rng.randrange(ctx.q))
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) * b.inverse() == a
    assert ctx.one().inverse() == ctx.one()


def test_trace_is_identity_on_base_field():
    ctx = FieldCtx(7)
    for x in ctx.elements():
        assert ctx.trace_to_base(x) == x.coeffs[0]


def test_trace_of_t_in_f9_is_zero():
    # F_9 = F_3[t]/(t^2+1): t + t^3 = t - t = 0
    ctx = FieldCtx(3, 2)
    t = ctx.elem((0, 1))
    assert ctx.trace_to_base(t) == 0
    assert brute_trace(ctx, t) == 0


def test_trace_of_one_is_degree_mod_p():
    for p, m in [(3, 2), (3, 4), (5, 3), (7, 2)]:
        ctx = FieldCtx(p, m)
        assert ctx.trace_to_base(ctx.one()) == m % p


def test_trace_matches_frobenius_orbit_oracle_exhaustively():
    for p, m in [(2, 3), (3, 2), (3, 3), (5, 2)]:
        ctx = FieldCtx(p, m)
        for x in ctx.elements():
            assert ctx.trace_to_base(x) == brute_trace(ctx, x)


def test_trace_additivity():
    ctx = FieldCtx(3, 3)
    rng = random.Random(1)
    for _ in range(100):
        a = ctx.from_rank(rng.randrange(ctx.q))
        b = ctx.from_rank(rng.randrange(ctx.q))
        assert ctx.trace_to_base(a + b) == \
            (ctx.trace_to_base(a) + ctx.trace_to_base(b)) % ctx.p


def test_trace_table_matches_pointwise():
    ctx = FieldCtx(5, 2)
    table = ctx.trace_table
    for x in ctx.elements():
        assert table[x.rank] == ctx.trace_to_base(x)


def test_additive_char_basics():
    ctx = FieldCtx(3)
    idx, val = ctx.additive_char(ctx.zero())
    assert idx == 0 and val == 1
    idx, val = ctx.additive_char(ctx.one())
    assert idx == 1
    assert cmath.isclose(val, complex(-0.5, math.sqrt(3) / 2), abs_tol=1e-12)
    # F_9, x = t has trace 0, so psi(t) = 1
    ctx9 = FieldCtx(3, 2)
    idx, val = ctx9.additive_char(ctx9.elem((0, 1)))
    assert idx == 0 and val == 1


def test_additive_char_is_multiplicative_on_sums():
    ctx = FieldCtx(5, 2)
    rng = random.Random(2)
    for _ in range(50):
        a = ctx.from_rank(rng.randrange(ctx.q))
        b = ctx.from_rank(rng.randrange(ctx.q))
        _, va = ctx.additive_char(a)
        _, vb = ctx.additive_char(b)
        _, vab = ctx.additive_char(a + b)
        assert cmath.isclose(vab, va * vb, abs_tol=1e-12)


def test_additive_char_orthogonality():
    for p, m in [(2, 1), (3, 1), (3, 2), (5, 2), (7, 1), (13, 1)]:
        ctx = FieldCtx(p, m)
        total = sum(ctx.additive_char(x)[1] for x in ctx.elements())
        assert abs(total) < 1e-9


def test_dlog_correctness():
    for p, m in [(7, 1), (3, 3), (5, 2)]:
        ctx = FieldCtx(p, m)
        g = ctx.generator
        for x in ctx.elements():
            if x.is_zero():
                continue
            assert g ** ctx.dlog(x) == x


def test_generator_has_full_order():
    for p, m in [(7, 1), (3, 2), (5, 3)]:
        ctx = FieldCtx(p, m)
        g = ctx.generator
        assert g ** (ctx.q - 1) == ctx.one()
        for f in set(range(2, ctx.q)):
            if (ctx.q - 1) % f == 0 and is_prime(f):
                assert g ** ((ctx.q - 1) // f) != ctx.one()


def test_mult_char_at_identity_and_zero():
    ctx = FieldCtx(7)
    for d in (2, 3, 6):
        assert ctx.mult_char(ctx.one(), d) == 1
    assert ctx.mult_char(ctx.zero(), 2) == 0


def test_quadratic_char_matches_euler_criterion():
    # oracle: x^((p-1)/2) mod p
    for p in (5, 7, 11, 13):
        ctx = FieldCtx(p)
        for x in range(1, p):
            euler = pow(x, (p - 1) // 2, p)
            expect = 1.0 if euler == 1 else -1.0
            got = ctx.mult_char(ctx.elem(x), 2)
            assert cmath.isclose(got, expect, abs_tol=1e-12)
    ctx5 = FieldCtx(5)
    assert cmath.isclose(ctx5.mult_char(ctx5.elem(4), 2), 1, abs_tol=1e-12)
    assert cmath.isclose(ctx5.mult_char(ctx5.elem(2), 2), -1, abs_tol=1e-12)


def test_mult_char_is_multiplicative():
    ctx = FieldCtx(13)
    rng = random.Random(3)
    for d in (2, 3, 4, 6, 12):
        for _ in range(30):
            a = ctx.elem(rng.randrange(1, 13))
            b = ctx.elem(rng.randrange(1, 13))
            va, vb = ctx.mult_char(a, d), ctx.mult_char(b, d)
            assert cmath.isclose(ctx.mult_char(a * b, d), va * vb, abs_tol=1e-12)


def test_mult_char_orthogonality():
    for p in (5, 7, 11):
        ctx = FieldCtx(p)
        for d in (x for x in range(2, p) if (p - 1) % x == 0):
            total = sum(ctx.mult_char(ctx.elem(x), d) for x in range(1, p))
            assert abs(total) < 1e-9


def test_mult_char_rejects_bad_order():
    ctx = FieldCtx(7)
    with pytest.raises(ValueError):
        ctx.mult_char(ctx.elem(3), 4)


def test_gauss_sum_p5_quadratic_is_sqrt5():
    # oracle: 4-term enumeration, 2cos(2pi/5) - 2cos(4pi/5) = sqrt(5)
    val = quadratic_gauss_sum(5)
    direct = 2 * math.cos(2 * math.pi / 5) - 2 * math.cos(4 * math.pi / 5)
    assert cmath.isclose(val, direct, abs_tol=1e-12)
    assert cmath.isclose(val, math.sqrt(5), abs_tol=1e-12)


def test_gauss_sum_p3_quadratic_is_i_sqrt3():
    # oracle: e(1/3) - e(2/3) = i sqrt(3)
    val = quadratic_gauss_sum(3)
    direct = cmath.exp(2j * cmath.pi / 3) - cmath.exp(4j * cmath.pi / 3)
    assert cmath.isclose(val, direct, abs_tol=1e-12)
    assert cmath.isclose(val, 1j * math.sqrt(3), abs_tol=1e-12)


def test_gauss_sum_rejects_trivial_character():
    ctx = FieldCtx(7)
    with pytest.raises(ValueError):
        gauss_sum(ctx, 1, 0)
    with pytest.raises(ValueError):
        gauss_sum(ctx, 3, 3)
    with pytest.raises(ValueError):
        gauss_sum(FieldCtx(5, 2), 2, 1)


def test_gauss_sum_modulus_small_exhaustive():
    for p in (3, 5, 7, 11, 13):
        ctx = FieldCtx(p)
        for k in range(1, p - 1):
            assert abs(abs(gauss_sum(ctx, p - 1, k)) - math.sqrt(p)) < 1e-9


def test_second_modulus_gives_isomorphic_traces_of_one():
    mod2 = next_irreducible(3, 2, least_irreducible(3, 2))
    ctx_a = FieldCtx(3, 2)
    ctx_b = FieldCtx(3, 2, modulus=mod2)
    assert ctx_a.modulus != ctx_b.modulus
    assert ctx_a.trace_to_base(ctx_a.one()) == ctx_b.trace_to_base(ctx_b.one())

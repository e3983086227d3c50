"""Power-sum recovery: recurrence fitting, weights, mean-square trends."""

import cmath
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from stratsums import spectral, sumengine
from stratsums.errors import RankTooHigh
from stratsums.ffield import (
    FieldCtx,
    least_irreducible,
    next_irreducible,
    orbit_minima,
    prime_factors,
    quadratic_gauss_sum,
)
from stratsums.polyring import AffineVariety, IntPolynomial, parse_poly
from stratsums.spectral import (
    PowerSumSequence,
    extension_sum,
    extension_sums,
    fit_recurrence,
    generator_power_traces,
    quasi_orthonormality,
    snap_weight,
    weight_check,
)
from stratsums.sumengine import SumSpec, complete_grid, eval_sum, r_F

KLOOSTERMAN = SumSpec(nvars=1, trace_weight=("kloosterman_phase", 1), torus=True)


def test_generator_power_traces_match_direct():
    for p, m in [(5, 2), (3, 3), (7, 1), (2, 5), (3, 4)]:
        ctx = FieldCtx(p, m)
        s = generator_power_traces(ctx)
        acc = ctx.one()
        for b in range(ctx.q - 1):
            assert s[b] == ctx.trace_to_base(acc)
            acc = ctx.mul(acc, ctx.generator)


def _scalar_generator(ctx):
    """The generator search by FieldElem powers: the least rank >= 2 whose
    (q-1)/f-th power is not 1 for any prime f | q-1, else the unit."""
    exps = [(ctx.q - 1) // f for f in prime_factors(ctx.q - 1)]
    for r in range(2, ctx.q):
        if all(ctx.from_rank(r) ** e != ctx.one() for e in exps):
            return ctx.from_rank(r)
    return ctx.one()


def _matrix_model_fields():
    rng = random.Random(0)
    primes = [p for p in range(3, 1024) if prime_factors(p) == [p]]
    fields = [(2, m) for m in range(1, 14)] + [(65521, 1), (rng.choice(primes), 1)]
    while len(fields) < 21:
        p = rng.choice(primes[:12])
        m = rng.randint(2, int(math.log(1 << 20, p)))
        fields.append((p, m))
    return fields


@pytest.mark.parametrize("p, m", _matrix_model_fields())
def test_matrix_model_matches_scalar_field(p, m):
    # the generator search and the trace sequence run on multiplication
    # matrices; FieldElem arithmetic is the reference, also on a second
    # modulus passed by the caller
    rng = random.Random(f"{p}^{m}")
    moduli = [None]
    if m > 1 and p ** m > 4:  # F_4 has a single model
        moduli.append(next_irreducible(p, m, least_irreducible(p, m)))
    for modulus in moduli:
        ctx = FieldCtx(p, m, modulus=modulus)
        g = ctx.generator
        assert g == _scalar_generator(ctx)
        s = generator_power_traces(ctx)
        assert s.shape == (ctx.q - 1,)
        for b in [0, ctx.q - 2] + [rng.randrange(ctx.q - 1) for _ in range(5)]:
            assert s[b] == ctx.trace_to_base(g ** b)
    if m > 1:  # x^m: a reducible modulus from the caller is still refused
        with pytest.raises(ValueError, match="reducible"):
            FieldCtx(p, m, modulus=(0,) * m + (1,))


DIFF_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
               (7, 1), (7, 2)]
DIFF_KINDS = ("variety", "phase", "torus", "linear_form", "twist",
              "root_count", "kloosterman_phase", "kloosterman_value",
              "half_twist")


def _random_poly(rng, nvars, q, nterms=3):
    # one nonconstant term, then exponents q - 1 and q among the rest to
    # check the reduction of powers mod q - 1
    lead = [0] * nvars
    lead[rng.randrange(nvars)] = rng.choice((1, 2, 3))
    terms = {tuple(lead): rng.choice((1, 2, -1))}
    for _ in range(nterms - 1):
        exps = tuple(rng.choice((0, 0, 1, 2, 3, q - 1, q)) for _ in range(nvars))
        terms[exps] = rng.randint(-3, 3)
    return IntPolynomial(nvars, terms)


def _random_spec(rng, kind, p, m):
    q = p ** m
    extra = int(kind == "root_count")
    sizes = [n for n in (1, 2, 3) if q ** (n + extra) <= 512] or [1]
    # the largest size twice as often, for more points per case
    nvars = 1 if kind.startswith("kloosterman") else rng.choice(sizes[-1:] + sizes)
    kw = dict(nvars=nvars, additive_phase=_random_poly(rng, nvars, q))
    if kind == "variety" or rng.random() < 0.25:
        kw["variety"] = AffineVariety(nvars, [_random_poly(rng, nvars, q, 2)])
    if kind == "linear_form" or rng.random() < 0.25:
        kw["linear_form"] = tuple(rng.randrange(p) for _ in range(nvars))
    if kind == "twist" or kind == "kloosterman_value" and rng.random() < 0.5:
        order = rng.choice([d for d in range(1, q) if (q - 1) % d == 0])
        kw["mult_twist"] = (_random_poly(rng, nvars, q), order,
                            rng.randrange(1, order + 1))
    if kind == "torus":
        kw["torus"] = True
    elif kind == "root_count":
        kw["trace_weight"] = ("root_count", _random_poly(rng, nvars + 1, q))
    elif kind == "kloosterman_phase":
        kw["trace_weight"] = ("kloosterman_phase", rng.randrange(p))
    elif kind == "kloosterman_value":
        kw["trace_weight"] = ("kloosterman_value",)
    elif kind == "half_twist":
        kw["half_twist"] = rng.choice((1, 2))
    return SumSpec(**kw)


def _assert_kernel_matches_eval_sum(cases):
    # the trace-window kernel against FieldElem enumeration
    for spec, p, m in cases:
        ctx = FieldCtx(p, m)
        got, want = extension_sum(spec, ctx), eval_sum(spec, ctx)
        assert got.cyclo == want.cyclo, (spec, p, m)
        assert got.n_points == want.n_points, (spec, p, m)
        assert got.twist_zeros == want.twist_zeros, (spec, p, m)
        assert abs(got.value - want.value) <= 1e-9, (spec, p, m)


def test_extension_sum_fast_path_matches_enumeration():
    # one-variable specs: additive phases and the Kloosterman sum
    specs = [
        SumSpec(nvars=1, additive_phase=parse_poly("x1^2")),
        SumSpec(nvars=1, additive_phase=parse_poly("x1^3 + 2*x1")),
        KLOOSTERMAN,
    ]
    _assert_kernel_matches_eval_sum(
        [(spec, p, m) for spec in specs for p, m in [(3, 1), (3, 2), (5, 2)]])


def test_table_path_matches_enumeration_2var():
    V = AffineVariety(2, [parse_poly("x1^2 + x2^2")])
    spec = SumSpec(nvars=2, variety=V)
    _assert_kernel_matches_eval_sum(
        [(spec, p, m) for p, m in [(3, 1), (3, 2), (5, 1)]])


def test_extension_sum_kernel_matches_eval_sum():
    # seeded random specs of every kind over small fields
    rng = random.Random(20250618)
    cases = []
    for kind in DIFF_KINDS:
        for _ in range(6):
            p, m = rng.choice(DIFF_FIELDS)
            cases.append((_random_spec(rng, kind, p, m), p, m))
    _assert_kernel_matches_eval_sum(cases)


def test_orbit_quotient_matches_eval_sum_and_the_full_sweep(monkeypatch):
    # seeded specs in 2 or 3 variables over F_{p^m}, m >= 2, where the kernel
    # takes one point per Frobenius orbit of a face's first coordinate unless
    # a twist enters: against enumeration, and bit for bit against the
    # kernel on the trivial transversal (every exponent, orbit size 1)
    rng = random.Random(20261020)
    cases = []
    for kind in ("variety", "phase", "torus", "linear_form", "root_count",
                 "half_twist", "twist"):
        for _ in range(5):
            spec = None
            while spec is None or spec.nvars < 2:
                p, m = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2)])
                spec = _random_spec(rng, kind, p, m)
            cases.append((spec, p, m))
    _assert_kernel_matches_eval_sum(cases)
    quotient = [extension_sum(spec, FieldCtx(p, m)) for spec, p, m in cases]
    monkeypatch.setattr(spectral, "orbit_minima",
                        lambda c, N: (np.arange(N), np.ones(N, dtype=np.int64)))
    for (spec, p, m), got in zip(cases, quotient):
        assert got == extension_sum(spec, FieldCtx(p, m)), (spec, p, m)


def test_complete_grid_matches_eval_sum_every_kind(monkeypatch):
    # the base-field grid, built from the kernel's pointwise data, against
    # FieldElem enumeration at every h; grids of at most 125 cells keep the
    # p^(2n) enumeration work to about a second.  Each grid is built whole
    # and, with row blocks forced below its size, split over its variable
    # blocks where the spec factors
    rng = random.Random(20261018)
    cases = []
    for kind in DIFF_KINDS:
        for _ in range(6):
            spec = None
            while spec is None or p ** spec.nvars > 125:
                p = rng.choice((2, 3, 5, 7))
                spec = dataclasses.replace(_random_spec(rng, kind, p, 1),
                                           linear_form=None)
            cases.append((spec, p))
    # characters of order 4 and 3 take non-real values
    cases += [
        (SumSpec(nvars=2, additive_phase=parse_poly("x1^2 + x2"),
                 mult_twist=(parse_poly("x1 + x2^2 + 1"), 4, 1)), 5),
        (SumSpec(nvars=1, trace_weight=("kloosterman_value",),
                 mult_twist=(parse_poly("x1^2 + 2"), 3, 1)), 7),
    ]
    for spec, p in cases:
        grids, ctx = [], FieldCtx(p)
        for block in (sumengine._BLOCK, 1):
            with monkeypatch.context() as m:
                m.setattr(sumengine, "_BLOCK", block)
                grids.append(complete_grid(spec, p))
        for h in np.ndindex(*(p,) * spec.nvars):
            want = eval_sum(spec, ctx, h=h)
            for grid in grids:
                if spec.is_exact():
                    assert grid.cyclo_at(h) == want.cyclo, (spec, p, h)
                else:
                    assert abs(grid.value_at(h) - want.value) <= \
                        1e-9 * max(1.0, abs(want.value)), (spec, p, h)


def test_cached_eval_sum_matches_cold_call_every_kind():
    # eval_sum folds h over a point table cached per (spec, field, cap);
    # at every h in F_p^n it must give what a call on an empty cache gives
    rng = random.Random(20261019)
    fields = [(p, m) for p, m in DIFF_FIELDS if m <= 2]
    for kind in DIFF_KINDS:
        for _ in range(2):
            spec = None
            while spec is None or (p ** m) ** spec.nvars > 125:
                p, m = rng.choice(fields)
                spec = _random_spec(rng, kind, p, m)
            ctx = FieldCtx(p, m)
            sumengine._point_table.cache_clear()
            eval_sum(spec, ctx)  # fill the cache
            for h in np.ndindex(*(p,) * spec.nvars):
                got = eval_sum(spec, ctx, h=h)
                sumengine._point_table.cache_clear()
                want = eval_sum(spec, ctx, h=h)
                key = (kind, spec, p, m, h)
                assert got.cyclo == want.cyclo, key
                assert (got.n_points, got.twist_zeros) == \
                    (want.n_points, want.twist_zeros), key
                if spec.is_exact():
                    assert got.cyclo is not None, key
                assert abs(got.value - want.value) <= \
                    1e-12 * max(1.0, abs(want.value)), key


def test_kloosterman_s1_p5_golden():
    # hand enumeration: x + 1/x over F_5^x gives {2, 0, 0, 3},
    # so S_1 = 2 + 2cos(4pi/5)
    seq = extension_sums(KLOOSTERMAN, 5, 1)
    want = 2 + 2 * math.cos(4 * math.pi / 5)
    assert cmath.isclose(seq.values[0], want, abs_tol=1e-12)
    assert abs(seq.values[0] - 0.3820) < 5e-4


def test_constant_sheaf_power_sums():
    spec = SumSpec(nvars=1)
    seq = extension_sums(spec, 5, 4)
    assert [round(v.real) for v in seq.values] == [5, 25, 125, 625]


def test_point_count_extension_sums_match_closed_form():
    # |{x^2 + y^2 = 0}(k_n)| over F_3: 1 for n odd, 2*3^n - 1 for n even
    # (oracle below: brute-force count for n <= 3)
    V = AffineVariety(2, [parse_poly("x1^2 + x2^2")])
    spec = SumSpec(nvars=2, variety=V)
    seq = extension_sums(spec, 3, 3)
    for n, val in enumerate(seq.values, start=1):
        ctx = FieldCtx(3, n)
        brute = 0
        for a in ctx.elements():
            a2 = a * a
            for b in ctx.elements():
                if (a2 + b * b).is_zero():
                    brute += 1
        want = 2 * 3 ** n - 1 if n % 2 == 0 else 1
        assert brute == want
        assert round(val.real) == want and abs(val.imag) < 1e-9


def test_fit_constant_sheaf_single_root_p():
    seq = extension_sums(SumSpec(nvars=1), 5, 6)
    prof = fit_recurrence(seq)
    assert prof.rank == 1
    assert cmath.isclose(prof.roots[0], 5.0, rel_tol=1e-9)
    assert prof.signs == [1] and prof.mults == [1]
    assert prof.weights == [2.0]
    assert prof.residual <= 1e-9


def test_kloosterman_extension_sums_obey_weil_bound():
    # |S_n| <= 2 p^{n/2} for every extension
    for p in (3, 5, 7):
        seq = extension_sums(KLOOSTERMAN, p, 5)
        for n, v in enumerate(seq.values, start=1):
            assert abs(v) <= 2 * p ** (n / 2) + 1e-9, (p, n)


def test_fit_tolerates_small_noise():
    rng = np.random.default_rng(7)
    seq = extension_sums(KLOOSTERMAN, 5, 6)
    noisy = [v + complex(*rng.normal(scale=1e-9, size=2))
             for v in seq.values]
    prof = fit_recurrence(PowerSumSequence(p=5, spec=KLOOSTERMAN,
                                           values=noisy, cyclos=[None] * 6))
    assert prof.rank == 2
    for rt in prof.roots:
        assert abs(abs(rt) - math.sqrt(5)) <= 1e-3 * math.sqrt(5)


def test_fit_kloosterman_rank2_weight1():
    for p in (5, 7):
        seq = extension_sums(KLOOSTERMAN, p, 6)
        prof = fit_recurrence(seq)
        assert prof.rank == 2
        for rt in prof.roots:
            assert abs(abs(rt) - math.sqrt(p)) <= 1e-3 * math.sqrt(p)
        assert prof.signs == [-1, -1]
        assert prof.mults == [1, 1]
        assert prof.residual <= 1e-6
        passed, offenders = weight_check(prof, w_max=1)
        assert passed, offenders


def test_fit_surface_count_rank3():
    # closed form S_n = 3^n + (-3)^n - (-1)^n reproduces the point counts
    p = 3
    S = [p ** n + (-p) ** n - (-1) ** n for n in range(1, 9)]
    spec = SumSpec(nvars=2, variety=AffineVariety(2, [parse_poly("x1^2 + x2^2")]))
    seq = PowerSumSequence(p=p, spec=spec, values=[complex(v) for v in S],
                           cyclos=[None] * 8)
    prof = fit_recurrence(seq)
    assert prof.rank == 3
    mags = sorted(abs(r) for r in prof.roots)
    assert abs(mags[0] - 1) < 1e-6
    assert abs(mags[1] - 3) < 1e-6 and abs(mags[2] - 3) < 1e-6
    recon = prof.reconstruct(8)
    scale = max(abs(v) for v in S)
    assert max(abs(a - b) for a, b in zip(recon, S)) <= 1e-6 * scale


def test_fit_gauss_normalized_weight_zero():
    # t(x) = q^{-1/2} psi(x^2): S_n = -(-tau/sqrt(p))^n by Hasse-Davenport
    for p in (5, 3):
        spec = SumSpec(nvars=1, additive_phase=parse_poly("x1^2"), half_twist=1)
        seq = extension_sums(spec, p, 6)
        tau = quadratic_gauss_sum(p)
        alpha = -tau / math.sqrt(p)
        for n, v in enumerate(seq.values, start=1):
            assert cmath.isclose(v, -alpha ** n, abs_tol=1e-9)
        prof = fit_recurrence(seq)
        assert prof.rank == 1
        assert abs(abs(prof.roots[0]) - 1.0) <= 1e-6
        assert prof.weights == [0.0]
        passed, _ = weight_check(prof, w_max=0)
        assert passed


def test_weight_check_rejects_constant_sheaf_at_wmax1():
    seq = extension_sums(SumSpec(nvars=1), 5, 6)
    prof = fit_recurrence(seq)
    passed, offenders = weight_check(prof, w_max=1)
    assert not passed and offenders


def test_rank_too_high_errors():
    spec = SumSpec(nvars=1)
    with pytest.raises(RankTooHigh):
        fit_recurrence(extension_sums(spec, 5, 3))
    # rank-3 sequence with only 6 terms
    S = [3 ** n + (-3) ** n - (-1) ** n for n in range(1, 7)]
    seq = PowerSumSequence(p=3, spec=spec, values=[complex(v) for v in S],
                           cyclos=[None] * 6)
    with pytest.raises(RankTooHigh):
        fit_recurrence(seq)


def test_model_independence_of_power_sums():
    # S_n must not depend on the irreducible modulus model: the least modulus
    # (extension_sums) and the next one give the same exact values
    specs = (KLOOSTERMAN,
             SumSpec(nvars=1, additive_phase=parse_poly("x1^3 + x1")),
             SumSpec(nvars=2, variety=AffineVariety(2, [parse_poly("x1^2 + x2^2")]),
                     additive_phase=parse_poly("x1*x2", nvars=2)))
    for spec in specs:
        N = 3 if spec.nvars == 2 else 4
        seq = extension_sums(spec, 5, N)
        for n in range(2, N + 1):
            alt = next_irreducible(5, n, least_irreducible(5, n))
            ctx = FieldCtx(5, n, modulus=alt)
            assert extension_sum(spec, ctx).cyclo == seq.cyclos[n - 1]


def test_snap_weight_grid():
    assert snap_weight(math.sqrt(5), 5) == 1.0
    assert snap_weight(5.0, 5) == 2.0
    assert snap_weight(5.0 ** 0.75, 5) == 1.5
    assert snap_weight(1.0, 5) == 0.0


def test_magnitude_grid_invariant_catalog_specs():
    # all recovered |alpha| lie on {p^{w/2} : w in half-integers} within 1e-3
    for p, spec, w_cap in [(5, KLOOSTERMAN, 1),
                           (5, SumSpec(nvars=1), 2)]:
        prof = fit_recurrence(extension_sums(spec, p, 6))
        for rt in prof.roots:
            w = snap_weight(abs(rt), p)
            assert 0 <= w <= 2
            assert abs(abs(rt) - p ** (w / 2)) <= 1e-3 * p ** (w / 2)


def test_quasi_orthonormality_normalized_additive_is_exactly_one():
    spec = SumSpec(nvars=1, additive_phase=parse_poly("x1"), half_twist=1)
    report = quasi_orthonormality(spec, 5, 4)
    assert all(abs(q - 1.0) < 1e-12 for q in report.values)


def test_quasi_orthonormality_constant_diverges():
    report = quasi_orthonormality(SumSpec(nvars=1), 3, 4)
    assert report.values == [3.0, 9.0, 27.0, 81.0]
    assert report.final_gap > 1


def test_quasi_orthonormality_counts_each_orbit_point_by_its_size():
    # Q_n = sum_x r_F(x)^2 against enumeration: the kernel's orbit points
    # enter as mult * r^2; (mult * r)^2 would read [22, 250, 3838]
    F = parse_poly("x1^2 - x2*x3 - 1", nvars=3)
    report = quasi_orthonormality(SumSpec(nvars=2, trace_weight=("root_count", F)), 3, 3)
    for m, got in enumerate(report.values, start=1):
        ctx = FieldCtx(3, m)
        points = itertools.product(list(ctx.elements()), repeat=2)
        assert got == sum(r_F(F, list(x), ctx) ** 2 for x in points), m


def test_kloosterman_value_weight_matches_brute_force():
    # the built-in normalized value -Kl(x)/sqrt(q) against a double loop
    spec = SumSpec(nvars=1, trace_weight=("kloosterman_value",))
    ctx = FieldCtx(5)
    got = eval_sum(spec, ctx)  # sum over x != 0 of -Kl(x)/sqrt(5)
    brute = 0j
    for x in range(1, 5):
        kl = sum(cmath.exp(2j * cmath.pi * ((u + x * pow(u, 3, 5)) % 5) / 5)
                 for u in range(1, 5))
        brute += -kl / math.sqrt(5)
    assert abs(got.value - brute) < 1e-9


def test_quasi_orthonormality_kloosterman_trend():
    # normalized Kloosterman t_n(x) = -Kl(x)/q: brute-force oracle for n <= 2,
    # Parseval closed form 1 - 1/q - 1/q^2 for all n (Kl_raw(0) = -1)
    spec = SumSpec(nvars=1, trace_weight=("kloosterman_value",), half_twist=1)
    report = quasi_orthonormality(spec, 5, 5)
    for n, got in enumerate(report.values, start=1):
        q = 5 ** n
        assert abs(got - (1 - 1 / q - 1 / q ** 2)) < 1e-8
    for n in (1, 2):
        ctx = FieldCtx(5, n)
        q = ctx.q
        brute = 0.0
        for x in ctx.elements():
            if x.is_zero():
                continue
            acc = 0j
            for u in ctx.elements():
                if u.is_zero():
                    continue
                val = u + x * u.inverse()
                acc += cmath.exp(2j * cmath.pi * ctx.trace_to_base(val) / 5)
            brute += abs(-acc / q) ** 2
        assert abs(report.values[n - 1] - brute) < 1e-8
    assert report.monotone_increasing
    assert report.final_gap < 1e-3


def test_profile_json_round_trip():
    prof = fit_recurrence(extension_sums(KLOOSTERMAN, 5, 6))
    data = prof.to_json_dict()
    assert data["schema"] == 1
    assert len(data["roots"]) == 2
    assert all(set(r) == {"re", "im", "sign", "mult"} for r in data["roots"])


def test_product_dtype_is_exact_on_each_side_of_2_53():
    # the trace product runs in float64 only while a sum of m products of
    # residues below p is an exact integer there, m (p-1)^2 < 2^53
    assert spectral._product_dtype(2, 2 ** 25) is np.float64
    for m in (1, 2, 8):
        below = math.isqrt(((1 << 53) - 1) // m)  # largest p - 1 below the bound
        assert m * below ** 2 < 1 << 53 <= m * (below + 1) ** 2
        assert spectral._product_dtype(below + 1, m) is np.float64
        assert spectral._product_dtype(below + 2, m) is np.int64
    # the bound is tight: float64 drops a unit just above it
    big = float(1 << 53)
    assert big + 1.0 == big
    # at the field cap (q <= 2^26) every field takes the float product
    assert spectral._product_dtype((1 << 26) + 1, 1) is np.float64


def _int64_power_traces(ctx):
    # generator_power_traces as an int64 product throughout
    q, p, m = ctx.q, ctx.p, ctx.m
    mats = ctx.mul_matrices([ctx.generator.rank] + [p ** i for i in range(m)])
    M, tau = mats[0], np.trace(mats[1:], axis1=1, axis2=2) % p
    t = ((q - 2).bit_length() + 1) // 2
    ML = M
    for _ in range(t):
        ML = ML @ ML % p
    cols = spectral._orbit(np.eye(1, m, dtype=np.int64)[0], M.T, 1 << t, p)
    rows = spectral._orbit(tau, ML, -(-(q - 1) // (1 << t)), p)
    return (rows @ cols.T % p).reshape(-1)[:q - 1]


@pytest.mark.parametrize("p, m", [f for f in _matrix_model_fields()
                                  if f[0] ** f[1] <= 1 << 20])
def test_generator_power_traces_match_the_int64_product(p, m):
    ctx = FieldCtx(p, m)
    got = generator_power_traces(ctx)
    assert got.dtype == np.int64
    assert np.array_equal(got, _int64_power_traces(ctx))


def _ref_poly_windows(f, ks, size, W, p):
    # poly_windows by `%` on exponents in [0, q-1), as first written
    qm1 = len(W)
    out = np.zeros((size,) + W.shape[1:], dtype=np.int64)
    for exps, coeff in f.terms.items():
        if coeff % p == 0 or any(e and k is None for e, k in zip(exps, ks)):
            continue
        dl = np.zeros(size, dtype=np.int64)
        for e, k in zip(exps, ks):
            if e:
                dl += (e % qm1) * k
        dl %= qm1
        term = W[dl]
        term *= coeff % p
        out += term
    out %= p
    return out


def _ref_face_blocks(nvars, torus, qm1, block, orbits=None):
    # face_blocks by np.divmod, as first written
    patterns = (False,) if torus else (False, True)
    for zero in itertools.product(patterns, repeat=nvars):
        live = [i for i in range(nvars) if not zero[i]]
        mins, sizes = orbits if orbits is not None and len(live) > 1 else (None, None)
        total = qm1 ** len(live) if mins is None else len(mins) * qm1 ** (len(live) - 1)
        for lo in range(0, total, block):
            rest = np.arange(lo, min(lo + block, total), dtype=np.int64)
            ks, mult = [None] * nvars, None
            if mins is not None:
                rest, at = np.divmod(rest, len(mins))
                ks[live[0]], mult = mins[at], sizes[at]
            for i in live if mins is None else live[1:]:
                rest, ks[i] = np.divmod(rest, qm1)
            yield ks, min(block, total - lo), mult


def _wrapping_poly(rng, nvars, q, p):
    # exponents at and above q-1, = -1 and = 0 (but positive) mod q-1, and
    # the one-variable x and x^(q-2); coefficients >= p and negative
    qm1 = q - 1
    pool = (0, 0, 1, 2, q - 2, qm1, 2 * qm1, qm1 + 1, 2 * qm1 - 1,
            3 * qm1 + 2, qm1 // 2, (qm1 + 1) // 2)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for i in rng.sample(range(nvars), rng.randint(1, nvars)):
            exps[i] = rng.choice(pool)
        terms[tuple(exps)] = rng.choice(
            (rng.randint(1, 3 * p), rng.randint(p, 3 * p), -rng.randint(1, 2 * p)))
    return IntPolynomial(nvars, terms)


def test_poly_windows_and_face_blocks_match_the_modulo_formulas(monkeypatch):
    # the division-free kernel against the `%` / np.divmod formulas, on
    # faces of 1-3 live coordinates, with and without the Frobenius
    # quotient, split over several blocks
    monkeypatch.setattr(spectral, "_BLOCK", 7)
    rng = random.Random(20261021)
    checked = blocks = 0
    for p, m in [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        ctx = FieldCtx(p, m)
        q, W = ctx.q, spectral.trace_windows(ctx)
        for nvars in (1, 2, 3):
            if q ** nvars > 1024:
                continue
            polys = [_wrapping_poly(rng, nvars, q, p) for _ in range(3)]
            for torus, orbits in itertools.product(
                    (False, True), (None, orbit_minima(p, q - 1))):
                args = (nvars, torus, q - 1, spectral._BLOCK, orbits)
                got = list(spectral.face_blocks(*args))
                want = list(_ref_face_blocks(*args))
                assert len(got) == len(want)
                blocks += len(got)
                for (ks, size, mult), (rks, rsize, rmult) in zip(got, want):
                    assert size == rsize and (mult is None) == (rmult is None)
                    assert mult is None or np.array_equal(mult, rmult)
                    for k, rk in zip(ks, rks):
                        assert (k is None) == (rk is None)
                        assert k is None or np.array_equal(k, rk)
                    for f in polys:
                        for win in (W, W[:, 0]):
                            assert np.array_equal(
                                spectral.poly_windows(f, ks, size, win, p),
                                _ref_poly_windows(f, ks, size, win, p)), (f, p, m)
                            checked += 1
    assert checked > 1000 and blocks > 200


def test_kloosterman_extension_sum_matches_eval_sum():
    # x^(q-2) is the one-variable e = -1 term indexing the windows unreduced
    _assert_kernel_matches_eval_sum(
        [(SumSpec(nvars=1, trace_weight=("kloosterman_phase", a), torus=True), p, m)
         for p in (2, 3, 5) for m in range(1, 5) for a in {1, p - 1}])

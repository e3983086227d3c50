"""Sum engine: enumeration vs DFT oracle pairs, exact identities, exports."""

import cmath
import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stratsums import sumengine
from stratsums.cyclo import CycloValue, zeta_table
from stratsums.errors import CapExceeded, ParseError
from stratsums.ffield import FieldCtx, next_irreducible
from stratsums.polyring import AffineVariety, IntPolynomial, parse_poly
from stratsums.spectral import summand_blocks
from stratsums.sumengine import (
    S_F_grid,
    SumGrid,
    SumSpec,
    complete_grid,
    cone_sum_identity,
    count_points,
    cyclo_dft,
    dft_grid,
    enumerate_points,
    eval_sum,
    poly_values_grid,
    power_sum_identity_check,
    r_F,
    trace_function_grid,
    variety_mask,
)


def brute_dft(values, p, sign=1):
    """Oracle: O(p^{2n}) double loop."""
    n = values.ndim
    out = np.zeros_like(values, dtype=np.complex128)
    for h in np.ndindex(*values.shape):
        acc = 0j
        for x in np.ndindex(*values.shape):
            dot = sum(hi * xi for hi, xi in zip(h, x)) % p
            acc += values[x] * cmath.exp(sign * 2j * cmath.pi * dot / p)
        out[h] = acc
    return out


# -- enumeration ----------------------------------------------------------------


def test_enumerate_points_variety_examples():
    ctx3 = FieldCtx(3)
    V = AffineVariety(2, [parse_poly("x1^2 + x2^2")])
    pts = [tuple(x.coeffs[0] for x in pt) for pt in enumerate_points(V, ctx3)]
    assert pts == [(0, 0)]  # -1 is a non-residue mod 3

    ctx5 = FieldCtx(5)
    assert count_points(None, ctx5, nvars=2) == 25
    V2 = AffineVariety(3, [parse_poly("x1", nvars=3), parse_poly("x2", nvars=3)])
    assert count_points(V2, ctx5) == 5


def test_enumerate_cap():
    ctx = FieldCtx(5)
    with pytest.raises(CapExceeded):
        list(enumerate_points(None, ctx, nvars=4, cap=100))


def test_poly_values_grid_matches_pointwise():
    rng = random.Random(20)
    for p, n, side in [(7, 2, 7)] * 10 + [(2, 3, 2), (5, 1, 3), (11, 3, 6),
                                          (13, 2, 13), (13, 2, 1)]:
        terms = {tuple(rng.randrange(6) for _ in range(n)): rng.randrange(-30, 31)
                 for _ in range(4)}
        f = IntPolynomial(n, terms)
        grid = poly_values_grid(f, p, side)
        assert grid.shape == (side,) * n and grid.dtype == np.int64
        ctx = FieldCtx(p)
        for x in np.ndindex(*grid.shape):
            assert grid[x] == f.eval_mod([ctx.elem(c) for c in x]).coeffs[0]


def test_poly_values_grid_reduces_before_int64_overflow():
    # p^3 > 2^63: a term in two or more variables, and the running sum of a
    # few terms, must be reduced on the way
    p, side = 2_147_483_647, 3  # 2^e mod p = 2^(e mod 31)
    rng = random.Random(25)
    terms = {(30, 29, 30, 28): p - 1, (2, 0, 3, 1): -1}
    for _ in range(40):
        terms[tuple(rng.randrange(20, 31) for _ in range(3)) + (0,)] = \
            rng.randrange(p // 2, p)
    f = IntPolynomial(4, terms)
    grid = poly_values_grid(f, p, side)
    ctx = FieldCtx(p, cap=p)
    for x in np.ndindex(*grid.shape):
        assert grid[x] == f.eval_mod([ctx.elem(c) for c in x]).coeffs[0]


def test_variety_mask_matches_full_grid_evaluation():
    # each generator is evaluated on its own variables and broadcast; the
    # result must be the AND of full-grid evaluations, also for constant
    # generators, the full and empty varieties and no variety at all
    rng = random.Random(26)
    mixed = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            varieties = [None, AffineVariety.full(n), AffineVariety.empty(n),
                         AffineVariety(n, [IntPolynomial.zero(n)]),
                         AffineVariety(n, [IntPolynomial.constant(3 * p, n)]),
                         AffineVariety(n, [IntPolynomial.constant(p + 1, n)])]
            for _ in range(8):
                gens = []
                for _ in range(rng.randint(1, 3)):
                    support = rng.sample(range(n), rng.randint(1, n))
                    gens.append(IntPolynomial(n, {
                        tuple(rng.randrange(4) if i in support else 0
                              for i in range(n)): rng.randrange(-9, 10)
                        for _ in range(rng.randint(1, 4))}))
                varieties.append(AffineVariety(n, gens))
            for V in varieties:
                want = np.ones((p,) * n, dtype=bool)
                for g in V.generators if V is not None else ():
                    want &= poly_values_grid(g, p) == 0
                got = variety_mask(V, p, n)
                assert got.shape == (p,) * n and got.dtype == bool
                assert np.array_equal(got, want), (p, n, V)
                mixed += bool(want.any() and not want.all())
    assert mixed > 20  # the random varieties cut out proper subsets


def _kernel_trace_grid(spec, p):
    """Reference for `trace_function_grid`: the F_q kernel's blocks at
    m = 1, each point x_i = g^(k_i) (0 where k_i is None) scattered to its
    flat grid index."""
    ctx = FieldCtx(p)
    shape = (p,) * spec.nvars
    exact = spec.is_exact()
    weight = np.zeros(shape, dtype=np.int64 if exact else np.complex128)
    idx = np.zeros(shape, dtype=np.int64)
    for ks, phase, amp, _, _, _ in summand_blocks(spec, ctx):
        at = np.zeros(len(phase), dtype=np.int64)
        for k in ks:
            at = at * p + (0 if k is None else ctx.exp_ranks[k])
        weight.reshape(-1)[at] = amp
        idx.reshape(-1)[at] = phase
    if exact:
        return "exact", weight, idx
    values = weight * zeta_table(p)[idx]
    if spec.half_twist:
        values /= p ** (spec.half_twist / 2)
    return "complex", values


def _trace_grid_specs(rng, p):
    """Random specs of every kind `trace_function_grid` builds, in 0 to 3
    variables.  Exponents run past p - 1 and coefficients past p, so
    x^(p-1) = 1 on the torus and reduction mod p are both exercised."""
    def poly(n):
        return IntPolynomial(n, {tuple(rng.randrange(p + 2) for _ in range(n)):
                                 rng.randrange(-p, 2 * p) for _ in range(3)})

    def variety(n):
        return AffineVariety(n, [poly(n) for _ in range(rng.randint(1, 2))])

    def twist(n, index):
        return poly(n), rng.choice([d for d in range(1, p) if (p - 1) % d == 0]), index

    for n in range(4):
        yield SumSpec(nvars=n, variety=variety(n))
        yield SumSpec(nvars=n, additive_phase=poly(n),
                      linear_form=tuple(rng.randrange(p) for _ in range(n)))
        yield SumSpec(nvars=n, variety=variety(n), additive_phase=poly(n), torus=True)
        for index in (0, 1):
            yield SumSpec(nvars=n, additive_phase=poly(n), mult_twist=twist(n, index),
                          torus=rng.random() < 0.5)
        yield SumSpec(nvars=n, additive_phase=poly(n),
                      trace_weight=("root_count", poly(n + 1)))
        yield SumSpec(nvars=n, variety=variety(n), mult_twist=twist(n, 1),
                      trace_weight=("root_count", poly(n + 1)))
        yield SumSpec(nvars=n, additive_phase=poly(n), half_twist=rng.randint(1, 2))
    yield SumSpec(nvars=1, trace_weight=("kloosterman_phase", rng.randrange(-p, 2 * p)))
    yield SumSpec(nvars=1, trace_weight=("kloosterman_value",))
    yield SumSpec(nvars=1, trace_weight=("kloosterman_value",),
                  mult_twist=twist(1, 1), half_twist=1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_trace_function_grid_matches_kernel_scatter(p):
    rng = random.Random(f"trace-grid/{p}")
    kinds = set()
    for spec in _trace_grid_specs(rng, p):
        got, want = trace_function_grid(spec, p), _kernel_trace_grid(spec, p)
        assert got[0] == want[0], spec
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and a.dtype == b.dtype, spec
            # the bytes too, so that a signed zero shows
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), spec
        kinds.add(got[0])
    assert kinds == {"exact", "complex"}


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_function_grid_peak_memory():
    # the root count goes one y at a time: no (p,)^(n+1) array, not even a
    # quarter of one
    p, n = 61, 2
    spec = SumSpec(nvars=n, trace_weight=("root_count", parse_poly("y^2 - x1^3 - x2")))
    trace_function_grid(spec, p)  # field and zeta tables are cached
    assert _traced_peak(trace_function_grid, spec, p) < p ** (n + 1) * 8 / 4
    spec = SumSpec(nvars=3, additive_phase=parse_poly("x1^2*x2 + x3^3"),
                   mult_twist=(parse_poly("x1*x2 + x3 + 1"), 3, 1))
    kind, values = trace_function_grid(spec, p)
    assert kind == "complex"
    assert _traced_peak(trace_function_grid, spec, p) < 4 * values.nbytes


# -- single sums -------------------------------------------------------------------


def test_eval_sum_linear_space_values():
    ctx = FieldCtx(3)
    V = AffineVariety(3, [parse_poly("x1", nvars=3), parse_poly("x2", nvars=3)])
    spec = SumSpec(nvars=3, variety=V)
    inside = eval_sum(spec, ctx, h=(1, 0, 0))
    assert inside.cyclo == CycloValue.integer(3, 3)  # p^{n-2} on the dual space
    outside = eval_sum(spec, ctx, h=(0, 0, 1))
    assert outside.cyclo == CycloValue.zero(3)


def test_eval_sum_square_phase_p3():
    # sum over A^1 of e(x^2/3) = 1 + 2 e(1/3) = i sqrt(3)
    ctx = FieldCtx(3)
    spec = SumSpec(nvars=1, additive_phase=parse_poly("x1^2"))
    out = eval_sum(spec, ctx)
    assert out.cyclo == CycloValue(3, [1, 2, 0])
    assert cmath.isclose(out.value, 1j * math.sqrt(3), abs_tol=1e-12)


def test_eval_sum_with_twist_counts_zeros():
    ctx = FieldCtx(5)
    spec = SumSpec(nvars=1, mult_twist=(parse_poly("x1"), 2, 1))
    out = eval_sum(spec, ctx)
    assert out.twist_zeros == 1  # chi(0) convention: flagged, excluded
    assert abs(out.value) < 1e-9  # sum of quadratic character over F_p


def test_eval_sum_extension_field():
    # over F_9, sum of psi(trace phase) of x^2: a Gauss sum over F_9
    ctx = FieldCtx(3, 2)
    spec = SumSpec(nvars=1, additive_phase=parse_poly("x1^2"))
    out = eval_sum(spec, ctx)
    assert abs(abs(out.value) - 3.0) < 1e-9  # |Gauss sum over F_q| = sqrt(q)


def test_eval_sum_in_no_variables():
    # the one point of F_q^0: a constant phase c gives zeta^Tr(c), and a
    # constant generator keeps the point only when it vanishes in the field
    for (p, m), c in [((7, 1), 3), ((7, 1), 10), ((3, 2), 1)]:
        ctx = FieldCtx(p, m)
        out = eval_sum(SumSpec(nvars=0, additive_phase=IntPolynomial.constant(c, 0)), ctx, h=())
        assert out.n_points == 1
        assert out.cyclo == CycloValue(p, np.eye(p, dtype=np.int64)[m * c % p]), (p, m, c)
    ctx = FieldCtx(7)
    for c, points in [(2, 0), (14, 1)]:
        V = AffineVariety(0, [IntPolynomial.constant(c, 0)])
        out = eval_sum(SumSpec(nvars=0, variety=V), ctx)
        assert out.n_points == points and out.cyclo == CycloValue.integer(points, 7), c


def test_eval_sum_fold_matches_fieldelem_loop():
    # the fold adds sum h_i Tr(x_i); the loop takes Tr(f(x) + h.x) with
    # FieldElem arithmetic at every point, as the reference did per call
    for p, m in [(3, 2), (5, 2), (2, 3)]:
        ctx = FieldCtx(p, m)
        V = AffineVariety(2, [parse_poly("x1^2*x2 - x2^3 + x1")])
        spec = SumSpec(nvars=2, variety=V, additive_phase=parse_poly("x1*x2^2 + x1"))
        for h in [(1, 0), (p - 1, 1), (2, p + 1)]:
            counts = [0] * p
            for x in enumerate_points(V, ctx):
                lin = ctx.elem(h[0]) * x[0] + ctx.elem(h[1]) * x[1]
                counts[ctx.trace_to_base(spec.additive_phase.eval_mod(x) + lin)] += 1
            assert eval_sum(spec, ctx, h=h).cyclo == CycloValue(p, counts), (p, m, h)


def _cold(spec, ctx, **kw):
    sumengine._point_table.cache_clear()
    return eval_sum(spec, ctx, **kw)


def test_eval_sum_cache_keeps_field_models_apart():
    # chi comes from each model's own generator, so a twisted sum differs
    # between two models of F_25; interleaved calls must not share a table
    a = FieldCtx(5, 2)
    b = FieldCtx(5, 2, modulus=next_irreducible(5, 2, a.modulus))
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1*x2 + x2"),
                   mult_twist=(parse_poly("x1 + x2^2 + 1"), 12, 1))
    want = {ctx: _cold(spec, ctx, h=(1, 2)).value for ctx in (a, b)}
    assert abs(want[a] - want[b]) > 1
    for ctx in (a, b, b, a, b):
        assert eval_sum(spec, ctx, h=(1, 2)).value == want[ctx]


def test_eval_sum_cache_linear_form_and_h_reduction():
    ctx = FieldCtx(3, 2)
    base = SumSpec(nvars=2, additive_phase=parse_poly("x1^2*x2 + x2"),
                   trace_weight=("root_count", parse_poly("x1^2 - x2", 3)))
    lf = SumSpec(nvars=2, additive_phase=base.additive_phase,
                 trace_weight=base.trace_weight, linear_form=(1, 2))
    sumengine._point_table.cache_clear()
    # the spec's linear form is the default h, and h= overrides it
    assert eval_sum(lf, ctx).cyclo == eval_sum(base, ctx, h=(1, 2)).cyclo
    assert eval_sum(lf, ctx, h=(2, 0)).cyclo == eval_sum(base, ctx, h=(2, 0)).cyclo
    assert eval_sum(lf, ctx, h=(0, 0)).cyclo == eval_sum(base, ctx).cyclo
    assert sumengine._point_table.cache_info().misses == 1  # one table for both
    # h is read mod p: entries >= p or negative
    for h, h_mod in [((4, -1), (1, 2)), ((3, -6), (0, 0)), ((-4, 8), (2, 2))]:
        got = eval_sum(lf, ctx, h=h)
        assert got.cyclo == eval_sum(base, ctx, h=h_mod).cyclo == \
            _cold(lf, ctx, h=h).cyclo, h
    assert _cold(base, ctx, h=(1, 2)).cyclo != _cold(base, ctx).cyclo


def test_eval_sum_errors_before_enumeration(monkeypatch):
    ctx = FieldCtx(3)
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1*x2"))
    eval_sum(spec, ctx)  # a cached table at the default cap

    def no_enumeration(self):
        raise AssertionError("enumerated before the check")

    monkeypatch.setattr(FieldCtx, "elements", no_enumeration)
    with pytest.raises(CapExceeded):
        eval_sum(spec, ctx, h=(1, 1), cap=8)
    twisted = SumSpec(nvars=2, mult_twist=(parse_poly("x1 + x2"), 4, 1))
    with pytest.raises(ValueError, match="does not divide"):
        eval_sum(twisted, ctx)
    with pytest.raises(ValueError, match="length"):
        eval_sum(spec, ctx, h=(1,))
    assert eval_sum(spec, ctx, h=(1, 1)).n_points == 9  # still cached


# -- power-sum identity ---------------------------------------------------------


def test_power_sum_identity_examples():
    for d, p in [(3, 7), (5, 11), (4, 13)]:
        res = power_sum_identity_check(d, p)
        assert res.identity_ok and res.bound_ok


def test_power_sum_identity_d2_p5_is_sqrt5():
    res = power_sum_identity_check(2, 5)
    assert cmath.isclose(res.lhs, math.sqrt(5), abs_tol=1e-9)


def test_power_sum_identity_rejects_bad_congruence():
    with pytest.raises(ValueError):
        power_sum_identity_check(3, 5)


# -- DFT machinery ----------------------------------------------------------------


def test_dft_grid_matches_brute_force_oracle():
    rng = np.random.default_rng(21)
    p = 3
    vals = rng.normal(size=(p, p, p)) + 1j * rng.normal(size=(p, p, p))
    got = dft_grid(vals, p)
    want = brute_dft(vals, p)
    assert np.max(np.abs(got - want)) < 1e-9


def _gemm_dft(values, p, sign):
    """The table-product transform: each axis, last first, contracted with
    zeta^(sign j k), rows @ table on the last axis and table @ slabs on the
    others, each axis in one product."""
    table = zeta_table(p)[np.outer(np.arange(p), np.arange(p)) * sign % p]
    out = np.array(values, dtype=np.complex128)
    for axis in reversed(range(out.ndim)):
        view = out.reshape(p ** axis, p, -1)
        out = (view.reshape(-1, p) @ table if view.shape[2] == 1
               else np.matmul(table, view)).reshape(out.shape)
    return out


def test_dft_grid_bit_equals_nd_transform_and_keeps_its_input():
    # at and above the crossover dft_grid is numpy's FFT, bit for bit; below
    # it, the per-axis table product, within eps p n sum|values| of the FFT
    rng = np.random.default_rng(27)
    for p, n in [(5, 1), (7, 2), (5, 3), (3, 4), (127, 2), (131, 2)]:
        for vals in (rng.normal(size=(p,) * n),
                     rng.normal(size=(p,) * n) + 1j * rng.normal(size=(p,) * n)):
            before = vals.copy()
            for sign, fft in ((1, np.fft.ifftn(vals, norm="forward")),
                              (-1, np.fft.fftn(vals))):
                got = dft_grid(vals, p, sign)
                assert got.dtype == np.complex128
                want = fft if p >= sumengine._GEMM_BELOW else _gemm_dft(vals, p, sign)
                assert np.array_equal(got.view(np.float64), want.view(np.float64))
                bound = np.finfo(float).eps * p * n * np.abs(vals).sum()
                assert np.abs(got - fft).max() <= bound, (p, n, sign)
            assert np.array_equal(vals, before)


def test_point_transform_matches_numpy_fft(monkeypatch):
    # seeded fields on both sides of the crossover, every params and sign,
    # in one block and in blocks that cut the slabs and their columns: the
    # last n - params axes transformed in place, within eps p (n - params)
    # sum|field| of ifftn / fftn over those axes (bit-equal on the FFT side)
    rng = np.random.default_rng(29)
    assert 103 < sumengine._GEMM_BELOW <= 107  # both sides are tested
    cases = [(p, n) for p in (2, 3, 5, 13) for n in (1, 2, 3, 4)]
    cases += [(31, 3), (103, 1), (103, 2), (107, 1), (107, 2), (127, 2)]
    for p, n in cases:
        field = rng.normal(size=(p,) * n) + 1j * rng.normal(size=(p,) * n)
        for params, sign, block in itertools.product(range(n + 1), (1, -1),
                                                     (sumengine._BLOCK, 4 * p)):
            axes = tuple(range(params, n))
            if not axes:
                want = field
            elif sign == 1:
                want = np.fft.ifftn(field, axes=axes, norm="forward")
            else:
                want = np.fft.fftn(field, axes=axes)
            got = field.copy()
            with monkeypatch.context() as m:
                m.setattr(sumengine, "_BLOCK", block)
                assert sumengine._point_transform(got, p, sign, params) is None
            bound = np.finfo(float).eps * p * len(axes) * np.abs(field).sum()
            assert np.abs(got - want).max() <= bound, (p, n, params, sign, block)
            if p >= sumengine._GEMM_BELOW:
                assert np.array_equal(got, want)


def test_cyclo_dft_matches_complex_dft():
    rng = np.random.default_rng(22)
    p = 5
    idx = rng.integers(0, p, size=(p, p))
    weight = rng.integers(-3, 4, size=(p, p))
    counts = np.zeros((p, p, p), dtype=np.int64)
    for x in np.ndindex(p, p):
        counts[x + (idx[x],)] = weight[x]
    exact = cyclo_dft(counts, p)
    rendered = np.tensordot(exact, zeta_table(p), axes=([-1], [0]))
    vals = weight * zeta_table(p)[idx]
    assert np.max(np.abs(rendered - dft_grid(vals, p))) < 1e-8


def integer_cyclo_dft(counts, p, sign):
    """out[h, j] = sum_x counts[x, (j - sign h.x) mod p], by direct indexing."""
    n = counts.ndim - 1
    xs = np.indices((p,) * n).reshape(n, -1).T
    rows = counts.reshape(-1, p)
    out = np.zeros_like(counts)
    for h in np.ndindex(*(p,) * n):
        shift = sign * (xs @ np.array(h)) % p
        cols = (np.arange(p)[None, :] - shift[:, None]) % p
        out[h] = np.take_along_axis(rows, cols, axis=1).sum(axis=0)
    return out


def _phase_free_field(rng, shape, p):
    """Random weights, negative ones too, all at zeta^0."""
    counts = np.zeros(shape + (p,), dtype=np.int64)
    counts[..., 0] = rng.integers(-5, 6, size=shape)
    return counts


def test_cyclo_dft_matches_integer_reference(monkeypatch):
    # p = 2 has the weight-1 slice s = p/2; p = 11, 13 have several slices
    rng = np.random.default_rng(24)
    for p in (2, 3, 5, 7, 11, 13):
        for n in (1, 2, 3) if p < 11 else (1, 2):
            fields = {}
            for hot in (1, p):  # one-hot rows like a grid's, then full rows
                counts = np.zeros((p,) * n + (p,), dtype=np.int64)
                for x in np.ndindex(*(p,) * n):
                    cols = rng.choice(p, size=hot, replace=False)
                    counts[x + (cols,)] = rng.integers(-5, 6, size=hot)
                fields[hot] = counts
            # phase-free: every count at zeta^0; then the same with one
            # count off zeta^0 in the last row
            fields["free"] = _phase_free_field(rng, (p,) * n, p)
            fields["last"] = fields["free"].copy()
            fields["last"].reshape(-1, p)[-1, rng.integers(1, p)] = rng.choice([-3, 2])
            for hot, counts in fields.items():
                for sign in (1, -1):
                    want = integer_cyclo_dft(counts, p, sign)
                    # the default row blocks, then blocks of 3 rows, so
                    # that block edges fall inside the grid
                    for block in (sumengine._BLOCK, 3 * p):
                        with monkeypatch.context() as m:
                            m.setattr(sumengine, "_BLOCK", block)
                            field = counts.copy()
                            got = cyclo_dft(field, p, sign)
                        assert got.dtype == np.int64
                        assert np.shares_memory(got, field)  # in place
                        assert np.array_equal(got, want), (p, n, hot, sign, block)


def test_cyclo_dft_params_matches_stacked_fibers(monkeypatch):
    # params=k transforms only the last n - k point axes: the same counts as
    # cyclo_dft run on each parameter slice and stacked, on dense fields
    # and, on phase-free fields, the same as the integer reference on each
    # parameter slice (a fiber with no point axis is its own transform)
    rng = np.random.default_rng(25)
    for p in (2, 3, 5, 7, 11):
        for n in range(4):
            for k in range(n + 1):
                dense = rng.integers(-5, 6, size=(p,) * n + (p,))
                free = _phase_free_field(rng, (p,) * n, p)
                fiber_rows = p ** (n - k)
                for sign, counts in itertools.product((1, -1), (dense, free)):
                    if counts is dense:
                        want = np.stack([cyclo_dft(counts[a].copy(), p, sign)
                                         for a in np.ndindex(*(p,) * k)])
                    elif k < n:
                        want = np.stack([integer_cyclo_dft(counts[a], p, sign)
                                         for a in np.ndindex(*(p,) * k)])
                    else:
                        want = counts
                    want = want.reshape(counts.shape)
                    # the default row blocks, then blocks of one fiber plus
                    # one row, so that every block edge cuts into a fiber
                    for block in (sumengine._BLOCK, (fiber_rows + 1) * p):
                        with monkeypatch.context() as m:
                            m.setattr(sumengine, "_BLOCK", block)
                            field = counts.copy()
                            got = cyclo_dft(field, p, sign, params=k)
                        assert np.shares_memory(got, field)  # in place
                        assert np.array_equal(got, want), (p, n, k, sign, block)


def test_complete_grid_params_input_checks(monkeypatch):
    # params must lie in 0..n, needs an exact spec, keeps the whole grid's
    # p^(n+1) zeta-count cap and never splits over variable blocks
    exact = SumSpec(nvars=4, additive_phase=parse_poly("x1*x2 + x3*x4^2", 4))
    for params in (-1, 5):
        with pytest.raises(ValueError, match="params"):
            complete_grid(exact, 3, params=params)
    twisted = replace(exact, mult_twist=(parse_poly("x1 + 1", 4), 2, 1))
    with pytest.raises(ValueError, match="exact"):
        complete_grid(twisted, 3, params=1)
    with pytest.raises(CapExceeded, match="3\\^5"):
        complete_grid(exact, 3, cap=3 ** 5 - 1, params=2)

    def no_split(*args):
        raise AssertionError("a parameter grid was split")

    monkeypatch.setattr(sumengine, "_block_spec", no_split)
    monkeypatch.setattr(sumengine, "_BLOCK", SPLIT)
    assert len(sumengine._var_blocks(exact)) == 2
    grid = complete_grid(exact, 3, cap=3 ** 5, params=2)
    # a fiber with x1 = a1, x2 = a2 is psi(a1 a2) times the (x3, x4) grid
    whole = complete_grid(SumSpec(nvars=2, additive_phase=parse_poly("x1*x2^2", 2)),
                          3)
    for a in np.ndindex(3, 3):
        assert np.array_equal(grid.counts[a], np.roll(whole.counts, a[0] * a[1], axis=-1))


def _off_by_03(transform):
    """A point transform (`_point_transform`, or np.fft.ifft with out=) that
    adds 0.3 to every cell it writes."""
    def off(field, *args, **kwargs):
        out = transform(field, *args, **kwargs)
        target = field if out is None else out
        target += 0.3
        return out
    return off


def test_cyclo_dft_refuses_rounding_residual(monkeypatch):
    # the point transforms run in place; below the crossover through the
    # table product, at p = 127 through numpy's FFT
    with monkeypatch.context() as m:
        m.setattr(sumengine, "_point_transform", _off_by_03(sumengine._point_transform))
        for column in (0, 1):  # phase-free, then phased: both by table products
            counts = np.zeros((5, 5, 5), dtype=np.int64)
            counts[..., column] = 1
            with pytest.raises(AssertionError, match="residual"):
                cyclo_dft(counts, 5)
    monkeypatch.setattr(np.fft, "ifft", _off_by_03(np.fft.ifft))
    counts = np.zeros((127, 127), dtype=np.int64)
    counts[:, 1] = 1
    with pytest.raises(AssertionError, match="residual"):
        cyclo_dft(counts, 127)


def _reference_grid(spec, p, sign=1, params=0):
    """complete_grid's counts and values through the count field and
    cyclo_dft, whatever symmetry the field has."""
    _, weight, idx = trace_function_grid(spec, p)
    counts = cyclo_dft(sumengine._count_field(weight, idx, p), p, sign, params=params)
    counts -= counts.min(axis=-1, keepdims=True)
    return counts, sumengine._render(counts, p)


def _homogeneous(rng, n, d, first=0):
    """A random form of degree d in the variables first..n-1 of A^n."""
    k = n - first
    exps = [e for e in itertools.product(range(d + 1), repeat=k) if sum(e) == d]
    chosen = rng.sample(exps, min(len(exps), rng.randint(1, 3)))
    return IntPolynomial(n, {(0,) * first + e: rng.choice([-3, -1, 1, 2, 5])
                             for e in chosen})


def _symmetric_specs(rng):
    """Specs whose exact grids `_scaling` finds a symmetry in: homogeneous
    phases alone, on cones and on the torus, varieties and root counts."""
    specs = []
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            specs.append(SumSpec(nvars=n, additive_phase=_homogeneous(rng, n, d)))
        cone = AffineVariety(n, [_homogeneous(rng, n, rng.randint(1, 3))])
        specs.append(SumSpec(nvars=n, variety=cone,
                             additive_phase=_homogeneous(rng, n, rng.randint(1, 4))))
        specs.append(SumSpec(nvars=n, torus=True,
                             additive_phase=_homogeneous(rng, n, rng.randint(1, 4))))
        shifted = _homogeneous(rng, n, 2) + IntPolynomial.constant(rng.randint(1, 4), n)
        specs.append(SumSpec(nvars=n, variety=AffineVariety(n, [shifted])))
    y_first = _homogeneous(rng, 3, 2) + IntPolynomial.variable(1, 3) + \
        IntPolynomial.constant(rng.randint(-2, 2), 3)
    specs.append(SumSpec(nvars=2, trace_weight=("root_count", y_first)))
    return specs


def _control_specs(rng, p):
    """Specs without the symmetry, in general: phases with mixed degrees or
    a constant term, homogeneous phases off cones, a Kloosterman phase."""
    specs = [SumSpec(nvars=1, trace_weight=("kloosterman_phase", rng.randint(1, p - 1)))]
    for n in (1, 2, 3):
        mixed = _homogeneous(rng, n, 2) + _homogeneous(rng, n, 1)
        specs.append(SumSpec(nvars=n, additive_phase=mixed))
        specs.append(SumSpec(nvars=n, additive_phase=_homogeneous(rng, n, 3)
                             + IntPolynomial.constant(1, n)))
        sphere = _homogeneous(rng, n, 2) - IntPolynomial.constant(1, n)
        specs.append(SumSpec(nvars=n, variety=AffineVariety(n, [sphere]),
                             additive_phase=_homogeneous(rng, n, 1)))
    return specs


def test_complete_grid_matches_count_field_transform(monkeypatch):
    # complete_grid transforms one field per orbit of zeta powers where
    # `_scaling` finds a symmetry; counts and values must be bit-equal to
    # cyclo_dft of the count field, on symmetric specs (which must take the
    # orbit path), on controls, on parameter fibers and on split grids
    rng = random.Random(20261019)
    orbit = 0
    for p in (3, 5, 7, 11, 13, 17):
        cases = [(spec, 0, True) for spec in _symmetric_specs(rng)]
        cases += [(spec, 0, False) for spec in _control_specs(rng, p)]
        for n, k in ((2, 1), (3, 1), (3, 2)):  # fibers over the first k variables
            fiber_phase = _homogeneous(rng, n, rng.randint(1, 3), first=k) * (
                IntPolynomial.variable(0, n) + IntPolynomial.constant(rng.randint(0, 2), n))
            base = _homogeneous(rng, n, 2, first=k) * IntPolynomial.variable(0, n) - \
                IntPolynomial.variable(k - 1, n)
            cases.append((SumSpec(nvars=n, additive_phase=fiber_phase), k, True))
            cases.append((SumSpec(nvars=n, variety=AffineVariety(n, [base])), k, True))
        for spec, k, symmetric in cases:
            _, weight, idx = trace_function_grid(spec, p)
            found = sumengine._scaling(weight, idx, p, k) is not None
            assert found or not symmetric, (spec, p, k)
            orbit += found
            for sign in (1, -1):
                counts, values = _reference_grid(spec, p, sign, k)
                grid = complete_grid(spec, p, sign, params=k)
                assert np.array_equal(grid.counts, counts), (spec, p, k, sign)
                assert np.array_equal(grid.values, values), (spec, p, k, sign)
    assert orbit > 150
    # split grids: every block through the orbit transform, the trivial
    # orbit for a block without symmetry ({x1, x2} of x1^2*x2 + x1 at
    # p > 3), and never through a count field
    def no_count_field(*args):
        raise AssertionError("a split grid built a count field")

    monkeypatch.setattr(sumengine, "_BLOCK", SPLIT)
    for p in (3, 5, 7, 11, 13):
        split = [SumSpec(nvars=2, additive_phase=parse_poly("x1^2 + 3*x2^3", 2)),
                 SumSpec(nvars=3, additive_phase=parse_poly("x1*x2 + x3^2", 3)),
                 SumSpec(nvars=3, variety=AffineVariety(3, [parse_poly("x1^2 - 2*x2^2", 3)]),
                         additive_phase=parse_poly("x3 + 1", 3)),
                 SumSpec(nvars=3, torus=True, additive_phase=parse_poly("x1 + x2^2 - x3^3", 3)),
                 SumSpec(nvars=4, additive_phase=parse_poly("x1^2*x2 + x1 + x3*x4", 4))]
        for spec in split:
            assert len(sumengine._var_blocks(spec)) > 1
            for sign in (1, -1):
                with monkeypatch.context() as m:
                    m.setattr(sumengine, "_BLOCK", WHOLE)
                    counts, values = _reference_grid(spec, p, sign)
                with monkeypatch.context() as m:
                    m.setattr(sumengine, "_count_field", no_count_field)
                    grid = complete_grid(spec, p, sign)
                assert np.array_equal(grid.counts, counts), (spec, p, sign)
                assert np.array_equal(grid.values, values), (spec, p, sign)


def test_exact_grids_stay_exact_below_the_crossover():
    # the table product at the two largest gemm-side primes tested: counts
    # of the orbit path (a cubic, a circle) and of the count field (no
    # symmetry) bit-equal to the count-field reference and to eval_sum, and
    # cyclo_dft of dense rows to the integer reference
    rng = np.random.default_rng(31)
    specs = [SumSpec(nvars=2, additive_phase=parse_poly("x1^3 + x1*x2^2", 2)),
             SumSpec(nvars=2, variety=AffineVariety(2, [parse_poly("x1^2 + x2^2 - 1", 2)])),
             SumSpec(nvars=2, additive_phase=parse_poly("x1^2*x2 + x2 + 1", 2))]
    for p in (61, 103):
        assert p < sumengine._GEMM_BELOW
        ctx = FieldCtx(p)
        for spec in specs:
            counts, values = _reference_grid(spec, p)
            grid = complete_grid(spec, p)
            assert np.array_equal(grid.counts, counts), (spec, p)
            assert np.array_equal(grid.values, values), (spec, p)
            for h in rng.integers(0, p, size=(5, 2)).tolist():
                want = np.asarray(eval_sum(spec, ctx, h=h).cyclo.counts)
                assert np.array_equal(grid.counts[tuple(h)], want - want.min()), (spec, p, h)
        dense = rng.integers(-50, 51, size=(p, p))
        for sign in (1, -1):
            assert np.array_equal(cyclo_dft(dense.copy(), p, sign),
                                  integer_cyclo_dft(dense, p, sign))


def test_complete_grid_transforms_one_field_per_orbit(monkeypatch):
    # a cubic at p = 13 has 3 orbits of zeta powers s, -s under s -> g^3 s;
    # a phase-free field is one orbit, also over the last n - k axes; the
    # mixed-degree x1^2 + x2 goes through cyclo_dft, the trivial orbit: one
    # field per zeta power s <= p//2.  Each field takes one point transform;
    # at p = 127 (FFT side) the cubic's 3 fields take one FFT per axis
    transform, ifft, calls, dft_calls = sumengine._point_transform, np.fft.ifft, [], []

    def transform_shapes(field, p, sign, params=0):
        calls.append((field.shape, params))
        return transform(field, p, sign, params)

    def ifft_shapes(a, *args, **kwargs):
        calls.append((a.shape, kwargs["axis"]))
        return ifft(a, *args, **kwargs)

    def counting_cyclo_dft(counts, *args, **kwargs):
        dft_calls.append(counts.shape)
        return cyclo_dft(counts, *args, **kwargs)

    monkeypatch.setattr(sumengine, "_point_transform", transform_shapes)
    monkeypatch.setattr(sumengine, "cyclo_dft", counting_cyclo_dft)
    cubic = SumSpec(nvars=2, additive_phase=parse_poly("x1^3 + x1*x2^2", 2))
    quadric = SumSpec(nvars=3, variety=AffineVariety(3, [parse_poly("x1*x2 - x3^2 + 1", 3)]))
    mixed = SumSpec(nvars=2, additive_phase=parse_poly("x1^2 + x2", 2))
    for spec, p, k, want, via_dft in [
            (cubic, 13, 0, [((13, 13), 0)] * 3, False),
            (quadric, 5, 0, [((5, 5, 5), 0)], False),
            (quadric, 5, 1, [((5, 5, 5), 1)], False),
            (mixed, 5, 0, [((5, 5), 0)] * 2, True)]:
        calls.clear()
        dft_calls.clear()
        complete_grid(spec, p, params=k)
        assert calls == want, (spec, k, calls)
        assert dft_calls == ([(p,) * (spec.nvars + 1)] if via_dft else [])
    with monkeypatch.context() as m:
        m.setattr(sumengine, "_point_transform", transform)
        m.setattr(np.fft, "ifft", ifft_shapes)
        calls.clear()
        complete_grid(cubic, 127)
        assert calls == [((127, 127), 1), ((127, 127), 0)] * 3
    # the rounding-residual guard fires on the orbit path too, on both
    # sides of the crossover
    monkeypatch.setattr(sumengine, "_point_transform", _off_by_03(transform))
    dft_calls.clear()
    for spec, p in ((cubic, 13), (quadric, 5)):
        with pytest.raises(AssertionError, match="residual"):
            complete_grid(spec, p)
    monkeypatch.setattr(sumengine, "_point_transform", transform)
    monkeypatch.setattr(np.fft, "ifft", _off_by_03(ifft))
    with pytest.raises(AssertionError, match="residual"):
        complete_grid(cubic, 127)
    assert dft_calls == []


def test_scaling_finds_homogeneous_and_phase_free_fields():
    def scaling(p, f=None, variety=None, params=0, **kw):
        n = 3
        spec = SumSpec(nvars=n, additive_phase=parse_poly(f, n) if f else None,
                       variety=AffineVariety(n, [parse_poly(v, n) for v in variety])
                       if variety else None, **kw)
        _, weight, idx = trace_function_grid(spec, p)
        return sumengine._scaling(weight, idx, p, params)

    p = 7
    g = FieldCtx(p).generator.rank
    cone = ["x1*x2 - x3^2"]
    # homogeneous phases on cones: idx(g x) = g^d idx(x)
    assert scaling(p, "x1^3 + 2*x2*x3^2", cone) == (g, pow(g, 3, p))
    assert scaling(p, "x1 - x3", cone, torus=True) == (g, g)
    # phase-free: any variety, cone or not, and root counts
    assert scaling(p, None, ["x1^2 + x2^2 - 1"]) == (1, g)
    F = parse_poly("y^2 - x1^3 - x1 - 1", 2)
    _, weight, idx = trace_function_grid(SumSpec(nvars=1, trace_weight=("root_count", F)), p)
    assert sumengine._scaling(weight, idx, p) == (1, g)
    # rejected: a homogeneous phase off a cone, a constant term, mixed
    # degrees (2 and 1 differ mod p - 1), a Kloosterman phase
    assert scaling(p, "x1 + x2", ["x1*x2 - x3^2 - 1"]) is None
    assert scaling(p, "x1^2 + x2*x3 + 1") is None
    assert scaling(p, "x1^2 + x2") is None
    kl = SumSpec(nvars=1, trace_weight=("kloosterman_phase", 3))
    _, weight, idx = trace_function_grid(kl, p)
    assert sumengine._scaling(weight, idx, p) is None
    # with params only the last n - k axes scale: degrees count there only,
    # and the variety need only be a cone in those variables
    assert scaling(p, "x1^5*x3^2 + x1*x2*x3", params=1) == (g, pow(g, 2, p))
    assert scaling(p, "x1^5*x3^2 + x1*x2*x3") is None
    assert scaling(p, "x2*x3", ["x1 - 1"], params=1) == (g, pow(g, 2, p))
    assert scaling(p, "x2*x3", ["x1 - 1"]) is None
    assert scaling(p, "x1 + x2*x3", params=2) is None


def test_complete_grid_values_bit_equal_whole_render(monkeypatch, tmp_path):
    # `values` renders the canonical counts in row blocks; the witness
    # columns of verify and catalog output depend on its float ties, so it
    # must match a single tensordot over the whole field bit for bit, both
    # from complete_grid and read back from a binary dump.  The first case
    # has no scaling: a count field over several row blocks
    cubic = SumSpec(nvars=2, additive_phase=parse_poly("x1^3 + x1*x2^2", 2))
    cases = [
        (SumSpec(nvars=2, additive_phase=parse_poly("x1^2*x2 + x1*x2 + x2", 2)), 61,
         sumengine._BLOCK),
        (SumSpec(nvars=4, additive_phase=parse_poly("x1*x2 + x3*x4^2", 4)), 23,
         sumengine._BLOCK),
        (cubic, 127, sumengine._BLOCK),
        # 127^2 = 126 * 128 + 1: blocks of 128 rows would leave one row over
        (cubic, 127, 128 * 127),
        (SumSpec(nvars=8, variety=AffineVariety(
            8, [parse_poly("x1*x2 + x3*x4 + x5*x6 + x7*x8", 8)])), 5,
         sumengine._BLOCK),
    ]
    for spec, p, block in cases:
        monkeypatch.setattr(sumengine, "_BLOCK", block)
        grid = complete_grid(spec, p)
        assert callable(grid._counts) == (spec is not cases[0][0])  # an orbit grid
        assert grid.counts.min(axis=-1).max() == 0  # canonical
        whole = np.tensordot(grid.counts, zeta_table(p), axes=([-1], [0]))
        assert np.array_equal(grid.values, whole), (p, block)
        path = tmp_path / "grid.bin"
        grid.to_binary(path)
        back = SumGrid.from_binary(path)
        assert np.array_equal(back.counts, grid.counts), (p, block)
        assert np.array_equal(back.values, whole), (p, block)
    # the read-back renders counts as given, without canonical form
    p = 7
    counts = np.random.default_rng(5).integers(-4, 9, size=(p, p, p))
    SumGrid(p=p, n=2, values=np.zeros((p, p)), counts=counts).to_binary(path)
    back = SumGrid.from_binary(path)
    assert np.array_equal(back.counts, counts)
    assert np.array_equal(back.values,
                          np.tensordot(counts, zeta_table(p), axes=([-1], [0])))


# -- grids split over variable blocks ------------------------------------------------

SPLIT = 1            # _BLOCK below every grid: split whenever there are blocks
WHOLE = 1 << 62      # _BLOCK above every grid: always the whole transform


def test_var_blocks_join_only_what_must_stay_together():
    def blocks(n, f, **kw):
        return sumengine._var_blocks(
            SumSpec(nvars=n, additive_phase=parse_poly(f, n), **kw))

    assert blocks(4, "x1*x2 + x3*x4^2") == [[0, 1], [2, 3]]
    assert blocks(4, "x1*x3 + x2^2*x4 + 3") == [[0, 2], [1, 3]]  # interleaved
    assert blocks(3, "x1*x2 + 1") == [[0, 1], [2]]  # x3 is unused
    # joined only by the twist polynomial, by one generator spanning both
    # blocks, or by a root-count weight
    g = parse_poly("x2 + x3 + 1", 4)
    assert blocks(4, "x1*x2 + x3*x4", mult_twist=(g, 2, 1)) == [[0, 1, 2, 3]]
    V = AffineVariety(4, [parse_poly("x1^2 + 1", 4), parse_poly("x1 + x4", 4)])
    assert blocks(4, "x1*x2 + x3*x4", variety=V) == [[0, 1, 2, 3]]
    F = IntPolynomial(3, {(2, 0, 0): 1, (0, 1, 0): -1})  # y^2 - x1
    assert blocks(2, "x1 + x2", trace_weight=("root_count", F)) == [[0, 1]]


def _random_separable_spec(rng, p, phased=True):
    # phase monomials on disjoint (often interleaved) variable groups, now
    # and then a generator on one group, constant terms, free variables and
    # the torus; unless phased, a variety-only spec: generators on groups
    # and free variables, every block phase-free
    n = rng.randint(2, {2: 4, 3: 4, 5: 3, 7: 3, 11: 2, 13: 2}[p])
    label = [0, 1] + [rng.randrange(n) for _ in range(n - 2)]
    rng.shuffle(label)
    groups = [[i for i in range(n) if label[i] == b] for b in sorted(set(label))]

    def poly(group, nterms, const):
        terms = {(0,) * n: const}
        for k in range(nterms):  # the first term joins the whole group
            exps = [0] * n
            for i in rng.sample(group, rng.randint(1, len(group)) if k else len(group)):
                exps[i] = rng.randint(1, 3)
            terms[tuple(exps)] = rng.randint(1, p + 1)
        return IntPolynomial(n, terms)

    phase = IntPolynomial.constant(rng.randint(0, 3), n) if phased else None
    gens = []
    for group in groups:
        if phased and rng.random() < 0.8:  # otherwise the group's variables stay free
            phase = phase + poly(group, rng.randint(1, 2), 0)
        if rng.random() < (0.3 if phased else 0.7):
            gens.append(poly(group, rng.randint(1, 2), rng.randint(-2, 2)))
    return SumSpec(nvars=n, additive_phase=phase, torus=rng.random() < 0.3,
                   variety=AffineVariety(n, gens) if gens else None)


def _mixed_degree_splits():
    """Split specs whose blocks scale with different t_k: phases of
    different degrees, and a phase-free block next to a phased one."""
    return [SumSpec(nvars=4, additive_phase=parse_poly("x1*x2 + x3*x4^2", 4)),
            SumSpec(nvars=4, additive_phase=parse_poly("x1^2 + x2^3 + x3*x4", 4)),
            SumSpec(nvars=4, variety=AffineVariety(4, [parse_poly("x3^2 + 2*x4^2 - 1", 4)]),
                    additive_phase=parse_poly("x1*x2^2", 4))]


def test_split_grid_matches_whole_transform(monkeypatch):
    # the product of block transforms against the whole field's transform:
    # bit-equal counts and values, on phased specs and on variety-only ones
    # (phase-free blocks and whole fields, each transformed once), and on
    # blocks whose scalings combine into a diagonal lam with different
    # multipliers per block
    rng, free = random.Random(20261021), random.Random(20261019)
    for p in (2, 3, 5, 7, 11, 13):
        specs = [_random_separable_spec(rng, p) for _ in range(6)]
        specs += [_random_separable_spec(free, p, phased=False) for _ in range(4)]
        specs += _mixed_degree_splits() if p >= 5 else []
        for spec in specs:
            assert len(sumengine._var_blocks(spec)) > 1, spec
            for sign in (1, -1):
                grids = []
                for block in (SPLIT, WHOLE):
                    monkeypatch.setattr(sumengine, "_BLOCK", block)
                    grids.append(complete_grid(spec, p, sign))
                split, whole = grids
                assert np.array_equal(split.counts, whole.counts), (spec, p, sign)
                assert np.array_equal(split.values, whole.values), (spec, p, sign)


def test_split_grid_checks_the_whole_grid_cap_first(monkeypatch):
    # the cap counts the whole grid's p^(n+1) zeta counts (p^n values for a
    # complex grid), before any block is built; complex grids are not split
    def no_grid(spec, p):
        raise RuntimeError(f"trace_function_grid on {spec.nvars} variables")

    monkeypatch.setattr(sumengine, "trace_function_grid", no_grid)
    monkeypatch.setattr(sumengine, "_BLOCK", SPLIT)
    exact = SumSpec(nvars=4, additive_phase=parse_poly("x1*x2 + x3*x4^2", 4))
    assert len(sumengine._var_blocks(exact)) == 2
    with pytest.raises(CapExceeded):
        complete_grid(exact, 23, cap=23 ** 5 - 1)
    twisted = replace(exact, mult_twist=(parse_poly("x1 + 1", 4), 2, 1))
    with pytest.raises(CapExceeded):
        complete_grid(twisted, 23, cap=23 ** 4 - 1)
    with pytest.raises(RuntimeError, match="on 2 variables"):  # one block
        complete_grid(exact, 23, cap=23 ** 5)
    assert len(sumengine._var_blocks(twisted)) == 2
    with pytest.raises(RuntimeError, match="on 4 variables"):  # whole grid
        complete_grid(twisted, 23, cap=23 ** 4)


def test_split_grid_peak_memory():
    # the blocks' spectra multiply into one running product, so the split
    # grid at p = 23 peaks at 14.53 MiB, far below its 51 MB count array;
    # one more spectrum of its 11 x 12,745 representative slots is 2.2 MB
    p, spec = 23, SumSpec(nvars=4, additive_phase=parse_poly("x1*x2 + x3*x4^2", 4))
    assert len(sumengine._var_blocks(spec)) == 2 and p ** 5 > sumengine._BLOCK
    complete_grid(spec, p)  # field and zeta tables are cached
    assert _traced_peak(complete_grid, spec, p) < 15 * 2 ** 20


def test_split_grid_refuses_rounding_residual(monkeypatch):
    # through the table product at p = 5, numpy's FFT at p = 127
    monkeypatch.setattr(sumengine, "_BLOCK", SPLIT)
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1^2 + x2", 2))
    with monkeypatch.context() as m:
        m.setattr(sumengine, "_point_transform", _off_by_03(sumengine._point_transform))
        with pytest.raises(AssertionError, match="residual"):
            complete_grid(spec, 5)
    monkeypatch.setattr(np.fft, "ifft", _off_by_03(np.fft.ifft))
    with pytest.raises(AssertionError, match="residual"):
        complete_grid(spec, 127)


# -- orbit grids ------------------------------------------------------------------------


def test_orbit_points_partition_the_grid():
    # every point of (p,)^n is lam^b h for exactly one representative h, for
    # random diagonal lam, 1 on the first k (parameter) axes
    rng = random.Random(20261022)
    for _ in range(40):
        p, n = rng.choice((2, 3, 5, 7, 11, 13)), rng.randint(1, 4)
        k = rng.randint(0, n)
        lam = np.array([1] * k + [rng.randrange(1, p) for _ in range(n - k)])
        reps = sumengine._orbit_points(lam, p)
        assert len(np.unique(reps)) == len(reps), (p, lam)
        label, at, mine = np.full(p ** n, -1), reps, np.arange(len(reps))
        for _ in range(p - 1):  # lam^(p-1) = 1
            assert ((label[at] == -1) | (label[at] == mine)).all(), (p, lam)
            label[at] = mine
            h = np.array(np.unravel_index(at, (p,) * n))
            at = np.ravel_multi_index(h * lam[:, None] % p, (p,) * n)
        assert (label >= 0).all(), (p, lam)


def test_orbit_rows_are_predicted_column_permutations():
    # counts(lam h)[j] = counts(h)[t j mod p] on the reference counts, for
    # lam = g t^(-1) at a random power (g, t) of the scaling `_scaling`
    # finds, and for the diagonal lam `_diagonal_scaling` combines from the
    # blocks of a split spec
    rng = random.Random(20261023)
    for p in (5, 7, 11, 13):
        cases = []
        for spec in rng.sample(_symmetric_specs(rng), 5):
            _, weight, idx = trace_function_grid(spec, p)
            g, t = sumengine._scaling(weight, idx, p)
            a = rng.randrange(1, p - 1)
            lam = np.full(spec.nvars, pow(g, a, p) * pow(t, -a, p) % p)
            cases.append((spec, lam, pow(t, a, p)))
        for spec in _mixed_degree_splits():
            blocks = sumengine._var_blocks(spec)
            scalings = [sumengine._scaling(*trace_function_grid(
                sumengine._block_spec(spec, block, k == 0), p)[1:], p)
                for k, block in enumerate(blocks)]
            lam, t = sumengine._diagonal_scaling(blocks, scalings, p, spec.nvars)
            assert len(set(lam.tolist())) > 1, (spec, p)  # a per-block multiplier
            cases.append((spec, lam, t))
        for spec, lam, t in cases:
            counts, _ = _reference_grid(spec, p, rng.choice((1, -1)))
            rows, n = counts.reshape(-1, p), spec.nvars
            h = np.indices((p,) * n).reshape(n, -1)
            moved = rows[np.ravel_multi_index(h * lam[:, None] % p, (p,) * n)]
            assert np.array_equal(moved, rows[:, t * np.arange(p) % p]), (spec, p, lam, t)


def test_fixed_rows_are_rendered_once_and_stay_bit_equal():
    # a representative row with equal columns 1..p-1 (a rational S(h)) is
    # fixed by every column permutation, so it is rendered once, with all
    # representatives at the first image, and scattered to its images.
    # Values must still equal a whole-array tensordot bit for bit, and
    # counts the count field's: on a cone (every row fixed), a circle (some
    # rows; at p = 131 only h = 0), a split cone, fiber grids, one variable
    # (one row fixed, so one row moves: never rendered alone, which rounds
    # differently) and seeded symmetric specs
    def on(f, n, phase=None):
        return SumSpec(nvars=n, variety=AffineVariety(n, [parse_poly(g, n) for g in f]),
                       additive_phase=phase and parse_poly(phase, n))

    circle = on(["x1^2 + x2^2 - 1"], 2)
    cases = [
        (on(["x1^2 + x2^2 - x3^2"], 3), 13, 0, 13 ** 3),
        (circle, 13, 0, 25),
        (circle, 131, 0, 1),
        (on(["x1^2 + x2^2 - x3^2", "x4*x5"], 5), 7, 0, 7 ** 5),  # split
        (on(["x1*x2^2 - x3^2"], 3), 11, 1, 11 ** 3),
        (on([], 3, "x1*x2^2 + x3^2"), 11, 1, None),
        # sum over y of psi(h y^2): two representatives, h = 0 and h = 1
        (SumSpec(nvars=1, trace_weight=("root_count", parse_poly("x1^2 - x2", 2))), 13, 0, 1),
    ]
    rng = random.Random(20261028)
    cases += [(spec, p, 0, None) for p in (5, 7, 11)
              for spec in rng.sample(_symmetric_specs(rng), 5)]
    for spec, p, params, n_fixed in cases:
        grid = complete_grid(spec, p, params=params)
        assert callable(grid._counts), (spec, p)  # the orbit expansion
        counts, _ = _reference_grid(spec, p, params=params)
        assert np.array_equal(grid.counts, counts), (spec, p)
        rows = counts.reshape(-1, p)
        fixed = int((rows[:, 1:] == rows[:, 1:2]).all(axis=1).sum())
        assert n_fixed in (None, fixed), (spec, p, fixed)
        whole = np.tensordot(counts, zeta_table(p), axes=([-1], [0]))
        assert np.array_equal(grid.values, whole), (spec, p)


def test_orbit_grid_builds_counts_on_first_read(monkeypatch, tmp_path):
    # building and rendering an orbit grid, and `grid` without --bin, leave
    # the count array unbuilt; read afterwards through counts, cyclo_at or
    # a binary round trip, it equals the reference counts
    from stratsums import cli

    p, spec = 31, SumSpec(nvars=2, additive_phase=parse_poly("x1^2*x2 + x2^3", 2))
    counts, values = _reference_grid(spec, p)
    grids, built = [], cli.complete_grid

    def keep(*args, **kwargs):
        grids.append(built(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(cli, "complete_grid", keep)
    assert cli.main(["grid", "--p", "31", "--f", "x1^2*x2 + x2^3", "--spot-check", "3"]) == 0
    grids += [complete_grid(spec, p), complete_grid(spec, p)]
    for grid in grids:
        assert np.array_equal(grid.values, values)
        assert callable(grid._counts)  # not built yet
    by_cli, by_cell, dumped = grids
    assert np.array_equal(by_cli.counts, counts)
    assert all(by_cell.cyclo_at(h) == CycloValue(p, counts[h]) for h in np.ndindex(p, p))
    dumped.to_binary(tmp_path / "grid.bin")
    back = SumGrid.from_binary(tmp_path / "grid.bin")
    assert np.array_equal(back.counts, counts) and np.array_equal(dumped.counts, counts)


def test_complete_grid_constant_function():
    spec = SumSpec(nvars=2)
    grid = complete_grid(spec, 5)
    assert grid.cyclo_at((0, 0)) == CycloValue.integer(25, 5)
    off = grid.abs_values().copy()
    off[0, 0] = 0
    assert np.max(off) < 1e-9


def test_complete_grid_linear_space_indicator():
    # indicator of {x1 = x2 = 0} in A^3 transforms to p^{n-2} on the dual plane
    p = 3
    V = AffineVariety(3, [parse_poly("x1", nvars=3), parse_poly("x2", nvars=3)])
    grid = complete_grid(SumSpec(nvars=3, variety=V), p)
    for h in np.ndindex(p, p, p):
        expect = p if h[2] == 0 else 0
        assert grid.cyclo_at(h) == CycloValue.integer(expect, p)


def test_grid_agrees_with_eval_sum_exhaustively_p3():
    ctx = FieldCtx(3)
    specs = [
        SumSpec(nvars=1, additive_phase=parse_poly("x1^2")),
        SumSpec(nvars=2, additive_phase=parse_poly("x1*x2 + x2^2")),
        SumSpec(nvars=3, variety=AffineVariety(3, [parse_poly("x1^2 + x2*x3", nvars=3)]),
                additive_phase=parse_poly("x3", nvars=3)),
    ]
    for spec in specs:
        grid = complete_grid(spec, 3)
        for h in np.ndindex(*(3,) * spec.nvars):
            want = eval_sum(spec, ctx, h=h)
            assert grid.cyclo_at(h) == want.cyclo


def test_grid_agrees_with_eval_sum_twisted():
    ctx = FieldCtx(5)
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1^2 + x2"),
                   mult_twist=(parse_poly("x1", nvars=2), 2, 1))
    grid = complete_grid(spec, 5)
    for h in itertools.product(range(5), repeat=2):
        want = eval_sum(spec, ctx, h=h)
        assert abs(grid.value_at(h) - want.value) < 1e-9


def test_dual_sign_flag_reflects_grid():
    # the minus-sign transform evaluates the plus-sign grid at -h
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1^2*x2 + x1"))
    p = 7
    plus = complete_grid(spec, p, sign=1)
    minus = complete_grid(spec, p, sign=-1)
    for h in itertools.product(range(p), repeat=2):
        neg = tuple((-x) % p for x in h)
        assert abs(plus.value_at(neg) - minus.value_at(h)) < 1e-9


def test_r_F_extension_field():
    # parabola over F_9: each x1 with a square -x1... count roots directly
    ctx = FieldCtx(3, 2)
    F = parse_poly("y^2 - x1")
    total = 0
    for x in ctx.elements():
        got = r_F(F, [x], ctx)
        brute = sum(1 for y in ctx.elements() if (y * y - x).is_zero())
        assert got == brute
        total += got
    assert total == ctx.q  # y ranges over the field, each hits one x1


def test_parseval_on_grids():
    rng = np.random.default_rng(23)
    p, n = 5, 2
    vals = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    grid = dft_grid(vals, p)
    lhs = np.sum(np.abs(grid) ** 2)
    rhs = p ** n * np.sum(np.abs(vals) ** 2)
    assert abs(lhs - rhs) <= 1e-6 * rhs


def test_parseval_on_spec_grid():
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1^2*x2 + x1"))
    p = 7
    grid = complete_grid(spec, p)
    lhs = np.sum(grid.abs_values() ** 2)
    rhs = p ** 2 * p ** 2  # |t| = 1 at every point
    assert abs(lhs - rhs) <= 1e-6 * rhs


# -- root counting ------------------------------------------------------------------


def test_r_F_parabola():
    ctx = FieldCtx(5)
    F = parse_poly("y^2 - x1")
    counts = [r_F(F, [ctx.elem(x)], ctx) for x in range(5)]
    assert set(counts) <= {0, 1, 2}
    assert sum(counts) == 5  # each y hits exactly one x1
    kind, weight, _ = trace_function_grid(
        SumSpec(nvars=1, trace_weight=("root_count", F)), 5)
    assert kind == "exact"
    assert list(weight) == counts


def test_S_F_grid_linear_is_delta():
    F = parse_poly("y - x1")
    grid = S_F_grid(F, 5)
    assert grid.cyclo_at((0,)) == CycloValue.integer(5, 5)
    for h in range(1, 5):
        assert grid.cyclo_at((h,)) == CycloValue.zero(5)


def test_S_F_grid_matches_triple_loop():
    # oracle: direct triple loop over (y, x1, x2)
    p = 5
    F = parse_poly("y^2 - x1*x2 - 1")
    grid = S_F_grid(F, p)
    h = (1, 1)
    acc = 0j
    for x1 in range(p):
        for x2 in range(p):
            r = sum(1 for y in range(p) if (y * y - x1 * x2 - 1) % p == 0)
            acc += r * cmath.exp(2j * cmath.pi * ((h[0] * x1 + h[1] * x2) % p) / p)
    assert abs(grid.value_at(h) - acc) < 1e-9
    # S_F(0) = number of points of {F = 0} in A^{n+1}
    total = sum(1 for y in range(p) for x1 in range(p) for x2 in range(p)
                if (y * y - x1 * x2 - 1) % p == 0)
    assert grid.cyclo_at((0, 0)) == CycloValue.integer(total, p)


# -- homogeneous cone identity --------------------------------------------------------


def test_cone_sum_identity_quadric_and_cubic():
    for text, p in [("x1^2 + x2^2 + x3^2", 7), ("x1^3 + x2^3 + x3^3", 7)]:
        ok, violations = cone_sum_identity(parse_poly(text), p)
        assert ok, violations


def test_cone_sum_identity_returns_exactly_the_corrupted_cell(monkeypatch):
    real = sumengine.complete_grid
    for text, p, h, lhs, rhs in [
            ("x1^3 + x2^3 + x3^3", 7, (0, 0, 5),
             (78, 0, 18, 0, 0, 0, 0), (78, 0, 0, 0, 0, 0, 0)),
            ("x1^2 + x2^2", 5, (4, 4), (0, 4, 16, 4, 4), (0, 4, 4, 4, 4))]:

        def corrupted(spec, p, **kwargs):
            grid = real(spec, p, **kwargs)
            grid.counts[h][2] += 3  # keeps min 0, so still canonical
            return grid

        monkeypatch.setattr(sumengine, "complete_grid", corrupted)
        assert cone_sum_identity(parse_poly(text), p) == (
            False, [(h, CycloValue(p, lhs), CycloValue(p, rhs))])


def test_cone_sum_identity_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        cone_sum_identity(parse_poly("x1^2 + x2"), 5)


# -- exports -----------------------------------------------------------------------


def test_binary_round_trip(tmp_path):
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1*x2"))
    grid = complete_grid(spec, 5)
    path = tmp_path / "grid.bin"
    grid.to_binary(path)
    back = SumGrid.from_binary(path)
    assert back.p == grid.p and back.n == grid.n
    assert np.array_equal(back.counts, grid.counts)
    assert np.allclose(back.values, grid.values)
    dump = path.read_bytes()
    # a partial value, one value too many, one too few, a cut header, and a
    # kind byte the format does not define
    for bad in (dump + b"xyz", dump + bytes(8), dump[:-8], dump[:10],
                dump[:12] + bytes([7]) + dump[13:]):
        path.write_bytes(bad)
        with pytest.raises(ParseError):
            SumGrid.from_binary(path)


def test_binary_round_trip_complex(tmp_path):
    spec = SumSpec(nvars=1, additive_phase=parse_poly("x1^2"),
                   mult_twist=(parse_poly("x1"), 2, 1))
    grid = complete_grid(spec, 7)
    path = tmp_path / "grid.bin"
    grid.to_binary(path)
    back = SumGrid.from_binary(path)
    assert back.counts is None
    assert np.allclose(back.values, grid.values)


def test_csv_round_trip(tmp_path):
    spec = SumSpec(nvars=2, additive_phase=parse_poly("x1^2 + x2"))
    grid = complete_grid(spec, 3)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    back = SumGrid.from_csv(path)
    assert np.allclose(back.values, grid.values)


def test_grid_cap():
    with pytest.raises(CapExceeded):
        complete_grid(SumSpec(nvars=4), 11, cap=1000)


def test_exact_grid_cap_counts_zeta_cells():
    # 257^3 cells pass a p^n count of the default cap, but the exact grid's
    # 257^4 zeta counts (about 35 GB) must be refused before allocation
    with pytest.raises(CapExceeded):
        complete_grid(SumSpec(nvars=3), 257)

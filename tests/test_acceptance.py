"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime and enforcing the stated tolerance and time budget."""

import math
import random
import time

import numpy as np

from stratsums.catalog import (
    burgess_check,
    build_entry,
    diagonal_quadratic,
    family_identity_check,
    family_specialization_check,
    quadric_blocks,
)
from stratsums.cyclo import CycloValue
from stratsums.ffield import FieldCtx, gauss_sum, is_prime
from stratsums.polyring import IntPolynomial, coefficient_height, parse_poly
from stratsums.spectral import extension_sums, fit_recurrence
from stratsums.strat import VarietyChain
from stratsums.sumengine import (
    SumSpec,
    complete_grid,
    cone_sum_identity,
    dft_grid,
    eval_sum,
    power_sum_identity_check,
)
from stratsums.applications import SieveSpec, sieve_double_sum
from stratsums.polyring import AffineVariety


class Stopwatch:
    def __init__(self, num, desc, limit):
        self.num, self.desc, self.limit = num, desc, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d}: {status} ({elapsed:.2f}s / "
              f"limit {self.limit}s) - {self.desc}")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.num} exceeded its {self.limit}s budget"
        return False


def test_criterion_01_gauss_sum_modulus():
    with Stopwatch(1, "|Gauss sum| = sqrt(p) for every nontrivial chi, p <= 101", 5):
        for p in (p for p in range(3, 102) if is_prime(p)):
            ctx = FieldCtx(p)
            root = math.sqrt(p)
            for k in range(1, p - 1):
                assert abs(abs(gauss_sum(ctx, p - 1, k)) - root) < 1e-9, (p, k)


def test_criterion_02_power_sum_identity_and_weil_bound():
    with Stopwatch(2, "monomial sums equal Gauss-sum combinations, Weil bound", 1):
        for d, p in [(3, 7), (5, 11), (4, 13), (3, 31)]:
            res = power_sum_identity_check(d, p)
            assert abs(res.lhs - res.rhs) <= 1e-6, (d, p)
            assert abs(res.lhs) <= (d - 1) * math.sqrt(p) + 1e-6, (d, p)


def test_criterion_03_linear_space_exact_cascade():
    with Stopwatch(3, "linear spaces: C=1 cascade, values exactly {p^{n-2}, 0}", 10):
        for n in (3, 4):
            entry = build_entry("linear_space", {"n": n})
            assert entry.C == 1.0
            for p in (3, 5, 7, 11):
                grid = entry.grid(p)
                report = entry.verify(p, grid=grid)
                assert report.passed and not report.violations, (n, p)
                allowed = {CycloValue.zero(p), CycloValue.integer(p ** (n - 2), p)}
                for h in np.ndindex(*(p,) * n):
                    assert grid.cyclo_at(h) in allowed, (n, p, h)


def test_criterion_04_diagonal_quadratic_cascade():
    with Stopwatch(4, "diagonal quadrics: parity chain PASS, closed form, "
                      "T(F,0) = p^{n-1} for n=3", 60):
        for n in (3, 4):
            entry = diagonal_quadratic(n)
            for p in (5, 7, 11, 13):
                grid = entry.grid(p)
                report = entry.verify(p, grid=grid)
                assert report.passed, (n, p, report.violations[:3])
                closed = entry.closed_form(p)
                scale = max(1.0, float(np.max(np.abs(grid.values))))
                assert np.max(np.abs(grid.values - closed)) <= 1e-6 * scale, (n, p)
                if n == 3:
                    assert grid.cyclo_at((0,) * n) == \
                        CycloValue.integer(p ** (n - 1), p), (n, p)


def test_criterion_05_cone_identity_exact():
    with Stopwatch(5, "(p-1)T(F,v) = p #{F=xv=0} - #{F=0} exactly, all v != 0", 30):
        for text in ("x1^2 + x2^2 + x3^2", "x1^3 + x2^3 + x3^3"):
            F = parse_poly(text)
            for p in (7, 13):
                ok, violations = cone_sum_identity(F, p)
                assert ok, (text, p, violations[:3])


def test_criterion_06_quadric_blocks_deep_chain():
    with Stopwatch(6, "two quadric blocks at p=3: exhaustive 3^8 grid, C <= 16", 300):
        entry = quadric_blocks(2)
        assert entry.C <= 16
        grid = entry.grid(3)
        report = entry.verify(3, grid=grid)
        assert report.passed, report.violations[:3]
        ok, rows = entry.check_expected(report)
        assert ok, rows
        assert sum(r.count for r in report.records) == 3 ** 8


def test_criterion_07_family_identity_and_specialization():
    with Stopwatch(7, "family Fourier identity bit-exact; fiber chains "
                      "specialize, n=1,2 at p=3", 120):
        for n in (1, 2):
            ok, mismatches = family_identity_check(n, 3)
            assert ok, (n, mismatches[:3])
            dense_ok, _ = family_specialization_check(n, 3)
            assert dense_ok, n


def test_criterion_08_kloosterman_weight_recovery():
    with Stopwatch(8, "Kloosterman: rank 2, |alpha| = sqrt(p) to 1e-3, "
                      "residual <= 1e-6", 30):
        spec = SumSpec(nvars=1, trace_weight=("kloosterman_phase", 1), torus=True)
        for p in (5, 7):
            seq = extension_sums(spec, p, 6)
            prof = fit_recurrence(seq)
            assert prof.rank == 2, p
            for rt in prof.roots:
                assert abs(abs(rt) - math.sqrt(p)) <= 1e-3 * math.sqrt(p), (p, rt)
            assert prof.residual <= 1e-6, (p, prof.residual)


def test_criterion_09_burgess_exhaustive():
    with Stopwatch(9, "Burgess products: sqrt bound off the excluded stratum, "
                      "no-cancellation witness inside it", 60):
        for r in (1, 2):
            for p in (7, 11):
                report = burgess_check(r, p)
                assert not report.violations, (r, p, report.violations[:3])
                assert report.max_on_good <= report.bound + 1e-6, (r, p)
                assert report.witness_value >= p - 1 - report.bound, (r, p)


def test_criterion_10_sieve_partition_identity():
    with Stopwatch(10, "sieve regrouping equals the direct double sum exactly", 10):
        spec = SieveSpec(F=parse_poly("y^2 - x1*x2 - 1"), p=3, q=5, u_bound=3)
        chain = VarietyChain(2, [
            AffineVariety(2, [parse_poly("x1*x2")]),
            AffineVariety(2, [parse_poly("x1", nvars=2), parse_poly("x2", nvars=2)]),
        ])
        result = sieve_double_sum(spec, chain)
        assert result.exact_match
        assert result.direct_total == result.regrouped_total


def test_criterion_11_oracle_equivalence():
    with Stopwatch(11, "DFT grid path vs enumeration path: exhaustive p=3, "
                       "100 random h for p <= 13", 30):
        specs3 = [
            SumSpec(nvars=1, additive_phase=parse_poly("x1^2")),
            SumSpec(nvars=2, additive_phase=parse_poly("x1*x2 + x1")),
            SumSpec(nvars=3, additive_phase=parse_poly("x1*x2*x3 + x3^2", nvars=3)),
            SumSpec(nvars=2, variety=AffineVariety(2, [parse_poly("x1^2 + x2^2")]),
                    additive_phase=parse_poly("x2", nvars=2)),
        ]
        ctx3 = FieldCtx(3)
        for spec in specs3:
            grid = complete_grid(spec, 3)
            for h in np.ndindex(*(3,) * spec.nvars):
                want = eval_sum(spec, ctx3, h=h)
                got = grid.value_at(h)
                assert abs(got - want.value) <= 1e-6 * max(1.0, abs(want.value))
        rng = random.Random(0)
        for p in (5, 7, 11, 13):
            ctx = FieldCtx(p)
            for n in (1, 2, 3):
                f = parse_poly("x1^3 + x1" if n == 1 else
                               ("x1^2*x2 + x2" if n == 2 else
                                "x1*x2*x3 + x1^2 + x3"), nvars=n)
                spec = SumSpec(nvars=n, additive_phase=f)
                grid = complete_grid(spec, p)
                samples = 100 // 3 + 1
                for _ in range(samples):
                    h = tuple(rng.randrange(p) for _ in range(n))
                    want = eval_sum(spec, ctx, h=h)
                    got = grid.value_at(h)
                    assert abs(got - want.value) <= \
                        1e-6 * max(1.0, abs(want.value)), (p, n, h)


def test_criterion_12_property_suite():
    with Stopwatch(12, "orthogonality, Parseval, partition counts, "
                       "specialization height bound on 200 random instances", 60):
        # character orthogonality
        for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]:
            ctx = FieldCtx(p, m)
            total = sum(ctx.additive_char(x)[1] for x in ctx.elements())
            assert abs(total) < 1e-9, (p, m)
        for p in (5, 7, 11):
            ctx = FieldCtx(p)
            for order in (o for o in range(2, p) if (p - 1) % o == 0):
                s = sum(ctx.mult_char(ctx.elem(x), order) for x in range(1, p))
                assert abs(s) < 1e-9, (p, order)
        # Parseval on grids
        rng_np = np.random.default_rng(12)
        for p, n in [(3, 2), (5, 2), (7, 1)]:
            vals = rng_np.normal(size=(p,) * n) + 1j * rng_np.normal(size=(p,) * n)
            grid = dft_grid(vals, p)
            lhs = float(np.sum(np.abs(grid) ** 2))
            rhs = float(p ** n * np.sum(np.abs(vals) ** 2))
            assert abs(lhs - rhs) <= 1e-6 * rhs, (p, n)
        # stratum partition counts
        for name, params, p in [("linear_space", {"n": 3}, 5),
                                ("diagonal_quadratic", {"n": 3}, 7),
                                ("burgess_family", {"r": 1}, 7)]:
            entry = build_entry(name, params)
            report = entry.verify(p)
            assert sum(r.count for r in report.records) == p ** entry.ambient
        # explicit-constant specialization height inequality
        rng = random.Random(99)
        for _ in range(200):
            r = rng.randrange(1, 3)
            s = rng.randrange(1, 3)
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                exps = tuple(rng.randrange(0, 4) for _ in range(r + s))
                terms[exps] = rng.randrange(-100, 101)
            g = IntPolynomial(r + s, terms)
            if g.is_zero():
                continue
            y = [rng.randrange(-30, 31) for _ in range(r)]
            gy = g.specialize({i: y[i] for i in range(r)})
            logy = max(0.0, math.log(max((abs(t) for t in y), default=1) or 1))
            bound = (coefficient_height(g) + max(g.degree(), 0) * logy
                     + math.log(g.monomial_count()))
            assert coefficient_height(gy) <= bound + 1e-9

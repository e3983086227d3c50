"""Catalog entries: chains, closed forms, identities, bound verification."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from stratsums import catalog
from stratsums.catalog import (
    CATALOG,
    CatalogEntry,
    _family_delta_ft_grid,
    build_entry,
    burgess_check,
    burgess_sums,
    diagonal_quadratic,
    family_identity_check,
    family_specialization_check,
    linear_space,
    multiplicity_one_mask,
    quadratic_family,
    quadric_blocks,
    smooth_form,
)
from stratsums.cyclo import CycloValue
from stratsums.errors import CapExceeded
from stratsums.polyring import AffineVariety, IntPolynomial, parse_poly
from stratsums.strat import StratReport, StratumRecord, empirical_exponent_map
from stratsums.sumengine import SumSpec, complete_grid


# -- linear spaces -------------------------------------------------------------


def test_linear_space_exact_values_and_verify():
    for n in (3, 4):
        entry = build_entry("linear_space", {"n": n})
        for p in (3, 5):
            grid = entry.grid(p)
            report = entry.verify(p, grid=grid)
            assert report.passed and not report.violations
            # values are exactly 0 or p^{n-2}
            for h in np.ndindex(*(p,) * n):
                cyc = grid.cyclo_at(h)
                assert cyc in (CycloValue.zero(p),
                               CycloValue.integer(p ** (n - 2), p))
            closed = entry.closed_form(p)
            assert np.max(np.abs(grid.values - closed)) < 1e-9
            ok, rows = entry.check_expected(report)
            assert ok, rows


def test_linear_space_custom_basis():
    entry = linear_space(3, [[1, 1, 1]])
    grid = entry.grid(5)
    assert entry.verify(5, grid=grid).passed
    # dual space = {h : h1 + h2 + h3 = 0}... the span of (1,1,1) has dual
    # {h . (1,1,1) = 0}; check one member and one non-member
    assert grid.cyclo_at((1, 4, 0)) == CycloValue.integer(5, 5)
    assert grid.cyclo_at((1, 0, 0)) == CycloValue.zero(5)


def test_linear_space_excluded_modulus_from_minors():
    # unit bases never degenerate; a scaled basis drops rank mod its factor
    assert build_entry("linear_space", {"n": 3}).N == 1
    entry = linear_space(3, [[0, 0, 2]])
    assert entry.N % 2 == 0
    report = entry.verify(2)
    assert report.excluded_prime
    assert entry.verify(5).passed


def test_linear_space_degenerate_basis_rejected():
    with pytest.raises(ValueError):
        linear_space(4, [[1, 0, 0, 0], [2, 0, 0, 0]])
    with pytest.raises(ValueError):
        linear_space(3, [[1, 0, 0], [0, 1, 0]])


# -- diagonal quadratic forms -------------------------------------------------------


def brute_quadric_sum(coeffs, v, p):
    """Oracle: direct sum over all points of the quadric."""
    n = len(coeffs)
    acc = CycloValue.zero(p)
    for x in itertools.product(range(p), repeat=n):
        if sum(a * xi * xi for a, xi in zip(coeffs, x)) % p == 0:
            acc = acc + CycloValue.root(sum(vi * xi for vi, xi in zip(v, x)) % p, p)
    return acc


def test_dual_diagonal_form_specializes_to_the_integer_form():
    # the family's dual quadric in variables (a, v), with integers put for
    # a, is the fiber's dual quadric in v
    for a in ([1], [2, 3], [1, -2, 5], [3, 1, 4, 7]):
        n = len(a)
        var = [IntPolynomial.variable(i, 2 * n) for i in range(2 * n)]
        family = catalog._dual_diagonal_form(var[:n], var[n:])
        fiber = catalog._dual_diagonal_form(a, [IntPolynomial.variable(i, n) for i in range(n)])
        assert family.specialize(dict(enumerate(a))) == fiber
        assert fiber.monomial_count() == n


def test_diagonal_quadratic_t_at_zero_is_exactly_p_sq_n3():
    # oracle: brute force over 125 points at p = 5
    brute = brute_quadric_sum([1, 1, 1], (0, 0, 0), 5)
    assert brute == CycloValue.integer(25, 5)
    for p in (5, 7):
        entry = diagonal_quadratic(3)
        grid = entry.grid(p)
        assert grid.cyclo_at((0, 0, 0)) == CycloValue.integer(p ** 2, p)


def test_diagonal_quadratic_closed_form_matches_grid():
    for n, coeffs in [(2, [1, 3]), (3, None), (3, [1, 2, 1]), (4, None)]:
        entry = diagonal_quadratic(n, coeffs)
        for p in (5, 7):
            grid = entry.grid(p)
            closed = entry.closed_form(p)
            scale = max(1.0, float(np.max(np.abs(grid.values))))
            assert np.max(np.abs(grid.values - closed)) <= 1e-6 * scale


def test_diagonal_quadratic_grid_matches_brute_oracle():
    entry = diagonal_quadratic(2, [1, 2])
    grid = entry.grid(5)
    for v in itertools.product(range(5), repeat=2):
        assert grid.cyclo_at(v) == brute_quadric_sum([1, 2], v, 5)


def test_diagonal_quadratic_verify_and_expected():
    for n in (3, 4):
        entry = diagonal_quadratic(n)
        for p in (5, 7):
            grid = entry.grid(p)
            report = entry.verify(p, grid=grid)
            assert report.passed, report.table()
            ok, rows = entry.check_expected(report)
            assert ok, rows


def test_diagonal_quadratic_even_case_exponent_on_dual():
    # n even: on the dual quadric off the origin the doubled exponent is n
    entry = diagonal_quadratic(4)
    p = 7
    grid = entry.grid(p)
    exps = empirical_exponent_map(grid)
    masks = entry.masks(p)
    on_dual = masks[0] & ~masks[1]
    assert np.max(exps[on_dual]) <= 4 + 1e-9


def test_diagonal_quadratic_odd_case_structure_exhaustive():
    # n = 3 odd, p in {5,7,11,13}: off the origin the doubled exponent stays
    # at n-1, and the value at 0 is exactly p^{n-1}
    entry = diagonal_quadratic(3)
    for p in (5, 7, 11, 13):
        grid = entry.grid(p)
        exps = empirical_exponent_map(grid)
        off0 = np.ones((p,) * 3, dtype=bool)
        off0[0, 0, 0] = False
        assert np.max(exps[off0]) <= 2 + 1e-9  # two_exp n-1
        assert grid.cyclo_at((0, 0, 0)) == CycloValue.integer(p ** 2, p)


def test_diagonal_quadratic_rejects_zero_coeff():
    with pytest.raises(ValueError):
        diagonal_quadratic(3, [1, 0, 2])


def test_diagonal_quadratic_even_stratum_index_examples():
    # n = 4: a nonzero parameter on the quadric itself has index 1
    entry = diagonal_quadratic(4)
    p = 7
    assert (1 + 4 + 1 + 1) % p == 0
    assert entry.chain.stratum_index((1, 2, 1, 1), p) == 1
    assert entry.chain.stratum_index((1, 0, 0, 0), p) == 0
    assert entry.chain.stratum_index((0, 0, 0, 0), p) == 3


# -- smooth forms ---------------------------------------------------------------------


def test_smooth_form_quadric_dual_equals_quadric():
    entry = smooth_form(parse_poly("x1^2 + x2^2 + x3^2"), smooth_primes=(7,))
    assert entry.flagged is None
    p = 7
    masks = entry.masks(p)
    fvals = np.zeros((p,) * 3, dtype=np.int64)
    mesh = np.indices((p,) * 3)
    for i in range(3):
        fvals = (fvals + mesh[i] ** 2) % p
    assert np.array_equal(masks[0], fvals == 0)


def test_smooth_form_cubic_verify_p7():
    entry = smooth_form(parse_poly("x1^3 + x2^3 + x3^3"), smooth_primes=(7,))
    assert entry.flagged is None
    grid = entry.grid(7)
    report = entry.verify(7, grid=grid)
    assert report.passed, report.table()
    ok, rows = entry.check_expected(report)
    assert ok, rows
    # off the dual cone the doubled exponent sits at n - 1 up to the constant
    exps = empirical_exponent_map(grid)
    idx0 = ~(entry.masks(7)[0])
    assert np.max(exps[idx0]) <= 2 + 2 * math.log(entry.C) / math.log(7)


def test_smooth_form_flags_singular():
    entry = smooth_form(parse_poly("x1^2 + x2^2", nvars=3), smooth_primes=(7,))
    assert entry.flagged is not None


# -- quadric blocks --------------------------------------------------------------------


def test_quadric_blocks_single_matches_diagonal_even_case():
    blocks = quadric_blocks(1)
    diag = diagonal_quadratic(4)
    p = 3
    assert np.allclose(blocks.grid(p).values, diag.grid(p).values)


def test_quadric_blocks_two_p3_verify():
    entry = quadric_blocks(2)
    grid = entry.grid(3)
    report = entry.verify(3, grid=grid)
    assert report.passed, report.table()
    assert sum(r.count for r in report.records) == 3 ** 8
    ok, rows = entry.check_expected(report)
    assert ok, rows
    # product structure oracle: T factors over blocks; spot-check values
    diag = diagonal_quadratic(4)
    dgrid = diag.grid(3)
    for v1 in [(0, 0, 0, 0), (1, 1, 1, 0), (1, 2, 0, 0)]:
        for v2 in [(0, 0, 0, 0), (1, 0, 0, 0), (2, 2, 1, 1)]:
            got = grid.value_at(v1 + v2)
            want = dgrid.value_at(v1) * dgrid.value_at(v2)
            assert abs(got - want) < 1e-6


def test_quadric_blocks_three_p3_verify():
    # no chain for three blocks: the strata come from the entry's own masks
    entry = quadric_blocks(3)
    assert entry.chain is None
    report = entry.verify(3)
    assert report.passed, report.table()
    assert sum(r.count for r in report.records) == 3 ** 12
    ok, rows = entry.check_expected(report)
    assert ok, rows


def test_quadric_blocks_two_p5_verify():
    entry = quadric_blocks(2)
    grid = entry.grid(5)
    report = entry.verify(5, grid=grid)
    assert report.passed, report.table()
    ok, rows = entry.check_expected(report)
    assert ok, rows


def test_quadric_blocks_chain_matches_masks():
    # verify reads the block-built masks; the chain, written by --chain-out,
    # must stratify alike, at p = 5 too (the 16-term product on 5^8 cells).
    # Shared masks are skipped by the index, which must equal the index of
    # unshared copies
    entry = quadric_blocks(2)
    from stratsums.strat import stratum_index_from_masks
    for p in (3, 5):
        via_masks = stratum_index_from_masks(entry.mask_builder(p), (p,) * 8)
        via_chain = entry.chain.stratum_index_grid(p)
        assert np.array_equal(via_masks, via_chain)
        masks = entry.masks(p)
        assert masks[1] is masks[2] is masks[3]  # strata 2-4: both blocks vanish
        copies = [m.copy() for m in entry.chain.masks(p)]
        assert np.array_equal(stratum_index_from_masks(copies, (p,) * 8), via_chain)


# -- quadratic family -------------------------------------------------------------------


def test_family_identity_n1_exact():
    for p in (3, 5):
        ok, mismatches = family_identity_check(1, p)
        assert ok, (p, mismatches[:5])


def test_family_grid_cap_goes_through_complete_grid():
    # the family grid is an exact complete_grid over A^3: p^4 zeta counts
    p = 5
    with pytest.raises(CapExceeded, match="exact grid needs 5\\^4"):
        _family_delta_ft_grid(1, p, cap=p ** 4 - 1)
    assert _family_delta_ft_grid(1, p, cap=p ** 4).counts.shape == (p,) * 4


def _fiber_grid(dvec, p):
    """T(F_d, v; p) over v for one d on its own, as the family check once
    built each fiber: the zero form sums over all of A^n."""
    n = len(dvec)
    terms = {tuple(2 * int(j == i) for j in range(n)): di
             for i, di in enumerate(dvec) if di}
    V = AffineVariety(n, [IntPolynomial(n, terms)]) if terms else None
    return complete_grid(SumSpec(nvars=n, variety=V), p)


def test_family_fibers_in_one_grid_match_grids_per_d(monkeypatch):
    for n, p in [(1, 5), (1, 7), (2, 3), (2, 5), (3, 3)]:
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("params", 0))
            return complete_grid(*args, **kwargs)

        monkeypatch.setattr(catalog, "complete_grid", counted)
        assert family_identity_check(n, p)[0], (n, p)
        assert calls == [0, n], (n, p)  # the family grid, then every fiber
        quadric = parse_poly(" + ".join(f"x{i + 1}*x{n + i + 1}^2" for i in range(n)),
                             2 * n)
        batched = complete_grid(SumSpec(nvars=2 * n, variety=AffineVariety(
            2 * n, [quadric])), p, params=n)
        for dvec in itertools.product(range(p), repeat=n):
            alone = _fiber_grid(dvec, p)
            assert np.array_equal(batched.counts[dvec], alone.counts), (n, p, dvec)
            assert np.array_equal(batched.values[dvec], alone.values), (n, p, dvec)


def _corrupt_family_grid(monkeypatch, cells):
    """Make the family check read a grid whose zeta^1 count is one higher
    at each (c, d, v) cell, kept in canonical form."""
    def corrupted(n, p, cap=None):
        grid = _family_delta_ft_grid(n, p)
        for cvec, dvec, v in cells:
            row = grid.counts[cvec + dvec + v]
            row[1] += 1
            row -= row.min()
        return grid

    monkeypatch.setattr(catalog, "_family_delta_ft_grid", corrupted)


def test_family_identity_returns_exactly_the_corrupted_cells(monkeypatch):
    _corrupt_family_grid(monkeypatch, [((2,), (3,), (1,))])
    assert family_identity_check(1, 5) == (False, [((2,), (3,), (1,))])
    cells = [((1, 2), (0, 1), (2, 2)), ((0, 0), (0, 0), (0, 0)),
             ((2, 1), (1, 0), (0, 2))]
    _corrupt_family_grid(monkeypatch, cells)
    # listed in the order of a loop over d, then v, then c
    assert family_identity_check(2, 3) == (
        False, [cells[1], cells[0], cells[2]])


def test_family_specialization_n1_and_n2():
    for n in (1, 2):
        for p in (3, 5, 7):
            dense_ok, flagged = family_specialization_check(n, p)
            assert dense_ok, (n, p)
            # of the degenerate d, only d = 0 leaves the fiber chain
            assert flagged == [(0,) * n], (n, p)


def test_family_entry_verify():
    for n in (1, 2):
        for p in (3, 5):
            entry = quadratic_family(n)
            grid = entry.grid(p)
            report = entry.verify(p, grid=grid)
            assert report.passed, report.table()
            ok, rows = entry.check_expected(report)
            assert ok, rows


def test_family_modulus_invariance_in_c():
    entry = quadratic_family(1)
    grid = entry.grid(3)
    absv = grid.abs_values()
    for d in range(3):
        for v in range(3):
            col = absv[:, d, v]
            assert np.max(np.abs(col - col[0])) < 1e-9


# -- Burgess sums -----------------------------------------------------------------------


def test_burgess_r1_distinct_points_give_unit_sum():
    # oracle: substitution u = (x-a)/(x-b) turns the sum into -chi(1) = -1
    for p in (5, 7, 11):
        vals = np.abs(burgess_sums(1, p, 2))
        for a in range(p):
            for b in range(p):
                want = p - 1 if a == b else 1.0
                assert abs(vals[a, b] - want) < 1e-9


def test_burgess_multiplicity_mask():
    m = multiplicity_one_mask(1, 5)
    assert m[0, 1] and not m[2, 2]
    m2 = multiplicity_one_mask(2, 5)
    assert not m2[1, 1, 1, 1]   # the single value 1 has multiplicity 4
    assert m2[1, 2, 1, 1]       # 2 occurs once
    assert not m2[1, 2, 1, 2]   # both values occur twice


def test_burgess_check_r1():
    for p in (7, 11):
        report = burgess_check(1, p)
        assert report.passed
        assert report.max_on_good <= report.bound + 1e-6
        assert report.witness_value >= p - 1 - report.bound


def test_burgess_check_r2_p7():
    report = burgess_check(2, 7)
    assert report.passed
    assert report.witness_value == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("over, passed", [(0.5e-6, True), (2e-6, False)])
def test_burgess_check_slack_is_relative(monkeypatch, over, passed):
    # |B| = p - 1 at the witness, C sqrt(p) + over sqrt(p) at the good point (0, 1)
    p = 7
    vals = np.zeros((p, p), dtype=np.complex128)
    vals[0, 0] = p - 1
    vals[0, 1] = math.sqrt(p) + over * math.sqrt(p)
    monkeypatch.setattr(catalog, "burgess_sums", lambda r, p, order: vals)
    report = burgess_check(1, p, order_cap=2)
    assert report.passed == passed
    assert report.max_on_good == abs(vals[0, 1])
    assert report.violations == ([] if passed else [(2, (0, 1))])


def test_burgess_arrays_are_capped_before_allocating(monkeypatch):
    monkeypatch.setattr(catalog, "DEFAULT_GRID_CAP", 100)  # 11^2 cells are over it
    for build in (lambda: burgess_sums(1, 11, 2), lambda: multiplicity_one_mask(1, 11),
                  lambda: burgess_check(1, 11)):
        with pytest.raises(CapExceeded, match="11\\^2 exceeds cap 100"):
            build()
    assert burgess_sums(1, 7, 2).shape == (7, 7)


def test_burgess_requires_p_above_2r():
    with pytest.raises(ValueError):
        burgess_check(2, 3)


def test_burgess_entry_verify():
    entry = build_entry("burgess_family", {"r": 1})
    report = entry.verify(7)
    assert report.passed


# -- registry ----------------------------------------------------------------------------


def test_check_expected_flags_missing_and_low_exponents():
    entry = diagonal_quadratic(4)  # expected {0: 2, 1: 4, 3: 6}
    report = entry.verify(5)
    assert entry.check_expected(report) == (
        True, [(0, 5.0, 10.0, True), (1, 20.0, 50.0, True),
               (3, 145.0, 250.0, True)])
    low = dataclasses.replace(entry, expected_two_exp={0: 2, 1: 2, 3: 6})
    assert low.check_expected(report) == (
        False, [(0, 5.0, 10.0, True), (1, 20.0, 10.0, False),
                (3, 145.0, 250.0, True)])
    missing = dataclasses.replace(entry, expected_two_exp={0: 2, 3: 6})
    assert missing.check_expected(report) == (
        False, [(0, 5.0, 10.0, True), (1, 20.0, None, False),
                (3, 145.0, 250.0, True)])


@pytest.mark.parametrize("over, good", [(0.5e-6, True), (2e-6, False)])
def test_check_expected_slack_is_relative(over, good):
    # expected e = 3 at p = 5: the bound is C 5^{3/2}, the slack 1e-6 5^{3/2}
    entry = CatalogEntry(name="t", ambient=1, d=1, C=2.0, N=1,
                         expected_two_exp={0: 3}, params={}, notes="",
                         test_primes=())
    scale = 5 ** 1.5
    value = 2.0 * scale + over * scale
    report = StratReport(p=5, ambient=1, C=2.0, d=1, excluded_prime=False,
                         records=[StratumRecord(0, 5, value, value / scale, (0,))],
                         violations=[], passed=True)
    assert entry.check_expected(report) == (good, [(0, value, 2.0 * scale, good)])


def test_every_entry_passes_at_its_test_primes():
    # cascade bound and expected-exponent table at each entry's primes
    for name in CATALOG:
        entry = build_entry(name)
        for p in entry.test_primes:
            if entry.N > 1 and entry.N % p == 0:
                continue
            grid = entry.grid(p)
            report = entry.verify(p, grid=grid)
            assert report.passed, (name, p, report.violations[:3])
            ok, rows = entry.check_expected(report)
            assert ok, (name, p, rows)


def test_codim_shadow_on_polynomial_chains():
    # point-count proxy for stratum codimension on chains that claim it
    from stratsums.strat import codim_shadow_check
    for entry, p in [(build_entry("linear_space", {"n": 3}), 5),
                     (build_entry("linear_space", {"n": 4}), 5),
                     (diagonal_quadratic(3), 7),
                     (diagonal_quadratic(4), 7)]:
        ok, counts = codim_shadow_check(entry.chain, p)
        assert ok, (entry.name, p, counts)


def test_codim_shadow_on_family_masks():
    # every family stratum has point count <= kappa p^{3n - j}
    for n, p in [(1, 5), (2, 3), (2, 5)]:
        entry = quadratic_family(n)
        for j, mask in enumerate(entry.masks(p), start=1):
            count = int(mask.sum())
            assert count <= 4 * p ** (3 * n - j), (n, p, j, count)


def test_registry_builds_every_entry():
    for name in CATALOG:
        entry = build_entry(name)
        assert entry.name == name
        assert entry.grid_builder is not None


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        build_entry("no_such_family")

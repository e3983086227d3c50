"""Stratification model: index maps, bound verification, dual search."""

import itertools
import json
import math
import random

import numpy as np
import pytest

from stratsums import strat
from stratsums.catalog import build_entry
from stratsums.errors import ChainContainmentError
from stratsums.ffield import FieldCtx
from stratsums.polyring import AffineVariety, IntPolynomial, parse_poly, poly_to_string
from stratsums.strat import (
    KLDatum,
    StratumRecord,
    VarietyChain,
    codim_shadow_check,
    dual_points_mask,
    dual_variety_membership,
    empirical_exponent_map,
    exponent_histogram,
    smoothness_check,
    stratum_index_from_masks,
    verify_kl,
    verify_kl_masks,
)
from stratsums.sumengine import SumGrid, SumSpec, complete_grid, variety_mask


def linear_chain(n):
    """X_1 = ... = X_{n-2} = {h_n = 0, ..., pattern for V = span(e_n..)}"""
    dual = AffineVariety(n, [parse_poly(f"x{i}", nvars=n) for i in range(3, n + 1)])
    return VarietyChain(n, [dual] * (n - 2) +
                        [AffineVariety.empty(n), AffineVariety.empty(n)])


def linear_space_grid(n, p):
    V = AffineVariety(n, [parse_poly(f"x{i}", nvars=n) for i in range(1, 3)])
    return complete_grid(SumSpec(nvars=n, variety=V), p)


def test_stratum_index_plane_example():
    chain = VarietyChain(3, [AffineVariety(3, [parse_poly("x3", nvars=3)])])
    assert chain.stratum_index((1, 2, 0), 5) == 1
    assert chain.stratum_index((0, 0, 1), 5) == 0
    # a point test builds no field tables, so the grid cap does not apply
    p = 2_147_483_647
    assert chain.stratum_index((1, 2, 2 * p), p) == 1
    assert chain.stratum_index((0, 0, p - 1), p) == 0


def test_stratum_index_needs_a_prime():
    chain = VarietyChain(3, [AffineVariety(3, [parse_poly("x3", nvars=3)])])
    with pytest.raises(ValueError, match="not prime"):
        chain.stratum_index((1, 2, 0), 4)


def test_stratum_index_origin_is_deepest():
    n = 3
    origin = AffineVariety(n, [parse_poly(f"x{i}", nvars=n) for i in range(1, n + 1)])
    plane = AffineVariety(n, [parse_poly("x3", nvars=n)])
    chain = VarietyChain(n, [plane, origin, origin])
    assert chain.stratum_index((0, 0, 0), 5) == 3
    assert chain.stratum_index((1, 0, 0), 5) == 1


def test_stratum_index_grid_matches_pointwise():
    chain = VarietyChain(2, [
        AffineVariety(2, [parse_poly("x1^2 + x2^2")]),
        AffineVariety(2, [parse_poly("x1", nvars=2), parse_poly("x2", nvars=2)]),
    ])
    p = 7
    grid = chain.stratum_index_grid(p)
    for h in itertools.product(range(p), repeat=2):
        assert grid[h] == chain.stratum_index(h, p)


def test_containment_violation_raises():
    small = AffineVariety(2, [parse_poly("x1", nvars=2), parse_poly("x2", nvars=2)])
    big = AffineVariety(2, [parse_poly("x1", nvars=2)])
    with pytest.raises(ChainContainmentError):
        VarietyChain(2, [small, big])  # reversed: not descending


def test_verify_kl_linear_space_passes_exactly():
    # sums over a codimension-2 linear space: p^{n-2} on the dual plane, 0 off
    for n in (3, 4):
        for p in (3, 5):
            grid = linear_space_grid(n, p)
            datum = KLDatum(chain=linear_chain(n), N=1, C=1.0, d=n - 2)
            report = verify_kl(datum, grid)
            assert report.passed and not report.violations
            total = sum(r.count for r in report.records)
            assert total == p ** n


def test_verify_kl_detects_wrong_chain():
    # negative control: claim the dual plane is {x3 = 0} when it is x1=x2=0 side
    n, p = 3, 5
    grid = linear_space_grid(n, p)
    wrong = VarietyChain(n, [AffineVariety(n, [parse_poly("x1", nvars=n)])])
    datum = KLDatum(chain=wrong, N=1, C=1.0, d=n - 2)
    report = verify_kl(datum, grid)
    assert not report.passed and report.violations


def test_verify_kl_excluded_prime_flag():
    grid = linear_space_grid(3, 5)
    datum = KLDatum(chain=linear_chain(3), N=10, C=1.0, d=1)
    report = verify_kl(datum, grid)
    assert report.excluded_prime
    datum2 = KLDatum(chain=linear_chain(3), N=3, C=1.0, d=1)
    assert not verify_kl(datum2, grid).excluded_prime
    masks = linear_chain(3).masks(5)
    for N, excluded in [(1, False), (5, True), (10, True), (3, False)]:
        assert verify_kl_masks(grid.values, masks, 5, 1.0, 1, N).excluded_prime is excluded
    assert verify_kl_masks(grid.values, masks, 5, 1.0, 1).excluded_prime is False


def test_witnesses_achieve_min_C():
    grid = linear_space_grid(3, 5)
    datum = KLDatum(chain=linear_chain(3), N=1, C=1.0, d=1)
    report = verify_kl(datum, grid)
    for rec in report.records:
        if rec.count and rec.max_abs > 0:
            val = abs(grid.value_at(rec.witness))
            assert math.isclose(val / grid.p ** ((report.d + rec.index) / 2),
                                rec.min_C, rel_tol=1e-12)


def test_chain_masks_evaluate_equal_strata_once(monkeypatch):
    calls = []

    def counting(V, p, nvars):
        calls.append(V.generators)
        return variety_mask(V, p, nvars)

    # the same strata objects, without the masks built at construction
    built = build_entry("quadric_blocks", {"n_blocks": 2}).chain
    blocks = VarietyChain(built.ambient, built.strata, check_primes=())
    diag = build_entry("diagonal_quadratic", {"n": 4, "coeffs": [1, 2, 3, 5]}).chain
    # a chain file holds equal strata as separate objects
    loaded = VarietyChain.from_json_dict(
        json.loads(json.dumps(diag.to_json_dict())), check_primes=())
    assert loaded.strata[1] is not loaded.strata[2]
    monkeypatch.setattr(strat, "variety_mask", counting)
    for chain, p, distinct in ((blocks, 3, 3), (loaded, 5, 2)):
        calls.clear()
        masks = chain.masks(p)
        assert len(calls) == len(set(calls)) == distinct
        for i, (V, mask) in enumerate(zip(chain.strata, masks)):
            assert np.array_equal(mask, variety_mask(V, p, chain.ambient))
            for W, other in zip(chain.strata[:i], masks[:i]):
                assert (other is mask) == (W.generators == V.generators)


def test_shared_masks_are_read_only_for_every_consumer():
    # equal strata share one grid, so no consumer may write into a mask;
    # writes would raise, and each consumer must still run
    entry = build_entry("quadric_blocks", {"n_blocks": 2})
    chain, p = entry.chain, 3
    masks = chain.masks(p)
    assert all(not m.flags.writeable for m in masks)
    with pytest.raises(ValueError):
        masks[1][(0,) * chain.ambient] = False
    before = [m.copy() for m in masks]
    chain.check_containment(p)
    chain.stratum_index_grid(p)
    codim_shadow_check(chain, p)
    verify_kl(KLDatum(chain=chain, N=2, C=entry.C, d=entry.d), entry.grid(p))
    entry.verify(p)
    assert all(np.array_equal(m, b) for m, b in zip(chain.masks(p), before))


def _unique_reference(values, masks, p, C, d, slack=1e-6):
    """Records and violations by np.unique and one selection sum per level."""
    abs_vals = np.abs(values)
    idx = stratum_index_from_masks(masks, values.shape)
    records, violations = [], []
    for i in (int(v) for v in np.unique(idx)):
        sel = idx == i
        flat_arg = int(np.argmax(np.where(sel, abs_vals, -1.0)))
        witness = tuple(int(v) for v in np.unravel_index(flat_arg, values.shape))
        max_abs, scale = float(abs_vals[witness]), p ** ((d + i) / 2)
        bound = C * scale + slack * scale
        records.append(StratumRecord(i, int(sel.sum()), max_abs, max_abs / scale,
                                     witness))
        violations += [(tuple(int(v) for v in h), float(abs_vals[tuple(h)]),
                        float(bound)) for h in np.argwhere(sel & (abs_vals > bound))]
    return records, violations


def test_verify_kl_masks_matches_unique_reference():
    # grids of one block and of several (13^4, 5^7 cells), so that a tied
    # maximum recurs in later blocks and the witness must stay the first;
    # a level empty at p, a mask shared by two levels, forced violations
    rng = np.random.default_rng(28)
    violated = 0
    for p, n in [(3, 2), (5, 2), (7, 2), (5, 3), (13, 4), (5, 7)]:
        shape = (p,) * n
        # few magnitudes, so the maximum of a stratum is tied and the
        # witness must be the first flat argmax
        values = rng.integers(0, 4, shape) * np.exp(2j * np.pi * rng.random(shape))
        first = rng.random(shape) < 0.6
        shared = first & (rng.random(shape) < 0.3)
        for masks, absent in (([first, first & (rng.random(shape) < 0.5),
                                np.zeros(shape, dtype=bool),  # empty at p
                                first & (rng.random(shape) < 0.2)], 3),
                              # levels 2 and 3 share a mask, so level 2 is empty
                              ([first, shared, shared, shared & (rng.random(shape) < 0.5)], 2)):
            for C, d in [(0.5, 0), (2.0, 1), (100.0, 2)]:
                report = verify_kl_masks(values, masks, p, C, d)
                records, violations = _unique_reference(values, masks, p, C, d)
                assert report.records == records
                assert report.violations == violations
                assert report.passed == (not violations)
                violated += bool(violations)
            assert absent not in [r.index for r in report.records]
    assert violated >= 12


@pytest.mark.parametrize("over, passed", [(0.5e-6, True), (2e-6, False)])
def test_verify_kl_masks_slack_is_relative(over, passed):
    # stratum 1 of F_5 has scale 5^{(1 + 1)/2}; a reported bound includes the slack
    p, C, d = 5, 2.0, 1
    masks = [np.arange(p) >= 3]
    scale = p ** ((d + 1) / 2)
    values = np.zeros(p, dtype=np.complex128)
    values[4] = C * scale + over * scale
    report = verify_kl_masks(values, masks, p, C, d)
    assert report.passed == passed
    assert report.violations == ([] if passed else
                                 [((4,), abs(values[4]), C * scale + 1e-6 * scale)])


def test_exponent_map_linear_space():
    n, p = 3, 5
    grid = linear_space_grid(n, p)
    exps = empirical_exponent_map(grid)
    dual_mask = np.zeros((p,) * n, dtype=bool)
    mesh = np.indices((p,) * n)
    dual_mask[mesh[2] == 0] = True
    assert np.allclose(exps[dual_mask], 2 * (n - 2), atol=1e-9)
    assert np.all(np.isneginf(exps[~dual_mask]))


def test_exponent_map_gauss_grid_is_one_everywhere():
    grid = complete_grid(SumSpec(nvars=1, additive_phase=parse_poly("x1^2")), 7)
    exps = empirical_exponent_map(grid)
    assert np.allclose(exps, 1.0, atol=1e-9)


def test_exponent_map_zero_grid():
    grid = SumGrid(p=5, n=1, values=np.zeros(5, dtype=np.complex128))
    assert np.all(np.isneginf(empirical_exponent_map(grid)))
    hist = exponent_histogram(empirical_exponent_map(grid))
    assert hist == {"-inf": 5}


def test_exponent_histogram_discovers_quadric_strata():
    # the exponent plateaus of a 3-variable quadric sum reveal the chain:
    # n-1 = 2 generically, 2(n-1) = 4 at the origin, -inf where T vanishes
    from stratsums.catalog import diagonal_quadratic
    p = 11
    grid = diagonal_quadratic(3).grid(p)
    hist = exponent_histogram(empirical_exponent_map(grid))
    assert hist[4.0] == 1                      # only the origin
    assert hist[2.0] > 0 and hist["-inf"] > 0  # generic plateau + zero locus
    assert set(hist) == {"-inf", 2.0, 4.0}


def test_chain_json_round_trip(tmp_path):
    chain = VarietyChain(3, [
        AffineVariety(3, [parse_poly("x1^2 + x2*x3", nvars=3)], claimed_dim=2),
        AffineVariety(3, [parse_poly(f"x{i}", nvars=3) for i in (1, 2, 3)],
                      claimed_dim=0),
    ])
    path = tmp_path / "chain.json"
    chain.save(path)
    back = VarietyChain.load(path)
    assert back.ambient == 3
    assert [V.claimed_dim for V in back.strata] == [2, 0]
    for p in (3, 5):
        assert np.array_equal(back.stratum_index_grid(p), chain.stratum_index_grid(p))


def test_report_json_and_table(tmp_path):
    grid = linear_space_grid(3, 3)
    datum = KLDatum(chain=linear_chain(3), N=1, C=1.0, d=1)
    report = verify_kl(datum, grid)
    path = tmp_path / "report.json"
    report.save(path)
    data = json.loads(path.read_text())
    assert data["schema"] == 1 and data["passed"]
    assert "PASS" in report.table()


# -- dual variety search ----------------------------------------------------------


def quadratic_dual_oracle(v, p):
    """For F = sum x_i^2 the dual equals the quadric itself: member iff
    F(v) = 0 (inverse-matrix form of a unit diagonal)."""
    return sum(x * x for x in v) % p == 0


def test_dual_membership_diagonal_quadric_matches_oracle():
    F = parse_poly("x1^2 + x2^2 + x3^2")
    p = 7
    for v in itertools.product(range(p), repeat=3):
        if not any(v):
            continue
        got = dual_variety_membership(F, v, p, max_ext=1, sufficient_ext=1)
        want = "member" if quadratic_dual_oracle(v, p) else "nonmember"
        assert got == want, (v, got, want)


def test_dual_membership_undetermined_without_sufficient_bound():
    F = parse_poly("x1^2 + x2^2 + x3^2")
    assert dual_variety_membership(F, (1, 0, 0), 7, max_ext=1) == "undetermined"


def test_dual_membership_cubic_e1():
    # for the cube-sum form, a section singular along e_1 would need the other
    # gradient coordinates to vanish, forcing x = e_1 off the hyperplane
    F = parse_poly("x1^3 + x2^3 + x3^3")
    got = dual_variety_membership(F, (1, 0, 0), 7, max_ext=2, sufficient_ext=2)
    assert got == "nonmember"


def test_dual_points_mask_quadric_matches_formula():
    F = parse_poly("x1^2 + x2^2 + x3^2")
    p = 7
    mask = dual_points_mask(F, p, max_ext=1)
    for v in itertools.product(range(p), repeat=3):
        want = quadratic_dual_oracle(v, p) if any(v) else True
        assert mask[v] == want


def test_dual_points_mask_cubic_consistent_with_search():
    F = parse_poly("x1^3 + x2^3 + x3^3")
    p = 7
    mask = dual_points_mask(F, p, max_ext=2)
    # spot-check against the pointwise search on a slice
    for v in [(1, 0, 0), (1, 1, 0), (1, 2, 3), (2, 6, 1), (0, 1, 6)]:
        got = dual_variety_membership(F, v, p, max_ext=2, sufficient_ext=2)
        assert mask[v] == (got == "member")


def test_smoothness_check():
    assert smoothness_check(parse_poly("x1^2 + x2^2 + x3^2"), 7)
    assert smoothness_check(parse_poly("x1^3 + x2^3 + x3^3"), 7)
    # x1*x2 has a singular projective point along e_3? gradient (x2, x1, 0):
    # vanishes at [0:0:1], which lies on the cone {x1 x2 = 0}
    assert not smoothness_check(parse_poly("x1*x2", nvars=3), 7)


# a scalar FieldElem reference for the windowed projective sweep: per-point
# evaluation at every point of P^{n-1}(F_{p^e})


def _ref_points(F, p, max_ext):
    """(ctx, x, F(x), grad F(x)) at one representative of every point of
    P^{n-1}(F_{p^e}), e <= max_ext."""
    grads = F.gradient()
    for e in range(1, max_ext + 1):
        ctx = FieldCtx(p, e)
        elems = list(ctx.elements())
        for lead in range(F.nvars):
            for tail in itertools.product(elems, repeat=F.nvars - lead - 1):
                x = [ctx.zero()] * lead + [ctx.one(), *tail]
                yield ctx, x, F.eval_mod(x), [g.eval_mod(x) for g in grads]


def _ref_smooth(points):
    return not any(all(g.is_zero() for g in G) for *_, G in points)


def _ref_dual_mask(points, n, p):
    mask = np.zeros((p,) * n, dtype=bool)
    mask[(0,) * n] = True
    for _, _, value, G in points:
        lead = next((g for g in G if not g.is_zero()), None)
        if not value.is_zero() or lead is None:
            continue
        ratios = [g * lead.inverse() for g in G]
        if all(c == 0 for w in ratios for c in w.coeffs[1:]):
            for lam in range(1, p):
                mask[tuple(lam * w.coeffs[0] % p for w in ratios)] = True
    return mask


def _ref_member(points, v):
    n = len(v)
    for ctx, x, value, G in points:
        vs = [ctx.elem(c) for c in v]
        dot = sum((a * b for a, b in zip(vs, x)), ctx.zero())
        if value.is_zero() and dot.is_zero() and all(
                (G[i] * vs[j] - G[j] * vs[i]).is_zero()
                for i in range(n) for j in range(i + 1, n)):
            return True
    return False


def _random_form(rng, n, d, p):
    """A random homogeneous form of degree d, each monomial present with
    probability 2/3; a third of them leave out x_n, which makes the point
    e_n singular."""
    live = n - 1 if rng.random() < 1 / 3 else n
    terms = {}
    for exps in itertools.product(range(d + 1), repeat=live):
        if sum(exps) == d and rng.random() < 2 / 3:
            terms[exps + (0,) * (n - live)] = rng.randrange(1, p)
    terms = terms or {(d,) + (0,) * (n - 1): 1}
    return IntPolynomial(n, terms)


def _sweep_cases():
    rng = random.Random(20250618)
    cases = []
    while len(cases) < 30:
        n, d = rng.choice((2, 3, 4)), rng.randint(2, 4)
        p, max_ext = rng.choice((2, 3, 5, 7, 11)), rng.choice((1, 2, 2))
        if sum(p ** (e * k) for e in range(1, max_ext + 1) for k in range(n)) > 700:
            continue
        vs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)]
        cases.append((_random_form(rng, n, d, p), p, max_ext, vs))
    return cases


def test_projective_sweep_matches_fieldelem_reference(monkeypatch):
    smooth = singular = divisible = members = 0
    for F, p, max_ext, vs in _sweep_cases():
        n = F.nvars
        points = list(_ref_points(F, p, max_ext))
        want_smooth = _ref_smooth(points)
        smooth, singular = smooth + want_smooth, singular + (not want_smooth)
        want_mask = None
        if F.degree() % p:
            want_mask = _ref_dual_mask(points, n, p)
        else:
            divisible += 1
        if want_mask is not None:  # a few known members too
            vs += [tuple(int(c) for c in h) for h in np.argwhere(want_mask)[1:3]]
        vs = [v for v in vs if any(v)]
        want_member = [_ref_member(points, v) for v in vs]
        members += sum(want_member)
        for block in (strat._BLOCK, 64):  # one block per face, and several
            monkeypatch.setattr(strat, "_BLOCK", block)
            case = (poly_to_string(F), p, max_ext, block)
            assert smoothness_check(F, p, max_ext=max_ext) == want_smooth, case
            if want_mask is None:
                with pytest.raises(ValueError):
                    dual_points_mask(F, p, max_ext=max_ext)
            else:
                got = dual_points_mask(F, p, max_ext=max_ext)
                assert np.array_equal(got, want_mask), case
            for v, want in zip(vs, want_member):
                got = dual_variety_membership(F, v, p, max_ext=max_ext,
                                              sufficient_ext=max_ext)
                assert got == ("member" if want else "nonmember"), (case, v)
    # the seeded cases reach every branch
    assert smooth and singular and divisible and members


def test_codim_shadow_check():
    chain = linear_chain(4)
    ok, counts = codim_shadow_check(chain, 5)
    assert ok
    assert counts[0] == 5 ** 2  # the dual plane


def test_projective_sweep_modulo_frobenius_matches_the_full_sweep(monkeypatch):
    # over F_{p^e}, e >= 2, the sweep takes one point per Frobenius orbit of
    # a face's first tail coordinate; every caller's answer equals the one
    # on the trivial transversal (every exponent, orbit size 1)
    rng = random.Random(20261021)
    cases = [(parse_poly("x1^3 + x2^3 + x3^3"), 13, 2)]
    for n, d, p, max_ext in [(3, 3, 5, 3), (3, 4, 7, 2), (3, 3, 11, 2),
                             (4, 3, 5, 2), (4, 4, 5, 2), (3, 4, 5, 3)]:
        cases.append((_random_form(rng, n, d, p), p, max_ext))

    def answers(F, p, max_ext, vs):
        mask = dual_points_mask(F, p, max_ext=max_ext) if F.degree() % p else None
        if mask is not None:  # and a few members
            vs = vs + [tuple(map(int, h)) for h in np.argwhere(mask)[1:3]]
        return (smoothness_check(F, p, max_ext=max_ext),
                None if mask is None else mask.tolist(),
                [(v, dual_variety_membership(F, v, p, max_ext=max_ext)) for v in vs])

    seen = set()
    for F, p, max_ext in cases:
        vs = [tuple(rng.randrange(1, p) for _ in range(F.nvars))]
        with monkeypatch.context() as mp:
            mp.setattr(strat, "orbit_minima",
                       lambda c, N: (np.arange(N), np.ones(N, dtype=np.int64)))
            want = answers(F, p, max_ext, vs)
        assert answers(F, p, max_ext, vs) == want, (poly_to_string(F), p, max_ext)
        seen |= {want[0]} | {found for _, found in want[2]}
    # smooth and singular forms, members and undecided directions
    assert seen == {True, False, "member", "undetermined"}

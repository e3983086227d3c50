"""Polynomial ring: evaluation, heights, graded pieces, text round-trip."""

import math
import random

import pytest

from stratsums.errors import ParseError
from stratsums.ffield import FieldCtx
from stratsums.polyring import (
    AffineVariety,
    IntPolynomial,
    coefficient_height,
    family_height,
    homogeneous_closure,
    homogeneous_components,
    parse_poly,
    poly_to_string,
)


def random_poly(rng, nvars, max_deg=4, max_terms=6, max_coeff=50):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
        terms[exps] = rng.randrange(-max_coeff, max_coeff + 1)
    return IntPolynomial(nvars, terms)


def test_zero_poly_evaluates_to_zero_everywhere():
    ctx = FieldCtx(5)
    z = IntPolynomial.zero(2)
    for a in range(5):
        for b in range(5):
            assert z.eval_mod([ctx.elem(a), ctx.elem(b)]).is_zero()
    assert z.degree() == -1


def test_eval_simple_cases():
    ctx = FieldCtx(5)
    f = parse_poly("x1 + x2")
    assert f.eval_mod([ctx.elem(1), ctx.elem(2)]).coeffs[0] == 3
    g = parse_poly("x1^2 + x2^2 + x3^2")
    assert g.eval_mod([ctx.elem(1), ctx.elem(2), ctx.elem(0)]).is_zero()


def test_eval_dimension_mismatch():
    ctx = FieldCtx(5)
    f = parse_poly("x1 + x2")
    with pytest.raises(ValueError):
        f.eval_mod([ctx.elem(1)])


def test_eval_mod_in_no_variables_needs_the_field():
    ctx = FieldCtx(7)
    c = IntPolynomial.constant(9, 0)
    with pytest.raises(ValueError, match="needs a context"):
        c.eval_mod([])
    assert c.eval_mod([], ctx) == ctx.elem(2)
    assert not AffineVariety(0, [c]).contains([], ctx)
    assert AffineVariety(0, [IntPolynomial.constant(14, 0)]).contains([], ctx)


def test_eval_mod_is_ring_homomorphism_on_random_instances():
    ctx = FieldCtx(7, 2)
    rng = random.Random(10)
    for _ in range(30):
        f = random_poly(rng, 2, max_deg=3)
        g = random_poly(rng, 2, max_deg=3)
        h = random_poly(rng, 2, max_deg=3)
        pt = [ctx.from_rank(rng.randrange(ctx.q)) for _ in range(2)]
        lhs = (f * g + h).eval_mod(pt)
        rhs = f.eval_mod(pt) * g.eval_mod(pt) + h.eval_mod(pt)
        assert lhs == rhs


def test_coefficient_height():
    assert coefficient_height(parse_poly("x1 + 1")) == 0.0
    f = parse_poly("3*x1^2 - 7")
    assert math.isclose(coefficient_height(f), math.log(7))
    assert coefficient_height(IntPolynomial.zero(2)) == 0.0
    fam = [parse_poly("3*x1^2 - 7"), parse_poly("x1 + 1")]
    assert family_height(fam) == max(coefficient_height(g) for g in fam)


def test_homogeneous_components_partition_and_reassemble():
    f = parse_poly("x1^2 + x1*x2 + 3")
    comps = homogeneous_components(f)
    assert [c.degree() for c in comps] == [0, 2]
    assert comps[0] == IntPolynomial.constant(3, 2)
    assert comps[1] == parse_poly("x1^2 + x1*x2")
    total = IntPolynomial.zero(2)
    for c in comps:
        assert c.is_homogeneous()
        total = total + c
    assert total == f
    assert homogeneous_components(IntPolynomial.zero(3)) == []
    g = parse_poly("x1^2 + x2^2")
    assert homogeneous_components(g) == [g]


def test_homogeneous_reassembly_random():
    rng = random.Random(12)
    for _ in range(50):
        f = random_poly(rng, 3)
        total = IntPolynomial.zero(3)
        degs = set()
        for c in homogeneous_components(f):
            assert c.is_homogeneous()
            assert c.degree() not in degs
            degs.add(c.degree())
            total = total + c
        assert total == f


def test_homogeneous_closure_splits_components():
    V = AffineVariety(2, [parse_poly("x1^2 + x2")])
    W = homogeneous_closure(V)
    assert set(W.generators) == {parse_poly("x1^2", nvars=2), parse_poly("x2", nvars=2)}
    # over any F_p, only (0, 0) survives
    ctx = FieldCtx(5)
    pts = [(a, b) for a in range(5) for b in range(5)
           if W.contains([ctx.elem(a), ctx.elem(b)])]
    assert pts == [(0, 0)]


def test_homogeneous_closure_cone_property_exhaustive():
    # closed under scalar multiplication of points, all p <= 7
    rng = random.Random(13)
    for p in (2, 3, 5, 7):
        ctx = FieldCtx(p)
        for _ in range(5):
            V = AffineVariety(2, [random_poly(rng, 2, max_deg=3, max_terms=4)])
            W = homogeneous_closure(V)
            member = [pt for pt in
                      ([ctx.elem(a), ctx.elem(b)] for a in range(p) for b in range(p))
                      if W.contains(pt)]
            for pt in member:
                assert V.contains(pt)
                for lam in ctx.elements():
                    assert W.contains([lam * c for c in pt])


def test_specialization_height_inequality_explicit_constant():
    # h_c(g_y) <= h_c(g) + deg(g) log+ max|y_i| + log(#monomials), exactly
    rng = random.Random(14)
    for _ in range(200):
        r = rng.randrange(1, 3)
        s = rng.randrange(1, 3)
        g = random_poly(rng, r + s, max_deg=3, max_terms=5, max_coeff=100)
        if g.is_zero():
            continue
        y = [rng.randrange(-30, 31) for _ in range(r)]
        gy = g.specialize({i: y[i] for i in range(r)})
        lhs = coefficient_height(gy)
        logy = max(0.0, math.log(max((abs(v) for v in y), default=1) or 1))
        rhs = (coefficient_height(g) + max(g.degree(), 0) * logy
               + math.log(g.monomial_count()))
        assert lhs <= rhs + 1e-9


def test_specialize_reindexes_remaining_variables():
    f = parse_poly("y^2 - x1*x2 - 1")
    g = f.specialize({0: 3})  # y := 3
    assert g.nvars == 2
    assert g == parse_poly("-x1*x2 + 8")


def test_gradient():
    f = parse_poly("x1^3 + x2^3 + x3^3")
    grads = f.gradient()
    assert grads[0] == parse_poly("3*x1^2", nvars=3)
    assert grads[2] == parse_poly("3*x3^2", nvars=3)


def test_parse_print_round_trip_examples():
    for text in ["y^2 - x1*x2 - 1", "x1^2", "x1 + x2", "3*x1^2 - 7",
                 "x1^2*x2 - 4*x2^3 + x1 - 12", "0"]:
        f = parse_poly(text)
        y = "y" in text
        assert parse_poly(poly_to_string(f, y_var=y)) == f


def test_parse_print_round_trip_random():
    rng = random.Random(15)
    for _ in range(100):
        f = random_poly(rng, rng.randrange(1, 4))
        s = poly_to_string(f)
        assert parse_poly(s, nvars=f.nvars) == f


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("x^^2")
    with pytest.raises(ParseError):
        parse_poly("x1 +")
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x1 & x2")
    with pytest.raises(ParseError):
        parse_poly("x1*x2", nvars=1)
    with pytest.raises(ParseError):
        parse_poly("2*-3")
    with pytest.raises(ParseError):
        parse_poly("x1 2")
    # a trailing '*' after a term or a constant, with or without a space
    for text in ("x1*", "x1* ", "x1 + x2*", "3*", "3 * ", "x1 - 3*"):
        with pytest.raises(ParseError):
            parse_poly(text)
    for text in ("x0", "x1 + x0^2", "2^3", "x1 + 2^3"):
        with pytest.raises(ParseError):
            parse_poly(text)
    with pytest.raises(ParseError):
        parse_poly("y + x1", y_var=False)


def test_y_variable_maps_to_index_zero():
    f = parse_poly("y^2 - x1")
    assert f.nvars == 2
    assert f.terms == {(2, 0): 1, (0, 1): -1}


def test_variety_membership_and_empty():
    ctx = FieldCtx(3)
    V = AffineVariety(2, [parse_poly("x1^2 + x2^2")])
    assert V.contains([ctx.elem(0), ctx.elem(0)])
    assert not V.contains([ctx.elem(1), ctx.elem(1)])
    points = [[a, b] for a in ctx.elements() for b in ctx.elements()]
    assert not any(AffineVariety.empty(2).contains(pt) for pt in points)
    assert all(AffineVariety.full(2).contains(pt) for pt in points)


def test_variety_height_upper():
    V = AffineVariety(2, [parse_poly("3*x1^2 - 7", nvars=2), parse_poly("x2 - 1")])
    assert math.isclose(V.height_upper(), 2 + math.log(7))

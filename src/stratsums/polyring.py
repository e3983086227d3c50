"""Multivariate integer polynomials with sparse term maps.

Coefficients are arbitrary-precision ints so that height experiments are not
width-limited.  Evaluation happens either over Z (specialization) or mod p
through a field context.  The text format is a sum of terms, each
``sign* factor ('*' factor)*`` with a sign on every term after the first; a
factor is an integer, or x1..xn or an optional leading y (used for fiber root
counting) with an optional ``^<int>``, e.g. ``y^2 - x1*x2 - 1``.  A dangling
sign or '*' is a ParseError; parse/print round-trips exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError


class IntPolynomial:
    """Sparse polynomial in Z[x_1..x_nvars]; terms map exponent tuples to
    nonzero integer coefficients.  Values are immutable after construction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for nvars={nvars}")
            coeff = int(coeff)
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        self.nvars = nvars
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, c: int, nvars: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "IntPolynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exps = tuple(int(j == i) for j in range(nvars))
        return cls(nvars, {exps: 1})

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial(self.nvars, terms)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return IntPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(self.nvars,
                                 {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntPolynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = IntPolynomial.constant(1, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, int):
            return IntPolynomial.constant(other, self.nvars)
        if not isinstance(other, IntPolynomial):
            raise TypeError(f"cannot combine with {type(other)}")
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        return other

    def __eq__(self, other):
        return (isinstance(other, IntPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"IntPolynomial({self.nvars}, {poly_to_string(self)!r})"

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def monomial_count(self) -> int:
        return len(self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- evaluation -----------------------------------------------------------

    def eval_mod(self, point, ctx=None) -> "FieldElem":
        """Value at a point of F_{p^m}^nvars, coefficients reduced into the
        field.  All coordinates must share one context, ctx if given (the
        only field a polynomial in 0 variables knows)."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coords, poly has {self.nvars} vars")
        if ctx is None and not point:
            raise ValueError("eval_mod of a 0-variable polynomial needs a context")
        ctx = point[0].ctx if ctx is None else ctx
        for x in point:
            if x.ctx is not ctx:
                raise ValueError("mixed field contexts in point")
        total = ctx.zero()
        for exps, coeff in self.terms.items():
            v = ctx.elem(coeff % ctx.p)
            for x, e in zip(point, exps):
                if e:
                    v = v * (x ** e)
            total = total + v
        return total

    def specialize(self, assignments: dict[int, int]) -> "IntPolynomial":
        """Substitute integers for the given variable indices; the surviving
        variables are reindexed in their original order."""
        keep = [i for i in range(self.nvars) if i not in assignments]
        terms = {}
        for exps, coeff in self.terms.items():
            c = coeff
            for i, val in assignments.items():
                e = exps[i]
                if e:
                    c *= val ** e
            newe = tuple(exps[i] for i in keep)
            terms[newe] = terms.get(newe, 0) + c
        return IntPolynomial(len(keep), terms)

    def gradient(self) -> list["IntPolynomial"]:
        out = []
        for i in range(self.nvars):
            terms = {}
            for exps, coeff in self.terms.items():
                e = exps[i]
                if e:
                    newe = exps[:i] + (e - 1,) + exps[i + 1:]
                    terms[newe] = terms.get(newe, 0) + coeff * e
            out.append(IntPolynomial(self.nvars, terms))
        return out


def coefficient_height(f: IntPolynomial) -> float:
    """log+ of the largest coefficient magnitude (natural log; 0 for the
    zero polynomial).  The height of a family is the max over members."""
    if not f.terms:
        return 0.0
    return max(0.0, math.log(max(abs(c) for c in f.terms.values())))


def family_height(polys) -> float:
    return max((coefficient_height(f) for f in polys), default=0.0)


def homogeneous_components(f: IntPolynomial) -> list[IntPolynomial]:
    """Graded pieces, ascending degree; they sum back to f exactly."""
    by_deg: dict[int, dict] = {}
    for exps, coeff in f.terms.items():
        by_deg.setdefault(sum(exps), {})[exps] = coeff
    return [IntPolynomial(f.nvars, by_deg[d]) for d in sorted(by_deg)]


@dataclass(frozen=True)
class AffineVariety:
    """Zero set of a generator list in affine nvars-space.  claimed_dim is
    advisory metadata, never certified."""

    nvars: int
    generators: tuple
    claimed_dim: int | None = None

    def __init__(self, nvars: int, generators, claimed_dim: int | None = None):
        gens = tuple(generators)
        for g in gens:
            if g.nvars != nvars:
                raise ValueError("generator nvars mismatch")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "claimed_dim", claimed_dim)

    @classmethod
    def full(cls, nvars: int) -> "AffineVariety":
        return cls(nvars, ())

    @classmethod
    def empty(cls, nvars: int) -> "AffineVariety":
        return cls(nvars, (IntPolynomial.constant(1, nvars),))

    def contains(self, point, ctx=None) -> bool:
        return all(g.eval_mod(point, ctx).is_zero() for g in self.generators)

    def height_upper(self) -> float:
        """Upper bound for the variety height from the *given* generators:
        max degree plus their coefficient height."""
        deg = max((g.degree() for g in self.generators), default=0)
        return max(deg, 0) + family_height(self.generators)


def homogeneous_closure(V: AffineVariety) -> AffineVariety:
    """Variety cut out by all homogeneous components of V's generators.
    Its point set sits inside V's and is closed under scaling."""
    gens = []
    for g in V.generators:
        gens.extend(homogeneous_components(g))
    return AffineVariety(V.nvars, gens)


# -- text format -------------------------------------------------------------

# parse_poly's factor and term; whitespace may separate any two pieces
_FACTOR = re.compile(r"(\d+)|(y|x\d+)(?:\s*\^\s*(\d+))?")
_TERM = re.compile(r"\s*(?P<signs>(?:[-+]\s*)*)"
                   r"(?P<product>(?:{0})(?:\s*\*\s*(?:{0}))*)\s*".format(_FACTOR.pattern))


def parse_poly(text: str, nvars: int | None = None,
               y_var: bool | None = None) -> IntPolynomial:
    """Parse a sum of terms: ``sign* factor ('*' factor)*``, where every term
    after the first needs at least one sign and a factor is an integer, or
    ``y`` / ``x<k>`` with an optional ``^<int>``.  The terms must consume the
    whole text, so a dangling sign or '*' is a ParseError.

    Variables are x1..xn; if `y` occurs (or y_var=True) it becomes variable 0
    and x_i maps to index i, otherwise x_i maps to index i-1.  nvars widens
    the ambient space when the text mentions fewer variables.
    """
    if not text.strip():
        raise ParseError("empty polynomial text")
    parsed, pos = [], 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (parsed and not m["signs"]):
            raise ParseError(f"bad polynomial text at {text[pos:]!r}")
        parsed.append((m["signs"].count("-") % 2, _FACTOR.findall(m["product"])))
        pos = m.end()

    names = {name for _, factors in parsed for _, name, _ in factors if name}
    if y_var is None:
        y_var = "y" in names
    if "y" in names and not y_var:
        raise ParseError("y appears but y_var=False was forced")
    xs = [int(name[1:]) for name in names - {"y"}]
    if min(xs, default=1) < 1:
        raise ParseError("variable x0 out of range (x1 is first)")
    inferred = max(xs, default=0) + int(y_var)
    if nvars is None:
        # constants default to one ambient variable
        nvars = max(inferred, 1)
    elif nvars < inferred:
        raise ParseError(f"nvars={nvars} too small for {inferred} variables")

    terms: dict = {}
    for negative, factors in parsed:
        coeff, exps = -1 if negative else 1, [0] * nvars
        for number, name, power in factors:
            if number:
                coeff *= int(number)
            else:
                i = 0 if name == "y" else int(name[1:]) - 1 + int(y_var)
                exps[i] += int(power or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return IntPolynomial(nvars, terms)


def poly_to_string(f: IntPolynomial, y_var: bool = False) -> str:
    """Deterministic rendering; parse_poly(poly_to_string(f)) == f."""
    if not f.terms:
        return "0"

    def var_name(i: int) -> str:
        if y_var:
            return "y" if i == 0 else f"x{i}"
        return f"x{i + 1}"

    items = sorted(f.terms.items(),
                   key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    parts = []
    for k, (exps, coeff) in enumerate(items):
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(var_name(i))
            elif e > 1:
                factors.append(f"{var_name(i)}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        if k == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)

"""Exact arithmetic in F_p and F_{p^m}: traces, characters, Gauss sums.

A FieldCtx owns one concrete model of F_{p^m}: a monic irreducible modulus
over F_p, a fixed multiplicative generator, and (lazily) discrete-log and
trace tables.  The extension-sum kernel sees the field only through
multiplication matrices over F_p (`mul_matrices`; the trace is their
matrix trace), and so does the generator search at m >= 2.  FieldElem,
an immutable coefficient vector with pure-function arithmetic, is the
scalar reference the kernels are tested against.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .cyclo import is_prime, zeta_table
from .errors import CapExceeded, DEFAULT_FIELD_CAP


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def orbit_minima(c: int, N: int):
    """(mins, sizes): the least element of each orbit of x -> c x on Z/N, c a
    unit mod N, in increasing order, and each orbit's size.  One pass over
    Z/N per power of c below its order."""
    x = np.arange(N, dtype=np.int64)
    least, cj = x.copy(), c % N
    while cj != 1 % N:
        y = x * cj
        np.minimum(least, y - y // N * N, out=least)  # numpy's `%` is slower
        cj = cj * c % N
    mins = np.flatnonzero(least == x)
    return mins, np.bincount(least, minlength=N)[mins]


# -- dense univariate polynomial helpers over F_p (coefficient lists, low
#    degree first, no trailing zeros) --------------------------------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _ptrim(a)


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pmod(base, mod, p)
    while e > 0:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a = _pmod(a, b, p)
        a, b = b, a
    return a


def poly_is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic polynomial of degree m is irreducible over F_p iff it shares no
    factor with x^{p^j} - x for any j <= m/2 (no factor of small degree)."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] % p != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if m == 1:
        return True
    mod = [c % p for c in coeffs]
    for j in range(1, m // 2 + 1):
        # x^{p^j} mod f, then gcd(x^{p^j} - x, f)
        xp = _ppowmod([0, 1], p ** j, mod, p)
        diff = list(xp)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(mod, _ptrim(diff), p)
        if len(g) - 1 >= 1:
            return False
    return True


def _first_irreducible(p: int, m: int, start: int) -> tuple[int, ...]:
    """First monic irreducible of degree m >= 2 over F_p at rank >= start,
    ranking candidates (c_0, ..., c_{m-1}, 1) by sum c_i p^i."""
    for rank in range(start, p ** m):
        coeffs = [rank // p ** i % p for i in range(m)] + [1]
        if coeffs[0] != 0 and poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible of degree {m} over F_{p} from rank {start}")


@lru_cache(maxsize=None)
def least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over F_p,
    ordering candidates by the coefficient tuple (c_0, ..., c_{m-1})."""
    return (0, 1) if m == 1 else _first_irreducible(p, m, 0)


def next_irreducible(p: int, m: int, after: tuple[int, ...]) -> tuple[int, ...]:
    """Next monic irreducible after `after` in the same candidate order.
    Used to build a second, inequivalent field model for invariance tests."""
    if m == 1:
        raise ValueError("degree-1 modulus has no alternative model")
    return _first_irreducible(p, m, sum(c * p ** i for i, c in enumerate(after[:m])) + 1)


class FieldElem:
    """Element of F_{p^m}, stored as a reduced coefficient tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldCtx", coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def __add__(self, other):
        return self.ctx.add(self, other)

    def __sub__(self, other):
        return self.ctx.sub(self, other)

    def __mul__(self, other):
        return self.ctx.mul(self, other)

    def __neg__(self):
        return self.ctx.neg(self)

    def __pow__(self, e: int):
        return self.ctx.pow(self, e)

    def inverse(self):
        return self.ctx.inv(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def rank(self) -> int:
        """Mixed-radix encoding sum(c_i p^i); a bijection onto [0, p^m)."""
        r = 0
        for c in reversed(self.coeffs):
            r = r * self.ctx.p + c
        return r

    def __eq__(self, other):
        return (isinstance(other, FieldElem) and self.coeffs == other.coeffs
                and self.ctx is other.ctx)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"FieldElem({self.coeffs!r} over F_{self.ctx.p}^{self.ctx.m})"


class FieldCtx:
    """A prime p with an explicit model of F_{p^m}.

    The modulus defaults to the least monic irreducible of degree m (so all
    contexts with the same (p, m) agree); pass `modulus` for an alternative
    model.  Model-dependent quantities (traces of individual elements) change
    only by a field isomorphism; power sums over the whole field do not.
    """

    def __init__(self, p: int, m: int = 1, modulus=None, cap: int = DEFAULT_FIELD_CAP):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** m > cap:
            raise CapExceeded(f"field size {p}^{m} exceeds cap {cap}")
        self.p = p
        self.m = m
        self.q = p ** m
        if modulus is None:
            modulus = least_irreducible(p, m)  # irreducible: tested there
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not poly_is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self._zero = FieldElem(self, (0,) * m)
        self._one = FieldElem(self, (1,) + (0,) * (m - 1))
        self._generator = None
        self._dlog = None
        self._exp_ranks = None
        self._trace_table = None

    # -- element construction ------------------------------------------------

    def zero(self) -> FieldElem:
        return self._zero

    def one(self) -> FieldElem:
        return self._one

    def elem(self, value) -> FieldElem:
        """Element from an int (base-field embed) or coefficient sequence."""
        if isinstance(value, FieldElem):
            if value.ctx is not self:
                raise ValueError("element belongs to a different context")
            return value
        if isinstance(value, int):
            return FieldElem(self, (value % self.p,) + (0,) * (self.m - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.m:
            raise ValueError(f"need {self.m} coefficients, got {len(coeffs)}")
        return FieldElem(self, coeffs)

    def from_rank(self, r: int) -> FieldElem:
        coeffs = []
        for _ in range(self.m):
            coeffs.append(r % self.p)
            r //= self.p
        return FieldElem(self, tuple(coeffs))

    def elements(self):
        """Iterate all q elements in rank order."""
        for r in range(self.q):
            yield self.from_rank(r)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        p = self.p
        return FieldElem(self, tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        p = self.p
        return FieldElem(self, tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FieldElem) -> FieldElem:
        p = self.p
        return FieldElem(self, tuple((-x) % p for x in a.coeffs))

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        p = self.p
        if self.m == 1:
            return FieldElem(self, ((a.coeffs[0] * b.coeffs[0]) % p,))
        prod = _pmul(list(a.coeffs), list(b.coeffs), p)
        red = _pmod(prod, list(self.modulus), p)
        red += [0] * (self.m - len(red))
        return FieldElem(self, tuple(red))

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self._one
        base = a
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: FieldElem) -> FieldElem:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # q is capped, so Fermat exponentiation is fine
        return self.pow(a, self.q - 2)

    def frobenius(self, a: FieldElem) -> FieldElem:
        return self.pow(a, self.p)

    # -- trace and characters ---------------------------------------------------

    def trace_to_base(self, x: FieldElem) -> int:
        """Tr(x) = x + x^p + ... + x^{p^{m-1}}, reduced into [0, p)."""
        if x.ctx is not self:
            raise ValueError("element belongs to a different context")
        if self.m == 1:
            return x.coeffs[0]
        acc = x
        conj = x
        for _ in range(self.m - 1):
            conj = self.frobenius(conj)
            acc = self.add(acc, conj)
        if any(c != 0 for c in acc.coeffs[1:]):
            raise AssertionError("trace left the base field; modulus corrupt")
        return acc.coeffs[0]

    def additive_char(self, x: FieldElem) -> tuple[int, complex]:
        """psi_m(x) = e(Tr(x)/p); returns (exact index in Z/p, complex value)."""
        idx = self.trace_to_base(x)
        return idx, complex(zeta_table(self.p)[idx])

    @property
    def generator(self) -> FieldElem:
        """A fixed generator of the multiplicative group, order q - 1: the
        least rank r >= 2 with r^((q-1)/f) != 1 for every prime f | q-1, or
        the unit itself when q = 2."""
        if self._generator is None:
            p, q = self.p, self.q
            exps = [(q - 1) // f for f in prime_factors(q - 1)]
            if self.m == 1:  # Python ints: numpy set-up costs more at this size
                rank = next((r for r in range(2, p)
                             if all(pow(r, e, p) != 1 for e in exps)), 1)
            else:
                rank = self._least_generator_rank(exps)
            self._generator = self.from_rank(rank)
        return self._generator

    def _least_generator_rank(self, exps) -> int:
        """The search of `generator` at m >= 2, in growing batches of
        candidates: a^e = 1 exactly when M_a^e e_0 = coeffs(a^e) is e_0, and
        each e multiplies e_0 by the squares M_a^(2^k) of its set bits."""
        p, one, lo, size = self.p, np.eye(1, self.m, dtype=np.int64), 2, 4
        while True:
            ranks = np.arange(lo, min(lo + size, self.q))
            squares = [self.mul_matrices(ranks)]
            for _ in range(max(exps).bit_length() - 1):
                squares.append(squares[-1] @ squares[-1] % p)
            ok = np.ones(len(ranks), dtype=bool)
            for e in exps:
                v = np.repeat(one, len(ranks), axis=0)
                for k in range(e.bit_length()):
                    if e >> k & 1:
                        v = np.einsum("bij,bj->bi", squares[k], v) % p
                ok &= (v != one).any(axis=1)
            if ok.any():
                return int(ranks[ok.argmax()])
            lo, size = lo + size, 2 * size

    def mul_matrices(self, ranks) -> np.ndarray:
        """Multiplication matrices over F_p of the elements of the given
        ranks, shape (len(ranks), m, m): with C the companion matrix of the
        modulus, M_a = sum_i a_i C^i maps coeffs(y) to coeffs(a y), and
        trace(M_a) = Tr(a).  Entries stay below m p^2 before each
        reduction, inside int64 under the field cap."""
        p, m = self.p, self.m
        C = np.eye(m, k=-1, dtype=np.int64)
        C[:, -1] = [-c % p for c in self.modulus[:m]]
        powers = [np.eye(m, dtype=np.int64)]
        for _ in range(m - 1):
            powers.append(C @ powers[-1] % p)
        digits = np.asarray(ranks, dtype=np.int64)[:, None] // p ** np.arange(m) % p
        return np.tensordot(digits, np.array(powers), axes=1) % p

    def _build_dlog(self):
        g = self.generator
        exp_ranks = np.empty(self.q - 1, dtype=np.int64)
        dlog = np.full(self.q, -1, dtype=np.int64)
        acc = self._one
        for k in range(self.q - 1):
            r = acc.rank
            exp_ranks[k] = r
            dlog[r] = k
            acc = self.mul(acc, g)
        if acc != self._one:
            raise AssertionError("generator order is not q - 1")
        self._exp_ranks = exp_ranks
        self._dlog = dlog

    @property
    def dlog_table(self) -> np.ndarray:
        """dlog by rank (entry -1 at rank 0); built on first use."""
        if self._dlog is None:
            self._build_dlog()
        return self._dlog

    @property
    def exp_ranks(self) -> np.ndarray:
        """Ranks of generator powers g^0 .. g^{q-2}."""
        if self._exp_ranks is None:
            self._build_dlog()
        return self._exp_ranks

    def dlog(self, x: FieldElem) -> int:
        if x.is_zero():
            raise ZeroDivisionError("dlog of zero")
        return int(self.dlog_table[x.rank])

    def mult_char(self, x: FieldElem, order_divisor: int, index: int = 1) -> complex:
        """chi(x) = e(index * dlog(x) / order_divisor), with chi(0) = 0.

        order_divisor must divide q - 1; index selects which character of
        that order (index=1 is the canonical one of exact order order_divisor).
        """
        if order_divisor <= 0 or (self.q - 1) % order_divisor != 0:
            raise ValueError(f"order {order_divisor} does not divide q-1={self.q - 1}")
        if x.is_zero():
            return 0j
        k = self.dlog(x)
        return cmath.exp(2j * cmath.pi * ((index * k) % order_divisor) / order_divisor)

    def mult_char_table(self, order_divisor: int, index: int = 1) -> np.ndarray:
        """chi over all ranks (chi(0) = 0), as a complex vector of length q."""
        if order_divisor <= 0 or (self.q - 1) % order_divisor != 0:
            raise ValueError(f"order {order_divisor} does not divide q-1={self.q - 1}")
        tab = np.zeros(self.q, dtype=np.complex128)
        dl = self.dlog_table
        nz = np.arange(self.q)[dl >= 0]
        ang = 2 * np.pi * ((index * dl[nz]) % order_divisor) / order_divisor
        tab[nz] = np.exp(1j * ang)
        return tab

    @property
    def trace_table(self) -> np.ndarray:
        """Tr by rank for the whole field, from Tr on the power basis
        (trace is F_p-linear); built once."""
        if self._trace_table is None:
            t = FieldElem(self, tuple(int(i == 1) for i in range(self.m))) \
                if self.m > 1 else self._one
            basis_tr = []
            acc = self._one
            for i in range(self.m):
                basis_tr.append(self.trace_to_base(acc))
                if self.m > 1:
                    acc = self.mul(acc, t)
            ranks = np.arange(self.q, dtype=np.int64)
            tr = np.zeros(self.q, dtype=np.int64)
            for i in range(self.m):
                tr += ((ranks // self.p ** i) % self.p) * basis_tr[i]
            self._trace_table = tr % self.p
        return self._trace_table

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m}, modulus={self.modulus})"


def gauss_sum(ctx: FieldCtx, chi_order: int, chi_index: int = 1) -> complex:
    """Gauss sum sum_{y in F_p^x} chi(y) e(y/p) for a nontrivial chi mod p.

    Requires a base-field context (m = 1).  The trivial character is
    rejected: its "Gauss sum" is degenerate and has no sqrt(p) modulus.
    """
    if ctx.m != 1:
        raise ValueError("gauss_sum is defined over the base field (m=1)")
    if chi_order <= 0 or (ctx.p - 1) % chi_order != 0:
        raise ValueError(f"order {chi_order} does not divide p-1={ctx.p - 1}")
    if chi_order == 1 or chi_index % chi_order == 0:
        raise ValueError("trivial character rejected")
    chi = ctx.mult_char_table(chi_order, chi_index)
    psi = zeta_table(ctx.p)
    return complex(np.sum(chi[1:] * psi[1:]))


def quadratic_gauss_sum(p: int) -> complex:
    """Gauss sum of the quadratic character mod an odd prime."""
    if p == 2:
        raise ValueError("p must be odd")
    return gauss_sum(FieldCtx(p), 2, 1)

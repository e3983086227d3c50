"""Equidistribution discrepancy and thin-set sieve sums on the sum engine.

Discrepancy counts lattice points in a box whose scaled polynomial values
land in a target sub-box of [0,1]^r, against the proportional expectation;
the bound side is the multidimensional Erdos-Turan right-hand side over the
same box.  The sieve side evaluates the double sum over prime pairs of
|S_F| terms exactly and regroups the identical terms by stratum pair; the
regrouped total is the same correctly-rounded real sum, so it must match
the direct total bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cyclo import zeta_table
from .errors import CapExceeded, DEFAULT_ENUM_CAP
from .polyring import IntPolynomial
from .strat import VarietyChain
from .sumengine import S_F_grid, poly_values_grid


@dataclass(frozen=True)
class DiscrepancySpec:
    polys: tuple
    p: int
    w: int
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if not self.polys:
            raise ValueError("need at least one polynomial")
        nv = self.polys[0].nvars
        for f in self.polys:
            if f.nvars != nv:
                raise ValueError("polynomials must share one variable set")
        if not (0 < self.w <= self.p):
            raise ValueError("window must satisfy 0 < w <= p")
        r = len(self.polys)
        if len(self.alpha) != r or len(self.beta) != r:
            raise ValueError("alpha/beta length mismatch")
        for a, b in zip(self.alpha, self.beta):
            if not (0 <= a <= b <= 1):
                raise ValueError("need 0 <= alpha_i <= beta_i <= 1")

    @property
    def nvars(self) -> int:
        return self.polys[0].nvars

    @property
    def r(self) -> int:
        return len(self.polys)


def _box_values(spec: DiscrepancySpec, cap: int) -> np.ndarray:
    """P_i(x) mod p over the box [0, w)^n, shape (r, w^n)."""
    n, w = spec.nvars, spec.w
    if w ** n > cap:
        raise CapExceeded(f"box {w}^{n} exceeds cap {cap}")
    return np.stack([poly_values_grid(f, spec.p, w).reshape(-1)
                     for f in spec.polys])


def discrepancy(spec: DiscrepancySpec, cap: int = DEFAULT_ENUM_CAP) -> float:
    """| #{x in box : alpha_i <= {P_i(x)/p} <= beta_i for all i}
       - w^n prod(beta_i - alpha_i) |, by exact enumeration."""
    vals = _box_values(spec, cap)
    inside = np.ones(vals.shape[1], dtype=bool)
    for k in range(spec.r):
        frac = vals[k] / spec.p
        inside &= (frac >= spec.alpha[k]) & (frac <= spec.beta[k])
    count = int(inside.sum())
    expect = spec.w ** spec.nvars
    for a, b in zip(spec.alpha, spec.beta):
        expect *= (b - a)
    return abs(count - expect)


@dataclass
class ETReport:
    D: float
    rhs: float
    leading: float
    sum_terms: list          # (A-tuple, |S(A)|)
    classical_r1_bound: float | None
    classical_holds: bool | None


def erdos_turan_rhs(spec: DiscrepancySpec, K: int,
                    cap: int = DEFAULT_ENUM_CAP) -> ETReport:
    """The Erdos-Turan right-hand side w^n/K + sum over 0 < A_i <= K of
    prod 1/max(A_i, 1) |sum_x psi(A.P(x))|, with implied constant 1, over
    the same box as D.

    For r = 1 the classical explicit one-dimensional inequality
    D <= N/(K+1) + 3 sum_{A<=K} |S(A)|/A is also evaluated and asserted;
    for r >= 2 no constant is asserted, only the RHS is reported.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    vals = _box_values(spec, cap)
    zt = zeta_table(spec.p)
    D = discrepancy(spec, cap)
    total = 0.0
    terms = []
    for A in itertools.product(range(1, K + 1), repeat=spec.r):
        phase = np.zeros(vals.shape[1], dtype=np.int64)
        for k, a in enumerate(A):
            phase = (phase + a * vals[k]) % spec.p
        s_abs = abs(complex(np.sum(zt[phase])))
        terms.append((A, s_abs))
        weight = 1.0
        for a in A:
            weight /= max(a, 1)
        total += weight * s_abs
    leading = spec.w ** spec.nvars / K
    rhs = leading + total
    classical = None
    holds = None
    if spec.r == 1:
        N = spec.w ** spec.nvars
        classical = N / (K + 1) + 3 * sum(s / A[0] for A, s in terms)
        holds = D <= classical + 1e-9
    return ETReport(D=D, rhs=rhs, leading=leading, sum_terms=terms,
                    classical_r1_bound=classical, classical_holds=holds)


def et_terms_to_csv(report: ETReport, path):
    r = len(report.sum_terms[0][0]) if report.sum_terms else 0
    with open(path, "w") as fh:
        fh.write(",".join(f"A{i + 1}" for i in range(r)) + ",abs_sum\n")
        for A, s in report.sum_terms:
            fh.write(",".join(str(a) for a in A) + f",{s!r}\n")


# -- sieve double sums -----------------------------------------------------------------


@dataclass(frozen=True)
class SieveSpec:
    F: IntPolynomial     # variables (y, x1..xn), monic in y, deg_y >= 2
    p: int
    q: int
    u_bound: int

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("need two distinct primes")
        degy = max((e[0] for e in self.F.terms), default=0)
        if degy < 2:
            raise ValueError("F must have y-degree >= 2")
        lead = {e: c for e, c in self.F.terms.items() if e[0] == degy}
        top = tuple([degy] + [0] * (self.F.nvars - 1))
        if lead != {top: 1}:
            raise ValueError("F must be monic in y")
        if self.u_bound < 0:
            raise ValueError("u_bound must be >= 0")

    @property
    def nvars(self) -> int:
        return self.F.nvars - 1


@dataclass
class SieveBucket:
    j: int
    k: int
    count: int
    total: float
    max_term: float
    reference: float  # C^2 p^{(n+j)/2} q^{(n+k)/2} at C = 1


@dataclass
class SieveResult:
    direct_total: float
    regrouped_total: float
    exact_match: bool
    buckets: list
    n_terms: int


def sieve_double_sum(spec: SieveSpec, chain: VarietyChain,
                     cap: int = DEFAULT_ENUM_CAP) -> SieveResult:
    """sum over |u|_inf <= u_bound of |S_F(qbar u mod p, p)| |S_F(pbar u mod q, q)|,
    plus the regrouping of the same terms by stratum pair.

    Both totals are math.fsum over the identical multiset of float terms, so
    the partition identity holds bit for bit.
    """
    n = spec.nvars
    if chain.ambient != n:
        raise ValueError("chain ambient dimension mismatch")
    side = 2 * spec.u_bound + 1
    if side ** n > cap:
        raise CapExceeded(f"u-box {side}^{n} exceeds cap {cap}")
    grid_p = S_F_grid(spec.F, spec.p)
    grid_q = S_F_grid(spec.F, spec.q)
    qbar = pow(spec.q, spec.p - 2, spec.p)
    pbar = pow(spec.p, spec.q - 2, spec.q)
    idx_p = chain.stratum_index_grid(spec.p)
    idx_q = chain.stratum_index_grid(spec.q)

    terms = []
    by_bucket: dict = {}
    for u in itertools.product(range(-spec.u_bound, spec.u_bound + 1), repeat=n):
        hp = tuple((qbar * ui) % spec.p for ui in u)
        hq = tuple((pbar * ui) % spec.q for ui in u)
        term = abs(grid_p.value_at(hp)) * abs(grid_q.value_at(hq))
        terms.append(term)
        key = (int(idx_p[hp]), int(idx_q[hq]))
        by_bucket.setdefault(key, []).append(term)

    direct_total = math.fsum(terms)
    grouped_stream = [t for key in sorted(by_bucket) for t in by_bucket[key]]
    regrouped_total = math.fsum(grouped_stream)
    buckets = []
    for (j, k), ts in sorted(by_bucket.items()):
        ref = spec.p ** ((n + j) / 2) * spec.q ** ((n + k) / 2)
        buckets.append(SieveBucket(j=j, k=k, count=len(ts),
                                   total=math.fsum(ts),
                                   max_term=max(ts), reference=ref))
    return SieveResult(direct_total=direct_total,
                       regrouped_total=regrouped_total,
                       exact_match=direct_total == regrouped_total,
                       buckets=buckets, n_terms=len(terms))


def sieve_buckets_to_csv(result: SieveResult, path):
    with open(path, "w") as fh:
        fh.write("j,k,count,total,max_term,reference\n")
        for b in result.buckets:
            fh.write(f"{b.j},{b.k},{b.count},{b.total!r},{b.max_term!r},"
                     f"{b.reference!r}\n")

"""Built-in sum families with known stratifications and expected exponents.

Each entry bundles: a grid builder (the sum family S(h) over all h at a
prime), the stratum chain (polynomial generators where practical, membership
masks otherwise), the constants (C, N, d) for the cascade bound
|S(h)| <= C p^{(d+i)/2}, and a table of expected doubled exponents per
stratum (the scale on which |S| ~ p^{e/2} plateaus).  Closed-form evaluators,
where a family has one, are built from Gauss sums so they stay independent
of the DFT engine they are checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import zeta_table
from .errors import DEFAULT_GRID_CAP, CapExceeded
from .ffield import FieldCtx, gauss_sum
from .polyring import AffineVariety, IntPolynomial, parse_poly
from .strat import (
    StratReport,
    VarietyChain,
    dual_points_mask,
    slack_bound,
    smoothness_check,
    stratum_index_from_masks,
    verify_kl_masks,
)
from .sumengine import (
    SumGrid,
    SumSpec,
    complete_grid,
    poly_values_grid,
    variety_mask,
)
from .sumengine import cyclo_dft  # noqa: F401  (bench/tests wrap catalog.cyclo_dft)


@dataclass
class CatalogEntry:
    name: str
    ambient: int
    d: int
    C: float
    N: int
    expected_two_exp: dict
    params: dict
    notes: str
    test_primes: tuple
    chain: VarietyChain | None = None
    mask_builder: object = None
    grid_builder: object = None
    closed_form: object = None
    flagged: str | None = None

    def masks(self, p: int):
        """The strata's masks over F_p: the entry's `mask_builder` when it
        has one (the chain then serves `--chain-out` and containment), else
        its chain's."""
        if self.mask_builder is not None:
            return self.mask_builder(p)
        return self.chain.masks(p)

    def grid(self, p: int) -> SumGrid:
        return self.grid_builder(p)

    def verify(self, p: int, grid: SumGrid | None = None) -> StratReport:
        if grid is None:
            grid = self.grid(p)
        return verify_kl_masks(grid.values, self.masks(p), p, self.C, self.d,
                               self.N)

    def check_expected(self, report: StratReport):
        """Per-stratum max |S| of a `verify` report against C * p^{e/2} from
        the expected table, through `slack_bound`; exact-zero strata carry
        e = -inf and must read at most 1e-9.  Returns (ok, rows), each row's
        bound without the slack."""
        rows = []
        for r in report.records:
            e = self.expected_two_exp.get(r.index)
            if e is None:
                bound, good = None, False
            elif e == float("-inf"):
                bound, good = 0.0, r.max_abs <= 1e-9
            else:
                scale = report.p ** (e / 2)
                bound, good = self.C * scale, r.max_abs <= slack_bound(self.C, scale)
            rows.append((r.index, r.max_abs, bound, good))
        return all(good for *_, good in rows), rows


# -- linear spaces ---------------------------------------------------------------


def _int_nullspace(rows: list, n: int) -> list:
    """Integer basis of {w : row . w = 0 for all rows}; fraction-free."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        ivec = [int(x * lcm) for x in vec]
        g = 0
        for x in ivec:
            g = math.gcd(g, x)
        basis.append([x // max(g, 1) for x in ivec])
    return basis


def _matrix_rank(rows: list, n: int) -> int:
    return n - len(_int_nullspace(rows, n))


def _int_det(rows: list) -> int:
    """Exact integer determinant by Laplace expansion (small matrices)."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _int_det(minor)
    return total


def _minor_gcd(rows: list, n: int) -> int:
    """gcd of all maximal minors: the basis drops rank mod p exactly when
    p divides every one of them."""
    k = len(rows)
    g = 0
    for cols in itertools.combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = math.gcd(g, abs(_int_det(sub)))
    return max(g, 1)


def linear_space(n: int, basis: list | None = None) -> CatalogEntry:
    """Sums of psi(h.x) over a codimension-2 linear subspace V = span(basis):
    exactly p^{n-2} on the dual space V-perp, exactly 0 elsewhere.  The chain
    repeats V-perp down to depth n-2 and is empty below; C = 1, and N
    collects the primes where the basis (or its complement) loses rank.
    The default basis is e_3, ..., e_n."""
    if basis is None:
        basis = [[int(i == j) for i in range(n)] for j in range(2, n)]
    elif np.ndim(basis) < 2:  # a flat list, as `catalog build --params` writes it
        flat = np.ravel(basis).tolist()
        if len(flat) % n:
            raise ValueError(f"a flat basis needs a multiple of n={n} entries, "
                             f"not {len(flat)}")
        basis = [flat[i:i + n] for i in range(0, len(flat), n)]
    basis = [list(b) for b in basis]
    if len(basis) != n - 2 or _matrix_rank(basis, n) != n - 2:
        raise ValueError(f"basis must span a {n - 2}-dimensional subspace")
    complement = _int_nullspace(basis, n)
    V = AffineVariety(n, [_linear_form(w, n) for w in complement],
                      claimed_dim=n - 2)
    dual = AffineVariety(n, [_linear_form(b, n) for b in basis], claimed_dim=2)
    chain = VarietyChain(
        n, [dual] * (n - 2) + [AffineVariety.empty(n)] * 2)
    spec = SumSpec(nvars=n, variety=V)
    expected = {0: float("-inf"), n - 2: 2 * (n - 2)}
    Nex = _minor_gcd(basis, n) * _minor_gcd(complement, n)

    def closed(p):
        mask = variety_mask(dual, p, n)
        return np.where(mask, float(p ** (n - 2)), 0.0).astype(np.complex128)

    return CatalogEntry(
        name="linear_space", ambient=n, d=n - 2, C=1.0, N=Nex,
        expected_two_exp=expected,
        params={"n": n, "basis": basis},
        notes="codimension-2 subspace; sums collapse to the dual plane",
        test_primes=(3, 5, 7, 11), chain=chain,
        grid_builder=lambda p: complete_grid(spec, p),
        closed_form=closed)


def _linear_form(coeffs, n) -> IntPolynomial:
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            exps = tuple(int(j == i) for j in range(n))
            terms[exps] = int(c)
    return IntPolynomial(n, terms)


# -- diagonal quadratic forms --------------------------------------------------------


def _dual_diagonal_form(a, v) -> IntPolynomial:
    """sum_i v_i^2 prod_{j != i} a_j over the variables v, the a_j integers
    or polynomials: vanishes exactly where sum v_i^2 / a_i does (p coprime
    to all a_j)."""
    n = len(v)
    return sum((v[i] ** 2 * math.prod(a[j] for j in range(n) if j != i) for i in range(n)),
               IntPolynomial.zero(v[0].nvars))


def _diagonal_form(coeffs) -> IntPolynomial:
    n = len(coeffs)
    return IntPolynomial(n, {tuple(2 * int(j == i) for j in range(n)): int(a)
                             for i, a in enumerate(coeffs)})


def _origin_variety(n: int) -> AffineVariety:
    return AffineVariety(n, [IntPolynomial.variable(i, n) for i in range(n)],
                         claimed_dim=0)


def _diagonal_strata(coeffs) -> list:
    """The parity-dependent chain of the quadric sum a_i x_i^2 = 0: the
    origin alone for odd n; the dual quadric, then the origin, for even n."""
    n = len(coeffs)
    origin = _origin_variety(n)
    if n % 2 == 1:
        return [origin] * (n - 1)
    v = [IntPolynomial.variable(i, n) for i in range(n)]
    dual = AffineVariety(n, [_dual_diagonal_form(coeffs, v)], claimed_dim=n - 1)
    return [dual] + [origin] * (n - 2)


def diagonal_quadratic(n: int, coeffs=None) -> CatalogEntry:
    """T(F, v; p) = sum over the quadric {sum a_i x_i^2 = 0} of psi(v.x).

    Chain depends on the parity of n: for odd n the only non-generic locus
    is the origin; for even n the dual quadric comes first.  The closed-form
    evaluator goes through quadratic Gauss sums (completing the square in
    each variable), independent of the DFT engine.
    """
    if coeffs is None:
        coeffs = [1] * n
    coeffs = [int(a) for a in coeffs]
    if len(coeffs) != n or any(a == 0 for a in coeffs):
        raise ValueError("need n nonzero diagonal coefficients")
    F = _diagonal_form(coeffs)
    if n % 2 == 1:
        expected = {0: n - 1, n - 1: 2 * (n - 1)}
    else:
        expected = {0: n - 2, 1: n, n - 1: 2 * (n - 1)}
    chain = VarietyChain(n, _diagonal_strata(coeffs), check_primes=(3,))
    spec = SumSpec(nvars=n, variety=AffineVariety(n, [F], claimed_dim=n - 1))
    Nex = 2
    for a in coeffs:
        Nex *= abs(a)

    def closed(p):
        if p == 2 or any(a % p == 0 for a in coeffs):
            raise ValueError("closed form needs p odd and coprime to coefficients")
        ctx = FieldCtx(p)
        tau = gauss_sum(ctx, 2, 1)
        chi = np.zeros(p)
        for a in range(1, p):
            chi[a] = 1.0 if pow(a, (p - 1) // 2, p) == 1 else -1.0
        prod_a = 1
        for a in coeffs:
            prod_a = (prod_a * a) % p
        # M[t] = sum_{a != 0} chi(a)^n psi(-t / (4a))
        zt = zeta_table(p)
        M = np.zeros(p, dtype=np.complex128)
        for a in range(1, p):
            inv4a = pow(4 * a, p - 2, p)
            signs = chi[a] ** (n % 2) if n % 2 else 1.0
            M += signs * zt[(-inv4a * np.arange(p)) % p]
        Q = poly_values_grid(
            _diagonal_form([pow(a % p, p - 2, p) for a in coeffs]), p)
        out = (tau ** n * chi[prod_a % p] / p) * M[Q]
        out[(0,) * n] += p ** (n - 1)
        return out

    return CatalogEntry(
        name="diagonal_quadratic", ambient=n, d=n - 1, C=2.0, N=Nex,
        expected_two_exp=expected,
        params={"n": n, "coeffs": coeffs},
        notes="full-rank diagonal quadric; parity-dependent strata, "
              "Gauss-sum closed form",
        test_primes=(5, 7, 11, 13), chain=chain,
        grid_builder=lambda p: complete_grid(spec, p),
        closed_form=closed)


# -- smooth homogeneous forms ----------------------------------------------------------


def smooth_form(F: IntPolynomial | str, max_ext: int = 2,
                smooth_primes: tuple = (5, 7),
                test_primes: tuple = (5, 7, 11, 13)) -> CatalogEntry:
    """Sums over the cone {F = 0} for a homogeneous F (or its text)
    cutting a smooth projective hypersurface.  The first stratum is the
    cone on the dual hypersurface, located by bounded search over small
    extensions; the origin sits below it.  Smoothness is screened at
    `smooth_primes` (brute force over small extensions); a failing screen
    flags the entry.
    """
    if isinstance(F, str):
        F = parse_poly(F)
    if not F.is_homogeneous():
        raise ValueError("F must be homogeneous")
    n = F.nvars
    flagged = None
    for p in smooth_primes:
        if F.degree() % p != 0 and not smoothness_check(F, p, max_ext=max_ext):
            flagged = f"singular projective point found at p={p}"
    spec = SumSpec(nvars=n, variety=AffineVariety(n, [F], claimed_dim=n - 1))
    test_primes = tuple(p for p in test_primes if F.degree() % p != 0)

    def masks(p):
        return [dual_points_mask(F, p, max_ext=max_ext),
                variety_mask(_origin_variety(n), p, n)]

    return CatalogEntry(
        name="smooth_form", ambient=n, d=n - 1, C=8.0, N=2 * F.degree(),
        expected_two_exp={0: n - 1, 1: n, 2: 2 * (n - 1)},
        params={"F": F},
        notes="smooth hypersurface cone; first stratum = dual-variety cone "
              "via bounded extension search",
        test_primes=test_primes, mask_builder=masks,
        grid_builder=lambda p: complete_grid(spec, p),
        flagged=flagged)


# -- products of quadric blocks -----------------------------------------------------


def quadric_blocks(n_blocks: int) -> CatalogEntry:
    """n disjoint 4-variable unit quadrics in A^{4n}: the sum factors over
    blocks, producing a chain of depth 3n-1 whose strata count how many
    block forms vanish at the parameter.  X_k for k < n counts >= k
    vanishing blocks; all deeper strata until the origin need every block."""
    n = n_blocks
    if n < 1:
        raise ValueError("need at least one block")
    ambient = 4 * n
    form = [tuple(2 * (i == k) for i in range(4)) for k in range(4)]  # x1^2 + .. + x4^2
    gens = [IntPolynomial(ambient, {(0,) * (4 * j) + e + (0,) * (ambient - 4 * j - 4): 1
                                    for e in form}) for j in range(n)]
    V = AffineVariety(ambient, gens, claimed_dim=3 * n)
    spec = SumSpec(nvars=ambient, variety=V)

    def masks(p):
        # the count of vanishing blocks, from the form's zero set on (p,)^4
        zero = variety_mask(AffineVariety(4, [IntPolynomial(4, dict.fromkeys(form, 1))]), p, 4)
        vanish = np.zeros((p,) * ambient, dtype=np.int8)
        for j in range(n):
            vanish += zero.reshape((1,) * (4 * j) + zero.shape + (1,) * (ambient - 4 * j - 4))
        return [vanish >= k for k in range(1, n)] + [vanish == n] * (2 * n - 1) \
            + [variety_mask(_origin_variety(ambient), p, ambient)]

    chain = None
    if n == 1:
        chain = VarietyChain(ambient, [AffineVariety(ambient, [gens[0]])]
                             + [_origin_variety(ambient)], check_primes=(3,))
    elif n == 2:
        prod = gens[0] * gens[1]
        both = AffineVariety(ambient, gens)
        chain = VarietyChain(
            ambient,
            [AffineVariety(ambient, [prod])] + [both] * 3
            + [_origin_variety(ambient)],
            check_primes=())

    expected = {k: 3 * n - 1 + k for k in range(n)}
    expected[3 * n - 2] = 4 * n - 1
    expected[3 * n - 1] = 2 * (3 * n - 1)

    return CatalogEntry(
        name="quadric_blocks", ambient=ambient, d=3 * n - 1, C=16.0, N=2,
        expected_two_exp=expected,
        params={"n_blocks": n},
        notes="product of unit 4-variable quadrics; per-stratum exponents "
              "follow the count of vanishing block forms",
        test_primes=(3, 5), chain=chain, mask_builder=masks,
        grid_builder=lambda p: complete_grid(spec, p))


# -- the quadratic family in parameters ------------------------------------------------


def _family_variety(n: int, nvars: int, x_off: int) -> AffineVariety:
    """The family's variety sum_i a_i x_i^2 = 0: a_i is variable i, x_i is x_off + i."""
    var = [IntPolynomial.variable(i, nvars) for i in range(nvars)]
    quadric = sum((var[i] * var[x_off + i] ** 2 for i in range(n)), IntPolynomial.zero(nvars))
    return AffineVariety(nvars, [quadric])


def _family_delta_ft_grid(n: int, p: int, cap: int = DEFAULT_GRID_CAP) -> SumGrid:
    """Exact Fourier grid of phi(a, b, x) = [sum_i a_i x_i^2 = 0] psi(-a.b)
    on A^{3n}, with dual coordinates (c, d, v)."""
    a = [IntPolynomial.variable(i, 3 * n) for i in range(n)]
    b = [IntPolynomial.variable(n + i, 3 * n) for i in range(n)]
    pairing = sum((a[i] * b[i] for i in range(n)), IntPolynomial.zero(3 * n))
    spec = SumSpec(nvars=3 * n, variety=_family_variety(n, 3 * n, 2 * n),
                   additive_phase=-pairing)
    return complete_grid(spec, p, cap=cap)


def family_identity_check(n: int, p: int):
    """Bit-exact check of FT(phi)(c, d, v) = p^n psi(d.c) T(F_d, v; p) over
    the full (c, d, v) grid, in cyclotomic counts.  Also verifies
    |FT(c, d, v)| = |FT(0, d, v)| for every c.  Returns (ok, mismatches),
    the mismatching (c, d, v) in lexicographic (d, v, c) order.

    The fibers T(F_d, v; p) come from one exact grid over (d, x) with d as
    family parameters (the d = 0 fiber sums over all of A^n).  Both sides
    are canonical (min count 0), and multiplying by psi(d.c) rotates the
    counts by d.c, so the check compares count arrays one residue
    r = d.c mod p at a time: the (c, d) rows with d.c = r against p^n times
    the fibers rolled by r."""
    grid = _family_delta_ft_grid(n, p)
    fibers = complete_grid(SumSpec(nvars=2 * n, variety=_family_variety(n, 2 * n, n)),
                           p, params=n).counts.reshape(p ** n, p ** n, p)
    cd = np.indices((p,) * (2 * n), dtype=np.int64)
    dc = sum(cd[i] * cd[n + i] for i in range(n)).reshape(p ** n, p ** n) % p
    counts = grid.counts.reshape(p ** n, p ** n, p ** n, p)
    bad = np.empty(counts.shape[:-1], dtype=bool)
    for r in range(p):
        ci, di = np.nonzero(dc == r)
        rhs = p ** n * np.roll(fibers, r, axis=-1)
        bad[ci, di] = (counts[ci, di] != rhs[di]).any(axis=-1)
    bad = bad.reshape((p,) * (3 * n))
    order = list(range(n, 3 * n)) + list(range(n))
    mismatches = [(tuple(dvc[2 * n:]), tuple(dvc[:n]), tuple(dvc[n:2 * n]))
                  for dvc in np.argwhere(bad.transpose(order)).tolist()]
    absvals = np.abs(grid.values)
    mod_ok = bool(np.max(np.abs(absvals - absvals[(0,) * n])) < 1e-9)
    return not mismatches and mod_ok, mismatches


def _family_masks(n: int, p: int):
    """Strata of the family grid in (c, d, v): c free, and for each
    zero-pattern K of d the slice {d_K = 0, v_K = 0} enters at a depth set
    by the parity of the surviving block; the loci v = 0 and d = v = 0 sit
    at depths n-1 and n+1.  Every piece has codimension at least its depth,
    and the chain is padded with empty strata up to index 3n-1."""
    var = [IntPolynomial.variable(i, 2 * n) for i in range(2 * n)]
    d, v = var[:n], var[n:]
    pieces = [(n + 1, d + v)]  # (max depth, generators over (d, v))
    if n >= 2:
        pieces.append((n - 1, v))
    for K in _subsets(n):
        supp = [i for i in range(n) if i not in K]
        if not supp:
            continue
        base = [g for i in K for g in (d[i], v[i])]
        even = len(supp) % 2 == 0
        if len(K) - even >= 1:
            pieces.append((len(K) - even, base))
        if even:
            dual = _dual_diagonal_form([d[i] for i in supp], [v[i] for i in supp])
            pieces.append((len(K) + 1, base + [dual]))
    grids = [(dep, variety_mask(AffineVariety(2 * n, gens), p, 2 * n))
             for dep, gens in pieces]
    masks = []
    for j in range(1, 3 * n):
        m = np.zeros((p,) * (2 * n), dtype=bool)
        for dep, grid in grids:
            if j <= dep:
                m |= grid
        masks.append(np.broadcast_to(m, (p,) * (3 * n)))
    return masks


def _subsets(n: int):
    items = list(range(n))
    for r in range(n + 1):
        yield from itertools.combinations(items, r)


def family_specialization_check(n: int, p: int):
    """stratum_index under the family chain sliced at d must equal the
    index under the fiber's diagonal-quadric chain, for every d with all
    coordinates nonzero; degenerate d are flagged, not asserted."""
    masks = _family_masks(n, p)
    dense_ok = True
    flagged = []
    for dvec in itertools.product(range(p), repeat=n):
        sliced = []
        for m in masks:
            sl = m[(0,) * n]  # c = 0 slice; strata do not involve c
            sliced.append(sl[dvec])
        got = stratum_index_from_masks(sliced, (p,) * n)
        want = stratum_index_from_masks(
            [variety_mask(V, p, n) for V in _diagonal_strata(dvec)], (p,) * n)
        match = np.array_equal(got, want)
        if all(x % p for x in dvec):
            dense_ok &= match
        elif not match:
            flagged.append(tuple(dvec))
    return dense_ok, flagged


def quadratic_family(n: int) -> CatalogEntry:
    """The diagonal-quadric family over its own coefficients: phi on A^{3n},
    whose Fourier grid collapses to p^n psi(d.c) T(F_d, v; p)."""
    expected = {j: 3 * n - 1 + j for j in range(n)}
    expected[n + 1] = 4 * n  # the whole-c line over d = v = 0
    return CatalogEntry(
        name="quadratic_family", ambient=3 * n, d=3 * n - 1, C=2.0, N=2,
        expected_two_exp=expected,
        params={"n": n},
        notes="coefficient-parameterized quadrics; family strata specialize "
              "to the per-fiber parity chains",
        test_primes=(3,),
        mask_builder=lambda p: _family_masks(n, p),
        grid_builder=lambda p: _family_delta_ft_grid(n, p))


# -- Burgess product sums --------------------------------------------------------------


def _check_burgess_cap(r: int, p: int):
    """Refuse a parameter grid F_p^{2r} above the grid cap before allocating."""
    if p ** (2 * r) > DEFAULT_GRID_CAP:
        raise CapExceeded(f"Burgess grid {p}^{2 * r} exceeds cap {DEFAULT_GRID_CAP}")


def burgess_sums(r: int, p: int, chi_order: int, chi_index: int = 1) -> np.ndarray:
    """B(a, b) = sum_x chi((x-a_1)...(x-a_r)) conj chi((x-b_1)...(x-b_r))
    over the full parameter grid F_p^{2r}."""
    _check_burgess_cap(r, p)
    ctx = FieldCtx(p)
    tab = ctx.mult_char_table(chi_order, chi_index)
    a = [IntPolynomial.variable(i, r + 1) for i in range(r + 1)]
    prod = poly_values_grid(math.prod(a[r] - a[i] for i in range(r)), p)
    half = tab[prod]                      # shape (p,)*r + (p,), indexed by a, x
    flat = half.reshape(-1, p)
    out = flat @ flat.conj().T            # (p^r, p^r): sum over x
    return out.reshape((p,) * (2 * r))


def multiplicity_one_mask(r: int, p: int) -> np.ndarray:
    """True where some value occurs exactly once among (a_1..a_r, b_1..b_r):
    the locus where the square-root bound is asserted."""
    _check_burgess_cap(r, p)
    axes = np.ix_(*[np.arange(p)] * (2 * r))
    any_single = np.zeros((p,) * (2 * r), dtype=bool)
    for v in range(p):
        any_single |= sum((g == v).astype(np.int8) for g in axes) == 1
    return any_single


@dataclass
class BurgessReport:
    r: int
    p: int
    orders: list
    max_on_good: float
    bound: float
    violations: list
    witness: tuple
    witness_value: float
    passed: bool


def burgess_check(r: int, p: int, order_cap: int | None = None) -> BurgessReport:
    """Exhaustive check of |B| <= (2r-1) sqrt(p) off the excluded stratum,
    for the quadratic character and one character of each order dividing
    p - 1 (up to order_cap); plus a no-cancellation witness inside it."""
    if p <= 2 * r:
        raise ValueError("need p > 2r")
    excluded = [~multiplicity_one_mask(r, p)]
    bound = (2 * r - 1) * math.sqrt(p)
    orders = sorted({2} | {o for o in range(2, p) if (p - 1) % o == 0
                           and (order_cap is None or o <= order_cap)})
    witness = (0,) * (2 * r)
    violations = []
    max_good = 0.0
    for order in orders:
        vals = burgess_sums(r, p, order)
        if order == 2:
            wval = float(np.abs(vals[witness]))
        # stratum 0, the multiplicity-one locus, has every violation: the
        # excluded stratum's bound (2r-1) p is above the trivial |B| <= p - 1
        report = verify_kl_masks(vals, excluded, p, 2 * r - 1, 1)
        max_good = max(max_good, report.records[0].max_abs)
        violations += [(order, h) for h, _, _ in report.violations[:5]]
    passed = not violations and wval >= p - 1 - bound
    return BurgessReport(r=r, p=p, orders=orders, max_on_good=max_good,
                         bound=bound, violations=violations,
                         witness=witness, witness_value=wval, passed=passed)


def burgess_family(r: int) -> CatalogEntry:
    """Product character sums over F_p^{2r} parameters; the excluded stratum
    is the no-multiplicity-one locus where only the trivial bound holds."""
    if r < 1:
        raise ValueError("need r >= 1")

    def masks(p):
        return [~multiplicity_one_mask(r, p)]

    def grid(p):
        return SumGrid(p=p, n=2 * r, values=burgess_sums(r, p, 2))

    return CatalogEntry(
        name="burgess_family", ambient=2 * r, d=1, C=float(2 * r - 1), N=2,
        expected_two_exp={0: 1, 1: 2},
        params={"r": r},
        notes="Burgess-type product character sums; excluded stratum = "
              "no parameter value of multiplicity one",
        test_primes=(7, 11),
        mask_builder=masks, grid_builder=grid)


# -- registry ---------------------------------------------------------------------------


CATALOG = {  # name -> (builder, its parameters and their defaults)
    "linear_space": (linear_space, {"n": 3, "basis": None}),
    "diagonal_quadratic": (diagonal_quadratic, {"n": 3, "coeffs": None}),
    "smooth_form": (smooth_form, {"F": "x1^3 + x2^3 + x3^3"}),
    "quadric_blocks": (quadric_blocks, {"n_blocks": 1}),
    "quadratic_family": (quadratic_family, {"n": 1}),
    "burgess_family": (burgess_family, {"r": 1}),
}


def build_entry(name: str, params: dict | None = None) -> CatalogEntry:
    """The catalog entry `name`, its parameters the defaults updated by
    `params`; integer parameters are converted with int()."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(sorted(CATALOG))}")
    build, defaults = CATALOG[name]
    params = params or {}
    if unknown := sorted(set(params) - set(defaults)):
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)} for {name}; "
                         f"known: {', '.join(defaults)}")
    return build(**{k: int(v) if isinstance(defaults[k], int) else v
                    for k, v in {**defaults, **params}.items()})

"""Exact evaluation of exponential sums: point enumeration, single sums,
and complete parameter grids via multidimensional DFT over F_p^n.

Two independent evaluation paths are kept deliberately separate so each can
serve as the other's oracle:

* `eval_sum` enumerates points and accumulates character values: the
  scalar reference.  It evaluates each point once per (spec, field) into
  a cached point table (`_point_table`), and each call folds its h in
  through the coordinate traces.  The trace-window kernel in `spectral`
  (the `sum` command) and `trace_function_grid` build summands from one
  set of per-spec tables (`summand_tables`);
* `complete_grid` transforms the pointwise data over F_p^n, built by
  broadcasting (`trace_function_grid`), in place over the n point axes
  (`_point_transform`: a BLAS table product per axis below p = 107, else
  numpy's FFT): complex grids directly (`dft_grid`), exact grids through
  their values at the roots of unity zeta^s, rounded back to counts.  An
  exact grid is the product of its variable blocks' transforms; a grid
  that does not split, and every grid with `params=k` (k parameter axes
  left untransformed), is one block.  If all blocks are cones' fields, S(h)
  is an integer from one rounded transform per block (`_rational_grid`,
  off by about eps n p times the count mass, as in `cyclo_dft`).  One
  block without a scaling symmetry goes through a zeta-count field and
  `cyclo_dft`, the reference; every other exact grid takes one orbit path
  (`_orbit_spectrum`, `_diagonal_scaling` with lam = 1 on the parameter
  axes, `_orbit_points`), rounds one row per orbit and builds its count
  array only when `SumGrid.counts` is first read.

Purely additive sums are carried exactly as zeta_p-coefficient counts
(`CycloValue`), so identity checks are bit-exact rather than tolerance-based.
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .cyclo import CycloValue, zeta_table
from .errors import CapExceeded, DEFAULT_ENUM_CAP, DEFAULT_GRID_CAP, ParseError
from .ffield import FieldCtx, gauss_sum, orbit_minima
from .polyring import AffineVariety, IntPolynomial

_WEIGHT_KINDS = ("root_count", "kloosterman_phase", "kloosterman_value")
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class SumSpec:
    """Description of one exponential sum family.

    The summand over points x of the domain is

        weight(x) * chi(g(x)) * psi_m(f(x) + h.x) * q^(-half_twist/2)

    where the domain is the variety's points (all of A^n when variety is
    None), restricted to nonzero coordinates when torus is set.  The optional
    trace_weight replaces/augments the plain summand:

    * ("root_count", F): weight(x) = #{y : F(y, x) = 0}, F monic-ish in y;
    * ("kloosterman_phase", a): one variable, torus; phase f is replaced by
      x + a/x (the classical Kloosterman summand psi(x + a/x));
    * ("kloosterman_value",): one variable, torus; t(x) is the weight-zero
      normalized Kloosterman sum value -q^{-1/2} Kl(x), for mean-square
      experiments.
    """

    nvars: int
    variety: AffineVariety | None = None
    additive_phase: IntPolynomial | None = None
    mult_twist: tuple | None = None          # (g, chi_order, chi_index)
    linear_form: tuple | None = None
    trace_weight: tuple | None = None
    torus: bool = False
    half_twist: int = 0

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("nvars must be >= 0")
        if self.variety is not None and self.variety.nvars != self.nvars:
            raise ValueError("variety ambient dimension mismatch")
        if self.additive_phase is not None and self.additive_phase.nvars != self.nvars:
            raise ValueError("additive phase nvars mismatch")
        if self.mult_twist is not None:
            g = self.mult_twist[0]
            if g.nvars != self.nvars:
                raise ValueError("twist polynomial nvars mismatch")
        if self.linear_form is not None and len(self.linear_form) != self.nvars:
            raise ValueError("linear form length mismatch")
        if self.trace_weight is not None:
            kind = self.trace_weight[0]
            if kind not in _WEIGHT_KINDS:
                raise ValueError(f"unknown trace weight {kind!r}")
            if kind == "root_count":
                F = self.trace_weight[1]
                if F.nvars != self.nvars + 1:
                    raise ValueError("root-count polynomial needs nvars+1 variables (y first)")
            else:
                if self.nvars != 1:
                    raise ValueError("Kloosterman weights are 1-variable")
                object.__setattr__(self, "torus", True)

    def is_exact(self) -> bool:
        """True when the sum lands in Z[zeta_p] exactly."""
        if self.mult_twist is not None or self.half_twist:
            return False
        return self.trace_weight is None or \
            self.trace_weight[0] in ("root_count", "kloosterman_phase")


@dataclass
class SumValue:
    """Result of a single sum: exact cyclotomic payload when available,
    complex rendering always, plus bookkeeping flags."""

    value: complex
    cyclo: CycloValue | None
    n_points: int
    twist_zeros: int = 0

    def __abs__(self):
        return abs(self.value)


# -- grid-level polynomial evaluation (base field) ---------------------------


def poly_values_grid(f: IntPolynomial, p: int, side: int | None = None) -> np.ndarray:
    """f mod p over the box [0, side)^n of F_p^n (side defaults to p, the
    full grid), shape (side,)*n, int64.  Each term is a broadcast product of
    per-axis power tables of shape (1,..,side,..,1).

    Reduction mod p is lazy: a term in k variables is below p^(k+1) before
    reduction, and Python-int bounds on each term and on the running sum
    reduce either only before it could pass 2^63.  On a grid within the
    cap (p^n <= 2^26, so p^(k+1) <= 2^52) and with fewer than 2^11 terms,
    that is once, at the end."""
    n = f.nvars
    side = p if side is None else side
    tables = {}  # exponent -> x^e mod p for x in [0, side)
    out = np.zeros((side,) * n, dtype=np.int64)
    total = 0  # bound on out
    for exps, coeff in f.terms.items():
        term, bound = np.int64(coeff % p), p
        for i, e in enumerate(exps):
            if e:
                if e not in tables:
                    tables[e] = np.array([pow(x, e, p) for x in range(side)],
                                         dtype=np.int64)
                if bound * p > _INT64_LIMIT:
                    term, bound = term % p, p
                axis = [1] * n
                axis[i] = side
                term = term * tables[e].reshape(axis)
                bound *= p
        if total + bound > _INT64_LIMIT:
            out %= p
            total = p
        out += term
        total += bound
    out %= p
    return out


def variety_mask(V: AffineVariety | None, p: int, nvars: int) -> np.ndarray:
    """Boolean grid of F_p-points of V (all True for the full space).  Each
    generator is evaluated on the (p,)^k grid of its k variables and ANDed
    in by broadcasting; the mask spans (p,)*nvars only at the end."""
    mask = np.ones((1,) * nvars, dtype=bool)
    for g in V.generators if V is not None else ():
        support = sorted(_support(g.terms))
        zero = poly_values_grid(_restrict(g.terms.items(), support), p) == 0
        mask = mask & zero.reshape([p if i in support else 1 for i in range(nvars)])
    return np.broadcast_to(mask, (p,) * nvars).copy()


def r_F(F: IntPolynomial, x, ctx: FieldCtx) -> int:
    """Number of roots y in the context field of F(y, x) = 0."""
    if len(x) != F.nvars - 1:
        raise ValueError("point dimension mismatch")
    count = 0
    for y in ctx.elements():
        if F.eval_mod([y, *x]).is_zero():
            count += 1
    return count


# -- point enumeration ---------------------------------------------------------


def enumerate_points(V: AffineVariety | None, ctx: FieldCtx, nvars: int | None = None,
                     torus: bool = False, cap: int = DEFAULT_ENUM_CAP):
    """Yield the points of V over the context field, each exactly once."""
    if V is not None:
        nvars = V.nvars
    if nvars is None:
        raise ValueError("need nvars when no variety is given")
    total = ctx.q ** nvars
    if total > cap:
        raise CapExceeded(f"enumeration of {ctx.q}^{nvars} points exceeds cap {cap}")
    elems = list(ctx.elements())
    if torus:
        elems = [e for e in elems if not e.is_zero()]
    for point in itertools.product(elems, repeat=nvars):
        if V is None or V.contains(list(point), ctx):
            yield list(point)


def count_points(V: AffineVariety | None, ctx: FieldCtx, nvars: int | None = None,
                 torus: bool = False, cap: int = DEFAULT_ENUM_CAP) -> int:
    return sum(1 for _ in enumerate_points(V, ctx, nvars, torus, cap))


# -- single-sum evaluation (enumeration path) -----------------------------------


def _kloosterman_raw_table(ctx: FieldCtx) -> np.ndarray:
    """Kl(x) = sum_u psi(u + x/u) for every rank, via cyclic convolution of
    psi over generator powers."""
    q, p = ctx.q, ctx.p
    tr = ctx.trace_table
    exp_ranks = ctx.exp_ranks
    f = zeta_table(p)[tr[exp_ranks]]            # psi(g^b), b = 0..q-2
    conv = np.fft.ifft(np.fft.fft(f) ** 2)      # sum_b f[b] f[a-b]
    out = np.zeros(q, dtype=np.complex128)
    out[exp_ranks] = conv
    out[0] = -1.0                                # Kl(0) = sum_{u!=0} psi(u)
    return out


@lru_cache(maxsize=1)
def _point_table(spec: SumSpec, ctx: FieldCtx, cap: int):
    """Everything of the summand that does not depend on h, once per domain
    point, by FieldElem enumeration: (idx, weight, tr, n_points,
    twist_zeros).

    * idx: the phase index Tr f(x), or Tr(x + a/x) for a Kloosterman phase;
    * weight: the root count, Kloosterman value and chi(g(x)) factors,
      int64 for an exact sum, complex128 otherwise;
    * tr: shape (points, nvars), the coordinate traces Tr(x_i) read from
      `ctx.trace_table`, so that Tr(h.x) = sum h_i Tr(x_i) for h in F_p^n.

    Points where the twist g vanishes are counted in twist_zeros and not
    stored.  The arrays retain 8 (nvars + 2) bytes per stored point (one
    more word with complex weights), read-only.  `eval_sum` keys the cache
    on the spec with its linear form removed; FieldCtx hashes by identity,
    so two models of one field never share a table."""
    p = ctx.p
    kind = spec.trace_weight[0] if spec.trace_weight else None
    chi_tab = None
    if spec.mult_twist is not None:
        g, order, index = spec.mult_twist
        if (ctx.q - 1) % order != 0:
            raise ValueError(f"character order {order} does not divide q-1")
        chi_tab = ctx.mult_char_table(order, index)
    kl_values = _kloosterman_raw_table(ctx) if kind == "kloosterman_value" else None
    complex_sum = kind == "kloosterman_value" or chi_tab is not None
    trace_of = ctx.trace_table.tolist()

    idx, tr = array("q"), array("q")
    weight = array("d" if complex_sum else "q")  # complex: (re, im) pairs
    n_points = twist_zeros = 0
    for point in enumerate_points(spec.variety, ctx, spec.nvars, spec.torus, cap):
        n_points += 1
        if kind == "kloosterman_phase":
            x = point[0]
            val = x + ctx.elem(spec.trace_weight[1] % p) * x.inverse()
            i = ctx.trace_to_base(val)
            w = 1
        else:
            i = 0
            if spec.additive_phase is not None:
                i = ctx.trace_to_base(spec.additive_phase.eval_mod(point, ctx))
            w = 1
            if kind == "root_count":
                w = r_F(spec.trace_weight[1], point, ctx)
        if kind == "kloosterman_value":
            w = -kl_values[point[0].rank] / np.sqrt(ctx.q)
        if chi_tab is not None:  # chi applies after the summand
            gval = g.eval_mod(point, ctx)
            if gval.is_zero():
                twist_zeros += 1
                continue
            w = w * chi_tab[gval.rank]
        idx.append(i)
        if complex_sum:
            w = complex(w)
            weight.extend((w.real, w.imag))
        else:
            weight.append(w)
        tr.extend(trace_of[x.rank] for x in point)

    idx = np.frombuffer(idx, dtype=np.int64)
    weight = np.frombuffer(weight, dtype=np.complex128 if complex_sum else np.int64)
    tr = np.frombuffer(tr, dtype=np.int64).reshape(len(idx), spec.nvars)
    for a in (idx, weight, tr):
        a.flags.writeable = False
    return idx, weight, tr, n_points, twist_zeros


def eval_sum(spec: SumSpec, ctx: FieldCtx, h=None,
             cap: int = DEFAULT_ENUM_CAP) -> SumValue:
    """Exact sum over the spec's domain by direct point enumeration.

    The enumeration runs once per (spec, field model, cap) into
    `_point_table`; each call then folds its h in as the phase shift
    sum h_i Tr(x_i), since the trace is F_p-linear."""
    p = ctx.p
    if h is None:
        h = spec.linear_form
    if h is not None and len(h) != spec.nvars:
        raise ValueError("linear form length mismatch")
    if spec.linear_form is not None:
        spec = replace(spec, linear_form=None)
    idx, weight, tr, n_points, twist_zeros = _point_table(spec, ctx, cap)

    if h is not None:
        hv = np.array([hi % p for hi in h], dtype=np.int64)
        if hv.any():
            idx = (idx + tr @ hv) % p
    if weight.dtype == np.complex128:
        value, cyc = complex(np.dot(weight, zeta_table(p)[idx])), None
    else:
        # bincount sums the weights in float64, exact while the total
        # weight (at most q^(n+1), for root counts) stays below 2^53
        counts = np.bincount(idx, weights=weight, minlength=p)
        cyc = CycloValue(p, counts.astype(np.int64))
        value = cyc.to_complex()
    if spec.half_twist:
        value = value / ctx.q ** (spec.half_twist / 2)
        cyc = None
    return SumValue(value=value, cyclo=cyc, n_points=n_points,
                    twist_zeros=twist_zeros)


# -- complete grids (DFT path) ---------------------------------------------------


def dft_grid(values: np.ndarray, p: int, sign: int = 1) -> np.ndarray:
    """out[h] = sum_x values[x] e(sign * h.x / p) over the (p,)*n grid: one
    complex copy of values, transformed in place (`_point_transform`)."""
    out = np.array(values, dtype=np.complex128)
    _point_transform(out, p, sign)
    return out


_BLOCK = 1 << 16  # cells per block: zeta cells (rows x p), or field cells
_GEMM_BELOW = 107  # the table product below this prime, numpy's FFT from it on


def _point_transform(field: np.ndarray, p: int, sign: int, params: int = 0):
    """Transform a C-contiguous complex field over (p,)*n in place over its
    last n - params axes, last axis first, to sum_x field[x] e(sign h.x/p):
    numpy's FFT (as `ifftn`/`fftn`) from p = _GEMM_BELOW on; below it, where
    that is slower, a BLAS product with the table zeta^(sign j k) on blocks
    of about _BLOCK cells of the field viewed as (A, p, B), each written
    back before the next.  Either errs by about eps p sum|field| per axis."""
    if p >= _GEMM_BELOW:
        fft, norm = (np.fft.ifft, "forward") if sign == 1 else (np.fft.fft, "backward")
        for axis in reversed(range(params, field.ndim)):
            fft(field, axis=axis, norm=norm, out=field)
        return
    table = zeta_table(p)[np.outer(np.arange(p), np.arange(p)) * sign % p]
    for axis in reversed(range(params, field.ndim)):
        view = field.reshape(p ** axis, p, -1)  # (A, p, B)
        width, step, cols = view.shape[2], max(1, _BLOCK // view[0].size), max(1, _BLOCK // p)
        for lo, c in itertools.product(range(0, len(view), step), range(0, width, cols)):
            block = view[lo:lo + step, :, c:c + cols]
            if width == 1:  # the last axis: rows @ table
                block[..., 0] = block[..., 0] @ table
            else:
                block[...] = table @ block


def _row_blocks(rows: int, p: int):
    """Bounds (lo, hi) of consecutive blocks of about _BLOCK // p rows.  No
    block is a single row: numpy renders a one-row block by a dot product
    rather than a matrix-vector product, which rounds differently."""
    step = max(2, _BLOCK // p)
    lo = 0
    while lo < rows:
        hi = rows if rows - lo <= step + 1 else lo + step
        yield lo, hi
        lo = hi


def _render(counts: np.ndarray, p: int) -> np.ndarray:
    """values[h] = sum_j counts[h, j] zeta^j, one row block at a time, so
    that no complex copy of the whole count field is made; bit-equal to a
    whole-array tensordot."""
    rows, zeta = counts.reshape(-1, p), zeta_table(p)
    values = np.empty(len(rows), dtype=np.complex128)
    for lo, hi in _row_blocks(len(rows), p):
        np.matmul(rows[lo:hi], zeta, out=values[lo:hi])
    return values.reshape(counts.shape[:-1])


def _scaled_index(scale: np.ndarray, p: int) -> np.ndarray:
    """Flat index of (scale_i h_i mod p), one multiplier per axis, for every
    h in row-major (p,)*n order."""
    idx = np.zeros(1, dtype=np.int64)
    for c in scale.tolist():
        idx = (idx[:, None] * p + c * np.arange(p) % p).ravel()
    return idx


def cyclo_dft(counts: np.ndarray, p: int, sign: int = 1, params: int = 0) -> np.ndarray:
    """Exact transform of a zeta-coefficient field: counts has shape
    (p,)*n + (p,), the trailing axis indexing zeta powers, and
    out[h, j] = sum_x counts[x, (j - sign h.x) mod p], int64.  With
    params = k the first k point axes are family parameters a, not
    transformed: out[a, h, j] = sum_x counts[a, x, (j - sign h.x) mod p]
    over the last n - k axes, the transform of each fiber.

    Each row is an element of Z[X]/(X^p - 1), so its values at all p-th
    roots of unity fix it, and integer rows need only s <= p//2.  This is
    `_orbit_spectrum` on the trivial orbit (g, t) = (1, 1), every slot its
    own representative:

    * each row's values at zeta^s, 1 <= s <= p//2, are the row times the
      (p x p//2) table zeta^(t s), one product per row block of about
      _BLOCK zeta cells; zeta^0, each fiber's total count, is not stored;
    * each slot is transformed in place over the last n - k point axes
      (`_point_transform`) and read at (s sign h) mod p;
    * the coefficients come back as the conjugate table zeta^(-j s) with
      weight 2/p (1/p at s = p/2, so for p = 2), plus each row's own fiber
      total/p, rounded block by block into the int64 output
      (`_round_counts`).

    Rounding is exact: every output coefficient is a sum of input counts,
    and the float error of the zeta tables and the point transform is
    about eps (p + n p) times the count mass sum|counts| of its fiber (no
    fiber's arithmetic touches another's).  In `complete_grid` that mass
    is at most p^(n+1) <= cap (one weight per point, a root count of at
    most p): below 2.5e-4 at the 2^26 cap, and np.rint recovers the
    integers.  Every spectrum `_orbit_spectrum` builds has this bound:
    each value is a gathered or conjugated value of one transform of a field
    weight zeta^(r idx) of the same count mass.  A rounding residual above
    1e-3 raises AssertionError rather than returning wrong counts.

    The forward products read every row before the first output row is
    written, so the output is rounded straight into the input's buffer: a
    C-contiguous int64 `counts` is overwritten and returned (reshaped), and
    the transform holds two count-sized arrays, not three.  Other inputs
    are copied to int64 first."""
    rows = np.ascontiguousarray(counts, dtype=np.int64).reshape(-1, p)
    fwd = _zeta_powers(p)

    def fill(fields, reps):  # reps: every slot
        flat = fields.reshape(p // 2, -1)
        for lo, hi in _row_blocks(len(rows), p):
            flat[:, lo:hi] = (rows[lo:hi] @ fwd).view(np.complex128).T

    spectrum = _orbit_spectrum(fill, (1, 1), p, counts.ndim - 1, sign, params)
    totals = rows.reshape(p ** params, -1).sum(axis=1)
    _round_counts(spectrum, np.repeat(totals, len(rows) // len(totals)), p, rows)
    return rows.reshape(counts.shape)


def _zeta_powers(p: int) -> np.ndarray:
    """zeta^(t s) for t < p, 1 <= s <= p//2 as float pairs, (p, 2 (p//2))."""
    st = np.outer(np.arange(p), np.arange(1, p // 2 + 1))
    return np.ascontiguousarray(zeta_table(p)[st % p]).view(np.float64)


def _scaling(weight: np.ndarray, idx: np.ndarray, p: int, params: int = 0):
    """(g, t) with weight(g x) = weight(x) and idx(g x) = t idx(x) mod p
    where weight(x) != 0, g scaling the last n - params axes; or None.
    Phase-free (idx in [0, p) is 0 where weight != 0): (1, generator); else
    g is the generator and t, read off one point, is checked at every one."""
    gen, n = FieldCtx(p).generator.rank, idx.ndim
    weight, idx = weight.reshape(-1), idx.reshape(-1)
    live = weight != 0
    phased = live & (idx != 0)
    at = int(np.argmax(phased))
    if not phased[at]:
        return 1, gen
    scaled = _scaled_index(np.where(np.arange(n) < params, 1, gen), p)
    idx_g = idx[scaled]
    t = int(idx_g[at]) * pow(int(idx[at]), -1, p) % p
    if not np.array_equal(weight[scaled], weight) or \
            (live & (idx_g != (t * np.arange(p) % p)[idx])).any():
        return None
    return gen, t


def _lookup(weight: np.ndarray, idx: np.ndarray, p: int):
    """The `_orbit_spectrum` fill of the field weight[x] at zeta^idx[x]:
    the k-th representative r gets weight zeta^(r idx) by table lookup."""
    def fill(fields, reps):
        for k, r in enumerate(reps):  # a view of the field, also when it is 0-dimensional
            np.multiply(zeta_table(p)[r * idx % p], weight, out=fields[k, ...])
    return fill


def _orbit_spectrum(fill, scaling, p: int, n: int, sign: int, params: int = 0,
                    at: np.ndarray | None = None) -> np.ndarray:
    """The permuted half-spectrum of a field over (p,)*n: row s - 1 holds
    its transform at zeta^s over the last n - params axes, read at
    (s sign h) mod p, as in `cyclo_dft`, at the points of flat index `at`,
    shape (p//2, len(at)), or (the trivial orbit only) in place at every
    h, shape (p//2, p^n).

    With F_u the transform of the field at zeta^u, a scaling (g, t) of
    the points (`_scaling`) gives F_u(k) = F_r(g^m k) for u = r t^(-m),
    and F_(p-u)(k) = conj(F_u(-k)).  fill(fields, reps) writes the field
    at zeta^r into fields[k] for each orbit's representative r <= p//2,
    the k-th; each is transformed in place at sign +1 (`_point_transform`),
    and the orbit's slots s = u or p - u (conjugated) read it at g^m u sign
    h = lam^m r sign h mod p, lam = g t^(-1).  On the trivial orbit (1, 1)
    every slot is its own representative."""
    (g, t), half = scaling, p // 2
    seen, orbits = set(), {}  # representative r -> its (slot, conj), m = 0, 1, ...
    for r in range(1, half + 1):
        if r in seen:
            continue
        orbit = orbits[r] = []
        for m in range(p - 1):  # u = r t^(-m) until its slot repeats
            u = r * pow(t, -m, p) % p
            if (slot := min(u, p - u)) in seen:
                break
            seen.add(slot)
            orbit.append((slot, u > half))
    reps = list(orbits)
    fields = np.empty((len(reps),) + (p,) * n, dtype=np.complex128)
    fill(fields, reps)
    for field in fields:
        _point_transform(field, p, 1, params)
    flat = fields.reshape(len(reps), -1)
    out = flat if at is None else np.empty((half, len(at)), dtype=np.complex128)
    transformed = np.arange(n) >= params
    step = _scaled_index(np.where(transformed, g * pow(t, -1, p) % p, 1), p)
    for field, (r, orbit) in zip(flat, orbits.items()):
        idx = _scaled_index(np.where(transformed, r * sign % p, 1), p)
        idx = idx if at is None else idx[at]
        for m, (slot, conj) in enumerate(orbit):
            idx = step[idx] if m else idx
            out[slot - 1] = field[idx]
            if conj:
                np.conjugate(out[slot - 1], out=out[slot - 1])
    return out


def _round_counts(flat: np.ndarray, totals: np.ndarray, p: int, rows: np.ndarray):
    """The rest of `cyclo_dft`: a spectrum `flat` (p//2, m), any strides,
    and each row's fiber total count to int64 counts in rows (m, p)."""
    # Re(g conj(z)) = g.re z.re + g.im z.im, weight 2/p (1/p at s = p/2)
    back = _zeta_powers(p).T * ((1.0 if p == 2 else 2.0) / p)
    for lo, hi in _row_blocks(len(rows), p):
        coef = np.ascontiguousarray(flat[:, lo:hi].T).view(np.float64) @ back
        coef += (totals[lo:hi] / p)[:, None]
        exact = np.rint(coef)
        coef -= exact
        residual = float(np.abs(coef).max())
        if residual > 1e-3:
            raise AssertionError(f"cyclo_dft rounding residual {residual:.3g} "
                                 "exceeds 1e-3")
        rows[lo:hi] = exact


def _diagonal_scaling(blocks: list[list[int]], scalings: list, p: int, n: int):
    """(lam, t), one multiplier per axis, with counts(lam h)[j] =
    counts(h)[t j mod p], from a scaling (g_k, t_k) of each block's field
    (`_scaling`, (1, 1) for none): with t_k = gen^d_k, 1 <= d_k <= p - 1,
    and L = lcm(d_k), t = gen^L and lam = g_k^(L/d_k) t^(-1) on the axes
    of block k, 1 on axes in no block (the parameter axes)."""
    gen = FieldCtx(p).generator.rank
    logs = [next(d for d in range(1, p) if pow(gen, d, p) == tk) for _, tk in scalings]
    L = math.lcm(*logs)
    t = pow(gen, L, p)
    lam = np.ones(n, dtype=np.int64)
    for block, (g, _), d in zip(blocks, scalings, logs):
        lam[block] = pow(g, L // d, p) * pow(t, -1, p) % p
    return lam, t


def _orbit_points(lam: np.ndarray, p: int) -> np.ndarray:
    """The flat row-major index of one point h per orbit of h -> lam h on
    (p,)*n.  Axis by axis, a point takes 0 or the least element of its
    coset under the powers lam^(e k) that fix the axes before it: e starts
    at 1 and grows by the order of lam_i^e past a nonzero axis i."""
    points = {1: np.zeros(1, dtype=np.int64)}  # e -> the points so far
    for c in lam.tolist():
        grown = {}
        for e, at in points.items():
            mins, sizes = orbit_minima(pow(c, e, p), p)
            order = int(sizes[-1])  # of c^e: the size of every nonzero orbit, p prime
            grown.setdefault(e, []).append(at * p)
            grown.setdefault(e * order, []).append(((at * p)[:, None] + mins[1:]).ravel())
        points = {e: np.concatenate(parts) for e, parts in grown.items()}
    return np.concatenate(list(points.values()))


def _orbit_rows(rep: np.ndarray, at: np.ndarray, lam: np.ndarray, t: int, p: int):
    """Yield (flat index of lam^(-b) h, rows counts(lam^(-b) h)[j] =
    rep[:, t^(-b) j mod p]) for the representatives h at `at`, b = 0, 1, ...
    until lam^(-b) = 1, which reaches every point; rep holds the rows of
    the last len(rep) of them.  The rows are rep itself at b = 0, then one
    buffer, overwritten by the next image."""
    lam_inv = np.array([pow(c, -1, p) for c in lam.tolist()], dtype=np.int64)
    step, scale, cols = _scaled_index(lam_inv, p), np.ones_like(lam), np.arange(p)
    rows, buf = rep, np.empty_like(rep)
    while True:
        yield at, rows
        scale = scale * lam_inv % p
        if (scale == 1).all():
            return
        at, cols = step[at], cols * pow(t, -1, p) % p
        # unlike the default mode, "clip" does not buffer the output
        rows = np.take(rep, cols, axis=1, out=buf, mode="clip")


class SumGrid:
    """Values of a sum family over all h in F_p^n.  When the family is purely
    additive, `counts` holds the exact cyclotomic payload and `values` is its
    complex rendering.  `counts` may be given as a function that builds the
    array on its first read (an orbit grid's, from `complete_grid`)."""

    def __init__(self, p: int, n: int, values: np.ndarray, counts=None):
        self.p, self.n, self.values, self._counts = p, n, values, counts

    @property
    def counts(self) -> np.ndarray | None:
        if callable(self._counts):
            self._counts = self._counts()
        return self._counts

    def value_at(self, h) -> complex:
        return complex(self.values[tuple(hi % self.p for hi in h)])

    def cyclo_at(self, h) -> CycloValue | None:
        if self.counts is None:
            return None
        return CycloValue(self.p, self.counts[tuple(hi % self.p for hi in h)])

    def abs_values(self) -> np.ndarray:
        return np.abs(self.values)

    def to_csv(self, path):
        cols = [f"h{i + 1}" for i in range(self.n)] + ["re", "im", "abs"]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for idx in np.ndindex(*self.values.shape):
                v = complex(self.values[idx])
                row = [str(i) for i in idx] + [repr(v.real), repr(v.imag), repr(abs(v))]
                fh.write(",".join(row) + "\n")

    _MAGIC = b"SGRD"

    def to_binary(self, path):
        """Compact dump: magic, p, n, value kind (0 complex128, 1 int64
        zeta-counts), then row-major values."""
        kind = 1 if self.counts is not None else 0
        with open(path, "wb") as fh:
            fh.write(self._MAGIC)
            fh.write(struct.pack("<IIB", self.p, self.n, kind))
            if kind:
                fh.write(np.ascontiguousarray(self.counts, dtype=np.int64).tobytes())
            else:
                fh.write(np.ascontiguousarray(self.values, dtype=np.complex128).tobytes())

    @classmethod
    def from_binary(cls, path) -> "SumGrid":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != cls._MAGIC:
                raise ParseError(f"bad grid magic {magic!r}")
            header = fh.read(9)
            if len(header) < 9:
                raise ParseError("grid header ends early")
            p, n, kind = struct.unpack("<IIB", header)
            if kind not in (0, 1):
                raise ParseError(f"unknown grid kind {kind}")
            payload = np.fromfile(fh, dtype=np.int64 if kind else np.complex128)
            if fh.read(1):
                raise ParseError("grid payload ends in a partial value")
        dims = n + (1 if kind else 0)  # p^dims values; p >= 2 bounds dims by the size
        if dims > payload.size.bit_length() or payload.size != p ** dims:
            raise ParseError(f"grid payload holds {payload.size} values, not {p}^{dims}")
        if kind:
            counts = payload.reshape((p,) * n + (p,))
            return cls(p=p, n=n, values=_render(counts, p), counts=counts)
        return cls(p=p, n=n, values=payload.reshape((p,) * n))

    @classmethod
    def from_csv(cls, path) -> "SumGrid":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            n = len(header) - 3
            rows = [line.strip().split(",") for line in fh if line.strip()]
        p = max(int(r[0]) for r in rows) + 1 if n else 1
        values = np.zeros((p,) * n, dtype=np.complex128)
        for r in rows:
            idx = tuple(int(c) for c in r[:n])
            values[idx] = complex(float(r[n]), float(r[n + 1]))
        return cls(p=p, n=n, values=values)


def summand_tables(spec: SumSpec, ctx: FieldCtx, W: np.ndarray):
    """The per-spec tables that the F_q kernel and the base-field grid both
    read, W[k] being the trace window of g^k (g^k itself at m = 1):
    phase_poly, the phase (x + a/x = x + a x^(q-2) for a Kloosterman phase)
    plus the linear form; chi_by_key, chi by key sum_j W_j p^j (x at m = 1),
    0 at key 0; kl, -Kl(g^k)/sqrt(q) = -(f*f)[k]/sqrt(q).  None if unused."""
    p, q, n = ctx.p, ctx.q, spec.nvars
    kind = spec.trace_weight[0] if spec.trace_weight else None
    phase_poly = spec.additive_phase or IntPolynomial.zero(n)
    if kind == "kloosterman_phase":
        phase_poly = IntPolynomial(1, {(1,): 1}) \
            + IntPolynomial(1, {(q - 2,): spec.trace_weight[1]})
    for i, hi in enumerate(spec.linear_form or ()):
        phase_poly = phase_poly + IntPolynomial.variable(i, n) * int(hi)
    chi_by_key = kl = None
    if spec.mult_twist is not None:
        _, order, index = spec.mult_twist
        if (q - 1) % order != 0:
            raise ValueError(f"character order {order} does not divide q-1")
        ang = 2 * np.pi * ((index * np.arange(q - 1)) % order) / order
        chi_by_key = np.zeros(q, dtype=np.complex128)
        chi_by_key[W @ p ** np.arange(W.shape[1], dtype=np.int64)] = np.exp(1j * ang)
    if kind == "kloosterman_value":
        f = zeta_table(p)[W[:, 0]]
        kl = -np.fft.ifft(np.fft.fft(f) ** 2) / np.sqrt(q)
    return phase_poly, chi_by_key, kl


def trace_function_grid(spec: SumSpec, p: int):
    """Pointwise summand data over F_p^nvars of a base-field spec, broadcast
    over the (p,)^n grid from `summand_tables`, `poly_values_grid` and
    `variety_mask`; a root count adds up F(y, x) = sum_j y^j F_j(x) = 0 one
    y at a time.  ("exact", weight, idx), integer weights and phase indices
    both 0 off the domain and at the twist zeros, or ("complex", values)."""
    n, ctx = spec.nvars, FieldCtx(p)
    phase_poly, chi_by_key, kl = summand_tables(spec, ctx, ctx.exp_ranks[:, None])
    idx = poly_values_grid(phase_poly, p)
    live = variety_mask(spec.variety, p, n)
    for axis in range(n) if spec.torus else ():
        np.moveaxis(live, axis, 0)[0] = False
    if chi_by_key is not None:
        chi = chi_by_key[poly_values_grid(spec.mult_twist[0], p)]
        live &= chi != 0
    weight = live.astype(np.int64 if spec.is_exact() else np.complex128)
    if spec.trace_weight and spec.trace_weight[0] == "root_count":
        terms, xs = spec.trace_weight[1].terms.items(), range(1, n + 1)
        F_j = [(j, poly_values_grid(_restrict([t for t in terms if t[0][0] == j], xs), p))
               for j in {e[0] for e, _ in terms}]
        weight *= sum(sum(pow(y, j, p) * grid for j, grid in F_j) % p == 0 for y in range(p))
    if kl is not None:
        weight[ctx.exp_ranks] *= kl
    if chi_by_key is not None:
        weight *= chi
        del chi  # not held through the value product below
    idx[~live] = 0
    weight[~live] = 0
    if spec.is_exact():
        return "exact", weight, idx
    # the operand order and the form of this expression fix the golden
    # bits, and a rewrite must keep both: w * z and z * w can differ in the
    # last bit, and above 256 KiB numpy's temporary elision computes the
    # product in the gathered temporary, which swaps the operands
    values = weight * zeta_table(p)[idx]
    if spec.half_twist:
        values /= p ** (spec.half_twist / 2)
    return "complex", values


def _support(monomials) -> set:
    """The variables that occur in the given exponent tuples."""
    return {i for e in monomials for i, k in enumerate(e) if k}


def _restrict(terms, block) -> IntPolynomial:
    """The polynomial of the (exponents, coefficient) terms in the variables
    of `block` only."""
    return IntPolynomial(len(block), {tuple(e[i] for i in block): c
                                      for e, c in terms})


def _var_blocks(spec: SumSpec) -> list[list[int]]:
    """The variable blocks over which the sum factors, ordered by first
    variable.  Variables share a block when they share a phase monomial, a
    variety generator or the twist polynomial g; a trace weight joins all."""
    n = spec.nvars
    polys = list(spec.variety.generators) if spec.variety is not None else []
    polys += [spec.mult_twist[0]] if spec.mult_twist is not None else []
    links = [_support(f.terms) for f in polys]
    links += [set(range(n))] if spec.trace_weight is not None else []
    if spec.additive_phase is not None:
        links += [_support([e]) for e in spec.additive_phase.terms]
    label = list(range(n))  # label[i]: the least variable in i's block so far
    for link in links:
        joined = {label[i] for i in link}
        label = [min(joined) if b in joined else b for b in label]
    return [[i for i in range(n) if label[i] == b] for b in sorted(set(label))]


def _block_spec(spec: SumSpec, block: list[int], first: bool) -> SumSpec:
    """The factor of an exact spec without trace weight on one `_var_blocks`
    block, in the block's variables.  Phase terms and generators with no
    variable go to the first block; torus applies to every block."""
    def mine(monomials):
        support = _support(monomials)
        return support <= set(block) and (first or bool(support))

    gens = spec.variety.generators if spec.variety is not None else ()
    gens = [_restrict(g.terms.items(), block) for g in gens if mine(g.terms)]
    phase = spec.additive_phase.terms if spec.additive_phase is not None else {}
    return SumSpec(nvars=len(block), torus=spec.torus,
                   variety=AffineVariety(len(block), gens) if gens else None,
                   additive_phase=_restrict(((e, c) for e, c in phase.items()
                                             if mine([e])), block))


def _count_field(weight: np.ndarray, idx: np.ndarray, p: int) -> np.ndarray:
    """The zeta-count field with weight[x] at zeta power idx[x]."""
    counts = np.zeros(idx.shape + (p,), dtype=np.int64)
    np.put_along_axis(counts, idx[..., None], weight[..., None], axis=-1)
    return counts


def _is_cone(weight: np.ndarray, idx: np.ndarray, p: int, params: int = 0) -> bool:
    """A cone's field: phase-free, weight(g x) = weight(x) for the generator g
    on the last n - params axes; each S(h) is then Galois-fixed: an integer."""
    gen = FieldCtx(p).generator.rank
    scaled = [np.arange(p) * (gen if axis >= params else 1) % p for axis in range(idx.ndim)]
    return not ((idx != 0) & (weight != 0)).any() and \
        np.array_equal(weight[np.ix_(*scaled)], weight)


def _rational_grid(fields, blocks, p: int, sign: int, params: int) -> SumGrid:
    """The exact grid of cone blocks: S the outer product of their rounded
    transforms, row-major; each distinct S rendered once (never one row alone:
    `_row_blocks`), bit-equal to `_render` of the counts, built on first read."""
    def canonical(S):  # (S, 0, ..., 0), or (0, -S, ..., -S) for S < 0: zeta + ... = -1
        return np.where(np.arange(p) == 0, np.maximum(S, 0)[:, None], np.maximum(-S, 0)[:, None])

    n, S = sum(map(len, blocks)), np.ones(1, dtype=np.int64)
    for weight, _ in fields:
        field = weight.astype(np.complex128)
        _point_transform(field, p, sign, params)
        part = np.rint(field.real)
        field.real -= part
        pairs = field.reshape(-1).view(np.float64)  # real and imaginary residuals
        residual = float(max(pairs.max(), -pairs.min()))
        if residual > 1e-3:
            raise AssertionError(f"rational grid rounding residual {residual:.3g} exceeds 1e-3")
        S = np.multiply.outer(S, part.astype(np.int64)).ravel()
    del field, part  # not held through the render below
    S = S.reshape((p,) * n).transpose(np.argsort([i for b in blocks for i in b])).ravel()
    lo, hi = int(S.min()), int(S.max())
    if hi + 1 - min(lo, 0) <= len(S):  # a table indexed by S, no larger than the values
        table = np.zeros(hi + 1 - min(lo, 0), dtype=np.complex128)
        table[S] = 1  # S < 0 indexes from the end, past hi
        slots = np.flatnonzero(table)
        distinct, at = np.where(slots > hi, slots - len(table), slots), S
    else:  # a sort
        distinct, at = np.unique(S, return_inverse=True)
        slots, table = np.arange(len(distinct)), np.empty(len(distinct), dtype=np.complex128)
    rows = canonical(np.resize(distinct, max(len(distinct), min(2, len(S)))))
    table[slots] = _render(rows, p)[:len(distinct)]
    return SumGrid(p=p, n=n, values=table[at].reshape((p,) * n),
                   counts=lambda: canonical(S).reshape((p,) * n + (p,)))


def complete_grid(spec: SumSpec, p: int, sign: int = 1,
                  cap: int = DEFAULT_GRID_CAP, params: int = 0) -> SumGrid:
    """All sums S(h) = sum_x t(x) psi(h.x) at once, as an n-dimensional
    transform of the pointwise trace values.  Base field only.  The cap
    bounds the largest array of the whole grid: the p^(n+1) zeta counts of
    an exact grid, the p^n values otherwise.

    With params = k (exact specs only) the first k variables a are not
    transformed: the grid at (a, h) is S_a(h), the sum over the fiber at
    a, every fiber in one transform.

    An exact grid is the product of its blocks' transforms: the spec's
    `_var_blocks` when params = 0 and p^(n+1) > _BLOCK, else one block,
    the spec itself (split below one row block, x1*x2 + x3 at p = 7 took
    1.25 ms against 0.46 ms whole: median of 3 runs of best of 15 x 20
    calls, 2-core Xeon VM).  Cone blocks (`_is_cone`) give integer S(h),
    one rounded transform per block, within eps n p times the block's count
    mass (1.3e-4 at the 2^26 cap), under a 1e-3 guard on both parts
    (`_rational_grid`).  One block without a symmetry (`_scaling`)
    scatters weight[x] to zeta power idx[x] of a count field, transforms
    it in place with `cyclo_dft` and subtracts each row's minimum (canonical
    form: exact zeros render as 0).  Every other exact grid is quotiented
    by h -> lam h with counts(lam h)[j] = counts(h)[t j]
    (`_diagonal_scaling` of the blocks' scalings, lam = 1 on the parameter
    axes).  At one row per orbit (`_orbit_points`) the blocks'
    `_orbit_spectrum`s, gathered at the row's coordinates in each block,
    multiply into a running product, as do the fiber totals; block count
    masses multiply to the whole field's, so the rounding bound holds.
    The rows are rounded, made canonical and rendered at every image
    (`_orbit_rows`), bit-equal to a render of the count array, which is
    built from them when `SumGrid.counts` is first read.  A row with equal
    columns 1..p-1 (a rational S(h), as at many h of a split grid) is fixed by
    every column permutation: it is rendered once, with all rows at the
    first image, and copied to its other images without a gather, unless
    that would leave a single row to render alone (`_row_blocks`)."""
    n = spec.nvars
    if spec.linear_form is not None and any(spec.linear_form):
        raise ValueError("complete_grid sweeps all h; fix the spec's linear form to None")
    if not 0 <= params <= n:
        raise ValueError(f"params={params} outside 0..{n}")
    if params and not spec.is_exact():
        raise ValueError("complete_grid takes params only for exact specs")
    if spec.is_exact() and p ** (n + 1) > cap:
        raise CapExceeded(f"exact grid needs {p}^{n + 1} zeta counts, over cap {cap}")
    if p ** n > cap:
        raise CapExceeded(f"grid {p}^{n} exceeds cap {cap}")
    blocks = [list(range(n))]
    if spec.is_exact() and not params and p ** (n + 1) > _BLOCK:
        blocks = _var_blocks(spec) or blocks
    split = len(blocks) > 1
    fields = [trace_function_grid(_block_spec(spec, block, k == 0) if split else spec, p)
              for k, block in enumerate(blocks)]
    if fields[0][0] == "complex":
        return SumGrid(p=p, n=n, values=dft_grid(fields[0][1], p, sign))
    fields = [field[1:] for field in fields]
    if all(_is_cone(weight, idx, p, params) for weight, idx in fields):
        return _rational_grid(fields, blocks, p, sign, params)
    scalings = [_scaling(weight, idx, p, params) for weight, idx in fields]
    if scalings == [None]:  # one block without a symmetry: a count field
        counts = cyclo_dft(_count_field(*fields[0], p), p, sign, params=params)
        counts -= counts.min(axis=-1, keepdims=True)
        return SumGrid(p=p, n=n, values=_render(counts, p), counts=counts)
    scalings = [scaling or (1, 1) for scaling in scalings]
    lam, t = _diagonal_scaling([block[params:] for block in blocks], scalings, p, n)
    order = [i for block in blocks for i in block]  # the axes block by block
    reps = _orbit_points(lam[order], p)
    spectrum, totals, after = None, 1, n
    for (weight, idx), scaling, block in zip(fields, scalings, blocks):
        k, after = len(block), after - len(block)
        at = reps // p ** after % p ** k  # the block's coordinates
        part = _orbit_spectrum(_lookup(weight, idx, p), scaling, p, k, sign, params, at)
        spectrum = part if spectrum is None else np.multiply(spectrum, part, out=spectrum)
        totals = totals * weight.reshape(p ** params, -1).sum(axis=1)[at // p ** (k - params)]
    del part  # not held through the render below
    if order != sorted(order):  # back to row-major axes
        reps = np.arange(p ** n).reshape((p,) * n).transpose(order).ravel()[reps]
    rep_counts = np.empty((len(reps), p), dtype=np.int64)
    _round_counts(spectrum, totals, p, rep_counts)
    # canonical rows, and which have equal columns 1..p-1 (a rational S(h),
    # fixed by every column permutation), by reductions over the first axis
    # of each block's transpose: over a short last axis they pay per row
    fixed = np.empty(len(reps), dtype=bool)
    for lo, hi in _row_blocks(len(reps), p):
        cols = rep_counts[lo:hi].T.copy()
        cols -= cols.min(axis=0)
        rep_counts[lo:hi] = cols.T
        fixed[lo:hi] = (cols[1:] == cols[1]).all(axis=0)
    order = np.argsort(~fixed, kind="stable")  # the fixed rows go first
    reps, rep_counts = reps[order], rep_counts[order]
    k = int(fixed.sum()) if fixed.sum() != len(fixed) - 1 else 0  # none if one row would move
    values, rendered = np.empty(p ** n, dtype=np.complex128), _render(rep_counts, p)
    for b, (at, rows) in enumerate(_orbit_rows(rep_counts[k:], reps, lam, t, p)):
        if b:  # the fixed rows keep their first render
            rendered[k:] = _render(rows, p)
        values[at] = rendered

    def counts():
        out = np.empty((p ** n, p), dtype=np.int64)
        for at, rows in _orbit_rows(rep_counts[k:], reps, lam, t, p):
            out[at[:k]], out[at[k:]] = rep_counts[:k], rows
        return out.reshape((p,) * n + (p,))
    return SumGrid(p=p, n=n, values=values.reshape((p,) * n), counts=counts)


def S_F_grid(F: IntPolynomial, p: int, cap: int = DEFAULT_GRID_CAP) -> SumGrid:
    """Grid of S_F(h) = sum_x psi(h.x) r_F(x); exact, S_F(0) is the affine
    point count of {F = 0}."""
    spec = SumSpec(nvars=F.nvars - 1, trace_weight=("root_count", F))
    return complete_grid(spec, p, cap=cap)


# -- identities ---------------------------------------------------------------


@dataclass
class PowerSumIdentity:
    d: int
    p: int
    lhs: complex
    rhs: complex
    lhs_cyclo: CycloValue
    identity_ok: bool
    bound: float
    bound_ok: bool


def power_sum_identity_check(d: int, p: int, tol: float = 1e-6) -> PowerSumIdentity:
    """Compare the monomial character sum sum_x e(x^d/p) (enumeration) with
    the equivalent sum of d-1 Gauss sums, and check the Weil bound
    (d-1) sqrt(p)."""
    if d < 2:
        raise ValueError("need d >= 2")
    if p % d != 1:
        raise ValueError(f"need p = 1 mod d, got p={p}, d={d}")
    counts = [0] * p
    for x in range(p):
        counts[pow(x, d, p)] += 1
    lhs_cyclo = CycloValue(p, counts)
    lhs = lhs_cyclo.to_complex()
    ctx = FieldCtx(p)
    rhs = sum(gauss_sum(ctx, d, k) for k in range(1, d))
    bound = (d - 1) * p ** 0.5
    return PowerSumIdentity(
        d=d, p=p, lhs=lhs, rhs=complex(rhs), lhs_cyclo=lhs_cyclo,
        identity_ok=abs(lhs - rhs) <= tol,
        bound=bound, bound_ok=abs(lhs) <= bound + tol)


def cone_sum_identity(F: IntPolynomial, p: int, cap: int = 1 << 14):
    """For homogeneous F and each v != 0, check the exact identity

        (p-1) * T(F, v) = p * #{x : F(x) = 0, x.v = 0} - #{x : F(x) = 0}

    in Z[zeta_p].  Returns (ok, violations) with witness vectors.  Work is
    quadratic in the grid size, hence the tighter default cap."""
    if not F.is_homogeneous():
        raise ValueError("F must be homogeneous")
    n = F.nvars
    if p ** n > cap:
        raise CapExceeded(f"identity sweep {p}^{n} exceeds cap {cap} "
                          "(quadratic work)")
    spec = SumSpec(nvars=n, variety=AffineVariety(n, [F]))
    grid = complete_grid(spec, p)
    coords = np.indices((p,) * n).reshape(n, -1).T
    zeros = coords[(poly_values_grid(F, p) == 0).reshape(-1)]
    n0 = len(zeros)
    n1 = np.empty(len(coords), dtype=np.int64)
    rows = max(1, (1 << 20) // max(n0, 1))  # dot-table entries per block
    for lo in range(0, len(coords), rows):
        dots = coords[lo:lo + rows] @ zeros.T % p
        n1[lo:lo + rows] = (dots == 0).sum(axis=1)
    # both sides in canonical form: (p-1) counts keeps min 0, and the
    # integer z is z at zeta^0, or -z at every other power when z < 0
    lhs = grid.counts.reshape(-1, p) * (p - 1)
    z = p * n1 - n0
    rhs = np.zeros_like(lhs)
    rhs[:, 0] = z
    rhs -= np.minimum(z, 0)[:, None]
    bad = (lhs != rhs).any(axis=1)
    bad[0] = False  # h = 0 is not part of the identity
    violations = [(tuple(int(t) for t in coords[i]), CycloValue(p, lhs[i]),
                   CycloValue(p, rhs[i])) for i in np.flatnonzero(bad)]
    return not violations, violations

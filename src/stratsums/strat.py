"""Stratification data model and empirical verification of bound cascades.

A chain A^n >= X_1 >= ... >= X_k of subvarieties, together with an excluded
modulus N and a constant C, asserts that the sum family S(h) obeys

    |S(h)| <= C * p^((d + i) / 2)

whenever h lies on the stratum of index i (the largest i with h in X_i; 0 if
none).  `verify_kl` checks this exhaustively against a complete grid and
reports the minimal constant each stratum actually achieves, with witnesses;
every stratified verdict makes its comparison through `slack_bound`.

Stratum dimensions are never certified symbolically; the point-count shadow
#X_j(F_p) <= kappa * p^(n-j) is checked instead (see `codim_shadow_check`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ChainContainmentError, ParseError
from .ffield import FieldCtx, orbit_minima
from .polyring import AffineVariety, IntPolynomial, parse_poly, poly_to_string
from .spectral import _BLOCK, face_blocks, poly_windows, trace_windows
from .sumengine import SumGrid, variety_mask

# containment is checked exhaustively only while p^n stays this small
_CONTAINMENT_CHECK_LIMIT = 1 << 16


class VarietyChain:
    """Descending chain of affine varieties in a fixed ambient space.

    X_0 is implicitly the whole space.  Containment of point sets is
    validated exhaustively over the `check_primes` (skipping primes whose
    grid would be too large); violations raise at construction.
    """

    def __init__(self, ambient: int, strata, check_primes=(2, 3)):
        self.ambient = ambient
        self.strata = list(strata)
        self._masks = {}  # p -> the strata's read-only masks over F_p
        for V in self.strata:
            if V.nvars != ambient:
                raise ValueError("stratum ambient dimension mismatch")
        for p in check_primes:
            if p ** ambient <= _CONTAINMENT_CHECK_LIMIT:
                self.check_containment(p)

    def __len__(self):
        return len(self.strata)

    def check_containment(self, p: int):
        masks = self.masks(p)
        for j in range(1, len(masks)):
            if np.any(masks[j] & ~masks[j - 1]):
                raise ChainContainmentError(
                    f"stratum {j + 1} is not contained in stratum {j} over F_{p}")

    def masks(self, p: int) -> list[np.ndarray]:
        """Read-only boolean membership grids over F_p^ambient, one per
        stratum; equal generator lists are evaluated once and share a grid,
        and each prime's grids are built once and kept on the chain."""
        if p not in self._masks:
            grids = {}
            for V in self.strata:
                if V.generators not in grids:
                    grids[V.generators] = variety_mask(V, p, self.ambient)
                    grids[V.generators].flags.writeable = False
            self._masks[p] = [grids[V.generators] for V in self.strata]
        return list(self._masks[p])

    def stratum_index(self, h, p: int) -> int:
        """Largest i with h in X_i(F_p), 0 when h avoids the whole chain;
        membership is tested on `FieldCtx(p)` elements, so p must be prime."""
        if len(h) != self.ambient:
            raise ValueError("point dimension mismatch")
        ctx = FieldCtx(p, cap=p)  # one point: no field-sized table is built
        point = [ctx.elem(int(x)) for x in h]
        best = 0
        for i, V in enumerate(self.strata, start=1):
            if V.contains(point):
                best = i
            else:
                break  # descending chain: deeper strata cannot contain h
        return best

    def stratum_index_grid(self, p: int) -> np.ndarray:
        return stratum_index_from_masks(self.masks(p), (p,) * self.ambient)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "ambient_n": self.ambient,
            "strata": [[poly_to_string(g) for g in V.generators]
                       for V in self.strata],
            "claimed_codims": [V.claimed_dim if V.claimed_dim is None
                               else self.ambient - V.claimed_dim
                               for V in self.strata],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @classmethod
    def from_json_dict(cls, data: dict, check_primes=(2, 3)) -> "VarietyChain":
        ambient = int(data["ambient_n"])
        codims = data.get("claimed_codims") or [None] * len(data["strata"])
        if len(codims) != len(data["strata"]):
            raise ParseError(f"chain has {len(data['strata'])} strata but "
                             f"{len(codims)} claimed codims")
        strata = []
        for gens, codim in zip(data["strata"], codims):
            polys = [parse_poly(g, nvars=ambient) for g in gens]
            dim = None if codim is None else ambient - int(codim)
            strata.append(AffineVariety(ambient, polys, claimed_dim=dim))
        return cls(ambient, strata, check_primes=check_primes)

    @classmethod
    def load(cls, path, check_primes=(2, 3)) -> "VarietyChain":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh), check_primes=check_primes)


def stratum_index_from_masks(masks: list[np.ndarray], shape) -> np.ndarray:
    """The largest i with masks[i - 1] true at each point, 0 where none is;
    a mask shared with the next stratum is skipped, as the next write wins."""
    idx = np.zeros(shape, dtype=np.int64)
    for i, mask in enumerate(masks, start=1):
        if i == len(masks) or mask is not masks[i]:
            idx[mask] = i
    return idx


@dataclass
class KLDatum:
    """Chain plus constants: excluded-prime modulus N, constant C, and the
    fiber dimension d entering the bound exponent (d + i)/2."""

    chain: VarietyChain
    N: int
    C: float
    d: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.C <= 0:
            raise ValueError("C must be positive")


@dataclass
class StratumRecord:
    index: int
    count: int
    max_abs: float
    min_C: float
    witness: tuple | None


@dataclass
class StratReport:
    p: int
    ambient: int
    C: float
    d: int
    excluded_prime: bool
    records: list
    violations: list
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "p": self.p,
            "ambient_n": self.ambient,
            "C": self.C,
            "d": self.d,
            "excluded_prime": self.excluded_prime,
            "passed": self.passed,
            "strata": [{
                "index": r.index,
                "count": r.count,
                "max_abs": r.max_abs,
                "min_C": r.min_C,
                "witness": list(r.witness) if r.witness is not None else None,
            } for r in self.records],
            "violations": [{
                "h": list(h), "value_abs": v, "bound": b,
            } for h, v, b in self.violations],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    def table(self) -> str:
        lines = [f"p={self.p}  C={self.C}  d={self.d}  "
                 f"{'PASS' if self.passed else 'FAIL'}"
                 + ("  (excluded prime)" if self.excluded_prime else "")]
        lines.append(f"{'i':>3} {'count':>10} {'max|S|':>14} {'min C_i':>10}  witness")
        for r in self.records:
            w = ",".join(str(x) for x in r.witness) if r.witness is not None else "-"
            lines.append(f"{r.index:>3} {r.count:>10} {r.max_abs:>14.6g} "
                         f"{r.min_C:>10.4g}  ({w})")
        for h, v, b in self.violations[:10]:
            lines.append(f"  VIOLATION at h={h}: |S|={v:.6g} > {b:.6g}")
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more violations")
        return "\n".join(lines)


def slack_bound(C: float, scale: float) -> float:
    """The bound every stratified verdict compares |S| against:
    C * scale + 1e-6 * scale, a float slack for the rendering of exact
    values.  A value passes when it is <= this bound."""
    return C * scale + 1e-6 * scale


def verify_kl_masks(values: np.ndarray, masks: list[np.ndarray], p: int,
                    C: float, d: int, N: int = 1) -> StratReport:
    """Bound check of |values[h]| <= C p^{(d+i)/2} for mask-defined strata,
    through `slack_bound`.  A prime dividing the excluded modulus N > 1 is
    flagged (soft), never fatal."""
    ambient, levels = values.ndim, len(masks) + 1
    flat, flat_masks = values.reshape(-1), [m.reshape(-1) for m in masks]
    bounds = [slack_bound(C, p ** ((d + i) / 2)) for i in range(levels)]
    counts, best, bad = [0] * levels, [(-1.0, 0)] * levels, [[] for _ in range(levels)]
    # one pass in blocks small enough to stay in cache: |S|, the stratum
    # index, and each level's count, first maximum and points over its bound
    step = _BLOCK // 4
    for lo in range(0, flat.size, step):
        abs_vals = np.abs(flat[lo:lo + step])
        idx = stratum_index_from_masks([m[lo:lo + step] for m in flat_masks], abs_vals.shape)
        for i in range(levels):
            sel = idx == i
            if not sel.any():
                continue
            counts[i] += int(np.count_nonzero(sel))
            vals = np.where(sel, abs_vals, -1.0)
            k = int(np.argmax(vals))
            if vals[k] > best[i][0]:  # a tie keeps the earlier block's point
                best[i] = (float(vals[k]), lo + k)
            if vals[k] > bounds[i]:
                hits = np.flatnonzero(sel & (abs_vals > bounds[i]))
                bad[i] += zip((lo + hits).tolist(), abs_vals[hits].tolist())
    records, violations = [], []
    for i in [i for i in range(levels) if counts[i]]:
        (max_abs, flat_arg), scale = best[i], p ** ((d + i) / 2)
        witness = tuple(int(v) for v in np.unravel_index(flat_arg, values.shape))
        records.append(StratumRecord(i, counts[i], max_abs, max_abs / scale, witness))
        violations += [(tuple(int(v) for v in np.unravel_index(h, values.shape)), v,
                        float(bounds[i])) for h, v in bad[i]]
    total = sum(r.count for r in records)
    if total != p ** ambient:
        raise AssertionError("stratum records do not partition the grid")
    return StratReport(p=p, ambient=ambient, C=C, d=d,
                       excluded_prime=N > 1 and N % p == 0,
                       records=records, violations=violations,
                       passed=not violations)


def verify_kl(datum: KLDatum, grid: SumGrid) -> StratReport:
    """Check one complete grid against a stratification datum."""
    return verify_kl_masks(grid.values, datum.chain.masks(grid.p), grid.p,
                           datum.C, datum.d, datum.N)


def empirical_exponent_map(grid: SumGrid) -> np.ndarray:
    """2 log_p |S(h)| per parameter, -inf at exact zeros: the doubled
    exponent scale on which strata show up as plateaus."""
    if grid.p < 3:
        raise ValueError("exponent map needs p >= 3")
    out = np.full(grid.values.shape, -np.inf)
    absv = grid.abs_values()
    nz = absv > 0
    out[nz] = 2 * np.log(absv[nz]) / math.log(grid.p)
    return out


def exponent_histogram(exponents: np.ndarray, snap: float = 0.5) -> dict:
    """Bin the exponent map to the nearest multiple of `snap` (presentation
    helper; -inf kept separate)."""
    out: dict = {}
    flat = exponents.reshape(-1)
    for v in flat:
        key = "-inf" if not np.isfinite(v) else round(float(v) / snap) * snap
        out[key] = out.get(key, 0) + 1
    return out


# -- dual-variety membership by bounded search ---------------------------------


_PROJECTIVE_CAP = 1 << 20


def _projective_windows(polys, n: int, p: int, max_ext: int):
    """Trace windows of `polys` on the points of P^{n-1}(F_{p^e}),
    e = 1..max_ext, in blocks of at most _BLOCK points: yields one (size, e)
    window array per polynomial.  A point is (0, .., 0, 1, tail) with
    1 = g^0; a zero test on a window is a zero test on the value.  At e >= 2
    the tail is swept modulo Frobenius (`face_blocks`): x -> x^p fixes the
    leading 1 and every test of the callers, all with F_p coefficients, and
    they only ask whether some point passes."""
    for e in range(1, max_ext + 1):
        q = p ** e
        total = sum(q ** k for k in range(n))
        if total > _PROJECTIVE_CAP:
            raise CapExceeded(
                f"projective sweep of ~{total} points over F_{p}^{e} "
                f"exceeds cap {_PROJECTIVE_CAP}")
        W = trace_windows(FieldCtx(p, e))
        orbits = orbit_minima(p, q - 1) if e > 1 else None
        for lead in range(n):
            for tail, size, _ in face_blocks(n - lead - 1, False, q - 1, _BLOCK, orbits):
                ks = [None] * lead + [np.zeros(size, dtype=np.int64), *tail]
                yield [poly_windows(f, ks, size, W, p) for f in polys]


def dual_variety_membership(F: IntPolynomial, v, p: int, max_ext: int = 2,
                            sufficient_ext: int | None = None) -> str:
    """Search for a hyperplane-section singularity certifying that v lies on
    the dual hypersurface of {F = 0}.

    Looks for a projective point x over F_{p^e}, e <= max_ext, with F(x) = 0,
    v.x = 0, and grad F(x) proportional to v (every minor
    v_j G_i - v_i G_j vanishes).  Returns "member" on a find; "nonmember"
    only when max_ext reaches the caller-supplied sufficient bound for this
    instance (a heuristic, documented as such); otherwise "undetermined".
    """
    if not F.is_homogeneous():
        raise ValueError("F must be homogeneous")
    n = F.nvars
    if len(v) != n:
        raise ValueError("v dimension mismatch")
    if all(x % p == 0 for x in v):
        raise ValueError("v must be nonzero")
    v = [int(x) % p for x in v]
    G = F.gradient()
    dot = IntPolynomial.zero(n)
    for i, vi in enumerate(v):
        dot = dot + IntPolynomial.variable(i, n) * vi
    minors = [G[i] * v[j] - G[j] * v[i]
              for i in range(n) for j in range(i + 1, n)]
    for windows in _projective_windows([F, dot, *minors], n, p, max_ext):
        if not np.concatenate(windows, axis=1).any(axis=1).all():
            return "member"
    if sufficient_ext is not None and max_ext >= sufficient_ext:
        return "nonmember"
    return "undetermined"


def dual_points_mask(F: IntPolynomial, p: int, max_ext: int = 2) -> np.ndarray:
    """Membership mask over F_p^n of the affine cone on the dual hypersurface,
    found by sweeping x over F_{p^e}, e <= max_ext: every found gradient
    direction that is projectively rational over F_p marks its F_p-line.

    By the Euler relation (p coprime to deg F), v.x = 0 holds automatically
    at marked points, so the sweep needs only F(x) = 0.  With L the window
    of the first nonzero gradient coordinate and j the first nonzero digit
    of L, the direction is F_p-rational iff every G_i = c_i L with
    c_i = G_i[j] / L[j] mod p, the window map being F_p-linear.  x and x^p
    mark the same line, so one point per Frobenius orbit is swept.
    """
    if not F.is_homogeneous():
        raise ValueError("F must be homogeneous")
    if F.degree() % p == 0:
        raise ValueError("Euler-relation shortcut needs p coprime to deg F")
    n = F.nvars
    mask = np.zeros((p,) * n, dtype=bool)
    mask[(0,) * n] = True  # the cone vertex
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
    lams = np.arange(1, p, dtype=np.int64)
    for Fw, *grads in _projective_windows([F, *F.gradient()], n, p, max_ext):
        G = np.stack(grads)[:, ~Fw.any(axis=1)]  # (n, points on F = 0, e)
        G = G[:, G.any(axis=(0, 2))]
        cols = np.arange(G.shape[1])
        L = G[G.any(axis=2).argmax(axis=0), cols]
        j = L.astype(bool).argmax(axis=1)
        c = G[:, cols, j] * inv[L[cols, j]] % p
        rational = (G == c[:, :, None] * L % p).all(axis=(0, 2))
        mask[tuple(c[:, rational, None] * lams % p)] = True
    return mask


def smoothness_check(F: IntPolynomial, p: int, max_ext: int = 2) -> bool:
    """No projective singular point (all partials zero) over F_{p^e},
    e <= max_ext: brute-force smoothness screen for the cone away from 0."""
    for windows in _projective_windows(F.gradient(), F.nvars, p, max_ext):
        if not np.concatenate(windows, axis=1).any(axis=1).all():
            return False
    return True


def codim_shadow_check(chain: VarietyChain, p: int, kappa: float = 4.0):
    """Point-count proxy for 'X_j has codimension >= j':
    #X_j(F_p) <= kappa * p^(n-j).  Returns (ok, per-stratum counts)."""
    counts = [int(m.sum()) for m in chain.masks(p)]
    ok = all(c <= kappa * p ** (chain.ambient - j)
             for j, c in enumerate(counts, start=1))
    return ok, counts

"""Recover Frobenius eigenvalue magnitudes from extension-field power sums.

The kernel (`summand_blocks`) reads each point x = g^k of F_q, q = p^m,
through its trace window.  A summand without a twist is defined over F_p,
t(x^p) = t(x), so the points whose first live coordinate's exponent lies in
one orbit of k -> p k mod q-1 sum to the orbit's size times those at its
least element.  At m >= 2, a face with two or more live coordinates is
swept that way.  A twist is swept in full, chi(z^p) = chi(z)^p, and so are
one-variable faces: at q = 5^8 the orbit table's m passes over q-1 take
35 ms, more than the Kloosterman sweep over m <= 8 (15 ms, 2-core Xeon VM).

The sums S_n = sum_{x in V(k_n)} t(x) of a fixed spec over growing field
extensions form a generalized power-sum sequence sum_j eps_j m_j alpha_j^n.
`fit_recurrence` detects the minimal recurrence rank (Hankel SVD), extracts
the alpha_j as companion-matrix eigenvalues, and solves for signed integer
multiplicities; `weight_check` tests that every |alpha_j| sits on the
p^{w/2} magnitude grid with w below a given ceiling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cyclo import CycloValue, zeta_table
from .errors import CapExceeded, DEFAULT_ENUM_CAP, RankTooHigh
from .ffield import FieldCtx, orbit_minima
from .polyring import IntPolynomial
from .sumengine import SumSpec, SumValue, summand_tables

_BLOCK = 1 << 16  # points per kernel block; bounds the kernel's working arrays


@dataclass
class PowerSumSequence:
    p: int
    spec: SumSpec
    values: list
    cyclos: list

    @property
    def N(self) -> int:
        return len(self.values)


def generator_power_traces(ctx: FieldCtx) -> np.ndarray:
    """s_b = Tr(g^b) for b in [0, q-1), from the multiplication matrix M of
    the generator and tau_i = Tr(x^i), the traces of the power basis:
    s_b = tau . M^b e_0, as M^b e_0 = coeffs(g^b) and Tr is F_p-linear.

    With L^2 >= q-1, s[jL + r] = (tau M^(jL)) . (M^r e_0): both factor
    lists are built by doubling and meet in one product.  Entries stay
    below m p^2 before each reduction, inside int64 under the field cap.
    The product runs in float64 (BLAS) while m (p-1)^2 < 2^53, where its
    partial sums are exact integers, and in int64 above that."""
    q, p, m = ctx.q, ctx.p, ctx.m
    mats = ctx.mul_matrices([ctx.generator.rank] + [p ** i for i in range(m)])
    M, tau = mats[0], np.trace(mats[1:], axis1=1, axis2=2) % p
    t = ((q - 2).bit_length() + 1) // 2
    L = 1 << t  # L^2 >= q-1
    ML = M
    for _ in range(t):
        ML = ML @ ML % p
    cols = _orbit(np.eye(1, m, dtype=np.int64)[0], M.T, L, p)  # (M^r e_0)^T
    rows = _orbit(tau, ML, -(-(q - 1) // L), p)
    rows, cols = (a.astype(_product_dtype(p, m)) for a in (rows, cols))
    return ((rows @ cols.T).astype(np.int64) % p).reshape(-1)[:q - 1]


def _product_dtype(p: int, m: int):
    """float64 while m products of residues below p sum exactly in it."""
    return np.float64 if m * (p - 1) ** 2 < 1 << 53 else np.int64


def _orbit(v: np.ndarray, A: np.ndarray, count: int, p: int) -> np.ndarray:
    """Rows v A^i mod p for i < count, by doubling."""
    out = np.empty((count, len(v)), dtype=np.int64)
    out[0] = v
    done, step = 1, A
    while done < count:
        k = min(done, count - done)
        np.matmul(out[:k], step, out=out[done:done + k])
        out[done:done + k] %= p
        done += k
        step = step @ step % p
    return out


def trace_windows(ctx: FieldCtx) -> np.ndarray:
    """W[k] = (Tr(g^j x))_{j<m} = (s[k], .., s[k+m-1]) for x = g^k, shape
    (q-1, m): a read-only view over the generator power traces s.  x -> W
    is an F_p-linear bijection F_q -> F_p^m (the trace form is
    nondegenerate and 1, g, .., g^{m-1} a basis), so x = 0 exactly when
    its window is, and the window of a sum is the sum of the windows."""
    s = generator_power_traces(ctx)
    return np.lib.stride_tricks.sliding_window_view(
        np.concatenate((s, s[:ctx.m - 1])), ctx.m)


def poly_windows(f: IntPolynomial, ks, size: int, W, p: int) -> np.ndarray:
    """Trace windows of f on a block of `size` points, shape (size,) +
    W.shape[1:]: (size, m) for the windows W, (size,) for the traces W[:, 0].

    ks[i] holds the exponents k of x_i = g^k, or None where x_i = 0.  A term
    c x^e is c W[sum_i e_i k_i], and windows add digit-wise (the window map
    is F_p-linear); a term with a positive power of a zero coordinate drops.

    Exponents are signed, in (-(q-1)/2, (q-1)/2].  A term with one live
    e = +-1 has its sum in (-(q-1), q-1), which indexes W as it is (numpy
    wraps a negative index once); any other sum reduces mod q-1, and the
    windows mod p at the end, as a - a // b * b (numpy's `%` is slower): a
    sum is below n (q-1)^2 / 2 in size and a digit below T p^2 for T terms,
    which int64 holds for n, T < 2^11 within the field cap (q <= 2^26)."""
    qm1, half = len(W), len(W) // 2
    out = np.zeros((size,) + W.shape[1:], dtype=np.int64)
    for exps, coeff in f.terms.items():
        if coeff % p == 0 or any(e and k is None for e, k in zip(exps, ks)):
            continue
        reps = [(half - (half - e) % qm1, k) for e, k in zip(exps, ks) if e % qm1]
        if [abs(r) for r, _ in reps] == [1]:  # x or x^(q-2): no reduction
            dl = reps[0][1] if reps[0][0] == 1 else -reps[0][1]
        else:
            dl = sum((r * k for r, k in reps), np.zeros(size, dtype=np.int64))
            dl -= dl // qm1 * qm1
        term = W[dl]
        term *= coeff % p
        out += term
    out -= out // p * p
    return out


def face_blocks(nvars: int, torus: bool, qm1: int, block: int, orbits=None):
    """Points of F_q^nvars one face (zero pattern) at a time, in blocks of
    at most `block`: yields (ks, size, mult), ks in the form `poly_windows`
    takes.  With orbits = `orbit_minima(p, q-1)`, a face with two or more
    live coordinates is swept modulo Frobenius (module docstring), mult
    being each point's orbit size; elsewhere mult is None."""
    patterns = (False,) if torus else (False, True)
    for zero in itertools.product(patterns, repeat=nvars):
        live = [i for i in range(nvars) if not zero[i]]
        mins, sizes = orbits if orbits is not None and len(live) > 1 else (None, None)
        digits = [qm1 if mins is None or i else len(mins) for i in range(len(live))]
        total = math.prod(digits)  # digits: the flat index's radices, fastest first
        for lo in range(0, total, block):
            rest = np.arange(lo, min(lo + block, total), dtype=np.int64)
            ks, mult = [None] * nvars, None
            for i, d in zip(live[:-1], digits):  # the last digit is what is left
                high = rest // d
                ks[i], rest = rest - high * d, high
            if live:
                ks[live[-1]] = rest
            if mins is not None:
                ks[live[0]], mult = mins[ks[live[0]]], sizes[ks[live[0]]]
            yield ks, min(block, total - lo), mult


def _root_counts(F: IntPolynomial, ks, size: int, W, p: int) -> np.ndarray:
    """#{y : F(y, x) = 0} at each point x of a block: y is one more
    coordinate, zero or g^j for every j."""
    qm1 = len(W)
    count = ~poly_windows(F, [None, *ks], size, W, p).any(axis=1)
    ys = np.tile(np.arange(qm1, dtype=np.int64), size)
    xs = [None if k is None else np.repeat(k, qm1) for k in ks]
    hits = ~poly_windows(F, [ys, *xs], size * qm1, W, p).any(axis=1)
    return count + hits.reshape(size, qm1).sum(axis=1)


def summand_blocks(spec: SumSpec, ctx: FieldCtx):
    """The summands of `spec` over F_q^nvars, before the half twist, block
    by block: yields (ks, phase, amp, mult, n_points, twist_zeros), the
    summand at each domain point off the twist zeros being amp * psi(phase),
    counted mult times (once where mult is None).  ks holds the points'
    exponents in the form `poly_windows` takes, with the twist zeros
    filtered out like phase and amp.

    Every element x = g^k is handled through its trace window W[k] (see
    `trace_windows`): zero tests look at all m digits and the additive
    phase at digit 0, the trace.  amp is an integer weight unless a twist
    or the Kloosterman value makes it complex.  A twist-free spec in two or
    more variables is swept modulo Frobenius at m >= 2 (module docstring)."""
    p, q, m, n = ctx.p, ctx.q, ctx.m, spec.nvars
    W = trace_windows(ctx)
    kind = spec.trace_weight[0] if spec.trace_weight else None
    phase_poly, chi_by_key, kl = summand_tables(spec, ctx, W)
    key_weights = p ** np.arange(m, dtype=np.int64)  # window -> [0, q)
    F = spec.trace_weight[1] if kind == "root_count" else None
    block = max(1, _BLOCK // q) if F is not None else _BLOCK
    orbits = orbit_minima(p, q - 1) \
        if m > 1 and n > 1 and spec.mult_twist is None else None

    for ks, size, mult in face_blocks(n, spec.torus, q - 1, block, orbits):
        if spec.variety is not None:
            inside = np.ones(size, dtype=bool)
            for gen in spec.variety.generators:
                inside &= ~poly_windows(gen, ks, size, W, p).any(axis=1)
            ks = [None if k is None else k[inside] for k in ks]
            mult = None if mult is None else mult[inside]
            size = int(inside.sum())
        n_points = size if mult is None else int(mult.sum())
        phase = poly_windows(phase_poly, ks, size, W[:, 0], p)  # Tr only
        amp = np.ones(size, dtype=np.int64) if F is None \
            else _root_counts(F, ks, size, W, p)
        twist_zeros = 0
        if kl is not None:
            amp = amp * kl[ks[0]]
        if chi_by_key is not None:
            chi = chi_by_key[poly_windows(spec.mult_twist[0], ks, size, W, p)
                             @ key_weights]
            live = chi != 0
            twist_zeros = size - int(live.sum())
            phase, amp = phase[live], amp[live] * chi[live]
            ks = [None if k is None else k[live] for k in ks]
        yield ks, phase, amp, mult, n_points, twist_zeros


def extension_sum(spec: SumSpec, ctx: FieldCtx,
                  cap: int = DEFAULT_ENUM_CAP) -> SumValue:
    """S over the given extension field, by the trace-window kernel.  The
    cyclo payload is exact in Z[zeta_p]; it is None when a twist, the
    Kloosterman value or a half twist enters."""
    if ctx.q ** spec.nvars > cap:
        raise CapExceeded(
            f"enumeration of {ctx.q}^{spec.nvars} points exceeds cap {cap}")
    p = ctx.p
    counted = spec.mult_twist is None and not (
        spec.trace_weight and spec.trace_weight[0] == "kloosterman_value")
    counts = np.zeros(p, dtype=np.int64)
    acc = 0j
    n_points = twist_zeros = 0
    for _, phase, amp, mult, points, zeros in summand_blocks(spec, ctx):
        n_points += points
        twist_zeros += zeros
        weight = amp if mult is None else amp * mult
        if counted:  # a block sums below 2^53, so the float counts are exact
            counts += np.bincount(phase, weights=weight, minlength=p).astype(np.int64)
        else:
            acc += complex(np.dot(weight, zeta_table(p)[phase]))
    cyc = CycloValue(p, counts.tolist()) if counted else None
    value = cyc.to_complex() if counted else acc
    if spec.half_twist:
        value /= ctx.q ** (spec.half_twist / 2)
        cyc = None
    return SumValue(value=value, cyclo=cyc, n_points=n_points,
                    twist_zeros=twist_zeros)


def extension_sums(spec: SumSpec, p: int, N: int,
                   cap: int = DEFAULT_ENUM_CAP) -> PowerSumSequence:
    """S_1..S_N over the degree-1..N extensions, each in the field built on
    the least irreducible modulus.  Power sums do not depend on that model."""
    if N < 1:
        raise ValueError("N must be >= 1")
    values, cyclos = [], []
    for n in range(1, N + 1):
        if p ** (n * spec.nvars) > cap:
            raise CapExceeded(
                f"extension enumeration {p}^{n * spec.nvars} exceeds cap {cap}")
        ctx = FieldCtx(p, n, cap=max(cap, p ** n))
        out = extension_sum(spec, ctx, cap=cap)
        values.append(out.value)
        cyclos.append(out.cyclo)
    return PowerSumSequence(p=p, spec=spec, values=values, cyclos=cyclos)


# -- recurrence fitting -----------------------------------------------------------


@dataclass
class WeightProfile:
    p: int
    roots: list
    amplitudes: list
    signs: list
    mults: list
    weights: list
    residual: float
    rank: int
    condition: float

    def reconstruct(self, N: int) -> list:
        return [sum(a * r ** n for a, r in zip(self.amplitudes, self.roots))
                for n in range(1, N + 1)]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "p": self.p,
            "roots": [{"re": r.real, "im": r.imag, "sign": s, "mult": m}
                      for r, s, m in zip(self.roots, self.signs, self.mults)],
            "weights": self.weights,
            "residual": self.residual,
            "rank": self.rank,
            "condition": self.condition,
        }


def _pair_conjugates(roots: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Symmetrize near-conjugate pairs and snap near-real roots; improves
    stability without changing anything beyond tol."""
    roots = roots.astype(np.complex128).copy()
    used = [False] * len(roots)
    for i in range(len(roots)):
        if used[i]:
            continue
        if abs(roots[i].imag) <= tol * max(1.0, abs(roots[i])):
            roots[i] = complex(roots[i].real, 0.0)
            used[i] = True
            continue
        for j in range(i + 1, len(roots)):
            if used[j]:
                continue
            if abs(roots[j] - roots[i].conjugate()) <= tol * max(1.0, abs(roots[i])):
                mean = (roots[i] + roots[j].conjugate()) / 2
                roots[i], roots[j] = mean, mean.conjugate()
                used[i] = used[j] = True
                break
    return roots


def snap_weight(mag: float, p: int) -> float:
    """Nearest integer-or-half-integer w with |alpha| ~ p^{w/2}."""
    if mag <= 0:
        return float("-inf")
    w = 2 * math.log(mag) / math.log(p)
    return round(w * 2) / 2


def fit_recurrence(seq: PowerSumSequence, tol: float = 1e-6) -> WeightProfile:
    """Minimal linear recurrence of (S_n) within tol, roots and signed
    multiplicities.  Raises RankTooHigh when the sequence is too short
    (N must be at least 2*rank + 2).

    The detected rank is a lower bound for the number of underlying
    eigenvalues: opposite-sign cancellations collapse terms, and nearly equal
    magnitudes are ill-conditioned (see the reported `condition`); no
    completeness claim is made about the recovered spectrum."""
    S = np.array(seq.values, dtype=np.complex128)
    N = len(S)
    if N < 4:
        raise RankTooHigh(f"need at least 4 power sums, got {N}; raise N")
    m = N // 2
    H = np.array([[S[i + j] for j in range(m)] for i in range(m)])
    sv = np.linalg.svd(H, compute_uv=False)
    if sv[0] <= tol:
        return WeightProfile(p=seq.p, roots=[], amplitudes=[], signs=[],
                             mults=[], weights=[], residual=0.0, rank=0,
                             condition=1.0)
    rank = int(np.sum(sv > tol * sv[0]))
    if rank > N // 2 - 1:
        raise RankTooHigh(
            f"detected rank {rank} needs at least {2 * rank + 2} power sums, "
            f"got {N}; raise N")
    r = rank
    A = np.array([[S[t + k] for k in range(r)] for t in range(N - r)])
    b = np.array([S[t + r] for t in range(N - r)])
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    charpoly = np.concatenate(([1.0], -coeffs[::-1]))  # monic, high power first
    roots = _pair_conjugates(np.roots(charpoly))
    V = np.array([[rt ** n for rt in roots] for n in range(1, N + 1)])
    amps, *_ = np.linalg.lstsq(V, S, rcond=None)
    recon = V @ amps
    scale = max(np.max(np.abs(S)), 1e-300)
    residual = float(np.max(np.abs(S - recon)) / scale)
    signs = [1 if a.real >= 0 else -1 for a in amps]
    mults = [max(1, round(abs(a))) for a in amps]
    weights = [snap_weight(abs(rt), seq.p) for rt in roots]
    condition = float(sv[0] / sv[r - 1])
    return WeightProfile(p=seq.p, roots=[complex(rt) for rt in roots],
                         amplitudes=[complex(a) for a in amps],
                         signs=signs, mults=mults, weights=weights,
                         residual=residual, rank=r, condition=condition)


def weight_check(profile: WeightProfile, w_max: float,
                 mag_tol: float = 1e-3):
    """Every snapped weight <= w_max and every |alpha| within mag_tol
    relative of p^{w/2}.  Returns (passed, offenders)."""
    offenders = []
    for rt, w in zip(profile.roots, profile.weights):
        grid_mag = profile.p ** (w / 2) if w != float("-inf") else 0.0
        if w > w_max + 1e-9:
            offenders.append((rt, w, "weight above ceiling"))
        elif abs(abs(rt) - grid_mag) > mag_tol * max(grid_mag, 1e-300):
            offenders.append((rt, w, "magnitude off the p^{w/2} grid"))
    return not offenders, offenders


# -- mean-square diagnostics ---------------------------------------------------------


@dataclass
class MeanSquareReport:
    values: list
    monotone_increasing: bool
    final_gap: float  # |1 - Q_N|

    @property
    def N(self) -> int:
        return len(self.values)


def quasi_orthonormality(spec: SumSpec, p: int, N: int,
                         cap: int = DEFAULT_ENUM_CAP) -> MeanSquareReport:
    """Q_n = sum_x |t_n(x)|^2 for n = 1..N.  Only the finite data and its
    trend are reported; no limit claim is made."""
    values = []
    for n in range(1, N + 1):
        if p ** (n * spec.nvars) > cap:
            raise CapExceeded(f"extension {p}^{n} exceeds cap {cap}")
        ctx = FieldCtx(p, n, cap=max(cap, p ** n))
        total = sum(float(np.sum(np.abs(amp) ** 2 * (1 if mult is None else mult)))
                    for _, _, amp, mult, _, _ in summand_blocks(spec, ctx))
        values.append(total / ctx.q ** spec.half_twist)
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    return MeanSquareReport(values=values, monotone_increasing=monotone,
                            final_gap=abs(1.0 - values[-1]))


"""Exact Z[zeta_p] values for purely additive character sums.

A CycloValue stores the integer vector (c_0..c_{p-1}) of sum c_j zeta_p^j,
p prime.  The representation is unique modulo the all-ones vector (1 +
zeta + ... + zeta^{p-1} = 0); the canonical form subtracts the minimum so
min(c) = 0, making equality and hashing exact.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def zeta_table(p: int) -> np.ndarray:
    """e(j/p) for j in [0, p)."""
    return np.exp(2j * np.pi * np.arange(p) / p)


class CycloValue:
    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts):
        # the canonical form needs 1 + zeta + ... + zeta^{p-1} = 0 to be the
        # only relation, which holds exactly when p is prime
        if not is_prime(p):
            raise ValueError(f"cyclotomic order p must be >= 2 and prime, got {p}")
        counts = [int(c) for c in counts]
        if len(counts) != p:
            raise ValueError(f"need {p} counts, got {len(counts)}")
        lo = min(counts)
        if lo != 0:
            counts = [c - lo for c in counts]
        self.p = p
        self.counts = tuple(counts)

    @classmethod
    def zero(cls, p: int) -> "CycloValue":
        return cls(p, [0] * p)

    @classmethod
    def integer(cls, z: int, p: int) -> "CycloValue":
        return cls(p, [z] + [0] * (p - 1))

    @classmethod
    def root(cls, j: int, p: int, weight: int = 1) -> "CycloValue":
        return cls.integer(weight, p).rotate(j)

    def __add__(self, other):
        self._check(other)
        return CycloValue(self.p, [a + b for a, b in zip(self.counts, other.counts)])

    def __sub__(self, other):
        self._check(other)
        return CycloValue(self.p, [a - b for a, b in zip(self.counts, other.counts)])

    def __neg__(self):
        return CycloValue(self.p, [-c for c in self.counts])

    def __mul__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("CycloValue scales by integers only")
        return CycloValue(self.p, [c * k for c in self.counts])

    __rmul__ = __mul__

    def rotate(self, j: int) -> "CycloValue":
        """Multiply by zeta_p^j."""
        j %= self.p
        return CycloValue(self.p, self.counts[-j:] + self.counts[:-j])

    def _check(self, other):
        if not isinstance(other, CycloValue) or other.p != self.p:
            raise TypeError("mixed cyclotomic orders")

    def __eq__(self, other):
        return (isinstance(other, CycloValue)
                and self.p == other.p and self.counts == other.counts)

    def __hash__(self):
        return hash((self.p, self.counts))

    def is_integer(self) -> bool:
        """True when the value lies in Z, i.e. c_1 = ... = c_{p-1}."""
        return len(set(self.counts[1:])) <= 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        # c_0 + c*(zeta + ... + zeta^{p-1}) = c_0 - c
        return self.counts[0] - self.counts[1]

    def to_complex(self) -> complex:
        """High-precision rendering via fsum over the root table."""
        re = math.fsum(c * math.cos(2 * math.pi * j / self.p)
                       for j, c in enumerate(self.counts) if c)
        im = math.fsum(c * math.sin(2 * math.pi * j / self.p)
                       for j, c in enumerate(self.counts) if c)
        return complex(re, im)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        return f"CycloValue(p={self.p}, counts={self.counts})"

    def __str__(self):
        if self.is_integer():
            return str(self.as_integer())
        parts = []
        for j, c in enumerate(self.counts):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                term = f"z{j}" if c == 1 else f"{c}*z{j}"
                parts.append(term)
        return " + ".join(parts) if parts else "0"

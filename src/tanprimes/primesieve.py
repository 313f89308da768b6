"""Segmented sieve of Eratosthenes over (a, b] with log weights.

The base primes up to sqrt(b) come from the same segmented sieve, one level
down; the recursion stops below 4, where no composite needs striking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange, RangeTooLarge

CEILING = 2 ** 50
_SEGMENT = 1 << 18


@dataclass(frozen=True)
class PrimeBlock:
    lo: int
    hi: int
    primes: np.ndarray  # int64, strictly ascending, all in (lo, hi]
    logs: np.ndarray    # float64, natural logs of primes

    def __len__(self) -> int:
        return len(self.primes)


def _sieve_one(seg_lo: int, seg_hi: int, base: np.ndarray) -> np.ndarray:
    # Primes in [seg_lo, seg_hi), both ends integers, seg_lo >= 2.
    mask = np.ones(seg_hi - seg_lo, dtype=bool)
    for p in base:
        p = int(p)
        start = max(p * p, ((seg_lo + p - 1) // p) * p)
        if start >= seg_hi:
            continue
        mask[start - seg_lo:: p] = False
    out = np.nonzero(mask)[0] + seg_lo
    return out.astype(np.int64)


def sieve_segment(a: float, b: float, threads: int = 1) -> PrimeBlock:
    """Exactly the primes in (a, b], resolved as integers (floor(a), floor(b)].

    Real bounds are accepted because window endpoints are irrational.
    Segments are sieved in ascending order, in one thread. threads is
    accepted, for the benchmark replay that still passes it, and has no
    effect: the sieve is a small share of any run, and the pool lives in
    the per-point layers (see tanprimes.pool).
    """
    if not (a < b):
        raise InvalidRange(f"need a < b, got a={a}, b={b}")
    if a < 0:
        raise InvalidRange(f"need a >= 0, got a={a}")
    if b > CEILING:
        raise RangeTooLarge(f"b={b} exceeds ceiling 2^50")
    lo = math.floor(a)
    hi = math.floor(b)
    first = max(lo + 1, 2)
    if hi < first:
        return PrimeBlock(lo, hi, np.empty(0, dtype=np.int64), np.empty(0))
    root = math.isqrt(hi)
    base = sieve_segment(1, root).primes if root >= 2 else np.empty(0, dtype=np.int64)
    parts = [_sieve_one(s, min(s + _SEGMENT, hi + 1), base) for s in range(first, hi + 1, _SEGMENT)]
    primes = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return PrimeBlock(lo, hi, primes, np.log(primes.astype(np.float64)))

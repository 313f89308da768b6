"""Circle-method numerics: exponential sums, arc integrals, Fourier residuals.

Three finite exponential sums share one shape, sum of coeff * e(alpha * freq)
with integer frequencies:

  prime_exp_sum    over window primes, coefficient log p, frequency f(p);
  smooth_exp_sum   over the integer target grid, coefficient weight(m), frequency m;
  integer_exp_sum  over all integers in the window, coefficient 1, frequency f(n).

Each is sum_samples at one alpha, which returns the complex sums of a kind.
The full-circle quadrature sums the prime sum at every grid point, and the
Fourier residual sums c_h e(h y) over |h| <= H at every y: all of them
take their sums from one kernel, _exp_sums, the only code that forms the
phases alpha * freq.

Because frequencies are integers, alpha*freq is reduced mod 1 before the
exponential, as x - floor(x), which has the bits of np.mod(x, 1.0);
values at alpha and alpha+1 are then bit-identical, and the full-circle
uniform quadrature of the cubed prime sum reproduces the representation
count exactly once the grid beats 3*max(f).

A sum walks the tree of numpy's pairwise sum over its terms: each leaf of
at most _TERM_CHUNK terms builds its terms and sums them as one task, on
the thread pool when the caller opened one (see tanprimes.pool), and the
leaves join as numpy joins them. No array of every term is held, and the
bits are those of one np.sum over such an array, whatever the chunk or
the pool width. A short sum (at most 1 024 terms) is one leaf, and a task
takes a block of up to _TERM_CHUNK // n alphas over it as one 2-D array
whose rows np.sum(axis=1) adds with those same bits.

A longer sum runs its alphas one after another, one task per leaf, and
there a dyadic alpha = num/2^d (every point of a power-of-two --grid)
reads e(alpha*f) from a table of the 2^d roots of unity at index
(num*f) mod 2^d, when 2^d is at most the number of terms and
|num|*max|f| < 2^53. The table is built for that alpha alone, so one is
held at a time. The phase is then exact, each root is the np.exp the
per-term path would call, and the sum keeps its bits; any other alpha
exponentiates each term.

The cubed prime sum on a quadrature grid does not depend on the target, so
circle_integral caches it per (table, log weights, interval, grid), with
the trapezoid's endpoint halves applied: the O(grid * primes) exponentials
are paid once, and each further target costs one O(grid) contraction with
the same bits as a cold call.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings

import numpy as np

from . import pool
from .asymptotics import grid_weights
from .errors import GridTooCoarseWarning, InvalidParameter, Singular
from .seqeval import ValueTable, check_window_table, log_weights, value_table
from .window import WindowParams

_ALPHA_CHUNK = 2048
_TERM_CHUNK = 2 ** 16  # terms per pool task in _exp_sums, at most
# Cached cubed-sum grids; a k=2 full circle (M = 28 003) holds about 0.7 MB.
_CUBED_SUM_CACHE = 4


def _frac(x: np.ndarray) -> np.ndarray:
    # The phase x - floor(x) has the bits of np.mod(x, 1.0) for finite x,
    # at a sixteenth of its cost. np.mod takes fmod(x, 1) = x - trunc(x),
    # which is exact, and for x < 0 with a nonzero remainder adds 1, one
    # rounding of the real x - floor(x). x - floor(x) is that same real,
    # rounded once (exact when x >= 0), and both give +0.0 at integer x.
    fl = np.floor(x)
    return np.subtract(x, fl, out=fl)


def _freq_bound(freq: np.ndarray) -> int | None:
    # max(1, max |f|) for integer frequencies, None for any other dtype.
    # min and max, since np.abs(freq).max() makes a full-length temporary.
    if freq.dtype.kind not in "iu":
        return None
    return max(1, -int(freq.min()), int(freq.max())) if len(freq) else 1


def _dyadic(alpha: float, n: int, f_bound: int | None) -> tuple[int, int] | None:
    # alpha = num/den with den a power of two, when the roots-of-unity table
    # is exact and no longer than the n terms it serves (a tiny alpha such
    # as 2^-1074 would otherwise ask for 2^1074 roots); else None.
    if f_bound is None or not math.isfinite(alpha):
        return None
    num, den = alpha.as_integer_ratio()
    if den > n or abs(num) * f_bound >= 2 ** 53:
        return None
    return num, den


def _pairwise_layout(start: int, n: int, leaf: int):
    # The nodes of numpy's pairwise sum of the n complex128 terms from start:
    # a node above 64 terms splits after (n - n % 8) // 2 of them, and one of
    # at most 64 is added in a single loop. Nodes of at most leaf >= 64 terms
    # stay whole, as slices; larger ones are (left, right) pairs.
    if n <= leaf:
        return slice(start, start + n)
    half = (n - n % 8) // 2
    return (_pairwise_layout(start, half, leaf), _pairwise_layout(start + half, n - half, leaf))


def _join_layout(node, sums) -> np.ndarray:
    # The sums of a node from its leaves' sums (an iterator of arrays, one
    # sum per alpha, in order): a complex add is numpy's join, real + real
    # and imag + imag.
    if isinstance(node, slice):
        return next(sums)
    return _join_layout(node[0], sums) + _join_layout(node[1], sums)


def _flat_leaves(node) -> list[slice]:
    return [node] if isinstance(node, slice) else _flat_leaves(node[0]) + _flat_leaves(node[1])


def _exp_sums(coeff: np.ndarray, freq: np.ndarray, alphas) -> np.ndarray:
    # Sum of e(alpha * freq) * coeff at each alpha (floats, as a list or an
    # array), with the phase reduced mod 1 first; exact at integer alpha.
    # The only place that forms the phases alpha * freq. Each sum walks
    # numpy's pairwise tree over the whole array of terms: each leaf of at
    # most max(_TERM_CHUNK, 64) terms is one pool task that builds its terms
    # and returns their np.sum, and the leaves join as numpy joins them. So
    # no array of every term is ever held, and the bits are those of one
    # np.sum over that array, whatever the chunk or the pool width.
    #
    # A short sum, of n terms with at least 64 alphas to a _TERM_CHUNK
    # (n <= 1024 by default), is one leaf; a task takes a block of up to
    # _TERM_CHUNK // n alphas over it as one 2-D array of terms and sums
    # each row with np.sum(axis=1), the pairwise sum of a lone row; a block
    # exponentiates every term. A longer sum keeps its table instead (k=4's
    # 17 656 primes at --grid 256, on a 2-vCPU box: 0.36 s in blocks of 3
    # alphas, 0.02 s with it): the alphas run one after another, each with
    # one task per leaf, and a dyadic alpha = num/den (every point of a
    # power-of-two grid) takes e(alpha * f) from a table of den roots of
    # unity, built for that alpha alone, with the same bits: |num * f| <
    # 2^53, so alpha * f = num * f / den is exact in float64 and num * f
    # exact in int64; its phase is exactly r/den, r = (num * f) mod den,
    # which the mask with den - 1 gives for either sign. Root r is np.exp of
    # the float the general path hands np.exp for that phase. Any other
    # alpha (non-dyadic, non-finite, too large, or over frequencies of a
    # non-integer dtype) exponentiates each term.
    #
    # The exponential multiplies the coefficient, never the other way: for
    # complex coefficients numpy's product is not bit-commutative.
    n = len(freq)
    layout = _pairwise_layout(0, n, max(_TERM_CHUNK, 64))
    leaves = _flat_leaves(layout)
    f_bound = _freq_bound(freq)

    def run(rows, table, leaf):
        if table is None:
            terms = np.exp(2j * np.pi * _frac(np.multiply.outer(alphas[rows], freq[leaf])))
        else:
            num, roots = table
            r = num * freq[leaf].astype(np.int64, copy=False)
            r &= len(roots) - 1
            terms = roots[r][None, :]
        terms *= coeff[leaf]  # in place: a fresh product array costs page faults
        return np.sum(terms, axis=1)

    def one(i):  # the sum at alphas[i], from its own table if it has one
        ratio = _dyadic(float(alphas[i]), n, f_bound)
        table = ratio and (ratio[0], np.exp(2j * np.pi * (np.arange(ratio[1]) / ratio[1])))
        sums = pool.map_chunks(functools.partial(run, slice(i, i + 1), table), leaves)
        return _join_layout(layout, iter(sums))[0]

    if 64 * n > _TERM_CHUNK:
        return np.array([one(i) for i in range(len(alphas))], dtype=complex)
    block = _TERM_CHUNK // max(n, 1)
    blocks = [slice(s, s + block) for s in range(0, len(alphas), block)]
    sums = pool.map_chunks(functools.partial(run, table=None, leaf=layout), blocks)
    return np.concatenate([np.empty(0, complex)] + sums)


def prime_exp_sum(values: ValueTable, logs: np.ndarray, alpha: float) -> complex:
    """Sum of log(p) * e(alpha * f(p)) over the table's primes."""
    return sum_samples("prime", [alpha], None, values, logs)[0]


def smooth_exp_sum(w: WindowParams, alpha: float) -> complex:
    """Sum of weight(m) * e(alpha * m) over the integer target grid."""
    return sum_samples("smooth", [alpha], w)[0]


@functools.lru_cache(maxsize=8)
def _integer_freqs(w: WindowParams) -> np.ndarray:
    check_window_table(w, primes=False)
    lo = math.floor(w.delta1) + 1
    hi = math.floor(w.delta2)
    f = value_table(np.arange(lo, hi + 1), w.c, w.theta).f
    f.flags.writeable = False  # shared by every caller
    return f


def integer_exp_sum(w: WindowParams, alpha: float) -> complex:
    """Sum of e(alpha * f(n)) over every integer n in (delta1, delta2]."""
    return sum_samples("integer", [alpha], w)[0]


def _terms(kind: str, w: WindowParams | None, values: ValueTable | None,
           logs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    # The coefficients and frequencies of one of the three sums.
    if kind == "prime":
        if values is None or logs is None:
            raise InvalidParameter("prime sums need the value table and log weights")
        return log_weights(values, logs), values.f
    if kind not in ("smooth", "integer"):
        raise InvalidParameter(f"unknown sum kind {kind!r}")
    if w is None:
        raise InvalidParameter(f"{kind} sums need the window")
    if kind == "smooth":
        m, wt = grid_weights(w)
        return wt, m
    freq = _integer_freqs(w)
    return np.ones(len(freq)), freq


def sum_samples(
    kind: str,
    alphas,
    w: WindowParams | None,
    values: ValueTable | None = None,
    logs: np.ndarray | None = None,
) -> list[complex]:
    """One of the three sums ("prime", "smooth" or "integer") at each alpha.

    The coefficients and frequencies are resolved once, before any sum
    runs, so the pool inside _exp_sums never enters a cached function.
    A prime sum reads values and logs, the other two the window w.
    """
    coeff, freq = _terms(kind, w, values, logs)
    return _exp_sums(coeff, freq, [float(a) for a in alphas]).tolist()


@functools.lru_cache(maxsize=_CUBED_SUM_CACHE)
def _cubed_sums(
    f_bytes: bytes, log_bytes: bytes, a: float, b: float, M: int
) -> tuple[np.ndarray, np.ndarray]:
    # The grid a + j h, j = 0..M, and the prime sum cubed on it, halved at
    # j = 0 and M for the trapezoid (exact, so it keeps the bits of halving
    # those integrands). Read-only, since every caller shares them.
    alphas = a + np.arange(M + 1, dtype=np.float64) * ((b - a) / M)
    S3 = _exp_sums(np.frombuffer(log_bytes), np.frombuffer(f_bytes, dtype=np.int64), alphas) ** 3
    S3[[0, M]] *= 0.5
    alphas.flags.writeable = S3.flags.writeable = False
    return alphas, S3


def circle_integral(
    values: ValueTable,
    logs: np.ndarray,
    N: int,
    interval: tuple[float, float] = (0.0, 1.0),
    grid_size: int = 1024,
) -> complex:
    """Composite trapezoid of (prime sum)^3 * e(-N alpha) over the interval.

    On the full circle [0, 1] with grid_size above 3*max(f) the uniform sum
    is exact by discrete orthogonality and equals the weighted ternary
    count; a coarser full-circle grid draws a GridTooCoarseWarning. On
    partial intervals this is plain quadrature with ordinary grid error.

    The cubed prime sum on the grid, O(grid * primes) exponentials, is
    computed once per (table, log weights, interval, grid) and kept in a
    small cache; each call then pays one O(grid) contraction against
    e(-N alpha). Cached and cold calls give the same bits.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (a < b):
        raise InvalidParameter(f"empty interval [{a}, {b}]")
    if b - a > 1.0 + 1e-12:
        raise InvalidParameter("interval longer than the full circle")
    M = int(grid_size)
    if M < 16:
        raise InvalidParameter(f"grid_size must be at least 16, got {M}")
    logs = log_weights(values, logs)
    f_max = int(values.f.max()) if len(values) else 0
    if b - a >= 1.0 - 1e-12 and M <= 3 * f_max:
        warnings.warn(
            f"full-circle grid {M} not above 3*f_max = {3 * f_max}; sum is not exact",
            GridTooCoarseWarning,
            stacklevel=2,
        )
    alphas, S3 = _cubed_sums(values.f.astype(np.int64).tobytes(), logs.tobytes(), a, b, M)
    total = 0.0 + 0.0j
    for chunk in (slice(s, s + _ALPHA_CHUNK) for s in range(0, M + 1, _ALPHA_CHUNK)):
        total += complex(np.sum(S3[chunk] * np.exp(-2j * np.pi * _frac(alphas[chunk] * N))))
    return total * ((b - a) / M)


def fourier_coeff(x: float, h: int) -> complex:
    """Closed-form coefficient (1 - e(-x)) / (2 pi i (h + x))."""
    if abs(h + x) < 1e-12:
        raise Singular(f"coefficient denominator vanishes at h={h}, x={x}")
    # reduce the phase mod 1 so an integer x yields an exact zero numerator
    return (1.0 - cmath.exp(-2j * math.pi * (x % 1.0))) / (2j * math.pi * (h + x))


def fourier_expansion_residual(y_grid, x: float, H: int) -> dict:
    """Truncation residual of the finite expansion of e(-x {y}).

    Compares e(-x*frac(y)) against sum over |h| <= H of c_h(x) e(h y) on
    the given points and reports residual statistics next to the reference
    envelope min(1, 1/(H ||y||)), where ||y|| is the distance from y to
    the nearest integer.
    """
    if H < 3:
        raise InvalidParameter(f"H must be at least 3, got {H}")
    y = np.asarray(y_grid, dtype=np.float64)
    fy = np.mod(y, 1.0)
    lhs = np.exp(-2j * np.pi * x * fy)
    hs = np.arange(-H, H + 1)
    # integer x degenerates (every coefficient 0, one denominator 0); the
    # Singular raised by fourier_coeff is the documented behaviour there.
    cs = np.array([fourier_coeff(x, int(h)) for h in hs])
    rhs = _exp_sums(cs, hs, y)
    resid = np.abs(lhs - rhs)
    norm = np.minimum(fy, 1.0 - fy)
    bound = np.minimum(1.0, 1.0 / (H * np.maximum(norm, 1e-300)))
    ratio = resid / bound
    return {
        "points": int(len(y)),
        "mean_residual": float(np.mean(resid)),
        "max_residual": float(np.max(resid)),
        "mean_ratio": float(np.mean(ratio)),
        "max_ratio": float(np.max(ratio)),
    }

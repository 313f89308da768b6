"""Circle-method numerics: exponential sums, arc integrals, Fourier residuals.

Three finite exponential sums share one shape, sum of coeff * e(alpha * freq)
with integer frequencies:

  prime_exp_sum    over window primes, coefficient log p, frequency f(p);
  smooth_exp_sum   over the integer target grid, coefficient weight(m), frequency m;
  integer_exp_sum  over all integers in the window, coefficient 1, frequency f(n).

Each is sum_samples at one alpha. They, the full-circle quadrature and the
Fourier residual take their sums from one kernel, _exp_sums, which forms
the phases alpha * freq of every sum, and one rule picks the route: an
alpha's exact ratio num/d. An alpha is exactly num/d when it is a Fraction
(expsum hands over (2j - G)/(2G) as one), or a finite float whose d is
below the number of terms n; with integer frequencies the phase of
alpha * f is then exactly ((num * (f mod d)) mod d) / d, an index into one
table of the d roots of unity, _roots(d). A sum with real coefficients and
d < n takes it from the d sums of its coefficients by residue class mod d,
built in one serial pass over the terms, a chunk at a time, mod the lcm of
the call's class dens (one pass per den if that lcm would reach n), and
exact before one rounding each; every other exact alpha gathers each
term's root from the same table. On the full circle alpha is handed over
as an integer numerator j over the grid's M, and every term gathers from
_roots(M). So one roots table and one gather serve every exact phase, and
for real coefficients S(-alpha) is conj S(alpha) bit for bit. Floats
remain where alpha is not such a ratio: the points of a partial arc and
the Fourier residual's points y that are floats with d >= n (every one
but a few dyadic ones such as 0), NaN and +-inf, and a Fraction with d
over _PAIR_SPAN_GUARD. Their terms exponentiate the float phase
alpha * freq. Two more phases are formed outside the kernel:
circle_integral's contraction against e(-N alpha) reads e(-j N / M) from
_roots(M) at (-j N) mod M on the full circle and forms alpha * N on a
partial arc, and fourier_expansion_residual's left-hand side e(-x frac(y))
forms x * frac(y). _frac reduces the float phases alpha * freq, alpha * N
and y mod 1 as x - floor(x) (the bits of np.mod(x, 1.0) for finite x), so
that every integer alpha has phase 0. The route depends on the alpha, the
number of terms, whether the frequencies are integers and whether the
coefficients are real, so no bit depends on the pool width, the term
chunk or the other alphas of a call.

The cubed prime sum on a quadrature grid does not depend on the target, so
circle_integral caches it per (table, log weights, interval, grid), with
the trapezoid's endpoint halves applied: the O(grid * primes) terms are
paid once, and each further target costs one O(grid) contraction with the
same bits as a cold call. On the full circle the log weights are real and
roots[M - r] is conj(roots[r]), so only j <= M/2 is summed and every other
point is an exact conjugate.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from fractions import Fraction

import numpy as np

from . import pool
from .asymptotics import grid_weights
from .errors import GridTooCoarseWarning, InvalidParameter, Singular, TooLarge
from .repcount import _PAIR_SPAN_GUARD, _cut_slices, _join_slices, _slice_units
from .seqeval import ValueTable, check_window_table, log_weights, value_table
from .window import WindowParams

_ALPHA_CHUNK = 2048
_TERM_CHUNK = 2 ** 16  # terms per pool task in _exp_sums and per class-sum chunk, at most
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


def _near_mod(x: np.ndarray, den: int, scratch: np.ndarray) -> np.ndarray:
    # x less den times its float quotient, in place, for 0 <= x < 2^52 and
    # den >= 1, through scratch, an int64 array of x's shape; returns x.
    # x is exact as a float, and fl(x * fl(1/den)) is within x/den * 2^-52
    # < 1/den of x/den, so its truncation (x >= 0) is floor(x/den) or one
    # off either way: x keeps its class mod den and lands in [-den, 2den),
    # and np.take(mode="wrap") adds or takes den at most once. Cheaper than
    # np.remainder, which divides in integers.
    np.multiply(x, 1.0 / den, out=scratch, casting="unsafe")
    scratch *= den
    x -= scratch
    return x


@functools.lru_cache(maxsize=1)
def _roots(M: int) -> np.ndarray:
    # e(r/M) for r = 0..M-1, read-only: the lower half from np.exp, the
    # upper half their exact conjugates (roots[M - r] == conj(roots[r])),
    # and roots[M/2] = -1 for even M, which is its own conjugate.
    h = M // 2
    roots = np.empty(M, dtype=complex)
    roots[:h + 1] = np.exp(2j * np.pi * (np.arange(h + 1) / M))
    if M % 2 == 0:
        roots[h] = -1.0
    roots[h + 1:] = np.conj(roots[M - h - 1:0:-1])
    roots.flags.writeable = False
    return roots


def _ratio(alpha, n: int) -> tuple[int, int] | None:
    # (num, d) with alpha = num/d in lowest terms and d at most
    # _PAIR_SPAN_GUARD, for a Fraction, or for any other alpha taken as a
    # float when that is finite and its d is below the n terms (2^-1074
    # would ask for 2^1074 classes); else None.
    if not isinstance(alpha, Fraction):
        alpha = float(alpha)
        if not math.isfinite(alpha) or alpha.as_integer_ratio()[1] >= n:
            return None
    num, d = alpha.as_integer_ratio()
    return (num, d) if d <= _PAIR_SPAN_GUARD else None


def _pairwise(start: int, n: int, leaf: int, at):
    # at(s) summed over numpy's pairwise tree of the n complex128 terms from
    # start: a node above 64 terms splits after (n - n % 8) // 2 of them,
    # each node of at most leaf >= 64 terms is one slice s, visited left to
    # right, and a complex add is numpy's join, real + real, imag + imag.
    if n <= leaf:
        return at(slice(start, start + n))
    half = (n - n % 8) // 2
    return _pairwise(start, half, leaf, at) + _pairwise(start + half, n - half, leaf, at)


def _class_sums(coeff: np.ndarray, freq: np.ndarray, dens) -> dict | None:
    # d -> V_d for each d in dens, whose lcm L is below the n terms: the
    # class sums that _exp_sums contracts with _roots(d), V_d[r] being
    # W_d[r] - W_1/d (W_1 at d = 1) rounded once, W_d[r] the sum of the real
    # coefficients with frequency r mod d; None if one is not finite or
    # reaches 2^970. One serial pass over the terms, a chunk at a time, cuts
    # the coefficients into exact slices (_slice_units with rows n) and
    # np.bincount sums each slice per class f mod L: every partial sum is an
    # integer below 2^52 units, so the class sums and their folds to each d
    # (class r mod L is class r mod d) are exact in any order, and
    # _join_slices rounds each once, -W_1/d one more slice. So V_d does not
    # depend on L.
    n, L = len(freq), math.lcm(*dens)
    step = max(_TERM_CHUNK, 64)
    chunks = [slice(s, s + step) for s in range(0, n, step)]
    units = _slice_units(n, coeff)
    if units is None:
        return None
    acc = np.zeros((len(units), L))
    for c in chunks:
        cls = (freq[c] % L).astype(np.intp, copy=False)
        for j, part in enumerate(_cut_slices(coeff[c].astype(np.float64), units)):
            acc[j] += np.bincount(cls, weights=part, minlength=L)
    W_1 = _join_slices(acc.sum(axis=1, keepdims=True))
    return {d: _join_slices(np.vstack([acc.reshape(len(acc), L // d, d).sum(axis=1),
                                       np.full(d, -W_1[0] / d)])) if d > 1 else W_1
            for d in dens}


def _exp_sums(coeff: np.ndarray, freq: np.ndarray, alphas, den: int | None = None) -> np.ndarray:
    # Sum of e(alpha * freq) * coeff at each alpha of a sequence. Given den
    # (at most _PAIR_SPAN_GUARD), alphas are integer numerators j of j/den
    # instead, for integer frequencies: each term reads its phase from
    # _roots(den) at (j * (f mod den)) mod den, which is below 2^52 before
    # the reduction (_near_mod), so the phase is exact.
    #
    # Otherwise an alpha's exact ratio picks its route. With integer
    # frequencies, an alpha that _ratio gives as num/d has the exact phase
    # (num * (f mod d)) mod d over d, and is summed by the gather above at
    # numerator num mod d over den = d. With real coefficients and d below
    # the n terms, the gather reads the d class sums V_d of _class_sums, a
    # sum with frequencies r = 0..d-1, in place of the n terms (unless
    # _class_sums returns None): one pass over the terms mod the lcm of those
    # dens when it is below n, else one pass per den, so that no alpha's
    # bits depend on the other alphas. For d > 1, num is prime to d and the
    # roots sum to 0, so V_d stands for W_d: the rounded roots weigh only the
    # classes' deviations from their mean. Any other alpha (a float with
    # d >= n, NaN, +-inf, a Fraction with d over _PAIR_SPAN_GUARD, or any
    # alpha of float frequencies) is summed per term from the float phase
    # alpha * f reduced mod 1.
    # The terms of a gather or a per-term sum go in blocks of up to
    # _TERM_CHUNK // n alphas (at least one) over each leaf of _pairwise's
    # tree; np.sum(axis=1) sums each row of a task's terms as it sums a lone
    # row. The root or exponential multiplies the coefficient, never the
    # other way: numpy's complex product is not bit-commutative.
    n = len(freq)
    if den is None:
        ratios = [_ratio(a, n) if freq.dtype.kind in "iu" else None for a in alphas]
        exact = {}  # d -> the rows of the alphas num/d; None -> the rest
        for i, r in enumerate(ratios):
            exact.setdefault(r and r[1], []).append(i)
        rest = np.array(exact.pop(None, []), dtype=np.intp)
        class_dens = [] if np.iscomplexobj(coeff) else [d for d in exact if d < n]
        classes = {}
        for group in [class_dens] if math.lcm(*class_dens) < n else [[d] for d in class_dens]:
            classes.update(group and _class_sums(coeff, freq, group) or {})
        out = np.empty(len(ratios), dtype=complex)
        for d, rows in exact.items():
            terms = (classes[d], np.arange(d)) if d in classes else (coeff, freq)
            out[rows] = _exp_sums(*terms, [ratios[i][0] % d for i in rows], den=d)
        alphas = np.array([float(alphas[i]) for i in rest], dtype=np.float64)
    else:
        alphas = np.asarray(alphas, dtype=np.int64) % den
        table, freq = _roots(den), (freq % den).astype(np.int64, copy=False)
        out, rest = np.empty(len(alphas), dtype=complex), np.arange(len(alphas))
    leaf = max(_TERM_CHUNK, 64)
    leaves = _pairwise(0, n, leaf, lambda s: [s])  # + joins lists
    block = max(1, min(len(rest), _TERM_CHUNK // max(n, 1)))
    blocks = [slice(s, s + block) for s in range(0, len(rest), block)]

    def run(task):
        rows, s = task
        if den is None:
            terms = 2j * np.pi * _frac(np.multiply.outer(alphas[rows], freq[s]))
            np.exp(terms, out=terms)  # in place, as the product below
        else:
            phases = np.multiply.outer(alphas[rows], freq[s])
            terms = np.empty(phases.shape, dtype=complex)
            _near_mod(phases, den, terms.view(np.int64)[:, :phases.shape[1]])
            np.take(table, phases, mode="wrap", out=terms)
        terms *= coeff[s]  # in place: a fresh product array costs page faults
        return np.sum(terms, axis=1)

    sums = iter(pool.map_chunks(run, [(rows, s) for rows in blocks for s in leaves]))
    for rows in blocks:
        out[rest[rows]] = _pairwise(0, n, leaf, lambda s: next(sums))
    return out


def prime_exp_sum(values: ValueTable, logs: np.ndarray, alpha: float | Fraction) -> complex:
    """Sum of log(p) * e(alpha * f(p)) over the table's primes."""
    return sum_samples("prime", [alpha], None, values, logs)[0]


def smooth_exp_sum(w: WindowParams, alpha: float | Fraction) -> complex:
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


def integer_exp_sum(w: WindowParams, alpha: float | Fraction) -> complex:
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

    An alpha is a float or a Fraction; a Fraction is summed at its exact
    value, and so is a float whose denominator is below the number of terms.
    The coefficients and frequencies are resolved once, before any sum
    runs, so the pool inside _exp_sums never enters a cached function.
    A prime sum reads values and logs, the other two the window w.
    """
    coeff, freq = _terms(kind, w, values, logs)
    return _exp_sums(coeff, freq, list(alphas)).tolist()


@functools.lru_cache(maxsize=_CUBED_SUM_CACHE)
def _cubed_sums(
    f_bytes: bytes, log_bytes: bytes, a: float, b: float, M: int
) -> tuple[np.ndarray, np.ndarray]:
    # The grid a + j h, j = 0..M, and the prime sum cubed on it, halved at
    # j = 0 and M for the trapezoid (exact, so it keeps the bits of halving
    # those integrands). Read-only, since every caller shares them. On the
    # full circle the grid is _roots(M) instead of the alphas j/M, and S3
    # holds j <= M/2 only: S(M - j) is conj(S(j)) for the real log weights,
    # and S(M) is S(0).
    logs, f = np.frombuffer(log_bytes), np.frombuffer(f_bytes, dtype=np.int64)
    if (a, b) == (0.0, 1.0):
        grid = _roots(M)
        S3 = _exp_sums(logs, f, np.arange(M // 2 + 1), den=M) ** 3
        S3[0] *= 0.5
    else:
        grid = a + np.arange(M + 1, dtype=np.float64) * ((b - a) / M)
        S3 = _exp_sums(logs, f, grid) ** 3
        S3[[0, M]] *= 0.5
        grid.flags.writeable = False
    S3.flags.writeable = False
    return grid, S3


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
    A grid_size above 2^26 raises TooLarge before any work.

    The cubed prime sum on the grid, O(grid * primes) terms, is computed
    once per (table, log weights, interval, grid) and kept in a small
    cache; each call then pays one O(grid) contraction against
    e(-N alpha). Cached and cold calls give the same bits. On the interval
    (0.0, 1.0) exactly, alpha = j/M and every phase is an exact integer
    over M: the prime sums and e(-j N / M) are read from one table of the
    M roots of unity, with no exponential per term or per target. Any
    other interval forms its grid alpha = a + j h in floating point, and
    the prime sum takes each point by _exp_sums' rule: float phases,
    except at a point num/d with d below the primes, such as 0.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (a < b):
        raise InvalidParameter(f"empty interval [{a}, {b}]")
    if b - a > 1.0 + 1e-12:
        raise InvalidParameter("interval longer than the full circle")
    M = int(grid_size)
    if M < 16:
        raise InvalidParameter(f"grid_size must be at least 16, got {M}")
    if M > _PAIR_SPAN_GUARD:
        raise TooLarge(f"grid_size {M} exceeds the guard of {_PAIR_SPAN_GUARD} points")
    logs = log_weights(values, logs)
    f_max = int(values.f.max()) if len(values) else 0
    if b - a >= 1.0 - 1e-12 and M <= 3 * f_max:
        warnings.warn(
            f"full-circle grid {M} not above 3*f_max = {3 * f_max}; sum is not exact",
            GridTooCoarseWarning,
            stacklevel=2,
        )
    grid, S3 = _cubed_sums(values.f.astype(np.int64).tobytes(), logs.tobytes(), a, b, M)
    full, step = (a, b) == (0.0, 1.0), (-N) % M
    total = 0.0 + 0.0j
    for s in range(0, M + 1, _ALPHA_CHUNK):
        chunk = slice(s, min(s + _ALPHA_CHUNK, M + 1))
        if full:  # S3 at j from its half, e(-j N / M) from the roots
            j = np.arange(chunk.start, chunk.stop)
            S = S3[np.minimum(j, M - j)]
            np.conjugate(S, out=S, where=(j > M // 2) & (j < M))
            e = grid[j * step % M]
        else:
            S, e = S3[chunk], np.exp(-2j * np.pi * _frac(grid[chunk] * N))
        total += complex(np.sum(S * e))
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
    the nearest integer. An empty or non-finite y_grid raises
    InvalidParameter before any work.
    """
    if H < 3:
        raise InvalidParameter(f"H must be at least 3, got {H}")
    y = np.asarray(y_grid, dtype=np.float64)
    if not (y.size and np.isfinite(y).all()):
        raise InvalidParameter("y_grid must hold at least one point, every one finite")
    fy = _frac(y)
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

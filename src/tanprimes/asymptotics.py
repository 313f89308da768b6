"""Main terms, exact smooth convolutions, and band scans against the main term.

The predicted density for targets near the top of a window is
delta2^(1-c) * X^2 / (2^theta c + 5 theta 2^(theta-1)) with X = delta2;
the denominator is the forward-map derivative factor at tan = 2, so the
whole expression equals weight(t(delta2)) * X^2. How well that closed
form predicts the observed weighted counts at desk scale is recorded, not
assumed: see the band statistics in tests/fixtures/desk_scale_band.json.

The singular integral, the triple convolution of the weights over the
integer grid, is what the weighted counts are checked against. Its ratio
to the closed form settles at a constant C(c, theta) (0.02588 at k = 2,
0.02583 at k = 3 and 4, for c = 1.02, theta = 1.5) because the window
shape repeats in log y, so no window size closes that gap.
"""
from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BandTooWide, InvalidParameter
from .repcount import BandScan, _add_slices, _slice_units, self_convolution
from .window import WindowParams, weight

_GRID_GUARD = 10 ** 7
# Windows whose k = 3 pair sums are kept; 16 bytes per grid point each.
_PAIR_SUM_CACHE = 4


@dataclass(frozen=True)
class BandComparison:
    """A band scan against the main term: ratio[i] = scan.weighted[i] / main_term."""

    main_term: float
    ratio: np.ndarray    # float64, one entry per target of the scan


def main_term(w: WindowParams) -> float:
    """Predicted weighted count: delta2^(1-c) X^2 / (2^theta c + 5 theta 2^(theta-1))."""
    denom = 2.0 ** w.theta * w.c + 5.0 * w.theta * 2.0 ** (w.theta - 1.0)
    return w.delta2 ** (1.0 - w.c) * w.x * w.x / denom


def classical_main_term(c: float, N: int) -> float:
    """Predicted weighted count for the plain power variant [p^c].

    gamma(1+1/c)^3 / gamma(3/c) * N^(3/c - 1), with math.gamma. c = 1 is
    allowed as a numerical boundary (value N^2/2 exactly in the limit).
    """
    if not 1.0 <= c < math.inf:
        raise InvalidParameter(f"need finite c >= 1, got {c}")
    if N < 0:
        raise InvalidParameter(f"target must be nonnegative, got {N}")
    return math.gamma(1.0 + 1.0 / c) ** 3 / math.gamma(3.0 / c) * float(N) ** (3.0 / c - 1.0)


@functools.lru_cache(maxsize=8)
def grid_weights(w: WindowParams) -> tuple[np.ndarray, np.ndarray]:
    """Integer target grid (n1, n_star] with smooth weights, both read-only."""
    m_lo = math.floor(w.n1) + 1
    size = w.n_star - m_lo + 1
    if size <= 0:
        raise InvalidParameter(f"empty target grid for window k={w.k}")
    if size > _GRID_GUARD:
        raise BandTooWide(f"target grid has {size} points, guard is {_GRID_GUARD}")
    m = np.arange(m_lo, w.n_star + 1, dtype=np.int64)
    wt = weight(m, w)
    m.flags.writeable = wt.flags.writeable = False  # shared by every caller
    return m, wt


@functools.lru_cache(maxsize=_PAIR_SUM_CACHE)
def _pair_sums(w: WindowParams) -> np.ndarray:
    # Entry s - 2 m_lo: sum over m1 + m2 = s of w(m1) w(m2), for s in
    # [2 m_lo, 2 m_hi]. NaN until weight_convolution fills it in; read-only
    # outside that fill.
    m, _ = grid_weights(w)
    P = np.full(2 * len(m) - 1, np.nan)
    P.flags.writeable = False
    return P


def _pair_products(wt: np.ndarray, m_lo: int, m_hi: int, s: int) -> np.ndarray:
    # w(m1) w(m2) over m1 + m2 = s, m1 ascending; s in [2 m_lo, 2 m_hi]
    a, b = max(m_lo, s - m_hi), min(m_hi, s - m_lo)
    return wt[a - m_lo: b - m_lo + 1] * wt[s - b - m_lo: s - a - m_lo + 1][::-1]


def weight_convolution(w: WindowParams, N: int, k: int) -> float:
    """Exact k-fold convolution of the smooth weights at target N.

    Sum over m_1 + ... + m_k = N with every m_i in the integer grid
    (n1, n_star] of the product of weights. k = 1 reduces to weight(N)
    (identical call, so the value is bit-exact), k = 2 uses a correctly
    rounded sum and is exactly symmetric under grid reversal. k = 3
    contracts the pair sums P(s) = sum of w(m1) w(m2) over m1 + m2 = s
    against the third factor with a correctly rounded sum. Each P(s) costs
    O(grid) multiplies and is kept per window, so the O(grid^2) work is
    paid once per window and each further target costs O(grid); a target
    computes only the P(s) it reads that no earlier target did. Cached
    and cold calls give the same bits.
    """
    if k not in (1, 2, 3):
        raise InvalidParameter(f"k must be 1, 2 or 3, got {k}")
    N = int(N)
    m, wt = grid_weights(w)
    m_lo = int(m[0])
    m_hi = int(m[-1])

    if k == 1:
        if m_lo <= N <= m_hi:
            return weight(float(N), w)
        return 0.0

    if k == 2:
        return math.fsum(_pair_products(wt, m_lo, m_hi, N)) if 2 * m_lo <= N <= 2 * m_hi else 0.0

    # k == 3: partial pair convolutions contracted against the third factor.
    s_lo = max(2 * m_lo, N - m_hi)
    s_hi = min(2 * m_hi, N - m_lo)
    if s_lo > s_hi:
        return 0.0
    P = _pair_sums(w)
    missing = np.flatnonzero(np.isnan(P[s_lo - 2 * m_lo: s_hi - 2 * m_lo + 1])) + s_lo
    if len(missing):
        P.flags.writeable = True
        try:
            for s in missing.tolist():
                P[s - 2 * m_lo] = float(np.sum(_pair_products(wt, m_lo, m_hi, s)))
        finally:
            P.flags.writeable = False
    pairs = P[s_lo - 2 * m_lo: s_hi - 2 * m_lo + 1]
    third = wt[N - s_hi - m_lo: N - s_lo - m_lo + 1][::-1]
    return math.fsum(pairs * third)


def singular_integral(w: WindowParams, lo: int, hi: int) -> np.ndarray:
    """Triple weight convolution at every target N in [lo, hi].

    Entry N - lo is the sum over m1 + m2 + m3 = N, every m_i in the integer
    grid (n1, n_star], of w(m1) w(m2) w(m3): the same quantity as
    weight_convolution(w, N, 3), computed for a whole band at once. The
    pair convolution comes from repcount.self_convolution and each N is one
    contraction against the third factor, summed by the fixed pairwise
    layout of np.sum over a contiguous product (never BLAS). Targets
    outside [3 m_lo, 3 m_hi] get exactly 0.0.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise InvalidParameter(f"empty target range [{lo}, {hi}]")
    m, wt = grid_weights(w)
    m_lo = int(m[0])
    m_hi = int(m[-1])
    out = np.zeros(hi - lo + 1)
    a = max(lo, 3 * m_lo)
    b = min(hi, 3 * m_hi)
    if a > b:
        return out

    # No summand of a target <= b exceeds b - 2 m_lo, and the pair sums that
    # the contraction reads only involve summands up to that point, so the
    # rest of the grid is dropped before the FFT.
    top = min(m_hi, b - 2 * m_lo)
    v = wt[: top - m_lo + 1]
    pair = self_convolution(v, 2 * len(v) - 1)  # pair[j]: sum over m1 + m2 = 2 m_lo + j
    for N in range(a, b + 1):
        s_lo = max(2 * m_lo, N - top)
        s_hi = min(2 * top, N - m_lo)
        left = pair[s_lo - 2 * m_lo: s_hi - 2 * m_lo + 1]
        right = v[N - s_hi - m_lo: N - s_lo - m_lo + 1][::-1]
        out[N - lo] = np.sum(left * right)
    return out


def compare_report(scan: BandScan, w: WindowParams) -> BandComparison:
    """Observed weighted counts against the window main term, as one ratio column."""
    if not len(scan):
        raise InvalidParameter("compare_report needs a nonempty scan")
    mt = main_term(w)
    return BandComparison(mt, scan.weighted / mt if mt > 0 else np.zeros(len(scan)))


def _exact_mean(x: np.ndarray) -> float:
    """statistics.mean of x's entries: their exact sum divided by len(x), rounded once.

    A finite column below 2^970 is cut into exact slice sums (repcount's
    _add_slices), which add up as a few Fractions; any other column takes
    statistics.mean itself.
    """
    mag = np.abs(x)
    top = float(mag.max())
    if not top < 2.0 ** 970:          # NaN, an infinity, or too large to cut
        return statistics.mean(x.tolist())
    units = _slice_units(top, float(np.min(mag, where=mag > 0, initial=np.inf)), len(x))
    acc = np.zeros((len(units), 1))
    _add_slices(x[:, None].copy(), units, acc)
    return float(sum(map(Fraction, acc[:, 0].tolist())) / len(x))


def _median(x: np.ndarray) -> float:
    """statistics.median of x's entries: the middle one, or the mean of the middle two.

    np.partition picks the middle values that a sort of the column would;
    a column with a NaN, or with a -0.0 (which of two equal zeros is the
    middle one only a stable sort decides), takes statistics.median itself.
    """
    if np.isnan(x).any() or (np.signbit(x) & (x == 0)).any():
        return statistics.median(x.tolist())
    mid = len(x) // 2
    if len(x) % 2:
        return float(np.partition(x, mid)[mid])
    lo, hi = np.partition(x, [mid - 1, mid])[mid - 1:mid + 1].tolist()
    return (lo + hi) / 2


def band_stats(scan: BandScan, cmp: BandComparison) -> dict:
    """Band summary: positive rate and mean/median ratio (the mean exact, rounded once)."""
    return {
        "n": len(cmp.ratio),
        "positive_rate": int(np.count_nonzero(scan.count > 0)) / len(scan),
        "mean_ratio": _exact_mean(cmp.ratio),
        "median_ratio": _median(cmp.ratio),
    }

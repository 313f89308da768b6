"""Admissible window construction for the sequence t(y) = y^c * tan^theta(log y).

A window is one period band of the tangent: log y is pinned to
[pi*k + pi/4, pi*k + arctan 2], so tan(log y) runs over [1, 2] and t is
strictly increasing there. One WindowParams instance carries everything
downstream code needs: the prime range (delta1, delta2], the canonical
scale X (we always take X = delta2), the integer target grid (n1, n_star],
and the major-arc half width tau.

All operations are pure; forward_map / invert_map / weight accept scalars
or numpy arrays and return matching shapes (python floats for scalars).
invert_map and weight start each target from a cubic Hermite interpolant
through a per-window table of _START_NODES nodes, solved once by a
bracketed Newton and cached, and take one Newton step; the weight reuses
the tan(log y) of the residual check. Arrays are solved in chunks of
_NEWTON_CHUNK points, on the thread pool when the CLI opened one (see
tanprimes.pool); every result depends only on its target and the window,
so the bits depend on neither, nor on whether the target came alone.
"""
from __future__ import annotations

import dataclasses
import decimal
import functools
import math
import warnings

import numpy as np

from . import pool
from .errors import (
    InvalidParameter,
    NoConvergence,
    NoExactWindow,
    OutOfRange,
    OutOfWindow,
    ParameterWarning,
    TauClippedWarning,
)

ARCTAN2 = math.atan(2.0)
C_SUP = 23.0 / 21.0  # admissible exponent supremum, derived in exponents.py
_DIGITS = 50         # construction precision in decimal digits, rounded to float at the end
# t(delta2) must stay below 10^_NSTAR_DIGITS, so n_star is exact with digits to spare
# (and every field is far inside the double range)
_NSTAR_DIGITS = _DIGITS - 10
# pi and arctan 2 to 66 digits, the constants decimal lacks
_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494459231")
_ATAN2 = decimal.Decimal("1.10714871779409050301706546017853704007004764540143264667653920743")

# invert_map accepts targets slightly above t(delta2): n_star is the nearest
# integer to t(delta2) and may round upward by as much as 1/2.
_UPPER_SLACK = 0.5
_NEWTON_CHUNK = 2 ** 15  # targets per chunk in invert_map and weight
_START_NODES = 4096      # nodes of the per-window Hermite start table


@dataclasses.dataclass(frozen=True)
class WindowParams:
    """One admissible window and its derived constants.

    delta1 = e^{pi k + pi/4} (tan(log y) = 1 there),
    delta2 = e^{pi k + arctan 2} (tan(log y) = 2),
    n1     = delta1^c = t(delta1),
    n_star = nearest integer to 2^theta * delta2^c = t(delta2),
    x      = canonical scale, always delta2,
    tau    = min(x^(1-c-epsilon), 1/4).
    """

    c: float
    theta: float
    epsilon: float
    k: int
    delta1: float
    delta2: float
    x: float
    n1: float
    n_star: int
    tau: float


def _check_params(c: float, theta: float, epsilon: float) -> None:
    if c <= 1.0 or not math.isfinite(c):
        raise InvalidParameter(f"c must satisfy c > 1, got {c}")
    if theta <= 0.0 or not math.isfinite(theta):
        raise InvalidParameter(f"theta must be positive, got {theta}")
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    if theta <= 1.0:
        warnings.warn(
            f"theta={theta} is in (0, 1]; the estimates assume theta > 1",
            ParameterWarning,
            stacklevel=3,
        )
    if c >= C_SUP:
        warnings.warn(
            f"c={c} is outside the admissible range (1, 23/21); exploration only",
            ParameterWarning,
            stacklevel=3,
        )


def window_from_index(k: int, c: float, theta: float, epsilon: float = 0.05) -> WindowParams:
    """Build the k-th window for exponents (c, theta).

    Endpoints are computed in decimal at _DIGITS significant digits and
    rounded once to float; n_star is the nearest integer (ties to even) to
    2^theta*delta2^c. A window whose largest value t(delta2) reaches
    10^(_DIGITS - 10) is refused before any exponential, so n_star keeps
    10 digits past its units digit and every field is a finite double.
    """
    if int(k) != k or k < 0:
        raise InvalidParameter(f"k must be a nonnegative integer, got {k}")
    k = int(k)
    _check_params(c, theta, epsilon)
    with decimal.localcontext(decimal.Context(prec=_DIGITS)):
        dc, dtheta = decimal.Decimal(float(c)), decimal.Decimal(float(theta))
        ln10 = decimal.Decimal(10).ln()
        a1 = _PI * k + _PI / 4          # log delta1
        a2 = _PI * k + _ATAN2           # log delta2
        log_t2 = dtheta * decimal.Decimal(2).ln() + dc * a2  # log t(delta2), the largest value
        if log_t2 >= _NSTAR_DIGITS * ln10:
            raise InvalidParameter(
                f"window values reach 10^{log_t2 / ln10:.6g}, beyond the "
                f"10^{_NSTAR_DIGITS} below which n_star is exact"
            )
        delta1 = float(a1.exp())
        delta2 = float(a2.exp())
        n1_f = float((dc * a1).exp())
        n_star = int(log_t2.exp().to_integral_value(decimal.ROUND_HALF_EVEN))
    x = delta2
    tau = x ** (1.0 - c - epsilon)
    if tau >= 0.25:
        warnings.warn(
            f"tau = x^(1-c-epsilon) = {tau:.6g} clipped at 1/4",
            TauClippedWarning,
            stacklevel=2,
        )
        tau = 0.25
    return WindowParams(
        c=float(c), theta=float(theta), epsilon=float(epsilon), k=k,
        delta1=delta1, delta2=delta2, x=x, n1=n1_f, n_star=n_star, tau=tau,
    )


def solve_for_target(
    N: int,
    c: float,
    theta: float,
    epsilon: float = 0.05,
    tol_k: float = 1e-6,
) -> tuple[WindowParams, float]:
    """Find the window whose index equation is solved by target N.

    Solves pi*k + arctan 2 = (1/c) log(N / 2^theta) for k and accepts only
    near-integer solutions: with k_real the exact real solution, the residual
    |k_real - round(k_real)| must be at most tol_k. Returns the window for
    round(k_real) with n_star overridden to N, plus the residual.

    Raises NoExactWindow when the residual exceeds tol_k; the caller should
    fall back to window_from_index and scan a band of targets instead.
    """
    if int(N) != N or N < 2:
        raise InvalidParameter(f"target must be an integer >= 2, got {N}")
    if tol_k <= 0.0:
        raise InvalidParameter(f"tol_k must be positive, got {tol_k}")
    _check_params(c, theta, epsilon)
    k_real = ((1.0 / c) * (math.log(N) - theta * math.log(2.0)) - ARCTAN2) / math.pi
    k_near = round(k_real)
    residual = abs(k_real - k_near)
    if residual > tol_k:
        raise NoExactWindow(
            f"no window index within {tol_k} of k_real={k_real:.9f} for N={N}"
        )
    if k_near < 0:
        raise InvalidParameter(f"target N={N} solves to negative window index {k_near}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        base = window_from_index(k_near, c, theta, epsilon)
    return dataclasses.replace(base, n_star=int(N)), residual


def _t_raw(y, c: float, theta: float):
    # No window check; used internally where y may sit a hair past delta2.
    ly = np.log(y)
    return y ** c * np.tan(ly) ** theta


def forward_map(y, w: WindowParams):
    """t(y) = y^c tan^theta(log y) for y inside [delta1, delta2]."""
    arr = np.asarray(y, dtype=np.float64)
    lo_ok = arr >= w.delta1 * (1.0 - 1e-12)
    hi_ok = arr <= w.delta2 * (1.0 + 1e-12)
    if not (np.all(lo_ok) and np.all(hi_ok)):
        bad = float(np.asarray(arr).ravel()[np.argmin((lo_ok & hi_ok).ravel())])
        raise OutOfWindow(
            f"y={bad!r} outside window [{w.delta1!r}, {w.delta2!r}]"
        )
    out = _t_raw(arr, w.c, w.theta)
    return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out


def image_interval(w: WindowParams) -> tuple[float, float]:
    """Float endpoints (t(delta1), t(delta2)) of the forward image."""
    t1 = float(_t_raw(np.float64(w.delta1), w.c, w.theta))
    t2 = float(_t_raw(np.float64(w.delta2), w.c, w.theta))
    return t1, t2


def _newton(ta, w: WindowParams):
    # Bracketed Newton for a flat array of targets, iterating only on the
    # points still moving: a point retires (its y written back) once its
    # residual is within tol (or NaN) or a step no longer changes it.
    # Each point follows its own trajectory. It solves the nodes of the
    # start table and any point whose start was too far for one step; the
    # caller checks the residual.
    c, theta = w.c, w.theta
    t1, t2 = image_interval(w)
    lo = np.full_like(ta, w.delta1 * (1.0 - 1e-12))
    hi = np.full_like(ta, w.delta2 + 1.0)
    ya = np.clip(w.delta1 + (ta - t1) * ((w.delta2 - w.delta1) / (t2 - t1)), lo, hi)
    tol = 8.0 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(ta))
    y = np.empty_like(ta)
    idx = np.arange(len(ta))
    for _ in range(200):
        if not len(idx):
            break
        tn = np.tan(np.log(ya))
        r = ya ** c * tn ** theta - ta  # _t_raw(ya) - ta
        lo = np.where(r < 0.0, np.maximum(lo, ya), lo)
        hi = np.where(r > 0.0, np.minimum(hi, ya), hi)
        # dt/dy = y^(c-1) tan^(theta-1)(log y) (c tan(log y) + theta sec^2(log y))
        deriv = ya ** (c - 1.0) * tn ** (theta - 1.0) * (c * tn + theta * (1.0 + tn * tn))
        y_new = ya - r / deriv
        fallback = ~np.isfinite(y_new) | (y_new <= lo) | (y_new >= hi)
        y_new = np.where(fallback, 0.5 * (lo + hi), y_new)
        done = ~(np.abs(r) > tol) | (y_new == ya)
        y[idx[done]] = ya[done]
        moving = ~done
        idx, ya, ta, tol, lo, hi = (v[moving] for v in (idx, y_new, ta, tol, lo, hi))
    y[idx] = ya
    return y


def _checked_tan(y, ta, w: WindowParams):
    # tan(log y) at each solved y, once t(y) is within 1e-9 relative of
    # its target (a NaN fails too)
    tn = np.tan(np.log(y))
    resid = np.abs(y ** w.c * tn ** w.theta - ta)  # |_t_raw(y) - ta|
    if not np.all(resid <= 1e-9 * np.maximum(1.0, np.abs(ta))):
        raise NoConvergence("Newton inversion stalled; this should be unreachable")
    return tn


def _weight_at(y, tn, ty, w: WindowParams):
    # dy/dt = 1/t'(y) = y tan / (t(y) (c tan + theta sec^2)), from
    # tan = tan(log y) and ty = t(y)
    return y * tn / (ty * (w.c * tn + w.theta * (1.0 + tn * tn)))


@functools.lru_cache(maxsize=8)
def _start_table(w: WindowParams):
    # Cubic Hermite pieces of the inverse between _START_NODES targets
    # t_j = t1 + j h spanning [t1, t2 + _UPPER_SLACK], each node solved by
    # the bracketed Newton: row i of pieces holds the coefficients of v^i,
    # for v = (t - t1)/h - j in [0, 1] on piece j, matching y and
    # dy/dv = h * weight at both of its nodes. Returns (t1, 1/h, pieces).
    t1, t2 = image_interval(w)
    h = (t2 + _UPPER_SLACK - t1) / (_START_NODES - 1)
    tj = t1 + h * np.arange(_START_NODES)
    y = _newton(tj, w)
    s = h * _weight_at(y, _checked_tan(y, tj, w), tj, w)
    d = np.diff(y)
    s0, s1 = s[:-1], s[1:]
    pieces = np.stack([y[:-1], s0, 3.0 * d - 2.0 * s0 - s1, s0 + s1 - 2.0 * d])
    pieces.flags.writeable = False  # shared by every caller
    return t1, 1.0 / h, pieces


def _hermite_start(ta, start):
    # the start table's cubic at each target; its temporaries go when it
    # returns, so a chunk's working set stays small
    t1, inv_h, pieces = start
    x = (ta - t1) * inv_h
    # truncation puts x in (-1, 0), a target a hair below t1, on piece 0
    j = np.minimum(x.astype(np.intp), pieces.shape[1] - 1)
    v = x - j
    a0, a1, a2, a3 = (row[j] for row in pieces)
    return a0 + v * (a1 + v * (a2 + v * a3))


def _newton_step(y, ta, w: WindowParams):
    # y - (t(y) - ta) / t'(y)
    tn = np.tan(np.log(y))
    ty = y ** w.c * tn ** w.theta
    return y - (ty - ta) * _weight_at(y, tn, ty, w)


def _invert_chunk(ta, w: WindowParams, start):
    # y = t^-1(ta) and tan(log y) for one chunk of targets: the Hermite
    # start, one Newton step, the bracketed Newton for any point that step
    # moved by more than 2^-30 relative (none for 1.001 <= c <= 3 and
    # 0.25 <= theta <= 5, where the start is within 1.6e-10), then the
    # residual check. Every point's bits depend only on its target and w.
    y0 = _hermite_start(ta, start)
    y = _newton_step(y0, ta, w)
    far = ~(np.abs(y - y0) <= 2.0 ** -30 * y)
    if far.any():
        y[far] = _newton(ta[far], w)
    return y, _checked_tan(y, ta, w)


def _solve(t, w: WindowParams, weights: bool):
    # y, or the weight when weights is set, for each target, solved in
    # chunks of _NEWTON_CHUNK on the pool; each chunk writes only its
    # slice. Targets are made float64 a chunk at a time, so no full-length
    # temporary is made, and are range-checked before any is solved.
    t_arr = np.atleast_1d(np.asarray(t))
    t1, t2 = image_interval(w)
    if t_arr.size:
        # the slack grows with |t|, so the smallest and the largest target
        # pass exactly when all do; a NaN fails both comparisons
        lo, hi = float(t_arr.min()), float(t_arr.max())
        if not (lo >= t1 - 1e-9 * max(1.0, abs(lo))
                and hi <= t2 + _UPPER_SLACK + 1e-9 * max(1.0, abs(hi))):
            raise OutOfRange(
                f"target outside the forward image [{t1!r}, {t2!r}] (+{_UPPER_SLACK} slack)"
            )
    starts = range(0, len(t_arr), _NEWTON_CHUNK)

    def targets(start):
        return np.asarray(t_arr[start:start + _NEWTON_CHUNK], dtype=np.float64)

    table = _start_table(w)
    out = np.empty(t_arr.shape)

    def run(start):
        ta = targets(start)
        y, tn = _invert_chunk(ta, w, table)
        out[start:start + _NEWTON_CHUNK] = _weight_at(y, tn, ta, w) if weights else y

    pool.map_chunks(run, starts)
    return out


def invert_map(t, w: WindowParams):
    """Inverse of the forward map: the y with t(y) = t.

    Starts from a cubic Hermite interpolant through a per-window table of
    _START_NODES solved nodes and takes one Newton step, which lands at
    the rounding noise of t(y); the residual is checked to 1e-9 relative
    (NoConvergence otherwise). Accepts t up to t(delta2) + 1/2 because
    n_star may round upward. Targets are solved in chunks of
    _NEWTON_CHUNK, on the thread pool when one is open (see
    tanprimes.pool); every result depends only on its target and w, so
    the bits are the same for a scalar, an array, any chunk size and any
    pool width.
    """
    y = _solve(t, w, weights=False)
    return float(y[0]) if np.isscalar(t) or np.ndim(t) == 0 else y


def weight(m, w: WindowParams):
    """dy/dt at target value m: the smooth coefficient attached to m.

    The reciprocal of the forward derivative
    y^(c-1) tan^(theta-1)(log y) (c tan(log y) + theta sec^2(log y)) at
    y = invert_map(m), computed as y tan / (m (c tan + theta sec^2)), which
    is the same at t(y) = m, from the tan(log y) of the residual check.
    Arrays are inverted and weighted chunk by chunk, like invert_map, so
    no full-length temporary is made.
    """
    wt = _solve(m, w, weights=True)
    return float(wt[0]) if np.isscalar(m) or np.ndim(m) == 0 else wt

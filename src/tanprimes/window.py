"""Admissible window construction for the sequence t(y) = y^c * tan^theta(log y).

A window is one period band of the tangent: log y is pinned to
[pi*k + pi/4, pi*k + arctan 2], so tan(log y) runs over [1, 2] and t is
strictly increasing there. One WindowParams instance carries everything
downstream code needs: the prime range (delta1, delta2], the canonical
scale X (we always take X = delta2), the integer target grid (n1, n_star],
and the major-arc half width tau.

All operations are pure; forward_map / invert_map / weight accept scalars
or numpy arrays and return matching shapes (python floats for scalars).
invert_map and weight solve arrays in chunks of _NEWTON_CHUNK points, on
the thread pool when the CLI opened one (see tanprimes.pool); every point
follows its own trajectory, so the bits depend on neither.
"""
from __future__ import annotations

import dataclasses
import decimal
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
_MAX_BITS = 1023     # t(delta2) must stay below 2^_MAX_BITS, inside the double range
# pi and arctan 2 to 66 digits, the constants decimal lacks
_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494459231")
_ATAN2 = decimal.Decimal("1.10714871779409050301706546017853704007004764540143264667653920743")

# invert_map accepts targets slightly above t(delta2): n_star is the nearest
# integer to t(delta2) and may round upward by as much as 1/2.
_UPPER_SLACK = 0.5
_NEWTON_CHUNK = 2 ** 15  # targets per Newton solve in invert_map


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
    2^theta*delta2^c, exact while it has well under _DIGITS digits. A
    window whose largest value t(delta2) reaches 2^_MAX_BITS is refused
    before any exponential, so every field is a finite double.
    """
    if int(k) != k or k < 0:
        raise InvalidParameter(f"k must be a nonnegative integer, got {k}")
    k = int(k)
    _check_params(c, theta, epsilon)
    with decimal.localcontext(decimal.Context(prec=_DIGITS)):
        dc, dtheta = decimal.Decimal(float(c)), decimal.Decimal(float(theta))
        ln2 = decimal.Decimal(2).ln()
        a1 = _PI * k + _PI / 4          # log delta1
        a2 = _PI * k + _ATAN2           # log delta2
        log_t2 = dtheta * ln2 + dc * a2  # log t(delta2), the window's largest value
        if log_t2 >= _MAX_BITS * ln2:
            raise InvalidParameter(f"window values reach 2^{log_t2 / ln2:.6g}, beyond a double")
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


def _newton(ta, w: WindowParams, t1: float, t2: float):
    # Bracketed Newton for one chunk of targets, iterating only on the
    # points still moving: a point retires (its y written back) once its
    # residual is within tol (or NaN) or a step no longer changes it.
    # Each point follows its own trajectory, so neither the chunking nor
    # the retiring of other points changes its bits.
    c, theta = w.c, w.theta
    lo = np.full_like(ta, w.delta1 * (1.0 - 1e-12))
    hi = np.full_like(ta, w.delta2 + 1.0)
    ya = np.clip(w.delta1 + (ta - t1) * ((w.delta2 - w.delta1) / (t2 - t1)), lo, hi)
    tol = 8.0 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(ta))
    t_all = ta
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

    resid = np.abs(_t_raw(y, c, theta) - t_all)
    if np.any(resid > 1e-9 * np.maximum(1.0, np.abs(t_all))):
        raise NoConvergence("Newton inversion stalled; this should be unreachable")
    return y


def _solve(t, w: WindowParams, finish):
    # finish(y) for y = the inverse of each target, solved and finished in
    # chunks of _NEWTON_CHUNK on the pool; each chunk writes only its slice.
    # Targets are range-checked and made float64 a chunk at a time, so no
    # full-length temporary is made, and every chunk is checked before any
    # is solved.
    t_arr = np.atleast_1d(np.asarray(t))
    t1, t2 = image_interval(w)
    starts = range(0, len(t_arr), _NEWTON_CHUNK)

    def targets(start):
        return np.asarray(t_arr[start:start + _NEWTON_CHUNK], dtype=np.float64)

    for start in starts:
        ta = targets(start)
        slack = 1e-9 * np.maximum(1.0, np.abs(ta))
        if np.any(ta < t1 - slack) or np.any(ta > t2 + _UPPER_SLACK + slack):
            raise OutOfRange(
                f"target outside the forward image [{t1!r}, {t2!r}] (+{_UPPER_SLACK} slack)"
            )
    out = np.empty(t_arr.shape)

    def run(start):
        out[start:start + _NEWTON_CHUNK] = finish(_newton(targets(start), w, t1, t2))

    pool.map_chunks(run, starts)
    return out


def invert_map(t, w: WindowParams):
    """Inverse of the forward map: the y with t(y) = t.

    Bracketed Newton iteration with bisection fallback; converges to
    machine precision, guaranteed within 1e-9 relative residual. Accepts
    t up to t(delta2) + 1/2 because n_star may round upward. Targets are
    solved in chunks of _NEWTON_CHUNK, on the thread pool when one is open
    (see tanprimes.pool), so the working arrays stay small; every point
    follows its own trajectory, so the bits depend on neither.
    """
    y = _solve(t, w, lambda y: y)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(y[0])
    return y


def _weight_of(y, w: WindowParams):
    ly = np.log(y)
    tn = np.tan(ly)
    sec2 = 1.0 + tn * tn
    return y ** (1.0 - w.c) / ((w.c * tn + w.theta * sec2) * tn ** (w.theta - 1.0))


def weight(m, w: WindowParams):
    """dy/dt at target value m: the smooth coefficient attached to m.

    Equals y^(1-c) / ((c tan(log y) + theta sec^2(log y)) tan^(theta-1)(log y))
    at y = invert_map(m); the reciprocal of the forward derivative. Arrays
    are inverted and weighted chunk by chunk, like invert_map, so no
    full-length temporary is made.
    """
    if np.isscalar(m) or np.ndim(m) == 0:
        # a 0-d array, whose ufuncs return numpy scalars: the scalar bits
        return float(_weight_of(np.asarray(invert_map(m, w)), w))
    return _solve(m, w, lambda y: _weight_of(y, w))

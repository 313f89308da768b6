"""Window construction, the forward map, inversion, and the weight."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from conftest import quiet_window
from tanprimes import (
    forward_map,
    image_interval,
    invert_map,
    solve_for_target,
    weight,
    window_from_index,
)
from tanprimes.errors import (
    InvalidParameter,
    NoConvergence,
    NoExactWindow,
    OutOfRange,
    OutOfWindow,
    ParameterWarning,
    TauClippedWarning,
)

# Endpoints recomputed at 120-bit precision and frozen. The k=0 pair is
# (e^{pi/4}, e^{arctan 2}); each k shifts both logs by pi.
ENDPOINTS = {
    0: (2.1932800507380152, 3.0257189050036284),
    2: (1174.4831653991398, 1620.2472255929715),
}

_W2 = quiet_window(2, 1.05, 2.0)
_W3 = quiet_window(3, 1.02, 1.5)


def test_endpoints_frozen():
    for k, (d1, d2) in ENDPOINTS.items():
        w = quiet_window(k, 1.05, 2.0)
        assert w.delta1 == pytest.approx(d1, rel=1e-14)
        assert w.delta2 == pytest.approx(d2, rel=1e-14)


def test_endpoint_log_spacing():
    # log delta1 - pi*k = pi/4 and log delta2 - pi*k = arctan 2, exactly
    # the points where tan passes through 1 and 2
    for k in range(6):
        w = quiet_window(k, 1.02, 1.5)
        assert math.log(w.delta1) - math.pi * k == pytest.approx(math.pi / 4, abs=1e-10)
        assert math.log(w.delta2) - math.pi * k == pytest.approx(math.atan(2.0), abs=1e-10)
        assert math.tan(math.log(w.delta2)) == pytest.approx(2.0, abs=1e-9)


def test_derived_targets_frozen():
    assert quiet_window(0, 1.05, 2.0).n_star == 13
    assert _W2.n1 == pytest.approx(1672.396060872942, rel=1e-13)
    assert _W2.n_star == 9378
    assert _W3.n1 == pytest.approx(33335.54908524162, rel=1e-13)
    assert _W3.n_star == 130913
    assert quiet_window(4, 1.02, 1.5).n_star == 3225861


def test_n_star_is_rounded_image_of_delta2():
    for w in (_W2, _W3):
        assert w.n_star == round(2**w.theta * w.delta2**w.c)
        assert w.x == w.delta2


def _mpmath_window(k, c, theta):
    # the 120-bit mpmath construction, rounded once to float and n_star
    import mpmath as mp

    with mp.workprec(120):
        d1 = mp.exp(mp.pi * k + mp.pi / 4)
        d2 = mp.exp(mp.pi * k + mp.atan(2))
        n_star = int(mp.nint(mp.mpf(2.0) ** theta * d2 ** c))
        return float(d1), float(d2), float(d1 ** c), n_star


@pytest.mark.parametrize("k", range(8))
def test_window_constants_match_mpmath(k):
    # the decimal construction gives the same fields, bit for bit; n_star
    # has at most 22 digits here, well inside both precisions
    for c in (1.001, 1.02, 1.05, 1.0952, 1.2, 1.5, 2.0):
        for theta in (0.5, 1.0, 1.5, 2.0, 3.0):
            w = quiet_window(k, c, theta)
            got = (w.delta1, w.delta2, w.n1, w.n_star)
            assert got == _mpmath_window(k, c, theta), (k, c, theta)


def test_n_star_exact_up_to_the_digit_cut():
    # just under 10^40 n_star is the nearest integer to the 120-digit
    # value of 2^theta delta2^c; just over, the window is refused
    import mpmath as mp

    w = quiet_window(2, 12.32, 1.5)
    with mp.workdps(120):
        top = mp.mpf(2) ** mp.mpf(1.5) * mp.exp(mp.mpf(12.32) * (2 * mp.pi + mp.atan(2)))
        want = int(mp.nint(top))
    assert 10 ** 39 < w.n_star == want < 10 ** 40
    with pytest.raises(InvalidParameter, match="^window values reach 10"):
        quiet_window(2, 12.33, 1.5)


def test_window_literals_match_mpmath():
    # pi and arctan 2 to at least 60 digits, each within half a unit of its last digit
    import mpmath as mp

    from tanprimes import window

    with mp.workprec(300):
        for lit, exact in ((window._PI, mp.pi), (window._ATAN2, mp.atan(2))):
            digits = lit.as_tuple()
            assert len(digits.digits) >= 60
            assert abs(mp.mpf(str(lit)) - exact) <= mp.mpf(10) ** (digits.exponent) / 2


def test_tau_clipping_at_desk_scale():
    with pytest.warns(TauClippedWarning):
        w = window_from_index(2, 1.05, 2.0)
    assert w.tau == 0.25


def test_tau_unclipped_when_exponent_negative_enough():
    # 1 - c - epsilon = -0.21 here, so X^(1-c-eps) < 1/4 without clipping
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = window_from_index(3, 1.09, 1.5, epsilon=0.12)
    assert w.tau == pytest.approx(w.x ** (1.0 - w.c - w.epsilon), rel=1e-12)
    assert w.tau < 0.25


def test_parameter_warnings():
    with pytest.warns(ParameterWarning):
        window_from_index(2, 1.05, 0.8)
    with pytest.warns(ParameterWarning):
        window_from_index(2, 23.0 / 21.0, 2.0)


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        window_from_index(-1, 1.05, 2.0)
    with pytest.raises(InvalidParameter):
        window_from_index(2, 1.0, 2.0)
    with pytest.raises(InvalidParameter):
        window_from_index(2, 1.05, 0.0)
    with pytest.raises(InvalidParameter):
        window_from_index(2, 1.05, 2.0, epsilon=0.0)


def test_forward_endpoints():
    t1, t2 = image_interval(_W2)
    assert forward_map(_W2.delta1, _W2) == pytest.approx(t1, rel=1e-14)
    assert forward_map(_W2.delta2, _W2) == pytest.approx(t2, rel=1e-14)
    assert t1 == pytest.approx(_W2.n1, rel=1e-13)
    assert t2 == pytest.approx(2**_W2.theta * _W2.delta2**_W2.c, rel=1e-13)


def test_forward_rejects_outside():
    with pytest.raises(OutOfWindow):
        forward_map(_W2.delta1 * 0.999, _W2)
    with pytest.raises(OutOfWindow):
        forward_map(_W2.delta2 * 1.001, _W2)


@given(st.floats(min_value=1174.49, max_value=1620.24), st.floats(min_value=1174.49, max_value=1620.24))
@settings(max_examples=200, deadline=None)
def test_forward_strictly_increasing(a, b):
    if a == b:
        return
    lo, hi = sorted((a, b))
    assert forward_map(lo, _W2) < forward_map(hi, _W2)


def test_invert_endpoint_fixed_points():
    t1, t2 = image_interval(_W3)
    assert invert_map(t1, _W3) == pytest.approx(_W3.delta1, rel=1e-12)
    assert invert_map(t2, _W3) == pytest.approx(_W3.delta2, rel=1e-12)


def test_invert_roundtrip_bulk():
    rng = np.random.default_rng(20260822)
    for w in (_W2, _W3):
        t1, t2 = image_interval(w)
        ts = rng.uniform(t1, t2, 1000)
        ys = invert_map(ts, w)
        back = np.array([forward_map(float(y), w) for y in ys])
        assert np.max(np.abs(back - ts) / np.abs(ts)) < 1e-9


def test_invert_scalar_matches_vector():
    t1, t2 = image_interval(_W2)
    ts = np.linspace(t1, t2, 17)
    vec = invert_map(ts, _W2)
    for i, t in enumerate(ts):
        assert invert_map(float(t), _W2) == vec[i]


def _newton_reference(t_arr, w):
    # Bracketed Newton on every point at once, with done points masked
    # rather than dropped: the arithmetic of the start table's node solve.
    t1, t2 = image_interval(w)
    lo = np.full_like(t_arr, w.delta1 * (1.0 - 1e-12))
    hi = np.full_like(t_arr, w.delta2 + 1.0)
    y = np.clip(w.delta1 + (t_arr - t1) * ((w.delta2 - w.delta1) / (t2 - t1)), lo, hi)
    done = np.zeros(t_arr.shape, dtype=bool)
    tol = 8.0 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(t_arr))
    for _ in range(200):
        r = y ** w.c * np.tan(np.log(y)) ** w.theta - t_arr
        done |= np.abs(r) <= tol
        if done.all():
            break
        lo = np.where((r < 0.0) & ~done, np.maximum(lo, y), lo)
        hi = np.where((r > 0.0) & ~done, np.minimum(hi, y), hi)
        tn = np.tan(np.log(y))
        deriv = y ** (w.c - 1.0) * tn ** (w.theta - 1.0) * (w.c * tn + w.theta * (1.0 + tn * tn))
        y_new = y - r / deriv
        fallback = ~np.isfinite(y_new) | (y_new <= lo) | (y_new >= hi)
        y_new = np.where(fallback, 0.5 * (lo + hi), y_new)
        done |= y_new == y
        y = np.where(done, y, y_new)
    return y


def _weight_reference(y, ty, w):
    # 1/t'(y) = y tan / (t(y) (c tan + theta sec^2)), with t(y) given as ty
    tn = np.tan(np.log(y))
    return y * tn / (ty * (w.c * tn + w.theta * (1.0 + tn * tn)))


def _invert_reference(t_arr, w, nodes):
    # The whole-array arithmetic invert_map and weight must reproduce: a
    # cubic Hermite start through `nodes` masked-Newton solves evenly
    # spaced over [t1, t2 + 1/2], then one Newton step on every point.
    # Returns y, the weights and each point's relative step.
    t1, t2 = image_interval(w)
    h = (t2 + 0.5 - t1) / (nodes - 1)
    tj = t1 + h * np.arange(nodes)
    yj = _newton_reference(tj, w)
    sj = h * _weight_reference(yj, tj, w)
    d = np.diff(yj)
    a2 = 3.0 * d - 2.0 * sj[:-1] - sj[1:]
    a3 = sj[:-1] + sj[1:] - 2.0 * d
    x = (t_arr - t1) * (1.0 / h)
    j = np.minimum(x.astype(np.intp), nodes - 2)
    v = x - j
    y0 = yj[j] + v * (sj[j] + v * (a2[j] + v * a3[j]))
    ty = y0 ** w.c * np.tan(np.log(y0)) ** w.theta
    y = y0 - (ty - t_arr) * _weight_reference(y0, ty, w)
    return y, _weight_reference(y, t_arr, w), np.abs(y - y0) / y


def test_invert_bits_equal_masked_newton(monkeypatch):
    # whole grid of a k=3 window, plus the endpoints and the top slack, in
    # chunks that leave a short last one, serially and on a pool of 2: every
    # y and every weight bit-identical to the whole-array reference, whose
    # start table is solved by the masked Newton and whose one step is
    # small enough that no point falls back to the bracketed solve
    from tanprimes import pool
    from tanprimes import window as window_mod

    default = window_mod._NEWTON_CHUNK
    for w in (_W2, _W3, quiet_window(3, 1.05, 2.0)):
        t1, t2 = image_interval(w)
        m = np.arange(math.floor(w.n1) + 1, w.n_star + 1, dtype=np.float64)
        ts = np.concatenate([m, [t1, t2, t2 + 0.5], np.linspace(t1, t2, 1001)])
        want, want_wt, step = _invert_reference(ts, w, window_mod._START_NODES)
        assert np.max(step) <= 2.0 ** -30
        for chunk, width in ((default, 1), (1000, 1), (default, 2)):
            monkeypatch.setattr(window_mod, "_NEWTON_CHUNK", chunk)
            with pool.threads(width):
                assert invert_map(ts, w).tobytes() == want.tobytes()
                assert weight(ts, w).tobytes() == want_wt.tobytes()


def test_far_start_falls_back_to_bracketed_newton(monkeypatch):
    # at c = 20 the start table's pieces near t1 are too coarse for one
    # step; those points take the bracketed solve, and every point stays
    # within a few ulp of it
    from tanprimes import window as window_mod

    w = quiet_window(0, 20.0, 1.5)
    t1, t2 = image_interval(w)
    ts = np.linspace(t1, t2 + 0.5, 20001)
    calls = []
    newton = window_mod._newton

    def spy(ta, w):
        calls.append(len(ta))
        return newton(ta, w)

    window_mod._start_table.cache_clear()
    monkeypatch.setattr(window_mod, "_newton", spy)
    y = invert_map(ts, w)
    assert calls[0] == window_mod._START_NODES  # the node solve
    assert 0 < sum(calls[1:]) < len(ts) // 10   # the far starts only
    want = _newton_reference(ts, w)
    assert np.all(np.abs(y - want) <= 16 * np.spacing(want))


def test_bad_solve_raises_no_convergence(monkeypatch):
    # the residual check stays: a solve gone wrong (here every node and
    # every fallback answering delta1) ends in NoConvergence, not a silent y
    from tanprimes import window as window_mod

    monkeypatch.setattr(window_mod, "_newton", lambda ta, w: np.full_like(ta, w.delta1))
    window_mod._start_table.cache_clear()
    try:
        with pytest.raises(NoConvergence):
            invert_map(image_interval(_W2)[1], _W2)
    finally:
        window_mod._start_table.cache_clear()


def _mp_inverse(t, w):
    # y with t(y) = t and its weight 1/t'(y), at 200 bits
    import mpmath as mp

    with mp.workprec(200):
        c, theta, tt = mp.mpf(w.c), mp.mpf(w.theta), mp.mpf(t)
        y = mp.findroot(lambda y: y ** c * mp.tan(mp.log(y)) ** theta - tt,
                        mp.mpf(float(_newton_reference(np.array([t]), w)[0])))
        tn = mp.tan(mp.log(y))
        return y, y ** (1 - c) / ((c * tn + theta * (1 + tn * tn)) * tn ** (theta - 1))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_invert_and_weight_match_mpmath(k):
    # 120 seeded targets, half on the integer grid: y within 4 eps and
    # the weight within 40 eps relative of the 200-bit inverse (3.4 and
    # 5.3 eps measured at worst; the bracketed Newton and the old weight
    # formula read 3.1 and 26.8)
    import mpmath as mp

    eps = np.finfo(np.float64).eps
    w = quiet_window(k, 1.02, 1.5) if k > 2 else _W2
    t1, t2 = image_interval(w)
    rng = np.random.default_rng(1700 + k)
    ts = np.concatenate([rng.uniform(t1, t2 + 0.5, 60),
                         rng.integers(math.floor(w.n1) + 1, w.n_star + 1, 60).astype(np.float64)])
    ys, wts = invert_map(ts, w), weight(ts, w)
    for t, y, wt in zip(ts, ys, wts):
        y_mp, wt_mp = _mp_inverse(float(t), w)
        assert abs(mp.mpf(float(y)) - y_mp) <= 4 * eps * y_mp, (k, t)
        assert abs(mp.mpf(float(wt)) - wt_mp) <= 40 * eps * wt_mp, (k, t)


@given(c=st.floats(1.001, 3.0), theta=st.floats(0.25, 5.0), k=st.integers(0, 3),
       u=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_invert_over_the_parameter_plane(c, theta, k, u):
    # any target in [t1, t2 + 1/2]: relative residual within 1e-12, y
    # within 16 ulp of the bracketed Newton, and a scalar target gives
    # the bits of the same target inside an array
    w = quiet_window(k, c, theta)
    t1, t2 = image_interval(w)
    t = min(t1 + u * (t2 + 0.5 - t1), t2 + 0.5)
    note(f"c={c!r} theta={theta!r} k={k} t={t!r}")
    y = invert_map(t, w)
    ty = y ** c * math.tan(math.log(y)) ** theta
    assert abs(ty - t) <= 1e-12 * t
    y_b = _newton_reference(np.array([t]), w)[0]
    assert abs(y - y_b) <= 16 * np.spacing(y_b)
    ts = np.array([t1, t, t2])
    assert invert_map(ts, w)[1] == y
    assert weight(ts, w)[1] == weight(t, w)


def test_invert_accepts_rounding_slack_above_top():
    # n_star can exceed t(delta2) by up to 1/2 from the rounding
    y = invert_map(float(_W3.n_star), _W3)
    assert y >= _W3.delta2 - 1e-9 * _W3.delta2


def test_invert_rejects_outside_slack():
    t1, t2 = image_interval(_W2)
    with pytest.raises(OutOfRange):
        invert_map(t2 + 0.6, _W2)
    with pytest.raises(OutOfRange):
        invert_map(t1 - 1.0, _W2)
    with pytest.raises(OutOfRange):
        weight(np.array([t1, np.nan, t2]), _W2)


def test_solve_for_target_roundtrip():
    w, resid = solve_for_target(_W3.n_star, 1.02, 1.5)
    assert w.k == 3
    assert w.n_star == _W3.n_star
    assert resid < 1e-6
    assert w.delta2 == pytest.approx(_W3.delta2, rel=1e-13)


def test_solve_for_target_k2_residual_exceeds_default_tol():
    # the k=2 rounding happens to move n_star just over the default
    # tolerance; a looser tol_k recovers the window
    with pytest.raises(NoExactWindow):
        solve_for_target(_W2.n_star, 1.05, 2.0)
    w, resid = solve_for_target(_W2.n_star, 1.05, 2.0, tol_k=1e-4)
    assert w.k == 2
    assert 1e-6 < resid < 1e-4


def test_solve_for_target_rejects_midband():
    c, theta = 1.02, 1.5
    # a target whose implied index sits near k + 1/2
    mid = round(2**theta * math.exp(c * (math.pi * 3.5 + math.atan(2.0))))
    with pytest.raises(NoExactWindow):
        solve_for_target(mid, c, theta)


def test_solve_for_target_rejects_tiny():
    with pytest.raises(InvalidParameter):
        solve_for_target(1, 1.02, 1.5)


def test_weight_closed_form_at_top():
    # tan = 2 and sec^2 = 5 at delta2 collapse the derivative
    for w in (_W2, _W3):
        t2 = image_interval(w)[1]
        expect = w.delta2 ** (1.0 - w.c) / (
            2**w.theta * w.c + 5.0 * w.theta * 2 ** (w.theta - 1.0)
        )
        assert weight(t2, w) == pytest.approx(expect, rel=1e-12)


def test_weight_matches_finite_difference():
    rng = np.random.default_rng(5)
    t1, t2 = image_interval(_W2)
    ts = rng.uniform(t1 * 1.001, t2 * 0.999, 200)
    h = 1e-3
    for t in ts:
        fd = (invert_map(t + h, _W2) - invert_map(t - h, _W2)) / (2 * h)
        assert weight(float(t), _W2) == pytest.approx(fd, rel=1e-5)


def test_weight_positive_and_vectorized():
    t1, t2 = image_interval(_W3)
    ts = np.linspace(t1, t2, 64)
    ws = weight(ts, _W3)
    assert np.all(ws > 0)
    assert ws.shape == ts.shape
    for i in (0, 31, 63):
        assert weight(float(ts[i]), _W3) == ws[i]


def test_window_params_frozen_dataclass():
    with pytest.raises(AttributeError):
        _W2.c = 2.0

"""Window construction, the forward map, inversion, and the weight."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    # rather than dropped: the arithmetic invert_map must reproduce.
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


def _weight_reference(y, w):
    # the weight formula on the whole array at once, as before the chunking
    tn = np.tan(np.log(y))
    sec2 = 1.0 + tn * tn
    return y ** (1.0 - w.c) / ((w.c * tn + w.theta * sec2) * tn ** (w.theta - 1.0))


def test_invert_bits_equal_masked_newton(monkeypatch):
    # whole grid of a k=3 window, plus the endpoints and the top slack, in
    # chunks that leave a short last one, serially and on a pool of 2: every
    # y and every weight bit-identical to the whole-array references
    from tanprimes import pool
    from tanprimes import window as window_mod

    default = window_mod._NEWTON_CHUNK
    for w in (_W2, _W3, quiet_window(3, 1.05, 2.0)):
        t1, t2 = image_interval(w)
        m = np.arange(math.floor(w.n1) + 1, w.n_star + 1, dtype=np.float64)
        ts = np.concatenate([m, [t1, t2, t2 + 0.5], np.linspace(t1, t2, 1001)])
        want = _newton_reference(ts, w)
        want_wt = _weight_reference(want, w)
        for chunk, width in ((default, 1), (1000, 1), (default, 2)):
            monkeypatch.setattr(window_mod, "_NEWTON_CHUNK", chunk)
            with pool.threads(width):
                assert invert_map(ts, w).tobytes() == want.tobytes()
                assert weight(ts, w).tobytes() == want_wt.tobytes()


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

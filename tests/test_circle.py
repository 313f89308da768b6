"""Exponential sums, circle quadrature, and the Fourier expansion pieces."""

import json
import math
import pathlib
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanprimes import circle, count_ternary_mitm, scan_band
from tanprimes.circle import (
    circle_integral,
    fourier_coeff,
    fourier_expansion_residual,
    integer_exp_sum,
    prime_exp_sum,
    smooth_exp_sum,
    sum_samples,
)
from tanprimes.errors import GridTooCoarseWarning, InvalidParameter, Singular, TooLarge

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# 24 targets N* + offset, drawn from N*-100..N* by seed 1
SEED1_OFFSETS = sorted(random.Random(1).sample(range(-100, 1), 24))


def _cold_integral(*args):
    circle._cubed_sums.cache_clear()
    return circle_integral(*args)


def test_integer_freqs_read_only(w2):
    freqs = circle._integer_freqs(w2)
    with pytest.raises(ValueError):
        freqs[0] = 0
    assert circle._integer_freqs(w2) is freqs


def test_prime_sum_origin_and_period(table2, block2):
    s0 = prime_exp_sum(table2, block2.logs, 0.0)
    assert s0.imag == 0.0
    assert s0.real == pytest.approx(math.fsum(block2.logs), rel=1e-12)
    # integer alpha reduces to phase zero exactly, not just approximately
    assert prime_exp_sum(table2, block2.logs, 1.0) == s0
    assert prime_exp_sum(table2, block2.logs, -3.0) == s0


def test_prime_sum_half_alternates(table2, block2):
    s = prime_exp_sum(table2, block2.logs, 0.5)
    alt = math.fsum(
        (-1.0) ** int(f) * lg for f, lg in zip(table2.f, block2.logs)
    )
    assert s.real == pytest.approx(alt, rel=1e-10)
    assert abs(s.imag) < 1e-10 * math.fsum(block2.logs)


@given(st.floats(min_value=1e-4, max_value=0.4999))
@settings(max_examples=80, deadline=None)
def test_prime_sum_conjugate_symmetry(table2, block2, alpha):
    fwd = prime_exp_sum(table2, block2.logs, alpha)
    bwd = prime_exp_sum(table2, block2.logs, -alpha)
    assert abs(bwd - fwd.conjugate()) < 1e-9 * math.fsum(block2.logs)


@given(st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_prime_sum_trivial_bound(table2, block2, alpha):
    s0 = math.fsum(block2.logs)
    assert abs(prime_exp_sum(table2, block2.logs, alpha)) <= s0 * (1.0 + 1e-12)


def test_smooth_sum_origin_mass(w3):
    t0 = smooth_exp_sum(w3, 0.0)
    assert t0.imag == 0.0
    assert t0.real == pytest.approx(10315.346973072083, rel=1e-10)
    # total weight mass tracks the window length delta2 - delta1
    assert t0.real == pytest.approx(w3.delta2 - w3.delta1, rel=1e-3)


def test_smooth_sum_periodicity(w3):
    # period 1 in alpha; bitwise equality only holds at integer shifts of
    # integer alpha, elsewhere the product alpha*f rounds differently
    a = smooth_exp_sum(w3, 0.137)
    b = smooth_exp_sum(w3, 1.137)
    assert abs(a - b) < 1e-8
    assert smooth_exp_sum(w3, 2.0) == smooth_exp_sum(w3, 0.0)


def test_major_arc_agreement(table3, block3, w3):
    # the prime sum and the weighted smooth sum agree at the origin to a
    # fifth of a percent at this scale; frozen for regression
    s0 = prime_exp_sum(table3, block3.logs, 0.0)
    t0 = smooth_exp_sum(w3, 0.0)
    rel = abs(s0 - t0) / abs(s0)
    assert rel == pytest.approx(0.0018286683096645619, abs=1e-9)
    assert rel < 0.2


def test_integer_sum_counts_integers(w2):
    a0 = integer_exp_sum(w2, 0.0)
    assert a0 == 446.0 + 0.0j
    assert a0.real == math.floor(w2.delta2) - math.floor(w2.delta1)


def test_integer_profile_fixture(w2):
    prof = json.loads((FIXTURES / "integer_sum_profile_k2.json").read_text())
    assert len(prof) == 256
    alphas = -0.5 + np.arange(256) / 256.0
    for want, alpha in zip(prof, alphas):
        got = abs(integer_exp_sum(w2, float(alpha)))
        assert got == pytest.approx(want, abs=1e-9)
    assert prof[128] == 446.0
    assert max(prof) == 446.0


def test_quadrature_equals_count(table2, block2, pairmap2, w2):
    M = 3 * int(table2.f.max()) + 1
    for N in (w2.n_star, w2.n_star - 1, 3 * int(table2.f.min()) + 7):
        rep = count_ternary_mitm(table2, block2.logs, N, pair_map=pairmap2, w=w2)
        val = circle_integral(table2, block2.logs, N, grid_size=M)
        assert val.real == pytest.approx(rep.weighted, rel=1e-9, abs=1e-6)
        assert abs(val.imag) < 1e-6


def test_quadrature_zero_for_unrepresentable(table2, block2):
    M = 3 * int(table2.f.max()) + 1
    val = circle_integral(table2, block2.logs, 1, grid_size=M)
    assert abs(val) < 1e-6


def test_quadrature_warns_when_coarse(table2, block2):
    with pytest.warns(GridTooCoarseWarning):
        circle_integral(table2, block2.logs, 9378, grid_size=1024)


def test_interval_additivity(table2, block2, w2):
    # pieces share grid spacing with the whole, so the trapezoid sums glue
    # exactly up to float roundoff (no exactness claim, just additivity)
    tau = w2.tau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        whole = circle_integral(table2, block2.logs, 9378, (-tau, 1.0 - tau), 2048)
    major = circle_integral(table2, block2.logs, 9378, (-tau, tau), 1024)
    minor = circle_integral(table2, block2.logs, 9378, (tau, 1.0 - tau), 1024)
    assert abs(whole - (major + minor)) < 1e-9 * (1.0 + abs(whole))


def test_interval_rejections(table2, block2):
    with pytest.raises(InvalidParameter):
        circle_integral(table2, block2.logs, 9378, (0.3, 0.3))
    with pytest.raises(InvalidParameter):
        circle_integral(table2, block2.logs, 9378, (0.7, 0.2))
    with pytest.raises(InvalidParameter):
        circle_integral(table2, block2.logs, 9378, (0.0, 1.2))
    with pytest.raises(InvalidParameter):
        circle_integral(table2, block2.logs, 9378, grid_size=8)


@pytest.mark.parametrize("M", [16, 17, 28003, 2 ** 19])
def test_roots_table_conjugate_pairs(M):
    # roots[M - r] equals conj(roots[r]) exactly (-1 at r = M/2 up to the
    # sign of its zero), so the full circle's upper half of sums is the
    # exact conjugate of its lower half
    roots = circle._roots(M)
    assert roots[0] == 1.0
    assert np.array_equal(roots[1:], np.conj(roots[:0:-1]))
    # np.exp of the unreduced phase errs by up to about 2 pi ulp(1) near r = M
    assert np.max(np.abs(roots - np.exp(2j * np.pi * (np.arange(M) / M)))) < 2e-15
    assert not roots.flags.writeable


def test_full_circle_sums_band_counts_by_residue(table2, block2, pairmap2, w2):
    # discrete orthogonality at any grid M: the full circle at N* is the
    # sum of the weighted counts at every target t = N* (mod M) that a
    # triple reaches, 3 min f <= t <= 3 max f. The grids alias 7, 2 or 1
    # targets, on both sides of the exact cut 3 max f + 1. Tolerances from
    # the measured gaps: real 8.2e-16 relative, |imag| 1.6e-12.
    lo, hi = 3 * int(table2.f.min()), 3 * int(table2.f.max())
    band = scan_band(table2, block2.logs, lo, hi, pair_map=pairmap2)
    N, cut = w2.n_star, hi + 1
    for M in (cut // 8, cut // 2, cut - 2, cut, 2 * cut):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            z = circle_integral(table2, block2.logs, N, (0.0, 1.0), M)
        want = math.fsum(band.weighted[(band.N - N) % M == 0])
        assert abs(z.real - want) <= 1e-15 * want, M
        assert abs(z.imag) <= 2e-12, M


def test_full_circle_agrees_with_meet_at_crosscheck_targets(table2, block2, pairmap2, w2):
    # the crosscheck job's 24 seed-1 targets, three of them unreachable
    # (weighted 0): measured gap up to 4.79e-12 * max(1, |w|)
    M = 3 * int(table2.f.max()) + 1
    for off in SEED1_OFFSETS:
        rep = count_ternary_mitm(table2, block2.logs, w2.n_star + off, pair_map=pairmap2, w=w2)
        z = circle_integral(table2, block2.logs, w2.n_star + off, (0.0, 1.0), M)
        tol = 5e-12 * max(1.0, abs(rep.weighted))
        assert abs(z.real - rep.weighted) <= tol and abs(z.imag) <= tol, off


def test_full_circle_agrees_with_meet_at_k3(table3, block3, pairmap3, w3):
    # M = 3 max f + 1 = 392 704 points over 992 primes, every phase an exact
    # integer over M (about 1.5-1.8 s on a pool of 2). Tolerances from the
    # measured gaps: real 8.9e-16, |imag| 2.5e-15 relative
    from tanprimes import pool

    M = 3 * int(table3.f.max()) + 1
    assert (len(table3), M) == (992, 392704)
    try:
        with pool.threads(2):
            for N in (w3.n_star, w3.n_star - 7, w3.n_star + 13):
                z = circle_integral(table3, block3.logs, N, (0.0, 1.0), M)
                rep = count_ternary_mitm(table3, block3.logs, N, pair_map=pairmap3, w=w3)
                scale = max(1.0, abs(rep.weighted))
                gap, imag = abs(z.real - rep.weighted) / scale, abs(z.imag) / scale
                assert gap <= 1e-15 and imag <= 3e-15, (N, gap, imag)
    finally:
        circle._cubed_sums.cache_clear()


@pytest.mark.parametrize("M", [2 ** 26 + 1, 2 ** 40])
def test_quadrature_refuses_huge_grid_before_allocating(table2, block2, M):
    import tracemalloc

    circle._cubed_sums.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            circle_integral(table2, block2.logs, 9378, (0.0, 1.0), M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert circle._cubed_sums.cache_info().misses == 0


def test_fourier_coeff_closed_forms():
    c0 = fourier_coeff(0.5, 0)
    assert c0 == pytest.approx(-2j / math.pi, rel=1e-12)
    # integer x: numerator vanishes exactly after mod-1 phase reduction
    assert fourier_coeff(2.0, 1) == 0.0
    assert fourier_coeff(-3.0, 1) == 0.0
    with pytest.raises(Singular):
        fourier_coeff(-3.0 + 5e-13, 3)


def test_fourier_coeff_decay():
    x = 0.37
    mags = [abs(fourier_coeff(x, h)) for h in range(1, 51)]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    for h in (1, 5, 20):
        bound = 2.0 / (2.0 * math.pi * abs(h + x))
        assert abs(fourier_coeff(x, h)) <= bound


def test_expansion_residual_shrinks_with_depth():
    y = np.linspace(0.05, 0.95, 200)
    lo = fourier_expansion_residual(y, 0.37, 16)
    hi = fourier_expansion_residual(y, 0.37, 64)
    assert hi["mean_residual"] < lo["mean_residual"]
    assert lo["max_residual"] <= 1.0
    assert hi["max_residual"] <= 1.0
    assert lo["points"] == 200
    assert lo["mean_ratio"] < 1.0


def test_expansion_residual_rejections():
    y = np.linspace(0.05, 0.95, 50)
    with pytest.raises(InvalidParameter):
        fourier_expansion_residual(y, 0.37, 2)
    # integer x makes one coefficient denominator vanish
    with pytest.raises(Singular):
        fourier_expansion_residual(y, 1.0, 16)


@pytest.mark.parametrize("y", [[], [math.nan], [math.inf], [-math.inf], [math.nan, 0.3]],
                         ids=["empty", "nan", "inf", "-inf", "nan-among-finite"])
def test_expansion_residual_refuses_empty_or_non_finite_points(monkeypatch, y):
    # refused before any coefficient or phase is formed: no numpy
    # ValueError or RuntimeWarning on an empty grid, no NaN statistics
    def never(*a):
        raise AssertionError("work done before the check")

    monkeypatch.setattr(circle, "fourier_coeff", never)
    monkeypatch.setattr(circle, "_exp_sums", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="finite"):
            fourier_expansion_residual(y, 0.37, 16)


def test_sum_samples_tags_and_values(table2, block2, w2):
    alphas = [0.0, 0.25, -0.3]
    got = sum_samples("prime", alphas, w2, values=table2, logs=block2.logs)
    assert got == [prime_exp_sum(table2, block2.logs, a) for a in alphas]
    sm = sum_samples("smooth", [0.1], w2)
    assert sm == [smooth_exp_sum(w2, 0.1)]
    it = sum_samples("integer", [0.1], w2)
    assert it == [integer_exp_sum(w2, 0.1)]
    with pytest.raises(InvalidParameter):
        sum_samples("cubes", [0.1], w2)
    with pytest.raises(InvalidParameter):
        sum_samples("prime", [0.1], w2)
    # the window sums refuse a missing window, as the prime sum a missing table
    for kind in ("smooth", "integer"):
        with pytest.raises(InvalidParameter):
            sum_samples(kind, [0.1], None)


def _exp_sum_reference(coeff, freq, alpha):
    # the sum as it was before the chunking: np.mod phases and full-length
    # temporaries over the whole array
    phase = np.mod(alpha * freq.astype(np.float64), 1.0)
    z = np.exp(2j * np.pi * phase)
    return complex(np.sum(coeff * z))


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _class_groups(coeff, freq, d):
    # the coefficients of each class f mod d, in class order
    cls = freq % d
    order = np.argsort(cls, kind="stable")
    return np.split(coeff[order], np.searchsorted(cls[order], np.arange(1, d)))


def _class_reference(coeff, freq, alpha):
    # an exact alpha = num/d of a sum of more than d terms, independently of
    # _class_sums: math.fsum of the coefficients of each class f mod d less
    # their mean fsum(coeff)/d (nothing at d = 1), then the d products with
    # the roots of unity of circle._roots(d), added by np.sum
    num, d = alpha.as_integer_ratio()
    re, im = (math.fsum(part.tolist()) / d if d > 1 else 0.0 for part in (coeff.real, coeff.imag))
    V = np.array([complex(math.fsum(g.real.tolist() + [-re]), math.fsum(g.imag.tolist() + [-im]))
                  for g in _class_groups(coeff, freq, d)])
    roots = circle._roots(d)
    return complex(np.sum(roots[(num % d) * np.arange(d) % d] * V))


def _gather_reference(coeff, freq, alpha):
    # an exact alpha = num/d over every term: the root of circle._roots(d)
    # at (num * f) mod d times the coefficient, added by np.sum
    num, d = alpha.as_integer_ratio()
    return complex(np.sum(circle._roots(d)[(num % d) * (freq % d) % d] * coeff))


def _expected(coeff, freq, alpha):
    # the route the rule picks, each from a reference that shares no code
    # with it: alpha = num/d exactly (a Fraction, or a finite float with d
    # below the n terms; d at most 2^26) takes the class reference for real
    # coefficients and d < n, else the gather reference; any other alpha
    # the whole-array np.mod sum at float(alpha)
    n = len(freq)
    exact = isinstance(alpha, Fraction) or (math.isfinite(alpha) and alpha.as_integer_ratio()[1] < n)
    d = alpha.as_integer_ratio()[1] if exact else None
    if not exact or d > 2 ** 26:
        return _exp_sum_reference(coeff, freq, float(alpha))
    if d < n and not np.iscomplexobj(coeff):
        return _class_reference(coeff, freq, alpha)
    return _gather_reference(coeff, freq, alpha)


_BIT_ALPHAS = [-0.5, -0.4375, 0.0, -0.0, 1 / 3, 0.5, 1.0, -3.0, 2.5, 2.0 ** 40 + 0.5,
               Fraction(-1, 3), Fraction(5, 12), Fraction(-7, 10), Fraction(2 ** 70 + 1, 3),
               Fraction(1, 2 ** 26 + 1)]


def _edge_alphas(freq):
    # alphas on both sides of each condition of the rule: a float with d at
    # and above the largest power of two <= len(freq); Fractions with
    # d = n - 1, n and n + 1; and floats whose |num| * max|f| is just below
    # and just above 2^53 (d = 2), which the phase takes exactly either way
    n = len(freq)
    lo = 1 << (n.bit_length() - 1)
    f_max = int(np.abs(freq).max())
    below = (2 ** 53 - 1) // f_max
    below -= 1 - below % 2
    above = below + 2
    return [1 / lo, -3 / lo, 1 / (2 * lo), -5 / (2 * lo),
            Fraction(1, n - 1), Fraction(-1, n), Fraction(1, n + 1),
            below / 2, -below / 2, above / 2, -above / 2]


@pytest.mark.parametrize("k, chunk, width", [
    (2, None, 1), (2, None, 2), (3, None, 1), (3, None, 2),
    (2, 1, 1), (2, 7, 2), (2, 10 ** 9, 1), (3, 10 ** 9, 2),
])
def test_exp_sum_bits_equal_whole_array(request, monkeypatch, k, chunk, width):
    # every kind at every alpha, for any term chunk (one term, seven, past
    # the array) and pool width, .hex()-equal to the reference of the route
    # the rule picks (_expected): the per-class fsum reference, the gather
    # reference or the whole-array np.mod sum
    from tanprimes import pool
    from tanprimes.asymptotics import grid_weights

    w, table, block = (request.getfixturevalue(f"{name}{k}") for name in ("w", "table", "block"))
    if chunk is not None:
        monkeypatch.setattr(circle, "_TERM_CHUNK", chunk)
    m, wt = grid_weights(w)
    freqs = circle._integer_freqs(w)
    sums = {"prime": (block.logs, table.f), "smooth": (wt, m),
            "integer": (np.ones(len(freqs)), freqs)}
    with pool.threads(width):
        for kind, (coeff, freq) in sums.items():
            alphas = _BIT_ALPHAS + _edge_alphas(freq)
            want = [_hex(_expected(coeff, freq, a)) for a in alphas]
            got = sum_samples(kind, alphas, w, values=table, logs=block.logs)
            assert [_hex(z) for z in got] == want, kind
            assert [_hex(circle._exp_sums(coeff, freq, [a])[0]) for a in alphas] == want
            # n a power of two: a float with d = n, and d = 2n, goes per term,
            # a Fraction with d = n - 1 by class, one with d = n by the gather
            n = 1 << (len(freq).bit_length() - 1)
            for a in (1 / n, -3 / n, 1 / (2 * n), 3 / (2 * n), Fraction(1, n - 1), Fraction(-1, n)):
                assert (_hex(circle._exp_sums(coeff[:n], freq[:n], [a])[0])
                        == _hex(_expected(coeff[:n], freq[:n], a)))


def _pairwise_depth(n):
    # additions on the longest path of numpy's pairwise sum of n complex
    # terms: a leaf of at most 64 adds them into 4 accumulators per part
    # (at most 15 adds each), joins those in 2 and adds up to 3 leftovers;
    # a larger node splits after (n - n % 8) // 2 terms, as circle._pairwise
    # does, and adds its halves' sums once
    if n <= 64:
        return 20
    half = (n - n % 8) // 2
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


def _class_deviations(coeff, freq, d):
    # sum |W_d[r] - mean| over the classes r of f mod d (the mean is 0 at d = 1)
    mean = math.fsum(coeff) / d if d > 1 else 0.0
    return math.fsum(abs(math.fsum(g.tolist()) - mean) for g in _class_groups(coeff, freq, d))


def _root_error(roots):
    # the largest distance of the d rounded roots roots[r] from e(r/d)
    import mpmath

    d = len(roots)
    with mpmath.workprec(120):
        return max(float(abs(mpmath.mpc(z) - mpmath.expjpi(mpmath.mpf(2 * r) / d)))
                   for r, z in enumerate(roots.tolist()))


@pytest.mark.parametrize("grid", [16, 256])
def test_class_route_within_derived_bound_of_per_term(w3, table3, block3, grid):
    # every kind at k=3 (the 992-term prime sum too) against the per-term
    # route, which float64 frequencies force. Against the exact sum
    # T = sum_r e(num r/d) V_d[r] (V_d = W_d,
    # less their mean for d > 1, as the roots of unity sum to 0), with eps
    # the largest error of the d rounded roots each route reads (the table
    # circle._roots(d) for the classes, np.exp for the terms) and u = 2^-53:
    #   class route:    (d + 1) u sum|V_d| + eps sum|V_d|  (V rounded once,
    #                   one product rounding, d - 1 additions in any order);
    #   per-term route: (1 + depth) u sum|coeff| + eps sum|coeff|  (one
    #                   product rounding, the additions on the longest path
    #                   of numpy's pairwise tree).
    from tanprimes import pool
    from tanprimes.asymptotics import grid_weights

    m, wt = grid_weights(w3)
    freqs = circle._integer_freqs(w3)
    alphas = [-0.5 + j / grid for j in range(grid)]
    dens = [a.as_integer_ratio()[1] for a in alphas]
    eps_class = {d: _root_error(circle._roots(d)) for d in set(dens)}
    eps_term = {d: _root_error(np.exp(2j * np.pi * (np.arange(d) / d))) for d in set(dens)}
    u = 2.0 ** -53
    for coeff, freq in ((block3.logs, table3.f), (wt, m), (np.ones(len(freqs)), freqs)):
        total = math.fsum(coeff)
        dev = {d: _class_deviations(coeff, freq, d) for d in eps_class}
        with pool.threads(2):
            got = circle._exp_sums(coeff, freq, alphas)
            want = circle._exp_sums(coeff, freq.astype(np.float64), alphas)
        bound = np.array([(d + 1) * u * dev[d] + eps_class[d] * dev[d]
                          + (1 + _pairwise_depth(len(freq))) * u * total + eps_term[d] * total
                          for d in dens]) * (1 + 1e-9)
        assert np.all(np.abs(got - want) <= bound), (len(freq), np.max(np.abs(got - want) / bound))


def _within_200_bits(coeff, freq, alphas):
    # each sum at the exact alphas num/d against a 200-bit contraction of the
    # exact class sums W[r] mod L, the lcm of the dens (e(alpha f) depends
    # only on f mod L), within the class route's bound: it errs by at most
    # (d + 1) u sum|V_d| + eps sum|V_d| (see above), far inside the
    # per-term route's eps sum|coeff|, since the classes nearly cancel
    import mpmath

    u = 2.0 ** -53
    L = math.lcm(*(Fraction(a).denominator for a in alphas))
    W = [sum(map(Fraction, coeff[freq % L == r].tolist()), Fraction(0)) for r in range(L)]
    got = circle._exp_sums(coeff, freq, alphas)
    with mpmath.workprec(200):
        for z, a in zip(got.tolist(), alphas):
            num, d = a.as_integer_ratio()
            exact = mpmath.fsum(mpmath.mpf(w.numerator) / w.denominator
                                * mpmath.expjpi(mpmath.mpf(2 * num * r) / d) for r, w in enumerate(W))
            bound = ((d + 1) * u + _root_error(circle._roots(d))) * _class_deviations(coeff, freq, d)
            err = float(abs(mpmath.mpc(z) - exact))
            assert err <= bound * (1 + 1e-9), (a, err, bound)


def test_class_route_within_derived_bound_of_200_bits(w3):
    # the k=3 smooth and integer sums at expsum --grid 16, float alphas
    from tanprimes.asymptotics import grid_weights

    m, wt = grid_weights(w3)
    freqs = circle._integer_freqs(w3)
    for coeff, freq in ((wt, m), (np.ones(len(freqs)), freqs)):
        _within_200_bits(coeff, freq, [-0.5 + j / 16 for j in range(16)])


def test_grid_12_within_derived_bound_of_200_bits(w3):
    # the k=3 smooth and integer sums at expsum --grid 12, alpha = (2j - 12)/24
    # as expsum passes it: every phase exact, by residue class mod 12. The
    # float phases alpha * f missed this bound by orders of magnitude.
    from tanprimes.asymptotics import grid_weights

    m, wt = grid_weights(w3)
    freqs = circle._integer_freqs(w3)
    for coeff, freq in ((wt, m), (np.ones(len(freqs)), freqs)):
        _within_200_bits(coeff, freq, [Fraction(2 * j - 12, 24) for j in range(12)])


@pytest.mark.parametrize("grid", [1, 12, 16, 256])
def test_class_route_conjugate_symmetric(w3, table2, block2, grid):
    # real coefficients at every alpha = (2j - G)/(2G) of expsum --grid G, the
    # 63-term k=2 prime sum among them: the classes are contracted with the
    # roots of circle._roots, whose upper half is the exact conjugate of the
    # lower, so S(-alpha) is conj S(alpha) bit for bit (up to the sign of a
    # zero part), and S(-1/2), a real sum, has Im 0.0
    from tanprimes.asymptotics import grid_weights

    m, wt = grid_weights(w3)
    freqs = circle._integer_freqs(w3)
    alphas = [Fraction(2 * j - grid, 2 * grid) for j in range(grid)]
    for coeff, freq in ((wt, m), (np.ones(len(freqs)), freqs), (block2.logs, table2.f)):
        plus = circle._exp_sums(coeff, freq, alphas).tolist()
        minus = circle._exp_sums(coeff, freq, [-a for a in alphas]).tolist()
        assert [_hex(z.conjugate() + 0.0) for z in plus] == [_hex(z + 0.0) for z in minus]
        assert circle._exp_sums(coeff, freq, [Fraction(-1, 2)])[0].imag == 0.0


def test_class_route_at_integer_alpha_is_fsum(w3):
    # a sum at an integer alpha (d = 1, below the terms) is one class: the
    # correctly rounded sum of the coefficients, with a zero imaginary part
    from tanprimes.asymptotics import grid_weights

    m, wt = grid_weights(w3)
    freqs = circle._integer_freqs(w3)
    for coeff, freq in ((wt, m), (np.ones(len(freqs)), freqs)):
        for z in circle._exp_sums(coeff, freq, [0.0, -0.0, 1.0, -3.0, Fraction(2)]):
            assert (z.real, z.imag) == (math.fsum(coeff), 0.0)


def test_exact_route_selection(monkeypatch):
    # which route each alpha takes, at the edges of the rule, on a sum of
    # n = 8 real terms: class sums for an exact num/d with d < n (a float's d
    # below n, any Fraction's), the gather over the terms for a Fraction with
    # d >= n, per term for the rest; each .hex()-equal to its reference
    coeff = np.linspace(1.0, 2.0, 8)
    freq = np.array([-3, 5, 2 ** 20, 7, 0, 11, 2 ** 40, -9], dtype=np.int64)
    calls = []
    class_sums, exp_sums = circle._class_sums, circle._exp_sums

    def class_spy(c, f, dens):
        calls.append(("class", sorted(dens)))
        return class_sums(c, f, dens)

    def exp_spy(c, f, alphas, den=None):
        calls.append(("gather", den, len(f)))
        return exp_sums(c, f, alphas, den)

    monkeypatch.setattr(circle, "_class_sums", class_spy)
    monkeypatch.setattr(circle, "_exp_sums", exp_spy)

    def route(alphas, c=coeff, f=freq):
        calls.clear()
        got = exp_sums(c, f, alphas)
        assert [_hex(z) for z in got.tolist()] == [_hex(_expected(c, f, a)) for a in alphas]
        return list(calls)

    assert route([0.25]) == [("class", [4]), ("gather", 4, 4)]
    assert route([0.125]) == []                                   # a float's d = n: per term
    assert route([Fraction(1, 7)]) == [("class", [7]), ("gather", 7, 7)]   # d = n - 1
    assert route([Fraction(1, 8)]) == [("gather", 8, 8)]           # d = n: the terms
    assert route([Fraction(-3, 10)]) == [("gather", 10, 8)]
    assert route([2.0 ** 60, -0.0]) == [("class", [1]), ("gather", 1, 1)]
    assert route([(2 ** 33 - 1) / 2]) == [("class", [2]), ("gather", 2, 2)]
    assert route([Fraction(1, 2 ** 26 + 1), 1 / 3]) == []          # d over the guard; d = 2^54
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert route([math.nan, math.inf, -math.inf]) == []
    # an lcm of the class dens that reaches n: one pass per den, so the
    # class table stays below the terms and every alpha keeps its bits
    assert route([Fraction(1, 3), Fraction(1, 4), 0.5]) == [
        ("class", [3]), ("class", [4]), ("class", [2]),
        ("gather", 3, 3), ("gather", 4, 4), ("gather", 2, 2)]
    assert route([Fraction(1, 4), 0.5]) == [("class", [2, 4]), ("gather", 4, 4), ("gather", 2, 2)]
    # complex coefficients take the gather, float frequencies the per-term
    # route, and a numpy scalar is taken as a float
    assert route([0.25], c=coeff * (1 + 1j)) == [("gather", 4, 8)]
    assert _hex(exp_sums(coeff, freq, [np.int64(-3)])[0]) == _hex(exp_sums(coeff, freq, [-3.0])[0])
    calls.clear()
    alphas, f64 = [0.25, Fraction(1, 3)], freq.astype(np.float64)
    got = exp_sums(coeff, f64, alphas)
    assert calls == []
    assert [_hex(z) for z in got.tolist()] == [_hex(_exp_sum_reference(coeff, f64, float(a))) for a in alphas]


def test_long_dyadic_sums_exponentiate_each_den_once(table4, block4, monkeypatch):
    # the k=4 prime sum at --grid 256: 17 656 terms, more than every den, so
    # every alpha takes the class route, and the only exponentials are the
    # lower half of one roots table circle._roots(d) per distinct den d
    # (d/2 + 1 roots, the rest conjugates), never one of term length
    assert len(table4) > 256
    alphas = [-0.5 + j / 256 for j in range(256)]
    sizes = []
    exp = np.exp

    def counted_exp(x, *args, **kw):
        sizes.append(np.size(x))
        return exp(x, *args, **kw)

    monkeypatch.setattr(np, "exp", counted_exp)
    sum_samples("prime", alphas, None, table4, block4.logs)
    assert sum(sizes) <= sum(d // 2 + 1 for d in {a.as_integer_ratio()[1] for a in alphas})
    assert max(sizes) < len(table4)


def test_non_finite_alpha_sums_to_nan(table2, block2, w2):
    # nan and +-inf have no integer ratio; they keep the general path and
    # its (nan+nanj), through sum_samples and the three single-alpha sums
    bad = [math.nan, math.inf, -math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, as before
        samples = [
            *sum_samples("prime", bad, w2, values=table2, logs=block2.logs),
            *sum_samples("smooth", bad, w2),
            *sum_samples("integer", bad, w2),
        ]
        values = samples + [
            f(a) for a in bad for f in (
                lambda a: prime_exp_sum(table2, block2.logs, a),
                lambda a: smooth_exp_sum(w2, a),
                lambda a: integer_exp_sum(w2, a),
            )
        ]
    assert len(values) == 18
    assert all(math.isnan(z.real) and math.isnan(z.imag) for z in values)


def test_sum_samples_reuse_bits_equal_single_calls(table2, block2, w2, w3, monkeypatch):
    # one terms array serves every alpha of a sum_samples call: a list of
    # alphas, mixing the three routes, gives the bits of one _exp_sums call
    # per alpha, and those of the reference of each alpha's route. For the
    # 63 k=2 primes, -3/16, 0, 1/2 and the Fraction 1/3 go by class, the
    # Fractions 5/96 and 1/100 003 by the gather, and the floats 0.3, 1/3 and
    # -5/12 per term, in one 2-D block of terms; the 97 578-term smooth sum
    # takes 5/96 by class too.
    from tanprimes import pool
    from tanprimes.asymptotics import grid_weights

    monkeypatch.setattr(circle, "_TERM_CHUNK", 4096)
    m, wt = grid_weights(w3)
    alphas = [0.3, -0.5 + 5 / 16, 1 / 3, 0.0, -0.5 + 1 / 12, 0.5,
              Fraction(1, 3), Fraction(5, 96), Fraction(1, 100003)]
    with pool.threads(2):
        got = [_hex(z) for z in sum_samples("smooth", alphas, w3)]
        primes = [_hex(z) for z in sum_samples("prime", alphas, w2, values=table2, logs=block2.logs)]
    assert got == [_hex(circle._exp_sums(wt, m, [a])[0]) for a in alphas]
    assert got == [_hex(_expected(wt, m, a)) for a in alphas]
    assert len(table2) == 63
    assert primes == [_hex(circle._exp_sums(block2.logs, table2.f, [a])[0]) for a in alphas]
    assert primes == [_hex(_expected(block2.logs, table2.f, a)) for a in alphas]


def test_smooth_sums_keep_memory_to_the_terms(w3, monkeypatch):
    # 16 smooth sums on a pool of 2 hold no array of every term, only one
    # chunk of terms and its temporaries per thread: under the grid's own
    # bytes (0.16 of them measured by class, 0.55-0.59 per term). One array
    # of terms, 16 bytes a point, takes 1.58; two whole-array sums at once
    # 5 times as much.
    import tracemalloc

    from tanprimes import pool
    from tanprimes.asymptotics import grid_weights

    monkeypatch.setattr(circle, "_TERM_CHUNK", 2 ** 12)
    m, wt = grid_weights(w3)  # cached before the measurement
    alphas = [-0.5 + j / 16 for j in range(16)]
    with pool.threads(2):
        tracemalloc.start()
        try:
            sum_samples("smooth", alphas, w3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < m.nbytes + wt.nbytes


def test_dyadic_sums_keep_memory_to_one_table(w3, monkeypatch):
    # the 97 578-term k=3 smooth sum over the power-of-two grid of expsum
    # --grid 1024: every alpha is dyadic and takes the class route, whose
    # temporaries are one chunk of terms, the class sums mod 1024
    # and one table of roots of unity per den (2 047 roots in all): 0.44 of
    # the grid's own bytes measured, where a table per alpha, all built
    # before the sums run, took 17.6 times them.
    import tracemalloc

    from tanprimes import pool
    from tanprimes.asymptotics import grid_weights

    monkeypatch.setattr(circle, "_TERM_CHUNK", 2 ** 14)
    m, wt = grid_weights(w3)
    assert len(m) > 1024
    alphas = [-0.5 + j / 1024 for j in range(1024)]
    with pool.threads(2):
        sum_samples("smooth", alphas[:1], w3)  # the imports of the pool and the sum, untraced
        tracemalloc.start()
        try:
            sum_samples("smooth", alphas, w3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < m.nbytes + wt.nbytes


def test_class_sums_keep_memory_to_chunks(w4):
    # the 2 404 430-term k=4 smooth sum at expsum --grid 256 on a pool of 2:
    # the class route holds chunk-sized temporaries only, so its peak stays
    # under a quarter of the grid's own bytes, which one full-length float64
    # temporary (|coeff|, the classes or a slice) would already reach; a
    # few of them lift the op's RSS from about 73 to 139 MiB.
    import tracemalloc

    from tanprimes import pool
    from tanprimes.asymptotics import grid_weights

    m, wt = grid_weights(w4)  # cached before the measurement
    alphas = [-0.5 + j / 256 for j in range(256)]
    with pool.threads(2):
        sum_samples("smooth", alphas[:1], w4)  # the imports of the pool and the sum, untraced
        tracemalloc.start()
        try:
            sum_samples("smooth", alphas, w4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < (m.nbytes + wt.nbytes) / 4


def test_class_sums_never_map_on_the_pool(w3, monkeypatch):
    # the k=3 smooth and integer sums at expsum --grid 16 take every alpha
    # by residue class in one serial pass: on a pool of 2, no map_chunks
    # call gets two items, so none starts a thread. The terms are resolved
    # (and cached) first, since the smooth weights map their Newton chunks.
    from tanprimes import pool

    for kind in ("smooth", "integer"):
        circle._terms(kind, w3, None, None)
    calls = []
    map_chunks = pool.map_chunks

    def spy(fn, items):
        calls.append(len(items))
        return map_chunks(fn, items)

    monkeypatch.setattr(pool, "map_chunks", spy)
    alphas = [-0.5 + j / 16 for j in range(16)]
    with pool.threads(2):
        for kind in ("smooth", "integer"):
            sum_samples(kind, alphas, w3)
    assert calls and max(calls) <= 1, calls


def test_log_weights_must_match_table(table2, block2, w2):
    # one log weight would broadcast over every prime, five would raise a
    # bare numpy error; both are refused before any cache is touched
    M = 3 * int(table2.f.max()) + 1
    circle._cubed_sums.cache_clear()
    for logs in (block2.logs[:1], block2.logs[:5]):
        with pytest.raises(InvalidParameter):
            circle_integral(table2, logs, w2.n_star, grid_size=M)
        with pytest.raises(InvalidParameter):
            prime_exp_sum(table2, logs, 0.25)
        with pytest.raises(InvalidParameter):
            sum_samples("prime", [], w2, values=table2, logs=logs)
    info = circle._cubed_sums.cache_info()
    assert info.hits == 0 and info.misses == 0


def test_cached_quadrature_bits_equal_cold(table2, block2, w2):
    # the crosscheck job's full circle and major arc at 24 targets: a warm
    # cache gives the bits of a call with every cache cleared first
    M = 3 * int(table2.f.max()) + 1
    calls = [(w2.n_star + off, interval, grid)
             for off in SEED1_OFFSETS
             for interval, grid in (((0.0, 1.0), M), ((-w2.tau, w2.tau), 4096))]
    cold = [_cold_integral(table2, block2.logs, *call) for call in calls]
    circle._cubed_sums.cache_clear()
    warm = [circle_integral(table2, block2.logs, *call) for call in calls]
    assert circle._cubed_sums.cache_info().hits == len(calls) - 2
    for w_val, c_val in zip(warm, cold):
        assert (w_val.real.hex(), w_val.imag.hex()) == (c_val.real.hex(), c_val.imag.hex())


def _circle_integrals_reference(values, logs, Ns, interval, M):
    # circle_integral in the same alpha chunks and trapezoid layout, at each
    # target of Ns. A partial arc forms its phases as it did with np.mod,
    # except at a point alpha = num/d with d below the primes, whose prime sum
    # is the class reference; the full circle gathers every term and
    # e(-j N / M) from the table of the M roots at exact integer phases,
    # np.outer(j, f) % M and (-j N) % M, with no use of the conjugate symmetry.
    a, b = interval
    full = (a, b) == (0.0, 1.0)
    roots = circle._roots(M)
    f = values.f.astype(np.int64 if full else np.float64)
    h = (b - a) / M
    totals = [0.0 + 0.0j] * len(Ns)
    starts = range(0, M + 1, circle._ALPHA_CHUNK)
    for i, start in enumerate(starts):
        j = np.arange(start, min(start + circle._ALPHA_CHUNK, M + 1))
        alphas = a + j * h
        if full:
            S = np.sum(roots[np.outer(j, f) % M] * logs[None, :], axis=1)
        else:
            S = np.sum(np.exp(2j * np.pi * np.mod(alphas[:, None] * f[None, :], 1.0)) * logs[None, :], axis=1)
            for r, alpha in enumerate(alphas.tolist()):
                if alpha.as_integer_ratio()[1] < len(f):
                    S[r] = _class_reference(logs, values.f, alpha)
        coeff = np.ones(len(alphas))
        if i == 0:
            coeff[0] = 0.5
        if i == len(starts) - 1:
            coeff[-1] = 0.5
        for t, N in enumerate(Ns):
            if full:
                integrand = S ** 3 * roots[(-j * N) % M]
            else:
                integrand = S ** 3 * np.exp(-2j * np.pi * np.mod(alphas * N, 1.0))
            totals[t] += complex(np.sum(integrand * coeff))
    return [total * ((b - a) / M) for total in totals]


@pytest.fixture(scope="module")
def crosscheck_reference(table2, block2, w2):
    # .hex() of the reference at the crosscheck job's full circle and major
    # arc, 24 seed-1 targets each
    M = 3 * int(table2.f.max()) + 1
    Ns = [w2.n_star + off for off in SEED1_OFFSETS]
    return {interval: (grid, Ns, [_hex(z) for z in _circle_integrals_reference(
                table2, block2.logs, Ns, interval, grid)])
            for interval, grid in (((0.0, 1.0), M), ((-w2.tau, w2.tau), 4096))}


@pytest.mark.parametrize("den", [1, 2, 3, 24, 49, 28_003, 1 << 26])
def test_near_mod_reads_the_np_remainder_root(den):
    # the gather's phase reduction against np.remainder at phases near 0,
    # den - 1, multiples of den, (den - 1)^2 (the largest the gather forms)
    # and just under 2^52: congruent and within one den either way, so
    # np.take's wrap mode reads the root np.remainder's index names. At
    # den = 49, 49 * fl(1/49) < 1 and the multiples of 49 take the down
    # correction.
    top = (1 << 52) - 1
    xs = {0, 1, 2, den - 2, den - 1, den, den + 1, (den - 1) ** 2 - 1, (den - 1) ** 2,
          top - den, top - 1, top}
    for k in (1, 2, 3, 1000, 1 << 20, top // den - 1, top // den):
        xs |= {k * den - 1, k * den, k * den + 1}
    x = np.array(sorted(v for v in xs if 0 <= v <= top), dtype=np.int64).reshape(1, -1)
    want = np.remainder(x, den)
    got = circle._near_mod(x.copy(), den, np.empty_like(x))
    assert np.all((-den <= got) & (got < 2 * den))
    assert np.array_equal(np.remainder(got, den), want)
    assert (den == 49) == bool(np.any(got != want))
    if den <= 28_003:
        assert np.array_equal(np.take(np.arange(den), got, mode="wrap"), want)
        # and the gather's sums: every numerator against frequencies 0..2 den
        # (at den = 49, 7 * 7 is the phase 49 that the wrap takes back to 0)
        alphas, freq = np.arange(min(den, 64)), np.arange(2 * den + 1)
        coeff = np.random.default_rng(den).random(len(freq))
        table = circle._roots(den)
        ref = np.sum(table[np.remainder(np.multiply.outer(alphas, freq % den), den)] * coeff, axis=1)
        assert circle._exp_sums(coeff, freq, alphas, den=den).tobytes() == ref.tobytes()


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("chunk", [None, 1, 7, 10 ** 9])
def test_quadrature_phases_bits_equal_np_mod(table2, block2, crosscheck_reference, monkeypatch,
                                             chunk, width):
    # the crosscheck job's full circle and major arc at its 24 seed-1
    # targets, at every pool width and term chunk: the major arc's floor
    # phases give the np.mod bits (its point alpha = 0 the class sum), and
    # the full circle's table phases and conjugate half the bits of an
    # exact-phase gather at every grid point.
    # At chunk 1 and 7 the 63-term prime sum takes one alpha per task, at
    # the default and 10^9 a block of alphas per task (at most every row).
    from tanprimes import pool

    if chunk is not None:
        monkeypatch.setattr(circle, "_TERM_CHUNK", chunk)
    for interval, (grid, Ns, want) in crosscheck_reference.items():
        circle._cubed_sums.cache_clear()
        with pool.threads(width):
            got = [circle_integral(table2, block2.logs, N, interval, grid) for N in Ns]
        assert [_hex(z) for z in got] == want, interval


@pytest.mark.parametrize("chunk", [None, 7])
def test_expansion_residual_bits_equal_np_mod(monkeypatch, chunk):
    # the right-hand side comes from _exp_sums: every returned statistic has
    # the bits of a 2-D np.mod reference on a non-dyadic grid of y, and on a
    # /16 grid, whose every y = num/d has d below the 2H+1 terms, those of
    # the gather reference (complex coefficients take no class sums). The
    # coefficients are taken in blocks of y; at chunk 7 each y is its own task.
    if chunk is not None:
        monkeypatch.setattr(circle, "_TERM_CHUNK", chunk)
    for y in (np.arange(-40, 41) / 16, np.linspace(0.05, 0.95, 200)):
        for H in (16, 256, 512):
            x = 0.37
            fy = np.mod(y, 1.0)
            lhs = np.exp(-2j * np.pi * x * fy)
            hs = np.arange(-H, H + 1)
            cs = np.array([fourier_coeff(x, int(h)) for h in hs])
            rhs = np.sum(np.exp(2j * np.pi * np.mod(y[:, None] * hs[None, :], 1.0)) * cs[None, :], axis=1)
            for r, a in enumerate(y.tolist()):
                if a.as_integer_ratio()[1] < len(hs):
                    rhs[r] = _gather_reference(cs, hs, a)
            resid = np.abs(lhs - rhs)
            norm = np.minimum(fy, 1.0 - fy)
            ratio = resid / np.minimum(1.0, 1.0 / (H * np.maximum(norm, 1e-300)))
            want = {"points": len(y), "mean_residual": float(np.mean(resid)),
                    "max_residual": float(np.max(resid)), "mean_ratio": float(np.mean(ratio)),
                    "max_ratio": float(np.max(ratio))}
            got = fourier_expansion_residual(y, x, H)
            assert {k: float(v).hex() for k, v in got.items()} == \
                {k: float(v).hex() for k, v in want.items()}, H


def test_quadrature_cache_keyed_by_log_bits(table2, block2, w2):
    # same frequencies, one log weight one ulp up: a fresh entry, not a stale one
    M = 3 * int(table2.f.max()) + 1
    logs = np.array(block2.logs, dtype=np.float64)
    bumped = logs.copy()
    bumped[5] = np.nextafter(bumped[5], np.inf)
    circle._cubed_sums.cache_clear()
    circle_integral(table2, logs, w2.n_star, grid_size=M)
    warm = circle_integral(table2, bumped, w2.n_star, grid_size=M)
    assert circle._cubed_sums.cache_info().misses == 2
    assert warm == _cold_integral(table2, bumped, w2.n_star, (0.0, 1.0), M)


def test_quadrature_cache_read_only(table2, block2):
    circle._cubed_sums.cache_clear()
    circle_integral(table2, block2.logs, 9378, (0.0, 0.5), 64)
    key = (np.asarray(table2.f, dtype=np.int64).tobytes(),
           np.asarray(block2.logs, dtype=np.float64).tobytes(), 0.0, 0.5, 64)
    alphas, S3 = circle._cubed_sums(*key)
    assert alphas.shape == S3.shape == (65,)
    assert circle._cubed_sums.cache_info().hits == 1
    with pytest.raises(ValueError):
        S3[0] = 0.0
    with pytest.raises(ValueError):
        alphas[0] = 0.5


def test_coarse_grid_warns_on_cache_hit(table2, block2):
    circle._cubed_sums.cache_clear()
    for _ in range(2):
        with pytest.warns(GridTooCoarseWarning):
            circle_integral(table2, block2.logs, 9378, grid_size=1024)
    assert circle._cubed_sums.cache_info().hits == 1

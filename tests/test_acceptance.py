"""Acceptance gate.

Ten criteria, one printed verdict line each, in the form

    ACCEPTANCE <nn> <name>: PASS|FAIL <details>

The verdict line is printed before the asserts fire so the full list is
visible in the run log either way. Criterion 08 compares the band's
weighted counts with the singular integral (the exact triple weight
convolution), the asymptotic prediction for them. The closed-form
main_term = weight(t(delta2)) * X^2 is a different quantity: it exceeds the
singular integral by a constant factor, about 1/0.0258 at c=1.02,
theta=1.5, at every window size, so weighted/main_term sits near 1/40 at
k=3 and k=4 alike. That ratio is still recorded and checked against its
fixture; the README's desk-scale section carries the numeric breakdown.
"""

import json
import math
import pathlib
import statistics
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import quiet_window
from tanprimes import (
    classical_main_term,
    count_classical,
    count_ternary_mitm,
    count_ternary_naive,
    floor_value,
    main_term,
    sieve_segment,
    singular_integral,
    value_table,
    weight,
    weight_convolution,
)
from tanprimes.asymptotics import band_stats, compare_report, grid_weights
from tanprimes.circle import circle_integral, fourier_expansion_residual
from tanprimes.exponents import admissible_c, cutoffs, minor_arc_exponent
from tanprimes.repcount import _classical_floor, scan_band
from tanprimes.seqeval import _escalated
from tanprimes.window import image_interval, invert_map

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def emit(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} {detail}")


def test_01_oracle_equivalence(table2, block2, pairmap2, w2):
    rng = np.random.default_rng(1)
    targets = [w2.n_star + int(d) for d in rng.integers(-50, 51, 20)]
    t0 = time.perf_counter()
    worst = 0.0
    counts_ok = True
    for N in targets:
        a = count_ternary_mitm(table2, block2.logs, N, pair_map=pairmap2, w=w2)
        b = count_ternary_naive(table2, block2.logs, N)
        counts_ok &= a.count == b.count
        if b.weighted:
            worst = max(worst, abs(a.weighted - b.weighted) / abs(b.weighted))
    dt = time.perf_counter() - t0
    ok = counts_ok and worst <= 1e-9 and dt < 1.0
    emit(1, "oracle_equivalence", ok,
         f"20 targets, count match={counts_ok}, max rel dev={worst:.3e}, t={dt:.2f}s")
    assert counts_ok and worst <= 1e-9
    assert dt < 1.0


def test_02_dft_exactness(table2, block2, pairmap2, w2):
    M = 3 * int(table2.f.max()) + 1
    rng = np.random.default_rng(2)
    targets = [w2.n_star + int(d) for d in rng.integers(-50, 51, 10)]
    t0 = time.perf_counter()
    worst = 0.0
    for N in targets:
        rep = count_ternary_mitm(table2, block2.logs, N, pair_map=pairmap2, w=w2)
        z = circle_integral(table2, block2.logs, N, grid_size=M)
        scale = max(1.0, abs(rep.weighted))
        worst = max(worst, abs(z.real - rep.weighted) / scale, abs(z.imag) / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 30.0
    emit(2, "dft_exactness", ok,
         f"M={M}, 10 targets, max rel dev={worst:.3e}, t={dt:.2f}s")
    assert worst <= 1e-6
    assert dt < 30.0


def test_03_main_term_weight_identity():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        c = 1.0 + float(rng.uniform(1e-4, 23.0 / 21.0 - 1.0 - 1e-9))
        theta = float(rng.uniform(1.0 + 1e-6, 3.0))
        w = quiet_window(k, c, theta)
        t2 = image_interval(w)[1]
        dev = abs(main_term(w) - weight(t2, w) * w.x**2) / main_term(w)
        worst = max(worst, dev)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0
    emit(3, "main_term_weight_identity", ok,
         f"50 tuples, max rel dev={worst:.3e}, t={dt:.2f}s")
    assert worst <= 1e-9
    assert dt < 1.0


def test_04_inversion(w2, w3):
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst_rt = 0.0
    worst_fd = 0.0
    for w in (w2, w3):
        lo, hi = image_interval(w)
        ts = rng.uniform(lo, hi, 1000)
        ys = invert_map(ts, w)
        back = ys ** w.c * np.tan(np.log(ys)) ** w.theta
        worst_rt = max(worst_rt, float(np.max(np.abs(back - ts) / np.abs(ts))))
        h = 1e-3
        for t in rng.uniform(lo * 1.01, hi * 0.99, 50):
            fd = (invert_map(float(t) + h, w) - invert_map(float(t) - h, w)) / (2 * h)
            worst_fd = max(worst_fd, abs(weight(float(t), w) - fd) / abs(fd))
    dt = time.perf_counter() - t0
    ok = worst_rt <= 1e-9 and worst_fd <= 1e-5 and dt < 1.0
    emit(4, "inversion", ok,
         f"roundtrip dev={worst_rt:.3e}, fd dev={worst_fd:.3e}, t={dt:.2f}s")
    assert worst_rt <= 1e-9
    assert worst_fd <= 1e-5
    assert dt < 1.0


def test_05_exponent_ledger():
    t0 = time.perf_counter()
    a = admissible_c()
    m1 = minor_arc_exponent(F(1))
    cut = cutoffs(F(1))
    dt = time.perf_counter() - t0
    ok = (
        a == F(23, 21)
        and m1 == F(14, 15)
        and cut == (F(1, 15), F(1, 3))
        and all(isinstance(v, F) for v in (a, m1, *cut))
        and dt < 0.1
    )
    emit(5, "exponent_ledger", ok,
         f"admissible={a}, minor(1)={m1}, cutoffs(1)=({cut[0]},{cut[1]}), t={dt:.3f}s")
    assert a == F(23, 21)
    assert m1 == F(14, 15)
    assert cut == (F(1, 15), F(1, 3))
    assert dt < 0.1


def test_06_certified_floors(w3):
    rng = np.random.default_rng(6)
    lo = math.floor(w3.delta1) + 1
    hi = math.floor(w3.delta2)
    ns = rng.integers(lo, hi + 1, 10000)
    t0 = time.perf_counter()
    mismatches = 0
    ambiguous = 0
    for n in ns:
        e = floor_value(int(n), w3.c, w3.theta)
        f_mp, _ = _escalated(int(n), w3.c, w3.theta)
        if e.f != f_mp:
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and ambiguous == 0 and dt < 5.0
    emit(6, "certified_floors", ok,
         f"10^4 draws, path mismatches={mismatches}, ambiguous={ambiguous}, t={dt:.2f}s")
    assert mismatches == 0
    assert ambiguous == 0
    assert dt < 5.0


def test_07_convolution_orthogonality(w2, w3):
    t0 = time.perf_counter()
    exact1 = all(
        weight_convolution(w, w.n_star, 1) == weight(float(w.n_star), w)
        for w in (w2, w3)
    )
    rev_ok = True
    for w in (w2, w3):
        m, wt = grid_weights(w)
        lo, N = int(m[0]), w.n_star
        a = max(lo, N - int(m[-1]))
        b = min(int(m[-1]), N - lo)
        terms = [float(wt[x - lo] * wt[N - x - lo]) for x in range(a, b + 1)]
        val = weight_convolution(w, N, 2)
        rev_ok &= math.fsum(terms) == val and math.fsum(terms[::-1]) == val
    dt = time.perf_counter() - t0
    ok = exact1 and rev_ok and dt < 10.0
    emit(7, "convolution_orthogonality", ok,
         f"k=1 bitwise={exact1}, reversal bitwise={rev_ok}, t={dt:.2f}s")
    assert exact1
    assert rev_ok
    assert dt < 10.0


def singular_mean(scan, w):
    """Band mean of weighted / singular_integral over a scan of consecutive targets."""
    si = singular_integral(w, int(scan.N[0]), int(scan.N[-1]))
    return statistics.mean((scan.weighted / si).tolist())


def test_08_desk_band_trend(table3, block3, pairmap3, w3):
    recorded = json.loads((FIXTURES / "desk_scale_band.json").read_text())
    t0 = time.perf_counter()
    scan3 = scan_band(table3, block3.logs, w3.n_star - 100, w3.n_star + 100,
                      pair_map=pairmap3, w=w3)
    stats3 = band_stats(scan3, compare_report(scan3, w3))
    si3 = singular_mean(scan3, w3)

    w4 = quiet_window(4, 1.02, 1.5)
    blk4 = sieve_segment(w4.delta1, w4.delta2)
    vt4 = value_table(blk4.primes, w4.c, w4.theta)
    scan4 = scan_band(vt4, blk4.logs, w4.n_star - 100, w4.n_star + 100, w=w4)
    stats4 = band_stats(scan4, compare_report(scan4, w4))
    si4 = singular_mean(scan4, w4)
    dt = time.perf_counter() - t0

    fixture_ok = (
        stats3["mean_ratio"] == pytest.approx(recorded["k3"]["mean_ratio"], rel=1e-9)
        and stats4["mean_ratio"] == pytest.approx(recorded["k4"]["mean_ratio"], rel=1e-9)
        and si3 == pytest.approx(recorded["k3"]["mean_ratio_singular"], rel=1e-9)
        and si4 == pytest.approx(recorded["k4"]["mean_ratio_singular"], rel=1e-9)
    )

    ok_a = stats3["positive_rate"] >= 0.9
    ok_b = 1.0 / 3.0 <= si3 <= 3.0
    dev3 = abs(si3 - 1.0)
    dev4 = abs(si4 - 1.0)
    ok_c = dev4 <= 1.5 * dev3
    ok = ok_a and ok_b and ok_c and fixture_ok and dt < 180.0
    emit(8, "desk_band_trend", ok,
         f"(a) rate={stats3['positive_rate']:.3f} {'PASS' if ok_a else 'FAIL'}; "
         f"(b) mean weighted/singular={si3:.6f} in [1/3,3] {'PASS' if ok_b else 'FAIL'} "
         f"(weighted/main_term={stats3['mean_ratio']:.6f}); "
         f"(c) dev k4/k3={dev4 / dev3:.4f} {'PASS' if ok_c else 'FAIL'}; "
         f"fixture match={fixture_ok}, t={dt:.1f}s")
    assert fixture_ok, "band statistics drifted from the recorded fixture"
    assert ok_a, f"positive rate {stats3['positive_rate']} below 0.9"
    assert ok_c, f"k=4 deviation {dev4} worsened over k=3 {dev3} by more than 50%"
    assert dt < 180.0
    assert ok_b, (
        f"band mean weighted/singular_integral = {si3:.6f} lies outside [1/3, 3] "
        f"(weighted/main_term = {stats3['mean_ratio']:.6f})"
    )


def test_09_buriev_residuals():
    y = np.linspace(0.05, 0.95, 1000)
    t0 = time.perf_counter()
    lo = fourier_expansion_residual(y, 0.37, 16)
    hi = fourier_expansion_residual(y, 0.37, 256)
    dt = time.perf_counter() - t0
    ok = (
        hi["mean_residual"] < lo["mean_residual"]
        and lo["max_residual"] <= 1.0
        and hi["max_residual"] <= 1.0
        and dt < 5.0
    )
    emit(9, "buriev_residuals", ok,
         f"mean H=16 {lo['mean_residual']:.5f} -> H=256 {hi['mean_residual']:.5f}, "
         f"max={max(lo['max_residual'], hi['max_residual']):.4f}, t={dt:.2f}s")
    assert hi["mean_residual"] < lo["mean_residual"]
    assert lo["max_residual"] <= 1.0 and hi["max_residual"] <= 1.0
    assert dt < 5.0


def test_10_classical_crosscheck():
    recorded = json.loads((FIXTURES / "desk_scale_band.json").read_text())["classical"]
    c, N = 1.02, 2000
    t0 = time.perf_counter()
    rep = count_classical(c, N)
    bmax = int(round(N ** (1.0 / c))) + 2
    sieve = np.ones(bmax + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(bmax**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    fs = [(int(p), _classical_floor(int(p), c)) for p in np.nonzero(sieve)[0]]
    fs = [(p, f) for p, f in fs if f <= N]
    flist = [f for _, f in fs]
    naive = 0
    for f1 in flist:
        for f2 in flist:
            if f1 + f2 > N:
                continue
            need = N - f1 - f2
            for f3 in flist:
                if f3 == need:
                    naive += 1
    dt = time.perf_counter() - t0
    mt = classical_main_term(c, N)
    ratio = rep.weighted / mt
    counts_ok = rep.count == naive
    ratio_ok = 0.25 <= ratio <= 4.0
    fixture_ok = ratio == pytest.approx(recorded["ratio"], rel=1e-9)
    ok = counts_ok and ratio_ok and fixture_ok and dt < 30.0
    emit(10, "classical_crosscheck", ok,
         f"count {rep.count} vs naive {naive}, ratio={ratio:.4f}, t={dt:.1f}s")
    assert counts_ok
    assert ratio_ok
    assert fixture_ok
    assert dt < 30.0

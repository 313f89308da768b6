"""Main terms and exact weight convolutions."""

import dataclasses
import json
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import quiet_window
from tanprimes import (
    asymptotics,
    classical_main_term,
    main_term,
    singular_integral,
    weight,
    weight_convolution,
)
from tanprimes.asymptotics import (
    BandComparison,
    band_stats,
    compare_report,
    grid_weights,
)
from tanprimes.cli import main
from tanprimes.errors import BandTooWide, InvalidParameter
from tanprimes.repcount import BandScan, scan_band
from tanprimes.window import image_interval


def test_main_term_frozen(w2, w3):
    assert main_term(w2) == pytest.approx(74966.65664038033, rel=1e-12)
    assert main_term(w3) == pytest.approx(84405890.33377805, rel=1e-12)


def test_main_term_denominator_example(w2):
    # theta=2, c=1.05: 2^theta c + 5 theta 2^(theta-1) = 4.2 + 20 = 24.2
    expect = w2.delta2 ** (1.0 - w2.c) * w2.x**2 / 24.2
    assert main_term(w2) == pytest.approx(expect, rel=1e-13)


def test_main_term_is_weight_at_top(w0, w2, w3):
    for w in (w0, w2, w3):
        t2 = image_interval(w)[1]
        assert main_term(w) == pytest.approx(weight(t2, w) * w.x**2, rel=1e-9)


def test_main_term_weight_identity_random():
    rng = np.random.default_rng(404)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        c = 1.0 + float(rng.uniform(0.001, 23.0 / 21.0 - 1.0))
        theta = float(rng.uniform(1.001, 3.0))
        w = quiet_window(k, c, theta)
        t2 = image_interval(w)[1]
        assert main_term(w) == pytest.approx(weight(t2, w) * w.x**2, rel=1e-9)


@given(
    st.floats(min_value=1.001, max_value=1.09),
    st.floats(min_value=1.001, max_value=3.0),
)
@settings(max_examples=100, deadline=None)
def test_denominator_algebraic_rewrite(c, theta):
    lhs = 2.0**theta * c + 5.0 * theta * 2.0 ** (theta - 1.0)
    rhs = (2.0 * c + 5.0 * theta) * 2.0 ** (theta - 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_classical_main_term_limits():
    # at c=1 the constant collapses to Gamma(2)^3/Gamma(3) = 1/2
    assert classical_main_term(1.0, 1000) == pytest.approx(5e5, rel=1e-12)
    # N-scaling follows N^(3/c - 1)
    c = 1.05
    r = classical_main_term(c, 4000) / classical_main_term(c, 2000)
    assert r == pytest.approx(2.0 ** (3.0 / c - 1.0), rel=1e-10)


def test_classical_main_term_fixture():
    assert classical_main_term(1.02, 2000) == pytest.approx(1316704.3859779218, rel=1e-10)
    with pytest.raises(InvalidParameter):
        classical_main_term(0.99, 2000)


def test_grid_weights_layout(w2):
    m, wt = grid_weights(w2)
    assert m[0] == math.floor(w2.n1) + 1
    assert m[-1] == w2.n_star
    assert len(m) == len(wt)
    assert np.all(wt > 0)
    # cached: same object back, read-only so that no caller's write leaks
    # into every later sum and convolution
    assert grid_weights(w2) is grid_weights(w2)
    with pytest.raises(ValueError):
        wt *= 2.0
    with pytest.raises(ValueError):
        m[0] = 0


def test_grid_guard():
    w8 = quiet_window(8, 1.02, 1.5)
    with pytest.raises(BandTooWide):
        grid_weights(w8)


def test_convolution_k1_is_weight(w2):
    m, wt = grid_weights(w2)
    for N in (int(m[0]), 5000, w2.n_star):
        assert weight_convolution(w2, N, 1) == weight(float(N), w2)
    assert weight_convolution(w2, int(m[0]) - 1, 1) == 0.0
    assert weight_convolution(w2, w2.n_star + 1, 1) == 0.0


def test_convolution_k2_frozen_and_reversal(w2):
    val = weight_convolution(w2, w2.n_star, 2)
    assert val == pytest.approx(22.154757207603986, rel=1e-9)
    m, wt = grid_weights(w2)
    lo, N = int(m[0]), w2.n_star
    terms = [
        float(wt[a - lo] * wt[N - a - lo])
        for a in range(max(lo, N - int(m[-1])), min(int(m[-1]), N - lo) + 1)
    ]
    # fsum is correctly rounded, so ascending and reversed orders agree
    # bit for bit with the library value
    assert math.fsum(terms) == val
    assert math.fsum(terms[::-1]) == val


def test_convolution_k3_frozen(w2, w3):
    assert weight_convolution(w2, w2.n_star, 3) == pytest.approx(5948.958004992801, rel=1e-9)
    assert weight_convolution(w3, w3.n_star, 3) == pytest.approx(2180552.8549752776, rel=1e-6)


def test_convolution_rejects_bad_k(w2):
    with pytest.raises(InvalidParameter):
        weight_convolution(w2, 9000, 0)
    with pytest.raises(InvalidParameter):
        weight_convolution(w2, 9000, 4)


def test_convolution_zero_when_unreachable(w2):
    assert weight_convolution(w2, 2, 2) == 0.0
    assert weight_convolution(w2, 3 * w2.n_star + 1, 3) == 0.0


def _conv3_cold(w, N):
    asymptotics._pair_sums.cache_clear()
    return weight_convolution(w, N, 3)


def test_convolution_k3_cached_bits_equal_cold(w2):
    # the crosscheck job's 24 seed-1 targets: warm pair sums give the bits of
    # a call with the cache cleared first
    targets = [w2.n_star + off for off in sorted(random.Random(1).sample(range(-100, 1), 24))]
    cold = [_conv3_cold(w2, N) for N in targets]
    asymptotics._pair_sums.cache_clear()
    warm = [weight_convolution(w2, N, 3) for N in targets]
    assert asymptotics._pair_sums.cache_info().hits == len(targets) - 1
    assert [v.hex() for v in warm] == [v.hex() for v in cold]


def test_convolution_k3_fills_only_what_it_reads(w2):
    # 3 m_lo and 3 m_hi read the single pair sums s = 2 m_lo and s = 2 m_hi
    m, _ = grid_weights(w2)
    lo3, hi3 = 3 * int(m[0]), 3 * int(m[-1])
    cold = {N: _conv3_cold(w2, N) for N in (lo3, hi3, w2.n_star)}
    asymptotics._pair_sums.cache_clear()
    P = asymptotics._pair_sums(w2)
    assert weight_convolution(w2, lo3, 3).hex() == cold[lo3].hex()
    assert np.count_nonzero(~np.isnan(P)) == 1 and not np.isnan(P[0])
    assert weight_convolution(w2, hi3, 3).hex() == cold[hi3].hex()
    assert np.count_nonzero(~np.isnan(P)) == 2 and not np.isnan(P[-1])
    assert weight_convolution(w2, w2.n_star, 3).hex() == cold[w2.n_star].hex()
    with pytest.raises(ValueError):
        P[1] = 0.0


def test_singular_integral_matches_convolution(w2, w3):
    # FFT pair convolution against the direct O(grid^2) route; the measured
    # deviation is at rounding level (2e-16 at k=3)
    for w in (w2, w3):
        lo, hi = w.n_star - 100, w.n_star + 100
        si = singular_integral(w, lo, hi)
        assert si.shape == (hi - lo + 1,)
        for N in (lo, w.n_star, hi):
            assert si[N - lo] == pytest.approx(weight_convolution(w, N, 3), rel=1e-9)
    assert singular_integral(w2, w2.n_star, w2.n_star)[0] == pytest.approx(
        5948.958004992801, rel=1e-9
    )
    assert singular_integral(w3, w3.n_star, w3.n_star)[0] == pytest.approx(
        2180552.8549752776, rel=1e-9
    )


def test_singular_integral_zero_when_unreachable(w2):
    m, _ = grid_weights(w2)
    lo3, hi3 = 3 * int(m[0]), 3 * int(m[-1])
    low = singular_integral(w2, lo3 - 2, lo3 + 1)
    assert low[0] == 0.0 and low[1] == 0.0
    assert low[2] == pytest.approx(weight_convolution(w2, lo3, 3), rel=1e-9)
    high = singular_integral(w2, hi3 - 1, hi3 + 2)
    assert high[2] == 0.0 and high[3] == 0.0
    assert high[1] == pytest.approx(weight_convolution(w2, hi3, 3), rel=1e-9)
    assert np.all(singular_integral(w2, 2, 10) == 0.0)
    with pytest.raises(InvalidParameter):
        singular_integral(w2, 10, 9)


def test_compare_report_rows(table2, block2, pairmap2, w2):
    scan = scan_band(table2, block2.logs, w2.n_star - 3, w2.n_star + 3, pair_map=pairmap2, w=w2)
    cmp = compare_report(scan, w2)
    mt = main_term(w2)
    assert len(cmp.ratio) == len(scan)
    assert cmp.main_term == mt
    for weighted, ratio in zip(scan.weighted.tolist(), cmp.ratio.tolist()):
        assert ratio == weighted / mt
    empty = BandScan(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), w2)
    with pytest.raises(InvalidParameter):
        compare_report(empty, w2)


def test_band_stats_fields(table2, block2, pairmap2, w2):
    scan = scan_band(table2, block2.logs, w2.n_star - 10, w2.n_star + 10, pair_map=pairmap2, w=w2)
    st_ = band_stats(scan, compare_report(scan, w2))
    assert st_["n"] == 21
    assert 0.0 <= st_["positive_rate"] <= 1.0
    assert st_["median_ratio"] >= 0.0
    assert set(st_) == {"n", "positive_rate", "mean_ratio", "median_ratio"}


def test_band_stats_mean_rounds_once(w2):
    # the exact mean rounded once: math.fsum(r) / n rounds twice, one ulp off here
    ratio = np.array([float.fromhex(h) for h in (
        "0x1.1a8c8a6233255p+0", "0x1.504ede6a16a3bp+0", "0x1.be5bb1cfb10f6p+0")])
    scan = BandScan(np.arange(3), np.ones(3, dtype=np.int64), ratio, w2)
    st_ = band_stats(scan, BandComparison(1.0, ratio))
    assert st_["mean_ratio"].hex() == "0x1.63125e33fe482p+0"
    assert (math.fsum(ratio.tolist()) / 3).hex() == "0x1.63125e33fe483p+0"


_RATIOS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.0, -1.0, 2.0 ** 969]),
    st.floats(-1e-300, 1e-300),                      # subnormals and their neighbours
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RATIOS, min_size=1, max_size=60))
def test_band_stats_mean_bits_equal_statistics_mean(w2, ratios):
    # exact slice sums joined as Fractions, rounded once: statistics.mean's
    # bits, also with zeros of both signs, negatives and subnormals (a
    # column reaching 2^970 takes statistics.mean itself)
    ratio = np.array(ratios)
    scan = BandScan(np.arange(len(ratio)), np.ones(len(ratio), dtype=np.int64), ratio, w2)
    mean = band_stats(scan, BandComparison(1.0, ratio))["mean_ratio"]
    assert mean.hex() == statistics.mean(ratios).hex()


def test_band_stats_mean_of_non_finite_columns(w2):
    for ratios in ([1.0, math.inf, 2.0], [-math.inf, 0.5], [math.inf, -math.inf], [math.nan, 1.0]):
        ratio = np.array(ratios)
        scan = BandScan(np.arange(len(ratio)), np.ones(len(ratio), dtype=np.int64), ratio, w2)
        mean = band_stats(scan, BandComparison(1.0, ratio))["mean_ratio"]
        assert mean.hex() == statistics.mean(ratios).hex(), ratios


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_RATIOS, st.sampled_from([math.inf, -math.inf, math.nan])),
                min_size=1, max_size=60))
@example([0.0, -0.0, -0.0, -1.0])
@example([0.0, 0.0, -0.0, 0.0, -1.0])
def test_band_stats_median_bits_equal_statistics_median(w2, ratios):
    # the middle value, or the two averaged, picked by np.partition:
    # statistics.median's bits on odd and even columns with ties, zeros of
    # both signs and infinities (a column with a NaN or a -0.0 takes
    # statistics.median itself; np.partition would pick 0.0 where the
    # stable sort picks -0.0, or the other way round, in the two examples)
    ratio = np.array(ratios)
    scan = BandScan(np.arange(len(ratio)), np.ones(len(ratio), dtype=np.int64), ratio, w2)
    median = band_stats(scan, BandComparison(1.0, ratio))["median_ratio"]
    assert median.hex() == statistics.median(ratios).hex()


def test_band_stats_median_of_the_wide_k3_band(table3, block3, w3):
    # the 40 001 ratios of compare --k 3 --band -20000:20000, and all but
    # the first of them for an even count
    scan = scan_band(table3, block3.logs, w3.n_star - 20000, w3.n_star + 20000, w=w3)
    cmp = compare_report(scan, w3)
    for ratio in (cmp.ratio, cmp.ratio[1:]):
        part = BandScan(scan.N[-len(ratio):], scan.count[-len(ratio):], ratio, w3)
        median = band_stats(part, BandComparison(cmp.main_term, ratio))["median_ratio"]
        assert median.hex() == statistics.median(ratio.tolist()).hex()


def test_compare_csv_header(table2, block2, pairmap2, w2, tmp_path):
    scan = scan_band(table2, block2.logs, w2.n_star, w2.n_star + 2, pair_map=pairmap2, w=w2)
    cmp = compare_report(scan, w2)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--k", "2", "--c", "1.05", "--theta", "2.0", "--band", "0:2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,count,weighted,main_term,ratio"
    assert len(lines) == 4
    # the row writer the columns replaced
    mt = cmp.main_term
    assert lines[1:] == [f"{N},{c},{x:.12g},{mt:.12g},{r:.12g}" for N, c, x, r in zip(
        scan.N.tolist(), scan.count.tolist(), scan.weighted.tolist(), cmp.ratio.tolist())]


def test_compare_columns_bits_equal_row_oracle(capsys, table3, block3, w3):
    # The per-row code the columns replaced, over 4 001 targets: Python x / mt
    # per row, statistics over the Python ratios, and the row-dict JSON.
    lo, hi = w3.n_star - 2000, w3.n_star + 2000
    scan = scan_band(table3, block3.logs, lo, hi, w=w3)
    stats = band_stats(scan, compare_report(scan, w3))
    mt = main_term(w3)
    rows = [{"N": N, "count": c, "weighted": x, "main_term": mt, "ratio": x / mt}
            for N, c, x in zip(range(lo, hi + 1), scan.count.tolist(), scan.weighted.tolist())]
    ratios = [row["ratio"] for row in rows]
    want = {"n": len(rows),
            "positive_rate": sum(1 for row in rows if row["count"] > 0) / len(rows),
            "mean_ratio": statistics.mean(ratios),
            "median_ratio": statistics.median(ratios)}
    for key in ("mean_ratio", "median_ratio", "positive_rate"):
        assert stats[key].hex() == want[key].hex(), key
    assert stats == want
    assert {k: type(v) for k, v in stats.items()} == {k: type(v) for k, v in want.items()}
    assert main(["compare", "--k", "3", "--band", "-2000:2000", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps({"rows": rows, "stats": want, "window": dataclasses.asdict(w3)},
                             sort_keys=True) + "\n"


def test_grid_weights_keep_memory_to_the_grid(w3, monkeypatch):
    # the targets are range-checked by their min and max and made float64
    # a chunk at a time, and the int64 grid is passed as is: on a pool of 2
    # the grid, its weights, the window's start table (solved cold here, so
    # its node solve counts) and a chunk of temporaries per thread stay
    # under 3.5 times the grid's bytes (2.4 measured in a fresh process,
    # with or without a map on the pool before it); a float64 copy of the
    # grid and full-length range-check temporaries took 4.6.
    import tracemalloc

    from tanprimes import pool
    from tanprimes import window as window_mod

    monkeypatch.setattr(window_mod, "_NEWTON_CHUNK", 2 ** 10)
    window_mod._start_table.cache_clear()
    with pool.threads(2):
        tracemalloc.start()
        try:
            m, wt = grid_weights.__wrapped__(w3)  # uncached
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert wt.tobytes() == grid_weights(w3)[1].tobytes()
    assert peak < 3.5 * m.nbytes

"""Ternary counts: meet-in-the-middle vs the naive oracle, scans, binary
search, and the classical Piatetski-Shapiro style cross-check."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quiet_window
from tanprimes import (
    count_classical,
    count_ternary_mitm,
    count_ternary_naive,
    find_binary,
    floor_value,
    scan_band,
    sieve_segment,
    value_table,
)
from tanprimes.cli import main
from tanprimes.errors import (
    AmbiguousFloor,
    BandTooWide,
    InvalidParameter,
    TooLarge,
    WindowMismatch,
)
from tanprimes import pool, repcount
from tanprimes.repcount import (
    _classical_floor,
    build_pair_map,
    pair_span_bound,
    self_convolution,
)


def test_pair_map_total_mass(pairmap2, table2):
    assert int(pairmap2.counts.sum()) == len(table2) ** 2
    assert pairmap2.n_primes == len(table2)


def test_pair_map_bounds(pairmap2, table2):
    assert pairmap2.s_min == 2 * int(table2.f.min())
    assert pairmap2.s_max == 2 * int(table2.f.max())


def test_self_convolution_matches_convolve():
    # two blocks below _BLOCKS_FROM: lo = x[:h], hi = x[h:] of x[:n_out],
    # h = ceil(len / 2), at W = 1, 2, odd and even: n_out runs through
    # (0, h], (h, 2h] (no hi*hi), (2h, 2W - 1] (empty at W = 1) and past the
    # whole convolution, where every entry is exactly 0.0; below W only
    # x[:n_out] is read
    rng = np.random.default_rng(5)
    for W in (1, 2, 36, 37):
        x = rng.random(W)
        full = np.convolve(x, x)
        for n_out in range(1, 2 * W + 3):
            got = self_convolution(x, n_out)
            want = np.concatenate([full, np.zeros(max(0, n_out - len(full)))])[:n_out]
            assert len(got) == n_out
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * full.max())
            assert np.all(got[len(full):] == 0.0)


@pytest.mark.parametrize("W", [2 ** 18 - 1, 2 ** 18, 2 ** 18 + 37])
def test_self_convolution_of_sparse_vectors_on_both_sides_of_the_blocks(W):
    # a sparse 0/1 x has an exact square, the bincount of its pairwise index
    # sums: W = 2^18 - 1 takes two blocks, the others _BLOCKS (the last one
    # short at 2^18 + 37). n_out ends inside a block, on block and shift
    # edges, at the table's end 2W - 1 and past it, where every entry is
    # exactly 0.0; both pool widths give the same bits
    rng = np.random.default_rng(W)
    idx = np.sort(rng.choice(W, 400, replace=False))
    idx[[0, -1]] = 0, W - 1
    x = np.zeros(W)
    x[idx] = 1.0
    exact = np.bincount(np.add.outer(idx, idx).ravel(), minlength=2 * W - 1)
    a = repcount._blocks(W)[0]
    assert a == (-(-W // 2) if W < repcount._BLOCKS_FROM else -(-W // repcount._BLOCKS))
    for n_out in (1, a - 1, a, a + 1, 2 * a, 3 * a + 5, W, 2 * W - 2 - a, 2 * W - 1, 2 * W + 3):
        got = self_convolution(x, n_out)
        with pool.threads(2):
            assert self_convolution(x, n_out).tobytes() == got.tobytes()
        want = exact[:n_out]
        assert len(got) == n_out
        assert np.max(np.abs(got[:len(want)] - want)) < 1e-9
        assert np.all(got[len(want):] == 0.0)


@pytest.mark.parametrize("W", [97, 201])
def test_self_convolution_in_many_blocks_matches_exact(monkeypatch, W):
    # _BLOCKS blocks from 64 floors on: W = 97 takes 25 blocks of 4 (the
    # last of 1), W = 201 29 of 7 (the last of 5). Every n_out from 1 to
    # 2W + 2 squares x[:n_out], in two blocks below 64 and in blocks from
    # there, with every shift up to 2P - 2 past W. Small integers square
    # exactly; both pool widths give the same bits, and every entry past
    # 2W - 2 is exactly 0.0
    monkeypatch.setattr(repcount, "_BLOCKS_FROM", 64)
    x = np.random.default_rng(W).integers(0, 4, W)
    assert repcount._blocks(W)[0] == -(-W // repcount._BLOCKS) and W % repcount._blocks(W)[0]
    for n_out in range(1, 2 * W + 3):
        exact = np.convolve(x[:n_out], x[:n_out])[:n_out]
        got = self_convolution(x.astype(np.float64), n_out)
        with pool.threads(2):
            assert self_convolution(x.astype(np.float64), n_out).tobytes() == got.tobytes()
        assert len(got) == n_out and got.base is None
        assert np.max(np.abs(got[:len(exact)] - exact)) < 1e-9
        assert np.all(got[len(exact):] == 0.0)


def _in_daemon(fn, width: int, timeout: float = 60.0) -> list:
    # fn() at the pool width in a daemon thread, joined with a timeout, so a
    # pool left waiting fails the test instead of hanging it; returns what
    # fn raised
    raised = []

    def call():
        with pool.threads(width):
            try:
                fn()
            except Exception as exc:
                raised.append(exc)

    t = threading.Thread(target=call, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive()
    return raised


@pytest.mark.parametrize("fail_at", [2, 7, 31])
def test_failing_shift_stops_the_pool(monkeypatch, fail_at):
    # one of the 57 shifts' inverse transforms raises at pool width 2,
    # while the other thread's shifts wait their turn to commit: the error
    # reaches the caller and no thread is left waiting
    class Failed(Exception):
        pass

    monkeypatch.setattr(repcount, "_BLOCKS_FROM", 64)
    calls = iter(range(1, 10 ** 6))
    irfft = np.fft.irfft

    def failing(*args, **kw):
        if next(calls) == fail_at:
            raise Failed
        return irfft(*args, **kw)

    monkeypatch.setattr(np.fft, "irfft", failing)
    x = np.random.default_rng(1).random(201)
    raised = _in_daemon(lambda: self_convolution(x, 2 * len(x) - 1), 2)
    assert len(raised) == 1 and isinstance(raised[0], Failed)


def test_shift_commits_keep_their_order_under_contention(monkeypatch):
    # five threads, more than the cores, take turns to commit the 57 shifts
    # of a 29-block square while the interpreter switches threads every
    # microsecond: the bits of the serial square, every time
    monkeypatch.setattr(repcount, "_BLOCKS_FROM", 64)
    x = np.random.default_rng(2).random(201)
    want = self_convolution(x, 2 * len(x) - 1).tobytes()
    got = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert not _in_daemon(lambda: got.extend(self_convolution(x, 2 * len(x) - 1).tobytes()
                                                 for _ in range(20)), 5)
    finally:
        sys.setswitchinterval(switch)
    assert got == [want] * 20


def test_workspace_squares_at_any_pool_width(monkeypatch):
    # a workspace made at pool width 2 is squared at widths 1 and 5, with
    # the bits of the square at width 1: the thread buffers are made at the
    # width the square runs at, so no shift waits on a thread that is not there
    monkeypatch.setattr(repcount, "_BLOCKS_FROM", 64)
    x = np.random.default_rng(3).random(201)
    n_out = 2 * len(x) - 1
    want = self_convolution(x, n_out).tobytes()
    with pool.threads(2):
        work = repcount._fft_workspace(len(x), n_out)
    for width in (1, 5):
        got = []
        assert not _in_daemon(lambda: got.append(self_convolution(x, n_out, work).tobytes()),
                              width, timeout=10.0)
        assert got == [want], width


def test_pair_map_matches_bincount(table3, block3, pairmap3):
    f, logs = table3.f, block3.logs
    assert np.all(np.diff(f) > 0)  # distinct floors: the premise of the rint bound
    rel = f - int(f.min())
    want_c = np.bincount(np.add.outer(rel, rel).ravel())
    want_w = np.bincount(np.add.outer(rel, rel).ravel(), weights=np.multiply.outer(logs, logs).ravel())
    assert np.array_equal(pairmap3.counts, want_c)
    hit = want_c > 0
    np.testing.assert_allclose(pairmap3.weights[hit], want_w[hit], rtol=1e-12)
    assert np.all(pairmap3.weights[~hit] == 0.0)
    assert int(pairmap3.counts.sum()) == len(f) ** 2


def test_percival_bound_at_span_guard():
    # _pair_map_from_arrays rounds FFT counts with rint on the strength of
    # this bound and quotes these figures. The guard judges
    # max(n_out, 2*width - 1), so a table's multiplicity vector x has at most
    # (guard + 1) // 2 ones, and a band-limited table (the k=5 band reads
    # 1.88e7 sums of a 1.18e8-sum span) stays within the same figures;
    # raising the guard must revisit both. self_convolution squares x from
    # P blocks q_i of length a (_blocks), each product in one transform of
    # length nfft; Percival bounds the error of a product q_i*q_j by
    # |q_i| |q_j| times the factor below, so all of them together err by at
    # most factor (sum |q_i|)^2 <= P norm2 factor (Cauchy-Schwarz).
    guard = repcount._PAIR_SPAN_GUARD
    norm2 = (guard + 1) // 2  # 0/1 multiplicities over at most this many f values
    a, nfft = repcount._blocks(norm2)
    P = -(-norm2 // a)
    L = math.ceil(math.log2(nfft))
    assert (norm2, P, L) == (2 ** 25, repcount._BLOCKS, 21)
    e = 2.0 ** -53  # unit roundoff; the twiddle error is taken as e too
    # (1+e)^3L (1+e sqrt5)^(3L+1) (1+e)^3L - 1, in logs since 1 + e rounds to 1
    factor = math.expm1(6 * L * math.log1p(e) + (3 * L + 1) * math.log1p(e * math.sqrt(5)))
    bound = P * norm2 * factor
    assert bound == pytest.approx(3.21e-5, rel=0.01)
    assert bound < 0.25


def test_pair_map_spot_check(pairmap2, table2, block2):
    s = int(table2.f[0] + table2.f[7])
    cnt = 0
    terms = []
    for i in range(len(table2)):
        for j in range(len(table2)):
            if int(table2.f[i] + table2.f[j]) == s:
                cnt += 1
                terms.append(block2.logs[i] * block2.logs[j])
    c = pairmap2.counts[s - pairmap2.s_min]
    wgt = pairmap2.weights[s - pairmap2.s_min]
    assert c == cnt
    assert wgt == pytest.approx(math.fsum(terms), rel=1e-12)


@given(st.integers(min_value=0, max_value=3968))
@settings(max_examples=30, deadline=None)
def test_pair_map_random_sums(pairmap2, table2, i):
    # treat i as an index into the full pair grid and query its sum
    a, b = divmod(i, 63)
    s = int(table2.f[a] + table2.f[b])
    cnt = pairmap2.counts[s - pairmap2.s_min]
    brute = int(np.sum(np.add.outer(table2.f, table2.f) == s))
    assert cnt == brute


def test_mitm_equals_naive_sampled(table2, block2, pairmap2, w2):
    rng = np.random.default_rng(11)
    lo, hi = 3 * int(table2.f.min()), 3 * int(table2.f.max())
    targets = [w2.n_star, w2.n_star - 3, lo, hi] + [
        int(x) for x in rng.integers(lo, hi + 1, 6)
    ]
    for N in targets:
        a = count_ternary_mitm(table2, block2.logs, N, pair_map=pairmap2, w=w2)
        b = count_ternary_naive(table2, block2.logs, N)
        assert a.count == b.count
        if b.weighted:
            assert a.weighted == pytest.approx(b.weighted, rel=1e-12)
        assert a.method == "mitm" and b.method == "naive"


def test_single_prime_window(w0, table2):
    # k=0 window holds only the prime 3, f(3)=12, so N=36 has exactly the
    # one diagonal representation
    blk_logs = np.log(np.array([3.0]))
    t = value_table([3], w0.c, w0.theta)
    rep = count_ternary_mitm(t, blk_logs, 36)
    assert rep.count == 1
    assert rep.weighted == pytest.approx(math.log(3.0) ** 3, rel=1e-12)
    assert count_ternary_mitm(t, blk_logs, 35).count == 0
    assert count_ternary_naive(t, blk_logs, 37).count == 0


def test_ordered_multiplicity_structure(table2, block2, w2):
    # ordered counts decompose into 6/3/1 multiples by distinctness
    N = w2.n_star
    classes = {}
    f = table2.f
    for i in range(len(f)):
        for j in range(len(f)):
            fij = int(f[i] + f[j])
            if fij > N:
                continue
            for l in range(len(f)):
                if fij + int(f[l]) == N:
                    key = tuple(sorted((i, j, l)))
                    classes[key] = classes.get(key, 0) + 1
    total = 0
    for key, mult in classes.items():
        distinct = len(set(key))
        assert mult == {3: 6, 2: 3, 1: 1}[distinct]
        total += mult
    assert total == count_ternary_mitm(table2, block2.logs, N, w=w2).count


def test_zero_report_out_of_range(table2, block2, monkeypatch):
    def refuse(*args):
        raise AssertionError("pair map built for a target no triple reaches")

    monkeypatch.setattr(repcount, "_pair_tables", refuse)
    lo = 3 * int(table2.f.min())
    rep = count_ternary_mitm(table2, block2.logs, lo - 1)
    assert rep.count == 0 and rep.weighted == 0.0
    assert count_ternary_mitm(table2, block2.logs, 10**9).count == 0


def test_scan_matches_pointwise(table2, block2, pairmap2, w2):
    scan = scan_band(table2, block2.logs, w2.n_star - 5, w2.n_star + 5, pair_map=pairmap2, w=w2)
    assert len(scan) == 11
    assert scan.N.tolist() == list(range(w2.n_star - 5, w2.n_star + 6))
    cols = (scan.N, scan.count, scan.weighted)
    for i, (N, count, weighted) in enumerate(zip(*(col.tolist() for col in cols))):
        rep = count_ternary_mitm(table2, block2.logs, N, pair_map=pairmap2, w=w2)
        assert count == rep.count
        assert weighted == rep.weighted
        assert scan.report(i) == rep


def _bands(table, w):
    # the edges of the band-limited table: one entry, interior, clamped to the span
    lo, hi = 3 * int(table.f.min()), 3 * int(table.f.max())
    return {"one-entry": (lo, lo), "interior": (w.n_star - 20, w.n_star + 20),
            "full-span": (hi - 20, hi + 5)}


@pytest.mark.parametrize("band", ["one-entry", "interior", "full-span"])
@pytest.mark.parametrize("k", [2, 3])
def test_band_limited_table_matches_full_map(request, monkeypatch, k, band):
    table = request.getfixturevalue(f"table{k}")
    logs = request.getfixturevalue(f"block{k}").logs
    full = request.getfixturevalue(f"pairmap{k}")
    N_lo, N_hi = _bands(table, request.getfixturevalue(f"w{k}"))[band]
    seen = []

    def recording(x, n_out, **kw):
        seen.append(n_out)
        return self_convolution(x, n_out, **kw)

    monkeypatch.setattr(repcount, "self_convolution", recording)
    limited = scan_band(table, logs, N_lo, N_hi)
    want_n_out = min(len(full.counts), N_hi - 3 * int(table.f.min()) + 1)
    assert seen == [want_n_out, want_n_out]  # counts, then weights
    assert want_n_out == {"one-entry": 1, "interior": N_hi - 3 * int(table.f.min()) + 1,
                          "full-span": len(full.counts)}[band]
    assert band == "full-span" or want_n_out < len(full.counts)
    reference = scan_band(table, logs, N_lo, N_hi, pair_map=full)
    assert limited.count.tolist() == reference.count.tolist()
    assert reference.count.any()
    for a, b in zip(limited.weighted.tolist(), reference.weighted.tolist()):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


def _untruncated_pair_map(f, logs, n_out=None):
    # the build before band limiting: both bincounts over the whole floor
    # range, of which self_convolution reads only the first n_out entries
    fmin, fmax = int(f.min()), int(f.max())
    span = 2 * (fmax - fmin) + 1
    n_out = span if n_out is None else min(span, n_out)
    rel = (f - fmin).astype(np.int64)
    counts = np.rint(self_convolution(np.bincount(rel), n_out)).astype(np.int32)
    weights = self_convolution(np.bincount(rel, weights=logs), n_out)
    weights[counts == 0] = 0.0
    return repcount.PairMap(2 * fmin, counts, weights, len(f))


def _same_bits(got, want):
    assert (got.s_min, got.n_primes) == (want.s_min, want.n_primes)
    assert got.counts.dtype == want.counts.dtype and got.weights.dtype == want.weights.dtype
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize("band", ["one-entry", "interior", "full-span", "full-table"])
@pytest.mark.parametrize("k", [2, 3])
def test_band_limited_build_bits_equal_untruncated(request, k, band):
    table = request.getfixturevalue(f"table{k}")
    logs = request.getfixturevalue(f"block{k}").logs
    if band == "full-table":
        n_out = None
    else:
        n_out = _bands(table, request.getfixturevalue(f"w{k}"))[band][1] - 3 * int(table.f.min()) + 1
    _same_bits(repcount._pair_map_from_arrays(table.f, logs, n_out),
               _untruncated_pair_map(table.f, logs, n_out))


def test_classical_pair_map_bits_equal_untruncated(monkeypatch):
    # count_classical builds its table band-limited to its one target; at
    # N = 2000 the band drops the top floors from the multiplicity vectors.
    # The counts are seen as the meet's count step gets them, before the
    # buffer takes the weights.
    dropped = []

    def checked(f, logs, n_out, margin, use_counts):
        def copied(s_min, table):
            seen.append(table.copy())
            return use_counts(s_min, table)

        seen = []
        s_min, _, weights = tables = build(f, logs, n_out, margin, copied)
        counts, = seen
        assert np.array_equal(counts, np.rint(counts))
        inner = slice(margin, len(counts) - margin)
        _same_bits(repcount.PairMap(s_min, counts[inner].astype(np.int32), weights[inner], len(f)),
                   _untruncated_pair_map(f, logs, n_out))
        assert not counts[:margin].any() and not counts[inner.stop:].any()
        assert not weights[:margin].any() and not weights[inner.stop:].any()
        dropped.append(int(np.sum(f - int(f.min()) >= n_out)))
        return tables

    build = repcount._pair_tables
    monkeypatch.setattr(repcount, "_pair_tables", checked)
    assert count_classical(1.02, 2000).count == 5811
    assert count_classical(2.5, 263).count == 3
    assert dropped == [2, 0]


def test_scan_unordered_table(table2, block2, w2):
    # value_table over several windows is not ascending; the meet sorts it
    perm = np.random.default_rng(3).permutation(len(table2))
    shuffled = type(table2)(n=table2.n[perm], f=table2.f[perm],
                            frac=table2.frac[perm], certified=table2.certified[perm])
    logs = block2.logs[perm]
    assert np.any(np.diff(shuffled.f) < 0)
    N_lo, N_hi = w2.n_star - 4, w2.n_star + 4
    scan = scan_band(shuffled, logs, N_lo, N_hi, w=w2)
    assert scan.N.tolist() == list(range(N_lo, N_hi + 1))
    for N, count, weighted in zip(scan.N.tolist(), scan.count.tolist(), scan.weighted.tolist()):
        ref = count_ternary_naive(table2, block2.logs, N)
        assert count == ref.count
        assert weighted == pytest.approx(ref.weighted, rel=1e-9)


def test_scan_concatenation(table2, block2, pairmap2):
    a, m, b = 9300, 9350, 9400
    whole = scan_band(table2, block2.logs, a, b, pair_map=pairmap2)
    left = scan_band(table2, block2.logs, a, m, pair_map=pairmap2)
    right = scan_band(table2, block2.logs, m + 1, b, pair_map=pairmap2)
    for name in ("N", "count", "weighted"):
        glued = np.concatenate([getattr(left, name), getattr(right, name)])
        assert getattr(whole, name).tolist() == glued.tolist(), name


def _slice_products(f, logs, pm, N):
    # the loop meet the band meet replaced: the products of one target's slice
    a = int(np.searchsorted(f, N - pm.s_max, side="left"))
    b = int(np.searchsorted(f, N - pm.s_min, side="right"))
    return (logs[a:b] * pm.weights[N - pm.s_min - f[a:b]]).tolist()


@pytest.mark.parametrize("table_kind", ["band-limited", "pairmap3"])
def test_meet_bits_equal_fsum(request, table3, block3, w3, table_kind):
    f, logs = table3.f, block3.logs
    N_lo, N_hi = w3.n_star - 300, w3.n_star + 300
    supplied = request.getfixturevalue("pairmap3") if table_kind == "pairmap3" else None
    pm = supplied if supplied is not None else repcount._pair_map_from_arrays(f, logs, N_hi - 3 * int(f[0]) + 1)
    scan = scan_band(table3, logs, N_lo, N_hi, pair_map=supplied)
    products = 0
    for N, weighted in zip(scan.N.tolist(), scan.weighted.tolist()):
        terms = _slice_products(f, logs, pm, N)
        products += len(terms)
        assert weighted.hex() == math.fsum(terms).hex(), N
    assert products > 2 * repcount._MEET_CHUNK  # the band spans several chunks


def _units(x):
    # the meet's slice units for the columns of x: from x's extremes and row count
    return repcount._slice_units(float(x.max()), float(np.min(x, where=x > 0, initial=np.inf)),
                                 len(x))


def _column_fsums(x):
    # the meet's exact-sum kernel on each column of x
    units = _units(x)
    acc = np.zeros((len(units), x.shape[1]))
    repcount._add_slices(x.copy(), units, acc)
    return repcount._join_slices(acc)


def test_exact_sums_where_plain_sums_fail():
    segments = [
        [2.0 ** 53, 1.0, 1.0],                             # np.sum drops both ones
        [2.0 ** 53, 1.0],                                  # tie: half to even, down
        [2.0 ** 53 + 2, 1.0],                              # tie: half to even, up
        [1e30, 1.0, 1e-30, 2.0 ** -1000, 5e-324, 3.0],     # wide exponent spread
        [5e-324, 5e-324, 2.0 ** -1060],                    # subnormal sum
        [0.0, 0.0],
        [0.1] * 10,
    ]
    rng = np.random.default_rng(17)
    for size in (1, 2, 5, 40, 700):
        segments.append((rng.random(size) * 2.0 ** rng.integers(-80, 80, size)).tolist())
    x = np.zeros((max(map(len, segments)), len(segments)))  # one segment a column
    for j, seg in enumerate(segments):
        x[:len(seg), j] = seg
    got = _column_fsums(x)
    assert np.sum(segments[0]) != math.fsum(segments[0])
    for g, seg in zip(got.tolist(), segments):
        assert g.hex() == math.fsum(seg).hex(), seg[:3]


def test_slice_join_rounds_once():
    # the 2^-60 slice breaks the tie of 2^53 + 1 upward; joining the slice
    # sums one add at a time would round the tie to even first and lose it
    # (four slices of 50 bits, so the join is math.fsum's)
    terms = np.array([2.0 ** 53, 1.0, 2.0 ** -60])[:, None]
    assert len(_units(terms)) == 4
    assert _column_fsums(terms)[0] == math.fsum(terms[:, 0].tolist()) == 2.0 ** 53 + 2


def test_exact_sums_near_ties_with_many_terms():
    # 2^20 terms in [0.5, 1) sharing their top 30 bits, so that the rests of
    # a slice all have one sign and add up to about n * 2^(width - 2) units
    # of 2^-53: past 2^53, and no longer exact, for a slice 35 bits wide.
    # 2^20 rows take slices of 52 - 21 = 31 bits, two of them, joined by one
    # add. The last term puts the exact sum one unit above, or below, a tie
    # of the result, so any error of a unit changes the rounded sum.
    n = 1 << 20
    rng = np.random.default_rng(23)
    m = (0x2A5D3B17 << 23) + rng.integers(0, 1 << 23, n - 1)   # x * 2^53, below 2^53
    head = int(np.sum(m >> 26)) << 26
    exact = head + int(np.sum(m & ((1 << 26) - 1)))
    half = 1 << 19     # half an ulp of a sum in [2^19, 2^20), in units of 2^-53
    for side in (1, -1):
        last = (1 << 52) + (half + side - exact - (1 << 52)) % (2 * half)
        terms = np.append(m, last) * 2.0 ** -53
        assert len(_units(terms[:, None])) == 2
        got = _column_fsums(terms[:, None])[0]
        assert got.hex() == math.fsum(terms.tolist()).hex()


@pytest.mark.parametrize("k", [3, 4])
def test_band_meets_join_two_slices(request, monkeypatch, k):
    # the 992 primes of k=3 take 42-bit slices and the 17 656 of k=4 37-bit
    # ones, two slices a product, so every target's slice sums join in one
    # add and never reach math.fsum (26-bit slices took three)
    w, table, block = (request.getfixturevalue(f"{name}{k}") for name in ("w", "table", "block"))
    seen = []
    join = repcount._join_slices
    monkeypatch.setattr(repcount, "_join_slices", lambda acc: seen.append(len(acc)) or join(acc))
    monkeypatch.setattr(math, "fsum", None)
    scan = scan_band(table, block.logs, w.n_star - 100, w.n_star + 100)
    assert seen == [2] and np.all(scan.weighted > 0)


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_meet_chunks_with_empty_slices(table3, block3, pairmap3, w3, monkeypatch, chunk):
    # four pair sums of the table: most targets meet an empty slice of p_3
    monkeypatch.setattr(repcount, "_MEET_CHUNK", chunk)
    a = len(pairmap3.counts) // 2
    pm = repcount.PairMap(pairmap3.s_min + a, pairmap3.counts[a:a + 4],
                          pairmap3.weights[a:a + 4], pairmap3.n_primes)
    N_lo = pm.s_min + int(table3.f[len(table3) // 2])
    scan = scan_band(table3, block3.logs, N_lo, N_lo + 400, pair_map=pm)
    lens = [len(_slice_products(table3.f, block3.logs, pm, N)) for N in scan.N.tolist()]
    assert 0 in lens[1:-1] and max(lens) > 0
    for N, count, weighted, n in zip(scan.N.tolist(), scan.count.tolist(),
                                     scan.weighted.tolist(), lens):
        one = count_ternary_mitm(table3, block3.logs, N, pair_map=pm)
        assert (count, weighted.hex()) == (one.count, one.weighted.hex())
        terms = _slice_products(table3.f, block3.logs, pm, N)
        assert weighted.hex() == math.fsum(terms).hex()
        if n == 0:
            assert count == 0 and weighted.hex() == "0x0.0p+0"


def _slice_count(f, pm, N):
    a = int(np.searchsorted(f, N - pm.s_max, side="left"))
    b = int(np.searchsorted(f, N - pm.s_min, side="right"))
    return int(pm.counts[N - pm.s_min - f[a:b]].sum())


@pytest.mark.parametrize("band", ["interior", "below-3-min-f", "above-3-max-f"])
def test_meet_block_shapes(table3, block3, w3, monkeypatch, band):
    # 2 001 targets in blocks of every shape: all of them by 1, 3, 2 or 32
    # rows at a time, 300 targets by 13 rows, one target by every row.
    # Every count and every weighted bit equal the per-target oracle.
    f, logs = table3.f, block3.logs
    centre = {"interior": w3.n_star, "below-3-min-f": 3 * int(f[0]),
              "above-3-max-f": 3 * int(f[-1])}[band]
    N_lo, N_hi = centre - 1000, centre + 1000
    pm = repcount._pair_map_from_arrays(f, logs, N_hi - 3 * int(f[0]) + 1)
    Ns = range(N_lo, N_hi + 1)
    want_counts = [_slice_count(f, pm, N) for N in Ns]
    want = [math.fsum(_slice_products(f, logs, pm, N)).hex() for N in Ns]
    assert 0 < sum(want_counts) and (band == "interior") == all(want_counts)
    for targets, chunk in [(1 << 12, 1), (1 << 12, 3), (1 << 12, 1 << 12), (1 << 12, 1 << 16),
                           (300, 1 << 12), (1, 1 << 16)]:
        monkeypatch.setattr(repcount, "_MEET_TARGETS", targets)
        monkeypatch.setattr(repcount, "_MEET_CHUNK", chunk)
        scan = scan_band(table3, logs, N_lo, N_hi)
        assert scan.count.tolist() == want_counts, (targets, chunk)
        assert [x.hex() for x in scan.weighted.tolist()] == want, (targets, chunk)


@pytest.mark.parametrize("c, theta", [(1.02, 1.5), (1.05, 2.0)])
def test_mitm_equals_naive_k3(c, theta):
    # the one route at k=3 that shares neither the pair table, the sort nor
    # the FFT with the meet; the weighted gap is the FFT's rounding of the
    # pair weights, at most 3.7e-16 relative over these ten targets
    w = quiet_window(3, c, theta)
    block = sieve_segment(w.delta1, w.delta2)
    table = value_table(block.primes, w.c, w.theta)
    for d in (0, -20000, -7, 13, 20000):
        a = count_ternary_mitm(table, block.logs, w.n_star + d)
        b = count_ternary_naive(table, block.logs, w.n_star + d)
        assert a.count == b.count > 0
        assert a.weighted == pytest.approx(b.weighted, rel=1e-15, abs=0.0)


@pytest.fixture(scope="module")
def band_table4():
    w = quiet_window(4, 1.02, 1.5)
    block = sieve_segment(w.delta1, w.delta2)
    f = value_table(block.primes, w.c, w.theta).f
    # the table the CLI's compare --k 4 --band -100:100 builds
    return f, block.logs, repcount._pair_map_from_arrays(f, block.logs, w.n_star + 100 - 3 * int(f[0]) + 1)


def test_band_table_bits_equal_untruncated_k4(band_table4):
    f, logs, pm = band_table4
    _same_bits(pm, _untruncated_pair_map(f, logs, len(pm.counts)))


def test_band_table_keeps_memory_to_the_band_k4(band_table4):
    # the multiplicity vectors hold only the floors the band reads, and both
    # self-convolutions run in the allocation of their block spectra, the
    # sums at its top: under 2.8 times 8 bytes a sum (2.71 measured, the
    # spectra 2.02 of it and the int32 counts 0.5; 3.70 with a separate
    # buffer for the sums, 4.56 with half-length transforms, 4.59 with one
    # transform of the whole length, 6.1 with a buffer per transform, 8.2
    # with bincounts over all 2.4e6 floors)
    import tracemalloc

    f, logs, pm = band_table4
    tracemalloc.start()
    try:
        repcount._pair_map_from_arrays(f, logs, len(pm.counts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8 * 8 * len(pm.counts)


def test_band_meet_keeps_memory_to_the_band_k4(table4, block4, w4, band_table4):
    # the band meet reads the counts and then the weights in the one
    # allocation the table is built in, keeping only a packed mask of the
    # counts: under 2.4 times 8 bytes a sum at pool width 1 (2.26 measured;
    # 3.37 with a separate buffer for the sums, 3.76 with an int32 count
    # table and padded copies of both tables)
    import tracemalloc

    n_out = len(band_table4[2].counts)
    with pool.threads(1):
        tracemalloc.start()
        try:
            scan_band(table4, block4.logs, w4.n_star - 100, w4.n_star + 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2.4 * 8 * n_out


def _owns_its_floats(a: np.ndarray) -> bool:
    # a's memory is its own, or a view of no more than its own bytes
    return a.base is None or a.base.nbytes <= a.nbytes


def test_pair_tables_hold_no_spectra(table3, block3, w3, band_table4):
    # the tables come out of the allocation that held the block spectra,
    # moved to its front and cut to their sums and margins: a two-block k=3
    # table, the CLI's k=4 band table and a full table of the first 3e5 k=4
    # floors, whose allocation is longer than its spectra
    f4, logs4, pm4 = band_table4
    first = f4 < f4[0] + 300_000
    cases = ((table3.f, block3.logs, w3.n_star + 100 - 3 * int(table3.f[0]) + 1),
             (f4, logs4, len(pm4.counts)), (f4[first], logs4[first], None))
    for f, logs, n_out in cases:
        pm = repcount._pair_map_from_arrays(f, logs, n_out)
        assert _owns_its_floats(pm.counts) and _owns_its_floats(pm.weights)
        for margin in (0, 201):
            _, kept, table = repcount._pair_tables(f, logs, n_out, margin, lambda s, c: c.copy())
            assert len(table) == len(kept) == len(pm.weights) + 2 * margin
            assert _owns_its_floats(table) and _owns_its_floats(kept)
            assert table[margin:len(table) - margin].tobytes() == pm.weights.tobytes()
            assert not table[:margin].any() and not table[len(table) - margin:].any()
    assert _owns_its_floats(self_convolution(np.ones(5), 9))


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_pair_tables_shrink_under_a_tracer(hook):
    # a tracer or profiler (coverage, cProfile, a debugger) makes a bound
    # method of the array it calls resize on, which numpy's own reference
    # check counts: the tables still come out, cut to their sums, and a
    # use_counts that keeps a view of the allocation is still refused
    f = np.array([3, 5, 9, 10, 16])
    logs = np.log(f + 1.0)
    want = repcount._pair_map_from_arrays(f, logs).weights.tobytes()
    kept = []
    setter, getter = getattr(sys, hook), getattr(sys, hook.replace("set", "get"))
    before = getter()
    setter(lambda *args: None)
    try:
        got = repcount._pair_map_from_arrays(f, logs).weights.tobytes()
        square = self_convolution(np.ones(5), 9)
        with pytest.raises(ValueError, match="outlives"):
            repcount._pair_tables(f, logs, None, 2, lambda s, c: kept.append(c))
    finally:
        setter(before)
    assert got == want
    assert np.rint(square).tolist() == [1, 2, 3, 4, 5, 4, 3, 2, 1] and square.base is None


def test_scan_band_k3_keeps_its_bits(table3, block3, w3, pairmap3):
    # sha256 of the count and weighted columns over n_star +- 20 000, with a
    # band table and with the full map, recorded before the band meet read
    # its count table in place
    want = {
        False: ("b71e4aef82cb85352412a8bf644373e2075b9c26db57d5cd549e6962d016957d",
                "92fb3bc501faca07513c7a854a9db97004d35dc27c05cd2f92d1449876bfe6b4"),
        True: ("b71e4aef82cb85352412a8bf644373e2075b9c26db57d5cd549e6962d016957d",
               "daef9b4a85aa47c02bfb8b725c550f51248a9dc25b6a804fdd779f46e3e043b9"),
    }
    for full, digests in want.items():
        scan = scan_band(table3, block3.logs, w3.n_star - 20000, w3.n_star + 20000,
                         pair_map=pairmap3 if full else None)
        assert scan.count.dtype == np.int64 and scan.weighted.dtype == np.float64
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (scan.count, scan.weighted))
        assert got == digests, full


def test_pair_table_bits_equal_at_pool_widths(table3, block3, w3, band_table4):
    # the pair-table transforms and shifts run on the pool at width 2: the
    # full k=3 table (two blocks, hi*hi transformed too), a band-limited k=3
    # one, the CLI's k=4 one (_BLOCKS blocks, shifts up to _BLOCKS - 1) and
    # a full table of the first 3e5 k=4 floors (every shift up to
    # 2 _BLOCKS - 2)
    band3 = w3.n_star + 100 - 3 * int(table3.f.min()) + 1
    f4, logs4, pm4 = band_table4
    first = f4 < f4[0] + 300_000
    assert first.sum() > 1000 and 300_000 >= repcount._BLOCKS_FROM
    for f, logs, n_out in ((table3.f, block3.logs, None), (table3.f, block3.logs, band3),
                           (f4, logs4, len(pm4.counts)),
                           (f4[first], logs4[first], None)):
        maps = []
        for width in (1, 2):
            with pool.threads(width):
                maps.append(repcount._pair_map_from_arrays(f, logs, n_out))
        _same_bits(*maps)


def test_two_block_tables_keep_their_bits(table3, block3, w3):
    # every k <= 3 table squares two blocks, by the products and the order
    # of adds these digests were recorded with (sha256 of counts, weights)
    band3 = w3.n_star + 100 - 3 * int(table3.f.min()) + 1
    want = {
        None: ("186dd3b18f6785ad55be182a234b560d786741ae0c216736d29b2b9e7c3b3337",
               "238b763d50fd99e2b220087b1ebb240fe748e7acb51c8881dd421ffe862d1e41"),
        band3: ("6106c8693edf1cb76da2b71d6054f36d1ad4d8e616f691a320f24815bae12f6f",
                "405af2413477f6e7fad4fdf27026e2b96564f9a46d8b323f8eb8321788362ac2"),
    }
    assert int(table3.f[-1] - table3.f[0]) < repcount._BLOCKS_FROM  # the floors squared
    for n_out, digests in want.items():
        pm = repcount._pair_map_from_arrays(table3.f, block3.logs, n_out)
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (pm.counts, pm.weights))
        assert got == digests


def test_band_table_spot_check_k4(band_table4):
    # pairs at one sum from a binary search, sharing nothing with the FFT
    f, logs, pm = band_table4
    assert pm.s_max < 2 * int(f[-1])  # band-limited, not the full span
    for s in np.random.default_rng(29).integers(pm.s_min, pm.s_max + 1, 300).tolist():
        j = np.minimum(np.searchsorted(f, s - f), len(f) - 1)
        hit = f[j] == s - f
        assert pm.counts[s - pm.s_min] == int(hit.sum())
        want = math.fsum((logs[hit] * logs[j[hit]]).tolist())
        assert pm.weights[s - pm.s_min] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_scan_rejections(table2, block2):
    with pytest.raises(InvalidParameter):
        scan_band(table2, block2.logs, 9400, 9300)
    with pytest.raises(BandTooWide):
        scan_band(table2, block2.logs, 0, 2 * 10**6)


def test_repeated_floor_refused(table2, block2, w2):
    # the rint counts assume 0/1 multiplicities: a repeated floor among those
    # the table reads is refused by name, not counted twice
    f = table2.f.copy()
    f[10] = f[9]
    dup = type(table2)(n=table2.n, f=f, frac=table2.frac, certified=table2.certified)
    repeated = f"{int(f[9])} follows {int(f[9])}"
    with pytest.raises(InvalidParameter, match=repeated):
        scan_band(dup, block2.logs, w2.n_star - 1, w2.n_star + 1)
    with pytest.raises(InvalidParameter, match=repeated):
        build_pair_map(dup, block2.logs)


def test_scan_csv_shape(table2, block2, w2, tmp_path):
    scan = scan_band(table2, block2.logs, 9376, 9380)
    out = tmp_path / "scan.csv"
    band = f"--band={9376 - w2.n_star}:{9380 - w2.n_star}"
    assert main(["scan", "--k", "2", "--c", "1.05", "--theta", "2.0", band,
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,count,weighted"
    assert len(lines) == 6
    assert lines[1].startswith("9376,")
    # the row writer the columns replaced
    assert lines[1:] == [f"{N},{c},{x:.12g}" for N, c, x in
                         zip(scan.N.tolist(), scan.count.tolist(), scan.weighted.tolist())]


def test_find_binary_frozen(table3, block3, w3):
    pair = find_binary(table3, w3.n_star)
    assert pair == (27893, 34877)
    fa = floor_value(27893, w3.c, w3.theta).f
    fb = floor_value(34877, w3.c, w3.theta).f
    assert fa + fb == w3.n_star


def test_find_binary_lexicographic(table2, block2, w2):
    N = w2.n_star
    brute = None
    for i in range(len(table2)):
        for j in range(len(table2)):
            if int(table2.f[i] + table2.f[j]) == N:
                brute = (int(table2.n[i]), int(table2.n[j]))
                break
        if brute:
            break
    assert find_binary(table2, N) == brute


def test_find_binary_none(table2, block2):
    assert find_binary(table2, 3) is None


def test_window_mismatch(table2, block2):
    with pytest.raises(WindowMismatch):
        build_pair_map(table2, block2.logs[:-1])
    with pytest.raises(WindowMismatch):
        count_ternary_mitm(table2, block2.logs[:-1], 9000)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("c,theta", [(1.02, 1.5), (1.05, 2.0)])
def test_pair_span_bound_from_window(k, c, theta):
    # the CLI refuses count/scan/compare from this bound before sieving, so
    # it must never undercut the transform length of the table it stands in
    # for: the full span, or the band-limited length of a band ending at N_hi
    w = quiet_window(k, c, theta)
    t = value_table(sieve_segment(w.delta1, w.delta2).primes, c, theta)
    fmin, fmax = int(t.f.min()), int(t.f.max())
    span = 2 * (fmax - fmin) + 1  # as _pair_map_from_arrays
    full = pair_span_bound(w, 3 * w.n_star)  # a band that reads every sum
    assert span <= full <= span * 1.02
    for N_hi in (3 * fmin, w.n_star - 100, w.n_star + 100, 3 * fmax):
        n_out = min(span, N_hi - 3 * fmin + 1)
        width = min(fmax - fmin + 1, n_out)
        assert max(n_out, 2 * width - 1) <= pair_span_bound(w, N_hi) <= full


def test_naive_guard():
    t = value_table([3], 1.05, 2.0)
    big = type(t)(
        n=np.arange(10001, dtype=np.int64),
        f=np.arange(10001, dtype=np.int64),
        frac=np.zeros(10001),
        certified=np.zeros(10001, dtype=bool),
    )
    with pytest.raises(TooLarge):
        count_ternary_naive(big, np.zeros(10001), 5)


def test_classical_small_oracle():
    c, N = 1.02, 60
    bmax = int(round(N ** (1.0 / c))) + 2
    ps = [p for p in range(2, bmax + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]
    fs = [(p, _classical_floor(p, c)) for p in ps]
    fs = [(p, f) for p, f in fs if f <= N]
    cnt = 0
    terms = []
    for p1, f1 in fs:
        for p2, f2 in fs:
            for p3, f3 in fs:
                if f1 + f2 + f3 == N:
                    cnt += 1
                    terms.append(math.log(p1) * math.log(p2) * math.log(p3))
    rep = count_classical(c, N)
    assert rep.count == cnt
    assert rep.weighted == pytest.approx(math.fsum(terms), rel=1e-12)


def test_classical_floors_only_reachable_primes(monkeypatch):
    # the sieve bound int(263^0.4) + 2 takes in 11, but 11^2.5 = 401.3 >= 264,
    # so 11 is dropped before its floor is taken; 129 + 129 + 5 = 263
    floored = []

    def recording(p, c):
        floored.append(p)
        return _classical_floor(p, c)

    monkeypatch.setattr(repcount, "_classical_floor", recording)
    rep = count_classical(2.5, 263)
    assert floored == [2, 3, 5, 7]
    assert rep.count == 3
    assert rep.weighted == pytest.approx(3 * math.log(7) ** 2 * math.log(2), rel=1e-12)


def test_classical_fixture_point():
    rep = count_classical(1.02, 2000)
    assert rep.count == 5811
    assert rep.weighted == pytest.approx(1126392.5637217, rel=1e-10)


def test_classical_edges():
    assert count_classical(1.02, 5).count == 0
    assert count_classical(1.02, 2).count == 0
    with pytest.raises(InvalidParameter):
        count_classical(1.0, 100)
    with pytest.raises(TooLarge):
        count_classical(1.02, 100001)


def test_classical_floor_two_tier():
    assert _classical_floor(2, 1.02) == math.floor(2**1.02)
    with pytest.raises(AmbiguousFloor):
        _classical_floor(3, 2.0)

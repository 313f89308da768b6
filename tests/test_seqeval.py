"""Certified floor evaluation of n^c tan^theta(log n)."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanprimes import floor_value, frac_norm, value_table
from tanprimes.errors import AmbiguousFloor, DomainError
from tanprimes.seqeval import ValueTable, table_to_csv, write_json


def test_small_value_frozen():
    e = floor_value(3, 1.05, 2.0)
    assert e.n == 3
    assert e.f == 12
    assert e.frac == pytest.approx(0.15115262994554, abs=1e-11)
    assert not e.certified


def test_matches_direct_float_formula(table2, block2, w2):
    v = block2.primes.astype(float) ** w2.c * np.tan(np.log(block2.primes)) ** w2.theta
    assert np.array_equal(table2.f, np.floor(v).astype(np.int64))
    assert np.max(np.abs(table2.frac - (v - np.floor(v)))) < 1e-9


def test_domain_rejections():
    # tan(log 5) < 0, and n = 1 gives tan(0) = 0
    with pytest.raises(DomainError):
        floor_value(5, 1.05, 2.0)
    with pytest.raises(DomainError):
        floor_value(1, 1.05, 2.0)
    with pytest.raises(DomainError):
        floor_value(0, 1.05, 2.0)


def test_values_monotone_over_window(table2):
    # the map is strictly increasing on a window, so floors cannot decrease
    assert np.all(np.diff(table2.f) >= 0)


def test_value_bound(table2, block2, w2):
    # tan <= 2 on the window, so f <= n^c 2^theta
    bound = block2.primes.astype(float) ** w2.c * 2.0**w2.theta
    assert np.all(table2.f <= bound)


def test_no_escalations_at_desk_scale(table2, table3):
    assert int(table2.certified.sum()) == 0
    assert int(table3.certified.sum()) == 0


def test_forced_escalation_certifies():
    # theta tiny pushes the value a few 1e-9 above an integer: inside the
    # escalation guard, outside the ambiguity cutoff
    e = floor_value(3, 2.0, 1e-9)
    assert e.f == 9
    assert 0 < e.frac < 1e-7
    assert e.certified


def test_exact_integer_is_ambiguous():
    # degenerate exponents make the value exactly 9; no finite precision
    # can place the floor
    with pytest.raises(AmbiguousFloor):
        floor_value(3, 2.0, 0.0)


def test_escalated_path_agrees_with_double(table3, block3, w3):
    from tanprimes.seqeval import _escalated

    idx = np.linspace(0, len(table3) - 1, 25).astype(int)
    for i in idx:
        n = int(block3.primes[i])
        f_mp, frac_mp = _escalated(n, w3.c, w3.theta)
        assert f_mp == int(table3.f[i])
        assert frac_mp == pytest.approx(float(table3.frac[i]), abs=1e-9)


def test_frac_norm_basic():
    assert frac_norm(3, 1.05, 2.0) == pytest.approx(0.15115262994554, abs=1e-10)


@given(st.integers(min_value=0, max_value=991))
@settings(max_examples=60, deadline=None)
def test_frac_norm_in_half_unit(i):
    # indexes into the k=3 prime table built once below
    n = int(_K3_PRIMES[i])
    v = frac_norm(n, 1.02, 1.5)
    assert 0.0 <= v <= 0.5


def _k3_primes():
    import warnings

    from tanprimes import sieve_segment, window_from_index

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = window_from_index(3, 1.02, 1.5)
    return sieve_segment(w.delta1, w.delta2).primes


_K3_PRIMES = _k3_primes()


def test_value_table_entry_roundtrip(table2):
    e = table2.entry(0)
    assert e.n == int(table2.n[0])
    assert e.f == int(table2.f[0])
    assert len(table2) == 63


def test_csv_golden():
    t = value_table([3], 1.05, 2.0)
    buf = io.StringIO()
    table_to_csv(t, buf)
    assert buf.getvalue() == "n,f,frac,certified\n3,12,0.151152629946,0\n"


def test_table_rejects_bad_input():
    with pytest.raises(DomainError):
        value_table([3, 5], 1.05, 2.0)


def test_log_window_position_determines_domain():
    # every integer strictly inside a window evaluates; the first integer
    # past delta2 fails the tan range check only once tan drops below 1
    # at e^(pi k + pi/2), so values just above delta2 still evaluate
    assert floor_value(1175, 1.05, 2.0).f > 0
    assert floor_value(1621, 1.05, 2.0).f > 0
    with pytest.raises(DomainError):
        floor_value(math.ceil(math.e ** (2 * math.pi + math.pi / 2)) + 1, 1.05, 2.0)


def _value_table_reference(ns, c, theta):
    # the row-by-row loop as it was: one scalar _certified call per row
    from tanprimes.seqeval import _certified

    ns = np.asarray(ns, dtype=np.int64)
    f = np.empty(len(ns), dtype=np.int64)
    frac = np.empty(len(ns), dtype=np.float64)
    cert = np.zeros(len(ns), dtype=bool)
    for i, n in enumerate(ns):
        f[i], frac[i], cert[i] = _certified(int(n), c, theta)
    return f, frac, cert


def _table_rows(request):
    # (ns, c, theta) for k=2 and k=3 primes and integers, the k=4 integers
    # around n = 752 888, the one floor there that escalates, and integers
    # around 2^55, where float(n) rounds (tan(log n) is about 0.45 there)
    out = []
    for k in (2, 3):
        w = request.getfixturevalue(f"w{k}")
        out.append((request.getfixturevalue(f"block{k}").primes, w.c, w.theta))
        out.append((np.arange(math.floor(w.delta1) + 1, math.floor(w.delta2) + 1), w.c, w.theta))
    out.append((np.arange(751888, 753889), 1.02, 1.5))
    out.append((np.arange(2 ** 55 - 64, 2 ** 55 + 65), 0.5, 1.0))
    return out


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_value_table_bits_equal_row_loop(request, monkeypatch, chunk):
    from tanprimes import seqeval

    if chunk is not None:
        monkeypatch.setattr(seqeval, "_ROW_CHUNK", chunk)
    escalated = 0
    for ns, c, theta in _table_rows(request):
        t = value_table(ns, c, theta)
        f, frac, cert = _value_table_reference(ns, c, theta)
        assert t.f.tobytes() == f.tobytes()
        assert t.frac.tobytes() == frac.tobytes()
        assert t.certified.tobytes() == cert.tobytes()
        escalated += int(cert.sum())
    assert escalated == 1


def _outcome(fn, ns, c, theta):
    try:
        fn(ns, c, theta)
    except (DomainError, AmbiguousFloor) as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("chunk", [None, 2])
def test_value_table_refuses_like_row_loop(monkeypatch, chunk):
    # the first refused row raises, with its own message, after every row
    # before it is done: n < 1, tan(log n) <= 0, and an ambiguous floor
    # ahead of a refused row
    from tanprimes import seqeval

    if chunk is not None:
        monkeypatch.setattr(seqeval, "_ROW_CHUNK", chunk)
    cases = [([0], 1.05, 2.0), ([-7, 3], 1.05, 2.0), ([3, 0], 1.05, 2.0),
             ([3, 5], 1.05, 2.0), ([3, 11, 5, 0], 1.05, 2.0), ([3, 11, 0, 5], 1.05, 2.0),
             ([3, 5], 2.0, 0.0), ([11, 3, 0], 2.0, 0.0)]
    for ns, c, theta in cases:
        want = _outcome(_value_table_reference, ns, c, theta)
        assert want is not None
        assert _outcome(value_table, ns, c, theta) == want


_I64 = np.iinfo(np.int64)


def _edge_table():
    # frac at the exact 12-decimal ties j/8192 (j odd) and their neighbours,
    # at 0, the smallest subnormal, 0.9999999999995 (just below the tie, but
    # its product by 1e12 rounds onto it), 1 - 2^-53 (printed as 1), and
    # outside [0, 1); n and f at the int64 extremes, 0 and negatives, their
    # digit counts changing from row to row
    ties = np.arange(1, 8192, 2) / 8192
    frac = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 1),
                           [0.0, 5e-324, 0.9999999999995, 1 - 2 ** -53, -0.0, 1.0, -0.25,
                            1e20, -1e-20, math.nan, math.inf, -math.inf],
                           np.random.default_rng(5).random(500)])
    ints = np.array([_I64.min, _I64.max, 0, 9, 10, -1, -9, -10, 9999, 10000, -10000, 99999999,
                     100000000, 10 ** 18, -(10 ** 18), _I64.min + 1, 7], dtype=np.int64)
    n = np.resize(ints, len(frac))
    cert = np.resize([True, False, False], len(frac))
    return ValueTable(n=n, f=n[::-1].copy(), frac=frac, certified=cert)


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_csv_bytes_equal_row_writer(request, monkeypatch, chunk):
    from tanprimes import seqeval

    tables = [value_table(ns, c, theta) for ns, c, theta in _table_rows(request)]
    tables.append(_edge_table())
    want = []
    for t in tables:
        buf = io.StringIO()
        buf.write("n,f,frac,certified\n")
        for i in range(len(t)):
            buf.write(f"{int(t.n[i])},{int(t.f[i])},"
                      f"{float(t.frac[i]):.12f},{int(t.certified[i])}\n")
        want.append(buf.getvalue())
    if chunk is not None:
        monkeypatch.setattr(seqeval, "_ROW_CHUNK", chunk)
    for t, text in zip(tables, want):
        buf = io.StringIO()
        table_to_csv(t, buf)
        assert buf.getvalue() == text


_JSON_TABLES = {
    "floats": {"x": np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                              1e16, 1e22, -1e22, 0.1, 1 / 3, 2.0 ** 53, 1.7976931348623157e308]),
               "n": np.array([_I64.min, _I64.max, 0, -1, 1, 2 ** 53 + 1, -(2 ** 62), 7,
                              10 ** 16, 10 ** 18, -3, 2, 9, 11], dtype=np.int64),
               "ok": np.array([True, False] * 7)},
    "one row": {"weighted": np.array([1e16]), "N": np.array([_I64.max]),
                "certified": np.array([False])},
    "repeated values": {"-0": np.broadcast_to(-0.0, 9), "nan": np.broadcast_to(math.nan, 9),
                        "one": np.broadcast_to(np.int64(-7), 9), "t": np.broadcast_to(True, 9),
                        "x": np.arange(9) * 0.5},
    "empty": {"b": np.zeros(0), "a": np.zeros(0, dtype=np.int64)},
    "no columns": {},
}


@pytest.mark.parametrize("chunk", [None, 1, 3])
@pytest.mark.parametrize("name", sorted(_JSON_TABLES))
def test_json_bytes_equal_json_dumps(monkeypatch, chunk, name):
    # the columns' JSON, a chunk of rows at a time, is json.dumps of the row
    # dicts with sort_keys, also for NaN, the infinities, -0.0 beside 0.0, the
    # smallest subnormal, 1e16 and 1e22, int64 extremes, bools and columns
    # of one repeated value; keys of the object sort on either side of
    # "rows", and nested objects sort too
    from tanprimes import seqeval

    cols = _JSON_TABLES[name]
    rows = [dict(zip(cols, row)) for row in zip(*(col.tolist() for col in cols.values()))]
    extra = {"stats": {"n": 3, "mean": math.nan, "a": [1.5, None]}, "N": -2, "window": {"k": 3}}
    if chunk is not None:
        monkeypatch.setattr(seqeval, "_ROW_CHUNK", chunk)
    for obj in ({}, extra):
        buf = io.StringIO()
        write_json(obj, buf, rows=cols)
        assert buf.getvalue() == json.dumps({**obj, "rows": rows}, sort_keys=True) + "\n"
    buf = io.StringIO()
    write_json(extra, buf)
    assert buf.getvalue() == json.dumps(extra, sort_keys=True) + "\n"

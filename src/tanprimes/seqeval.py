"""Certified evaluation of f(n) = floor(n^c * tan^theta(log n)).

The double-precision value is trusted unless it lands within an absolute
guard of an integer, in which case the value is recomputed with at least
128 significand bits. A value that stays within 2^-40 of an integer even
then is reported as AmbiguousFloor, never silently rounded.

The double value is always computed with scalar math calls (libm), also
in value_table, which maps them over a chunk of rows as float64 and
vectorises only the floor, the fractional part and the guard test. The
table, and the CSV and JSON made of it and of any named columns (band
scans, exponential sums), go in chunks of rows. table_to_csv formats the
value table by column into one byte matrix per chunk; Python's "%.12f"
runs only for the rare frac cells it cannot settle. write_csv keeps
Python's % a row at a time for every other CSV layout (the %.12g columns
of scan, compare, expsum, classical and count), and write_json writes
every JSON table by column.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import repeat

import numpy as np

from .errors import AmbiguousFloor, DomainError, InvalidParameter, TooLarge, WindowMismatch
from .window import WindowParams

GUARD_ABS = 1e-6          # escalate when this close to an integer
AMBIGUOUS_ABS = 2.0 ** -40
_ESCALATED_PREC = 160     # bits; comfortably past the required 128
_ROW_CHUNK = 2 ** 12      # rows per chunk in value_table, write_csv and write_json
_TABLE_ROWS = 2 ** 24     # most rows a window's value table may have
_VALUE_BITS = 52          # from 2^52 on a double's ulp is 1: no fraction is left


@dataclass(frozen=True)
class ValueEntry:
    n: int
    f: int          # floor of the sequence value
    frac: float     # fractional part, in [0, 1)
    certified: bool  # True when the floor survived the escalation path


@dataclass(frozen=True)
class ValueTable:
    """Columnar table of ValueEntry rows, ordered by n."""

    n: np.ndarray          # int64
    f: np.ndarray          # int64
    frac: np.ndarray       # float64
    certified: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.n)

    def entry(self, i: int) -> ValueEntry:
        return ValueEntry(int(self.n[i]), int(self.f[i]),
                          float(self.frac[i]), bool(self.certified[i]))


def log_weights(values: ValueTable, logs) -> np.ndarray:
    """logs as float64 if it is one weight per row of values (numpy would broadcast one)."""
    logs = np.asarray(logs, dtype=np.float64)
    if logs.shape != (len(values),):
        raise WindowMismatch(f"{len(values)} table rows but log weights of shape {logs.shape}")
    return logs


def certified_floor(v: float, exact, n: int, *params) -> tuple[int, float, bool]:
    """Floor and fractional part of the double v, certified near an integer.

    v is trusted unless it lies within GUARD_ABS of an integer. Then
    exact(n, *params) recomputes the value as an mpmath number at
    _ESCALATED_PREC bits, and a value within AMBIGUOUS_ABS of an integer
    raises AmbiguousFloor. The last item tells whether that path ran; only
    that path imports mpmath.
    """
    fl = math.floor(v)
    frac = v - fl
    if min(frac, 1.0 - frac) >= GUARD_ABS:
        return fl, frac, False
    import mpmath as mp

    with mp.workprec(_ESCALATED_PREC):
        mv = exact(n, *params)
        nearest = mp.nint(mv)
        if abs(mv - nearest) < AMBIGUOUS_ABS:
            raise AmbiguousFloor(
                f"value at n={n} is within 2^-40 of integer {int(nearest)}"
            )
        fl = int(mp.floor(mv))
        return fl, float(mv - fl), True


def _exact_value(n: int, c: float, theta: float):
    import mpmath as mp

    return mp.mpf(n) ** c * mp.tan(mp.log(n)) ** theta


def _escalated(n: int, c: float, theta: float) -> tuple[int, float]:
    # the high-precision tier alone (a double of 0.0 sits on an integer, so
    # it always escalates); tests use it as the oracle for the double tier
    return certified_floor(0.0, _exact_value, n, c, theta)[:2]


def _certified(n: int, c: float, theta: float) -> tuple[int, float, bool]:
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    tn = math.tan(math.log(n))
    if tn <= 0.0:
        raise DomainError(f"tan(log n) = {tn:.6g} <= 0 at n={n}")
    return certified_floor(n ** c * tn ** theta, _exact_value, n, c, theta)


def floor_value(n: int, c: float, theta: float) -> ValueEntry:
    """Certified floor and fractional part of n^c * tan^theta(log n).

    Args:
        n: positive integer with tan(log n) > 0 (any window qualifies).
        c, theta: sequence exponents.

    Raises:
        DomainError: tan(log n) <= 0, the sequence is undefined there.
        AmbiguousFloor: the value cannot be separated from an integer.
    """
    return ValueEntry(n, *_certified(n, c, theta))


def frac_norm(n: int, c: float, theta: float) -> float:
    """Distance from the sequence value to the nearest integer, in [0, 1/2]."""
    e = floor_value(n, c, theta)
    return min(e.frac, 1.0 - e.frac)


def value_table(ns, c: float, theta: float) -> ValueTable:
    """Tabulate certified floors for an ascending iterable of integers.

    Rows are taken in chunks of _ROW_CHUNK. The double stage maps the same
    scalar math calls as floor_value (math.log, math.tan and pow) over the
    chunk's rows as float64, which round as Python's int -> float does:
    numpy's vectorised log, tan and pow differ from libm in the last bits,
    which would move frac. numpy then floors, takes the fractional parts
    and picks the rows within GUARD_ABS of an integer, and only those go
    through certified_floor. The first row floor_value refuses raises its
    DomainError once every row before it is done, as a row-by-row loop would.
    """
    ns = np.asarray(ns, dtype=np.int64)
    f = np.empty(len(ns), dtype=np.int64)
    frac = np.empty(len(ns), dtype=np.float64)
    cert = np.zeros(len(ns), dtype=bool)
    for start in range(0, len(ns), _ROW_CHUNK):
        rows = ns[start:start + _ROW_CHUNK]
        x = rows[:_first(rows < 1)].astype(np.float64).tolist()
        tans = np.fromiter(map(math.tan, map(math.log, x)), np.float64, len(x))
        ok = _first(tans <= 0.0)  # rows before the first refused one
        v = (np.fromiter(map(pow, x[:ok], repeat(c)), np.float64, ok)
             * np.fromiter(map(pow, tans[:ok].tolist(), repeat(theta)), np.float64, ok))
        fl = np.floor(v)
        r = v - fl
        near = ~(np.minimum(r, 1.0 - r) >= GUARD_ABS)  # NaN and inf too
        fl[near] = 0.0  # filled in below; keeps the int cast in range
        f[start:start + ok] = fl
        frac[start:start + ok] = r
        for i in np.flatnonzero(near).tolist():
            f[start + i], frac[start + i], cert[start + i] = certified_floor(
                float(v[i]), _exact_value, int(rows[i]), c, theta)
        if ok < len(rows):
            _certified(int(rows[ok]), c, theta)  # raises that row's DomainError
    return ValueTable(n=ns, f=f, frac=frac, certified=cert)


def check_window_table(w: WindowParams, primes: bool) -> None:
    """Refuse the value table of a window's primes (or all its integers) before it is built.

    Values near n_star >= 2^52 have no fractional part left in a double
    (InvalidParameter). The y = floor(delta2) - floor(delta1) integers hold
    at most 2y/ln y primes (Montgomery-Vaughan); over 2^24 rows is TooLarge.
    """
    if w.n_star >= 2 ** _VALUE_BITS:
        raise InvalidParameter(f"window values reach n_star = {w.n_star:.6g}, past 2^52")
    y = math.floor(w.delta2) - math.floor(w.delta1)
    rows = 2 * y / math.log(y) if primes and y > 1 else y
    if rows > _TABLE_ROWS:
        raise TooLarge(f"value table of up to {rows:.3g} rows exceeds the guard of 2^24")


def _first(mask: np.ndarray) -> int:
    # index of the first True, or the length when there is none
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def write_csv(cols: dict, fmt: str, fh) -> None:
    """Header of the names of cols (equal-length arrays), then fmt % row, a chunk at a time."""
    fh.write(",".join(cols) + "\n")
    for start in range(0, len(next(iter(cols.values()))), _ROW_CHUNK):
        chunk = [col[start:start + _ROW_CHUNK].tolist() for col in cols.values()]
        fh.write("".join([fmt % row for row in zip(*chunk)]))


def _json_cells(col: np.ndarray) -> list[str]:
    # each entry of a bool, integer or float column as json.dumps writes it:
    # true/false, int.__repr__, float.__repr__ or NaN/Infinity/-Infinity. A
    # column of stride 0 (np.broadcast_to) is one value: it is written once.
    if len(col) > 1 and col.strides == (0,):
        return _json_cells(col[:1]) * len(col)
    if col.dtype.kind == "b":
        return ["true" if v else "false" for v in col.tolist()]
    if col.dtype.kind != "f":
        return list(map(int.__repr__, col.tolist()))
    cells = list(map(float.__repr__, col.tolist()))
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[i] = "NaN" if np.isnan(col[i]) else "Infinity" if col[i] > 0 else "-Infinity"
    return cells


def _write_json_rows(cols: dict, fh) -> None:
    # json.dumps of the row dicts of cols, a chunk of rows at a time: each
    # column's chunk becomes its cells, joined a row at a time by one format
    # with the names in sorted order
    names = sorted(cols)
    fmt = "{" + ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in names) + "}"
    fh.write("[")
    for start in range(0, len(next(iter(cols.values()), ())), _ROW_CHUNK):
        cells = [_json_cells(cols[name][start:start + _ROW_CHUNK]) for name in names]
        fh.write((", " if start else "") + ", ".join([fmt % row for row in zip(*cells)]))
    fh.write("]")


def write_json(obj: dict, fh, rows: dict | None = None) -> None:
    """json.dumps(obj, sort_keys=True) and a newline; with rows, obj["rows"] is their row dicts.

    rows are named equal-length columns, written by column a chunk at a
    time, so neither the row dicts nor the whole text is ever held; the
    bytes are those of json.dumps with the row dicts in place.
    """
    if rows is None:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
        return
    fh.write("{")
    for i, (key, value) in enumerate(sorted({**obj, "rows": None}.items())):
        fh.write((", " if i else "") + json.dumps(key) + ": ")
        if key == "rows":
            _write_json_rows(rows, fh)
        else:
            fh.write(json.dumps(value, sort_keys=True))
    fh.write("}\n")


@cache
def _group_words() -> tuple[np.ndarray, np.ndarray]:
    # a four-digit group g as one word of four ASCII bytes: "%d" % g after
    # NULs at index g, for a group with no digits before it, and "%04d" % g
    # at 10000 + g; the second table has only NULs at 0, for a group with
    # no digits in it or before it
    g = np.arange(20000)[:, None]
    digits = np.where(g >= [1000, 100, 10, 0], g % 10000 // [1000, 100, 10, 1] % 10 + 48, 0)
    last = digits.astype(np.uint8).view(np.uint32)[:, 0]
    upper = last.copy()
    upper[0] = 0
    return last, upper


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint32)


def _digit_words(mag: np.ndarray, groups: int, full: bool = False) -> list[np.ndarray]:
    # the digits of uint64 magnitudes as columns of words, four-digit groups
    # from the most significant on; with full, every group is "%04d"
    last, upper = _group_words()
    out = []
    for g in range(groups):
        hi = mag // 10000
        ahead = 10000 if full else 10000 * (hi > 0)
        out.append((upper if g else last)[(mag - hi * 10000).view(np.int64) + ahead])
        mag = hi
    return out[::-1]


def _int_words(col: np.ndarray, sep: bytes) -> list[np.ndarray]:
    # sep and "%d" of each int64 entry, as columns of NUL-padded words: sep
    # and the sign in the first word, then the digits
    neg = col < 0
    mag = np.abs(col).view(np.uint64)  # abs(int64 min) wraps to itself, 2^63 as uint64
    groups = -(-len(str(int(mag.max()))) // 4)
    sign = _words(sep.ljust(4, b"\0") + sep.ljust(3, b"\0") + b"-")
    return [sign[neg.view(np.uint8)], *_digit_words(mag, groups)]


def _frac_words(col: np.ndarray) -> list[np.ndarray]:
    # "," and "%.12f" of each float64 entry, as _int_words returns them. For
    # x in [0, 1), rint(x * 1e12) has the digits of "%.12f" % x unless the
    # rounded product is a half-integer. Half-integers below 2^52 are doubles
    # and rounding is monotone, so any other rounded product lies between
    # the same two half-integers as the exact one; on a half-integer (an
    # exact tie, or a product rounded onto one) rint may round the other
    # way. Those cells, and every x outside [0, 1) (-0.0, NaN and the
    # infinities too), take Python's "%.12f" % x.
    fast = (col >= 0.0) & (col < 1.0) & ~np.signbit(col)
    p = np.where(fast, col, 0.0) * 1e12
    fast &= p - np.floor(p) != 0.5
    q = np.rint(p).astype(np.uint64)  # up to 10^12, which is "1.000000000000"
    units = _words(b",\0" b"0." b",\0" b"1.")[(q // 10 ** 12).view(np.int64)]
    out = [units, *_digit_words(q, 3, full=True)]
    slow = np.flatnonzero(~fast).tolist()
    if slow:
        text = [b"," + ("%.12f" % x).encode() for x in col[slow].tolist()]
        out[:0] = [np.zeros(len(col), np.uint32) for _ in range(-(-max(map(len, text)) // 4) - 4)]
        for i, t in zip(slow, text):
            for column, word in zip(out, _words(t.rjust(4 * len(out), b"\0")).tolist()):
                column[i] = word
    return out


def _csv_rows(columns: list[np.ndarray]) -> str:
    # the rows of word columns as text: their bytes row by row, less the NULs
    # that pad each cell to whole words
    return np.stack(columns, axis=1).tobytes().translate(None, b"\0").decode("ascii")


def table_to_csv(table: ValueTable, fh) -> None:
    """Write the pinned CSV layout: n,f,frac,certified.

    The bytes are those of "%d,%d,%.12f,%d\n" % row for each row, formatted
    by column a _ROW_CHUNK of rows at a time: the integers from a table of
    four-digit groups, frac from rint(frac * 1e12), and certified as one
    digit. Each cell is padded with NULs to whole 4-byte words, the chunk's
    columns fill one word matrix, and its bytes less the NULs are the rows.
    Python's "%.12f" still formats the frac cells whose product is a
    half-integer, and any frac outside [0, 1).

    frac is printed to 12 decimals, of which the double stage gets about 9
    right at k=3, 8 at k=4 and 6 at k=5 (largest errors against the 160-bit
    floors 3.7e-10, 9.8e-9 and 4.6e-7, at c=1.02, theta=1.5).
    """
    fh.write("n,f,frac,certified\n")
    ends = _words(b",0\n\0" b",1\n\0")
    for start in range(0, len(table), _ROW_CHUNK):
        part = slice(start, start + _ROW_CHUNK)
        fh.write(_csv_rows([*_int_words(table.n[part], b""), *_int_words(table.f[part], b","),
                            *_frac_words(table.frac[part]),
                            ends[table.certified[part].view(np.uint8)]]))

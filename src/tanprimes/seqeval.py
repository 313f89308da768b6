"""Certified evaluation of f(n) = floor(n^c * tan^theta(log n)).

The double-precision value is trusted unless it lands within an absolute
guard of an integer, in which case the value is recomputed with at least
128 significand bits. A value that stays within 2^-40 of an integer even
then is reported as AmbiguousFloor, never silently rounded.

The double value is always computed with scalar math calls (libm), also
in value_table, which vectorises only the floor, the fractional part and
the guard test. The table, and the CSV and JSON that write_csv and
write_json make of any named columns (value tables, band scans,
exponential sums), go in chunks of rows.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

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

    Rows are taken in chunks of _ROW_CHUNK. The double stage makes the same
    scalar math calls as floor_value, on Python ints: numpy's vectorised log,
    tan and pow differ from libm in the last bits, which would move frac.
    numpy then floors, takes the fractional parts and picks the rows within
    GUARD_ABS of an integer, and only those go through certified_floor. The
    first row floor_value refuses raises its DomainError once every row
    before it is done, as a row-by-row loop would.
    """
    ns = np.asarray(ns, dtype=np.int64)
    f = np.empty(len(ns), dtype=np.int64)
    frac = np.empty(len(ns), dtype=np.float64)
    cert = np.zeros(len(ns), dtype=bool)
    for start in range(0, len(ns), _ROW_CHUNK):
        rows = ns[start:start + _ROW_CHUNK]
        ints = rows[:_first(rows < 1)].tolist()
        tans = [math.tan(math.log(n)) for n in ints]
        ok = _first(np.array(tans) <= 0.0)  # rows before the first refused one
        v = np.array([n ** c * tn ** theta for n, tn in zip(ints[:ok], tans[:ok])])
        fl = np.floor(v)
        r = v - fl
        near = ~(np.minimum(r, 1.0 - r) >= GUARD_ABS)  # NaN and inf too
        fl[near] = 0.0  # filled in below; keeps the int cast in range
        f[start:start + ok] = fl
        frac[start:start + ok] = r
        for i in np.flatnonzero(near).tolist():
            f[start + i], frac[start + i], cert[start + i] = certified_floor(
                float(v[i]), _exact_value, ints[i], c, theta)
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


def table_to_csv(table: ValueTable, fh) -> None:
    """Write the pinned CSV layout: n,f,frac,certified.

    frac is printed to 12 decimals, of which the double stage gets about 9
    right at k=3, 8 at k=4 and 6 at k=5 (largest errors against the 160-bit
    floors 3.7e-10, 9.8e-9 and 4.6e-7, at c=1.02, theta=1.5).
    """
    write_csv({"n": table.n, "f": table.f, "frac": table.frac, "certified": table.certified},
              "%d,%d,%.12f,%d\n", fh)

"""Certified evaluation of f(n) = floor(n^c * tan^theta(log n)).

The double-precision value is trusted unless it lands within an absolute
guard of an integer, in which case the value is recomputed with at least
128 significand bits. A value that stays within 2^-40 of an integer even
then is reported as AmbiguousFloor, never silently rounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import AmbiguousFloor, DomainError

GUARD_ABS = 1e-6          # escalate when this close to an integer
AMBIGUOUS_ABS = 2.0 ** -40
_ESCALATED_PREC = 160     # bits; comfortably past the required 128


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


def certified_floor(v: float, exact, n: int, *params) -> tuple[int, float, bool]:
    """Floor and fractional part of the double v, certified near an integer.

    v is trusted unless it lies within GUARD_ABS of an integer. Then
    exact(n, *params) recomputes the value as an mpmath number at
    _ESCALATED_PREC bits, and a value within AMBIGUOUS_ABS of an integer
    raises AmbiguousFloor. The last item tells whether that path ran.
    """
    fl = math.floor(v)
    frac = v - fl
    if min(frac, 1.0 - frac) >= GUARD_ABS:
        return fl, frac, False
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
    """Tabulate certified floors for an ascending iterable of integers."""
    ns = np.asarray(ns, dtype=np.int64)
    f = np.empty(len(ns), dtype=np.int64)
    frac = np.empty(len(ns), dtype=np.float64)
    cert = np.zeros(len(ns), dtype=bool)
    for i, n in enumerate(ns):
        f[i], frac[i], cert[i] = _certified(int(n), c, theta)
    return ValueTable(n=ns, f=f, frac=frac, certified=cert)


def table_to_csv(table: ValueTable, fh) -> None:
    """Write the pinned CSV layout: n,f,frac,certified (frac to 12 digits)."""
    fh.write("n,f,frac,certified\n")
    for i in range(len(table)):
        fh.write(
            f"{int(table.n[i])},{int(table.f[i])},"
            f"{float(table.frac[i]):.12f},{int(table.certified[i])}\n"
        )

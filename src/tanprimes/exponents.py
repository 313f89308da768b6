"""Exact rational ledger for the exponent bookkeeping behind c < 23/21.

Every bound is an exponent of the scale X, kept as an exact linear
function a + b*c of the sequence exponent c (fractions.Fraction is the
arithmetic; no floating point enters this module). Log factors and
epsilon paddings are deliberately treated as exponent 0 throughout, so
each inequality in the chain is a pure comparison of linear functions.

The chain: the cubed prime sum integrated over the minor arcs is bounded
through sup * mean-square; squaring and balancing against the required
X^(3-c) error budget forces c < 23/21, with equality exactly at the
boundary. Each step is named so a drifted constant is pinpointed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter

Rational = Fraction

# Published admissible-exponent records for this problem family, in the
# order they are usually listed; NOT sorted. Consumers must compare
# exactly rather than trust the listing order.
PRIOR_BOUNDS: tuple[Fraction, ...] = (
    Fraction(17, 16),
    Fraction(12, 11),
    Fraction(258, 235),
    Fraction(137, 119),
    Fraction(3113, 2703),
    Fraction(23, 21),
    Fraction(3581, 3106),
)


@dataclass(frozen=True)
class LinearExponent:
    """Exponent of X as the linear function a + b*c."""

    a: Fraction
    b: Fraction

    def at(self, c) -> Fraction:
        return self.a + self.b * Fraction(c)

    def __add__(self, other: "LinearExponent") -> "LinearExponent":
        return LinearExponent(self.a + other.a, self.b + other.b)

    def scaled(self, factor) -> "LinearExponent":
        q = Fraction(factor)
        return LinearExponent(self.a * q, self.b * q)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*c"


def gk_exponent(k: int, f_exp: Fraction) -> Fraction:
    """Derivative-test exponent for amplitude X^f_exp and length X.

    With Q = 2^k the estimate reads F^(1/(4Q-2)) N^(1-(k+2)/(4Q-2)) + N/F;
    in exponents of X (F = X^f_exp, N = X) that is the maximum of
    f_exp/(4Q-2) + 1 - (k+2)/(4Q-2) and 1 - f_exp.
    """
    if not 0 <= k <= 8:
        raise InvalidParameter(f"k must lie in 0..8, got {k}")
    q = 2 ** k
    d = Fraction(1, 4 * q - 2)
    f_exp = Fraction(f_exp)
    first = f_exp * d + 1 - (k + 2) * d
    second = 1 - f_exp
    return max(first, second)


def minor_arc_exponent(c) -> Fraction:
    """Sup exponent of the prime sum over the minor arcs: (11+3c)/15."""
    c = Fraction(c)
    if not Fraction(1) <= c < Fraction(2):
        raise InvalidParameter(f"minor-arc exponent defined for 1 <= c < 2, got {c}")
    return _MINOR.at(c)


_MINOR = LinearExponent(Fraction(11, 15), Fraction(3, 15))
_MEAN_SQUARE = LinearExponent(Fraction(1), Fraction(0))
_ARC_COUNT = LinearExponent(Fraction(1), Fraction(-1))
_ERROR_BUDGET = LinearExponent(Fraction(3), Fraction(-1))


def derivation_chain() -> list[tuple[str, LinearExponent, str]]:
    """The named steps of the admissibility derivation, in order."""
    correlation = _ARC_COUNT + _MINOR.scaled(2)
    tail_sq = _MEAN_SQUARE + _MEAN_SQUARE + correlation
    tail = tail_sq.scaled(Fraction(1, 2))
    return [
        ("minor_arc_sup", _MINOR,
         "sup of the prime exponential sum over the minor arcs"),
        ("mean_square", _MEAN_SQUARE,
         "full-circle mean square of the prime sum; logs count as exponent 0"),
        ("arc_count", _ARC_COUNT,
         "number of tau-spaced sample points across the minor arcs"),
        ("correlation", correlation,
         "fourth moment over the minor arcs: arc_count + 2*minor_arc_sup"),
        ("tail_squared", tail_sq,
         "squared minor-arc remainder: mean_square twice plus correlation"),
        ("tail", tail,
         "minor-arc remainder; must stay below the X^(3-c) error budget"),
        ("error_budget", _ERROR_BUDGET,
         "largest exponent the main term can absorb"),
    ]


def _solve_strictly_below(lhs: LinearExponent, rhs: LinearExponent) -> Fraction:
    # lhs(c) < rhs(c)  <=>  c < (rhs.a - lhs.a)/(lhs.b - rhs.b), given slope order.
    slope = lhs.b - rhs.b
    if slope <= 0:
        raise InvalidParameter("inequality does not bound c from above")
    return (rhs.a - lhs.a) / slope


def admissible_c() -> Fraction:
    """Exact supremum of admissible c from the derivation chain: 23/21."""
    steps = dict((name, e) for name, e, _ in derivation_chain())
    return _solve_strictly_below(steps["tail"], steps["error_budget"])


def cutoffs(c) -> tuple[Fraction, Fraction]:
    """Truncation exponents for the two expansion lengths: ((4-3c)/15, (2-c)/3)."""
    c = Fraction(c)
    if not Fraction(1) <= c < Fraction(4, 3):
        raise InvalidParameter(f"cutoffs defined for 1 <= c < 4/3, got {c}")
    return ((4 - 3 * c) / 15, (2 - c) / 3)


def chain_table() -> list[dict]:
    """Rows for display: step name, linear expression, value at the boundary."""
    bound = admissible_c()
    rows = []
    for name, expr, note in derivation_chain():
        rows.append({
            "step": name,
            "exponent": str(expr),
            "at_boundary": str(expr.at(bound)),
            "note": note,
        })
    rows.append({
        "step": "admissible_c",
        "exponent": "c < 23/21",
        "at_boundary": str(bound),
        "note": "tail equals error_budget exactly at the boundary",
    })
    return rows

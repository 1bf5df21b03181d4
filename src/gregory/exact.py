"""Exact rational computation of Bernoulli numbers of the second kind.

The numbers b_n (also called Gregory coefficients) are the power series
coefficients of x/ln(1+x):

    x/ln(1+x) = sum_{n>=0} b_n x^n,  b_0 = 1, b_1 = 1/2, b_2 = -1/12, ...

Two algebraically independent exact algorithms are provided:

* ``bernoulli2_series``   -- the series-division recurrence, run on
  integer numerators over one common denominator.
* ``bernoulli2_explicit`` -- the closed nested-sum formula over the chain
  sums S(m, d), evaluated on integer rows of unsigned Stirling numbers of
  the first kind.

Both run on Python ints and build a single ``Fraction`` per coefficient
at the end; an N = 1000 table takes seconds.  Floats never enter this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
ONE_HALF = Fraction(1, 2)


def format_rational(q: Fraction) -> str:
    """Serialize ``q`` as ``"num/den"`` in lowest terms.

    Integers keep an explicit denominator: ``Fraction(3)`` renders as
    ``"3/1"``.  This is the wire format used by the CSV/JSON emitters.
    """
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the ``"num/den"`` form produced by :func:`format_rational`.

    Bare integer strings are accepted as a convenience.
    """
    return Fraction(text.strip())


class TableMethod(Enum):
    """Which exact algorithm produced a :class:`GregoryTable`."""

    SERIES_RECURRENCE = "series"
    EXPLICIT_FORMULA = "explicit"


@dataclass(frozen=True)
class GregoryTable:
    """Exact table of b_0..b_N with method provenance.

    Invariants, checked at construction rather than assumed:

    * ``values[0] == 1`` and, when present, ``values[1] == 1/2``;
    * ``sign(values[n]) == (-1)**(n+1)`` for n >= 1;
    * ``max_index == len(values) - 1``.
    """

    values: tuple[Fraction, ...]
    method: TableMethod

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("table must hold at least b_0")
        if self.values[0] != ONE:
            raise ValueError("b_0 must be 1")
        if len(self.values) > 1 and self.values[1] != ONE_HALF:
            raise ValueError("b_1 must be 1/2")
        for n in range(1, len(self.values)):
            expected = 1 if n % 2 == 1 else -1
            v = self.values[n]
            if v == 0 or (1 if v > 0 else -1) != expected:
                raise ValueError(f"sign of b_{n} violates (-1)**(n+1) alternation")

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]


def bernoulli2_series(n_max: int) -> GregoryTable:
    """Exact b_0..b_{n_max} by the series-division recurrence.

    Dividing x by ln(1+x) = sum_{k>=1} (-1)**(k+1) x^k / k and equating
    coefficients gives

        b_0 = 1,  b_n = -sum_{k=1}^{n} (-1)**k b_{n-k} / (k+1).

    The recurrence runs on the integers c_j = (-1)**j b_j D over the one
    denominator D = n_max! lcm(1..n_max+1), where it reads
    c_n = -sum_k c_{n-k}/(k+1).  Each quotient splits as q + r/(k+1)
    with 0 <= r <= k, and the remainders are summed over
    lcm(1..n_max+1).  Every c_n is an integer, because n! b_n =
    sum_k s(n, k)/(k+1) has a denominator dividing lcm(1..n+1), so that
    remainder sum divides exactly.

    Total function for n_max >= 0; memory is the only practical limit.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lcm = math.lcm(*range(1, n_max + 2))
    scale = math.factorial(n_max) * lcm
    divisors = range(2, n_max + 2)               # k + 1 for k = 1..n_max
    weights = [lcm // d for d in divisors]
    scaled = [scale]
    for _ in range(n_max):
        quotients, remainders = zip(*map(divmod, reversed(scaled), divisors))
        scaled.append(-(sum(quotients) + sum(map(int.__mul__, remainders, weights)) // lcm))
    values = tuple(Fraction(c if j % 2 == 0 else -c, scale) for j, c in enumerate(scaled))
    return GregoryTable(values=values, method=TableMethod.SERIES_RECURRENCE)


def _next_stirling_row(row: Sequence[int], m: int) -> list[int]:
    """Unsigned Stirling numbers |s(m+1, 0..m+1)| from |s(m, 0..m)|.

    |s(m+1, j)| = |s(m, j-1)| + m |s(m, j)|.
    """
    return [a + m * b for a, b in zip((0, *row), (*row, 0))]


class NestedSumMemo:
    """Memo of the chain sums S(m, d), held as integer Stirling rows.

    S(m, d) is the sum over strictly decreasing integer chains
    m >= l_1 > l_2 > ... > l_d >= 1 of prod_j 1/l_j, with the
    conventions S(m, 0) = 1 (the empty chain) and S(m, d) = 0 for
    d > m.  It is the elementary symmetric function e_d(1, 1/2, ..., 1/m),
    so m! S(m, d) = e_{m-d}(1, ..., m), the coefficient of x**(d+1) in
    x(x+1)...(x+m).  Hence

        S(m, d) = |s(m+1, d+1)| / m!,

    with s the Stirling numbers of the first kind.  The memo keeps row m
    of |s(m, .)| for every m reached so far.  Instances mutate while
    they grow, so share one between threads only behind a lock, or hand
    each thread its own.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, ...]] = [(1,)]  # row m holds |s(m, 0..m)|

    def stirling_row(self, m: int) -> tuple[int, ...]:
        """|s(m, 0..m)|, the unsigned Stirling numbers of the first kind."""
        if m < 0:
            raise ValueError("row index must be nonnegative")
        while len(self._rows) <= m:
            self._rows.append(tuple(_next_stirling_row(self._rows[-1], len(self._rows) - 1)))
        return self._rows[m]

    def value(self, m: int, d: int) -> Fraction:
        if m < 0 or d < 0:
            raise ValueError("chain sum indices must be nonnegative")
        if d > m:
            return ZERO
        return Fraction(self.stirling_row(m + 1)[d + 1], math.factorial(m))


def nested_sum(m: int, d: int, memo: NestedSumMemo | None = None) -> Fraction:
    """S(m, d), the strictly-decreasing-chain sum (see NestedSumMemo).

    A fresh memo is created when none is passed; callers looping over
    many (m, d) pairs should pass one in and reuse it.
    """
    if m < 0 or d < 0:
        raise ValueError("m and d must be nonnegative")
    return (memo if memo is not None else NestedSumMemo()).value(m, d)


def a_coefficient(n: int, i: int, memo: NestedSumMemo | None = None) -> Fraction:
    """Exact coefficient a(n, i) of the explicit formula.

    a(n, 2) = (n-1)! and, for 3 <= i <= n+1,
    a(n, i) = (i-1)! (n-1)! S(n-1, i-2).  Both cases are the integer
    (i-1)! |s(n, i-1)|, since (n-1)! S(n-1, i-2) = |s(n, i-1)| and
    |s(n, 1)| = (n-1)!.

    Raises ValueError outside 2 <= i <= n+1, where the coefficient is
    undefined.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if i < 2 or i > n + 1:
        raise ValueError(f"a({n}, {i}) is undefined: need 2 <= i <= n+1")
    memo = memo if memo is not None else NestedSumMemo()
    return Fraction(math.factorial(i - 1) * memo.stirling_row(n)[i - 1])


def _explicit_from_rows(n: int, prev: Sequence[int], row: Sequence[int], lcm: int) -> Fraction:
    """b_n from the rows |s(n-1, .)| and |s(n, .)|, with lcm = lcm(1..n+1).

    With a(n, k) = (k-1)! |s(n, k-1)| each summand of the explicit formula
    is the integer |s(n, k-1)| - n |s(n-1, k-1)| divided by k.  That
    quotient splits as q + r/k with 0 <= r < k, and the bracket becomes
    (lcm sum q + lcm/(n+1) + sum r lcm/k) / lcm.
    """
    divisors = range(2, n + 1)
    quotients, remainders = zip(*map(divmod, (row[k - 1] - n * prev[k - 1] for k in divisors),
                                     divisors))
    bracket = (lcm * sum(quotients) + lcm // (n + 1)
               + sum(r * (lcm // k) for r, k in zip(remainders, divisors)))
    return Fraction(bracket if n % 2 == 0 else -bracket, math.factorial(n) * lcm)


def bernoulli2_explicit(n: int, memo: NestedSumMemo | None = None) -> Fraction:
    """Exact b_n by the explicit nested-sum formula, valid for n >= 2.

        b_n = (-1)**n / n! * [ 1/(n+1)
              + sum_{k=2}^{n} (a(n, k) - n a(n-1, k)) / k! ]

    Every a(., .) in the sum is defined (2 <= k <= n), and the formula is
    evaluated on the memo's integer Stirling rows n-1 and n.
    """
    if n < 2:
        raise ValueError("explicit formula applies for n >= 2 only")
    memo = memo if memo is not None else NestedSumMemo()
    return _explicit_from_rows(n, memo.stirling_row(n - 1), memo.stirling_row(n),
                               math.lcm(*range(1, n + 2)))


def bernoulli2_explicit_table(n_max: int) -> GregoryTable:
    """GregoryTable built from the explicit formula.

    The closed formula starts at n = 2; b_0 = 1 and b_1 = 1/2 are series
    constants and are filled in directly so both methods cover the same
    index range.  Only the two Stirling rows the formula needs are kept.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [ONE, ONE_HALF][: n_max + 1]
    row = [0, 1]                    # |s(1, .)|
    lcm = 2                         # lcm(1..n+1) at n = 1
    for n in range(2, n_max + 1):
        prev, row = row, _next_stirling_row(row, n - 1)
        lcm = math.lcm(lcm, n + 1)
        values.append(_explicit_from_rows(n, prev, row, lcm))
    return GregoryTable(values=tuple(values), method=TableMethod.EXPLICIT_FORMULA)


def signed_moment_sequence(table: GregoryTable) -> tuple[Fraction, ...]:
    """The sequence mu_n = (-1)**n b_{n+1}, n = 0..max_index-1.

    This is the nonnegative moment sequence whose structural properties
    the checks in :mod:`gregory.properties` verify.
    """
    return tuple((-ONE) ** n * table.values[n + 1] for n in range(table.max_index))

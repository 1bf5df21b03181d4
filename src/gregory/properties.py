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
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement, zip_longest
from typing import Callable, Optional, Sequence

from .exact import GregoryTable, format_rational
from .quadrature import IntegrandEvaluationError, shifted_kernel_integral

DEFAULT_GRID_ORDER = 8          # difference orders checked by the grid tests
DEFAULT_CLOSED_FORM_SLACK = 1e-12
DEFAULT_QUADRATURE_SLACK = 1e-6


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


def _common_denominator(values: Sequence) -> tuple[list[int], int]:
    # exact rationals (ints or Fractions) as numerators over their denominators' lcm
    if not values:
        raise ValueError("sequence must be nonempty")
    den = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


def _signed_rows(row: list):
    # the rows (-1)**k Delta**k of row for k = 0..len(row)-1, one at a time
    while row:
        yield row
        row = [a - b for a, b in zip(row, row[1:])]


def check_cm_sequence(mu: Sequence) -> CmReport:
    """Check that mu is completely monotonic as far as its length allows.

    mu holds exact rationals (ints or Fractions).  Requires
    (-1)**k (forward difference)^k mu_n >= 0 for every order
    k = 0..len(mu)-1 and every offset n, the k = 0 row included (the
    terms themselves must be nonnegative).  Exact comparison, no slack,
    on integer rows over one common denominator, built one at a time.
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
    over its denominator lcm den, then fraction-free Bareiss elimination
    keeps every intermediate value integral; the only division, at the
    end, is by the product of the row scales.
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
    sign = 1
    prev = 1
    for col in range(m - 1):
        if imat[col][col] == 0:
            for r in range(col + 1, m):
                if imat[r][col] != 0:
                    imat[col], imat[r] = imat[r], imat[col]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = imat[col][col]
        for r in range(col + 1, m):
            for c in range(col + 1, m):
                imat[r][c] = (imat[r][c] * pivot - imat[r][col] * imat[col][c]) // prev
            imat[r][col] = 0
        prev = pivot
    return Fraction(sign * imat[m - 1][m - 1], scale)


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
        if isinstance(a, bool) or not isinstance(a, int):
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
    moments = {s: math.factorial(s) * table[s + 1] for s in {a + b for a in idx for b in idx}}
    return bareiss_determinant(_moment_matrix(moments.__getitem__, idx, variant))


# ----------------------------------------------------------------------
# majorization and log-convexity
# ----------------------------------------------------------------------

def is_majorized(lam, mu) -> bool:
    """True when lam is majorized by mu.

    Both tuples are sorted descending and padded with zeros to a common
    length; lam is majorized by mu when every descending partial sum of
    lam is at most the matching partial sum of mu and the totals agree.
    """
    a = sorted(_validate_index_tuple(lam), reverse=True)
    b = sorted(_validate_index_tuple(mu), reverse=True)
    if sum(a) != sum(b):
        return False
    run_a = run_b = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        run_a += x
        run_b += y
        if run_a > run_b:
            return False
    return True


def _factorial_moment_product(table: GregoryTable, indices: tuple[int, ...]) -> Fraction:
    # |prod_i  indices_i! * b_{indices_i + 1}|, exact, reduced once
    num = math.prod(math.factorial(a) * table[a + 1].numerator for a in indices)
    return Fraction(abs(num), math.prod(table[a + 1].denominator for a in indices))


def check_majorization_inequality(table: GregoryTable, lam, mu) -> CmReport:
    """Product inequality along majorization order.

    For lam majorized by mu, the product of a!*|b_{a+1}| over the
    entries of lam must not exceed the same product over mu.  The
    inequality is a statement about equal-length tuples, so unequal
    lengths are first zero-padded to match, exactly as in
    :func:`is_majorized`; each padded zero contributes a factor
    0!*|b_1| = 1/2.  Raises if lam is not majorized by mu; equality
    (e.g. identical tuples) passes.
    """
    lam_t = _validate_index_tuple(lam)
    mu_t = _validate_index_tuple(mu)
    if not is_majorized(lam_t, mu_t):
        raise ValueError(f"{lam_t} is not majorized by {mu_t}")
    top = max(max(lam_t), max(mu_t))
    if top + 1 > table.max_index:
        raise ValueError(
            f"need coefficients through index {top + 1}, table stops at {table.max_index}")
    width = max(len(lam_t), len(mu_t))
    lhs = _factorial_moment_product(table, lam_t + (0,) * (width - len(lam_t)))
    rhs = _factorial_moment_product(table, mu_t + (0,) * (width - len(mu_t)))
    return _report("majorization", (width, top),
                   (0, 0, format_rational(lhs - rhs)) if lhs > rhs else None)


def check_log_convexity(table: GregoryTable) -> CmReport:
    """Log-convexity of the factorial-scaled coefficient magnitudes.

    Checks (i! b_{i+1}) ((i+2)! b_{i+3}) >= ((i+1)! b_{i+2})**2 exactly
    for every i with i+3 <= max_index.  The left side pairs
    coefficients of equal sign, so the literal signed products already
    compare cleanly.  Needs a table through index 3 at least.
    """
    N = table.max_index
    if N < 3:
        raise ValueError("log-convexity needs coefficients through index 3")
    # m[i] = i! b_{i+1} * den: integers over the common denominator den
    nums, den = _common_denominator(table.values[1:])
    m = [math.factorial(i) * p for i, p in enumerate(nums)]
    for i in range(0, N - 2):
        gap = m[i] * m[i + 2] - m[i + 1] ** 2
        if gap < 0:
            return _report("log-convexity", (N, 0),
                           (0, i, format_rational(Fraction(gap, den * den))))
    return _report("log-convexity", (N, 0), None)


# ----------------------------------------------------------------------
# float-grid checks for functions given only pointwise
# ----------------------------------------------------------------------

def cm_grid_test(f: Callable[[float], float], x_grid: Sequence[float],
                 K: int = DEFAULT_GRID_ORDER, h: Optional[float] = None,
                 slack: float = DEFAULT_CLOSED_FORM_SLACK) -> CmReport:
    """Finite-difference screen for complete monotonicity on a grid.

    At every grid point x the signed forward differences
    (-1)**k Delta_h^k f(x) for k = 0..K must clear -slack.  The step is
    h when given, otherwise min(0.1, x/(2K)) per point, keeping the
    sample window proportionate near the origin.  Violations are
    reported as (k, grid index, signed value); scanning is k-major so
    the lowest offending order wins.  This is a screen, not a proof:
    slack absorbs rounding, and only the sampled window is seen.
    """
    points = tuple(x_grid)
    if not points:
        raise ValueError("x_grid must be nonempty")
    if any(x <= 0 for x in points):
        raise ValueError("grid points must be positive")
    if K < 0:
        raise ValueError("difference order K must be >= 0")
    if h is not None and h <= 0:
        raise ValueError("step h must be positive")
    if slack < 0:
        raise ValueError("slack must be >= 0")
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
                       x_grid: Sequence[float], K: int = DEFAULT_GRID_ORDER,
                       h: Optional[float] = None,
                       slack: float = DEFAULT_CLOSED_FORM_SLACK) -> DegreeBracket:
    """Scan exponents r and bracket where x**r * f(x) stops being CM.

    r_grid must be strictly ascending.  Each candidate runs the same
    grid screen as :func:`cm_grid_test` on the weighted function.
    """
    rs = tuple(r_grid)
    if not rs:
        raise ValueError("r_grid must be nonempty")
    if any(rs[i] >= rs[i + 1] for i in range(len(rs) - 1)):
        raise ValueError("r_grid must be strictly ascending")
    last_pass: Optional[float] = None
    first_fail: Optional[float] = None
    for r in rs:
        def weighted(x: float, _r=r) -> float:
            return x ** _r * f(x)
        if cm_grid_test(weighted, x_grid, K=K, h=h, slack=slack).passed:
            last_pass = r
        elif first_fail is None:
            first_fail = r
    return DegreeBracket(last_pass=last_pass, first_fail=first_fail)


def check_bernstein(f: Callable[[float], float], f_prime: Callable[[float], float],
                    x_grid: Sequence[float], K: int = DEFAULT_GRID_ORDER,
                    h: Optional[float] = None,
                    slack: float = DEFAULT_CLOSED_FORM_SLACK) -> CmReport:
    """Grid screen for the Bernstein property: f >= 0 and f' completely monotonic.

    Order 0 violations report f itself dipping below -slack; an order
    k >= 1 violation is the (k-1)-th signed difference of f' failing at
    that grid point of :func:`cm_grid_test` on f', so the report's k axis
    reads as derivative order of f.  Horizon order is K + 1 accordingly.
    """
    points = tuple(x_grid)
    if any(x <= 0 for x in points):
        raise ValueError("grid points must be positive")
    horizon = (len(points) - 1, K + 1)
    for n, x in enumerate(points):
        v = f(x)
        if not math.isfinite(v):
            raise IntegrandEvaluationError(x, v)
        if v < -slack:
            return _report("bernstein", horizon, (0, n, _value_string(v)))
    screen = cm_grid_test(f_prime, points, K=K, h=h, slack=slack)
    if screen.passed:
        return _report("bernstein", horizon, None)
    k, n, value = screen.first_violation
    return _report("bernstein", horizon, (k + 1, n, value))


# ----------------------------------------------------------------------
# determinants of the shifted kernel integrals (numeric)
# ----------------------------------------------------------------------

def _float_determinant(rows: list[list[float]]) -> float:
    m = len(rows)
    mat = [row[:] for row in rows]
    sign = 1.0
    det = 1.0
    for col in range(m):
        pivot_row = max(range(col, m), key=lambda r: abs(mat[r][col]))
        if mat[pivot_row][col] == 0.0:
            return 0.0
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            sign = -sign
        pivot = mat[col][col]
        det *= pivot
        for r in range(col + 1, m):
            factor = mat[r][col] / pivot
            for c in range(col, m):
                mat[r][c] -= factor * mat[col][c]
    return sign * det


def check_shifted_kernel_determinants(x: float, m_max: int = 2, entry_max: int = 2,
                                      n: int = 1, tol: float = 1e-10,
                                      slack: float = DEFAULT_QUADRATURE_SLACK) -> CmReport:
    """Nonnegativity of determinants built from the shifted kernel integrals.

    For every nondecreasing index tuple (a_1..a_m) with m <= m_max and
    entries <= entry_max, forms the matrix with entries

        (n + a_i + a_j - 1)! / (n - 1)!  *  h_{n + a_i + a_j}(x)

    and its sign-prefixed variant ((-1)**(a_i+a_j) factor), and requires
    both determinants to clear -slack.  Matrix entries come from
    quadrature at absolute tolerance tol and are cached across tuples.
    Violations report (variant stage, tuple index): stage 0 is the plain
    variant, stage 1 the signed one.
    """
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_max < 1 or entry_max < 0:
        raise ValueError("m_max must be >= 1 and entry_max >= 0")
    cache: dict[int, float] = {}

    def entry(s: int) -> float:
        if s not in cache:
            ratio = math.factorial(n + s - 1) // math.factorial(n - 1)
            cache[s] = ratio * shifted_kernel_integral(n + s, x, tol).value
        return cache[s]

    tuples = [t for m in range(1, m_max + 1)
              for t in combinations_with_replacement(range(entry_max + 1), m)]
    for stage, variant in enumerate((DeterminantVariant.PLAIN, DeterminantVariant.SIGNED)):
        for idx, a in enumerate(tuples):
            det = _float_determinant(_moment_matrix(entry, a, variant))
            if det < -slack:
                return _report("kernel-determinants", (len(tuples) - 1, 1),
                               (stage, idx, _value_string(det)))
    return _report("kernel-determinants", (len(tuples) - 1, 1), None)

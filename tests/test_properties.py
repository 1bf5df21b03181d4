"""Property checks: difference tables, CM reports, determinants, screens."""

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gregory.properties
from gregory import (
    CmReport,
    DeterminantVariant,
    GregoryTable,
    IntegrandEvaluationError,
    QuadratureResult,
    TableMethod,
    bareiss_determinant,
    bernoulli2_series,
    bernstein_identity,
    check_bernstein,
    check_cm_sequence,
    check_log_convexity,
    check_majorization_inequality,
    check_minimality_perturbation,
    check_shifted_kernel_determinants,
    closed_derivative,
    closed_derivative_decimal,
    cm_grid_test,
    estimate_cm_degree,
    format_rational,
    genfun_derivative_integral,
    genfun_integral,
    hankel_determinant,
    is_majorized,
    shifted_kernel_integral,
    signed_moment_sequence,
    stieltjes_recip_log,
    stieltjes_weight,
)
from gregory.properties import _integer_determinant, hankel_positive_definite
from gregory.quadrature import _C, _E, _J, _integrate_members

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=50)

# Hausdorff moments sum_i w_i t_i**n of finite measures on [0, 1]: CM sequences
moment_sequences = st.builds(
    lambda atoms, length: [sum(w * t ** n for w, t in atoms) for n in range(length)],
    st.lists(st.tuples(st.fractions(0, 3, max_denominator=20),
                       st.fractions(0, 1, max_denominator=20)), min_size=1, max_size=4),
    st.integers(1, 8))


def _moved(mu, i, d):
    # mu with its term i (mod the length) shifted by d
    i %= len(mu)
    return mu[:i] + [mu[i] + d] + mu[i + 1:]


# CM sequences, CM sequences with one term moved, and arbitrary ones
rational_sequences = st.one_of(
    moment_sequences,
    st.builds(_moved, moment_sequences, st.integers(0, 7), small_fractions),
    st.lists(small_fractions, min_size=1, max_size=8))


def _cofactor_determinant(rows):
    # independent O(n!) oracle for the Bareiss implementation
    m = len(rows)
    if m == 1:
        return rows[0][0]
    total = Fraction(0)
    for c in range(m):
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        term = rows[0][c] * _cofactor_determinant(minor)
        total += term if c % 2 == 0 else -term
    return total


# The full forward difference table: the reference that the integer-row CM
# checks in gregory.properties are held to (TestIntegerPath).
@dataclass(frozen=True)
class DifferenceTable:
    """Forward difference table: rows[k][n] holds the raw k-th difference.

    Row 0 is the input sequence itself; row k has k fewer entries.  The
    values are raw differences, not sign-adjusted: callers testing
    complete monotonicity multiply row k by (-1)**k themselves.
    """

    rows: tuple[tuple, ...]

    @property
    def base(self) -> tuple:
        return self.rows[0]

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def forward(self, k: int, n: int):
        return self.rows[k][n]

    def alternating(self, k: int, n: int):
        """(-1)**k times the k-th forward difference at n."""
        v = self.rows[k][n]
        return -v if k % 2 else v


def difference_table(mu: Sequence, K: int) -> DifferenceTable:
    """Build forward differences of mu through order K.

    Requires 0 <= K <= len(mu) - 1 so every requested row is nonempty.
    Works on any subtractable values; exact inputs give exact rows.
    """
    terms = tuple(mu)
    if not terms:
        raise ValueError("sequence must be nonempty")
    if K < 0 or K > len(terms) - 1:
        raise ValueError(f"order K={K} needs a sequence of at least K+1 terms")
    rows = [terms]
    for _ in range(K):
        prev = rows[-1]
        rows.append(tuple(prev[n + 1] - prev[n] for n in range(len(prev) - 1)))
    return DifferenceTable(rows=tuple(rows))



class TestDifferenceTable:
    def test_constant_sequence_flattens(self):
        """Differences of a constant sequence vanish at every order."""
        table = difference_table([Fraction(1)] * 3, 2)
        assert table.rows[1] == (Fraction(0), Fraction(0))
        assert table.rows[2] == (Fraction(0),)

    def test_first_difference(self):
        """Leading first difference of (1/2, 1/12, 1/24) is -5/12."""
        table = difference_table(
            [Fraction(1, 2), Fraction(1, 12), Fraction(1, 24)], 1)
        assert table.forward(1, 0) == Fraction(-5, 12)

    def test_third_difference_is_raw(self):
        """rows hold raw differences: for 1, 1/2, 1/3, 1/4 the third one
        is -1/4, and the sign-adjusted accessor flips it to +1/4."""
        table = difference_table(
            [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], 3)
        assert table.forward(3, 0) == Fraction(-1, 4)
        assert table.alternating(3, 0) == Fraction(1, 4)

    def test_base_row_is_input(self):
        table = difference_table([Fraction(2), Fraction(5)], 1)
        assert table.base == (Fraction(2), Fraction(5))
        assert table.order == 1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            difference_table([Fraction(1)], 1)
        with pytest.raises(ValueError):
            difference_table([Fraction(1), Fraction(2)], -1)
        with pytest.raises(ValueError):
            difference_table([], 0)

    @given(st.lists(small_fractions, min_size=1, max_size=10))
    def test_recursive_equals_binomial(self, mu):
        """Iterated differencing agrees with the closed binomial form."""
        K = len(mu) - 1
        table = difference_table(mu, K)
        for k in range(K + 1):
            for n in range(len(mu) - k):
                binomial = sum(
                    (-1) ** (k - j) * math.comb(k, j) * mu[n + j]
                    for j in range(k + 1))
                assert table.forward(k, n) == binomial


class TestCmSequence:
    def test_signed_moments_pass(self, table31):
        """(-1)**n b_{n+1} for n = 0..30 is completely monotonic, exactly."""
        report = check_cm_sequence(signed_moment_sequence(table31))
        assert report.passed
        assert report.first_violation is None
        assert report.horizon == (30, 30)

    def test_unsigned_coefficients_fail_immediately(self, table31):
        """Without the sign twist the raw coefficients fail at b_2 < 0."""
        report = check_cm_sequence(table31.values[1:])
        assert not report.passed
        assert report.first_violation == (0, 1, "-1/12")

    def test_increasing_pair_fails_at_first_difference(self):
        report = check_cm_sequence([Fraction(1), Fraction(2)])
        assert not report.passed
        assert report.first_violation == (1, 0, "-1/1")

    def test_order_zero_is_checked(self):
        """Negative terms themselves are violations, not just differences."""
        report = check_cm_sequence([Fraction(-1), Fraction(-2)])
        assert report.first_violation[0] == 0

    def test_report_json_shape(self, table31):
        report = check_cm_sequence(signed_moment_sequence(table31))
        payload = report.to_json_dict()
        assert payload == {"suite": "cm-sequence", "passed": True,
                           "horizon": [30, 30], "first_violation": None}

    def test_violation_json_shape(self):
        payload = check_cm_sequence([Fraction(1), Fraction(2)]).to_json_dict()
        assert payload["first_violation"] == {"k": 1, "n": 0, "value": "-1/1"}


def _reference_cm(mu, suite_name="cm-sequence"):
    # CM report read off the full difference table, scanned k-major
    table = difference_table(mu, len(mu) - 1)
    horizon = (len(mu) - 1, table.order)
    for k in range(table.order + 1):
        for n in range(len(table.rows[k])):
            value = table.alternating(k, n)
            if value < 0:
                return CmReport(suite_name, False, horizon, (k, n, format_rational(value)))
    return CmReport(suite_name, True, horizon, None)


class TestIntegerPath:
    """The integer-row checks agree with the Fraction difference table."""

    @settings(max_examples=150, deadline=None)
    @given(mu=rational_sequences)
    def test_cm_sequence_matches_difference_table(self, mu):
        assert check_cm_sequence(mu) == _reference_cm(mu)

    @settings(max_examples=150, deadline=None)
    @given(mu=rational_sequences,
           eps=st.fractions(min_value=Fraction(1, 1000), max_value=3, max_denominator=1000),
           tie=st.booleans(), k=st.integers(0, 7))
    def test_minimality_matches_perturbed_table(self, mu, eps, tie, k):
        """Same report as a second full table of (mu_0 - eps, mu_1, ...).

        With tie, eps is set to a positive column-0 entry of order k, the
        boundary where the perturbed entry is exactly zero.
        """
        if not _reference_cm(mu).passed:
            with pytest.raises(ValueError):
                check_minimality_perturbation(mu, eps)
            return
        entry = difference_table(mu, len(mu) - 1).alternating(k % len(mu), 0)
        if tie and entry > 0:
            eps = entry
        probe = _reference_cm([mu[0] - eps] + mu[1:], "minimality")
        assert check_minimality_perturbation(mu, eps) == CmReport(
            "minimality", not probe.passed, probe.horizon, probe.first_violation)

    def test_column_zero_matches_quadrature(self, table31):
        """(-1)**k Delta**k mu_0 = integral_0^1 (1-s)**k v(s)/s ds for k <= 30.

        The term jac * sigc**(k+1) / (y**2 + pi**2) is that integrand in
        the tanh-sinh variables, read from rows (1 - s, jac, d) of the
        node columns, d = y**2 + pi**2 among them; summed by the engine itself, it keeps the 1/(s ln(s)**2) tail
        below the smallest normal s.  Its envelope is sigma(-|y|)/(pi cosh
        tau) on the s -> 1 side, which bounds its terms there as
        sigma(-|y|)**(k+1) <= sigma(-|y|), and 1/(pi cosh tau) on the
        s -> 0 side.
        """
        table = difference_table(signed_moment_sequence(table31), 30)
        for k in range(31):
            def term(rows):
                return [j * c ** (k + 1) / e for c, j, e in rows]
            value = _integrate_members([(term, 0, 1.1e-16, None)], -1, 1e-15, (_C, _J, _E))[0][0]
            assert abs(value - float(table.alternating(k, 0))) <= 1e-14, k


class TestMinimality:
    def test_large_epsilon_finds_violation(self, table31):
        """Dropping mu_0 by 1/2 breaks monotonicity at the first difference."""
        report = check_minimality_perturbation(
            signed_moment_sequence(table31), Fraction(1, 2))
        assert report.passed
        assert report.first_violation == (1, 0, "-1/12")

    def test_small_epsilon_is_inconclusive_here(self, table31):
        """1/10 is below what this horizon can witness; the probe says so."""
        report = check_minimality_perturbation(
            signed_moment_sequence(table31), Fraction(1, 10))
        assert not report.passed
        assert report.first_violation is None

    def test_toy_sequence_inconclusive(self):
        """(1, 0, 0) stays CM after dropping mu_0 to 1/2: nothing is proven."""
        report = check_minimality_perturbation(
            [Fraction(1), Fraction(0), Fraction(0)], Fraction(1, 2))
        assert not report.passed

    def test_rejects_nonpositive_epsilon(self, table31):
        with pytest.raises(ValueError):
            check_minimality_perturbation(
                signed_moment_sequence(table31), Fraction(0))

    def test_rejects_non_cm_base(self):
        with pytest.raises(ValueError):
            check_minimality_perturbation([Fraction(1), Fraction(2)], Fraction(1, 10))


class TestInexactInputs:
    """The exact checks take ints and Fractions; a float or a Decimal entry
    is a ValueError naming the first such entry, not an AttributeError."""

    @pytest.mark.parametrize("call, bad", [
        (lambda: check_cm_sequence([0.5, 0.25]), "0.5"),
        (lambda: check_cm_sequence([Fraction(1, 2), 1, Decimal("0.25"), 0.125]),
         "Decimal('0.25')"),
        (lambda: check_minimality_perturbation([0.5], Fraction(1, 10)), "0.5"),
        (lambda: bareiss_determinant([[0.5]]), "0.5"),
        (lambda: bareiss_determinant([[Fraction(1), 2], [3, Decimal(4)]]), "Decimal('4')"),
    ], ids=["cm-float", "cm-decimal", "minimality-float", "bareiss-float", "bareiss-decimal"])
    def test_names_the_first_inexact_entry(self, call, bad):
        with pytest.raises(ValueError, match=rf"exact rationals \(ints or Fractions\), "
                                             rf"got {re.escape(bad)}$"):
            call()


class TestBareissDeterminant:
    def test_identity(self):
        rows = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert bareiss_determinant(rows) == 1

    def test_two_by_two(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
        assert bareiss_determinant(rows) == Fraction(1, 10) - Fraction(1, 12)

    def test_singular(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert bareiss_determinant(rows) == 0

    def test_pivot_swap(self):
        """A zero leading pivot forces a row swap and a sign flip."""
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert bareiss_determinant(rows) == -1

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[Fraction(1), Fraction(2)]])
        with pytest.raises(ValueError):
            bareiss_determinant([])

    @given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_matches_cofactor_expansion_integers(self, raw):
        rows = [[Fraction(v) for v in row] for row in raw]
        assert bareiss_determinant(rows) == _cofactor_determinant(rows)

    @given(st.lists(st.lists(small_fractions, min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_matches_cofactor_expansion_rationals(self, rows):
        assert bareiss_determinant(rows) == _cofactor_determinant(rows)


class TestHankelDeterminants:
    def test_singleton(self, table31):
        assert hankel_determinant(table31, (0,)) == Fraction(1, 2)

    def test_pair(self, table31):
        assert hankel_determinant(table31, (0, 1)) == Fraction(5, 144)

    def test_triple_exact_value(self, table31):
        """det of the (0,1,2) factorial-moment matrix, both variants.

        The matrix rows are (s)! b_{s+1} for s = a_i + a_j:
        [[1/2, 1/12, 1/12], [1/12, 1/12, 19/30], ...]; exact elimination
        gives 407/86400 and the sign-prefixed variant must agree.
        """
        expected = Fraction(407, 86400)
        assert hankel_determinant(table31, (0, 1, 2),
                                  DeterminantVariant.PLAIN) == expected
        assert hankel_determinant(table31, (0, 1, 2),
                                  DeterminantVariant.SIGNED) == expected

    def test_variants_agree_and_stay_nonnegative(self, table31):
        """Exhaustive sweep: sizes <= 4, entries <= 5, both variants, each
        equal to the rational Bareiss on the (a_i + a_j)! b_{a_i+a_j+1}."""
        tuples = [t for m in range(1, 5)
                  for t in combinations_with_replacement(range(6), m)]
        assert len(tuples) == 209
        for indices in tuples:
            plain = hankel_determinant(table31, indices, DeterminantVariant.PLAIN)
            signed = hankel_determinant(table31, indices, DeterminantVariant.SIGNED)
            rows = [[math.factorial(ai + aj) * table31[ai + aj + 1] for aj in indices]
                    for ai in indices]
            assert plain == signed == bareiss_determinant(rows)
            assert plain >= 0

    def test_requires_deep_table(self):
        table = bernoulli2_series(4)
        with pytest.raises(ValueError):
            hankel_determinant(table, (0, 2))   # needs index 5

    def test_index_validation(self, table31):
        with pytest.raises(ValueError):
            hankel_determinant(table31, ())
        with pytest.raises(ValueError):
            hankel_determinant(table31, (-1,))
        with pytest.raises(ValueError):
            hankel_determinant(table31, (True,))
        with pytest.raises(ValueError):
            hankel_determinant(table31, (0.5,))


class TestHankelPositiveDefinite:
    def test_pivots_are_the_leading_minors(self, table31):
        """With no row swapped, the elimination's pivots over the common
        denominator D are D**k times the leading minors of order k."""
        moments, den = table31.factorial_moments
        det, minors = _integer_determinant([list(moments[i:i + 6]) for i in range(6)])
        assert len(minors) == 6 and minors[-1] == det
        for k, minor in enumerate(minors, 1):
            assert Fraction(minor, den ** k) == hankel_determinant(table31, range(k))

    @pytest.mark.parametrize("n_max", [11, 31, 300])
    def test_exact_tables_are_positive_definite(self, n_max):
        """Every principal minor below order 6 is then > 0."""
        table = bernoulli2_series(n_max)
        assert hankel_positive_definite(table, 6)
        for m in range(1, 7):
            for indices in combinations(range(6), m):
                assert hankel_determinant(table, indices) > 0

    def test_rank_one_table_is_not(self):
        """b_{s+1} = t**s/(2 s!) gives [m_{i+j}] = [t**(i+j)/2], of rank one:
        its leading minor of order 2 is 0, so the elimination swaps or stops."""
        t = Fraction(-1, 3)
        values = [Fraction(1)] + [t ** s / (2 * math.factorial(s)) for s in range(11)]
        table = GregoryTable(tuple(values), TableMethod.SERIES_RECURRENCE)
        assert not hankel_positive_definite(table, 6)
        moments, _ = table.factorial_moments
        assert _integer_determinant([list(moments[i:i + 6]) for i in range(6)]) == (0, [moments[0]])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_minors_stop_at_the_first_swap(self, raw):
        """On any integer matrix the list holds the leading minors through
        the last nonzero one before a zero one, and all m of them only when
        none before the last is 0."""
        rows = [[Fraction(v) for v in row] for row in raw]
        leading = [_cofactor_determinant([row[:k] for row in rows[:k]]) for k in range(1, 5)]
        det, minors = _integer_determinant([list(row) for row in raw])
        assert det == _cofactor_determinant(rows)
        zero = next((k for k, minor in enumerate(leading[:3]) if minor == 0), 3)
        assert minors == leading[:zero + (zero == 3)]

    def test_requires_deep_table(self):
        with pytest.raises(ValueError, match="through index 11"):
            hankel_positive_definite(bernoulli2_series(10), 6)

    @pytest.mark.parametrize("size", [0, -1])
    def test_rejects_empty_size(self, size):
        """A size below 1 names no matrix: a ValueError, not the empty
        elimination's IndexError."""
        with pytest.raises(ValueError, match="size must be >= 1"):
            hankel_positive_definite(bernoulli2_series(10), size)


class TestMajorization:
    def test_order_basics(self):
        assert is_majorized((1, 1), (2, 0))
        assert not is_majorized((2, 0), (1, 1))
        assert is_majorized((3, 2, 1), (4, 2, 0))
        assert not is_majorized((1, 1), (1, 2))   # unequal totals

    def test_zero_padding(self):
        """Shorter tuples are compared after zero padding."""
        assert is_majorized((0,), (0, 0))
        assert is_majorized((1,), (1, 0))
        assert is_majorized((1, 0), (1,))

    def test_inequality_hand_pairs(self, table31):
        """(1,1) against (2,0): 1/144 <= 1/24, and friends."""
        report = check_majorization_inequality(table31, (1, 1), (2, 0))
        assert report.passed
        report = check_majorization_inequality(table31, (2, 2), (1, 3))
        assert report.passed
        report = check_majorization_inequality(table31, (3, 3), (3, 3))
        assert report.passed   # equality case

    def test_cross_length_pairs_use_padding(self, table31):
        """(0,) against (0,0) is the padded equality case, not a violation."""
        report = check_majorization_inequality(table31, (0,), (0, 0))
        assert report.passed

    def test_rejects_non_majorized(self, table31):
        with pytest.raises(ValueError):
            check_majorization_inequality(table31, (2, 0), (1, 1))

    def test_entry_order_does_not_matter(self, table31):
        """Tuples are sorted before both the order test and the products."""
        assert is_majorized((0, 1, 2), (3, 0, 0)) and is_majorized((2, 1, 0), (0, 0, 3))
        assert (check_majorization_inequality(table31, (1, 2, 0), (0, 3, 0))
                == check_majorization_inequality(table31, (2, 1, 0), (3, 0, 0)))

    @pytest.mark.parametrize("bad", [(True,), (1.0,), (-1,), ()])
    def test_both_functions_validate_each_tuple(self, table31, bad):
        for lam, mu in ((bad, (1,)), ((1,), bad)):
            with pytest.raises(ValueError):
                is_majorized(lam, mu)
            with pytest.raises(ValueError):
                check_majorization_inequality(table31, lam, mu)

    def test_int_subclasses_are_indices(self, table31):
        class Index(int):
            pass

        assert is_majorized((Index(1), Index(1)), (2, 0))
        assert check_majorization_inequality(table31, (Index(1), 1), (Index(2),)).passed

    def test_exhaustive_sweep(self, table31):
        """Every majorizing pair with sizes <= 3, entries <= 6 passes."""
        tuples = [t for m in range(1, 4)
                  for t in combinations_with_replacement(range(7), m)]
        pairs = 0
        for lam in tuples:
            for mu in tuples:
                if not is_majorized(lam, mu):
                    continue
                pairs += 1
                report = check_majorization_inequality(table31, lam, mu)
                assert report.passed, f"violated at {lam} vs {mu}"
        assert pairs > 300


class TestClosedDerivative:
    """The closed form of f^(k) for f(x) = x/ln(1+x), as a Decimal and a double."""

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=-8.0, max_value=300.0).map(lambda e: 10.0 ** e),
           k=st.integers(1, 20))
    def test_double_is_the_decimal_rounded_once(self, x, k):
        assert closed_derivative(x, k) == float(closed_derivative_decimal(x, k))

    def test_bernstein_signs_hold_below_the_doubles(self):
        """(-1)**(k+1) f^(k)(x) > 0 on x = 1e-8..1e300 in steps of 1e4 for
        k <= 20, read from the Decimal also where the double rounds to 0.0."""
        underflowed = 0
        for e in range(-8, 301, 4):
            for k in range(1, 21):
                value = closed_derivative_decimal(10.0 ** e, k)
                assert value != 0 and value.is_signed() == (k % 2 == 0), (e, k)
                underflowed += float(value) == 0.0
        assert underflowed > 1000

    @pytest.mark.parametrize("x, k", [(0.0, 1), (-1.0, 1), (math.inf, 1), (math.nan, 1),
                                      (1.0, 0), (1.0, -2)])
    def test_rejects_bad_arguments(self, x, k):
        with pytest.raises(ValueError):
            closed_derivative_decimal(x, k)
        with pytest.raises(ValueError):
            closed_derivative(x, k)


def _doctored_table():
    """b_0..b_12 with b_4 scaled by 50: valid signs, broken inequalities."""
    values = list(bernoulli2_series(12).values)
    values[4] *= 50
    return GregoryTable(values=tuple(values), method=TableMethod.SERIES_RECURRENCE)


def _abs_moment_product(table, indices):
    return abs(math.prod(math.factorial(a) * table[a + 1] for a in indices))


class TestViolationEvidence:
    """On a doctored table the reported evidence is the defining value."""

    def test_majorization_evidence(self):
        table = _doctored_table()
        tuples = [t for m in range(1, 4) for t in combinations_with_replacement(range(6), m)]
        violations = 0
        for lam in tuples:
            for mu in tuples:
                if not is_majorized(lam, mu):
                    continue
                width = max(len(lam), len(mu))
                gap = (_abs_moment_product(table, lam + (0,) * (width - len(lam)))
                       - _abs_moment_product(table, mu + (0,) * (width - len(mu))))
                report = check_majorization_inequality(table, lam, mu)
                assert report.passed == (gap <= 0)
                if gap > 0:
                    violations += 1
                    assert report.first_violation == (0, 0, format_rational(gap))
        assert violations > 10

    def test_log_convexity_evidence(self):
        table = _doctored_table()
        gaps = [math.factorial(i) * table[i + 1] * math.factorial(i + 2) * table[i + 3]
                - (math.factorial(i + 1) * table[i + 2]) ** 2 for i in range(10)]
        i = next(i for i, gap in enumerate(gaps) if gap < 0)
        report = check_log_convexity(table)
        assert not report.passed
        assert report.first_violation == (0, i, format_rational(gaps[i]))


class TestLogConvexity:
    def test_hand_case(self, table31):
        """(2! b_3)(4! b_5) = 3/80 strictly exceeds (3! b_4)^2 = 361/14400."""
        lhs = math.factorial(2) * table31[3] * math.factorial(4) * table31[5]
        rhs = (math.factorial(3) * table31[4]) ** 2
        assert lhs == Fraction(3, 80)
        assert rhs == Fraction(361, 14400)
        assert lhs > rhs

    def test_full_sweep(self):
        report = check_log_convexity(bernoulli2_series(30))
        assert report.passed
        assert report.horizon == (30, 0)

    def test_needs_four_terms(self):
        with pytest.raises(ValueError):
            check_log_convexity(bernoulli2_series(2))

    @pytest.mark.parametrize("n_max", [3, 4, 5, 8, 12])
    def test_prefix_matches_a_table_built_to_n_max(self, n_max):
        """n_max reads a prefix of the table's own row: the same report as a
        table cut at n_max, also where the doctored b_4 breaks the prefix."""
        table = _doctored_table()
        prefix = GregoryTable(table.values[: n_max + 1], table.method)
        assert check_log_convexity(table, n_max) == check_log_convexity(prefix)
        assert check_log_convexity(bernoulli2_series(31), n_max) == \
            check_log_convexity(bernoulli2_series(n_max))

    @pytest.mark.parametrize("n_max", [2, 13])
    def test_prefix_stays_inside_the_table(self, n_max):
        with pytest.raises(ValueError):
            check_log_convexity(_doctored_table(), n_max)


class TestCmGrid:
    def test_exponential_passes(self):
        report = cm_grid_test(lambda x: math.exp(-x), (0.5, 1.0, 2.0), K=8, h=0.1)
        assert report.passed

    def test_one_minus_exp_ratio_passes(self):
        """(1 - e^-u)/u is completely monotonic."""
        report = cm_grid_test(lambda u: (1.0 - math.exp(-u)) / u,
                              (0.1, 1.0, 5.0), K=8, h=0.1)
        assert report.passed

    def test_logarithm_fails_at_first_order(self):
        """ln(1+x) increases, so the k = 1 signed difference is negative."""
        report = cm_grid_test(math.log1p, (1.0,), K=2, h=0.5)
        assert not report.passed
        assert report.first_violation[0] == 1

    def test_default_step_scales_with_point(self):
        """With h=None the sample window stays inside (0, 2x), so a
        function CM on all of (0, inf) passes even at tiny grid points."""
        report = cm_grid_test(lambda x: 1.0 / x, (1e-3, 1.0), K=4)
        assert report.passed

    def test_evaluation_error_carries_abscissa(self):
        def bad(x: float) -> float:
            return math.nan if x > 1.2 else 1.0

        with pytest.raises(IntegrandEvaluationError) as exc_info:
            cm_grid_test(bad, (1.0,), K=4, h=0.1)
        assert exc_info.value.abscissa > 1.2

    def test_validations(self):
        with pytest.raises(ValueError):
            cm_grid_test(math.exp, (), K=2)
        with pytest.raises(ValueError):
            cm_grid_test(math.exp, (0.0,), K=2)
        with pytest.raises(ValueError):
            cm_grid_test(math.exp, (1.0,), K=-1)
        with pytest.raises(ValueError):
            cm_grid_test(math.exp, (1.0,), K=2, h=0.0)
        with pytest.raises(ValueError):
            cm_grid_test(math.exp, (1.0,), K=2, slack=-1e-9)


class TestDegreeBracket:
    def test_generating_function_bracket(self):
        """x**r (x/ln(1+x)) passes at r = -1 and fails already at r = -1/2."""
        bracket = estimate_cm_degree(lambda x: x / math.log1p(x),
                                     (-1.0, -0.5, 0.0), (0.25, 1.0, 4.0, 16.0))
        assert bracket.last_pass == -1.0
        assert bracket.first_fail == -0.5

    def test_log_ratio_bracket(self):
        """ln(1+x)/x passes unweighted and fails at r = 1/2."""
        bracket = estimate_cm_degree(lambda x: math.log1p(x) / x,
                                     (0.0, 0.5, 1.0), (0.25, 1.0, 4.0, 16.0))
        assert bracket.last_pass == 0.0
        assert bracket.first_fail == 0.5

    def test_never_failing_scan(self):
        bracket = estimate_cm_degree(lambda x: math.exp(-x), (0.0,),
                                     (0.5, 1.0, 2.0))
        assert bracket.last_pass == 0.0
        assert bracket.first_fail is None

    def test_rejects_bad_r_grid(self):
        with pytest.raises(ValueError):
            estimate_cm_degree(math.exp, (), (1.0,))
        with pytest.raises(ValueError):
            estimate_cm_degree(math.exp, (1.0, 0.5), (1.0,))

    def test_one_shot_grid_matches_tuple(self):
        """Every exponent reads the grid, so a generator must work too."""
        f, r_grid, grid = (lambda x: math.log1p(x) / x), (0.0, 0.5, 1.0), (0.25, 1.0, 4.0)
        assert (estimate_cm_degree(f, r_grid, (x for x in grid))
                == estimate_cm_degree(f, r_grid, grid))


class TestBernsteinScreen:
    def test_quadrature_generating_function_passes(self):
        """x/ln(1+x) is nonnegative with a completely monotonic derivative,
        checked end to end through the quadrature representations."""
        report = check_bernstein(
            lambda x: genfun_integral(x, 1e-9).value,
            lambda x: genfun_derivative_integral(x, 1, 1e-9).value,
            (0.25, 1.0, 4.0), K=6, slack=1e-6)
        assert report.passed

    def test_canonical_bernstein_function_passes(self):
        report = check_bernstein(lambda x: 1.0 - math.exp(-x),
                                 lambda x: math.exp(-x),
                                 (0.5, 1.0, 2.0), K=6)
        assert report.passed

    def test_square_fails(self):
        """x**2 is nonnegative but its derivative 2x is not CM."""
        report = check_bernstein(lambda x: x * x, lambda x: 2.0 * x,
                                 (0.5, 1.0), K=4)
        assert not report.passed
        assert report.first_violation[0] == 2   # second derivative order

    def test_negative_function_fails_at_order_zero(self):
        report = check_bernstein(lambda x: -1.0, lambda x: 0.0, (1.0,), K=2)
        assert not report.passed
        assert report.first_violation == (0, 0, "-1/1")

    def test_evaluation_error_propagates(self):
        with pytest.raises(IntegrandEvaluationError):
            check_bernstein(lambda x: math.inf, lambda x: 0.0, (1.0,), K=2)

    @pytest.mark.parametrize("f, f_prime, grid", [
        (lambda x: 1.0 - math.exp(-x), lambda x: math.exp(-x), (0.5, 1.0, 2.0)),
        (lambda x: x * x, lambda x: 2.0 * x, (0.5, 1.0)),
        (lambda x: 1.0 - x, lambda x: -1.0, (0.5, 2.0)),
    ], ids=["passes", "fails-on-f-prime", "fails-on-f"])
    def test_one_shot_grid_matches_tuple(self, f, f_prime, grid):
        """The grid is read twice (f, then f'), so a generator must work too."""
        from_tuple = check_bernstein(f, f_prime, grid, K=4)
        assert check_bernstein(f, f_prime, (x for x in grid), K=4) == from_tuple


class TestShiftedKernelDeterminants:
    def test_passes_at_half(self):
        report = check_shifted_kernel_determinants(0.5)
        assert report.passed

    def test_passes_at_one(self):
        report = check_shifted_kernel_determinants(1.0)
        assert report.passed

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_shifted_kernel_determinants(-1.0)

    def test_violation_carries_the_exact_determinant(self, monkeypatch):
        """Entries h_1..h_5 = 0.1, 0.3, 0.1, 0.1, 0.1 make the plain 2x2
        determinant of tuple (0, 1), index 4 of the sweep, negative:
        0.1 * (2 * 0.1) - 0.3**2, evaluated exactly on the binary rationals."""
        values = {1: 0.1, 2: 0.3, 3: 0.1, 4: 0.1, 5: 0.1}
        calls = []

        def stub(n, x, tol):
            calls.append((n, x, tol))
            return QuadratureResult(values[n], 0.0, 1, True)

        monkeypatch.setattr(gregory.properties, "shifted_kernel_integral", stub)
        report = check_shifted_kernel_determinants(0.5, tol=1e-9)
        assert report.suite_name == "kernel-determinants"
        assert report.horizon == (8, 1)
        assert report.first_violation == (
            0, 4, "-45432597512179735985034319846441/649037107316853453566312041152512")
        assert sorted(set(calls)) == [(n, 0.5, 1e-9) for n in (1, 2, 3, 5)]

    def test_one_determinant_per_tuple(self, monkeypatch):
        """The sign-prefixed matrix D M D has M's determinant, so each of
        the 9 tuples is one Bareiss elimination."""
        real, calls = gregory.properties.bareiss_determinant, []

        def counting(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(gregory.properties, "bareiss_determinant", counting)
        assert check_shifted_kernel_determinants(0.5).passed
        assert len(calls) == 9


_DOMAIN_CHECKS = [
    ("genfun", genfun_integral, "x must be positive"),
    ("recip-log", stieltjes_recip_log, "x must be positive"),
    ("bernstein-identity", bernstein_identity, "x must be positive"),
    ("derivative", lambda v: genfun_derivative_integral(v, 1), "x must be >= 0"),
    ("shifted-kernel", lambda v: shifted_kernel_integral(1, v), "x must be >= 0"),
    ("weight", stieltjes_weight, "w is defined for t > 1"),
    ("kernel-determinants", check_shifted_kernel_determinants, "x must be >= 0"),
    ("cm-grid", lambda v: cm_grid_test(math.exp, (1.0, v)), "grid points must be positive"),
    ("bernstein", lambda v: check_bernstein(lambda x: 1.0, lambda x: 0.0, (v,)),
     "grid points must be positive"),
    ("degree", lambda v: estimate_cm_degree(math.exp, (0.0,), (v,)),
     "grid points must be positive"),
    # control arguments: NaN fails no plain comparison, so each check is a range test
    ("cm-grid-slack", lambda v: cm_grid_test(math.log1p, (1.0,), K=2, h=0.5, slack=v),
     "slack must be >= 0 and finite"),
    ("cm-grid-step", lambda v: cm_grid_test(math.log1p, (1.0,), K=2, h=v),
     "step h must be positive and finite"),
    ("bernstein-slack",
     lambda v: check_bernstein(lambda x: -1.0, lambda x: x, (1.0,), K=2, slack=v),
     "slack must be >= 0 and finite"),
    ("degree-exponent", lambda v: estimate_cm_degree(math.exp, (-1.0, v, 0.0), (1.0,)),
     "r_grid entries must be finite"),
]


# The kernel-backed functions' rejections keep every quadrature term finite,
# so the engine sums without a rescan.  w(inf) = 0 is the limit of the
# weight, so only the NaN case applies to it.
@pytest.mark.parametrize("call, message, bad", [
    pytest.param(call, message, math.nan, id=name) for name, call, message in _DOMAIN_CHECKS
] + [
    pytest.param(call, message, math.inf, id=f"{name}-inf")
    for name, call, message in _DOMAIN_CHECKS if name != "weight"
])
def test_nan_argument_gets_the_domain_error(call, message, bad):
    """A NaN or infinite argument fails each function's own domain check,
    not a later one."""
    with pytest.raises(ValueError, match=message):
        call(bad)

"""Property checks: difference tables, CM reports, determinants, screens."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gregory import (
    CmReport,
    DeterminantVariant,
    IntegrandEvaluationError,
    bareiss_determinant,
    bernoulli2_series,
    check_bernstein,
    check_cm_sequence,
    check_log_convexity,
    check_majorization_inequality,
    check_minimality_perturbation,
    check_shifted_kernel_determinants,
    cm_grid_test,
    estimate_cm_degree,
    format_rational,
    genfun_derivative_integral,
    genfun_integral,
    hankel_determinant,
    is_majorized,
    signed_moment_sequence,
)
from gregory.quadrature import DEFAULT_MAX_LEVELS, _integrate_transformed

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
        the tanh-sinh variables, with d = y**2 + pi**2 a node column;
        summed by the engine itself, it keeps the 1/(s ln(s)**2) tail that
        integrate_01 cuts at the smallest normal s.
        """
        table = difference_table(signed_moment_sequence(table31), 30)
        for k in range(31):
            got = _integrate_transformed(
                lambda sig, sigc, jac, d: [j * c ** (k + 1) / e
                                           for c, j, e in zip(sigc, jac, d)],
                1e-15, DEFAULT_MAX_LEVELS)
            assert abs(got.value - float(table.alternating(k, 0))) <= 1e-14, k


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
        """Exhaustive sweep: sizes <= 4, entries <= 5, both variants."""
        tuples = [t for m in range(1, 5)
                  for t in combinations_with_replacement(range(6), m)]
        assert len(tuples) == 209
        for indices in tuples:
            plain = hankel_determinant(table31, indices, DeterminantVariant.PLAIN)
            signed = hankel_determinant(table31, indices, DeterminantVariant.SIGNED)
            assert plain == signed
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
        with pytest.raises(ValueError):
            check_shifted_kernel_determinants(1.0, n=0)
        with pytest.raises(ValueError):
            check_shifted_kernel_determinants(1.0, m_max=0)

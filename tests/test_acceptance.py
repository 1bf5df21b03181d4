"""Acceptance gate: one test per commissioned criterion, run in order.

Every numbered requirement this package was commissioned against gets
exactly one test below, asserted as stated and printed as a single
ACCEPTANCE line when it holds.  Two of the commissioned expectations are
contradicted by exact arithmetic and are deliberately left failing rather
than loosened:

* criterion 4a pins the (0,1,2) determinant to 857/86400, while exact
  fraction-free elimination of the commissioned matrix gives 407/86400;
* criterion 6b expects the epsilon = 1/10 perturbation to break complete
  monotonicity within the first 30 differences, but the smallest signed
  difference at that horizon is still about 0.1211 > 0 (the first
  violation is at k = 10,198).

README.md carries the analysis.  The neighboring 4b/6a tests pin the
parts of those criteria that exact computation does support.
"""

import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from gregory import (
    DeterminantVariant,
    bernoulli2_explicit,
    bernoulli2_integral,
    bernoulli2_series,
    bernstein_identity,
    check_bernstein,
    check_cm_sequence,
    check_log_convexity,
    check_majorization_inequality,
    check_minimality_perturbation,
    genfun_derivative_integral,
    genfun_integral,
    hankel_determinant,
    is_majorized,
    signed_moment_sequence,
    stieltjes_recip_log,
)
from gregory.exact import NestedSumMemo

RESIDUAL_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)


def _record(number: str, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


class TestAcceptanceGate:
    def test_criterion_01_series_golden(self):
        """First six coefficients come out exactly right, in under 1 s."""
        start = time.perf_counter()
        table = bernoulli2_series(5)
        elapsed = time.perf_counter() - start
        assert table.values == (
            Fraction(1), Fraction(1, 2), Fraction(-1, 12),
            Fraction(1, 24), Fraction(-19, 720), Fraction(3, 160))
        assert elapsed < 1.0
        _record("1", "series golden values")

    def test_criterion_02_explicit_matches_series(self):
        """The nested-sum formula reproduces the recurrence for n = 2..30."""
        start = time.perf_counter()
        table = bernoulli2_series(30)
        memo = NestedSumMemo()
        for n in range(2, 31):
            assert bernoulli2_explicit(n, memo) == table[n], f"n={n}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _record("2", "explicit formula equals recurrence")

    def test_criterion_03_integral_matches_exact(self):
        """Signed quadrature values agree with the exact table, n = 1..20,
        to 1e-10 relative with a 1e-14 absolute floor, in under 30 s."""
        start = time.perf_counter()
        table = bernoulli2_series(20)
        for n in range(1, 21):
            exact = float(table[n])
            result = bernoulli2_integral(n, 1e-10)
            assert result.converged, f"n={n}"
            bound = max(1e-10 * abs(exact), 1e-14)
            assert abs(result.value - exact) <= bound, f"n={n}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        _record("3", "integral representation matches exact")

    def test_criterion_04a_hankel_golden_as_commissioned(self, table31):
        """The commissioned golden value for the (0,1,2) determinant.

        Exact arithmetic contradicts this number: fraction-free
        elimination of the commissioned factorial-moment matrix yields
        407/86400 in both variants.  The assertion is kept as handed to
        us and left red; see the module docstring and README.md.
        """
        expected = Fraction(857, 86400)
        plain = hankel_determinant(table31, (0, 1, 2), DeterminantVariant.PLAIN)
        signed = hankel_determinant(table31, (0, 1, 2), DeterminantVariant.SIGNED)
        assert plain == expected and signed == expected, (
            "commissioned golden value 857/86400 is not reproducible: "
            f"exact elimination gives {plain} (both variants agree); "
            "the matrix behind the commissioned number appears to carry "
            "3/5 in its corner where 4! b_5 = 9/20 belongs")
        _record("4a", "hankel golden value as commissioned")

    def test_criterion_04b_hankel_sweep_nonnegative(self, table31):
        """All determinants with m <= 4, entries <= 5 are >= 0 exactly,
        identically in both variants."""
        tuples = [t for m in range(1, 5)
                  for t in combinations_with_replacement(range(6), m)]
        for indices in tuples:
            plain = hankel_determinant(table31, indices, DeterminantVariant.PLAIN)
            signed = hankel_determinant(table31, indices, DeterminantVariant.SIGNED)
            assert plain == signed, f"indices={indices}"
            assert plain >= 0, f"indices={indices}"
        _record("4b", "hankel sweep nonnegative")

    def test_criterion_05_log_convexity(self, table31):
        """Golden i = 2 comparison 3/80 >= 361/14400, plus the full sweep."""
        lhs = math.factorial(2) * table31[3] * math.factorial(4) * table31[5]
        rhs = (math.factorial(3) * table31[4]) ** 2
        assert lhs == Fraction(3, 80)
        assert rhs == Fraction(361, 14400)
        assert lhs >= rhs
        report = check_log_convexity(bernoulli2_series(30))
        assert report.passed
        _record("5", "log-convexity")

    def test_criterion_06a_cm_sequence(self, table31):
        """The signed coefficient sequence is completely monotonic, exactly,
        out to thirty differences."""
        report = check_cm_sequence(signed_moment_sequence(table31))
        assert report.passed
        assert report.horizon == (30, 30)
        _record("6a", "complete monotonicity")

    def test_criterion_06b_minimality_violation_at_tenth(self, table31):
        """Perturbing the leading term down by 1/10 is commissioned to break
        monotonicity within the horizon.

        It does not: the signed differences at offset zero decay like
        1/ln k, the smallest of them within thirty differences is about
        0.2211, and subtracting 1/10 leaves 0.1211 > 0.  A violation first
        appears at k = 10,198, far beyond any tractable exact horizon.
        Kept as commissioned and left red; see README.md.
        """
        report = check_minimality_perturbation(
            signed_moment_sequence(table31), Fraction(1, 10))
        assert report.passed, (
            "no violation within horizon 30 at epsilon = 1/10: the minimum "
            "signed difference there is about 0.2211 - 0.1 = 0.1211 > 0; "
            "the probe reports inconclusive, not a witnessed violation")
        assert report.first_violation is not None
        _record("6b", "minimality perturbation witnesses violation")

    def test_criterion_07_majorization_exhaustive(self, table31):
        """Every majorizing pair with m <= 3, entries <= 6 satisfies the
        factorial-moment product inequality exactly."""
        tuples = [t for m in range(1, 4)
                  for t in combinations_with_replacement(range(7), m)]
        checked = 0
        for lam in tuples:
            for mu in tuples:
                if not is_majorized(lam, mu):
                    continue
                report = check_majorization_inequality(table31, lam, mu)
                assert report.passed, f"{lam} vs {mu}"
                checked += 1
        assert checked > 300
        _record("7", "majorization product inequality")

    def test_criterion_08_quadrature_residuals(self, table31):
        """Quadrature matches the closed forms 1/ln(1+x) and x/ln(1+x)
        within 1e-8 across the residual grid, and the derivative integral
        at x = 0 matches k! b_k within 1e-9 relative for k <= 12."""
        for x in RESIDUAL_GRID:
            assert abs(stieltjes_recip_log(x, 1e-10).value
                       - 1.0 / math.log1p(x)) <= 1e-8, f"recip-log x={x}"
            assert abs(genfun_integral(x, 1e-10).value
                       - x / math.log1p(x)) <= 1e-8, f"genfun x={x}"
        for k in range(1, 13):
            reference = float(math.factorial(k) * table31[k])
            tol = max(1e-9 * abs(reference), 1e-15)
            value = genfun_derivative_integral(0.0, k, tol).value
            assert abs(value - reference) <= 1e-9 * abs(reference), f"k={k}"
        _record("8", "closed-form residuals")

    def test_criterion_09_bernstein(self):
        """The pointwise identity holds to 1e-10 and the grid screen passes."""
        for x in (0.5, 1.0, math.exp(2.0) - 1.0):
            assert abs(bernstein_identity(x, 1e-10).value
                       - x / math.log1p(x)) <= 1e-10, f"x={x}"
        report = check_bernstein(
            lambda x: genfun_integral(x, 1e-9).value,
            lambda x: genfun_derivative_integral(x, 1, 1e-9).value,
            (0.25, 1.0, 4.0), K=6, slack=1e-6)
        assert report.passed
        _record("9", "bernstein identity and screen")

    def test_criterion_10_degree_screens(self):
        """1/ln(1+x) and ln(1+x)/x pass the CM grid screen, ln(1+x) itself
        fails it, and (1 - e^-u)/u passes."""
        from gregory import cm_grid_test

        grid = (0.25, 1.0, 4.0, 16.0)
        assert cm_grid_test(lambda x: 1.0 / math.log1p(x), grid, K=8).passed
        assert cm_grid_test(lambda x: math.log1p(x) / x, grid, K=8).passed
        failing = cm_grid_test(math.log1p, (1.0,), K=2, h=0.5)
        assert not failing.passed
        assert cm_grid_test(lambda u: (1.0 - math.exp(-u)) / u,
                            (0.1, 1.0, 5.0), K=8, h=0.1).passed
        _record("10", "degree screens")

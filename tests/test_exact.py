"""Exact layer: recurrence, chain sums, explicit formula, table type."""

import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gregory import exact
from gregory import (
    GregoryTable,
    TableMethod,
    a_coefficient,
    bernoulli2_explicit,
    bernoulli2_explicit_table,
    bernoulli2_series,
    format_rational,
    nested_sum,
    signed_moment_sequence,
)
from gregory.exact import (_division_plan, _explicit_brackets, _series_numerators,
                           _stirling_row)


class TestSeriesRecurrence:
    def test_golden_values(self, golden_values):
        """The first nine coefficients match the hand-checked table."""
        assert bernoulli2_series(8).values == golden_values

    def test_single_entry_table(self):
        """n_max = 0 yields just b_0 = 1."""
        assert bernoulli2_series(0).values == (Fraction(1),)

    def test_sign_alternation(self):
        """b_n carries sign (-1)**(n+1) for every n >= 1."""
        table = bernoulli2_series(40)
        for n in range(1, 41):
            assert (table[n] > 0) == (n % 2 == 1)

    def test_magnitudes_strictly_decrease(self, table31):
        """|b_n| is strictly decreasing from n = 1 on."""
        for n in range(1, table31.max_index):
            assert abs(table31[n + 1]) < abs(table31[n])

    def test_partial_sums_approach_generating_function(self, table31):
        """sum b_n x**n at x = 1/2 approaches (1/2)/ln(3/2)."""
        x = 0.5
        acc = sum(float(table31[n]) * x**n for n in range(table31.max_index + 1))
        assert abs(acc - x / math.log1p(x)) < 1e-9

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            bernoulli2_series(-1)

    def test_method_label(self):
        assert bernoulli2_series(3).method is TableMethod.SERIES_RECURRENCE


def _fraction_series(n_max):
    """b_0..b_{n_max} from b_n = -sum_{k=1}^{n} (-1)**k b_{n-k}/(k+1) in plain Fractions."""
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        b.append(-sum(Fraction((-1) ** k, k + 1) * b[n - k] for k in range(1, n + 1)))
    return tuple(b)


class TestDivisionPlan:
    @pytest.mark.parametrize("n_max", [1, 2, 20, 255, 256, 1000])
    def test_runs_cover_the_divisors_once_in_order(self, n_max):
        """The runs, read in order, are exactly 2..N+1 with no gap or repeat."""
        runs = [run for run, _ in _division_plan(n_max)]
        assert all(len(run) > 0 and run.step == 1 for run in runs)
        assert [d for run in runs for d in run] == list(range(2, n_max + 2))

    @pytest.mark.parametrize("n_max", [1, 2, 20, 255, 256, 1000])
    def test_modulus_is_the_runs_lcm_below_one_digit(self, n_max):
        for run, modulus in _division_plan(n_max):
            assert modulus == math.lcm(*run) and modulus < 2**30, run

    def test_runs_are_greedy(self):
        """Each run stops only where its next divisor would push the lcm to 2**30."""
        plan = _division_plan(1000)
        for (run, modulus), (after, _) in zip(plan, plan[1:]):
            assert math.lcm(modulus, after.start) >= 2**30, run

    def test_no_runs_without_divisors(self):
        assert _division_plan(0) == []

    @pytest.mark.parametrize("n_max", [0, 1, 2, 20, 60, 255, 256, 400])
    def test_every_term_divides_at_the_head(self, n_max):
        """The head is (N+1)! lcm(1..N+1), and there k + 1 divides x_j for every j + k <= N,
        so each run's sum is a multiple of its lcm and the floor division is exact."""
        x, head = _series_numerators(n_max)
        assert head == math.factorial(n_max + 1) * math.lcm(*range(1, n_max + 2))
        for j in range(n_max + 1):
            assert all(x[j] % (k + 1) == 0 for k in range(1, n_max - j + 1)), j

    def test_series_at_every_run_boundary(self):
        """At each N <= 300 where a run begins or ends, the last run of N's
        plan is a single divisor or a whole run; the series matches the
        explicit table there."""
        reference = bernoulli2_explicit_table(300).values
        boundaries = {n for run, _ in _division_plan(300) for n in (run.start - 1, run.stop - 2)}
        assert len(boundaries) > 100
        for n_max in sorted(boundaries):
            assert bernoulli2_series(n_max).values == reference[:n_max + 1], n_max

    def test_series_at_n_1000(self):
        """The N = 1000 table (307 runs, of 2 or 3 divisors near its end) is the explicit one."""
        assert bernoulli2_series(1000).values == bernoulli2_explicit_table(1000).values

    def test_matches_plain_fraction_recurrence(self):
        """Every table up to N = 60 equals the recurrence run on Fractions."""
        reference = _fraction_series(60)
        for n_max in range(61):
            assert bernoulli2_series(n_max).values == reference[:n_max + 1], n_max


class TestGregoryTable:
    def test_max_index_and_getitem(self, golden_values):
        table = bernoulli2_series(8)
        assert table.max_index == 8
        assert table[5] == golden_values[5]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GregoryTable(values=(), method=TableMethod.SERIES_RECURRENCE)

    def test_rejects_wrong_leading_value(self):
        with pytest.raises(ValueError):
            GregoryTable(values=(Fraction(2),), method=TableMethod.SERIES_RECURRENCE)

    def test_rejects_wrong_second_value(self):
        with pytest.raises(ValueError):
            GregoryTable(values=(Fraction(1), Fraction(1, 3)),
                         method=TableMethod.SERIES_RECURRENCE)

    def test_rejects_broken_sign_pattern(self):
        """b_2 must be negative; a positive value is rejected at construction."""
        with pytest.raises(ValueError):
            GregoryTable(values=(Fraction(1), Fraction(1, 2), Fraction(1, 12)),
                         method=TableMethod.SERIES_RECURRENCE)

    @pytest.mark.parametrize("n, value", [(0, 1.0), (1, 0.5), (3, 1 / 24),
                                          (4, Decimal("-0.025"))])
    def test_rejects_an_inexact_value_by_index(self, golden_values, n, value):
        """A float or a Decimal is no exact rational: a ValueError naming
        the first such b_n, also where it equals the exact value."""
        values = list(golden_values[:6])
        values[n] = value
        with pytest.raises(ValueError, match=rf"^b_{n} must be an exact rational "
                                             rf"\(int or Fraction\), got {re.escape(repr(value))}$"):
            GregoryTable(values=tuple(values), method=TableMethod.SERIES_RECURRENCE)

    def test_rejects_a_table_of_floats_at_b_0(self, golden_values):
        with pytest.raises(ValueError, match=r"^b_0 must be an exact rational"):
            GregoryTable(values=tuple(map(float, golden_values)),
                         method=TableMethod.SERIES_RECURRENCE)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("change", ["negate", "zero"])
    def test_rejects_each_wrong_sign_by_index(self, golden_values, n, change):
        """A flipped or zero b_n is named by its index, on odd and even n."""
        values = list(golden_values[:9])
        values[n] = -values[n] if change == "negate" else Fraction(0)
        with pytest.raises(ValueError, match=rf"^sign of b_{n} violates"):
            GregoryTable(values=tuple(values), method=TableMethod.SERIES_RECURRENCE)


class TestFactorialMoments:
    @pytest.mark.parametrize("build", [bernoulli2_series, bernoulli2_explicit_table])
    def test_row_is_the_factorial_moments(self, build):
        """m[s] / D == s! b_{s+1} exactly, for every s < N and N <= 40."""
        for n_max in range(41):
            table = build(n_max)
            row, den = table.factorial_moments
            assert all(type(v) is int for v in row) and type(den) is int and den > 0
            assert [Fraction(v, den) for v in row] == [
                math.factorial(s) * table[s + 1] for s in range(n_max)]

    def test_b0_only_table_has_an_empty_row(self):
        assert bernoulli2_series(0).factorial_moments == ((), 1)

    def test_row_is_cached_and_immutable(self):
        table = bernoulli2_series(12)
        row, _ = table.factorial_moments
        assert table.factorial_moments[0] is row
        assert isinstance(row, tuple)


class TestRationalSerialization:
    def test_integers_keep_denominator(self):
        """Whole numbers serialize with an explicit /1."""
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(0)) == "0/1"

    def test_golden_strings(self, golden_values):
        assert format_rational(golden_values[4]) == "-19/720"

    @given(st.fractions())
    def test_round_trip(self, q):
        """Fraction parses what format_rational writes back to the same rational."""
        assert Fraction(format_rational(q)) == q

    def test_parts_past_the_int_string_limit(self):
        """Parts of more than 4,300 digits, where str() of an int raises,
        are written with every digit (b_1552 is the first coefficient there)."""
        q = Fraction(-(10 ** 5000 + 3), 10 ** 4400 - 1)
        assert (q.numerator, q.denominator) == (-(10 ** 5000 + 3), 10 ** 4400 - 1)
        assert format_rational(q) == "-1" + "0" * 4999 + "3/" + "9" * 4400
        num, den = format_rational(q).split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == q


def _brute_chain_sum(m, d):
    """S(m, d) straight from its definition: every d-subset of 1..m."""
    return sum((Fraction(1, math.prod(chain)) for chain in combinations(range(1, m + 1), d)),
               Fraction(0))


class TestNestedSums:
    def test_hand_values(self):
        """S(2,1) = 1/2 + 1 = 3/2, S(3,1) = 11/6, S(3,2) = 1."""
        assert nested_sum(2, 1) == Fraction(3, 2)
        assert nested_sum(3, 1) == Fraction(11, 6)
        assert nested_sum(3, 2) == Fraction(1)

    def test_empty_chain_convention(self):
        for m in range(6):
            assert nested_sum(m, 0) == 1

    def test_chains_deeper_than_range_vanish(self):
        assert nested_sum(3, 4) == 0
        assert nested_sum(0, 1) == 0

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            nested_sum(-1, 0)
        with pytest.raises(ValueError):
            nested_sum(2, -1)

    def test_matches_definition(self):
        """The Stirling rows reproduce the chain sums by enumeration."""
        for m in range(10):
            for d in range(m + 2):
                assert nested_sum(m, d) == _brute_chain_sum(m, d), (m, d)

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=25))
    def test_split_on_leading_element(self, m, d):
        """S(m,d) = S(m-1,d) + (1/m) S(m-1,d-1): chains split on whether they start at m."""
        assert nested_sum(m, d) == nested_sum(m - 1, d) + Fraction(1, m) * nested_sum(m - 1, d - 1)


class TestExplicitCoefficients:
    def test_second_column_is_factorial(self):
        """a(n, 2) = (n-1)! including the degenerate a(1, 2) = 1."""
        for n in range(1, 7):
            assert a_coefficient(n, 2) == math.factorial(n - 1)

    def test_hand_values(self):
        assert a_coefficient(2, 2) == 1
        assert a_coefficient(2, 3) == 2
        assert a_coefficient(3, 2) == 2
        assert a_coefficient(3, 3) == 6

    def test_diagonal_is_factorial(self):
        """a(n, n+1) = n! (i-1)! S(n-1, n-1) collapses to the full chain product."""
        for n in range(1, 8):
            assert a_coefficient(n, n + 1) == math.factorial(n)

    def test_matches_definition(self):
        """a(n, i) = (i-1)! (n-1)! S(n-1, i-2) with S enumerated directly."""
        for n in range(1, 9):
            for i in range(2, n + 2):
                expected = (math.factorial(i - 1) * math.factorial(n - 1)
                            * _brute_chain_sum(n - 1, i - 2))
                assert a_coefficient(n, i) == expected, (n, i)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            a_coefficient(3, 1)
        with pytest.raises(ValueError):
            a_coefficient(3, 5)
        with pytest.raises(ValueError):
            a_coefficient(0, 2)


class TestExplicitFormula:
    def test_hand_values(self):
        assert bernoulli2_explicit(2) == Fraction(-1, 12)
        assert bernoulli2_explicit(3) == Fraction(1, 24)
        assert bernoulli2_explicit(4) == Fraction(-19, 720)

    def test_agrees_with_recurrence_through_30(self):
        """The two exact algorithms agree index by index."""
        series = bernoulli2_series(30)
        for n in range(2, 31):
            assert bernoulli2_explicit(n) == series[n]

    def test_formula_as_printed_through_30(self):
        """(-1)**n/n! [1/(n+1) + sum_{k=2}^{n} (a(n, k) - n a(n-1, k))/k!],
        summed from a_coefficient as the paper prints it, is b_n by both the
        moment walk and the series recurrence."""
        series = bernoulli2_series(30)
        for n in range(2, 31):
            bracket = Fraction(1, n + 1) + sum(
                (a_coefficient(n, k) - n * a_coefficient(n - 1, k)) / math.factorial(k)
                for k in range(2, n + 1))
            printed = (-1) ** n * bracket / math.factorial(n)
            assert printed == bernoulli2_explicit(n) == series[n], n

    def test_rejects_low_index(self):
        """The closed formula starts at n = 2."""
        with pytest.raises(ValueError):
            bernoulli2_explicit(1)
        with pytest.raises(ValueError):
            bernoulli2_explicit(0)

    def test_table_fills_low_indices_with_constants(self):
        assert bernoulli2_explicit_table(1).values == (Fraction(1), Fraction(1, 2))
        assert bernoulli2_explicit_table(0).values == (Fraction(1),)

    def test_table_method_label(self):
        assert bernoulli2_explicit_table(4).method is TableMethod.EXPLICIT_FORMULA

    def test_tables_equal_across_methods(self, table31):
        assert bernoulli2_explicit_table(12).values == table31.values[:13]

    def test_tables_equal_at_300(self):
        """The two integer-only table builders agree index by index at N = 300."""
        assert bernoulli2_series(300).values == bernoulli2_explicit_table(300).values

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    @example(0)
    @example(1)
    @example(2)
    @example(200)
    def test_tables_equal_up_to_200(self, n_max):
        """Division-free walk and dividing recurrence agree at every N <= 200."""
        assert bernoulli2_explicit_table(n_max).values == bernoulli2_series(n_max).values

    def test_single_coefficient_builds_one_fraction(self, monkeypatch):
        """bernoulli2_explicit(n) builds b_n alone, not the table's n+1 Fractions."""
        expected = bernoulli2_series(40)[40]
        built = []

        def counting_fraction(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(exact, "Fraction", counting_fraction)
        assert bernoulli2_explicit(40) == expected
        assert len(built) == 1


class TestMomentWalk:
    def test_matches_the_stirling_difference_bracket(self):
        """The walk's K_n(0) is the explicit formula's integer bracket,
        (-1)**n sum_{k=2}^{n+1} (|s(n-1,k-2)| - |s(n-1,k-1)|) L/k, for 2 <= n <= 80."""
        brackets, lcm = _explicit_brackets(80)
        assert len(brackets) == 81 and lcm == math.lcm(*range(1, 82))
        for n in range(2, 81):
            row = _stirling_row(n - 1) + [0]            # |s(n-1, 0..n)|
            bracket = sum((row[k - 2] - row[k - 1]) * (lcm // k) for k in range(2, n + 2))
            assert brackets[n] == (-1) ** n * bracket, n


class TestSignedMoments:
    def test_values_shift_and_sign(self):
        """mu_n = (-1)**n b_{n+1} is the all-positive shifted sequence."""
        mu = signed_moment_sequence(bernoulli2_series(4))
        assert mu == (Fraction(1, 2), Fraction(1, 12), Fraction(1, 24), Fraction(19, 720))

    def test_all_positive(self, table31):
        assert all(m > 0 for m in signed_moment_sequence(table31))

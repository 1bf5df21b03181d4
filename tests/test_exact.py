"""Exact layer: recurrence, chain sums, explicit formula, table type."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


class TestSignedMoments:
    def test_values_shift_and_sign(self):
        """mu_n = (-1)**n b_{n+1} is the all-positive shifted sequence."""
        mu = signed_moment_sequence(bernoulli2_series(4))
        assert mu == (Fraction(1, 2), Fraction(1, 12), Fraction(1, 24), Fraction(19, 720))

    def test_all_positive(self, table31):
        assert all(m > 0 for m in signed_moment_sequence(table31))

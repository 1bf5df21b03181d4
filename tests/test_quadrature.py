"""Quadrature engine: golden integrals, closed forms, substitution consistency."""

import math
import concurrent.futures
from fractions import Fraction

import pytest
from scipy import integrate as scipy_integrate

from gregory import (
    IntegrandEvaluationError,
    QuadratureResult,
    bernoulli2_integral,
    bernoulli2_series,
    bernstein_identity,
    genfun_derivative_integral,
    genfun_integral,
    integrate_01,
    moment_integral,
    shifted_kernel_integral,
    stieltjes_recip_log,
    stieltjes_weight,
    stieltjes_weight_unit,
)

RESIDUAL_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)


def _ray_integrand(t: float, n: int) -> float:
    lg = math.log(t - 1.0)
    return 1.0 / ((lg * lg + math.pi ** 2) * t ** n)


def _coefficient_integral_exp_map(n: int, h: float = 0.0625):
    """Independent unsigned coefficient integral under a different map.

    Substituting t = 1 + exp(u) sends the ray integral to the whole
    line with integrand exp(u - n ln(1+exp(u))) / (u^2 + pi^2); the
    double-exponential map u = sinh((pi/2) sinh(tau)) then makes the
    trapezoid rule converge fast.  The exponent is assembled in log
    space so large n cannot overflow.  Returns (value, own estimate),
    the estimate being the difference against a half-resolution pass.
    """
    def log_weight(u: float) -> float:
        # u - n*ln(1+e^u), stable on both sides
        if u > 0.0:
            return (1.0 - n) * u - n * math.log1p(math.exp(-u))
        return u - n * math.log1p(math.exp(u))

    def one_pass(step: float) -> float:
        total = 0.0
        j = 0
        while True:
            tau = j * step
            if tau > 3.9:
                break
            contrib = 0.0
            for sgn in (1.0,) if j == 0 else (1.0, -1.0):
                inner = 0.5 * math.pi * math.sinh(sgn * tau)
                u = math.sinh(inner)
                jac = 0.5 * math.pi * math.cosh(inner) * math.cosh(tau)
                contrib += math.exp(log_weight(u)) / (u * u + math.pi ** 2) * jac
            total += contrib
            if j > 0 and contrib < 1e-18:
                break
            j += 1
        return step * total

    fine = one_pass(h)
    coarse = one_pass(2.0 * h)
    return fine, abs(fine - coarse) + 1e-15


class TestIntegrate01:
    def test_constant(self):
        """The unit constant integrates to 1."""
        result = integrate_01(lambda s: 1.0, tol=1e-10)
        assert result.converged
        assert abs(result.value - 1.0) < 1e-12

    def test_polynomial(self):
        result = integrate_01(lambda s: s * s, tol=1e-10)
        assert result.converged
        assert abs(result.value - 1.0 / 3.0) < 1e-12

    def test_log_endpoint_singularity(self):
        """-ln s is unbounded at 0 yet integrates cleanly to 1."""
        result = integrate_01(lambda s: -math.log(s), tol=1e-10)
        assert result.converged
        assert abs(result.value - 1.0) < 1e-10

    def test_weight_over_s(self):
        """v(s)/s integrates to the first moment 1/2.

        The integrand behaves like 1/(s ln^2 s) near 0: a slice of mass
        about 1/708 sits below the smallest normal double, where a
        pointwise float integrand cannot even be evaluated.  At a
        tolerance above that floor the rule converges and brackets 1/2.
        """
        result = integrate_01(lambda s: stieltjes_weight_unit(s) / s, tol=5e-3)
        assert result.converged
        assert abs(result.value - 0.5) <= 5e-3

    def test_weight_over_s_tight_tolerance_stays_honest(self):
        """Below the pointwise-evaluation floor the rule declines to claim
        convergence, and its estimate still covers the true error."""
        result = integrate_01(lambda s: stieltjes_weight_unit(s) / s, tol=1e-10)
        assert not result.converged
        assert abs(result.value - 0.5) <= result.abs_error_estimate

    def test_nonfinite_value_raises_with_abscissa(self):
        def bad(s: float) -> float:
            return math.inf if s > 0.3 else 1.0

        with pytest.raises(IntegrandEvaluationError) as exc_info:
            integrate_01(bad, tol=1e-10)
        assert exc_info.value.abscissa > 0.3
        assert "s=" in str(exc_info.value)

    def test_nan_raises(self):
        with pytest.raises(IntegrandEvaluationError):
            integrate_01(lambda s: math.nan, tol=1e-10)

    def test_unreachable_tol_reports_not_converged(self):
        """An impossible tolerance is reported honestly, not raised."""
        result = integrate_01(lambda s: 1.0, tol=1e-30)
        assert not result.converged
        assert result.n_evals > 0
        assert abs(result.value - 1.0) < 1e-13

    def test_rejects_bad_controls(self):
        with pytest.raises(ValueError):
            integrate_01(lambda s: 1.0, tol=0.0)
        with pytest.raises(ValueError):
            integrate_01(lambda s: 1.0, tol=math.nan)
        with pytest.raises(ValueError):
            integrate_01(lambda s: 1.0, tol=math.inf)
        with pytest.raises(ValueError):
            integrate_01(lambda s: 1.0, tol=1e-8, max_levels=0)

    def test_threaded_calls_agree(self):
        """Concurrent first use builds one node table and identical results."""
        def job(_):
            return integrate_01(lambda s: s * s * s, tol=1e-10).value

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(job, range(8)))
        assert len(set(values)) == 1
        assert abs(values[0] - 0.25) < 1e-12


class TestResultType:
    def test_json_shape(self):
        result = QuadratureResult(value=0.5, abs_error_estimate=1e-12,
                                  n_evals=33, converged=True)
        assert result.to_json_dict() == {
            "value": 0.5, "abs_error": 1e-12, "n_evals": 33, "converged": True}

    def test_converged_implies_estimate_within_tol(self):
        for tol in (1e-6, 1e-8, 1e-10):
            result = bernoulli2_integral(3, tol)
            if result.converged:
                assert result.abs_error_estimate <= tol


class TestCoefficientIntegral:
    def test_first_is_one_half(self):
        result = bernoulli2_integral(1, 1e-10)
        assert result.converged
        assert abs(result.value - 0.5) < 1e-10

    def test_second_is_signed(self):
        """n = 2 returns the signed value -1/12, not the unsigned integral."""
        result = bernoulli2_integral(2, 1e-10)
        assert abs(result.value + 1.0 / 12.0) < 1e-10

    def test_matches_exact_through_20(self, table31):
        for n in range(1, 21):
            exact_value = float(table31[n])
            result = bernoulli2_integral(n, 1e-10)
            assert result.converged, f"n={n} did not converge"
            assert abs(result.value - exact_value) <= max(1e-10 * abs(exact_value), 1e-14)

    def test_n10_relative_accuracy(self, table31):
        result = bernoulli2_integral(10, 1e-10)
        assert abs(result.value - float(table31[10])) <= 1e-10 * abs(float(table31[10]))

    def test_rejects_divergent_index(self):
        """The ray integral diverges at n = 0."""
        with pytest.raises(ValueError):
            bernoulli2_integral(0, 1e-8)

    def test_estimates_are_honest(self, table31):
        """True error never exceeds 10x the reported estimate."""
        for n in range(1, 21):
            result = bernoulli2_integral(n, 1e-10)
            true_error = abs(result.value - float(table31[n]))
            assert true_error <= 10.0 * result.abs_error_estimate + 1e-16


class TestMomentIntegral:
    def test_hand_values(self):
        assert abs(moment_integral(0, 1e-10).value - 0.5) < 1e-10
        assert abs(moment_integral(1, 1e-10).value - 1.0 / 12.0) < 1e-10
        assert abs(moment_integral(4, 1e-10).value - 3.0 / 160.0) < 1e-10

    def test_equals_signed_coefficient(self, table31):
        """mu_n = (-1)**n b_{n+1} ties the moments to the coefficient table."""
        for n in range(0, 12):
            expected = float((-1) ** n * table31[n + 1])
            assert abs(moment_integral(n, 1e-10).value - expected) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            moment_integral(-1, 1e-8)


class TestSubstitutionConsistency:
    def test_reciprocal_and_exponential_maps_agree(self):
        """Two unrelated changes of variable land within their estimates."""
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20):
            main = bernoulli2_integral(n, 1e-10)
            other_value, other_est = _coefficient_integral_exp_map(n)
            gap = abs(abs(main.value) - other_value)
            allowance = 2.0 * max(main.abs_error_estimate, other_est)
            assert gap <= allowance, f"n={n}: gap {gap:.3e} > allowance {allowance:.3e}"

    def test_scipy_ray_integral_agrees(self, table31):
        """QUADPACK on the untransformed ray reproduces the same values."""
        for n in range(2, 7):
            value, err = scipy_integrate.quad(
                _ray_integrand, 1.0, math.inf, args=(n,), limit=200)
            assert abs(value - abs(float(table31[n]))) <= max(1e-9, 10.0 * err)

    def test_scipy_unit_interval_agrees(self, table31):
        """QUADPACK on the pulled-back unit interval agrees for higher n."""
        for n in range(2, 9):
            value, err = scipy_integrate.quad(
                lambda s, nn=n: stieltjes_weight_unit(s) * s ** (nn - 2),
                0.0, 1.0, limit=200)
            assert abs(value - abs(float(table31[n]))) <= max(1e-9, 10.0 * err)


class TestStieltjesForm:
    def test_value_at_one(self):
        result = stieltjes_recip_log(1.0, 1e-10)
        assert result.converged
        assert abs(result.value - 1.0 / math.log(2.0)) < 1e-10

    def test_value_at_e_minus_one(self):
        result = stieltjes_recip_log(math.e - 1.0, 1e-10)
        assert abs(result.value - 1.0) < 1e-10

    def test_small_x_relative_accuracy(self):
        """x = 0.01 keeps 1e-6 relative accuracy despite the 1/x ~ 100 term."""
        result = stieltjes_recip_log(0.01, 1e-8)
        reference = 1.0 / math.log1p(0.01)
        assert abs(result.value - reference) <= 1e-6 * reference

    def test_residual_grid(self):
        for x in RESIDUAL_GRID:
            result = stieltjes_recip_log(x, 1e-10)
            residual = abs(result.value - 1.0 / math.log1p(x))
            assert residual <= 1e-8
            assert residual <= 10.0 * max(result.abs_error_estimate, 1e-16)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stieltjes_recip_log(0.0, 1e-8)
        with pytest.raises(ValueError):
            stieltjes_recip_log(-1.0, 1e-8)


class TestGenfunIntegral:
    def test_limit_toward_one(self):
        """x -> 0 limit: the value sits within 1e-5 of 1 already at x = 1e-6."""
        result = genfun_integral(1e-6, 1e-10)
        assert abs(result.value - 1.0) < 1e-5

    def test_value_at_nine(self):
        result = genfun_integral(9.0, 1e-10)
        assert abs(result.value - 9.0 / math.log(10.0)) < 1e-9

    def test_residual_grid(self):
        for x in RESIDUAL_GRID:
            result = genfun_integral(x, 1e-10)
            assert abs(result.value - x / math.log1p(x)) <= 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            genfun_integral(0.0, 1e-8)


class TestDerivativeIntegral:
    def test_first_derivative_at_zero(self):
        """d/dx [x/ln(1+x)] at 0 equals b_1 = 1/2."""
        result = genfun_derivative_integral(0.0, 1, 1e-10)
        assert result.converged
        assert abs(result.value - 0.5) < 1e-10

    def test_third_derivative_at_zero(self):
        """3! b_3 = 1/4."""
        result = genfun_derivative_integral(0.0, 3, 1e-9)
        assert abs(result.value - 0.25) < 1e-9

    def test_matches_scaled_coefficients(self, table31):
        """At x = 0 the k-th derivative is k! b_k, to 1e-9 relative, k <= 12."""
        for k in range(1, 13):
            reference = float(math.factorial(k) * table31[k])
            tol = max(1e-9 * abs(reference), 1e-15)
            result = genfun_derivative_integral(0.0, k, tol)
            assert abs(result.value - reference) <= 1e-9 * abs(reference), f"k={k}"

    def test_sign_alternates_in_order(self):
        """Derivative k carries sign (-1)**(k+1), matching the coefficient signs."""
        for k in range(1, 7):
            value = genfun_derivative_integral(0.5, k, 1e-9).value
            assert (value > 0) == (k % 2 == 1)

    def test_finite_difference_consistency(self):
        """Order-2 derivative at x = 1/2 vs Richardson central differences."""
        result = genfun_derivative_integral(0.5, 2, 1e-10)

        def f(t: float) -> float:
            return t / math.log1p(t)

        def second(step: float) -> float:
            return (f(0.5 + step) - 2.0 * f(0.5) + f(0.5 - step)) / step ** 2

        reference = (4.0 * second(5e-4) - second(1e-3)) / 3.0
        assert abs(result.value - reference) <= 1e-5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            genfun_derivative_integral(0.5, 0, 1e-8)
        with pytest.raises(ValueError):
            genfun_derivative_integral(-0.1, 1, 1e-8)


class TestShiftedKernel:
    def test_zero_shift_is_unsigned_coefficient(self, table31):
        """h_n(0) reproduces |b_n|; the n = 2 case is 1/12."""
        result = shifted_kernel_integral(2, 0.0, 1e-10)
        assert abs(result.value - 1.0 / 12.0) < 1e-10
        for n in range(1, 7):
            got = shifted_kernel_integral(n, 0.0, 1e-10).value
            assert abs(got - abs(float(table31[n]))) < 1e-10

    def test_large_shift_shrinks(self):
        result = shifted_kernel_integral(1, 1000.0, 1e-10)
        assert 0.0 < result.value < 0.5

    def test_decreasing_in_shift(self):
        """h_3 decreases along x, staying inside (0, h_3(0)]."""
        top = shifted_kernel_integral(3, 0.0, 1e-10).value
        previous = top
        for x in (0.5, 1.0, 2.0, 8.0):
            value = shifted_kernel_integral(3, x, 1e-10).value
            assert 0.0 < value < previous
            previous = value
        assert shifted_kernel_integral(3, 1.0, 1e-10).value <= top

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shifted_kernel_integral(0, 1.0, 1e-8)
        with pytest.raises(ValueError):
            shifted_kernel_integral(2, -1.0, 1e-8)


class TestBernsteinIdentity:
    def test_value_at_one(self):
        """int_0^1 2^t dt = 1/ln 2."""
        result = bernstein_identity(1.0, 1e-10)
        assert abs(result.value - 1.0 / math.log(2.0)) < 1e-10

    def test_value_at_e_squared_minus_one(self):
        x = math.exp(2.0) - 1.0
        result = bernstein_identity(x, 1e-10)
        assert abs(result.value - x / 2.0) < 1e-10

    def test_tiny_x_limit(self):
        result = bernstein_identity(1e-8, 1e-10)
        assert abs(result.value - 1.0) < 1e-7

    def test_matches_generating_function(self):
        for x in (0.5, 1.0, math.exp(2.0) - 1.0):
            result = bernstein_identity(x, 1e-10)
            assert abs(result.value - x / math.log1p(x)) <= 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bernstein_identity(0.0, 1e-8)


class TestKernelFunctions:
    def test_weight_peak(self):
        """w peaks at t = 2 with value 1/pi^2."""
        assert abs(stieltjes_weight(2.0) - 1.0 / math.pi ** 2) < 1e-16
        assert stieltjes_weight(1.5) < stieltjes_weight(2.0)
        assert stieltjes_weight(8.0) < stieltjes_weight(2.0)

    def test_unit_form_symmetry(self):
        """v(s) = v(1-s) to machine precision."""
        for s in (0.1, 0.25, 0.4):
            left = stieltjes_weight_unit(s)
            right = stieltjes_weight_unit(1.0 - s)
            assert abs(left - right) <= 5e-16 * abs(left)

    def test_unit_form_is_pullback(self):
        """v(s) equals w(1/s) wherever both are defined."""
        for s in (0.2, 0.5, 0.9):
            assert abs(stieltjes_weight_unit(s) - stieltjes_weight(1.0 / s)) \
                <= 1e-15 * stieltjes_weight_unit(s)

    def test_domains(self):
        with pytest.raises(ValueError):
            stieltjes_weight(1.0)
        with pytest.raises(ValueError):
            stieltjes_weight_unit(0.0)
        with pytest.raises(ValueError):
            stieltjes_weight_unit(1.0)

"""Quadrature engine: golden integrals, closed forms, substitution consistency."""

import math
import concurrent.futures
import functools
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from gregory import quadrature
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
_MAX = sys.float_info.max


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


# ----------------------------------------------------------------------
# per-node reference of the engine
#
# The engine written node by node: one (tau, y, sig, sigc, jac) tuple per
# node, one g(node) call per term, the stop rule and the estimate checked
# after every term.  The tests below hold the column engine to it bit for
# bit.
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _reference_level(level: int) -> tuple:
    h = 2.0 ** -level
    top = int(36.0 / h)
    js = range(0, top + 1) if level == 0 else range(1, top + 1, 2)
    nodes = []
    for j in js:
        tau = j * h
        y = math.pi * math.sinh(tau)
        e = math.exp(-abs(y))
        big, small = 1.0 / (1.0 + e), e / (1.0 + e)
        sig, sigc = (big, small) if y >= 0.0 else (small, big)
        nodes.append((tau, y, sig, sigc, math.pi * math.cosh(tau)))
    return tuple(nodes)


def _reference_integrate(g, tol: float, max_levels: int) -> QuadratureResult:
    gvals, absvals = [], []
    prev_total = None
    est, value, converged, stagnant = math.inf, 0.0, False, 0
    cutoff = max(0.02 * tol, 1e-280)
    for level in range(0, max_levels + 1):
        h = 2.0 ** -level
        nodes = _reference_level(level)
        if level == 0:
            v = g(nodes[0])
            if not math.isfinite(v):
                raise IntegrandEvaluationError(nodes[0][2], v)
            gvals.append(v)
            absvals.append(abs(v))
            nodes = nodes[1:]
        mirrored = [(-tau, -y, sigc, sig, jac) for tau, y, sig, sigc, jac in nodes]
        edges = 0.0
        for side in (nodes, mirrored):
            tiny, edge = 0, 0.0
            for nd in side:
                v = g(nd)
                if not math.isfinite(v):
                    raise IntegrandEvaluationError(nd[2], v)
                gvals.append(v)
                absvals.append(abs(v))
                if abs(v) > cutoff:
                    tiny, edge = 0, abs(v)
                else:
                    tiny += 1
                    if abs(nd[0]) >= 6.0 and tiny >= 3:
                        break
            edges += edge
        total = h * math.fsum(gvals)
        abs_total = h * math.fsum(absvals)
        if prev_total is None:
            prev_total = total
            continue
        diff = abs(total - prev_total)
        est = diff + 2.0 * edges + 1.1e-16 * abs_total
        value = total
        prev_total = total
        if est <= tol:
            converged = True
            break
        if diff <= max(1e-16 * abs(total), 1e-300):
            stagnant += 1
            if stagnant >= 2:
                break
        else:
            stagnant = 0
    return QuadratureResult(value=value, abs_error_estimate=est,
                            n_evals=len(gvals), converged=converged)


def _reference_kernel(a: int, x: float, p: int, tol: float, max_levels: int):
    def g(nd):
        _, y, sig, sigc, jac = nd
        try:
            return jac * sigc * sig ** a / ((y * y + math.pi * math.pi) * (1.0 + x * sig) ** p)
        except OverflowError:
            return 0.0
    return _reference_integrate(g, tol, max_levels)


def _reference_integrate_01(f, tol: float, max_levels: int):
    def g(nd):
        s = nd[2]
        if s < 2.2250738585072014e-308 or s >= 1.0:
            return 0.0
        fv = f(s)
        if not math.isfinite(fv):
            raise IntegrandEvaluationError(s, fv)
        return fv * nd[4] * s * nd[3]
    return _reference_integrate(g, tol, max_levels)


def _bits(result: QuadratureResult) -> tuple:
    return (result.value.hex(), result.abs_error_estimate.hex(),
            result.n_evals, result.converged)


_TOLS = st.one_of(st.just(5e-324),
                  st.integers(-323, -1).map(lambda e: 10.0 ** e),
                  st.floats(min_value=5e-324, max_value=0.1))
_KERNEL_ARGS = st.one_of(
    # a = 0: the slow 1/(pi cosh tau) tail of 1/ln(1+x), x/ln(1+x) and f'
    st.tuples(st.just(0),
              st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e6)),
              st.integers(0, 2)),
    # (1 + x s)^p overflows on part of a chunk: 0.0 beside finite terms
    st.tuples(st.integers(0, 40), st.floats(min_value=1e150, max_value=1e308),
              st.integers(2, 171)),
    st.tuples(st.integers(0, 300),
              st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e308)),
              st.integers(0, 171)),
)


class TestColumnEngineMatchesPerNodeReference:
    @settings(max_examples=150, deadline=None)
    @given(args=_KERNEL_ARGS, tol=_TOLS, max_levels=st.integers(1, 12))
    @example(args=(0, 0.5, 1), tol=1e-15, max_levels=12)
    @example(args=(0, 0.0, 0), tol=1e-10, max_levels=12)
    @example(args=(0, 1e3, 2), tol=5e-324, max_levels=12)
    @example(args=(2, 1e300, 3), tol=1e-10, max_levels=6)
    @example(args=(0, 1e150, 3), tol=5e-324, max_levels=12)
    @example(args=(299, 0.0, 0), tol=1e-10, max_levels=12)
    @example(args=(9, 0.25, 11), tol=1e-13 / 3628800, max_levels=12)
    # the extremes of finite x: every term stays finite (the reference
    # raises on any other), since overflowing powers and products give 0.0
    @example(args=(0, _MAX, 1), tol=1e-10, max_levels=12)
    @example(args=(0, _MAX, 1), tol=5e-324, max_levels=12)
    @example(args=(300, _MAX, 1), tol=1e-10, max_levels=12)
    @example(args=(300, _MAX, 1), tol=5e-324, max_levels=12)
    @example(args=(0, _MAX, 171), tol=1e-10, max_levels=12)
    @example(args=(0, _MAX, 171), tol=5e-324, max_levels=12)
    @example(args=(300, _MAX, 171), tol=1e-10, max_levels=12)
    @example(args=(300, _MAX, 171), tol=5e-324, max_levels=12)
    @example(args=(0, 5e-324, 171), tol=1e-10, max_levels=12)
    @example(args=(0, 5e-324, 171), tol=5e-324, max_levels=12)
    def test_kernel_bits(self, args, tol, max_levels):
        """Value, estimate, n_evals and converged agree bit for bit."""
        a, x, p = args
        got = quadrature._kernel(a, x, p, tol, max_levels)
        assert _bits(got) == _bits(_reference_kernel(a, x, p, tol, max_levels))

    def test_overflow_example_mixes_zero_and_finite_terms_in_one_chunk(self):
        """The example (a, x, p) = (2, 1e300, 3) sends a head through the
        overflow path with finite terms beside the zeros."""
        x, p = 1e300, 3

        def overflows(s):
            try:
                (1.0 + x * s) ** p
            except OverflowError:
                return True
            return False

        _, (mirrored_head, _) = quadrature._level_table(0)
        flags = [overflows(s) for s in mirrored_head[0]]
        assert any(flags) and not all(flags)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        pytest.param(stieltjes_recip_log, id="recip-log"),
        pytest.param(genfun_integral, id="genfun"),
        pytest.param(lambda x: genfun_derivative_integral(x, 1), id="derivative-1"),
        pytest.param(lambda x: genfun_derivative_integral(x, 7), id="derivative-7"),
        pytest.param(lambda x: shifted_kernel_integral(1, x), id="shifted-kernel-1"),
        pytest.param(lambda x: shifted_kernel_integral(5, x), id="shifted-kernel-5"),
        pytest.param(bernstein_identity, id="bernstein-identity"),
    ])
    def test_nonfinite_x_never_reaches_the_engine(self, call, x, monkeypatch):
        """A NaN or infinite x is rejected before any term is summed, so the
        engine never meets the non-finite terms it no longer rescans for."""
        def engine(*args):
            raise AssertionError("the engine was entered")

        monkeypatch.setattr(quadrature, "_integrate_transformed", engine)
        with pytest.raises(ValueError, match="^x must be"):
            call(x)

    @pytest.mark.parametrize("f", [
        lambda s: 1.0,
        lambda s: s - 0.5,
        lambda s: math.sin(40.0 * s),
        lambda s: -math.log(s),
        lambda s: stieltjes_weight_unit(s) / s,
        lambda s: 1.0 / s,                # f*jac*s*(1-s) overflows near s = 0
        lambda s: 1e300 / s,              # f itself overflows near s = 0
        lambda s: 3.0 ** s,
    ])
    @pytest.mark.parametrize("tol, max_levels", [
        (1e-3, 1), (1e-10, 4), (1e-15, 12), (1e-30, 7), (5e-324, 12)])
    def test_integrate_01_visits_the_same_abscissas(self, f, tol, max_levels):
        """f is called at exactly the reference's abscissas, in order, and
        the result or the abort is the same."""
        def outcome(engine):
            seen = []

            def recording(s):
                seen.append(s)
                return f(s)
            try:
                result = _bits(engine(recording, tol, max_levels))
            except IntegrandEvaluationError as exc:
                result = ("abort", exc.abscissa.hex(), repr(exc.value))
            return result, [s.hex() for s in seen]

        assert outcome(integrate_01) == outcome(_reference_integrate_01)

    @pytest.mark.parametrize("threshold", [0.5, 0.3, 1e-3, 1e-200, 0.999999])
    def test_nonfinite_f_aborts_at_the_same_abscissa(self, threshold):
        def bad(s):
            return math.inf if s < threshold else 1.0

        aborts = []
        for engine in (integrate_01, _reference_integrate_01):
            with pytest.raises(IntegrandEvaluationError) as exc_info:
                engine(bad, 1e-12, 12)
            aborts.append(exc_info.value.abscissa)
        assert aborts[0] == aborts[1]


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

    def test_threaded_first_use_of_column_tables(self):
        """Eight threads that build every level at once agree with a serial call."""
        serial = genfun_derivative_integral(0.25, 10, 1e-13)
        with quadrature._node_lock:
            quadrature._node_levels.clear()
        start = threading.Barrier(8)

        def job(_):
            start.wait()
            return genfun_derivative_integral(0.25, 10, 1e-13)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, range(8)))
        assert sorted(quadrature._node_levels) == list(range(quadrature.DEFAULT_MAX_LEVELS + 1))
        assert [_bits(r) for r in results] == [_bits(serial)] * 8


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

    def test_underflowing_inner_tolerance_is_floored(self):
        """tol/x below the smallest subnormal runs at that floor instead of raising."""
        x = 1e300
        result = genfun_integral(x, 1e-30)
        assert not result.converged
        assert abs(result.value - x / math.log1p(x)) <= 1e-12 * result.value
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                genfun_integral(x, tol)


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
        with pytest.raises(ValueError):
            genfun_derivative_integral(0.5, 171, 1e-8)   # 171! overflows a double
        for tol in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError):
                genfun_derivative_integral(0.5, 2, tol)

    def test_overflowing_kernel_power_is_a_zero_term(self):
        """Where (1+xs)^(k+1) overflows the term is below 1e-290; the result stays honest."""
        x = 1e150
        lg = math.log1p(x)
        second = (-1.0 + 2.0 / lg) / (x * lg * lg)   # f''(x) to ~1/x relative
        result = genfun_derivative_integral(x, 2, 1e-10)
        assert result.converged
        assert abs(result.value - second) <= 1e-10
        for k in (2, 3, 20):
            result = genfun_derivative_integral(1e300, k, 1e-10)
            assert result.converged
            assert abs(result.value) <= 1e-10   # |f^(k)(1e300)| < 1e-300

    def test_underflowing_inner_tolerance_is_floored(self):
        """tol/k! below the smallest subnormal runs at that floor instead of raising."""
        result = genfun_derivative_integral(1.0, 30, 1e-320)
        assert not result.converged
        assert result.n_evals > 0


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

"""Quadrature engine: golden integrals, closed forms, substitution consistency."""

import math
import concurrent.futures
import contextlib
import dataclasses
import functools
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from gregory import quadrature
from gregory import (
    QuadratureResult,
    bernoulli2_integral,
    bernoulli2_series,
    bernstein_identity,
    closed_derivative,
    genfun_derivative_integral,
    genfun_integral,
    moment_integral,
    shifted_kernel_integral,
    stieltjes_recip_log,
    stieltjes_weight,
    stieltjes_weight_unit,
)

RESIDUAL_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
_MAX = sys.float_info.max


def _closed_form(function: str, x: float) -> float:
    """1/ln(1+x), x/ln(1+x) or its derivative 1/L - x/((1+x) L^2) with
    L = ln(1+x), in 40-digit decimal arithmetic (Decimal.ln is correctly
    rounded), rounded once to a double."""
    with localcontext() as ctx:
        ctx.prec = 40
        xd = Decimal(x)
        log = (1 + xd).ln()
        if function == "recip-log":
            return float(1 / log)
        if function == "genfun":
            return float(xd / log)
        return float(1 / log - xd / ((1 + xd) * log * log))


@functools.lru_cache(maxsize=None)
def _exact_table():
    return bernoulli2_series(300)


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
# node, one g(node) call per term, each side's envelope checked before
# every term.  The tests below hold the column engine to it bit for bit.
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


def _mirror(node: tuple) -> tuple:
    tau, y, sig, sigc, jac = node
    return (-tau, -y, sigc, sig, jac)


def _reference_side(nodes, alpha, beta, cut: float, h: float):
    """The nodes of one side that the rule keeps, and its truncation bound.

    A side keeps every node before the first one whose envelope
    sigma(-|y|)**alpha * (pi cosh tau)**beta is at most cut; r, the decay
    rate of the envelope, is taken at the last node kept (or the first
    node when none is).
    """
    kept = []
    for node in nodes:
        if node[3] ** alpha * node[4] ** beta <= cut:
            break
        kept.append(node)
    tau, _, sig, sigc, jac = kept[-1] if kept else nodes[0]
    r = alpha * sig * jac - beta * (1.0 if beta > 0 else math.tanh(tau))
    if len(kept) < len(nodes):
        return kept, cut * (h + 1.0 / r)
    return kept, sigc ** alpha * jac ** beta / r


def _reference_integrate(g, lo, beta, tol: float, max_levels: int,
                         floor: float = 1.1e-16) -> QuadratureResult:
    gvals = []
    prev_total = prev_diff = None
    est, value, converged, stagnant = math.inf, 0.0, False, 0
    cut = max(4e-3 * tol, 2e-281)
    for level in range(0, max_levels + 1):
        h = 2.0 ** -level
        nodes = _reference_level(level)
        if level == 0:
            gvals.append(g(nodes[0]))
            nodes = nodes[1:]
        trunc = 0.0
        for alpha, mirrored in zip((1, lo), (False, True)):
            kept, bound = _reference_side(nodes, alpha, beta, cut, h)
            for node in kept:
                v = g(_mirror(node) if mirrored else node)
                assert math.isfinite(v) and v >= 0.0
                gvals.append(v)
            trunc += bound
        total = h * math.fsum(gvals)
        if prev_total is None:
            prev_total = total
            continue
        diff = abs(total - prev_total)
        predicted = 0.0
        if prev_diff is not None:
            predicted = total * (prev_diff / total) ** 3 if total > prev_diff else prev_diff
        est = max(diff, predicted) + trunc + floor * total
        prev_diff = diff
        value = total
        prev_total = total
        if est <= tol and level >= 2:
            converged = True
            break
        if diff <= max(floor * total, 1e-300):
            stagnant += 1
            if stagnant >= 2 and floor * total + trunc > tol:
                break
        else:
            stagnant = 0
    return QuadratureResult(value=value, abs_error_estimate=est,
                            n_evals=len(gvals), converged=converged)


def _kernel_floor(a: int, x: float, p: int) -> float:
    # (a + p + 4) unit roundoffs per term; no (1 + x s)**p is formed at x = 0
    return (a + (p if x > 0.0 else 0) + 4) * 2.0 ** -53


def _reference_kernel(a: int, x: float, p: int, tol: float, max_levels: int):
    def g(nd):
        _, y, sig, sigc, jac = nd
        try:
            return jac * sigc * sig ** a / ((y * y + math.pi * math.pi) * (1.0 + x * sig) ** p)
        except OverflowError:
            return 0.0
    return _reference_integrate(g, a, -1, tol, max_levels, _kernel_floor(a, x, p))


def _reference_bernstein(x: float, tol: float) -> QuadratureResult:
    base = 1.0 + x

    def g(nd):
        _, _, s, c, jac = nd
        return jac * s * c * base ** -c
    raw = _reference_integrate(g, 1, 1, max(tol / base, 5e-324),
                               quadrature.DEFAULT_MAX_LEVELS)
    est = base * raw.abs_error_estimate
    return QuadratureResult(value=base * raw.value, abs_error_estimate=est,
                            n_evals=raw.n_evals, converged=raw.converged and est <= tol)


def _bits(result: QuadratureResult) -> tuple:
    return (result.value.hex(), result.abs_error_estimate.hex(),
            result.n_evals, result.converged)


# The engine always refines through the module's DEFAULT_MAX_LEVELS; these
# helpers lower that cap around one engine call (None keeps it), and build a
# QuadratureResult from each raw (value, estimate, n_evals, converged) tuple.

def _capped(levels):
    if levels is None:
        return contextlib.nullcontext()
    return mock.patch.object(quadrature, "DEFAULT_MAX_LEVELS", levels)


def _members(members: list, beta: int, tol: float, levels=None,
             shape: tuple = quadrature._KERNEL_ROWS) -> list:
    with _capped(levels):
        raws = quadrature._integrate_members(members, beta, tol, shape)
    return [QuadratureResult(*raw) for raw in raws]


def _integrate(term, lo, beta, tol: float, levels=None, floor: float = 1.1e-16,
               shape: tuple = quadrature._KERNEL_ROWS) -> QuadratureResult:
    # one term function, lo being its envelope's alpha on the s -> 0 side
    return _members([(term, lo, floor, None)], beta, tol, levels, shape)[0]


def _side_columns(node: tuple) -> tuple:
    # a reference node's side columns, in the order _S, _C, _J, _E, _JC, _JS,
    # _JSD
    _, y, sig, sigc, jac = node
    d = y * y + math.pi * math.pi
    return (sig, sigc, jac, d, jac * sigc, jac * sig, jac * sig / d)


def _kernel_result(a: int, x: float, p: int, tol: float, levels=None) -> QuadratureResult:
    with _capped(levels):
        return QuadratureResult(*quadrature._kernel(a, x, p, tol))


# test-local term functions of the engine, with the side columns each
# reads: (term, shape, alpha on the s -> 0 side, beta, exact value)
_UNIT_ROWS = (quadrature._C, quadrature._JS)
_CUBE_ROWS = (quadrature._S, quadrature._C, quadrature._J)
_WEIGHTED_ROWS = (quadrature._C, quadrature._J, quadrature._E)


def _unit_term(rows):
    return [js * c for c, js in rows]


def _cube_term(rows):
    return [j * s ** 4 * c for s, c, j in rows]


def _moment_term(rows):
    # the kernel term with a = 3: the moment mu_3 = -b_4
    return [jc * s ** 3 / e for s, jc, e in rows]


def _setup_term(rows):
    # the kernel term of f^(10)(0.25), the benchmark's setup job
    return [jc * s ** 9 / (e * (1.0 + 0.25 * s) ** 11) for s, jc, e in rows]


def _weighted_term(rows):
    # (1-s)^2 v(s)/s, mu_0 - 2 mu_1 + mu_2 = 3/8: its s -> 1 terms carry
    # sigma(-|y|)**3, under the alpha = 1 envelope as sigma(-|y|)**m <= sigma(-|y|)
    return [j * c ** 3 / e for c, j, e in rows]


_TERMS = {
    "one": (_unit_term, _UNIT_ROWS, 1, 1, 1.0),
    "s^3": (_cube_term, _CUBE_ROWS, 4, 1, 0.25),
    "v(s) s^2": (_moment_term, quadrature._KERNEL_ROWS, 3, -1, 19.0 / 720.0),
    "(1-s)^2 v(s)/s": (_weighted_term, _WEIGHTED_ROWS, 0, -1, 3.0 / 8.0),
}


_TOLS = st.one_of(st.just(5e-324),
                  st.integers(-323, -1).map(lambda e: 10.0 ** e),
                  st.floats(min_value=5e-324, max_value=0.1))
_KERNEL_ARGS = st.one_of(
    # a = 0: the slow 1/(pi cosh tau) tail of 1/ln(1+x), x/ln(1+x) and f'
    st.tuples(st.just(0),
              st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e6)),
              st.integers(0, 2)),
    # (1 + x s)^p overflows on part of a side: 0.0 beside finite terms
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
    @example(args=(0, 1e300, 3), tol=1e-10, max_levels=6)
    @example(args=(0, 1e150, 3), tol=5e-324, max_levels=12)
    @example(args=(299, 0.0, 0), tol=1e-10, max_levels=12)
    @example(args=(9, 0.25, 11), tol=1e-13 / 3628800, max_levels=12)
    # shapes that share another shape's term: x == 0 with p > 0, and
    # p == 0 or p == 1 with a > 0 at x > 0 through the general term
    @example(args=(0, 0.0, 2), tol=1e-10, max_levels=12)
    @example(args=(3, 2.5, 0), tol=1e-10, max_levels=12)
    @example(args=(5, 0.5, 1), tol=1e-10, max_levels=12)
    # the extremes of finite x: every term stays finite (the reference
    # asserts it), since overflowing powers and products give 0.0
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
    # a = 0 takes its s -> 0 terms from the node table from the first node
    # where 1.0 + x*s == 1.0: node 0 of every level at x = 1e-17; the node
    # tau = 3 (tau = 1) of level 0, where fl(x*s) is exactly 2**-53 and
    # 1.0 + 2**-53 rounds to even, 1.0; the deepest cutover at the largest x
    @example(args=(0, 1e-17, 1), tol=1e-10, max_levels=12)
    @example(args=(0, 1e-17, 2), tol=5e-324, max_levels=12)
    @example(args=(0, 0.005170849486911463, 1), tol=1e-10, max_levels=12)
    @example(args=(0, 0.005170849486911463, 2), tol=5e-324, max_levels=12)
    @example(args=(0, 4.565809361902511e-15, 1), tol=1e-13, max_levels=12)
    @example(args=(0, _MAX, 2), tol=1e-10, max_levels=12)
    @example(args=(0, _MAX, 2), tol=5e-324, max_levels=12)
    def test_kernel_bits(self, args, tol, max_levels):
        """Value, estimate, n_evals and converged agree bit for bit, from no
        side plans and from the plans the first call left."""
        a, x, p = args
        _clear_plans()
        runs = [_bits(_kernel_result(a, x, p, tol, max_levels)) for _ in range(2)]
        assert runs == [_bits(_reference_kernel(a, x, p, tol, max_levels))] * 2

    @pytest.mark.parametrize("x", [0.005170849486911463, 4.565809361902511e-15])
    def test_tie_examples_tie_at_one_level_0_node(self, x):
        """The two tie examples above: on level 0's s -> 0 side, fl(x*s) is
        2**-53 at one node, where 1.0 + x*s rounds to 1.0, and larger at
        every node before it."""
        nodes = [_mirror(node)[2] for node in _reference_level(0)[1:]]
        ties = [i for i, s in enumerate(nodes) if x * s == 2.0 ** -53]
        assert len(ties) == 1 and 1.0 + x * nodes[ties[0]] == 1.0
        assert all(1.0 + x * s > 1.0 for s in [0.5] + nodes[:ties[0]])

    @pytest.mark.parametrize("n_max, tol", [(1, 1e-10), (40, 1e-13), (300, 1e-30)])
    def test_sweep_b1_bits(self, n_max, tol):
        """b_1, the a = 0 member at x = 0 of every coefficient sweep, every
        term of which is a node-table value, has the bits of the per-node
        reference and of the lone call."""
        got = quadrature.bernoulli2_integrals(n_max, tol)[0]
        want = _reference_kernel(0, 0.0, 0, tol, quadrature.DEFAULT_MAX_LEVELS)
        assert _bits(got) == _bits(bernoulli2_integral(1, tol)) == _bits(want)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13, 5e-324])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda x, tol: genfun_derivative_integral(x, 1, tol), id="derivative-1"),
        pytest.param(lambda x, tol: shifted_kernel_integral(1, x, tol), id="shifted-1")])
    def test_a0_members_at_negative_zero_have_the_bits_of_zero(self, call, tol):
        """f'(x) and h_1(x) take x = -0.0 through the same one table-read
        rule as x = 0.0: 1.0 + (-0.0)*s == 1.0 at every node."""
        assert _bits(call(-0.0, tol)) == _bits(call(0.0, tol))

    @pytest.mark.parametrize("args, tol, computed, n_evals", [
        ((0, 1e3, 1), 1e-13, 203, 1217), ((0, 0.0, 0), 1e-10, 23, 247),
        ((3, 1e3, 1), 1e-13, None, None)])
    def test_a0_terms_past_the_cutover_are_read_not_computed(self, args, tol, computed,
                                                             n_evals):
        """1/ln(1+x) at x = 1e3 computes 203 of its 1,217 terms and b_1 23
        of its 247, its centre node's and its s -> 1 side's; a kernel with
        a > 0 computes every term."""
        term, lo, floor, flat = quadrature._kernel_member(*args)
        handed = []

        def counting(rows):
            terms = term(rows)
            handed.append(len(terms))
            return terms

        got = _members([(counting, lo, floor, flat)], -1, tol)[0]
        assert _bits(got) == _bits(_kernel_result(*args, tol))
        if computed is None:
            assert flat is None and sum(handed) == got.n_evals
        else:
            assert (sum(handed), got.n_evals) == (computed, n_evals)

    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(st.floats(min_value=1e-300, max_value=_MAX),
                       st.sampled_from([1e-8, 1.0, 1e307, 1e308, _MAX])),
           tol=_TOLS)
    @example(x=1.0, tol=1e-10)
    @example(x=_MAX, tol=1e-10)
    def test_bernstein_bits(self, x, tol):
        """bernstein_identity's own column term agrees with the reference."""
        assert _bits(bernstein_identity(x, tol)) == _bits(_reference_bernstein(x, tol))

    @pytest.mark.parametrize("name", sorted(_TERMS))
    @pytest.mark.parametrize("tol, max_levels", [
        (1e-3, 1), (1e-10, 4), (1e-15, 12), (1e-30, 7), (5e-324, 12)])
    def test_term_sees_the_reference_nodes(self, name, tol, max_levels):
        """A term function is handed exactly the reference's nodes, in
        order, as rows of the side columns it reads, and the result is the
        same."""
        term, shape, lo, beta, _ = _TERMS[name]
        seen = []

        def recording(rows):
            rows = list(rows)
            seen.extend(rows)
            return term(rows)

        got = _integrate(recording, lo, beta, tol, max_levels, shape=shape)
        visited = []

        def g(nd):
            cols = _side_columns(nd)
            visited.append(tuple(cols[i] for i in shape))
            return term([visited[-1]])[0]

        want = _reference_integrate(g, lo, beta, tol, max_levels)
        assert _bits(got) == _bits(want)
        assert seen == visited

    def test_overflow_example_mixes_zero_and_finite_terms_in_one_side(self):
        """The example (a, x, p) = (0, 1e300, 3) sends the s -> 0 side of
        level 0 through the overflow path with finite terms beside the zeros."""
        x, p = 1e300, 3

        def overflows(s):
            try:
                (1.0 + x * s) ** p
            except OverflowError:
                return True
            return False

        cut = max(4e-3 * 1e-10, 2e-281)
        kept, _ = _reference_side(_reference_level(0)[1:], 0, -1, cut, 1.0)
        flags = [overflows(_mirror(node)[2]) for node in kept]
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

        monkeypatch.setattr(quadrature, "_integrate_members", engine)
        with pytest.raises(ValueError, match="^x must be"):
            call(x)


class TestTruncation:
    @pytest.mark.parametrize("args, tol", [
        ((0, 1.0, 1), 1e-10), ((0, 1e6, 1), 1e-14), ((0, 0.0, 0), 1e-12),
        ((5, 0.0, 0), 1e-10), ((299, 0.0, 0), 1e-10), ((0, 1e300, 2), 1e-10),
        ((9, 0.25, 11), 1e-13 / 3628800), ((0, 1e3, 2), 5e-324)])
    @pytest.mark.parametrize("level", [0, 1, 4, 12])
    def test_dropped_terms_sum_below_the_bound(self, args, tol, level):
        """On every side, the terms of every node the rule drops, summed
        explicitly over the whole step-2**-level grid to tau = 36, weigh
        at most that side's share of the estimate."""
        a, x, p = args
        h = 2.0 ** -level
        cut = max(4e-3 * tol, 2e-281)
        grid = [node for lv in range(level + 1) for node in _reference_level(lv)[lv == 0:]]
        grid.sort()

        def g(nd):
            _, y, sig, sigc, jac = nd
            try:
                return jac * sigc * sig ** a / ((y * y + math.pi * math.pi) * (1.0 + x * sig) ** p)
            except OverflowError:
                return 0.0

        for alpha, mirrored in zip((1, a), (False, True)):
            _, bound = _reference_side(_reference_level(level)[level == 0:], alpha, -1, cut, h)
            kept = set()
            for lv in range(level + 1):
                nodes = _reference_level(lv)[lv == 0:]
                kept.update(_reference_side(nodes, alpha, -1, cut, 2.0 ** -lv)[0])
            dropped = [g(_mirror(nd) if mirrored else nd) for nd in grid if nd not in kept]
            assert h * math.fsum(dropped) <= bound

    def test_side_that_reaches_the_cap_adds_its_tail(self):
        """x/ln(1+x) at x = 5.7e9, tol 1.3e-7: the s -> 0 side is still above
        the cut at tau = 36, and the mass past it (about 1.5e-16 of the inner
        integral, 1e-6 after the x scaling) keeps the result unconverged."""
        result = genfun_integral(5.7e9, 1.3e-7)
        assert not result.converged
        assert result.abs_error_estimate > 1.3e-7


def _clear_node_tables():
    with quadrature._node_lock:
        quadrature._node_levels.clear()


def _clear_plans():
    quadrature._plan.cache_clear()


def _cut(tol: float) -> float:
    return max(4e-3 * tol, 2e-281)


class TestEngine:
    @pytest.mark.parametrize("name", sorted(_TERMS))
    def test_exact_values(self, name):
        """Each test-local term function integrates to its exact value."""
        term, shape, lo, beta, exact = _TERMS[name]
        result = _integrate(term, lo, beta, 1e-12, shape=shape)
        assert result.converged
        assert abs(result.value - exact) <= 1e-12

    def test_unreachable_tol_reports_not_converged(self):
        """An impossible tolerance is reported honestly, not raised."""
        result = _integrate(_unit_term, 1, 1, 1e-30, shape=_UNIT_ROWS)
        assert not result.converged
        assert result.n_evals > 0
        assert abs(result.value - 1.0) < 1e-13

    def test_rejects_bad_controls(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                _integrate(_unit_term, 1, 1, tol, shape=_UNIT_ROWS)

    def test_plan_memo_keeps_the_1024_most_recent_plans(self):
        """1,124 calls at distinct tolerances, one side plan each (mu_1's two
        sides share alpha = 1), leave 1,024 plans: the most recently used
        are kept and the first ones are gone."""
        tols = [1e-10 * (1.0 + i * 2.0 ** -20) for i in range(1024 + 100)]
        _clear_plans()
        for tol in tols:
            moment_integral(1, tol)
        info = quadrature._plan.cache_info()
        assert (info.misses, info.currsize) == (1124, 1024)
        quadrature._plan(1, -1, _cut(tols[100]))
        assert quadrature._plan.cache_info().hits == info.hits + 1
        quadrature._plan(1, -1, _cut(tols[99]))
        assert quadrature._plan.cache_info().misses == info.misses + 1

    def test_a_fresh_tolerance_plans_both_sides(self):
        """One call at a tolerance no call has used plans both of its sides:
        f'(0.06) leaves the s -> 1 side's plan (alpha 1) and its s -> 0
        side's (alpha 0), slot 0 of each filled, and no other."""
        tol = 1.234e-10
        _clear_plans()
        genfun_derivative_integral(0.06, 1, tol)
        assert quadrature._plan.cache_info().currsize == 2
        plans = [quadrature._plan(alpha, -1, _cut(tol)) for alpha in (1, 0)]
        assert all(plan[0] is not None for plan in plans)

    def test_threaded_calls_agree(self):
        """Concurrent calls give identical results."""
        def job(_):
            return _integrate(_cube_term, 4, 1, 1e-10, shape=_CUBE_ROWS).value

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(job, range(8)))
        assert len(set(values)) == 1
        assert abs(values[0] - 0.25) < 1e-12

    def test_threaded_first_use_of_column_tables(self):
        """Eight threads that build and grow every level at once, half of
        them reaching tau = 36 on their levels and half stopping far short
        of it, agree with serial calls.  The first is the kernel of
        f^(10)(0.25) with no floor, at a tol it never meets.  Each thread
        makes its call twice, the second time reading the plans the first
        left.  Starting from no plans, the threads leave the four side
        plans of the serial calls, each holding one record per level a side
        read from it and the serial record there."""
        calls = (lambda: _integrate(_setup_term, 9, -1, 1e-100, floor=0.0),
                 lambda: genfun_derivative_integral(0.06, 1, 1e-30))
        keys = [(alpha, -1, _cut(tol)) for tol, alphas in ((1e-100, (1, 9)), (1e-30, (1, 0)))
                for alpha in alphas]
        _clear_plans()
        serial = [[_bits(call()) for _ in range(2)] for call in calls]
        plans = [list(quadrature._plan(*key)) for key in keys]
        assert quadrature._plan.cache_info().currsize == 4
        assert all(first == second for first, second in serial)
        assert None not in plans[0]     # the setup kernel reads every level's s -> 1 side
        _clear_node_tables()
        _clear_plans()
        start = threading.Barrier(8, timeout=60)

        def job(i):
            start.wait()
            return [_bits(calls[i % 2]()) for _ in range(2)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads mid-growth
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(job, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(quadrature._node_levels) == list(range(quadrature.DEFAULT_MAX_LEVELS + 1))
        assert len(quadrature._node_levels[5][0]) == 576     # the full level
        assert results == serial * 4
        assert quadrature._plan.cache_info().currsize == 4
        assert [quadrature._plan(*key) for key in keys] == plans


def _hex_columns(cols) -> list:
    return [[v.hex() for v in col] for col in cols]


class TestNodeColumns:
    @pytest.mark.parametrize("level", range(quadrature.DEFAULT_MAX_LEVELS + 1))
    def test_columns_grown_in_pieces_equal_one_build(self, level):
        """A level grown through need = 1, 5, 64 and its full count holds a
        prefix of the one-shot build of all its nodes, bit for bit, and
        ends with all of them."""
        h = 2.0 ** -level
        step = 1 if level == 0 else 2
        whole = quadrature._columns([j * h for j in range(1, int(36.0 / h) + 1, step)])
        full = len(whole[0])
        with quadrature._node_lock:
            quadrature._node_levels.pop(level, None)
        for need in (1, 5, 64, full):
            cols = quadrature._level_table(level, min(need, full))
            have = len(cols[0])
            assert min(need, full) <= have <= full
            assert _hex_columns(cols) == _hex_columns(col[:have] for col in whole)
        assert have == full

    def test_calls_build_only_the_nodes_they_reach(self):
        """The setup job of perfbench/run.py, f^(10)(0.25) at tol 1e-13,
        settles above tol and stops at level 5; its kernel refined through
        level 12 (no floor, tol 1e-100) builds at most a fifth of level 12;
        and the coefficient integrals through b_300 build no level past 4."""
        _clear_node_tables()
        assert not genfun_derivative_integral(0.25, 10, 1e-13).converged
        assert max(quadrature._node_levels) == 5
        _clear_node_tables()
        _integrate(_setup_term, 9, -1, 1e-100, floor=0.0)
        assert 5 * len(quadrature._node_levels[12][0]) <= 36 << 11
        _clear_node_tables()
        for n in range(1, 301):
            bernoulli2_integral(n, 1e-10)
        assert max(quadrature._node_levels) == 4

    def test_growth_order_keeps_every_result(self):
        """A shallow call, a call that grows the levels it shares with it to
        tau = 36, and the shallow call again each match the per-node
        reference: no length or cap test goes stale after a level grows."""
        shallow = (0, 2.0, 2, 1e-10, 12)
        deep = (0, 1e3, 2, 5e-324, 12)
        _clear_node_tables()
        sizes = []
        for args in (shallow, deep, shallow):
            assert _bits(_kernel_result(*args)) == _bits(_reference_kernel(*args))
            sizes.append(len(quadrature._node_levels[2][0]))
        assert sizes[0] < sizes[1] == sizes[2] == 72


class TestResultType:
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


_SWEEP_TOLS = st.one_of(st.just(1e-30),
                        st.floats(min_value=-30.0, max_value=-3.0).map(lambda e: 10.0 ** e))


class TestCoefficientSweep:
    """bernoulli2_integrals(N, tol) is the per-n table in one level loop."""

    @settings(max_examples=25, deadline=None)
    @given(n_max=st.integers(0, 300), tol=_SWEEP_TOLS)
    @example(n_max=300, tol=1e-30)
    @example(n_max=300, tol=1e-13)
    @example(n_max=300, tol=1e-10)
    @example(n_max=1, tol=1e-3)
    def test_matches_per_n_calls(self, n_max, tol):
        """Value and estimate bits, n_evals and converged agree for every n."""
        got = quadrature.bernoulli2_integrals(n_max, tol)
        want = [bernoulli2_integral(n, tol) for n in range(1, n_max + 1)]
        assert [_bits(r) for r in got] == [_bits(r) for r in want]

    def test_sweep_and_lone_calls_agree_in_either_order(self):
        """bernoulli2_integrals(300) and then the lone call of each of its
        members, and the same in the reverse order, each from no plans,
        give the same bits: the second to run reads the plans the first
        left.  Either order plans the s -> 1 side (alpha 1) and the s -> 0
        sides that node 0 does not settle, those of b_1..b_35 (alpha
        0..34)."""
        def sweep():
            return [_bits(r) for r in quadrature.bernoulli2_integrals(300)]

        def lone():
            return [_bits(bernoulli2_integral(n)) for n in range(1, 301)]

        def plans():
            return quadrature._plan.cache_info().currsize
        _clear_plans()
        runs = [sweep()]
        sizes = [plans()]
        runs.append(lone())
        sizes.append(plans())
        _clear_plans()
        runs.append(lone())
        sizes.append(plans())
        runs.append(sweep())
        sizes.append(plans())
        assert runs[1:] == [runs[0]] * 3
        assert sizes == [35, 35, 35, 35]

    @pytest.mark.parametrize("tol", [1e-10, 1e-30])
    def test_signs_the_kernel_integrals(self, tol):
        """Entry n - 1 is K(n-1, 0, 0) with its value negated at even n and
        its estimate, n_evals and converged as the kernel gives them."""
        for n, got in enumerate(quadrature.bernoulli2_integrals(40, tol), 1):
            kernel = _kernel_result(n - 1, 0.0, 0, tol)
            sign = 1.0 if n % 2 else -1.0
            assert _bits(got) == _bits(dataclasses.replace(kernel, value=sign * kernel.value))

    def test_members_leave_at_different_levels(self):
        """At tol 1e-30 no coefficient converges and each stops where its own
        levels settle: the term counts differ, so members leave the loop
        at different levels and later ones read the levels earlier ones
        worked out."""
        results = quadrature.bernoulli2_integrals(300, 1e-30)
        assert not any(r.converged for r in results)
        assert len({r.n_evals for r in results}) > 10

    def test_empty_table(self):
        assert quadrature.bernoulli2_integrals(0, 1e-10) == []

    def test_rejects_negative_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            quadrature.bernoulli2_integrals(-1, 1e-10)

    @pytest.mark.parametrize("n_max", [0, 5])
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rejects_bad_tol_like_the_per_n_call(self, n_max, tol):
        with pytest.raises(ValueError) as per_n:
            bernoulli2_integral(1, tol)
        with pytest.raises(ValueError, match=f"^{per_n.value}$"):
            quadrature.bernoulli2_integrals(n_max, tol)

    def test_builds_the_nodes_the_per_n_calls_build(self):
        """The sweep reaches exactly as far into every level as the calls
        one n at a time."""
        sizes = []
        for run in (lambda: [bernoulli2_integral(n, 1e-13) for n in range(1, 301)],
                    lambda: quadrature.bernoulli2_integrals(300, 1e-13)):
            _clear_node_tables()
            run()
            sizes.append({level: len(cols[0]) for level, cols in quadrature._node_levels.items()})
        assert sizes[0] == sizes[1]


class TestMembers:
    """The engine's shared s -> 1 side changes no member's result."""

    @settings(max_examples=60, deadline=None)
    @given(kernels=st.lists(_KERNEL_ARGS, min_size=1, max_size=6), tol=_TOLS,
           max_levels=st.integers(1, 12))
    @example(kernels=[(299, 0.0, 0), (0, 0.0, 0), (0, 1e3, 2)], tol=5e-324, max_levels=12)
    @example(kernels=[(0, 1e3, 2), (299, 0.0, 0), (9, 0.25, 11)], tol=1e-13, max_levels=12)
    def test_each_result_is_the_lone_call(self, kernels, tol, max_levels):
        """Kernels of any shape, in any order, some reaching levels that no
        member before them reached, each get the bits of their own call."""
        got = _members([quadrature._kernel_member(*args) for args in kernels],
                       -1, tol, max_levels)
        want = [_kernel_result(*args, tol, max_levels) for args in kernels]
        assert [_bits(r) for r in got] == [_bits(r) for r in want]

    def test_later_member_reaching_further_grows_the_columns(self):
        """A member whose s -> 0 side reaches past the columns the first
        member built on a level grows them, on fresh node tables."""
        kernels = [(299, 0.0, 0), (0, 0.0, 0), (0, 1e3, 2)]
        want = [_bits(_kernel_result(*args, 1e-13)) for args in kernels]
        _clear_node_tables()
        got = _members([quadrature._kernel_member(*args) for args in kernels], -1, 1e-13)
        assert [_bits(r) for r in got] == want

    def test_s1_side_is_worked_out_once_per_level(self):
        """Every member is handed the same s -> 1 rows on a level: the row
        list itself, not a copy, on each of the levels 0..2 that every
        member runs, and the centre node's."""
        handed = []     # (member, rows), the rows kept alive

        def member(i, a):
            term, lo, floor, _ = quadrature._kernel_member(a, 0.0, 0)

            def recording(rows):
                handed.append((i, rows))
                return term(rows)
            # no x: every term, a = 0 too, comes from the term function
            return recording, lo, floor, None

        quadrature._integrate_members([member(i, a) for i, a in enumerate((0, 5, 40))],
                                      -1, 1e-10)
        members_of = {}
        for i, rows in handed:
            members_of.setdefault(id(rows), set()).add(i)
        assert sum(seen == {0, 1, 2} for seen in members_of.values()) >= 4

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_shared_rows_are_built_once_for_the_live_members(self, tol):
        """The centre node's rows and each level's kept s -> 1 rows are one
        list apiece, handed to every member that reaches the level and to
        no other; every s -> 0 side is streamed to its own member; and a
        member that has left is never handed rows again, so the rows it
        was handed hold exactly its n_evals nodes."""
        kernels = [(0, 0.0, 0), (40, 0.0, 0), (5, 0.0, 0), (299, 0.0, 0), (2, 0.0, 0)]
        handed = []     # (member, rows, number of rows) in call order; keeps the rows alive

        def member(i, a):
            term, lo, floor, _ = quadrature._kernel_member(a, 0.0, 0)

            def recording(rows):
                rows_seen = rows if isinstance(rows, list) else list(rows)
                handed.append((i, rows, len(rows_seen)))
                return term(rows_seen)
            # no x: every term, a = 0 too, comes from the term function
            return recording, lo, floor, None

        got = _members([member(i, args[0]) for i, args in enumerate(kernels)], -1, tol)
        want = [_kernel_result(*args, tol) for args in kernels]
        assert [_bits(r) for r in got] == [_bits(r) for r in want]
        order = [i for i, _, _ in handed]
        assert order == sorted(order)       # one member at a time: once left, never again
        shared = {i: [rows for j, rows, _ in handed if j == i and isinstance(rows, list)]
                  for i in range(len(kernels))}
        deepest = max(shared.values(), key=len)
        assert len({len(rows) for rows in shared.values()}) > 1     # members leave apart
        for rows in shared.values():
            assert [id(r) for r in rows] == [id(r) for r in deepest[:len(rows)]]
        streamed = [id(rows) for _, rows, _ in handed if not isinstance(rows, list)]
        assert len(streamed) == len(set(streamed))
        for i, result in enumerate(got):
            assert sum(count for j, _, count in handed if j == i) == result.n_evals

    def test_lone_member_streams_every_side(self):
        """A list of one builds no row list: no other member reads its rows."""
        handed = []
        term, lo, floor, flat = quadrature._kernel_member(3, 0.0, 0)

        def recording(rows):
            handed.append(rows)
            return term(rows)

        got = _members([(recording, lo, floor, flat)], -1, 1e-10)[0]
        assert _bits(got) == _bits(_kernel_result(3, 0.0, 0, 1e-10))
        assert handed and not any(isinstance(rows, list) for rows in handed)


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

    @pytest.mark.parametrize("x", [1e307, 1e308, _MAX])
    def test_finite_at_the_top_of_the_float_range(self, x):
        """Every term jac*s*sigc*base^(s-1) is finite, so the value stays
        within 2e-16 relative of x/ln(1+x) where (1+x)^s times the Jacobian
        would overflow.  tol/(1+x) is below every term there, so the result
        honestly reports converged=False."""
        result = bernstein_identity(x, 1e-10)
        truth = _closed_form("genfun", x)
        assert math.isfinite(result.abs_error_estimate)
        assert not result.converged
        assert abs(result.value - truth) <= 2e-16 * truth


_LOG_UNIFORM_X = st.floats(min_value=-3.0, max_value=300.0).map(lambda e: 10.0 ** e)
_LOG_UNIFORM_TOL = st.floats(min_value=-14.0, max_value=-4.0).map(lambda e: 10.0 ** e)


class TestHonesty:
    """A converged value lies within tol + 4 ulp of the truth."""

    @staticmethod
    def _assert_honest(result, truth, tol):
        if result.converged:
            assert abs(result.value - truth) <= tol + 4 * math.ulp(truth)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(function=st.sampled_from(["recip-log", "genfun", "derivative"]),
           x=_LOG_UNIFORM_X, tol=_LOG_UNIFORM_TOL)
    # the s -> 0 side's mass sits at s ~ 1/x, past tau = 6: a side that had
    # to stop three small terms after tau = 6 missed it
    @example(function="derivative", x=1e300, tol=1e-10)
    # levels 1 and 2, then 2 and 3, agree far better than the level before
    # predicts while the error is 40x, then 1.1x, tol
    @example(function="recip-log", x=115.3523840664048, tol=1.38327765454599e-08)
    @example(function="recip-log", x=212.8243644359736, tol=6.704070826756582e-12)
    def test_closed_forms(self, function, x, tol):
        """1/ln(1+x), x/ln(1+x) and f'(x) for x in 1e-3..1e300."""
        call = {"recip-log": stieltjes_recip_log, "genfun": genfun_integral,
                "derivative": lambda x, tol: genfun_derivative_integral(x, 1, tol)}
        self._assert_honest(call[function](x, tol), _closed_form(function, x), tol)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), tol=_LOG_UNIFORM_TOL)
    # levels 0 and 1 (5 terms) agree by chance here, 3.5e-5 from b_131
    @example(n=131, tol=10.0 ** -4.5)
    def test_coefficients(self, n, tol):
        """b_n for n <= 300 against the exact series table."""
        self._assert_honest(bernoulli2_integral(n, tol), float(_exact_table()[n]), tol)


_SMALL_X = st.one_of(st.floats(min_value=-4.0, max_value=math.log10(0.5)).map(lambda e: 10.0 ** e),
                     st.floats(min_value=1e-4, max_value=0.5))


class TestRoundingFloor:
    """High-order kernels: the floor covers the terms' rounding."""

    @pytest.mark.parametrize("k, x, tol", [
        # evaluate jobs of the benchmark: seed 201 job 3559, seed 1203 job 3110
        (13, 0.24006516815904422, 6.126489110153845e-10),
        (14, 0.043715986743975865, 8.396741540373791e-08),
        # false convergences of tools/derivative_scan.py over seeds 1-200
        (13, 0.42528863100613756, 3.869992827422916e-11),
        (13, 0.2205689753457588, 3.489653107423443e-10),
        (15, 0.09141250193457451, 4.4286985408113813e-07),
        (11, 0.07766986324991454, 1.7186450170115487e-11),
        (12, 0.016573193811195985, 7.757902453342428e-10)])
    def test_small_x_high_order_derivative_is_honest(self, k, x, tol):
        """Each of these claimed convergence 2-8 tol from the truth under a
        flat floor of one rounding, with levels that agreed to a few ulp."""
        result = genfun_derivative_integral(x, k, tol)
        TestHonesty._assert_honest(result, closed_derivative(x, k), tol)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(k=st.integers(1, 20), x=_SMALL_X,
           rel=st.floats(min_value=-17.0, max_value=-9.0).map(lambda e: 10.0 ** e))
    @example(k=14, x=0.043715986743975865, rel=8.396741540373791e-08 / 205184741.95233643)
    def test_derivative_sweep(self, k, x, rel):
        """f^(k)(x) for k <= 20 and x in (0, 1/2] at tol from 1e-17 to 1e-9
        of |f^(k)(x)|, the band where the floor decides convergence."""
        truth = closed_derivative(x, k)
        tol = rel * abs(truth)
        TestHonesty._assert_honest(genfun_derivative_integral(x, k, tol), truth, tol)

    @pytest.mark.parametrize("a, x, p", [
        (12, 0.24006516815904422, 14), (13, 0.043715986743975865, 15),
        (19, 0.01, 21), (19, 0.0, 0), (2, 0.3, 4), (0, 0.5, 1), (0, 1e3, 1)])
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_floor_covers_the_term_errors(self, a, x, p, level):
        """On the step-2**-level grid, the term errors against terms taken
        exactly at the nodes, summed with their worst signs, stay below the
        floor times the total."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        grid = [nd for lv in range(level + 1) for nd in _reference_level(lv)]
        terms = []
        for node in grid + [_mirror(nd) for nd in grid if nd[0] > 0.0]:
            tau, y, sig, sigc, jac = node
            try:
                got = jac * sigc * sig ** a / ((y * y + math.pi * math.pi) * (1.0 + x * sig) ** p)
            except OverflowError:
                continue
            terms.append((got, tau))
        big = max(t for t, _ in terms)
        error = 0.0
        for got, tau in terms:
            if got < 1e-25 * big:
                continue
            t = mpmath.mpf(tau)
            y = mpmath.pi * mpmath.sinh(t)
            s, c = 1 / (1 + mpmath.exp(-y)), 1 / (1 + mpmath.exp(y))
            exact = mpmath.pi * mpmath.cosh(t) * c * s ** a / ((y * y + mpmath.pi ** 2) * (1 + x * s) ** p)
            error += abs(float(got - exact))
        total = math.fsum(t for t, _ in terms)
        assert error <= _kernel_floor(a, x, p) * total

    @pytest.mark.parametrize("k", [1, 22, 23, 40, 170])
    def test_estimate_covers_the_factorial_scaling(self, k):
        """The k! product adds one rounding of the value to the estimate,
        and past k = 22, where float(k!) is inexact, a second one."""
        kfac = float(math.factorial(k))
        raw = _kernel_result(k - 1, 0.0, k + 1, quadrature._inner_tol(1e-300, kfac))
        got = genfun_derivative_integral(0.0, k, 1e-300)
        roundings = 1 if k <= 22 else 2
        assert (kfac == math.factorial(k)) == (k <= 22)
        assert got.abs_error_estimate == (kfac * raw.abs_error_estimate
                                          + roundings * 2.0 ** -53 * abs(got.value))


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

"""Double-exponential quadrature for the logarithmic-kernel integrals.

Every integral evaluated here involves the density

    w(t) = 1 / ((ln(t-1))^2 + pi^2)        on (1, inf),

or, after the substitution t = 1/s, its unit-interval form

    v(s) = 1 / ((ln((1-s)/s))^2 + pi^2)    on (0, 1),

which is symmetric about s = 1/2.  Each kernel quantity -- the signed
coefficients b_n, the moments mu_n, 1/ln(1+x), x/ln(1+x), its k-th
derivative and the shifted kernel h_n(x) -- is one member of the family

    K(a, x, p) = integral_0^1 v(s) s^(a-1) / (1 + x s)^p ds

with its own exponents, followed by a scaling.  A single tanh-sinh
engine evaluates K.  The variable change

    s = sigma(y),  y = pi * sinh(tau),  sigma(y) = 1/(1 + exp(-y)),

turns K into a trapezoid sum over tau with the one term

    jac * sigc * sig^a / ((y^2 + pi^2) * (1 + x sig)^p),

    jac = pi * cosh(tau),  sig = sigma(y) = s,  sigc = sigma(-y) = 1-s,

where 1/(y^2 + pi^2) IS v(s), since ln((1-s)/s) = -y.  The logarithm in
the kernel is therefore available exactly even where s or 1 - s
underflows.  As y^2 + pi^2 = (pi cosh tau)^2, every term is bounded in
advance by sigma(-|y|)^alpha / (pi cosh tau), with alpha = 1 on the
s -> 1 side and alpha = a on the s -> 0 side; the engine stops each
side where that bound falls below a fixed fraction of tol and adds the
bound on what it dropped to the error estimate.  It hands a term
function whole columns of nodes, so a kernel's terms come from one list
comprehension per side and level.  :func:`bernstein_identity`, the one
integral without the kernel, has a column term and envelope of its own.

Tolerances are absolute error targets throughout; callers wanting a
relative target scale tol by a magnitude estimate first.  Every public
function refines through DEFAULT_MAX_LEVELS levels.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

PI = math.pi
_PI_SQ = PI * PI

DEFAULT_TOL = 1e-10
DEFAULT_MAX_LEVELS = 12     # dyadic refinements; about 2^12 nodes per side
_MIN_LEVEL = 2              # first level whose estimate may claim convergence
_T_MAX = 36.0               # |tau| cap; slowest tail is ~exp(-tau) < 3e-16 there


class IntegrandEvaluationError(ArithmeticError):
    """An integrand returned a non-finite value; carries the abscissa."""

    def __init__(self, abscissa: float, value: float):
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"integrand evaluated to {value!r} at s={abscissa!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate and run diagnostics of one quadrature call.

    ``converged=True`` implies ``abs_error_estimate <= tol`` as requested
    by the caller, and ``n_evals`` is always positive by the time any
    result is produced.  ``n_evals`` counts the terms summed: every term
    computed, as no side computes a term past the node where it stops.
    """

    value: float
    abs_error_estimate: float
    n_evals: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "abs_error": self.abs_error_estimate,
            "n_evals": self.n_evals,
            "converged": self.converged,
        }


# ----------------------------------------------------------------------
# node table
#
# Nodes sit at tau >= 0 and are stored as four columns: sig = sigma(y),
# sigc = sigma(-y) (both computed without cancellation), jac =
# pi*cosh(tau) and d = y^2 + pi^2, with y = pi*sinh(tau).  Level 0 holds
# tau = j for the integers 1 <= j <= 36 (tau = 0 is the separate _CENTER
# node); level L >= 1 holds tau = j * 2**-L for odd j, so the union
# through level L is the full step-2**-L grid.  Swapping the sig and sigc
# columns mirrors a side to -tau, since y^2, and with it d, is even.  A
# level's columns hold a prefix of its nodes and grow on demand, doubling
# up to the level's full count; growth swaps in longer tuples under a
# lock, so a caller keeps an immutable copy and concurrent calls stay safe.
# ----------------------------------------------------------------------

_node_lock = threading.Lock()
_node_levels: dict[int, tuple] = {}


def _columns(taus: list[float]) -> tuple[tuple[float, ...], ...]:
    ys = [PI * math.sinh(tau) for tau in taus]
    es = [math.exp(-y) for y in ys]            # y >= 0 for tau >= 0
    return (tuple([1.0 / (1.0 + e) for e in es]),
            tuple([e / (1.0 + e) for e in es]),
            tuple([PI * math.cosh(tau) for tau in taus]),
            tuple([y * y + _PI_SQ for y in ys]))


_CENTER = _columns([0.0])


def _level_table(level: int, need: int) -> tuple:
    """The columns of a level, holding at least its first `need` nodes."""
    cols = _node_levels.get(level)
    if cols is not None and len(cols[0]) >= need:
        return cols
    with _node_lock:
        cols = _node_levels.get(level, ((),) * 4)
        have = len(cols[0])
        if have < need:   # re-check under the lock
            h = 2.0 ** -level
            step = 1 if level == 0 else 2
            top = min(max(need, 2 * have), int(_T_MAX / h) // step)
            grown = _columns([(step * i + 1) * h for i in range(have, top)])
            cols = _node_levels[level] = tuple(map(tuple.__add__, cols, grown))
        return cols


def _integrate_transformed(term, alphas: tuple, beta: int, tol: float,
                           max_levels: int) -> QuadratureResult:
    """Trapezoid-in-tau summation of one weighted term function.

    term(sig, sigc, jac, d) maps equal-length node columns to an iterable
    of the transformed integrand's terms (Jacobian included), one per
    node and in node order; the terms are finite and never negative.
    Each side is bounded in advance by the envelope

        M(tau) = sigma(-pi sinh|tau|)**alpha * (pi cosh tau)**beta,

    with alphas = (alpha on the s -> 1 side, alpha on the s -> 0 side):
    every term at tau is at most M(tau).  M decreases in |tau| at the
    rate alpha*sigma(|y|)*pi*cosh(tau) - beta*tanh|tau|, which is at
    least r, that rate taken at the last node kept with tanh replaced by
    1 if beta > 0; r must be positive (alpha*pi/2 > beta when beta > 0).

    On each level a side computes terms only for the nodes before the
    first one where M falls to the cut 4e-3*tol: a forward scan on level
    0, and on a finer level one test of the node halfway between the last
    node kept and the first dropped.  The nodes it drops then sum to at
    most cut * (h + 1/r); a side whose envelope is still above the cut
    at tau = 36 adds M/r taken there instead.  A level's node columns are
    built only as far as these tests and terms reach.

    Levels halve the step until the error estimate meets tol.  The
    estimate adds both sides' truncation bounds and a rounding floor of
    1.1e-16 * total to the larger of the last level-to-level difference
    d and total * (d'/total)**3, d' being the difference before it.
    Under double-exponential convergence the relative error roughly
    squares per level, so d approximates the previous level's error,
    which bounds this one's, and d falls below the cube term only when
    two coarse levels agree by chance while neither resolves the
    integrand (the cube, not the square, leaves room for the model's
    unknown prefactor).  Levels 0 and 1 hold a handful of nodes and have
    no difference before theirs, so convergence is claimed from level
    _MIN_LEVEL on.  Terms are accumulated with math.fsum so the rounding
    floor is not optimistic.  n_evals counts the terms summed.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    fsum, tanh = math.fsum, math.tanh
    hi, lo = alphas     # alpha on the s -> 1 side, on the s -> 0 side
    terms: list[float] = list(term(*_CENTER))
    prev_total = None
    prev_diff = None
    est = math.inf
    value = 0.0
    converged = False
    stagnant = 0
    cut = max(4e-3 * tol, 2e-281)
    # per side, the first node of the step-h grid whose envelope is at
    # most cut, as j in tau = j*h (36/h + 1 while none is)
    first_hi = first_lo = 0
    for level in range(0, max_levels + 1):
        h = 2.0 ** -level
        step = 1 if level == 0 else 2
        full = int(_T_MAX / h) // step      # the level's node count
        if level == 0:
            sig, sigc, jac, d = _level_table(0, full)
            stop_hi = stop_lo = 0
            while stop_hi < full and sigc[stop_hi] ** hi * jac[stop_hi] ** beta > cut:
                stop_hi += 1
            while stop_lo < full and sigc[stop_lo] ** lo * jac[stop_lo] ** beta > cut:
                stop_lo += 1
            first_hi, first_lo = stop_hi + 1, stop_lo + 1
        else:
            # a side reads this level's nodes only below its previous first
            need = first_hi if first_hi > first_lo else first_lo
            sig, sigc, jac, d = _level_table(level, need if need < full else full)
            # M decreases, so the only node of this level still open on a
            # side is the one between its last node kept and first dropped
            new = first_hi - 1
            first_hi = 2 * first_hi - (new == full or sigc[new] ** hi * jac[new] ** beta <= cut)
            new = first_lo - 1
            first_lo = 2 * first_lo - (new == full or sigc[new] ** lo * jac[new] ** beta <= cut)
            stop_hi, stop_lo = first_hi // 2, first_lo // 2
        terms.extend(term(sig[:stop_hi], sigc[:stop_hi], jac[:stop_hi], d[:stop_hi]))
        terms.extend(term(sigc[:stop_lo], sig[:stop_lo], jac[:stop_lo], d[:stop_lo]))
        # k is a side's last node kept (its first node if none is): r
        # taken there bounds the envelope's decay past every dropped node
        k = stop_hi - 1 if stop_hi else 0
        r = hi * sig[k] * jac[k] - beta * (1.0 if beta > 0 else tanh((step * k + 1) * h))
        trunc = cut * (h + 1.0 / r) if stop_hi < full else sigc[k] ** hi * jac[k] ** beta / r
        k = stop_lo - 1 if stop_lo else 0
        r = lo * sig[k] * jac[k] - beta * (1.0 if beta > 0 else tanh((step * k + 1) * h))
        trunc += cut * (h + 1.0 / r) if stop_lo < full else sigc[k] ** lo * jac[k] ** beta / r
        total = h * fsum(terms)
        if prev_total is None:
            prev_total = total
            continue
        diff = abs(total - prev_total)
        # the error, relative to the total, roughly squares from one level
        # to the next; a difference below even the cube of the one before
        # is two coarse levels agreeing by chance, not convergence
        predicted = 0.0 if prev_diff is None else (
            total * (prev_diff / total) ** 3 if total > prev_diff else prev_diff)
        est = max(diff, predicted) + trunc + 1.1e-16 * total
        prev_diff = diff
        value = total
        prev_total = total
        if est <= tol and level >= _MIN_LEVEL:
            converged = True
            break
        if diff <= max(1e-16 * abs(total), 1e-300):
            stagnant += 1
            if stagnant >= 2:
                break   # at machine precision; further levels cannot help
        else:
            stagnant = 0
    return QuadratureResult(value=value, abs_error_estimate=est,
                            n_evals=len(terms), converged=converged)


def _rescaled(raw: QuadratureResult, value: float, est: float, tol: float) -> QuadratureResult:
    # converged must keep implying est <= tol after post-scaling
    return QuadratureResult(value=value, abs_error_estimate=est,
                            n_evals=raw.n_evals,
                            converged=raw.converged and est <= tol)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def _kernel(a: int, x: float, p: int, tol: float,
            max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """K(a, x, p) = integral_0^1 v(s) s^(a-1) / (1+xs)^p ds, unscaled.

    Every term is jac*sigc*sig**a / (d*(1+x*sig)**p), finite and never
    negative for finite x >= 0.  As jac/d = 1/(pi cosh tau), sig**a <= 1,
    sigc <= 1 and (1+x*sig)**-p <= 1, a term is at most
    sigma(-|y|)/(pi cosh tau) on the s -> 1 side and
    sigma(-|y|)**a/(pi cosh tau) on the s -> 0 side, for every x: the
    engine's envelopes never cut the mass of a peaked integrand.  The
    special cases below drop only factors that are exactly 1.0 in IEEE
    arithmetic, so they round identically.
    """
    if p == 0 or x == 0.0:
        if a == 0:
            def term(sig, sigc, jac, d):
                return [j * c / e for c, j, e in zip(sigc, jac, d)]
        else:
            def term(sig, sigc, jac, d):
                return [j * c * s ** a / e for s, c, j, e in zip(sig, sigc, jac, d)]
    elif p == 1:
        if a == 0:
            def term(sig, sigc, jac, d):
                return [j * c / (e * (1.0 + x * s)) for s, c, j, e in zip(sig, sigc, jac, d)]
        else:
            def term(sig, sigc, jac, d):
                return [j * c * s ** a / (e * (1.0 + x * s))
                        for s, c, j, e in zip(sig, sigc, jac, d)]
    else:
        def one(s, c, j, e):
            try:
                return j * c * s ** a / (e * (1.0 + x * s) ** p)
            except OverflowError:
                # (1+x sig)^p > 1.8e308 puts the term below ~1e-290, under
                # the engine's 1e-280 cutoff, so 0.0 keeps the estimate honest
                return 0.0

        def term(sig, sigc, jac, d):
            try:
                return [j * c * s ** a / (e * (1.0 + x * s) ** p)
                        for s, c, j, e in zip(sig, sigc, jac, d)]
            except OverflowError:
                return list(map(one, sig, sigc, jac, d))
    return _integrate_transformed(term, (1, a), -1, tol, max_levels)


def _inner_tol(tol: float, scale: float) -> float:
    # tol/scale can underflow to 0.0 for a valid tol; floor it at the
    # smallest subnormal, and let an invalid tol through to be rejected
    return max(tol / scale, math.ulp(0.0)) if tol > 0.0 else tol


def bernoulli2_integral(n: int, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Signed b_n from the ray integral of the logarithmic kernel.

        b_n = (-1)**(n+1) * integral_1^inf dt / (((ln(t-1))^2 + pi^2) t^n)

    for n >= 1; the integral diverges at n = 0.  Computed after t = 1/s
    as the unit-interval integral of s**(n-2) v(s), with the sign folded
    into the returned value.
    """
    if n < 1:
        raise ValueError("integral representation needs n >= 1 (diverges at n = 0)")
    raw = _kernel(n - 1, 0.0, 0, tol)
    sign = 1.0 if n % 2 == 1 else -1.0
    return _rescaled(raw, sign * raw.value, raw.abs_error_estimate, tol)


def moment_integral(n: int, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """mu_n = integral_0^1 s**(n-1) v(s) ds for n >= 0.

    This is the Hausdorff moment form of the coefficients: the value
    equals (-1)**n b_{n+1}, always positive.
    """
    if n < 0:
        raise ValueError("moment index must be >= 0")
    return _kernel(n, 0.0, 0, tol)


def stieltjes_recip_log(x: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """1/ln(1+x) for finite x > 0 through its Stieltjes representation.

    Evaluates 1/x + integral_1^inf w(t)/(x+t) dt; under t = 1/s the
    integral part becomes integral_0^1 v(s)/(s(1+xs)) ds.  The error
    estimate adds one rounding ulp of the 1/x term to the quadrature
    estimate.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    tail = _kernel(0, x, 1, tol)
    value = 1.0 / x + tail.value
    est = tail.abs_error_estimate + 2.3e-16 * abs(1.0 / x)
    return _rescaled(tail, value, est, tol)


def genfun_integral(x: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """x/ln(1+x) for finite x > 0 as 1 + x * (Stieltjes tail integral).

    The inner quadrature runs at tol/max(x, 1) so that tol stays an
    absolute target on the returned value after the x scaling.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    tail = _kernel(0, x, 1, _inner_tol(tol, max(x, 1.0)))
    value = 1.0 + x * tail.value
    est = x * tail.abs_error_estimate + 2.3e-16 * abs(value)
    return _rescaled(tail, value, est, tol)


def genfun_derivative_integral(x: float, k: int, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """k-th derivative of x/ln(1+x) at finite x >= 0, 1 <= k <= 170, by quadrature.

        d^k/dx^k [x/ln(1+x)]
            = (-1)**(k+1) k! * integral_1^inf w(t) t / (x+t)^{k+1} dt
            = (-1)**(k+1) k! * integral_0^1 v(s) s^{k-2} / (1+xs)^{k+1} ds.

    At x = 0 the value is k! b_k.  k! overflows a double beyond k = 170.
    tol is absolute on the returned (k!-scaled) value, so the inner
    integral runs at tol/k!; for large k that can sit below the
    double-precision floor, in which case the result honestly reports
    converged=False while the value is still the best the engine can do.
    Callers with a relative target should pass tol scaled by a magnitude
    estimate of k! b_k.
    """
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    if k > 170:
        raise ValueError("derivative order k must be <= 170")
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be >= 0 and finite")
    kfac = float(math.factorial(k))
    raw = _kernel(k - 1, x, k + 1, _inner_tol(tol, kfac))
    sign = 1.0 if k % 2 == 1 else -1.0
    return _rescaled(raw, sign * kfac * raw.value, kfac * raw.abs_error_estimate, tol)


def shifted_kernel_integral(n: int, x: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """h_n(x) = integral_1^inf dt / (((ln(t-1))^2 + pi^2) (t+x)^n).

    Defined for n >= 1 and finite x >= 0; h_n(0) is the unsigned coefficient
    integral |b_n|, and h_n is completely monotonic in x.  Computed as
    integral_0^1 v(s) s^{n-2} / (1+xs)^n ds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be >= 0 and finite")
    return _kernel(n - 1, x, n, tol)


def bernstein_identity(x: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """integral_0^1 (1+x)^t dt for finite x > 0; equals x/ln(1+x).

    A kernel-free second pipeline that cross-checks the transformed
    kernels end to end: no v(s), just the integrand (1+x)^s.  It is
    summed as base * integral_0^1 base^(s-1) ds with base = 1+x, whose
    terms jac*s*sigc*base^(-sigc) (1 - s = sigc exactly) never exceed
    jac*sigma(-|y|) and stay finite up to the largest double, and the
    inner quadrature runs at tol/base.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    base = 1.0 + x

    def term(sig, sigc, jac, d):
        return [j * s * c * base ** -c for s, c, j in zip(sig, sigc, jac)]
    raw = _integrate_transformed(term, (1, 1), 1, _inner_tol(tol, base), DEFAULT_MAX_LEVELS)
    return _rescaled(raw, base * raw.value, base * raw.abs_error_estimate, tol)


def stieltjes_weight(t: float) -> float:
    """w(t) = 1/((ln(t-1))^2 + pi^2) on (1, inf); peak value 1/pi^2 at t = 2."""
    if not t > 1.0:
        raise ValueError("w is defined for t > 1")
    lg = math.log(t - 1.0)
    return 1.0 / (lg * lg + _PI_SQ)


def stieltjes_weight_unit(s: float) -> float:
    """v(s) = w(1/s) pulled back to (0, 1); symmetric about s = 1/2.

    Computed as 1/((log1p(-s) - log(s))^2 + pi^2) so both endpoint
    approaches stay fully accurate.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("v is defined on the open interval (0, 1)")
    lg = math.log1p(-s) - math.log(s)
    return 1.0 / (lg * lg + _PI_SQ)

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
underflows.  Arbitrary caller integrands go through :func:`integrate_01`,
which evaluates f at the abscissa s directly.

Tolerances are absolute error targets throughout; callers wanting a
relative target scale tol by a magnitude estimate first.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

PI = math.pi
_PI_SQ = PI * PI

DEFAULT_TOL = 1e-10
DEFAULT_MAX_LEVELS = 12     # dyadic refinements; about 2^12 nodes per side
_T_MAX = 36.0               # |tau| cap; slowest tail is ~exp(-tau) < 3e-16 there
_SMALLEST_NORMAL = sys.float_info.min


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
    result is produced.
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
# One node per abscissa tau >= 0, stored as (tau, y, sig, sigc, jac) with
# y = pi*sinh(tau), sig = sigma(y), sigc = sigma(-y) (both computed
# without cancellation), jac = pi*cosh(tau).  Level 0 holds tau = j for
# all integers j; level L >= 1 holds tau = j * 2**-L for odd j, so the
# union through level L is the full step-2**-L grid.  Negative tau is
# obtained by mirroring.  The table is immutable once built; building is
# guarded by a lock so concurrent first calls stay safe.
# ----------------------------------------------------------------------

_node_lock = threading.Lock()
_node_levels: dict[int, tuple[tuple[float, float, float, float, float], ...]] = {}


def _make_node(tau: float) -> tuple[float, float, float, float, float]:
    y = PI * math.sinh(tau)
    e = math.exp(-abs(y))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    if y >= 0.0:
        sig, sigc = big, small
    else:
        sig, sigc = small, big
    return (tau, y, sig, sigc, PI * math.cosh(tau))


def _level_nodes(level: int) -> tuple[tuple[float, float, float, float, float], ...]:
    try:
        return _node_levels[level]
    except KeyError:
        pass
    with _node_lock:
        if level not in _node_levels:   # re-check under the lock
            h = 2.0 ** -level
            top = int(_T_MAX / h)
            js = range(0, top + 1) if level == 0 else range(1, top + 1, 2)
            _node_levels[level] = tuple(_make_node(j * h) for j in js)
        return _node_levels[level]


def _mirror(nd):
    tau, y, sig, sigc, jac = nd
    return (-tau, -y, sigc, sig, jac)


def _integrate_transformed(g, tol: float, max_levels: int) -> QuadratureResult:
    """Trapezoid-in-tau summation of one weighted term function g.

    g maps a node tuple to one term of the transformed integrand
    (Jacobian included).  Levels halve the step until the error estimate
    meets tol; the estimate combines the last level-to-level difference,
    the magnitude of the outermost significant terms on each side (tail
    truncation), and a rounding floor proportional to sum(|terms|).
    Terms are accumulated with math.fsum so the rounding floor is not
    optimistic.  A side may stop early once its terms fall below a small
    fraction of tol; the last significant magnitude seen there feeds the
    tail part of the estimate, so nothing is dropped silently.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    gvals: list[float] = []
    absvals: list[float] = []
    prev_total = None
    est = math.inf
    value = 0.0
    converged = False
    stagnant = 0
    cutoff = max(0.02 * tol, 1e-280)
    for level in range(0, max_levels + 1):
        h = 2.0 ** -level
        nodes = _level_nodes(level)
        if level == 0:
            v = g(nodes[0])
            if not math.isfinite(v):
                raise IntegrandEvaluationError(nodes[0][2], v)
            gvals.append(v)
            absvals.append(abs(v))
            nodes = nodes[1:]
        edges = 0.0
        for side in (nodes, map(_mirror, nodes)):
            tiny = 0
            edge = 0.0
            for nd in side:
                v = g(nd)
                if not math.isfinite(v):
                    raise IntegrandEvaluationError(nd[2], v)
                gvals.append(v)
                absvals.append(abs(v))
                if abs(v) > cutoff:
                    tiny = 0
                    edge = abs(v)
                else:
                    tiny += 1
                    if abs(nd[0]) >= 6.0 and tiny >= 3:
                        break
            edges += edge
        total = h * math.fsum(gvals)
        abs_total = h * math.fsum(absvals)
        tail = 2.0 * edges
        if prev_total is None:
            prev_total = total
            continue
        diff = abs(total - prev_total)
        est = diff + tail + 1.1e-16 * abs_total
        value = total
        prev_total = total
        if est <= tol:
            converged = True
            break
        if diff <= max(1e-16 * abs(total), 1e-300):
            stagnant += 1
            if stagnant >= 2:
                break   # at machine precision; further levels cannot help
        else:
            stagnant = 0
    return QuadratureResult(value=value, abs_error_estimate=est,
                            n_evals=len(gvals), converged=converged)


def _rescaled(raw: QuadratureResult, value: float, est: float, tol: float) -> QuadratureResult:
    # converged must keep implying est <= tol after post-scaling
    return QuadratureResult(value=value, abs_error_estimate=est,
                            n_evals=raw.n_evals,
                            converged=raw.converged and est <= tol)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def integrate_01(f, tol: float = DEFAULT_TOL,
                 max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """Integrate a caller-supplied f over (0, 1) to absolute tolerance.

    The rule never evaluates the endpoints.  Abscissas closer to an
    endpoint than the smallest normal double fall outside the rule; the
    mass they would carry is covered by the tail term of the error
    estimate, so f only ever sees normal s with 0 < s < 1.  Endpoint
    singularities integrable against the double-exponential weight
    (log-type and worse) are handled without special casing.

    Returns converged=False, never raises, when tol is not met within
    max_levels refinements.  A non-finite f(s) aborts with an
    :class:`IntegrandEvaluationError` identifying s.
    """
    def g(nd):
        s = nd[2]
        if s < _SMALLEST_NORMAL or s >= 1.0:
            return 0.0
        fv = f(s)
        if not math.isfinite(fv):
            raise IntegrandEvaluationError(s, fv)
        return fv * nd[4] * s * nd[3]
    return _integrate_transformed(g, tol, max_levels)


def _kernel(a: int, x: float, p: int, tol: float, max_levels: int) -> QuadratureResult:
    """K(a, x, p) = integral_0^1 v(s) s^(a-1) / (1+xs)^p ds, unscaled."""
    def g(nd):
        _, y, sig, sigc, jac = nd
        try:
            return jac * sigc * sig ** a / ((y * y + _PI_SQ) * (1.0 + x * sig) ** p)
        except OverflowError:
            # (1+x sig)^p > 1.8e308 puts the term below ~1e-290, under the
            # engine's 1e-280 cutoff, so 0.0 keeps the error estimate honest
            return 0.0
    return _integrate_transformed(g, tol, max_levels)


def _inner_tol(tol: float, scale: float) -> float:
    # tol/scale can underflow to 0.0 for a valid tol; floor it at the
    # smallest subnormal, and let an invalid tol through to be rejected
    return max(tol / scale, math.ulp(0.0)) if tol > 0.0 else tol


def bernoulli2_integral(n: int, tol: float = DEFAULT_TOL,
                        max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """Signed b_n from the ray integral of the logarithmic kernel.

        b_n = (-1)**(n+1) * integral_1^inf dt / (((ln(t-1))^2 + pi^2) t^n)

    for n >= 1; the integral diverges at n = 0.  Computed after t = 1/s
    as the unit-interval integral of s**(n-2) v(s), with the sign folded
    into the returned value.
    """
    if n < 1:
        raise ValueError("integral representation needs n >= 1 (diverges at n = 0)")
    raw = _kernel(n - 1, 0.0, 0, tol, max_levels)
    sign = 1.0 if n % 2 == 1 else -1.0
    return _rescaled(raw, sign * raw.value, raw.abs_error_estimate, tol)


def moment_integral(n: int, tol: float = DEFAULT_TOL,
                    max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """mu_n = integral_0^1 s**(n-1) v(s) ds for n >= 0.

    This is the Hausdorff moment form of the coefficients: the value
    equals (-1)**n b_{n+1}, always positive.
    """
    if n < 0:
        raise ValueError("moment index must be >= 0")
    return _kernel(n, 0.0, 0, tol, max_levels)


def stieltjes_recip_log(x: float, tol: float = DEFAULT_TOL,
                        max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """1/ln(1+x) for x > 0 through its Stieltjes representation.

    Evaluates 1/x + integral_1^inf w(t)/(x+t) dt; under t = 1/s the
    integral part becomes integral_0^1 v(s)/(s(1+xs)) ds.  The error
    estimate adds one rounding ulp of the 1/x term to the quadrature
    estimate.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    tail = _kernel(0, x, 1, tol, max_levels)
    value = 1.0 / x + tail.value
    est = tail.abs_error_estimate + 2.3e-16 * abs(1.0 / x)
    return _rescaled(tail, value, est, tol)


def genfun_integral(x: float, tol: float = DEFAULT_TOL,
                    max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """x/ln(1+x) for x > 0 as 1 + x * (Stieltjes tail integral).

    The inner quadrature runs at tol/max(x, 1) so that tol stays an
    absolute target on the returned value after the x scaling.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    tail = _kernel(0, x, 1, _inner_tol(tol, max(x, 1.0)), max_levels)
    value = 1.0 + x * tail.value
    est = x * tail.abs_error_estimate + 2.3e-16 * abs(value)
    return _rescaled(tail, value, est, tol)


def genfun_derivative_integral(x: float, k: int, tol: float = DEFAULT_TOL,
                               max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """k-th derivative of x/ln(1+x) at x >= 0, 1 <= k <= 170, by quadrature.

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
    if x < 0.0:
        raise ValueError("x must be >= 0")
    kfac = float(math.factorial(k))
    raw = _kernel(k - 1, x, k + 1, _inner_tol(tol, kfac), max_levels)
    sign = 1.0 if k % 2 == 1 else -1.0
    return _rescaled(raw, sign * kfac * raw.value, kfac * raw.abs_error_estimate, tol)


def shifted_kernel_integral(n: int, x: float, tol: float = DEFAULT_TOL,
                            max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """h_n(x) = integral_1^inf dt / (((ln(t-1))^2 + pi^2) (t+x)^n).

    Defined for n >= 1 and x >= 0; h_n(0) is the unsigned coefficient
    integral |b_n|, and h_n is completely monotonic in x.  Computed as
    integral_0^1 v(s) s^{n-2} / (1+xs)^n ds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 0.0:
        raise ValueError("x must be >= 0")
    return _kernel(n - 1, x, n, tol, max_levels)


def bernstein_identity(x: float, tol: float = DEFAULT_TOL,
                       max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """integral_0^1 (1+x)^t dt for x > 0; equals x/ln(1+x).

    Deliberately routed through the generic :func:`integrate_01` path (a
    kernel-free second pipeline) so it cross-checks the transformed
    kernels end to end.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    base = 1.0 + x
    return integrate_01(lambda s: base ** s, tol, max_levels)


def stieltjes_weight(t: float) -> float:
    """w(t) = 1/((ln(t-1))^2 + pi^2) on (1, inf); peak value 1/pi^2 at t = 2."""
    if t <= 1.0:
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

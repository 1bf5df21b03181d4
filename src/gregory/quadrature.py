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
underflows.  The engine hands a term function whole columns of nodes
and takes back a chunk of terms, so a kernel's terms come from one list
comprehension per chunk.  Arbitrary caller integrands go through
:func:`integrate_01`, which evaluates f at the abscissa s directly, one
visited node at a time.

Tolerances are absolute error targets throughout; callers wanting a
relative target scale tol by a magnitude estimate first.  The
kernel-backed functions refine through DEFAULT_MAX_LEVELS levels; only
:func:`integrate_01` takes a ``max_levels`` of its own.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from itertools import chain, starmap

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
    result is produced.  ``n_evals`` counts the terms summed: the nodes
    the rule visits.  A kernel computes its tail terms a chunk at a time,
    and the few it computes past the node where a side stops are dropped
    and not counted.
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
# tau = j for the integers j >= 1 (tau = 0 is the separate _CENTER node);
# level L >= 1 holds tau = j * 2**-L for odd j, so the union through
# level L is the full step-2**-L grid.  Swapping the sig and sigc columns
# mirrors a side to -tau, since y^2, and with it d, is even.
#
# Each side of a level is split once into a head, every node through
# the first one with tau >= 6, before which no side may stop, and tail
# chunks that cover _TAIL_SPAN in tau (at least _TAIL_MIN nodes), walked
# only until the side stops.  A level is the pair (head, tail chunks) for
# tau > 0 and its mirror, every head and chunk being a (sig, sigc, jac,
# d) tuple of columns.  The tables are immutable once built; building
# is guarded by a lock so concurrent first calls stay safe.
# ----------------------------------------------------------------------

_STOP_TAU = 6.0             # a side may stop only at a node with tau >= this
_STOP_RUN = 3               # ... after this many small terms in a row
_TAIL_SPAN = 1.0            # tau covered by one tail chunk
_TAIL_MIN = 8               # nodes in the shortest tail chunk

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


def _split(cols, lo: int, hi: int):
    # nodes lo:hi as (sig, sigc, jac, d) columns, and mirrored to -tau
    sig, sigc, jac, d = (col[lo:hi] for col in cols)
    return (sig, sigc, jac, d), (sigc, sig, jac, d)


def _level_table(level: int) -> tuple:
    try:
        return _node_levels[level]
    except KeyError:
        pass
    with _node_lock:
        if level not in _node_levels:   # re-check under the lock
            h = 2.0 ** -level
            step = 1 if level == 0 else 2
            taus = [j * h for j in range(1, int(_T_MAX / h) + 1, step)]
            cols = _columns(taus)
            cut = next(i for i, tau in enumerate(taus) if tau >= _STOP_TAU) + 1
            width = max(_TAIL_MIN, int(_TAIL_SPAN / (step * h)))
            head, mirrored_head = _split(cols, 0, cut)
            chunks = [_split(cols, lo, lo + width) for lo in range(cut, len(taus), width)]
            _node_levels[level] = ((head, tuple(c[0] for c in chunks)),
                                   (mirrored_head, tuple(c[1] for c in chunks)))
        return _node_levels[level]


def _integrate_transformed(term, tol: float, max_levels: int) -> QuadratureResult:
    """Trapezoid-in-tau summation of one weighted term function.

    term(sig, sigc, jac, d) maps equal-length node columns to an iterable
    of the transformed integrand's terms (Jacobian included), one per
    node and in node order.  It is pulled for a side's head as a whole
    and for each tail chunk only as far as the side walks, so a lazy
    term function sees exactly the nodes the rule visits.  Levels halve
    the step until the error estimate meets tol; the estimate combines
    the last level-to-level difference, the magnitude of the outermost
    significant terms on each side (tail truncation), and a rounding
    floor proportional to sum(|terms|).  Terms are accumulated with
    math.fsum so the rounding floor is not optimistic.  A side stops at
    a node with tau >= 6 once three terms in a row fall below a small
    fraction of tol; the last significant magnitude seen there feeds
    the tail part of the estimate, so nothing is dropped silently.
    n_evals counts the terms summed.  Term functions return finite
    terms: a kernel's are finite for finite x, and :func:`integrate_01`
    raises before it would return a non-finite one.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    terms: list[float] = []
    signed = False
    prev_total = None
    est = math.inf
    value = 0.0
    converged = False
    stagnant = 0
    cutoff = max(0.02 * tol, 1e-280)
    for level in range(0, max_levels + 1):
        h = 2.0 ** -level
        level_start = len(terms)
        if level == 0:
            terms.extend(term(*_CENTER))
        edges = 0.0
        for head, tail in _level_table(level):
            start = len(terms)
            terms.extend(term(*head))
            # the head ends at the first node where the side may stop:
            # carry its run of small terms and its last significant one
            last = len(terms) - 1
            while last >= start and abs(terms[last]) <= cutoff:
                last -= 1
            tiny = len(terms) - 1 - last
            edge = abs(terms[last]) if last >= start else 0.0
            if tiny < _STOP_RUN:
                for v in chain.from_iterable(starmap(term, tail)):
                    terms.append(v)
                    if abs(v) > cutoff:
                        tiny = 0
                        edge = abs(v)
                    else:
                        tiny += 1
                        if tiny >= _STOP_RUN:
                            break
            edges += edge
        # sum(|terms|) is the total itself while no term is negative,
        # as kernel terms never are
        signed = signed or min(terms[level_start:]) < 0.0
        total = h * math.fsum(terms)
        abs_total = h * math.fsum(map(abs, terms)) if signed else total
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
    max_levels refinements.  A non-finite f(s), or a non-finite term
    f(s)*jac*s*(1-s), aborts with an :class:`IntegrandEvaluationError`
    identifying s.  f is called lazily, node by node, so it never sees
    an abscissa the rule does not visit.
    """
    def one(s, sigc, jac):
        if s < _SMALLEST_NORMAL or s >= 1.0:
            return 0.0
        fv = f(s)
        if not math.isfinite(fv):
            raise IntegrandEvaluationError(s, fv)
        v = fv * jac * s * sigc
        if not math.isfinite(v):
            raise IntegrandEvaluationError(s, v)
        return v

    def term(sig, sigc, jac, d):
        return map(one, sig, sigc, jac)
    return _integrate_transformed(term, tol, max_levels)


def _kernel(a: int, x: float, p: int, tol: float,
            max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """K(a, x, p) = integral_0^1 v(s) s^(a-1) / (1+xs)^p ds, unscaled.

    Every term is jac*sigc*sig**a / (d*(1+x*sig)**p), finite and never
    negative for finite x >= 0.  The special cases below drop only
    factors that are exactly 1.0 in IEEE arithmetic, so they round
    identically.
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
    return _integrate_transformed(term, tol, max_levels)


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

    Deliberately routed through the generic :func:`integrate_01` path (a
    kernel-free second pipeline) so it cross-checks the transformed
    kernels end to end.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    base = 1.0 + x
    return integrate_01(lambda s: base ** s, tol)


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

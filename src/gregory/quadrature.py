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
underflows.

:func:`_integrate_members`, the engine's one entry, sums a list of
members, each a term function over the rows of the node table's columns
(see the node table).  Each side of tau = 0 stops where an envelope
known in advance falls below a fixed fraction of tol and bounds what it
dropped, reading where it stops on each level from a plan kept for its
envelope and tolerance (see the side plans).  :func:`_kernel_member`
gives K's term and rounding floor; an a = 0 kernel reads its s -> 0
terms from the node table where 1.0 + x*s rounds to 1.0.
:func:`bernoulli2_integrals` sums b_1..b_N as one list of members, every
other public function is a list of one, and each builds one
QuadratureResult per member.  :func:`bernstein_identity`, the one
integral without the kernel, sends its own term.

Tolerances are absolute error targets throughout; callers wanting a
relative target scale tol by a magnitude estimate first.  Every call
refines through at most DEFAULT_MAX_LEVELS levels, the module constant.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

PI = math.pi
_PI_SQ = PI * PI

DEFAULT_TOL = 1e-10
DEFAULT_MAX_LEVELS = 12     # dyadic refinements; about 2^12 nodes per side
_MIN_LEVEL = 2              # first level whose estimate may claim convergence
_T_MAX = 36.0               # |tau| cap; slowest tail is ~exp(-tau) < 3e-16 there
_U = 2.0 ** -53             # unit roundoff: the relative error of one rounding


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate and run diagnostics of one quadrature call.

    ``converged=True`` implies ``abs_error_estimate <= tol`` as requested
    by the caller, and ``n_evals`` is always positive by the time any
    result is produced.  ``n_evals`` counts the terms summed, computed or
    read from the node table: no side takes a term past the node where it
    stops.
    """

    value: float
    abs_error_estimate: float
    n_evals: int
    converged: bool


# ----------------------------------------------------------------------
# node table
#
# Nodes sit at tau >= 0 and are stored as seven columns: sig = sigma(y),
# sigc = sigma(-y) (both computed without cancellation), jac =
# pi*cosh(tau), d = y^2 + pi^2, the products jac*sigc and jac*sig, and
# jac*sig/d, with y = pi*sinh(tau).  Level 0 holds tau = j for the
# integers 1 <= j <= 36 (tau = 0 is the separate _CENTER node); level
# L >= 1 holds tau = j * 2**-L for odd j, so the union through level L is
# the full step-2**-L grid.
# _LAYOUTS holds the layout (h, step, node count) of each level through
# DEFAULT_MAX_LEVELS, its nodes being tau = (step*i + 1)*h for i below the
# count, for the engine and the table alike.  Read in this order, the
# columns are the s -> 1 side's s, 1 - s, j, d, j*(1-s), j*s and j*s/d, the
# names _S, _C, _J, _E, _JC, _JS and _JSD; swapping s with 1 - s and j*(1-s)
# with j*s, as _MIRROR does for the six columns a shape can name, gives the
# s -> 0 side's, since y^2, and with it d, is even.  _JSD is that side's
# j*(1-s)/d, the term an a = 0 kernel reads (see _integrate_members).  A
# level's columns hold a prefix of its nodes and grow on demand, doubling
# up to the level's full count; growth swaps in longer tuples under a
# lock, so a caller keeps an immutable copy and concurrent calls stay safe.
# ----------------------------------------------------------------------

_LAYOUTS = [(2.0 ** -level, step, int(_T_MAX * 2 ** level) // step)
            for level, step in enumerate([1] + [2] * DEFAULT_MAX_LEVELS)]
_S, _C, _J, _E, _JC, _JS, _JSD = range(7)
_MIRROR = (_C, _S, _J, _E, _JS, _JC)
_node_lock = threading.Lock()
_node_levels: dict[int, tuple] = {}


def _columns(taus: list[float]) -> tuple[tuple[float, ...], ...]:
    ys = [PI * math.sinh(tau) for tau in taus]
    es = [math.exp(-y) for y in ys]            # y >= 0 for tau >= 0
    sig = tuple([1.0 / (1.0 + e) for e in es])
    sigc = tuple([e / (1.0 + e) for e in es])
    jac = tuple([PI * math.cosh(tau) for tau in taus])
    d = tuple([y * y + _PI_SQ for y in ys])
    jc, js = tuple(map(operator.mul, jac, sigc)), tuple(map(operator.mul, jac, sig))
    return sig, sigc, jac, d, jc, js, tuple(map(operator.truediv, js, d))


_CENTER = _columns([0.0])


def _level_table(level: int, need: int) -> tuple:
    """The columns of a level, holding at least its first `need` nodes."""
    cols = _node_levels.get(level)
    if cols is not None and len(cols[0]) >= need:
        return cols
    with _node_lock:
        cols = _node_levels.get(level, ((),) * len(_CENTER))
        have = len(cols[0])
        if have < need:   # re-check under the lock
            h, step, full = _LAYOUTS[level]
            top = min(max(need, 2 * have), full)
            grown = _columns([(step * i + 1) * h for i in range(have, top)])
            cols = _node_levels[level] = tuple(map(tuple.__add__, cols, grown))
        return cols


# ----------------------------------------------------------------------
# side plans
#
# Where a side stops on each level, how many nodes it keeps there and what
# it bounds the dropped ones by depend only on its envelope's alpha and
# beta, the cut and the level, over the fixed node columns: a plan is a
# pure function of (alpha, beta, tol).  _plan keeps one per (alpha, beta,
# cut) for the whole process, as the node table is kept, in a least
# recently used memo of at most 1,024 plans (a plan of all 13 levels takes
# about 2 kB).  A plan is one slot per level for the (first dropped node,
# nodes kept, truncation bound) record that the engine's side routine
# returns there, None until a call first reads that level's side; writing
# a record into its slot is idempotent, as every call works out the same
# one, so concurrent calls need no lock.  Both sides read plans by one
# rule: the s -> 1 side reads _plan(1, beta, cut), an s -> 0 side with
# alpha lo reads _plan(lo, beta, cut), looked up once per member on the
# first level it needs, and the side routine runs only to fill an empty
# slot.  The one exception is an s -> 0 side whose node 0 falls to the
# cut, on level 0 or after a level where it kept nothing: it keeps nothing,
# and the record the side routine would return, r taken at node 0, follows
# from node 0's constants, which _NODE0 holds per beta and level (1 - s,
# j**beta, s, j and beta*tanh(h), beta if beta > 0).  Such a side reads no
# plan, so the large-n members of a coefficient sweep do no plan traffic.
# ----------------------------------------------------------------------

_NODE0 = {beta: [(c[_C][0], c[_J][0] ** beta, c[_S][0], c[_J][0],
                  beta * (1.0 if beta > 0 else math.tanh(h)))
                 for h, _, _ in _LAYOUTS for c in [_columns([h])]]
          for beta in (-1, 1)}


@functools.lru_cache(maxsize=1024)
def _plan(alpha: int, beta: int, cut: float) -> list:
    """The plan of a side with this envelope and cut, shared by every call."""
    return [None] * len(_LAYOUTS)


# the columns a kernel term reads: s, j*(1-s) and d
_KERNEL_ROWS = (_S, _JC, _E)


def _integrate_members(members: list, beta: int, tol: float,
                       shape: tuple = _KERNEL_ROWS) -> list[tuple]:
    """Trapezoid-in-tau summation of term functions that share the s -> 1 side.

    The engine's only entry, for one member or many, refining through at
    most the module's DEFAULT_MAX_LEVELS levels.  members is a list of
    (term, lo, floor, flat), and the result holds one raw (value,
    abs_error_estimate, n_evals, converged) tuple per member, in order:
    the fields of the one QuadratureResult that the public function
    builds with :func:`_result`, after any scaling.  shape names the side
    columns a term reads (_S, _C, _J, _E, _JC, _JS: s, 1 - s, the Jacobian
    pi*cosh(tau), d = y^2 + pi^2, j*(1-s) and j*s), and term(rows) maps an
    iterable of rows, one tuple of those columns per node and in node
    order, to an iterable of the transformed integrand's terms (Jacobian
    included); the terms are finite and never negative.  Each side of a
    member is bounded in advance by the envelope

        M(tau) = sigma(-pi sinh|tau|)**alpha * (pi cosh tau)**beta,

    with alpha = 1 on the s -> 1 side and alpha = lo on the s -> 0 side:
    every term at tau is at most M(tau).  M decreases in |tau| at the
    rate alpha*sigma(|y|)*pi*cosh(tau) - beta*tanh|tau|, which is at
    least r, that rate taken at the last node kept with tanh replaced by
    1 if beta > 0; r must be positive (alpha*pi/2 > beta when beta > 0).
    beta is -1 or +1, the two rows of _NODE0.

    One side routine applies this rule to either side.  On each level a
    side computes terms only for the nodes before the first one where M
    falls to the cut 4e-3*tol: a forward scan on level 0, and on a finer
    level one test of the node halfway between the last node kept and the
    first dropped.  The nodes it drops then sum to at most cut * (h + 1/r);
    a side whose envelope is still above the cut at tau = 36 adds M/r
    taken there instead.  A side's record on a level comes from its plan
    (see the side plans above).  A level's node columns, laid out as
    _LAYOUTS says, are built only as far as these tests and terms reach.
    A side with no node left computes no term.

    flat is None, or the x of a member whose term is exactly j*(1-s)/d at
    every node where 1.0 + x*s == 1.0, as an a = 0 kernel's is (see
    :func:`_kernel_member`).  On the s -> 0 side s falls from node to
    node, so those of its kept nodes are a suffix; one bisection per
    level finds its first node (node 0 at x == 0), term computes the
    terms before it, and the rest are a slice of the side's _JSD column.
    That covers about 70 to 90 % of the terms of 1/ln(1+x),
    x/ln(1+x), f'(x) and h_1(x), whose s -> 0 side decays only like
    1/(pi cosh tau) out to tau near 26, and every s -> 0 term at x == 0.
    Every other side computes all of its kept terms.

    Levels halve the step until the error estimate meets tol.  The
    estimate adds both sides' truncation bounds and a rounding floor of
    floor * total to the larger of the last level-to-level difference
    d and total * (d'/total)**3, d' being the difference before it.
    Under double-exponential convergence the relative error roughly
    squares per level, so d approximates the previous level's error,
    which bounds this one's, and d falls below the cube term only when
    two coarse levels agree by chance while neither resolves the
    integrand (the cube, not the square, leaves room for the model's
    unknown prefactor).  Levels 0 and 1 hold a handful of nodes and have
    no difference before theirs, so convergence is claimed from level
    _MIN_LEVEL on.  floor bounds the relative rounding error of every
    term, so that floor * total bounds the rounding of a sum of positive
    terms; 1.1e-16 counts only the sum's own rounding, as terms are
    accumulated with math.fsum.  A level whose difference is within
    floor * total has settled; after two such levels in a row the
    refinement stops if floor * total plus the truncation bounds already
    exceeds tol, since no finer level can then converge.  n_evals counts
    the terms summed, computed or read.

    Members run through the level loop one after another.  The first
    member to reach a level fetches the node table as far as its two
    sides reach and builds the s -> 1 side's kept rows: rows that more
    than one member reads, the kept ones and the centre node's, are built
    once as a list of tuples; a lone member streams them, as every member
    streams its own s -> 0 side's rows.  A later member grows the level's
    node table only if its own s -> 0 side reaches further, so tables
    grow exactly as far as member by member, adds its own terms and
    estimate, and leaves the loop, never to be visited again, when it
    converges or settles.  Each result is bit for bit the one the member
    gets alone, with new plans or kept ones.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    fsum, tanh = math.fsum, math.tanh
    cut = max(4e-3 * tol, 2e-281)
    pick_hi = operator.itemgetter(*shape)
    pick_lo = operator.itemgetter(*[_MIRROR[i] for i in shape])
    share = list if len(members) > 1 else iter

    def side(level, first, alpha, layout, cols):
        # a side's first dropped node as j in tau = j*h (36/h + 1 while none
        # is), its number of nodes kept and its truncation bound
        h, step, full = layout
        sig, sigc, jac = cols[_S], cols[_C], cols[_J]
        if level == 0:
            stop = 0
            while stop < full and sigc[stop] ** alpha * jac[stop] ** beta > cut:
                stop += 1
            first = stop + 1
        else:
            # M decreases, so the only node of this level still open is the
            # one between the last node kept and the first dropped
            new = first - 1
            first = 2 * first - (new == full or sigc[new] ** alpha * jac[new] ** beta <= cut)
            stop = first // 2
        # k is the last node kept (the first node if none is): r taken there
        # bounds the envelope's decay past every dropped node
        k = stop - 1 if stop else 0
        r = alpha * sig[k] * jac[k] - beta * (1.0 if beta > 0 else tanh((step * k + 1) * h))
        return first, stop, (cut * (h + 1.0 / r) if stop < full
                             else sigc[k] ** alpha * jac[k] ** beta / r)

    plan_hi, node0 = _plan(1, beta, cut), _NODE0[beta]
    center = share(zip(*pick_hi(_CENTER)))
    levels: list[tuple] = []    # one record per level reached
    first_hi = int(_T_MAX) + 1  # the s -> 1 side's first dropped node on the last level
    results = []
    for term, lo, floor, flat in members:
        terms: list[float] = list(term(center))
        prev_diff = 0.0     # level 1 has none before its own: a cube term of 0
        est = math.inf
        value = 0.0
        converged = False
        stagnant = 0
        first_lo = int(_T_MAX) + 1
        plan_lo = None
        for level in range(0, DEFAULT_MAX_LEVELS + 1):
            if level == len(levels):
                # the first member to reach this level fetches the node table
                # as far as either of its sides reads, below its previous first
                layout = _LAYOUTS[level]
                h = layout[0]
                need = first_hi if first_hi > first_lo else first_lo
                cols = _level_table(level, need if need < layout[2] else layout[2])
                record = plan_hi[level]
                if record is None:
                    record = plan_hi[level] = side(level, first_hi, 1, layout, cols)
                first_hi, stop, trunc_hi = record
                levels.append((h, layout, cols, trunc_hi,
                               share(islice(zip(*pick_hi(cols)), stop))) + node0[level])
            h, layout, cols, trunc, kept, c0, jb0, s0, j0, bt = levels[level]
            terms.extend(term(kept))
            if (first_lo == 1 or level == 0) and c0 ** lo * jb0 <= cut:
                # node 0 is the side's one test, or its scan's first, and falls
                # to the cut: the side keeps nothing, and r is taken at node 0
                first_lo = 1
                trunc += cut * (h + 1.0 / (lo * s0 * j0 - bt))
            else:
                if first_lo > len(cols[0]):     # past what the first member fetched
                    cols = _level_table(level, first_lo if first_lo < layout[2] else layout[2])
                if plan_lo is None:
                    plan_lo = _plan(lo, beta, cut)
                record = plan_lo[level]
                if record is None:
                    record = plan_lo[level] = side(level, first_lo, lo, layout, cols)
                first_lo, stop, trunc_lo = record
                trunc += trunc_lo
                if stop:
                    # a flat member's terms from the first node where 1.0 + x*s
                    # == 1.0 on are _JSD values; any other computes all of its own
                    at = stop if flat is None else bisect_left(
                        cols[_C], True, 0, stop, key=lambda s: 1.0 + flat * s == 1.0)
                    if at:
                        terms.extend(term(islice(zip(*pick_lo(cols)), at)))
                    terms.extend(cols[_JSD][at:stop])
            total = h * fsum(terms)
            if level == 0:
                value = total
                continue
            diff = abs(total - value)
            # the error, relative to the total, roughly squares from one level
            # to the next; a difference below even the cube of the one before
            # is two coarse levels agreeing by chance, not convergence
            predicted = total * (prev_diff / total) ** 3 if total > prev_diff else prev_diff
            rounding = floor * total
            est = (diff if diff > predicted else predicted) + trunc + rounding
            prev_diff = diff
            value = total
            if est <= tol and level >= _MIN_LEVEL:
                converged = True
                break
            stagnant = stagnant + 1 if diff <= rounding or diff <= 1e-300 else 0
            if stagnant >= 2 and rounding + trunc > tol:
                break   # settled above tol: no finer level can converge
        results.append((value, est, len(terms), converged))
    return results


def _result(value: float, est: float, n_evals: int, converged: bool,
            tol: float) -> QuadratureResult:
    # a public function's one result, after any scaling of the engine's
    # value and estimate: converged must keep implying est <= tol
    return QuadratureResult(value, est, n_evals, converged and est <= tol)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def _kernel_member(a: int, x: float, p: int) -> tuple:
    """The engine member (term, alpha on the s -> 0 side, floor, flat) of K(a, x, p).

    :func:`_kernel` sends it alone and :func:`bernoulli2_integrals` one per
    coefficient.

    Every term is jac*sigc*sig**a / (d*(1+x*sig)**p), read from the rows
    (s, j*(1-s), d) that _KERNEL_ROWS names, finite and never negative for
    finite x >= 0.  As jac/d = 1/(pi cosh tau) and the other
    factors are at most 1, a term is at most sigma(-|y|)/(pi cosh tau) on
    the s -> 1 side and sigma(-|y|)**a/(pi cosh tau) on the s -> 0 side,
    for every x: the engine's envelopes never cut the mass of a peaked
    integrand.  Each shape the public functions send has its term: x == 0
    (b_n, mu_n, f^(k)(0), h_n(0)), p == 1 with a == 0 (1/ln(1+x),
    x/ln(1+x), h_1(x)) and the general one (f^(k)(x), h_n(x)); the first
    two drop only factors exactly 1.0 in IEEE arithmetic, so all round alike.
    flat is x when a == 0 and None otherwise: with a == 0 each of the
    three terms is exactly j*(1-s)/d at a node where 1.0 + x*s == 1.0, as
    s**0 == 1.0, 1.0**p == 1.0 and e * 1.0 == e.

    The rounding floor is (a + p + 4) unit roundoffs u = 2**-53 per term,
    without the p at x == 0, where no power of 1 + x*s is formed.  To first
    order a term's relative error is the sum of its factors': s**a carries
    a times the rounding of its base, the column value s, and (1+x*s)**p
    carries p times that of 1 + x*s, each base being about u off, while the
    three other column values and the operations that combine them are
    charged 4 u.  The terms are positive, so their rounding adds up to at
    most that relative bound times the total.  The level differences do
    not see this error: levels 3 and 4 of f^(14)(0.0437) agree within
    2 ulp while both are 5 and 7 ulp off.  tests/test_quadrature.py
    checks the floor against terms taken exactly at the nodes.
    """
    if x == 0.0:
        def term(rows):
            return [jc * s ** a / e for s, jc, e in rows]
    elif p == 1 and a == 0:
        def term(rows):
            return [jc / (e * (1.0 + x * s)) for s, jc, e in rows]
    else:
        def term(rows):
            terms = []
            for s, jc, e in rows:
                try:
                    terms.append(jc * s ** a / (e * (1.0 + x * s) ** p))
                except OverflowError:
                    # (1+x sig)^p > 1.8e308 puts the term below 1/(pi*1.8e308),
                    # under the engine's 2e-281 cut floor: 0.0 keeps it honest
                    terms.append(0.0)
            return terms
    return term, a, (a + (p if x != 0.0 else 0) + 4) * _U, x if a == 0 else None


def _kernel(a: int, x: float, p: int, tol: float) -> tuple:
    """K(a, x, p) = integral_0^1 v(s) s^(a-1) / (1+xs)^p ds, unscaled, as the
    engine's raw tuple, with the term and floor of :func:`_kernel_member`."""
    return _integrate_members([_kernel_member(a, x, p)], -1, tol)[0]


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
    value, est, n_evals, converged = _kernel(n - 1, 0.0, 0, tol)
    return _result(value if n % 2 == 1 else -value, est, n_evals, converged, tol)


def bernoulli2_integrals(n_max: int, tol: float = DEFAULT_TOL) -> list[QuadratureResult]:
    """[bernoulli2_integral(n, tol) for n = 1..n_max], bit for bit, in one pass.

    The coefficient integrals differ only in the power s**(n-2): they
    share every node, and the s -> 1 side, where each kernel's envelope
    has alpha = 1, stops, keeps its node columns and bounds its
    truncation alike on each level.  The engine works that side out once
    per level for the whole table, and each n adds only its own s -> 0
    side, terms and estimate.  n_max = 0 gives [].
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    members = [_kernel_member(n - 1, 0.0, 0) for n in range(1, n_max + 1)]
    raws = _integrate_members(members, -1, tol)
    return [_result(value if n % 2 == 1 else -value, est, n_evals, converged, tol)
            for n, (value, est, n_evals, converged) in enumerate(raws, 1)]


def moment_integral(n: int, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """mu_n = integral_0^1 s**(n-1) v(s) ds for n >= 0.

    This is the Hausdorff moment form of the coefficients: the value
    equals (-1)**n b_{n+1}, always positive.
    """
    if n < 0:
        raise ValueError("moment index must be >= 0")
    return _result(*_kernel(n, 0.0, 0, tol), tol)


def stieltjes_recip_log(x: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """1/ln(1+x) for finite x > 0 through its Stieltjes representation.

    Evaluates 1/x + integral_1^inf w(t)/(x+t) dt; under t = 1/s the
    integral part becomes integral_0^1 v(s)/(s(1+xs)) ds.  The error
    estimate adds one rounding ulp of the 1/x term to the quadrature
    estimate.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    tail, est, n_evals, converged = _kernel(0, x, 1, tol)
    return _result(1.0 / x + tail, est + 2.3e-16 * abs(1.0 / x), n_evals, converged, tol)


def genfun_integral(x: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """x/ln(1+x) for finite x > 0 as 1 + x * (Stieltjes tail integral).

    The inner quadrature runs at tol/max(x, 1) so that tol stays an
    absolute target on the returned value after the x scaling.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    tail, est, n_evals, converged = _kernel(0, x, 1, _inner_tol(tol, max(x, 1.0)))
    value = 1.0 + x * tail
    return _result(value, x * est + 2.3e-16 * abs(value), n_evals, converged, tol)


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
    estimate of k! b_k.  The estimate adds the rounding of the k! product,
    and past k = 22, where float(k!) stops being exact, that of k! too.
    """
    if k < 1:
        raise ValueError("derivative order k must be >= 1")
    if k > 170:
        raise ValueError("derivative order k must be <= 170")
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be >= 0 and finite")
    kfac = float(math.factorial(k))
    raw, est, n_evals, converged = _kernel(k - 1, x, k + 1, _inner_tol(tol, kfac))
    value = (1.0 if k % 2 == 1 else -1.0) * kfac * raw
    roundings = 1 if k <= 22 else 2
    return _result(value, kfac * est + roundings * _U * abs(value), n_evals, converged, tol)


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
    return _result(*_kernel(n - 1, x, n, tol), tol)


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

    def term(rows):
        return [js * c * base ** -c for c, js in rows]
    value, est, n_evals, converged = _integrate_members(
        [(term, 1, 1.1e-16, None)], 1, _inner_tol(tol, base), (_C, _JS))[0]
    return _result(base * value, base * est, n_evals, converged, tol)


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

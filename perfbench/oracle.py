"""Independent oracle for every job the benchmark runs.

Nothing here imports ``gregory``.  The exact coefficients come from integer
Stirling numbers of the first kind,

    b_n = (1/n!) sum_k s(n, k) / (k + 1),

an algorithm neither the series recurrence nor the nested-sum formula of the
package uses.  Closed forms are evaluated in 40-digit decimal arithmetic and
rounded once, so the oracle's own error is below one ulp.

:meth:`Oracle.check` compares one job's exit code, stdout and stderr with
what the oracle expects and returns ``None`` when they agree, or a one-line
reason.  For quadrature values the rule is the package's honesty rule seen
from outside: a value reported as converged lies within tol, plus a few
ulps, of the oracle; a value reported as not converged is only checked for
shape, because an honest non-convergence is not a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

ULPS = 4            # rounding slack granted on top of tol, in ulps of the oracle value
DIGITS = 40         # working precision of the decimal closed forms

# The first k with (-1)^k Delta^k mu_0 < 1/10 is 10,198, so the minimality
# probe at epsilon = 1/10 finds no violation at any smaller horizon and the
# CLI reports it as inconclusive.
MINIMALITY_FIRST_VIOLATION = 10198

_SUITE_ORDER = ("cm-sequence", "minimality", "hankel", "majorization",
                "log-convexity", "integrals", "bernstein", "degree")
_INCONCLUSIVE = ("minimality: inconclusive (no violation at this epsilon "
                 "within the horizon)\n")
_METHODS = {"series": ("series",), "explicit": ("explicit",),
            "integral": ("integral",), "all": ("series", "explicit", "integral")}
_COMPUTE_TOL = 1e-10    # the CLI default; compute jobs do not pass --tol
_WARNING = re.compile(r"warning: quadrature did not converge at n=(\d+) "
                      r"\(estimate (\S+) > tol (\S+)\)")
_FOOTER = "max cross-method deviation: "


def gregory_coefficients(n_max: int) -> list[Fraction]:
    """Exact b_0..b_{n_max} from integer Stirling rows of the first kind."""
    row = [1]                       # s(0, k) for k = 0..0
    lcm = 1                         # lcm(1, ..., n + 1)
    factorial = 1
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        # s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)
        row = [0] + [row[k - 1] - (n - 1) * (row[k] if k < n else 0)
                     for k in range(1, n + 1)]
        lcm = math.lcm(lcm, n + 1)
        factorial *= n
        num = sum(s * (lcm // (k + 1)) for k, s in enumerate(row))
        out.append(Fraction(num, lcm * factorial))
    return out


class Oracle:
    """Expected outputs for jobs whose table sizes stay within ``n_max``."""

    def __init__(self, n_max: int):
        self.b = gregory_coefficients(n_max)
        self.text = [f"{q.numerator}/{q.denominator}" for q in self.b]
        self.floats = [float(q) for q in self.b]
        with localcontext() as ctx:
            ctx.prec = DIGITS + 10
            self._b_dec = [Decimal(q.numerator) / Decimal(q.denominator) for q in self.b]

    # ------------------------------------------------------------------
    # reference values
    # ------------------------------------------------------------------

    def closed_form(self, function: str, x: float) -> float:
        """genfun and bernstein-identity: x/ln(1+x); recip-log: 1/ln(1+x)."""
        with localcontext() as ctx:
            ctx.prec = DIGITS
            xd = Decimal(x)
            log = (1 + xd).ln()
            return float(1 / log if function == "recip-log" else xd / log)

    def derivative(self, x: float, k: int) -> float:
        """k-th derivative of x/ln(1+x): k! b_k at 0, the Taylor sum for 0 < x <= 1/2."""
        if x == 0.0:
            return float(math.factorial(k) * self.b[k])
        if not 0.0 < x <= 0.5:
            raise ValueError("the Taylor oracle covers 0 <= x <= 1/2")
        with localcontext() as ctx:
            ctx.prec = DIGITS + 10
            xd = Decimal(x)
            total = Decimal(0)
            power = Decimal(1)               # x^(n-k)
            falling = math.factorial(k)      # n!/(n-k)!
            for n in range(k, len(self.b)):
                term = falling * self._b_dec[n] * power
                total += term
                falling = falling * (n + 1) // (n + 1 - k)
                power *= xd
            # terms shrink geometrically (ratio about x); the last one bounds the tail
            if abs(term) > abs(total) * Decimal(10) ** -(DIGITS - 5):
                raise ValueError(f"Taylor sum at x={x}, k={k} needs a longer table")
            return float(total)

    # ------------------------------------------------------------------
    # job checks
    # ------------------------------------------------------------------

    def check(self, job: dict, rc: int, out: str, err: str) -> Optional[str]:
        try:
            if job["cmd"] == "compute":
                return self._check_compute(job, rc, out, err)
            if job["cmd"] == "verify":
                return self._check_verify(job, rc, out, err)
            return self._check_eval(job, rc, out, err)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {exc!r}"

    def _within(self, value: float, reference: float, tol: float) -> bool:
        return abs(value - reference) <= tol + ULPS * math.ulp(reference)

    def _check_verify(self, job, rc, out, err) -> Optional[str]:
        n = job["n_max"]
        horizons = {"cm-sequence": (n, n), "minimality": (n, n), "hankel": (n, 3),
                    "majorization": (3, 6), "log-convexity": (n, 0),
                    "integrals": (min(n, 20), 12), "bernstein": (2, 7),
                    "degree": (4, 8)}
        names = _SUITE_ORDER if job["suite"] == "all" else (job["suite"],)
        expected = []
        for name in names:
            inconclusive = name == "minimality" and n < MINIMALITY_FIRST_VIOLATION
            line = {"suite": name, "passed": not inconclusive,
                    "horizon": list(horizons[name]), "first_violation": None}
            expected.append(json.dumps(line) + "\n")
            if inconclusive:
                expected.append(_INCONCLUSIVE)
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if err:
            return f"unexpected stderr {err[:80]!r}"
        if out != "".join(expected):
            return f"report lines differ from the oracle: {out[:160]!r}"
        return None

    def _check_eval(self, job, rc, out, err) -> Optional[str]:
        function, x, tol = job["function"], job["x"], job["tol"]
        fields = {}
        for line in out.splitlines():
            key, sep, value = line.partition(" = ")
            if not sep:
                return f"unexpected line {line!r}"
            fields[key.strip()] = value
        keys = ["function", "x"] + (["k"] if function == "derivative" else []) + [
            "value", "error_estimate", "n_evals", "converged", "reference", "deviation"]
        if list(fields) != keys:
            return f"fields {list(fields)} differ from {keys}"
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if fields["function"] != function or fields["x"] != repr(x):
            return "echoed inputs differ"
        if function == "derivative" and fields["k"] != str(job["k"]):
            return "echoed k differs"
        value = float(fields["value"])
        estimate = float(fields["error_estimate"])
        if int(fields["n_evals"]) < 1 or not math.isfinite(value):
            return "no evaluations or a non-finite value"
        if function == "derivative":
            truth = self.derivative(x, job["k"])
        else:
            truth = self.closed_form(function, x)

        converged = {"True": True, "False": False}[fields["converged"]]
        warning = (f"warning: estimate {estimate:.3e} exceeds tol {tol:.3e}\n"
                   if not converged else "")
        if err != warning:
            return f"stderr {err!r}, expected {warning!r}"
        if converged:
            if estimate > float(f"{tol:.3e}"):
                return f"converged with estimate {estimate:.3e} above tol {tol:.3e}"
            if not self._within(value, truth, tol):
                return (f"converged value {value!r} is {abs(value - truth):.3e} "
                        f"from the oracle {truth!r}, tol {tol:.3e}")
        elif estimate < float(f"{tol:.3e}"):
            return f"not converged with estimate {estimate:.3e} below tol {tol:.3e}"

        # the CLI's own reference: a closed form where one exists, else a
        # finite-difference estimate (k <= 4) or n/a; its accuracy is not claimed
        if function == "derivative" and x > 0.0 and job["k"] > 4:
            if fields["reference"] != "n/a" or fields["deviation"] != "n/a":
                return "expected reference n/a"
            return None
        reference = float(fields["reference"])
        if (function != "derivative" or x == 0.0) and not self._within(reference, truth, 0.0):
            return f"reference {reference!r} differs from the oracle {truth!r}"
        if fields["deviation"] != f"{abs(value - reference):.3e}":
            return "deviation line does not match value and reference"
        return None

    def _check_compute(self, job, rc, out, err) -> Optional[str]:
        n_max, method, fmt = job["n_max"], job["method"], job["fmt"]
        tol = _COMPUTE_TOL
        methods = _METHODS[method]
        err_lines = err.splitlines()
        if method == "all" and fmt != "table":
            if not err_lines or not err_lines[-1].startswith(_FOOTER):
                return "missing deviation footer on stderr"
            footer = err_lines.pop()
        unconverged = set()
        for line in err_lines:
            match = _WARNING.fullmatch(line)
            if not match:
                return f"unexpected stderr line {line!r}"
            unconverged.add(int(match.group(1)))
        if method == "all" and fmt == "table":
            out_lines = out.splitlines()
            if not out_lines or not out_lines[-1].startswith(_FOOTER):
                return "missing deviation footer"
            footer = out_lines.pop()
            records = _table_all_records(out_lines)
        elif fmt == "table":
            records = _table_records(out)
        elif fmt == "csv":
            records = _csv_records(out)
        else:
            records = [(r["n"], r["method"], r["exact"], r["numeric"], r["error_estimate"])
                       for r in json.loads(out)]

        keys = [(n, m) for n in range(n_max + 1) for m in methods
                if not (m == "integral" and n == 0)]
        if [(r[0], r[1]) for r in records] != keys:
            return "rows differ from the expected (n, method) sequence"
        expected_rc = 1 if unconverged else 0
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}"
        deviation = 0.0
        tol_printed = float(f"{tol:.3e}")
        for n, m, exact, numeric, estimate in records:
            if m != "integral":
                if exact != self.text[n] or numeric is not None or estimate is not None:
                    return f"{m} b_{n} differs from the oracle"
                continue
            if exact is not None or not math.isfinite(numeric):
                return f"integral b_{n} is not a finite number"
            deviation = max(deviation, abs(numeric - self.floats[n]))
            if n in unconverged:
                if estimate < tol_printed:
                    return f"warning at n={n} with estimate {estimate!r} below tol"
            elif estimate > tol_printed or not self._within(numeric, self.floats[n], tol):
                return (f"integral b_{n} = {numeric!r} with estimate {estimate!r} is "
                        f"{abs(numeric - self.floats[n]):.3e} from the oracle")
        if unconverged - {n for n, _ in keys}:
            return "warning for an n that was not computed"
        if method == "all" and footer != f"{_FOOTER}{deviation:.3e}":
            return f"footer {footer!r} differs from the recomputed deviation"
        return None


def _optional_float(text: str) -> Optional[float]:
    return None if text in ("", "n/a") else float(text)


def _csv_records(out: str) -> list[tuple]:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["n", "exact", "numeric", "method", "error_estimate"]:
        raise ValueError(f"csv header {rows[0]}")
    return [(int(n), m, exact or None, _optional_float(num), _optional_float(est))
            for n, exact, num, m, est in rows[1:]]


def _table_records(out: str) -> list[tuple]:
    lines = out.splitlines()
    if lines[0].split() != ["n", "value", "method", "error_estimate"]:
        raise ValueError(f"table header {lines[0]!r}")
    records = []
    for line in lines[1:]:
        n, value, m, est = line.split()
        if m == "integral":
            records.append((int(n), m, None, float(value), float(est)))
        else:
            records.append((int(n), m, value, None, _optional_float(est)))
    return records


def _table_all_records(lines: list[str]) -> list[tuple]:
    if lines[0].split() != ["n", "series", "explicit", "integral", "error_estimate"]:
        raise ValueError(f"table header {lines[0]!r}")
    records = []
    for line in lines[1:]:
        n, series, explicit, numeric, est = line.split()
        records.append((int(n), "series", series, None, None))
        records.append((int(n), "explicit", explicit, None, None))
        if numeric != "n/a":
            records.append((int(n), "integral", None, float(numeric), float(est)))
        elif est != "n/a":
            raise ValueError(f"estimate without a value at n={n}")
    return records

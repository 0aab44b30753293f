"""Ground truth for every request kind, from closed forms.

Nothing here calls into hyperseries: known answers come from closed forms
evaluated with mpmath at the request's precision plus 64 guard bits, and from
exact ``Fraction`` arithmetic.  Tolerances are fixed here and scale with the
request's precision where the quantity is limited by precision; they are
never calibrated from program output.

``judge`` maps (request, outcome) to one of three grades:

* ``ok``: the decisive answer the closed form predicts, or a value within
  tolerance of it;
* ``inconclusive``: the program answered ``inconclusive`` where the known
  answer is decisive (a legitimate verdict, counted apart from failures);
* ``failed``: the program raised, or returned the opposite decisive
  verdict, or a value outside tolerance.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import mpmath
from mpmath import mpf

OK, INCONCLUSIVE, FAILED = "ok", "inconclusive", "failed"

#: The standard grid: eps = 10^-k, k = 1..8, tail from index 1, rho = eps.
GRID_DECADES = tuple(range(1, 9))
TAIL = tuple(range(1, len(GRID_DECADES)))
#: Ratio-extrapolated radii are accepted to this relative error: the
#: estimator's own stabilisation test, independent of mantissa size.
RADIUS_REL_TOL = mpf("1e-6")
#: |inv_r_exponent - expected| bound for the growth witness (acceptance).
GRAF_EXPONENT_TOL = 0.1
#: series_limit's default tail-control exponent q_target.
LIMIT_Q = 6


def eps_values(bits: int):
    with mpmath.workprec(bits + 64):
        return [mpf(10) ** -k for k in GRID_DECADES]


def frac(text) -> Fraction:
    return Fraction(str(text))


def point_values(point: dict, bits: int):
    """Closed-form per-grid-point values of a point descriptor."""
    eps = eps_values(bits)
    with mpmath.workprec(bits + 64):
        if "pow" in point:
            k = frac(point["pow"])
            return [e ** (mpf(k.numerator) / k.denominator) for e in eps]
        if "const" in point:
            c = frac(point["const"])
            return [mpf(c.numerator) / c.denominator for _ in eps]
        if "neglog" in point:
            return [-mpmath.log(e) for e in eps]
    raise ValueError("unknown point %r" % point)


# ---------------------------------------------------------------------------
# Families a(n, eps) = rho^k c^n rho^(-m n) (n+1)^j, 1/n!, rho^((n+1)/eps)
# ---------------------------------------------------------------------------


def family_term(family: dict, n: int, eps_i):
    """|a(n, eps)| of a power family in closed form (for witness checks)."""
    c = frac(family["c"])
    value = (mpf(c.numerator) / c.denominator) ** n * mpf(n + 1) ** family["j"]
    return value * eps_i ** family["k"] * eps_i ** (-family["m"] * n)


def family_radius(family: dict, bits: int):
    """Closed-form radius per grid point; +inf for entire families."""
    eps = eps_values(bits)
    with mpmath.workprec(bits + 64):
        kind = family["type"]
        if kind == "power":
            c = frac(family["c"])
            base = mpf(c.denominator) / c.numerator
            return [base * e ** family["m"] for e in eps]
        if kind == "exp":
            return [mpf("+inf") for _ in eps]
        if kind == "zero":
            return [e ** (-1 / e) for e in eps]
    raise ValueError(family)


def inside(family: dict, point: dict, bits: int) -> bool:
    """Is the point strictly inside the closed-form radius on the tail?"""
    radii = family_radius(family, bits)
    xs = point_values(point, bits)
    with mpmath.workprec(bits + 64):
        return all(abs(xs[i]) < radii[i] for i in TAIL)


def member(family: dict, point: dict, bits: int, n_max: int = 8) -> bool:
    """Inside the radius with a moderate limit: |L| <= rho^-N on the tail
    for some N <= n_max (the membership test's moderateness bound)."""
    if not inside(family, point, bits):
        return False
    limits = series_limit_values(family, point, bits)
    eps = eps_values(bits)
    with mpmath.workprec(bits + 64):
        return all(abs(limits[i]) <= eps[i] ** -n_max for i in TAIL)


def series_limit_values(family: dict, point: dict, bits: int):
    """Sum over n of a(n, eps) x^n in closed form."""
    eps = eps_values(bits)
    xs = point_values(point, bits)
    out = []
    with mpmath.workprec(bits + 64):
        for e, x in zip(eps, xs):
            kind = family["type"]
            if kind == "power":
                c = frac(family["c"])
                q = mpf(c.numerator) / c.denominator * x * e ** (-family["m"])
                j = family["j"]
                core = {0: 1 / (1 - q), 1: 1 / (1 - q) ** 2,
                        2: (1 + q) / (1 - q) ** 3}[j]
                out.append(core * e ** family["k"])
            elif kind == "exp":
                out.append(mpmath.exp(x))
            elif kind == "zero":
                t = e ** (1 / e)
                out.append(t / (1 - t * x))
            else:
                raise ValueError(family)
    return out


def finite_sum_values(family: dict, point: dict, bits: int):
    """Sum over n <= floor(1/eps) of a(n, eps) x^n in closed form."""
    eps = eps_values(bits)
    xs = point_values(point, bits)
    out = []
    with mpmath.workprec(bits + 64):
        for e, x in zip(eps, xs):
            top = int(mpmath.floor(1 / e + mpf(2) ** -(bits // 2)))
            kind = family["type"]
            if kind == "power":
                c = frac(family["c"])
                q = mpf(c.numerator) / c.denominator * x * e ** (-family["m"])
                if family["j"] == 0:
                    core = (1 - q ** (top + 1)) / (1 - q)
                elif family["j"] == 1:
                    core = (1 - (top + 2) * q ** (top + 1)
                            + (top + 1) * q ** (top + 2)) / (1 - q) ** 2
                else:  # sum of m^2 q^(m-1) for m = 1 .. M
                    big = top + 1
                    core = ((1 + q) - (big + 1) ** 2 * q ** big
                            + (2 * big * big + 2 * big - 1) * q ** (big + 1)
                            - big * big * q ** (big + 2)) / (1 - q) ** 3
                out.append(core * e ** family["k"])
            elif kind == "zero":
                t = e ** (1 / e)
                q = t * x
                out.append(t * (1 - q ** (top + 1)) / (1 - q))
            else:
                raise ValueError(family)
    return out


def _close(values, expected, bits, tol_for):
    if len(values) != len(expected):
        return False, "expected %d values, got %d" % (len(expected), len(values))
    with mpmath.workprec(bits + 64):
        for i, (v, target) in enumerate(zip(values, expected)):
            v = _to_mpf(v)
            if not abs(v - target) <= tol_for(i, target):
                return False, "grid index %d: %s vs %s" % (
                    i, mpmath.nstr(v, 20), mpmath.nstr(target, 20))
    return True, ""


def _to_mpf(v):
    if isinstance(v, Fraction):
        return mpf(v.numerator) / v.denominator
    if isinstance(v, str):
        return _to_mpf(frac(v)) if "/" in v else mpf(v)
    return mpf(v)


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------


def grade_status(status: str, expected: str):
    """Verdict status against the known decisive status."""
    if status == expected:
        return OK, ""
    if status == "inconclusive":
        return INCONCLUSIVE, "expected %s" % expected
    return FAILED, "expected %s, got %s" % (expected, status)


class Raised:
    """Outcome of a request whose call raised."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__
        self.message = str(exc)[:200]

    def __repr__(self):
        return "%s(%s)" % (self.name, self.message)


def judge(request: dict, outcome) -> tuple:
    """Grade one request; outcome is the executor's return value or a
    :class:`Raised`."""
    raised = isinstance(outcome, Raised)
    if request["expect"] == "divergent":
        if raised and outcome.name == "DivergentSeriesError":
            return OK, ""
        return FAILED, "expected DivergentSeriesError, got %r" % (outcome,)
    if raised:
        return FAILED, "raised %r" % outcome
    check = _CHECKS[request["kind"]]
    return check(request, outcome)


def _check_status(request, outcome):
    return grade_status(outcome, request["expect"])


def _check_limit(request, outcome):
    bits = request["bits"]
    expected = series_limit_values(request["family"], request["point"], bits)
    eps = eps_values(bits)
    floor = mpf(2) ** (24 - bits)

    def tol(i, target):
        scale = 1 + abs(target)
        return 2 * eps[i] ** LIMIT_Q * scale + floor * scale

    good, why = _close(outcome, expected, bits, tol)
    return (OK, "") if good else (FAILED, why)


def _check_sum(request, outcome):
    bits = request["bits"]
    expected = finite_sum_values(request["family"], request["point"], bits)
    floor = mpf(2) ** (32 - bits)
    good, why = _close(outcome, expected, bits,
                       lambda i, target: floor * (1 + abs(target)))
    return (OK, "") if good else (FAILED, why)


def _check_radius(request, outcome):
    bits = request["bits"]
    expected = family_radius(request["family"], bits)
    if len(outcome) != len(expected):
        return FAILED, "expected %d radii, got %d" % (len(expected), len(outcome))
    with mpmath.workprec(bits + 64):
        for i, (v, target) in enumerate(zip(outcome, expected)):
            v = _to_mpf(v)
            if mpmath.isinf(target) or mpmath.isinf(v):
                if v != target:
                    return FAILED, "grid index %d: %s vs %s" % (i, v, target)
                continue
            if not abs(v - target) <= RADIUS_REL_TOL * target:
                return FAILED, "grid index %d: radius %s vs %s" % (
                    i, mpmath.nstr(v, 15), mpmath.nstr(target, 15))
    return OK, ""


def expected_classes(family: dict, bits: int, p_max: int = 8):
    """Classes and P_m of classify_radius from the closed-form radius."""
    radii = family_radius(family, bits)
    eps = eps_values(bits)
    classes = []
    with mpmath.workprec(bits + 64):
        for r, e in zip(radii, eps):
            if mpmath.isinf(r):
                classes.append("infinite")
            elif r <= e ** -p_max:
                classes.append("moderate")
            else:
                classes.append("beyond")
        p_m = None
        if "moderate" in classes:
            for p in range(p_max + 1):
                if any(not mpmath.isinf(radii[i]) and radii[i] <= eps[i] ** -p
                       for i in TAIL):
                    p_m = p
                    break
    return classes, p_m


def _check_classify(request, outcome):
    classes, p_m = outcome
    want_classes, want_p = expected_classes(request["family"], request["bits"])
    if list(classes) == want_classes and p_m == want_p:
        return OK, ""
    return FAILED, "classes %s P_m %s, expected %s P_m %s" % (
        list(classes), p_m, want_classes, want_p)


def _check_weak(request, outcome):
    status, witness = outcome
    grade = grade_status(status, request["expect"])
    if grade[0] != OK or status != "pass":
        return grade
    # the witness must hold: |a(n, eps)| <= rho^-(nQ + R) on the tail
    q, r = witness
    bits = request["bits"]
    eps = eps_values(bits)
    with mpmath.workprec(bits + 64):
        slack = 1 + mpf(2) ** (32 - bits)
        for i in TAIL:
            for n in range(request["n_max"] + 1):
                term = family_term(request["family"], n, eps[i])
                if not term <= eps[i] ** -(n * q + r) * slack:
                    return FAILED, "witness (%d, %d) fails at n=%d, index %d" % (
                        q, r, n, i)
    return OK, ""


def _check_exact_columns(request, outcome):
    got, want = outcome
    if [Fraction(v) for v in got] == [Fraction(v) for v in want]:
        return OK, ""
    return FAILED, "round trip differs from the input"


def _check_identity(request, outcome):
    want = [Fraction(0), Fraction(1)] + [Fraction(0)] * (request["n_max"] - 1)
    if all(isinstance(v, (int, Fraction)) for v in outcome) and \
            [Fraction(v) for v in outcome] == want:
        return OK, ""
    return FAILED, "composition with the reverse is not the identity"


def _check_graf(request, outcome):
    status, exponent = outcome
    grade = grade_status(status, request["expect"])
    if grade[0] != OK or status != "pass":
        return grade
    target = request["exponent"]
    if exponent is not None and abs(exponent - target) <= GRAF_EXPONENT_TOL:
        return OK, ""
    return FAILED, "growth exponent %r, expected %s" % (exponent, target)


def _check_witness(request, outcome):
    status, witness = outcome
    grade = grade_status(status, request["expect"])
    if grade[0] != OK or status != "pass":
        return grade
    if witness == frac(request["witness"]):
        return OK, ""
    return FAILED, "witness %s, expected %s" % (witness, request["witness"])


_CHECKS = {
    "converges_at": _check_status,
    "eventually_bounded": _check_status,
    "series_limit": _check_limit,
    "hyperfinite_sum": _check_sum,
    "radius": _check_radius,
    "classify_radius": _check_classify,
    "check_weak_moderate": _check_weak,
    "check_strong_eq": _check_status,
    "division_round_trip": _check_exact_columns,
    "reverse_compose": _check_identity,
    "graf_check": _check_graf,
    "is_moderate": _check_witness,
    "is_negligible": _check_status,
    "ext_eq": _check_status,
    "gauge_le_star": _check_witness,
}


# ---------------------------------------------------------------------------
# Command-line reports (cli-cold)
# ---------------------------------------------------------------------------


def report_hash(report: dict) -> str:
    """SHA-256 of the canonical body: sorted keys, no whitespace, every key
    except ``timing`` and the hash itself (docs/report-schema.md)."""
    body = {k: v for k, v in report.items()
            if k not in ("report_hash", "timing")}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=True).encode("utf-8")
    return "sha256:" + hashlib.sha256(canonical).hexdigest()


EXIT_STATUS = {0: "pass", 2: "fail", 3: "inconclusive"}


def judge_cli(request: dict, outcome) -> tuple:
    """Exit code against the known verdict, the recomputed report hash, and
    the reported values where the command reports any."""
    code, text = outcome
    want = request["exit"]
    if code != want:
        if code == 3 and want in (0, 2):
            return INCONCLUSIVE, "exit 3, expected %d" % want
        return FAILED, "exit %s, expected %d" % (code, want)
    try:
        report = json.loads(text)
    except (TypeError, ValueError):
        return FAILED, "no readable report"
    if report.get("report_hash") != report_hash(report):
        return FAILED, "report_hash does not match the canonical body"
    if report.get("overall") != EXIT_STATUS[code]:
        return FAILED, "overall %r disagrees with exit %d" % (
            report.get("overall"), code)
    check = request.get("check")
    if check is None:
        return OK, ""
    details = report["checks"][0]["details"]
    bits = request["bits"]
    if check == "radius":
        return _check_radius(request, details["r"])
    if check == "sum":
        return _check_sum(request, details["values"])
    if check == "limit":
        return _check_limit(request, details["values"])
    if check == "classify":
        return _check_classify(request, (details["classes"], details["P_m"]))
    if check == "div":
        # (sum c^n x^n) / (sum x^n) = (1 - x) sum c^n x^n
        c = frac(request["c"])
        for row in details["head"]:
            n = int(row[0])
            want_value = Fraction(1) if n == 0 else c ** n - c ** (n - 1)
            if any(frac(v) != want_value for v in row[1:]):
                return FAILED, "quotient coefficient %d is not %s" % (n, want_value)
        return OK, ""
    raise ValueError("unknown check %r at %d bits" % (check, bits))

"""Factorial-growth analysis, Taylor extraction, and the canonical nets.

The central test: a family of smooth nets is locally representable by its
own coefficient series exactly when the derivatives obey a uniform bound
``|f^(n)(x)| <= C * n! / R^n`` on a ball, where C and R are themselves nets
(so 1/R may be an infinite quantity; its gauge exponent separates the
classically analytic case, 1/R finite, from the genuinely generalized one).

This module provides the witness search for that bound over a recorded
lattice of gauge powers, Taylor-coefficient extraction, and the worked
examples the package treats as canonical: the mollifier-based Dirac delta,
a smooth function with a flat point, and a nowhere-analytic growth family
that the admissibility check must reject.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from . import netexpr
from .nets import (FAIL, PASS, ConfigError, EpsGrid, Gauge, GenNum,
                   Verdict, combine_verdicts, is_negligible)
from .numerics import GUARD_BITS, as_mpf, decimal_str, working_precision
from .series import (DivergentSeriesError, HpsCoefficients, HpsSeries,
                     _doubling_slopes, _first_bound, _upward_trend,
                     check_weak_moderate, derived_coefficients, series_limit)


class InvalidMollifierError(Exception):
    """Moment table violates the evenness/bound constraints of a bump."""


class OutOfCheckableRangeError(Exception):
    """Argument too large for the truncated moment series to control."""


# ---------------------------------------------------------------------------
# Derivative nets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DerivativeNet:
    """A net of smooth functions, presented through derivative evaluators.

    ``eval_deriv(k, x)`` returns the net of k-th derivatives at a
    generalized argument x.  Backings: a series (derivatives through the
    derived coefficient families), a single closed-form expression reused
    for every order (e.g. the exponential), or a mollifier scaled by an
    infinite factor (the Dirac delta embedding).
    """

    evaluator: Callable[[int, GenNum], GenNum]
    k_max: int
    label: str = ""

    def eval_deriv(self, k: int, x: GenNum) -> GenNum:
        if not 0 <= k <= self.k_max:
            raise ConfigError("derivative order %d outside 0..%d" % (k, self.k_max))
        return self.evaluator(k, x)

    @classmethod
    def from_series(cls, series: HpsSeries, k_max: int = 64) -> "DerivativeNet":
        """Derivatives as limits of the derived series, to rho^10 tails."""
        def evaluate(k: int, x: GenNum) -> GenNum:
            derived = series if k == 0 else replace(
                series, coeffs=derived_coefficients(series.coeffs, k))
            try:
                return series_limit(derived, x, q_target=10)
            except DivergentSeriesError as exc:
                raise ConfigError("derivative series does not settle at grid "
                                  "indices %s" % list(exc.cells)) from exc

        return cls(evaluator=evaluate, k_max=k_max)

    @classmethod
    def from_uniform_expr(cls, text_or_expr, grid: EpsGrid, rho: Gauge,
                          k_max: int = 64) -> "DerivativeNet":
        """One expression in (eps, rho, x) serving every derivative order."""
        expr = (netexpr.parse(text_or_expr)
                if isinstance(text_or_expr, str) else text_or_expr)
        bad = netexpr.free_vars(expr) - {"eps", "rho", "x"}
        if bad:
            raise ConfigError("function net uses %s" % ", ".join(sorted(bad)))
        rho_values = rho.values_on(grid)

        def evaluate(_k: int, x: GenNum) -> GenNum:
            values = []
            for i in range(len(grid)):
                env = {"eps": grid.points[i], "rho": rho_values[i],
                       "x": as_mpf(x.values[i], grid.precision)}
                values.append(netexpr.eval_mpf(expr, env, grid.precision))
            return GenNum(values=tuple(values), grid=grid)

        return cls(evaluator=evaluate, k_max=k_max)


# ---------------------------------------------------------------------------
# Mollifier and the Dirac delta
# ---------------------------------------------------------------------------


def bump_value(t: mpf, bits: int) -> mpf:
    """Even bump: 1 on [-1/2, 1/2], exp-based fall to 0 at +-1, 0 outside."""
    with working_precision(bits):
        t = abs(t)
        if t <= mpf(1) / 2:
            return mpf(1)
        if t >= 1:
            return mpf(0)
        s = (t - mpf(1) / 2) * 2  # in (0, 1)
        g_up = mpmath.exp(-1 / (1 - s))
        g_down = mpmath.exp(-1 / s)
        return g_up / (g_up + g_down)


#: The process-wide moment cache of ``_even_moment``, keyed by (n, bits).
_EVEN_MOMENTS: dict = {}


def _even_moment(n: int, bits: int, bump: Callable[[mpf], mpf]) -> mpf:
    """m_n = integral of bump(t) t^n over [-1, 1] for even n (exact zero odd).

    ``bump(t)`` is ``bump_value(t, bits + 48)`` read through the node memo
    of the ``make_mollifier`` build that asks; that memo lives only as long
    as the build.  The moment itself is computed once per process and
    ``(n, bits)`` and kept in ``_EVEN_MOMENTS``, the one process-wide cache.
    """
    key = (n, bits)
    if key not in _EVEN_MOMENTS:
        with working_precision(bits + 48):
            plateau = (mpf(1) / 2) ** (n + 1) / (n + 1)
            ramp = mpmath.quad(lambda t: bump(t) * t ** n,
                               [mpf(1) / 2, mpf(1)])
            _EVEN_MOMENTS[key] = +(2 * (plateau + ramp))
    return _EVEN_MOMENTS[key]


@dataclass(frozen=True)
class MollifierSpec:
    """Moment table of the bump (:func:`bump_value`) plus the infinite
    scaling factor b.

    Stored derivative values use the real convention
    ``mu^(n)(0) = (-1)^(n/2) m_n / (2 pi)`` for even n and exactly zero for
    odd n.
    """

    moments: Tuple[mpf, ...]
    b: GenNum
    b_exponent: int
    grid: EpsGrid

    @property
    def n_max(self) -> int:
        return len(self.moments) - 1

    def mu_deriv_at_zero(self, n: int) -> mpf:
        if n > self.n_max:
            raise ConfigError("moments end at n=%d" % self.n_max)
        if n % 2 == 1:
            return mpf(0)
        with working_precision(self.grid.precision):
            sign = -1 if (n // 2) % 2 else 1
            return sign * self.moments[n] / (2 * mpmath.pi)

    @cached_property
    def _series_table(self):
        """``mu^(n)(0)`` for n = 0..n_max and ``j!`` for j = 0..n_max+1,
        both at the grid precision, computed once per spec."""
        with working_precision(self.grid.precision):
            derivs = tuple(self.mu_deriv_at_zero(n)
                           for n in range(self.n_max + 1))
            factorials = tuple(mpmath.factorial(j)
                               for j in range(self.n_max + 2))
        return derivs, factorials

    def mu_series_at(self, k: int, y: mpf) -> mpf:
        """mu^(k)(y) through the moment series, with a factorial tail audit.

        Every derivative of the mollifier is bounded by the zeroth moment,
        so a raw factorial tail below 1e-40 leaves all gauge-power
        comparisons in the package untouched.
        """
        if k > self.n_max:
            raise ConfigError("moments end at n=%d" % self.n_max)
        derivs, factorials = self._series_table
        bits = self.grid.precision
        with working_precision(bits):
            y = as_mpf(y, bits)
            top = self.n_max - k
            tail = abs(y) ** (top + 1) / factorials[top + 1]
            if not tail <= mpf("1e-40"):
                raise OutOfCheckableRangeError(
                    "argument magnitude %s defeats the truncated moment series"
                    % decimal_str(abs(y), 64))
            total = mpf(0)
            power = mpf(1)
            for j in range(top + 1):
                mu = derivs[k + j]
                if mu:
                    total += mu * power / factorials[j]
                power *= y
            return total


def make_mollifier(grid: EpsGrid, rho: Gauge, b_exponent: int = 1,
                   n_max: int = 96) -> MollifierSpec:
    """Standard bump mollifier scaled by b = (1/rho)^b_exponent.

    At a fixed precision ``mpmath.quad`` integrates every moment on the same
    tanh-sinh nodes of [1/2, 1], so this build evaluates the bump once per
    node: a memo keyed by the node's ``_mpf_``, dropped when the build
    returns.  Moments already in ``_even_moment``'s cache evaluate nothing.
    """
    bits = grid.precision
    nodes = {}

    def bump(t: mpf) -> mpf:
        if t._mpf_ not in nodes:
            nodes[t._mpf_] = bump_value(t, bits + 48)
        return nodes[t._mpf_]

    moments = []
    for n in range(n_max + 1):
        if n % 2 == 1:
            moments.append(mpf(0))
        else:
            moments.append(_even_moment(n, bits, bump))
    b = GenNum.from_expr("rho^(-%d)" % b_exponent, grid, rho)
    _validate_moments(moments)
    return MollifierSpec(moments=tuple(moments), b=b, b_exponent=b_exponent,
                         grid=grid)


def _validate_moments(moments) -> None:
    for n, m in enumerate(moments):
        if n % 2 == 1 and m != 0:
            raise InvalidMollifierError("odd moment %d is nonzero" % n)
        if abs(m) > 2:
            raise InvalidMollifierError("moment %d exceeds the support bound" % n)
    if not 0 < moments[0] <= 2:
        raise InvalidMollifierError("zeroth moment outside (0, 2]")


def delta_coeffs(m: MollifierSpec, n_max: int) -> HpsCoefficients:
    """Series family of the delta embedding: mu^(n)(0) b^(n+1) / n!.

    Odd entries are exactly zero; the weak witness ties to b's exponent.
    """
    if n_max > m.n_max:
        raise ConfigError("moments end at n=%d, need %d" % (m.n_max, n_max))
    _validate_moments(m.moments)
    grid = m.grid
    bits = grid.precision
    rows = []
    with working_precision(bits):
        for n in range(n_max + 1):
            mu = m.mu_deriv_at_zero(n)
            if mu == 0:
                rows.append(Fraction(0))
                continue
            fact = mpmath.factorial(n)
            rows.append(tuple(mu * as_mpf(m.b.values[i], bits) ** (n + 1) / fact
                              for i in range(len(grid))))
    return HpsCoefficients.from_column(rows)


def delta_derivative_net(m: MollifierSpec, k_max: int = 64) -> DerivativeNet:
    """Derivative evaluators of the delta embedding: b^(k+1) mu^(k)(b x)."""
    grid = m.grid
    bits = grid.precision

    def evaluate(k: int, x: GenNum) -> GenNum:
        values = []
        with working_precision(bits):
            for i in range(len(grid)):
                b_i = as_mpf(m.b.values[i], bits)
                y = b_i * as_mpf(x.values[i], bits)
                values.append(b_i ** (k + 1) * m.mu_series_at(k, y))
        return GenNum(values=tuple(values), grid=grid)

    return DerivativeNet(evaluator=evaluate, k_max=k_max)


def delta_eval(m: MollifierSpec, x: GenNum) -> GenNum:
    """delta(x) = b * mu(b x) through the moment series of the mollifier."""
    return delta_derivative_net(m).eval_deriv(0, x)


# ---------------------------------------------------------------------------
# Taylor extraction and the growth-rate witness
# ---------------------------------------------------------------------------


def taylor_coeffs(f: DerivativeNet, c: GenNum, n_max: int, rho: Gauge,
                  grid: EpsGrid) -> Tuple[HpsCoefficients, Verdict]:
    """Family f^(k)(c)/k! with its admissibility verdict."""
    bits = grid.precision
    rows = []
    with working_precision(bits):
        for k in range(n_max + 1):
            net = f.eval_deriv(k, c)
            fact = math.factorial(k)
            rows.append(tuple(_div_exactish(v, fact, bits) for v in net.values))
    out = HpsCoefficients.from_column(rows)
    return out, check_weak_moderate(out, rho, grid, n_max=min(64, n_max))


def _div_exactish(v, fact, bits):
    if isinstance(v, (int, Fraction)):
        return Fraction(v, fact) if isinstance(v, int) else v / fact
    with working_precision(bits):
        return v / mpf(fact)


@dataclass(frozen=True)
class GrowthWitness:
    """Outcome of the factorial-growth bound search.

    ``inv_r_exponent`` estimates the gauge exponent of 1/R: near zero the
    net behaves like a classically analytic family (finite constants); a
    positive exponent marks a genuinely infinite growth constant, as for
    the delta embedding where 1/R tracks b.  A passing verdict's witness
    ``(q, p, lambda, kappa)`` fixes the bound: C = kappa / rho^p and
    R = lambda * rho^q.
    """

    verdict: Verdict
    inv_r_exponent: Optional[float]


_HALF_LATTICE = tuple(Fraction(k, 2) for k in range(9))  # 0, 1/2, ..., 4
_SCALE_LATTICE = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(4),
                  Fraction(1, 4), Fraction(8), Fraction(1, 8), Fraction(16),
                  Fraction(1, 16))
_KAPPA_LATTICE = (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4),
                  Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4),
                  Fraction(8), Fraction(16))


def graf_check(f: DerivativeNet, c: GenNum, s: GenNum, n_max: int,
               sample_x: Sequence[GenNum], rho: Gauge,
               grid: EpsGrid) -> GrowthWitness:
    """Search (C, R) = (kappa/rho^p, lambda rho^q) with
    |f^(n)(x)| <= C n! / R^n over samples, the tail, and n <= n_max.

    A pointwise lattice hit is rejected when the normalized derivative
    slope ``log(|f^(n)|/n!) / (n log(1/rho))`` still climbs between dyadic
    blocks of n: factorial-squared growth passes any fixed lattice bound on
    a finite window, and only the trend betrays it.  So ``n_max`` must reach
    the first dyadic block, n = 5..8.
    """
    if n_max < 8:
        raise ConfigError("n_max must be >= 8")
    bits = grid.precision
    rho_values = rho.values_on(grid)
    tail = list(grid.tail)
    with working_precision(bits + GUARD_BITS):
        for x in sample_x:
            for i in tail:
                gap = abs(as_mpf(x.values[i], bits) - as_mpf(c.values[i], bits))
                if not gap <= as_mpf(s.values[i], bits) * mpf(15) / 16:
                    raise ConfigError("sample leaves the ball (margin 1/16)")
    magnitudes = []  # [n][sample][tail-slot]
    for n in range(n_max + 1):
        per_sample = []
        for x in sample_x:
            net = f.eval_deriv(n, x)
            with working_precision(bits):
                per_sample.append([abs(as_mpf(net.values[i], bits))
                                   for i in tail])
        magnitudes.append(per_sample)

    slopes = _doubling_slopes(magnitudes, tail, rho_values, bits, n_max,
                              factorial=True)
    with working_precision(bits + GUARD_BITS):
        factorials = [mpmath.factorial(n) for n in range(n_max + 1)]
    if _upward_trend(slopes):
        worst = _worst_cell(magnitudes, factorials, tail, n_max)
        verdict = Verdict(FAIL, counterexample={
            "slopes": [decimal_str(v, 64) for v in slopes if v is not None],
            "worst_cell": worst},
            notes="derivative growth outpaces every factorial/geometric "
                  "bound: slope keeps climbing with n")
        return GrowthWitness(verdict=verdict, inv_r_exponent=None)
    found = _first_bound(magnitudes, tail, rho_values, bits,
                         itertools.product(_HALF_LATTICE, _HALF_LATTICE,
                                           _SCALE_LATTICE, _KAPPA_LATTICE),
                         factorials)
    if found is None:
        worst = _worst_cell(magnitudes, factorials, tail, n_max)
        verdict = Verdict(FAIL, counterexample={"worst_cell": worst},
                          notes="witness lattice exhausted")
        return GrowthWitness(verdict=verdict, inv_r_exponent=None)
    q, p, lam, kappa = found
    with working_precision(bits):
        exponents = [float(as_mpf(q, bits) - mpmath.log(as_mpf(lam, bits))
                           / mpmath.log(1 / rho_values[i])) for i in tail]
        inv_r = sum(exponents) / len(exponents)
    verdict = Verdict(PASS, witness={"q": q, "p": p, "lambda": lam,
                                     "kappa": kappa})
    return GrowthWitness(verdict=verdict, inv_r_exponent=inv_r)


def _worst_cell(magnitudes, factorials, tail, n_max):
    worst = None
    for n in range(n_max + 1):
        for s_idx, sample in enumerate(magnitudes[n]):
            for j, value in enumerate(sample):
                if value == 0:
                    continue
                score = mpmath.log(value) - mpmath.log(factorials[n])
                if worst is None or score > worst[0]:
                    worst = (score, n, s_idx, tail[j])
    if worst is None:
        return None
    return {"n": worst[1], "sample": worst[2], "grid_index": worst[3]}


# ---------------------------------------------------------------------------
# Flat point and the nowhere-analytic rejection
# ---------------------------------------------------------------------------


def flat_point_values(x: GenNum, grid: EpsGrid) -> GenNum:
    """f(x) = exp(-1/x) for x > 0, 0 otherwise, pointwise on the grid."""
    bits = grid.precision
    values = []
    with working_precision(bits):
        for v in x.values:
            v_m = as_mpf(v, bits)
            values.append(mpmath.exp(-1 / v_m) if v_m > 0 else mpf(0))
    return GenNum(values=tuple(values), grid=grid)


def flat_point_taylor_at_one(n_max: int) -> HpsCoefficients:
    """Exact Taylor family of exp(-1/x) at 1, up to the factor exp(-1).

    Around 1, ``-1/(1+h) = -1 + (h - h^2 + h^3 - ...)``, so the series is
    exp(-1) times the composition of the exponential with the alternating
    identity tail; the composition stays in exact rationals.
    """
    from .algebra import _compose_column
    inner = [Fraction(0)] + [Fraction((-1) ** (k + 1))
                             for k in range(1, n_max + 1)]
    outer = [Fraction(1, math.factorial(k)) for k in range(n_max + 1)]
    column = _compose_column(outer, inner, n_max, 256)
    return HpsCoefficients.from_column(column)


def flat_point_check(grid: EpsGrid, rho: Gauge) -> Verdict:
    """Negligibility at infinitesimal arguments plus a finite-point series.

    The function vanishes to every gauge order at arguments of size
    rho^(1/2), rho, rho^2 (checked for q <= 4 from the third decade on,
    where the exponent has cleared 4), while the exact series at center 1
    reproduces the value at 1.1 to 1e-10 with the terms n <= 40.
    """
    n_max = 40
    deep = grid.with_tail_start(min(2, len(grid) - 1))
    parts = {}
    for label, expr in (("r_half", "rho^(1/2)"), ("r_one", "rho"),
                        ("r_two", "rho^2")):
        x = GenNum.from_expr(expr, grid, rho)
        parts[label] = is_negligible(flat_point_values(x, grid), rho, deep,
                                     q_max=4)
    bits = grid.precision
    composed = flat_point_taylor_at_one(n_max)
    with working_precision(bits):
        column = composed.column_values(n_max)
        h = mpf(1) / 10
        total = mpf(0)
        power = mpf(1)
        for n in range(n_max + 1):
            total += as_mpf(column[n], bits) * power
            power *= h
        series_value = mpmath.exp(-1) * total
        direct = mpmath.exp(-1 / (1 + h))
        err = abs(series_value - direct)
        if err <= mpf(10) ** -10:
            parts["series_at_1.1"] = Verdict(
                PASS, witness={"abs_error": decimal_str(err, 64)})
        else:
            parts["series_at_1.1"] = Verdict(
                FAIL, counterexample={"abs_error": decimal_str(err, 64)},
                notes="series at center 1 misses the direct value")
    return combine_verdicts(parts)


def nowhere_analytic_coeffs() -> HpsCoefficients:
    """Coefficient lower bounds of a nowhere-analytic smooth function:
    exp(-2n) (4 n^2)^n / n!; admissibility must reject this family."""
    return HpsCoefficients.from_expr("exp(-2*n)*(4*n^2)^n/factorial(n)")


def nowhere_analytic_reject(grid: EpsGrid, rho: Gauge) -> Verdict:
    """Pass exactly when the admissibility check rejects the growth family
    on the rows n <= 64."""
    inner = check_weak_moderate(nowhere_analytic_coeffs(), rho, grid,
                                n_max=64)
    if inner.failed:
        return Verdict(PASS, witness={"rejected": True,
                                      "detail": inner.counterexample})
    return Verdict(FAIL, counterexample={"unexpected_status": inner.status},
                   notes="growth family was not rejected")

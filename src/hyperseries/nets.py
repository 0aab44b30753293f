"""Grids, gauges, generalized numbers and the asymptotic predicates.

The whole package computes on finite samples of nets ``eps -> value``.  An
:class:`EpsGrid` fixes the sample points (strictly decreasing in ``(0, 1]``)
together with a *tail*: the suffix of the grid standing in for "all
sufficiently small eps".  A :class:`Gauge` is the reference scale ``rho``;
all size statements are read as powers of ``rho_eps``.

Because a finite grid cannot decide a limit, every predicate returns a
three-valued :class:`Verdict`: ``pass`` with an explicit witness (e.g. the
exponent that makes the inequality true on the tail), ``fail`` with a
counterexample cell, or ``inconclusive`` when the sampled evidence does not
settle the quantifier either way.  Trend tests over the tail (is the
log-scale exponent rising, flat, or sinking?) are the finite proxy for the
"for every q eventually" quantifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import mpmath
from mpmath import mpf

from . import netexpr
from .numerics import (Num, as_mpf, decimal_str, num_sub, tail_exceeds,
                       working_precision)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

#: Valuations may wobble by roundoff; treat drops below this as noise.
TREND_SLACK = 1e-9
#: A tail-to-tail drop of at least this much counts as genuinely sinking.
TREND_DROP = 0.5
#: Largest lattice exponent Q that :func:`gauge_le_star` tests.
GAUGE_Q_MAX = 8
#: Largest sigma exponent M that :func:`hypernat_from_expr` tests.
HYPERNAT_M_MAX = 8


class ConfigError(Exception):
    """Bad grid/gauge/parameter combination."""


class InvalidGaugeError(ConfigError):
    """Gauge value outside (0, 1) where a log scale is required."""


class NotHypernaturalError(Exception):
    """Integer net grows faster than every tested power of the gauge."""


@dataclass(frozen=True)
class Verdict:
    """Three-valued outcome of an asymptotic predicate on a grid."""

    status: str
    witness: Optional[dict] = None
    counterexample: Optional[dict] = None
    notes: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError("bad verdict status %r" % self.status)
        if self.status == PASS and self.witness is None:
            raise ValueError("pass verdict requires a witness")
        if self.status == FAIL and self.counterexample is None:
            raise ValueError("fail verdict requires a counterexample")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def combine_verdicts(parts: dict, notes: str = "") -> Verdict:
    """Conjunction: pass iff all pass, fail if any fails."""
    if all(v.passed for v in parts.values()):
        return Verdict(PASS, witness={k: v.witness for k, v in parts.items()},
                       notes=notes)
    failed = {k: v for k, v in parts.items() if v.failed}
    if failed:
        key = sorted(failed)[0]
        return Verdict(FAIL, counterexample={"condition": key,
                                             "detail": failed[key].counterexample},
                       notes=notes)
    key = sorted(k for k, v in parts.items() if not v.passed)[0]
    return Verdict(INCONCLUSIVE, notes=notes or "condition %r inconclusive" % key)


@dataclass(frozen=True)
class EpsGrid:
    """Strictly decreasing sample points in (0, 1] plus a tail marker."""

    points: Tuple[mpf, ...]
    tail_start: int = 1
    precision: int = 256

    def __post_init__(self):
        if not self.points:
            raise ConfigError("empty grid")
        if self.precision < 64:
            raise ConfigError("precision must be at least 64 bits")
        previous = None
        for p in self.points:
            if not (0 < p <= 1):
                raise ConfigError("grid point %s outside (0, 1]" % decimal_str(p, 64))
            if previous is not None and p >= previous:
                raise ConfigError("grid points must strictly decrease")
            previous = p
        if not (0 <= self.tail_start < len(self.points)):
            raise ConfigError("tail_start out of range")

    @classmethod
    def decades(cls, k_min: int = 1, k_max: int = 8, tail_start: int = 1,
                precision: int = 256) -> "EpsGrid":
        """The default grid eps = 10^-k for k = k_min..k_max."""
        with working_precision(precision):
            points = tuple(mpf(10) ** -k for k in range(k_min, k_max + 1))
        return cls(points=points, tail_start=tail_start, precision=precision)

    def __len__(self):
        return len(self.points)

    @property
    def tail(self) -> range:
        """Indices where asymptotic statements must hold."""
        return range(self.tail_start, len(self.points))

    def with_tail_start(self, tail_start: int) -> "EpsGrid":
        return EpsGrid(self.points, tail_start, self.precision)

    def describe(self) -> dict:
        return {"points": [decimal_str(p, self.precision) for p in self.points],
                "tail_start": self.tail_start, "precision": self.precision}


@dataclass(frozen=True)
class Gauge:
    """A net eps -> (0, 1], evaluable on any grid; the asymptotic scale."""

    expr: netexpr.Expr
    name: str = "rho"

    @classmethod
    def from_text(cls, text: str, name: str = "rho") -> "Gauge":
        expr = netexpr.parse(text)
        bad = netexpr.free_vars(expr) - {"eps"}
        if bad:
            raise ConfigError("gauge %r may only depend on eps (found %s)"
                              % (name, ", ".join(sorted(bad))))
        return cls(expr=expr, name=name)

    def values_on(self, grid: EpsGrid) -> Tuple[mpf, ...]:
        values = tuple(netexpr.eval_mpf(self.expr, {"eps": p}, grid.precision)
                       for p in grid.points)
        for v in values:
            if not (0 < v <= 1):
                raise InvalidGaugeError("gauge %r leaves (0, 1] on the grid" % self.name)
        for a, b in zip(values, values[1:]):
            if b > a:
                raise InvalidGaugeError("gauge %r must be non-increasing" % self.name)
        if not values[-1] < values[0]:
            raise InvalidGaugeError("gauge %r does not decrease across the grid"
                                    % self.name)
        return values


@dataclass(frozen=True)
class GenNum:
    """A representative net: one value per grid point, finite except where
    the net is extended (a radius of convergence may be +-inf)."""

    values: Tuple[Num, ...]
    grid: EpsGrid

    def __post_init__(self):
        if len(self.values) != len(self.grid):
            raise ConfigError("one value per grid point required")

    @classmethod
    def from_expr(cls, text_or_expr, grid: EpsGrid, rho: Optional[Gauge] = None) -> "GenNum":
        expr = (netexpr.parse(text_or_expr)
                if isinstance(text_or_expr, str) else text_or_expr)
        allowed = {"eps"} | ({"rho"} if rho is not None else set())
        bad = netexpr.free_vars(expr) - allowed
        if bad:
            raise ConfigError("net expression uses %s outside its context"
                              % ", ".join(sorted(bad)))
        rho_values = rho.values_on(grid) if rho is not None else [None] * len(grid)
        values = []
        for point, rho_value in zip(grid.points, rho_values):
            env = {"eps": point}
            if rho_value is not None:
                env["rho"] = rho_value
            values.append(netexpr.evaluate(expr, env, grid.precision))
        return cls(values=tuple(values), grid=grid)

    @classmethod
    def constant(cls, value, grid: EpsGrid) -> "GenNum":
        v = Fraction(value) if isinstance(value, (int, Fraction)) else value
        return cls(values=tuple(v for _ in grid.points), grid=grid)

    def _lift(self, other) -> "GenNum":
        if isinstance(other, GenNum):
            if other.grid is not self.grid and other.grid != self.grid:
                raise ConfigError("grid mismatch")
            return other
        return GenNum.constant(other, self.grid)

    def _zip(self, other, op) -> "GenNum":
        rhs = self._lift(other)
        bits = self.grid.precision
        return GenNum(values=tuple(op(a, b, bits)
                                   for a, b in zip(self.values, rhs.values)),
                      grid=self.grid)

    def __add__(self, other):
        from .numerics import num_add
        return self._zip(other, num_add)

    def __sub__(self, other):
        return self._zip(other, num_sub)

    def __mul__(self, other):
        from .numerics import num_mul
        return self._zip(other, num_mul)

    def __truediv__(self, other):
        from .numerics import num_div
        return self._zip(other, num_div)

    def __neg__(self):
        return GenNum(values=tuple(-v for v in self.values), grid=self.grid)

    def __abs__(self):
        return GenNum(values=tuple(abs(v) for v in self.values), grid=self.grid)

    def mpf_values(self) -> Tuple[mpf, ...]:
        return tuple(as_mpf(v, self.grid.precision) for v in self.values)

    def describe(self) -> list:
        return [decimal_str(v, self.grid.precision) for v in self.values]


@dataclass(frozen=True)
class HyperNat:
    """Integer net bounded by a power of the companion gauge sigma."""

    values: Tuple[int, ...]
    grid: EpsGrid
    sigma_witness: int = 0

    def __post_init__(self):
        if len(self.values) != len(self.grid):
            raise ConfigError("one value per grid point required")
        if any(v < 0 for v in self.values):
            raise ConfigError("hypernatural values must be non-negative")


# ---------------------------------------------------------------------------
# Trend helpers on tail valuations
# ---------------------------------------------------------------------------


def _nondecreasing(tail_values) -> bool:
    for a, b in zip(tail_values, tail_values[1:]):
        if mpmath.isinf(a) and a > 0:
            continue  # +inf dominates whatever follows it
        if mpmath.isinf(b) and b > 0:
            continue
        if b < a - TREND_SLACK:
            return False
    return True


def _sinking(tail_values) -> bool:
    """True when the exponent falls by a real margin at every tail step."""
    if len(tail_values) < 2:
        return False
    for a, b in zip(tail_values, tail_values[1:]):
        if mpmath.isinf(a) or mpmath.isinf(b):
            return False
        if not b <= a - TREND_DROP:
            return False
    return True


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def valuation(x: GenNum, rho: Gauge, grid: EpsGrid) -> Tuple[mpf, ...]:
    """Per-point exponents v = log|x| / log rho; +inf where x vanishes.

    ``|x_eps| <= rho_eps^-N`` on the tail for some N exactly when the tail
    valuations are bounded below by ``-N``.
    """
    rho_values = rho.values_on(grid)
    raw = []
    # extra bits make the log ratio land exactly on integer exponents
    with working_precision(grid.precision + 32):
        for value, rho_value in zip(x.values, rho_values):
            if rho_value >= 1:
                raise InvalidGaugeError("valuation needs rho < 1 on the grid")
            if value == 0:
                raw.append(mpf("+inf"))
            else:
                raw.append(mpmath.log(abs(as_mpf(value, grid.precision)))
                           / mpmath.log(rho_value))
    with working_precision(grid.precision):
        return tuple(+v for v in raw)


def is_moderate(x: GenNum, rho: Gauge, grid: EpsGrid, n_max: int = 8) -> Verdict:
    """Smallest N <= n_max with |x_eps| <= rho_eps^-N on the whole tail."""
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    tail = grid.tail
    rho_values = rho.values_on(grid)
    for candidate in range(n_max + 1):
        if tail_exceeds(x.values, rho_values, tail, -candidate,
                        grid.precision) is None:
            return Verdict(PASS, witness={"N": candidate})
    vals = valuation(x, rho, grid)
    tail_vals = [vals[i] for i in tail]
    worst = min(range(len(tail)), key=lambda j: tail_vals[j])
    cell = tail[0] + worst
    counterexample = {"grid_index": cell,
                      "eps": decimal_str(grid.points[cell], grid.precision),
                      "valuation": decimal_str(vals[cell], 64)}
    if _sinking(tail_vals):
        return Verdict(FAIL, counterexample=counterexample,
                       notes="exponent sinks along the tail; no N can work")
    return Verdict(INCONCLUSIVE,
                   notes="n_max=%d exceeded but exponent trend is not sinking" % n_max)


def is_negligible(x: GenNum, rho: Gauge, grid: EpsGrid, q_max: int = 6) -> Verdict:
    """Does |x_eps| <= rho_eps^q hold on the tail for every q up to q_max?

    Pass additionally requires the valuation to be non-decreasing along the
    tail: a bounded exponent satisfies finitely many q but can never witness
    the "for all q" quantifier.
    """
    if q_max < 1:
        raise ConfigError("q_max must be >= 1")
    tail = grid.tail
    rho_values = rho.values_on(grid)
    verified = 0
    for q in range(1, q_max + 1):
        if tail_exceeds(x.values, rho_values, tail, q,
                        grid.precision) is not None:
            break
        verified = q
    vals = valuation(x, rho, grid)
    tail_vals = [vals[i] for i in tail]
    rising = _nondecreasing(tail_vals)
    if verified == q_max and rising:
        return Verdict(PASS, witness={"q": verified})
    if verified == 0 and _sinking(tail_vals):
        worst = tail[0]
        return Verdict(FAIL,
                       counterexample={"grid_index": worst,
                                       "eps": decimal_str(grid.points[worst], grid.precision),
                                       "valuation": decimal_str(vals[worst], 64)},
                       notes="exponent sinks along the tail")
    notes = "verified q=%d of q_max=%d" % (verified, q_max)
    finite_tail = [v for v in tail_vals if not mpmath.isinf(v)]
    plateau = (finite_tail and len(finite_tail) == len(tail_vals)
               and max(finite_tail) - min(finite_tail) < TREND_DROP)
    if verified and plateau:
        notes += "; bounded exponent: moderate, non-negligible"
    return Verdict(INCONCLUSIVE, notes=notes)


def ext_eq(x: GenNum, y: GenNum, rho: Gauge, grid: EpsGrid,
           q_max: int = 6) -> Verdict:
    """Equality of extended nets: negligible difference where finite,
    identical infinities on the tail otherwise."""
    xs, ys = x.mpf_values(), y.mpf_values()
    finite_diff = []
    for i in range(len(grid)):
        a, b = xs[i], ys[i]
        if mpmath.isinf(a) or mpmath.isinf(b):
            if i in grid.tail and a != b:
                return Verdict(FAIL,
                               counterexample={"grid_index": i,
                                               "left": decimal_str(a, 64),
                                               "right": decimal_str(b, 64)},
                               notes="infinite values disagree on the tail")
            finite_diff.append(mpf(0))
        else:
            with working_precision(grid.precision):
                finite_diff.append(a - b)
    diff = GenNum(values=tuple(finite_diff), grid=grid)
    return is_negligible(diff, rho, grid, q_max=q_max)


def gauge_le_star(sigma: Gauge, rho: Gauge, grid: EpsGrid) -> Verdict:
    """Largest lattice exponent Q (step 1/4, up to GAUGE_Q_MAX) with
    sigma_eps <= rho_eps^Q on the tail; any positive Q certifies the gauge
    relation."""
    tail = grid.tail
    sigma_values = sigma.values_on(grid)
    rho_values = rho.values_on(grid)
    best = None
    step = Fraction(1, 4)
    q = step
    while q <= GAUGE_Q_MAX and tail_exceeds(sigma_values, rho_values, tail, q,
                                            grid.precision) is None:
        best = q
        q += step
    if best is None:
        worst = tail[0]
        return Verdict(FAIL,
                       counterexample={"grid_index": worst,
                                       "sigma": decimal_str(sigma_values[worst], 64),
                                       "rho": decimal_str(rho_values[worst], 64)},
                       notes="sigma exceeds rho^(1/4) on the tail")
    notes = ""
    if best == GAUGE_Q_MAX:
        notes = "Q saturated the lattice: sigma below every tested power of rho"
    return Verdict(PASS, witness={"Q": best}, notes=notes)


def hypernat_from_expr(text_or_expr, sigma: Gauge, grid: EpsGrid) -> HyperNat:
    """Integer-part net floor(expr_eps) with a sigma-power growth witness.

    The witness search runs on the floating values, so rejection never has
    to materialize an astronomically long integer.
    """
    expr = (netexpr.parse(text_or_expr)
            if isinstance(text_or_expr, str) else text_or_expr)
    bad = netexpr.free_vars(expr) - {"eps", "rho"}
    if bad:
        raise ConfigError("hypernatural expression uses %s" % ", ".join(sorted(bad)))
    sigma_values = sigma.values_on(grid)
    floors = []
    with working_precision(grid.precision):
        for point, sig in zip(grid.points, sigma_values):
            raw = netexpr.eval_mpf(expr, {"eps": point, "rho": sig}, grid.precision)
            if raw < 0:
                raise ConfigError("hypernatural expression is negative at eps=%s"
                                  % decimal_str(point, 64))
            floors.append(mpmath.floor(raw))
    witness = next((m for m in range(HYPERNAT_M_MAX + 1)
                    if tail_exceeds(floors, sigma_values, grid.tail, -m,
                                    grid.precision) is None), None)
    if witness is None:
        raise NotHypernaturalError(
            "no witness M <= %d bounds the net by sigma^-M on the tail"
            % HYPERNAT_M_MAX)
    if any(f > mpf(10) ** 600 for f in floors):
        raise ConfigError("truncation index too large to materialize exactly; "
                          "use the clipped sigma ladder instead")
    return HyperNat(values=tuple(int(f) for f in floors), grid=grid,
                    sigma_witness=witness)


#: Truncation indices above this are indistinguishable at desk scale: every
#: sum either stops early or aborts on growth long before reaching them.
LADDER_CEILING = 10 ** 18


def sigma_ladder(sigma: Gauge, grid: EpsGrid, js=(1, 2, 3, 4)) -> list:
    """Hypernaturals floor(sigma^-j) per ladder exponent, clipped to the
    desk-scale ceiling (doubly exponential gauges would otherwise demand
    integers with more digits than memory)."""
    sigma_values = sigma.values_on(grid)
    out = []
    with working_precision(grid.precision):
        for j in js:
            values = []
            for s in sigma_values:
                raw = s ** -j
                if raw > LADDER_CEILING:
                    values.append(LADDER_CEILING)
                else:
                    values.append(int(mpmath.floor(raw)))
            out.append(HyperNat(values=tuple(values), grid=grid,
                                sigma_witness=j))
    return out

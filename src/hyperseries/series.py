"""Coefficient families, radius of convergence, and convergence verdicts.

A coefficient family assigns a value ``a(n, eps)`` to every index ``n`` and
grid point ``eps``, either through a closed-form net expression or an
explicit table.  A :class:`HpsSeries` pairs a family with a center and the
two gauges (``rho`` sets the size scale, ``sigma`` the admissible truncation
indices).  On top of these the module builds:

* admissibility of coefficients: a single pair ``(Q, R)`` must bound
  ``|a(n, eps)| <= rho_eps^-(n*Q + R)`` uniformly in ``n`` on the grid tail
  ("weakly moderate"), and the matching equivalence where differences decay
  like ``rho_eps^(n*q + r)`` for every ``(q, r)`` ("strongly equivalent");
* the radius of convergence through the n-th root curve
  ``u_n = |a(n, eps)|^(1/n)``: its large-``n`` limit is estimated by rational
  extrapolation of coefficient ratios (exact for geometric-type families),
  with the windowed running maximum as fallback, and the radius is the
  reciprocal;
* truncated sums with hypernatural index bounds, epsilon-wise series limits
  with explicit tail control, and the four-condition membership test of the
  set of convergence, whose one setting is the tail target ``q_target``
  (its other bounds are the constants ``MARGIN``, ``Q_CLOSE``, ``K_MAX``,
  ``N_CAP``, ``LADDER_MAX`` and ``RADIUS_WINDOW``).

Sums run in increasing ``n`` at working precision and are cut off once a
geometric majorant of the remaining tail falls below the last representable
ulp of the partial sum, so results match full summation bit for bit while
staying desk-scale.

Sums, the radius estimate and the magnitude reads take every coefficient
rounded to the working precision from one reader, :func:`_rounded_reader`.
It memoizes each rounded cell on the family, next to the exact values of
:func:`coeff_accessor`, so the ladder sums, the series limit and the
derived limits of one membership test evaluate and round a cell once;
:func:`coeff_accessor` states the key and the bound of both memos.  Exact
readers (:func:`coeff_rows`, the algebra, :func:`check_strong_eq`) read the
exact memo alone.

All sums go through one kernel, :func:`_sum_terms`, under one of two stop
policies that differ only by a tail target.  With no target it sums a block
``[n_start, n_stop]`` and stops with

* ``complete``: the block end was reached;
* ``stopped``: STOP_RUN negligible terms in a row (or a table ending inside
  such a run): the rest cannot move the sum at working precision;
* ``budget`` / ``growing-budget``: the term budget ran out, the latter while
  terms kept growing with one sign;
* ``growing-budget`` also when 64 growing one-sign terms pass the abort size
  ``rho^-ABORT_EXPONENT``;
* ``oversized-consistent`` / ``oversized-mixed``: 64 terms in a row beyond
  the abort size, with one sign (the sum is a lower bound past every size
  budget) or mixed signs (only the summand size is known).

With ``target = rho^q`` it computes the series limit and stops with
``converged`` (a ratio majorant of the tail drops below ``target * (1 +
|partial|)`` or the precision floor, or a negligible run as above),
``divergent-cap`` (no convergent tail within the term cap, or growth past
the abort size) or ``table-exhausted`` (a table family ran out first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from . import netexpr
from .nets import (FAIL, INCONCLUSIVE, PASS, ConfigError, EpsGrid, Gauge,
                   GenNum, HyperNat, Verdict, combine_verdicts, is_moderate,
                   sigma_ladder, valuation)
from .numerics import (GUARD_BITS, Num, as_mpf, decimal_str, is_exact,
                       leq_with_slack, num_sub, tail_exceeds, working_precision)

#: Default window over n for the root-curve statistics.
RADIUS_WINDOW = (16, 256)
#: Consecutive negligible terms required before a sum may stop early.
STOP_RUN = 8
#: A term counts toward the stop run only while terms shrink this fast.
STOP_RATIO = 0.75
#: Doubling-slope increase treated as genuine super-geometric growth.
SLOPE_MARGIN = 0.05
#: The exact-value memo of a family holds only indices up to this bound.
_CACHE_N_LIMIT = 512
#: Each rounded-value memo of a family holds at most this many cells.
_ROUNDED_MEMO_ENTRIES = 8192
#: Sums abort once sign-consistent growth passes rho^-ABORT_EXPONENT.
ABORT_EXPONENT = 256
#: The membership test sums up to the sigma-ladder rungs sigma^-1 ..
#: sigma^-LADDER_MAX.
LADDER_MAX = 4
#: Strict-gap exponent of the membership test: |x-c| < r by rho^MARGIN.
MARGIN = 6
#: Closeness of the membership test's ladder sums to the limit: rho^Q_CLOSE.
Q_CLOSE = 6
#: Default tail-control target inside the membership test's series_limit.
Q_TARGET = 8
#: The membership test checks the derived series of orders 1..K_MAX.
K_MAX = 3
#: Term cap of every sum; ``series_limit`` alone takes another.
N_CAP = 10 ** 6
#: Exponent bound of every moderateness test and of eventually_bounded's p.
MODERATE_N_MAX = 8
#: Largest (Q, R) of check_weak_moderate, (q, r) of check_strong_eq, power P
#: of classify_radius, and summand index n of eventually_bounded.
WEAK_Q_MAX = WEAK_R_MAX = 8
STRONG_Q_MAX = STRONG_R_MAX = 4
RADIUS_P_MAX = 8
BOUND_N_MAX = 64
#: Float log excess above which ``_first_bound`` skips a lattice point
#: without an exact comparison.
SCREEN_MARGIN = 1e-6
_LN2 = math.log(2)


class SummationBudgetError(Exception):
    """Sum exceeded its iteration budget; names the offending (n, eps) cell."""

    def __init__(self, n, grid_index, message=""):
        self.n = n
        self.grid_index = grid_index
        super().__init__(message or
                         "summation budget exhausted at n=%s, grid index %d"
                         % (n, grid_index))


class DivergentSeriesError(Exception):
    """No convergent tail detected within the term cap."""

    def __init__(self, cells):
        self.cells = tuple(cells)
        super().__init__("no convergent tail within cap at grid indices %s"
                         % (list(self.cells),))


class TableExhaustedError(ConfigError):
    """A table-backed family was asked beyond its last row."""


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HpsCoefficients:
    """Doubly indexed family a(n, eps); expression- or table-backed.

    ``rows[n]`` is either a single exact/mpf value shared by every grid
    point or a tuple with one entry per grid point.  Tables stop at their
    last row, expression-backed families at ``n_max`` when one is given.
    """

    expr: Optional[netexpr.Expr] = None
    rows: Optional[Tuple] = None
    n_max: Optional[int] = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if (self.expr is None) == (self.rows is None):
            raise ConfigError("exactly one of expr/rows must be given")
        if self.rows is not None and self.n_max is None:
            object.__setattr__(self, "n_max", len(self.rows) - 1)

    @classmethod
    def from_expr(cls, text_or_expr,
                  n_max: Optional[int] = None) -> "HpsCoefficients":
        expr = (netexpr.parse(text_or_expr)
                if isinstance(text_or_expr, str) else text_or_expr)
        bad = netexpr.free_vars(expr) - {"n", "eps", "rho"}
        if bad:
            raise ConfigError("coefficient expression uses %s"
                              % ", ".join(sorted(bad)))
        return cls(expr=expr, n_max=n_max)

    @classmethod
    def from_column(cls, values: Sequence) -> "HpsCoefficients":
        """Table family; each row is one shared value or a per-point tuple,
        stored as :func:`shared_row` leaves it."""
        return cls(rows=tuple(shared_row(row) for row in values))

    def bound_or(self, fallback: int) -> int:
        return self.n_max if self.n_max is not None else fallback

    def column_values(self, n_max: int) -> list:
        """Per-n values of a table whose rows are shared by every grid point."""
        if self.rows is None:
            raise ConfigError("column_values needs a table; materialize the "
                              "family first")
        if n_max > self.n_max:
            raise TableExhaustedError("table ends at n=%d, need %d"
                                      % (self.n_max, n_max))
        rows = self.rows[:n_max + 1]
        if any(isinstance(row, tuple) for row in rows):
            raise ConfigError("family varies across the grid")
        return list(rows)

    def materialize(self, n_max: int, grid: EpsGrid,
                    rho: Gauge) -> "HpsCoefficients":
        return HpsCoefficients.from_column(coeff_rows(self, grid, rho, n_max))


def _memo_scope(coeffs: HpsCoefficients, grid: EpsGrid, rho: Gauge):
    """``(names, shared, scope)`` of a family on ``grid``: the free variables
    of its expression, whether one value per n serves every grid point (no
    variable but ``n``), and the key of its memos on the family, which is the
    precision and, for per-point values, the grid points and the gauge they
    depend on.  A table's cells depend on neither, so they are per point at
    the precision alone."""
    if coeffs.expr is None:
        return frozenset(), False, grid.precision
    names = netexpr.free_vars(coeffs.expr)
    shared = names <= {"n"}
    bits = grid.precision
    return names, shared, (bits if shared else (
        grid.points, bits, rho.expr if "rho" in names else None))


def coeff_accessor(coeffs: HpsCoefficients, grid: EpsGrid,
                   rho: Gauge) -> Callable[[int, Optional[int]], Num]:
    """The one exact coefficient reader: ``read(n, i)`` is the value at grid
    index i, ``read(n, None)`` row n in the :attr:`HpsCoefficients.rows`
    form.

    A read past ``n_max`` raises :class:`TableExhaustedError`, for tables and
    truncated expression families alike.  An expression in ``n`` alone has
    one value per n, shared by every grid point and exact where rational
    (:func:`netexpr.evaluate`); any other expression has one mpf value per
    grid point.

    A family keeps two memos in its ``_cache`` per scope of
    :func:`_memo_scope` (the precision, plus the grid points and the gauge
    for per-point values):

    * the exact memo, here: the values of expression families for n up to
      ``_CACHE_N_LIMIT``, keyed by n when shared and by (n, i) otherwise;
    * the rounded memo of :func:`_rounded_reader`: values rounded to the
      grid's precision, keyed the same way (tables by (n, i)), at most
      ``_ROUNDED_MEMO_ENTRIES`` cells; a full memo keeps the cells it holds
      and rounds any other cell on every read.  Sums read cells at the
      sigma-ladder rungs, up to n = 10^18, so a bound on n would either
      leave those cells out or admit any number of them; a bound on the
      entry count caps the memo whichever cells are read.
    """
    n_max, rows, expr = coeffs.n_max, coeffs.rows, coeffs.expr
    if expr is not None:
        names, shared, scope = _memo_scope(coeffs, grid, rho)
        bits = grid.precision
        rho_values = rho.values_on(grid) if "rho" in names else None
        memo = coeffs._cache.setdefault(scope, {})

        def value(n: int, i: Optional[int]) -> Num:
            key = n if shared else (n, i)
            found = memo.get(key)
            if found is not None:
                return found
            if shared:
                found = netexpr.evaluate(expr, {"n": n}, bits)
            else:
                env = {"n": n, "eps": grid.points[i]}
                if rho_values is not None:
                    env["rho"] = rho_values[i]
                found = netexpr.eval_mpf(expr, env, bits)
            if n <= _CACHE_N_LIMIT:
                memo[key] = found
            return found

    # ``read`` must not call itself: a self-referencing closure is a cycle
    # that keeps the memo alive until the cyclic collector runs
    def read(n: int, i: Optional[int]) -> Num:
        if n_max is not None and n > n_max:
            raise TableExhaustedError("table ends at n=%d, need %d" % (n_max, n))
        if rows is not None:
            row = rows[n]
            return row[i] if i is not None and isinstance(row, tuple) else row
        if shared or i is not None:
            return value(n, i)
        return tuple(value(n, j) for j in range(len(grid)))

    return read


def _rounded_reader(coeffs: HpsCoefficients, grid: EpsGrid,
                    rho: Gauge) -> Callable[[int, int], mpf]:
    """``read(n, i)``: the :func:`coeff_accessor` value at grid index i,
    rounded by :func:`as_mpf` to the grid's precision and kept in the
    family's rounded memo (see :func:`coeff_accessor`).  Rounding is
    deterministic, so a memoized value equals a fresh one."""
    exact = coeff_accessor(coeffs, grid, rho)
    bits = grid.precision
    _, shared, scope = _memo_scope(coeffs, grid, rho)
    memo = coeffs._cache.setdefault(("rounded", scope), {})

    def read(n: int, i: int) -> mpf:
        key = n if shared else (n, i)
        found = memo.get(key)
        if found is None:
            found = as_mpf(exact(n, i), bits)
            if len(memo) < _ROUNDED_MEMO_ENTRIES:
                memo[key] = found
        return found

    return read


def coeff_rows(coeffs: HpsCoefficients, grid: EpsGrid, rho: Gauge,
               n_max: int) -> Tuple:
    """Rows 0..n_max in the :attr:`HpsCoefficients.rows` form, read through
    :func:`coeff_accessor`."""
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    read = coeff_accessor(coeffs, grid, rho)
    return tuple(read(n, None) for n in range(n_max + 1))


def shared_row(row):
    """The one shared-row rule: a tuple whose entries are all exact and equal
    is that one value; any other row is returned as it is."""
    if isinstance(row, tuple) and all(is_exact(v) and v == row[0] for v in row):
        return row[0]
    return row


def point_values(row, size: int) -> tuple:
    """A row of :func:`coeff_rows` with one entry per grid point."""
    return row if isinstance(row, tuple) else (row,) * size


def derived_coefficients(coeffs: HpsCoefficients, order: int = 1) -> HpsCoefficients:
    """Coefficients of the ``order``-times derived series: prod(n+j) a(n+order)."""
    if order < 1:
        raise ConfigError("order must be >= 1")
    if coeffs.expr is not None:
        shifted = netexpr.substitute(
            coeffs.expr, "n",
            netexpr.Bin("+", netexpr.Var("n"), netexpr.Lit(str(order))))
        factor = None
        for j in range(1, order + 1):
            term = netexpr.Bin("+", netexpr.Var("n"), netexpr.Lit(str(j)))
            factor = term if factor is None else netexpr.Bin("*", factor, term)
        new_expr = netexpr.Bin("*", factor, shifted)
        new_max = None if coeffs.n_max is None else coeffs.n_max - order
        return HpsCoefficients(expr=new_expr, n_max=new_max)
    rows = []
    for n in range(coeffs.n_max - order + 1):
        factor = 1
        for j in range(1, order + 1):
            factor *= n + j
        row = coeffs.rows[n + order]
        if isinstance(row, tuple):
            rows.append(tuple(v * factor for v in row))
        else:
            rows.append(row * factor)
    return HpsCoefficients(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HpsSeries:
    """Coefficients + center + the gauge pair, bound to one grid."""

    coeffs: HpsCoefficients
    center: GenNum
    rho: Gauge
    sigma: Gauge
    grid: EpsGrid


def make_series(coeffs: HpsCoefficients, center: GenNum, rho: Gauge,
                sigma: Gauge, grid: EpsGrid) -> HpsSeries:
    """A series after its inputs are checked: the center must be moderate and
    both gauges valid on the grid."""
    if is_moderate(center, rho, grid, MODERATE_N_MAX).failed:
        raise ConfigError("series center is not moderate on the grid")
    sigma.values_on(grid)
    return HpsSeries(coeffs=coeffs, center=center, rho=rho, sigma=sigma,
                     grid=grid)


def _offsets(series: HpsSeries, x: GenNum) -> Tuple[Num, ...]:
    if x.grid != series.grid:
        raise ConfigError("x lives on a different grid")
    bits = series.grid.precision
    return tuple(num_sub(a, b, bits) for a, b in zip(x.values, series.center.values))


# ---------------------------------------------------------------------------
# Weak moderateness and strong equivalence
# ---------------------------------------------------------------------------


def _abs_matrix(coeffs, grid, rho, n_max, indices):
    read = _rounded_reader(coeffs, grid, rho)
    with working_precision(grid.precision):
        return [[abs(read(n, i)) for i in indices] for n in range(n_max + 1)]


def _doubling_slopes(magnitudes, tail, rho_values, bits, n_max,
                     factorial=False):
    """Per dyadic block of n, the largest log|a_n| / (n log(1/rho)).

    ``magnitudes[n]`` holds one row of tail values per sample.  With
    ``factorial`` the statistic is taken of |a_n| / n!, the growth the
    derivative bound of :func:`graf.graf_check` allows for free.
    """
    blocks = []
    top = 8
    while top <= n_max:
        blocks.append((max(1, top // 2) + 1, top))
        top *= 2
    slopes = []
    with working_precision(bits):
        inv_log = [1 / mpmath.log(1 / rho_values[i]) for i in tail]
        for lo, hi in blocks:
            best = None
            for n in range(lo, hi + 1):
                offset = mpmath.log(mpmath.factorial(n)) if factorial else 0
                for sample in magnitudes[n]:
                    for j, value in enumerate(sample):
                        if value == 0:
                            continue
                        s = (mpmath.log(value) - offset) * inv_log[j] / n
                        if best is None or s > best:
                            best = s
            slopes.append(best)
    return slopes


def _upward_trend(slopes) -> bool:
    """Two consecutive non-collapsing slope increases mark unbounded growth."""
    values = [s for s in slopes if s is not None]
    if len(values) < 3:
        return False
    d1 = values[-2] - values[-3]
    d2 = values[-1] - values[-2]
    return d2 >= SLOPE_MARGIN and d1 >= SLOPE_MARGIN and d2 >= 0.75 * d1


def _float_log(v, prec: int) -> float:
    """Float64 ``log|v|``, read from the top 53 bits of the mpf's mantissa
    and its exponent (no mpmath call for an mpf): -inf at 0, +inf at +-inf
    and at nan, which fails every ``leq_with_slack`` bound as infinity
    does."""
    if not isinstance(v, mpf):
        v = as_mpf(v, prec)
    _, man, exp, bc = v._mpf_
    if man:
        shift = max(bc - 53, 0)
        return math.log(man >> shift) + (exp + shift) * _LN2
    return -math.inf if v == 0 else math.inf


def _first_bound(magnitudes, tail, rho_values, bits, lattice, factorials=None):
    """The first lattice point (q, p, lam, kappa) whose geometric bound
    ``kappa rho^-p (n!) (lam rho^q)^-n`` holds at every cell.

    ``magnitudes[n]`` holds one row of tail values per sample; the ``n!``
    weight applies only when ``factorials`` is given.  Returns None when no
    point holds.

    The lattice is screened in float64 before anything exact is done.  Once
    per call the screen stores, per tail cell and ``n``, the float log of the
    largest sample magnitude less ``log n!``, and the float log of each
    ``rho``.  A point is skipped when at some cell its log excess
    ``log|a| - log bound`` is above ``SCREEN_MARGIN`` plus ``2^-40`` times
    the sum of the absolute logs that make up that excess.  Every other point
    is certified by the exact loop (the running product and the
    ``leq_with_slack`` comparisons), and the first certified point is
    returned.  So the witness is the one the exact loop alone would find:

    * a point that holds exactly has ``|a| <= bound' (1 + 2^(32-bits))`` at
      every cell, where ``bound'`` is the running product at ``bits +
      GUARD_BITS`` from the coordinates rounded to ``bits``.  Precision is at
      least 64 bits, so ``log bound'`` is within ``2^-32 + 2^-56 S`` of the
      true ``log bound``, ``S`` being the sum of the absolute logs in the
      excess, and the true excess of that point is below ``2^-31 + 2^-56 S``;
    * the float excess is a sum of at most a dozen terms, each rounded or
      read from 53 mantissa bits, so its error is below ``2^-46 + 2^-49 S``;
    * ``SCREEN_MARGIN + 2^-40 S`` is above both together, so a point that
      holds exactly is never skipped.
    """
    def holds(q, p, lam, kappa):
        for j, i in enumerate(tail):
            geometric = lam ** -1 * rho_values[i] ** -q
            bound = kappa * rho_values[i] ** -p  # n = 0 bound, then scaled
            for n, samples in enumerate(magnitudes):
                limit = bound if factorials is None else bound * factorials[n]
                for sample in samples:
                    if not leq_with_slack(sample[j], limit, bits):
                        return False
                bound = bound * geometric
        return True

    prec = bits + GUARD_BITS
    rho_logs = [_float_log(rho_values[i], prec) for i in tail]
    fact_logs = [0.0] * len(magnitudes) if factorials is None \
        else [_float_log(f, prec) for f in factorials[:len(magnitudes)]]
    top_logs = [[max((_float_log(sample[j], prec) for sample in samples),
                     default=-math.inf) - fact_log
                 for samples, fact_log in zip(magnitudes, fact_logs)]
                for j in range(len(tail))]
    n_top = len(magnitudes) - 1
    rho_scale = max(map(abs, rho_logs), default=0.0)
    cell_scale = max((abs(a) + abs(f) for row in top_logs
                      for a, f in zip(row, fact_logs) if math.isfinite(a)),
                     default=0.0)
    logs = {}  # float log of each lam and kappa, once per distinct value

    def screened_out(q, p, lam, kappa):
        """Some cell's float log excess is above the threshold."""
        for v in (lam, kappa):
            if v not in logs:
                logs[v] = _float_log(v, bits)
        q, p, log_lam, log_kappa = float(q), float(p), logs[lam], logs[kappa]
        threshold = SCREEN_MARGIN + 2.0 ** -40 * (
            abs(log_kappa) + abs(p) * rho_scale + cell_scale
            + n_top * (abs(log_lam) + abs(q) * rho_scale))
        for log_rho, row in zip(rho_logs, top_logs):
            base = log_kappa - p * log_rho + threshold
            step = -log_lam - q * log_rho
            for n, a in enumerate(row):
                if a - n * step > base:
                    return True
        return False

    with working_precision(prec):
        for point in lattice:
            if screened_out(*point):
                continue
            if holds(*(as_mpf(v, bits) for v in point)):
                return point
    return None


def check_weak_moderate(coeffs: HpsCoefficients, rho: Gauge, grid: EpsGrid,
                        n_max: int = 64) -> Verdict:
    """Search the lexicographically smallest (Q, R), Q <= WEAK_Q_MAX and
    R <= WEAK_R_MAX, with |a(n, eps)| <= rho_eps^-(n*Q+R) for all n <= n_max
    on the tail.

    A direct hit is only accepted if the per-n exponent requirement is not
    still climbing at the window end: on a finite grid a factorial-type
    family satisfies any fixed (Q, R) pointwise, and only the doubling trend
    of ``log|a_n| / (n log(1/rho))`` exposes that no uniform pair exists.
    """
    if n_max < 8:
        raise ConfigError("n_max must be >= 8")
    tail = list(grid.tail)
    rho_values = rho.values_on(grid)
    magnitudes = [(row,) for row in _abs_matrix(coeffs, grid, rho, n_max, tail)]
    slopes = _doubling_slopes(magnitudes, tail, rho_values, grid.precision,
                              n_max)
    slope_strs = [None if s is None else decimal_str(s, 64) for s in slopes]
    if _upward_trend(slopes):
        return Verdict(FAIL,
                       counterexample={"doubling_slopes": slope_strs,
                                       "n_max": n_max},
                       notes="required exponent slope keeps climbing with n; "
                             "no uniform (Q, R) can hold for all n")
    found = _first_bound(magnitudes, tail, rho_values, grid.precision,
                         ((q, r, 1, 1) for q in range(WEAK_Q_MAX + 1)
                          for r in range(WEAK_R_MAX + 1)))
    if found:
        return Verdict(PASS, witness={"Q": found[0], "R": found[1],
                                      "doubling_slopes": slope_strs})
    return Verdict(INCONCLUSIVE,
                   notes="no (Q, R) within (%d, %d) but exponent trend is flat"
                         % (WEAK_Q_MAX, WEAK_R_MAX))


def weak_witness(coeffs: HpsCoefficients, rho: Gauge,
                 grid: EpsGrid) -> Optional[Tuple[int, int]]:
    """The :func:`check_weak_moderate` pair (Q, R) over rows n <= 64, or None
    when the family ends before n = 8 or the verdict does not pass.  It
    depends on the gauge and the grid, so it is searched where it is read."""
    n_max = min(64, coeffs.bound_or(64))
    if n_max < 8:
        return None
    verdict = check_weak_moderate(coeffs, rho, grid, n_max=n_max)
    return (verdict.witness["Q"], verdict.witness["R"]) if verdict.passed \
        else None


def check_strong_eq(a: HpsCoefficients, b: HpsCoefficients, rho: Gauge,
                    grid: EpsGrid, n_max: int = 64) -> Verdict:
    """Differences must fall below rho^(n*q+r) for every tested (q, r):
    q <= STRONG_Q_MAX, r <= STRONG_R_MAX and n <= n_max.  The shrinking-slope
    proxy for all (q, r) starts at n = 8, so ``n_max`` must reach it."""
    if n_max < 8:
        raise ConfigError("n_max must be >= 8")
    tail = list(grid.tail)
    rho_values = rho.values_on(grid)
    acc_a = coeff_accessor(a, grid, rho)
    acc_b = coeff_accessor(b, grid, rho)
    bits = grid.precision
    # valuation of the difference at each (n, tail point); +inf where zero
    t_rows = []
    all_zero = True
    with working_precision(bits):
        log_rho = [mpmath.log(rho_values[i]) for i in tail]
        for n in range(n_max + 1):
            row = []
            for j, i in enumerate(tail):
                d = num_sub(acc_a(n, i), acc_b(n, i), bits)
                if d == 0:
                    row.append(mpf("+inf"))
                else:
                    all_zero = False
                    row.append(mpmath.log(abs(as_mpf(d, bits))) / log_rho[j])
            t_rows.append(row)
    if all_zero:
        return Verdict(PASS, witness={"q": STRONG_Q_MAX, "r": STRONG_R_MAX,
                                      "note": "families agree exactly"})
    for q in range(STRONG_Q_MAX + 1):
        for r in range(STRONG_R_MAX + 1):
            for n in range(n_max + 1):
                need = n * q + r
                for j, i in enumerate(tail):
                    if not t_rows[n][j] >= need - 1e-9:
                        return Verdict(
                            FAIL,
                            counterexample={"q": q, "r": r, "n": n,
                                            "grid_index": i,
                                            "valuation": decimal_str(t_rows[n][j], 64)},
                            notes="difference exceeds rho^(n*q+r)")
    # all lattice points hold; demand a non-sinking slope as the for-all proxy
    slopes = []
    n_probe = 8
    while n_probe <= n_max:
        finite = [t_rows[n_probe][j] for j in range(len(tail))]
        slopes.append(min(finite) / (n_probe + 1))
        n_probe *= 2
    for early, late in zip(slopes, slopes[1:]):
        if mpmath.isinf(early) or mpmath.isinf(late):
            continue
        if late < early - 1e-6:
            return Verdict(INCONCLUSIVE,
                           notes="lattice verified but per-n decay slope is "
                                 "shrinking; cannot certify all (q, r)")
    return Verdict(PASS, witness={"q": STRONG_Q_MAX, "r": STRONG_R_MAX})


# ---------------------------------------------------------------------------
# Radius of convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusEstimate:
    """Reciprocal root-curve limit per grid point, plus diagnostics.

    ``limsup`` is the stabilized estimate of ``lim sup |a_n|^(1/n)``; ``r``
    is its reciprocal (+inf when the curve decays to zero).  ``methods``
    records, per grid point, which estimator produced the value.
    """

    r: GenNum
    limsup: GenNum
    window: Tuple[int, int]
    methods: Tuple[str, ...]


def table_window(coeffs: HpsCoefficients,
                 window: Tuple[int, int]) -> Tuple[int, int]:
    """The radius window clipped to a table's depth (unchanged otherwise)."""
    if coeffs.n_max is None:
        return tuple(window)
    return (min(window[0], max(2, coeffs.n_max // 4)),
            min(window[1], coeffs.n_max))


def _neville_at_zero(ts, ws, bits):
    with working_precision(bits + 32):
        vals = [as_mpf(w, bits + 32) for w in ws]
        pts = [as_mpf(t, bits + 32) for t in ts]
        n = len(vals)
        for k in range(1, n):
            for i in range(n - k):
                denom = pts[i + k] - pts[i]
                vals[i] = (pts[i + k] * vals[i] - pts[i] * vals[i + 1]) / denom
        return vals[0]


def radius(coeffs: HpsCoefficients, rho: Gauge, grid: EpsGrid,
           window: Tuple[int, int] = RADIUS_WINDOW) -> RadiusEstimate:
    """Estimate the root-curve limit and radius on the given n-window.

    Ratio extrapolation (Neville at 1/n -> 0) recovers geometric-type
    families exactly; a clean collapse of the extrapolated ratio to zero
    marks a curve decaying to zero, i.e. an infinite radius.  When ratios
    are unusable the windowed running maximum of ``|a_n|^(1/n)`` stands in.

    Cells are read on first use, once per grid point.  The ratio estimate
    reads its nodes near ``n_hi`` and their neighbours, at most 24 cells;
    only when it gives no value is every cell of the window read, for the
    all-zero test and the root curve.  A family that ends before ``n_hi``
    raises :class:`TableExhaustedError` before any read, naming the first
    missing index of the window.
    """
    n_lo, n_hi = window
    if n_lo < 1:
        raise ConfigError("window must start at n >= 1")
    if n_hi - n_lo < 16:
        raise ConfigError("window must span at least 16 indices")
    if coeffs.n_max is not None and coeffs.n_max < n_hi:
        raise TableExhaustedError(
            "table ends at n=%d, need %d"
            % (coeffs.n_max, max(n_lo, coeffs.n_max + 1)))
    read = _rounded_reader(coeffs, grid, rho)
    bits = grid.precision
    r_vals, limsup_vals, methods = [], [], []
    for i in range(len(grid)):
        absolutes = {}

        def absolute(n):
            if n not in absolutes:
                absolutes[n] = abs(read(n, i))
            return absolutes[n]

        with working_precision(bits):
            # a ratio estimate needs nonzero nodes, so it rules out all-zero
            estimate = _ratio_estimate(n_lo, n_hi, absolute, bits)
            if estimate is not None:
                limsup_value, method = estimate
            else:
                nonzero = [n for n in range(n_lo, n_hi + 1)
                           if absolute(n) != 0]
                if not nonzero:
                    # zero rows below n_lo only would deserve a wider window;
                    # all zero within it means the curve vanishes outright
                    limsup_vals.append(mpf(0))
                    r_vals.append(mpf("+inf"))
                    methods.append("all-zero")
                    continue
                curve = {n: absolutes[n] ** (mpf(1) / n) for n in nonzero}
                limsup_value, method = _window_estimate(curve, nonzero)
        limsup_vals.append(limsup_value)
        with working_precision(bits):
            r_vals.append(mpf("+inf") if limsup_value == 0 else 1 / limsup_value)
        methods.append(method)
    return RadiusEstimate(
        r=GenNum(values=tuple(r_vals), grid=grid),
        limsup=GenNum(values=tuple(limsup_vals), grid=grid),
        window=window, methods=tuple(methods))


def _ratio_estimate(n_lo, n_hi, absolute, bits):
    span = n_hi - n_lo
    step = max(2, span // 10)
    for stride in (1, 2):
        base = n_hi - stride
        if stride == 2:
            base -= base % 2
        nodes = [base - j * step for j in range(6)]
        if stride == 2:
            nodes = [n - (n % 2) for n in nodes]
        if any(n < n_lo for n in nodes) or len(set(nodes)) < 6:
            continue
        # every node and node + stride lies inside the window
        if not all(absolute(n) for n in nodes):
            continue
        ratios = [absolute(n + stride) / absolute(n) for n in nodes]
        if stride == 2:
            ratios = [mpmath.sqrt(w) for w in ratios]
        ts = [mpf(1) / n for n in nodes]
        lam_full = _neville_at_zero(ts, ratios, bits)
        lam_part = _neville_at_zero(ts[:-1], ratios[:-1], bits)
        reference = ratios[0]  # most asymptotic node (largest n)
        if lam_full <= reference * mpf("1e-6"):
            return mpf(0), "ratio-decay"
        scale = max(abs(lam_full), mpf(2) ** -bits)
        if abs(lam_full - lam_part) <= mpf("1e-6") * scale and lam_full > 0:
            return lam_full, "ratio-extrapolation"
        return None  # wobbling ratios: defer to the window fallback
    return None


def _window_estimate(curve, nonzero):
    peak = max(curve.values())
    last_third = nonzero[len(nonzero) * 2 // 3:]
    late_peak = max(curve[n] for n in last_third) if last_third else peak
    if late_peak <= peak / 2 and curve[nonzero[-1]] <= curve[nonzero[0]] / 4:
        return mpf(0), "window-decay"
    return peak, "window-max"


@dataclass(frozen=True)
class RadiusClassification:
    """Per-point class plus the smallest power bucket containing the tail."""

    classes: Tuple[str, ...]  # each: infinite | beyond | moderate
    p_m: Optional[int]
    subsets: dict  # P -> tuple of grid indices with r <= rho^-P

    @property
    def all_beyond_tested_powers(self) -> bool:
        return all(c in ("infinite", "beyond") for c in self.classes)


def classify_radius(rad: RadiusEstimate, rho: Gauge,
                    grid: EpsGrid) -> RadiusClassification:
    """Bucket each grid point: infinite radius, beyond every tested power
    rho^-P (P <= RADIUS_P_MAX), or moderate (below some tested power)."""
    rho_values = rho.values_on(grid)
    values = rad.r.values
    subsets = {p: tuple(i for i in range(len(grid))
                        if tail_exceeds(values, rho_values, (i,), -p,
                                        grid.precision) is None)
               for p in range(RADIUS_P_MAX + 1)}
    classes = ["infinite" if mpmath.isinf(value)
               else "moderate" if i in subsets[RADIUS_P_MAX] else "beyond"
               for i, value in enumerate(values)]
    p_m = None
    tail = set(grid.tail)
    if any(c == "moderate" for c in classes):
        for p in range(RADIUS_P_MAX + 1):
            if tail & set(subsets[p]):
                p_m = p
                break
    return RadiusClassification(classes=tuple(classes), p_m=p_m,
                                subsets=subsets)


# ---------------------------------------------------------------------------
# Summation kernel
# ---------------------------------------------------------------------------


def _sum_terms(read, y_i, i, bits, n_start, n_stop, budget, abort_above,
               target=None):
    """Sum a(n,i) * y^n for n = n_start, n_start+1, ... in increasing n, the
    coefficients read rounded through ``read`` (:func:`_rounded_reader`).

    Returns (value, last_n, status, peak) under the block policy (no
    ``target``) or the limit policy (``n_stop`` is the term cap) that the
    module docstring lists with their statuses.  At most ``budget + 1``
    terms are summed; ``peak``, the largest term size, is kept in block
    mode only.
    """
    if target is None:
        done, out_of_range, blowup = "stopped", "complete", "growing-budget"
    else:
        done, out_of_range, blowup = "converged", "divergent-cap", "divergent-cap"
    last = min(n_stop, n_start + budget)
    with working_precision(bits):
        y = as_mpf(y_i, bits)
        total = mpf(0)
        floor_scale = mpf(2) ** -(bits + GUARD_BITS)
        power = y ** n_start if n_start else mpf(1)
        recent = []
        previous = None
        previous_term = None
        peak = mpf(0)
        ratio_cap = mpf("0.9999")
        tiny_run = 0
        grow_run = 0
        huge_run = 0
        huge_consistent = True
        for n in range(n_start, last + 1):
            try:
                a = read(n, i)
            except TableExhaustedError:
                if target is not None:
                    return None, n - 1, "table-exhausted", peak
                if tiny_run >= 1:
                    return total, n - 1, done, peak
                raise
            term = a * power
            total += term
            magnitude = abs(term)
            if magnitude != 0:
                # signs are compared only where a grow or oversize run needs them
                if previous is not None and magnitude >= previous \
                        and (term > 0) == (previous_term > 0):
                    grow_run += 1
                else:
                    grow_run = 0
                if target is not None:
                    if previous is not None:
                        recent.append(magnitude / previous)
                        if len(recent) > 4:
                            recent.pop(0)
                    if len(recent) == 4:
                        worst = max(recent)
                        # ratio majorant with a factor-2 guard; sound for the
                        # non-increasing ratio profiles of admissible families
                        if worst <= ratio_cap:
                            tail_bound = 2 * magnitude * worst / (1 - worst)
                            if tail_bound <= target * (1 + abs(total)) or \
                                    tail_bound <= floor_scale * (1 + abs(total)):
                                return total, n, done, peak
                else:
                    if magnitude > peak:
                        peak = magnitude
                    if magnitude > abort_above:
                        huge_consistent = huge_consistent and (
                            previous_term is None
                            or (term > 0) == (previous_term > 0))
                        huge_run += 1
                    else:
                        huge_run = 0
                        huge_consistent = True
                if previous is not None and magnitude <= floor_scale * abs(total) \
                        and magnitude <= STOP_RATIO * previous:
                    tiny_run += 1
                else:
                    tiny_run = 0
                previous = magnitude
                previous_term = term
                if grow_run >= 64 and magnitude > abort_above:
                    return total, n, blowup, peak
                if huge_run >= 64:
                    status = ("oversized-consistent" if huge_consistent
                              else "oversized-mixed")
                    return total, n, status, peak
            else:
                tiny_run += 1
            if tiny_run >= STOP_RUN:
                return total, n, done, peak
            power *= y
        if last < n_stop:
            status = ("growing-budget" if grow_run >= 64
                      and previous_term is not None else "budget")
            return total, last, status, peak
        return total, last, out_of_range, peak


def _summation(series: HpsSeries, x: GenNum):
    """The summation kernel bound to (series, x).

    Returns ``sum_at(i, n_start, n_stop, budget, target=None)``, which runs
    :func:`_sum_terms` at grid index i; the rounded reader, the offsets and
    the abort sizes ``rho^-ABORT_EXPONENT`` are built once here.
    """
    grid = series.grid
    bits = grid.precision
    read = _rounded_reader(series.coeffs, grid, series.rho)
    ys = _offsets(series, x)
    with working_precision(bits):
        aborts = [r ** -ABORT_EXPONENT for r in series.rho.values_on(grid)]

    def sum_at(i, n_start, n_stop, budget, target=None):
        return _sum_terms(read, ys[i], i, bits, n_start, n_stop, budget,
                          aborts[i], target)

    return sum_at


def hyperfinite_sum(series: HpsSeries, x: GenNum, upper: HyperNat) -> GenNum:
    """Per-point truncated sum to the hypernatural index, increasing n."""
    sum_at = _summation(series, x)
    values = []
    for i in range(len(series.grid)):
        value, last_n, status, _ = sum_at(i, 0, upper.values[i], N_CAP)
        if status not in ("complete", "stopped"):
            raise SummationBudgetError(last_n + 1, i)
        values.append(value)
    return GenNum(values=tuple(values), grid=series.grid)


def _series_limit_report(series: HpsSeries, x: GenNum, q_target: int,
                         n_cap: int):
    """Per grid point (value, status, n_used) of the series limit."""
    if q_target < 1:
        raise ConfigError("q_target must be >= 1")
    if n_cap < 1:
        raise ConfigError("n_cap must be >= 1")
    sum_at = _summation(series, x)
    with working_precision(series.grid.precision):
        targets = [r ** q_target for r in series.rho.values_on(series.grid)]
    out = []
    for i, target in enumerate(targets):
        value, n_used, status, _ = sum_at(i, 0, n_cap, n_cap, target)
        out.append((value, status, n_used))
    return out


def series_limit(series: HpsSeries, x: GenNum, q_target: int = 6,
                 n_cap: int = N_CAP) -> GenNum:
    """Epsilon-wise limit of the series at x, to within rho^q_target tails;
    :class:`DivergentSeriesError` names the grid indices that do not settle."""
    report = _series_limit_report(series, x, q_target, n_cap)
    bad = [i for i, (_, status, _) in enumerate(report) if status != "converged"]
    if bad:
        raise DivergentSeriesError(bad)
    return GenNum(values=tuple(value for value, _, _ in report), grid=series.grid)


# ---------------------------------------------------------------------------
# Formal sums, derivatives, four-condition membership
# ---------------------------------------------------------------------------


def _ladder_tops(series: HpsSeries) -> list:
    """Per rung j = 1..LADDER_MAX, the per-point top index floor(sigma^-j),
    clipped to the family's last row when it has one."""
    clip = series.coeffs.n_max
    rungs = sigma_ladder(series.sigma, series.grid, js=range(1, LADDER_MAX + 1))
    return [rung.values if clip is None
            else tuple(min(v, clip) for v in rung.values) for rung in rungs]


def is_formal_hps(series: HpsSeries, x: GenNum) -> Verdict:
    """Are all sampled hyperfinite block sums moderate?

    Blocks are taken between consecutive rungs of the sigma-power ladder
    (:func:`_ladder_tops`), plus the block from 0 to the top rung.  Each
    block is judged as soon as it is summed: its sums must be moderate, and
    a block whose sum runs out of terms or past the abort size fails when
    its terms grow (or their peak is not moderate), inconclusive otherwise.
    """
    grid = series.grid
    sum_at = _summation(series, x)
    bounds = [(0,) * len(grid)] + _ladder_tops(series)
    blocks = list(zip(bounds, bounds[1:])) + [(bounds[0], bounds[-1])]
    results = {}
    for idx, (low, high) in enumerate(blocks):
        values, _, statuses, peaks = zip(*(
            sum_at(i, min(low[i], high[i]), high[i], N_CAP)
            for i in range(len(grid))))
        name = "block_%d" % idx
        if all(s in ("complete", "stopped") for s in statuses):
            results[name] = is_moderate(GenNum(values=values, grid=grid),
                                        series.rho, grid, MODERATE_N_MAX)
            continue
        peak_net = GenNum(values=peaks, grid=grid)
        peak_mod = is_moderate(peak_net, series.rho, grid, MODERATE_N_MAX)
        decisive = any(s in ("growing-budget", "oversized-consistent")
                       for s in statuses)
        if decisive or peak_mod.failed:
            results[name] = Verdict(
                FAIL,
                counterexample={"block": idx,
                                "peak_valuations":
                                    [decimal_str(v, 64) for v in
                                     valuation(peak_net, series.rho, grid)]},
                notes="block terms grow without a moderate bound")
        else:
            results[name] = Verdict(INCONCLUSIVE,
                                    notes="budget exhausted inside block")
    return combine_verdicts(results)


def derivative_net_moderate(series: HpsSeries, x: GenNum,
                            q_target: int) -> Verdict:
    """Moderateness of the derived series of orders 1..K_MAX at x, each
    limit taken to rho^q_target tails."""
    parts = {}
    for k in range(1, K_MAX + 1):
        derived = replace(series,
                          coeffs=derived_coefficients(series.coeffs, k))
        try:
            net = series_limit(derived, x, q_target)
        except DivergentSeriesError as exc:
            parts["k_%d" % k] = Verdict(
                FAIL, counterexample={"grid_indices": list(exc.cells)},
                notes="derived series has no convergent tail at these points")
            continue
        parts["k_%d" % k] = is_moderate(net, series.rho, series.grid,
                                        MODERATE_N_MAX)
    return combine_verdicts(parts)


@dataclass(frozen=True)
class ConvergenceReport:
    """The four membership conditions and their conjunction."""

    cond_radius: Verdict
    cond_formal: Verdict
    cond_limit: Verdict
    cond_derivs: Verdict
    overall: Verdict
    limit: Optional[GenNum] = None


def converges_at(series: HpsSeries, x: GenNum,
                 q_target: int = Q_TARGET) -> ConvergenceReport:
    """Run the four membership conditions at x and report each verdict:
    a ``rho^MARGIN`` gap below the radius, moderate block sums
    (:func:`is_formal_hps`), a moderate limit to ``rho^q_target`` tails that
    the ladder sums approach within ``rho^Q_CLOSE``, and moderate derived
    series of orders 1..K_MAX.  ``q_target`` is the one setting."""
    grid = series.grid
    bits = grid.precision
    rho_values = series.rho.values_on(grid)
    rad = radius(series.coeffs, series.rho, grid,
                 window=table_window(series.coeffs, RADIUS_WINDOW))

    ys = _offsets(series, x)
    cond_radius = None
    with working_precision(bits + GUARD_BITS):
        for i in grid.tail:
            r_i = rad.r.values[i]
            if mpmath.isinf(r_i):
                continue
            gap = r_i - abs(as_mpf(ys[i], bits))
            if not gap >= rho_values[i] ** MARGIN:
                cond_radius = Verdict(
                    FAIL,
                    counterexample={"grid_index": i,
                                    "radius": decimal_str(r_i, bits),
                                    "offset": decimal_str(abs(as_mpf(ys[i], bits)), bits)},
                    notes="no rho^%d gap below the radius" % MARGIN)
                break
    if cond_radius is None:
        cond_radius = Verdict(PASS, witness={"margin_exponent": MARGIN})

    cond_formal = is_formal_hps(series, x)

    cond_limit, limit_net = _limit_condition(series, x, q_target, rho_values)

    cond_derivs = derivative_net_moderate(series, x, q_target)

    overall = combine_verdicts({"radius": cond_radius, "formal": cond_formal,
                                "limit": cond_limit, "derivatives": cond_derivs})
    return ConvergenceReport(cond_radius=cond_radius, cond_formal=cond_formal,
                             cond_limit=cond_limit, cond_derivs=cond_derivs,
                             overall=overall, limit=limit_net)


def _limit_condition(series, x, q_target, rho_values):
    grid = series.grid
    bits = grid.precision
    # the raw report, not series_limit: a failure reads the partial sums
    report = _series_limit_report(series, x, q_target, N_CAP)
    bad = [i for i, (_, status, _) in enumerate(report) if status != "converged"]
    if bad:
        # partial evidence: a sinking-valuation prefix or a partial sum that
        # already dwarfs every tested moderateness bound decides a failure
        computed = [(i, value) for i, (value, status, _) in enumerate(report)
                    if value is not None]
        values = [value for value, _, _ in report]
        oversized = [i for i, (value, status, _) in enumerate(report)
                     if status == "divergent-cap" and value is not None
                     and tail_exceeds(values, rho_values, (i,), -MODERATE_N_MAX,
                                      bits) is not None]
        prefix_fail = False
        if len([i for i, _ in computed if i in grid.tail]) >= 2:
            prefix_grid = EpsGrid(
                points=tuple(grid.points[i] for i, _ in computed),
                tail_start=0, precision=grid.precision)
            prefix_net = GenNum(values=tuple(v for _, v in computed),
                                grid=prefix_grid)
            prefix_fail = is_moderate(prefix_net, series.rho, prefix_grid,
                                      MODERATE_N_MAX).failed
        if oversized or prefix_fail:
            return Verdict(
                FAIL,
                counterexample={"uncomputable_at": bad,
                                "oversized_at": oversized},
                notes="epsilon-wise sums exceed every tested moderateness "
                      "bound"), None
        return Verdict(INCONCLUSIVE,
                       notes="series limit not computable within the term cap "
                             "at grid indices %s" % bad), None
    limit_net = GenNum(values=tuple(v for v, _, _ in report), grid=grid)
    moderate = is_moderate(limit_net, series.rho, grid, MODERATE_N_MAX)
    if not moderate.passed:
        verdict = Verdict(FAIL, counterexample=moderate.counterexample,
                          notes="limit net is not moderate: " + moderate.notes) \
            if moderate.failed else Verdict(INCONCLUSIVE, notes=moderate.notes)
        return verdict, limit_net
    sum_at = _summation(series, x)
    for j, tops in enumerate(_ladder_tops(series), 1):
        for i in grid.tail:
            value, _, status, _ = sum_at(i, 0, tops[i], N_CAP)
            if status not in ("complete", "stopped"):
                return Verdict(
                    FAIL,
                    counterexample={"grid_index": i, "rung": j},
                    notes="hyperfinite sum exceeds the budget while "
                          "growing"), limit_net
            # cell by cell, so that a failure skips the dearer later sums
            limit = limit_net.values[i]
            gap = num_sub(max(value, limit), min(value, limit),
                          bits + GUARD_BITS)  # |value - limit|
            if tail_exceeds({i: gap}, rho_values, (i,), Q_CLOSE,
                            bits) is not None:
                return Verdict(
                    FAIL,
                    counterexample={"grid_index": i, "rung": j,
                                    "gap": decimal_str(gap, 64)},
                    notes="hyperfinite sums do not approach the "
                          "epsilon-wise limit"), limit_net
    return Verdict(PASS, witness={"moderate_N": moderate.witness["N"],
                                  "q_close": Q_CLOSE}), limit_net


# ---------------------------------------------------------------------------
# Eventual boundedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventualBoundReport:
    r_bound: Optional[GenNum]
    n_start: Optional[int]
    verdict: Verdict


def _term_magnitudes(series: HpsSeries, x: GenNum, n_max: int):
    """Per grid point, the summand sizes |a(n, eps) (x - c)^n| for n <= n_max."""
    grid = series.grid
    bits = grid.precision
    offsets = _offsets(series, x)
    read = _rounded_reader(series.coeffs, grid, series.rho)
    terms = [[] for _ in offsets]
    with working_precision(bits):
        ys = [as_mpf(y_i, bits) for y_i in offsets]
        powers = [mpf(1)] * len(ys)
        # row by row, so that an unreadable cell raises at its lowest n
        for n in range(n_max + 1):
            for i, y in enumerate(ys):
                terms[i].append(abs(read(n, i) * powers[i]))
                powers[i] *= y
    return terms


def eventually_bounded(series: HpsSeries, x: GenNum) -> EventualBoundReport:
    """Uniform moderate bound on the summands from some index on.

    Searches the smallest ``n_start`` admitting a bound of the shape
    ``kappa * rho^-p``, p <= MODERATE_N_MAX, for all later summands
    n <= BOUND_N_MAX on the tail.
    """
    grid = series.grid
    bits = grid.precision
    rho_values = series.rho.values_on(grid)
    terms = _term_magnitudes(series, x, BOUND_N_MAX)
    tail = list(grid.tail)
    with working_precision(bits + GUARD_BITS):
        for n_start in range(BOUND_N_MAX // 2 + 1):
            peak = {i: max(terms[i][n_start:]) for i in tail}
            for p in range(MODERATE_N_MAX + 1):
                for kappa in (1, 2, 4, 8, 16):
                    if all(peak[i] < kappa * rho_values[i] ** -p for i in tail):
                        bound = GenNum(
                            values=tuple(kappa * rho_values[i] ** -p
                                         for i in range(len(grid))),
                            grid=grid)
                        verdict = Verdict(PASS,
                                          witness={"N_start": n_start, "p": p,
                                                   "kappa": kappa})
                        return EventualBoundReport(r_bound=bound,
                                                   n_start=n_start,
                                                   verdict=verdict)
    # no witness: the smallest conceivable bound is the term maximum itself;
    # if even that net fails moderateness, no moderate bound can exist
    peak_net = GenNum(values=tuple(max(column) for column in terms), grid=grid)
    peak_mod = is_moderate(peak_net, series.rho, grid, MODERATE_N_MAX)
    if peak_mod.failed:
        verdict = Verdict(FAIL,
                          counterexample={"peak_valuations":
                                          [decimal_str(v, 64) for v in
                                           valuation(peak_net, series.rho,
                                                     grid)]},
                          notes="summands grow in n with climbing exponent")
        return EventualBoundReport(r_bound=None, n_start=None, verdict=verdict)
    return EventualBoundReport(r_bound=None, n_start=None,
                               verdict=Verdict(INCONCLUSIVE,
                                               notes="no tested bound holds "
                                                     "but growth is not clear"))

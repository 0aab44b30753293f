"""Closure operations on coefficient families.

Sum, Cauchy product, reciprocal/division, composition, term-wise
integration, recentering and compositional reversion (derivation is
``series.derived_coefficients``).  Every operation is a column op run by
``_map_columns``: once on the shared columns when no operand varies across
the grid, otherwise once per grid point.  Each operation returns a fresh
family and nothing else: a result's weak witness depends on the gauge and
the grid, so ``series.weak_witness`` searches it where it is read.

Arithmetic stays exact (``Fraction``) whenever the operands are exact and
independent of the grid point, which is what lets round-trip identities
(division, composition associativity, reversion) hold at tolerances far
below floating roundoff.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from mpmath import mpf

from .nets import ConfigError, EpsGrid, Gauge, GenNum
from .numerics import (as_mpf, decimal_str, is_exact, num_add, num_div,
                       num_mul, num_sub, working_precision)
from .series import (HpsCoefficients, HpsSeries, coeff_rows, converges_at,
                     point_values, shared_row)


class NotInvertibleError(Exception):
    """Leading coefficient lacks a gauge-power lower bound on the tail."""


class InsufficientDepthError(Exception):
    """Recentering truncation tail exceeds the requested tolerance.

    ``where`` names the failing test and entry; the message adds the remedy
    in library terms, a larger truncation depth ``m_max``.
    """

    def __init__(self, where: str):
        super().__init__("%s; raise m_max" % where)
        self.where = where


DEFAULT_DEPTH = 258
#: Largest estimated recentering tail, relative to the computed entry.
RECENTER_TAIL_TOL = "1e-30"
#: div and reverse need |b_0| (|a_1|) >= rho^m on the tail, m <= this.
INVERTIBLE_M_MAX = 8


def _map_columns(op, grid, rho, n_max, *operands):
    """Apply ``op`` once to the shared columns when no operand varies across
    the grid, otherwise once per grid point.  An operand is a family (``op``
    gets its rows 0..n_max) or a per-point value tuple (``op`` gets one
    entry), shared under :func:`shared_row`.  An InsufficientDepthError from
    ``op`` gains the grid index of its column, or "every grid point"."""
    families = [isinstance(x, HpsCoefficients) for x in operands]
    tables = [coeff_rows(x, grid, rho, n_max) if family else (shared_row(x),)
              for x, family in zip(operands, families)]

    def run(where, columns):
        try:
            return op(*[column if family else column[0]
                        for column, family in zip(columns, families)])
        except InsufficientDepthError as exc:
            raise InsufficientDepthError("%s, %s" % (exc.where, where)) from None

    if not any(isinstance(row, tuple) for rows in tables for row in rows):
        return HpsCoefficients.from_column(run("every grid point", tables))
    per_point = [run("grid index %d" % i,
                     [[row[i] if isinstance(row, tuple) else row
                       for row in rows] for rows in tables])
                 for i in range(len(grid))]
    return HpsCoefficients.from_column(zip(*per_point))


def add(a: HpsCoefficients, b: HpsCoefficients, grid: EpsGrid, rho: Gauge,
        n_max: Optional[int] = None) -> HpsCoefficients:
    """Entry-wise sum of two families, to the shorter depth by default."""
    n_max = n_max if n_max is not None else min(a.bound_or(DEFAULT_DEPTH),
                                                b.bound_or(DEFAULT_DEPTH))
    bits = grid.precision
    return _map_columns(lambda u, v: [num_add(u[n], v[n], bits)
                                      for n in range(n_max + 1)],
                        grid, rho, n_max, a, b)


def _convolve(u, v, n_max, bits):
    out = []
    for n in range(n_max + 1):
        total = None
        for k in range(n + 1):
            term = num_mul(u[k], v[n - k], bits)
            total = term if total is None else num_add(total, term, bits)
        out.append(total)
    return out


def cauchy_product(a: HpsCoefficients, b: HpsCoefficients, n_max: int,
                   grid: EpsGrid, rho: Gauge) -> HpsCoefficients:
    """Convolution c_n = sum a_k b_(n-k), exact for exact operands."""
    bits = grid.precision
    return _map_columns(lambda u, v: _convolve(u, v, n_max, bits),
                        grid, rho, n_max, a, b)


def _require_invertible(family, name, n, grid, rho):
    """Raise unless entry n of ``family`` is at least rho^m in absolute value
    on the tail, for one m <= INVERTIBLE_M_MAX."""
    bits = grid.precision
    rho_values = rho.values_on(grid)
    values = point_values(coeff_rows(family, grid, rho, n)[n], len(grid))
    with working_precision(bits):
        for m in range(INVERTIBLE_M_MAX + 1):
            if all(abs(as_mpf(values[i], bits)) >= rho_values[i] ** m
                   for i in grid.tail):
                return
    raise NotInvertibleError("%s_%d admits no lower bound rho^m with m <= %d "
                             "on the tail" % (name, n, INVERTIBLE_M_MAX))


def reciprocal_div(a: HpsCoefficients, b: HpsCoefficients, n_max: int,
                   grid: EpsGrid, rho: Gauge) -> HpsCoefficients:
    """Coefficients of a/b via the triangular recursion d_0 = a_0/b_0,
    d_n = (a_n - sum b_l d_(n-l)) / b_0."""
    _require_invertible(b, "b", 0, grid, rho)
    bits = grid.precision

    def divide(u, v):
        out = [num_div(u[0], v[0], bits)]
        for n in range(1, n_max + 1):
            inner = None
            for l in range(1, n + 1):
                term = num_mul(v[l], out[n - l], bits)
                inner = term if inner is None else num_add(inner, term, bits)
            numerator = u[n] if inner is None else num_sub(u[n], inner, bits)
            out.append(num_div(numerator, v[0], bits))
        return out

    return _map_columns(divide, grid, rho, n_max, a, b)


def _compose_column(outer, inner, n_max, bits):
    """Coefficients of outer(inner(x)) with the inner constant term dropped:
    inner indices start at 1, so order n draws on outer orders k <= n."""
    tilde = [Fraction(0) if is_exact(inner[0]) else mpf(0)] + \
        [inner[k] for k in range(1, n_max + 1)]
    out = [outer[0]] + [None] * n_max
    power = tilde[:]  # tilde^1
    for k in range(1, n_max + 1):
        for n in range(k, n_max + 1):
            term = num_mul(outer[k], power[n], bits)
            out[n] = term if out[n] is None else num_add(out[n], term, bits)
        if k < n_max:
            power = _convolve(power, tilde, n_max, bits)
    return out


def compose(a: HpsCoefficients, b: HpsCoefficients, n_max: int,
            grid: EpsGrid, rho: Gauge) -> HpsCoefficients:
    """Composition a after b, with a read as expanded at b's constant term.

    Only inner indices >= 1 enter (the centering removes the constant), so
    each output order is a finite sum over outer orders k <= n.
    """
    bits = grid.precision
    return _map_columns(lambda u, v: _compose_column(u, v, n_max, bits),
                        grid, rho, n_max, a, b)


def integrate(a: HpsCoefficients, grid: EpsGrid, rho: Gauge,
              n_max: Optional[int] = None) -> HpsCoefficients:
    """Antiderivative family: A_0 = 0, A_(n+1) = a_n / (n+1)."""
    n_max = n_max if n_max is not None else a.bound_or(DEFAULT_DEPTH - 1) + 1
    if n_max < 1:
        raise ConfigError("integration depth must be at least 1")
    bits = grid.precision
    # input depth n_max - 1 produces output depth n_max
    return _map_columns(lambda u: [Fraction(0)] + [num_div(u[n], n + 1, bits)
                                                   for n in range(len(u))],
                        grid, rho, n_max - 1, a)


def recenter(series: HpsSeries, new_center: GenNum, n_max: int,
             m_max: int, check: bool = True) -> HpsCoefficients:
    """Re-expand at a new center inside the set of convergence.

    new_a(n) = sum_(m=n..m_max) a_m C(m, n) (new_c - c)^(m-n), truncated at
    m_max; raises :class:`InsufficientDepthError` when the geometric
    estimate of the dropped tail is not below ``RECENTER_TAIL_TOL`` relative
    to the computed entry, naming n and the grid index of the column, or
    "every grid point" when the series and the shift are shared.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    if m_max < n_max:
        raise ConfigError("recenter needs m_max >= n_max (got %d < %d)"
                          % (m_max, n_max))
    if m_max < 1:
        # the tail audit reads a[m_max - 1]
        raise ConfigError("recenter needs m_max >= 1 (got %d)" % m_max)
    if check:
        report = converges_at(series, new_center)
        if not report.overall.passed:
            raise ConfigError("new center is outside the verified set of "
                              "convergence: %s" % report.overall.status)
    grid = series.grid
    bits = grid.precision
    shift = tuple(num_sub(a, b, bits)
                  for a, b in zip(new_center.values, series.center.values))
    with working_precision(bits):
        no_bound = mpf("0.95")
        tolerance = mpf(RECENTER_TAIL_TOL)

    def shifted(a, d):
        column = []
        with working_precision(bits):
            # geometric tail audit at the truncation edge, scaled per n below
            a_hi = as_mpf(a[m_max], bits)
            a_lo = as_mpf(a[m_max - 1], bits)
            growth = (None if a_lo == 0 or a_hi == 0
                      else abs(a_hi / a_lo) * abs(as_mpf(d, bits)))
            for n in range(n_max + 1):
                total = None
                binom = Fraction(1)  # C(n, n)
                power = Fraction(1) if is_exact(d) else mpf(1)
                for m in range(n, m_max + 1):
                    term = num_mul(num_mul(a[m], binom, bits), power, bits)
                    total = term if total is None else num_add(total, term, bits)
                    binom = binom * (m + 1) / (m + 1 - n)
                    power = num_mul(power, d, bits)
                if growth is not None:
                    tail_ratio = growth * (m_max + 1) / max(1, m_max + 1 - n)
                    if tail_ratio >= no_bound:
                        raise InsufficientDepthError("truncation tail has no "
                                                     "geometric bound at n=%d" % n)
                    # the m loop always runs, so term is its last term
                    estimate = (abs(as_mpf(term, bits)) * tail_ratio
                                / (1 - tail_ratio))
                    if estimate > tolerance * (1 + abs(as_mpf(total, bits))):
                        raise InsufficientDepthError(
                            "truncation tail %s exceeds tolerance at n=%d"
                            % (decimal_str(estimate, 64), n))
                column.append(total)
        return column

    return _map_columns(shifted, grid, series.rho, m_max, series.coeffs,
                        shift)


def reverse(a: HpsCoefficients, n_max: int, grid: EpsGrid,
            rho: Gauge) -> HpsCoefficients:
    """Compositional inverse g of a - a_0: compose(a - a_0, g) = identity.

    Solved order by order; order n of the composition is linear in g_n with
    coefficient a_1, so an invertibility margin on a_1 drives the division.
    """
    if n_max < 1:
        raise ConfigError("reverse needs n_max >= 1")
    _require_invertible(a, "a", 1, grid, rho)
    bits = grid.precision

    def invert(u):
        tilde = [Fraction(0) if is_exact(u[0]) else mpf(0)] + list(u[1:n_max + 1])
        g = [Fraction(0), num_div(1, tilde[1], bits)]
        for n in range(2, n_max + 1):
            g.append(Fraction(0))
            h = _compose_column(tilde, g, n, bits)
            g[n] = num_div(num_sub(0, h[n], bits), tilde[1], bits)
        return g

    return _map_columns(invert, grid, rho, n_max, a)


def identity_coefficients(n_max: int) -> HpsCoefficients:
    rows = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n_max - 1)
    return HpsCoefficients.from_column(rows[:n_max + 1])

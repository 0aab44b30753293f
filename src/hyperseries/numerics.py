"""Shared numeric kernel: exact rationals where possible, mpmath elsewhere.

Every net value in this package is either an exact number (``int`` /
``Fraction``) or an ``mpmath.mpf`` carrying the working mantissa precision.
Exactness is not cosmetic: several verification identities (division
round-trips, composition associativity) are asserted at tolerances far below
any floating roundoff, so the algebra keeps rational inputs rational and only
drops to mpf when a transcendental function forces it.

All mpf arithmetic goes through ``working_precision`` so results depend only
on (inputs, precision); nothing here reads global mutable state besides the
mpmath context, which is restored on exit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mpf

Num = Union[int, Fraction, mpf]

#: Guard bits appended to user precision for internal comparisons.
GUARD_BITS = 16


def working_precision(bits: int):
    """Context manager setting the mpf mantissa size for a computation."""
    return mpmath.workprec(bits)


def is_exact(v) -> bool:
    return isinstance(v, (int, Fraction))


def as_mpf(v: Num, bits: int) -> mpf:
    """Round ``v`` to an mpf at ``bits`` of mantissa."""
    with working_precision(bits):
        if isinstance(v, mpf):
            return +v
        if isinstance(v, int):
            return mpf(v)
        if isinstance(v, Fraction):
            return mpf(v.numerator) / mpf(v.denominator)
        return mpf(v)


def num_add(a: Num, b: Num, bits: int) -> Num:
    if is_exact(a) and is_exact(b):
        return Fraction(a) + Fraction(b)
    with working_precision(bits):
        return as_mpf(a, bits) + as_mpf(b, bits)


def num_sub(a: Num, b: Num, bits: int) -> Num:
    if is_exact(a) and is_exact(b):
        return Fraction(a) - Fraction(b)
    with working_precision(bits):
        return as_mpf(a, bits) - as_mpf(b, bits)


def num_mul(a: Num, b: Num, bits: int) -> Num:
    if is_exact(a) and is_exact(b):
        return Fraction(a) * Fraction(b)
    with working_precision(bits):
        return as_mpf(a, bits) * as_mpf(b, bits)


def num_div(a: Num, b: Num, bits: int) -> Num:
    if is_exact(a) and is_exact(b):
        if b == 0:
            raise ZeroDivisionError("exact division by zero")
        return Fraction(a) / Fraction(b)
    with working_precision(bits):
        return as_mpf(a, bits) / as_mpf(b, bits)


#: ``_slack_factor`` values by precision.
_SLACK_FACTORS: dict = {}


def _slack_factor(bits: int) -> mpf:
    """``1 + 2^(32-bits)``, the relative slack of every tail-bound
    comparison, computed once per precision.  The value is exact at
    ``bits + GUARD_BITS``, where every caller multiplies by it."""
    factor = _SLACK_FACTORS.get(bits)
    if factor is None:
        with working_precision(bits + GUARD_BITS):
            factor = _SLACK_FACTORS[bits] = 1 + mpf(2) ** (32 - bits)
    return factor


def leq_with_slack(a, b, bits: int) -> bool:
    """``a <= b`` for non-negative magnitudes, forgiving the last few ulps.

    Verdict inequalities compare quantities that are often mathematically
    equal but rounded through different routes; a relative slack of
    ``2^(32-bits)`` keeps those ties from flipping a verdict while staying
    far below every gauge-power margin the package ever tests.
    """
    with working_precision(bits + GUARD_BITS):
        return (as_mpf(a, bits + GUARD_BITS)
                <= as_mpf(b, bits + GUARD_BITS) * _slack_factor(bits))


def tail_exceeds(values, rho_values, cells, exponent,
                 bits: int) -> Optional[int]:
    """The first cell ``i`` of ``cells`` where ``|values[i]|`` exceeds
    ``rho_values[i] ** exponent`` by more than the :func:`leq_with_slack`
    slack, or None when the bound holds at every cell.

    This is the one comparison behind every gauge-power upper bound of the
    package: moderate, negligible, ``sigma <=* rho``, hypernatural bounds,
    radius classes and closeness to a limit.  ``values`` and ``rho_values``
    are indexed by cell; ``exponent`` is an int or a ``Fraction``.  Powers
    and magnitudes are taken at ``bits + GUARD_BITS``.
    """
    prec = bits + GUARD_BITS
    with working_precision(prec):
        power = exponent if isinstance(exponent, int) else as_mpf(exponent, prec)
        factor = _slack_factor(bits)
        for i in cells:
            bound = rho_values[i] ** power * factor
            if not abs(as_mpf(values[i], prec)) <= bound:
                return i
    return None


def decimal_digits(bits: int) -> int:
    """Decimal digits that faithfully represent a ``bits``-bit mantissa."""
    return int(bits * 0.30103) + 6


def decimal_str(v: Num, bits: int) -> str:
    """Deterministic decimal rendering used by reports and CSV files."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return "%s/%s" % (v.numerator, v.denominator)
    if mpmath.isinf(v):
        return "inf" if v > 0 else "-inf"
    if mpmath.isnan(v):
        return "nan"
    return mpmath.nstr(v, decimal_digits(bits), strip_zeros=True)

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
from typing import Union

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


def leq_with_slack(a, b, bits: int) -> bool:
    """``a <= b`` for non-negative magnitudes, forgiving the last few ulps.

    Verdict inequalities compare quantities that are often mathematically
    equal but rounded through different routes; a relative slack of
    ``2^(32-bits)`` keeps those ties from flipping a verdict while staying
    far below every gauge-power margin the package ever tests.
    """
    with working_precision(bits + GUARD_BITS):
        a = as_mpf(a, bits + GUARD_BITS)
        b = as_mpf(b, bits + GUARD_BITS)
        if b == 0:
            return a == 0
        return a <= b * (1 + mpf(2) ** (32 - bits))


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

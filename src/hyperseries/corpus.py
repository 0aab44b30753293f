"""Canonical example families and seeded random family generators.

:func:`build_series` is the one builder of the named families: the
geometric family (all ones), its doubled cousin 2^n, the exponential family
1/n!, the zero-class net rho^((n+1)/eps) (a family strongly equivalent to
zero whose root curve has a genuinely epsilon-dependent limit), and the
mollifier-scaled Dirac delta, whose mollifier and coefficient table
:func:`delta_setup` builds.  The demos call them directly; the CLI, its
`example` and `suite` subcommands included, reads them through
:class:`hyperseries.config.RunConfig`, which builds each once per run.

Random families are dyadic rationals with bounded mantissas so that algebra
on them stays exact and their admissibility witnesses are stable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Tuple

from .graf import MollifierSpec, delta_coeffs, make_mollifier
from .nets import EpsGrid, Gauge, GenNum
from .series import HpsCoefficients, HpsSeries, make_series


def default_grid(precision: int = 256) -> EpsGrid:
    return EpsGrid.decades(precision=precision)


def standard_gauges() -> Tuple[Gauge, Gauge]:
    return Gauge.from_text("eps", "rho"), Gauge.from_text("eps", "sigma")


#: Coefficient texts of the expression-backed example families; the run
#: configuration offers the same texts as its built-in series.
EXPR_FAMILIES = {"geometric": "1", "doubling": "2^n",
                 "exponential": "1/factorial(n)",
                 "zero-class": "rho^((n+1)/eps)"}


def build_series(name: str, grid: EpsGrid, rho: Gauge,
                 sigma: Gauge) -> HpsSeries:
    """One named example series, centered at zero."""
    if name == "delta":
        _, coeffs = delta_setup(grid, rho)
    elif name in EXPR_FAMILIES:
        coeffs = HpsCoefficients.from_expr(EXPR_FAMILIES[name])
    else:
        raise KeyError("unknown corpus family %r" % name)
    return make_series(coeffs, GenNum.constant(0, grid), rho, sigma, grid)


#: Depth of the delta family: its mollifier's moment table and coefficients.
DELTA_N_MAX = 96


def delta_setup(grid: EpsGrid,
                rho: Gauge) -> Tuple[MollifierSpec, HpsCoefficients]:
    spec = make_mollifier(grid, rho, b_exponent=1, n_max=DELTA_N_MAX)
    return spec, delta_coeffs(spec, DELTA_N_MAX)


def _dyadic(rng: random.Random, lo=Fraction(1, 2), hi=Fraction(2)) -> Fraction:
    """Random dyadic in [lo, hi] with a random sign, 12 mantissa bits."""
    span = hi - lo
    mantissa = Fraction(rng.randrange(0, 4097), 4096)
    value = lo + mantissa * span
    return value if rng.random() < 0.5 else -value


def random_dyadic_family(rng: random.Random, n_max: int,
                         growth: Optional[Fraction] = None,
                         nonzero_head: bool = False) -> HpsCoefficients:
    """Exact family m_n * g^n with |m_n| in [1/2, 2] and dyadic growth g."""
    if growth is None:
        growth = Fraction(rng.choice((1, 2, 4)))
    values = []
    power = Fraction(1)
    for n in range(n_max + 1):
        m = _dyadic(rng)
        if nonzero_head and n == 0:
            m = abs(m)
        values.append(m * power)
        power *= growth
    return HpsCoefficients.from_column(values)


def random_smooth_family(rng: random.Random, n_max: int) -> HpsCoefficients:
    """c * lambda^n * (n+1)^j: ratio-smooth, so radius estimates are sharp."""
    scale = abs(_dyadic(rng))
    lam = Fraction(rng.choice((1, 2, 4)), rng.choice((1, 2, 4)))
    j = rng.choice((0, 1, 2))
    values = []
    power = Fraction(1)
    for n in range(n_max + 1):
        values.append(scale * power * Fraction(n + 1) ** j)
        power *= lam
    return HpsCoefficients.from_column(values)


def random_division_pair(rng: random.Random, n_max: int):
    """(a, b) with b_0 a unit-sized dyadic, both exactly representable."""
    a = random_dyadic_family(rng, n_max)
    b = random_dyadic_family(rng, n_max, nonzero_head=True)
    return a, b

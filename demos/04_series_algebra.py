"""Closure algebra on coefficient families.

Sum, Cauchy product, division, composition, derivation, term-wise
integration and compositional reversion all stay inside the admissible
families; a result's admissibility witness is searched on the grid when
it is read.  Exact rational inputs stay exact, so round-trip identities
hold on the nose rather than to a tolerance.
"""

from fractions import Fraction

import mpmath

from hyperseries import EpsGrid, GenNum, HpsCoefficients, corpus
from hyperseries import (cauchy_product, compose, derived_coefficients,
                         integrate, identity_coefficients, make_series,
                         reciprocal_div, reverse, series_limit,
                         check_strong_eq)

print(__doc__)

grid = EpsGrid.decades()
rho, sigma = corpus.standard_gauges()
ones = corpus.build_series("geometric", grid, rho, sigma).coeffs
exponential = corpus.build_series("exponential", grid, rho, sigma).coeffs

# Cauchy product: the squared geometric series counts its own terms
squared = cauchy_product(ones, ones, 16, grid, rho)
print("ones * ones      :", squared.column_values(8))

# division: 1 / (1 - x) recovered from the coefficient recursion
num = HpsCoefficients.from_column([Fraction(1)] + [Fraction(0)] * 16)
den = HpsCoefficients.from_column([Fraction(1), Fraction(-1)] + [Fraction(0)] * 15)
quotient = reciprocal_div(num, den, 16, grid, rho)
print("1/(1-x) family   :", quotient.column_values(8))

# composition: exp after x + x^2, checked against direct evaluation
inner = HpsCoefficients.from_column([Fraction(0), Fraction(1), Fraction(1)]
                                    + [Fraction(0)] * 18)
composed = compose(exponential, inner, 20, grid, rho)
with mpmath.workprec(256):
    x = mpmath.mpf("0.1")
    series_value = sum(mpmath.mpf(c.numerator) / c.denominator * x ** n
                       for n, c in enumerate(composed.column_values(20)))
    print("exp(x+x^2) at 0.1: series %s vs direct %s"
          % (mpmath.nstr(series_value, 15),
             mpmath.nstr(mpmath.exp(x + x * x), 15)))

# reversion: the inverse of x + x^2 carries signed Catalan numbers
inverse = reverse(inner, 10, grid, rho)
print("reversion head   :", inverse.column_values(7))
round_trip = compose(inner, inverse, 10, grid, rho)
print("round trip       :", check_strong_eq(round_trip,
                                            identity_coefficients(10),
                                            rho, grid, n_max=10).status)

# integration: term-wise antiderivative of the geometric family sums to log 2
anti = integrate(ones, grid, rho, n_max=400)
log_series = make_series(anti, GenNum.constant(0, grid), rho, sigma, grid)
limit = series_limit(log_series, GenNum.constant(Fraction(1, 2), grid),
                     q_target=12)
with mpmath.workprec(256):
    print("integral at 1/2  : %s vs log 2 = %s"
          % (mpmath.nstr(limit.mpf_values()[-1], 15),
             mpmath.nstr(mpmath.log(2), 15)))

# derivation: the exponential family is its own derived family
derived = derived_coefficients(exponential, 1)
head = derived.materialize(6, grid, rho).column_values(6)
print("derive(1/n!)     :", head, "(again 1/n!)")

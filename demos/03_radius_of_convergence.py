"""Radius of convergence for coefficient nets.

The n-th root curve |a_n|^(1/n) is extrapolated in 1/n from coefficient
ratios (exact for geometric-type families); its reciprocal is the radius.
The interesting twist of coefficient nets: the radius is itself a net, and
it can legitimately depend on eps or exceed every tested power of 1/rho.
"""

import mpmath

from hyperseries import EpsGrid, HpsCoefficients, corpus
from hyperseries import classify_radius, radius

print(__doc__)

grid = EpsGrid.decades()
rho, sigma = corpus.standard_gauges()

families = [
    ("all ones", "geometric"),
    ("2^n", "doubling"),
    ("1/n!", "exponential"),
    ("rho^((n+1)/eps)", "zero-class"),
]

for label, name in families:
    fam = corpus.build_series(name, grid, rho, sigma).coeffs
    estimate = radius(fam, rho, grid, window=(16, 256))
    classes = classify_radius(estimate, rho, grid)
    print("%-16s r head = %-12s  method = %-19s classes = %s"
          % (label, mpmath.nstr(estimate.r.values[0], 8),
             estimate.methods[0], sorted(set(classes.classes))))
print()

# the zero-class family: every coefficient is strongly negligible, yet its
# root curve has a genuinely eps-dependent limit rho^(1/eps)
zero_class = corpus.build_series("zero-class", grid, rho, sigma).coeffs
estimate = radius(zero_class, rho, grid, window=(16, 256))
print("zero-class root-curve limits vs rho^(1/eps):")
with mpmath.workprec(300):
    for i in (0, 1, 2):
        point = grid.points[i]
        target = point ** (1 / point)
        rel = abs(estimate.limsup.values[i] - target) / target
        print("  eps = 1e-%d : relative gap %s" % (i + 1, mpmath.nstr(rel, 3)))
print()

# a family with square growth in the window: still a clean 1/4 radius
quartic = HpsCoefficients.from_expr("(n+1)^2 * 4^n")
estimate = radius(quartic, rho, grid, window=(16, 256))
print("(n+1)^2 4^n radius head:", mpmath.nstr(estimate.r.values[0], 12),
      "(exact value 1/4; polynomial factors wash out)")

"""Two functions classical analyticity rejects, handled as series.

The Dirac delta embedded through a mollifier scaled by b = 1/rho has a
perfectly admissible coefficient family (odd entries vanish, growth bound
with slope one), an unbounded radius, and derivative growth C n!/R^n whose
1/R is the infinite factor b itself.  A smooth function with a flat point
vanishes to every gauge order near zero while its series at a finite
center reproduces it exactly.  A genuinely nowhere-analytic growth family,
by contrast, is rejected outright by the admissibility check.
"""

from hyperseries import EpsGrid, GenNum, corpus
from hyperseries import (classify_radius, delta_derivative_net, delta_eval,
                         ext_eq, flat_point_check, graf_check,
                         hyperfinite_sum, hypernat_from_expr, is_negligible,
                         make_mollifier, make_series,
                         nowhere_analytic_reject, radius, weak_witness)
from hyperseries.graf import delta_coeffs, flat_point_values

print(__doc__)

grid = EpsGrid.decades()
rho, sigma = corpus.standard_gauges()

# ----------------------------------------------------------------- delta
spec = make_mollifier(grid, rho, b_exponent=1, n_max=96)
family = delta_coeffs(spec, 96)
print("delta family     : witness (Q, R) =", weak_witness(family, rho, grid),
      "| odd entries all zero:",
      all(family.rows[n] == 0 for n in range(1, 97, 2)))

classes = classify_radius(radius(family, rho, grid, window=(16, 94)),
                          rho, grid)
print("radius classes   :", sorted(set(classes.classes)))

series = make_series(family, GenNum.constant(0, grid), rho, sigma, grid)
drho = GenNum.from_expr("rho", grid, rho)
upper = hypernat_from_expr("1/eps", sigma, grid)
partial = hyperfinite_sum(series, drho, upper)
direct = delta_eval(spec, drho)
print("series vs b*mu(b x) at x = rho:",
      ext_eq(partial, direct, rho, grid, q_max=4).status)

net = delta_derivative_net(spec, k_max=70)
zero = GenNum.constant(0, grid)
witness = graf_check(net, zero, drho, 64,
                     [zero, GenNum.from_expr("rho/2", grid, rho),
                      GenNum.from_expr("-rho/2", grid, rho)], rho, grid)
print("growth bound     :", witness.verdict.status,
      "| gauge exponent of 1/R =", witness.inv_r_exponent,
      "(tracks the scale b = 1/rho)")
print()

# ------------------------------------------------------------ flat point
x = GenNum.from_expr("rho", grid, rho)
vanishing = is_negligible(flat_point_values(x, grid), rho,
                          grid.with_tail_start(2), q_max=4)
print("exp(-1/x) at rho :", vanishing.status, "(vanishes to every order)")
print("combined check   :", flat_point_check(grid, rho).status,
      "(includes the series at center 1 hitting f(1.1) to 1e-10)")
print()

# ------------------------------------------------- nowhere analytic: out
print("nowhere-analytic :", nowhere_analytic_reject(grid, rho).status,
      "(the growth family exp(-2n)(4n^2)^n/n! is rejected)")

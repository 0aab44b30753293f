"""Membership in the set of convergence: the exponential split.

The exponential family 1/n! has unbounded radius, yet membership in the
set of convergence is still a real constraint: the epsilon-wise sum must
be a moderate net.  At x = -log(rho) (which grows like log(1/eps)) the
series converges to exactly 1/rho and every condition passes; one scale
further out, at x = 1/rho, the sums blow past every moderate bound and
the limit condition fails.
"""

import mpmath

from hyperseries import EpsGrid, GenNum, converges_at, corpus

print(__doc__)

grid = EpsGrid.decades()
rho, sigma = corpus.standard_gauges()
exponential = corpus.build_series("exponential", grid, rho, sigma)


def show(label, report):
    print(label)
    print("  radius gap      :", report.cond_radius.status)
    print("  block sums      :", report.cond_formal.status)
    print("  limit + ladder  :", report.cond_limit.status)
    print("  derivative nets :", report.cond_derivs.status)
    print("  overall         :", report.overall.status)


x_in = GenNum.from_expr("-log(rho)", grid, rho)
inside = converges_at(exponential, x_in, q_target=30)
show("x = -log(rho):", inside)
with mpmath.workprec(280):
    worst = max(abs(v - 1 / p) * p for v, p in
                zip(inside.limit.mpf_values(), grid.points))
    print("  limit vs 1/rho  : relative error", mpmath.nstr(worst, 3))
print()

x_out = GenNum.from_expr("rho^(-1)", grid, rho)
outside = converges_at(exponential, x_out)
show("x = 1/rho:", outside)
print("  note:", outside.cond_limit.notes)

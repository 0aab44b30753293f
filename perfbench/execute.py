"""Executors: one request in, calls into hyperseries, a plain outcome out.

Everything a request needs from the program happens inside its call:
parsing, building families, points and nets, and the verdict itself.  The
per-precision grid and the gauges are built once, in set-up.  Requests of
one ``membership-sweep`` group share the series built by the first of them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath

import hyperseries as hs
from hyperseries import algebra, corpus, graf


#: Moments of the delta nets' mollifier: enough for derivative orders up to
#: 24 at |b x| <= 1/2 (the moment series' tail audit needs 40 more terms).
MOLLIFIER_MOMENTS = 64


class Context:
    """The standard grid at one precision with rho = sigma = eps."""

    def __init__(self, bits: int):
        self.grid = corpus.default_grid(precision=bits)
        self.rho, self.sigma = corpus.standard_gauges()
        self.zero = hs.GenNum.constant(0, self.grid)


class Executor:
    def __init__(self, precisions=(128, 256, 512)):
        self.contexts = {bits: Context(bits) for bits in precisions}
        self._group = None
        self._series = None

    def __call__(self, req: dict):
        return getattr(self, "_" + req["kind"])(req, self.contexts[req["bits"]])

    # -- shared series (membership-sweep) ---------------------------------

    def _shared_series(self, req, ctx):
        if req["group"] != self._group:
            self._series = None  # release the previous sweep first
            family = req["family"]
            if "corpus" in family:
                self._series = corpus.build_series(family["corpus"], ctx.grid,
                                                   ctx.rho, ctx.sigma)
            else:
                coeffs = hs.HpsCoefficients.from_expr(family["expr"])
                self._series = hs.make_series(coeffs, ctx.zero, ctx.rho,
                                              ctx.sigma, ctx.grid)
            self._group = req["group"]
        return self._series

    def _point(self, req, ctx):
        return hs.GenNum.from_expr(req["point"]["expr"], ctx.grid, ctx.rho)

    def _converges_at(self, req, ctx):
        series = self._shared_series(req, ctx)
        return hs.converges_at(series, self._point(req, ctx)).overall.status

    def _series_limit(self, req, ctx):
        series = self._shared_series(req, ctx)
        return hs.series_limit(series, self._point(req, ctx)).values

    def _hyperfinite_sum(self, req, ctx):
        series = self._shared_series(req, ctx)
        upper = hs.hypernat_from_expr("1/eps", ctx.sigma, ctx.grid)
        return hs.hyperfinite_sum(series, self._point(req, ctx), upper).values

    def _eventually_bounded(self, req, ctx):
        series = self._shared_series(req, ctx)
        return hs.eventually_bounded(series, self._point(req, ctx)).verdict.status

    # -- fresh coefficients -------------------------------------------------

    def _radius_of(self, req, ctx):
        coeffs = hs.HpsCoefficients.from_expr(req["family"]["expr"])
        return hs.radius(coeffs, ctx.rho, ctx.grid, window=tuple(req["window"]))

    def _radius(self, req, ctx):
        return self._radius_of(req, ctx).r.values

    def _classify_radius(self, req, ctx):
        found = hs.classify_radius(self._radius_of(req, ctx), ctx.rho, ctx.grid)
        return found.classes, found.p_m

    def _check_weak_moderate(self, req, ctx):
        coeffs = hs.HpsCoefficients.from_expr(req["family"]["expr"])
        verdict = hs.check_weak_moderate(coeffs, ctx.rho, ctx.grid,
                                         n_max=req["n_max"])
        witness = (verdict.witness["Q"], verdict.witness["R"]) \
            if verdict.passed else None
        return verdict.status, witness

    def _check_strong_eq(self, req, ctx):
        a = hs.HpsCoefficients.from_expr(req["family"]["expr"])
        b = hs.HpsCoefficients.from_expr(req["other"])
        return hs.check_strong_eq(a, b, ctx.rho, ctx.grid).status

    def _division_round_trip(self, req, ctx):
        n_max = req["n_max"]
        a, b = corpus.random_division_pair(random.Random(req["pair_seed"]),
                                           n_max)
        quotient = algebra.reciprocal_div(a, b, n_max, ctx.grid, ctx.rho)
        back = algebra.cauchy_product(quotient, b, n_max, ctx.grid, ctx.rho)
        return back.column_values(n_max), a.column_values(n_max)

    def _reverse_compose(self, req, ctx):
        n_max = req["n_max"]
        a = corpus.random_dyadic_family(random.Random(req["family_seed"]),
                                        n_max, nonzero_head=True)
        inverse = algebra.reverse(a, n_max, ctx.grid, ctx.rho)
        centred = hs.HpsCoefficients.from_column(
            [Fraction(0)] + a.column_values(n_max)[1:])
        composed = algebra.compose(centred, inverse, n_max, ctx.grid, ctx.rho)
        return composed.column_values(n_max)

    # -- growth witnesses and net predicates --------------------------------

    def _graf_check(self, req, ctx):
        grid, rho, zero = ctx.grid, ctx.rho, ctx.zero
        n_max = req["n_max"]
        net = req["net"]
        if net == "exp":
            f = _exp_net(Fraction(req["a"]), grid, n_max + 8)
            ball = hs.GenNum.constant(1, grid)
            samples = [hs.GenNum.constant(Fraction(k, 10), grid)
                       for k in (-5, 0, 5)]
        elif net == "delta":
            b = req["b"]
            spec = graf.make_mollifier(grid, rho, b_exponent=b,
                                       n_max=MOLLIFIER_MOMENTS)
            f = graf.delta_derivative_net(spec, k_max=n_max + 8)
            ball = hs.GenNum.from_expr("rho^%d" % b, grid, rho)
            samples = [zero, hs.GenNum.from_expr("rho^%d/2" % b, grid, rho),
                       hs.GenNum.from_expr("-rho^%d/2" % b, grid, rho)]
        else:
            series = hs.make_series(hs.HpsCoefficients.from_expr(req["family"]),
                                    zero, rho, ctx.sigma, grid)
            f = graf.DerivativeNet.from_series(series, k_max=n_max + 8)
            ball = hs.GenNum.from_expr("rho^6", grid, rho)
            samples = [zero, hs.GenNum.from_expr("rho^8", grid, rho)]
        found = graf.graf_check(f, zero, ball, n_max, samples, rho, grid)
        return found.verdict.status, found.inv_r_exponent

    def _net(self, text, ctx):
        return hs.GenNum.from_expr(text, ctx.grid, ctx.rho)

    def _is_moderate(self, req, ctx):
        verdict = hs.is_moderate(self._net(req["x"], ctx), ctx.rho, ctx.grid)
        return verdict.status, (Fraction(verdict.witness["N"])
                                if verdict.passed else None)

    def _is_negligible(self, req, ctx):
        return hs.is_negligible(self._net(req["x"], ctx), ctx.rho,
                                ctx.grid).status

    def _ext_eq(self, req, ctx):
        return hs.ext_eq(self._net(req["x"], ctx), self._net(req["y"], ctx),
                         ctx.rho, ctx.grid).status

    def _gauge_le_star(self, req, ctx):
        sigma = hs.Gauge.from_text(req["sigma"], "sigma")
        verdict = hs.gauge_le_star(sigma, ctx.rho, ctx.grid)
        return verdict.status, (verdict.witness["Q"] if verdict.passed
                                else None)


def _exp_net(a: Fraction, grid, k_max: int):
    """Derivative net of exp(a x): the k-th derivative is a^k exp(a x)."""
    bits = grid.precision

    def evaluate(k, x):
        with mpmath.workprec(bits):
            scale = _mpf(a)
            values = tuple(scale ** k * mpmath.exp(scale * _mpf(v))
                           for v in x.values)
        return hs.GenNum(values=values, grid=grid)

    return graf.DerivativeNet(evaluator=evaluate, k_max=k_max,
                              label="exp(%s*x)" % a)


def _mpf(v):
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from hyperseries.nets import (ConfigError, EpsGrid, Gauge, GenNum,
                              InvalidGaugeError, NotHypernaturalError,
                              Verdict, ext_eq, gauge_le_star,
                              hypernat_from_expr, is_moderate, is_negligible,
                              sigma_ladder, valuation)


def drho(grid, rho, power="1"):
    return GenNum.from_expr("rho^(%s)" % power, grid, rho)


class TestGridAndGauge:
    def test_decades(self, grid):
        assert len(grid) == 8
        with mpmath.workprec(grid.precision):
            assert grid.points[0] == mpf(10) ** -1
        assert list(grid.tail) == list(range(1, 8))

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            EpsGrid(points=(mpf("0.5"), mpf("0.7")))  # not decreasing
        with pytest.raises(ConfigError):
            EpsGrid(points=(mpf("1.5"),))
        with pytest.raises(ConfigError):
            EpsGrid(points=(mpf("0.5"),), tail_start=3)

    def test_gauge_must_decrease(self, grid):
        with pytest.raises(InvalidGaugeError):
            Gauge.from_text("1").values_on(grid)  # constant: never decreases
        with pytest.raises(InvalidGaugeError):
            Gauge.from_text("1/eps - 9").values_on(grid)  # increasing, leaves range
        values = Gauge.from_text("eps").values_on(grid)
        assert values[0] == grid.points[0]

    def test_gauge_rejects_free_vars(self):
        with pytest.raises(ConfigError):
            Gauge.from_text("eps + n")


class TestValuation:
    def test_exact_on_pure_powers(self, grid, rho):
        for k in (-3, -1, 2, 5):
            x = drho(grid, rho, str(k))
            assert all(v == k for v in valuation(x, rho, grid))

    def test_zero_gives_plus_infinity(self, grid, rho):
        vals = valuation(GenNum.constant(0, grid), rho, grid)
        assert all(mpmath.isinf(v) and v > 0 for v in vals)

    def test_gauge_at_one_rejected(self):
        grid = EpsGrid(points=(mpf(1), mpf("0.5"), mpf("0.1")), tail_start=1)
        rho = Gauge.from_text("eps")
        with pytest.raises(InvalidGaugeError):
            valuation(GenNum.constant(2, grid), rho, grid)


class TestModerate:
    def test_inverse_square(self, grid, rho):
        verdict = is_moderate(drho(grid, rho, "-2"), rho, grid, n_max=5)
        assert verdict.passed and verdict.witness["N"] == 2

    def test_infinitesimal_power(self, grid, rho):
        verdict = is_moderate(drho(grid, rho, "1/eps"), rho, grid, n_max=10)
        assert verdict.passed and verdict.witness["N"] == 0

    def test_super_growth_fails(self, grid, rho):
        verdict = is_moderate(drho(grid, rho, "-(1/eps)"), rho, grid, n_max=10)
        assert verdict.failed
        assert "grid_index" in verdict.counterexample

    def test_bounded_overflow_is_inconclusive(self, grid, rho):
        verdict = is_moderate(drho(grid, rho, "-4"), rho, grid, n_max=2)
        assert verdict.status == "inconclusive"

    def test_empty_tail_rejected(self, rho):
        grid = EpsGrid.decades(1, 3)
        bad = EpsGrid(points=grid.points, tail_start=2)
        # tail of one point is fine; tail start beyond range is not
        with pytest.raises(ConfigError):
            EpsGrid(points=grid.points, tail_start=3)


class TestNegligible:
    def test_zero(self, grid, rho):
        verdict = is_negligible(GenNum.constant(0, grid), rho, grid, q_max=6)
        assert verdict.passed and verdict.witness["q"] == 6

    def test_fast_vanishing(self, grid, rho):
        verdict = is_negligible(drho(grid, rho, "1/eps"), rho, grid, q_max=6)
        assert verdict.passed

    def test_fixed_power_is_inconclusive(self, grid, rho):
        verdict = is_negligible(drho(grid, rho, "3"), rho, grid, q_max=6)
        assert verdict.status == "inconclusive"
        assert "moderate, non-negligible" in verdict.notes

    def test_growing_net_fails(self, grid, rho):
        verdict = is_negligible(drho(grid, rho, "-(1/eps)"), rho, grid)
        assert verdict.failed

    def test_negligible_implies_moderate_with_zero_exponent(self, grid, rho):
        for power in ("1/eps", "5 + 1/eps", "2/eps"):
            x = drho(grid, rho, power)
            if is_negligible(x, rho, grid).passed:
                moderate = is_moderate(x, rho, grid)
                assert moderate.passed and moderate.witness["N"] == 0


class TestExtEq:
    def test_reflexive(self, grid, rho):
        x = drho(grid, rho, "-1")
        assert ext_eq(x, x, rho, grid).passed

    def test_matching_infinities(self, grid, rho):
        inf = GenNum(values=tuple(mpf("+inf") for _ in grid.points),
                     grid=grid)
        assert ext_eq(inf, inf, rho, grid).passed

    def test_opposite_infinities_fail(self, grid, rho):
        plus = GenNum(values=tuple(mpf("+inf") for _ in grid.points),
                      grid=grid)
        minus = GenNum(values=tuple(mpf("-inf") for _ in grid.points),
                       grid=grid)
        assert ext_eq(plus, minus, rho, grid).failed

    def test_negligible_difference(self, grid, rho):
        one = GenNum.constant(1, grid)
        nudged = GenNum.from_expr("1 + rho^(1/eps)", grid, rho)
        assert ext_eq(one, nudged, rho, grid).passed

    def test_symmetry(self, grid, rho):
        a = GenNum.from_expr("1 + rho^(1/eps)", grid, rho)
        b = GenNum.constant(1, grid)
        assert ext_eq(a, b, rho, grid).status == ext_eq(b, a, rho, grid).status

    @given(st.integers(min_value=5, max_value=20),
           st.integers(min_value=5, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_transitivity_degrades_by_one(self, p, q):
        grid = EpsGrid.decades()
        rho = Gauge.from_text("eps")
        x = GenNum.constant(1, grid)
        y = GenNum.from_expr("1 + rho^(%d + 1/eps)" % p, grid, rho)
        z = GenNum.from_expr("1 + rho^(%d + 1/eps)" % p +
                             " + rho^(%d + 1/eps)" % q, grid, rho)
        level = 4
        if ext_eq(x, y, rho, grid, q_max=level).passed and \
                ext_eq(y, z, rho, grid, q_max=level).passed:
            assert ext_eq(x, z, rho, grid, q_max=level - 1).passed


class TestGaugeLeStar:
    def test_identity_gauge(self, grid, rho):
        verdict = gauge_le_star(rho, rho, grid)
        assert verdict.passed and verdict.witness["Q"] == 1

    def test_square_gauge(self, grid, rho):
        sigma = Gauge.from_text("eps^2", "sigma")
        verdict = gauge_le_star(sigma, rho, grid)
        assert verdict.passed and verdict.witness["Q"] == 2

    def test_quarter_steps(self, grid, rho):
        sigma = Gauge.from_text("eps * sqrt(sqrt(eps))", "sigma")  # eps^(5/4)
        verdict = gauge_le_star(sigma, rho, grid)
        assert verdict.witness["Q"] == Fraction(5, 4)

    def test_saturating_gauge(self, rho):
        small = EpsGrid.decades(1, 4)
        sigma = Gauge.from_text("exp(-exp(1/eps))", "sigma")
        verdict = gauge_le_star(sigma, rho, small)
        assert verdict.passed and verdict.witness["Q"] == 8
        assert "saturated" in verdict.notes

    def test_failing_direction(self, grid, rho):
        sigma = Gauge.from_text("eps^(1/8)", "sigma")
        verdict = gauge_le_star(sigma, rho, grid)
        assert verdict.failed


class TestHypernat:
    def test_reciprocal_gauge(self, grid, sigma):
        upper = hypernat_from_expr("1/eps", sigma, grid)
        assert upper.values[0] == 10 and upper.values[2] == 1000
        assert upper.sigma_witness == 1

    def test_zero(self, grid, sigma):
        upper = hypernat_from_expr("0", sigma, grid)
        assert set(upper.values) == {0} and upper.sigma_witness == 0

    def test_witness_inequality_holds(self, grid, sigma):
        upper = hypernat_from_expr("eps^(-2) + 5", sigma, grid)
        values = sigma.values_on(grid)
        for i in grid.tail:
            assert upper.values[i] <= values[i] ** -upper.sigma_witness * (1 + mpf(2) ** -200)

    def test_super_gauge_growth_rejected(self, sigma):
        small = EpsGrid.decades(1, 4)
        with pytest.raises(NotHypernaturalError):
            hypernat_from_expr("exp(1/eps)", sigma, small)

    def test_ladder(self, grid, sigma):
        rungs = sigma_ladder(sigma, grid, js=(1, 2))
        assert rungs[0].values[1] == 100
        assert rungs[1].values[1] == 10000


class TestVerdictInvariants:
    def test_pass_needs_witness(self):
        with pytest.raises(ValueError):
            Verdict("pass")

    def test_fail_needs_counterexample(self):
        with pytest.raises(ValueError):
            Verdict("fail")

    def test_inconclusive_is_free(self):
        assert Verdict("inconclusive", notes="undecided").status == "inconclusive"

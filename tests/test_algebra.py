import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from hyperseries import algebra, corpus
from hyperseries.algebra import (InsufficientDepthError, NotInvertibleError,
                                 add, cauchy_product, compose,
                                 identity_coefficients, integrate,
                                 reciprocal_div, recenter, reverse)
from hyperseries.nets import ConfigError, EpsGrid, GenNum
from hyperseries.numerics import as_mpf, num_mul, working_precision
from hyperseries.series import (HpsCoefficients, HpsSeries, check_strong_eq,
                                derived_coefficients, make_series, radius,
                                series_limit)


def column(*values):
    return HpsCoefficients.from_column([Fraction(v) for v in values])


def padded(values, n_max):
    values = list(values) + [Fraction(0)] * (n_max + 1 - len(values))
    return HpsCoefficients.from_column(values)


class TestAdd:
    def test_additive_identity(self, grid, rho, corpus_family):
        for family in (corpus_family("geometric"),
                       HpsCoefficients.from_expr("log(n+2)")):
            out = add(family, padded([], 64), grid, rho, n_max=64)
            assert out.column_values(64) == \
                family.materialize(64, grid, rho).column_values(64)

    def test_sum_of_limits(self, grid, rho, sigma, corpus_family):
        mixed = add(corpus_family("geometric"), corpus_family("exponential"),
                    grid, rho, n_max=300)
        series = make_series(mixed, GenNum.constant(0, grid), rho, sigma, grid)
        limit = series_limit(series, GenNum.constant(Fraction(1, 2), grid),
                             q_target=12)
        with working_precision(grid.precision):
            expected = 2 + mpmath.exp(mpf(1) / 2)
            assert abs(limit.values[-1] - expected) <= mpf("1e-20")

    def test_cancellation_gives_zero_family(self, grid, rho, corpus_family):
        ones = corpus_family("geometric")
        minus = HpsCoefficients.from_expr("-1")
        out = add(ones, minus, grid, rho, n_max=300)
        assert all(v == 0 for v in out.column_values(300))
        estimate = radius(out, rho, grid)
        assert all(mpmath.isinf(v) for v in estimate.r.values)

    def test_radius_at_least_min(self, grid, rho, corpus_family):
        a = corpus_family("geometric")       # r = 1
        b = corpus_family("doubling")        # r = 1/2
        out = add(a, b, grid, rho, n_max=300)
        estimate = radius(out, rho, grid)
        # ratios of 1 + 2^n converge to 2 exponentially, not polynomially,
        # so the extrapolated value carries the residual of the deepest node
        with working_precision(grid.precision):
            for v in estimate.r.values:
                assert v >= mpf("0.5") * (1 - mpf("1e-30"))


class TestCauchyProduct:
    def test_ones_squared(self, grid, rho, corpus_family):
        ones = corpus_family("geometric")
        squared = cauchy_product(ones, ones, 64, grid, rho)
        assert squared.column_values(64) == [Fraction(n + 1) for n in range(65)]

    def test_annihilator(self, grid, rho, corpus_family):
        out = cauchy_product(corpus_family("geometric"),
                             padded([], 32), 32, grid, rho)
        assert all(v == 0 for v in out.column_values(32))

    def test_product_limit(self, grid, rho, sigma, corpus_family):
        ones = corpus_family("geometric")
        squared = cauchy_product(ones, ones, 256, grid, rho)
        series = make_series(squared, GenNum.constant(0, grid), rho, sigma,
                             grid)
        limit = series_limit(series, GenNum.constant(Fraction(1, 2), grid),
                             q_target=8)
        with working_precision(grid.precision):
            for i in grid.tail:
                assert abs(limit.values[i] - 4) <= grid.points[i] ** 4


class TestDivision:
    def test_geometric_reciprocal(self, grid, rho):
        a = padded([1], 64)
        b = padded([1, -1], 64)
        out = reciprocal_div(a, b, 64, grid, rho)
        assert all(v == 1 for v in out.column_values(64))

    def test_self_division(self, grid, rho):
        b = padded([1, Fraction(1, 2), Fraction(1, 3)], 32)
        out = reciprocal_div(b, b, 32, grid, rho)
        expected = [Fraction(1)] + [Fraction(0)] * 32
        assert out.column_values(32) == expected

    def test_exponential_reciprocal(self, grid, rho):
        a = padded([1], 48)
        b = HpsCoefficients.from_column(
            [Fraction(1, math.factorial(n)) for n in range(49)])
        out = reciprocal_div(a, b, 48, grid, rho)
        expected = [Fraction((-1) ** n, math.factorial(n)) for n in range(49)]
        assert out.column_values(48) == expected

    def test_round_trip(self, grid, rho):
        rng = random.Random(20240817)
        a, b = corpus.random_division_pair(rng, 48)
        d = reciprocal_div(a, b, 48, grid, rho)
        back = cauchy_product(d, b, 48, grid, rho)
        assert check_strong_eq(back, a, rho, grid, n_max=48).passed

    def test_tiny_leading_coefficient_rejected(self, grid, rho):
        b = HpsCoefficients.from_expr("rho^10 + 0*n")
        a = padded([1], 16)
        with pytest.raises(NotInvertibleError):
            reciprocal_div(a, b.materialize(16, grid, rho), 16, grid, rho)


class TestCompose:
    def test_outer_identity(self, grid, rho):
        ident = identity_coefficients(16)
        b = padded([0, 1, 2, 3], 16)
        out = compose(ident, b, 16, grid, rho)
        assert out.column_values(16) == b.column_values(16)

    def test_inner_identity(self, grid, rho):
        a = padded([5, 1, 2, 3], 16)
        out = compose(a, identity_coefficients(16), 16, grid, rho)
        assert out.column_values(16) == a.column_values(16)

    def test_associativity_on_random_families(self, grid, rho):
        rng = random.Random(99)
        for _ in range(3):
            def triangular():
                rows = [Fraction(0), Fraction(rng.randrange(1, 5))]
                rows += [Fraction(rng.randrange(-8, 9), 4) for _ in range(15)]
                return HpsCoefficients.from_column(rows)
            a, b, c = triangular(), triangular(), triangular()
            left = compose(compose(a, b, 16, grid, rho), c, 16, grid, rho)
            right = compose(a, compose(b, c, 16, grid, rho), 16, grid, rho)
            assert check_strong_eq(left, right, rho, grid, n_max=16).passed


class TestReversion:
    def test_identity_inverts_to_identity(self, grid, rho):
        out = reverse(identity_coefficients(12), 12, grid, rho)
        assert out.column_values(12) == identity_coefficients(12).column_values(12)

    def test_catalan_signs(self, grid, rho):
        quadratic = padded([0, 1, 1], 16)
        out = reverse(quadratic, 16, grid, rho)
        head = out.column_values(6)
        assert head == [Fraction(v) for v in (0, 1, -1, 2, -5, 14, -42)]

    def test_flat_slope_rejected(self, grid, rho):
        flat = HpsCoefficients.from_expr("rho^10 * n")
        with pytest.raises(NotInvertibleError):
            reverse(flat.materialize(12, grid, rho), 12, grid, rho)


class TestDeriveIntegrate:
    def test_exponential_fixed_point(self, grid, rho, corpus_family):
        out = derived_coefficients(corpus_family("exponential"), 1)
        expected = [Fraction(1, math.factorial(n)) for n in range(20)]
        assert out.materialize(19, grid, rho).column_values(19) == expected

    def test_derive_of_ones(self, grid, rho, corpus_family):
        out = derived_coefficients(corpus_family("geometric"), 1)
        values = out.materialize(10, grid, rho).column_values(10)
        assert values == [Fraction(n + 1) for n in range(11)]

    def test_log_series_from_integration(self, grid, rho, corpus_family):
        out = integrate(corpus_family("geometric"), grid, rho, n_max=32)
        values = out.column_values(32)
        assert values[0] == 0
        assert values[1:] == [Fraction(1, n) for n in range(1, 33)]

    def test_round_trip_identity(self, grid, rho, corpus_family):
        base = corpus_family("doubling").materialize(40, grid, rho)
        back = derived_coefficients(integrate(base, grid, rho, n_max=41), 1)
        assert back.column_values(40) == base.column_values(40)

    def test_integral_limit_is_log_two(self, grid, rho, sigma, corpus_family):
        anti = integrate(corpus_family("geometric"), grid, rho, n_max=400)
        series = make_series(anti, GenNum.constant(0, grid), rho, sigma, grid)
        limit = series_limit(series, GenNum.constant(Fraction(1, 2), grid),
                             q_target=12)
        with working_precision(grid.precision):
            assert abs(limit.values[-1] - mpmath.log(2)) <= mpf("1e-22")


class TestRecenter:
    def test_same_center_is_identity(self, grid, rho, sigma):
        series = corpus.build_series("geometric", grid, rho, sigma)
        out = recenter(series, GenNum.constant(0, grid), 12, 200, check=False)
        materialized = out.materialize(12, grid, rho)
        base = series.coeffs.materialize(12, grid, rho)
        assert check_strong_eq(materialized, base, rho, grid, n_max=12).passed

    def test_geometric_recentred_at_half(self, grid, rho, sigma):
        series = corpus.build_series("geometric", grid, rho, sigma)
        out = recenter(series, GenNum.constant(Fraction(1, 2), grid), 8, 420)
        with working_precision(grid.precision):
            for n in range(9):
                row = out.rows[n]
                values = row if isinstance(row, tuple) else [row]
                for v in values:
                    assert abs(as_mpf(v, grid.precision) - 2 ** (n + 1)) \
                        <= mpf("1e-60")

    def test_exponential_recentred_at_one(self, grid, rho, sigma):
        series = corpus.build_series("exponential", grid, rho, sigma)
        out = recenter(series, GenNum.constant(1, grid), 8, 140, check=False)
        with working_precision(grid.precision):
            for n in range(9):
                row = out.rows[n]
                values = row if isinstance(row, tuple) else [row]
                expected = mpmath.e / mpmath.factorial(n)
                for v in values:
                    assert abs(as_mpf(v, grid.precision) - expected) \
                        <= mpf("1e-30")

    def test_truncation_below_output_depth_rejected(self, grid, rho, sigma):
        series = make_series(HpsCoefficients.from_column([1, 1, 0]),
                             GenNum.constant(0, grid), rho, sigma, grid)
        with pytest.raises(ConfigError):
            recenter(series, GenNum.constant(Fraction(1, 4), grid), 4, 2,
                     check=False)

    def test_uncontrolled_tail_rejected(self, grid, rho, sigma):
        series = corpus.build_series("geometric", grid, rho, sigma)
        with pytest.raises(InsufficientDepthError):
            recenter(series, GenNum.constant(Fraction(1, 2), grid), 8, 30,
                     check=False)

    def test_depth_error_names_the_column(self, grid, rho, sigma):
        series = corpus.build_series("geometric", grid, rho, sigma)
        with pytest.raises(InsufficientDepthError,
                           match=r"at n=0, every grid point; raise m_max"):
            recenter(series, GenNum.constant(Fraction(1, 2), grid), 8, 30,
                     check=False)
        with pytest.raises(InsufficientDepthError,
                           match=r"at n=0, grid index 0; raise m_max"):
            recenter(series, GenNum.from_expr("1/2 + rho", grid, rho), 8, 30,
                     check=False)

    def test_shared_column_computed_once(self, rho, sigma, monkeypatch,
                                         corpus_family):
        calls = []

        def counting(a, b, bits):
            calls.append(None)
            return num_mul(a, b, bits)

        monkeypatch.setattr(algebra, "num_mul", counting)
        counts = []
        for grid in (EpsGrid.decades(), EpsGrid.decades(1, 1, tail_start=0)):
            # built directly: no gauge decreases across a one-point grid
            series = HpsSeries(corpus_family("geometric"),
                               GenNum.constant(0, grid), rho, sigma, grid)
            calls.clear()
            out = recenter(series, GenNum.constant(Fraction(1, 4), grid), 8,
                           80, check=False)
            assert abs(out.column_values(8)[0] - Fraction(4, 3)) < 1e-30
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestCauchyConsistencyWithLimits:
    def test_product_of_limits_matches(self, grid, rho, sigma, corpus_family):
        # product series evaluated inside both balls equals the product of
        # the factor series values
        a = corpus_family("geometric")
        b = corpus_family("exponential")
        prod = cauchy_product(a, b, 300, grid, rho)
        series = make_series(prod, GenNum.constant(0, grid), rho, sigma, grid)
        x = GenNum.constant(Fraction(1, 3), grid)
        combined = series_limit(series, x, q_target=12)
        with working_precision(grid.precision):
            expected = (1 / (1 - mpf(1) / 3)) * mpmath.exp(mpf(1) / 3)
            assert abs(combined.values[-1] - expected) <= mpf("1e-20")

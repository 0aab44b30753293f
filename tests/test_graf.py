import hashlib
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from hyperseries import corpus, graf
from hyperseries.graf import (DerivativeNet, InvalidMollifierError,
                              MollifierSpec, OutOfCheckableRangeError,
                              bump_value, delta_coeffs, delta_derivative_net,
                              delta_eval, flat_point_check, flat_point_values,
                              graf_check, make_mollifier,
                              nowhere_analytic_coeffs,
                              nowhere_analytic_reject, taylor_coeffs)
from hyperseries.nets import ConfigError, EpsGrid, GenNum, is_negligible
from hyperseries.numerics import as_mpf, working_precision
from hyperseries.series import (HpsCoefficients, check_strong_eq,
                                check_weak_moderate, coeff_accessor,
                                make_series, weak_witness)


@pytest.fixture(scope="module")
def mollifier(grid, rho):
    return make_mollifier(grid, rho, b_exponent=1, n_max=96)


class TestBumpAndMoments:
    def test_bump_profile(self):
        with working_precision(128):
            assert bump_value(mpf(0), 128) == 1
            assert bump_value(mpf("0.4"), 128) == 1
            assert bump_value(mpf("1.2"), 128) == 0
            mid = bump_value(mpf("0.75"), 128)
            assert 0 < mid < 1
            assert bump_value(mpf("-0.75"), 128) == mid  # even

    def test_moment_invariants(self, mollifier):
        moments = mollifier.moments
        assert all(moments[n] == 0 for n in range(1, 97, 2))
        assert 0 < moments[0] <= 2
        assert all(abs(m) <= 2 for m in moments)
        evens = [moments[n] for n in range(0, 97, 2)]
        assert all(a > b for a, b in zip(evens, evens[1:]))

    def test_derivative_bound_from_zeroth_moment(self, mollifier):
        with working_precision(256):
            bound = mollifier.moments[0] / (2 * mpmath.pi)
            for n in range(0, 96, 2):
                assert abs(mollifier.mu_deriv_at_zero(n)) <= bound * (1 + mpf(2) ** -200)

    #: sha256 of repr([m._mpf_ for m in moments]) of the 96-moment table,
    #: recorded with one bump evaluation per integrand call (no node memo).
    MOMENT_DIGESTS = {
        128: "df91374bfce2f42fef0c620033627ce71ecdd1aff30f4daaf3c46c9fef5fb95d",
        256: "e9eb7aceed354c104125588bb45951770abab769f185ddb03b80acd54733ee4f",
    }

    @pytest.mark.parametrize("bits", sorted(MOMENT_DIGESTS))
    def test_moment_table_pinned(self, bits, rho):
        spec = make_mollifier(EpsGrid.decades(precision=bits), rho,
                              b_exponent=1, n_max=96)
        table = repr([m._mpf_ for m in spec.moments]).encode()
        assert hashlib.sha256(table).hexdigest() == self.MOMENT_DIGESTS[bits]

    def test_one_bump_call_per_node(self, grid, rho, monkeypatch):
        nodes = []

        def counting_bump(t, bits):
            nodes.append(t._mpf_)
            return bump_value(t, bits)

        monkeypatch.setattr(graf, "bump_value", counting_bump)
        monkeypatch.setattr(graf, "_EVEN_MOMENTS", {})
        cold = make_mollifier(grid, rho, b_exponent=1, n_max=96)
        # 1263 distinct tanh-sinh nodes on [1/2, 1] at 256 bits, which the
        # 49 quadratures visit 60939 times between them
        assert len(nodes) == len(set(nodes)) <= 1263
        del nodes[:]
        warm = make_mollifier(grid, rho, b_exponent=1, n_max=96)
        assert nodes == []
        assert warm.moments == cold.moments

    def test_bad_moments_rejected(self, grid, rho, mollifier):
        broken = list(mollifier.moments)
        broken[3] = mpf("0.25")
        bad = MollifierSpec(moments=tuple(broken), b=mollifier.b,
                            b_exponent=1, grid=grid)
        with pytest.raises(InvalidMollifierError):
            delta_coeffs(bad, 64)


class TestDeltaFamily:
    def test_odd_entries_exactly_zero(self, grid, rho, mollifier):
        fam = delta_coeffs(mollifier, 96)
        assert all(fam.rows[n] == 0 for n in range(1, 97, 2))

    def test_weak_witness_tracks_scale(self, grid, rho, mollifier):
        fam = delta_coeffs(mollifier, 96)
        assert weak_witness(fam, rho, grid) == (1, 1)

    def test_eval_at_zero(self, grid, rho, mollifier):
        zero = GenNum.constant(0, grid)
        values = delta_eval(mollifier, zero)
        with working_precision(grid.precision):
            for i in range(len(grid)):
                expected = (1 / grid.points[i]) * mollifier.moments[0] \
                    / (2 * mpmath.pi)
                assert abs(values.values[i] - expected) <= expected * mpf("1e-50")

    def test_eval_out_of_range(self, grid, rho, mollifier):
        one = GenNum.constant(1, grid)
        with pytest.raises(OutOfCheckableRangeError):
            delta_eval(mollifier, one)

    #: sha256 of repr([mu_series_at(k, y)._mpf_ ...]) for k = 0..24 and y in
    #: 0, 1/2, -1/2, then +-rho_i/2 per grid point, at 256 bits; recorded
    #: when every call recomputed its derivative values and factorials.
    MU_SERIES_DIGEST = \
        "a94a728e48bfeaf43b4b657774dc29228844d49348328e9b750e8ff21d116f2f"

    def test_mu_series_pinned(self, grid, rho, mollifier):
        with working_precision(grid.precision):
            ys = [mpf(0), mpf(1) / 2, -mpf(1) / 2]
            for r in rho.values_on(grid):
                ys += [r / 2, -r / 2]
        table = [mollifier.mu_series_at(k, y)._mpf_
                 for k in range(25) for y in ys]
        assert hashlib.sha256(repr(table).encode()).hexdigest() \
            == self.MU_SERIES_DIGEST

    def test_mu_series_past_the_moments(self, mollifier):
        with pytest.raises(ConfigError):
            mollifier.mu_series_at(mollifier.n_max + 1, mpf(0))

    def test_derivative_net_matches_family(self, grid, rho, mollifier):
        net = delta_derivative_net(mollifier, k_max=32)
        fam = delta_coeffs(mollifier, 96)
        zero = GenNum.constant(0, grid)
        acc = coeff_accessor(fam, grid, rho)
        with working_precision(grid.precision):
            for k in (0, 2, 6):
                values = net.eval_deriv(k, zero)
                fact = mpmath.factorial(k)
                for i in (0, 4):
                    expected = as_mpf(acc(k, i), grid.precision) * fact
                    got = values.values[i]
                    if expected == 0:
                        assert got == 0
                    else:
                        assert abs(got - expected) <= abs(expected) * mpf("1e-60")


class TestTaylorExtraction:
    def test_uniqueness_exact_families(self, grid, rho, sigma):
        for name in ("geometric", "doubling"):
            series = corpus.build_series(name, grid, rho, sigma)
            net = DerivativeNet.from_series(series, k_max=32)
            extracted, verdict = taylor_coeffs(net, series.center, 24, rho,
                                               grid)
            assert verdict.passed
            assert check_strong_eq(extracted, series.coeffs, rho, grid,
                                   n_max=24).passed

    def test_uniqueness_exponential_to_roundoff(self, grid, rho, sigma):
        series = corpus.build_series("exponential", grid, rho, sigma)
        net = DerivativeNet.from_series(series, k_max=32)
        extracted, verdict = taylor_coeffs(net, series.center, 24, rho, grid)
        assert verdict.passed
        acc = coeff_accessor(extracted, grid, rho)
        with working_precision(grid.precision):
            for n in range(25):
                expected = 1 / mpmath.factorial(n)
                got = as_mpf(acc(n, 0), grid.precision)
                assert abs(got - expected) <= expected * mpf("1e-70")

    def test_uniqueness_delta_to_roundoff(self, grid, rho, mollifier):
        net = delta_derivative_net(mollifier, k_max=32)
        zero = GenNum.constant(0, grid)
        extracted, verdict = taylor_coeffs(net, zero, 24, rho, grid)
        assert verdict.passed and verdict.witness["Q"] == 1
        fam = delta_coeffs(mollifier, 96)
        acc_a = coeff_accessor(extracted, grid, rho)
        acc_b = coeff_accessor(fam, grid, rho)
        with working_precision(grid.precision):
            for n in range(25):
                for i in (1, 7):
                    a = as_mpf(acc_a(n, i), grid.precision)
                    b = as_mpf(acc_b(n, i), grid.precision)
                    if b == 0:
                        assert a == 0
                    else:
                        assert abs(a - b) <= abs(b) * mpf("1e-60")


#: (net, status, witness (q, p, lambda, kappa), repr(inv_r_exponent)) of
#: graf_check on the nets built by ``_growth_case``.
GRAF_WITNESSES = [
    ("exp(x)", "pass", ("0", "0", "1", "2"), "0.0"),
    ("exp(2x)", "pass", ("0", "0", "1", "8"), "0.0"),
    ("delta-b1", "pass", ("1", "1", "1", "1/4"), "1.0"),
    ("delta-b2", "pass", ("2", "2", "1", "1/4"), "2.0"),
    ("factorial(n)", "fail", None, "None"),
    ("nowhere", "fail", None, "None"),
]


def _growth_case(name, grid, rho, sigma):
    """(net, ball, samples, n_max) for one row of GRAF_WITNESSES."""
    bits = grid.precision
    zero = GenNum.constant(0, grid)
    if name.startswith("exp"):
        a = 1 if name == "exp(x)" else 2

        def evaluate(k, x):  # the k-th derivative of exp(a x)
            with working_precision(bits):
                return GenNum(values=tuple(
                    mpf(a) ** k * mpmath.exp(a * as_mpf(v, bits))
                    for v in x.values), grid=grid)

        net = DerivativeNet(evaluator=evaluate, k_max=48)
        samples = [GenNum.constant(Fraction(k, 10), grid) for k in (-5, 0, 5)]
        return net, GenNum.constant(1, grid), samples, 40
    if name.startswith("delta"):
        b = int(name[-1])
        spec = make_mollifier(grid, rho, b_exponent=b, n_max=64)
        samples = [zero, GenNum.from_expr("rho^%d/2" % b, grid, rho),
                   GenNum.from_expr("-rho^%d/2" % b, grid, rho)]
        return (delta_derivative_net(spec, k_max=24),
                GenNum.from_expr("rho^%d" % b, grid, rho), samples, 16)
    coeffs = HpsCoefficients.from_expr("factorial(n)") \
        if name == "factorial(n)" else nowhere_analytic_coeffs()
    series = make_series(coeffs, zero, rho, sigma, grid)
    samples = [zero, GenNum.from_expr("rho^8", grid, rho)]
    return (DerivativeNet.from_series(series, k_max=40),
            GenNum.from_expr("rho^6", grid, rho), samples, 32)


class TestGrowthCheck:
    @pytest.mark.parametrize("name,status,witness,inv_r", GRAF_WITNESSES,
                             ids=[row[0] for row in GRAF_WITNESSES])
    def test_witness_table(self, name, status, witness, inv_r, grid, rho,
                           sigma):
        net, ball, samples, n_max = _growth_case(name, grid, rho, sigma)
        found = graf_check(net, GenNum.constant(0, grid), ball, n_max,
                           samples, rho, grid)
        assert found.verdict.status == status
        if witness is not None:
            assert tuple(str(found.verdict.witness[key]) for key in
                         ("q", "p", "lambda", "kappa")) == witness
        assert repr(found.inv_r_exponent) == inv_r

    def test_series_backed_geometric_passes(self, grid, rho, sigma):
        series = corpus.build_series("geometric", grid, rho, sigma)
        net = DerivativeNet.from_series(series, k_max=40)
        zero = GenNum.constant(0, grid)
        witness = graf_check(net, zero, GenNum.constant(Fraction(1, 2), grid),
                             32, [zero, GenNum.constant(Fraction(1, 4), grid)],
                             rho, grid)
        assert witness.verdict.passed
        assert abs(witness.inv_r_exponent) <= 0.2

    def test_sample_outside_ball_rejected(self, grid, rho):
        net = DerivativeNet.from_uniform_expr("exp(x)", grid, rho)
        zero = GenNum.constant(0, grid)
        with pytest.raises(ConfigError):
            graf_check(net, zero, GenNum.constant(Fraction(1, 2), grid), 16,
                       [GenNum.constant(Fraction(1, 2), grid)], rho, grid)

    def test_factorial_growth_fails(self, grid, rho, sigma):
        series = make_series(HpsCoefficients.from_expr("factorial(n)"),
                             GenNum.constant(0, grid), rho, sigma, grid)
        net = DerivativeNet.from_series(series, k_max=70)
        zero = GenNum.constant(0, grid)
        witness = graf_check(net, zero, GenNum.from_expr("rho^6", grid, rho),
                             64, [zero, GenNum.from_expr("rho^8", grid, rho)],
                             rho, grid)
        assert witness.verdict.failed
        assert witness.inv_r_exponent is None


class TestFlatPoint:
    def test_negligible_at_gauge_scales(self, grid, rho):
        deep = grid.with_tail_start(2)
        for power in ("1/2", "1", "2"):
            x = GenNum.from_expr("rho^(%s)" % power, grid, rho)
            verdict = is_negligible(flat_point_values(x, grid), rho, deep,
                                    q_max=4)
            assert verdict.passed

    def test_direct_value_at_one(self, grid):
        one = GenNum.constant(1, grid)
        values = flat_point_values(one, grid)
        with working_precision(grid.precision):
            assert abs(values.values[0] - mpmath.exp(-1)) <= mpf("1e-70")

    def test_negative_side_is_zero(self, grid):
        minus = GenNum.constant(-1, grid)
        assert all(v == 0 for v in flat_point_values(minus, grid).values)

    def test_combined_check(self, grid, rho):
        assert flat_point_check(grid, rho).passed


class TestNowhereAnalytic:
    def test_rejection(self, grid, rho):
        assert nowhere_analytic_reject(grid, rho).passed

    def test_lower_bound_family_not_weakly_moderate(self, grid, rho):
        verdict = check_weak_moderate(nowhere_analytic_coeffs(), rho, grid)
        assert verdict.failed

    def test_control_family_accepted(self, grid, rho, corpus_family):
        verdict = check_weak_moderate(corpus_family("exponential"), rho, grid)
        assert verdict.passed

import hashlib
import itertools
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mpf

from hyperseries import corpus, graf, series
from hyperseries.graf import (DerivativeNet, delta_derivative_net, graf_check,
                              make_mollifier)
from hyperseries.nets import (ConfigError, EpsGrid, Gauge, GenNum, HyperNat,
                              InvalidGaugeError, hypernat_from_expr,
                              is_moderate, ext_eq)
from hyperseries.numerics import (GUARD_BITS, as_mpf, leq_with_slack,
                                  working_precision)
from hyperseries.series import (_ROUNDED_MEMO_ENTRIES, RADIUS_WINDOW,
                                DivergentSeriesError, HpsCoefficients,
                                TableExhaustedError, _first_bound,
                                _rounded_reader, check_strong_eq,
                                check_weak_moderate, classify_radius,
                                coeff_accessor, coeff_rows, converges_at,
                                derivative_net_moderate, derived_coefficients,
                                eventually_bounded, hyperfinite_sum,
                                is_formal_hps, make_series, radius,
                                series_limit, table_window, weak_witness)


@pytest.fixture(scope="module")
def geometric(grid, rho, sigma):
    return corpus.build_series("geometric", grid, rho, sigma)


@pytest.fixture(scope="module")
def exponential(grid, rho, sigma):
    return corpus.build_series("exponential", grid, rho, sigma)


#: (family, status, Q, R, doubling_slopes) of check_weak_moderate at the
#: defaults (n_max 64, Q and R up to 8); "delta" is the corpus delta family.
WEAK_WITNESSES = [
    ("1", "pass", 0, 0, ["0.0", "0.0", "0.0", "0.0"]),
    ("2^n", "pass", 1, 0, ["0.1505149978319905976068694"] * 4),
    ("3^n*(n+1)", "pass", 1, 0,
     ["0.3163757523981955818983906", "0.2941161829153867742030695",
      "0.2754804069216931618770373", "0.2617648533756229629468156"]),
    ("rho^(-n)", "pass", 1, 0, ["1.0", "1.0", "1.0", "1.0"]),
    ("rho^((n+1)/eps)", "pass", 0, 0,
     ["-112.5", "-106.25", "-103.125", "-101.5625"]),
    ("factorial(n)", "fail", None, None,
     ["0.2878450327148418047865441", "0.4162693623056038886786304",
      "0.5534401835481234107182224", "0.6961204445104428045773747"]),
    ("exp(-2*n)*(4*n^2)^n/factorial(n)", "fail", None, None,
     ["0.4819804680378311484172826", "0.6545861341110502597389352",
      "0.8184453085325119329130821", "0.9767950432341737342676687"]),
    ("delta", "pass", 1, 1,
     ["1.063061739236449794822162", "0.9846772832377721189959585",
      "0.921555489218560300651419", "0.8708365956557458814412984"]),
]


class TestWeakModerate:
    @pytest.mark.parametrize("family,status,q,r,slopes", WEAK_WITNESSES,
                             ids=[row[0] for row in WEAK_WITNESSES])
    def test_witness_table(self, family, status, q, r, slopes, grid, rho,
                           env):
        coeffs = env.series("delta").coeffs if family == "delta" \
            else HpsCoefficients.from_expr(family)
        verdict = check_weak_moderate(coeffs, rho, grid)
        assert verdict.status == status
        found = verdict.witness if verdict.passed else verdict.counterexample
        assert found["doubling_slopes"] == slopes
        if verdict.passed:
            assert (verdict.witness["Q"], verdict.witness["R"]) == (q, r)

    def test_constant_family(self, grid, rho, corpus_family):
        verdict = check_weak_moderate(corpus_family("geometric"), rho, grid)
        assert verdict.passed and (verdict.witness["Q"],
                                   verdict.witness["R"]) == (0, 0)

    def test_factorial_family_rejected(self, grid, rho):
        verdict = check_weak_moderate(
            HpsCoefficients.from_expr("factorial(n)"), rho, grid)
        assert verdict.failed
        assert "slope" in verdict.notes

    def test_doubling_family(self, grid, rho, corpus_family):
        verdict = check_weak_moderate(corpus_family("doubling"), rho, grid)
        assert verdict.passed and verdict.witness["Q"] == 1

    def test_zero_class_family(self, grid, rho, corpus_family):
        verdict = check_weak_moderate(corpus_family("zero-class"), rho, grid)
        assert verdict.passed and (verdict.witness["Q"],
                                   verdict.witness["R"]) == (0, 0)

    def test_short_table_rejected(self, grid, rho):
        short = HpsCoefficients.from_column([Fraction(1)] * 10)
        with pytest.raises(ConfigError):
            check_weak_moderate(short, rho, grid, n_max=64)

    def test_witness_offset_grows(self, grid, rho):
        big = HpsCoefficients.from_expr("rho^(-1)")
        assert weak_witness(big, rho, grid) == (0, 1)


class TestStrongEq:
    def test_identical(self, grid, rho, corpus_family):
        ones = corpus_family("geometric")
        assert check_strong_eq(ones, ones, rho, grid, n_max=32).passed

    def test_strongly_negligible_perturbation(self, grid, rho, corpus_family):
        base = corpus_family("geometric")
        moved = HpsCoefficients.from_expr("1 + rho^((n+1)/eps)")
        assert check_strong_eq(base, moved, rho, grid, n_max=32).passed

    def test_negligible_perturbation_to_n_48(self, grid, rho):
        base = HpsCoefficients.from_expr("1")
        moved = HpsCoefficients.from_expr("1 + rho^((n+1)/eps)")
        assert check_strong_eq(base, moved, rho, grid, n_max=48).passed

    def test_plain_gauge_offset_fails(self, grid, rho, corpus_family):
        base = corpus_family("geometric")
        moved = HpsCoefficients.from_expr("1 + rho")
        verdict = check_strong_eq(base, moved, rho, grid, n_max=32)
        assert verdict.failed
        cell = verdict.counterexample
        # rho <= rho^(n q + r) already fails once n q + r exceeds 1
        assert cell["q"] * cell["n"] + cell["r"] >= 2


def _radius_digest(estimate):
    """sha256 of the r and limsup ``_mpf_`` tuples and the methods."""
    payload = repr(([v._mpf_ for v in estimate.r.values],
                    [v._mpf_ for v in estimate.limsup.values],
                    estimate.methods))
    return hashlib.sha256(payload.encode()).hexdigest()


#: (family, methods, digest) of ``radius`` on the decade grid at 256 bits
#: for families that leave the ratio path or end on it with a decay verdict;
#: the digests were recorded while every window cell was read eagerly.
RADIUS_BRANCHES = [
    ("(2+(-1)^n)^n", "window-max",
     "e242f0fd0e475d483e999ffced6d2c4c32efde594f9d1cb1f8fa9cc625a613c8"),
    ("exp(-sqrt(n))", "window-max",
     "659e2ba22361ca2efed8945db98db23c13184abc292b264a7dd90e41e7ab36c5"),
    ("1/factorial(n)", "ratio-decay",
     "52d76c8ff1c4ee17cf6796fed4203a3dc101160473703be3c6b57cc602e6add4"),
    ("zeros", "all-zero",
     "45d73d37d7808a1cd555c03ed78a68bd2376cd40e11cefa14fb526dedab4e6ab"),
]

#: Corpus family -> digest of ``radius`` on its table window at 128, 256
#: and 512 bits, recorded while every window cell was read eagerly.
CORPUS_RADIUS_DIGESTS = {
    "geometric": 3 * (
        "fae4bbab1b55fbce7625cdc021431c1df386f367cbdcdde1c3b50faa71bb55aa",),
    "doubling": 3 * (
        "b57444f01057a49224802cbebdbbd901035bda1608803c7b9c2c0cb9ffff859b",),
    "exponential": 3 * (
        "52d76c8ff1c4ee17cf6796fed4203a3dc101160473703be3c6b57cc602e6add4",),
    "zero-class": (
        "e6c84ab7e4ecbe71d5559904c24dc6635c5a5d32377322e6bc5846131baed158",
        "4081fc0dd72f643b7f3e25f539ef2d54bccf72ba80827b1bb28d496bb56a432a",
        "e0032bb1f9156e36415197cb4c343642f476781c8c0b74a6935737fc02ae13ef"),
    "delta": 3 * (
        "bcd52a0c7e5a6dce3cdd4e35040f98cea92f33dc870ef7cfda29c41d06513a47",),
}


def _counting_accessor(monkeypatch, reader="coeff_accessor"):
    """Route the reads of every ``series.<reader>`` (the exact
    :func:`coeff_accessor` or the :func:`_rounded_reader` over it) through a
    recorder; returns the list of (n, grid index) cells read, in order."""
    cells = []
    build = getattr(series, reader)

    def counting(coeffs, grid, rho):
        read = build(coeffs, grid, rho)

        def recorded(n, i):
            cells.append((n, i))
            return read(n, i)
        return recorded

    monkeypatch.setattr(series, reader, counting)
    return cells


class TestRadius:
    def test_geometric_exact(self, grid, rho, corpus_family):
        estimate = radius(corpus_family("geometric"), rho, grid)
        assert all(v == 1 for v in estimate.r.values)

    def test_doubling_exact(self, grid, rho, corpus_family):
        estimate = radius(corpus_family("doubling"), rho, grid)
        assert all(v == mpf("0.5") for v in estimate.r.values)

    def test_exponential_infinite(self, grid, rho, corpus_family):
        estimate = radius(corpus_family("exponential"), rho, grid)
        assert all(mpmath.isinf(v) for v in estimate.r.values)

    def test_zero_class_limsup(self, grid, rho, corpus_family):
        estimate = radius(corpus_family("zero-class"), rho, grid,
                          window=(16, 256))
        with working_precision(grid.precision + 16):
            for i, point in enumerate(grid.points):
                target = point ** (1 / point)
                rel = abs(estimate.limsup.values[i] - target) / target
                assert rel <= mpf("1e-30")

    def test_all_zero_rows(self, grid, rho):
        zeros = HpsCoefficients.from_column([Fraction(0)] * 301)
        estimate = radius(zeros, rho, grid)
        assert all(mpmath.isinf(v) for v in estimate.r.values)
        assert set(estimate.methods) == {"all-zero"}

    def test_window_validation(self, grid, rho, corpus_family):
        with pytest.raises(ConfigError):
            radius(corpus_family("geometric"), rho, grid, window=(16, 24))

    def test_positivity_from_witness(self, grid, rho, corpus_family):
        # weakly moderate coefficients keep the radius above rho^Q
        rho_values = rho.values_on(grid)
        for fam in (corpus_family("geometric"), corpus_family("doubling"),
                    corpus_family("exponential")):
            verdict = check_weak_moderate(fam, rho, grid)
            estimate = radius(fam, rho, grid)
            q = verdict.witness["Q"]
            for i in grid.tail:
                value = estimate.r.values[i]
                assert mpmath.isinf(value) or \
                    value >= rho_values[i] ** q * (1 - mpf(2) ** -200)

    @pytest.mark.parametrize("text", ["1/2^n", "2^n", "eps^n/(n+1)"])
    def test_ratio_path_reads_at_most_24_cells(self, text, grid, rho,
                                               monkeypatch):
        rounded = _counting_accessor(monkeypatch, "_rounded_reader")
        exact = _counting_accessor(monkeypatch)
        estimate = radius(HpsCoefficients.from_expr(text), rho, grid)
        assert set(estimate.methods) == {"ratio-extrapolation"}
        for i in range(len(grid)):
            assert 0 < len({n for n, j in rounded if j == i}) <= 24
            assert len([n for n, j in exact if j == i]) <= 24
        if text != "eps^n/(n+1)":
            # one rounding per n serves every grid point
            assert 0 < len(exact) <= 24

    @pytest.mark.parametrize("text,method,digest", RADIUS_BRANCHES,
                             ids=[row[0] for row in RADIUS_BRANCHES])
    def test_other_branches_unchanged(self, text, method, digest, rho):
        grid = EpsGrid.decades(precision=256)
        family = HpsCoefficients.from_column([Fraction(0)] * 257) \
            if text == "zeros" else HpsCoefficients.from_expr(text)
        estimate = radius(family, rho, grid)
        assert set(estimate.methods) == {method}
        assert _radius_digest(estimate) == digest

    @pytest.mark.parametrize("window,need", [((16, 256), 101),
                                             ((120, 256), 120)])
    def test_short_table_names_first_missing_index(self, window, need, grid,
                                                   rho, monkeypatch):
        cells = _counting_accessor(monkeypatch)
        table = HpsCoefficients.from_column([Fraction(1)] * 101)
        with pytest.raises(TableExhaustedError) as caught:
            radius(table, rho, grid, window=window)
        assert str(caught.value) == "table ends at n=100, need %d" % need
        assert not cells  # raised before any read

    @pytest.mark.parametrize("name", sorted(CORPUS_RADIUS_DIGESTS))
    @pytest.mark.parametrize("bits", [128, 256, 512])
    def test_corpus_values_at_every_precision(self, name, bits, rho,
                                              corpus_family):
        grid = EpsGrid.decades(precision=bits)
        if name == "delta":
            _, family = corpus.delta_setup(grid, rho)
        else:
            family = corpus_family(name)
        estimate = radius(family, rho, grid, table_window(family,
                                                          RADIUS_WINDOW))
        expected = CORPUS_RADIUS_DIGESTS[name][(128, 256, 512).index(bits)]
        assert _radius_digest(estimate) == expected


class TestClassify:
    def test_geometric_moderate(self, grid, rho, corpus_family):
        classification = classify_radius(
            radius(corpus_family("geometric"), rho, grid), rho, grid)
        assert set(classification.classes) == {"moderate"}
        assert classification.p_m == 0

    def test_exponential_beyond(self, grid, rho, corpus_family):
        classification = classify_radius(
            radius(corpus_family("exponential"), rho, grid), rho, grid)
        assert classification.all_beyond_tested_powers
        assert classification.p_m is None


class TestHyperfiniteSum:
    def test_geometric_identity(self, grid, rho, sigma, geometric):
        drho = GenNum.from_expr("rho", grid, rho)
        upper = hypernat_from_expr("1/eps", sigma, grid)
        sums = hyperfinite_sum(geometric, drho, upper)
        closed = GenNum.constant(1, grid) / (GenNum.constant(1, grid) - drho)
        assert ext_eq(sums, closed, rho, grid, q_max=6).passed

    def test_zero_upper_gives_head(self, grid, rho, sigma, exponential):
        upper = HyperNat(values=(0,) * len(grid), grid=grid)
        sums = hyperfinite_sum(exponential, GenNum.constant(1, grid), upper)
        assert all(v == 1 for v in sums.values)

    def test_exponential_partial_vs_e(self, grid, rho, sigma, exponential):
        upper = HyperNat(values=(30,) * len(grid), grid=grid)
        sums = hyperfinite_sum(exponential, GenNum.constant(1, grid), upper)
        with working_precision(grid.precision):
            err = abs(sums.values[0] - mpmath.e)
            assert err < mpf("1e-32")


class TestFormalHps:
    def test_geometric_at_half(self, grid, geometric):
        half = GenNum.constant(Fraction(1, 2), grid)
        assert is_formal_hps(geometric, half).passed

    def test_inverse_squares_at_two_with_tiny_gauge(self, rho):
        # summing 2^n/(n+1)^2 with truncation indices from a brutally small
        # companion gauge: block sums blow past every moderate bound
        small = EpsGrid.decades(1, 4)
        tiny = Gauge.from_text("exp(-exp(1/eps))", "sigma")
        fam = HpsCoefficients.from_expr("1/(n+1)^2")
        series = make_series(fam, GenNum.constant(0, small), rho, tiny, small)
        two = GenNum.constant(2, small)
        assert is_formal_hps(series, two).failed

    def test_exponential_at_log_scale(self, grid, rho, exponential):
        x = GenNum.from_expr("-log(rho)", grid, rho)
        assert is_formal_hps(exponential, x).passed


class TestSeriesLimit:
    def test_geometric_closed_form(self, grid, geometric):
        half = GenNum.constant(Fraction(1, 2), grid)
        limit = series_limit(geometric, half, q_target=8)
        with working_precision(grid.precision):
            for i in grid.tail:
                assert abs(limit.values[i] - 2) <= grid.points[i] ** 4

    def test_exponential_at_log_scale(self, grid, rho, exponential):
        x = GenNum.from_expr("-log(rho)", grid, rho)
        limit = series_limit(exponential, x, q_target=30)
        with working_precision(grid.precision):
            for i in range(len(grid)):
                target = 1 / grid.points[i]
                assert abs(limit.values[i] - target) / target <= mpf("1e-20")

    def test_divergent_at_one(self, grid, geometric):
        with pytest.raises(DivergentSeriesError):
            series_limit(geometric, GenNum.constant(1, grid), n_cap=5000)


class TestDerivativeNets:
    def test_geometric_derivatives_at_half(self, grid, rho, sigma, geometric):
        half = GenNum.constant(Fraction(1, 2), grid)
        verdict = derivative_net_moderate(geometric, half, q_target=6)
        assert verdict.passed
        # closed form: k-th derivative value is k! / (1-x)^(k+1)
        with working_precision(grid.precision):
            for k in (1, 2, 3):
                derived = make_series(derived_coefficients(geometric.coeffs, k),
                                      geometric.center, rho, sigma, grid)
                values = series_limit(derived, half, q_target=40)
                expected = mpmath.factorial(k) * 2 ** (k + 1)
                assert abs(values.values[0] - expected) <= mpf("1e-35")

    def test_geometric_near_boundary_small_grid(self, rho, sigma):
        # at x = 1 - rho the first derivative net is exactly 1/rho^2
        small = EpsGrid.decades(1, 2, tail_start=0)
        series = corpus.build_series("geometric", small, rho, sigma)
        x = GenNum.from_expr("1 - rho", small, rho)
        derived = make_series(derived_coefficients(series.coeffs, 1),
                              series.center, rho, sigma, small)
        values = series_limit(derived, x, q_target=8, n_cap=10 ** 6)
        verdict = is_moderate(values, rho, small, n_max=4)
        assert verdict.passed and verdict.witness["N"] == 2


class TestConvergesAt:
    def test_geometric_at_half(self, geometric, grid):
        half = GenNum.constant(Fraction(1, 2), grid)
        report = converges_at(geometric, half)
        assert report.overall.passed

    def test_exponential_split(self, exponential, grid, rho):
        good = converges_at(exponential,
                            GenNum.from_expr("-log(rho)", grid, rho))
        assert good.overall.passed
        bad = converges_at(exponential,
                           GenNum.from_expr("rho^(-1)", grid, rho))
        assert bad.overall.failed and bad.cond_limit.failed

    def test_report_conjunction(self, geometric, grid):
        half = GenNum.constant(Fraction(1, 2), grid)
        report = converges_at(geometric, half)
        parts = [report.cond_radius, report.cond_formal, report.cond_limit,
                 report.cond_derivs]
        assert report.overall.passed == all(p.passed for p in parts)


class TestMakeSeries:
    def test_invalid_sigma_rejected(self, grid, rho, corpus_family):
        with pytest.raises(InvalidGaugeError):
            make_series(corpus_family("geometric"), GenNum.constant(0, grid),
                        rho, Gauge.from_text("1/eps", "sigma"), grid)

    def test_immoderate_center_rejected(self, grid, rho, sigma, corpus_family):
        with pytest.raises(ConfigError):
            make_series(corpus_family("geometric"),
                        GenNum.from_expr("rho^(-(1/eps))", grid, rho), rho,
                        sigma, grid)


class TestEventuallyBounded:
    def test_geometric_at_half(self, geometric, grid):
        half = GenNum.constant(Fraction(1, 2), grid)
        report = eventually_bounded(geometric, half)
        assert report.verdict.passed and report.n_start == 0

    def test_delta_inside_scale(self, grid, rho, sigma, env):
        series = env.series("delta")
        drho = GenNum.from_expr("rho", grid, rho)
        report = eventually_bounded(series, drho)
        assert report.verdict.passed
        witness = report.verdict.witness
        assert (witness["p"], witness["kappa"]) == (1, 1)  # bound is b itself

    def test_delta_outside_scale_fails(self, grid, rho, sigma, env):
        series = env.series("delta")
        one = GenNum.constant(Fraction(1, 2), grid)
        report = eventually_bounded(series, one)
        assert report.verdict.failed


class TestSharpBoundOfSummands:
    def test_summands_moderate_where_membership_holds(self, grid, rho, sigma,
                                                      geometric, exponential):
        # once membership passes, the summand at any sampled hypernatural
        # index is a moderate net
        from hyperseries.nets import sigma_ladder
        cases = [(geometric, GenNum.constant(Fraction(1, 2), grid)),
                 (exponential, GenNum.from_expr("-log(rho)", grid, rho))]
        for series, x in cases:
            assert converges_at(series, x).overall.passed
            acc = coeff_accessor(series.coeffs, grid, series.rho)
            for rung in sigma_ladder(series.sigma, grid, js=(1, 2)):
                with working_precision(grid.precision):
                    values = []
                    for i in range(len(grid)):
                        n = rung.values[i]
                        y = as_mpf(x.values[i], grid.precision) - \
                            as_mpf(series.center.values[i], grid.precision)
                        values.append(as_mpf(acc(n, i), grid.precision)
                                      * y ** n)
                term_net = GenNum(values=tuple(values), grid=grid)
                assert is_moderate(term_net, rho, grid).passed


class TestBallGuarantee:
    """The ball rho^Q of guaranteed eventual boundedness, with Q read from
    :func:`weak_witness`."""

    def test_needs_witness(self, grid, rho):
        assert weak_witness(HpsCoefficients.from_expr("factorial(n)"), rho,
                            grid) is None

    def test_short_table_needs_witness(self, grid, rho):
        table = HpsCoefficients.from_column([1, 1, 1, 1])
        assert weak_witness(table, rho, grid) is None

    def test_witness_follows_the_grid(self, grid, rho, corpus_family):
        """A family witnessed on one grid has another grid's witness there:
        2^n is (1, 0) on the decades, (3, 7) on 0.9..0.5."""
        doubling = corpus_family("doubling")
        assert weak_witness(doubling, rho, grid) == (1, 0)
        with working_precision(grid.precision):
            points = tuple(mpf(k) / 10 for k in (9, 8, 7, 6, 5))
        coarse = EpsGrid(points=points, precision=grid.precision)
        assert weak_witness(doubling, rho, coarse) == (3, 7)

    def test_geometric_ball_is_one(self, grid, rho, geometric):
        assert weak_witness(geometric.coeffs, rho, grid)[0] == 0

    def test_bound_holds_on_the_ball(self, grid, rho, sigma, geometric):
        q = weak_witness(geometric.coeffs, rho, grid)[0]
        with working_precision(grid.precision):
            ball = tuple(r ** q for r in rho.values_on(grid))
        report = eventually_bounded(geometric, GenNum(values=ball, grid=grid))
        assert report.verdict.passed

    def test_delta_ball_is_drho(self, grid, rho, env):
        assert weak_witness(env.series("delta").coeffs, rho, grid)[0] == 1


class TestCoefficientRows:
    def test_from_column_shares_equal_exact_rows(self):
        family = HpsCoefficients.from_column(
            [(Fraction(1), 1, Fraction(1)), (mpf(1), mpf(1), mpf(1)),
             (Fraction(1), Fraction(2), Fraction(1)), Fraction(3)])
        assert family.rows == (Fraction(1), (mpf(1), mpf(1), mpf(1)),
                               (Fraction(1), Fraction(2), Fraction(1)),
                               Fraction(3))

    def test_coeff_rows_forms(self, grid, rho):
        table = HpsCoefficients.from_column(
            [Fraction(1), tuple(Fraction(i) for i in range(len(grid)))])
        assert coeff_rows(table, grid, rho, 1) == table.rows
        with pytest.raises(TableExhaustedError):
            coeff_rows(table, grid, rho, 2)
        for text in ("1/2^n", "log(n+2)", "eps^n/(n+1)"):
            family = HpsCoefficients.from_expr(text)
            rows = coeff_rows(family, grid, rho, 12)
            acc = coeff_accessor(family, grid, rho)
            assert len(rows) == 13
            assert all(isinstance(row, tuple) == (text == "eps^n/(n+1)")
                       for row in rows)
            assert all((row[i] if isinstance(row, tuple) else row)
                       == acc(n, i)
                       for n, row in enumerate(rows)
                       for i in range(len(grid)))
            assert family.materialize(12, grid, rho).rows == rows

    def test_truncated_expression_ends_like_its_table(self, grid, rho, sigma):
        truncated = HpsCoefficients.from_expr("1", n_max=10)
        table = HpsCoefficients.from_column([Fraction(1)] * 11)
        assert coeff_rows(truncated, grid, rho, 10) == table.rows
        with pytest.raises(TableExhaustedError):
            coeff_rows(truncated, grid, rho, 11)
        zero = GenNum.constant(0, grid)
        half = GenNum.constant(Fraction(1, 2), grid)
        for family in (truncated, table):
            series = make_series(family, zero, rho, sigma, grid)
            with pytest.raises(DivergentSeriesError):
                series_limit(series, half)


def _fresh(family):
    """The same family as a new object, with empty memos."""
    return HpsCoefficients(expr=family.expr, rows=family.rows,
                           n_max=family.n_max)


def _radius_and_limit(family, rho, sigma, grid):
    """The ``_mpf_`` of the radius and of the series limit at x = 1/2."""
    center = GenNum.constant(0, grid)
    limit = series_limit(make_series(family, center, rho, sigma, grid),
                         GenNum.constant(Fraction(1, 2), grid))
    return ([v._mpf_ for v in radius(family, rho, grid).r.values],
            [v._mpf_ for v in limit.values])


class TestCoefficientMemo:
    """A family object reused on another grid, gauge or precision must not
    return the values memoized for the first one, and a memoized rounding
    must equal a fresh one."""

    @pytest.mark.parametrize("name", sorted(corpus.EXPR_FAMILIES)
                             + ["delta", "eps^n/(n+1)"])
    def test_rounded_reader_rounds_as_as_mpf(self, name, rho, env):
        if name == "delta":
            family = env.series("delta").coeffs
        else:
            family = HpsCoefficients.from_expr(
                corpus.EXPR_FAMILIES.get(name, name))
        # every precision reads the same family object
        for bits in (128, 256, 512):
            grid = EpsGrid.decades(precision=bits)
            read = _rounded_reader(family, grid, rho)
            exact = coeff_accessor(_fresh(family), grid, rho)
            ns = [n for n in (0, 511, 512, 513, 4096, 10 ** 6,
                              family.n_max) if n is not None
                  and n <= family.bound_or(n)]
            for _ in range(2):  # a first read, then a memoized one
                for n in ns:
                    for i in range(len(grid)):
                        assert read(n, i)._mpf_ == \
                            as_mpf(exact(n, i), bits)._mpf_, (n, i, bits)

    def test_reader_is_freed_without_the_cycle_collector(self, grid, rho):
        # a reader inside a reference cycle keeps its memo alive until the
        # cyclic collector runs, which raises peak memory under load
        import gc
        import weakref
        for family in (HpsCoefficients.from_expr("1/2^n"),
                       HpsCoefficients.from_expr("eps^n"),
                       HpsCoefficients.from_column([Fraction(1)] * 4)):
            for build, i in ((coeff_accessor, None), (_rounded_reader, 1)):
                read = build(family, grid, rho)
                read(3, i)
                ref = weakref.ref(read)
                gc.disable()
                try:
                    del read
                    assert ref() is None
                finally:
                    gc.enable()

    def test_rounded_memo_is_bounded(self, grid, rho):
        family = HpsCoefficients.from_expr("1/2^n")
        read = _rounded_reader(family, grid, rho)
        top = _ROUNDED_MEMO_ENTRIES + 100
        for n in range(top + 1):
            read(n, n % len(grid))
        assert len(family._cache[("rounded", grid.precision)]) \
            == _ROUNDED_MEMO_ENTRIES
        exact = coeff_accessor(_fresh(family), grid, rho)
        for n in (0, _ROUNDED_MEMO_ENTRIES - 1, _ROUNDED_MEMO_ENTRIES, top,
                  top + 1):
            for i in (0, len(grid) - 1):
                assert read(n, i)._mpf_ == \
                    as_mpf(exact(n, i), grid.precision)._mpf_
        assert len(family._cache[("rounded", grid.precision)]) \
            == _ROUNDED_MEMO_ENTRIES

    def test_family_reused_on_another_grid(self, rho, sigma):
        family = HpsCoefficients.from_expr("eps^n")
        _radius_and_limit(family, rho, sigma, EpsGrid.decades(1, 8))
        for shifted in (EpsGrid.decades(2, 9),
                        EpsGrid.decades(2, 9, precision=512)):
            assert _radius_and_limit(family, rho, sigma, shifted) == \
                _radius_and_limit(_fresh(family), rho, sigma, shifted)

    def test_family_reused_under_another_gauge(self, grid, rho, sigma):
        family = HpsCoefficients.from_expr("rho^n")
        _radius_and_limit(family, rho, sigma, grid)
        squared = Gauge.from_text("eps^2", "rho")
        for other in (grid, EpsGrid.decades(precision=512)):
            assert _radius_and_limit(family, squared, sigma, other) == \
                _radius_and_limit(_fresh(family), squared, sigma, other)

    def test_second_limit_reads_no_exact_cell(self, rho, sigma, monkeypatch):
        grid = EpsGrid.decades(precision=256)
        family = HpsCoefficients.from_expr("(5/2)^n*(n+1)^2")
        hps = make_series(family, GenNum.constant(0, grid), rho, sigma, grid)
        x = GenNum.constant(Fraction(1, 5), grid)
        cells = _counting_accessor(monkeypatch)
        first = series_limit(hps, x)
        assert cells
        del cells[:]
        second = series_limit(hps, x)
        assert not cells  # every cell came from the rounded memo
        assert [v._mpf_ for v in second.values] == \
            [v._mpf_ for v in first.values]


# ---------------------------------------------------------------------------
# The float screen of the witness-lattice search
# ---------------------------------------------------------------------------


def _exhaustive_first_bound(magnitudes, tail, rho_values, bits, lattice,
                            factorials=None):
    """The first lattice point whose bound holds at every cell, each point
    tested exactly (the running product and the ``leq_with_slack`` rule at
    ``bits + GUARD_BITS``) and none screened."""
    with working_precision(bits + GUARD_BITS):
        factor = 1 + mpf(2) ** (32 - bits)
        for point in lattice:
            q, p, lam, kappa = (as_mpf(v, bits) for v in point)

            def cells():
                for j, i in enumerate(tail):
                    geometric = lam ** -1 * rho_values[i] ** -q
                    bound = kappa * rho_values[i] ** -p
                    for n, samples in enumerate(magnitudes):
                        limit = bound if factorials is None \
                            else bound * factorials[n]
                        for sample in samples:
                            yield +sample[j] <= limit * factor
                        bound = bound * geometric

            if all(cells()):
                return point
    return None


def _recorded_searches(monkeypatch, module, run):
    """Run ``run()`` and return (result, arguments) of every
    ``_first_bound`` call that ``module`` makes."""
    calls = []

    def record(magnitudes, tail, rho_values, bits, lattice, factorials=None):
        args = (magnitudes, tail, rho_values, bits, list(lattice), factorials)
        calls.append((_first_bound(*args), args))
        return calls[-1][0]

    monkeypatch.setattr(module, "_first_bound", record)
    run()
    assert calls
    return calls


def _graf_net(name, grid, rho, sigma):
    """(net, ball, samples, n_max) of a net that passes ``graf_check``."""
    bits = grid.precision
    zero = GenNum.constant(0, grid)
    if name.startswith("exp"):
        a = int(name[-1])

        def evaluate(k, x):  # the k-th derivative of exp(a x)
            with working_precision(bits):
                return GenNum(values=tuple(
                    mpf(a) ** k * mpmath.exp(a * as_mpf(v, bits))
                    for v in x.values), grid=grid)

        samples = [GenNum.constant(Fraction(k, 10), grid) for k in (-5, 0, 5)]
        return (DerivativeNet(evaluator=evaluate, k_max=40),
                GenNum.constant(1, grid), samples, 40)
    if name.startswith("delta"):
        b = int(name[-1])
        spec = make_mollifier(grid, rho, b_exponent=b, n_max=48)
        samples = [zero, GenNum.from_expr("rho^%d/2" % b, grid, rho),
                   GenNum.from_expr("-rho^%d/2" % b, grid, rho)]
        return (delta_derivative_net(spec, k_max=16),
                GenNum.from_expr("rho^%d" % b, grid, rho), samples, 16)
    geometric = corpus.build_series("geometric", grid, rho, sigma)
    return (DerivativeNet.from_series(geometric, k_max=12),
            GenNum.constant(Fraction(1, 2), grid),
            [zero, GenNum.constant(Fraction(1, 4), grid)], 12)


#: The lattice the random cases draw their points from, in the order of
#: ``(q, p, lam, kappa)``.
_SCREEN_LATTICE = list(itertools.product(
    (0, Fraction(1, 2), 1, 2), (0, 1, 2), (Fraction(1, 2), 1, 2),
    (Fraction(1, 4), 1, 4)))
#: Multiples of the slack ``2^(32-bits)`` a magnitude may sit at, above the
#: bound of the anchor point.
_TIES = (-1, 0, Fraction(1, 2), 1, 2)


@st.composite
def _screen_cases(draw):
    """(magnitudes, tail, rho_values, bits, lattice, factorials) with
    magnitudes log-uniform around the bound of one lattice point, the
    anchor, and some of them at or next to it."""
    bits = draw(st.sampled_from((64, 128, 256)))
    slots = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 6))
    samples = draw(st.integers(1, 2))
    lattice = draw(st.lists(st.sampled_from(_SCREEN_LATTICE), min_size=1,
                            max_size=40, unique=True))
    q, p, lam, kappa = draw(st.sampled_from(lattice))
    prec = bits + GUARD_BITS
    with working_precision(prec + 64):
        rho_values = tuple(mpf(2) ** -draw(st.integers(1, 6))
                           for _ in range(slots))
        factorials = [mpmath.factorial(n) for n in range(rows)] \
            if draw(st.booleans()) else None
        slack = mpf(2) ** (32 - bits)
        magnitudes = []
        for n in range(rows):
            row = []
            for _ in range(samples):
                cells = []
                for r in rho_values:
                    anchor = as_mpf(kappa, prec) * r ** -as_mpf(p, prec) \
                        * (as_mpf(lam, prec) * r ** as_mpf(q, prec)) ** -n
                    if factorials is not None:
                        anchor *= factorials[n]
                    kind = draw(st.sampled_from(("zero", "tie", "spread")))
                    if kind == "zero":
                        cells.append(mpf(0))
                    elif kind == "tie":
                        t = as_mpf(draw(st.sampled_from(_TIES)), prec)
                        cells.append(anchor * (1 + t * slack))
                    else:
                        u = mpf(draw(st.floats(-12, 2)))
                        cells.append(anchor * mpf(2) ** u)
                row.append(cells)
            magnitudes.append(row)
    return magnitudes, range(slots), rho_values, bits, lattice, factorials


class TestLatticeScreen:
    """``_first_bound`` screens the lattice in float64 and certifies the
    points it cannot rule out exactly; its answer must be the exhaustive
    exact search's."""

    @pytest.mark.parametrize("bits", (128, 256, 512))
    @pytest.mark.parametrize("name", ("exp1", "exp2", "delta1", "delta2",
                                      "geometric"))
    def test_graf_lattice_matches_exhaustive(self, name, bits, rho, sigma,
                                             monkeypatch):
        grid = EpsGrid.decades(precision=bits)
        net, ball, samples, n_max = _graf_net(name, grid, rho, sigma)
        calls = _recorded_searches(monkeypatch, graf, lambda: graf_check(
            net, GenNum.constant(0, grid), ball, n_max, samples, rho, grid))
        for found, args in calls:
            assert found is not None
            assert found == _exhaustive_first_bound(*args)

    @pytest.mark.parametrize("bits", (128, 256, 512))
    @pytest.mark.parametrize("family", ("1", "2^n", "3^n*(n+1)", "rho^(-n)"))
    def test_weak_lattice_matches_exhaustive(self, family, bits, rho,
                                             monkeypatch):
        grid = EpsGrid.decades(precision=bits)
        coeffs = HpsCoefficients.from_expr(family)
        calls = _recorded_searches(monkeypatch, series, lambda:
                                   check_weak_moderate(coeffs, rho, grid))
        for found, args in calls:
            assert found is not None
            assert found == _exhaustive_first_bound(*args)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_near_tie_is_certified_not_screened(self, bits, monkeypatch):
        # rho = 1/2 makes every bound 2^-(...) exact; |a_n| = 2^n / 2 rules
        # out the points before (1, 0), whose bound 2^n the cell n = 5 meets
        # up to a factor 1 + t
        lattice = [(q, r, 1, 1) for q in range(3) for r in range(3)]
        with working_precision(bits + GUARD_BITS + 64):
            slack = mpf(2) ** (32 - bits)

            def magnitudes(t):
                return [((mpf(2) ** n * (1 + t) if n == 5
                           else mpf(2) ** n / 2,),) for n in range(9)]

            inside, outside = magnitudes(slack / 2), magnitudes(4 * slack)
        compared = []

        def counting(a, b, bits):
            compared.append(a)
            return leq_with_slack(a, b, bits)

        monkeypatch.setattr(series, "leq_with_slack", counting)
        rho_values = (mpf(1) / 2,)
        assert _first_bound(inside, [0], rho_values, bits, lattice) \
            == (1, 0, 1, 1)
        # only (1, 0) reaches the exact comparisons, and it holds at all 9
        assert len(compared) == 9
        assert _first_bound(outside, [0], rho_values, bits, lattice) \
            == (1, 1, 1, 1)
        for case in (inside, outside):
            assert _first_bound(case, [0], rho_values, bits, lattice) \
                == _exhaustive_first_bound(case, [0], rho_values, bits,
                                           lattice)

    @given(_screen_cases())
    def test_random_magnitudes_match_exhaustive(self, case):
        assert _first_bound(*case) == _exhaustive_first_bound(*case)

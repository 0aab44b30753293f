"""The one tail-bound comparison and the predicates that go through it."""

from fractions import Fraction

import pytest
from mpmath import mpf

from hyperseries.nets import (EpsGrid, Gauge, GenNum, NotHypernaturalError,
                              ext_eq, gauge_le_star, hypernat_from_expr,
                              is_moderate, is_negligible)
from hyperseries.numerics import leq_with_slack, tail_exceeds, working_precision
from hyperseries.series import HpsCoefficients, classify_radius, radius


class TestTailExceeds:
    """Contract of ``numerics.tail_exceeds`` at 256 bits."""

    BITS = 256

    def rho(self, *values):
        with working_precision(self.BITS):
            return [mpf(v) for v in values]

    def band(self, factor):
        """A value ``factor`` slack widths above the bound 1."""
        with working_precision(self.BITS + 64):
            return 1 + factor * mpf(2) ** (32 - self.BITS)

    def test_exact_tie_holds(self):
        rho = self.rho("0.1", "0.01")
        with working_precision(self.BITS):
            values = [r ** 3 for r in rho]
            negated = [-v for v in values]
        assert tail_exceeds(values, rho, range(2), 3, self.BITS) is None
        assert tail_exceeds(negated, rho, range(2), 3, self.BITS) is None

    def test_slack_band_edges(self):
        rho = self.rho(1)
        inside, outside = self.band(mpf("0.75")), self.band(mpf("1.5"))
        assert tail_exceeds([inside], rho, [0], 5, self.BITS) is None
        assert tail_exceeds([outside], rho, [0], 5, self.BITS) == 0
        for value in (inside, outside):
            assert (tail_exceeds([value], rho, [0], 1, self.BITS) is None) \
                == leq_with_slack(value, 1, self.BITS)

    def test_zero_bound(self):
        rho = self.rho(0, 0)
        assert tail_exceeds([0, 0], rho, range(2), 2, self.BITS) is None
        assert tail_exceeds([0, mpf(2) ** -2000], rho, range(2), 2,
                            self.BITS) == 1

    def test_infinite_value_exceeds(self):
        rho = self.rho("0.5", "0.25")
        assert tail_exceeds([0, mpf("inf")], rho, range(2), -8, self.BITS) == 1

    def test_first_failing_cell_of_the_given_cells(self):
        rho = self.rho("0.1", "0.01", "0.001", "0.0001")
        values = [-1, 1, Fraction(1, 10 ** 5), Fraction(1, 10 ** 5)]
        # exponent 1: cells 0 and 1 fail (on the magnitude), cells 2 and 3 hold
        assert tail_exceeds(values, rho, range(4), 1, self.BITS) == 0
        assert tail_exceeds(values, rho, range(1, 4), 1, self.BITS) == 1
        assert tail_exceeds(values, rho, (3, 2), 1, self.BITS) is None
        # exponent 2: cells 2 and 3 both fail; the order of cells decides
        assert tail_exceeds(values, rho, (2, 3), 2, self.BITS) == 2
        assert tail_exceeds(values, rho, (3, 2), 2, self.BITS) == 3

    def test_fraction_exponent(self):
        rho = self.rho("0.0001")
        values = self.rho("0.1")
        assert tail_exceeds(values, rho, [0], Fraction(1, 4), self.BITS) is None
        assert tail_exceeds(values, rho, [0], Fraction(1, 2), self.BITS) == 0


MODERATE_NETS = ("rho^(-2)", "rho^(-(1/eps))", "1", "0", "1/3", "rho^(-8)",
                 "2*rho^(-8)", "log(1/eps)", "exp(1/eps)")
NEGLIGIBLE_NETS = ("rho^3", "rho^(1/eps)", "0", "exp(-1/eps)", "rho", "1",
                   "1/3", "rho^(-1)",
                   # wrong: plateaus of 6 or more pass at q_max=6, although
                   # a bounded exponent is never negligible
                   "rho^6", "rho^7", "eps^7*log(1/eps)")
EXT_EQ_PAIRS = (("rho", "rho + rho^(1/eps)"), ("rho", "rho + rho^2"),
                # wrong: passes for the same plateau reason
                ("rho", "rho + rho^7"))
GAUGES = ("eps", "eps^2", "eps * sqrt(sqrt(eps))", "eps^(3/2)",
          "eps^(1/8)", "exp(-1/eps)")
HYPERNATS = ("1/eps", "0", "eps^(-2) + 5", "eps^(-8)", "eps^(-9)")
RADIUS_FAMILIES = ("1", "2^n", "1/factorial(n)", "rho^n", "rho^(3*n)",
                   "rho^(n*log(1/eps))", "rho^(10*n)")


def _verdict(v):
    cell = v.counterexample.get("grid_index") if v.counterexample else None
    return (v.status, v.witness, cell, v.notes)


def _hypernat(text, sigma, grid):
    try:
        upper = hypernat_from_expr(text, sigma, grid)
    except NotHypernaturalError:
        return "not hypernatural"
    return upper.sigma_witness


def _observe(bits):
    grid = EpsGrid.decades(1, 8, precision=bits)
    small = EpsGrid.decades(1, 4, precision=bits)
    rho = Gauge.from_text("eps")
    out = {}
    for text in MODERATE_NETS:
        x = GenNum.from_expr(text, grid, rho)
        out["moderate", text] = _verdict(is_moderate(x, rho, grid))
    for text in NEGLIGIBLE_NETS:
        x = GenNum.from_expr(text, grid, rho)
        out["negligible", text] = _verdict(is_negligible(x, rho, grid))
    for left, right in EXT_EQ_PAIRS:
        out["ext_eq", left + " = " + right] = _verdict(ext_eq(
            GenNum.from_expr(left, grid, rho),
            GenNum.from_expr(right, grid, rho), rho, grid))
    for text in GAUGES:
        v = gauge_le_star(Gauge.from_text(text, "sigma"), rho, grid)
        out["gauge_le_star", text] = _verdict(v)
    v = gauge_le_star(Gauge.from_text("exp(-exp(1/eps))", "sigma"), rho,
                      small)
    out["gauge_le_star", "exp(-exp(1/eps)) on 4 points"] = _verdict(v)
    for text in HYPERNATS:
        out["hypernat", text] = _hypernat(text, rho, grid)
    out["hypernat", "exp(1/eps) on 4 points"] = _hypernat("exp(1/eps)", rho,
                                                          small)
    for text in RADIUS_FAMILIES:
        c = classify_radius(radius(HpsCoefficients.from_expr(text), rho,
                                   grid, window=(16, 64)), rho, grid)
        out["classify", text] = (c.classes, c.p_m,
                                 tuple(c.subsets[p] for p in range(9)))
    return out


_ALL = tuple(range(8))
_MODERATE = ("moderate",) * 8
_SINKS = "exponent sinks along the tail; no N can work"
_BOUNDED = "; bounded exponent: moderate, non-negligible"
_SATURATED = "Q saturated the lattice: sigma below every tested power of rho"

#: Recorded before the predicates shared one comparison; the same at 128,
#: 256 and 512 bits.
_EXPECTED = {
    ("moderate", "rho^(-2)"): ("pass", {"N": 2}, None, ""),
    ("moderate", "rho^(-(1/eps))"): ("fail", None, 7, _SINKS),
    ("moderate", "1"): ("pass", {"N": 0}, None, ""),
    ("moderate", "0"): ("pass", {"N": 0}, None, ""),
    ("moderate", "1/3"): ("pass", {"N": 0}, None, ""),
    ("moderate", "rho^(-8)"): ("pass", {"N": 8}, None, ""),
    ("moderate", "2*rho^(-8)"): (
        "inconclusive", None, None,
        "n_max=8 exceeded but exponent trend is not sinking"),
    ("moderate", "log(1/eps)"): ("pass", {"N": 1}, None, ""),
    ("moderate", "exp(1/eps)"): ("fail", None, 7, _SINKS),
    ("negligible", "rho^3"): (
        "inconclusive", None, None, "verified q=3 of q_max=6" + _BOUNDED),
    ("negligible", "rho^(1/eps)"): ("pass", {"q": 6}, None, ""),
    ("negligible", "0"): ("pass", {"q": 6}, None, ""),
    ("negligible", "exp(-1/eps)"): ("pass", {"q": 6}, None, ""),
    ("negligible", "rho"): (
        "inconclusive", None, None, "verified q=1 of q_max=6" + _BOUNDED),
    ("negligible", "1"): (
        "inconclusive", None, None, "verified q=0 of q_max=6"),
    ("negligible", "1/3"): (
        "inconclusive", None, None, "verified q=0 of q_max=6"),
    ("negligible", "rho^(-1)"): (
        "inconclusive", None, None, "verified q=0 of q_max=6"),
    # wrong: none of these three is negligible
    ("negligible", "rho^6"): ("pass", {"q": 6}, None, ""),
    ("negligible", "rho^7"): ("pass", {"q": 6}, None, ""),
    ("negligible", "eps^7*log(1/eps)"): ("pass", {"q": 6}, None, ""),
    ("ext_eq", "rho = rho + rho^(1/eps)"): ("pass", {"q": 6}, None, ""),
    ("ext_eq", "rho = rho + rho^2"): (
        "inconclusive", None, None, "verified q=2 of q_max=6" + _BOUNDED),
    # wrong: the difference rho^7 is not negligible
    ("ext_eq", "rho = rho + rho^7"): ("pass", {"q": 6}, None, ""),
    ("gauge_le_star", "eps"): ("pass", {"Q": Fraction(1)}, None, ""),
    ("gauge_le_star", "eps^2"): ("pass", {"Q": Fraction(2)}, None, ""),
    ("gauge_le_star", "eps * sqrt(sqrt(eps))"): (
        "pass", {"Q": Fraction(5, 4)}, None, ""),
    ("gauge_le_star", "eps^(3/2)"): ("pass", {"Q": Fraction(3, 2)}, None, ""),
    ("gauge_le_star", "eps^(1/8)"): (
        "fail", None, 1, "sigma exceeds rho^(1/4) on the tail"),
    ("gauge_le_star", "exp(-1/eps)"): (
        "pass", {"Q": Fraction(8)}, None, _SATURATED),
    ("gauge_le_star", "exp(-exp(1/eps)) on 4 points"): (
        "pass", {"Q": Fraction(8)}, None, _SATURATED),
    ("hypernat", "1/eps"): 1,
    ("hypernat", "0"): 0,
    ("hypernat", "eps^(-2) + 5"): 3,
    ("hypernat", "eps^(-8)"): 8,
    ("hypernat", "eps^(-9)"): "not hypernatural",
    ("hypernat", "exp(1/eps) on 4 points"): "not hypernatural",
    ("classify", "1"): (_MODERATE, 0, (_ALL,) * 9),
    ("classify", "2^n"): (_MODERATE, 0, (_ALL,) * 9),
    ("classify", "1/factorial(n)"): (("infinite",) * 8, None, ((),) * 9),
    ("classify", "rho^n"): (_MODERATE, 1, ((),) + (_ALL,) * 8),
    ("classify", "rho^(3*n)"): (_MODERATE, 3, ((),) * 3 + (_ALL,) * 6),
    ("classify", "rho^(n*log(1/eps))"): (
        ("moderate",) * 3 + ("beyond",) * 5, 5,
        ((), (), (), (0,), (0,), (0, 1), (0, 1), (0, 1, 2), (0, 1, 2))),
    ("classify", "rho^(10*n)"): (("beyond",) * 8, None, ((),) * 9),
}


@pytest.mark.parametrize("bits", (128, 256, 512))
def test_predicate_table(bits):
    assert _observe(bits) == _EXPECTED

"""Stop decisions of the summation kernel, pinned case by case.

Each case sums one family at one point on a three-point decade grid, in
block mode (no target) or limit mode (target rho^q), and pins per grid
point the stop status, the last index summed and the value.  ``None``
marks a block sum whose table runs out with no tiny run under way: the
kernel raises ``TableExhaustedError`` there.
"""

from fractions import Fraction

import pytest

from hyperseries.nets import EpsGrid, Gauge, GenNum
from hyperseries.numerics import decimal_str, working_precision
from hyperseries.series import (HpsCoefficients, TableExhaustedError,
                                _summation, make_series)

GRID = EpsGrid.decades(1, 3)
RHO = Gauge.from_text("eps", "rho")

# (case, family, x, mode, n_start, n_stop (the term cap in limit mode),
#  budget, q of the limit target rho^q)
CASES = [
    ("block-complete", "1", "1/2", "block", 0, 10, 100, None),
    ("block-stopped-floor", "1", "rho", "block", 0, 1000, 10 ** 6, None),
    ("block-stopped-offset-start", "1/factorial(n)", "1", "block", 5, 1000, 10 ** 6, None),
    ("block-budget", "1", "1/2", "block", 0, 100, 10, None),
    ("block-growing-budget-steps", "2^n", "1", "block", 0, 200, 100, None),
    ("block-growing-budget-abort", "1", "rho^-8", "block", 0, 1000, 10 ** 6, None),
    ("block-oversized-mixed", "1", "-rho^-8", "block", 0, 1000, 10 ** 6, None),
    ("block-oversized-consistent", "rho^-300*(2+(-1)^n)", "1", "block", 0, 1000, 10 ** 6, None),
    ("block-table-runs-out-in-tiny-run", [1, 1, 1, 0, 0, 0], "1", "block", 0, 20, 10 ** 6, None),
    ("block-table-runs-out-raises", [1, 1, 1], "1", "block", 0, 20, 10 ** 6, None),
    ("limit-converged-ratio", "1", "1/2", "limit", 0, 10 ** 6, None, 8),
    ("limit-converged-tiny-run", [1, 1, 1] + [0] * 12, "1", "limit", 0, 10 ** 6, None, 8),
    ("limit-divergent-cap", "1", "1", "limit", 0, 50, None, 8),
    ("limit-divergent-growth", "1", "rho^-8", "limit", 0, 10 ** 6, None, 8),
    ("limit-table-exhausted-in-tiny-run", [1, 1, 1, 0, 0, 0], "1", "limit", 0, 10 ** 6, None, 8),
]


EXPECTED = {
    "block-complete": [
        ("complete", 10, "1.9990234375"),
        ("complete", 10, "1.9990234375"),
        ("complete", 10, "1.9990234375"),
    ],
    "block-stopped-floor": [
        ("stopped", 89, "1.1111111111111111111111111111111111111111111111111111111111111111111111111111130303"),
        ("stopped", 48, "1.0101010101010101010101010101010101010101010101010101010101010101010101010101011846"),
        ("stopped", 35, "1.0010010010010010010010010010010010010010010010010010010010010010010010010010354074"),
    ],
    "block-stopped-offset-start": [
        ("stopped", 69, "0.009948495125711902026954138019329164423913760366626241633634294390743297020214228408"),
        ("stopped", 69, "0.009948495125711902026954138019329164423913760366626241633634294390743297020214228408"),
        ("stopped", 69, "0.009948495125711902026954138019329164423913760366626241633634294390743297020214228408"),
    ],
    "block-budget": [
        ("budget", 10, "1.9990234375"),
        ("budget", 10, "1.9990234375"),
        ("budget", 10, "1.9990234375"),
    ],
    "block-growing-budget-steps": [
        ("growing-budget", 100, "2535301200456458802993406410751.0"),
        ("growing-budget", 100, "2535301200456458802993406410751.0"),
        ("growing-budget", 100, "2535301200456458802993406410751.0"),
    ],
    "block-growing-budget-abort": [
        ("growing-budget", 64, "1.0000000100000001000000010000000100000001000000010000000100000001000000009992701196e+512"),
        ("growing-budget", 64, "1.0000000000000001000000000000000100000000000000010000000000000001000000000000095884e+1024"),
        ("growing-budget", 64, "1.0000000000000000000000010000000000000000000000010000000000000000000000010019907778e+1536"),
    ],
    "block-oversized-mixed": [
        ("oversized-mixed", 95, "-9.9999999000000009999999900000000999999990000000099999999000000009999999899889085165e+759"),
        ("oversized-mixed", 96, "9.9999999999999990000000000000000999999999999999900000000000000010000000000003881891e+1535"),
        ("oversized-mixed", 96, "9.9999999999999999999999900000000000000000000000099999999999999999999999900299620736e+2303"),
    ],
    "block-oversized-consistent": [
        ("oversized-consistent", 63, "1.279999999999999999999999999999999999999999999999999999999999999999999999999176283e+302"),
        ("oversized-consistent", 63, "1.280000000000000000000000000000000000000000000000000000000000000000000000000201677e+602"),
        ("oversized-consistent", 63, "1.2800000000000000000000000000000000000000000000000000000000000000000000000014812201e+902"),
    ],
    "block-table-runs-out-in-tiny-run": [
        ("stopped", 5, "3.0"),
        ("stopped", 5, "3.0"),
        ("stopped", 5, "3.0"),
    ],
    "block-table-runs-out-raises": [
        None,
        None,
        None,
    ],
    "limit-converged-ratio": [
        ("converged", 26, "1.99999998509883880615234375"),
        ("converged", 53, "1.99999999999999988897769753748434595763683319091796875"),
        ("converged", 80, "1.99999999999999999999999917281938744697232512859130793003714643418788909912109375"),
    ],
    "limit-converged-tiny-run": [
        ("converged", 10, "3.0"),
        ("converged", 10, "3.0"),
        ("converged", 10, "3.0"),
    ],
    "limit-divergent-cap": [
        ("divergent-cap", 50, "51.0"),
        ("divergent-cap", 50, "51.0"),
        ("divergent-cap", 50, "51.0"),
    ],
    "limit-divergent-growth": [
        ("divergent-cap", 64, "1.0000000100000001000000010000000100000001000000010000000100000001000000009992701196e+512"),
        ("divergent-cap", 64, "1.0000000000000001000000000000000100000000000000010000000000000001000000000000095884e+1024"),
        ("divergent-cap", 64, "1.0000000000000000000000010000000000000000000000010000000000000000000000010019907778e+1536"),
    ],
    "limit-table-exhausted-in-tiny-run": [
        ("table-exhausted", 5, None),
        ("table-exhausted", 5, None),
        ("table-exhausted", 5, None),
    ],
}


def _family(spec):
    if isinstance(spec, list):
        return HpsCoefficients.from_column([Fraction(v) for v in spec])
    return HpsCoefficients.from_expr(spec)


def _run(case):
    _, family, x_text, mode, n_start, n_stop, budget, q = case
    series = make_series(_family(family), GenNum.constant(0, GRID), RHO, RHO,
                         GRID)
    sum_at = _summation(series, GenNum.from_expr(x_text, GRID, RHO))
    bits = GRID.precision
    rows = []
    for i, rho_i in enumerate(RHO.values_on(GRID)):
        if mode == "block":
            try:
                value, last, status, _ = sum_at(i, n_start, n_stop, budget)
            except TableExhaustedError:
                rows.append(None)
                continue
        else:
            with working_precision(bits):
                target = rho_i ** q
            value, last, status, _ = sum_at(i, n_start, n_stop, n_stop, target)
        rows.append((status, last,
                     None if value is None else decimal_str(value, bits)))
    return rows


def test_cases_cover_every_stop_status():
    statuses = {row[0] for rows in EXPECTED.values() for row in rows if row}
    assert statuses == {"complete", "stopped", "budget", "growing-budget",
                        "oversized-consistent", "oversized-mixed",
                        "converged", "divergent-cap", "table-exhausted"}


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_stop_decision(case):
    assert _run(case) == EXPECTED[case[0]]

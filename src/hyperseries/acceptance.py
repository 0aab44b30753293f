"""The acceptance battery: one callable per criterion, shared by the CLI
``suite`` subcommand and the pytest gate.

Every criterion states its tolerances inline (they come from the project
contract, not from runtime calibration) and returns a CheckResult whose
details carry the witnesses actually measured.  Criteria read the grid,
gauges, seed and built-in corpus families (never a config's own series) from
a :class:`~hyperseries.config.RunConfig`; by default the decade grid
eps = 10^-k, k = 1..8, rho = sigma = eps, 256-bit mantissas.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import mpmath
from mpmath import mpf

from . import algebra, corpus, graf
from .config import RunConfig
from .nets import (ConfigError, EpsGrid, Gauge, GenNum, ext_eq,
                   hypernat_from_expr, is_negligible)
from .numerics import (GUARD_BITS, as_mpf, decimal_str, num_sub,
                       tail_exceeds, working_precision)
from .report import CheckResult, canonical_bytes, digest, jsonable
from .series import (HpsCoefficients, check_strong_eq, classify_radius,
                     converges_at, derived_coefficients, hyperfinite_sum,
                     make_series, radius, series_limit, weak_witness)


def _result(name: str, ok: bool, details: dict,
            inconclusive: bool = False) -> CheckResult:
    status = "pass" if ok else ("inconclusive" if inconclusive else "fail")
    return CheckResult(name=name, status=status, details=details)


def _tail_close(a, b, grid: EpsGrid, rho: Gauge, exponent: int) -> bool:
    """|a_i - b_i| <= rho_i^exponent at every tail point of two value rows."""
    bits = grid.precision
    gaps = [num_sub(u, v, bits + GUARD_BITS) for u, v in zip(a, b)]
    return tail_exceeds(gaps, rho.values_on(grid), grid.tail, exponent,
                        bits) is None


# --------------------------------------------------------------------------
# 1. Geometric identity
# --------------------------------------------------------------------------


def criterion_01_geometric_identity(cfg: RunConfig) -> CheckResult:
    """Hyperfinite geometric sums at x = drho match 1/(1 - drho) to order 6;
    the limit at 1/2 is 2 within rho^4 on the tail."""
    geom = cfg.builtin("geometric")
    drho = GenNum.from_expr("rho", cfg.grid, cfg.rho)
    upper = hypernat_from_expr("1/eps", cfg.sigma, cfg.grid)
    sums = hyperfinite_sum(geom, drho, upper)
    closed = GenNum.constant(1, cfg.grid) / (GenNum.constant(1, cfg.grid) - drho)
    identity = ext_eq(sums, closed, cfg.rho, cfg.grid, q_max=6)
    half = GenNum.constant(Fraction(1, 2), cfg.grid)
    limit = series_limit(geom, half, q_target=8)
    at_half = _tail_close(limit.values, [2] * len(cfg.grid), cfg.grid,
                          cfg.rho, 4)
    return _result("geometric-identity",
                   identity.passed and at_half,
                   {"ext_eq": identity, "limit_at_half": limit.describe(),
                    "within_rho4": at_half})


# --------------------------------------------------------------------------
# 2. Exponential membership split
# --------------------------------------------------------------------------


def criterion_02_exponential_split(cfg: RunConfig) -> CheckResult:
    """Membership holds at -log(rho) with limit 1/rho to 1e-20 relative,
    and fails at rho^-1 through the moderateness condition."""
    exp_series = cfg.builtin("exponential")
    good = converges_at(exp_series,
                        GenNum.from_expr("-log(rho)", cfg.grid, cfg.rho),
                        q_target=30)
    bits = cfg.grid.precision
    rel_ok = True
    worst = mpf(0)
    if good.limit is not None:
        with working_precision(bits):
            for i in range(len(cfg.grid)):
                target = 1 / cfg.grid.points[i]
                rel = abs(as_mpf(good.limit.values[i], bits) - target) / target
                worst = max(worst, rel)
            rel_ok = worst <= mpf("1e-20")
    bad = converges_at(exp_series,
                       GenNum.from_expr("rho^(-1)", cfg.grid, cfg.rho))
    ok = (good.overall.passed and rel_ok and bad.overall.failed
          and bad.cond_limit.failed)
    return _result("exponential-split", ok,
                   {"member": good.overall, "relative_error": worst,
                    "non_member": bad.overall, "cond_limit": bad.cond_limit})


# --------------------------------------------------------------------------
# 3. Radius values
# --------------------------------------------------------------------------


def criterion_03_radius_values(cfg: RunConfig) -> CheckResult:
    """r = 1 and 1/2 exactly for the geometric families, the exponential
    family sits beyond every tested power, and the zero-class root curve
    settles at rho^(1/eps) to 1e-30 relative (window top 256)."""
    grid, rho = cfg.grid, cfg.rho
    bits = grid.precision
    r_ones = radius(cfg.builtin("geometric").coeffs, rho, grid)
    ones_exact = all(v == 1 for v in r_ones.r.values)
    r_twos = radius(cfg.builtin("doubling").coeffs, rho, grid)
    twos_exact = all(v == mpf("0.5") for v in r_twos.r.values)
    r_exp = radius(cfg.builtin("exponential").coeffs, rho, grid)
    exp_class = classify_radius(r_exp, rho, grid)
    exp_beyond = exp_class.all_beyond_tested_powers
    r_zero = radius(cfg.builtin("zero-class").coeffs, rho, grid,
                    window=(16, 256))
    with working_precision(bits + 16):
        worst = mpf(0)
        for i in range(len(grid)):
            point = grid.points[i]
            target = point ** (1 / point)
            rel = abs(r_zero.limsup.values[i] - target) / target
            worst = max(worst, rel)
    zero_ok = worst <= mpf("1e-30")
    ok = ones_exact and twos_exact and exp_beyond and zero_ok
    return _result("radius-values", ok,
                   {"ones_exact": ones_exact, "doubling_exact": twos_exact,
                    "exponential_classes": list(exp_class.classes),
                    "zero_class_rel_error": worst,
                    "methods": list(r_zero.methods)})


# --------------------------------------------------------------------------
# 4. Radius well-definedness under strongly negligible perturbations
# --------------------------------------------------------------------------


def criterion_04_radius_stability(cfg: RunConfig) -> CheckResult:
    """Adding rho^((n+1)/eps) moves the root-curve limit by less than
    rho^q (q <= 4) at every tail point, family by family."""
    grid, rho = cfg.grid, cfg.rho
    cases = {}
    ok = True
    perturb = "rho^((n+1)/eps)"
    for name, expr in corpus.EXPR_FAMILIES.items():
        base = radius(HpsCoefficients.from_expr(expr), rho, grid)
        moved = radius(HpsCoefficients.from_expr("(%s) + %s" % (expr, perturb)),
                       rho, grid)
        worst_q = None
        for q in range(1, 5):
            if not _tail_close(base.limsup.values, moved.limsup.values, grid,
                               rho, q):
                break
            worst_q = q
        cases[name] = {"verified_q": worst_q}
        ok = ok and worst_q == 4
    spec_delta, delta_fam = cfg.delta_setup()
    base = radius(delta_fam, rho, grid, window=(16, 94))
    moved_fam = algebra.add(delta_fam, HpsCoefficients.from_expr(perturb),
                            grid, rho, n_max=delta_fam.n_max)
    moved = radius(moved_fam, rho, grid, window=(16, 94))
    fine = _tail_close(base.limsup.values, moved.limsup.values, grid, rho, 4)
    cases["delta"] = {"verified_q": 4 if fine else None}
    ok = ok and fine
    return _result("radius-stability", ok, cases)


# --------------------------------------------------------------------------
# 5. Division oracle
# --------------------------------------------------------------------------


def criterion_05_division(cfg: RunConfig) -> CheckResult:
    """1/(1-x) as a coefficient division is the all-ones family exactly to
    n = 64; ten random exact pairs round-trip through the Cauchy product
    with strong equivalence at (4, 4)."""
    grid, rho = cfg.grid, cfg.rho
    n_max = 64
    numerator = HpsCoefficients.from_column(
        [Fraction(1)] + [Fraction(0)] * n_max)
    denominator = HpsCoefficients.from_column(
        [Fraction(1), Fraction(-1)] + [Fraction(0)] * (n_max - 1))
    quotient = algebra.reciprocal_div(numerator, denominator, n_max, grid, rho)
    ones_exact = all(v == 1 for v in quotient.column_values(n_max))
    rng = cfg.rng(5)
    round_trips = []
    all_pass = True
    for _ in range(10):
        a, b = corpus.random_division_pair(rng, n_max)
        d = algebra.reciprocal_div(a, b, n_max, grid, rho)
        back = algebra.cauchy_product(d, b, n_max, grid, rho)
        verdict = check_strong_eq(back, a, rho, grid, n_max=n_max)
        round_trips.append(verdict.status)
        all_pass = all_pass and verdict.passed
    ok = ones_exact and all_pass
    return _result("division-oracle", ok,
                   {"reciprocal_exact": ones_exact,
                    "round_trips": round_trips})


# --------------------------------------------------------------------------
# 6. Cauchy product
# --------------------------------------------------------------------------


def criterion_06_cauchy_product(cfg: RunConfig) -> CheckResult:
    """Squared geometric coefficients equal n+1 exactly; the squared series
    at 1/2 sums to 4 within rho^4 on the tail."""
    grid, rho, sigma = cfg.grid, cfg.rho, cfg.sigma
    ones = cfg.builtin("geometric").coeffs
    squared = algebra.cauchy_product(ones, ones, 256, grid, rho)
    exact = all(v == n + 1 for n, v in enumerate(squared.column_values(256)))
    product_series = make_series(squared, cfg.zero, rho, sigma, grid)
    half = GenNum.constant(Fraction(1, 2), grid)
    limit = series_limit(product_series, half, q_target=8)
    at_half = _tail_close(limit.values, [4] * len(grid), grid, rho, 4)
    return _result("cauchy-product", exact and at_half,
                   {"coefficients_exact": exact,
                    "limit_head": limit.describe()[:2],
                    "within_rho4": at_half})


# --------------------------------------------------------------------------
# 7. Composition and reversion
# --------------------------------------------------------------------------


def criterion_07_composition(cfg: RunConfig) -> CheckResult:
    """exp composed with x + x^2 reproduces direct evaluation to 1e-12 at
    x in {0.05, 0.1} (20 coefficients); reversion round-trips to the
    identity at depth 16, Catalan signs included."""
    grid, rho = cfg.grid, cfg.rho
    bits = grid.precision
    inner = HpsCoefficients.from_column(
        [Fraction(0), Fraction(1), Fraction(1)] + [Fraction(0)] * 18)
    composed = algebra.compose(cfg.builtin("exponential").coeffs, inner, 20,
                               grid, rho)
    column = composed.column_values(20)
    comp_ok = True
    comp_err = mpf(0)
    with working_precision(bits):
        for text in ("0.05", "0.1"):
            x = mpf(text)
            total = mpf(0)
            power = mpf(1)
            for value in column:
                total += as_mpf(value, bits) * power
                power *= x
            err = abs(total - mpmath.exp(x + x * x))
            comp_err = max(comp_err, err)
        comp_ok = comp_err <= mpf("1e-12")
    catalan = algebra.reverse(inner, 16, grid, rho)
    expected = [Fraction(0)]
    for k in range(1, 17):
        cat = math.comb(2 * (k - 1), k - 1) // k
        expected.append(Fraction((-1) ** (k - 1) * cat))
    catalan_ok = catalan.column_values(16) == expected
    identity = algebra.identity_coefficients(16)
    cases = [check_strong_eq(algebra.compose(inner, catalan, 16, grid, rho),
                             identity, rho, grid, n_max=16)]
    rng = cfg.rng(7)
    for _ in range(3):
        base = corpus.random_dyadic_family(rng, 16, growth=Fraction(1))
        rows = list(base.column_values(16))
        rows[0] = Fraction(0)
        rows[1] = Fraction(1) if rows[1] >= 0 else Fraction(-1)
        family = HpsCoefficients.from_column(rows)
        inverse = algebra.reverse(family, 16, grid, rho)
        cases.append(check_strong_eq(
            algebra.compose(family, inverse, 16, grid, rho), identity,
            rho, grid, n_max=16))
    round_ok = all(v.passed for v in cases)
    ok = comp_ok and catalan_ok and round_ok
    return _result("composition-reversion", ok,
                   {"composition_error": comp_err, "catalan_exact": catalan_ok,
                    "round_trips": [v.status for v in cases]})


# --------------------------------------------------------------------------
# 8. Derived series radius equality
# --------------------------------------------------------------------------


def criterion_08_derived_radius(cfg: RunConfig) -> CheckResult:
    """|r(a) - r(derive(a))| <= 1e-6 relative for the geometric and
    exponential families and ten random ratio-smooth families."""
    grid, rho = cfg.grid, cfg.rho
    bits = grid.precision
    families = [(name, cfg.builtin(name).coeffs, (16, 256))
                for name in ("geometric", "exponential")]
    rng = cfg.rng(8)
    for idx in range(10):
        fam = corpus.random_smooth_family(rng, 320)
        families.append(("random_%d" % idx, fam, (16, 300)))
    details = {}
    ok = True
    with working_precision(bits + 16):
        for name, fam, window in families:
            base = radius(fam, rho, grid, window=window)
            shifted = radius(derived_coefficients(fam, 1), rho, grid,
                             window=window)
            worst = mpf(0)
            fine = True
            for i in range(len(grid)):
                r1, r2 = base.r.values[i], shifted.r.values[i]
                if mpmath.isinf(r1) or mpmath.isinf(r2):
                    if r1 != r2:
                        fine = False
                    continue
                rel = abs(r1 - r2) / r1
                worst = max(worst, rel)
            fine = fine and worst <= mpf("1e-6")
            details[name] = {"relative_gap": worst, "ok": fine}
            ok = ok and fine
    return _result("derived-radius", ok, details)


# --------------------------------------------------------------------------
# 9. Dirac delta
# --------------------------------------------------------------------------


def criterion_09_delta(cfg: RunConfig) -> CheckResult:
    """Odd delta coefficients vanish exactly, the weak witness is (1, 1)
    for b = 1/rho, the radius classifies as infinite, and hyperfinite
    partial sums at x = drho track b mu(b x) within rho^4 on the tail."""
    grid, rho, sigma = cfg.grid, cfg.rho, cfg.sigma
    spec, fam = cfg.delta_setup()
    odd_zero = all(fam.rows[n] == 0 for n in range(1, fam.n_max + 1, 2))
    witness = weak_witness(fam, rho, grid)
    witness_ok = witness == (1, 1)
    classification = classify_radius(radius(fam, rho, grid, window=(16, 94)),
                                     rho, grid)
    radius_ok = classification.all_beyond_tested_powers
    delta_series = make_series(fam, cfg.zero, rho, sigma, grid)
    drho = GenNum.from_expr("rho", grid, rho)
    upper = hypernat_from_expr("1/eps", sigma, grid)
    floor_ok = all(upper.values[i] >= 8 for i in grid.tail)
    partial = hyperfinite_sum(delta_series, drho, upper)
    direct = graf.delta_eval(spec, drho)
    close = _tail_close(partial.values, direct.values, grid, rho, 4)
    ok = odd_zero and witness_ok and radius_ok and floor_ok and close
    return _result("dirac-delta", ok,
                   {"odd_zero": odd_zero, "witness": witness,
                    "classes": list(classification.classes),
                    "upper_at_least_8": floor_ok, "partial_matches": close})


# --------------------------------------------------------------------------
# 10. Growth-rate characterization
# --------------------------------------------------------------------------


def criterion_10_growth(cfg: RunConfig) -> CheckResult:
    """Factorial growth bound: passes for the exponential with finite
    constants, passes for delta with 1/R tracking b (within 0.1), and
    fails for factorial coefficients and the nowhere-analytic bounds."""
    grid, rho, sigma = cfg.grid, cfg.rho, cfg.sigma
    zero = cfg.zero
    exp_net = graf.DerivativeNet.from_uniform_expr("exp(x)", grid, rho)
    samples = [GenNum.constant(Fraction(k, 10), grid) for k in (-5, 0, 5)]
    exp_witness = graf.graf_check(exp_net, zero, GenNum.constant(1, grid),
                                  40, samples, rho, grid)
    exp_ok = (exp_witness.verdict.passed and
              exp_witness.inv_r_exponent is not None and
              abs(exp_witness.inv_r_exponent) <= 0.1)
    spec, _ = cfg.delta_setup()
    delta_net = graf.delta_derivative_net(spec, k_max=70)
    ball = GenNum.from_expr("rho", grid, rho)
    near = [zero, GenNum.from_expr("rho/2", grid, rho),
            GenNum.from_expr("-rho/2", grid, rho)]
    delta_witness = graf.graf_check(delta_net, zero, ball, 64, near, rho, grid)
    delta_ok = (delta_witness.verdict.passed and
                delta_witness.inv_r_exponent is not None and
                abs(delta_witness.inv_r_exponent - spec.b_exponent) <= 0.1)
    tiny_ball = GenNum.from_expr("rho^6", grid, rho)
    tiny_samples = [zero, GenNum.from_expr("rho^8", grid, rho)]
    factorial_series = make_series(
        HpsCoefficients.from_expr("factorial(n)"), zero, rho, sigma, grid)
    factorial_net = graf.DerivativeNet.from_series(factorial_series, k_max=70)
    factorial_witness = graf.graf_check(factorial_net, zero, tiny_ball, 64,
                                        tiny_samples, rho, grid)
    nowhere_series = make_series(graf.nowhere_analytic_coeffs(), zero, rho,
                                 sigma, grid)
    nowhere_net = graf.DerivativeNet.from_series(nowhere_series, k_max=70)
    nowhere_witness = graf.graf_check(nowhere_net, zero, tiny_ball, 64,
                                      tiny_samples, rho, grid)
    reject = graf.nowhere_analytic_reject(grid, rho)
    ok = (exp_ok and delta_ok and factorial_witness.verdict.failed
          and nowhere_witness.verdict.failed and reject.passed)
    return _result("growth-characterization", ok,
                   {"exp": {"status": exp_witness.verdict.status,
                            "inv_r": repr(exp_witness.inv_r_exponent)},
                    "delta": {"status": delta_witness.verdict.status,
                              "inv_r": repr(delta_witness.inv_r_exponent)},
                    "factorial": factorial_witness.verdict.status,
                    "nowhere": nowhere_witness.verdict.status,
                    "nowhere_reject": reject.status})


# --------------------------------------------------------------------------
# 11. Representative independence
# --------------------------------------------------------------------------


def criterion_11_representative_independence(cfg: RunConfig) -> CheckResult:
    """Hyperfinite sums under negligible coefficient perturbations differ
    by nets that vanish to order at least 4, across ten seeded cases."""
    grid, rho, sigma = cfg.grid, cfg.rho, cfg.sigma
    rng = cfg.rng(11)
    strong = check_strong_eq(
        HpsCoefficients.from_expr("1"),
        HpsCoefficients.from_expr("1 + rho^((n+1)/eps)"), rho, grid,
        n_max=32)
    upper = hypernat_from_expr("1/eps", sigma, grid)
    bases = [("geometric", "1", 0), ("doubling", "2^n", 1),
             ("exponential", "1/factorial(n)", 0)]
    perturbations = ["rho^(n+5)", "rho^((n+1)/eps)"]
    cases = []
    ok = strong.passed
    for k in range(10):
        name, expr, q_witness = bases[k % len(bases)]
        p_expr = perturbations[(k // len(bases)) % 2 if k < 6 else rng.randrange(2)]
        exponent = max(1 + q_witness, 1)
        x = GenNum.from_expr("rho^%d" % exponent, grid, rho)
        base_series = make_series(HpsCoefficients.from_expr(expr), cfg.zero,
                                  rho, sigma, grid)
        moved_series = make_series(
            HpsCoefficients.from_expr("(%s) + %s" % (expr, p_expr)),
            cfg.zero, rho, sigma, grid)
        difference = hyperfinite_sum(base_series, x, upper) - \
            hyperfinite_sum(moved_series, x, upper)
        verdict = is_negligible(difference, rho, grid, q_max=4)
        cases.append("%s|%s:%s" % (name, p_expr, verdict.status))
        ok = ok and verdict.passed
    return _result("representative-independence", ok,
                   {"strong_eq_precondition": strong.status, "cases": cases})


# --------------------------------------------------------------------------
# 12. Non-trivial convergence ball
# --------------------------------------------------------------------------


def criterion_12_convergence_ball(cfg: RunConfig) -> CheckResult:
    """Every corpus family converges at x = c + drho^max(1+Q, 1)."""
    grid, rho = cfg.grid, cfg.rho
    details = {}
    ok = True
    for name in ("geometric", "doubling", "exponential", "zero-class",
                 "delta"):
        series = cfg.builtin(name)
        witness = weak_witness(series.coeffs, series.rho, grid)
        exponent = max(1 + (witness[0] if witness else 0), 1)
        x = GenNum.from_expr("rho^%d" % exponent, grid, rho) + series.center
        report = converges_at(series, x)
        details[name] = {"exponent": exponent,
                         "overall": report.overall.status,
                         "conditions": [report.cond_radius.status,
                                        report.cond_formal.status,
                                        report.cond_limit.status,
                                        report.cond_derivs.status]}
        ok = ok and report.overall.passed
    return _result("convergence-ball", ok, details)


# --------------------------------------------------------------------------
# 13. Flat point
# --------------------------------------------------------------------------


def criterion_13_flat_point(cfg: RunConfig) -> CheckResult:
    """exp(-1/x) vanishes to every tested order at infinitesimal arguments
    and its series at center 1 reproduces the value at 1.1 to 1e-10."""
    verdict = graf.flat_point_check(cfg.grid, cfg.rho)
    return _result("flat-point", verdict.passed, {"verdict": verdict})


# --------------------------------------------------------------------------
# 14. Determinism
# --------------------------------------------------------------------------


def _determinism_payload(cfg: RunConfig) -> bytes:
    """A representative computation rebuilt from scratch, serialized."""
    grid, rho, sigma = cfg.grid, cfg.rho, cfg.sigma
    geom = corpus.build_series("geometric", grid, rho, sigma)
    drho = GenNum.from_expr("rho", grid, rho)
    upper = hypernat_from_expr("1/eps", sigma, grid)
    sums = hyperfinite_sum(geom, drho, upper)
    rad = radius(corpus.build_series("zero-class", grid, rho, sigma).coeffs,
                 rho, grid, window=(16, 256))
    rng = cfg.rng(14)
    a, b = corpus.random_division_pair(rng, 48)
    quotient = algebra.reciprocal_div(a, b, 48, grid, rho)
    payload = {
        "sums": sums.describe(),
        "limsup": rad.limsup.describe(),
        "quotient_head": [decimal_str(v, grid.precision)
                          for v in quotient.column_values(16)],
        "verdict": jsonable(ext_eq(sums, sums, rho, grid), grid.precision),
    }
    return canonical_bytes(jsonable(payload, grid.precision))


def criterion_14_determinism(cfg: RunConfig) -> CheckResult:
    """Two from-scratch runs of a representative computation serialize to
    identical bytes (execution is single-threaded by design, so thread
    count cannot influence results)."""
    first = _determinism_payload(cfg)
    again = _determinism_payload(cfg)
    ok = first == again
    return _result("determinism", ok,
                   {"bytes": len(first), "identical": ok,
                    "digest": digest({"payload": first.decode("utf-8")})})


CRITERIA: Dict[str, Callable[[RunConfig], CheckResult]] = {
    "01-geometric-identity": criterion_01_geometric_identity,
    "02-exponential-split": criterion_02_exponential_split,
    "03-radius-values": criterion_03_radius_values,
    "04-radius-stability": criterion_04_radius_stability,
    "05-division-oracle": criterion_05_division,
    "06-cauchy-product": criterion_06_cauchy_product,
    "07-composition-reversion": criterion_07_composition,
    "08-derived-radius": criterion_08_derived_radius,
    "09-dirac-delta": criterion_09_delta,
    "10-growth-characterization": criterion_10_growth,
    "11-representative-independence": criterion_11_representative_independence,
    "12-convergence-ball": criterion_12_convergence_ball,
    "13-flat-point": criterion_13_flat_point,
    "14-determinism": criterion_14_determinism,
}


def run_suite(cfg: RunConfig,
              echo: Optional[Callable[[str], None]] = None) -> List[CheckResult]:
    """Every criterion in order.  A criterion that raises a ``ConfigError``
    (say, a table too short at this precision) is recorded as inconclusive
    with the error in its details, and the suite goes on; any other
    exception ends the suite."""
    results = []
    for name, check in CRITERIA.items():
        try:
            result = check(cfg)
        except ConfigError as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
            result = CheckResult(name=name.split("-", 1)[1],
                                 status="inconclusive",
                                 details={"error": error})
        results.append(result)
        if echo is not None:
            echo("%-4s %s" % (result.status.upper(), name))
    return results

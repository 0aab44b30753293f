"""Command-line front end: every check in the library, runnable and diffable.

Each subcommand resolves its inputs from an optional JSON config (grids,
gauges, named series, named points), executes one library operation, writes
a canonical JSON report, and exits 0 on pass, 2 on fail, 3 on inconclusive,
1 on usage or configuration errors.  ``--csv DIR`` additionally emits
per-point curves and coefficient tables as decimal-string CSV files.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import acceptance, algebra, graf
from .config import load_config
from .nets import (ConfigError, GenNum, InvalidGaugeError,
                   NotHypernaturalError, Verdict, hypernat_from_expr,
                   is_moderate, is_negligible, valuation)
from .netexpr import EvalError, ParseError
from .report import (USAGE_EXIT, CheckResult, Report, Stopwatch, jsonable,
                     write_csv, coefficients_csv_rows)
from .series import (N_CAP, Q_TARGET, RADIUS_WINDOW, DivergentSeriesError,
                     SummationBudgetError, check_strong_eq,
                     check_weak_moderate, classify_radius, converges_at,
                     derived_coefficients, eventually_bounded,
                     hyperfinite_sum, radius, series_limit, table_window,
                     weak_witness)

USAGE_ERRORS = (ConfigError, InvalidGaugeError, ParseError, EvalError,
                NotHypernaturalError, algebra.NotInvertibleError,
                algebra.InsufficientDepthError, graf.InvalidMollifierError,
                graf.OutOfCheckableRangeError)


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (usage errors exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(USAGE_EXIT)


def _verdict_result(name: str, verdict: Verdict, extra: Optional[dict] = None) -> CheckResult:
    details = {"verdict": verdict}
    if extra:
        details.update(extra)
    return CheckResult(name=name, status=verdict.status, details=details)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns a list of CheckResults
# ---------------------------------------------------------------------------


def _cmd_moderate(cfg, args, sink) -> List[CheckResult]:
    x = cfg.point(args.x)
    verdict = is_moderate(x, cfg.rho, cfg.grid, n_max=args.n_max)
    if sink:
        curve = valuation(x, cfg.rho, cfg.grid)
        write_csv(os.path.join(sink, "valuation.csv"), ["eps", "valuation"],
                  [(cfg.grid.points[i], curve[i]) for i in range(len(cfg.grid))],
                  cfg.grid.precision)
    return [_verdict_result("moderate(%s)" % args.x, verdict)]


def _cmd_negligible(cfg, args, sink) -> List[CheckResult]:
    x = cfg.point(args.x)
    verdict = is_negligible(x, cfg.rho, cfg.grid, q_max=args.q_max)
    return [_verdict_result("negligible(%s)" % args.x, verdict)]


def _cmd_weak_moderate(cfg, args, sink) -> List[CheckResult]:
    coeffs = cfg.series(args.series).coeffs
    verdict = check_weak_moderate(coeffs, cfg.rho, cfg.grid, n_max=args.n_max)
    return [_verdict_result("weak-moderate(%s)" % args.series, verdict)]


def _cmd_strong_eq(cfg, args, sink) -> List[CheckResult]:
    a = cfg.series(args.series).coeffs
    b = cfg.series(args.series2).coeffs
    verdict = check_strong_eq(a, b, cfg.rho, cfg.grid, n_max=args.n_max)
    return [_verdict_result("strong-eq(%s, %s)" % (args.series, args.series2),
                            verdict)]


def _radius_with_csv(cfg, series_name, window, sink):
    coeffs = cfg.series(series_name).coeffs
    estimate = radius(coeffs, cfg.rho, cfg.grid,
                      window=table_window(coeffs, window))
    if sink:
        rows = [(cfg.grid.points[i], estimate.limsup.values[i],
                 estimate.r.values[i], estimate.methods[i])
                for i in range(len(cfg.grid))]
        write_csv(os.path.join(sink, "radius.csv"),
                  ["eps", "limsup", "radius", "method"], rows,
                  cfg.grid.precision)
    return estimate


def _cmd_radius(cfg, args, sink) -> List[CheckResult]:
    estimate = _radius_with_csv(cfg, args.series, args.window, sink)
    details = {"r": estimate.r.describe(), "limsup": estimate.limsup.describe(),
               "methods": list(estimate.methods), "window": list(estimate.window)}
    return [CheckResult(name="radius(%s)" % args.series, status="pass",
                        details=details)]


def _cmd_classify(cfg, args, sink) -> List[CheckResult]:
    estimate = _radius_with_csv(cfg, args.series, args.window, sink)
    classification = classify_radius(estimate, cfg.rho, cfg.grid)
    details = {"classes": list(classification.classes),
               "P_m": classification.p_m,
               "subsets": {str(p): list(v)
                           for p, v in classification.subsets.items()}}
    return [CheckResult(name="classify(%s)" % args.series, status="pass",
                        details=details)]


def _cmd_sum(cfg, args, sink) -> List[CheckResult]:
    series = cfg.series(args.series)
    x = cfg.point(args.x)
    upper = hypernat_from_expr(args.upper, series.sigma, cfg.grid)
    value = hyperfinite_sum(series, x, upper)
    return [CheckResult(name="sum(%s at %s)" % (args.series, args.x),
                        status="pass",
                        details={"upper": list(upper.values),
                                 "witness_M": upper.sigma_witness,
                                 "values": value.describe()})]


def _cmd_limit(cfg, args, sink) -> List[CheckResult]:
    series = cfg.series(args.series)
    x = cfg.point(args.x)
    value = series_limit(series, x, q_target=args.q_target, n_cap=args.n_cap)
    return [CheckResult(name="limit(%s at %s)" % (args.series, args.x),
                        status="pass", details={"values": value.describe()})]


def _cmd_converge(cfg, args, sink) -> List[CheckResult]:
    series = cfg.series(args.series)
    x = cfg.point(args.x)
    report = converges_at(series, x, q_target=args.q_target)
    details = {"radius": report.cond_radius, "formal": report.cond_formal,
               "limit": report.cond_limit, "derivatives": report.cond_derivs}
    if report.limit is not None:
        details["limit_values"] = report.limit.describe()
    return [CheckResult(name="converge(%s at %s)" % (args.series, args.x),
                        status=report.overall.status, details=details)]


def _cmd_bounded(cfg, args, sink) -> List[CheckResult]:
    series = cfg.series(args.series)
    x = cfg.point(args.x)
    report = eventually_bounded(series, x)
    extra = {"N_start": report.n_start}
    if report.r_bound is not None:
        extra["R"] = report.r_bound.describe()
    return [_verdict_result("bounded(%s at %s)" % (args.series, args.x),
                            report.verdict, extra)]


_ALGEBRA_OPS = ("add", "mul", "div", "compose", "derive", "integrate",
                "recenter", "reverse")
#: ``algebra recenter`` sums the old series to the first of these multiples
#: of ``--n-max`` whose truncation tail check passes.
RECENTER_DEPTH_FACTORS = (4, 8, 16, 32, 64)


def _recenter(series, center: GenNum, n_max: int):
    """``algebra.recenter`` at the depths of ``RECENTER_DEPTH_FACTORS``;
    the membership check runs at the first depth only."""
    for factor in RECENTER_DEPTH_FACTORS:
        try:
            return algebra.recenter(series, center, n_max, factor * n_max,
                                    check=factor == RECENTER_DEPTH_FACTORS[0])
        except algebra.InsufficientDepthError as exc:
            failure = exc
    # no flag sets m_max here: the depth follows --n-max
    raise ConfigError("%s; raise --n-max (recenter sums to at most %d * "
                      "--n-max)" % (failure.where, RECENTER_DEPTH_FACTORS[-1])) \
        from failure


def _cmd_algebra(cfg, args, sink) -> List[CheckResult]:
    grid, rho = cfg.grid, cfg.rho
    a = cfg.series(args.series).coeffs
    op = args.operation
    binary = op in ("add", "mul", "div", "compose")
    if binary and not args.series2:
        raise ConfigError("algebra %s needs --series2" % op)
    b = cfg.series(args.series2).coeffs if binary else None
    if op == "add":
        out = algebra.add(a, b, grid, rho, n_max=args.n_max)
    elif op == "mul":
        out = algebra.cauchy_product(a, b, args.n_max, grid, rho)
    elif op == "div":
        out = algebra.reciprocal_div(a, b, args.n_max, grid, rho)
    elif op == "compose":
        out = algebra.compose(a, b, args.n_max, grid, rho)
    elif op == "derive":
        out = derived_coefficients(a, 1)
    elif op == "integrate":
        out = algebra.integrate(a, grid, rho, n_max=args.n_max)
    elif op == "recenter":
        if not args.x:
            raise ConfigError("algebra recenter needs --x (the new center)")
        series = cfg.series(args.series)
        rho = series.rho  # the recentered family is relative to this gauge
        out = _recenter(series, cfg.point(args.x), args.n_max)
    else:
        out = algebra.reverse(a, args.n_max, grid, rho)
    depth = min(out.bound_or(args.n_max), args.n_max)
    if sink:
        rows = coefficients_csv_rows(out, grid, rho, depth)
        header = ["n"] + ["eps_%d" % i for i in range(len(grid))]
        write_csv(os.path.join(sink, "algebra_%s.csv" % op), header, rows,
                  grid.precision)
    head = coefficients_csv_rows(out, grid, rho, min(depth, 8))
    return [CheckResult(name="algebra-%s(%s)" % (op, args.series),
                        status="pass",
                        details={"witness": weak_witness(out, rho, grid),
                                 "head": jsonable(head, grid.precision)})]


def _cmd_graf(cfg, args, sink) -> List[CheckResult]:
    grid, rho = cfg.grid, cfg.rho
    zero = GenNum.constant(0, grid)
    k_max = args.n_max + 8
    if args.net == "exp":
        net = graf.DerivativeNet.from_uniform_expr("exp(x)", grid, rho,
                                                   k_max=k_max)
        ball = GenNum.constant(1, grid)
        samples = [GenNum.constant(Fraction(k, 10), grid) for k in (-5, 0, 5)]
    elif args.net == "delta":
        spec, _ = cfg.delta_setup()
        net = graf.delta_derivative_net(spec, k_max=k_max)
        ball = GenNum.from_expr("rho", grid, rho)
        samples = [zero, GenNum.from_expr("rho/2", grid, rho),
                   GenNum.from_expr("-rho/2", grid, rho)]
    else:
        series = cfg.series(args.series)
        net = graf.DerivativeNet.from_series(series, k_max=k_max)
        ball = GenNum.from_expr("rho^6", grid, rho)
        samples = [zero, GenNum.from_expr("rho^8", grid, rho)]
    witness = graf.graf_check(net, zero, ball, args.n_max, samples, rho, grid)
    extra = {"inv_r_exponent": repr(witness.inv_r_exponent)}
    return [_verdict_result("graf(%s)" % (args.net or args.series),
                            witness.verdict, extra)]


_EXAMPLES = ("geometric", "exp", "delta", "flat", "nowhere")


def _cmd_example(cfg, args, sink) -> List[CheckResult]:
    if args.name == "geometric":
        return [acceptance.criterion_01_geometric_identity(cfg)]
    if args.name == "exp":
        return [acceptance.criterion_02_exponential_split(cfg)]
    if args.name == "delta":
        return [acceptance.criterion_09_delta(cfg)]
    if args.name == "flat":
        return [acceptance.criterion_13_flat_point(cfg)]
    verdict = graf.nowhere_analytic_reject(cfg.grid, cfg.rho)
    return [_verdict_result("example-nowhere", verdict)]


def _cmd_suite(cfg, args, sink) -> List[CheckResult]:
    return acceptance.run_suite(cfg, echo=lambda line: print(line, file=sys.stderr))


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperseries",
                     description="gauge-indexed power series checks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config path")
    common.add_argument("--precision", type=int, help="mantissa bits")
    common.add_argument("--tail-start", type=int, dest="tail_start",
                        help="grid index where the asymptotic tail begins")
    common.add_argument("--out", help="report path (default stdout)")
    common.add_argument("--csv", help="directory for CSV curve files")
    common.add_argument("--seed", type=int, help="seed for randomized subsets")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = command("moderate", _cmd_moderate)
    p.add_argument("--x", required=True, help="net expression or named point")
    p.add_argument("--n-max", type=int, default=8)

    p = command("negligible", _cmd_negligible)
    p.add_argument("--x", required=True)
    p.add_argument("--q-max", type=int, default=6)

    p = command("weak-moderate", _cmd_weak_moderate)
    p.add_argument("--series", required=True)
    p.add_argument("--n-max", type=int, default=64)

    p = command("strong-eq", _cmd_strong_eq)
    p.add_argument("--series", required=True)
    p.add_argument("--series2", required=True)
    p.add_argument("--n-max", type=int, default=64)

    p = command("radius", _cmd_radius)
    p.add_argument("--series", required=True)
    p.add_argument("--window", type=int, nargs=2, default=RADIUS_WINDOW)

    p = command("classify", _cmd_classify)
    p.add_argument("--series", required=True)
    p.add_argument("--window", type=int, nargs=2, default=RADIUS_WINDOW)

    p = command("sum", _cmd_sum)
    p.add_argument("--series", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--upper", default="1/eps",
                   help="hypernatural bound expression in eps (rho resolves "
                        "to the series' truncation gauge)")

    p = command("limit", _cmd_limit)
    p.add_argument("--series", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--q-target", type=int, default=6)
    p.add_argument("--n-cap", type=int, default=N_CAP)

    p = command("converge", _cmd_converge)
    p.add_argument("--series", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--q-target", type=int, default=Q_TARGET)

    p = command("bounded", _cmd_bounded)
    p.add_argument("--series", required=True)
    p.add_argument("--x", required=True)

    p = command("algebra", _cmd_algebra)
    p.add_argument("operation", choices=_ALGEBRA_OPS)
    p.add_argument("--series", required=True)
    p.add_argument("--series2")
    p.add_argument("--x", help="new center for recenter")
    p.add_argument("--n-max", type=int, default=64)

    p = command("graf", _cmd_graf)
    p.add_argument("--net", choices=("exp", "delta"),
                   help="built-in derivative net")
    p.add_argument("--series", help="series-backed derivative net")
    p.add_argument("--n-max", type=int, default=40)

    p = command("example", _cmd_example)
    p.add_argument("name", choices=_EXAMPLES)

    command("suite", _cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    watch = Stopwatch()
    try:
        cfg = load_config(args.config, precision_override=args.precision,
                          tail_start_override=args.tail_start)
        cfg.seed = args.seed or 0
        if args.command == "graf" and not (args.net or args.series):
            raise ConfigError("graf needs --net or --series")
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
        checks = args.handler(cfg, args, args.csv)
    except USAGE_ERRORS as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return USAGE_EXIT
    except DivergentSeriesError as exc:
        report = Report(command=args.command, config_hash="sha256:unavailable",
                        checks=[CheckResult(name=args.command, status="fail",
                                            details={"error": str(exc)})],
                        seed=args.seed, timing_ms=watch.ms())
        _emit(report, args)
        return report.exit_code()
    except SummationBudgetError as exc:
        sys.stderr.write("precision/budget error: %s\n" % exc)
        return USAGE_EXIT
    report = Report(command=args.command, config_hash=cfg.config_hash,
                    checks=checks, seed=args.seed, timing_ms=watch.ms())
    _emit(report, args)
    return report.exit_code()


def _emit(report: Report, args) -> None:
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())

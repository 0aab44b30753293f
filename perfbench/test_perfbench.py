"""Tests of the benchmark itself: oracle, span analysis, metric names.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Oracle on hand-checked cases
# ---------------------------------------------------------------------------


def test_radius_of_three_halves_weighted_family_is_two_thirds():
    family = workloads.power_family(Fraction(3, 2), j=1)
    assert family["expr"] == "(3/2)^n*(n+1)"
    with mpmath.workprec(320):
        for r in oracle.family_radius(family, 256):
            assert abs(r - mpf(2) / 3) < mpf(2) ** -250
    request = {"kind": "radius", "bits": 256, "family": family,
               "expect": "value"}
    assert oracle.judge(request, [mpf(2) / 3] * 8)[0] == oracle.OK
    assert oracle.judge(request, [mpf("0.67")] * 8)[0] == oracle.FAILED


def test_four_r_probe_is_outside_and_must_diverge():
    family = workloads.power_family(Fraction(2))
    probe = {"const": "2", "expr": "2"}  # 4 r with r = 1/2
    assert not oracle.inside(family, probe, 256)
    assert oracle.inside(family, {"const": "1/4", "expr": "1/4"}, 256)
    request = {"kind": "series_limit", "bits": 256, "family": family,
               "point": probe, "expect": "divergent"}
    diverged = oracle.Raised(type("DivergentSeriesError", (Exception,), {})())
    assert oracle.judge(request, diverged)[0] == oracle.OK
    assert oracle.judge(request, [mpf(-1)] * 8)[0] == oracle.FAILED


def test_negligible_rho_cubed_is_never_a_pass():
    request = {"kind": "is_negligible", "bits": 256, "x": "rho^3",
               "expect": "fail"}
    assert oracle.judge(request, "pass")[0] == oracle.FAILED
    assert oracle.judge(request, "inconclusive")[0] == oracle.INCONCLUSIVE
    assert oracle.judge(request, "fail")[0] == oracle.OK


def test_generated_expectations_match_the_closed_form_radius():
    # 40 blocks: every ratio of the rho c^n sweep (a cycle of 8) and every
    # constant of the exponential sweep (a cycle of 5)
    for seed in (1, 2):
        for req in workloads.generate("membership-sweep", seed, blocks=40):
            family, point, bits = req["family"], req["point"], req["bits"]
            if req["kind"] in ("series_limit", "hyperfinite_sum"):
                assert (req["expect"] == "value") == \
                    oracle.inside(family, point, bits), req
            else:
                assert (req["expect"] == "pass") == \
                    oracle.member(family, point, bits), req


def test_finite_sums_match_direct_summation():
    point = {"const": "1/5", "expr": "1/5"}
    for j in (0, 1, 2):
        family = workloads.power_family(Fraction(3, 2), j=j)
        closed = oracle.finite_sum_values(family, point, 128)[0]  # N = 10
        direct = sum(Fraction(3, 2) ** n * (n + 1) ** j * Fraction(1, 5) ** n
                     for n in range(11))
        with mpmath.workprec(192):
            assert abs(closed - mpf(direct.numerator) / direct.denominator) \
                < mpf(2) ** -120


def test_report_hash_matches_the_documented_canonical_body():
    from hyperseries.report import CheckResult, Report
    report = Report(command="moderate", config_hash="sha256:x",
                    checks=[CheckResult("c", "pass", {"v": Fraction(1, 3)})],
                    timing_ms=5)
    body = json.loads(report.to_json())
    assert oracle.report_hash(body) == body["report_hash"]
    body["overall"] = "fail"
    assert oracle.report_hash(body) != body["report_hash"]


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def test_self_time_on_a_synthetic_nested_trace():
    names = ["graf.graf_check", "graf.eval_deriv", "numerics.leq_with_slack",
             "numerics.as_mpf"]
    # span: (name, parent, start, end); children nest inside parents
    table = [(0, -1, 0.0, 10.0),    # graf_check
             (1, 0, 1.0, 3.0),      # eval_deriv
             (2, 0, 4.0, 8.0),      # leq_with_slack
             (3, 2, 5.0, 6.0),      # as_mpf inside leq
             (3, 2, 6.5, 7.0),      # as_mpf inside leq
             (2, -1, 11.0, 12.0)]   # leq outside any owner
    out = spans.analyse_spans(names, [t[0] for t in table],
                              [t[1] for t in table], [t[2] for t in table],
                              [t[3] for t in table])
    assert out["self_s"]["graf.graf_check"] == pytest.approx(10 - 2 - 4)
    assert out["self_s"]["graf.eval_deriv"] == pytest.approx(2)
    assert out["self_s"]["numerics.leq_with_slack"] == pytest.approx(4 - 1.5 + 1)
    assert out["self_s"]["numerics.as_mpf"] == pytest.approx(1.5)
    assert out["calls"]["numerics.as_mpf"] == 2
    assert out["comparisons"] == {"graf.graf_check": 1}


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.open(tracer.name_id("series.radius"))
    first = tracer.open(tracer.name_id("numerics.as_mpf"))
    tracer.close(first)
    second = tracer.open(tracer.name_id("numerics.as_mpf"))
    tracer.close(second)
    tracer.close(outer)
    out = tracer.analyse()
    assert out["self_s"]["series.radius"] == pytest.approx(10 - 2 - 3)
    assert out["self_s"]["numerics.as_mpf"] == pytest.approx(5)
    assert tracer.span_parent[first] == outer == tracer.span_parent[second]


# ---------------------------------------------------------------------------
# Streams, metric names, and the benchmark contract
# ---------------------------------------------------------------------------


def test_stream_fingerprint_follows_the_seed():
    one = run.fingerprint(workloads.generate("growth-witness", 7))
    assert one == run.fingerprint(workloads.generate("growth-witness", 7))
    assert one != run.fingerprint(workloads.generate("growth-witness", 8))


def _work(req) -> tuple:
    return (req["mix"], req["bits"], req.get("family", {}).get("expr"),
            req.get("point", {}).get("expr"), str(req.get("window")),
            req.get("other"))


def test_blocks_hold_the_same_work_on_every_seed():
    for workload in ("membership-sweep", "fresh-coefficients"):
        one, two = (workloads.generate(workload, seed, blocks=9)
                    for seed in (1, 2))
        assert [_work(r) for r in one] != [_work(r) for r in two]
        for block in range(9):
            assert sorted(_work(r) for r in one if r["block"] == block) == \
                sorted(_work(r) for r in two if r["block"] == block)


def test_every_block_has_the_stated_mix():
    for workload in workloads.WORKLOADS:
        period = workloads.PERIOD
        stream = workloads.generate(workload, 3, blocks=3 * period)
        shares = workloads.stated_mix(workload)
        for start in range(0, 3 * period, period):
            keys = [r["mix"] for r in stream
                    if start <= r["block"] < start + period]
            assert {k: keys.count(k) / len(keys) for k in set(keys)} == \
                pytest.approx(shares)


def test_end_to_end_names_match_the_contract():
    shares = {"a": 0.5, "b": 0.5}
    records = [({"mix": "a"}, 0.1, oracle.OK, ""),
               ({"mix": "b"}, 0.3, oracle.INCONCLUSIVE, "")]
    summary = run.mix_summary(records, shares)
    assert summary["requests_per_s"] == pytest.approx(1 / 0.2)
    assert summary["decisive_share"] == pytest.approx(0.5)
    emitted = set(summary) - {"missing_kinds"} | {"setup_s", "peak_rss_mb"}
    assert emitted == {m["name"] for m in CONTRACT["end_to_end"]}


def test_per_layer_names_match_wrapped_spans():
    """Every per-layer name resolves to a wrapped span or a derived value."""
    script = (
        "import json, sys; sys.path[:0] = %r\n"
        "import spans\n"
        "tracer = spans.Tracer(); spans.install(tracer)\n"
        "print(json.dumps(tracer.names))\n"
        % [str(ROOT / "src"), str(HERE)])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    wrapped = set(json.loads(done.stdout))
    derived = {"series.coeff_reads", "series.coeff_distinct_share",
               "cli.import_s", "cli.spawn_s", "trace.overhead_share",
               "failed_share", "inconclusive_share"}
    for metric in CONTRACT["per_layer"]:
        name = metric["name"]
        if name in derived:
            continue
        span, stat = name.rsplit(".", 1)
        assert stat in ("calls", "self_s", "comparisons"), name
        assert span in wrapped, name
        if stat == "comparisons":
            assert span in spans.COMPARISON_OWNERS, name
    values = run.per_layer({"calls": {}, "self_s": {}, "comparisons": {}},
                           [m["name"] for m in CONTRACT["per_layer"]])
    assert set(values) == {m["name"] for m in CONTRACT["per_layer"]}


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_short_run_emits_the_contract_metrics():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "fresh-coefficients", "--seed", "5", "--seconds", "1",
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()


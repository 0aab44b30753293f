#!/usr/bin/env python3
"""The hyperseries benchmark: seeded verdict workloads, end-to-end metrics,
and a traced run with per-module metrics.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload membership-sweep --seed 1 \\
        --seconds 28 --trace 0

Run every workload and print every metric by name with its unit:

    python3 perfbench/run.py --all --seed 1 --seconds 28

One client sends one request at a time (closed loop, no threads) until
``--seconds`` have passed.  Every request is graded by the oracle outside
its timed region.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics, measured on a fixed prefix of
the stream so that every count repeats exactly.  A fuller record (stream
fingerprint, environment, per-kind statistics, every failed and
inconclusive request) is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]
sys.dont_write_bytecode = True

import oracle  # noqa: E402
import workloads  # noqa: E402

#: Fresh processes timed for set-up; the median is reported.
SETUP_PROBES = 7
#: Requests replayed by the traced run: the first one or two blocks of the
#: stream (for cli-cold, its first 25 requests, which hold the delta command);
#: a fixed count, so that every count repeats exactly.
TRACE_REQUESTS = {"membership-sweep": 69, "fresh-coefficients": 60,
                  "growth-witness": 120, "cli-cold": 25}
#: A command-line child is killed after this long.
CHILD_TIMEOUT_S = 150
RESULTS = HERE / "results"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ---------------------------------------------------------------------------
# Set-up and the request loop
# ---------------------------------------------------------------------------


def fingerprint(stream) -> str:
    canonical = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def setup(workload: str, seed: int, traced_cli: bool = False):
    """Generation of the first block plus the program's grids and gauges
    (import included); returns the stream, the executor and the judge.
    Later blocks are generated as the run reaches them, outside the timed
    requests."""
    stream = workloads.requests(workload, seed)
    stream = itertools.chain([next(stream)], stream)
    if workload == "cli-cold":
        return stream, CliRunner(traced_cli), oracle.judge_cli
    import execute
    import hyperseries
    if not Path(hyperseries.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("hyperseries imported from %s, not %s"
                         % (hyperseries.__file__, SRC))
    return stream, execute.Executor(), oracle.judge


def run_stream(stream, execute, judge, seconds=None, limit=None, tracer=None):
    """Closed loop: (request, latency_s, grade, reason) per request."""
    records = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for index, req in enumerate(stream):
        if limit is not None and index >= limit:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = index
        started = time.perf_counter()
        try:
            outcome = execute(req)
        except Exception as exc:  # graded as a failure, never swallowed
            outcome = oracle.Raised(exc)
        latency = time.perf_counter() - started
        grade, reason = judge(req, outcome)
        records.append((req, latency, grade, reason))
    else:
        raise SystemExit("request stream exhausted before the run ended")
    return records


def spawn(argv, stderr=subprocess.DEVNULL) -> tuple:
    """Run a child to its end: (exit code, wall seconds, peak RSS in KiB).

    A blocking ``wait4`` both reaps the child and reads its own resource
    usage; the wall time has no polling granularity.  A watchdog kills a
    child that runs longer than CHILD_TIMEOUT_S.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - started, usage.ru_maxrss


class CliRunner:
    """Runs one ``hyperseries`` command per request in a fresh process."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.scratch = RESULTS / "cli-tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.peak_kb = 0
        self.children = []  # (wall_s, analysis) of traced children

    def __call__(self, req):
        out = self.scratch / "report.json"
        trace_out = self.scratch / "trace.json"
        for path in (out, trace_out):
            if path.exists():
                path.unlink()
        args = req["argv"] + ["--out", str(out)]
        if self.traced:
            argv = [sys.executable, str(HERE / "clichild.py"), str(trace_out),
                    "--"] + args
        else:
            argv = [sys.executable, "-m", "hyperseries.cli"] + args
        with open(self.scratch / "stderr.txt", "wb") as err:
            code, wall, peak_kb = spawn(argv, stderr=err)
        self.peak_kb = max(self.peak_kb, peak_kb)
        if self.traced and trace_out.exists():
            self.children.append((wall, json.loads(trace_out.read_text())))
        text = out.read_text(encoding="utf-8") if out.exists() else None
        return code, text


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up: for cli-cold
    the program's own start-up (``hyperseries --help``: interpreter, import
    and argument parser), for the others the benchmark process up to its
    first request."""
    if workload == "cli-cold":
        argv = [sys.executable, "-m", "hyperseries.cli", "--help"]
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        code, wall, _ = spawn(argv)
        if code != 0:
            raise SystemExit("set-up probe exited with %d" % code)
        times.append(wall)
    return sorted(times)[len(times) // 2]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def weighted_quantile(pairs, q: float) -> float:
    """Smallest value whose cumulative weight reaches q of the total."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    running = 0.0
    for value, weight in pairs:
        running += weight
        if running >= q * total - 1e-12:
            return value
    return pairs[-1][0]


def mix_summary(records, shares) -> dict:
    """Latency and grades at the workload's stated mix.

    Each mix key k has a stated share s_k of every block.  The run's mean
    latency of k stands for all of k, so a run that ends inside a block does
    not shift the mix: requests_per_s is 1 / sum_k s_k mean_k, and each
    request carries weight s_k / n_k in the percentiles and the shares.
    """
    by_key = defaultdict(list)
    for req, latency, grade, _ in records:
        by_key[req["mix"]].append((latency, grade))
    present = {k: s for k, s in shares.items() if k in by_key}
    norm = sum(present.values())
    weighted, mean_latency, decisive = [], 0.0, 0.0
    for key, share in present.items():
        rows = by_key[key]
        weight = share / norm / len(rows)
        mean_latency += share / norm * sum(lat for lat, _ in rows) / len(rows)
        decisive += weight * sum(1 for _, g in rows if g == oracle.OK)
        weighted.extend((lat, weight) for lat, _ in rows)
    return {"requests_per_s": 1 / mean_latency,
            "latency_p50_ms": 1000 * weighted_quantile(weighted, 0.5),
            "latency_p90_ms": 1000 * weighted_quantile(weighted, 0.9),
            "decisive_share": decisive,
            "missing_kinds": sorted(set(shares) - set(by_key))}


def grade_lists(records) -> dict:
    """Every failed and inconclusive request, with kind and precision."""
    out = {oracle.FAILED: [], oracle.INCONCLUSIVE: []}
    for index, (req, _, grade, reason) in enumerate(records):
        if grade in out:
            out[grade].append({"index": index, "kind": req["mix"],
                               "bits": req["bits"], "reason": reason})
    return out


def per_key_stats(records) -> dict:
    stats = defaultdict(lambda: {"count": 0, "latency_s": 0.0, "ok": 0,
                                 "inconclusive": 0, "failed": 0})
    for req, latency, grade, _ in records:
        entry = stats["%s@%d" % (req["mix"], req["bits"])]
        entry["count"] += 1
        entry["latency_s"] += latency
        entry[grade] += 1
    return dict(sorted(stats.items()))


def per_layer(analysis: dict, names) -> dict:
    """Per-layer metric values from a span analysis; a layer the workload
    never entered reads 0."""
    reads = analysis.get("series.coeff_reads", 0)
    distinct = analysis.get("series.coeff_distinct", 0)
    derived = {"series.coeff_distinct_share": distinct / reads if reads else 0.0}
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in analysis:
            out[name] = analysis[name]
        else:
            span, _, stat = name.rpartition(".")
            table = analysis.get(stat)
            out[name] = table.get(span, 0) if isinstance(table, dict) else 0
    return out


def environment() -> dict:
    import mpmath
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "precision_mix": {w: workloads.precision_mix(w)
                              for w in workloads.WORKLOADS}}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def untraced_run(args, contract) -> tuple:
    setup_s = setup_seconds(args.workload, args.seed)
    stream, execute, judge = setup(args.workload, args.seed)
    records = run_stream(stream, execute, judge, seconds=args.seconds)
    summary = mix_summary(records, workloads.stated_mix(args.workload))
    if args.workload == "cli-cold":
        peak_kb = execute.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = dict(summary, setup_s=setup_s, peak_rss_mb=peak_kb / 1024)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in contract["end_to_end"]}
    extra = {"requests": len(records), "missing_kinds": summary["missing_kinds"]}
    return records, metrics, extra


def traced_run(args, contract) -> tuple:
    limit = TRACE_REQUESTS[args.workload]
    replay = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--replay", str(limit)],
        cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    untraced_s = json.loads(replay.stdout.splitlines()[-1])["latency_s"]
    import spans
    stream, execute, judge = setup(args.workload, args.seed, traced_cli=True)
    if args.workload == "cli-cold":
        records = run_stream(stream, execute, judge, limit=limit)
        analysis = spans.merge(a for _, a in execute.children)
        analysis["cli.import_s"] = sum(a["cli.import_s"] for _, a in execute.children)
        analysis["cli.spawn_s"] = sum(
            wall - a["cli.import_s"] - a["cli.main_s"] - a["trace_io_s"]
            for wall, a in execute.children)
    else:
        tracer = spans.Tracer()
        spans.install(tracer)
        records = run_stream(stream, execute, judge, limit=limit,
                             tracer=tracer)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / ("%s-seed%d.spans" % (args.workload, args.seed)))
        analysis = tracer.analyse()
    traced_s = sum(latency for _, latency, _, _ in records)
    grades = [grade for _, _, grade, _ in records]
    analysis["trace.overhead_share"] = untraced_s / traced_s - 1
    analysis["failed_share"] = grades.count(oracle.FAILED) / len(grades)
    analysis["inconclusive_share"] = grades.count(oracle.INCONCLUSIVE) / len(grades)
    names = [m["name"] for m in contract["per_layer"]]
    values = per_layer(analysis, names)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in contract["per_layer"]}
    extra = {"requests": len(records), "spans": analysis["spans"],
             "untraced_latency_s": untraced_s, "traced_latency_s": traced_s}
    return records, metrics, extra


def replay(args) -> None:
    stream, execute, judge = setup(args.workload, args.seed)
    records = run_stream(stream, execute, judge, limit=args.replay)
    print(json.dumps({"latency_s": sum(r[1] for r in records),
                      "requests": len(records)}))


def run_all(args) -> int:
    """Every workload in its own process; every metric by name and unit."""
    worst = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print("%s: exit %d" % (workload, done.returncode))
            worst = max(worst, done.returncode)
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        print("%s: correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "hyperseries" / "__init__.py").is_file():
        sys.stderr.write("no hyperseries sources at %s\n" % SRC)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    if args.replay is not None:
        replay(args)
        return 0
    contract = load_contract()
    run = traced_run if args.trace else untraced_run
    records, metrics, extra = run(args, contract)
    stamp = fingerprint(workloads.generate(args.workload, args.seed))
    grades = grade_lists(records)
    failed = len(grades[oracle.FAILED])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stream_fingerprint": stamp, "environment": environment(),
              "stated_mix": workloads.stated_mix(args.workload),
              "metrics": metrics, "run": extra,
              "per_kind": per_key_stats(records), "graded": grades}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                  args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("stream %s  env %s" % (stamp, json.dumps(record["environment"])))
    for grade in (oracle.FAILED, oracle.INCONCLUSIVE):
        for entry in grades[grade]:
            print("%s: %s at %d bits: %s" % (grade, entry["kind"], entry["bits"],
                                             entry["reason"]))
    for name, metric in metrics.items():
        print("%-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mpf

from hyperseries import netexpr
from hyperseries.config import load_config
from hyperseries.nets import ConfigError, gauge_le_star
from hyperseries.report import (CheckResult, Report, canonical_bytes, digest,
                                jsonable, overall_status)
from hyperseries.series import weak_witness


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "hyperseries.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.grid.precision == 256
        assert len(cfg.grid) == 8
        assert cfg.rho.name == "rho"
        series = cfg.series("geometric")
        assert weak_witness(series.coeffs, series.rho, series.grid) == (0, 0)

    def test_file_round_trip(self, tmp_path):
        payload = {
            "precision": 128,
            "grid": {"decades": [1, 5]},
            "tail_start": 2,
            "gauges": {"rho": "eps", "sigma": "eps^2"},
            "series": {"halves": {"coeffs": "1/2^n", "center": "0"}},
            "points": {"third": "1/3"},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        cfg = load_config(str(path))
        assert cfg.grid.precision == 128
        assert len(cfg.grid) == 5
        assert cfg.grid.tail_start == 2
        series = cfg.series("halves")
        relation = gauge_le_star(series.sigma, series.rho, series.grid)
        assert relation.witness["Q"] == 2
        point = cfg.point("third")
        assert point.values[0] == mpf(1) / 3 or abs(point.values[0] - mpf(1) / 3) < mpf("1e-30")

    def test_bad_precision_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"precision": 16}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_broken_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_inline_expression_series(self):
        cfg = load_config(None)
        series = cfg.series("1/(n+1)")
        assert series.coeffs.expr == netexpr.parse("1/(n+1)")
        assert series.coeffs.n_max is None
        assert series.center.values == cfg.zero.values

    def test_built_in_series_built_once(self, tmp_path):
        cfg = load_config(None)
        for name in ("geometric", "doubling", "exponential", "zero-class",
                     "delta"):
            assert cfg.series(name) is cfg.builtin(name)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"series": {"geometric": {"coeffs": "2^n", "center": "0"}}}))
        shadowed = load_config(str(path))
        assert shadowed.series("geometric").coeffs.expr == netexpr.parse("2^n")
        assert shadowed.builtin("geometric").coeffs.expr == netexpr.parse("1")
        assert shadowed.config_hash != cfg.config_hash

    def test_short_table_builds_without_witness(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"series": {"short": {"coeffs": ["1", "1/2", "1/4", "1/8"]}}}))
        series = load_config(str(path)).series("short")
        assert series.coeffs.n_max == 3
        assert weak_witness(series.coeffs, series.rho, series.grid) is None

    def test_witness_search_errors_propagate(self, monkeypatch):
        import hyperseries.series as series
        from hyperseries.cli import main

        def broken(*args, **kwargs):
            raise RuntimeError("witness search broke")

        monkeypatch.setattr(series, "check_weak_moderate", broken)
        with pytest.raises(RuntimeError, match="witness search broke"):
            main(["algebra", "add", "--series", "geometric",
                  "--series2", "doubling", "--n-max", "16"])

    def test_coefficient_csv_round_trip(self, tmp_path):
        from hyperseries.report import coefficients_csv_rows, write_csv
        from hyperseries.series import HpsCoefficients, coeff_accessor
        cfg = load_config(None)
        grid, rho = cfg.grid, cfg.rho
        header = ["n"] + ["eps_%d" % i for i in range(len(grid))]
        families = {"shared": HpsCoefficients.from_expr("1/2^n"),
                    "per_point": HpsCoefficients.from_expr("eps^n/(n+1)")}
        specs = {}
        for name, family in families.items():
            path = tmp_path / (name + ".csv")
            write_csv(path, header,
                      coefficients_csv_rows(family, grid, rho, 16),
                      grid.precision)
            specs[name] = {"coeffs_csv": str(path)}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"series": specs}))
        cfg = load_config(str(config_path))
        for name, family in families.items():
            coeffs = cfg.series(name).coeffs
            assert coeffs.n_max == 16
            assert weak_witness(coeffs, rho, grid) == (0, 0)
            back = coeff_accessor(coeffs, grid, rho)
            original = coeff_accessor(family, grid, rho)
            assert all(back(n, i) == original(n, i)
                       for n in range(17) for i in range(len(grid)))
        # integer and p/q cells come back exact, so equal rows are shared
        assert all(isinstance(row, Fraction)
                   for row in cfg.series("shared").coeffs.rows)

    @pytest.mark.parametrize("table,text", [
        ("n,eps_0\n0\n", "row n=0"),
        # three columns on the eight-point grid, cells not all equal
        ("n,a,b,c\n0,1,2,3\n1,1,1,1\n", "has 3 values, the grid has 8"),
    ], ids=["no-values", "three-columns"])
    def test_coefficient_csv_narrower_than_grid(self, table, text, tmp_path,
                                                capsys):
        from hyperseries.cli import main
        csv_path = tmp_path / "table.csv"
        csv_path.write_text(table)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"series": {"s": {"coeffs_csv": str(csv_path)}}}))
        assert main(["radius", "--series", "s",
                     "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert text in lines[0]


class TestReport:
    def test_overall_status(self):
        checks = [CheckResult("a", "pass"), CheckResult("b", "fail")]
        assert overall_status(checks) == "fail"
        assert overall_status([CheckResult("a", "pass")]) == "pass"
        assert overall_status([CheckResult("a", "pass"),
                               CheckResult("b", "inconclusive")]) == "inconclusive"

    def test_hash_ignores_timing(self):
        checks = [CheckResult("a", "pass", {"value": mpf("0.5")})]
        fast = Report(command="x", config_hash="sha256:0", checks=checks,
                      timing_ms=1)
        slow = Report(command="x", config_hash="sha256:0", checks=checks,
                      timing_ms=999)
        assert digest(fast.body()) == digest(slow.body())
        assert json.loads(fast.to_json())["timing"]["total_ms"] == 1

    def test_jsonable_handles_package_values(self):
        from fractions import Fraction
        out = jsonable({"f": Fraction(1, 3), "m": mpf("0.25"), "t": (1, 2)})
        assert out["f"] == "1/3"
        assert out["m"] == "0.25"
        assert out["t"] == [1, 2]

    def test_canonical_bytes_sorted(self):
        assert canonical_bytes({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


_EXIT_CASES = [
    (("moderate", "--x", "rho^(-2)"), 0),
    (("moderate", "--x", "rho^(-(1/eps))"), 2),
    (("negligible", "--x", "rho^3"), 3),
    (("negligible", "--x", "rho^(1/eps)"), 0),
    (("weak-moderate", "--series", "factorial(n)"), 2),
    (("weak-moderate", "--series", "geometric"), 0),
    (("strong-eq", "--series", "geometric", "--series2", "1 + rho"), 2),
    (("strong-eq", "--series", "geometric", "--series2", "geometric"), 0),
    (("radius", "--series", "doubling"), 0),
    (("classify", "--series", "doubling"), 0),
    (("sum", "--series", "geometric", "--x", "rho"), 0),
    (("limit", "--series", "geometric", "--x", "1/2"), 0),
    (("bounded", "--series", "geometric", "--x", "1/2"), 0),
    (("algebra", "derive", "--series", "exponential", "--n-max", "16"), 0),
    (("graf", "--net", "exp", "--n-max", "72"), 0),
    (("algebra", "recenter", "--series", "geometric", "--x", "1/4"), 0),
    # depth 4 * --n-max is too shallow here; the doubled depths reach it
    (("algebra", "recenter", "--series", "geometric", "--x", "1/2"), 0),
]


class TestExitCodeContract:
    """Exit codes mirror the report's overall status, case by case."""

    @pytest.mark.parametrize("argv,expected", _EXIT_CASES,
                             ids=[" ".join(c[0]) for c in _EXIT_CASES])
    def test_in_process(self, argv, expected, capsys):
        from hyperseries.cli import main
        code = main(list(argv))
        assert code == expected
        body = json.loads(capsys.readouterr().out)
        mapping = {"pass": 0, "fail": 2, "inconclusive": 3}
        assert mapping[body["overall"]] == code


#: argv, and text the error line must contain ("" checks only its form).
_ERROR_CASES = [
    (("algebra", "div", "--series", "geometric", "--series2", "zero-class",
      "--n-max", "8"), ""),
    # no flag sets recenter's m_max, so the advice names --n-max
    (("algebra", "recenter", "--series", "geometric", "--x", "1/2",
      "--n-max", "1"),
     "; raise --n-max (recenter sums to at most 64 * --n-max)"),
    (("algebra", "reverse", "--series", "geometric", "--n-max", "0"), ""),
    (("moderate", "--x", "rho", "--precision", "0"),
     "precision must be at least 64 bits"),
    # no dyadic block of n below 8, so no growth evidence at all
    (("graf", "--series", "factorial(n)", "--n-max", "-1"),
     "n_max must be >= 8"),
    # below n = 8 the shrinking-slope proxy never runs
    (("strong-eq", "--series", "geometric", "--series2", "doubling",
      "--n-max", "-1"), "n_max must be >= 8"),
    # the root curve |a_n|^(1/n) has no n = 0 entry
    (("radius", "--series", "geometric", "--window", "0", "100"),
     "window must start at n >= 1"),
    (("algebra", "compose", "--series", "geometric", "--series2", "doubling",
      "--n-max", "-1"), "n_max must be >= 0"),
    (("algebra", "derive", "--series", "geometric", "--n-max", "-1"),
     "n_max must be >= 0"),
    # a tail target rho^q with q < 1 is no tail control at all
    (("limit", "--series", "geometric", "--x", "1/2", "--q-target", "-3"),
     "q_target must be >= 1"),
    # a cap of no terms is a bad setting, not a divergence verdict
    (("limit", "--series", "geometric", "--x", "1/2", "--n-cap", "0"),
     "n_cap must be >= 1"),
    # recenter sums to m_max = 4 * --n-max and audits the tail at m_max - 1
    (("algebra", "recenter", "--series", "geometric", "--x", "1/4",
      "--n-max", "0"), "recenter needs m_max >= 1 (got 0)"),
    # a negative --n-max is named before the m_max it scales
    (("algebra", "recenter", "--series", "geometric", "--x", "1/4",
      "--n-max", "-1"), "n_max must be >= 0"),
]


def _error_case_ids(cases):
    """The first two words of argv; a later row whose name is taken also
    names the last flag it passes, and then that flag's value."""
    ids = []
    for argv, _ in cases:
        name = " ".join(argv[:2])
        last = max(i for i, a in enumerate(argv) if a.startswith("--"))
        for word in argv[last:last + 2]:
            if name in ids:
                name += " " + word
        ids.append(name)
    return ids

#: Config documents that name a bad value, and text the error line contains.
_BAD_CONFIGS = [
    ({"series": {"s": {"coeffs": "1", "rho": "nope"}}}, "'nope'"),
    ({"series": {"s": {"coeffs": "1", "sigma": ["x"]}}}, "gauge"),
    ({"grid": {"decades": [1]}}, "grid.decades"),
    ({"grid": {"decades": ["a", 3]}}, "grid.decades"),
    ({"grid": {"decades": [1, 100000000]}}, "more than 100 points"),
    ({"grid": 5}, "grid"),
    ({"grid": {"points": 5}}, "grid.points"),
    ([1, 2], "JSON object"),
    ({"precision": "256"}, "precision"),
    ({"tail_start": "1"}, "tail_start"),
    ({"gauges": ["eps"]}, "gauges"),
    ({"series": {"s": "1"}}, "'s'"),
    ({"series": {"s": {"coeffs": "1", "n_max": "5"}}}, "n_max"),
    ({"points": ["1/2"]}, "points"),
]


def _public_exceptions():
    import importlib
    import inspect
    import pkgutil
    import hyperseries
    found = {}
    for info in pkgutil.iter_modules(hyperseries.__path__):
        module = importlib.import_module("hyperseries." + info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and not name.startswith("_") \
                    and cls.__module__ == module.__name__:
                found[name] = cls
    return found


def _documented_exit_rows():
    text = (Path(__file__).resolve().parents[1] / "docs"
            / "report-schema.md").read_text()
    return {int(line.split("|")[1]): line for line in text.splitlines()
            if line.startswith("| ") and line.split("|")[1].strip().isdigit()}


class TestErrorExits:
    """Errors end in a documented exit code and one error line, never a
    traceback."""

    @pytest.mark.parametrize("argv,text", _ERROR_CASES,
                             ids=_error_case_ids(_ERROR_CASES))
    def test_algebra_error_is_one_config_error_line(self, argv, text, capsys):
        from hyperseries.cli import main
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert text in lines[0]

    @pytest.mark.parametrize("document,text", _BAD_CONFIGS,
                             ids=[json.dumps(c[0]) for c in _BAD_CONFIGS])
    def test_bad_config_is_one_config_error_line(self, document, text,
                                                 tmp_path, capsys):
        from hyperseries.cli import main
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["radius", "--series", "s", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert text in lines[0]

    def test_every_public_exception_has_a_documented_exit(self, monkeypatch,
                                                          capsys):
        from hyperseries import cli
        rows = _documented_exit_rows()
        for name, cls in sorted(_public_exceptions().items()):
            def raise_it(cfg, args, sink, exc=cls.__new__(cls)):
                raise exc

            monkeypatch.setattr(cli, "_cmd_moderate", raise_it)
            code = cli.main(["moderate", "--x", "1"])
            capsys.readouterr()
            assert code in rows and code != 0, name
            assert "`%s`" % name in rows[code], name


#: argv and the report hash of ``algebra`` commands.  The first ten were
#: written while each operation still stored a weak witness on its result;
#: the reported witness is now searched when the report is written and must
#: come out the same.  The last was written while ``recenter`` still looped
#: over the grid points itself.
_ALGEBRA_HASHES = [
    ("add --series geometric --series2 doubling --n-max 16",
     "e5ed1293907e93833a81b78052a9bbca76acf0abc1abd9ddef33b106b86b6fc3"),
    ("mul --series geometric --series2 doubling --n-max 16",
     "d90807ec01fc99a6012b20a77cde2990dfe7824b1ccd6c21201d87ff7ef40c85"),
    ("div --series 3/2^n --series2 geometric --n-max 12",
     "1af2f2c5a4dc66183d0e28e131048ffdd5460260085ba74c3c0430b56a849884"),
    ("compose --series exponential --series2 2^n --n-max 12",
     "3c7c766f346804db91a1e57c1d28c4dca45c9f60ae78e2beab7a535a81b75788"),
    ("derive --series exponential --n-max 16",
     "b22f8c1f65d439c39fa4b9215318d0a14dcc04abab7bec587e10dca0f0f2d095"),
    ("integrate --series geometric --n-max 16",
     "ea1463b6fb68faf8f6fa448d5a8b5b6f2d973b375d7ff4f3e9cc1aba3dd543dc"),
    ("reverse --series geometric --n-max 10",
     "f0ddf62c99a085562513f4623e425cddde37671aaef9e173d2f8fb87d61d3486"),
    ("reverse --series geometric --n-max 4",
     "045f8744415cb4e5bfad9d8774a5417da0580b2e4f441f175619b7417b670b37"),
    ("recenter --series geometric --x 1/4",
     "68751e81a35a57a69055affc9488752213d7e4a6b0a53d25bfaced7d2b6d31c3"),
    ("add --series delta --series2 geometric --n-max 20",
     "5ea2deb5ae62ad5cca54812d07aa039aff893cbe63a954bc7611cb09e21d4cef"),
    # the shift rho varies across the grid: one column per grid point
    ("recenter --series geometric --x rho --n-max 16",
     "0ee08d858132291404f5ce460c4c1a23ce4fea54e2d8069db903feb44e53bac6"),
]


@pytest.mark.parametrize("argv,expected", _ALGEBRA_HASHES,
                         ids=[c[0] for c in _ALGEBRA_HASHES])
def test_algebra_report_hash(argv, expected, capsys):
    from hyperseries.cli import main
    assert main(["algebra"] + argv.split()) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["report_hash"] == "sha256:" + expected


#: argv, exit code and report hash of ``converge`` commands: passes, a
#: radius failure, and a limit failure decided on partial evidence.
_CONVERGE_HASHES = [
    ("--series geometric --x 1/2 --precision 128", 0,
     "743e953d3b587141070303213db13792eb1cd61fe5e352b6bca5b05bd55d8ed6"),
    ("--series doubling --x rho --precision 128", 0,
     "205eaa89e3722d23c6d79f5b4cd9b94a3dd5d3eefaaaae9ef8dbb88b848684d4"),
    ("--series zero-class --x rho --precision 512", 0,
     "3b4fa9af8c7ba1c3e6ab5c72a8b87a7c9cf92a8acf5e3f145936088054e503d5"),
    ("--series rho*2^n --x rho^(-1) --precision 512", 2,
     "926fc2bc9f7a4e55745263dd88e6139d368cfb21c4191339d1900a09538b1746"),
    ("--series exponential --x rho^(-1) --precision 256", 2,
     "33cae0018ab5362f0b77a0531da35e22d46f632edcb22ffc9c2ae6ab940ec537"),
]


@pytest.mark.parametrize("argv,code,expected", _CONVERGE_HASHES,
                         ids=[c[0] for c in _CONVERGE_HASHES])
def test_converge_report_hash(argv, code, expected, capsys):
    from hyperseries.cli import main
    assert main(["converge"] + argv.split()) == code
    body = json.loads(capsys.readouterr().out)
    assert body["report_hash"] == "sha256:" + expected


#: argv, exit code and report hash of the predicates whose search bounds
#: are module constants.
_PREDICATE_HASHES = [
    ("weak-moderate --series geometric", 0,
     "501f9e268fb1d5e7186aefccd2ab7b22dd65d428f312adc37e5ee232691daa02"),
    ("weak-moderate --series factorial(n)", 2,
     "60dbb5c9d54e9cd121b12f96567135f93d9de44b74e68593e4668ade62b6531a"),
    # the note names the largest (Q, R) tried, (8, 8)
    ("weak-moderate --series rho^(-9*n)", 3,
     "a3b420ca441440c87962b7562b9893f28e8dfad5a46bc6089027a3e61b06fd6a"),
    ("strong-eq --series geometric --series2 1+rho", 2,
     "c09abf57c52392b8b2363ed6d73d92d5aa93b405ed4e1337329d8b6877979dac"),
    ("strong-eq --series geometric --series2 1+rho^((n+1)/eps)", 0,
     "74d7464a2563ff091e9760172de9507808a5d1a5a20ff291e690eb185c370a73"),
    ("classify --series doubling", 0,
     "7138553c79d593a263b30d99d334184e0e56b95f16bdf8c39eeb0b58ebf7de36"),
    ("classify --series exponential", 0,
     "6df711c6245ba6416e2a8a6b65ccc7df2f3d211c9b7186974d25270d2cad2696"),
    ("classify --series zero-class", 0,
     "fc1f77a5e077c9e69e0270ca5f3d80e293f9fcc996808372ac996220659fc5f2"),
    ("bounded --series geometric --x 1/2", 0,
     "c13fdc510ae38aeb1a4fa2a21b5ae35685ed70c32f796e74155507fee9060d77"),
    ("bounded --series rho*2^n --x rho^(-1)", 3,
     "7dc93f33da2ecf5802ed290c6c13bf3848be16b7a9e77151c7b4e92e195e03e4"),
    ("bounded --series 2^n --x 1", 3,
     "377a45d370ea1b637099ce026bd11e227d1cd07ee49fe71243f1fb06c73a1183"),
    ("bounded --series delta --x rho", 0,
     "af3bcf03c453cc47be5ab1322be9f13505e99c3edcebec3bbcec9c9d32041358"),
    ("example flat", 0,
     "0585a840a7589780d810fdc4bd90ac0c99d8515e04453050b2ec079a69cd0375"),
    ("example nowhere", 0,
     "e4278c836a2a470bbc397df55078f8fe885c7850f4ee7b46935dd779ada444db"),
]


@pytest.mark.parametrize("argv,code,expected", _PREDICATE_HASHES,
                         ids=[c[0] for c in _PREDICATE_HASHES])
def test_predicate_report_hash(argv, code, expected, capsys):
    from hyperseries.cli import main
    assert main(argv.split()) == code
    body = json.loads(capsys.readouterr().out)
    assert body["report_hash"] == "sha256:" + expected


def _documented_flags():
    """Every ``--flag`` in README's "Command line" section and in docs/."""
    import re
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    texts = [section] + [path.read_text()
                         for path in sorted((root / "docs").glob("*.md"))]
    return {flag for text in texts
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)}


def test_documented_flags_exist():
    """Every documented flag is accepted, and every accepted flag but the
    help flags is documented."""
    from hyperseries.cli import build_parser
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if action.choices and "converge" in action.choices)
    accepted = {flag for command in subparsers.choices.values()
                for flag in command._option_string_actions} - {"-h", "--help"}
    flags = _documented_flags()
    assert flags and flags <= accepted, sorted(flags - accepted)
    assert accepted <= flags, sorted(accepted - flags)


@pytest.mark.slow
class TestCliProcess:
    def test_moderate_pass(self):
        proc = run_cli("moderate", "--x", "rho^(-2)")
        assert proc.returncode == 0
        body = json.loads(proc.stdout)
        assert body["overall"] == "pass"
        assert body["checks"][0]["details"]["verdict"]["witness"]["N"] == 2

    def test_negligible_inconclusive_exit(self):
        proc = run_cli("negligible", "--x", "rho^3")
        assert proc.returncode == 3

    def test_weak_moderate_fail_exit(self):
        proc = run_cli("weak-moderate", "--series", "factorial(n)")
        assert proc.returncode == 2

    def test_usage_error_exit(self):
        proc = run_cli("radius")  # missing --series
        assert proc.returncode == 1

    def test_unknown_command_exit(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_config_error_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        proc = run_cli("moderate", "--x", "rho", "--config", str(bad))
        assert proc.returncode == 1

    def test_report_determinism_across_processes(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            proc = run_cli("example", "geometric", "--out", str(out))
            assert proc.returncode == 0
        body_a = json.loads(out_a.read_text())
        body_b = json.loads(out_b.read_text())
        body_a.pop("timing")
        body_b.pop("timing")
        assert body_a == body_b
        assert body_a["report_hash"].startswith("sha256:")

    def test_csv_emission(self, tmp_path):
        sink = tmp_path / "curves"
        proc = run_cli("radius", "--series", "doubling", "--csv", str(sink))
        assert proc.returncode == 0
        lines = (sink / "radius.csv").read_text().splitlines()
        assert lines[0] == "eps,limsup,radius,method"
        assert len(lines) == 9

    def test_algebra_csv(self, tmp_path):
        sink = tmp_path / "tables"
        proc = run_cli("algebra", "mul", "--series", "geometric",
                       "--series2", "geometric", "--n-max", "12",
                       "--csv", str(sink))
        assert proc.returncode == 0
        lines = (sink / "algebra_mul.csv").read_text().splitlines()
        assert lines[1].split(",")[1] == "1"
        assert lines[3].split(",")[1] == "3"

    def test_example_nowhere(self):
        proc = run_cli("example", "nowhere")
        assert proc.returncode == 0

    def test_converge_fail_exit(self):
        proc = run_cli("converge", "--series", "exponential",
                       "--x=rho^(-1)")
        assert proc.returncode == 2


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr

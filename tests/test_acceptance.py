"""The acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line (visible with ``pytest -s`` or in the CLI
``suite`` report).  Each criterion's status and details must also hash to
the recorded digest, so a changed witness or counterexample fails here
until this table is updated with a reason."""

import json

import pytest

from hyperseries import acceptance, cli, corpus
from hyperseries.acceptance import CRITERIA, run_suite
from hyperseries.config import load_config
from hyperseries.report import CheckResult, digest, jsonable
from hyperseries.series import TableExhaustedError

#: report.digest of {"status", "details"} per criterion, at 256 bits.
DIGESTS = {
    "01-geometric-identity":
        "sha256:de21fc2d0e4032ce907ecd9cf8f9a094a6f1ec1bb3432f6ef66770eef5d97521",
    "02-exponential-split":
        "sha256:6cf22261f3385b56e6b17243b1b63279c3725c171ce716538aedb52d086b87ae",
    "03-radius-values":
        "sha256:951f7d78085a3cb370781dd3820245fcc36b108037f8eb685c6f1def488ce377",
    "04-radius-stability":
        "sha256:b846d82c12e2c90b8119e63d019eb6913da174f3c64ecdc56a1e0fc78ac8e1e7",
    "05-division-oracle":
        "sha256:0ae79aa30b775be11bc4391c93c65996cad6d3389e99575e660c7d0c35877d1e",
    "06-cauchy-product":
        "sha256:ca21d9278abe4b9340d6261eaf8868e178228a9faf9487045f142d87b6881132",
    "07-composition-reversion":
        "sha256:61393759c6db01a8e7db2b5aef2007993f324d1abf79a78cfe7ea0c3fb3bd487",
    "08-derived-radius":
        "sha256:37f7cfeb55c7ca437a70773f0e301c90d67ef6db4e3981ea222c3021c93c3082",
    "09-dirac-delta":
        "sha256:979552772e8e108285d8513f692016f07ff105c831b1966c692711010e31a131",
    "10-growth-characterization":
        "sha256:92afd13f1626f04805cf11be7fdbf354238ce979b0708a67b927ee60fbd9e4e1",
    "11-representative-independence":
        "sha256:d9d7ca28c4e8599d02fc0b608c7272a808d1db5f6e6858ce926afe622a375931",
    "12-convergence-ball":
        "sha256:1a12dbfe8b2877f8557ef4439df729a47b68ef8ed4e36aefc485b371c6c23b91",
    "13-flat-point":
        "sha256:107ac80afc09cf2935b85aa6d96d1a365f6da8f5739cd4c63313ae37fd059fe5",
    "14-determinism":
        "sha256:0808284bb258c298cfbd329598a92cb48108943f07a173c237ba2c13e574efb0",
}


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name, env):
    result = CRITERIA[name](env)
    print("%-4s %s" % (result.status.upper(), name))
    assert result.passed, jsonable(result.details)
    body = {"status": result.status, "details": jsonable(result.details)}
    assert digest(body) == DIGESTS[name]


def _short_table(env):
    raise TableExhaustedError("table ends at n=96, need 97")


def _passing(env):
    return CheckResult(name="stand-in", status="pass")


def test_suite_goes_on_after_a_config_error(env, monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", {"01-short-table": _short_table,
                                                 "02-stand-in": _passing})
    echoed = []
    results = run_suite(env, echo=echoed.append)
    assert [(r.name, r.status) for r in results] == [
        ("short-table", "inconclusive"), ("stand-in", "pass")]
    assert results[0].details == {
        "error": "TableExhaustedError: table ends at n=96, need 97"}
    assert echoed == ["INCONCLUSIVE 01-short-table", "PASS 02-stand-in"]


def test_suite_report_written_after_a_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", {"01-short-table": _short_table,
                                                 "02-stand-in": _passing})
    out = tmp_path / "suite.json"
    assert cli.main(["suite", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["overall"] == "inconclusive"
    assert [c["status"] for c in report["checks"]] == ["inconclusive", "pass"]


def test_suite_other_errors_propagate(env, monkeypatch):
    def broken(env):
        raise RuntimeError("bug")

    monkeypatch.setattr(acceptance, "CRITERIA", {"01-broken": broken,
                                                 "02-stand-in": _passing})
    with pytest.raises(RuntimeError):
        run_suite(env)


def test_delta_family_built_once_per_environment(monkeypatch):
    """Criteria 04 and 09 and the CLI's delta series share one mollifier
    and one delta table."""
    calls = []
    build = corpus.delta_setup

    def counting(grid, rho):
        calls.append(grid.precision)
        return build(grid, rho)

    monkeypatch.setattr(corpus, "delta_setup", counting)
    cfg = load_config()
    assert CRITERIA["04-radius-stability"](cfg).passed
    assert CRITERIA["09-dirac-delta"](cfg).passed
    assert cfg.series("delta").coeffs is cfg.delta_setup()[1]
    assert calls == [256]

"""Machine-readable reports: canonical JSON, content hashes, CSV curves.

Reports are deterministic by construction: all numeric payloads are
rendered to decimal strings at the working precision, dictionary keys are
sorted, and the content hash covers everything except the timing block.
Two runs of the same command on the same config produce byte-identical
canonical bodies.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from fractions import Fraction
from typing import Iterable, List, Optional

from mpmath import mpf

from .nets import Verdict
from .numerics import decimal_str

SCHEMA_VERSION = "1"
TOOL_VERSION = "0.1.0"

PASS_EXIT = 0
USAGE_EXIT = 1
FAIL_EXIT = 2
INCONCLUSIVE_EXIT = 3


def jsonable(value, bits: int = 256):
    """Map package values onto JSON primitives, deterministically."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return decimal_str(value, bits)
    if isinstance(value, mpf):
        return decimal_str(value, bits)
    if isinstance(value, Verdict):
        return {"status": value.status,
                "witness": jsonable(value.witness, bits),
                "counterexample": jsonable(value.counterexample, bits),
                "notes": value.notes}
    if isinstance(value, dict):
        return {str(k): jsonable(v, bits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v, bits) for v in value]
    if is_dataclass(value):
        return jsonable(asdict(value), bits)
    if hasattr(value, "describe"):
        return jsonable(value.describe(), bits)
    return str(value)


def canonical_bytes(payload: dict) -> bytes:
    """Sorted-key, no-whitespace-jitter JSON encoding used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("utf-8")


def digest(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_bytes(payload)).hexdigest()


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | inconclusive
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def overall_status(checks: Iterable[CheckResult]) -> str:
    statuses = [c.status for c in checks]
    if all(s == "pass" for s in statuses):
        return "pass"
    if any(s == "fail" for s in statuses):
        return "fail"
    return "inconclusive"


@dataclass
class Report:
    command: str
    config_hash: str
    checks: List[CheckResult]
    seed: Optional[int] = None
    timing_ms: Optional[int] = None

    @property
    def overall(self) -> str:
        return overall_status(self.checks)

    def body(self) -> dict:
        """Everything that is hashed (at 256 bits); excludes timing by contract."""
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "checks": [{"name": c.name, "status": c.status,
                        "details": jsonable(c.details)}
                       for c in self.checks],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        body = self.body()
        body["report_hash"] = digest(body)
        body["timing"] = {"total_ms": self.timing_ms}
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    def exit_code(self) -> int:
        return {"pass": PASS_EXIT, "fail": FAIL_EXIT,
                "inconclusive": INCONCLUSIVE_EXIT}[self.overall]


class Stopwatch:
    def __init__(self):
        self.start = time.monotonic()

    def ms(self) -> int:
        return int((time.monotonic() - self.start) * 1000)


def write_csv(path, header, rows, bits: int = 256) -> None:
    """Decimal-string CSV; header row first, values at full precision."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(
                v if isinstance(v, str) else
                (str(v) if isinstance(v, int) else decimal_str(v, bits))
                for v in row) + "\n")


def coefficients_csv_rows(coeffs, grid, rho, n_max: int):
    """n-major, grid-minor coefficient table rows for CSV export."""
    from .series import coeff_rows, point_values
    return [[n, *point_values(row, len(grid))]
            for n, row in enumerate(coeff_rows(coeffs, grid, rho, n_max))]


def read_coefficients_csv(path, grid):
    """Read a coefficient table written by :func:`write_csv` back into a
    family with one value per point of ``grid``; integer and `p/q` cells
    come back exact, decimal cells as mpf."""
    from .series import HpsCoefficients

    def cell(text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        if re.fullmatch(r"[+-]?[0-9]+", text):
            return Fraction(int(text))
        if text in ("inf", "-inf", "nan"):
            raise ValueError("non-finite coefficient in %s" % path)
        import mpmath
        with mpmath.workprec(grid.precision):
            return mpf(text)

    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline()
        if not header.startswith("n,"):
            raise ValueError("coefficient CSV must start with an 'n' column")
        rows = [tuple(cell(p) for p in line.rstrip("\n").split(",")[1:])
                for line in handle]
    for n, row in enumerate(rows):
        if len(row) != len(grid):
            raise ValueError("row n=%d of %s has %d values, the grid has %d "
                             "points" % (n, path, len(row), len(grid)))
    return HpsCoefficients.from_column(rows)

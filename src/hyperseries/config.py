"""Run configuration: one JSON document naming grids, gauges and series.

Example::

    {
      "precision": 256,
      "grid": {"decades": [1, 8]},
      "tail_start": 1,
      "gauges": {"rho": "eps", "sigma": "eps"},
      "series": {
        "geometric": {"coeffs": "1", "center": "0"},
        "bump": {"coeffs": ["1", "1/2", "1/4"], "center": "0"}
      },
      "points": {"half": "1/2", "drho": "rho"}
    }

Unnamed pieces fall back to the standard setup (decade grid, rho = sigma =
eps, the bundled example series).  Every value that the grammar of
:mod:`hyperseries.netexpr` accepts can appear where an expression is
expected; tables are lists of expression strings in ``n`` only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from . import corpus, netexpr
from .nets import ConfigError, EpsGrid, Gauge, GenNum
from .report import digest
from .series import HpsCoefficients, HpsSeries, make_series

DEFAULT_PRECISION = 256
#: Most points a ``grid.decades`` range may hold (the default range has 8).
MAX_DECADE_POINTS = 100


@dataclass
class RunConfig:
    grid: EpsGrid
    gauges: Dict[str, Gauge]
    series_specs: Dict[str, dict]
    points: Dict[str, str]
    raw: dict
    config_hash: str
    _series_cache: dict = field(default_factory=dict)

    @property
    def rho(self) -> Gauge:
        return self.gauges["rho"]

    @property
    def sigma(self) -> Gauge:
        return self.gauges["sigma"]

    def point(self, text: str) -> GenNum:
        """Resolve a named point or an inline expression."""
        expr = self.points.get(text, text)
        return GenNum.from_expr(expr, self.grid, self.rho)

    def series(self, name_or_expr: str) -> HpsSeries:
        if name_or_expr in self._series_cache:
            return self._series_cache[name_or_expr]
        spec = self.series_specs.get(name_or_expr)
        if spec is not None:
            built = self._build_series(spec)
        else:
            if name_or_expr == "delta":
                _, coeffs = corpus.delta_setup(self.grid, self.rho)
            else:  # inline coefficient expression
                coeffs = HpsCoefficients.from_expr(name_or_expr)
            built = make_series(coeffs, GenNum.constant(0, self.grid),
                                self.rho, self.sigma, self.grid)
        self._series_cache[name_or_expr] = built
        return built

    def _build_series(self, spec: dict) -> HpsSeries:
        coeff_spec = spec.get("coeffs")
        if coeff_spec is None and "coeffs_csv" in spec:
            from .report import read_coefficients_csv
            try:
                coeffs = read_coefficients_csv(spec["coeffs_csv"], self.grid)
            except (OSError, ValueError) as exc:
                raise ConfigError("cannot read coefficient CSV: %s" % exc)
        elif coeff_spec is None:
            raise ConfigError("series spec lacks 'coeffs'")
        elif isinstance(coeff_spec, list):
            values = []
            for entry in coeff_spec:
                expr = netexpr.parse(str(entry))
                if netexpr.free_vars(expr):
                    raise ConfigError("table entries must be constants")
                values.append(netexpr.evaluate(expr, {}, self.grid.precision))
            coeffs = HpsCoefficients.from_column(values)
        else:
            coeffs = HpsCoefficients.from_expr(
                str(coeff_spec), n_max=_integer(spec.get("n_max"), "n_max"))
        center = GenNum.from_expr(str(spec.get("center", "0")), self.grid,
                                  self.rho)
        try:
            rho, sigma = (self.gauges[spec.get(k, k)] for k in ("rho", "sigma"))
        except (KeyError, TypeError) as exc:
            raise ConfigError("series gauge is not defined: %s" % exc) from None
        return make_series(coeffs, center, rho, sigma, self.grid)


def _integer(value, name: str) -> Optional[int]:
    """``value`` when it is an integer or None; a ConfigError otherwise."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, int)):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    return value


def _object(raw: dict, key: str, default: dict) -> dict:
    value = raw.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError("%s must be a JSON object" % key)
    return value


def _build_grid(raw: dict, precision: int, tail_start: int) -> EpsGrid:
    grid_spec = _object(raw, "grid", {"decades": [1, 8]})
    if "decades" in grid_spec:
        decades = grid_spec["decades"]
        if not isinstance(decades, list) or len(decades) != 2:
            raise ConfigError("grid.decades must be [k_min, k_max]")
        k_min, k_max = (_integer(k, "grid.decades entry") for k in decades)
        if k_max - k_min + 1 > MAX_DECADE_POINTS:
            raise ConfigError("grid.decades [%d, %d] holds more than %d points"
                              % (k_min, k_max, MAX_DECADE_POINTS))
        return EpsGrid.decades(k_min=k_min, k_max=k_max,
                               tail_start=tail_start, precision=precision)
    if "points" in grid_spec:
        if not isinstance(grid_spec["points"], list):
            raise ConfigError("grid.points must be a list")
        points = []
        for text in grid_spec["points"]:
            expr = netexpr.parse(str(text))
            if netexpr.free_vars(expr):
                raise ConfigError("grid points must be constants")
            points.append(netexpr.eval_mpf(expr, {}, precision))
        return EpsGrid(points=tuple(points), tail_start=tail_start,
                       precision=precision)
    raise ConfigError("grid spec needs 'decades' or 'points'")


def load_config(path: Optional[str] = None,
                precision_override: Optional[int] = None,
                tail_start_override: Optional[int] = None) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        if not isinstance(raw, dict):
            raise ConfigError("config %s must hold a JSON object" % path)
    precision = _integer(precision_override if precision_override is not None
                         else raw.get("precision", DEFAULT_PRECISION),
                         "precision")
    if precision < 64:
        raise ConfigError("precision must be at least 64 bits")
    tail_start = _integer(tail_start_override if tail_start_override is not None
                          else raw.get("tail_start", 1), "tail_start")
    grid = _build_grid(raw, precision, tail_start)
    gauges = {"rho": Gauge.from_text("eps", "rho"),
              "sigma": Gauge.from_text("eps", "sigma")}
    for name, text in _object(raw, "gauges", {}).items():
        gauges[name] = Gauge.from_text(str(text), name)
    for required in ("rho", "sigma"):
        if required not in gauges:
            raise ConfigError("gauge %r must be defined" % required)
    series_specs = dict(_object(raw, "series", {}))
    for name, spec in series_specs.items():
        if not isinstance(spec, dict):
            raise ConfigError("series %r must be a JSON object" % name)
    for name, coeffs in corpus.EXPR_FAMILIES.items():
        series_specs.setdefault(name, {"coeffs": coeffs, "center": "0"})
    points = {str(k): str(v) for k, v in _object(raw, "points", {}).items()}
    normalized = {"precision": precision, "tail_start": tail_start,
                  "grid": raw.get("grid", {"decades": [1, 8]}),
                  "gauges": {k: netexpr.to_text(v.expr)
                             for k, v in sorted(gauges.items())},
                  "series": {k: series_specs[k] for k in sorted(series_specs)},
                  "points": points}
    return RunConfig(grid=grid, gauges=gauges, series_specs=series_specs,
                     points=points, raw=raw, config_hash=digest(normalized))

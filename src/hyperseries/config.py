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
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from . import corpus, netexpr
from .graf import MollifierSpec
from .nets import ConfigError, EpsGrid, Gauge, GenNum
from .report import digest
from .series import HpsCoefficients, HpsSeries, make_series

DEFAULT_PRECISION = 256
#: Most points a ``grid.decades`` range may hold (the default range has 8).
MAX_DECADE_POINTS = 100


@dataclass
class RunConfig:
    """The one run environment of the CLI and the acceptance suite; each
    series and the delta mollifier are built once per environment."""

    grid: EpsGrid
    gauges: Dict[str, Gauge]
    series_specs: Dict[str, dict]
    points: Dict[str, str]
    config_hash: str
    seed: int = 0
    _series_cache: dict = field(default_factory=dict)
    _builtins: dict = field(default_factory=dict)
    _delta: Optional[tuple] = None

    @property
    def rho(self) -> Gauge:
        return self.gauges["rho"]

    @property
    def sigma(self) -> Gauge:
        return self.gauges["sigma"]

    @property
    def zero(self) -> GenNum:
        return GenNum.constant(0, self.grid)

    def rng(self, salt: int) -> random.Random:
        return random.Random(self.seed * 1000003 + salt)

    def point(self, text: str) -> GenNum:
        """Resolve a named point or an inline expression."""
        expr = self.points.get(text, text)
        return GenNum.from_expr(expr, self.grid, self.rho)

    def series(self, name_or_expr: str) -> HpsSeries:
        """A series the config names, a built-in family, or an inline
        coefficient expression centered at zero."""
        spec = self.series_specs.get(name_or_expr)
        if spec is None and (name_or_expr == "delta"
                             or name_or_expr in corpus.EXPR_FAMILIES):
            return self.builtin(name_or_expr)
        if name_or_expr not in self._series_cache:
            self._series_cache[name_or_expr] = (
                self._build_series(spec) if spec is not None else
                make_series(HpsCoefficients.from_expr(name_or_expr),
                            self.zero, self.rho, self.sigma, self.grid))
        return self._series_cache[name_or_expr]

    def builtin(self, name: str) -> HpsSeries:
        """The built-in family ``name``, even where the config's own series
        shadow that name; the delta family reuses :meth:`delta_setup`."""
        if name not in self._builtins:
            self._builtins[name] = (
                make_series(self.delta_setup()[1], self.zero, self.rho,
                            self.sigma, self.grid) if name == "delta" else
                corpus.build_series(name, self.grid, self.rho, self.sigma))
        return self._builtins[name]

    def delta_setup(self) -> Tuple[MollifierSpec, HpsCoefficients]:
        """The :func:`corpus.delta_setup` mollifier and delta family."""
        if self._delta is None:
            self._delta = corpus.delta_setup(self.grid, self.rho)
        return self._delta

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
    hashed_series = {name: {"coeffs": coeffs, "center": "0"}
                     for name, coeffs in corpus.EXPR_FAMILIES.items()}
    hashed_series.update(series_specs)
    points = {str(k): str(v) for k, v in _object(raw, "points", {}).items()}
    normalized = {"precision": precision, "tail_start": tail_start,
                  "grid": raw.get("grid", {"decades": [1, 8]}),
                  "gauges": {k: netexpr.to_text(v.expr)
                             for k, v in sorted(gauges.items())},
                  "series": dict(sorted(hashed_series.items())),
                  "points": points}
    return RunConfig(grid=grid, gauges=gauges, series_specs=series_specs,
                     points=points, config_hash=digest(normalized))

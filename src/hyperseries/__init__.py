"""Arbitrary-precision calculus of gauge-indexed power series.

The package computes with nets: families of extended-precision values
indexed by a small parameter ``eps`` sampled on a finite grid.  A gauge
``rho`` (by default ``eps`` itself) sets the asymptotic scale; all size,
vanishing and equality statements are decided as three-valued verdicts
with explicit witnesses or counterexamples.  On top of that sit power
series whose coefficients are themselves nets: radius-of-convergence
estimation, hyperfinite partial sums with gauge-bounded truncation
indices, a four-condition membership test for the set of convergence,
the full closure algebra (sum, Cauchy product, division, composition,
derivation, integration, recentering, reversion), and the factorial
growth test for analytic behaviour, exercised on canonical examples up
to a mollifier-based Dirac delta.
"""

from .nets import (ConfigError, EpsGrid, Gauge, GenNum, HyperNat,
                   InvalidGaugeError, NotHypernaturalError, Verdict, ext_eq,
                   gauge_le_star, hypernat_from_expr, is_moderate,
                   is_negligible, valuation)
from .netexpr import EvalError, ParseError, eval_exact, eval_mpf, parse, to_text
from .series import (ConvergenceReport, DivergentSeriesError,
                     EventualBoundReport, HpsCoefficients, HpsSeries,
                     RadiusClassification, RadiusEstimate,
                     SummationBudgetError, check_strong_eq,
                     check_weak_moderate, classify_radius, converges_at,
                     derivative_net_moderate, derived_coefficients,
                     eventually_bounded, hyperfinite_sum, is_formal_hps,
                     make_series, radius, series_limit, weak_witness)
from .algebra import (InsufficientDepthError, NotInvertibleError, add,
                      cauchy_product, compose, identity_coefficients,
                      integrate, reciprocal_div, recenter, reverse)
from .graf import (DerivativeNet, GrowthWitness, InvalidMollifierError,
                   MollifierSpec, OutOfCheckableRangeError, delta_coeffs,
                   delta_derivative_net, delta_eval, flat_point_check,
                   flat_point_values, graf_check, make_mollifier,
                   nowhere_analytic_reject, taylor_coeffs)
from . import acceptance, corpus

__version__ = "0.1.0"

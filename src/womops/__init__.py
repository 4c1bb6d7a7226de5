"""Shipment-cycle policy optimization under review-driven demand feedback.

An e-tailer serves regular customers within a declared maximum delivery
time and premium members immediately, on a repeating three-phase
shipment cycle.  Reviews of the regular service feed back into premium
demand.  The package provides:

* closed-form policy solving for a fixed observed demand (``myopic``),
* the demand/operations feedback loop with long-run classification
  (``dynamics``),
* joint fee + policy optimization under the stationarity constraint
  lambda_p = R(signal) (``equilibrium``), and
* a reproducible benchmark harness with CSV/JSON outputs
  (``experiments``, ``cli``).
"""

from .domain import (EPS_NUM, MDT, NPS, CustomerResponse, FeeFamily, FeeModel,
                     MarketParams, ShipmentPolicy, SignalKind, SignalSpec,
                     cycle_profit, potential_market, profit_rate,
                     profit_rate_with_fees, respond, signal, signal_value)
from .dynamics import (DynamicsTrace, LongRunClass, LongRunKind, TracePoint,
                       predict_long_run, simulate, step, trace_rows)
from .equilibrium import (Branch, EquilibriumProblem, EquilibriumSolution,
                          FeeRegime, RecoveryClass, RecoveryReport,
                          SearchSpec, StructureReport, best_fee,
                          check_structure, closed_form_t3,
                          equilibrium_residual, recoverability, search_cap,
                          solve_equilibrium)
from .errors import (ConfigError, DomainError, InfeasibleProblem,
                     InvalidGrid, InvalidParams, InvalidPolicy,
                     RegimeViolation, UnsupportedSignal, WomopsError)
from .myopic import (GridSpec, PolicyCase, PolicySolution, candidate,
                     grid_search_policy, solve_policy)

__version__ = "0.1.0"

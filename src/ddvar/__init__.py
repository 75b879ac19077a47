"""Space-time domain-decomposed incremental 4D-Var on a 2D surrogate model."""

from ddvar.assim import (
    AssimilationProblem,
    TangentObsOperator,
    dual_analysis,
    kalman_gain_adjoint_apply,
    kalman_gain_apply,
    primal_analysis,
)
from ddvar.config import ExperimentConfig, emit_config, parse_config
from ddvar.control import ControlLayout, ControlVector
from ddvar.covariance import CovarianceR, build_control_covariance
from ddvar.experiment import build_problem, run_experiment
from ddvar.grid import (
    Grid,
    LocalField,
    Tile,
    TileLayout,
    TimeWindows,
    assemble,
    build_tiles,
    build_time_windows,
    restrict,
)
from ddvar.impact import (
    TransportFunctional,
    adjoint_sensitivity,
    column_section,
    cost_history_report,
    evaluate_functional,
    forecast_impact,
    observation_impact,
    observation_sensitivity,
)
from ddvar.model import ModelConfig, SurrogateModel
from ddvar.observations import ObservationSet, PlatformSpec, synthesize
from ddvar.schwarz import DDConfig, DDResult

__all__ = [
    "AssimilationProblem",
    "ControlLayout",
    "ControlVector",
    "CovarianceR",
    "DDConfig",
    "DDResult",
    "ExperimentConfig",
    "Grid",
    "LocalField",
    "ModelConfig",
    "ObservationSet",
    "PlatformSpec",
    "SurrogateModel",
    "TangentObsOperator",
    "Tile",
    "TileLayout",
    "TimeWindows",
    "TransportFunctional",
    "adjoint_sensitivity",
    "assemble",
    "build_control_covariance",
    "build_problem",
    "build_tiles",
    "build_time_windows",
    "column_section",
    "cost_history_report",
    "dual_analysis",
    "emit_config",
    "evaluate_functional",
    "forecast_impact",
    "kalman_gain_adjoint_apply",
    "kalman_gain_apply",
    "observation_impact",
    "observation_sensitivity",
    "parse_config",
    "primal_analysis",
    "restrict",
    "run_experiment",
    "synthesize",
]

__version__ = "0.1.0"

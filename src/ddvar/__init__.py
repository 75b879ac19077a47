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
from ddvar.control import ControlLayout
from ddvar.covariance import CovarianceR, build_control_covariance
from ddvar.experiment import build_problem, run_experiment
from ddvar.grid import (
    Grid,
    Tile,
    TileLayout,
    TimeWindows,
    build_tiles,
    build_time_windows,
    restrict,
)
from ddvar.impact import (
    TransportFunctional,
    adjoint_sensitivity,
    column_section,
    evaluate_functional,
    observation_impact,
    observation_sensitivity,
)
from ddvar.model import ModelConfig, SurrogateModel
from ddvar.observations import ObservationSet, PlatformSpec, synthesize
from ddvar.schwarz import DDConfig, DDResult

__all__ = [
    "AssimilationProblem",
    "ControlLayout",
    "CovarianceR",
    "DDConfig",
    "DDResult",
    "ExperimentConfig",
    "Grid",
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
    "build_control_covariance",
    "build_problem",
    "build_tiles",
    "build_time_windows",
    "column_section",
    "dual_analysis",
    "emit_config",
    "evaluate_functional",
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

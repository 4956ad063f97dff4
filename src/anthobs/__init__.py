"""anthobs: anthracnose disease dynamics and nonlinear state observers.

Simulates the within-host (ODE) and spatial reaction-diffusion (PDE) models
of anthracnose progression on coffee berries, runs Luenberger-like observers
that estimate the unmeasurable inhibition rate from berry/rot volumes, and
verifies the proven exponential error envelopes.
"""

from .config import ConfigError, LoadedConfig, load_config, write_config
from .metrics import (
    ErrorSeries,
    analytic_envelope,
    envelope_check,
    envelope_series,
    error_series_ode,
    error_series_pde,
    fit_decay_rate,
    l2_envelope,
    relative_abs_error,
)
from .ode import (
    Measurement,
    ModelState,
    ObserverState,
    check_conditions,
    make_measurement,
    model_rhs,
    observer_rhs,
)
from .params import (
    ParameterSet,
    SpatialParameterSet,
    Violation,
    gain_cap,
    validate,
    validate_spatial,
)
from .pde import (
    Grid,
    aggregate,
    check_conditions_spatial,
    laplacian_neumann,
)
from .runner import (
    RunRecord,
    Scenario,
    check_artifacts,
    emit_plot,
    run_scenario,
    scenario_matrix,
    sweep,
)
from .stepping import Trajectory, simulate, step_euler, step_rk4
from .systems import SpatialSystem, WithinHostSystem

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ErrorSeries",
    "LoadedConfig",
    "RunRecord",
    "Scenario",
    "Grid",
    "Measurement",
    "ModelState",
    "ObserverState",
    "ParameterSet",
    "SpatialParameterSet",
    "SpatialSystem",
    "Trajectory",
    "Violation",
    "WithinHostSystem",
    "aggregate",
    "analytic_envelope",
    "check_artifacts",
    "check_conditions",
    "check_conditions_spatial",
    "emit_plot",
    "envelope_check",
    "envelope_series",
    "error_series_ode",
    "error_series_pde",
    "fit_decay_rate",
    "gain_cap",
    "l2_envelope",
    "laplacian_neumann",
    "load_config",
    "make_measurement",
    "model_rhs",
    "observer_rhs",
    "relative_abs_error",
    "run_scenario",
    "scenario_matrix",
    "simulate",
    "step_euler",
    "step_rk4",
    "sweep",
    "validate",
    "validate_spatial",
    "write_config",
    "__version__",
]

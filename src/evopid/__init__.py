"""Evolutionary-programming auto-tuner for paired velocity PID controllers."""

from .ep import (
    EPConfig,
    EvaluationError,
    Gains,
    GenerationRecord,
    Individual,
    InitSpec,
    MemberRecord,
    MutationKind,
    MutationSpec,
    StopReason,
    run_ep,
)
from .harness import (
    ConfigError,
    EXPERIMENT_TABLE,
    ExperimentSpec,
    GainGrid,
    GridOracleResult,
    build_environment,
    build_experiment_spec,
    export_generations,
    export_trace,
    grid_oracle,
    load_generations,
    parse_config_file,
    parse_grid_file,
    render_result_table,
    run_experiment,
)
from .metrics import DIVERGENCE_AE, fitness_of, step_metrics
from .plant import (
    ChannelParams,
    ChannelTrace,
    FitnessRecord,
    PidState,
    PlantParams,
    RouteSpec,
    SimConfig,
    SimTrace,
    SimulationDiverged,
    pid_reset,
    pid_step,
    plant_step,
    route_setpoint,
    simulate_route,
)

__version__ = "0.1.0"

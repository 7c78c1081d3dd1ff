"""Simulation laboratory for measurement-based feedback state preparation on a qutrit."""

from .qcore import (
    DimensionError,
    StateValidityError,
    ValidationReport,
    basis_state,
    fidelity_pure_target,
    maximally_mixed,
    validate_density,
)
from .channels import (
    MeasurementModel,
    ParameterError,
    QuantumChannel,
    amplitude_damping,
    apply_channel,
    choi_matrix,
    condition_on_outcome,
    control_unitary,
    depolarizing,
    imprecise_measurement,
    is_cptp,
    outcome_probabilities,
    random_permutation,
    terminal_measurement,
)
from .controllers import (
    BasicTable,
    ControlAction,
    FullState,
    OpenLoop,
    Observation,
    OutcomePair,
    Policy,
    basic_policy,
    derive_basic_gains,
    policy_act,
)
from .dynamics import (
    EnvConfig,
    EpisodeTrace,
    FilterDivergenceError,
    StepRecord,
    estimate_average_state,
    filter_update,
    run_episode,
    step_nominal,
    step_true,
)
from .rngstream import RngStream

__version__ = "0.1.0"

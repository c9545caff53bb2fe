"""Truncated Fock-space simulator for heralded magnon-magnon entanglement.

Exact density-matrix pipelines for the entangling and read-out stages of a
two-station interferometric protocol, the thermal-contamination closed
forms, a cross-correlation entanglement witness, and a Monte Carlo click
sampler validated against the exact engine.
"""

from .fock import (
    DensityOperator,
    FockSpaceError,
    ModeOperator,
    ModeRegistry,
    MultiModeState,
    NormalizationError,
    RegistryMismatchError,
    UnknownModeError,
    annihilation,
    apply_unitary,
    creation,
    expectation,
    fidelity_with_pure,
    number_operator,
    partial_trace,
)
from .channels import (
    BeamsplitterSpec,
    ChannelError,
    ClickOutcome,
    DetectorSpec,
    SqueezerSpec,
    SwapSpec,
    TruncationError,
    beamsplitter_unitary,
    click_measurement,
    loss_channel,
    phase_shift_unitary,
    swap_coupler_unitary,
    thermal_state,
    two_mode_squeezer_unitary,
)
from .protocol import (
    HeraldError,
    HeraldedState,
    JointStatistics,
    ProtocolConfig,
    ProtocolError,
    ProtocolRegimeWarning,
    ThermalConsistencyReport,
    WitnessPoint,
    ZeroIntensityError,
    closed_form_fidelity,
    consistency_check_thermal,
    entangle_stage,
    entangle_sweep,
    exact_joint_statistics,
    exact_phase_statistics,
    ideal_target_state,
    mean_thermal_occupation,
    read_stage,
    separable_baseline,
    thermal_final_state,
    witness_exact,
)
from .montecarlo import (
    ClickRecord,
    EstimateWithError,
    EstimatorError,
    click_fractions,
    count_table,
    estimate_g2,
    estimate_witness,
    records_to_csv,
    sample_chunks,
    sample_counts,
    sample_trials,
    write_records,
)

__version__ = "0.1.0"

"""Quantum Prisoner's Dilemma with a tunable amount of shared entanglement.

The package covers the full arc of the experiment: the ideal unitary game
pipeline and its closed-form payoffs, Nash-equilibrium structure as the
entanglement grows, compilation of every gate to two-spin NMR pulse
sequences, noisy pulse-level execution, and least-squares state tomography
to read the payoffs back out.
"""

__version__ = "0.1.0"

from .equilibrium import (
    DEFAULT_GRID,
    EquilibriumReport,
    StrategyGrid,
    ThresholdPair,
    best_response,
    classify_regime,
    find_nash_grid,
    landscape,
    nash_payoff_curve,
    strategy_from_t,
    thresholds,
)
from .game import (
    COOPERATE,
    DEFAULT_TABLE,
    DEFECT,
    GAMMA_MAX,
    QUANTUM,
    GameOutcome,
    PayoffTable,
    Strategy,
    disentangling_gate,
    entangling_gate,
    play,
    strategy_unitary,
    sweep_gammas,
)
from .linalg import (
    fidelity_up_to_phase,
    trace_distance,
)
from .nmr import (
    NOISELESS,
    NoiseModel,
    Delay,
    Pulse,
    PulseSequence,
    compile_disentangler,
    compile_entangler,
    compile_strategies,
    experiment_duration,
    run_experiment,
    sequence_from_text,
    sequence_unitary,
)
from .tomography import (
    ALL_SETTINGS,
    MeasurementRecord,
    ReadoutSetting,
    ReconstructionResult,
    design_matrix_rank_check,
    payoff_from_density,
    reconstruct,
    records_from_text,
    records_to_text,
    tomography_records,
)

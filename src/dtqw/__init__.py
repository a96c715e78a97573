"""Discrete-time quantum walks of one and two particles under coin-phase disorder."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    COIN_L,
    COIN_R,
    LatticeOverflowError,
    WalkerState,
    delta_state,
    evolve,
    lattice_for,
    modes_to_state,
    position_distribution,
    state_to_modes,
)
from .disorder import (  # noqa: F401
    DisorderKind,
    PhaseField,
    ordered_field,
    sample_phase_field,
)
from .two_particle import (  # noqa: F401
    ExchangeSymmetry,
    JointDistribution,
    TwoParticleInput,
    aggregate_to_positions,
    distinguishable_joint,
    joint_mode_distribution,
    joint_position_distribution,
    marginal,
    marginal_positions,
    ordered_pair_distribution,
)
from .observables import (  # noqa: F401
    ObservableSeries,
    classical_baseline,
    ensemble_average_joints,
    ensemble_run,
    joint_entropy,
    mutual_information,
    variance_xm,
)
from .fitting import (  # noqa: F401
    FitError,
    FitResult,
    fit_exponential_decay,
    fit_gaussian_semilog,
    fit_power_law,
)
from .pathsum import PathSumResult, compare, path_sum_amplitudes  # noqa: F401
from .config import ScenarioConfig, load_scenario_json, scenario_from_dict  # noqa: F401
from .scenarios import RunManifest, preset, preset_names, run_scenario  # noqa: F401

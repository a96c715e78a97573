"""Discrete-time quantum walks of one and two particles under coin-phase disorder."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    COIN_L,
    COIN_R,
    delta_state,
    evolve,
    lattice_for,
)
from .disorder import DisorderKind, FieldBatch, PhaseField, sample_phase_field  # noqa: F401
from .two_particle import ExchangeSymmetry, JointBuilder  # noqa: F401
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
    fit_exponential_decay,
    fit_gaussian_semilog,
    fit_power_law,
)
from .pathsum import path_sum_amplitudes  # noqa: F401
from .config import ScenarioConfig, scenario_from_dict  # noqa: F401
from .scenarios import RunManifest, preset, preset_names, run_scenario  # noqa: F401

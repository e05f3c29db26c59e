"""Hitting-time bounds and Monte Carlo validation for populations of
absorbing Markov chains under uniform one-at-a-time scheduling."""

from .bounds import (
    BoundReport,
    assemble_report,
    theorem2_asymptotic,
    theorem3_bound,
    theorem4_bound,
    tN_asymptotic,
)
from .chain_model import (
    AbsorbingChain,
    InitialDistribution,
    SubGenerator,
    chain_spec,
    decompose,
    expected_hitting_times,
    load_chain_spec,
    mean_jump_count,
    validate_chain,
)
from .examples import (
    NamedExample,
    gen_classical,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    get_example,
    harmonic_number,
)
from .fluid import (
    CrossingResult,
    FluidTrajectory,
    crossing_time,
    fluid_trajectory,
    transient_survival,
)
from .numerics import (
    dominant_eigen,
    eigen_spectrum,
    expm_action,
    solve_linear,
)
from .phase_type import (
    PhaseType,
    SpectralParams,
    discrete_survival,
    spectral_params,
    x_threshold,
)
from .simulator import (
    OccupancyState,
    SimulationResult,
    TrajectorySample,
    estimate_hitting_time,
    simulate_trajectory,
)

__version__ = "0.1.0"

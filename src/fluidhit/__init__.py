"""Hitting-time bounds and Monte Carlo validation for populations of
absorbing Markov chains under uniform one-at-a-time scheduling."""

from .bounds import (
    BoundReport,
    assemble_report,
    coupon_bound,
    harmonic_number,
    theorem2_asymptotic,
    theorem3_bound,
    theorem3_uniform_cap,
    theorem4_bound,
    tN_asymptotic,
)
from .chain_model import (
    AbsorbingChain,
    InitialDistribution,
    SubGenerator,
    decompose,
    expected_hitting_times,
    load_chain_spec,
    mean_jump_count,
    validate_chain,
)
from .examples import (
    NamedExample,
    erlang_m0,
    gen_classical,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    get_example,
    random_chain,
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
    sample_absorption_step,
    spectral_params,
    stochastic_order_check,
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

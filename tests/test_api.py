"""fluidhit's public names, pinned: adding or dropping one changes the API README explains."""

import types

import fluidhit
from fluidhit import bounds, chain_model, examples, phase_type

PUBLIC = {
    "AbsorbingChain", "BoundReport", "CrossingResult", "FluidTrajectory",
    "InitialDistribution", "NamedExample", "OccupancyState", "PhaseType",
    "SimulationResult", "SpectralParams", "SubGenerator", "TrajectorySample",
    "assemble_report", "chain_spec", "crossing_time", "decompose",
    "discrete_survival", "dominant_eigen", "eigen_spectrum", "estimate_hitting_time",
    "expected_hitting_times", "expm_action", "fluid_trajectory", "gen_classical",
    "gen_fig3a", "gen_fig3b", "gen_tstage", "get_example", "harmonic_number",
    "load_chain_spec", "mean_jump_count", "simulate_trajectory", "solve_linear",
    "spectral_params", "tN_asymptotic", "theorem2_asymptotic", "theorem3_bound",
    "theorem4_bound", "transient_survival", "validate_chain", "x_threshold",
}


def test_public_names_are_pinned():
    names = {
        name for name, value in vars(fluidhit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC) == 41
    assert names == PUBLIC
    # Test-only routines live in tests/oracles.py or are gone, and sampling in simulator.
    left = [
        (phase_type, "stochastic_order_check"), (phase_type, "sample_absorption_step"),
        (bounds, "coupon_bound"), (bounds, "theorem3_uniform_cap"),
        (examples, "random_chain"), (examples, "erlang_m0"), (chain_model, "_walk_to_exit"),
    ]
    assert [name for module, name in left if hasattr(module, name)] == []

import math

import numpy as np
import pytest

from fluidhit import (
    InitialDistribution,
    OccupancyState,
    PhaseType,
    decompose,
    discrete_survival,
    estimate_hitting_time,
    gen_fig3b,
    gen_tstage,
    harmonic_number,
    run_to_absorption,
    sample_absorption_step,
    simulate_trajectory,
    step,
    validate_chain,
)
from fluidhit.errors import MaxStepsExceeded

from oracles import exact_occupancy_mean_hitting


def test_occupancy_state_validation():
    occ = OccupancyState(N=5, counts={0: 2, 1: 3})
    assert occ.absorbed == 2
    assert occ.fraction_absorbed == pytest.approx(0.4)
    with pytest.raises(ValueError):
        OccupancyState(N=5, counts={1: 3})
    with pytest.raises(ValueError):
        OccupancyState(N=2, counts={1: 3, 0: -1})


def test_occupancy_from_alpha_largest_remainder():
    alpha = InitialDistribution(alpha=np.array([0.5, 0.3, 0.2]))
    occ = OccupancyState.from_alpha(alpha, 10)
    assert occ.counts == {1: 5, 2: 3, 3: 2}
    # remainders force rounding: 7 * (0.5, 0.3, 0.2) = (3.5, 2.1, 1.4)
    occ7 = OccupancyState.from_alpha(alpha, 7)
    assert sum(occ7.counts.values()) == 7
    assert occ7.counts[1] == 4


def test_step_all_absorbed_is_fixed_point():
    chain = gen_tstage(1).chain
    rng = np.random.default_rng(0)
    occ = OccupancyState.all_in(0, 6)
    assert step(chain, occ, rng).counts == {0: 6}


def test_step_classical_deterministic_move():
    chain = gen_tstage(1).chain
    rng = np.random.default_rng(1)
    occ = OccupancyState.all_in(1, 4)
    nxt = step(chain, occ, rng)
    assert nxt.counts == {0: 1, 1: 3}


def test_step_conserves_population():
    chain = gen_fig3b(3).chain
    rng = np.random.default_rng(2)
    occ = OccupancyState.all_in(1, 8)
    for _ in range(200):
        occ = step(chain, occ, rng)
        assert sum(occ.counts.values()) == 8


def test_run_single_classical_chain():
    chain = gen_tstage(1).chain
    for seed in range(5):
        rng = np.random.default_rng(seed)
        assert run_to_absorption(chain, OccupancyState.all_in(1, 1), rng) == 1


def test_run_single_fig3b_geometric():
    T = 3
    ex = gen_fig3b(T)
    rng = np.random.default_rng(3)
    vals = [
        run_to_absorption(ex.chain, OccupancyState.all_in(1, 1), rng)
        for _ in range(20000)
    ]
    assert np.mean(vals) == pytest.approx(T, rel=0.03)


def test_run_already_absorbed():
    chain = gen_tstage(1).chain
    rng = np.random.default_rng(4)
    assert run_to_absorption(chain, OccupancyState.all_in(0, 5), rng) == 0


def test_run_max_steps_exceeded():
    chain = gen_fig3b(50).chain
    rng = np.random.default_rng(5)
    with pytest.raises(MaxStepsExceeded) as exc:
        run_to_absorption(chain, OccupancyState.all_in(1, 50), rng, max_steps=10)
    assert exc.value.steps > 10
    assert sum(exc.value.state.counts.values()) == 50


def test_estimate_matches_three_chain_oracle():
    chain = gen_tstage(1).chain
    exact = exact_occupancy_mean_hitting(chain.dense(), [0, 3])
    assert exact == pytest.approx(5.5)
    res = estimate_hitting_time(chain, OccupancyState.all_in(1, 3), 20000, seed=9)
    assert abs(res.mean - exact) <= 3 * res.stderr


def test_estimate_reproducible_and_order_insensitive():
    chain = gen_fig3b(2).chain
    initial = OccupancyState.all_in(1, 10)
    a = estimate_hitting_time(chain, initial, 200, seed=42)
    b = estimate_hitting_time(chain, initial, 200, seed=42)
    assert a.samples == b.samples
    assert a.mean == b.mean
    c = estimate_hitting_time(chain, initial, 200, seed=43)
    assert c.samples != a.samples


def test_estimate_parallel_matches_serial():
    chain = gen_fig3b(2).chain
    initial = OccupancyState.all_in(1, 8)
    serial = estimate_hitting_time(chain, initial, 64, seed=5, workers=1)
    parallel = estimate_hitting_time(chain, initial, 64, seed=5, workers=3)
    assert serial.samples == parallel.samples


def test_estimate_single_run_has_no_stderr():
    chain = gen_tstage(1).chain
    res = estimate_hitting_time(chain, OccupancyState.all_in(1, 5), 1, seed=0)
    assert res.runs == 1
    assert res.stderr is None
    assert res.ci95 is None


def test_estimate_counts_failed_runs():
    # Cap near the median so both outcomes occur.
    chain = gen_fig3b(2).chain
    res = estimate_hitting_time(
        chain, OccupancyState.all_in(1, 4), 50, seed=1, max_steps=15
    )
    assert res.failed_runs > 0
    assert len(res.samples) + res.failed_runs == 50
    with pytest.raises(MaxStepsExceeded):
        estimate_hitting_time(
            chain, OccupancyState.all_in(1, 4), 10, seed=1, max_steps=3
        )


def test_skip_off_matches_oracle_exactly():
    # The naive stepping path against the occupancy linear system.
    ex = gen_fig3b(2)
    exact = exact_occupancy_mean_hitting(ex.chain.dense(), [0, 2])
    res = estimate_hitting_time(
        ex.chain, OccupancyState.all_in(1, 2), 20000, seed=17, skip=False
    )
    assert abs(res.mean - exact) <= 3 * res.stderr


def test_trajectory_basics():
    chain = gen_tstage(1).chain
    rng = np.random.default_rng(21)
    N = 50
    grid = np.linspace(0.0, 8.0, 60)
    sample = simulate_trajectory(chain, OccupancyState.all_in(1, N), grid, rng)
    assert sample.m0_fractions[0] == 0.0
    assert np.all(np.diff(sample.m0_fractions) >= 0.0)
    assert sample.m0_fractions[-1] == 1.0
    assert np.all((0.0 <= sample.m0_fractions) & (sample.m0_fractions <= 1.0))


def test_trajectory_step_indexing_against_naive_replay():
    # With a grid at every k/N the recorded fractions form the full path of
    # counts[0]; jump sizes are at most one chain per step.
    chain = gen_tstage(2).chain
    N = 12
    rng = np.random.default_rng(22)
    grid = np.arange(0, 20 * N + 1) / N
    sample = simulate_trajectory(chain, OccupancyState.all_in(2, N), grid, rng)
    jumps = np.diff(sample.m0_fractions * N)
    assert np.all(np.isin(np.round(jumps, 9), [0.0, 1.0]))


def test_trajectory_absorbed_tail_stays_one():
    chain = gen_tstage(1).chain
    rng = np.random.default_rng(23)
    grid = np.linspace(0.0, 100.0, 30)
    sample = simulate_trajectory(chain, OccupancyState.all_in(1, 5), grid, rng)
    assert sample.m0_fractions[-1] == 1.0


def test_trajectory_reads_one_at_the_absorption_step():
    # Same seed, same loop: with a grid at every step k/N the trajectory
    # first reads 1.0 exactly at the step run_to_absorption returns.
    for ex, N in ((gen_tstage(1), 20), (gen_tstage(2), 12), (gen_fig3b(3), 10)):
        initial = OccupancyState.from_alpha(ex.default_alpha, N)
        for skip in (True, False):
            for seed in range(20):
                steps = run_to_absorption(
                    ex.chain, initial, np.random.default_rng(seed), skip=skip
                )
                grid = np.arange(steps + N + 1) / N
                assert np.array_equal(np.floor(grid * N), np.arange(grid.size))
                sample = simulate_trajectory(
                    ex.chain, initial, grid, np.random.default_rng(seed), skip=skip
                )
                assert int(np.argmax(sample.m0_fractions == 1.0)) == steps


def test_marginal_samples_match_discrete_survival():
    # The marginal absorption step of one chain among N, drawn by the
    # phase-type sampler, follows the discrete survival function.
    ex = gen_fig3b(2)
    sub = decompose(ex.chain)
    N = 7
    pt = PhaseType.discrete(ex.default_alpha, sub, N)
    rng = np.random.default_rng(33)
    n = 40_000
    samples = np.array([sample_absorption_step(pt, rng) for _ in range(n)])
    for q in range(1, 10):
        k = int(np.quantile(samples, q / 10))
        emp = float(np.mean(samples > k))
        ref = discrete_survival(pt, k)
        stderr = math.sqrt(max(ref * (1 - ref), 1e-12) / n)
        assert abs(emp - ref) <= 3 * stderr + 1e-9


def test_classical_harmonic_mean():
    N = 30
    chain = gen_tstage(1).chain
    res = estimate_hitting_time(chain, OccupancyState.all_in(1, N), 5000, seed=77)
    exact = N * harmonic_number(N)
    assert abs(res.mean - exact) <= 3 * res.stderr


def test_step_transition_frequency_fig3b():
    # From counts, a 1 -> 0 move happens with probability counts[1]/N * 1/T.
    T, N = 3, 5
    chain = gen_fig3b(T).chain
    occ = OccupancyState(N=N, counts={0: 2, 1: 3})
    rng = np.random.default_rng(55)
    trials = 40_000
    moved = sum(
        1 for _ in range(trials) if step(chain, occ, rng).absorbed == 3
    )
    p_hat = moved / trials
    p = (3 / N) * (1 / T)
    assert abs(p_hat - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_workers_env_variable(monkeypatch):
    chain = gen_fig3b(2).chain
    initial = OccupancyState.all_in(1, 6)
    base = estimate_hitting_time(chain, initial, 32, seed=2)
    monkeypatch.setenv("FLUIDHIT_THREADS", "2")
    with_env = estimate_hitting_time(chain, initial, 32, seed=2)
    assert with_env.samples == base.samples


def test_absorbed_count_never_decreases():
    chain = validate_chain(
        [[1.0, 0.0, 0.0], [0.3, 0.2, 0.5], [0.1, 0.6, 0.3]]
    )
    rng = np.random.default_rng(41)
    occ = OccupancyState(N=6, counts={1: 3, 2: 3})
    prev = occ.absorbed
    for _ in range(400):
        occ = step(chain, occ, rng)
        assert occ.absorbed >= prev
        prev = occ.absorbed

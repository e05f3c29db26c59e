import math

import numpy as np
import pytest
import scipy.sparse as sp

from fluidhit import (
    InitialDistribution,
    OccupancyState,
    PhaseType,
    decompose,
    discrete_survival,
    estimate_hitting_time,
    gen_fig3b,
    gen_tstage,
    get_example,
    harmonic_number,
    simulate_trajectory,
    validate_chain,
)
from fluidhit import simulator
from fluidhit.chain_model import _Destinations
from fluidhit.errors import MaxStepsExceeded
from fluidhit.simulator import _replication_rng

from oracles import (
    exact_occupancy_absorbed_law,
    exact_occupancy_mean_hitting,
    ks_two_sample_stat,
    random_chain,
    run_to_absorption,
    sample_absorption_step,
    step,
    stepped_hitting_times,
    stepped_trajectory,
)

# Two-sample Kolmogorov-Smirnov critical value at the 1% level, over sqrt(2/n).
_KS_1PCT = 1.628


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
    exact = exact_occupancy_mean_hitting(chain.P.toarray(), [0, 3])
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


def test_failed_runs_reach_the_json_record():
    # 50 one-step chains take 50 H_50 = 225 steps on average, so a cap of
    # 200 fails about half of the runs.
    chain = get_example("classical").chain
    res = estimate_hitting_time(chain, OccupancyState.all_in(1, 50), 20, seed=0, max_steps=200)
    assert res.failed_runs == 11
    assert res.to_json_dict()["failed_runs"] == 11
    assert len(res.samples) == 9


def test_trajectory_fails_on_the_last_absorption_step():
    # sum_j K_j = 50 fits a cap of 100, but the picks of absorbed chains
    # carry the last absorption step past it.
    chain = get_example("classical").chain
    initial = OccupancyState.all_in(1, 50)
    sampler = simulator._Poissonized(chain, initial, 100)
    ((_, total, _),) = sampler._absorptions([_replication_rng(0, 0)])
    assert total == 50
    assert sampler.absorption_steps(_replication_rng(0, 0)) is None
    with pytest.raises(MaxStepsExceeded):
        simulate_trajectory(chain, initial, [0.0, 1.0], _replication_rng(0, 0), max_steps=100)


def test_skip_off_matches_oracle_exactly():
    # The stepper without skip against the occupancy linear system.
    ex = gen_fig3b(2)
    exact = exact_occupancy_mean_hitting(ex.chain.P.toarray(), [0, 2])
    samples = np.asarray(
        stepped_hitting_times(ex.chain, OccupancyState.all_in(1, 2), 20000, seed=17)
    )
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - exact) <= 3 * stderr


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
    # Same seed, same stepper loop: with a grid at every step k/N the
    # trajectory first reads 1.0 exactly at the step run_to_absorption returns.
    for ex, N in ((gen_tstage(1), 20), (gen_tstage(2), 12), (gen_fig3b(3), 10)):
        initial = OccupancyState.from_alpha(ex.default_alpha, N)
        for skip in (True, False):
            for seed in range(20):
                steps = run_to_absorption(
                    ex.chain, initial, np.random.default_rng(seed), skip=skip
                )
                grid = np.arange(steps + N + 1) / N
                assert np.array_equal(np.floor(grid * N), np.arange(grid.size))
                sample = stepped_trajectory(
                    ex.chain, initial, grid, np.random.default_rng(seed), skip=skip
                )
                assert int(np.argmax(sample.m0_fractions == 1.0)) == steps


def test_trajectory_moves_one_chain_per_step_and_absorbs_at_t_n():
    # On a grid at every step the Poissonized path changes by at most one
    # chain per step, and its first all-absorbed step is T_N in law.
    ex = gen_tstage(2)
    N, n = 12, 2000
    initial = OccupancyState.from_alpha(ex.default_alpha, N)
    grid = np.arange(30 * N + 1) / N
    first = []
    for rep in range(n):
        sample = simulate_trajectory(ex.chain, initial, grid, _replication_rng(7, rep))
        counts = np.round(sample.m0_fractions * N).astype(int)
        assert set(np.diff(counts).tolist()) <= {0, 1}
        assert counts[0] == 0 and counts[-1] == N
        first.append(int(np.argmax(counts == N)))
    direct = estimate_hitting_time(ex.chain, initial, n, seed=8)
    assert ks_two_sample_stat(first, direct.samples) <= _KS_1PCT * math.sqrt(2.0 / n)


@pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, math.inf], [1.0, 0.5], [-1.0]])
def test_trajectory_rejects_bad_grids(grid):
    chain = gen_tstage(1).chain
    with pytest.raises(ValueError, match="grid"):
        simulate_trajectory(chain, OccupancyState.all_in(1, 3), grid, np.random.default_rng(0))


def test_start_state_outside_the_chain_is_a_value_error():
    chain = gen_tstage(1).chain
    initial = OccupancyState(N=3, counts={7: 3})
    with pytest.raises(ValueError, match="start state 7"):
        estimate_hitting_time(chain, initial, 5, seed=0)
    with pytest.raises(ValueError, match="start state 7"):
        simulate_trajectory(chain, initial, [0.0, 1.0], np.random.default_rng(0))


def test_trajectory_raises_with_the_cap_and_the_start():
    # Four chains need at least four steps, so T_N always passes a cap of
    # 3, even when the grid asks for step 0 alone.
    chain = gen_fig3b(2).chain
    initial = OccupancyState.all_in(1, 4)
    with pytest.raises(MaxStepsExceeded) as exc:
        simulate_trajectory(chain, initial, [0.0], np.random.default_rng(0), max_steps=3)
    assert exc.value.steps == 3
    assert exc.value.state == initial


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


def _self_loop_chain():
    # Seeded 4-state chain whose three transient states all have self-loops.
    chain = random_chain(np.random.default_rng(47), 3)
    assert np.all(chain.P.diagonal()[1:] > 0.1)
    return chain


# A start over three transient states with a fifth of the chains already
# in state 0 (no named start puts chains there).
_SPREAD_ALPHA = InitialDistribution(alpha=np.array([0.3, 0.25, 0.25]), mass0=0.2)


@pytest.mark.parametrize("name", ["fig3b:2", "tstage:2", "self-loops"])
def test_poissonized_sampler_matches_stepper_in_law(name):
    # Two disjoint samplers of T_N: the Poissonization identity against the
    # per-event stepper, by a two-sample KS test at the 1% level.
    if name == "self-loops":
        chain, alpha = _self_loop_chain(), _SPREAD_ALPHA
    else:
        ex = get_example(name)
        chain, alpha = ex.chain, ex.default_alpha
    n = 3000
    initial = OccupancyState.from_alpha(alpha, 30)
    poissonized = estimate_hitting_time(chain, initial, n, seed=201)
    stepped = stepped_hitting_times(chain, initial, n, seed=202)
    ks = ks_two_sample_stat(poissonized.samples, stepped)
    assert ks <= _KS_1PCT * math.sqrt(2.0 / n)


@pytest.mark.parametrize("name,N", [("tstage:2", 30), ("fig3b:3", 20), ("self-loops", 30)])
def test_trajectory_matches_stepper_in_law(name, N):
    # The Poissonized trajectory against the stepper's, by a two-sample KS
    # test of the absorbed count at eight fixed steps up to 12N.
    if name == "self-loops":
        chain, alpha = _self_loop_chain(), _SPREAD_ALPHA
    else:
        ex = get_example(name)
        chain, alpha = ex.chain, ex.default_alpha
    n = 3000
    initial = OccupancyState.from_alpha(alpha, N)
    grid = np.linspace(1.5, 12.0, 8)
    sampled = np.array([
        simulate_trajectory(chain, initial, grid, _replication_rng(204, rep)).m0_fractions
        for rep in range(n)
    ])
    stepped = np.array([
        stepped_trajectory(chain, initial, grid, _replication_rng(205, rep)).m0_fractions
        for rep in range(n)
    ])
    worst = max(ks_two_sample_stat(sampled[:, i], stepped[:, i]) for i in range(grid.size))
    assert worst <= _KS_1PCT * math.sqrt(2.0 / n)


@pytest.mark.parametrize("tail", [0, simulator._SCALAR_TAIL])
def test_poissonized_mean_on_partly_absorbed_start(monkeypatch, tail):
    # With tail 0 every jump goes through the vectorized rounds; with the
    # default the four chains are walked one at a time.
    monkeypatch.setattr(simulator, "_SCALAR_TAIL", tail)
    chain = _self_loop_chain()
    initial = OccupancyState.from_alpha(_SPREAD_ALPHA, 4)
    assert initial.counts == {0: 1, 1: 1, 2: 1, 3: 1}
    counts = [initial.counts.get(s, 0) for s in range(4)]
    exact = exact_occupancy_mean_hitting(chain.P.toarray(), counts)
    res = estimate_hitting_time(chain, initial, 10000, seed=203)
    assert abs(res.mean - exact) <= 3 * res.stderr


def test_trajectory_law_on_partly_absorbed_start():
    # The absorbed count at fixed steps against its exact law, pushed
    # through the occupancy chain of four chains, one of them absorbed.
    chain = _self_loop_chain()
    initial = OccupancyState.from_alpha(_SPREAD_ALPHA, 4)
    steps = [2, 5, 10, 20, 40, 80]
    law = exact_occupancy_absorbed_law(chain.P.toarray(), [1, 1, 1, 1], steps)
    values = np.arange(5)
    mean = law @ values
    sd = np.sqrt(law @ values**2 - mean**2)
    n = 10000
    grid = np.array(steps) / 4
    counts = np.array([
        simulate_trajectory(chain, initial, grid, _replication_rng(206, rep)).m0_fractions
        for rep in range(n)
    ]) * 4
    assert np.all(np.abs(counts.mean(axis=0) - mean) <= 3 * sd / math.sqrt(n))


def _countdown(depth):
    states = np.arange(depth + 1)
    P = sp.csr_array(
        (np.ones(depth + 1), (states, np.maximum(states - 1, 0))),
        shape=(depth + 1, depth + 1),
    )
    return validate_chain(P)


@pytest.mark.parametrize("N", [1, 40])
def test_poissonized_walk_stops_once_past_max_steps(monkeypatch, N):
    # T_N >= sum_j K_j, so the walk may stop as soon as the jumps counted
    # pass max_steps: about max_steps jump rounds, not the 10^6 of a full
    # walk down the countdown.
    depth, max_steps, runs = 10**6, 1000, 2
    chain = _countdown(depth)
    rounds = []
    for name in ("draw", "draw_many"):
        def counted(self, *args, _inner=getattr(_Destinations, name)):
            rounds.append(name)
            return _inner(self, *args)

        monkeypatch.setattr(_Destinations, name, counted)
    with pytest.raises(MaxStepsExceeded):
        estimate_hitting_time(
            chain, OccupancyState.all_in(depth, N), runs, seed=0, max_steps=max_steps
        )
    assert 0 < len(rounds) <= runs * max_steps


def test_reference_paths_reproduce_recorded_samples():
    # The stepper (now the oracle's) and the phase-type walk keep their
    # draws: these samples were recorded before the Poissonized sampler
    # replaced the stepper in the library.
    chain = _self_loop_chain()
    pt = PhaseType.discrete(_SPREAD_ALPHA, decompose(chain), 5)
    rng = np.random.default_rng(34)
    assert [sample_absorption_step(pt, rng) for _ in range(16)] == [
        0, 19, 8, 18, 81, 73, 64, 56, 18, 64, 24, 10, 28, 155, 0, 71
    ]
    initial = OccupancyState(N=6, counts={0: 1, 1: 2, 3: 3})
    recorded = {
        True: ([39, 122, 68, 49, 51, 129, 84, 150],
               [1, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5] + [6] * 20),
        False: ([64, 262, 100, 120, 144, 174, 79, 89],
                [1, 1, 3] + [5] * 12 + [6] * 16),
    }
    for skip, (steps, absorbed) in recorded.items():
        assert [
            run_to_absorption(chain, initial, np.random.default_rng(s), skip=skip)
            for s in range(8)
        ] == steps
        sample = stepped_trajectory(
            chain, initial, np.arange(31) * 2.0, np.random.default_rng(5), skip=skip
        )
        assert (sample.m0_fractions * 6).round().astype(int).tolist() == absorbed
    samples = stepped_hitting_times(chain, initial, 12, seed=3)
    assert samples == [120, 256, 118, 42, 56, 163, 111, 128, 131, 40, 62, 77]


def _fork_chain(p=1 / 40, L=10**4):
    # State 1 forks to a slow state 2 (mean sojourn L) with probability p,
    # else to the two-step path 3 -> 4 -> 0, so every chain is still
    # unabsorbed when a slow sojourn is drawn.
    return validate_chain([
        [1, 0, 0, 0, 0],
        [0, 0, p, 1 - p, 0],
        [1 / L, 0, 1 - 1 / L, 0, 0],
        [0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0],
    ])


# Samples recorded when each replication still ran its jump rounds alone;
# sharing the rounds must leave every draw where it was.
_PINNED = {
    "fig3b:3": [
        28256, 16611, 20882, 18252, 23340, 22865, 16420, 19931, 25859, 22369,
        25201, 22437, 24291, 21363, 19208, 25203, 21865, 17833, 22749, 26796,
        21251, 24062, 17224, 21308, 30522, 20432, 23786, 20654, 23220, 21021,
        26554, 22611, 24667, 18208, 31775, 21086, 20987, 24882, 25451, 20063,
        32154, 22873, 24946, 24783, 23644, 18335, 19637, 24264, 18611, 20553,
        20579, 29580, 23230, 21969, 22775, 18877, 16632, 21152, 30004, 16585,
        22024, 18447, 22150, 19352, 31395, 22288, 22318, 21280, 24279, 16562,
        20153, 18899, 19322, 24519, 24174, 23379, 23446, 20306, 19616, 16427,
        20980, 24774, 19884, 23467, 22905, 18267, 27761, 25045, 21793, 17349,
        17709, 23701, 21467, 18652, 35688, 18199, 30150, 19998, 25218, 17904,
    ],
    "random30": [
        41768, 61311, 35740, 38689, 45005, 38124, 48331, 34677, 48195, 64249,
        37432, 52041, 35927, 40473, 31325, 61266, 71558, 56191, 47553, 42400,
        35396, 37511, 48986, 42195, 39734, 30112, 39201, 33205, 49723, 43009,
        31967, 50066, 42178, 49038, 70094, 29388, 43851, 34487, 49388, 41470,
    ],
    "self-loops": [
        69, 34, 79, 131, 45, 47, 55, 112, 172, 129, 85, 25, 35, 92, 59, 39, 54, 65, 41, 29,
    ],
    "fork": [278, 350, 267, 334, 365, 280, 389, 315, 309, 363],
}


def _pinned_case(name):
    if name == "fig3b:3":
        ex = get_example(name)
        return ex.chain, OccupancyState.from_alpha(ex.default_alpha, 1000), 100, 2, {}
    if name == "random30":
        uniform = InitialDistribution(alpha=np.full(30, 1 / 30))
        chain = random_chain(np.random.default_rng(48), 30)
        return chain, OccupancyState.from_alpha(uniform, 200), 40, 5, {}
    if name == "self-loops":
        return _self_loop_chain(), OccupancyState.from_alpha(_SPREAD_ALPHA, 4), 20, 6, {}
    # A cap of 600 fails the 20 runs with a slow chain, some inside the
    # vectorized rounds and some at the Poisson finish.
    return _fork_chain(), OccupancyState.all_in(1, 40), 30, 7, {"max_steps": 600}


@pytest.mark.parametrize("name", list(_PINNED))
def test_poissonized_samples_are_pinned(name):
    chain, initial, runs, seed, kwargs = _pinned_case(name)
    res = estimate_hitting_time(chain, initial, runs, seed, **kwargs)
    assert list(res.samples) == _PINNED[name]
    assert res.failed_runs == runs - len(_PINNED[name])


def test_trajectory_sample_is_pinned():
    # A grid at every step k/64 is exact in binary, so the path's change
    # points are the steps S_m of its 64 absorptions.
    ex = get_example("tstage:2")
    N = 64
    initial = OccupancyState.from_alpha(ex.default_alpha, N)
    sample = simulate_trajectory(ex.chain, initial, np.arange(20 * N) / N, _replication_rng(8, 0))
    counts = np.round(sample.m0_fractions * N).astype(int)
    assert (np.flatnonzero(np.diff(counts)) + 1).tolist() == [
        20, 22, 23, 31, 33, 34, 37, 40, 44, 45, 46, 48, 51, 53, 54, 55, 56, 59, 61, 62,
        69, 74, 76, 77, 79, 84, 86, 90, 93, 99, 102, 103, 106, 111, 115, 118, 119, 121,
        129, 132, 134, 135, 136, 145, 146, 148, 154, 160, 167, 177, 179, 192, 210, 214,
        216, 231, 252, 307, 309, 318, 321, 336, 348, 356,
    ]


@pytest.mark.parametrize("name,k", [("fig3b:3", 17), ("fig3b:3", 40), ("fork", 11)])
def test_samples_do_not_depend_on_runs(name, k):
    # fig3b:3's 1000 chains put 16 replications in a batch, so its first k
    # runs end inside the second or third of seven batches; the fork's 30
    # runs share one batch, in which some fail and leave it early.
    chain, initial, runs, seed, kwargs = _pinned_case(name)
    full = estimate_hitting_time(chain, initial, runs, seed, **kwargs)
    head = estimate_hitting_time(chain, initial, k, seed, **kwargs)
    assert head.samples == full.samples[: len(head.samples)]
    assert head.failed_runs == k - len(head.samples)

import math

import numpy as np
import pytest

from fluidhit import (
    InitialDistribution,
    crossing_time,
    decompose,
    fluid_m0,
    fluid_trajectory,
    gen_tstage,
    random_chain,
    transient_survival,
)

from oracles import erlang_crossing, rk4_fluid_m0


def _classical():
    ex = gen_tstage(1)
    return ex.default_alpha, decompose(ex.chain)


def test_m0_classical_exponential():
    alpha, sub = _classical()
    for t in (0.0, 0.5, 2.0, 7.0):
        assert fluid_m0(alpha, sub, t) == pytest.approx(1 - math.exp(-t), abs=1e-12)


def test_m0_tstage_is_erlang_cdf():
    T = 3
    ex = gen_tstage(T)
    sub = decompose(ex.chain)
    for t in (0.5, 1.0, 3.0):
        expected = 1 - sum(math.exp(-t) * t**k / math.factorial(k) for k in range(T))
        assert fluid_m0(ex.default_alpha, sub, t) == pytest.approx(expected, abs=1e-12)


def test_m0_zero_at_time_zero():
    alpha, sub = _classical()
    assert fluid_m0(alpha, sub, 0.0) == 0.0


def test_crossing_classical_log_n():
    alpha, sub = _classical()
    for N in (10, 100, 10**6):
        res = crossing_time(alpha, sub, 1.0 / N)
        assert not res.already_below
        assert res.time == pytest.approx(math.log(N), abs=1e-9)


def test_crossing_erlang2_root():
    ex = gen_tstage(2)
    sub = decompose(ex.chain)
    got = crossing_time(ex.default_alpha, sub, 0.01).time
    assert got == pytest.approx(erlang_crossing(2, 0.01), abs=1e-8)
    assert got == pytest.approx(6.6384, abs=5e-4)


def test_crossing_already_below():
    alpha = InitialDistribution(alpha=np.array([0.005]), mass0=0.995)
    sub = decompose(gen_tstage(1).chain)
    res = crossing_time(alpha, sub, 0.01)
    assert res.time == 0.0
    assert res.already_below


def test_crossing_monotone_in_epsilon():
    ex = gen_tstage(3)
    sub = decompose(ex.chain)
    times = [
        crossing_time(ex.default_alpha, sub, eps).time
        for eps in (0.2, 0.1, 0.01, 0.001)
    ]
    assert np.all(np.diff(times) > 0)


def test_trajectory_classical_points():
    alpha, sub = _classical()
    traj = fluid_trajectory(alpha, sub, [0.0, math.log(2.0), math.log(4.0)])
    assert traj.m0_values == pytest.approx([0.0, 0.5, 0.75], abs=1e-12)


def test_trajectory_empty_grid():
    alpha, sub = _classical()
    traj = fluid_trajectory(alpha, sub, [])
    assert traj.time_grid.size == 0
    assert traj.m0_values.size == 0


def test_trajectory_tstage2_values():
    ex = gen_tstage(2)
    sub = decompose(ex.chain)
    traj = fluid_trajectory(ex.default_alpha, sub, [0.0, 1.0, 2.0])
    expected = [0.0, 1 - 2 * math.exp(-1), 1 - 3 * math.exp(-2)]
    assert traj.m0_values == pytest.approx(expected, abs=1e-12)


def test_trajectory_conservation_and_monotonicity():
    rng = np.random.default_rng(37)
    for _ in range(8):
        S = int(rng.integers(1, 7))
        chain = random_chain(rng, S)
        alpha = InitialDistribution(alpha=rng.dirichlet(np.ones(S)))
        traj = fluid_trajectory(alpha, decompose(chain), np.linspace(0, 8, 30))
        assert np.all(np.diff(traj.m0_values) >= -1e-12)
        assert np.all(np.diff(traj.transient_mass) <= 1e-12)
        assert traj.m0_values + traj.transient_mass == pytest.approx(
            np.ones(30), abs=1e-10
        )


def test_matches_rk4_oracle_on_example_chains():
    grid = np.linspace(0.0, 10.0, 21)
    cases = [gen_tstage(1), gen_tstage(2), gen_tstage(4)]
    for ex in cases:
        sub = decompose(ex.chain)
        fluid_vals = fluid_trajectory(ex.default_alpha, sub, grid).m0_values
        full0 = np.concatenate([[ex.default_alpha.mass0], ex.default_alpha.alpha])
        oracle = rk4_fluid_m0(ex.chain.dense(), full0, grid)
        assert np.max(np.abs(fluid_vals - oracle)) < 1e-8


def test_matches_rk4_oracle_on_random_chains():
    rng = np.random.default_rng(43)
    grid = np.linspace(0.0, 6.0, 13)
    for _ in range(5):
        S = int(rng.integers(1, 6))
        chain = random_chain(rng, S)
        alpha = InitialDistribution(alpha=rng.dirichlet(np.ones(S)))
        sub = decompose(chain)
        fluid_vals = fluid_trajectory(alpha, sub, grid).m0_values
        full0 = np.concatenate([[0.0], alpha.alpha])
        oracle = rk4_fluid_m0(chain.dense(), full0, grid)
        assert np.max(np.abs(fluid_vals - oracle)) < 1e-8


def test_survival_rejects_negative_time():
    alpha, sub = _classical()
    with pytest.raises(ValueError):
        transient_survival(alpha, sub, -1.0)

import math

import numpy as np
import pytest

import fluidhit
from fluidhit import (
    InitialDistribution,
    crossing_time,
    decompose,
    fluid_trajectory,
    gen_fig3a,
    gen_tstage,
    random_chain,
    transient_survival,
    validate_chain,
)

from fluidhit.errors import BracketingFailure

from oracles import erlang_crossing, rk4_absorbed_fraction


def _classical():
    ex = gen_tstage(1)
    return ex.default_alpha, decompose(ex.chain)


def test_m0_classical_exponential():
    alpha, sub = _classical()
    for t in (0.0, 0.5, 2.0, 7.0):
        assert 1.0 - transient_survival(alpha, sub, t) == pytest.approx(1 - math.exp(-t), abs=1e-12)


def test_m0_tstage_is_erlang_cdf():
    T = 3
    ex = gen_tstage(T)
    sub = decompose(ex.chain)
    for t in (0.5, 1.0, 3.0):
        expected = 1 - sum(math.exp(-t) * t**k / math.factorial(k) for k in range(T))
        assert 1.0 - transient_survival(ex.default_alpha, sub, t) == pytest.approx(expected, abs=1e-12)


def test_m0_zero_at_time_zero():
    alpha, sub = _classical()
    assert 1.0 - transient_survival(alpha, sub, 0.0) == 0.0


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


def _constant_exit_chain(S=8, exit_prob=0.2, seed=61):
    """Dense random chain whose every transient row exits with exit_prob,
    so its survival from any start is exactly exp(-exit_prob t)."""
    rng = np.random.default_rng(seed)
    M = rng.exponential(size=(S, S))
    P = np.zeros((S + 1, S + 1))
    P[0, 0] = 1.0
    P[1:, 0] = exit_prob
    P[1:, 1:] = (1.0 - exit_prob) * M / M.sum(axis=1, keepdims=True)
    return InitialDistribution.uniform(S), decompose(validate_chain(P))


def _named_start(ex):
    return ex.default_alpha, decompose(ex.chain)


# fig3a:100,2's survival sits on a plateau at 1/N^2 = 1e-4 until t is about
# 10^4, so at 1e-4 the side of each probe is decided by rounding, and 1e-8
# crosses near t = 10^4 after 15 doubling probes. The bound is on the probes
# after the doubling bracket, the phase regula falsi replaced.
_PROBE_CASES = [
    (name, build, eps)
    for name, build in (
        ("tstage:3", lambda: _named_start(gen_tstage(3))),
        ("constant-exit", _constant_exit_chain),
        ("fig3a:100,2", lambda: _named_start(gen_fig3a(100, 2))),
    )
    for eps in (1e-2, 1e-4, 1e-8)
]


def _record_series(monkeypatch):
    """(t, value) of every survival-series evaluation from here on."""
    calls = []
    continuous = fluidhit.numerics._SurvivalSeries.continuous

    def recorded(self, t, *args, **kwargs):
        calls.append((t, continuous(self, t, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(fluidhit.numerics._SurvivalSeries, "continuous", recorded)
    return calls


@pytest.mark.parametrize(
    "build, epsilon",
    [case[1:] for case in _PROBE_CASES],
    ids=[f"{case[0]}-{case[2]:g}" for case in _PROBE_CASES],
)
def test_crossing_needs_few_survival_evaluations(monkeypatch, build, epsilon):
    alpha, sub = build()
    calls = _record_series(monkeypatch)
    crossing_time(alpha, sub, epsilon)
    # t = 0 reads s_0 = alpha 1, no sum. Without a hint the doubling probes
    # 1, 2, 4, ... and no later probe can be the next power of two, which
    # lies outside the bracket.
    probes = [t for t, _ in calls if t > 0.0]
    doubling = 0
    while doubling < len(probes) and probes[doubling] == 2.0**doubling:
        doubling += 1
    assert len(probes) - doubling <= 20


def test_crossing_builds_the_uniformized_matrix_once(monkeypatch):
    alpha, sub = _named_start(gen_fig3a(10, 2))
    built = []
    uniformized = fluidhit.numerics._uniformized

    def counted(*args):
        built.append(args)
        return uniformized(*args)

    monkeypatch.setattr(fluidhit.numerics, "_uniformized", counted)
    crossing_time(alpha, sub, 1e-8)
    assert len(built) == 1


@pytest.mark.parametrize("epsilon", (1e-2, 1e-4, 1e-8))
def test_crossing_matches_closed_forms(epsilon):
    alpha, sub = _named_start(gen_tstage(3))
    got = crossing_time(alpha, sub, epsilon).time
    assert got == pytest.approx(erlang_crossing(3, epsilon), rel=1e-12, abs=0)
    alpha, sub = _constant_exit_chain()
    got = crossing_time(alpha, sub, epsilon).time
    assert got == pytest.approx(math.log(1.0 / epsilon) / 0.2, rel=1e-12, abs=0)


def test_crossing_through_underflowed_survival(monkeypatch):
    # exp(-t) underflows to 0 past t = 745, inside the doubling bracket
    # [512, 1024] of the level 1e-300, whose crossing is 300 ln 10.
    alpha, sub = _classical()
    calls = _record_series(monkeypatch)
    got = crossing_time(alpha, sub, 1e-300).time
    assert 0.0 in [value for _, value in calls]
    assert got == pytest.approx(300.0 * math.log(10.0), rel=1e-12, abs=0)


def test_crossing_reaches_the_term_budget(monkeypatch):
    # The budget admits times up to 1.01 t_N, short of the doubling's next
    # end 16 > t_N, so the bracket's end has to be clamped to the budget.
    alpha, sub = _named_start(gen_tstage(3))
    want = crossing_time(alpha, sub, 1e-4).time
    c = sub.max_exit_rate  # the series' rate
    assert 8.0 < want < 16.0 / 1.01
    monkeypatch.setattr(fluidhit.numerics, "TERM_BUDGET", 1.01 * c * want)
    assert crossing_time(alpha, sub, 1e-4).time == pytest.approx(want, rel=1e-12, abs=0)
    monkeypatch.setattr(fluidhit.numerics, "TERM_BUDGET", 0.99 * c * want)
    with pytest.raises(BracketingFailure, match="time limit"):
        crossing_time(alpha, sub, 1e-4)


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


def test_trajectory_steps_one_series_across_the_grid(monkeypatch):
    # The grid starts at 0, so expm_action has nothing to carry, and every
    # point is read off one series: one B, and about c * grid[-1] terms
    # plus the window above the last mean, not a series per point. On
    # tstage:3, B = I + Q is nilpotent (B^3 = 0), so that series stops at
    # the zero sum s_3 after four terms. The values stay those of one
    # series per point.
    ex = gen_tstage(3)
    rng = np.random.default_rng(41)
    grid = np.linspace(0.0, 20.0, 401)
    cases = (
        (ex.default_alpha, decompose(ex.chain), 4),
        (InitialDistribution(rng.dirichlet(np.ones(5))), decompose(random_chain(rng, 5)), None),
    )
    uniformized = fluidhit.numerics._uniformized
    expm_action = fluidhit.fluid.expm_action
    iterates = fluidhit.numerics._row_iterates
    for alpha, sub, stop in cases:
        per_point = [transient_survival(alpha, sub, t) for t in grid]
        built, expm_calls, terms = [], [], []

        def counted_build(*args):
            built.append(None)
            return uniformized(*args)

        def counted_expm(*args, **kwargs):
            expm_calls.append(None)
            return expm_action(*args, **kwargs)

        def counted_iterates(B, v):
            for u in iterates(B, v):
                terms.append(None)
                yield u

        monkeypatch.setattr(fluidhit.numerics, "_uniformized", counted_build)
        monkeypatch.setattr(fluidhit.fluid, "expm_action", counted_expm)
        monkeypatch.setattr(fluidhit.numerics, "_row_iterates", counted_iterates)
        traj = fluid_trajectory(alpha, sub, grid)
        monkeypatch.undo()
        c = sub.max_exit_rate
        j0, window = fluidhit.numerics._weights(rate=c, t=grid[-1])
        assert len(built) == 1 and len(expm_calls) <= 1
        if stop is None:
            assert c * grid[-1] <= len(terms) <= j0 + window.size
        else:
            assert len(terms) == stop
        assert traj.transient_mass == pytest.approx(per_point, rel=0, abs=1e-13)


def test_survival_grid_from_a_later_start():
    # A grid that starts past 0 is carried there by one expm_action call.
    ex = gen_tstage(3)
    sub = decompose(ex.chain)
    grid = np.geomspace(3.0, 40.0, 5)
    per_point = [transient_survival(ex.default_alpha, sub, t) for t in grid]
    got = transient_survival(ex.default_alpha, sub, grid)
    assert got == pytest.approx(per_point, rel=1e-12, abs=0)


def test_survival_grid_stops_at_the_first_zero_sum(monkeypatch):
    # exp(-t) underflows to exactly 0, and B = I + Q/c = 0 on the
    # classical chain: s_1 = 0, so the series pads instead of stepping
    # about 10^6 terms to the last point.
    alpha, sub = _classical()
    terms = []
    iterates = fluidhit.numerics._row_iterates

    def counted(B, v):
        for u in iterates(B, v):
            terms.append(None)
            yield u

    monkeypatch.setattr(fluidhit.numerics, "_row_iterates", counted)
    got = transient_survival(alpha, sub, [0.0, 2.5e5, 5e5, 1e6])
    assert got.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert len(terms) == 2  # alpha and alpha B


def test_deep_countdown_crossing_on_scalar_steps():
    # About 92,000 one-entry row steps, each a scalar gather; the value is
    # the one _SparseRow steps gave.
    ex = gen_fig3a(300, 2)
    got = crossing_time(ex.default_alpha, decompose(ex.chain), 1e-17 / 300).time
    assert got == pytest.approx(92362.20334910211, rel=1e-14, abs=0)


def test_survival_rejects_a_decreasing_grid():
    alpha, sub = _classical()
    with pytest.raises(ValueError, match="nondecreasing"):
        transient_survival(alpha, sub, [0.0, 2.0, 1.0])


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
        oracle = rk4_absorbed_fraction(ex.chain.dense(), full0, grid)
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
        oracle = rk4_absorbed_fraction(chain.dense(), full0, grid)
        assert np.max(np.abs(fluid_vals - oracle)) < 1e-8


def test_survival_rejects_negative_time():
    alpha, sub = _classical()
    with pytest.raises(ValueError):
        transient_survival(alpha, sub, -1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_survival_rejects_non_finite_time(t):
    alpha, sub = _classical()
    with pytest.raises(ValueError):
        transient_survival(alpha, sub, t)


@pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, math.inf], [math.nan]])
def test_trajectory_rejects_non_finite_grid(grid):
    alpha, sub = _classical()
    with pytest.raises(ValueError, match="finite"):
        fluid_trajectory(alpha, sub, grid)

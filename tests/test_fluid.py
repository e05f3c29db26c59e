import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import fluidhit
from fluidhit import (
    InitialDistribution,
    crossing_time,
    decompose,
    fluid_trajectory,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    get_example,
    spectral_params,
    transient_survival,
    validate_chain,
)
from fluidhit.errors import BracketingFailure, NonConvergent
from fluidhit.fluid import _crossing

from oracles import (
    constant_exit_matrix,
    erlang_crossing,
    expm_crossing,
    random_chain,
    rare_exit_matrix,
    rk4_absorbed_fraction,
)


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
    P = constant_exit_matrix(np.random.default_rng(seed), S, exit_prob)
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
    # S(0) is the series' first sum, read without a probe. Without a hint
    # the doubling probes 1, 2, 4, ... and no later probe can be the next
    # power of two, which lies outside the bracket.
    probes = [t for t, _ in calls]
    doubling = 0
    while doubling < len(probes) and probes[doubling] == 2.0**doubling:
        doubling += 1
    assert len(probes) - doubling <= 20


@pytest.mark.parametrize(
    "build, epsilon",
    [case[1:] for case in _PROBE_CASES],
    ids=[f"{case[0]}-{case[2]:g}" for case in _PROBE_CASES],
)
def test_crossing_reads_the_start_off_the_first_sum(monkeypatch, build, epsilon):
    # S(0) is s_0 = alpha 1, which a read at t = 0 returns to the bit, so the
    # crossing is the same. Every _weights call is one probe's, at t > 0: a
    # probe builds one window, unless it lies past the series' known tail
    # (its _reach and, but at a walk's zero end, its tilted mean c t r past
    # J), where it builds none. Each probe read alone on a fresh series
    # gives the same bits: a read depends on its time and the chain, not on
    # what was read before.
    numerics = fluidhit.numerics
    alpha, sub = build()
    series = numerics._SurvivalSeries(sub, alpha.alpha)
    assert series.continuous(0.0) == series._sums[0]
    calls = _record_series(monkeypatch)
    built = []
    weights = numerics._weights

    def counted(**kwargs):
        built.append(kwargs["t"].tolist())
        return weights(**kwargs)

    monkeypatch.setattr(numerics, "_weights", counted)
    crossing_time(alpha, sub, epsilon)
    probes, values, windows = [t for t, _ in calls], [v for _, v in calls], list(built)
    assert probes and min(probes) > 0.0
    series.continuous(max(probes))  # steps as far as the deepest probe did
    J, c, tail = len(series._sums) - 1, series.c, series.tail
    r = 1.0 if tail is None or not series._sums[-1] else 0.5 * (tail.lo + tail.hi)
    past = [tail is not None and min(numerics._reach(c * t), c * t * r) > J for t in probes]
    assert windows == [[t] for t, skip in zip(probes, past) if not skip]
    assert [numerics._SurvivalSeries(sub, alpha.alpha).continuous(t) for t in probes] == values


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


@pytest.mark.parametrize(
    "build, epsilon",
    [(lambda: gen_tstage(5000), 1e-2), (lambda: gen_fig3a(150, 2), 1e-3)],
    ids=["tstage:5000", "fig3a:150,2"],
)
def test_countdown_crossing_builds_no_uniformized_matrix(monkeypatch, build, epsilon):
    # Every row of these B = I + Q holds at most one nonzero (tstage's last
    # row none), so the series steps single entries read off Q's rows and
    # never builds B. Its sums are those of dense steps v B through the
    # built B, to the bit.
    alpha, sub = _named_start(build())
    uniformized = fluidhit.numerics._uniformized

    def refuse(*args):
        raise AssertionError("B built for a countdown")

    monkeypatch.setattr(fluidhit.numerics, "_uniformized", refuse)
    t = crossing_time(alpha, sub, epsilon).time
    series = fluidhit.numerics._SurvivalSeries(sub, alpha.alpha)
    series.continuous(t)  # steps the sums the crossing's last probe read
    monkeypatch.undo()
    Bt = uniformized(sub.Q, series.c).T
    v, want = alpha.alpha, []
    for _ in series._sums:
        want.append(float(v.sum()))
        v = Bt @ v
    assert list(series._sums) == want


@pytest.mark.parametrize("T", [5000, 20000, 20002, 40000])
def test_tstage_crossing_reads_the_exact_sums(monkeypatch, T):
    # From the top of tstage(T), B = I + Q moves all the mass one state
    # down a step: s_j = 1 for j < T and 0 from T on, exactly. B stores
    # T - 1 entries, on both sides of the 20,000 where scalar steps once
    # began; t is the one those sums give, to the bit. The exact sums come
    # as the one-entry rows the countdown is stepped as (a dense vector
    # would be checked for a geometric tail).
    alpha, sub = _named_start(gen_tstage(T))
    got = crossing_time(alpha, sub, 1e-2).time

    def exact_sums(Q, c, v):
        for j in itertools.count():
            yield fluidhit.numerics._Entry(0, 1.0 if j < T else 0.0)

    monkeypatch.setattr(fluidhit.numerics, "_row_iterates", exact_sums)
    assert got == crossing_time(alpha, sub, 1e-2).time


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


def test_crossing_doubles_from_the_mean_sojourn(monkeypatch):
    # fig3b(2^20) leaves its one state at rate c = 2^-20, so the doubling
    # starts at 1/c and passes 10^6 on its way to t_N = 2^20 ln 100.
    ex = gen_fig3b(2**20)
    alpha, sub = ex.default_alpha, decompose(ex.chain)
    calls = _record_series(monkeypatch)
    got = crossing_time(alpha, sub, 1e-2).time
    # S(0) is the series' first sum, no probe: the first probe is 1/c.
    assert [t for t, _ in calls[:4]] == [2.0**20, 2.0**21, 2.0**22, 2.0**23]
    assert got == pytest.approx(2**20 * math.log(100), rel=1e-12, abs=0)
    # A time limit short of 1/c is the first probe, and the only one.
    calls.clear()
    monkeypatch.setattr(fluidhit.numerics, "TERM_BUDGET", 0.5)
    with pytest.raises(BracketingFailure, match="time limit"):
        crossing_time(alpha, sub, 1e-2)
    assert [t for t, _ in calls] == [2.0**19]


def _count_terms(monkeypatch):
    """A list that grows by one for each row iterate stepped from here on."""
    terms = []
    iterates = fluidhit.numerics._row_iterates

    def counted(*args):
        for u in iterates(*args):
            terms.append(None)
            yield u

    monkeypatch.setattr(fluidhit.numerics, "_row_iterates", counted)
    return terms


@pytest.mark.parametrize(
    "spec, want",
    [
        ("classical", 6.9077552789819645),
        ("tstage:3", 11.228872242412383),
        ("fig3b:3", 20.7232658369459),
        ("fig3a:40,2", 7.8879593365997485),
        ("fig3a:100,2", 7.013015789639539),
        ("tstage:20000", 20439.876216629942),
    ],
)
def test_named_crossings_keep_their_bits(spec, want):
    # No named chain's series takes a geometric tail: a one-state B is 0,
    # tstage(3)'s is nilpotent, and the countdowns step single entries.
    # The values are those of the series stepped to the end of every window.
    ex = get_example(spec)
    assert crossing_time(ex.default_alpha, decompose(ex.chain), 1e-3).time == want


def _double_root_chain():
    """1 -> 2 -> exit, each left at rate 1/2, and a third state left at rate 1.

    c = 1 keeps B's diagonal 1/2 on states 1 and 2, and -1/2 is a double
    eigenvalue (k = 1): the ratio of state 2's entries is 1/2 + O(1/j).
    """
    P = np.zeros((4, 4))
    P[0, 0] = P[3, 0] = 1.0
    P[1, 1] = P[1, 2] = P[2, 2] = P[2, 0] = 0.5
    return InitialDistribution.uniform(3), decompose(validate_chain(P))


def _periodic_ring():
    """Five states, each moving on with 0.9 and exiting with 0.1: B = 0.9 S, S a cyclic shift.

    From a start that is not uniform the ratios 0.9 u_{i-1} / u_i cycle forever.
    """
    P = np.zeros((6, 6))
    P[0, 0] = 1.0
    for i in range(1, 6):
        P[i, 0], P[i, i % 5 + 1] = 0.1, 0.9
    return InitialDistribution(np.array([0.1, 0.3, 0.2, 0.25, 0.15])), decompose(validate_chain(P))


@pytest.mark.parametrize(
    "build, k, terms_before, t_before",
    [(_double_root_chain, 1, 138, 40.86516590688186), (_periodic_ring, 0, 394, 184.2068074395191)],
    ids=["k=1", "periodic-ring"],
)
def test_unsettled_ratios_step_every_term(monkeypatch, build, k, terms_before, t_before):
    # Both are stepped as dense vectors whose ratios never settle, so the
    # series steps as many terms as before the geometric tail, to the same t.
    alpha, sub = build()
    assert spectral_params(sub).k == k
    terms = _count_terms(monkeypatch)
    assert crossing_time(alpha, sub, 1e-8).time == t_before
    assert len(terms) == terms_before


@pytest.mark.parametrize(
    "S, density, seed, want",
    [
        (1000, 0.05, 6, 6767.656742235584),
        (2000, 0.05, 6, 8589.92106524317),
        (2000, 0.7, 5, 9348.999970424167),
    ],
)
def test_stiff_crossing_takes_a_geometric_tail(monkeypatch, S, density, seed, want):
    # Exits are rare (nu/c = 4.9e-4 on the density-0.7 chain), so the
    # crossing at 1e-2 took c t = 6,800 to 9,350 terms and up to 17,412
    # stepped; want is that value. The left iterate settles within a few
    # dozen terms and the geometric tail fills the rest.
    sub = decompose(random_chain(np.random.default_rng(seed), S, density))
    terms = _count_terms(monkeypatch)
    got = crossing_time(InitialDistribution.uniform(S), sub, 1e-2).time
    assert len(terms) <= 100
    assert got == pytest.approx(want, rel=1e-10, abs=0)


class _PinnedRatio:
    """A survival series read with its geometric tail at one fixed ratio."""

    def __init__(self, series, ratio):
        self.series, self.ratio, self.c = series, ratio, series.c
        self._sums = series._sums  # _crossing reads S(0) as the first sum

    def time_limit(self):
        return self.series.time_limit()

    def continuous(self, t):
        weights = fluidhit.numerics._weights(rate=self.c, t=np.array([t]))
        return self.series._weighted(*weights, ratio=self.ratio)[0]


def test_stiff_crossing_matches_expm_inside_its_bracket():
    # 200 states exiting with probabilities in [1e-5, 1e-4]: c t_N is about
    # 86,000 terms. The tail's ends lo and hi bound every later sum, so the
    # crossings read at lo and at hi bracket the crossing read at their
    # midpoint; an expm bisection lands within 1e-10 of it. The series
    # steps on until the ratios' spread stops falling: at its first spread
    # below TAIL_SPREAD, 7e-15, the bracket would be 1.3e-10 wide.
    rng = np.random.default_rng(83)
    sub = decompose(validate_chain(rare_exit_matrix(rng, 200, 1e-5, 1e-4)))
    alpha = InitialDistribution(rng.dirichlet(np.ones(200)))
    series = fluidhit.numerics._SurvivalSeries(sub, alpha.alpha)
    t = _crossing(series, 1e-2).time
    assert t == crossing_time(alpha, sub, 1e-2).time
    tail = series.tail
    assert tail is not None and len(series._sums) <= 100
    assert 0.0 < tail.hi - tail.lo <= fluidhit.numerics.TAIL_SPREAD * tail.hi
    t_lo, t_hi = (_crossing(_PinnedRatio(series, r), 1e-2).time for r in (tail.lo, tail.hi))
    # The certified bracket is narrower than the 1e-10 perfbench reads t_N to.
    assert t_lo <= t <= t_hi <= t_lo + 1e-10 * t
    assert t == pytest.approx(expm_crossing(sub.Q.toarray(), alpha.alpha, 1e-2), rel=1e-10, abs=0)


def test_geometric_tail_brackets_the_decay_rate():
    # Every certified tail's ratio bracket [lo, hi] gives a bracket
    # [c (1 - hi), c (1 - lo)] for the decay rate nu of the start's own
    # survival. On seeded random chains it lies within dominant_eigen's
    # stated tolerance, 0.525e-10 c, of -dominant_eigen(Q) (measured: within
    # 2.0e-11 c); it need not contain that value.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        S, density = int(rng.integers(5, 301)), float(rng.uniform(0.05, 1.0))
        sub = decompose(random_chain(rng, S, density))
        series = fluidhit.numerics._SurvivalSeries(sub, InitialDistribution.uniform(S).alpha)
        _crossing(series, 1e-12)
        tail, c = series.tail, series.c
        assert tail is not None, f"seed {seed}: no tail"
        nu = -fluidhit.numerics.dominant_eigen(sub.Q)
        far = max(abs(c * (1.0 - tail.hi) - nu), abs(c * (1.0 - tail.lo) - nu))
        assert far <= 0.525e-10 * c, f"seed {seed}: {far / c:.3g} c from nu"


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

        def counted_iterates(*args):
            for u in iterates(*args):
                terms.append(None)
                yield u

        monkeypatch.setattr(fluidhit.numerics, "_uniformized", counted_build)
        monkeypatch.setattr(fluidhit.fluid, "expm_action", counted_expm)
        monkeypatch.setattr(fluidhit.numerics, "_row_iterates", counted_iterates)
        traj = fluid_trajectory(alpha, sub, grid)
        monkeypatch.undo()
        c = sub.max_exit_rate
        [j0], [window], _ = fluidhit.numerics._weights(rate=c, t=grid[-1:])
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


def _rare_exit_start(seed):
    """50 states exiting with probabilities in [1e-3, 1e-2] from a random start."""
    rng = np.random.default_rng(seed)
    sub = decompose(validate_chain(rare_exit_matrix(rng, 50, 1e-3, 1e-2)))
    return InitialDistribution(rng.dirichlet(np.ones(50))), sub


def _random_start(seed):
    return InitialDistribution.uniform(30), decompose(random_chain(np.random.default_rng(seed), 30))


_GRID_CASES = {
    # B = I + Q is nilpotent: the sums are padded with zeros past s_3.
    "tstage:3": (lambda: _named_start(gen_tstage(3)), np.linspace(0.0, 20.0, 401)),
    # A countdown stepped as single entries.
    "fig3a:40,2": (lambda: _named_start(gen_fig3a(40, 2)), np.linspace(0.0, 400.0, 201)),
    "random": (lambda: _random_start(41), np.linspace(0.0, 50.0, 201)),
    # The series settles into its geometric tail after a few dozen terms,
    # and the later windows, still narrow enough to share a call, read it.
    "rare-exit": (lambda: _rare_exit_start(83), np.linspace(0.0, 1500.0, 151)),
    # exp(-t) underflows to 0 and B = 0: past t = 0 every row reads the
    # zero tail of the walk's end, with no window.
    "classical": (_classical, [0.0, 2.5e5, 5e5, 1e6]),
    "repeated": (
        lambda: _named_start(gen_tstage(3)),
        [0.0, 0.0, 1e-300, 1e-300, 0.5, 0.5, 2.0, 2.0, 2.0],
    ),
}


@pytest.mark.parametrize("name", list(_GRID_CASES))
def test_grid_reads_match_per_point_reads(name):
    # A grid is read in batches of windows built by one _weights call and
    # weighted against one gather of the sums; each value stays within
    # 2e-15 of the series read at that one point, and 0 where that is 0.
    build, grid = _GRID_CASES[name]
    alpha, sub = build()
    grid = np.asarray(grid, dtype=float)
    series = fluidhit.numerics._SurvivalSeries(sub, alpha.alpha)
    got = series.continuous(grid)
    one = fluidhit.numerics._SurvivalSeries(sub, alpha.alpha)
    want = np.array([one.continuous(t) for t in grid])
    assert np.all(np.abs(got - want) <= 2e-15 * want)
    assert np.array_equal(got, transient_survival(alpha, sub, grid))
    # A lone time is the one-row case of the same read: each point read
    # alone, off the series or by transient_survival, is its one-point grid.
    for t, lone in zip(grid, want):
        assert lone == one.continuous(np.array([t]))[0]
        assert transient_survival(alpha, sub, t) == transient_survival(alpha, sub, [t])[0]
    if name == "rare-exit":
        c = series.c
        assert series.tail is not None and len(series._sums) < c * grid[-1]
        assert len(list(fluidhit.numerics._batches(c * grid))) < grid.size // 10


def test_trajectory_builds_its_windows_in_one_call(monkeypatch):
    # The 401 windows of perfbench's tstage:3 curve, each a few dozen
    # weights, are built by one _weights call, not one per point.
    ex = gen_tstage(3)
    calls = []
    weights = fluidhit.numerics._weights

    def counted(**kwargs):
        calls.append(kwargs)
        return weights(**kwargs)

    monkeypatch.setattr(fluidhit.numerics, "_weights", counted)
    fluid_trajectory(ex.default_alpha, decompose(ex.chain), np.linspace(0.0, 20.0, 401))
    assert len(calls) == 1 and np.size(calls[0]["t"]) == 401


def _ci_rare_exit_start():
    """tier1.yml's 300-state chain: every state exits with 1e-5 and spreads the
    rest over 10 seeded states; uniform start, survival exactly e^(-t/10^5)."""
    n, p = 300, 1e-5
    rng = random.Random(11)
    P = np.zeros((n + 1, n + 1))
    P[0, 0] = 1.0
    for i in range(1, n + 1):
        cols = rng.sample(range(1, n + 1), 10)
        w = [rng.random() for _ in range(10)]
        P[i, 0] = p
        P[i, cols] = [(1 - p) * x / sum(w) for x in w]
    return InitialDistribution.uniform(n), decompose(validate_chain(P))


def test_wide_grid_windows_cost_what_per_point_reads_do():
    # Windows would be about 34,000 wide (c t up to 4.6e5). The grid's
    # series finds its tail before it builds any, so only the t = 0 row
    # builds one and the rest read the closed form, where per-point reads
    # build a window until a read settles the series. The memory peak
    # stays near the per-point reads' 1.2 MiB, and the time within theirs
    # (best of five, alternating).
    alpha, sub = _ci_rare_exit_start()
    t_N = crossing_time(alpha, sub, 1e-2).time
    assert t_N == pytest.approx(1e5 * math.log(100), rel=1e-9)
    grid = np.linspace(0.0, t_N + 2.0, 201)
    tracemalloc.start()
    try:
        got = transient_survival(alpha, sub, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.2 + 4.0) * 2**20
    assert got == pytest.approx(np.exp(-grid / 1e5), rel=1e-9, abs=0)

    def per_point():
        series = fluidhit.numerics._SurvivalSeries(sub, alpha.alpha)
        return [series.continuous(t) for t in grid]

    reads = {"grid": lambda: transient_survival(alpha, sub, grid), "points": per_point}
    best = dict.fromkeys(reads, math.inf)
    for _ in range(5):
        for name, read in reads.items():
            start = time.perf_counter()
            read()
            best[name] = min(best[name], time.perf_counter() - start)
    assert best["grid"] <= 1.1 * best["points"]


_PAST_TAIL_GRIDS = {
    # The series settles within a few dozen terms; the survival is e^(-t/10^5).
    "rare-exit": (_ci_rare_exit_start, np.linspace(0.0, 1e6, 201)),
    # The walk ends at s_1 = 0 (B = 0), and the survival is e^(-t/3).
    "fig3b:3": (lambda: _named_start(gen_fig3b(3)), np.linspace(0.0, 3e6, 201)),
    # The walk ends at s_3 = 0 (B^3 = 0).
    "tstage:3": (lambda: _named_start(gen_tstage(3)), np.linspace(0.0, 2e6, 201)),
}


@pytest.mark.parametrize("name", list(_PAST_TAIL_GRIDS))
def test_grid_past_a_known_tail_builds_no_window(monkeypatch, name):
    # The series is stepped to the last row's reach before any window is
    # built, and finds its tail (or its walk's end) within a few dozen
    # terms: only the t = 0 row, whose window reaches below s_J, is built;
    # every later row reads the closed form s_J r^-J e^(-c t (1 - r)).
    alpha, sub = _PAST_TAIL_GRIDS[name][0]()
    grid = _PAST_TAIL_GRIDS[name][1]
    rows = []
    weights = fluidhit.numerics._weights

    def counted(**kwargs):
        rows.append(np.size(kwargs["t"]))
        return weights(**kwargs)

    monkeypatch.setattr(fluidhit.numerics, "_weights", counted)
    got = transient_survival(alpha, sub, grid)
    assert sum(rows) == 1
    if name == "rare-exit":
        assert got == pytest.approx(np.exp(-grid / 1e5), rel=1e-9, abs=0)
    elif name == "fig3b:3":
        assert np.max(np.abs(got - np.exp(-grid / 3.0))) <= 1e-12
    else:
        assert got[0] == 1.0 and not got[1:].any()


def _line_into_fast_exit(K, r):
    """K states stepping on at rate 1 in a line into one that exits at rate
    1 - r, from a uniform start: the sums fall slower than r^j until the
    line empties, and settle at ratio r only then, so s_J r^(j-J) far
    exceeds s_j for j < J."""
    P = np.zeros((K + 2, K + 2))
    P[0, 0] = 1.0
    for i in range(1, K + 1):
        P[i, i + 1] = 1.0
    P[K + 1, 0], P[K + 1, K + 1] = 1.0 - r, r
    return InitialDistribution.uniform(K + 1), decompose(validate_chain(P))


def _windowed(series, t, ratio=None):
    """The series read at times t through _weights windows alone, batch by batch."""
    numerics = fluidhit.numerics
    return np.concatenate([
        series._weighted(*numerics._weights(rate=series.c, t=t[rows]), ratio=ratio)
        for rows in numerics._batches(series.c * t)
    ])


def test_closed_form_tail_matches_the_window_and_its_bracket():
    # Settled series of seeded random chains, read over a factor of four
    # from the first mean whose window lies wholly past J, and of two lines
    # into a fast exit, read from there to 4 J / r, where the tilted mean
    # c t r passes J. continuous reads the closed form where both lie past
    # J and windows elsewhere. Every read agrees with the windows over the
    # same tail within 1e-14 relative per 30 of the exponent c t (1 - r)
    # (its rounding costs about as many ulps), or within the windows' own
    # down cut, 2^-1022 s_J. On the random chains the closed form at the
    # bracket's ends lo and hi agrees with the windows at those ratios
    # too, and brackets both reads at the midpoint.
    numerics = fluidhit.numerics

    def agree(got, window, t, ratio, what):
        x = series.c * t * (1.0 - ratio)
        err = np.abs(got - window) - 1e-14 * np.maximum(1.0, x / 30.0) * window
        assert np.all(err <= 2.0**-1022 * series._sums[-1]), what

    chains = [(f"seed {seed}", seed) for seed in range(12)] + [
        ("line 250, r = 1e-4", _line_into_fast_exit(250, 1e-4)),
        ("line 1000, r = 0.9", _line_into_fast_exit(1000, 0.9)),
    ]
    for name, chain in chains:
        if isinstance(chain, int):
            rng = np.random.default_rng(chain)
            S, density = int(rng.integers(150, 301)), float(rng.uniform(0.05, 1.0))
            alpha, sub = InitialDistribution.uniform(S), decompose(random_chain(rng, S, density))
        else:
            alpha, sub = chain
        series = numerics._SurvivalSeries(sub, alpha.alpha)
        _crossing(series, 1e-12)
        tail, J, c = series.tail, len(series._sums) - 1, series.c
        assert tail is not None and series._sums[-1] > 0.0, f"{name}: no tail"
        r = 0.5 * (tail.lo + tail.hi)
        first = 1.0
        while numerics._reach(first) <= J:
            first += 1.0
        last = 4.0 * first if isinstance(chain, int) else min(4.0 * J / r, numerics.TERM_BUDGET)
        t = np.geomspace(first, last, 25) / c
        assert numerics._weights(rate=c, t=t[:1])[0][0] > J
        agree(series.continuous(t), _windowed(series, t), t, r, name)
        if not isinstance(chain, int):
            continue
        reads = {}
        for ratio in (tail.lo, None, tail.hi):
            closed = series._past_tail(c * t, ratio)  # the means _weights reads
            agree(closed, _windowed(series, t, ratio), t, r if ratio is None else ratio, f"{name}, {ratio}")
            reads[ratio] = closed
        for read in (reads[None], _windowed(series, t)):
            assert np.all(reads[tail.lo] <= read) and np.all(read <= reads[tail.hi]), name


def test_reads_past_the_term_budget_are_refused_settled_or_not():
    # A time with c t past TERM_BUDGET is refused whether or not the series
    # has settled: the closed form would answer it, but the refusal stands.
    alpha, sub = _ci_rare_exit_start()
    series = fluidhit.numerics._SurvivalSeries(sub, alpha.alpha)
    past = 1.5 * series.time_limit()
    for settled in (False, True):
        assert (series.tail is not None) == settled
        with pytest.raises(NonConvergent, match="budget"):
            series.continuous(past)
        with pytest.raises(NonConvergent, match="budget"):
            series.continuous(np.array([0.0, past]))
        series.continuous(np.linspace(0.0, 1e6, 5))  # settles the series
    assert series.continuous(1e6) == pytest.approx(math.exp(-10.0), rel=1e-9)


def test_survival_grid_stops_at_the_first_zero_sum(monkeypatch):
    # exp(-t) underflows to exactly 0, and B = I + Q/c = 0 on the
    # classical chain: s_1 = 0, so the walk ends there instead of stepping
    # about 10^6 terms to the last point, and no zero sums are kept.
    alpha, sub = _classical()
    grid = [0.0, 2.5e5, 5e5, 1e6]
    tracemalloc.start()
    try:
        transient_survival(alpha, sub, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20
    terms = []
    iterates = fluidhit.numerics._row_iterates

    def counted(*args):
        for u in iterates(*args):
            terms.append(None)
            yield u

    monkeypatch.setattr(fluidhit.numerics, "_row_iterates", counted)
    got = transient_survival(alpha, sub, grid)
    assert got.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert len(terms) == 2  # alpha and alpha B
    # A lone time is carried by expm_action, whose walk ends at the same
    # zero iterate: n + 1 iterates at most on a nilpotent B, and the one
    # zero start of the series, not c t of them.
    for name in ("classical", "tstage:3", "fig3b:3", "fig3a:40,2"):
        ex = get_example(name)
        sub = decompose(ex.chain)
        terms.clear()
        assert transient_survival(ex.default_alpha, sub, 1e6) == 0.0
        assert len(terms) <= sub.n_transient + 2, name


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
        oracle = rk4_absorbed_fraction(ex.chain.P.toarray(), full0, grid)
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
        oracle = rk4_absorbed_fraction(chain.P.toarray(), full0, grid)
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

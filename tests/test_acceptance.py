"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
statistical criteria use fixed seeds throughout.
"""

import math
import time

import numpy as np

from fluidhit import (
    OccupancyState,
    PhaseType,
    assemble_report,
    crossing_time,
    decompose,
    discrete_survival,
    dominant_eigen,
    eigen_spectrum,
    erlang_m0,
    estimate_hitting_time,
    expected_hitting_times,
    fluid_trajectory,
    gen_classical,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    harmonic_number,
    mean_jump_count,
    random_chain,
    simulate_trajectory,
    spectral_params,
    stochastic_order_check,
    theorem3_bound,
    theorem4_bound,
    x_threshold,
)

from oracles import (
    exact_occupancy_mean_hitting,
    ks_two_sample_stat,
    rk4_absorbed_fraction,
    stepped_hitting_times,
)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_classical_exactness():
    ex = gen_classical()
    start = time.perf_counter()
    initial = OccupancyState.from_alpha(ex.default_alpha, 50)
    res = estimate_hitting_time(ex.chain, initial, 20000, seed=101)
    elapsed = time.perf_counter() - start
    exact = 50 * harmonic_number(50)
    rel = abs(res.mean - exact) / exact
    ok = rel < 0.01 and elapsed <= 10.0
    _report(1, ok, f"mean {res.mean:.3f} vs 50*H_50 {exact:.4f}, "
                   f"rel {rel:.4%}, {elapsed:.1f}s")


def test_criterion_02_fig3b_exactness():
    ex = gen_fig3b(3)
    start = time.perf_counter()
    initial = OccupancyState.from_alpha(ex.default_alpha, 20)
    res = estimate_hitting_time(ex.chain, initial, 20000, seed=102)
    elapsed = time.perf_counter() - start
    exact = 20 * 3 * harmonic_number(20)
    rel = abs(res.mean - exact) / exact
    ok = rel < 0.02 and elapsed <= 30.0
    _report(2, ok, f"mean {res.mean:.3f} vs 60*H_20 {exact:.4f}, "
                   f"rel {rel:.4%}, {elapsed:.1f}s")


def test_criterion_03_bound_dominance():
    runs = 3000
    failures = []
    for N in (10, 50, 100):
        cases = [gen_classical(), gen_tstage(3), gen_fig3b(2), gen_fig3a(N, 2)]
        for ex in cases:
            sub = decompose(ex.chain)
            W = expected_hitting_times(sub)
            initial = OccupancyState.from_alpha(ex.default_alpha, N)
            res = estimate_hitting_time(ex.chain, initial, runs, seed=103)
            floor = res.mean - 3 * res.stderr
            ceil = res.mean + 3 * res.stderr
            t1 = assemble_report(ex.chain, ex.default_alpha, N).theorem1
            t3 = theorem3_bound(W, initial)
            t4 = theorem4_bound(float(W.max()), N)
            for nm, val in (("theorem1", t1), ("theorem3", t3), ("theorem4", t4)):
                if val < floor:
                    failures.append(f"{ex.name} N={N} {nm} {val:.1f} < {floor:.1f}")
            lb = ex.lower_bound(N)
            if lb is not None and lb > ceil:
                failures.append(f"{ex.name} N={N} lower {lb:.1f} > {ceil:.1f}")
            if ex.params.get("kind") == "fig3a" and N == 10:
                if abs(lb - 95.62) > 0.01:
                    failures.append(f"fig3a lower {lb} != 95.62")
    _report(3, not failures, failures or "theorem1/3/4 above mean-3se, "
                                         "fig3a lower (95.62 at N=10) below mean+3se")


def test_criterion_04_fluid_oracle():
    grid = np.concatenate([[0.0], np.geomspace(1e-2, 30.0, 49)])
    worst_erlang = 0.0
    worst_rk4 = 0.0
    for T in range(1, 7):
        ex = gen_tstage(T)
        sub = decompose(ex.chain)
        fluid_vals = fluid_trajectory(ex.default_alpha, sub, grid).m0_values
        erlang_vals = np.array([erlang_m0(T, t) for t in grid])
        full0 = np.zeros(T + 1)
        full0[T] = 1.0
        rk4_vals = rk4_absorbed_fraction(ex.chain.dense(), full0, grid, h=0.004)
        worst_erlang = max(worst_erlang, float(np.max(np.abs(fluid_vals - erlang_vals))))
        worst_rk4 = max(worst_rk4, float(np.max(np.abs(fluid_vals - rk4_vals))))
    ok = worst_erlang < 1e-8 and worst_rk4 < 1e-8
    _report(4, ok, f"max |fluid-erlang| {worst_erlang:.2e}, "
                   f"max |fluid-rk4| {worst_rk4:.2e} (< 1e-8)")


def test_criterion_05_crossing_exactness():
    ex = gen_classical()
    sub = decompose(ex.chain)
    worst = 0.0
    for N in (10, 10**3, 10**6):
        t = crossing_time(ex.default_alpha, sub, 1.0 / N).time
        worst = max(worst, abs(t - math.log(N)))
    _report(5, worst <= 1e-9, f"max |t_N - ln N| = {worst:.2e} (<= 1e-9)")


def test_criterion_06_threshold_inequality():
    failures = []
    for N in (10, 100, 1000):
        cases = [gen_classical(), gen_tstage(3), gen_fig3b(2), gen_fig3a(N, 2)]
        for ex in cases:
            sub = decompose(ex.chain)
            mj = mean_jump_count(sub, ex.default_alpha)
            t_n = crossing_time(ex.default_alpha, sub, 1.0 / N).time
            x_n = x_threshold(PhaseType.discrete(ex.default_alpha, sub, N))
            if x_n > N * (t_n + mj):
                failures.append(
                    f"{ex.name} N={N}: x_N {x_n} > {N * (t_n + mj):.1f}"
                )
    _report(6, not failures,
            failures or "x_N <= N (t_N + mean_jumps) on all examples, N in {10,100,1000}")


def test_criterion_07_spectral_correctness():
    failures = []
    for T in range(1, 6):
        sp = spectral_params(decompose(gen_tstage(T).chain))
        if sp.k != T - 1 or abs(sp.nu - 1.0) > 1e-9:
            failures.append(f"tstage({T}) -> ({sp.nu}, {sp.k})")
    for T in (2, 3, 7):
        sp = spectral_params(decompose(gen_fig3b(T).chain))
        if sp.k != 0 or abs(sp.nu - 1.0 / T) > 1e-9:
            failures.append(f"fig3b({T}) -> ({sp.nu}, {sp.k})")
    rng = np.random.default_rng(107)
    worst = worst_numpy = 0.0
    for _ in range(50):
        S = int(rng.integers(1, 9))
        sub = decompose(random_chain(rng, S))
        lead = dominant_eigen(sub.Q)
        dense = eigen_spectrum(sub.Q)[0].real
        worst = max(worst, abs(lead - dense))
        # Both share the class split; numpy on the dense Q shares no code with them.
        plain = float(np.max(np.linalg.eigvals(sub.Q.toarray()).real))
        worst_numpy = max(worst_numpy, abs(lead - plain), abs(dense - plain))
    if worst > 1e-7:
        failures.append(f"dominant vs dense gap {worst:.2e}")
    if worst_numpy > 1e-7:
        failures.append(f"gap to numpy.linalg.eigvals {worst_numpy:.2e}")
    _report(7, not failures,
            failures or f"(nu,k) exact for tstage/fig3b; "
                        f"power-vs-dense gap {worst:.2e}, gap to numpy {worst_numpy:.2e} "
                        f"(<= 1e-7) on 50 random chains")


def test_criterion_08_theorem2_trend():
    N = 10**4
    ex = gen_classical()
    initial = OccupancyState.from_alpha(ex.default_alpha, N)
    res = estimate_hitting_time(ex.chain, initial, 2000, seed=108)
    ratio1 = res.mean / (N * math.log(N))
    ok1 = 0.95 <= ratio1 <= 1.15

    ex2 = gen_tstage(2)
    initial2 = OccupancyState.from_alpha(ex2.default_alpha, N)
    res2 = estimate_hitting_time(ex2.chain, initial2, 400, seed=109)
    ratio2 = (res2.mean - N * math.log(N)) / (N * math.log(math.log(N)))
    ok2 = 0.3 <= ratio2 <= 2.5
    _report(8, ok1 and ok2,
            f"classical mean/(N ln N) = {ratio1:.4f} in [0.95, 1.15]; "
            f"tstage(2) (mean - N ln N)/(N ln ln N) = {ratio2:.4f} in [0.3, 2.5]")


def _median_sup_distance(ex, N, runs, seed):
    sub = decompose(ex.chain)
    grid = np.linspace(0.0, math.log(N) + 2.0, 120)
    fluid_vals = fluid_trajectory(ex.default_alpha, sub, grid).m0_values
    initial = OccupancyState.from_alpha(ex.default_alpha, N)
    sups = []
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        sample = simulate_trajectory(ex.chain, initial, grid, rng)
        sups.append(float(np.max(np.abs(sample.m0_fractions - fluid_vals))))
    return float(np.median(sups))


def test_criterion_09_figure1_reproduction():
    ex = gen_classical()
    med20 = _median_sup_distance(ex, 20, 100, seed=110)
    med1000 = _median_sup_distance(ex, 1000, 100, seed=111)
    ok = med1000 < med20
    _report(9, ok, f"median sup-distance N=1000 {med1000:.4f} < N=20 {med20:.4f}")


def test_criterion_10_brute_force_equivalence():
    failures = []
    cases = [
        (gen_classical(), (1, 2, 3)),
        (gen_fig3b(2), (2, 3)),
        (gen_tstage(2), (2, 3)),
    ]
    for ex, populations in cases:
        dense = ex.chain.dense()
        n_states = ex.chain.size
        for N in populations:
            initial = OccupancyState.from_alpha(ex.default_alpha, N)
            counts = [initial.counts.get(s, 0) for s in range(n_states)]
            exact = exact_occupancy_mean_hitting(dense, counts)
            res = estimate_hitting_time(ex.chain, initial, 20000, seed=112)
            slack = 3 * (res.stderr or 0.0)
            if abs(res.mean - exact) > slack:
                failures.append(
                    f"{ex.name} N={N}: mean {res.mean:.3f} vs exact {exact:.3f}"
                )

    ex = gen_classical()
    initial = OccupancyState.from_alpha(ex.default_alpha, 10)
    # The library's Poissonized sampler against the oracle's stepper.
    sampled = estimate_hitting_time(ex.chain, initial, 10**4, seed=113)
    stepped = stepped_hitting_times(ex.chain, initial, 10**4, seed=114)
    ks = ks_two_sample_stat(sampled.samples, stepped)
    critical = 1.628 * math.sqrt(2.0 / 10**4)  # two-sample KS at the 1% level
    if ks > critical:
        failures.append(f"KS sampler/stepper {ks:.4f} > {critical:.4f}")
    _report(10, not failures,
            failures or f"occupancy oracle matched within 3se; "
                        f"KS(sampler/stepper) {ks:.4f} <= {critical:.4f}")


def test_criterion_11_proof_inequality_replays():
    failures = []
    # Union bound at sample deciles: P(T_N > k) <= min(1, N * survival(k)).
    for ex, N in ((gen_classical(), 50), (gen_fig3b(2), 20)):
        sub = decompose(ex.chain)
        pt = PhaseType.discrete(ex.default_alpha, sub, N)
        initial = OccupancyState.from_alpha(ex.default_alpha, N)
        res = estimate_hitting_time(ex.chain, initial, 20000, seed=115)
        samples = np.asarray(res.samples)
        for q in range(1, 10):
            k = int(np.quantile(samples, q / 10))
            emp = float(np.mean(samples > k))
            bound = min(1.0, N * discrete_survival(pt, k))
            stderr = math.sqrt(max(emp * (1 - emp), 1e-12) / len(samples))
            if emp > bound + 3 * stderr:
                failures.append(
                    f"{ex.name} N={N} decile {q}: {emp:.4f} > {bound:.4f}"
                )
    # Geometric-vs-exponential coupling inequality on dense grids.
    for qii in (-1.0, -0.5, -2.0):
        for N in (10, 100):
            grid = np.linspace(0.0, 10.0, 2000)
            if not stochastic_order_check(qii, N, grid):
                failures.append(f"stochastic order fails qii={qii} N={N}")
    _report(11, not failures,
            failures or "union bound holds at all deciles; "
                        "stochastic order holds on dense grids")

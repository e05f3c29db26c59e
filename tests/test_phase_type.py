import math

import numpy as np
import pytest
import scipy.sparse as sp

from fluidhit import (
    InitialDistribution,
    PhaseType,
    crossing_time,
    decompose,
    discrete_survival,
    expm_action,
    gen_classical,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    mean_jump_count,
    spectral_params,
    transient_survival,
    validate_chain,
    x_threshold,
)
from fluidhit import numerics
from fluidhit.errors import DegenerateTail, NonConvergent, ScaleTooSmall

from oracles import (
    rare_exit_matrix,
    sample_absorption_step,
    stochastic_order_check,
    sub_generator,
    threshold_scan,
)


def _classical_pt(N):
    ex = gen_tstage(1)
    return PhaseType.discrete(ex.default_alpha, decompose(ex.chain), N)


def test_continuous_survival_classical():
    ex = gen_tstage(1)
    sub = decompose(ex.chain)
    assert transient_survival(ex.default_alpha, sub, math.log(4.0)) == pytest.approx(0.25, abs=1e-12)
    assert transient_survival(ex.default_alpha, sub, 0.0) == pytest.approx(1.0)


def test_continuous_survival_erlang2():
    ex = gen_tstage(2)
    survival = transient_survival(ex.default_alpha, decompose(ex.chain), 1.0)
    assert survival == pytest.approx(2 * math.exp(-1), abs=1e-10)


def test_discrete_survival_values():
    assert discrete_survival(_classical_pt(2), 1) == pytest.approx(0.5)
    assert discrete_survival(_classical_pt(7), 0) == pytest.approx(1.0)
    assert discrete_survival(_classical_pt(4), 8) == pytest.approx(0.75**8)
    assert discrete_survival(_classical_pt(4), 8) == pytest.approx(0.1001129, abs=1e-7)


def test_discrete_scale_guard():
    sub = sub_generator([[-2.0, 1.0], [1.0, -3.0]])
    alpha = InitialDistribution(alpha=np.array([1.0, 0.0]))
    with pytest.raises(ScaleTooSmall):
        PhaseType.discrete(alpha, sub, 1)
    PhaseType.discrete(alpha, sub, 3)  # max(-Q_ii) = 3 is allowed


def test_x_threshold_examples():
    assert x_threshold(_classical_pt(2)) == 0
    assert x_threshold(_classical_pt(100)) == 390
    fb = gen_fig3b(2)
    pt = PhaseType.discrete(fb.default_alpha, decompose(fb.chain), 100)
    assert x_threshold(pt) == 781


def test_x_threshold_matches_naive_scan():
    ex = gen_tstage(3)
    sub = decompose(ex.chain)
    pt = PhaseType.discrete(ex.default_alpha, sub, 25)
    value = x_threshold(pt)
    assert value == threshold_scan(sub.Q, ex.default_alpha.alpha, 25, 2 * value + 10)
    target = 2.0 / 25
    assert discrete_survival(pt, value) <= target
    assert discrete_survival(pt, value - 1) > target


# The acceptance sweep's cases (criterion 6), and a threshold 397,669 steps out.
_THRESHOLD_CASES = [
    (f"{name}-N{N}", build, N)
    for N in (10, 100, 1000)
    for name, build in (
        ("classical", lambda N: gen_classical()),
        ("tstage:3", lambda N: gen_tstage(3)),
        ("fig3b:2", lambda N: gen_fig3b(2)),
        (f"fig3a:{N},2", lambda N: gen_fig3a(N, 2)),
    )
] + [("tstage:20-N10000", lambda N: gen_tstage(20), 10**4)]


@pytest.mark.parametrize(
    "build, N", [case[1:] for case in _THRESHOLD_CASES], ids=[case[0] for case in _THRESHOLD_CASES]
)
def test_x_threshold_matches_oracle_scan(build, N):
    ex = build(N)
    sub = decompose(ex.chain)
    x = x_threshold(PhaseType.discrete(ex.default_alpha, sub, N))
    # The scan is exact up to its horizon and raises beyond it.
    assert x == threshold_scan(sub.Q, ex.default_alpha.alpha, N, 2 * x + 10)
    if ex.name == "tstage:20" and N == 10**4:
        assert x == 397_669


def test_x_threshold_on_a_stiff_chain_matches_matrix_powers(monkeypatch):
    # 8 states exiting with probabilities in [1e-5, 1e-4]: x_N is 235,390
    # steps of I + Q/N, whose binomial weights reach 26,630 terms of the
    # series. It takes a geometric tail after 39, and x_N is still the
    # smallest k whose matrix power brings the survival to 2/N.
    rng = np.random.default_rng(89)
    sub = decompose(validate_chain(rare_exit_matrix(rng, 8, 1e-5, 1e-4)))
    alpha = InitialDistribution(rng.dirichlet(np.ones(8)))
    N = 10
    terms = []
    iterates = numerics._row_iterates

    def counted(*args):
        for u in iterates(*args):
            terms.append(None)
            yield u

    monkeypatch.setattr(numerics, "_row_iterates", counted)
    x = x_threshold(PhaseType.discrete(alpha, sub, N))
    assert len(terms) <= 100
    step = np.eye(8) + sub.Q.toarray() / N

    def survival(k):
        return float(alpha.alpha @ np.linalg.matrix_power(step, k) @ np.ones(8))

    assert survival(x) <= 2.0 / N < survival(x - 1)


def test_x_threshold_gallop_cap_raises_typed_error():
    # B = I + Q/c is 0 here, and (1 - 1e-21)^k stays above 2/N far past 2^53.
    sub = sub_generator([[-1e-20]])
    pt = PhaseType.discrete(InitialDistribution(alpha=np.array([1.0])), sub, 10)
    with pytest.raises(NonConvergent, match="2\\^53"):
        x_threshold(pt)


def test_x_threshold_reaches_the_term_budget(monkeypatch):
    # The budget admits k up to x_N, below the power of two that brackets
    # x_N, so the gallop has to clamp its last step to the budget.
    ex = gen_tstage(3)
    sub = decompose(ex.chain)
    pt = PhaseType.discrete(ex.default_alpha, sub, 25)
    x = x_threshold(pt)
    p = sub.max_exit_rate / 25
    assert x < 1 << (x - 1).bit_length()
    monkeypatch.setattr(numerics, "TERM_BUDGET", (x + 0.5) * p)
    assert x_threshold(pt) == x
    monkeypatch.setattr(numerics, "TERM_BUDGET", (x - 0.5) * p)
    with pytest.raises(NonConvergent, match="budget"):
        x_threshold(pt)


def test_sparse_row_switch_matches_dense_matrix():
    # 2001 states, each stepping to up to 10 next ones, so that B stores
    # more than 20,000 entries: the first iterate is a sparse row (1 state
    # of 2001), the second fills 601 > 2001/4 states and is stepped densely
    # from there.
    n, N = 2001, 20
    Q = sp.lil_array((n, n))
    Q.setdiag(-1.0)
    Q[0, 1:602] = 1.0 / 601
    for i in range(1, n - 1):
        Q[i, i + 1:i + 11] = 0.5 / len(range(i + 1, min(i + 11, n)))
    sub = sub_generator(sp.csr_array(Q))
    assert sub.Q.nnz > 20_000
    alpha = InitialDistribution(alpha=np.eye(n)[0])
    pt = PhaseType.discrete(alpha, sub, N)

    B = np.eye(n) + Q.toarray() / N
    dense = [alpha.alpha]
    while dense[-1].sum() > 2.0 / N:
        dense.append(dense[-1] @ B)
    assert x_threshold(pt) == len(dense) - 1
    for k in (1, 2, 7, len(dense) - 1):
        assert discrete_survival(pt, k) == pytest.approx(dense[k].sum(), rel=1e-12)
    for t in (0.5, 3.0):
        got = expm_action(sub.Q, alpha.alpha, t)
        assert got == pytest.approx(expm_action(Q.toarray(), alpha.alpha, t), rel=1e-12, abs=1e-15)


def test_spectral_tstage():
    for T in (1, 2, 3, 4, 5):
        sp = spectral_params(decompose(gen_tstage(T).chain))
        assert sp.nu == pytest.approx(1.0, abs=1e-12)
        assert sp.k == T - 1


def test_spectral_fig3b():
    for T in (2, 5):
        sp = spectral_params(decompose(gen_fig3b(T).chain))
        assert sp.nu == pytest.approx(1.0 / T, abs=1e-12)
        assert sp.k == 0


# A strongly connected class of two states, roots (-5 +- sqrt 5)/2. It
# leaves at rate 1 from the first state and 2 from the second; in series,
# half of each of those exits goes on into the next copy.
_CLASS = np.array([[-2.0, 1.0], [1.0, -3.0]])


def _two_classes(shift=0.0, series=False):
    Q = sp.block_diag([_CLASS, _CLASS - shift * np.eye(2)]).toarray()
    if series:
        Q[0, 2], Q[1, 3] = 0.5, 1.0
    return sub_generator(Q)


@pytest.mark.parametrize("series", [False, True], ids=["side_by_side", "in_series"])
@pytest.mark.parametrize("shift, k", [(0.0, 1), (1e-12, 1), (1e-9, 0)])
def test_spectral_k_counts_equal_class_roots(series, shift, k):
    # ||Q||_inf is 4 side by side and 5 in series, so roots 1e-9 apart are
    # told apart at 1e-10 ||Q|| and roots 1e-12 apart are not.
    params = spectral_params(_two_classes(shift, series))
    assert params.nu == pytest.approx((5.0 - math.sqrt(5.0)) / 2.0, abs=1e-10)
    assert params.k == k


def test_spectral_k_counts_the_roots_near_nu_not_a_chain_of_them():
    # Singletons -1, -1 - 0.6e-10 and -1 - 1.2e-10, with ||Q||_inf just past
    # 1: each is within 1e-10 ||Q|| of the next, but only the first two are
    # within it of -nu = -1, so they alone count as its copies.
    Q = np.diag([-1.0, -1.0 - 0.6e-10, -1.0 - 1.2e-10])
    params = spectral_params(sub_generator(Q))
    assert params.nu == pytest.approx(1.0, abs=1e-12)
    assert params.k == 1


def _repeated_classes(rng):
    """(Q, blocks): copies of a few random strongly connected classes, linked
    forward only and shuffled, and the diagonal block of each copy."""
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, 4))
        B = np.zeros((size, size))
        if size > 1:
            B[np.arange(size), np.roll(np.arange(size), -1)] = rng.uniform(0.2, 1.0, size)
        B[np.diag_indices(size)] = -(B.sum(axis=1) + rng.uniform(0.05, 1.0, size))
        blocks += [B] * int(rng.integers(1, 6))
    blocks = [blocks[i] for i in rng.permutation(len(blocks))]
    Q = sp.block_diag(blocks).toarray()
    n = Q.shape[0]
    series = rng.random() < 0.5
    start = 0
    for B in blocks:
        stop = start + B.shape[0]
        if stop < n and (series or rng.random() < 0.3):
            # A share of each state's exit goes on to later states; the
            # diagonal, and so the copy's block, stays as it is.
            exits = -B.sum(axis=1)
            Q[np.arange(start, stop), rng.integers(stop, n, B.shape[0])] += rng.uniform(0, 1, B.shape[0]) * exits
        start = stop
    perm = rng.permutation(n)
    return Q[perm][:, perm], blocks


def test_spectral_k_counts_the_classes_at_the_dominant_root():
    rng = np.random.default_rng(83)
    seen = set()
    for _ in range(150):
        Q, blocks = _repeated_classes(rng)
        params = spectral_params(sub_generator(Q))
        roots = np.array([np.max(np.linalg.eigvals(B).real) for B in blocks])
        tol = 1e-10 * max(np.abs(Q).sum(axis=1).max(), 1.0)
        assert params.nu == pytest.approx(-roots.max(), abs=tol)
        assert params.k + 1 == np.count_nonzero(np.abs(roots + params.nu) <= tol)
        seen.add(params.k)
    assert seen == {0, 1, 2, 3, 4}


def test_gamma_fit_pure_exponential():
    # Q = diag(-1, -2), alpha on the slow state: survival is exactly e^{-t}.
    sub = sub_generator(np.diag([-1.0, -2.0]))
    alpha = InitialDistribution(alpha=np.array([1.0, 0.0]))
    sp = spectral_params(sub, estimate_gamma=True, alpha=alpha)
    assert sp.nu == pytest.approx(1.0, abs=1e-9)
    assert sp.k == 0
    assert sp.gamma == pytest.approx(1.0, rel=0.05)


def test_spectral_simple_root_of_dense_random_chain():
    # Every row of the dense random block sums to 1 - nu, so Q 1 = -nu 1 and
    # the survival is exactly exp(-nu t); -nu is a simple eigenvalue and the
    # other 59 lie far from it.
    S, nu = 60, 2.0 / 61
    rng = np.random.default_rng(501)
    T = rng.exponential(size=(S, S))
    T *= (1.0 - nu) / T.sum(axis=1, keepdims=True)
    sub = sub_generator(T - np.eye(S))
    alpha = InitialDistribution(alpha=np.full(S, 1.0 / S))
    sp = spectral_params(sub, estimate_gamma=True, alpha=alpha)
    assert sp.nu == pytest.approx(nu, rel=1e-9)
    assert sp.k == 0
    assert sp.gamma == pytest.approx(nu, rel=1e-6)


def test_gamma_degenerate_tail():
    # alpha on the fast state only: survival e^{-2t} never matches e^{-t}.
    sub = sub_generator(np.diag([-1.0, -2.0]))
    alpha = InitialDistribution(alpha=np.array([0.0, 1.0]))
    with pytest.raises(DegenerateTail):
        spectral_params(sub, estimate_gamma=True, alpha=alpha)


def test_stochastic_order_examples():
    assert stochastic_order_check(-1.0, 10, [0.0, 0.5, 1.0, 5.0])
    assert stochastic_order_check(-1.0, 1, [0.0])
    assert stochastic_order_check(-2.0, 100, np.linspace(0.0, 10.0, 400))


def test_stochastic_order_guards():
    with pytest.raises(ScaleTooSmall):
        stochastic_order_check(-2.0, 1, [0.0])
    with pytest.raises(ValueError):
        stochastic_order_check(1.0, 10, [0.0])


def test_sampler_classical_single_chain():
    rng = np.random.default_rng(0)
    pt = _classical_pt(1)
    assert all(sample_absorption_step(pt, rng) == 1 for _ in range(50))


def test_sampler_tstage2_single_chain():
    ex = gen_tstage(2)
    pt = PhaseType.discrete(ex.default_alpha, decompose(ex.chain), 1)
    rng = np.random.default_rng(1)
    assert all(sample_absorption_step(pt, rng) == 2 for _ in range(50))


def test_sampler_geometric_mean():
    rng = np.random.default_rng(2)
    pt = _classical_pt(4)
    samples = [sample_absorption_step(pt, rng) for _ in range(100_000)]
    assert np.mean(samples) == pytest.approx(4.0, rel=0.03)


def test_sampler_survival_matches_discrete_survival():
    ex = gen_tstage(2)
    pt = PhaseType.discrete(ex.default_alpha, decompose(ex.chain), 5)
    rng = np.random.default_rng(3)
    n = 40_000
    samples = np.array([sample_absorption_step(pt, rng) for _ in range(n)])
    for q in range(1, 10):
        k = int(np.quantile(samples, q / 10))
        emp = float(np.mean(samples > k))
        ref = discrete_survival(pt, k)
        stderr = math.sqrt(max(ref * (1 - ref), 1e-12) / n)
        assert abs(emp - ref) <= 3 * stderr + 1e-9


def test_sampler_on_rate_matrix_matches_discrete_survival():
    # No transition matrix behind Q: rates above 1 and an explicit exit
    # vector, so the jump chain divides by -Q_ii != 1 and exits are drawn
    # from Q0 alone.
    Q = np.array([[-3.0, 1.0, 0.5], [0.0, -2.5, 2.0], [0.5, 0.0, -1.5]])
    sub = sub_generator(Q, Q0=[1.5, 0.5, 1.0])
    pt = PhaseType.discrete(InitialDistribution(alpha=np.array([0.5, 0.3, 0.2])), sub, 4)
    rng = np.random.default_rng(5)
    n = 40_000
    samples = np.array([sample_absorption_step(pt, rng) for _ in range(n)])
    for q in range(1, 10):
        k = int(np.quantile(samples, q / 10))
        emp = float(np.mean(samples > k))
        ref = discrete_survival(pt, k)
        stderr = math.sqrt(max(ref * (1 - ref), 1e-12) / n)
        assert abs(emp - ref) <= 3 * stderr + 1e-9


def test_jump_chain_rows_match_a_per_state_loop():
    # The vectorized jump chain against the per-state loop it replaced:
    # each row lists Q's off-diagonal entries in stored order, then the
    # exit in column n, every value divided by -Q_ii; the table holds the
    # row's columns and running sums, equal bit for bit.
    unsorted = sp.csr_array(
        (np.array([0.5, -2.0, -1.0, 0.5]), np.array([1, 0, 1, 0]), np.array([0, 2, 4])),
        shape=(2, 2),
    )
    subs = [decompose(gen_fig3a(4, 2).chain), decompose(gen_fig3b(3).chain),
            sub_generator(unsorted)]
    for sub in subs:
        n = sub.n_transient
        table = sub._jump_chain
        Q, d = sub.Q, -sub.Q.diagonal()
        for i in range(n):
            entries = [(int(Q.indices[k]), Q.data[k] / d[i])
                       for k in range(Q.indptr[i], Q.indptr[i + 1]) if Q.indices[k] != i]
            entries.append((n, sub.Q0[i] / d[i]))
            cols, cum, first, last = table._flat
            at = slice(first[i], last[i] + 1)
            assert cols[at].tolist() == [c for c, _ in entries]
            assert cum[at].tolist() == np.cumsum([v for _, v in entries]).tolist()


def test_sampler_mass_at_zero():
    ex = gen_tstage(1)
    alpha = InitialDistribution(alpha=np.array([0.0]), mass0=1.0)
    pt = PhaseType.discrete(alpha, decompose(ex.chain), 3)
    rng = np.random.default_rng(4)
    assert sample_absorption_step(pt, rng) == 0


def test_discrete_converges_to_continuous():
    ex = gen_tstage(2)
    sub = decompose(ex.chain)
    t_grid = [0.5, 1.0, 2.0, 4.0]
    errors = []
    for N in (10, 100, 1000):
        disc = PhaseType.discrete(ex.default_alpha, sub, N)
        err = max(
            abs(
                discrete_survival(disc, int(math.floor(t * N)))
                - transient_survival(ex.default_alpha, sub, t)
            )
            for t in t_grid
        )
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5e-3


def test_threshold_crossing_jump_inequality_small_cases():
    # x_N <= N (t_N + mean jumps): spot checks ahead of the acceptance sweep.
    for ex in (gen_tstage(1), gen_tstage(3), gen_fig3b(2), gen_fig3a(10, 2)):
        sub = decompose(ex.chain)
        mj = mean_jump_count(sub, ex.default_alpha)
        for N in (10, 100):
            t_n = crossing_time(ex.default_alpha, sub, 1.0 / N).time
            x_n = x_threshold(PhaseType.discrete(ex.default_alpha, sub, N))
            assert x_n <= N * (t_n + mj)


def test_tail_band_sanity():
    # survival * e^{nu t} / t^k stays inside fixed positive bounds over the
    # window where survival runs from 1e-3 down to 1e-10.
    for ex in (gen_tstage(1), gen_tstage(3), gen_fig3b(2)):
        sub = decompose(ex.chain)
        sp = spectral_params(sub)
        t_a = crossing_time(ex.default_alpha, sub, 1e-3).time
        t_b = crossing_time(ex.default_alpha, sub, 1e-10).time
        ratios = []
        for t in np.linspace(t_a, t_b, 12):
            s = transient_survival(ex.default_alpha, sub, t)
            ratios.append(s * math.exp(sp.nu * t) / t**sp.k)
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 50.0

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from fluidhit import (
    InitialDistribution,
    NamedExample,
    decompose,
    dominant_eigen,
    expected_hitting_times,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    load_chain_spec,
    mean_jump_count,
    assemble_report,
    chain_spec,
    validate_chain,
)
from fluidhit.chain_model import ResolventQuantities, SubGenerator, _Destinations
from fluidhit import numerics
from fluidhit.numerics import DENSE_CAP, _triangular_solver
from fluidhit.errors import (
    DimensionTooLarge,
    NotAbsorbing,
    NotStochastic,
    NotTransient,
    SingularSystem,
)
from fluidhit.simulator import OccupancyState, _Poissonized

from oracles import brute_jump_counts, random_chain, sub_generator


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("shape", ["lower", "upper", "ring"])
def test_hitting_times_of_sparse_chains_past_the_dense_cap(shape, monkeypatch):
    # Triangular -Q is solved by substitution, the ring by LU; either way Q
    # is factored once for all three solves.
    builds = _count_calls(monkeypatch, numerics, "_triangular_solver")
    lus = _count_calls(monkeypatch, numerics, "splu")
    n = DENSE_CAP + 100
    rng = np.random.default_rng(23)
    exits = rng.uniform(0.5, 2.0, n)
    moves = rng.uniform(0.0, 0.4, n)
    idx = np.arange(n)
    nxt = {"lower": idx - 1, "upper": idx + 1, "ring": (idx + 1) % n}[shape]
    keep = (nxt >= 0) & (nxt < n)
    Q = sp.csr_array(
        sp.coo_array(
            (np.concatenate([-exits, moves[keep]]), (np.concatenate([idx, idx[keep]]),
                                                     np.concatenate([idx, nxt[keep]]))),
            shape=(n, n),
        )
    )
    sub = sub_generator(Q)
    alpha = InitialDistribution(alpha=rng.dirichlet(np.ones(n)))
    neg_q = sp.csc_array(-Q)
    want = spsolve(neg_q, np.ones(n))
    assert expected_hitting_times(sub) == pytest.approx(want, rel=1e-12, abs=0)
    jumps = alpha.alpha @ spsolve(neg_q, exits)
    assert mean_jump_count(sub, alpha) == pytest.approx(jumps, rel=1e-12, abs=0)
    assert expected_hitting_times(sub) == pytest.approx(want, rel=1e-12, abs=0)
    assert (len(builds), len(lus)) == (1, shape == "ring")


def test_one_factorization_serves_every_solve_and_report(monkeypatch):
    # fig3a(60, 2) has 3,601 transient states, past the dense cap, and a
    # bidiagonal Q. Untied from its population, one chain serves reports at
    # two N, and the band is built once for all of them.
    ex = gen_fig3a(60, 2)
    untied = NamedExample("fig3a-untied", ex.chain, ex.default_alpha)
    sub = decompose(ex.chain)
    assert sub.n_transient > DENSE_CAP
    builds = _count_calls(monkeypatch, numerics, "_triangular_solver")
    W = expected_hitting_times(sub)
    jumps = mean_jump_count(sub, ex.default_alpha)
    assert np.array_equal(expected_hitting_times(sub), W)
    reports = [assemble_report(untied, N) for N in (10, 60)]
    assert len(builds) == 1
    assert [r.w_max for r in reports] == [float(np.max(W))] * 2
    assert [r.mean_jumps for r in reports] == [jumps] * 2


@pytest.mark.parametrize("shape", ["triangular", "ring"])
def test_cached_factorization_returns_fresh_arrays(shape):
    # Mutating a returned W, or the rhs handed in, leaves later solves alone.
    ex = gen_fig3a(60, 2)
    P = ex.chain.P
    if shape == "ring":
        # State 1 also moves up to state 2, so Q is no longer triangular.
        P = sp.lil_array(P)
        P[1, 0] = P[1, 2] = 0.5
        P = sp.csr_array(P)
    sub = decompose(validate_chain(P))
    first = expected_hitting_times(sub)
    want = first.copy()
    first[:] = -1.0
    assert np.array_equal(expected_hitting_times(sub), want)
    rates = sub.exit_rates.copy()
    mean_jump_count(sub, ex.default_alpha)
    assert np.array_equal(sub.exit_rates, rates)
    with pytest.raises(ValueError):
        sub.exit_rates[0] = 0.0


def test_cached_band_solve_is_bitwise_a_fresh_one():
    sub = decompose(gen_fig3a(100, 2).chain)
    fresh = _triangular_solver(sub.Q)(-np.ones(sub.n_transient))
    assert np.array_equal(expected_hitting_times(sub), fresh)
    assert np.array_equal(expected_hitting_times(sub), fresh)


def _near_singular_countdown(n_transient, triangular):
    """Countdown n -> n-1 -> ... -> 0 whose top state stays with 1 - 1e-15.

    Unless triangular, state 1 moves up to state 2 with probability 1/2.
    """
    n = n_transient
    rows = [0, *range(1, n), n, n]
    cols = [0, *range(n - 1), n - 1, n]
    vals = [1.0] * n + [1e-15, 1.0 - 1e-15]
    if not triangular:
        rows, cols, vals = rows + [1], cols + [2], vals + [0.5]
        vals[1] = 0.5
    return validate_chain(sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n + 1, n + 1))))


@pytest.mark.parametrize("triangular", [True, False])
@pytest.mark.parametrize("n_transient", [DENSE_CAP, DENSE_CAP + 1])
def test_one_pivot_floor_on_either_side_of_the_dense_cap(n_transient, triangular):
    # The top state's pivot, about 1e-15, lies below 1e-14 ||Q||_inf =
    # 2e-14: the dense LU, the banded substitution and SuperLU all refuse
    # the system.
    sub = decompose(_near_singular_countdown(n_transient, triangular))
    with pytest.raises(SingularSystem, match="below"):
        expected_hitting_times(sub)


def test_validate_classical_collector():
    chain = validate_chain([[1, 0], [1, 0]])
    assert chain.size == 2


def test_validate_disconnected_pair_not_transient():
    with pytest.raises(NotTransient) as exc:
        validate_chain([[1, 0], [0, 1]])
    assert exc.value.state == 1


def test_validate_bad_row_sum():
    with pytest.raises(NotStochastic) as exc:
        validate_chain([[1, 0], [0.5, 0.6]])
    assert exc.value.row == 1


def test_validate_not_absorbing():
    with pytest.raises(NotAbsorbing):
        validate_chain([[0.5, 0.5], [1, 0]])


def test_validate_entry_out_of_range():
    with pytest.raises(NotStochastic):
        validate_chain([[1, 0], [1.5, -0.5]])


def test_validate_clamps_rounding_within_tolerance():
    eps = 1e-13
    chain = validate_chain([[1 + eps, 0], [1, -eps]])
    dense = chain.P.toarray()
    assert dense[0, 0] == 1.0
    assert dense[1, 1] == 0.0


def test_validate_sparse_input():
    P = sp.csr_array(np.array([[1.0, 0.0], [1.0, 0.0]]))
    chain = validate_chain(P)
    assert np.array_equal(chain.P.toarray(), P.toarray())


def test_decompose_classical():
    sub = decompose(validate_chain([[1, 0], [1, 0]]))
    assert sub.Q.todense() == pytest.approx(np.array([[-1.0]]))
    assert sub.Q0 == pytest.approx([1.0])


def test_decompose_is_built_once_per_chain():
    # The bounds, the fluid curve and the sampler share one SubGenerator.
    chain = gen_fig3b(3).chain
    sub = decompose(chain)
    assert decompose(chain) is sub
    assert decompose(gen_fig3b(3).chain) is not sub
    sampler = _Poissonized(chain, OccupancyState.all_in(1, 5), max_steps=100)
    assert sampler._table is sub._jump_chain


def test_decompose_tstage3_structure():
    sub = decompose(gen_tstage(3).chain)
    Q = sub.Q.todense()
    assert np.allclose(np.diag(Q), -1.0)
    assert np.allclose(np.diag(Q, -1), 1.0)
    assert np.count_nonzero(Q) == 5


def test_decompose_fig3b():
    T = 4
    sub = decompose(gen_fig3b(T).chain)
    assert sub.Q.todense() == pytest.approx(np.array([[-1.0 / T]]))



def test_validate_stored_zero_is_not_an_edge():
    # Row 2 keeps an explicit 0 at column 0, so states 2 and 3 only reach
    # each other, in either storage form.
    P = sp.csr_array(
        (
            np.array([1.0, 1.0, 0.0, 1.0, 1.0]),
            np.array([0, 0, 0, 3, 2]),
            np.array([0, 1, 2, 4, 5]),
        ),
        shape=(4, 4),
    )
    assert P.nnz == 5
    for form in (P, P.toarray()):
        with pytest.raises(NotTransient) as exc:
            validate_chain(form)
        assert exc.value.state == 2


def test_hitting_times_tstage3():
    W = expected_hitting_times(decompose(gen_tstage(3).chain))
    assert W == pytest.approx([1.0, 2.0, 3.0])


def test_hitting_times_fig3b():
    T = 6
    W = expected_hitting_times(decompose(gen_fig3b(T).chain))
    assert W == pytest.approx([float(T)])


def test_hitting_times_fig3a_first_step_analysis():
    N, T = 3, 2
    ex = gen_fig3a(N, T)
    W = expected_hitting_times(decompose(ex.chain))
    D = N * N * (T - 1)
    assert W[:D] == pytest.approx(np.arange(1, D + 1))
    assert W[-1] == pytest.approx(T)


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: gen_fig3a(100, 2), np.append(np.arange(1.0, 10**4 + 1.0), 2.0)),
        (lambda: gen_tstage(5000), np.arange(1.0, 5001.0)),
    ],
    ids=["fig3a:100,2", "tstage:5000"],
)
def test_countdown_hitting_times_equal_their_closed_forms(monkeypatch, build, want):
    # -Q is lower bidiagonal with a unit diagonal: one banded solve, and
    # every step of the substitution, W_j = 1 + W_{j-1} on the countdown and
    # 1 + 10^-4 * 10^4 at fig3a's start, is exact.
    def refuse(*args, **kwargs):
        raise AssertionError("bidiagonal -Q solved by spsolve_triangular")

    monkeypatch.setattr(numerics, "spsolve_triangular", refuse)
    W = expected_hitting_times(decompose(build().chain))
    assert W.tolist() == want.tolist()


def test_hitting_times_at_least_one():
    rng = np.random.default_rng(3)
    for _ in range(15):
        chain = random_chain(rng, int(rng.integers(1, 8)))
        W = expected_hitting_times(decompose(chain))
        assert np.all(W >= 1.0 - 1e-12)


def test_fundamental_matrix_nonnegative():
    rng = np.random.default_rng(19)
    for _ in range(15):
        chain = random_chain(rng, int(rng.integers(1, 8)))
        Q = decompose(chain).Q.toarray()
        inv = np.linalg.inv(-Q)
        assert np.min(inv) >= -1e-12


def test_resolvent_classical():
    sub = decompose(validate_chain([[1, 0], [1, 0]]))
    assert ResolventQuantities(sub).max_neg_qinv == pytest.approx(1.0)
    assert mean_jump_count(sub, InitialDistribution.point(1, 1)) == pytest.approx(1.0)


def test_resolvent_tstage3():
    sub = decompose(gen_tstage(3).chain)
    assert ResolventQuantities(sub).max_neg_qinv == pytest.approx(1.0)
    assert mean_jump_count(sub, InitialDistribution.point(3, 3)) == pytest.approx(3.0)


def test_resolvent_fig3b():
    T = 3
    sub = decompose(gen_fig3b(T).chain)
    assert ResolventQuantities(sub).max_neg_qinv == pytest.approx(float(T))
    assert mean_jump_count(sub, InitialDistribution.point(1, 1)) == pytest.approx(1.0)


def test_mean_jumps_matches_brute_force_on_acyclic_chains():
    # Acyclic chains of up to 4 transient states: moves to lower states
    # only, with self-loops on every other chain. A self-loop is no jump,
    # so the oracle walks R_ij = P_ij / (1 - P_ii) built from P itself, and
    # with P_ii > 0 the count differs from the hitting time alpha W.
    rng = np.random.default_rng(23)
    for trial in range(20):
        S = int(rng.integers(1, 5))
        P = np.zeros((S + 1, S + 1))
        P[0, 0] = 1.0
        for i in range(1, S + 1):
            w = rng.exponential(size=i + 1)  # moves to states 0..i-1, stay at i
            if trial % 2 == 0:
                w[i] = 0.0
            P[i, : i + 1] = w / w.sum()
        stay = np.diag(P)[1:]
        R = P[1:, 1:] / (1.0 - stay)[:, None]
        np.fill_diagonal(R, 0.0)
        expected = brute_jump_counts(R)
        sub = decompose(validate_chain(P))
        W = expected_hitting_times(sub)
        for start in range(1, S + 1):
            alpha = InitialDistribution.point(start, S)
            assert mean_jump_count(sub, alpha) == pytest.approx(expected[start - 1])
            if stay[start - 1] > 0.0:
                assert mean_jump_count(sub, alpha) < W[start - 1] * (1 - 1e-9)


def test_mean_jumps_invariant_under_rate_scaling():
    # The jump chain depends only on the ratios -Q_ij/Q_ii, so scaling row i
    # of Q and Q0 by c_i leaves the jump count alone while W changes.
    rng = np.random.default_rng(11)
    for _ in range(10):
        chain = random_chain(rng, 4)
        sub = decompose(chain)
        scales = rng.uniform(0.5, 5.0, size=4)
        scaled = sub_generator(
            np.diag(scales) @ sub.Q.toarray(), Q0=scales * sub.Q0
        )
        alpha = InitialDistribution(alpha=rng.dirichlet(np.ones(4)))
        assert mean_jump_count(scaled, alpha) == pytest.approx(
            mean_jump_count(sub, alpha), rel=1e-12
        )
        assert alpha.alpha @ expected_hitting_times(scaled) != pytest.approx(
            alpha.alpha @ expected_hitting_times(sub)
        )


def test_max_fundamental_entry_sits_on_diagonal():
    rng = np.random.default_rng(31)
    for _ in range(10):
        chain = random_chain(rng, 6)
        sub = decompose(chain)
        inv = np.linalg.inv(-sub.Q.toarray())
        assert np.max(inv) == pytest.approx(np.max(np.diag(inv)))


def test_resolvent_maximum_over_two_state_cycles():
    # 2,000 two-state cycles on shuffled states: state a stays with
    # probability x_a and moves to its partner with y_a, so a cycle's block
    # of (-Q)^-1 has diagonal (1 - x_b, 1 - x_a) / det.
    rng = np.random.default_rng(71)
    m = 2000
    x = rng.uniform(0.0, 0.45, size=(m, 2))
    y = rng.uniform(0.0, 0.45, size=(m, 2))
    states = rng.permutation(2 * m).reshape(m, 2) + 1
    partner = states[:, ::-1]
    rows = np.concatenate([[0], states.ravel(), states.ravel(), states.ravel()])
    cols = np.concatenate([[0], states.ravel(), partner.ravel(), np.zeros(2 * m, int)])
    vals = np.concatenate([[1.0], x.ravel(), y.ravel(), 1.0 - x.ravel() - y.ravel()])
    P = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(2 * m + 1, 2 * m + 1)))
    sub = decompose(validate_chain(P))
    det = (1.0 - x[:, 0]) * (1.0 - x[:, 1]) - y[:, 0] * y[:, 1]
    expected = np.max(np.maximum(1.0 - x[:, 0], 1.0 - x[:, 1]) / det)
    assert ResolventQuantities(sub).max_neg_qinv == pytest.approx(expected, rel=1e-12)


def test_resolvent_maximum_of_a_ring_past_the_dense_cap():
    # One strongly connected ring of 2,100 states, each moving on with
    # probability 1 - p: a component past the dense cap has no resolvent
    # maximum, and the report says so. nu = p exactly, as Q = -I + (1 - p) S
    # for a cyclic shift S.
    n, p = 2100, 1e-3
    ring = np.arange(1, n + 1)
    rows = np.concatenate([[0], ring, ring])
    cols = np.concatenate([[0], np.roll(ring, -1), np.zeros(n, int)])
    vals = np.concatenate([[1.0], np.full(n, 1.0 - p), np.full(n, p)])
    chain = validate_chain(sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n + 1, n + 1))))
    with pytest.raises(DimensionTooLarge, match="2100"):
        ResolventQuantities(decompose(chain)).max_neg_qinv
    report = assemble_report(NamedExample("ring", chain, InitialDistribution.point(1, n)), 10)
    assert report.nu == pytest.approx(p, rel=1e-9)
    assert report.max_neg_qinv is None
    assert "2100-state" in report.notes["max_neg_qinv"]
    assert "max_neg_qinv" not in report.to_json_dict()


def test_stored_zeros_join_no_classes():
    # Two rings of 1,100 states: each state leaves at rate 1, moving on with
    # 0.9 and exiting with 0.1. Q also stores zeros from one ring to the
    # other and back; were they edges, the 2,200 states would form one
    # class, past the dense cap. Per ring the return probability is 0.9^1100,
    # so max (-Q)^-1 = 1 / (1 - 0.9^1100), and nu = 0.1.
    m = 1100
    i = np.arange(2 * m)
    rows = np.concatenate([i, i, [0, m]])
    cols = np.concatenate([i, i // m * m + (i + 1) % m, [m, 0]])
    vals = np.concatenate([np.full(2 * m, -1.0), np.full(2 * m, 0.9), [0.0, 0.0]])
    Q = sp.csr_array((vals, (rows, cols)), shape=(2 * m, 2 * m))
    assert Q.nnz == 4 * m + 2
    clean = Q.copy()
    clean.eliminate_zeros()
    stored, plain = (SubGenerator(Q=A, Q0=np.full(2 * m, 0.1)) for A in (Q, clean))
    value = ResolventQuantities(stored).max_neg_qinv
    assert value == ResolventQuantities(plain).max_neg_qinv
    assert value == pytest.approx(1.0 / (1.0 - 0.9**m), rel=1e-12)
    nu = -dominant_eigen(Q)
    assert nu == -dominant_eigen(clean)
    assert nu == pytest.approx(0.1, rel=1e-12)
    assert Q.nnz == 4 * m + 2


def test_resolvent_maximum_past_the_old_sweep_cap():
    # fig3a(400, 2) has 160,001 transient states, all strongly connected
    # components singletons with -Q_kk = 1.
    ex = gen_fig3a(400, 2)
    sub = decompose(ex.chain)
    assert sub.n_transient == 160_001
    assert ResolventQuantities(sub).max_neg_qinv == 1.0


def test_validate_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(NotStochastic) as exc:
            validate_chain([[1, 0], [bad, bad]])
        assert exc.value.row == 1
    P = sp.csr_array(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, np.nan]]))
    with pytest.raises(NotStochastic) as exc:
        validate_chain(P)
    assert exc.value.row == 2


def test_initial_distribution_validation():
    with pytest.raises(ValueError):
        InitialDistribution(alpha=np.array([0.5, 0.2]))  # sums to 0.7
    d = InitialDistribution(alpha=np.array([0.25, 0.25]), mass0=0.5)
    assert d.transient_mass == pytest.approx(0.5)


@pytest.mark.parametrize(
    "alpha, mass0, field",
    [
        ([math.nan], 0.0, "alpha"),
        ([math.nan, 1.0], 0.0, "alpha"),
        ([math.inf, 1.0], 0.0, "alpha"),
        ([1.5], -0.5, "mass0"),
        ([1.0], math.nan, "mass0"),
        ([0.0], math.inf, "mass0"),
    ],
    ids=["nan", "nan-entry", "inf-entry", "negative-mass0", "nan-mass0", "inf-mass0"],
)
def test_initial_distribution_refuses_non_finite_or_negative_mass(alpha, mass0, field):
    # Each passed the sum check before: nan compares false, and 1.5 - 0.5 = 1.
    with pytest.raises(ValueError, match=field):
        InitialDistribution(alpha=np.array(alpha), mass0=mass0)


def test_load_chain_spec_dense(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(
        '{"states": 2, "P": [[1, 0], [1, 0]], "alpha": [1.0]}', encoding="utf-8"
    )
    chain, alpha = load_chain_spec(str(path))
    assert chain.size == 2
    assert alpha.alpha == pytest.approx([1.0])


def test_load_chain_spec_sparse_rows():
    spec = {
        "states": 3,
        "P_sparse": [
            {"row": 0, "cols": [0], "probs": [1.0]},
            {"row": 1, "cols": [0], "probs": [1.0]},
            {"row": 2, "cols": [1], "probs": [1.0]},
        ],
    }
    chain, alpha = load_chain_spec(spec)
    assert chain.size == 3
    # Default alpha is uniform over transient states.
    assert alpha.alpha == pytest.approx([0.5, 0.5])


def test_load_chain_spec_refuses_fractional_sparse_indices():
    # int() used to truncate them: row 1.9, column 0.7 loaded as P[1][0].
    spec = {
        "states": 3,
        "P_sparse": [
            {"row": 0, "cols": [0], "probs": [1.0]},
            {"row": 1.9, "cols": [0.7], "probs": [1.0]},
            {"row": 2, "cols": [1], "probs": [1.0]},
        ],
    }
    with pytest.raises(ValueError, match=r'"P_sparse" row 1\.9: .*got 1\.9'):
        load_chain_spec(spec)
    spec["P_sparse"][1]["row"] = 1
    with pytest.raises(ValueError, match=r'"P_sparse" row 1: .*got 0\.7'):
        load_chain_spec(spec)


def test_load_chain_spec_mass_at_zero():
    spec = {"states": 2, "P": [[1, 0], [1, 0]], "alpha": [0.4], "alpha0": 0.6}
    _, alpha = load_chain_spec(spec)
    assert alpha.mass0 == pytest.approx(0.6)


def test_chain_spec_reads_back_as_written():
    spec = {"states": 3, "P": [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
            "alpha": [0.25, 0.5], "alpha0": 0.25}
    assert chain_spec(*load_chain_spec(spec)) == spec


def test_load_chain_spec_errors():
    with pytest.raises(ValueError):
        load_chain_spec({"states": 2})
    with pytest.raises(ValueError):
        load_chain_spec({"states": 1, "P": [[1.0]]})


_ROW0 = {"row": 0, "cols": [0], "probs": [1]}


@pytest.mark.parametrize("spec, message", [
    ({"states": 2, "P": [[1, 0], [None, 1]]}, '"P" must hold numbers, got null'),
    ({"states": 2, "P": [[1, 0], [1, 0]], "alpha": [None]}, '"alpha" must hold numbers, got null'),
    ({"states": 2, "P_sparse": [_ROW0, {"row": 1, "cols": [0], "probs": [None]}]},
     '"P_sparse" row 1: "probs" must hold numbers, got null'),
    ({"states": 2, "P_sparse": [_ROW0, {"row": 1, "cols": [1, [0]], "probs": [0.5, 0.5]}]},
     '"cols" must be a flat list'),
    ({"states": 2, "P_sparse": [_ROW0, {"row": 1, "cols": [0, 1], "probs": [0.5, [0.5]]}]},
     '"probs" must be a flat list'),
], ids=["null-in-P", "null-in-alpha", "null-in-probs", "ragged-cols", "ragged-probs"])
def test_load_chain_spec_names_nulls_and_ragged_lists(spec, message):
    # A null used to load as NaN and fail later as a non-finite entry; a
    # ragged list failed with numpy's shape message, naming no field.
    with pytest.raises(ValueError) as exc:
        load_chain_spec(spec)
    assert message in str(exc.value)


def test_vectorized_destination_draws_match_draw_bit_for_bit():
    # One table, two readers: draw_many must pick the very column draw picks
    # for every (row, u), including u just below 1 and a row whose running
    # sum rounds below 1 (seven entries of 1/7 add up to 1 - 2^-52), where
    # the rule falls back to the row's last column. Two rows of 600 entries
    # take draw's bisection through ten halvings.
    sevenths = sp.csr_array(np.array([[1.0 / 7.0] * 7, [0.5, 0.5, 0, 0, 0, 0, 0]]))
    wide = sp.csr_array(np.random.default_rng(34).dirichlet(np.ones(600), size=2))
    below = np.cumsum(sevenths.data[:7])[-1]
    assert below < np.nextafter(1.0, 0.0)
    tables = [
        decompose(random_chain(np.random.default_rng(31), 12, density=0.6))._jump_chain,
        decompose(gen_fig3a(4, 2).chain)._jump_chain,
        _Destinations(random_chain(np.random.default_rng(32), 9).P),
        _Destinations(wide),
        _Destinations(sevenths),
    ]
    rng = np.random.default_rng(33)
    for table in tables:
        rows = rng.integers(0, table._flat[2].size, 10**4)
        u = rng.random(10**4)
        u[:50] = np.nextafter(1.0, 0.0)
        u[50:100] = below
        u[100:150] = 0.0
        got = table.draw_many(rows, u)
        assert got.tolist() == [table.draw(int(i), w) for i, w in zip(rows, u)]
    last = tables[-1].draw_many(np.array([0]), np.array([np.nextafter(1.0, 0.0)]))
    assert last.tolist() == [6]

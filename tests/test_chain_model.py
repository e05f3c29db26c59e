import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from fluidhit import (
    InitialDistribution,
    SubGenerator,
    decompose,
    expected_hitting_times,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    load_chain_spec,
    mean_jump_count,
    assemble_report,
    random_chain,
    validate_chain,
)
from fluidhit.chain_model import ResolventQuantities, _Destinations
from fluidhit.numerics import DENSE_CAP
from fluidhit.errors import DimensionTooLarge, NotAbsorbing, NotStochastic, NotTransient

from oracles import brute_jump_counts


@pytest.mark.parametrize("shape", ["lower", "upper", "ring"])
def test_hitting_times_of_sparse_chains_past_the_dense_cap(shape):
    # Triangular -Q is solved by substitution, the ring by LU.
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
    sub = SubGenerator.from_matrix(Q)
    alpha = InitialDistribution(alpha=rng.dirichlet(np.ones(n)))
    neg_q = sp.csc_array(-Q)
    want = spsolve(neg_q, np.ones(n))
    assert expected_hitting_times(sub) == pytest.approx(want, rel=1e-12, abs=0)
    jumps = alpha.alpha @ spsolve(neg_q, exits)
    assert mean_jump_count(sub, alpha) == pytest.approx(jumps, rel=1e-12, abs=0)


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
    dense = chain.dense()
    assert dense[0, 0] == 1.0
    assert dense[1, 1] == 0.0


def test_validate_sparse_input():
    P = sp.csr_array(np.array([[1.0, 0.0], [1.0, 0.0]]))
    chain = validate_chain(P)
    assert np.array_equal(chain.dense(), P.toarray())


def test_decompose_classical():
    sub = decompose(validate_chain([[1, 0], [1, 0]]))
    assert sub.Q.todense() == pytest.approx(np.array([[-1.0]]))
    assert sub.Q0 == pytest.approx([1.0])


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



def test_from_matrix_explicit_exit_vector():
    sub = SubGenerator.from_matrix(
        [[-2.0, 1.0], [1.0, -3.0]], Q0=np.array([1.0, 2.0])
    )
    assert sub.Q0 == pytest.approx([1.0, 2.0])
    with pytest.raises(ValueError):
        SubGenerator.from_matrix([[-2.0, 1.0], [1.0, -3.0]], Q0=np.array([0.5, 2.0]))


def test_from_matrix_requires_exit_path():
    # Conservative rows (zero exit) with no route to an exiting state.
    with pytest.raises(NotTransient):
        SubGenerator.from_matrix([[-1.0, 1.0], [1.0, -1.0]])
    # A stored zero is not a rate: row 1 keeps an explicit 0 at column 0,
    # so states 2 and 3 only reach each other, in either storage form.
    Q = sp.csr_array(
        (
            np.array([-1.0, 0.0, -1.0, 1.0, 1.0, -1.0]),
            np.array([0, 0, 1, 2, 1, 2]),
            np.array([0, 1, 4, 6]),
        ),
        shape=(3, 3),
    )
    assert Q.nnz == 6
    for form in (Q, Q.toarray()):
        with pytest.raises(NotTransient) as exc:
            SubGenerator.from_matrix(form)
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
        scaled = SubGenerator.from_matrix(
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
    report = assemble_report(chain, InitialDistribution.point(1, n), 10)
    assert report.nu == pytest.approx(p, rel=1e-9)
    assert report.max_neg_qinv is None
    assert "2100-state" in report.notes["max_neg_qinv"]
    assert "max_neg_qinv" not in report.to_json_dict()


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


def test_load_chain_spec_mass_at_zero():
    spec = {"states": 2, "P": [[1, 0], [1, 0]], "alpha": [0.4], "alpha0": 0.6}
    _, alpha = load_chain_spec(spec)
    assert alpha.mass0 == pytest.approx(0.6)


def test_load_chain_spec_errors():
    with pytest.raises(ValueError):
        load_chain_spec({"states": 2})
    with pytest.raises(ValueError):
        load_chain_spec({"states": 1, "P": [[1.0]]})


def test_vectorized_destination_draws_match_draw_bit_for_bit():
    # One table, two readers: draw_many must pick the very column draw picks
    # for every (row, u), including u just below 1 and a row whose running
    # sum rounds below 1 (seven entries of 1/7 add up to 1 - 2^-52), where
    # the rule falls back to the row's last column.
    sevenths = sp.csr_array(np.array([[1.0 / 7.0] * 7, [0.5, 0.5, 0, 0, 0, 0, 0]]))
    below = np.cumsum(sevenths.data[:7])[-1]
    assert below < np.nextafter(1.0, 0.0)
    tables = [
        decompose(random_chain(np.random.default_rng(31), 12, density=0.6))._jump_chain,
        decompose(gen_fig3a(4, 2).chain)._jump_chain,
        _Destinations(random_chain(np.random.default_rng(32), 9).P),
        _Destinations(sevenths),
    ]
    rng = np.random.default_rng(33)
    for table in tables:
        rows = rng.integers(0, table._matrix.shape[0], 10**4)
        u = rng.random(10**4)
        u[:50] = np.nextafter(1.0, 0.0)
        u[50:100] = below
        u[100:150] = 0.0
        got = table.draw_many(rows, u)
        assert got.tolist() == [table.draw(int(i), w) for i, w in zip(rows, u)]
    last = tables[-1].draw_many(np.array([0]), np.array([np.nextafter(1.0, 0.0)]))
    assert last.tolist() == [6]

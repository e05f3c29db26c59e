import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import expm_multiply

from fluidhit import (
    decompose,
    dominant_eigen,
    eigen_spectrum,
    expm_action,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    solve_linear,
    spectral_params,
    validate_chain,
)
from fluidhit import numerics
from fluidhit.chain_model import ResolventQuantities
from fluidhit.errors import DimensionTooLarge, NonConvergent, SingularMatrix, SlowConvergence

from oracles import constant_exit_matrix, count_strong_blocks, random_chain, sub_generator


def test_solve_identity():
    b = np.array([3.0, -1.0, 0.25])
    assert solve_linear(np.eye(3), b) == pytest.approx(b)


def test_solve_tstage3_hitting_system():
    Q = decompose(gen_tstage(3).chain).Q.toarray()
    x = solve_linear(-Q, np.ones(3))
    assert x == pytest.approx([1.0, 2.0, 3.0])


def test_solve_singular_zero_pivot():
    with pytest.raises(SingularMatrix):
        solve_linear(np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))


def test_solve_residual_contract():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_linear(A, b)
        assert np.max(np.abs(A @ x - b)) <= 1e-10 * (1 + np.max(np.abs(b)))
        # No refinement pass is needed here: the result is LAPACK's, bit for bit.
        assert np.array_equal(x, numerics.lu_solve(numerics.lu_factor(A), b))


def test_solve_refines_twice_on_a_slow_chain(monkeypatch):
    # Every row exits with probability 1e-6, so W = (-Q)^-1 1 is 1e6 in
    # every state. The LU solution misses the residual bound, and both
    # refinement passes run; they are not promised to reach the bound.
    S = 50
    sub = decompose(validate_chain(constant_exit_matrix(np.random.default_rng(0), S, 1e-6)))
    calls = []

    def counted(*args):
        calls.append(args)
        return lu_solve(*args)

    lu_solve = numerics.lu_solve
    monkeypatch.setattr(numerics, "lu_solve", counted)
    W = solve_linear(sub.Q, -np.ones(S))
    assert np.max(np.abs(W - 1e6)) <= 1e-9 * 1e6
    assert len(calls) == 3


def _sparse_triangular(rng, n, lower):
    """A random sparse triangular matrix, diagonally dominant so well conditioned."""
    A = sp.random(n, n, density=0.05, random_state=rng, data_rvs=rng.standard_normal)
    A = sp.tril(A, k=-1) if lower else sp.triu(A, k=1)
    dominance = np.asarray(abs(A).sum(axis=1)).ravel() + rng.uniform(0.5, 2.0, n)
    return sp.csr_array(A + sp.diags(rng.choice([-1.0, 1.0], n) * dominance))


@pytest.mark.parametrize("lower", [True, False])
def test_solve_sparse_triangular_by_substitution(monkeypatch, lower):
    def refuse(*args, **kwargs):
        raise AssertionError("dense LU on a triangular matrix")

    monkeypatch.setattr(numerics, "lu_factor", refuse)
    rng = np.random.default_rng(7 if lower else 8)
    for n in (300, 600):  # past the size where a dense LU pays (_dense_pays)
        A = _sparse_triangular(rng, n, lower)
        b = rng.normal(size=n)
        want = np.linalg.solve(A.toarray(), b)
        assert solve_linear(A, b) == pytest.approx(want, rel=1e-12, abs=1e-14)


def _band_triangular(rng, n, k, lower):
    """A random triangular matrix with k off-diagonals, diagonally dominant."""
    A = sum(sp.diags(rng.uniform(-1.0, 1.0, n - d), -d if lower else d) for d in range(1, k + 1))
    dominance = np.asarray(abs(A).sum(axis=1)).ravel() + rng.uniform(0.5, 2.0, n)
    return sp.csr_array(A + sp.diags(rng.choice([-1.0, 1.0], n) * dominance))


@pytest.mark.parametrize("k", [1, 2], ids=["bidiagonal", "tridiagonal"])
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_solve_narrow_band_triangle_by_one_banded_solve(monkeypatch, lower, k):
    # Its (k+1) x n band array holds no more numbers than 2 nnz, so
    # neither spsolve_triangular nor a dense LU sees it.
    def refuse(*args, **kwargs):
        raise AssertionError("narrow triangle solved by spsolve_triangular or a dense LU")

    monkeypatch.setattr(numerics, "spsolve_triangular", refuse)
    monkeypatch.setattr(numerics, "lu_factor", refuse)
    rng = np.random.default_rng(60 + 2 * k + lower)
    for n in (300, 1000):  # past the size where a dense LU pays (_dense_pays)
        A = _band_triangular(rng, n, k, lower)
        b = rng.normal(size=n)
        want = np.linalg.solve(A.toarray(), b)
        assert solve_linear(A, b) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_solve_wide_band_triangle_by_spsolve_triangular(monkeypatch):
    # One entry in the corner widens the band to n - 1 off-diagonals: its
    # band array would hold n^2 numbers for 2 nnz of about 4 n.
    calls = []
    spsolve_triangular = numerics.spsolve_triangular

    def counted(*args, **kwargs):
        calls.append(None)
        return spsolve_triangular(*args, **kwargs)

    monkeypatch.setattr(numerics, "spsolve_triangular", counted)
    rng = np.random.default_rng(64)
    n = 300
    A = _band_triangular(rng, n, 1, lower=True).tolil()
    A[n - 1, 0] = 0.5
    A = sp.csr_array(A)
    b = rng.normal(size=n)
    want = np.linalg.solve(A.toarray(), b)
    assert solve_linear(A, b) == pytest.approx(want, rel=1e-13, abs=1e-13)
    assert calls


def test_solve_small_sparse_system_densely(monkeypatch):
    # Small systems follow the stepper's size rule (_dense_pays) to the
    # dense LU: a whole solve of 3 states takes about 110 us there, 95 us
    # by banded substitution and 235 us through spsolve_triangular.
    def refuse(*args, **kwargs):
        raise AssertionError("substitution on a small matrix")

    monkeypatch.setattr(numerics, "spsolve_triangular", refuse)
    monkeypatch.setattr(numerics, "dtbtrs", refuse)
    rng = np.random.default_rng(11)
    for n in (1, 5, 50):
        A = _sparse_triangular(rng, n, lower=True)
        b = rng.normal(size=n)
        want = np.linalg.solve(A.toarray(), b)
        assert solve_linear(A, b) == pytest.approx(want, rel=1e-12, abs=1e-14)
    Q = decompose(gen_tstage(3).chain).Q
    assert solve_linear(-Q, np.ones(3)) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


@pytest.mark.parametrize("pivot", [0.0, 1e-16])
def test_solve_sparse_triangular_small_pivot(pivot):
    # A zero pivot is not stored at all in the sparse matrix. 50 states go
    # to the dense LU, 300 to substitution: by spsolve_triangular for the
    # random triangles, by the banded solve for the bidiagonal one.
    for n in (50, 300):
        A = _sparse_triangular(np.random.default_rng(9), n, lower=True).toarray()
        A[20, 20] = pivot * np.abs(A).sum(axis=1).max()
        with pytest.raises(SingularMatrix):
            solve_linear(sp.csr_array(A), np.ones(n))
    A = _band_triangular(np.random.default_rng(9), 300, 1, lower=True).toarray()
    A[20, 20] = pivot * np.abs(A).sum(axis=1).max()
    with pytest.raises(SingularMatrix):
        solve_linear(sp.csr_array(A), np.ones(300))


def test_solve_sparse_general_matches_dense():
    rng = np.random.default_rng(10)
    n = 200
    upper = sp.triu(sp.random(n, n, density=0.02, random_state=rng), k=1)
    A = sp.csr_array(_sparse_triangular(rng, n, lower=True) + upper)
    b = rng.normal(size=n)
    assert np.array_equal(solve_linear(A, b), solve_linear(A.toarray(), b))


def _cycle(n, weight):
    """The n x n CSR shift S with S[i, (i+1) % n] = weight."""
    return sp.csr_array((np.full(n, weight), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))


def test_solve_refuses_to_densify_a_large_sparse_system(monkeypatch):
    # A 2,001-state cycle is sparse and not triangular: a dense LU of it
    # would grow with the square of the states, so SuperLU solves it.
    def refuse(*args, **kwargs):
        raise AssertionError("dense LU of a sparse system past the dense cap")

    monkeypatch.setattr(numerics, "lu_factor", refuse)
    n = numerics.DENSE_CAP + 1
    # Every row of (I - S/2) x = 1 reads x_i - x_{i+1}/2 = 1: x = 2.
    x = solve_linear(sp.eye(n, format="csr") - _cycle(n, 0.5), np.ones(n))
    assert np.max(np.abs(x - 2.0)) <= 1e-13


def test_solve_exactly_singular_large_sparse_system():
    # I - S has every row summing to zero; SuperLU's own singular error
    # comes out as SingularMatrix.
    n = numerics.DENSE_CAP + 1
    with pytest.raises(SingularMatrix):
        solve_linear(sp.eye(n, format="csr") - _cycle(n, 1.0), np.ones(n))


def test_expm_scalar_half_life():
    out = expm_action(np.array([[-1.0]]), np.array([1.0]), math.log(2.0))
    assert out == pytest.approx([0.5], rel=1e-10)


def test_expm_erlang2_survival():
    # Start in the top stage of a 2-stage countdown: survival e^{-t}(1+t).
    sub = decompose(gen_tstage(2).chain)
    for t in (0.3, 1.0, 4.0, 12.0):
        out = expm_action(sub.Q, np.array([0.0, 1.0]), t)
        assert out.sum() == pytest.approx(math.exp(-t) * (1 + t), rel=1e-10)


def test_expm_t_zero_identity():
    v = np.array([0.25, 0.5, 0.25])
    Q = decompose(gen_tstage(3).chain).Q
    assert expm_action(Q, v, 0.0) == pytest.approx(v)


def test_expm_of_zero_vector_sums_no_series(monkeypatch):
    # 0 exp(Qt) = 0 at once, without a series of about c t zero terms.
    def refuse(*args, **kwargs):
        raise AssertionError("weights built for a zero vector")

    monkeypatch.setattr(numerics, "_weights", refuse)
    Q = decompose(gen_tstage(1).chain).Q
    assert expm_action(Q, np.array([0.0]), 2.5e5).tolist() == [0.0]


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
def test_expm_refuses_non_finite_or_negative_time(t):
    # At inf or nan the certified stop n + 1 > mu never holds.
    with pytest.raises(ValueError):
        expm_action(np.array([[-1.0]]), np.array([1.0]), t)


def test_expm_large_time_log_space_weights():
    # c t = 800: exp(-800) underflows, so the weights must be built relative
    # to the mode and normalized by their sum.
    out = expm_action(np.array([[-1.0]]), np.array([1.0]), 800.0)
    assert out[0] == pytest.approx(math.exp(-800.0), rel=1e-8)


@pytest.mark.parametrize("mu", [32.2, 738.0, 2000.0, 1e4, 1e5])
def test_expm_stops_on_certified_poisson_tail(monkeypatch, mu):
    # At the 1e-15 tolerance the summed weights can round below 1 - 1e-15, so a stop
    # on that sum ran to a cap far past the mean (1,377 terms at mu = 32.2);
    # the certified tail bound stops within a few standard deviations.
    iterates = numerics._row_iterates
    terms = []

    def counting(*args):
        for u in iterates(*args):
            terms.append(None)
            yield u

    monkeypatch.setattr(numerics, "_row_iterates", counting)
    Q = np.array([[-1.0]])
    out = expm_action(Q, np.array([1.0]), mu / -Q[0, 0])  # c = max(-Q_ii)
    assert len(terms) <= mu + 10.0 * math.sqrt(mu) + 30.0
    assert 0.0 <= out[0] <= 1.0


@pytest.mark.parametrize("t", [500.0, 1e4, 9.5e4])
def test_expm_slow_decay_matches_expm_multiply(t):
    # Dominant eigenvalue about -5e-6: at t = 9.5e4 the survival is still
    # 0.62 while c t is 9.5e4, far past the underflow of exp(-c t).
    Q = np.array([[-1.0, 1.0 - 1e-5], [1.0, -1.0]])
    v = np.array([0.3, 0.7])
    got = expm_action(Q, v, t)
    ref = expm_multiply(Q.T * t, v)
    assert got == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_expm_nonnegative_and_mass_decreasing():
    rng = np.random.default_rng(7)
    for _ in range(10):
        S = int(rng.integers(1, 11))
        sub = decompose(random_chain(rng, S))
        v = rng.dirichlet(np.ones(S))
        masses = []
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            out = expm_action(sub.Q, v, t)
            assert np.min(out) >= 0.0
            assert np.max(out) <= 1.0 + 1e-12
            masses.append(out.sum())
        assert np.all(np.diff(masses) <= 1e-12)


def test_expm_semigroup_property():
    rng = np.random.default_rng(13)
    for _ in range(10):
        S = int(rng.integers(1, 11))
        sub = decompose(random_chain(rng, S))
        v = rng.dirichlet(np.ones(S))
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        direct = expm_action(sub.Q, v, t1 + t2)
        composed = expm_action(sub.Q, expm_action(sub.Q, v, t1), t2)
        assert np.max(np.abs(direct - composed)) <= 1e-11


def test_expm_sparse_matches_dense():
    # fig3a(n, 2) has n^2 + 1 transient states and one entry a row, so B
    # stays sparse; expm_multiply is the dense-arithmetic oracle. A spread
    # start on fig3a(40, 2) steps dense vectors through the sparse B, the
    # start state of fig3a(150, 2) one entry at a time.
    rng = np.random.default_rng(19)
    for n, start in ((40, None), (150, -1)):
        sub = decompose(gen_fig3a(n, 2).chain)
        assert sp.issparse(numerics._uniformized(sub.Q, 1.0))
        v = rng.dirichlet(np.ones(sub.n_transient))
        if start is not None:
            v = np.zeros(sub.n_transient)
            v[start] = 1.0
        for t in (2.5, 60.0):
            got = expm_action(sub.Q, v, t)
            ref = expm_multiply(sub.Q.T * t, v)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-15)


def test_uniformized_is_dense_only_for_small_chains():
    rng = np.random.default_rng(23)
    full = np.zeros((61, 61))
    full[0, 0] = 1.0
    full[1:] = rng.dirichlet(np.ones(61), size=60)
    cases = (
        (decompose(gen_tstage(3).chain).Q, True),
        (decompose(validate_chain(full)).Q, True),
        (decompose(gen_fig3a(40, 2).chain).Q, False),
    )
    for Q, dense in cases:
        c = float(np.max(-Q.diagonal()))
        B = numerics._uniformized(Q, c)
        assert isinstance(B, np.ndarray) == dense
        # The two forms hold the same values: q (1/c) off the diagonal,
        # q (1/c) + 1 on it.
        want = Q.toarray() * (1.0 / c) + np.diag(np.ones(Q.shape[0]))
        assert np.array_equal(B if dense else B.toarray(), want)


def test_sparse_row_step_matches_sparse_product():
    rng = np.random.default_rng(17)
    n = 3000
    rows, cols = rng.integers(0, n, 6000), rng.integers(0, n, 6000)
    B = sp.csr_array(sp.coo_array((rng.random(6000), (rows, cols)), shape=(n, n)))
    support = np.sort(rng.choice(n, 40, replace=False))
    vals = rng.random(40)
    want = (sp.csr_array((vals, support, [0, 40]), shape=(1, n)) @ B).toarray().ravel()
    got = numerics._SparseRow(support, vals).step(B)
    assert np.array_equal(got.cols, np.flatnonzero(want))
    assert got.vals == pytest.approx(want[got.cols], rel=1e-15, abs=0)
    empty = numerics._SparseRow(support[:0], vals[:0]).step(B)
    assert empty.cols.size == 0 and empty.sum() == 0.0


def test_one_entry_rows_step_as_scalars(monkeypatch):
    # Every row of fig3a's B = I + Q stores one entry (the start row's and
    # the countdown's diagonals are 0), and fig3a(150, 2)'s B is sparse:
    # its iterate is stepped as an _Entry throughout, with the sums of the
    # _SparseRow steps to the bit.
    sub = decompose(gen_fig3a(150, 2).chain)
    B = numerics._uniformized(sub.Q, 1.0)
    v = np.zeros(sub.n_transient)
    v[-1] = 1.0
    u = numerics._SparseRow(np.array([v.size - 1]), np.array([1.0]))
    want = []
    for _ in range(20_000):
        want.append(float(u.sum()))
        u = u.step(B)

    step = numerics._SparseRow.step

    def checked(row, B):
        counts = B.indptr[row.cols + 1] - B.indptr[row.cols]
        assert not (row.cols.size == 1 and counts[0] == 1), "_SparseRow step on a one-entry row"
        return step(row, B)

    monkeypatch.setattr(numerics._SparseRow, "step", checked)
    got = [float(x.sum()) for x in itertools.islice(numerics._row_iterates(sub.Q, 1.0, v), 20_000)]
    assert got == want
    assert want[1] == 1.0 / 150**2 and want[-1] == want[1]


def _row_shapes_q(n=300):
    """A sparse Q (c = 2) whose rows of B = I + Q/2 take every shape _lone_entry reads.

    Row 0 stores nothing (B keeps its 1.0), row 1 only a diagonal that
    cancels (an empty row of B), row 2 only one that does not, row 4 its
    diagonal before the entry right of it, row 5 no diagonal, row 6 a
    diagonal that does not cancel beside an entry, row 7 an explicit zero,
    and row 8 two entries that stay in B. Rows 10..149 count down to row 9,
    which leads to row 8; rows 150..298 count up to row 299, which leads to
    row 0.
    """
    rows = {
        0: {}, 1: {1: -2.0}, 2: {2: -1.0}, 3: {1: 2.0, 3: -2.0}, 4: {4: -2.0, 5: 0.5},
        5: {0: 1.0}, 6: {2: 1.0, 6: -1.0}, 7: {0: 0.0, 7: -2.0, 9: 1.0},
        8: {3: 1.0, 6: 0.5, 8: -2.0}, 9: {8: 2.0, 9: -2.0}, 299: {0: 1.0, 299: -2.0},
    }
    rows.update({i: {i - 1: 2.0, i: -2.0} for i in range(10, 150)})
    rows.update({i: {i: -2.0, i + 1: 1.0} for i in range(150, 299)})
    indptr, indices, data = [0], [], []
    for i in range(n):
        indices += sorted(rows[i])
        data += [rows[i][j] for j in sorted(rows[i])]
        indptr.append(len(indices))
    return sp.csr_array((np.array(data), np.array(indices), np.array(indptr)), shape=(n, n))


def test_lone_entry_reads_the_rows_of_the_uniformized_matrix():
    # _uniformized's B, row by row: its one nonzero, (col, 0.0) for an
    # empty row, None for two or more.
    Q = _row_shapes_q()
    assert np.count_nonzero(Q.data == 0.0) == 1  # row 7 stores its zero
    B = numerics._uniformized(Q, 2.0).toarray()
    arrays = [memoryview(a) for a in (Q.indptr, Q.indices, Q.data)]
    for i in range(Q.shape[0]):
        nonzero = np.flatnonzero(B[i])
        want = (i, 0.0) if nonzero.size == 0 else None
        if nonzero.size == 1:
            want = (int(nonzero[0]), float(B[i, nonzero[0]]))
        assert numerics._lone_entry(*arrays, 0.5, i) == want, i


@pytest.mark.parametrize("start", [149, 150, 7, 5, 1])
def test_row_iterates_off_q_match_dense_steps_through_b(monkeypatch, start):
    # Scalar steps read off Q's rows, B built only at a row of B with two
    # nonzeros (row 8 or 5, or never), then dense: every iterate equals the
    # dense v B^j to the bit. The walk ends right after its first zero
    # iterate, which only start 1 reaches (an _Entry of value 0).
    Q = _row_shapes_q()
    built = []
    uniformized = numerics._uniformized

    def counted(*args):
        built.append(None)
        return uniformized(*args)

    monkeypatch.setattr(numerics, "_uniformized", counted)
    v = np.zeros(Q.shape[0])
    v[start] = 1.0
    Bt = uniformized(Q, 2.0).T
    first_zero = None
    for j, u in enumerate(itertools.islice(numerics._row_iterates(Q, 2.0, v), 400)):
        got = u
        if isinstance(u, numerics._Entry):
            got = np.zeros(v.size)
            got[u.col] = u.val
        assert np.array_equal(got, v)
        if first_zero is None and not v.any():
            first_zero = j
        v = Bt @ v
    assert len(built) == (start in (149, 7, 5))
    assert j == (399 if first_zero is None else first_zero)
    assert (first_zero is not None) == (start == 1)
    # The other two kinds of zero end: a fan (state i >= 2 moves to i - 1 or
    # i - 2, states 0 and 1 exit) whose B stores past 20,000 entries, stepped
    # as _SparseRows from state 40 to the empty row, and a dense countdown.
    n = 15_000
    i = np.arange(2, n)
    rows, cols = np.concatenate([np.arange(n), i, i]), np.concatenate([np.arange(n), i - 1, i - 2])
    vals = np.concatenate([np.full(n, -1.0), np.full(2 * (n - 2), 0.5)])
    fan = sp.csr_array((vals, (rows, cols)), shape=(n, n))
    countdown = np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    for Q, start, kind, length in ((fan, 40, numerics._SparseRow, 41), (countdown, 2, np.ndarray, 4)):
        v = np.zeros(Q.shape[0])
        v[start] = 1.0
        walk = list(itertools.islice(numerics._row_iterates(Q, 1.0, v), 400))
        assert len(walk) == length and all(type(u) is kind for u in walk)
        assert walk[-1].sum() == 0.0 and all(u.sum() > 0.0 for u in walk[:-1])


def test_expm_steps_a_thin_band_as_sparse_rows(monkeypatch):
    # A 30,000-state birth-death band (down 0.5, up 0.3, stay 0.2) started at
    # state 50: B stores about 90,000 entries and the iterate widens by one
    # state a side per step, so it stays a multi-entry _SparseRow over the
    # whole Poisson window instead of going dense after one step.
    n = 30_000
    i = np.arange(1, n)
    rows = np.concatenate([[0], i, i[:-1], i])
    cols = np.concatenate([[0], i - 1, i[:-1] + 1, i])
    vals = np.concatenate([[1.0], np.full(n - 1, 0.5), np.full(n - 2, 0.3), np.where(i == n - 1, 0.5, 0.2)])
    sub = decompose(validate_chain(sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))))
    v = np.zeros(sub.n_transient)
    v[49] = 1.0
    steps = 0
    step = numerics._SparseRow.step

    def counted(row, B):
        nonlocal steps
        steps += 1
        return step(row, B)

    monkeypatch.setattr(numerics._SparseRow, "step", counted)
    for t in (100.0, 400.0):
        steps = 0
        got = expm_action(sub.Q, v, t)
        assert steps >= 100
        assert np.max(np.abs(got - expm_multiply(sub.Q.T * t, v))) <= 1e-12


def test_expm_refuses_a_poisson_mean_past_the_term_budget():
    # c t = 1e308 would take about that many terms.
    with pytest.raises(NonConvergent, match="budget") as exc:
        expm_action(np.array([[-1.0]]), np.array([1.0]), 1e308)
    assert "t = 1e+308" in str(exc.value) and "Lambda = 1)" in str(exc.value)


def _random_series_case(rng):
    """A random chain with self-loops and a random start, as (sub, v)."""
    S = int(rng.integers(1, 11))
    sub = decompose(random_chain(rng, S))
    return sub, rng.dirichlet(np.ones(S))


def test_series_continuous_matches_expm_multiply():
    rng = np.random.default_rng(71)
    for _ in range(50):
        sub, v = _random_series_case(rng)
        series = numerics._SurvivalSeries(sub, v)
        ones = np.ones(v.size)
        # Out of order: later reads reuse and extend the terms of earlier ones.
        for t in rng.permutation([0.0, 0.3, 2.0, 9.0, 40.0]):
            ref = float(v @ expm_multiply(sub.Q.toarray() * t, ones))
            assert series.continuous(t) == pytest.approx(ref, rel=1e-10, abs=1e-15)


def test_series_discrete_matches_dense_powers():
    # N from c = max(-Q_ii) up, where the binomial success c/N reaches 1.
    rng = np.random.default_rng(73)
    for _ in range(50):
        sub, v = _random_series_case(rng)
        c = float(np.max(-sub.Q.diagonal()))
        series = numerics._SurvivalSeries(sub, v)
        for N in (c, c * rng.uniform(1.0, 1.05), c * 1.05 * (1 - 1e-12), 3.0 * c, 1e3 * c):
            step = np.eye(v.size) + sub.Q.toarray() / N
            for k in (0, 1, 6, 50, 400):
                ref = float(v @ np.linalg.matrix_power(step, k) @ np.ones(v.size))
                assert series.discrete(k, N) == pytest.approx(ref, rel=1e-10, abs=1e-15)


def test_series_refuses_means_past_the_term_budget():
    # One state left at rate 1: Q = [[-1]].
    sub = decompose(validate_chain(np.array([[1.0, 0.0], [1.0, 0.0]])))
    series = numerics._SurvivalSeries(sub, np.array([1.0]))
    with pytest.raises(NonConvergent, match="budget"):
        series.continuous(1e8)
    with pytest.raises(NonConvergent, match="budget"):
        series.discrete(10**9, 10.0)
    # B = 0 here, so the survival (1 - 1/N)^k is the binomial weight of j = 0,
    # reached from the mode 10 by the weight ratios.
    assert series.discrete(10**7, 1e6) == pytest.approx(math.exp(1e7 * math.log1p(-1e-6)), rel=1e-13)


# Upper tolerance of the series' weights, and the share of the mass below
# the mode a window may leave out (the smallest normal float).
_TOL = 1e-15
_TINY = np.finfo(float).tiny


def _lone(rows):
    """The window (j0, w) of a _weights call that built one row."""
    [j0], [w], _ = rows
    return int(j0), w


def _law(mu=None, k=None, p=None):
    """(weights, mode, up, down) of Poisson(mu) or Binomial(k, p), the ratios
    as functions of Fraction or Decimal arguments."""
    if k is None:
        return _lone(numerics._weights(rate=1.0, t=np.array([mu]))), math.floor(mu), (
            lambda j, x: x / (j + 1)), (lambda j, x: j / x)
    return _lone(numerics._weights(k=k, p=p)), min(k, math.floor((k + 1) * p)), (
        lambda j, x: (k - j) * x / (j + 1)), (lambda j, x: j / ((k - j + 1) * x))


def _windows(law, laws):
    """The law's window (j0, w) from its own _weights call and, for a Poisson
    law, its row of one batched call over every Poisson mean in laws (the row
    checked to hold zeros past its window)."""
    windows = [_law(**law)[0]]
    if "k" not in law:
        means = [other["mu"] for other in laws if "k" not in other]
        j0, rows, ends = numerics._weights(rate=1.0, t=np.array(means))
        i = means.index(law["mu"])
        size = int(ends[i] - j0[i])
        assert not rows[i, size:].any()
        windows.append((int(j0[i]), rows[i, :size]))
    return windows


def _check_window(got, want, below, above):
    """got against the reference weights of its window, and the reference
    masses left out below and above it (all relative to the law's total)."""
    j0, w = got
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(w - want)) <= 1e-15
    big = want > 1e-10
    assert np.max(np.abs(w[big] - want[big]) / want[big]) <= 1e-14
    assert below <= _TINY and above <= _TOL


_RATIONAL_LAWS = [{"mu": mu} for mu in (1e-6, 0.3, 1.0, 5.5, 21.0, 33.7)] + [
    {"k": k, "p": p} for k, p in ((0, 0.4), (1, 0.5), (7, 0.3), (20, 0.05), (45, 0.5), (60, 0.9))
]


@pytest.mark.parametrize("law", _RATIONAL_LAWS)
def test_weights_match_exact_rational_weights(law):
    # The float parameter is a rational number; the law's weights relative to
    # the mode are then exact Fractions over the whole support (for Poisson,
    # far enough past the window that the rest is below 1e-100). A Poisson
    # law's row of one batched call over every mean meets the same bounds.
    _, mode, up, down = _law(**law)
    x = Fraction(law["mu"]) if "k" not in law else Fraction(law["p"]) / (1 - Fraction(law["p"]))
    for j0, w in _windows(law, _RATIONAL_LAWS):
        last = law["k"] if "k" in law else j0 + w.size + 200
        rel = {mode: Fraction(1)}
        for j in range(mode, last):
            rel[j + 1] = rel[j] * up(j, x)
        for j in range(mode, 0, -1):
            rel[j - 1] = rel[j] * down(j, x)
        total = sum(rel.values())
        window = [rel[j] for j in range(j0, j0 + w.size)]
        kept = sum(window)
        want = np.array([float(v / kept) for v in window])
        below = float(sum(rel[j] for j in range(j0)) / total)
        above = float(sum(rel[j] for j in range(j0 + w.size, last + 1)) / total)
        _check_window((j0, w), want, below, above)


_DECIMAL_LAWS = [{"mu": mu} for mu in (700.0, 1e4, 1e5, 1e6)] + [
    {"k": k, "p": p} for k, p in ((4 * 10**5, 0.3), (10**6, 0.999), (10**7, 1e-4), (10**7, 0.5))
]


@pytest.mark.parametrize("law", _DECIMAL_LAWS)
def test_weights_match_decimal_recurrence(law):
    # The same ratios from the mode in 40-digit decimal, outward until the
    # terms no longer change the masses left out at 40 digits. The binomial
    # odds are the float p / (1 - p) of the kernel: its rounding moves a
    # weight x terms from the mode by about x ulps, 2e-13 relative at
    # Binomial(4e5, 0.3)'s 1e-10 weights. A Poisson law's row of one batched
    # call over every mean meets the same bounds.
    _, mode, up, down = _law(**law)
    for j0, w in _windows(law, _DECIMAL_LAWS):
        end = j0 + w.size - 1
        with localcontext() as ctx:
            ctx.prec = 40
            x = Decimal(law["mu"]) if "k" not in law else Decimal(law["p"] / (1 - law["p"]))
            masses = []
            for step, ratio, stop in ((1, up, law.get("k", math.inf)), (-1, down, 0)):
                window, outside, rel, j = [], Decimal(0), Decimal(1), mode
                while True:
                    if j0 <= j <= end:
                        window.append(rel)
                    else:
                        outside += rel
                        if rel <= outside * Decimal("1e-40"):
                            break
                    if j == stop:
                        break
                    rel *= ratio(j, x)
                    j += step
                masses.append((window, outside))
            (up_w, above), (down_w, below) = masses
            window = down_w[:0:-1] + up_w
            kept = sum(window)
            want = np.array([float(v / kept) for v in window])
            total = kept + above + below
            _check_window((j0, w), want, float(below / total), float(above / total))


def test_weights_upper_cut_is_the_first_certified_term():
    # The upper cut is the first n > mu - 1 with w_n mu / (n + 1 - mu) <= tol
    # (Fox & Glynn's bound on the Poisson mass past n).
    for mu in (32.2, 738.0, 1e5):
        j0, w = _lone(numerics._weights(rate=1.0, t=np.array([mu])))
        n = j0 + w.size - 1
        assert w[-1] * mu / (n + 1 - mu) <= _TOL < w[-2] * mu / (n - mu)
    j0, w = _lone(numerics._weights(rate=1.0, t=np.array([1e5])))
    assert j0 + w.size == 102_523  # the term count README quotes


def test_weights_down_cut_lies_within_its_first_span():
    # A series reads a window wholly past its last stepped sum J when the
    # window's _reach, its mode less _start_spans' below, lies past J. No
    # window may start lower: on means from 1e-6 to 1e7 (the term budget),
    # built alone, five to a call and beside far wider rows (which double
    # the sides a narrow row is built over), j0 never falls below it.
    means = np.geomspace(1e-6, 1e7, 131)
    calls = [means[i : i + 1] for i in range(means.size)]
    calls += [means[i : i + 5] for i in range(0, means.size, 3)]
    calls += [np.array([top / 100, top / 10, top / 2, top]) for top in (1e3, 1e5, 1e7)]
    for t in calls:
        j0, _, _ = numerics._weights(rate=1.0, t=t)
        reach = [numerics._reach(mu) for mu in t.tolist()]
        assert all(j >= lowest for j, lowest in zip(j0.tolist(), reach)), t


def test_weights_of_degenerate_laws():
    assert [(j0, w.tolist()) for j0, w in map(_lone, (
        numerics._weights(rate=1.0, t=np.array([1e-320 * 1e-10])),
        numerics._weights(k=9, p=0.0),
        numerics._weights(k=9, p=1.0),
    ))] == [(0, [1.0]), (0, [1.0]), (9, [1.0])]


def test_eigen_tstage3_triple_eigenvalue():
    vals = eigen_spectrum(decompose(gen_tstage(3).chain).Q.toarray())
    assert vals.dtype == float and vals.tolist() == [-1.0, -1.0, -1.0]


def test_eigen_diagonal():
    assert eigen_spectrum(np.diag([-2.0, -1.0])).tolist() == [-1.0, -2.0]


def test_eigen_characteristic_roots():
    # Roots of x^2 + 5x + 5.
    vals = eigen_spectrum(np.array([[-2.0, 1.0], [1.0, -3.0]]))
    expected = [(-5 + math.sqrt(5)) / 2, (-5 - math.sqrt(5)) / 2]
    assert vals == pytest.approx(expected)


def test_eigen_multiplicities_sum_to_dimension():
    # Every eigenvalue is returned, once per copy.
    rng = np.random.default_rng(17)
    for _ in range(10):
        S = int(rng.integers(1, 9))
        assert eigen_spectrum(decompose(random_chain(rng, S)).Q.toarray()).shape == (S,)


def test_eigen_permutation_similarity_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        S = int(rng.integers(2, 9))
        Q = decompose(random_chain(rng, S)).Q.toarray()
        perm = rng.permutation(S)
        Pm = np.eye(S)[perm]
        Q2 = Pm @ Q @ Pm.T
        vals1, vals2 = (
            sorted((round(v.real, 9), round(v.imag, 9)) for v in eigen_spectrum(A).tolist())
            for A in (Q, Q2)
        )
        assert np.allclose(vals1, vals2, atol=1e-7)


def test_eigen_spectrum_of_known_blocks_by_decreasing_real_part():
    # Eigenvalues known exactly: diagonal entries, and a +- |b| i from the
    # blocks [[a, b], [-b, a]], scattered over the matrix. They come back
    # one per copy, by decreasing real part.
    rng = np.random.default_rng(71)
    reals = np.concatenate([np.repeat([-1.0, -2.0, -0.5], [4, 3, 2]), rng.uniform(-3.0, -0.1, 20)])
    pairs = [(-1.0, 0.5), (-2.0, 1e-9), (-0.7, 1.0)]
    n = reals.size + 2 * len(pairs)
    Q = np.zeros((n, n))
    Q[np.arange(reals.size), np.arange(reals.size)] = reals
    for i, (a, b) in zip(range(reals.size, n, 2), pairs):
        Q[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
    perm = rng.permutation(n)
    vals = eigen_spectrum(Q[perm][:, perm])

    want = np.concatenate([reals, [complex(a, s * b) for a, b in pairs for s in (1, -1)]])
    assert vals.shape == (n,) and np.all(np.diff(vals.real) <= 0.0)
    assert _same_multiset(vals, want, 1e-15)


def test_eigen_dimension_cap():
    # The cap bounds one strongly connected class: here a 2,001-state cycle
    # with one exit. 2,001 single-state classes are read off the diagonal.
    n = numerics.DENSE_CAP + 1
    cycle = sp.csr_array((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
    exit_ = sp.csr_array(([0.5], ([0], [0])), shape=(n, n))
    with pytest.raises(DimensionTooLarge):
        eigen_spectrum(cycle - sp.eye(n, format="csr") - exit_)
    assert eigen_spectrum(sp.eye(n, format="csr") * -1.0).tolist() == [-1.0] * n


def _same_multiset(a, b, tol):
    """Whether the complex values a and b pair up one to one within tol."""
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return a.size == b.size and np.max(np.abs(a[rows] - b[cols]), initial=0.0) <= tol


@pytest.mark.parametrize("seed", [51, 52, 53, 54])
def test_eigen_spectrum_of_permuted_reducible_chains_matches_numpy(seed):
    # Several nontrivial classes and single states, edges only from earlier
    # classes to later ones, then the states shuffled: the class blocks are
    # scattered over Q and eigen_spectrum must find them itself.
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([rng.integers(2, 7, 8), rng.integers(2, 4, 4), np.ones(15, dtype=int)])
    sizes = sizes[rng.permutation(sizes.size)]
    n = int(sizes.sum())
    Q = np.zeros((n, n))
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        states = np.arange(start, start + size)
        if size > 1:
            Q[states, np.roll(states, -1)] = rng.uniform(0.2, 1.0, size)
            Q[rng.choice(states, size), rng.choice(states, size)] += rng.uniform(0.0, 0.5, size)
        if start + size < n:
            Q[states, rng.integers(start + size, n, size)] += rng.uniform(0.0, 0.5, size)
    Q[np.diag_indices(n)] = 0.0
    Q[np.diag_indices(n)] = -(Q.sum(axis=1) + rng.uniform(0.05, 1.0, n))
    perm = rng.permutation(n)
    Q = Q[perm][:, perm]
    want = np.linalg.eigvals(Q)
    for A in (Q, sp.csr_array(Q)):
        vals = eigen_spectrum(A)
        assert np.all(np.diff(vals.real) <= 0.0)
        assert _same_multiset(vals, want, 1e-9)


@pytest.mark.parametrize("name, example", [("tstage:5", gen_tstage(5)), ("fig3a:10,2", gen_fig3a(10, 2))])
def test_eigen_spectrum_of_triangular_q_makes_no_lapack_call(monkeypatch, name, example):
    def refuse(*args, **kwargs):
        raise AssertionError(f"LAPACK eigvals called on {name}")

    monkeypatch.setattr(numerics, "eigvals", refuse)
    sub = decompose(example.chain)
    assert eigen_spectrum(sub.Q).tolist() == [-1.0] * sub.n_transient
    assert spectral_params(sub).k == sub.n_transient - 1


def test_eigen_spectrum_of_many_small_classes():
    # 8,000 two-state cycles (16,000 states), one LAPACK call per class.
    rng = np.random.default_rng(61)
    m = 8000
    a, b, e = rng.uniform(0.2, 0.6, size=(3, m))
    blocks = np.stack([np.stack([-(a + e), a], axis=1), np.stack([b, -(b + 0.5 * e)], axis=1)], axis=1)
    vals = eigen_spectrum(sp.block_diag(blocks, format="csr"))
    want = np.linalg.eigvals(blocks).ravel()
    assert np.allclose(np.sort(vals), np.sort(want.real), rtol=0, atol=1e-12)
    assert not want.imag.any()


def test_dominant_scalar():
    assert dominant_eigen(np.array([[-1.0]])) == pytest.approx(-1.0)


def test_dominant_tstage_exact():
    for T in (1, 2, 3, 5):
        sub = decompose(gen_tstage(T).chain)
        assert dominant_eigen(sub.Q) == pytest.approx(-1.0, abs=1e-12)


def test_dominant_fig3b():
    T = 4
    sub = decompose(gen_fig3b(T).chain)
    assert dominant_eigen(sub.Q) == pytest.approx(-1.0 / T, abs=1e-12)


def test_dominant_matches_dense_spectrum():
    rng = np.random.default_rng(41)
    tol = 1e-8
    for _ in range(25):
        S = int(rng.integers(1, 9))
        sub = decompose(random_chain(rng, S))
        lead = dominant_eigen(sub.Q)
        dense = eigen_spectrum(sub.Q.toarray())[0].real
        assert abs(lead - dense) <= 10 * tol
        # numpy on the dense Q shares no code with the class-by-class paths.
        plain = np.max(np.linalg.eigvals(sub.Q.toarray()).real)
        assert abs(lead - plain) <= 10 * tol
        assert abs(dense - plain) <= 10 * tol
    # 300 two-state cycles, each its own strongly connected component.
    m = 300
    a, b, e = rng.uniform(0.2, 0.6, size=(3, m))
    Q = np.zeros((2 * m, 2 * m))
    for c in range(m):
        i, j = 2 * c, 2 * c + 1
        Q[i, j], Q[j, i] = a[c], b[c]
        Q[i, i], Q[j, j] = -(a[c] + e[c]), -(b[c] + 0.5 * e[c])
    lead = dominant_eigen(sp.csr_array(Q))
    assert abs(lead - np.max(np.linalg.eigvals(Q).real)) <= 10 * tol


@pytest.mark.parametrize("seed, top_singleton", [(43, False), (44, False), (45, True)])
def test_dominant_matches_dense_eigvals_on_linked_cycles(seed, top_singleton):
    # 150 cycles of 2 to 4 states and 60 single states, shuffled, with edges
    # from each component to later ones only: every cycle is its own strongly
    # connected component, the power iteration runs on all cycles at once,
    # and the edges between them must stay out of it.
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([rng.integers(2, 5, 150), np.ones(60, dtype=int)])
    sizes = sizes[rng.permutation(sizes.size)]
    n = int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    Q = np.zeros((n, n))
    for start, size in zip(starts, sizes):
        states = np.arange(start, start + size)
        if size > 1:
            Q[states, np.roll(states, -1)] = rng.uniform(0.2, 1.0, size)
        for i in states:
            if start + size < n:
                Q[i, rng.integers(start + size, n, 2)] += rng.uniform(0.0, 0.5, 2)
    Q[np.diag_indices(n)] = -(Q.sum(axis=1) + rng.uniform(0.05, 0.5, n))
    if top_singleton:
        # Every row of a cycle sums to at most -0.05, so its roots lie below
        # that; a single state left only at rate 0.01 holds the top root.
        single = starts[sizes == 1][0]
        Q[single] = 0.0
        Q[single, single] = -0.01
    lead = dominant_eigen(sp.csr_array(Q))
    assert abs(lead - np.max(np.linalg.eigvals(Q).real)) <= 1e-9


def _forward_or_return(n, p):
    """Q of n states in one class: state i moves on with probability p, else returns to state 1.

    State 1 exits instead of returning, and state n always returns. The left
    Perron vector, which the power iteration follows, falls like (p / rho)^i.
    """
    i = np.arange(n)
    back = np.append(np.full(n - 2, 1.0 - p), 1.0)
    rows = np.concatenate([i[:-1], i[1:], i])
    cols = np.concatenate([i[1:], np.zeros(n - 1, dtype=int), i])
    return sp.csr_array((np.concatenate([np.full(n - 1, p), back, -np.ones(n)]), (rows, cols)),
                        shape=(n, n))


def test_dominant_raises_when_the_perron_vector_underflows():
    # A return to state 1 after i steps has probability p^(i-1) (1 - p), so
    # the Perron root rho of I + Q solves sum_i p^(i-1) (1 - p) rho^-i = 1:
    # rho = (p + sqrt(p^2 + 4 p (1 - p))) / 2, up to a p^n term below 1e-90 here.
    n = 2001
    Q = _forward_or_return(n, 0.9)
    rho = (0.9 + math.sqrt(0.81 + 4 * 0.9 * 0.1)) / 2
    assert dominant_eigen(Q) == pytest.approx(rho - 1.0, rel=0, abs=1e-9)
    # At p = 1/2 the left vector's entries fall like 0.62^i, below the
    # smallest float past state 1,550: the ratios read 0/0.
    with pytest.raises(NonConvergent, match="underflow"):
        dominant_eigen(_forward_or_return(n, 0.5))
    small = _forward_or_return(50, 0.5)
    want = np.max(np.linalg.eigvals(small.toarray()).real)
    assert dominant_eigen(small) == pytest.approx(want, rel=0, abs=1e-9)


def test_dominant_reports_slow_convergence(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_POWER_ITERATIONS", 2)
    Q = np.array([[-1.0, 0.5], [0.25, -1.0]])
    with pytest.raises(SlowConvergence) as exc:
        dominant_eigen(Q)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0.0


def test_dominant_forms_the_uniformized_matrix_only_on_nontrivial_classes(monkeypatch):
    shapes = []
    original = numerics._uniformized

    def counted(Q, c):
        shapes.append(Q.shape)
        return original(Q, c)

    monkeypatch.setattr(numerics, "_uniformized", counted)
    # fig3a(300, 2): 90,001 states, every class a single state.
    assert dominant_eigen(decompose(gen_fig3a(300, 2).chain).Q) == pytest.approx(-1.0, abs=1e-12)
    assert shapes == []
    # One 3-state cycle (rates 1, leaving at 1.5) feeding two single states:
    # roots -1.5 + e^(2 pi i k/3), so nu = 0.5.
    Q = sp.csr_array(np.array([
        [-1.5, 1.0, 0.0, 0.5, 0.0],
        [0.0, -1.5, 1.0, 0.0, 0.0],
        [1.0, 0.0, -1.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, -2.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, -3.0],
    ]))
    assert dominant_eigen(Q) == pytest.approx(-0.5, abs=1e-10)
    assert shapes == [(3, 3)]


def test_eigen_spectrum_ignores_a_stored_zero(monkeypatch):
    # Q stores a zero at (0, 1) against the edge 1 -> 0: counted as an edge,
    # it would join states 0 and 1 into one class.
    Q = sp.csr_array((np.array([-1.0, 0.0, 0.5, -2.0, 0.3, -3.0]),
                      (np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 0, 1, 1, 2]))), shape=(3, 3))
    assert Q.nnz == 6

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigvals called on three single-state classes")

    monkeypatch.setattr(numerics, "eigvals", refuse)
    assert eigen_spectrum(Q).tolist() == [-1.0, -2.0, -3.0]
    assert Q.nnz == 6  # the caller's matrix keeps its stored zero


def test_one_dense_cap_refusal_before_any_block_is_densified(monkeypatch):
    # 20 two-state cycles and one 2,001-state ring: both class-by-class
    # routines refuse the ring, with one message, before densifying a cycle.
    n = numerics.DENSE_CAP + 1
    ring = sp.csr_array((np.full(n, 0.9), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
    cycle = sp.csr_array(np.array([[0.0, 0.5], [0.5, 0.0]]))
    Q = sp.block_diag([cycle] * 10 + [ring] + [cycle] * 10, format="csr") - sp.eye(n + 40, format="csr")

    def refuse(*args, **kwargs):
        raise AssertionError("a block was densified before the refusal")

    monkeypatch.setattr(sp.csr_array, "toarray", refuse)
    message = "a 2001-state strongly connected class is past the dense cap of 2000 states"
    with pytest.raises(DimensionTooLarge, match=message):
        eigen_spectrum(Q)
    with pytest.raises(DimensionTooLarge, match=message):
        numerics._max_fundamental_entry(Q)


def _stored_zero_subs():
    # Each Q stores a zero at (0, 1) against the edge 1 -> 0: counted as an
    # edge, it would join state 0 to state 1's class.
    rows, cols = np.array([0, 0, 1, 1, 1, 2, 2]), np.array([0, 1, 0, 1, 2, 1, 2])
    alone = [-1.0, 0.0, 0.5, -2.0, 0.0, 0.3, -3.0]  # (1, 2) a stored zero too
    pair = [-1.0, 0.0, 0.5, -2.0, 1.0, 0.3, -3.0]  # states 1 and 2 a class
    return [sub_generator(sp.csr_array((d, (rows, cols)), shape=(3, 3))) for d in (alone, pair)]


def _class_sweep_subs():
    """Seeded random chains with no, one and two classes of more than one
    state, chains with stored zeros, and chains of single-state classes only."""
    rng = np.random.default_rng(34)
    subs = [
        decompose(random_chain(rng, int(rng.integers(2, 40)), density))
        for density in (0.02, 0.05, 0.1, 0.3, 0.7)
        for _ in range(4)
    ]
    subs += _stored_zero_subs()
    subs += [decompose(ex.chain) for ex in (gen_tstage(4), gen_fig3a(6, 2), gen_fig3b(3))]
    return subs


def test_a_sub_generator_gives_the_matrix_results_to_the_bit(monkeypatch):
    subs = _class_sweep_subs()
    sizes = [sub._classes.sizes.tolist() for sub in subs]
    assert {len(s) for s in sizes[:20]} == {0, 1, 2}  # chains with none, one and two classes
    assert sizes[-5:] == [[], [2], [], [], []]
    calls = count_strong_blocks(monkeypatch)
    for sub in subs:
        kept = eigen_spectrum(sub), dominant_eigen(sub), numerics._max_fundamental_entry(sub)
        fresh = (
            eigen_spectrum(sub.Q), dominant_eigen(sub.Q), numerics._max_fundamental_entry(sub.Q)
        )
        assert kept[0].dtype == fresh[0].dtype and kept[0].tobytes() == fresh[0].tobytes()
        assert kept[1:] == fresh[1:]
        assert ResolventQuantities(sub).max_neg_qinv == fresh[2]
    # The sub-generators kept the classes found above; a matrix gets a fresh
    # pass on each of its three calls.
    assert len(calls) == 3 * len(subs)


def test_the_classes_are_found_once_per_sub_generator(monkeypatch):
    sub = decompose(random_chain(np.random.default_rng(7), 30, 0.1))
    calls = count_strong_blocks(monkeypatch)
    for _ in range(2):
        eigen_spectrum(sub), dominant_eigen(sub), numerics._max_fundamental_entry(sub)
        spectral_params(sub)
    assert calls == [(30, 30)]
    blocks = sub._classes
    assert not (blocks.singleton.flags.writeable or blocks.states.flags.writeable)


def test_single_state_classes_gather_no_block(monkeypatch):
    # fig3a(6, 2)'s Q is triangular: the pass ends at the labels.
    Q = decompose(gen_fig3a(6, 2).chain).Q

    def refuse(*args, **kwargs):
        raise AssertionError("a block was gathered from single-state classes")

    monkeypatch.setattr(sp, "coo_array", refuse)
    blocks = numerics._strong_blocks(Q)
    assert blocks.singleton.all() and blocks.singleton.size == 37
    assert (blocks.states.size, blocks.sizes.size, blocks.inner) == (0, 0, None)
    assert list(blocks.dense_blocks()) == []


def test_a_sub_generator_past_the_dense_cap_is_refused_from_one_pass(monkeypatch):
    # One ring of DENSE_CAP + 1 states, each moving on with 0.99 and exiting
    # with 0.01: the spectrum and the resolvent maximum refuse its class,
    # naming it, and the Perron iteration still gives nu = 0.01.
    n = numerics.DENSE_CAP + 1
    ring = sp.csr_array((np.full(n, 0.99), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
    sub = sub_generator(ring - sp.eye(n, format="csr"))
    calls = count_strong_blocks(monkeypatch)
    message = f"a {n}-state strongly connected class is past the dense cap of 2000 states"
    with pytest.raises(DimensionTooLarge, match=message):
        eigen_spectrum(sub)
    with pytest.raises(DimensionTooLarge, match=message):
        ResolventQuantities(sub).max_neg_qinv
    with pytest.raises(DimensionTooLarge, match=message):
        spectral_params(sub)
    assert dominant_eigen(sub) == pytest.approx(-0.01, rel=1e-9)
    assert calls == [(n, n)]

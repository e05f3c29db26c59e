import math
import mmap

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from fluidhit import (
    decompose,
    dominant_eigen,
    eigen_spectrum,
    expm_action,
    gen_fig3b,
    gen_tstage,
    random_chain,
    solve_linear,
)
from fluidhit import numerics
from fluidhit.errors import DimensionTooLarge, NonConvergent, SingularMatrix


def test_solve_identity():
    b = np.array([3.0, -1.0, 0.25])
    assert solve_linear(np.eye(3), b) == pytest.approx(b)


def test_solve_tstage3_hitting_system():
    Q = decompose(gen_tstage(3).chain).dense_q()
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


def test_expm_refuses_tiny_tolerance():
    with pytest.raises(NonConvergent):
        expm_action(np.array([[-1.0]]), np.array([1.0]), 1.0, tol=1e-16)


def test_expm_large_time_log_space_weights():
    # Lambda * t beyond 700 exercises the log-space weight path.
    out = expm_action(np.array([[-1.0]]), np.array([1.0]), 800.0)
    assert out[0] == pytest.approx(math.exp(-800.0), rel=1e-8)


@pytest.mark.parametrize("mu", [32.2, 738.0, 2000.0, 1e4, 1e5])
def test_expm_stops_on_certified_poisson_tail(monkeypatch, mu):
    # At tol = 1e-15 the summed weights can round below 1 - tol, so a stop
    # on that sum ran to a cap far past the mean (1,377 terms at mu = 32.2);
    # the certified tail bound stops within a few standard deviations.
    iterates = numerics._row_iterates
    terms = []

    def counting(B, v):
        for u in iterates(B, v):
            terms.append(None)
            yield u

    monkeypatch.setattr(numerics, "_row_iterates", counting)
    Q = np.array([[-1.0]])
    out = expm_action(Q, np.array([1.0]), mu / numerics._uniformization_rate(Q), tol=1e-15)
    assert len(terms) <= mu + 10.0 * math.sqrt(mu) + 30.0
    assert 0.0 <= out[0] <= 1.0


@pytest.mark.parametrize("t", [500.0, 1e4, 9.5e4])
def test_expm_slow_decay_matches_expm_multiply(t):
    # Dominant eigenvalue about -5e-6: at t = 9.5e4 the survival is still
    # 0.62 while Lambda t is 1e5, deep in the log-space weights.
    Q = np.array([[-1.0, 1.0 - 1e-5], [1.0, -1.0]])
    v = np.array([0.3, 0.7])
    got = expm_action(Q, v, t, tol=1e-15)
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
    tol = 1e-12
    for _ in range(10):
        S = int(rng.integers(1, 11))
        sub = decompose(random_chain(rng, S))
        v = rng.dirichlet(np.ones(S))
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        direct = expm_action(sub.Q, v, t1 + t2, tol=tol)
        composed = expm_action(sub.Q, expm_action(sub.Q, v, t1, tol=tol), t2, tol=tol)
        assert np.max(np.abs(direct - composed)) <= 10 * tol


def test_expm_sparse_matches_dense():
    sub = decompose(gen_tstage(4).chain)
    v = np.array([0.0, 0.0, 0.0, 1.0])
    dense = expm_action(sub.dense_q(), v, 2.5)
    sparse = expm_action(sub.Q, v, 2.5)
    assert sparse == pytest.approx(dense)


def test_eigen_tstage3_triple_eigenvalue():
    report = eigen_spectrum(decompose(gen_tstage(3).chain).dense_q())
    assert len(report.eigenvalues) == 1
    value, mult = report.eigenvalues[0]
    assert value == pytest.approx(-1.0)
    assert mult == 3
    assert report.dominant_real == pytest.approx(-1.0)


def test_eigen_diagonal():
    report = eigen_spectrum(np.diag([-1.0, -2.0]))
    assert sorted((v.real, m) for v, m in report.eigenvalues) == [(-2.0, 1), (-1.0, 1)]
    assert report.dominant_real == pytest.approx(-1.0)


def test_eigen_characteristic_roots():
    # Roots of x^2 + 5x + 5.
    report = eigen_spectrum(np.array([[-2.0, 1.0], [1.0, -3.0]]))
    got = sorted(v.real for v, _ in report.eigenvalues)
    expected = sorted([(-5 - math.sqrt(5)) / 2, (-5 + math.sqrt(5)) / 2])
    assert got == pytest.approx(expected)


def test_eigen_multiplicities_sum_to_dimension():
    rng = np.random.default_rng(17)
    for _ in range(10):
        S = int(rng.integers(1, 9))
        report = eigen_spectrum(decompose(random_chain(rng, S)).dense_q())
        assert sum(m for _, m in report.eigenvalues) == S


def test_eigen_permutation_similarity_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        S = int(rng.integers(2, 9))
        Q = decompose(random_chain(rng, S)).dense_q()
        perm = rng.permutation(S)
        Pm = np.eye(S)[perm]
        Q2 = Pm @ Q @ Pm.T
        vals1 = sorted(
            (round(v.real, 9), round(v.imag, 9))
            for v, m in eigen_spectrum(Q).eigenvalues
            for _ in range(m)
        )
        vals2 = sorted(
            (round(v.real, 9), round(v.imag, 9))
            for v, m in eigen_spectrum(Q2).eigenvalues
            for _ in range(m)
        )
        assert np.allclose(vals1, vals2, atol=1e-7)


def test_eigen_clusters_transitively():
    # The ends are 1.2 tol apart, but each neighbour is within tol.
    tol = 1e-6
    report = eigen_spectrum(np.diag([-1.0, -1.0 - 0.6 * tol, -1.0 - 1.2 * tol]), cluster_tol=tol)
    assert len(report.eigenvalues) == 1
    value, mult = report.eigenvalues[0]
    assert mult == 3
    assert value.real == pytest.approx(-1.0 - 0.6 * tol, abs=1e-15)


def test_eigen_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        eigen_spectrum(sp.eye(2001, format="csr") * -1.0)


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
        lead = dominant_eigen(sub.Q, tol=tol)
        dense = eigen_spectrum(sub.dense_q()).dominant_real
        assert abs(lead - dense) <= 10 * tol
    # 300 two-state cycles, each its own strongly connected component.
    m = 300
    a, b, e = rng.uniform(0.2, 0.6, size=(3, m))
    Q = np.zeros((2 * m, 2 * m))
    for c in range(m):
        i, j = 2 * c, 2 * c + 1
        Q[i, j], Q[j, i] = a[c], b[c]
        Q[i, i], Q[j, j] = -(a[c] + e[c]), -(b[c] + 0.5 * e[c])
    lead = dominant_eigen(sp.csr_array(Q), tol=tol)
    assert abs(lead - np.max(np.linalg.eigvals(Q).real)) <= 10 * tol


needs_maps = pytest.mark.skipif(
    not hasattr(mmap, "MADV_HUGEPAGE"), reason="dense buffers come from numpy on this platform"
)


@needs_maps
def test_dense_buffer_reused_only_after_every_view_is_freed():
    first = numerics._dense_buffer((400, 400))
    assert isinstance(first.base.base, memoryview)  # a map, not the heap
    view = first.T[::2]
    first[...] = 1.0
    del first
    # The view still holds the map, so a new buffer must get other memory.
    second = numerics._dense_buffer((400, 400))
    second[...] = 2.0
    assert np.all(view == 1.0)
    del view, second
    again = numerics._dense_buffer((400, 400), order="F")
    assert again.flags.f_contiguous and again.flags.writeable
    small = numerics._dense_buffer((3, 3))
    assert small.base is None


@needs_maps
def test_dense_work_in_maps_matches_numpy_on_the_heap(monkeypatch):
    # 400 states make a 1.28 MB matrix, past the size that goes to a map.
    sub = decompose(random_chain(np.random.default_rng(5), 400, density=0.05))
    Q = sub.dense_q()
    assert isinstance(Q.base.base, memoryview)
    plain = np.asarray(sub.Q.todense())
    assert np.array_equal(Q, plain)
    b = np.ones(400)
    lu = numerics.lu_factor(-plain)
    assert np.array_equal(solve_linear(-Q, b), numerics.lu_solve(lu, b))
    # SciPy's LAPACK build may round differently from NumPy's.
    report = eigen_spectrum(Q)
    monkeypatch.setattr(numerics, "eigvals", lambda a, overwrite_a: np.linalg.eigvals(plain))
    heap = eigen_spectrum(plain)
    assert [m for _, m in report.eigenvalues] == [m for _, m in heap.eigenvalues]
    assert np.allclose([v for v, _ in report.eigenvalues], [v for v, _ in heap.eigenvalues],
                       rtol=0, atol=1e-12)

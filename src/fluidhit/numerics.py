"""Numerical kernels: linear solves, matrix-exponential action, eigenvalues.

All routines act on plain numpy arrays or scipy sparse matrices. Matrices
with the sub-generator sign pattern (negative diagonal, nonnegative
off-diagonal, row sums <= 0) get special treatment: the exponential action
is evaluated by uniformization, which preserves nonnegativity exactly, and
the dominant eigenvalue is found through the Perron root of the nonnegative
matrix I + Q/Lambda.
"""

from __future__ import annotations

import math
import mmap
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvals, lu_factor, lu_solve
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionTooLarge,
    NonConvergent,
    SingularMatrix,
    SlowConvergence,
)

# Largest transient state count densified: dense Q, its inverse, its spectrum.
DENSE_CAP = 2000

# Lambda is set to 1.05 * max(-Q_ii) so that I + Q/Lambda keeps a strictly
# positive diagonal even for rows with -Q_ii at the maximum.
_UNIFORMIZATION_SLACK = 1.05

_MIN_EXPM_TOL = 1e-15
_SPARE_MAPS = []  # maps released by arrays of _dense_buffer


def _dense_buffer(shape, order="C"):
    """Array for n x n work; from 1 MiB on, a private map reused once all its views are freed."""
    size = math.prod(shape)
    if 8 * size < 1 << 20 or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(shape, order=order)
    # Not the heap: glibc's reuse of freed 20 MB blocks there made peak memory vary by run.
    if not _SPARE_MAPS or len(buf := _SPARE_MAPS.pop()) != 8 * size:
        buf = mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        buf.madvise(mmap.MADV_HUGEPAGE)  # as numpy asks for its own large arrays
    weakref.finalize(flat := np.frombuffer(buf, dtype=float, count=size), _SPARE_MAPS.append, buf)
    return flat.reshape(shape, order=order)


def solve_linear(A, b):
    """Solve A x = b by LU factorization with partial pivoting.

    Raises SingularMatrix when a pivot falls below 1e-14 * ||A||_inf.
    One pass of iterative refinement keeps the residual within
    1e-10 * (1 + ||b||_inf).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    norm = np.max(np.abs(A, out=_dense_buffer(A.shape)).sum(axis=1)) if A.size else 0.0
    lu = _dense_buffer(A.shape, order="F")  # factored in place, not copied
    lu[...] = A
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(lu, overwrite_a=True)
    pivots = np.abs(np.diag(lu))
    if norm == 0.0 or np.min(pivots) < 1e-14 * norm:
        raise SingularMatrix(
            f"pivot {np.min(pivots):.3e} below threshold {1e-14 * norm:.3e}"
        )
    x = lu_solve((lu, piv), b)
    tol = 1e-10 * (1.0 + np.max(np.abs(b)))
    for _ in range(2):
        r = b - A @ x
        if np.max(np.abs(r)) <= tol:
            break
        x = x + lu_solve((lu, piv), r)
    return x


def _uniformization_rate(Q):
    d = Q.diagonal() if sp.issparse(Q) else np.diag(np.asarray(Q, dtype=float))
    return _UNIFORMIZATION_SLACK * float(np.max(-d))


def _poisson_log_weight(n, mu):
    return -mu + n * math.log(mu) - math.lgamma(n + 1)


def _uniformized(Q, c):
    """B = I + Q/c: CSR for sparse Q, a dense array otherwise."""
    n = Q.shape[0]
    if sp.issparse(Q):
        return sp.csr_array(sp.eye(n, format="csr") + Q.tocsr() * (1.0 / c))
    return np.eye(n) + np.asarray(Q, dtype=float) / c


def _row_iterates(B, v):
    """Yield the row iterates v, vB, vB^2, ... without end.

    On a sparse B with more than 2000 states, a v with at most 1/8 of its
    entries nonzero stays a sparse row until more than 1/4 are filled (the
    countdown chains touch a thin band of states). Dense iterates are B^T u
    with B^T taken once: u @ B on scipy sparse B transposes every product.
    """
    n = v.shape[0]
    if sp.issparse(B) and n > 2000 and np.count_nonzero(v) <= n // 8:
        u = sp.csr_array(v.reshape(1, -1))
        while u.nnz <= n // 4:
            yield u
            u = u @ B
        v = u.toarray().ravel()
    Bt = B.T
    while True:
        yield v
        v = Bt @ v


def expm_action(Q, v, t, tol=1e-12):
    """Evaluate the row-vector action v * exp(Q t) by uniformization.

    With Lambda >= max(-Q_ii), exp(Qt) = sum_n Pois(n; Lambda t) (I + Q/Lambda)^n.
    Every term is nonnegative, so the result is nonnegative entrywise and the
    truncation error is at most the remaining Poisson tail mass times
    ||v||_1. The sum stops at the first n past the mean mu = Lambda t whose
    weight certifies that tail below tol: w_{k+1}/w_k = mu/(k+1) decreases,
    so the weights after n sum to at most w_n mu / (n + 1 - mu) (Fox & Glynn,
    CACM 31, 1988). Weights switch to log-space once mu exceeds 700 to dodge
    underflow of exp(-mu), and the sum is then divided by the summed
    weights, which cancels the common rounding drift of the lgamma terms.

    Raises NonConvergent if tol below 1e-15 is requested, and ValueError
    for a negative or non-finite t (the stop test never holds at inf or nan).
    """
    if tol < _MIN_EXPM_TOL:
        raise NonConvergent(f"tolerance {tol:.1e} below the {_MIN_EXPM_TOL:.0e} cap")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    v = np.asarray(v, dtype=float)
    lam = _uniformization_rate(Q)
    if t == 0.0 or lam <= 0.0:
        # exp(Q 0) = I, and exp(Qt) = I for the zero generator.
        return v.copy()

    mu = lam * t
    log_space = mu > 700.0
    total = 0.0
    for n, u in enumerate(_row_iterates(_uniformized(Q, lam), v)):
        if n == 0:
            acc = 0.0 * u
            w = 0.0 if log_space else math.exp(-mu)
        elif log_space:
            lw = _poisson_log_weight(n, mu)
            w = math.exp(lw) if lw > -745.0 else 0.0
        else:
            w = w * mu / n
        if sp.issparse(acc) and not sp.issparse(u):
            acc = acc.toarray().ravel()
        if w > 0.0:
            acc = acc + w * u
        total += w
        if n + 1 > mu and w * mu / (n + 1 - mu) <= tol:
            break
    if sp.issparse(acc):
        acc = acc.toarray().ravel()
    if log_space:
        acc = acc / total
    np.maximum(acc, 0.0, out=acc)
    return acc


@dataclass(frozen=True)
class EigenReport:
    """Eigenvalues with multiplicities after clustering.

    eigenvalues: list of (value, algebraic multiplicity), multiplicities sum
    to the matrix dimension. dominant_real is the real part of the eigenvalue
    with the greatest real part (imaginary parts below the clustering
    tolerance are dropped).
    """

    eigenvalues: tuple
    dominant_real: float
    tolerance: float


def eigen_spectrum(A, cluster_tol=None):
    """Full dense eigenvalue set with multiplicity clustering.

    Eigenvalues within cluster_tol (default 1e-7 * ||A||_inf) of each other
    are merged transitively and their multiplicities summed; each cluster is
    reported at its mean. Raises DimensionTooLarge beyond 2000 states
    (use dominant_eigen for the leading eigenvalue of big sparse matrices).
    """
    n = A.shape[0]
    if n > DENSE_CAP:
        raise DimensionTooLarge(
            f"dense eigensolve capped at {DENSE_CAP} states (got {n}); "
            "use dominant_eigen instead"
        )
    A = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=float)
    norm = np.max(np.abs(A, out=_dense_buffer(A.shape)).sum(axis=1)) if n else 0.0
    if cluster_tol is None:
        cluster_tol = 1e-7 * max(norm, 1.0)
    work = _dense_buffer(A.shape, order="F")  # LAPACK's eigenvalue sweep works in place
    work[...] = A
    vals = eigvals(work, overwrite_a=True)
    vals = vals if vals.imag.any() else vals.real  # as np.linalg.eigvals returns them
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]

    # Equal values share a cluster; pairs of distinct values within tol are
    # taken from a window over the sorted real parts (|Re a - Re b| <= tol),
    # and the components of their graph are the transitive clusters.
    distinct, inverse = np.unique(vals, return_inverse=True)
    m = distinct.size
    ends = np.searchsorted(distinct.real, distinct.real + cluster_tol, side="right")
    counts = ends - np.arange(1, m + 1)
    i = np.repeat(np.arange(m), counts)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    near = np.abs(distinct[i] - distinct[j]) <= cluster_tol
    pairs = sp.coo_array((np.ones(near.sum()), (i[near], j[near])), shape=(m, m))
    labels = connected_components(pairs, directed=False)[1][inverse]

    groups = {}
    for label, value in zip(labels, vals):
        groups.setdefault(label, []).append(value)
    clustered = []
    for members in groups.values():
        mean = complex(np.mean(members))
        if abs(mean.imag) <= cluster_tol:
            mean = complex(mean.real, 0.0)
        clustered.append((mean, len(members)))
    clustered.sort(key=lambda p: (-p[0].real, p[0].imag))
    dominant = clustered[0][0].real if clustered else float("-inf")
    return EigenReport(eigenvalues=tuple(clustered), dominant_real=dominant, tolerance=cluster_tol)


def dominant_eigen(Q, tol=1e-10, max_iter=200000):
    """Eigenvalue of Q with the greatest real part, via the Perron root.

    Writes Q = Lambda (B - I) with B = I + Q/Lambda nonnegative; the greatest
    real part of the spectrum then equals Lambda (rho(B) - 1) with rho(B) the
    Perron root, which is real. rho(B) is the maximum over the strongly
    connected components of B's support graph: singleton components
    contribute their diagonal entry exactly, and each nontrivial component is
    irreducible with positive diagonal (hence primitive), so power iteration
    converges geometrically with the Collatz-Wielandt bracket certifying
    min/max ratios around the root.

    Raises SlowConvergence with the current estimate once max_iter is hit.
    """
    lam = _uniformization_rate(Q)
    if lam <= 0.0:
        return 0.0
    B = sp.csr_array(_uniformized(Q, lam))
    B.eliminate_zeros()

    # Singletons in one vectorized max, the other components block by block.
    singleton, states, sizes = _strong_blocks(B)
    rho = float(B.diagonal()[singleton].max(initial=0.0))
    B = B[states][:, states]
    for size, end in zip(sizes, np.cumsum(sizes)):
        block = slice(end - size, end)
        rho = max(rho, _perron_root(B[block, block].T, tol, max_iter))
    return lam * (rho - 1.0)


def _strong_blocks(A):
    """Strongly connected components of A's support as diagonal blocks.

    Returns the mask of states that form a component alone, the other
    states stably sorted by component label (so each component is a
    contiguous block of A[states][:, states]), and those components' sizes
    in block order.
    """
    _, labels = connected_components(A, directed=True, connection="strong")
    sizes = np.bincount(labels)
    singleton = sizes[labels] == 1
    states = np.flatnonzero(~singleton)
    states = states[np.argsort(labels[states], kind="stable")]
    return singleton, states, sizes[sizes > 1]


def _perron_root(Bt, tol, max_iter):
    """Perron root of an irreducible nonnegative B with positive diagonal."""
    m = Bt.shape[0]
    w = np.full(m, 1.0 / m)
    est = 1.0
    spread = math.inf
    for _ in range(max_iter):
        wb = Bt @ w
        ratios = wb / w
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        est = 0.5 * (lo + hi)
        spread = hi - lo
        if spread <= tol * max(est, 1e-300):
            return est
        w = wb / np.max(wb)
    raise SlowConvergence(est, spread, max_iter)

"""Numerical kernels: linear solves, matrix-exponential action, eigenvalues.

All routines act on plain numpy arrays or scipy sparse matrices. Matrices
with the sub-generator sign pattern (negative diagonal, nonnegative
off-diagonal, row sums <= 0) get special treatment: the exponential action
and the survival series are evaluated by uniformization with the one rate
c = max(-Q_ii), which preserves nonnegativity exactly, their Poisson and
binomial weights come from one window around the mode (_weights), and the
dominant eigenvalue is found through the Perron root of the nonnegative
matrix I + Q/Lambda, where Lambda = 1.05 c keeps the diagonal positive.
The uniformized matrix is dense for a small chain and sparse otherwise
(_dense_pays), and its row iterates are stepped as dense vectors, sparse
rows or single entries, whichever the iterate allows (_row_iterates).
Single entries are read off Q's rows, so a series that only steps them,
as on a countdown, never builds the matrix. Both eigenvalue routines
work on the strongly connected classes of the matrix's support
(_strong_blocks): the full spectrum is the union of the diagonal blocks'
spectra, exact on the diagonal for classes of one state, so DENSE_CAP
bounds the largest class rather than the matrix. A small linear system,
and any non-triangular one up to DENSE_CAP rows, is solved by a dense LU;
a larger sparse triangular one by substitution, in one LAPACK banded
solve when its band is narrow (_triangular_solver).
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvals, lu_factor, lu_solve
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve_triangular

from .errors import (
    DimensionTooLarge,
    NonConvergent,
    SingularMatrix,
    SlowConvergence,
)

# Largest transient state count densified (dense Q, its inverse), and the
# largest strongly connected class whose spectrum is computed densely. The
# spectrum's dense work grows with the sum of the class sizes cubed, which
# this cap does not bound: 50 classes of 1,900 states are 50 dense solves.
DENSE_CAP = 2000

# Largest Poisson or binomial mean a survival series accepts: the sum takes
# about that many terms, each a sparse vector-matrix product.
TERM_BUDGET = 1e7


def _dense_pays(A):
    """Whether the square A, dense or sparse, is cheaper to work with densely.

    True when A has at most DENSE_CAP rows and n^2 <= 4 nnz(A) + 2^14. A
    product B^T v costs about 0.2 ns per entry dense and 1.2 ns per stored
    entry sparse, plus 3 to 4 us of fixed scipy dispatch that a dense
    product spends on 2^14 entries. Measured on a 2-vCPU x86-64 host
    (numpy 2.4, scipy 1.17, OpenBLAS 0.3.31), dense against sparse, in us:
    full random chains 2.3/11 at n = 64, 9.3/49 at 200 and 743/4,987 at
    2,000; bidiagonal ones 2.6/6.1 at n = 96, 4.5/5.9 at 128, 7.0/5.9 at
    176 and 6.9/4.1 at 192; 300 to 2,000 states with 20 to 400 entries a
    row tie near n^2 = 4 to 5 nnz. The dense LU of solve_linear follows
    the same rule, where the two routes now tie on small systems: the
    banded substitution of _triangular_solver spends about 50 us of fixed
    work (scipy's sparse triangular solve about 170 us), and a whole
    solve_linear of the 3-state tstage(3) system takes about 95 us by
    substitution and 110 us by the dense LU.
    """
    n = A.shape[0]
    nnz = A.nnz if sp.issparse(A) else np.count_nonzero(A)
    return n <= DENSE_CAP and n * n <= 4 * nnz + 2**14


def solve_linear(A, b):
    """Solve A x = b for a square A, dense or scipy sparse.

    A sparse A that _dense_pays rejects and that is triangular (every
    stored column on one side of its row, an O(nnz) test of the index
    arrays) is solved by substitution, in O(nnz) as well (see
    _triangular_solver); any other A is densified and LU-factorized with
    partial pivoting. Raises DimensionTooLarge, before densifying, for a
    sparse A of more than DENSE_CAP rows that is not triangular, and
    SingularMatrix when a pivot (a diagonal entry, for substitution) falls
    below 1e-14 * ||A||_inf. Up to two refinement passes run while the
    residual exceeds 1e-10 * (1 + ||b||_inf), which they need not reach.
    """
    A = sp.csr_array(A, dtype=float) if sp.issparse(A) else np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    norm = float(np.max(np.asarray(abs(A).sum(axis=1)), initial=0.0))
    floor = 1e-14 * norm
    sparse = sp.issparse(A) and not _dense_pays(A)
    solve = _triangular_solver(A, floor) if sparse else None
    if solve is None:
        if sp.issparse(A) and A.shape[0] > DENSE_CAP:
            raise DimensionTooLarge(
                f"refusing to densify a {A.shape[0]}-row sparse system that is not "
                f"triangular (cap {DENSE_CAP})"
            )
        A = A.toarray() if sp.issparse(A) else A
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lu, piv = lu_factor(A)
        pivots = np.abs(np.diag(lu))
        if norm == 0.0 or np.min(pivots) < floor:
            raise SingularMatrix(f"pivot {np.min(pivots):.3e} below threshold {floor:.3e}")

        def solve(rhs):
            return lu_solve((lu, piv), rhs)

    x = solve(b)
    tol = 1e-10 * (1.0 + np.max(np.abs(b)))
    for _ in range(2):
        r = b - A @ x
        if np.max(np.abs(r)) <= tol:
            break
        x = x + solve(r)
    return x


def _triangular_solver(A, floor=0.0, diag=None):
    """solve(rhs) giving x with A x = rhs by substitution, or None when A is not triangular.

    A is a CSR matrix, left unchanged; it is triangular when every stored
    column lies on one side of its row, read off the index arrays in
    O(nnz). diag, when given, is A's diagonal, which saves a pass over A.
    The set-up scales A by its diagonal, row by row, once, so that its
    diagonal is one, and every call of solve reuses it. When the band of a
    triangular A fits, that is when the (k+1) x n band array of its k
    off-diagonals holds no more numbers than the 2 nnz of A's data and
    index arrays, the scaled entries are scattered into that array in
    Fortran order and each solve is one LAPACK banded solve (dtbtrs) with
    no scipy sparse work: on the 10^6-state bidiagonal -Q of
    fig3a(1000, 2) the set-up takes about 40-55 ms and each solve about
    7-10 ms. A wider triangle is kept sparse for spsolve_triangular.
    Raises SingularMatrix when a diagonal entry is zero or below floor in
    absolute value.
    """
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    offsets = A.indices - rows  # column minus row
    below, above = -int(offsets.min(initial=0)), int(offsets.max(initial=0))
    lower = above == 0
    if not (lower or below == 0):
        return None
    if diag is None:
        diag = A.diagonal()
    pivot = float(np.min(np.abs(diag), initial=math.inf))
    if pivot == 0.0 or pivot < floor:
        raise SingularMatrix(
            f"diagonal entry {pivot:.3e} of a triangular matrix is zero or below {floor:.3e}"
        )
    data = A.data / diag[rows]
    k = below + above
    if (k + 1) * n > 2 * A.nnz:
        unit = sp.csr_array((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)

        def solve(rhs):
            b = rhs / diag
            return spsolve_triangular(
                unit, b, lower=lower, unit_diagonal=True, overwrite_A=True, overwrite_b=True
            )

        return solve

    # LAPACK's band layout puts entry (i, j) at row i - j of column j below
    # the diagonal and at row k + i - j above it; in Fortran order that is
    # position (k + 1) j + i - j = k (j - i) + (k + 1) i, plus k above,
    # computed in place. dtbtrs never reads the diagonal's row of a unit
    # triangle, so that row keeps A's diagonal and the band is all solve holds.
    offsets *= k
    rows *= k + 1
    offsets += rows
    if not lower:
        offsets += k
    band = np.zeros((k + 1) * n)
    band[offsets] = data
    band = band.reshape((k + 1, n), order="F")
    scale = band[0 if lower else k]
    scale[:] = diag
    uplo = b"L" if lower else b"U"

    def solve(rhs):
        b = rhs / scale
        x, info = dtbtrs(band, b.reshape(n, -1), uplo=uplo, diag=b"U", overwrite_b=True)
        if info:
            raise ValueError(f"dtbtrs rejected argument {-info}")
        return x.reshape(b.shape)

    return solve


def _uniformized(Q, c):
    """B = I + Q/c: a dense array when _dense_pays(Q), CSR otherwise.

    Both forms hold the same values, q (1/c) off the diagonal and
    q (1/c) + 1 on it, and the CSR form stores no explicit zeros;
    _lone_entry reads single rows of it off Q with the same arithmetic.
    """
    if _dense_pays(Q):
        B = Q.toarray() if sp.issparse(Q) else np.array(Q, dtype=float)
        B *= 1.0 / c
        B.flat[:: B.shape[0] + 1] += 1.0
        return B
    B = sp.csr_array(Q, dtype=float, copy=True)
    B.data *= 1.0 / c
    with warnings.catch_warnings():
        # Only a diagonal entry Q does not store is inserted.
        warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
        B.setdiag(B.diagonal() + 1.0)
    B.eliminate_zeros()
    return B


class _Entry(NamedTuple):
    """A row vector with one nonzero, val at column col (val is 0 for the zero vector)."""

    col: int
    val: float

    def sum(self):
        return self.val


class _SparseRow(NamedTuple):
    """A row vector by its distinct nonzero columns and their values."""

    cols: np.ndarray
    vals: np.ndarray

    def sum(self):
        return self.vals.sum()

    def step(self, B):
        """The row u B for a CSR matrix B, gathered from the rows of B that u touches.

        Products are summed per column in the order of u's columns, as in a
        sparse product, but without its work array of B's width: on a thin
        row of a 10^6-state B that array costs about 1.5 ms per step.
        """
        starts = B.indptr[self.cols]
        counts = B.indptr[self.cols + 1] - starts
        pos = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        cols, inverse = np.unique(B.indices[pos], return_inverse=True)
        sums = np.bincount(inverse, weights=np.repeat(self.vals, counts) * B.data[pos])
        keep = sums != 0.0
        return _SparseRow(cols[keep], sums[keep])


def _lone_entry(indptr, indices, data, inv, col):
    """(j, b): the one nonzero b, at column j, of row col of B = I + Q/c, or None.

    The row is read off the CSR arrays of Q with the arithmetic of
    _uniformized, q * inv (inv = 1/c) for each stored q plus 1.0 on the
    diagonal, stored or not, with zeros dropped. An empty row gives
    (col, 0.0): its iterate is the zero vector. None when the row holds two
    or more nonzeros.
    """
    nonzeros, diagonal, j, b = 0, False, col, 0.0
    for k in range(indptr[col], indptr[col + 1]):
        q = data[k] * inv
        if indices[k] == col:
            q += 1.0
            diagonal = True
        if q != 0.0:
            nonzeros, j, b = nonzeros + 1, indices[k], q
    if not diagonal:
        nonzeros, j, b = nonzeros + 1, col, 1.0
    return (j, b) if nonzeros <= 1 else None


def _row_iterates(Q, c, v):
    """Yield the row iterates v, vB, vB^2, ... of B = I + Q/c without end.

    B is built by _uniformized the first time a step needs it. When B
    would be sparse (_dense_pays(Q) false), a v with at most 1/8 of its
    entries nonzero is stepped as a _SparseRow. While that row has one
    nonzero and B's row at its column at most one (_lone_entry), the next
    iterate is one product, read as Python scalars off Q's index arrays and
    yielded as an _Entry, with no B at all: under 1 us a step against
    50 us for a _SparseRow step, with the same value to the bit. A
    countdown such as fig3a's or tstage's, started from one state, is
    stepped that way to the end. At the first wider row B is built; if it
    stores more than 20,000 entries the row is stepped as a _SparseRow
    until more than 1/4 of it is filled (the countdown chains touch a thin
    band of states), and densely from there, or at once otherwise: a dense
    step costs about nnz(B), a sparse-row step about 50 us on any B, and
    the two tie near 20,000 entries. Dense iterates are B^T u with B^T
    taken once: u @ B on scipy sparse B transposes every product.
    """
    n = v.shape[0]
    B = None
    if not _dense_pays(Q) and np.count_nonzero(v) <= n // 8:
        Q = sp.csr_array(Q)
        # Memoryviews index to Python ints and floats, faster than numpy scalars.
        indptr, indices, data = (memoryview(a) for a in (Q.indptr, Q.indices, Q.data))
        inv = 1.0 / c
        cols = np.flatnonzero(v)
        u = _SparseRow(cols, v[cols])
        while u.cols.size <= n // 4:
            if u.cols.size == 1:
                col, val = int(u.cols[0]), float(u.vals[0])
                while True:
                    k = indptr[col]
                    # A countdown row, checked inline: Q stores an entry
                    # left of the diagonal, and the diagonal cancels in B.
                    if (
                        indptr[col + 1] - k == 2
                        and indices[k + 1] == col
                        and data[k + 1] * inv == -1.0
                    ):
                        j, b = indices[k], data[k] * inv
                    elif (lone := _lone_entry(indptr, indices, data, inv, col)) is not None:
                        j, b = lone
                    else:
                        break
                    # tuple.__new__ skips the Python frame of the NamedTuple
                    # constructor, which cost about as much as the step.
                    yield tuple.__new__(_Entry, (col, val))
                    col, val = j, val * b
                u = _SparseRow(np.array([col]), np.array([val]))
            if B is None:
                B = _uniformized(Q, c)
                if B.nnz <= 20_000:
                    break
            yield u
            u = u.step(B)
        v = np.zeros(n)
        v[u.cols] = u.vals
    Bt = (_uniformized(Q, c) if B is None else B).T
    while True:
        yield v
        v = Bt @ v


def _weights(*, rate=None, t=None, k=None, p=None):
    """Poisson(rate t) or Binomial(k, p) weights as (j0, w), w[i] the weight of j0 + i.

    From the mode, whose weight is set to 1, the weights are built outward
    by cumprod of their exact ratios (for Poisson(mu): mu/(j+1) up, j/mu
    down) and divided by their sum. Away from the mode the ratios r fall,
    so the mass beyond a weight w is at most w r / (1 - r) (Fox & Glynn,
    CACM 31, 1988). Above the mode the window stops where that bound is
    within 1e-15 of the total; below it, where it is within the smallest
    normal float, as the terms s_j these weights sum grow towards j = 0 (a
    survival of 1e-300 at c t = 690 lies wholly below the mode). The window
    starts 38 standard deviations below the mode and 12 above it and
    doubles until both cuts fall inside: products of subnormal floats, far
    past a cut, are slow. Raises NonConvergent when t exceeds
    TERM_BUDGET / rate: the sum takes about rate t terms.
    """
    if k is None:
        mu = rate * t
        if t > TERM_BUDGET / rate:
            raise NonConvergent(
                f"Poisson mean Lambda t = {mu:.3g} (t = {t:.6g}, Lambda = {rate:.6g}) "
                f"exceeds the series term budget {TERM_BUDGET:.0e}"
            )
        if mu == 0.0:
            return 0, np.ones(1)
        mode, end, sd = math.floor(mu), math.inf, math.sqrt(mu)

        def up(j):
            return mu / (j + 1)

        def down(j):
            return j / mu
    else:
        if p == 0.0 or p == 1.0:
            return (k if p == 1.0 else 0), np.ones(1)
        odds = p / (1.0 - p)
        mode, end, sd = min(k, math.floor((k + 1) * p)), k, math.sqrt(k * p * (1.0 - p))

        def up(j):
            return (k - j) / (j + 1) * odds

        def down(j):
            return j / ((k - j + 1) * odds)

    below, above = 32 + math.ceil(38.0 * sd), 32 + math.ceil(12.0 * sd)
    while True:
        sides = []
        for j, ratio in (
            # Float indices: exact below 2^53, and no int64 overflow for a huge k.
            (np.arange(mode, max(mode - below, 0) - 1, -1, dtype=float), down),
            (np.arange(mode, min(mode + above, end) + 1, dtype=float), up),
        ):
            r = ratio(j)  # r[i] leads from the weight of j[i] to the next one out
            sides.append((np.cumprod(np.concatenate(([1.0], r[:-1]))), r))
        total = sides[0][0].sum() + sides[1][0].sum() - 1.0
        # The support's ends stop a side too: there r = 0.
        tols = (np.finfo(float).tiny, 1e-15)
        cuts = [w * r <= side_tol * total * (1.0 - r) for (w, r), side_tol in zip(sides, tols)]
        if cuts[0].any() and cuts[1].any():
            break
        below, above = 2 * below, 2 * above
    lo, hi = (int(np.argmax(cut)) for cut in cuts)
    w = np.concatenate((sides[0][0][lo:0:-1], sides[1][0][: hi + 1]))
    return mode - lo, w / w.sum()


def expm_action(Q, v, t):
    """Evaluate the row-vector action v * exp(Q t) by uniformization.

    With c = max(-Q_ii), exp(Qt) = sum_n Pois(n; c t) (I + Q/c)^n. Every
    term is nonnegative, so the result is nonnegative entrywise. The sum
    runs over the window of _weights, skipping the iterates below it; the
    mass left out above it is at most 1e-15, so the truncation error is at
    most 1e-15 ||v||_1.

    Raises NonConvergent if c t exceeds TERM_BUDGET, and ValueError for a
    negative or non-finite t (the window never closes at inf or nan).
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    v = np.asarray(v, dtype=float)
    c = float(np.max(-Q.diagonal()))
    if t == 0.0 or c <= 0.0 or not v.any():
        # exp(Q 0) = I, exp(Qt) = I for the zero generator, and 0 exp(Qt) = 0.
        return v.copy()

    j0, weights = _weights(rate=c, t=t)
    acc = np.zeros(v.shape[0])
    iterates = itertools.islice(_row_iterates(Q, c, v), j0, None)
    for w, u in zip(weights, iterates):
        if isinstance(u, _Entry):
            acc[u.col] += w * u.val
        elif isinstance(u, _SparseRow):
            acc[u.cols] += w * u.vals
        else:
            acc += w * u
    np.maximum(acc, 0.0, out=acc)
    return acc


class _SurvivalSeries:
    """The scalars s_j = v B^j 1 with B = I + Q/c and c = max(-Q_ii), extended on demand.

    v is nonnegative (a distribution, or the mass it has left at some
    time). B is built at most once, when a step needs it, and its row
    iterates are stepped only as far as a requested sum needs, one iterate
    alive at a time (see _row_iterates for how each is stepped); only the
    sums s_j are kept. continuous(t) = v exp(Qt) 1 and discrete(k, N) =
    v (I + Q/N)^k 1, which needs N >= c so that its binomial weights are
    probabilities (PhaseType's ScaleTooSmall guards every caller); both
    weight the s_j over the window of _weights. The number of terms a value
    needs is about c t or k c / N, however many values are read. B and the
    iterates are nonnegative, so an s_j of exactly 0 is a zero iterate, and
    every later sum is 0 as well: from there the sums are padded with
    zeros, not stepped (a survival that underflows early on a long grid
    costs no more terms).
    """

    def __init__(self, Q, v):
        self.c = float(np.max(-Q.diagonal()))
        v = np.asarray(v, dtype=float)
        self._sums = array("d", [v.sum()])
        self._iterates = _row_iterates(Q, self.c, v)
        next(self._iterates)  # v itself, already summed

    def _weighted(self, j0, weights):
        """sum_i weights[i] s_{j0+i}, stepping the iterates as far as needed."""
        sums, stop = self._sums, j0 + weights.size
        while len(sums) < stop:
            if sums[-1] == 0.0:
                sums.frombytes(bytes(8 * (stop - len(sums))))  # 0.0 is all zero bytes
                break
            sums.append(float(next(self._iterates).sum()))
        # The view is released on return; a live one would block append.
        return float(weights @ np.frombuffer(sums, count=stop)[j0:])

    def time_limit(self):
        """Largest t that continuous accepts: c t within TERM_BUDGET."""
        return TERM_BUDGET / self.c

    def step_limit(self, N):
        """Largest k that discrete accepts at N: k c/N within TERM_BUDGET."""
        return math.floor(TERM_BUDGET / (self.c / N))

    def continuous(self, t):
        """v exp(Qt) 1, the Poisson(ct)-weighted sum of the s_j."""
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"t must be finite and nonnegative, got {t}")
        return self._weighted(*_weights(rate=self.c, t=t))

    def discrete(self, k, N):
        """v (I + Q/N)^k 1, the Binomial(k, c/N)-weighted sum of the s_j."""
        p = self.c / N
        if k > self.step_limit(N):
            raise NonConvergent(
                f"binomial mean k c/N = {k * p:.3g} (k = {k}, N = {N}, c = {self.c:.6g}) "
                f"exceeds the series term budget {TERM_BUDGET:.0e}"
            )
        return self._weighted(*_weights(k=k, p=p))


def eigen_spectrum(A):
    """All eigenvalues of a square A (dense or sparse), by decreasing real part.

    A is block-triangular over the strongly connected classes of its
    support, so its spectrum is the union of the diagonal blocks' spectra.
    A class of one state contributes its diagonal entry exactly; the block
    of each other class goes to LAPACK. The array is real when no
    eigenvalue has an imaginary part (as np.linalg.eigvals returns it), and
    equal real parts keep their block order. Raises DimensionTooLarge when
    one class has more than DENSE_CAP states (use dominant_eigen for the
    leading eigenvalue then). The dense work grows with the sum of the
    classes' sizes cubed, which the cap does not bound.
    """
    A = sp.csr_array(A, dtype=float, copy=True)
    A.eliminate_zeros()
    blocks = _strong_blocks(A)
    if blocks.sizes.size and blocks.sizes.max() > DENSE_CAP:
        raise DimensionTooLarge(
            f"dense eigensolve capped at {DENSE_CAP} states per strongly connected "
            f"class (got {blocks.sizes.max()}); use dominant_eigen instead"
        )
    vals = np.concatenate([
        A.diagonal()[blocks.singleton],
        *(eigvals(blocks.inner[a:b, a:b].toarray(), overwrite_a=True) for a, b in blocks.spans()),
    ])
    vals = vals if vals.imag.any() else vals.real
    return vals[np.argsort(-vals.real, kind="stable")]


def dominant_eigen(Q, max_iter=200000):
    """Eigenvalue of Q with the greatest real part, via the Perron root.

    Writes Q = Lambda (B - I) with B = I + Q/Lambda nonnegative; the
    greatest real part of the spectrum then equals Lambda (rho(B) - 1) with
    rho(B) the Perron root, which is real. Lambda = 1.05 max(-Q_ii), not the
    series' c = max(-Q_ii): the slack keeps B's diagonal positive, so each
    nontrivial strongly connected component of B's support is primitive.
    rho(B) is the maximum over the components: singletons contribute their
    diagonal entry exactly, and one power iteration runs on the others at
    once, on the block-diagonal restriction of B to them, each block scaled
    by its own maximum. A block's Collatz-Wielandt min and max ratios
    bracket its root, so their largest values (with the singletons') bracket
    rho(B); the iteration stops once that bracket is within 1e-10 relative,
    so -nu is bracketed to within 0.525e-10 max(-Q_ii).

    Raises SlowConvergence with the current estimate once max_iter is hit,
    and NonConvergent when entries of the iterated vector underflow to 0
    (their ratios are then 0/0 or x/0, and bracket nothing).
    """
    lam = 1.05 * float(np.max(-Q.diagonal()))
    if lam <= 0.0:
        return 0.0
    B = sp.csr_array(_uniformized(Q, lam))

    blocks = _strong_blocks(B)
    rho = float(B.diagonal()[blocks.singleton].max(initial=0.0))
    if not blocks.sizes.size:
        return lam * (rho - 1.0)
    starts = np.cumsum(blocks.sizes) - blocks.sizes
    block = np.repeat(np.arange(blocks.sizes.size), blocks.sizes)
    Bt = sp.csr_array(blocks.inner.T)
    w = np.ones(blocks.states.size)
    est, spread = 1.0, math.inf
    for iteration in range(max_iter):
        wb = Bt @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = wb / w
        lo = float(np.minimum.reduceat(ratios, starts).max())
        hi = float(np.maximum.reduceat(ratios, starts).max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            # B's diagonal is positive, so an entry of w is 0 only by underflow.
            raise NonConvergent(
                f"power iteration vector underflowed to zero after {iteration} iterations "
                "(the Perron vector spans more than the float range)"
            )
        lo, hi = max(rho, lo), max(rho, hi)
        est, spread = 0.5 * (lo + hi), hi - lo
        if spread <= 1e-10 * max(est, 1e-300):
            return lam * (est - 1.0)
        w = wb / np.maximum.reduceat(wb, starts)[block]
    raise SlowConvergence(est, spread, max_iter)


class _Blocks(NamedTuple):
    """The strongly connected classes of a matrix's support (see _strong_blocks)."""

    singleton: np.ndarray  # mask of the states that form a class alone
    states: np.ndarray  # the other states, grouped by class
    sizes: np.ndarray  # the sizes of their classes, in block order
    inner: sp.csr_array  # A[states][:, states] without the entries between classes

    def spans(self):
        """(start, stop) of each class's block in inner."""
        stops = np.cumsum(self.sizes)
        return zip((stops - self.sizes).tolist(), stops.tolist())


def _strong_blocks(A):
    """Strongly connected classes of a sparse A's support, as diagonal blocks.

    The states that form a class alone are masked out; the others are
    stably sorted by class label, so each class is a contiguous block of
    A[states][:, states], and inner keeps only the entries within a block.
    """
    _, labels = connected_components(A, directed=True, connection="strong")
    sizes = np.bincount(labels)
    singleton = sizes[labels] == 1
    states = np.flatnonzero(~singleton)
    states = states[np.argsort(labels[states], kind="stable")]
    sizes = sizes[sizes > 1]
    block = np.repeat(np.arange(sizes.size), sizes)
    inner = sp.coo_array(sp.csr_array(A)[states][:, states])
    same = block[inner.row] == block[inner.col]  # drops the entries between classes
    inner = sp.csr_array((inner.data[same], (inner.row[same], inner.col[same])), shape=inner.shape)
    return _Blocks(singleton, states, sizes, inner)

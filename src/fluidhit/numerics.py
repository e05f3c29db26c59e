"""Numerical kernels: linear solves, matrix-exponential action, eigenvalues.

All routines act on plain numpy arrays or scipy sparse matrices. Matrices
with the sub-generator sign pattern (negative diagonal, nonnegative
off-diagonal, row sums <= 0) get special treatment: the exponential action
and the survival series are evaluated by uniformization with the one rate
c = max(-Q_ii), which preserves nonnegativity exactly, with Poisson and
binomial weights from one window around the mode. Every read goes through
one kernel: _weights builds windows as the rows of one array (a lone time
and a binomial law are one row), and _SurvivalSeries._weighted weights a
call's rows against one gather of the sums. A grid of times reads one
series, its windows built in batches of at most WINDOW_ENTRIES entries
(_batches). The
uniformized matrix is dense for a small chain and sparse otherwise
(_dense_pays); its row iterates are stepped as dense vectors, sparse rows or
single entries read off Q's rows (_row_iterates), so a countdown's series
never builds it. A survival series (_SurvivalSeries) stops stepping once
two consecutive dense iterates u and u B share a support and the ratios
(u B)_i / u_i lie in [r_lo, r_hi] with r_hi - r_lo <= TAIL_SPREAD r_hi,
their rounding floor reached: by Collatz-Wielandt every later sum s_{J+m}
then lies in [s_J r_lo^m, s_J r_hi^m], and the windows read it at the
midpoint ratio. Chains whose ratios never settle (k > 0, a periodic B) and
the countdowns' single-entry and sparse-row steps are stepped as before,
to the bit. Only this module works class by class: the dominant
eigenvalue, the spectrum and the resolvent maximum are read off the
strongly connected classes of Q's support (_strong_blocks, stored zeros
ignored), a class of one state exactly from its diagonal entry.
_Blocks.dense_blocks densifies the others and refuses one past DENSE_CAP
before it densifies any; I + Q/Lambda, whose Perron root gives the
dominant eigenvalue, is formed on them only. One routine, _factor, chooses
every factorization: substitution for a large sparse triangle
(_triangular_solver), SuperLU for a sparse non-triangular system past
DENSE_CAP rows, a dense LU for any other.
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvals, lu_factor, lu_solve
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu, spsolve_triangular

from .errors import (
    DimensionTooLarge,
    NonConvergent,
    SingularMatrix,
    SlowConvergence,
)

# Largest linear system densified, and the largest strongly connected class
# densified (its spectrum, its block of the inverse). The dense work over
# many classes is not bounded: 50 classes of 1,900 states are 50 solves.
DENSE_CAP = 2000

# Largest Poisson or binomial mean a survival series accepts: the sum takes
# about that many terms, each a sparse vector-matrix product.
TERM_BUDGET = 1e7
# Largest number of entries, rows times width, of the Poisson windows one
# _weights call builds together for a grid of times (_batches).
WINDOW_ENTRIES = 2**16
# Largest relative spread r_hi - r_lo of the ratios (u B)_i / u_i at which a
# survival series trades its stepped iterates for a geometric tail.
TAIL_SPREAD = 1e-13
# Power iterations dominant_eigen runs before it raises SlowConvergence.
MAX_POWER_ITERATIONS = 200_000


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

    A is factored by _factor, with the pivot floor 1e-14 * ||A||_inf; a
    sparse A past DENSE_CAP rows is never densified. Raises SingularMatrix
    for a pivot below that floor. Up to two refinement passes run while
    the residual, taken with A as factored, exceeds 1e-10 * (1 + ||b||_inf),
    which they need not reach.
    """
    A = sp.csr_array(A, dtype=float) if sp.issparse(A) else np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    norm = float(np.max(np.asarray(abs(A).sum(axis=1)), initial=0.0))
    solve, A = _factor(A, 1e-14 * norm)
    x = solve(b)
    tol = 1e-10 * (1.0 + np.max(np.abs(b)))
    for _ in range(2):
        r = b - A @ x
        if np.max(np.abs(r)) <= tol:
            break
        x = x + solve(r)
    return x


def _factor(A, floor, diag=None):
    """(solve, A'): solve(rhs) gives a new x with A x = rhs; A' is A as factored.

    The one place a factorization is chosen. A CSR A that _dense_pays
    rejects goes to _triangular_solver when it is triangular (diag, if
    given, is A's diagonal), else to SuperLU past DENSE_CAP rows; A' is A.
    Any other A is densified for an LU with partial pivoting, and A' is the
    dense array. Raises SingularMatrix when a pivot (the diagonal of a
    triangle, |U_ii| otherwise) is zero or below floor, or when SuperLU
    finds A exactly singular.
    """
    if sp.issparse(A) and not _dense_pays(A):
        solve = _triangular_solver(A, floor, diag)
        if solve is not None:
            return solve, A
        if A.shape[0] > DENSE_CAP:
            try:
                lu = splu(sp.csc_matrix(A))
            except RuntimeError as exc:  # "Factor is exactly singular"
                raise SingularMatrix(f"sparse LU: {exc}") from exc
            _check_pivot(np.abs(lu.U.diagonal()), floor)
            return lu.solve, A
    A = A.toarray() if sp.issparse(A) else A
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(A)
    _check_pivot(np.abs(np.diag(lu)), floor)
    return partial(lu_solve, (lu, piv)), A


def _check_pivot(pivots, floor, what="pivot"):
    """Raise SingularMatrix when the smallest of the pivots is zero or below floor."""
    pivot = float(np.min(pivots, initial=math.inf))
    if pivot == 0.0 or pivot < floor:
        raise SingularMatrix(f"smallest {what} {pivot:.3e} is zero or below {floor:.3e}")


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
    absolute value (_check_pivot).
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
    _check_pivot(np.abs(diag), floor, "diagonal entry of a triangle")
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


def _start_spans(sd):
    """(below, above): how far _weights' first window reaches either side of the mode.

    sd is the law's standard deviation, a float (ints come back) or an array.
    """
    ceil = np.ceil if isinstance(sd, np.ndarray) else math.ceil
    return 32 + ceil(38.0 * sd), 32 + ceil(12.0 * sd)


def _weights(*, rate=None, t=None, k=None, p=None):
    """Poisson(rate t_i) or Binomial(k, p) windows as the rows of (j0, w, ends).

    t is a nondecreasing 1-D float array, one row per time (a lone time is
    an array of one); a binomial law is one row. w[i, m] is the weight of
    j0[i] + m, ends[i] - j0[i] is the length of row i's window, and w[i] is
    zero past it (_batches says how many rows one call should take). From
    the mode, whose weight is set to 1, the weights are built outward by
    cumprod of their exact ratios (for Poisson(mu): mu/(j+1) up, j/mu down)
    and divided by their sum. Away from the mode the ratios r fall, so the
    mass beyond a weight w is at most w r / (1 - r) (Fox & Glynn, CACM 31,
    1988). Above the mode a window stops where that bound is within 1e-15
    of the total; below it, where it is within the smallest normal float,
    as the terms s_j these weights sum grow towards j = 0 (a survival of
    1e-300 at c t = 690 lies wholly below the mode). Every row is built
    over the sides of the widest, the last: they start 38 of its standard
    deviations below its mode and 12 above it and double until every row's
    two cuts fall inside, as products of subnormal floats, far past a cut,
    are slow. A row is summed over the width of its call's widest window,
    so a row built among wider ones may differ in the last bits from the
    same window built alone. Raises NonConvergent when a time exceeds
    TERM_BUDGET / rate: the sum takes about rate t terms.
    """
    if k is None:
        if t[-1] > TERM_BUDGET / rate:
            first = float(t[np.argmax(t > TERM_BUDGET / rate)])
            raise NonConvergent(
                f"Poisson mean Lambda t = {rate * first:.3g} (t = {first:.6g}, Lambda = {rate:.6g}) "
                f"exceeds the series term budget {TERM_BUDGET:.0e}"
            )
        mu = rate * t
        # Means of 0 lead the nondecreasing means. Such a row is the one
        # weight 1 at j = 0, built at the largest mean and replaced.
        dead = 0 if mu[0] > 0.0 else int(np.searchsorted(mu, 0.0, side="right"))
        if dead == mu.size:
            return np.zeros(dead, np.int64), np.ones((dead, 1)), np.ones(dead, np.int64)
        top = float(mu[-1])
        if dead:
            mu[:dead] = top
        mu = mu[:, None]
        mode, top_mode, end, top_sd = np.floor(mu), math.floor(top), math.inf, math.sqrt(top)

        def down(j, out):  # from the weight of j to that of j - 1
            return np.divide(j, mu, out)

        def up(j1, out):  # from the weight of j1 - 1 to that of j1
            return np.divide(mu, j1, out)
    else:
        if p == 0.0 or p == 1.0:
            j0 = np.array([k if p == 1.0 else 0])
            return j0, np.ones((1, 1)), j0 + 1
        odds = p / (1.0 - p)
        dead, top_mode, end = 0, min(k, math.floor((k + 1) * p)), k
        mode, top_sd = np.full((1, 1), float(top_mode)), math.sqrt(k * p * (1.0 - p))

        def down(j, out):
            return np.divide(j, (k - j + 1) * odds, out)

        def up(j1, out):
            return np.multiply((k - (j1 - 1)) / j1, odds, out)

    rows = len(mode)
    below, above = _start_spans(top_sd)
    while True:
        nd, nu = min(below, top_mode) + 1, min(above, end - top_mode) + 1
        # Column c of a row is j = mode - nd + c, its mode at column nd, and
        # j1 holds j + 1 (floats: exact below 2^53, and no int64 overflow for
        # a huge k). r[:, c] leads to the weight at column c from the one
        # next to it towards the mode (r = 1 at the mode itself), and w is
        # the cumprod outward from the mode. The outermost weights, columns
        # 0 and nd + nu, are the next ones past the sides. A row of a smaller
        # mode steps below j = 0, where its r is 0 and then negative: its
        # weights there are zeros, outside its window. w has room past the
        # up side for the gather.
        j1 = mode + np.arange(1.0 - nd, nu + 1.0)
        r, w = np.ones((rows, nd + nu + 1)), np.zeros((rows, 2 * nd + nu))
        down(j1[:, :nd], r[:, :nd])
        up(j1[:, nd:], r[:, nd + 1 :])
        upper = w[:, nd : nd + nu + 1]
        # Positional arguments: keywords cost a microsecond a call here.
        np.multiply.accumulate(r[:, nd::-1], 1, None, w[:, nd::-1])
        np.multiply.accumulate(r[:, nd:], 1, None, upper)
        total = np.add.reduce(w[:, 1 : nd + nu], 1)[:, None]
        room = np.subtract(1.0, r, r)  # in place, as are the products
        room[:, :nd] *= 2.0**-1022 * total  # the smallest normal float
        room[:, nd + 1 :] *= 1e-15 * total
        cuts = w[:, : nd + nu + 1] <= room
        # Outward w r falls and 1 - r grows, so a side stays cut once cut
        # (the support's ends cut it too, as r = 0 there; the mode, where
        # room is 0, never is): every row holds both cuts when its
        # outermost columns are cut.
        if np.count_nonzero(cuts[:, :: nd + nu]) == 2 * rows:
            break
        below, above = 2 * below, 2 * above
    lo = cuts[:, nd - 1 :: -1].argmax(1)
    past = cuts[:, nd:]
    np.putmask(upper, past, 0.0)  # zeros past each row's upper cut
    size = lo + past.argmax(1)  # the upper cut, counted from the mode, is hi + 1
    width = max(size.tolist())  # a numpy reduction's set-up outweighs a list of rows
    # Row i's window starts at column nd - lo[i]. windows[i, l] is the stretch
    # of row i of the widest window's width from column nd - l (what
    # sliding_window_view gives, without its Python set-up), so the gather
    # copies whole rows: indexing single columns costs ten times as much on
    # a batch of 400 rows.
    step, col = w.strides
    windows = np.ndarray((rows, nd + 1, width), float, w, nd * col, (step, -col, col))
    w = windows[np.arange(rows), lo]
    j0 = (mode[:, 0] - lo).astype(np.int64)
    if dead:
        w[:dead] = 0.0
        w[:dead, 0] = 1.0
        j0[:dead], size[:dead] = 0, 1
    w /= np.add.reduce(w, 1)[:, None]
    return j0, w, j0 + size


def _batches(mu):
    """Slices of the nondecreasing Poisson means mu, one per _weights call.

    A row's width is that of the two sides _weights starts from. Rows no
    wider than WINDOW_ENTRIES / 32 share a call while the rows times the
    last (widest) row's width stay within WINDOW_ENTRIES; a wider row is
    built alone, as a lone mean is. A shared call saves each row the fixed
    cost of a call, about 30 us, but costs more per entry than a row built
    alone: on a 2-vCPU x86-64 host, four rows 500 wide took 0.06 ms shared
    against 0.14 ms alone, four 2,000 wide 0.12 against 0.19 ms, four
    8,000 wide 0.72 against 0.45 ms, and eight 8,000 wide 1.4 against
    0.85 ms.
    """
    # Where the rule takes every row at once, a lone mean or narrow means
    # that fit under the widest, the slice comes without arrays.
    if mu.size == 1:
        yield slice(0, 1)
        return
    if mu.size:
        below, above = _start_spans(math.sqrt(mu[-1]))
        widest = min(below, math.floor(mu[-1])) + above + 2
        if widest <= WINDOW_ENTRIES // 32 and mu.size * widest <= WINDOW_ENTRIES:
            yield slice(0, mu.size)
            return
    below, above = _start_spans(np.sqrt(mu))
    width = np.minimum(below, np.floor(mu)) + above + 2
    narrow = int(np.searchsorted(width, WINDOW_ENTRIES // 32, side="right"))
    start = 0
    while start < narrow:
        most = min(int(WINDOW_ENTRIES // width[start]), narrow - start)
        fits = np.arange(1, most + 1) * width[start : start + most] <= WINDOW_ENTRIES
        stop = start + max(int(np.count_nonzero(fits)), 1)
        yield slice(start, stop)
        start = stop
    for start in range(narrow, mu.size):
        yield slice(start, start + 1)


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
    if t == 0.0 or not v.any():
        # exp(Q 0) = I and 0 exp(Qt) = 0, without a pass over Q's diagonal.
        return v.copy()
    c = float(np.max(-Q.diagonal()))
    if c <= 0.0:
        return v.copy()  # exp(Qt) = I for the zero generator

    j0, weights, _ = _weights(rate=c, t=np.array([t]))  # one row, as wide as its window
    acc = np.zeros(v.shape[0])
    iterates = itertools.islice(_row_iterates(Q, c, v), int(j0[0]), None)
    for w, u in zip(weights[0], iterates):
        if isinstance(u, _Entry):
            acc[u.col] += w * u.val
        elif isinstance(u, _SparseRow):
            acc[u.cols] += w * u.vals
        else:
            acc += w * u
    np.maximum(acc, 0.0, out=acc)
    return acc


class _GeometricTail(NamedTuple):
    """The ratio bracket of a settled series: s_{J+m} in [s_J lo^m, s_J hi^m], s_J its last sum."""

    lo: float
    hi: float


class _SurvivalSeries:
    """The scalars s_j = v B^j 1 with B = I + Q/c and c = max(-Q_ii), extended on demand.

    sub is the SubGenerator whose Q is stepped; c is read off its cached
    exit rates. v is nonnegative (a distribution, or the mass it has left
    at some time). B is built at most once, when a step needs it, and its
    row iterates are stepped only as far as a requested sum needs, the
    last two alive at a time (see _row_iterates for how each is stepped);
    only the sums s_j are kept. continuous(t) = v exp(Qt) 1 and
    discrete(k, N) = v (I + Q/N)^k 1, which needs N >= c so that its
    binomial weights are probabilities (PhaseType's ScaleTooSmall guards
    every caller); both weight the s_j over rows of _weights through
    _weighted, a lone time and a binomial law being one row. The number of
    terms a value needs is at most about c t or k c / N, however many
    values are read. A grid of times is read in the batches of _batches:
    one _weights call each, the series stepped once to the end of the
    last window, and every row weighted against one gather of the sums,
    each value within a few ulps of the same time read alone (its window
    is summed over the batch's widest). B and the iterates are
    nonnegative, so an s_j of
    exactly 0 is a zero iterate, and every later sum is 0 as well: from
    there the sums are padded with zeros, not stepped (a survival that
    underflows early on a long grid costs no more terms).

    A dense iterate u_J = u_{J-1} B is compared with u_{J-1}. When the two
    share a support and the ratios (u_J)_i / (u_{J-1})_i lie in [lo, hi],
    B >= 0 gives lo^m u_J <= u_J B^m <= hi^m u_J entrywise (Collatz 1942,
    Wielandt 1950), so every later sum lies in [s_J lo^m, s_J hi^m]. Once
    the relative spread (hi - lo) / hi is within TAIL_SPREAD and no longer
    falls (its rounding floor, 1e-15 to 6e-15 on the 200- to 2,000-state
    chains measured), stepping stops: at TAIL_SPREAD itself the bracket
    would widen by 1e-13 a term over the 10^5 terms of a stiff crossing.
    The sums up to s_J are the stepped ones to the bit; a window reaching
    past J weights s_J r^(j-J) there, r the midpoint of [lo, hi] (or the
    ratio given to _weighted: lo and hi give the ends of the certified
    bracket). The certificate holds for the stepped iterates, which carry
    the rounding of every product as before. On a chain with rare exits
    it cuts the c t terms of a crossing to a few dozen: 17,412 to 15 on a
    2,000-state random chain. The checks thin out, one at step J due
    J/8 steps later, so a chain whose ratios never settle (a dominant
    eigenvalue of multiplicity k + 1 > 1, a periodic B) pays for about
    8 ln J of them and steps exactly as it would without them, as do the
    countdowns' _Entry and _SparseRow steps, which are never compared.
    """

    def __init__(self, sub, v):
        self.c = sub.max_exit_rate
        v = np.asarray(v, dtype=float)
        self._sums = array("d", [v.sum()])
        self._iterates = _row_iterates(sub.Q, self.c, v)
        self._last = None  # the last iterate; v itself, already summed, once stepping starts
        self._spread = math.inf  # the relative spread at the last check
        self._due = 1  # the step of the next check
        self.tail = None

    def _settles(self, u):
        """Whether the dense iterate u, just summed as s_J, certifies a geometric tail.

        Called with the divide and invalid floating-point warnings off: a
        0/0 ratio is a state outside both supports, which fmin and fmax
        skip, and x/0 or 0/x is a change of support (ratio inf or 0).
        """
        last, self._last = self._last, u
        J = len(self._sums) - 1
        if J < self._due or type(last) is not np.ndarray:
            return False
        self._due = J + 1 + J // 8
        ratios = u / last
        lo, hi = float(np.fmin.reduce(ratios)), float(np.fmax.reduce(ratios))
        spread = (hi - lo) / hi if lo > 0.0 and hi < math.inf else math.inf
        falling, self._spread = spread < self._spread, spread
        if spread > TAIL_SPREAD or falling:
            return False
        self.tail = _GeometricTail(lo, hi)
        self._iterates = self._last = None  # frees B and the iterate
        return True

    def _stepped(self, stop):
        """How many of s_0 .. s_{stop-1} are stepped sums, once stepped as far as needed.

        All of them, unless a certified tail (found now or before) ends the
        stepped sums short of stop.
        """
        sums = self._sums
        if self.tail is None and len(sums) < stop:
            # Local names: a countdown steps each term in well under 1 us.
            iterates, append, dense = self._iterates, sums.append, np.ndarray
            if self._last is None:
                self._last = next(iterates)  # B is built no sooner than a step needs it
            with np.errstate(divide="ignore", invalid="ignore"):
                while len(sums) < stop:
                    if sums[-1] == 0.0:
                        sums.frombytes(bytes(8 * (stop - len(sums))))  # 0.0 is all zero bytes
                        break
                    u = next(iterates)
                    append(float(u.sum()))
                    if type(u) is dense and self._settles(u):
                        break
        return min(len(sums), stop)

    def _weighted(self, j0, weights, ends, ratio=None):
        """sum_m weights[i, m] s_{j0[i]+m} for every row i, stepping the iterates as far as needed.

        The series is stepped once, to the last end, and every row is
        weighted against one gather of the sums. Past a certified tail the
        gather reads s_J ratio^(j-J), ratio the midpoint of the tail's
        [lo, hi] when None.
        """
        stop = max(ends.tolist())  # cheaper than a numpy reduction over few rows
        known = self._stepped(stop)
        at = j0[:, None] + np.arange(weights.shape[1])
        sums = np.frombuffer(self._sums, count=known)
        terms = sums.take(at, mode="clip")  # past the row's end its weights are 0
        if known < stop:
            J = known - 1
            past = at > J
            if ratio is None:
                ratio = 0.5 * (self.tail.lo + self.tail.hi)
            terms[past] = sums[J] * np.power(ratio, (at[past] - J).astype(float))
        return (weights[:, None, :] @ terms[:, :, None])[:, 0, 0]

    def time_limit(self):
        """Largest t that continuous accepts: c t within TERM_BUDGET."""
        return TERM_BUDGET / self.c

    def step_limit(self, N):
        """Largest k that discrete accepts at N: k c/N within TERM_BUDGET."""
        return math.floor(TERM_BUDGET / (self.c / N))

    def continuous(self, t):
        """v exp(Qt) 1, the Poisson(ct)-weighted sum of the s_j.

        t is a float, read as a one-point grid and answered with a float,
        or a nondecreasing 1-D array of finite, nonnegative times, read in
        the batches of _batches: one _weights call and one _weighted gather
        each. Raises ValueError when the first time is negative or the last
        is not finite.
        """
        times = np.array(t, float, ndmin=1)
        if times.size and not (times[0] >= 0.0 and times[-1] < math.inf):
            raise ValueError(f"times must be finite and nonnegative, got {t}")
        out = np.empty(times.size)
        for rows in _batches(self.c * times):
            out[rows] = self._weighted(*_weights(rate=self.c, t=times[rows]))
        return out if isinstance(t, np.ndarray) else float(out[0])

    def discrete(self, k, N):
        """v (I + Q/N)^k 1, the Binomial(k, c/N)-weighted sum of the s_j."""
        p = self.c / N
        if k > self.step_limit(N):
            raise NonConvergent(
                f"binomial mean k c/N = {k * p:.3g} (k = {k}, N = {N}, c = {self.c:.6g}) "
                f"exceeds the series term budget {TERM_BUDGET:.0e}"
            )
        return float(self._weighted(*_weights(k=k, p=p))[0])


def eigen_spectrum(A):
    """All eigenvalues of a square A (dense or sparse), by decreasing real part.

    A is block-triangular over its strongly connected classes
    (_strong_blocks), so its spectrum is the union of the diagonal blocks'
    spectra: a class of one state contributes its diagonal entry exactly,
    and the dense block of each other class goes to LAPACK. The array is
    real when no eigenvalue has an imaginary part (as np.linalg.eigvals
    returns it), and equal real parts keep their block order. Raises
    DimensionTooLarge when a class has more than DENSE_CAP states (use
    dominant_eigen for the leading eigenvalue then).
    """
    A = sp.csr_array(A, dtype=float)
    blocks = _strong_blocks(A)
    vals = np.concatenate([
        A.diagonal()[blocks.singleton],
        *(eigvals(block, overwrite_a=True) for block in blocks.dense_blocks()),
    ])
    vals = vals if vals.imag.any() else vals.real
    return vals[np.argsort(-vals.real, kind="stable")]


def dominant_eigen(Q):
    """Eigenvalue of Q with the greatest real part, via the Perron root.

    Writes Q = Lambda (B - I) with B = I + Q/Lambda nonnegative, so the
    greatest real part of the spectrum is Lambda (rho(B) - 1), rho(B) the
    real Perron root. Lambda = 1.05 max(-Q_ii), not the series' c: the slack
    keeps B's diagonal positive, so B's classes are Q's and each nontrivial
    one is primitive. rho(B) is the maximum over the classes: a class of one
    state gives Q_ii (1/Lambda) + 1 exactly (the arithmetic of _uniformized),
    and B is formed only on the others, by _uniformized, where one power
    iteration runs on all of them at once, each block scaled by its own
    maximum. Each block's Collatz-Wielandt min and max ratios bracket its
    root; the iteration stops once the largest (with the singletons') are
    within 1e-10 relative, so -nu is bracketed to within 0.525e-10 max(-Q_ii).

    Raises SlowConvergence with the current estimate after
    MAX_POWER_ITERATIONS iterations, and NonConvergent when entries of the
    iterated vector underflow to 0 (their ratios then bracket nothing).
    """
    diag = Q.diagonal()
    lam = 1.05 * float(np.max(-diag))
    if lam <= 0.0:
        return 0.0
    blocks = _strong_blocks(Q)
    rho = float((diag[blocks.singleton] * (1.0 / lam) + 1.0).max(initial=0.0))
    if not blocks.sizes.size:
        return lam * (rho - 1.0)
    starts = np.cumsum(blocks.sizes) - blocks.sizes
    block = np.repeat(np.arange(blocks.sizes.size), blocks.sizes)
    Bt = sp.csr_array(_uniformized(blocks.inner, lam).T)
    w = np.ones(blocks.states.size)
    est, spread = 1.0, math.inf
    for iteration in range(MAX_POWER_ITERATIONS):
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
    raise SlowConvergence(est, spread, MAX_POWER_ITERATIONS)


def _max_fundamental_entry(Q):
    """max_{j,k} of (-Q)^-1 for a sub-generator Q, entrywise nonnegative.

    (-Q)^-1_jk = P_j(hit k) (-Q)^-1_kk puts the maximum on the diagonal, and
    a return to k never leaves k's class C, so (-Q)^-1_kk = (-Q_C)^-1_kk:
    1/(-Q_kk) for a class of one state, the dense block's inverse otherwise.
    Raises DimensionTooLarge when a class has more than DENSE_CAP states.
    """
    blocks = _strong_blocks(Q)
    best = float(np.max(1.0 / -Q.diagonal()[blocks.singleton], initial=0.0))
    for block in blocks.dense_blocks():
        best = max(best, float(np.max(np.linalg.inv(-block).diagonal())))
    return best


class _Blocks(NamedTuple):
    """The strongly connected classes of a matrix's support (see _strong_blocks)."""

    singleton: np.ndarray  # mask of the states that form a class alone
    states: np.ndarray  # the other states, grouped by class
    sizes: np.ndarray  # the sizes of their classes, in block order
    inner: sp.csr_array  # A[states][:, states] without the entries between classes

    def dense_blocks(self):
        """Each class's block of inner as a dense array, in block order.

        Raises DimensionTooLarge before any block is densified when a class
        has more than DENSE_CAP states.
        """
        largest = int(self.sizes.max(initial=0))
        if largest > DENSE_CAP:
            raise DimensionTooLarge(
                f"a {largest}-state strongly connected class is past the dense cap "
                f"of {DENSE_CAP} states"
            )
        stops = np.cumsum(self.sizes).tolist()
        return (self.inner[a:b, a:b].toarray() for a, b in zip([0, *stops], stops))


def _strong_blocks(A):
    """Strongly connected classes of the support of A, dense or sparse, as diagonal blocks.

    Stored zeros are no part of the support (csgraph counts one as an edge,
    so A is copied without them when it stores one). The states that form a
    class alone are masked out; the others are stably sorted by class label,
    so each class is a contiguous block of A[states][:, states], and inner
    keeps only the entries within a block.
    """
    A = sp.csr_array(A)
    if not A.data.all():
        A = A.copy()
        A.eliminate_zeros()
    _, labels = connected_components(A, directed=True, connection="strong")
    sizes = np.bincount(labels)
    singleton = sizes[labels] == 1
    states = np.flatnonzero(~singleton)
    states = states[np.argsort(labels[states], kind="stable")]
    sizes = sizes[sizes > 1]
    block = np.repeat(np.arange(sizes.size), sizes)
    inner = sp.coo_array(A[states][:, states])
    same = block[inner.row] == block[inner.col]  # drops the entries between classes
    inner = sp.csr_array((inner.data[same], (inner.row[same], inner.col[same])), shape=inner.shape)
    return _Blocks(singleton, states, sizes, inner)

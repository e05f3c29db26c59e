"""Absorbing Markov chains and their sub-generator decomposition.

State 0 is the absorbing state; states 1..S are transient. Vectors over
transient states use index i-1 for state i. The transition matrix is kept
as a sparse row matrix internally regardless of how it arrived, so chains
whose state space grows with the population (the deep-countdown tightness
chain) stay linear in storage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import (
    DimensionTooLarge,
    NotAbsorbing,
    NotStochastic,
    NotTransient,
    SingularSystem,
)
from .numerics import DENSE_CAP, _dense_buffer, _strong_blocks, solve_linear

ROW_SUM_TOL = 1e-12


def _as_csr(matrix):
    if sp.issparse(matrix):
        return sp.csr_array(matrix).astype(float), "sparse-rows"
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return sp.csr_array(arr), "dense"


@dataclass(frozen=True)
class AbsorbingChain:
    """Validated transition matrix with distinguished absorbing state 0.

    P: row-stochastic csr matrix of shape (S+1, S+1).
    representation: "dense" | "sparse-rows", how the matrix was supplied.
    """

    P: sp.csr_array
    representation: str

    @property
    def size(self):
        """Number of states S+1."""
        return self.P.shape[0]

    @property
    def n_transient(self):
        return self.P.shape[0] - 1

    def dense(self):
        """Materialize P as a dense array (guarded against huge chains)."""
        if self.size > DENSE_CAP + 1:
            raise DimensionTooLarge(
                f"refusing to densify a {self.size}-state chain (cap {DENSE_CAP + 1})"
            )
        return np.asarray(self.P.todense())

    def row(self, i):
        """Column indices and probabilities of row i (nonzero entries)."""
        start, stop = self.P.indptr[i], self.P.indptr[i + 1]
        return self.P.indices[start:stop], self.P.data[start:stop]

    @cached_property
    def _destinations(self):
        """Destination draws from P's rows, shared by every run on this chain."""
        return _Destinations(self.P)


class _Destinations:
    """Destination draws from the rows of a CSR matrix of probabilities.

    A row's table (column indices, cumulative probabilities) is built on its
    first draw, so a run pays only for the rows it visits.
    """

    __slots__ = ("_matrix", "_rows")

    def __init__(self, matrix):
        self._matrix = matrix
        self._rows = {}

    def draw(self, i, w):
        """First column of row i whose cumulative probability reaches w.

        The row's last column when rounding leaves the total below w.
        """
        tab = self._rows.get(i)
        if tab is None:
            start, stop = self._matrix.indptr[i], self._matrix.indptr[i + 1]
            cols = tuple(int(c) for c in self._matrix.indices[start:stop])
            tab = self._rows[i] = (cols, tuple(np.cumsum(self._matrix.data[start:stop])))
        cols, cum = tab
        for j, c in enumerate(cum):
            if w <= c:
                return cols[j]
        return cols[-1]


@dataclass(frozen=True)
class SubGenerator:
    """Transient block Q of P - I together with the exit vector Q0.

    Q has negative diagonal, nonnegative off-diagonal entries and row sums
    <= 0; row sums plus Q0 vanish. Nonsingularity of Q is equivalent to the
    reachability invariant checked at validation time.
    """

    Q: sp.csr_array
    Q0: np.ndarray
    # Transient diagonal of P, kept so reassembling the chain reproduces the
    # original entries bit for bit (1 + (p - 1) is not exact in floats).
    p_diag: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_transient(self):
        return self.Q.shape[0]

    @property
    def max_exit_rate(self):
        """max_i(-Q_ii)."""
        return float(np.max(-self.Q.diagonal()))

    def dense_q(self):
        if self.n_transient > DENSE_CAP:
            raise DimensionTooLarge(
                f"refusing to densify a {self.n_transient}-state sub-generator "
                f"(cap {DENSE_CAP})"
            )
        return self.Q.toarray(out=_dense_buffer(self.Q.shape))

    @classmethod
    def from_matrix(cls, Q, Q0=None):
        """Build from a user-supplied rate matrix, validating the sign pattern.

        Accepts generators not derived from a stochastic matrix (scaled
        rates); Q0 defaults to the negated row sums.
        """
        Qc, _ = _as_csr(Q)
        n = Qc.shape[0]
        diag = Qc.diagonal()
        if np.any(diag >= 0):
            bad = int(np.flatnonzero(diag >= 0)[0])
            raise ValueError(f"Q[{bad}][{bad}] = {diag[bad]} must be negative")
        coo = Qc.tocoo()
        off = coo.data[coo.row != coo.col]
        if off.size and np.min(off) < -ROW_SUM_TOL:
            raise ValueError("off-diagonal entries of Q must be nonnegative")
        row_sums = np.asarray(Qc.sum(axis=1)).ravel()
        if np.any(row_sums > ROW_SUM_TOL):
            bad = int(np.flatnonzero(row_sums > ROW_SUM_TOL)[0])
            raise ValueError(f"row {bad} of Q sums to {row_sums[bad]} > 0")
        if Q0 is None:
            Q0 = np.maximum(-row_sums, 0.0)
        else:
            Q0 = np.asarray(Q0, dtype=float)
            if np.any(np.abs(row_sums + Q0) > 1e-9 * (1.0 + np.abs(diag))):
                raise ValueError("row sums of Q plus Q0 must vanish")
        # Every transient state must reach an exit along positive rates: the
        # same reverse BFS as validate_chain, on Q's support with the exits
        # as edges into an extra state 0.
        keep = (coo.row != coo.col) & (coo.data > 0)
        exits = np.flatnonzero(Q0 > 0)
        rows = np.concatenate([coo.row[keep], exits]) + 1
        cols = np.concatenate([coo.col[keep] + 1, np.zeros(exits.size, dtype=int)])
        support = sp.csr_array(
            (np.ones(rows.size), (rows, cols)), shape=(n + 1, n + 1)
        )
        missing = np.flatnonzero(~_states_reaching_zero(support))
        if missing.size:
            raise NotTransient(int(missing[0]))
        return cls(Q=Qc, Q0=Q0)


@dataclass(frozen=True)
class InitialDistribution:
    """Distribution over states: alpha on transient states 1..S, mass0 at 0."""

    alpha: np.ndarray
    mass0: float = 0.0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        if np.any(alpha < -1e-15):
            raise ValueError("alpha entries must be nonnegative")
        total = float(alpha.sum()) + self.mass0
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mass0 + sum(alpha) = {total}, expected 1")

    @property
    def transient_mass(self):
        return float(self.alpha.sum())

    @classmethod
    def point(cls, state, n_transient):
        """All mass on a single state (state 0 means mass0 = 1)."""
        alpha = np.zeros(n_transient)
        if state == 0:
            return cls(alpha=alpha, mass0=1.0)
        alpha[state - 1] = 1.0
        return cls(alpha=alpha)

    @classmethod
    def uniform(cls, n_transient):
        return cls(alpha=np.full(n_transient, 1.0 / n_transient))


def validate_chain(matrix) -> AbsorbingChain:
    """Validate a transition matrix and wrap it as an AbsorbingChain.

    Checks that entries are finite, row sums (tolerance 1e-12), entry range,
    absorption of state 0 and reachability of state 0 from every other state
    (graph reachability on the support of P, checked exactly).
    """
    P, representation = _as_csr(matrix)
    n = P.shape[0]
    if n < 2:
        raise ValueError("need at least two states (one absorbing, one transient)")

    data = P.data
    finite = np.isfinite(data)
    if not finite.all():
        coo = P.tocoo()
        bad = int(np.flatnonzero(~finite)[0])
        raise NotStochastic(
            int(coo.row[bad]),
            f"entry P[{coo.row[bad]}][{coo.col[bad]}] = {coo.data[bad]} is not finite",
        )
    if data.size:
        low, high = float(np.min(data)), float(np.max(data))
        if low < -ROW_SUM_TOL or high > 1.0 + ROW_SUM_TOL:
            coo = P.tocoo()
            bad = int(np.argmin(coo.data)) if low < -ROW_SUM_TOL else int(np.argmax(coo.data))
            raise NotStochastic(
                int(coo.row[bad]),
                f"entry P[{coo.row[bad]}][{coo.col[bad]}] = {coo.data[bad]} outside [0, 1]",
            )
        # Entries within tolerance of the range are clamped, not rejected:
        # hand-written JSON matrices carry decimal rounding.
        np.clip(data, 0.0, 1.0, out=data)

    row_sums = np.asarray(P.sum(axis=1)).ravel()
    bad_rows = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
    if bad_rows.size:
        bad = int(bad_rows[0])
        raise NotStochastic(bad, f"row sum {float(row_sums[bad])!r}")

    p00 = float(P.diagonal()[0])
    if abs(p00 - 1.0) > ROW_SUM_TOL:
        raise NotAbsorbing(f"P[0][0] = {p00!r}")
    # Snap row 0 to an exact unit row so that absorption is literal even when
    # the input carried rounding within tolerance.
    start, stop = P.indptr[0], P.indptr[1]
    for k in range(start, stop):
        P.data[k] = 1.0 if P.indices[k] == 0 else 0.0

    P = sp.csr_array(P)
    P.eliminate_zeros()

    # Reverse BFS from state 0 over the support of P: every state must
    # reach 0 along a positive-probability path.
    reaches = _states_reaching_zero(P)
    missing = np.flatnonzero(~reaches)
    if missing.size:
        raise NotTransient(int(missing[0]))
    return AbsorbingChain(P=P, representation=representation)


def _states_reaching_zero(P):
    n = P.shape[0]
    # BFS from 0 over reversed edges, done in compiled code: states reaching
    # 0 are exactly those reachable from 0 in the transposed support graph.
    reversed_support = sp.csr_array(P.transpose())
    order = csgraph.breadth_first_order(
        reversed_support, i_start=0, directed=True, return_predecessors=False
    )
    reached = np.zeros(n, dtype=bool)
    reached[order] = True
    return reached


def decompose(chain: AbsorbingChain) -> SubGenerator:
    """Extract the sub-generator: Q = (P - I) on states 1..S, Q0 = P[1:, 0]."""
    P = chain.P
    n = chain.n_transient
    transient = P[1:, :][:, 1:]
    Q = sp.csr_array(transient - sp.eye(n, format="csr"))
    Q.eliminate_zeros()
    Q0 = np.asarray(P[1:, :][:, [0]].todense()).ravel()
    return SubGenerator(Q=Q, Q0=Q0, p_diag=transient.diagonal())


def reassemble(sub: SubGenerator) -> sp.csr_array:
    """Rebuild P from a decomposed sub-generator (exact round trip).

    Diagonal entries are substituted from the retained transient diagonal of
    P rather than recomputed as 1 + Q_ii, which would round.
    """
    n = sub.n_transient
    coo = sp.coo_array(sub.Q)
    vals = coo.data.copy()
    diag_mask = coo.row == coo.col
    if sub.p_diag is not None:
        vals[diag_mask] = sub.p_diag[coo.row[diag_mask]]
    else:
        vals[diag_mask] = vals[diag_mask] + 1.0
    rows = np.concatenate([coo.row + 1, np.arange(1, n + 1), [0]])
    cols = np.concatenate([coo.col + 1, np.zeros(n, dtype=int), [0]])
    vals = np.concatenate([vals, sub.Q0, [1.0]])
    out = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n + 1, n + 1)))
    out.eliminate_zeros()
    return out


def _solve_neg_q(sub: SubGenerator, rhs) -> np.ndarray:
    """x with (-Q) x = rhs, for a positive rhs (so x is positive too)."""
    try:
        if sub.n_transient <= DENSE_CAP:
            x = solve_linear((-sub.Q).toarray(out=_dense_buffer(sub.Q.shape)), rhs)
        else:
            x = spla.spsolve(sp.csc_matrix(-sub.Q), rhs)
    except Exception as exc:  # pragma: no cover - validated chains never hit this
        raise SingularSystem(f"hitting-time system is singular: {exc}") from exc
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise SingularSystem("hitting-time solve produced nonpositive entries")
    return np.asarray(x, dtype=float)


def expected_hitting_times(sub: SubGenerator) -> np.ndarray:
    """Per-chain expected hitting times of 0: W solves (-Q) W = 1.

    Entry i-1 is the expected number of steps to reach 0 from state i; all
    entries are >= 1.
    """
    return _solve_neg_q(sub, np.ones(sub.n_transient))


class ResolventQuantities:
    """The max of (-Q)^-1 entries and the expected jump count, each on first access.

    No bound uses max_neg_qinv since theorem1 switched to max_x W; the class
    stays while the report still carries that value and perfbench's tracer
    wraps the max_neg_qinv property.
    """

    def __init__(self, sub: SubGenerator, alpha: InitialDistribution):
        self._sub = sub
        self._alpha = alpha
        self._max_neg_qinv = None
        self._mean_jumps = None

    @property
    def max_neg_qinv(self) -> float:
        if self._max_neg_qinv is None:
            self._max_neg_qinv = _max_fundamental_entry(self._sub)
        return self._max_neg_qinv

    @property
    def mean_jumps(self) -> float:
        if self._mean_jumps is None:
            self._mean_jumps = mean_jump_count(self._sub, self._alpha)
        return self._mean_jumps


def resolvent_quantities(sub, alpha) -> ResolventQuantities:
    """Quantities entering the finite-N hitting-time bound."""
    return ResolventQuantities(sub, alpha)


def mean_jump_count(sub: SubGenerator, alpha: InitialDistribution) -> float:
    """alpha (I - R)^-1 1: expected number of jumps before absorption.

    The embedded jump matrix R_ij = -Q_ij / Q_ii satisfies I - R = D^-1 (-Q)
    with d = -diag(Q), so this is alpha (-Q)^-1 d: the hitting-time system
    with right-hand side d instead of 1.
    """
    return float(alpha.alpha @ _solve_neg_q(sub, -sub.Q.diagonal()))


def _max_fundamental_entry(sub: SubGenerator) -> float:
    """max_{j,k} of (-Q)^-1, which is entrywise nonnegative.

    (-Q)^-1_jk = P_j(hit k) (-Q)^-1_kk puts the maximum on the diagonal, and
    a return to k never leaves k's strongly connected component C, so
    (-Q)^-1_kk = (-Q_C)^-1_kk. A singleton component contributes 1/(-Q_kk);
    a component up to DENSE_CAP states is inverted densely; a larger one is
    factorized once and its inverse swept in column blocks, which is
    quadratic in its size and capped at 150,000 states.
    """
    singleton, states, sizes = _strong_blocks(sub.Q)
    best = float(np.max(-1.0 / sub.Q.diagonal()[singleton], initial=0.0))
    A = -sub.Q[states][:, states]
    for size, end in zip(sizes, np.cumsum(sizes)):
        block = A[end - size:end, end - size:end]
        if size <= DENSE_CAP:
            best = max(best, float(np.max(np.linalg.inv(block.toarray()).diagonal())))
            continue
        if size > 150_000:
            raise DimensionTooLarge(
                "resolvent-entry sweep is quadratic and capped at 150000 states "
                f"per strongly connected component (got {size})"
            )
        lu = spla.splu(sp.csc_matrix(block))
        for first in range(0, size, 256):
            stop = min(first + 256, size)
            rhs = np.zeros((size, stop - first))
            rhs[np.arange(first, stop), np.arange(stop - first)] = 1.0
            cols = lu.solve(rhs)
            best = max(best, float(np.max(cols[first:stop].diagonal())))
    return best


def load_chain_spec(source) -> tuple[AbsorbingChain, InitialDistribution]:
    """Load a chain specification from a JSON file path, file object or dict.

    Schema: {"states": n >= 2, "P": [[...]] or
    "P_sparse": [{"row": i, "cols": [...], "probs": [...]}, ...],
    optional "alpha" (length n-1, over states 1..S) and "alpha0"
    (mass at state 0, default 0)}.
    """
    if isinstance(source, dict):
        spec = source
    elif hasattr(source, "read"):
        spec = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            spec = json.load(fh)

    if "states" not in spec:
        raise ValueError('chain spec is missing the "states" field')
    n = int(spec["states"])
    if n < 2:
        raise ValueError('"states" must be at least 2')

    if "P" in spec:
        matrix = np.asarray(spec["P"], dtype=float)
        if matrix.shape != (n, n):
            raise ValueError(f'"P" must be {n}x{n}, got {matrix.shape}')
        chain = validate_chain(matrix)
    elif "P_sparse" in spec:
        rows, cols, vals = [], [], []
        for entry in spec["P_sparse"]:
            r = int(entry["row"])
            cs, ps = entry["cols"], entry["probs"]
            if len(cs) != len(ps):
                raise ValueError(f'row {r}: "cols" and "probs" lengths differ')
            rows.extend([r] * len(cs))
            cols.extend(int(c) for c in cs)
            vals.extend(float(p) for p in ps)
        matrix = sp.csr_array(
            sp.coo_array((vals, (rows, cols)), shape=(n, n))
        )
        chain = validate_chain(matrix)
    else:
        raise ValueError('chain spec needs either "P" or "P_sparse"')

    mass0 = float(spec.get("alpha0", 0.0))
    if "alpha" in spec:
        alpha = np.asarray(spec["alpha"], dtype=float)
        if alpha.shape != (n - 1,):
            raise ValueError(f'"alpha" must have length {n - 1}')
    else:
        alpha = np.full(n - 1, (1.0 - mass0) / (n - 1))
    return chain, InitialDistribution(alpha=alpha, mass0=mass0)

"""Absorbing Markov chains and their sub-generator decomposition.

State 0 is the absorbing state; states 1..S are transient. Vectors over
transient states use index i-1 for state i. The transition matrix is kept
as a sparse row matrix internally regardless of how it arrived, so chains
whose state space grows with the population (the deep-countdown tightness
chain) stay linear in storage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
from .numerics import DENSE_CAP, _strong_blocks, _triangular_solver, solve_linear

ROW_SUM_TOL = 1e-12


def _as_csr(matrix):
    if sp.issparse(matrix):
        return sp.csr_array(matrix).astype(float)
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return sp.csr_array(arr)


@dataclass(frozen=True)
class AbsorbingChain:
    """Validated transition matrix with distinguished absorbing state 0.

    P: row-stochastic csr matrix of shape (S+1, S+1).
    """

    P: sp.csr_array

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
    def _sub(self):
        """decompose(self), shared by every simulated run on this chain."""
        return decompose(self)


class _Destinations:
    """Destination draws from the rows of a CSR matrix of probabilities.

    A row's table (column indices, cumulative probabilities) is built on its
    first draw, so a run pays only for the rows it visits. draw_many builds
    the cumulative sums of all rows at once, on its first call.
    """

    __slots__ = ("_matrix", "_rows", "_flat")

    def __init__(self, matrix):
        self._matrix = matrix
        self._rows = {}
        self._flat = None

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

    def draw_many(self, rows, w):
        """draw(rows[k], w[k]) for every k, by the same rule and sums."""
        if self._flat is None:
            self._flat = self._row_cumsums()
        cols, cum, first, last = self._flat
        pos = first[rows]
        end = last[rows]
        # Step each pending entry to its row's next column, as draw does.
        todo = np.flatnonzero((cum[pos] < w) & (pos < end))
        while todo.size:
            pos[todo] += 1
            at = pos[todo]
            todo = todo[(cum[at] < w[todo]) & (at < end[todo])]
        return cols[pos]

    def _row_cumsums(self):
        """Every row's running sum, added in np.cumsum's order (bit for bit).

        Pass k adds entry k of each row longer than k; rows are visited
        longest first so each pass touches only a prefix, O(nnz) in all.
        """
        indptr = self._matrix.indptr
        cum = np.array(self._matrix.data, dtype=float)
        lengths = np.diff(indptr)
        longest_first = np.argsort(-lengths, kind="stable")
        starts = indptr[:-1][longest_first]
        ordered = lengths[longest_first]
        for k in range(1, int(ordered[0]) if ordered.size else 0):
            at = starts[: np.searchsorted(-ordered, -k)] + k
            cum[at] += cum[at - 1]
        cols = np.asarray(self._matrix.indices, dtype=np.int64)
        return cols, cum, indptr[:-1].astype(np.int64), indptr[1:].astype(np.int64) - 1


def _walk_to_exit(state, rates, draw, exit_column, rng, budget=math.inf):
    """Steps one chain takes from a transient state until it exits.

    The sojourn in state x is geometric with success rates[x], drawn in one
    shot; draw(x, u) then picks the next state. rng is a numpy Generator or
    anything with its random() and geometric(p). Stops early, with a count
    above budget, as soon as the count passes budget.
    """
    steps = 0
    while state != exit_column:
        steps += int(rng.geometric(rates[state]))
        if steps > budget:
            break
        state = draw(state, rng.random())
    return steps


@dataclass(frozen=True)
class SubGenerator:
    """Transient block Q of P - I together with the exit vector Q0.

    Q has negative diagonal, nonnegative off-diagonal entries and row sums
    <= 0; row sums plus Q0 vanish. Nonsingularity of Q is equivalent to the
    reachability invariant checked at validation time.
    """

    Q: sp.csr_array
    Q0: np.ndarray

    @property
    def n_transient(self):
        return self.Q.shape[0]

    @property
    def max_exit_rate(self):
        """max_i(-Q_ii)."""
        return float(np.max(-self.Q.diagonal()))

    @cached_property
    def _jump_chain(self):
        """Destination draws of the jump chain [offdiag(Q) | Q0] / -diag(Q).

        Column n (past the n transient states) is the exit to state 0.
        """
        Q = self.Q
        n = Q.shape[0]
        d = -Q.diagonal()
        row = np.repeat(np.arange(n), np.diff(Q.indptr))
        off = Q.indices != row
        moves = row[off]
        # Each row's exit follows its moves: a stable sort keeps Q's order.
        order = np.argsort(np.concatenate([moves, np.arange(n)]), kind="stable")
        cols = np.concatenate([Q.indices[off], np.full(n, n)])[order]
        vals = np.concatenate([Q.data[off] / d[moves], self.Q0 / d])[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(moves, minlength=n) + 1)])
        return _Destinations(sp.csr_array((vals, cols, indptr), shape=(n, n + 1)))

    @classmethod
    def from_matrix(cls, Q, Q0=None):
        """Build from a user-supplied rate matrix, validating the sign pattern.

        Accepts generators not derived from a stochastic matrix (scaled
        rates); Q0 defaults to the negated row sums.
        """
        Qc = _as_csr(Q)
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
        # nan < x is False, so a nan entry shows only in the sum.
        total = float(alpha.sum())
        if not math.isfinite(total):
            raise ValueError("alpha entries must be finite")
        if not (math.isfinite(self.mass0) and self.mass0 >= -1e-15):
            raise ValueError(f"mass0 must be finite and nonnegative, got {self.mass0}")
        total += self.mass0
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
    P = _as_csr(matrix)
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
    return AbsorbingChain(P=P)


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
    Q = sp.csr_array(P[1:, 1:] - sp.eye(n, format="csr"))
    Q.eliminate_zeros()
    Q0 = P[1:, [0]].toarray().ravel()
    return SubGenerator(Q=Q, Q0=Q0)


def _solve_neg_q(sub: SubGenerator, rhs) -> np.ndarray:
    """x with (-Q) x = rhs, for a positive rhs (so x is positive too).

    A triangular -Q (every chain whose transient states only count down, as
    the countdown examples do) is solved by substitution at any size, with
    no dense matrix. Up to the dense cap the sparse -Q goes to solve_linear,
    which densifies and LU-factorizes only a non-triangular one; past it,
    _solve_sparse keeps it sparse (an LU factorization of the 10^6-state
    fig3a(1000, 2) took three times as long as the substitution).
    """
    try:
        if sub.n_transient <= DENSE_CAP:
            x = solve_linear(-sub.Q, rhs)
        else:
            x = _solve_sparse(-sub.Q, rhs)
    except Exception as exc:  # pragma: no cover - validated chains never hit this
        raise SingularSystem(f"hitting-time system is singular: {exc}") from exc
    if np.any(~np.isfinite(x)) or np.any(x <= 0):
        raise SingularSystem("hitting-time solve produced nonpositive entries")
    return np.asarray(x, dtype=float)


def _solve_sparse(A, rhs):
    """x with A x = rhs: by substitution for a triangular A, by SuperLU otherwise.

    A triangular A is overwritten (see numerics._triangular_solver).
    """
    A = sp.csr_array(A, dtype=float)
    solve = _triangular_solver(A)
    if solve is None:
        return spla.spsolve(sp.csc_matrix(A), rhs)
    return solve(rhs)


def expected_hitting_times(sub: SubGenerator) -> np.ndarray:
    """Per-chain expected hitting times of 0: W solves (-Q) W = 1.

    Entry i-1 is the expected number of steps to reach 0 from state i; all
    entries are >= 1.
    """
    return _solve_neg_q(sub, np.ones(sub.n_transient))


class ResolventQuantities:
    """max_jk (-Q)^-1_jk of a sub-generator, computed on each access.

    No bound uses it since theorem1 switched to max_x W: the report still
    carries the value, and perfbench's tracer wraps the max_neg_qinv property.
    """

    def __init__(self, sub: SubGenerator):
        self._sub = sub

    @property
    def max_neg_qinv(self) -> float:
        return _max_fundamental_entry(self._sub)


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
    (-Q)^-1_kk = (-Q_C)^-1_kk. A singleton component contributes 1/(-Q_kk)
    and any other is inverted densely. Raises DimensionTooLarge when a
    component has more than DENSE_CAP states.
    """
    blocks = _strong_blocks(sub.Q)
    best = float(np.max(-1.0 / sub.Q.diagonal()[blocks.singleton], initial=0.0))
    for start, end in blocks.spans():
        if end - start > DENSE_CAP:
            raise DimensionTooLarge(
                f"refusing to invert a {end - start}-state strongly connected "
                f"component densely (cap {DENSE_CAP})"
            )
        block = -blocks.inner[start:end, start:end]
        best = max(best, float(np.max(np.linalg.inv(block.toarray()).diagonal())))
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

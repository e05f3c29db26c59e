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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import (
    NotAbsorbing,
    NotStochastic,
    NotTransient,
    SingularMatrix,
    SingularSystem,
)
from .numerics import DENSE_CAP, _factor, _max_fundamental_entry, _strong_blocks, solve_linear

ROW_SUM_TOL = 1e-12


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


class _Destinations:
    """Destination draws from the rows of a CSR matrix of probabilities.

    Every row's running sums sit in one flat table, built up front; draw
    bisects a row's slice of it and draw_many steps through all rows at once.
    """

    __slots__ = ("_flat", "_cols", "_cum", "_first", "_last")

    def __init__(self, matrix):
        # Pass k adds entry k of each row longer than k, so each row's sum is
        # added left to right as np.cumsum adds it; rows are visited longest
        # first so each pass touches only a prefix, O(nnz) in all.
        indptr = matrix.indptr
        cum = np.array(matrix.data, dtype=float)
        lengths = np.diff(indptr)
        longest_first = np.argsort(-lengths, kind="stable")
        starts = indptr[:-1][longest_first]
        ordered = lengths[longest_first]
        for k in range(1, int(ordered[0]) if ordered.size else 0):
            at = starts[: np.searchsorted(-ordered, -k)] + k
            cum[at] += cum[at - 1]
        cols = np.asarray(matrix.indices, dtype=np.int64)
        first = indptr[:-1].astype(np.int64)
        last = indptr[1:].astype(np.int64) - 1
        self._flat = (cols, cum, first, last)
        # draw reads Python scalars off memoryviews of the same arrays.
        self._cols, self._cum, self._first, self._last = map(memoryview, self._flat)

    def draw(self, i, w):
        """First column of row i whose cumulative probability reaches w.

        The row's last column when rounding leaves the total below w.
        """
        return self._cols[bisect_left(self._cum, w, self._first[i], self._last[i])]

    def draw_many(self, rows, w):
        """draw(rows[k], w[k]) for every k, by the same rule and sums."""
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

    @cached_property
    def exit_rates(self):
        """d = -diag(Q), read-only: the rate at which each transient state is left."""
        d = -self.Q.diagonal()
        d.flags.writeable = False
        return d

    @property
    def max_exit_rate(self):
        """max_i(-Q_ii)."""
        return float(np.max(self.exit_rates))

    @cached_property
    def _solve_q(self):
        """solve(rhs) giving a new x with Q x = rhs, from one factorization of Q.

        Built on first use by numerics._factor and kept as long as the
        sub-generator, which holds only the factorization, never a result:
        for a triangular Q what _triangular_solver sets up (for a narrow band
        its (k+1) x n floats, 16 MB on the bidiagonal Q of the 10^6-state
        fig3a(1000, 2)), for any other Q past the dense cap its SuperLU
        factors. The pivot floor is solve_linear's, 1e-14 ||Q||_inf, read in
        one O(n) pass: a row of Q sums in absolute value to d_i + (d_i - Q0_i).
        """
        d = self.exit_rates
        floor = 1e-14 * float(np.max(2.0 * d - self.Q0, initial=0.0))
        return _factor(self.Q, floor, diag=-d)[0]

    @cached_property
    def _classes(self):
        """The strongly connected classes of Q's support (numerics._Blocks), found once.

        numerics._strong_blocks, stored zeros ignored, run on first use.
        eigen_spectrum, dominant_eigen and the resolvent maximum read them
        when given the sub-generator, so a report, and every report on the
        same chain, makes one pass. Its arrays are read-only.
        """
        blocks = _strong_blocks(self.Q)
        for a in (blocks.singleton, blocks.states, blocks.sizes):
            a.flags.writeable = False
        return blocks

    @cached_property
    def _jump_chain(self):
        """Destination draws of the jump chain [offdiag(Q) | Q0] / -diag(Q).

        Column n (past the n transient states) is the exit to state 0.
        """
        Q = self.Q
        n = Q.shape[0]
        d = self.exit_rates
        row = np.repeat(np.arange(n), np.diff(Q.indptr))
        off = Q.indices != row
        moves = row[off]
        # Each row's exit follows its moves: a stable sort keeps Q's order.
        order = np.argsort(np.concatenate([moves, np.arange(n)]), kind="stable")
        cols = np.concatenate([Q.indices[off], np.full(n, n)])[order]
        vals = np.concatenate([Q.data[off] / d[moves], self.Q0 / d])[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(moves, minlength=n) + 1)])
        return _Destinations(sp.csr_array((vals, cols, indptr), shape=(n, n + 1)))


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
            # Named as a JSON chain spec names them: mass0 is "alpha0" there.
            raise ValueError(f'sum("alpha") + "alpha0" = {total}, expected 1')

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
    if sp.issparse(matrix):
        P = sp.csr_array(matrix).astype(float)
    else:
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        P = sp.csr_array(arr)
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
    """The sub-generator Q = (P - I) on states 1..S, Q0 = P[1:, 0], built once
    per chain: the bounds, the fluid curve and the sampler share it."""
    if "_sub" not in chain.__dict__:  # a frozen dataclass: cache as cached_property does
        P = chain.P
        Q = sp.csr_array(P[1:, 1:] - sp.eye(chain.n_transient, format="csr"))
        Q.eliminate_zeros()
        chain.__dict__["_sub"] = SubGenerator(Q=Q, Q0=P[1:, [0]].toarray().ravel())
    return chain.__dict__["_sub"]


def _solve_neg_q(sub: SubGenerator, rhs) -> np.ndarray:
    """x with (-Q) x = rhs, for a positive rhs (so x is positive too).

    Solved as Q x = -rhs, which rounds to the same x bit for bit (every
    operation only flips sign) without a negated copy of Q. numerics._factor
    picks the factorization either way. Up to the dense cap Q goes to
    solve_linear, which factors it afresh and refines the result; past it
    the factorization is made once per sub-generator (SubGenerator._solve_q)
    and every later solve on the same chain reuses it, unrefined: a residual
    on the 10^6-state band of fig3a(1000, 2) costs about as much as the
    7-10 ms solve. The switch stays at the cap because the benchmark's layer
    map (perfbench/layers.json) pins solve_linear's calls. A singular Q
    (SingularMatrix) is reported as SingularSystem.
    """
    rhs = -np.asarray(rhs, dtype=float)
    try:
        if sub.n_transient <= DENSE_CAP:
            x = solve_linear(sub.Q, rhs)
        else:
            x = sub._solve_q(rhs)
    except SingularMatrix as exc:
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
    """max_jk (-Q)^-1_jk of a sub-generator, computed on each access.

    numerics._max_fundamental_entry reads it off the strongly connected
    classes the sub-generator keeps (SubGenerator._classes), the ones the
    spectrum and the Perron root read. No bound uses it since theorem1
    switched to max_x W: the report still carries the value, and
    perfbench's tracer wraps max_neg_qinv.
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
    return float(alpha.alpha @ _solve_neg_q(sub, sub.exit_rates))


def chain_spec(chain: AbsorbingChain, alpha: InitialDistribution) -> dict:
    """The JSON chain specification of (chain, alpha) that load_chain_spec reads.

    "P" holds the dense rows of a chain of up to 64 states; a larger chain
    gets "P_sparse", one entry per row of its CSR arrays.
    """
    P = chain.P
    spec = {"states": chain.size, "alpha": alpha.alpha.tolist(), "alpha0": alpha.mass0}
    if chain.size <= 64:
        spec["P"] = P.toarray().tolist()
    else:
        bounds = P.indptr.tolist()
        spec["P_sparse"] = [
            {"row": i, "cols": P.indices[a:b].tolist(), "probs": P.data[a:b].tolist()}
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
        ]
    return spec


def load_chain_spec(source) -> tuple[AbsorbingChain, InitialDistribution]:
    """Load a chain specification from a JSON file path, file object or dict.

    Schema: {"states": integer n >= 2, "P": [[...]] or
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

    if not isinstance(spec, dict):
        raise ValueError(f"a chain spec must be a JSON object, got {type(spec).__name__}")
    if "states" not in spec:
        raise ValueError('chain spec is missing the "states" field')
    n = spec["states"]
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f'"states" must be an integer of at least 2, got {n!r}')

    if "P" in spec:
        matrix = _numbers(spec["P"], '"P"')
        if matrix.shape != (n, n):
            raise ValueError(f'"P" must be {n}x{n}, got {matrix.shape}')
        chain = validate_chain(matrix)
    elif "P_sparse" in spec:
        if not isinstance(spec["P_sparse"], list):
            raise ValueError(f'"P_sparse" must be a list, got {type(spec["P_sparse"]).__name__}')
        rows, cols, vals = [], [], []
        for entry in spec["P_sparse"]:
            if not isinstance(entry, dict):
                raise ValueError(f'"P_sparse" entries must be objects, got {entry!r}')
            for key, ndim in (("row", 0), ("cols", 1), ("probs", 1)):
                if key not in entry or _ndim(entry[key]) != ndim:
                    kind = "an integer" if ndim == 0 else "a flat list"
                    raise ValueError(f'"P_sparse" entry {entry!r}: "{key}" must be {kind}')
            r, cs = entry["row"], entry["cols"]
            ps = _numbers(entry["probs"], f'"P_sparse" row {r!r}: "probs"')
            # Neither a fractional index (1.9 would truncate to row 1) nor a
            # bool (an int subclass: true would read as row 1) is an index.
            bad = [i for i in [r, *cs]
                   if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
            if bad:
                raise ValueError(
                    f'"P_sparse" row {r!r}: "row" and "cols" must be integers, got {bad[0]!r}'
                )
            if len(cs) != len(ps):
                raise ValueError(f'row {r}: "cols" and "probs" lengths differ')
            rows.extend([r] * len(cs))
            cols.extend(cs)
            vals.extend(ps.tolist())
        matrix = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))
        chain = validate_chain(matrix)
    else:
        raise ValueError('chain spec needs either "P" or "P_sparse"')

    mass0 = spec.get("alpha0", 0.0)
    if not isinstance(mass0, (int, float)) or isinstance(mass0, bool) or not 0 <= mass0 <= 1:
        raise ValueError(f'"alpha0" must be a number within [0, 1], got {mass0!r}')
    mass0 = float(mass0)
    if "alpha" in spec:
        alpha = _numbers(spec["alpha"], '"alpha"')
        if alpha.shape != (n - 1,):
            raise ValueError(f'"alpha" must have length {n - 1}')
    else:
        alpha = np.full(n - 1, (1.0 - mass0) / (n - 1))
    return chain, InitialDistribution(alpha=alpha, mass0=mass0)


def _ndim(value):
    """np.ndim(value), or None for lists nested to uneven depths."""
    try:
        return np.ndim(value)
    except ValueError:
        return None


def _numbers(value, field):
    """value as a float array; a ValueError naming field when it holds no numbers."""
    try:
        numbers = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field} must hold numbers: {exc}") from None
    # A JSON null converts to NaN; NaN itself is left to the finiteness checks.
    if np.isnan(numbers).any() and any(x is None for x in np.asarray(value, dtype=object).flat):
        raise ValueError(f"{field} must hold numbers, got null")
    return numbers

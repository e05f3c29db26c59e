"""Monte Carlo simulation of the N-chain system via its occupancy process.

The N labeled chains are exchangeable, so the vector of per-state counts is
a Markov chain with the same law for the hitting time and the absorbed
fraction; memory is O(occupied states) instead of O(N). Selecting an
already-absorbed chain is a self-loop, so the run length between selections
of active chains is geometric and can be sampled in one shot without
changing the distribution of anything observable (the skip is exact, not an
approximation).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain_model import AbsorbingChain, InitialDistribution
from .errors import MaxStepsExceeded

DEFAULT_MAX_STEPS = 10**9


@dataclass(frozen=True)
class OccupancyState:
    """Counts of chains per state, summing to the population size N."""

    N: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {int(s): int(c) for s, c in self.counts.items() if c != 0}
        object.__setattr__(self, "counts", cleaned)
        if any(c < 0 for c in cleaned.values()) or any(s < 0 for s in cleaned):
            raise ValueError("counts must be nonnegative over states >= 0")
        total = sum(cleaned.values())
        if total != self.N:
            raise ValueError(f"counts sum to {total}, expected N = {self.N}")

    @classmethod
    def all_in(cls, state, N):
        return cls(N=N, counts={state: N})

    @classmethod
    def from_alpha(cls, alpha: InitialDistribution, N):
        """Deterministic largest-remainder apportionment of N chains to states."""
        probs = np.concatenate([[alpha.mass0], alpha.alpha])
        raw = probs * N
        base = np.floor(raw).astype(int)
        deficit = N - int(base.sum())
        if deficit > 0:
            order = np.argsort(-(raw - base), kind="stable")
            for s in order[:deficit]:
                base[s] += 1
        return cls(N=N, counts={int(s): int(base[s]) for s in np.flatnonzero(base)})

    @property
    def absorbed(self):
        return self.counts.get(0, 0)

    @property
    def fraction_absorbed(self):
        return self.absorbed / self.N


@dataclass(frozen=True)
class SimulationResult:
    """Replicated hitting-time estimate with reproducibility metadata."""

    samples: tuple
    mean: float
    stderr: float | None
    ci95: float | None
    runs: int
    seed: int
    failed_runs: int = 0

    def to_json_dict(self):
        out = {
            "mean": self.mean,
            "stderr": self.stderr,
            "ci95": self.ci95,
            "runs": self.runs,
            "seed": self.seed,
        }
        if self.failed_runs:
            out["failed_runs"] = self.failed_runs
        return out


@dataclass(frozen=True)
class TrajectorySample:
    """Absorbed fractions of one run observed at rescaled times t (step floor(tN))."""

    rescaled_times: np.ndarray
    m0_fractions: np.ndarray


class _Uniforms:
    """Buffered uniforms: amortizes the numpy call overhead over blocks."""

    __slots__ = ("_rng", "_buf", "_i", "_n")

    def __init__(self, rng, block=8192):
        self._rng = rng
        self._buf = rng.random(block)
        self._n = block
        self._i = 0

    def next(self):
        i = self._i
        if i >= self._n:
            self._buf = self._rng.random(self._n)
            i = 0
        self._i = i + 1
        return self._buf[i]

    def next_nonzero(self):
        u = self.next()
        while u <= 0.0:
            u = self.next()
        return u


class _RowTables:
    """Lazy per-state destination tables (columns, cumulative probabilities)."""

    __slots__ = ("_chain", "_rows")

    def __init__(self, chain: AbsorbingChain):
        self._chain = chain
        self._rows = {}

    def row(self, state):
        tab = self._rows.get(state)
        if tab is None:
            cols, probs = self._chain.row(state)
            tab = (tuple(int(c) for c in cols), tuple(np.cumsum(probs)))
            self._rows[state] = tab
        return tab


def _pick_destination(tab, w):
    cols, cum = tab
    for j, c in enumerate(cum):
        if w <= c:
            return cols[j]
    return cols[-1]


def step(chain: AbsorbingChain, state: OccupancyState, rng) -> OccupancyState:
    """One exact scheduler step: pick a chain uniformly, move it by one P-row.

    Picking a chain in state x has probability counts[x]/N; picking an
    absorbed or self-looping chain leaves the occupancy unchanged.
    """
    N = state.N
    r = rng.random() * N
    acc = 0
    x = next(iter(state.counts))
    for s, c in state.counts.items():
        acc += c
        x = s
        if r < acc:
            break
    cols, probs = chain.row(x)
    w = rng.random()
    y = _pick_destination((tuple(cols), tuple(np.cumsum(probs))), w)
    if y == x:
        return state
    counts = dict(state.counts)
    counts[x] -= 1
    counts[y] = counts.get(y, 0) + 1
    return OccupancyState(N=N, counts=counts)


def _run(tables, initial: OccupancyState, rng, skip, max_steps, targets=()):
    """The select-and-move loop behind run_to_absorption and simulate_trajectory.

    Runs until every chain sits in state 0 or every step index in the sorted
    list targets has passed. Returns the steps taken and the absorbed count
    after each target step. With skip, selections of absorbed chains are
    drawn in one geometric jump instead of one step at a time.
    """
    N = initial.N
    counts = {s: c for s, c in initial.counts.items() if s != 0}
    absorbed = initial.absorbed
    active = N - absorbed
    seen = []
    pending = iter(targets)
    nxt = next(pending, math.inf)
    last = targets[-1] if targets else math.inf
    steps = 0
    uni = _Uniforms(rng)
    log = math.log
    log1p = math.log1p
    while active > 0 and steps < last:
        if skip and absorbed:
            # Steps until an active chain is selected: geometric(active/N).
            new_steps = steps + int(log(uni.next_nonzero()) / log1p(-active / N)) + 1
        else:
            new_steps = steps + 1
        if new_steps > max_steps:
            raise MaxStepsExceeded(new_steps, OccupancyState(N=N, counts={0: absorbed, **counts}))
        # Target steps before this move see the state the last move left.
        while nxt < new_steps:
            seen.append(absorbed)
            nxt = next(pending, math.inf)
        steps = new_steps
        if skip:
            r = uni.next() * active
        else:
            r = uni.next() * N
            if r < absorbed:
                continue
            r -= absorbed
        acc = 0
        x = 0
        for s, c in counts.items():
            acc += c
            x = s
            if r < acc:
                break
        y = _pick_destination(tables.row(x), uni.next())
        if y != x:
            c = counts[x] - 1
            if c:
                counts[x] = c
            else:
                del counts[x]
            if y == 0:
                absorbed += 1
                active -= 1
            else:
                counts[y] = counts.get(y, 0) + 1
    seen.extend([absorbed] * (len(targets) - len(seen)))
    return steps, seen


def run_to_absorption(
    chain: AbsorbingChain,
    initial: OccupancyState,
    rng,
    max_steps=DEFAULT_MAX_STEPS,
    skip=True,
) -> int:
    """First step index at which every chain occupies state 0.

    Raises MaxStepsExceeded (with the steps consumed and the final counts)
    when the cap is hit first.
    """
    return _run(_RowTables(chain), initial, rng, skip, max_steps)[0]


def _replication_rng(seed, rep):
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def _run_block(chain, initial, seed, reps, skip, max_steps):
    tables = _RowTables(chain)
    out = []
    for rep in reps:
        rng = _replication_rng(seed, rep)
        try:
            out.append((rep, _run(tables, initial, rng, skip, max_steps)[0]))
        except MaxStepsExceeded:
            out.append((rep, None))
    return out


def estimate_hitting_time(
    chain: AbsorbingChain,
    initial: OccupancyState,
    runs,
    seed,
    skip=True,
    max_steps=DEFAULT_MAX_STEPS,
    workers=None,
) -> SimulationResult:
    """Independent replications of the absorption time.

    Replication r draws from a generator seeded with the pair (seed, r), so
    results do not depend on scheduling order and the same arguments always
    reproduce the same samples. Replications hitting max_steps are excluded
    from the statistics and counted in failed_runs. Set workers (or the
    FLUIDHIT_THREADS environment variable) above 1 to run replications in
    parallel processes.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if workers is None:
        workers = int(os.environ.get("FLUIDHIT_THREADS", "1") or 1)
    reps = list(range(runs))
    if workers > 1 and runs > 1:
        chunk = (runs + workers - 1) // workers
        blocks = [reps[i : i + chunk] for i in range(0, runs, chunk)]
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_block, chain, initial, seed, block, skip, max_steps)
                for block in blocks
            ]
            for fut in futures:
                results.extend(fut.result())
    else:
        results = _run_block(chain, initial, seed, reps, skip, max_steps)

    results.sort(key=lambda pair: pair[0])
    samples = [steps for _, steps in results if steps is not None]
    failed = runs - len(samples)
    if not samples:
        raise MaxStepsExceeded(max_steps, initial)
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    if len(samples) >= 2:
        stderr = float(arr.std(ddof=1) / math.sqrt(len(samples)))
        ci95 = 1.96 * stderr
    else:
        stderr = None
        ci95 = None
    return SimulationResult(
        samples=tuple(samples),
        mean=mean,
        stderr=stderr,
        ci95=ci95,
        runs=runs,
        seed=seed,
        failed_runs=failed,
    )


def simulate_trajectory(
    chain: AbsorbingChain,
    initial: OccupancyState,
    rescaled_grid,
    rng,
    skip=True,
    max_steps=DEFAULT_MAX_STEPS,
) -> TrajectorySample:
    """Absorbed fraction of a single run at steps floor(tN) for grid times t."""
    grid = np.asarray(rescaled_grid, dtype=float)
    if grid.size and (np.any(np.diff(grid) < 0) or grid[0] < 0):
        raise ValueError("rescaled grid must be nonnegative and nondecreasing")
    N = initial.N
    targets = [int(math.floor(t * N)) for t in grid]
    _, absorbed = _run(_RowTables(chain), initial, rng, skip, max_steps, targets)
    return TrajectorySample(
        rescaled_times=grid, m0_fractions=np.asarray(absorbed, dtype=float) / N
    )

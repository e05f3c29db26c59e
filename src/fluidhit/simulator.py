"""Monte Carlo simulation of the N-chain system.

The scheduler picks one of the N chains uniformly at random per step and
moves it by one row of P; T_N is the first step at which all N chains sit
in state 0.

estimate_hitting_time samples T_N exactly by Poissonization (as for the
coupon collector: Flajolet, Gardy & Thimonier, Discrete Appl. Math. 39,
1992). Run the scheduler on a rate-1 Poisson clock: chain j is then picked
at rate 1/N independently of the others, and absorbs after K_j of its own
P-steps at time A_j ~ Gamma(K_j, scale N). With tau = max_j A_j, given
the A_j the picks of chain j in (A_j, tau] are independent Poisson counts
of mean (tau - A_j) / N, so

    T_N = sum_j K_j + Poisson(sum_j (tau - A_j) / N)

in law. The K_j come from walking all chains' jump chains at once: the
sojourn in state x is geometric with success 1 - P_xx, and one table lookup
per round draws every destination. No Python work is done per scheduler
step; only the last few unabsorbed chains are walked one at a time.

The reference stepper (estimate_hitting_time with skip=False, and
run_to_absorption, simulate_trajectory and step) runs the occupancy
process, the vector of per-state counts. The N labeled chains are
exchangeable, so the counts are a Markov chain with the same law for the
hitting time and the absorbed fraction; memory is O(occupied states)
instead of O(N). With skip, selections of absorbed chains (self-loops of
the occupancy process) are drawn in one geometric jump, which changes the
distribution of nothing observable.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chain_model import AbsorbingChain, InitialDistribution, _walk_to_exit, decompose
from .errors import MaxStepsExceeded

DEFAULT_MAX_STEPS = 10**9

# The Poissonized sampler moves its unabsorbed chains in vectorized jump
# rounds while more than this many remain, then walks the rest one chain at
# a time. A round costs about 24 us of numpy calls whatever its size, a
# scalar jump 1.5-3 us, so below about this many chains the scalar walk is
# the cheaper way to finish (per-run times are flat from 8 to 24).
_SCALAR_TAIL = 16


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
    """Buffered uniforms: amortizes the numpy call overhead over blocks.

    random() and geometric(p) stand in for a numpy Generator's methods of
    the same names, with a stream of their own.
    """

    __slots__ = ("_rng", "_buf", "_i", "_n")

    def __init__(self, rng, block=8192):
        self._rng = rng
        self._buf = rng.random(block)
        self._n = block
        self._i = 0

    def random(self):
        i = self._i
        if i >= self._n:
            self._buf = self._rng.random(self._n)
            i = 0
        self._i = i + 1
        return self._buf[i]

    def geometric(self, p):
        """Trials up to the first success of probability p, by inversion."""
        if p >= 1.0:
            return 1
        u = self.random()
        while u <= 0.0:
            u = self.random()
        return int(math.log(u) / math.log1p(-p)) + 1


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
    y = chain._destinations.draw(x, rng.random())
    if y == x:
        return state
    counts = dict(state.counts)
    counts[x] -= 1
    counts[y] = counts.get(y, 0) + 1
    return OccupancyState(N=N, counts=counts)


def _run(chain, initial: OccupancyState, rng, skip, max_steps, targets=()):
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
    draw = chain._destinations.draw
    while active > 0 and steps < last:
        if skip and absorbed:
            # Steps until an active chain is selected: geometric(active/N).
            new_steps = steps + uni.geometric(active / N)
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
            r = uni.random() * active
        else:
            r = uni.random() * N
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
        y = draw(x, uni.random())
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
    return _run(chain, initial, rng, skip, max_steps)[0]


def _replication_rng(seed, rep):
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


class _Poissonized:
    """T_N by the Poissonization identity of the module docstring.

    Holds what every replication shares: the jump table, the geometric
    success 1 - P_xx per transient state and the start state of each
    unabsorbed chain. Calling it with a generator returns one sample of
    T_N, or None when the sample would exceed max_steps.
    """

    def __init__(self, chain, initial: OccupancyState, max_steps):
        sub = decompose(chain)
        self._table = sub._jump_chain
        self._rates = -sub.Q.diagonal()
        with np.errstate(divide="ignore"):
            # -inf where P_xx = 0, which makes every sojourn there 1 step.
            self._log_stay = np.log1p(-self._rates)
        self._exit = sub.n_transient
        self._N = initial.N
        self._absorbed = initial.absorbed
        active = [(s, c) for s, c in initial.counts.items() if s != 0]
        self._starts = np.repeat(
            np.array([s - 1 for s, _ in active], dtype=np.int64), [c for _, c in active]
        )
        self._max_steps = max_steps

    def __call__(self, rng):
        states = self._starts
        chains = np.arange(states.size)
        jumps = np.zeros(states.size, dtype=np.int64)
        total = 0
        while chains.size > _SCALAR_TAIL:
            u = rng.random((2, chains.size))
            # Geometric sojourns by inversion, the rule of _Uniforms.geometric.
            sojourns = (np.log(1.0 - u[0]) / self._log_stay[states]).astype(np.int64) + 1
            jumps[chains] += sojourns
            total += int(sojourns.sum())
            # T_N >= sum_j K_j, so the run already fails.
            if total > self._max_steps:
                return None
            states = self._table.draw_many(states, u[1])
            alive = states != self._exit
            chains, states = chains[alive], states[alive]
        if chains.size:
            uniforms = _Uniforms(rng, block=64)
            draw = self._table.draw
            for j, x in zip(chains.tolist(), states.tolist()):
                budget = self._max_steps - total
                k = _walk_to_exit(x, self._rates, draw, self._exit, uniforms, budget)
                total += k
                if total > self._max_steps:
                    return None
                jumps[j] += k
        if jumps.size > _SCALAR_TAIL:
            finish = rng.gamma(jumps, self._N)
        else:
            # Below the tail size scalar draws beat the array call's set-up.
            finish = np.array([rng.standard_gamma(k) for k in jumps.tolist()]) * self._N
        tau = float(finish.max(initial=0.0))
        late = float(np.sum(tau - finish)) + self._absorbed * tau
        steps = total + int(rng.poisson(late / self._N))
        return steps if steps <= self._max_steps else None


def _stepped(chain, initial, max_steps, rng):
    """T_N from the reference stepper, or None past max_steps."""
    try:
        return _run(chain, initial, rng, False, max_steps)[0]
    except MaxStepsExceeded:
        return None


def _run_block(sample, seed, reps):
    return [(rep, sample(_replication_rng(seed, rep))) for rep in reps]


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

    With skip (the default) each sample comes from the Poissonized sampler;
    skip=False runs the per-event reference stepper instead, for checking
    one against the other. Replication r draws from a generator seeded with
    the pair (seed, r), so results do not depend on scheduling order and
    the same arguments always reproduce the same samples. Replications whose
    absorption step exceeds max_steps are excluded from the statistics and
    counted in failed_runs. Set workers (or the FLUIDHIT_THREADS environment
    variable) above 1 to run replications in parallel processes.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if workers is None:
        workers = int(os.environ.get("FLUIDHIT_THREADS", "1") or 1)
    if skip:
        sample = _Poissonized(chain, initial, max_steps)
    else:
        sample = partial(_stepped, chain, initial, max_steps)
    reps = list(range(runs))
    if workers > 1 and runs > 1:
        chunk = (runs + workers - 1) // workers
        blocks = [reps[i : i + chunk] for i in range(0, runs, chunk)]
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, sample, seed, block) for block in blocks]
            for fut in futures:
                results.extend(fut.result())
    else:
        results = _run_block(sample, seed, reps)

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
    _, absorbed = _run(chain, initial, rng, skip, max_steps, targets)
    return TrajectorySample(
        rescaled_times=grid, m0_fractions=np.asarray(absorbed, dtype=float) / N
    )

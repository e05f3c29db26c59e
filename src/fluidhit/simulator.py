"""Monte Carlo simulation of the N-chain system.

The scheduler picks one of the N chains uniformly at random per step and
moves it by one row of P; T_N is the first step at which all N chains sit
in state 0, and M^N(n) is the number of absorbed chains after step n.

Both are sampled exactly by Poissonization (as for the coupon collector:
Flajolet, Gardy & Thimonier, Discrete Appl. Math. 39, 1992). Run the
scheduler on a rate-1 Poisson clock: chain j is then picked at rate 1/N
independently of the others, and absorbs after K_j of its own P-steps at
time A_j ~ Gamma(K_j, scale N). The K_j come from walking all chains' jump
chains at once: the sojourn in state x is geometric with success 1 - P_xx,
and one table lookup per round draws every destination. No Python work is
done per scheduler step; only the last few unabsorbed chains of each run
are walked one at a time.

Replications share their jump rounds: a batch of them moves in one sweep,
yet replication r draws only from its own generator, in the order and the
shapes of a lone run. Its sample thus depends neither on the number of
runs nor on its batch mates.

For T_N alone: with tau = max_j A_j, given the A_j the picks of chain j in
(A_j, tau] are independent Poisson counts of mean (tau - A_j) / N, so

    T_N = sum_j K_j + Poisson(sum_j (tau - A_j) / N)

in law (a chain absorbed from the start adds tau / N). For the whole path:
given A_j, the first K_j - 1 picks of chain j are uniform on [0, A_j], and
between consecutive absorption times the a chains already in state 0 are
picked Poisson(a gap / N) times. The m-th absorption in time order is thus
scheduler step

    S_m = m + #{picks before absorption, earlier than A_(m)}
            + #{picks of absorbed chains up to A_(m)},

and M^N(n) is the start's absorbed count plus #{m : S_m <= n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain_model import AbsorbingChain, InitialDistribution, decompose
from .errors import MaxStepsExceeded
from .fluid import _time_grid

DEFAULT_MAX_STEPS = 10**9

# The Poissonized sampler moves each replication's unabsorbed chains in
# vectorized jump rounds while more than this many of them remain, then
# walks the rest one chain at a time. The rule holds per replication inside
# a shared sweep: a replication leaves the rounds while its batch mates go
# on. A round costs about 24 us of numpy calls whatever its size, a scalar
# jump 1.5-3 us, so below about this many chains the scalar walk is the
# cheaper way to finish (per-run times are flat from 8 to 24).
_SCALAR_TAIL = 16

# Replications share their jump rounds in batches of about this many
# unabsorbed chains in all, at least one replication per batch, so a
# round's fixed numpy cost is paid once per batch and not once per run.
# Larger batches put several runs of 10^4 chains together, which made
# them slower and raised the peak memory.
_BATCH_CHAINS = 1 << 14


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


def _replication_rng(seed, rep):
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


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


class _Poissonized:
    """The Poissonized sampler of the module docstring for one start.

    Holds what every replication shares: the jump table, the geometric
    success 1 - P_xx per transient state and the start state of each
    unabsorbed chain. Calling it with a list of generators returns one
    sample of T_N per generator, absorption_steps the steps S_m of one run;
    a run whose T_N would exceed max_steps gives None.
    """

    def __init__(self, chain, initial: OccupancyState, max_steps):
        sub = decompose(chain)
        top = max(initial.counts, default=0)
        if top > sub.n_transient:
            raise ValueError(
                f"start state {top} is not a state of the chain (states 0..{sub.n_transient})"
            )
        self._table = sub._jump_chain
        self._rates = sub.exit_rates
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

    def _absorptions(self, rngs):
        """Per generator, (K_j, sum_j K_j, A_j) over the unabsorbed chains,
        or None once sum_j K_j passes max_steps (T_N >= sum_j K_j, so the
        run fails).

        The replications share their jump rounds: their chains sit in one
        array, grouped by replication, and each round draws
        rngs[r].random((2, c_r)) for the c_r chains of replication r, just
        as a lone run would. Replication r leaves the sweep once its total
        passes max_steps or _SCALAR_TAIL or fewer of its chains remain.
        """
        n = self._starts.size
        jumps = np.zeros((len(rngs), n), dtype=np.int64)
        if n <= _SCALAR_TAIL:
            every = np.arange(n)
            return [self._finish(rng, row, 0, every, self._starts) for rng, row in zip(rngs, jumps)]
        drawn = [None] * len(rngs)
        totals = np.zeros(len(rngs), dtype=np.int64)
        live = np.arange(len(rngs))
        counts = np.full(live.size, n)
        chains = np.arange(jumps.size)
        states = np.tile(self._starts, live.size)
        flat = jumps.reshape(-1)
        while live.size:
            u = np.concatenate(
                [rngs[r].random((2, c)) for r, c in zip(live.tolist(), counts.tolist())], axis=1
            )
            # Geometric sojourns by inversion, the rule of _Uniforms.geometric.
            sojourns = (np.log(1.0 - u[0]) / self._log_stay[states]).astype(np.int64) + 1
            flat[chains] += sojourns
            first = np.cumsum(counts) - counts
            totals[live] += np.add.reduceat(sojourns, first)
            states = self._table.draw_many(states, u[1])
            alive = states != self._exit
            left = np.add.reduceat(alive, first, dtype=np.int64)
            done = (left <= _SCALAR_TAIL) | (totals[live] > self._max_steps)
            for i in np.flatnonzero(done).tolist():
                r = int(live[i])
                if totals[r] <= self._max_steps:
                    rows = slice(first[i], first[i] + counts[i])
                    mine = alive[rows]
                    tail = chains[rows][mine] - r * n, states[rows][mine]
                    drawn[r] = self._finish(rngs[r], jumps[r], int(totals[r]), *tail)
            alive &= np.repeat(~done, counts)
            chains, states = chains[alive], states[alive]
            live, counts = live[~done], left[~done]
        return drawn

    def _finish(self, rng, jumps, total, chains, states):
        """One replication's scalar walk of its last chains, then its A_j."""
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
        return jumps, total, rng.standard_gamma(jumps) * self._N

    def __call__(self, rngs):
        """One sample of T_N per generator, None where the run fails."""
        samples = []
        for rng, drawn in zip(rngs, self._absorptions(rngs)):
            if drawn is None:
                samples.append(None)
                continue
            _, total, finish = drawn
            tau = float(finish.max(initial=0.0))
            late = float(np.sum(tau - finish)) + self._absorbed * tau
            steps = total + int(rng.poisson(late / self._N))
            samples.append(steps if steps <= self._max_steps else None)
        return samples

    def absorption_steps(self, rng):
        """The increasing steps S_m at which one run's unabsorbed chains absorb."""
        (drawn,) = self._absorptions([rng])
        if drawn is None:
            return None
        jumps, total, finish = drawn
        times = np.sort(finish)
        early = np.sort(rng.random(total - jumps.size) * np.repeat(finish, jumps - 1))
        absorbed = self._absorbed + np.arange(times.size)
        late = rng.poisson(absorbed * np.diff(times, prepend=0.0) / self._N)
        steps = np.arange(1, times.size + 1) + np.searchsorted(early, times) + np.cumsum(late)
        if steps.size and steps[-1] > self._max_steps:
            return None
        return steps


def estimate_hitting_time(
    chain: AbsorbingChain,
    initial: OccupancyState,
    runs,
    seed,
    max_steps=DEFAULT_MAX_STEPS,
) -> SimulationResult:
    """Independent replications of the absorption time T_N.

    Replication r draws from a generator seeded with the pair (seed, r), so
    the same arguments always reproduce the same samples. Replications move
    through shared jump rounds in batches of about _BATCH_CHAINS chains, yet
    each draws only from its own generator: replication r's sample does not
    depend on runs. Replications whose absorption step exceeds max_steps
    are excluded from the statistics and counted in failed_runs.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    sample = _Poissonized(chain, initial, max_steps)
    batch = max(1, _BATCH_CHAINS // max(sample._starts.size, 1))
    samples = []
    for first in range(0, runs, batch):
        rngs = [_replication_rng(seed, rep) for rep in range(first, min(first + batch, runs))]
        samples += [steps for steps in sample(rngs) if steps is not None]
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
    max_steps=DEFAULT_MAX_STEPS,
) -> TrajectorySample:
    """Absorbed fraction of a single run at steps floor(tN) for grid times t.

    Raises MaxStepsExceeded when the run's T_N exceeds max_steps, the rule
    by which estimate_hitting_time counts a run as failed.
    """
    grid = _time_grid(rescaled_grid)
    steps = _Poissonized(chain, initial, max_steps).absorption_steps(rng)
    if steps is None:
        raise MaxStepsExceeded(max_steps, initial)
    N = initial.N
    absorbed = initial.absorbed + np.searchsorted(steps, np.floor(grid * N), side="right")
    return TrajectorySample(rescaled_times=grid, m0_fractions=absorbed / N)

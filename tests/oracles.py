"""Independent oracles used by the tests.

Each routine computes a reference value along a path disjoint from the
library implementation it checks: a fixed-step Runge-Kutta integrator for
the fluid ODE, a full enumeration of the occupancy Markov chain for exact
absorption expectations, memoized path recursion for jump counts, a
scalar root finder for Erlang crossing times, a bisection on
scipy.linalg.expm for the crossing times of other chains (expm_crossing), a
step-by-step scan for the discrete threshold x_N, and a per-event stepper of
the occupancy process for hitting times and trajectories.

It also holds the routines that only tests read:
  random_chain            the seeded generator of random validated chains;
  rare_exit_matrix        a seeded stiff chain, whose exits are rare;
  coupon_bound            the paper's T-copy coupon-collector bound, checked
                          against theorem2_asymptotic and theorem4_bound;
  stochastic_order_check  the replay of the geometric-vs-exponential
                          coupling in the paper's proof (criterion 11);
  sample_absorption_step  a sampler of the discrete phase-type variable,
                          checked against discrete_survival.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.sparse.csgraph import dijkstra

from fluidhit import (
    AbsorbingChain,
    OccupancyState,
    PhaseType,
    SubGenerator,
    TrajectorySample,
    validate_chain,
)
from fluidhit.chain_model import _Destinations
from fluidhit.errors import ChainValidationError, MaxStepsExceeded, ScaleTooSmall
from fluidhit.simulator import DEFAULT_MAX_STEPS, _replication_rng, _Uniforms, _walk_to_exit


def sub_generator(Q, Q0=None):
    """SubGenerator of hand-written rates Q, dense or sparse, unchecked.

    The rates need not come from a transition matrix (-Q_ii may exceed 1);
    Q0 defaults to the negated row sums of Q.
    """
    Q = sp.csr_array(Q, dtype=float)
    if Q0 is None:
        Q0 = np.maximum(-Q.sum(axis=1), 0.0)
    return SubGenerator(Q=Q, Q0=np.asarray(Q0, dtype=float))


def constant_exit_matrix(rng, S, exit_prob):
    """Dense P whose every transient row exits to 0 with exit_prob.

    The rest of each row is spread over all transient states, itself
    included, by exponential weights, so the survival from any start is
    exactly exp(-exit_prob t) and every W(x) is 1 / exit_prob.
    """
    w = rng.exponential(size=(S, S))
    P = np.zeros((S + 1, S + 1))
    P[0, 0] = 1.0
    P[1:, 0] = exit_prob
    P[1:, 1:] = (1.0 - exit_prob) * w / w.sum(axis=1, keepdims=True)
    return P


def rare_exit_matrix(rng, S, low, high):
    """Dense P whose transient rows exit to 0 with probabilities uniform in [low, high].

    The rest of each row is spread over all transient states, itself
    included, by exponential weights: a stiff chain, whose survival decays
    at a rate between low and high while c = max(-Q_ii) is near 1.
    """
    exits = rng.uniform(low, high, size=S)
    w = rng.exponential(size=(S, S))
    P = np.zeros((S + 1, S + 1))
    P[0, 0] = 1.0
    P[1:, 0] = exits
    P[1:, 1:] = (1.0 - exits)[:, None] * w / w.sum(axis=1, keepdims=True)
    return P


def expm_crossing(Q, alpha, epsilon):
    """First t with alpha expm(Q t) 1 <= epsilon, by bisection on scipy.linalg.expm.

    Q is dense. The bracket doubles from t = 1 and is halved until it is
    within 1e-13 relative; returns its upper end.
    """
    ones = np.ones(Q.shape[0])

    def survival(t):
        return float(alpha @ expm(Q * t) @ ones)

    lo, hi = 0.0, 1.0
    while survival(hi) > epsilon:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if survival(mid) > epsilon:
            lo = mid
        else:
            hi = mid
    return hi


def random_chain(rng, n_transient: int, density: float = 0.7) -> AbsorbingChain:
    """Seeded random validated chain, for tests.

    Rows are normalized exponential weights over a random support; retries
    until the transience check passes, falling back to full support.
    """
    S = n_transient
    for attempt in range(60):
        P = np.zeros((S + 1, S + 1))
        P[0, 0] = 1.0
        for i in range(1, S + 1):
            w = rng.exponential(size=S + 1)
            if attempt < 50:
                w *= rng.random(S + 1) < density
            if w.sum() <= 0:
                w[int(rng.integers(0, S + 1))] = 1.0
            P[i] = w / w.sum()
        try:
            return validate_chain(P)
        except ChainValidationError:
            continue
    raise RuntimeError("random_chain failed to produce a valid chain")

def rk4_absorbed_fraction(P_dense, initial_full, t_grid, h=0.01):
    """Integrate the full-space ODE dm/dt = m (P - I) with fixed-step RK4.

    initial_full is the distribution over all S+1 states (index 0 first).
    Returns m_0(t) at the grid points. Step size 0.01 keeps the local error
    of the fourth-order scheme below 1e-10 for generators of norm O(1).
    """
    P = np.asarray(P_dense, dtype=float)
    G = P - np.eye(P.shape[0])
    m = np.asarray(initial_full, dtype=float).copy()
    out = []
    t_now = 0.0
    for t in t_grid:
        span = t - t_now
        if span > 0:
            steps = max(1, int(math.ceil(span / h)))
            dt = span / steps
            for _ in range(steps):
                k1 = m @ G
                k2 = (m + 0.5 * dt * k1) @ G
                k3 = (m + 0.5 * dt * k2) @ G
                k4 = (m + dt * k3) @ G
                m = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t_now = t
        out.append(m[0])
    return np.asarray(out)


def occupancy_states(N, n_states):
    """All occupancy vectors: compositions of N into n_states parts."""
    if n_states == 1:
        return [(N,)]
    out = []
    for first in range(N + 1):
        for rest in occupancy_states(N - first, n_states - 1):
            out.append((first,) + rest)
    return out


def occupancy_transitions(P_dense, N):
    """Occupancy vectors of N chains and the one-step transition matrix.

    Pick state x with probability counts[x]/N, then move by row x of P.
    Only viable at desk scale (N <= 4, S <= 3).
    """
    P = np.asarray(P_dense, dtype=float)
    n_states = P.shape[0]
    states = occupancy_states(N, n_states)
    index = {c: i for i, c in enumerate(states)}
    T = np.zeros((len(states), len(states)))
    for c, i in index.items():
        for x in range(n_states):
            if c[x] == 0:
                continue
            pick = c[x] / N
            for y in range(n_states):
                p = P[x, y]
                if p == 0.0:
                    continue
                if y == x:
                    dest = c
                else:
                    dest = list(c)
                    dest[x] -= 1
                    dest[y] += 1
                    dest = tuple(dest)
                T[i, index[dest]] += pick * p
    return states, index, T


def exact_occupancy_mean_hitting(P_dense, initial_counts):
    """Exact E[T_N] by solving the absorption system of the occupancy chain.

    Solves E[c] = 1 + sum_c' p(c -> c') E[c'] with E = 0 at the
    all-absorbed state, over every occupancy vector.
    """
    N = sum(initial_counts)
    states, index, T = occupancy_transitions(P_dense, N)
    A = np.eye(len(states)) - T
    b = np.ones(len(states))
    done = index[tuple([N] + [0] * (len(initial_counts) - 1))]
    A[done, :] = 0.0
    A[done, done] = 1.0
    b[done] = 0.0
    sol = np.linalg.solve(A, b)
    return sol[index[tuple(initial_counts)]]


def exact_occupancy_absorbed_law(P_dense, initial_counts, steps):
    """Exact law of the absorbed count after each step in sorted steps.

    Row k is P(M(steps[k]) = a) for a = 0..N, by pushing the start's
    point mass through the occupancy transition matrix.
    """
    N = sum(initial_counts)
    states, index, T = occupancy_transitions(P_dense, N)
    absorbed = np.array([c[0] for c in states])
    dist = np.zeros(len(states))
    dist[index[tuple(initial_counts)]] = 1.0
    out = []
    done = 0
    for n in steps:
        for _ in range(n - done):
            dist = dist @ T
        done = n
        out.append(np.bincount(absorbed, weights=dist, minlength=N + 1))
    return np.array(out)


def brute_jump_counts(R_dense):
    """Expected jumps before absorption from each state, by DAG recursion.

    E[i] = 1 + sum_j R_ij E[j], evaluated by memoized depth-first recursion;
    raises on cyclic jump structure (only acyclic test chains qualify).
    """
    R = np.asarray(R_dense, dtype=float)
    n = R.shape[0]
    memo = {}
    visiting = set()

    def rec(i):
        if i in memo:
            return memo[i]
        if i in visiting:
            raise ValueError("jump structure has a cycle; oracle needs a DAG")
        visiting.add(i)
        total = 1.0
        for j in range(n):
            if R[i, j] > 0.0:
                total += R[i, j] * rec(j)
        visiting.discard(i)
        memo[i] = total
        return total

    return np.array([rec(i) for i in range(n)])


def erlang_survival(T, t):
    """P(Erlang(T, 1) > t) by direct summation."""
    return math.fsum(
        math.exp(-t) * t**k / math.factorial(k) for k in range(T)
    )


def erlang_crossing(T, epsilon, hi=1000.0):
    """Scalar root of erlang_survival(T, t) = epsilon via Brent's method."""
    return brentq(lambda t: erlang_survival(T, t) - epsilon, 0.0, hi, xtol=1e-12)


def coupon_bound(T, N) -> float:
    """Bound for collecting T copies of each of N coupons:
    N ln N + (T-1) N ln ln N + (T+2) N."""
    if N < 3:
        raise ValueError("N must be at least 3 for ln ln N > 0")
    if T < 1:
        raise ValueError("T must be at least 1")
    return N * math.log(N) + (T - 1) * N * math.log(math.log(N)) + (T + 2) * N


def stochastic_order_check(qii, N, t_grid) -> bool:
    """Replay of the geometric-vs-exponential coupling inequality.

    Verifies on the grid that the rescaled geometric sojourn is dominated by
    the exponential sojourn shifted by one step:
    P(Geom(-qii/N) >= tN) = (1 + qii/N)^ceil(tN)
    <= P(Exp(-qii) + 1/N >= t) = min(1, exp(qii (t - 1/N))).
    Holds at every t >= 0; returning False signals an internal inconsistency.
    """
    if qii >= 0:
        raise ValueError("qii must be negative")
    if N < -qii:
        raise ScaleTooSmall(f"N = {N} below -qii = {-qii}")
    base = 1.0 + qii / N
    for t in np.asarray(t_grid, dtype=float):
        if t < 0:
            raise ValueError("grid times must be nonnegative")
        lhs = base ** math.ceil(t * N)
        rhs = min(1.0, math.exp(qii * (t - 1.0 / N)))
        if lhs > rhs * (1.0 + 1e-12):
            return False
    return True

def threshold_scan(Q, alpha, N, max_steps):
    """Smallest k <= max_steps with alpha (I + Q/N)^k 1 <= 2/N, one step per k.

    Mass that starts on alpha's support reaches only states within k
    transitions in k steps, so the scan runs on the states within max_steps
    transitions alone (the countdown chains then stay small). Raises
    AssertionError when the survival is still above 2/N at max_steps.
    """
    Q = sp.csr_array(Q)
    alpha = np.asarray(alpha, dtype=float)
    hops = dijkstra(abs(Q), indices=np.flatnonzero(alpha), min_only=True, unweighted=True,
                    limit=max_steps)
    keep = np.flatnonzero(np.isfinite(hops))
    n = keep.size
    # Column form: Bt @ v steps the row vector v by one multiplication with I + Q/N.
    Bt = (sp.eye(n, format="csr") + Q[keep][:, keep] / N).T.tocsr()
    if n <= 500:  # a small dense product costs less than scipy's sparse call
        Bt = Bt.toarray()
    v = alpha[keep]
    target = 2.0 / N
    for k in range(max_steps + 1):
        if v.sum() <= target:
            return k
        v = Bt @ v
    raise AssertionError(f"survival still above 2/N after {max_steps} steps")


def sample_absorption_step(pt: PhaseType, rng) -> int:
    """One sample of the discrete phase-type variable by chain simulation.

    Walks the chain of transition matrix I + Q/N; the sojourn in each state
    is geometric with success -Q_ii/N and is drawn in one shot, which leaves
    the law unchanged. Returns the first step index at which the chain sits
    in state 0 (0 when the initial draw lands on state 0).
    """
    u = rng.random()
    if u < pt.alpha.mass0:
        return 0
    acc = pt.alpha.mass0
    state = pt.sub.n_transient - 1
    for i, a in enumerate(pt.alpha.alpha):
        acc += a
        if u < acc:
            state = i
            break

    rates = -pt.sub.Q.diagonal() / pt.scale
    return _walk_to_exit(state, rates, pt.sub._jump_chain.draw, pt.sub.n_transient, rng)

def empirical_survival(samples, k):
    """Fraction of samples >= k... evaluated with the strict convention
    P(X > k) to match the discrete phase-type survival alpha (I+Q/N)^k 1."""
    arr = np.asarray(samples)
    return float(np.mean(arr > k))


def ks_two_sample_stat(a, b):
    """Two-sample Kolmogorov-Smirnov statistic on integer samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.unique(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


# The per-event reference stepper of the occupancy process, the vector of
# per-state counts. The N labeled chains are exchangeable, so the counts
# are a Markov chain with the same law for the hitting time and the
# absorbed fraction; memory is O(occupied states) instead of O(N). With
# skip, selections of absorbed chains (self-loops of the occupancy process)
# are drawn in one geometric jump, which changes the distribution of
# nothing observable. It shares no sampling code with the library's
# Poissonized sampler, only the destination-table class and the buffered
# uniforms, so its draws stay those of the stepper the library once ran.


def _destinations(chain):
    """Destination draws from P's rows, built once per chain object."""
    return chain.__dict__.setdefault("_stepper_destinations", _Destinations(chain.P))


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
    y = _destinations(chain).draw(x, rng.random())
    if y == x:
        return state
    counts = dict(state.counts)
    counts[x] -= 1
    counts[y] = counts.get(y, 0) + 1
    return OccupancyState(N=N, counts=counts)


def _run(chain, initial: OccupancyState, rng, skip, max_steps, targets=()):
    """The select-and-move loop behind run_to_absorption and stepped_trajectory.

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
    draw = _destinations(chain).draw
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



def stepped_hitting_times(chain, initial, runs, seed, max_steps=DEFAULT_MAX_STEPS):
    """T_N of replications 0..runs-1 without skip, seeded as the library seeds.

    Replications past max_steps are left out, as the library leaves out
    failed runs.
    """
    samples = []
    for rep in range(runs):
        try:
            samples.append(_run(chain, initial, _replication_rng(seed, rep), False, max_steps)[0])
        except MaxStepsExceeded:
            pass
    return samples


def stepped_trajectory(chain, initial, rescaled_grid, rng, skip=True, max_steps=DEFAULT_MAX_STEPS):
    """Absorbed fraction of one stepped run at steps floor(tN) for grid times t."""
    grid = np.asarray(rescaled_grid, dtype=float)
    N = initial.N
    targets = [int(math.floor(t * N)) for t in grid]
    _, absorbed = _run(chain, initial, rng, skip, max_steps, targets)
    return TrajectorySample(
        rescaled_times=grid, m0_fractions=np.asarray(absorbed, dtype=float) / N
    )

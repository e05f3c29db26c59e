"""Fluid (mean-field) approximation of the absorbed fraction.

The occupancy fractions of the N-chain system follow, as N grows, the
linear ODE whose drift is the full-space generator P - I. The absorbed
fraction is evaluated through the transient block only:
m0(t) = 1 - alpha exp(Qt) 1, which is algebraically identical to
integrating the full ODE and reuses the uniformized exponential action.
The crossing time t_N (mass 1/N left) comes from one search for every
caller, limited only by the survival series' term budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain_model import InitialDistribution, SubGenerator
from .errors import BracketingFailure
from .numerics import _SurvivalSeries, expm_action


def transient_survival(alpha: InitialDistribution, sub: SubGenerator, t):
    """alpha exp(Qt) 1: transient mass remaining at time t.

    t is a float, read as the one-point grid [t] and returned as a float,
    or a finite, nonnegative, nondecreasing array of times, returned as the
    array of survivals. expm_action carries alpha to the first time t_0,
    and every point is read off one survival series of that vector
    (numerics._SurvivalSeries) at t_i - t_0: one B = I + Q/c, with
    c = max(-Q_ii), and at most about c (max(t) - t_0) series terms in all
    (fewer once the series settles into its geometric tail); a lone t is
    the series' first sum. The Poisson windows are built in batches, each
    by one call as the rows of one array of at most
    numerics.WINDOW_ENTRIES entries, and only for the rows whose windows
    reach the series' last stepped sum or whose tilted mean c t r does not
    pass it: every later row reads the closed form of the known tail, 0
    past a walk's end, with no window. The carry
    and the series step one walk each (numerics._row_iterates), which ends
    at its first zero iterate: a read far past the end of a nilpotent B,
    such as a countdown's, takes at most n + 1 steps for n transient
    states, scalar or grid. Each value truncates at most 1e-15 of the
    mass.
    """
    grid = _time_grid(np.atleast_1d(t))
    if not grid.size:
        return np.empty(0)
    series = _SurvivalSeries(sub, expm_action(sub.Q, alpha.alpha, grid[0]))
    return series.continuous(grid - grid[0] if np.ndim(t) else 0.0)


@dataclass(frozen=True)
class FluidTrajectory:
    """Fluid curve on a time grid: absorbed fraction and transient mass."""

    time_grid: np.ndarray
    m0_values: np.ndarray
    transient_mass: np.ndarray


def _time_grid(values):
    """values as a float array, checked finite, nonnegative and nondecreasing."""
    grid = np.asarray(values, dtype=float)
    ok = np.all(np.isfinite(grid)) and np.all(grid[:1] >= 0) and np.all(np.diff(grid) >= 0)
    if not ok:
        raise ValueError("time grid must be finite, nonnegative and nondecreasing")
    return grid


def fluid_trajectory(alpha, sub, time_grid) -> FluidTrajectory:
    """Evaluate the fluid curve on a finite, nonnegative, nondecreasing grid."""
    grid = _time_grid(time_grid)
    survival = transient_survival(alpha, sub, grid)
    return FluidTrajectory(
        time_grid=grid,
        m0_values=1.0 - survival,
        transient_mass=survival,
    )


class CrossingResult(NamedTuple):
    time: float
    already_below: bool


def crossing_time(alpha, sub, epsilon) -> CrossingResult:
    """First time the transient mass drops to epsilon (m0 reaches 1 - epsilon).

    Every probe reads one survival series s_j = alpha B^j 1 with
    B = I + Q/c and c = max(-Q_ii) (numerics._SurvivalSeries): B is built
    at most once (not at all on a sparse countdown started from one
    state), and a probe at t weights the s_j by Poisson(c t)
    probabilities, stepping the row iterate only past the terms earlier
    probes already summed, and not at all past a certified geometric tail.
    Returns (0, already_below=True) when the mass already starts at or
    below epsilon, as it always does at epsilon = 1. For the level of the
    hitting-time theorems call with epsilon = 1/N.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    series = _SurvivalSeries(sub, alpha.alpha)
    if series._sums[0] <= epsilon:  # S(0), the initial transient mass
        return CrossingResult(0.0, True)
    return _crossing(series, epsilon)


def _crossing(series, epsilon) -> CrossingResult:
    """Root of series.continuous(t) = epsilon for a series starting above epsilon.

    Brackets the level by doubling from 1/c (c = max(-Q_ii), the series'
    rate) up to the series' time limit TERM_BUDGET / c, and raises
    BracketingFailure only when the survival is still above epsilon there;
    then narrows the bracket by Illinois regula falsi (Dowell & Jarratt,
    BIT 11, 1971) on f(t) = log(S(t) / epsilon), which is nearly linear in
    t; the survival S is strictly decreasing, so the crossing is unique. An
    interpolated probe stays tol/2 inside the bracket. A probe falls back
    to the midpoint when f is -inf at an end (the survival underflowed to 0)
    or when the bracket failed to halve over the last two probes, so the
    bracket halves at least every third probe: the worst case is three
    probes per halving of bisection (about 130 from a doubled bracket),
    where smooth survivals take about 10 and bisection took 47. Stops at a
    1e-13 relative bracket and returns its midpoint, or earlier once both
    ends read the level to within 1e-14 in log(S / epsilon), a few times
    the survival's rounding and truncation error: on a plateau of the
    survival at epsilon every time in between is a crossing to working
    accuracy, and further probes would only chase rounding noise.
    """
    def excess(s):
        # log(s / epsilon), not log(s) - log(epsilon): near the root the
        # difference of two logs cancels to 0 and the interpolation stalls.
        return math.log(s / epsilon) if s > 0.0 else -math.inf

    t_lo, f_lo = 0.0, excess(series._sums[0])  # S(0), the series' first sum
    t_max = series.time_limit()
    t_hi = min(1.0 / series.c, t_max)
    while (s := series.continuous(t_hi)) > epsilon:
        if t_hi == t_max:
            raise BracketingFailure(
                f"survival still above {epsilon} at t = {t_hi:.6g}, the series' time limit"
            )
        t_lo, f_lo = t_hi, excess(s)
        t_hi = min(2.0 * t_hi, t_max)
    f_hi = excess(s)

    # Invariant: S(t_lo) > epsilon >= S(t_hi). At a 1e-13 relative bracket
    # the midpoint meets |survival - epsilon| within 1e-9 * epsilon with
    # orders of magnitude to spare. The stopping width never falls below
    # 1e-13 * max(t_lo, 1) and the bracket halves at least every third
    # probe, so three probes per halving always reach it.
    halvings = math.ceil(math.log2((t_hi - t_lo) / (1e-13 * max(t_lo, 1.0))))
    widths = [math.inf, math.inf]  # bracket widths before the last two probes
    last_moved_lo = None  # which end the last interpolated probe replaced
    for _ in range(3 * max(halvings, 0)):
        width = t_hi - t_lo
        tol = 1e-13 * max(t_hi, 1.0)
        if width <= tol or max(f_lo, -f_hi) <= 1e-14:
            break
        drop = f_lo - f_hi
        interpolated = 0.0 < drop < math.inf and width <= 0.5 * widths[0]
        if interpolated:
            # Keep the probe at least tol/2 inside, so that an end already
            # at the root closes the bracket instead of rounding onto it.
            t = t_lo + width * (f_lo / drop)
            t = min(max(t, t_lo + 0.5 * tol), t_hi - 0.5 * tol)
        else:
            t = 0.5 * (t_lo + t_hi)
        widths = [widths[1], width]
        s = series.continuous(t)
        moved_lo = s > epsilon
        if moved_lo:
            t_lo, f_lo = t, excess(s)
        else:
            t_hi, f_hi = t, excess(s)
        if interpolated:
            # Illinois: an end kept by two interpolated probes in a row has
            # its f halved, which pulls the next probe past the root.
            if moved_lo == last_moved_lo:
                if moved_lo:
                    f_hi *= 0.5
                else:
                    f_lo *= 0.5
            last_moved_lo = moved_lo
    return CrossingResult(0.5 * (t_lo + t_hi), False)

"""Fluid (mean-field) approximation of the absorbed fraction.

The occupancy fractions of the N-chain system follow, as N grows, the
linear ODE whose drift is the full-space generator P - I. The absorbed
fraction is evaluated through the transient block only:
m0(t) = 1 - alpha exp(Qt) 1, which is algebraically identical to
integrating the full ODE and reuses the uniformized exponential action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain_model import InitialDistribution, SubGenerator
from .errors import BracketingFailure
from .numerics import expm_action

_DOUBLING_CAP = 1e6


def transient_survival(alpha: InitialDistribution, sub: SubGenerator, t, tol=1e-15):
    """alpha exp(Qt) 1: transient mass remaining at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(np.sum(expm_action(sub.Q, alpha.alpha, t, tol=tol)))


def fluid_m0(alpha: InitialDistribution, sub: SubGenerator, t) -> float:
    """Absorbed fraction m0(t) = 1 - alpha exp(Qt) 1 of the fluid ODE."""
    return 1.0 - transient_survival(alpha, sub, t)


@dataclass(frozen=True)
class FluidTrajectory:
    """Fluid curve on a time grid: absorbed fraction and transient mass."""

    time_grid: np.ndarray
    m0_values: np.ndarray
    transient_mass: np.ndarray


def fluid_trajectory(alpha, sub, time_grid) -> FluidTrajectory:
    """Evaluate the fluid curve on an increasing nonnegative grid."""
    grid = np.asarray(time_grid, dtype=float)
    if grid.size and (np.any(np.diff(grid) < 0) or grid[0] < 0):
        raise ValueError("time grid must be nonnegative and nondecreasing")
    survival = np.array([transient_survival(alpha, sub, t) for t in grid])
    return FluidTrajectory(
        time_grid=grid,
        m0_values=1.0 - survival,
        transient_mass=survival,
    )


class CrossingResult(NamedTuple):
    time: float
    already_below: bool

    def __float__(self):
        return self.time


def crossing_time(alpha, sub, epsilon, nu_hint=None) -> CrossingResult:
    """First time the transient mass drops to epsilon (m0 reaches 1 - epsilon).

    Brackets the level by doubling from 1/nu_hint (or 1), then narrows the
    bracket by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on
    f(t) = log(S(t) / epsilon), which is nearly linear in t; the survival S
    is strictly decreasing, so the crossing is unique. An interpolated probe
    stays tol/2 inside the bracket. A probe falls back to the midpoint when
    f is -inf at an end (the survival underflowed to 0) or when the bracket
    failed to halve over the last two probes, so the bracket halves at
    least every third probe: the worst case is three probes per halving of
    bisection (about 130 from a doubled bracket), where smooth survivals
    take about 10 and bisection took 47. Stops at a 1e-13 relative bracket
    and returns its midpoint, or earlier once both ends read the level to
    within 1e-14 in log(S / epsilon), a few times the survival's rounding
    and truncation error: on a plateau of the survival at epsilon every time
    in between is a crossing to working accuracy, and further probes would
    only chase rounding noise. Returns (0, already_below=True) when
    the mass already starts at or below epsilon. For the level of the
    hitting-time theorems call with epsilon = 1/N.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    start_mass = alpha.transient_mass
    if start_mass <= epsilon:
        return CrossingResult(0.0, True)

    def excess(s):
        # log(s / epsilon), not log(s) - log(epsilon): near the root the
        # difference of two logs cancels to 0 and the interpolation stalls.
        return math.log(s / epsilon) if s > 0.0 else -math.inf

    t_lo, f_lo = 0.0, excess(start_mass)
    t_hi = 1.0 / nu_hint if nu_hint else 1.0
    while (s := transient_survival(alpha, sub, t_hi)) > epsilon:
        t_lo, f_lo = t_hi, excess(s)
        t_hi *= 2.0
        if t_hi > _DOUBLING_CAP:
            raise BracketingFailure(
                f"survival still above {epsilon} at t = {t_lo}; doubling cap reached"
            )
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
        s = transient_survival(alpha, sub, t)
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

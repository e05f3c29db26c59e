"""Phase-type distributions and tail-asymptotic (spectral) parameters.

The absorption time of a single chain has survival alpha exp(Qt) 1 in
continuous time (fluid.transient_survival) and alpha (I + Q/N)^k 1 when the
chain is one of N under random one-at-a-time scheduling (PhaseType). The tail
behaves like (gamma/nu) t^k exp(-nu t), where -nu is the eigenvalue of Q with
greatest real part and k + 1 its algebraic multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import InitialDistribution, SubGenerator
from .errors import DegenerateTail, NonConvergent, ScaleTooSmall
from .fluid import _crossing, transient_survival
from .numerics import _SurvivalSeries, dominant_eigen, eigen_spectrum

# x_threshold gallops over k = 1, 2, 4, ...; past 2^53 consecutive step
# counts are no longer distinct floats.
_GALLOP_CAP = 2**53

# The gamma fit samples the survival between its crossings of the two
# levels, and squares t^k e^{-nu t}: past e^(+-350) the square of one point
# leaves the normal float range.
_FIT_HI_LEVEL, _FIT_LO_LEVEL = 1e-4, 1e-8
_FIT_LOG_RANGE = 350.0

# An eigenvalue counts as a copy of -nu within _ROOT_TOL ||Q||. eigen_spectrum
# solves each strongly connected class on its own, and by Perron-Frobenius
# the dominant eigenvalue of a class is simple: each copy of -nu is one
# class's root, exact for a single state and within rounding for a larger
# class, never a scattered Jordan block. dominant_eigen brackets -nu to
# within 0.525e-10 max(-Q_ii), inside this tolerance.
_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class PhaseType:
    """Discrete phase-type distribution of parameters (alpha, I + Q/N).

    scale is the N of I + Q/N, which requires N >= max(-Q_ii); the continuous
    survival alpha exp(Qt) 1 is fluid.transient_survival.
    """

    alpha: InitialDistribution
    sub: SubGenerator
    scale: int

    def __post_init__(self):
        if self.scale < self.sub.max_exit_rate:
            raise ScaleTooSmall(
                f"scale N = {self.scale} below max(-Q_ii) = "
                f"{self.sub.max_exit_rate}; I + Q/N would go negative"
            )

    @classmethod
    def discrete(cls, alpha, sub, N):
        return cls(alpha=alpha, sub=sub, scale=int(N))


def discrete_survival(pt: PhaseType, k) -> float:
    """P(X >= k) = alpha (I + Q/N)^k 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _SurvivalSeries(pt.sub, pt.alpha.alpha).discrete(int(k), pt.scale)


def x_threshold(pt: PhaseType) -> int:
    """Smallest k with alpha (I + Q/N)^k 1 <= 2/N.

    The survival is nonincreasing in k, so a gallop over k = 1, 2, 4, ...
    brackets the threshold and an integer bisection closes the bracket. All
    evaluations read one survival series (numerics._SurvivalSeries with
    c = max(-Q_ii)): the survival at k is the Binomial(k, c/N)-weighted sum
    of s_j = alpha B^j 1, so the row iterate is stepped at most about
    2 k c/N times in all, not k times, and only a few dozen once the
    series settles into its geometric tail. The gallop is clamped to the
    smaller of 2^53 and the series' step limit, and raises NonConvergent
    when the survival is still above 2/N there.
    """
    target = 2.0 / pt.scale
    series = _SurvivalSeries(pt.sub, pt.alpha.alpha)

    def above(k):
        return series.discrete(k, pt.scale) > target

    if not above(0):
        return 0
    k_max = min(series.step_limit(pt.scale), _GALLOP_CAP)
    lo, hi = 0, 1  # above(lo) holds, above(hi) is to be found false
    while above(hi):
        if hi == k_max:
            raise NonConvergent(
                f"survival still above 2/N = {target:.3g} at k = {k_max}, where the "
                f"x_threshold gallop stops (2^53 or the series term budget)"
            )
        lo, hi = hi, min(2 * hi, k_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class SpectralParams:
    """Tail parameters: survival ~ (gamma/nu) t^k exp(-nu t).

    nu > 0 is the negated dominant eigenvalue of Q, k + 1 the number of
    eigenvalues within 1e-10 max(||Q||_inf, 1) of -nu (k = 0 when none is).
    gamma is an optional numerical estimate (never fabricated), present
    only when a tail fit was requested and succeeded.
    """

    nu: float
    k: int
    gamma: float | None = None

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")


def spectral_params(sub: SubGenerator, estimate_gamma=False, alpha=None) -> SpectralParams:
    """Compute (nu, k) and optionally fit gamma from the survival tail.

    nu comes from the Perron-based dominant eigenvalue (robust for defective
    chains). k + 1 counts the eigenvalues of eigen_spectrum within
    1e-10 max(||Q||_inf, 1) of -nu, and k = 0 when none is. eigen_spectrum
    works on the sparse Q class by class: a strongly connected class of one
    state gives its diagonal entry exactly, and DimensionTooLarge is raised
    only when one class has more than DENSE_CAP states.

    Raises DegenerateTail when a requested gamma fit finds no usable overlap
    between alpha and the dominant eigenspace.
    """
    # The spectrum first: a strongly connected class past the dense cap
    # raises DimensionTooLarge before the Perron iteration for nu has run.
    spectrum = eigen_spectrum(sub.Q)
    nu = -dominant_eigen(sub.Q)
    tol = _ROOT_TOL * max(float(np.max(np.asarray(abs(sub.Q).sum(axis=1)))), 1.0)
    k = max(int(np.count_nonzero(np.abs(spectrum + nu) <= tol)) - 1, 0)

    gamma = None
    if estimate_gamma:
        if alpha is None:
            raise ValueError("gamma estimation needs the initial distribution alpha")
        gamma = _fit_gamma(sub, alpha, nu, k)
    return SpectralParams(nu=nu, k=k, gamma=gamma)


def _fit_gamma(sub, alpha, nu, k):
    """Least-squares gamma over 5 log-spaced points where survival is tiny.

    The points lie between the crossings of 1e-4 and 1e-8, so gamma is an
    average of nu S(t) / (t^k e^{-nu t}) there. For k >= 1 that ratio has
    not settled, and the fit overstates gamma: by 8%, 15%, 21% and 27% on
    tstage(2) to tstage(5), whose gamma is 1/(T-1)!. Raises DegenerateTail
    when t^k e^{-nu t} or its square leaves the float range there.
    """
    if alpha.transient_mass <= _FIT_HI_LEVEL:
        raise DegenerateTail(
            "initial transient mass already below the fit window"
        )
    series = _SurvivalSeries(sub, alpha.alpha)
    t_hi = _crossing(series, _FIT_HI_LEVEL).time
    t_lo = _crossing(series, _FIT_LO_LEVEL).time
    ts = np.geomspace(t_hi, t_lo, 5)
    s = transient_survival(alpha, sub, ts)
    log_basis = k * np.log(ts) - nu * ts
    peak = float(log_basis[np.argmax(np.abs(log_basis))])
    if abs(peak) > _FIT_LOG_RANGE:
        raise DegenerateTail(
            f"t^k e^(-nu t) leaves the float range at k = {k} "
            f"(e^{peak:.0f} in the fit window, squared by the fit)"
        )
    basis = np.exp(log_basis)
    denom = float(basis @ basis)
    if np.any(s <= 0.0):
        raise DegenerateTail("survival vanished inside the fit window")
    gamma = nu * float(s @ basis) / denom
    if gamma <= 0.0:
        raise DegenerateTail(f"fitted gamma = {gamma} is not positive")
    residual = float(np.max(np.abs(s - (gamma / nu) * basis) / s))
    if residual > 0.5:
        raise DegenerateTail(
            f"tail fit residual {residual:.2f} exceeds 0.5; alpha has no "
            "usable overlap with the dominant eigenspace"
        )
    return gamma


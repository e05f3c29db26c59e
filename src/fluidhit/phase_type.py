"""Phase-type distributions and tail-asymptotic (spectral) parameters.

The absorption time of a single chain has survival alpha exp(Qt) 1 in
continuous time and alpha (I + Q/N)^k 1 when the chain is one of N under
random one-at-a-time scheduling. The tail behaves like
(gamma/nu) t^k exp(-nu t), where -nu is the eigenvalue of Q with greatest
real part and k + 1 its algebraic multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .chain_model import InitialDistribution, SubGenerator, _Destinations
from .errors import DegenerateTail, ScaleTooSmall
from .fluid import crossing_time, transient_survival
from .numerics import _row_iterates, _uniformized, dominant_eigen, eigen_spectrum

# Radius base for multiplicity detection: a defective eigenvalue of
# multiplicity m computed with backward error eta scatters over a disk of
# radius about eta^(1/m), so the clustering radius has to grow with the
# candidate multiplicity.
_CLUSTER_BASE = 1e-10


@dataclass(frozen=True)
class PhaseType:
    """Phase-type distribution of parameters (alpha, Q).

    scale is None for the continuous kind and the integer N for the discrete
    kind (transition matrix I + Q/N), which requires N >= max(-Q_ii).
    """

    alpha: InitialDistribution
    sub: SubGenerator
    scale: int | None = None

    def __post_init__(self):
        if self.scale is not None:
            if self.scale < self.sub.max_exit_rate:
                raise ScaleTooSmall(
                    f"scale N = {self.scale} below max(-Q_ii) = "
                    f"{self.sub.max_exit_rate}; I + Q/N would go negative"
                )

    @property
    def kind(self):
        return "continuous" if self.scale is None else "discrete"

    @classmethod
    def continuous(cls, alpha, sub):
        return cls(alpha=alpha, sub=sub, scale=None)

    @classmethod
    def discrete(cls, alpha, sub, N):
        return cls(alpha=alpha, sub=sub, scale=int(N))

    @cached_property
    def _jump_chain(self):
        """Destination draws of the jump chain [offdiag(Q) | Q0] / -diag(Q).

        Column n (past the n transient states) is the exit to state 0.
        """
        Q = self.sub.Q
        n = Q.shape[0]
        d = -Q.diagonal()
        row = np.repeat(np.arange(n), np.diff(Q.indptr))
        off = Q.indices != row
        moves = row[off]
        # Each row's exit follows its moves: a stable sort keeps Q's order.
        order = np.argsort(np.concatenate([moves, np.arange(n)]), kind="stable")
        cols = np.concatenate([Q.indices[off], np.full(n, n)])[order]
        vals = np.concatenate([Q.data[off] / d[moves], self.sub.Q0 / d])[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(moves, minlength=n) + 1)])
        return _Destinations(sp.csr_array((vals, cols, indptr), shape=(n, n + 1)))


def continuous_survival(pt: PhaseType, t) -> float:
    """P(X >= t) = alpha exp(Qt) 1 for the continuous kind."""
    if pt.scale is not None:
        raise ValueError("continuous_survival needs a continuous phase type")
    return transient_survival(pt.alpha, pt.sub, t)


def discrete_survival(pt: PhaseType, k) -> float:
    """P(X >= k) = alpha (I + Q/N)^k 1 for the discrete kind."""
    if pt.scale is None:
        raise ValueError("discrete_survival needs a discrete phase type")
    if k < 0:
        raise ValueError("k must be nonnegative")
    iterates = _row_iterates(_uniformized(pt.sub.Q, pt.scale), pt.alpha.alpha)
    return float(next(islice(iterates, int(k), None)).sum())


def x_threshold(pt: PhaseType) -> int:
    """Smallest k with alpha (I + Q/N)^k 1 <= 2/N.

    The survival sequence is monotone and only forward iteration is
    available, so a direct monotone scan finds the threshold with one
    vector-matrix product per step. Always finite: the spectral radius of
    I + Q/N is below 1.
    """
    if pt.scale is None:
        raise ValueError("x_threshold needs a discrete phase type")
    target = 2.0 / pt.scale
    iterates = _row_iterates(_uniformized(pt.sub.Q, pt.scale), pt.alpha.alpha)
    for k, u in enumerate(iterates):
        if k > 10**8:
            raise RuntimeError("x_threshold scan exceeded 1e8 steps")
        if float(u.sum()) <= target:
            return k


@dataclass(frozen=True)
class SpectralParams:
    """Tail parameters: survival ~ (gamma/nu) t^k exp(-nu t).

    nu > 0 is the negated dominant eigenvalue of Q, k the multiplicity minus
    one. gamma is an optional numerical estimate (never fabricated), present
    only when a tail fit was requested and succeeded.
    """

    nu: float
    k: int
    gamma: float | None = None
    source: str = "computed"

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")


def spectral_params(
    sub: SubGenerator,
    cluster_tol=None,
    estimate_gamma=False,
    alpha=None,
    nu_override=None,
    k_override=None,
) -> SpectralParams:
    """Compute (nu, k) and optionally fit gamma from the survival tail.

    nu comes from the Perron-based dominant eigenvalue (robust for defective
    chains); k counts eigenvalues near -nu. With cluster_tol = None the
    counting radius grows with the candidate multiplicity m as
    ||Q|| * 1e-10^(1/m), matching how a defective eigenvalue scatters under
    rounding, and the mean of the m nearest eigenvalues must stay within
    ||Q|| * 1e-10 of -nu; pass an explicit cluster_tol to force a fixed
    radius. Both values can be overridden when known exactly.

    Raises DegenerateTail when a requested gamma fit finds no usable overlap
    between alpha and the dominant eigenspace.
    """
    # The dense spectrum first: past the dense cap, DimensionTooLarge comes
    # before the Perron iteration for nu has run.
    dense_q = sub.dense_q() if k_override is None else None
    if nu_override is not None:
        nu = float(nu_override)
        source = "user-supplied"
    else:
        nu = -dominant_eigen(sub.Q, tol=1e-10)
        source = "computed"

    if k_override is not None:
        k = int(k_override)
        source = "user-supplied"
    else:
        report = eigen_spectrum(dense_q, cluster_tol=cluster_tol)
        raw = np.concatenate([[val] * mult for val, mult in report.eigenvalues])
        dists = np.abs(raw + nu)
        if cluster_tol is not None:
            mult = int(np.sum(dists <= cluster_tol))
        else:
            # The m eigenvalues nearest -nu must also keep their mean within
            # ||Q|| 1e-10 of -nu: a defective eigenvalue's scattered copies do
            # (the trace is preserved), distinct eigenvalues far off do not.
            norm = max(float(np.max(np.abs(dense_q, out=dense_q).sum(axis=1))), 1.0)
            order = np.argsort(dists, kind="stable")
            m = np.arange(1, dists.size + 1)
            means = np.cumsum(raw[order]) / m
            ok = (dists[order] <= norm * _CLUSTER_BASE ** (1.0 / m)) & (
                np.abs(means + nu) <= norm * _CLUSTER_BASE
            )
            mult = int(m[ok].max(initial=1))
        k = max(mult, 1) - 1

    gamma = None
    if estimate_gamma:
        if alpha is None:
            raise ValueError("gamma estimation needs the initial distribution alpha")
        gamma = _fit_gamma(sub, alpha, nu, k)
    return SpectralParams(nu=nu, k=k, gamma=gamma, source=source)


def _fit_gamma(sub, alpha, nu, k, hi_level=1e-4, lo_level=1e-8):
    """Least-squares gamma over 5 log-spaced points where survival is tiny."""
    if alpha.transient_mass <= hi_level:
        raise DegenerateTail(
            "initial transient mass already below the fit window"
        )
    t_hi = crossing_time(alpha, sub, hi_level, nu_hint=nu).time
    t_lo = crossing_time(alpha, sub, lo_level, nu_hint=nu).time
    ts = np.geomspace(t_hi, t_lo, 5)
    s = np.array([transient_survival(alpha, sub, t) for t in ts])
    basis = ts**k * np.exp(-nu * ts)
    denom = float(basis @ basis)
    if denom <= 0.0 or np.any(s <= 0.0):
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


def sample_absorption_step(pt: PhaseType, rng) -> int:
    """One sample of the discrete phase-type variable by chain simulation.

    Walks the chain of transition matrix I + Q/N; the sojourn in each state
    is geometric with success -Q_ii/N and is drawn in one shot, which leaves
    the law unchanged. Returns the first step index at which the chain sits
    in state 0 (0 when the initial draw lands on state 0).
    """
    if pt.scale is None:
        raise ValueError("sample_absorption_step needs a discrete phase type")
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

    diag = pt.sub.Q.diagonal()
    draw = pt._jump_chain.draw
    exit_column = pt.sub.n_transient
    steps = 0
    while state != exit_column:
        steps += int(rng.geometric(-diag[state] / pt.scale))
        state = draw(state, rng.random())
    return steps

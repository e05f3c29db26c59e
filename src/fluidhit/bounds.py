"""Hitting-time bounds for the N-chain system, assembled into one report.

Upper bounds:
  theorem1  N (t_N + mean jumps + 2 max_x W(x)), valid at every finite N
            because it uses the exact fluid crossing time;
  theorem3  N sum_i W(x_i), with the coarse corollary T N^2 for W <= T;
  theorem4  T N log N + 2 N T + 1 when W is uniformly bounded by T.
Trend-only values (never asserted as certified bounds):
  theorem2  (1/nu) N log N + (k/nu) N log log N, leading terms only;
  t_N       (1/nu)(log(gamma N) + k log log N - k log nu) when gamma known.
The multi-collection coupon bound rounds out the module; the reference
values of the named chains belong to their generators (examples). Natural
logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .chain_model import (
    AbsorbingChain,
    InitialDistribution,
    ResolventQuantities,
    decompose,
    expected_hitting_times,
    mean_jump_count,
)
from .errors import (
    DegenerateTail,
    DimensionTooLarge,
    GammaMissing,
    InconsistentBounds,
    NonConvergent,
    SlowConvergence,
)
from .fluid import crossing_time
from .numerics import dominant_eigen
from .phase_type import SpectralParams, _fit_gamma, spectral_params
from .simulator import OccupancyState

EULER_MASCHERONI = 0.5772156649015329


@lru_cache(maxsize=None)
def harmonic_number(n: int) -> float:
    """H_n by direct summation up to 1e6, by the asymptotic beyond.

    ln n + gamma + 1/(2n) - 1/(12 n^2) errs by at most 1/(120 n^4), far
    below one rounding of H_n past 1e6.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n <= 10**6:
        return math.fsum(1.0 / i for i in range(1, n + 1))
    return math.log(n) + EULER_MASCHERONI + 1.0 / (2 * n) - 1.0 / (12 * n * n)


def theorem1_bound(sub, alpha, N, nu_hint=None, w_max=None) -> float:
    """N (t_N + alpha (I-R)^-1 1 + 2 max_x W(x)), with t_N computed exactly.

    The resolvent term uses the row-sum norm of (-Q)^-1, i.e. the largest
    per-state hitting time max_x W(x), not the largest single entry: the
    surviving mass at the threshold step is weighted by whole rows of the
    resolvent, and the entrywise constant is genuinely too small for chains
    that park mass on slow states (the deep-countdown tightness chain
    violates it numerically). For chains whose resolvent rows are dominated
    by one entry (single transient state, the two-state exit chain) the two
    agree. Exact crossing time keeps the bound valid at every finite N.
    """
    if w_max is None:
        w_max = float(np.max(expected_hitting_times(sub)))
    t_n = crossing_time(alpha, sub, 1.0 / N, nu_hint=nu_hint).time
    return _theorem1(N, t_n, mean_jump_count(sub, alpha), w_max)


def _theorem1(N, t_n, mean_jumps, w_max):
    return N * (t_n + mean_jumps + 2.0 * w_max)


def theorem2_asymptotic(sp: SpectralParams, N) -> float:
    """(1/nu) N ln N + (k/nu) N ln ln N; leading terms only, O(N) omitted."""
    if N < 3:
        raise ValueError("N must be at least 3 for ln ln N > 0")
    return (N * math.log(N) + sp.k * N * math.log(math.log(N))) / sp.nu


def tN_asymptotic(sp: SpectralParams, N) -> float:
    """(1/nu)(ln(gamma N) + k ln ln N - k ln nu); needs a fitted gamma."""
    if sp.gamma is None:
        raise GammaMissing("tN_asymptotic needs a gamma estimate")
    if N < 3:
        raise ValueError("N must be at least 3 for ln ln N > 0")
    return (
        math.log(sp.gamma * N)
        + sp.k * math.log(math.log(N))
        - sp.k * math.log(sp.nu)
    ) / sp.nu


def theorem3_bound(W, occupancy) -> float:
    """N sum_i W(X_i(0)) from occupancy counts (W over transient states)."""
    N = occupancy.N
    total = 0.0
    for state, count in occupancy.counts.items():
        if state == 0:
            continue
        total += count * W[state - 1]
    return N * total


def theorem3_uniform_cap(T, N) -> float:
    """Coarse corollary T N^2 when every starting W(x_i) is capped by T."""
    return float(T) * N * N


def theorem4_bound(T, N) -> float:
    """T N ln N + 2 N T + 1 under the uniform bound sup_x W(x) <= T."""
    return T * N * math.log(N) + 2.0 * N * T + 1.0


def coupon_bound(T, N) -> float:
    """Bound for collecting T copies of each of N coupons:
    N ln N + (T-1) N ln ln N + (T+2) N."""
    if N < 3:
        raise ValueError("N must be at least 3 for ln ln N > 0")
    if T < 1:
        raise ValueError("T must be at least 1")
    return N * math.log(N) + (T - 1) * N * math.log(math.log(N)) + (T + 2) * N


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for one (chain, alpha, N) instance."""

    instance: str
    N: int
    theorem1: float
    theorem3: float
    theorem4: float
    theorem2_asymptotic: float | None
    tn_asymptotic: float | None
    lower_bounds: tuple
    exact: float | None
    t_n: float
    nu: float | None
    k: int | None
    gamma: float | None
    mean_jumps: float
    max_neg_qinv: float | None
    w_max: float
    notes: dict = field(default_factory=dict)

    def upper_bounds(self):
        return [
            ("theorem1", self.theorem1),
            ("theorem3", self.theorem3),
            ("theorem4", self.theorem4),
        ]

    def to_json_dict(self):
        def entry(value, provenance, formula):
            return {"value": value, "provenance": provenance, "formula": formula}

        out = {
            "instance": {"name": self.instance, "N": self.N},
            "theorem1": entry(
                self.theorem1,
                "finite-N upper bound",
                "N (t_N + mean_jumps + 2 max_x W(x))",
            ),
            "theorem3": entry(
                self.theorem3, "finite-N upper bound", "N sum_i W(x_i)"
            ),
            "t_N": entry(self.t_n, "fluid crossing time", "survival(t) = 1/N"),
            "mean_jumps": entry(
                self.mean_jumps, "expected jumps before absorption", "alpha (I-R)^-1 1"
            ),
            "w_max": entry(self.w_max, "uniform hitting-time cap", "max_x W(x)"),
        }
        if self.max_neg_qinv is not None:
            out["max_neg_qinv"] = entry(
                self.max_neg_qinv, "resolvent maximum", "max_jk (-Q)^-1_jk"
            )
        out["theorem4"] = entry(
            self.theorem4,
            "finite-N upper bound, T = max W",
            "T N ln N + 2 N T + 1",
        )
        if self.theorem2_asymptotic is not None:
            out["theorem2_asymptotic"] = entry(
                self.theorem2_asymptotic,
                "leading terms only, O(N) remainder omitted; not a certified bound",
                "(1/nu) N ln N + (k/nu) N ln ln N",
            )
        if self.tn_asymptotic is not None:
            out["tn_asymptotic"] = entry(
                self.tn_asymptotic,
                "tail asymptotic with fitted gamma (numerical estimate)",
                "(1/nu)(ln(gamma N) + k ln ln N - k ln nu)",
            )
        if self.nu is not None:
            out["nu"] = entry(self.nu, "dominant eigenvalue of Q, negated", "-max Re eig(Q)")
        if self.k is not None:
            out["k"] = entry(self.k, "multiplicity of -nu minus one", "mult(-nu) - 1")
        if self.gamma is not None:
            out["gamma"] = entry(self.gamma, "tail prefactor (numerical estimate)", "fit")
        for name, value in self.lower_bounds:
            out[f"lower_{name}"] = entry(value, "lower bound", name)
        if self.exact is not None:
            out["exact"] = entry(self.exact, "closed form", "exact E[T_N]")
        if self.notes:
            out["notes"] = dict(self.notes)
        return out

    CSV_FIELDS = (
        "instance",
        "N",
        "exact",
        "theorem1",
        "theorem2_asymptotic",
        "theorem3",
        "theorem4",
        "lower_bound",
        "t_N",
        "nu",
        "k",
    )

    def to_csv_row(self):
        lower = max((v for _, v in self.lower_bounds), default=None)
        vals = (
            self.instance,
            self.N,
            self.exact,
            self.theorem1,
            self.theorem2_asymptotic,
            self.theorem3,
            self.theorem4,
            lower,
            self.t_n,
            self.nu,
            self.k,
        )
        return ["" if v is None else str(v) for v in vals]


def assemble_report(
    chain: AbsorbingChain,
    alpha: InitialDistribution,
    N,
    name="chain",
    exact=None,
    lower_bounds=(),
    estimate_gamma=False,
) -> BoundReport:
    """Compute every applicable bound; failures degrade per entry.

    nu and k come from spectral_params (k + 1 counts the copies of -nu in
    the class-by-class spectrum). When a strongly connected class is past
    the dense cap, k is skipped and nu comes from the Perron iteration
    alone; when the Perron iteration fails, nu and k are both skipped.
    notes["spectral"] records each skip. A class past the dense cap also
    leaves max_neg_qinv out, with notes["max_neg_qinv"] saying why.

    Lower bounds and exact values for named chains are supplied by the
    caller (the generators know their closed forms). Raises
    InconsistentBounds if any lower bound exceeds any certified upper bound.
    """
    sub = decompose(chain)
    W = expected_hitting_times(sub)
    notes = {}

    nu = k = gamma = None
    theorem2 = tn_asym = None
    sp = None
    try:
        sp = spectral_params(sub)
        nu, k = sp.nu, sp.k
    except DimensionTooLarge as exc:
        # The multiplicity needs a dense eigensolve of each strongly connected
        # class, and one is past the cap; nu is still cheap through the Perron
        # route on the sparse matrix.
        notes["spectral"] = f"multiplicity skipped: {exc}"
        try:
            nu = -dominant_eigen(sub.Q)
        except (NonConvergent, SlowConvergence) as exc:
            notes["spectral"] += f"; nu skipped: {exc}"
    except (NonConvergent, SlowConvergence) as exc:
        notes["spectral"] = f"nu and k skipped: {exc}"
    if sp is not None and estimate_gamma:
        try:
            gamma = _fit_gamma(sub, alpha, nu, k)
            sp = replace(sp, gamma=gamma)
        except DegenerateTail as exc:
            notes["gamma"] = f"gamma fit failed: {exc}"

    t_n = crossing_time(alpha, sub, 1.0 / N, nu_hint=nu).time
    mean_jumps = mean_jump_count(sub, alpha)
    try:
        max_neg_qinv = ResolventQuantities(sub).max_neg_qinv
    except DimensionTooLarge as exc:
        max_neg_qinv = None
        notes["max_neg_qinv"] = str(exc)
    w_max = float(np.max(W))
    theorem1 = _theorem1(N, t_n, mean_jumps, w_max)
    # The occupancy that simulate and compare run, so the bound covers it.
    theorem3 = theorem3_bound(W, OccupancyState.from_alpha(alpha, N))
    theorem4 = theorem4_bound(w_max, N)

    if sp is not None and N >= 3:
        theorem2 = theorem2_asymptotic(sp, N)
        if sp.gamma is not None:
            tn_asym = tN_asymptotic(sp, N)

    report = BoundReport(
        instance=name,
        N=N,
        theorem1=theorem1,
        theorem3=theorem3,
        theorem4=theorem4,
        theorem2_asymptotic=theorem2,
        tn_asymptotic=tn_asym,
        lower_bounds=tuple(lower_bounds),
        exact=exact,
        t_n=t_n,
        nu=nu,
        k=k,
        gamma=gamma,
        mean_jumps=mean_jumps,
        max_neg_qinv=max_neg_qinv,
        w_max=w_max,
        notes=notes,
    )
    _assert_consistency(report)
    return report


def _assert_consistency(report: BoundReport):
    uppers = report.upper_bounds()
    for lname, lval in report.lower_bounds:
        for uname, uval in uppers:
            if lval > uval:
                raise InconsistentBounds(
                    f"lower bound {lname} = {lval} exceeds {uname} = {uval}"
                )
        if report.exact is not None and lval > report.exact * (1 + 1e-12):
            raise InconsistentBounds(
                f"lower bound {lname} = {lval} exceeds exact value {report.exact}"
            )
    if report.exact is not None:
        for uname, uval in uppers:
            if report.exact > uval * (1 + 1e-12):
                raise InconsistentBounds(
                    f"exact value {report.exact} exceeds {uname} = {uval}"
                )

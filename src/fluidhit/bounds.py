"""Hitting-time bounds for the N-chain system, assembled into one report.

Upper bounds:
  theorem1  N (t_N + mean jumps + 2 max_x W(x)), valid at every finite N
            because it uses the exact fluid crossing time (assemble_report);
  theorem3  N sum_i W(x_i), with the coarse corollary T N^2 for W <= T;
  theorem4  T N log N + 2 N T + 1 when W is uniformly bounded by T.
Trend-only values (never asserted as certified bounds):
  theorem2  (1/nu) N log N + (k/nu) N log log N, leading terms only;
  t_N       (1/nu)(log(gamma N / nu) + k log log N - k log nu) when gamma known.
BoundReport declares each report entry once: its provenance, formula and
role (certified upper bound, other estimate of E[T_N], parameter, or JSON
only). The JSON and CSV writers, compare's columns and the consistency
check read those declarations. The reference values of the named chains
belong to their generators (examples). Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .chain_model import (
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
from .examples import NamedExample
from .fluid import crossing_time
from .numerics import dominant_eigen
from .phase_type import SpectralParams, _fit_gamma, spectral_params
from .simulator import OccupancyState


def theorem2_asymptotic(sp: SpectralParams, N) -> float:
    """(1/nu) N ln N + (k/nu) N ln ln N; leading terms only, O(N) omitted."""
    if N < 3:
        raise ValueError("N must be at least 3 for ln ln N > 0")
    return (N * math.log(N) + sp.k * N * math.log(math.log(N))) / sp.nu


def tN_asymptotic(sp: SpectralParams, N) -> float:
    """(1/nu)(ln(gamma N / nu) + k ln ln N - k ln nu); needs a fitted gamma.

    The root of the tail (gamma/nu) t^k e^(-nu t) = 1/N, with ln t at its
    leading term ln(ln N / nu).
    """
    if sp.gamma is None:
        raise GammaMissing("tN_asymptotic needs a gamma estimate")
    if N < 3:
        raise ValueError("N must be at least 3 for ln ln N > 0")
    return (
        math.log(sp.gamma * N / sp.nu)
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


def theorem4_bound(T, N) -> float:
    """T N ln N + 2 N T + 1 under the uniform bound sup_x W(x) <= T."""
    return T * N * math.log(N) + 2.0 * N * T + 1.0


def _entry(role, provenance, formula):
    """A report entry: its role, and the provenance and formula of its JSON entry."""
    return field(metadata={"role": role, "provenance": provenance, "formula": formula})


_UPPER = "finite-N upper bound"


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for one (chain, alpha, N) instance.

    Each field declares its role, in CSV column order:
      instance  instance and N, which name the instance;
      upper     a certified upper bound (theorem1, theorem3, theorem4);
      estimate  another value of E[T_N] (exact, theorem2_asymptotic, the
                lower bound);
      param     a parameter (t_N, nu, k);
      None      JSON only (tn_asymptotic, gamma, mean_jumps, max_neg_qinv,
                w_max).
    Fields with a role are analyze's CSV columns; upper and estimate are
    compare's bound columns; upper_bounds() returns the upper fields. An
    entry's JSON key is its field name, and an entry whose value is None is
    left out. lower_bound is the instance's known lower bound as a
    (name, value) pair, or None; its JSON key is lower_<name>, with the name
    as its formula, and its column holds the value alone.
    """

    instance: str = field(metadata={"role": "instance"})
    N: int = field(metadata={"role": "instance"})
    exact: float | None = _entry("estimate", "closed form", "exact E[T_N]")
    theorem1: float = _entry("upper", _UPPER, "N (t_N + mean_jumps + 2 max_x W(x))")
    theorem2_asymptotic: float | None = _entry(
        "estimate",
        "leading terms only, O(N) remainder omitted; not a certified bound",
        "(1/nu) N ln N + (k/nu) N ln ln N",
    )
    theorem3: float = _entry("upper", _UPPER, "N sum_i W(x_i)")
    theorem4: float = _entry("upper", _UPPER + ", T = max W", "T N ln N + 2 N T + 1")
    lower_bound: tuple[str, float] | None = _entry("estimate", "lower bound", None)
    t_N: float = _entry("param", "fluid crossing time", "survival(t) = 1/N")
    nu: float | None = _entry("param", "dominant eigenvalue of Q, negated", "-max Re eig(Q)")
    k: int | None = _entry("param", "multiplicity of -nu minus one", "mult(-nu) - 1")
    tn_asymptotic: float | None = _entry(
        None,
        "tail asymptotic with fitted gamma (numerical estimate)",
        "(1/nu)(ln(gamma N / nu) + k ln ln N - k ln nu)",
    )
    gamma: float | None = _entry(None, "tail prefactor (numerical estimate)", "fit")
    mean_jumps: float = _entry(None, "expected jumps before absorption", "alpha (I-R)^-1 1")
    max_neg_qinv: float | None = _entry(None, "resolvent maximum", "max_jk (-Q)^-1_jk")
    w_max: float = _entry(None, "uniform hitting-time cap", "max_x W(x)")
    notes: dict = field(default_factory=dict)

    CSV_FIELDS: ClassVar[tuple[str, ...]]  # the fields with a role, set below

    @classmethod
    def names(cls, *roles):
        """The fields whose role is one of roles, in column order."""
        return tuple(f.name for f in fields(cls) if f.metadata.get("role") in roles)

    def upper_bounds(self):
        return [(name, getattr(self, name)) for name in self.names("upper")]

    @property
    def lower_value(self):
        return None if self.lower_bound is None else self.lower_bound[1]

    def column(self, name):
        """The value of field name in the CSV and compare columns; None when missing."""
        return self.lower_value if name == "lower_bound" else getattr(self, name)

    def to_json_dict(self):
        out = {"instance": {"name": self.instance, "N": self.N}}
        for f in fields(self):
            value = self.column(f.name)
            if "provenance" not in f.metadata or value is None:
                continue
            key, formula = f.name, f.metadata["formula"]
            if f.name == "lower_bound":
                key, formula = f"lower_{self.lower_bound[0]}", self.lower_bound[0]
            out[key] = {"value": value, "provenance": f.metadata["provenance"], "formula": formula}
        if self.notes:
            out["notes"] = dict(self.notes)
        return out

    def to_csv_row(self):
        """The values of CSV_FIELDS, None where an entry is missing."""
        return [self.column(name) for name in self.CSV_FIELDS]


BoundReport.CSV_FIELDS = BoundReport.names("instance", "upper", "estimate", "param")


def assemble_report(example: NamedExample, N, estimate_gamma=False) -> BoundReport:
    """Compute every applicable bound for example at population N; failures degrade per entry.

    The chain, start, name, closed-form exact mean and known lower bound
    all come from example (wrap a bare chain as NamedExample(name, chain,
    alpha) to report on it). nu and k come from spectral_params (k + 1
    counts the copies of -nu in the class-by-class spectrum). When a
    strongly connected class is past the dense cap, k is skipped and nu
    comes from the Perron iteration alone; when the Perron iteration fails,
    nu and k are both skipped. notes["spectral"] records each skip. A class
    past the dense cap also leaves max_neg_qinv out, with
    notes["max_neg_qinv"] saying why.

    Raises InconsistentBounds if the lower bound exceeds any certified
    upper bound or the exact value.
    """
    alpha = example.default_alpha
    lower = example.lower_bound(N)
    sub = decompose(example.chain)
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

    t_N = crossing_time(alpha, sub, 1.0 / N).time
    mean_jumps = mean_jump_count(sub, alpha)
    try:
        max_neg_qinv = ResolventQuantities(sub).max_neg_qinv
    except DimensionTooLarge as exc:
        max_neg_qinv = None
        notes["max_neg_qinv"] = str(exc)
    w_max = float(np.max(W))
    # Theorem 1 with the exact crossing time, so valid at every finite N. Its
    # resolvent term is the row-sum norm of (-Q)^-1, max_x W(x), not the
    # largest entry: the mass surviving the threshold step is weighted by
    # whole rows, and the entrywise constant fails on fig3a.
    theorem1 = N * (t_N + mean_jumps + 2.0 * w_max)
    # The occupancy that simulate and compare run, so the bound covers it.
    theorem3 = theorem3_bound(W, OccupancyState.from_alpha(alpha, N))
    theorem4 = theorem4_bound(w_max, N)

    if sp is not None and N >= 3:
        theorem2 = theorem2_asymptotic(sp, N)
        if sp.gamma is not None:
            tn_asym = tN_asymptotic(sp, N)

    report = BoundReport(
        instance=example.name,
        N=N,
        theorem1=theorem1,
        theorem3=theorem3,
        theorem4=theorem4,
        theorem2_asymptotic=theorem2,
        tn_asymptotic=tn_asym,
        lower_bound=None if lower is None else (example.params["kind"], lower),
        exact=example.exact_mean(N),
        t_N=t_N,
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
    if report.lower_bound is not None:
        lname, lval = report.lower_bound
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

"""Hitting-time bounds for the N-chain system, assembled into one report.

BoundReport declares each report entry once, as a field with its
provenance, formula and role: a certified upper or lower bound on E[T_N],
another estimate of it, a parameter, or a JSON-only entry. The JSON and
CSV writers, compare's columns and bands, and the consistency check read
those declarations; the certified ones through BoundReport.bracket(). The
reference values of the named chains belong to their generators
(examples). Natural logarithms throughout.
"""

from __future__ import annotations

import math
import operator
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
      instance  names the instance;
      upper     a certified upper bound on E[T_N];
      lower     a certified lower bound on E[T_N], None where none is known;
      estimate  another value of E[T_N], not certified;
      param     a parameter of the fluid limit or the spectrum;
      None      a JSON-only entry.
    Fields with a role are analyze's CSV columns; upper, estimate and lower
    are compare's bound columns. A field's name is its JSON key and its
    column, and an entry whose value is None is left out.
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
    lower_fig3a: float | None = _entry("lower", "lower bound", "N^3 (T-1) (1 - (1 - 1/N^2)^N)")
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

    def bracket(self):
        """The certified range of E[T_N] as (lower, upper), each a (name, value) pair.

        lower is the largest lower bound, None when none is known; upper is
        the smallest upper bound.
        """

        def known(role):
            pairs = ((name, getattr(self, name)) for name in self.names(role))
            return [pair for pair in pairs if pair[1] is not None]

        value = operator.itemgetter(1)
        return max(known("lower"), key=value, default=None), min(known("upper"), key=value)

    def to_json_dict(self):
        out = {"instance": {"name": self.instance, "N": self.N}}
        for f in fields(self):
            value = getattr(self, f.name)
            if "provenance" in f.metadata and value is not None:
                out[f.name] = {
                    "value": value,
                    "provenance": f.metadata["provenance"],
                    "formula": f.metadata["formula"],
                }
        if self.notes:
            out["notes"] = dict(self.notes)
        return out

    def to_csv_row(self):
        """The values of CSV_FIELDS, None where an entry is missing."""
        return [getattr(self, name) for name in self.CSV_FIELDS]


BoundReport.CSV_FIELDS = BoundReport.names("instance", "upper", "lower", "estimate", "param")


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

    Raises InconsistentBounds if the bracket is empty or leaves out the
    exact value.
    """
    alpha = example.default_alpha
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
        lower_fig3a=example.lower_bound(N),
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
    lower, (uname, uval) = report.bracket()
    if lower is not None:
        lname, lval = lower
        if lval > uval:
            raise InconsistentBounds(f"lower bound {lname} = {lval} exceeds {uname} = {uval}")
        if report.exact is not None and lval > report.exact * (1 + 1e-12):
            raise InconsistentBounds(
                f"lower bound {lname} = {lval} exceeds exact value {report.exact}"
            )
    if report.exact is not None and report.exact > uval * (1 + 1e-12):
        raise InconsistentBounds(f"exact value {report.exact} exceeds {uname} = {uval}")

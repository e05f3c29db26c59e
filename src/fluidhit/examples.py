"""Generators for the named chains and their closed-form reference values.

Four families:
  classical      two states, 1 -> 0 deterministically (one coupon per type);
  tstage(T)      countdown T -> T-1 -> ... -> 0 (collect T copies of each
                 coupon); absorbed fraction follows the Erlang(T, 1) CDF;
  fig3a(N, T)    the deep-countdown chain showing the T N^2 bound is tight;
                 its state space depends on the population size N;
  fig3b(T)       two states with exit probability 1/T, exact
                 E[T_N] = N T H_N.
H_N is harmonic_number(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .chain_model import AbsorbingChain, InitialDistribution, validate_chain
from .errors import FluidhitError, SizeTooLarge

# Deepest countdown tstage:T (T) and fig3a:N,T (N^2 (T-1)) may build.
COUNTDOWN_CAP = 10**7

EULER_MASCHERONI = 0.5772156649015329


@lru_cache(maxsize=None)
def harmonic_number(n: int) -> float:
    """H_n by direct summation up to 1e3, by the asymptotic beyond.

    ln n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4) errs by at most
    1/(252 n^6), far below one rounding of H_n past 1e3: at every n from
    1e3 + 1 to 1e6 it is within two ulps of a compensated direct sum, equal
    to it at 1e6, and an fsum of 10^6 terms took about 70 ms.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n <= 10**3:
        return math.fsum(1.0 / i for i in range(1, n + 1))
    x = 1.0 / n  # powers of a float underflow where those of n would overflow
    return math.log(n) + EULER_MASCHERONI + x / 2 - x * x / 12 + x**4 / 120


@dataclass(frozen=True)
class NamedExample:
    """A chain, its default start distribution and its reference values.

    params holds what a generator knows about its chain ("kind", "T" and,
    for fig3a, the "population" it is built for); a chain read from a file
    has none, so it has no closed form and no population tie.
    """

    name: str
    chain: AbsorbingChain
    default_alpha: InitialDistribution
    params: dict = field(default_factory=dict)

    def check_population(self, N):
        """Raise FluidhitError if the chain is built for a population other than N."""
        tied = self.params.get("population")
        if tied is not None and N != tied:
            raise FluidhitError(
                f"{self.name} is generated for N = {tied}; pass --N {tied} "
                f"or regenerate with fig3a:{N},{self.params['T']}"
            )

    def for_population(self, N) -> NamedExample:
        """This example, regenerated for N if it is tied to another population."""
        tied = self.params.get("population")
        if tied is None or tied == N:
            return self
        return gen_fig3a(N, self.params["T"])

    def exact_mean(self, N):
        """Closed-form E[T_N] when one is known, else None."""
        kind = self.params.get("kind")
        if kind == "classical":
            return N * harmonic_number(N)
        if kind == "fig3b":
            return N * self.params["T"] * harmonic_number(N)
        return None

    def lower_bound(self, N):
        """Known lower bound on E[T_N] when one is known, else None.

        fig3a: N^3 (T-1) (1 - (1 - 1/N^2)^N), for its own population only.
        """
        if self.params.get("kind") != "fig3a":
            return None
        self.check_population(N)
        hit = 1.0 if N == 1 else -math.expm1(N * math.log1p(-1.0 / (N * N)))
        return N**3 * (self.params["T"] - 1) * hit


def gen_tstage(T: int) -> NamedExample:
    """Countdown chain on states 0..T with P[i][i-1] = 1 (sparse); T = 1 is classical."""
    if T < 1:
        raise ValueError("T must be at least 1")
    if T > COUNTDOWN_CAP:
        raise SizeTooLarge(f"tstage would need {T + 1} states (cap {COUNTDOWN_CAP + 1})")
    rows = np.arange(T + 1)
    cols = np.concatenate([[0], np.arange(T)])
    P = sp.csr_array(sp.coo_array((np.ones(T + 1), (rows, cols)), shape=(T + 1, T + 1)))
    chain = validate_chain(P)
    name = "classical" if T == 1 else f"tstage:{T}"
    kind = "classical" if T == 1 else "tstage"
    return NamedExample(
        name=name,
        chain=chain,
        default_alpha=InitialDistribution.point(T, T),
        params={"kind": kind, "T": T},
    )


def gen_classical() -> NamedExample:
    return gen_tstage(1)


def gen_fig3a(N: int, T: int) -> NamedExample:
    """Deep-countdown tightness chain, tied to population size N.

    States 0..D with D = N^2 (T-1), plus the start state i (index D+1).
    From i the chain exits immediately with probability 1 - 1/N^2 and falls
    to the top of the countdown with probability 1/N^2, so W(i) = T while
    sup_x W(x) = D. Built sparsely: dense storage would be quadratic in a
    state count that already grows like N^2.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if T < 2:
        raise ValueError("T must be at least 2")
    D = N * N * (T - 1)
    if D > COUNTDOWN_CAP:
        raise SizeTooLarge(
            f"fig3a would need {D + 2} states (cap {COUNTDOWN_CAP + 2})"
        )
    start = D + 1
    rows = np.concatenate([[0], np.arange(1, D + 1), [start, start]])
    cols = np.concatenate([[0], np.arange(D), [D, 0]])
    vals = np.concatenate([[1.0], np.ones(D), [1.0 / (N * N), 1.0 - 1.0 / (N * N)]])
    P = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(D + 2, D + 2)))
    chain = validate_chain(P)
    return NamedExample(
        name=f"fig3a:{N},{T}",
        chain=chain,
        default_alpha=InitialDistribution.point(start, D + 1),
        params={"kind": "fig3a", "population": N, "T": T},
    )


def gen_fig3b(T: float) -> NamedExample:
    """Two-state chain with exit probability 1/T; exact E[T_N] = N T H_N."""
    if T < 1:
        raise ValueError("T must be at least 1")
    P = np.array([[1.0, 0.0], [1.0 / T, 1.0 - 1.0 / T]])
    chain = validate_chain(P)
    # {T:g} keeps six digits; past them the shortest repr names T exactly.
    short = f"{T:g}"
    return NamedExample(
        name="fig3b:" + (short if float(short) == T else repr(float(T)).removesuffix(".0")),
        chain=chain,
        default_alpha=InitialDistribution.point(1, 1),
        params={"kind": "fig3b", "T": T},
    )


def get_example(spec: str) -> NamedExample:
    """Resolve a name string: classical | tstage:T | fig3a:N,T | fig3b:T."""
    name, _, args = spec.partition(":")
    if name == "classical":
        return gen_classical()
    if name == "tstage":
        return gen_tstage(int(args))
    if name == "fig3a":
        n_str, _, t_str = args.partition(",")
        return gen_fig3a(int(n_str), int(t_str))
    if name == "fig3b":
        return gen_fig3b(float(args))
    raise ValueError(
        f"unknown example {spec!r}; expected classical, tstage:T, fig3a:N,T or fig3b:T"
    )


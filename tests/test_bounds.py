import json
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import fluidhit
import fluidhit.cli
from fluidhit import (
    InitialDistribution,
    NamedExample,
    OccupancyState,
    SpectralParams,
    assemble_report,
    chain_spec,
    crossing_time,
    decompose,
    expected_hitting_times,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    get_example,
    harmonic_number,
    load_chain_spec,
    spectral_params,
    theorem2_asymptotic,
    theorem3_bound,
    theorem4_bound,
    tN_asymptotic,
    validate_chain,
)
from fluidhit.errors import GammaMissing, InconsistentBounds
from fluidhit.numerics import DENSE_CAP

from oracles import (
    constant_exit_matrix,
    coupon_bound,
    erlang_crossing,
    count_strong_blocks,
    exact_occupancy_mean_hitting,
    random_chain,
)


def _theorem1(ex, N):
    return assemble_report(ex, N).theorem1


def test_harmonic_number():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(50) == pytest.approx(4.4992053383, abs=1e-9)
    # Beyond the summation cap, the asymptotic takes over to the last digit.
    direct = math.fsum(1.0 / i for i in range(1, 10**6 + 1))
    assert harmonic_number(10**6) == pytest.approx(direct, abs=1e-12)
    direct = math.fsum(1.0 / i for i in range(1, 10**6 + 2))
    assert harmonic_number(10**6 + 1) == pytest.approx(direct, rel=1e-15, abs=0)
    assert harmonic_number(2 * 10**6) == pytest.approx(
        math.log(2e6) + 0.5772156649, abs=1e-6
    )


@pytest.mark.parametrize("n", [10**3 + 1, 10**4, 10**5, 10**6])
def test_harmonic_number_asymptotic_within_two_ulp(n):
    # Past 10^3 the asymptotic series stands in for the direct sum.
    direct = math.fsum(1.0 / i for i in range(1, n + 1))
    assert abs(harmonic_number(n) - direct) <= 2 * math.ulp(direct)


def test_theorem1_classical():
    ex = gen_tstage(1)
    value = _theorem1(ex, 100)
    assert value == pytest.approx(100 * (math.log(100) + 1 + 2), abs=1e-6)
    assert value == pytest.approx(760.517, abs=1e-3)


def test_theorem1_tstage3():
    # mean jumps 3, resolvent row-sum norm max W = 3.
    ex = gen_tstage(3)
    t_n = erlang_crossing(3, 0.01)
    assert _theorem1(ex, 100) == pytest.approx(
        100 * (t_n + 3 + 2 * 3), abs=1e-5
    )


def test_theorem1_fig3b():
    ex = gen_fig3b(2)
    assert _theorem1(ex, 10) == pytest.approx(
        10 * (2 * math.log(10) + 1 + 4), abs=1e-6
    )


def test_theorem1_dominates_n_t_n():
    for ex in (gen_tstage(2), gen_fig3b(3)):
        sub = decompose(ex.chain)
        for N in (10, 100):
            t_n = crossing_time(ex.default_alpha, sub, 1.0 / N).time
            assert _theorem1(ex, N) >= N * t_n


def test_theorem2_values():
    sp1 = SpectralParams(nu=1.0, k=0)
    N = math.e**2
    assert theorem2_asymptotic(sp1, N) == pytest.approx(2 * math.e**2, rel=1e-12)
    sp3 = SpectralParams(nu=1.0, k=2)
    assert theorem2_asymptotic(sp3, 1000) == pytest.approx(
        1000 * math.log(1000) + 2 * 1000 * math.log(math.log(1000))
    )
    sp_b = SpectralParams(nu=0.2, k=0)
    assert theorem2_asymptotic(sp_b, 100) == pytest.approx(5 * 100 * math.log(100))


def test_tn_asymptotic_classical_exact():
    sp = SpectralParams(nu=1.0, k=0, gamma=1.0)
    assert tN_asymptotic(sp, 100) == pytest.approx(math.log(100), rel=1e-12)


def test_tn_asymptotic_requires_gamma():
    with pytest.raises(GammaMissing):
        tN_asymptotic(SpectralParams(nu=1.0, k=0), 100)


def test_tn_asymptotic_minimum_n():
    sp = SpectralParams(nu=1.0, k=1, gamma=0.5)
    assert math.isfinite(tN_asymptotic(sp, 3))


def test_tn_asymptotic_close_to_exact_crossing():
    ex = gen_tstage(2)
    sub = decompose(ex.chain)
    sp = spectral_params(sub, estimate_gamma=True, alpha=ex.default_alpha)
    N = 10**4
    exact = crossing_time(ex.default_alpha, sub, 1.0 / N).time
    assert tN_asymptotic(sp, N) == pytest.approx(exact, rel=0.05)


@pytest.mark.parametrize("T", [3, 10])
def test_tn_asymptotic_is_the_crossing_of_an_exponential_tail(T):
    # fig3b(T) survives as exp(-t/T): gamma = nu = 1/T and k = 0, so the
    # tail (gamma/nu) t^k e^(-nu t) is exact and so is its root T ln N.
    report = assemble_report(gen_fig3b(T), 100, estimate_gamma=True)
    assert report.tn_asymptotic == pytest.approx(report.t_N, rel=1e-9, abs=0)
    assert report.t_N == pytest.approx(T * math.log(100), rel=1e-12, abs=0)


def _constant_exit_example(tmp_path, seed):
    """A JSON chain whose rows all exit with one probability nu, the rest
    spread with self-loops, so that nu < c = max(1 - P_xx)."""
    rng = np.random.default_rng(seed)
    S, exit_prob = int(rng.integers(3, 30)), float(rng.uniform(0.01, 0.5))
    P = constant_exit_matrix(rng, S, exit_prob)
    path = tmp_path / f"constant-exit-{seed}.json"
    path.write_text(json.dumps({"states": S + 1, "P": P.tolist()}))
    chain, alpha = load_chain_spec(str(path))
    return NamedExample(name=path.name, chain=chain, default_alpha=alpha), exit_prob


def test_report_t_n_is_crossing_time(tmp_path):
    # The report's t_N is crossing_time's, bit for bit, whatever the
    # spectral pass found: one search, one bracket.
    cases = [(get_example(name), N) for name, N in (
        ("classical", 10**6), ("tstage:3", 1000), ("fig3b:3", 100), ("fig3a:10,2", 10),
    )]
    for seed in range(12):
        ex, nu = _constant_exit_example(tmp_path, seed)
        assert nu < decompose(ex.chain).max_exit_rate
        cases.append((ex, 10 + 997 * seed))
    for ex, N in cases:
        want = crossing_time(ex.default_alpha, decompose(ex.chain), 1.0 / N).time
        assert assemble_report(ex, N).t_N == want, ex.name


def test_slow_chain_reports_its_crossing():
    # fig3b(2^20) leaves its one state at rate 2^-20 (1 - fl(1 - 2^-20) is
    # exact), so t_N = 2^20 ln N lies past 10^6 and takes a few series terms.
    ex, N = gen_fig3b(2**20), 100
    report = assemble_report(ex, N, estimate_gamma=True)
    assert report.t_N == pytest.approx(2**20 * math.log(N), rel=1e-12, abs=0)
    assert report.gamma == pytest.approx(2.0**-20, rel=1e-9)
    assert report.tn_asymptotic == pytest.approx(report.t_N, rel=1e-9, abs=0)


def test_theorem3_values():
    W = np.array([1.0])
    occ = OccupancyState(N=3, counts={1: 3})
    assert theorem3_bound(W, occ) == pytest.approx(9.0)
    occ0 = OccupancyState(N=3, counts={0: 3})
    assert theorem3_bound(W, occ0) == 0.0


def test_theorem3_fig3a_cap():
    N, T = 4, 3
    ex = gen_fig3a(N, T)
    W = expected_hitting_times(decompose(ex.chain))
    occ = OccupancyState.from_alpha(ex.default_alpha, N)
    assert theorem3_bound(W, occ) == pytest.approx(T * N * N)


def test_theorem4_values():
    assert theorem4_bound(1, 1) == pytest.approx(3.0)
    assert theorem4_bound(3, 100) == pytest.approx(3 * 100 * math.log(100) + 601)


def test_tightness_fig3b():
    assert gen_fig3b(1).exact_mean(2) == pytest.approx(3.0)
    assert gen_fig3b(5).exact_mean(1) == pytest.approx(5.0)
    assert gen_fig3b(5).lower_bound(1) is None


def test_tightness_fig3b_brute_force_cross_check():
    # 2-chain occupancy system of the exit-probability-1/2 chain.
    T, N = 2, 2
    ex = gen_fig3b(T)
    exact = exact_occupancy_mean_hitting(ex.chain.P.toarray(), [0, N])
    assert ex.exact_mean(N) == pytest.approx(exact)


def test_tightness_fig3a():
    ex = gen_fig3a(10, 2)
    assert ex.exact_mean(10) is None
    assert ex.lower_bound(10) == pytest.approx(1000 * (1 - 0.99**10))
    assert ex.lower_bound(10) == pytest.approx(95.62, abs=0.01)


def test_coupon_bound_values():
    assert coupon_bound(1, 100) == pytest.approx(100 * math.log(100) + 300)
    assert coupon_bound(2, 1000) == pytest.approx(
        1000 * math.log(1000) + 1000 * math.log(math.log(1000)) + 4000
    )


def test_coupon_bound_dominates_theorem2():
    for T in (1, 2, 4):
        sp = SpectralParams(nu=1.0, k=T - 1)
        for N in (10, 100, 10**4):
            assert coupon_bound(T, N) >= theorem2_asymptotic(sp, N)


def test_coupon_bound_t1_vs_theorem4_leading():
    # Both are N ln N + O(N) at T = 1.
    for N in (10, 100, 10**4, 10**6):
        assert abs(coupon_bound(1, N) - theorem4_bound(1, N)) <= 2 * N


def test_theorem1_over_n_log_n_approaches_inverse_nu():
    for ex, nu in ((gen_tstage(1), 1.0), (gen_fig3b(4), 0.25)):
        ratios = [
            _theorem1(ex, N) / (N * math.log(N))
            for N in (10**2, 10**3, 10**4, 10**5)
        ]
        gaps = [abs(r - 1.0 / nu) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.35 / nu


def test_assemble_report_classical():
    ex = gen_tstage(1)
    N = 50
    report = assemble_report(ex, N, estimate_gamma=True)
    assert report.exact == pytest.approx(224.9603, abs=1e-3)
    assert report.theorem1 == pytest.approx(N * (math.log(N) + 3))
    assert report.theorem3 == pytest.approx(N * N)
    assert report.theorem4 == pytest.approx(theorem4_bound(1.0, N))
    assert report.nu == pytest.approx(1.0)
    assert report.k == 0
    assert report.gamma == pytest.approx(1.0, rel=0.05)
    assert report.tn_asymptotic == pytest.approx(report.t_N, rel=0.05)


def test_assemble_report_fig3a():
    N, T = 10, 2
    ex = gen_fig3a(N, T)
    report = assemble_report(ex, N)
    assert report.exact is None
    assert report.theorem3 == pytest.approx(200.0)
    assert report.lower_fig3a == pytest.approx(95.62, abs=0.01)
    assert report.w_max == pytest.approx(100.0)


def test_assemble_report_theorem3_uses_simulated_occupancy():
    # W = (4, 2); N = 3 with alpha = (1/2, 1/2) runs the occupancy {1: 2, 2: 1},
    # so N sum_i W(x_i) = 3 (2*4 + 2) = 30, above N^2 (alpha @ W) = 27.
    chain = validate_chain([[1, 0, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])
    alpha = InitialDistribution(alpha=np.array([0.5, 0.5]))
    assert OccupancyState.from_alpha(alpha, 3).counts == {1: 2, 2: 1}
    report = assemble_report(NamedExample("chain", chain, alpha), 3)
    assert report.theorem3 == 30.0


def _big_class_chain(n=DENSE_CAP + 1, p=0.9):
    """n transient states in one strongly connected class, left only from state 1.

    State i moves on to i + 1 with probability p and otherwise returns to
    1 (state n always returns), and state 1 exits to 0 instead of returning.
    The returns keep the Perron iteration for nu short, and at p = 0.9 the
    forward moves keep its vector, about 0.9^i at state i, clear of underflow.
    """
    i = np.arange(1, n + 1)
    rows = np.concatenate([i, i[:-1]])
    cols = np.concatenate([np.where(i == 1, 0, 1), i[:-1] + 1])
    probs = np.concatenate([np.where(i == n, 1.0, 1.0 - p), np.full(n - 1, p)])
    P = sp.csr_array((np.append(probs, 1.0), (np.append(rows, 0), np.append(cols, 0))),
                     shape=(n + 1, n + 1))
    alpha = np.zeros(n)
    alpha[0] = 1.0
    return validate_chain(P), InitialDistribution(alpha=alpha)


def test_assemble_report_computes_the_spectrum_once(monkeypatch):
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    dominant = counted(fluidhit.numerics.dominant_eigen)
    monkeypatch.setattr(fluidhit.bounds, "dominant_eigen", dominant)
    monkeypatch.setattr(fluidhit.phase_type, "dominant_eigen", dominant)
    monkeypatch.setattr(
        fluidhit.phase_type, "eigen_spectrum", counted(fluidhit.numerics.eigen_spectrum)
    )
    # One strongly connected class past the dense cap, so k is skipped: the
    # spectrum raises inside eigen_spectrum and nu is computed once.
    chain, alpha = _big_class_chain()
    report = assemble_report(NamedExample("chain", chain, alpha), 50)
    assert "spectral" in report.notes and report.k is None
    assert calls == {"dominant_eigen": 1, "eigen_spectrum": 1}

    # Q = diag(-1/2, -1) with alpha on the fast state, as in
    # test_gamma_degenerate_tail: the gamma fit fails, nu and k stand.
    calls.clear()
    chain = validate_chain([[1, 0, 0], [0.5, 0.5, 0], [1, 0, 0]])
    alpha = InitialDistribution(alpha=np.array([0.0, 1.0]))
    report = assemble_report(NamedExample("chain", chain, alpha), 10, estimate_gamma=True)
    assert "gamma" in report.notes and report.gamma is None
    assert (report.nu, report.k) == (pytest.approx(0.5), 0)
    assert calls == {"dominant_eigen": 1, "eigen_spectrum": 1}


@pytest.mark.parametrize("estimate_gamma", [False, True])
@pytest.mark.parametrize("source", ["tstage:3", "fig3a:40,2", "random"])
def test_assemble_report_finds_the_classes_once(monkeypatch, tmp_path, source, estimate_gamma):
    # The spectrum, the Perron root and max_neg_qinv read one set of classes.
    if source == "random":
        path = tmp_path / "random.json"
        chain = random_chain(np.random.default_rng(30), 25, density=0.05)
        path.write_text(json.dumps(chain_spec(chain, InitialDistribution.uniform(25))))
        example = NamedExample(str(path), *load_chain_spec(str(path)))
    else:
        example = get_example(source)
    calls = count_strong_blocks(monkeypatch)
    report = assemble_report(example, 40, estimate_gamma)
    assert None not in (report.nu, report.k, report.max_neg_qinv)
    assert len(calls) == 1
    if source == "random":  # classes of 2, 9 and 2 states, and 12 alone
        assert decompose(example.chain)._classes.sizes.tolist() == [2, 9, 2]


def test_compare_finds_the_classes_once_for_all_populations(monkeypatch, capsys):
    # fig3b:3 is not tied to a population: the three reports share its chain,
    # and with it the classes its SubGenerator keeps.
    calls = count_strong_blocks(monkeypatch)
    argv = ["compare", "--chain", "fig3b:3", "--N-list", "10,100,1000", "--runs", "20",
            "--seed", "2", "--format", "json"]
    assert fluidhit.cli.main(argv) == 0
    assert [row["N"] for row in json.loads(capsys.readouterr().out)] == [10, 100, 1000]
    assert calls == [(1, 1)]


def test_assemble_report_survives_a_failed_perron_iteration():
    # At p = 1/2 the Perron vector falls like 0.62^i and underflows past
    # state 1,550, so the iteration for nu raises NonConvergent; at p = 0.1
    # it underflows past state 600, inside a class the spectrum still takes.
    for n, p, skipped in ((DENSE_CAP + 1, 0.5, "nu skipped"), (700, 0.1, "nu and k skipped")):
        chain, alpha = _big_class_chain(n, p)
        report = assemble_report(NamedExample("chain", chain, alpha), 50)
        assert (report.nu, report.k, report.theorem2_asymptotic) == (None, None, None)
        assert skipped in report.notes["spectral"] and "underflow" in report.notes["spectral"]
        uppers = [getattr(report, name) for name in report.names("upper")]
        assert report.names("upper") == ("theorem1", "theorem3", "theorem4")
        assert all(math.isfinite(value) and value > 0 for value in uppers)
        assert report.t_N == crossing_time(alpha, decompose(chain), 1.0 / 50).time


def test_assemble_report_reads_k_past_the_dense_cap_from_singleton_classes():
    # fig3a(50, 2) has 2,501 transient states, each its own class: -Q is
    # triangular and every eigenvalue is an exact diagonal entry -1.
    ex = gen_fig3a(50, 2)
    report = assemble_report(ex, 50)
    assert "spectral" not in report.notes
    assert (report.nu, report.k) == (pytest.approx(1.0), 2500)
    assert report.theorem2_asymptotic is not None


def test_assemble_report_consistency_violation():
    ex = gen_tstage(1)
    with pytest.raises(InconsistentBounds):
        # A fig3a lower bound claimed for the classical chain: 9.6e8 at N = 10.
        bogus = {"kind": "fig3a", "population": 10, "T": 10**7}
        assemble_report(NamedExample(ex.name, ex.chain, ex.default_alpha, bogus), 10)


def test_assemble_report_refuses_an_exact_value_above_an_upper_bound():
    ex = gen_tstage(1)
    # fig3b's closed form with T = 10^9 claimed for the classical chain: 2.9e10
    # at N = 10, far above every upper bound (the smallest, theorem4, is 44).
    bogus = {"kind": "fig3b", "T": 10**9}
    exact = 10 * 10**9 * harmonic_number(10)
    with pytest.raises(InconsistentBounds, match=re.escape(f"exact value {exact} exceeds")):
        assemble_report(NamedExample(ex.name, ex.chain, ex.default_alpha, bogus), 10)


def test_assemble_report_refuses_a_lower_bound_above_the_exact_value(monkeypatch):
    # fig3a:10,2's lower bound 95.62 against a claimed exact mean of 1.
    monkeypatch.setattr(NamedExample, "exact_mean", lambda self, N: 1.0)
    ex = gen_fig3a(10, 2)
    lower = ex.lower_bound(10)
    with pytest.raises(InconsistentBounds, match=re.escape(f"= {lower} exceeds exact value 1.0")):
        assemble_report(ex, 10)


def test_report_json_round_trip():
    ex = gen_fig3b(2)
    report = assemble_report(ex, 20)
    payload = report.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert payload["theorem1"]["value"] == report.theorem1
    assert payload["exact"]["value"] == report.exact


def test_report_csv_row_shape():
    ex = gen_tstage(2)
    report = assemble_report(ex, 10)
    row = report.to_csv_row()
    assert len(row) == len(report.CSV_FIELDS)


_UPPER = "finite-N upper bound"
# JSON key -> (provenance, formula) of every entry the two reports below carry.
_REPORT_SCHEMA = {
    "exact": ("closed form", "exact E[T_N]"),
    "theorem1": (_UPPER, "N (t_N + mean_jumps + 2 max_x W(x))"),
    "theorem2_asymptotic": (
        "leading terms only, O(N) remainder omitted; not a certified bound",
        "(1/nu) N ln N + (k/nu) N ln ln N",
    ),
    "theorem3": (_UPPER, "N sum_i W(x_i)"),
    "theorem4": (_UPPER + ", T = max W", "T N ln N + 2 N T + 1"),
    "lower_fig3a": ("lower bound", "N^3 (T-1) (1 - (1 - 1/N^2)^N)"),
    "t_N": ("fluid crossing time", "survival(t) = 1/N"),
    "nu": ("dominant eigenvalue of Q, negated", "-max Re eig(Q)"),
    "k": ("multiplicity of -nu minus one", "mult(-nu) - 1"),
    "tn_asymptotic": (
        "tail asymptotic with fitted gamma (numerical estimate)",
        "(1/nu)(ln(gamma N / nu) + k ln ln N - k ln nu)",
    ),
    "gamma": ("tail prefactor (numerical estimate)", "fit"),
    "mean_jumps": ("expected jumps before absorption", "alpha (I-R)^-1 1"),
    "max_neg_qinv": ("resolvent maximum", "max_jk (-Q)^-1_jk"),
    "w_max": ("uniform hitting-time cap", "max_x W(x)"),
}


@pytest.mark.parametrize(
    "spec, N, estimate_gamma, absent",
    [
        ("fig3b:3", 100, True, {"lower_fig3a"}),
        ("fig3a:10,2", 10, False, {"exact", "tn_asymptotic", "gamma"}),
    ],
)
def test_report_schema_is_pinned(spec, N, estimate_gamma, absent):
    payload = assemble_report(get_example(spec), N, estimate_gamma).to_json_dict()
    assert payload.pop("instance") == {"name": spec, "N": N}
    assert "notes" not in payload
    assert {key: (entry["provenance"], entry["formula"]) for key, entry in payload.items()} == {
        key: pair for key, pair in _REPORT_SCHEMA.items() if key not in absent
    }
    assert fluidhit.BoundReport.CSV_FIELDS == (
        "instance", "N", "exact", "theorem1", "theorem2_asymptotic", "theorem3",
        "theorem4", "lower_fig3a", "t_N", "nu", "k",
    )

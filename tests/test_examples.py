import math
import tracemalloc

import numpy as np
import pytest

from fluidhit import (
    OccupancyState,
    decompose,
    expected_hitting_times,
    gen_classical,
    gen_fig3a,
    gen_fig3b,
    gen_tstage,
    get_example,
    harmonic_number,
    spectral_params,
    transient_survival,
    validate_chain,
)
from fluidhit.errors import FluidhitError, SizeTooLarge

from oracles import erlang_survival, random_chain


def test_tstage1_is_classical():
    ex = gen_tstage(1)
    assert ex.name == "classical"
    assert ex.chain.P.toarray() == pytest.approx(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_generators_all_validate():
    for ex in (gen_classical(), gen_tstage(4), gen_fig3a(5, 3), gen_fig3b(2.5)):
        validate_chain(ex.chain.P)  # revalidation passes


def test_tstage_known_values():
    T = 4
    ex = gen_tstage(T)
    sub = decompose(ex.chain)
    W = expected_hitting_times(sub)
    assert W == pytest.approx(np.arange(1.0, T + 1))
    sp = spectral_params(sub)
    assert (sp.nu, sp.k) == (pytest.approx(1.0, abs=1e-12), T - 1)


def test_tstage_fluid_matches_erlang():
    for T in (1, 2, 5):
        ex = gen_tstage(T)
        sub = decompose(ex.chain)
        for t in np.geomspace(0.05, 30.0, 12):
            assert 1.0 - transient_survival(ex.default_alpha, sub, t) == pytest.approx(
                1.0 - erlang_survival(T, t), abs=1e-8
            )


def test_fig3a_structure():
    N, T = 3, 2
    ex = gen_fig3a(N, T)
    assert ex.chain.size == N * N * (T - 1) + 2
    W = expected_hitting_times(decompose(ex.chain))
    assert W[-1] == pytest.approx(T)


def test_fig3a_smallest_instance():
    ex = gen_fig3a(1, 2)
    assert ex.chain.size == 3


def test_fig3a_population_mismatch_refused():
    ex = gen_fig3a(4, 2)
    hint = "N = 4; pass --N 4 or regenerate with fig3a:5,2"
    for refuse in (ex.check_population, ex.lower_bound):
        with pytest.raises(FluidhitError, match=hint):
            refuse(5)
    ex.check_population(4)
    start = ex.chain.size - 1
    assert OccupancyState.from_alpha(ex.default_alpha, 4).counts == {start: 4}
    assert ex.for_population(4) is ex
    assert ex.for_population(5).name == "fig3a:5,2"
    assert ex.for_population(5).lower_bound(5) > 0
    for untied in (gen_tstage(3), gen_fig3b(2)):
        untied.check_population(5)
        assert untied.for_population(5) is untied


def test_fig3a_size_guard():
    with pytest.raises(SizeTooLarge):
        gen_fig3a(10**4, 1000)


def test_tstage_size_guard():
    # Refused before anything is allocated: a dense P would need 8e14 bytes.
    with pytest.raises(SizeTooLarge):
        gen_tstage(10**7 + 1)


def test_tstage_is_built_sparsely():
    # A dense (T+1)^2 array at T = 3000 is 72 MB; the countdown itself is
    # a few hundred kB.
    tracemalloc.start()
    try:
        ex = gen_tstage(3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert ex.chain.P.nnz == 3001


def test_fig3a_lower_bound_value():
    ex = gen_fig3a(10, 2)
    assert ex.lower_bound(10) == pytest.approx(95.62, abs=0.01)


def test_fig3b_known_values():
    T = 5
    ex = gen_fig3b(T)
    sp = spectral_params(decompose(ex.chain))
    assert sp.nu == pytest.approx(1.0 / T, abs=1e-12)
    assert sp.k == 0
    assert ex.exact_mean(2) == pytest.approx(2 * T * 1.5)


def test_fig3b_exact_at_least_nt():
    for T in (1, 2, 7):
        ex = gen_fig3b(T)
        for N in (1, 5, 40):
            assert ex.exact_mean(N) >= N * T


def test_fig3b_t1_matches_classical_law():
    assert gen_fig3b(1).chain.P.toarray() == pytest.approx(gen_classical().chain.P.toarray())


def test_classical_exact_mean():
    ex = gen_classical()
    assert ex.exact_mean(50) == pytest.approx(50 * harmonic_number(50))


def test_erlang_m0_values():
    # 1 - erlang_survival is the Erlang(T, 1) CDF, tstage(T)'s fluid absorbed fraction.
    assert 1 - erlang_survival(1, math.log(2.0)) == pytest.approx(0.5, abs=1e-12)
    assert 1 - erlang_survival(2, 1.0) == pytest.approx(1 - 2 * math.exp(-1), abs=1e-12)
    assert 1 - erlang_survival(2, 1.0) == pytest.approx(0.26424, abs=1e-5)
    assert 1 - erlang_survival(3, 0.0) == 0.0
    # large-t stability
    assert 1 - erlang_survival(4, 600.0) == pytest.approx(1.0)


def test_get_example_parsing():
    assert get_example("classical").name == "classical"
    assert get_example("tstage:3").params["T"] == 3
    assert get_example("fig3a:10,2").params == {
        "kind": "fig3a",
        "population": 10,
        "T": 2,
    }
    assert get_example("fig3b:2.5").params["T"] == 2.5
    with pytest.raises(ValueError):
        get_example("mystery:1")


@pytest.mark.parametrize("T", [3, 2.5, 1048576, 1.1, 1 + 2**-30])
def test_fig3b_name_resolves_to_the_same_chain(T):
    # Six significant digits would name 1048576 as 1.04858e+06.
    name = gen_fig3b(T).name
    assert get_example(name).params["T"] == T
    if T in (3, 2.5, 1048576):
        assert name == f"fig3b:{T}"


def test_random_chain_seeded_and_valid():
    rng = np.random.default_rng(123)
    sizes = []
    for _ in range(20):
        S = int(rng.integers(1, 9))
        chain = random_chain(rng, S)
        assert chain.size == S + 1
        sizes.append(S)
    rng2 = np.random.default_rng(123)
    chain2 = random_chain(rng2, sizes[0])
    # same seed stream, same first chain
    rng3 = np.random.default_rng(123)
    chain3 = random_chain(rng3, sizes[0])
    assert (chain2.P != chain3.P).nnz == 0

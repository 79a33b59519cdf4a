import math
import tracemalloc

import numpy as np
import pytest

from dicke_battery import dynamics, oracle, spectra
from dicke_battery.analysis import flip_summary, universal_flip_time
from dicke_battery.dynamics import (
    OBSERVABLE_NAMES,
    ObservableSeries,
    SimulationConfig,
    evolve,
    run,
    sector_operator,
)
from dicke_battery.hilbert import SectorState, build_sector, initial_state
from dicke_battery.observables import (
    pairwise_concurrence,
    single_spin_density,
    spin_moments,
    two_spin_density,
    von_neumann_entropy,
)
from dicke_battery.operators import ModelParams, exact_tc_matrix, large_n_matrix
from dicke_battery.spectra import eigendecompose


def test_evolve_at_zero_is_identity():
    basis = build_sector(3, 7)
    eig = eigendecompose(exact_tc_matrix(basis, ModelParams()))
    state = initial_state(basis)
    np.testing.assert_allclose(evolve(state, eig, 0.0).amplitudes, state.amplitudes, atol=1e-15)


def test_evolve_single_spin_rabi():
    # one spin against sqrt(n)-amplified coupling: population sin^2(g sqrt(n) t)
    g, n = 0.8, 4
    basis = build_sector(1, n)
    eig = eigendecompose(large_n_matrix(1, ModelParams(g=g), n))
    state = initial_state(basis)
    for t in np.linspace(0.0, 3.0, 17):
        moved = evolve(state, eig, t)
        assert moved.populations()[1] == pytest.approx(
            math.sin(g * math.sqrt(n) * t) ** 2, abs=1e-12
        )


def test_evolve_composes():
    basis = build_sector(4, 11)
    eig = eigendecompose(exact_tc_matrix(basis, ModelParams(g=1.3, omega=0.7)))
    state = initial_state(basis)
    two_hops = evolve(evolve(state, eig, 0.4), eig, 0.9)
    one_hop = evolve(state, eig, 1.3)
    np.testing.assert_allclose(two_hops.amplitudes, one_hop.amplitudes, atol=1e-13)


def test_evolve_preserves_norm():
    basis = build_sector(6, 23)
    eig = eigendecompose(exact_tc_matrix(basis, ModelParams()))
    moved = evolve(initial_state(basis), eig, 57.3)
    assert np.linalg.norm(moved.amplitudes) == pytest.approx(1.0, abs=1e-13)


def test_evolve_rejects_mismatch_and_negative_time():
    basis = build_sector(3, 7)
    eig = eigendecompose(exact_tc_matrix(basis, ModelParams()))
    with pytest.raises(ValueError, match="mismatch"):
        evolve(initial_state(build_sector(2, 7)), eig, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        evolve(initial_state(basis), eig, -0.1)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_evolve_rejects_non_finite_time(t):
    basis = build_sector(3, 7)
    eig = eigendecompose(exact_tc_matrix(basis, ModelParams()))
    with pytest.raises(ValueError, match="finite"):
        evolve(initial_state(basis), eig, t)


def test_sector_operator_dispatch():
    basis = build_sector(3, 9)
    exact = sector_operator(basis, ModelParams(), "exact")
    approx = sector_operator(basis, ModelParams(), "large_n")
    assert exact.dimension == 4
    assert approx.dimension == 4
    assert not np.allclose(exact.offdiagonal, approx.offdiagonal)


def test_sector_operator_large_n_needs_enough_photons():
    with pytest.raises(ValueError, match="n >= N"):
        sector_operator(build_sector(5, 3), ModelParams(), "large_n")


def test_config_rejects_starved_large_n():
    # the check sits in the config, so no operator is built to find out
    with pytest.raises(ValueError, match="n >= N"):
        SimulationConfig(N=5, n=3, params=ModelParams(), t_max=1.0, steps=10, model="large_n")
    SimulationConfig(N=5, n=3, params=ModelParams(), t_max=1.0, steps=10, model="exact")
    SimulationConfig(N=5, n=5, params=ModelParams(), t_max=1.0, steps=10, model="large_n")


def test_config_validation():
    params = ModelParams()
    with pytest.raises(ValueError, match="unknown model"):
        SimulationConfig(N=2, n=2, params=params, t_max=1.0, steps=10, model="magic")
    with pytest.raises(ValueError, match="t_max"):
        SimulationConfig(N=2, n=2, params=params, t_max=0.0, steps=10)
    with pytest.raises(ValueError, match="steps"):
        SimulationConfig(N=2, n=2, params=params, t_max=1.0, steps=1)
    with pytest.raises(ValueError, match="unknown observables"):
        SimulationConfig(N=2, n=2, params=params, t_max=1.0, steps=10, record=("charge",))
    with pytest.raises(ValueError, match="at least one"):
        SimulationConfig(N=2, n=2, params=params, t_max=1.0, steps=10, record=())


@pytest.mark.parametrize("N, n", [(0, 3), (2, 0)])
def test_config_rejects_empty_sector_on_construction(N, n):
    with pytest.raises(ValueError, match="need N >= 1 and n >= 1"):
        SimulationConfig(N=N, n=n, params=ModelParams(), t_max=1.0, steps=10)


def test_config_canonicalizes_record_order():
    config = SimulationConfig(
        N=2, n=2, params=ModelParams(), t_max=1.0, steps=5, record=("norm", "fidelity")
    )
    assert config.record == ("fidelity", "norm")


def test_run_grid_and_columns():
    config = SimulationConfig(N=2, n=5, params=ModelParams(), t_max=2.0, steps=9)
    series = run(config)
    assert series.times[0] == 0.0
    assert series.times[-1] == 2.0
    assert series.times.size == 9
    assert series.recorded == OBSERVABLE_NAMES
    for name in OBSERVABLE_NAMES:
        assert series[name].shape == (9,)


def test_run_respects_record_subset():
    config = SimulationConfig(
        N=2, n=5, params=ModelParams(), t_max=2.0, steps=5, record=("fidelity",)
    )
    series = run(config)
    assert series.recorded == ("fidelity",)
    with pytest.raises(KeyError):
        series["norm"]


@pytest.mark.parametrize("model", ["exact", "large_n"])
@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_run_matches_direct_observables(N, model):
    # the grid holds t = 0 (p = 0) and the large_n flip time (p = 1), where
    # the entropy clip and, for N = 1, the pairless concurrence act
    params = ModelParams(g=0.9, omega=1.4)
    n = 6
    tau = math.pi / (2 * params.g * math.sqrt(n))
    config = SimulationConfig(N=N, n=n, params=params, t_max=2 * tau, steps=17, model=model)
    series = run(config)
    assert series.times[0] == 0.0 and series.times[8] == tau

    basis = build_sector(N, n)
    eig = eigendecompose(sector_operator(basis, params, model))
    psi0 = initial_state(basis)
    k = np.arange(basis.dimension)
    for i, t in enumerate(series.times):
        state = evolve(psi0, eig, float(t))
        up_fraction = float(k @ state.populations()) / N
        assert series["W_over_capacity"][i] == pytest.approx(up_fraction, abs=1e-12)
        assert series["fidelity"][i] == pytest.approx(state.populations()[N], abs=1e-12)
        rho1 = single_spin_density(state)
        assert series["entropy_spin1"][i] == pytest.approx(von_neumann_entropy(rho1), abs=1e-11)
        pair = pairwise_concurrence(two_spin_density(state)) if N >= 2 else 0.0
        assert series["concurrence"][i] == pytest.approx(pair, abs=1e-9)
        assert series["cos_theta"][i] == pytest.approx(2 * up_fraction - 1, abs=1e-12)
        assert series["norm"][i] == pytest.approx(1.0, abs=1e-13)
    if model == "large_n":
        assert series["W_over_capacity"][8] == pytest.approx(1.0, abs=1e-12)


def test_run_conserves_norm_and_excitation():
    config = SimulationConfig(N=5, n=40, params=ModelParams(), t_max=20.0, steps=400)
    series = run(config)
    np.testing.assert_allclose(series["norm"], 1.0, atol=1e-12)
    assert series["excitation"][0] == pytest.approx(40 - 2.5, rel=1e-12)
    # the excitation column is (n - N/2) norm^2 by construction; <H>, which
    # is 0 from rung 0 in the rotating frame, can drift on its own
    operator = exact_tc_matrix(config.basis, config.params)
    eig = eigendecompose(operator)
    psi0 = initial_state(config.basis)
    dense = operator.to_dense()
    radius = float(np.max(np.abs(eig.eigenvalues)))
    for t in series.times[::40]:
        psi = evolve(psi0, eig, float(t)).amplitudes
        assert abs(np.vdot(psi, dense @ psi)) < 1e-12 * radius


def test_run_fidelity_zero_when_starved():
    # fewer photons than spins: the fully charged state is unreachable
    config = SimulationConfig(N=4, n=2, params=ModelParams(), t_max=5.0, steps=50)
    series = run(config)
    np.testing.assert_array_equal(series["fidelity"], 0.0)
    assert series["W_over_capacity"].max() < 0.5


def test_run_freezes_after_t_off():
    t_off = 0.37
    config = SimulationConfig(
        N=3,
        n=9,
        params=ModelParams(t_off=t_off),
        t_max=2.0,
        steps=41,
        record=("W_over_capacity", "entropy_spin1", "concurrence", "norm"),
    )
    series = run(config)
    frozen = series.times >= t_off
    assert frozen.sum() > 5
    for name in series.recorded:
        column = series[name][frozen]
        np.testing.assert_allclose(column, column[0], atol=1e-12)


def test_t_off_value_matches_unswitched_run_at_t_off():
    t_off = 0.61
    base = SimulationConfig(N=2, n=7, params=ModelParams(), t_max=t_off, steps=2)
    switched = SimulationConfig(
        N=2, n=7, params=ModelParams(t_off=t_off), t_max=3.0, steps=11
    )
    tail = run(switched)["W_over_capacity"][-1]
    at_cut = run(base)["W_over_capacity"][-1]
    assert tail == pytest.approx(at_cut, abs=1e-12)


def test_single_spin_has_no_pair_concurrence():
    config = SimulationConfig(
        N=1, n=5, params=ModelParams(), t_max=2.0, steps=11, record=("concurrence",)
    )
    np.testing.assert_array_equal(run(config)["concurrence"], 0.0)


def test_large_n_model_run_matches_closed_form():
    # N spins against an undepleted mode: fidelity sin^{2N}(g sqrt(n) t)
    g, N, n = 1.0, 5, 900
    config = SimulationConfig(
        N=N, n=n, params=ModelParams(g=g), t_max=0.1, steps=21, model="large_n",
        record=("fidelity",),
    )
    series = run(config)
    expected = np.sin(g * math.sqrt(n) * series.times) ** (2 * N)
    np.testing.assert_allclose(series["fidelity"], expected, atol=1e-12)


def _forbid_solvers(monkeypatch, message):
    """Make both eigenvector solvers raise AssertionError(message) wherever run looks them up."""

    def not_called(operator):
        raise AssertionError(message)

    for module in (dynamics, spectra):
        for name in ("eigendecompose", "chiral_decompose"):
            monkeypatch.setattr(module, name, not_called, raising=False)


def test_large_n_run_never_calls_the_eigensolver(monkeypatch):
    _forbid_solvers(monkeypatch, "eigensolver called")
    config = SimulationConfig(N=40, n=400, params=ModelParams(), t_max=0.2, steps=11, model="large_n")
    assert run(config).recorded == OBSERVABLE_NAMES
    with pytest.raises(AssertionError, match="eigensolver"):
        run(SimulationConfig(N=40, n=400, params=ModelParams(), t_max=0.2, steps=11))


@pytest.mark.parametrize("N", [1, 2, 7, 300])
def test_large_n_closed_form_matches_spectral_reference(N):
    params, n = ModelParams(g=0.9), 1000
    tau = universal_flip_time(N, params.g, n)
    config = SimulationConfig(N=N, n=n, params=params, t_max=2 * tau, steps=41, model="large_n")
    series = run(config)
    assert series.times[0] == 0.0 and series.times[20] == tau

    populations = oracle.ladder_populations(large_n_matrix(N, params, n), series.times)
    moments = spin_moments(populations, N)
    total = populations.sum(axis=0)
    reference = {
        "W_over_capacity": moments.p,
        "fidelity": populations[N],
        "entropy_spin1": moments.entropy(),
        "concurrence": moments.concurrence(),
        "cos_theta": moments.cos_theta(),
        "norm": np.sqrt(total),
    }
    for name, column in reference.items():
        np.testing.assert_allclose(series[name], column, rtol=0, atol=1e-12)
    np.testing.assert_allclose(series["excitation"], (n - N / 2) * total, rtol=1e-12, atol=0)

    # norm and excitation are analytic constants, and a single spin has no pair
    np.testing.assert_array_equal(series["norm"], 1.0)
    np.testing.assert_array_equal(series["excitation"], n - N / 2)
    if N == 1:
        np.testing.assert_array_equal(series["concurrence"], 0.0)
    # the empty battery and the full flip are exact
    for i, charged in ((0, 0.0), (20, 1.0)):
        assert series["W_over_capacity"][i] == charged
        assert series["fidelity"][i] == charged


def test_large_n_run_freezes_after_t_off():
    t_off = 0.037
    config = SimulationConfig(
        N=12, n=500, params=ModelParams(t_off=t_off), t_max=0.2, steps=41, model="large_n",
    )
    series = run(config)
    frozen = series.times >= t_off
    assert frozen.sum() > 5
    unswitched = SimulationConfig(N=12, n=500, params=ModelParams(), t_max=t_off, steps=2, model="large_n")
    at_cut = run(unswitched)
    for name in series.recorded:
        np.testing.assert_array_equal(series[name][frozen], at_cut[name][-1])


@pytest.mark.parametrize("model", ["exact", "large_n"])
@pytest.mark.parametrize(
    "N, n, t_off",
    [(1, 3, math.inf), (6, 6, math.inf), (9, 400, math.inf), (40, 900, math.inf), (7, 50, 0.21)],
)
def test_fidelity_only_run_matches_full_run(model, N, n, t_off):
    params = ModelParams(g=0.8, t_off=t_off)
    t_max = 3 * universal_flip_time(N, params.g, n)
    full = run(SimulationConfig(N=N, n=n, params=params, t_max=t_max, steps=503, model=model))
    alone = run(
        SimulationConfig(
            N=N, n=n, params=params, t_max=t_max, steps=503, model=model, record=("fidelity",)
        )
    )
    assert alone.recorded == ("fidelity",)
    assert full["fidelity"].max() > 0.1
    if model == "large_n":
        # both are the same closed form, sin^2N(g sqrt(n) t)
        np.testing.assert_array_equal(alone["fidelity"], full["fidelity"])
        return
    # the exact routes are independent: eigenvalues and end weights against
    # eigenvectors.  Each amplitude is a dim-term sum with sum_j |c_j| <= 1,
    # so each is good to dim eps and F = |A|^2 to 2 dim eps; two routes, 4 dim eps
    dim = min(N, n) + 1
    atol = 4 * dim * np.finfo(float).eps
    np.testing.assert_allclose(alone["fidelity"], full["fidelity"], rtol=0, atol=atol)


def _no_eigenvectors(monkeypatch):
    _forbid_solvers(monkeypatch, "eigenvector solve called")


def test_fidelity_only_run_past_t_off_matches_all_rung_run(monkeypatch):
    params = ModelParams(g=1.3, t_off=0.083)
    N, n = 12, 300
    t_max = 4 * universal_flip_time(N, params.g, n)
    assert params.t_off < t_max
    full = run(SimulationConfig(N=N, n=n, params=params, t_max=t_max, steps=401))
    _no_eigenvectors(monkeypatch)
    alone = run(
        SimulationConfig(N=N, n=n, params=params, t_max=t_max, steps=401, record=("fidelity",))
    )
    frozen = alone.times >= params.t_off
    assert 100 < frozen.sum() < 400
    np.testing.assert_array_equal(alone["fidelity"][frozen], alone["fidelity"][frozen][0])
    assert alone["fidelity"][frozen][0] > 1e-3
    atol = 4 * (N + 1) * np.finfo(float).eps
    np.testing.assert_allclose(alone["fidelity"], full["fidelity"], rtol=0, atol=atol)


def test_exact_fidelity_only_runs_need_no_eigenvectors(monkeypatch):
    _no_eigenvectors(monkeypatch)
    for N, n in ((1, 100), (5, 500), (40, 4000)):
        summary = flip_summary(N, n, ModelParams(), "exact", 2000, 2.5)
        assert summary.status == "ok"
        assert summary.tau_detected == pytest.approx(summary.tau_analytic, rel=0.05)
    with pytest.raises(AssertionError, match="eigenvector solve"):
        run(SimulationConfig(N=5, n=5, params=ModelParams(), t_max=1.0, steps=11))


@pytest.mark.parametrize(
    "N, n, model, record",
    [(2000, 2000, "exact", ("fidelity",)), (10**4, 10**4, "large_n", OBSERVABLE_NAMES)],
    ids=["exact-fidelity", "large_n-all"],
)
def test_run_allocates_no_square_or_grid_array(N, n, model, record):
    # a (dim, dim) eigenvector matrix or a (dim, steps) population block
    # would be 32 MB at dim 2001 and 160 MB at dim 10001
    steps = 2001
    config = SimulationConfig(
        N=N, n=n, params=ModelParams(), t_max=2.5 * universal_flip_time(N, 1.0, n),
        steps=steps, model=model, record=record,
    )
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (N + 1) * steps * 8 / 4


def test_unreachable_fidelity_only_run_is_zero_without_eigensolve(monkeypatch):
    _forbid_solvers(monkeypatch, "eigensolver called")
    config = SimulationConfig(
        N=30, n=12, params=ModelParams(), t_max=4.0, steps=301, record=("fidelity",)
    )
    series = run(config)
    assert series.recorded == ("fidelity",)
    np.testing.assert_array_equal(series["fidelity"], 0.0)
    with pytest.raises(AssertionError, match="eigensolver"):
        run(SimulationConfig(N=30, n=12, params=ModelParams(), t_max=4.0, steps=301))


@pytest.mark.parametrize(
    "N, n, t_off",
    [
        (1, 5, math.inf),  # D = 2
        (2, 2, math.inf),  # D = 3, N = n
        (6, 3, math.inf),  # D = 4, n < N
        (9, 4, math.inf),  # D = 5, n < N
        (40, 40, math.inf),  # D = 41, N = n
        (41, 900, math.inf),  # D = 42
        (300, 3000, math.inf),  # D = 301
        (7, 50, 0.21),  # D = 8, switched off inside the grid
        (12, 12, 0.3),  # D = 13, switched off inside the grid
    ],
)
def test_chiral_populations_match_eigenvector_propagation(N, n, t_off):
    params = ModelParams(g=0.8, t_off=t_off)
    config = SimulationConfig(
        N=N, n=n, params=params, t_max=3 * universal_flip_time(N, params.g, n), steps=401
    )
    times = np.linspace(0.0, config.t_max, config.steps)
    populations = dynamics._rung_populations(config, times)

    # the reference propagates the full eigensystem to each time, t_off for
    # the frozen samples
    basis = config.basis
    reference = oracle.ladder_populations(
        sector_operator(basis, params, "exact"), np.minimum(times, t_off)
    )
    live = int(np.count_nonzero(times < t_off))
    if live < times.size:
        assert 10 < live < times.size - 10
    # every amplitude of either route is a dim-term sum with sum |term| <= 1 whose
    # terms are products of about four rounded factors (eigenvector entry, weight,
    # coarse and fine phase), so it is good to 4 dim eps and a population to
    # 8 dim eps; two routes, 16 dim eps
    atol = 16 * basis.dimension * np.finfo(float).eps
    np.testing.assert_allclose(populations, reference, rtol=0, atol=atol)
    assert populations.shape == (basis.dimension, times.size)


@pytest.mark.parametrize("steps", [1, 2, 3, 17, 20001, 20022])
def test_phase_tables_match_direct_phases(steps):
    # dyadic eigenvalues and step make every angle lambda m dt exact in both
    # routes, so the comparison sees only the coarse x fine factorization
    eigenvalues = np.array([-1.0, -0.6875, -0.25, 0.0, 0.0078125, 0.5, 0.875, 1.0])
    dt = 0.5 if steps > 100 else 0.75
    rotations, cos, sin = dynamics._phase_tables(eigenvalues, dt, steps)
    coarse, fine = rotations.shape[1], cos.shape[1]
    # the grid m = a fine + b covers every sample, with less than one fine row to spare
    assert steps <= coarse * fine < steps + fine
    # exp(-i (x + y)) = (cos x - i sin x)(cos y - i sin y)
    coarse_phases = rotations[..., 0] - 1j * rotations[..., 1]
    fine_phases = cos - 1j * sin
    phases = (coarse_phases[:, :, None] * fine_phases[:, None, :]).reshape(8, -1)[:, :steps]
    times = np.arange(steps) * dt
    if steps == 20001:
        assert eigenvalues.max() * times[-1] >= 1e4
    reference = np.exp(-1j * np.outer(eigenvalues, times))
    np.testing.assert_allclose(phases, reference, rtol=0, atol=1e-12)


def test_series_validation():
    times = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="unknown observable"):
        ObservableSeries(times=times, data={"charge": np.zeros(5)})
    with pytest.raises(ValueError, match="samples"):
        ObservableSeries(times=times, data={"norm": np.zeros(4)})


def test_series_is_frozen():
    series = ObservableSeries(times=np.linspace(0, 1, 3), data={"norm": np.ones(3)})
    with pytest.raises(ValueError):
        series.times[0] = 5.0
    with pytest.raises(ValueError):
        series["norm"][0] = 5.0

import math

import numpy as np
import pytest

from dicke_battery.dynamics import evolve
from dicke_battery.hilbert import SectorState, build_sector, initial_state, target_state
from dicke_battery.observables import (
    energy_variance,
    pairwise_concurrence,
    single_spin_density,
    spin_moments,
    two_spin_density,
    von_neumann_entropy,
)
from dicke_battery.operators import ModelParams, exact_tc_matrix, large_n_matrix
from dicke_battery.spectra import eigendecompose
from dicke_battery import oracle


def uniform_state(basis):
    dim = basis.dimension
    return SectorState(basis, np.ones(dim) / math.sqrt(dim))


def test_single_spin_density_endpoints():
    basis = build_sector(3, 100)
    np.testing.assert_allclose(single_spin_density(initial_state(basis)), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(single_spin_density(target_state(basis)), np.diag([0.0, 1.0]))


def test_single_spin_density_balanced_superposition():
    basis = build_sector(2, 6)
    state = SectorState(basis, np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
    np.testing.assert_allclose(single_spin_density(state), np.diag([0.5, 0.5]), atol=1e-15)


def test_single_spin_density_matches_partial_trace():
    params = ModelParams(g=1.0, omega=1.0)
    basis = build_sector(3, 8)
    from dicke_battery.operators import exact_tc_matrix

    eig = eigendecompose(exact_tc_matrix(basis, params))
    state = evolve(initial_state(basis), eig, 0.83)
    full = oracle.sector_to_full(state, 13)
    for spin in range(3):
        np.testing.assert_allclose(
            oracle.reduced_spin_density(full, spin),
            single_spin_density(state),
            atol=1e-12,
        )


def test_entropy_of_pure_and_maximally_mixed():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(math.log(2), rel=1e-15)


def test_entropy_rejects_nonsquare():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.zeros((2, 3)))


def test_two_spin_density_single_excitation():
    basis = build_sector(2, 5)
    state = SectorState(basis, np.array([0.0, 1.0, 0.0]))
    rho = two_spin_density(state)
    # one shared excitation: an equal mixture-free split with full coherence
    assert rho[1, 1] == pytest.approx(0.5)
    assert rho[2, 2] == pytest.approx(0.5)
    assert rho[1, 2] == pytest.approx(0.5)
    assert rho[0, 0] == 0.0 and rho[3, 3] == 0.0


def test_two_spin_density_fully_charged():
    rho = two_spin_density(target_state(build_sector(3, 7)))
    np.testing.assert_allclose(rho, np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-15)


def test_two_spin_density_is_a_density_matrix():
    basis = build_sector(4, 6)
    state = uniform_state(basis)
    rho = two_spin_density(state)
    assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-14
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)


def test_two_spin_marginal_consistency():
    # tracing the second spin out of the pair must reproduce the single-spin state
    basis = build_sector(5, 9)
    state = uniform_state(basis)
    rho2 = two_spin_density(state)
    marginal = np.array(
        [[rho2[0, 0] + rho2[1, 1], 0.0], [0.0, rho2[2, 2] + rho2[3, 3]]]
    )
    np.testing.assert_allclose(marginal, single_spin_density(state), atol=1e-14)


def test_two_spin_density_matches_partial_trace():
    params = ModelParams(g=1.0, omega=1.0)
    basis = build_sector(3, 6)
    from dicke_battery.operators import exact_tc_matrix

    eig = eigendecompose(exact_tc_matrix(basis, params))
    state = evolve(initial_state(basis), eig, 1.37)
    full = oracle.sector_to_full(state, 11)
    for pair in ((0, 1), (0, 2), (1, 2)):
        np.testing.assert_allclose(
            oracle.reduced_two_spin_density(full, *pair),
            two_spin_density(state),
            atol=1e-12,
        )


def test_two_spin_density_needs_a_pair():
    with pytest.raises(ValueError):
        two_spin_density(initial_state(build_sector(1, 3)))


def test_concurrence_of_product_state():
    rho = two_spin_density(initial_state(build_sector(2, 4)))
    assert pairwise_concurrence(rho) == 0.0


def test_concurrence_of_shared_single_excitation():
    basis = build_sector(2, 9)
    state = SectorState(basis, np.array([0.0, 1.0, 0.0]))
    assert pairwise_concurrence(two_spin_density(state)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_bell_state_reference():
    # independent check against a hand-built maximally entangled pair
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = bell[1, 2] = bell[2, 1] = 0.5
    assert pairwise_concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert pairwise_concurrence(np.diag([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_wootters_concurrence_of_oracle_pairs_matches_closed_form():
    # the oracle's pair densities have near-zero eigenvalues; Wootters'
    # formula must not amplify their rounding past the X-state closed form
    params = ModelParams()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for N in (2, 3, 4):
        for n in range(1, 13):
            basis = build_sector(N, n)
            eigensystem = eigendecompose(exact_tc_matrix(basis, params))
            times = rng.uniform(0.0, 5.0, size=10)
            for t, full in zip(times, oracle.brute_force_trajectory(N, n, params, times)):
                state = evolve(initial_state(basis), eigensystem, float(t))
                closed = float(spin_moments(state.populations(), N).concurrence())
                wootters = pairwise_concurrence(oracle.reduced_two_spin_density(full, 0, 1))
                worst = max(worst, abs(wootters - closed))
    assert worst <= 1e-11


def test_concurrence_rejects_wrong_shape():
    with pytest.raises(ValueError):
        pairwise_concurrence(np.eye(2))


def cos_theta(state):
    return float(spin_moments(state.populations(), state.basis.N).cos_theta())


def test_cos_theta_tracks_charging():
    basis = build_sector(3, 50)
    assert cos_theta(initial_state(basis)) == -1.0
    assert cos_theta(target_state(basis)) == 1.0


def test_cos_theta_mid_flip():
    basis = build_sector(1, 100)
    eig = eigendecompose(large_n_matrix(1, ModelParams(), 100))
    halfway = evolve(initial_state(basis), eig, math.pi / (4 * math.sqrt(100)))
    assert cos_theta(halfway) == pytest.approx(0.0, abs=1e-10)


def test_energy_variance_of_eigenvector_is_zero():
    T = large_n_matrix(3, ModelParams(), 9)
    eig = eigendecompose(T)
    basis = build_sector(3, 9)
    for j in range(4):
        state = SectorState(basis, eig.eigenvectors[:, j].astype(complex))
        # square root amplifies rounding in <T^2> - <T>^2, hence the loose bound
        assert energy_variance(state, T) == pytest.approx(0.0, abs=1e-6)


def test_energy_variance_of_discharged_state():
    # <T> = 0 and <T^2> = (g sqrt(n) b_1)^2 gives exactly g sqrt(n N)
    for N, n, g in ((1, 4, 1.0), (4, 100, 1.0), (9, 50, 0.5)):
        basis = build_sector(N, n)
        T = large_n_matrix(N, ModelParams(g=g), n)
        assert energy_variance(initial_state(basis), T) == pytest.approx(
            g * math.sqrt(n * N), rel=1e-12
        )


def test_energy_variance_dimension_check():
    with pytest.raises(ValueError):
        energy_variance(initial_state(build_sector(2, 5)), large_n_matrix(4, ModelParams(), 5))

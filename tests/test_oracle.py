import math

import numpy as np
import pytest

from dicke_battery import oracle
from dicke_battery.dynamics import evolve
from dicke_battery.hilbert import build_sector, initial_state
from dicke_battery.operators import ModelParams, exact_tc_matrix
from dicke_battery.spectra import eigendecompose


def test_hamiltonian_is_hermitian_and_conserves_excitation():
    H = oracle.brute_force_hamiltonian(3, 8, ModelParams(g=0.7, omega=1.1))
    np.testing.assert_allclose(H, H.T, atol=1e-14)
    C = oracle.excitation_operator(3, 8)
    np.testing.assert_allclose(H @ C - C @ H, 0.0, atol=1e-12)


def test_size_limits():
    with pytest.raises(ValueError, match="spins"):
        oracle.brute_force_hamiltonian(5, 8, ModelParams())
    with pytest.raises(ValueError, match="truncation"):
        oracle.brute_force_hamiltonian(2, 65, ModelParams())


def test_discharged_state_layout():
    full = oracle.discharged_state(2, 3, 5)
    assert full.vector[3] == 1.0
    assert np.sum(np.abs(full.vector)) == 1.0
    assert oracle.fock_level_population(full, 3) == 1.0
    tensor = full.as_tensor()
    assert tensor.shape == (2, 2, 6)
    assert tensor[0, 0, 3] == 1.0


def test_dicke_vector_counts_and_symmetry():
    v = oracle.dicke_vector(3, 1)
    # |100>, |010>, |001> with spin 0 as the most significant bit
    expected = np.zeros(8)
    expected[[4, 2, 1]] = 1 / math.sqrt(3)
    np.testing.assert_allclose(v, expected)
    assert np.linalg.norm(oracle.dicke_vector(4, 2)) == pytest.approx(1.0, rel=1e-15)


def test_embedding_round_trip():
    basis = build_sector(3, 4)
    rng = np.random.default_rng(7)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    from dicke_battery.hilbert import SectorState

    state = SectorState(basis, raw / np.linalg.norm(raw))
    full = oracle.sector_to_full(state, 9)
    back = oracle.full_to_sector(full, basis)
    np.testing.assert_allclose(back, state.amplitudes, atol=1e-14)
    assert np.linalg.norm(full.vector) == pytest.approx(1.0, rel=1e-13)


def test_sector_evolution_matches_brute_force():
    params = ModelParams(g=1.0, omega=1.0)
    N, n = 3, 5
    basis = build_sector(N, n)
    eig = eigendecompose(exact_tc_matrix(basis, params))
    psi0 = initial_state(basis)
    for t in (0.3, 1.1, 2.6):
        sector = evolve(psi0, eig, t)
        full = oracle.brute_force_evolve(N, n, params, t)
        projected = oracle.full_to_sector(full, basis)
        # global phase: the sector drops the constant rest energy, align on
        # the largest amplitude before comparing
        j = int(np.argmax(np.abs(sector.amplitudes)))
        phase = projected[j] / sector.amplitudes[j]
        assert abs(abs(phase) - 1.0) < 1e-11
        np.testing.assert_allclose(projected, phase * sector.amplitudes, atol=1e-11)


def test_brute_force_never_leaves_the_sector():
    # dynamics from the discharged state stays inside the symmetric ladder
    params = ModelParams(g=0.9, omega=1.2)
    N, n = 2, 4
    basis = build_sector(N, n)
    full = oracle.brute_force_evolve(N, n, params, 1.7)
    projected = oracle.full_to_sector(full, basis)
    assert np.sum(np.abs(projected) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_truncation_margin_is_clean():
    full = oracle.brute_force_evolve(2, 8, ModelParams(), 5.0)
    assert oracle.fock_level_population(full, full.n_max) < 1e-12
    assert oracle.fock_level_population(full, full.n_max - 1) < 1e-12


def test_reduced_density_shapes_and_purity():
    full = oracle.brute_force_evolve(3, 4, ModelParams(), 0.9)
    rho1 = oracle.reduced_spin_density(full, 1)
    rho2 = oracle.reduced_two_spin_density(full, 0, 2)
    assert rho1.shape == (2, 2)
    assert rho2.shape == (4, 4)
    assert np.trace(rho1).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rho2).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho1, rho1.conj().T, atol=1e-14)
    np.testing.assert_allclose(rho2, rho2.conj().T, atol=1e-14)


def test_reduced_density_index_validation():
    full = oracle.discharged_state(2, 1, 4)
    with pytest.raises(ValueError):
        oracle.reduced_spin_density(full, 2)
    with pytest.raises(ValueError, match="distinct"):
        oracle.reduced_two_spin_density(full, 1, 1)


def test_trajectory_checks_every_state_for_leakage(monkeypatch):
    # a margin that only the last time fills must be caught on that state
    populations = iter([0.0, 0.0, 1.0])
    monkeypatch.setattr(oracle, "fock_level_population", lambda full, level: next(populations))
    with pytest.raises(oracle.TruncationError):
        oracle.brute_force_trajectory(2, 3, ModelParams(), [0.1, 0.2, 0.3])


def test_evolve_input_validation():
    with pytest.raises(ValueError, match="non-negative"):
        oracle.brute_force_evolve(2, 3, ModelParams(), -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        oracle.brute_force_trajectory(2, 3, ModelParams(), [0.5, -1.0])
    with pytest.raises(ValueError, match="photon number"):
        oracle.discharged_state(2, 7, 5)

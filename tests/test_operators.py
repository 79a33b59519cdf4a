import math

import numpy as np
import pytest

from dicke_battery.analysis import flip_summary
from dicke_battery.dynamics import SimulationConfig, evolve, run
from dicke_battery.hilbert import build_sector, initial_state
from dicke_battery.operators import (
    ModelParams,
    TridiagonalOperator,
    exact_tc_matrix,
    large_n_matrix,
)
from dicke_battery import oracle
from dicke_battery.spectra import eigendecompose


def test_exact_couplings_three_spins_hundred_photons():
    T = exact_tc_matrix(build_sector(3, 100), ModelParams(g=1.0, omega=1.0))
    np.testing.assert_allclose(
        T.offdiagonal,
        [math.sqrt(300), 2 * math.sqrt(99), math.sqrt(294)],
        rtol=1e-12,
    )
    np.testing.assert_allclose(T.offdiagonal, [17.320508, 19.899749, 17.146428], atol=5e-7)


def test_exact_diagonal_is_constant_rest_energy():
    # rotating frame: the constant rest energy omega (n - N/2) is a global
    # phase, carried as zero, so no output depends on omega
    slow, fast = ModelParams(g=0.8, omega=1.0), ModelParams(g=0.8, omega=1e6)
    for N, n in ((3, 100), (4, 9)):
        basis = build_sector(N, n)
        for params in (slow, fast):
            np.testing.assert_array_equal(
                exact_tc_matrix(basis, params).diagonal, np.zeros(basis.dimension)
            )

    basis = build_sector(10, 1000)

    def outputs(params):
        eigensystem = eigendecompose(exact_tc_matrix(basis, params))
        series = run(SimulationConfig(N=10, n=1000, params=params, t_max=0.1, steps=101))
        flip = flip_summary(10, 1000, params, "exact", 2001, window=1.3)
        return [
            evolve(initial_state(basis), eigensystem, 0.03).amplitudes,
            *(series[name] for name in series.recorded),
            np.array([flip.tau_detected, flip.peak_fidelity]),
        ]

    for left, right in zip(outputs(slow), outputs(fast)):
        np.testing.assert_array_equal(left, right)


def test_exact_diagonal_equals_per_rung_rest_energy():
    # reference: cavity plus spin energy summed rung by rung, less the
    # sector's rest energy omega (n - N/2), bit for bit
    params, fast = ModelParams(g=0.8, omega=1.7), ModelParams(g=0.8, omega=1e6)
    for N, n in ((1, 1), (3, 100), (7, 4), (100, 90), (101, 10_000)):
        basis = build_sector(N, n)
        per_rung = [
            params.omega * (basis.photon_count(k) + (-N / 2 + k)) - params.omega * (n - N / 2)
            for k in range(basis.dimension)
        ]
        T = exact_tc_matrix(basis, params)
        np.testing.assert_array_equal(T.diagonal, per_rung)
        np.testing.assert_array_equal(exact_tc_matrix(basis, fast).offdiagonal, T.offdiagonal)


def test_exact_corner_coupling_matches_brute_force():
    # the k=2..3 corner for N=3: ladder algebra gives g*sqrt(3(n-2))
    n = 10
    basis = build_sector(3, n)
    T = exact_tc_matrix(basis, ModelParams(g=1.0, omega=1.0))
    H = oracle.brute_force_hamiltonian(3, n + 5, ModelParams(g=1.0, omega=1.0))
    M = n + 6
    rungs = []
    for k in (2, 3):
        vec = np.zeros(2**3 * M)
        vec[(n - k)::M] = oracle.dicke_vector(3, k)
        rungs.append(vec)
    element = rungs[1] @ H @ rungs[0]
    assert element == pytest.approx(4.898979485566356, abs=1e-12)  # sqrt(3 * 8)
    assert T.offdiagonal[2] == pytest.approx(element, abs=1e-12)
    assert element != pytest.approx(math.sqrt(3 * 7), abs=1e-3)


def test_every_exact_entry_matches_brute_force():
    params = ModelParams(g=0.7, omega=1.3)
    for N, n in ((1, 3), (2, 5), (3, 4), (4, 2)):
        basis = build_sector(N, n)
        T = exact_tc_matrix(basis, params)
        n_max = n + N + 2
        H = oracle.brute_force_hamiltonian(N, n_max, params)
        M = n_max + 1
        rungs = []
        for k in range(basis.dimension):
            vec = np.zeros(2**N * M)
            vec[(n - k)::M] = oracle.dicke_vector(N, k)
            rungs.append(vec)
        sector = np.array([[bra @ H @ ket for ket in rungs] for bra in rungs])
        np.testing.assert_allclose(sector, T.to_dense(), atol=1e-12)


def test_large_n_single_spin():
    T = large_n_matrix(1, ModelParams(g=1.0), 4)
    np.testing.assert_allclose(T.offdiagonal, [2.0], rtol=1e-15)
    np.testing.assert_array_equal(T.diagonal, [0.0, 0.0])


def test_large_n_three_spins():
    T = large_n_matrix(3, ModelParams(g=1.0), 1)
    np.testing.assert_allclose(T.offdiagonal, [math.sqrt(3), 2.0, math.sqrt(3)], rtol=1e-15)


def test_large_n_scaling_in_g_and_n():
    T = large_n_matrix(2, ModelParams(g=0.5), 16)
    np.testing.assert_allclose(T.offdiagonal, [2 * math.sqrt(2), 2 * math.sqrt(2)], rtol=1e-15)


def test_large_n_couplings_are_palindromic():
    for N in (2, 5, 9):
        off = large_n_matrix(N, ModelParams(), 7).offdiagonal
        np.testing.assert_allclose(off, off[::-1], rtol=1e-15)


def test_large_n_approximation_bound():
    # |exact/(g sqrt(n) b) - 1| <= N/n whenever the cavity outnumbers the spins
    params = ModelParams(g=1.0, omega=1.0)
    for N, n in ((2, 4), (3, 30), (5, 25), (10, 100), (10, 10), (8, 1000)):
        exact = exact_tc_matrix(build_sector(N, n), params).offdiagonal
        approx = large_n_matrix(N, params, n).offdiagonal
        assert np.max(np.abs(exact / approx - 1.0)) <= N / n


def test_offdiagonals_are_nonnegative():
    assert np.all(exact_tc_matrix(build_sector(6, 9), ModelParams()).offdiagonal >= 0)
    assert np.all(large_n_matrix(6, ModelParams(), 9).offdiagonal >= 0)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega=-1.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ModelParams(g=value)
        with pytest.raises(ValueError):
            ModelParams(omega=value)
    with pytest.raises(ValueError):
        ModelParams(t_off=0.0)
    assert ModelParams().t_off == math.inf


def test_tridiagonal_operator_validation():
    with pytest.raises(ValueError):
        TridiagonalOperator(diagonal=np.zeros(3), offdiagonal=np.zeros(3))
    with pytest.raises(ValueError):
        TridiagonalOperator(diagonal=np.zeros((2, 2)), offdiagonal=np.zeros(1))


def test_tridiagonal_matvec_matches_dense():
    rng = np.random.default_rng(42)
    T = TridiagonalOperator(diagonal=rng.normal(size=6), offdiagonal=rng.normal(size=5))
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    np.testing.assert_allclose(T.matvec(vec), T.to_dense() @ vec, atol=1e-14)

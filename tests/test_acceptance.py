"""Acceptance gate: eight numbered criteria with pinned tolerances.

conftest.py turns each criterion's outcome into one
`ACCEPTANCE NN name: PASS|FAIL` line on the terminal.  Windows and sample
counts were chosen so each detection sits orders of magnitude inside its
tolerance.
"""

import math
import time

import numpy as np
import pytest

from dicke_battery import analysis, dynamics, observables, oracle, spectra
from dicke_battery.hilbert import build_sector, initial_state
from dicke_battery.operators import ModelParams, exact_tc_matrix, large_n_matrix
from dicke_battery.spectra import eigendecompose


def flip_run(N, n, model, t_max, steps, record=("fidelity",), g=1.0):
    config = dynamics.SimulationConfig(
        N=N, n=n, params=ModelParams(g=g), t_max=t_max, steps=steps,
        model=model, record=record,
    )
    return dynamics.run(config)


def test_criterion_01_universal_flip_time():
    # run's large_n path is the closed-form rotation; its independent check
    # against the numeric ladder is in `verify` and test_dynamics
    n = 10_000
    tau = math.pi / 200.0
    started = time.perf_counter()
    for N in range(1, 11):
        series = flip_run(N, n, "large_n", t_max=1.2 * tau, steps=4001)
        detected, height = analysis.detect_flip_time(series)
        assert abs(detected / tau - 1.0) < 1e-6
        assert height >= 1.0 - 1e-10
    assert time.perf_counter() - started < 1.0


def test_criterion_02_exact_model_flip():
    n, N = 10_000, 10
    tau = math.pi / 200.0
    started = time.perf_counter()
    series = flip_run(N, n, "exact", t_max=4.0 * tau, steps=4001,
                      record=("fidelity", "concurrence"))
    detected, height = analysis.detect_flip_time(series)
    assert abs(detected / tau - 1.0) < 5e-3
    assert height >= 0.99
    assert float(np.max(series["concurrence"])) <= 0.01
    assert time.perf_counter() - started < 5.0


def test_criterion_03_degraded_regimes():
    N = 10
    peak_fidelity = {}
    peak_concurrence = {}
    for n in (100, 20, 12):
        tau = analysis.universal_flip_time(N, 1.0, n)
        series = flip_run(N, n, "exact", t_max=6.0 * tau, steps=4001,
                          record=("fidelity", "concurrence"))
        peak_fidelity[n] = float(np.max(series["fidelity"]))
        peak_concurrence[n] = float(np.max(series["concurrence"]))
    assert peak_fidelity[100] > peak_fidelity[20] > peak_fidelity[12]
    assert peak_fidelity[12] < 1.0
    assert peak_concurrence[100] < peak_concurrence[20] < peak_concurrence[12]


def test_criterion_04_over_subscribed_cavity():
    N, n = 100, 90
    tau = analysis.universal_flip_time(N, 1.0, n)
    started = time.perf_counter()
    series = flip_run(N, n, "exact", t_max=10.0 * tau, steps=2001,
                      record=("W_over_capacity",))
    elapsed = time.perf_counter() - started
    transferred = N * series["W_over_capacity"]
    assert float(np.max(transferred)) <= 90.0 + 1e-9  # photons bound the transfer
    assert float(np.max(series["W_over_capacity"])) < 1.0
    assert elapsed < 10.0


def test_criterion_05_power_advantage():
    for N in range(1, 101):
        report = analysis.compare_protocols(N, 100, model="large_n", steps=501)
        assert report.ratio == pytest.approx(math.sqrt(N), rel=1e-12)
    for N in (2, 4, 9):
        report = analysis.compare_protocols(N, 100 * N, model="exact", steps=3001)
        detected_ratio = report.tau_detected_parallel / report.tau_detected_collective
        assert abs(detected_ratio / math.sqrt(N) - 1.0) < 0.02


def test_criterion_06_spectra():
    for N in range(1, 61):
        n = max(9, N)
        scale = math.sqrt(n)
        numeric = eigendecompose(large_n_matrix(N, ModelParams(), n)).eigenvalues
        ladder = np.sort(spectra.analytic_eigenvalues(N, 1.0, n))
        assert float(np.max(np.abs(numeric - ladder))) / scale < 1e-10
    for N in range(1, 41):
        vectors = spectra.analytic_eigenvectors(N)
        gram = vectors.T @ vectors
        assert float(np.max(np.abs(gram - np.eye(N + 1)))) < 1e-10


def test_criterion_08_oracle_equivalence():
    params = ModelParams(g=1.0, omega=1.0)
    rng = np.random.default_rng(1234)
    worst = 0.0
    for N in (1, 2, 3):
        for n in range(1, 13):
            basis = build_sector(N, n)
            eigensystem = eigendecompose(exact_tc_matrix(basis, params))
            psi0 = initial_state(basis)
            # one dense diagonalization per (N, n); every state is leakage-checked
            times = rng.uniform(0.0, 5.0, size=20)
            for t, full in zip(times, oracle.brute_force_trajectory(N, n, params, times)):
                sector = dynamics.evolve(psi0, eigensystem, float(t))
                reference = oracle.full_to_sector(full, basis)
                worst = max(worst, float(np.max(np.abs(sector.amplitudes - reference))))

                rho1 = observables.single_spin_density(sector)
                for spin in range(N):
                    diff = oracle.reduced_spin_density(full, spin) - rho1
                    worst = max(worst, float(np.max(np.abs(diff))))
                worst = max(
                    worst,
                    abs(
                        observables.von_neumann_entropy(rho1)
                        - observables.von_neumann_entropy(oracle.reduced_spin_density(full, 0))
                    ),
                )
                if N >= 2:
                    rho2 = observables.two_spin_density(sector)
                    for first in range(N):
                        for second in range(first + 1, N):
                            reference_pair = oracle.reduced_two_spin_density(full, first, second)
                            worst = max(worst, float(np.max(np.abs(reference_pair - rho2))))
                    worst = max(
                        worst,
                        abs(
                            observables.pairwise_concurrence(rho2)
                            - observables.pairwise_concurrence(
                                oracle.reduced_two_spin_density(full, 0, 1)
                            )
                        ),
                    )
    assert worst < 1e-8


def test_criterion_09_conservation():
    N, n = 10, 100
    params = ModelParams()
    tau = analysis.universal_flip_time(N, 1.0, n)
    config = dynamics.SimulationConfig(
        N=N, n=n, params=params, t_max=30.0 * tau, steps=10_000,
        record=("norm",),
    )
    series = dynamics.run(config)
    assert float(np.max(np.abs(series["norm"] - 1.0))) < 1e-10

    basis = build_sector(N, n)
    operator = exact_tc_matrix(basis, params)
    eigensystem = eigendecompose(operator)
    assert eigensystem.orthonormality_residual() < 1e-12
    psi0 = initial_state(basis)
    dense = operator.to_dense()
    energies = []
    for t in np.linspace(0.0, 30.0 * tau, 500):
        psi = dynamics.evolve(psi0, eigensystem, float(t)).amplitudes
        energies.append(np.vdot(psi, dense @ psi).real)
    # <H> is exactly 0 from rung 0 in the rotating frame
    radius = float(np.max(np.abs(eigensystem.eigenvalues)))
    assert float(np.max(np.abs(energies))) < 1e-12 * radius


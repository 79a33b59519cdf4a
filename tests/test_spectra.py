import math
from fractions import Fraction

import numpy as np
import pytest

from dicke_battery.operators import ModelParams, TridiagonalOperator, large_n_matrix
from dicke_battery.spectra import (
    EigenSystem,
    analytic_eigenvalues,
    analytic_eigenvectors,
    binomial_weighted_inner,
    eigendecompose,
    pseudo_hermite,
    pseudo_hermite_family,
    rodrigues_residual,
    scaled_pseudo_hermite,
)


def test_two_level_crossing():
    T = TridiagonalOperator(diagonal=np.zeros(2), offdiagonal=np.ones(1))
    eig = eigendecompose(T)
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_single_entry_operator():
    eig = eigendecompose(TridiagonalOperator(diagonal=np.array([3.5]), offdiagonal=np.zeros(0)))
    np.testing.assert_array_equal(eig.eigenvalues, [3.5])
    np.testing.assert_array_equal(eig.eigenvectors, [[1.0]])


def test_numeric_matches_dense_reference():
    rng = np.random.default_rng(3)
    T = TridiagonalOperator(diagonal=rng.normal(size=12), offdiagonal=rng.normal(size=11))
    eig = eigendecompose(T)
    np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(T.to_dense()), atol=1e-12)
    assert eig.orthonormality_residual() < 1e-12
    residual = T.to_dense() @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
    assert np.max(np.abs(residual)) < 1e-12 * max(np.max(np.abs(T.to_dense())), 1.0)


def test_eigensystem_requires_sorted_values():
    with pytest.raises(ValueError):
        EigenSystem(eigenvalues=np.array([1.0, 0.0]), eigenvectors=np.eye(2))


def test_ladder_spectrum_three_spins():
    np.testing.assert_allclose(analytic_eigenvalues(3, 1.0, 1), [3.0, 1.0, -1.0, -3.0], atol=1e-15)


def test_ladder_spectrum_scales_with_g_sqrt_n():
    np.testing.assert_allclose(analytic_eigenvalues(1, 2.0, 4), [4.0, -4.0], atol=1e-15)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 20, 41, 60])
def test_ladder_spectrum_matches_numeric(N):
    g, n = 0.7, 9
    numeric = eigendecompose(large_n_matrix(N, ModelParams(g=g), n)).eigenvalues
    analytic = np.sort(analytic_eigenvalues(N, g, n))
    assert np.max(np.abs(numeric - analytic)) < 1e-10 * g * math.sqrt(n)


def test_polynomials_low_orders():
    assert pseudo_hermite(5, 0, 3) == 1
    assert pseudo_hermite(3, 1, 1) == 1
    assert pseudo_hermite(2, 2, 1) == -2


def test_polynomials_reject_out_of_range():
    with pytest.raises(ValueError):
        pseudo_hermite(3, 4, 0)
    with pytest.raises(ValueError):
        pseudo_hermite(3, 0, 5)
    with pytest.raises(ValueError):
        pseudo_hermite(0, 0, 0)


def test_polynomial_family_table_matches_pointwise():
    family = pseudo_hermite_family(6)
    for k in range(7):
        for xi in range(7):
            assert family.values[k][xi] == pseudo_hermite(6, k, xi)


@pytest.mark.parametrize("N", [1, 2, 5, 12, 25])
def test_polynomial_parity(N):
    family = pseudo_hermite_family(N)
    for k in range(N + 1):
        for xi in range(N + 1):
            assert family.values[k][N - xi] == (-1) ** k * family.values[k][xi]


def test_scaled_polynomials_low_orders():
    assert scaled_pseudo_hermite(4, 1, Fraction(1, 2)) == 2
    assert scaled_pseudo_hermite(3, 0, -1) == 1
    assert scaled_pseudo_hermite(2, 2, 0) == -2


def test_scaled_polynomials_match_unscaled_through_order_two():
    for N in (1, 2, 3, 8, 13):
        for k in range(min(2, N) + 1):
            for xi in range(N + 1):
                x = Fraction(N - 2 * xi, N)
                assert scaled_pseudo_hermite(N, k, x) == pseudo_hermite(N, k, xi)


def test_scaled_polynomials_reject_outside_interval():
    with pytest.raises(ValueError):
        scaled_pseudo_hermite(3, 1, Fraction(4, 3))
    with pytest.raises(ValueError):
        scaled_pseudo_hermite(3, 1, -2)


def test_scaled_polynomials_return_exact_rationals():
    value = scaled_pseudo_hermite(7, 3, Fraction(2, 7))
    assert isinstance(value, Fraction)
    # N^3 x^3 - 3 N^2 x at x = 2/7
    assert value == Fraction(7**3 * 8, 343) - 3 * 49 * Fraction(2, 7)


def test_eigenvector_matrix_single_spin():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    np.testing.assert_allclose(analytic_eigenvectors(1), expected, atol=1e-15)


def test_eigenvector_middle_column_two_spins():
    column = analytic_eigenvectors(2)[:, 1]
    np.testing.assert_allclose(column, [1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)], atol=1e-15)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 10, 17, 28, 40])
def test_eigenvector_matrix_is_orthonormal(N):
    V = analytic_eigenvectors(N)
    assert np.max(np.abs(V.T @ V - np.eye(N + 1))) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 4, 9, 16, 25])
def test_eigenvectors_diagonalize_ladder_operator(N):
    g, n = 1.0, 1
    dense = large_n_matrix(N, ModelParams(g=g), n).to_dense()
    V = analytic_eigenvectors(N)
    ladder = analytic_eigenvalues(N, g, n)
    residual = dense @ V - V * ladder[None, :]
    assert np.max(np.abs(residual)) < 1e-10 * g * math.sqrt(n) * N


@pytest.mark.parametrize("N", [1, 2, 7, 19, 30])
def test_binomial_weighted_orthogonality_is_exact(N):
    family = pseudo_hermite_family(N)
    for j in range(N + 1):
        for k in range(j + 1):
            inner = binomial_weighted_inner(family, j, k)
            if j == k:
                assert inner == 2**N * math.factorial(k) ** 2 * math.comb(N, k)
            else:
                assert inner == 0


def test_numeric_and_analytic_eigenvectors_agree_up_to_sign():
    N, g, n = 14, 1.0, 1
    eig = eigendecompose(large_n_matrix(N, ModelParams(g=g), n))
    V = analytic_eigenvectors(N)
    # ascending numeric column j pairs with ladder rung k = N - j
    for j in range(N + 1):
        overlap = abs(np.dot(eig.eigenvectors[:, j], V[:, N - j]))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_recursion_coefficient_is_squared_coupling():
    # (k-1)(N-k+2) in the three-term recursion equals b_{k-1}^2
    for N in (2, 5, 11):
        b = large_n_matrix(N, ModelParams(), 1).offdiagonal
        for k in range(2, N + 1):
            assert (k - 1) * (N - k + 2) == pytest.approx(b[k - 2] ** 2, rel=1e-12)


def test_rodrigues_residual_vanishes():
    assert rodrigues_residual(5, 0) == 0.0
    assert rodrigues_residual(3, 1) < 1e-12
    assert rodrigues_residual(4, 2) < 1e-12


def test_rodrigues_residual_all_small_orders():
    worst = max(rodrigues_residual(N, k) for N in range(1, 11) for k in range(N + 1))
    assert worst < 1e-12


def test_rodrigues_rejects_bad_order():
    with pytest.raises(ValueError):
        rodrigues_residual(3, 4)

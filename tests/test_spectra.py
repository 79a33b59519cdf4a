import math

import numpy as np
import pytest

import scipy.linalg

from dicke_battery.hilbert import build_sector
from dicke_battery.operators import ModelParams, TridiagonalOperator, exact_tc_matrix, large_n_matrix
from dicke_battery.spectra import (
    EigenSolverError,
    EigenSystem,
    analytic_eigenvalues,
    analytic_eigenvectors,
    chiral_decompose,
    eigendecompose,
    pseudo_hermite_family,
    spectral_measure,
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


@pytest.mark.parametrize("N, n", [(1, 1), (1, 7), (40, 40), (40, 900), (2000, 2000)])
def test_end_weights_match_eigenvector_ends(N, n):
    operator = exact_tc_matrix(build_sector(N, n), ModelParams(g=0.8))
    values, weights = spectral_measure(operator)
    eig = eigendecompose(operator)
    reference = eig.eigenvectors[0] * eig.eigenvectors[-1]
    # bit for bit the eigenvalues of scipy's public eigenvalue-only solver
    np.testing.assert_array_equal(
        values, scipy.linalg.eigvalsh_tridiagonal(operator.diagonal, operator.offdiagonal)
    )
    np.testing.assert_allclose(values, eig.eigenvalues, rtol=0, atol=1e-13 * np.max(np.abs(values)))
    scale = np.max(np.abs(reference))
    np.testing.assert_allclose(weights, reference, rtol=0, atol=1e-12 * scale)
    # sum_j v_0j v_Nj = <0|N> = 0, to the rounding of a dim-term sum
    assert abs(weights.sum()) < operator.dimension * np.finfo(float).eps * np.abs(weights).sum()


def test_end_weights_carry_signs_of_a_general_jacobi_matrix():
    rng = np.random.default_rng(3)
    operator = TridiagonalOperator(diagonal=rng.normal(size=12), offdiagonal=rng.normal(size=11))
    assert np.any(operator.offdiagonal < 0)
    _, weights = spectral_measure(operator)
    eig = eigendecompose(operator)
    np.testing.assert_allclose(weights, eig.eigenvectors[0] * eig.eigenvectors[-1], atol=1e-14)


def test_end_weights_of_trivial_and_cut_ladders():
    values, weights = spectral_measure(TridiagonalOperator(np.array([0.3]), np.zeros(0)))
    np.testing.assert_array_equal(values, [0.3])
    np.testing.assert_array_equal(weights, [1.0])
    _, weights = spectral_measure(TridiagonalOperator(np.arange(3.0), np.array([1.0, 0.0])))
    np.testing.assert_array_equal(weights, 0.0)


def test_end_weights_refuse_a_near_degenerate_spectrum():
    # Wilkinson's W21+: its top eigenvalue pairs agree to about 1e-14 of the radius
    wilkinson = TridiagonalOperator(np.abs(np.arange(-10.0, 11.0)), np.ones(20))
    with pytest.raises(EigenSolverError, match="gap"):
        spectral_measure(wilkinson)


def _even_to_odd_block(operator):
    """C with C[i, j] = <2i| T |2j+1>, padded with a zero column to ceil(D/2) square."""
    half = (operator.dimension + 1) // 2
    dense = operator.to_dense()
    block = np.zeros((half, half))
    odd = dense[0::2, 1::2]
    block[:, : odd.shape[1]] = odd
    return block


@pytest.mark.parametrize(
    "operator",
    [
        TridiagonalOperator(np.zeros(1), np.zeros(0)),
        exact_tc_matrix(build_sector(1, 5), ModelParams()),
        exact_tc_matrix(build_sector(2, 2), ModelParams(g=0.6)),
        exact_tc_matrix(build_sector(9, 4), ModelParams()),
        exact_tc_matrix(build_sector(40, 900), ModelParams(g=1.7)),
        large_n_matrix(61, ModelParams(), 100),
        exact_tc_matrix(build_sector(2000, 2000), ModelParams()),
    ],
    ids=lambda operator: f"D{operator.dimension}",
)
def test_chiral_decompose_is_an_svd_of_the_even_to_odd_block(operator):
    values, evens, odds = chiral_decompose(operator)
    half = (operator.dimension + 1) // 2
    eps = np.finfo(float).eps
    assert values.shape == (half,) and evens.shape == odds.shape == (half, half)
    assert np.all(np.diff(values) <= 0) and values[-1] >= 0
    # orthonormal to the rounding of half-term dot products
    for factor in (evens, odds):
        assert np.max(np.abs(factor.T @ factor - np.eye(half))) < 4 * half * eps
    block = _even_to_odd_block(operator)
    radius = max(values[0], 1.0)
    assert np.max(np.abs(evens * values @ odds.T - block)) < 4 * half * eps * radius
    if operator.dimension % 2:
        # the padding column: singular value 0 to rounding, carried by the padding row of W
        assert values[-1] < 4 * half * eps * radius
        assert abs(odds[-1, -1]) > 1 - 4 * half * eps
    # the ladder's eigenvalues are +-sigma, with one 0 for odd D
    paired = values[: operator.dimension // 2]
    mirrored = np.concatenate([-paired, paired, values[operator.dimension // 2 :]])
    np.testing.assert_allclose(
        np.sort(mirrored), eigendecompose(operator).eigenvalues, rtol=0, atol=4 * half * eps * radius
    )


def test_chiral_decompose_refuses_a_nonzero_diagonal():
    operator = exact_tc_matrix(build_sector(4, 10), ModelParams())
    detuned = TridiagonalOperator(0.1 * np.arange(operator.dimension), operator.offdiagonal)
    with pytest.raises(ValueError, match="zero diagonal"):
        chiral_decompose(detuned)


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
    assert pseudo_hermite_family(5)[0][3] == 1
    assert pseudo_hermite_family(3)[1][1] == 1
    assert pseudo_hermite_family(2)[2][1] == -2


def test_polynomials_reject_out_of_range():
    with pytest.raises(ValueError):
        pseudo_hermite_family(0)


def test_polynomial_family_table_matches_pointwise():
    # reference: the three-term recursion run separately at each point
    def pointwise(N, k, xi):
        previous, current = 1, N - 2 * xi
        if k == 0:
            return previous
        for j in range(2, k + 1):
            previous, current = current, (N - 2 * xi) * current - (j - 1) * (N - j + 2) * previous
        return current

    table = pseudo_hermite_family(6)
    for k in range(7):
        for xi in range(7):
            assert table[k][xi] == pointwise(6, k, xi)


@pytest.mark.parametrize("N", [1, 2, 5, 12, 25])
def test_polynomial_parity(N):
    table = pseudo_hermite_family(N)
    for k in range(N + 1):
        for xi in range(N + 1):
            assert table[k][N - xi] == (-1) ** k * table[k][xi]


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

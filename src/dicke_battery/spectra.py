"""Spectra of the charging operators.

Numerical route: LAPACK's implicit-shift solver for real symmetric
tridiagonal matrices.  Analytic route, valid for the large-photon
operator: the equally spaced ladder spectrum g*sqrt(n)*(N - 2k) and
eigenvectors built from a binomial-weighted family of polynomials

    P_0 = 1,  P_1(xi) = N - 2 xi,
    P_k(xi) = (N - 2 xi) P_{k-1}(xi) - (k - 1)(N - k + 2) P_{k-2}(xi),

evaluated in exact integer arithmetic (values explode combinatorially, so
floats are not an option).  The rescaled family obtained by substituting
N - 2 xi = N x and dropping the k-dependence of the second coefficient,

    P_0 = 1,  P_1 = N x,  P_k = N x P_{k-1} - N (k - 1) P_{k-2},

is the large-N limit of the same polynomials; it coincides with the
unscaled family for k <= 2 and satisfies a Gaussian Rodrigues formula
exactly.  It exists here only as integer coefficient lists, which
`rodrigues_residual` compares with the Rodrigues form coefficient by
coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .operators import TridiagonalOperator

ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-10


class EigenSolverError(RuntimeError):
    """The tridiagonal eigensolver exhausted its sweep budget."""


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in ascending order with orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.eigenvalues, dtype=float)
        vectors = np.array(self.eigenvectors, dtype=float)
        if values.ndim != 1 or vectors.shape != (values.size, values.size):
            raise ValueError("eigenvalue vector and square eigenvector matrix required")
        if np.any(np.diff(values) < 0):
            raise ValueError("eigenvalues must be ascending")
        values.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "eigenvectors", vectors)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size

    def orthonormality_residual(self) -> float:
        gram = self.eigenvectors.T @ self.eigenvectors
        return float(np.max(np.abs(gram - np.eye(self.dimension))))


def eigendecompose(operator: TridiagonalOperator) -> EigenSystem:
    """Full spectrum of a real symmetric tridiagonal operator.

    Deterministic for identical input.  Raises :class:`EigenSolverError`
    if LAPACK reports non-convergence, which a well-scaled charging
    operator never triggers.
    """
    try:
        values, vectors = scipy.linalg.eigh_tridiagonal(
            operator.diagonal, operator.offdiagonal
        )
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolverError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    return EigenSystem(eigenvalues=values, eigenvectors=vectors)


def analytic_eigenvalues(N: int, g: float, n: int) -> np.ndarray:
    """Ladder spectrum g*sqrt(n)*(N - 2k) of the large-photon operator.

    Returned in rung order k = 0..N (descending values), matching the
    column order of :func:`analytic_eigenvectors`.
    """
    if N < 1 or n < 1 or not g > 0:
        raise ValueError(f"need N >= 1, n >= 1, g > 0, got N={N}, n={n}, g={g}")
    k = np.arange(N + 1, dtype=float)
    return g * math.sqrt(n) * (N - 2.0 * k)


@dataclass(frozen=True)
class PseudoHermiteFamily:
    """All values P_k(xi), k, xi = 0..N, as exact integers (values[k][xi])."""

    N: int
    values: tuple[tuple[int, ...], ...]


def pseudo_hermite_family(N: int) -> PseudoHermiteFamily:
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    rows = [[1] * (N + 1), [N - 2 * xi for xi in range(N + 1)]]
    for k in range(2, N + 1):
        rows.append(
            [
                (N - 2 * xi) * rows[k - 1][xi] - (k - 1) * (N - k + 2) * rows[k - 2][xi]
                for xi in range(N + 1)
            ]
        )
    values = tuple(tuple(row) for row in rows[: N + 1])
    return PseudoHermiteFamily(N=N, values=values)


def analytic_eigenvectors(N: int) -> np.ndarray:
    """Orthonormal eigenvectors of the large-photon operator, column k per rung.

    Entry (xi, k) is sqrt(C(N, xi)) * P_k(xi) / (2^(N/2) k! sqrt(C(N, k)));
    column k pairs with eigenvalue g*sqrt(n)*(N - 2k).  Each entry is
    evaluated as the square root of an exact rational, so the matrix is
    orthonormal to a few ulp even for N around 40.
    """
    family = pseudo_hermite_family(N)
    matrix = np.empty((N + 1, N + 1))
    for k in range(N + 1):
        denominator = 2**N * math.factorial(k) ** 2 * math.comb(N, k)
        for xi in range(N + 1):
            p = family.values[k][xi]
            squared = Fraction(math.comb(N, xi) * p * p, denominator)
            matrix[xi, k] = math.copysign(math.sqrt(squared), p)
    return matrix


def binomial_weighted_inner(family: PseudoHermiteFamily, j: int, k: int) -> int:
    """Exact integer inner product sum_xi C(N, xi) P_j(xi) P_k(xi).

    Vanishes identically for j != k; equals 2^N (k!)^2 C(N, k) for j == k.
    """
    N = family.N
    if not (0 <= j <= N and 0 <= k <= N):
        raise ValueError(f"polynomial orders ({j}, {k}) outside 0..{N}")
    return sum(
        math.comb(N, xi) * family.values[j][xi] * family.values[k][xi]
        for xi in range(N + 1)
    )


def _poly_derivative(coefficients: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coefficients)][1:]


def _poly_subtract(a: list[int], b: list[int]) -> list[int]:
    length = max(len(a), len(b))
    a = a + [0] * (length - len(a))
    b = b + [0] * (length - len(b))
    return [x - y for x, y in zip(a, b)]


def _scaled_recursion_coefficients(N: int, k: int) -> list[int]:
    """Integer coefficients (ascending powers of x) of the rescaled P_k."""
    previous = [1]
    if k == 0:
        return previous
    current = [0, N]
    for j in range(2, k + 1):
        shifted = [0] + [N * c for c in current]
        damped = [N * (j - 1) * c for c in previous]
        previous, current = current, _poly_subtract(shifted, damped)
    return current


def _gaussian_derivative_coefficients(N: int, k: int) -> list[int]:
    """q_k with d^k/dx^k exp(-N x^2 / 2) = q_k(x) exp(-N x^2 / 2), exact."""
    q = [1]
    for _ in range(k):
        q = _poly_subtract(_poly_derivative(q), [0] + [N * c for c in q])
    return q


def rodrigues_residual(N: int, k: int) -> int:
    """Largest |coefficient| of recursion minus Rodrigues form for the rescaled P_k.

    The Rodrigues side (-1)^k e^{N x^2/2} d^k/dx^k e^{-N x^2/2} is expanded
    by exact symbolic differentiation of the Gaussian-times-polynomial
    form, so the residual is an integer, 0 exactly when the identity holds.
    """
    if N < 1 or not 0 <= k <= N:
        raise ValueError(f"need N >= 1 and polynomial order 0..N, got N={N}, k={k}")
    recursion = _scaled_recursion_coefficients(N, k)
    sign = -1 if k % 2 else 1
    rodrigues = [sign * c for c in _gaussian_derivative_coefficients(N, k)]
    return max(abs(c) for c in _poly_subtract(recursion, rodrigues))

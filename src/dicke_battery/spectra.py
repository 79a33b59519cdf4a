"""Spectra of the charging operators.

Numerical routes: LAPACK's solvers for real symmetric tridiagonal
matrices, either for the full eigensystem or, through `spectral_measure`,
for the eigenvalues and the end-to-end weights v_0j v_{D-1,j} alone; and,
through `chiral_decompose`, the singular value decomposition of the
even-to-odd block of a zero-diagonal ladder, half the size of the
ladder.  Analytic route, valid for the large-photon
operator: the equally spaced ladder spectrum g*sqrt(n)*(N - 2k) and
eigenvectors built from a binomial-weighted family of polynomials

    P_0 = 1,  P_1(xi) = N - 2 xi,
    P_k(xi) = (N - 2 xi) P_{k-1}(xi) - (k - 1)(N - k + 2) P_{k-2}(xi),

evaluated in exact integer arithmetic (values explode combinatorially, so
floats are not an option).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.linalg.lapack

from .operators import TridiagonalOperator

# smallest eigenvalue gap over spectral radius that spectral_measure accepts.
# An eigenvalue carries an absolute error of a few eps times the radius, so a
# factor lambda_j - lambda_i of the weight product is good to about
# eps / ratio: 2e-10 at the bound.  Every physical ladder up to N = n = 10^4
# sits at 6.2e-5 or more.
MIN_RELATIVE_GAP = 1e-6
# rows of the (rows, dim) difference block formed at a time
MEASURE_CHUNK = 128


class EigenSolverError(RuntimeError):
    """The tridiagonal eigensolver or the bidiagonal SVD failed to converge,
    or the eigenvalues lie too close together for the end weights to be
    formed."""


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


def spectral_measure(operator: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and end weights c_j = v_0j v_{D-1,j}, no eigenvectors.

    For a Jacobi matrix the weights follow from the eigenvalues alone,
    c_j = prod_k b_k / prod_{i != j} (lambda_j - lambda_i) with b_k the
    off-diagonals (Golub & Welsch, Math. Comp. 23, 221 (1969); Parlett,
    The Symmetric Eigenvalue Problem, ch. 7), so <D-1| exp(-i T t) |0> is
    sum_j c_j exp(-i lambda_j t).  Both products are summed as logs of
    magnitudes.  Every factor is first divided by the power of two nearest
    the geometric mean of |b|: the scaling is exact, cancels between the
    two products and centres the logs on 0, so the sums round like sums of
    small numbers: at dim 4097, c is within 2.6e-13 of max |c| of an 80-bit
    evaluation on the same eigenvalues.  For ascending eigenvalues
    prod_{i != j} has D-1-j negative factors, so the sign of c_j is
    (-1)^(D-1-j) times the sign of prod b_k.  The differences are formed
    MEASURE_CHUNK rows at a time, so no (D, D) array exists.  Raises
    :class:`EigenSolverError` when the smallest gap falls below
    MIN_RELATIVE_GAP times the spectral radius, where the weights would
    be rounding noise.
    """
    dim = operator.dimension
    if dim == 1:
        return operator.diagonal.copy(), np.ones(1)
    # dsterf, the root-free QR routine behind eigvalsh_tridiagonal, called
    # without its argument handling: the same eigenvalues bit for bit, 40 us sooner
    values, info = scipy.linalg.lapack.dsterf(operator.diagonal, operator.offdiagonal)
    if info:
        raise EigenSolverError(f"tridiagonal eigensolver did not converge: dsterf info {info}")
    sign = float(np.prod(np.sign(operator.offdiagonal)))
    if sign == 0.0:
        # a zero coupling cuts the ladder: no path joins its two ends
        return values, np.zeros(dim)
    radius = max(-values[0], values[-1])
    gap = float(np.min(np.diff(values))) / radius
    if gap < MIN_RELATIVE_GAP:
        raise EigenSolverError(
            f"eigenvalue gap {gap:.3e} of the spectral radius is below {MIN_RELATIVE_GAP:.0e}: "
            "the end weights would be rounding noise"
        )
    magnitudes = np.abs(operator.offdiagonal)
    scale = 2.0 ** -round(float(np.mean(np.log2(magnitudes))))
    scaled = values * scale
    log_weights = np.full(dim, np.sum(np.log(magnitudes * scale)))
    block = np.empty((min(MEASURE_CHUNK, dim), dim))
    for start in range(0, dim, MEASURE_CHUNK):
        rows = scaled[start : start + MEASURE_CHUNK]
        differences = np.subtract(rows[:, None], scaled, out=block[: rows.size])
        # the i = j factor is left out of the product: log 1 = 0
        differences.ravel()[start :: dim + 1] = 1.0
        np.abs(differences, out=differences)
        log_weights[start : start + rows.size] -= np.sum(np.log(differences, out=differences), axis=1)
    weights = np.exp(log_weights)
    weights *= sign
    weights[dim - 2 :: -2] *= -1.0
    return values, weights


@functools.cache
def _dbdsdc():
    """LAPACK dbdsdc from scipy's Cython LAPACK table, as a ctypes function.

    scipy.linalg.lapack does not wrap dbdsdc, but cython_lapack exports
    its pointer in a capsule.  The capsule is named after the C signature,
    whose typedef names differ between scipy builds, so the name is read
    rather than spelled out.  The call releases the interpreter lock.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["dbdsdc"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = get_pointer(capsule, get_name(capsule))
    text, number = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
    real = ctypes.POINTER(ctypes.c_double)
    # uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info
    prototype = ctypes.CFUNCTYPE(
        None, text, text, number, real, real, real, number, real, number, real, number,
        real, number, number,
    )
    return prototype(address)


def chiral_decompose(operator: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values and vectors of the even-to-odd block of a zero-diagonal ladder.

    With a zero diagonal, even rungs couple only to odd rungs, so on the
    even and odd rungs the ladder is [[0, C], [C^T, 0]] with C the lower
    bidiagonal of diagonal b_0, b_2, ... and subdiagonal b_1, b_3, ...
    Its eigenvalues are +-sigma for the singular values sigma of C, and
    from an even rung exp(-i T t) acts as U cos(Sigma t) U^T on the even
    rungs and as -i W sin(Sigma t) U^T into the odd ones, with C = U Sigma W^T.
    C is ceil(D/2) square: an odd D pads it with a zero column, whose
    singular value is 0 to rounding and whose row of W belongs to no rung.
    One call of LAPACK dbdsdc, the divide-and-conquer bidiagonal SVD
    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 79 (1995)), returns
    sigma in descending order with the orthogonal U and W.  Raises
    ValueError for a nonzero diagonal, which breaks the even/odd split,
    and :class:`EigenSolverError` if dbdsdc reports a failure.
    """
    if np.any(operator.diagonal):
        raise ValueError("the chiral decomposition needs a zero diagonal")
    dim = operator.dimension
    half = (dim + 1) // 2
    # dbdsdc overwrites d with sigma and destroys e
    values = np.zeros(half)
    values[: dim // 2] = operator.offdiagonal[0::2]
    sub = np.array(operator.offdiagonal[1::2])
    # column-major output in row-major buffers: u holds U^T and vt holds W
    u, vt = np.empty((2, half, half))
    work = np.empty(3 * half * half + 4 * half)
    iwork = np.empty(8 * half, dtype=np.intc)
    info = ctypes.c_int(0)
    order = ctypes.pointer(ctypes.c_int(half))

    def real(array):
        return array.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    # q and iq are not referenced when compq = "I"
    _dbdsdc()(
        b"L", b"I", order, real(values), real(sub), real(u), order, real(vt), order,
        ctypes.pointer(ctypes.c_double()), ctypes.pointer(ctypes.c_int()), real(work),
        iwork.ctypes.data_as(ctypes.POINTER(ctypes.c_int)), ctypes.pointer(info),
    )
    if info.value:
        raise EigenSolverError(f"bidiagonal SVD did not converge: dbdsdc info {info.value}")
    return values, u.T, vt


def analytic_eigenvalues(N: int, g: float, n: int) -> np.ndarray:
    """Ladder spectrum g*sqrt(n)*(N - 2k) of the large-photon operator.

    Returned in rung order k = 0..N (descending values), matching the
    column order of :func:`analytic_eigenvectors`.
    """
    if N < 1 or n < 1 or not g > 0:
        raise ValueError(f"need N >= 1, n >= 1, g > 0, got N={N}, n={n}, g={g}")
    k = np.arange(N + 1, dtype=float)
    return g * math.sqrt(n) * (N - 2.0 * k)


def pseudo_hermite_family(N: int) -> list[list[int]]:
    """All values P_k(xi), k, xi = 0..N, as exact integers (table[k][xi])."""
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
    return rows


def analytic_eigenvectors(N: int) -> np.ndarray:
    """Orthonormal eigenvectors of the large-photon operator, column k per rung.

    Entry (xi, k) is sqrt(C(N, xi)) * P_k(xi) / (2^(N/2) k! sqrt(C(N, k)));
    column k pairs with eigenvalue g*sqrt(n)*(N - 2k).  Each entry is
    evaluated as the square root of an exact rational, so the matrix is
    orthonormal to a few ulp even for N around 40.
    """
    table = pseudo_hermite_family(N)
    matrix = np.empty((N + 1, N + 1))
    for k in range(N + 1):
        denominator = 2**N * math.factorial(k) ** 2 * math.comb(N, k)
        for xi in range(N + 1):
            p = table[k][xi]
            squared = Fraction(math.comb(N, xi) * p * p, denominator)
            matrix[xi, k] = math.copysign(math.sqrt(squared), p)
    return matrix


"""Sector Hamiltonians: exact collective spin-photon coupling and its
large-photon approximation.

Both operators are real symmetric tridiagonal over the sector ladder and
are written in the frame rotating at the shared resonance omega: the rest
energy omega * (a†a + S_z) is the constant omega * (n - N/2) on the
sector, a global phase, so both diagonals are zero.  The exact ladder
couplings are g * sqrt((n-k)(N-k)(k+1)); the large-photon form freezes
the photon factor at sqrt(n), leaving g * sqrt(n) * sqrt((N-k+1) k)
between neighbouring rungs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import SectorBasis


@dataclass(frozen=True)
class ModelParams:
    """Physical knobs of the charging setup (hbar = 1).

    g : spin-photon coupling strength.
    omega : energy per excitation, the shared resonance of cavity and
        spins.  The sector operators live in the frame rotating at omega
        and do not read it; only the protocol comparison does, for the
        stored energy N * omega.
    t_off : end of the charging window; the coupling is on during
        [0, t_off] and off afterwards.  Defaults to "never switched off".
    """

    g: float = 1.0
    omega: float = 1.0
    t_off: float = math.inf

    def __post_init__(self) -> None:
        if not 0 < self.g < math.inf:
            raise ValueError(f"coupling must be positive and finite, got g={self.g}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"frequency must be positive and finite, got omega={self.omega}")
        if not self.t_off > 0:
            raise ValueError(f"charging window must be positive, got t_off={self.t_off}")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real symmetric tridiagonal operator, stored as two bands."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        diag = np.array(self.diagonal, dtype=float)
        off = np.array(self.offdiagonal, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diagonal must be a non-empty 1-d real vector")
        if off.shape != (diag.size - 1,):
            raise ValueError(
                f"offdiagonal has shape {off.shape}, expected ({diag.size - 1},)"
            )
        diag.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "offdiagonal", off)

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape != (self.dimension,):
            raise ValueError(f"vector has shape {vec.shape}, expected ({self.dimension},)")
        out = self.diagonal * vec
        if self.offdiagonal.size:
            out[:-1] = out[:-1] + self.offdiagonal * vec[1:]
            out[1:] = out[1:] + self.offdiagonal * vec[:-1]
        return out

    def to_dense(self) -> np.ndarray:
        dense = np.diag(self.diagonal)
        if self.offdiagonal.size:
            dense += np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)
        return dense


def exact_tc_matrix(basis: SectorBasis, params: ModelParams) -> TridiagonalOperator:
    """Full resonant Hamiltonian on the sector ladder, in the rotating frame.

    The coupling between rungs k and k+1 is g * sqrt((n-k)(N-k)(k+1))
    from the collective raising element sqrt((N-k)(k+1)) and the photon
    annihilation factor sqrt(n-k); the diagonal is zero.
    """
    k = np.arange(basis.K, dtype=float)
    off = params.g * np.sqrt((basis.n - k) * (basis.N - k) * (k + 1.0))
    return TridiagonalOperator(diagonal=np.zeros(basis.dimension), offdiagonal=off)


def large_n_matrix(N: int, params: ModelParams, n: int) -> TridiagonalOperator:
    """Large-photon charging operator on the (N+1)-rung ladder.

    Valid when n >> N: every photon factor collapses to sqrt(n), leaving
    pure ladder couplings g * sqrt(n) * b_k with
    b_k = sqrt(N - k + 1) * sqrt(k), k = 1..N.
    """
    if N < 1 or n < 1:
        raise ValueError(f"need N >= 1 and n >= 1, got N={N}, n={n}")
    k = np.arange(1, N + 1, dtype=float)
    off = params.g * math.sqrt(n) * np.sqrt((N - k + 1.0) * k)
    return TridiagonalOperator(diagonal=np.zeros(N + 1), offdiagonal=off)

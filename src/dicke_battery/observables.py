"""Scalar diagnostics of a charging state.

Stored energy, the Bloch angle, reduced spin densities and entanglement
measures, all closed-form in the ladder populations |c_k|^2 through the
four spin moments of :func:`spin_moments`.  The closed forms exist
because tracing out the cavity kills every coherence between different
rungs (each rung holds a different photon number), and the remaining
rung-diagonal mixture of symmetric states has permutation-invariant one-
and two-spin marginals.

Basis conventions: single spin (|down>, |up>); spin pair
(|dd>, |du>, |ud>, |uu>), first spin major.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hilbert import SectorState

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


class SpinMoments(NamedTuple):
    """Spin moments of the rung populations P_k = |c_k|^2, one entry per column.

    p = <k>/N is one spin up (W over capacity), p_uu = <k(k-1)>/(N(N-1))
    a pair both up, p_dd = <(N-k)(N-k-1)>/(N(N-1)) both down, and
    z = <k(N-k)>/(N(N-1)) is |du> and |ud> each and their coherence.
    N = 1 has no pair: every pair numerator vanishes, so those moments are 0.
    """

    p: np.ndarray
    p_uu: np.ndarray
    p_dd: np.ndarray
    z: np.ndarray

    def cos_theta(self) -> np.ndarray:
        """Bloch polar angle cosine of one spin, 2p - 1 (down = -1, up = +1)."""
        return 2.0 * self.p - 1.0

    def entropy(self) -> np.ndarray:
        """Single-spin von Neumann entropy, the binary entropy of p (nats)."""
        p = np.clip(self.p, 0.0, 1.0)
        return -(_xlogx(1.0 - p) + _xlogx(p))

    def concurrence(self) -> np.ndarray:
        """Pair concurrence of the X-shaped two-spin state, 2 max(0, z - sqrt(p_uu p_dd)).

        Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007); 0 for N = 1.
        """
        return 2.0 * np.maximum(0.0, self.z - np.sqrt(self.p_uu * self.p_dd))


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x, with 0 ln 0 = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def spin_moments(populations: np.ndarray, N: int) -> SpinMoments:
    """Spin moments of rung populations of shape (rungs,) or (rungs, samples)."""
    k = np.arange(populations.shape[0], dtype=float)
    pair_norm = max(N * (N - 1.0), 1.0)
    sums = np.stack((k, k * (k - 1.0), (N - k) * (N - k - 1.0), k * (N - k))) @ populations
    return SpinMoments(sums[0] / N, sums[1] / pair_norm, sums[2] / pair_norm, sums[3] / pair_norm)


def _state_moments(state: SectorState) -> SpinMoments:
    return spin_moments(state.populations(), state.basis.N)


def single_spin_density(state: SectorState) -> np.ndarray:
    """Reduced density matrix of one spin, diag(1 - p, p).

    Diagonal because the photon trace removes cross-rung coherences and
    every rung is a symmetric state with definite up-fraction.
    """
    p = float(_state_moments(state).p)
    return np.diag([1.0 - p, p]).astype(complex)


def von_neumann_entropy(density: np.ndarray) -> float:
    """-Tr rho ln rho in natural-log units, with 0 ln 0 = 0."""
    density = np.asarray(density)
    if density.ndim != 2 or density.shape[0] != density.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {density.shape}")
    eigenvalues = np.clip(np.linalg.eigvalsh(density), 0.0, None)
    positive = eigenvalues[eigenvalues > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def two_spin_density(state: SectorState) -> np.ndarray:
    """Reduced density matrix of a spin pair (any pair, by symmetry).

    X-shaped: diag(p_dd, z, z, p_uu) plus the coherence z between |du>
    and |ud>.
    """
    N = state.basis.N
    if N < 2:
        raise ValueError(f"a spin pair needs N >= 2, got N={N}")
    moments = _state_moments(state)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = moments.p_dd
    rho[1, 1] = rho[2, 2] = rho[1, 2] = rho[2, 1] = moments.z
    rho[3, 3] = moments.p_uu
    return rho


def pairwise_concurrence(density: np.ndarray) -> float:
    """Wootters concurrence of a two-spin density matrix.

    max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy).  They are taken as the
    singular values of sqrt(rho) (sy x sy) sqrt(rho)*, which never square-
    roots a near-zero eigenvalue and so keeps rounding at its own size.
    """
    rho = np.asarray(density, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"two-spin density matrix must be 4x4, got {rho.shape}")
    weights, vectors = np.linalg.eigh(rho)
    root = (vectors * np.sqrt(np.clip(weights, 0.0, None))) @ vectors.conj().T
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


"""Brute-force reference simulator on the full spin (x) Fock space.

Ground truth for small systems: no symmetry restriction, explicit tensor
products, dense diagonalization.  Deliberately naive and test-sized
(N <= 4, Fock truncation <= 64); the sector simulator must agree with it
wherever both apply.

Index layout: basis vector index = s * (n_max + 1) + m, where m is the
Fock level and s encodes the spin chain with spin 0 as the most
significant bit (bit value 1 = up).  Equivalently the state factors as
|spin 0> (x) ... (x) |spin N-1> (x) |photons>.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

from .hilbert import SectorBasis, SectorState
from .operators import ModelParams

MAX_SPINS = 4
MAX_FOCK = 64
LEAKAGE_TOL = 1e-12

# single-spin basis (|down>, |up>)
_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])
_HALF_SZ = np.diag([-0.5, 0.5])


class TruncationError(RuntimeError):
    """Population reached the top Fock level; the truncation is too tight."""


@dataclass(frozen=True)
class FullState:
    """State vector over the full 2^N * (n_max + 1) dimensional space."""

    N: int
    n_max: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=complex)
        expected = 2**self.N * (self.n_max + 1)
        if vector.shape != (expected,):
            raise ValueError(f"vector has shape {vector.shape}, expected ({expected},)")
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)

    def as_tensor(self) -> np.ndarray:
        return self.vector.reshape((2,) * self.N + (self.n_max + 1,))


def _check_sizes(N: int, n_max: int) -> None:
    if not 1 <= N <= MAX_SPINS:
        raise ValueError(f"brute force handles 1..{MAX_SPINS} spins, got N={N}")
    if not 1 <= n_max <= MAX_FOCK:
        raise ValueError(f"brute force handles Fock truncation 1..{MAX_FOCK}, got {n_max}")


def _spin_operator(N: int, j: int, op: np.ndarray) -> np.ndarray:
    factors = [op if i == j else np.eye(2) for i in range(N)]
    return reduce(np.kron, factors)


def brute_force_hamiltonian(N: int, n_max: int, params: ModelParams) -> np.ndarray:
    """Dense Hamiltonian on the full space with the excitation-conserving
    coupling g (S+ a + S- a†), the one the sector ladder reduces."""
    _check_sizes(N, n_max)
    M = n_max + 1
    annihilate = np.diag(np.sqrt(np.arange(1.0, M)), k=1)
    create = annihilate.T
    spin_raise = sum(_spin_operator(N, j, _RAISE) for j in range(N))
    spin_lower = spin_raise.T
    spin_z = sum(_spin_operator(N, j, _HALF_SZ) for j in range(N))

    H = params.omega * np.kron(np.eye(2**N), create @ annihilate)
    H += params.omega * np.kron(spin_z, np.eye(M))
    H += params.g * (np.kron(spin_raise, annihilate) + np.kron(spin_lower, create))
    return H


def excitation_operator(N: int, n_max: int) -> np.ndarray:
    """Conserved total a†a + S_z on the full space."""
    _check_sizes(N, n_max)
    M = n_max + 1
    number = np.diag(np.arange(float(M)))
    spin_z = sum(_spin_operator(N, j, _HALF_SZ) for j in range(N))
    return np.kron(np.eye(2**N), number) + np.kron(spin_z, np.eye(M))


def discharged_state(N: int, n: int, n_max: int) -> FullState:
    """All spins down, exactly n photons."""
    _check_sizes(N, n_max)
    if not 0 <= n <= n_max:
        raise ValueError(f"photon number {n} outside 0..{n_max}")
    vector = np.zeros(2**N * (n_max + 1), dtype=complex)
    vector[n] = 1.0  # spin index 0 is all-down
    return FullState(N=N, n_max=n_max, vector=vector)


def brute_force_evolve(N: int, n: int, params: ModelParams, t: float) -> FullState:
    """Evolve the discharged state to one time t >= 0; see brute_force_trajectory."""
    return brute_force_trajectory(N, n, params, [t])[0]


def brute_force_trajectory(N: int, n: int, params: ModelParams, times) -> list[FullState]:
    """Evolve the discharged state under the excitation-conserving model to each time.

    One dense diagonalization serves every time.  The truncation margin
    n_max = n + N + 2 can never be populated (the photon number only
    decreases from n), which is verified for every returned state.
    """
    for t in times:
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
    n_max = n + N + 2
    _check_sizes(N, n_max)
    H = brute_force_hamiltonian(N, n_max, params)
    psi0 = discharged_state(N, n, n_max).vector
    values, vectors = scipy.linalg.eigh(H)
    weights = vectors.T @ psi0
    states = []
    for t in times:
        state = FullState(N=N, n_max=n_max, vector=vectors @ (np.exp(-1j * values * t) * weights))
        leakage = fock_level_population(state, n_max)
        if leakage >= LEAKAGE_TOL:
            raise TruncationError(
                f"top Fock level holds population {leakage}, margin n_max={n_max} too tight"
            )
        states.append(state)
    return states


def dicke_vector(N: int, k: int) -> np.ndarray:
    """Symmetric k-excitation spin state over the 2^N computational basis."""
    if not 1 <= N <= MAX_SPINS:
        raise ValueError(f"brute force handles 1..{MAX_SPINS} spins, got N={N}")
    if not 0 <= k <= N:
        raise ValueError(f"excitation count {k} outside 0..{N}")
    vector = np.zeros(2**N)
    for ups in itertools.combinations(range(N), k):
        index = sum(2 ** (N - 1 - j) for j in ups)
        vector[index] = 1.0
    return vector / math.sqrt(math.comb(N, k))


def sector_to_full(state: SectorState, n_max: int) -> FullState:
    """Embed a sector-ladder state into the full space."""
    basis = state.basis
    _check_sizes(basis.N, n_max)
    if n_max < basis.n:
        raise ValueError(f"truncation {n_max} cannot hold {basis.n} photons")
    M = n_max + 1
    vector = np.zeros(2**basis.N * M, dtype=complex)
    for k in range(basis.dimension):
        spin_part = dicke_vector(basis.N, k)
        photon_index = basis.photon_count(k)
        vector[photon_index::M] += state.amplitudes[k] * spin_part
    return FullState(N=basis.N, n_max=n_max, vector=vector)


def full_to_sector(full: FullState, basis: SectorBasis) -> np.ndarray:
    """Project a full-space state onto the sector ladder amplitudes."""
    if full.N != basis.N:
        raise ValueError(f"spin count mismatch: {full.N} vs {basis.N}")
    if full.n_max < basis.n:
        raise ValueError(f"truncation {full.n_max} cannot hold {basis.n} photons")
    M = full.n_max + 1
    amplitudes = np.empty(basis.dimension, dtype=complex)
    for k in range(basis.dimension):
        spin_part = dicke_vector(basis.N, k)
        amplitudes[k] = spin_part @ full.vector[basis.photon_count(k)::M]
    return amplitudes


def reduced_spin_density(full: FullState, spin: int) -> np.ndarray:
    """Explicit partial trace down to one spin."""
    if not 0 <= spin < full.N:
        raise ValueError(f"spin index {spin} outside 0..{full.N - 1}")
    tensor = np.moveaxis(full.as_tensor(), spin, 0).reshape(2, -1)
    return tensor @ tensor.conj().T


def reduced_two_spin_density(full: FullState, first: int, second: int) -> np.ndarray:
    """Explicit partial trace down to an ordered spin pair."""
    if first == second:
        raise ValueError("need two distinct spins")
    for spin in (first, second):
        if not 0 <= spin < full.N:
            raise ValueError(f"spin index {spin} outside 0..{full.N - 1}")
    tensor = np.moveaxis(full.as_tensor(), (first, second), (0, 1)).reshape(4, -1)
    return tensor @ tensor.conj().T


def fock_level_population(full: FullState, level: int) -> float:
    if not 0 <= level <= full.n_max:
        raise ValueError(f"Fock level {level} outside 0..{full.n_max}")
    M = full.n_max + 1
    return float(np.sum(np.abs(full.vector[level::M]) ** 2))

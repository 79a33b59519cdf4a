"""Conserved-excitation sector of the spin-photon Hilbert space.

The rotating-wave spin-photon coupling conserves the total excitation
number a†a + S_z.  A charging run that starts from N spins down and n
cavity photons therefore never leaves the (min(N, n) + 1)-dimensional
subspace spanned by

    |J, -J + k>  (x)  |n - k>,      k = 0, ..., min(N, n),   J = N / 2,

where k counts excitations already transferred from the cavity into the
spins.  k = 0 is the fully discharged battery; k = N (reachable only when
n >= N) is the fully charged one.  Everything downstream works with
amplitude vectors over this ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Construction limits: matrices over the sector must stay dense-friendly.
MAX_COUNT = 10**6
MAX_TRANSFER = 10**4

NORM_TOL = 1e-12


@dataclass(frozen=True)
class SectorBasis:
    """Ladder basis of one conserved-excitation sector.

    Parameters
    ----------
    N : number of two-level systems (the battery cells).
    n : initial cavity photon number.
    """

    N: int
    n: int

    def __post_init__(self) -> None:
        if self.N < 1 or self.n < 1:
            raise ValueError(f"need N >= 1 and n >= 1, got N={self.N}, n={self.n}")
        if self.N > MAX_COUNT or self.n > MAX_COUNT:
            raise ValueError(f"N and n may not exceed {MAX_COUNT}")
        if min(self.N, self.n) > MAX_TRANSFER:
            raise ValueError(
                f"sector ladder length {min(self.N, self.n)} exceeds limit {MAX_TRANSFER}"
            )

    @property
    def K(self) -> int:
        """Largest number of transferable excitations."""
        return min(self.N, self.n)

    @property
    def dimension(self) -> int:
        return self.K + 1

    @property
    def excitation_number(self) -> float:
        """Conserved eigenvalue of a†a + S_z."""
        return self.n - self.N / 2

    def photon_count(self, k: int) -> int:
        """Cavity photon number of ladder state k."""
        if not 0 <= k <= self.K:
            raise ValueError(f"ladder index {k} outside 0..{self.K}")
        return self.n - k


@dataclass(frozen=True)
class SectorState:
    """Unit-norm complex amplitude vector over a :class:`SectorBasis`.

    Amplitudes are copied on construction and frozen; instances are safe
    to share.
    """

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, "
                f"expected ({self.basis.dimension},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def build_sector(N: int, n: int) -> SectorBasis:
    """Sector holding N spins-down plus n photons and everything reachable."""
    return SectorBasis(N=N, n=n)


def initial_state(basis: SectorBasis) -> SectorState:
    """Discharged battery: all spins down, all n photons in the cavity (k = 0)."""
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[0] = 1.0
    return SectorState(basis, amps)


def target_state(basis: SectorBasis) -> SectorState:
    """Fully charged battery: all spins up, n - N photons left (k = N)."""
    if basis.n < basis.N:
        raise ValueError(
            f"full charge unreachable: {basis.n} photons cannot flip {basis.N} spins"
        )
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.N] = 1.0
    return SectorState(basis, amps)

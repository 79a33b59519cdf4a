"""Spectral time evolution over a conserved-excitation sector.

Every sample is propagated directly from t = 0 through one application of
U(t) = V exp(-i D t) V^T, so there is no step-to-step error accumulation
and unitarity holds to rounding over arbitrarily many samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .hilbert import SectorBasis, SectorState, build_sector, initial_state
from .operators import ModelParams, TridiagonalOperator, exact_tc_matrix, large_n_matrix
from .spectra import EigenSystem, eigendecompose

MODELS = ("exact", "large_n")

# canonical recording order, also the CSV column order
OBSERVABLE_NAMES = (
    "W_over_capacity",
    "fidelity",
    "entropy_spin1",
    "concurrence",
    "cos_theta",
    "excitation",
    "norm",
)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a charging run needs.

    record selects which observables to evaluate; order is irrelevant,
    the canonical order of OBSERVABLE_NAMES is used throughout.
    """

    N: int
    n: int
    params: ModelParams
    t_max: float
    steps: int
    model: str = "exact"
    record: tuple[str, ...] = OBSERVABLE_NAMES

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.model == "large_n" and self.n < self.N:
            raise ValueError(
                f"large_n model needs n >= N so the {self.N + 1}-rung ladder exists, "
                f"got N={self.N}, n={self.n}"
            )
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 samples, got steps={self.steps}")
        requested = tuple(self.record)
        unknown = sorted(set(requested) - set(OBSERVABLE_NAMES))
        if unknown:
            raise ValueError(f"unknown observables {unknown}, expected from {OBSERVABLE_NAMES}")
        if not requested:
            raise ValueError("record must request at least one observable")
        canonical = tuple(name for name in OBSERVABLE_NAMES if name in set(requested))
        object.__setattr__(self, "record", canonical)


@dataclass(frozen=True)
class ObservableSeries:
    """Uniform time grid plus one real vector per recorded observable."""

    times: np.ndarray
    data: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        times.flags.writeable = False
        frozen = {}
        for name, column in self.data.items():
            if name not in OBSERVABLE_NAMES:
                raise ValueError(f"unknown observable {name!r}")
            column = np.array(column, dtype=float)
            if column.shape != times.shape:
                raise ValueError(f"column {name!r} has {column.size} samples, grid has {times.size}")
            column.flags.writeable = False
            frozen[name] = column
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "data", frozen)

    @property
    def recorded(self) -> tuple[str, ...]:
        return tuple(name for name in OBSERVABLE_NAMES if name in self.data)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]


def evolve(state: SectorState, eigensystem: EigenSystem, t: float) -> SectorState:
    """Propagate a state to time t >= 0 in one spectral application."""
    if eigensystem.dimension != state.basis.dimension:
        raise ValueError(
            f"dimension mismatch: eigensystem {eigensystem.dimension}, "
            f"state {state.basis.dimension}"
        )
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    return SectorState(state.basis, _propagate(eigensystem, state.amplitudes, [t])[:, 0])


def _propagate(eigensystem: EigenSystem, amplitudes: np.ndarray, times) -> np.ndarray:
    """V exp(-i D t) V^T applied to the amplitudes, one column per time."""
    weights = eigensystem.eigenvectors.T @ amplitudes
    phases = np.exp(-1j * np.outer(eigensystem.eigenvalues, times))
    return eigensystem.eigenvectors @ (phases * weights[:, None])


def sector_operator(basis: SectorBasis, params: ModelParams, model: str) -> TridiagonalOperator:
    """Charging operator for the requested model on the given sector."""
    if model == "exact":
        return exact_tc_matrix(basis, params)
    if model == "large_n":
        if basis.n < basis.N:
            raise ValueError(
                f"large_n model needs n >= N so the {basis.N + 1}-rung ladder exists, "
                f"got N={basis.N}, n={basis.n}"
            )
        return large_n_matrix(basis.N, params, basis.n)
    raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")


def run(config: SimulationConfig) -> ObservableSeries:
    """Charging run on the uniform grid 0..t_max with `steps` samples.

    Each sample is evolved independently from t = 0.  Past the coupling
    window t_off only the constant rest energy acts, a global phase on the
    sector, so every observable is frozen at its t_off value.
    """
    basis = build_sector(config.N, config.n)
    operator = sector_operator(basis, config.params, config.model)
    eigensystem = eigendecompose(operator)

    times = np.linspace(0.0, config.t_max, config.steps)
    effective = np.minimum(times, config.params.t_off)

    amplitudes = _propagate(eigensystem, initial_state(basis).amplitudes, effective)
    populations = np.abs(amplitudes) ** 2
    wanted = set(config.record)
    data: dict[str, np.ndarray] = {}

    if "fidelity" in wanted:
        if basis.n >= basis.N:
            data["fidelity"] = populations[basis.N]
        else:
            # the fully charged product state lies outside the reachable sector
            data["fidelity"] = np.zeros_like(times)
    if "excitation" in wanted or "norm" in wanted:
        total = populations.sum(axis=0)
        if "excitation" in wanted:
            # a†a + S_z is the same constant on every rung
            data["excitation"] = basis.excitation_number * total
        if "norm" in wanted:
            data["norm"] = np.sqrt(total)
    if wanted & {"W_over_capacity", "entropy_spin1", "concurrence", "cos_theta"}:
        moments = observables.spin_moments(populations, basis.N)
        if "W_over_capacity" in wanted:
            data["W_over_capacity"] = moments.p
        if "entropy_spin1" in wanted:
            data["entropy_spin1"] = moments.entropy()
        if "concurrence" in wanted:
            data["concurrence"] = moments.concurrence()
        if "cos_theta" in wanted:
            data["cos_theta"] = moments.cos_theta()

    return ObservableSeries(times=times, data=data)

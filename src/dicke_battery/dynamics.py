"""Time evolution over a conserved-excitation sector.

The exact model is propagated spectrally: every sample goes directly from
t = 0 through one application of U(t) = V exp(-i D t) V^T, so there is no
step-to-step error accumulation and unitarity holds to rounding over
arbitrarily many samples.  The large_n operator is 2 g sqrt(n) J_x, a
rigid spin rotation, so its rung populations are the closed-form
Binomial(N, sin^2(g sqrt(n) t)) and need no eigensolver.  Both routes end
in the same rung-population matrix, from which every observable follows.
"""

from __future__ import annotations

import math
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
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
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
    real, imag = _propagate(eigensystem, state.amplitudes, [t])
    return SectorState(state.basis, real[:, 0] + 1j * imag[:, 0])


def _propagate(eigensystem: EigenSystem, amplitudes: np.ndarray, times):
    """V exp(-i D t) V^T applied to the amplitudes, one column per time.

    V is real, so the real and imaginary parts of exp(-i D t) V^T psi sit
    side by side in one real block and go through a single real GEMM;
    the weights V^T psi come from two real products as well.  Neither step
    upcasts V to a complex copy.  Returns the (real, imaginary) pair of
    (dim, times) arrays.
    """
    vectors = eigensystem.eigenvectors
    w_re = (vectors.T @ amplitudes.real)[:, None]
    w_im = (vectors.T @ amplitudes.imag)[:, None]
    angles = np.outer(eigensystem.eigenvalues, times)
    count = angles.shape[1]
    block = np.empty((angles.shape[0], 2 * count))
    cos = np.cos(angles, out=block[:, :count])
    sin = np.sin(angles, out=block[:, count:])
    del angles
    # exp(-i a) (w_re + i w_im) = (cos w_re + sin w_im) + i (cos w_im - sin w_re)
    real = cos * w_re + sin * w_im
    sin *= -w_re
    sin += cos * w_im
    cos[...] = real
    stacked = vectors @ block
    return stacked[:, :count], stacked[:, count:]


def _rotation_populations(N: int, angles: np.ndarray) -> np.ndarray:
    """Binomial(N, sin^2 angle) rung populations, one column per angle.

    From the empty battery, exp(-i 2 angle J_x) turns every spin alone
    (Arecchi et al., PRA 6, 2211 (1972)), so rung k holds
    C(N, k) sin^(2k) cos^(2(N-k)).  The end rungs are plain powers, so
    angle 0 and pi/2 give exact delta populations; the inner rungs, whose
    binomials overflow a float, are summed in log space.
    """
    up, down = np.sin(angles) ** 2, np.cos(angles) ** 2
    populations = np.empty((N + 1, up.size))
    populations[0], populations[N] = down**N, up**N
    k = np.arange(1, N)[:, None]
    log_binomial = np.array(
        [math.lgamma(N + 1.0) - math.lgamma(j + 1.0) - math.lgamma(N - j + 1.0) for j in range(1, N)]
    )[:, None]
    populations[1:N] = np.exp(log_binomial + k * _log(up) + (N - k) * _log(down))
    return populations


def _log(x: np.ndarray) -> np.ndarray:
    """Natural log with log 0 = -inf, which exp maps back to an exact 0."""
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)


def sector_operator(basis: SectorBasis, params: ModelParams, model: str) -> TridiagonalOperator:
    """Charging operator for the requested model on the given sector.

    `run` propagates only the exact one; the large_n operator serves the
    spectrum report, the speed-limit report and `verify`, and is the
    independent reference for the closed-form rotation in `run`.
    """
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

    Each sample is evolved independently from t = 0: spectrally for the
    exact model, as the closed-form Binomial(N, sin^2(g sqrt(n) t)) rung
    populations for large_n.  Past the coupling window t_off nothing acts
    in the rotating frame, so every observable is frozen at its t_off
    value.
    """
    basis = build_sector(config.N, config.n)
    times = np.linspace(0.0, config.t_max, config.steps)
    effective = np.minimum(times, config.params.t_off)

    if config.model == "large_n":
        rate = config.params.g * math.sqrt(basis.n)
        populations = _rotation_populations(basis.N, rate * effective)
    else:
        operator = sector_operator(basis, config.params, config.model)
        real, imag = _propagate(eigendecompose(operator), initial_state(basis).amplitudes, effective)
        populations = real**2 + imag**2
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

"""Time evolution over a conserved-excitation sector.

The exact model is propagated spectrally: every sample goes directly from
t = 0 through one application of U(t) = V exp(-i D t) V^T, so there is no
step-to-step error accumulation and unitarity holds to rounding over
arbitrarily many samples.  The large_n operator is 2 g sqrt(n) J_x, a
rigid spin rotation, so its rung populations are the closed-form
Binomial(N, sin^2(g sqrt(n) t)) and need no eigensolver.  Both routes end
in the same rung-population matrix, from which every observable follows.

A run forms only the rows of that matrix its observables read.  Fidelity
reads rung N alone: the exact model then multiplies by the one row V[N]
instead of all of V, and with n < N it is identically 0 and nothing is
solved.  Every other observable reads
every rung.  On the uniform grid t_m = m dt the phases factor as
exp(-i lambda t_m) = exp(-i lambda a B dt) exp(-i lambda b dt) with
m = a B + b and B = ceil(sqrt(steps)), so two tables of about sqrt(steps)
angles per eigenvalue replace a cos and a sin per sample; their products
are formed in real arithmetic, weighted by V^T psi, directly in the block
that goes through V[rows].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import observables
from .hilbert import SectorBasis, SectorState, build_sector, initial_state
from .operators import ModelParams, TridiagonalOperator, exact_tc_matrix, large_n_matrix
from .spectra import EigenSystem, eigendecompose

MODELS = ("exact", "large_n")

# exp of anything below this is subnormal or 0
_LOG_TINY = math.log(np.finfo(float).tiny)

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
    the canonical order of OBSERVABLE_NAMES is used throughout.  basis is
    the sector of N and n, built (and so checked) on construction.
    """

    N: int
    n: int
    params: ModelParams
    t_max: float
    steps: int
    model: str = "exact"
    record: tuple[str, ...] = OBSERVABLE_NAMES
    basis: SectorBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", build_sector(self.N, self.n))
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
    # column 1 of the two-sample grid {0, t}
    real, imag = _propagate(eigensystem, state.amplitudes, t, 2)
    return SectorState(state.basis, real[:, 1] + 1j * imag[:, 1])


def _propagate(
    eigensystem: EigenSystem, amplitudes: np.ndarray, dt: float, steps: int, rows=slice(None)
):
    """Rows `rows` of V exp(-i D t_m) V^T psi on the grid t_m = m dt, m < steps.

    V is real, so the real and imaginary parts of exp(-i D t_m) V^T psi sit
    side by side in one real block and go through a single real product
    with V[rows]; the weights V^T psi come from two real products as well.
    Neither step upcasts V to a complex copy.  With B = ceil(sqrt(steps))
    and m = a B + b, exp(-i lambda t_m) = exp(-i lambda a B dt) exp(-i lambda b dt),
    so only the coarse (a) and fine (b) tables, about 2 sqrt(steps) angles
    per eigenvalue, go through cos and sin.  The weights are folded into
    the fine table and one batched real matmul per part writes the products
    straight into the block.  Returns the (real, imaginary) pair of
    (rows, steps) arrays.
    """
    vectors = eigensystem.eigenvectors
    dim = vectors.shape[0]
    fine = math.isqrt(steps - 1) + 1
    coarse = -(-steps // fine)
    w_re = (vectors.T @ amplitudes.real)[:, None]
    w_im = (vectors.T @ amplitudes.imag)[:, None]
    angles = np.outer(eigensystem.eigenvalues, np.arange(fine) * dt)
    cos, sin = np.cos(angles), np.sin(angles)
    # exp(-i b) (w_re + i w_im) = (cos w_re + sin w_im) + i (cos w_im - sin w_re);
    # rows re, im, -re, so that [re; im] and [im; -re] are both contiguous pairs
    weighted = np.empty((dim, 3, fine))
    weighted[:, 0] = cos * w_re + sin * w_im
    weighted[:, 1] = cos * w_im - sin * w_re
    np.negative(weighted[:, 0], out=weighted[:, 2])
    angles = np.outer(eigensystem.eigenvalues, np.arange(0, coarse * fine, fine) * dt)
    rotations = np.empty((dim, coarse, 2))
    np.cos(angles, out=rotations[..., 0])
    np.sin(angles, out=rotations[..., 1])
    # (cos - i sin)(re + i im) = (cos re + sin im) + i (cos im - sin re)
    block = np.empty((dim, 2, coarse, fine))
    np.matmul(rotations, weighted[:, 0:2], out=block[:, 0])
    np.matmul(rotations, weighted[:, 1:3], out=block[:, 1])
    stacked = (vectors[rows] @ block.reshape(dim, -1)).reshape(-1, 2, coarse * fine)
    return stacked[:, 0, :steps], stacked[:, 1, :steps]


def _rotation_populations(N: int, angles: np.ndarray) -> np.ndarray:
    """Binomial(N, sin^2 angle) rung populations, one column per angle.

    From the empty battery, exp(-i 2 angle J_x) turns every spin alone
    (Arecchi et al., PRA 6, 2211 (1972)), so rung k holds
    C(N, k) sin^(2k) cos^(2(N-k)).  The end rungs are plain powers, so
    angle 0 and pi/2 give exact delta populations; the inner rungs, whose
    binomials overflow a float, are summed in log space.  Exponents below
    log(tiny) stay an exact 0: exp would give a subnormal of at most
    2.2e-308, and slowly.
    """
    up, down = np.sin(angles) ** 2, np.cos(angles) ** 2
    populations = np.zeros((N + 1, up.size))
    populations[0], populations[N] = down**N, up**N
    k = np.arange(1, N)[:, None]
    log_binomial = np.array(
        [math.lgamma(N + 1.0) - math.lgamma(j + 1.0) - math.lgamma(N - j + 1.0) for j in range(1, N)]
    )[:, None]
    exponent = log_binomial + k * _log(up) + (N - k) * _log(down)
    np.exp(exponent, out=populations[1:N], where=exponent > _LOG_TINY)
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
    populations for large_n.  The exact model propagates only the rungs
    the recorded observables read: fidelity reads rung N alone, every
    other observable reads every rung.  Past the coupling window t_off nothing acts in the
    rotating frame, so every observable is frozen at its t_off value.
    """
    basis = config.basis
    times = np.linspace(0.0, config.t_max, config.steps)
    wanted = set(config.record)
    data: dict[str, np.ndarray] = {}
    if "fidelity" in wanted and basis.n < basis.N:
        # the fully charged product state lies outside the reachable sector
        data["fidelity"] = np.zeros_like(times)
    pending = wanted - data.keys()
    if not pending:
        return ObservableSeries(times=times, data=data)
    # rung N, when it is read, is the top rung of the ladder
    rows = slice(-1, None) if pending == {"fidelity"} else slice(None)
    populations = _rung_populations(config, times, rows)

    if "fidelity" in pending:
        data["fidelity"] = populations[-1]
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


def _rung_populations(config: SimulationConfig, times: np.ndarray, rows) -> np.ndarray:
    """(rungs `rows`, samples) populations, frozen at the t_off state past t_off."""
    basis = config.basis
    t_off = config.params.t_off
    if config.model == "large_n":
        angles = config.params.g * math.sqrt(basis.n) * np.minimum(times, t_off)
        return _rotation_populations(basis.N, angles)[rows]
    eigensystem = eigendecompose(sector_operator(basis, config.params, config.model))
    psi0 = initial_state(basis).amplitudes
    live = int(np.count_nonzero(times < t_off))
    # linspace samples are m * times[1], the last one up to rounding
    real, imag = _propagate(eigensystem, psi0, times[1], live, rows)
    populations = np.empty((real.shape[0], times.size))
    head = populations[:, :live]
    np.square(real, out=head)
    head += np.square(imag, out=imag)
    if live < times.size:
        # column 1 of the two-sample grid {0, t_off}
        real, imag = _propagate(eigensystem, psi0, t_off, 2, rows)
        populations[:, live:] = real[:, 1:] ** 2 + imag[:, 1:] ** 2
    return populations

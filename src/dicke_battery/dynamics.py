"""Time evolution over a conserved-excitation sector.

The exact model is propagated spectrally: every sample goes directly from
t = 0 through one application of exp(-i T t), so there is no step-to-step
error accumulation and unitarity holds to rounding over arbitrarily many
samples.  The large_n operator is 2 g sqrt(n) J_x, a rigid spin rotation:
from the empty battery every spin turns on its own and is up with
probability s = sin^2(g sqrt(n) t), so its spin moments are s, s^2,
(1 - s)^2 and s (1 - s), its fidelity is s^N, and nothing is solved.
Both models end in the same column table, built from the fidelity row,
the population total and the four spin moments.

An exact run takes one of two routes, both on the ladder's chiral
structure: its diagonal is zero, so even rungs couple only to odd rungs,
its eigenvalues pair as +-sigma and each route sums real half-size
series.  Fidelity reads rung N alone, and an exact run that records
nothing else never forms an eigenvector: <N| U(t) |0> is
sum_j w_j cos(sigma_j t) for even N and -i sum_j w_j sin(sigma_j t) for
odd N, with sigma and the paired end weights w from the eigenvalues alone
(`spectra.spectral_measure`), so such a run holds
O(dim (chunk + sqrt(steps)) + steps) numbers.  With n < N fidelity is
identically 0 and nothing is solved.  Every other observable reads every
rung, and T = [[0, C], [C^T, 0]] on the even and odd rungs with C a
half-size bidiagonal.  From rung 0 the even rungs hold
U cos(Sigma t) U^T e_0 and the odd rungs -i W sin(Sigma t) U^T e_0, with
C = U Sigma W^T from `spectra.chiral_decompose`, so the populations come
from two real half-size products.  Neither route forms a dim x dim or a
complex array.  `evolve` applies V exp(-i D t) V^T psi over the full
eigensystem of `spectra.eigendecompose` at a single time;
`oracle.ladder_populations`, the same formula over any time array, is the
reference for both routes and shares no solver or phase table with them.
On the uniform grid t_m = m dt the angle sigma t_m splits as
sigma a B dt + sigma b dt with m = a B + b and B = ceil(sqrt(steps)), so
two tables of about sqrt(steps) angles per value replace a cos and a sin
per sample.  Both routes take them from `_phase_tables`, with their
weights folded into the fine table, and form w cos(sigma t) and
w sin(sigma t) from them in real arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import observables
from .hilbert import SectorBasis, SectorState, build_sector
from .operators import ModelParams, TridiagonalOperator, exact_tc_matrix, large_n_matrix
from .spectra import EigenSystem, chiral_decompose, spectral_measure

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
    """Propagate a state to a finite time t >= 0: V exp(-i D t) V^T psi."""
    if eigensystem.dimension != state.basis.dimension:
        raise ValueError(
            f"dimension mismatch: eigensystem {eigensystem.dimension}, "
            f"state {state.basis.dimension}"
        )
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be non-negative and finite, got {t}")
    # V is real: V^T psi and V (phases V^T psi) as two real products each
    vectors, amplitudes = eigensystem.eigenvectors, state.amplitudes
    phased = np.exp(-1j * eigensystem.eigenvalues * t) * (
        vectors.T @ amplitudes.real + 1j * (vectors.T @ amplitudes.imag)
    )
    return SectorState(state.basis, vectors @ phased.real + 1j * (vectors @ phased.imag))


def _phase_tables(values: np.ndarray, weights: np.ndarray, dt: float, steps: int):
    """Coarse and weighted fine phase tables of the grid t_m = m dt, m < steps.

    With B = ceil(sqrt(steps)) and m = a B + b, the angle sigma t_m is
    x + y with x = sigma a B dt and y = sigma b dt, so only about
    2 sqrt(steps) angles per value go through cos and sin.  Returns the
    (half, coarse, 2) table of (cos x, sin x) pairs and the (half, 3, B)
    fine rows (w sin y, w cos y, -w sin y), w the weights.  Contracting a
    (cos x, sin x) pair with rows 1:3 gives w cos(x + y) and with rows 0:2
    w sin(x + y).
    """
    fine = math.isqrt(steps - 1) + 1
    coarse = -(-steps // fine)
    angles = np.outer(values, np.arange(fine) * dt)
    folded = np.empty((values.size, 3, fine))
    np.sin(angles, out=folded[:, 0])
    np.cos(angles, out=folded[:, 1])
    folded[:, :2] *= weights[:, None, None]
    np.negative(folded[:, 0], out=folded[:, 2])
    angles = np.outer(values, np.arange(0, coarse * fine, fine) * dt)
    rotations = np.empty((values.size, coarse, 2))
    np.cos(angles, out=rotations[..., 0])
    np.sin(angles, out=rotations[..., 1])
    return rotations, folded


def _end_amplitudes(values: np.ndarray, weights: np.ndarray, rows: slice, dt: float, steps: int):
    """sum_j w_j cos(sigma_j t_m) for rows 1:3, sum_j w_j sin(sigma_j t_m) for rows 0:2.

    On the grid t_m = m dt, m < steps: one real contraction of the coarse
    table of `_phase_tables` with that pair of its weighted fine rows.
    """
    rotations, folded = _phase_tables(values, weights, dt, steps)
    return np.tensordot(rotations, folded[:, rows], axes=([0, 2], [0, 1])).ravel()[:steps]


def _held_past_t_off(times: np.ndarray, t_off: float, sample) -> np.ndarray:
    """`sample` on `times`, held at its t_off value from t_off on.

    sample(dt, count) gives its values on the grid m dt, m < count, along
    the last axis.  Past the coupling window nothing acts in the rotating
    frame, so every later sample repeats the one at t_off.
    """
    live = int(np.count_nonzero(times < t_off))
    # linspace samples are m * times[1], the last one up to rounding
    head = sample(times[1], live)
    if live == times.size:
        return head
    held = np.empty(head.shape[:-1] + times.shape, dtype=head.dtype)
    held[..., :live] = head
    # sample 1 of the two-sample grid {0, t_off}
    held[..., live:] = sample(t_off, 2)[..., 1:]
    return held


def sector_operator(basis: SectorBasis, params: ModelParams, model: str) -> TridiagonalOperator:
    """Charging operator for the requested model on the given sector.

    `run` propagates only the exact one; the large_n operator serves the
    spectrum report and `verify`, and is the independent reference for the
    closed-form spin moments of `run`.
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
    exact model, as the closed-form spin moments of the rotation by
    g sqrt(n) t for large_n, whose `norm` is exactly 1 and `excitation`
    exactly n - N/2.  An exact run that records fidelity alone reads rung
    N only and takes it from the eigenvalues and end weights; every other
    exact run propagates every rung through the singular value
    decomposition of the ladder's even-to-odd block.  Past the coupling
    window t_off nothing acts in the rotating frame, so every observable
    is frozen at its t_off value.
    """
    basis, N = config.basis, config.basis.N
    times = np.linspace(0.0, config.t_max, config.steps)
    if config.model == "large_n":
        angles = config.params.g * math.sqrt(basis.n) * np.minimum(times, config.params.t_off)
        up = np.sin(angles) ** 2
        down = 1.0 - up
        # N = 1 has no pair, as in spin_moments
        pairs = (up**2, down**2, up * down) if N > 1 else (np.zeros_like(up),) * 3
        fidelity, total, moments = up**N, np.ones_like(up), observables.SpinMoments(up, *pairs)
    elif config.record == ("fidelity",):
        return ObservableSeries(times=times, data={"fidelity": _end_to_end_fidelity(config, times)})
    else:
        populations = _rung_populations(config, times)
        # with n < N the fully charged product state lies outside the sector
        fidelity = populations[N] if basis.n >= N else np.zeros_like(times)
        total, moments = populations.sum(axis=0), observables.spin_moments(populations, N)
    columns = {
        "W_over_capacity": moments.p,
        "fidelity": fidelity,
        "entropy_spin1": moments.entropy(),
        "concurrence": moments.concurrence(),
        "cos_theta": moments.cos_theta(),
        # a†a + S_z is the same constant on every rung
        "excitation": basis.excitation_number * total,
        "norm": np.sqrt(total),
    }
    return ObservableSeries(times=times, data={name: columns[name] for name in config.record})


def _rung_populations(config: SimulationConfig, times: np.ndarray) -> np.ndarray:
    """(rungs, samples) exact-model populations, frozen at the t_off state past t_off."""
    basis = config.basis
    values, evens, odds = chiral_decompose(sector_operator(basis, config.params, config.model))
    # an odd ladder pads C with a zero column; its row of W is no rung
    sample = functools.partial(_chiral_populations, values, evens, odds[: basis.dimension // 2])
    return _held_past_t_off(times, config.params.t_off, sample)


def _chiral_populations(
    values: np.ndarray, evens: np.ndarray, odds: np.ndarray, dt: float, steps: int
) -> np.ndarray:
    """|<k| exp(-i T t_m) |0>|^2 for every rung k on the grid t_m = m dt, m < steps.

    From rung 0 the even rungs hold U (a cos(sigma t)) and the odd rungs
    -i W (a sin(sigma t)), with a = U[0] and C = U Sigma W^T from
    `chiral_decompose`, so every amplitude is real up to a factor -i and
    each half goes through one real product with its own half-size
    factor.  The coarse and fine tables of `_phase_tables` give
    a cos(x + y) and a sin(x + y) as batched products with the weights a
    folded into the fine table.  Returns the (rungs, steps) populations,
    the squares of the two halves interleaved.
    """
    half = values.size
    rotations, folded = _phase_tables(values, evens[0], dt, steps)
    block = np.empty((half, rotations.shape[1], folded.shape[2]))
    populations = np.empty((evens.shape[0] + odds.shape[0], steps))
    np.matmul(rotations, folded[:, 1:3], out=block)
    np.square((evens @ block.reshape(half, -1))[:, :steps], out=populations[0::2])
    np.matmul(rotations, folded[:, 0:2], out=block)
    np.square((odds @ block.reshape(half, -1))[:, :steps], out=populations[1::2])
    return populations


def _end_to_end_fidelity(config: SimulationConfig, times: np.ndarray) -> np.ndarray:
    """|<N| U(t) |0>|^2 of the exact model from its paired spectral measure.

    With n < N the fully charged product state lies outside the sector and
    the fidelity is 0 with nothing solved.  With n >= N rung N is the top
    rung of the ladder, so from `spectral_measure` the amplitude is
    sum_j w_j cos(sigma_j t) for even N and -i sum_j w_j sin(sigma_j t) for
    odd N, a real half-size series; no eigenvector is formed.  Frozen at
    its t_off value past t_off.
    """
    if config.basis.n < config.basis.N:
        return np.zeros_like(times)
    values, weights = spectral_measure(sector_operator(config.basis, config.params, config.model))
    rows = slice(0, 2) if config.basis.N % 2 else slice(1, 3)
    amplitudes = _held_past_t_off(
        times, config.params.t_off, functools.partial(_end_amplitudes, values, weights, rows)
    )
    return amplitudes**2

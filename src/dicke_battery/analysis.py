"""Flip-time results and the parallel vs collective protocol comparison.

The headline result: in the large-photon regime the battery flips from
empty to full at tau = pi / (2 g sqrt(n)) regardless of how many spins
share the cavity.  Handing one collective cavity the same photon energy
as N parallel ones (N n photons) shortens the flip to tau / sqrt(N), so
the collective protocol charges sqrt(N) times faster at equal stored
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ObservableSeries, SimulationConfig, run
from .operators import ModelParams

DETECTION_THRESHOLD = 0.5


class FlipDetectionError(RuntimeError):
    """No fidelity peak above threshold in the sampled window."""


def universal_flip_time(N: int, g: float, n: int) -> float:
    """Analytic full-flip time pi / (2 g sqrt(n)); independent of N."""
    if N < 1 or n < 1 or not g > 0:
        raise ValueError(f"need N >= 1, n >= 1, g > 0, got N={N}, n={n}, g={g}")
    return math.pi / (2.0 * g * math.sqrt(n))


def _refine_peak(times, values, i):
    """Quadratic vertices through samples i-1, i, i+1, elementwise for an index array i.

    Returns the vertex times and heights, the heights clamped to 1; a flat
    top (curvature 0) keeps offset 0 and so its sampled time and height.
    """
    left, middle, right = values[i - 1], values[i], values[i + 1]
    curvature = left - 2.0 * middle + right
    offset = np.divide(
        0.5 * (left - right), curvature, out=np.zeros_like(curvature), where=curvature != 0.0
    )
    peak_times = times[i] + offset * (times[i] - times[i - 1])
    return peak_times, np.minimum(middle - 0.25 * (left - right) * offset, 1.0)


def detect_flip_time(series: ObservableSeries) -> tuple[float, float]:
    """Time and height of the first fidelity peak above 0.5.

    Scans for the first interior local maximum whose quadratically refined
    height exceeds the threshold; the grid must resolve the oscillation
    (50+ samples per period) for the refinement to be meaningful.
    """
    if "fidelity" not in series.data:
        raise ValueError("series does not record fidelity")
    fidelity = series["fidelity"]
    left, middle, right = fidelity[:-2], fidelity[1:-1], fidelity[2:]
    # interior local maxima, plateau edges included but not flat stretches
    candidates = np.flatnonzero(
        (middle >= left) & (middle >= right) & ((middle > left) | (middle > right))
    )
    peak_times, heights = _refine_peak(series.times, fidelity, candidates + 1)
    above = np.flatnonzero(heights > DETECTION_THRESHOLD)
    if above.size:
        return float(peak_times[above[0]]), float(heights[above[0]])
    raise FlipDetectionError(
        f"no flip found: no fidelity peak above {DETECTION_THRESHOLD} in the window"
    )


@dataclass(frozen=True)
class FlipSummary:
    """One charging run measured against the analytic flip time.

    status is "ok" when a fidelity peak above 0.5 was detected, "partial"
    when none was and the refined global fidelity maximum is reported
    instead, and "unreachable" when n < N puts full charge outside the
    sector; nothing is simulated then and the measured fields are None.
    tau_analytic is closed-form; tau_detected and peak_fidelity are measured.
    """

    status: str
    tau_analytic: float
    tau_detected: float | None
    peak_fidelity: float | None


def flip_summary(
    N: int, n: int, params: ModelParams, model: str, steps: int, window: float
) -> FlipSummary:
    """Simulate fidelity over [0, window * tau] and summarize the flip."""
    tau = universal_flip_time(N, params.g, n)
    if n < N:
        return FlipSummary("unreachable", tau, None, None)
    config = SimulationConfig(
        N=N,
        n=n,
        params=params,
        t_max=window * tau,
        steps=steps,
        model=model,
        record=("fidelity",),
    )
    series = run(config)
    try:
        detected, peak = detect_flip_time(series)
    except FlipDetectionError:
        # degraded charging never crosses the flip threshold; report the
        # best the protocol achieves in the window instead
        fidelity = series["fidelity"]
        i = int(fidelity.argmax())
        if 0 < i < fidelity.size - 1:
            return FlipSummary("partial", tau, *map(float, _refine_peak(series.times, fidelity, i)))
        return FlipSummary("partial", tau, float(series.times[i]), float(fidelity[i]))
    return FlipSummary("ok", tau, detected, peak)


def _require_flip(summary: FlipSummary) -> tuple[float, float]:
    """Detected flip time and height; FlipDetectionError unless status is ok."""
    if summary.status != "ok":
        raise FlipDetectionError(
            f"no flip found: status {summary.status}, "
            f"best fidelity {summary.peak_fidelity} in the window"
        )
    return summary.tau_detected, summary.peak_fidelity


@dataclass(frozen=True)
class ProtocolReport:
    """Side-by-side of N parallel single-spin cavities vs one collective cavity.

    Photon fairness: the collective cavity receives all N n photons, the
    same input energy as the N parallel cavities combined.
    """

    N: int
    n_per_cavity: int
    g: float
    omega_a: float
    tau_parallel: float
    tau_collective: float
    W: float
    P_parallel: float
    P_collective: float
    ratio: float
    tau_detected_parallel: float
    tau_detected_collective: float
    fidelity_at_tau: float


def compare_protocols(
    N: int,
    n: int,
    g: float = 1.0,
    omega_a: float = 1.0,
    model: str = "exact",
    steps: int = 3001,
) -> ProtocolReport:
    """Charging-power comparison at equal stored energy and photon budget.

    Analytic flip times give the closed-form power ratio sqrt(N); both
    protocols are also simulated and their detected flip times recorded.
    """
    if N < 1 or n < 1:
        raise ValueError(f"need N >= 1 and n >= 1, got N={N}, n={n}")
    params = ModelParams(g=g, omega=omega_a)
    tau_parallel = universal_flip_time(1, g, n)
    tau_collective = universal_flip_time(N, g, N * n)
    stored = N * params.omega
    detected_parallel, _ = _require_flip(flip_summary(1, n, params, model, steps, window=1.3))
    detected_collective, fidelity_peak = _require_flip(
        flip_summary(N, N * n, params, model, steps, window=1.3)
    )
    power_parallel = stored / tau_parallel
    power_collective = stored / tau_collective
    return ProtocolReport(
        N=N,
        n_per_cavity=n,
        g=g,
        omega_a=omega_a,
        tau_parallel=tau_parallel,
        tau_collective=tau_collective,
        W=stored,
        P_parallel=power_parallel,
        P_collective=power_collective,
        ratio=power_collective / power_parallel,
        tau_detected_parallel=detected_parallel,
        tau_detected_collective=detected_collective,
        fidelity_at_tau=fidelity_peak,
    )

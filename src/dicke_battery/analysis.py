"""Flip-time results, protocol comparison, and quantum-speed-limit reports.

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

from .dynamics import ObservableSeries, SimulationConfig, run
from .hilbert import build_sector, initial_state
from .observables import energy_variance
from .operators import ModelParams, large_n_matrix

DETECTION_THRESHOLD = 0.5


class FlipDetectionError(RuntimeError):
    """No fidelity peak above threshold in the sampled window."""


def universal_flip_time(N: int, g: float, n: int) -> float:
    """Analytic full-flip time pi / (2 g sqrt(n)); independent of N."""
    if N < 1 or n < 1 or not g > 0:
        raise ValueError(f"need N >= 1, n >= 1, g > 0, got N={N}, n={n}, g={g}")
    return math.pi / (2.0 * g * math.sqrt(n))


def _refine_peak(times, values, i: int) -> tuple[float, float]:
    """Quadratic vertex through samples i-1, i, i+1; clamps fidelity to 1."""
    left, middle, right = values[i - 1], values[i], values[i + 1]
    curvature = left - 2.0 * middle + right
    if curvature == 0.0:
        return float(times[i]), float(middle)
    step = times[i] - times[i - 1]
    offset = 0.5 * (left - right) / curvature
    peak_value = middle - 0.25 * (left - right) * offset
    return float(times[i] + offset * step), float(min(peak_value, 1.0))


def detect_flip_time(series: ObservableSeries) -> tuple[float, float]:
    """Time and height of the first fidelity peak above 0.5.

    Scans for the first interior local maximum whose quadratically refined
    height exceeds the threshold; the grid must resolve the oscillation
    (50+ samples per period) for the refinement to be meaningful.
    """
    if "fidelity" not in series.data:
        raise ValueError("series does not record fidelity")
    fidelity = series["fidelity"]
    for i in range(1, fidelity.size - 1):
        left, middle, right = fidelity[i - 1], fidelity[i], fidelity[i + 1]
        if middle >= left and middle >= right and (middle > left or middle > right):
            peak_time, peak_value = _refine_peak(series.times, fidelity, i)
            if peak_value > DETECTION_THRESHOLD:
                return peak_time, peak_value
    raise FlipDetectionError(
        f"no flip found: no fidelity peak above {DETECTION_THRESHOLD} in the window"
    )


def _binomial_fraction(N: int, k: int) -> float:
    """C(N, k) / 2^N, correctly rounded: int / int true division is exact-then-rounded."""
    return math.comb(N, k) / 2**N


def verify_algebraic_identity(N: int) -> float:
    """Numerical value of the flip-amplitude sum at tau; exactly (-1)^(N//2).

    Odd N = 2m+1: sum_{k=0}^{m} 2 C(N,k)/2^N (-1)^k sin((N-2k) pi/2).
    Even N = 2m: sum_{k=0}^{m-1} 2 C(N,k)/2^N (-1)^k cos((N-2k) pi/2)
                 + (-1)^m C(N,m)/2^N.
    Every term collapses to (-1)^m times a binomial weight, and the
    weights sum to one; the return value exposes how well floating-point
    evaluation honours that.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if N % 2:
        m = (N - 1) // 2
        return sum(
            2.0
            * _binomial_fraction(N, k)
            * (-1.0) ** k
            * math.sin((N - 2 * k) * math.pi / 2.0)
            for k in range(m + 1)
        )
    m = N // 2
    total = sum(
        2.0
        * _binomial_fraction(N, k)
        * (-1.0) ** k
        * math.cos((N - 2 * k) * math.pi / 2.0)
        for k in range(m)
    )
    return total + (-1.0) ** m * _binomial_fraction(N, m)


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
            return FlipSummary("partial", tau, *_refine_peak(series.times, fidelity, i))
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


@dataclass(frozen=True)
class QslReport:
    """Quantum-speed-limit bounds for the two protocols.

    qsl_parallel and qsl_collective use the amplified-coupling bound
    pi / (4 N g sqrt(photons)); variance_based is the Mandelstam-Tamm
    style bound pi / (2 DeltaH) from the initial-state energy spread of
    the collective large-photon operator.  The two rest on different
    energy scales and disagree for N > 1; both are reported, neither is
    adjudicated here.
    """

    N: int
    n_per_cavity: int
    g: float
    qsl_parallel: float
    qsl_collective: float
    qsl_ratio: float
    variance_based: float


def qsl_report(N: int, n: int, g: float = 1.0) -> QslReport:
    if N < 1 or n < 1 or not g > 0:
        raise ValueError(f"need N >= 1, n >= 1, g > 0, got N={N}, n={n}, g={g}")
    qsl_parallel = math.pi / (4.0 * N * g * math.sqrt(n))
    qsl_collective = math.pi / (4.0 * N * g * math.sqrt(N * n))
    collective = build_sector(N, N * n)
    spread = energy_variance(
        initial_state(collective), large_n_matrix(N, ModelParams(g=g), N * n)
    )
    return QslReport(
        N=N,
        n_per_cavity=n,
        g=g,
        qsl_parallel=qsl_parallel,
        qsl_collective=qsl_collective,
        qsl_ratio=qsl_collective / qsl_parallel,
        variance_based=math.pi / (2.0 * spread),
    )


def effective_coupling_equivalence(
    N: int, n: int, g: float = 1.0, model: str = "exact", steps: int = 4001
) -> float:
    """Relative flip-time mismatch between two equivalent descriptions.

    N collectively coupled spins with N n photons at coupling g flip on
    the same clock as one spin with n photons at coupling g sqrt(N); in
    the large-photon model the equivalence is exact.  Returns
    |tau_A / tau_B - 1| from detected flip times on identical grids.
    """
    if N < 1 or n < 1:
        raise ValueError(f"need N >= 1 and n >= 1, got N={N}, n={n}")
    collective, _ = _require_flip(
        flip_summary(N, N * n, ModelParams(g=g), model, steps, window=1.3)
    )
    boosted, _ = _require_flip(
        flip_summary(1, n, ModelParams(g=g * math.sqrt(N)), model, steps, window=1.3)
    )
    return abs(collective / boosted - 1.0)

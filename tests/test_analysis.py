import math

import numpy as np
import pytest

from dicke_battery import analysis
from dicke_battery.analysis import (
    FlipDetectionError,
    FlipSummary,
    ProtocolReport,
    compare_protocols,
    detect_flip_time,
    flip_summary,
    universal_flip_time,
)
from dicke_battery.dynamics import ObservableSeries, SimulationConfig, run
from dicke_battery.operators import ModelParams


def test_universal_flip_time_values():
    assert universal_flip_time(1, 1.0, 1) == pytest.approx(math.pi / 2)
    assert universal_flip_time(7, 2.0, 9) == pytest.approx(math.pi / 12)
    # independent of N by construction
    assert universal_flip_time(50, 0.3, 16) == universal_flip_time(2, 0.3, 16)


def test_universal_flip_time_validation():
    with pytest.raises(ValueError):
        universal_flip_time(0, 1.0, 5)
    with pytest.raises(ValueError):
        universal_flip_time(2, -1.0, 5)
    with pytest.raises(ValueError):
        universal_flip_time(2, 1.0, 0)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 9])
def test_detected_flip_matches_analytic_large_n(N):
    n = 400
    tau = universal_flip_time(N, 1.0, n)
    config = SimulationConfig(
        N=N, n=n, params=ModelParams(), t_max=1.3 * tau, steps=4001,
        model="large_n", record=("fidelity",),
    )
    detected, height = detect_flip_time(run(config))
    assert detected == pytest.approx(tau, rel=1e-8)
    assert height == pytest.approx(1.0, abs=1e-9)


def test_detected_flip_exact_model_converges_with_photons():
    # finite-photon flips come earlier and less completely; the deviation
    # shrinks as the cavity grows
    N = 3
    deviations = []
    for n in (30, 300, 3000):
        tau = universal_flip_time(N, 1.0, n)
        config = SimulationConfig(
            N=N, n=n, params=ModelParams(), t_max=1.3 * tau, steps=4001,
            record=("fidelity",),
        )
        detected, _ = detect_flip_time(run(config))
        deviations.append(abs(detected / tau - 1.0))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 1e-3


def test_detect_flip_time_needs_fidelity_column():
    series = ObservableSeries(times=np.linspace(0, 1, 5), data={"norm": np.ones(5)})
    with pytest.raises(ValueError, match="fidelity"):
        detect_flip_time(series)


def test_detect_flip_time_raises_below_threshold():
    # photon-starved run never crosses fidelity 0.5 (it is identically zero)
    config = SimulationConfig(
        N=4, n=2, params=ModelParams(), t_max=10.0, steps=500, record=("fidelity",)
    )
    with pytest.raises(FlipDetectionError, match="no flip"):
        detect_flip_time(run(config))


def test_detect_flip_time_skips_early_ripples():
    # small local maxima below threshold must not shadow the real peak
    times = np.linspace(0.0, 1.0, 101)
    wiggle = 0.05 * np.sin(40 * times) ** 2
    peak = np.exp(-((times - 0.7) ** 2) / 0.002)
    series = ObservableSeries(times=times, data={"fidelity": np.minimum(wiggle + peak, 1.0)})
    detected, height = detect_flip_time(series)
    assert detected == pytest.approx(0.7, abs=0.01)
    assert height > 0.9


def _first_peak_by_loop(series):
    """Per-sample scan that detect_flip_time replaces; None when nothing qualifies."""
    times, fidelity = series.times, series["fidelity"]
    for i in range(1, fidelity.size - 1):
        left, middle, right = fidelity[i - 1], fidelity[i], fidelity[i + 1]
        if middle >= left and middle >= right and (middle > left or middle > right):
            peak_time, peak_value = analysis._refine_peak(times, fidelity, i)
            if peak_value > analysis.DETECTION_THRESHOLD:
                return peak_time, peak_value
    return None


def _assert_scan_matches_loop(values):
    series = ObservableSeries(
        times=np.linspace(0.0, 1.0, len(values)), data={"fidelity": np.array(values, dtype=float)}
    )
    expected = _first_peak_by_loop(series)
    if expected is None:
        with pytest.raises(FlipDetectionError):
            detect_flip_time(series)
        return None
    assert detect_flip_time(series) == expected
    return expected


@pytest.mark.parametrize(
    "values",
    [
        # plateaus: both edges are candidates, the flat middle is not
        [0.0, 0.2, 0.8, 0.8, 0.8, 0.3, 0.0],
        [0.0, 0.4, 0.4, 0.4, 0.1, 0.9, 0.2],
        [0.6, 0.6, 0.6, 0.6, 0.6],
        # refined heights of exactly 0.5 are not above the threshold
        [0.0, 0.25, 0.5, 0.25, 0.0, 0.3, 0.7, 0.3],
        [0.0, 0.5, 0.5, 0.5, 0.0],
        [0.0, 0.25, 0.5, 0.25, 0.0],
        # no interior peak at all
        [0.0, 0.1, 0.2, 0.9, 1.0],
        [1.0, 0.9, 0.2, 0.1, 0.0],
        [0.3, 0.1, 0.3],
        [0.2, 0.9],
    ],
)
def test_detect_flip_time_matches_per_sample_scan(values):
    _assert_scan_matches_loop(values)


def test_detect_flip_time_matches_per_sample_scan_on_random_series():
    rng = np.random.default_rng(20261019)
    found = 0
    for _ in range(300):
        walk = np.clip(np.cumsum(rng.normal(0.0, 0.2, rng.integers(3, 40))), 0.0, 1.0)
        # one decimal puts plateaus and exact 0.5 values in most series
        found += _assert_scan_matches_loop(np.round(walk, 1)) is not None
    assert 0 < found < 300


def test_flip_summary_ok_on_clean_flip():
    summary = flip_summary(3, 40, ModelParams(), "exact", 2000, window=2.5)
    assert summary.status == "ok"
    assert summary.tau_analytic == universal_flip_time(3, 1.0, 40)
    assert summary.tau_detected == pytest.approx(summary.tau_analytic, rel=0.05)
    assert summary.peak_fidelity > 0.5


def test_flip_summary_partial_reports_global_maximum():
    # n = N: the fidelity never reaches 0.5, the best peak in the window stands in
    summary = flip_summary(30, 30, ModelParams(), "exact", 2000, window=2.5)
    assert summary.status == "partial"
    assert summary.peak_fidelity == pytest.approx(0.32, abs=0.01)
    assert 0.0 < summary.tau_detected < 2.5 * summary.tau_analytic


@pytest.mark.parametrize("model", ["exact", "large_n"])
def test_flip_summary_unreachable_runs_nothing(model, monkeypatch):
    def no_run(config):
        raise AssertionError("an unreachable point must not be simulated")

    monkeypatch.setattr(analysis, "run", no_run)
    summary = flip_summary(10, 5, ModelParams(), model, 2000, window=2.5)
    assert summary.status == "unreachable"
    assert summary.tau_analytic == universal_flip_time(10, 1.0, 5)
    assert summary.tau_detected is None and summary.peak_fidelity is None


def test_flip_measurements_need_a_detected_flip(monkeypatch):
    def partial(*args, **kwargs):
        return FlipSummary("partial", 1.0, 0.9, 0.3)

    monkeypatch.setattr(analysis, "flip_summary", partial)
    with pytest.raises(FlipDetectionError, match="partial"):
        compare_protocols(2, 10)


def test_compare_protocols_closed_forms():
    report = compare_protocols(4, 100, g=1.0, omega_a=1.0, model="large_n")
    assert isinstance(report, ProtocolReport)
    assert report.tau_parallel == pytest.approx(math.pi / 20)
    assert report.tau_collective == pytest.approx(math.pi / 40)
    assert report.W == 4.0
    assert report.ratio == pytest.approx(2.0, rel=1e-12)
    assert report.P_collective == pytest.approx(report.P_parallel * 2.0, rel=1e-12)
    # simulated flips agree with the closed forms on this grid
    assert report.tau_detected_parallel == pytest.approx(report.tau_parallel, rel=1e-7)
    assert report.tau_detected_collective == pytest.approx(report.tau_collective, rel=1e-7)
    assert report.fidelity_at_tau == pytest.approx(1.0, abs=1e-8)


def test_compare_protocols_ratio_scales_as_sqrt_N():
    for N in (2, 9, 16):
        report = compare_protocols(N, 64, model="large_n", steps=2001)
        assert report.ratio == pytest.approx(math.sqrt(N), rel=1e-12)


def test_compare_protocols_exact_model_close_to_ideal():
    report = compare_protocols(3, 300, model="exact", steps=3001)
    assert report.tau_detected_collective == pytest.approx(report.tau_collective, rel=5e-3)
    assert report.fidelity_at_tau > 0.99


def test_compare_protocols_validation():
    with pytest.raises(ValueError):
        compare_protocols(0, 5)
    with pytest.raises(ValueError):
        compare_protocols(2, 5, omega_a=0.0)


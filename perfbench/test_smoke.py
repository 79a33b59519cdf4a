"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_smoke.py

Smoke mode runs every workload once at tiny sizes, untraced and traced; the
test asserts that each run prints every metric BENCHMARK.json names, with
its unit, and that no op failed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import Span, _covered, layer_metrics  # noqa: E402
from worker import low, tail  # noqa: E402


@pytest.fixture(scope="module")
def smoke():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def sections(stdout: str) -> dict[str, list[str]]:
    """Printed lines of each smoke run, keyed like the summary: workload/traceN."""
    runs, current = {}, None
    for line in stdout.splitlines()[:-1]:
        header = re.match(r"== (\S+) trace=(\d)$", line)
        if header:
            current = runs.setdefault(f"{header[1]}/trace{header[2]}", [])
        elif current is not None:
            current.append(line)
    return runs


def test_smoke_prints_every_metric_with_its_unit(smoke):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = json.loads(smoke.splitlines()[-1])["smoke"]
    printed = sections(smoke)
    expected = {f"{w['name']}/trace{t}" for w in spec["workloads"] for t in (0, 1)}
    assert set(summary) == expected == set(printed)
    for key, result in summary.items():
        metrics = spec["per_layer"] if key.endswith("trace1") else spec["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in metrics}, key
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][name]["unit"] == unit, (key, name)
            assert any(re.fullmatch(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}", line)
                       for line in printed[key]), (key, name)
        assert result["correct"] and result["failed"] == 0, key
        failed_frac = [line.split()[1] for line in printed[key] if line.startswith("failed_frac")]
        assert failed_frac == ["0"], key


def test_tail_keeps_ten_ops_beyond_it():
    latencies = [float(i) for i in range(1, 41)]  # 40 ops
    value, percentile = tail(latencies)
    assert value == 30.0 and percentile == 75.0
    assert sum(1 for x in latencies if x > value) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_low_is_the_tenth_percentile():
    latencies = [float(i) for i in range(1, 100)]  # 99 ops
    assert low(latencies) == 10.0
    assert low([7.0]) == 7.0


def test_covered_merges_overlapping_children():
    assert _covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert _covered([(-1.0, 2.0)], 0.0, 1.0) == 1.0


def test_layer_metrics_self_time_and_outermost_calls():
    spans = [
        Span(1, "cli.main", "cli", 0.0, 10.0, None, 0, False, None),
        Span(2, "dynamics.run", "dynamics", 1.0, 6.0, 1, 0, False, (100, 50)),
        Span(3, "dynamics.sector_operator", "operators", 1.0, 2.0, 2, 0, False, None),
        Span(4, "operators.exact_tc_matrix", "operators", 1.2, 1.8, 3, 0, False, None),
        Span(5, "spectra.eigendecompose", "spectra", 2.0, 3.0, 2, 0, False, 100),
        Span(6, "analysis.detect_flip_time", "analysis", 7.0, 8.0, 1, 0, True, None),
    ]
    m = layer_metrics(spans, ops=1, workload="trajectory")
    assert m["operators.calls"] == 1  # the nested exact_tc_matrix is not a second call
    assert m["cli.self_s"] == 10.0 - 5.0 - 1.0
    assert m["dynamics.self_s"] == 5.0 - 1.0 - 1.0
    assert m["dynamics.propagate_gflop"] == 4 * 100 * 100 * 50 / 1e9
    assert m["spectra.rungs"] == 100 and m["spectra.max_dim"] == 100
    assert m["analysis.flip_found_ratio"] == 0.0
    assert m["sweep.overlap"] == 0.0

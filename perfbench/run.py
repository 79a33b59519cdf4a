"""Benchmark of the dicke-battery package: one workload per invocation.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, tiny sizes

Run from the root of a source checkout; the package is imported from its
`src/`, nothing is installed.  The workload runs in a child process
(worker.py) so that its peak memory is its own.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 a separate traced run
reports the per-layer metrics.  Every metric is printed by name with its
unit, then a MACHINE line recording where it ran, then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Set-up time is the time from launching a worker until it reports that its
timed loop can start: interpreter start, package import, input generation
and one warm-up op.  A --trace 0 run launches SETUP_RUNS workers, all but
the last for set-up only, and reports the median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
BUDGET_S = 170.0  # workers still running this long after the start are killed

# OpenBLAS threads busy-wait for 2^28 cycles after each threaded call.  On a
# host that at times gives the two vCPUs one core's worth of time, that spin
# takes time from the Python thread and slows Python-bound ops by up to 1.5x,
# so latency would follow the host's load rather than the program.  2^4
# cycles puts idle threads to sleep at once; threaded calls still use every
# thread.  A value set by the caller is kept.
WORKER_ENV = {"OPENBLAS_THREAD_TIMEOUT": "4"}

# Busy loop that prints its own duration; run alone and then two at once.
_SPIN = "import time;t=time.perf_counter();s=0\nfor i in range(3_000_000): s+=i\nprint(time.perf_counter()-t)"


def effective_cpus() -> float:
    """CPUs the machine gives this benchmark right now, from 1 (shared) to 2.

    nproc may say 2 on a host that, at times, runs both of them on one
    core's worth of time; threaded code then slows down more than serial
    code, so the figure is recorded with every result.
    """
    def spin(count: int) -> list[float]:
        procs = [subprocess.Popen([sys.executable, "-S", "-c", _SPIN], stdout=subprocess.PIPE,
                                  text=True) for _ in range(count)]
        return [float(p.communicate()[0]) for p in procs]

    before, pair, after = spin(1), spin(2), spin(1)
    return round(2.0 * statistics.mean(before + after) / statistics.mean(pair), 2)


class WorkerError(RuntimeError):
    """A worker exited non-zero, timed out or printed no result."""


def launch(workload: str, seed: int, seconds: float, trace: int, deadline: float, *,
           smoke: bool = False, setup_only: bool = False) -> tuple[float, dict | None]:
    """Run one worker to completion; returns (set-up seconds, its RESULT or None)."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    started = perf_counter()
    env = {**WORKER_ENV, **os.environ}
    worker = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - started, 0.0), worker.kill)
    watchdog.start()
    try:
        setup = None
        lines = []
        for line in worker.stdout:
            if line.strip() == "READY" and setup is None:
                setup = perf_counter() - started
            else:
                lines.append(line)
        code = worker.wait()
    finally:
        watchdog.cancel()
        worker.kill()
        worker.wait()
        # a killed worker leaves its scratch directory (worker.py names it)
        shutil.rmtree(BENCH / ".work" / f"{workload}-{worker.pid}", ignore_errors=True)
    if code != 0 or setup is None:
        raise WorkerError(f"{workload} worker exited with code {code}")
    if setup_only:
        return setup, None
    results = [line for line in lines if line.startswith("RESULT ")]
    if not results:
        raise WorkerError(f"{workload} worker printed no result")
    return setup, json.loads(results[-1][len("RESULT "):])


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = perf_counter() + BUDGET_S
    setups = []
    if not trace and not smoke:
        for _ in range(SETUP_RUNS - 1):
            setups.append(launch(workload, seed, seconds, trace, deadline, setup_only=True)[0])
    setup, result = launch(workload, seed, seconds, trace, deadline, smoke=smoke)
    setups.append(setup)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_runs_s"] = setups
    result["machine"]["effective_cpus"] = effective_cpus()
    return result


def report(spec: dict, result: dict, trace: int) -> dict:
    """Print every metric BENCHMARK.json names, with its unit, and the record.

    Returns the result line.  Units ending in -computed mark quantities
    derived from the inputs' shapes by formula, not measured.
    """
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    attempted, failed = result["attempted"], result["failed"]
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>16.6g}  {metric['unit']}")
    print(f"{'failed_frac':<28} {failed / attempted:>16.6g}  fraction  ({failed} of {attempted} ops)")
    if not trace:
        print(f"op_tail_ms is p{result['op_tail_pct']:.1f} of {result['ops']} timed ops")
        print(f"{'op_p50_ms':<28} {result['op_p50_ms']:>16.6g}  ms  (median; not gated, see README)")
    for failure in result["failures"]:
        print(f"FAILED {json.dumps(failure)}")
    record = dict(result["machine"], computed=[n for n, u in units.items() if u.endswith("-computed")])
    print("MACHINE " + json.dumps(record))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    # a terminated run unwinds through launch(), which kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload (or the one named) once at tiny sizes, both modes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dicke_battery" / "__init__.py").is_file():
        print(f"error: no dicke_battery source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            summary = {}
            for workload in [args.workload] if args.workload else workloads:
                for trace in (0, 1):
                    print(f"== {workload} trace={trace}")
                    result = measure(workload, args.seed, 0, trace, smoke=True)
                    summary[f"{workload}/trace{trace}"] = report(spec, result, trace)
            print(json.dumps({"smoke": summary}))
            return 0
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        result = measure(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report(spec, result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

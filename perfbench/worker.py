"""One workload in one process: set up, warm up, run the timed loop, check.

Started by run.py, never by hand.  Prints `READY` once the package is
imported, the inputs are generated and one untimed warm-up op has run;
prints `RESULT <json>` as its last line.  With --setup-only it exits after
`READY`.

The timed loop is closed: one client, the next op starts when the previous
one returns, no threads of the benchmark's own.  Outputs are checked after
the loop, so checking costs no loop time.  With --trace 1 each op input runs
twice back to back, once bare and once traced (alternating which goes
first), and the two sums of latencies give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
LOW_PCT = 10  # op_p10_ms: latency at this percentile


def low(latencies: list[float]) -> float:
    """Latency at the LOW_PCT-th percentile; the only op's when there is one.

    Reported instead of the median: on a shared host, the share of a run
    spent in slow phases moves the median of Python-bound ops by a quarter
    from run to run; the fast end of the distribution moves less.
    """
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100 // LOW_PCT)[0]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it.

    Returns (latency, percentile).  With too few ops for that, the slowest op
    and the 100th percentile.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def blas_record() -> dict:
    """OpenBLAS build and thread count, read from the loaded library."""
    import ctypes

    import numpy

    record: dict = {"threads_env": {k: v for k, v in sorted(os.environ.items())
                                    if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS_")}}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
    libraries = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        entry = {"library": Path(path).name}
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None) or getattr(
                lib, f"openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None) or getattr(
                lib, f"openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
        libraries.append(entry)
    record["openblas"] = libraries
    return record


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def machine_record(args) -> dict:
    import numpy
    import scipy

    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), model)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_record(),
        # cli.sweep uses ThreadPoolExecutor() with its default worker count
        "sweep_pool_size": min(32, (os.cpu_count() or 1) + 4),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def import_package() -> None:
    """Import dicke_battery from this checkout's src/, and nowhere else."""
    if not (SRC / "dicke_battery" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'dicke_battery'}")
    sys.path.insert(0, str(SRC))
    import dicke_battery

    if Path(dicke_battery.__file__).resolve().parent != (SRC / "dicke_battery").resolve():
        raise SystemExit(f"imported dicke_battery from {dicke_battery.__file__}, not {SRC}")


class Record(NamedTuple):
    op: object
    latency: float
    outcome: object
    out: str | None
    traced: bool


class Runner:
    """Runs ops of one workload, giving every execution its own output file."""

    def __init__(self, workload, run_op, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.run_op = run_op
        self.executions = 0

    def execute(self, op, traced: bool = False) -> Record:
        """One op, with its latency in seconds and what its check needs."""
        out = None
        if op.kind != "crosscheck":
            out = str(self.workdir / f"op-{self.executions}.csv")
        self.executions += 1
        start = perf_counter()
        try:
            outcome = self.run_op(op, out)
        except Exception as error:  # an op that raises is a failed op, not a crash
            outcome = error
        return Record(op, perf_counter() - start, outcome, out, traced)

    def check(self, op, outcome, out) -> list[str]:
        """Problems with one op's output; empty when it passed."""
        if isinstance(outcome, Exception):
            return [f"raised {outcome!r}"]
        try:
            return self.workload.check(op, outcome, out)
        except (OSError, ValueError, KeyError, IndexError) as error:
            return [f"output unreadable: {error!r}"]


def timed_loop(runner: Runner, ops: list, seconds: float, smoke: bool, tracer=None):
    """Closed loop over the op cycle until `seconds` have passed.

    Returns (records, loop_wall_s, cpu_s).
    """
    records = []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = usage.ru_utime + usage.ru_stime
    started = perf_counter()
    deadline = started + seconds
    index = 0
    while True:
        op = ops[index % len(ops)]
        if tracer is None:
            records.append(runner.execute(op))
        else:
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = runner.executions
                    tracer.install()
                try:
                    records.append(runner.execute(op, traced))
                finally:
                    tracer.uninstall()
        index += 1
        if smoke or perf_counter() >= deadline:
            break
    wall = perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return records, wall, usage.ru_utime + usage.ru_stime - cpu0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_package()
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        ops = workload.inputs(random.Random(args.seed), args.smoke)
        runner = Runner(workload, workloads.run_op, workdir)
        runner.execute(ops[0])  # warm-up, untimed and unchecked
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = tracing.Tracer() if args.trace else None
        records, wall, cpu = timed_loop(runner, ops, args.seconds, args.smoke, tracer)

        failures, output_bytes, unreachable_ok = [], 0, 0
        for record in records:
            problems = runner.check(record.op, record.outcome, record.out)
            if problems:
                failures.append({"op": record.op.params, "problems": problems})
                continue
            if record.traced and record.out is not None:
                output_bytes += workloads.output_bytes(record.out)
            if record.op.kind == "sweep":
                unreachable_ok += workloads.unreachable_ok_rows(record.out)

        latencies = [r.latency for r in records if not r.traced]
        result: dict = {"attempted": len(records), "failed": len(failures),
                        "failures": failures[:5], "machine": machine_record(args)}
        if tracer is None:
            tail_s, tail_pct = tail(latencies)
            result["metrics"] = {
                "ops_per_s": len(records) / wall,
                "op_p10_ms": 1e3 * low(latencies),
                "op_tail_ms": 1e3 * tail_s,
                "cpu_per_op_ms": 1e3 * cpu / len(records),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - len(failures) / len(records),
            }
            result["op_tail_pct"] = tail_pct
            result["op_p50_ms"] = 1e3 * statistics.median(latencies)
            result["ops"] = len(records)
        else:
            traced_ops = sum(1 for r in records if r.traced)
            bare = sum(latencies)
            dressed = sum(r.latency for r in records if r.traced)
            metrics = tracing.layer_metrics(tracer.spans, traced_ops, args.workload)
            metrics["cli.bytes_out"] = output_bytes / max(traced_ops, 1)
            metrics["sweep.unreachable_ok_rows"] = unreachable_ok / len(records)
            metrics["trace.overhead_frac"] = dressed / bare - 1.0
            result["metrics"] = metrics
            result["ops"] = traced_ops
            spans_dir = BENCH / "out"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"spans-{args.workload}.json.gz", result["machine"])
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded inputs, one op, and its output check.

Every workload is a cycle of op inputs generated from the seed.  The timed
loop runs them in order and wraps around; the cycle is built so that any
run long enough to go round it a few times sees the same mix of op sizes,
whatever the seed.  An op returns what its output check needs; the check
runs after the timed loop and returns a list of problems (empty = passed).

Only the package's public functions and its command line are called, and
always through module attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dicke_battery import cli, dynamics, hilbert, observables, operators, oracle, spectra

FLIP_TOL = 0.01  # clean-flip points: detected flip within 1 % of pi / (2 g sqrt(n))
NORM_TOL = 1e-10
DRIFT_TOL = 1e-10
UNIT_SLACK = 1e-12  # W_over_capacity may overshoot [0, 1] by rounding only
LARGE_N_TOL = 1e-9
ORACLE_TOL = 1e-8
CLEAN_RATIO = 100  # n >= 100 N counts as a clean flip


@dataclass
class Op:
    """One op input; argv is a command line for `cli.main`, without --out."""

    kind: str
    params: dict
    argv: list[str] = field(default_factory=list)


def universal_tau(N: int, n: int, g: float) -> float:
    return math.pi / (2.0 * g * math.sqrt(n))


def first_flip(times: np.ndarray, fidelity: np.ndarray) -> float | None:
    """First interior local maximum of fidelity above 0.5, refined by a parabola.

    Written here rather than taken from `analysis` so that the check does
    not trust the code it checks.
    """
    for i in range(1, fidelity.size - 1):
        left, middle, right = fidelity[i - 1], fidelity[i], fidelity[i + 1]
        if middle >= left and middle >= right and middle > 0.5:
            curvature = left - 2.0 * middle + right
            offset = 0.0 if curvature == 0.0 else 0.5 * (left - right) / curvature
            return float(times[i] + offset * (times[i] - times[i - 1]))
    return None


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def output_bytes(out: str) -> int:
    """Bytes a command wrote: its CSV plus the manifest beside it."""
    return sum(p.stat().st_size for p in (Path(out), Path(out + ".manifest.json")))


# ---------------------------------------------------------------------------
# trajectory: small ladders, all 7 observables, per-sample loop and CSV


def trajectory_inputs(rng: random.Random, smoke: bool) -> list[Op]:
    """Three regimes anchored on configs/*.cfg, ladders of at most 100 rungs."""
    steps = 50 if smoke else 4000
    ops = []
    for i in range(3 if smoke else 30):
        regime = ("clean", "starved", "oversubscribed")[i % 3]
        g = rng.uniform(0.5, 2.0)
        if regime == "clean":  # full_charge.cfg: N = 10, n = 1000 N
            N = rng.randint(4, 20)
            n = N * rng.randint(CLEAN_RATIO, 1000)
            span = rng.uniform(2.0, 3.0)
        elif regime == "starved":  # photon_starved.cfg: N = 10, n = 12, t_max = 6 tau
            N = rng.randint(6, 30)
            n = N + rng.randint(1, 4)
            span = rng.uniform(5.0, 7.0)
        else:  # oversubscribed.cfg: N = 100, n = 90, t_max = 10 tau
            N = rng.randint(60, 150)
            n = rng.randint(int(0.6 * N), min(N - 1, 99))
            span = rng.uniform(8.0, 12.0)
        t_max = span * universal_tau(N, n, g)
        argv = ["simulate", "--spins", str(N), "--photons", str(n), "--coupling", repr(g),
                "--t-max", repr(t_max), "--steps", str(steps)]
        ops.append(Op("trajectory", {"N": N, "n": n, "g": g, "steps": steps, "regime": regime},
                      argv))
    return ops


def check_trajectory(op: Op, exit_code: int, out: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    header, table = read_csv(out)
    column = {name: table[:, header.index(name)] for name in header}
    problems = []
    if table.shape[0] != op.params["steps"]:
        problems.append(f"{table.shape[0]} rows, expected {op.params['steps']}")
    norm_error = float(np.max(np.abs(column["norm"] - 1.0)))
    if norm_error > NORM_TOL:
        problems.append(f"norm off by {norm_error:.3e}")
    excitation = column["excitation"]
    drift = float(np.max(np.abs(excitation - excitation[0]))) / max(abs(excitation[0]), 1.0)
    if drift > DRIFT_TOL:
        problems.append(f"excitation drift {drift:.3e}")
    W = column["W_over_capacity"]
    if W.min() < -UNIT_SLACK or W.max() > 1.0 + UNIT_SLACK:
        problems.append(f"W_over_capacity outside [0, 1]: {W.min()}..{W.max()}")
    p = op.params
    if p["n"] >= CLEAN_RATIO * p["N"]:
        problems += flip_problem(column["t"], column["fidelity"], p["N"], p["n"], p["g"])
    return problems


def flip_problem(times, fidelity, N: int, n: int, g: float) -> list[str]:
    tau = universal_tau(N, n, g)
    detected = first_flip(times, fidelity)
    if detected is None:
        return [f"no flip found for clean point N={N}, n={n}"]
    if abs(detected / tau - 1.0) > FLIP_TOL:
        return [f"flip at {detected:.6g}, expected {tau:.6g} within {FLIP_TOL:.0%}"]
    return []


# ---------------------------------------------------------------------------
# big_ladder: 1000 to 3000 rungs, eigensolve and propagation GEMMs

# One cycle of (rungs, model), strictly alternating the models.  Sorted by
# cost the cycle reads large_n 1000 (x2) < exact 1000 < exact 2000 (x3) <
# large_n 3000 (x3) < exact 3000, so the p10 op is a large_n 1000-rung run,
# the median an exact 2000-rung run and the tail percentile (p69..p75 at
# 32..40 ops) a large_n 3000-rung run, each with a margin of about a tenth
# of the ops on either side.
BIG_CYCLE = (
    (2000, "exact"), (3000, "large_n"), (1000, "exact"), (1000, "large_n"), (2000, "exact"),
    (3000, "large_n"), (3000, "exact"), (1000, "large_n"), (2000, "exact"), (3000, "large_n"),
)


def big_ladder_inputs(rng: random.Random, smoke: bool) -> list[Op]:
    """Ladders of about 1000, 2000 and 3000 rungs; the seed jitters each by 0.5 %."""
    steps = 20 if smoke else 300
    cycle = [(40, "exact"), (60, "large_n")] if smoke else BIG_CYCLE
    ops = []
    for rungs, model in cycle:
        N = rungs - 1 + rng.randint(-5, 5) * (rungs // 1000)
        n = N * rng.randint(5, 20)
        g = rng.uniform(0.5, 2.0)
        t_max = rng.uniform(1.0, 3.0) * universal_tau(N, n, g)
        argv = ["simulate", "--spins", str(N), "--photons", str(n), "--coupling", repr(g),
                "--model", model.replace("_", "-"), "--t-max", repr(t_max), "--steps", str(steps),
                "--observables", "W_over_capacity,fidelity,norm"]
        ops.append(Op("big_ladder", {"N": N, "n": n, "g": g, "model": model, "steps": steps},
                      argv))
    return ops


def check_big_ladder(op: Op, exit_code: int, out: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    header, table = read_csv(out)
    column = {name: table[:, header.index(name)] for name in header}
    p = op.params
    if table.shape[0] != p["steps"]:
        return [f"{table.shape[0]} rows, expected {p['steps']}"]
    if p["model"] == "large_n":
        # spin-coherent rotation: W / N = sin^2(g sqrt(n) t)
        expected = np.sin(p["g"] * math.sqrt(p["n"]) * column["t"]) ** 2
        error = float(np.max(np.abs(column["W_over_capacity"] - expected)))
        return [f"W/N off the rotation by {error:.3e}"] if error > LARGE_N_TOL else []
    norm_error = float(np.max(np.abs(column["norm"] - 1.0)))
    return [f"norm off by {norm_error:.3e}"] if norm_error > NORM_TOL else []


# ---------------------------------------------------------------------------
# sweep: many small concurrent runs in the CLI's thread pool


def sweep_inputs(rng: random.Random, smoke: bool) -> list[Op]:
    """Grids mixing unreachable (n < N), partial and clean (n >= 100 N) points."""
    ops = []
    for i in range(1 if smoke else 20):
        spins = sorted(rng.sample(range(3, 41), 2 if smoke else 6))
        low, high = spins[0], spins[-1]
        photons = sorted({
            rng.randint(1, low - 1),                       # below every N: unreachable
            rng.randint(low, high),                         # between: mixed
            rng.randint(2 * high, 5 * high),                # above every N, partial flip
            CLEAN_RATIO * high * rng.randint(1, 5),         # clean for every N
        })
        if smoke:
            photons = [photons[0], photons[-1]]
        argv = ["sweep", "--spins", ",".join(map(str, spins)),
                "--photons", ",".join(map(str, photons))]
        ops.append(Op("sweep", {"spins": spins, "photons": photons}, argv))
    return ops


def read_rows(out: str) -> list[dict]:
    with open(out, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def unreachable_ok_rows(out: str) -> int:
    """Rows that report `ok` for a point where full charge is unreachable."""
    rows = read_rows(out)
    return sum(1 for row in rows if int(row["n"]) < int(row["N"]) and row["status"] == "ok")


def check_sweep(op: Op, exit_code: int, out: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    rows = read_rows(out)
    expected = len(op.params["spins"]) * len(op.params["photons"])
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    problems = []
    for row in rows:
        N, n = int(row["N"]), int(row["n"])
        if n < CLEAN_RATIO * N:
            continue
        if row["status"] != "ok" or not row["tau_detected"]:
            problems.append(f"clean point N={N}, n={n} reported {row['status']!r}")
            continue
        tau = universal_tau(N, n, 1.0)
        if abs(float(row["tau_detected"]) / tau - 1.0) > FLIP_TOL:
            problems.append(f"clean point N={N}, n={n}: flip {row['tau_detected']}, expected {tau}")
    return problems


# ---------------------------------------------------------------------------
# crosscheck: sector solution against the brute-force oracle, N <= 4


def crosscheck_inputs(rng: random.Random, smoke: bool) -> list[Op]:
    """One random time per op; every op covers the whole N <= 4, n <= 12 grid.

    Covering the whole grid makes every op the same amount of work, so the
    latency distribution does not depend on which photon numbers a run drew.
    """
    photons = [1, 2] if smoke else list(range(1, 13))
    return [Op("crosscheck", {"photons": photons, "t": rng.uniform(0.0, 5.0)}) for _ in range(20)]


def crosscheck_op(op: Op) -> list[tuple]:
    """Sector and brute-force results for every N <= 4 and n at the op's time."""
    params = operators.ModelParams(g=1.0, omega=1.0)
    t = op.params["t"]
    results = []
    for n in op.params["photons"]:
        for N in range(1, oracle.MAX_SPINS + 1):
            basis = hilbert.build_sector(N, n)
            eigensystem = spectra.eigendecompose(dynamics.sector_operator(basis, params, "exact"))
            sector = dynamics.evolve(hilbert.initial_state(basis), eigensystem, t)
            full = oracle.brute_force_evolve(N, n, params, t)
            rho1 = observables.single_spin_density(sector)
            spins = [oracle.reduced_spin_density(full, s) for s in range(N)]
            pairs = {
                "amplitudes": (sector.amplitudes, [oracle.full_to_sector(full, basis)]),
                "spin": (rho1, spins),
                "entropy": (observables.von_neumann_entropy(rho1),
                            [observables.von_neumann_entropy(spins[0])]),
            }
            if N >= 2:
                rho2 = observables.two_spin_density(sector)
                pairs_full = [oracle.reduced_two_spin_density(full, a, b)
                              for a in range(N) for b in range(a + 1, N)]
                pairs["pair"] = (rho2, pairs_full)
                pairs["concurrence"] = (observables.pairwise_concurrence(rho2),
                                        [observables.pairwise_concurrence(pairs_full[0])])
            results.append((N, n, pairs))
    return results


def check_crosscheck(op: Op, result: list[tuple], out: None) -> list[str]:
    problems = []
    for N, n, pairs in result:
        worst = 0.0
        for mine, theirs in pairs.values():
            worst = max([worst] + [float(np.max(np.abs(mine - other))) for other in theirs])
        if worst > ORACLE_TOL:
            problems.append(f"N={N}, n={n}, t={op.params['t']:.4f}: sector vs brute force {worst:.3e}")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[random.Random, bool], list[Op]]
    check: Callable[[Op, object, str | None], list[str]]


WORKLOADS = {
    "trajectory": Workload(trajectory_inputs, check_trajectory),
    "big_ladder": Workload(big_ladder_inputs, check_big_ladder),
    "sweep": Workload(sweep_inputs, check_sweep),
    "crosscheck": Workload(crosscheck_inputs, check_crosscheck),
}


def run_op(op: Op, out: str | None):
    """Run one op; the CLI ops write `out` and return their exit code."""
    if op.kind == "crosscheck":
        return crosscheck_op(op)
    return cli.main([*op.argv, "--out", out])

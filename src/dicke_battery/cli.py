"""Command-line front end.

Subcommands: `simulate` (charging run to CSV), `spectrum` (numeric vs
analytic eigenvalues to JSON), `compare` (parallel vs collective protocol
report to JSON), `verify` (built-in correctness battery), `sweep`
(parameter grid to CSV).  Every file output gets a JSON manifest written
next to it; identical parameters reproduce output bytes identically.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, dynamics, observables, oracle, spectra
from .dynamics import OBSERVABLE_NAMES, SimulationConfig
from .hilbert import build_sector, initial_state
from .operators import ModelParams

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Bad configuration file or flag value."""


# ---------------------------------------------------------------------------
# configuration plumbing


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` file; blank lines and full-line # comments allowed."""
    raw: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as error:
        raise ConfigError(f"cannot read config file {path}: {error}") from error
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def model_name(text: str) -> str:
    """Canonical model for `exact`, `large-n` or `large_n`, the `--model` type."""
    name = text.replace("-", "_")
    if name not in dynamics.MODELS:
        raise ValueError(f"unknown model {text!r}, expected exact, large-n or large_n")
    return name


def output_path(text: str) -> str:
    """A non-empty path, the `--out` type: an empty one names no file."""
    if not text:
        raise ValueError("empty output path")
    return text


def _name_list(text: str) -> list[str]:
    """Comma-separated names, blanks dropped."""
    return [name.strip() for name in text.split(",") if name.strip()]


# each simulate setting: (type, default, help).  The type reads the flag, the
# config value and the default string alike; flag --t-max is config key t_max.
_REQUIRED = object()  # the default of a setting that has none
_SIMULATE_SETTINGS = {
    "spins": (int, _REQUIRED, "number of battery spins N"),
    "photons": (int, _REQUIRED, "initial cavity photons n"),
    "coupling": (float, "1.0", "spin-photon coupling g"),
    "model": (model_name, "exact", "exact, large-n or large_n"),
    "t_max": (float, _REQUIRED, "end of the sampled window"),
    "steps": (int, "2000", "number of samples"),
    "t_off": (float, "inf", "end of the charging window"),
    "observables": (_name_list, ",".join(OBSERVABLE_NAMES), "comma list to record"),
    "out": (output_path, None, "output path (stdout if omitted)"),
}


def _add_setting(
    parser: argparse.ArgumentParser,
    key: str,
    *,
    default: str | None = None,
    text: str | None = None,
    resolve: bool = True,
) -> None:
    """Add the flag of setting `key` from its row; `default` and `text` replace the row's.

    With resolve the flag carries its default, parsed by the row's type,
    and a setting without one is required.  `simulate` adds its flags
    unresolved, defaulting to None, so a config file can fill them.
    """
    kind, row_default, row_text = _SIMULATE_SETTINGS[key]
    default = row_default if default is None else default
    options = {"type": kind, "help": text or row_text}
    if isinstance(default, str):
        options["help"] += f" (default {default})"
        if resolve:
            options["default"] = default  # argparse parses a string default by `type`
    elif default is _REQUIRED and resolve:
        options["required"] = True
    parser.add_argument(f"--{key.replace('_', '-')}", **options)


def _resolve_simulate_settings(args: argparse.Namespace) -> dict:
    """Each setting from its flag, else from the config file, else its default."""
    settings = {
        key: kind(default)
        for key, (kind, default, _) in _SIMULATE_SETTINGS.items()
        if isinstance(default, str)
    }
    for key, text in (parse_config_file(args.config) if args.config else {}).items():
        if key not in _SIMULATE_SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            settings[key] = _SIMULATE_SETTINGS[key][0](text)
        except ValueError as error:
            raise ConfigError(f"bad value for {key}: {error}") from error
    settings.update(
        (key, getattr(args, key)) for key in _SIMULATE_SETTINGS if getattr(args, key) is not None
    )
    for key, (_, default, _) in _SIMULATE_SETTINGS.items():
        if default is _REQUIRED and key not in settings:
            raise ConfigError(f"missing required setting {key!r}")
    return settings


# ---------------------------------------------------------------------------
# serialization


def _cell(value) -> str:
    """CSV cell of a Python value; repr gives floats their shortest round-trip decimal."""
    return "" if value is None else value if isinstance(value, str) else repr(value)


def _csv_text(header: list[str], columns: list[list]) -> str:
    """CSV of equal-length columns of Python values (use .tolist() on arrays)."""
    rows = zip(*(map(_cell, column) for column in columns))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _json_safe(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    return value


def _emit(command: str, parameters: dict, text: str, out: str | None, started: float) -> None:
    """Write text to stdout, or to `out` with a JSON manifest beside it."""
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text, encoding="utf-8", newline="")
    manifest = {
        "command": command,
        "tool_version": __version__,
        "parameters": _json_safe(parameters),
        "outputs": [str(path)],
        "wall_clock_seconds": time.perf_counter() - started,
    }
    Path(str(path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    settings = _resolve_simulate_settings(args)
    try:
        config = SimulationConfig(
            N=settings["spins"],
            n=settings["photons"],
            params=ModelParams(g=settings["coupling"], t_off=settings["t_off"]),
            t_max=settings["t_max"],
            steps=settings["steps"],
            model=settings["model"],
            record=tuple(settings["observables"]),
        )
    except ValueError as error:
        raise ConfigError(str(error)) from error
    series = dynamics.run(config)
    columns = [series.times.tolist(), *(series[name].tolist() for name in series.recorded)]
    text = _csv_text(["t", *series.recorded], columns)
    _emit("simulate", settings, text, settings.get("out"), started)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        basis = build_sector(args.spins, args.photons)
        params = ModelParams(g=args.coupling)
        operator = dynamics.sector_operator(basis, params, args.model)
    except ValueError as error:
        raise ConfigError(str(error)) from error
    eigensystem = spectra.eigendecompose(operator)
    analytic = np.sort(spectra.analytic_eigenvalues(args.spins, args.coupling, args.photons))
    numeric = eigensystem.eigenvalues
    deviation = (
        float(np.max(np.abs(numeric - analytic))) if numeric.size == analytic.size else None
    )
    report = {
        "spins": args.spins,
        "photons": args.photons,
        "coupling": args.coupling,
        "model": args.model,
        "eigenvalues_numeric": [float(v) for v in numeric],
        "eigenvalues_analytic": [float(v) for v in analytic],
        "max_deviation": deviation,
        "orthonormality_residual": eigensystem.orthonormality_residual(),
    }
    text = json.dumps(report, indent=2) + "\n"
    _emit("spectrum", vars(args) | {"handler": None}, text, args.out, started)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        ModelParams(g=args.coupling, omega=args.omega)
        # the parallel cavity and the collective one that gets all N n photons
        build_sector(1, args.photons)
        build_sector(args.spins, args.spins * args.photons)
    except ValueError as error:
        raise ConfigError(str(error)) from error
    report = analysis.compare_protocols(
        args.spins, args.photons, g=args.coupling, omega_a=args.omega
    )
    text = json.dumps(asdict(report), indent=2) + "\n"
    _emit("compare", vars(args) | {"handler": None}, text, args.out, started)
    return EXIT_OK


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def _check_ladder_eigenvalues() -> VerifyCheck:
    worst = 0.0
    g, n = 1.0, 9
    for N in range(1, 61):
        operator = dynamics.sector_operator(build_sector(N, max(n, N)), ModelParams(g=g), "large_n")
        numeric = spectra.eigendecompose(operator).eigenvalues
        analytic = np.sort(spectra.analytic_eigenvalues(N, g, max(n, N)))
        worst = max(worst, float(np.max(np.abs(numeric - analytic))) / (g * math.sqrt(max(n, N))))
    return VerifyCheck("ladder eigenvalues vs numeric (N <= 60)", worst, 1e-10)


def _check_analytic_eigenvectors() -> VerifyCheck:
    worst = 0.0
    for N in (1, 2, 3, 5, 8, 13, 21, 30, 40):
        vectors = spectra.analytic_eigenvectors(N)
        gram = vectors.T @ vectors
        worst = max(worst, float(np.max(np.abs(gram - np.eye(N + 1)))))
        operator = dynamics.sector_operator(build_sector(N, N), ModelParams(), "large_n").to_dense()
        ladder = spectra.analytic_eigenvalues(N, 1.0, N)
        residual = operator @ vectors - vectors * ladder[None, :]
        worst = max(worst, float(np.max(np.abs(residual))) / (math.sqrt(N) * N))
    return VerifyCheck("analytic eigenvectors (N <= 40)", worst, 1e-10)


def _check_brute_force_agreement() -> VerifyCheck:
    worst = 0.0
    params = ModelParams()
    rng = np.random.default_rng(20260814)
    for N, n in ((1, 1), (1, 5), (2, 3), (2, 8), (3, 4), (3, 12)):
        basis = build_sector(N, n)
        eigensystem = spectra.eigendecompose(dynamics.sector_operator(basis, params, "exact"))
        psi0 = initial_state(basis)
        times = rng.uniform(0.0, 4.0, size=5)
        for t, full in zip(times, oracle.brute_force_trajectory(N, n, params, times)):
            sector_amps = dynamics.evolve(psi0, eigensystem, float(t)).amplitudes
            reference = oracle.full_to_sector(full, basis)
            worst = max(worst, float(np.max(np.abs(sector_amps - reference))))
    return VerifyCheck("sector vs brute force (N <= 3)", worst, 1e-8)


def _check_unitarity() -> VerifyCheck:
    tau = analysis.universal_flip_time(10, 1.0, 100)
    config = SimulationConfig(
        N=10,
        n=100,
        params=ModelParams(),
        t_max=20.0 * tau,
        steps=10_001,
        model="exact",
        record=("norm",),
    )
    series = dynamics.run(config)
    drift = float(np.max(np.abs(series["norm"] - 1.0)))
    # run's all-rung populations come from the bidiagonal SVD of the
    # even-to-odd block (dbdsdc); the reference propagates the full
    # eigensystem (stemr), a second, independent LAPACK solver
    populations = dynamics._rung_populations(config, series.times)
    operator = dynamics.sector_operator(config.basis, config.params, config.model)
    mismatch = float(np.max(np.abs(populations - oracle.ladder_populations(operator, series.times))))
    return VerifyCheck(
        "norm drift and chiral populations vs reference (10^4 samples)",
        max(drift, mismatch),
        1e-10,
    )


def _check_large_n_rotation() -> VerifyCheck:
    # run's closed-form spin moments against the moments of the propagated ladder
    N, n = 2000, 10**6
    tau = analysis.universal_flip_time(N, 1.0, n)
    config = SimulationConfig(
        N=N, n=n, params=ModelParams(), t_max=2.0 * tau, steps=101, model="large_n"
    )
    series = dynamics.run(config)
    operator = dynamics.sector_operator(config.basis, config.params, "large_n")
    populations = oracle.ladder_populations(operator, series.times)
    moments = observables.spin_moments(populations, N)
    reference = {
        "W_over_capacity": moments.p,
        "fidelity": populations[N],
        "entropy_spin1": moments.entropy(),
        "concurrence": moments.concurrence(),
        "cos_theta": moments.cos_theta(),
        "norm": np.sqrt(populations.sum(axis=0)),
    }
    worst = max(float(np.max(np.abs(series[name] - column))) for name, column in reference.items())
    return VerifyCheck(f"large_n closed form vs reference (N = {N})", worst, 1e-10)


def _check_spectral_measure() -> VerifyCheck:
    # run's eigenvalue-only fidelity against the top rung of the reference
    N, n = 2000, 20000
    tau = analysis.universal_flip_time(N, 1.0, n)
    config = SimulationConfig(
        N=N,
        n=n,
        params=ModelParams(),
        t_max=2.0 * tau,
        steps=101,
        model="exact",
        record=("fidelity",),
    )
    series = dynamics.run(config)
    operator = dynamics.sector_operator(config.basis, config.params, config.model)
    reference = oracle.ladder_populations(operator, series.times)[N]
    worst = float(np.max(np.abs(series["fidelity"] - reference)))
    return VerifyCheck(f"spectral-measure fidelity vs reference (N = {N})", worst, 1e-10)


def _verification_checks() -> list[VerifyCheck]:
    return [
        _check_ladder_eigenvalues(),
        _check_analytic_eigenvectors(),
        _check_brute_force_agreement(),
        _check_unitarity(),
        _check_large_n_rotation(),
        _check_spectral_measure(),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _verification_checks()
    width = max(len(check.name) for check in checks)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name:<{width}}  residual {check.residual:12.5e}  tolerance {check.tolerance:8.1e}  {status}")
    failed = [check for check in checks if not check.passed]
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed")
        return EXIT_VERIFY_FAILED
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _parse_count_list(text: str) -> list[int]:
    """Grid spec: 'a:b' inclusive range with a <= b, 'x,y,z' list, single value, or empty."""
    text = text.strip()
    if not text:
        return []
    try:
        if ":" in text:
            low, high = (int(bound) for bound in text.split(":", 1))
            if high < low:
                raise ValueError("range end below its start")
            return list(range(low, high + 1))
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise ConfigError(f"bad grid spec {text!r}: {error}") from error


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.steps < 2:
        raise ConfigError(f"need at least 2 samples, got --steps {args.steps}")
    spins = _parse_count_list(args.spins)
    if args.photons is not None and args.photons_per_spin is not None:
        raise ConfigError("give either --photons or --photons-per-spin, not both")
    if args.photons is not None:
        photon_lists = {N: _parse_count_list(args.photons) for N in spins}
    elif args.photons_per_spin is not None:
        if not 0 < args.photons_per_spin < math.inf:
            raise ConfigError("--photons-per-spin must be positive and finite")
        try:
            photon_lists = {N: [int(round(args.photons_per_spin * N))] for N in spins}
        except OverflowError as error:
            raise ConfigError(f"--photons-per-spin {args.photons_per_spin}: {error}") from error
    else:
        raise ConfigError("sweep needs --photons or --photons-per-spin")
    points = [(N, n) for N in spins for n in photon_lists[N]]
    try:
        params = ModelParams(g=args.coupling)
        for N, n in points:
            build_sector(N, n)
    except ValueError as error:
        raise ConfigError(str(error)) from error
    flips = [analysis.flip_summary(N, n, params, args.model, args.steps, window=2.5)
             for N, n in points]
    header = ["N", "n", "tau_analytic", "tau_detected", "peak_fidelity", "power_ratio", "status"]
    columns = [
        [N for N, _ in points],
        [n for _, n in points],
        [flip.tau_analytic for flip in flips],
        [flip.tau_detected for flip in flips],
        [flip.peak_fidelity for flip in flips],
        [math.sqrt(N) for N, _ in points],
        [flip.status for flip in flips],
    ]
    _emit("sweep", vars(args) | {"handler": None}, _csv_text(header, columns), args.out, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-battery",
        description="Collective-charging simulator for a Dicke quantum battery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="charging run, CSV time series")
    simulate.add_argument("--config", help="flat key = value config file")
    for key in _SIMULATE_SETTINGS:
        _add_setting(simulate, key, resolve=False)
    simulate.set_defaults(handler=cmd_simulate)

    spectrum = commands.add_parser("spectrum", help="numeric vs analytic eigenvalues, JSON")
    for key in ("spins", "photons", "coupling"):
        _add_setting(spectrum, key)
    _add_setting(spectrum, "model", default="large-n")
    _add_setting(spectrum, "out")
    spectrum.set_defaults(handler=cmd_spectrum)

    compare = commands.add_parser("compare", help="parallel vs collective protocol, JSON")
    _add_setting(compare, "spins")
    _add_setting(compare, "photons", text="photons per parallel cavity")
    _add_setting(compare, "coupling")
    compare.add_argument("--omega", type=float, default=1.0, help="energy per excitation (default 1.0)")
    _add_setting(compare, "out")
    compare.set_defaults(handler=cmd_compare)

    verify = commands.add_parser("verify", help="built-in correctness battery")
    verify.set_defaults(handler=cmd_verify)

    sweep = commands.add_parser("sweep", help="grid of charging runs, CSV summary")
    sweep.add_argument("--spins", required=True, help="grid spec: a:b, x,y,z, or single")
    sweep.add_argument("--photons", help="photon grid spec (cartesian with spins)")
    sweep.add_argument("--photons-per-spin", type=float, dest="photons_per_spin",
                       help="set n = value * N per grid point")
    for key in ("coupling", "model", "steps", "out"):
        _add_setting(sweep, key)
    sweep.set_defaults(handler=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as error:  # CLI boundary: anything else is a runtime failure
        print(f"error: {error}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

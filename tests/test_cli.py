import argparse
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dicke_battery import cli, dynamics
from dicke_battery.operators import ModelParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_stdout_csv(capsys):
    code, out, err = run_cli(
        capsys,
        ["simulate", "--spins", "2", "--photons", "8", "--t-max", "1.0", "--steps", "5"],
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "t,W_over_capacity,fidelity,entropy_spin1,concurrence,cos_theta,excitation,norm"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.0, abs=1e-15)  # discharged at t = 0


def test_simulate_observable_subset_and_float_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--spins", "1", "--photons", "4", "--t-max", "2.0", "--steps", "9",
         "--observables", "fidelity", "--model", "large-n"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,fidelity"
    t, fidelity = (float(cell) for cell in lines[-1].split(","))
    assert t == 2.0
    # shortest-round-trip floats: the printed cell reproduces sin^2(2t)^1 exactly
    assert fidelity == pytest.approx(math.sin(2 * t) ** 2, abs=1e-12)


def test_simulate_file_output_is_deterministic(tmp_path, capsys):
    args = ["simulate", "--spins", "3", "--photons", "12", "--t-max", "1.5",
            "--steps", "40", "--out", str(tmp_path / "run.csv")]
    assert cli.main(args) == 0
    first = (tmp_path / "run.csv").read_bytes()
    assert cli.main(args) == 0
    assert (tmp_path / "run.csv").read_bytes() == first
    capsys.readouterr()


def test_simulate_writes_manifest(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--spins", "2", "--photons", "5", "--t-max", "1.0",
                     "--steps", "10", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == [str(out)]
    assert manifest["parameters"]["spins"] == 2
    assert manifest["parameters"]["t_off"] == "inf"
    assert manifest["wall_clock_seconds"] >= 0.0
    assert "tool_version" in manifest
    capsys.readouterr()


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# charging recipe\nspins = 2\nphotons = 4\nt_max = 1.0\nsteps = 6\n"
        "observables = norm,fidelity\n"
    )
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(config), "--photons", "9"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,fidelity,norm"
    assert len(lines) == 7
    # the photon override changes the dynamics relative to the config value
    code, other, _ = run_cli(capsys, ["simulate", "--config", str(config)])
    assert code == 0
    assert other != out


@pytest.mark.parametrize(
    "recipe", sorted(path.name for path in CONFIG_DIR.glob("*.cfg"))
)
def test_shipped_recipes_run(tmp_path, capsys, recipe):
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", "--config", str(CONFIG_DIR / recipe), "--out", str(out)])
    assert code == 0
    assert out.read_text().count("\n") == 2001
    capsys.readouterr()


def test_simulate_missing_required_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--spins", "2", "--photons", "4"])
    assert code == 2
    assert "t_max" in err


def test_simulate_bad_config_lines(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("spins 2\n")
    assert run_cli(capsys, ["simulate", "--config", str(bad)])[0] == 2
    bad.write_text("volume = 11\n")
    assert run_cli(capsys, ["simulate", "--config", str(bad)])[0] == 2
    bad.write_text("spins = two\n")
    assert run_cli(capsys, ["simulate", "--config", str(bad)])[0] == 2
    assert run_cli(capsys, ["simulate", "--config", str(tmp_path / "absent.cfg")])[0] == 2


def test_simulate_rejects_starved_large_n(capsys):
    code, _, err = run_cli(
        capsys,
        ["simulate", "--spins", "5", "--photons", "3", "--t-max", "1.0", "--model", "large-n"],
    )
    assert code == 2
    assert "n >= N" in err


def test_simulate_large_n_at_rest_and_at_flip_is_warning_free(capsys):
    # t = 0 and tau put zero in the closed form's logarithms
    tau = math.pi / (2 * math.sqrt(100))
    argv = [
        "simulate", "--spins", "7", "--photons", "100", "--t-max", repr(tau),
        "--steps", "2", "--model", "large-n",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, argv)
    assert code == 0
    header, start, flip = (line.split(",") for line in out.strip().split("\n"))
    rows = [dict(zip(header, map(float, row))) for row in (start, flip)]
    assert rows[1]["t"] == tau
    for row, charged in zip(rows, (0.0, 1.0)):
        assert row["W_over_capacity"] == row["fidelity"] == charged
        assert row["entropy_spin1"] == row["concurrence"] == 0.0
        assert row["norm"] == 1.0


def test_simulate_invalid_physics_is_config_error(capsys):
    code, _, _ = run_cli(
        capsys,
        ["simulate", "--spins", "0", "--photons", "3", "--t-max", "1.0"],
    )
    assert code == 2


def test_spectrum_stdout(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--spins", "3", "--photons", "9", "--model", "large-n"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["eigenvalues_analytic"] == sorted(report["eigenvalues_analytic"])
    assert len(report["eigenvalues_numeric"]) == 4
    assert report["max_deviation"] < 1e-12
    assert report["orthonormality_residual"] < 1e-13
    np.testing.assert_allclose(report["eigenvalues_analytic"], [-9.0, -3.0, 3.0, 9.0])


def test_spectrum_starved_sector_has_no_ladder_match(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--spins", "4", "--photons", "2", "--model", "exact"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["eigenvalues_numeric"]) == 3  # K + 1 = min(N, n) + 1
    assert report["max_deviation"] is None


def test_spectrum_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    assert cli.main(["spectrum", "--spins", "2", "--photons", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["spins"] == 2
    assert (tmp_path / "spectrum.json.manifest.json").exists()
    capsys.readouterr()


def test_compare_reports_sqrt_n_advantage(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--spins", "9", "--photons", "49"])
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == pytest.approx(3.0, rel=1e-12)
    assert report["tau_collective"] == pytest.approx(report["tau_parallel"] / 3.0, rel=1e-12)
    assert report["P_collective"] == pytest.approx(3.0 * report["P_parallel"], rel=1e-12)
    assert report["fidelity_at_tau"] > 0.99


def test_compare_validation(capsys):
    assert run_cli(capsys, ["compare", "--spins", "0", "--photons", "4"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["compare", "--spins", "4", "--photons", "100", "--coupling", "0"],
    ["compare", "--spins", "4", "--photons", "100", "--omega", "-1"],
    ["sweep", "--spins", "2", "--photons", "10", "--coupling", "0"],
    ["compare", "--spins", "20000", "--photons", "1"],  # collective ladder over the limit
    ["simulate", "--spins", "2", "--photons", "4", "--t-max", "inf", "--steps", "3"],
    ["simulate", "--spins", "2", "--photons", "4", "--t-max", "1", "--coupling", "inf"],
    ["spectrum", "--spins", "2", "--photons", "4", "--coupling", "inf"],
    ["compare", "--spins", "2", "--photons", "4", "--coupling", "inf"],
    ["sweep", "--spins", "2", "--photons", "4", "--coupling", "inf"],
    ["compare", "--spins", "2", "--photons", "4", "--omega", "inf"],
    ["sweep", "--spins", "2", "--photons-per-spin", "inf"],
    # a reversed range is a typo, not an empty grid
    ["sweep", "--spins", "5:3", "--photons", "10"],
    ["sweep", "--spins", "3", "--photons", "5:4"],
])
def test_bad_physics_flags_are_usage_errors(capsys, monkeypatch, argv):
    # rejected before anything runs
    def not_reached(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli.analysis, "run", not_reached)
    monkeypatch.setattr(cli.dynamics, "run", not_reached)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--spins", "2", "--photons", "4", "--t-max", "1", "--out", ""],
    ["spectrum", "--spins", "2", "--photons", "4", "--out", ""],
    ["compare", "--spins", "2", "--photons", "4", "--out", ""],
    ["sweep", "--spins", "2", "--photons", "4", "--out", ""],
    ["simulate", "--config", "{config}"],
])
def test_empty_output_path_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # an empty path names no file; it is refused before anything runs
    def not_reached(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli.analysis, "run", not_reached)
    monkeypatch.setattr(cli.dynamics, "run", not_reached)
    monkeypatch.setattr(cli.spectra, "eigendecompose", not_reached)
    config = tmp_path / "run.cfg"
    config.write_text("spins = 2\nphotons = 4\nt_max = 1.0\nout =\n")
    try:
        code = cli.main([item.format(config=config) for item in argv])
    except SystemExit as stopped:  # argparse refuses a bad flag value itself
        code = stopped.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "out" in err


@pytest.mark.parametrize("command", ["simulate", "spectrum", "compare", "sweep"])
def test_help_describes_every_flag(capsys, command):
    with pytest.raises(SystemExit) as stopped:
        cli.main([command, "--help"])
    assert stopped.value.code == 0
    # argparse wraps long help lines, so compare with all whitespace removed
    shown = "".join(capsys.readouterr().out.split())
    subparsers = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for action in subparsers.choices[command]._actions:
        assert action.help, f"{command} {action.option_strings} has no help text"
        assert "".join(action.help.split()) in shown


def test_verify_passes_end_to_end(capsys):
    checks = 6
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == f"all {checks} checks passed"
    assert sum(1 for line in lines if line.endswith("PASS")) == checks
    assert not any("FAIL" in line for line in lines)


def test_verify_reports_corruption(capsys, monkeypatch):
    # poison one analytic route at a time; the battery must notice and exit non-zero
    true_values = cli.spectra.analytic_eigenvalues

    def skewed(N, g, n):
        return true_values(N, g, n) * 1.001

    def off_by_one(N):
        # the three-term recursion with its k = 3 coefficient one too large
        table = [[1] * (N + 1), [N - 2 * xi for xi in range(N + 1)]]
        for k in range(2, N + 1):
            coefficient = (k - 1) * (N - k + 2) + (k == 3)
            table.append([(N - 2 * xi) * table[k - 1][xi] - coefficient * table[k - 2][xi]
                          for xi in range(N + 1)])
        return table[: N + 1]

    for name, poison, caught_by in (
        ("analytic_eigenvalues", skewed, "ladder eigenvalues"),
        ("pseudo_hermite_family", off_by_one, "analytic eigenvectors"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(cli.spectra, name, poison)
            code, out, _ = run_cli(capsys, ["verify"])
        assert code == 1
        failed = [line for line in out.split("\n") if line.endswith("FAIL")]
        assert any(line.startswith(caught_by) for line in failed)
        assert "checks failed" in out.strip().split("\n")[-1]


def test_sweep_grid_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--spins", "1:3", "--photons", "100", "--model", "large-n",
                     "--steps", "1200", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,n,tau_analytic,tau_detected,peak_fidelity,power_ratio,status"
    assert len(lines) == 4
    tau = math.pi / 20
    for N, line in zip((1, 2, 3), lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == N and int(cells[1]) == 100
        assert float(cells[2]) == pytest.approx(tau, rel=1e-12)
        assert float(cells[3]) == pytest.approx(tau, rel=1e-5)
        assert float(cells[4]) == pytest.approx(1.0, abs=1e-6)
        assert float(cells[5]) == pytest.approx(math.sqrt(N), rel=1e-12)
        assert cells[6] == "ok"
    capsys.readouterr()


def test_sweep_output_is_deterministic(tmp_path, capsys):
    args = ["sweep", "--spins", "1,3,5", "--photons", "30,60", "--steps", "900",
            "--out", str(tmp_path / "sweep.csv")]
    assert cli.main(args) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    assert cli.main(args) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    assert first.decode().count("\n") == 7
    capsys.readouterr()


def test_sweep_photons_per_spin(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--spins", "2,8", "--photons-per-spin", "50", "--model", "large-n",
         "--steps", "1500"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(2, 100), (8, 400)]
    # equal photons per spin: the collective flip accelerates as sqrt(N n)
    assert float(rows[1][3]) < float(rows[0][3])


def test_sweep_collective_budget_tracks_theory(capsys):
    # n = 100 N per point: detected flips within 1% of pi / (2 sqrt(100 N))
    code, out, _ = run_cli(
        capsys, ["sweep", "--spins", "1:10", "--photons-per-spin", "100", "--steps", "2000"]
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        N, n = int(cells[0]), int(cells[1])
        assert n == 100 * N
        expected = math.pi / (2 * math.sqrt(100 * N))
        assert abs(float(cells[3]) / expected - 1.0) < 0.01
        assert cells[6] == "ok"


def read_columns(text, parse):
    """Header and parsed columns of a CSV text; parse(i, cell) types column i."""
    lines = text.split("\n")[:-1]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, [[parse(i, row[i]) for row in rows] for i in range(len(header))]


def test_csv_round_trip_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--spins", "2", "--photons", "7", "--t-max", "2.0",
                     "--steps", "31", "--out", str(out)]) == 0
    text = out.read_text()
    header, columns = read_columns(text, lambda i, cell: float(cell))
    assert cli._csv_text(header, columns) == text

    sweep_out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spins", "1:3", "--photons", "2", "--steps", "400",
                     "--out", str(sweep_out)]) == 0
    text = sweep_out.read_text()
    assert ",,," in text  # the unreachable row's empty measured fields

    def parse(i, cell):
        if i < 2:
            return int(cell)
        if cell == "":
            return None
        return cell if i == 6 else float(cell)

    header, columns = read_columns(text, parse)
    assert cli._csv_text(header, columns) == text
    capsys.readouterr()


def test_csv_cells_are_pinned():
    columns = [
        [None, "ok", 0, -7, 120],
        [0.1, -0.0, 5e-324, 1e16, 1.0084704282312733e-32],
    ]
    assert cli._csv_text(["a", "b"], columns) == (
        "a,b\n"
        ",0.1\n"
        "ok,-0.0\n"
        "0,5e-324\n"
        "-7,1e+16\n"
        "120,1.0084704282312733e-32\n"
    )


def test_simulate_csv_is_lossless(tmp_path, capsys):
    # every printed float parses back to the bit pattern dynamics.run computed
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--spins", "6", "--photons", "8", "--coupling", "0.7",
                     "--t-max", "3.0", "--steps", "200", "--out", str(out)]) == 0
    header, columns = read_columns(out.read_text(), lambda i, cell: float(cell))
    series = dynamics.run(dynamics.SimulationConfig(
        N=6, n=8, params=ModelParams(g=0.7), t_max=3.0, steps=200))
    assert header == ["t", *series.recorded]
    expected = [series.times, *(series[name] for name in series.recorded)]
    for parsed, column in zip(columns, expected):
        assert np.array_equal(np.array(parsed).view(np.uint64), column.view(np.uint64))
    capsys.readouterr()


def test_sweep_starved_point_reports_peak_without_flip(capsys):
    # one photon per spin: the flip stays partial, the best fidelity is reported
    code, out, _ = run_cli(capsys, ["sweep", "--spins", "30", "--photons", "30"])
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    assert cells[6] == "partial"
    assert float(cells[4]) == pytest.approx(0.32, abs=0.01)
    assert 0.0 < float(cells[3]) < 2.5 * float(cells[2])


def test_sweep_marks_unreachable_points(capsys):
    # full charge needs n >= N; N = 3 with 2 photons is not simulated
    code, out, err = run_cli(capsys, ["sweep", "--spins", "1:3", "--photons", "2"])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[6] for row in rows] == ["ok", "ok", "unreachable"]
    assert rows[2][3] == "" and rows[2][4] == ""
    assert float(rows[2][2]) == pytest.approx(math.pi / (2 * math.sqrt(2)), rel=1e-12)
    assert float(rows[2][5]) == pytest.approx(math.sqrt(3), rel=1e-12)
    code, out, _ = run_cli(capsys, ["sweep", "--spins", "4", "--photons", "2", "--steps", "300"])
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[6] == "unreachable"


def test_sweep_unreachable_large_n_point_exits_zero(capsys):
    # large-n needs n >= N: the only grid point is unreachable, not an error
    code, out, err = run_cli(
        capsys, ["sweep", "--spins", "5", "--photons", "3", "--model", "large-n"]
    )
    assert code == 0 and err == ""
    cells = out.strip().split("\n")[1].split(",")
    assert cells[6] == "unreachable"
    assert cells[3] == "" and cells[4] == ""


def test_sweep_mixes_reachable_and_unreachable_points(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--spins", "2,5", "--photons", "3", "--model", "large-n",
         "--steps", "600"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1].split(",")[6] == "ok"
    assert lines[2].split(",")[6] == "unreachable"


def test_sweep_runtime_error_exits_three(capsys, monkeypatch):
    # no per-point catch: a failing run aborts the sweep with a runtime error
    def broken(config):
        raise RuntimeError("eigensolver diverged")

    monkeypatch.setattr(cli.analysis, "run", broken)
    code, out, err = run_cli(capsys, ["sweep", "--spins", "2", "--photons", "9"])
    assert code == 3
    assert out == ""
    assert "eigensolver diverged" in err


def test_simulate_exits_three_when_the_bidiagonal_svd_fails(capsys, monkeypatch):
    def failing_dbdsdc(*args):
        args[-1].contents.value = 4  # info > 0: a singular value did not converge

    monkeypatch.setattr(cli.spectra, "_dbdsdc", lambda: failing_dbdsdc)
    code, out, err = run_cli(
        capsys, ["simulate", "--spins", "3", "--photons", "8", "--t-max", "1", "--steps", "5"]
    )
    assert code == 3
    assert out == ""
    assert "dbdsdc info 4" in err


def test_sweep_flag_validation(capsys):
    assert run_cli(capsys, ["sweep", "--spins", "2", "--photons", "4",
                            "--photons-per-spin", "4"])[0] == 2
    assert run_cli(capsys, ["sweep", "--spins", "2"])[0] == 2
    assert run_cli(capsys, ["sweep", "--spins", "2", "--photons", "4", "--steps", "1"])[0] == 2
    assert run_cli(capsys, ["sweep", "--spins", "2:x", "--photons", "4"])[0] == 2


@pytest.mark.parametrize("grid", [
    ["--spins", "0,2", "--photons", "4"],
    ["--spins", "2", "--photons-per-spin", "0.1"],
    ["--spins", "2", "--photons", "0"],
])
def test_sweep_zero_sized_point_is_usage_error(capsys, monkeypatch, grid):
    # the whole grid is checked before any point runs
    def not_reached(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(cli.analysis, "flip_summary", not_reached)
    code, out, err = run_cli(capsys, ["sweep", *grid])
    assert code == 2
    assert out == ""
    assert "need N >= 1 and n >= 1" in err


def test_sweep_empty_grid_emits_header_only(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--spins", "", "--photons", "4"])
    assert code == 0
    assert out == "N,n,tau_analytic,tau_detected,peak_fidelity,power_ratio,status\n"


def test_unknown_model_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--spins", "2", "--photons", "4", "--t-max", "1.0",
                  "--model", "bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--spins", "3", "--photons", "9", "--t-max", "0.8", "--steps", "7"],
    ["spectrum", "--spins", "3", "--photons", "9"],
    ["sweep", "--spins", "1:3", "--photons", "100", "--steps", "600"],
])
def test_model_flag_takes_every_spelling(capsys, argv):
    outputs = {}
    for spelling in ("large-n", "large_n"):
        code, outputs[spelling], _ = run_cli(capsys, [*argv, "--model", spelling])
        assert code == 0
    assert outputs["large_n"] == outputs["large-n"]


def test_config_file_and_flags_give_the_same_run(tmp_path, capsys):
    values = {
        "spins": "3", "photons": "40", "coupling": "0.8", "model": "large_n",
        "t_max": "0.4", "steps": "25", "t_off": "0.3", "observables": "norm,fidelity,concurrence",
    }
    assert set(values) | {"out"} == set(cli._SIMULATE_SETTINGS)
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items())
                      + f"out = {tmp_path / 'from_config.csv'}\n")
    assert cli.main(["simulate", "--config", str(config)]) == 0
    flags = [item for key, value in values.items() for item in (f"--{key.replace('_', '-')}", value)]
    assert cli.main(["simulate", *flags, "--out", str(tmp_path / "from_flags.csv")]) == 0
    csv = {name: (tmp_path / f"{name}.csv").read_bytes() for name in ("from_config", "from_flags")}
    assert csv["from_config"] == csv["from_flags"]
    assert csv["from_flags"].startswith(b"t,fidelity,concurrence,norm\n")
    parameters = [
        json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())["parameters"]
        for name in ("from_config", "from_flags")
    ]
    for manifest in parameters:
        del manifest["out"]
    assert parameters[0] == parameters[1]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--spins", "2", "--photons", "4", "--model", "bogus"],
    ["sweep", "--spins", "2", "--photons", "4", "--model", "bogus"],
])
def test_unknown_model_flag_is_usage_error_everywhere(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "argument --model" in capsys.readouterr().err


def test_unknown_model_config_value_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("spins = 2\nphotons = 4\nt_max = 1.0\nmodel = bogus\n")
    code, out, err = run_cli(capsys, ["simulate", "--config", str(config)])
    assert code == 2
    assert out == ""
    assert "unknown model 'bogus'" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert "dicke-battery" in capsys.readouterr().out

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fluidhit.numerics
from fluidhit import harmonic_number
from fluidhit.cli import _COMMAND_FLAGS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_named_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--chain", "classical")
    assert code == 0
    assert out.startswith("OK: 2 states")


def test_validate_file_ok(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"states": 2, "P": [[1, 0], [1, 0]]}')
    code, out, _ = run_cli(capsys, "validate", "--chain", str(path))
    assert code == 0
    assert "OK" in out


def test_validate_domain_failure_names_row(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"states": 2, "P": [[1, 0], [0.5, 0.6]]}')
    code, _, err = run_cli(capsys, "validate", "--chain", str(path))
    assert code == 1
    assert "row 1" in err


def test_validate_rejects_nan_entries(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"states": 2, "P": [[1, 0], [NaN, NaN]]}')
    code, out, err = run_cli(capsys, "validate", "--chain", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("FAIL: row 1")
    assert "not finite" in err


def test_validate_parse_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "validate", "--chain", str(path))
    assert code == 2


def test_validate_missing_file(capsys):
    code, _, _ = run_cli(capsys, "validate", "--chain", "/nonexistent/x.json")
    assert code == 2


def test_analyze_refuses_nan_alpha(tmp_path, capsys):
    # json.load reads NaN; it used to pass validation and fail later, with a
    # numpy warning and a message about occupancy counts.
    path = tmp_path / "nan-alpha.json"
    path.write_text('{"states": 3, "P": [[1, 0, 0], [1, 0, 0], [0, 1, 0]], "alpha": [NaN, 1.0]}')
    code, _, err = run_cli(capsys, "analyze", "--chain", str(path), "--N", "10")
    assert code == 2
    assert "alpha entries must be finite" in err


def test_analyze_classical_theorem1(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--chain", "classical", "--N", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem1"]["value"] == pytest.approx(760.517, abs=1e-3)
    assert payload["exact"]["value"] == pytest.approx(100 * harmonic_number(100))


def test_analyze_tstage3_spectral(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--chain", "tstage:3", "--N", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"]["value"] == pytest.approx(1.0)
    assert payload["k"]["value"] == 2


def test_analyze_fig3b_exact(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--chain", "fig3b:2", "--N", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"]["value"] == pytest.approx(50 * 2 * harmonic_number(50))


def test_analyze_triangular_chain_makes_no_dense_lu(capsys, monkeypatch):
    # fig3a(40, 2) has 1,601 transient states that only count down, so -Q is
    # triangular: W and the mean jump count come by substitution.
    def refuse(*args, **kwargs):
        raise AssertionError("dense LU factorization of a triangular -Q")

    monkeypatch.setattr(fluidhit.numerics, "lu_factor", refuse)
    code, out, _ = run_cli(capsys, "analyze", "--chain", "fig3a:40,2", "--N", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem1"]["value"] >= payload["lower_fig3a"]["value"]


def test_analyze_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--chain", "classical", "--N", "10", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance,N,exact,theorem1")
    assert len(lines) == 2


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--chain", "classical", "--N", "20", "--runs", "100",
            "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["runs"] == 100
    assert payload["seed"] == 7
    assert "exact_mean" in payload


def test_simulate_single_run_null_stderr(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--chain", "classical", "--N", "5", "--runs", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stderr"] is None
    assert payload["ci95"] is None


@pytest.mark.parametrize(
    "command, flags",
    [("analyze", ()), ("simulate", ("--runs", "10")), ("trajectory", ("--samples", "1"))],
    ids=["analyze", "simulate", "trajectory"],
)
def test_simulate_fig3a_population_mismatch(capsys, command, flags):
    code, _, err = run_cli(
        capsys, command, "--chain", "fig3a:10,2", "--N", "20", *flags
    )
    assert code == 1
    assert "N = 10" in err


_REPORT_ARGS = ("--N", "10", "--format", "json", "--out", "x", "--estimate-gamma")

# Each subcommand's flags besides --chain, given with a value each, and one
# flag the subcommand does not read.
_COMMAND_ARGS = {
    "validate": ((), ("--N", "5")),
    "gen": (("--out", "x"), ("--seed", "1")),
    "analyze": (_REPORT_ARGS, ("--k-override", "2")),
    "simulate": (("--N", "10", "--runs", "2", "--seed", "3", "--out", "x"), ("--format", "csv")),
    "compare": (_REPORT_ARGS + ("--N-list", "10,20", "--runs", "2", "--seed", "3"),
                ("--samples", "2")),
    "trajectory": (("--N", "10", "--samples", "2", "--grid", "5:10", "--seed", "3",
                    "--out", "x"), ("--runs", "2")),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_each_command_takes_only_the_flags_it_reads(capsys, command):
    reads, unread = _COMMAND_ARGS[command]
    args = vars(build_parser().parse_args([command, "--chain", "classical", *reads]))
    # Besides command and chain_source, the namespace holds the flags given.
    assert len(args) - 2 == sum(arg.startswith("--") for arg in reads)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--chain", "classical", *unread])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Subcommand | Flags besides `--chain` |\n|---|---|\n", 1)[1]
    listed = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        command, flags = (cell.strip(" `") for cell in row.strip("|").split("|"))
        inherited = listed["analyze"] if flags.startswith("analyze's") else ()
        listed[command] = inherited + tuple(re.findall(r"--[\w-]+", flags))
    assert listed == _COMMAND_FLAGS


def test_json_chain_has_no_reference_values(tmp_path, capsys):
    # The fig3b:2 matrix read from a file: a chain without a closed form.
    path = tmp_path / "exit-half.json"
    path.write_text('{"states": 2, "P": [[1, 0], [0.5, 0.5]], "alpha": [1]}')
    code, out, _ = run_cli(capsys, "analyze", "--chain", str(path), "--N", "20")
    assert code == 0
    report = json.loads(out)
    assert report["instance"]["name"] == str(path)
    assert "exact" not in report
    assert not any(key.startswith("lower_") for key in report)
    code, out, _ = run_cli(
        capsys, "simulate", "--chain", str(path), "--N", "20", "--runs", "50"
    )
    assert code == 0
    payload = json.loads(out)
    assert "exact_mean" not in payload and "relative_error" not in payload


def test_compare_header_and_trend(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--chain", "classical", "--N-list", "10,50",
        "--runs", "400", "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "name,N,runs,seed,sim_mean,sim_stderr,sim_ci95,exact,theorem1,"
        "theorem2_asymptotic,theorem3,theorem4,lower_bound,within_bands"
    )
    assert len(lines) == 3
    row10 = lines[1].split(",")
    row50 = lines[2].split(",")
    assert row10[-1] == "True" and row50[-1] == "True"
    # simulated/(N ln N) approaches 1 from above as N grows
    ratio10 = float(row10[4]) / (10 * math.log(10))
    ratio50 = float(row50[4]) / (50 * math.log(50))
    assert ratio50 < ratio10


def test_compare_fig3b_within_ci(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--chain", "fig3b:3", "--N-list", "10,20",
        "--runs", "2000", "--seed", "5",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        mean, ci95, exact = float(cells[4]), float(cells[6]), float(cells[7])
        assert abs(mean - exact) <= 3 * ci95


def test_compare_fig3a_regenerates_per_population(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--chain", "fig3a:10,2", "--N-list", "10,20",
        "--runs", "300", "--seed", "9",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    names = [row[0] for row in rows[1:]]
    assert names == ["fig3a:10,2", "fig3a:20,2"]
    assert all(row[-1] == "True" for row in rows[1:])


def test_compare_single_run_has_no_band_to_violate(capsys):
    # One completed run has no standard error, and a single sample above a
    # bound on the mean is no violation: within_bands is empty, exit 0.
    for seed in range(41):
        code, out, err = run_cli(
            capsys, "compare", "--chain", "classical", "--N-list", "100",
            "--runs", "1", "--seed", str(seed),
        )
        assert code == 0, err
        row = list(csv.reader(io.StringIO(out)))[1]
        assert row[5] == "" and row[-1] == ""
    code, out, _ = run_cli(
        capsys, "compare", "--chain", "classical", "--N-list", "100",
        "--runs", "1", "--seed", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["within_bands"] is None


def test_trajectory_files(tmp_path, capsys):
    out_base = tmp_path / "traj"
    code, _, _ = run_cli(
        capsys, "trajectory", "--chain", "classical", "--N", "20",
        "--samples", "2", "--seed", "11", "--grid", "5:50",
        "--out", str(out_base),
    )
    assert code == 0
    fluid_lines = (tmp_path / "traj.fluid.csv").read_text().strip().splitlines()
    assert fluid_lines[0] == "t,fluid_m0,level"
    first = fluid_lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1 - 1 / 20)
    sim_lines = (tmp_path / "traj.samples.csv").read_text().strip().splitlines()
    assert sim_lines[0] == "run,t,fraction_absorbed"
    runs = {line.split(",")[0] for line in sim_lines[1:]}
    assert runs == {"0", "1"}


def test_trajectory_stdout_streams(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "--chain", "classical", "--N", "10",
        "--grid", "3:10",
    )
    assert code == 0
    assert "# fluid" in out
    assert "# samples" in out


@pytest.mark.parametrize("tmax", ["inf", "nan"])
def test_trajectory_rejects_non_finite_grid(capsys, tmax):
    with pytest.raises(SystemExit) as exc:
        main(["trajectory", "--chain", "classical", "--N", "10", "--grid", f"{tmax}:4"])
    assert exc.value.code == 2
    assert "bad grid" in capsys.readouterr().err


def test_gen_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "tstage.json"
    code, _, _ = run_cli(
        capsys, "gen", "--chain", "tstage:3", "--out", str(spec_path)
    )
    assert code == 0
    spec = json.loads(spec_path.read_text())
    assert spec["states"] == 4
    assert "P" in spec
    code2, out, _ = run_cli(capsys, "validate", "--chain", str(spec_path))
    assert code2 == 0


def test_gen_sparse_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "fig3a.json"
    code, _, _ = run_cli(
        capsys, "gen", "--chain", "fig3a:10,2", "--out", str(spec_path)
    )
    assert code == 0
    spec = json.loads(spec_path.read_text())
    assert spec["states"] == 102
    assert "P_sparse" in spec
    code2, _, _ = run_cli(capsys, "validate", "--chain", str(spec_path))
    assert code2 == 0


def test_gen_requires_named(capsys):
    code, _, _ = run_cli(capsys, "gen", "--chain", "/tmp/whatever.json")
    assert code == 1


def test_analyze_estimate_gamma(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--chain", "classical", "--N", "100",
        "--estimate-gamma",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"]["value"] == pytest.approx(1.0, rel=0.05)
    assert payload["tn_asymptotic"]["value"] == pytest.approx(
        math.log(100), rel=0.05
    )


def test_analyze_gamma_fit_past_the_float_range(capsys):
    # k = 100: (t^k e^{-nu t})^2 overflows in the fit window, and the note
    # says so instead of reporting a fitted gamma of 0.
    code, out, err = run_cli(
        capsys, "analyze", "--chain", "fig3a:10,2", "--N", "10", "--estimate-gamma",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["k"]["value"] == 100
    assert "float range" in payload["notes"]["gamma"]


def test_json_outputs_round_trip_sorted(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--chain", "fig3b:2", "--N", "10")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_import_loads_no_optimize_or_integrate():
    # Each of scipy's optimize, integrate, special and stats adds tens of
    # milliseconds to a second to every CLI start; the simulator runs in
    # one process, so multiprocessing has no use.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, fluidhit; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'integrate'], "
        "['scipy', 'special'], ['scipy', 'stats']) "
        "or m.split('.')[0] == 'multiprocessing'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_trajectory_refuses_a_huge_finite_grid_at_once():
    # The fluid curve at t = 2.5e307 would need about 2.6e307 series terms.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["trajectory", "--chain", "classical", "--N", "10", "--grid", "1e308:4"]
    done = subprocess.run(
        [sys.executable, "-m", "fluidhit.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 1
    assert "term budget" in done.stderr

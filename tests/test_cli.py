import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import phonocool
from phonocool import (SystemParams, cooling_ratio, occupancy, phonon_spectrum,
                       plane_wave, save_mode_field)
from phonocool.cli import COMMANDS, CliError, RunConfig, main, run
from phonocool.core import _write_json


def invoke(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def test_cooling_ratio_uncoupled_prints_one(capsys):
    code, out = invoke(["cooling-ratio", "--mode", "1", "--g1", "0", "--g2", "0",
                     "--gamma1", "0.01", "--gamma2", "0.01", "--nbar1", "5"],
                    capsys)
    assert code == 0
    assert "R=1.000" in out.out


def test_spectrum_reproduces_library_values(tmp_path):
    out = tmp_path / "blue.csv"
    code = invoke(["spectrum", "--mode", "1", "--g1", "0.3", "--g2", "0.5",
                "--gamma1", "0.01", "--gamma2", "0.01", "--omega", "0.1",
                "--delta", "0", "--nbar1", "100", "--normalized",
                "--count", "101", "--output", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",")
    p = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.01, gamma2=0.01,
                     g1=0.3, g2=0.5, nbar1=100.0)
    ref = phonon_spectrum(p, 1, np.linspace(-1.5, 1.5, 101),
                          normalized=True).values
    assert np.allclose(data[:, 1], ref, rtol=1e-15)
    meta = json.loads((tmp_path / "blue.csv.meta.json").read_text())
    assert meta["command"] == "spectrum"
    assert meta["config"]["normalized"] is True


def test_validation_failure_exits_one(capsys):
    code, out = invoke(["cooling-ratio", "--gamma1=-0.01", "--nbar1", "1"], capsys)
    assert code == 1
    assert "gamma1" in out.err
    assert out.err.count("\n") == 1  # single-line diagnostic


def test_numerical_failure_exits_two(tmp_path, capsys):
    # gamma1 = 0 with a grid point exactly on the resonance pole
    out = tmp_path / "sing.csv"
    code, cap = invoke(["spectrum", "--gamma1", "0", "--gamma2", "0.01",
                     "--omega", "0.5", "--count", "5",
                     "--omega-min=-1", "--omega-max", "1",
                     "--output", str(out)], capsys)
    assert code == 2
    assert "pole" in cap.err


def test_unknown_flag_exits_one(capsys):
    code, cap = invoke(["cooling-ratio", "--no-such-flag", "1"], capsys)
    assert code == 1
    assert cap.err.strip()


def test_sweep_tracks_paper_values(tmp_path):
    out = tmp_path / "sweep.csv"
    code = invoke(["sweep", "--axis", "g2", "--from", "0", "--to", "0.6",
                "--count", "25", "--metric", "cooling-ratio:1",
                "--g1", "0.3", "--gamma1", "0.01", "--gamma2", "0.01",
                "--omega", "0.1", "--nbar1", "100", "--output", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (25, 2)
    assert data[0, 1] == pytest.approx(0.110, abs=0.02)
    g2_half = np.argmin(np.abs(data[:, 0] - 0.5))
    assert data[g2_half, 1] == pytest.approx(0.288, abs=0.02)
    assert np.all(np.diff(data[:, 1]) > 0)  # reheating grows with g2


# cooling-ratio:1 over g2 in [0, 0.6] at 25 points, as computed by adaptive
# quadrature of the spectrum before occupancies came from the Lyapunov solve
QUADRATURE_SWEEP = [
    0.10978356674174908, 0.11104617695124644, 0.11427038979786694,
    0.11839738946522674, 0.12273225266392196, 0.12708249316861336,
    0.13153345610234882, 0.13626497474434687, 0.14147012973762305,
    0.1473298784987963, 0.15400814979391186, 0.16165206449719033,
    0.17039216156813808, 0.18034141340144486, 0.1915930982411795,
    0.20421795944549617, 0.21826115066984858, 0.2337394462165864,
    0.2506391421766244, 0.26891499618894377, 0.2884904518217095,
    0.309259270583617, 0.33108855907008156, 0.3538230444052225,
    0.3772903338613357,
]


def test_sweep_equals_pointwise_cooling_ratio(tmp_path):
    out = tmp_path / "sweep.csv"
    code = invoke(["sweep", "--axis", "g2", "--from", "0", "--to", "0.6",
                   "--count", "25", "--metric", "cooling-ratio:1",
                   "--g1", "0.3", "--gamma1", "0.01", "--gamma2", "0.01",
                   "--omega", "0.1", "--nbar1", "100", "--output", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",")
    p = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.01, gamma2=0.01,
                     g1=0.3, nbar1=100.0)
    pointwise = [cooling_ratio(replace(p, g2=g2), 1)
                 for g2 in np.linspace(0, 0.6, 25)]
    assert np.array_equal(data[:, 1], pointwise)
    assert np.allclose(data[:, 1], QUADRATURE_SWEEP, rtol=1e-9, atol=0)


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    code, cap = invoke(["sweep", "--axis", "kappa2", "--from", "1", "--to", "2",
                     "--count", "3", "--output", str(tmp_path / "x.csv")],
                    capsys)
    assert code == 1
    assert "axis" in cap.err


def test_round_trip_from_sidecar(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["spectrum", "--mode", "2", "--g1", "0.3", "--g2", "0.5",
            "--gamma1", "0.01", "--gamma2", "0.01", "--omega", "0.1",
            "--nbar1", "100", "--count", "51"]
    assert invoke(base + ["--output", str(first)]) == 0
    assert invoke(["spectrum", "--config", str(first) + ".meta.json",
                "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_flat_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# figure parameters\n"
        "g1 = 0.3\n"
        "gamma1 = 0.01\n"
        "gamma2 = 0.01\n"
        "omega = 0.1\n"
        "nbar1 = 100\n")
    code, cap = invoke(["cooling-ratio", "--config", str(cfg)], capsys)
    assert code == 0
    assert "R=0.110" in cap.out
    # explicit flag overrides the config value
    code, cap = invoke(["cooling-ratio", "--config", str(cfg), "--g1", "0"],
                    capsys)
    assert code == 0
    assert "R=1.000" in cap.out


def test_simulate_writes_stats_and_prints_seed(tmp_path, capsys):
    out = tmp_path / "mc.json"
    code, cap = invoke(["simulate", "--gamma1", "0.05", "--gamma2", "0.05",
                     "--omega", "0.1", "--nbar1", "20", "--n-traj", "16",
                     "--t-end", "400", "--dt", "0.5", "--burn-in", "200",
                     "--seed", "4", "--output", str(out)], capsys)
    assert code == 0
    assert "seed=4" in cap.out
    stats = json.loads(out.read_text())
    assert stats["n_traj"] == 16
    assert stats["scheme"] == "exact_exponential"
    # deterministic rerun produces identical bytes
    out2 = tmp_path / "mc2.json"
    invoke(["simulate", "--config", str(out) + ".meta.json",
         "--output", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_collective_output(tmp_path, capsys):
    out = tmp_path / "coll.json"
    code, cap = invoke(["collective", "--g1", "0.3", "--g2", "0.3",
                     "--omega", "0", "--gamma1", "0", "--gamma2", "0",
                     "--output", str(out)], capsys)
    assert code == 0
    assert "labeling=collective" in cap.out
    payload = json.loads(out.read_text())
    assert payload["rate_plus"][0] == pytest.approx(0.18, abs=1e-12)
    assert abs(payload["rate_minus"][0]) < 1e-12


def test_three_wave_trajectory_csv(tmp_path):
    # the CLI pins kappa2 = 1 (unit convention), so check decay against
    # the known exponential rather than the lossless invariants
    out = tmp_path / "tw.csv"
    code = invoke(["three-wave", "--a1=1.0", "--a2=0.5", "--kappa1", "0.3",
                "--gamma", "0.1", "--t-end", "5", "--dt", "0.01",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert "time unit: 1/kappa2" in lines[0]
    assert lines[1].startswith("# t, Re(a1)")
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (501, 7)
    a2 = np.hypot(data[:, 3], data[:, 4])
    assert np.allclose(a2, 0.5 * np.exp(-data[:, 0]), atol=1e-9)


def test_coupling_command_from_mode_files(tmp_path, capsys):
    n = 24
    ax = np.linspace(0.0, 1.0, n)
    axes = (ax, ax, ax)
    q = 0.1
    k1 = np.array([0.7, 0.0, 0.0])
    save_mode_field(tmp_path / "phi1.txt",
                    plane_wave(axes, k1, [0, 1, 0]))
    save_mode_field(tmp_path / "phi2.txt",
                    plane_wave(axes, k1 + [q, 0, 0], [0, 1, 0]))
    save_mode_field(tmp_path / "psi.txt",
                    plane_wave(axes, [q, 0, 0], [1, 0, 0]))
    code, cap = invoke(["coupling",
                     "--phi1", str(tmp_path / "phi1.txt"),
                     "--phi2", str(tmp_path / "phi2.txt"),
                     "--psi", str(tmp_path / "psi.txt"),
                     "--gamma-e", "2.0", "--omega-c1", "3.0",
                     "--omega-c2", "4.0", "--eps1", "1.5", "--eps2", "2.5"],
                    capsys)
    assert code == 0
    pref = 0.5 * 2.0 * np.sqrt(4.0 * 3.0 / (2.5 * 1.5))
    line = [ln for ln in cap.out.splitlines() if ln.startswith("abs=")][0]
    got = float(line.split()[0].split("=")[1])
    assert got == pytest.approx(pref * q, rel=1e-4)


def test_coupling_command_reads_gzip_mode_files(tmp_path):
    # the same fields as plain and as gzip text give the same coupling
    ax = np.arange(8) / 8
    fields = {"phi1": plane_wave((ax, ax, ax), [2 * np.pi, 0, 0], [0, 1, 0]),
              "phi2": plane_wave((ax, ax, ax), [4 * np.pi, 0, 0], [0, 1, 0]),
              "psi": plane_wave((ax, ax, ax), [2 * np.pi, 0, 0], [1, 0, 0])}
    for suffix in ("", ".gz"):
        argv = ["coupling", "--gamma-e", "2.0", "--omega-c1", "3.0",
                "--omega-c2", "4.0", "--periodic-x", "--periodic-y",
                "--periodic-z", "--output", str(tmp_path / f"beta{suffix}.csv")]
        for name, f in fields.items():
            path = tmp_path / f"{name}.txt{suffix}"
            save_mode_field(path, f)
            argv += [f"--{name}", str(path)]
        assert invoke(argv) == 0
    assert (tmp_path / "phi1.txt.gz").read_bytes()[:2] == b"\x1f\x8b"
    plain = (tmp_path / "beta.csv").read_bytes()
    assert plain == (tmp_path / "beta.gz.csv").read_bytes()
    assert np.loadtxt(tmp_path / "beta.csv", delimiter=",")[0] != 0.0


def test_input_files_are_not_mutated(tmp_path):
    cfg = tmp_path / "run.cfg"
    text = "g1 = 0.1\nnbar1 = 3\n"
    cfg.write_text(text)
    invoke(["cooling-ratio", "--config", str(cfg), "--gamma1", "0.01",
         "--gamma2", "0.01"])
    assert cfg.read_text() == text


def test_run_config_direct_invocation(capsys):
    code = run(RunConfig("cooling-ratio",
                         {"gamma1": 0.01, "gamma2": 0.01, "nbar1": 5.0}))
    assert code == 0
    assert "R=1.000" in capsys.readouterr().out


def test_run_config_rejects_unknown_command():
    with pytest.raises(CliError, match="unknown command"):
        RunConfig("no-such-command")


def test_run_config_reports_missing_required(capsys):
    code = run(RunConfig("sweep", {"axis": "g2"}))
    assert code == 1
    assert "missing required" in capsys.readouterr().err


def test_run_config_rejects_unknown_option(capsys):
    code = run(RunConfig("cooling-ratio", {"bogus": 1}))
    assert code == 1
    assert "unknown option" in capsys.readouterr().err


def test_run_config_rejects_config_option(tmp_path, capsys):
    # a config file is expanded only by main(); run() must not ignore it
    out = tmp_path / "o.csv"
    code = run(RunConfig("cooling-ratio",
                         {"config": str(tmp_path / "missing.cfg"),
                          "gamma1": 0.01, "gamma2": 0.01,
                          "output": str(out)}))
    assert code == 1
    assert "unknown option 'config'" in capsys.readouterr().err
    assert not out.exists()


SWEEP = {"axis": "g2", "start": 0.1, "stop": 1.0, "count": 3,
         "gamma1": 0.01, "gamma2": 0.01}


@pytest.mark.parametrize("command, options, key", [
    ("sweep", {**SWEEP, "scale": "logarithmic"}, "scale"),
    ("sweep", {**SWEEP, "count": "3"}, "count"),
    ("simulate", {"gamma1": 0.05, "gamma2": 0.05, "n_traj": 2.5,
                  "t_end": 400.0, "dt": 0.5, "burn_in": 200.0}, "n_traj"),
    ("spectrum", {"gamma1": 0.01, "gamma2": 0.01, "count": 11,
                  "normalized": "false"}, "normalized")],
    ids=["scale", "count", "n_traj", "normalized"])
def test_run_config_rejects_value_the_parser_cannot_produce(
        command, options, key, tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = run(RunConfig(command, {**options, "output": str(out)}))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"option {key!r}" in err
    assert list(tmp_path.iterdir()) == []


# Every optional flag of each command, and the sidecar "config" block it
# must produce (as recorded before the command table; three-wave and
# coupling then dropped kappa2-hz).  Paths are relative to the test's cwd.
SYSTEM_ARGV = ["--delta", "0.05", "--omega", "0.1", "--gamma1", "0.02",
               "--gamma2", "0.03", "--g1=0.3+0.1j", "--g2", "0.5",
               "--nbar1", "100", "--nbar2", "50", "--kappa2-hz", "1e6"]
SYSTEM_CONFIG = {"delta": 0.05, "omega": 0.1, "gamma1": 0.02, "gamma2": 0.03,
                 "g1": "(0.3+0.1j)", "g2": "(0.5+0j)", "nbar1": 100.0,
                 "nbar2": 50.0, "kappa2-hz": 1000000.0, "output": "out"}
GRID_ARGV = ["--omega-min=-1", "--omega-max", "1.2", "--count", "41"]
GRID_CONFIG = {"omega-min": -1.0, "omega-max": 1.2, "count": 41}
ROUND_TRIP = {
    "spectrum": (SYSTEM_ARGV + GRID_ARGV + ["--mode", "2", "--normalized"],
                 {**SYSTEM_CONFIG, **GRID_CONFIG, "mode": 2, "normalized": True}),
    "antistokes": (SYSTEM_ARGV + GRID_ARGV, {**SYSTEM_CONFIG, **GRID_CONFIG}),
    "cooling-ratio": (SYSTEM_ARGV + ["--mode", "2"], {**SYSTEM_CONFIG, "mode": 2}),
    "simulate": (SYSTEM_ARGV + ["--n-traj", "3", "--t-end", "60", "--dt", "0.5",
                                "--burn-in", "20", "--seed", "7",
                                "--dump-dir", "dump"],
                 {**SYSTEM_CONFIG, "n-traj": 3, "t-end": 60.0, "dt": 0.5,
                  "burn-in": 20.0, "seed": 7, "dump-dir": "dump"}),
    "sweep": (SYSTEM_ARGV + ["--axis", "g1", "--from", "0.1", "--to", "0.4",
                             "--count", "4", "--scale", "log",
                             "--metric", "occupancy:2"],
              {**SYSTEM_CONFIG, "axis": "g1", "from": 0.1, "to": 0.4, "count": 4,
               "scale": "log", "metric": "occupancy:2"}),
    "collective": (SYSTEM_ARGV, SYSTEM_CONFIG),
    "three-wave": (["--kappa1", "0.3", "--gamma", "0.1", "--delta1", "0.01",
                    "--delta2", "0.02", "--mismatch", "0.03",
                    "--beta=0.01+0.02j", "--pump=0.5", "--a1=1.0", "--a2=0.5j",
                    "--u=0.1", "--t-end", "2", "--dt", "0.01",
                    "--kappa2-hz", "1e6"],
                   {"kappa1": 0.3, "gamma": 0.1, "delta1": 0.01, "delta2": 0.02,
                    "mismatch": 0.03, "beta": "(0.01+0.02j)", "pump": "(0.5+0j)",
                    "a1": "(1+0j)", "a2": "0.5j", "u": "(0.1+0j)", "t-end": 2.0,
                    "dt": 0.01, "kappa2-hz": 1000000.0, "output": "out"}),
    "coupling": (["--phi1", "phi1.txt", "--phi2", "phi2.txt", "--psi", "psi.txt",
                  "--gamma-e", "2.0", "--omega-c1", "3.0", "--omega-c2", "4.0",
                  "--eps1", "1.5", "--eps2", "2.5", "--periodic-x",
                  "--periodic-y", "--periodic-z", "--normalize", "--rho0", "2.0",
                  "--omega-m", "3.0", "--hbar", "0.5", "--kappa2-hz", "1e6"],
                 {"phi1": "phi1.txt", "phi2": "phi2.txt", "psi": "psi.txt",
                  "gamma-e": 2.0, "omega-c1": 3.0, "omega-c2": 4.0, "eps1": 1.5,
                  "eps2": 2.5, "periodic-x": True, "periodic-y": True,
                  "periodic-z": True, "normalize": True, "rho0": 2.0,
                  "omega-m": 3.0, "hbar": 0.5, "kappa2-hz": 1000000.0,
                  "output": "out"}),
}


@pytest.mark.filterwarnings("ignore:burn_in:UserWarning")
@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_every_command_round_trips_through_its_sidecar(command, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    if command == "coupling":
        ax = np.linspace(0.0, 1.0, 12)
        k1 = np.array([0.7, 0.0, 0.0])
        for name, k, pol in (("phi1", k1, [0, 1, 0]),
                             ("phi2", k1 + [0.1, 0, 0], [0, 1, 0]),
                             ("psi", [0.1, 0, 0], [1, 0, 0])):
            save_mode_field(f"{name}.txt", plane_wave((ax, ax, ax), k, pol))
    argv, config = ROUND_TRIP[command]
    assert invoke([command] + argv + ["--output", "out"]) == 0
    first = json.loads((tmp_path / "out.meta.json").read_text())
    assert first["command"] == command
    assert first["config"] == config
    assert invoke([command, "--config", "out.meta.json", "--output", "again"]) == 0
    assert (tmp_path / "out").read_bytes() == (tmp_path / "again").read_bytes()
    second = json.loads((tmp_path / "again.meta.json").read_text())
    assert second["config"].pop("output") == "again"
    first["config"].pop("output")
    assert second == first


# ---------------------------------------------------------------------------
# the system parameters are declared once, by the SystemParams fields

SYSTEM_COMMANDS = ("spectrum", "antistokes", "cooling-ratio", "simulate",
                   "sweep", "collective")
FLAG_FIELDS = [f.name for f in fields(SystemParams) if f.name != "kappa2"]


@pytest.mark.parametrize("name", FLAG_FIELDS)
def test_every_system_field_is_a_flag_and_a_sweep_axis(name, tmp_path):
    for command in SYSTEM_COMMANDS:
        assert f"--{name}" in [option for option, _ in COMMANDS[command][2]]
    out = tmp_path / "sweep.csv"
    assert invoke(["sweep", "--axis", name, "--from", "0.1", "--to", "0.2",
                   "--count", "2", "--metric", "occupancy:1", "--g1", "0.3",
                   "--gamma1", "0.01", "--gamma2", "0.01",
                   "--output", str(out)]) == 0
    assert out.read_text().startswith(f"# columns: {name} [kappa2 units]")


def test_kappa2_is_the_unit_not_a_flag():
    for command in SYSTEM_COMMANDS:
        assert "--kappa2" not in [option for option, _ in COMMANDS[command][2]]


# ---------------------------------------------------------------------------
# rejected inputs: one diagnostic line, no traceback, no output file


def assert_rejected(argv, name, out, capsys, code):
    """argv exits with `code` and one diagnostic line naming `name`, and
    writes no output file."""
    assert invoke(argv + ["--output", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error:" if code == 1 else "numerical failure:")
    assert name in err
    assert not out.exists()
    assert not out.with_name(out.name + ".meta.json").exists()


def flag_name(flag):
    return flag[2:].split("=")[0].replace("-", "_")


@pytest.mark.parametrize("flag", ["--t-end=inf", "--t-end=nan", "--dt=nan",
                                  "--dt=inf", "--burn-in=nan"])
def test_simulate_rejects_non_finite_times(flag, tmp_path, capsys):
    assert_rejected(["simulate", "--g1", "0.3", "--gamma1", "0.01",
                     "--gamma2", "0.01", "--n-traj", "2", flag],
                    flag_name(flag), tmp_path / "mc.json", capsys, 1)


@pytest.mark.parametrize("times", [
    ["--t-end=inf", "--dt=0.01"], ["--t-end=nan", "--dt=0.01"],
    ["--t-end=-0.006", "--dt=0.01"], ["--t-end=-1", "--dt=0.01"],
    ["--t-end=-0.004", "--dt=0.01"], ["--t-end=1", "--dt=inf"],
    ["--t-end=1", "--dt=nan"]])
def test_three_wave_rejects_bad_times(times, tmp_path, capsys):
    name = "dt" if "inf" in times[1] or "nan" in times[1] else "t_end"
    assert_rejected(["three-wave", "--kappa1=0", "--gamma=0", *times],
                    name, tmp_path / "tw.csv", capsys, 2)


@pytest.mark.parametrize("flag", [
    "--omega-c1=-3", "--omega-c2=0", "--eps1=0", "--eps2=nan",
    "--rho0=0", "--rho0=-1", "--omega-m=0", "--hbar=-1", "--hbar=inf"])
def test_coupling_rejects_degenerate_constants(flag, tmp_path, capsys):
    ax = np.arange(8) / 8
    argv = ["coupling", "--gamma-e", "2.0", "--omega-c1", "3.0",
            "--omega-c2", "4.0", "--periodic-x", "--periodic-y",
            "--periodic-z", "--normalize"]
    for name, k, pol in (("phi1", 2, [0, 1, 0]), ("phi2", 4, [0, 1, 0]),
                         ("psi", 2, [1, 0, 0])):
        save_mode_field(tmp_path / f"{name}.txt",
                        plane_wave((ax, ax, ax), [k * np.pi, 0, 0], pol))
        argv += [f"--{name}", str(tmp_path / f"{name}.txt")]
    assert_rejected(argv + [flag], flag_name(flag), tmp_path / "beta.csv",
                    capsys, 1)


@pytest.mark.parametrize("flags", [
    ["--gamma-e=nan"], ["--gamma-e=inf"], ["--gamma-e=-inf"],
    ["--eps1=1e-200", "--eps2=1e-200"],
    ["--omega-c1=1e200", "--omega-c2=1e200"],
    ["--omega-m=1e200"], ["--rho0=1e-320"],
    ["--gamma-e=1e308", "--omega-c1=100", "--omega-c2=100"]],
    ids=["gamma_e-nan", "gamma_e-inf", "gamma_e-minus-inf", "eps-underflow",
         "omega-overflow", "omega_m-overflow", "rho0-tiny", "coupling-overflow"])
def test_coupling_rejects_constants_that_do_not_combine(flags, tmp_path, capsys):
    ax = np.arange(8) / 8
    argv = ["coupling", "--gamma-e", "2.0", "--omega-c1", "3.0",
            "--omega-c2", "4.0", "--periodic-x", "--periodic-y",
            "--periodic-z", "--normalize"]
    for name, k, pol in (("phi1", 2, [0, 1, 0]), ("phi2", 4, [0, 1, 0]),
                         ("psi", 2, [1, 0, 0])):
        save_mode_field(tmp_path / f"{name}.txt",
                        plane_wave((ax, ax, ax), [k * np.pi, 0, 0], pol))
        argv += [f"--{name}", str(tmp_path / f"{name}.txt")]
    assert_rejected(argv + flags, flag_name(flags[0]), tmp_path / "beta.csv",
                    capsys, 1)


# ---------------------------------------------------------------------------
# --kappa2-hz is a physical scale: finite and positive in every command


@pytest.mark.parametrize("value", ["nan", "inf", "-3", "0"])
@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_kappa2_hz_must_be_finite_and_positive(command, value, tmp_path,
                                                capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, *ROUND_TRIP[command][0], f"--kappa2-hz={value}"]
    assert_rejected(argv, "kappa2-hz", tmp_path / "out", capsys, 1)
    assert list(tmp_path.iterdir()) == []  # no dump directory either


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -3.0, 0])
def test_run_config_rejects_a_bad_kappa2_hz(value, tmp_path, capsys):
    out = tmp_path / "cr.csv"
    code = run(RunConfig("cooling-ratio", {"gamma1": 0.01, "gamma2": 0.01,
                                           "kappa2_hz": value,
                                           "output": str(out)}))
    assert code == 1
    assert "kappa2-hz must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore:burn_in:UserWarning")
@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_every_sidecar_is_standard_json(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if command == "coupling":
        ax = np.linspace(0.0, 1.0, 12)
        for name, k, pol in (("phi1", [0.7, 0, 0], [0, 1, 0]),
                             ("phi2", [0.8, 0, 0], [0, 1, 0]),
                             ("psi", [0.1, 0, 0], [1, 0, 0])):
            save_mode_field(f"{name}.txt", plane_wave((ax, ax, ax), k, pol))
    assert invoke([command, *ROUND_TRIP[command][0], "--output", "out"]) == 0
    json.loads((tmp_path / "out.meta.json").read_text(),
               parse_constant=_reject_constant)
    if command in ("simulate", "collective"):  # the output is JSON too
        json.loads((tmp_path / "out").read_text(),
                   parse_constant=_reject_constant)


def test_write_json_refuses_a_non_standard_constant(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        _write_json(path, {"kappa2_hz": float("nan")})
    assert not path.exists()


# ---------------------------------------------------------------------------
# sweep: one system builder, axis and metric rules in the command table

SWEEP_SYSTEM = ["--g1", "0.3", "--g2", "0.5", "--gamma1", "0.01",
                "--gamma2", "0.01", "--omega", "0.1"]


def test_sweep_nbar1_moves_nbar2_unless_given(tmp_path):
    fig = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.01, gamma2=0.01,
                       g1=0.3, g2=0.5)
    for extra, nbar2 in (([], None), (["--nbar2", "50"], 50.0)):
        out = tmp_path / "sweep.csv"
        assert invoke(["sweep", *SWEEP_SYSTEM, *extra, "--axis", "nbar1",
                       "--from", "10", "--to", "100", "--count", "4",
                       "--metric", "occupancy:1", "--output", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",")
        want = [occupancy(replace(fig, nbar1=v, nbar2=v if nbar2 is None
                                  else nbar2), 1) for v in data[:, 0]]
        assert np.array_equal(data[:, 1], want)
    # nbar2 follows nbar1 = 100, as --nbar2's help says, not its 1.0 default
    out = tmp_path / "sweep.csv"
    assert invoke(["sweep", *SWEEP_SYSTEM, "--axis", "nbar1", "--from", "10",
                   "--to", "100", "--count", "4", "--metric", "occupancy:1",
                   "--output", str(out)]) == 0
    assert np.loadtxt(out, delimiter=",")[-1, 1] == pytest.approx(28.849,
                                                                  abs=1e-3)


def test_sweep_bare_metric_name_means_mode_one(tmp_path):
    text = {}
    for metric in ("cooling-ratio", "cooling-ratio:1"):
        out = tmp_path / f"{metric.replace(':', '_')}.csv"
        assert invoke(["sweep", *SWEEP_SYSTEM, "--nbar1", "100", "--axis", "g2",
                       "--from", "0", "--to", "0.6", "--count", "4",
                       "--metric", metric, "--output", str(out)]) == 0
        text[metric] = out.read_text()
    assert text["cooling-ratio"] == text["cooling-ratio:1"]
    assert "cooling_ratio_mode1 (dimensionless)" in text["cooling-ratio"]


@pytest.mark.parametrize("key, value", [
    ("metric", "occupancy:3"), ("metric", "entropy:1"), ("axis", "kappa2"),
    # spellings int() once accepted for the mode
    ("metric", "occupancy:01"), ("metric", "occupancy: 2"),
    ("metric", "occupancy:")])
def test_sweep_rejects_metric_and_axis_before_output(key, value, tmp_path,
                                                     capsys):
    out = tmp_path / "sweep.csv"
    assert invoke(["sweep", *SWEEP_SYSTEM, "--axis", "g2", "--from", "0.1",
                   "--to", "0.6", "--count", "3", f"--{key}={value}",
                   "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert list(tmp_path.iterdir()) == []
    # the same value through run(RunConfig)
    assert run(RunConfig("sweep", {**SWEEP, key: value,
                                   "output": str(out)})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# --config: the = form, switches as JSON booleans or text, JSON null


def test_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g1 = 0.3\ngamma1 = 0.01\ngamma2 = 0.01\nomega = 0.1\n"
                   "nbar1 = 100\n")
    code, cap = invoke(["cooling-ratio", f"--config={cfg}"], capsys)
    assert code == 0
    assert "R=0.110" in cap.out


@pytest.mark.parametrize("text, normalized", [
    ('{"config": {"normalized": true, "nbar2": null}}', True),
    ('{"config": {"normalized": false, "nbar2": null}}', False),
    ('{"normalized": "True"}', True),
    ('{"normalized": "false"}', False),
    ("normalized = true\n", True),
    ("normalized = FALSE\n", False)],
    ids=["json-true", "json-false", "json-text-true", "json-text-false",
         "text-true", "text-false"])
def test_config_switch_values(text, normalized, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "s.csv"
    assert invoke(["spectrum", "--config", str(cfg), "--gamma1", "0.01",
                   "--gamma2", "0.01", "--nbar1", "2", "--count", "5",
                   "--output", str(out)]) == 0
    config = json.loads((tmp_path / "s.csv.meta.json").read_text())["config"]
    assert config["normalized"] is normalized
    assert "nbar2" not in config  # null leaves the flag unset


# ---------------------------------------------------------------------------
# cold start: scipy is imported only by the commands that call it

RUN_COLD = ("import sys; from phonocool import cli; "
            "print(cli.main(sys.argv[1:]), 'scipy' in sys.modules)")


def run_cold(code, *argv, cwd=None):
    """Stdout lines of `code` run with `argv` in a fresh interpreter that
    imports the same phonocool as this one."""
    src = os.path.dirname(os.path.dirname(phonocool.__file__))
    out = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                         capture_output=True, text=True, timeout=60, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.splitlines()


def test_import_and_parser_leave_scipy_unloaded():
    code = ("import sys, phonocool, phonocool.cli; phonocool.cli.build_parser(); "
            "print('scipy' in sys.modules)")
    assert run_cold(code) == ["False"]


@pytest.mark.parametrize("command", ["spectrum", "antistokes", "collective",
                                     "three-wave", "coupling"])
def test_command_runs_without_loading_scipy(command, tmp_path):
    if command == "coupling":
        ax = np.linspace(0.0, 1.0, 4)
        for name, k, pol in (("phi1", [0.7, 0, 0], [0, 1, 0]),
                             ("phi2", [0.8, 0, 0], [0, 1, 0]),
                             ("psi", [0.1, 0, 0], [1, 0, 0])):
            save_mode_field(tmp_path / f"{name}.txt",
                            plane_wave((ax, ax, ax), k, pol))
    lines = run_cold(RUN_COLD, command, *ROUND_TRIP[command][0],
                     "--output", "out", cwd=tmp_path)
    assert lines[-1] == "0 False"
    assert (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:burn_in:UserWarning")
@pytest.mark.parametrize("command", ["cooling-ratio", "simulate"])
def test_scipy_command_run_cold_writes_the_same_bytes(command, tmp_path,
                                                      monkeypatch, capsys):
    # the first call in a fresh interpreter runs each import of scipy
    # inside spectra and langevin
    argv = [command, *ROUND_TRIP[command][0], "--output", "out"]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    lines = run_cold(RUN_COLD, *argv, cwd=cold)
    monkeypatch.chdir(warm)
    assert main(argv) == 0
    assert lines == capsys.readouterr().out.splitlines() + ["0 True"]
    written = sorted(p.relative_to(warm) for p in warm.rglob("*") if p.is_file())
    assert sorted(p.relative_to(cold) for p in cold.rglob("*")
                  if p.is_file()) == written
    assert len(written) == (5 if command == "simulate" else 2)
    for name in written:
        assert (cold / name).read_bytes() == (warm / name).read_bytes()

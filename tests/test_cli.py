import argparse
import ast
import errno
import hashlib
import json
import os
import pathlib
import pkgutil
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import phonocool
from phonocool import (EnsembleStats, SystemParams, cli, cooling_ratio,
                       occupancy, phonon_spectrum, plane_wave, save_mode_field,
                       spectra)
from phonocool.cli import COMMANDS, _expand_config, build_parser, main
from phonocool.core import _write_json
from phonocool.dynamics import _noise_densities


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


def test_three_wave_sidecar_records_the_time_reached(tmp_path):
    # round(1.004 / 0.01) = 100 steps: the run ends at t = 1.0, not 1.004
    out = tmp_path / "tw.csv"
    assert invoke(["three-wave", "--a1=1.0", "--t-end", "1.004", "--dt", "0.01",
                   "--output", str(out)]) == 0
    meta = json.loads((tmp_path / "tw.csv.meta.json").read_text())
    assert meta["config"]["t-end"] == 1.004
    assert meta["t_end_reached"] == 1.0
    assert np.loadtxt(out, delimiter=",")[-1, 0] == 1.0


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
# main parses with one parser of every command


@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_sidecar_replay_parses_as_the_command_line(command, tmp_path):
    argv = [command, *ROUND_TRIP[command][0], "--output", "out"]
    sidecar = tmp_path / "out.meta.json"
    _write_json(sidecar, {"config": ROUND_TRIP[command][1]})
    replay = _expand_config([command, "--config", str(sidecar)])
    parser = build_parser()
    assert parser.parse_args(replay) == parser.parse_args(argv)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_before_a_command_is_the_top_level_help(command, capsys):
    texts = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit, match="^0$"):  # exit status 0
            parse([command, "--help"])
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"usage: phonocool {command} [-h]")
    # help asked before the command is the top-level help, every command in it
    with pytest.raises(SystemExit):
        main(["-h", command])
    top = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["-h"])
    assert top == capsys.readouterr().out
    assert all(name in top for name in COMMANDS)


def test_unknown_command_error_names_every_command(capsys):
    code, out = invoke(["no-such-command"], capsys)
    assert code == 1
    assert out.err.startswith("error: argument command: invalid choice: "
                              "'no-such-command'")
    assert len(COMMANDS) == 8
    assert all(f"'{name}'" in out.err for name in COMMANDS)


@pytest.mark.parametrize("argv", [["--version"], ["--version", "spectrum"]])
def test_version(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == "phonocool 0.1.0\n"


def test_console_script_is_main():
    import tomllib
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"phonocool": "phonocool.cli:main"}
    assert pkgutil.resolve_name(scripts["phonocool"]) is main


@pytest.mark.parametrize("command", ["spectrum", "antistokes"])
def test_single_mode_spectrum_on_the_default_grid(command, tmp_path):
    # mode 2 has zero width and no coupling, and its pole omega = -Omega = 0
    # is a point of the default grid: it is dropped, as by cooling-ratio
    single = [command, "--g1", "0.3", "--gamma1", "0.01", "--nbar1", "100"]
    assert invoke(single + ["--output", str(tmp_path / "free.csv")]) == 0
    assert invoke(single + ["--gamma2", "0.01",
                            "--output", str(tmp_path / "damped.csv")]) == 0
    assert ((tmp_path / "free.csv").read_bytes()
            == (tmp_path / "damped.csv").read_bytes())


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
# a spectral density is num / |d|^2 (antistokes) or num / (|d|^2 |d1|^2)
# (spectrum of mode 1); such a denominator may overflow while the density
# is a normal float


def density_parts(command, p, om):
    """(num, d, rest): the density is num / (|d|^2 * rest)."""
    da, d1, d2, d = spectra._response(p, om, 1)
    n = _noise_densities(p)
    if command == "antistokes":
        return n[1] * np.abs(p.g1 / d1)**2 + n[2] * np.abs(p.g2 / d2)**2, d, 1.0
    num = (n[1] * np.abs(da + abs(p.g2)**2 / d2)**2
           + n[2] * abs(p.g1 * p.g2)**2 / np.abs(d2)**2)
    return num, d, np.abs(d1)**2


FIGURE = dict(g1=0.3, g2=0.5, gamma1=0.01, gamma2=0.01, omega=0.1, nbar1=100.0)
# flags and the power of two e that brings d back into range
OVERFLOW_DENSITY = {
    "antistokes": (dict(g1=1e150, g2=1e150, gamma1=0.01, gamma2=0.01,
                        nbar1=1.0), 500),
    "spectrum": (dict(g1=1e100, gamma1=0.01, nbar1=1e100), 400)}


def run_density(command, flags, out):
    argv = [command, *(f"--{k}={v}" for k, v in flags.items())]
    assert invoke(argv + ["--output", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",")
    num, d, rest = density_parts(command, SystemParams(kappa2=1.0, **flags),
                                 data[:, 0])
    return data[:, 1], num, d, rest


@pytest.mark.parametrize("command", ["spectrum", "antistokes"])
def test_finite_denominator_keeps_the_plain_quotient(command, tmp_path):
    values, num, d, rest = run_density(command, FIGURE, tmp_path / "fig.csv")
    assert np.array_equal(values, num / (np.abs(d)**2 * rest))


@pytest.mark.parametrize("command", sorted(OVERFLOW_DENSITY))
def test_density_survives_an_overflowing_denominator(command, tmp_path,
                                                     capsys):
    # a RuntimeWarning is an error in this suite, so none is raised either
    flags, e = OVERFLOW_DENSITY[command]
    values, num, d, rest = run_density(command, flags, tmp_path / "o.csv")
    assert capsys.readouterr().err == ""
    with np.errstate(over="ignore"):  # the plain denominator overflows
        assert np.isinf(np.abs(d)**2 * rest).all()
    # the plain quotient with num scaled by 2**-2e and d by 2**-e: exact
    # rescalings by powers of two that keep every factor in range
    ref = num * 2.0**(-2 * e) / (np.abs(d * 2.0**-e)**2 * rest)
    assert (ref > np.finfo(float).tiny).all()
    np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0)


def test_density_below_the_float_range_is_zero_without_a_warning(tmp_path,
                                                                  capsys):
    # |d|^2 |d1|^2 is about 1e600: the exact density, about 1e-600, rounds
    # to 0
    values, *_ = run_density("spectrum", dict(g1=1e150, gamma1=0.01,
                                              nbar1=1.0), tmp_path / "z.csv")
    assert capsys.readouterr().err == ""
    assert (values == 0).all()


def test_density_over_an_underflowing_denominator(tmp_path, capsys):
    # gamma1 = 1e-300: |d|^2 |d1|^2 underflows to 0 at omega = 0, where the
    # density, about 2e-290 / 1e-600, is beyond the float range; one line,
    # no warning, no file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(["spectrum", "--gamma1", "1e-300", "--gamma2", "0.01",
                       "--count", "5", "--nbar1", "1e10",
                       "--output", str(tmp_path / "y.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: spectrum: a value left the float range\n")
    assert list(tmp_path.iterdir()) == []
    # a density that the same zero denominator leaves in range is computed
    # as (sqrt(num) / |d| / |d1|)^2 there
    p = SystemParams(kappa2=1.0, gamma1=1e-300, gamma2=0.01, nbar1=1e-5)
    om = np.linspace(-1.5, 1.5, 5)
    num, d, rest = density_parts("spectrum", p, om)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = phonon_spectrum(p, 1, om).values
    assert rest[2] == 0
    # uncoupled: the density is n1 / |d1|^2 = 2e-305 / 1e-600
    assert values[2] == pytest.approx(2e-305 * 1e300 * 1e300, rel=1e-12)
    keep = np.arange(5) != 2
    assert np.array_equal(values[keep], num[keep] / (np.abs(d[keep])**2
                                                     * rest[keep]))


def test_density_with_an_overflowing_numerator_cancels_the_dressed_cavity(
        tmp_path, capsys):
    # mode 2 with a huge G1: |da + |G1|^2/d1|^2 overflows in the numerator
    # and in |d|^2 alike; with G2 = 0 the density is exactly n2 / |d2|^2
    flags = dict(mode=2, g1=1e150, gamma1=0.01, gamma2=0.01, nbar1=1)
    out = tmp_path / "s.csv"
    assert invoke(["spectrum", *(f"--{k}={v}" for k, v in flags.items()),
                   "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    data = np.loadtxt(out, delimiter=",")
    del flags["mode"]
    p = SystemParams(kappa2=1.0, **flags)
    *_, d2, _ = spectra._response(p, data[:, 0], 2)
    np.testing.assert_allclose(data[:, 1], _noise_densities(p)[2] / np.abs(d2)**2,
                               rtol=1e-12, atol=0)


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


@pytest.mark.parametrize("command", ["spectrum", "antistokes", "collective"])
def test_overflowing_coupling_is_a_numerical_failure(command, tmp_path,
                                                     capsys):
    # |g1|^2 leaves the float range: exit 2, no traceback and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rejected([command, "--g1", "1e200", "--gamma1", "0.01",
                         "--nbar1", "1"], "a value left the float range",
                        tmp_path / "out.csv", capsys, 2)


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", [
    [name, "--gamma1", "0.01", "--gamma2", "0.01", "--nbar1", "1"]
    for name in ("cooling-ratio", "spectrum", "collective")] + [
    ["simulate", "--n-traj", "2", "--t-end", "20", "--dt", "0.5",
     "--burn-in", "10", "--gamma1", "1", "--gamma2", "1", "--nbar1", "1"]],
    ids=lambda argv: argv[0])
def test_an_unwritable_output_is_one_error_line(command, where, tmp_path,
                                                capsys):
    # the OSError of open() itself, naming the path; no sidecar
    if where == "directory":
        out, code = tmp_path / "out", errno.EISDIR
        out.mkdir()
    else:
        out, code = tmp_path / "missing" / "out", errno.ENOENT
    assert invoke(command + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n")
    assert not pathlib.Path(f"{out}.meta.json").exists()
    assert [p.name for p in tmp_path.rglob("*")] == (
        ["out"] if where == "directory" else [])


OCCUPANCY_OVERFLOW = [
    ["--g1", "1e200", "--gamma1", "0.01", "--nbar1", "1"],  # ||M||
    ["--g1", "0.3", "--gamma1", "1", "--nbar1", "1e308",  # 2 gamma1 nbar1
     "--gamma2", "0.01"],
]


@pytest.mark.parametrize("flags", OCCUPANCY_OVERFLOW)
@pytest.mark.parametrize("command", [
    ["cooling-ratio"],
    ["sweep", "--axis", "g2", "--from", "0", "--to", "0.1", "--count", "2"]])
def test_occupancy_overflow_is_a_numerical_failure(command, flags, tmp_path,
                                                   capsys):
    # the one line, no warning on the way, no file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(command + flags + ["--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"numerical failure: {command[0]}: a value left the float range\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", [False, True])
def test_simulate_overflow_is_a_numerical_failure(output, tmp_path, capsys):
    # burn_in = 10 / slowest decay rate, so the line is all of stderr
    argv = ["simulate", "--n-traj", "2", "--t-end", "220", "--dt", "0.5",
            "--burn-in", "200", "--gamma1", "0.05", "--gamma2", "0.05",
            "--nbar1", "1e200"]
    if output:
        argv += ["--output", str(tmp_path / "mc.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invoke(argv) == 2
    assert capsys.readouterr() == (
        "seed=0\n", "numerical failure: simulate: a value left the float range\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["spectrum", "--count", "5"], ["antistokes", "--count", "5"],
    ["cooling-ratio"],
    ["simulate", "--n-traj", "2", "--t-end", "20", "--dt", "0.5",
     "--burn-in", "10"]], ids=lambda argv: argv[0])
def test_overflowing_noise_density_is_a_numerical_failure(command, tmp_path,
                                                          capsys):
    # 2 gamma1 nbar1 = 2e308 is refused where it is made: one line, no
    # warning on the way, no file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(command + ["--gamma1", "1", "--gamma2", "1", "--nbar1",
                                 "1e308", "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"numerical failure: {command[0]}: a value left the float range\n")
    assert list(tmp_path.iterdir()) == []


def test_overflowing_reduced_drift_warns_only_of_the_adiabatic_regime(
        capsys):
    # the bare width 1e308 and the cavity term 1e308 sum beyond the range
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert invoke(["collective", "--gamma1", "1e308", "--g1", "1e154",
                       "--gamma2", "0.01"]) == 2
    assert [w.category for w in caught] == [UserWarning]
    assert "adiabatic elimination" in str(caught[0].message)
    assert capsys.readouterr() == (
        "", "numerical failure: collective: a value left the float range\n")


def test_three_wave_overflowing_amplitude_violates_the_guard(tmp_path,
                                                            capsys):
    # |a1| overflows although a1 is finite: an infinite rate for the guard
    assert_rejected(["three-wave", "--a1=1.7e308+1.7e308j", "--t-end", "1",
                     "--dt", "0.01"], "stability guard violated",
                    tmp_path / "tw.csv", capsys, 2)


@pytest.mark.parametrize("command", ["spectrum", "collective", "antistokes"])
def test_arithmetic_failure_line_names_command_and_failure(command, tmp_path,
                                                           capsys):
    # the errno text of the OverflowError is the platform's; the line is not
    argv = [command, "--g1", "1e200", "--gamma1", "0.01", "--nbar1", "1",
            "--output", str(tmp_path / "out")]
    assert invoke(argv) == 2
    assert capsys.readouterr().err == (f"numerical failure: {command}: "
                                       "a value left the float range\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["spectrum", "--mode", "1"],
                                     ["spectrum", "--mode", "2"],
                                     ["antistokes"]],
                         ids=["spectrum-mode1", "spectrum-mode2", "antistokes"])
def test_overflowing_cavity_response_is_a_numerical_failure(command, tmp_path,
                                                            capsys):
    # |g1|^2 = 1e308 is a float, but |g1|^2 / d1 leaves the float range near
    # the resonance: exit 2 with no warning and no file (mode 1 used to
    # write an all-zero curve)
    argv = [*command, "--g1", "1e154", "--gamma1", "0.01", "--gamma2", "0.01",
            "--nbar1", "1", "--output", str(tmp_path / "s.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invoke(argv) == 2
    assert capsys.readouterr() == ("", f"numerical failure: {command[0]}: "
                                       "a value left the float range\n")
    assert list(tmp_path.iterdir()) == []


def test_missing_required_flags_are_named(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = invoke(["sweep", "--axis", "g2"], capsys)
    assert code == 1
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert all(flag in out.err for flag in ("--from", "--to", "--count",
                                            "--output"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["1", "0", "-3"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--gamma1", "0.01"], ["antistokes", "--gamma1", "0.01"],
    ["sweep", "--gamma1", "0.01", "--axis", "g2", "--from", "0.1",
     "--to", "0.6"]], ids=["spectrum", "antistokes", "sweep"])
def test_count_below_two_is_one_rule(argv, count, tmp_path, capsys):
    assert_rejected(argv + ["--count", count], "error: --count must be at "
                    "least 2", tmp_path / "out.csv", capsys, 1)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, flag", [
    (["spectrum"], "--omega-min"), (["spectrum"], "--omega-max"),
    (["antistokes"], "--omega-min"), (["antistokes"], "--omega-max"),
    (["sweep", "--axis", "g2", "--from", "0.1", "--to", "0.6"], "--from"),
    (["sweep", "--axis", "g2", "--from", "0.1", "--to", "0.6"], "--to")],
    ids=["spectrum-min", "spectrum-max", "antistokes-min", "antistokes-max",
         "sweep-from", "sweep-to"])
def test_non_finite_grid_end_is_rejected_by_its_flag(argv, flag, value,
                                                     tmp_path, capsys):
    # rejected before any arithmetic: no numpy warning on the way; the
    # --flag=value form, since argparse reads a bare -inf as an option
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rejected(argv + ["--gamma1", "0.01", "--gamma2", "0.01",
                                "--count", "5", f"{flag}={value}"],
                        f"error: {flag} must be finite, got {value}\n",
                        tmp_path / "out.csv", capsys, 1)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # 10**18 steps: the times alone need 8 EB
    ["three-wave", "--t-end", "1e16", "--dt", "0.01"],
    # 4e16 recorded steps: their times alone need 320 PB
    ["simulate", "--gamma1", "0.05", "--gamma2", "0.05", "--t-end", "1e16",
     "--dump-dir", "dump"]], ids=["three-wave", "simulate"])
def test_an_unallocatable_run_is_one_error_line(argv, tmp_path, capsys,
                                                monkeypatch):
    # each request is beyond any 64-bit user address space, so it fails at
    # once without touching memory
    monkeypatch.chdir(tmp_path)
    assert_rejected(argv, "allocate", tmp_path / "out", capsys, 1)
    assert list(tmp_path.iterdir()) == []  # no dump directory either


@pytest.mark.parametrize("exc, text", [
    (OverflowError(34, "Numerical result out of range"),
     "a value left the float range"),
    (ZeroDivisionError("float division by zero"), "a division by zero"),
    (FloatingPointError("overflow encountered"),
     "a floating-point operation failed"),
    (ArithmeticError("other"), "an arithmetic error"),
    (spectra.SingularityError("occupancy diverges"), "occupancy diverges"),
    (np.linalg.LinAlgError("Singular matrix"), "Singular matrix")])
def test_numerical_failure_line_names_the_command(exc, text, monkeypatch,
                                                  capsys):
    def fail(params, mode):
        raise exc
    monkeypatch.setattr(spectra, "cooling_ratio", fail)
    assert invoke(["cooling-ratio", "--gamma1", "0.01"]) == 2
    assert (capsys.readouterr().err
            == f"numerical failure: cooling-ratio: {text}\n")


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


@pytest.mark.parametrize("argv, flags", [
    (["spectrum"], ("--omega-min", "--omega-max")),
    (["antistokes"], ("--omega-min", "--omega-max")),
    (["sweep", "--axis", "g2"], ("--from", "--to"))],
    ids=["spectrum", "antistokes", "sweep"])
def test_grid_span_beyond_the_float_range_is_rejected_by_both_flags(
        argv, flags, tmp_path, capsys):
    # two finite ends whose difference overflows: rejected before linspace,
    # with no numpy warning
    start, stop = flags
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rejected(argv + ["--gamma1", "0.01", "--gamma2", "0.01",
                                "--count", "5", f"{start}=-1.7e308",
                                f"{stop}=1.7e308"],
                        f"error: the span from {start} to {stop} must be "
                        "finite, got -1.7e+308 to 1.7e+308\n",
                        tmp_path / "out.csv", capsys, 1)


@pytest.mark.parametrize("flags, message", [
    (["--omega-min", "1", "--omega-max", "1", "--count", "3"],
     "error: omegas must be strictly increasing\n"),
    (["--omega-min=-0.1", "--omega-max", "0.1", "--count", "5",
      "--normalized", "--nbar1", "0"],
     "error: normalized spectrum needs a positive occupancy\n")],
    ids=["flat-grid", "normalized-without-occupancy"])
def test_rejected_spectrum_does_not_warn_of_its_grid(flags, message, tmp_path,
                                                   capsys):
    # both grids are short of the resonances' span; the rejection is the
    # one line, and the span warning never comes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_rejected(["spectrum", "--gamma1", "0.01"] + flags, message,
                        tmp_path / "x.csv", capsys, 1)
    assert caught == []


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


def test_coupling_rejects_a_normalization_that_underflows(tmp_path, capsys):
    # each constant and hbar omega_m / (2 rho0 omega_m^2) pass; with the
    # norm of a 1e-5 field, rho0 omega_m^2 int |psi|^2 underflows to 0
    ax = np.arange(8) / 8
    argv = ["coupling", "--gamma-e", "1", "--omega-c1", "1", "--omega-c2",
            "1", "--periodic-x", "--periodic-y", "--periodic-z",
            "--normalize", "--rho0", "1e-15", "--omega-m", "1e-150",
            "--hbar", "1e-150"]
    for name, k, pol, amp in (("phi1", 2, [0, 1, 0], 1.0),
                              ("phi2", 4, [0, 1, 0], 1.0),
                              ("psi", 2, [1, 0, 0], 1e-5)):
        save_mode_field(tmp_path / f"{name}.txt",
                        plane_wave((ax, ax, ax), [k * np.pi, 0, 0], pol, amp))
        argv += [f"--{name}", str(tmp_path / f"{name}.txt")]
    assert_rejected(argv, "not finite and positive for rho0=1e-15, "
                    "omega_m=1e-150, hbar=1e-150", tmp_path / "beta.csv",
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


def test_antistokes_numerator_overflow_is_one_line(tmp_path, capsys):
    # |g1/d1|^2 leaves the float range while d stays finite: the refusal
    # comes from the quotient, with no numpy warning before it
    out = tmp_path / "a.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(["antistokes", "--g1", "1e140", "--gamma1", "1e-20",
                       "--gamma2", "0.01", "--nbar1", "1", "--count", "5",
                       "--omega-min=-1", "--omega-max", "1",
                       "--output", str(out)])
    assert code == 2
    assert capsys.readouterr() == (
        "", "numerical failure: antistokes: a value left the float range\n")
    assert list(tmp_path.iterdir()) == []


def test_antistokes_empty_channel_writes_zeros(tmp_path, capsys):
    # with nbar1 = 0 the overflowed |g1/d1|^2 term is skipped, not 0 * inf
    out = tmp_path / "a.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(["antistokes", "--g1", "1e140", "--gamma1", "1e-20",
                       "--gamma2", "0.01", "--nbar1", "0", "--count", "5",
                       "--omega-min=-1", "--omega-max", "1",
                       "--output", str(out)])
    assert code == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")
    data = np.loadtxt(out, delimiter=",")
    assert np.array_equal(data, np.column_stack([np.linspace(-1, 1, 5),
                                                 np.zeros(5)]))


def test_complex_flag_error_names_the_type(capsys):
    assert invoke(["cooling-ratio", "--g1", "[0.3, 0.1]"]) == 1
    assert capsys.readouterr().err == (
        "error: argument --g1: invalid complex value: '[0.3, 0.1]'\n")


@pytest.mark.parametrize("value", ["[0.3, 0.1]", '{"re": 0.3}'],
                         ids=["list", "object"])
def test_flat_json_config_passes_every_value_to_the_parser(value, tmp_path,
                                                          capsys):
    # a value no flag can take fails loudly instead of being dropped
    cfg = tmp_path / "run.json"
    cfg.write_text(f'{{"g1": {value}, "gamma1": 0.01, "nbar1": 100}}')
    assert_rejected(["cooling-ratio", "--config", str(cfg)], "--g1",
                    tmp_path / "r.csv", capsys, 1)


@pytest.mark.parametrize("second", ["--config", "--config="])
@pytest.mark.parametrize("first", ["--config", "--config="])
def test_config_given_twice_is_rejected(first, second, tmp_path, capsys):
    configs = []
    for name, g1 in (("a.cfg", "0.3"), ("b.cfg", "0.5")):
        cfg = tmp_path / name
        cfg.write_text(f"g1 = {g1}\ngamma1 = 0.01\ngamma2 = 0.01\n")
        configs.append(str(cfg))
    argv = ["cooling-ratio"]
    for form, cfg in zip((first, second), configs):
        argv += [form + cfg] if form.endswith("=") else [form, cfg]
    assert_rejected(argv, "--config", tmp_path / "out.csv", capsys, 1)


@pytest.mark.parametrize("argv", [
    # kappa2 is the unit and has no flag; argparse once read --kappa2-hz
    ["cooling-ratio", "--kappa2", "2", "--g1", "0.3", "--gamma1", "0.01",
     "--nbar1", "100"],
    # --conf once reached --config without the file being expanded
    ["cooling-ratio", "--conf", "a.cfg"]], ids=["kappa2", "conf"])
def test_a_flag_prefix_is_not_a_flag(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("g1 = 0.3\ngamma1 = 0.01\nnbar1 = 100\n")
    assert_rejected(argv, "unrecognized arguments", tmp_path / "out.csv",
                    capsys, 1)


@pytest.mark.parametrize("argv, name", [
    (["cooling-ratio", "--config", "a.cfg"], "config line without '='"),
    (["cooling-ratio", "--output", "out.csv", "--config"],
     "--config needs a file argument"),
    (["sweep", *SWEEP_SYSTEM, "--axis", "g2", "--scale", "log", "--from",
      "0", "--to", "1", "--count", "3"], "log scale needs positive --from/--to"),
    (["spectrum", "--normalized", "--gamma1", "0.01", "--gamma2", "0.01",
      "--nbar1", "0", "--count", "5"],
     "normalized spectrum needs a positive occupancy")],
    ids=["config-line", "config-last", "log-scale", "normalized"])
def test_rejected_input_is_one_line_and_no_file(argv, name, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("g1 0.3\n")
    if "--output" not in argv:
        argv = argv + ["--output", "out.csv"]
    code, cap = invoke(argv, capsys)
    assert code == 1
    assert cap.err.startswith(f"error: {name}") and cap.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["a.cfg"]


# ---------------------------------------------------------------------------
# main builds its parser once per process and reuses it; the reused
# parser parses, fails and helps as a fresh one does

REUSE_ARGV = ["cooling-ratio", *ROUND_TRIP["cooling-ratio"][0],
              "--output", "out"]


@pytest.fixture
def fresh_parsers():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_each_parser_once(fresh_parsers, tmp_path, monkeypatch,
                                      capsys):
    monkeypatch.chdir(tmp_path)
    built = []

    def counting():
        built.append(True)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(5):
        assert main(REUSE_ARGV) == 0
    assert len(built) == 1
    # every command, and any text that is not one, shares that parser
    for argv in (["no-such-command"], ["other"], ["--g1", "0.3"]):
        assert main(argv) == 1
    assert main(["spectrum", "--gamma1", "0.01", "--gamma2", "0.01",
                 "--count", "3", "--output", "s"]) == 0
    assert len(built) == 1
    assert cli._parser.cache_info().currsize == 1


@pytest.mark.parametrize("bad", [
    ["--no-such-flag", "1"], ["--mode", "3"], ["--g1", "x"],
    ["--g1", "0.7", "--nbar1"],
    ["--omega", "0.4", "--mode", "3", "--normalized"]])
def test_failed_parse_leaves_the_reused_parser_unchanged(bad, fresh_parsers,
                                                          tmp_path, monkeypatch,
                                                          capsys):
    outputs = []
    for name, calls in (("alone", [REUSE_ARGV]),
                        ("after", [["cooling-ratio", *bad], REUSE_ARGV])):
        cli._parser.cache_clear()
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        codes = [main(argv) for argv in calls]
        out = capsys.readouterr().out
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        outputs.append((codes[-1], out, files))
        assert codes[:-1] == [1] * (len(calls) - 1)
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0][2]) == ["out", "out.meta.json"]


def help_text(parse, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["cooling-ratio", "-h"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_is_a_fresh_parsers_before_and_after_reuse(fresh_parsers,
                                                        tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    fresh = help_text(build_parser().parse_args, capsys)
    assert help_text(main, capsys) == fresh
    assert main(REUSE_ARGV) == 0
    capsys.readouterr()
    assert help_text(main, capsys) == fresh
    # the width is read when help is printed, not when the parser is built
    texts = {}
    for columns in (50, 150):
        monkeypatch.setenv("COLUMNS", str(columns))
        texts[columns] = help_text(main, capsys)
        assert texts[columns] == help_text(build_parser().parse_args, capsys)
    assert (texts[50].count("\n") > fresh.count("\n")
            > texts[150].count("\n"))


def subparser(parser, command):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@pytest.mark.parametrize("command, argv", [
    (None, ["--extra", "1", "cooling-ratio", "--gamma1", "0.01"]),
    ("cooling-ratio", ["cooling-ratio", "--gamma1", "0.01", "--extra", "1"])])
def test_changing_a_built_parser_leaves_main_unchanged(command, argv,
                                                       fresh_parsers, capsys):
    # `command` names the subparser that gains the flag, None the top level
    assert main(argv) == 1  # main's parser exists from here on
    rejected = capsys.readouterr().err
    parser = build_parser()
    target = parser if command is None else subparser(parser, command)
    target.add_argument("--extra")
    assert parser.parse_args(argv).extra == "1"
    assert main(argv) == 1
    assert capsys.readouterr().err == rejected
    cli._parser.cache_clear()
    assert main(argv) == 1  # nor what a parser built after it accepts
    assert capsys.readouterr().err == rejected


# ---------------------------------------------------------------------------
# cold start: scipy is imported only by the commands that call it

RUN_COLD = ("import sys; from phonocool import cli; "
            "print(cli.main(sys.argv[1:]), 'scipy' in sys.modules)")


def run_process(code, *argv, cwd=None):
    """`code` run with `argv` in a fresh interpreter that imports the same
    phonocool as this one: its subprocess.CompletedProcess."""
    src = os.path.dirname(os.path.dirname(phonocool.__file__))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=60, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src})


def run_cold(code, *argv, cwd=None):
    """Stdout lines of run_process(code, *argv), which must exit 0."""
    out = run_process(code, *argv, cwd=cwd)
    out.check_returncode()
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


def test_thread_pool_is_loaded_by_the_monte_carlo_only(tmp_path):
    code = ("import sys, phonocool, phonocool.cli; phonocool.cli.build_parser(); "
            "print('concurrent.futures' in sys.modules)")
    assert run_cold(code) == ["False"]
    code = ("import sys; from phonocool import cli; "
            "print(cli.main(sys.argv[1:]), 'concurrent.futures' in sys.modules)")
    for command, loaded in (("spectrum", "False"), ("simulate", "True")):
        lines = run_cold(code, command, *ROUND_TRIP[command][0],
                         "--output", "out", cwd=tmp_path)
        assert lines[-1] == f"0 {loaded}"


# ---------------------------------------------------------------------------
# sys.exit(main()) in a real process, on the one CPU given first ("all":
# every CPU of this process), which prints its fork count last

ON_CPUS = ("import atexit, os, sys; cpu = sys.argv.pop(1); "
           "cpu == 'all' or os.sched_setaffinity(0, {int(cpu)}); "
           "forks, fork = [], os.fork; "
           "os.fork = lambda: forks.append(0) or fork(); "
           "atexit.register(lambda: print(f'forks={len(forks)}')); "
           "from phonocool.cli import main; sys.exit(main())")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.sched_setaffinity and two CPUs")
@pytest.mark.parametrize("argv, rows", [  # 2x10^4 rows, three 32^3 fields
    ("three-wave --kappa1 0.3 --gamma 0.1 --delta1 0.4 --delta2=-0.25 "
     "--mismatch 0.37 --beta=0.6+0.45j --pump=0.5-0.3j --a1=1.0+0.2j "
     "--a2=0.5j --u=0.3-0.1j --t-end 200 --dt 0.01", 20001),
    ("coupling --phi1 phi1.txt --phi2 phi2.txt --psi psi.txt --gamma-e 2 "
     "--omega-c1 3 --omega-c2 4 --periodic-x --periodic-y --periodic-z", 1)],
    ids=["three-wave", "coupling"])
def test_one_cpu_and_every_cpu_write_the_same_bytes(argv, rows, tmp_path):
    if argv.startswith("coupling"):
        ax = np.arange(32) / 32
        for name, k, pol in (("phi1", 4, [0, 1, 0]), ("phi2", 6, [0, 1, 0]),
                             ("psi", 2, [1, 0, 0])):
            save_mode_field(tmp_path / f"{name}.txt", plane_wave(
                (ax, ax, ax), [2 * np.pi * k, 0, 0], pol))
    one = str(min(os.sched_getaffinity(0)))
    last = [run_cold(ON_CPUS, cpu, *argv.split(), "--output", cpu,
                     cwd=tmp_path)[-1] for cpu in (one, "all")]
    assert last[0] == "forks=0" and int(last[1][6:]) >= 1
    data = (tmp_path / one).read_bytes()
    assert data == (tmp_path / "all").read_bytes()
    assert sum(not ln.startswith(b"#") for ln in data.splitlines()) == rows
    assert (tmp_path / "all.meta.json").exists()


@pytest.mark.parametrize("argv, status, out, err", [
    ("spectrum -h", 0, "usage: phonocool spectrum [-h]", ""),
    ("spectrum --gamma1 0.01 --gamma2 0.01 --omega-max nan --count 5", 1,
     "forks=0\n", "error: --omega-max must be finite, got nan\n"),
    ("spectrum --g1 1e200 --gamma1 0.01 --nbar1 1", 2, "forks=0\n",
     "numerical failure: spectrum: a value left the float range\n")],
    ids=["help", "nan-grid", "overflow"])
def test_exit_status_of_a_process(argv, status, out, err, tmp_path):
    done = run_process(ON_CPUS, "all", *argv.split(), "--output", "out.csv",
                       cwd=tmp_path)
    assert (done.returncode, done.stderr) == (status, err)
    assert done.stdout.startswith(out)
    assert list(tmp_path.iterdir()) == []  # no output, no sidecar


# ---------------------------------------------------------------------------
# one sidecar writer: each command returns its record and _dispatch writes
# <output>.meta.json and prints `wrote <output>`

# the argv of each command whose every sidecar value is exact on any
# platform: cooling-ratio runs uncoupled at dyadic rates, where R is 1.0
SIDECAR_ARGV = {
    **{command: argv for command, (argv, _) in ROUND_TRIP.items()},
    "cooling-ratio": ["--gamma1", "0.25", "--gamma2", "0.5", "--nbar1", "4",
                      "--nbar2", "8", "--mode", "2", "--kappa2-hz", "1e6"]}
# sha256 of each sidecar as written before the one writer, by the separate
# per-command and save_curve writers
SIDECAR_SHA256 = {
    "antistokes": "8cc4f5e35fcfc51c8b0250770ec1331fdfdc0a85560deebd947ec9f3447bdb34",
    "collective": "92c0a107d6cc24f23efcd70895c687d5fd0e8a2258a69b906a40ab8ce4dec4ea",
    "cooling-ratio": "b0b1c0c427bcfea70b3d696377f95d9ca824aa6cb1bfd31e9eccf2f342c5e6c6",
    "coupling": "193dc5c5f059ab9ef1403a00ca6ae18aad3975475a53f42eb0673ea5a7fb5dc9",
    "simulate": "6b036608dc4e115ce92dfc2c338ef4a188c2dfa64b8a96f05437d526a44852b7",
    "spectrum": "f224b15cdef43794bf6b1755e7b6215cca4da8323a4722e61aeae4c62bff8965",
    "sweep": "6634a99343723e0e6704d7783266234e0a80203f9f9e1bac83ffc45cbdc2d0af",
    "three-wave": "578007f88787fc6eebc4e1b79b40b1facaf6c72a08665aaffa41d144b0f3d1ef",
}


@pytest.mark.filterwarnings("ignore:burn_in:UserWarning")
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_sidecar_bytes_are_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ax = np.linspace(0.0, 1.0, 12)
    for name, k, pol in (("phi1", [0.7, 0, 0], [0, 1, 0]),
                         ("phi2", [0.8, 0, 0], [0, 1, 0]),
                         ("psi", [0.1, 0, 0], [1, 0, 0])):
        save_mode_field(f"{name}.txt", plane_wave((ax, ax, ax), k, pol))
    assert invoke([command, *SIDECAR_ARGV[command], "--output", "out"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote out"
    sidecar = (tmp_path / "out.meta.json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == SIDECAR_SHA256[command]


def test_cooling_ratio_output_prints_the_ratio_then_wrote(tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["cooling-ratio", *SIDECAR_ARGV["cooling-ratio"]]
    assert invoke(argv, capsys)[1].out == "R=1.000\n"
    assert invoke(argv + ["--output", str(out)], capsys)[1].out == (
        f"R=1.000\nwrote {out}\n")
    assert out.read_text() == ("# columns: mode, cooling_ratio "
                               "(dimensionless)\n2,1\n")


@pytest.mark.filterwarnings("ignore:burn_in:UserWarning")
def test_simulate_prints_the_record_it_writes(tmp_path, capsys):
    argv = ["simulate", "--n-traj", "3", "--t-end", "60", "--dt", "0.5",
            "--burn-in", "20", "--gamma1", "0.05", "--gamma2", "0.05",
            "--nbar1", "10", "--seed", "4"]
    code, cap = invoke(argv, capsys)
    assert code == 0
    seed, record = cap.out.split("\n", 1)
    assert seed == "seed=4"
    assert invoke(argv + ["--output", str(tmp_path / "mc.json")]) == 0
    assert record == (tmp_path / "mc.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mc.json",
                                                          "mc.json.meta.json"]


def test_simulate_refuses_a_non_finite_record_on_stdout(monkeypatch, capsys):
    # the stats record is standard JSON on stdout as in a file
    def nan_stats(params, **kw):
        return EnsembleStats(n_traj=2, t_end=2.0, dt=1.0, burn_in=1.0,
                             occupancy_mean=(float("nan"), 0.0),
                             occupancy_stderr=(0.0, 0.0), seed=0)
    monkeypatch.setattr(cli, "simulate_ensemble", nan_stats)
    assert invoke(["simulate"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "seed=0\n"
    assert cap.err.startswith("error: Out of range float values are not "
                              "JSON compliant")
    assert cap.err.count("\n") == 1


@pytest.mark.parametrize("output", [False, True])
def test_overflowing_collective_rate_is_a_numerical_failure(output, tmp_path,
                                                            capsys):
    # the reduced drift is finite, its larger eigenvalue is not
    argv = ["collective", "--g1", "1e154", "--g2", "1e154",
            "--gamma1", "0.01", "--gamma2", "0.01"]
    if output:
        argv += ["--output", str(tmp_path / "c.json")]
    assert invoke(argv) == 2
    assert capsys.readouterr() == (
        "", "numerical failure: collective: a value left the float range\n")
    assert list(tmp_path.iterdir()) == []


def test_one_place_names_the_sidecar():
    # every <output>.meta.json is written by cli._dispatch; no other
    # function builds the name
    places = []
    for path in pathlib.Path(phonocool.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == ".meta.json":
                inner = max((f for f in funcs
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                places.append((path.name, getattr(inner, "name", None)))
    assert places == [("cli.py", "_dispatch")]


def test_the_parser_is_the_only_resolver():
    # no module builds a namespace of flag values by hand: every run's
    # values come from main's parser
    names = []
    for path in pathlib.Path(phonocool.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if isinstance(name, str) and name.endswith("Namespace"):
                names.append((path.name, node.lineno))
    assert names == []


def readme_commands():
    """The `phonocool ...` commands of the README's "Command line" block, as
    argument lists, continuation lines joined and comments dropped."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("phonocool ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: a[0])
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    # run as a user would, beside plane-wave fields for `coupling`
    monkeypatch.chdir(tmp_path)
    ax = np.arange(8) / 8
    for name, k, pol in (("phi1", 4, [0, 1, 0]), ("phi2", 6, [0, 1, 0]),
                         ("psi", 2, [1, 0, 0])):
        save_mode_field(f"{name}.txt",
                        plane_wave((ax, ax, ax), [2 * np.pi * k, 0, 0], pol))
    assert invoke(argv) == 0

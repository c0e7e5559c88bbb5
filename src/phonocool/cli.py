"""Command-line front end.

All rates entered on the command line are in units of the cavity
half-linewidth (kappa2 = 1 is implied); an optional --kappa2-hz records the
physical scale in the output metadata without affecting the numbers.
Every file-writing command emits a CSV with a '#'-prefixed header block
plus a JSON sidecar <output>.meta.json whose "config" section can be fed
back through --config to reproduce the run.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .core import ParameterError, SystemParams, ThreeWaveParams, ThreeWaveState, validate
from .coupling import GridError, beta_acoustic, load_mode_field, normalize_mode
from .dynamics import IntegrationError, collective_rates, evolve_three_wave
from .langevin import CovarianceError, simulate_ensemble
from . import spectra
from .spectra import SingularityError


class CliError(ValueError):
    """Command-line usage or configuration error."""


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() controls the exit code
    def error(self, message):
        raise CliError(message)


def _complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise CliError(f"cannot parse complex value {text!r}") from exc


# ---------------------------------------------------------------------------
# config handling


def _load_config(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if isinstance(obj.get("config"), dict):
            return obj["config"]
        return {k: v for k, v in obj.items()
                if isinstance(v, (str, int, float, bool))}
    cfg = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line without '=': {line!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        cfg[key] = value
    return cfg


def _expand_config(argv: list[str]) -> list[str]:
    """Replace --config FILE with the flags it defines; explicit flags win
    because they come later on the resulting command line."""
    out: list[str] = []
    cfg_path = None
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--config":
            if i + 1 >= len(argv):
                raise CliError("--config needs a file argument")
            cfg_path = argv[i + 1]
            i += 2
            continue
        if a.startswith("--config="):
            cfg_path = a.split("=", 1)[1]
            i += 1
            continue
        out.append(a)
        i += 1
    if cfg_path is None:
        return out
    flags: list[str] = []
    for key, value in _load_config(cfg_path).items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        elif isinstance(value, str) and value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(flag)
        elif value is None:
            continue
        else:
            flags.append(f"{flag}={value}")
    for j, a in enumerate(out):
        if not a.startswith("-"):
            return out[:j + 1] + flags + out[j + 1:]
    return out + flags


# ---------------------------------------------------------------------------
# shared flags and metadata


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.0,
                   help="cavity detuning [kappa2]")
    p.add_argument("--omega", type=float, default=0.0,
                   help="phonon half-splitting [kappa2]")
    p.add_argument("--gamma1", type=float, default=0.0,
                   help="phonon 1 half-width [kappa2]")
    p.add_argument("--gamma2", type=float, default=0.0,
                   help="phonon 2 half-width [kappa2]")
    p.add_argument("--g1", type=_complex, default=0j,
                   help="coupling G1 [kappa2], complex accepted (use --g1=...)")
    p.add_argument("--g2", type=_complex, default=0j,
                   help="coupling G2 [kappa2]")
    p.add_argument("--nbar1", type=float, default=1.0,
                   help="thermal occupancy of mode 1")
    p.add_argument("--nbar2", type=float, default=None,
                   help="thermal occupancy of mode 2 (default: nbar1)")
    p.add_argument("--kappa2-hz", type=float, default=None,
                   help="physical kappa2 in Hz, recorded in metadata only")
    p.add_argument("--config", default=None,
                   help="key=value file or a previously emitted .meta.json")


def _build_params(args) -> SystemParams:
    return validate(SystemParams(
        kappa2=1.0, delta=args.delta, omega=args.omega,
        gamma1=args.gamma1, gamma2=args.gamma2,
        g1=args.g1, g2=args.g2,
        nbar1=args.nbar1, nbar2=args.nbar2))


def _system_config(args) -> dict:
    cfg = {
        "delta": args.delta, "omega": args.omega,
        "gamma1": args.gamma1, "gamma2": args.gamma2,
        "g1": str(args.g1), "g2": str(args.g2),
        "nbar1": args.nbar1,
    }
    if args.nbar2 is not None:
        cfg["nbar2"] = args.nbar2
    if args.kappa2_hz is not None:
        cfg["kappa2-hz"] = args.kappa2_hz
    return cfg


def _meta(command: str, config: dict, args, **extra) -> dict:
    meta = {
        "tool": "phonocool",
        "version": __version__,
        "command": command,
        "units": "rates and frequencies in units of kappa2 (kappa2 = 1)",
        "kappa2_hz": getattr(args, "kappa2_hz", None),
        "config": config,
    }
    meta.update(extra)
    return meta


def _write_sidecar(path: str, meta: dict) -> None:
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header_lines: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header="\n".join(header_lines), comments="# ")


# ---------------------------------------------------------------------------
# commands


def _grid(args) -> np.ndarray:
    if args.count < 2:
        raise CliError("--count must be at least 2")
    return np.linspace(args.omega_min, args.omega_max, args.count)


def cmd_spectrum(args) -> int:
    params = _build_params(args)
    grid = _grid(args)
    curve = spectra.phonon_spectrum(params, args.mode, grid,
                                    normalized=args.normalized)
    cfg = _system_config(args)
    cfg.update({"mode": args.mode, "omega-min": args.omega_min,
                "omega-max": args.omega_max, "count": args.count,
                "normalized": bool(args.normalized), "output": args.output})
    spectra.save_curve(args.output, curve, params,
                       extra_meta=_meta("spectrum", cfg, args))
    print(f"wrote {args.output}")
    return 0


def cmd_antistokes(args) -> int:
    params = _build_params(args)
    grid = _grid(args)
    curve = spectra.antistokes_spectrum(params, grid)
    cfg = _system_config(args)
    cfg.update({"omega-min": args.omega_min, "omega-max": args.omega_max,
                "count": args.count, "output": args.output})
    spectra.save_curve(args.output, curve, params,
                       extra_meta=_meta("antistokes", cfg, args))
    print(f"wrote {args.output}")
    return 0


def cmd_cooling_ratio(args) -> int:
    params = _build_params(args)
    ratio = spectra.cooling_ratio(params, args.mode)
    print(f"R={ratio:.3f}")
    if args.output:
        cfg = _system_config(args)
        cfg.update({"mode": args.mode, "output": args.output})
        _write_csv(args.output,
                   ["columns: mode, cooling_ratio (dimensionless)"],
                   [np.array([float(args.mode)]), np.array([ratio])])
        _write_sidecar(args.output, _meta("cooling-ratio", cfg, args,
                                          cooling_ratio=ratio))
    return 0


def cmd_simulate(args) -> int:
    params = _build_params(args)
    print(f"seed={args.seed}")
    stats = simulate_ensemble(params, n_traj=args.n_traj, t_end=args.t_end,
                              dt=args.dt, burn_in=args.burn_in,
                              seed=args.seed, dump_dir=args.dump_dir)
    text = stats.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
            fh.write("\n")
        cfg = _system_config(args)
        cfg.update({"n-traj": args.n_traj, "t-end": args.t_end,
                    "dt": args.dt, "burn-in": args.burn_in,
                    "seed": args.seed, "output": args.output})
        if args.dump_dir:
            cfg["dump-dir"] = args.dump_dir
        _write_sidecar(args.output, _meta("simulate", cfg, args))
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


_SWEEP_FIELDS = ("delta", "omega", "gamma1", "gamma2",
                 "g1", "g2", "nbar1", "nbar2")


def _metric_fn(spec: str):
    name, _, mode_text = spec.partition(":")
    try:
        mode = int(mode_text) if mode_text else 1
    except ValueError as exc:
        raise CliError(f"bad metric mode in {spec!r}") from exc
    if mode not in (1, 2):
        raise CliError(f"metric mode must be 1 or 2 in {spec!r}")
    if name == "cooling-ratio":
        return (lambda p: spectra.cooling_ratio(p, mode),
                f"cooling_ratio_mode{mode} (dimensionless)")
    if name == "occupancy":
        return (lambda p: spectra.occupancy(p, mode),
                f"occupancy_mode{mode} (dimensionless)")
    raise CliError(f"unknown metric {name!r}; use cooling-ratio or occupancy")


def cmd_sweep(args) -> int:
    if args.axis not in _SWEEP_FIELDS:
        raise CliError(f"sweep axis must be one of {', '.join(_SWEEP_FIELDS)}")
    if args.count < 2:
        raise CliError("sweep needs --count of at least 2")
    params = _build_params(args)
    if args.scale == "log":
        if args.start <= 0 or args.stop <= 0:
            raise CliError("log scale needs positive --from/--to")
        values = np.geomspace(args.start, args.stop, args.count)
    else:
        values = np.linspace(args.start, args.stop, args.count)
    fn, metric_label = _metric_fn(args.metric)

    def point(v: float) -> float:
        p = replace(params, **{args.axis: v})
        return fn(validate(p))

    results = np.array([point(v) for v in values])

    cfg = _system_config(args)
    cfg.update({"axis": args.axis, "from": args.start, "to": args.stop,
                "count": args.count, "scale": args.scale,
                "metric": args.metric, "output": args.output})
    _write_csv(args.output,
               [f"columns: {args.axis} [kappa2 units], {metric_label}"],
               [values, results])
    _write_sidecar(args.output, _meta("sweep", cfg, args))
    print(f"wrote {args.output}")
    return 0


def cmd_collective(args) -> int:
    params = _build_params(args)
    modes = collective_rates(params)
    print(f"labeling={modes.labeling}")
    print(f"rate_plus={modes.rate_plus:.12g}")
    print(f"rate_minus={modes.rate_minus:.12g}")
    if args.output:
        cfg = _system_config(args)
        cfg["output"] = args.output
        payload = {
            "labeling": modes.labeling,
            "rate_plus": [modes.rate_plus.real, modes.rate_plus.imag],
            "rate_minus": [modes.rate_minus.real, modes.rate_minus.imag],
            "vec_plus": [[c.real, c.imag] for c in modes.vec_plus],
            "vec_minus": [[c.real, c.imag] for c in modes.vec_minus],
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_sidecar(args.output, _meta("collective", cfg, args))
        print(f"wrote {args.output}")
    return 0


def cmd_three_wave(args) -> int:
    params = ThreeWaveParams(
        kappa1=args.kappa1, kappa2=1.0, Gamma=args.gamma,
        Delta1=args.delta1, Delta2=args.delta2, delta=args.mismatch,
        beta=args.beta, pump=args.pump)
    init = ThreeWaveState(a1=args.a1, a2=args.a2, u=args.u)
    traj = evolve_three_wave(params, init, t_end=args.t_end, dt=args.dt)
    traj.save_csv(args.output, time_unit="1/kappa2")
    cfg = {
        "kappa1": args.kappa1, "gamma": args.gamma,
        "delta1": args.delta1, "delta2": args.delta2,
        "mismatch": args.mismatch, "beta": str(args.beta),
        "pump": str(args.pump), "a1": str(args.a1), "a2": str(args.a2),
        "u": str(args.u), "t-end": args.t_end, "dt": args.dt,
        "output": args.output,
    }
    _write_sidecar(args.output, _meta("three-wave", cfg, args))
    print(f"wrote {args.output}")
    return 0


def cmd_coupling(args) -> int:
    flags = (args.periodic_x, args.periodic_y, args.periodic_z)
    phi1 = load_mode_field(args.phi1, periodic=flags)
    phi2 = load_mode_field(args.phi2, periodic=flags)
    psi = load_mode_field(args.psi, periodic=flags)
    if args.normalize:
        psi = normalize_mode(psi, rho0=args.rho0, omega_m=args.omega_m,
                             hbar=args.hbar)
    beta = beta_acoustic(phi2, phi1, psi, gamma_e=args.gamma_e,
                         omega_c1=args.omega_c1, omega_c2=args.omega_c2,
                         eps1=args.eps1, eps2=args.eps2)
    print(f"beta={beta:.12g}")
    print(f"abs={abs(beta):.12g} phase={np.angle(beta):.12g}")
    if args.output:
        cfg = {
            "phi1": args.phi1, "phi2": args.phi2, "psi": args.psi,
            "gamma-e": args.gamma_e, "omega-c1": args.omega_c1,
            "omega-c2": args.omega_c2, "eps1": args.eps1, "eps2": args.eps2,
            "periodic-x": args.periodic_x, "periodic-y": args.periodic_y,
            "periodic-z": args.periodic_z, "normalize": args.normalize,
            "rho0": args.rho0, "omega-m": args.omega_m, "hbar": args.hbar,
            "output": args.output,
        }
        _write_csv(args.output,
                   ["columns: Re(beta), Im(beta) [rad/s for unit-amplitude modes]"],
                   [np.array([beta.real]), np.array([beta.imag])])
        _write_sidecar(args.output, _meta("coupling", cfg, args))
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# run configuration


COMMANDS = ("spectrum", "antistokes", "cooling-ratio", "simulate", "sweep",
            "coupling", "collective", "three-wave")


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation: the command plus its flag values.

    Options use the argparse destinations (e.g. "omega_min", "n_traj");
    anything omitted falls back to the command's defaults.
    """

    command: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise CliError(f"unknown command {self.command!r}; "
                           f"choose from {', '.join(COMMANDS)}")


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit status
    (0 ok, 1 validation failure, 2 numerical failure)."""

    def invoke():
        sub = _subparser(build_parser(), config.command)
        values = {}
        required = []
        for action in sub._actions:
            if action.dest == "help":
                continue
            values[action.dest] = action.default
            if getattr(action, "required", False):
                required.append(action.dest)
        for key, value in config.options.items():
            if key not in values:
                raise CliError(
                    f"unknown option {key!r} for {config.command}")
            values[key] = value
        missing = [k for k in required if values[k] is None]
        if missing:
            raise CliError(f"{config.command} is missing required options: "
                           f"{', '.join(missing)}")
        args = argparse.Namespace(**values)
        return sub.get_default("func")(args)

    return _dispatch(invoke)


def _dispatch(invoke) -> int:
    try:
        return invoke()
    except (SingularityError, CovarianceError,
            IntegrationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (CliError, ParameterError, GridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _subparser(parser: argparse.ArgumentParser, command: str):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise CliError(f"no parser for {command!r}")


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="phonocool",
                     description="Phonon cooling spectra, dynamics, and "
                                 "Monte Carlo (all rates in kappa2 units)")
    parser.add_argument("--version", action="version",
                        version=f"phonocool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def grid_flags(p):
        p.add_argument("--omega-min", type=float, default=-1.5,
                       help="grid start [kappa2]")
        p.add_argument("--omega-max", type=float, default=1.5,
                       help="grid end [kappa2]")
        p.add_argument("--count", type=int, default=4001,
                       help="number of grid points")

    p = sub.add_parser("spectrum", help="phonon fluctuation spectrum CSV")
    _add_system_flags(p)
    grid_flags(p)
    p.add_argument("--mode", type=int, choices=(1, 2), default=1)
    p.add_argument("--normalized", action="store_true",
                   help="emit gamma*S/(2*nbar) instead of S")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("antistokes", help="generated anti-Stokes spectrum CSV")
    _add_system_flags(p)
    grid_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_antistokes)

    p = sub.add_parser("cooling-ratio",
                       help="steady-state occupancy over thermal occupancy")
    _add_system_flags(p)
    p.add_argument("--mode", type=int, choices=(1, 2), default=1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_cooling_ratio)

    p = sub.add_parser("simulate", help="Monte Carlo occupancy estimate")
    _add_system_flags(p)
    p.add_argument("--n-traj", type=int, default=200)
    p.add_argument("--t-end", type=float, default=2000.0)
    p.add_argument("--dt", type=float, default=0.25)
    p.add_argument("--burn-in", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-dir", default=None,
                   help="write per-trajectory CSV records here (large)")
    p.add_argument("--output", default=None, help="stats JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one parameter, tabulate a metric")
    _add_system_flags(p)
    p.add_argument("--axis", required=True,
                   help=f"one of {', '.join(_SWEEP_FIELDS)}")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--metric", default="cooling-ratio:1",
                   help="cooling-ratio:MODE or occupancy:MODE")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("collective", help="super/sub-radiant mode rates")
    _add_system_flags(p)
    p.add_argument("--output", default=None, help="JSON output path")
    p.set_defaults(func=cmd_collective)

    p = sub.add_parser("three-wave", help="deterministic three-wave trajectory")
    p.add_argument("--kappa1", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta1", type=float, default=0.0)
    p.add_argument("--delta2", type=float, default=0.0)
    p.add_argument("--mismatch", type=float, default=0.0,
                   help="three-wave frequency mismatch [kappa2]")
    p.add_argument("--beta", type=_complex, default=0j)
    p.add_argument("--pump", type=_complex, default=0j)
    p.add_argument("--a1", type=_complex, default=0j)
    p.add_argument("--a2", type=_complex, default=0j)
    p.add_argument("--u", type=_complex, default=0j)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--kappa2-hz", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_three_wave)

    p = sub.add_parser("coupling",
                       help="acoustic coupling constant from mode-field files")
    p.add_argument("--phi1", required=True, help="pump mode field file")
    p.add_argument("--phi2", required=True, help="anti-Stokes mode field file")
    p.add_argument("--psi", required=True, help="phonon mode field file")
    p.add_argument("--gamma-e", type=float, required=True)
    p.add_argument("--omega-c1", type=float, required=True)
    p.add_argument("--omega-c2", type=float, required=True)
    p.add_argument("--eps1", type=float, default=1.0)
    p.add_argument("--eps2", type=float, default=1.0)
    p.add_argument("--periodic-x", action="store_true")
    p.add_argument("--periodic-y", action="store_true")
    p.add_argument("--periodic-z", action="store_true")
    p.add_argument("--normalize", action="store_true",
                   help="normalize psi to half a quantum first")
    p.add_argument("--rho0", type=float, default=1.0)
    p.add_argument("--omega-m", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--kappa2-hz", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_coupling)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    def invoke():
        args = build_parser().parse_args(_expand_config(argv))
        return args.func(args)

    return _dispatch(invoke)


if __name__ == "__main__":
    sys.exit(main())

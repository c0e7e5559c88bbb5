"""Command-line front end.

All rates entered on the command line are in units of the cavity
half-linewidth (kappa2 = 1 is implied); an optional --kappa2-hz records the
physical scale in the output metadata without affecting the numbers.
Every file-writing command emits a CSV with a '#'-prefixed header block
plus a JSON sidecar <output>.meta.json whose "config" section can be fed
back through --config to reproduce the run.

One table, COMMANDS, declares each command's handler, help text and flags;
it drives the parser and every sidecar's "config" block.  The system flags
and the sweep axes are the SystemParams fields but kappa2, the unit, and
_build_params is the one builder of a system from them.  `main(argv)` is
the one entry point, from the shell and from Python alike: it returns the
exit status instead of exiting.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .core import (SystemParams, ThreeWaveParams, ThreeWaveState, _write_columns,
                   _write_json)
from .coupling import beta_acoustic, load_mode_field, normalize_mode
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


_complex.__name__ = "complex"  # argparse names it: "invalid complex value"


# ---------------------------------------------------------------------------
# config handling


def _load_config(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if isinstance(obj.get("config"), dict):
            return obj["config"]
        return obj
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


def _command_at(argv: list[str]) -> int:
    """Index of the command name: the first token that does not start with
    '-' (len(argv) when there is none)."""
    return next((j for j, a in enumerate(argv) if not a.startswith("-")),
                len(argv))


def _expand_config(argv: list[str]) -> list[str]:
    """Replace --config FILE with the flags it defines; explicit flags win
    because they come later on the resulting command line.  At most one
    --config is accepted."""
    out: list[str] = []
    cfg_path = None
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--config" or a.startswith("--config="):
            if cfg_path is not None:
                raise CliError("--config may be given only once")
            if a == "--config":
                if i + 1 >= len(argv):
                    raise CliError("--config needs a file argument")
                i += 1
                cfg_path = argv[i]
            else:
                cfg_path = a.split("=", 1)[1]
        else:
            out.append(a)
        i += 1
    if cfg_path is None:
        return out
    flags: list[str] = []
    for key, value in _load_config(cfg_path).items():
        # a switch is true or false, as a JSON boolean or as text
        switch = str(value).lower()
        if value is None or switch == "false":
            continue
        flag = "--" + str(key).replace("_", "-")
        flags.append(flag if switch == "true" else f"{flag}={value}")
    j = _command_at(out)
    return out[:j + 1] + flags + out[j + 1:]


# ---------------------------------------------------------------------------
# metadata and output


# the SystemParams fields a system command takes as flags and sweeps;
# kappa2 = 1 is the unit
_SWEEP_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name != "kappa2")


def _build_params(args, **axis) -> SystemParams:
    """The system of the flags, the fields in `axis` overridden."""
    flags = {name: getattr(args, name) for name in _SWEEP_FIELDS}
    return SystemParams(kappa2=1.0, **{**flags, **axis})


def _meta(args, **extra) -> dict:
    """Sidecar metadata.  Its "config" block holds every flag value of the
    run, keyed by option name without the leading "--" and without the
    unset (None) ones, complex values as text, so it replays via --config."""
    config = {}
    for option, kwargs in COMMANDS[args.command][2]:
        value = getattr(args, kwargs.get("dest", option[2:].replace("-", "_")))
        if value is not None:
            config[option[2:]] = (str(value) if kwargs.get("type") is _complex
                                  else value)
    return {
        "tool": "phonocool",
        "version": __version__,
        "command": args.command,
        "units": "rates and frequencies in units of kappa2 (kappa2 = 1)",
        "kappa2_hz": args.kappa2_hz,
        "config": config,
        **extra,
    }


# ---------------------------------------------------------------------------
# commands: each writes its output file and returns the fields its sidecar
# adds, or returns None when it wrote no file


def _grid(args, ends: dict[str, float], scale: str = "linear"):
    """--count points between the two ends, {flag: value} from start to
    stop, evenly or geometrically spaced; a non-finite end is rejected by
    its flag, and a span stop - start beyond the float range by both flags,
    before any array arithmetic."""
    if args.count < 2:
        raise CliError("--count must be at least 2")
    for flag, value in ends.items():
        if not np.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value!r}")
    (start_flag, start), (stop_flag, stop) = ends.items()
    if not np.isfinite(stop - start):
        raise CliError(f"the span from {start_flag} to {stop_flag} must be "
                       f"finite, got {start!r} to {stop!r}")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise CliError("log scale needs positive --from/--to")
        return np.geomspace(start, stop, args.count)
    return np.linspace(start, stop, args.count)


def cmd_spectrum(args) -> dict:
    params = _build_params(args)
    omegas = _grid(args, {"--omega-min": args.omega_min,
                          "--omega-max": args.omega_max})
    curve = spectra.phonon_spectrum(params, args.mode, omegas,
                                    normalized=args.normalized)
    return spectra.save_curve(args.output, curve, params)


def cmd_antistokes(args) -> dict:
    params = _build_params(args)
    omegas = _grid(args, {"--omega-min": args.omega_min,
                          "--omega-max": args.omega_max})
    curve = spectra.antistokes_spectrum(params, omegas)
    return spectra.save_curve(args.output, curve, params)


def cmd_cooling_ratio(args) -> dict | None:
    params = _build_params(args)
    ratio = spectra.cooling_ratio(params, args.mode)
    print(f"R={ratio:.3f}")
    if args.output:
        _write_columns(args.output,
                       "columns: mode, cooling_ratio (dimensionless)",
                       [np.array([float(args.mode)]), np.array([ratio])])
        return {"cooling_ratio": ratio}


def cmd_simulate(args) -> dict | None:
    params = _build_params(args)
    print(f"seed={args.seed}")
    stats = simulate_ensemble(params, n_traj=args.n_traj, t_end=args.t_end,
                              dt=args.dt, burn_in=args.burn_in,
                              seed=args.seed, dump_dir=args.dump_dir)
    # without --output the stats record goes to stdout, in the same form
    _write_json(args.output or sys.stdout, asdict(stats))
    return {} if args.output else None


def cmd_sweep(args) -> dict:
    values = _grid(args, {"--from": args.start, "--to": args.stop},
                   args.scale)
    _build_params(args)
    name, _, mode = args.metric.partition(":")
    name, mode = name.replace("-", "_"), int(mode or 1)
    metric = getattr(spectra, name)  # looked up now: rebinding is seen
    results = np.array([metric(_build_params(args, **{args.axis: v}), mode)
                        for v in values])
    _write_columns(args.output, f"columns: {args.axis} [kappa2 units], "
                                f"{name}_mode{mode} (dimensionless)",
                   [values, results])
    return {}


def cmd_collective(args) -> dict | None:
    params = _build_params(args)
    modes = collective_rates(params)
    print(f"labeling={modes.labeling}")
    print(f"rate_plus={modes.rate_plus:.12g}")
    print(f"rate_minus={modes.rate_minus:.12g}")
    if args.output:
        payload = {
            "labeling": modes.labeling,
            "rate_plus": [modes.rate_plus.real, modes.rate_plus.imag],
            "rate_minus": [modes.rate_minus.real, modes.rate_minus.imag],
            "vec_plus": [[c.real, c.imag] for c in modes.vec_plus],
            "vec_minus": [[c.real, c.imag] for c in modes.vec_minus],
        }
        _write_json(args.output, payload)
        return {}


def cmd_three_wave(args) -> dict:
    init = ThreeWaveState(a1=args.a1, a2=args.a2, u=args.u)
    params = ThreeWaveParams(
        kappa1=args.kappa1, kappa2=1.0, Gamma=args.gamma,
        Delta1=args.delta1, Delta2=args.delta2, delta=args.mismatch,
        beta=args.beta, pump=args.pump)
    traj = evolve_three_wave(params, init, t_end=args.t_end, dt=args.dt)
    traj.save_csv(args.output, time_unit="1/kappa2")
    # the run takes whole steps of dt, so it may end short of or past t_end
    return {"t_end_reached": float(traj.t[-1])}


def cmd_coupling(args) -> dict | None:
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
        _write_columns(
            args.output,
            "columns: Re(beta), Im(beta) [rad/s for unit-amplitude modes]",
            [np.array([beta])])
        return {}


# ---------------------------------------------------------------------------
# command table: name -> (handler, help text, flags); each flag is an
# (option string, add_argument keywords) pair


_RECORD = [
    ("--kappa2-hz", dict(type=float,
                         help="physical kappa2 in Hz, recorded in metadata only")),
    ("--config", dict(help="key=value file or a previously emitted .meta.json")),
]
_SYSTEM = [
    ("--delta", dict(type=float, default=0.0, help="cavity detuning [kappa2]")),
    ("--omega", dict(type=float, default=0.0,
                     help="phonon half-splitting [kappa2]")),
    ("--gamma1", dict(type=float, default=0.0,
                      help="phonon 1 half-width [kappa2]")),
    ("--gamma2", dict(type=float, default=0.0,
                      help="phonon 2 half-width [kappa2]")),
    ("--g1", dict(type=_complex, default=0j,
                  help="coupling G1 [kappa2], complex accepted (use --g1=...)")),
    ("--g2", dict(type=_complex, default=0j, help="coupling G2 [kappa2]")),
    ("--nbar1", dict(type=float, default=1.0,
                     help="thermal occupancy of mode 1")),
    ("--nbar2", dict(type=float,
                     help="thermal occupancy of mode 2 (default: nbar1)")),
    *_RECORD,
]
_GRID = [
    ("--omega-min", dict(type=float, default=-1.5, help="grid start [kappa2]")),
    ("--omega-max", dict(type=float, default=1.5, help="grid end [kappa2]")),
    ("--count", dict(type=int, default=4001, help="number of grid points")),
]
_MODE = [("--mode", dict(type=int, choices=(1, 2), default=1))]
_OUTPUT = [("--output", dict(required=True))]

COMMANDS = {
    "spectrum": (cmd_spectrum, "phonon fluctuation spectrum CSV", [
        *_SYSTEM, *_GRID, *_MODE,
        ("--normalized", dict(action="store_true",
                              help="emit gamma*S/(2*nbar) instead of S")),
        *_OUTPUT]),
    "antistokes": (cmd_antistokes, "generated anti-Stokes spectrum CSV",
                   [*_SYSTEM, *_GRID, *_OUTPUT]),
    "cooling-ratio": (cmd_cooling_ratio,
                      "steady-state occupancy over thermal occupancy",
                      [*_SYSTEM, *_MODE, ("--output", {})]),
    "simulate": (cmd_simulate, "Monte Carlo occupancy estimate", [
        *_SYSTEM,
        ("--n-traj", dict(type=int, default=200)),
        ("--t-end", dict(type=float, default=2000.0)),
        ("--dt", dict(type=float, default=0.25)),
        ("--burn-in", dict(type=float, default=1000.0)),
        ("--seed", dict(type=int, default=0)),
        ("--dump-dir", dict(help="write per-trajectory CSV records here (large)")),
        ("--output", dict(help="stats JSON path"))]),
    "sweep": (cmd_sweep, "sweep one parameter, tabulate a metric", [
        *_SYSTEM,
        ("--axis", dict(required=True, choices=_SWEEP_FIELDS)),
        ("--from", dict(dest="start", type=float, required=True)),
        ("--to", dict(dest="stop", type=float, required=True)),
        ("--count", dict(type=int, required=True)),
        ("--scale", dict(choices=("linear", "log"), default="linear")),
        ("--metric", dict(default="cooling-ratio:1", help="MODE is 1 if omitted",
                          choices=[f"{name}{mode}"
                                   for name in ("cooling-ratio", "occupancy")
                                   for mode in ("", ":1", ":2")])),
        *_OUTPUT]),
    "collective": (cmd_collective, "super/sub-radiant mode rates",
                   [*_SYSTEM, ("--output", dict(help="JSON output path"))]),
    "three-wave": (cmd_three_wave, "deterministic three-wave trajectory", [
        ("--kappa1", dict(type=float, default=1.0)),
        ("--gamma", dict(type=float, default=0.0)),
        ("--delta1", dict(type=float, default=0.0)),
        ("--delta2", dict(type=float, default=0.0)),
        ("--mismatch", dict(type=float, default=0.0,
                            help="three-wave frequency mismatch [kappa2]")),
        ("--beta", dict(type=_complex, default=0j)),
        ("--pump", dict(type=_complex, default=0j)),
        ("--a1", dict(type=_complex, default=0j)),
        ("--a2", dict(type=_complex, default=0j)),
        ("--u", dict(type=_complex, default=0j)),
        ("--t-end", dict(type=float, required=True)),
        ("--dt", dict(type=float, required=True)),
        *_RECORD, *_OUTPUT]),
    "coupling": (cmd_coupling,
                 "acoustic coupling constant from mode-field files", [
        ("--phi1", dict(required=True, help="pump mode field file")),
        ("--phi2", dict(required=True, help="anti-Stokes mode field file")),
        ("--psi", dict(required=True, help="phonon mode field file")),
        ("--gamma-e", dict(type=float, required=True)),
        ("--omega-c1", dict(type=float, required=True)),
        ("--omega-c2", dict(type=float, required=True)),
        ("--eps1", dict(type=float, default=1.0)),
        ("--eps2", dict(type=float, default=1.0)),
        ("--periodic-x", dict(action="store_true")),
        ("--periodic-y", dict(action="store_true")),
        ("--periodic-z", dict(action="store_true")),
        ("--normalize", dict(action="store_true",
                             help="normalize psi to half a quantum first")),
        ("--rho0", dict(type=float, default=1.0)),
        ("--omega-m", dict(type=float, default=1.0)),
        ("--hbar", dict(type=float, default=1.0)),
        *_RECORD,
        ("--output", {})]),
}


def build_parser() -> _Parser:
    """A new phonocool parser of every command, the caller's to keep or
    change; `main` does not use the parsers this returns: it builds its own
    once per process."""
    parser = _Parser(prog="phonocool", allow_abbrev=False,
                     description="Phonon cooling spectra, dynamics, and "
                                 "Monte Carlo (all rates in kappa2 units)")
    parser.add_argument("--version", action="version",
                        version=f"phonocool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for option, kwargs in flags:
            p.add_argument(option, **kwargs)
    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser(), built once per process for `main`.  parse_args
    leaves a parser unchanged, and help reads the terminal width when it
    is printed, not when it is built."""
    return build_parser()


# ---------------------------------------------------------------------------
# entry points


# a builtin arithmetic error's text is the platform's (an errno tuple for a
# float overflow), so it is described by its type instead
_ARITHMETIC = {OverflowError: "a value left the float range",
               ZeroDivisionError: "a division by zero",
               FloatingPointError: "a floating-point operation failed"}


def _failure(exc: Exception) -> str:
    if isinstance(exc, ArithmeticError):
        return next((text for kind, text in _ARITHMETIC.items()
                     if isinstance(exc, kind)), "an arithmetic error")
    return str(exc)


def _dispatch(argv: list[str]) -> int:
    """Parse `argv` and run its command.  A command that wrote its output
    file returns the fields its sidecar adds; this is the one place that
    writes a sidecar, <output>.meta.json, as _meta(args, **record), and
    then prints `wrote <output>`."""
    try:
        args = _parser().parse_args(_expand_config(argv))
        if args.kappa2_hz is not None and not 0 < args.kappa2_hz < np.inf:
            raise CliError("kappa2-hz must be finite and positive, "
                           f"got {args.kappa2_hz!r}")
        try:
            record = COMMANDS[args.command][0](args)
        except (SingularityError, CovarianceError, IntegrationError,
                ArithmeticError, np.linalg.LinAlgError) as exc:
            print(f"numerical failure: {args.command}: {_failure(exc)}",
                  file=sys.stderr)
            return 2
        if record is not None:
            _write_json(f"{args.output}.meta.json", _meta(args, **record))
            print(f"wrote {args.output}")
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """Parse `argv` (default: the process arguments) and run its command;
    returns the exit status: 0 ok, 1 usage or validation failure, 2
    numerical failure.  One parser of every command is built on the first
    call and reused after."""
    return _dispatch(list(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())

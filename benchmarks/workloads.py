"""The four benchmark workloads.

Each workload builds its inputs from the seed once (untimed), then yields
the operations of one pass.  An operation is one call into the program
(a CLI invocation through `cli.main`, or one library call); its check runs
outside the timed region, compares the output with `oracles`, raises
`Mismatch` on a wrong answer, and returns the operation's exact work
counts, keyed by the per-layer metric they feed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import phonocool as pc
from phonocool import cli

import oracles
from oracles import REFERENCE

COMPLEX_BYTES = 16
VECTOR_BYTES = 3 * COMPLEX_BYTES  # one complex 3-vector per grid cell


class Mismatch(AssertionError):
    """The program's output disagrees with the oracle."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]            # timed
    check: Callable[[Any], dict]      # untimed; returns work counts
    prepare: Callable[[], None] | None = None   # untimed


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def expect_close(label: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got, want = np.asarray(got), np.asarray(want)
    expect(got.shape == want.shape,
           f"{label}: shape {got.shape} != expected {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    bad = ~(err <= limit)
    if bad.any():
        i = np.unravel_index(np.argmax(np.where(bad, err - limit, -np.inf)),
                             err.shape) if err.ndim else ()
        raise Mismatch(f"{label}: {int(bad.sum())} value(s) off, e.g. got "
                       f"{got[i]!r}, expected {want[i]!r} (rtol {rtol:g}, "
                       f"atol {float(np.max(atol)):g})")


def run_cli(argv: list[str]) -> str:
    """One CLI invocation in-process; returns its stdout, raises on a
    non-zero exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"phonocool {argv[0]} exited {code}: "
                           f"{err.getvalue().strip()[-300:]}")
    return out.getvalue()


def sizes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def written(path: str) -> int:
    """Bytes of an output file plus its JSON sidecar."""
    return sizes(path, f"{path}.meta.json")


def system_flags(s: oracles.System) -> list[str]:
    return [f"--{k}={float(getattr(s, k))!r}" for k in
            ("delta", "omega", "gamma1", "gamma2", "g1", "g2", "nbar1", "nbar2")]


def read_sidecar(path: str) -> dict:
    with open(f"{path}.meta.json") as fh:
        return json.load(fh)


class Workload:
    name: str
    unit: str                 # the work unit of work_per_s
    expected_calls: dict      # span name -> calls per pass, asserted when traced

    def ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def summary(self, passes: list[dict]) -> dict:
        """Workload-specific figures for the run record."""
        return {}

    def provenance(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# steady-state: parameter-study traffic through the CLI


# the parameters a parameter set varies; kappa2 is the unit and delta stays
# at the reference's 0
SPREAD_FIELDS = ("omega", "gamma1", "gamma2", "g1", "g2", "nbar1", "nbar2")
SPREAD_FACTOR = 2.0


def draw_system(rng: np.random.Generator) -> oracles.System:
    """The reference config with each of SPREAD_FIELDS scaled by its own
    factor, drawn log-uniformly from [1/SPREAD_FACTOR, SPREAD_FACTOR]."""
    factors = SPREAD_FACTOR ** rng.uniform(-1.0, 1.0, len(SPREAD_FIELDS))
    return REFERENCE._replace(**{k: float(getattr(REFERENCE, k) * f)
                                 for k, f in zip(SPREAD_FIELDS, factors)})


class SteadyState(Workload):
    name = "steady-state"
    unit = "occupancy evaluations"
    N_SETS = 16
    SWEEP = np.linspace(0.0, 0.6, 25)
    GRID = np.linspace(-1.5, 1.5, 4001)

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir
        self.sweep_ratio = np.array([
            oracles.cooling_ratio(REFERENCE._replace(g2=float(g)), 1)
            for g in self.SWEEP])
        s1, _, sa = oracles.spectra(REFERENCE, self.GRID)
        self.spectrum = REFERENCE.gamma1 * s1 / (2 * REFERENCE.nbar1)
        self.antistokes = sa
        n_ratio = 2 * self.N_SETS
        self.expected_calls = {
            "cli.run": 3 + n_ratio,
            "spectra.cooling_ratio": len(self.SWEEP) + n_ratio,
            "spectra.occupancy": len(self.SWEEP) + n_ratio,
            "spectra.spectrum": 2,
            "spectra.save_curve": 2,
        }

    def ops(self, k: int) -> list[Op]:
        # fresh parameter sets every pass, so the median pass averages the
        # set-to-set spread of quadrature cost instead of fixing it per seed
        rng = np.random.default_rng([self.seed, k])
        sets = [draw_system(rng) for _ in range(self.N_SETS)]
        path = os.path.join(self.dir, "sweep.csv")
        ops = [Op("cli.sweep", lambda: run_cli(
            ["sweep", "--axis", "g2", "--from", "0", "--to", "0.6",
             "--count", str(len(self.SWEEP)), "--metric", "cooling-ratio:1",
             "--output", path] + system_flags(REFERENCE)),
            lambda out: self._check_sweep(path))]
        for i, s in enumerate(sets):
            for mode in (1, 2):
                p = os.path.join(self.dir, f"ratio{i}_{mode}.csv")
                ops.append(Op("cli.cooling-ratio",
                              lambda p=p, s=s, mode=mode: run_cli(
                                  ["cooling-ratio", "--mode", str(mode),
                                   "--output", p] + system_flags(s)),
                              lambda out, p=p, s=s, mode=mode:
                                  self._check_ratio(out, p, oracles.cooling_ratio(s, mode))))
        for name, want, extra in (("spectrum", self.spectrum, ["--mode", "1", "--normalized"]),
                                  ("antistokes", self.antistokes, [])):
            p = os.path.join(self.dir, f"{name}.csv")
            ops.append(Op(f"cli.{name}",
                          lambda name=name, p=p, extra=extra: run_cli(
                              [name, "--count", str(self.GRID.size),
                               "--output", p] + extra + system_flags(REFERENCE)),
                          lambda out, p=p, want=want: self._check_curve(p, want)))
        return ops

    def _check_sweep(self, path: str) -> dict:
        data = np.loadtxt(path, delimiter=",")
        expect_close("sweep g2", data[:, 0], self.SWEEP, rtol=0, atol=1e-15)
        expect_close("sweep cooling ratio", data[:, 1], self.sweep_ratio, rtol=1e-7)
        for g2, pinned in oracles.PINNED_RATIO.items():
            r = data[np.argmin(np.abs(self.SWEEP - g2)), 1]
            expect(round(r, 3) == pinned, f"R(g2={g2}) = {r:.5f}, pinned {pinned}")
        expect(read_sidecar(path)["command"] == "sweep", "sweep sidecar command")
        return {"spectra.occupancy.points": len(self.SWEEP),
                "cli.bytes_written": written(path)}

    def _check_ratio(self, out: str, path: str, want: float) -> dict:
        mode, ratio = np.loadtxt(path, delimiter=",")
        expect_close("cooling ratio", ratio, want, rtol=1e-7)
        expect(f"R={ratio:.3f}" in out, f"printed {out.strip()!r} for R={ratio!r}")
        expect(read_sidecar(path)["cooling_ratio"] == ratio,
               "sidecar cooling_ratio differs from the CSV")
        return {"spectra.occupancy.points": 1, "cli.bytes_written": written(path)}

    def _check_curve(self, path: str, want: np.ndarray) -> dict:
        data = np.loadtxt(path, delimiter=",")
        expect_close("grid", data[:, 0], self.GRID, rtol=0, atol=1e-15)
        expect_close("spectrum", data[:, 1], want, rtol=1e-9,
                     atol=1e-12 * float(np.max(want)))
        expect(read_sidecar(path)["grid"]["count"] == self.GRID.size,
               "sidecar grid count")
        return {"spectra.spectrum.freq_points": self.GRID.size,
                "cli.bytes_written": written(path)}


# ---------------------------------------------------------------------------
# monte-carlo: three consumers of the batch -> chunk -> step loop


class MonteCarlo(Workload):
    name = "monte-carlo"
    unit = "trajectory-steps"
    # (n_traj, t_end, dt, burn_in); SIMULATE is criterion 4 at a quarter
    # of its ensemble
    SIMULATE = (500, 2200.0, 0.25, 1000.0)
    WELCH = (64, 6000.0, 0.25, 1000.0)
    SEGMENT = 2048
    DUMP = (8, 1200.0, 0.25, 1000.0)
    K_SIGMA = 5.0

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir
        self.params = pc.SystemParams(**REFERENCE._asdict())
        self.n1 = oracles.occupancy(REFERENCE, 1)
        self.sim_mean, _ = oracles.time_average(REFERENCE, *self._steps(self.SIMULATE))
        self.welch_mean, welch_sd = oracles.time_average(REFERENCE, *self._steps(self.WELCH))
        self.welch_sd = welch_sd / np.sqrt(self.WELCH[0])
        n_rec = self._steps(self.WELCH)[2] - self._steps(self.WELCH)[1]
        self.segments = self.WELCH[0] * len(range(0, n_rec - self.SEGMENT + 1,
                                                  self.SEGMENT // 2))
        self.expected_calls = {
            "cli.run": 2, "langevin.simulate_ensemble": 2,
            "langevin.periodogram": 1, "langevin.step_covariance": 3,
            "langevin.dump": self.DUMP[0],
        }

    @staticmethod
    def _steps(cfg):
        _, t_end, dt, burn_in = cfg
        return dt, int(round(burn_in / dt)), int(round(t_end / dt))

    @classmethod
    def _traj_steps(cls, cfg) -> int:
        return cfg[0] * cls._steps(cfg)[2]

    def _flags(self, cfg, seed: int) -> list[str]:
        n, t_end, dt, burn_in = cfg
        return ["--n-traj", str(n), "--t-end", repr(t_end), "--dt", repr(dt),
                "--burn-in", repr(burn_in), "--seed", str(seed)] + system_flags(REFERENCE)

    def ops(self, k: int) -> list[Op]:
        # a fresh stream per pass, so the statistical checks and
        # mc_s_to_1pct average over independent ensembles
        s_sim, s_welch, s_dump = (int(x) for x in
                                  np.random.SeedSequence([self.seed, k]).generate_state(3))
        sim = os.path.join(self.dir, "mc.json")
        dump = os.path.join(self.dir, "mc_dump.json")
        dump_dir = os.path.join(self.dir, "dump")
        n, t_end, dt, burn_in = self.WELCH
        return [
            Op("cli.simulate",
               lambda: run_cli(["simulate", "--output", sim] + self._flags(self.SIMULATE, s_sim)),
               lambda out: self._check_simulate(out, sim, s_sim)),
            Op("lib.periodogram",
               lambda: pc.periodogram(self.params, n, t_end, dt, burn_in, seed=s_welch,
                                      segment_length=self.SEGMENT),
               self._check_welch),
            Op("cli.simulate-dump",
               lambda: run_cli(["simulate", "--output", dump, "--dump-dir", dump_dir]
                               + self._flags(self.DUMP, s_dump)),
               lambda out: self._check_dump(dump, dump_dir),
               prepare=lambda: shutil.rmtree(dump_dir, ignore_errors=True)),
        ]

    def _check_simulate(self, out: str, path: str, seed: int) -> dict:
        expect(f"seed={seed}" in out, "simulate did not print its seed")
        with open(path) as fh:
            stats = json.load(fh)
        expect(stats["n_traj"] == self.SIMULATE[0], "n_traj")
        mean, err = np.array(stats["occupancy_mean"]), np.array(stats["occupancy_stderr"])
        expect(bool(np.all(err > 0)), f"stderr {err}")
        expect_close("MC occupancy", mean, self.sim_mean, rtol=0,
                     atol=self.K_SIGMA * err)
        return {"langevin.simulate_ensemble.traj_steps": self._traj_steps(self.SIMULATE),
                "cli.bytes_written": written(path),
                "mc_rel_var_1pct": float((err[0] / (0.01 * self.n1))**2)}

    def _check_welch(self, w) -> dict:
        expect(w.n_segments == self.segments,
               f"{w.n_segments} segments, expected {self.segments}")
        for label, arr in (("s1", w.s1), ("s2", w.s2), ("s1_stderr", w.s1_stderr),
                           ("s2_stderr", w.s2_stderr)):
            expect(arr.shape == (self.SEGMENT,) and bool(np.all(np.isfinite(arr)))
                   and bool(np.all(arr >= 0)), f"{label} not a finite nonnegative "
                   f"array of {self.SEGMENT} bins")
        expect_close("Welch time-average occupancy", w.occupancy_time_avg,
                     self.welch_mean, rtol=0, atol=self.K_SIGMA * self.welch_sd)
        return {"langevin.periodogram.traj_steps": self._traj_steps(self.WELCH),
                "langevin.periodogram.segments": w.n_segments}

    def _check_dump(self, path: str, dump_dir: str) -> dict:
        n, _, dt, _ = self.DUMP
        _, n_burn, n_tot = self._steps(self.DUMP)
        files = sorted(os.listdir(dump_dir))
        expect(files == [f"traj_{i:05d}.csv" for i in range(n)], f"dump files {files}")
        means = []
        for f in files:
            d = np.loadtxt(os.path.join(dump_dir, f), delimiter=",")
            expect(d.shape == (n_tot - n_burn, 7), f"{f}: shape {d.shape}")
            expect_close(f"{f} t", d[:, 0], (n_burn + 1 + np.arange(n_tot - n_burn)) * dt,
                         rtol=1e-15)
            means.append([np.mean(d[:, 3]**2 + d[:, 4]**2), np.mean(d[:, 5]**2 + d[:, 6]**2)])
        means = np.array(means)
        with open(path) as fh:
            stats = json.load(fh)
        expect_close("dump mean vs reported", stats["occupancy_mean"], means.mean(axis=0),
                     rtol=1e-9)
        expect_close("dump stderr vs reported", stats["occupancy_stderr"],
                     means.std(axis=0, ddof=1) / np.sqrt(n), rtol=1e-9)
        dump_bytes = sizes(*(os.path.join(dump_dir, f) for f in files))
        return {"langevin.simulate_ensemble.traj_steps": self._traj_steps(self.DUMP),
                "langevin.dump.files": len(files), "langevin.dump.bytes": dump_bytes,
                "cli.bytes_written": written(path) + dump_bytes}

    def summary(self, passes: list[dict]) -> dict:
        """mc_s_to_1pct: simulate wall x (stderr_1 / (0.01 n_1))^2, the
        time to a 1 % standard error on the mode-1 occupancy; the median
        wall over passes times the mean variance ratio over passes."""
        walls, ratios = [], []
        for p in passes:
            op = next(op for op in p["ops"] if op["name"] == "cli.simulate")
            if op["ok"]:
                walls.append(op["seconds"])
                ratios.append(op["work"]["mc_rel_var_1pct"])
        if not walls:
            return {}
        return {"mc_s_to_1pct": float(np.median(walls) * np.mean(ratios)),
                "n1_exact": self.n1}


# ---------------------------------------------------------------------------
# mode-overlap: coupling kernels on fields below and above the LLC


def plane_wave_values(n: int, k: np.ndarray, amp: complex, pol: np.ndarray) -> np.ndarray:
    x = np.arange(n) / n
    f = [np.exp(1j * kj * x) for kj in k]
    return amp * np.einsum("i,j,k,c->ijkc", *f, pol)


def unit_complex(rng, n=3) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


class ModeOverlap(Workload):
    name = "mode-overlap"
    unit = "grid cells"
    SMALL, LARGE = 48, 128
    PERIODIC = (True, True, True)

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        rng = np.random.default_rng([seed, 2])
        # no zero wavevector component, so no field component is exactly
        # zero and the text size does not depend on the seed
        q = 2 * np.pi * rng.choice([-2.0, -1.0, 1.0, 2.0], size=3)
        k1 = 2 * np.pi * rng.integers(-3, 4, size=3).astype(float)
        pol1 = unit_complex(rng)
        pol2 = pol1 if rng.uniform() < 0.5 else unit_complex(rng)
        def amp():
            return rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())

        c = self.c = dict(q=q, k1=k1, pol1=pol1, pol2=pol2, pol_psi=q / np.linalg.norm(q),
                          amp1=amp(), amp2=amp(), amp_psi=amp())
        for key in ("gamma_e", "omega_c1", "omega_c2", "eps1", "eps2",
                    "rho0", "omega_m", "hbar"):
            c[key] = float(rng.uniform(0.5, 3.0))
        self.phys = [c["gamma_e"], c["omega_c1"], c["omega_c2"], c["eps1"], c["eps2"]]

        self.small = [self._field(self.SMALL, kk, a, p) for kk, a, p in self._waves()]
        self.paths = [os.path.join(self.dir, f"{nm}.txt") for nm in ("phi1", "phi2", "psi")]
        amp_norm = oracles.normalized_amplitude(c["amp_psi"], c["rho0"], c["omega_m"],
                                                c["hbar"], 1.0)
        self.beta_small = oracles.beta_plane_waves(c, amp_norm, 1.0 / self.SMALL)[0]

        (k_1, a1, p1), (k_2, a2, p2), (k_p, ap, pp) = self._waves()
        self.phi1 = self._field(self.LARGE, k_1, a1, p1)
        self.phi2 = self._field(self.LARGE, k_2, a2, p2)
        self.psi_values = plane_wave_values(self.LARGE, k_p, ap, pp)
        self.axes = tuple(np.arange(self.LARGE) / self.LARGE for _ in range(3))
        self.beta_acoustic, self.beta_raman = oracles.beta_plane_waves(
            c, c["amp_psi"], 1.0 / self.LARGE)
        self.raman = pc.RamanTensor(1j * c["gamma_e"] / (4 * np.pi)
                                    * np.einsum("ij,k->ijk", np.eye(3), q))
        self.expected_calls = {
            "coupling.save_mode_field": 3, "coupling.load_mode_field": 3, "cli.run": 1,
            "coupling.normalize_mode": 1, "coupling.beta_acoustic": 2,
            "coupling.divergence": 2, "coupling.longitudinal_check": 1,
            "coupling.curl": 1, "coupling.beta_raman": 1,
        }

    def _waves(self):
        c = self.c
        return ((c["k1"], c["amp1"], c["pol1"]), (c["k1"] + c["q"], c["amp2"], c["pol2"]),
                (c["q"], c["amp_psi"], c["pol_psi"]))

    def _field(self, n, k, amp, pol):
        axes = tuple(np.arange(n) / n for _ in range(3))
        return pc.ModeField(axes, plane_wave_values(n, k, amp, pol), periodic=self.PERIODIC)

    def provenance(self) -> dict:
        return {"field_bytes": {str(n): n**3 * VECTOR_BYTES for n in (self.SMALL, self.LARGE)}}

    def ops(self, k: int) -> list[Op]:
        state = {}
        ops = [Op("lib.save_mode_field", lambda p=p, f=f: pc.save_mode_field(p, f),
                  lambda _, p=p, f=f: self._check_saved(p, f))
               for p, f in zip(self.paths, self.small)]
        out = os.path.join(self.dir, "beta.csv")
        c = self.c
        argv = ["coupling", "--phi1", self.paths[0], "--phi2", self.paths[1],
                "--psi", self.paths[2], "--periodic-x", "--periodic-y", "--periodic-z",
                "--normalize", "--output", out]
        argv += [f"--{key.replace('_', '-')}={c[key]!r}" for key in
                 ("gamma_e", "omega_c1", "omega_c2", "eps1", "eps2", "rho0", "omega_m", "hbar")]
        ops.append(Op("cli.coupling", lambda: run_cli(argv),
                      lambda text: self._check_coupling(text, out)))

        def build():
            state["psi"] = pc.ModeField(self.axes, self.psi_values, periodic=self.PERIODIC,
                                        longitudinal=True)
            return state["psi"]

        def psi():
            if "psi" not in state:
                raise RuntimeError("no phonon field: its longitudinal build failed")
            return state["psi"]

        def acoustic():
            return pc.beta_acoustic(self.phi2, self.phi1, psi(), *self.phys)

        def raman():
            return pc.beta_raman(self.raman, self.phi2, self.phi1, psi(), *self.phys[1:])

        ops += [Op("lib.ModeField-longitudinal", build, self._check_build),
                Op("lib.beta_acoustic", acoustic, lambda b: self._check_beta(b, state, "acoustic")),
                Op("lib.beta_raman", raman, lambda b: self._check_beta(b, state, "raman"))]
        return ops

    def _check_saved(self, path: str, f) -> dict:
        n = f.shape[0]
        with open(path, "rb") as fh:
            header = fh.readline().decode().split()
            first = np.array(fh.readline().decode().split(), dtype=float)
            fh.seek(-512, os.SEEK_END)
            last = np.array(fh.read().decode().splitlines()[-1].split(), dtype=float)
        expect([int(t) for t in header] == [n, n, n], f"{path}: header {header}")
        for row, idx in ((first, (0, 0, 0)), (last, (n - 1,) * 3)):
            v = f.values[idx]
            want = [a[i] for a, i in zip(f.axes, idx)] + [x for z in v for x in (z.real, z.imag)]
            expect_close(f"{os.path.basename(path)} row {idx}", row, np.array(want), rtol=0)
        nbytes = os.path.getsize(path)
        return {"coupling.save_mode_field.bytes": nbytes,
                "coupling.save_mode_field.cells": n**3,
                "coupling.save_mode_field.bytes_computed": n**3 * VECTOR_BYTES}

    def _check_coupling(self, text: str, out: str) -> dict:
        re_, im_ = np.loadtxt(out, delimiter=",")
        expect_close("CLI beta", complex(re_, im_), self.beta_small, rtol=1e-9)
        expect(f"beta={complex(re_, im_):.12g}" in text, "printed beta differs from the CSV")
        n3 = self.SMALL**3
        return {"coupling.load_mode_field.bytes": sizes(*self.paths),
                "coupling.beta_acoustic.cells": n3,
                "coupling.beta_acoustic.bytes_computed": 3 * n3 * VECTOR_BYTES,
                "cli.bytes_written": written(out)}

    def _check_build(self, field_) -> dict:
        expect(field_.shape == (self.LARGE,) * 3 and field_.longitudinal,
               "longitudinal field not built as given")
        expect(bool(np.shares_memory(field_.values, self.psi_values))
               or bool(np.array_equal(field_.values, self.psi_values)),
               "field values differ from the input")
        n3 = self.LARGE**3
        return {"coupling.longitudinal_check.cells": n3,
                "coupling.longitudinal_check.bytes_computed": n3 * VECTOR_BYTES}

    def _check_beta(self, beta: complex, state: dict, route: str) -> dict:
        want = self.beta_acoustic if route == "acoustic" else self.beta_raman
        expect_close(f"beta_{route} at {self.LARGE}^3", complex(beta), want, rtol=1e-9)
        state[route] = complex(beta)
        if route == "raman" and "acoustic" in state:
            rel = abs(state["acoustic"] - state["raman"]) / abs(state["raman"])
            expect(rel <= 1e-2, f"acoustic vs Raman beta differ by {rel:.3g} (limit 1e-2)")
        n3 = self.LARGE**3
        return {f"coupling.beta_{route}.cells": n3,
                f"coupling.beta_{route}.bytes_computed": 3 * n3 * VECTOR_BYTES}


# ---------------------------------------------------------------------------
# three-wave: the pure-Python RK4 loop


class ThreeWave(Workload):
    name = "three-wave"
    unit = "RK4 steps"
    # the README's lossy configuration, run for 10^5 steps
    LOSSY = dict(beta=0.5, pump=1.0, kappa1=0.3, gamma=0.05, t_end=1000.0, dt=0.01)
    LOSSLESS_STEPS = 50_000

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        rng = np.random.default_rng([seed, 3])

        def polar(lo, hi):
            return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))

        self.lossy = dict(self.LOSSY, a1=polar(0.2, 1.0), a2=polar(0.2, 1.0), u=polar(0.5, 2.0))
        self.n_lossy = int(round(self.LOSSY["t_end"] / self.LOSSY["dt"]))
        self.t = np.arange(self.n_lossy + 1) * self.LOSSY["dt"]
        self.reference = oracles.three_wave_reference(self.lossy, self.t)

        beta = np.exp(2j * np.pi * rng.uniform())
        init = dict(a1=polar(0.5, 1.5), a2=polar(0.2, 1.0), u=polar(0.0, 1.0))
        amp = max(abs(v) for v in init.values())
        self.lossless_dt = 1e-3 / amp
        self.lossless_t_end = self.LOSSLESS_STEPS * self.lossless_dt
        self.lossless = dict(init, beta=beta, kappa1=0.0, gamma=0.0, pump=0.0)
        self.lossless_params = pc.ThreeWaveParams(kappa1=0.0, kappa2=0.0, Gamma=0.0, beta=beta)
        self.lossless_init = pc.ThreeWaveState(**init)
        self.lossless_end = oracles.three_wave_reference(
            dict(self.lossless, kappa2=0.0), np.array([0.0, self.lossless_t_end]))[-1]

        self.g = float(rng.uniform(0.1, 0.5))
        self.collective_params = pc.SystemParams(kappa2=1.0, g1=self.g, g2=self.g, nbar1=1.0)
        self.expected_calls = {"cli.run": 1, "dynamics.evolve_three_wave": 2,
                               "dynamics.save_csv": 1, "dynamics.collective_rates": 1}

    def ops(self, k: int) -> list[Op]:
        path = os.path.join(self.dir, "traj.csv")
        c = self.lossy
        argv = ["three-wave", "--output", path] + [
            f"--{key.replace('_', '-')}={c[key]!r}" for key in
            ("beta", "pump", "kappa1", "gamma", "t_end", "dt", "a1", "a2", "u")]
        return [
            Op("cli.three-wave", lambda: run_cli(argv), lambda out: self._check_lossy(path)),
            Op("lib.evolve_three_wave-lossless",
               lambda: pc.evolve_three_wave(self.lossless_params, self.lossless_init,
                                            t_end=self.lossless_t_end, dt=self.lossless_dt),
               self._check_lossless),
            Op("lib.collective_rates", lambda: pc.collective_rates(self.collective_params),
               self._check_collective),
        ]

    def _check_lossy(self, path: str) -> dict:
        d = np.loadtxt(path, delimiter=",")
        expect(d.shape == (self.n_lossy + 1, 7), f"trajectory shape {d.shape}")
        expect_close("t", d[:, 0], self.t, rtol=1e-15)
        got = d[:, 1::2] + 1j * d[:, 2::2]
        expect_close("lossy trajectory vs DOP853", got, self.reference, rtol=0, atol=1e-6)
        expect(read_sidecar(path)["command"] == "three-wave", "three-wave sidecar")
        nbytes = os.path.getsize(path)
        return {"dynamics.evolve_three_wave.steps": self.n_lossy,
                "dynamics.save_csv.bytes": nbytes, "cli.bytes_written": written(path)}

    def _check_lossless(self, traj) -> dict:
        expect(len(traj) == self.LOSSLESS_STEPS + 1, f"{len(traj)} samples")
        drift = oracles.manley_rowe_drift(traj.a1, traj.a2, traj.u)
        expect(drift <= 1e-8, f"Manley-Rowe drift {drift:.3g} (limit 1e-8)")
        expect_close("lossless end state vs DOP853", np.array([traj.a1[-1], traj.a2[-1], traj.u[-1]]),
                     self.lossless_end, rtol=0, atol=1e-6)
        return {"dynamics.evolve_three_wave.steps": self.LOSSLESS_STEPS}

    def _check_collective(self, modes) -> dict:
        expect(modes.labeling == "collective", f"labeling {modes.labeling}")
        expect_close("super-radiant rate", complex(modes.rate_plus), 2 * self.g**2,
                     rtol=0, atol=1e-12)
        expect_close("sub-radiant rate", complex(modes.rate_minus), 0.0, rtol=0, atol=1e-12)
        return {}


WORKLOADS = {w.name: w for w in (SteadyState, MonteCarlo, ModeOverlap, ThreeWave)}

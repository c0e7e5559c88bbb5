"""phonocool benchmark: one workload, one closed-loop caller, one process.

    python3 benchmarks/run.py --workload steady-state --seed 1 --seconds 12 --trace 0

Runs whole passes of the workload until --seconds of pass time have been
measured, checks every operation's output against an independent oracle
outside the timed region, and prints, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 traced and untraced passes
alternate and the metrics are the per-layer ones.  The line before it is
the run record: provenance, work counts per pass, raw and calibrated pass
times, and failures.

Pass and operation times are reported in reference seconds: each is
scaled by CAL_REF_S over the time of a fixed calibration kernel measured
around it, which cancels the host's slow and fast phases (see README.md).
setup_s is in measured seconds.

The program is imported from src/ of the checkout this file lives in; the
run exits non-zero without a result if that source tree is missing.
"""
from __future__ import annotations

import argparse
import cmath
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_SAMPLES = 9
TAIL_BEYOND = 10
# calibration kernel time on a quiet 2-vCPU Xeon; sets the scale of a
# reference second
CAL_REF_S = 0.022
CAL_EVERY_S = 0.5
CAL_BIG = np.linspace(0.0, 1.0, 250_000)

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import phonocool
from phonocool import cli
cli.build_parser()
print(time.perf_counter() - t0)
"""

# the work counts whose sum is a workload's work unit per pass
WORK_KEY = {"steady-state": ("spectra.occupancy.points",),
            "monte-carlo": ("langevin.simulate_ensemble.traj_steps",
                            "langevin.periodogram.traj_steps"),
            "mode-overlap": ("cells",),
            "three-wave": ("dynamics.evolve_three_wave.steps",)}
RATE_NAME = {"steady-state": "points_per_s", "monte-carlo": "traj_steps_per_s",
             "mode-overlap": "cells_per_s", "three-wave": "rk4_steps_per_s"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def load_program():
    """Import phonocool from this checkout's src/, never from elsewhere."""
    if not (SRC / "phonocool" / "__init__.py").is_file():
        raise SystemExit(f"error: no phonocool source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import phonocool
    if Path(phonocool.__file__).resolve().parent != SRC / "phonocool":
        raise SystemExit(f"error: imported phonocool from {phonocool.__file__}, not {SRC}")
    return phonocool


def calibrate() -> float:
    """Seconds for a fixed mix of work shaped like the workloads' (an
    interpreter loop, Python calls on complex scalars, small-array matmuls
    and a streaming numpy pass) that does not touch the program."""
    def rhs(t, y):
        return -0.3 * y + 1j * y * cmath.exp(1j * t)

    small = np.ones((64, 3), complex)
    eye = np.eye(3)
    t0 = time.perf_counter()
    acc, y = 0.0, 1.0 + 0j
    for i in range(40_000):
        acc += i * 0.5
    for n in range(8_000):
        y += 1e-3 * rhs(n * 1e-3, y)
    for _ in range(400):
        small = small @ eye + 1e-9
    for _ in range(32):
        acc += float(np.sqrt(CAL_BIG).sum())
    return time.perf_counter() - t0


def measure_setup() -> list[float]:
    """Import plus parser construction, timed in SETUP_SAMPLES fresh
    interpreters after one discarded warm-up that may compile bytecode.
    These stay in measured seconds: calibration does not track import time
    (see README.md)."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples[1:]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, p): the highest percentile of pass time with min(10, N // 4)
    passes beyond it.  From N = 40 on this is the highest percentile with 10
    passes beyond it; shorter runs get their upper quartile (the maximum
    below N = 4), so the figure moves smoothly with N and never drops to
    the median."""
    s = sorted(times)
    beyond = min(TAIL_BEYOND, len(s) // 4)
    return s[-1 - beyond], 100.0 * (len(s) - beyond) / len(s)


def provenance(pc, seed: int, workload) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PHONOCOOL_THREADS")}
    threads = os.environ.get("PHONOCOOL_THREADS", "").strip()
    # ThreadPoolExecutor's default when PHONOCOOL_THREADS is unset
    workers = int(threads) if threads else min(32, (os.cpu_count() or 1) + 4)

    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    digest = hashlib.sha256()
    for f in sorted((SRC / "phonocool").glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or 0) or None
    except (OSError, ValueError):
        llc = None
    record = {
        "workload": workload.name, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "phonocool": pc.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": env, "sweep_workers": workers,
        "git_sha": sha, "git_dirty": dirty, "src_sha256": digest.hexdigest(),
        "llc_bytes": llc,
    }
    extra = workload.provenance()
    if "field_bytes" in extra and llc:
        extra["field_over_llc"] = {n: b / llc for n, b in extra["field_bytes"].items()}
    record.update(extra)
    return record


def run_pass(workload, k: int, tracer=None, package=None) -> dict:
    """One pass; op and pass "seconds" are calibrated, "raw_seconds" is
    the measured pass time."""
    ops = workload.ops(k)
    gc.collect()
    cal = [calibrate()]
    last_cal = time.perf_counter()
    if tracer is not None:
        tracer.install(package)
        tracer.begin()
    records, raw = [], 0.0
    try:
        for op in ops:
            if time.perf_counter() - last_cal > CAL_EVERY_S:
                cal.append(calibrate())
                last_cal = time.perf_counter()
            if op.prepare is not None:
                op.prepare()
            error, work = None, {}
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation, counted below
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            raw += seconds
            if error is None:
                try:
                    work = op.check(result) or {}
                except Exception as exc:  # a wrong answer, counted below
                    error = f"{type(exc).__name__}: {exc}"
                    if not isinstance(exc, AssertionError):
                        traceback.print_exc(file=sys.stderr)
            records.append({"name": op.name, "seconds": seconds, "ok": error is None,
                            "error": error, "work": work})
    finally:
        spans = tracer.end() if tracer is not None else None
        if tracer is not None:
            tracer.uninstall()
    cal.append(calibrate())
    scale = CAL_REF_S / statistics.median(cal)
    for r in records:
        r["seconds"] *= scale
    return {"seconds": raw * scale, "raw_seconds": raw, "scale": scale, "cal": cal,
            "ops": records, "traced": tracer is not None, "spans": spans}


def work_counts(p: dict) -> dict:
    counts: dict[str, float] = {}
    for op in p["ops"]:
        for key, v in op["work"].items():
            if "." in key:
                counts[key] = counts.get(key, 0) + v
    counts["cells"] = sum(v for key, v in counts.items() if key.endswith(".cells"))
    return counts


def op_seconds(passes: list[dict]) -> dict:
    """Median over passes of each operation's summed time in a pass."""
    per: dict[str, list] = {}
    for p in passes:
        sums: dict[str, float] = {}
        for op in p["ops"]:
            sums[op["name"]] = sums.get(op["name"], 0.0) + op["seconds"]
        for name, v in sums.items():
            per.setdefault(name, []).append(v)
    return {name: statistics.median(v) for name, v in per.items()}


def layer_metrics(workload, traced: list[dict], untraced: list[dict]) -> dict:
    import tracer as tr
    rows = []
    for p in traced:
        row = tr.summarize(p["spans"])
        for name, n in workload.expected_calls.items():
            got = row.get(f"{name}.calls", 0)
            if got != n:
                raise SystemExit(f"error: traced pass saw {got} calls of {name}, "
                                 f"expected {n}; a binding site was missed")
        row = {k: v * p["scale"] if k.endswith("_s") else v for k, v in row.items()}
        row.update(work_counts(p))
        rows.append(row)
    wall_t = statistics.median(p["seconds"] for p in traced)
    out = {"trace.wall_s": wall_t,
           "trace.overhead_s": wall_t - statistics.median(p["seconds"] for p in untraced)}
    return {name: {"value": out[name] if name in out else
                   float(statistics.median(r.get(name, 0.0) for r in rows)), "unit": unit}
            for name, unit in per_layer_metrics()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("steady-state", "monte-carlo", "mode-overlap", "three-wave"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pc = load_program()
    calibrate()  # warm-up: the first call pays for its allocations
    setup = measure_setup()
    import workloads

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = None
        if args.trace:
            import tracer as tr
            tracer = tr.Tracer()
        passes, measured, k = [], 0.0, 0
        while measured < args.seconds or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and k % 2 == 1
            p = run_pass(workload, k, tracer if traced else None, pc)
            passes.append(p)
            measured += p["raw_seconds"]
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    for op in failed[:5]:
        print(f"failed {op['name']}: {op['error']}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    times = [p["seconds"] for p in plain]
    wall = statistics.median(times)
    tail_s, tail_p = tail(times)
    work = work_counts(plain[0])
    units = sum(work.get(key, 0) for key in WORK_KEY[args.workload])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "provenance": provenance(pc, args.seed, workload),
        "passes": len(plain), "pass_seconds": times,
        "raw_pass_seconds": [p["raw_seconds"] for p in plain],
        "raw_wall_s": statistics.median(p["raw_seconds"] for p in plain),
        "calibration_s": [p["cal"] for p in plain], "cal_ref_s": CAL_REF_S,
        "op_seconds": op_seconds(plain), "wall_tail_percentile": tail_p,
        "setup_samples_s": setup,
        "work_unit": workload.unit, "work_per_pass": work,
        RATE_NAME[args.workload]: units / wall,
        "failed_ratio": len(failed) / len(ops),
        "failures": [f"{op['name']}: {op['error']}" for op in failed[:20]],
        "traced_threads": len({s.thread for p in passes if p["traced"] for s in p["spans"]}),
        **workload.summary(plain),
    }
    if args.trace:
        metrics = layer_metrics(workload, [p for p in passes if p["traced"]], plain)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "wall_tail_s": {"value": tail_s, "unit": "s"},
            "work_per_s": {"value": units / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's correctness gate and trace assertions.

    python3 benchmarks/selftest.py

For each of the four workloads, built from the fixed seed SEED, one pass
runs as in the benchmark and must have no failed operation.  Then passes
run with the program's results deliberately perturbed at every binding
site, one group of perturbations per pass:
wrong values (relative 1e-6 for deterministic outputs, x1.5 for Monte Carlo
estimates), and a valid longitudinal field rejected.  Every operation must
be counted as failed in at least one of those passes.  Finally a traced
pass with one binding site left unwrapped must trip the call-count
assertion.  Exits 0 when all of this holds.
"""
from __future__ import annotations

import dataclasses
import shutil
import sys

import run
import tracer as tr

EPS = 1e-6
SEED = 0


def perturbations(pc) -> list[list[tuple[object, object]]]:
    """Groups of (original function, replacement giving a wrong answer)."""
    rep = dataclasses.replace
    sp, lv, cp, dy = pc.spectra, pc.langevin, pc.coupling, pc.dynamics

    def after(fn, wrong):
        return lambda *a, **k: wrong(fn(*a, **k))

    def reject(field_):
        raise cp.GridError("perturbed: valid longitudinal field rejected")

    def traj(t):
        return rep(t, a1=t.a1 * (1 + 10 * EPS))

    def curve(c):
        return rep(c, values=c.values * (1 + EPS))

    values = [
        (sp.occupancy, after(sp.occupancy, lambda v: v * (1 + EPS))),
        (sp.phonon_spectrum, after(sp.phonon_spectrum, curve)),
        (sp.antistokes_spectrum, after(sp.antistokes_spectrum, curve)),
        (lv.simulate_ensemble, after(lv.simulate_ensemble, lambda s: rep(
            s, occupancy_mean=tuple(1.5 * m for m in s.occupancy_mean)))),
        (lv.periodogram, after(lv.periodogram, lambda w: rep(
            w, occupancy_time_avg=tuple(1.5 * m for m in w.occupancy_time_avg)))),
        (cp.save_mode_field, lambda path, f, save=cp.save_mode_field:
            save(path, rep(f, values=f.values * (1 + EPS)))),
        (cp.beta_acoustic, after(cp.beta_acoustic, lambda b: b * (1 + EPS))),
        (cp.beta_raman, after(cp.beta_raman, lambda b: b * (1 + EPS))),
        (dy.evolve_three_wave, after(dy.evolve_three_wave, traj)),
        (dy.collective_rates, after(dy.collective_rates, lambda m: rep(
            m, rate_plus=m.rate_plus * (1 + EPS)))),
    ]
    return [values, [(cp._check_longitudinal, reject)]]


def check_gate(pc, workloads, name: str) -> bool:
    workdir = run.WORKDIR / f"selftest-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](SEED, str(workdir))
        clean = run.run_pass(wl, 0)
        perturbed = []
        for group in perturbations(pc):
            patches = []
            for orig, wrong in group:
                patches += tr.rebind(pc, orig, wrong)
            try:
                perturbed.append(run.run_pass(wl, 0))
            finally:
                tr.unbind(patches)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = True
    names = dict.fromkeys(op["name"] for op in clean["ops"])
    for op_name in names:
        idx = [i for i, op in enumerate(clean["ops"]) if op["name"] == op_name]
        passed = sum(clean["ops"][i]["ok"] for i in idx)
        caught = [i for i in idx if any(not p["ops"][i]["ok"] for p in perturbed)]
        errors = [p["ops"][idx[0]]["error"] for p in perturbed if p["ops"][idx[0]]["error"]]
        good = passed == len(idx) and len(caught) == len(idx)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name:13s} {op_name:30s} clean {passed}/{len(idx)} "
              f"passed, perturbed {len(caught)}/{len(idx)} counted failed"
              + (f": {errors[0][:100]}" if errors else ""))
    return ok


def check_missed_binding(pc, workloads) -> bool:
    """Unwrap cli.simulate_ensemble after installing the tracer: the traced
    pass must then fail the call-count assertion."""
    workdir = run.WORKDIR / "selftest-binding"
    workdir.mkdir(parents=True, exist_ok=True)
    orig = pc.langevin.simulate_ensemble
    tracer = tr.Tracer()
    install = tracer.install

    def install_but_miss_one(package):
        names = install(package)
        package.cli.simulate_ensemble = orig
        return names

    tracer.install = install_but_miss_one
    try:
        wl = workloads.WORKLOADS["monte-carlo"](SEED, str(workdir))
        untraced = run.run_pass(wl, 0)
        traced = run.run_pass(wl, 1, tracer, pc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        run.layer_metrics(wl, [traced], [untraced])
    except SystemExit as exc:
        print(f"ok   missed binding detected: {exc}")
        return True
    print("FAIL missed binding (cli.simulate_ensemble) not detected")
    return False


def main() -> int:
    pc = run.load_program()
    import workloads
    ok = True
    try:
        for name in workloads.WORKLOADS:
            ok &= check_gate(pc, workloads, name)
        ok &= check_missed_binding(pc, workloads)
    finally:
        try:
            run.WORKDIR.rmdir()
        except OSError:
            pass
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

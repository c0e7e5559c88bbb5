import cmath
import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phonocool import dynamics
from phonocool import (
    IntegrationError,
    SystemParams,
    ThreeWaveParams,
    ThreeWaveState,
    adiabatic_reduce,
    collective_rates,
    drift_matrix,
    evolve_three_wave,
)

from _three_wave_reference import rk4_reference, three_wave_reference

FIG2 = SystemParams(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01,
                    gamma2=0.01, g1=0.3, g2=0.5, nbar1=100.0)


# ---------------------------------------------------------------------------
# three-wave evolution


def test_decoupled_amplitudes_decay_exponentially():
    p = ThreeWaveParams(kappa1=0.3, kappa2=1.0, Gamma=0.1)
    init = ThreeWaveState(a1=1.0, a2=0.8, u=0.5)
    traj = evolve_three_wave(p, init, t_end=3.0, dt=0.005)
    assert np.allclose(np.abs(traj.a2), 0.8 * np.exp(-1.0 * traj.t), atol=1e-9)
    assert np.allclose(np.abs(traj.a1), 1.0 * np.exp(-0.3 * traj.t), atol=1e-9)
    assert np.allclose(np.abs(traj.u), 0.5 * np.exp(-0.1 * traj.t), atol=1e-9)


def test_manley_rowe_invariants_short_run():
    p = ThreeWaveParams(kappa1=0.0, kappa2=0.0, Gamma=0.0, beta=1.0)
    init = ThreeWaveState(a1=1.0, a2=0.5, u=0.0)
    traj = evolve_three_wave(p, init, t_end=20.0, dt=1e-3)
    i1 = np.abs(traj.a1)**2 + np.abs(traj.a2)**2
    i2 = np.abs(traj.a2)**2 + np.abs(traj.u)**2
    assert np.max(np.abs(i1 - i1[0])) / i1[0] < 1e-10
    assert np.max(np.abs(i2 - i2[0])) / i2[0] < 1e-10
    # the fields actually exchange energy, so the invariants are nontrivial
    assert np.abs(traj.u).max() > 0.1


def test_driven_pump_reaches_fixed_point():
    p = ThreeWaveParams(kappa1=0.5, kappa2=1.0, Gamma=0.1, pump=0.7)
    traj = evolve_three_wave(p, ThreeWaveState(a1=0, a2=0, u=0),
                             t_end=40.0, dt=0.02)
    assert traj.a1[-1] == pytest.approx(0.7, abs=1e-6)


def test_stability_guard_triggers():
    p = ThreeWaveParams(kappa1=1.0, kappa2=1.0, Gamma=0.0)
    with pytest.raises(IntegrationError, match="stability guard"):
        evolve_three_wave(p, ThreeWaveState(a1=1, a2=1, u=1),
                          t_end=1.0, dt=0.2)
    with pytest.raises(IntegrationError, match="dt must be positive"):
        evolve_three_wave(p, ThreeWaveState(a1=1, a2=1, u=1),
                          t_end=1.0, dt=0.0)


def test_trajectory_samples_every_step():
    p = ThreeWaveParams(kappa1=0.3, kappa2=1.0, Gamma=0.1)
    traj = evolve_three_wave(p, ThreeWaveState(a1=1, a2=0, u=0),
                             t_end=1.0, dt=0.01)
    assert len(traj) == 101
    assert traj.t[10] == pytest.approx(0.1)
    assert traj.a1.shape == traj.a2.shape == traj.u.shape == traj.t.shape


def test_trajectory_csv_export(tmp_path):
    p = ThreeWaveParams(kappa1=0.3, kappa2=1.0, Gamma=0.1)
    traj = evolve_three_wave(p, ThreeWaveState(a1=1, a2=0.5j, u=0),
                             t_end=0.1, dt=0.01)
    path = tmp_path / "traj.csv"
    traj.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[1].startswith("# t, Re(a1)")
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (11, 7)
    assert data[0, 4] == pytest.approx(0.5)  # Im(a2) at t=0


# complex coupling and pump, both detunings and the mismatch nonzero
DETUNED = ThreeWaveParams(kappa1=0.3, kappa2=1.0, Gamma=0.1, Delta1=0.4,
                          Delta2=-0.25, delta=0.37, beta=0.6 + 0.45j,
                          pump=0.5 - 0.3j)
DETUNED_INIT = ThreeWaveState(a1=1.0 + 0.2j, a2=0.5j, u=0.3 - 0.1j)


def test_detuned_trajectory_matches_adaptive_reference():
    traj = evolve_three_wave(DETUNED, DETUNED_INIT, t_end=5.0, dt=0.01)
    ref = three_wave_reference(DETUNED, DETUNED_INIT, traj.t)
    got = np.column_stack([traj.a1, traj.a2, traj.u])
    assert np.abs(got - ref).max() < 1e-8
    # the coupling moves the fields well beyond the tolerance
    free = three_wave_reference(replace(DETUNED, beta=0j), DETUNED_INIT, traj.t)
    assert np.abs(got - free).max() > 1e-2


@pytest.mark.parametrize("delta", [9.0, -9.0])
def test_large_mismatch_matches_adaptive_reference(delta):
    # dt*|delta| = 0.09 is just inside the stability guard; the phase
    # e^{i delta t} is kept in the right-hand side, which at this mismatch
    # is two orders of magnitude more accurate than integrating a2 in the
    # frame rotating with delta and rotating back afterwards
    p = replace(DETUNED, delta=delta)
    traj = evolve_three_wave(p, DETUNED_INIT, t_end=5.0, dt=0.01)
    ref = three_wave_reference(p, DETUNED_INIT, traj.t)
    got = np.column_stack([traj.a1, traj.a2, traj.u])
    assert np.abs(got - ref).max() < 1e-7


def test_decoupled_detuned_amplitudes_follow_closed_forms():
    p = replace(DETUNED, beta=0j)
    traj = evolve_three_wave(p, DETUNED_INIT, t_end=5.0, dt=0.01)
    t, init = traj.t, DETUNED_INIT
    a1_fixed = p.kappa1 * p.pump / (p.kappa1 + 1j * p.Delta1)
    a1 = a1_fixed + (init.a1 - a1_fixed) * np.exp(-(p.kappa1 + 1j * p.Delta1) * t)
    assert np.abs(traj.a1 - a1).max() < 1e-8
    assert np.abs(traj.a2 - init.a2 * np.exp(-(p.kappa2 + 1j * p.Delta2) * t)).max() < 1e-8
    assert np.abs(traj.u - init.u * np.exp(-p.Gamma * t)).max() < 1e-8


def test_mismatch_is_a2_detuning_in_a_rotating_frame():
    # a2 = a2~ e^{i delta t} turns the mismatch delta into a detuning
    # Delta2 + delta of a2~
    mismatched = evolve_three_wave(DETUNED, DETUNED_INIT, t_end=5.0, dt=0.01)
    rotated = evolve_three_wave(
        replace(DETUNED, delta=0.0, Delta2=DETUNED.Delta2 + DETUNED.delta),
        DETUNED_INIT, t_end=5.0, dt=0.01)
    phase = np.exp(1j * DETUNED.delta * rotated.t)
    assert np.abs(mismatched.a1 - rotated.a1).max() < 1e-9
    assert np.abs(mismatched.a2 - rotated.a2 * phase).max() < 1e-9
    assert np.abs(mismatched.u - rotated.u).max() < 1e-9


# README's lossy configuration, from rest and from nonzero amplitudes
README = ThreeWaveParams(kappa1=0.3, kappa2=1.0, Gamma=0.05, beta=0.5,
                         pump=1.0)
AT_REST = ThreeWaveState(a1=0, a2=0, u=0)
LOSSY_INIT = ThreeWaveState(a1=0.6 - 0.3j, a2=-0.2 + 0.5j, u=1.1 + 0.7j)


def assert_bitwise(traj, ref):
    for got, want in zip((traj.t, traj.a1, traj.a2, traj.u), ref):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("params, init, t_end, dt", [
    (README, AT_REST, 50.0, 0.01),
    (README, LOSSY_INIT, 50.0, 0.01),
    (DETUNED, DETUNED_INIT, 5.0, 0.01),
    (replace(DETUNED, delta=9.0), DETUNED_INIT, 5.0, 0.01),
    (replace(DETUNED, delta=-9.0), DETUNED_INIT, 5.0, 0.01),
    (DETUNED, DETUNED_INIT, 3.0037, 0.01),  # not a whole number of steps
    (DETUNED, DETUNED_INIT, 0.0, 0.01),
])
def test_inlined_kernel_is_bitwise_the_stepwise_rk4(params, init, t_end, dt):
    assert_bitwise(evolve_three_wave(params, init, t_end=t_end, dt=dt),
                   rk4_reference(params, init, t_end, dt))


@pytest.mark.parametrize("block", [1, 7, 500])
def test_kernel_is_bitwise_the_stepwise_rk4_across_blocks(block, monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK", block)
    # 500 steps: 500 blocks of one, a partial last block of 3, exactly one
    assert_bitwise(evolve_three_wave(DETUNED, DETUNED_INIT, t_end=5.0,
                                     dt=0.01),
                   rk4_reference(DETUNED, DETUNED_INIT, 5.0, 0.01))


def poison_phase(monkeypatch, step):
    """Make the phase of the first stage of RK4 step `step` (0-based) NaN,
    so the state first turns non-finite at sample step + 1.  The kernel
    evaluates the phase three times per step: at tn, tn + dt/2, tn + dt."""
    calls, exp = itertools.count(), cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda z: complex("nan")
                        if next(calls) == 3 * step else exp(z))


@pytest.mark.parametrize("block, step", [
    (dynamics._BLOCK, 0),
    (dynamics._BLOCK, 123),  # inside the first block
    (8, 21),                 # inside the third block
    (8, 16),                 # first step of the third block
    (8, 499),                # the last step, in a partial block
])
def test_non_finite_state_reports_the_first_bad_sample(block, step,
                                                       monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK", block)
    poison_phase(monkeypatch, step)
    dt = 0.01
    message = f"non-finite state at t = {step * dt + dt:.6g}"
    with pytest.raises(IntegrationError, match=f"^{re.escape(message)}$"):
        evolve_three_wave(DETUNED, DETUNED_INIT, t_end=5.0, dt=dt)


@pytest.mark.parametrize("field", ["a1", "a2", "u", "pump"])
def test_overflowing_modulus_violates_the_stability_guard(field):
    huge = complex(1.7e308, 1.7e308)  # finite, but its modulus overflows
    params = replace(DETUNED, pump=huge) if field == "pump" else DETUNED
    init = (DETUNED_INIT if field == "pump"
            else replace(DETUNED_INIT, **{field: huge}))
    with pytest.raises(IntegrationError,
                       match=r"stability guard violated: .* = inf >= 0\.1"):
        evolve_three_wave(params, init, t_end=1.0, dt=0.01)


# ---------------------------------------------------------------------------
# drift matrix


def test_drift_matrix_entries():
    p = SystemParams(kappa2=1.0, delta=0.2, omega=0.1, gamma1=0.01,
                     gamma2=0.02, g1=0.3 + 0.1j, g2=0.5, nbar1=1.0)
    m = drift_matrix(p)
    assert m.shape == (3, 3) and m.dtype == complex
    assert m[0, 0] == pytest.approx(-1j * 0.2 - 1.0)
    assert m[0, 1] == pytest.approx(-1j * (0.3 + 0.1j))
    assert m[0, 2] == pytest.approx(-1j * 0.5)
    assert m[1, 0] == pytest.approx(-1j * np.conj(0.3 + 0.1j))
    assert m[1, 1] == pytest.approx(-1j * 0.1 - 0.01)
    assert m[2, 2] == pytest.approx(1j * 0.1 - 0.02)
    assert m[1, 2] == 0 and m[2, 1] == 0


def test_drift_matrix_diagonal_without_coupling():
    p = SystemParams(kappa2=1.0, delta=0.3, omega=0.2, gamma1=0.01,
                     gamma2=0.02)
    m = drift_matrix(p)
    off = m - np.diag(np.diag(m))
    assert np.abs(off).max() == 0
    assert np.allclose(np.diag(m), [-1j * 0.3 - 1.0, -1j * 0.2 - 0.01,
                                    1j * 0.2 - 0.02])


def test_drift_eigenvalues_passive_over_random_draws():
    rng = np.random.default_rng(314)
    for _ in range(1000):
        p = SystemParams(
            kappa2=rng.uniform(0.1, 3.0),
            delta=rng.uniform(-2, 2),
            omega=rng.uniform(-2, 2),
            gamma1=rng.uniform(0, 1),
            gamma2=rng.uniform(0, 1),
            g1=rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform()),
            g2=rng.uniform(0, 2) * np.exp(2j * np.pi * rng.uniform()),
            nbar1=rng.uniform(0, 100))
        ev = np.linalg.eigvals(drift_matrix(p))
        assert np.all(ev.real <= 1e-12)


def test_drift_trace_matches_total_damping():
    p = SystemParams(kappa2=1.3, delta=0.4, omega=0.2, gamma1=0.05,
                     gamma2=0.07, g1=0.3, g2=0.2j, nbar1=1.0)
    ev = np.linalg.eigvals(drift_matrix(p))
    assert ev.real.sum() == pytest.approx(-(1.3 + 0.05 + 0.07), abs=1e-12)


def test_drift_eigenvalues_show_cooling_at_figure_params():
    ev = np.linalg.eigvals(drift_matrix(FIG2))
    assert len(set(np.round(ev, 9))) == 3
    # phonon-like eigenvalues: the two with small |real part|
    phonon = sorted(ev, key=lambda z: -z.real)[:2]
    for lam in phonon:
        assert lam.real < -0.01  # broadened beyond the bare width


# ---------------------------------------------------------------------------
# adiabatic elimination


def test_adiabatic_single_mode_rate_and_shift():
    p = SystemParams(kappa2=1.0, delta=0.4, omega=0.1, gamma1=0.01,
                     gamma2=0.01, g1=0.3, g2=0.0, nbar1=1.0)
    red = adiabatic_reduce(p)
    assert type(red) is np.ndarray
    assert red.shape == (2, 2) and red.dtype == complex
    lor = 1.0**2 + 0.4**2
    # the broadened width and the pull of mode 1 (resonance +Omega)
    assert -red[0, 0].real == pytest.approx(0.01 + 0.09 / lor)
    assert -red[0, 0].imag - 0.1 == pytest.approx(-0.4 * 0.09 / lor)
    assert red[0, 1] == 0


def test_adiabatic_effective_rate_arithmetic():
    p = SystemParams(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01,
                     gamma2=0.01, g1=0.3, g2=0.0, nbar1=1.0)
    red = adiabatic_reduce(p)
    assert -red[0, 0].real == pytest.approx(0.1)


def test_adiabatic_guard_warns_when_invalid():
    p = SystemParams(kappa2=1.0, gamma1=0.5, gamma2=0.5, nbar1=1.0)
    with pytest.warns(UserWarning, match="adiabatic"):
        adiabatic_reduce(p)


@pytest.mark.parametrize("route", [adiabatic_reduce, collective_rates],
                         ids=["adiabatic_reduce", "collective_rates"])
def test_adiabatic_warning_names_the_callers_line(route):
    p = SystemParams(kappa2=1.0, gamma1=0.5, gamma2=0.5, g1=0.3, g2=0.2,
                     nbar1=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        route(p)
    assert [(w.category, w.filename) for w in caught] == [
        (UserWarning, __file__)]
    assert "adiabatic elimination" in str(caught[0].message)


def test_adiabatic_matches_full_drift_at_figure_params():
    # single-mode figure point: expansion parameter max(gamma, |G|^2/k2)/k2
    # is 0.09, so first-order agreement means ~10%.  The reduction evaluates
    # the cavity response at the carrier, not at the mode offset, which
    # shifts the mode frequency at second order; decay rates and eigenvalue
    # moduli agree within 10% while the full complex distance is ~10.03%.
    p = SystemParams(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01,
                     gamma2=0.01, g1=0.3, g2=0.0, nbar1=100.0)
    red = adiabatic_reduce(p)
    full = np.linalg.eigvals(drift_matrix(p))
    reduced = np.linalg.eigvals(red)
    phonon_like = sorted(full, key=lambda z: -z.real)[:2]
    for lam in reduced:
        mu = min(phonon_like, key=lambda m: abs(lam - m))
        assert abs(lam.real - mu.real) <= 0.10 * abs(mu.real)
        assert abs(abs(lam) - abs(mu)) <= 0.10 * abs(mu)
        assert abs(lam - mu) <= 0.15 * abs(mu)


def test_adiabatic_collective_limit():
    g = 0.3
    p = SystemParams(kappa2=1.0, delta=0.0, omega=0.0, gamma1=0.0,
                     gamma2=0.0, g1=g, g2=g, nbar1=1.0)
    w, v = np.linalg.eig(adiabatic_reduce(p))
    w_sorted = sorted(w, key=lambda z: z.real)
    assert w_sorted[0] == pytest.approx(-2 * g**2, abs=1e-14)
    assert w_sorted[1] == pytest.approx(0.0, abs=1e-14)


def test_adiabatic_reduction_is_schur_complement_for_complex_couplings():
    p = SystemParams(kappa2=1.0, delta=0.2, omega=0.1, gamma1=0.01,
                     gamma2=0.02, g1=0.3 + 0.2j, g2=0.1 - 0.4j, nbar1=1.0)
    red = adiabatic_reduce(p)
    m = drift_matrix(p)
    schur = m[1:, 1:] - np.outer(m[1:, 0], m[0, 1:]) / m[0, 0]
    assert np.allclose(red, schur, rtol=1e-14, atol=1e-16)
    assert -red[0, 1] == pytest.approx(
        np.conj(p.g1) * p.g2 / (p.kappa2 + 1j * p.delta), rel=1e-14)


# ---------------------------------------------------------------------------
# collective modes


def test_collective_rates_symmetric_coupling():
    p = SystemParams(kappa2=1.0, omega=0.0, gamma1=0.0, gamma2=0.0,
                     g1=0.3, g2=0.3, nbar1=1.0)
    modes = collective_rates(p)
    assert modes.labeling == "collective"
    assert modes.rate_plus == pytest.approx(0.18, abs=1e-13)
    assert abs(modes.rate_minus) < 1e-13
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(minus @ modes.vec_minus) == pytest.approx(1.0, abs=1e-12)


def test_collective_rates_decoupled_fallback():
    p = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.02, gamma2=0.03,
                     g1=0.3, g2=0.0, nbar1=1.0)
    modes = collective_rates(p)
    assert modes.labeling == "decoupled"
    assert modes.rate_plus == pytest.approx(0.02 + 0.09 + 1j * 0.1)
    assert modes.rate_minus == pytest.approx(0.03 - 1j * 0.1)
    assert np.allclose(modes.vec_plus, [1, 0])


def test_collective_rates_shift_with_damping():
    base = SystemParams(kappa2=1.0, omega=0.0, gamma1=0.0, gamma2=0.0,
                        g1=0.3, g2=0.3, nbar1=1.0)
    damped = SystemParams(kappa2=1.0, omega=0.0, gamma1=0.05, gamma2=0.05,
                          g1=0.3, g2=0.3, nbar1=1.0)
    m0 = collective_rates(base)
    m1 = collective_rates(damped)
    assert m1.rate_plus - m0.rate_plus == pytest.approx(0.05, abs=1e-12)
    assert m1.rate_minus - m0.rate_minus == pytest.approx(0.05, abs=1e-12)


def test_collective_rates_degenerate_reported():
    # identical diagonal with symmetric off-diagonal of equal eigen-overlap:
    # omega = 0 and pure imaginary couplings g1 = i g, g2 = g give a
    # coupling matrix whose eigenvectors tie against (b1 +- b2)
    p = SystemParams(kappa2=1.0, omega=0.0, gamma1=0.0, gamma2=0.0,
                     g1=0.3j, g2=0.3, nbar1=1.0)
    modes = collective_rates(p)
    assert modes.labeling in ("collective", "degenerate")
    # the labeling is never silent: a tie must not produce "collective"
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    s_direct = abs(plus @ modes.vec_plus) + abs(minus @ modes.vec_minus)
    s_swapped = abs(plus @ modes.vec_minus) + abs(minus @ modes.vec_plus)
    if modes.labeling == "collective":
        assert s_direct > s_swapped


@pytest.mark.parametrize("matrix", [
    [[-1, 1], [0, -1]],  # eigenvalue tie (a defective drift)
    [[-1, 0.5], [-0.5, -1]],  # eigenvectors score equally against b1 +- b2
], ids=["eigenvalue-tie", "overlap-tie"])
def test_collective_rates_labels_ties_degenerate(matrix, monkeypatch):
    red = np.array(matrix, dtype=complex)
    monkeypatch.setattr(dynamics, "adiabatic_reduce", lambda params: red)
    modes = collective_rates(FIG2)
    assert modes.labeling == "degenerate"
    # a tie keeps the eigensolver's order
    w, _ = np.linalg.eig(red)
    assert (modes.rate_plus, modes.rate_minus) == (-w[0], -w[1])


def test_collective_rates_refuse_an_infinite_rate():
    # |G|^2 = 1e308 keeps the reduced drift finite; its super-radiant
    # eigenvalue, about -2e308, is not
    p = SystemParams(kappa2=1.0, gamma1=0.01, gamma2=0.01,
                     g1=1e154, g2=1e154, nbar1=1.0)
    assert np.isfinite(dynamics.adiabatic_reduce(p)).all()
    with pytest.raises(OverflowError, match="float range"):
        collective_rates(p)
    # just inside the range, the rates are returned
    modes = collective_rates(replace(p, g1=1e153, g2=1e153))
    assert np.isfinite(modes.rate_plus)
    # at |G|^2 beyond the range, the reduction itself refuses, unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="float range"):
            dynamics.adiabatic_reduce(replace(p, g1=1e200 + 1e200j))


@pytest.mark.parametrize("t_end, dt, name", [
    (float("inf"), 0.01, "t_end"),
    (float("nan"), 0.01, "t_end"),
    (-0.006, 0.01, "t_end"),  # rounded to -1 steps
    (-1.0, 0.01, "t_end"),
    (-0.004, 0.01, "t_end"),  # rounded to zero steps
    (1.0, float("inf"), "dt"),  # inf * zero rates would pass the guard
    (1.0, float("nan"), "dt"),
])
def test_non_finite_or_negative_times_are_rejected(t_end, dt, name):
    p = ThreeWaveParams(kappa1=0.0, kappa2=0.0, Gamma=0.0)
    with pytest.raises(IntegrationError, match=name):
        evolve_three_wave(p, ThreeWaveState(a1=0, a2=0, u=0),
                          t_end=t_end, dt=dt)


def test_zero_t_end_gives_the_initial_state():
    p = ThreeWaveParams(kappa1=0.3, kappa2=1.0, Gamma=0.1)
    traj = evolve_three_wave(p, ThreeWaveState(a1=1, a2=0, u=0),
                             t_end=0.0, dt=0.01)
    assert len(traj) == 1 and traj.a1[0] == 1

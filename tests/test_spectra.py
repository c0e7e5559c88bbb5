import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from phonocool import (
    SingularityError,
    SpectrumCurve,
    SystemParams,
    antistokes_spectrum,
    cooling_ratio,
    cooling_ratio_adiabatic,
    drift_matrix,
    occupancy,
    phonon_spectrum,
    save_curve,
)
from phonocool import spectra

from _quadrature import occupancy_quadrature
from _spectrum_oracle import spectrum_oracle

FIG2 = SystemParams(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01,
                    gamma2=0.01, g1=0.3, g2=0.5, nbar1=100.0)
UNCOUPLED = replace(FIG2, g1=0j, g2=0j)


def random_params(rng):
    return SystemParams(
        kappa2=rng.uniform(0.5, 2.0),
        delta=rng.uniform(-2, 2),
        omega=rng.uniform(-1.5, 1.5),
        gamma1=rng.uniform(1e-3, 0.5),
        gamma2=rng.uniform(1e-3, 0.5),
        g1=rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform()),
        g2=rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform()),
        nbar1=rng.uniform(0, 300),
        nbar2=rng.uniform(0, 300))


# ---------------------------------------------------------------------------
# cavity response denominator


def cavity_d(p, omega):
    """The coupled cavity response d(omega) of spectra._response."""
    return spectra._response(p, omega)[3]


def test_d_of_omega_bare_cavity():
    p = SystemParams(kappa2=1.0, delta=0.3, omega=0.1, gamma1=0.01,
                     gamma2=0.01, nbar1=1.0)
    w = 0.7
    assert cavity_d(p, w) == pytest.approx(1.0 + 1j * (0.3 - w))


def test_d_of_omega_figure_value_at_resonance():
    w = FIG2.omega
    expect = (FIG2.kappa2 - 1j * w
              + abs(FIG2.g1)**2 / FIG2.gamma1
              + abs(FIG2.g2)**2 / (-2j * FIG2.omega + FIG2.gamma2))
    assert cavity_d(FIG2, w) == pytest.approx(expect, rel=1e-14)


def test_d_of_omega_pole_detection():
    p = replace(FIG2, gamma1=0.0)
    with pytest.raises(SingularityError, match="gamma1"):
        cavity_d(p, p.omega)
    # off the pole the value is fine
    cavity_d(p, p.omega + 1e-6)


def test_d_cubic_roots_match_drift_eigenvalues():
    # d(w) * (i(Omega-w)+gamma1) * (-i(Omega+w)+gamma2) is a cubic in w
    # whose roots are i times the drift eigenvalues
    p = SystemParams(kappa2=1.0, delta=0.2, omega=0.15, gamma1=0.03,
                     gamma2=0.05, g1=0.4, g2=0.3j, nbar1=1.0)

    def poly(w):
        d1 = 1j * (p.omega - w) + p.gamma1
        d2 = -1j * (p.omega + w) + p.gamma2
        return cavity_d(p, w) * d1 * d2

    ws = np.array([-1.0, -0.3, 0.4, 1.1])
    coeffs = np.polyfit(ws, [poly(w) for w in ws], 3)
    roots = np.sort_complex(np.roots(coeffs))
    expect = np.sort_complex(1j * np.linalg.eigvals(drift_matrix(p)))
    assert np.allclose(roots, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# phonon spectra


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_uncoupled_spectrum_is_lorentzian():
    om = np.linspace(-0.5, 0.5, 2001)
    curve = phonon_spectrum(UNCOUPLED, 1, om)
    expect = 2 * 0.01 * 100 / ((0.1 - om)**2 + 0.01**2)
    assert np.allclose(curve.values, expect, rtol=1e-12)
    # peak value at resonance
    peak = phonon_spectrum(UNCOUPLED, 1, np.array([0.0, 0.1])).values[1]
    assert peak == pytest.approx(2 * 100 / 0.01)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_normalized_uncoupled_peak_is_one():
    om = np.array([-0.1, 0.0, 0.1])
    c1 = phonon_spectrum(UNCOUPLED, 1, om, normalized=True)
    c2 = phonon_spectrum(UNCOUPLED, 2, om, normalized=True)
    assert c1.values[2] == pytest.approx(1.0, rel=1e-12)
    assert c2.values[0] == pytest.approx(1.0, rel=1e-12)
    assert c1.normalized and c2.normalized


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_single_mode_peak_suppression():
    # with G1 = 0.3, G2 = 0 the normalized peak drops to about
    # (gamma1/gamma1_eff)^2 = 0.01
    p = replace(FIG2, g2=0j)
    peak = phonon_spectrum(p, 1, np.array([0.0, p.omega]),
                           normalized=True).values[1]
    assert peak == pytest.approx(0.01, abs=0.002)


def test_spectrum_symmetry_under_mode_swap():
    om = np.linspace(-1.2, 1.2, 501)
    p = SystemParams(kappa2=1.0, delta=0.3, omega=0.12, gamma1=0.02,
                     gamma2=0.05, g1=0.4, g2=0.2 + 0.1j, nbar1=60.0,
                     nbar2=110.0)
    swapped = SystemParams(kappa2=p.kappa2, delta=p.delta, omega=-p.omega,
                           gamma1=p.gamma2, gamma2=p.gamma1, g1=p.g2,
                           g2=p.g1, nbar1=p.nbar2, nbar2=p.nbar1)
    s1 = phonon_spectrum(p, 1, om).values
    s2_swapped = phonon_spectrum(swapped, 2, om).values
    assert np.allclose(s1, s2_swapped, rtol=1e-12)


def test_spectrum_grid_span_warning():
    with pytest.warns(UserWarning, match="does not span"):
        phonon_spectrum(FIG2, 1, np.linspace(-0.05, 0.05, 50))


@pytest.mark.parametrize("grid, warns", [
    ((-5.5, 5.5), False),
    ((np.nextafter(-5.5, 0.0), 5.5), True),
    ((-5.5, np.nextafter(5.5, 0.0)), True),
    ((-5.49, 5.5), True)], ids=["spans", "short-low", "short-high", "short"])
def test_grid_span_warning_threshold_is_twenty_half_widths(grid, warns):
    # resonances at +-0.5 and a widest half-width of 0.25: the grid must
    # reach 0.5 + 20 * 0.25 = 5.5 on both sides
    p = SystemParams(kappa2=1.0, omega=0.5, gamma1=0.25, gamma2=0.1, g1=0.3,
                     nbar1=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phonon_spectrum(p, 1, np.linspace(*grid, 11))
    assert [str(w.message) for w in caught] == (
        [f"frequency grid [{grid[0]:g}, {grid[1]:g}] does not span "
         "[-5.5, 5.5] around both resonances"] if warns else [])


def test_spectrum_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectrumCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3), "phonon1")
    with pytest.raises(ValueError, match="nonnegative"):
        SpectrumCurve(np.array([0.0, 1.0]), np.array([1.0, -1.0]), "phonon1")
    with pytest.raises(ValueError, match="kind"):
        SpectrumCurve(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "nope")
    with pytest.raises(ValueError, match="matching 1D arrays"):
        SpectrumCurve(np.array([0.0, 1.0]), np.array([1.0]), "phonon1")


@pytest.mark.parametrize("grid", [[], np.zeros((2, 2))], ids=["empty", "2d"])
@pytest.mark.parametrize("spectrum", [
    lambda p, om: phonon_spectrum(p, 1, om), antistokes_spectrum],
    ids=["phonon", "antistokes"])
def test_spectra_reject_a_grid_that_is_not_1d_and_nonempty(spectrum, grid):
    with pytest.raises(ValueError, match="omegas must be a 1-D array"):
        spectrum(FIG2, grid)


@pytest.mark.parametrize("point", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("spectrum", [
    lambda p, om: phonon_spectrum(p, 1, om), antistokes_spectrum],
    ids=["phonon", "antistokes"])
def test_spectra_reject_a_non_finite_grid_point(spectrum, point,
                                                monkeypatch):
    # named before any arithmetic
    monkeypatch.setattr(spectra, "_response", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omegas must be finite"):
            spectrum(FIG2, [0.0, point] if point > 0 else [point, 0.0])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_spectra_accept_a_one_point_grid():
    assert phonon_spectrum(FIG2, 1, [0.1]).values.shape == (1,)
    assert antistokes_spectrum(FIG2, [0.1]).values.shape == (1,)


# ---------------------------------------------------------------------------
# anti-Stokes spectrum


def test_antistokes_zero_without_coupling():
    om = np.linspace(-1, 1, 101)
    assert np.all(antistokes_spectrum(UNCOUPLED, om).values == 0)


def test_antistokes_empty_channel_adds_exactly_zero():
    # nbar1 = nbar2 = 0 empties both channels; |g1/d1|^2 overflows while d
    # stays finite (|d| <= 1e300), so the density is 0, with no warning
    p = SystemParams(g1=1e140, gamma1=1e-20, gamma2=0.01, nbar1=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = antistokes_spectrum(p, np.linspace(-1, 1, 5)).values
    assert np.array_equal(values, np.zeros(5))


@pytest.mark.parametrize("empty", [None, "nbar1", "nbar2"])
@pytest.mark.parametrize("seed", range(6))
def test_antistokes_numerator_is_the_two_channel_sum(seed, empty):
    # skipping an empty channel leaves every density the plain sum over
    # both channels divided by |d|^2, bit for bit
    p = random_params(np.random.default_rng(seed))
    if empty:
        p = replace(p, **{empty: 0.0})
    om = np.linspace(-2, 2, 257)
    _, d1, d2, d = spectra._response(p, om)
    n = 2 * np.array([p.gamma1 * p.nbar1, p.gamma2 * p.nbar2])
    num = n[0] * np.abs(p.g1 / d1)**2 + n[1] * np.abs(p.g2 / d2)**2
    assert np.array_equal(antistokes_spectrum(p, om).values,
                          num / np.abs(d)**2)


def _interior_peaks(om, v):
    mask = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return om[1:-1][mask]


def test_antistokes_single_peak_positions():
    # one coupling at a time: a single peak near the driven mode's
    # resonance, pulled by the cavity hybridization
    om = np.linspace(-1, 1, 8001)
    only1 = antistokes_spectrum(replace(FIG2, g2=0j), om)
    only2 = antistokes_spectrum(replace(FIG2, g1=0j), om)
    pk1 = _interior_peaks(om, only1.values)
    pk2 = _interior_peaks(om, only2.values)
    assert len(pk1) == 1 and len(pk2) == 1
    assert pk1[0] == pytest.approx(0.1, abs=0.06)
    assert pk2[0] == pytest.approx(-0.1, abs=0.06)


def test_antistokes_two_peaks_track_response_poles():
    # moderate couplings keep the two resonances resolved; peak positions
    # follow the phonon-like pole frequencies of the coupled response
    p = replace(FIG2, g1=0.15, g2=0.2)
    om = np.linspace(-1, 1, 80001)
    curve = antistokes_spectrum(p, om)
    peaks = np.sort(_interior_peaks(om, curve.values))
    assert len(peaks) == 2
    ev = np.linalg.eigvals(drift_matrix(p))
    phonon_like = sorted(ev, key=lambda z: -z.real)[:2]
    pole_freqs = np.sort([-lam.imag for lam in phonon_like])
    dampings = np.array([-lam.real for lam in
                         sorted(phonon_like, key=lambda z: -z.imag)])
    assert np.all(np.abs(peaks - pole_freqs) < 0.1 * dampings)
    # both peaks pulled inward relative to the bare +-Omega
    assert abs(peaks[0]) < 0.1 + 1e-3 and abs(peaks[1]) < 0.1 + 1e-3


# ---------------------------------------------------------------------------
# occupancy and cooling ratio


def test_uncoupled_occupancy_equals_nbar():
    # the quadrature reference must recover the Lorentzian limit on its own
    val, err = occupancy_quadrature(UNCOUPLED, 1)
    assert abs(val - 100.0) / 100.0 < 1e-6
    assert err < 1e-4
    assert occupancy_quadrature(UNCOUPLED, 2)[0] == pytest.approx(100.0, rel=1e-6)


def test_occupancy_figures():
    assert occupancy(replace(FIG2, g2=0j), 1) == pytest.approx(0.110 * 100,
                                                               abs=0.02 * 100)
    assert occupancy(FIG2, 1) == pytest.approx(0.288 * 100, abs=0.02 * 100)


def test_occupancy_requires_positive_widths():
    with pytest.raises(SingularityError, match="positive phonon half-widths"):
        occupancy(replace(FIG2, gamma1=0.0), 1)


@pytest.mark.parametrize("mode", [1, 2])
def test_decoupled_zero_width_mode_is_dropped(mode):
    # the other mode is a free oscillator with no effect on `mode`, so the
    # occupancy equals that of the system where it is merely uncoupled
    other = 3 - mode
    free = replace(FIG2, **{f"gamma{other}": 0.0, f"g{other}": 0j})
    damped = replace(free, **{f"gamma{other}": 0.01})
    assert occupancy(free, mode) == pytest.approx(occupancy(damped, mode),
                                                  rel=1e-12)
    assert cooling_ratio(free, mode) < 1


@pytest.mark.parametrize("mode", [1, 2])
def test_zero_width_mode_coupled_or_requested_is_rejected(mode):
    other = 3 - mode
    coupled = replace(FIG2, **{f"gamma{other}": 0.0})
    with pytest.raises(SingularityError, match="positive phonon half-widths"):
        occupancy(coupled, mode)
    requested = replace(FIG2, **{f"gamma{mode}": 0.0, f"g{mode}": 0j})
    with pytest.raises(SingularityError, match="positive phonon half-widths"):
        occupancy(requested, mode)


# a grid on [-1.5, 1.5] that holds both poles +-Omega of each Omega below
POLE_GRID = np.arange(-600, 601) / 400


@pytest.mark.parametrize("omega", [0.0, 60 / 400])
@pytest.mark.parametrize("mode", [1, 2])
def test_decoupled_zero_width_mode_is_dropped_from_the_spectra(mode, omega):
    other = 3 - mode
    assert np.any(POLE_GRID == omega) and np.any(POLE_GRID == -omega)
    free = replace(FIG2, omega=omega, **{f"gamma{other}": 0.0, f"g{other}": 0j})
    damped = replace(free, **{f"gamma{other}": 0.01})
    for curve in (lambda p: phonon_spectrum(p, mode, POLE_GRID).values,
                  lambda p: phonon_spectrum(p, mode, POLE_GRID,
                                            normalized=True).values,
                  lambda p: antistokes_spectrum(p, POLE_GRID).values):
        assert np.array_equal(curve(free), curve(damped))
    assert np.array_equal(cavity_d(free, POLE_GRID),
                          cavity_d(damped, POLE_GRID))


@pytest.mark.parametrize("mode", [1, 2])
def test_zero_width_pole_still_raises_when_coupled_or_requested(mode):
    other = 3 - mode
    om = replace(FIG2, omega=60 / 400)
    coupled = replace(om, **{f"gamma{other}": 0.0})
    for curve in (lambda p: phonon_spectrum(p, mode, POLE_GRID),
                  lambda p: antistokes_spectrum(p, POLE_GRID),
                  lambda p: cavity_d(p, POLE_GRID)):
        with pytest.raises(SingularityError, match=f"gamma{other} = 0"):
            curve(coupled)
    requested = replace(om, **{f"gamma{mode}": 0.0, f"g{mode}": 0j})
    with pytest.raises(SingularityError, match=f"gamma{mode} = 0"):
        phonon_spectrum(requested, mode, POLE_GRID)


def test_occupancy_rejects_marginal_drift():
    # Omega = delta = 0 and g1 = g2 leave the dark mode (b1 - b2)/sqrt2
    # damped only by gamma, far below rounding of the cavity-scale rates
    dark = SystemParams(kappa2=1.0, omega=0.0, gamma1=1e-30, gamma2=1e-30,
                        g1=0.3, g2=0.3, nbar1=100.0, nbar2=100.0)
    with pytest.raises(SingularityError, match="marginal eigenvalue"):
        occupancy(dark, 1)


def test_occupancy_rejects_unstable_drift(monkeypatch):
    # a growing drift has no steady state, although the Lyapunov equation
    # still has a (negative-definite) solution
    stable = drift_matrix(FIG2)
    monkeypatch.setattr(spectra, "drift_matrix", lambda p: -stable)
    with pytest.raises(SingularityError, match="not Hurwitz"):
        occupancy(FIG2, 1)


@pytest.mark.parametrize("mode", [1, 2])
def test_occupancy_is_bitwise_scipys_lyapunov_solve(mode):
    # occupancy runs Bartels-Stewart as scipy's solver does, so P_ii is
    # scipy's to the last bit: complex couplings, delta and Omega nonzero,
    # and every third system with the other mode free and so dropped
    from scipy.linalg import solve_continuous_lyapunov
    rng = np.random.default_rng(1972)
    other = 3 - mode
    got, want = [], []
    for k in range(150):
        p = random_params(rng)
        keep = [0, 1, 2]
        if k % 3 == 0:
            p = replace(p, **{f"gamma{other}": 0.0, f"g{other}": 0j})
            keep = [0, mode]
        assert p.delta != 0 and p.omega != 0
        assert all(getattr(p, f"g{i}").imag != 0 for i in keep[1:])
        m = drift_matrix(p)[np.ix_(keep, keep)]
        n = np.array([0.0, 2 * p.gamma1 * p.nbar1, 2 * p.gamma2 * p.nbar2])
        cov = solve_continuous_lyapunov(m, -np.diag(n[keep]))
        i = keep.index(mode)
        want.append(cov[i, i].real)
        got.append(occupancy(p, mode))
    assert np.array_equal(np.array(got).view(np.uint64),
                          np.array(want).view(np.uint64))


@pytest.mark.parametrize("params", [
    replace(FIG2, g1=1e200),  # ||M|| overflows
    replace(FIG2, gamma1=1.0, nbar1=1e308),  # 2 gamma1 nbar1 overflows
])
def test_occupancy_beyond_the_float_range_is_an_overflow(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            occupancy(params, 1)


def test_occupancy_undoes_the_solvers_scaling():
    # near the top of the float range ztrsyl returns scale < 1, with
    # R Y + Y R^dag = scale F; the occupancy divides it out, so the ratio
    # is the one at nbar = 1 and is not scaled down towards zero
    p = SystemParams(kappa2=1.0, g1=0.3, gamma1=1.0, gamma2=0.01, nbar1=1.0)
    for nbar in (1e295, 1e300, 1e305):
        hot = replace(p, nbar1=nbar, nbar2=nbar)
        assert cooling_ratio(hot, 1) == pytest.approx(
            cooling_ratio(p, 1), rel=1e-12)


def test_occupancy_keeps_the_solvers_error_and_warning(monkeypatch):
    from scipy.linalg import lapack
    solve = lapack.ztrsyl
    monkeypatch.setattr(lapack, "ztrsyl",
                        lambda *a, **k: (solve(*a, **k)[0], 1.0, -3))
    with pytest.raises(ValueError, match="illegal value in argument number 3"):
        occupancy(FIG2, 1)
    monkeypatch.setattr(lapack, "ztrsyl",
                        lambda *a, **k: (solve(*a, **k)[0], 1.0, 1))
    with pytest.warns(RuntimeWarning, match="eigenvalue pair whose sum"):
        perturbed = occupancy(FIG2, 1)
    monkeypatch.setattr(lapack, "ztrsyl", solve)
    assert perturbed == occupancy(FIG2, 1)


def test_occupancy_matches_fine_trapezoid():
    # quadrature self-check over the core window (tails excluded on both
    # sides so the comparison measures quadrature quality, not truncation)
    p = replace(FIG2, g2=0j)
    w = abs(p.omega) + 50 * p.kappa2
    om = np.linspace(-w, w, 1_000_000)
    s = phonon_spectrum(p, 1, om).values
    ref = np.trapezoid(s, om) / (2 * np.pi)
    val, _ = occupancy_quadrature(p, 1, include_tails=False)
    assert abs(val - ref) / ref < 1e-6


@pytest.mark.parametrize("mode", [1, 2])
def test_occupancy_matches_quadrature_random_draws(mode):
    rng = np.random.default_rng(2044)
    worst = 0.0
    for _ in range(100):
        p = random_params(rng)
        ref, _ = occupancy_quadrature(p, mode)
        worst = max(worst, abs(occupancy(p, mode) - ref) / ref)
    assert worst <= 1e-9


def test_import_does_not_load_quadrature():
    # a fresh interpreter that imports the same phonocool as this one
    code = ("import sys, phonocool, phonocool.cli; "
            "print('scipy.integrate' in sys.modules)")
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_cooling_ratio_without_coupling_is_one():
    assert cooling_ratio(UNCOUPLED, 1) == pytest.approx(1.0, rel=1e-6)


def test_cooling_ratio_figures():
    assert cooling_ratio(replace(FIG2, g2=0j), 1) == pytest.approx(0.110, abs=0.02)
    assert cooling_ratio(FIG2, 1) == pytest.approx(0.288, abs=0.02)


def test_cooling_ratio_needs_positive_nbar():
    with pytest.raises(ValueError, match="nbar1"):
        cooling_ratio(replace(FIG2, nbar1=0.0, nbar2=1.0), 1)


@pytest.mark.parametrize("quantity", [
    lambda p, mode: phonon_spectrum(p, mode, [0.0]), occupancy, cooling_ratio],
    ids=["spectrum", "occupancy", "cooling-ratio"])
def test_mode_must_be_one_or_two(quantity):
    with pytest.raises(ValueError, match="mode must be 1 or 2, got 3"):
        quantity(FIG2, 3)


def test_adiabatic_estimate_needs_a_positive_effective_width():
    with pytest.raises(ValueError, match="effective width must be positive"):
        cooling_ratio_adiabatic(replace(UNCOUPLED, gamma1=0.0), 1)


def test_cooling_ratio_adiabatic_estimate():
    p = replace(FIG2, g2=0j)
    est = cooling_ratio_adiabatic(p, 1)
    assert est == pytest.approx(0.101, abs=1e-3)


@pytest.mark.parametrize("mode", [1, 2])
def test_adiabatic_estimate_is_the_hand_written_lorentzian(mode):
    # kappa2 = 2.5, so the Lorentzian's kappa2^2 and kappa2 are told apart
    p = SystemParams(kappa2=2.5, delta=0.7, omega=0.3, gamma1=0.02,
                     gamma2=0.03, g1=0.4 + 0.1j, g2=0.2 - 0.3j, nbar1=5.0)
    gamma, g, res = ((0.02, 0.4 + 0.1j, 0.3) if mode == 1
                     else (0.03, 0.2 - 0.3j, -0.3))
    want = gamma / (gamma + abs(g)**2 * 2.5 / (2.5**2 + (0.7 - res)**2))
    assert cooling_ratio_adiabatic(p, mode) == pytest.approx(want, rel=1e-14)


def test_single_mode_cooling_monotone_in_g1():
    values = []
    for g in np.linspace(0.05, 0.5, 6):
        p = SystemParams(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01,
                         gamma2=0.01, g1=g, g2=0.0, nbar1=100.0)
        values.append(occupancy(p, 1))
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# oracle equivalence


def test_oracle_recovers_bare_lorentzians():
    om = np.linspace(-0.5, 0.5, 301)
    s1, s2, sa = spectrum_oracle(UNCOUPLED, om)
    assert np.allclose(s1.values, 2 * 0.01 * 100 / ((0.1 - om)**2 + 0.01**2),
                       rtol=1e-12)
    assert np.allclose(s2.values, 2 * 0.01 * 100 / ((0.1 + om)**2 + 0.01**2),
                       rtol=1e-12)
    assert np.all(sa.values == 0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_oracle_matches_closed_forms_random_draws():
    rng = np.random.default_rng(777)
    om = np.linspace(-1.5, 1.5, 101)
    floor = 1e-300
    worst = 0.0
    for _ in range(100):
        p = random_params(rng)
        o1, o2, oa = spectrum_oracle(p, om)
        for curve, closed in (
                (o1, phonon_spectrum(p, 1, om).values),
                (o2, phonon_spectrum(p, 2, om).values),
                (oa, antistokes_spectrum(p, om).values)):
            rel = np.abs(closed - curve.values) / np.maximum(
                np.maximum(closed, curve.values), floor)
            worst = max(worst, rel.max())
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# export


def test_save_curve_writes_the_csv_and_returns_its_record(tmp_path):
    om = np.linspace(-1.5, 1.5, 11)
    curve = phonon_spectrum(FIG2, 1, om, normalized=True)
    path = tmp_path / "curve.csv"
    record = save_curve(path, curve, FIG2)
    text = path.read_text().splitlines()
    assert text[0] == "# kind: phonon1"
    assert "omega_over_kappa2" in text[2]
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (11, 2)
    # the record is returned, not written: the CLI writes every sidecar
    assert list(tmp_path.iterdir()) == [path]
    assert record == json.loads(json.dumps(record))
    assert record == {
        "params": spectra.params_dict(FIG2), "kind": "phonon1",
        "normalized": True,
        "grid": {"count": 11, "omega_min_over_kappa2": -1.5,
                 "omega_max_over_kappa2": 1.5}}
    assert record["params"]["omega"] == 0.1


DISTINCT = SystemParams(kappa2=1.5, delta=0.25, omega=0.125, gamma1=0.01,
                        gamma2=0.02, g1=0.3 + 0.1j, g2=0.5 - 0.2j, nbar1=7.0,
                        nbar2=9.0)


def test_params_dict_has_exactly_the_fields():
    assert list(spectra.params_dict(DISTINCT)) == [
        f.name for f in fields(SystemParams)]


@pytest.mark.parametrize("name", [f.name for f in fields(SystemParams)])
def test_params_dict_holds_each_field(name):
    value = getattr(DISTINCT, name)
    expect = [value.real, value.imag] if isinstance(value, complex) else value
    assert spectra.params_dict(DISTINCT)[name] == expect


@pytest.mark.parametrize("curve", [
    lambda p, w: phonon_spectrum(p, 1, w),
    lambda p, w: phonon_spectrum(p, 2, w),
    antistokes_spectrum])
def test_pole_is_reported_before_the_grid_span_warning(curve):
    # zero width, a grid that hits the pole and does not span the resonances
    p = replace(FIG2, gamma1=0.0)
    w = np.array([0.0, FIG2.omega])  # reaches the pole at +Omega only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularityError, match="pole hit"):
            curve(p, w)


@pytest.mark.parametrize("mode", [1, 2])
def test_adiabatic_estimate_reads_the_cavity_at_the_mode_resonance(mode):
    # detuned cavity: the two resonances +-Omega sit at different distances
    # from delta, so reading the wrong one is off by ~6 %
    p = SystemParams(kappa2=1.0, delta=0.3, omega=0.2, gamma1=0.001,
                     gamma2=0.001, g1=0.02 * (mode == 1),
                     g2=0.02 * (mode == 2), nbar1=100.0)
    assert cooling_ratio_adiabatic(p, mode) == pytest.approx(
        cooling_ratio(p, mode), rel=1e-3)

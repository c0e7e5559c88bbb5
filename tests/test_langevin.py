import warnings
from dataclasses import replace

import numpy as np
import pytest

from phonocool import (
    CovarianceError,
    EnsembleStats,
    SystemParams,
    occupancy,
    periodogram,
    phonon_spectrum,
    simulate_ensemble,
    step_covariance,
)
from phonocool import langevin
from phonocool.langevin import _propagator, _shaping_matrix

from _reference_mc import reference_record

OU = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.05, gamma2=0.05,
                  nbar1=100.0)
FIG2_SINGLE = SystemParams(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01,
                           gamma2=0.01, g1=0.3, g2=0.0, nbar1=100.0)


def test_step_covariance_single_mode_closed_form():
    # decoupled mode: Q_bb(dt) = nbar (1 - e^{-2 gamma dt})
    dt = 0.3
    q = step_covariance(OU, dt)
    expect = 100.0 * (1 - np.exp(-2 * 0.05 * dt))
    assert q[1, 1].real == pytest.approx(expect, rel=1e-10)
    assert q[2, 2].real == pytest.approx(expect, rel=1e-10)
    assert abs(q[0, 0]) < 1e-14  # cavity channel carries no noise when G = 0


def test_shaping_matrix_rejects_indefinite():
    bad = np.diag([1.0, -0.5, 2.0]).astype(complex)
    with pytest.raises(CovarianceError, match="not positive semidefinite"):
        _shaping_matrix(bad)


def test_uncoupled_occupancy_within_three_stderr():
    stats = simulate_ensemble(OU, n_traj=300, t_end=700.0, dt=0.25,
                              burn_in=250.0, seed=42)
    for mode in (0, 1):
        m = stats.occupancy_mean[mode]
        s = stats.occupancy_stderr[mode]
        assert abs(m - 100.0) < 3 * s
        assert s < 0.03 * 100.0


def test_zero_temperature_gives_zero_occupancy():
    p = replace(OU, nbar1=0.0, nbar2=0.0)
    stats = simulate_ensemble(p, n_traj=10, t_end=300.0, dt=0.5,
                              burn_in=200.0, seed=1)
    assert stats.occupancy_mean == (0.0, 0.0)


def test_bitwise_reproducibility():
    kw = dict(n_traj=64, t_end=400.0, dt=0.5, burn_in=200.0, seed=99)
    a = simulate_ensemble(OU, **kw)
    b = simulate_ensemble(OU, **kw)
    assert a == b
    c = simulate_ensemble(OU, **{**kw, "seed": 100})
    assert c.occupancy_mean != a.occupancy_mean


def test_halved_dt_consistent_within_stderr():
    # the one-step map is exact in distribution, so halving dt only changes
    # the averaging grid; with pinned seeds the estimates agree inside one
    # standard error (the draws differ, so this is a statistical check)
    a = simulate_ensemble(OU, n_traj=400, t_end=900.0, dt=0.5,
                          burn_in=300.0, seed=7)
    b = simulate_ensemble(OU, n_traj=400, t_end=900.0, dt=0.25,
                          burn_in=300.0, seed=7)
    for mode in (0, 1):
        diff = abs(a.occupancy_mean[mode] - b.occupancy_mean[mode])
        assert diff < max(a.occupancy_stderr[mode], b.occupancy_stderr[mode])


def test_stationarity_of_recorded_halves(tmp_path):
    dump = tmp_path / "dump"
    stats = simulate_ensemble(OU, n_traj=40, t_end=900.0, dt=0.5,
                              burn_in=300.0, seed=11, dump_dir=str(dump))
    files = sorted(dump.glob("traj_*.csv"))
    assert len(files) == 40
    first, second = [], []
    for f in files:
        data = np.loadtxt(f, delimiter=",")
        b1 = data[:, 3] + 1j * data[:, 4]
        n = b1.size // 2
        first.append(np.mean(np.abs(b1[:n])**2))
        second.append(np.mean(np.abs(b1[n:])**2))
    first, second = np.array(first), np.array(second)
    se = np.sqrt(first.std(ddof=1)**2 + second.std(ddof=1)**2) / np.sqrt(40)
    assert abs(first.mean() - second.mean()) < 3 * se
    # and the dumped record reproduces the reported mean
    both = 0.5 * (first.mean() + second.mean())
    assert both == pytest.approx(stats.occupancy_mean[0], rel=1e-10)


def test_monte_carlo_matches_closed_form_single_mode():
    stats = simulate_ensemble(FIG2_SINGLE, n_traj=400, t_end=2000.0, dt=0.25,
                              burn_in=1000.0, seed=5)
    closed = occupancy(FIG2_SINGLE, 1)
    m, s = stats.occupancy_mean[0], stats.occupancy_stderr[0]
    assert abs(m - closed) < 3 * s


def test_burn_in_guard_warns():
    with pytest.warns(UserWarning, match="burn_in"):
        simulate_ensemble(OU, n_traj=4, t_end=150.0, dt=0.5, burn_in=10.0,
                          seed=0)


@pytest.mark.parametrize("t_end, burn_in, name", [(1010.0, 999.0, "t_end"),
                                                  (1011.0, 1000.0, "burn_in")])
def test_simulate_rejects_partial_steps(t_end, burn_in, name):
    with pytest.raises(ValueError, match=f"{name} = .* whole number of steps"):
        simulate_ensemble(OU, n_traj=2, t_end=t_end, dt=3.0, burn_in=burn_in)


def test_simulate_accepts_ulp_off_step_ratio():
    # 0.7 / 0.1 = 6.999999999999999 and 0.3 / 0.1 = 2.9999999999999996
    with pytest.warns(UserWarning, match="burn_in"):
        stats = simulate_ensemble(OU, n_traj=2, t_end=0.7, dt=0.1, burn_in=0.3)
    assert stats.t_end == 0.7 and stats.burn_in == 0.3


def test_ensemble_independent_of_batch_size(monkeypatch):
    kw = dict(n_traj=11, t_end=400.0, dt=0.5, burn_in=200.0, seed=5)
    default = simulate_ensemble(OU, **kw)
    monkeypatch.setattr(langevin, "_TRAJ_BATCH", 3)
    assert simulate_ensemble(OU, **kw) == default


def _dumped_records(dump):
    data = [np.loadtxt(f, delimiter=",", ndmin=2)
            for f in sorted(dump.glob("traj_*.csv"))]
    return [(d[:, 0], d[:, 1::2] + 1j * d[:, 2::2]) for d in data]


@pytest.mark.filterwarnings("ignore:burn_in")
@pytest.mark.parametrize("n_burn", [0, 3, 14, 31])  # chunks of 7 steps
def test_dumped_records_match_step_by_step_reference(n_burn, tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(langevin, "_CHUNK", 7)
    monkeypatch.setattr(langevin, "_TRAJ_BATCH", 3)
    dt, n_rec, seed = 0.5, 20, 13
    simulate_ensemble(FIG2_SINGLE, n_traj=5, t_end=(n_burn + n_rec) * dt,
                      dt=dt, burn_in=n_burn * dt, seed=seed,
                      dump_dir=str(tmp_path))
    e, c = _propagator(FIG2_SINGLE, dt)
    records = _dumped_records(tmp_path)
    assert len(records) == 5
    for i, (t, rec) in enumerate(records):
        assert np.array_equal(t, (n_burn + 1 + np.arange(n_rec)) * dt)
        ref = reference_record(e, c, seed, i, n_burn, n_rec)
        np.testing.assert_allclose(rec, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


def test_dump_files_independent_of_chunk_size(tmp_path, monkeypatch):
    # 1100 steps cross the default chunk boundary too
    kw = dict(n_traj=3, t_end=550.0, dt=0.5, burn_in=200.0, seed=17)
    simulate_ensemble(OU, dump_dir=str(tmp_path / "default"), **kw)
    monkeypatch.setattr(langevin, "_CHUNK", 7)
    simulate_ensemble(OU, dump_dir=str(tmp_path / "seven"), **kw)
    for f in sorted((tmp_path / "default").glob("traj_*.csv")):
        assert f.read_bytes() == (tmp_path / "seven" / f.name).read_bytes()


def test_periodogram_independent_of_batch_size(monkeypatch):
    kw = dict(n_traj=7, t_end=1400.0, dt=0.5, burn_in=200.0, seed=5,
              segment_length=512)
    default = periodogram(OU, **kw)
    monkeypatch.setattr(langevin, "_WELCH_BATCH", 3)
    batched = periodogram(OU, **kw)
    assert batched.n_segments == default.n_segments
    for name in ("omegas", "s1", "s2", "s1_stderr", "s2_stderr",
                 "occupancy_time_avg"):
        np.testing.assert_allclose(getattr(batched, name),
                                   getattr(default, name), rtol=1e-12, atol=0)


def test_ensemble_stats_json_round_trip():
    stats = simulate_ensemble(OU, n_traj=8, t_end=400.0, dt=0.5,
                              burn_in=200.0, seed=2)
    again = EnsembleStats.from_json(stats.to_json())
    assert again == stats


def test_ensemble_stats_requires_two_trajectories():
    with pytest.raises(ValueError, match="n_traj"):
        simulate_ensemble(OU, n_traj=1, t_end=400.0, dt=0.5, burn_in=200.0)


# ---------------------------------------------------------------------------
# periodogram


def test_periodogram_lorentzian_and_parseval():
    p = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.02, gamma2=0.02,
                     nbar1=50.0)
    w = periodogram(p, n_traj=600, t_end=3000.0, dt=0.5, burn_in=500.0,
                    seed=21)
    om = w.omegas
    band = (om > 0.1 - 2 * 0.02) & (om < 0.1 + 2 * 0.02)
    ref = 2 * 0.02 * 50 / ((0.1 - om[band])**2 + 0.02**2)
    rel = (w.s1[band] - ref) / ref
    assert np.sqrt(np.mean(rel**2)) < 0.05
    # Parseval: spectrum integral reproduces the time-domain occupancy
    for s, occ in ((w.s1, w.occupancy_time_avg[0]),
                   (w.s2, w.occupancy_time_avg[1])):
        integral = np.trapezoid(s, om) / (2 * np.pi)
        assert integral == pytest.approx(occ, rel=0.02)


def test_periodogram_matches_closed_form_at_figure_params():
    w = periodogram(FIG2_SINGLE, n_traj=256, t_end=6000.0, dt=0.5,
                    burn_in=1000.0, seed=33)
    gamma_eff = 0.1
    band = (w.omegas > 0.1 - 5 * gamma_eff) & (w.omegas < 0.1 + 5 * gamma_eff)
    ref = phonon_spectrum(FIG2_SINGLE, 1, w.omegas[band]).values
    rel = (w.s1[band] - ref) / ref
    assert np.sqrt(np.mean(rel**2)) < 0.10


def test_periodogram_record_length_guard():
    with pytest.raises(ValueError, match="record too short"):
        periodogram(FIG2_SINGLE, n_traj=4, t_end=2000.0, dt=0.5,
                    burn_in=1000.0)


@pytest.mark.parametrize("t_end, burn_in, name", [(1010.0, 999.0, "t_end"),
                                                  (1011.0, 1000.0, "burn_in")])
def test_periodogram_rejects_partial_steps(t_end, burn_in, name):
    p = replace(OU, gamma1=10.0, gamma2=10.0)  # record guard: >= 5
    with pytest.raises(ValueError, match=f"{name} = .* whole number of steps"):
        periodogram(p, n_traj=2, t_end=t_end, dt=3.0, burn_in=burn_in)


def _no_propagation(*args):
    raise AssertionError("propagated before rejecting the input")


def test_periodogram_rejects_empty_ensemble(monkeypatch):
    # burn_in = 10 would warn; the rejection must come first
    monkeypatch.setattr(langevin, "_propagator", _no_propagation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n_traj must be at least 1"):
            periodogram(OU, n_traj=0, t_end=1100.0, dt=0.5, burn_in=10.0)


@pytest.mark.parametrize("overlap", [1.0, 1.5, -1.0, float("nan")])
def test_periodogram_rejects_overlap_outside_unit_interval(overlap,
                                                           monkeypatch):
    monkeypatch.setattr(langevin, "_propagator", _no_propagation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"overlap must be in \[0, 1\)"):
            periodogram(OU, n_traj=2, t_end=1100.0, dt=0.5, burn_in=10.0,
                        overlap=overlap)


def test_periodogram_accepts_ulp_off_step_ratio():
    # 50.3 / 0.1 = 502.99999999999994 and 0.3 / 0.1 = 2.9999999999999996
    p = replace(OU, gamma1=2.0, gamma2=2.0)
    with pytest.warns(UserWarning, match="burn_in"):
        w = periodogram(p, n_traj=2, t_end=50.3, dt=0.1, burn_in=0.3)
    assert w.omegas.size == 500


def test_periodogram_occupancy_equals_ensemble_mean():
    kw = dict(n_traj=11, t_end=1400.0, dt=0.5, burn_in=200.0, seed=5)
    occ = periodogram(OU, **kw).occupancy_time_avg
    mean = simulate_ensemble(OU, **kw).occupancy_mean
    assert np.allclose(occ, mean, rtol=1e-12, atol=0)


def test_periodogram_interpolates_requested_grid():
    p = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.05, gamma2=0.05,
                     nbar1=10.0)
    grid = np.linspace(-0.5, 0.5, 201)
    w = periodogram(p, n_traj=32, t_end=1500.0, dt=0.5, burn_in=300.0,
                    seed=3, omegas=grid)
    assert np.array_equal(w.omegas, grid)
    assert w.curve(1).kind == "phonon1"
    assert w.s1.shape == grid.shape

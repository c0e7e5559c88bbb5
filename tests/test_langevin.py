import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest

from phonocool import (
    CovarianceError,
    EnsembleStats,
    SpectrumCurve,
    SystemParams,
    drift_matrix,
    occupancy,
    periodogram,
    phonon_spectrum,
    simulate_ensemble,
    step_covariance,
)
from phonocool import langevin
from phonocool.core import _write_json
from phonocool.langevin import _propagator, _shaping_matrix

from _reference_mc import (reference_batch, reference_draws, reference_record,
                           reference_welch, time_average)

OU = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.05, gamma2=0.05,
                  nbar1=100.0)
FIG2_SINGLE = SystemParams(kappa2=1.0, delta=0.0, omega=0.1, gamma1=0.01,
                           gamma2=0.01, g1=0.3, g2=0.0, nbar1=100.0)
# both phonons coupled to the cavity: the noise shaping mixes all three
# channels, so a change in its rounding shows in the output
COUPLED = SystemParams(kappa2=1.0, omega=0.1, gamma1=0.05, gamma2=0.04,
                       g1=0.3, g2=0.2, nbar1=100.0, nbar2=50.0)


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


def test_reported_stderr_is_the_exact_spread_of_one_trajectory():
    # bound fixed before the first run: the sample sd of 2000 time averages
    # spreads ~1.6 % (~1.8 % with their excess kurtosis), and the oracle
    # takes the stationary covariance; 6 % is over 3 of those spreads,
    # and an error of the stderr formula shows as tens of percent
    n_traj, t_end, dt, burn_in = 2000, 400.0, 0.5, 200.0
    stats = simulate_ensemble(COUPLED, n_traj=n_traj, t_end=t_end, dt=dt,
                              burn_in=burn_in, seed=2718)
    p = COUPLED
    noise = np.array([0.0, 2 * p.gamma1 * p.nbar1, 2 * p.gamma2 * p.nbar2])
    _, sd = time_average(drift_matrix(p), noise, dt, round(burn_in / dt),
                         round(t_end / dt))
    per_traj = np.array(stats.occupancy_stderr) * np.sqrt(n_traj)
    assert np.allclose(per_traj, sd, rtol=0.06, atol=0)


@pytest.mark.filterwarnings("ignore:burn_in")
@pytest.mark.parametrize("n_traj", [2, 3])
def test_stderr_is_the_ddof_one_spread_of_trajectory_means(n_traj):
    # each trajectory's time average of |b_i|^2 from the bitwise reference
    # records; ddof 0 would read sqrt(1/2) or sqrt(2/3) of it
    dt, n_burn, n_rec, seed = 0.5, 40, 300, 17
    stats = simulate_ensemble(COUPLED, n_traj=n_traj, t_end=(n_burn + n_rec) * dt,
                              dt=dt, burn_in=n_burn * dt, seed=seed)
    e, c = _propagator(COUPLED, dt)
    records = reference_batch(e, c, seed, 0, n_traj, n_burn, n_rec)
    means = np.mean(np.abs(records[..., 1:])**2, axis=1)
    spread = np.sqrt(((means - means.mean(axis=0))**2).sum(axis=0)
                     / (n_traj - 1) / n_traj)
    np.testing.assert_allclose(stats.occupancy_stderr, spread, rtol=1e-12,
                               atol=0)


@pytest.mark.parametrize("burn_in, warns", [(40.0, False), (39.5, True)])
def test_burn_in_warning_threshold_is_ten_over_the_slowest_rate(burn_in,
                                                                warns):
    # uncoupled: the decay rates are 1, 0.25 and 0.25 exactly, so the
    # threshold is 10 / 0.25 = 40
    p = SystemParams(kappa2=1.0, delta=0.3, omega=0.5, gamma1=0.25,
                     gamma2=0.25, nbar1=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        langevin._warn_short_burn_in(p, burn_in)
    assert [str(w.message) for w in caught] == (
        ["burn_in = 39.5 is shorter than 10/min decay rate = 40; the slowest "
         "mode may not be thermalized"] if warns else [])


def test_burn_in_guard_warns():
    with pytest.warns(UserWarning, match="burn_in"):
        simulate_ensemble(OU, n_traj=4, t_end=150.0, dt=0.5, burn_in=10.0,
                          seed=0)


@pytest.mark.parametrize("nbar", [1e200, 1e307, 1.7e308])
def test_occupancy_beyond_the_float_range_is_an_overflow(nbar):
    # |b|^2, its sums or its spread leave the float range: one
    # OverflowError, after the burn-in warning and no numpy warning
    p = replace(OU, nbar1=nbar)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError):
            simulate_ensemble(p, n_traj=2, t_end=20.0, dt=0.5, burn_in=10.0)
    assert [w.category for w in caught] == [UserWarning]
    assert "burn_in" in str(caught[0].message)


@pytest.mark.parametrize("t_end, burn_in, name", [(1010.0, 999.0, "t_end"),
                                                  (1011.0, 1000.0, "burn_in")])
def test_simulate_rejects_partial_steps(t_end, burn_in, name):
    with pytest.raises(ValueError, match=f"{name} = .* whole number of steps"):
        simulate_ensemble(OU, n_traj=2, t_end=t_end, dt=3.0, burn_in=burn_in)


@pytest.mark.parametrize("t_end, dt, burn_in", [
    (400.0, 0.0, 200.0), (200.0, 0.5, 200.0), (100.0, 0.5, 200.0)],
    ids=["dt-zero", "t_end-at-burn_in", "t_end-before-burn_in"])
def test_simulate_rejects_an_empty_record(t_end, dt, burn_in):
    with pytest.raises(ValueError, match="need dt > 0 and t_end > burn_in"):
        simulate_ensemble(OU, n_traj=2, t_end=t_end, dt=dt, burn_in=burn_in)


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


def test_record_times_are_built_only_for_the_dump(monkeypatch, tmp_path):
    # 4e16 recorded steps: their times alone would need 320 PB, beyond any
    # 64-bit user address space, so such a request fails without touching
    # memory; a run that dumps nothing reaches the step loop (stopped here)
    class Reached(Exception):
        pass

    def stop(*args):
        raise Reached

    monkeypatch.setattr(langevin, "_propagate", stop)
    kw = dict(n_traj=2, t_end=1e16, dt=0.25, burn_in=1000.0)
    with pytest.raises(Reached):
        simulate_ensemble(OU, **kw)
    with pytest.raises(MemoryError):
        simulate_ensemble(OU, dump_dir=str(tmp_path / "dump"), **kw)
    assert list(tmp_path.iterdir()) == []


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


def _propagated(e, c, seed, lo, hi, n_burn, n_rec):
    states = np.empty((hi - lo, n_rec, 3), dtype=complex)
    for off, block in langevin._propagate(e, c, seed, lo, hi, n_burn, n_rec):
        states[:, off:off + block.shape[1]] = block
    return states


@pytest.mark.filterwarnings("ignore:burn_in")
@pytest.mark.parametrize("chunk", [7, 512])  # 7: segments across many seams
@pytest.mark.parametrize("segment_length", [8, 300, None])
@pytest.mark.parametrize("overlap", [0.5])  # periodogram's fixed overlap
def test_streamed_welch_is_the_whole_record_reference(overlap, segment_length,
                                                      chunk, monkeypatch):
    # 1100 recorded samples after 40 burn-in steps cross the 512-step seams
    # too; batches of 3, 3 and 1 trajectories
    monkeypatch.setattr(langevin, "_CHUNK", chunk)
    monkeypatch.setattr(langevin, "_WELCH_BATCH", 3)
    p = replace(COUPLED, gamma1=0.25, gamma2=0.25)  # record guard: >= 200
    dt, n_burn, n_rec, seed = 0.5, 40, 1100, 12
    w = periodogram(p, n_traj=7, t_end=(n_burn + n_rec) * dt, dt=dt,
                    burn_in=n_burn * dt, seed=seed,
                    segment_length=segment_length)
    e, c = _propagator(p, dt)
    records = _propagated(e, c, seed, 0, 7, n_burn, n_rec)
    *curves, occ, count = reference_welch(records, dt, segment_length or n_rec,
                                          overlap, 3)
    assert w.n_segments == count
    for name, ref in zip(("omegas", "s1", "s2", "s1_stderr", "s2_stderr"),
                         curves):
        assert np.array_equal(getattr(w, name).view(np.uint64),
                              ref.view(np.uint64)), name
    np.testing.assert_allclose(w.occupancy_time_avg, occ, rtol=1e-13, atol=0)


def _periodogram_peak(n_rec):
    tracemalloc.start()
    try:
        periodogram(OU, n_traj=8, t_end=200.0 + n_rec * 0.5, dt=0.5,
                    burn_in=200.0, seed=1, segment_length=64)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_periodogram_memory_independent_of_record_length():
    # the record guard needs 2000 samples; a whole-record buffer of 8
    # trajectories would grow from 0.5 to 2 MB
    _periodogram_peak(2000)  # lazy imports are not the estimator's memory
    short, long = _periodogram_peak(2000), _periodogram_peak(8000)
    assert long < 1.2 * short, (short, long)


def _peak(run):
    run()  # lazy imports and first-call caches are not the run's memory
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_holds_about_one_noise_buffer():
    # 1200 steps: three chunks; a second whole-chunk copy of the noise, or
    # a whole-chunk |b|^2 array, would read 2.4 buffers
    peak = _peak(lambda: simulate_ensemble(OU, n_traj=200, t_end=600.0,
                                           dt=0.5, burn_in=200.0, seed=1))
    buffer = 200 * langevin._CHUNK * 48  # (steps, rows, 3) complex
    assert peak <= 1.5 * buffer, peak / buffer


def test_periodogram_holds_ring_segment_and_one_power_array():
    # the benchmark's 2048-sample segments over one batch of 64: a second
    # power array, or an FFT output beside the segment, would read 2.3
    n_traj, n_seg, n_rec = 64, 2048, 2200
    peak = _peak(lambda: periodogram(OU, n_traj=n_traj,
                                     t_end=200.0 + n_rec * 0.5, dt=0.5,
                                     burn_in=200.0, seed=1,
                                     segment_length=n_seg))
    ring = min(n_seg + langevin._CHUNK, n_rec)  # samples per trajectory
    ring_and_segment = n_traj * (ring + n_seg) * 2 * 16  # b1, b2 complex
    assert peak <= 1.9 * ring_and_segment, peak / ring_and_segment


# blocks of 2 or 3 rows and steps with chunks of 7: batches of 7 and 5 rows
# split 3 + 4 and 2 + 3, so a half ends in a one-row group, and the sums'
# sub-blocks end inside every chunk and cross every seam
_SEAMS = dict(n_traj=12, t_end=700.0, dt=0.5, burn_in=200.0, seed=21)


def _small_chunks_and_batches(monkeypatch):
    monkeypatch.setattr(langevin, "_CHUNK", 7)
    monkeypatch.setattr(langevin, "_TRAJ_BATCH", 7)
    monkeypatch.setattr(langevin, "_WELCH_BATCH", 7)


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("lo, hi", [(0, 7), (7, 12)])
def test_grouped_draws_are_the_one_batch_reference(lo, hi, block,
                                                   monkeypatch):
    _small_chunks_and_batches(monkeypatch)
    monkeypatch.setattr(langevin, "_BLOCK", block)
    e, c = _propagator(COUPLED, 0.5)
    states = _propagated(e, c, 31, lo, hi, 401, 30)
    ref = reference_batch(e, c, 31, lo, hi, 401, 30)
    assert np.array_equal(states.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("block", [2, 3])
def test_sub_block_sums_are_the_whole_block_sums(block, monkeypatch):
    _small_chunks_and_batches(monkeypatch)
    default = simulate_ensemble(COUPLED, **_SEAMS)
    monkeypatch.setattr(langevin, "_BLOCK", block)
    assert simulate_ensemble(COUPLED, **_SEAMS) == default


@pytest.mark.filterwarnings("ignore:burn_in")
@pytest.mark.parametrize("block", [2, 3])
def test_in_place_welch_is_the_whole_record_reference(block, monkeypatch):
    _small_chunks_and_batches(monkeypatch)
    p = replace(COUPLED, gamma1=0.25, gamma2=0.25)  # record guard: >= 200
    kw = dict(_SEAMS, burn_in=20.0, segment_length=300)
    default = periodogram(p, **kw)
    monkeypatch.setattr(langevin, "_BLOCK", block)
    w = periodogram(p, **kw)
    e, c = _propagator(p, 0.5)
    records = _propagated(e, c, 21, 0, 12, 40, 1360)
    *curves, _, count = reference_welch(records, 0.5, 300, 0.5, 7)
    assert w.n_segments == count
    for name, ref in zip(("omegas", "s1", "s2", "s1_stderr", "s2_stderr"),
                         curves):
        assert np.array_equal(getattr(w, name).view(np.uint64),
                              ref.view(np.uint64)), name
    # the reference averages |b|^2 its own way: the occupancy is held to
    # the default-block run's bits
    assert w.occupancy_time_avg == default.occupancy_time_avg


@pytest.mark.filterwarnings("ignore:burn_in")
def test_ensemble_mean_independent_of_chunk_size(monkeypatch):
    # the states are bitwise the same; the block sums round differently
    kw = dict(n_traj=5, t_end=1400.0, dt=0.5, burn_in=200.0, seed=9)
    runs = []
    for chunk in (7, 512, 1024):
        monkeypatch.setattr(langevin, "_CHUNK", chunk)
        runs.append(simulate_ensemble(COUPLED, **kw))
    for stats in runs[1:]:
        for name in ("occupancy_mean", "occupancy_stderr"):
            np.testing.assert_allclose(getattr(stats, name),
                                       getattr(runs[0], name), rtol=1e-13,
                                       atol=0)


# chunks of 7 steps put seams inside every record below
@pytest.mark.parametrize("lo, hi, n_burn, n_rec", [(0, 3, 0, 20),
                                                  (2, 7, 5, 16)])
def test_propagated_noise_is_the_reference_draws(lo, hi, n_burn, n_rec,
                                                 monkeypatch):
    # with e = 0 and c = 1 each recorded state is that step's draw, bit for
    # bit, with no matrix product rounding in the comparison
    monkeypatch.setattr(langevin, "_CHUNK", 7)
    states = _propagated(np.zeros((3, 3)), np.eye(3), 29, lo, hi, n_burn,
                         n_rec)
    for j in range(hi - lo):
        ref = reference_draws(29, lo + j, n_burn + n_rec)[n_burn:]
        assert np.array_equal(states[j].view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("lo, hi, n_burn, n_rec", [(0, 3, 0, 20),
                                                  (2, 7, 5, 16),
                                                  (4, 5, 3, 12)])
def test_propagated_states_are_the_one_batch_reference(lo, hi, n_burn, n_rec,
                                                       monkeypatch):
    # 3 rows split 1 + 2 would shape the single row with another BLAS
    # routine (gemv), whose rounding differs from the batch product's
    monkeypatch.setattr(langevin, "_CHUNK", 7)
    e, c = _propagator(COUPLED, 0.5)
    states = _propagated(e, c, 31, lo, hi, n_burn, n_rec)
    ref = reference_batch(e, c, 31, lo, hi, n_burn, n_rec)
    assert np.array_equal(states.view(np.uint64), ref.view(np.uint64))


def test_trajectory_bits_independent_of_batch():
    # every batch size, one row included, gives each trajectory the same
    # bits as the whole 7-row batch (a lone row once went through BLAS
    # gemv and differed by ~1e-14)
    e, c = _propagator(COUPLED, 0.5)
    whole = _propagated(e, c, 8, 0, 7, 400, 2800).view(np.uint64)
    for lo, hi in [(6, 7), (0, 1), (3, 4), (2, 4), (4, 7)]:
        part = _propagated(e, c, 8, lo, hi, 400, 2800).view(np.uint64)
        assert np.array_equal(part, whole[lo:hi])


class _ReversedInlineExecutor:
    """Runs the tasks in the calling thread, last submitted first."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return [fn(*a) for a in reversed(list(zip(*iterables)))][::-1]


@pytest.mark.parametrize("executor", [lambda n: ThreadPoolExecutor(1),
                                      _ReversedInlineExecutor],
                         ids=["one-worker", "inline-reversed"])
def test_output_independent_of_worker_count(executor, monkeypatch):
    # batches of 3, 3 and 1 trajectories: the last has an empty half
    monkeypatch.setattr(langevin, "_TRAJ_BATCH", 3)
    sim = dict(n_traj=7, t_end=1600.0, dt=0.5, burn_in=200.0, seed=8)
    welch = [dict(sim, n_traj=n, segment_length=512) for n in (1, 5)]
    default = ([simulate_ensemble(COUPLED, **sim)]
               + [periodogram(COUPLED, **kw) for kw in welch])
    monkeypatch.setattr(langevin, "ThreadPoolExecutor", executor)
    assert simulate_ensemble(COUPLED, **sim) == default[0]
    for kw, ref in zip(welch, default[1:]):
        w = periodogram(COUPLED, **kw)
        assert w.n_segments == ref.n_segments
        for name in ("omegas", "s1", "s2", "s1_stderr", "s2_stderr",
                     "occupancy_time_avg"):
            assert np.array_equal(getattr(w, name), getattr(ref, name))


def test_import_starts_no_thread():
    src = os.path.dirname(os.path.dirname(langevin.__file__))
    code = ("import threading; n = threading.active_count(); "
            "import phonocool; print(threading.active_count() - n)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


_FORK_RUN = dict(n_traj=4, t_end=400.0, dt=0.5, burn_in=200.0, seed=3)


def _simulate_in_child(expected):
    assert simulate_ensemble(OU, **_FORK_RUN) == expected


def test_simulate_completes_in_forked_child():
    # a pool whose threads outlived the parent's run would leave the
    # child's tasks queued forever
    n_threads = threading.active_count()
    expected = simulate_ensemble(OU, **_FORK_RUN)
    assert threading.active_count() == n_threads
    child = multiprocessing.get_context("fork").Process(
        target=_simulate_in_child, args=(expected,))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("simulate_ensemble hung in a forked child")
    assert child.exitcode == 0


def test_ensemble_stats_record_round_trips(tmp_path):
    # the record simulate writes holds every field exactly
    stats = simulate_ensemble(OU, n_traj=8, t_end=400.0, dt=0.5,
                              burn_in=200.0, seed=2)
    _write_json(tmp_path / "mc.json", asdict(stats))
    d = json.loads((tmp_path / "mc.json").read_text())
    for key in ("occupancy_mean", "occupancy_stderr"):
        d[key] = tuple(d[key])
    assert EnsembleStats(**d) == stats


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


@pytest.mark.parametrize("segment_length, match", [
    (4, r"segment_length must be in \[8, record length\]"),
    (2181, r"segment_length must be in \[8, record length\]"),
    (100.7, "segment_length must be a whole number"),
    (float("nan"), "segment_length must be a whole number")],
    ids=["short", "long", "fractional", "nan"])
def test_periodogram_rejects_bad_segment_length(segment_length, match,
                                                monkeypatch):
    # record length 2180 samples; burn_in = 10 would warn, the rejection
    # must come first
    monkeypatch.setattr(langevin, "_propagator", _no_propagation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            periodogram(OU, n_traj=2, t_end=1100.0, dt=0.5, burn_in=10.0,
                        segment_length=segment_length)


def test_periodogram_accepts_whole_float_segment_length():
    kw = dict(n_traj=2, t_end=1200.0, dt=0.5, burn_in=200.0, seed=4)
    a = periodogram(OU, segment_length=100.0, **kw)
    b = periodogram(OU, segment_length=100, **kw)
    assert a.omegas.size == 100
    assert np.array_equal(a.s1, b.s1) and a.n_segments == b.n_segments


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


@pytest.mark.parametrize("option", ["overlap", "omegas"])
def test_periodogram_takes_no_overlap_or_grid(option):
    # half-overlapping segments on the native bins; np.interp regrids them
    with pytest.raises(TypeError, match=option):
        periodogram(OU, n_traj=2, t_end=1200.0, dt=0.5, burn_in=100.0,
                    **{option: 0.5})


@pytest.mark.parametrize("name", ["t_end", "dt", "burn_in"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("run", [simulate_ensemble, periodogram])
def test_non_finite_times_are_rejected_by_name(run, value, name):
    times = {"t_end": 1200.0, "dt": 0.5, "burn_in": 100.0, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any warning
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            run(OU, n_traj=2, seed=0, **times)

"""Step-by-step reference for the Monte Carlo propagation.

Propagates one trajectory at a time, one step at a time: trajectory i draws
from its own Philox(key=[seed, i]) stream and steps x <- e x + c w from the
vacuum.  It shares only the one-step matrices (e, c) with phonocool.langevin,
so the tests use it to check how the batched, chunked kernel lays out the
burn-in and the recorded window.

Two bitwise references sit beside it: `reference_draws` combines a
trajectory's real normals into complex draws with the plain formula, and
`reference_batch` shapes a whole batch's draws in one matrix product per
step, as a kernel that splits that work between threads must reproduce.

`reference_welch` is the whole-record Welch periodogram: each batch of
trajectories is held whole and cut into segments afterwards, which the
streaming estimator in phonocool.langevin must reproduce bit for bit.

`time_average` is an exact expectation, not a simulation: the mean and the
per-trajectory standard deviation of the recorded time average of |b_i|^2,
from the drift matrix and the noise densities alone.
"""
import numpy as np
from scipy.linalg import solve_continuous_lyapunov


def _stream(seed: int, traj: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), traj], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_draws(seed: int, traj: int, n_steps: int) -> np.ndarray:
    """(n_steps, 3) unit-variance complex normals of trajectory `traj`, one
    (3, 2) block of real normals per step combined as (re + i im) / sqrt(2):
    the layout phonocool.langevin draws in place."""
    w = _stream(seed, traj).standard_normal((n_steps, 3, 2))
    return (w[..., 0] + 1j * w[..., 1]) / np.sqrt(2.0)


def reference_record(e: np.ndarray, c: np.ndarray, seed: int, traj: int,
                     n_burn: int, n_rec: int) -> np.ndarray:
    """(n_rec, 3) states of trajectory `traj` after steps n_burn + 1 ..
    n_burn + n_rec."""
    gen = _stream(seed, traj)
    x = np.zeros(3, dtype=complex)
    rec = np.empty((n_rec, 3), dtype=complex)
    for step in range(n_burn + n_rec):
        w = gen.standard_normal((3, 2))
        x = e @ x + c @ ((w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0))
        if step >= n_burn:
            rec[step - n_burn] = x
    return rec


def reference_batch(e: np.ndarray, c: np.ndarray, seed: int, lo: int,
                    hi: int, n_burn: int, n_rec: int) -> np.ndarray:
    """(hi - lo, n_rec, 3) records of trajectories lo..hi-1 as one batch:
    every step's draws of the whole batch shaped by one matrix product, so
    a kernel that splits the batch must reproduce it bit for bit.  A lone
    trajectory is computed in a batch with its successor: a one-row product
    takes BLAS's vector-matrix path, which rounds differently, and a
    trajectory's record must not depend on the batch it ran in."""
    n_tot = n_burn + n_rec
    draws = np.stack([reference_draws(seed, i, n_tot)
                      for i in range(lo, max(hi, lo + 2))])
    shaped = np.matmul(draws.transpose(1, 0, 2), c.T.copy())
    et = e.T.copy()
    x = np.zeros((len(draws), 3), dtype=complex)
    for s in range(n_tot):
        x = shaped[s] + x @ et
        shaped[s] = x
    return shaped[n_burn:, :hi - lo].transpose(1, 0, 2)


def reference_welch(records: np.ndarray, dt: float, n_seg: int,
                    overlap: float, batch: int):
    """Welch periodogram of b1, b2 in `records` (n_traj, n_rec, 3), batch by
    batch of `batch` trajectories: every Hann-windowed segment of a batch's
    whole records, segments `hop` samples apart, transformed with the
    e^{+i omega t} kernel and summed in start order.  Returns (omegas, s1,
    s2, s1_stderr, s2_stderr, occupancy, n_segments) on the sorted native
    bins, occupancy being the mean of |b_i|^2 over every recorded sample."""
    n_traj, n_rec, _ = records.shape
    hop = max(1, int(round(n_seg * (1.0 - overlap))))
    win = np.hanning(n_seg)
    wnorm = float((win**2).sum())
    s_sum = np.zeros((2, n_seg))
    s_sqsum = np.zeros((2, n_seg))
    occ_sum = np.zeros(2)
    count = 0
    for lo in range(0, n_traj, batch):
        rec = np.ascontiguousarray(records[lo:lo + batch, :, 1:])
        occ_sum += np.mean(np.abs(rec)**2, axis=(0, 1)) * len(rec)
        for st in range(0, n_rec - n_seg + 1, hop):
            seg = rec[:, st:st + n_seg, :] * win[None, :, None]
            xf = np.fft.ifft(seg, axis=1) * n_seg
            pxx = dt * np.abs(xf)**2 / wnorm
            s_sum += pxx.sum(axis=0).T
            s_sqsum += (pxx**2).sum(axis=0).T
            count += len(rec)
    s_mean = s_sum / count
    s_err = np.sqrt(np.clip(s_sqsum / count - s_mean**2, 0.0, None) / count)
    om = 2 * np.pi * np.fft.fftfreq(n_seg, d=dt)
    order = np.argsort(om)
    return (om[order], s_mean[0, order], s_mean[1, order], s_err[0, order],
            s_err[1, order], occ_sum / n_traj, count)


def time_average(m: np.ndarray, noise: np.ndarray, dt: float, n_burn: int,
                 n_tot: int):
    """Exact expectation of the time average of |b_i|^2 over samples
    n_burn+1 .. n_tot of a trajectory of dx/dt = m x + noise started from
    the vacuum, and the standard deviation of that average for one
    trajectory; `noise` holds the channel densities (a2, b1, b2).

    E[x x^dag](t) = P - e^{mt} P e^{m^dag t} with m P + P m^dag + N = 0; for
    a circular Gaussian, Cov(|b(t)|^2, |b(s)|^2) = |[e^{m|t-s|} P]_ii|^2
    (stationary approximation).  Returns (mean, sd), each a length-2 array
    for modes 1 and 2.
    """
    p = solve_continuous_lyapunov(m, -np.diag(noise))
    lam, v = np.linalg.eig(m)
    vinv = np.linalg.inv(v)
    n = n_tot - n_burn
    t = (n_burn + 1 + np.arange(n)) * dt
    ph = np.exp(np.outer(t, lam))
    w = vinv @ p @ vinv.conj().T
    transient = np.einsum("ia,ab,ib,ta,tb->i", v, w, v.conj(), ph, ph.conj()).real / n
    mean = np.diag(p).real - transient
    lags = np.arange(n)
    corr = np.einsum("ia,da,ai->di", v, np.exp(np.outer(lags * dt, lam)), vinv @ p)
    weight = np.where(lags == 0, n, 2 * (n - lags))
    var = (weight[:, None] * np.abs(corr)**2).sum(axis=0) / n**2
    return mean[1:], np.sqrt(var[1:])

"""Time-domain stochastic simulation of the linear (a2, b1, b2) system.

The linear Langevin equations are discretized exactly: the one-step map is
x -> exp(M dt) x + xi with xi a circularly symmetric complex Gaussian whose
covariance is the exact integral of the propagated noise over one step
(computed with the doubled-dimension matrix-exponential construction).
There is therefore no time-step bias; dt only sets the sampling density of
the time averages.

Noise densities follow the normally ordered convention that reproduces the
closed-form spectra: phonon channel i carries 2 gamma_i nbar_i, the cavity
channel carries zero.
"""
from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, asdict

import numpy as np
from scipy.linalg import expm

from .core import SystemParams, validate
from .dynamics import drift_matrix


class CovarianceError(RuntimeError):
    """The discretized noise covariance failed to be positive semidefinite."""


_TRAJ_BATCH = 512  # trajectories propagated per vectorized block


@dataclass(frozen=True)
class EnsembleStats:
    """Monte Carlo occupancy estimates with provenance.

    occupancy_mean / occupancy_stderr are per phonon mode (1, 2); the
    standard error is computed across trajectory-level means, which are
    independent samples.
    """

    n_traj: int
    t_end: float
    dt: float
    burn_in: float
    occupancy_mean: tuple[float, float]
    occupancy_stderr: tuple[float, float]
    seed: int
    scheme: str = "exact_exponential"

    def __post_init__(self):
        if self.n_traj < 2:
            raise ValueError("n_traj must be at least 2")

    def to_json(self) -> str:
        d = asdict(self)
        d["occupancy_mean"] = list(d["occupancy_mean"])
        d["occupancy_stderr"] = list(d["occupancy_stderr"])
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnsembleStats":
        d = json.loads(text)
        d["occupancy_mean"] = tuple(d["occupancy_mean"])
        d["occupancy_stderr"] = tuple(d["occupancy_stderr"])
        return cls(**d)


def _noise_densities(p: SystemParams) -> np.ndarray:
    return np.array([0.0, 2 * p.gamma1 * p.nbar1, 2 * p.gamma2 * p.nbar2])


def step_covariance(params: SystemParams, dt: float) -> np.ndarray:
    """Exact one-step noise covariance Q = int_0^dt e^{Ms} N e^{M^dag s} ds,
    with N the diagonal of channel densities."""
    m = drift_matrix(params).m
    n = np.diag(_noise_densities(params)).astype(complex)
    block = np.zeros((6, 6), dtype=complex)
    block[:3, :3] = m
    block[:3, 3:] = n
    block[3:, 3:] = -m.conj().T
    f = expm(block * dt)
    return f[:3, 3:] @ f[:3, :3].conj().T


def _shaping_matrix(q: np.ndarray) -> np.ndarray:
    """Factor C with C C^dag = Q for a (numerically) PSD covariance."""
    qh = 0.5 * (q + q.conj().T)
    w, v = np.linalg.eigh(qh)
    wmax = max(float(w.max()), 0.0)
    if w.min() < -1e-10 * wmax - 1e-300:
        cond = wmax / abs(w.min()) if w.min() != 0 else np.inf
        raise CovarianceError(
            "discretized noise covariance is not positive semidefinite: "
            f"eigenvalues {w.tolist()}, |max/min| condition {cond:.3g}")
    return v * np.sqrt(np.clip(w, 0.0, None))


def _propagator(params: SystemParams, dt: float):
    m = drift_matrix(params).m
    e = expm(m * dt)
    if not np.all(np.isfinite(e)):
        raise CovarianceError("exp(M dt) is not finite; reduce dt")
    c = _shaping_matrix(step_covariance(params, dt))
    return e, c


def _substream(seed: int, traj: int) -> np.random.Generator:
    # counter-based Philox keyed on (seed, trajectory index): trajectories
    # are reproducible independently of batching or thread scheduling
    key = np.array([seed % (1 << 64), traj], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_normals(gen: np.random.Generator, n_steps: int) -> np.ndarray:
    w = gen.standard_normal((n_steps, 3, 2))
    return (w[..., 0] + 1j * w[..., 1]) / np.sqrt(2.0)


def _whole_steps(span: float, dt: float, name: str) -> int:
    """span / dt, which must be a whole number to 1e-9 relative: a span
    that is not is rejected rather than rounded to a different one."""
    n = span / dt
    k = round(n)
    if abs(n - k) > 1e-9 * abs(n):
        raise ValueError(f"{name} = {span:g} is not a whole number of "
                         f"steps of dt = {dt:g} ({n:.6g} steps)")
    return int(k)


def _check_burn_in(params: SystemParams, burn_in: float) -> None:
    m = drift_matrix(params).m
    rates = -np.linalg.eigvals(m).real
    pos = rates[rates > 0]
    if pos.size and burn_in < 10.0 / pos.min():
        warnings.warn(
            f"burn_in = {burn_in:g} is shorter than 10/min decay rate "
            f"= {10.0 / pos.min():g}; the slowest mode may not be thermalized",
            stacklevel=3)


def simulate_ensemble(params: SystemParams, n_traj: int, t_end: float,
                      dt: float, burn_in: float, seed: int = 0,
                      dump_dir: str | None = None) -> EnsembleStats:
    """Monte Carlo estimate of the steady-state phonon occupancies.

    Each trajectory starts from the vacuum, is propagated with the exact
    one-step map, and contributes the time average of |b_i|^2 over
    (burn_in, t_end]; t_end and burn_in must be whole numbers of steps dt.
    With dump_dir set, the recorded window of every trajectory is written
    as CSV (one file per trajectory; large).
    """
    p = validate(params)
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    if dt <= 0 or t_end <= burn_in or burn_in < 0:
        raise ValueError("need dt > 0 and t_end > burn_in >= 0")
    n_tot = _whole_steps(t_end, dt, "t_end")
    n_burn = _whole_steps(burn_in, dt, "burn_in")
    _check_burn_in(p, burn_in)
    n_rec = n_tot - n_burn
    if n_rec < 1:
        raise ValueError("no recorded samples: increase t_end or reduce burn_in")

    e, c = _propagator(p, dt)
    et = e.T.copy()
    ct = c.T.copy()
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    t_rec = (n_burn + 1 + np.arange(n_rec)) * dt

    traj_means = np.empty((n_traj, 3))
    for lo in range(0, n_traj, _TRAJ_BATCH):
        hi = min(lo + _TRAJ_BATCH, n_traj)
        nb = hi - lo
        x = np.zeros((nb, 3), dtype=complex)
        sums = np.zeros((nb, 3))
        rec = (np.empty((nb, n_rec, 3), dtype=complex)
               if dump_dir is not None else None)
        gens = [_substream(seed, i) for i in range(lo, hi)]
        chunk = 1024
        noise = np.empty((nb, chunk, 3), dtype=complex)
        step = 0
        while step < n_tot:
            csize = min(chunk, n_tot - step)
            for j, g in enumerate(gens):
                noise[j, :csize] = _complex_normals(g, csize)
            z = noise[:, :csize] @ ct
            for s in range(csize):
                x = x @ et + z[:, s]
                step += 1
                if step > n_burn:
                    a = np.abs(x)
                    sums += a * a
                    if rec is not None:
                        rec[:, step - n_burn - 1, :] = x
        traj_means[lo:hi] = sums / n_rec
        if rec is not None:
            for j in range(nb):
                _dump_trajectory(dump_dir, lo + j, t_rec, rec[j])

    mean = traj_means.mean(axis=0)
    stderr = traj_means.std(axis=0, ddof=1) / np.sqrt(n_traj)
    return EnsembleStats(
        n_traj=n_traj, t_end=float(t_end), dt=float(dt),
        burn_in=float(burn_in),
        occupancy_mean=(float(mean[1]), float(mean[2])),
        occupancy_stderr=(float(stderr[1]), float(stderr[2])),
        seed=int(seed))


def _dump_trajectory(dump_dir: str, index: int, t: np.ndarray,
                     rec: np.ndarray) -> None:
    path = os.path.join(dump_dir, f"traj_{index:05d}.csv")
    data = np.column_stack([
        t,
        rec[:, 0].real, rec[:, 0].imag,
        rec[:, 1].real, rec[:, 1].imag,
        rec[:, 2].real, rec[:, 2].imag,
    ])
    header = "t, Re(a2), Im(a2), Re(b1), Im(b1), Re(b2), Im(b2)"
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=header, comments="# ")


# ---------------------------------------------------------------------------
# Welch periodogram


@dataclass(frozen=True)
class WelchSpectra:
    """Welch-averaged phonon spectra with per-bin standard errors.

    Normalized so that (1/2pi) int S d omega equals the time-average
    occupancy of the same record (occupancy_time_avg).
    """

    omegas: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s1_stderr: np.ndarray
    s2_stderr: np.ndarray
    occupancy_time_avg: tuple[float, float]
    n_segments: int

    def curve(self, mode: int):
        from .spectra import SpectrumCurve
        if mode not in (1, 2):
            raise ValueError("mode must be 1 or 2")
        values = self.s1 if mode == 1 else self.s2
        return SpectrumCurve(omegas=self.omegas,
                             values=np.clip(values, 0.0, None),
                             kind=f"phonon{mode}")


def periodogram(params: SystemParams, n_traj: int, t_end: float, dt: float,
                burn_in: float, seed: int = 0,
                segment_length: int | None = None, overlap: float = 0.5,
                omegas=None) -> WelchSpectra:
    """Welch periodogram of the simulated phonon amplitudes b1(t), b2(t).

    segment_length is in samples (default: the whole post-burn-in record,
    one segment per trajectory); segments overlap by the given fraction
    and are Hann-windowed.  If an omegas grid is supplied, the native FFT
    bins are linearly interpolated onto it.  t_end and burn_in must be
    whole numbers of steps dt.
    """
    p = validate(params)
    if dt <= 0 or t_end <= burn_in or burn_in < 0:
        raise ValueError("need dt > 0 and t_end > burn_in >= 0")
    gammas = [g for g in (p.gamma1, p.gamma2) if g > 0]
    if gammas and (t_end - burn_in) < 50.0 / min(gammas):
        raise ValueError(
            f"record too short: need t_end - burn_in >= {50.0 / min(gammas):g} "
            "(50 / smallest phonon half-width)")
    n_tot = _whole_steps(t_end, dt, "t_end")
    n_burn = _whole_steps(burn_in, dt, "burn_in")
    _check_burn_in(p, burn_in)
    n_rec = n_tot - n_burn
    n_seg = n_rec if segment_length is None else int(segment_length)
    if n_seg < 8 or n_seg > n_rec:
        raise ValueError("segment_length must be in [8, record length]")
    hop = max(1, int(round(n_seg * (1.0 - overlap))))
    starts = list(range(0, n_rec - n_seg + 1, hop))

    win = np.hanning(n_seg)
    wnorm = float((win**2).sum())
    e, c = _propagator(p, dt)
    et = e.T.copy()
    ct = c.T.copy()

    s_sum = np.zeros((2, n_seg))
    s_sqsum = np.zeros((2, n_seg))
    occ_sum = np.zeros(2)
    count = 0

    batch = 64
    for lo in range(0, n_traj, batch):
        hi = min(lo + batch, n_traj)
        nb = hi - lo
        x = np.zeros((nb, 3), dtype=complex)
        rec = np.empty((nb, n_rec, 2), dtype=complex)
        gens = [_substream(seed, i) for i in range(lo, hi)]
        chunk = 2048
        step = 0
        while step < n_tot:
            csize = min(chunk, n_tot - step)
            z = np.stack([_complex_normals(g, csize) for g in gens])
            z = z @ ct
            for s in range(csize):
                x = x @ et + z[:, s]
                step += 1
                if step > n_burn:
                    rec[:, step - n_burn - 1, :] = x[:, 1:]
        occ_sum += np.mean(np.abs(rec)**2, axis=(0, 1)) * nb
        for st in starts:
            seg = rec[:, st:st + n_seg, :] * win[None, :, None]
            # FFT with the e^{+i omega t} kernel: N * ifft
            xf = np.fft.ifft(seg, axis=1) * n_seg
            pxx = dt * np.abs(xf)**2 / wnorm
            s_sum += pxx.sum(axis=0).T
            s_sqsum += (pxx**2).sum(axis=0).T
            count += nb

    s_mean = s_sum / count
    var = np.clip(s_sqsum / count - s_mean**2, 0.0, None)
    s_err = np.sqrt(var / count)

    om_native = 2 * np.pi * np.fft.fftfreq(n_seg, d=dt)
    order = np.argsort(om_native)
    om_native = om_native[order]
    s_mean = s_mean[:, order]
    s_err = s_err[:, order]

    occ = occ_sum / n_traj
    if omegas is not None:
        omegas = np.asarray(omegas, dtype=float)
        s1 = np.interp(omegas, om_native, s_mean[0])
        s2 = np.interp(omegas, om_native, s_mean[1])
        e1 = np.interp(omegas, om_native, s_err[0])
        e2 = np.interp(omegas, om_native, s_err[1])
        return WelchSpectra(omegas=omegas, s1=s1, s2=s2,
                            s1_stderr=e1, s2_stderr=e2,
                            occupancy_time_avg=(float(occ[0]), float(occ[1])),
                            n_segments=count)
    return WelchSpectra(omegas=om_native, s1=s_mean[0], s2=s_mean[1],
                        s1_stderr=s_err[0], s2_stderr=s_err[1],
                        occupancy_time_avg=(float(occ[0]), float(occ[1])),
                        n_segments=count)

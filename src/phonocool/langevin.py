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

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SystemParams, _write_columns
from .dynamics import _noise_densities, drift_matrix


class CovarianceError(RuntimeError):
    """The discretized noise covariance failed to be positive semidefinite."""


_TRAJ_BATCH = 512  # trajectories propagated per vectorized block
# smaller: each Welch batch holds batch x (segment_length + _CHUNK) samples
# and its segment FFTs are batch x segment_length; the spectra's summation
# order, and so their last bits, depend on it
_WELCH_BATCH = 64
_CHUNK = 512  # steps drawn and propagated per block
# rows drawn, or steps shaped or summed, per small temporary of a chunk
_BLOCK = 16
# concurrent.futures.ThreadPoolExecutor, imported by the first _propagate
# call so that no other command pays for it; a module attribute, so it
# can be replaced
ThreadPoolExecutor = None


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


def step_covariance(params: SystemParams, dt: float) -> np.ndarray:
    """Exact one-step noise covariance Q = int_0^dt e^{Ms} N e^{M^dag s} ds,
    with N the diagonal of channel densities."""
    from scipy.linalg import expm
    m = drift_matrix(params)
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
    from scipy.linalg import expm
    m = drift_matrix(params)
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


def _whole_steps(span: float, dt: float, name: str) -> int:
    """span / dt, which must be a whole number to 1e-9 relative: a span
    that is not is rejected rather than rounded to a different one."""
    n = span / dt
    k = round(n)
    if abs(n - k) > 1e-9 * abs(n):
        raise ValueError(f"{name} = {span:g} is not a whole number of "
                         f"steps of dt = {dt:g} ({n:.6g} steps)")
    return int(k)


def _record(t_end: float, dt: float, burn_in: float) -> tuple[int, int]:
    """(burn-in steps, recorded steps) of a run, after checking the time
    grid."""
    for name, value in (("dt", dt), ("t_end", t_end), ("burn_in", burn_in)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if dt <= 0 or t_end <= burn_in or burn_in < 0:
        raise ValueError("need dt > 0 and t_end > burn_in >= 0")
    n_tot = _whole_steps(t_end, dt, "t_end")
    n_burn = _whole_steps(burn_in, dt, "burn_in")
    if n_tot <= n_burn:
        raise ValueError("no recorded samples: increase t_end or reduce burn_in")
    return n_burn, n_tot - n_burn


def _warn_short_burn_in(p: SystemParams, burn_in: float) -> None:
    """Warn when burn_in is short of 10 / slowest decay rate; called after
    every input check, so a rejected run never warns."""
    rates = -np.linalg.eigvals(drift_matrix(p)).real
    pos = rates[rates > 0]
    if pos.size and burn_in < 10.0 / pos.min():
        warnings.warn(
            f"burn_in = {burn_in:g} is shorter than 10/min decay rate "
            f"= {10.0 / pos.min():g}; the slowest mode may not be thermalized",
            stacklevel=3)


def _propagate(e: np.ndarray, c: np.ndarray, seed: int, lo: int, hi: int,
               n_burn: int, n_rec: int):
    """Propagate trajectories lo..hi-1 from the vacuum with x -> e x + c w
    and yield their recorded states in time order as (offset, block)
    pairs: block[:, j] is the state at record index offset + j.  The block
    is a view of a buffer that the next step of the generator overwrites.

    This one loop feeds the occupancy sums, the dump files and the Welch
    spectra.  Each chunk's noise is drawn by two worker threads, one half
    of the trajectories each, _BLOCK rows at a time through a small scratch
    into one time-major buffer, and shaped in place by the same two, one
    half of the steps each, _BLOCK steps per matrix product.  The pool
    lives for one call, so importing the package starts no thread and a
    forked child can simulate; there is no thread-count setting.  The
    states are the same bit for bit however trajectories are batched,
    steps are chunked or the workers are scheduled.
    """
    et, ct = e.T.copy(), c.T.copy()
    gens = [_substream(seed, i) for i in range(lo, hi)]
    # a lone row would go through BLAS gemv, which rounds differently from
    # the gemm of larger batches: pad it with a row of zeros that stays zero
    rows = max(hi - lo, 2)
    buf = np.zeros((_CHUNK, rows, 3), dtype=complex)  # time-major
    x = np.zeros((rows, 3), dtype=complex)

    def fill(half: int, k: int) -> None:  # each row from its own stream
        first, stop = half * (hi - lo) // 2, (half + 1) * (hi - lo) // 2
        w = np.empty((min(_BLOCK, stop - first), k, 3), dtype=complex)
        v = w.view(float)  # (re + i im) / sqrt(2), in place
        for g in range(first, stop, _BLOCK):
            n = min(_BLOCK, stop - g)
            for j in range(n):
                gens[g + j].standard_normal(out=v[j])
            v[:n] *= 1.0 / np.sqrt(2.0)
            buf[:k, g:g + n] = w[:n].transpose(1, 0, 2)

    def shape(steps: range) -> None:  # split by step: each gemm has all rows
        tmp = np.empty((_BLOCK, rows, 3), dtype=complex)
        for s in steps[::_BLOCK]:
            n = min(_BLOCK, steps.stop - s)
            np.matmul(buf[s:s + n], ct, out=tmp[:n])
            buf[s:s + n] = tmp[:n]

    global ThreadPoolExecutor
    if ThreadPoolExecutor is None:
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(2) as pool:  # per call: no thread outlives it
        for start in range(0, n_burn + n_rec, _CHUNK):
            k = min(_CHUNK, n_burn + n_rec - start)
            list(pool.map(fill, (0, 1), (k, k)))
            list(pool.map(shape, (range(k // 2), range(k // 2, k))))
            for s in range(k):
                buf[s] += x @ et
                x = buf[s]
            x = x.copy()  # buf is refilled with the next chunk's noise
            first = max(n_burn - start, 0)  # buf[s] is step start + s + 1
            if first < k:
                yield (start + first - n_burn,
                       buf[first:k, :hi - lo].transpose(1, 0, 2))


def _add_occupancy(sums: np.ndarray, block: np.ndarray) -> None:
    """Add each trajectory's sums of |b1|^2 and |b2|^2 over a recorded block
    of _propagate to its row of sums, _BLOCK steps at a time, carrying the
    partial sum so the order of additions is that of one whole-block sum."""
    part = 0.0  # the sum runs on in step order, as over one whole block
    for s in range(0, block.shape[1], _BLOCK):
        a = np.abs(block[:, s:s + _BLOCK, 1:])
        a *= a
        a[:, 0] += part
        part = a.sum(axis=1)
    sums += part


def simulate_ensemble(params: SystemParams, n_traj: int, t_end: float,
                      dt: float, burn_in: float, seed: int = 0,
                      dump_dir: str | None = None) -> EnsembleStats:
    """Monte Carlo estimate of the steady-state phonon occupancies.

    Each trajectory starts from the vacuum, is propagated with the exact
    one-step map, and contributes the time average of |b_i|^2 over
    (burn_in, t_end]; t_end and burn_in must be whole numbers of steps dt.
    With dump_dir set, the recorded window of every trajectory is written
    as CSV (one file per trajectory; large).  n_traj must be at least 2,
    and dt, t_end and burn_in finite.  The dump files are the same bit for
    bit however the run is batched or chunked; the mean and standard error,
    summed block by block, agree across chunk sizes to rounding.  A mean or
    standard error beyond the float range raises OverflowError with no
    numpy warning.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    n_burn, n_rec = _record(t_end, dt, burn_in)
    _warn_short_burn_in(params, burn_in)
    e, c = _propagator(params, dt)
    if dump_dir is not None:  # only the dump files read the record times
        t_rec = (n_burn + 1 + np.arange(n_rec)) * dt
        os.makedirs(dump_dir, exist_ok=True)

    # a value beyond the float range surfaces as one OverflowError below,
    # not as a numpy warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.zeros((n_traj, 2))
        for lo in range(0, n_traj, _TRAJ_BATCH):
            hi = min(lo + _TRAJ_BATCH, n_traj)
            rec = (np.empty((hi - lo, n_rec, 3), dtype=complex)
                   if dump_dir is not None else None)
            for off, block in _propagate(e, c, seed, lo, hi, n_burn, n_rec):
                _add_occupancy(sums[lo:hi], block)
                if rec is not None:
                    rec[:, off:off + block.shape[1]] = block
            if rec is not None:
                for j in range(hi - lo):
                    _dump_trajectory(dump_dir, lo + j, t_rec, rec[j])

        traj_means = sums / n_rec
        mean = traj_means.mean(axis=0)
        stderr = traj_means.std(axis=0, ddof=1) / np.sqrt(n_traj)
    if not (np.isfinite(mean).all() and np.isfinite(stderr).all()):
        raise OverflowError("occupancy mean or standard error is not finite")
    return EnsembleStats(
        n_traj=n_traj, t_end=float(t_end), dt=float(dt),
        burn_in=float(burn_in),
        occupancy_mean=(float(mean[0]), float(mean[1])),
        occupancy_stderr=(float(stderr[0]), float(stderr[1])),
        seed=int(seed))


def _dump_trajectory(dump_dir: str, index: int, t: np.ndarray,
                     rec: np.ndarray) -> None:
    path = os.path.join(dump_dir, f"traj_{index:05d}.csv")
    _write_columns(path, "t, Re(a2), Im(a2), Re(b1), Im(b1), Re(b2), Im(b2)",
                   [t, *rec.T])


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


def periodogram(params: SystemParams, n_traj: int, t_end: float, dt: float,
                burn_in: float, seed: int = 0,
                segment_length: int | None = None) -> WelchSpectra:
    """Welch periodogram of the simulated phonon amplitudes b1(t), b2(t).

    segment_length is in samples (default: the whole post-burn-in record,
    one segment per trajectory); segments are Hann-windowed and overlap by
    half.  The spectra are on the native FFT bins, in increasing order,
    about +-pi/dt wide; np.interp takes them onto another grid.  They are
    the same bit for bit however steps are chunked.

    t_end and burn_in must be finite whole numbers of steps dt, the record
    t_end - burn_in at least 50 over the smallest phonon half-width, and
    segment_length a whole number in [8, record length]; n_traj must be at
    least 1.  Each is checked before any propagation or burn-in warning.
    Each segment is transformed as soon as its last sample is propagated,
    and a batch keeps only its ring of samples a pending segment still
    needs, one segment and one power array, so its memory is
    O(batch x segment length) whatever the record length.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    n_burn, n_rec = _record(t_end, dt, burn_in)
    gammas = [g for g in (params.gamma1, params.gamma2) if g > 0]
    if gammas and (t_end - burn_in) < 50.0 / min(gammas):
        raise ValueError(
            f"record too short: need t_end - burn_in >= {50.0 / min(gammas):g} "
            "(50 / smallest phonon half-width)")
    if segment_length is not None and not float(segment_length).is_integer():
        raise ValueError("segment_length must be a whole number of samples, "
                         f"got {segment_length!r}")
    n_seg = n_rec if segment_length is None else int(segment_length)
    if n_seg < 8 or n_seg > n_rec:
        raise ValueError("segment_length must be in [8, record length]")
    _warn_short_burn_in(params, burn_in)
    hop = max(1, int(round(n_seg * 0.5)))
    starts = range(0, n_rec - n_seg + 1, hop)

    win = np.hanning(n_seg)
    wnorm = float((win**2).sum())
    e, c = _propagator(params, dt)

    s_sum = np.zeros((2, n_seg))
    s_sqsum = np.zeros((2, n_seg))
    sums = np.zeros((n_traj, 2))
    count = 0
    # record sample t sits at ring[:, t % cap]; a pending segment starts
    # after end - n_seg, and a block writes at most _CHUNK samples past
    # end, so no sample is overwritten while a segment still needs it
    cap = min(n_seg + _CHUNK, n_rec)
    for lo in range(0, n_traj, _WELCH_BATCH):
        hi = min(lo + _WELCH_BATCH, n_traj)
        ring = np.empty((hi - lo, cap, 2), dtype=complex)
        seg = np.empty((hi - lo, n_seg, 2), dtype=complex)
        pxx = np.empty((hi - lo, n_seg, 2))
        i = 0  # starts[i] is the next segment
        for off, block in _propagate(e, c, seed, lo, hi, n_burn, n_rec):
            _add_occupancy(sums[lo:hi], block)
            end = off + block.shape[1]
            for r, b in _ring_spans(off, end, cap):
                ring[:, r] = block[:, b, 1:]
            # each segment as soon as its last sample is in, in start order
            while i < len(starts) and starts[i] + n_seg <= end:
                for r, b in _ring_spans(starts[i], starts[i] + n_seg, cap):
                    np.multiply(ring[:, r], win[b, None], out=seg[:, b])
                # FFT with the e^{+i omega t} kernel: N * ifft
                np.fft.ifft(seg, axis=1, out=seg)
                seg *= n_seg
                np.abs(seg, out=pxx)  # dt |xf|^2 / wnorm, in that order
                pxx *= pxx
                pxx *= dt
                pxx /= wnorm
                s_sum += pxx.sum(axis=0).T
                pxx *= pxx
                s_sqsum += pxx.sum(axis=0).T
                count += hi - lo
                i += 1

    s_mean = s_sum / count
    s_err = np.sqrt(np.clip(s_sqsum / count - s_mean**2, 0.0, None) / count)
    occ = (sums / n_rec).mean(axis=0)
    om = 2 * np.pi * np.fft.fftfreq(n_seg, d=dt)
    order = np.argsort(om)
    return WelchSpectra(om[order], s_mean[0, order], s_mean[1, order],
                        s_err[0, order], s_err[1, order],
                        occupancy_time_avg=(float(occ[0]), float(occ[1])),
                        n_segments=count)


def _ring_spans(start: int, stop: int, cap: int):
    """(ring slice, slice from start) pairs that cover record samples
    start .. stop - 1 of a ring buffer of cap samples; stop - start <= cap."""
    p = start % cap
    m = min(stop - start, cap - p)
    return ((slice(p, p + m), slice(0, m)),
            (slice(0, stop - start - m), slice(m, stop - start)))

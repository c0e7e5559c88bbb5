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
"""
import numpy as np


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

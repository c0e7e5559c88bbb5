"""Step-by-step reference for the Monte Carlo propagation.

Propagates one trajectory at a time, one step at a time: trajectory i draws
from its own Philox(key=[seed, i]) stream and steps x <- e x + c w from the
vacuum.  It shares only the one-step matrices (e, c) with phonocool.langevin,
so the tests use it to check how the batched, chunked kernel lays out the
burn-in and the recorded window.
"""
import numpy as np


def reference_record(e: np.ndarray, c: np.ndarray, seed: int, traj: int,
                     n_burn: int, n_rec: int) -> np.ndarray:
    """(n_rec, 3) states of trajectory `traj` after steps n_burn + 1 ..
    n_burn + n_rec."""
    key = np.array([seed % (1 << 64), traj], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    x = np.zeros(3, dtype=complex)
    rec = np.empty((n_rec, 3), dtype=complex)
    for step in range(n_burn + n_rec):
        w = gen.standard_normal((3, 2))
        x = e @ x + c @ ((w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0))
        if step >= n_burn:
            rec[step - n_burn] = x
    return rec

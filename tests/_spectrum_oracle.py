"""Per-frequency linear-solve reference for the closed-form spectra.

Solves the 3x3 frequency-domain system of the linear Langevin equations at
every frequency and weights the responses by its own copy of the noise
channel densities (phonon channel i carries 2 gamma_i nbar_i, the cavity
channel zero).  It builds its own drift matrix from the SystemParams fields
and shares no arithmetic with phonocool, so the tests use it as an
independent check of the closed forms.
"""
import numpy as np

from phonocool import SingularityError, SpectrumCurve, SystemParams


def _drift(p: SystemParams) -> np.ndarray:
    """Drift matrix of d/dt (a2, b1, b2) = M x + noise."""
    return np.array([
        [-1j * p.delta - p.kappa2, -1j * p.g1, -1j * p.g2],
        [-1j * np.conj(p.g1), -1j * p.omega - p.gamma1, 0.0],
        [-1j * np.conj(p.g2), 0.0, 1j * p.omega - p.gamma2],
    ], dtype=complex)


def spectrum_oracle(params: SystemParams, omegas
                    ) -> tuple[SpectrumCurve, SpectrumCurve, SpectrumCurve]:
    """Brute-force spectra from the per-frequency linear solve.

    For each omega solves (-i omega I - M) x = e_j for every noise channel
    j and weights |x|^2 by the channel densities (0, 2 gamma1 nbar1,
    2 gamma2 nbar2).  Returns (phonon1, phonon2, antistokes) curves that
    the closed forms must reproduce.
    """
    omegas = np.asarray(omegas, dtype=float)
    a = -1j * omegas[:, None, None] * np.eye(3) - _drift(params)[None, :, :]
    try:
        resp = np.linalg.solve(a, np.broadcast_to(np.eye(3), a.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"singular frequency-domain system: {exc}") from exc
    dens = np.array([0.0, 2 * params.gamma1 * params.nbar1,
                     2 * params.gamma2 * params.nbar2])
    s = np.einsum("wij,j->wi", np.abs(resp)**2, dens)
    return (
        SpectrumCurve(omegas=omegas, values=s[:, 1], kind="phonon1"),
        SpectrumCurve(omegas=omegas, values=s[:, 2], kind="phonon2"),
        SpectrumCurve(omegas=omegas, values=s[:, 0], kind="antistokes"),
    )

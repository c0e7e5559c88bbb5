"""Independent reference values for every output the benchmark checks.

Nothing here imports phonocool.  Steady states come from a Lyapunov solve
(not the library's quadrature), spectra from a per-frequency linear solve
(not the library's closed forms), Monte Carlo expectations from the exact
covariance transient of a vacuum start, coupling constants from plane-wave
closed forms, and three-wave trajectories from scipy's adaptive DOP853
integrator (not the library's fixed-step RK4).  None of these depends on
the workload seed except through the inputs it is given.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov


class System(NamedTuple):
    """Two-phonon + cavity parameters in kappa2 units (mirrors the CLI flags)."""

    kappa2: float = 1.0
    delta: float = 0.0
    omega: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    nbar1: float = 0.0
    nbar2: float = 0.0


# the paper's reference configuration (bimodal, G2 = 0.5)
REFERENCE = System(kappa2=1.0, omega=0.1, gamma1=0.01, gamma2=0.01,
                   g1=0.3, g2=0.5, nbar1=100.0, nbar2=100.0)
# cooling ratios pinned by the acceptance suite, to three decimals
PINNED_RATIO = {0.0: 0.110, 0.5: 0.288}


def drift(s: System) -> np.ndarray:
    """Drift matrix of d/dt (a2, b1, b2) = M x + noise."""
    return np.array([
        [-1j * s.delta - s.kappa2, -1j * s.g1, -1j * s.g2],
        [-1j * np.conj(s.g1), -1j * s.omega - s.gamma1, 0.0],
        [-1j * np.conj(s.g2), 0.0, 1j * s.omega - s.gamma2],
    ], dtype=complex)


def noise(s: System) -> np.ndarray:
    """Normally ordered noise densities (cavity, phonon 1, phonon 2)."""
    return np.array([0.0, 2 * s.gamma1 * s.nbar1, 2 * s.gamma2 * s.nbar2])


def steady_covariance(s: System) -> np.ndarray:
    """Stationary covariance P from M P + P M^dag + N = 0."""
    return solve_continuous_lyapunov(drift(s), -np.diag(noise(s)))


def occupancy(s: System, mode: int) -> float:
    return float(steady_covariance(s)[mode, mode].real)


def cooling_ratio(s: System, mode: int) -> float:
    return occupancy(s, mode) / (s.nbar1 if mode == 1 else s.nbar2)


def spectra(s: System, omegas: np.ndarray):
    """(S_b1, S_b2, S_a2) on the grid from (-i w - M) x = e_j, weighted by
    the channel noise densities."""
    a = -1j * omegas[:, None, None] * np.eye(3) - drift(s)
    resp = np.linalg.solve(a, np.broadcast_to(np.eye(3), a.shape))
    dens = np.abs(resp)**2 @ noise(s)
    return dens[:, 1], dens[:, 2], dens[:, 0]


def time_average(s: System, dt: float, n_burn: int, n_tot: int):
    """Exact expectation of the time average of |b_i|^2 over samples
    n_burn+1 .. n_tot of a trajectory started from the vacuum, and the
    standard deviation of that average for one trajectory.

    E[x x^dag](t) = P - e^{Mt} P e^{M^dag t}; for a circular Gaussian,
    Cov(|b(t)|^2, |b(s)|^2) = |[e^{M|t-s|} P]_ii|^2 (stationary approximation).
    Returns (mean, sd), each a length-2 array for modes 1 and 2.
    """
    p = steady_covariance(s)
    lam, v = np.linalg.eig(drift(s))
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


def normalized_amplitude(amp: complex, rho0: float, omega_m: float,
                         hbar: float, volume: float) -> complex:
    """Plane-wave amplitude after scaling to rho0 w^2 int |psi|^2 = hbar w / 2."""
    return amp * np.sqrt(hbar * omega_m / 2 / (rho0 * omega_m**2 * abs(amp)**2 * volume))


def beta_plane_waves(c: dict, amp_psi: complex, spacing: float):
    """Coupling of three phase-matched periodic plane waves on a unit cube.

    Returns (acoustic, continuum): the electrostrictive overlap with the
    centred-difference divergence, whose symbol on a periodic grid is
    i sin(q_j h)/h exactly, and the continuum value with symbol i q_j, which
    the Raman route with the Brillouin tensor reproduces exactly.
    """
    pref = 0.5 * c["gamma_e"] * np.sqrt(c["omega_c2"] * c["omega_c1"]
                                        / (c["eps2"] * c["eps1"]))
    overlap = (np.conj(c["amp2"]) * c["amp1"] * amp_psi
               * np.vdot(c["pol2"], c["pol1"]))
    q, e = c["q"], c["pol_psi"]
    discrete = np.dot(e, np.sin(q * spacing) / spacing)
    return (complex(pref * overlap * 1j * discrete),
            complex(pref * overlap * 1j * np.dot(e, q)))


def three_wave_rhs(c: dict):
    k1, k2, gam = c["kappa1"], c.get("kappa2", 1.0), c["gamma"]
    b, pump = c["beta"], c["pump"]

    def rhs(t, y):
        a1, a2, u = y
        return np.array([
            -k1 * (a1 - pump) - 1j * np.conj(b) * np.conj(u) * a2,
            -k2 * a2 - 1j * b * u * a1,
            -gam * u - 1j * np.conj(b) * np.conj(a1) * a2,
        ])
    return rhs


def three_wave_reference(c: dict, t: np.ndarray) -> np.ndarray:
    """(len(t), 3) array of (a1, a2, u) from DOP853 at tight tolerances."""
    sol = solve_ivp(three_wave_rhs(c), (0.0, float(t[-1])),
                    np.array([c["a1"], c["a2"], c["u"]], dtype=complex),
                    method="DOP853", t_eval=t, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def manley_rowe_drift(a1, a2, u) -> float:
    """Largest relative drift of |a1|^2+|a2|^2 and |a2|^2+|u|^2."""
    i1 = np.abs(a1)**2 + np.abs(a2)**2
    i2 = np.abs(a2)**2 + np.abs(u)**2
    return float(max(np.abs(i1 - i1[0]).max() / i1[0],
                     np.abs(i2 - i2[0]).max() / i2[0]))

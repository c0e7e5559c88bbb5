"""Frequency-domain spectra of the two phonon modes and the generated
anti-Stokes field, steady-state occupancies, and cooling ratios.

The closed forms are cross-checked by spectrum_oracle, which solves the
3x3 frequency-domain linear system per frequency and assembles the same
spectra from the noise channel densities (phonon channel i carries
2 gamma_i nbar_i; the cavity channel carries zero weight for normally
ordered moments).

Steady-state occupancies come from the stationary normally ordered
covariance P of the linear Langevin system, which solves the Lyapunov
equation M P + P M^dag + N = 0 with M the drift matrix and
N = diag(0, 2 gamma1 nbar1, 2 gamma2 nbar2); <b_i^dag b_i> = P_ii.  A
phonon mode with zero half-width and zero coupling is a free oscillator
that cannot affect the other mode, so it is dropped and only the coupled
(cavity, phonon) block is solved.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .core import SystemParams, validate
from .dynamics import _noise_densities, drift_matrix


class SingularityError(RuntimeError):
    """Evaluation hit an exact pole (zero phonon width at resonance) or a
    steady state that does not exist (marginally stable drift)."""


@dataclass(frozen=True)
class SpectrumCurve:
    """A sampled spectral density S(omega).

    kind is one of "phonon1", "phonon2", "antistokes"; normalized marks
    the dimensionless form gamma * S / (2 nbar) used for the phonon curves.
    """

    omegas: np.ndarray
    values: np.ndarray
    kind: str
    normalized: bool = False

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        val = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", val)
        if om.ndim != 1 or val.shape != om.shape:
            raise ValueError("omegas and values must be matching 1D arrays")
        if not np.all(np.diff(om) > 0):
            raise ValueError("omegas must be strictly increasing")
        if np.any(val < 0) or not np.all(np.isfinite(val)):
            raise ValueError("spectral density must be finite and nonnegative")
        if self.kind not in ("phonon1", "phonon2", "antistokes"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")


def _denominators(p: SystemParams, omega):
    omega = np.asarray(omega, dtype=float)
    da = 1j * (p.delta - omega) + p.kappa2
    d1 = 1j * (p.omega - omega) + p.gamma1
    d2 = -1j * (p.omega + omega) + p.gamma2
    return da, d1, d2


def _check_poles(p: SystemParams, omega) -> None:
    omega = np.asarray(omega, dtype=float)
    if p.gamma1 == 0.0 and np.any(omega == p.omega):
        raise SingularityError("pole hit: gamma1 = 0 at omega = +Omega")
    if p.gamma2 == 0.0 and np.any(omega == -p.omega):
        raise SingularityError("pole hit: gamma2 = 0 at omega = -Omega")


def d_of_omega(params: SystemParams, omega):
    """Cavity response denominator d(omega) of the coupled system.

    d = (i delta - i omega + kappa2) + |G1|^2/(i Omega - i omega + gamma1)
      + |G2|^2/(-i Omega - i omega + gamma2).
    Scalar in, scalar out; arrays broadcast.
    """
    p = validate(params)
    _check_poles(p, omega)
    da, d1, d2 = _denominators(p, omega)
    out = da + abs(p.g1)**2 / d1 + abs(p.g2)**2 / d2
    return out if np.ndim(omega) else complex(out)


def _grid_span_warning(p: SystemParams, omegas: np.ndarray) -> None:
    gmax = max(p.gamma1, p.gamma2)
    lo, hi = -abs(p.omega) - 20 * gmax, abs(p.omega) + 20 * gmax
    if omegas[0] > lo or omegas[-1] < hi:
        warnings.warn(
            f"frequency grid [{omegas[0]:g}, {omegas[-1]:g}] does not span "
            f"[{lo:g}, {hi:g}] around both resonances", stacklevel=3)


def _phonon_density(p: SystemParams, mode: int, omega) -> np.ndarray:
    da, d1, d2 = _denominators(p, omega)
    g1sq, g2sq = abs(p.g1)**2, abs(p.g2)**2
    d = da + g1sq / d1 + g2sq / d2
    cross = abs(p.g1 * p.g2)**2
    if mode == 1:
        num = (2 * p.gamma1 * p.nbar1 * np.abs(da + g2sq / d2)**2
               + 2 * p.gamma2 * p.nbar2 * cross / np.abs(d2)**2)
        return num / (np.abs(d)**2 * np.abs(d1)**2)
    num = (2 * p.gamma2 * p.nbar2 * np.abs(da + g1sq / d1)**2
           + 2 * p.gamma1 * p.nbar1 * cross / np.abs(d1)**2)
    return num / (np.abs(d)**2 * np.abs(d2)**2)


# a drift eigenvalue decaying slower than this fraction of ||M|| is
# indistinguishable from marginal in double precision
_MARGIN_RTOL = 64 * np.finfo(float).eps


def _require_mode(mode: int) -> None:
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")


def phonon_spectrum(params: SystemParams, mode: int, omegas,
                    normalized: bool = False) -> SpectrumCurve:
    """Closed-form fluctuation spectrum of phonon mode 1 or 2.

    With normalized=True returns gamma_i S / (2 nbar_i), whose uncoupled
    peak equals one.
    """
    p = validate(params)
    _require_mode(mode)
    omegas = np.asarray(omegas, dtype=float)
    _check_poles(p, omegas)
    _grid_span_warning(p, omegas)
    values = _phonon_density(p, mode, omegas)
    if normalized:
        gamma = p.gamma1 if mode == 1 else p.gamma2
        nbar = p.nbar1 if mode == 1 else p.nbar2
        if nbar <= 0:
            raise ValueError("normalized spectrum needs a positive occupancy")
        values = gamma * values / (2 * nbar)
    return SpectrumCurve(omegas=omegas, values=values,
                         kind=f"phonon{mode}", normalized=normalized)


def antistokes_spectrum(params: SystemParams, omegas) -> SpectrumCurve:
    """Closed-form spectrum of the generated anti-Stokes cavity field."""
    p = validate(params)
    omegas = np.asarray(omegas, dtype=float)
    _check_poles(p, omegas)
    da, d1, d2 = _denominators(p, omegas)
    d = da + abs(p.g1)**2 / d1 + abs(p.g2)**2 / d2
    num = (2 * p.gamma1 * p.nbar1 * np.abs(p.g1 / d1)**2
           + 2 * p.gamma2 * p.nbar2 * np.abs(p.g2 / d2)**2)
    return SpectrumCurve(omegas=omegas, values=num / np.abs(d)**2,
                         kind="antistokes")


def occupancy(params: SystemParams, mode: int) -> float:
    """Steady-state phonon occupancy <b_i^dag b_i> of mode 1 or 2.

    Returns P_ii of the stationary covariance that solves
    M P + P M^dag + N = 0 (Bartels-Stewart), with N = diag(0,
    2 gamma1 nbar1, 2 gamma2 nbar2).  A zero-width phonon mode with zero
    coupling is dropped and the remaining (cavity, phonon) block is solved;
    a zero-width mode that is coupled or requested raises SingularityError,
    as does a drift whose slowest eigenvalue is not decaying beyond
    rounding (no steady state to report).
    """
    p = validate(params)
    _require_mode(mode)
    keep = [0]
    for i, gamma, g in ((1, p.gamma1, p.g1), (2, p.gamma2, p.g2)):
        if gamma > 0:
            keep.append(i)
        elif i == mode or g != 0:
            raise SingularityError(
                "occupancy requires positive phonon half-widths (gamma1, gamma2) "
                "unless the zero-width mode is uncoupled and not requested")
    m = drift_matrix(p).m[np.ix_(keep, keep)]
    eig = np.linalg.eigvals(m)
    slowest = eig[np.argmax(eig.real)]
    if slowest.real >= -_MARGIN_RTOL * np.linalg.norm(m):
        raise SingularityError(
            "drift matrix is not Hurwitz to working precision: marginal "
            f"eigenvalue {slowest:.6g}")
    cov = solve_continuous_lyapunov(m, -np.diag(_noise_densities(p)[keep]))
    i = keep.index(mode)
    return float(cov[i, i].real)


def cooling_ratio(params: SystemParams, mode: int) -> float:
    """Steady-state occupancy of the selected mode divided by its thermal
    occupancy; equals 1 without coupling and also gives the final/initial
    temperature ratio in the classical limit."""
    p = validate(params)
    _require_mode(mode)
    nbar = p.nbar1 if mode == 1 else p.nbar2
    if nbar <= 0:
        raise ValueError(f"cooling ratio undefined: nbar{mode} must be positive")
    return occupancy(p, mode) / nbar


def cooling_ratio_adiabatic(params: SystemParams, mode: int) -> float:
    """Single-mode adiabatic estimate gamma_i / gamma_i_eff with the cavity
    Lorentzian evaluated at the mode's resonance frequency.  Useful as a
    sanity check on the full steady state in the kappa2 >> gamma regime."""
    p = validate(params)
    _require_mode(mode)
    gamma = p.gamma1 if mode == 1 else p.gamma2
    g = p.g1 if mode == 1 else p.g2
    res = p.omega if mode == 1 else -p.omega
    gamma_eff = gamma + abs(g)**2 * p.kappa2 / (p.kappa2**2 + (p.delta - res)**2)
    if gamma_eff <= 0:
        raise ValueError("effective width must be positive")
    return gamma / gamma_eff


# ---------------------------------------------------------------------------
# independent linear-system oracle


def spectrum_oracle(params: SystemParams, omegas
                    ) -> tuple[SpectrumCurve, SpectrumCurve, SpectrumCurve]:
    """Brute-force spectra from the per-frequency linear solve.

    For each omega solves (-i omega I - M) x = e_j for every noise channel
    j and weights |x|^2 by the channel densities (0, 2 gamma1 nbar1,
    2 gamma2 nbar2).  Returns (phonon1, phonon2, antistokes) curves that
    the closed forms must reproduce.
    """
    p = validate(params)
    omegas = np.asarray(omegas, dtype=float)
    m = drift_matrix(p).m
    a = -1j * omegas[:, None, None] * np.eye(3) - m[None, :, :]
    try:
        resp = np.linalg.solve(a, np.broadcast_to(np.eye(3), a.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"singular frequency-domain system: {exc}") from exc
    dens = np.array([0.0, 2 * p.gamma1 * p.nbar1, 2 * p.gamma2 * p.nbar2])
    s = np.einsum("wij,j->wi", np.abs(resp)**2, dens)
    return (
        SpectrumCurve(omegas=omegas, values=s[:, 1], kind="phonon1"),
        SpectrumCurve(omegas=omegas, values=s[:, 2], kind="phonon2"),
        SpectrumCurve(omegas=omegas, values=s[:, 0], kind="antistokes"),
    )


# ---------------------------------------------------------------------------
# export


def params_dict(params: SystemParams) -> dict:
    """JSON-serializable view of SystemParams (complex as [re, im])."""
    return {
        "kappa2": params.kappa2, "delta": params.delta, "omega": params.omega,
        "gamma1": params.gamma1, "gamma2": params.gamma2,
        "g1": [params.g1.real, params.g1.imag],
        "g2": [params.g2.real, params.g2.imag],
        "nbar1": params.nbar1, "nbar2": params.nbar2,
    }


def save_curve(path, curve: SpectrumCurve, params: SystemParams,
               extra_meta: dict | None = None) -> None:
    """Write a spectrum as CSV (omega_over_kappa2, S) plus a JSON sidecar
    at <path>.meta.json holding the parameters and grid description."""
    p = validate(params)
    unit = ("dimensionless (gamma*S/(2*nbar))" if curve.normalized
            else "1/(rad/s) in kappa2 units")
    header = (f"kind: {curve.kind}\n"
              f"normalized: {curve.normalized}\n"
              f"columns: omega_over_kappa2, S [{unit}]")
    data = np.column_stack([curve.omegas / p.kappa2, curve.values])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=header, comments="# ")
    meta = {
        "params": params_dict(p),
        "kind": curve.kind,
        "normalized": curve.normalized,
        "grid": {
            "count": int(curve.omegas.size),
            "omega_min_over_kappa2": float(curve.omegas[0] / p.kappa2),
            "omega_max_over_kappa2": float(curve.omegas[-1] / p.kappa2),
        },
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Deterministic dynamics: three-wave amplitude evolution, drift matrix of
the two-phonon + cavity system, adiabatic cavity elimination, and the
collective (super/sub-radiant) mode analysis."""
from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SystemParams, ThreeWaveParams, ThreeWaveState, _write_columns


class IntegrationError(RuntimeError):
    """The fixed-step integrator refused to run or produced non-finite values."""


# ---------------------------------------------------------------------------
# three-wave amplitude equations


@dataclass(frozen=True)
class Trajectory:
    """Sampled three-wave trajectory: the times reached and the amplitudes
    a1, a2, u at each of them, as arrays of equal length."""

    t: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    u: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def save_csv(self, path, time_unit: str = "s") -> None:
        header = (f"time unit: {time_unit}; amplitudes dimensionless\n"
                  "t, Re(a1), Im(a1), Re(a2), Im(a2), Re(u), Im(u)")
        _write_columns(path, header, [self.t, self.a1, self.a2, self.u])


# RK4 steps whose states are collected in lists and then stored by slice;
# blocks, not one list for the run, bound the boxed values held at once
_BLOCK = 1024


def evolve_three_wave(params: ThreeWaveParams, init: ThreeWaveState,
                      t_end: float, dt: float) -> Trajectory:
    """Integrate the three-wave amplitude equations with fixed-step RK4.

    The equations, with explicit mismatch phases and the pump drive folded
    into the pump-mode damping term:

        da2/dt = -kappa2 a2 - i Delta2 a2 - i beta  u  a1 e^{+i delta t}
        da1/dt = -kappa1 (a1 - pump) - i Delta1 a1 - i beta* u* a2 e^{-i delta t}
        du/dt  = -Gamma  u - i beta* a1* a2 e^{-i delta t}

    A stability guard requires dt * max(rates) < 0.1, where the rate scale
    includes |beta| times the largest initial amplitude (a modulus beyond
    the float range counts as an infinite rate).  The run takes
    round(t_end / dt) steps of dt, so it ends within dt/2 of t_end;
    Trajectory.t records the times actually reached; dt must be finite
    and positive, t_end finite and nonnegative.  The run starts at t = 0.

    One step loop with the four stages written out stores the states by
    blocks of steps; it is bit for bit the step-by-step reference in
    tests/_three_wave_reference.py.
    """
    if not 0 < dt < np.inf:
        raise IntegrationError(f"dt must be positive and finite, got {dt!r}")
    if not 0 <= t_end < np.inf:
        raise IntegrationError(
            f"t_end must be finite and nonnegative, got {t_end!r}")
    k1c, k2c, G = params.kappa1, params.kappa2, params.Gamma
    b, delta = params.beta, params.delta
    try:
        amp = max(abs(init.a1), abs(init.a2), abs(init.u), abs(params.pump))
        rate = max(k1c, k2c, G, abs(params.Delta1), abs(params.Delta2),
                   abs(delta), abs(b) * amp)
    except OverflowError:  # a modulus beyond the float range
        rate = np.inf
    if dt * rate >= 0.1:
        raise IntegrationError(
            f"stability guard violated: dt*max(rates) = {dt * rate:.3g} >= 0.1")

    n_steps = int(round(t_end / dt))
    t = np.arange(n_steps + 1) * dt
    ys = np.empty((3, n_steps + 1), dtype=complex)
    y1, y2, yu = complex(init.a1), complex(init.a2), complex(init.u)
    ys[:, 0] = y1, y2, yu

    # constants of the right-hand side, bound once; the four stages keep one
    # evaluation order and grouping, as regrouping any of them changes the
    # trajectory's last bits
    mk1, mk2, mG = -k1c, -k2c, -G
    iD1, iD2 = 1j * params.Delta1, 1j * params.Delta2
    ib, ibc, idelta = 1j * b, 1j * b.conjugate(), 1j * delta
    drive = k1c * params.pump
    exp = cmath.exp
    half = 0.5 * dt
    sixth = dt / 6.0
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        o1, o2, ou = [], [], []
        put1, put2, putu = o1.append, o2.append, ou.append
        for n in range(lo, hi):
            tn = n * dt
            ph = exp(idelta * tn)
            p1 = mk1 * y1 + drive - iD1 * y1 - ibc * yu.conjugate() * y2 / ph
            p2 = mk2 * y2 - iD2 * y2 - ib * yu * y1 * ph
            pu = mG * yu - ibc * y1.conjugate() * y2 / ph
            x1, x2, xu = y1 + half * p1, y2 + half * p2, yu + half * pu
            ph = exp(idelta * (tn + half))
            q1 = mk1 * x1 + drive - iD1 * x1 - ibc * xu.conjugate() * x2 / ph
            q2 = mk2 * x2 - iD2 * x2 - ib * xu * x1 * ph
            qu = mG * xu - ibc * x1.conjugate() * x2 / ph
            x1, x2, xu = y1 + half * q1, y2 + half * q2, yu + half * qu
            r1 = mk1 * x1 + drive - iD1 * x1 - ibc * xu.conjugate() * x2 / ph
            r2 = mk2 * x2 - iD2 * x2 - ib * xu * x1 * ph
            ru = mG * xu - ibc * x1.conjugate() * x2 / ph
            x1, x2, xu = y1 + dt * r1, y2 + dt * r2, yu + dt * ru
            ph = exp(idelta * (tn + dt))
            s1 = mk1 * x1 + drive - iD1 * x1 - ibc * xu.conjugate() * x2 / ph
            s2 = mk2 * x2 - iD2 * x2 - ib * xu * x1 * ph
            su = mG * xu - ibc * x1.conjugate() * x2 / ph
            y1 += sixth * (p1 + 2 * q1 + 2 * r1 + s1)
            y2 += sixth * (p2 + 2 * q2 + 2 * r2 + s2)
            yu += sixth * (pu + 2 * qu + 2 * ru + su)
            put1(y1)
            put2(y2)
            putu(yu)
        block = ys[:, lo + 1:hi + 1]
        block[0], block[1], block[2] = o1, o2, ou
        # a non-finite state stays non-finite, so the first one is the
        # first step that failed
        bad = ~np.isfinite(block).all(axis=0)
        if bad.any():
            n = lo + int(bad.argmax())
            raise IntegrationError(f"non-finite state at t = {n * dt + dt:.6g}")
    return Trajectory(t=t, a1=ys[0], a2=ys[1], u=ys[2])


# ---------------------------------------------------------------------------
# linear system drift


def drift_matrix(params: SystemParams) -> np.ndarray:
    """3x3 complex drift M of the two-phonon + cavity quantum Langevin
    system, d/dt (a2, b1, b2) = M (a2, b1, b2) + noise."""
    return np.array([
        [-1j * params.delta - params.kappa2, -1j * params.g1, -1j * params.g2],
        [-1j * params.g1.conjugate(), -1j * params.omega - params.gamma1, 0.0],
        [-1j * params.g2.conjugate(), 0.0, 1j * params.omega - params.gamma2],
    ], dtype=complex)


def _noise_densities(p: SystemParams) -> np.ndarray:
    """Channel densities (0, 2 gamma1 nbar1, 2 gamma2 nbar2) of the noise
    driving (a2, b1, b2), normally ordered: the cavity channel is empty.

    The one place these densities are formed, for the closed-form spectra,
    the Lyapunov occupancy and the Monte Carlo alike.  Raises OverflowError
    when a density leaves the float range, before any of them uses it.
    """
    n1, n2 = 2 * p.gamma1 * p.nbar1, 2 * p.gamma2 * p.nbar2
    if not (math.isfinite(n1) and math.isfinite(n2)):
        raise OverflowError("noise density 2 gamma_i nbar_i left the float range")
    return np.array([0.0, n1, n2])


# ---------------------------------------------------------------------------
# adiabatic elimination of the cavity


def adiabatic_reduce(params: SystemParams) -> np.ndarray:
    """Eliminate the cavity adiabatically, returning the 2x2 complex drift
    of (b1, b2): the bare phonon block of drift_matrix minus
    outer(conj(g), g) / (kappa2 + i delta).  So -Re m[i, i] is mode i's
    optically broadened half-width, -Im m[i, i] its pulled frequency, and
    -m[0, 1] = g1* g2 / (kappa2 + i delta) the cavity-mediated mode-mode
    coupling.

    Valid for kappa2 >> gamma_i; when kappa2 > 10 max(gamma1, gamma2) fails
    a warning names the caller's line (through collective_rates, its
    caller's), and the algebraic reduction is still returned.  Formed with
    no numpy warning; raises OverflowError when it leaves the float range.
    """
    if not params.kappa2 > 10.0 * max(params.gamma1, params.gamma2):
        inner = sys._getframe(1).f_globals is globals()  # collective_rates
        warnings.warn(
            "adiabatic elimination assumes kappa2 >> gamma_i; "
            f"kappa2 = {params.kappa2:g} vs max gamma = "
            f"{max(params.gamma1, params.gamma2):g}",
            stacklevel=3 if inner else 2)
    g = np.array([params.g1, params.g2])
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = (drift_matrix(params)[1:, 1:] - np.outer(np.conj(g), g)
                  / (params.kappa2 + 1j * params.delta))
    if not np.isfinite(matrix).all():
        raise OverflowError("reduced phonon drift left the float range")
    return matrix


@dataclass(frozen=True)
class CollectiveModes:
    """Eigenmodes of the reduced phonon drift, labeled against the
    symmetric/antisymmetric combinations (b1 +- b2)/sqrt(2).

    rate_plus / rate_minus are complex decay rates (minus the eigenvalues);
    labeling is "collective" when the overlap assignment is unambiguous,
    "decoupled" when the reduced drift is diagonal (labels fall back to the
    bare b1/b2 basis), and "degenerate" when the eigenvalues or overlaps
    tie and no labeling is meaningful.
    """

    rate_plus: complex
    rate_minus: complex
    vec_plus: np.ndarray
    vec_minus: np.ndarray
    labeling: str


def _fix_phase(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    ph = v[i] / abs(v[i]) if v[i] != 0 else 1.0
    return v / ph


_TIE_TOL = 1e-9  # relative: below it, couplings vanish and values tie


def collective_rates(params: SystemParams) -> CollectiveModes:
    """Diagonalize the adiabatically reduced drift and identify the
    super-radiant (+) and sub-radiant (-) collective modes.  Couplings
    vanish, and eigenvalues or overlaps tie, below one fixed relative
    tolerance of 1e-9 (no tolerance argument).  Raises OverflowError when a
    rate or eigenvector leaves the float range."""
    m = adiabatic_reduce(params)
    scale = max(np.abs(m).max(), 1e-300)
    ip, im_ = 0, 1
    if max(abs(m[0, 1]), abs(m[1, 0])) <= _TIE_TOL * scale:
        # no cavity-mediated coupling: report in the bare (b1, b2) basis
        w, vecs, labeling = np.diag(m), np.eye(2, dtype=complex), "decoupled"
    else:
        w, v = np.linalg.eig(m)
        vecs = [_fix_phase(v[:, 0]), _fix_phase(v[:, 1])]
        # score both assignments by total overlap with (b1 +- b2)/sqrt(2)
        plus, minus = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        s01 = abs(plus @ vecs[0]) + abs(minus @ vecs[1])
        s10 = abs(plus @ vecs[1]) + abs(minus @ vecs[0])
        if (abs(w[0] - w[1]) <= _TIE_TOL * scale
                or abs(s01 - s10) <= _TIE_TOL):
            labeling = "degenerate"
        else:
            labeling = "collective"
            ip, im_ = (0, 1) if s01 > s10 else (1, 0)
    # a finite drift near the float limit can still have an infinite
    # eigenvalue
    if not (np.isfinite(w).all() and np.isfinite(vecs).all()):
        raise OverflowError("collective rates left the float range")
    return CollectiveModes(
        rate_plus=-w[ip], rate_minus=-w[im_],
        vec_plus=vecs[ip], vec_minus=vecs[im_],
        labeling=labeling)

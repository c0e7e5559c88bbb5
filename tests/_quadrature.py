"""Adaptive-quadrature reference for the steady-state phonon occupancy.

Integrates the closed-form spectrum, (1/2pi) int S_i(omega) d omega, over a
core window plus the two infinite tails.  It shares nothing with the
Lyapunov solve in phonocool.spectra.occupancy except the parameters, so the
tests use it as an independent check of that solve.
"""
import numpy as np
from scipy.integrate import quad

from phonocool import SystemParams
from phonocool.spectra import _phonon_density


def occupancy_quadrature(params: SystemParams, mode: int, *,
                         include_tails: bool = True) -> tuple[float, float]:
    """(value, estimated_error) of the mode-`mode` occupancy integral.

    The core window has half-width Omega + 50 kappa2, with breakpoints at
    -Omega, 0, Omega and delta; the tails are added unless
    include_tails=False.  Raises RuntimeError when the error
    estimate exceeds 1e-6 of the value.
    """
    p = params
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    if p.gamma1 <= 0 or p.gamma2 <= 0:
        raise ValueError("quadrature needs positive phonon half-widths")

    def f(w):
        return _phonon_density(p, mode, w)

    w_core = abs(p.omega) + 50 * p.kappa2
    breaks = sorted({x for x in (-p.omega, 0.0, p.omega, p.delta)
                     if -w_core < x < w_core})
    scale = 2 * np.pi * (p.nbar1 + p.nbar2 + 1.0)
    val, err = quad(f, -w_core, w_core, points=breaks or None,
                    limit=500, epsabs=1e-13 * scale, epsrel=1e-12)
    if include_tails:
        for a, b in ((w_core, np.inf), (-np.inf, -w_core)):
            v, e = quad(f, a, b, limit=200, epsabs=1e-13 * scale, epsrel=1e-10)
            val += v
            err += e
    val /= 2 * np.pi
    err /= 2 * np.pi
    if err > max(1e-6 * abs(val), 1e-12):
        raise RuntimeError(
            f"occupancy quadrature error {err:.3g} too large for value {val:.6g}")
    return val, err

"""References for the three-wave amplitude equations.

three_wave_reference integrates the equations stated in evolve_three_wave's
docstring, with the detunings Delta1, Delta2 and the mismatch phase
e^{i delta t}, using scipy's DOP853 at tight tolerances.  It shares no code
with phonocool.dynamics (only the parameter fields are read), so the tests
use it as an independent check of the fixed-step RK4 integrator.

rk4_reference is the step-by-step RK4 loop with one right-hand-side call per
stage, the form evolve_three_wave had before its stages were inlined; the
tests hold the inlined kernel to it bit for bit.
"""
import cmath

import numpy as np
from scipy.integrate import solve_ivp


def three_wave_rhs(p):
    """Right-hand side f(t, (a1, a2, u)) for ThreeWaveParams p."""
    b, bc = p.beta, np.conj(p.beta)

    def rhs(t, y):
        a1, a2, u = y
        ph = np.exp(1j * p.delta * t)
        return np.array([
            -p.kappa1 * (a1 - p.pump) - 1j * p.Delta1 * a1
            - 1j * bc * np.conj(u) * a2 / ph,
            -p.kappa2 * a2 - 1j * p.Delta2 * a2 - 1j * b * u * a1 * ph,
            -p.Gamma * u - 1j * bc * np.conj(a1) * a2 / ph,
        ])
    return rhs


def three_wave_reference(p, init, t: np.ndarray) -> np.ndarray:
    """(len(t), 3) array of (a1, a2, u) at the times t from DOP853."""
    sol = solve_ivp(three_wave_rhs(p), (0.0, float(t[-1])),
                    np.array([init.a1, init.a2, init.u], dtype=complex),
                    method="DOP853", t_eval=t, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def rk4_reference(params, init, t_end: float, dt: float):
    """(t, a1, a2, u) from round(t_end / dt) RK4 steps of dt, one rhs call
    per stage and one store per step and amplitude."""
    k1c, k2c, G = params.kappa1, params.kappa2, params.Gamma
    b, delta = params.beta, params.delta
    n_steps = int(round(t_end / dt))
    t = np.arange(n_steps + 1) * dt
    a1 = np.empty(n_steps + 1, dtype=complex)
    a2 = np.empty(n_steps + 1, dtype=complex)
    u = np.empty(n_steps + 1, dtype=complex)
    a1[0], a2[0], u[0] = init.a1, init.a2, init.u

    iD1, iD2, bc = 1j * params.Delta1, 1j * params.Delta2, b.conjugate()
    drive = k1c * params.pump

    def rhs(ti, y1, y2, yu):
        ph = cmath.exp(1j * delta * ti)
        d2 = -k2c * y2 - iD2 * y2 - 1j * b * yu * y1 * ph
        d1 = -k1c * y1 + drive - iD1 * y1 - 1j * bc * yu.conjugate() * y2 / ph
        du = -G * yu - 1j * bc * y1.conjugate() * y2 / ph
        return d1, d2, du

    half = 0.5 * dt
    sixth = dt / 6.0
    y1, y2, yu = complex(init.a1), complex(init.a2), complex(init.u)
    for n in range(n_steps):
        tn = n * dt
        p1, p2, pu = rhs(tn, y1, y2, yu)
        q1, q2, qu = rhs(tn + half, y1 + half * p1, y2 + half * p2, yu + half * pu)
        r1, r2, ru = rhs(tn + half, y1 + half * q1, y2 + half * q2, yu + half * qu)
        s1, s2, su = rhs(tn + dt, y1 + dt * r1, y2 + dt * r2, yu + dt * ru)
        y1 += sixth * (p1 + 2 * q1 + 2 * r1 + s1)
        y2 += sixth * (p2 + 2 * q2 + 2 * r2 + s2)
        yu += sixth * (pu + 2 * qu + 2 * ru + su)
        a1[n + 1], a2[n + 1], u[n + 1] = y1, y2, yu
        if not (cmath.isfinite(y1) and cmath.isfinite(y2) and cmath.isfinite(yu)):
            raise RuntimeError(f"non-finite state at t = {tn + dt:.6g}")
    return t, a1, a2, u

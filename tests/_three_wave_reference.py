"""Adaptive reference for the three-wave amplitude equations.

Integrates the equations stated in evolve_three_wave's docstring, with the
detunings Delta1, Delta2 and the mismatch phase e^{i delta t}, using scipy's
DOP853 at tight tolerances.  It shares no code with phonocool.dynamics (only
the parameter fields are read), so the tests use it as an independent check
of the fixed-step RK4 integrator.
"""
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

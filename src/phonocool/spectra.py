"""Frequency-domain spectra of the two phonon modes and the generated
anti-Stokes field, steady-state occupancies, and cooling ratios.

Steady-state occupancies come from the stationary normally ordered
covariance P of the linear Langevin system, which solves the Lyapunov
equation M P + P M^dag + N = 0 with M the drift matrix and
N = diag(0, 2 gamma1 nbar1, 2 gamma2 nbar2); <b_i^dag b_i> = P_ii.  A
phonon mode with zero half-width and zero coupling is a free oscillator
that cannot affect the other mode, so it is dropped and only the coupled
(cavity, phonon) block is solved.  The spectra follow the same rule: such
a mode adds nothing to the other mode's spectrum or to the anti-Stokes
spectrum, so a grid through its pole is fine; the pole of a zero-width
mode that is coupled, or whose own spectrum is requested, raises
SingularityError.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .core import SystemParams, _write_columns
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


def _response(p: SystemParams, omega, mode: int | None = None):
    """(da, d1, d2, d) at omega: the bare cavity and phonon denominators and
    the coupled cavity response d = da + |G1|^2/d1 + |G2|^2/d2.  A dropped
    mode's denominator is returned as infinite, so each term it divides
    (all with a zero numerator) is zero.  Raises SingularityError when
    omega hits the pole of any other zero-width mode, and OverflowError
    when d leaves the float range at a finite omega."""
    omega = np.asarray(omega, dtype=float)
    da = 1j * (p.delta - omega) + p.kappa2
    dens = [1j * (p.omega - omega) + p.gamma1,
            -1j * (p.omega + omega) + p.gamma2]
    for i, sign in ((1, "+"), (2, "-")):
        gamma, _, _, res = _mode(p, i)
        if _dropped(p, i, mode):
            dens[i - 1] = np.full_like(dens[i - 1], np.inf)
        elif gamma == 0.0 and np.any(omega == res):
            raise SingularityError(
                f"pole hit: gamma{i} = 0 at omega = {sign}Omega")
    d1, d2 = dens
    with np.errstate(over="ignore", invalid="ignore"):
        d = da + abs(p.g1)**2 / d1 + abs(p.g2)**2 / d2
    if np.any(np.isfinite(omega) & ~np.isfinite(d)):
        raise OverflowError("coupled cavity response is not finite")
    return da, d1, d2, d


def _mode(p: SystemParams, mode: int):
    """(gamma, G, nbar, resonance frequency) of phonon mode 1 or 2."""
    if mode == 1:
        return p.gamma1, p.g1, p.nbar1, p.omega
    if mode == 2:
        return p.gamma2, p.g2, p.nbar2, -p.omega
    raise ValueError(f"mode must be 1 or 2, got {mode!r}")


def _dropped(p: SystemParams, i: int, mode: int | None) -> bool:
    """Whether phonon mode i is dropped: zero width, uncoupled, and not the
    requested `mode`."""
    gamma, g, _, _ = _mode(p, i)
    return gamma == 0.0 and g == 0 and i != mode


def _grid(omegas) -> np.ndarray:
    """omegas as a float array, which must be 1-D with at least one point,
    each finite."""
    om = np.asarray(omegas, dtype=float)
    if om.ndim != 1 or om.size == 0:
        raise ValueError("omegas must be a 1-D array of at least one point, "
                         f"got shape {om.shape}")
    if not np.isfinite(om).all():
        raise ValueError("omegas must be finite")
    return om


def _grid_span_warning(p: SystemParams, omegas: np.ndarray) -> None:
    gmax = max(p.gamma1, p.gamma2)
    lo, hi = -abs(p.omega) - 20 * gmax, abs(p.omega) + 20 * gmax
    if omegas[0] > lo or omegas[-1] < hi:
        warnings.warn(
            f"frequency grid [{omegas[0]:g}, {omegas[-1]:g}] does not span "
            f"[{lo:g}, {hi:g}] around both resonances", stacklevel=3)


def _phonon_density(p: SystemParams, mode: int, omega) -> np.ndarray:
    da, d1, d2, d = _response(p, omega, mode)
    n = _noise_densities(p)
    # noise density and denominator of this mode (i) and of the other (j)
    (ni, di), (nj, dj, gj) = (((n[1], d1), (n[2], d2, p.g2)) if mode == 1
                              else ((n[2], d2), (n[1], d1, p.g1)))
    a = da + abs(gj)**2 / dj  # the cavity dressed by mode j
    with np.errstate(over="ignore"):
        num = np.asarray(ni * np.abs(a)**2
                         + nj * abs(p.g1 * p.g2)**2 / np.abs(dj)**2)
    big = np.isinf(num)
    if big.any():  # |a|^2 overflowed: divide num by it there, and d by a
        a, dj, d = np.asarray(a)[big], np.asarray(dj)[big], np.array(d)
        num[big] = ni + nj * (abs(p.g1 * p.g2) / np.abs(dj) / np.abs(a))**2
        d[big] /= a
    return _over_squares(num, d, di)


def _over_squares(num, *factors):
    """num / (|f1|^2 |f2|^2 ...): the plain quotient where that denominator
    is finite and nonzero, and (sqrt(num) / |f1| / |f2| ...)^2 only where it
    overflowed or underflowed to 0, so a density within the float range
    never comes out as 0 through an infinite denominator, nor as infinite
    through a zero one.  Every other point is the plain quotient, bit for
    bit.  Raises OverflowError, with no numpy warning, where the quotient
    itself leaves the float range."""
    with np.errstate(over="ignore"):
        den = math.prod(np.abs(f)**2 for f in factors)
    odd = np.isinf(den) | (den == 0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.asarray(num / den)
        if odd.any():
            scaled = np.sqrt(num[odd])
            for f in factors:
                scaled /= np.abs(np.asarray(f)[odd])
            out[odd] = scaled**2
    if not np.isfinite(out).all():
        raise OverflowError("spectral density left the float range")
    return out[()]  # a scalar for a scalar omega


# a drift eigenvalue decaying slower than this fraction of ||M|| is
# indistinguishable from marginal in double precision
_MARGIN_RTOL = 64 * np.finfo(float).eps


def phonon_spectrum(params: SystemParams, mode: int, omegas,
                    normalized: bool = False) -> SpectrumCurve:
    """Closed-form fluctuation spectrum of phonon mode 1 or 2.

    With normalized=True returns gamma_i S / (2 nbar_i), whose uncoupled
    peak equals one.  omegas must be a 1-D array of at least one finite
    point.  A pole raises SingularityError, a density or response beyond
    the float range OverflowError, and a grid not strictly increasing or a
    normalization at zero occupancy ValueError, all before the warning that
    the grid does not span 20 half-widths around both resonances.
    """
    gamma, _, nbar, _ = _mode(params, mode)
    omegas = _grid(omegas)
    values = _phonon_density(params, mode, omegas)  # raises on a pole
    if normalized:
        if nbar <= 0:
            raise ValueError("normalized spectrum needs a positive occupancy")
        values = gamma * values / (2 * nbar)
    curve = SpectrumCurve(omegas=omegas, values=values,
                          kind=f"phonon{mode}", normalized=normalized)
    _grid_span_warning(params, omegas)
    return curve


def antistokes_spectrum(params: SystemParams, omegas) -> SpectrumCurve:
    """Closed-form spectrum of the generated anti-Stokes cavity field."""
    omegas = _grid(omegas)
    _, d1, d2, d = _response(params, omegas)
    n = _noise_densities(params)
    with np.errstate(over="ignore"):  # _over_squares refuses an inf
        # an empty channel adds exactly 0, even where its |g/d|^2 overflows
        num = sum((ni * np.abs(g / di)**2 for ni, g, di in
                   ((n[1], params.g1, d1), (n[2], params.g2, d2)) if ni),
                  np.zeros(omegas.shape))
    return SpectrumCurve(omegas=omegas, values=_over_squares(num, d),
                         kind="antistokes")


def _stationary_block(params: SystemParams, mode: int):
    """(keep, P): the modes kept under the dropped-mode rule, (0, ...) with
    the cavity first, and the block of the stationary covariance over them,
    which solves M P + P M^dag + N = 0.

    Bartels-Stewart as scipy's solve_continuous_lyapunov runs it, on one
    complex Schur form M = U R U^dag (LAPACK zgees) whose eigenvalues also
    serve the Hurwitz check: ztrsyl solves R Y + Y R^dag = scale F with
    F = U^dag Q U and Q = -N, and P = U (Y / scale) U^dag.  P is bit for
    bit scipy's where ztrsyl's scale is 1; where LAPACK scales Y down to
    avoid overflow (nbar above ~1e291), scipy's product by scale would be
    wrong, so the scale is divided out.  A value beyond the float range in
    ||M||, N or P raises OverflowError.
    """
    keep = [0] + [i for i in (1, 2) if not _dropped(params, i, mode)]
    if any(_mode(params, i)[0] == 0.0 for i in keep[1:]):
        raise SingularityError(
            "occupancy requires positive phonon half-widths (gamma1, gamma2) "
            "unless the zero-width mode is uncoupled and not requested")
    # the kept rows and columns as a slice: all, (a2, b1) or (a2, b2)
    rows = slice(0, keep[-1] + 1, keep[1])
    m = drift_matrix(params)[rows, rows]
    q = -np.diag(_noise_densities(params)[rows])
    from scipy.linalg import lapack
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(np.vdot(m, m).real)
        if not math.isfinite(norm):
            raise OverflowError("drift matrix norm is not finite")
        r, _, eig, u, _, info = lapack.zgees(lambda _: None, m)  # no sorting
        if info:
            raise np.linalg.LinAlgError(
                "Schur form not found. Possibly ill-conditioned.")
        if eig.real.max() >= -_MARGIN_RTOL * norm:
            slowest = eig[np.argmax(eig.real)]
            raise SingularityError(
                "drift matrix is not Hurwitz to working precision: marginal "
                f"eigenvalue {slowest:.6g}")
        f = u.conj().T.dot(q.dot(u))
        y, scale, info = lapack.ztrsyl(r, r, f, tranb="C")
        if info < 0:
            raise ValueError(
                "?TRSYL exited with the internal error \"illegal value in "
                f"argument number {-info}.\". See LAPACK documentation for "
                "the ?TRSYL error codes.")
        if info == 1:
            warnings.warn(
                'Input "a" has an eigenvalue pair whose sum is very close to '
                "or exactly zero. The solution is obtained via perturbing "
                "the coefficients.", RuntimeWarning, stacklevel=2)
        # LAPACK scales Y down where it would overflow; scipy multiplies
        # by scale, which is exact only at scale = 1
        y /= scale
        cov = u.dot(y).dot(u.conj().T)
        if not np.isfinite(cov).all():
            raise OverflowError("stationary covariance is not finite")
    return keep, cov


def occupancy(params: SystemParams, mode: int) -> float:
    """Steady-state phonon occupancy <b_i^dag b_i> of mode 1 or 2.

    Returns P_ii of the stationary covariance that solves
    M P + P M^dag + N = 0 (Bartels-Stewart on one Schur form of M), with
    N = diag(0, 2 gamma1 nbar1, 2 gamma2 nbar2).  A zero-width phonon mode
    with zero coupling is dropped and the remaining (cavity, phonon) block
    is solved; a zero-width mode that is coupled or requested raises
    SingularityError, as does a drift whose slowest eigenvalue is not
    decaying beyond rounding (no steady state to report).  A value beyond
    the float range raises OverflowError.
    """
    _mode(params, mode)  # rejects a mode other than 1 or 2
    keep, cov = _stationary_block(params, mode)
    i = keep.index(mode)
    return float(cov[i, i].real)


def cooling_ratio(params: SystemParams, mode: int) -> float:
    """Steady-state occupancy of the selected mode divided by its thermal
    occupancy; equals 1 without coupling and also gives the final/initial
    temperature ratio in the classical limit."""
    nbar = _mode(params, mode)[2]
    if nbar <= 0:
        raise ValueError(f"cooling ratio undefined: nbar{mode} must be positive")
    return occupancy(params, mode) / nbar


def cooling_ratio_adiabatic(params: SystemParams, mode: int) -> float:
    """Single-mode adiabatic estimate gamma_i / gamma_i_eff with the cavity
    Lorentzian evaluated at the mode's resonance frequency.  Useful as a
    sanity check on the full steady state in the kappa2 >> gamma regime."""
    gamma, g, _, res = _mode(params, mode)
    lor = params.kappa2**2 + (params.delta - res)**2
    gamma_eff = gamma + abs(g)**2 * params.kappa2 / lor
    if gamma_eff <= 0:
        raise ValueError("effective width must be positive")
    return gamma / gamma_eff


# ---------------------------------------------------------------------------
# export


def params_dict(params: SystemParams) -> dict:
    """JSON-serializable view of SystemParams (complex as [re, im])."""
    return {name: [v.real, v.imag] if isinstance(v, complex) else v
            for name, v in asdict(params).items()}


def save_curve(path, curve: SpectrumCurve, params: SystemParams) -> dict:
    """Write a spectrum as CSV (omega_over_kappa2, S) and return the
    curve's record: the parameters, kind, normalization and grid
    description, as JSON-serializable values."""
    unit = ("dimensionless (gamma*S/(2*nbar))" if curve.normalized
            else "1/(rad/s) in kappa2 units")
    header = (f"kind: {curve.kind}\n"
              f"normalized: {curve.normalized}\n"
              f"columns: omega_over_kappa2, S [{unit}]")
    _write_columns(path, header, [curve.omegas / params.kappa2, curve.values])
    return {
        "params": params_dict(params),
        "kind": curve.kind,
        "normalized": curve.normalized,
        "grid": {
            "count": int(curve.omegas.size),
            "omega_min_over_kappa2": float(curve.omegas[0] / params.kappa2),
            "omega_max_over_kappa2": float(curve.omegas[-1] / params.kappa2),
        },
    }

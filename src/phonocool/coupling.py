"""Three-wave coupling constants from spatial mode functions.

Mode functions live on a rectilinear 3D grid; the overlap integrals use
trapezoidal quadrature and the derivatives (divergence, curl) use
second-order centered finite differences (one-sided at non-periodic
boundaries, wrap-around on periodic axes).  Periodic axes store one period
without the duplicate endpoint, where the trapezoid rule reduces to the
rectangle sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .core import (ParameterError, _open_text, _require_finite,
                   _require_finite_fields, _write_columns)


class GridError(ValueError):
    """Mode-field grids are incompatible or too coarse for the stencil."""


# ---------------------------------------------------------------------------
# mode fields


@dataclass(frozen=True)
class ModeField:
    """A complex vector field sampled on a rectilinear 3D grid.

    axes      three strictly increasing 1D coordinate arrays (meters)
    values    complex array of shape (nx, ny, nz, 3)
    periodic  per-axis flag: samples cover one period, endpoint excluded
    longitudinal  if set, the field is checked to be curl-free to within
                  the finite-difference tolerance at construction
    curl_tol  that tolerance, relative to the largest partial derivative;
              the check's own discretization error grows like (qh)^2 for
              a wave of wavevector q on grid spacing h
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray
    periodic: tuple[bool, bool, bool] = (False, False, False)
    longitudinal: bool = False
    curl_tol: float = 1e-2

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))
        if len(axes) != 3 or len(self.periodic) != 3:
            raise GridError("expected three axes and three periodic flags")
        for i, ax in enumerate(axes):
            if ax.ndim != 1 or ax.size < 2:
                raise GridError(f"axis {i} must be 1D with at least 2 points")
            if not np.all(np.diff(ax) > 0):
                raise GridError(f"axis {i} must be strictly increasing")
            if self.periodic[i] and not np.allclose(
                    np.diff(ax), ax[1] - ax[0], rtol=1e-12, atol=0.0):
                raise GridError(f"periodic axis {i} requires uniform spacing")
        shape = tuple(ax.size for ax in axes) + (3,)
        if values.shape != shape:
            raise GridError(f"values shape {values.shape} does not match grid {shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        if not 0.0 <= self.curl_tol < np.inf:  # NaN would accept any curl
            raise GridError("curl_tol must be finite and >= 0, "
                            f"got {self.curl_tol!r}")
        if self.longitudinal:
            _check_longitudinal(self)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(ax.size for ax in self.axes)


def _partial(field_: ModeField, i: int, j: int) -> np.ndarray:
    """d v_i / d x_j, shape (nx, ny, nz)."""
    v, x = field_.values[..., i], field_.axes[j]
    if not field_.periodic[j]:
        return np.gradient(v, x, axis=j, edge_order=2)
    # centred difference with wrap-around, bitwise np.gradient on the
    # wrap-padded axis: same subtractions, then the same division by 2h
    d = np.empty(v.shape, dtype=complex)
    dj, vj = np.moveaxis(d, j, 0), np.moveaxis(v, j, 0)
    np.subtract(vj[2:], vj[:-2], out=dj[1:-1])
    np.subtract(vj[1], vj[-1], out=dj[0])
    np.subtract(vj[0], vj[-2], out=dj[-1])
    d /= 2.0 * (x[1] - x[0])
    return d


def divergence(field_: ModeField) -> np.ndarray:
    """Discrete divergence of the vector field, shape (nx, ny, nz)."""
    return _partial(field_, 0, 0) + _partial(field_, 1, 1) + _partial(field_, 2, 2)


def curl(field_: ModeField) -> np.ndarray:
    """Discrete curl of the vector field, shape (nx, ny, nz, 3)."""
    out = np.empty(field_.shape + (3,), dtype=complex)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(_partial(field_, k, j), _partial(field_, j, k),
                    out=out[..., i])
    return out


def _check_longitudinal(field_: ModeField) -> None:
    c = np.abs(curl(field_)).max()
    # scale against the overall derivative magnitude, all nine partials, so
    # a transverse field (curl ~ derivative scale) is rejected while
    # finite-difference noise on a genuinely curl-free field passes
    scale = max(np.abs(_partial(field_, i, j)).max()
                for i in range(3) for j in range(3))
    if scale == 0.0:
        return
    if c > field_.curl_tol * scale:
        raise GridError(
            f"field flagged longitudinal but max|curl| = {c:.3e} exceeds "
            f"{field_.curl_tol:g} of the derivative scale {scale:.3e}")


def _quad_weights_1d(coords: np.ndarray, periodic: bool) -> np.ndarray:
    if periodic:
        h = coords[1] - coords[0]
        return np.full(coords.size, h)
    w = np.zeros(coords.size)
    d = np.diff(coords)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def integrate(field_: ModeField, integrand: np.ndarray) -> complex:
    """Trapezoidal volume integral of a scalar sampled on the field's grid."""
    wx, wy, wz = (_quad_weights_1d(field_.axes[i], field_.periodic[i])
                  for i in range(3))
    return complex(np.einsum("xyz,x,y,z->", integrand, wx, wy, wz))


def _require_common_grid(*fields: ModeField) -> None:
    ref = fields[0]
    for f in fields[1:]:
        if f.periodic != ref.periodic or any(
                not np.array_equal(a, b) for a, b in zip(f.axes, ref.axes)):
            raise GridError("mode fields must share a common grid")


def _require_resolved(field_: ModeField) -> None:
    if min(field_.shape) < 4:
        raise GridError("grid too coarse: need at least 4 points along each axis")


# ---------------------------------------------------------------------------
# analytic mode families


def plane_wave(axes, wavevector, polarization, amplitude: complex = 1.0,
               periodic=(False, False, False), longitudinal: bool = False) -> ModeField:
    """Plane wave amplitude * pol * exp(i k . r) sampled on the grid."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    k = np.asarray(wavevector, dtype=float)
    pol = np.asarray(polarization, dtype=complex)
    x, y, z = np.meshgrid(*axes, indexing="ij")
    phase = np.exp(1j * (k[0] * x + k[1] * y + k[2] * z))
    values = amplitude * phase[..., None] * pol[None, None, None, :]
    return ModeField(axes, values, periodic=periodic, longitudinal=longitudinal)


def box_sine_mode(axes, indices, polarization, amplitude: complex = 1.0) -> ModeField:
    """Standing-wave box mode: product of sin(n pi (x - x0)/L) factors."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    pol = np.asarray(polarization, dtype=complex)
    profile = np.ones(tuple(a.size for a in axes))
    grids = np.meshgrid(*axes, indexing="ij")
    for ax, n, g in zip(axes, indices, grids):
        length = ax[-1] - ax[0]
        profile = profile * np.sin(n * np.pi * (g - ax[0]) / length)
    values = amplitude * profile[..., None] * pol[None, None, None, :]
    return ModeField(axes, values)


def gaussian_transverse(axes, k: float, waist: float, polarization,
                        amplitude: complex = 1.0) -> ModeField:
    """Gaussian transverse profile exp(-(x^2+y^2)/w^2) propagating along z."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    pol = np.asarray(polarization, dtype=complex)
    x, y, z = np.meshgrid(*axes, indexing="ij")
    profile = np.exp(-(x**2 + y**2) / waist**2) * np.exp(1j * k * z)
    values = amplitude * profile[..., None] * pol[None, None, None, :]
    return ModeField(axes, values)


# ---------------------------------------------------------------------------
# columnar text import/export

def save_mode_field(path, field_: ModeField) -> None:
    """Write a mode field in the columnar text format.

    First line holds the grid dimensions `nx ny nz`; each following row is
    `x y z Re(vx) Im(vx) Re(vy) Im(vy) Re(vz) Im(vz)` in C order (z fastest).
    A path ending in .gz, .bz2, .xz or .lzma is written compressed.
    """
    nx, ny, nz = field_.shape
    # each coordinate is formatted once, then repeated by the grid
    labels = [np.array(["%.17g" % c for c in ax.tolist()], dtype=object)
              for ax in field_.axes]
    coords = [g.ravel() for g in np.meshgrid(*labels, indexing="ij")]
    _write_columns(path, f"{nx} {ny} {nz}",
                   coords + list(field_.values.reshape(-1, 3).T),
                   delimiter=" ", comments="")


def load_mode_field(path, periodic=(False, False, False)) -> ModeField:
    """Read a mode field written by save_mode_field, compressed or not;
    flag it with dataclasses.replace(f, longitudinal=True, curl_tol=tol)."""
    with _open_text(path, "rt") as fh:
        first = fh.readline().split()
        if len(first) != 3:
            raise GridError(f"{path}: header must hold three grid dimensions")
        nx, ny, nz = (int(t) for t in first)
        data = np.loadtxt(fh)
    data = np.atleast_2d(data)
    if data.shape != (nx * ny * nz, 9):
        raise GridError(f"{path}: expected {nx * ny * nz} rows of 9 columns, "
                        f"got shape {data.shape}")
    coords = data[:, :3].reshape(nx, ny, nz, 3)
    axes = (coords[:, 0, 0, 0], coords[0, :, 0, 1], coords[0, 0, :, 2])
    expect = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    if not np.allclose(coords, expect, rtol=1e-12, atol=0.0):
        raise GridError(f"{path}: coordinates are not a rectilinear grid in C order")
    values = (data[:, 3::2] + 1j * data[:, 4::2]).reshape(nx, ny, nz, 3)
    return ModeField(axes, values, periodic=periodic)


# ---------------------------------------------------------------------------
# coupling constants


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ParameterError(
                f"{name} must be finite and positive, got {value!r}")


def _require_derived(what: str, compute, **constants: float):
    """compute(), a quantity derived from `constants`, each of which must
    be finite and positive, and which must itself come out so; an overflow,
    underflow or division by zero in it fails the check, with no exception
    or warning of its own."""
    _require_positive(**constants)
    with np.errstate(all="ignore"):
        try:
            value = compute()
        except ArithmeticError:
            value = math.nan
    if not 0 < value < math.inf:
        named = ", ".join(f"{k}={v!r}" for k, v in constants.items())
        raise ParameterError(f"{what} is not finite and positive for {named}")
    return value


def _optical_prefactor(omega_c1, omega_c2, eps1, eps2) -> float:
    """sqrt(w_c2 w_c1 / (eps2 eps1)), the optical factor of both couplings."""
    return _require_derived(
        "optical prefactor sqrt(omega_c2 omega_c1 / (eps2 eps1))",
        lambda: np.sqrt(omega_c2 * omega_c1 / (eps2 * eps1)),
        omega_c1=omega_c1, omega_c2=omega_c2, eps1=eps1, eps2=eps2)


def beta_acoustic(phi2: ModeField, phi1: ModeField, psi: ModeField,
                  gamma_e: float, omega_c1: float, omega_c2: float,
                  eps1: float, eps2: float) -> complex:
    """Electrostrictive coupling of two optical modes to an acoustic mode.

    Evaluates (gamma_e/2) sqrt(w_c2 w_c1 / (eps2 eps1)) times the overlap
    integral of (phi2* . phi1) with the divergence of psi.  The divergence
    uses the centered second-order stencil, so the result converges as h^2
    on smooth fields.
    """
    _require_finite("gamma_e", gamma_e)
    pref = 0.5 * gamma_e * _optical_prefactor(omega_c1, omega_c2, eps1, eps2)
    _require_common_grid(phi2, phi1, psi)
    _require_resolved(psi)
    overlap = np.einsum("xyzc,xyzc->xyz", np.conj(phi2.values), phi1.values)
    return pref * integrate(psi, overlap * divergence(psi))


@dataclass(frozen=True)
class RamanTensor:
    """Rank-3 coupling tensor between two optical field components and a
    phonon displacement component.  Components may be complex (the bulk
    acoustic limit is purely imaginary)."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex)
        object.__setattr__(self, "components", c)
        if c.shape != (3, 3, 3):
            raise ParameterError(f"Raman tensor must be 3x3x3, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ParameterError("Raman tensor entries must be finite")


def brillouin_raman_tensor(gamma_e: float, q_vec) -> RamanTensor:
    """Raman tensor of a bulk longitudinal acoustic mode of wavevector q:
    4 pi R_ijk = i gamma_e delta_ij q_k."""
    q = np.asarray(q_vec, dtype=float)
    comps = 1j * gamma_e / (4 * np.pi) * np.einsum("ij,k->ijk", np.eye(3), q)
    return RamanTensor(comps)


def beta_raman(R: RamanTensor, phi2: ModeField, phi1: ModeField,
               psi: ModeField, omega_c1: float, omega_c2: float,
               eps1: float, eps2: float) -> complex:
    """General anti-Stokes coupling via the Raman tensor:
    2 pi sqrt(w_c2 w_c1/(eps2 eps1)) sum_ijk R_ijk int phi2_i* phi1_j psi_k."""
    pref = 2 * np.pi * _optical_prefactor(omega_c1, omega_c2, eps1, eps2)
    _require_common_grid(phi2, phi1, psi)
    integrand = np.zeros(psi.shape, dtype=complex)
    for i in range(3):  # phi2_i* sum_jk R_ijk phi1_j psi_k
        integrand += np.conj(phi2.values[..., i]) * np.einsum(
            "xyzj,jk,xyzk->xyz", phi1.values, R.components[i], psi.values)
    return pref * integrate(psi, integrand)


def bulk_raman_scalar(R: RamanTensor, e2, e1, eQ) -> complex:
    """Scalar bulk coupling: contraction of the Raman tensor with the three
    unit polarization vectors (e2 conjugated)."""
    vecs = []
    for name, v in (("e2", e2), ("e1", e1), ("eQ", eQ)):
        v = np.asarray(v, dtype=complex)
        if v.shape != (3,):
            raise ParameterError(f"{name} must be a 3-vector")
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ParameterError(f"{name} must have unit norm")
        vecs.append(v)
    return complex(np.einsum("ijk,i,j,k->", R.components,
                             np.conj(vecs[0]), vecs[1], vecs[2]))


def normalize_mode(psi: ModeField, rho0: float, omega_m: float,
                   hbar: float) -> ModeField:
    """Rescale a phonon mode so its kinetic-energy norm equals half a quantum:
    rho0 omega_m^2 int |psi|^2 d^3r = hbar omega_m / 2."""
    _require_derived("normalization scale hbar omega_m / (2 rho0 omega_m^2)",
                     lambda: hbar * omega_m / 2.0 / (rho0 * omega_m**2),
                     rho0=rho0, omega_m=omega_m, hbar=hbar)
    norm2 = integrate(psi, np.einsum("xyzc,xyzc->xyz",
                                     np.conj(psi.values), psi.values)).real
    if norm2 <= 0.0:
        raise ParameterError("cannot normalize a zero-norm mode field")
    target = hbar * omega_m / 2.0
    scale = np.sqrt(target / (rho0 * omega_m**2 * norm2))
    return replace(psi, values=psi.values * scale)


# ---------------------------------------------------------------------------
# phonon dispersion catalog


@dataclass(frozen=True)
class BrillouinLinear:
    """Bulk longitudinal sound: Omega(q) = v_s q."""

    v_s: float

    def __post_init__(self):
        _require_finite_fields(self)
        if not self.v_s > 0:
            raise ParameterError("v_s must be positive")


@dataclass(frozen=True)
class BulkOptical:
    """Bulk Raman-active optical branch: Omega^2(q) = omega0^2 - alpha q^2."""

    omega0: float
    alpha: float

    def __post_init__(self):
        _require_finite_fields(self)
        if self.omega0 < 0:
            raise ParameterError("omega0 must be nonnegative")


@dataclass(frozen=True)
class ConfinedFiber:
    """Transversely confined mode: Omega^2(q) = omega0^2 + alpha q^2."""

    omega0: float
    alpha: float

    def __post_init__(self):
        _require_finite_fields(self)
        if self.omega0 < 0:
            raise ParameterError("omega0 must be nonnegative")
        if self.alpha < 0:
            raise ParameterError("alpha must be nonnegative; a branch whose "
                                 "Omega^2 falls with q is BulkOptical")


DispersionRelation = Union[BrillouinLinear, BulkOptical, ConfinedFiber]


def dispersion(rel: DispersionRelation, q) -> float | np.ndarray:
    """Phonon frequency Omega(q) for the given dispersion relation.

    Accepts scalar or array q >= 0.  BulkOptical raises when the branch
    frequency would be imaginary.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ParameterError("q must be nonnegative")
    if isinstance(rel, BrillouinLinear):
        out = rel.v_s * q
    elif isinstance(rel, BulkOptical):
        om2 = rel.omega0**2 - rel.alpha * q**2
        if np.any(om2 <= 0):
            raise ParameterError(
                "BulkOptical dispersion out of range: Omega^2 must stay positive")
        out = np.sqrt(om2)
    elif isinstance(rel, ConfinedFiber):
        out = np.sqrt(rel.omega0**2 + rel.alpha * q**2)
    else:
        raise TypeError(f"unknown dispersion relation {type(rel).__name__}")
    return out if out.ndim else float(out)


def bimodal_window(omega1: float, omega2: float, kappa2: float) -> bool:
    """True iff two phonon modes fit inside one cavity linewidth:
    |Omega_1 - Omega_2| < 2 kappa2 (strict)."""
    if not (omega1 > 0 and omega2 > 0 and kappa2 > 0):
        raise ParameterError("omega1, omega2, kappa2 must be positive")
    return abs(omega1 - omega2) < 2 * kappa2

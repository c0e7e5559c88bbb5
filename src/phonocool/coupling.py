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

import numpy as np

from .core import ParameterError, _open_text, _require_finite, _write_columns


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


def _partial(field_: ModeField, i: int, j: int, out: np.ndarray | None = None,
             planes: slice = slice(None)) -> np.ndarray:
    """d v_i / d x_j, shape (nx, ny, nz), written into `out` if given.

    `planes` restricts it to a range of x-planes, for j along y or z only:
    the stencil then stays inside those planes, and each element is the
    one the whole-grid partial holds.
    """
    v, x = field_.values[planes, ..., i], field_.axes[j]
    if not field_.periodic[j]:
        d = np.gradient(v, x, axis=j, edge_order=2)
        if out is None:
            return d
        out[...] = d
        return out
    # centred difference with wrap-around, bitwise np.gradient on the
    # wrap-padded axis: same subtractions, then the same division by 2h
    d = np.empty(v.shape, dtype=complex) if out is None else out
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
    """Discrete curl of the vector field, shape (nx, ny, nz, 3).

    Component i is d v_k/d x_j - d v_j/d x_k.  The partial along x (for
    component 0, the first) is written whole into the output; the other,
    along y or z, is taken and subtracted x-slab by x-slab, so the curl
    needs no full-grid temporary.
    """
    out = np.empty(field_.shape + (3,), dtype=complex)
    plane = field_.shape[1] * field_.shape[2]
    slabs = [slice(s.start // plane, s.stop // plane) for s in _slabs(field_)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        o = out[..., i]
        if k == 0:  # the second partial is the one along x
            _partial(field_, j, k, o)
            for s in slabs:
                np.subtract(_partial(field_, k, j, None, s), o[s], out=o[s])
        else:
            _partial(field_, k, j, o)
            for s in slabs:
                np.subtract(o[s], _partial(field_, j, k, None, s), out=o[s])
    return out


def _check_longitudinal(field_: ModeField) -> None:
    rows = curl(field_).reshape(-1, 3)
    c = np.max([np.abs(rows[s]).max() for s in _slabs(field_)])  # NaN wins
    del rows
    # scale against the overall derivative magnitude, all nine partials, so
    # a transverse field (curl ~ derivative scale) is rejected while
    # finite-difference noise on a genuinely curl-free field passes; the
    # running maximum, diagonal partials first, accepts as soon as it can
    scale = 0.0
    for i, j in sorted(np.ndindex(3, 3), key=lambda ij: ij[0] != ij[1]):
        scale = max(scale, np.abs(_partial(field_, i, j)).max())
        if c <= field_.curl_tol * scale:
            return
    if c > field_.curl_tol * scale:  # a NaN curl compares False both ways
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


_SLAB_CELLS = 1 << 14  # per slab of the overlap products: temporaries stay in cache


def _slabs(field_: ModeField):
    """Row slices of the values viewed as (cells, 3): whole x-planes, at
    least one, of about _SLAB_CELLS cells each."""
    plane = field_.shape[1] * field_.shape[2]
    step = plane * max(1, _SLAB_CELLS // plane)
    return (slice(a, a + step) for a in range(0, plane * field_.shape[0], step))


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
# analytic mode field


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


def _require_finite_coupling(beta: complex, **constants: float) -> complex:
    if not np.isfinite(beta):
        named = ", ".join(f"{k}={v!r}" for k, v in constants.items())
        raise ParameterError(f"coupling is not finite for {named}: the "
                             "fields or constants overflow")
    return beta


def _optical_prefactor(omega_c1, omega_c2, eps1, eps2) -> float:
    """sqrt(w_c2 w_c1 / (eps2 eps1)), the optical factor of both couplings."""
    return _require_derived(
        "optical prefactor sqrt(omega_c2 omega_c1 / (eps2 eps1))",
        lambda: np.sqrt(omega_c2 * omega_c1 / (eps2 * eps1)),
        omega_c1=omega_c1, omega_c2=omega_c2, eps1=eps1, eps2=eps2)


@np.errstate(all="ignore")  # an overflow is rejected, not warned about
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
    p2, p1 = phi2.values.reshape(-1, 3), phi1.values.reshape(-1, 3)
    integrand = divergence(psi)
    for s in _slabs(psi):
        integrand.reshape(-1)[s] *= np.einsum("ci,ci->c", np.conj(p2[s]), p1[s])
    return _require_finite_coupling(pref * integrate(psi, integrand), gamma_e=gamma_e,
                                    omega_c1=omega_c1, omega_c2=omega_c2,
                                    eps1=eps1, eps2=eps2)


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


@np.errstate(all="ignore")
def beta_raman(R: RamanTensor, phi2: ModeField, phi1: ModeField,
               psi: ModeField, omega_c1: float, omega_c2: float,
               eps1: float, eps2: float) -> complex:
    """General anti-Stokes coupling via the Raman tensor:
    2 pi sqrt(w_c2 w_c1/(eps2 eps1)) sum_ijk R_ijk int phi2_i* phi1_j psi_k."""
    pref = 2 * np.pi * _optical_prefactor(omega_c1, omega_c2, eps1, eps2)
    _require_common_grid(phi2, phi1, psi)
    p2, p1, v = (f.values.reshape(-1, 3) for f in (phi2, phi1, psi))
    r = R.components.reshape(9, 3).T  # psi_k -> sum_k R_ijk psi_k, ij flat
    integrand = np.empty(psi.shape, dtype=complex)
    for s in _slabs(psi):  # phi2_i* (sum_k R_ijk psi_k) phi1_j
        t = np.einsum("ci,cij->cj", np.conj(p2[s]), (v[s] @ r).reshape(-1, 3, 3))
        np.einsum("cj,cj->c", t, p1[s], out=integrand.reshape(-1)[s])
    return _require_finite_coupling(pref * integrate(psi, integrand), omega_c1=omega_c1,
                                    omega_c2=omega_c2, eps1=eps1, eps2=eps2)


def normalize_mode(psi: ModeField, rho0: float, omega_m: float,
                   hbar: float) -> ModeField:
    """Rescale a phonon mode so its kinetic-energy norm equals half a quantum:
    rho0 omega_m^2 int |psi|^2 d^3r = hbar omega_m / 2."""
    _require_derived("normalization scale hbar omega_m / (2 rho0 omega_m^2)",
                     lambda: hbar * omega_m / 2.0 / (rho0 * omega_m**2),
                     rho0=rho0, omega_m=omega_m, hbar=hbar)
    v, integrand = psi.values.reshape(-1, 3), np.empty(psi.shape, dtype=complex)
    for s in _slabs(psi):
        np.einsum("ci,ci->c", np.conj(v[s]), v[s], out=integrand.reshape(-1)[s])
    norm2 = integrate(psi, integrand).real
    if norm2 <= 0.0:
        raise ParameterError("cannot normalize a zero-norm mode field")
    target = hbar * omega_m / 2.0
    scale = np.sqrt(target / (rho0 * omega_m**2 * norm2))
    return replace(psi, values=psi.values * scale)

import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phonocool import (
    GridError,
    ModeField,
    ParameterError,
    RamanTensor,
    beta_acoustic,
    beta_raman,
    brillouin_raman_tensor,
    curl,
    divergence,
    load_mode_field,
    normalize_mode,
    plane_wave,
    save_mode_field,
)
from phonocool import coupling
from _longitudinal_reference import check_longitudinal, curl_and_scale

GAMMA_E = 2.0
OMEGA_C1, OMEGA_C2 = 3.0, 4.0
EPS1, EPS2 = 1.5, 2.5
PREF = 0.5 * GAMMA_E * np.sqrt(OMEGA_C2 * OMEGA_C1 / (EPS2 * EPS1))


def open_box(n=32, length=1.0):
    ax = np.linspace(0.0, length, n)
    return (ax, ax, ax)


def periodic_box(n=32, length=1.0):
    ax = np.linspace(0.0, length, n, endpoint=False)
    return (ax, ax, ax)


def brillouin_triplet(axes, q_vec, k1=(0.7, 0.0, 0.0), amps=(1.3, 0.8, 2.1),
                      periodic=(False, False, False)):
    """Co-polarized optical plane waves phase matched to a longitudinal phonon."""
    q = np.asarray(q_vec, dtype=float)
    k1 = np.asarray(k1, dtype=float)
    phi1 = plane_wave(axes, k1, [0, 1, 0], amplitude=amps[0], periodic=periodic)
    phi2 = plane_wave(axes, k1 + q, [0, 1, 0], amplitude=amps[1], periodic=periodic)
    psi = plane_wave(axes, q, q / np.linalg.norm(q), amplitude=amps[2],
                     periodic=periodic)
    return phi1, phi2, psi


# ---------------------------------------------------------------------------
# ModeField construction and grid validation


def test_axes_must_increase():
    ax = np.array([0.0, 0.5, 0.4])
    with pytest.raises(GridError, match="strictly increasing"):
        ModeField((ax, ax, ax), np.zeros((3, 3, 3, 3), complex))


def test_values_shape_must_match_grid():
    axes = open_box(8)
    with pytest.raises(GridError, match="shape"):
        ModeField(axes, np.zeros((8, 8, 7, 3), complex))


@pytest.mark.parametrize("axes, values, match", [
    ((np.arange(3.0),) * 2, np.zeros((3, 3, 3)), "three axes"),
    ((np.arange(3.0), np.arange(1.0), np.arange(3.0)),
     np.zeros((3, 1, 3, 3)), "axis 1 must be 1D with at least 2 points"),
    ((np.arange(3.0),) * 3, np.full((3, 3, 3, 3), np.nan), "finite")],
    ids=["two-axes", "one-point-axis", "non-finite-value"])
def test_mode_field_rejects_a_malformed_grid(axes, values, match):
    with pytest.raises(GridError, match=match):
        ModeField(axes, values)


def test_periodic_axis_needs_uniform_spacing():
    ax = np.array([0.0, 0.1, 0.3, 0.6])
    with pytest.raises(GridError, match="uniform"):
        ModeField((ax, ax, ax), np.zeros((4, 4, 4, 3), complex),
                  periodic=(True, False, False))


def test_longitudinal_flag_accepts_longitudinal_wave():
    axes = open_box(24)
    q = np.array([0.4, 0.0, 0.0])
    replace(plane_wave(axes, q, [1, 0, 0]), longitudinal=True)


def test_longitudinal_flag_rejects_transverse_wave():
    axes = open_box(24)
    q = np.array([0.4, 0.0, 0.0])
    with pytest.raises(GridError, match="longitudinal"):
        replace(plane_wave(axes, q, [0, 1, 0]), longitudinal=True)


@pytest.mark.parametrize("curl_tol", [float("nan"), float("inf"), -1.0])
def test_curl_tol_must_be_finite_and_nonnegative(curl_tol):
    # a NaN tolerance made `curl > tol * scale` false, so this transverse
    # wave passed as longitudinal
    f = plane_wave(open_box(24), [0.4, 0.0, 0.0], [0, 1, 0])
    with pytest.raises(GridError, match="curl_tol"):
        ModeField(f.axes, f.values, longitudinal=True, curl_tol=curl_tol)
    with pytest.raises(GridError, match="longitudinal"):
        ModeField(f.axes, f.values, longitudinal=True)


def test_grid_mismatch_is_rejected():
    phi1, phi2, _ = brillouin_triplet(open_box(16), [0.3, 0, 0])
    psi_other = plane_wave(open_box(17), [0.3, 0, 0], [1, 0, 0])
    with pytest.raises(GridError, match="common grid"):
        beta_acoustic(phi2, phi1, psi_other, GAMMA_E, OMEGA_C1, OMEGA_C2,
                      EPS1, EPS2)


def test_coarse_grid_is_rejected():
    ax = np.linspace(0.0, 1.0, 3)
    axes = (ax, np.linspace(0, 1, 8), np.linspace(0, 1, 8))
    f = plane_wave(axes, [0.1, 0, 0], [1, 0, 0])
    with pytest.raises(GridError, match="coarse"):
        beta_acoustic(f, f, f, GAMMA_E, OMEGA_C1, OMEGA_C2, EPS1, EPS2)


# ---------------------------------------------------------------------------
# derivative stencils


def test_stencils_match_centered_difference_symbol_on_periodic_plane_wave():
    # on a periodic grid the centered difference maps exp(i k x) to
    # i sin(k h)/h exp(i k x) exactly
    lengths = np.array([1.0, 2.0, 0.5])
    axes = tuple(np.linspace(0.0, L, n, endpoint=False)
                 for L, n in zip(lengths, (16, 12, 10)))
    k = 2 * np.pi * np.array([2, -3, 1]) / lengths
    h = np.array([ax[1] - ax[0] for ax in axes])
    sym = np.sin(k * h) / h
    pol = np.array([0.3 + 0.2j, -1.1, 0.7j])
    f = plane_wave(axes, k, pol, periodic=(True, True, True))
    phase = f.values[..., 1] / pol[1]
    tol = 1e-12 * np.linalg.norm(sym) * np.linalg.norm(pol)
    assert np.allclose(divergence(f), 1j * (sym @ pol) * phase,
                       rtol=0, atol=tol)
    assert np.allclose(curl(f), 1j * np.cross(sym, pol) * phase[..., None],
                       rtol=0, atol=tol)


def _jacobian_reference(f):
    """d[..., i, j] = d v_i / d x_j from np.gradient of all three
    components at once; periodic axes are wrap-padded by one sample."""
    d = np.empty(f.shape + (3, 3), dtype=complex)
    for j, (x, per) in enumerate(zip(f.axes, f.periodic)):
        if per:
            pad = [(0, 0)] * 4
            pad[j] = (1, 1)
            g = np.gradient(np.pad(f.values, pad, mode="wrap"), x[1] - x[0],
                            axis=j, edge_order=2)
            d[..., j] = np.take(g, np.arange(1, x.size + 1), axis=j)
        else:
            d[..., j] = np.gradient(f.values, x, axis=j, edge_order=2)
    return d


@pytest.mark.parametrize("periodic", [(False, False, False),
                                      (True, False, True),
                                      (False, True, False),
                                      (True, True, True)])
def test_stencils_equal_full_jacobian_reference(periodic):
    rng = np.random.default_rng(21)
    axes = [np.linspace(0.0, 1.0, n, endpoint=False) if per
            else np.cumsum(rng.uniform(0.05, 0.2, n))
            for n, per in zip((7, 9, 6), periodic)]
    f = ModeField(axes, rng.normal(size=(7, 9, 6, 3))
                  + 1j * rng.normal(size=(7, 9, 6, 3)), periodic=periodic)
    d = _jacobian_reference(f)
    assert np.array_equal(divergence(f), d[..., 0, 0] + d[..., 1, 1]
                          + d[..., 2, 2])
    expect = np.stack([d[..., 2, 1] - d[..., 1, 2],
                       d[..., 0, 2] - d[..., 2, 0],
                       d[..., 1, 0] - d[..., 0, 1]], axis=-1)
    assert np.array_equal(curl(f), expect)


@pytest.mark.parametrize("j", range(3))
@pytest.mark.parametrize("n", [2, 3, 4, 17])
def test_periodic_partial_is_the_wrap_padded_gradient(n, j):
    # the in-place wrap stencil must be bitwise np.gradient on the axis
    # padded by one sample at each end, down to two-point axes
    rng = np.random.default_rng(n + 10 * j)
    shape = [5, 6, 4]
    shape[j] = n
    axes = [np.linspace(0.0, 0.3 * (k + 1), m, endpoint=False)
            for k, m in enumerate(shape)]
    f = ModeField(axes, rng.normal(size=(*shape, 3))
                  + 1j * rng.normal(size=(*shape, 3)),
                  periodic=(True, True, True))
    pad = [(0, 0)] * 3
    pad[j] = (1, 1)
    for i in range(3):
        g = np.gradient(np.pad(f.values[..., i], pad, mode="wrap"),
                        axes[j][1] - axes[j][0], axis=j, edge_order=2)
        ref = np.take(g, np.arange(1, n + 1), axis=j)
        assert np.array_equal(coupling._partial(f, i, j).view(np.uint64),
                              ref.view(np.uint64))


def test_longitudinal_scale_counts_all_nine_partials():
    # each field carries the same small curl, curl_z = 1e-3; on its own
    # that is rejected.  It passes (tol 1e-2) only against a scale that
    # counts the large diagonal partial d v_x/d x = 10 x in the first
    # field, and the large off-diagonal partials (~1) in the second, whose
    # diagonal partials are at most 2e-3
    ax = np.linspace(0.0, 1.0, 12)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    small = np.stack([0 * x, 1e-3 * x, 0 * x], axis=-1)
    with pytest.raises(GridError, match="longitudinal"):
        ModeField((ax, ax, ax), small, longitudinal=True)
    for big in (np.stack([5.0 * x**2, 0 * x, 0 * x], axis=-1),
                np.stack([y, x, 1e-3 * z**2], axis=-1)):
        ModeField((ax, ax, ax), big + small, longitudinal=True)


def test_longitudinal_check_allocates_no_jacobian():
    # a (n, n, n, 3, 3) Jacobian alone would be three times the field
    f = plane_wave(periodic_box(32), [2 * np.pi, 0, 0], [1, 0, 0],
                   periodic=(True, True, True))
    tracemalloc.start()
    try:
        ModeField(f.axes, f.values, periodic=f.periodic, longitudinal=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * f.values.nbytes


def _two_partial_curl(f):
    """The whole-array curl: each component one np.subtract of two
    whole-grid partials."""
    out = np.empty(f.shape + (3,), dtype=complex)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(coupling._partial(f, k, j), coupling._partial(f, j, k),
                    out=out[..., i])
    return out


def _slab_curl_fields():
    rng = np.random.default_rng(8)
    for periodic, shape in (((True,) * 3, (11, 5, 4)),
                            ((False,) * 3, (11, 5, 4)),
                            ((True, False, True), (10, 4, 6)),
                            ((False, True, False), (9, 6, 4)),
                            ((True,) * 3, (7, 2, 2))):
        axes = [np.linspace(0.0, 0.5 * (n + 1), n, endpoint=not per)
                for n, per in zip(shape, periodic)]
        yield ModeField(axes, rng.normal(size=shape + (3,))
                        + 1j * rng.normal(size=shape + (3,)), periodic=periodic)
    # non-uniform open axes: np.gradient's general three-point stencil
    axes = [np.cumsum(rng.uniform(0.05, 0.2, n)) for n in (10, 5, 7)]
    yield ModeField(axes, rng.normal(size=(10, 5, 7, 3))
                    + 1j * rng.normal(size=(10, 5, 7, 3)))


@pytest.mark.parametrize("planes", [1, 3, 4, 1000])
def test_slab_curl_is_the_two_partial_curl_bit_for_bit(planes, monkeypatch):
    # several x-slabs and a short last one (nx = 11, 10, 9 or 7 planes in
    # slabs of 3 or 4), one plane per slab, and one slab for the grid
    for f in _slab_curl_fields():
        monkeypatch.setattr(coupling, "_SLAB_CELLS",
                            planes * f.shape[1] * f.shape[2])
        got, want = curl(f), _two_partial_curl(f)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_partial_into_an_output_is_the_returned_partial():
    for f in _slab_curl_fields():
        for i, j in np.ndindex(3, 3):
            want = coupling._partial(f, i, j)
            out = np.full(f.shape + (3,), np.nan, dtype=complex)
            got = coupling._partial(f, i, j, out[..., i])
            assert np.shares_memory(got, out)
            got = np.ascontiguousarray(out[..., i])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            if j:  # a range of x-planes holds the same elements
                part = coupling._partial(f, i, j, None, slice(2, 5))
                assert np.array_equal(part.view(np.uint64),
                                      want[2:5].view(np.uint64))


@pytest.mark.parametrize("route", ["check", "curl"])
def test_curl_check_peaks_at_about_one_field(route):
    # the curl itself is one field; the second partials per x-slab and
    # max|curl| per slab add little, and the curl is gone before the
    # scale loop.  Two whole-grid partials beside the curl read 1.70
    f = plane_wave(periodic_box(64), [2 * np.pi, 0, 0], [1, 0, 0],
                   periodic=(True, True, True))
    run = coupling._check_longitudinal if route == "check" else curl
    tracemalloc.start()
    try:
        run(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * f.values.nbytes


def _decision(check, field_):
    """None if check accepts field_, else the message it rejects it with."""
    try:
        check(field_)
    except GridError as exc:
        return str(exc)
    return None


def _curl_check_fields():
    rng = np.random.default_rng(5)
    for periodic, axes in ((False, open_box(9)), (True, periodic_box(9))):
        for _ in range(4):
            values = rng.normal(size=(9, 9, 9, 3)) + 1j * rng.normal(size=(9, 9, 9, 3))
            yield ModeField(axes, values, periodic=(periodic,) * 3)
    for pol in ([1, 0, 0], [0, 1, 0], [1, 1, 0]):
        yield plane_wave(open_box(24), [0.4, 0.2, 0.0], pol)
        yield plane_wave(periodic_box(16), [2 * np.pi, 0, 0], pol,
                         periodic=(True, True, True))
    # the fields of test_longitudinal_scale_counts_all_nine_partials
    ax = np.linspace(0.0, 1.0, 12)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    small = np.stack([0 * x, 1e-3 * x, 0 * x], axis=-1)
    for big in (0 * x[..., None], np.stack([5.0 * x**2, 0 * x, 0 * x], axis=-1),
                np.stack([y, x, 1e-3 * z**2], axis=-1)):
        yield ModeField((ax, ax, ax), big + small)
    yield ModeField(open_box(6), np.zeros((6, 6, 6, 3)))


def test_curl_check_decides_as_the_nine_partial_reference():
    decisions = set()
    for f in _curl_check_fields():
        c, scale = curl_and_scale(f)
        ratio = c / scale if scale else 0.0
        for tol in (1e-2, 0.0, 0.5 * ratio, 2.0 * ratio, ratio,
                    np.nextafter(ratio, 0.0)):
            g = replace(f, curl_tol=float(tol))
            got = _decision(coupling._check_longitudinal, g)
            assert got == _decision(check_longitudinal, g)
            decisions.add(got is None)
    assert decisions == {True, False}


def test_curl_check_reads_every_slab():
    # a longitudinal wave along x plus a transverse bump in x-planes 20-27:
    # three slabs of 16 planes on a 32 x 32 face, and the curl is exactly
    # zero outside planes 19-28, so slab 0 and the periodic seam hold none
    n = (48, 32, 32)
    axes = tuple(np.arange(k) / k for k in n)
    x = np.broadcast_to(axes[0][:, None, None], n)
    values = np.zeros(n + (3,), dtype=complex)
    values[..., 0] = np.exp(2j * np.pi * x)
    values[20:28, ..., 1] = np.sin(np.pi * (np.arange(20, 28) - 19.5) / 8)[
        :, None, None]
    f = ModeField(axes, values, periodic=(True, True, True))
    assert len(list(coupling._slabs(f))) == 3
    c = np.abs(curl(f)).max(axis=(1, 2, 3))
    assert c[19] > 0 and c[28] > 0
    assert not c[:19].any() and not c[29:].any()
    with pytest.raises(GridError, match="longitudinal"):
        replace(f, longitudinal=True)


def test_curl_check_accepts_after_one_partial_beyond_the_curl(monkeypatch):
    # a longitudinal wave: its first diagonal partial settles the scale
    f = plane_wave(periodic_box(16), [2 * np.pi, 0, 0], [1, 0, 0],
                   periodic=(True, True, True))
    calls = []
    partial = coupling._partial
    monkeypatch.setattr(coupling, "_partial",
                        lambda *a: calls.append(a[1:]) or partial(*a))
    coupling._check_longitudinal(f)
    assert len(calls) == 7 and calls[-1] == (0, 0)


# ---------------------------------------------------------------------------
# beta_acoustic


def test_beta_acoustic_matched_plane_waves():
    # long-wavelength phonon keeps the stencil error far below the
    # quadrature tolerance; the closed form is pref * i q V A
    q = 0.1
    phi1, phi2, psi = brillouin_triplet(open_box(48), [q, 0, 0])
    beta = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2,
                         EPS1, EPS2)
    exact = PREF * 1j * q * 1.0 * (1.3 * 0.8 * 2.1)
    assert abs(beta - exact) <= 1e-6 * abs(exact)
    assert np.angle(beta) == pytest.approx(np.pi / 2, abs=1e-9)


def test_beta_acoustic_transverse_phonon_vanishes():
    axes = open_box(24)
    phi1 = plane_wave(axes, [0.7, 0, 0], [0, 1, 0])
    phi2 = plane_wave(axes, [1.0, 0, 0], [0, 1, 0])
    psi = plane_wave(axes, [0.3, 0, 0], [0, 0, 1])  # div-free
    beta = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2,
                         EPS1, EPS2)
    assert abs(beta) < 1e-12


def test_beta_acoustic_sinc_envelope():
    # phase mismatch along x on a periodic box; fine x grid so the
    # quadrature error stays below the envelope tolerance
    length = 1.0
    axx = np.linspace(0.0, length, 512, endpoint=False)
    ayz = np.linspace(0.0, length, 4, endpoint=False)
    axes = (axx, ayz, ayz)
    per = (True, True, True)
    q = 2 * np.pi / length
    k1 = np.array([0.7, 0.0, 0.0])
    psi = plane_wave(axes, [q, 0, 0], [1, 0, 0], periodic=per)
    phi1 = plane_wave(axes, k1, [0, 1, 0], periodic=per)
    beta0 = abs(PREF * 1j * q * length**3)
    for dk in (2.3, 4.7, 8.1):
        phi2 = plane_wave(axes, k1 + [q - dk, 0, 0], [0, 1, 0], periodic=per)
        beta = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2,
                             EPS1, EPS2)
        analytic = abs(PREF * 1j * q * length**2
                       * (np.exp(1j * dk * length) - 1) / (1j * dk))
        assert abs(abs(beta) - analytic) <= 2e-4 * beta0


def test_beta_acoustic_conjugate_symmetry():
    # beta(phi2, phi1, psi) = conj(beta(phi1, phi2, psi*))
    rng = np.random.default_rng(5)
    axes = open_box(20)
    fields = []
    for _ in range(3):
        k = rng.uniform(-1, 1, size=3)
        pol = rng.normal(size=3) + 1j * rng.normal(size=3)
        fields.append(plane_wave(axes, k, pol, amplitude=rng.normal() + 0.5j))
    phi1, phi2, psi = fields
    psi_conj = ModeField(psi.axes, np.conj(psi.values))
    b = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
    b_swap = beta_acoustic(phi1, phi2, psi_conj, GAMMA_E, OMEGA_C1, OMEGA_C2,
                           EPS1, EPS2)
    assert b == pytest.approx(np.conj(b_swap), rel=1e-12)


def test_beta_operations_linear_in_each_field():
    axes = open_box(16)
    phi1, phi2, psi = brillouin_triplet(axes, [0.4, 0, 0])
    b0 = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
    s = 2.0 - 1.5j
    scaled = lambda f: ModeField(f.axes, f.values * s, periodic=f.periodic)
    assert beta_acoustic(phi2, scaled(phi1), psi, GAMMA_E, OMEGA_C1, OMEGA_C2,
                         EPS1, EPS2) == pytest.approx(s * b0, rel=1e-12)
    assert beta_acoustic(scaled(phi2), phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2,
                         EPS1, EPS2) == pytest.approx(np.conj(s) * b0, rel=1e-12)
    assert beta_acoustic(phi2, phi1, scaled(psi), GAMMA_E, OMEGA_C1, OMEGA_C2,
                         EPS1, EPS2) == pytest.approx(s * b0, rel=1e-12)


def test_beta_acoustic_second_order_convergence():
    # one-cycle periodic plane waves: the divergence stencil dominates the
    # error, which must shrink by ~4x when the grid doubles
    q = 2 * np.pi
    errs = []
    for n in (32, 64):
        axes = periodic_box(n)
        phi1, phi2, psi = brillouin_triplet(axes, [q, 0, 0],
                                            periodic=(True, True, True))
        beta = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2,
                             EPS1, EPS2)
        exact = PREF * 1j * q * (1.3 * 0.8 * 2.1)
        errs.append(abs(beta - exact) / abs(exact))
    assert 3.0 < errs[0] / errs[1] < 5.0


# ---------------------------------------------------------------------------
# beta_raman and the Raman tensor


def test_beta_raman_matches_acoustic_with_brillouin_tensor():
    q_vec = np.array([2 * np.pi, 0.0, 0.0])
    axes = periodic_box(64)
    per = (True, True, True)
    phi1, phi2, psi = brillouin_triplet(axes, q_vec, periodic=per)
    ba = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
    R = brillouin_raman_tensor(GAMMA_E, q_vec)
    br = beta_raman(R, phi2, phi1, psi, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
    # difference is the stencil discretization error, second order in h
    assert abs(ba - br) / abs(br) < 1e-2


def test_beta_raman_zero_tensor():
    axes = open_box(12)
    phi1, phi2, psi = brillouin_triplet(axes, [0.4, 0, 0])
    R = RamanTensor(np.zeros((3, 3, 3)))
    assert beta_raman(R, phi2, phi1, psi, OMEGA_C1, OMEGA_C2, EPS1, EPS2) == 0


def test_beta_raman_orthogonal_overlap_vanishes():
    # tensor couples only x-x-z; phi2 along y, phi1 along x
    axes = open_box(12)
    comps = np.zeros((3, 3, 3))
    comps[0, 0, 2] = 1.0
    R = RamanTensor(comps)
    phi2 = plane_wave(axes, [0.5, 0, 0], [0, 1, 0])
    phi1 = plane_wave(axes, [0.4, 0, 0], [1, 0, 0])
    psi = plane_wave(axes, [0.1, 0, 0], [0, 0, 1])
    assert beta_raman(R, phi2, phi1, psi, OMEGA_C1, OMEGA_C2, EPS1, EPS2) == 0


def test_beta_raman_against_loop_oracle(periodic=False):
    rng = np.random.default_rng(11)
    axes = periodic_box(10) if periodic else open_box(10)
    R = RamanTensor(rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
    fields = [plane_wave(axes, rng.uniform(-1, 1, 3),
                         rng.normal(size=3) + 1j * rng.normal(size=3),
                         periodic=(periodic,) * 3)
              for _ in range(3)]
    phi2, phi1, psi = fields
    got = beta_raman(R, phi2, phi1, psi, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
    assert got == pytest.approx(_raman_loop_oracle(R, phi2, phi1, psi), rel=1e-12)


def _raman_loop_oracle(R, phi2, phi1, psi):
    """Explicit triple loop over tensor indices with scalar overlap integrals."""
    total = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                ov = coupling.integrate(psi, np.conj(phi2.values[..., i])
                                        * phi1.values[..., j] * psi.values[..., k])
                total += R.components[i, j, k] * ov
    return 2 * np.pi * np.sqrt(OMEGA_C2 * OMEGA_C1 / (EPS2 * EPS1)) * total


def test_beta_raman_against_loop_oracle_periodic_grid():
    test_beta_raman_against_loop_oracle(periodic=True)


def _slab_grids():
    """Grid shapes whose nx is below, equal to and not a multiple of the
    x-slab, and one whose single planes exceed the slab's cell count."""
    planes = coupling._SLAB_CELLS // 256  # x-planes per slab on a 16 x 16 face
    for nx in (planes * 5 // 8, planes, planes * 3 // 2 + 4):
        yield (nx, 16, 16)
    yield (4, 130, 130)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("shape", list(_slab_grids()))
def test_slab_kernels_match_full_grid_formulas(shape, periodic):
    rng = np.random.default_rng(sum(shape))
    axes = tuple(np.linspace(0.0, 1.0, n, endpoint=not periodic) for n in shape)
    size = shape + (3,)
    phi2, phi1, psi = (
        ModeField(axes, rng.normal(size=size) + 1j * rng.normal(size=size),
                  periodic=(periodic,) * 3) for _ in range(3))
    R = RamanTensor(rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
    got = beta_raman(R, phi2, phi1, psi, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
    assert got == pytest.approx(_raman_loop_oracle(R, phi2, phi1, psi), rel=1e-12)

    # the full-array formulas, bit for bit.  The divergence is multiplied
    # by the overlap, in that order: numpy's complex product does not
    # commute bit for bit, and `overlap * divergence(psi)` runs in this
    # order anyway on grids of 2**14 cells or more, where numpy reuses
    # the divergence temporary for the product
    overlap = np.einsum("xyzc,xyzc->xyz", np.conj(phi2.values), phi1.values)
    expect = PREF * coupling.integrate(psi, np.multiply(divergence(psi), overlap))
    got = beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
    assert np.array_equal(np.array([got]).view(np.uint64),
                          np.array([expect]).view(np.uint64))
    norm2 = coupling.integrate(psi, np.einsum("xyzc,xyzc->xyz", np.conj(psi.values),
                                              psi.values)).real
    expect = psi.values * np.sqrt(1.3 * 2.0 / 2.0 / (0.7 * 2.0**2 * norm2))
    got = normalize_mode(psi, rho0=0.7, omega_m=2.0, hbar=1.3).values
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("route", ["acoustic", "raman"])
def test_couplings_allocate_less_than_one_field(route):
    # full-grid conj(phi2) copies would peak at 1.33 and 1.02 fields
    phi1, phi2, psi = brillouin_triplet(periodic_box(64), [2 * np.pi, 0, 0],
                                        k1=(4 * np.pi, 0, 0),
                                        periodic=(True, True, True))
    R = brillouin_raman_tensor(GAMMA_E, [2 * np.pi, 0, 0])
    tracemalloc.start()
    try:
        if route == "acoustic":
            beta_acoustic(phi2, phi1, psi, GAMMA_E, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
        else:
            beta_raman(R, phi2, phi1, psi, OMEGA_C1, OMEGA_C2, EPS1, EPS2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < psi.values.nbytes


def test_raman_tensor_validation():
    with pytest.raises(ParameterError, match="3x3x3"):
        RamanTensor(np.zeros((3, 3)))
    bad = np.zeros((3, 3, 3))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ParameterError, match="finite"):
        RamanTensor(bad)


# ---------------------------------------------------------------------------
# normalize_mode


def test_normalize_mode_idempotent_and_projective():
    axes = open_box(16, length=2.0)
    # the (1, 1, 1) standing wave of the box, a product of sin(pi x / L)
    # factors, polarized along x
    grid = np.stack(np.meshgrid(*axes, indexing="ij"))
    vals = np.zeros((16, 16, 16, 3), complex)
    vals[..., 0] = 0.7 * np.sin(np.pi * grid / 2.0).prod(axis=0)
    psi = ModeField(axes, vals)
    rho0, omega_m, hbar = 2.0, 5.0, 1.3
    n1 = normalize_mode(psi, rho0, omega_m, hbar)
    n2 = normalize_mode(n1, rho0, omega_m, hbar)
    assert np.allclose(n1.values, n2.values, rtol=1e-12)
    scaled = ModeField(psi.axes, psi.values * 10.0)
    n3 = normalize_mode(scaled, rho0, omega_m, hbar)
    assert np.allclose(n1.values, n3.values, rtol=1e-12)


def test_normalize_mode_uniform_closed_form():
    axes = open_box(16, length=2.0)
    vals = np.zeros((16, 16, 16, 3), complex)
    vals[..., 0] = 3.0
    psi = ModeField(axes, vals)
    rho0, omega_m, hbar = 2.0, 5.0, 1.3
    out = normalize_mode(psi, rho0, omega_m, hbar)
    volume = 8.0
    expect = np.sqrt(hbar / (2 * rho0 * omega_m * volume))
    assert abs(out.values[0, 0, 0, 0]) == pytest.approx(expect, rel=1e-12)


def test_normalize_mode_rejects_zero_field():
    axes = open_box(8)
    psi = ModeField(axes, np.zeros((8, 8, 8, 3), complex))
    with pytest.raises(ParameterError, match="zero-norm"):
        normalize_mode(psi, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# text import/export


def test_mode_field_round_trip(tmp_path):
    axes = (np.linspace(0, 1, 5), np.linspace(0, 2, 4), np.linspace(0, 3, 6))
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(5, 4, 6, 3)) + 1j * rng.normal(size=(5, 4, 6, 3))
    f = ModeField(axes, vals)
    path = tmp_path / "mode.txt"
    save_mode_field(path, f)
    g = load_mode_field(path)
    assert all(np.array_equal(a, b) for a, b in zip(f.axes, g.axes))
    assert np.array_equal(f.values, g.values)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_mode_field_round_trip(tmp_path, suffix):
    # the suffix compresses the file, and the reader follows it
    rng = np.random.default_rng(4)
    axes = (np.linspace(0, 1, 4), np.linspace(0, 2, 3), np.linspace(0, 3, 5))
    f = ModeField(axes, rng.normal(size=(4, 3, 5, 3))
                  + 1j * rng.normal(size=(4, 3, 5, 3)))
    save_mode_field(tmp_path / f"mode.txt{suffix}", f)
    save_mode_field(tmp_path / "mode.txt", f)
    raw = (tmp_path / f"mode.txt{suffix}").read_bytes()
    assert raw != (tmp_path / "mode.txt").read_bytes()
    g = load_mode_field(tmp_path / f"mode.txt{suffix}")
    assert all(np.array_equal(a, b) for a, b in zip(f.axes, g.axes))
    assert np.array_equal(f.values.view(np.uint64), g.values.view(np.uint64))


def test_mode_field_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 4\n")
    with pytest.raises(GridError, match="header"):
        load_mode_field(path)


@pytest.mark.parametrize("rows", [False, True], ids=["header-only", "rows"])
@pytest.mark.parametrize("header", ["4.0 4 4", "4 4 x", "-4 -4 4", "0 0 0"])
def test_mode_field_header_must_be_three_positive_integers(tmp_path, header,
                                                           rows):
    # refused by a GridError naming the file before any row is read, with
    # no numpy warning
    path = tmp_path / "bad.txt"
    save_mode_field(path, plane_wave(open_box(4), [0.4, 0, 0], [1, 0, 0]))
    lines = path.read_text().splitlines(True)
    path.write_text(header + "\n" + ("".join(lines[1:]) if rows else ""))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=re.escape(f"{path}: header")):
            load_mode_field(path)


def test_mode_field_load_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "short.txt"
    save_mode_field(path, plane_wave(open_box(4), [0.4, 0, 0], [1, 0, 0]))
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    with pytest.raises(GridError, match="expected 64 rows of 9 columns"):
        load_mode_field(path)


def test_mode_field_load_rejects_non_rectilinear_coordinates(tmp_path):
    path = tmp_path / "skew.txt"
    save_mode_field(path, plane_wave(open_box(4), [0.4, 0, 0], [1, 0, 0]))
    lines = path.read_text().splitlines(True)
    row = lines[6].split(" ")  # grid point (0, 1, 1): x must be 0 there
    lines[6] = " ".join(["0.25"] + row[1:])
    path.write_text("".join(lines))
    with pytest.raises(GridError, match="not a rectilinear grid"):
        load_mode_field(path)


def _periodic_wave(pol):
    ax = np.arange(20) / 20
    return plane_wave((ax, ax, ax), 2 * np.pi * np.array([1.0, -2.0, 1.0]),
                      pol, periodic=(True, True, True))


def test_file_field_is_flagged_longitudinal_through_replace(tmp_path):
    # 10 points per shortest wavelength: the discrete curl of this
    # longitudinal wave is 0.026 of the derivative scale, so the default
    # tolerance rejects it and a looser one, set through replace, accepts it
    q_hat = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
    save_mode_field(tmp_path / "psi.txt", _periodic_wave(q_hat))
    psi = load_mode_field(tmp_path / "psi.txt", periodic=(True, True, True))
    with pytest.raises(GridError, match="longitudinal"):
        replace(psi, longitudinal=True)
    assert replace(psi, longitudinal=True, curl_tol=0.05).longitudinal
    transverse = _periodic_wave(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    with pytest.raises(GridError, match="longitudinal"):
        replace(transverse, longitudinal=True, curl_tol=0.05)


def test_load_mode_field_takes_no_longitudinal_option(tmp_path):
    save_mode_field(tmp_path / "f.txt", plane_wave(open_box(4), [0.4, 0, 0],
                                                   [1, 0, 0]))
    with pytest.raises(TypeError, match="longitudinal"):
        load_mode_field(tmp_path / "f.txt", longitudinal=True)


OPTICAL = {"omega_c1": 3.0, "omega_c2": 4.0, "eps1": 1.5, "eps2": 2.5}


@pytest.mark.parametrize("name", sorted(OPTICAL))
@pytest.mark.parametrize("value", [-3.0, 0.0, float("nan"), float("inf")])
def test_couplings_reject_degenerate_optical_constants(name, value):
    f = plane_wave(open_box(6), [0.4, 0, 0], [1, 0, 0])
    bad = {**OPTICAL, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be finite and positive"):
        beta_acoustic(f, f, f, gamma_e=1.0, **bad)
    with pytest.raises(ParameterError, match=f"{name} must be finite and positive"):
        beta_raman(brillouin_raman_tensor(1.0, [0.4, 0, 0]), f, f, f, **bad)


@pytest.mark.parametrize("name", ["rho0", "omega_m", "hbar"])
@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_normalize_mode_rejects_degenerate_constants(name, value):
    f = plane_wave(open_box(6), [0.4, 0, 0], [1, 0, 0])
    bad = {"rho0": 1.0, "omega_m": 1.0, "hbar": 1.0, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be finite and positive"):
        normalize_mode(f, **bad)


def test_optical_constants_are_checked_before_the_grid():
    # mismatched grids would raise GridError; the constants are checked first
    f, g = (plane_wave(open_box(n), [0.4, 0, 0], [1, 0, 0]) for n in (6, 7))
    with pytest.raises(ParameterError, match="eps1"):
        beta_acoustic(f, g, f, gamma_e=1.0, **{**OPTICAL, "eps1": 0.0})


@pytest.mark.parametrize("gamma_e", [np.nan, np.inf, -np.inf])
def test_beta_acoustic_rejects_non_finite_gamma_e(gamma_e):
    # mismatched grids: the constant is checked before the grid
    f, g = (plane_wave(open_box(n), [0.4, 0, 0], [1, 0, 0]) for n in (6, 7))
    with pytest.raises(ParameterError, match="gamma_e must be finite"):
        beta_acoustic(f, g, f, gamma_e=gamma_e, **OPTICAL)


# each constant is finite and positive, but their combination is not
@pytest.mark.parametrize("bad", [
    {"eps1": 1e-200, "eps2": 1e-200},  # eps2 eps1 underflows to zero
    {"omega_c1": 1e200, "omega_c2": 1e200},  # the ratio overflows
    {"omega_c1": 1e-200, "omega_c2": 1e-200},  # the ratio underflows
    {"eps1": np.float64(1e-200), "eps2": np.float64(1e-200)},
    {"omega_c1": np.float64(1e200), "omega_c2": np.float64(1e200)}],
    ids=["eps-underflow", "omega-overflow", "omega-underflow",
         "eps-underflow-numpy", "omega-overflow-numpy"])
def test_couplings_reject_an_optical_prefactor_out_of_range(bad):
    f, g = (plane_wave(open_box(n), [0.4, 0, 0], [1, 0, 0]) for n in (6, 7))
    match = ("optical prefactor .* not finite and positive for "
             "omega_c1=.*, omega_c2=.*, eps1=.*, eps2=")
    with pytest.raises(ParameterError, match=match):
        beta_acoustic(f, g, f, gamma_e=1.0, **{**OPTICAL, **bad})
    with pytest.raises(ParameterError, match=match):
        beta_raman(brillouin_raman_tensor(1.0, [0.4, 0, 0]), f, g, f,
                   **{**OPTICAL, **bad})


@pytest.mark.parametrize("gamma_e, amplitude", [(1e308, 1.0), (2.0, 1e120)],
                         ids=["gamma_e", "fields"])
def test_couplings_reject_a_coupling_that_overflows(gamma_e, amplitude):
    # each constant and field value is finite; the coupling they make is
    # not, and no numpy warning escapes (RuntimeWarning is an error here)
    phi1, phi2, psi = brillouin_triplet(periodic_box(8), [2 * np.pi, 0, 0],
                                        k1=(2 * np.pi, 0, 0), amps=(amplitude,) * 3,
                                        periodic=(True, True, True))
    optical = {**OPTICAL, "omega_c1": 100.0, "omega_c2": 100.0}
    named = ("omega_c1=100.0, omega_c2=100.0, eps1=1.5, eps2=2.5: "
             "the fields or constants overflow")
    with pytest.raises(ParameterError, match=re.escape(
            f"coupling is not finite for gamma_e={gamma_e!r}, {named}")):
        beta_acoustic(phi2, phi1, psi, gamma_e=gamma_e, **optical)
    R = brillouin_raman_tensor(gamma_e, [2 * np.pi, 0, 0])
    with pytest.raises(ParameterError,
                       match=re.escape(f"coupling is not finite for {named}")):
        beta_raman(R, phi2, phi1, psi, **optical)


@pytest.mark.parametrize("bad", [
    {"omega_m": 1e200},  # omega_m^2 overflows
    {"rho0": 1e-320},  # hbar / (2 rho0 omega_m) overflows
    {"hbar": 1e-320, "rho0": 1e300},  # ... and underflows
    {"omega_m": np.float64(1e200)}],
    ids=["omega_m-overflow", "rho0-tiny", "scale-underflow",
         "omega_m-overflow-numpy"])
def test_normalize_mode_rejects_a_scale_out_of_range(bad):
    # a zero field fails later, at the norm: the constants are checked first
    f = ModeField(open_box(6), np.zeros((6, 6, 6, 3)))
    with pytest.raises(ParameterError, match="normalization scale .* not "
                       "finite and positive for rho0=.*, omega_m=.*, hbar="):
        normalize_mode(f, **{"rho0": 1.0, "omega_m": 1.0, "hbar": 1.0, **bad})

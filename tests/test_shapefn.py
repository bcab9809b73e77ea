"""Element integral oracles: exact symbolic integration and affine patch tests."""
import numpy as np
import pytest
import sympy as sp

from pneumotop import shapefn


def test_conduction_2d_matches_closed_form():
    ke = shapefn.conduction_matrix(2, 1.0)
    exact = (1.0 / 6.0) * np.array(
        [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]]
    )
    assert np.allclose(ke, exact, atol=1e-14)


def test_conduction_row_sums_zero():
    for dim in (2, 3):
        ke = shapefn.conduction_matrix(dim, 0.37)
        assert np.abs(ke.sum(axis=1)).max() < 1e-14


def test_mass_matrix_2d_closed_form():
    me = shapefn.mass_matrix(2, 1.0)
    exact = (1.0 / 36.0) * np.array(
        [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
    )
    assert np.allclose(me, exact, atol=1e-14)


def test_mass_matrix_total_volume():
    for dim, h in ((2, 0.5), (3, 0.2)):
        me = shapefn.mass_matrix(dim, h)
        assert me.sum() == pytest.approx(h**dim, rel=1e-13)


def _sympy_plane_strain_k0(nu):
    """Exact plane-strain element stiffness for E=1, h=1, via symbolic integration."""
    x, y = sp.symbols("x y")
    n = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
    c = sp.Rational(1) / ((1 + nu) * (1 - 2 * nu))
    cm = c * sp.Matrix(
        [[1 - nu, nu, 0], [nu, 1 - nu, 0], [0, 0, sp.Rational(1, 2) - nu]]
    )
    b = sp.zeros(3, 8)
    for a in range(4):
        b[0, 2 * a] = sp.diff(n[a], x)
        b[1, 2 * a + 1] = sp.diff(n[a], y)
        b[2, 2 * a] = sp.diff(n[a], y)
        b[2, 2 * a + 1] = sp.diff(n[a], x)
    ke = b.T * cm * b
    out = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            out[i, j] = float(sp.integrate(ke[i, j], (x, 0, 1), (y, 0, 1)))
    return out


def test_stiffness_2d_matches_symbolic():
    nu = sp.Rational(3, 10)
    exact = _sympy_plane_strain_k0(nu)
    ke = shapefn.stiffness_matrix(2, 1.0, 0.3)
    assert np.allclose(ke, exact, atol=1e-12)


@pytest.mark.parametrize("dim,h,nu", [(2, 0.75e-3, 0.3), (3, 1e-3, 0.3)])
def test_stiffness_affine_patch_energy(dim, h, nu):
    # FEM is exact for affine displacement fields: compare the quadratic form
    # with the continuum strain energy of the same uniform strain state.
    rng = np.random.default_rng(42)
    signs = shapefn.corner_signs(dim)
    coords = (signs + 1.0) / 2.0 * h
    ke = shapefn.stiffness_matrix(dim, h, nu)
    cm = shapefn.elastic_moduli(nu, dim)
    for _ in range(5):
        g = rng.normal(size=(dim, dim))
        u = (coords @ g.T).ravel()
        eps = 0.5 * (g + g.T)
        if dim == 2:
            voigt = np.array([eps[0, 0], eps[1, 1], 2 * eps[0, 1]])
        else:
            voigt = np.array(
                [eps[0, 0], eps[1, 1], eps[2, 2],
                 2 * eps[1, 2], 2 * eps[0, 2], 2 * eps[0, 1]]
            )
        exact = 0.5 * (voigt @ cm @ voigt) * h**dim
        fem = 0.5 * (u @ ke @ u)
        assert fem == pytest.approx(exact, rel=1e-12, abs=1e-18)
        # the energy alone cannot tell two 3-D shear rows apart (C's shear
        # block is mu I): B u is the Voigt strain row by row at every point
        for _, _, dn_dxi in shapefn._quadrature(dim, h):
            b = shapefn.strain_matrix(dn_dxi * (2.0 / h))
            np.testing.assert_allclose(b @ u, voigt, rtol=0, atol=1e-12 * np.abs(voigt).max())


@pytest.mark.parametrize("dim,h", [(2, 0.5), (3, 0.25)])
def test_coupling_affine_patch(dim, h):
    # u^T T p must equal the volume integral of u . grad(p) for affine u, p.
    rng = np.random.default_rng(7)
    signs = shapefn.corner_signs(dim)
    coords = (signs + 1.0) / 2.0 * h
    te = shapefn.coupling_matrix(dim, h)
    centroid = coords.mean(axis=0)
    for _ in range(5):
        gp = rng.normal(size=dim)
        u0 = rng.normal(size=dim)
        gu = rng.normal(size=(dim, dim))
        p = coords @ gp
        u = (u0[None, :] + coords @ gu.T).ravel()
        exact = h**dim * (u0 @ gp + gp @ gu @ centroid)
        assert u @ (te @ p) == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_conduction_affine_patch():
    rng = np.random.default_rng(3)
    for dim, h in ((2, 0.3), (3, 0.7)):
        signs = shapefn.corner_signs(dim)
        coords = (signs + 1.0) / 2.0 * h
        ke = shapefn.conduction_matrix(dim, h)
        for _ in range(5):
            gp = rng.normal(size=dim)
            p = coords @ gp
            assert p @ ke @ p == pytest.approx(h**dim * (gp @ gp), rel=1e-12)

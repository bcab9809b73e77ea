"""Filter/projection forward maps and their adjoint chain."""
import numpy as np
import pytest

from pneumotop.filtering import (
    ProjectionParams,
    chain_sensitivities,
    filter_densities,
    grayness,
    invert_projection,
    project,
)
from pneumotop.grid import Grid, GridSpec, filter_matrix

from gridindex import elem_index


@pytest.fixture()
def grid6():
    return Grid(GridSpec(2, (6, 6), 1.0))


def test_uniform_field_is_fixed_point(grid6):
    kernel = filter_matrix(grid6, 1.5)
    rho = np.full(grid6.nelem, 0.37)
    assert np.allclose(filter_densities(rho, kernel), 0.37, atol=1e-14)


def test_self_only_filter_is_identity(grid6):
    kernel = filter_matrix(grid6, 0.5)
    rho = np.zeros(grid6.nelem)
    rho[elem_index(grid6, (3, 3))] = 1.0
    assert np.array_equal(filter_densities(rho, kernel), rho)


def test_checkerboard_blurs_to_interior_value(grid6):
    kernel = filter_matrix(grid6, 1.5)
    ij = grid6.elem_ijk
    rho = ((ij[:, 0] + ij[:, 1]) % 2).astype(float)
    out = filter_densities(rho, kernel)
    center = elem_index(grid6, (3, 3))
    assert 0.0 < out[center] < 1.0
    # oracle: direct cone-weighted average over the 3x3 patch
    num = den = 0.0
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            w = 1.5 - np.hypot(di, dj)
            num += w * rho[elem_index(grid6, (3 + di, 3 + dj))]
            den += w
    assert out[center] == pytest.approx(num / den, rel=1e-13)


def test_projection_endpoints_and_midpoint():
    params = ProjectionParams(beta=6.0, eta=0.5)
    v, _ = project(np.array([0.0, 0.5, 1.0]), params)
    assert v[0] == 0.0
    assert v[1] == pytest.approx(0.5, abs=1e-15)
    assert v[2] == pytest.approx(1.0, abs=1e-15)


def test_projection_beta1_near_identity():
    params = ProjectionParams(beta=1.0, eta=0.5)
    x = np.linspace(0, 1, 1001)
    v, _ = project(x, params)
    assert np.max(np.abs(v - x)) < 0.12
    assert np.all(np.diff(v) > 0)


def test_invert_projection_round_trip():
    params = ProjectionParams(beta=3.0, eta=0.5)
    for target in (0.05, 0.2, 0.5, 0.7, 0.99):
        x = invert_projection(target, params)
        v, _ = project(np.array([x]), params)
        assert v[0] == pytest.approx(target, abs=1e-12)


def test_chain_is_exact_adjoint(grid6):
    # <a, J b> == <J^T a, b> for the linearization J of filter + project
    rng = np.random.default_rng(1)
    kernel = filter_matrix(grid6, 1.5)
    params = ProjectionParams(beta=4.0, eta=0.5)
    rho = rng.uniform(0.1, 0.9, grid6.nelem)
    _, dproj = project(filter_densities(rho, kernel), params)
    for _ in range(10):
        a = rng.normal(size=grid6.nelem)
        b = rng.normal(size=grid6.nelem)
        jb = dproj * filter_densities(b, kernel)
        jta = chain_sensitivities(a, dproj, kernel.T)
        assert abs(a @ jb - jta @ b) <= 1e-10 * max(1.0, abs(a @ jb))


def test_chain_matches_finite_difference(grid6):
    rng = np.random.default_rng(2)
    kernel = filter_matrix(grid6, 1.5)
    params = ProjectionParams(beta=4.0, eta=0.5)
    rho = rng.uniform(0.2, 0.8, grid6.nelem)
    w = rng.normal(size=grid6.nelem)  # downstream gradient

    def scalar(r):
        v, _ = project(filter_densities(r, kernel), params)
        return w @ v

    _, dproj = project(filter_densities(rho, kernel), params)
    grad = chain_sensitivities(w, dproj, kernel.T)
    step = 1e-6
    idx = rng.choice(grid6.nelem, size=12, replace=False)
    for j in idx:
        hi = rho.copy()
        lo = rho.copy()
        hi[j] += step
        lo[j] -= step
        fd = (scalar(hi) - scalar(lo)) / (2 * step)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_chain_zero_gradient(grid6):
    kernel = filter_matrix(grid6, 1.5)
    out = chain_sensitivities(
        np.zeros(grid6.nelem), np.ones(grid6.nelem), kernel.T
    )
    assert np.all(out == 0.0)


def test_near_identity_composition(grid6):
    # self-only filter and a gentle projection give back the input gradient
    kernel = filter_matrix(grid6, 0.5)
    rng = np.random.default_rng(3)
    g = rng.normal(size=grid6.nelem)
    out = chain_sensitivities(g, np.ones(grid6.nelem), kernel.T)
    assert np.allclose(out, g, atol=1e-12)


def test_forward_map_stays_in_unit_cube(grid6):
    rng = np.random.default_rng(4)
    kernel = filter_matrix(grid6, 2.5)
    params = ProjectionParams(beta=16.0, eta=0.5)
    rho = rng.uniform(0, 1, size=(3, grid6.nelem))
    v, _ = project(filter_densities(rho, kernel), params)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_grayness_decreases_under_continuation(grid6):
    rng = np.random.default_rng(5)
    kernel = filter_matrix(grid6, 1.5)
    rho = rng.uniform(0, 1, grid6.nelem)
    tilde = filter_densities(rho, kernel)
    levels = []
    for beta in (1.0, 2.0, 4.0, 8.0, 16.0):
        v, _ = project(tilde, ProjectionParams(beta=beta, eta=0.5))
        levels.append(grayness(v))
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))

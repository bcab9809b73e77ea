"""Bilinear/trilinear element integrals on axis-aligned squares and cubes.

All element matrices are evaluated with 2-point Gauss quadrature per axis,
which integrates the (at most quadratic per axis) shape-function products
exactly. Nodes come in the grid's corner order, ``grid.CORNER_OFFSETS``.
"""
from __future__ import annotations

import numpy as np

from .grid import CORNER_OFFSETS


def corner_signs(dim: int) -> np.ndarray:
    """Reference-corner sign pattern, shape (nen, dim)."""
    return 2.0 * CORNER_OFFSETS[dim] - 1.0


def gauss_points(dim: int) -> np.ndarray:
    """Tensor-product 2-point Gauss abscissae, shape (2**dim, dim); weights are 1."""
    g = 1.0 / np.sqrt(3.0)
    axes = [np.array([-g, g])] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return pts


def shape_values(xi: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Shape functions N_a(xi), shape (nen,)."""
    return np.prod((1.0 + signs * xi) / 2.0, axis=1)


def shape_gradients(xi: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients dN_a/dxi_c, shape (nen, dim)."""
    nen, dim = signs.shape
    terms = (1.0 + signs * xi) / 2.0
    grads = np.empty((nen, dim))
    for c in range(dim):
        others = np.prod(np.delete(terms, c, axis=1), axis=1)
        grads[:, c] = (signs[:, c] / 2.0) * others
    return grads


def conduction_matrix(dim: int, h: float) -> np.ndarray:
    """Scalar-Laplacian element matrix for unit conductivity, shape (nen, nen)."""
    signs = corner_signs(dim)
    det_j = (h / 2.0) ** dim
    scale = (2.0 / h) ** 2
    ke = np.zeros((signs.shape[0],) * 2)
    for xi in gauss_points(dim):
        g = shape_gradients(xi, signs)
        ke += det_j * scale * (g @ g.T)
    return ke


def mass_matrix(dim: int, h: float) -> np.ndarray:
    """Element integral of N_a N_b, shape (nen, nen)."""
    signs = corner_signs(dim)
    det_j = (h / 2.0) ** dim
    me = np.zeros((signs.shape[0],) * 2)
    for xi in gauss_points(dim):
        n = shape_values(xi, signs)
        me += det_j * np.outer(n, n)
    return me


def coupling_matrix(dim: int, h: float) -> np.ndarray:
    """Pressure-gradient coupling: integral of N_a dN_b/dx_c.

    Row index is the displacement slot dim*a + c, column index is the
    pressure node b; shape (dim*nen, nen).
    """
    signs = corner_signs(dim)
    nen = signs.shape[0]
    det_j = (h / 2.0) ** dim
    te = np.zeros((dim * nen, nen))
    for xi in gauss_points(dim):
        n = shape_values(xi, signs)
        g = shape_gradients(xi, signs) * (2.0 / h)
        for c in range(dim):
            te[c::dim, :] += det_j * np.outer(n, g[:, c])
    return te


def elastic_moduli(nu: float, dim: int) -> np.ndarray:
    """Unit-modulus constitutive matrix: plane strain in 2-D, full 3-D otherwise."""
    if dim == 2:
        c = 1.0 / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return c * np.array(
            [
                [1.0 - nu, nu, 0.0],
                [nu, 1.0 - nu, 0.0],
                [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
            ]
        )
    lam = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = 1.0 / (2.0 * (1.0 + nu))
    cm = np.zeros((6, 6))
    cm[:3, :3] = lam
    cm[np.diag_indices(3)] = lam + 2.0 * mu
    cm[3, 3] = cm[4, 4] = cm[5, 5] = mu
    return cm


def strain_matrix(dndx: np.ndarray, dim: int) -> np.ndarray:
    """Strain-displacement matrix B from physical gradients (nen, dim)."""
    nen = dndx.shape[0]
    if dim == 2:
        b = np.zeros((3, 2 * nen))
        b[0, 0::2] = dndx[:, 0]
        b[1, 1::2] = dndx[:, 1]
        b[2, 0::2] = dndx[:, 1]
        b[2, 1::2] = dndx[:, 0]
        return b
    b = np.zeros((6, 3 * nen))
    b[0, 0::3] = dndx[:, 0]
    b[1, 1::3] = dndx[:, 1]
    b[2, 2::3] = dndx[:, 2]
    b[3, 1::3] = dndx[:, 2]
    b[3, 2::3] = dndx[:, 1]
    b[4, 0::3] = dndx[:, 2]
    b[4, 2::3] = dndx[:, 0]
    b[5, 0::3] = dndx[:, 1]
    b[5, 1::3] = dndx[:, 0]
    return b


def stiffness_matrix(dim: int, h: float, nu: float) -> np.ndarray:
    """Unit-modulus element stiffness, shape (dim*nen, dim*nen)."""
    signs = corner_signs(dim)
    cm = elastic_moduli(nu, dim)
    det_j = (h / 2.0) ** dim
    nen = signs.shape[0]
    ke = np.zeros((dim * nen,) * 2)
    for xi in gauss_points(dim):
        g = shape_gradients(xi, signs) * (2.0 / h)
        b = strain_matrix(g, dim)
        ke += det_j * (b.T @ cm @ b)
    return ke

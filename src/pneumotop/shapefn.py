"""Bilinear/trilinear element integrals on axis-aligned squares and cubes.

Every element matrix is one sum over ``_quadrature``, the 2-point Gauss rule
per axis, which integrates the (at most quadratic per axis) shape-function
products exactly. Strains are in Voigt order, ``VOIGT``: the normal
components, then the engineering shears. Nodes come in the grid's corner
order, ``grid.CORNER_OFFSETS``.
"""
from __future__ import annotations

import numpy as np

from .grid import CORNER_OFFSETS

# (i, j) of each Voigt strain row: eps_ij, doubled off the diagonal
VOIGT = {2: ((0, 0), (1, 1), (0, 1)), 3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))}


def corner_signs(dim: int) -> np.ndarray:
    """Reference-corner sign pattern, shape (nen, dim)."""
    return 2.0 * CORNER_OFFSETS[dim] - 1.0


def gauss_points(dim: int) -> np.ndarray:
    """Tensor-product 2-point Gauss abscissae, shape (2**dim, dim); weights are 1."""
    g = 1.0 / np.sqrt(3.0)
    axes = [np.array([-g, g])] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return pts


def _quadrature(dim: int, h: float):
    """``(det J, N, dN/dxi)`` at each Gauss point of an element of side
    ``h``: the shape functions, shape (nen,), and their reference gradients,
    (nen, dim). Physical gradients are ``dN/dxi * (2 / h)``."""
    signs = corner_signs(dim)
    det_j = (h / 2.0) ** dim
    # terms[p, a]: the 1-D factors of N_a at point p, all points at once
    terms = (1.0 + signs * gauss_points(dim)[:, None, :]) / 2.0
    grads = [(signs[:, c] / 2.0) * np.prod(np.delete(terms, c, axis=2), axis=2)
             for c in range(dim)]
    for n, g in zip(np.prod(terms, axis=2), np.stack(grads, axis=2)):
        yield det_j, n, g


def conduction_matrix(dim: int, h: float) -> np.ndarray:
    """Scalar-Laplacian element matrix for unit conductivity, shape (nen, nen)."""
    scale = (2.0 / h) ** 2
    return sum(det_j * scale * (g @ g.T) for det_j, _, g in _quadrature(dim, h))


def mass_matrix(dim: int, h: float) -> np.ndarray:
    """Element integral of N_a N_b, shape (nen, nen)."""
    return sum(det_j * np.outer(n, n) for det_j, n, _ in _quadrature(dim, h))


def coupling_matrix(dim: int, h: float) -> np.ndarray:
    """Pressure-gradient coupling: integral of N_a dN_b/dx_c.

    Row index is the displacement slot dim*a + c, column index is the
    pressure node b; shape (dim*nen, nen).
    """
    # entry (a, c, b) is N_a dN_b/dx_c: the outer product of N and column c
    return sum(det_j * (n[:, None, None] * (g * (2.0 / h)).T).reshape(-1, n.size)
               for det_j, n, g in _quadrature(dim, h))


def elastic_moduli(nu: float, dim: int) -> np.ndarray:
    """Unit-modulus constitutive matrix in Lamé form, in ``VOIGT[dim]``
    order: the full 3-D matrix, and in 2-D (plane strain, eps_zz = 0) its
    rows and columns xx, yy and xy."""
    lam = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = 1.0 / (2.0 * (1.0 + nu))
    cm = np.zeros((6, 6))
    cm[:3, :3] = lam
    cm[np.diag_indices(3)] = lam + 2.0 * mu
    cm[3, 3] = cm[4, 4] = cm[5, 5] = mu
    keep = [VOIGT[3].index(ij) for ij in VOIGT[dim]]
    return cm[np.ix_(keep, keep)]


def strain_matrix(dndx: np.ndarray) -> np.ndarray:
    """Strain-displacement matrix B from physical gradients (nen, dim): row
    (i, j) of ``VOIGT`` is du_i/dx_j + du_j/dx_i, halved on the diagonal."""
    nen, dim = dndx.shape
    b = np.zeros((len(VOIGT[dim]), dim * nen))
    for row, (i, j) in enumerate(VOIGT[dim]):
        b[row, i::dim] = dndx[:, j]
        b[row, j::dim] = dndx[:, i]
    return b


def stiffness_matrix(dim: int, h: float, nu: float) -> np.ndarray:
    """Unit-modulus element stiffness, shape (dim*nen, dim*nen)."""
    cm = elastic_moduli(nu, dim)
    ke = 0.0
    for det_j, _, g in _quadrature(dim, h):
        b = strain_matrix(g * (2.0 / h))
        ke = ke + det_j * (b.T @ cm @ b)
    return ke

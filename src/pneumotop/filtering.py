"""Density filtering and tanh projection between design and physical fields.

The forward map per channel is rho -> filter -> project; the reverse map
chains sensitivities back through the exact transpose of the linearization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy import sparse

from .errors import ConfigError
from .materials import smoothed_heaviside


@dataclass(frozen=True)
class ProjectionParams:
    """Tanh projection threshold and sharpness (continuation-scheduled)."""

    beta: float = 1.0
    eta: float = 0.5

    def __post_init__(self):
        if self.beta < 1:
            raise ConfigError(f"projection beta must be >= 1, got {self.beta}")
        if not 0 < self.eta < 1:
            raise ConfigError(f"projection eta must be in (0,1), got {self.eta}")


def filter_densities(rho: np.ndarray, kernel: sparse.csr_matrix) -> np.ndarray:
    """Weighted neighbor average by the row-normalized ``kernel``
    (``grid.filter_matrix``); accepts (nel,) or (nch, nel) arrays."""
    return (kernel @ np.asarray(rho, dtype=float).T).T


def project(rho_tilde: np.ndarray, params: ProjectionParams):
    """Project filtered densities toward 0/1; returns (rho_bar, d rho_bar / d rho_tilde)."""
    return smoothed_heaviside(rho_tilde, params.beta, params.eta)


def invert_projection(target, params: ProjectionParams):
    """Design value whose projection equals ``target`` (both in (0,1))."""
    t0 = np.tanh(params.beta * params.eta)
    denom = t0 + np.tanh(params.beta * (1.0 - params.eta))
    x = params.eta + np.arctanh(np.asarray(target) * denom - t0) / params.beta
    return np.clip(x, 0.0, 1.0)


def chain_sensitivities(
    df_drho_bar: np.ndarray, dproj: np.ndarray, kernel_t: sparse.csc_matrix
) -> np.ndarray:
    """Pull a gradient w.r.t. physical densities back to design variables.

    Applies the projection derivative elementwise, then ``kernel_t``, the
    transpose of the row-normalized filter (``kernel.T``, which a model
    holds as ``kernel_t``); accepts (nel,) or (nch, nel) arrays.
    """
    scaled = np.asarray(df_drho_bar, dtype=float) * dproj
    return (kernel_t @ scaled.T).T


def grayness(rho_bar1: np.ndarray) -> float:
    """Mean intermediate-density measure 4*rho*(1-rho) of the topology channel."""
    rb = np.asarray(rho_bar1, dtype=float)
    return float(np.mean(4.0 * rb * (1.0 - rb)))

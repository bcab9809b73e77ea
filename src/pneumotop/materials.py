"""Material interpolation and porous-flow coefficient models.

Stiffness follows the nested multi-material power-law interpolation: the
first density channel decides material-vs-void, the second and third select
among the available materials. Flow and drainage coefficients depend on the
first channel only, shaped by a smoothed tanh step. Every model returns
analytic partial derivatives alongside its value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class MaterialSet:
    """One to three elastic materials with a shared Poisson ratio.

    ``E`` lists the moduli in ascending order (Pa); ``E_min`` is the small
    void stiffness floor that keeps the stiffness matrix nonsingular.
    """

    E: tuple[float, ...]
    E_min: float = 100.0
    nu: float = 0.3
    penalty: float = 3.0

    def __post_init__(self):
        object.__setattr__(self, "E", tuple(float(e) for e in self.E))
        if not 1 <= len(self.E) <= 3:
            raise ConfigError(f"need 1-3 materials, got {len(self.E)}")
        if any(b <= a for a, b in zip(self.E, self.E[1:])):
            raise ConfigError(f"moduli must be strictly increasing: {self.E}")
        if not 0 < self.E_min < self.E[0]:
            raise ConfigError(
                f"E_min must satisfy 0 < E_min < E_1, got {self.E_min}"
            )
        if not 0 <= self.nu < 0.5:
            raise ConfigError(f"Poisson ratio must be in [0, 0.5), got {self.nu}")
        if self.penalty < 1:
            raise ConfigError(f"penalty must be >= 1, got {self.penalty}")

    @property
    def n_channels(self) -> int:
        """Active density channels: topology plus one selector per extra material."""
        return len(self.E)

    def solid_pattern(self, material: int) -> np.ndarray:
        """Channel corner values (3,) that produce the given material exactly."""
        if not 1 <= material <= self.n_channels:
            raise ConfigError(
                f"material index {material} outside 1..{self.n_channels}"
            )
        pattern = np.zeros(3)
        pattern[:material] = 1.0
        return pattern


@dataclass(frozen=True)
class FlowParams:
    """Porous-flow model parameters (normalized flow units, Pa pressures)."""

    P_in: float
    K_v: float = 1.0
    K_s: float = 1e-7
    beta_k: float = 10.0
    eta_k: float = 0.2
    D_s: float = 0.0
    beta_d: float = 10.0
    eta_d: float = 0.3
    p_atm: float = 0.0

    def __post_init__(self):
        if not 0 < self.K_s < self.K_v:
            raise ConfigError(
                f"flow coefficients need 0 < K_s < K_v, got {self.K_s}, {self.K_v}"
            )
        for nm, eta in (("eta_k", self.eta_k), ("eta_d", self.eta_d)):
            if not 0 < eta < 1:
                raise ConfigError(f"{nm} must be in (0, 1), got {eta}")
        for nm, beta in (("beta_k", self.beta_k), ("beta_d", self.beta_d)):
            if not beta > 0:
                raise ConfigError(f"{nm} must be > 0, got {beta}")
        if self.D_s < 0:
            raise ConfigError(f"D_s must be >= 0, got {self.D_s}")
        if not self.P_in > self.p_atm:
            raise ConfigError(
                f"inlet pressure {self.P_in} must exceed p_atm {self.p_atm}"
            )


def smoothed_heaviside(x, beta: float, eta: float):
    """Tanh step from 0 at x=0 to 1 at x=1 with threshold eta and sharpness beta.

    Returns (value, derivative); both broadcast over array input.
    """
    x = np.asarray(x, dtype=float)
    t0 = np.tanh(beta * eta)
    denom = t0 + np.tanh(beta * (1.0 - eta))
    t = np.tanh(beta * (x - eta))
    value = (t0 + t) / denom
    deriv = beta * (1.0 - t * t) / denom
    return value, deriv


def interpolate_modulus(rho: np.ndarray, mats: MaterialSet):
    """Elastic modulus field and its channel partials.

    ``rho`` has shape (3, ...) holding the physical densities; channels past
    the material count are ignored. Returns (E, dE) with dE shaped (3, ...)
    and zeros on unused channels.
    """
    rho = np.asarray(rho, dtype=float)
    p = mats.penalty
    floors = (mats.E_min,) + mats.E[:-1]
    m, dm = mats.E[-1], np.zeros_like(rho)
    # Innermost selector first: channel k picks between floors[k] and the
    # modulus m that the channels past it select.
    with np.errstate(over="ignore"):  # the solve rejects an inf modulus (exit 4)
        for k in reversed(range(mats.n_channels)):
            r = rho[k]
            rp = r**p
            dm[k + 1:] *= rp
            dm[k] = p * np.where(r > 0, r ** (p - 1.0), 0.0) * (m - floors[k])
            m = (1.0 - rp) * floors[k] + rp * m
    return m, dm


def flow_coefficient(rho1, params: FlowParams):
    """Element flow coefficient K(rho1) decreasing from K_v (void) to K_s (solid)."""
    h, dh = smoothed_heaviside(rho1, params.beta_k, params.eta_k)
    span = 1.0 - params.K_s / params.K_v
    k = params.K_v * (1.0 - span * h)
    dk = -params.K_v * span * dh
    return k, dk


def drainage_coefficient(rho1, params: FlowParams):
    """Drainage strength D_s * H(rho1) and its density derivative."""
    h, dh = smoothed_heaviside(rho1, params.beta_d, params.eta_d)
    return params.D_s * h, params.D_s * dh


def drainage_for_wall(K_s: float, wall_thickness: float, residual_ratio: float) -> float:
    """Drainage coefficient making pressure decay to ``residual_ratio`` across a wall.

    In a fully solid 1-D wall the pressure satisfies K_s p'' = D_s p, so the
    decay length is sqrt(K_s / D_s); solving for the target ratio over the
    given thickness yields D_s.
    """
    if not 0 < residual_ratio < 1:
        raise ConfigError(f"residual ratio must be in (0,1), got {residual_ratio}")
    if not wall_thickness > 0:
        raise ConfigError(f"wall thickness must be > 0, got {wall_thickness}")
    return K_s * (np.log(residual_ratio) / wall_thickness) ** 2

"""Material interpolation and flow-coefficient model tests."""
import numpy as np
import pytest

from pneumotop.errors import ConfigError
from pneumotop.materials import (
    FlowParams,
    MaterialSet,
    drainage_coefficient,
    drainage_for_wall,
    flow_coefficient,
    interpolate_modulus,
    smoothed_heaviside,
)

MATS3 = MaterialSet(E=(1e6, 1e7, 1e8), E_min=100.0)
FLOW = FlowParams(P_in=5e4)


def _modulus(r1, r2=0.0, r3=0.0, mats=MATS3):
    e, _ = interpolate_modulus(np.array([[r1], [r2], [r3]]), mats)
    return float(e[0])


def test_heaviside_endpoints_exact():
    for beta, eta in ((2.0, 0.3), (10.0, 0.2), (16.0, 0.5)):
        h0, _ = smoothed_heaviside(0.0, beta, eta)
        h1, _ = smoothed_heaviside(1.0, beta, eta)
        assert h0 == 0.0
        assert h1 == pytest.approx(1.0, abs=1e-15)


def test_heaviside_midpoint_symmetry():
    for beta in (1.0, 4.0, 32.0):
        h, _ = smoothed_heaviside(0.5, beta, 0.5)
        assert h == pytest.approx(0.5, abs=1e-15)


def test_heaviside_strictly_increasing():
    x = np.linspace(0, 1, 101)
    h, dh = smoothed_heaviside(x, 8.0, 0.3)
    assert np.all(np.diff(h) > 0)
    assert np.all(dh > 0)


def test_interpolation_corners():
    assert _modulus(1, 0, 0) == pytest.approx(1e6, rel=1e-15)
    assert _modulus(1, 1, 0) == pytest.approx(1e7, rel=1e-15)
    assert _modulus(1, 1, 1) == pytest.approx(1e8, rel=1e-15)
    assert _modulus(0, 0.4, 0.9) == pytest.approx(100.0, rel=1e-15)


def test_interpolation_half_density_value():
    # (0.5, 0, 0) with p=3: 0.875*100 + 0.125*1e6
    assert _modulus(0.5, 0, 0) == pytest.approx(125087.5, rel=1e-14)


def test_interpolation_bounds_and_monotonicity():
    rng = np.random.default_rng(0)
    rho = rng.uniform(size=(3, 500))
    e, de = interpolate_modulus(rho, MATS3)
    assert np.all(e >= MATS3.E_min - 1e-9)
    assert np.all(e <= MATS3.E[2] + 1e-6)
    assert np.all(de >= -1e-12)


def test_single_and_two_material_sets():
    m1 = MaterialSet(E=(2e6,))
    e, de = interpolate_modulus(np.array([[0.5], [0.7], [0.2]]), m1)
    assert e[0] == pytest.approx(0.875 * 100 + 0.125 * 2e6)
    assert de[1, 0] == 0.0 and de[2, 0] == 0.0
    m2 = MaterialSet(E=(1e6, 1e7))
    e2, de2 = interpolate_modulus(np.array([[1.0], [1.0], [0.3]]), m2)
    assert e2[0] == pytest.approx(1e7, rel=1e-14)
    assert de2[2, 0] == 0.0


@pytest.mark.parametrize("n_mats", [1, 2, 3])
def test_partials_match_finite_differences(n_mats):
    mats = MaterialSet(E=tuple([1e6, 1e7, 1e8][:n_mats]), E_min=100.0)
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.05, 0.95, size=(3, 100))
    _, de = interpolate_modulus(rho, mats)
    step = 1e-6
    for ch in range(3):
        hi = rho.copy()
        lo = rho.copy()
        hi[ch] += step
        lo[ch] -= step
        fd = (interpolate_modulus(hi, mats)[0] - interpolate_modulus(lo, mats)[0]) / (
            2 * step
        )
        denom = np.maximum(np.abs(fd), 1e-6 * np.abs(fd).max() + 1e-12)
        assert np.max(np.abs(de[ch] - fd) / denom) < 1e-5


def test_flow_coefficient_limits_and_range():
    k0, _ = flow_coefficient(0.0, FLOW)
    k1, _ = flow_coefficient(1.0, FLOW)
    assert k0 == pytest.approx(FLOW.K_v, rel=1e-15)
    assert k1 == pytest.approx(FLOW.K_s, rel=1e-9)
    fp = FlowParams(P_in=5e4, eta_k=0.5)
    km, _ = flow_coefficient(0.5, fp)
    assert km == pytest.approx(0.5 * (fp.K_v + fp.K_s), rel=1e-12)
    x = np.linspace(0, 1, 64)
    k, dk = flow_coefficient(x, FLOW)
    assert np.all(k <= FLOW.K_v + 1e-15) and np.all(k >= FLOW.K_s - 1e-15)
    assert np.all(dk <= 0)


def test_flow_coefficient_partials_fd():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.02, 0.98, size=100)
    _, dk = flow_coefficient(x, FLOW)
    step = 1e-6
    fd = (flow_coefficient(x + step, FLOW)[0] - flow_coefficient(x - step, FLOW)[0]) / (
        2 * step
    )
    # allow the FD oracle its own roundoff: eps * K_v / step
    fd_noise = 4 * np.finfo(float).eps * FLOW.K_v / step
    assert np.all(np.abs(dk - fd) <= 1e-5 * np.abs(fd) + fd_noise)


def test_drainage_coefficient_values():
    # FLOW has D_s = 0: no drainage at any density
    assert drainage_coefficient(0.7, FLOW)[0] == 0.0
    fp = FlowParams(P_in=5e4, D_s=2.5)
    # void elements drain nothing; solid ones drain D_s H(1)
    assert drainage_coefficient(0.0, fp)[0] == 0.0
    h1, _ = smoothed_heaviside(1.0, fp.beta_d, fp.eta_d)
    assert drainage_coefficient(1.0, fp)[0] == pytest.approx(2.5 * h1, rel=1e-12)


def test_drainage_coefficient_derivative_fd():
    fp = FlowParams(P_in=5e4, D_s=3.0)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.02, 0.98, size=100)
    _, dd = drainage_coefficient(x, fp)
    step = 1e-6
    fd = (drainage_coefficient(x + step, fp)[0] - drainage_coefficient(x - step, fp)[0]) / (
        2 * step
    )
    scale = np.abs(fd).max()
    assert np.max(np.abs(dd - fd) / np.maximum(np.abs(fd), 1e-6 * scale)) < 1e-5


def test_drainage_for_wall_decay_rate():
    d = drainage_for_wall(1e-7, 2e-3, 0.01)
    # decay length sqrt(K_s/D_s) must put exp(-t/L) = ratio at t = thickness
    decay = np.exp(-np.sqrt(d / 1e-7) * 2e-3)
    assert decay == pytest.approx(0.01, rel=1e-12)


def test_material_set_validation():
    with pytest.raises(ConfigError):
        MaterialSet(E=(1e7, 1e6))
    with pytest.raises(ConfigError):
        MaterialSet(E=(1e6,), E_min=2e6)
    with pytest.raises(ConfigError):
        MaterialSet(E=(1e6,), nu=0.5)
    with pytest.raises(ConfigError):
        FlowParams(P_in=0.0, p_atm=0.0)
    with pytest.raises(ConfigError):
        FlowParams(P_in=5e4, K_s=2.0, K_v=1.0)


def test_solid_patterns():
    assert np.allclose(MATS3.solid_pattern(1), [1, 0, 0])
    assert np.allclose(MATS3.solid_pattern(2), [1, 1, 0])
    assert np.allclose(MATS3.solid_pattern(3), [1, 1, 1])
    with pytest.raises(ConfigError):
        MATS3.solid_pattern(4)

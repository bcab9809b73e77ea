"""Adjoint gradients validated against central finite differences.

The FD comparison on design variables is the ground truth for every sign
convention in the adjoint module; it runs for both objective variants, all
three channels, with and without drainage, with and without output springs.
"""
import numpy as np
import pytest

from pneumotop import adjoint, filtering, optimizer, problem
from pneumotop.adjoint import ObjectiveSpec
from pneumotop.elasticity import PerformanceMetrics
from pneumotop.errors import SolveError
from pneumotop.model import Model

from tinyproblem import block_problem_dict, tiny_problem_dict

FD_STEP = 1e-5
N_SAMPLES = 20


def _instance(drainage=True, springs=True):
    raw = {
        "name": "fd8x8",
        "grid": {"dim": 2, "nel": [8, 8], "h_m": 0.001},
        "regions": [
            {"role": "fixed_support", "box_m": [[0, 0], [0, 0.008]]},
            {"role": "pressure_inlet", "box_m": [[0, 0.004], [0, 0.007]]},
            {"role": "pressure_drain", "box_m": [[0.008, 0], [0.008, 0.008]]},
            {
                "role": "output",
                "box_m": [[0.008, 0.002], [0.008, 0.006]],
                "direction": [0, -1],
                "k_out_n_per_m": 10.0 if springs else 0.0,
            },
        ],
        "materials": {"E_pa": [1e6, 1e7, 1e8]},
        "flow": {"P_in_pa": 5e4},
        "volume_fractions": [0.3, 0.2, 0.2],
    }
    if not drainage:
        raw["flow"]["D_s"] = 0.0
    return Model(problem.parse_problem(raw))


def _random_design(model, rng):
    return rng.uniform(0.25, 0.75, size=(3, model.grid.nelem))


def _objective_and_constraints(model, design, beta, spec):
    _, rho_bar, _ = model.physical_fields(design, beta)
    state = model.forward(rho_bar)
    f = adjoint.objective_value(state.metrics, spec, s=1.0)
    g = optimizer.constraint_values(rho_bar, model)
    return f, g


def _analytic_gradients(model, design, beta, spec):
    _, rho_bar, dproj = model.physical_fields(design, beta)
    state = model.forward(rho_bar)
    f, df = adjoint.total_gradient(model, state, spec, 1.0, dproj)
    return f, df, optimizer.constraint_gradients(model, dproj)


def _fd_assert(model, design, beta, spec, rng):
    f0, df, dg = _analytic_gradients(model, design, beta, spec)
    scale_f = np.abs(df).max()
    scale_g = np.abs(dg).max(axis=(1, 2))
    for ch in range(3):
        idx = rng.choice(model.grid.nelem, size=N_SAMPLES, replace=False)
        for j in idx:
            hi = design.copy()
            lo = design.copy()
            hi[ch, j] += FD_STEP
            lo[ch, j] -= FD_STEP
            f_hi, g_hi = _objective_and_constraints(model, hi, beta, spec)
            f_lo, g_lo = _objective_and_constraints(model, lo, beta, spec)
            fd = (f_hi - f_lo) / (2 * FD_STEP)
            denom = max(abs(fd), abs(df[ch, j]), 1e-8 * scale_f)
            assert abs(df[ch, j] - fd) / denom <= 1e-4, (
                f"objective channel {ch} elem {j}: analytic {df[ch, j]:.8e} "
                f"vs fd {fd:.8e}"
            )
            fd_g = (g_hi - g_lo) / (2 * FD_STEP)
            for k in range(dg.shape[0]):
                denom = max(abs(fd_g[k]), abs(dg[k, ch, j]), 1e-8 * scale_g[k])
                assert abs(dg[k, ch, j] - fd_g[k]) / denom <= 1e-4, (
                    f"constraint {k} channel {ch} elem {j}"
                )


def _instance_3d(nel):
    """A block of ``nel`` 1 mm elements, clamped at x = 0 and drained at the
    far end; its elastic solves take the multigrid path, and its flow solves
    too once they have more than COARSEST_DOFS free DOFs (12x6x6)."""
    return Model(problem.parse_problem(block_problem_dict(nel)))


# The last entry is the 3-D grid, or None for the 2-D 8x8 instance; 9x5x4
# has odd axes, which coarsen past the end of the grid, and 12x6x6 is the
# one whose flow solves run on multigrid too.
FD_CASES = [
    ("baseline", True, True, None),
    ("baseline", False, True, None),
    ("baseline", True, False, None),
    ("energy_penalty", True, True, None),
    ("energy_penalty", False, True, None),
    ("energy_penalty", True, False, None),
    ("baseline", True, True, (8, 4, 4)),
    ("energy_penalty", True, True, (8, 4, 4)),
    ("baseline", True, True, (9, 5, 4)),
    ("baseline", True, True, (12, 6, 6)),
]
_3D_IDS = {None: "", (8, 4, 4): "-3d", (9, 5, 4): "-3d-odd", (12, 6, 6): "-3d-flow-multigrid"}


@pytest.mark.parametrize(
    "variant,drainage,springs,nel",
    FD_CASES,
    ids=["-".join(map(str, c[:3])) + _3D_IDS[c[3]] for c in FD_CASES],
)
def test_gradients_match_finite_differences(variant, drainage, springs, nel):
    model = _instance(drainage=drainage, springs=springs) if nel is None else _instance_3d(nel)
    rng = np.random.default_rng(17)
    design = _random_design(model, rng)
    spec = ObjectiveSpec(variant=variant, n=8.0, s=1.0)
    _fd_assert(model, design, beta=2.0, spec=spec, rng=rng)
    if nel is not None:
        assert model.elastic_reduction.levels
        assert bool(model.flow_reduction.levels) == (nel == (12, 6, 6))


def test_objective_value_examples():
    spec = ObjectiveSpec(variant="baseline", n=8.0, s=1.0)
    m = PerformanceMetrics(u_out=1e-3, SE=1e-2, W=0.0, E_t=1.0)
    assert adjoint.objective_value(m, spec) == pytest.approx(-1.77828e-3, rel=1e-5)
    m0 = PerformanceMetrics(u_out=0.0, SE=1e-2, W=0.0, E_t=1.0)
    assert adjoint.objective_value(m0, spec) == 0.0


def test_energy_penalty_inverse_proportional():
    spec = ObjectiveSpec(variant="energy_penalty", n=8.0, s=1.0)
    m1 = PerformanceMetrics(u_out=1e-3, SE=1e-2, W=0.0, E_t=2.0)
    m2 = PerformanceMetrics(u_out=1e-3, SE=1e-2, W=0.0, E_t=1.0)
    f1 = adjoint.objective_value(m1, spec)
    f2 = adjoint.objective_value(m2, spec)
    assert abs(f2) == pytest.approx(2 * abs(f1), rel=1e-12)


def test_degenerate_load_raises():
    spec = ObjectiveSpec(variant="baseline", n=8.0, s=1.0)
    bad = PerformanceMetrics(u_out=1e-3, SE=0.0, W=0.0, E_t=1.0)
    with pytest.raises(SolveError, match="degenerate"):
        adjoint.objective_value(bad, spec)


def test_zero_objective_gradient_gives_zero_adjoints():
    model = _instance()
    rng = np.random.default_rng(3)
    design = _random_design(model, rng)
    _, rho_bar, _ = model.physical_fields(design, 2.0)
    state = model.forward(rho_bar)
    lam_u, lam_p = adjoint.solve_adjoints(
        model, state, np.zeros(model.grid.n_disp_dofs), np.zeros(model.grid.nnodes)
    )
    assert np.all(lam_u == 0.0)
    assert np.all(lam_p == 0.0)


def test_stiffness_self_adjoint():
    model = _instance()
    rng = np.random.default_rng(5)
    design = _random_design(model, rng)
    _, rho_bar, _ = model.physical_fields(design, 2.0)
    state = model.forward(rho_bar)
    rhs = rng.normal(size=model.elastic_reduction.free.size)
    a = state.disp.system.solve(rhs)
    k_ff = state.disp.system.a
    # symmetric K: transpose solve equals direct solve
    assert np.allclose(k_ff.T @ a, rhs, atol=1e-9 * np.abs(rhs).max() * 1e2)


def test_force_coupling_independent_of_design():
    model = _instance()
    rng = np.random.default_rng(7)
    t_ref = model.t_matrix.copy()
    for _ in range(2):
        design = _random_design(model, rng)
        _, rho_bar, _ = model.physical_fields(design, 2.0)
        model.forward(rho_bar)
        assert (model.t_matrix != t_ref).nnz == 0


def test_constraint_gradients_chain_each_channel_alone():
    # constraint k weighs channel k alone, by the element volumes, so one
    # filter product of the three rows chains each exactly as it would alone
    model = _instance()
    _, _, dproj = model.physical_fields(_random_design(model, np.random.default_rng(6)), 2.0)
    dg = optimizer.constraint_gradients(model, dproj)
    for k, bound in enumerate(model.volume_bounds):
        physical = np.zeros((3, model.grid.nelem))
        physical[k] = model.volumes / (bound * model.volumes.sum())
        assert np.array_equal(dg[k], filtering.chain_sensitivities(physical, dproj, model.kernel_t))


def test_filter_transpose_is_built_once_and_chains_bit_for_bit(monkeypatch):
    # the model holds the filter's transpose, a view of its data; chaining
    # through it is the product with kernel.T bit for bit, and a run takes
    # no transpose of the filter after the model is built
    model = Model(problem.parse_problem(tiny_problem_dict(optimizer={"max_iters": 3})))
    assert np.shares_memory(model.kernel_t.data, model.kernel.data)
    rng = np.random.default_rng(8)
    _, _, dproj = model.physical_fields(_random_design(model, rng), 2.0)
    grad = rng.normal(size=(3, model.grid.nelem))
    assert np.array_equal(filtering.chain_sensitivities(grad, dproj, model.kernel_t),
                          (model.kernel.T @ (grad * dproj).T).T)

    transposed = []
    transpose = type(model.kernel).transpose
    monkeypatch.setattr(type(model.kernel), "transpose",
                        lambda self, *a, **k: transposed.append(self) or transpose(self, *a, **k))
    optimizer.run(model, sink=lambda record: None)
    assert not any(k is model.kernel for k in transposed)

"""The physics solves for tests that build their own grids, each through a
reduction from the builder a Model uses, so that no test restates a
Dirichlet value."""
from pneumotop import darcy, elasticity
from pneumotop.linalg import DirichletReduction


def flow_solve(grid, rho1, params, inlet, drain):
    """The flow system of ``rho1`` on ``grid`` and its pressure field, with
    the inlet and drain nodes fixed by ``darcy.pressure_reduction``."""
    assembler = darcy.FlowAssembler(grid)
    system = assembler.assemble(rho1, params)
    reduction = darcy.pressure_reduction(assembler, inlet, drain, params)
    return system, darcy.solve_pressure(system, reduction)


def elastic_solve(k, f, fixed, nel):
    """``K u = F`` with the DOFs ``fixed`` pinned, as a Model's elastic
    reduction pins its supports, on a grid with ``nel`` elements per axis."""
    reduction = DirichletReduction(k.indptr, k.indices, fixed, nel)
    return elasticity.solve_displacement(k, f, reduction)

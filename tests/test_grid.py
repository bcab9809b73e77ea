"""Grid construction, region selection, density filter and stencil
operator tests."""
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from pneumotop import grid as grid_mod
from pneumotop import problem, shapefn
from pneumotop.darcy import FlowAssembler, coupling_matrix
from pneumotop.elasticity import ElasticAssembler
from pneumotop.errors import ConfigError
from pneumotop.grid import (
    CORNER_OFFSETS,
    BoundaryRegion,
    ElementMap,
    ElementProduct,
    ElementSum,
    Grid,
    GridSpec,
    StencilOperator,
    filter_matrix,
    in_box,
    pattern_slots,
    select_region,
)
from pneumotop.materials import FlowParams

from gridindex import elem_index, node_index


def test_3d_counts():
    g = Grid(GridSpec(3, (2, 2, 2), 1.0))
    assert g.nnodes == 27
    assert g.nelem == 8


def test_2d_counts():
    g = Grid(GridSpec(2, (3, 2), 1.0))
    assert g.nnodes == 12
    assert g.nelem == 6


def test_unit_element_volume():
    g = Grid(GridSpec(2, (1, 1), 1.0))
    assert g.element_volume == 1.0


def test_dof_index_overflow_rejected():
    with pytest.raises(ConfigError, match="index space"):
        GridSpec(3, (2000, 2000, 2000), 1e-3)


def test_scatter_index_overflow_rejected():
    # 16.8 M elements times the 128 entries of the hexahedral flow
    # operator's scatter pass 2**31, while the 51 M displacement DOFs do not
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="2147483648 scatter entries"):
            GridSpec(3, (256, 256, 256), 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # rejected before anything grid-sized is allocated
    # one layer less still fits: the elastic and T scatters are built in
    # 3-D only where a solve or a test assembles
    GridSpec(3, (256, 256, 255), 1e-3)
    # a 2-D grid is bounded by its stiffness's 64 entries per element
    with pytest.raises(ConfigError, match="2147766336 scatter entries"):
        GridSpec(2, (5793, 5793), 1e-3)
    GridSpec(2, (5792, 5792), 1e-3)


def test_stiffness_scatter_overflow_rejected_where_built():
    # The 576 entries per element of the 3-D stiffness's scatter are checked
    # when a matrix-free operator builds it, as State.k_struct does through
    # ElementSum.assemble. The stand-in grid holds only the counts of the
    # 156^3 grid, which GridSpec accepts.
    spec = GridSpec(3, (156, 156, 156), 1e-3)
    grid = SimpleNamespace(nen=8, nnodes=157**3, nelem=156**3)
    op = StencilOperator(grid, shapefn.stiffness_matrix(3, spec.h, 0.3), 3, 3,
                         matrix_free=True)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="2186735616 scatter entries"):
            ElementSum(op, np.ones(1)).assemble()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError):
        GridSpec(2, (0, 3), 1.0)
    with pytest.raises(ConfigError):
        GridSpec(2, (2, 2), 0.0)
    with pytest.raises(ConfigError):
        GridSpec(4, (2, 2, 2, 2), 1.0)
    # sizes whose element matrices' (2/h)^2 or (h/2)^dim overflows
    for dim, h in ((2, 1e-155), (3, 5e-324), (3, 2e103), (2, 10**400)):
        with pytest.raises(ConfigError, match="overflows the element matrices"):
            GridSpec(dim, (2,) * dim, h)
    GridSpec(3, (2, 2, 2), 1e102)  # (h/2)^3 is still finite


def test_dof_numbering_bijection():
    g = Grid(GridSpec(3, (3, 2, 4), 0.5))
    # node -> ijk -> node round trip is the identity
    for node in range(g.nnodes):
        assert node_index(g, g.node_ijk[node]) == node
    # the element DOF map numbers component c of node n as 3 n + c, and
    # together the elements cover every displacement DOF
    edof = g.edof_u.reshape(g.nelem, g.nen, 3)
    assert np.array_equal(edof, 3 * g.conn[:, :, None] + np.arange(3))
    assert np.array_equal(np.unique(g.edof_u), np.arange(g.n_disp_dofs))


def test_connectivity_coords():
    g = Grid(GridSpec(2, (2, 2), 1.0))
    # first element corners: (0,0), (1,0), (1,1), (0,1)
    assert np.allclose(
        g.coords[g.conn[0]], [[0, 0], [1, 0], [1, 1], [0, 1]]
    )


def test_select_x0_plane_of_2x2x2():
    g = Grid(GridSpec(3, (2, 2, 2), 1.0))
    sel = select_region(
        g, BoundaryRegion("fixed_support", ((0, 0, 0), (0, 2, 2)))
    )
    assert sel.nodes.size == 9
    assert all(ax == 0 and side == 0 for _, ax, side in sel.faces)
    assert len(sel.faces) == 4


def _faces_one_by_one(g, region):
    """The domain faces in ``region``'s box, element by element: every face
    of a boundary element on the box's face whose corners all lie in it, by
    axis, side and element."""
    inside = in_box(g.coords, region.box, g.h)
    faces = []
    for ax in range(g.dim):
        for side in (0, 1):
            corners = [c for c in CORNER_OFFSETS[g.dim] if c[ax] == side]
            for e, ijk in enumerate(g.elem_ijk):
                if ijk[ax] == side * (g.nel_axis[ax] - 1) and all(
                        inside[node_index(g, ijk + c)] for c in corners):
                    faces.append((e, ax, side))
    return tuple(faces)


@pytest.mark.parametrize("name", ["finger2d", "gripper2d", "gripper3d", "pneunet2d"])
def test_region_faces_are_the_boundary_faces_in_order(name):
    spec = problem.load_problem(name)
    g = Grid(spec.grid)
    for region in spec.regions:
        assert select_region(g, region).faces == _faces_one_by_one(g, region)


def test_select_full_domain():
    g = Grid(GridSpec(3, (2, 2, 2), 1.0))
    sel = select_region(
        g, BoundaryRegion("pressure_drain", ((0, 0, 0), (2, 2, 2)))
    )
    assert sel.nodes.size == 27


def test_select_empty_is_error():
    g = Grid(GridSpec(2, (2, 2), 1.0))
    with pytest.raises(ConfigError, match="offside"):
        select_region(
            g,
            BoundaryRegion("pressure_inlet", ((5.0, 5.0), (6.0, 6.0)), name="offside"),
        )


def test_symmetry_region_infers_normal():
    g = Grid(GridSpec(2, (4, 4), 1.0))
    sel = select_region(g, BoundaryRegion("symmetry", ((0, 0), (4, 0))))
    assert sel.normal_axis == 1
    with pytest.raises(ConfigError, match="plane"):
        select_region(g, BoundaryRegion("symmetry", ((0, 0), (4, 4))))


def test_output_region_validation():
    with pytest.raises(ConfigError, match="unit"):
        BoundaryRegion("output", ((0, 0), (1, 1)), direction=(1.0, 1.0))
    with pytest.raises(ConfigError, match="direction"):
        BoundaryRegion("output", ((0, 0), (1, 1)))


def test_filter_interior_neighbor_count():
    # r_min = 1.5h: self + 4 edge neighbors + 4 diagonals (sqrt2 h < 1.5h)
    g = Grid(GridSpec(2, (5, 5), 1.0))
    kernel = filter_matrix(g, 1.5)
    center = elem_index(g, (2, 2))
    row = kernel.getrow(center)
    assert row.nnz == 9
    # cone weights: self r_min, edge neighbor r_min - h, diagonal
    # r_min - sqrt(2) h, each divided by the row's total
    total = 1.5 + 4 * 0.5 + 4 * (1.5 - np.sqrt(2.0))
    assert row[0, center] * total == pytest.approx(1.5)
    east = elem_index(g, (3, 2))
    diag = elem_index(g, (3, 3))
    assert row[0, east] * total == pytest.approx(0.5)
    assert row[0, diag] * total == pytest.approx(1.5 - np.sqrt(2.0))


def test_filter_self_only_at_half_h():
    g = Grid(GridSpec(2, (4, 4), 1.0))
    kernel = filter_matrix(g, 0.5)
    assert kernel.nnz == g.nelem


def test_filter_corner_has_fewer_neighbors():
    g = Grid(GridSpec(2, (5, 5), 1.0))
    kernel = filter_matrix(g, 1.5)
    corner = elem_index(g, (0, 0))
    center = elem_index(g, (2, 2))
    assert kernel.getrow(corner).nnz == 4  # self + 2 edges + 1 diagonal
    assert kernel.getrow(corner).nnz < kernel.getrow(center).nnz


def test_filter_rows_normalized_and_symmetric():
    g = Grid(GridSpec(3, (4, 3, 2), 0.7))
    kernel = filter_matrix(g, 1.6 * 0.7)
    rows = np.asarray(kernel.sum(axis=1)).ravel()
    assert np.abs(rows - 1.0).max() < 1e-12
    # scaled back by the rows' weight totals, the filter is the symmetric
    # matrix of cone weights
    totals = np.asarray(_loop_filter_weights(g, 1.6 * 0.7).sum(axis=1)).ravel()
    weights = sparse.diags(totals) @ kernel
    asym = (weights - weights.T)
    assert abs(asym).max() < 1e-14


def _loop_filter_weights(g, r_min):
    """The filter weights built one offset at a time, through coo -> csr."""
    reach = int(np.ceil(r_min / g.h))
    offsets = np.stack(np.unravel_index(
        np.arange((2 * reach + 1) ** g.dim), (2 * reach + 1,) * g.dim, order="F"
    ), axis=-1) - reach
    rows, cols, vals = [], [], []
    for off in offsets:
        w = r_min - np.linalg.norm(off) * g.h
        if w <= 0:
            continue
        shifted = g.elem_ijk + off
        ok = np.all((shifted >= 0) & (shifted < np.array(g.nel_axis)), axis=1)
        rows.append(np.flatnonzero(ok))
        cols.append(np.ravel_multi_index(tuple(shifted[ok].T), g.nel_axis, order="F"))
        vals.append(np.full(ok.sum(), w))
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(g.nelem, g.nelem),
    ).tocsr()


@pytest.mark.parametrize("nel,h,r_min", [
    ((7, 5), 1.0, 2.5), ((5, 3, 4), 0.7, 1.6 * 0.7), ((7, 5, 4), 1.0, 2.0),
])
def test_filter_weights_equal_the_per_offset_construction(nel, h, r_min):
    g = Grid(GridSpec(len(nel), nel, h))
    kernel = filter_matrix(g, r_min)
    ref = _loop_filter_weights(g, r_min)
    assert np.array_equal(kernel.indptr, ref.indptr)
    assert np.array_equal(kernel.indices, ref.indices)
    inv_totals = 1.0 / np.asarray(ref.sum(axis=1)).ravel()
    assert np.array_equal(kernel.data, ref.data * np.repeat(inv_totals, np.diff(ref.indptr)))
    norm_ref = sparse.diags(inv_totals) @ ref
    assert abs(kernel - norm_ref).max() == 0.0


def _triplet_assembly(g, templates, coef, row_dofs, col_dofs):
    """sum_t coef[t] * templates[t] over the elements, through coo -> csr."""
    nr, nc = row_dofs.shape[1], col_dofs.shape[1]
    rows = np.repeat(row_dofs, nc, axis=1).ravel()
    cols = np.tile(col_dofs, (1, nr)).ravel()
    vals = sum(c[:, None, None] * t[None] for c, t in zip(coef, templates))
    shape = (row_dofs.max() + 1, col_dofs.max() + 1)
    return sparse.coo_matrix((vals.ravel(), (rows, cols)), shape=shape).tocsr()


def _assert_same_operator(a, ref):
    # The same pattern as coo -> csr (stored zeros included), and the same
    # values up to the order of the sums.
    assert a.has_canonical_format and a.shape == ref.shape
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.abs(a.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


@pytest.mark.parametrize("nel", [(1, 1), (6, 3), (3, 7), (2, 2, 2), (5, 3, 3), (7, 5, 4)])
def test_assemblers_equal_triplet_assembly(nel):
    g = Grid(GridSpec(len(nel), nel, 0.5))
    rng = np.random.default_rng(len(nel))
    e_field = rng.uniform(1e2, 1e6, g.nelem)
    elastic = ElasticAssembler(g, 0.3)
    _assert_same_operator(
        elastic.assemble(e_field),
        _triplet_assembly(g, [elastic.ke], [e_field], g.edof_u, g.edof_u),
    )
    flow = FlowAssembler(g)
    system = flow.assemble(rng.uniform(0.0, 1.0, g.nelem), FlowParams(P_in=5e4))
    _assert_same_operator(
        system.A,
        _triplet_assembly(g, [flow.ke, flow.me], [system.k_elem, system.d_elem],
                          g.conn, g.conn),
    )
    te = shapefn.coupling_matrix(g.dim, g.h)
    t = coupling_matrix(g)  # an element sum in 3-D, assembled here
    _assert_same_operator(
        t.assemble() if g.matrix_free else t,
        _triplet_assembly(g, [te], [np.ones(g.nelem)], g.edof_u, g.conn),
    )


@pytest.mark.parametrize("nel", [(2, 2, 2), (5, 3, 3), (7, 5, 4)])
def test_3d_coupling_products_equal_the_assembled_t(nel):
    # T and Tᵀ, multiplied element by element, as T assembled gives them
    g = Grid(GridSpec(3, nel, 0.5))
    t = coupling_matrix(g)
    assert isinstance(t, ElementSum) and t.T.shape == (g.nnodes, g.n_disp_dofs)
    ref = t.assemble()
    rng = np.random.default_rng(g.nelem)
    p, y = rng.normal(size=g.nnodes), rng.normal(size=g.n_disp_dofs)
    for product, expected in ((t @ p, ref @ p), (t.T @ y, ref.T @ y)):
        assert np.abs(product - expected).max() <= 1e-15 * np.abs(expected).max()
    first = t @ p
    t.T @ y  # swaps the buffers T keeps, which ``first`` does not share
    assert np.array_equal(first, t @ p)
    # the two are each other's adjoint, to rounding
    assert y @ (t @ p) == pytest.approx((t.T @ y) @ p, rel=1e-13)


def test_stencil_slots_locate_entries():
    g = Grid(GridSpec(3, (3, 2, 2), 1.0))
    op = ElasticAssembler(g, 0.3).op
    k = op.assemble(np.arange(1.0, g.nelem + 1))
    coo = k.tocoo()
    pick = np.random.default_rng(0).choice(coo.nnz, 50, replace=False)
    slots = pattern_slots(op.indptr, op.indices, coo.row[pick], coo.col[pick])
    assert np.array_equal(k.data[slots], coo.data[pick])


def _bincount_product(op, coef, x, transpose=False):
    """``A x``, or ``Aᵀ x``, for the ``StencilOperator`` ``op`` of one
    template and the coefficients ``coef``, in one piece, element-major:
    every element's entries of ``x`` at its column DOFs (row DOFs for
    ``Aᵀ``), one GEMM with the template, and one weighted ``bincount``
    onto its row DOFs (column DOFs)."""
    rows, cols = (op.grid.conn if c == 1 else op.grid.edof_u for c in op.comps)
    template = op.templates[0].T  # x_e @ Kᵀ = (K x_e)ᵀ
    if transpose:
        rows, cols, template = cols, rows, op.templates[0]
    products = np.take(x, cols) @ template
    products *= coef[:, None]
    return np.bincount(rows.ravel(), weights=products.ravel(),
                       minlength=op.shape[1 if transpose else 0])


def _bincount_diagonal(op, coef, edof, n):
    """The diagonal of the operator of ``coef`` on the DOFs ``edof`` (``n``
    for a fixed one): one ``bincount`` of ``c_e diag(K)``."""
    weights = coef[:, None] * np.diagonal(op.templates[0])
    return np.bincount(edof.ravel(), weights=weights.ravel(), minlength=n + 1)[:-1]


# (grid, ELEMENT_CHUNK): 81, 18, 99 and 180 elements leave a last chunk of
# k = 1, 2, 3 and 4 (mod 8) columns, padded; 72 fill one chunk
@pytest.mark.parametrize("nel, chunk", [((9, 3, 3), 16), ((3, 3, 2), 8), ((11, 3, 3), 16),
                                        ((9, 5, 4), 16), ((6, 4, 3), None)])
def test_element_products_are_the_bincount_products_bit_for_bit(monkeypatch, nel, chunk):
    if chunk is not None:
        monkeypatch.setattr(grid_mod, "ELEMENT_CHUNK", chunk)
    g = Grid(GridSpec(3, nel, 1e-3))
    rng = np.random.default_rng(g.nelem)
    k = StencilOperator(g, shapefn.stiffness_matrix(3, g.h, 0.3), 3, 3, matrix_free=True)
    t = coupling_matrix(g)
    e, u = rng.uniform(1e2, 1e8, g.nelem), rng.standard_normal(g.n_disp_dofs)
    p, y = rng.standard_normal(g.nnodes), rng.standard_normal(g.n_disp_dofs)
    assert np.array_equal(ElementSum(k, e) @ u, _bincount_product(k, e, u))
    assert np.array_equal(t @ p, _bincount_product(t.op, t.coef, p))
    assert np.array_equal(t.T @ y, _bincount_product(t.op, t.coef, y, transpose=True))
    diagonal = _bincount_diagonal(k, e, g.edof_u, g.n_disp_dofs)
    assert np.array_equal(k.kernel().diagonal(e), diagonal)
    # a map of the free DOFs, x = 0 clamped: the fixed ones read zero
    free = np.flatnonzero(np.repeat(g.coords[:, 0] > 0.0, 3))
    to_free = np.full(g.n_disp_dofs + 1, free.size)
    to_free[free] = np.arange(free.size)
    edof = to_free[g.edof_u]
    free_map = ElementMap(edof, free.size)
    block = ElementProduct(k.templates, free_map, free_map)
    assert np.array_equal(block.diagonal(e), diagonal[free])
    x = np.zeros(g.n_disp_dofs)
    x[free] = u[free]
    assert np.array_equal(block.bind(e) @ u[free], _bincount_product(k, e, x)[free])
    # K u and T p share the rows' products, K u and Tᵀ y the gather map
    assert k.kernel().products is t.op.kernel().products
    assert k.kernel().cols is t.op.kernel(transpose=True).cols
    widths = [min(chunk or g.nelem, g.nelem - s) for s in range(0, g.nelem, chunk or g.nelem)]
    widths[-1] = -(-widths[-1] // 8) * 8
    assert [dofs.shape[1] for dofs in g.element_map(1).blocks] == widths


def test_stencil_operators_hold_no_product_buffers():
    # T and Tᵀ multiply through kernels whose buffers the grid's shared
    # element maps hold, built at their first use
    g = Grid(GridSpec(3, (4, 3, 3), 1e-3))
    t = coupling_matrix(g)
    assert t.op._kernels == {}
    t @ np.ones(g.nnodes), t.T @ np.ones(g.n_disp_dofs)
    held = [name for name, value in vars(t.op).items() if isinstance(value, np.ndarray)]
    assert held == ["templates"] and not hasattr(t.op, "product")
    forward, transpose = t.op.kernel(), t.op.kernel(transpose=True)
    assert forward.products is g.element_map(3).products
    assert transpose.products is g.element_map(1).products

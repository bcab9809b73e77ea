"""Grid construction, region selection, filter-neighborhood and stencil
operator tests."""
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from pneumotop import shapefn
from pneumotop.darcy import FlowAssembler, coupling_matrix
from pneumotop.elasticity import ElasticAssembler
from pneumotop.errors import ConfigError
from pneumotop.grid import (
    BoundaryRegion,
    GridSpec,
    build_grid,
    filter_neighborhoods,
    pattern_slots,
    select_region,
)
from pneumotop.materials import FlowParams

from gridindex import elem_index, node_index


def test_3d_counts():
    g = build_grid(GridSpec(3, (2, 2, 2), 1.0))
    assert g.nnodes == 27
    assert g.nelem == 8


def test_2d_counts():
    g = build_grid(GridSpec(2, (3, 2), 1.0))
    assert g.nnodes == 12
    assert g.nelem == 6


def test_unit_element_volume():
    g = build_grid(GridSpec(2, (1, 1), 1.0))
    assert g.element_volume == 1.0


def test_dof_index_overflow_rejected():
    with pytest.raises(ConfigError, match="index space"):
        GridSpec(3, (2000, 2000, 2000), 1e-3)


def test_scatter_index_overflow_rejected():
    # 4.1 M elements times the 576 entries of a hexahedral stiffness pass
    # 2**31, while the 12.5 M displacement DOFs do not
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="2359296000 stiffness scatter entries"):
            GridSpec(3, (160, 160, 160), 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # rejected before anything grid-sized is allocated
    GridSpec(3, (155, 155, 155), 1e-3)  # 3.72 M elements still fit


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
    g = build_grid(GridSpec(3, (3, 2, 4), 0.5))
    # node -> ijk -> node round trip is the identity
    for node in range(g.nnodes):
        assert node_index(g, g.node_ijk[node]) == node
    # the element DOF map numbers component c of node n as 3 n + c, and
    # together the elements cover every displacement DOF
    edof = g.edof_u.reshape(g.nelem, g.nen, 3)
    assert np.array_equal(edof, 3 * g.conn[:, :, None] + np.arange(3))
    assert np.array_equal(np.unique(g.edof_u), np.arange(g.n_disp_dofs))


def test_connectivity_coords():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    # first element corners: (0,0), (1,0), (1,1), (0,1)
    assert np.allclose(
        g.coords[g.conn[0]], [[0, 0], [1, 0], [1, 1], [0, 1]]
    )


def test_select_x0_plane_of_2x2x2():
    g = build_grid(GridSpec(3, (2, 2, 2), 1.0))
    sel = select_region(
        g, BoundaryRegion("fixed_support", ((0, 0, 0), (0, 2, 2)))
    )
    assert sel.nodes.size == 9
    assert all(ax == 0 and side == 0 for _, ax, side in sel.faces)
    assert len(sel.faces) == 4


def test_select_full_domain():
    g = build_grid(GridSpec(3, (2, 2, 2), 1.0))
    sel = select_region(
        g, BoundaryRegion("pressure_drain", ((0, 0, 0), (2, 2, 2)))
    )
    assert sel.nodes.size == 27


def test_select_empty_is_error():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    with pytest.raises(ConfigError, match="offside"):
        select_region(
            g,
            BoundaryRegion("pressure_inlet", ((5.0, 5.0), (6.0, 6.0)), name="offside"),
        )


def test_symmetry_region_infers_normal():
    g = build_grid(GridSpec(2, (4, 4), 1.0))
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
    g = build_grid(GridSpec(2, (5, 5), 1.0))
    neigh = filter_neighborhoods(g, 1.5)
    center = elem_index(g, (2, 2))
    row = neigh.weights.getrow(center)
    assert row.nnz == 9
    assert row[0, center] == pytest.approx(1.5)  # self weight = r_min
    # edge neighbor weight r_min - h, diagonal r_min - sqrt(2) h
    east = elem_index(g, (3, 2))
    diag = elem_index(g, (3, 3))
    assert row[0, east] == pytest.approx(0.5)
    assert row[0, diag] == pytest.approx(1.5 - np.sqrt(2.0))


def test_filter_self_only_at_half_h():
    g = build_grid(GridSpec(2, (4, 4), 1.0))
    neigh = filter_neighborhoods(g, 0.5)
    assert neigh.weights.nnz == g.nelem


def test_filter_corner_has_fewer_neighbors():
    g = build_grid(GridSpec(2, (5, 5), 1.0))
    neigh = filter_neighborhoods(g, 1.5)
    corner = elem_index(g, (0, 0))
    center = elem_index(g, (2, 2))
    assert neigh.weights.getrow(corner).nnz == 4  # self + 2 edges + 1 diagonal
    assert neigh.weights.getrow(corner).nnz < neigh.weights.getrow(center).nnz


def test_filter_rows_normalized_and_symmetric():
    g = build_grid(GridSpec(3, (4, 3, 2), 0.7))
    neigh = filter_neighborhoods(g, 1.6 * 0.7)
    rows = np.asarray(neigh.normalized.sum(axis=1)).ravel()
    assert np.abs(rows - 1.0).max() < 1e-12
    asym = (neigh.weights - neigh.weights.T)
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
    g = build_grid(GridSpec(len(nel), nel, h))
    neigh = filter_neighborhoods(g, r_min)
    ref = _loop_filter_weights(g, r_min)
    assert np.array_equal(neigh.weights.indptr, ref.indptr)
    assert np.array_equal(neigh.weights.indices, ref.indices)
    assert np.array_equal(neigh.weights.data, ref.data)
    norm_ref = sparse.diags(1.0 / np.asarray(ref.sum(axis=1)).ravel()) @ ref
    assert abs(neigh.normalized - norm_ref).max() == 0.0


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
    g = build_grid(GridSpec(len(nel), nel, 0.5))
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
    _assert_same_operator(
        coupling_matrix(g), _triplet_assembly(g, [te], [np.ones(g.nelem)], g.edof_u, g.conn)
    )


def test_stencil_slots_locate_entries():
    g = build_grid(GridSpec(3, (3, 2, 2), 1.0))
    op = ElasticAssembler(g, 0.3).op
    k = op.assemble(np.arange(1.0, g.nelem + 1))
    coo = k.tocoo()
    pick = np.random.default_rng(0).choice(coo.nnz, 50, replace=False)
    slots = pattern_slots(op.indptr, op.indices, coo.row[pick], coo.col[pick])
    assert np.array_equal(k.data[slots], coo.data[pick])

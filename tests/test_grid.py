"""Grid construction, region selection, and filter-neighborhood tests."""
import numpy as np
import pytest

from pneumotop.errors import ConfigError
from pneumotop.grid import (
    BoundaryRegion,
    GridSpec,
    build_grid,
    filter_neighborhoods,
    select_region,
)

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


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError):
        GridSpec(2, (0, 3), 1.0)
    with pytest.raises(ConfigError):
        GridSpec(2, (2, 2), 0.0)
    with pytest.raises(ConfigError):
        GridSpec(4, (2, 2, 2, 2), 1.0)


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

"""Element and node ids from integer lattice coordinates (x fastest), for
tests that pick out one element or node of a grid."""
import numpy as np


def node_index(grid, ijk) -> int:
    """Node id of lattice point ``ijk`` (inverse of ``grid.node_ijk``)."""
    return int(np.ravel_multi_index(tuple(ijk), grid.nnod_axis, order="F"))


def elem_index(grid, ijk) -> int:
    """Element id of lattice cell ``ijk`` (inverse of ``grid.elem_ijk``)."""
    return int(np.ravel_multi_index(tuple(ijk), grid.nel_axis, order="F"))

"""Dense lattice operators built from site coordinates alone.

The program applies every operator as a stencil and assembles its dense
matrix by applying that stencil to the identity, so comparing the two checks
nothing.  This reference knows no grid layout: two sites of a region are
coupled exactly when their torus distance is 1.
"""

import numpy as np

from gplattice.disorder import whole_torus
from gplattice.lattice import torus_distances


def adjacency(geom, sites) -> np.ndarray:
    """1.0 where two of ``sites`` lie at torus distance 1, else 0.0."""
    return np.array([torus_distances(geom, s)[sites] == 1 for s in sites], dtype=float)


def reference_matrix(realization, region=None) -> np.ndarray:
    """-Delta + V on ``region`` (default: the torus) under its boundary condition.

    Periodic and Dirichlet keep the diagonal 2d + V; Neumann has the count of
    in-region neighbours + V.
    """
    geom = realization.geom
    region = whole_torus(geom) if region is None else region
    sites = region.site_indices(geom)
    adj = adjacency(geom, sites)
    kinetic = adj.sum(axis=1) if region.bc == "neumann" else 2.0 * geom.dim
    return np.diag(kinetic + realization.potential[sites]) - adj

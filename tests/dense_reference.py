"""Full dense diagonalization: the independent check for the iterative solver.

``lowest_eigenpairs`` filters a block and never forms a matrix; this oracle
assembles the operator with ``dense_matrix`` and diagonalizes it whole with
``np.linalg.eigh``, so the two share only the stencil.
"""

import numpy as np

from gplattice.spectral import DENSE_LIMIT, EigenSolution, dense_matrix


def dense_oracle(op) -> EigenSolution:
    """Every eigenpair of ``op``, ascending, with their residuals."""
    n = op.n_sites
    if n > DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_LIMIT} sites, got {n}")
    mat = dense_matrix(op)
    vals, vecs = np.linalg.eigh(mat)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    return EigenSolution(
        values=vals, vectors=vecs, residuals=res, iterations=0, single_applies=0
    )

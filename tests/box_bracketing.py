"""Neumann / periodic / Dirichlet bracketing of the periodic ground energy.

A box partition cuts each axis into intervals with side lengths between l/2
and 2l.  Dropping the couplings that leave a box can only lower the
quadratic form on the Neumann side, while zero-extending a box ground state
gives the Dirichlet upper bound, so over any partition

    min Neumann box energy <= periodic energy <= min Dirichlet box energy.

No experiment runs this; the tests check that ordering with it.
"""

import itertools
import math
from dataclasses import replace

from gplattice import Region, lowest_eigenpairs, periodic_hamiltonian, restrict_hamiltonian


def split_axis(side: int, half: int, box_side: int) -> list[tuple[int, int]]:
    """Cut one axis of length 2L+1 into intervals with sides in [l/2, 2l]."""
    if not 1 <= box_side <= side:
        raise ValueError(f"box side must lie in [1, {side}], got {box_side}")
    if box_side == side:
        return [(-half, side)]
    pieces_hi = max(1, (2 * half) // box_side)
    pieces_lo = -(-side // (2 * box_side))  # ceil
    pieces = min(max(round(side / box_side), pieces_lo), pieces_hi)
    base, extra = divmod(side, pieces)
    lengths = [base + 1] * extra + [base] * (pieces - extra)
    out = []
    start = -half
    for length in lengths:
        out.append((start, length))
        start += length
    return out


def partition_into_boxes(geom, box_side: int, bc: str = "dirichlet") -> list[Region]:
    """Disjoint cover of the torus by boxes with sides between l/2 and 2l."""
    axis_cuts = split_axis(geom.side, geom.half_side, box_side)
    for _, length in axis_cuts:
        if not (box_side / 2 <= length <= 2 * box_side) and box_side != geom.side:
            raise AssertionError(
                f"axis cut of length {length} escapes [{box_side / 2}, {2 * box_side}]"
            )
    return [
        Region(intervals=combo, bc=bc)
        for combo in itertools.product(axis_cuts, repeat=geom.dim)
    ]


def bracket_ground_energy(
    realization, box_side: int, tol: float = 1e-10, seed=0
) -> tuple[float, float, float]:
    """(min Neumann, periodic, min Dirichlet) ground energies for one sample."""
    ham = periodic_hamiltonian(realization)
    e_per = lowest_eigenpairs(ham, 1, tol=tol, seed=seed).values[0]
    e_neu = math.inf
    e_dir = math.inf
    for region in partition_into_boxes(realization.geom, box_side):
        dir_op = restrict_hamiltonian(realization, replace(region, bc="dirichlet"))
        neu_op = restrict_hamiltonian(realization, replace(region, bc="neumann"))
        e_dir = min(e_dir, float(lowest_eigenpairs(dir_op, 1, tol=tol, seed=seed).values[0]))
        e_neu = min(e_neu, float(lowest_eigenpairs(neu_op, 1, tol=tol, seed=seed).values[0]))
    return e_neu, float(e_per), e_dir

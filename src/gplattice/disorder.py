"""Random on-site potentials and sub-box restrictions of the Hamiltonian.

The potential is iid per site, uniform on [0, v_max], the one law the
experiments use.  Sampling is counter-based: every (master seed, L index,
sample index, channel) tuple keys its own Philox stream, so realizations are
reproducible bit for bit and independent of worker scheduling.  Channels
separate the independent random inputs of one sample (potential, eigensolver
start block, ...).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGeometry, bind_stencil
from .spectral import HamiltonianOperator

BOUNDARY_CONDITIONS = ("dirichlet", "neumann")

# channel ids for the per-sample random streams; they key the provenance
# streams, so an id that falls out of use is not given to another channel
POTENTIAL_CHANNEL = 0
EIG_CHANNEL = 1
FIELD_CHANNEL = 3
BOX_CHANNEL = 4


def provenance_stream(
    master_seed: int, l_index: int, sample_index: int, channel: int
) -> np.random.Generator:
    """Philox generator keyed by the full provenance tuple."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    seq = np.random.SeedSequence(
        master_seed, spawn_key=(l_index, sample_index, channel)
    )
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class DisorderSpec:
    """The iid on-site potential, uniform on [0, v_max], and its master seed."""

    v_max: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.v_max < math.inf:
            raise ValueError(f"v_max must be finite and positive, got {self.v_max}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


@dataclass(frozen=True)
class DisorderRealization:
    """One sampled potential on a torus."""

    geom: LatticeGeometry
    potential: np.ndarray


def sample_potential(
    spec: DisorderSpec,
    geom: LatticeGeometry,
    l_index: int = 0,
    sample_index: int = 0,
    channel: int = POTENTIAL_CHANNEL,
) -> DisorderRealization:
    """Draw the iid potential for one (L index, sample index) slot."""
    rng = provenance_stream(spec.master_seed, l_index, sample_index, channel)
    return DisorderRealization(geom, spec.v_max * rng.random(geom.n_sites))


@dataclass(frozen=True)
class Region:
    """Axis-aligned box: per-axis (start coordinate, length), Dirichlet or Neumann."""

    intervals: tuple[tuple[int, int], ...]
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {self.bc!r}")
        if not self.intervals:
            raise ValueError("region needs at least one axis interval")
        for start, length in self.intervals:
            if length < 1:
                raise ValueError(f"interval length must be >= 1, got {length}")


@functools.cache
def _neumann_degree(shape: tuple[int, ...], side: int) -> np.ndarray:
    """In-region neighbour count of every site of a box (read-only, shared)."""
    n = math.prod(shape)
    degree = np.zeros(n)
    bind_stencil(shape, side, -np.ones(n), degree)()  # subtracts -1 per neighbour
    degree.setflags(write=False)
    return degree


def restrict_hamiltonian(
    realization: DisorderRealization, region: Region
) -> HamiltonianOperator:
    """Restrict -Delta + V to a box under its Dirichlet or Neumann condition.

    Both restrictions drop the couplings that leave the box, so an axis that
    spans the whole torus keeps its wrap coupling; Dirichlet keeps the
    diagonal 2d + V while Neumann reduces it to the in-box degree + V.

    The box must lie inside the torus without wrapping: each axis's offset
    start + L and length n must satisfy 0 <= offset <= 2L + 1 - n.  The
    box's potential, in row-major order over the box's own axes, is a slice
    of the potential on the torus grid.  The Neumann degree depends only on
    the box's shape and is computed once per (shape, torus side).
    """
    geom = realization.geom
    shape = tuple(length for _, length in region.intervals)
    offsets = tuple(start + geom.half_side for start, _ in region.intervals)
    if len(shape) != geom.dim:
        raise ValueError(f"region is {len(shape)}-dimensional, lattice is {geom.dim}")
    if any(not 0 <= o <= geom.side - n for o, n in zip(offsets, shape)):
        raise ValueError(f"region {region.intervals} does not lie inside the torus")

    grid = realization.potential.reshape(geom.shape)
    pot = grid[tuple(slice(o, o + n) for o, n in zip(offsets, shape))].reshape(-1)
    if region.bc == "neumann":
        kinetic = _neumann_degree(shape, geom.side)
    else:
        kinetic = 2.0 * geom.dim
    return HamiltonianOperator(geom=geom, diag=kinetic + pot, shape=shape)


def periodic_hamiltonian(realization: DisorderRealization) -> HamiltonianOperator:
    """-Delta + V on the full torus."""
    geom = realization.geom
    diag = 2.0 * geom.dim + realization.potential
    return HamiltonianOperator(geom=geom, diag=diag, shape=geom.shape)

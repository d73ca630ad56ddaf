"""Random on-site potentials and sub-box restrictions of the Hamiltonian.

Sampling is counter-based: every (master seed, L index, sample index, channel)
tuple keys its own Philox stream, so realizations are reproducible bit for bit
and independent of worker scheduling.  Channels separate the independent
random inputs of one sample (potential, eigensolver start block, ...).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGeometry, stencil
from .spectral import HamiltonianOperator

DISTRIBUTIONS = ("uniform", "bernoulli", "levels")
BOUNDARY_CONDITIONS = ("periodic", "dirichlet", "neumann")

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
    """Distribution of the iid on-site potential.

    ``uniform`` draws from [0, v_max], ``bernoulli`` puts mass p on v_max and
    1-p on 0, ``levels`` picks uniformly from an explicit list of values in
    [0, v_max].
    """

    distribution: str = "uniform"
    v_max: float = 1.0
    p: float = 0.5
    levels: tuple[float, ...] | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        if not self.v_max > 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.distribution == "levels":
            if not self.levels:
                raise ValueError("levels distribution needs a non-empty level list")
            if any(v < 0 or v > self.v_max for v in self.levels):
                raise ValueError("levels must lie in [0, v_max]")
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
    n = geom.n_sites
    if spec.distribution == "uniform":
        values = spec.v_max * rng.random(n)
    elif spec.distribution == "bernoulli":
        values = spec.v_max * (rng.random(n) < spec.p).astype(float)
    else:
        table = np.asarray(spec.levels, dtype=float)
        values = table[rng.integers(0, table.size, n)]
    return DisorderRealization(geom=geom, potential=values)


@dataclass(frozen=True)
class Region:
    """Axis-aligned box: per-axis (start coordinate, length) plus boundary tag."""

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

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def side_lengths(self) -> tuple[int, ...]:
        return tuple(length for _, length in self.intervals)

    def wraps(self, geom: LatticeGeometry) -> bool:
        """True when some axis interval runs past coordinate +L."""
        return any(
            start + length - 1 > geom.half_side for start, length in self.intervals
        )


def whole_torus(geom: LatticeGeometry, bc: str = "periodic") -> Region:
    return Region(
        intervals=tuple((-geom.half_side, geom.side) for _ in range(geom.dim)),
        bc=bc,
    )


@functools.cache
def _neumann_degree(shape: tuple[int, ...], side: int) -> np.ndarray:
    """In-region neighbour count of every site of a box (read-only, shared)."""
    n = math.prod(shape)
    degree = -stencil(shape, side, np.ones(n), np.zeros(n))
    degree.setflags(write=False)
    return degree


def restrict_hamiltonian(
    realization: DisorderRealization, region: Region
) -> HamiltonianOperator:
    """Restrict -Delta + V to a region under the region's boundary condition.

    Both restrictions drop the couplings that leave the region, so an axis
    that spans the whole torus keeps its wrap coupling; Dirichlet keeps the
    diagonal 2d + V while Neumann reduces it to the in-region degree + V.  A
    periodic "restriction" must cover the whole torus.

    The region's potential, in row-major order over the region's own axes,
    is a slice of the potential on the torus grid; a periodic region at an
    offset rolls that grid per axis, and the whole torus at the origin uses
    the realization's potential as it is.  The Neumann degree depends only
    on the region's shape and is computed once per (shape, torus side).
    """
    geom = realization.geom
    shape = region.side_lengths()
    if region.bc == "periodic":
        if shape != geom.shape:
            raise ValueError("periodic boundary requires the whole torus")
    elif region.wraps(geom):
        raise ValueError("Dirichlet/Neumann regions must not wrap around the torus")
    if region.dim != geom.dim:
        raise ValueError(f"region is {region.dim}-dimensional, lattice is {geom.dim}")
    offsets = tuple(start + geom.half_side for start, _ in region.intervals)
    if any(not 0 <= offset < geom.side for offset in offsets):
        raise ValueError(f"an interval of {region.intervals} starts outside the torus")

    grid = realization.potential.reshape(geom.shape)
    if region.bc != "periodic":
        pot = grid[tuple(slice(o, o + n) for o, n in zip(offsets, shape))].reshape(-1)
    elif any(offsets):
        pot = np.roll(grid, [-o for o in offsets], axis=tuple(range(geom.dim))).reshape(-1)
    else:
        pot = realization.potential
    if region.bc == "neumann":
        diag = _neumann_degree(shape, geom.side) + pot
    else:
        diag = 2.0 * geom.dim + pot

    return HamiltonianOperator(
        geom=geom, diag=diag, shape=shape, potential=pot, bc=region.bc
    )


def periodic_hamiltonian(realization: DisorderRealization) -> HamiltonianOperator:
    """-Delta + V on the full torus."""
    return restrict_hamiltonian(realization, whole_torus(realization.geom))

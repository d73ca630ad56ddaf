"""Lattice quantities built from site coordinates alone.

The program applies every operator as a stencil and assembles its dense
matrix by applying that stencil to the identity, so comparing the two checks
nothing.  This reference knows no grid layout: two sites of a region are
coupled exactly when their torus distance is 1, and plane waves and the
Fourier symbol of -Delta come from the coordinates of ``geom.coords``.
A flat potential shifts that symbol by its constant value.
"""

import numpy as np

from gplattice.disorder import DisorderRealization


def torus_distances(geom, site: int) -> np.ndarray:
    """l1 torus distance from one site to every site."""
    delta = np.abs(geom.coords - geom.coords[site])
    return np.minimum(delta, geom.side - delta).sum(axis=1)


def laplace_symbol(geom) -> np.ndarray:
    """Fourier symbol h(gamma) = 2d - 2 sum_j cos(2 pi gamma_j / (2L+1)) per site."""
    angles = 2.0 * np.pi * geom.coords / geom.side
    return np.sum(2.0 - 2.0 * np.cos(angles), axis=1)


def plane_wave(geom, freq) -> np.ndarray:
    """Unit-norm plane wave e^(2 pi i gamma.x / (2L+1)) for frequency gamma."""
    gamma = np.asarray(freq, dtype=np.int64)
    assert gamma.shape == (geom.dim,), gamma.shape
    phase = 2.0 * np.pi * (geom.coords @ gamma) / geom.side
    return np.exp(1j * phase) / geom.side ** (geom.dim / 2)


def site_indices(region, geom) -> np.ndarray:
    """Flat torus indices of a region's sites, in coordinate order."""
    assert region.dim == geom.dim, (region.dim, geom.dim)
    positions = []
    for start, length in region.intervals:
        assert -geom.half_side <= start <= geom.half_side, start
        coords = np.arange(start, start + length)
        positions.append(np.mod(coords + geom.half_side, geom.side))
    mesh = np.meshgrid(*positions, indexing="ij")
    return np.ravel_multi_index(tuple(mesh), geom.shape).ravel()


def flat_realization(geom, value=0.0):
    """The constant potential ``value`` on the torus."""
    return DisorderRealization(geom, np.full(geom.n_sites, float(value)))


def adjacency(geom, sites) -> np.ndarray:
    """1.0 where two of ``sites`` lie at torus distance 1, else 0.0."""
    return np.array([torus_distances(geom, s)[sites] == 1 for s in sites], dtype=float)


def reference_matrix(realization, region=None) -> np.ndarray:
    """-Delta + V on ``region`` (default: the torus) under its boundary condition.

    The torus and Dirichlet boxes keep the diagonal 2d + V; Neumann has the
    count of in-region neighbours + V.
    """
    geom = realization.geom
    sites = np.arange(geom.n_sites) if region is None else site_indices(region, geom)
    adj = adjacency(geom, sites)
    neumann = region is not None and region.bc == "neumann"
    kinetic = adj.sum(axis=1) if neumann else 2.0 * geom.dim
    return np.diag(kinetic + realization.potential[sites]) - adj

"""Periodic lattice geometry and the discrete Laplacian it carries.

Sites form the cube {-L, ..., L}^d with opposite faces identified, so every
site has exactly 2d neighbours.  Fields are flat numpy arrays indexed site by
site; internally coordinate c sits at axis position c + L and the axes are
raveled in row-major order, which gives a fixed site <-> multi-index
bijection.  Axis-aligned boxes inside the torus use the same row-major
layout on their own side lengths, so one stencil serves the torus and every
box.

The negative Laplacian acts as (-Delta u)(x) = 2d u(x) - sum_{y ~ x} u(y).
Plane waves diagonalize it: the frequency gamma in {-L, ..., L}^d has symbol

    h(gamma) = 2d - 2 sum_j cos(2 pi gamma_j / (2L+1)),

which lies in [0, 4d].  The discrete Fourier transform used here carries the
unitary normalization (2L+1)^(-d/2), so Parseval holds exactly and
<-Delta u, u> = sum_gamma h(gamma) |u_hat(gamma)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class LatticeGeometry:
    """Torus geometry: dimensions and site coordinates."""

    dim: int
    half_side: int
    side: int
    n_sites: int
    coords: np.ndarray      # (n_sites, dim) int, each coordinate in [-L, L]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dim

    def site_index(self, coord) -> int:
        """Flat index of a site given its coordinate tuple (wraps mod the torus)."""
        pos = np.mod(np.asarray(coord, dtype=np.int64) + self.half_side, self.side)
        if pos.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got {pos.shape}")
        return int(np.ravel_multi_index(tuple(pos), self.shape))

    def coordinate(self, index: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self.coords[index])


def build_lattice(dim: int, half_side: int) -> LatticeGeometry:
    """Construct the periodic torus {-L..L}^d."""
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"dim must be one of {SUPPORTED_DIMS}, got {dim}")
    if half_side < 1:
        raise ValueError(f"half_side must be >= 1, got {half_side}")
    side = 2 * half_side + 1
    shape = (side,) * dim
    n_sites = side**dim

    axes = np.indices(shape).reshape(dim, n_sites)
    coords = (axes.T - half_side).astype(np.int64)
    return LatticeGeometry(
        dim=dim, half_side=half_side, side=side, n_sites=n_sites, coords=coords
    )


def _check_field(geom: LatticeGeometry, field) -> np.ndarray:
    arr = np.asarray(field)
    if arr.shape != (geom.n_sites,):
        raise ValueError(
            f"field must have shape ({geom.n_sites},), got {arr.shape}"
        )
    return arr


def stencil(shape: tuple[int, ...], side: int, diag, field) -> np.ndarray:
    """``diag * u`` minus the sum over each site's neighbours inside a box.

    The box has side lengths ``shape`` on a torus of side ``side``; the whole
    torus is the box of shape ``(side,) * d``.  ``field`` is one flat field
    or a (sites, k) block of them, and ``diag`` a scalar or a per-site array.
    The neighbours are subtracted in place on shifted slices of the grid.  An
    axis as long as the torus side also couples its two end faces; a shorter
    axis drops the couplings that leave the box.
    """
    u = np.ascontiguousarray(field)
    tail = u.shape[1:]
    grid = u.reshape(shape + tail)
    d = np.asarray(diag)
    out = (d.reshape(shape + (1,) * len(tail)) if d.ndim else d) * grid
    for axis, length in enumerate(shape):
        pre = (slice(None),) * axis
        wraps = length == side
        out[pre + (slice(None, -1),)] -= grid[pre + (slice(1, None),)]
        if wraps:
            out[pre + (-1,)] -= grid[pre + (0,)]
        out[pre + (slice(1, None),)] -= grid[pre + (slice(None, -1),)]
        if wraps:
            out[pre + (0,)] -= grid[pre + (-1,)]
    return out.reshape(u.shape)


def apply_neg_laplacian(geom: LatticeGeometry, field) -> np.ndarray:
    """Apply -Delta site-wise: 2d u(x) minus the sum over the 2d neighbours."""
    return stencil(geom.shape, geom.side, 2 * geom.dim, _check_field(geom, field))


def laplace_symbol(geom: LatticeGeometry) -> np.ndarray:
    """Fourier symbol h(gamma) of -Delta on the flat frequency grid."""
    angles = 2.0 * np.pi * geom.coords / geom.side
    return np.sum(2.0 - 2.0 * np.cos(angles), axis=1)


def plane_wave(geom: LatticeGeometry, freq) -> np.ndarray:
    """Unit-norm plane wave e^(2 pi i gamma.x / (2L+1)) for frequency gamma."""
    gamma = np.asarray(freq, dtype=np.int64)
    if gamma.shape != (geom.dim,):
        raise ValueError(f"expected {geom.dim} frequency components, got {gamma.shape}")
    phase = 2.0 * np.pi * (geom.coords @ gamma) / geom.side
    return np.exp(1j * phase) / geom.side ** (geom.dim / 2)


def dft(geom: LatticeGeometry, field) -> np.ndarray:
    """Unitary DFT; the coefficient of frequency gamma sits at site index gamma."""
    u = _check_field(geom, field)
    grid = np.fft.ifftshift(u.reshape(geom.shape))
    coeffs = np.fft.fftn(grid) * geom.side ** (-geom.dim / 2)
    return np.fft.fftshift(coeffs).ravel()


def idft(geom: LatticeGeometry, coeffs) -> np.ndarray:
    """Inverse of :func:`dft` (unitary normalization)."""
    c = _check_field(geom, coeffs)
    grid = np.fft.ifftn(np.fft.ifftshift(c.reshape(geom.shape)))
    return np.fft.fftshift(grid * geom.side ** (geom.dim / 2)).ravel()


def dirichlet_energy(geom: LatticeGeometry, field) -> float:
    """Quadratic form <-Delta u, u>; zero exactly on constants."""
    u = _check_field(geom, field)
    v = apply_neg_laplacian(geom, u)
    return float(np.real(np.vdot(u, v)))


def coordinate_norms(geom: LatticeGeometry) -> np.ndarray:
    """Euclidean norm |gamma| of every coordinate tuple (no torus wrapping)."""
    return np.sqrt((geom.coords.astype(float) ** 2).sum(axis=1))


def torus_distances(geom: LatticeGeometry, site: int) -> np.ndarray:
    """l1 torus distance from one site to every site."""
    delta = np.abs(geom.coords - geom.coords[site])
    return np.minimum(delta, geom.side - delta).sum(axis=1)


def torus_distance(geom: LatticeGeometry, a: int, b: int) -> int:
    """l1 torus distance between two sites."""
    delta = np.abs(geom.coords[a] - geom.coords[b])
    return int(np.minimum(delta, geom.side - delta).sum())

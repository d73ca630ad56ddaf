"""Periodic lattice geometry and the discrete Laplacian it carries.

Sites form the cube {-L, ..., L}^d with opposite faces identified, so every
site has exactly 2d neighbours.  Fields are flat numpy arrays indexed site by
site; internally coordinate c sits at axis position c + L and the axes are
raveled in row-major order, which gives a fixed site <-> multi-index
bijection.  Axis-aligned boxes inside the torus use the same row-major
layout on their own side lengths, so one stencil serves the torus and every
box.  The stencil works on the flat field: along an axis of flat stride s
the neighbours are the field shifted by +-s, and only the sites on a row
end of that axis need a correction.  A block of k fields is held
site-major, the k values of one site adjacent, so the stencil sees it as
one flat field with k trailing entries per site: each shift is one
contiguous pass over the whole block, and the leading axis has no row
ends inside the block.

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


def stencil(shape: tuple[int, ...], side: int, field, out: np.ndarray) -> np.ndarray:
    """Subtract from ``out``, in place, the sum over each site's neighbours of ``field``.

    The box has side lengths ``shape`` on a torus of side ``side``; the whole
    torus is the box of shape ``(side,) * d``.  ``field`` is read in C order
    as one flat field of k * sites entries, k uncoupled entries per site,
    trailing: one field (k = 1) or a (sites, k) block of k fields held
    site-major.  ``out`` is a C-contiguous array of the same shape,
    returned.  Per axis of flat stride ``s`` the neighbours are two shifts
    of the whole flat block by ``s``.  The leading axis spans the block,
    so only its end faces need a fix-up; on an inner axis's (-1, length, s)
    view, whose rows run along the axis, the couplings the shifts made
    across a row end are added back.  An axis as long as the torus side
    also couples its two end faces; a shorter axis drops the couplings
    that leave the box.
    """
    u = np.ascontiguousarray(field)
    if out.shape != u.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape {u.shape}")
    flat, acc = u.reshape(-1), out.reshape(-1)
    stride = u.size
    for length in shape:
        stride //= length
        acc[:-stride] -= flat[stride:]
        acc[stride:] -= flat[:-stride]
        if stride * length == flat.size:
            # the leading axis is one row: its faces are the ends, single
            # sites of a single field in d = 1, where scalar updates skip
            # the ufunc cost
            if length == side and stride == 1:
                acc[-1] -= flat[0]
                acc[0] -= flat[-1]
            elif length == side:
                acc[-stride:] -= flat[:stride]
                acc[:stride] -= flat[-stride:]
            continue
        grid = flat.reshape(-1, length, stride)
        faces = acc.reshape(grid.shape)
        faces[:-1, -1] += grid[1:, 0]
        faces[1:, 0] += grid[:-1, -1]
        if length == side:
            faces[:, -1] -= grid[:, 0]
            faces[:, 0] -= grid[:, -1]
    return out


def apply_neg_laplacian(geom: LatticeGeometry, field) -> np.ndarray:
    """Apply -Delta site-wise: 2d u(x) minus the sum over the 2d neighbours."""
    u = np.ascontiguousarray(_check_field(geom, field))
    return stencil(geom.shape, geom.side, u, 2 * geom.dim * u)


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


def torus_distance(geom: LatticeGeometry, a: int, b: int) -> int:
    """l1 torus distance between two sites."""
    delta = np.abs(geom.coords[a] - geom.coords[b])
    return int(np.minimum(delta, geom.side - delta).sum())

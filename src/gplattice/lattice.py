"""Periodic lattice geometry and the discrete Laplacian it carries.

Sites form the cube {-L, ..., L}^d with opposite faces identified, so every
site has exactly 2d neighbours.  A geometry is the pair (d, L) alone: the
side 2L+1, the site count, the grid shape and every site's coordinates are
derived from it, so two geometries of one (d, L) are equal.  Fields are flat
numpy arrays indexed site by site; internally coordinate c sits at axis
position c + L and the axes are raveled in row-major order, which gives a
fixed site <-> multi-index bijection.  Axis-aligned boxes inside the torus
use the same row-major layout on their own side lengths, so one stencil
serves the torus and every box.  The stencil works on the flat field: along
an axis of flat stride s the neighbours are the field shifted by +-s, and
only the sites on a row end of that axis need a correction.  A block of k
fields is held site-major, the k values of one site adjacent, so the stencil
sees it as one flat field with k trailing entries per site: each shift is
one contiguous pass over the whole block, and the leading axis has no row
ends inside the block.  :func:`bind_stencil` binds the stencil to a pair of
buffers once, for a solver that applies it again and again to the same
pair, and :func:`bind_padded_stencil` binds it to a pair of blocks padded
with ghost sites.

The negative Laplacian acts as (-Delta u)(x) = 2d u(x) - sum_{y ~ x} u(y).
Plane waves diagonalize it: the frequency gamma in {-L, ..., L}^d has symbol

    h(gamma) = 2d - 2 sum_j cos(2 pi gamma_j / (2L+1)),

which lies in [0, 4d].  The discrete Fourier transform used here carries the
unitary normalization (2L+1)^(-d/2), so Parseval holds exactly and
<-Delta u, u> = sum_gamma h(gamma) |u_hat(gamma)|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class LatticeGeometry:
    """Torus {-L..L}^d: the dimension d and the half side L, nothing derived."""

    dim: int
    half_side: int

    @property
    def side(self) -> int:
        return 2 * self.half_side + 1

    @property
    def n_sites(self) -> int:
        return self.side**self.dim

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
        """Coordinate tuple of a site, each entry in [-L, L]."""
        return tuple(int(p) - self.half_side for p in np.unravel_index(index, self.shape))


def build_lattice(dim: int, half_side: int) -> LatticeGeometry:
    """Construct the periodic torus {-L..L}^d."""
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"dim must be one of {SUPPORTED_DIMS}, got {dim}")
    if half_side < 1:
        raise ValueError(f"half_side must be >= 1, got {half_side}")
    return LatticeGeometry(dim=dim, half_side=half_side)


def _check_field(geom: LatticeGeometry, field) -> np.ndarray:
    arr = np.asarray(field)
    if arr.shape != (geom.n_sites,):
        raise ValueError(
            f"field must have shape ({geom.n_sites},), got {arr.shape}"
        )
    return arr


def _axis_updates(flat, acc, length: int, stride: int, periodic: bool) -> list:
    """The updates that subtract the neighbours along one axis of ``flat`` from ``acc``.

    The axis has ``length`` sites of flat stride ``stride``.  Two shifts of
    the whole flat block by ``stride`` subtract the neighbours.  On the
    axis's (-1, length, stride) view, whose rows run along the axis, the
    couplings the shifts made across a row end are added back; an axis that
    spans the block in one row has none.  A ``periodic`` axis also couples
    its two end faces, in one update of the [first, last] face pair from the
    [last, first] pair; on any other axis the couplings that leave the box
    are dropped.
    """
    updates = [
        (acc[:-stride], flat[stride:], np.subtract),
        (acc[stride:], flat[:-stride], np.subtract),
    ]
    grid = flat.reshape(-1, length, stride)
    faces = acc.reshape(grid.shape)
    if grid.shape[0] > 1:
        updates += [
            (faces[:-1, -1], grid[1:, 0], np.add),
            (faces[1:, 0], grid[:-1, -1], np.add),
        ]
    if periodic:
        updates.append((faces[:, :: length - 1], grid[:, :: 1 - length], np.subtract))
    return updates


def _applied(updates: list):
    """A call that applies ``updates`` in order, each ``ufunc(target, source)`` in place.

    The output is passed positionally, ``ufunc(target, source, target)``:
    the same ufunc call as ``out=target``, with less to parse per update.
    """

    def apply() -> None:
        for target, source, ufunc in updates:
            ufunc(target, source, target)

    return apply


def _check_pair(field: np.ndarray, out: np.ndarray) -> None:
    if field.shape != out.shape or not (field.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError(
            f"field and out must be C-contiguous of one shape, got {field.shape}, {out.shape}"
        )


def bind_stencil(shape: tuple[int, ...], side: int, field: np.ndarray, out: np.ndarray):
    """The stencil of ``field`` into ``out``, bound once: a call subtracts the neighbours.

    The box has side lengths ``shape`` on a torus of side ``side``; the whole
    torus is the box of shape ``(side,) * d``.  ``field`` and ``out`` are
    C-contiguous arrays of one shape, read in C order as one flat field of
    k * sites entries, k uncoupled entries per site, trailing: one field
    (k = 1) or a (sites, k) block of k fields held site-major.  The binding
    is a list of in-place updates, each a view of ``out``, a view of
    ``field`` and a ufunc, so it stays valid while both arrays keep their
    memory: a one-shot application fills ``out`` and calls the binding at
    once, and a solver that overwrites the same pair of buffers binds them
    once and calls the binding at every step.  The updates are applied in
    order, axis by axis, each axis's as :func:`_axis_updates` builds them:
    the leading axis spans the block in one row, so it has no row ends, and
    an axis as long as the torus side is periodic.
    """
    _check_pair(field, out)
    flat, acc = field.ravel(), out.ravel()
    updates = []
    stride = flat.size
    for length in shape:
        stride //= length
        updates += _axis_updates(flat, acc, length, stride, length == side)
    return _applied(updates)


def bind_padded_stencil(shape: tuple[int, ...], side: int, field: np.ndarray, out: np.ndarray):
    """:func:`bind_stencil` for a block whose innermost rows end in ghost sites.

    ``field`` and ``out`` are C-contiguous (rows, m + 2, k) arrays: the box
    of side lengths ``shape`` has rows = prod(shape[:-1]) rows of m =
    shape[-1] sites along its innermost axis, held at positions 1..m between
    two ghost sites, k entries per site.  A call first refreshes the ghosts
    of ``field`` with one strided copy: the images of the row's far end
    sites when the innermost axis spans the torus, zeros on a shorter axis.
    The copy and the updates run in one closure, so a call makes no nested
    Python call.
    The innermost axis then needs no correction: the ghosts join its rows
    into one row through the whole flat block, so two shifts of the block by
    k subtract both neighbours of every interior site.  The outer axes then
    take the same per-axis updates as in :func:`bind_stencil`, on the padded
    grid.  Only the interior of ``out`` holds the stencil; its ghosts hold
    finite values of no meaning, which its own next refresh overwrites.
    """
    _check_pair(field, out)
    m = shape[-1]
    if field.ndim != 3 or field.shape[:2] != (math.prod(shape[:-1]), m + 2):
        raise ValueError(
            f"a padded block of shape {shape} is (rows, {m + 2}, k), got {field.shape}"
        )
    flat, acc = field.ravel(), out.ravel()
    k = field.shape[-1]
    # the innermost axis as one row of stride k through the block
    updates = _axis_updates(flat, acc, flat.size // k, k, False)
    stride = flat.size
    for length in shape[:-1]:
        stride //= length
        updates += _axis_updates(flat, acc, length, stride, length == side)
    ghosts = field[:, :: m + 1]
    images = field[:, m:0:1 - m] if m == side else 0

    def apply() -> None:
        ghosts[...] = images
        for target, source, ufunc in updates:
            ufunc(target, source, target)

    return apply


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
    """Quadratic form <-Delta u, u>, (-Delta u)(x) = 2d u(x) - sum_{y ~ x} u(y)."""
    u = _check_field(geom, field)
    v = 2 * geom.dim * u
    # the stencil needs C order; vdot keeps u's strides, which fix its summation order
    bind_stencil(geom.shape, geom.side, np.ascontiguousarray(u), v)()
    return float(np.real(np.vdot(u, v)))


def coordinate_norms(geom: LatticeGeometry) -> np.ndarray:
    """Euclidean norm |gamma| of every coordinate tuple (no torus wrapping)."""
    table = np.indices(geom.shape).reshape(geom.dim, -1) - geom.half_side
    return np.sqrt((table.astype(float) ** 2).sum(axis=0))


def torus_distance(geom: LatticeGeometry, a: int, b: int) -> int:
    """l1 torus distance between two sites."""
    delta = np.abs(np.subtract(geom.coordinate(a), geom.coordinate(b)))
    return int(np.minimum(delta, geom.side - delta).sum())

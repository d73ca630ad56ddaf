"""Matrix-free lattice Hamiltonians and their low-lying spectra.

An operator stores a per-site diagonal (kinetic part plus potential) on the
grid of its region, the torus or a box inside it, and subtracts the
neighbours with :func:`lattice.stencil`: two shifts of the flat field per
axis, corrected at the row ends.  One application costs O(sites * 2d), and
nothing is ever assembled except inside the small-instance dense oracle.

The iterative solver is Chebyshev-filtered subspace iteration (Zhou, Saad,
Tiago & Chelikowsky, J. Comput. Phys. 219, 2006; Zhou & Saad, SIAM J. Matrix
Anal. Appl. 29, 2007): a fixed-degree Chebyshev polynomial of the operator
damps the unwanted upper spectrum of a block, which is then orthonormalized
by one Householder QR and rotated onto its Ritz vectors.  Blocks are held
as (k, sites) arrays, one field per row, so every field is contiguous and
each filter step is a few passes over the flat block.  The block is at
least 2d+3 fields wide so degenerate clusters are captured whole; the free
first excited level has multiplicity 2d, which a single-vector iteration
would silently split.  Residuals of returned pairs are recomputed with a
fresh operator application before the solver accepts them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeGeometry, stencil

DENSE_LIMIT = 4096
# Chebyshev filter degree per outer step; 20-40 all cost within 10%
FILTER_DEGREE = 30
# up to this many sites one Rayleigh-Ritz step on the whole space is cheaper
# than filtering a block (measured crossover: 100-170 sites in d = 1, 2, 3)
WHOLE_SPACE_LIMIT = 120


class OversizeError(ValueError):
    """Instance too large for the dense path."""


class EigenConvergenceError(RuntimeError):
    """Raised when the iteration budget runs out; carries the best solution."""

    def __init__(self, message: str, best: "EigenSolution"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class HamiltonianOperator:
    """(-Delta + V) restricted to a region.

    The operator is a stencil on the region's grid of side lengths
    ``shape``.  An axis as long as the torus side keeps the coupling between
    its end faces; on a shorter axis the couplings that leave the region are
    dropped.  Boundary conventions: periodic and Dirichlet keep the full
    diagonal 2d + V, the Neumann restriction reduces it to the in-region
    degree + V so that the region-constant vector is in the kernel whenever
    V vanishes.
    """

    geom: LatticeGeometry
    diag: np.ndarray        # kinetic diagonal + potential (n,)
    shape: tuple[int, ...]  # the region's side lengths
    potential: np.ndarray   # (n,)
    bc: str

    @property
    def n_sites(self) -> int:
        return int(self.diag.size)

    def apply(self, field: np.ndarray) -> np.ndarray:
        """Apply the operator to one field or to the columns of a block."""
        u = np.asarray(field)
        if u.shape[0] != self.n_sites:
            raise ValueError(
                f"field must have leading dimension {self.n_sites}, got {u.shape}"
            )
        # the stencil takes one field per row; a Fortran-ordered block's
        # transpose already is one, so no copy is made
        rows = np.ascontiguousarray(u.T)
        return stencil(self.shape, self.geom.side, rows, self.diag * rows).T

    def spectral_bound(self) -> float:
        """Upper bound 4d + max V on the spectrum."""
        return 4.0 * self.geom.dim + float(self.potential.max(initial=0.0))


@functools.cache
def _hopping_pattern(shape: tuple[int, ...], side: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions and values of the off-diagonal entries of a region's matrix.

    They are read off the stencil applied to the identity, passed flat with
    its n columns trailing each site, so the stencil sees one field on the
    grid ``shape + (n,)`` whose last axis carries no coupling.  The stencil
    never couples a site to itself, so every entry found is off the
    diagonal.  Both arrays are read-only: every caller shares them.
    """
    n = math.prod(shape)
    hopping = stencil(shape, side, np.eye(n).reshape(-1), np.zeros(n * n))
    positions = np.flatnonzero(hopping)
    values = hopping[positions]
    positions.setflags(write=False)
    values.setflags(write=False)
    return positions, values


def dense_matrix(op: HamiltonianOperator) -> np.ndarray:
    """Assemble the operator as a dense symmetric matrix.

    The off-diagonal entries depend only on the region's shape and the torus
    side; their positions and values are found once per (shape, side) and
    cached, in O(2d n) memory.  Each call scatters them into a fresh zero
    matrix and writes ``op.diag`` on the diagonal, which gives the same
    matrix, bit for bit, as applying the operator to the identity.
    """
    n = op.n_sites
    positions, values = _hopping_pattern(op.shape, op.geom.side)
    mat = np.zeros(n * n)
    mat[positions] = values
    mat[:: n + 1] = op.diag
    return mat.reshape(n, n)


@dataclass(frozen=True)
class EigenSolution:
    """Lowest eigenpairs: ascending values, orthonormal columns, residuals."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int         # operator applications spent
    converged: bool


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its entry sum (or largest entry on ties) is positive."""
    out = vectors.copy(order="K")
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col.sum()
        if abs(pivot) < 1e-8:
            pivot = col[int(np.argmax(np.abs(col)))]
        if pivot < 0:
            out[:, j] = -col
    return out


def _rayleigh_ritz(basis: np.ndarray, image: np.ndarray):
    """Ritz values, vectors and their images for an orthonormal basis of rows."""
    vals, rot = np.linalg.eigh(basis @ image.T)
    return vals, rot.T @ basis, rot.T @ image


def _chebyshev_step(op, shifted, beta, prev, cur, scratch) -> np.ndarray:
    """Overwrite ``prev`` with ``(H - c) cur - beta * prev`` and return it.

    ``shifted`` is ``op.diag - c`` and ``scratch`` a buffer shaped like the
    (k, n) row blocks ``prev`` and ``cur``, so the step allocates nothing.
    """
    prev *= -beta
    np.multiply(shifted, cur, out=scratch)
    prev += scratch
    return stencil(op.shape, op.geom.side, cur, prev)


def _chebyshev_filter(op, rows, image, cut, upper) -> np.ndarray:
    """Degree-``FILTER_DEGREE`` Chebyshev filter damping [cut, upper] on ``rows``.

    ``image`` holds the rows' images under the operator.  In monic form, with
    x = (H - center) / half, W_j = 2 (half / 2)^j T_j(x) obeys W_{j+1} =
    (H - center) W_j - beta_j W_{j-1}, beta_1 = half^2 / 2 and beta_j =
    half^2 / 4 after; two row blocks and one scratch block hold the whole
    recurrence.
    """
    half = (upper - cut) / 2.0
    center = (upper + cut) / 2.0
    shifted = op.diag - center
    prev = rows.copy()
    cur = image - center * prev
    scratch = np.empty_like(cur)
    beta = half * half / 2.0
    for _ in range(FILTER_DEGREE - 1):
        prev, cur = cur, _chebyshev_step(op, shifted, beta, prev, cur, scratch)
        beta = half * half / 4.0
    return cur


def lowest_eigenpairs(
    op: HamiltonianOperator,
    count: int,
    tol: float = 1e-10,
    *,
    seed=0,
    max_applies: int | None = None,
) -> EigenSolution:
    """Lowest ``count`` eigenpairs by Chebyshev-filtered subspace iteration.

    A block of ``max(count + 4, 2d + 3)`` fields is drawn from ``seed``, so
    runs replay bit-exactly; up to ``WHOLE_SPACE_LIMIT`` sites the block
    spans the whole space and one Rayleigh-Ritz step is exact.  The block is
    a (width, n) array, one field per row.  Each outer step applies a
    degree-``FILTER_DEGREE`` Chebyshev filter that damps [largest Ritz
    value, ``op.spectral_bound()``]: each step of its three-term recurrence
    overwrites the oldest iterate in place, so no block is allocated per
    step.  One Householder QR then orthonormalizes the block and a
    Rayleigh-Ritz step rotates it onto its Ritz vectors.  Leading pairs
    whose residual is already <= ``tol`` are locked: the filter skips them,
    so a deep isolated ground state cannot swamp the fields above it in the
    QR.
    Pairs are accepted only after a fresh application confirms every
    residual <= ``tol``; signs are fixed only on the pairs returned.
    ``iterations`` counts applied fields; if the budget (default
    ``max(50 * count * sqrt(n), 40 * FILTER_DEGREE * width)``) would be
    exceeded, :class:`EigenConvergenceError` carries the best pairs found.
    """
    n = op.n_sites
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    width = n if n <= WHOLE_SPACE_LIMIT else min(n, max(count + 4, 2 * op.geom.dim + 3))
    if max_applies is None:
        max_applies = max(int(50 * count * math.sqrt(n)), 40 * FILTER_DEGREE * width)
    upper = op.spectral_bound()

    def apply(rows):
        return op.apply(rows.T).T

    def orthonormal_rows(rows):
        return np.ascontiguousarray(np.linalg.qr(rows.T)[0].T)

    basis = orthonormal_rows(np.random.default_rng(seed).standard_normal((n, width)).T)
    vals, vecs, image = _rayleigh_ritz(basis, apply(basis))
    used = width
    best: EigenSolution | None = None
    while True:
        head = vecs[:count]
        res = np.linalg.norm(image[:count] - vals[:count, None] * head, axis=1)
        if res.max() <= tol:
            # confirm with a fresh application before accepting
            used += count
            res = np.linalg.norm(apply(head) - vals[:count, None] * head, axis=1)
            if res.max() <= tol:
                return EigenSolution(
                    vals[:count].copy(), _fix_signs(head.T), res, used, True
                )
        if best is None or res.max() < best.residuals.max():
            best = EigenSolution(vals[:count].copy(), head.T, res, used, False)
        lock = int(np.argmin(res <= tol))   # leading converged pairs
        # a basis of the whole space is already exact up to round-off
        if width == n or used + FILTER_DEGREE * (width - lock) > max_applies:
            raise EigenConvergenceError(
                f"no convergence after {used} operator applications; "
                f"best residuals {np.array2string(best.residuals, precision=3)}",
                best=replace(best, vectors=_fix_signs(best.vectors)),
            )

        filtered = _chebyshev_filter(op, vecs[lock:], image[lock:], vals[-1], upper)
        # the locked fields lead the QR, so the new ones come out orthogonal
        fresh = orthonormal_rows(np.vstack([vecs[:lock], filtered]))[lock:]
        del filtered    # one block fewer held through the Rayleigh-Ritz step
        vals, vecs, image = _rayleigh_ritz(
            np.vstack([vecs[:lock], fresh]), np.vstack([image[:lock], apply(fresh)])
        )
        used += FILTER_DEGREE * (width - lock)


def dense_oracle(op: HamiltonianOperator) -> EigenSolution:
    """Full dense diagonalization; the independent check for the iterative path."""
    n = op.n_sites
    if n > DENSE_LIMIT:
        raise OversizeError(f"dense oracle limited to {DENSE_LIMIT} sites, got {n}")
    mat = dense_matrix(op)
    vals, vecs = np.linalg.eigh(mat)
    vecs = _fix_signs(vecs)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    return EigenSolution(
        values=vals, vectors=vecs, residuals=res, iterations=0, converged=True
    )

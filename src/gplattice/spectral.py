"""Matrix-free lattice Hamiltonians and their low-lying spectra.

An operator stores a per-site diagonal (kinetic part plus potential) on the
grid of its region, the torus or a box inside it, and subtracts the
neighbours with :func:`lattice.stencil`: two shifts of the flat field per
axis, corrected at the end faces and at the row ends of inner axes.  One
application costs O(sites * 2d), and nothing is ever assembled except
inside the small-instance dense oracle.

The iterative solver is Chebyshev-filtered subspace iteration (Zhou, Saad,
Tiago & Chelikowsky, J. Comput. Phys. 219, 2006; Zhou & Saad, SIAM J. Matrix
Anal. Appl. 29, 2007): a fixed-degree Chebyshev polynomial of the operator
damps the unwanted upper spectrum of a block, which is then orthonormalized
by one Householder QR and rotated onto its Ritz vectors.  Blocks are held
site-major, as C-ordered (sites, k) arrays whose k fields at one site are
adjacent: the stencil takes such a block as one flat field, so no shift
crosses from one field into the next, each filter step is a few passes
over the flat block, and the QR and the Rayleigh-Ritz products take the
block as it is.  The block is at least 2d+3 fields wide so degenerate
clusters are captured whole; the free first excited level has
multiplicity 2d, which a single-vector iteration would silently split.
Residuals of returned pairs are recomputed with a fresh operator
application before the solver accepts them.
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
# than filtering a block, or about as cheap (measured crossover of the
# site-major filter, count = 2, one CPU: 90-100 sites in d = 1, 81-121 in
# d = 2, below 125 in d = 3); moving it would change the records of the
# tori it moves across
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
        u = np.ascontiguousarray(field)
        if u.shape[0] != self.n_sites:
            raise ValueError(
                f"field must have leading dimension {self.n_sites}, got {u.shape}"
            )
        # a C-ordered (n, k) block is site-major: the stencil takes it as one
        # flat field with k trailing entries per site
        diag = self.diag if u.ndim == 1 else self.diag[:, None]
        return stencil(self.shape, self.geom.side, u, diag * u)

    def spectral_bound(self) -> float:
        """Upper bound 4d + max V on the spectrum."""
        return 4.0 * self.geom.dim + float(self.potential.max(initial=0.0))


@functools.cache
def _hopping_pattern(shape: tuple[int, ...], side: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions and values of the off-diagonal entries of a region's matrix.

    They are read off the stencil applied to the identity, a site-major
    block of n fields.  The stencil never couples a site to itself, so every
    entry found is off the diagonal.  Both arrays are read-only: every
    caller shares them.
    """
    n = math.prod(shape)
    hopping = stencil(shape, side, np.eye(n), np.zeros((n, n))).reshape(-1)
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
    """Column-contiguous copy with each column's entry sum (or largest entry on ties) positive."""
    out = np.array(vectors, order="F")
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col.sum()
        if abs(pivot) < 1e-8:
            pivot = col[int(np.argmax(np.abs(col)))]
        if pivot < 0:
            out[:, j] = -col
    return out


def _rayleigh_ritz(basis: np.ndarray, image: np.ndarray):
    """Ritz values, vectors and their images for an orthonormal basis of columns."""
    vals, rot = np.linalg.eigh(basis.T @ image)
    return vals, basis @ rot, image @ rot


def _chebyshev_step(op, shifted, beta, prev, cur, scratch) -> np.ndarray:
    """Overwrite ``prev`` with ``(H - c) cur - beta * prev`` and return it.

    ``prev``, ``cur`` and the buffer ``scratch`` are C-ordered (n, k) blocks,
    and ``shifted`` is ``op.diag - c`` repeated k times per site in the same
    shape, so the step allocates nothing.
    """
    prev *= -beta
    np.multiply(shifted, cur, out=scratch)
    prev += scratch
    return stencil(op.shape, op.geom.side, cur, prev)


def _chebyshev_filter(op, block, image, cut, upper) -> np.ndarray:
    """Degree-``FILTER_DEGREE`` Chebyshev filter damping [cut, upper] on ``block``.

    ``image`` holds the images of the block's columns under the operator.  In
    monic form, with x = (H - center) / half, W_j = 2 (half / 2)^j T_j(x)
    obeys W_{j+1} = (H - center) W_j - beta_j W_{j-1}, beta_1 = half^2 / 2
    and beta_j = half^2 / 4 after; two site-major blocks, one scratch block
    and the diagonal repeated across the block hold the whole recurrence.
    """
    half = (upper - cut) / 2.0
    center = (upper + cut) / 2.0
    prev = block.copy()
    cur = image - center * prev
    shifted = np.repeat(op.diag - center, cur.shape[1]).reshape(cur.shape)
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
    a C-ordered (n, width) array, one field per column, so the fields of one
    site are adjacent.  Each outer step applies a degree-``FILTER_DEGREE``
    Chebyshev filter that damps [largest Ritz value,
    ``op.spectral_bound()``]: each step of its three-term recurrence
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

    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, width)))[0]
    vals, vecs, image = _rayleigh_ritz(basis, op.apply(basis))
    used = width
    best: EigenSolution | None = None
    while True:
        # column-contiguous copies: the residual then runs along whole fields
        head = np.asfortranarray(vecs[:, :count])
        res = np.linalg.norm(np.asfortranarray(image[:, :count]) - head * vals[:count], axis=0)
        if res.max() <= tol:
            # confirm with a fresh application before accepting
            used += count
            res = np.linalg.norm(op.apply(head) - head * vals[:count], axis=0)
            if res.max() <= tol:
                return EigenSolution(vals[:count].copy(), _fix_signs(head), res, used, True)
        if best is None or res.max() < best.residuals.max():
            best = EigenSolution(vals[:count].copy(), head, res, used, False)
        lock = int(np.argmin(res <= tol))   # leading converged pairs
        # a basis of the whole space is already exact up to round-off
        if width == n or used + FILTER_DEGREE * (width - lock) > max_applies:
            raise EigenConvergenceError(
                f"no convergence after {used} operator applications; "
                f"best residuals {np.array2string(best.residuals, precision=3)}",
                best=replace(best, vectors=_fix_signs(best.vectors)),
            )

        filtered = _chebyshev_filter(op, vecs[:, lock:], image[:, lock:], vals[-1], upper)
        if lock:
            # the locked fields lead the QR, so the new ones come out orthogonal
            filtered = np.hstack([vecs[:, :lock], filtered])
        basis = np.linalg.qr(filtered)[0]
        del filtered    # one block fewer held through the Rayleigh-Ritz step
        # the QR returns the locked fields up to sign; keep them and their images
        basis[:, :lock] = vecs[:, :lock]
        image[:, lock:] = op.apply(basis[:, lock:])
        vals, vecs, image = _rayleigh_ritz(basis, image)
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

"""Matrix-free lattice Hamiltonians and their low-lying spectra.

An operator stores a per-site diagonal (kinetic part plus potential) on the
grid of its region, the torus or a box inside it, and subtracts the
neighbours with :func:`lattice.bind_stencil`: two shifts of the flat field
per axis, corrected at the end faces and at the row ends of inner axes.
One application costs O(sites * 2d), and nothing is ever assembled except
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
block as it is.  The filter recurrence rotates two fixed blocks, so it
binds the stencil to them once per filter call, not once per step.  The
block is at least 2d+3 fields wide so degenerate clusters are captured
whole; the free first excited level has multiplicity 2d, which a
single-vector iteration would silently split.
Residuals of returned pairs are recomputed with a fresh operator
application before the solver accepts them.

The filter is the one step that may run in single precision (mixed
precision as in Higham & Mary, Acta Numerica 31, 2022): while the wanted
residuals lie far above float32's resolution, halving the bytes per pass
costs no accuracy the next steps keep.  Each outer step chooses its
precision from the solve's own state alone: float32 while the wanted pairs'
largest residual is above ``SINGLE_RESIDUAL`` times the spectral bound, the
filter's largest gain on [min V, bound] is below ``SINGLE_GAIN``, and every
float32 step so far lowered that residual; once one fails, float64 to the
end.  The QR, the operator applications, the Rayleigh-Ritz steps, the
residuals, the locking and the confirming application stay in float64, so
the contract is unchanged, and a solve that never filters in float32 is the
float64 solve bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGeometry, bind_stencil

DENSE_LIMIT = 4096
# Chebyshev filter degree per outer step; 20-40 all cost within 10%
FILTER_DEGREE = 30
# up to this many sites one Rayleigh-Ritz step on the whole space is cheaper
# than filtering a block, or about as cheap (measured crossover of the
# site-major filter, count = 2, one CPU: 90-100 sites in d = 1, 81-121 in
# d = 2, below 125 in d = 3); moving it would change the records of the
# tori it moves across
WHOLE_SPACE_LIMIT = 120
# the filter runs in float32 while the wanted pairs' largest residual exceeds
# this multiple of the spectral bound; lower, the float32 steps stop helping
# (12 d = 2, L = 32 solves spent on average 7.5 more applications at 2e-6,
# 32.5 at 2e-7 and 655 with the stall guard alone, against none here)
SINGLE_RESIDUAL = 2e-5
# and while its largest gain on the spectrum stays below this, far under
# float32's largest value 3.4e38
SINGLE_GAIN = 1e34


class EigenConvergenceError(RuntimeError):
    """Raised when the iteration budget runs out; names the best residuals."""


@dataclass(frozen=True)
class HamiltonianOperator:
    """(-Delta + V) restricted to a region.

    The operator is a stencil on the region's grid of side lengths
    ``shape``.  An axis as long as the torus side keeps the coupling between
    its end faces; on a shorter axis the couplings that leave the region are
    dropped.  So the operator is periodic exactly when ``shape`` is the
    torus's ``geom.shape``.  Boundary conventions: periodic and Dirichlet
    keep the full diagonal 2d + V, the Neumann restriction reduces it to the
    in-region degree + V so that the region-constant vector is in the kernel
    whenever V vanishes.
    """

    geom: LatticeGeometry
    diag: np.ndarray        # kinetic diagonal + potential (n,)
    shape: tuple[int, ...]  # the region's side lengths
    potential: np.ndarray   # (n,)

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
        out = (self.diag if u.ndim == 1 else self.diag[:, None]) * u
        bind_stencil(self.shape, self.geom.side, u, out)()
        return out

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
    hopping = np.zeros(n * n)
    bind_stencil(shape, side, np.eye(n), hopping.reshape(n, n))()
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
    """Lowest eigenpairs: ascending values, orthonormal columns up to sign, residuals."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int         # operator applications spent
    single_applies: int     # of which filtered in float32


def _rayleigh_ritz(basis: np.ndarray, image: np.ndarray):
    """Ritz values, vectors and their images for an orthonormal basis of columns."""
    vals, rot = np.linalg.eigh(basis.T @ image)
    return vals, basis @ rot, image @ rot


def _chebyshev_filter(op, block, image, cut, upper, dtype) -> np.ndarray:
    """Degree-``FILTER_DEGREE`` Chebyshev filter damping [cut, upper] on ``block``.

    ``image`` holds the images of the block's columns under the operator.  In
    monic form, with x = (H - center) / half, W_j = 2 (half / 2)^j T_j(x)
    obeys W_{j+1} = (H - center) W_j - beta_j W_{j-1}, beta_1 = half^2 / 2
    and beta_j = half^2 / 4 after.  Two site-major blocks, one scratch block
    and the diagonal repeated across the block hold the whole recurrence.
    Each step overwrites the older block with ``(diag - center) * newer -
    beta * older`` minus the newer block's neighbours, so the pair takes
    only two orders, and the stencil is bound once for each.
    The recurrence runs in ``dtype``: the block, W_1 = ``image - center *
    block`` and the shifted diagonal are formed in float64 and rounded to
    ``dtype``, and the filtered block returns in float64.  In float64
    nothing is rounded, so every operation is the double-precision one.
    """
    half = (upper - cut) / 2.0
    center = (upper + cut) / 2.0
    prev = block.astype(dtype, order="C")
    cur = (image - center * block).astype(dtype, copy=False)
    shifted = np.repeat((op.diag - center).astype(dtype, copy=False), cur.shape[1])
    shifted = shifted.reshape(cur.shape)
    scratch = np.empty_like(cur)
    orders = [
        (older, newer, bind_stencil(op.shape, op.geom.side, newer, older))
        for older, newer in ((prev, cur), (cur, prev))
    ]
    beta = dtype(half * half / 2.0)
    for step in range(FILTER_DEGREE - 1):
        older, newer, neighbours = orders[step % 2]
        older *= -beta
        np.multiply(shifted, newer, out=scratch)
        older += scratch
        neighbours()
        beta = dtype(half * half / 4.0)
    return older.astype(np.float64, copy=False)


def _filter_log_gain(cut, upper, low) -> float:
    """Natural log of the filter's largest gain on [low, upper].

    The gain is 2 (half/2)^m T_m((center - low) / half), at ``low``, a lower
    bound on the spectrum below ``cut``; it bounds the filtered block's
    column norms for an orthonormal block, so a float32 filter cannot
    overflow while it stays far below float32's range.  Its logarithm stays
    finite for any potential.
    """
    half = (upper - cut) / 2.0
    z = math.acosh(max(1.0, ((upper + cut) / 2.0 - low) / half))
    m = FILTER_DEGREE
    # 2 (half/2)^m cosh(m z) = (half/2)^m (e^{mz} + e^{-mz})
    return m * math.log(half / 2.0) + m * z + math.log1p(math.exp(-2.0 * m * z))


def lowest_eigenpairs(
    op: HamiltonianOperator, count: int, tol: float = 1e-10, *, seed=0
) -> EigenSolution:
    """Lowest ``count`` eigenpairs by Chebyshev-filtered subspace iteration.

    A block of ``max(count + 4, 2d + 3)`` fields is drawn from ``seed``, so
    runs replay bit-exactly; up to ``WHOLE_SPACE_LIMIT`` sites the block
    spans the whole space and one Rayleigh-Ritz step is exact.  The block is
    a C-ordered (n, width) array, one field per column, so the fields of one
    site are adjacent.  Each outer step applies a degree-``FILTER_DEGREE``
    Chebyshev filter that damps [largest Ritz value,
    ``op.spectral_bound()``]: each step of its three-term recurrence
    overwrites the oldest iterate in place, so no block is allocated and no
    stencil view is taken per step.  One Householder QR then
    orthonormalizes the block and a Rayleigh-Ritz step rotates it onto its
    Ritz vectors.  Leading pairs
    whose residual is already <= ``tol`` are locked: the filter skips them,
    so a deep isolated ground state cannot swamp the fields above it in the
    QR.
    The filter runs in float32 while all of three conditions hold: the
    wanted pairs' largest residual is above ``SINGLE_RESIDUAL *
    op.spectral_bound()``; the filter's gain on [min V, bound] stays below
    ``SINGLE_GAIN`` (-Delta >= 0, so min V bounds the spectrum from below);
    and every float32 step so far lowered that residual.  Once one fails,
    the filter runs in float64 to the end of the solve.  The choice reads
    only the solve's own state, so a solve replays bit-exactly.
    Pairs are accepted only after a fresh application confirms every
    residual <= ``tol``, which must be positive and finite; vectors are
    returned up to sign.
    ``iterations`` counts applied fields, and ``single_applies`` those of
    them filtered in float32; if the budget
    ``max(50 * count * sqrt(n), 40 * FILTER_DEGREE * width)`` would be
    exceeded, :class:`EigenConvergenceError` names the smallest residuals
    found.
    """
    n = op.n_sites
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    width = n if n <= WHOLE_SPACE_LIMIT else min(n, max(count + 4, 2 * op.geom.dim + 3))
    budget = max(int(50 * count * math.sqrt(n)), 40 * FILTER_DEGREE * width)
    upper = op.spectral_bound()
    low = float(op.potential.min())

    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, width)))[0]
    vals, vecs, image = _rayleigh_ritz(basis, op.apply(basis))
    used, single_used = width, 0
    best = None     # residuals of the step whose largest residual is smallest
    single, last = True, math.inf   # float32 filter allowed; the previous largest residual
    while True:
        # column-contiguous copies: the residual, and every caller of the
        # returned head, then run along whole fields
        head = np.asfortranarray(vecs[:, :count])
        res = np.linalg.norm(np.asfortranarray(image[:, :count]) - head * vals[:count], axis=0)
        if res.max() <= tol:
            # confirm with a fresh application before accepting
            used += count
            res = np.linalg.norm(op.apply(head) - head * vals[:count], axis=0)
            if res.max() <= tol:
                return EigenSolution(vals[:count].copy(), head, res, used, single_used)
        if best is None or res.max() < best.max():
            best = res
        lock = int(np.argmin(res <= tol))   # leading converged pairs
        # a basis of the whole space is already exact up to round-off
        if width == n or used + FILTER_DEGREE * (width - lock) > budget:
            raise EigenConvergenceError(
                f"no convergence after {used} operator applications; "
                f"best residuals {np.array2string(best, precision=3)}"
            )

        worst = res.max()
        single = (
            single
            and SINGLE_RESIDUAL * upper < worst < last
            and _filter_log_gain(vals[-1], upper, low) < math.log(SINGLE_GAIN)
        )
        last = worst
        filtered = _chebyshev_filter(
            op, vecs[:, lock:], image[:, lock:], vals[-1], upper,
            np.float32 if single else np.float64,
        )
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
        if single:
            single_used += FILTER_DEGREE * (width - lock)


def dense_oracle(op: HamiltonianOperator) -> EigenSolution:
    """Full dense diagonalization; the independent check for the iterative path."""
    n = op.n_sites
    if n > DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_LIMIT} sites, got {n}")
    mat = dense_matrix(op)
    vals, vecs = np.linalg.eigh(mat)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    return EigenSolution(
        values=vals, vectors=vecs, residuals=res, iterations=0, single_applies=0
    )

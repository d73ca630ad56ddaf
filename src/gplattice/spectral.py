"""Matrix-free lattice Hamiltonians and their low-lying spectra.

An operator stores a per-site diagonal (kinetic part plus potential) on the
grid of its region, the torus or a box inside it, and subtracts the
neighbours with :func:`lattice.bind_stencil`: two shifts of the flat field
per axis, corrected at the end faces and at the row ends of inner axes.
One application costs O(sites * 2d); a matrix is assembled only by
:func:`dense_matrix`, for the full spectra of small tori and boxes.

The iterative solver, :func:`lowest_eigenpairs`, is Chebyshev-filtered
subspace iteration (Zhou, Saad, Tiago & Chelikowsky, J. Comput. Phys. 219,
2006; Zhou & Saad, SIAM J. Matrix Anal. Appl. 29, 2007): a Chebyshev
polynomial of the operator, :func:`_chebyshev_filter`, damps the unwanted
upper spectrum of a block, which is then orthonormalized by one Householder
QR and rotated onto its Ritz vectors.  Each filter call's degree comes from
the convergence the solve has already shown, as in ChASE's degree
optimization (Winkelmann, Springer & Di Napoli, ACM TOMS 45, 2019), and the
filter is the one step that may run in single precision (mixed precision as
in Higham & Mary, Acta Numerica 31, 2022).  Blocks are held site-major, as
C-ordered (sites, k) arrays whose k fields at one site are adjacent: the
stencil takes such a block as one flat field, so no shift crosses from one
field into the next, the filter writes over the block's own columns, and
the QR and the Rayleigh-Ritz products take the block as it is.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGeometry, bind_padded_stencil, bind_stencil

DENSE_LIMIT = 4096
# Chebyshev filter degree of the first outer step and of a step after a
# stall; at a fixed degree, 20-40 all cost within 10%
FILTER_DEGREE = 30
# a call is sized only after one that cut the worst wanted residual by at
# least this factor; a smaller cut is a stall (a block edge inside a
# cluster), where one call's cut does not predict the next: without this
# guard, long calls sized from a chance drop spent the budget of the d = 3,
# L = 2 cluster case on all six seeds
STALL_FACTOR = 10.0
# the largest degree of a sized call
MAX_DEGREE = 150
# the filter runs in float32 while the wanted pairs' largest residual exceeds
# this multiple of the spectral bound; lower, the float32 steps stop helping
# (12 d = 2, L = 32 solves spent on average 7.5 more applications at 2e-6,
# 32.5 at 2e-7 and 655 with the stall guard alone, against none here)
SINGLE_RESIDUAL = 2e-5


class EigenConvergenceError(RuntimeError):
    """Raised when the iteration budget runs out; names the best residuals."""


@dataclass(frozen=True)
class HamiltonianOperator:
    """(-Delta + V) restricted to a region: the region's grid and a diagonal.

    The operator is a stencil on the region's grid of side lengths
    ``shape``.  An axis as long as the torus side keeps the coupling between
    its end faces; on a shorter axis the couplings that leave the region are
    dropped.  So the operator is periodic exactly when ``shape`` is the
    torus's ``geom.shape``.  Boundary conventions: periodic and Dirichlet
    keep the full diagonal 2d + V, the Neumann restriction reduces it to the
    in-region degree + V so that the region-constant vector is in the kernel
    whenever V vanishes.  A shifted operator is ``replace(op, diag=...)``.
    """

    geom: LatticeGeometry
    diag: np.ndarray        # kinetic diagonal + potential (n,)
    shape: tuple[int, ...]  # the region's side lengths

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
        """Gershgorin upper bound: a row has at most 2d entries -1 off the diagonal."""
        return float(self.diag.max()) + 2.0 * self.geom.dim


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
    iterations: int         # applied fields, as lowest_eigenpairs counts them
    single_applies: int     # of which filtered in float32; 0 without a filter step


def _column_norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a real ``r``.

    This is what ``np.linalg.norm(r, axis=0)`` runs for a real array, the
    same sum in the same order, without its checks and dispatch.
    """
    return np.sqrt(np.add.reduce(r * r, axis=0))


def _rayleigh_ritz(basis: np.ndarray, image: np.ndarray):
    """Ritz values, vectors and their images for an orthonormal basis of columns."""
    vals, rot = np.linalg.eigh(basis.T @ image)
    return vals, basis @ rot, image @ rot


class _FilterWorkspace:
    """A solve's filter state: padded page-aligned buffers, a memo of their views, an interval.

    The filter holds its four blocks, the older and newer iterates, the
    shifted diagonal and a scratch block, padded as
    :func:`lattice.bind_padded_stencil` takes them, in every d (a d = 1
    region is one row), so the innermost axis needs two flat shifts and no
    row-end correction (at d = 2, L = 32 with k = 7, a float32 step took
    43 us with the corrections and 32 us with ghosts, a float64 step 61 us
    and 56 us).  ``buffers`` holds the four blocks as rows of bytes, each
    long enough for a padded block of up to ``width`` fields in either
    precision and starting on a page of its own: at offsets that differ
    within a page, a step's loads from one block can wait on its stores to
    another with the same low address bits (in the same setting a float64
    step took 70 us on unaligned rows against 56 us, a float32 one 40 us
    against 32 us).
    ``views(k, dtype)`` returns the four (rows, m + 2, k) views of the
    buffers in ``dtype`` and the two orders of the rotating pair, each an
    (older, newer, stencil) triple whose stencil, bound by
    :func:`lattice.bind_padded_stencil`, subtracts the newer block's
    neighbours from the older one.  It builds them on the first call for a
    (k, dtype) only: the views keep the buffers' memory, so the bindings
    stay valid for every later call of the solve.
    [``low``, ``upper``] is the Gershgorin interval [min diag - 2d, max diag
    + 2d], which holds the spectrum (:meth:`HamiltonianOperator.spectral_bound`).
    """

    def __init__(self, op: HamiltonianOperator, width: int):
        m = op.shape[-1]
        rows = op.n_sites // m
        size = rows * (m + 2) * width * np.dtype(np.float64).itemsize
        row = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
        raw = np.empty(4 * row + mmap.PAGESIZE, np.uint8)
        start = -raw.ctypes.data % mmap.PAGESIZE
        self.op = op
        self.low, self.upper = float(op.diag.min()) - 2.0 * op.geom.dim, op.spectral_bound()
        self.buffers = buffers = raw[start : start + 4 * row].reshape(4, row)

        @functools.cache
        def views(k: int, dtype):
            prev, cur, shifted, scratch = (
                buf.view(dtype)[: rows * (m + 2) * k].reshape(rows, m + 2, k) for buf in buffers
            )
            orders = tuple(
                (older, newer, bind_padded_stencil(op.shape, op.geom.side, newer, older))
                for older, newer in ((prev, cur), (cur, prev))
            )
            return prev, cur, shifted, scratch, orders

        self.views = views


def _chebyshev_filter(work: _FilterWorkspace, block, image, cut, degree, dtype) -> None:
    """Degree-``degree`` Chebyshev filter damping [cut, upper] on ``block``, in ``dtype``.

    ``image`` holds the images of the block's columns under the operator;
    ``work`` is the solve's workspace, whose interval [low, upper] holds
    the spectrum.  In monic form, with x = (H - center) / half, W_j = 2
    (half / 2)^j T_j(x) obeys W_{j+1} = (H - center) W_j - beta_j W_{j-1},
    beta_1 = half^2 / 2 and beta_j = half^2 / 4 after.  The workspace's two
    rotating blocks, its scratch block and the diagonal repeated across the
    block hold the whole recurrence.  Each step overwrites the older block
    with ``(diag - center) * newer - beta * older`` minus the newer block's
    neighbours, so the pair takes only two orders.  A step is three ufunc
    calls with positional outputs and the stencil; the two negated betas
    are ``dtype`` scalars made once per call.
    Any degree >= 1 is exact: degree 1 returns W_1 and runs no step.
    Every call copies the block and W_1 into the interiors, refills the
    shifted diagonal and zeroes every ghost (the first step reads them all
    before the stencil refreshes any), so nothing a previous call left in
    the workspace carries over; the diagonal's ghosts stay zero.  The
    result's interior is written over ``block``.
    The block, W_1 = ``image - center * block`` and the shifted diagonal
    are formed in float64 and rounded to ``dtype``, and the filtered block
    is stored in float64.  In float64 nothing is rounded, so every
    operation is the double-precision one.
    No degree overflows.  On [low, upper] the filter's largest gain |W_j|
    is its value at ``low``; that value obeys the same recurrence, and two
    floats track it.  An entry of W_j on orthonormal columns is at most
    that gain, and |diag - center| plus the 2d neighbours is at most upper
    - low, so no partial result of a step exceeds (upper - low)^2 times the
    larger of the two tracked gains; a ghost holds zero or an image of an
    interior entry once refreshed, and before that a sum of the same terms,
    so the bound holds for it too.  Once the newer gain passes ``dtype``'s
    largest value over 4 (upper - low)^2, both blocks and both gains are
    multiplied by the power of two that takes it into [1/2, 1), as Zhou &
    Saad scale theirs.  That product is exact, so a call that never
    rescales is unchanged bit for bit, and one that does returns the block
    times a power of two, which the solver's QR removes, up to entries far
    below the block's resolution that may underflow.
    """
    half = (work.upper - cut) / 2.0
    center = (work.upper + cut) / 2.0
    n, k = block.shape
    m = work.op.shape[-1]
    rows = n // m
    prev, cur, shifted, scratch, orders = work.views(k, dtype)
    prev[:, 1:-1] = block.reshape(rows, m, k)
    cur[:, 1:-1] = (image - center * block).reshape(rows, m, k)
    shifted[:, 1:-1] = (work.op.diag - center).reshape(rows, m, 1)
    prev[:, :: m + 1] = cur[:, :: m + 1] = shifted[:, :: m + 1] = 0
    limit = float(np.finfo(dtype).max) / (4.0 * (work.upper - work.low) ** 2)
    edge = work.low - center
    gain_prev, gain = 1.0, edge     # W_0 and W_1 at low
    beta, beta_next = half * half / 2.0, half * half / 4.0
    # -beta_1 and -beta_j for j > 1, rounded to dtype
    nbeta, nbeta_next = -dtype(beta), -dtype(beta_next)
    older = cur     # the newest iterate once the loop has run
    for older, newer, neighbours in itertools.islice(itertools.cycle(orders), degree - 1):
        np.multiply(older, nbeta, older)
        np.multiply(shifted, newer, scratch)
        np.add(older, scratch, older)
        neighbours()
        gain_prev, gain = gain, edge * gain - beta * gain_prev
        beta, nbeta = beta_next, nbeta_next
        if abs(gain) > limit:
            scale = 2.0 ** -math.frexp(gain)[1]
            older *= dtype(scale)
            newer *= dtype(scale)
            gain_prev, gain = gain_prev * scale, gain * scale
    # splitting the site axis is a view, so this writes into the caller's block
    block.reshape(rows, m, k)[...] = older[:, 1:-1]


def _filter_degree(worst, last, previous, single, tol, upper) -> int:
    """Degree of a sized filter call, from the solve's own contraction.

    ``last`` and ``worst`` are the wanted pairs' largest residual before and
    after the previous call, of degree ``previous``, which cut it by at
    least ``STALL_FACTOR`` (:func:`lowest_eigenpairs` gives the first call
    and a call after a stall ``FILTER_DEGREE`` instead).  That call's
    contraction per degree sizes this call to take ``worst`` to the target
    of its precision: in float32 ``SINGLE_RESIDUAL * upper``, where float32
    stops (but not below ``tol / 2``), in float64 ``tol / 2``, clipped to
    [1, ``MAX_DEGREE``].  The filter cannot overflow at any degree, so
    nothing else bounds it.
    """
    target = max(SINGLE_RESIDUAL * upper, tol / 2.0) if single else tol / 2.0
    rate = math.log(last / worst) / previous
    needed = math.ceil(math.log(worst / target) / rate)
    return min(MAX_DEGREE, max(1, needed))


def lowest_eigenpairs(
    op: HamiltonianOperator, count: int, tol: float = 1e-10, *, seed=0
) -> EigenSolution:
    """Lowest ``count`` eigenpairs by Chebyshev-filtered subspace iteration.

    A block of ``max(count + 4, 2d + 3)`` fields is drawn from ``seed``, so
    runs replay bit-exactly.  At least 2d + 3 fields hold the ground state
    and the whole free first excited level, of multiplicity 2d, which a
    single-vector iteration would silently split.  A wider cluster can
    still be cut: where the block's edge falls inside a near-degenerate
    cluster, the filter barely damps the first state above the edge and the
    solve can stall (``spectrum`` d = 3, L = 2, count 10 at v_max 0.01: the
    block of 14 ends inside the 12-fold second excited free level, and
    three of six seeds run out of budget).  On a small torus the cut can
    fall inside such a cluster of the free spectrum (in d = 3 at side 3 the
    levels come in groups of 1, 6, 12 and 8), so an operator of at most
    twice the block's width takes a block of all n fields instead and is
    solved exactly by one Rayleigh-Ritz step.  The block is a C-ordered
    (n, width) array, one field per column.
    Each outer step damps [largest Ritz value, ``op.spectral_bound()``] on
    the block with :func:`_chebyshev_filter`, orthonormalizes the block by
    one Householder QR and rotates it onto its Ritz vectors.  All filter
    calls of a solve share one :class:`_FilterWorkspace`; a whole-space
    solve builds none.  The first call, and any call after a stall, has
    degree ``FILTER_DEGREE``; every other call is sized by
    :func:`_filter_degree` from how far the previous call lowered the
    wanted pairs' largest residual, so a solve takes fewer QR and
    Rayleigh-Ritz steps.  A stall is a call that lowered it by less than
    ``STALL_FACTOR``.  The call is then cut to fit the budget.  Leading
    pairs whose residual is already <= ``tol`` are locked: the filter skips
    them, so a deep isolated ground state cannot swamp the fields above it
    in the QR.  A sized float64 call filters only the unlocked wanted fields
    ``[lock, count)``: the width - count extra fields, Zhou & Saad's guard
    vectors, only hold the filter's cut and need not converge, so they
    enter the QR as they are, after the filtered fields (at d = 2, L = 32 a
    float64 step costs about 56 us on 7 fields and 22 us on 2).  The first
    call, a call after a stall and every float32 call filter all of
    ``[lock, width)``.
    While the wanted residuals lie far above float32's resolution, halving
    the filter's bytes per pass costs no accuracy the next steps keep: it
    runs in float32 while the wanted pairs' largest residual is above
    ``SINGLE_RESIDUAL * op.spectral_bound()`` and every float32 step so far
    lowered that residual, and once either fails, in float64 to the end of
    the solve.  The QR, the operator applications, the Rayleigh-Ritz steps,
    the residuals, the locking and the confirming application stay in
    float64, so a solve that never filters in float32 is the float64 solve
    bit for bit.  The degree and the precision read only the solve's own
    residuals, Ritz values and budget, so a solve replays bit-exactly.
    Pairs are accepted only after a fresh application confirms every
    residual <= ``tol``, which must be positive and finite; vectors are
    returned up to sign.
    ``iterations`` counts applied fields: the start block, each filtered
    field once per degree of its call, and the confirming applications (a
    sized float64 call's extra fields are applied once, for their images
    after the QR, and not counted); ``single_applies`` counts those
    filtered in float32.  When the budget ``max(50 * count * sqrt(n), 40 *
    FILTER_DEGREE * width)`` leaves no room for a filter call of degree 1,
    :class:`EigenConvergenceError` names the smallest residuals found.
    """
    n = op.n_sites
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    width = max(count + 4, 2 * op.geom.dim + 3)
    if 2 * width >= n:
        # a cut this high may split a near-degenerate cluster; the whole
        # space is exact
        width = n
    budget = max(int(50 * count * math.sqrt(n)), 40 * FILTER_DEGREE * width)
    upper = op.spectral_bound()
    # a block of all n fields is never filtered
    work = _FilterWorkspace(op, width) if width < n else None

    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, width)))[0]
    vals, vecs, image = _rayleigh_ritz(basis, op.apply(basis))
    used, single_used = width, 0
    # residuals of the step whose largest residual is smallest, and that residual
    best, best_worst = None, math.inf
    single, last = True, math.inf   # float32 filter allowed; the previous largest residual
    degree = FILTER_DEGREE          # of the previous filter call
    while True:
        # column-contiguous copies: the residual, and every caller of the
        # returned head, then run along whole fields
        head = np.asfortranarray(vecs[:, :count])
        res = _column_norms(np.asfortranarray(image[:, :count]) - head * vals[:count])
        worst = res.max()
        if worst <= tol:
            # confirm with a fresh application before accepting
            used += count
            res = _column_norms(op.apply(head) - head * vals[:count])
            worst = res.max()
            if worst <= tol:
                return EigenSolution(vals[:count].copy(), head, res, used, single_used)
        if best is None or worst < best_worst:
            best, best_worst = res, worst
        lock = int(np.argmin(res <= tol))   # leading converged pairs
        single = single and SINGLE_RESIDUAL * upper < worst < last
        # the previous call cut the worst residual by at least STALL_FACTOR
        sized = math.isfinite(last) and worst * STALL_FACTOR <= last
        # a sized float64 call filters only the unlocked wanted fields: the
        # extras only hold the cut and need not converge
        end = count if sized and not single else width
        room = (budget - used) // (end - lock)      # the largest degree left
        # a basis of the whole space is already exact up to round-off
        if width == n or room < 1:
            raise EigenConvergenceError(
                f"no convergence after {used} operator applications; "
                f"best residuals {np.array2string(best, precision=3)}"
            )

        wanted = _filter_degree(worst, last, degree, single, tol, upper) if sized else FILTER_DEGREE
        degree = min(room, wanted)
        last = worst
        dtype = np.float32 if single else np.float64
        _chebyshev_filter(work, vecs[:, lock:end], image[:, lock:end], vals[-1], degree, dtype)
        # the locked fields lead the QR, so the new ones come out orthogonal;
        # the unfiltered extras follow the filtered fields
        basis = np.linalg.qr(vecs)[0]
        # the QR returns the locked fields up to sign; keep them and their images
        basis[:, :lock] = vecs[:, :lock]
        image[:, lock:] = op.apply(basis[:, lock:])
        vals, vecs, image = _rayleigh_ritz(basis, image)
        used += degree * (end - lock)
        if single:
            single_used += degree * (end - lock)

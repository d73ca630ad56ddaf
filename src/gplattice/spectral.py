"""Matrix-free lattice Hamiltonians and their low-lying spectra.

An operator stores a per-site diagonal (kinetic part plus potential) and a
padded neighbour table, so one application costs O(sites * 2d) and nothing is
ever assembled except inside the small-instance dense oracle.

The iterative solver is a block Lanczos iteration with full
reorthogonalization and thick restarts.  The block is at least 2d+1 columns
wide so degenerate clusters are captured whole; the free first excited level
has multiplicity 2d, which a single-vector iteration would silently split.
Residuals of returned pairs are recomputed with a fresh operator application
before the solver accepts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGeometry

DENSE_LIMIT = 4096


class OversizeError(ValueError):
    """Instance too large for the dense path."""


class EigenConvergenceError(RuntimeError):
    """Raised when the iteration budget runs out; carries the best solution."""

    def __init__(self, message: str, best: "EigenSolution"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class HamiltonianOperator:
    """(-Delta + V) restricted to a region, applied through a neighbour table.

    ``hop`` holds local neighbour indices with ``n_sites`` as the padding
    value for couplings dropped at the region boundary.  Boundary
    conventions: periodic and Dirichlet keep the full diagonal 2d + V, the
    Neumann restriction reduces it to the in-region degree + V so that the
    region-constant vector is in the kernel whenever V vanishes.
    """

    geom: LatticeGeometry
    diag: np.ndarray        # kinetic diagonal + potential (n,)
    hop: np.ndarray         # (n, 2d) local neighbour indices, n == dropped
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
        if u.ndim == 1:
            pad = np.zeros(1, dtype=u.dtype)
            padded = np.concatenate([u, pad])
            return self.diag * u - padded[self.hop].sum(axis=1)
        pad = np.zeros((1, u.shape[1]), dtype=u.dtype)
        padded = np.concatenate([u, pad], axis=0)
        return self.diag[:, None] * u - padded[self.hop].sum(axis=1)

    def spectral_bound(self) -> float:
        """Upper bound 4d + max V on the spectrum."""
        return 4.0 * self.geom.dim + float(self.potential.max(initial=0.0))


def dense_matrix(op: HamiltonianOperator) -> np.ndarray:
    """Assemble the operator as a dense symmetric matrix."""
    n = op.n_sites
    mat = np.zeros((n, n))
    np.fill_diagonal(mat, op.diag)
    rows = np.repeat(np.arange(n), op.hop.shape[1])
    cols = op.hop.ravel()
    keep = cols < n
    np.subtract.at(mat, (rows[keep], cols[keep]), 1.0)
    return mat


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
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col.sum()
        if abs(pivot) < 1e-8:
            pivot = col[int(np.argmax(np.abs(col)))]
        if pivot < 0:
            out[:, j] = -col
    return out


def _orthonormalize(block: np.ndarray, against: np.ndarray, rng) -> np.ndarray:
    """Orthonormalize columns against a basis and each other; refill rank drops."""
    n = block.shape[0]
    out: list[np.ndarray] = []
    for j in range(block.shape[1]):
        v = block[:, j].astype(float).copy()
        scale = max(1.0, float(np.linalg.norm(v)))
        for attempt in range(6):
            for _ in range(2):
                if against.shape[1]:
                    v -= against @ (against.T @ v)
                for u in out:
                    v -= (u @ v) * u
            nv = float(np.linalg.norm(v))
            if nv > 1e-10 * scale:
                out.append(v / nv)
                break
            # direction collapsed onto the basis: replace it with a fresh one
            v = rng.standard_normal(n)
            scale = float(np.linalg.norm(v))
        else:
            raise RuntimeError("could not complete an orthonormal block")
    return np.column_stack(out)


def lowest_eigenpairs(
    op: HamiltonianOperator,
    count: int,
    tol: float = 1e-10,
    *,
    seed=0,
    max_applies: int | None = None,
) -> EigenSolution:
    """Lowest ``count`` eigenpairs by block Lanczos with thick restarts.

    Start vectors are drawn from ``seed`` so runs replay bit-exactly.  Raises
    :class:`EigenConvergenceError` carrying the best pairs found if the
    application budget (default 50 * count * sqrt(n)) is exhausted.
    """
    n = op.n_sites
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    block = min(n, max(count, 2 * op.geom.dim + 1))
    m_max = min(n, max(6 * block + 2 * count, 80))
    if max_applies is None:
        max_applies = max(int(50 * count * math.sqrt(n)), 20 * m_max)

    rng = np.random.default_rng(seed)
    basis = np.zeros((n, m_max))
    image = np.zeros((n, m_max))       # operator images of basis columns
    small = np.zeros((m_max, m_max))   # projected operator

    basis[:, :block] = _orthonormalize(
        rng.standard_normal((n, block)), basis[:, :0], rng
    )
    m = block
    applied = 0
    used = 0
    best: EigenSolution | None = None

    while True:
        j0, j1 = applied, m
        image[:, j0:j1] = op.apply(basis[:, j0:j1])
        used += j1 - j0
        proj = basis[:, :m].T @ image[:, j0:j1]
        small[:m, j0:j1] = proj
        small[j0:j1, :m] = proj.T
        applied = m

        if m < m_max:
            cand = image[:, j0:j1] - basis[:, :m] @ proj
            width = min(block, m_max - m)
            fresh = _orthonormalize(cand[:, :width], basis[:, :m], rng)
            basis[:, m : m + width] = fresh
            m += width
            continue

        ritz_vals, ritz_rot = np.linalg.eigh(small[:m, :m])
        vecs = basis[:, :m] @ ritz_rot[:, :count]
        est = image[:, :m] @ ritz_rot[:, :count] - vecs * ritz_vals[:count]
        est_res = np.linalg.norm(est, axis=0)

        if est_res.max() <= tol:
            # confirm with a fresh application before accepting
            fresh_image = op.apply(vecs)
            used += count
            res = np.linalg.norm(fresh_image - vecs * ritz_vals[:count], axis=0)
            if res.max() <= tol:
                return EigenSolution(
                    values=ritz_vals[:count].copy(),
                    vectors=_fix_signs(vecs),
                    residuals=res,
                    iterations=used,
                    converged=True,
                )
            est_res = res

        if best is None or est_res.max() < best.residuals.max():
            best = EigenSolution(
                values=ritz_vals[:count].copy(),
                vectors=_fix_signs(vecs),
                residuals=est_res.copy(),
                iterations=used,
                converged=False,
            )
        if used >= max_applies:
            raise EigenConvergenceError(
                f"no convergence after {used} operator applications; "
                f"best residuals {np.array2string(best.residuals, precision=3)}",
                best=best,
            )

        # thick restart: keep leading Ritz pairs, reseed with their residuals
        keep = min(m - block, max(count + block, 2 * count))
        kept_basis = basis[:, :m] @ ritz_rot[:, :keep]
        kept_image = image[:, :m] @ ritz_rot[:, :keep]
        basis[:, :keep] = kept_basis
        image[:, :keep] = kept_image
        small[:m_max, :m_max] = 0.0
        small[np.arange(keep), np.arange(keep)] = ritz_vals[:keep]
        applied = keep

        resid_block = kept_image[:, :block] - kept_basis[:, :block] * ritz_vals[:block]
        fresh = _orthonormalize(resid_block, basis[:, :keep], rng)
        basis[:, keep : keep + fresh.shape[1]] = fresh
        m = keep + fresh.shape[1]


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

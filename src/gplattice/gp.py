"""Gross-Pitaevskii energy on the unit sphere and its minimizer.

The functional is E[phi] = <H phi, phi> + U sum_x phi(x)^4 with U >= 0,
minimized over real unit vectors by Riemannian trust-region Newton steps
(Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
2008, ch. 7).  Each iteration tests convergence (sphere-projected gradient
norm at most ``g_tol``) and takes one step; the gradient moves only with an
accepted step.  With mu = <phi, H phi + 2U phi^3> and the Lagrange residual
r = H phi + 2U phi^3 - mu phi, the step solves
P (H + 6U phi^2 - mu) P d = -r for d orthogonal to phi by truncated
conjugate gradients (Steihaug-Toint; P = 1 - phi phi^T), which end on the
trust-region boundary when a step would leave it or meets non-positive
curvature, and otherwise stop at a residual of max(min(0.1, |r|) |r|,
g_tol / 8): the gradient is 2r, so the model's gradient after the step is
at most g_tol / 4, and no iteration is spent below what the convergence
test resolves (inexact Newton; Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 1982).  The candidate |phi + d| / || |phi + d| || is
accepted when its energy is no higher (up to rounding noise for a step
inside the radius), and the radius shrinks or grows with the ratio of
actual to predicted decrease.  The conjugate gradients run on two fixed
buffers, bound to the stencil once per solve.  While every full Newton
step lies inside the radius and lowers the energy, the iterates are plain
Newton's.

The linear ground state phi0 can be a saddle of the energy (the projected
Hessian there has a negative direction), and plain Newton steps from phi0
can converge to a nearby saddle; boundary steps along negative curvature
leave it.  Along an excited state psi of H that Hessian has curvature
(e_psi - e0) - 2U ipr + 6U sum phi0^2 psi^2, with ipr = sum phi0^4, so
phi0 is a saddle once 2U ipr exceeds the gap to a low state that phi0
barely overlaps.  U ipr comparable to the gap is not enough
by itself: the first excited state may overlap phi0 enough to keep every
curvature positive.

Iterates stay nonnegative, the energy trace holds the energy after every
accepted step and is monotone, ``iterations`` counts accepted steps, and
``applies`` counts operator applications: the start's, one per candidate
and one per conjugate-gradient iteration.
Started from the single-particle ground state, the zero-coupling problem
converges immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import bind_stencil
from .spectral import EigenSolution, HamiltonianOperator

GAP_TIE_TOL = 1e-12
# relative energy change below which the energy test is rounding noise
NOISE_FLOOR = 8.0 * np.finfo(float).eps
# a step this short no longer moves a unit field; the cap counts accepted
# and rejected steps
RADIUS_FLOOR = np.finfo(float).eps
MAX_STEPS = 1000


@dataclass(frozen=True)
class GPProblem:
    """Periodic lattice Hamiltonian plus a repulsive on-site coupling U >= 0."""

    hamiltonian: HamiltonianOperator
    coupling: float

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.hamiltonian.bc != "periodic":
            raise ValueError("the interacting problem is posed on the periodic torus")


def gp_energy(problem: GPProblem, phi: np.ndarray) -> float:
    """Ambient energy <H phi, phi> + U ||phi||_4^4."""
    phi = np.asarray(phi, dtype=float)
    hphi = problem.hamiltonian.apply(phi)
    return float(phi @ hphi + problem.coupling * np.sum(phi**4))


def gp_gradient(problem: GPProblem, phi: np.ndarray) -> np.ndarray:
    """Ambient gradient 2 H phi + 4 U phi^3."""
    phi = np.asarray(phi, dtype=float)
    return 2.0 * problem.hamiltonian.apply(phi) + 4.0 * problem.coupling * phi**3


@dataclass
class GPResult:
    """Minimizer, final energy, and the monotone energy trace."""

    phi: np.ndarray
    energy: float
    trace: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    applies: int


def _projected_newton_direction(
    problem: GPProblem,
    phi: np.ndarray,
    residual: np.ndarray,
    mu: float,
    radius: float,
    g_tol: float,
) -> tuple[np.ndarray, float, bool, int]:
    """Truncated CG for P (H + 6U phi^2 - mu) P d = -residual inside |d| <= radius.

    Returns the step d (orthogonal to phi), the energy drop the quadratic
    model predicts for it, whether it ends on the boundary, and the number
    of iterations (one operator application each).  ``residual`` is half
    the projected gradient, so conjugate gradients stop at a residual of
    min(0.1, |residual|) |residual| (quadratic convergence of the outer
    steps) or g_tol / 8, whichever is larger, or after n iterations.  A
    step that would leave the ball, or a direction of non-positive
    curvature, is followed to the boundary instead (Steihaug-Toint).  |d|^2
    comes from the recurrences for d.p and p.p, and the model from the CG
    scalars, so neither costs a vector operation.  The search direction ``p`` and its image ``ap`` are
    fixed buffers, bound to the stencil once; each iteration overwrites both
    in place.  A NaN curvature is not positive, so it also ends on the
    boundary, with a NaN model.
    """
    h = problem.hamiltonian
    shift = 6.0 * problem.coupling * phi**2 - mu
    rhs_norm = float(np.linalg.norm(residual))
    stop = max(min(0.1, rhs_norm) * rhs_norm, g_tol / 8.0)
    d = np.zeros_like(phi)
    # the residual's rounding leaves a part along phi of order eps |gradient|;
    # as |residual| falls, A applied to that part swamps the true curvature
    res = (phi @ residual) * phi - residual
    p = res.copy()
    ap = np.empty_like(p)
    neighbours = bind_stencil(h.shape, h.geom.side, p, ap)
    rr = float(res @ res)
    # |d|^2, d.p, p.p, and the model <residual, d> + <d, A d> / 2
    dd, dp, pp, model = 0.0, 0.0, rr, 0.0
    for iteration in range(1, phi.size + 1):
        # ap = H p + shift * p, with H p = diag * p minus the neighbours
        np.multiply(h.diag, p, out=ap)
        neighbours()
        ap += shift * p
        ap -= (phi @ ap) * phi
        curvature = float(p @ ap)
        if curvature > 0.0:
            alpha = rr / curvature
            dd_next = dd + alpha * (2.0 * dp + alpha * pp)
        if not curvature > 0.0 or dd_next >= radius**2:
            tau = (np.sqrt(dp**2 + pp * max(radius**2 - dd, 0.0)) - dp) / pp
            d += tau * p
            model += tau * (0.5 * tau * curvature - rr)
            return d, -2.0 * model, True, iteration
        d += alpha * p
        model -= 0.5 * alpha * rr
        res -= alpha * ap
        rr_next = float(res @ res)
        if rr_next <= stop**2:
            break
        beta = rr_next / rr
        dd, dp, pp = dd_next, beta * (dp + alpha * pp), rr_next + beta**2 * pp
        p *= beta
        p += res
        rr = rr_next
    return d, -2.0 * model, False, iteration


def minimize_gp(problem: GPProblem, init: np.ndarray, *, g_tol: float = 1e-9) -> GPResult:
    """Minimize the energy over the unit sphere by trust-region Newton steps.

    The start is ``|init|``, normalized.  Each iteration stops when the
    sphere-projected gradient norm is at most ``g_tol``.  Otherwise it
    solves for a step inside the radius, evaluates the energy at the
    retracted candidate, and accepts the step or shrinks the radius.  Outside
    the conjugate gradients H is applied once per candidate: the gradient at
    an accepted candidate reuses the energy test's H phi, and a rejected step
    keeps the gradient it had.  The loop gives up, unconverged, once the
    radius falls below ``RADIUS_FLOOR``, after ``MAX_STEPS`` steps, or when
    the model predicts no decrease, which only an overflowed model does.
    """
    phi = np.abs(np.asarray(init, dtype=float))
    if not np.isfinite(phi).all():
        raise ValueError("initial field must be finite")
    norm = np.linalg.norm(phi)
    if norm == 0:
        raise ValueError("initial field must be nonzero")
    phi = phi / norm

    # an overflowing coupling ends the solve unconverged through the tests
    # below; numpy's overflow warnings on the way would add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        hphi = problem.hamiltonian.apply(phi)
        energy = float(phi @ hphi + problem.coupling * np.sum(phi**4))
        trace = [energy]
        applies = 1
        radius = 1.0
        moved = True
        for step in range(MAX_STEPS + 1):
            if moved:
                grad = 2.0 * hphi + 4.0 * problem.coupling * phi**3
                lagrange = float(grad @ phi)
                tangent = grad - lagrange * phi
                grad_norm = float(np.linalg.norm(tangent))
            converged = grad_norm <= g_tol
            if converged or step == MAX_STEPS or radius < RADIUS_FLOOR:
                break
            d, predicted, boundary, cg_iterations = _projected_newton_direction(
                problem, phi, 0.5 * tangent, 0.5 * lagrange, radius, g_tol
            )
            applies += cg_iterations
            if not predicted > 0.0:
                break
            cand = np.abs(phi + d)
            cand /= np.linalg.norm(cand)
            cand_hphi = problem.hamiltonian.apply(cand)
            applies += 1
            cand_energy = float(cand @ cand_hphi + problem.coupling * np.sum(cand**4))
            rho = (energy - cand_energy) / predicted
            if rho < 0.25:
                radius = 0.25 * float(np.linalg.norm(d))
            elif rho > 0.75 and boundary:
                radius = min(2.0 * radius, 2.0)
            # an interior step whose rise is rounding noise is accepted at the
            # unchanged energy: near the minimizer the decrease falls below what
            # the energy resolves
            noise = 0.0 if boundary else NOISE_FLOOR * max(abs(energy), 1.0)
            moved = cand_energy <= energy + noise
            if moved:
                phi, hphi, energy = cand, cand_hphi, min(cand_energy, energy)
                trace.append(energy)

    return GPResult(
        phi=phi,
        energy=energy,
        trace=np.asarray(trace),
        grad_norm=grad_norm,
        iterations=len(trace) - 1,
        converged=converged,
        applies=applies,
    )


@dataclass(frozen=True)
class CondensationCertificate:
    """Spectral-projection check that the minimizer sits on the ground state.

    With pi0 the rank-one projector onto the ground state, a valid
    certificate asserts
    (e1 - e_gp) * ||(1-pi0) phi||^2 <= (e_gp - e0) * ||pi0 phi||^2,
    which the energy bound e_gp >= <H phi, phi> >= e0 ||pi0 phi||^2 +
    e1 ||(1-pi0) phi||^2 gives for a unit phi; ``margin`` is right side minus
    left side.  The flag is False when the GP energy reaches e1 or the
    spectral gap is below resolution, in which case the inequality says
    nothing.  ``pi0_norm`` = ||pi0 phi|| is the overlap |<phi0, phi>|.
    """

    pi0_norm: float
    orth_norm: float
    valid: bool
    margin: float


def certificate(
    problem: GPProblem, eig: EigenSolution, gp: GPResult
) -> CondensationCertificate:
    """Evaluate the ground-state projection bound for a finished minimization."""
    if eig.values.size < 2:
        raise ValueError("certificate needs the two lowest eigenpairs")
    phi0 = eig.vectors[:, 0]
    e0 = float(eig.values[0])
    e1 = float(eig.values[1])
    e_gp = float(gp.energy)

    coeff = float(phi0 @ gp.phi)
    ortho = gp.phi - coeff * phi0
    pi0_norm = abs(coeff)
    orth_norm = float(np.linalg.norm(ortho))

    valid = e1 > e_gp and (e1 - e0) >= GAP_TIE_TOL
    margin = (e_gp - e0) * pi0_norm**2 - (e1 - e_gp) * orth_norm**2
    return CondensationCertificate(
        pi0_norm=pi0_norm, orth_norm=orth_norm, valid=valid, margin=margin
    )

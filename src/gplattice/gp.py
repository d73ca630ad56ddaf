"""Gross-Pitaevskii energy on the unit sphere and its minimizer.

The functional is E[phi] = <H phi, phi> + U sum_x phi(x)^4 with U >= 0,
minimized over real unit vectors.  The minimizer is one loop: each iteration
evaluates the gradient once, tests convergence, and takes one step.

Steps are Riemannian Newton steps at first.  With mu = <phi, H phi + 2U phi^3>
and the Lagrange residual r = H phi + 2U phi^3 - mu phi, a step solves
P (H + 6U phi^2 - mu) P d = -r for d orthogonal to phi by matrix-free
conjugate gradients (P = 1 - phi phi^T, stopped at a relative residual of
min(0.1, max(|r|, 1e-6))) and moves to |phi + d| / || |phi + d| ||.  A step
that would raise the energy is halved up to ``NEWTON_HALVINGS`` times.  The
conjugate gradients run on two fixed buffers, whose stencil views are taken
once per solve.  Halving matters where the linear ground state phi0 is a
saddle of the energy (the projected Hessian there has a negative
direction) and full steps overshoot.  Along an excited state psi of H that
Hessian has curvature (e_psi - e0) - 2U ipr + 6U sum phi0^2 psi^2, with
ipr = sum phi0^4, so phi0 is a saddle once 2U ipr exceeds the gap to a low
state that phi0 barely overlaps.  U ipr comparable to the gap is not enough
by itself: the first excited state may overlap phi0 enough to keep every
curvature positive.

Once a Newton step fails (a zero direction, or no halving lowers the
energy) or ``NEWTON_MAX_STEPS`` have been taken, the loop takes projected
gradient steps instead: descent on the sphere with Armijo backtracking on
the ambient energy, where each trial iterate is replaced by its entrywise
modulus (which never raises the energy) and renormalized.  The loop has
converged when the sphere-projected gradient norm is at most ``g_tol`` and,
once a gradient step has been taken, the last relative energy decrease is
at most ``E_TOL``.  Iterates stay nonnegative, the energy trace holds the
energy after every accepted step and is monotone, and ``iterations`` counts
Newton plus gradient steps.  Started from the single-particle ground state,
the zero-coupling problem converges immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import _apply_updates, _stencil_updates
from .spectral import EigenSolution, HamiltonianOperator

GAP_TIE_TOL = 1e-12
# relative energy change below which the energy test is rounding noise
NOISE_FLOOR = 8.0 * np.finfo(float).eps
# Newton converges in two or three steps near the minimizer; escaping a
# saddle at the linear ground state took up to 20 on the trend plans
NEWTON_MAX_STEPS = 50
NEWTON_HALVINGS = 10
CG_RTOL_FLOOR = 1e-6
# the energy-change test once gradient steps run, and their cap
E_TOL = 1e-12
MAX_ITER = 200_000


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


def _projected_newton_direction(
    problem: GPProblem, phi: np.ndarray, residual: np.ndarray, mu: float
) -> np.ndarray:
    """Solve P (H + 6U phi^2 - mu) P d = -residual for d orthogonal to phi.

    Conjugate gradients stop at a relative residual of min(0.1, |residual|),
    floored at ``CG_RTOL_FLOOR`` (tighter targets are out of reach in
    floating point on small-gap samples), after n iterations, or on a
    direction of non-positive curvature, which the projected Hessian can
    have away from the minimizer.  Every iterate is a descent direction.
    The search direction ``p`` and its image ``ap`` are fixed buffers whose
    stencil views are taken once; each iteration overwrites both in place.
    """
    h = problem.hamiltonian
    shift = 6.0 * problem.coupling * phi**2 - mu
    rhs_norm = float(np.linalg.norm(residual))
    stop = min(0.1, max(rhs_norm, CG_RTOL_FLOOR)) * rhs_norm
    d = np.zeros_like(phi)
    res = -residual
    p = res.copy()
    ap = np.empty_like(p)
    neighbours = _stencil_updates(h.shape, h.geom.side, p, ap)
    rr = float(res @ res)
    for _ in range(phi.size):
        # ap = H p + shift * p, with H p = diag * p minus the neighbours
        np.multiply(h.diag, p, out=ap)
        _apply_updates(neighbours)
        ap += shift * p
        ap -= (phi @ ap) * phi
        curvature = float(p @ ap)
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        d += alpha * p
        res -= alpha * ap
        rr_next = float(res @ res)
        if rr_next <= stop**2:
            break
        p *= rr_next / rr
        p += res
        rr = rr_next
    return d


def minimize_gp(problem: GPProblem, init: np.ndarray, *, g_tol: float = 1e-9) -> GPResult:
    """Minimize the energy over the unit sphere: one loop of Newton, then gradient, steps.

    The start is ``|init|``, normalized.  Each iteration evaluates the
    gradient once and stops when the sphere-projected gradient norm is at
    most ``g_tol`` and, once a gradient step has been taken, the last
    relative energy decrease is at most ``E_TOL``.  Otherwise it takes a
    Newton step, until one fails or ``NEWTON_MAX_STEPS`` have been taken, and
    a projected-gradient step from then on; ``MAX_ITER`` caps the latter.
    """
    h = problem.hamiltonian
    coupling = problem.coupling
    phi = np.abs(np.asarray(init, dtype=float))
    norm = np.linalg.norm(phi)
    if norm == 0:
        raise ValueError("initial field must be nonzero")
    phi = phi / norm

    energy = gp_energy(problem, phi)
    trace = [energy]
    vmax = float(h.potential.max(initial=0.0))
    # largest step that is stable for any unit iterate (||phi||_inf <= 1);
    # near the floor, energy differences drop below one ulp and the Armijo
    # test turns into noise, so sub-noise moves at this step are accepted
    step_safe = 1.0 / (2.0 * (4.0 * h.geom.dim + vmax) + 12.0 * coupling)

    newton = True
    newton_steps = gradient_steps = 0
    converged = False
    last_drop = 0.0
    while True:
        grad = gp_gradient(problem, phi)
        lagrange = float(grad @ phi)
        tangent = grad - lagrange * phi
        grad_norm = float(np.linalg.norm(tangent))
        if grad_norm <= g_tol and last_drop <= E_TOL:
            converged = True
            break
        noise = NOISE_FLOOR * max(abs(energy), 1.0)

        if newton and newton_steps < NEWTON_MAX_STEPS:
            d = _projected_newton_direction(problem, phi, 0.5 * tangent, 0.5 * lagrange)
            accepted = False
            # a zero direction is a failed step
            for halvings in range(NEWTON_HALVINGS + 1 if d.any() else 0):
                cand = np.abs(phi + d)
                cand /= np.linalg.norm(cand)
                cand_energy = gp_energy(problem, cand)
                # a full step whose rise is rounding noise is accepted at the
                # unchanged energy: near the minimizer the decrease falls
                # below what the energy resolves
                accepted = cand_energy <= energy or (
                    halvings == 0 and cand_energy <= energy + noise
                )
                if accepted:
                    break
                d *= 0.5
            if accepted:
                phi, energy = cand, min(cand_energy, energy)
                trace.append(energy)
                newton_steps += 1
                continue
        if newton:
            # hand-over: the gradient step size starts from this iterate
            newton = False
            step = 1.0 / (
                2.0 * (4.0 * h.geom.dim + vmax) + 12.0 * coupling * float(np.max(phi**2))
            )
        if gradient_steps == MAX_ITER:
            break

        trial = step
        accepted = False
        for _ in range(70):
            cand = np.abs(phi - trial * tangent)
            cnorm = np.linalg.norm(cand)
            if cnorm > 0:
                cand = cand / cnorm
                cand_energy = gp_energy(problem, cand)
                if cand_energy <= energy - 1e-4 * trial * grad_norm**2:
                    accepted = True
                    break
                if trial <= step_safe and cand_energy <= energy + noise:
                    cand_energy = min(cand_energy, energy)
                    accepted = True
                    break
            trial *= 0.5
        if not accepted:
            # descent has hit machine precision
            converged = grad_norm <= g_tol
            break

        last_drop = (energy - cand_energy) / max(abs(energy), 1e-300)
        phi, energy = cand, cand_energy
        trace.append(energy)
        gradient_steps += 1
        step = min(max(trial * 2.0, step_safe), 1e6)

    return GPResult(
        phi=phi,
        energy=energy,
        trace=np.asarray(trace),
        grad_norm=grad_norm,
        iterations=newton_steps + gradient_steps,
        converged=converged,
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

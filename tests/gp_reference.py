"""Projected gradient descent for the GP energy on the unit sphere.

An independent solver for the tests to compare ``minimize_gp`` against: it
shares only the energy and its gradient with the program.  Each step moves
along the sphere-projected gradient with Armijo backtracking on the ambient
energy; a trial iterate is replaced by its entrywise modulus (which never
raises the energy) and renormalized.  It has converged when the projected
gradient norm is at most ``g_tol`` and the last relative energy decrease is
at most ``e_tol``.  Slow (hundreds to thousands of steps where Newton needs
a few), but with no step that can stall on a near-singular Hessian.
"""

import numpy as np

from gplattice.gp import NOISE_FLOOR, GPResult, gp_energy, gp_gradient


def energy_at(problem, phi) -> float:
    return gp_energy(problem, phi, problem.hamiltonian.apply(phi))


def gradient_at(problem, phi) -> np.ndarray:
    return gp_gradient(problem, phi, problem.hamiltonian.apply(phi))


def projected_gradient_descent(
    problem, init, *, g_tol=1e-9, e_tol=1e-12, max_steps=200_000
) -> GPResult:
    """Minimize from ``|init|``, normalized, by projected gradient steps."""
    h = problem.hamiltonian
    coupling = problem.coupling
    phi = np.abs(np.asarray(init, dtype=float))
    phi = phi / np.linalg.norm(phi)
    energy = energy_at(problem, phi)
    trace = [energy]
    applies = 1
    # Gershgorin: each row of H has at most 2d off-diagonal entries -1
    h_max = float(h.diag.max()) + 2.0 * h.geom.dim
    # largest step that is stable for any unit iterate (||phi||_inf <= 1);
    # near the floor, energy differences drop below one ulp and the Armijo
    # test turns into noise, so sub-noise moves at this step are accepted
    step_safe = 1.0 / (2.0 * h_max + 12.0 * coupling)
    step = 1.0 / (2.0 * h_max + 12.0 * coupling * float(np.max(phi**2)))
    last_drop = 0.0
    converged = False
    while True:
        grad = gradient_at(problem, phi)
        applies += 1
        tangent = grad - float(grad @ phi) * phi
        grad_norm = float(np.linalg.norm(tangent))
        if grad_norm <= g_tol and last_drop <= e_tol:
            converged = True
            break
        if len(trace) > max_steps:
            break
        noise = NOISE_FLOOR * max(abs(energy), 1.0)
        trial = step
        accepted = False
        for _ in range(70):
            cand = np.abs(phi - trial * tangent)
            cnorm = np.linalg.norm(cand)
            if cnorm > 0:
                cand = cand / cnorm
                cand_energy = energy_at(problem, cand)
                applies += 1
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
        step = min(max(trial * 2.0, step_safe), 1e6)

    return GPResult(
        phi=phi,
        energy=energy,
        trace=np.asarray(trace),
        grad_norm=grad_norm,
        iterations=len(trace) - 1,
        converged=converged,
        applies=applies,
    )

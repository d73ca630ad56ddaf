import dataclasses

import numpy as np
import pytest
from scipy import optimize

from gplattice import (
    DisorderSpec,
    GPProblem,
    Region,
    build_lattice,
    certificate,
    dense_matrix,
    lowest_eigenpairs,
    minimize_gp,
    periodic_hamiltonian,
    restrict_hamiltonian,
    sample_potential,
)
from gplattice import gp
from gplattice.gp import gp_gradient
from gplattice.ensemble import theorem_coupling
from gplattice.spectral import HamiltonianOperator
from dense_reference import dense_oracle
from gp_reference import energy_at, gradient_at, projected_gradient_descent

SPEC = DisorderSpec(v_max=1.0, master_seed=77)


def make_problem(half=12, coupling=0.1, sample=0, dim=1):
    geom = build_lattice(dim, half)
    ham = periodic_hamiltonian(sample_potential(SPEC, geom, 0, sample))
    return GPProblem(ham, coupling)


def ground_state(prob, seed):
    """The single-particle ground state as the iterative solver finds it."""
    return lowest_eigenpairs(prob.hamiltonian, 1, tol=1e-10, seed=seed).vectors[:, 0]


def test_problem_validation():
    geom = build_lattice(1, 4)
    ham = periodic_hamiltonian(sample_potential(SPEC, geom))
    with pytest.raises(ValueError):
        GPProblem(ham, -0.1)


@pytest.mark.parametrize("coupling", [np.nan, np.inf, -np.inf])
def test_problem_refuses_a_non_finite_coupling(coupling):
    # nan < 0 is False, so a NaN coupling used to pass and give a NaN energy
    ham = periodic_hamiltonian(sample_potential(SPEC, build_lattice(1, 4)))
    with pytest.raises(ValueError, match="coupling must be finite"):
        GPProblem(ham, coupling)


@pytest.mark.parametrize("g_tol", [0.0, -1e-9, np.nan, np.inf])
def test_minimizer_refuses_a_tolerance_outside_zero_to_inf(g_tol):
    # a zero, negative or NaN tolerance ran to the radius or step limit
    prob = make_problem(half=16, coupling=0.5)
    with pytest.raises(ValueError, match="g_tol must be positive and finite"):
        minimize_gp(prob, init=np.ones(prob.hamiltonian.n_sites), g_tol=g_tol)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("dim, half", [(1, 5), (2, 3)])
def test_a_region_covering_the_torus_is_the_periodic_operator(dim, half, bc):
    # an axis as long as the torus side keeps its wrap coupling, so a box
    # of the whole torus is the periodic operator, and the GP problem takes it
    real = sample_potential(SPEC, build_lattice(dim, half), 0, 2)
    full = (-half, 2 * half + 1)
    whole = restrict_hamiltonian(real, Region((full,) * dim, bc=bc))
    ham = periodic_hamiltonian(real)
    assert np.array_equal(whole.diag, ham.diag)
    assert np.array_equal(dense_matrix(whole), dense_matrix(ham))
    assert GPProblem(whole, 0.1).hamiltonian is whole
    smaller = Region(((-half, 2 * half),) + (full,) * (dim - 1), bc=bc)
    with pytest.raises(ValueError, match="posed on the periodic torus"):
        GPProblem(restrict_hamiltonian(real, smaller), 0.1)


@pytest.mark.parametrize(
    "bad, message",
    [(0.0, "nonzero"), (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite")],
    ids=["zero", "nan", "inf", "-inf"],
)
def test_minimizer_refuses_a_zero_or_non_finite_init(bad, message):
    prob = make_problem(half=4)
    init = np.zeros(prob.hamiltonian.n_sites)
    init[3] = bad
    with pytest.raises(ValueError, match=message):
        minimize_gp(prob, init=init)


def test_energy_and_gradient_closed_form_on_two_modes():
    # on a flat potential the energy of a plane-wave mix is explicit
    prob = make_problem(coupling=0.0)
    ham = prob.hamiltonian
    phi = np.full(ham.n_sites, ham.n_sites ** -0.5)
    expected = float(np.mean(ham.diag)) - 2.0 * ham.geom.dim
    assert energy_at(prob, phi) == pytest.approx(expected, abs=1e-12)
    grad = gradient_at(prob, phi)
    np.testing.assert_allclose(grad, 2.0 * ham.apply(phi), atol=1e-14)


def test_gradient_matches_central_differences():
    prob = make_problem(half=10, coupling=0.3)
    rng = np.random.default_rng(5)
    n = prob.hamiltonian.n_sites
    h = 1e-6
    for _ in range(10):
        phi = rng.normal(size=n)
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        directional = (energy_at(prob, phi + h * v) - energy_at(prob, phi - h * v)) / (
            2.0 * h
        )
        analytic = float(gradient_at(prob, phi) @ v)
        assert abs(directional - analytic) <= 1e-6 * max(1.0, abs(analytic))


def test_zero_coupling_reduces_to_ground_state():
    prob = make_problem(coupling=0.0)
    eig = lowest_eigenpairs(prob.hamiltonian, 1, tol=1e-12, seed=4)
    res = minimize_gp(prob, init=eig.vectors[:, 0])
    assert res.converged and res.iterations == 0
    assert abs(res.energy - eig.values[0]) <= 1e-10
    assert abs(abs(eig.vectors[:, 0] @ res.phi) - 1.0) <= 1e-8


def test_minimizer_basic_contract():
    prob = make_problem(coupling=0.2)
    res = minimize_gp(prob, init=ground_state(prob, seed=3))
    assert res.converged
    assert res.grad_norm <= 1e-9
    assert abs(np.linalg.norm(res.phi) - 1.0) <= 1e-12
    assert (res.phi >= 0).all()
    assert np.all(np.diff(res.trace) <= 0)  # monotone energy trace
    assert res.trace[-1] == pytest.approx(res.energy)
    # the reported norm is the tangent part of the gradient criterion 7 checks
    grad = gp_gradient(prob, res.phi, prob.hamiltonian.apply(res.phi))
    assert res.grad_norm == np.linalg.norm(grad - (grad @ res.phi) * res.phi)


def test_energy_sandwich_against_dense_oracle():
    for sample in range(4):
        prob = make_problem(half=10, coupling=0.05, sample=sample)
        ref = dense_oracle(prob.hamiltonian)
        res = minimize_gp(prob, init=ref.vectors[:, 0])
        assert res.converged
        ipr = float(np.sum(ref.vectors[:, 0] ** 4))
        assert ref.values[0] - 1e-12 <= res.energy
        assert res.energy <= ref.values[0] + prob.coupling * ipr + 1e-12


def test_energy_monotone_in_coupling():
    energies = []
    for coupling in (0.0, 0.05, 0.2, 1.0):
        prob = make_problem(half=8, coupling=coupling, sample=2)
        energies.append(minimize_gp(prob, init=ground_state(prob, seed=1)).energy)
    assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_minimizer_unique_across_inits():
    # the agreement tolerance here is an engineering choice
    prob = make_problem(half=9, coupling=0.4, sample=5)
    res_a = minimize_gp(prob, init=ground_state(prob, seed=0))
    rng = np.random.default_rng(123)
    res_b = minimize_gp(prob, init=np.abs(rng.normal(size=prob.hamiltonian.n_sites)))
    assert res_a.converged and res_b.converged
    assert np.linalg.norm(res_a.phi - res_b.phi) <= 1e-6
    assert abs(res_a.energy - res_b.energy) <= 1e-10


def test_minimizer_against_scipy_composite():
    # independent oracle: unconstrained minimization of E(x / ||x||)
    geom = build_lattice(1, 6)
    ham = periodic_hamiltonian(sample_potential(SPEC, geom, 0, 9))
    prob = GPProblem(ham, 0.5)
    n = geom.n_sites

    def composite(x):
        return energy_at(prob, x / np.linalg.norm(x))

    best = np.inf
    rng = np.random.default_rng(7)
    for _ in range(8):
        x0 = rng.normal(size=n)
        out = optimize.minimize(composite, x0, method="BFGS", options={"maxiter": 2000})
        best = min(best, float(out.fun))

    res = minimize_gp(prob, init=ground_state(prob, seed=2))
    assert res.converged
    assert res.energy <= best + 1e-8


def small_gap_problem():
    # the smallest gap of 60 samples at L=16, with U * ipr = gap: the
    # minimizer mixes in the first excited state (overlap about 0.966), but
    # the linear ground state is no saddle of the energy, because that state
    # overlaps it (the projected Hessian at phi0 is >= 9.25e-3 off phi0); it
    # turns into one between 20 and 50 times this coupling
    geom = build_lattice(1, 16)
    ham = periodic_hamiltonian(sample_potential(SPEC, geom, 0, 27))
    ref = dense_oracle(ham)
    gap = ref.values[1] - ref.values[0]
    assert gap < 5e-3
    return GPProblem(ham, gap / float(np.sum(ref.vectors[:, 0] ** 4)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_problem(half=12, coupling=0.3, sample=2),
        lambda: make_problem(half=3, coupling=0.3, dim=2),
        lambda: make_problem(half=2, coupling=0.3, sample=1, dim=3),
        small_gap_problem,
    ],
    ids=["d1", "d2", "d3", "d1-small-gap"],
)
def test_newton_start_matches_tight_gradient_solve(make):
    prob = make()
    ref = dense_oracle(prob.hamiltonian)
    init = ref.vectors[:, 0]
    res = minimize_gp(prob, init=init)
    tight = projected_gradient_descent(prob, init, g_tol=1e-12)
    assert res.converged and tight.converged
    # Newton steps did the work; projected gradient alone needs hundreds
    assert res.iterations <= 10 < tight.iterations
    assert np.all(np.diff(res.trace) <= 0)
    assert abs(res.energy - tight.energy) <= 1e-12
    assert abs(abs(init @ res.phi) - abs(init @ tight.phi)) <= 1e-9


@pytest.mark.parametrize("genuine_steps", [0, 1])
def test_rejected_step_leaves_phi_and_shrinks_radius(genuine_steps, monkeypatch):
    prob = make_problem(half=12, coupling=0.3, sample=2)
    init = dense_oracle(prob.hamiltonian).vectors[:, 0]
    plain = minimize_gp(prob, init=init)
    newton = gp._projected_newton_direction
    calls = []

    def genuine_then_uphill(problem, phi, residual, mu, radius, g_tol):
        calls.append((phi, radius))
        if len(calls) != genuine_steps + 1:
            return newton(problem, phi, residual, mu, radius, g_tol)
        # an ascent step to the boundary, claimed to lower the energy
        return residual * (radius / np.linalg.norm(residual)), 1.0, True, 0

    monkeypatch.setattr(gp, "_projected_newton_direction", genuine_then_uphill)
    res = minimize_gp(prob, init=init)
    (phi_rejected, radius_rejected), (phi_next, radius_next) = calls[genuine_steps:][:2]
    assert np.array_equal(phi_next, phi_rejected)
    assert radius_next == pytest.approx(radius_rejected / 4.0, rel=1e-12)
    assert res.converged
    assert np.all(np.diff(res.trace) <= 0)
    assert res.trace[-1] == res.energy
    # one trace entry per accepted step, plus the start; the rejected step
    # left none
    assert len(res.trace) == res.iterations + 1 <= len(calls)
    assert np.array_equal(res.trace[: genuine_steps + 1], plain.trace[: genuine_steps + 1])
    assert abs(res.energy - plain.energy) <= 1e-12


def reference_newton_direction(problem, phi, residual, mu, radius, g_tol):
    """The truncated CG as first written: a fresh H p, ap and p each iteration."""
    shift = 6.0 * problem.coupling * phi**2 - mu
    rhs_norm = float(np.linalg.norm(residual))
    stop = max(min(0.1, rhs_norm) * rhs_norm, g_tol / 8.0)
    d = np.zeros_like(phi)
    res = (phi @ residual) * phi - residual
    p = res.copy()
    rr = float(res @ res)
    dd, dp, pp, model = 0.0, 0.0, rr, 0.0
    for iteration in range(1, phi.size + 1):
        ap = problem.hamiltonian.apply(p) + shift * p
        ap -= (phi @ ap) * phi
        curvature = float(p @ ap)
        if curvature > 0.0:
            alpha = rr / curvature
            dd_next = dd + alpha * (2.0 * dp + alpha * pp)
        if curvature <= 0.0 or dd_next >= radius**2:
            # to the boundary: the root tau >= 0 of |d + tau p| = radius
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
        p = res + beta * p
        rr = rr_next
    return d, -2.0 * model, False, iteration


def strongly_coupled_problem(dim, half, sample, factor, v_max):
    """Coupling ``factor`` times gap / ipr of the linear ground state."""
    spec = DisorderSpec(v_max=v_max, master_seed=77)
    ham = periodic_hamiltonian(sample_potential(spec, build_lattice(dim, half), 0, sample))
    ref = dense_oracle(ham)
    ipr = float(np.sum(ref.vectors[:, 0] ** 4))
    return GPProblem(ham, factor * (ref.values[1] - ref.values[0]) / ipr)


@pytest.mark.parametrize(
    "make, uphill",
    [
        (lambda: make_problem(half=12, coupling=0.3, sample=2), False),
        (small_gap_problem, False),
        (lambda: strongly_coupled_problem(1, 12, 3, 20.0, 1.0), True),
        (lambda: make_problem(half=3, coupling=0.3, dim=2), False),
        (lambda: strongly_coupled_problem(2, 4, 1, 2.0, 6.0), True),
    ],
    ids=["d1", "d1-small-gap", "d1-large-coupling", "d2", "d2-large-coupling"],
)
def test_newton_direction_on_fixed_buffers_is_the_reference(make, uphill, monkeypatch):
    # every Newton direction of a solve, bit for bit, against the loop that
    # allocates H p, ap and p anew each iteration
    prob = make()
    start = dense_oracle(prob.hamiltonian).vectors[:, 0]
    lagrange = float(gradient_at(prob, start) @ start)
    hessian = dense_matrix(prob.hamiltonian) + np.diag(
        6.0 * prob.coupling * start**2 - 0.5 * lagrange
    )
    proj = np.eye(start.size) - np.outer(start, start)
    # with a large coupling the first projected Hessian has directions of
    # negative curvature, which end the conjugate gradients early
    assert (np.linalg.eigvalsh(proj @ hessian @ proj)[0] < -0.1) == uphill

    newton = gp._projected_newton_direction
    calls = []

    def compared(problem, phi, residual, mu, radius, g_tol):
        out = newton(problem, phi, residual, mu, radius, g_tol)
        ref = reference_newton_direction(problem, phi, residual, mu, radius, g_tol)
        calls.append((np.array_equal(out[0], ref[0]) and out[1:] == ref[1:], out[2]))
        return out

    monkeypatch.setattr(gp, "_projected_newton_direction", compared)
    assert minimize_gp(prob, init=start).converged
    assert len(calls) >= 2 and all(same for same, _ in calls)
    # negative curvature sends the first step to the trust-region boundary
    assert any(boundary for _, boundary in calls) == uphill


@pytest.mark.parametrize(
    "make, flat, steps, iterations, energy",
    [
        (lambda: strongly_coupled_problem(1, 16, 5, 5.0, 1.0), False, 8, 7, 0.6218038638081678),
        (lambda: strongly_coupled_problem(2, 4, 1, 2.0, 6.0), True, 6, 6, 2.4251579402402093),
    ],
    ids=["d1-phi0", "d2-flat"],
)
def test_trust_region_finishes_where_full_newton_steps_fail(
    make, flat, steps, iterations, energy, monkeypatch
):
    # with a large coupling full Newton steps overshoot here (halving them
    # failed); the first step ends on the trust-region boundary, and
    # boundary steps and radius updates finish the solve
    prob = make()
    n = prob.hamiltonian.n_sites
    init = np.ones(n) if flat else dense_oracle(prob.hamiltonian).vectors[:, 0]
    tight = projected_gradient_descent(prob, init, g_tol=1e-12)
    newton = gp._projected_newton_direction
    boundary = []

    def counted(problem, phi, residual, mu, radius, g_tol):
        out = newton(problem, phi, residual, mu, radius, g_tol)
        boundary.append(out[2])
        return out

    monkeypatch.setattr(gp, "_projected_newton_direction", counted)
    res = minimize_gp(prob, init=init)
    assert res.converged
    assert boundary[0] and len(boundary) == steps
    assert res.iterations == iterations
    assert res.energy == energy
    assert len(res.trace) == iterations + 1
    assert np.all(np.diff(res.trace) <= 0)
    assert abs(res.energy - tight.energy) <= 1e-12


@dataclasses.dataclass(frozen=True)
class CountingOperator(HamiltonianOperator):
    """The same operator; counts calls of ``apply`` in ``applies[0]``."""

    applies: list = dataclasses.field(default_factory=lambda: [0])

    def apply(self, field):
        self.applies[0] += 1
        return super().apply(field)


def test_one_operator_application_per_candidate(monkeypatch):
    # the d1-phi0 solve above rejects one of its eight steps; the conjugate
    # gradients apply the stencil to their own buffers, so every call of
    # ``apply`` is the start's or a candidate's energy test
    prob = strongly_coupled_problem(1, 16, 5, 5.0, 1.0)
    ham = prob.hamiltonian
    counting = CountingOperator(
        **{f.name: getattr(ham, f.name) for f in dataclasses.fields(ham)}
    )
    newton = gp._projected_newton_direction
    cg_iterations = []

    def counted(*args):
        out = newton(*args)
        cg_iterations.append(out[3])
        return out

    monkeypatch.setattr(gp, "_projected_newton_direction", counted)
    res = minimize_gp(GPProblem(counting, prob.coupling), init=dense_oracle(ham).vectors[:, 0])
    assert res.converged and res.iterations < len(cg_iterations)
    assert res.energy == 0.6218038638081678
    assert counting.applies[0] == 1 + len(cg_iterations)
    # the result counts those and one stencil application per CG iteration
    assert res.applies == counting.applies[0] + sum(cg_iterations)


@pytest.mark.parametrize("factor", [1e3, 1e4, 1e5], ids=["1e3", "1e4", "1e5"])
def test_strong_coupling_solves_take_few_steps(factor, monkeypatch):
    # d=1, L=64, master seed 0, from phi0: at these multiples of the theorem
    # coupling the minimizer spreads over several wells (halved Newton steps
    # with a projected-gradient fallback took up to 1491 iterations at 1e5)
    spec = DisorderSpec(v_max=1.0, master_seed=0)
    geom = build_lattice(1, 64)
    coupling = factor * theorem_coupling(64, 1, 1.0)
    newton = gp._projected_newton_direction
    calls = []

    def counted(*args):
        calls.append(None)
        return newton(*args)

    monkeypatch.setattr(gp, "_projected_newton_direction", counted)
    for sample in range(10):
        ham = periodic_hamiltonian(sample_potential(spec, geom, 0, sample))
        prob = GPProblem(ham, coupling)
        phi0 = dense_oracle(ham).vectors[:, 0]
        calls.clear()
        res = minimize_gp(prob, init=phi0)
        ref = projected_gradient_descent(prob, phi0)
        assert res.converged and ref.converged
        # accepted plus rejected steps
        assert len(calls) <= 100
        assert abs(res.energy - ref.energy) <= 1e-12 * ref.energy


def test_certificate_fields_and_validity():
    prob = make_problem(half=16, coupling=0.002, sample=1)
    eig = lowest_eigenpairs(prob.hamiltonian, 2, tol=1e-10, seed=6)
    gp = minimize_gp(prob, init=eig.vectors[:, 0])
    cert = certificate(prob, eig, gp)
    assert eig.values[0] <= gp.energy
    assert cert.pi0_norm == pytest.approx(abs(eig.vectors[:, 0] @ gp.phi))
    assert abs(cert.pi0_norm**2 + cert.orth_norm**2 - 1.0) <= 1e-10
    if cert.valid:
        assert eig.values[1] > gp.energy
        assert cert.margin >= -1e-9


def test_certificate_invalid_when_energy_reaches_gap():
    # large coupling pushes the GP energy past the first excited level
    prob = make_problem(half=8, coupling=50.0, sample=3)
    eig = lowest_eigenpairs(prob.hamiltonian, 2, tol=1e-10, seed=8)
    gp = minimize_gp(prob, init=eig.vectors[:, 0])
    cert = certificate(prob, eig, gp)
    assert gp.energy > eig.values[1]
    assert not cert.valid


def test_certificate_needs_two_pairs():
    prob = make_problem(half=6)
    eig = lowest_eigenpairs(prob.hamiltonian, 1, tol=1e-10, seed=1)
    gp = minimize_gp(prob, init=eig.vectors[:, 0])
    with pytest.raises(ValueError):
        certificate(prob, eig, gp)


def test_dense_hamiltonian_consistency_of_energies():
    prob = make_problem(half=7, coupling=0.3, sample=4)
    mat = dense_matrix(prob.hamiltonian)
    rng = np.random.default_rng(11)
    for _ in range(5):
        phi = rng.normal(size=prob.hamiltonian.n_sites)
        direct = float(phi @ mat @ phi + prob.coupling * np.sum(phi**4))
        assert energy_at(prob, phi) == pytest.approx(direct, rel=1e-12)

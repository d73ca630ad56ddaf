import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gplattice import (
    DisorderSpec,
    GPProblem,
    build_lattice,
    dirichlet_energy,
    gap_and_overlap,
    localization_center,
    lowest_eigenpairs,
    minimize_gp,
    periodic_hamiltonian,
    sample_potential,
)
from gplattice.analysis import (
    default_band_scale,
    f_scale,
    four_norm_bound_check,
    g_scale,
    random_low_energy_field,
    shell_decompose,
    trial_delta_background,
    trial_flat_fourier,
)
from gplattice.spectral import dense_oracle

from coordinate_reference import flat_realization, plane_wave

SPEC = DisorderSpec(v_max=1.0, master_seed=55)


# --- scale functions ---------------------------------------------------------

def test_scale_function_spot_values():
    assert f_scale(16.0) == pytest.approx(0.5, abs=1e-15)
    assert g_scale(0.25, 2) == pytest.approx(0.5, abs=1e-15)
    assert f_scale(2.0) == pytest.approx(2.0 ** -0.25)
    assert g_scale(0.3, 1) == pytest.approx(0.3**0.25)


def test_scale_function_domains():
    with pytest.raises(ValueError):
        f_scale(0.0)
    with pytest.raises(ValueError):
        g_scale(-0.5, 1)


def test_g_scale_refuses_unsupported_dims():
    # the d <= 3 formula is the only one the package carries
    for dim in (4, 5):
        with pytest.raises(ValueError):
            g_scale(0.1, dim)


# --- shell decomposition --------------------------------------------------------

def test_plane_wave_lives_in_shell_zero():
    geom = build_lattice(1, 32)
    u = plane_wave(geom, (0,)).real
    dec = shell_decompose(geom, u, 0.25)
    assert dec.shell_l2[0] == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(dec.shell_l2[1:] ** 2)) < 1e-24


def test_shell_count_tracks_eps():
    geom = build_lattice(1, 64)
    u = plane_wave(geom, (0,)).real
    for eps, expected in [(0.5, 1), (0.2, 2), (0.1, 3), (0.05, 3), (0.02, 4)]:
        dec = shell_decompose(geom, u, eps)
        assert dec.k_eps == expected
        assert dec.count == expected + 1
        assert -math.log(eps) <= dec.k_eps < -math.log(eps) + 1.0


def test_shell_reconstruction_and_orthogonality():
    geom = build_lattice(1, 48)
    rng = np.random.default_rng(2)
    u = rng.normal(size=geom.n_sites)
    u /= np.linalg.norm(u)
    dec = shell_decompose(geom, u, 0.2)
    pieces = np.array(dec.shells)
    total = pieces.sum(axis=0)
    assert float(np.abs(total - u).max()) <= 1e-12
    gram = pieces @ pieces.T
    off = gram - np.diag(np.diag(gram))
    assert float(np.abs(off).max()) <= 1e-12
    assert float(np.sum(dec.shell_l2**2)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "make",
    [
        lambda geom, eps: shell_decompose(geom, plane_wave(geom, (0,)).real, eps),
        lambda geom, eps: random_low_energy_field(geom, eps, np.random.default_rng(0)),
        trial_flat_fourier,
    ],
    ids=["shell_decompose", "random_low_energy_field", "trial_flat_fourier"],
)
def test_shell_scale_refusals(make):
    geom = build_lattice(1, 16)
    for eps in (0.0, 1.0, 1.5, 0.05):  # the last has eps * L < 1
        with pytest.raises(ValueError, match="eps"):
            make(geom, eps)
    make(geom, 0.5)
    # the four-norm check refuses only eps * L < 1 (see its own test):
    # phi0 of a strongly disordered sample has eps > 1
    u = np.full(geom.n_sites, geom.n_sites**-0.5)
    assert four_norm_bound_check(geom, u, 1.5) > 0


def test_shell_decompose_validates_input():
    geom = build_lattice(1, 16)
    u = plane_wave(geom, (0,)).real
    with pytest.raises(ValueError):
        shell_decompose(geom, 2.0 * u, 0.5)  # not unit norm


def test_sup_bounds_and_kinetic_stat_on_low_energy_fields():
    geom = build_lattice(1, 128)
    rng = np.random.default_rng(31)
    for eps in (0.5, 0.1):
        for _ in range(20):
            u = random_low_energy_field(geom, eps, rng)
            dec = shell_decompose(geom, u, eps)
            ratios = dec.sup_bound_ratios()
            finite = ratios[np.isfinite(ratios)]
            assert (finite <= 1.0 + 1e-9).all()
            stat = dec.annulus_kinetic_stat()
            assert stat <= dec.lattice_constant * dec.kinetic * (1 + 1e-12) + 1e-15
            assert dec.kinetic <= eps**2 * (1 + 1e-12)


def test_annulus_stat_matches_manual_sum():
    geom = build_lattice(1, 64)
    rng = np.random.default_rng(4)
    u = random_low_energy_field(geom, 0.2, rng)
    dec = shell_decompose(geom, u, 0.2)
    annulus = sum(
        math.exp(2 * k - 2) * 0.2**2 * dec.shell_l2[k] ** 2
        for k in range(1, dec.count)
    )
    assert dec.annulus_kinetic_stat() == pytest.approx(annulus, rel=1e-12)


# --- four-norm bound -------------------------------------------------------------

def test_four_norm_report_on_constant_field():
    geom = build_lattice(1, 32)
    u = np.full(geom.n_sites, geom.n_sites ** -0.5)
    ratio = four_norm_bound_check(geom, u, 0.25)
    assert ratio == pytest.approx(geom.n_sites**-0.25 / g_scale(0.25, 1))


def test_four_norm_preconditions_reported():
    geom = build_lattice(1, 32)
    u = np.full(geom.n_sites, geom.n_sites ** -0.5)
    with pytest.raises(ValueError):
        four_norm_bound_check(geom, 2.0 * u, 0.25)
    with pytest.raises(ValueError):
        four_norm_bound_check(geom, u, 0.01)
    spiky = np.zeros(geom.n_sites)
    spiky[0] = 1.0  # kinetic energy 2, far above eps^2
    with pytest.raises(ValueError):
        four_norm_bound_check(geom, spiky, 0.25)


# --- localization reports ---------------------------------------------------------

def test_localization_tie_breaks_lexicographically():
    geom = build_lattice(2, 3)
    u = np.zeros(geom.n_sites)
    u[geom.site_index((1, 2))] = 0.8
    u[geom.site_index((1, -2))] = 0.8
    u[geom.site_index((0, 0))] = 0.1
    rep = localization_center(geom, u)
    assert rep.center == (1, -2)
    # ties of either sign on a random background, in every dimension
    cases = [
        [(5,), (-4,), (2,)],
        [(2, -1), (-3, 4), (-3, 5)],
        [(1, 0, -2), (1, -3, 4), (-2, 5, 5), (-2, 5, -1)],
    ]
    rng = np.random.default_rng(0)
    for tied in cases:
        geom = build_lattice(len(tied[0]), 5)
        for sign in (1, -1):
            u = rng.uniform(-0.5, 0.5, geom.n_sites)
            for j, coord in enumerate(tied):
                u[geom.site_index(coord)] = 0.9 * sign * (-1) ** j
            assert localization_center(geom, u).center == min(tied)


def test_localization_of_delta_is_its_site():
    geom = build_lattice(1, 20)
    u = np.zeros(geom.n_sites)
    u[geom.site_index((4,))] = -1.0
    assert localization_center(geom, u).center == (4,)


# --- gap / overlap bundle ----------------------------------------------------------

def test_gap_and_overlap_matches_dense_recomputation():
    geom = build_lattice(1, 8)
    ham = periodic_hamiltonian(sample_potential(SPEC, geom, 0, 1))
    eig = lowest_eigenpairs(ham, 2, tol=1e-10, seed=3)
    prob = GPProblem(ham, 0.05)
    gp = minimize_gp(prob, init=eig.vectors[:, 0])
    rep = gap_and_overlap(geom, eig, gp)

    ref = dense_oracle(ham)
    assert rep.gap == pytest.approx(float(ref.values[1] - ref.values[0]), abs=1e-8)
    assert rep.overlap == pytest.approx(abs(ref.vectors[:, 0] @ gp.phi), abs=1e-8)
    assert rep.kinetic == pytest.approx(dirichlet_energy(geom, ref.vectors[:, 0]), abs=1e-8)
    assert rep.ipr == pytest.approx(float(np.sum(ref.vectors[:, 0] ** 4)), abs=1e-8)
    assert 0.0 <= rep.overlap <= 1.0 + 1e-10


def test_gap_and_overlap_flat_potential_values():
    geom = build_lattice(1, 8)
    ham = periodic_hamiltonian(flat_realization(geom))
    eig = lowest_eigenpairs(ham, 2, tol=1e-12, seed=2)
    gp = minimize_gp(GPProblem(ham, 0.0), init=eig.vectors[:, 0])
    rep = gap_and_overlap(geom, eig, gp)
    assert rep.gap == pytest.approx(2.0 - 2.0 * math.cos(2.0 * math.pi / 17.0), abs=1e-10)
    assert rep.kinetic <= 1e-12
    assert rep.ipr == pytest.approx(1.0 / geom.n_sites, abs=1e-12)
    assert rep.overlap == pytest.approx(1.0, abs=1e-8)


# --- random fields and trial families -------------------------------------------------

@given(eps=st.sampled_from([0.5, 0.25, 0.1, 0.04]), seed=st.integers(0, 1000))
def test_random_low_energy_field_contract(eps, seed):
    geom = build_lattice(1, 64)
    rng = np.random.default_rng(seed)
    u = random_low_energy_field(geom, eps, rng)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert dirichlet_energy(geom, u) <= eps**2 * (1 + 1e-12)


def test_delta_background_trial_norms():
    geom = build_lattice(1, 64)
    n = geom.n_sites
    eps = 0.2  # eps^2 >= 1/n holds here
    u = trial_delta_background(geom, eps)
    assert np.linalg.norm(u, 4) >= eps
    assert 1.0 <= np.linalg.norm(u) <= 1.0 + eps
    assert dirichlet_energy(geom, u) <= 2.0 * eps**2 + 1e-12


def test_flat_fourier_trial_ratio_bounded_below():
    geom = build_lattice(1, 256)
    for eps in (0.5, 0.1, 0.05):
        u = trial_flat_fourier(geom, eps)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-10
        ratio = np.linalg.norm(u, 4) / g_scale(eps, 1)
        assert ratio >= 0.1


def test_default_band_scale_brackets():
    # strong disorder (v_max = 20) gives phi0 a kinetic form above 1; eps follows it
    geom = build_lattice(1, 32)
    for v_max in (1.0, 20.0):
        spec = DisorderSpec(v_max=v_max, master_seed=55)
        ham = periodic_hamiltonian(sample_potential(spec, geom, 0, 2))
        phi0 = lowest_eigenpairs(ham, 1, tol=1e-10, seed=1).vectors[:, 0]
        kinetic = dirichlet_energy(geom, phi0)
        eps = default_band_scale(geom.half_side, kinetic)
        assert eps >= 1.0 / geom.half_side
        assert kinetic <= eps**2 * (1 + 1e-12)
        assert (kinetic > 1.0) == (v_max > 1.0)
        # phi0 is a scale-eps field: the four-norm check accepts it
        assert four_norm_bound_check(geom, phi0, eps) == np.linalg.norm(phi0, 4) / g_scale(eps, 1)

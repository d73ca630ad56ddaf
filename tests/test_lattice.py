import numpy as np
import pytest
from hypothesis import given, strategies as st

from gplattice import build_lattice, dirichlet_energy, torus_distance
from gplattice.lattice import (
    apply_neg_laplacian,
    coordinate_norms,
    dft,
    idft,
    stencil,
)

from coordinate_reference import adjacency, laplace_symbol, plane_wave, torus_distances


def small_geometries():
    return [build_lattice(1, 4), build_lattice(2, 2), build_lattice(3, 1)]


def random_field(geom, seed):
    return np.random.default_rng(seed).normal(size=geom.n_sites)


def test_geometry_counts_and_shape():
    geom = build_lattice(2, 3)
    assert geom.side == 7
    assert geom.n_sites == 49
    assert geom.shape == (7, 7)
    assert geom.coords.shape == (49, 2)
    assert geom.coords.min() == -3 and geom.coords.max() == 3


def test_site_indexing_centered_layout():
    # d=1, L=2: sites 0..4 carry coordinates -2..+2, so +2 is site 4
    geom = build_lattice(1, 2)
    assert geom.site_index((2,)) == 4
    assert geom.site_index((-2,)) == 0
    assert geom.coordinate(4) == (2,)
    # coordinates wrap modulo the torus
    assert geom.site_index((3,)) == geom.site_index((-2,))


def test_site_index_round_trip():
    for geom in small_geometries():
        for i in range(geom.n_sites):
            assert geom.site_index(geom.coordinate(i)) == i


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        build_lattice(4, 2)
    with pytest.raises(ValueError):
        build_lattice(1, 0)


def test_neighbors_are_symmetric_and_counted():
    # the stencil's couplings are the sites at torus distance 1
    for geom in small_geometries():
        n = geom.n_sites
        adj = -stencil(geom.shape, geom.side, np.eye(n), np.zeros((n, n)))
        np.testing.assert_array_equal(adj, adjacency(geom, np.arange(geom.n_sites)))
        np.testing.assert_array_equal(adj, adj.T)
        np.testing.assert_array_equal(adj.sum(axis=1), 2 * geom.dim)


def test_neg_laplacian_on_delta():
    geom = build_lattice(2, 2)
    u = np.zeros(geom.n_sites)
    center = geom.site_index((0, 0))
    u[center] = 1.0
    out = apply_neg_laplacian(geom, u)
    assert out[center] == 4.0
    assert sorted(out[torus_distances(geom, center) == 1]) == [-1.0, -1.0, -1.0, -1.0]
    assert np.count_nonzero(out) == 5
    # row sums vanish: constants are harmonic on the torus
    assert abs(out.sum()) < 1e-14


def test_neg_laplacian_kills_constants():
    for geom in small_geometries():
        u = np.full(geom.n_sites, 0.7)
        np.testing.assert_allclose(apply_neg_laplacian(geom, u), 0.0, atol=1e-14)


def test_symbol_values_d1_l2():
    # h(gamma) = 2 - 2 cos(2 pi gamma / 5) at gamma = -2..2
    geom = build_lattice(1, 2)
    expected = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(-2, 3) / 5.0)
    np.testing.assert_allclose(laplace_symbol(geom), expected, atol=1e-14)


def test_symbol_range_and_zero_mode():
    for geom in small_geometries():
        h = laplace_symbol(geom)
        assert h.min() >= 0.0
        assert h.max() <= 4.0 * geom.dim + 1e-14
        assert h[geom.site_index((0,) * geom.dim)] == 0.0


def test_symbol_multiset_is_laplacian_spectrum():
    for geom in small_geometries():
        n = geom.n_sites
        dense = 2.0 * geom.dim * np.eye(n) - adjacency(geom, np.arange(n))
        np.testing.assert_allclose(
            np.sort(laplace_symbol(geom)), np.linalg.eigvalsh(dense), atol=1e-10
        )


def test_plane_wave_is_eigenvector():
    geom = build_lattice(2, 3)
    for freq in [(0, 0), (1, 0), (2, -3), (-1, 2)]:
        w = plane_wave(geom, freq)
        assert abs(np.vdot(w, w).real - 1.0) < 1e-12
        hw = apply_neg_laplacian(geom, w)
        lam = laplace_symbol(geom)[geom.site_index(freq)]
        np.testing.assert_allclose(hw, lam * w, atol=1e-12)


def test_dft_sends_plane_wave_to_delta():
    geom = build_lattice(1, 5)
    w = plane_wave(geom, (3,))
    coeffs = dft(geom, w)
    expected = np.zeros(geom.n_sites, dtype=complex)
    expected[geom.site_index((3,))] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_dirichlet_energy_matches_symbol_sum():
    for geom in small_geometries():
        u = random_field(geom, 11)
        lhs = dirichlet_energy(geom, u)
        rhs = float(np.sum(laplace_symbol(geom) * np.abs(dft(geom, u)) ** 2))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
        assert lhs >= 0.0


@given(
    dim=st.integers(1, 3),
    half=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_dft_unitary_round_trip(dim, half, seed):
    geom = build_lattice(dim, half)
    u = random_field(geom, seed)
    coeffs = dft(geom, u)
    assert abs(np.vdot(coeffs, coeffs).real - u @ u) < 1e-10 * max(1.0, u @ u)
    back = idft(geom, coeffs)
    np.testing.assert_allclose(back.real, u, atol=1e-10)
    np.testing.assert_allclose(back.imag, 0.0, atol=1e-10)


def test_coordinate_norms_euclidean():
    geom = build_lattice(2, 2)
    norms = coordinate_norms(geom)
    assert norms[geom.site_index((0, 0))] == 0.0
    assert abs(norms[geom.site_index((1, -2))] - np.sqrt(5.0)) < 1e-14


def test_torus_distance_wraps():
    geom = build_lattice(1, 4)
    a = geom.site_index((-4,))
    b = geom.site_index((4,))
    assert torus_distance(geom, a, b) == 1
    d = torus_distances(geom, geom.site_index((0,)))
    assert d.max() == 4
    geom2 = build_lattice(2, 3)
    x = geom2.site_index((3, 3))
    y = geom2.site_index((-3, -3))
    assert torus_distance(geom2, x, y) == 2

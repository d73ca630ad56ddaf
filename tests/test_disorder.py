from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gplattice import (
    DisorderSpec,
    Region,
    build_lattice,
    dense_matrix,
    provenance_stream,
    restrict_hamiltonian,
    sample_potential,
)

from box_bracketing import partition_into_boxes
from coordinate_reference import flat_realization, site_indices


# --- disorder spec and sampling ---------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(v_max=0.0)
    with pytest.raises(ValueError):
        DisorderSpec(master_seed=-1)


def test_uniform_sample_bounds():
    geom = build_lattice(1, 100)
    spec = DisorderSpec(v_max=0.7, master_seed=1)
    v = sample_potential(spec, geom).potential
    assert v.shape == (geom.n_sites,)
    assert v.min() >= 0.0 and v.max() < 0.7


def test_provenance_reproducible_and_disjoint():
    a = provenance_stream(7, 1, 2, 0).random(8)
    b = provenance_stream(7, 1, 2, 0).random(8)
    np.testing.assert_array_equal(a, b)
    # any change in the triple or channel moves the stream
    for other in [(8, 1, 2, 0), (7, 0, 2, 0), (7, 1, 3, 0), (7, 1, 2, 1)]:
        c = provenance_stream(*other).random(8)
        assert not np.array_equal(a, c)


def test_sample_potential_keyed_by_slot():
    geom = build_lattice(1, 20)
    spec = DisorderSpec(v_max=1.0, master_seed=3)
    v00 = sample_potential(spec, geom, 0, 0).potential
    v00_again = sample_potential(spec, geom, 0, 0).potential
    v01 = sample_potential(spec, geom, 0, 1).potential
    v10 = sample_potential(spec, geom, 1, 0).potential
    np.testing.assert_array_equal(v00, v00_again)
    assert not np.array_equal(v00, v01)
    assert not np.array_equal(v00, v10)


# --- regions and partitions ---------------------------------------------------

def test_region_basic_accessors():
    reg = Region(intervals=((-2, 3), (0, 2)), bc="neumann")
    assert reg.dim == 2
    assert reg.side_lengths() == (3, 2)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(intervals=((0, 0),))
    with pytest.raises(ValueError):
        Region(intervals=((0, 2),), bc="open")
    with pytest.raises(ValueError):
        Region(intervals=())


def test_region_site_indices_by_hand():
    geom = build_lattice(2, 2)  # 5x5, row-major over (axis0, axis1)
    reg = Region(intervals=((1, 2), (-1, 2)))
    idx = site_indices(reg, geom)
    expected = [
        geom.site_index((a, b)) for a in (1, 2) for b in (-1, 0)
    ]
    assert list(idx) == expected


def test_region_wrap_detection():
    geom = build_lattice(1, 3)
    assert not Region(intervals=((2, 2),)).wraps(geom)
    assert Region(intervals=((3, 2),)).wraps(geom)
    assert not Region(intervals=((-3, 7),)).wraps(geom)


def test_partition_example_sides():
    # 17 sites cut with target side 4 -> one 5 and three 4s
    geom = build_lattice(1, 8)
    parts = partition_into_boxes(geom, 4)
    assert [p.side_lengths()[0] for p in parts] == [5, 4, 4, 4]


def test_partition_whole_side_single_box():
    geom = build_lattice(1, 8)
    parts = partition_into_boxes(geom, geom.side)
    assert len(parts) == 1
    assert parts[0].side_lengths() == (17,)


def test_partition_rejects_oversized_box():
    geom = build_lattice(1, 4)
    with pytest.raises(ValueError):
        partition_into_boxes(geom, 10)


@given(
    dim=st.integers(1, 2),
    half=st.integers(2, 10),
    box=st.integers(2, 8),
)
def test_partition_covers_torus_disjointly(dim, half, box):
    geom = build_lattice(dim, half)
    box = min(box, geom.side)
    parts = partition_into_boxes(geom, box)
    seen = np.concatenate([site_indices(p, geom) for p in parts])
    assert len(seen) == geom.n_sites
    assert len(np.unique(seen)) == geom.n_sites
    for p in parts:
        for side in p.side_lengths():
            assert box / 2 <= side <= 2 * box or box == geom.side


@given(half=st.integers(4, 40), box=st.integers(2, 12))
def test_partition_count_bound_for_small_boxes(half, box):
    # piece-count window from the side bounds; meaningful once box <= L
    if box > half:
        box = half
    geom = build_lattice(1, half)
    parts = partition_into_boxes(geom, box)
    n = geom.side
    assert -(-n // (2 * box)) <= len(parts) <= max(1, (2 * half) // box)


# --- restricted operators -----------------------------------------------------

def test_dirichlet_two_site_block():
    # the classic check: sites {1, 3} of the 5-torus keep diagonal 2d
    geom = build_lattice(1, 2)
    real = flat_realization(geom)
    op = restrict_hamiltonian(real, Region(intervals=((1, 2),), bc="dirichlet"))
    np.testing.assert_allclose(dense_matrix(op), [[2.0, -1.0], [-1.0, 2.0]])


def test_neumann_block_has_constant_kernel():
    geom = build_lattice(2, 3)
    real = flat_realization(geom)
    op = restrict_hamiltonian(real, Region(intervals=((-1, 3), (0, 2)), bc="neumann"))
    ones = np.ones(op.n_sites)
    np.testing.assert_allclose(op.apply(ones), 0.0, atol=1e-14)
    w = np.linalg.eigvalsh(dense_matrix(op))
    assert abs(w[0]) < 1e-12


def test_neumann_below_dirichlet():
    geom = build_lattice(1, 10)
    spec = DisorderSpec(v_max=1.0, master_seed=6)
    real = sample_potential(spec, geom)
    reg = Region(intervals=((-3, 6),))
    wd = np.linalg.eigvalsh(dense_matrix(restrict_hamiltonian(real, reg)))
    wn = np.linalg.eigvalsh(
        dense_matrix(restrict_hamiltonian(real, replace(reg, bc="neumann")))
    )
    assert (wn <= wd + 1e-12).all()


def test_restriction_rejects_wrapping_and_partial_periodic():
    geom = build_lattice(1, 3)
    real = flat_realization(geom)
    with pytest.raises(ValueError):
        restrict_hamiltonian(real, Region(intervals=((2, 3),), bc="dirichlet"))
    # the torus itself is periodic_hamiltonian, never a periodic box
    for intervals in (((0, 2),), ((-3, 7),)):
        with pytest.raises(ValueError):
            restrict_hamiltonian(real, Region(intervals=intervals, bc="periodic"))


def test_restricted_potential_follows_sites():
    geom = build_lattice(1, 5)
    spec = DisorderSpec(v_max=1.0, master_seed=12)
    real = sample_potential(spec, geom)
    reg = Region(intervals=((-1, 3),), bc="dirichlet")
    op = restrict_hamiltonian(real, reg)
    sites = site_indices(reg, geom)
    np.testing.assert_array_equal(op.potential, real.potential[sites])
    mat = dense_matrix(op)
    np.testing.assert_allclose(np.diag(mat), 2.0 + real.potential[sites])


@pytest.mark.parametrize("dim, half", [(1, 6), (2, 3), (3, 2)])
def test_restriction_takes_the_potential_at_site_indices(dim, half):
    # site_indices is the oracle for the sliced potential; box sides run up
    # to the torus side
    geom = build_lattice(dim, half)
    real = sample_potential(DisorderSpec(master_seed=4), geom, 0, dim)
    regions = [
        region
        for box in range(1, geom.side + 1)
        for bc in ("dirichlet", "neumann")
        for region in partition_into_boxes(geom, box, bc)
    ]
    for region in regions:
        op = restrict_hamiltonian(real, region)
        assert op.shape == region.side_lengths()
        np.testing.assert_array_equal(op.potential, real.potential[site_indices(region, geom)])


def test_callers_cannot_change_the_cached_shape_data():
    # the Neumann degree and the matrix pattern are cached per shape; writing
    # into what a call returned must not reach the next call
    geom = build_lattice(2, 3)
    real = sample_potential(DisorderSpec(master_seed=5), geom)
    region = Region(intervals=((-2, 4), (0, 3)), bc="neumann")
    op = restrict_hamiltonian(real, region)
    diag, mat = op.diag.copy(), dense_matrix(op)
    want = mat.copy()
    mat[:] = 9.0
    np.testing.assert_array_equal(dense_matrix(op), want)
    op.diag[:] = -7.0
    np.testing.assert_array_equal(restrict_hamiltonian(real, region).diag, diag)
    np.testing.assert_array_equal(dense_matrix(restrict_hamiltonian(real, region)), want)

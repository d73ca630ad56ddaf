import math
import re

import numpy as np
import pytest

from gplattice import (
    DisorderSpec,
    Region,
    build_lattice,
    dense_matrix,
    lowest_eigenpairs,
    periodic_hamiltonian,
    provenance_stream,
    restrict_hamiltonian,
    sample_potential,
)
from gplattice import spectral
from gplattice.disorder import EIG_CHANNEL
from gplattice.lattice import bind_stencil
from gplattice.spectral import (
    FILTER_DEGREE,
    EigenConvergenceError,
    _chebyshev_filter,
    dense_oracle,
)

from coordinate_reference import (
    flat_realization,
    laplace_symbol,
    reference_matrix,
    site_indices,
    torus_distances,
)

SPEC = DisorderSpec(v_max=1.0, master_seed=101)


def make_real(dim, half, sample=0):
    return sample_potential(SPEC, build_lattice(dim, half), 0, sample)


def make_ham(dim, half, sample=0):
    return periodic_hamiltonian(make_real(dim, half, sample))


def assert_matches_reference(op, ref, columns, seed):
    """``dense_matrix(op)`` is ``ref``, and ``op.apply`` agrees with it.

    ``op.apply`` is checked on one field and on C- and Fortran-ordered blocks
    of 1, 2 and ``columns`` columns; a C-ordered block's image is C-ordered.
    """
    np.testing.assert_array_equal(dense_matrix(op), ref)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=op.n_sites)
    np.testing.assert_allclose(op.apply(u), ref @ u, rtol=0, atol=1e-13)
    for width in (1, 2, columns):
        block = rng.normal(size=(op.n_sites, width))
        for ordered in (np.ascontiguousarray, np.asfortranarray):
            got = op.apply(ordered(block))
            assert got.shape == block.shape
            if ordered is np.ascontiguousarray:
                assert got.flags.c_contiguous
            np.testing.assert_allclose(got, ref @ block, rtol=0, atol=1e-13)


def test_dense_matrix_is_symmetric_with_expected_row():
    real = make_real(2, 3)
    ham = periodic_hamiltonian(real)
    mat = dense_matrix(ham)
    np.testing.assert_array_equal(mat, mat.T)
    np.testing.assert_array_equal(mat, reference_matrix(real))
    i = ham.geom.site_index((0, 0))
    assert mat[i, i] == pytest.approx(4.0 + ham.potential[i])
    neighbours = torus_distances(ham.geom, i) == 1
    assert sorted(mat[i, neighbours]) == [-1.0] * 4
    assert np.count_nonzero(mat[i]) == 5


def test_apply_matches_dense():
    for dim, half in [(1, 10), (2, 3), (3, 1)]:
        real = make_real(dim, half)
        ham = periodic_hamiltonian(real)
        assert_matches_reference(ham, reference_matrix(real), 3, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("half", [1, 2])
def test_periodic_stencil_matches_dense(dim, half):
    real = make_real(dim, half)
    ham = periodic_hamiltonian(real)
    assert ham.shape == ham.geom.shape
    assert_matches_reference(ham, reference_matrix(real), 2 * dim + 3, 10 * dim + half)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "dim, intervals",
    [(1, ((-3, 5),)), (2, ((-2, 4), (0, 3))), (3, ((-1, 3), (0, 2), (-2, 3)))],
)
def test_restricted_boxes_match_dense_through_table(dim, bc, intervals):
    real = sample_potential(SPEC, build_lattice(dim, 3), 0, 1)
    region = Region(intervals=intervals, bc=bc)
    op = restrict_hamiltonian(real, region)
    assert_matches_reference(op, reference_matrix(real, region), 2 * dim + 3, dim)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize(
    "dim, half, intervals",
    [
        (2, 3, ((-3, 7), (0, 3))),
        (2, 3, ((1, 3), (-3, 7))),
        (3, 2, ((-2, 5), (0, 3), (-2, 5))),
    ],
)
def test_box_spanning_a_whole_axis_keeps_the_wrap_coupling(dim, half, intervals, bc):
    geom = build_lattice(dim, half)
    real = sample_potential(SPEC, geom, 0, 3)
    region = Region(intervals=intervals, bc=bc)
    op = restrict_hamiltonian(real, region)
    assert_matches_reference(op, reference_matrix(real, region), 2 * dim + 3, 7)
    # the box's corner is coupled to the far end of a spanning axis only
    sites = list(site_indices(region, geom))
    corner = [start for start, _ in intervals]
    row = dense_matrix(op)[sites.index(geom.site_index(corner))]
    for axis, (start, length) in enumerate(intervals):
        far = corner.copy()
        far[axis] = start + length - 1
        coupling = row[sites.index(geom.site_index(far))]
        assert coupling == (-1.0 if length == geom.side else 0.0)


def monic_chebyshev(op, block, cut, upper):
    """The filter's monic three-term recurrence, one ``op.apply`` per step."""
    half = (upper - cut) / 2.0
    center = (upper + cut) / 2.0
    prev, cur = block, op.apply(block) - center * block
    beta = half * half / 2.0
    for _ in range(FILTER_DEGREE - 1):
        prev, cur = cur, op.apply(cur) - center * cur - beta * prev
        beta = half * half / 4.0
    return cur


@pytest.mark.parametrize("lock", [0, 2])
@pytest.mark.parametrize("dim, half", [(1, 10), (2, 4), (3, 2)])
def test_chebyshev_filter_is_the_monic_recurrence(dim, half, lock):
    # the filter rotates two fixed site-major blocks with the stencil's views
    # taken once per order; a locked prefix hands it column slices of the
    # solver's C-ordered block and image.  In float32 it agrees to float32's
    # resolution relative to the scale, and still returns float64
    ham = make_ham(dim, half)
    rng = np.random.default_rng(dim + lock)
    width = 2 * dim + 3
    block = rng.normal(size=(ham.n_sites, width))
    image = ham.apply(block)
    kept = block.copy(), image.copy()
    cut, upper = 2.0 * dim, ham.spectral_bound()
    want = monic_chebyshev(ham, block[:, lock:], cut, upper)
    scale = np.abs(want).max()
    for dtype, rel in ((np.float64, 1e-13), (np.float32, 1e-5)):
        got = _chebyshev_filter(ham, block[:, lock:], image[:, lock:], cut, upper, dtype)
        assert got.shape == (ham.n_sites, width - lock) and got.flags.c_contiguous
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= rel * scale
    # the inputs are read, never overwritten
    np.testing.assert_array_equal(block, kept[0])
    np.testing.assert_array_equal(image, kept[1])


@pytest.mark.parametrize("width", [None, 5], ids=["field", "block"])
@pytest.mark.parametrize(
    "dim, intervals, bc",
    [
        (1, None, "periodic"),
        (2, None, "periodic"),
        (3, None, "periodic"),
        (1, ((-3, 5),), "dirichlet"),
        (2, ((-3, 7), (0, 3)), "dirichlet"),
        (3, ((-1, 3), (0, 2), (-2, 3)), "dirichlet"),
        (1, ((-3, 5),), "neumann"),
        (2, ((1, 3), (-3, 7)), "neumann"),
        (3, ((-3, 7), (0, 3), (-3, 7)), "neumann"),
    ],
    ids=[
        "d1-torus", "d2-torus", "d3-torus",
        "d1-dirichlet", "d2-dirichlet-spanning", "d3-dirichlet",
        "d1-neumann", "d2-neumann-spanning", "d3-neumann-spanning",
    ],
)
def test_stencil_updates_built_once_match_the_stencil(dim, intervals, bc, width):
    # the binding holds views of one (field, out) pair: refilled in place,
    # the pair gets the same result, bit for bit, as a fresh application
    real = make_real(dim, 3, 4)
    if intervals is None:
        op = periodic_hamiltonian(real)
    else:
        op = restrict_hamiltonian(real, Region(intervals=intervals, bc=bc))
    shape = (op.n_sites,) if width is None else (op.n_sites, width)
    diag = op.diag if width is None else op.diag[:, None]
    field, out = np.empty(shape), np.empty(shape)
    neighbours = bind_stencil(op.shape, op.geom.side, field, out)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        field[...] = rng.normal(size=shape)
        np.multiply(diag, field, out=out)
        neighbours()
        np.testing.assert_array_equal(out, op.apply(field))


def test_stencil_updates_need_one_c_ordered_shape():
    shape, side = (7, 7), 7
    block = np.zeros((49, 3))
    with pytest.raises(ValueError):
        bind_stencil(shape, side, block, np.zeros((49, 2)))
    with pytest.raises(ValueError):
        bind_stencil(shape, side, block, np.asfortranarray(block.copy()))
    with pytest.raises(ValueError):
        bind_stencil(shape, side, block[::2], np.zeros((25, 3)))


@pytest.mark.parametrize("dim, half, applies", [(1, 64, 728), (2, 16, 1449), (3, 6, 1331)])
def test_applied_columns_are_pinned(dim, half, applies):
    # a slip in the filter's buffer rotation that only slows convergence
    # still returns converged pairs; the count of applied columns shows it
    sol = lowest_eigenpairs(make_ham(dim, half), 2, tol=1e-10, seed=0)
    assert sol.residuals.max() <= 1e-10
    assert sol.iterations == applies


def float64_only(monkeypatch):
    """Make every filter step run in float64: no residual exceeds infinity."""
    monkeypatch.setattr(spectral, "SINGLE_RESIDUAL", math.inf)


@pytest.mark.parametrize("dim, half", [(1, 64), (2, 16), (3, 6)])
def test_mixed_precision_solve_agrees_with_the_float64_solve(dim, half, monkeypatch):
    # the float32 filter steps only move the path to the answer: the
    # confirmed pairs agree with an all-float64 solve from the same start
    ham = make_ham(dim, half)
    mixed = lowest_eigenpairs(ham, 2, tol=1e-10, seed=0)
    assert 0 < mixed.single_applies < mixed.iterations
    float64_only(monkeypatch)
    full = lowest_eigenpairs(ham, 2, tol=1e-10, seed=0)
    assert full.single_applies == 0
    for sol in (mixed, full):
        assert sol.residuals.max() <= 1e-10
    np.testing.assert_allclose(mixed.values, full.values, rtol=0, atol=1e-12)
    overlaps = np.abs(np.sum(mixed.vectors * full.vectors, axis=0))
    assert overlaps.min() >= 1.0 - 1e-12


def test_strong_disorder_keeps_the_filter_in_float64(monkeypatch):
    # at v_max = 200 the filter's gain on [min V, bound] passes 1e34, so no
    # step runs in float32 and the solve is the float64 solve bit for bit
    geom = build_lattice(1, 128)
    ham = periodic_hamiltonian(sample_potential(DisorderSpec(v_max=200.0, master_seed=7), geom))
    mixed = lowest_eigenpairs(ham, 2, tol=1e-10, seed=1)
    assert mixed.single_applies == 0
    float64_only(monkeypatch)
    full = lowest_eigenpairs(ham, 2, tol=1e-10, seed=1)
    np.testing.assert_array_equal(mixed.values, full.values)
    np.testing.assert_array_equal(mixed.vectors, full.vectors)
    np.testing.assert_array_equal(mixed.residuals, full.residuals)
    assert mixed.iterations == full.iterations


def test_float32_steps_stop_when_the_residual_stalls(monkeypatch):
    # with no residual floor the filter stays in float32 until a step fails
    # to lower the residual; the solve then finishes in float64
    monkeypatch.setattr(spectral, "SINGLE_RESIDUAL", 0.0)
    sol = lowest_eigenpairs(make_ham(2, 16), 2, tol=1e-10, seed=0)
    assert sol.residuals.max() <= 1e-10
    assert 0 < sol.single_applies < sol.iterations


def test_iterative_matches_dense_oracle():
    for dim, half, count in [(1, 20, 4), (2, 5, 4), (3, 2, 6), (1, 64, 2)]:
        ham = make_ham(dim, half)
        ref = dense_oracle(ham)
        assert ref.single_applies == 0
        sol = lowest_eigenpairs(ham, count, tol=1e-10, seed=5)
        assert sol.residuals.max() <= 1e-10
        np.testing.assert_allclose(sol.values, ref.values[:count], atol=1e-9)
        # eigenvectors agree up to sign, as both solvers return them
        for k in range(count):
            overlap = abs(sol.vectors[:, k] @ ref.vectors[:, k])
            gap_ok = (
                k + 1 < ham.n_sites
                and ref.values[k + 1] - ref.values[k] > 1e-6
            )
            if gap_ok:
                assert overlap > 1.0 - 1e-7


def test_contract_residuals_are_fresh():
    ham = make_ham(1, 50)
    sol = lowest_eigenpairs(ham, 3, tol=1e-10, seed=2)
    for k in range(3):
        res = np.linalg.norm(
            ham.apply(sol.vectors[:, k]) - sol.values[k] * sol.vectors[:, k]
        )
        assert res <= 1e-10
        assert abs(res - sol.residuals[k]) < 1e-12


def test_orthonormal_output():
    ham = make_ham(2, 4)
    sol = lowest_eigenpairs(ham, 5, tol=1e-10, seed=7)
    gram = sol.vectors.T @ sol.vectors
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)
    # each returned field is contiguous, as its callers slice it by column
    assert sol.vectors.flags.f_contiguous


def test_degenerate_flat_potential_spectrum():
    # V = 0: eigenvalues are the symbol values, most of them doubly degenerate
    geom = build_lattice(1, 16)
    ham = periodic_hamiltonian(flat_realization(geom))
    assert float(np.abs(ham.potential).max()) == 0.0
    symbol = np.sort(laplace_symbol(geom))
    sol = lowest_eigenpairs(ham, 5, tol=1e-10, seed=3)
    np.testing.assert_allclose(sol.values, symbol[:5], atol=1e-10)
    full = np.linalg.eigvalsh(dense_matrix(ham))
    np.testing.assert_allclose(full, symbol, atol=1e-10)


@pytest.mark.parametrize("dim, half", [(2, 6), (3, 3)])
def test_degenerate_flat_potential_keeps_the_2d_fold_level(dim, half):
    geom = build_lattice(dim, half)
    ham = periodic_hamiltonian(flat_realization(geom))
    symbol = np.sort(laplace_symbol(geom))
    count = 2 * dim + 1
    sol = lowest_eigenpairs(ham, count, tol=1e-10, seed=3)
    assert sol.residuals.max() <= 1e-10
    np.testing.assert_allclose(sol.values, symbol[:count], atol=1e-10)
    # the constant ground state, then the whole first excited level
    level = sol.vectors[:, 1:]
    assert level.shape[1] == 2 * dim
    np.testing.assert_allclose(ham.apply(level), symbol[1] * level, atol=1e-9)
    np.testing.assert_allclose(level.T @ level, np.eye(2 * dim), atol=1e-12)


def test_small_gap_sample_converges_to_the_dense_oracle():
    # master seed 3, L=128, sample 1: the two lowest levels are 1.9e-5 apart
    geom = build_lattice(1, 128)
    spec = DisorderSpec(master_seed=3)
    ham = periodic_hamiltonian(sample_potential(spec, geom, 0, 1))
    ref = dense_oracle(ham)
    assert 1e-5 < ref.values[1] - ref.values[0] < 2e-5
    sol = lowest_eigenpairs(ham, 2, tol=1e-10, seed=provenance_stream(3, 0, 1, EIG_CHANNEL))
    assert sol.residuals.max() <= 1e-10
    fresh = np.linalg.norm(ham.apply(sol.vectors) - sol.vectors * sol.values, axis=0)
    assert fresh.max() <= 1e-10
    np.testing.assert_allclose(sol.values, ref.values[:2], rtol=0, atol=1e-12)
    overlaps = np.abs(np.sum(sol.vectors * ref.vectors[:, :2], axis=0))
    np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-12)


def test_deep_ground_state_does_not_stall_the_pair_above():
    # master seed 0, L=512, L index 3, sample 20: e0 sits 0.034 below a tight
    # cluster of five levels; filtering e0's column with the rest swamped the
    # second pair in the QR, whose residual stalled at 1.26e-10
    geom = build_lattice(1, 512)
    ham = periodic_hamiltonian(sample_potential(DisorderSpec(master_seed=0), geom, 3, 20))
    sol = lowest_eigenpairs(ham, 2, tol=1e-10, seed=provenance_stream(0, 3, 20, EIG_CHANNEL))
    assert sol.residuals.max() <= 1e-10
    ref = dense_oracle(ham)
    np.testing.assert_allclose(sol.values, ref.values[:2], rtol=0, atol=1e-12)
    # one QR per outer step still returns an orthonormal pair
    np.testing.assert_allclose(sol.vectors.T @ sol.vectors, np.eye(2), rtol=0, atol=1e-12)


def test_budget_exhaustion_raises_and_names_best_residuals():
    ham = make_ham(2, 10)
    with pytest.raises(EigenConvergenceError) as info:
        # no residual reaches 1e-300, so the whole budget is spent
        lowest_eigenpairs(ham, 4, tol=1e-300, seed=1)
    message = str(info.value)
    assert message.startswith("no convergence after ")
    # the four smallest residuals found, each far above the tolerance
    best = re.search(r"best residuals \[(.*)\]$", message)
    assert best is not None, message
    residuals = [float(r) for r in best.group(1).split()]
    assert len(residuals) == 4
    assert all(1e-300 < r < 1.0 for r in residuals)


def test_invalid_arguments():
    ham = make_ham(1, 5)
    with pytest.raises(ValueError):
        lowest_eigenpairs(ham, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(ham, ham.n_sites + 1)
    with pytest.raises(ValueError):
        lowest_eigenpairs(ham, 2, tol=0.0)


@pytest.mark.parametrize("tol", [-1e-10, math.inf, math.nan])
def test_tolerance_outside_zero_to_infinity_is_refused(tol):
    # an infinite tolerance accepted the random start's Ritz pairs as
    # converged; a NaN one never accepted any and spent the whole budget
    with pytest.raises(ValueError, match="tol"):
        lowest_eigenpairs(make_ham(1, 64), 2, tol=tol)


def test_dense_oracle_rejects_oversize():
    geom = build_lattice(1, 3000)
    ham = periodic_hamiltonian(sample_potential(SPEC, geom, 0, 6))
    with pytest.raises(ValueError, match="dense oracle limited"):
        dense_oracle(ham)


def test_spectral_bound_dominates():
    ham = make_ham(3, 1)
    w = np.linalg.eigvalsh(dense_matrix(ham))
    assert w[-1] <= ham.spectral_bound() + 1e-12

import math
import mmap
import re
from dataclasses import replace

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
from gplattice.disorder import EIG_CHANNEL, DisorderRealization
from gplattice.lattice import bind_padded_stencil, bind_stencil
from gplattice.spectral import (
    FILTER_DEGREE,
    MAX_DEGREE,
    EigenConvergenceError,
    _chebyshev_filter,
    _filter_degree,
    _FilterWorkspace,
    _rayleigh_ritz,
)

from coordinate_reference import (
    flat_realization,
    laplace_symbol,
    reference_matrix,
    site_indices,
    torus_distances,
)
from dense_reference import dense_oracle

SPEC = DisorderSpec(v_max=1.0, master_seed=101)
STRONG = DisorderSpec(v_max=200.0, master_seed=7)


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
    assert mat[i, i] == pytest.approx(4.0 + real.potential[i])
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


def monic_chebyshev(op, block, cut, upper, degree):
    """The filter's monic three-term recurrence, one ``op.apply`` per step.

    After every step both iterates are divided by the newer one's largest
    entry, which keeps each column's direction and every value finite.
    """
    half = (upper - cut) / 2.0
    center = (upper + cut) / 2.0
    prev, cur = block, op.apply(block) - center * block
    beta = half * half / 2.0
    for _ in range(degree - 1):
        prev, cur = cur, op.apply(cur) - center * cur - beta * prev
        scale = np.abs(cur).max()
        prev, cur = prev / scale, cur / scale
        beta = half * half / 4.0
    return cur


def column_directions(block):
    """Each column divided by its entry of largest magnitude."""
    return block / np.abs(block).max(axis=0)


def log_filter_calls(monkeypatch, note):
    """Log every filter call of later solves, then run it.

    Before each call, ``note(block, degree, dtype)`` is appended to the
    returned list.
    """
    calls = []

    def logged(work, block, image, cut, degree, dtype):
        calls.append(note(block, degree, dtype))
        _chebyshev_filter(work, block, image, cut, degree, dtype)

    monkeypatch.setattr(spectral, "_chebyshev_filter", logged)
    return calls


@pytest.mark.parametrize("lock", [0, 2])
@pytest.mark.parametrize(
    "dim, half, intervals, bc",
    [
        (1, 10, None, "periodic"),
        (2, 4, None, "periodic"),
        (3, 2, None, "periodic"),
        (1, 10, ((-4, 13),), "dirichlet"),
        (2, 4, ((-3, 6), (-2, 4)), "dirichlet"),
        (2, 4, ((-1, 5), (-4, 9)), "neumann"),
        (3, 2, ((-1, 3), (0, 2), (-2, 5)), "dirichlet"),
        (3, 2, ((-2, 5), (-1, 3), (0, 2)), "neumann"),
    ],
    ids=[
        "1-10", "2-4", "3-2",
        "d1-dirichlet-short", "d2-dirichlet-short", "d2-neumann-spanning",
        "d3-dirichlet-spanning", "d3-neumann-short",
    ],
)
def test_chebyshev_filter_is_the_monic_recurrence(dim, half, intervals, bc, lock):
    # the filter rotates two fixed blocks, whose views and stencil orders its
    # workspace builds once per (k, dtype); a locked prefix hands it column
    # slices of the solver's C-ordered block and image.  In every d the blocks' innermost
    # rows end in ghost sites, periodic images on an axis that spans the
    # torus and zeros on a box axis cut short; the reference applies the
    # operator's own stencil.  In either precision the filter writes, in
    # float64, the monic recurrence times a positive power of two over the
    # columns it was given, so columns are compared by direction; float32
    # agrees to its resolution.  At degree 47 in d = 2 and 3 the float32
    # gain passes its range and the filter rescales.  A sized call may ask
    # for any degree, down to 1, where no step runs
    real = make_real(dim, half)
    if intervals is None:
        ham = periodic_hamiltonian(real)
    else:
        ham = restrict_hamiltonian(real, Region(intervals=intervals, bc=bc))
    rng = np.random.default_rng(dim + lock)
    width = 2 * dim + 3
    start = rng.normal(size=(ham.n_sites, width))
    image = ham.apply(start)
    kept = image.copy()
    block = np.empty_like(start)
    # one workspace serves every call, as in a solve
    work = _FilterWorkspace(ham, width)
    cut, upper = 2.0 * dim, ham.spectral_bound()
    for degree in (1, 2, FILTER_DEGREE, 47):
        want = column_directions(monic_chebyshev(ham, start[:, lock:], cut, upper, degree))
        for dtype, rel in [(np.float64, 1e-13), (np.float32, 1e-5)]:
            # two consecutive calls on the same workspace: the second reuses
            # the first call's views, and stale buffers may hold anything, so
            # the filter zeroes every ghost on each entry, or the first step
            # overflows on them
            for call in range(2):
                work.buffers.view(np.float32)[:] = np.finfo(np.float32).max
                block[...] = start
                assert _chebyshev_filter(
                    work, block[:, lock:], image[:, lock:], cut, degree, dtype
                ) is None
                # the filter overwrites exactly the columns it was given: the
                # locked prefix and the images stay as they were
                got = block[:, lock:]
                assert np.abs(column_directions(got) - want).max() <= rel, (degree, dtype, call)
                np.testing.assert_array_equal(block[:, :lock], start[:, :lock])
                np.testing.assert_array_equal(image, kept)


def log_workspaces(monkeypatch):
    """Log the width of every filter workspace later solves build."""
    widths = []

    def workspace(op, width):
        widths.append(width)
        return _FilterWorkspace(op, width)

    monkeypatch.setattr(spectral, "_FilterWorkspace", workspace)
    return widths


@pytest.mark.parametrize("dim, half", [(1, 64), (2, 8)])
def test_a_solve_binds_each_filter_order_once(dim, half, monkeypatch):
    # a solve builds one workspace, which builds the filter's views and binds
    # the stencil to both orders of the rotating pair once per (k, dtype): a
    # later call of the same width and precision reuses them
    ham = make_ham(dim, half)
    bound = []

    def binding(shape, side, field, out):
        bound.append((field.shape[-1], field.dtype, field.ctypes.data))
        return bind_padded_stencil(shape, side, field, out)

    monkeypatch.setattr(spectral, "bind_padded_stencil", binding)
    filtered = log_filter_calls(
        monkeypatch, lambda block, degree, dtype: (block.shape[1], np.dtype(dtype))
    )
    workspaces = log_workspaces(monkeypatch)
    sol = lowest_eigenpairs(ham, 2, tol=1e-10, seed=provenance_stream(0, 0, 0, EIG_CHANNEL))
    assert sol.residuals.max() <= 1e-10
    assert workspaces == [max(2 + 4, 2 * dim + 3)]
    # some (k, dtype) serves more than one call, so a binding per call would show
    assert len(set(filtered)) < len(filtered), filtered
    assert len(bound) == len(set(bound)), bound
    assert {(k, dtype) for k, dtype, _ in bound} == set(filtered)
    assert len(bound) == 2 * len(set(filtered))


def test_a_whole_space_solve_builds_no_filter_workspace(monkeypatch):
    # 11 sites against a block of 6: the first Rayleigh-Ritz step is exact
    workspaces = log_workspaces(monkeypatch)
    filtered = log_filter_calls(monkeypatch, lambda block, degree, dtype: degree)
    sol = lowest_eigenpairs(make_ham(1, 5), 2, tol=1e-10, seed=0)
    assert sol.residuals.max() <= 1e-10
    assert workspaces == filtered == []


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
        "d1-dirichlet-short", "d2-dirichlet-short", "d3-dirichlet-short",
        "d1-neumann-short", "d2-neumann-spanning", "d3-neumann-spanning",
    ],
)
def test_padded_stencil_matches_the_stencil(dim, intervals, bc):
    # a block whose innermost rows end in ghost sites: refilled in place,
    # with stale ghosts, the pair's interior gets the stencil's result up to
    # the round-off of the flat stencil's row-end corrections, and the field
    # keeps its interior
    real = make_real(dim, 3, 4)
    if intervals is None:
        op = periodic_hamiltonian(real)
    else:
        op = restrict_hamiltonian(real, Region(intervals=intervals, bc=bc))
    m, width = op.shape[-1], 5
    padded = (op.n_sites // m, m + 2, width)
    field, out = np.full(padded, 7.0), np.full(padded, 7.0)
    neighbours = bind_padded_stencil(op.shape, op.geom.side, field, out)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        block = rng.normal(size=(op.n_sites, width))
        field[:, 1:-1] = block.reshape(padded[0], m, width)
        out[:, 1:-1] = (op.diag[:, None] * block).reshape(padded[0], m, width)
        neighbours()
        np.testing.assert_array_equal(field[:, 1:-1].reshape(block.shape), block)
        got = out[:, 1:-1].reshape(block.shape)
        np.testing.assert_allclose(got, op.apply(block), rtol=0, atol=1e-13)
        out[...] = field[...] = rng.normal(size=padded)


@pytest.mark.parametrize("dim, half", [(1, 64), (2, 8), (3, 3)])
def test_filter_buffers_are_four_page_aligned_padded_blocks(dim, half):
    # the filter pads its blocks in every d, a d = 1 torus as one row: each
    # of the four blocks starts on a page of its own and holds a padded
    # block of the solve's width in float64, the wider precision
    ham = make_ham(dim, half)
    width = 2 * dim + 3
    m = ham.shape[-1]
    buffers = _FilterWorkspace(ham, width).buffers
    assert buffers.shape[0] == 4
    for row in buffers:
        assert row.ctypes.data % mmap.PAGESIZE == 0
        assert row.view(np.float64).size >= ham.n_sites // m * (m + 2) * width


def test_stencil_updates_need_one_c_ordered_shape():
    shape, side = (7, 7), 7
    block = np.zeros((49, 3))
    with pytest.raises(ValueError):
        bind_stencil(shape, side, block, np.zeros((49, 2)))
    with pytest.raises(ValueError):
        bind_stencil(shape, side, block, np.asfortranarray(block.copy()))
    with pytest.raises(ValueError):
        bind_stencil(shape, side, block[::2], np.zeros((25, 3)))
    # a padded block holds its 7 rows with two ghosts each
    with pytest.raises(ValueError):
        bind_padded_stencil(shape, side, block.reshape(7, 7, 3), np.zeros((7, 7, 3)))
    padded = np.zeros((7, 9, 3))
    bind_padded_stencil(shape, side, padded, padded.copy())


def fixed_degree(monkeypatch):
    """Make every filter call take ``FILTER_DEGREE``, as before calls were sized:
    no cut is large enough to size the next call."""
    monkeypatch.setattr(spectral, "STALL_FACTOR", math.inf)


@pytest.mark.parametrize(
    "dim, half, applies, sized",
    [
        (1, 64, 728, False), (2, 16, 1449, False), (3, 6, 1331, False),
        (1, 64, 582, True), (2, 16, 1026, True), (3, 6, 981, True),
    ],
    ids=[
        "1-64-728", "2-16-1449", "3-6-1331",
        "sized-1-64-582", "sized-2-16-1026", "sized-3-6-981",
    ],
)
def test_applied_columns_are_pinned(dim, half, applies, sized, monkeypatch):
    # a slip in the filter's buffer rotation that only slows convergence
    # still returns converged pairs; the count of applied columns shows it.
    # The fixed-degree solve is the solver before calls were sized; the
    # sized solve confirms the same pairs
    ham = make_ham(dim, half)
    sol = lowest_eigenpairs(ham, 2, tol=1e-10, seed=0)
    fixed_degree(monkeypatch)
    fixed = lowest_eigenpairs(ham, 2, tol=1e-10, seed=0)
    if not sized:
        sol = fixed
    assert sol.residuals.max() <= 1e-10
    assert sol.iterations == applies
    np.testing.assert_allclose(sol.values, fixed.values, rtol=0, atol=1e-12)
    overlaps = np.abs(np.sum(sol.vectors * fixed.vectors, axis=0))
    assert overlaps.min() >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "dim, half, spec, sample, stalls",
    [(2, 16, SPEC, 0, False), (1, 64, SPEC, 0, False), (1, 128, STRONG, 1, True)],
    ids=["2-16", "1-64", "strong-1-128"],
)
def test_a_sized_float64_call_filters_only_the_wanted_fields(
    dim, half, spec, sample, stalls, monkeypatch
):
    # the width - count extra fields only hold the filter's cut: a float64
    # call sized from the previous call's contraction filters the unlocked
    # wanted fields alone, while the first call, a call after a stall and
    # every float32 call filter the whole unlocked block.  A call that is
    # not sized, the first or one after a stall, takes FILTER_DEGREE.  The
    # strong case ends its float32 phase in a stall and then locks its
    # ground state
    ham = periodic_hamiltonian(sample_potential(spec, build_lattice(dim, half), 0, sample))
    count, tol = 2, 1e-10
    width = max(count + 4, 2 * dim + 3)
    steps = []

    def ritz(basis, image):
        steps.append(_rayleigh_ritz(basis, image))
        return steps[-1]

    def note(block, degree, dtype):
        # the wanted residuals the solver read before this call: those of
        # the last Rayleigh-Ritz step, or the fresh ones if it failed to
        # confirm them
        vals, vecs, images = steps[-1]
        head = vecs[:, :count]
        res = np.linalg.norm(images[:, :count] - head * vals[:count], axis=0)
        if res.max() <= tol:
            res = np.linalg.norm(ham.apply(head) - head * vals[:count], axis=0)
        return block.shape[1], degree, dtype, res

    monkeypatch.setattr(spectral, "_rayleigh_ritz", ritz)
    calls = log_filter_calls(monkeypatch, note)
    seed = provenance_stream(spec.master_seed, 0, sample, EIG_CHANNEL)
    sol = lowest_eigenpairs(ham, count, tol=tol, seed=seed)
    assert sol.residuals.max() <= tol
    last, kinds, locks = math.inf, set(), []
    for step, (columns, degree, dtype, res) in enumerate(calls):
        lock, worst = int(np.argmin(res <= tol)), res.max()
        sized = step > 0 and worst * spectral.STALL_FACTOR <= last
        narrow = sized and dtype == np.float64
        assert columns == (count if narrow else width) - lock, (step, calls)
        assert sized or degree == FILTER_DEGREE, (step, calls)
        kinds.add((sized, np.dtype(dtype).name))
        locks.append(lock)
        last = worst
    assert (True, "float64") in kinds
    assert ((False, "float64") in kinds) == stalls
    assert (max(locks) > 0) == stalls
    applied = sum(columns * degree for columns, degree, _, _ in calls)
    assert sol.iterations == width + applied + count


@pytest.mark.parametrize(
    "master_seed, v_max, count",
    [(seed, 0.01, 2) for seed in range(6)] + [(SPEC.master_seed, 1.0, 10)],
    ids=[f"near-free-{seed}" for seed in range(6)] + ["count-10"],
)
def test_pairs_beside_a_near_free_level_match_the_dense_reference(master_seed, v_max, count):
    # at v_max 0.01 the 4-fold free first excited level sits next to the
    # wanted pair, and a sized float64 call leaves its partners in the
    # unfiltered extra fields; the pairs still converge to the dense ones
    spec = DisorderSpec(v_max=v_max, master_seed=master_seed)
    ham = periodic_hamiltonian(sample_potential(spec, build_lattice(2, 16)))
    sol = lowest_eigenpairs(
        ham, count, tol=1e-10, seed=provenance_stream(master_seed, 0, 0, EIG_CHANNEL)
    )
    assert sol.residuals.max() <= 1e-10
    ref = dense_oracle(ham)
    np.testing.assert_allclose(sol.values, ref.values[:count], rtol=0, atol=1e-10)
    overlaps = np.abs(np.sum(sol.vectors * ref.vectors[:, :count], axis=0))
    assert overlaps.min() >= 1.0 - 1e-10


def test_a_long_filter_call_under_strong_disorder_stays_finite():
    # at v_max = 1e4 a degree-MAX_DEGREE filter's gain on the spectrum is
    # far beyond float64's range, let alone float32's; the filter rescales
    # its recurrence and writes finite columns of the filter's direction
    ham = periodic_hamiltonian(
        sample_potential(DisorderSpec(v_max=1e4, master_seed=7), build_lattice(1, 64))
    )
    upper = ham.spectral_bound()
    # the last Ritz value of a solved block of 6 fields, as in a count-2 solve
    cut = np.linalg.eigvalsh(dense_matrix(ham))[5]
    block = np.linalg.qr(np.random.default_rng(7).normal(size=(ham.n_sites, 6)))[0]
    image = ham.apply(block)
    want = column_directions(monic_chebyshev(ham, block, cut, upper, MAX_DEGREE))
    for dtype, rel in [(np.float64, 1e-13), (np.float32, 1e-5)]:
        got = block.copy()
        _chebyshev_filter(_FilterWorkspace(ham, 6), got, image, cut, MAX_DEGREE, dtype)
        assert np.isfinite(got).all(), dtype
        assert np.abs(column_directions(got) - want).max() <= rel, dtype


def test_a_sized_call_is_clipped_to_one_to_max_degree():
    # the size the contraction asks for, clipped to [1, MAX_DEGREE]
    upper = 5.0

    def degree(worst, last, single):
        return _filter_degree(worst, last, FILTER_DEGREE, single, 1e-10, upper)

    # a tenfold cut per 30 degrees asks for 280 to reach tol / 2
    assert degree(0.1, 1.0, False) == MAX_DEGREE
    # a hundredfold cut per 30 degrees takes 1e-2 to tol / 2 in 125
    assert degree(1e-2, 1.0, False) == 125
    # a residual already below float32's target 2e-5 * upper asks for none
    assert degree(1e-5, 1.0, True) == 1


def float64_only(monkeypatch):
    """Make every filter step run in float64: no residual exceeds infinity."""
    monkeypatch.setattr(spectral, "SINGLE_RESIDUAL", math.inf)


@pytest.mark.parametrize(
    "dim, half, spec, seed",
    [(1, 64, SPEC, 0), (2, 16, SPEC, 0), (3, 6, SPEC, 0), (1, 128, STRONG, 1)],
    ids=["1-64", "2-16", "3-6", "strong-1-128"],
)
def test_mixed_precision_solve_agrees_with_the_float64_solve(
    dim, half, spec, seed, monkeypatch
):
    # the float32 filter steps only move the path to the answer: the
    # confirmed pairs agree with an all-float64 solve from the same start
    ham = periodic_hamiltonian(sample_potential(spec, build_lattice(dim, half)))
    mixed = lowest_eigenpairs(ham, 2, tol=1e-10, seed=seed)
    assert 0 < mixed.single_applies < mixed.iterations
    float64_only(monkeypatch)
    full = lowest_eigenpairs(ham, 2, tol=1e-10, seed=seed)
    assert full.single_applies == 0
    for sol in (mixed, full):
        assert sol.residuals.max() <= 1e-10
    np.testing.assert_allclose(mixed.values, full.values, rtol=0, atol=1e-12)
    overlaps = np.abs(np.sum(mixed.vectors * full.vectors, axis=0))
    assert overlaps.min() >= 1.0 - 1e-12


@pytest.mark.parametrize("sample", range(4))
@pytest.mark.parametrize("dim, half", [(1, 128), (2, 16)])
def test_strong_disorder_filters_in_float32_at_full_degree(dim, half, sample, monkeypatch):
    # at v_max = 1e4 the first float32 call takes FILTER_DEGREE, where a
    # degree cap for float32's range once took 8, and the mixed solve takes
    # about as many outer steps as the all-float64 one (d = 2 took 11-25
    # against 4-6 under that cap).  Up to 3 more: at d = 2 sample 0 the
    # float32 phase ends in a short call that stalls, and a top-up call
    # follows the float64 one
    spec = DisorderSpec(v_max=1e4, master_seed=7)
    ham = periodic_hamiltonian(sample_potential(spec, build_lattice(dim, half), 0, sample))
    calls = log_filter_calls(monkeypatch, lambda block, degree, dtype: (degree, dtype))
    seed = provenance_stream(spec.master_seed, 0, sample, EIG_CHANNEL)
    mixed = lowest_eigenpairs(ham, 2, tol=1e-10, seed=seed)
    mixed_steps = len(calls)
    assert calls[0] == (FILTER_DEGREE, np.float32)
    calls.clear()
    float64_only(monkeypatch)
    seed = provenance_stream(spec.master_seed, 0, sample, EIG_CHANNEL)
    full = lowest_eigenpairs(ham, 2, tol=1e-10, seed=seed)
    assert full.single_applies == 0
    assert mixed_steps <= len(calls) + 3, (mixed_steps, len(calls))
    for sol in (mixed, full):
        assert sol.residuals.max() <= 1e-10
    np.testing.assert_allclose(mixed.values, full.values, rtol=0, atol=1e-12)
    overlaps = np.abs(np.sum(mixed.vectors * full.vectors, axis=0))
    assert overlaps.min() >= 1.0 - 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=EigenConvergenceError,
    reason="once a float32 call cuts the worst residual less than STALL_FACTOR, "
    "every later call keeps FILTER_DEGREE and cuts it only 2-10x, so the solve "
    "runs out of its 10800 applications; the float64-only solve converges",
)
@pytest.mark.parametrize("master_seed", [1, 5])
def test_strong_disorder_d3_solve_converges(master_seed):
    spec = DisorderSpec(v_max=1e4, master_seed=master_seed)
    ham = periodic_hamiltonian(sample_potential(spec, build_lattice(3, 10), 0, 0))
    seed = provenance_stream(master_seed, 0, 0, EIG_CHANNEL)
    sol = lowest_eigenpairs(ham, 2, tol=1e-10, seed=seed)
    assert sol.residuals.max() <= 1e-10


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
    np.testing.assert_array_equal(ham.diag, 2.0)
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


@pytest.mark.parametrize("dim, half", [(1, 6), (2, 3), (3, 1)])
@pytest.mark.parametrize("operator", ["torus", "dirichlet", "neumann", "shifted"])
def test_spectral_bound_dominates(operator, dim, half):
    # Gershgorin: every row has at most 2d off-diagonal entries, each -1, so
    # [min diag - 2d, max diag + 2d] holds the spectrum for any diagonal:
    # potentials with negative entries, boxes with a wrapped and a cut axis,
    # and a torus whose diagonal is raised by w >= 0 (up to 10d)
    geom = build_lattice(dim, half)
    rng = np.random.default_rng(dim)
    real = DisorderRealization(geom, rng.uniform(-3.0, 1.0, geom.n_sites))
    if operator in ("dirichlet", "neumann"):
        intervals = ((1 - half, 2 * half),) + ((-half, geom.side),) * (dim - 1)
        op = restrict_hamiltonian(real, Region(intervals, bc=operator))
    else:
        op = periodic_hamiltonian(real)
    if operator == "shifted":
        op = replace(op, diag=op.diag + np.linspace(0.0, 10.0 * dim, op.n_sites))
    w = np.linalg.eigvalsh(dense_matrix(op))
    assert float(op.diag.min()) - 2.0 * dim - 1e-12 <= w[0]
    assert w[-1] <= op.spectral_bound() + 1e-12


def free_cluster_errors(seeds):
    """Errors of the d = 3, L = 2, count 10 solve at v_max 0.01, per master seed.

    A nearly free spectrum on a torus of 125 sites, too large to be solved
    whole: the block of 14 ends inside the 12-fold second excited free
    level.  Each seed's potential and solver seed are those of its first
    sample, as ``replay_sample`` draws them.
    """
    geom = build_lattice(3, 2)
    errors = {}
    for seed in seeds:
        spec = DisorderSpec(v_max=0.01, master_seed=seed)
        ham = periodic_hamiltonian(sample_potential(spec, geom))
        try:
            lowest_eigenpairs(
                ham, 10, tol=1e-10, seed=provenance_stream(seed, 0, 0, EIG_CHANNEL)
            )
            errors[seed] = None
        except EigenConvergenceError as exc:
            errors[seed] = str(exc)
    return errors


def test_a_stalled_solve_keeps_the_fixed_degree():
    # the wanted residuals fall unevenly here: without the stall guard, long
    # calls sized from one call's chance drop spend the budget on all six
    # seeds.  With it, the seeds that converge at a fixed degree still do
    assert free_cluster_errors((0, 1, 4)) == dict.fromkeys((0, 1, 4))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the block of 14 ends inside the 12-fold second excited free level, "
    "and the filter stalls on master seeds 2, 3 and 5",
)
def test_block_edge_inside_a_free_cluster_converges():
    errors = free_cluster_errors(range(6))
    assert errors == dict.fromkeys(range(6)), errors

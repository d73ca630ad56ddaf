"""Correctness gate for benchmark outputs.

Every record of a timed run is checked three ways:

* it carries no ``error`` and passes ``record_invariant_errors``;
* its ``e0`` and ``e1`` lie within ``ORACLE_TOL`` of the two lowest
  eigenvalues of a Hamiltonian rebuilt without gplattice: the potential is
  redrawn from the documented Philox stream and the operator is assembled
  here.  In 1D the check is a Sylvester inertia count of H - s for
  s = e -+ ORACLE_TOL (O(n) per shift, batched over records); in higher
  dimensions the eigenvalues come from ``scipy.sparse.linalg.eigsh``;
* the run holds exactly one record per planned (L index, sample index).

A fixed reference plan per workload is also run through the CLI and compared
with the values committed in ``reference.json`` within ``REFERENCE_TOL``.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from gplattice.ensemble import record_invariant_errors

# eigenpairs are solved to residual 1e-10, so eigenvalues sit well inside this
ORACLE_TOL = 1e-8
# compared record fields and their tolerance against the committed reference
REFERENCE_FIELDS = ("e0", "e1", "e_gp", "gap", "overlap")
REFERENCE_TOL = 1e-8

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def uniform_potential(master_seed, l_index, sample_index, n_sites, v_max):
    """The uniform potential gplattice promises for a provenance slot."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(l_index, sample_index, 0))
    return v_max * np.random.Generator(np.random.Philox(seq)).random(n_sites)


@functools.cache
def _neg_laplacian(dim: int, half_side: int) -> sp.csr_matrix:
    """-Laplacian on the torus {-L..L}^d, sites in row-major order."""
    side = 2 * half_side + 1
    ring = sp.lil_matrix((side, side))
    for i in range(side):
        ring[i, i] += 2.0
        ring[i, (i + 1) % side] -= 1.0
        ring[i, (i - 1) % side] -= 1.0
    lap = sp.csr_matrix((side**dim, side**dim))
    for axis in range(dim):
        term = sp.identity(1, format="csr")
        for other in range(dim):
            factor = ring if other == axis else sp.identity(side)
            term = sp.kron(term, factor, format="csr")
        lap = lap + term
    return lap


def eigsh_lowest_two(dim: int, half_side: int, potential: np.ndarray) -> np.ndarray:
    """The two lowest eigenvalues of -Laplacian + V by ``eigsh``."""
    mat = (_neg_laplacian(dim, half_side) + sp.diags(potential)).tocsr()
    vals = scipy.sparse.linalg.eigsh(
        mat, k=2, which="SA", tol=1e-13, v0=np.ones(potential.size),
        return_eigenvectors=False,
    )
    return np.sort(vals)


def chain_counts_below(diag: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues below ``shifts[j]`` of the periodic chain with diagonal ``diag[j]``.

    Inertia of A = H - s through A = L D L^T in site order (Sylvester's law:
    the count is the number of negative pivots).  Chain couplings are -1;
    the wrap-around coupling (0, n-1) only fills the last column, carried as
    ``u`` and folded into the last pivot.  ``diag`` has shape (k, n >= 3).
    """
    k, n = diag.shape
    d = diag[:, 0] - shifts
    u = np.full(k, -1.0)          # A[0, n-1], the wrap-around coupling
    count = (d < 0).astype(np.int64)
    schur = u * u / d
    for i in range(1, n - 1):
        inv = 1.0 / d
        d = diag[:, i] - shifts - inv
        d = np.where(d == 0.0, -1e-300, d)
        u = u * inv - (1.0 if i == n - 2 else 0.0)
        count += d < 0
        schur += u * u / d
    count += diag[:, n - 1] - shifts - schur < 0
    return count


def _chain_pass(potentials: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """True where e0, e1 are the two lowest eigenvalues to within ORACLE_TOL."""
    k = potentials.shape[0]
    diag = np.tile(2.0 + potentials, (4, 1))
    shifts = np.concatenate(
        [e0 - ORACLE_TOL, e0 + ORACLE_TOL, e1 - ORACLE_TOL, e1 + ORACLE_TOL]
    )
    c = chain_counts_below(diag, shifts).reshape(4, k)
    return (c[0] == 0) & (c[1] >= 1) & (c[2] <= 1) & (c[3] >= 2)


def oracle_failures(records, v_max: float) -> set[int]:
    """Indices of ``records`` whose e0/e1 leave the oracle tolerance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault((rec.dim, rec.half_side), []).append(i)
    bad = set()
    for (dim, half_side), index in groups.items():
        n = (2 * half_side + 1) ** dim
        pots = np.stack([
            uniform_potential(records[i].master_seed, records[i].l_index,
                              records[i].sample_index, n, v_max)
            for i in index
        ])
        e0 = np.array([records[i].e0 for i in index])
        e1 = np.array([records[i].e1 for i in index])
        if dim == 1 and n >= 3:
            ok = _chain_pass(pots, e0, e1)
        else:
            want = np.array([eigsh_lowest_two(dim, half_side, p) for p in pots])
            ok = (np.abs(want[:, 0] - e0) <= ORACLE_TOL) & (np.abs(want[:, 1] - e1) <= ORACLE_TOL)
        bad.update(i for i, good in zip(index, ok) if not good)
    return bad


def gate_records(records, master_seed: int, n_l: int, samples: int, v_max: float):
    """Gate one round's records.

    Returns (samples attempted, samples failed, samples wrong, problems).  A
    sample fails when its record carries an ``error``, is missing, or is
    wrong; it is wrong when a record exists but breaks an invariant, leaves
    the oracle tolerance, or was never planned.  An ``error`` record is the
    program reporting its own failure, so it is failed but not wrong.
    """
    expected = {(l, s) for l in range(n_l) for s in range(samples)}
    healthy = [r for r in records if r.error is None]
    off_oracle = {id(healthy[i]) for i in oracle_failures(healthy, v_max)}
    seen: dict[tuple[int, int], int] = {}
    failed = wrong = 0
    problems: list[str] = []
    for record in records:
        key = (record.l_index, record.sample_index)
        seen[key] = seen.get(key, 0) + 1
        tag = f"seed={record.master_seed} L={record.half_side} sample={record.sample_index}"
        if record.error is not None:
            failed += 1
            problems.append(f"{tag}: error {record.error}")
            continue
        found = record_invariant_errors(record)
        if id(record) in off_oracle:
            found.append(f"e0={record.e0!r}, e1={record.e1!r} leave the oracle tolerance")
        if record.master_seed != master_seed or key not in expected:
            found.append("record was not planned")
        if found:
            failed += 1
            wrong += 1
            problems += [f"{tag}: {msg}" for msg in found]
    missing = expected - seen.keys()
    doubled = [k for k, n in seen.items() if n > 1]
    if missing or doubled:
        failed += len(missing) + len(doubled)
        wrong += len(missing) + len(doubled)
        problems.append(
            f"seed={master_seed}: missing records {sorted(missing)[:5]}, "
            f"repeated records {sorted(doubled)[:5]}"
        )
    return len(expected), failed, wrong, problems


def reference_row(record) -> dict:
    row = {"l_index": record.l_index, "sample_index": record.sample_index}
    row.update({name: getattr(record, name) for name in REFERENCE_FIELDS})
    return row


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REFERENCE_TOL


def compare_reference(workload: str, records, lifshitz) -> list[str]:
    """Differences between a reference-plan run and reference.json."""
    ref = json.loads(REFERENCE_PATH.read_text())["workloads"][workload]
    got = {(r["l_index"], r["sample_index"]): r for r in map(reference_row, records)}
    problems = []
    if len(got) != len(ref["records"]):
        problems.append(f"reference plan gave {len(got)} records, expected {len(ref['records'])}")
    for want in ref["records"]:
        row = got.get((want["l_index"], want["sample_index"]))
        if row is None:
            problems.append(f"reference record {want['l_index'], want['sample_index']} missing")
            continue
        for name in REFERENCE_FIELDS:
            if not _close(row[name], want[name]):
                problems.append(
                    f"reference {workload} L_index={want['l_index']} "
                    f"sample={want['sample_index']}: {name}={row[name]!r}, "
                    f"committed {want[name]!r}"
                )
    if ref.get("lifshitz") is not None and lifshitz != ref["lifshitz"]:
        problems.append(f"lifshitz series {lifshitz} differs from {ref['lifshitz']}")
    return problems


def read_series(path: Path) -> list[list[float]]:
    """Rows of a ``*.dat`` series file written by the CLI."""
    return [
        [float(tok) for tok in line.split()]
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]

"""End-to-end acceptance gate.

Each test prints a single "criterion N: PASS/FAIL" line (visible without -s)
and then asserts.  The large condensation-trend run is shared by several
criteria through a module-scoped fixture, and criterion 6 compares it with
the regression fixture tests/fixtures/condensation_trend.json, which only
``python tests/test_golden.py`` writes: a missing fixture fails the gate.
"""

import json
import math
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gplattice import (
    EXPERIMENTS,
    DisorderSpec,
    ExperimentPlan,
    GPProblem,
    build_lattice,
    lowest_eigenpairs,
    minimize_gp,
    periodic_hamiltonian,
    run_plan,
    sample_potential,
)
from gplattice.analysis import (
    g_scale,
    random_low_energy_field,
    shell_statistics,
    trial_flat_fourier,
)
from gplattice.ensemble import record_invariant_errors
from gplattice.spectral import dense_matrix

from box_bracketing import bracket_ground_energy
from coordinate_reference import flat_realization, laplace_symbol
from dense_reference import dense_oracle
from gp_reference import energy_at, gradient_at

WORKERS = min(8, os.cpu_count() or 1)
FIXTURE = Path(__file__).parent / "fixtures" / "condensation_trend.json"
# relative gates on the archived trend: per-L median overlap deficits, and
# every other field relative to max(1, |value|)
DEFICIT_RTOL = 1e-3
TREND_RTOL = 1e-6

TREND_PLAN = ExperimentPlan(
    experiment="condense",
    seed=0,
    dim=1,
    l_grid=(64, 128, 256, 512),
    schedule="theorem",
    c=1.0,
    samples=200,
    workers=WORKERS,
)


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def trend_run():
    start = time.perf_counter()
    result = run_plan(TREND_PLAN)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_interaction_free_minimizer_recovers_ground_state(capsys):
    start = time.perf_counter()
    worst_overlap = 1.0
    worst_ediff = 0.0
    for dim, half in [(1, 64), (2, 8)]:
        geom = build_lattice(dim, half)
        spec = DisorderSpec(v_max=1.0, master_seed=0)
        for sample in range(50):
            ham = periodic_hamiltonian(sample_potential(spec, geom, 0, sample))
            init = lowest_eigenpairs(ham, 1, tol=1e-10, seed=sample).vectors[:, 0]
            gp = minimize_gp(GPProblem(ham, 0.0), init=init)
            ref = dense_oracle(ham)
            overlap = abs(float(ref.vectors[:, 0] @ gp.phi))
            worst_overlap = min(worst_overlap, overlap)
            worst_ediff = max(worst_ediff, abs(gp.energy - float(ref.values[0])))
    elapsed = time.perf_counter() - start
    ok = worst_overlap >= 1.0 - 1e-8 and worst_ediff <= 1e-10 and elapsed <= 60.0
    verdict(
        capsys,
        1,
        ok,
        f"worst overlap {worst_overlap:.12f}, worst |dE| {worst_ediff:.2e}, "
        f"{elapsed:.1f}s for 100 realizations",
    )


def test_criterion_02_iterative_eigensolver_agrees_with_dense(capsys):
    spec = DisorderSpec(v_max=1.0, master_seed=1)
    roster = [(1, 40), (2, 7), (3, 3), (1, 500), (2, 15)]
    worst = 0.0
    for dim, half in roster:
        geom = build_lattice(dim, half)
        assert geom.n_sites <= 4096
        for sample in range(20):
            ham = periodic_hamiltonian(sample_potential(spec, geom, 0, sample))
            sol = lowest_eigenpairs(ham, 4, tol=1e-10, seed=sample)
            ref = np.linalg.eigvalsh(dense_matrix(ham))
            worst = max(worst, float(np.abs(sol.values - ref[:4]).max()))

    symbol_worst = 0.0
    for dim, half in [(1, 64), (2, 5), (3, 2)]:
        geom = build_lattice(dim, half)
        ham = periodic_hamiltonian(flat_realization(geom))
        dense = np.linalg.eigvalsh(dense_matrix(ham))
        expected = np.sort(laplace_symbol(geom).ravel())
        symbol_worst = max(symbol_worst, float(np.abs(dense - expected).max()))
    ok = worst <= 1e-8 and symbol_worst <= 1e-10
    verdict(
        capsys,
        2,
        ok,
        f"100 realizations, worst eigenvalue dev {worst:.2e}; "
        f"flat-potential spectrum vs symbol dev {symbol_worst:.2e}",
    )


def test_criterion_03_boundary_condition_bracketing(capsys):
    geom = build_lattice(1, 32)
    spec = DisorderSpec(v_max=1.0, master_seed=2)
    violations = 0
    checks = 0
    for sample in range(50):
        realization = sample_potential(spec, geom, 0, sample)
        for box_side in (4, 8):
            e_neu, e_per, e_dir = bracket_ground_energy(
                realization, box_side, tol=1e-10, seed=sample
            )
            checks += 1
            if not (e_neu <= e_per + 1e-8 and e_per <= e_dir + 1e-8):
                violations += 1
    verdict(
        capsys,
        3,
        violations == 0,
        f"{checks} brackets (50 realizations x box sides 4, 8), "
        f"{violations} ordering violations at slack 1e-8",
    )


def test_criterion_04_record_invariants_hold_everywhere(capsys, trend_run):
    result, _ = trend_run
    corpus = list(result.records)
    small_plans = [
        ExperimentPlan(
            experiment="spectrum", seed=6, l_grid=(8,), schedule=(0.0,), samples=5
        ),
        ExperimentPlan(
            experiment="estimates", seed=6, l_grid=(6,), schedule=(0.0,), samples=20
        ),
        ExperimentPlan(
            experiment="shells", seed=6, l_grid=(32,), schedule=(0.0,), samples=2
        ),
        # two sizes, so the summary's e0 band spans an L range
        ExperimentPlan(
            experiment="spectrum", seed=6, l_grid=(8, 16), schedule=(0.0,), samples=3
        ),
    ]
    covered = {result.plan.experiment} | {plan.experiment for plan in small_plans}
    for plan in small_plans:
        small = run_plan(plan)
        corpus.extend(small.records)
    violations = [
        msg for record in corpus for msg in record_invariant_errors(record)
    ]
    verdict(
        capsys,
        4,
        not violations and covered == set(EXPERIMENTS),
        f"{len(corpus)} records across {len(covered)} of the {len(EXPERIMENTS)} "
        f"experiment kinds, {len(violations)} invariant violations at slack 1e-9",
    )


def test_criterion_05_certificate_holds_on_condensation_run(capsys, trend_run):
    result, _ = trend_run
    eligible = 0
    violations = 0
    for rec in result.records:
        if rec.error is not None or not (rec.e1 > rec.e_gp):
            continue
        eligible += 1
        if not (rec.cert_valid and rec.cert_margin >= -1e-9):
            violations += 1
    ok = violations == 0 and len(result.records) >= 500
    verdict(
        capsys,
        5,
        ok,
        f"{len(result.records)} records, {eligible} with e1 > e_gp, "
        f"{violations} certificate violations at slack 1e-9",
    )


def relative_gap(got: float, want: float, deficit: bool) -> float:
    """|got - want| relative to the archived value: 0 for equal values and
    for two NaNs, inf for a NaN against a number."""
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    gap = abs(got - want) / (abs(want) if deficit else max(1.0, abs(want)))
    return math.inf if math.isnan(gap) else gap


def trend_passes(checks: dict, medians: list[float], elapsed: float, beyond: list[str]) -> bool:
    """Criterion 6's verdict.  A trend over an L with no healthy sample has
    no verdict (NaN), and only a trend that holds passes."""
    return (
        checks["overlap trend non-decreasing"] is True
        and checks["fraction trend non-decreasing"] is True
        and medians[-1] >= 0.9
        and elapsed <= 1800.0
        and not beyond
    )


def trend_fixture(result, path: Path = FIXTURE) -> tuple[dict, dict, list[str]]:
    """A trend run's per-L snapshot, its drift from the archive at ``path``
    and the fields whose drift lies beyond their gate.

    The drift is (values that differ, largest relative |delta|) per field; a
    field on one side only, or of another length, and a NaN against a number
    count with an infinite delta, so a missing archive fails every field.
    """
    plan, series = result.plan, result.summary.series
    l_indices = range(len(plan.l_grid))
    deficits = [[1.0 - r.overlap for r in result.records
                 if r.error is None and r.l_index == l_index] for l_index in l_indices]
    snapshot = {
        "l_grid": list(plan.l_grid),
        "coupling": [plan.coupling_for(l_index) for l_index in l_indices],
        "eta": [row[2] for row in series["condensate_fraction"][1]],
        "median_overlap": [row[1] for row in series["overlap"][1]],
        "fraction_within_eta": [row[1] for row in series["condensate_fraction"][1]],
        # the overlap differs from 1 only in the 8th digit at L=512, so the
        # deficit 1 - overlap is what a relative gate can see move; an L with
        # no healthy sample has none
        "median_deficit": [float(np.median(d)) if d else math.nan for d in deficits],
    }
    stored = json.loads(path.read_text()) if path.exists() else {}
    drifts, beyond = {}, []
    for key in dict.fromkeys([*snapshot, *stored]):
        got, want = snapshot.get(key), stored.get(key)
        deficit = key == "median_deficit"
        if got is None or want is None or len(got) != len(want):
            gaps = [math.inf]
        else:
            gaps = [relative_gap(a, b, deficit) for a, b in zip(got, want)]
            gaps = [gap for gap in gaps if gap > 0]
        if gaps:
            drifts[key] = (len(gaps), max(gaps))
            if max(gaps) > (DEFICIT_RTOL if deficit else TREND_RTOL):
                beyond.append(key)
    return snapshot, drifts, beyond


def test_trend_gate_fails_without_its_fixture(tmp_path):
    plan = replace(TREND_PLAN, l_grid=(8, 16), samples=3, workers=1)
    result = run_plan(plan)
    path = tmp_path / "condensation_trend.json"
    snapshot, drifts, beyond = trend_fixture(result, path)
    assert beyond == list(snapshot) and not path.exists()
    assert all(drift == (1, math.inf) for drift in drifts.values())
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    assert trend_fixture(result, path)[1:] == ({}, [])


def test_trend_gate_fails_over_an_l_with_no_healthy_sample(tmp_path):
    # a coupling of 1e300 fails every sample of the middle L: the trend checks
    # over its NaN median have no verdict, which fails criterion 6 although
    # the last L is healthy, and a NaN against an archived number lies
    # beyond the fixture's gate
    plan = replace(TREND_PLAN, l_grid=(8, 12, 16), schedule=(0.0, 1e300, 0.0),
                   samples=2, workers=1)
    result = run_plan(plan)
    assert result.summary.n_ok == {8: 2, 12: 0, 16: 2}
    snapshot = trend_fixture(result, tmp_path / "missing.json")[0]
    medians = snapshot["median_overlap"]
    assert math.isnan(medians[1]) and medians[-1] >= 0.9
    assert not trend_passes(result.summary.checks, medians, 0.0, [])
    path = tmp_path / "condensation_trend.json"
    path.write_text(json.dumps(snapshot))
    assert trend_fixture(result, path)[1:] == ({}, [])
    with_nan = [key for key, values in snapshot.items() if any(map(math.isnan, values))]
    assert "median_overlap" in with_nan and "median_deficit" in with_nan
    path.write_text(json.dumps({key: [0.5 if math.isnan(v) else v for v in values]
                                for key, values in snapshot.items()}))
    drifts, beyond = trend_fixture(result, path)[1:]
    assert beyond == with_nan
    assert all(drifts[key] == (1, math.inf) for key in with_nan)


def test_criterion_06_overlap_trend_with_system_size(capsys, trend_run):
    result, elapsed = trend_run
    summary = result.summary
    snapshot, drifts, beyond = trend_fixture(result)
    medians, deficits = snapshot["median_overlap"], snapshot["median_deficit"]
    overlap_monotone = summary.checks["overlap trend non-decreasing"]
    fraction_monotone = summary.checks["fraction trend non-decreasing"]
    if beyond:
        fixture_note = (
            f"{FIXTURE.name} fields beyond their gate: {beyond}; if the change "
            "is intended, regenerate with `PYTHONPATH=src python tests/test_golden.py`"
        )
    else:
        fixture_note = f"matches archived fixture (relative drift per field: {drifts or 'none'})"

    verdict(
        capsys,
        6,
        trend_passes(summary.checks, medians, elapsed, beyond),
        f"median overlaps {['%.8f' % m for m in medians]} (deficits "
        f"{['%.4e' % d for d in deficits]}) non-decreasing="
        f"{overlap_monotone}, fractions non-decreasing="
        f"{fraction_monotone}, {elapsed:.0f}s wall; {fixture_note}",
    )


def test_criterion_07_gradient_matches_finite_differences(capsys):
    geom = build_lattice(1, 16)
    spec = DisorderSpec(v_max=1.0, master_seed=3)
    rng = np.random.default_rng(9)
    worst = 0.0
    for probe in range(50):
        ham = periodic_hamiltonian(sample_potential(spec, geom, 0, probe % 5))
        problem = GPProblem(ham, 0.5)
        phi = rng.normal(size=geom.n_sites)
        phi /= np.linalg.norm(phi)
        direction = rng.normal(size=geom.n_sites)
        direction /= np.linalg.norm(direction)
        h = 1e-6
        fd = (
            energy_at(problem, phi + h * direction)
            - energy_at(problem, phi - h * direction)
        ) / (2 * h)
        analytic = float(gradient_at(problem, phi) @ direction)
        worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-12))
    verdict(
        capsys,
        7,
        worst <= 1e-6,
        f"50 probes, worst relative deviation {worst:.2e}",
    )


def test_criterion_08_shell_bounds_on_random_fields(capsys):
    geom = build_lattice(1, 512)
    eps_grid = (0.5, 0.1, 0.02)
    sup_violations = 0
    flat_ratios = []
    empirical_c = {}
    for eps_index, eps in enumerate(eps_grid):
        rng = np.random.default_rng(1000 + eps_index)
        c_max = 0.0
        for _ in range(1000):
            u = random_low_energy_field(geom, eps, rng)
            four_norm, sup_ratio, _ = shell_statistics(geom, u, eps)
            if sup_ratio > 1.0 + 1e-9:  # False when NaN: no shell populated
                sup_violations += 1
            c_max = max(c_max, four_norm)
        empirical_c[eps] = c_max
        flat = trial_flat_fourier(geom, eps)
        flat_ratios.append(float(np.linalg.norm(flat, 4)) / g_scale(eps, 1))

    c_values = list(empirical_c.values())
    spread = max(c_values) / min(c_values)
    flat_ok = all(0.1 <= r <= 10.0 for r in flat_ratios)
    ok = sup_violations == 0 and spread <= 3.0 and flat_ok
    verdict(
        capsys,
        8,
        ok,
        f"3000 fields, {sup_violations} sup-bound violations; empirical C by eps "
        f"{ {e: round(c, 4) for e, c in empirical_c.items()} } (spread {spread:.2f}x); "
        f"flat-trial ratios {[round(r, 3) for r in flat_ratios]}",
    )


def test_criterion_09_level_pair_statistics_slope(capsys):
    plan = ExperimentPlan(
        experiment="estimates",
        seed=0,
        dim=1,
        l_grid=(32,),
        schedule=(0.0,),
        samples=10_000,
        v_max=6.0,
        workers=WORKERS,
    )
    start = time.perf_counter()
    result = run_plan(plan)
    elapsed = time.perf_counter() - start
    slope = result.summary.checks["Minami log-log slope by L"][32]
    ok = 1.7 <= slope <= 2.3 and elapsed <= 600.0
    verdict(
        capsys,
        9,
        ok,
        f"pair-probability log-log slope {slope:.4f} over widths "
        f"{plan.minami_widths}, {elapsed:.0f}s wall",
    )


def test_criterion_10_results_do_not_depend_on_worker_count(capsys):
    base = ExperimentPlan(
        experiment="condense",
        seed=12,
        dim=1,
        l_grid=(16,),
        schedule="theorem",
        samples=16,
        workers=1,
    )
    serial = run_plan(base)
    pooled = run_plan(replace(base, workers=8))
    serial_keys = Counter(r.content_key() for r in serial.records)
    pooled_keys = Counter(r.content_key() for r in pooled.records)
    ok = serial_keys == pooled_keys
    verdict(
        capsys,
        10,
        ok,
        f"{len(serial.records)} records, 1-worker and 8-worker multisets "
        f"{'identical' if ok else 'differ'} (bit-exact fields)",
    )

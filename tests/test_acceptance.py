"""End-to-end acceptance gate.

Each test prints a single "criterion N: PASS/FAIL" line (visible without -s)
and then asserts.  The large condensation-trend run is shared by several
criteria through a module-scoped fixture and is archived as a regression
fixture under tests/fixtures/ the first time it passes.
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
    shell_decompose,
    trial_flat_fourier,
)
from gplattice.ensemble import record_invariant_errors
from gplattice.gp import gp_energy, gp_gradient
from gplattice.spectral import dense_matrix, dense_oracle

from box_bracketing import bracket_ground_energy
from coordinate_reference import flat_realization, laplace_symbol

WORKERS = min(8, os.cpu_count() or 1)
FIXTURE = Path(__file__).parent / "fixtures" / "condensation_trend.json"
# relative gate on the archived per-L median overlap deficits
DEFICIT_RTOL = 1e-3

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
        msg for record in corpus for msg in record_invariant_errors(record, 1e-9)
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


def test_criterion_06_overlap_trend_with_system_size(capsys, trend_run):
    result, elapsed = trend_run
    summary = result.summary
    medians = [row[1] for row in summary.series["overlap"][1]]
    fractions = [row[1] for row in summary.series["condensate_fraction"][1]]
    overlap_monotone = summary.checks["overlap trend non-decreasing"]
    fraction_monotone = summary.checks["fraction trend non-decreasing"]
    # the overlap differs from 1 only in the 8th digit at L=512, so the
    # deficit 1 - overlap is what a relative gate can see move
    deficits = [
        float(np.median([1.0 - r.overlap for r in result.records
                         if r.error is None and r.l_index == l_index]))
        for l_index in range(len(TREND_PLAN.l_grid))
    ]

    snapshot = {
        "l_grid": list(TREND_PLAN.l_grid),
        "coupling": [
            TREND_PLAN.coupling_for(l_index) for l_index in range(len(TREND_PLAN.l_grid))
        ],
        "eta": [row[2] for row in summary.series["condensate_fraction"][1]],
        "median_overlap": medians,
        "fraction_within_eta": fractions,
        "median_deficit": deficits,
    }
    if FIXTURE.exists():
        stored = json.loads(FIXTURE.read_text())
        drift = 0.0
        for key in snapshot:
            if key != "median_deficit":
                for a, b in zip(snapshot[key], stored[key]):
                    drift = max(drift, abs(a - b) / max(1.0, abs(b)))
        deficit_drift = max(
            abs(a - b) / b for a, b in zip(deficits, stored["median_deficit"])
        )
        fixture_note = (
            f"matches archived fixture (max rel drift {drift:.2e}, "
            f"median deficit rel drift {deficit_drift:.2e})"
        )
        fixture_ok = drift <= 1e-6 and deficit_drift <= DEFICIT_RTOL
    else:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot, indent=2) + "\n")
        fixture_note = f"archived fixture {FIXTURE.name}"
        fixture_ok = True

    ok = (
        overlap_monotone
        and fraction_monotone
        and medians[-1] >= 0.9
        and elapsed <= 1800.0
        and fixture_ok
    )
    verdict(
        capsys,
        6,
        ok,
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
            gp_energy(problem, phi + h * direction)
            - gp_energy(problem, phi - h * direction)
        ) / (2 * h)
        analytic = float(gp_gradient(problem, phi) @ direction)
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
            dec = shell_decompose(geom, u, eps)
            ratios = dec.sup_bound_ratios()
            finite = ratios[np.isfinite(ratios)]
            if finite.size and float(finite.max()) > 1.0 + 1e-9:
                sup_violations += 1
            c_max = max(c_max, float(np.linalg.norm(u, 4)) / g_scale(eps, 1))
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

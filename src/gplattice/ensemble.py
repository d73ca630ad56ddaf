"""Experiment plans, the shared sample pipeline, and per-experiment summaries.

A plan fixes everything a run needs: lattice dimension, the L grid, the
coupling schedule, sample counts, tolerances, the disorder law, and the
master seed.  Each sample re-derives its random streams from the provenance
triple (master seed, L index, sample index), so a run is reproducible bit for
bit and can be sharded over workers without changing a single record.

Every experiment runs through one sample function, which draws the potential,
solves for the spectrum, and turns any failure into an error record; an
experiment adds only its observable and its summary (see ``_PIPELINES``).

The named coupling schedule scales the interaction as

    U(L) = c / ( L^d * (1 + (log L)^(d - 2/d)) * f(log L) * log L ),

one factor log L below the threshold at which the predicted overlap deficit

    eta(L) = sqrt( U L^d (1 + (log L)^(d - 2/d)) f(log L) )

stops shrinking; under the named schedule eta(L) = sqrt(c / log L) exactly.

Summaries report medians and quartiles, never means: low-eigenvalue
statistics of disordered operators have heavy tails.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import (
    default_band_scale,
    f_scale,
    four_norm_bound_check,
    g_scale,
    localization_center,
    lp_norm,
    random_low_energy_field,
    shell_decompose,
    trial_delta_background,
    trial_flat_fourier,
)
from .disorder import (
    BOX_CHANNEL,
    EIG_CHANNEL,
    FIELD_CHANNEL,
    DisorderSpec,
    Region,
    partition_into_boxes,
    periodic_hamiltonian,
    provenance_stream,
    restrict_hamiltonian,
    sample_potential,
)
from .gp import GPProblem, certificate, minimize_gp
from .lattice import LatticeGeometry, build_lattice, dirichlet_energy, torus_distance
from .records import RunRecord
from .spectral import (
    DENSE_LIMIT,
    EigenConvergenceError,
    OversizeError,
    dense_matrix,
    lowest_eigenpairs,
)

EXPERIMENTS = ("condense", "spectrum", "scaling", "estimates", "shells")

INVARIANT_SLACK = 1e-9

_GEOMETRIES: dict[tuple[int, int], LatticeGeometry] = {}


def _geometry(dim: int, half_side: int) -> LatticeGeometry:
    key = (dim, half_side)
    if key not in _GEOMETRIES:
        _GEOMETRIES[key] = build_lattice(dim, half_side)
    return _GEOMETRIES[key]


def theorem_coupling(half_side: int, dim: int, c: float) -> float:
    """The named coupling schedule U(L)."""
    if half_side < 2:
        raise ValueError("the named schedule needs L >= 2 (positive log)")
    logl = math.log(half_side)
    bracket = 1.0 + logl ** (dim - 2.0 / dim)
    return c / (half_side**dim * bracket * f_scale(logl, dim) * logl)


def overlap_deficit_scale(half_side: int, dim: int, coupling: float) -> float:
    """Predicted overlap deficit eta(L) for coupling U at size L."""
    if half_side < 2:
        raise ValueError("eta(L) needs L >= 2 (positive log)")
    logl = math.log(half_side)
    bracket = 1.0 + logl ** (dim - 2.0 / dim)
    return math.sqrt(coupling * half_side**dim * bracket * f_scale(logl, dim))


@dataclass(frozen=True)
class ExperimentPlan:
    """Complete, picklable description of one ensemble run."""

    experiment: str
    seed: int
    dim: int = 1
    l_grid: tuple[int, ...] = (16,)
    schedule: str | tuple[float, ...] = "theorem"
    c: float = 1.0
    samples: int = 100
    out: str | None = None
    tol_eig: float = 1e-10
    tol_gp: float = 1e-9
    distribution: str = "uniform"
    v_max: float = 1.0
    p: float = 0.5
    levels: tuple[float, ...] | None = None
    workers: int = 1
    eig_count: int = 2
    box_sides: tuple[int, ...] = (4, 6, 8, 10)
    wegner_widths: tuple[float, ...] = (0.02, 0.04, 0.08)
    minami_widths: tuple[float, ...] = (0.005, 0.01, 0.02, 0.04)
    gap_eta_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    eps_grid: tuple[float, ...] = (0.5, 0.2, 0.1)
    center_lambda: float = 8.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.l_grid:
            raise ValueError("l_grid must not be empty")
        if any(b <= a for a, b in zip(self.l_grid, self.l_grid[1:])):
            raise ValueError(f"l_grid must be strictly increasing, got {self.l_grid}")
        if min(self.l_grid) < 1:
            raise ValueError("every L must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.tol_eig <= 0 or self.tol_gp <= 0:
            raise ValueError("tolerances must be positive")
        if self.eig_count < 1:
            raise ValueError("eig_count must be >= 1")
        if any(side < 1 for side in self.box_sides):
            raise ValueError(f"every box side must be >= 1, got {self.box_sides}")
        if any(not 0.0 < eps < 1.0 for eps in self.eps_grid):
            raise ValueError(f"every eps must lie in (0, 1), got {self.eps_grid}")
        if not self.wegner_widths:
            raise ValueError("wegner_widths must not be empty")
        widths = self.wegner_widths + self.minami_widths + self.gap_eta_grid
        if any(not w > 0 for w in widths):
            raise ValueError(
                "Wegner and Minami widths and gap-law etas must be positive"
            )
        if isinstance(self.schedule, str):
            if self.schedule != "theorem":
                raise ValueError(
                    f"named schedule must be 'theorem', got {self.schedule!r}"
                )
            if min(self.l_grid) < 2:
                raise ValueError("the named schedule needs every L >= 2")
        else:
            if len(self.schedule) not in (1, len(self.l_grid)):
                raise ValueError(
                    "an explicit schedule needs one coupling, or one per L"
                )
            if any(u < 0 for u in self.schedule):
                raise ValueError("couplings must be >= 0")
        # instantiating the disorder spec validates the distribution block
        self.disorder_spec()

    def coupling_for(self, l_index: int) -> float:
        if isinstance(self.schedule, str):
            return theorem_coupling(self.l_grid[l_index], self.dim, self.c)
        if len(self.schedule) == 1:
            return float(self.schedule[0])
        return float(self.schedule[l_index])

    def disorder_spec(self) -> DisorderSpec:
        return DisorderSpec(
            distribution=self.distribution,
            v_max=self.v_max,
            p=self.p,
            levels=self.levels,
            master_seed=self.seed,
        )


# ---------------------------------------------------------------------------
# config files (line-oriented key=value)

_LIST_KEYS = {
    "l_grid",
    "levels",
    "box_sides",
    "wegner_widths",
    "minami_widths",
    "gap_eta_grid",
    "eps_grid",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def plan_from_options(options: dict[str, str]) -> ExperimentPlan:
    """Build a plan from merged string options (config file plus CLI flags)."""
    if "experiment" not in options:
        raise ValueError("an experiment kind is required")
    if "seed" not in options:
        raise ValueError("a master seed is required (set seed= or pass --seed)")
    kwargs: dict = {
        "experiment": options["experiment"],
        "seed": int(options["seed"]),
    }
    simple_int = {"dim", "samples", "workers", "eig_count"}
    simple_float = {"c", "tol_eig", "tol_gp", "v_max", "p", "center_lambda"}
    for key, value in options.items():
        if key in ("experiment", "seed"):
            continue
        if key == "schedule":
            kwargs["schedule"] = (
                "theorem" if value == "theorem" else _parse_float_tuple(value)
            )
        elif key == "out":
            kwargs["out"] = value or None
        elif key == "distribution":
            kwargs["distribution"] = value
        elif key in simple_int:
            kwargs[key] = int(value)
        elif key in simple_float:
            kwargs[key] = float(value)
        elif key in ("l_grid", "box_sides"):
            kwargs[key] = _parse_int_tuple(value)
        elif key == "levels":
            kwargs["levels"] = _parse_float_tuple(value) if value else None
        elif key in _LIST_KEYS:
            kwargs[key] = _parse_float_tuple(value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return ExperimentPlan(**kwargs)


# ---------------------------------------------------------------------------
# per-record invariants

def record_invariant_errors(record: RunRecord, slack: float = INVARIANT_SLACK) -> list[str]:
    """Violations of the bounds every healthy record must satisfy."""
    if record.error is not None:
        return []
    errs = []
    tag = f"(L_index={record.l_index}, sample={record.sample_index})"
    if math.isfinite(record.e_gp):
        if record.e0 > record.e_gp + slack:
            errs.append(f"e0 > e_gp {tag}")
        if record.e_gp > record.e0 + record.coupling * record.ipr + slack:
            errs.append(f"e_gp above the ground-state trial bound {tag}")
    if math.isfinite(record.kinetic) and record.kinetic > record.e0 + slack:
        errs.append(f"kinetic form of phi0 exceeds e0 {tag}")
    if record.cert_valid and record.cert_margin < -slack:
        errs.append(f"certificate inequality violated {tag}")
    return errs


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    records: list[RunRecord]
    summary: object
    invariant_violations: list[str]


def _parallel_map(fn: Callable, tasks: list[tuple], workers: int) -> list:
    if workers <= 1:
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _quantiles(values: np.ndarray) -> tuple[float, float, float]:
    if values.size == 0:
        return math.nan, math.nan, math.nan
    q25, med, q75 = np.quantile(values, [0.25, 0.5, 0.75])
    return float(med), float(q25), float(q75)


def _non_decreasing(values: list[float]) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# the shared sample pipeline: one provenance slot in, one record plus side data out

@dataclass(frozen=True)
class _Pipeline:
    """What one experiment adds to the shared sample pipeline.

    ``eig_count`` gives the number of lowest eigenpairs to solve for, or is
    None for a full dense spectrum.  ``observe(plan, l_index, sample_index,
    geom, ham, eig)`` returns the record fields and the side data the
    summary needs; ``summarize(plan, groups, n_failed)`` gets the healthy
    (record, side data) pairs grouped per L.
    """

    eig_count: Callable[[ExperimentPlan], int] | None
    observe: Callable
    summarize: Callable
    interacting: bool = False


def _sample(task: tuple[ExperimentPlan, int, int]) -> tuple[RunRecord, object]:
    """Draw, solve and observe one (plan, L index, sample index) slot.

    A failure anywhere after the record's base fields becomes an error
    record with no side data.
    """
    plan, l_index, sample_index = task
    pipeline = _PIPELINES[plan.experiment]
    half_side = plan.l_grid[l_index]
    geom = _geometry(plan.dim, half_side)
    base = dict(
        master_seed=plan.seed,
        l_index=l_index,
        sample_index=sample_index,
        dim=plan.dim,
        half_side=half_side,
        coupling=plan.coupling_for(l_index) if pipeline.interacting else 0.0,
    )
    start = time.perf_counter()
    try:
        realization = sample_potential(plan.disorder_spec(), geom, l_index, sample_index)
        ham = periodic_hamiltonian(realization)
        if pipeline.eig_count is None:
            eig = np.linalg.eigvalsh(dense_matrix(ham))
        else:
            eig = lowest_eigenpairs(
                ham,
                pipeline.eig_count(plan),
                tol=plan.tol_eig,
                seed=provenance_stream(plan.seed, l_index, sample_index, EIG_CHANNEL),
            )
        fields, side = pipeline.observe(plan, l_index, sample_index, geom, ham, eig)
    except (EigenConvergenceError, RuntimeError, ValueError) as exc:
        record = RunRecord(**base, error=str(exc), wall_time=time.perf_counter() - start)
        return record, None
    return RunRecord(**base, **fields, wall_time=time.perf_counter() - start), side


def replay_sample(plan: ExperimentPlan, l_index: int, sample_index: int) -> RunRecord:
    """Replay a single record of any experiment from its provenance."""
    return _sample((plan, l_index, sample_index))[0]


def run_plan(plan: ExperimentPlan) -> ExperimentResult:
    """Run every (L, sample) slot of a plan and summarize the healthy records."""
    pipeline = _PIPELINES[plan.experiment]
    n_max = (2 * max(plan.l_grid) + 1) ** plan.dim
    if pipeline.eig_count is None and n_max > DENSE_LIMIT:
        raise OversizeError(
            f"{plan.experiment} needs full dense spectra; {n_max} sites exceeds "
            f"the {DENSE_LIMIT}-site dense limit"
        )
    tasks = [
        (plan, l_index, sample)
        for l_index in range(len(plan.l_grid))
        for sample in range(plan.samples)
    ]
    outputs = _parallel_map(_sample, tasks, plan.workers)
    records = [record for record, _ in outputs]
    groups: list[list[tuple[RunRecord, object]]] = [[] for _ in plan.l_grid]
    for record, side in outputs:
        if record.error is None:
            groups[record.l_index].append((record, side))
    n_failed = len(records) - sum(len(group) for group in groups)
    return ExperimentResult(
        plan=plan,
        records=records,
        summary=pipeline.summarize(plan, groups, n_failed),
        invariant_violations=[e for r in records for e in record_invariant_errors(r)],
    )


def _ground_fields(geom: LatticeGeometry, eig) -> dict:
    phi0 = eig.vectors[:, 0]
    return dict(
        e0=float(eig.values[0]),
        ipr=float(np.sum(phi0**4)),
        kinetic=dirichlet_energy(geom, phi0),
        center0=localization_center(geom, phi0).center,
    )


def _pair_fields(geom: LatticeGeometry, eig) -> dict:
    fields = _ground_fields(geom, eig)
    center1 = localization_center(geom, eig.vectors[:, 1]).center
    fields.update(
        e1=float(eig.values[1]),
        gap=float(eig.values[1] - eig.values[0]),
        center1=center1,
        center_dist=torus_distance(
            geom, geom.site_index(fields["center0"]), geom.site_index(center1)
        ),
    )
    return fields


# ---------------------------------------------------------------------------
# condensation runs: ground state, GP minimizer, and certificate

def _observe_condense(plan, l_index, sample_index, geom, ham, eig):
    problem = GPProblem(ham, plan.coupling_for(l_index))
    gp = minimize_gp(problem, init=eig.vectors[:, 0], g_tol=plan.tol_gp)
    if not gp.converged:
        raise RuntimeError(f"minimizer stalled at projected gradient {gp.grad_norm:.3e}")
    cert = certificate(problem, eig, gp)
    fields = _pair_fields(geom, eig)
    fields.update(
        e_gp=gp.energy,
        overlap=cert.overlap,
        cert_valid=cert.valid,
        cert_margin=cert.margin,
        pi0_norm=cert.pi0_norm,
        orth_norm=cert.orth_norm,
        gp_iterations=gp.iterations,
        gp_converged=gp.converged,
        gp_grad_norm=gp.grad_norm,
    )
    return fields, None


@dataclass
class CondenseSummary:
    rows: list[dict]
    overlap_monotone: bool
    fraction_monotone: bool
    n_failed: int

    def table(self) -> str:
        head = (
            f"{'L':>6} {'U':>12} {'eta':>8} {'ok':>5} {'med overlap':>12} "
            f"{'q25':>10} {'q75':>10} {'med gap':>10} {'frac>=1-eta':>12}"
        )
        lines = [head]
        for r in self.rows:
            lines.append(
                f"{r['half_side']:>6} {r['coupling']:>12.4e} {r['eta']:>8.4f} "
                f"{r['n_ok']:>5} {r['median_overlap']:>12.8f} "
                f"{r['overlap_q25']:>10.6f} {r['overlap_q75']:>10.6f} "
                f"{r['median_gap']:>10.3e} {r['fraction_within_eta']:>12.4f}"
            )
        lines.append(
            f"overlap trend non-decreasing: {self.overlap_monotone}; "
            f"fraction trend non-decreasing: {self.fraction_monotone}; "
            f"failed samples: {self.n_failed}"
        )
        return "\n".join(lines)

    def series(self) -> dict[str, tuple[list[str], list[list[float]]]]:
        overlap = (
            ["half_side", "median", "q25", "q75"],
            [
                [r["half_side"], r["median_overlap"], r["overlap_q25"], r["overlap_q75"]]
                for r in self.rows
            ],
        )
        gap = (
            ["half_side", "median", "q25", "q75"],
            [
                [r["half_side"], r["median_gap"], r["gap_q25"], r["gap_q75"]]
                for r in self.rows
            ],
        )
        frac = (
            ["half_side", "fraction", "eta"],
            [[r["half_side"], r["fraction_within_eta"], r["eta"]] for r in self.rows],
        )
        return {"overlap": overlap, "gap": gap, "condensate_fraction": frac}


def _summarize_condense(plan: ExperimentPlan, groups, n_failed: int) -> CondenseSummary:
    rows = []
    for l_index, (half_side, group) in enumerate(zip(plan.l_grid, groups)):
        overlaps = np.array([r.overlap for r, _ in group])
        gaps = np.array([r.gap for r, _ in group])
        coupling = plan.coupling_for(l_index)
        eta = overlap_deficit_scale(half_side, plan.dim, coupling)
        med_o, q25_o, q75_o = _quantiles(overlaps)
        med_g, q25_g, q75_g = _quantiles(gaps)
        frac = float(np.mean(overlaps >= 1.0 - eta)) if overlaps.size else math.nan
        rows.append(
            dict(
                half_side=half_side,
                coupling=coupling,
                eta=eta,
                n_ok=len(group),
                median_overlap=med_o,
                overlap_q25=q25_o,
                overlap_q75=q75_o,
                median_gap=med_g,
                gap_q25=q25_g,
                gap_q75=q75_g,
                fraction_within_eta=frac,
            )
        )
    return CondenseSummary(
        rows=rows,
        overlap_monotone=_non_decreasing([r["median_overlap"] for r in rows]),
        fraction_monotone=_non_decreasing([r["fraction_within_eta"] for r in rows]),
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# spectrum runs (no interaction): gaps, centers, gap law

def _observe_spectrum(plan, l_index, sample_index, geom, ham, eig):
    return _pair_fields(geom, eig), None


@dataclass
class SpectrumSummary:
    rows: list[dict]
    gap_law: list[dict]       # per (L, eta): P[gap <= eta L^-d]
    n_failed: int

    def table(self) -> str:
        lines = [
            f"{'L':>6} {'ok':>5} {'med gap':>10} {'q25':>10} {'q75':>10} "
            f"{'med dist':>9} {'frac close':>10}"
        ]
        for r in self.rows:
            lines.append(
                f"{r['half_side']:>6} {r['n_ok']:>5} {r['median_gap']:>10.3e} "
                f"{r['gap_q25']:>10.3e} {r['gap_q75']:>10.3e} "
                f"{r['median_center_dist']:>9.1f} {r['fraction_centers_close']:>10.4f}"
            )
        lines.append("gap law P[gap <= eta L^-d]:")
        for g in self.gap_law:
            lines.append(
                f"  L={g['half_side']:>5} eta={g['eta']:>7.3f} p={g['prob']:.5f}"
            )
        lines.append(f"failed samples: {self.n_failed}")
        return "\n".join(lines)

    def series(self) -> dict[str, tuple[list[str], list[list[float]]]]:
        gap = (
            ["half_side", "median", "q25", "q75"],
            [
                [r["half_side"], r["median_gap"], r["gap_q25"], r["gap_q75"]]
                for r in self.rows
            ],
        )
        law = (
            ["half_side", "eta", "prob"],
            [[g["half_side"], g["eta"], g["prob"]] for g in self.gap_law],
        )
        centers = (
            ["half_side", "median_dist", "fraction_close"],
            [
                [r["half_side"], r["median_center_dist"], r["fraction_centers_close"]]
                for r in self.rows
            ],
        )
        return {"gap": gap, "gap_law": law, "center_distance": centers}


def _summarize_spectrum(plan: ExperimentPlan, groups, n_failed: int) -> SpectrumSummary:
    rows = []
    law = []
    for half_side, group in zip(plan.l_grid, groups):
        gaps = np.array([r.gap for r, _ in group])
        dists = np.array([r.center_dist for r, _ in group], dtype=float)
        med_g, q25_g, q75_g = _quantiles(gaps)
        threshold = plan.center_lambda * math.log(max(half_side, 2))
        rows.append(
            dict(
                half_side=half_side,
                n_ok=len(group),
                median_gap=med_g,
                gap_q25=q25_g,
                gap_q75=q75_g,
                median_center_dist=float(np.median(dists)) if dists.size else math.nan,
                fraction_centers_close=(
                    float(np.mean(dists <= threshold)) if dists.size else math.nan
                ),
            )
        )
        law += _gap_law(plan, half_side, gaps)
    return SpectrumSummary(rows=rows, gap_law=law, n_failed=n_failed)


def _gap_law(plan: ExperimentPlan, half_side: int, gaps: np.ndarray) -> list[dict]:
    """P[gap <= eta L^-d] for each eta of the plan's grid."""
    scale = half_side ** (-plan.dim)
    return [
        dict(
            half_side=half_side,
            eta=eta,
            prob=float(np.mean(gaps <= eta * scale)) if gaps.size else math.nan,
        )
        for eta in plan.gap_eta_grid
    ]


# ---------------------------------------------------------------------------
# ground-state scaling runs

def _observe_scaling(plan, l_index, sample_index, geom, ham, eig):
    return _ground_fields(geom, eig), None


@dataclass
class ScalingSummary:
    rows: list[dict]
    band_min: float
    band_max: float
    band_ratio: float
    flatness_violations: int
    n_failed: int

    def table(self) -> str:
        lines = [
            f"{'L':>6} {'ok':>5} {'med e0':>12} {'q25':>12} {'q75':>12} "
            f"{'e0*(log L)^(2/d)':>18}"
        ]
        for r in self.rows:
            lines.append(
                f"{r['half_side']:>6} {r['n_ok']:>5} {r['median_e0']:>12.6e} "
                f"{r['e0_q25']:>12.6e} {r['e0_q75']:>12.6e} {r['normalized']:>18.6f}"
            )
        lines.append(
            f"normalized band: [{self.band_min:.6f}, {self.band_max:.6f}] "
            f"(ratio {self.band_ratio:.3f}); flatness violations: "
            f"{self.flatness_violations}; failed samples: {self.n_failed}"
        )
        return "\n".join(lines)

    def series(self) -> dict[str, tuple[list[str], list[list[float]]]]:
        return {
            "e0": (
                ["half_side", "median", "q25", "q75", "normalized"],
                [
                    [
                        r["half_side"],
                        r["median_e0"],
                        r["e0_q25"],
                        r["e0_q75"],
                        r["normalized"],
                    ]
                    for r in self.rows
                ],
            )
        }


def _summarize_scaling(plan: ExperimentPlan, groups, n_failed: int) -> ScalingSummary:
    rows = []
    for half_side, group in zip(plan.l_grid, groups):
        e0s = np.array([r.e0 for r, _ in group])
        med, q25, q75 = _quantiles(e0s)
        norm = med * math.log(max(half_side, 2)) ** (2.0 / plan.dim)
        rows.append(
            dict(
                half_side=half_side,
                n_ok=len(group),
                median_e0=med,
                e0_q25=q25,
                e0_q75=q75,
                normalized=norm,
            )
        )
    normalized = [r["normalized"] for r in rows if math.isfinite(r["normalized"])]
    band_min = min(normalized) if normalized else math.nan
    band_max = max(normalized) if normalized else math.nan
    flat_bad = sum(
        1 for group in groups for r, _ in group if r.kinetic > r.e0 + INVARIANT_SLACK
    )
    return ScalingSummary(
        rows=rows,
        band_min=band_min,
        band_max=band_max,
        band_ratio=band_max / band_min if normalized and band_min > 0 else math.nan,
        flatness_violations=flat_bad,
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# spectral-hypothesis estimators: Wegner, Minami, Lifshitz, gap law

def _observe_estimates(plan, l_index, sample_index, geom, ham, vals):
    """Gap fields, plus eigenvalue counts in windows at the band center."""
    center = (4.0 * plan.dim + plan.v_max) / 2.0

    def count(width: float) -> int:
        return int(((vals >= center - width / 2) & (vals <= center + width / 2)).sum())

    wegner = [count(w) for w in plan.wegner_widths]
    minami = [count(w) >= 2 for w in plan.minami_widths]
    fields = dict(e0=float(vals[0]), e1=float(vals[1]), gap=float(vals[1] - vals[0]))
    return fields, (wegner, minami)


def _box_ground_sample(task: tuple[ExperimentPlan, int, int]) -> float:
    """Neumann ground energy of a side-l box with freshly sampled potential."""
    plan, side_index, sample_index = task
    side = plan.box_sides[side_index]
    geom = _geometry(plan.dim, side)  # host torus of side 2l+1 holds the box
    realization = sample_potential(
        plan.disorder_spec(), geom, side_index, sample_index, channel=BOX_CHANNEL
    )
    start = -(side // 2)
    region = Region(
        intervals=tuple((start, side) for _ in range(plan.dim)), bc="neumann"
    )
    box = restrict_hamiltonian(realization, region)
    return float(np.linalg.eigvalsh(dense_matrix(box))[0])
@dataclass
class EstimatesSummary:
    wegner: list[dict]    # per (L, width): mean count, fit
    minami: list[dict]    # per (L, width): P[>= 2]
    minami_slope: dict    # per L: fitted log-log slope
    lifshitz: list[dict]  # per side: P[E0^N <= side^-2]
    gap_law: list[dict]   # per (L, eta)
    n_failed: int

    def table(self) -> str:
        lines = ["Wegner: mean eigenvalue count in a bulk interval vs width"]
        for r in self.wegner:
            lines.append(
                f"  L={r['half_side']:>5} width={r['width']:<7g} mean={r['mean_count']:.5f} "
                f"fit={r['fit']:.5f} rel_dev={r['rel_dev']:.4f}"
            )
        lines.append("Minami: P[at least two eigenvalues] vs width")
        for r in self.minami:
            lines.append(
                f"  L={r['half_side']:>5} width={r['width']:<7g} p={r['prob']:.6f}"
            )
        for half_side, slope in sorted(self.minami_slope.items()):
            lines.append(f"  L={half_side:>5} log-log slope = {slope:.4f}")
        lines.append("Lifshitz: P[Neumann box ground energy <= side^-2]")
        for r in self.lifshitz:
            lines.append(f"  side={r['side']:>4} p={r['prob']:.6f}")
        lines.append("Gap law: P[gap <= eta L^-d]")
        for r in self.gap_law:
            lines.append(
                f"  L={r['half_side']:>5} eta={r['eta']:>7.3f} p={r['prob']:.5f}"
            )
        lines.append(f"failed samples: {self.n_failed}")
        return "\n".join(lines)

    def series(self) -> dict[str, tuple[list[str], list[list[float]]]]:
        return {
            "wegner": (
                ["half_side", "width", "mean_count", "fit"],
                [
                    [r["half_side"], r["width"], r["mean_count"], r["fit"]]
                    for r in self.wegner
                ],
            ),
            "minami": (
                ["half_side", "width", "prob"],
                [[r["half_side"], r["width"], r["prob"]] for r in self.minami],
            ),
            "lifshitz": (
                ["side", "prob"],
                [[r["side"], r["prob"]] for r in self.lifshitz],
            ),
            "gap_law": (
                ["half_side", "eta", "prob"],
                [[r["half_side"], r["eta"], r["prob"]] for r in self.gap_law],
            ),
        }


def _summarize_estimates(plan: ExperimentPlan, groups, n_failed: int) -> EstimatesSummary:
    wegner_rows = []
    minami_rows = []
    minami_slopes: dict[int, float] = {}
    gap_rows = []
    widths = np.asarray(plan.wegner_widths)
    for half_side, group in zip(plan.l_grid, groups):
        wcounts = np.array([side[0] for _, side in group], dtype=float)
        mhits = np.array([side[1] for _, side in group], dtype=float)
        gaps = np.array([r.gap for r, _ in group])

        # the reshape keeps the width axis when every sample of this L failed
        means = wcounts.reshape(len(group), widths.size).mean(axis=0)
        slope = float((widths * means).sum() / (widths**2).sum())
        for w, m in zip(widths, means):
            fit = slope * w
            wegner_rows.append(
                dict(
                    half_side=half_side,
                    width=float(w),
                    mean_count=float(m),
                    fit=fit,
                    rel_dev=abs(m - fit) / fit if fit > 0 else math.nan,
                )
            )

        probs = mhits.reshape(len(group), len(plan.minami_widths)).mean(axis=0)
        for w, prob in zip(plan.minami_widths, probs):
            minami_rows.append(
                dict(half_side=half_side, width=float(w), prob=float(prob))
            )
        positive = [(w, p) for w, p in zip(plan.minami_widths, probs) if p > 0]
        if len(positive) >= 2:
            lw = np.log([w for w, _ in positive])
            lp = np.log([p for _, p in positive])
            design = np.column_stack([np.ones_like(lw), lw])
            sol, *_ = np.linalg.lstsq(design, lp, rcond=None)
            minami_slopes[half_side] = float(sol[1])
        else:
            minami_slopes[half_side] = math.nan

        gap_rows += _gap_law(plan, half_side, gaps)

    box_tasks = [
        (plan, side_index, s)
        for side_index in range(len(plan.box_sides))
        for s in range(plan.samples)
    ]
    energies = np.array(_parallel_map(_box_ground_sample, box_tasks, plan.workers))
    lifshitz_rows = [
        dict(side=side, prob=float(np.mean(row <= side**-2.0)))
        for side, row in zip(plan.box_sides, energies.reshape(-1, plan.samples))
    ]

    return EstimatesSummary(
        wegner=wegner_rows,
        minami=minami_rows,
        minami_slope=minami_slopes,
        lifshitz=lifshitz_rows,
        gap_law=gap_rows,
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# shell / four-norm calibration

def _observe_shells(plan, l_index, sample_index, geom, ham, eig):
    """Ground-state fields and four-norm ratio, plus one random field per eps."""
    phi0 = eig.vectors[:, 0]
    corpus_ratio = four_norm_bound_check(geom, phi0, default_band_scale(geom, phi0)).ratio
    rng = provenance_stream(plan.seed, l_index, sample_index, FIELD_CHANNEL)
    field_stats = []
    for eps_index, eps in enumerate(plan.eps_grid):
        if eps * geom.half_side < 1:
            continue
        u = random_low_energy_field(geom, eps, rng)
        dec = shell_decompose(geom, u, eps)
        ratios = dec.sup_bound_ratios(plan.dim)
        finite = ratios[np.isfinite(ratios)]
        sup_ratio = float(finite.max()) if finite.size else math.nan
        annulus_ok = dec.annulus_kinetic_stat() <= (
            dec.lattice_constant * dec.kinetic * (1 + 1e-12) + 1e-15
        )
        report = four_norm_bound_check(geom, u, eps)
        field_stats.append((eps_index, sup_ratio, bool(annulus_ok), report.ratio))
    return _ground_fields(geom, eig), (corpus_ratio, field_stats)


@dataclass
class ShellsSummary:
    field_rows: list[dict]    # per (L, eps): sup-bound and four-norm ratios
    corpus_rows: list[dict]   # per L: ground-state corpus against trial families
    n_failed: int

    def table(self) -> str:
        lines = ["random low-energy fields:"]
        for r in self.field_rows:
            lines.append(
                f"  L={r['half_side']:>5} eps={r['eps']:<6g} n={r['n_fields']:>5} "
                f"sup_ratio_max={r['sup_ratio_max']:.6f} "
                f"annulus_ok={r['annulus_ok']} "
                f"ratio_max={r['ratio_max']:.5f} ratio_med={r['ratio_median']:.5f} "
                f"delta={r['delta_ratio']:.5f} flat={r['flat_ratio']:.5f}"
            )
        lines.append("ground-state corpus:")
        for r in self.corpus_rows:
            lines.append(
                f"  L={r['half_side']:>5} n={r['n_corpus']:>5} "
                f"corpus_max={r['corpus_max']:.5f} corpus_med={r['corpus_median']:.5f} "
                f"trial_scale={r['trial_scale']:.5f} within_3x={r['within_3x']}"
            )
        lines.append(f"failed samples: {self.n_failed}")
        return "\n".join(lines)

    def series(self) -> dict[str, tuple[list[str], list[list[float]]]]:
        return {
            "four_norm_ratio": (
                ["half_side", "eps", "ratio_max", "ratio_median", "delta", "flat"],
                [
                    [
                        r["half_side"],
                        r["eps"],
                        r["ratio_max"],
                        r["ratio_median"],
                        r["delta_ratio"],
                        r["flat_ratio"],
                    ]
                    for r in self.field_rows
                ],
            ),
            "sup_bound": (
                ["half_side", "eps", "sup_ratio_max"],
                [
                    [r["half_side"], r["eps"], r["sup_ratio_max"]]
                    for r in self.field_rows
                ],
            ),
        }


def _summarize_shells(plan: ExperimentPlan, groups, n_failed: int) -> ShellsSummary:
    field_rows = []
    corpus_rows = []
    for half_side, group in zip(plan.l_grid, groups):
        geom = _geometry(plan.dim, half_side)
        corpus = np.array([side[0] for _, side in group])

        trial_ratios = []
        per_eps_trials = {}
        for eps_index, eps in enumerate(plan.eps_grid):
            if eps * half_side < 1:
                continue
            delta = trial_delta_background(geom, eps)
            delta_unit = delta / lp_norm(delta, 2)
            delta_ratio = lp_norm(delta_unit, 4) / g_scale(eps, plan.dim)
            flat = trial_flat_fourier(geom, eps)
            flat_ratio = lp_norm(flat, 4) / g_scale(eps, plan.dim)
            per_eps_trials[eps_index] = (delta_ratio, flat_ratio)
            trial_ratios += [delta_ratio, flat_ratio]

        for eps_index, (delta_ratio, flat_ratio) in per_eps_trials.items():
            stats = [s for _, side in group for s in side[1] if s[0] == eps_index]
            if not stats:
                continue
            ratios = np.array([s[3] for s in stats])
            field_rows.append(
                dict(
                    half_side=half_side,
                    eps=plan.eps_grid[eps_index],
                    n_fields=len(stats),
                    sup_ratio_max=float(np.nanmax([s[1] for s in stats])),
                    annulus_ok=all(s[2] for s in stats),
                    ratio_max=float(ratios.max()),
                    ratio_median=float(np.median(ratios)),
                    delta_ratio=delta_ratio,
                    flat_ratio=flat_ratio,
                )
            )

        trial_scale = max(trial_ratios) if trial_ratios else math.nan
        corpus_max = float(corpus.max()) if corpus.size else math.nan
        corpus_rows.append(
            dict(
                half_side=half_side,
                n_corpus=int(corpus.size),
                corpus_max=corpus_max,
                corpus_median=float(np.median(corpus)) if corpus.size else math.nan,
                trial_scale=trial_scale,
                within_3x=bool(corpus_max <= 3.0 * trial_scale)
                if trial_ratios
                else False,
            )
        )

    return ShellsSummary(field_rows=field_rows, corpus_rows=corpus_rows, n_failed=n_failed)


_PIPELINES = {
    "condense": _Pipeline(
        lambda plan: 2, _observe_condense, _summarize_condense, interacting=True
    ),
    "spectrum": _Pipeline(
        lambda plan: max(2, plan.eig_count), _observe_spectrum, _summarize_spectrum
    ),
    "scaling": _Pipeline(lambda plan: 1, _observe_scaling, _summarize_scaling),
    "estimates": _Pipeline(None, _observe_estimates, _summarize_estimates),
    "shells": _Pipeline(lambda plan: 1, _observe_shells, _summarize_shells),
}


# ---------------------------------------------------------------------------
# Neumann / periodic / Dirichlet bracketing; no experiment runs it, the
# tests check the ordering with it

def bracket_ground_energy(
    realization, box_side: int, tol: float = 1e-10, seed=0
) -> tuple[float, float, float]:
    """(min Neumann, periodic, min Dirichlet) ground energies for one sample."""
    ham = periodic_hamiltonian(realization)
    e_per = lowest_eigenpairs(ham, 1, tol=tol, seed=seed).values[0]
    geom = realization.geom
    e_neu = math.inf
    e_dir = math.inf
    for region in partition_into_boxes(geom, box_side):
        dir_op = restrict_hamiltonian(realization, region.with_bc("dirichlet"))
        neu_op = restrict_hamiltonian(realization, region.with_bc("neumann"))
        e_dir = min(e_dir, float(lowest_eigenpairs(dir_op, 1, tol=tol, seed=seed).values[0]))
        e_neu = min(e_neu, float(lowest_eigenpairs(neu_op, 1, tol=tol, seed=seed).values[0]))
    return e_neu, float(e_per), e_dir

"""Experiment plans, the shared sample pipeline, and per-experiment summaries.

A plan fixes everything a run needs: lattice dimension, the L grid, the
coupling schedule, sample counts, the potential's upper end v_max, and the
master seed.  Each sample re-derives its random streams from the provenance
triple (master seed, L index, sample index), so a run is reproducible bit for
bit and can be sharded over workers without changing a single record.

Every experiment runs through one sample function, ``replay_sample``, which
draws the potential, solves for the spectrum, and turns any failure into an
error record; ``run_plan`` maps it over the plan's slots, and an experiment
adds only its observable and its summary (see ``_PIPELINES``).
A sample's only output is its record, so a summary is a function of the plan
and the records (``summarize``).

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
import os
import time
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, ClassVar

import numpy as np

from .analysis import (
    default_band_scale,
    f_scale,
    g_scale,
    localization_center,
    random_low_energy_field,
    shell_statistics,
    trial_delta_background,
    trial_flat_fourier,
)
from .disorder import (
    BOX_CHANNEL,
    EIG_CHANNEL,
    FIELD_CHANNEL,
    DisorderSpec,
    Region,
    periodic_hamiltonian,
    provenance_stream,
    restrict_hamiltonian,
    sample_potential,
)
from .gp import GPProblem, certificate, minimize_gp
from .lattice import (
    SUPPORTED_DIMS,
    LatticeGeometry,
    build_lattice,
    dirichlet_energy,
    torus_distance,
)
from .records import RunRecord
from .spectral import (
    DENSE_LIMIT,
    dense_matrix,
    lowest_eigenpairs,
)

INVARIANT_SLACK = 1e-9


def theorem_coupling(half_side: int, dim: int, c: float) -> float:
    """The named coupling schedule U(L)."""
    if half_side < 2:
        raise ValueError("the named schedule needs L >= 2 (positive log)")
    logl = math.log(half_side)
    bracket = 1.0 + logl ** (dim - 2.0 / dim)
    return c / (half_side**dim * bracket * f_scale(logl) * logl)


def overlap_deficit_scale(half_side: int, dim: int, coupling: float) -> float:
    """Predicted overlap deficit eta(L) for coupling U at size L."""
    if half_side < 2:
        raise ValueError("eta(L) needs L >= 2 (positive log)")
    logl = math.log(half_side)
    bracket = 1.0 + logl ** (dim - 2.0 / dim)
    return math.sqrt(coupling * half_side**dim * bracket * f_scale(logl))


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
    v_max: float = 1.0
    workers: int = 1
    eig_count: int = 2

    # constants, not options: the eigensolver residual and GP projected
    # gradient tolerances, Neumann box sides of the Lifshitz tail (the largest
    # box, 10^d <= 1000 sites, is under DENSE_LIMIT in every supported d),
    # Wegner and Minami window widths, gap-law etas, shell scales eps
    tol_eig: ClassVar[float] = 1e-10
    tol_gp: ClassVar[float] = 1e-9
    box_sides: ClassVar[tuple[int, ...]] = (4, 6, 8, 10)
    wegner_widths: ClassVar[tuple[float, ...]] = (0.02, 0.04, 0.08)
    minami_widths: ClassVar[tuple[float, ...]] = (0.005, 0.01, 0.02, 0.04)
    gap_eta_grid: ClassVar[tuple[float, ...]] = (0.25, 0.5, 1.0, 2.0, 4.0)
    eps_grid: ClassVar[tuple[float, ...]] = (0.5, 0.1, 0.02)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.dim not in SUPPORTED_DIMS:
            raise ValueError(f"dim must be one of {SUPPORTED_DIMS}, got {self.dim}")
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        if not self.l_grid:
            raise ValueError("l_grid must not be empty")
        if any(b <= a for a, b in zip(self.l_grid, self.l_grid[1:])):
            raise ValueError(f"l_grid must be strictly increasing, got {self.l_grid}")
        if min(self.l_grid) < 1:
            raise ValueError("every L must be >= 1")
        if self.experiment in ("condense", "shells") and min(self.l_grid) < 2:
            # condense takes log L (coupling, eta(L)); shells needs eps < 1 with eps L >= 1
            raise ValueError(f"{self.experiment} needs every L >= 2")
        if self.experiment == "estimates":
            # full dense spectra of the torus; every Neumann box is small
            sites = (2 * max(self.l_grid) + 1) ** self.dim
            if sites > DENSE_LIMIT:
                raise ValueError(
                    f"estimates needs full dense spectra; {sites} sites exceeds "
                    f"the {DENSE_LIMIT}-site dense limit"
                )
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.eig_count < 2:
            raise ValueError("eig_count must be >= 2")
        smallest = (2 * min(self.l_grid) + 1) ** self.dim  # sites of the smallest torus
        if self.experiment == "spectrum" and self.eig_count > smallest:
            raise ValueError(f"eig_count exceeds the {smallest} sites of the smallest torus")
        if isinstance(self.schedule, str):
            if self.schedule != "theorem":
                raise ValueError(
                    f"named schedule must be 'theorem', got {self.schedule!r}"
                )
        else:
            if len(self.schedule) not in (1, len(self.l_grid)):
                raise ValueError(
                    "an explicit schedule needs one coupling, or one per L"
                )
            if any(not 0.0 <= u < math.inf for u in self.schedule):
                raise ValueError("couplings must be finite and >= 0")
        # instantiating the disorder spec checks v_max
        self.disorder_spec()

    def coupling_for(self, l_index: int) -> float:
        if isinstance(self.schedule, str):
            return theorem_coupling(self.l_grid[l_index], self.dim, self.c)
        if len(self.schedule) == 1:
            return float(self.schedule[0])
        return float(self.schedule[l_index])

    def disorder_spec(self) -> DisorderSpec:
        return DisorderSpec(v_max=self.v_max, master_seed=self.seed)


# ---------------------------------------------------------------------------
# config files (line-oriented key=value)

def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines, each key once; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _split(text: str, kind: type) -> tuple:
    return tuple(kind(tok) for tok in text.split(",") if tok.strip())


# option text -> field value, keyed by the field's annotation; comma lists
# skip empty tokens
_PARSERS: dict[str, Callable[[str], object]] = {
    "str": str,
    "int": int,
    "float": float,
    "str | None": lambda text: text or None,
    "tuple[int, ...]": lambda text: _split(text, int),
    "str | tuple[float, ...]": lambda text: text if text == "theorem" else _split(text, float),
}


def plan_from_options(options: dict[str, str]) -> ExperimentPlan:
    """Build a plan from merged string options (config file plus CLI flags).

    Each key names an ``ExperimentPlan`` field, and its value is parsed by
    the field's annotation; the plan then checks the values.
    """
    if "experiment" not in options:
        raise ValueError("an experiment kind is required")
    if "seed" not in options:
        raise ValueError("a master seed is required (set seed= or pass --seed)")
    annotations = {f.name: f.type for f in fields(ExperimentPlan)}
    kwargs = {}
    for key, value in options.items():
        if key not in annotations:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS[annotations[key]](value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return ExperimentPlan(**kwargs)


# ---------------------------------------------------------------------------
# per-record invariants

def record_invariant_errors(record: RunRecord) -> list[str]:
    """Violations, by more than ``INVARIANT_SLACK``, of the bounds of a healthy record."""
    if record.error is not None:
        return []
    errs = []
    tag = f"(L_index={record.l_index}, sample={record.sample_index})"
    if math.isfinite(record.e_gp):
        if record.e0 > record.e_gp + INVARIANT_SLACK:
            errs.append(f"e0 > e_gp {tag}")
        if record.e_gp > record.e0 + record.coupling * record.ipr + INVARIANT_SLACK:
            errs.append(f"e_gp above the ground-state trial bound {tag}")
    if math.isfinite(record.kinetic) and record.kinetic > record.e0 + INVARIANT_SLACK:
        errs.append(f"kinetic form of phi0 exceeds e0 {tag}")
    if record.cert_valid and record.cert_margin < -INVARIANT_SLACK:
        errs.append(f"certificate inequality violated {tag}")
    return errs


Series = tuple[list[str], list[list[float]]]

QUANTILE_COLUMNS = ["half_side", "median", "q25", "q75"]
GAP_LAW_COLUMNS = ["half_side", "eta", "prob"]


@dataclass
class Summary:
    """Per-L statistics of one run.

    ``series`` maps a name to (column names, rows); the CLI writes each one
    as ``<stem>.<name>.dat``.  ``checks`` maps a name to a verdict or a
    per-L value, ``n_ok`` gives the healthy-sample count per L, and
    ``n_failed`` the number of error records.
    """

    series: dict[str, Series]
    checks: dict[str, object]
    n_ok: dict[int, int]
    n_failed: int

    def table(self) -> str:
        """Every series as a titled block, then one line per check."""
        lines = []
        for name, (header, rows) in self.series.items():
            cells = [header] + [[f"{float(v):.12g}" for v in row] for row in rows]
            widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
            lines.append(f"[{name}]")
            for lead, row in zip(["# "] + ["  "] * len(rows), cells):
                lines.append(lead + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
            lines.append("")
        lines += [f"{name}: {value}" for name, value in self.checks.items()]
        lines.append(f"healthy samples by L: {self.n_ok}")
        lines.append(f"failed samples: {self.n_failed}")
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    records: list[RunRecord]
    summary: Summary
    invariant_violations: list[str]


def _parallel_map(fn: Callable, plan: ExperimentPlan, slots: list[tuple[int, int]]) -> list:
    """``fn(plan, index, sample)`` for each (index, sample) slot, in order."""
    # a fork pool starts all of its processes at the first submit, so start
    # no more than there are slots and usable CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(plan.workers, len(slots), cpus or 1)
    if workers <= 1:
        return [fn(plan, index, sample) for index, sample in slots]
    # numpy imports numpy.random lazily; importing it before the fork spares
    # every worker the import on its first sample
    import numpy.random  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    indices, samples = zip(*slots)
    chunk = max(1, len(slots) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, [plan] * len(slots), indices, samples, chunksize=chunk))


def _quantiles(values: np.ndarray) -> tuple[float, float, float]:
    if values.size == 0:
        return math.nan, math.nan, math.nan
    q25, med, q75 = np.quantile(values, [0.25, 0.5, 0.75])
    return float(med), float(q25), float(q75)


def _non_decreasing(values: list[float]) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _fraction(mask: np.ndarray) -> float:
    return float(np.mean(mask)) if mask.size else math.nan


def _column_means(rows: np.ndarray) -> np.ndarray:
    """Mean of each column; NaN for every column when there are no rows."""
    return rows.mean(axis=0) if len(rows) else np.full(rows.shape[1], math.nan)


# ---------------------------------------------------------------------------
# the shared sample pipeline: one provenance slot in, one record out

@dataclass(frozen=True)
class _Pipeline:
    """What one experiment adds to the shared sample pipeline.

    ``eig_count`` gives the number of lowest eigenpairs to solve for, or is
    None for a full dense spectrum.  ``observe(plan, l_index, sample_index,
    geom, ham, eig)`` returns the record fields, everything the summary
    reads of the sample; ``summarize(plan, groups)`` gets the healthy
    records grouped per L and returns the ``Summary`` series and checks.
    """

    eig_count: Callable[[ExperimentPlan], int] | None
    observe: Callable
    summarize: Callable
    interacting: bool = False


def replay_sample(plan: ExperimentPlan, l_index: int, sample_index: int) -> RunRecord:
    """Draw, solve and observe one (plan, L index, sample index) slot.

    ``run_plan`` maps this over the plan's slots, so any record of any
    experiment replays from its provenance.  A failure anywhere after the
    record's base fields becomes an error record.
    """
    pipeline = _PIPELINES[plan.experiment]
    half_side = plan.l_grid[l_index]
    geom = build_lattice(plan.dim, half_side)
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
        eig_start = time.perf_counter()
        if pipeline.eig_count is None:
            eig = np.linalg.eigvalsh(dense_matrix(ham))
        else:
            eig = lowest_eigenpairs(
                ham,
                pipeline.eig_count(plan),
                tol=plan.tol_eig,
                seed=provenance_stream(plan.seed, l_index, sample_index, EIG_CHANNEL),
            )
            base.update(
                eig_applies=eig.iterations,
                eig_single_applies=eig.single_applies,
                eig_residual_max=float(eig.residuals.max()),
            )
        base["t_eig"] = time.perf_counter() - eig_start
        fields = pipeline.observe(plan, l_index, sample_index, geom, ham, eig)
    except (RuntimeError, ValueError) as exc:
        return RunRecord(**base, error=str(exc), wall_time=time.perf_counter() - start)
    return RunRecord(**base, **fields, wall_time=time.perf_counter() - start)


def summarize(plan: ExperimentPlan, records: list[RunRecord]) -> Summary:
    """The plan's summary of its records, healthy ones grouped per L.

    Each record, error records included, must fill a distinct slot of the
    plan, with the plan's seed, dim and L; slots may stay empty.
    """
    open_slots = {
        (plan.seed, l_index, sample): half_side
        for l_index, half_side in enumerate(plan.l_grid)
        for sample in range(plan.samples)
    }
    groups: list[list[RunRecord]] = [[] for _ in plan.l_grid]
    for record in records:
        slot = (record.master_seed, record.l_index, record.sample_index)
        if record.dim != plan.dim or open_slots.pop(slot, None) != record.half_side:
            raise ValueError(f"record {slot} is not a distinct slot of this plan")
        if record.error is None:
            groups[record.l_index].append(record)
    series, checks = _PIPELINES[plan.experiment].summarize(plan, groups)
    n_ok = {half_side: len(group) for half_side, group in zip(plan.l_grid, groups)}
    return Summary(series, checks, n_ok, len(records) - sum(n_ok.values()))


def run_plan(plan: ExperimentPlan) -> ExperimentResult:
    """Run every (L, sample) slot of a plan and summarize its records."""
    slots = list(product(range(len(plan.l_grid)), range(plan.samples)))
    records = _parallel_map(replay_sample, plan, slots)
    return ExperimentResult(
        plan=plan,
        records=records,
        summary=summarize(plan, records),
        invariant_violations=[e for r in records for e in record_invariant_errors(r)],
    )


def _ground_fields(geom: LatticeGeometry, eig) -> dict:
    phi0 = eig.vectors[:, 0]
    return dict(
        e0=float(eig.values[0]),
        ipr=float(np.sum(np.abs(phi0) ** 4)),
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
    gp_start = time.perf_counter()
    gp = minimize_gp(problem, init=eig.vectors[:, 0], g_tol=plan.tol_gp)
    t_gp = time.perf_counter() - gp_start
    if not gp.converged:
        raise RuntimeError(f"minimizer stalled at projected gradient {gp.grad_norm:.3e}")
    cert = certificate(problem, eig, gp)
    fields = _pair_fields(geom, eig)
    fields.update(
        e_gp=gp.energy,
        overlap=cert.pi0_norm,
        cert_valid=cert.valid,
        cert_margin=cert.margin,
        orth_norm=cert.orth_norm,
        gp_iterations=gp.iterations,
        gp_grad_norm=gp.grad_norm,
        gp_applies=gp.applies,
        t_gp=t_gp,
    )
    return fields


def _summarize_condense(plan: ExperimentPlan, groups):
    overlap, gap, fraction = [], [], []
    for l_index, (half_side, group) in enumerate(zip(plan.l_grid, groups)):
        overlaps = np.array([r.overlap for r in group])
        eta = overlap_deficit_scale(half_side, plan.dim, plan.coupling_for(l_index))
        overlap.append([half_side, *_quantiles(overlaps)])
        gap.append([half_side, *_quantiles(np.array([r.gap for r in group]))])
        fraction.append([half_side, _fraction(overlaps >= 1.0 - eta), eta])
    series = {
        "overlap": (QUANTILE_COLUMNS, overlap),
        "gap": (QUANTILE_COLUMNS, gap),
        "condensate_fraction": (["half_side", "fraction", "eta"], fraction),
    }
    checks = {
        "coupling U by L": {
            half_side: plan.coupling_for(l_index)
            for l_index, half_side in enumerate(plan.l_grid)
        },
        "overlap trend non-decreasing": _non_decreasing([row[1] for row in overlap]),
        "fraction trend non-decreasing": _non_decreasing([row[1] for row in fraction]),
    }
    return series, checks


# ---------------------------------------------------------------------------
# spectrum runs (no interaction): ground-energy scaling, gaps, centers, gap law

def _observe_spectrum(plan, l_index, sample_index, geom, ham, eig):
    return _pair_fields(geom, eig)


# localization centers at most CENTER_LAMBDA * log L apart count as close
CENTER_LAMBDA = 8.0


def _summarize_spectrum(plan: ExperimentPlan, groups):
    e0, gap, law, centers = [], [], [], []
    for half_side, group in zip(plan.l_grid, groups):
        logl = math.log(max(half_side, 2))
        med, q25, q75 = _quantiles(np.array([r.e0 for r in group]))
        e0.append([half_side, med, q25, q75, med * logl ** (2.0 / plan.dim)])
        gaps = np.array([r.gap for r in group])
        dists = np.array([r.center_dist for r in group], dtype=float)
        gap.append([half_side, *_quantiles(gaps)])
        law += _gap_law(plan, half_side, gaps)
        median_dist = float(np.median(dists)) if dists.size else math.nan
        centers.append([half_side, median_dist, _fraction(dists <= CENTER_LAMBDA * logl)])
    series = {
        "e0": (QUANTILE_COLUMNS + ["normalized"], e0),
        "gap": (QUANTILE_COLUMNS, gap),
        "gap_law": (GAP_LAW_COLUMNS, law),
        "center_distance": (["half_side", "median_dist", "fraction_close"], centers),
    }
    # the paper's law e0 ~ (log L)^(-2/d): the normalized medians stay in a band
    normalized = [row[4] for row in e0 if math.isfinite(row[4])]
    band_min = min(normalized) if normalized else math.nan
    band_max = max(normalized) if normalized else math.nan
    checks = {
        "normalized band (min, max)": (band_min, band_max),
        "normalized band ratio": (
            band_max / band_min if normalized and band_min > 0 else math.nan
        ),
    }
    return series, checks


def _gap_law(plan: ExperimentPlan, half_side: int, gaps: np.ndarray) -> list[list]:
    """Rows (L, eta, P[gap <= eta L^-d]) for each eta of the plan's grid."""
    scale = half_side ** (-plan.dim)
    return [[half_side, eta, _fraction(gaps <= eta * scale)] for eta in plan.gap_eta_grid]


# ---------------------------------------------------------------------------
# spectral-hypothesis estimators: Wegner, Minami, Lifshitz, gap law

def _window_counts(vals: np.ndarray, center: float, widths) -> np.ndarray:
    """Levels in the closed window of each width centred on ``center``.

    ``vals`` ascend: the window [lo, hi] holds the levels from the first
    >= lo up to the last <= hi.
    """
    half = np.asarray(widths) / 2
    hi = vals.searchsorted(center + half, "right")
    return hi - vals.searchsorted(center - half, "left")


def _observe_estimates(plan, l_index, sample_index, geom, ham, vals):
    """Gap fields and the level counts in windows at the band center.

    The windows are ``wegner_widths + minami_widths``; a Minami hit is a
    count of at least 2.
    """
    center = (4.0 * plan.dim + plan.v_max) / 2.0
    widths = plan.wegner_widths + plan.minami_widths
    return dict(
        e0=float(vals[0]),
        e1=float(vals[1]),
        gap=float(vals[1] - vals[0]),
        window_counts=tuple(_window_counts(vals, center, widths).tolist()),
    )


def _box_ground_sample(plan: ExperimentPlan, side_index: int, sample_index: int) -> float:
    """Neumann ground energy of a side-l box with freshly sampled potential."""
    side = plan.box_sides[side_index]
    geom = build_lattice(plan.dim, side)  # host torus of side 2l+1 holds the box
    realization = sample_potential(
        plan.disorder_spec(), geom, side_index, sample_index, channel=BOX_CHANNEL
    )
    start = -(side // 2)
    region = Region(
        intervals=tuple((start, side) for _ in range(plan.dim)), bc="neumann"
    )
    box = restrict_hamiltonian(realization, region)
    return float(np.linalg.eigvalsh(dense_matrix(box))[0])


def _payload(group, name: str, size: int) -> list[tuple]:
    """Each record's tuple field ``name``, refused unless it has ``size`` entries
    (as are another experiment's records under the same seed, dim and L grid)."""
    values = [getattr(r, name) for r in group]
    if any(len(v) != size for v in values):
        raise ValueError(f"records lack the {size}-entry {name} payload this plan reads")
    return values


def _summarize_estimates(plan: ExperimentPlan, groups):
    wegner, minami, law = [], [], []
    minami_slopes: dict[int, float] = {}
    widths = np.asarray(plan.wegner_widths)
    n_windows = widths.size + len(plan.minami_widths)
    for half_side, group in zip(plan.l_grid, groups):
        # the reshape keeps the window axis when every sample of this L failed
        counts = np.array(_payload(group, "window_counts", n_windows), dtype=float)
        counts = counts.reshape(len(group), n_windows)

        means = _column_means(counts[:, : widths.size])
        slope = float((widths * means).sum() / (widths**2).sum())
        wegner += [[half_side, w, m, slope * w] for w, m in zip(widths, means)]

        probs = _column_means(counts[:, widths.size :] >= 2)
        minami += [[half_side, w, prob] for w, prob in zip(plan.minami_widths, probs)]
        positive = [(w, p) for w, p in zip(plan.minami_widths, probs) if p > 0]
        if len(positive) >= 2:
            lw = np.log([w for w, _ in positive])
            lp = np.log([p for _, p in positive])
            design = np.column_stack([np.ones_like(lw), lw])
            sol, *_ = np.linalg.lstsq(design, lp, rcond=None)
            minami_slopes[half_side] = float(sol[1])
        else:
            minami_slopes[half_side] = math.nan

        law += _gap_law(plan, half_side, np.array([r.gap for r in group]))

    slots = list(product(range(len(plan.box_sides)), range(plan.samples)))
    energies = np.array(_parallel_map(_box_ground_sample, plan, slots))
    lifshitz = [
        [side, float(np.mean(row <= side**-2.0))]
        for side, row in zip(plan.box_sides, energies.reshape(-1, plan.samples))
    ]

    series = {
        "wegner": (["half_side", "width", "mean_count", "fit"], wegner),
        "minami": (["half_side", "width", "prob"], minami),
        "lifshitz": (["side", "prob"], lifshitz),
        "gap_law": (GAP_LAW_COLUMNS, law),
    }
    return series, {"Minami log-log slope by L": minami_slopes}


# ---------------------------------------------------------------------------
# shell / four-norm calibration

def _observe_shells(plan, l_index, sample_index, geom, ham, eig):
    """Ground-state fields, plus one random field's statistics per kept eps.

    An eps with eps * L < 1 has no shell to sample and is skipped; the
    summary names the skipped eps per L.  The corpus ratio of phi0 needs
    no field of its own: it is ``ipr**0.25 / g(eps)`` at the band scale of
    ``kinetic``.
    """
    rng = provenance_stream(plan.seed, l_index, sample_index, FIELD_CHANNEL)
    stats = [
        shell_statistics(geom, random_low_energy_field(geom, eps, rng), eps)
        for eps in _kept_eps(plan, geom.half_side)
    ]
    return dict(
        _ground_fields(geom, eig),
        field_four_norm_ratio=tuple(s[0] for s in stats),
        field_sup_ratio=tuple(s[1] for s in stats),
        field_annulus_ok=tuple(s[2] for s in stats),
    )


def _kept_eps(plan: ExperimentPlan, half_side: int) -> list[float]:
    """The shell scales with a shell to sample at L: eps L >= 1."""
    return [eps for eps in plan.eps_grid if eps * half_side >= 1]


def _summarize_shells(plan: ExperimentPlan, groups):
    four_norm, sup_bound, corpus_rows = [], [], []
    skipped, annulus_ok, within_3x = {}, {}, {}
    for half_side, group in zip(plan.l_grid, groups):
        geom = build_lattice(plan.dim, half_side)
        kept = _kept_eps(plan, half_side)
        skipped[half_side] = [eps for eps in plan.eps_grid if eps not in kept]
        trial_ratios = []
        field_ratios, field_sups, field_annuli = (
            _payload(group, name, len(kept))
            for name in ("field_four_norm_ratio", "field_sup_ratio", "field_annulus_ok")
        )
        for j, eps in enumerate(kept):
            delta = trial_delta_background(geom, eps)
            delta_unit = delta / np.linalg.norm(delta)
            delta_ratio = float(np.linalg.norm(delta_unit, 4)) / g_scale(eps, plan.dim)
            flat = trial_flat_fourier(geom, eps)
            flat_ratio = float(np.linalg.norm(flat, 4)) / g_scale(eps, plan.dim)
            trial_ratios += [delta_ratio, flat_ratio]

            if not group:
                continue
            ratios = np.array([r[j] for r in field_ratios])
            row = [half_side, eps, float(ratios.max()), float(np.median(ratios))]
            four_norm.append(row + [delta_ratio, flat_ratio])
            sup = float(np.nanmax([r[j] for r in field_sups]))
            sup_bound.append([half_side, eps, sup])
            annulus_ok[half_side, eps] = all(r[j] for r in field_annuli)

        # ||phi0||_4 / g(eps) at phi0's band scale
        scales = [default_band_scale(half_side, r.kinetic) for r in group]
        corpus = np.array([r.ipr**0.25 / g_scale(e, plan.dim) for r, e in zip(group, scales)])
        trial_scale = max(trial_ratios) if trial_ratios else math.nan
        corpus_max = float(corpus.max()) if corpus.size else math.nan
        corpus_median = float(np.median(corpus)) if corpus.size else math.nan
        corpus_rows.append([half_side, corpus_max, corpus_median, trial_scale])
        # False when either side is NaN: no corpus, or every eps skipped
        within_3x[half_side] = bool(corpus_max <= 3.0 * trial_scale)

    series = {
        "four_norm_ratio": (
            ["half_side", "eps", "ratio_max", "ratio_median", "delta", "flat"],
            four_norm,
        ),
        "sup_bound": (["half_side", "eps", "sup_ratio_max"], sup_bound),
        "corpus": (["half_side", "corpus_max", "corpus_median", "trial_scale"], corpus_rows),
    }
    checks = {
        "eps skipped (eps L < 1) by L": skipped,
        "annulus bound holds by (L, eps)": annulus_ok,
        "corpus max within 3x trial scale by L": within_3x,
    }
    return series, checks


_PIPELINES = {
    "condense": _Pipeline(
        lambda plan: 2, _observe_condense, _summarize_condense, interacting=True
    ),
    "spectrum": _Pipeline(
        lambda plan: plan.eig_count, _observe_spectrum, _summarize_spectrum
    ),
    "estimates": _Pipeline(None, _observe_estimates, _summarize_estimates),
    "shells": _Pipeline(lambda plan: 1, _observe_shells, _summarize_shells),
}
EXPERIMENTS = tuple(_PIPELINES)


"""Measurement process of the gplattice benchmark; ``run.py`` starts it.

Three modes, each printing one JSON object as its last stdout line:

* ``setup``: CPU time of a fresh interpreter until gplattice is imported,
  the plan's lattices are built and (with workers > 1) the process pool has
  started and stopped.
* ``e2e``: a fixed number of rounds of ``gplattice.cli.main`` with ``--out``
  in a temporary directory (``Workload.rounds(--seconds)``).  Each round's
  outputs are gated for correctness once it returns, and ``setup`` probes
  run between rounds; the workload's reference plan comes last.
* ``trace``: ``trace_rounds`` rounds through ``cli.main``, each followed by
  a serial replay of its samples through each module's public functions
  with a span around every call; then operator-apply and eigensolver
  micro-measurements.

Throughput is counted in CPU seconds of the process and its pool workers,
not in wall seconds.  On shared virtual CPUs, wall time includes the time
the hypervisor gives a CPU to other guests (steal time): on a 2-CPU virtual
machine that moved wall-clock rates by 20-50% over minutes.

Run it through ``run.py``, which sets the thread-count environment first.
"""

import time

T_START = time.perf_counter()

# setup time counts from here: everything below is part of it
import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import dataclass, field, fields  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gplattice as g  # noqa: E402
from gplattice import cli  # noqa: E402
from gplattice.disorder import BOX_CHANNEL, EIG_CHANNEL  # noqa: E402
from gplattice.ensemble import plan_from_options  # noqa: E402
from gplattice.records import read_records  # noqa: E402
from gplattice.spectral import EigenConvergenceError, HamiltonianOperator  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Workload, round_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def plan_for(w: Workload, master_seed: int, samples: int):
    return plan_from_options(w.options_dict(master_seed, samples))


def plan_geometries(plan) -> list[tuple[int, int]]:
    """(dim, half side) of every lattice a run of the plan builds."""
    sides = list(plan.l_grid)
    if plan.experiment == "estimates":
        sides += [s for s in plan.box_sides if s not in sides]
    return [(plan.dim, s) for s in sides]


# ---------------------------------------------------------------------------
# setup


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(w: Workload) -> dict:
    for dim, half_side in plan_geometries(plan_for(w, 0, 1)):
        g.build_lattice(dim, half_side)
    if w.workers > 1:
        with ProcessPoolExecutor(max_workers=w.workers) as pool:
            list(pool.map(abs, range(w.workers)))
            elapsed = time.perf_counter() - T_START
    else:
        elapsed = time.perf_counter() - T_START
    # the pool's workers are reaped on leaving the block, so their CPU counts
    return {"setup_s": cpu_seconds(), "setup_wall_s": elapsed}


# ---------------------------------------------------------------------------
# rounds through the public entry point


@dataclass
class Round:
    master_seed: int
    samples: int
    elapsed: float
    cpu: float          # CPU seconds of this process and its pool workers
    returncode: int
    records: list
    bad_lines: list
    out: Path


def run_round(w: Workload, master_seed: int, samples: int, tmp: Path) -> Round:
    out = tmp / f"{w.name}-{master_seed}.jsonl"
    argv = w.argv(master_seed, samples, str(out))
    with contextlib.redirect_stdout(io.StringIO()):   # the summary table
        cpu = cpu_seconds()
        start = time.perf_counter()
        returncode = cli.main(argv)
        elapsed = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
    result = read_records(out)
    return Round(
        master_seed, samples, elapsed, cpu, returncode, result.records, result.bad_lines, out
    )


def lifshitz_series(r: Round):
    from checks import read_series

    path = r.out.with_suffix(".lifshitz.dat")
    return read_series(path) if path.exists() else None


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus workers x the largest worker peak (an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def tail(walls: list[float]) -> tuple[float, float] | tuple[None, None]:
    """(value, percentile) of the highest order statistic with 10 samples beyond."""
    n = len(walls)
    if n < 11:
        return None, None
    return sorted(walls)[n - 11], (n - 10) / n


@dataclass
class Tally:
    """What an end-to-end run keeps of each round once it is gated."""

    rounds: int = 0
    records: int = 0
    cli_s: float = 0.0
    cpu_s: float = 0.0
    round_cpu: list = field(default_factory=list)       # (records, CPU s)
    walls_by_l: dict = field(default_factory=dict)
    cost_by_l: dict = field(default_factory=dict)       # half side -> [(CPU s, speed)]
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)

    def add(self, w: Workload, r: Round, speed: float) -> None:
        """Gate round ``r``, run while the machine ran at ``speed`` (see ``speed_probe``)."""
        from checks import gate_records

        self.rounds += 1
        self.records += len(r.records)
        self.cli_s += r.elapsed
        self.cpu_s += r.cpu
        self.round_cpu.append((len(r.records), r.cpu))
        for rec in r.records:
            self.walls_by_l.setdefault(rec.half_side, []).append(rec.wall_time)
        if any(rec.wall_time > 0 for rec in r.records):
            # the round's CPU share of wall time, spread evenly over its
            # samples, takes out the time the CPU was lent away
            for rec in r.records:
                self.cost_by_l.setdefault(rec.half_side, []).append(
                    (rec.wall_time * r.cpu / r.elapsed, speed)
                )
        elif r.records:
            # estimates records carry no wall time; their cost is uniform
            self.cost_by_l.setdefault("round", []).append((r.cpu / len(r.records), speed))
        v_max = float(dict(w.options).get("v_max", "1.0"))
        a, f, bad, p = gate_records(r.records, r.master_seed, len(w.l_grid), r.samples, v_max)
        if r.bad_lines:
            p.append(f"seed={r.master_seed}: unreadable record lines {r.bad_lines[:3]}")
        if r.returncode != 0:
            p.append(f"seed={r.master_seed}: cli.main returned {r.returncode}")
        self.attempted += a
        self.failed += f
        self.wrong += bad + bool(r.bad_lines) + (r.returncode != 0)
        self.problems += p

    def cpu_rate(self, at_reference_speed: bool) -> float:
        """Samples per CPU second at the typical per-sample cost.

        Per-sample cost is heavy-tailed (a condense sample with a small gap
        takes up to 100x the median), so the plain rate of a run moves with
        the few slow samples a seed happens to draw.  This rate is the
        number of L values over the sum of the per-L interquartile means of
        per-sample CPU time; across seeds that repeats as well as the median
        on ``trend-1d`` and better on ``spectrum-2d``.  Records without wall
        time (``estimates``) get their round's CPU time per record.  With
        ``at_reference_speed`` every CPU time is first scaled by the machine
        speed measured next to its round.
        """
        typical = [
            interquartile_mean([cpu * speed if at_reference_speed else cpu for cpu, speed in v])
            for v in self.cost_by_l.values()
        ]
        return len(typical) / sum(typical)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


# CPU seconds of ``speed_probe`` on a 2-CPU virtual machine in its fast
# state (Python 3.11, numpy 2.4, 1 BLAS thread); sets only the scale of the
# reference rates
SPEED_PROBE_REF_S = 0.020


@functools.cache
def _probe_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    block = rng.standard_normal((65 * 65, 5))
    a = rng.standard_normal((65, 65))
    return block, a + a.T


def speed_probe() -> float:
    """Machine speed now, relative to ``SPEED_PROBE_REF_S``.

    On a shared virtual machine even CPU time is not steady: for seconds at
    a time the same work takes 25-40% more CPU time (the host shares its
    cores), and a 30 s run can spend from a third to most of its time in
    that state.  The probe is a fixed kernel that does not call gplattice
    (a Python loop, a 2D five-point stencil on a 5-column block, small dense
    ``eigvalsh``: the kinds of work the workloads do), so it measures the
    machine and never the program.
    """
    u, matrix = _probe_inputs()
    start = time.process_time()
    acc = 0.0
    for i in range(80_000):
        acc += i * 0.5
    for _ in range(80):
        v = 4.0 * u
        v[:-1] -= u[1:]
        v[1:] -= u[:-1]
        v[:-65] -= u[65:]
        v[65:] -= u[:-65]
    for _ in range(40):
        np.linalg.eigvalsh(matrix)
    return SPEED_PROBE_REF_S / (time.process_time() - start)


def setup_probe(w: Workload) -> dict:
    """``setup_s`` measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "setup", "--workload", w.name],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@contextlib.contextmanager
def tempfile_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_e2e(w: Workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    rss = None
    probes: list[dict] = []
    rounds = w.rounds(seconds)
    speed_probe()   # the first call runs cold
    speeds = [speed_probe()]
    with tempfile_dir() as tmp:
        for i in range(rounds):
            r = run_round(w, round_seed(seed, i), w.round_samples, tmp)
            speeds.append(speed_probe())
            if rss is None:
                # first round, before the checker's imports and the probes
                rss = peak_rss_mb(w.workers)
            tally.add(w, r, (speeds[-2] + speeds[-1]) / 2)
            for path in tmp.iterdir():
                path.unlink()
            # spread the setup probes over the run: machine speed drifts
            # over seconds, and the median should see more than one moment
            if len(probes) < SETUP_PROBES and (i + 1) * SETUP_PROBES >= (len(probes) + 1) * rounds:
                probes.append(setup_probe(w))
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(w))
        from checks import compare_reference

        ref = run_round(w, REFERENCE_SEED, w.reference_samples, tmp)
        ref_problems = compare_reference(w.name, ref.records, lifshitz_series(ref))
    if ref.returncode != 0:
        ref_problems.append(f"reference plan: cli.main returned {ref.returncode}")

    walls = [x for v in tally.walls_by_l.values() for x in v]
    metrics = {
        "samples_per_ref_cpu_s": tally.cpu_rate(at_reference_speed=True),
        "samples_per_cpu_s": tally.cpu_rate(at_reference_speed=False),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": rss,
        "samples_per_s": tally.records / tally.cli_s,
        "failed_frac": tally.failed / tally.attempted,
    }
    # estimates records carry wall_time=0.0; their latency is absent, not 0
    q = None
    if any(walls):
        metrics["sample_p50_s"] = statistics.median(walls)
        metrics["sample_tail_s"], q = tail(walls)
    return {
        "correct": tally.wrong == 0 and not ref_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": (tally.problems + ref_problems)[:20],
        "metrics": metrics,
        "details": {
            "rounds": tally.rounds,
            "records": tally.records,
            "cli_seconds": tally.cli_s,
            "cli_cpu_seconds": tally.cpu_s,
            "round_cpu_rates": [round(n / cpu, 4) for n, cpu in tally.round_cpu],
            "speeds": [round(x, 3) for x in speeds],
            "setup_cpu_s": [round(p["setup_s"], 4) for p in probes],
            "setup_wall_s": [round(p["setup_wall_s"], 4) for p in probes],
            "tail_percentile": q,
        },
    }


# ---------------------------------------------------------------------------
# traced replay


@dataclass(frozen=True)
class CountingOperator(HamiltonianOperator):
    """The same operator; counts applied columns in ``counter[0]``."""

    counter: list = field(default_factory=lambda: [0])

    def apply(self, u):
        self.counter[0] += 1 if u.ndim == 1 else u.shape[1]
        return super().apply(u)

    @classmethod
    def wrap(cls, ham: HamiltonianOperator) -> "CountingOperator":
        return cls(**{f.name: getattr(ham, f.name) for f in fields(ham)})


class Replay:
    """Serial replay of ensemble samples with a span around each module call."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.geoms: dict = {}
        self.eig_applies = 0
        self.gp_iterations = 0
        self.gp_applies = 0
        self.eig_by_l: dict[int, list[float]] = {}   # half side -> [seconds, applies]

    def geom(self, dim, half_side):
        key = (dim, half_side)
        if key not in self.geoms:
            self.geoms[key] = g.build_lattice(dim, half_side)
        return self.geoms[key]

    def _potential_and_hamiltonian(self, plan, geom, l_index, sample_index):
        with self.tr.span("disorder.sample"):
            realization = g.sample_potential(plan.disorder_spec(), geom, l_index, sample_index)
        with self.tr.span("disorder.hamiltonian"):
            return g.periodic_hamiltonian(realization)

    def _eig(self, plan, ham, count, l_index, sample_index):
        with self.tr.span("spectral.eig") as span:
            eig = g.lowest_eigenpairs(
                ham, count, tol=plan.tol_eig,
                seed=g.provenance_stream(plan.seed, l_index, sample_index, EIG_CHANNEL),
            )
        acc = self.eig_by_l.setdefault(ham.geom.half_side, [0.0, 0])
        acc[0] += span.end - span.start
        acc[1] += eig.iterations
        self.eig_applies += eig.iterations
        return eig

    def condense(self, plan, l_index, sample_index):
        geom = self.geom(plan.dim, plan.l_grid[l_index])
        with self.tr.span("ensemble.sample"):
            ham = self._potential_and_hamiltonian(plan, geom, l_index, sample_index)
            eig = self._eig(plan, ham, 2, l_index, sample_index)
            counted = CountingOperator.wrap(ham)
            problem = g.GPProblem(counted, plan.coupling_for(l_index))
            with self.tr.span("gp.minimize"):
                gp = g.minimize_gp(problem, init=eig.vectors[:, 0], g_tol=plan.tol_gp)
            self.gp_iterations += gp.iterations
            self.gp_applies += counted.counter[0]
            if not gp.converged:
                raise RuntimeError("minimizer stalled")   # an error record, as in the run
            with self.tr.span("gp.certificate"):
                g.certificate(problem, eig, gp)
            with self.tr.span("analysis.post"):
                g.gap_and_overlap(geom, eig, gp)
                loc0 = g.localization_center(geom, eig.vectors[:, 0])
                loc1 = g.localization_center(geom, eig.vectors[:, 1])
                g.torus_distance(geom, geom.site_index(loc0.center), geom.site_index(loc1.center))
        return (float(eig.values[0]), float(eig.values[1]), gp.energy, gp.iterations)

    def spectrum(self, plan, l_index, sample_index):
        geom = self.geom(plan.dim, plan.l_grid[l_index])
        with self.tr.span("ensemble.sample"):
            ham = self._potential_and_hamiltonian(plan, geom, l_index, sample_index)
            eig = self._eig(plan, ham, max(2, plan.eig_count), l_index, sample_index)
            with self.tr.span("analysis.post"):
                phi0 = eig.vectors[:, 0]
                loc0 = g.localization_center(geom, phi0)
                loc1 = g.localization_center(geom, eig.vectors[:, 1])
                g.torus_distance(geom, geom.site_index(loc0.center), geom.site_index(loc1.center))
                float(np.sum(phi0**4))
                g.dirichlet_energy(geom, phi0)
        return (float(eig.values[0]), float(eig.values[1]), float("nan"), 0)

    def _dense_values(self, ham):
        with self.tr.span("spectral.dense"):
            return np.linalg.eigvalsh(g.dense_matrix(ham))

    def estimates(self, plan, l_index, sample_index):
        geom = self.geom(plan.dim, plan.l_grid[l_index])
        with self.tr.span("ensemble.sample"):
            ham = self._potential_and_hamiltonian(plan, geom, l_index, sample_index)
            vals = self._dense_values(ham)
            center = (4.0 * plan.dim + plan.v_max) / 2.0
            for w in plan.wegner_widths + plan.minami_widths:
                int(((vals >= center - w / 2) & (vals <= center + w / 2)).sum())
        return (float(vals[0]), float(vals[1]), float("nan"), 0)

    def box_ground(self, plan, side_index, sample_index) -> float:
        side = plan.box_sides[side_index]
        geom = self.geom(plan.dim, side)
        with self.tr.span("ensemble.sample"):
            with self.tr.span("disorder.sample"):
                realization = g.sample_potential(
                    plan.disorder_spec(), geom, side_index, sample_index, channel=BOX_CHANNEL
                )
            with self.tr.span("disorder.hamiltonian"):
                region = g.Region(
                    intervals=tuple((-(side // 2), side) for _ in range(plan.dim)),
                    bc="neumann",
                )
                box = g.restrict_hamiltonian(realization, region)
            return float(self._dense_values(box)[0])

    def plan(self, plan) -> tuple[dict, list | None]:
        """Replay every sample of a plan; returns per-key results, lifshitz rows."""
        sample = getattr(self, plan.experiment)
        results = {}
        for l_index in range(len(plan.l_grid)):
            for s in range(plan.samples):
                # failures become error records in the run; None here
                try:
                    results[l_index, s] = sample(plan, l_index, s)
                except (EigenConvergenceError, RuntimeError, ValueError):
                    results[l_index, s] = None
        lifshitz = None
        if plan.experiment == "estimates":
            lifshitz = []
            for side_index, side in enumerate(plan.box_sides):
                energies = [self.box_ground(plan, side_index, s) for s in range(plan.samples)]
                below = sum(e <= side**-2.0 for e in energies)
                lifshitz.append([float(side), below / len(energies)])
        return results, lifshitz


def time_per_call(fn, min_batch_s: float = 0.005, batches: int = 7) -> float:
    """Median seconds per call over batches of at least ``min_batch_s``."""
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - start >= min_batch_s:
            break
        reps *= 2
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - start) / reps)
    return statistics.median(per_call)


def apply_col_s(ham, width: int) -> float:
    u = np.random.default_rng(0).standard_normal((ham.n_sites, width))
    if width == 1:
        u = u[:, 0]
    return time_per_call(lambda: ham.apply(u)) / width


def consistency_problems(r: Round, replayed: dict, lifshitz) -> list[str]:
    """Replayed values must equal the CLI run's records bit for bit."""
    problems = []
    for rec in r.records:
        got = replayed.get((rec.l_index, rec.sample_index), "missing")
        if rec.error is not None:
            want = None
            same = got is None
        else:
            want = (rec.e0, rec.e1, rec.e_gp, rec.gp_iterations)
            same = got not in (None, "missing") and all(
                a == b or (a != a and b != b) for a, b in zip(got, want)
            )
        if not same:
            problems.append(
                f"replay of seed={rec.master_seed} L_index={rec.l_index} "
                f"sample={rec.sample_index} gave {got}, record has {want}"
            )
    if lifshitz is not None and lifshitz != lifshitz_series(r):
        problems.append(f"replayed lifshitz rows {lifshitz} differ from {lifshitz_series(r)}")
    return problems


BASELINE_CASES = ((1, 512), (2, 32), (3, 10))


def baseline_table(seed: int) -> dict:
    """lowest_eigenpairs(count=2, tol=1e-10) on the ROADMAP baseline sizes."""
    out = {}
    for dim, half_side in BASELINE_CASES:
        geom = g.build_lattice(dim, half_side)
        spec = g.DisorderSpec(master_seed=seed)
        ham = g.periodic_hamiltonian(g.sample_potential(spec, geom))
        start = time.perf_counter()
        eig = g.lowest_eigenpairs(
            ham, 2, tol=1e-10, seed=g.provenance_stream(seed, 0, 0, EIG_CHANNEL)
        )
        tag = f"baseline.d{dim}_L{half_side}"
        out[f"{tag}.eig_s"] = time.perf_counter() - start
        out[f"{tag}.eig_applies"] = eig.iterations
        out[f"{tag}.apply_col_s"] = apply_col_s(ham, 2 * dim + 1)
    return out


def measure_trace(w: Workload, seed: int) -> dict:
    tracer = Tracer()
    replay = Replay(tracer)
    rounds: list[Round] = []
    problems: list[str] = []
    traced = 0.0
    with tempfile_dir() as tmp:
        # each round runs untraced, then traced right after, so slow drift
        # in machine speed hits both sides of the overhead ratio alike
        for i in range(w.trace_rounds):
            r = run_round(w, round_seed(seed, i), w.round_samples, tmp)
            rounds.append(r)
            start = time.perf_counter()
            replayed, lifshitz = replay.plan(plan_for(w, r.master_seed, r.samples))
            traced += time.perf_counter() - start
            problems += consistency_problems(r, replayed, lifshitz)
        untraced = sum(r.elapsed for r in rounds)
        n_records = sum(len(r.records) for r in rounds)

        write_s = 0.0
        written = 0
        for r in rounds:
            path = tmp / f"rewrite-{r.master_seed}.jsonl"
            begin = time.perf_counter()
            g.write_records(path, r.records)
            write_s += time.perf_counter() - begin
            written += path.stat().st_size

    plan0 = plan_for(w, rounds[0].master_seed, rounds[0].samples)
    builds = []
    for _ in range(5):
        start = time.perf_counter()
        for dim, half_side in plan_geometries(plan0):
            g.build_lattice(dim, half_side)
        builds.append(time.perf_counter() - start)

    # operator applies on the workload's own operators (sample 0 of each L)
    block = 2 * w.dim + 1
    col_block = {}
    for l_index, half_side in enumerate(plan0.l_grid):
        geom = g.build_lattice(w.dim, half_side)
        ham = g.periodic_hamiltonian(
            g.sample_potential(plan0.disorder_spec(), geom, l_index, 0)
        )
        col_block[half_side] = apply_col_s(ham, block)
    col_1 = apply_col_s(ham, 1)   # largest L
    eig_time = sum(t for t, _ in replay.eig_by_l.values())
    eig_share = (
        sum(n * col_block[l] for l, (_, n) in replay.eig_by_l.items()) / eig_time
        if eig_time > 0 else 0.0
    )

    self_s = tracer.self_times()
    per = lambda name: self_s.get(name, 0.0) / n_records  # noqa: E731
    metrics = {
        "lattice.build_s": statistics.median(builds),
        "disorder.sample_s": per("disorder.sample"),
        "disorder.hamiltonian_s": per("disorder.hamiltonian"),
        "spectral.eig_s": per("spectral.eig"),
        "spectral.eig_applies": replay.eig_applies / n_records,
        "spectral.apply_col_s.w1": col_1,
        "spectral.apply_col_s.wblock": col_block[plan0.l_grid[-1]],
        "spectral.eig_apply_share": eig_share,
        "spectral.dense_s": per("spectral.dense"),
        "gp.minimize_s": per("gp.minimize"),
        "gp.iterations": replay.gp_iterations / n_records,
        "gp.applies": replay.gp_applies / n_records,
        "gp.certificate_s": per("gp.certificate"),
        "analysis.post_s": per("analysis.post"),
        "ensemble.sample_self_s": per("ensemble.sample"),
        "ensemble.pool_efficiency": tracer.root_time() / (untraced * w.workers),
        "ensemble.unattributed_s": (untraced * w.workers - tracer.root_time()) / n_records,
        "records.write_s": write_s / n_records,
        "records.bytes_per_record": written / n_records,
        "trace.overhead_ratio": traced / untraced,
    }
    metrics.update(baseline_table(seed))
    return {
        "correct": not problems and all(r.returncode == 0 for r in rounds),
        "attempted": n_records,
        "failed": sum(rec.error is not None for r in rounds for rec in r.records),
        "problems": problems[:20],
        "metrics": metrics,
        "details": {
            "rounds": len(rounds),
            "records": n_records,
            "untraced_cli_s": untraced,
            "traced_replay_s": traced,
            "spans": len(tracer.spans),
            "eig_applies_total": replay.eig_applies,
            "gp_iterations_total": replay.gp_iterations,
            "gp_applies_total": replay.gp_applies,
        },
    }


# ---------------------------------------------------------------------------
# run metadata


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it exposes one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gplattice").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(w: Workload, seed: int) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "workers": w.workers,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "e2e", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = measure_setup(w)
    elif args.mode == "e2e":
        result = measure_e2e(w, args.seed, args.seconds)
        result["meta"] = metadata(w, args.seed)
    else:
        result = measure_trace(w, args.seed)
        result["meta"] = metadata(w, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

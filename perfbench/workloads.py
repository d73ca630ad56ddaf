"""The three benchmark workloads, each one fixed ``ExperimentPlan`` shape.

A run executes rounds of one workload.  Round ``r`` of workload seed ``s``
uses the master seed ``s * ROUND_STRIDE + r``, so every round draws fresh
disorder samples.  The round size fixes the sample mix (every round covers
each L equally).  The number of rounds is fixed by ``--seconds`` alone
(:meth:`Workload.rounds`), not by how fast the machine runs, so the same
seed and run length always give the same inputs and the same records.

Why these three:

* ``trend-1d`` is the paper's headline condensation trend.  Most of a
  sample is ``gp.minimize_gp`` (single-vector operator applications), the
  rest ``spectral.lowest_eigenpairs`` with a 3-column block.
* ``spectrum-2d`` runs only the eigensolver, on 4225 sites with 5-column
  blocks.  A GP change should leave it unchanged; a stencil change shows on
  block applies here and on single-vector applies in ``trend-1d``.
* ``estimates-1d`` skips both iterative solvers: thousands of small dense
  diagonalizations plus four Neumann-box passes, spread over a 2-worker
  process pool.  It is the only workload that drives the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ROUND_STRIDE = 1000

# master seed of the reference plans whose records are committed in
# reference.json; independent of any workload seed
REFERENCE_SEED = 20091017


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    options: tuple[tuple[str, str], ...]   # cli flags other than seed/samples/out
    round_samples: int                     # samples per L in one timed round
    round_s: float                         # seconds of a median round, 2-CPU host
    min_rounds: int                        # the typical cost needs at least these
    reference_samples: int                 # samples per L in the reference plan
    trace_rounds: int                      # rounds replayed by a traced run

    def rounds(self, seconds: float) -> int:
        """Rounds of a timed run: about ``seconds`` long, at least ``min_rounds``."""
        return max(self.min_rounds, math.ceil(seconds / self.round_s))

    def option(self, key: str) -> str:
        return dict(self.options)[key]

    @property
    def dim(self) -> int:
        return int(self.option("dim"))

    @property
    def workers(self) -> int:
        return int(self.option("workers"))

    @property
    def l_grid(self) -> tuple[int, ...]:
        return tuple(int(tok) for tok in self.option("l_grid").split(","))

    def argv(self, master_seed: int, samples: int, out: str) -> list[str]:
        """Command line for ``gplattice.cli.main``."""
        argv = [self.experiment, "--seed", str(master_seed)]
        for key, value in self.options:
            argv += ["--" + key.replace("_", "-"), value]
        return argv + ["--samples", str(samples), "--out", out]

    def options_dict(self, master_seed: int, samples: int) -> dict[str, str]:
        """The same plan as :meth:`argv`, as ``plan_from_options`` input."""
        out = dict(self.options)
        out.update(experiment=self.experiment, seed=str(master_seed), samples=str(samples))
        return out


def round_seed(seed: int, round_index: int) -> int:
    if not 0 <= round_index < ROUND_STRIDE:
        raise ValueError(f"round index {round_index} outside [0, {ROUND_STRIDE})")
    return seed * ROUND_STRIDE + round_index


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trend-1d",
            experiment="condense",
            options=(
                ("dim", "1"),
                ("l_grid", "64,128,256,512"),
                ("schedule", "theorem"),
                ("c", "1"),
                ("workers", "1"),
            ),
            round_samples=1,
            # median round; small-gap samples take up to 100x the median
            # (20 s at L=64), so the mean round costs about 0.9 s.  The
            # per-L typical costs need about 40 samples per L to repeat
            # within about 7% across seeds.
            round_s=0.6,
            min_rounds=40,
            reference_samples=1,
            trace_rounds=8,
        ),
        Workload(
            name="spectrum-2d",
            experiment="spectrum",
            options=(
                ("dim", "2"),
                ("l_grid", "32"),
                ("schedule", "0"),
                ("eig_count", "2"),
                ("workers", "1"),
            ),
            round_samples=1,
            round_s=1.4,
            # per-sample cost varies by about 20% with the eigensolver's
            # applies; 24 samples put the typical cost within about 5%
            min_rounds=24,
            reference_samples=1,
            trace_rounds=6,
        ),
        Workload(
            name="estimates-1d",
            experiment="estimates",
            options=(
                ("dim", "1"),
                ("l_grid", "32"),
                ("v_max", "6"),
                ("schedule", "0"),
                ("workers", "2"),
            ),
            round_samples=1000,
            round_s=1.1,
            min_rounds=12,
            reference_samples=40,
            trace_rounds=2,
        ),
    )
}

"""gplattice ensemble benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload trend-1d --seed 0 --seconds 20 --trace 0

Workloads are defined in ``perfbench/workloads.py``, metrics in
``BENCHMARK.json`` and explained in ``perfbench/README.md``.  With
``--trace 0`` the run times rounds of ``gplattice.cli.main`` (records written
to a temporary directory, as a user's run writes them), gates every output
for correctness and reports the end-to-end metrics.  With ``--trace 1`` it
replays fixed rounds through each module's public functions with spans and
reports the per-layer metrics.  Lines before the last describe the run; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

The program is imported from ``src/`` of this checkout; measurement runs in
child processes started with ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0

# printed for a reader but not gated: unsteady across seeds (samples_per_s,
# the tail) or absent on a workload (latencies of estimates records)
REPORTED_ONLY = {
    "samples_per_cpu_s": "1/s",
    "samples_per_s": "1/s",
    "sample_p50_s": "s",
    "sample_tail_s": "s",
    "failed_frac": "ratio",
}
NOTES = {"spectral.eig_apply_share": "computed: applies x apply_col_s.wblock / eig_s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def measure(mode: str, args) -> dict:
    """Run ``measure.py`` in a fresh interpreter; returns its JSON result."""
    cmd = [
        sys.executable, str(HERE / "measure.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"measure.py {mode} did not finish in {DEADLINE_S:.0f} s")
    finally:
        # pool workers and probes share the session; none may outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {mode} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gplattice ensemble benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "gplattice" / "__init__.py").is_file():
        print(f"error: no gplattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        result = measure("trace" if args.trace else "e2e", args)
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        }
    except (RuntimeError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    shown = units if args.trace else {**units, **REPORTED_ONLY}
    for name, unit in shown.items():
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        print(f"  {name:32s} {fmt(result['metrics'].get(name)):>12s} {unit}{note}")
    print("details " + json.dumps(result["details"]))
    print("meta " + json.dumps(result["meta"]))
    for problem in result["problems"]:
        print("problem " + problem)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

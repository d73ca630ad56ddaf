"""Regenerate ``reference.json``: the records of each workload's reference plan.

Run from the repository root:

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/make_reference.py

Each workload's reference plan (master seed ``REFERENCE_SEED``) goes through
``gplattice.cli.main``.  Before anything is written, every record's ``e0``
and ``e1`` are cross-checked against ``scipy.sparse.linalg.eigsh`` on an
independently assembled Hamiltonian; the largest deviation is stored with
the values.  Regenerate only when a change is meant to move the references.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import measure
from checks import (
    ORACLE_TOL,
    REFERENCE_PATH,
    eigsh_lowest_two,
    reference_row,
    uniform_potential,
)
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    out = {"reference_seed": REFERENCE_SEED, "workloads": {}}
    worst = 0.0
    with measure.tempfile_dir() as tmp:
        for name, w in WORKLOADS.items():
            r = measure.run_round(w, REFERENCE_SEED, w.reference_samples, tmp)
            if r.returncode != 0 or r.bad_lines:
                print(f"{name}: reference run failed", file=sys.stderr)
                return 1
            v_max = float(dict(w.options).get("v_max", "1.0"))
            for rec in r.records:
                n_sites = (2 * rec.half_side + 1) ** rec.dim
                potential = uniform_potential(
                    rec.master_seed, rec.l_index, rec.sample_index, n_sites, v_max
                )
                want = eigsh_lowest_two(rec.dim, rec.half_side, potential)
                worst = max(worst, float(np.max(np.abs(want - [rec.e0, rec.e1]))))
            out["workloads"][name] = {
                "argv": w.argv(REFERENCE_SEED, w.reference_samples, "REF.jsonl"),
                "records": [reference_row(rec) for rec in r.records],
                "lifshitz": measure.lifshitz_series(r),
            }
            print(f"{name}: {len(r.records)} records")
    out["eigsh_max_abs_dev"] = worst
    print(f"largest |e - eigsh| over all reference records: {worst:.3e}")
    if worst > ORACLE_TOL:
        print("eigsh cross-check failed; reference not written", file=sys.stderr)
        return 1
    REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Line-oriented run records.

One record per sample, one JSON object per line, floats serialized with
shortest-round-trip precision so reading a stream back reproduces every
numeric field exactly.  A record holds everything a summary reads, so a
summary is a function of the plan and the records: ``estimates`` records
carry their window counts, ``shells`` records their random-field statistics,
one entry per kept eps, and a stream written before those fields existed
reads back with them empty.  The diagnostics (``wall_time``, the GP
minimizer's final gradient and operator applications, the eigensolver's
applied columns and largest residual, and the seconds spent in the
eigensolve and in the GP minimization) are bookkeeping, not payload: record
content comparisons (and the determinism guarantees) exclude them, and a
stream written before a diagnostic existed reads back with it set to NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple


# bookkeeping fields, kept out of content comparisons; all but wall_time
# read back as NaN from streams written without them
DIAGNOSTICS = (
    "wall_time", "gp_grad_norm", "eig_applies", "eig_residual_max", "t_eig", "t_gp",
    "gp_applies",
)

# tuple payload fields by element type; all but the centers read back empty
# from streams written without them
_TUPLES = dict(
    center0=int, center1=int, window_counts=int,
    field_four_norm_ratio=float, field_sup_ratio=float, field_annulus_ok=bool,
)


@dataclass(frozen=True)
class RunRecord:
    """Everything one sample produced, keyed by its provenance triple.

    Experiments that skip the interacting minimization leave the GP and
    certificate fields as NaN/False; ``error`` is set (and the numeric fields
    are NaN) when a sample failed, so failures stay visible in the stream
    without polluting summaries.
    """

    master_seed: int
    l_index: int
    sample_index: int
    dim: int
    half_side: int
    coupling: float
    e0: float = math.nan
    e1: float = math.nan
    e_gp: float = math.nan
    overlap: float = math.nan
    gap: float = math.nan
    ipr: float = math.nan
    kinetic: float = math.nan
    cert_valid: bool = False
    cert_margin: float = math.nan
    pi0_norm: float = math.nan
    orth_norm: float = math.nan
    center0: tuple[int, ...] = ()
    center1: tuple[int, ...] = ()
    center_dist: int = -1
    gp_iterations: int = 0
    gp_converged: bool = False
    # estimates: levels in each window of wegner_widths + minami_widths
    window_counts: tuple[int, ...] = ()
    # shells, one entry per kept eps: ||u||_4 / g(eps), the largest shell sup
    # ratio (NaN when no shell is populated), and the annulus bound's verdict
    field_four_norm_ratio: tuple[float, ...] = ()
    field_sup_ratio: tuple[float, ...] = ()
    field_annulus_ok: tuple[bool, ...] = ()
    error: str | None = None
    wall_time: float = 0.0
    gp_grad_norm: float = math.nan
    eig_applies: float = math.nan       # applied columns, an int when measured
    eig_residual_max: float = math.nan
    t_eig: float = math.nan             # seconds in the eigensolve
    t_gp: float = math.nan              # seconds in minimize_gp
    gp_applies: float = math.nan        # operator applications in minimize_gp

    def content_dict(self) -> dict:
        """All payload fields; excludes the diagnostics."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in DIAGNOSTICS
        }

    def content_key(self) -> tuple:
        """Hashable payload for multiset comparisons across runs."""
        data = self.content_dict()
        return tuple(
            (name, _hashable(data[name])) for name in sorted(data)
        )

    def to_json(self) -> str:
        # the field values themselves: dataclasses.asdict would deep-copy each
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(f"record is not a JSON object: {line[:40]!r}")
        known = {f.name for f in fields(cls)}
        for name in DIAGNOSTICS[1:]:
            data.setdefault(name, math.nan)
        for name in list(_TUPLES)[2:]:
            data.setdefault(name, ())
        missing = known - data.keys()
        if missing:
            raise ValueError(f"record is missing fields {sorted(missing)}")
        extra = data.keys() - known
        if extra:
            raise ValueError(f"record has unknown fields {sorted(extra)}")
        for name, kind in _TUPLES.items():
            data[name] = tuple(kind(v) for v in data[name])
        return cls(**data)


def _hashable(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, tuple):
        return tuple(_hashable(v) for v in value)
    return value


class ReadResult(NamedTuple):
    records: list[RunRecord]
    bad_lines: list[tuple[int, str]]


def write_records(path, records, *, append: bool = False) -> None:
    """Write records one JSON object per line."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json())
            handle.write("\n")


def read_records(path) -> ReadResult:
    """Read a record stream; malformed lines are reported, not fatal."""
    records: list[RunRecord] = []
    bad: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(RunRecord.from_json(stripped))
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                bad.append((lineno, str(exc)))
    return ReadResult(records=records, bad_lines=bad)

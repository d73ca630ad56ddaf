"""Line-oriented run records.

One record per sample, one JSON object per line, floats serialized with
shortest-round-trip precision so reading a stream back reproduces every
numeric field exactly.  A record names its run: ``master_seed``,
``experiment``, ``dim``, ``half_side``, ``v_max`` and ``coupling`` are the
same for every record of one plan's L index, and ``ensemble.summarize``
refuses a record whose values differ from its plan's.  A record holds
everything a summary reads, so a summary is a function of the plan and the
records: ``estimates`` records carry their window counts, ``shells`` records
their random-field statistics, one entry per kept eps.  The diagnostics
(``wall_time``, the GP minimizer's final gradient and operator applications,
the eigensolver's applied columns, those of them filtered in single
precision and its largest residual, and the seconds spent in the eigensolve
and in the GP minimization) are bookkeeping, not payload: record content
comparisons (and the determinism guarantees) exclude them.  A records file
is read by the version that wrote it: a line with a missing or unknown field
is a bad line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple


# bookkeeping fields, kept out of content comparisons
DIAGNOSTICS = (
    "wall_time", "gp_grad_norm", "eig_applies", "eig_residual_max", "t_eig", "t_gp",
    "gp_applies", "eig_single_applies",
)

# the JSON values a field of each annotation takes: an int field takes no
# bool, a float field an int too (kept as it is, so a record equals its own
# round trip), a bool field only a bool; tuple fields take lists of those
_KINDS = {"int": int, "float": float, "bool": bool, "str": str, "str | None": (str, type(None))}

# json's constants; NaN is the math.nan object the defaults hold, so a record
# equals its own round trip (tuple comparison checks identity before ==)
_CONSTANTS = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


@dataclass(frozen=True)
class RunRecord:
    """Everything one sample produced, keyed by its provenance triple.

    Its run fields, ``master_seed`` and ``experiment`` through ``coupling``,
    name the plan's run at its L index; ``coupling`` is 0.0 for experiments
    without interaction.  Experiments that skip the interacting
    minimization leave the GP and certificate fields as NaN/False; ``error``
    is set (and the numeric fields are NaN) when a sample failed, so
    failures stay visible in the stream without polluting summaries.
    """

    master_seed: int
    l_index: int
    sample_index: int
    experiment: str
    dim: int
    half_side: int
    v_max: float
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
    orth_norm: float = math.nan
    center0: tuple[int, ...] = ()
    center1: tuple[int, ...] = ()
    center_dist: int = -1
    gp_iterations: int = 0
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
    eig_single_applies: float = math.nan  # of eig_applies, filtered in float32

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
        data = json.loads(line, parse_constant=_CONSTANTS.__getitem__)
        if not isinstance(data, dict):
            raise ValueError(f"record is not a JSON object: {line[:40]!r}")
        annotations = {f.name: f.type for f in fields(cls)}
        missing = annotations.keys() - data.keys()
        if missing:
            raise ValueError(f"record is missing fields {sorted(missing)}")
        extra = data.keys() - annotations.keys()
        if extra:
            raise ValueError(f"record has unknown fields {sorted(extra)}")
        for name, annotation in annotations.items():
            value = data[name]
            if annotation.startswith("tuple["):
                kind = _KINDS[annotation[len("tuple["):-len(", ...]")]]
                if not isinstance(value, list) or not all(_is_entry(kind, v) for v in value):
                    raise ValueError(f"{name} must be a list of {kind.__name__}s, got {value!r}")
                data[name] = tuple(kind(v) for v in value)
            elif not _is_entry(_KINDS[annotation], value):
                raise ValueError(f"{name} must be a JSON {annotation}, got {value!r}")
        slot = (data["master_seed"], data["l_index"], data["sample_index"])
        if min(slot) < 0:
            raise ValueError(f"record slot {slot} has a negative entry")
        return cls(**data)


def _is_entry(kind: type, value) -> bool:
    # bools only in a bool field; ints, or for a float field ints and floats, elsewhere
    accepted = (int, float) if kind is float else kind
    return isinstance(value, bool) == (kind is bool) and isinstance(value, accepted)


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
    """Read a record stream; malformed lines are reported, not fatal.

    Each line is decoded on its own, so a byte that is not UTF-8, JSON nested
    too deep to parse, or a record that does not validate costs that line
    alone.
    """
    records: list[RunRecord] = []
    bad: list[tuple[int, str]] = []
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                stripped = line.decode("utf-8").strip()
                if stripped:
                    records.append(RunRecord.from_json(stripped))
            except (ValueError, TypeError, RecursionError) as exc:
                bad.append((lineno, str(exc)))
    return ReadResult(records=records, bad_lines=bad)

"""Run reports: a small versioned JSON schema with exact rationals.

Every CLI run that produces a partition or a certificate emits one report.
Callers hand in rationals as Fractions, and this module alone serializes
them, as "num/den" strings so nothing is rounded;
reports with the same config and seed are byte-identical except for
``runtime_ms``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .core import InvalidStructure
from .engines import IterationTrace

SCHEMA_VERSION = 2

_FRACTION_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_fraction(s: str) -> Fraction:
    if not _FRACTION_RE.match(s):
        raise InvalidStructure(f"not a fraction string: {s!r}")
    return Fraction(s)


def _jsonable(v: Any) -> Any:
    if isinstance(v, Fraction):
        return fraction_str(v)
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Mapping):
        return {str(k): _jsonable(x) for k, x in v.items()}
    raise InvalidStructure(f"value not serializable in a report: {v!r}")


def trace_list(trace: IterationTrace) -> list[dict]:
    return [asdict(r) for r in trace.rows]


def input_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class DecompositionReport:
    command: str
    input_hash: str
    profile: dict
    seed: int
    trace: list
    audit: dict
    part_counts: list
    runtime_ms: int
    extra: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        d = _jsonable(asdict(self))
        if not self.extra:
            del d["extra"]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


_REQUIRED = {
    "schema": int,
    "command": str,
    "input_hash": str,
    "profile": dict,
    "seed": int,
    "trace": list,
    "audit": dict,
    "part_counts": list,
    "runtime_ms": int,
}


def validate_report(d: Mapping) -> None:
    """Structural check of a report dict; raises InvalidStructure."""
    for key, typ in _REQUIRED.items():
        if key not in d:
            raise InvalidStructure(f"report missing field {key!r}")
        if not isinstance(d[key], typ) or isinstance(d[key], bool):
            raise InvalidStructure(f"report field {key!r} must be {typ.__name__}")
    if d["schema"] != SCHEMA_VERSION:
        raise InvalidStructure(f"unsupported report schema {d['schema']}")
    if not re.match(r"^[0-9a-f]{64}$", d["input_hash"]):
        raise InvalidStructure("input_hash must be a sha256 hex digest")
    for i, row in enumerate(d["trace"]):
        if not isinstance(row, dict):
            raise InvalidStructure(f"trace row {i} must be an object")
        for k in ("step", "stage", "q", "action"):
            if k not in row:
                raise InvalidStructure(f"trace row {i} missing {k!r}")
        if not _FRACTION_RE.match(str(row["q"])):
            raise InvalidStructure(f"trace row {i} q is not a fraction string")


def load_report(text: str) -> dict:
    d = json.loads(text)
    validate_report(d)
    return d


def save_report(report: DecompositionReport) -> str:
    text = report.to_json()
    validate_report(json.loads(text))
    return text

"""Persistence for experiment results (CSV + JSON).

Runs are expensive at paper scale; these helpers store grid cells so
tables can be re-rendered without re-training.  Formats are plain text
(no pickle) so results are portable and human-inspectable.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "save_records_csv",
    "save_records_json",
    "load_records_json",
    "collect_registries",
]


def _record_dict(record: object) -> dict[str, Any]:
    if is_dataclass(record) and not isinstance(record, type):
        return asdict(record)
    if isinstance(record, dict):
        return dict(record)
    raise TypeError(f"expected dataclass or dict record, got {type(record)}")


def save_records_json(path: str | Path, records: Sequence[object]) -> Path:
    """Persist homogeneous dataclass/dict records as a JSON list."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [_record_dict(r) for r in records]
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_records_json(path: str | Path) -> list[dict[str, Any]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list) or not all(isinstance(r, dict) for r in data):
        raise ValueError(f"{path} does not contain a record list")
    return [dict(r) for r in data]


def save_records_csv(path: str | Path, records: Sequence[object]) -> Path:
    """Persist homogeneous dataclass/dict records as CSV.

    The column set is the union of the records' keys in first-seen
    order, so heterogeneous optional fields land as empty cells rather
    than raising.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [_record_dict(r) for r in records]
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


def collect_registries() -> dict[str, list[str]]:
    """The registered rule/protocol/attack names, for run manifests.

    Lives here (top experiment layer) rather than in
    :mod:`repro.obs.audit` so the forensics module never imports the
    numeric stack.
    """
    from repro.aggregation.base import available_aggregators
    from repro.attacks.base import available_attacks
    from repro.consensus import CONSENSUS_NAMES

    return {
        "aggregators": sorted(available_aggregators()),
        "attacks": sorted(available_attacks()),
        "consensus": sorted(CONSENSUS_NAMES),
    }

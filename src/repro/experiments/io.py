"""Persistence for experiment results (CSV + JSON).

Runs are expensive at paper scale; these helpers store round histories
and grid cells so figures/tables can be re-rendered without re-training.
Formats are plain text (no pickle) so results are portable and
human-inspectable.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.trainer import RoundRecord
from repro.core.vanilla import VanillaRoundRecord

__all__ = [
    "save_history_csv",
    "load_history_csv",
    "save_curves_npz",
    "load_curves_npz",
    "save_records_csv",
    "save_records_json",
    "load_records_json",
    "collect_registries",
]

_HISTORY_FIELDS = ("round_index", "test_accuracy", "test_loss", "mean_local_loss")


def save_history_csv(
    path: str | Path,
    history: Sequence[RoundRecord | VanillaRoundRecord],
) -> Path:
    """Write a round history to CSV (shared schema for both trainers)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HISTORY_FIELDS)
        for record in history:
            writer.writerow([getattr(record, f) for f in _HISTORY_FIELDS])
    return path


def load_history_csv(path: str | Path) -> list[dict[str, float]]:
    """Read a history CSV back as dict rows (floats, round_index int)."""
    path = Path(path)
    out: list[dict[str, float]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(_HISTORY_FIELDS):
            raise ValueError(
                f"{path} has columns {reader.fieldnames}, expected "
                f"{list(_HISTORY_FIELDS)}"
            )
        for row in reader:
            parsed: dict[str, float] = {
                "round_index": int(row["round_index"]),
            }
            for key in _HISTORY_FIELDS[1:]:
                parsed[key] = float(row[key])
            out.append(parsed)
    return out


def save_curves_npz(path: str | Path, **curves: Any) -> Path:
    """Persist named accuracy trajectories (arrays) as a compressed NPZ."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for name, value in curves.items():
        if is_dataclass(value):
            raise TypeError(
                f"curve {name!r} is a dataclass; pass its arrays explicitly"
            )
        arrays[name] = np.asarray(value)
    np.savez_compressed(path, **arrays)
    return path


def load_curves_npz(path: str | Path) -> dict[str, np.ndarray]:
    with np.load(Path(path)) as data:
        return {name: data[name].copy() for name in data.files}


# ----------------------------------------------------------------------
# generic record persistence (scenario artifacts, audit side tables)
# ----------------------------------------------------------------------
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

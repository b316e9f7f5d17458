"""Incremental summary cache: warm runs never re-parse unchanged files.

One JSON file (``.abdlint_cache/summaries.json``) maps each linted path
to its fingerprint plus the serialised :class:`ModuleSummary` (which
embeds the pass-1 findings).  Freshness is mtime_ns+size first — the
cheap stat-only fast path — falling back to a sha256 content check when
the stat changed, so ``touch``-ed but unedited files still hit.  The
entire cache is keyed on :data:`ENGINE_VERSION`: bumping it (any rule
or summary-format change) invalidates everything at once.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

#: Bump on any change to rules or to the ModuleSummary format.
ENGINE_VERSION = "2.4.0"

CACHE_DIR_NAME = ".abdlint_cache"
_CACHE_FILE = "summaries.json"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


class SummaryCache:
    """mtime+hash keyed store of per-file summary JSON blobs."""

    def __init__(self, cache_dir: str | os.PathLike[str]) -> None:
        self.cache_dir = Path(cache_dir)
        self.path = self.cache_dir / _CACHE_FILE
        self.stats = CacheStats()
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if data.get("engine_version") != ENGINE_VERSION:
            return  # rule set changed: the whole cache is stale
        entries = data.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    def lookup(self, path: str) -> tuple[dict | None, str | None]:
        """(cached summary JSON or None, source text or None).

        The stat fast path returns ``(summary, None)`` without reading
        the file at all — summaries embed their pass-1 findings, so a
        warm run needs no source.  On a stat mismatch the file is read
        once and checked by content hash before declaring a miss.
        """
        key = Path(path).as_posix()
        entry = self._entries.get(key)
        stat = os.stat(path)
        if (
            entry is not None
            and entry.get("mtime_ns") == stat.st_mtime_ns
            and entry.get("size") == stat.st_size
        ):
            self.stats.hits += 1
            return entry["summary"], None
        source = Path(path).read_text(encoding="utf-8")
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        if entry is not None and entry.get("sha256") == digest:
            # touched but unedited: refresh the stat fingerprint in place
            entry["mtime_ns"] = stat.st_mtime_ns
            entry["size"] = stat.st_size
            self._dirty = True
            self.stats.hits += 1
            return entry["summary"], source
        self.stats.misses += 1
        return None, source

    def store(self, path: str, source: str, summary_json: dict) -> None:
        key = Path(path).as_posix()
        stat = os.stat(path)
        self._entries[key] = {
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "summary": summary_json,
        }
        self._dirty = True

    def flush(self) -> None:
        if not self._dirty:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "engine_version": ENGINE_VERSION,
            "entries": self._entries,
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self.path)
        self._dirty = False

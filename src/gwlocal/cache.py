"""Content-addressed result cache.

One JSON document per key, with no separate index.  Keys are pure
functions of the canonical query encoding and the engine version, so results
computed by older engines are never served for a newer one.  Writes go to a
temporary file in the cache directory and are renamed into place, so a
concurrent reader never sees a partial record; a record that cannot be parsed
anyway, or that storing it again would not write back unchanged, is treated as
a miss and rewritten by the next store.  Values are
stored as decimal numerator/denominator strings; no floats touch the records.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

__all__ = [
    "CacheRecord",
    "ResultCache",
    "canonical_query_encoding",
    "cache_key",
    "resolve_cache_dir",
    "ENV_CACHE_DIR",
]

ENV_CACHE_DIR = "GW_CACHE_DIR"


def canonical_query_encoding(query: dict) -> str:
    """Deterministic text form of a query: JSON with sorted keys and no
    incidental whitespace."""
    return json.dumps(query, sort_keys=True, separators=(",", ":"))


def cache_key(query: dict, engine_version: str) -> str:
    digest = sha256()
    digest.update(canonical_query_encoding(query).encode("ascii"))
    digest.update(b"\n")
    digest.update(engine_version.encode("ascii"))
    return digest.hexdigest()


def resolve_cache_dir(flag_value=None) -> Path:
    """Cache directory precedence: explicit flag, then the GW_CACHE_DIR
    environment variable, then a per-user default."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "gwlocal"


@dataclass(frozen=True)
class CacheRecord:
    key: str
    query: dict
    value: Fraction
    seeds: tuple
    graph_count: int
    engine_version: str
    created_at: str


class ResultCache:
    """Reads and writes :class:`CacheRecord` documents under one directory."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @staticmethod
    def make_record(query: dict, value, seeds, graph_count: int, engine_version: str) -> CacheRecord:
        value = Fraction(value)
        return CacheRecord(
            key=cache_key(query, engine_version),
            query=query,
            value=value,
            seeds=tuple(int(s) for s in seeds),
            graph_count=int(graph_count),
            engine_version=engine_version,
            created_at=datetime.now(timezone.utc).isoformat(),
        )

    def get(self, key: str):
        """The record stored under ``key``, or None on a miss.

        A record that cannot be read or parsed counts as a miss, and so does
        one that :meth:`put` would not write back as it is, such as one whose
        fields have the wrong types: a note naming the file goes to stderr,
        and the caller's next :meth:`put` replaces it.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            text = path.read_text(encoding="ascii")
            document = json.loads(text)
            if document["key"] != key:
                raise ValueError(f"record holds key {document['key']!r}")
            record = CacheRecord(
                key=key,
                query=document["query"],
                value=Fraction(int(document["value"]["num"]), int(document["value"]["den"])),
                seeds=tuple(map(int, document["seeds"])),
                graph_count=int(document["graph_count"]),
                engine_version=document["engine_version"],
                created_at=document["created_at"],
            )
            if self._payload(record) != text:
                raise ValueError("record is not as storing it would write it")
            return record
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            print(f"gwlocal: ignoring unreadable cache record {path}: {exc!r}", file=sys.stderr)
            return None

    @staticmethod
    def _payload(record: CacheRecord) -> str:
        document = {
            "key": record.key,
            "query": record.query,
            "value": {
                "num": str(record.value.numerator),
                "den": str(record.value.denominator),
            },
            "seeds": list(record.seeds),
            "graph_count": record.graph_count,
            "engine_version": record.engine_version,
            "created_at": record.created_at,
        }
        return json.dumps(document, sort_keys=True, indent=1)

    def put(self, record: CacheRecord) -> None:
        payload = self._payload(record)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(payload)
            os.replace(tmp_name, self.path_for(record.key))
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

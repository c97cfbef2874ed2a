"""Content-addressed result cache.

One JSON document per key, with no separate index.  Keys are pure
functions of the canonical query encoding and the engine version, so results
computed by older engines are never served for a newer one.  Writes go to a
temporary file in the cache directory and are renamed into place, so a
concurrent reader never sees a partial record; a record that cannot be parsed
anyway, or that storing it again would not write back unchanged, is treated as
a miss and rewritten by the next store, and a store that fails costs only the
record, never the caller's value.  Values are stored as decimal
numerator/denominator strings; no floats touch the records.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .localization import ENGINE_VERSION

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
    from hashlib import sha256

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


CacheRecord = namedtuple(
    "CacheRecord", "key query value seeds graph_count engine_version created_at"
)


class ResultCache:
    """Reads and writes :class:`CacheRecord` documents under one directory,
    keyed by query and :data:`~gwlocal.localization.ENGINE_VERSION`.  The
    directory is ``directory``, or :func:`resolve_cache_dir`'s choice when
    it is None or empty; the first :meth:`put` creates it, and until then,
    or if it cannot be created, every :meth:`get` is a miss."""

    def __init__(self, directory=None):
        self.directory = resolve_cache_dir(directory)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, query: dict):
        """The record stored for ``query``, or None on a miss.

        A record that cannot be read or parsed counts as a miss, and so does
        one that :meth:`put` would not write back as it is, such as one whose
        fields have the wrong types: a note naming the file goes to stderr,
        and the caller's next :meth:`put` replaces it.
        """
        key = cache_key(query, ENGINE_VERSION)
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            text = path.read_text(encoding="ascii")
            record = CacheRecord(**json.loads(text))
            if record.key != key:
                raise ValueError(f"record holds key {record.key!r}")
            record = record._replace(
                value=Fraction(int(record.value["num"]), int(record.value["den"])),
                seeds=tuple(map(int, record.seeds)),
                graph_count=int(record.graph_count),
            )
            if self._payload(record) != text:
                raise ValueError("record is not as storing it would write it")
            return record
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            print(f"gwlocal: ignoring unreadable cache record {path}: {exc!r}", file=sys.stderr)
            return None

    @staticmethod
    def _payload(record: CacheRecord) -> str:
        document = record._asdict()
        value = record.value
        document["value"] = {"num": str(value.numerator), "den": str(value.denominator)}
        return json.dumps(document, sort_keys=True, indent=1)

    def put(self, query: dict, result) -> None:
        """Store ``result``, an :class:`~gwlocal.localization.EngineResult`,
        for ``query``, creating the cache directory if it is missing.  A
        store that fails with an ``OSError``, the directory's creation
        included, writes a note naming the file to stderr and leaves no
        temporary file behind; the caller keeps its value."""
        from datetime import datetime, timezone

        record = CacheRecord(
            key=cache_key(query, ENGINE_VERSION),
            query=query,
            value=result.value,
            seeds=result.weight_seeds,
            graph_count=result.graph_count,
            engine_version=ENGINE_VERSION,
            created_at=datetime.now(timezone.utc).isoformat(),
        )
        path = self.path_for(record.key)
        tmp_name = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(self._payload(record))
            os.replace(tmp_name, path)
        except OSError as exc:
            print(f"gwlocal: could not store cache record {path}: {exc!r}", file=sys.stderr)
        finally:
            if tmp_name is not None and os.path.exists(tmp_name):
                os.unlink(tmp_name)

"""Result cache: duplicate submissions return instantly.

The cache key is a SHA-256 over three components:

* the **sequence digest pair** — ``telemetry.manifest.sequence_digest``
  of each input's encoded bytes (so two FASTA files with the same
  content, or a re-built catalog pair, hash identically);
* the **scoring scheme** — (match, mismatch, gap_first, gap_ext);
* the **config fingerprint** — the canonical JSON of the
  :class:`~repro.core.config.PipelineConfig` minus the knob that cannot
  change the result: ``checkpoint_every_rows`` (crash-recovery cadence).

Entries are one JSON file per key under ``cache/`` in the service root,
written atomically inside a checksummed integrity envelope, so the cache
survives service restarts and is shared by every worker.  Entries are
derived data and are never fsync'd: a power cut may lose or tear one.  A
corrupt or truncated entry is never served: it is quarantined, counted,
and treated as a miss — the job recomputes and overwrites it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any

from repro.align.scoring import ScoringScheme
from repro.core.config import PipelineConfig
from repro.errors import IntegrityError
from repro.integrity import codec
from repro.telemetry.manifest import json_safe

#: Config fields excluded from the fingerprint: execution-only knobs that
#: cannot change the alignment the pipeline produces.
NON_SEMANTIC_FIELDS = ("checkpoint_every_rows",)


def config_fingerprint(config: PipelineConfig) -> str:
    """Stable digest of the result-shaping part of a pipeline config."""
    payload = json_safe(dataclasses.asdict(config))
    for name in NON_SEMANTIC_FIELDS:
        payload.pop(name, None)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def cache_key(digest0: str, digest1: str, scheme: ScoringScheme,
              fingerprint: str) -> str:
    """The (sequence digest pair, scoring scheme, config) cache key."""
    canon = json.dumps(
        {"s0": digest0, "s1": digest1,
         "scheme": [scheme.match, scheme.mismatch,
                    scheme.gap_first, scheme.gap_ext],
         "config": fingerprint},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ResultCache:
    """Disk-persistent map from cache key to job result payload.

    ``telemetry`` (optional) receives corruption incidents; the cache
    also keeps its own :attr:`corrupt` counter so callers without a
    telemetry bundle can still see the damage in :meth:`stats`.
    """

    def __init__(self, directory: str | os.PathLike, *, telemetry=None):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.telemetry = telemetry

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload, or ``None``; counts hit/miss.

        A corrupt entry (bad envelope, truncated file, flipped bit) is a
        *miss*: the file is quarantined so the caller recomputes and the
        rewrite repairs the cache in place.
        """
        path = self._path(key)
        try:
            payload = codec.open_json(
                codec.read_text(path),
                expect_kind=codec.KIND_CACHE_ENTRY, path=path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except IntegrityError as exc:
            self.corrupt += 1
            self.misses += 1
            codec.quarantine_file(path, root=self.directory)
            if self.telemetry is not None:
                self.telemetry.metrics.counter("cache.corrupt").add()
                self.telemetry.corruption(
                    codec.KIND_CACHE_ENTRY, path, action="evicted",
                    detail=str(exc))
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically store a payload, without fsync (last writer wins)."""
        text = codec.seal_json(json_safe(payload), codec.KIND_CACHE_ENTRY)
        codec.atomic_write_bytes(self._path(key), text.encode("utf-8"),
                                 fsync=False)

    def evict_all(self) -> int:
        """Delete every cache entry (disk-pressure relief); returns the
        number of entries removed.  Entries are derived data — any evicted
        result recomputes on the next duplicate submission."""
        evicted = 0
        for name in os.listdir(self.directory):
            if not name.endswith(".json"):
                continue
            try:
                os.remove(os.path.join(self.directory, name))
                evicted += 1
            except OSError:
                continue
        return evicted

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".json"))

    def stats(self) -> dict[str, int | float]:
        total = self.hits + self.misses
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses, "corrupt": self.corrupt,
                "hit_rate": self.hits / total if total else 0.0}

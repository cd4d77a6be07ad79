"""The run manifest: one JSON file that makes a run reconstructable.

``manifest.json`` is written into the pipeline's ``workdir`` at the end
of every run and records what ran (config, sequence names/lengths and
content digests), how it went (per-stage stats and spans, the metrics
snapshot) and what came out (score, alignment coordinates).  Everything
in it is plain JSON, so ``json.load`` round-trips it exactly.

The per-stage ``wall_seconds`` in ``stages`` are taken verbatim from the
stage results, so they always match
``PipelineResult.stage_wall_seconds()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Any

#: Format version stamped into every manifest.
MANIFEST_VERSION = 1


def sequence_digest(data: bytes | memoryview) -> str:
    """Stable content digest for a sequence's encoded bytes."""
    return hashlib.sha256(bytes(data)).hexdigest()


def json_safe(obj: Any) -> Any:
    """Recursively coerce a value into plain JSON types.

    Dataclasses become dicts, tuples become lists, numpy scalars unwrap
    via ``item()``, and anything else irreducible falls back to ``str``.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, float)):
        return obj
    if isinstance(obj, dict):
        return {str(key): json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [json_safe(value) for value in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: json_safe(getattr(obj, field.name))
                for field in dataclasses.fields(obj)}
    item = getattr(obj, "item", None)  # numpy scalars
    if item is not None:
        try:
            return json_safe(item())
        except (TypeError, ValueError):
            pass
    return str(obj)


def build_manifest(*, sequences: dict[str, Any], config: dict[str, Any],
                   result: dict[str, Any], stages: dict[str, Any],
                   stage_wall_seconds: dict[str, float],
                   metrics: dict[str, Any],
                   spans: list[dict[str, Any]],
                   extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Assemble the manifest dict (pure data in, pure JSON out).

    ``extra`` is an optional caller payload (the job service records job
    id and attempt number here); omitted entirely when ``None``.
    """
    manifest = {
        "version": MANIFEST_VERSION,
        "tool": "repro-cudalign",
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "sequences": json_safe(sequences),
        "config": json_safe(config),
        "result": json_safe(result),
        "stages": json_safe(stages),
        "stage_wall_seconds": json_safe(stage_wall_seconds),
        "metrics": json_safe(metrics),
        "spans": json_safe(spans),
    }
    if extra is not None:
        manifest["extra"] = json_safe(extra)
    return manifest


def write_manifest(path: str | os.PathLike, manifest: dict[str, Any]) -> str:
    """Atomically write the manifest (write + rename); returns the path."""
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        # Compact: json.dump with indent always takes the pure-Python
        # encoder, which costs every job child milliseconds per manifest.
        handle.write(json.dumps(manifest, sort_keys=True))
        handle.write("\n")
    os.replace(tmp, path)
    return path


def read_manifest(path: str | os.PathLike) -> dict[str, Any]:
    """Load a manifest back (convenience wrapper over ``json.load``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)

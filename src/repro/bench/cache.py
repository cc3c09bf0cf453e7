"""Content-addressed result store for experiment cells.

A cell's payload is deterministic given ``(experiment id, cell params,
code version)`` -- the params carry the seed and every config knob, and
the code version is a digest of the ``repro`` package sources.  The
cache therefore keys entries on a SHA-256 of exactly that triple:
re-runs hit, config or seed changes miss, and editing any source file
under ``src/repro/`` invalidates everything (conservative but safe --
the simulator's constants live across many modules).

Entries are one JSON file each under ``<root>/<key[:2]>/<key>.json``,
written atomically (temp file + ``os.replace``) so concurrent worker
processes can share one cache directory.  The default root is
``.repro-cache`` in the current directory, overridable with the
``REPRO_CACHE_DIR`` environment variable or ``--cache-dir`` on the CLI.

See also :mod:`repro.bench.runner` (the consumer) and
:mod:`repro.bench.experiments.spec` (what a cell is).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
from typing import Any

from repro.bench.experiments.spec import Cell

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"


def canonicalize(payload: Any) -> Any:
    """Round-trip ``payload`` through JSON.

    Both the serial and the parallel paths canonicalize every payload,
    so a result assembled from freshly-computed cells is byte-identical
    to one assembled from cached (JSON-decoded) cells: tuples become
    lists either way, dict key order is preserved, floats survive
    exactly (JSON uses repr round-tripping).
    """
    return json.loads(json.dumps(payload))


def payload_digest(payload: Any) -> str:
    """Short stable digest of a canonicalized cell payload."""
    encoded = json.dumps(canonicalize(payload), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package.

    Hashing the whole tree takes a few milliseconds, so the result is
    ``lru_cache``d **per process** and computed once in the parent: the
    runner ships it to worker processes inside each
    :class:`ResultCache` / work spec instead of letting every pool
    worker re-walk ``src/repro`` on startup.  The flip side of the
    cache: editing source files *within* a running process (or while a
    long ``bench all`` is in flight) is not noticed -- the digest is
    whatever the tree looked like when the parent first asked.
    """
    import repro

    root = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def default_root() -> pathlib.Path:
    """Cache directory honoring the ``REPRO_CACHE_DIR`` override."""
    return pathlib.Path(os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR))


class ResultCache:
    """Filesystem store mapping cells to their JSON payloads."""

    def __init__(self, root: str | os.PathLike | None = None,
                 version: str | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_root()
        self.version = version if version is not None else code_version()

    def key(self, cell: Cell) -> str:
        """Content address of one cell: experiment + params + code."""
        blob = json.dumps({
            "experiment": cell.experiment,
            "params": cell.params,
            "version": self.version,
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def path_for(self, cell: Cell) -> pathlib.Path:
        """Where the cell's entry lives (two-level fan-out, git-style)."""
        key = self.key(cell)
        return self.root / key[:2] / f"{key}.json"

    def get(self, cell: Cell) -> Any | None:
        """The cached payload, or ``None`` on a miss / unreadable entry."""
        try:
            blob = json.loads(self.path_for(cell).read_text())
        except (OSError, ValueError):
            return None
        return blob.get("payload")

    def put(self, cell: Cell, payload: Any) -> pathlib.Path:
        """Store ``payload`` for ``cell``; safe under concurrent writers."""
        path = self.path_for(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = {
            "experiment": cell.experiment,
            "label": cell.label,
            "params": cell.params,
            "version": self.version,
            "payload": canonicalize(payload),
        }
        # No sort_keys here: row dicts double as table column order, so
        # the payload must round-trip with insertion order intact.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(blob) + "\n")
        os.replace(tmp, path)
        return path

    def entries(self) -> int:
        """Number of cached cell payloads."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Only touches the cache's own layout (two-hex-char shard
        directories and their entry/temp files), so pointing
        ``--cache-dir`` at a directory holding anything else never
        destroys unrelated data.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for shard in self.root.iterdir():
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for entry in shard.iterdir():
                if entry.suffix == ".json":
                    removed += 1
                    entry.unlink()
                elif ".tmp." in entry.name:
                    entry.unlink()
            try:
                shard.rmdir()
            except OSError:
                pass  # something else lives there; leave it
        return removed

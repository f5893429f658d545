"""The change-graph store format, which ``mine`` writes and the other commands read.

A store directory holds ``records.jsonl``, one change graph per line, and
``manifest.json``. The manifest records ``SCHEMA_VERSION``, ``TOOL_VERSION``
and the ``CommitFilter`` settings the store was mined with. A pattern set's
manifest carries the same two versions.

This module imports no git plumbing, parser or graph layer, so the commands
that only read a store or a pattern set start without them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


@dataclass
class CommitFilter:
    skip_merges: bool = True
    max_files_per_commit: int = 50
    path_glob: str = "**/*.py"

    def __post_init__(self):
        if self.max_files_per_commit < 1:
            raise ValueError("max_files_per_commit must be >= 1")


class ChangeGraphStore:
    """Line-delimited record store with a manifest, written once on finalize."""

    RECORDS = "records.jsonl"
    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._records_path = self.root / self.RECORDS
        self._manifest_path = self.root / self.MANIFEST
        self._pending: list[tuple[tuple[str, ...], str]] = []  # (sort key, line)

    def append(self, record: dict) -> None:
        """Hold a record, serialized, for ``finalize``; nothing is written yet."""
        prov = record["provenance"]
        key = (prov["repo_id"], prov["commit_hash"], prov["file_path"], prov["function"])
        self._pending.append((key, json.dumps(record, sort_keys=True)))

    def iter_records(self):
        if not self._records_path.exists():
            return
        with open(self._records_path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line)

    def finalize(self, config: dict, repos: dict) -> None:
        """Replace the records and manifest with the held records, sorted.

        Both files are written to temporary files beside them first, and
        replace them only once both are whole: a failure leaves the previous
        store as it was.
        """
        self._pending.sort(key=lambda item: item[0])
        self.root.mkdir(parents=True, exist_ok=True)
        staged = {path: path.with_name(path.name + ".tmp")
                  for path in (self._records_path, self._manifest_path)}
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "config": config,
            "record_count": len(self._pending),
            "repos": repos,
        }
        try:
            with open(staged[self._records_path], "w", encoding="utf-8") as handle:
                for _, line in self._pending:
                    handle.write(line + "\n")
            with open(staged[self._manifest_path], "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, sort_keys=True, indent=2)
                handle.write("\n")
            for path, temporary in staged.items():
                os.replace(temporary, path)
        finally:
            for temporary in staged.values():
                temporary.unlink(missing_ok=True)


def holds_store(path: str | Path) -> bool:
    """Whether ``path`` holds a store's records; a pattern set has none."""
    return (Path(path) / ChangeGraphStore.RECORDS).exists()


def checked_manifest(path: str | Path) -> dict:
    """The manifest of the store at ``path``; ``ValueError`` unless ``path``
    holds records and a manifest of this ``SCHEMA_VERSION``."""
    manifest_path = Path(path) / ChangeGraphStore.MANIFEST
    if not (holds_store(path) and manifest_path.exists()):
        raise ValueError(f"no change-graph store at {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"store schema version {manifest.get('schema_version')!r}"
                         f" does not match {SCHEMA_VERSION}")
    return manifest

"""Git history traversal: pair file revisions, match functions, stream change graphs.

Commits are processed independently (optionally in parallel); the store is
sorted on finalize by (repo_id, commit_hash, file_path, function) so output
does not depend on worker count.
"""

from __future__ import annotations

import ast
import json
import logging
import re
import subprocess
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .changegraph import (AFTER, BEFORE, ChangeGraph, Provenance,
                          build_change_graph, hash_email)
from .mapping import map_asts, project_mapping
from .pdg import UnsupportedConstruct, build_fgpdg
from .source import (FunctionUnit, ImportTable, build_import_table,
                     extract_functions, parse_module, same_tree)
# Mining no longer calls parse_source, but the name stays importable from
# here: perfbench/child.py wraps each layer where history looks it up, and
# its table still lists history.parse_source.
from .source import parse_source  # noqa: F401

log = logging.getLogger(__name__)

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1
# Per-repository counters in the store manifest; each is a sum over commits,
# so it does not depend on the worker count.
REPO_COUNTERS = ("function_pairs", "pairs_unchanged", "unsupported",
                 "parse_failures", "graphs")


class RepoUnavailable(Exception):
    pass


@dataclass
class RepoSpec:
    url_or_path: str
    repo_id: str
    domain_tag: str = ""


@dataclass
class CommitFilter:
    skip_merges: bool = True
    max_files_per_commit: int = 50
    path_glob: str = "**/*.py"

    def __post_init__(self):
        if self.max_files_per_commit < 1:
            raise ValueError("max_files_per_commit must be >= 1")


@dataclass
class CommitInfo:
    repo_path: str
    hash: str
    parents: list[str]
    author_email: str
    message: str


def read_repos_file(path: str | Path) -> list[RepoSpec]:
    """Parse a repos list: `repo_id url_or_path [domain_tag]`, '#' comments."""
    specs: list[RepoSpec] = []
    seen: set[str] = set()
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed repos line: {raw!r}")
        repo_id, url = parts[0], parts[1]
        if repo_id in seen:
            raise ValueError(f"duplicate repo_id: {repo_id}")
        seen.add(repo_id)
        specs.append(RepoSpec(url, repo_id, parts[2] if len(parts) > 2 else ""))
    return specs


# ---------------------------------------------------------------------------
# git plumbing
# ---------------------------------------------------------------------------


def _git(repo_path: str, *args: str) -> bytes:
    result = subprocess.run(["git", "-C", repo_path, *args],
                            capture_output=True, check=True)
    return result.stdout


def open_repository(spec: RepoSpec, workdir: Path) -> str:
    """Return a local checkout path, cloning remote URLs into workdir."""
    candidate = Path(spec.url_or_path)
    if candidate.exists():
        if not (candidate / ".git").exists() and not (candidate / "HEAD").exists():
            raise RepoUnavailable(f"{spec.url_or_path} is not a git repository")
        return str(candidate)
    if re.match(r"^\w+://|^git@", spec.url_or_path):
        target = workdir / spec.repo_id
        if (target / ".git").exists():
            return str(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            subprocess.run(["git", "clone", "--quiet", spec.url_or_path,
                            str(target)], capture_output=True, check=True)
        except subprocess.CalledProcessError as exc:
            raise RepoUnavailable(
                f"cannot clone {spec.url_or_path}: {exc.stderr.decode(errors='replace').strip()}"
            ) from exc
        return str(target)
    raise RepoUnavailable(f"{spec.url_or_path} does not exist")


def list_commits(repo_path: str) -> list[CommitInfo]:
    try:
        raw = _git(repo_path, "log", "--reverse", "--date-order",
                   "--format=%H%x1f%P%x1f%ae%x1f%B%x1e")
    except subprocess.CalledProcessError as exc:
        raise RepoUnavailable(f"git log failed in {repo_path}") from exc
    commits = []
    for record in raw.decode("utf-8", errors="replace").split("\x1e"):
        record = record.strip("\n")
        if not record.strip():
            continue
        sha, parents, email, message = record.split("\x1f", 3)
        commits.append(CommitInfo(repo_path, sha.strip(),
                                  parents.split() if parents.strip() else [],
                                  email, message.strip()))
    return commits


def _glob_to_regex(pattern: str) -> re.Pattern:
    out = []
    i = 0
    while i < len(pattern):
        if pattern.startswith("**/", i):
            out.append(r"(?:.*/)?")
            i += 3
        elif pattern[i] == "*":
            out.append(r"[^/]*")
            i += 1
        elif pattern[i] == "?":
            out.append(r"[^/]")
            i += 1
        else:
            out.append(re.escape(pattern[i]))
            i += 1
    return re.compile("".join(out) + r"\Z")


def pair_modified_files(commit: CommitInfo,
                        filt: CommitFilter) -> list[tuple[str, str, str]]:
    """(before_text, after_text, path) for each modified file matching the glob.

    Renames are disabled in the diff so they surface as delete+add and drop
    out; commits touching more files than the cap are skipped entirely.
    """
    # -z: each entry is ":modes blobs status" and then its path, NUL-separated
    # and unquoted. Blobs are read by id: a path that is not UTF-8 does not
    # survive decoding.
    raw = _git(commit.repo_path, "diff-tree", "-r", "-z", "--no-renames",
               commit.parents[0], commit.hash)
    fields = raw.decode("utf-8", errors="replace").split("\0")[:-1]
    entries = [(meta.split(), path) for meta, path in zip(fields[0::2], fields[1::2])]
    if len(entries) > filt.max_files_per_commit:
        log.info("skipping %s: %d files exceeds cap %d",
                 commit.hash[:8], len(entries), filt.max_files_per_commit)
        return []
    matcher = _glob_to_regex(filt.path_glob)
    pairs = []
    for (_, _, before_blob, after_blob, status), path in entries:
        if status != "M" or not matcher.match(path):
            continue
        before = _git(commit.repo_path, "cat-file", "blob", before_blob)
        after = _git(commit.repo_path, "cat-file", "blob", after_blob)
        pairs.append((before.decode("utf-8", errors="replace"),
                      after.decode("utf-8", errors="replace"), path))
    return pairs


def match_functions(before: list[FunctionUnit],
                    after: list[FunctionUnit]) -> list[tuple[FunctionUnit, FunctionUnit]]:
    """Pair units by qualified name; renamed functions are not tracked."""
    after_by_name = {unit.qualified_name: unit for unit in after}
    return [(unit, after_by_name[unit.qualified_name])
            for unit in before if unit.qualified_name in after_by_name]


def module_path_for(file_path: str) -> str:
    parts = file_path.split("/")
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "module"


# ---------------------------------------------------------------------------
# Change graph extraction per commit
# ---------------------------------------------------------------------------


def _function_source(unit: FunctionUnit) -> dict:
    return {"text": "\n".join(unit.source_lines()),
            "start_line": unit.line_range[0]}


def graphs_for_commit(spec: RepoSpec, commit: CommitInfo, filt: CommitFilter
                      ) -> tuple[list[dict], list[str], set[str], Counter]:
    """Records, warnings, module roots and REPO_COUNTERS of one commit."""
    records: list[dict] = []
    warnings: list[str] = []
    roots: set[str] = set()
    counts: Counter = Counter()
    author_hash = hash_email(commit.author_email)
    for before_text, after_text, path in pair_modified_files(commit, filt):
        module_path = module_path_for(path)
        roots.add(module_path.split(".")[0])
        try:
            module_b = parse_module(before_text)
            module_a = parse_module(after_text)
        except SyntaxError as exc:
            warnings.append(f"{commit.hash[:8]} {path}: parse failure ({exc.msg})")
            counts["parse_failures"] += 1
            continue
        imports_b = build_import_table(module_b)
        imports_a = build_import_table(module_a)
        units_b = extract_functions(module_b, module_path)
        units_a = extract_functions(module_a, module_path)
        for unit_b, unit_a in match_functions(units_b, units_a):
            counts["function_pairs"] += 1
            prov = Provenance(spec.repo_id, commit.hash, commit.parents[0], path,
                              unit_b.qualified_name, author_hash, commit.message)
            try:
                graph = change_graph_for_pair(unit_b, unit_a, imports_b,
                                              imports_a, prov, counts)
            except (UnsupportedConstruct, RecursionError) as exc:
                # The tree and graph layers recurse on the syntax tree, so a
                # deeply nested expression is beyond them like a construct.
                reason = ("unsupported: nesting too deep"
                          if isinstance(exc, RecursionError) else exc)
                warnings.append(f"{commit.hash[:8]} {path}: "
                                f"{unit_b.qualified_name}: {reason}")
                counts["unsupported"] += 1
                continue
            if graph is None:
                continue
            graph.code = {BEFORE: _function_source(unit_b),
                          AFTER: _function_source(unit_a)}
            records.append(record_from_graph(graph))
    counts["graphs"] = len(records)
    return records, warnings, roots, counts


def unchanged_pair(unit_b: FunctionUnit, unit_a: FunctionUnit,
                   imports_b: ImportTable, imports_a: ImportTable) -> bool:
    """True when both revisions must build the same dependence graph.

    The normalized bodies are equal and no name in them is bound differently
    by the two import tables (the graph builder reads imports only to resolve
    names), so a change elsewhere in the file does not count. The text is
    tried first, so most unchanged pairs are never converted.
    """
    rebound = _rebound_names(imports_b, imports_a)
    return (_same_def_text(unit_b, unit_a, rebound)
            or _same_body(unit_b, unit_a, rebound))


def _rebound_names(imports_b: ImportTable, imports_a: ImportTable) -> set[str]:
    before, after = imports_b.aliases, imports_a.aliases
    return {name for name in before.keys() | after.keys()
            if before.get(name) != after.get(name)}


def _same_def_text(unit_b: FunctionUnit, unit_a: FunctionUnit,
                   rebound: set[str]) -> bool:
    """Sufficient for ``_same_body``, read from the text and the raw def.

    Equal def lines parse to equal raw subtrees, so to equal bodies, and the
    names of the raw def include every name of the pruned body.
    """
    if unit_b.source_lines() != unit_a.source_lines():
        return False
    return not (rebound and any(isinstance(node, ast.Name) and node.id in rebound
                                for node in ast.walk(unit_b.node)))


def _same_body(unit_b: FunctionUnit, unit_a: FunctionUnit,
               rebound: set[str]) -> bool:
    if not same_tree(unit_b.body, unit_a.body):
        return False
    return not any(node.kind == "Name" and node.label in rebound
                   for node in unit_b.body.preorder())


def change_graph_for_pair(unit_b: FunctionUnit, unit_a: FunctionUnit,
                          imports_b: ImportTable, imports_a: ImportTable,
                          prov: Provenance,
                          counts: Counter | None = None) -> ChangeGraph | None:
    """Change graph of one matched function pair, or None when nothing changed.

    Pairs that cannot differ (see ``unchanged_pair``) skip the graph layers
    and are counted under ``pairs_unchanged`` in ``counts`` when given.
    Raises UnsupportedConstruct for a changed pair that the dependence graph
    builder cannot model.
    """
    if unchanged_pair(unit_b, unit_a, imports_b, imports_a):
        if counts is not None:
            counts["pairs_unchanged"] += 1
        return None
    g_b = build_fgpdg(unit_b, imports_b)
    g_a = build_fgpdg(unit_a, imports_a)
    tm = map_asts(unit_b.body, unit_a.body)
    nm = project_mapping(tm, g_b, g_a)
    return build_change_graph(g_b, g_a, nm, prov)


def record_from_graph(graph: ChangeGraph) -> dict:
    prov = graph.provenance
    record_id = "cg-" + _stable_hash(
        prov.repo_id, prov.commit_hash, prov.file_path, prov.function)
    return {
        "id": record_id,
        "provenance": asdict(prov),
        "nodes": [
            {
                "id": n.id, "kind": n.kind, "subkind": n.subkind,
                "label": n.label, "concrete_name": n.concrete_name,
                "version": n.version, "span": list(n.span),
            }
            for n in graph.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "kind": e.kind, "label": e.label}
            for e in graph.edges
        ],
        "map_edges": [list(pair) for pair in graph.map_edges],
        "changed": sorted(graph.changed),
        "code": graph.code,
    }


def _stable_hash(*parts: str) -> str:
    import hashlib
    return hashlib.sha1("\x00".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class ChangeGraphStore:
    """Line-delimited record store with a manifest, sorted on finalize."""

    RECORDS = "records.jsonl"
    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._records_path = self.root / self.RECORDS
        self._manifest_path = self.root / self.MANIFEST

    def clear(self) -> None:
        """Drop an earlier run's records and manifest; cloned repositories stay."""
        self._records_path.unlink(missing_ok=True)
        self._manifest_path.unlink(missing_ok=True)

    def append(self, record: dict) -> None:
        with open(self._records_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def iter_records(self):
        if not self._records_path.exists():
            return
        with open(self._records_path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line)

    def finalize(self, config: dict, repos: dict) -> None:
        records = sorted(
            self.iter_records(),
            key=lambda r: (r["provenance"]["repo_id"], r["provenance"]["commit_hash"],
                           r["provenance"]["file_path"], r["provenance"]["function"]),
        )
        with open(self._records_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "config": config,
            "record_count": len(records),
            "repos": repos,
        }
        with open(self._manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=2)
            handle.write("\n")

    def manifest(self) -> dict:
        if not self._manifest_path.exists():
            return {}
        return json.loads(self._manifest_path.read_text())


# ---------------------------------------------------------------------------
# Repository mining
# ---------------------------------------------------------------------------


def _commit_job(args) -> tuple[list[dict], list[str], set[str], Counter]:
    spec, commit, filt = args
    try:
        return graphs_for_commit(spec, commit, filt)
    except subprocess.CalledProcessError as exc:
        return [], [f"{commit.hash[:8]}: git failure ({exc})"], set(), Counter()


def mine_repository(spec: RepoSpec, filt: CommitFilter,
                    store: ChangeGraphStore, jobs: int = 1) -> dict:
    """Mine one repository into the store; returns per-repo summary info."""
    repo_path = open_repository(spec, store.root / "_repos")
    commits = [c for c in list_commits(repo_path)
               if len(c.parents) == 1 or (c.parents and not filt.skip_merges)]
    job_args = [(RepoSpec(repo_path, spec.repo_id, spec.domain_tag), c, filt)
                for c in commits]

    warnings: list[str] = []
    roots: set[str] = set()
    counts: Counter = Counter()
    if jobs > 1 and len(job_args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_commit_job, job_args, chunksize=4))
    else:
        results = [_commit_job(args) for args in job_args]
    for records, commit_warnings, commit_roots, commit_counts in results:
        for record in records:
            store.append(record)
        warnings.extend(commit_warnings)
        roots |= commit_roots
        counts.update(commit_counts)
    for warning in warnings:
        log.warning("%s: %s", spec.repo_id, warning)
    info = {
        "url": spec.url_or_path,
        "domain_tag": spec.domain_tag,
        "project_modules": sorted(roots),
        "warnings": len(warnings),
    }
    info.update((name, counts[name]) for name in REPO_COUNTERS)
    return info

"""Git history traversal: pair file revisions, match functions, stream change graphs.

Commits are processed independently (optionally in parallel). The store
(``store.ChangeGraphStore``) holds the records in memory and writes them
once, on finalize, sorted by (repo_id, commit_hash, file_path, function), so
output does not depend on worker count and an interrupted run leaves the
previous store whole.

``mine`` talks to git through two processes per repository. One ``git log
--raw`` lists the commits with the raw diff of each against its first parent.
One ``git cat-file --batch`` then returns the blobs of the modified files, one
id at a time. The caller passes that reader to ``pair_modified_files`` and
``graphs_for_commit``: a serial run opens one for the whole repository, a pool
job one for its commit. Neither outlives the call that opened it.

What a commit's job builds holds no reference cycle: reference counting frees
it when the job returns, which lets the ``mine`` command run with the cycle
collector off.
"""

from __future__ import annotations

import logging
import os
import re
import subprocess
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .changegraph import (AFTER, BEFORE, Provenance, build_change_graph,
                          hash_email)
from .mapping import map_asts, project_mapping
from .pdg import build_fgpdg
from .source import (FunctionUnit, UnsupportedConstruct,
                     build_import_table, extract_functions, parse_module,
                     same_tree)
# Mining no longer calls parse_source, but the name stays importable from
# here: perfbench/child.py wraps each layer where history looks it up, and
# its table still lists history.parse_source.
from .source import parse_source  # noqa: F401
# Defined in store; tests and perfbench/child.py read them from here too.
from .store import ChangeGraphStore, CommitFilter

log = logging.getLogger(__name__)

# Per-repository counters in the store manifest; each is a sum over commits,
# so it does not depend on the worker count.
REPO_COUNTERS = ("function_pairs", "pairs_unchanged", "unsupported",
                 "parse_failures", "syntax_warnings", "graphs")


class RepoUnavailable(Exception):
    pass


@dataclass
class RepoSpec:
    url_or_path: str
    repo_id: str
    domain_tag: str = ""


@dataclass
class CommitInfo:
    hash: str
    parents: list[str]
    author_email: str
    message: str
    # Raw diff against the first parent: (status, before blob, after blob,
    # path) per file, in git's order.
    changes: list[tuple[str, str, str, str]] = field(default_factory=list)


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


def open_repository(spec: RepoSpec, workdir: Path) -> str:
    """Return a local checkout path, cloning remote URLs into workdir.

    A clone left by an earlier run is first moved to the remote's HEAD, so
    that commits pushed since then are mined too.
    """
    candidate = Path(spec.url_or_path)
    if candidate.exists():
        if not (candidate / ".git").exists() and not (candidate / "HEAD").exists():
            raise RepoUnavailable(f"{spec.url_or_path} is not a git repository")
        return str(candidate)
    if re.match(r"^\w+://|^git@", spec.url_or_path):
        target = workdir / spec.repo_id
        if (target / ".git").exists():
            action = "update"
            steps = [["-C", str(target), "fetch", "--quiet", "origin", "HEAD"],
                     ["-C", str(target), "reset", "--quiet", "--soft", "FETCH_HEAD"]]
        else:
            action = "clone"
            target.parent.mkdir(parents=True, exist_ok=True)
            steps = [["clone", "--quiet", spec.url_or_path, str(target)]]
        for step in steps:
            try:
                subprocess.run(["git", *step], capture_output=True, check=True)
            except subprocess.CalledProcessError as exc:
                raise RepoUnavailable(
                    f"cannot {action} {spec.url_or_path}: {exc.stderr.decode(errors='replace').strip()}"
                ) from exc
        return str(target)
    raise RepoUnavailable(f"{spec.url_or_path} does not exist")


# Header fields are NUL-separated, since a commit message cannot hold NUL.
# git log is porcelain: the last three flags pin what user config could
# change (colour, signatures printed into the log, and diff.orderFile).
_LOG_ARGS = ("log", "--reverse", "--date-order",
             "--format=%H%x00%P%x00%ae%x00%B", "--raw", "-z", "--no-renames",
             "--no-abbrev", "--diff-merges=first-parent",
             "--no-color", "--no-show-signature", f"-O{os.devnull}")


def list_commits(repo_path: str) -> list[CommitInfo]:
    """Every commit from oldest to newest, with its raw diff (``changes``)."""
    try:
        raw = subprocess.run(["git", "-C", repo_path, *_LOG_ARGS],
                             capture_output=True, check=True).stdout
    except subprocess.CalledProcessError as exc:
        raise RepoUnavailable(f"git log failed in {repo_path}: "
                              f"{exc.stderr.decode(errors='replace').strip()}") from exc
    # Each commit is its four header fields, then for each changed file a
    # ":modes blobs status" field and a path field; the first of these starts
    # with a newline. Paths are unquoted; blobs are read by id, because a
    # path that is not UTF-8 does not survive decoding.
    fields = raw.decode("utf-8", errors="replace").split("\0")[:-1]
    commits = []
    i = 0
    while i < len(fields):
        sha, parents, email, message = fields[i:i + 4]
        commit = CommitInfo(sha, parents.split(), email, message.strip())
        i += 4
        while i < len(fields) and fields[i].lstrip("\n").startswith(":"):
            _, _, before_blob, after_blob, status = fields[i].split()
            commit.changes.append((status, before_blob, after_blob, fields[i + 1]))
            i += 2
        commits.append(commit)
    return commits


def _glob_to_regex(pattern: str) -> re.Pattern:
    """Regex of a ``--path-glob``: ``**/`` is zero or more directories, a
    ``**`` that is the whole last component is any remaining path, ``*`` and
    ``?`` stay within one component, and everything else is literal."""
    out = []
    i = 0
    while i < len(pattern):
        if pattern.startswith("**/", i):
            out.append(r"(?:.*/)?")
            i += 3
        elif pattern[i:] == "**" and (i == 0 or pattern[i - 1] == "/"):
            out.append(r".*")
            i += 2
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


class GitReadError(subprocess.CalledProcessError):
    """A blob that ``git cat-file --batch`` did not return."""

    def __str__(self) -> str:
        return f"{' '.join(self.cmd)}: {self.output}"


class BlobReader:
    """Blob contents by id from one ``git cat-file --batch`` process.

    The process starts at the first read. Each read writes one id and reads
    its whole answer before the next, so no pipe ever holds more than one
    blob. A read that fails (a ``missing`` answer, or a reader that died)
    stops the process and raises GitReadError; the next read starts another.
    """

    def __init__(self, repo_path: str):
        self._args = ["git", "-C", repo_path, "cat-file", "--batch"]
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> BlobReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def read(self, blob_id: str) -> bytes:
        if self._proc is None:
            self._proc = subprocess.Popen(self._args, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE,
                                          stderr=subprocess.DEVNULL)
        proc = self._proc
        try:
            proc.stdin.write(blob_id.encode("ascii") + b"\n")
            proc.stdin.flush()
            answer = proc.stdout.readline()
        except BrokenPipeError:  # the reader died
            answer = b""
        header = answer.split()
        if len(header) == 3 and header[1] == b"blob":
            size = int(header[2])
            data = proc.stdout.read(size + 1)
            if len(data) == size + 1 and data.endswith(b"\n"):
                return data[:-1]
        proc.kill()
        self.close()
        reason = answer.decode(errors="replace").strip() or "reader exited"
        raise GitReadError(proc.returncode, self._args,
                           output=f"no blob {blob_id} ({reason})")

    def close(self) -> None:
        """End the process, if one is running, and wait for it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()  # end of input: cat-file exits
        except OSError:
            pass
        proc.stdout.close()
        proc.wait()


def pair_modified_files(commit: CommitInfo, filt: CommitFilter,
                        blobs: BlobReader) -> list[tuple[bytes, bytes, str]]:
    """(before_bytes, after_bytes, path) for each modified file matching the glob.

    The blobs stay undecoded: ``parse_module`` decides their encoding.

    Renames are disabled in the diff so they surface as delete+add and drop
    out; commits touching more files than the cap are skipped entirely.
    Raises GitReadError when a blob cannot be read.
    """
    if len(commit.changes) > filt.max_files_per_commit:
        log.info("skipping %s: %d files exceeds cap %d",
                 commit.hash[:8], len(commit.changes), filt.max_files_per_commit)
        return []
    matcher = _glob_to_regex(filt.path_glob)
    pairs = []
    for status, before_blob, after_blob, path in commit.changes:
        if status != "M" or not matcher.match(path):
            continue
        pairs.append((blobs.read(before_blob), blobs.read(after_blob), path))
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


def graphs_for_commit(spec: RepoSpec, commit: CommitInfo, filt: CommitFilter,
                      blobs: BlobReader
                      ) -> tuple[list[dict], list[str], set[str], Counter]:
    """Records, warnings, module roots and REPO_COUNTERS of one commit."""
    records: list[dict] = []
    warnings: list[str] = []
    roots: set[str] = set()
    counts: Counter = Counter()
    author_hash = hash_email(commit.author_email)
    for before, after, path in pair_modified_files(commit, filt, blobs):
        module_path = module_path_for(path)
        roots.add(module_path.split(".")[0])
        try:
            module_b = parse_module(before)
            module_a = parse_module(after)
        except (SyntaxError, RecursionError, ValueError) as exc:
            # ast.parse refuses a file too deep for it with RecursionError
            # (3.11 on) and a NUL byte with ValueError (3.10).
            # A str, not the exception: a local holding it would close a
            # cycle through its traceback, which holds this frame.
            reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
            warnings.append(f"{commit.hash[:8]} {path}: parse failure ({reason})")
            counts["parse_failures"] += 1
            continue
        counts["syntax_warnings"] += module_b.syntax_warnings + module_a.syntax_warnings
        imports_b = build_import_table(module_b)
        imports_a = build_import_table(module_a)
        units_b = extract_functions(module_b, module_path)
        units_a = extract_functions(module_a, module_path)
        for unit_b, unit_a in match_functions(units_b, units_a):
            counts["function_pairs"] += 1
            prov = Provenance(spec.repo_id, commit.hash, commit.parents[0], path,
                              unit_b.qualified_name, author_hash, commit.message)
            try:
                record = change_graph_for_pair(unit_b, unit_a, imports_b,
                                               imports_a, prov, counts)
            except UnsupportedConstruct as exc:
                warnings.append(f"{commit.hash[:8]} {path}: "
                                f"{unit_b.qualified_name}: {exc}")
                counts["unsupported"] += 1
                continue
            if record is not None:
                records.append(record)
    counts["graphs"] = len(records)
    return records, warnings, roots, counts


def unchanged_pair(unit_b: FunctionUnit, unit_a: FunctionUnit,
                   imports_b: dict[str, str], imports_a: dict[str, str]) -> bool:
    """True when both revisions must build the same dependence graph.

    The normalized bodies are equal and no name in them is bound differently
    by the two import tables (the graph builder reads imports only to resolve
    names), so a change elsewhere in the file does not count. The text is
    tried first, so most unchanged pairs are never converted.
    """
    rebound = _rebound_names(imports_b, imports_a)
    return (_same_def_text(unit_b, unit_a, rebound)
            or _same_body(unit_b, unit_a, rebound))


def _rebound_names(before: dict[str, str], after: dict[str, str]) -> set[str]:
    return {name for name in before.keys() | after.keys()
            if before.get(name) != after.get(name)}


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*", re.ASCII)


def _same_def_text(unit_b: FunctionUnit, unit_a: FunctionUnit,
                   rebound: set[str]) -> bool:
    """Sufficient for ``_same_body``, read from the def's text alone.

    Equal def lines parse to equal raw subtrees, so to equal bodies, and
    every name of the body is an identifier of the text. A text that is not
    ASCII falls through: the parser NFKC-normalizes identifiers, so
    ``ﬁle``, spelled with the ligature U+FB01, is the name ``file``.
    """
    lines = unit_b.source_lines()
    if lines != unit_a.source_lines():
        return False
    if not rebound:
        return True
    text = "\n".join(lines)
    return text.isascii() and rebound.isdisjoint(_IDENTIFIER.findall(text))


def _same_body(unit_b: FunctionUnit, unit_a: FunctionUnit,
               rebound: set[str]) -> bool:
    if not same_tree(unit_b.body, unit_a.body):
        return False
    return not any(node.kind == "Name" and node.label in rebound
                   for node in unit_b.body.preorder())


def change_graph_for_pair(unit_b: FunctionUnit, unit_a: FunctionUnit,
                          imports_b: dict[str, str], imports_a: dict[str, str],
                          prov: Provenance,
                          counts: Counter | None = None) -> dict | None:
    """Change graph of one matched function pair, or None when nothing changed.

    The graph is the store record that ``build_change_graph`` returns, with
    ``code`` filled in: the text and first line of each revision's def.
    Pairs that cannot differ (see ``unchanged_pair``) skip the graph layers
    and are counted under ``pairs_unchanged`` in ``counts`` when given.
    Raises UnsupportedConstruct for a changed pair that the dependence graph
    builder cannot model or whose def nests deeper than ``MAX_NESTING``.
    """
    if unchanged_pair(unit_b, unit_a, imports_b, imports_a):
        if counts is not None:
            counts["pairs_unchanged"] += 1
        return None
    g_b = build_fgpdg(unit_b, imports_b)
    g_a = build_fgpdg(unit_a, imports_a)
    tm = map_asts(unit_b.body, unit_a.body)
    nm = project_mapping(tm, g_b, g_a)
    record = build_change_graph(g_b, g_a, nm, prov)
    if record is not None:
        record["code"] = {BEFORE: _function_source(unit_b),
                          AFTER: _function_source(unit_a)}
    return record


# ---------------------------------------------------------------------------
# Repository mining
# ---------------------------------------------------------------------------


def _commit_job(spec: RepoSpec, commit: CommitInfo, filt: CommitFilter,
                blobs: BlobReader | None = None
                ) -> tuple[list[dict], list[str], set[str], Counter]:
    """One commit's results; a pool job passes no reader and opens its own."""
    if blobs is None:
        with BlobReader(spec.url_or_path) as own:
            return _commit_job(spec, commit, filt, own)
    try:
        return graphs_for_commit(spec, commit, filt, blobs)
    except subprocess.CalledProcessError as exc:
        return [], [f"{commit.hash[:8]}: git failure ({exc})"], set(), Counter()


def mine_repository(spec: RepoSpec, filt: CommitFilter,
                    store: ChangeGraphStore, jobs: int = 1) -> dict:
    """Mine one repository into the store; returns per-repo summary info."""
    repo_path = open_repository(spec, store.root / "_repos")
    commits = [c for c in list_commits(repo_path)
               if len(c.parents) == 1 or (c.parents and not filt.skip_merges)]
    checkout = RepoSpec(repo_path, spec.repo_id, spec.domain_tag)

    warnings: list[str] = []
    roots: set[str] = set()
    counts: Counter = Counter()
    if jobs > 1 and len(commits) > 1:
        # Imported here: it brings multiprocessing, pickle and socket, which
        # a serial run does not need.
        from concurrent.futures import ProcessPoolExecutor

        # The pool forks all its workers at the first submit, so it gets no
        # more than there are commits. Chunks of one commit let any idle worker
        # take the next one.
        with ProcessPoolExecutor(max_workers=min(jobs, len(commits))) as pool:
            results = list(pool.map(_commit_job, repeat(checkout), commits,
                                    repeat(filt)))
    else:
        with BlobReader(repo_path) as blobs:
            results = [_commit_job(checkout, c, filt, blobs) for c in commits]
    for records, commit_warnings, commit_roots, commit_counts in results:
        for record in records:
            store.append(record)
        warnings.extend(commit_warnings)
        roots |= commit_roots
        counts.update(commit_counts)
    for warning in warnings:
        log.warning("%s: %s", spec.repo_id, warning)
    return repo_summary(spec, roots, len(warnings), counts)


def repo_summary(spec: RepoSpec, roots: frozenset[str] | set[str] = frozenset(),
                 warnings: int = 0, counts: Counter | None = None) -> dict:
    """A repository's manifest entry; one that was not mined gets zeros."""
    counts = counts or Counter()
    return {
        "url": spec.url_or_path,
        "domain_tag": spec.domain_tag,
        "project_modules": sorted(roots),
        "warnings": warnings,
        **{name: counts[name] for name in REPO_COUNTERS},
    }

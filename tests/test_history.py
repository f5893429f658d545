from __future__ import annotations

import ast
import concurrent.futures
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from changeminer import history
from changeminer.changegraph import Provenance, hash_email
from changeminer.cli import main as cli_main
from changeminer.history import (BlobReader, ChangeGraphStore, CommitFilter,
                                 CommitInfo, RepoSpec, RepoUnavailable,
                                 change_graph_for_pair,
                                 list_commits, match_functions,
                                 mine_repository, module_path_for,
                                 pair_modified_files, read_repos_file)
from changeminer.pdg import UnsupportedConstruct
from changeminer.source import (MAX_NESTING, _nesting, build_import_table,
                                extract_functions, parse_module)
from changeminer.store import checked_manifest

from _oracle import reference_pair_modified_files
from cyclegarbage import garbage_per_commit
from gitrepos import commit_files, git, init_repo, merge_branches

COPY_BEFORE = (
    "def snapshot(state):\n"
    "    saved = state.copy()\n"
    "    return saved\n"
)
COPY_AFTER = (
    "import copy\n"
    "\n"
    "def snapshot(state):\n"
    "    saved = copy.deepcopy(state)\n"
    "    return saved\n"
)


@pytest.fixture
def copy_repo(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": COPY_BEFORE}, "initial")
    commit_files(repo, {"mod.py": COPY_AFTER}, "deepcopy state")
    return repo


def pairs_of(repo, commit, filt=None):
    with BlobReader(str(repo)) as blobs:
        return pair_modified_files(commit, filt or CommitFilter(), blobs)


def mine_into(tmp_path, repo, filt=None, name="r1"):
    store = ChangeGraphStore(tmp_path / "store")
    spec = RepoSpec(str(repo), name)
    info = mine_repository(spec, filt or CommitFilter(), store)
    store.finalize({}, {name: info})
    return store, info


def test_initial_commit_only_yields_no_graphs(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"a.py": "def f():\n    return 1\n"}, "initial")
    store, info = mine_into(tmp_path, repo)
    assert info["graphs"] == 0
    assert list(store.iter_records()) == []


def test_copy_to_deepcopy_commit_yields_one_graph_with_call_pair(tmp_path, copy_repo):
    store, info = mine_into(tmp_path, copy_repo)
    records = list(store.iter_records())
    assert info["graphs"] == 1 and len(records) == 1
    record = records[0]
    labels = {n["id"]: n["label"] for n in record["nodes"]}
    mapped = {(labels[b], labels[a]) for b, a in record["map_edges"]}
    assert ("?.copy", "copy.deepcopy") in mapped
    assert record["provenance"]["function"] == "mod.snapshot"
    assert record["provenance"]["file_path"] == "mod.py"


def test_merge_commits_skipped_by_default(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"a.py": "def f():\n    return g(1)\n",
                        "b.py": "def h():\n    return 2\n"}, "initial")
    merge_branches(
        repo,
        base_files={"a.py": "def f():\n    return g(2)\n"},
        branch_files={"b.py": "def h():\n    return 3\n"})
    commits = list_commits(str(repo))
    merge = [c for c in commits if len(c.parents) == 2]
    assert merge, "expected a merge commit"
    store, _ = mine_into(tmp_path, repo)
    hashes = {r["provenance"]["commit_hash"] for r in store.iter_records()}
    assert merge[0].hash not in hashes


def test_added_and_nonpython_files_excluded(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"a.py": "def f():\n    return 1\n",
                        "notes.txt": "one"}, "initial")
    commit_files(repo, {"a.py": "def f():\n    return 2\n",
                        "notes.txt": "two",
                        "new.py": "def g():\n    return 3\n"}, "second")
    commits = list_commits(str(repo))
    pairs = pairs_of(repo, commits[1])
    assert [p[2] for p in pairs] == ["a.py"]


def test_paths_that_git_quotes_are_kept(tmp_path):
    # Without -z, git prints a non-ASCII path C-quoted ("pkg/caf\303\251.py").
    repo = init_repo(tmp_path / "repo")
    (repo / "pkg").mkdir()
    latin1 = repo / os.fsdecode(b"pkg/caf\xe9.py")  # not UTF-8
    for version in (1, 2):
        latin1.write_text(f"def h():\n    return {version}\n")
        commit_files(repo, {"pkg/café.py": f"def f():\n    return {version}\n",
                            "pkg/plain.py": f"def g():\n    return {version}\n"},
                     f"version {version}")
    commits = list_commits(str(repo))
    pairs = pairs_of(repo, commits[1])
    assert [(p[2], p[1]) for p in pairs] == [
        ("pkg/café.py", b"def f():\n    return 2\n"),
        ("pkg/caf\ufffd.py", b"def h():\n    return 2\n"),
        ("pkg/plain.py", b"def g():\n    return 2\n")]


def test_commit_over_file_cap_is_skipped_entirely(tmp_path):
    repo = init_repo(tmp_path / "repo")
    files = {f"pkg/m{i}.py": f"def f():\n    return {i}\n" for i in range(6)}
    commit_files(repo, files, "initial")
    changed = {path: text.replace("return", "return 1 +")
               for path, text in files.items()}
    commit_files(repo, changed, "bulk change")
    commits = list_commits(str(repo))
    assert pairs_of(repo, commits[1], CommitFilter(max_files_per_commit=5)) == []
    assert len(pairs_of(repo, commits[1], CommitFilter(max_files_per_commit=6))) == 6


def test_rename_treated_as_delete_plus_add(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"old.py": "def f():\n    return 1\n"}, "initial")
    git(repo, "mv", "old.py", "new.py")
    git(repo, "commit", "-q", "-m", "rename file")
    commits = list_commits(str(repo))
    assert pairs_of(repo, commits[1]) == []


def test_separator_bytes_and_blank_lines_in_messages_are_kept(tmp_path):
    # Header fields split on \x1e and \x1f once cut this history short:
    # `mine` stopped with "not enough values to unpack" and wrote no store.
    messages = ["rename g\x1eto h",
                "unit\x1fseparator\n\nbody with \x1e and \x1f\n\nlast paragraph"]
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": "def f():\n    return g(1)\n"}, "initial")
    commit_files(repo, {"mod.py": "def f():\n    return h(1)\n"}, messages[0])
    commit_files(repo, {"mod.py": "def f():\n    return k(1)\n"}, messages[1])
    commits = list_commits(str(repo))
    assert [c.message for c in commits] == ["initial", *messages]
    assert [c.parents for c in commits[1:]] == [[commits[0].hash], [commits[1].hash]]
    listing = tmp_path / "repos.txt"
    listing.write_text(f"r1 {repo}\n")
    assert cli_main(["mine", "--repos", str(listing),
                     "--out", str(tmp_path / "store")]) == 0
    records = ChangeGraphStore(tmp_path / "store").iter_records()
    assert sorted(r["provenance"]["commit_message"] for r in records) == \
        sorted(messages)


def test_pairs_match_the_per_file_plumbing(tmp_path):
    repo = init_repo(tmp_path / "repo")
    latin1 = repo / os.fsdecode(b"pkg/caf\xe9.py")  # not UTF-8
    (repo / "pkg").mkdir()
    latin1.write_text("def h():\n    return 1\n")
    commit_files(repo, {"pkg/a.py": "def f():\n    return a(1)\n",
                        "pkg/sub/deep.py": "def d():\n    return d(1)\n",
                        "gone.py": "def g():\n    return 1\n",
                        "old_name.py": "def o():\n    return 1\n",
                        "mode.py": "def m():\n    return 1\n",
                        "notes.txt": "one\n"}, "initial")
    latin1.write_text("def h():\n    return 2\n")
    (repo / "gone.py").unlink()
    git(repo, "mv", "old_name.py", "new_name.py")
    os.chmod(repo / "mode.py", 0o755)
    edits = commit_files(repo, {"pkg/a.py": "def f():\n    return b(1)\n",
                                "pkg/sub/deep.py": "def d():\n    return e(1)\n",
                                "notes.txt": "two\n",
                                "added.py": "def n():\n    return 1\n"}, "edits")
    git(repo, "commit", "-q", "--allow-empty", "-m", "nothing")
    merge = merge_branches(repo, {"pkg/sub/deep.py": "def d():\n    return f(1)\n"},
                           {"pkg/a.py": "def f():\n    return c(1)\n",
                            "notes.txt": "three\n"})
    # git log reads diff.orderFile from user config; diff-tree does not.
    (tmp_path / "order").write_text("pkg/sub/deep.py\n")
    git(repo, "config", "diff.orderFile", str(tmp_path / "order"))
    commits = list_commits(str(repo))
    by_hash = {c.hash: c for c in commits}
    assert [p for _, _, p in pairs_of(repo, by_hash[edits])] == \
        ["mode.py", "pkg/a.py", "pkg/caf\ufffd.py", "pkg/sub/deep.py"]
    assert len(by_hash[merge].parents) == 2
    filters = [CommitFilter(), CommitFilter(max_files_per_commit=4),
               CommitFilter(path_glob="**/*")]
    with BlobReader(str(repo)) as blobs:
        for commit in commits[1:]:
            for filt in filters:
                assert pair_modified_files(commit, filt, blobs) == \
                    reference_pair_modified_files(str(repo), commit, filt), \
                    (commit.message, filt)
    store, _ = mine_into(tmp_path, repo, CommitFilter(skip_merges=False))
    assert (merge, "pkg/a.py") in {(r["provenance"]["commit_hash"],
                                    r["provenance"]["file_path"])
                                   for r in store.iter_records()}


def test_a_missing_blob_fails_only_its_commit(tmp_path, caplog):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {f"{name}.py": f"def f():\n    return {name}_one(1)\n"
                        for name in "abc"}, "initial")
    hashes = [commit_files(repo, {f"{name}.py":
                                  f"def f():\n    return {name}_two(1)\n"},
                           f"edit {name}") for name in "abc"]
    blob = git(repo, "rev-parse", f"{hashes[1]}:b.py").strip()
    (repo / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    listing = tmp_path / "repos.txt"
    listing.write_text(f"r1 {repo}\n")
    with caplog.at_level(logging.WARNING, logger="changeminer.history"):
        assert cli_main(["mine", "--repos", str(listing),
                         "--out", str(tmp_path / "store")]) == 0
    [warning] = [r.getMessage() for r in caplog.records]
    assert f"{hashes[1][:8]}: git failure (" in warning and blob in warning
    store = ChangeGraphStore(tmp_path / "store")
    assert [r["provenance"]["commit_hash"] for r in store.iter_records()] == \
        sorted([hashes[0], hashes[2]])
    assert checked_manifest(store.root)["repos"]["r1"]["warnings"] == 1


def test_a_reader_that_died_fails_one_read_and_the_next_starts_another(copy_repo):
    blob = git(copy_repo, "rev-parse", "HEAD:mod.py").strip()
    with BlobReader(str(copy_repo)) as reader:
        assert reader.read(blob) == COPY_AFTER.encode()
        reader._proc.kill()
        reader._proc.wait()
        with pytest.raises(subprocess.CalledProcessError, match="reader exited"):
            reader.read(blob)
        assert reader.read(blob) == COPY_AFTER.encode()


def test_a_commit_of_2000_files_is_read_through_one_reader(tmp_path):
    # 4 000 ids are more than a 64 KiB pipe holds.
    repo = init_repo(tmp_path / "repo")
    files = {f"pkg/m{i}.py": f"X = {i}\n" for i in range(2000)}
    commit_files(repo, files, "initial")
    commit_files(repo, {path: text.replace("=", "= 1 +")
                        for path, text in files.items()}, "edit all")
    commit = list_commits(str(repo))[1]
    result = []
    worker = threading.Thread(target=lambda: result.append(pairs_of(
        repo, commit, CommitFilter(max_files_per_commit=2000))), daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    [pairs] = result
    assert sorted(pairs, key=lambda p: int(p[2][5:-3])) == [
        (f"X = {i}\n".encode(), f"X = 1 + {i}\n".encode(), f"pkg/m{i}.py")
        for i in range(2000)]


@pytest.fixture
def git_starts(monkeypatch):
    """The git processes started from here on, in order."""
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            super().__init__(args, *rest, **kwargs)
            if args[0] == "git":
                started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return started


def test_a_serial_mine_starts_two_git_processes_and_leaves_none(tmp_path,
                                                               git_starts):
    repo = init_repo(tmp_path / "repo")
    for i in range(12):
        commit_files(repo, {"mod.py": f"def f():\n    return g{i}(1)\n"},
                     f"call g{i}")
    git_starts.clear()
    _, info = mine_into(tmp_path, repo)
    assert info["graphs"] == 11
    assert len(git_starts) <= 2
    assert all(proc.poll() is not None for proc in git_starts)


def test_a_pool_job_starts_one_cat_file_and_waits_for_it(copy_repo, git_starts):
    [commit] = [c for c in list_commits(str(copy_repo)) if c.parents]
    git_starts.clear()
    records, warnings, _, _ = history._commit_job(
        RepoSpec(str(copy_repo), "r1"), commit, CommitFilter())
    assert len(records) == 1 and warnings == []
    assert [proc.args[3:] for proc in git_starts] == [["cat-file", "--batch"]]
    # Set by wait(); nothing here polls the process.
    assert git_starts[0].returncode is not None


def test_match_functions_by_qualified_name():
    before = extract_functions(parse_module(
        "def m():\n    return 1\n\nclass C:\n    def m(self):\n        return 2\n"), "x")
    after = extract_functions(parse_module(
        "def m():\n    return 1\n\nclass C:\n    def m(self):\n        return 3\n"), "x")
    pairs = match_functions(before, after)
    assert [(b.qualified_name, a.qualified_name) for b, a in pairs] == \
        [("x.m", "x.m"), ("x.C.m", "x.C.m")]


def test_renamed_function_not_paired():
    before = extract_functions(parse_module("def f():\n    return 1\n"), "x")
    after = extract_functions(parse_module("def g():\n    return 1\n"), "x")
    assert match_functions(before, after) == []


def test_changed_method_produces_graph_for_method_only(tmp_path):
    before = (
        "def m():\n    return top()\n\n"
        "class C:\n    def m(self):\n        return one(1)\n"
    )
    after = (
        "def m():\n    return top()\n\n"
        "class C:\n    def m(self):\n        return two(1)\n"
    )
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": before}, "initial")
    commit_files(repo, {"mod.py": after}, "switch helper")
    store, _ = mine_into(tmp_path, repo)
    functions = [r["provenance"]["function"] for r in store.iter_records()]
    assert functions == ["mod.C.m"]


def test_unsupported_functions_skipped(tmp_path):
    before = "def gen():\n    yield one()\n"
    after = "def gen():\n    yield two()\n"
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": before}, "initial")
    commit_files(repo, {"mod.py": after}, "change generator")
    store, info = mine_into(tmp_path, repo)
    assert info["graphs"] == 0
    assert info["warnings"] >= 1


def test_unchanged_unsupported_function_is_skipped_without_warning(tmp_path):
    gen = "def gen():\n    yield one()\n\n"
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": gen + "def f():\n    return a(1)\n"}, "initial")
    commit_files(repo, {"mod.py": gen + "def f():\n    return b(1)\n"}, "edit f")
    store, info = mine_into(tmp_path, repo)
    assert [r["provenance"]["function"] for r in store.iter_records()] == ["mod.f"]
    assert info["warnings"] == 0
    assert (info["function_pairs"], info["pairs_unchanged"], info["unsupported"],
            info["parse_failures"], info["graphs"]) == (2, 1, 0, 0, 1)


def test_manifest_counts_unsupported_and_parse_failures(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"gen.py": "def gen():\n    yield one()\n",
                        "bad.py": "def f():\n    return 1\n"}, "initial")
    commit_files(repo, {"gen.py": "def gen():\n    yield two()\n",
                        "bad.py": "def f(:\n"}, "break things")
    store, info = mine_into(tmp_path, repo)
    assert info["warnings"] == 2
    assert (info["function_pairs"], info["pairs_unchanged"], info["unsupported"],
            info["parse_failures"], info["graphs"]) == (1, 0, 1, 1, 0)
    assert checked_manifest(store.root)["repos"]["r1"] == info


def test_too_deeply_nested_function_is_counted_unsupported(tmp_path, caplog):
    def deep(last: str) -> str:
        return "def deep(a):\n    return " + " + ".join(["a"] * 1500 + [last]) + "\n"

    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": deep("b") + "def f():\n    return a(1)\n"},
                 "initial")
    commit_files(repo, {"mod.py": deep("c") + "def f():\n    return b(1)\n"},
                 "edit both")
    with caplog.at_level(logging.WARNING, logger="changeminer.history"):
        store, info = mine_into(tmp_path, repo)
    assert [r["provenance"]["function"] for r in store.iter_records()] == ["mod.f"]
    assert (info["function_pairs"], info["pairs_unchanged"], info["unsupported"],
            info["parse_failures"], info["graphs"]) == (2, 0, 1, 0, 1)
    [warning] = [r.getMessage() for r in caplog.records]
    assert "mod.py: mod.deep: unsupported construct nesting at " in warning


def _deep_def(shape: str, levels: int, edit: bool = False) -> str:
    """``def f(a): return EXPR`` nested exactly ``levels`` levels deep.

    The def is level 1 and the return level 2; each shape's expression ends in
    a Name and its context node. ``edit`` changes the outermost operator or
    name only, so the pair's tree matcher pairs the deep part top-down.
    """
    n = levels - 4
    if shape == "sum":
        expr = " + ".join(["a"] * n + ["c" if edit else "b"])
    elif shape == "unary":
        expr = ("+" if edit else "-") + "-" * (n - 1) + "a"
    elif shape == "attribute":
        expr = "a" + ".b" * (n - 1) + (".c" if edit else ".b")
    elif shape == "subscript":
        expr = "a" + "[0]" * (n - 1) + ("[1]" if edit else "[0]")
    else:  # a method chain: each call and its attribute are one level each
        links = [".b()"] * (n // 2) + [".b"] * (n % 2)
        if edit:
            links[-1] = links[-1].replace("b", "c")
        expr = "a" + "".join(links)
    return f"def f(a):\n    return {expr}\n"


def _from_depth(frames: int, func):
    return _from_depth(frames - 1, func) if frames else func()


def _outcome(before: str, after: str):
    unit_b, unit_a, imports_b, imports_a = _pair(before, after)
    try:
        return change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, _PROV)
    except UnsupportedConstruct as exc:
        return exc.kind


@pytest.mark.parametrize("shape", ["sum", "method", "subscript", "attribute",
                                   "unary"])
def test_nesting_bound_does_not_depend_on_the_callers_stack(shape):
    for levels in (MAX_NESTING, MAX_NESTING + 1):
        before, after = _deep_def(shape, levels), _deep_def(shape, levels, edit=True)
        assert _nesting(parse_module(after).body[0]) == levels
        direct = _outcome(before, after)
        assert _from_depth(300, lambda: _outcome(before, after)) == direct
        if levels == MAX_NESTING:
            assert direct["changed"], shape
        else:
            assert direct == "nesting"


def test_a_file_near_the_parser_limit_is_mined_alike_from_any_caller_depth(tmp_path):
    # Under 3.11 a flat sum of about 2 900 terms parsed from a shallow caller
    # and was refused from one 300 frames deeper.
    big = "x = " + "a + " * 2899 + "a\n"
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": big + "def f():\n    return a(1)\n"}, "initial")
    commit_files(repo, {"mod.py": big + "def f():\n    return b(1)\n"}, "edit f")

    def mine(name: str):
        store, info = mine_into(tmp_path / name, repo)
        return list(store.iter_records()), info

    direct = mine("direct")
    assert _from_depth(300, lambda: mine("deep")) == direct
    records, info = direct
    assert info["parse_failures"] == 0
    assert [r["provenance"]["function"] for r in records] == ["mod.f"]


def test_jobs_give_the_same_store_around_the_nesting_bound(tmp_path, monkeypatch):
    repo = init_repo(tmp_path / "repo")
    near = (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1)
    commit_files(repo, {f"d{levels}.py": _deep_def("sum", levels) for levels in near}
                 | {"sum.py": "def total(a):\n    return a\n"}, "initial")
    commit_files(repo, {f"d{levels}.py": _deep_def("sum", levels, edit=True)
                        for levels in near}, "edit the defs near the bound")
    # One commit per sum; the statement alternates, so each pair differs at
    # its second level and only the sum's depth can refuse it.
    for terms in range(600, 1100, 10):
        statement = "return " if terms % 20 else "x = "
        commit_files(repo, {"sum.py": "def total(a):\n    " + statement
                            + "a + " * (terms - 1) + "1\n"}, f"{terms} terms")
    listing = tmp_path / "repos.txt"
    listing.write_text(f"r1 {repo}\n")
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    stores = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert cli_main(["mine", "--repos", str(listing), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        stores.append([(out / name).read_bytes()
                       for name in ("records.jsonl", "manifest.json")])
    assert pools == [2]
    assert stores[0] == stores[1]
    info = json.loads(stores[0][1])["repos"]["r1"]
    assert (info["graphs"], info["unsupported"]) == (2, 51)


def test_files_the_parser_refuses_are_parse_failures(tmp_path, caplog):
    deep = "def deep(a):\n    return " + "a + " * 20000 + "{}\n"
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"deep.py": deep.format(1),
                        "mod.py": "def f():\n    return a(1)\n"}, "initial")
    commit_files(repo, {"deep.py": deep.format(2),
                        "mod.py": "def f():\n    return b(1)\n"}, "edit both")
    try:
        ast.parse(deep.format(2))
        refused = False
    except RecursionError:  # 3.11 on; 3.10 parses it
        refused = True
    with caplog.at_level(logging.WARNING, logger="changeminer.history"):
        store, info = mine_into(tmp_path, repo)
    assert [r["provenance"]["function"] for r in store.iter_records()] == ["mod.f"]
    assert (info["parse_failures"], info["unsupported"]) == \
        ((1, 0) if refused else (0, 1))
    [warning] = [r.getMessage() for r in caplog.records]
    assert ("deep.py: parse failure (" if refused
            else "deep.py: mod.deep: unsupported construct nesting") in warning


_PYTHON_310 = sorted(Path.home().glob(".pyenv/versions/3.10.*/bin/python"))


@pytest.mark.skipif(not _PYTHON_310, reason="needs a Python 3.10 install")
def test_nul_byte_is_a_parse_failure_under_python_310(tmp_path):
    # 3.10's ast.parse raises ValueError on a NUL byte; later ones SyntaxError.
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"nul.py": "def g():\n    return 1\n",
                        "mod.py": "def f():\n    return a(1)\n"}, "initial")
    commit_files(repo, {"nul.py": "def g():\n    return 1\0\n",
                        "mod.py": "def f():\n    return b(1)\n"}, "edit both")
    listing = tmp_path / "repos.txt"
    listing.write_text(f"r1 {repo}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [str(_PYTHON_310[-1]), "-m", "changeminer", "mine", "--repos",
         str(listing), "--out", str(tmp_path / "store")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert "nul.py: parse failure (source code string cannot contain null bytes)" \
        in result.stderr
    info = checked_manifest(tmp_path / "store")["repos"]["r1"]
    assert (info["parse_failures"], info["graphs"]) == (1, 1)


def _pair(before: str, after: str):
    tree_b, tree_a = parse_module(before), parse_module(after)
    unit_b = extract_functions(tree_b, "m")[0]
    unit_a = extract_functions(tree_a, "m")[0]
    return unit_b, unit_a, build_import_table(tree_b), build_import_table(tree_a)


_PROV = Provenance("r1", "c1", "c0", "m.py", "m.f", "x", "")
_BODY = "def f(p):\n    return isdir(p)\n"


def test_pair_with_unrelated_import_change_is_skipped():
    counts = Counter()
    unit_b, unit_a, imports_b, imports_a = _pair(
        "from nt import _isdir as isdir\n" + _BODY,
        "import os\nfrom nt import _isdir as isdir\n" + _BODY)
    assert change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, _PROV,
                                 counts=counts) is None
    assert counts == Counter(pairs_unchanged=1)


def test_pair_whose_used_name_is_rebound_by_an_import_is_mined():
    counts = Counter()
    unit_b, unit_a, imports_b, imports_a = _pair(
        "from nt import _isdir as isdir\n" + _BODY,
        "from nt import _path_isdir as isdir\n" + _BODY)
    graph = change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, _PROV,
                                  counts=counts)
    assert graph is not None and counts == Counter()
    labels = {n["id"]: n["label"] for n in graph["nodes"]}
    assert ("nt._isdir", "nt._path_isdir") in {
        (labels[b], labels[a]) for b, a in graph["map_edges"]}


def test_changed_unsupported_pair_raises(tmp_path, caplog):
    before, after = "def gen():\n    yield one()\n", "def gen():\n    yield two()\n"
    unit_b, unit_a, imports_b, imports_a = _pair(before, after)
    with pytest.raises(UnsupportedConstruct, match="unsupported construct Yield"):
        change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, _PROV)
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": before}, "initial")
    commit_files(repo, {"mod.py": after}, "change generator")
    with caplog.at_level(logging.WARNING, logger="changeminer.history"):
        mine_into(tmp_path, repo)
    [warning] = [r.getMessage() for r in caplog.records]
    assert "mod.py: mod.gen: unsupported construct Yield" in warning


def test_changed_pair_with_yield_only_in_a_lambda_is_mined():
    unit_b, unit_a, imports_b, imports_a = _pair(
        "def f():\n    g = lambda: (yield)\n    return one(g)\n",
        "def f():\n    g = lambda: (yield)\n    return two(g)\n")
    graph = change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, _PROV)
    assert graph is not None
    labels = {n["id"]: n["label"] for n in graph["nodes"]}
    assert ("one", "two") in {(labels[b], labels[a])
                              for b, a in graph["map_edges"]}


def test_rerun_writes_identical_store(tmp_path, copy_repo):
    store1, _ = mine_into(tmp_path / "one", copy_repo)
    store2, _ = mine_into(tmp_path / "two", copy_repo)
    text1 = (store1.root / ChangeGraphStore.RECORDS).read_text()
    text2 = (store2.root / ChangeGraphStore.RECORDS).read_text()
    assert text1 == text2


def test_mine_stores_the_record_that_change_graph_for_pair_returns(
        tmp_path, copy_repo):
    store, _ = mine_into(tmp_path, copy_repo)
    [line] = (store.root / ChangeGraphStore.RECORDS).read_text().splitlines()
    commit = list_commits(str(copy_repo))[-1]
    tree_b, tree_a = parse_module(COPY_BEFORE), parse_module(COPY_AFTER)
    [unit_b], [unit_a] = (extract_functions(tree_b, "mod"),
                          extract_functions(tree_a, "mod"))
    prov = Provenance("r1", commit.hash, commit.parents[0], "mod.py",
                      unit_b.qualified_name, hash_email(commit.author_email),
                      commit.message)
    record = change_graph_for_pair(unit_b, unit_a, build_import_table(tree_b),
                                   build_import_table(tree_a), prov)
    assert json.dumps(record, sort_keys=True) == line


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_a_failed_finalize_leaves_the_previous_store_whole(tmp_path, copy_repo):
    store, _ = mine_into(tmp_path, copy_repo)
    before = _files(store.root)
    again = ChangeGraphStore(store.root)
    again.append(next(store.iter_records()))
    with pytest.raises(TypeError):
        again.finalize({"unserializable": object()}, {})
    assert _files(store.root) == before


def test_stored_commits_exist_in_repository(tmp_path, copy_repo):
    store, _ = mine_into(tmp_path, copy_repo)
    all_hashes = {c.hash for c in list_commits(str(copy_repo))}
    for record in store.iter_records():
        assert record["provenance"]["commit_hash"] in all_hashes
        assert record["provenance"]["file_path"].endswith(".py")
        assert record["provenance"]["commit_hash"] != record["provenance"]["parent_hash"]


def test_unavailable_repo_raises(tmp_path):
    store = ChangeGraphStore(tmp_path / "store")
    with pytest.raises(RepoUnavailable):
        mine_repository(RepoSpec(str(tmp_path / "missing"), "nope"),
                        CommitFilter(), store)


def test_a_clone_of_a_remote_moves_to_its_head_before_reuse(tmp_path, copy_repo):
    store = ChangeGraphStore(tmp_path / "store")
    spec = RepoSpec(copy_repo.resolve().as_uri(), "r1")
    assert mine_repository(spec, CommitFilter(), store)["graphs"] == 1
    commit_files(copy_repo, {"mod.py": COPY_AFTER.replace("deepcopy", "copy")},
                 "shallow copy")
    assert mine_repository(spec, CommitFilter(), store)["graphs"] == 2
    # a failed fetch is reported as a failed clone is
    shutil.rmtree(copy_repo)
    with pytest.raises(RepoUnavailable, match="cannot update"):
        mine_repository(spec, CommitFilter(), store)


def test_a_failed_git_log_names_gits_error(tmp_path, monkeypatch):
    monkeypatch.setenv("LC_ALL", "C")
    repo = init_repo(tmp_path / "repo")
    with pytest.raises(RepoUnavailable, match="does not have any commits"):
        list_commits(str(repo))


def test_read_repos_file(tmp_path):
    listing = tmp_path / "repos.txt"
    listing.write_text(
        "# comment\n"
        "alpha /tmp/a Web\n"
        "beta /tmp/b\n")
    specs = read_repos_file(listing)
    assert [(s.repo_id, s.url_or_path, s.domain_tag) for s in specs] == \
        [("alpha", "/tmp/a", "Web"), ("beta", "/tmp/b", "")]


def test_read_repos_file_rejects_duplicates(tmp_path):
    listing = tmp_path / "repos.txt"
    listing.write_text("a /tmp/x\na /tmp/y\n")
    with pytest.raises(ValueError):
        read_repos_file(listing)


def test_a_trailing_double_star_matches_any_remaining_path(tmp_path):
    repo = init_repo(tmp_path / "repo")
    files = ("src/a.py", "src/pkg/b.py", "src/pkg/sub/c.py", "lib/d.py")
    commit_files(repo, {path: "def f():\n    return 1\n" for path in files},
                 "initial")
    commit_files(repo, {path: "def f():\n    return 2\n" for path in files},
                 "edit")
    edit = list_commits(str(repo))[-1]

    def matched(glob):
        return [path for _, _, path in
                pairs_of(repo, edit, CommitFilter(path_glob=glob))]

    assert matched("src/**") == ["src/a.py", "src/pkg/b.py", "src/pkg/sub/c.py"]
    assert matched("**") == ["lib/d.py", *matched("src/**")]
    # Only a whole last component is any path: elsewhere ** is two *.
    assert matched("src/pkg/b**") == ["src/pkg/b.py"]
    assert matched("src/**/c.py") == ["src/pkg/sub/c.py"]
    assert matched("src/*") == ["src/a.py"]


def test_module_path_for():
    assert module_path_for("pkg/mod.py") == "pkg.mod"
    assert module_path_for("pkg/__init__.py") == "pkg"
    assert module_path_for("top.py") == "top"


def test_parallel_mining_matches_serial(tmp_path, monkeypatch):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": COPY_BEFORE}, "initial")
    commit_files(repo, {"mod.py": COPY_AFTER}, "deepcopy state")
    commit_files(repo, {"mod.py": COPY_AFTER.replace("deepcopy", "copy")},
                 "shallow copy is enough")
    commit_files(repo, {"mod.py": COPY_AFTER}, "deepcopy again")
    pools = []  # [max_workers, chunksize] of each pool

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append([max_workers])
            super().__init__(max_workers, **kwargs)

        def map(self, fn, *iterables, chunksize=1, **kwargs):
            pools[-1].append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = ChangeGraphStore(tmp_path / "serial")
    spec = RepoSpec(str(repo), "r1")
    info_s = mine_repository(spec, CommitFilter(), serial, jobs=1)
    assert pools == []
    serial.finalize({}, {"r1": info_s})
    assert info_s["graphs"] == 3
    for jobs in (4, 2):
        parallel = ChangeGraphStore(tmp_path / f"jobs{jobs}")
        info_p = mine_repository(spec, CommitFilter(), parallel, jobs=jobs)
        parallel.finalize({}, {"r1": info_p})
        assert info_s == info_p
        assert (serial.root / ChangeGraphStore.RECORDS).read_text() == \
            (parallel.root / ChangeGraphStore.RECORDS).read_text()
    # Three commit jobs: four requested jobs start three workers, two start
    # two, and both map in chunks of one commit, as many chunks as commits.
    assert pools == [[3, 1], [2, 1]]


def test_code_snippet_follows_the_parsers_lines(tmp_path):
    # "\x0c" on a line of its own and U+2028 inside a string literal end a
    # line for str.splitlines but not for the parser.
    before = ("def a():\n    return 1\n\x0c\n"
              "def f(x):\n    s = 'one\u2028two'\n    return x + 1\n")
    after = before.replace("x + 1", "x + 2")
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"m.py": before}, "initial")
    commit_files(repo, {"m.py": after}, "add two")
    store, _ = mine_into(tmp_path, repo)
    [record] = list(store.iter_records())
    assert record["code"] == {
        "Before": {"text": "def f(x):\n    s = 'one\u2028two'\n    return x + 1",
                   "start_line": 4},
        "After": {"text": "def f(x):\n    s = 'one\u2028two'\n    return x + 2",
                  "start_line": 4},
    }


def test_parser_warnings_are_counted_not_printed(tmp_path):
    # An invalid escape is a DeprecationWarning up to 3.11 and a
    # SyntaxWarning from 3.12; -W always would print either as <unknown>:N.
    before = 'def f():\n    return find("\\(")\n'
    after = 'def f():\n    return search("\\(", "\\(")\n'
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": before}, "initial")
    commit_files(repo, {"mod.py": after}, "search for it")
    listing = tmp_path / "repos.txt"
    listing.write_text(f"r1 {repo}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-W", "always", "-m", "changeminer", "mine", "--repos",
         str(listing), "--out", str(tmp_path / "store")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert "<unknown>" not in result.stderr
    info = checked_manifest(tmp_path / "store")["repos"]["r1"]
    # One warning in the before revision, two in the after one.
    assert (info["syntax_warnings"], info["graphs"]) == (3, 1)


@pytest.fixture(scope="module")
def garbage_repo(tmp_path_factory):
    """One commit per case that mining a commit must free without the collector."""
    repo = init_repo(tmp_path_factory.mktemp("garbage") / "repo")
    imports = ("from os import path as p\n\n"
               "def uses(x):\n    return p.join(x, 'a')\n\n"
               "def reformatted(x):\n    return x+1\n")
    commit_files(repo, {"mod.py": COPY_BEFORE, "imports.py": imports,
                        "gen.py": "def gen():\n    yield 1\n",
                        "bad.py": "def ok():\n    return 1\n",
                        "deep.py": "def g():\n    return 1\n"}, "initial")
    commit_files(repo, {"mod.py": COPY_AFTER}, "a changed pair")
    commit_files(repo, {"imports.py": imports.replace("from os import path",
                                                      "import posixpath")
                        .replace("x+1", "x + 1")}, "rebind an import")
    commit_files(repo, {"gen.py": "def gen():\n    yield 2\n"}, "unsupported")
    commit_files(repo, {"bad.py": "def ok(:\n    return 1\n"}, "syntax error")
    # Too deep for the parser from 3.11 on, even in a fresh thread.
    commit_files(repo, {"deep.py": "x = " + "a + " * 20000 + "1\n"}, "too deep")
    return repo


def test_mining_a_commit_leaves_no_cyclic_garbage(garbage_repo):
    # With no cycle, reference counting frees what a commit's job built, so
    # ``mine`` can run with the cycle collector off.
    assert garbage_per_commit(str(garbage_repo)) == {"reader": [0] * 5,
                                                     "worker": [0] * 5}


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_mining_leaves_no_cyclic_garbage_under_each_python(garbage_repo, version):
    # Each version's ast module and parser build their trees differently.
    pythons = sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python"))
    if not pythons:
        pytest.skip(f"needs a Python {version} install")
    tests = Path(__file__).resolve().parent
    result = subprocess.run(
        [str(pythons[-1]), str(tests / "cyclegarbage.py"), str(garbage_repo)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tests.parent / "src")})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"reader": [0] * 5, "worker": [0] * 5}

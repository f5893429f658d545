from __future__ import annotations

import logging
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from changeminer import history
from changeminer.changegraph import Provenance
from changeminer.history import (ChangeGraphStore, CommitFilter, CommitInfo,
                                 RepoSpec, RepoUnavailable,
                                 change_graph_for_pair,
                                 list_commits, match_functions,
                                 mine_repository, module_path_for,
                                 pair_modified_files, read_repos_file)
from changeminer.pdg import UnsupportedConstruct
from changeminer.source import (build_import_table, extract_functions,
                                parse_module)

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
    pairs = pair_modified_files(commits[1], CommitFilter())
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
    pairs = pair_modified_files(commits[1], CommitFilter())
    assert [(p[2], p[1]) for p in pairs] == [
        ("pkg/café.py", "def f():\n    return 2\n"),
        ("pkg/caf\ufffd.py", "def h():\n    return 2\n"),
        ("pkg/plain.py", "def g():\n    return 2\n")]


def test_commit_over_file_cap_is_skipped_entirely(tmp_path):
    repo = init_repo(tmp_path / "repo")
    files = {f"pkg/m{i}.py": f"def f():\n    return {i}\n" for i in range(6)}
    commit_files(repo, files, "initial")
    changed = {path: text.replace("return", "return 1 +")
               for path, text in files.items()}
    commit_files(repo, changed, "bulk change")
    commits = list_commits(str(repo))
    assert pair_modified_files(commits[1], CommitFilter(max_files_per_commit=5)) == []
    assert len(pair_modified_files(commits[1], CommitFilter(max_files_per_commit=6))) == 6


def test_rename_treated_as_delete_plus_add(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"old.py": "def f():\n    return 1\n"}, "initial")
    git(repo, "mv", "old.py", "new.py")
    git(repo, "commit", "-q", "-m", "rename file")
    commits = list_commits(str(repo))
    assert pair_modified_files(commits[1], CommitFilter()) == []


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
    assert store.manifest()["repos"]["r1"] == info


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
    assert "mod.py: mod.deep: unsupported: nesting too deep" in warning


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
    labels = {n.id: n.label for n in graph.nodes}
    assert ("nt._isdir", "nt._path_isdir") in {
        (labels[b], labels[a]) for b, a in graph.map_edges}


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
    labels = {n.id: n.label for n in graph.nodes}
    assert ("one", "two") in {(labels[b], labels[a]) for b, a in graph.map_edges}


def test_rerun_writes_identical_store(tmp_path, copy_repo):
    store1, _ = mine_into(tmp_path / "one", copy_repo)
    store2, _ = mine_into(tmp_path / "two", copy_repo)
    text1 = (store1.root / ChangeGraphStore.RECORDS).read_text()
    text2 = (store2.root / ChangeGraphStore.RECORDS).read_text()
    assert text1 == text2


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
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            pools.append(self)
            return super().map(*args, **kwargs)

    monkeypatch.setattr(history, "ProcessPoolExecutor", RecordingPool)
    serial = ChangeGraphStore(tmp_path / "serial")
    parallel = ChangeGraphStore(tmp_path / "parallel")
    spec = RepoSpec(str(repo), "r1")
    info_s = mine_repository(spec, CommitFilter(), serial, jobs=1)
    assert pools == []
    info_p = mine_repository(spec, CommitFilter(), parallel, jobs=4)
    assert len(pools) == 1
    serial.finalize({}, {"r1": info_s})
    parallel.finalize({}, {"r1": info_p})
    assert info_s == info_p and info_s["graphs"] == 3
    assert (serial.root / ChangeGraphStore.RECORDS).read_text() == \
        (parallel.root / ChangeGraphStore.RECORDS).read_text()


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

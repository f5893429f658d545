"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

from __future__ import annotations

import json
import sys
import sysconfig
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from changeminer.cli import main
from changeminer.history import ChangeGraphStore
from changeminer.mining import MiningConfig, load_corpus, mine
from changeminer.pdg import build_fgpdg
from changeminer.report import load_pattern_dir
from changeminer.store import checked_manifest

from _oracle import oracle_pattern_keys
from conftest import FIG2_AFTER, FIG2_BEFORE, build_unit, change_graph_for
from gitrepos import commit_files, init_repo
from plantedcorpus import (PLANTED, STDLIB_PER_REPO, STDLIB_RENAMES, STDLIB_REPOS,
                           build_planted_corpus, build_stdlib_renames)
from test_mining import random_corpus, _ORACLE_CFG


def _report(number: int, name: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[{verdict}] criterion {number}: {name}")
            return False

    return _Reporter()


@pytest.fixture(scope="session")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    listing, noise_commits = build_planted_corpus(root / "repos")
    store = root / "store"
    patterns_dir = root / "patterns"
    started = time.monotonic()
    assert main(["mine", "--repos", str(listing), "--out", str(store)]) == 0
    assert main(["patterns", "--store", str(store),
                 "--out", str(patterns_dir)]) == 0
    elapsed = time.monotonic() - started
    return SimpleNamespace(root=root, listing=listing,
                           noise_commits=noise_commits, store=store,
                           patterns_dir=patterns_dir, elapsed=elapsed)


def _patterns_with_pair(entries, pair) -> list[dict]:
    return [entry for entry in entries
            if list(pair) in entry["meta"]["call_pairs"]]


def test_criterion_1_planted_pattern_recovery(planted):
    with _report(1, "planted-pattern recovery at default thresholds"):
        assert planted.noise_commits >= 20
        entries = load_pattern_dir(planted.patterns_dir)
        assert entries, "no patterns mined"
        assert len(entries) <= 30
        for name, spec in PLANTED.items():
            matches = _patterns_with_pair(entries, spec["seed"])
            assert matches, f"planted pattern {name} not recovered"
            assert any(m["meta"]["cross_project"] and m["meta"]["support"] >= 3
                       for m in matches), f"{name} not cross-project"
        planted_pairs = {tuple(spec["seed"]) for spec in PLANTED.values()}
        legitimate = [
            entry for entry in entries
            if any(tuple(pair) in planted_pairs
                   for pair in entry["meta"]["call_pairs"])
        ]
        assert len(legitimate) / len(entries) >= 0.9
        assert planted.elapsed < 120.0, f"pipeline took {planted.elapsed:.1f}s"


_STDLIB = Path(sysconfig.get_paths()["stdlib"])


@pytest.fixture(scope="session")
def stdlib_renames(tmp_path_factory):
    if not (_STDLIB / "os.py").is_file():
        pytest.skip("needs the running interpreter's standard library")
    root = tmp_path_factory.mktemp("stdlib-renames")
    listing, planted = build_stdlib_renames(root / "repos", _STDLIB)
    store = root / "store"
    patterns_dir = root / "patterns"
    assert main(["mine", "--repos", str(listing), "--out", str(store)]) == 0
    assert main(["patterns", "--store", str(store),
                 "--out", str(patterns_dir)]) == 0
    return SimpleNamespace(planted=planted, store=store, patterns_dir=patterns_dir)


def _carries(entry: dict, rename: tuple[str, str]) -> bool:
    """Whether a pattern maps a ``.old`` call to a ``.new`` call."""
    return any(b.rsplit(".", 1)[-1] == rename[0] and a.rsplit(".", 1)[-1] == rename[1]
               for b, a in entry["meta"]["call_pairs"])


def _graph_ids(entry: dict) -> set[str]:
    return {instance["change_graph_id"] for instance in entry["instances"]}


def test_criterion_1_planted_renames_in_stdlib_functions(stdlib_renames):
    with _report(1, "planted renames recovered from real stdlib functions"):
        entries = load_pattern_dir(stdlib_renames.patterns_dir)
        # 35, 33, 32 and 66 patterns with the 3.10.13, 3.11.7, 3.12.1 and
        # 3.13.0 standard libraries.
        assert 0 < len(entries) <= 80
        min_freq = MiningConfig().min_freq
        graph_of = {(prov["repo_id"], prov["file_path"], prov["function"]): record["id"]
                    for record in ChangeGraphStore(stdlib_renames.store).iter_records()
                    for prov in [record["provenance"]]}
        for rename, sites in stdlib_renames.planted.items():
            assert len(sites) == STDLIB_PER_REPO * len(STDLIB_REPOS)
            planted_ids = {graph_of[site] for site in sites if site in graph_of}
            recovered = [entry for entry in entries if _carries(entry, rename)
                         and entry["meta"]["project_ids"] == list(STDLIB_REPOS)
                         and len(_graph_ids(entry)) >= min_freq]
            assert recovered, f"{rename[0]} -> {rename[1]} not recovered"
            covered = max(len(_graph_ids(entry) & planted_ids) for entry in recovered)
            print(f"{rename[0]} -> {rename[1]}: one pattern covers {covered} of "
                  f"{len(planted_ids)} modelled planted change graphs")
        for entry in entries:
            assert not all(_carries(entry, rename) for rename in STDLIB_RENAMES)
            assert entry["meta"]["support"] == len(_graph_ids(entry)) >= min_freq


@pytest.mark.xfail(sys.version_info < (3, 13), strict=True, reason=(
    "a renamed call's receiver is changed, so the change graph keeps every "
    "use of it; a template with k of n such equal uses has n!/(n-k)! "
    "embeddings; with the 3.10-3.12 standard libraries two seeds stop at "
    "SEED_WORK_BOUND"))
def test_stdlib_renames_are_searched_within_the_work_bound(stdlib_renames):
    manifest = json.loads((stdlib_renames.patterns_dir / "manifest.json").read_text())
    assert not [w for w in manifest["warnings"] if w.startswith("budget exceeded")]


def test_criterion_2_oracle_equivalence():
    with _report(2, "mining equals brute-force oracle on 50 random corpora"):
        started = time.monotonic()
        checked = 0
        for seed in range(50):
            corpus = random_corpus(seed)
            mined = {record.canonical_key
                     for record in mine(corpus, _ORACLE_CFG).patterns}
            oracle = oracle_pattern_keys(corpus, _ORACLE_CFG)
            assert mined == oracle, f"corpus seed {seed} diverged"
            checked += len(mined)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"
        assert checked > 0, "oracle corpora produced no patterns at all"


def test_criterion_3_fig2_structural_fidelity():
    with _report(3, "loop-to-update change graph structure"):
        unit, imports = build_unit(FIG2_BEFORE)
        graph = build_fgpdg(unit, imports)
        by_id = {node.id: node for node in graph.nodes}
        for_nodes = [n for n in graph.nodes
                     if n.kind == "Control" and n.subkind == "for"]
        assert len(for_nodes) == 1
        add_calls = [n for n in graph.nodes if n.label == "?.add"]
        assert len(add_calls) == 1
        assert any(e.kind == "Control" and e.label == "body"
                   and e.src == for_nodes[0].id and e.dst == add_calls[0].id
                   for e in graph.edges)
        collection = [n for n in graph.nodes if n.concrete_name == "collection"]
        assert len(collection) == 1
        assert any(e.kind == "Data" and e.label == "cond"
                   and e.src == collection[0].id and e.dst == for_nodes[0].id
                   for e in graph.edges)

        change = change_graph_for(FIG2_BEFORE, FIG2_AFTER)
        assert change is not None
        names = {n["id"]: (n["label"], n["concrete_name"])
                 for n in change["nodes"]}
        mapped = {(names[b], names[a]) for b, a in change["map_edges"]}
        assert (("?.add", "add"), ("?.update", "update")) in mapped
        assert (("var", "collection"), ("var", "collection")) in mapped


def test_criterion_4_null_change_invariant(tmp_path):
    with _report(4, "cosmetic-only history yields zero change graphs"):
        repo = init_repo(tmp_path / "cosmetic")
        base = (
            "def compute(a, b):\n"
            "    total = a + b\n"
            "    return total\n"
        )
        commit_files(repo, {"calc.py": base}, "initial")
        edits = [
            "# comment one\n" + base,
            "# comment two\n" + base,
            "# comment two\n" + base.replace("    total", "    total", 1).replace(
                "a + b", "a  +  b"),
            "# comment two\n\n" + base.replace("a  +  b", "a +  b"),
            "#\n# block\n#\n" + base,
            base + "\n\n# trailing note\n",
            base + "# inline tail\n",
            "  \n" + base,
            "# again\n" + base,
            "\n\n" + base,
        ]
        for i, text in enumerate(edits):
            commit_files(repo, {"calc.py": text}, f"cosmetic edit {i}")
        listing = tmp_path / "repos.txt"
        listing.write_text(f"cosmetic {repo}\n")
        store = tmp_path / "store"
        assert main(["mine", "--repos", str(listing), "--out", str(store)]) == 0
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["record_count"] == 0


def test_criterion_5_determinism_across_worker_counts(planted, tmp_path):
    with _report(5, "byte-identical output for 1 and 8 workers"):
        runs = {}
        for jobs in (1, 8):
            store = tmp_path / f"store-j{jobs}"
            patterns_dir = tmp_path / f"patterns-j{jobs}"
            assert main(["mine", "--repos", str(planted.listing),
                         "--out", str(store), "--jobs", str(jobs)]) == 0
            assert main(["patterns", "--store", str(store),
                         "--out", str(patterns_dir)]) == 0
            runs[jobs] = (store, patterns_dir)

        records1 = (runs[1][0] / ChangeGraphStore.RECORDS).read_bytes()
        records8 = (runs[8][0] / ChangeGraphStore.RECORDS).read_bytes()
        assert records1 == records8
        repos1 = checked_manifest(runs[1][0])["repos"]
        repos8 = checked_manifest(runs[8][0])["repos"]
        assert repos1 == repos8
        assert sum(info["pairs_unchanged"] for info in repos1.values()) > 0

        entries1 = load_pattern_dir(runs[1][1])
        entries8 = load_pattern_dir(runs[8][1])
        keys1 = [entry["meta"]["canonical_key"] for entry in entries1]
        keys8 = [entry["meta"]["canonical_key"] for entry in entries8]
        assert keys1 == keys8
        for name in (entry["meta"]["name"] for entry in entries1):
            for filename in ("meta.json", "graph.json", "instances.json"):
                assert (runs[1][1] / name / filename).read_bytes() == \
                    (runs[8][1] / name / filename).read_bytes()


def test_criterion_6_threshold_monotonicity(planted, tmp_path):
    with _report(6, "pattern counts shrink as thresholds rise"):
        def count(args, out):
            assert main(["patterns", "--store", str(planted.store),
                         "--out", str(tmp_path / out)] + args) == 0
            return len(load_pattern_dir(tmp_path / out))

        base = count([], "base")
        denser = count(["--min-freq", "4"], "freq4")
        bigger = count(["--min-size", "6"], "size6")
        assert denser <= base
        assert bigger <= base


def test_criterion_7_classifier_fidelity(planted):
    with _report(7, "planted patterns classify MOV/BUILT/STAND/STAND/STAND"):
        entries = load_pattern_dir(planted.patterns_dir)
        for name, spec in PLANTED.items():
            matches = _patterns_with_pair(entries, spec["seed"])
            assert matches, f"planted pattern {name} missing"
            categories = {m["meta"]["category"] for m in matches}
            assert categories == {spec["category"]}, \
                f"{name}: expected {spec['category']}, got {categories}"

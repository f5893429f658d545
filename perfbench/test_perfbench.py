"""Self-test of the benchmark on a tiny corpus (two modules per repository).

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--modules", "2", "--seconds", "1"]


def _bench(tmp: Path, *args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args,
         "--work", str(tmp / "work")],
        capture_output=True, text=True, cwd=cwd, timeout=300)


# Every workload run.py knows, also one that BENCHMARK.json does not list.
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    done = _bench(tmp_path, "--workload", workload, "--seed", "3",
                  "--trace", trace, *TINY)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny corpus, its store and a patterns-wide run over it."""
    work = tmp_path_factory.mktemp("tiny")
    spec = corpus.CorpusSpec(dict(corpus.DEFAULT_PAIRS), 2, run.CORPUS_SEED, 3)
    runner = run.Runner(work, deadline=run.time.monotonic() + 240)
    setup = run.set_up(run.WORKLOADS["patterns-wide"], spec, work, runner, 1)
    assert not setup.problems
    first = run.iterate(run.WORKLOADS["patterns-wide"], setup, work / "run-0",
                        runner.run, None)
    assert not first.problems
    return work, setup, runner, first


def test_corpus_is_reproducible(tmp_path):
    spec = corpus.CorpusSpec(dict(corpus.DEFAULT_PAIRS), 2, run.CORPUS_SEED, 5)
    first = corpus.build_corpus(spec, tmp_path / "a", tmp_path / "home")
    second = corpus.build_corpus(spec, tmp_path / "b", tmp_path / "home")
    assert first["heads"] == second["heads"]
    reordered = corpus.CorpusSpec(spec.pairs, 2, run.CORPUS_SEED, 6)
    assert corpus.draw(reordered, "v310") in (
        corpus.draw(spec, "v310"), corpus.draw(spec, "v310")[::-1])


def test_checker_rejects_a_tampered_binding(tiny):
    work, setup, _, _ = tiny
    patterns = work / "tampered"
    shutil.copytree(work / "run-0" / "patterns", patterns)
    records = check.load_records(setup.store)
    settings = run.WORKLOADS["patterns-wide"].settings()
    assert check.check_patterns(patterns, records, **settings) == []

    path = sorted(patterns.glob("pattern-*/instances.json"))[0]
    instances = json.loads(path.read_text())
    binding = instances[0]["binding"]
    binding["0"], binding["1"] = binding["1"], binding["0"]
    path.write_text(json.dumps(instances))
    problems = check.check_patterns(patterns, records, **settings)
    assert any("instance in" in problem for problem in problems), problems


def test_a_differing_digest_fails_the_run(tiny):
    work, setup, runner, first = tiny
    reference = {name: "0" * 64 for name in first.digests}
    again = run.iterate(run.WORKLOADS["patterns-wide"], setup, work / "run-1",
                        runner.run, reference)
    assert again.problems == ["output digest differs from the first run"]
    same = run.iterate(run.WORKLOADS["patterns-wide"], setup, work / "run-2",
                       runner.run, first.digests)
    assert same.problems == []


def test_peak_rss_is_the_childs_own(tiny):
    work, _, runner, _ = tiny
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"\1" * len(range(0, len(ballast), 4096))
    child = runner.run(["stats", "--patterns", work / "run-0" / "patterns"])
    assert child.status == 0
    assert 0 < child.peak_rss_mb < 100


def test_missing_stdlib_skips_cleanly(tmp_path):
    done = _bench(tmp_path, "--workload", "mine-replay", "--seed", "1",
                  "--pair", f"v310={tmp_path / 'absent'},{tmp_path / 'absent2'}", *TINY)
    assert done.returncode == 0
    assert done.stdout.startswith("skipped mine-replay")
    assert not (tmp_path / "work").exists()


def test_fails_without_the_program_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = _bench(tmp_path, "--workload", "mine-replay", "--seed", "1", *TINY,
                  cwd=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import changeminer
from changeminer import cli, history, mapping, mining, source, store
from changeminer.cli import main, read_config_file
from changeminer.history import REPO_COUNTERS, ChangeGraphStore
from changeminer.report import load_pattern_dir

from gitrepos import commit_files, init_repo
from test_history import COPY_AFTER, COPY_BEFORE

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def small_repo(tmp_path):
    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"mod.py": COPY_BEFORE}, "initial")
    commit_files(repo, {"mod.py": COPY_AFTER}, "deepcopy state")
    return repo


@pytest.fixture
def twin_repo(tmp_path):
    """One commit makes the same change in two files."""
    repo = init_repo(tmp_path / "twin")
    commit_files(repo, {
        "one.py": "def f(x):\n    return g(x)\n",
        "two.py": "def k(y):\n    return g(y)\n",
    }, "initial")
    commit_files(repo, {
        "one.py": "def f(x):\n    return h(x)\n",
        "two.py": "def k(y):\n    return h(y)\n",
    }, "swap helper everywhere")
    return repo


def write_repos(tmp_path, lines) -> str:
    listing = tmp_path / "repos.txt"
    listing.write_text("".join(line + "\n" for line in lines))
    return str(listing)


def test_mine_writes_store_and_manifest(tmp_path, small_repo, capsys):
    listing = write_repos(tmp_path, [f"r1 {small_repo} Web"])
    assert main(["mine", "--repos", listing, "--out", str(tmp_path / "store")]) == 0
    out = capsys.readouterr().out
    assert "r1: 1 change graphs" in out
    assert "total: 1 change graphs" in out
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    assert manifest["record_count"] == 1
    assert manifest["repos"]["r1"]["graphs"] == 1
    assert manifest["repos"]["r1"]["domain_tag"] == "Web"


def test_mine_missing_repos_file_exits_one(tmp_path):
    assert main(["mine", "--repos", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "store")]) == 1


def test_mine_empty_repos_file_exits_one(tmp_path):
    listing = write_repos(tmp_path, ["# nothing here"])
    assert main(["mine", "--repos", listing, "--out", str(tmp_path / "store")]) == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_mine_leaves_the_cycle_collector_as_it_found_it(tmp_path, small_repo,
                                                       monkeypatch, enabled):
    during = []
    real_mine_repository = history.mine_repository

    def mine_repository(*args):
        during.append(gc.isenabled())
        return real_mine_repository(*args)

    monkeypatch.setattr(history, "mine_repository", mine_repository)
    good = write_repos(tmp_path, [f"good {small_repo}"])
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    (gc.enable if enabled else gc.disable)()
    try:
        # A success, a refused repos file and a ValueError raised in the command.
        for listing, extra, status in ((good, [], 0), (str(empty), [], 1),
                                       (good, ["--jobs", "0"], 1)):
            assert main(["mine", "--repos", listing, *extra,
                         "--out", str(tmp_path / "store")]) == status
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False]


# Modules only mine's per-commit path runs: git plumbing, the parser, the
# graph layers and the process pool.
MINE_ONLY = ("changeminer.history", "changeminer.source", "changeminer.pdg",
             "changeminer.mapping", "changeminer.changegraph",
             "concurrent.futures.process")


def _mine_only_loaded(code: str, *args: str) -> list[str]:
    """The MINE_ONLY modules a fresh interpreter holds after running code."""
    probe = (code + "\nimport sys\n"
             f"print(*[m for m in {MINE_ONLY!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1].split()


def test_importing_the_cli_loads_no_mining_layer():
    assert _mine_only_loaded("import changeminer.cli") == []


def test_serial_mine_does_not_load_the_process_pool(tmp_path, small_repo):
    run = ("import sys\nfrom changeminer.cli import main\n"
           "assert main(['mine', '--repos', sys.argv[1], '--out', sys.argv[2],"
           " '--jobs', '1']) == 0")
    loaded = _mine_only_loaded(run, write_repos(tmp_path, [f"r1 {small_repo}"]),
                               str(tmp_path / "store"))
    assert "changeminer.history" in loaded
    assert "concurrent.futures.process" not in loaded


def test_mine_with_unreachable_repo_warns_but_succeeds(tmp_path, small_repo, capsys):
    listing = write_repos(tmp_path, [
        f"good {small_repo}",
        f"bad {tmp_path / 'missing'}",
    ])
    assert main(["mine", "--repos", listing, "--out", str(tmp_path / "store")]) == 0
    captured = capsys.readouterr()
    assert "good: 1 change graphs" in captured.out
    assert "bad" in captured.err
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    assert manifest["repos"]["bad"]["unavailable"] is True
    good, bad = manifest["repos"]["good"], manifest["repos"]["bad"]
    assert set(bad) == set(good) | {"unavailable"}
    assert {name: bad[name] for name in ("warnings", *REPO_COUNTERS)} == \
        dict.fromkeys(("warnings", *REPO_COUNTERS), 0)


def test_patterns_schema_mismatch_exits_one(tmp_path, capsys):
    store = ChangeGraphStore(tmp_path / "store")
    store.root.mkdir()
    (store.root / "records.jsonl").write_text("")
    (store.root / "manifest.json").write_text('{"schema_version": 99}')
    assert main(["patterns", "--store", str(store.root),
                 "--out", str(tmp_path / "patterns")]) == 1
    assert "store schema version 99 does not match" in capsys.readouterr().err


def test_patterns_reports_a_missing_store_and_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "typo" / "store"
    assert main(["patterns", "--store", str(missing),
                 "--out", str(tmp_path / "typo" / "pat")]) == 1
    assert capsys.readouterr().err == f"error: no change-graph store at {missing}\n"
    assert not (tmp_path / "typo").exists()


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("out", ["./store", "other"])
def test_patterns_refuses_to_write_into_a_store(tmp_path, small_repo, capsys,
                                                 monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    for name in ("store", "other"):
        main(["mine", "--repos", listing, "--out", name])
    before = _tree_bytes(tmp_path)
    capsys.readouterr()
    assert main(["patterns", "--store", "store", "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: --out {out} holds a change-graph store\n"
    assert _tree_bytes(tmp_path) == before


def test_patterns_reports_a_pattern_set_given_as_store(tmp_path, small_repo,
                                                        capsys):
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    main(["patterns", "--store", str(tmp_path / "store"),
          "--out", str(tmp_path / "patterns")])
    capsys.readouterr()
    assert main(["patterns", "--store", str(tmp_path / "patterns"),
                 "--out", str(tmp_path / "again")]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: no change-graph store at {tmp_path / 'patterns'}\n"
    assert captured.out == ""
    assert not (tmp_path / "again").exists()


def test_mine_refuses_to_write_into_a_pattern_set(tmp_path, small_repo, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    main(["mine", "--repos", listing, "--out", "store"])
    main(["patterns", "--store", "store", "--out", "patterns"])
    before = _tree_bytes(tmp_path)
    capsys.readouterr()
    assert main(["mine", "--repos", listing, "--out", "patterns"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --out patterns holds a pattern set\n"
    assert captured.out == ""
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("target", ["typo", "store"])
@pytest.mark.parametrize("command", [
    ["report", "--format", "html", "--out", "r"],
    ["report", "--format", "dot", "--out", "r"],
    ["stats"],
])
def test_report_and_stats_refuse_a_path_without_a_pattern_set(
        tmp_path, monkeypatch, capsys, command, target):
    monkeypatch.chdir(tmp_path)
    ChangeGraphStore("store").finalize({}, {})
    before = sorted(tmp_path.rglob("*"))
    assert main([*command, "--patterns", target]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: no pattern set at {target}\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_patterns_prints_summary_line(tmp_path, small_repo, capsys):
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    capsys.readouterr()
    assert main(["patterns", "--store", str(tmp_path / "store"),
                 "--out", str(tmp_path / "patterns"),
                 "--min-freq", "2", "--min-size", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("patterns, 0 samples") or " samples" in out


def test_high_min_freq_gives_zero_patterns(tmp_path, small_repo, capsys):
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    capsys.readouterr()
    assert main(["patterns", "--store", str(tmp_path / "store"),
                 "--out", str(tmp_path / "patterns"),
                 "--min-freq", "100"]) == 0
    assert "0 patterns, 0 samples" in capsys.readouterr().out


def test_report_and_stats_commands(tmp_path, small_repo, capsys):
    listing = write_repos(tmp_path, [f"r1 {small_repo}", ])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    main(["patterns", "--store", str(tmp_path / "store"),
          "--out", str(tmp_path / "patterns"),
          "--min-freq", "2", "--min-size", "2"])
    capsys.readouterr()
    assert main(["report", "--patterns", str(tmp_path / "patterns"),
                 "--format", "html", "--out", str(tmp_path / "html")]) == 0
    assert (tmp_path / "html" / "index.html").exists()
    assert main(["report", "--patterns", str(tmp_path / "patterns"),
                 "--format", "dot", "--out", str(tmp_path / "dot")]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--patterns", str(tmp_path / "patterns"),
              "--format", "text", "--out", str(tmp_path / "text")])
    assert exit_info.value.code == 2
    assert main(["stats", "--patterns", str(tmp_path / "patterns")]) == 0
    assert "patterns:" in capsys.readouterr().out


def test_cross_project_only_drops_single_repo_patterns(tmp_path, capsys):
    repo_a = init_repo(tmp_path / "ra")
    commit_files(repo_a, {"mod.py": COPY_BEFORE}, "initial")
    commit_files(repo_a, {"mod.py": COPY_AFTER}, "deepcopy state")
    repo_b = init_repo(tmp_path / "rb")
    other_before = COPY_BEFORE.replace("snapshot", "remember").replace(
        "state", "config")
    other_after = COPY_AFTER.replace("snapshot", "remember").replace(
        "state", "config")
    commit_files(repo_b, {"mod.py": other_before}, "initial")
    commit_files(repo_b, {"mod.py": other_after}, "deepcopy config")
    listing = write_repos(tmp_path, [f"ra {repo_a}", f"rb {repo_b}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    capsys.readouterr()

    base_args = ["patterns", "--store", str(tmp_path / "store"),
                 "--min-freq", "2", "--min-size", "4"]
    assert main(base_args + ["--out", str(tmp_path / "all")]) == 0
    cross = capsys.readouterr()
    assert main(base_args + ["--out", str(tmp_path / "cross"),
                             "--cross-project-only"]) == 0
    both = capsys.readouterr()
    # both repos exhibit the change, so the cross-project filter keeps it
    assert "0 patterns" not in cross.out
    assert cross.out == both.out

    repo_c = init_repo(tmp_path / "rc")
    commit_files(repo_c, {
        "one.py": "def f(x):\n    return g(x)\n",
        "two.py": "def k(y):\n    return g(y)\n",
    }, "initial")
    commit_files(repo_c, {
        "one.py": "def f(x):\n    return h(x)\n",
        "two.py": "def k(y):\n    return h(y)\n",
    }, "swap helper everywhere")
    listing_c = write_repos(tmp_path, [f"rc {repo_c}"])
    main(["mine", "--repos", listing_c, "--out", str(tmp_path / "store_c")])
    capsys.readouterr()
    single_args = ["patterns", "--store", str(tmp_path / "store_c"),
                   "--min-freq", "2", "--min-size", "2"]
    assert main(single_args + ["--out", str(tmp_path / "c_all")]) == 0
    all_out = capsys.readouterr().out
    assert "0 patterns" not in all_out
    assert main(single_args + ["--out", str(tmp_path / "c_cross"),
                               "--cross-project-only"]) == 0
    assert "0 patterns, 0 samples" in capsys.readouterr().out


def test_config_file_parsed_and_flags_win(tmp_path):
    config = tmp_path / "miner.cfg"
    config.write_text(
        "# thresholds\n"
        "min_freq = 5\n"
        "min_size = 6\n"
        "cross_project_only = true\n")
    values = read_config_file(config)
    assert values == {"min_freq": 5, "min_size": 6, "cross_project_only": True}


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "miner.cfg"
    config.write_text("mystery = 1\n")
    with pytest.raises(ValueError):
        read_config_file(config)


def test_flags_override_config(tmp_path, small_repo, capsys):
    config = tmp_path / "miner.cfg"
    config.write_text("min_freq = 100\n")
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    capsys.readouterr()
    # config alone suppresses everything; the flag brings the threshold back
    assert main(["patterns", "--store", str(tmp_path / "store"),
                 "--out", str(tmp_path / "p1"), "--config", str(config),
                 "--min-freq", "2", "--min-size", "2"]) == 0
    manifest = json.loads((tmp_path / "p1" / "manifest.json").read_text())
    assert manifest["config"]["min_freq"] == 2


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_rerunning_mine_rewrites_the_same_store(tmp_path, small_repo, capsys):
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    store = tmp_path / "store"
    assert main(["mine", "--repos", listing, "--out", str(store)]) == 0
    first = {name: (store / name).read_bytes()
             for name in ("records.jsonl", "manifest.json")}
    assert main(["mine", "--repos", listing, "--out", str(store)]) == 0
    assert "total: 1 change graphs" in capsys.readouterr().out
    for name, content in first.items():
        assert (store / name).read_bytes() == content, name
    assert json.loads(first["manifest.json"])["record_count"] == 1


def test_rerunning_patterns_removes_stale_pattern_dirs(tmp_path, twin_repo,
                                                       capsys):
    listing = write_repos(tmp_path, [f"rc {twin_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    args = ["patterns", "--store", str(tmp_path / "store"),
            "--min-freq", "2", "--min-size", "2"]
    out = tmp_path / "patterns"
    assert main(args + ["--out", str(out), "--keep-subpatterns"]) == 0
    assert len(load_pattern_dir(out)) > 1
    (out / "notes.txt").write_text("kept\n")
    assert main(args + ["--out", str(out)]) == 0
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    capsys.readouterr()

    rerun = _files(out)
    assert rerun.pop("notes.txt") == b"kept\n"
    assert rerun == _files(tmp_path / "fresh")
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(load_pattern_dir(out)) == manifest["pattern_count"] == 1
    assert main(["stats", "--patterns", str(out)]) == 0
    assert "patterns: 1" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("fmt, suffix", [("html", ".html"), ("dot", ".dot")])
def test_rerunning_report_removes_stale_pages(tmp_path, twin_repo, capsys,
                                              fmt, suffix):
    listing = write_repos(tmp_path, [f"rc {twin_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    args = ["patterns", "--store", str(tmp_path / "store"),
            "--min-freq", "2", "--min-size", "2"]
    many, few = tmp_path / "many", tmp_path / "few"
    assert main(args + ["--out", str(many), "--keep-subpatterns"]) == 0
    assert main(args + ["--out", str(few)]) == 0
    pages = tmp_path / "pages"
    report = ["report", "--format", fmt, "--out", str(pages), "--patterns"]
    assert main(report + [str(many)]) == 0
    assert len(list(pages.glob("pattern-*" + suffix))) == len(load_pattern_dir(many)) > 1
    (pages / "notes.txt").write_text("kept\n")
    (pages / "pattern-0009.other").write_text("kept\n")
    assert main(report + [str(few)]) == 0
    capsys.readouterr()

    names = sorted(entry["meta"]["name"] + suffix for entry in load_pattern_dir(few))
    assert len(names) == 1
    assert sorted(p.name for p in pages.glob("pattern-*" + suffix)) == names
    assert (pages / "notes.txt").exists() and (pages / "pattern-0009.other").exists()


@pytest.mark.parametrize("removed, command", [
    ("instances.json", ["stats"]),
    ("instances.json", ["report", "--format", "dot", "--out", "pages"]),
    ("graph.json", ["report", "--format", "html", "--out", "pages"]),
])
def test_each_reader_opens_only_the_files_it_prints(tmp_path, twin_repo, capsys,
                                                    monkeypatch, removed, command):
    monkeypatch.chdir(tmp_path)
    listing = write_repos(tmp_path, [f"rc {twin_repo}"])
    main(["mine", "--repos", listing, "--out", "store"])
    main(["patterns", "--store", "store", "--out", "patterns", "--min-freq", "2",
          "--min-size", "2", "--keep-subpatterns"])
    capsys.readouterr()

    def run() -> tuple[str, dict[str, bytes]]:
        shutil.rmtree("pages", ignore_errors=True)
        assert main([*command, "--patterns", "patterns"]) == 0
        pages = tmp_path / "pages"
        return capsys.readouterr().out, _files(pages) if pages.exists() else {}

    whole = run()
    files = list(Path("patterns").glob("pattern-*/" + removed))
    assert len(files) > 1
    for path in files:
        path.unlink()
    assert run() == whole


def test_config_boolean_typo_exits_one_naming_the_key(tmp_path, small_repo, capsys):
    config = tmp_path / "mine.cfg"
    for text, value in [("On", True), ("YES", True), ("1", True),
                        ("Off", False), ("no", False), ("0", False)]:
        config.write_text(f"skip_merges = {text}\n")
        assert read_config_file(config) == {"skip_merges": value}
    config.write_text("skip_merges = flase\n")
    with pytest.raises(ValueError, match="skip_merges"):
        read_config_file(config)
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    assert main(["mine", "--repos", listing, "--out", str(tmp_path / "store"),
                 "--config", str(config)]) == 1
    assert "skip_merges" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()
    # a job count below one, from a flag or a config file, is refused too
    config.write_text("jobs = -1\n")
    for extra in (["--jobs", "0"], ["--config", str(config)]):
        assert main(["mine", "--repos", listing,
                     "--out", str(tmp_path / "store"), *extra]) == 1
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()


def test_a_flag_overrides_a_true_config_value(tmp_path, twin_repo, capsys):
    listing = write_repos(tmp_path, [f"rc {twin_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    config = tmp_path / "patterns.cfg"
    config.write_text("keep_subpatterns = true\n")
    args = ["patterns", "--store", str(tmp_path / "store"),
            "--min-freq", "2", "--min-size", "2", "--out"]
    assert main(args + [str(tmp_path / "plain")]) == 0
    assert main(args + [str(tmp_path / "kept"), "--config", str(config)]) == 0
    assert main(args + [str(tmp_path / "undone"), "--config", str(config),
                        "--no-keep-subpatterns"]) == 0
    capsys.readouterr()
    assert len(load_pattern_dir(tmp_path / "kept")) > 1
    assert _files(tmp_path / "undone") == _files(tmp_path / "plain")


def test_mine_config_file_reaches_the_commit_filter(tmp_path, twin_repo, capsys):
    config = tmp_path / "mine.cfg"
    config.write_text("max_files_per_commit = 1\nskip_merges = false\n")
    listing = write_repos(tmp_path, [f"rc {twin_repo}"])
    assert main(["mine", "--repos", listing, "--out", str(tmp_path / "store"),
                 "--config", str(config)]) == 0
    # the one change commit touches two files, over the cap of one
    assert "total: 0 change graphs" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    assert manifest["config"] == {"max_files_per_commit": 1,
                                  "skip_merges": False, "path_glob": "**/*.py"}


def test_config_file_rejects_another_commands_keys(tmp_path, small_repo,
                                                   capsys):
    listing = write_repos(tmp_path, [f"r1 {small_repo}"])
    main(["mine", "--repos", listing, "--out", str(tmp_path / "store")])
    capsys.readouterr()
    config = tmp_path / "patterns.cfg"
    config.write_text("min_freq = 2\njobs = 2\n")
    assert main(["patterns", "--store", str(tmp_path / "store"),
                 "--out", str(tmp_path / "patterns"),
                 "--config", str(config)]) == 1
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "patterns").exists()


README = ROOT / "README.md"


def _flags(text: str) -> set[str]:
    return set(re.findall(r"--[a-z][a-z-]*", text))


def _usage_block(section: str, command: str) -> str:
    """README's `changeminer COMMAND` line and the indented lines after it."""
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"changeminer {command} "))
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith(" "):
            break
        block.append(line)
    return "\n".join(block)


def _help(command: str, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def _command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("command", ["mine", "patterns", "report", "stats"])
def test_readme_lists_every_flag(command, capsys):
    printed = _flags(_help(command, capsys))
    section = _command_line_section()
    missing = printed - _flags(section)
    assert not missing, f"README's Command line section lacks {sorted(missing)}"
    stale = _flags(_usage_block(section, command)) - printed
    assert not stale, f"README's {command} usage lists unknown {sorted(stale)}"


def test_readme_shows_every_report_format(capsys):
    choices = re.search(r"--format \{([a-z,]+)\}", _help("report", capsys))[1]
    shown = set(re.findall(r"^changeminer report .*--format ([a-z]+)",
                           _command_line_section(), re.MULTILINE))
    assert shown == set(choices.split(","))


def test_readme_library_use_imports_and_all_resolve():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    missing = [name for name in changeminer.__all__
               if not hasattr(changeminer, name)]
    assert not missing


def test_exports_load_on_first_use_as_the_defining_modules_names():
    assert set(changeminer.__all__) <= set(dir(changeminer))
    for name in changeminer.__all__:
        module = sys.modules[getattr(changeminer, name).__module__]
        assert getattr(module, name) is getattr(changeminer, name)
    assert changeminer.ChangeGraphStore is history.ChangeGraphStore \
        is cli.ChangeGraphStore
    with pytest.raises(AttributeError):
        changeminer.no_such_name


def test_the_version_is_pyprojects():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    [version] = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert changeminer.__version__ == store.TOOL_VERSION == version


@pytest.mark.parametrize("module, name", [(source, "MAX_NESTING"),
                                          (source, "UNPARSE_NESTING"),
                                          (mining, "SEED_WORK_BOUND"),
                                          (mapping, "MIN_HEIGHT")])
def test_readme_states_each_fixed_bound(module, name):
    # README states a bound, thousands spaced, as "250 000 (`SEED_WORK_BOUND`"
    # or as "`MAX_NESTING` (300)".
    text = README.read_text(encoding="utf-8")
    value = r"(\d+(?:\s\d{3})*)"
    stated = {" ".join("".join(match).split()) for match in re.findall(
        value + r"\s+\(`" + name + "`|`" + name + r"`\s+\(" + value + r"\)", text)}
    assert stated == {f"{getattr(module, name):,}".replace(",", " ")}, \
        f"README states {name} as {sorted(stated)}"


def test_readme_names_every_repo_counter():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Output formats", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in REPO_COUNTERS if f"`{name}`" not in section]
    assert not missing, f"README's Output formats section lacks {missing}"


def test_pattern_instances_snapshot_the_store(tmp_path, twin_repo, capsys):
    listing = write_repos(tmp_path, [f"rc {twin_repo}"])
    assert main(["mine", "--repos", listing, "--out", str(tmp_path / "store")]) == 0
    out = tmp_path / "patterns"
    assert main(["patterns", "--store", str(tmp_path / "store"), "--out", str(out),
                 "--min-freq", "2", "--min-size", "2", "--keep-subpatterns"]) == 0
    capsys.readouterr()
    records = {}
    for line in (tmp_path / "store" / "records.jsonl").read_text().splitlines():
        record = json.loads(line)
        records[record["id"]] = record
    entries = load_pattern_dir(out)
    assert len(entries) > 1
    for entry in entries:
        assert entry["meta"]["support"] == len(entry["instances"])
        for instance in entry["instances"]:
            record = records[instance["change_graph_id"]]
            spans = {"Before": [], "After": []}
            for node in record["nodes"]:
                if node["id"] in record["changed"]:
                    spans[node["version"]].append(node["span"])
            assert instance["provenance"] == record["provenance"]
            assert instance["code"] == record["code"]
            assert instance["changed_spans"] == {v: sorted(s) for v, s in spans.items()}
            assert any(instance["changed_spans"].values())

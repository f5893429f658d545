"""Command-line entry points: mine, patterns, report, stats.

Option precedence is flags over config file over built-in defaults. A config
file holds `key = value` lines with '#' comments; keys are the long flag
names with underscores (e.g. ``min_freq = 3``), and `mine` and `patterns`
each accept only their own.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .history import (SCHEMA_VERSION, ChangeGraphStore, CommitFilter,
                      RepoUnavailable, mine_repository, read_repos_file,
                      repo_summary)
from .mining import MiningConfig, load_corpus, mine
from .origins import structural_category
from .report import (export_graph, graph_from_dict, load_pattern_dir,
                     remove_stale, render_html, stats_report,
                     write_pattern_set)

log = logging.getLogger("changeminer")

# The settings of each command that takes --config, with their defaults: the
# fields of the dataclass it builds. A config-file value takes its default's type.
_SETTINGS = {
    "mine": {f.name: f.default for f in fields(CommitFilter)} | {"jobs": 1},
    "patterns": {f.name: f.default for f in fields(MiningConfig)},
}


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _parse_value(default, text: str):
    if isinstance(default, bool):
        value = _BOOLEANS.get(text.lower())
        if value is None:
            raise ValueError(f"not a boolean: {text!r}")
        return value
    return type(default)(text)


def read_config_file(path: str | Path) -> dict:
    """Typed values of a config file; a key no command takes is an error."""
    known = {key: default for settings in _SETTINGS.values()
             for key, default in settings.items()}
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"unknown config key: {key}")
        try:
            values[key] = _parse_value(known[key], value.strip())
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
    return values


def _merged(args: argparse.Namespace) -> dict:
    """The command's settings: flags over config file over defaults."""
    values = dict(_SETTINGS[args.command])
    if args.config:
        config = read_config_file(args.config)
        foreign = sorted(config.keys() - values.keys())
        if foreign:
            raise ValueError(f"config keys not taken by {args.command}: "
                             + ", ".join(foreign))
        values.update(config)
    for key in values:
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = flag_value
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="changeminer",
        description="Mine recurring semantic code-change patterns from the "
                    "git histories of Python projects.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="extract change graphs from repositories")
    p_mine.add_argument("--repos", required=True,
                        help="file of `repo_id url_or_path [domain_tag]` lines")
    p_mine.add_argument("--out", required=True, help="store directory")

    p_pat = sub.add_parser("patterns", help="mine patterns from a change-graph store")
    p_pat.add_argument("--store", required=True)
    p_pat.add_argument("--out", required=True)

    # One flag per setting; None when not given, so _merged can tell.
    for command, p_cmd in (("mine", p_mine), ("patterns", p_pat)):
        for key, default in _SETTINGS[command].items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                action = argparse.BooleanOptionalAction if default else "store_true"
                p_cmd.add_argument(flag, action=action, default=None)
            else:
                p_cmd.add_argument(flag, type=type(default), default=None)
        p_cmd.add_argument("--config", default=None)
        p_cmd.add_argument("-v", "--verbose", action="store_true")

    p_rep = sub.add_parser("report", help="export mined patterns")
    p_rep.add_argument("--patterns", required=True)
    p_rep.add_argument("--format", required=True,
                       choices=["html", "dot", "text"])
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("-v", "--verbose", action="store_true")

    p_stats = sub.add_parser("stats", help="summary tables for mined patterns")
    p_stats.add_argument("--patterns", required=True)
    p_stats.add_argument("-v", "--verbose", action="store_true")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        return {
            "mine": cmd_mine,
            "patterns": cmd_patterns,
            "report": cmd_report,
            "stats": cmd_stats,
        }[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_mine(args: argparse.Namespace) -> int:
    # What mining builds for a commit holds no reference cycle, so reference
    # counting frees it when the commit is done and the cycle collector would
    # only re-scan the live store. Pool workers fork with it off as well.
    # (tests/test_history.py::test_mining_a_commit_leaves_no_cyclic_garbage)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _mine(args)
    finally:
        if enabled:
            gc.enable()


def _mine(args: argparse.Namespace) -> int:
    values = _merged(args)
    jobs = values.pop("jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    filt = CommitFilter(**values)
    try:
        specs = read_repos_file(args.repos)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read repos file: {exc}") from None
    if not specs:
        raise ValueError("repos file lists no repositories")
    if _holds_pattern_set(args.out):
        raise ValueError(f"--out {args.out} holds a pattern set")

    store = ChangeGraphStore(args.out)
    repos_info: dict[str, dict] = {}
    total = 0
    failures = []
    for spec in specs:
        try:
            info = mine_repository(spec, filt, store, jobs)
        except RepoUnavailable as exc:
            failures.append(spec.repo_id)
            log.warning("repository %s unavailable: %s", spec.repo_id, exc)
            repos_info[spec.repo_id] = {**repo_summary(spec), "unavailable": True}
            continue
        repos_info[spec.repo_id] = info
        total += info["graphs"]
        print(f"{spec.repo_id}: {info['graphs']} change graphs")
    store.finalize(asdict(filt), repos_info)
    print(f"total: {total} change graphs from {len(specs) - len(failures)} repositories")
    if failures:
        print("unavailable: " + ", ".join(sorted(failures)), file=sys.stderr)
    return 0


def cmd_patterns(args: argparse.Namespace) -> int:
    cfg = MiningConfig(**_merged(args))
    store = ChangeGraphStore(args.store)
    # A pattern set has a manifest too, but no records.
    if not all((store.root / name).exists()
               for name in (store.RECORDS, store.MANIFEST)):
        raise ValueError(f"no change-graph store at {args.store}")
    if (Path(args.out) / store.RECORDS).exists():
        raise ValueError(f"--out {args.out} holds a change-graph store")
    manifest = store.manifest()
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"store schema version "
                         f"{manifest.get('schema_version')!r} does not match "
                         f"{SCHEMA_VERSION}")

    corpus = load_corpus(store)
    corpus_index = {graph.id: graph for graph in corpus}
    patterns = mine(corpus, cfg)

    repos = manifest.get("repos", {})
    repo_modules = {
        repo_id: set(info.get("project_modules", []))
        for repo_id, info in repos.items()
    }
    for record in patterns.patterns:
        modules: set[str] = set()
        for repo_id in record.project_ids:
            modules |= repo_modules.get(repo_id, set())
        record.category = structural_category(
            record.graph, record.instances, corpus_index,
            frozenset(modules)).value

    write_pattern_set(patterns, args.out, corpus_index, repos, asdict(cfg))
    samples = sum(record.support for record in patterns.patterns)
    print(f"{len(patterns.patterns)} patterns, {samples} samples")
    for warning in patterns.warnings:
        log.warning("%s", warning)
    return 0


def _holds_pattern_set(path: str) -> bool:
    # A change-graph store has a manifest too, and records.
    root = Path(path)
    return ((root / ChangeGraphStore.MANIFEST).exists()
            and not (root / ChangeGraphStore.RECORDS).exists())


def _check_pattern_set(path: str) -> None:
    if not _holds_pattern_set(path):
        raise ValueError(f"no pattern set at {path}")


def cmd_report(args: argparse.Namespace) -> int:
    _check_pattern_set(args.patterns)
    out = Path(args.out)
    if args.format == "html":
        count = render_html(args.patterns, out)
        print(f"wrote {count} pattern pages to {out}")
        return 0
    entries = load_pattern_dir(args.patterns)
    out.mkdir(parents=True, exist_ok=True)
    fmt = "dot" if args.format == "dot" else "structured-text"
    suffix = ".dot" if args.format == "dot" else ".json"
    for entry in entries:
        pattern = graph_from_dict(entry["graph"])
        path = out / (entry["meta"]["name"] + suffix)
        path.write_text(export_graph(pattern, fmt), encoding="utf-8")
    remove_stale(out, {entry["meta"]["name"] for entry in entries}, suffix)
    print(f"wrote {len(entries)} {args.format} files to {out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    _check_pattern_set(args.patterns)
    sys.stdout.write(stats_report(args.patterns))
    return 0


if __name__ == "__main__":
    sys.exit(main())

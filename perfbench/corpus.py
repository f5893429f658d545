"""Replay corpus: real CPython stdlib edits, one module per commit.

Each corpus repository covers one adjacent pair of interpreter versions. Its
base commit holds the drawn modules as the older version wrote them; every
later commit replaces one module with the newer version's text. The repos are
written with ``git fast-import`` under a fixed identity and fixed dates, so
the same draw and the same seed give the same commit hashes.

Two seeds shape a corpus:

* ``corpus_seed`` draws which modules take part. It is fixed per benchmark
  definition, because the amount of work a corpus holds depends strongly on
  which modules are in it.
* ``seed`` (the run seed) orders the replay commits. Hashes, record ids and
  the order of the store all change with it; the amount of work does not.
"""

from __future__ import annotations

import os
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

PYENV = Path.home() / ".pyenv" / "versions"

# repo id -> (older stdlib dir, newer stdlib dir)
DEFAULT_PAIRS = {
    "v310": (PYENV / "3.10.13/lib/python3.10", PYENV / "3.11.7/lib/python3.11"),
    "v311": (PYENV / "3.11.7/lib/python3.11", PYENV / "3.12.1/lib/python3.12"),
    "v312": (PYENV / "3.12.1/lib/python3.12", PYENV / "3.13.0/lib/python3.13"),
}

IDENTITY = "Replay Bench <replay@bench.invalid>"
BASE_EPOCH = 1_600_000_000


class StdlibMissing(Exception):
    """A stdlib directory named for the corpus does not exist."""


@dataclass(frozen=True)
class CorpusSpec:
    pairs: dict          # repo id -> (older dir, newer dir)
    modules: int         # modules drawn per repo
    corpus_seed: int
    seed: int


def git_env(home: Path) -> dict:
    """Environment that keeps git away from any user or system config."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("GIT_")}
    env.update({
        "HOME": str(home),
        "XDG_CONFIG_HOME": str(home / ".config"),
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_CONFIG_GLOBAL": os.devnull,
        "LC_ALL": "C",
    })
    return env


def changed_modules(older: Path, newer: Path) -> list[str]:
    """Top-level modules present in both trees whose text differs."""
    for directory in (older, newer):
        if not directory.is_dir():
            raise StdlibMissing(f"stdlib directory {directory} does not exist")
    names = sorted({p.name for p in older.glob("*.py")}
                   & {p.name for p in newer.glob("*.py")})
    return [name for name in names
            if (older / name).read_bytes() != (newer / name).read_bytes()]


def draw(spec: CorpusSpec, repo_id: str) -> list[str]:
    """Modules of one repo, in replay order."""
    older, newer = spec.pairs[repo_id]
    pool = changed_modules(Path(older), Path(newer))
    chosen = random.Random(f"{spec.corpus_seed}:{repo_id}").sample(
        pool, min(spec.modules, len(pool)))
    chosen.sort()
    random.Random(f"{spec.seed}:{repo_id}").shuffle(chosen)
    return chosen


def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


def _commit(index: int, message: str, files: list[tuple[str, bytes]]) -> bytes:
    # fast-import parents each commit on the branch's current tip.
    when = f"{BASE_EPOCH + 3600 * index} +0000"
    out = [b"commit refs/heads/main\n",
           f"author {IDENTITY} {when}\n".encode(),
           f"committer {IDENTITY} {when}\n".encode(),
           _data(message.encode())]
    for name, text in files:
        out.append(f"M 100644 inline {name}\n".encode())
        out.append(_data(text))
    return b"".join(out)


def build_repo(path: Path, older: Path, newer: Path, modules: list[str],
               env: dict) -> str:
    """Write one replay repository; returns its HEAD hash."""
    path.mkdir(parents=True)
    subprocess.run(["git", "init", "-q", "--bare", "-b", "main", str(path)],
                   check=True, env=env)
    subprocess.run(["git", "-C", str(path), "config", "commit.gpgsign", "false"],
                   check=True, env=env)
    stream = [_commit(0, f"base: {older.name} modules",
                      [(m, (older / m).read_bytes()) for m in modules])]
    for index, module in enumerate(modules, start=1):
        stream.append(_commit(index, f"replay {module}: {older.name} -> {newer.name}",
                              [(module, (newer / module).read_bytes())]))
    subprocess.run(["git", "-C", str(path), "fast-import", "--quiet"],
                   input=b"".join(stream), check=True, env=env)
    head = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          check=True, env=env, capture_output=True, text=True)
    return head.stdout.strip()


def build_corpus(spec: CorpusSpec, root: Path, home: Path) -> dict:
    """Build every repo of the corpus under root and write its repos file.

    Returns {"repos_file", "heads", "modules"}; raises StdlibMissing first,
    before anything is written, when a stdlib directory is absent.
    """
    drawn = {repo_id: draw(spec, repo_id) for repo_id in spec.pairs}
    env = git_env(home)
    root.mkdir(parents=True)
    heads = {}
    lines = []
    for repo_id, modules in drawn.items():
        older, newer = map(Path, spec.pairs[repo_id])
        repo = root / repo_id
        heads[repo_id] = build_repo(repo, older, newer, modules, env)
        lines.append(f"{repo_id} {repo} stdlib\n")
    repos_file = root / "repos.txt"
    repos_file.write_text("".join(lines))
    return {"repos_file": repos_file, "heads": heads, "modules": drawn}

"""Cyclic garbage that mining each commit of a repository leaves behind.

``garbage_per_commit`` runs ``history._commit_job`` on every commit that has
a parent, with the cycle collector off, and after each one records what
``gc.collect()`` finds. It needs no pytest, so another interpreter can run it:

    PYTHONPATH=src python tests/cyclegarbage.py REPO

prints its result as JSON.
"""

from __future__ import annotations

import gc
import json
import sys

from changeminer import history


def garbage_per_commit(repo_path: str) -> dict[str, list[int]]:
    """Objects found in cycles after each commit's job, in both modes.

    ``reader`` runs the jobs through one ``BlobReader``, as a serial ``mine``
    does; ``worker`` runs each without one, so that the job opens its own, as
    a pool worker's does.
    """
    spec = history.RepoSpec(repo_path, "r1")
    filt = history.CommitFilter()
    commits = [c for c in history.list_commits(repo_path) if c.parents]
    found: dict[str, list[int]] = {"reader": [], "worker": []}
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        with history.BlobReader(repo_path) as blobs:
            for commit in commits:
                history._commit_job(spec, commit, filt, blobs)
                found["reader"].append(gc.collect())
        for commit in commits:
            history._commit_job(spec, commit, filt)
            found["worker"].append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    return found


if __name__ == "__main__":
    print(json.dumps(garbage_per_commit(sys.argv[1])))

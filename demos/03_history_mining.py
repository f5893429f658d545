"""Mine change graphs out of a real (scripted) git history.

Creates a throwaway repository with a couple of commits, walks it with the
history miner, and prints what lands in the change-graph store.
"""

import subprocess
import tempfile
from pathlib import Path

from changeminer import ChangeGraphStore, CommitFilter, RepoSpec, mine_repository
from changeminer.store import checked_manifest

workdir = Path(tempfile.mkdtemp(prefix="changeminer-demo-"))
repo = workdir / "project"
repo.mkdir()

env = {"GIT_AUTHOR_NAME": "Demo", "GIT_AUTHOR_EMAIL": "demo@example.com",
       "GIT_COMMITTER_NAME": "Demo", "GIT_COMMITTER_EMAIL": "demo@example.com",
       "HOME": str(workdir)}


def git(*args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, env=env,
                   capture_output=True)


def commit(filename, text, message):
    (repo / filename).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", message)


git("init", "-q")
commit("store.py",
       "def snapshot(state):\n"
       "    saved = state.copy()\n"
       "    return saved\n",
       "initial import")
commit("store.py",
       "import copy\n\n\n"
       "def snapshot(state):\n"
       "    saved = copy.deepcopy(state)\n"
       "    return saved\n",
       "deep-copy the state")
commit("store.py",
       "import copy\n\n\n"
       "# snapshots are cheap\n"
       "def snapshot(state):\n"
       "    saved = copy.deepcopy(state)\n"
       "    return saved\n",
       "add a comment (cosmetic, mines nothing)")

store = ChangeGraphStore(workdir / "store")
info = mine_repository(RepoSpec(str(repo), "demo"), CommitFilter(), store)
store.finalize({"demo": True}, {"demo": info})
print(f"mined {info['graphs']} change graph(s) from {repo}")

for record in store.iter_records():
    prov = record["provenance"]
    print(f"\nrecord {record['id']}")
    print(f"  {prov['repo_id']} @ {prov['commit_hash'][:8]} "
          f"{prov['file_path']} :: {prov['function']}")
    print(f"  nodes={len(record['nodes'])} edges={len(record['edges'])} "
          f"map_edges={len(record['map_edges'])} changed={record['changed']}")
    labels = {n["id"]: n["label"] for n in record["nodes"]}
    for b, a in record["map_edges"]:
        print(f"    {labels[b]} <~~> {labels[a]}")

manifest = checked_manifest(store.root)
print(f"\nmanifest: {manifest['record_count']} records, "
      f"tool {manifest['tool_version']}")
print(f"store kept at {store.root}")

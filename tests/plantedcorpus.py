"""Planted corpora: recurring changes spread over scripted git repositories.

The mini-repo corpus has five recurring changes spread over six repos. Each
planted change has three instances in at least two repositories; every noise
commit is structurally unique so it can never reach the frequency threshold.
Instance surroundings differ on purpose, which pins the maximal shared
pattern to the planted core.

The stdlib corpus plants method renames into real functions of a standard
library tree, one commit per function, so the changes sit in real code.
"""

from __future__ import annotations

import ast
from pathlib import Path

from changeminer.pdg import UnsupportedConstruct, build_fgpdg
from changeminer.source import build_import_table, extract_functions, parse_module

from gitrepos import commit_files, init_repo

REPO_DOMAINS = {
    "alpha": "Web",
    "beta": "Data",
    "gamma": "ML+DL",
    "delta": "Web",
    "epsilon": "Media",
    "zeta": "Data",
}

# name -> (seed call labels, expected category, [(repo, file, before, after)])
PLANTED = {
    "deepcopy": {
        "seed": ("?.copy", "copy.deepcopy"),
        "category": "MOV",
        "instances": [
            ("alpha", "models.py",
             "def snapshot_settings(settings):\n"
             "    backup = settings.copy()\n"
             "    return backup\n",
             "import copy\n\n\n"
             "def snapshot_settings(settings):\n"
             "    backup = copy.deepcopy(settings)\n"
             "    return backup\n"),
            ("beta", "state.py",
             "def remember_state(state, history):\n"
             "    history.append(state)\n"
             "    prev = state.copy()\n"
             "    return prev\n",
             "import copy\n\n\n"
             "def remember_state(state, history):\n"
             "    history.append(state)\n"
             "    prev = copy.deepcopy(state)\n"
             "    return prev\n"),
            ("gamma", "cache.py",
             "def duplicate_entry(entry):\n"
             "    twin = entry.copy()\n"
             "    twin['fresh'] = True\n"
             "    return twin\n",
             "import copy\n\n\n"
             "def duplicate_entry(entry):\n"
             "    twin = copy.deepcopy(entry)\n"
             "    twin['fresh'] = True\n"
             "    return twin\n"),
        ],
    },
    "set_update": {
        "seed": ("?.add", "?.update"),
        "category": "BUILT",
        "instances": [
            ("alpha", "collect.py",
             "def gather(collection):\n"
             "    data = set()\n"
             "    for elem in collection:\n"
             "        data.add(elem)\n"
             "    return data\n",
             "def gather(collection):\n"
             "    data = set()\n"
             "    data.update(collection)\n"
             "    return data\n"),
            ("delta", "unique.py",
             "def unique_tags(tags):\n"
             "    seen = set()\n"
             "    for tag in tags:\n"
             "        seen.add(tag)\n"
             "    return sorted(seen)\n",
             "def unique_tags(tags):\n"
             "    seen = set()\n"
             "    seen.update(tags)\n"
             "    return sorted(seen)\n"),
            ("epsilon", "dedup.py",
             "def merge_ids(ids, extra):\n"
             "    bucket = set()\n"
             "    for item in ids:\n"
             "        bucket.add(item)\n"
             "    bucket.discard(extra)\n"
             "    return bucket\n",
             "def merge_ids(ids, extra):\n"
             "    bucket = set()\n"
             "    bucket.update(ids)\n"
             "    bucket.discard(extra)\n"
             "    return bucket\n"),
        ],
    },
    "exists_isfile": {
        "seed": ("os.path.exists", "os.path.isfile"),
        "category": "STAND",
        "instances": [
            ("beta", "files.py",
             "import os\n\n\n"
             "def read_config(path):\n"
             "    if os.path.exists(path):\n"
             "        return open(path).read()\n"
             "    return ''\n",
             "import os\n\n\n"
             "def read_config(path):\n"
             "    if os.path.isfile(path):\n"
             "        return open(path).read()\n"
             "    return ''\n"),
            ("delta", "paths.py",
             "import os\n\n\n"
             "def resolve_or_none(candidate):\n"
             "    if os.path.exists(candidate):\n"
             "        return candidate\n"
             "    return None\n",
             "import os\n\n\n"
             "def resolve_or_none(candidate):\n"
             "    if os.path.isfile(candidate):\n"
             "        return candidate\n"
             "    return None\n"),
            ("zeta", "loader.py",
             "import os\n\n\n"
             "def has_data(folder, name):\n"
             "    target = os.path.join(folder, name)\n"
             "    if os.path.exists(target):\n"
             "        return True\n"
             "    return False\n",
             "import os\n\n\n"
             "def has_data(folder, name):\n"
             "    target = os.path.join(folder, name)\n"
             "    if os.path.isfile(target):\n"
             "        return True\n"
             "    return False\n"),
        ],
    },
    "random_choice": {
        "seed": ("random.randrange", "random.choice"),
        "category": "STAND",
        "instances": [
            ("gamma", "sampler.py",
             "import random\n\n\n"
             "def pick_one(items):\n"
             "    i = random.randrange(0, len(items))\n"
             "    chosen = items[i]\n"
             "    return chosen\n",
             "import random\n\n\n"
             "def pick_one(items):\n"
             "    chosen = random.choice(items)\n"
             "    return chosen\n"),
            ("epsilon", "shuffle.py",
             "import random\n\n\n"
             "def random_track(playlist, fallback):\n"
             "    if not playlist:\n"
             "        return fallback\n"
             "    index = random.randrange(0, len(playlist))\n"
             "    track = playlist[index]\n"
             "    return track\n",
             "import random\n\n\n"
             "def random_track(playlist, fallback):\n"
             "    if not playlist:\n"
             "        return fallback\n"
             "    track = random.choice(playlist)\n"
             "    return track\n"),
            ("zeta", "rows.py",
             "import random\n\n\n"
             "def sample_row(rows):\n"
             "    position = random.randrange(0, len(rows))\n"
             "    row = rows[position]\n"
             "    return row\n",
             "import random\n\n\n"
             "def sample_row(rows):\n"
             "    row = random.choice(rows)\n"
             "    return row\n"),
        ],
    },
    "assert_alias": {
        "seed": ("?.assertNotEquals", "?.assertNotEqual"),
        "category": "STAND",
        "instances": [
            ("alpha", "tests_util.py",
             "class OutputChecks:\n"
             "    def check_distinct(self, left, right):\n"
             "        self.assertNotEquals(left, right)\n"
             "        return True\n",
             "class OutputChecks:\n"
             "    def check_distinct(self, left, right):\n"
             "        self.assertNotEqual(left, right)\n"
             "        return True\n"),
            ("gamma", "verify.py",
             "class ModelChecks:\n"
             "    def ensure_changed(self, before, after, label):\n"
             "        self.assertNotEquals(before, after)\n"
             "        self.record(label)\n",
             "class ModelChecks:\n"
             "    def ensure_changed(self, before, after, label):\n"
             "        self.assertNotEqual(before, after)\n"
             "        self.record(label)\n"),
            ("zeta", "suite.py",
             "class TableChecks:\n"
             "    def compare_rows(self, row_a, row_b):\n"
             "        self.assertNotEquals(row_a, row_b)\n",
             "class TableChecks:\n"
             "    def compare_rows(self, row_a, row_b):\n"
             "        self.assertNotEqual(row_a, row_b)\n"),
        ],
    },
}

_BASE_MODULES = {
    "alpha": "def scale(value):\n    return value * 10\n",
    "beta": "def shift(n):\n    return n + 1\n",
    "gamma": "def greet(name):\n    return 'hi ' + name\n",
    "delta": "def clamp(x):\n    return min(x, 100)\n",
    "epsilon": "def half(x):\n    return x / 2\n",
    "zeta": "def flag(b):\n    return b == True\n",
}

_UNIQUE_EDITS = {
    "alpha": "def scale(value):\n    return value * 20\n",
    "beta": "def shift(n):\n    return n - 1\n",
    "gamma": "def greet(name):\n    return 'hello ' + name\n",
    "delta": "def clamp(x):\n    return min(x, 50)\n",
    "epsilon": "def half(x):\n    return x / 4\n",
    "zeta": "def flag(b):\n    return b is True\n",
}


def build_planted_corpus(root: Path) -> tuple[Path, int]:
    """Create the six repos plus a repos list file; returns (listing, noise count)."""
    root.mkdir(parents=True, exist_ok=True)
    noise_commits = 0
    instances_by_repo: dict[str, list] = {name: [] for name in REPO_DOMAINS}
    for planted in PLANTED.values():
        for repo, filename, before, after in planted["instances"]:
            instances_by_repo[repo].append((filename, before, after))

    for repo_name, domain in REPO_DOMAINS.items():
        repo = init_repo(root / repo_name)
        base = _BASE_MODULES[repo_name]
        files = {"README.md": f"{repo_name} ({domain}) test project\n",
                 "base.py": base}
        for filename, before, _ in instances_by_repo[repo_name]:
            files[filename] = before
        commit_files(repo, files, "initial import")

        commit_files(repo, {"base.py": "# helper module\n" + base},
                     "document base module")
        noise_commits += 1

        for filename, _, after in instances_by_repo[repo_name]:
            commit_files(repo, {filename: after}, f"update {filename}")

        spaced = base.replace("    return", "\n    return")
        commit_files(repo, {"base.py": "# helper module\n" + spaced},
                     "reformat base module")
        noise_commits += 1
        commit_files(repo, {"base.py": "# helper module\n" +
                            _UNIQUE_EDITS[repo_name]},
                     "tweak base behaviour")
        noise_commits += 1
        commit_files(repo, {f"extra_{repo_name}.py":
                            f"VALUE_{repo_name.upper()} = 1\n"},
                     "add constants module")
        noise_commits += 1

    listing = root / "repos.txt"
    listing.write_text(
        "# planted corpus\n" +
        "".join(f"{name} {root / name} {domain}\n"
                for name, domain in REPO_DOMAINS.items()))
    return listing, noise_commits


# Method renames planted into stdlib functions, each in STDLIB_PER_REPO
# functions of each of STDLIB_REPOS.
STDLIB_RENAMES = (("startswith", "endswith"), ("lower", "upper"))
STDLIB_REPOS = ("s1", "s2", "s3")
STDLIB_PER_REPO = 6


def _own_method_calls(def_node: ast.AST, method: str) -> list[ast.Attribute]:
    """``.method`` callees in a def's body, outside nested defs, classes and lambdas."""
    found = []
    stack = list(def_node.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == method):
            found.append(node.func)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda func: (func.end_lineno, func.end_col_offset))


def _renamed(text: str, func: ast.Attribute, new: str) -> str:
    """``text`` with the attribute name that ends ``func`` replaced by ``new``."""
    lines = text.encode("utf-8").splitlines(keepends=True)
    line = lines[func.end_lineno - 1]
    start = func.end_col_offset - len(func.attr)  # ast columns are UTF-8 bytes
    lines[func.end_lineno - 1] = line[:start] + new.encode() + line[func.end_col_offset:]
    return b"".join(lines).decode("utf-8")


def _planted_edit(path: Path, old: str, new: str) -> tuple[str, str] | None:
    """(function, renamed text) for the first function of a file that calls
    ``.old(`` in its own code and that the graph builder accepts."""
    text = path.read_text(encoding="utf-8")
    module = parse_module(text)
    imports = build_import_table(module)
    for unit in extract_functions(module, path.stem):
        calls = _own_method_calls(unit.node, old)
        if not calls:
            continue
        try:
            build_fgpdg(unit, imports)
        except UnsupportedConstruct:
            continue
        return unit.qualified_name, _renamed(text, calls[0], new)
    return None


def build_stdlib_renames(root: Path, stdlib: Path) -> tuple[Path, dict]:
    """Plant STDLIB_RENAMES into the top-level modules of a stdlib tree.

    Files are read in sorted order and none is used twice; each file gives
    the first function that can carry the first rename still short of
    functions. Rename i's j-th function goes to repository j % 3, as a base
    commit of the file followed by one commit that renames the first call.
    Returns the repos listing and, per rename, the planted (repo, file,
    function) triples; a rename may get fewer functions than asked for.
    """
    wanted = STDLIB_PER_REPO * len(STDLIB_REPOS)
    picked: dict[tuple[str, str], list] = {rename: [] for rename in STDLIB_RENAMES}
    for path in sorted(stdlib.glob("*.py")):
        for rename in STDLIB_RENAMES:
            if len(picked[rename]) == wanted:
                continue
            edit = _planted_edit(path, *rename)
            if edit is not None:
                picked[rename].append((path, *edit))
                break

    root.mkdir(parents=True, exist_ok=True)
    planted: dict[tuple[str, str], set] = {rename: set() for rename in STDLIB_RENAMES}
    for number, repo_name in enumerate(STDLIB_REPOS):
        repo = init_repo(root / repo_name)
        edits = [(rename, *edit) for rename in STDLIB_RENAMES
                 for edit in picked[rename][number::len(STDLIB_REPOS)]]
        commit_files(repo, {path.name: path.read_text(encoding="utf-8")
                            for _, path, _, _ in edits}, "import stdlib modules")
        for rename, path, function, renamed in edits:
            commit_files(repo, {path.name: renamed},
                         f"{function}: {rename[0]} -> {rename[1]}")
            planted[rename].add((repo_name, path.name, function))

    listing = root / "repos.txt"
    listing.write_text("".join(f"{name} {root / name}\n" for name in STDLIB_REPOS))
    return listing, planted

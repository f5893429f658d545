"""Output checks written against the on-disk formats, not the program's code.

Nothing here imports ``changeminer``: the store, the pattern directory and the
HTML report are read as plain JSON and HTML files, and every property is
re-derived from them. Each check returns a list of problem strings; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

STORE_SCHEMA_VERSION = 1


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    root = Path(root)
    if root.is_file():
        digest.update(root.read_bytes())
        return digest.hexdigest()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def load_records(store: Path) -> list[dict]:
    with open(Path(store) / "records.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _store_order(record: dict) -> tuple:
    prov = record["provenance"]
    return (prov["repo_id"], prov["commit_hash"], prov["file_path"],
            prov["function"])


def check_store(store: Path, records: list[dict]) -> list[str]:
    """Schema version, id uniqueness and order, changed sets, map edges."""
    problems = []
    manifest = json.loads((Path(store) / "manifest.json").read_text())
    if manifest.get("schema_version") != STORE_SCHEMA_VERSION:
        problems.append(f"store schema_version {manifest.get('schema_version')!r}"
                        f" != {STORE_SCHEMA_VERSION}")
    if manifest.get("record_count") != len(records):
        problems.append(f"manifest record_count {manifest.get('record_count')}"
                        f" != {len(records)} records")
    ids = [record["id"] for record in records]
    if len(set(ids)) != len(ids):
        problems.append("record ids are not unique")
    keys = [_store_order(record) for record in records]
    if keys != sorted(keys):
        problems.append("records are not sorted by (repo, commit, file, function)")
    for record in records:
        version = {node["id"]: node["version"] for node in record["nodes"]}
        if not record["changed"]:
            problems.append(f"{record['id']}: empty changed set")
        if not set(record["changed"]) <= set(version):
            problems.append(f"{record['id']}: changed id outside the node set")
        for before, after in record["map_edges"]:
            if version.get(before) != "Before" or version.get(after) != "After":
                problems.append(f"{record['id']}: map edge {before}->{after} "
                                "does not join Before to After")
                break
    return problems


class _StoreGraph:
    """Node labels, edge set and map-edge set of one store record."""

    def __init__(self, record: dict):
        self.repo_id = record["provenance"]["repo_id"]
        self.labels = {node["id"]: (node["version"], node["kind"],
                                    node["subkind"], node["label"])
                       for node in record["nodes"]}
        self.edges = {(e["src"], e["dst"], e["kind"], e["label"])
                      for e in record["edges"]}
        self.maps = {tuple(pair) for pair in record["map_edges"]}
        self.changed = set(record["changed"])


def embedding_problem(graph_json: dict, store_graph: _StoreGraph,
                      binding: list[int]) -> str | None:
    """Why a binding is not an injective, label-preserving embedding, or None."""
    nodes = sorted(graph_json["nodes"], key=lambda n: n["id"])
    if len(binding) != len(nodes):
        return f"binds {len(binding)} nodes, template has {len(nodes)}"
    if len(set(binding)) != len(binding):
        return "binding is not injective"
    for node, concrete in zip(nodes, binding):
        label = (node["version"], node["kind"], node["subkind"], node["label"])
        if store_graph.labels.get(concrete) != label:
            return f"template node {node['id']} -> {concrete} changes its label"
    for edge in graph_json["edges"]:
        image = (binding[edge["src"]], binding[edge["dst"]], edge["kind"],
                 edge["label"])
        if image not in store_graph.edges:
            return f"edge {edge['src']}->{edge['dst']} has no image"
    for before, after in graph_json["map_edges"]:
        if (binding[before], binding[after]) not in store_graph.maps:
            return f"map edge {before}->{after} has no image"
    return None


def check_patterns(pattern_dir: Path, records: list[dict], *, min_size: int,
                   min_freq: int, max_size: int,
                   cross_project_only: bool) -> list[str]:
    """Support, size, universal change, project span and every embedding."""
    problems = []
    graphs = {record["id"]: _StoreGraph(record) for record in records}
    manifest = json.loads((Path(pattern_dir) / "manifest.json").read_text())
    pattern_dirs = sorted(p for p in Path(pattern_dir).iterdir() if p.is_dir())
    if manifest.get("pattern_count") != len(pattern_dirs):
        problems.append(f"manifest pattern_count {manifest.get('pattern_count')}"
                        f" != {len(pattern_dirs)} pattern directories")
    for warning in manifest.get("warnings", []):
        if "budget exceeded" in warning:
            problems.append(f"search truncated: {warning}")
    for pdir in pattern_dirs:
        name = pdir.name
        meta = json.loads((pdir / "meta.json").read_text())
        graph_json = json.loads((pdir / "graph.json").read_text())
        instances = json.loads((pdir / "instances.json").read_text())
        size = len(graph_json["nodes"])
        if meta["size"] != size or not min_size <= size <= max_size:
            problems.append(f"{name}: size {size} (meta {meta['size']}) outside "
                            f"[{min_size}, {max_size}]")
        if meta["support"] < min_freq or meta["support"] != len(instances):
            problems.append(f"{name}: support {meta['support']} with "
                            f"{len(instances)} instances, min_freq {min_freq}")
        bindings = []
        for instance in instances:
            gid = instance["change_graph_id"]
            binding = [instance["binding"][str(i)] for i in range(len(instance["binding"]))]
            store_graph = graphs.get(gid)
            if store_graph is None:
                problems.append(f"{name}: instance graph {gid} not in store")
                continue
            problem = embedding_problem(graph_json, store_graph, binding)
            if problem:
                problems.append(f"{name}: instance in {gid}: {problem}")
            bindings.append((store_graph, binding))
        if bindings and not any(
                all(binding[idx] in store_graph.changed
                    for store_graph, binding in bindings)
                for idx in range(size)):
            problems.append(f"{name}: no template node is changed in every instance")
        repos = {store_graph.repo_id for store_graph, _ in bindings}
        if sorted(repos) != sorted(meta["project_ids"]):
            problems.append(f"{name}: project_ids {meta['project_ids']} but "
                            f"instances span {sorted(repos)}")
        if cross_project_only and len(repos) < 2:
            problems.append(f"{name}: spans {len(repos)} project(s), needs 2")
    return problems


def check_html(html_dir: Path, pattern_dir: Path) -> list[str]:
    """One page per pattern plus an index that links every page."""
    problems = []
    names = sorted(p.name for p in Path(pattern_dir).iterdir() if p.is_dir())
    index = Path(html_dir) / "index.html"
    if not index.is_file():
        return ["html: index.html missing"]
    index_text = index.read_text(encoding="utf-8")
    pages = sorted(p.stem for p in Path(html_dir).glob("*.html") if p.name != "index.html")
    if pages != names:
        problems.append(f"html: {len(pages)} pages for {len(names)} patterns")
    missing = [name for name in names if f'href="{name}.html"' not in index_text]
    if missing:
        problems.append(f"html: index does not link {len(missing)} pages")
    return problems

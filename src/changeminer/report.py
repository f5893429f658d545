"""The pattern-set format: persistence, graph exports, HTML sample views, statistics.

A pattern set holds a ``manifest.json`` and one ``pattern-NNNN`` directory per
pattern with ``meta.json``, ``graph.json`` and ``instances.json``; each reader
opens only the files it prints. All output is byte-stable for a given input:
collections are sorted before emission and nothing records wall-clock time.
"""

from __future__ import annotations

import html
import json
import re
import shutil
from collections import Counter
from pathlib import Path

from .mining import CorpusGraph, PatternGraph, PatternRecord, PatternSet, TNode
from .store import SCHEMA_VERSION, TOOL_VERSION, holds_store

_NODE_SHAPES = {"Data": "ellipse", "Operation": "box", "Control": "diamond"}


# ---------------------------------------------------------------------------
# Pattern directory layout
# ---------------------------------------------------------------------------


def pattern_dir_name(index: int) -> str:
    return f"pattern-{index + 1:04d}"


def graph_to_dict(pattern: PatternGraph) -> dict:
    return {
        "nodes": [
            {
                "id": i, "kind": node.kind, "subkind": node.subkind,
                "label": node.label, "version": node.version, "span": None,
            }
            for i, node in enumerate(pattern.nodes)
        ],
        "edges": [
            {"src": src, "dst": dst, "kind": kind, "label": label}
            for src, dst, kind, label in sorted(pattern.edges)
        ],
        "map_edges": [list(pair) for pair in sorted(pattern.map_edges)],
    }


def graph_from_dict(data: dict) -> PatternGraph:
    nodes = tuple(
        TNode(node["version"], node["kind"], node["subkind"], node["label"])
        for node in sorted(data["nodes"], key=lambda n: n["id"])
    )
    edges = frozenset(
        (edge["src"], edge["dst"], edge["kind"], edge["label"])
        for edge in data["edges"]
    )
    map_edges = frozenset((b, a) for b, a in data["map_edges"])
    return PatternGraph(nodes, edges, map_edges)


def _call_pair_labels(pattern: PatternGraph) -> list[list[str]]:
    return [[pattern.nodes[b].label, pattern.nodes[a].label]
            for b, a in pattern.call_pairs()]


def write_pattern_set(patterns: PatternSet, out_dir: str | Path,
                      corpus_index: dict[str, CorpusGraph], repos: dict,
                      config: dict) -> None:
    """Persist meta/graph/instance files per pattern plus a run manifest.

    Instance records snapshot provenance, sample code and changed spans out
    of the corpus, so reports can be rendered later from the pattern
    directory alone. ``repos`` is the store manifest's per-repository info.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for index, record in enumerate(patterns.patterns):
        pdir = out / pattern_dir_name(index)
        pdir.mkdir(parents=True, exist_ok=True)
        meta = {
            "name": pattern_dir_name(index),
            "canonical_key": record.canonical_key,
            "support": record.support,
            "size": record.size,
            "project_ids": record.project_ids,
            "category": record.category,
            "category_note": "heuristic approximation from callee origins",
            "cross_project": len(record.project_ids) >= 2,
            "call_pairs": _call_pair_labels(record.graph),
        }
        _dump(pdir / "meta.json", meta)
        _dump(pdir / "graph.json", graph_to_dict(record.graph))
        instances = []
        for gid, binding in record.instances:
            graph = corpus_index.get(gid)
            entry: dict = {
                "change_graph_id": gid,
                "binding": {str(i): concrete for i, concrete in enumerate(binding)},
            }
            if graph is not None:
                entry["provenance"] = graph.provenance
                entry["code"] = graph.code
                entry["changed_spans"] = graph.changed_spans
            instances.append(entry)
        _dump(pdir / "instances.json", instances)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "config": config,
        "pattern_count": len(patterns.patterns),
        "sample_count": sum(r.support for r in patterns.patterns),
        "warnings": sorted(patterns.warnings),
        "repos": repos,
    }
    _dump(out / "manifest.json", manifest)
    _remove_stale(out, {pattern_dir_name(i) for i in range(len(patterns.patterns))})


def holds_pattern_set(path: str | Path) -> bool:
    """Whether ``path`` holds a pattern set; a store has a manifest too, and records."""
    return (Path(path) / "manifest.json").exists() and not holds_store(path)


def _remove_stale(out: Path, names: set[str], suffix: str = "") -> None:
    """Remove each ``pattern-NNNN<suffix>`` entry of ``out`` not in ``names``.

    An earlier run into the same directory may have written more patterns;
    every other file stays.
    """
    for path in out.iterdir():
        match = re.fullmatch(r"(pattern-\d+)" + re.escape(suffix), path.name)
        if not match or match[1] in names:
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def _dump(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_pattern_dir(patterns_dir: str | Path) -> list[dict]:
    """All persisted patterns as {meta, graph, instances} dicts, sorted by name."""
    return _read_patterns(patterns_dir, "meta", "graph", "instances")


def _read_patterns(patterns_dir: str | Path, *names: str) -> list[dict]:
    """Each pattern's ``<name>.json`` files as {name: content}, sorted by pattern."""
    out = []
    root = Path(patterns_dir)
    if not root.exists():
        return out
    for pdir in sorted(root.iterdir()):
        if (pdir / "meta.json").exists():
            out.append({name: json.loads((pdir / f"{name}.json").read_text())
                        for name in names})
    return out


def _write_pages(entries: list[dict], out_dir: str | Path, suffix: str,
                 render) -> Path:
    """Write each pattern's page, then remove the pages of patterns not there."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        path = out / (entry["meta"]["name"] + suffix)
        path.write_text(render(entry), encoding="utf-8")
    _remove_stale(out, {entry["meta"]["name"] for entry in entries}, suffix)
    return out


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------


def export_graph(pattern: PatternGraph) -> str:
    """Render one template as Graphviz DOT: before and after clusters, mapping
    edges dashed."""
    lines = ["digraph pattern {", "  rankdir=LR;",
             '  node [fontname="monospace"];']
    for version, cluster in (("Before", "cluster_before"),
                             ("After", "cluster_after")):
        lines.append(f"  subgraph {cluster} {{")
        lines.append(f'    label="{version.lower()}";')
        for i, node in enumerate(pattern.nodes):
            if node.version != version:
                continue
            shape = _NODE_SHAPES.get(node.kind, "ellipse")
            label = node.label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'    n{i} [label="{label}", shape={shape}];')
        lines.append("  }")
    for src, dst, _, label in sorted(pattern.edges):
        lines.append(f'  n{src} -> n{dst} [label="{label}"];')
    for b, a in sorted(pattern.map_edges):
        lines.append(f"  n{b} -> n{a} [style=dashed, arrowhead=none, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_dot(patterns_dir: str | Path, out_dir: str | Path) -> int:
    """Write one DOT file per pattern; returns the file count."""
    entries = _read_patterns(patterns_dir, "meta", "graph")
    _write_pages(entries, out_dir, ".dot",
                 lambda entry: export_graph(graph_from_dict(entry["graph"])))
    return len(entries)


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_PAGE_STYLE = """
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 4px 10px; text-align: left; }
pre { background: #f6f6f6; padding: 8px; overflow-x: auto; }
mark { background: #ffe08a; }
.sample { border: 1px solid #ccc; margin: 1em 0; padding: 0 1em 1em; }
.provenance { color: #444; font-size: 90%; }
.placeholder { color: #a00; font-style: italic; }
.columns { display: flex; gap: 1em; }
.columns > div { flex: 1; min-width: 0; }
""".strip()


def _page(title: str, body: str) -> str:
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>{title}</title>
<style>{_PAGE_STYLE}</style></head>
<body>
{body}</body></html>
"""


def _highlight(code: dict, spans: list) -> str:
    """HTML for a code block with file-coordinate spans wrapped in <mark>.

    A span's columns count UTF-8 bytes of its line, as ``ast`` does.
    """
    text = code.get("text", "")
    start_line = code.get("start_line", 1)
    lines = text.split("\n")
    offsets = []
    total = 0
    for line in lines:
        offsets.append(total)
        total += len(line) + 1

    def to_offset(line: int, col: int) -> int | None:
        idx = line - start_line
        if idx < 0 or idx >= len(lines):
            return None
        prefix = lines[idx].encode("utf-8")[:col].decode("utf-8", errors="ignore")
        return offsets[idx] + len(prefix)

    intervals = []
    for s_line, s_col, e_line, e_col in spans:
        lo = to_offset(s_line, s_col)
        hi = to_offset(e_line, e_col)
        if lo is not None and hi is not None and hi > lo:
            intervals.append((lo, hi))
    intervals.sort()
    merged: list[list[int]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])

    parts = []
    cursor = 0
    for lo, hi in merged:
        parts.append(html.escape(text[cursor:lo]))
        parts.append("<mark>" + html.escape(text[lo:hi]) + "</mark>")
        cursor = hi
    parts.append(html.escape(text[cursor:]))
    return "<pre>" + "".join(parts) + "</pre>"


def render_pattern_page(entry: dict) -> str:
    meta = entry["meta"]
    blocks = []
    for instance in entry["instances"]:
        if "provenance" not in instance:
            blocks.append(
                '<div class="sample"><p class="placeholder">change graph '
                f'{html.escape(instance["change_graph_id"])} not found in store'
                "</p></div>")
            continue
        prov = instance["provenance"]
        code = instance.get("code", {})
        spans = instance.get("changed_spans", {})
        provline = (
            f'{html.escape(prov["repo_id"])} @ {html.escape(prov["commit_hash"][:8])} '
            f'&middot; {html.escape(prov["file_path"])} '
            f'&middot; {html.escape(prov["function"])}')
        blocks.append(
            '<div class="sample">'
            f'<p class="provenance">{provline}</p>'
            '<div class="columns">'
            f'<div><h4>before</h4>{_highlight(code.get("Before", {}), spans.get("Before", []))}</div>'
            f'<div><h4>after</h4>{_highlight(code.get("After", {}), spans.get("After", []))}</div>'
            "</div></div>")
    pairs = ", ".join(
        f'{html.escape(b)} &rarr; {html.escape(a)}' for b, a in meta.get("call_pairs", []))
    return _page(meta["name"], f"""<p><a href="index.html">&larr; index</a></p>
<h1>{meta["name"]}</h1>
<p>calls: {pairs}</p>
<p>support {meta["support"]} &middot; size {meta["size"]} &middot;
category {html.escape(meta["category"] or "?")} (heuristic) &middot;
projects: {html.escape(", ".join(meta["project_ids"]))}</p>
{"".join(blocks)}
""")


def render_index_page(entries: list[dict]) -> str:
    rows = []
    for entry in entries:
        meta = entry["meta"]
        pairs = "; ".join(f"{b} &rarr; {a}"
                          for b, a in meta.get("call_pairs", []))
        rows.append(
            "<tr>"
            f'<td><a href="{meta["name"]}.html">{meta["name"]}</a></td>'
            f'<td>{pairs}</td><td>{meta["support"]}</td><td>{meta["size"]}</td>'
            f'<td>{html.escape(meta["category"] or "?")}</td>'
            f'<td>{html.escape(", ".join(meta["project_ids"]))}</td>'
            "</tr>")
    return _page("change patterns", f"""<h1>Change patterns</h1>
<p>{len(entries)} patterns, sorted by support. Categories are heuristic
approximations from callee origins.</p>
<table>
<tr><th>pattern</th><th>calls</th><th>support</th><th>size</th>
<th>category</th><th>projects</th></tr>
{"".join(rows)}
</table>
""")


def render_html(patterns_dir: str | Path, out_dir: str | Path) -> int:
    """Write one page per pattern plus an index; returns the page count."""
    entries = _read_patterns(patterns_dir, "meta", "instances")
    entries.sort(key=lambda e: (-e["meta"]["support"], -e["meta"]["size"],
                                e["meta"]["canonical_key"]))
    out = _write_pages(entries, out_dir, ".html", render_pattern_page)
    (out / "index.html").write_text(render_index_page(entries), encoding="utf-8")
    return len(entries)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def stats_report(patterns_dir: str | Path) -> str:
    metas = [entry["meta"] for entry in _read_patterns(patterns_dir, "meta")]
    manifest_path = Path(patterns_dir) / "manifest.json"
    repos = {}
    if manifest_path.exists():
        repos = json.loads(manifest_path.read_text()).get("repos", {})
    domain_of = {repo_id: info.get("domain_tag", "") or ""
                 for repo_id, info in repos.items()}
    # Both project spans get a row, even at 0.
    cross = Counter({"cross-project": 0, "single-project": 0})
    cross.update("cross-project" if meta["cross_project"] else "single-project"
                 for meta in metas)
    tables = {
        "by size": Counter(meta["size"] for meta in metas),
        "by support": Counter(meta["support"] for meta in metas),
        "by category (heuristic)": Counter(meta["category"] or "UNKNOWN"
                                           for meta in metas),
        "by domain": Counter(domain for meta in metas for domain in
                             {domain_of.get(pid, "") for pid in meta["project_ids"]}
                             if domain),
        "by project span": cross,
    }
    sections = [f"patterns: {len(metas)}",
                f"samples: {sum(meta['support'] for meta in metas)}"]
    sections += [_table(title, sorted(counts.items()))
                 for title, counts in tables.items()]
    return "\n".join(sections) + "\n"


def _table(title: str, rows: list[tuple]) -> str:
    lines = [f"\n{title}:"]
    if not rows:
        lines.append("  (none)")
    for key, value in rows:
        lines.append(f"  {key:<24} {value}")
    return "\n".join(lines)

"""Changed-node detection and assembly of united before/after change graphs.

A change graph is built as its store record: the dict that one line of
``records.jsonl`` holds (see the README's "Output formats"), which ``mine``
writes and ``patterns`` reads back.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from .pdg import FgNode, Fgpdg

BEFORE, AFTER = "Before", "After"

# A fixed salt keeps author hashes stable across re-runs while never
# persisting the raw address.
EMAIL_SALT = "changeminer.v1"


def hash_email(email: str) -> str:
    return hashlib.sha256((EMAIL_SALT + ":" + email).encode()).hexdigest()[:16]


@dataclass
class Provenance:
    repo_id: str
    commit_hash: str
    parent_hash: str
    file_path: str
    function: str
    author_email_hash: str
    commit_message: str


def mark_changed(g_b: Fgpdg, g_a: Fgpdg,
                 node_mapping: list[tuple[FgNode, FgNode]]) -> tuple[set[int], set[int]]:
    """Changed node ids per version.

    A node is changed when it is unmapped, when its label differs from its
    counterpart's, or when the multiset of its incident (edge kind, edge
    label, neighbour label) triples differs across versions.
    """
    mapped_b = {b.id: a for b, a in node_mapping}
    mapped_a = {a.id: b for b, a in node_mapping}
    env_b = _edge_environments(g_b)
    env_a = _edge_environments(g_a)

    changed_b: set[int] = set()
    changed_a: set[int] = set()
    for node in g_b.nodes:
        counterpart = mapped_b.get(node.id)
        if counterpart is None or node.label != counterpart.label \
                or env_b[node.id] != env_a[counterpart.id]:
            changed_b.add(node.id)
            if counterpart is not None:
                changed_a.add(counterpart.id)
    for node in g_a.nodes:
        if node.id not in mapped_a:
            changed_a.add(node.id)
    return changed_b, changed_a


def _edge_environments(graph: Fgpdg) -> dict[int, tuple]:
    env: dict[int, list] = {node.id: [] for node in graph.nodes}
    for edge in graph.edges:
        env[edge.src].append((edge.kind, edge.label, graph.nodes[edge.dst].label))
        env[edge.dst].append((edge.kind, edge.label, graph.nodes[edge.src].label))
    return {nid: tuple(sorted(triples)) for nid, triples in env.items()}


def build_change_graph(g_b: Fgpdg, g_a: Fgpdg,
                       node_mapping: list[tuple[FgNode, FgNode]],
                       prov: Provenance) -> dict | None:
    """The store record of the united change graph, or None when nothing changed.

    Keeps every changed node plus the mapped unchanged nodes one edge away
    from a changed node in their own version, then adds map edges for all
    retained mapped pairs. The record's ``code`` is empty, for the caller.
    """
    changed_b, changed_a = mark_changed(g_b, g_a, node_mapping)
    if not changed_b and not changed_a:
        return None

    nodes: list[dict] = []
    edges: list[tuple[int, int, str, str]] = []
    remaps: list[dict[int, int]] = []
    for graph, changed, mapped, version in (
            (g_b, changed_b, {b.id for b, _ in node_mapping}, BEFORE),
            (g_a, changed_a, {a.id for _, a in node_mapping}, AFTER)):
        keep = _context(graph, changed, mapped)
        remap: dict[int, int] = {}
        for node in graph.nodes:
            if node.id in keep:
                remap[node.id] = len(nodes)
                nodes.append({
                    "id": len(nodes), "kind": node.kind,
                    "subkind": node.subkind, "label": node.label,
                    "concrete_name": node.concrete_name, "version": version,
                    "span": list(node.span),
                })
        edges += [(remap[e.src], remap[e.dst], e.kind, e.label)
                  for e in graph.edges if e.src in keep and e.dst in keep]
        remaps.append(remap)
    remap_b, remap_a = remaps
    edges.sort()

    map_edges = sorted(
        [remap_b[b.id], remap_a[a.id]]
        for b, a in node_mapping
        if b.id in remap_b and a.id in remap_a
    )
    changed = {remap_b[i] for i in changed_b} | {remap_a[i] for i in changed_a}
    return {
        "id": "cg-" + _stable_hash(prov.repo_id, prov.commit_hash,
                                   prov.file_path, prov.function),
        "provenance": asdict(prov),
        "nodes": nodes,
        "edges": [{"src": src, "dst": dst, "kind": kind, "label": label}
                  for src, dst, kind, label in edges],
        "map_edges": map_edges,
        "changed": sorted(changed),
        "code": {},
    }


def _stable_hash(*parts: str) -> str:
    return hashlib.sha1("\x00".join(parts).encode()).hexdigest()[:16]


def _context(graph: Fgpdg, changed: set[int], mapped: set[int]) -> set[int]:
    keep = set(changed)
    for edge in graph.edges:
        if edge.src in changed and edge.dst in mapped:
            keep.add(edge.dst)
        if edge.dst in changed and edge.src in mapped:
            keep.add(edge.src)
    return keep

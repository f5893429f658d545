"""Changed-node detection and assembly of united before/after change graphs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .pdg import FgEdge, FgNode, Fgpdg

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


@dataclass
class ChangeGraph:
    """Union of two graph revisions plus map edges between corresponding nodes."""

    nodes: list[FgNode]
    edges: list[FgEdge]
    map_edges: list[tuple[int, int]]
    changed: set[int]
    provenance: Provenance
    code: dict = field(default_factory=dict)  # version -> {text, start_line}


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
                       prov: Provenance) -> ChangeGraph | None:
    """Assemble the united change graph, or None when nothing changed.

    Keeps every changed node plus the mapped unchanged nodes one edge away
    from a changed node in their own version, then adds map edges for all
    retained mapped pairs.
    """
    changed_b, changed_a = mark_changed(g_b, g_a, node_mapping)
    if not changed_b and not changed_a:
        return None

    keep_b = _context(g_b, changed_b, {b.id for b, _ in node_mapping})
    keep_a = _context(g_a, changed_a, {a.id for _, a in node_mapping})

    nodes: list[FgNode] = []
    remap_b: dict[int, int] = {}
    remap_a: dict[int, int] = {}
    for node in g_b.nodes:
        if node.id in keep_b:
            remap_b[node.id] = len(nodes)
            nodes.append(_tagged(node, len(nodes), BEFORE))
    for node in g_a.nodes:
        if node.id in keep_a:
            remap_a[node.id] = len(nodes)
            nodes.append(_tagged(node, len(nodes), AFTER))

    edges = [FgEdge(remap_b[e.src], remap_b[e.dst], e.kind, e.label)
             for e in g_b.edges if e.src in keep_b and e.dst in keep_b]
    edges += [FgEdge(remap_a[e.src], remap_a[e.dst], e.kind, e.label)
              for e in g_a.edges if e.src in keep_a and e.dst in keep_a]
    edges.sort(key=lambda e: (e.src, e.dst, e.kind, e.label))

    map_edges = sorted(
        (remap_b[b.id], remap_a[a.id])
        for b, a in node_mapping
        if b.id in keep_b and a.id in keep_a
    )
    changed = {remap_b[i] for i in changed_b} | {remap_a[i] for i in changed_a}
    return ChangeGraph(nodes, edges, map_edges, changed, prov)


def _tagged(node: FgNode, new_id: int, version: str) -> FgNode:
    out = FgNode(new_id, node.kind, node.subkind, node.label, node.span,
                 concrete_name=node.concrete_name, version=version)
    out.origins = node.origins
    return out


def _context(graph: Fgpdg, changed: set[int], mapped: set[int]) -> set[int]:
    keep = set(changed)
    for edge in graph.edges:
        if edge.src in changed and edge.dst in mapped:
            keep.add(edge.dst)
        if edge.dst in changed and edge.src in mapped:
            keep.add(edge.src)
    return keep

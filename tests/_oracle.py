"""Brute-force reference enumerator for the pattern space.

Independent of the mining engine's shortcuts: breadth-first over templates,
embeddings recomputed from scratch by backtracking, duplicates removed with a
permutation-based isomorphism test, no extension caps and no budgets. Only
the canonical-key function is shared, since key sets are the comparison
surface.

The second half is the function frontend as it was before units were built
lazily from the raw ``ast``: it walks the whole normalized tree of a file
(``parse_source``) and copies every def eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass

from changeminer.mining import (MAP, CorpusGraph, MiningConfig, PatternGraph,
                                PatternRecord, TNode, canonical_key)
from changeminer.source import (AstNode, ImportTable, Span, _is_supported,
                                _prune_nested)


def _template_adjacency(t: PatternGraph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(t.size)}
    for src, dst, _, _ in t.edges:
        adj[src].add(dst)
        adj[dst].add(src)
    for b, a in t.map_edges:
        adj[b].add(a)
        adj[a].add(b)
    return adj


def _match_order(t: PatternGraph) -> list[int]:
    adj = _template_adjacency(t)
    order = [0]
    seen = {0}
    while len(order) < t.size:
        frontier = [j for i in order for j in sorted(adj[i]) if j not in seen]
        assert frontier, "template must be weakly connected"
        order.append(frontier[0])
        seen.add(frontier[0])
    return order


def embeddings(t: PatternGraph, graph: CorpusGraph) -> list[tuple[int, ...]]:
    """Every injective structure-preserving binding of t into one graph."""
    order = _match_order(t)
    results: list[tuple[int, ...]] = []
    binding: dict[int, int] = {}

    def ok(idx: int, concrete: int) -> bool:
        if graph.nodes[concrete] != t.nodes[idx]:
            return False
        for src, dst, kind, label in t.edges:
            if src == idx and dst in binding:
                if not graph.has_edge(concrete, binding[dst], kind, label):
                    return False
            if dst == idx and src in binding:
                if not graph.has_edge(binding[src], concrete, kind, label):
                    return False
        for b, a in t.map_edges:
            if b == idx and a in binding and not graph.has_map(concrete, binding[a]):
                return False
            if a == idx and b in binding and not graph.has_map(binding[b], concrete):
                return False
        return True

    def search(k: int) -> None:
        if k == len(order):
            results.append(tuple(binding[i] for i in range(t.size)))
            return
        idx = order[k]
        used = set(binding.values())
        for concrete in sorted(graph.nodes):
            if concrete in used or not ok(idx, concrete):
                continue
            binding[idx] = concrete
            search(k + 1)
            del binding[idx]

    search(0)
    return results


def _all_embeddings(t: PatternGraph, corpus: list[CorpusGraph]):
    out = []
    for graph in corpus:
        for binding in embeddings(t, graph):
            out.append((graph.id, binding))
    return out


def _support(t: PatternGraph, embedded) -> int:
    anchors = t.call_pair_indices()
    return len({(gid, frozenset(binding[i] for i in anchors))
                for gid, binding in embedded})


def _universally_changed(embedded, corpus_by_id, size: int) -> bool:
    if not embedded:
        return False
    return any(
        all(binding[idx] in corpus_by_id[gid].changed for gid, binding in embedded)
        for idx in range(size)
    )


def _links(t: PatternGraph) -> list[set[tuple]]:
    """Per node: (other node, direction, kind, label) for every edge and map edge."""
    links: list[set[tuple]] = [set() for _ in range(t.size)]
    for src, dst, kind, label in t.edges:
        links[src].add((dst, "out", kind, label))
        links[dst].add((src, "in", kind, label))
    for b, a in t.map_edges:
        links[b].add((a, "map-out", "", ""))
        links[a].add((b, "map-in", "", ""))
    return links


def brute_force_isomorphic(p: PatternGraph, q: PatternGraph) -> bool:
    """Permutation search restricted to equal-signature positions.

    Positions are assigned one at a time; a partial assignment is abandoned
    as soon as an edge or map edge between assigned positions has no
    counterpart on the other side. Complete assignments are compared as
    whole edge sets.
    """
    if p.size != q.size or sorted(p.nodes) != sorted(q.nodes):
        return False
    slots: dict[TNode, list[int]] = {}
    for j, node in enumerate(q.nodes):
        slots.setdefault(node, []).append(j)
    order = [i for sig in sorted(slots)
             for i, node in enumerate(p.nodes) if node == sig]
    p_links = _links(p)
    q_links = _links(q)

    def check(perm_map: dict[int, int]) -> bool:
        edges = {(perm_map[s], perm_map[d], k, l) for s, d, k, l in p.edges}
        maps = {(perm_map[b], perm_map[a]) for b, a in p.map_edges}
        return edges == set(q.edges) and maps == set(q.map_edges)

    def agrees(i: int, j: int, perm_map: dict[int, int],
               inverse: dict[int, int]) -> bool:
        mapped = {(perm_map[other], *tag) for other, *tag in p_links[i]
                  if other in perm_map}
        return mapped == {link for link in q_links[j] if link[0] in inverse}

    def assign(k: int, perm_map: dict[int, int], inverse: dict[int, int]) -> bool:
        if k == len(order):
            return check(perm_map)
        i = order[k]
        for j in slots[p.nodes[i]]:
            if j in inverse:
                continue
            perm_map[i] = j
            inverse[j] = i
            if agrees(i, j, perm_map, inverse) and assign(k + 1, perm_map, inverse):
                return True
            del perm_map[i]
            del inverse[j]
        return False

    return assign(0, {}, {})


def _grow(t: PatternGraph, embedded, corpus_by_id) -> list[PatternGraph]:
    """Child templates: grouped one-node growths with shared-edge closure."""
    groups: dict[tuple, list] = {}
    for gid, binding in embedded:
        graph = corpus_by_id[gid]
        bound = set(binding)
        for attach, concrete in enumerate(binding):
            for rel_kind, rel_label, direction, other in graph.incident[concrete]:
                if other in bound:
                    continue
                key = (attach, rel_kind, rel_label, direction, graph.nodes[other])
                groups.setdefault(key, []).append((gid, binding + (other,)))

    children = []
    new_idx = t.size
    for key, members in sorted(groups.items(),
                               key=lambda kv: repr(kv[0])):
        shared = None
        for gid, binding in members:
            graph = corpus_by_id[gid]
            position = {c: i for i, c in enumerate(binding[:-1])}
            links = {
                (position[other], rk, rl, direction)
                for rk, rl, direction, other in graph.incident[binding[-1]]
                if other in position
            }
            shared = links if shared is None else shared & links
        edges = set(t.edges)
        map_edges = set(t.map_edges)
        for idx, rk, rl, direction in shared:
            if rk == MAP:
                map_edges.add((new_idx, idx) if direction == "out" else (idx, new_idx))
            elif direction == "out":
                edges.add((new_idx, idx, rk, rl))
            else:
                edges.add((idx, new_idx, rk, rl))
        children.append(PatternGraph(t.nodes + (key[4],), frozenset(edges),
                                     frozenset(map_edges)))
    return children


def oracle_pattern_keys(corpus: list[CorpusGraph], cfg: MiningConfig) -> set[str]:
    """Canonical keys of every frequent call-anchored change template."""
    corpus_by_id = {graph.id: graph for graph in corpus}

    seed_groups: dict[tuple[str, str], set] = {}
    for graph in corpus:
        for b, a in graph.map_call_pairs:
            key = (graph.nodes[b].label, graph.nodes[a].label)
            seed_groups.setdefault(key, set()).add((graph.id, b, a))

    frontier: list[PatternGraph] = []
    seen: list[PatternGraph] = []

    def note(t: PatternGraph) -> bool:
        for existing in seen:
            if brute_force_isomorphic(t, existing):
                return False
        seen.append(t)
        return True

    for (label_b, label_a), members in sorted(seed_groups.items()):
        if len(members) < cfg.min_freq:
            continue
        seed = PatternGraph(
            (TNode("Before", "Operation", "call", label_b),
             TNode("After", "Operation", "call", label_a)),
            frozenset(), frozenset({(0, 1)}))
        if note(seed):
            frontier.append(seed)

    emitted: set[str] = set()
    while frontier:
        upcoming: list[PatternGraph] = []
        for template in frontier:
            embedded = _all_embeddings(template, corpus)
            support = _support(template, embedded)
            if support < cfg.min_freq:
                continue
            if template.size >= cfg.min_size and _universally_changed(
                    embedded, corpus_by_id, template.size):
                emitted.add(canonical_key(template))
            if template.size >= cfg.max_size:
                continue
            for child in _grow(template, embedded, corpus_by_id):
                child_support = _support(child, _all_embeddings(child, corpus))
                if child_support >= cfg.min_freq and note(child):
                    upcoming.append(child)
        frontier = upcoming
    return emitted


def brute_force_filter_maximal(patterns: list[PatternRecord]) -> list[PatternRecord]:
    """Drop p when a larger q covers every instance of p (node-binding subset).

    Larger means more nodes, or equally many nodes with strictly more
    edges/map edges; the tie rule collapses under-specified views of one
    concrete change (templates that pin down fewer of its connections).
    """
    def bulk(record: PatternRecord) -> tuple[int, int]:
        return (record.size,
                len(record.graph.edges) + len(record.graph.map_edges))

    node_sets = [
        [(gid, frozenset(binding)) for gid, binding in record.instances]
        for record in patterns
    ]
    keep = []
    for i, record in enumerate(patterns):
        dominated = False
        for j, other in enumerate(patterns):
            if bulk(other) <= bulk(record):
                continue
            if all(
                any(gid == o_gid and nodes <= o_nodes
                    for o_gid, o_nodes in node_sets[j])
                for gid, nodes in node_sets[i]
            ):
                dominated = True
                break
        if not dominated:
            keep.append(record)
    return keep


# ---------------------------------------------------------------------------
# Full-tree function frontend
# ---------------------------------------------------------------------------


@dataclass
class FunctionUnit:
    """A single function or method definition extracted from one file revision."""

    qualified_name: str
    params: list[str]
    body: AstNode
    supported: bool
    span: Span


def extract_functions(tree: AstNode, module_path: str) -> list[FunctionUnit]:
    """Collect one unit per def, including nested and method definitions.

    Qualified names are prefixed with enclosing class/function names; repeated
    names within one file get "#2", "#3" suffixes in definition order. Each
    unit's body is a pruned copy in which nested defs are reduced to stubs, so
    no tree node belongs to two units.
    """
    units: list[FunctionUnit] = []
    name_counts: dict[str, int] = {}

    def disambiguate(name: str) -> str:
        count = name_counts.get(name, 0) + 1
        name_counts[name] = count
        return name if count == 1 else f"{name}#{count}"

    def walk(node: AstNode, prefix: str) -> None:
        for child in node.children:
            if child.kind == "FunctionDef":
                raw_name = f"{prefix}.{child.label}" if prefix else child.label
                qualified = disambiguate(raw_name)
                units.append(_make_unit(child, qualified))
                walk(child, qualified)
            elif child.kind == "ClassDef":
                class_prefix = f"{prefix}.{child.label}" if prefix else child.label
                walk(child, class_prefix)
            else:
                walk(child, prefix)

    walk(tree, module_path)
    return units


def _make_unit(def_node: AstNode, qualified: str) -> FunctionUnit:
    body = _prune_nested(def_node)
    params = []
    for child in body.children:
        if child.kind == "Params":
            params = [p.label for p in child.children if p.kind == "Param"]
    supported = _is_supported(body)
    return FunctionUnit(qualified, params, body, supported, def_node.span)


def build_import_table(tree: AstNode) -> ImportTable:
    """Collect import bindings from anywhere in the tree (module or function level)."""
    table = ImportTable()
    for node in tree.preorder():
        if node.kind == "Import":
            for alias in node.children:
                asname = _asname(alias)
                if asname:
                    table.aliases[asname] = alias.label
                else:
                    root = alias.label.split(".")[0]
                    table.aliases[root] = root
        elif node.kind == "ImportFrom":
            module = node.label
            for alias in node.children:
                if alias.label == "*":
                    if module:
                        table.star_imports.append(module)
                    continue
                base = module if module.endswith(".") or not module else module + "."
                value = (base + alias.label) if module else alias.label
                table.aliases[_asname(alias) or alias.label] = value
    return table


def _asname(alias_node: AstNode) -> str | None:
    for child in alias_node.children:
        if child.kind == "As":
            return child.label
    return None

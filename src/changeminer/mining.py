"""Frequent change-pattern mining over a corpus of change graphs.

Patterns start as mapped pairs of call nodes and grow one node at a time.
A growth candidate is keyed by (attachment node, edge kind+label, direction,
new node signature, version); it survives when enough instances across the
corpus embed it. Grown templates absorb every edge between the new node and
already-present nodes that all instances share, so one recurring change yields
one template rather than one per spanning tree.

Template identity is a canonical key: iterative neighbourhood-label refinement
to stable colours, then a lexicographically minimal serialization searched
over the remaining colour-class orderings. Equal keys still trigger an exact
isomorphism check before two explorations are merged.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from dataclasses import dataclass, field

MAP = "Map"
_ORDER_SEARCH_CAP = 40320


@dataclass
class MiningConfig:
    min_size: int = 4
    min_freq: int = 3
    max_size: int = 20
    max_extensions_per_step: int = 64
    per_seed_time_budget: float = 60.0
    cross_project_only: bool = False
    keep_subpatterns: bool = False

    def __post_init__(self):
        if self.min_size < 2:
            raise ValueError("min_size must be >= 2")
        if self.min_freq < 2:
            raise ValueError("min_freq must be >= 2")
        if self.max_size < self.min_size:
            raise ValueError("max_size must be >= min_size")


@dataclass(frozen=True, order=True)
class TNode:
    """Template node signature: version tag plus abstracted node identity."""

    version: str
    kind: str
    subkind: str
    label: str

    def sig(self) -> str:
        return "|".join((self.version, self.kind, self.subkind, self.label))


@dataclass(frozen=True)
class PatternGraph:
    """A mined change template; node indices are positional."""

    nodes: tuple[TNode, ...]
    edges: frozenset[tuple[int, int, str, str]]  # (src, dst, kind, label)
    map_edges: frozenset[tuple[int, int]]  # (before idx, after idx)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def call_pair_indices(self) -> list[int]:
        out: set[int] = set()
        for b, a in self.map_edges:
            if self.nodes[b].subkind == "call" and self.nodes[a].subkind == "call":
                out.update((b, a))
        return sorted(out)

    def call_pairs(self) -> list[tuple[int, int]]:
        return sorted(
            (b, a) for b, a in self.map_edges
            if self.nodes[b].subkind == "call" and self.nodes[a].subkind == "call"
        )


Instance = tuple[str, tuple[int, ...]]  # (change graph id, binding by template index)


@dataclass
class PatternRecord:
    graph: PatternGraph
    instances: list[Instance]
    canonical_key: str
    support: int
    project_ids: list[str]
    category: str = ""

    @property
    def size(self) -> int:
        return self.graph.size


@dataclass
class PatternSet:
    patterns: list[PatternRecord]
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Corpus view over store records
# ---------------------------------------------------------------------------


class CorpusGraph:
    """Adjacency view of one change-graph record, sufficient for matching."""

    def __init__(self, record: dict):
        self.id: str = record["id"]
        self.repo_id: str = record["provenance"]["repo_id"]
        self.nodes: dict[int, TNode] = {}
        for node in record["nodes"]:
            self.nodes[node["id"]] = TNode(node["version"], node["kind"],
                                           node["subkind"], node["label"])
        self.changed: set[int] = set(record["changed"])
        self.incident: dict[int, list[tuple[str, str, str, int]]] = {
            nid: [] for nid in self.nodes
        }
        for edge in record["edges"]:
            self.incident[edge["src"]].append((edge["kind"], edge["label"], "out", edge["dst"]))
            self.incident[edge["dst"]].append((edge["kind"], edge["label"], "in", edge["src"]))
        for b, a in record["map_edges"]:
            self.incident[b].append((MAP, "", "out", a))
            self.incident[a].append((MAP, "", "in", b))
        for entries in self.incident.values():
            entries.sort()
        self.map_call_pairs: list[tuple[int, int]] = sorted(
            (b, a) for b, a in record["map_edges"]
            if self.nodes[b].subkind == "call" and self.nodes[a].subkind == "call"
        )

    def has_edge(self, src: int, dst: int, kind: str, label: str) -> bool:
        return (kind, label, "out", dst) in self._incident_set(src)

    def has_map(self, b: int, a: int) -> bool:
        return (MAP, "", "out", a) in self._incident_set(b)

    def _incident_set(self, nid: int) -> set:
        cached = getattr(self, "_isets", None)
        if cached is None:
            cached = {n: set(entries) for n, entries in self.incident.items()}
            self._isets = cached
        return cached[nid]


def load_corpus(store) -> list[CorpusGraph]:
    """Accepts a ChangeGraphStore or an iterable of record dicts."""
    records = store.iter_records() if hasattr(store, "iter_records") else store
    graphs = [CorpusGraph(r) for r in records]
    graphs.sort(key=lambda g: g.id)
    return graphs


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def collect_seeds(store, cfg: MiningConfig | None = None):
    """Mapped call pairs grouped by (before label, after label).

    Same-label groups are pruned when no member graph has a changed node
    within max_size hops of the pair, since they could never grow into a
    pattern containing a change.
    """
    cfg = cfg or MiningConfig()
    corpus = store if isinstance(store, list) else load_corpus(store)
    groups: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
    for graph in corpus:
        for b, a in graph.map_call_pairs:
            key = (graph.nodes[b].label, graph.nodes[a].label)
            groups.setdefault(key, []).append((graph.id, b, a))
    by_id = {graph.id: graph for graph in corpus}
    pruned = {}
    for key, members in groups.items():
        if key[0] == key[1] and not any(
            _changed_within(by_id[gid], {b, a}, cfg.max_size)
            for gid, b, a in members
        ):
            continue
        pruned[key] = sorted(members)
    return pruned


def _changed_within(graph: CorpusGraph, start: set[int], hops: int) -> bool:
    seen = set(start)
    frontier = set(start)
    if frontier & graph.changed:
        return True
    for _ in range(hops):
        frontier = {
            other
            for nid in frontier
            for _, _, _, other in graph.incident[nid]
        } - seen
        if frontier & graph.changed:
            return True
        if not frontier:
            return False
        seen |= frontier
    return False


# ---------------------------------------------------------------------------
# Extension
# ---------------------------------------------------------------------------


def support_of(pattern: PatternGraph, instances: list[Instance]) -> int:
    """Distinct (graph, anchor nodes) count; anchors are the mapped call pairs."""
    anchor_idx = pattern.call_pair_indices()
    seen = set()
    for gid, binding in instances:
        seen.add((gid, frozenset(binding[i] for i in anchor_idx)))
    return len(seen)


def _growth_key_string(key) -> str:
    attach, rel_kind, rel_label, direction, sig = key
    return f"{attach:04d}|{rel_kind}|{rel_label}|{direction}|{sig.sig()}"


def extend(pattern: PatternGraph, instances: list[Instance], corpus_index: dict,
           cfg: MiningConfig) -> list[tuple[PatternGraph, list[Instance]]]:
    """All surviving one-node growths, most frequent first."""
    groups: dict[tuple, list[Instance]] = {}
    for gid, binding in instances:
        graph = corpus_index[gid]
        bound = set(binding)
        for attach, concrete in enumerate(binding):
            for rel_kind, rel_label, direction, other in graph.incident[concrete]:
                if other in bound:
                    continue
                key = (attach, rel_kind, rel_label, direction, graph.nodes[other])
                groups.setdefault(key, []).append((gid, binding + (other,)))

    scored = []
    new_idx = pattern.size
    for key, members in groups.items():
        candidate = _grown_template(pattern, key, members, corpus_index, new_idx)
        support = support_of(candidate, members)
        if support >= cfg.min_freq:
            scored.append((-support, _growth_key_string(key), candidate, members))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(candidate, members)
            for _, _, candidate, members in scored[:cfg.max_extensions_per_step]]


def _grown_template(pattern: PatternGraph, key, members: list[Instance],
                    corpus_index: dict, new_idx: int) -> PatternGraph:
    # Closure: keep each connection between the new node and an existing node
    # only when every instance in the group exhibits it.
    common: set[tuple[int, str, str, str]] | None = None
    for gid, binding in members:
        graph = corpus_index[gid]
        position = {concrete: idx for idx, concrete in enumerate(binding[:-1])}
        connections = {
            (position[other], rel_kind, rel_label, direction)
            for rel_kind, rel_label, direction, other in graph.incident[binding[-1]]
            if other in position
        }
        common = connections if common is None else (common & connections)
        if not common:
            break

    new_sig = key[4]
    edges = set(pattern.edges)
    map_edges = set(pattern.map_edges)
    for idx, rel_kind, rel_label, direction in common or set():
        if rel_kind == MAP:
            pair = (new_idx, idx) if direction == "out" else (idx, new_idx)
            map_edges.add(pair)
        elif direction == "out":
            edges.add((new_idx, idx, rel_kind, rel_label))
        else:
            edges.add((idx, new_idx, rel_kind, rel_label))
    return PatternGraph(pattern.nodes + (new_sig,), frozenset(edges),
                        frozenset(map_edges))


def verify_instance(pattern: PatternGraph, graph: CorpusGraph,
                    binding: tuple[int, ...]) -> bool:
    """Label-preserving injective homomorphism check for one binding."""
    if len(set(binding)) != len(binding) or len(binding) != pattern.size:
        return False
    for idx, concrete in enumerate(binding):
        if concrete not in graph.nodes or graph.nodes[concrete] != pattern.nodes[idx]:
            return False
    for src, dst, kind, label in pattern.edges:
        if not graph.has_edge(binding[src], binding[dst], kind, label):
            return False
    for b, a in pattern.map_edges:
        if not graph.has_map(binding[b], binding[a]):
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical keys and exact isomorphism
# ---------------------------------------------------------------------------


def _adjacency_tags(pattern: PatternGraph) -> list[list[tuple[str, int]]]:
    tags: list[list[tuple[str, int]]] = [[] for _ in pattern.nodes]
    for src, dst, kind, label in pattern.edges:
        tags[src].append((f"e>{kind}:{label}", dst))
        tags[dst].append((f"e<{kind}:{label}", src))
    for b, a in pattern.map_edges:
        tags[b].append(("m>", a))
        tags[a].append(("m<", b))
    return tags


def refinement_colors(pattern: PatternGraph) -> list[str]:
    """Stable per-node colours from iterative neighbourhood refinement."""
    colors = [node.sig() for node in pattern.nodes]
    tags = _adjacency_tags(pattern)
    for _ in range(max(1, pattern.size)):
        fresh = []
        for i in range(pattern.size):
            env = ",".join(sorted(f"{tag}@{colors[j]}" for tag, j in tags[i]))
            fresh.append(hashlib.sha1(f"{colors[i]}||{env}".encode()).hexdigest())
        if _partition(fresh) == _partition(colors):
            break
        colors = fresh
    return colors


def _partition(colors: list[str]) -> list[tuple[int, ...]]:
    groups: dict[str, list[int]] = {}
    for i, color in enumerate(colors):
        groups.setdefault(color, []).append(i)
    return sorted(tuple(v) for v in groups.values())


def _twin_groups(pattern: PatternGraph, members: list[int]) -> list[list[int]]:
    """Split one colour class into groups of mutually interchangeable nodes."""
    tags = _adjacency_tags(pattern)
    groups: list[list[int]] = []
    for node in members:
        placed = False
        for group in groups:
            if _are_twins(tags, group[0], node):
                group.append(node)
                placed = True
                break
        if not placed:
            groups.append([node])
    return groups


def _are_twins(tags, u: int, v: int) -> bool:
    def signature(node: int, other: int):
        out = []
        for tag, j in tags[node]:
            if j == other:
                out.append((tag, "self"))
            elif j == node:
                out.append((tag, "loop"))
            else:
                out.append((tag, j))
        return sorted(out)

    return signature(u, v) == signature(v, u)


def canonical_key(pattern: PatternGraph) -> str:
    """Renumbering-invariant identity string for a template."""
    colors = refinement_colors(pattern)
    classes: dict[str, list[int]] = {}
    for i, color in enumerate(colors):
        classes.setdefault(color, []).append(i)
    ordered_classes = [classes[color] for color in sorted(classes)]

    class_twins = [_twin_groups(pattern, members) for members in ordered_classes]
    search_space = math.prod(
        math.factorial(len(twins)) for twins in class_twins
    )
    node_serial = ";".join(
        pattern.nodes[members[0]].sig() + f"*{len(members)}"
        for members in ordered_classes
    )

    if search_space > _ORDER_SEARCH_CAP:
        orderings = [[node for twins in class_twins
                      for group in twins for node in group]]
    else:
        per_class = [
            [
                [node for group in permutation for node in group]
                for permutation in itertools.permutations(twins)
            ]
            for twins in class_twins
        ]
        orderings = (
            [node for part in combo for node in part]
            for combo in itertools.product(*per_class)
        )

    best = None
    for ordering in orderings:
        position = {node: i for i, node in enumerate(ordering)}
        serial = _edge_serial(pattern, position)
        if best is None or serial < best:
            best = serial
    payload = f"{node_serial}#{best}"
    return "cp1-" + hashlib.sha1(payload.encode()).hexdigest()


def _edge_serial(pattern: PatternGraph, position: dict[int, int]) -> str:
    parts = sorted(
        f"{position[src]:03d}>{position[dst]:03d}:{kind}:{label}"
        for src, dst, kind, label in pattern.edges
    )
    parts += sorted(
        f"{position[b]:03d}~{position[a]:03d}" for b, a in pattern.map_edges
    )
    return ";".join(parts)


def exact_isomorphic(p: PatternGraph, q: PatternGraph) -> bool:
    """Backtracking isomorphism test guided by refinement colours."""
    if p.size != q.size or len(p.edges) != len(q.edges) \
            or len(p.map_edges) != len(q.map_edges):
        return False
    colors_p = refinement_colors(p)
    colors_q = refinement_colors(q)
    if sorted(colors_p) != sorted(colors_q):
        return False
    candidates = [
        [j for j in range(q.size) if colors_q[j] == colors_p[i]]
        for i in range(p.size)
    ]
    p_adj = _edge_lookup(p)
    q_adj = _edge_lookup(q)
    order = sorted(range(p.size), key=lambda i: len(candidates[i]))
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used:
                continue
            if not _consistent(i, j, assigned, p_adj, q_adj):
                continue
            assigned[i] = j
            used.add(j)
            if backtrack(k + 1):
                return True
            del assigned[i]
            used.discard(j)
        return False

    return backtrack(0)


def _edge_lookup(pattern: PatternGraph):
    edges = {}
    for src, dst, kind, label in pattern.edges:
        edges.setdefault((src, dst), set()).add((kind, label))
    maps = set(pattern.map_edges)
    return edges, maps


def _consistent(i: int, j: int, assigned: dict[int, int], p_adj, q_adj) -> bool:
    p_edges, p_maps = p_adj
    q_edges, q_maps = q_adj
    for other_i, other_j in assigned.items():
        if p_edges.get((i, other_i), set()) != q_edges.get((j, other_j), set()):
            return False
        if p_edges.get((other_i, i), set()) != q_edges.get((other_j, j), set()):
            return False
        if ((i, other_i) in p_maps) != ((j, other_j) in q_maps):
            return False
        if ((other_i, i) in p_maps) != ((other_j, j) in q_maps):
            return False
    if p_edges.get((i, i), set()) != q_edges.get((j, j), set()):
        return False
    return True


# ---------------------------------------------------------------------------
# Mining driver
# ---------------------------------------------------------------------------


def universally_changed(instances: list[Instance], corpus_index: dict,
                        size: int):
    """Pattern positions bound to a changed node in every instance, in order."""
    if not instances:
        return
    for idx in range(size):
        if all(binding[idx] in corpus_index[gid].changed
               for gid, binding in instances):
            yield idx


def _dedup_instances(pattern: PatternGraph, instances: list[Instance]) -> list[Instance]:
    """One reported instance per (graph, anchor nodes), smallest binding first."""
    anchor_idx = pattern.call_pair_indices()
    best: dict[tuple, Instance] = {}
    for gid, binding in sorted(instances):
        key = (gid, frozenset(binding[i] for i in anchor_idx))
        if key not in best:
            best[key] = (gid, binding)
    return sorted(best.values())


def mine(store, cfg: MiningConfig | None = None) -> PatternSet:
    """Depth-first pattern search over every sufficiently frequent seed group."""
    cfg = cfg or MiningConfig()
    corpus = store if isinstance(store, list) else load_corpus(store)
    corpus_index = {graph.id: graph for graph in corpus}
    seeds = collect_seeds(corpus, cfg)

    seed_template_cache: dict[tuple[str, str], PatternGraph] = {}

    def seed_template(labels: tuple[str, str]) -> PatternGraph:
        if labels not in seed_template_cache:
            seed_template_cache[labels] = PatternGraph(
                (TNode("Before", "Operation", "call", labels[0]),
                 TNode("After", "Operation", "call", labels[1])),
                frozenset(), frozenset({(0, 1)}),
            )
        return seed_template_cache[labels]

    ordered_seeds = sorted(
        seeds.items(), key=lambda item: (-len(item[1]), item[0])
    )

    visited: dict[str, list[PatternGraph]] = {}
    collected: list[PatternRecord] = []
    warnings: list[str] = []

    for labels, members in ordered_seeds:
        template = seed_template(labels)
        instances: list[Instance] = [(gid, (b, a)) for gid, b, a in members]
        if support_of(template, instances) < cfg.min_freq:
            continue
        deadline = time.monotonic() + cfg.per_seed_time_budget
        stack: list[tuple[PatternGraph, list[Instance]]] = [(template, instances)]
        while stack:
            if time.monotonic() > deadline:
                warnings.append(
                    f"budget exceeded for seed {labels[0]} -> {labels[1]}; "
                    "partial results kept")
                break
            pattern, pattern_instances = stack.pop()
            key = canonical_key(pattern)
            bucket = visited.setdefault(key, [])
            if any(exact_isomorphic(pattern, seen) for seen in bucket):
                continue
            bucket.append(pattern)
            support = support_of(pattern, pattern_instances)
            if (pattern.size >= cfg.min_size and support >= cfg.min_freq
                    and next(universally_changed(pattern_instances, corpus_index,
                                                 pattern.size), None) is not None):
                collected.append(PatternRecord(
                    graph=pattern,
                    instances=_dedup_instances(pattern, pattern_instances),
                    canonical_key=key,
                    support=support,
                    project_ids=sorted({corpus_index[gid].repo_id
                                        for gid, _ in pattern_instances}),
                ))
            if pattern.size < cfg.max_size:
                children = extend(pattern, pattern_instances, corpus_index, cfg)
                stack.extend(reversed(children))

    # Project filter first: it is cheaper, and a pattern that dominates
    # another binds all of its change graphs, so spans all of its projects.
    result = collected
    if cfg.cross_project_only:
        result = filter_cross_project(result)
    if not cfg.keep_subpatterns:
        result = filter_maximal(result)
    result.sort(key=lambda r: (-r.support, -r.size, r.canonical_key))
    return PatternSet(result, warnings)


def filter_maximal(patterns: list[PatternRecord]) -> list[PatternRecord]:
    """Drop p when a larger q covers every instance of p (node-binding subset).

    Larger means more nodes, or equally many nodes with strictly more
    edges/map edges; the tie rule collapses under-specified views of one
    concrete change (templates that pin down fewer of its connections).

    Dominating candidates come from an inverted index, not from a scan of
    every pair: the int mask stored under (change-graph id, node) has bit j
    set when pattern j binds that node in that graph. For p, the candidates
    start as the mask of all larger patterns. Each instance of p ANDs in the
    masks of its nodes, then keeps only the candidates with one instance in
    that graph whose node set contains the instance's. p is dominated when a
    candidate survives every instance; with no instances, when any larger
    pattern exists. Kept patterns stay in input order.
    """
    def bulk(record: PatternRecord) -> tuple[int, int]:
        return (record.size,
                len(record.graph.edges) + len(record.graph.map_edges))

    node_sets = [
        [(gid, frozenset(binding)) for gid, binding in record.instances]
        for record in patterns
    ]
    holders: dict[tuple[str, int], int] = {}
    same_bulk: dict[tuple[int, int], int] = {}
    for j, record in enumerate(patterns):
        bit = 1 << j
        for gid, nodes in node_sets[j]:
            for node in nodes:
                holders[gid, node] = holders.get((gid, node), 0) | bit
        rank = bulk(record)
        same_bulk[rank] = same_bulk.get(rank, 0) | bit
    larger: dict[tuple[int, int], int] = {}
    above = 0
    for rank in sorted(same_bulk, reverse=True):
        larger[rank] = above
        above |= same_bulk[rank]

    keep = []
    for i, record in enumerate(patterns):
        candidates = larger[bulk(record)]
        for gid, nodes in node_sets[i]:
            if not candidates:
                break
            mask = candidates
            for node in nodes:
                mask &= holders[gid, node]
            candidates = 0
            while mask:
                low = mask & -mask
                if any(gid == o_gid and nodes <= o_nodes
                       for o_gid, o_nodes in node_sets[low.bit_length() - 1]):
                    candidates |= low
                mask ^= low
        if not candidates:
            keep.append(record)
    return keep


def filter_cross_project(patterns: list[PatternRecord]) -> list[PatternRecord]:
    return [record for record in patterns if len(record.project_ids) >= 2]

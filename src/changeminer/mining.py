"""Frequent change-pattern mining over a corpus of change graphs.

Patterns start as mapped pairs of call nodes and grow one node at a time.
A growth candidate is keyed by (attachment node, edge kind+label, direction,
new node signature, version); it survives when enough instances across the
corpus embed it. Grown templates absorb every edge between the new node and
already-present nodes that all instances share, so one recurring change yields
one template rather than one per spanning tree.

Template identity is a canonical key from an exact canonical labelling by
individualization-refinement: neighbourhood refinement to stable integer
colours, then a search that splits the remaining colour classes one node at
a time and keeps the smallest edge list. Two templates get equal keys exactly
when they are isomorphic, so the search merges explorations by key alone.

Each seed's search is bounded by work, not by time: it stops before the
instance bindings of the templates it has expanded would pass
``SEED_WORK_BOUND``, and the stop is listed as a warning. The bound counts
bindings because the cost of one expansion grows with them, so the same
input gives the same patterns on any machine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

MAP = "Map"

# Instance bindings one seed may expand, summed over the templates it
# extends. It is far above what the benchmark workloads need, so it only
# stops runaway seeds.
SEED_WORK_BOUND = 250_000


@dataclass
class MiningConfig:
    min_size: int = 4
    min_freq: int = 3
    max_size: int = 20
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
        return (kind, label, "out", dst) in self._incident_sets[src]

    def has_map(self, b: int, a: int) -> bool:
        return (MAP, "", "out", a) in self._incident_sets[b]

    @cached_property
    def _incident_sets(self) -> dict[int, set[tuple[str, str, str, int]]]:
        # Built on first use, not in __init__: only verify_instance and the
        # test oracle ask, and load_corpus would pay for it on every graph.
        return {nid: set(entries) for nid, entries in self.incident.items()}


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

    A same-label group is pruned when none of its member graphs has a changed
    node, since it could never grow into a pattern containing a change. In a
    store that ``mine`` wrote every graph has one, so only hand-built records
    are pruned. ``cfg`` is unused; it is kept so that callers may pass the
    search's config.
    """
    corpus = store if isinstance(store, list) else load_corpus(store)
    groups: dict[tuple[str, str], list[tuple[str, int, int]]] = {}
    for graph in corpus:
        for b, a in graph.map_call_pairs:
            key = (graph.nodes[b].label, graph.nodes[a].label)
            groups.setdefault(key, []).append((graph.id, b, a))
    changed_ids = {graph.id for graph in corpus if graph.changed}
    return {key: sorted(members) for key, members in groups.items()
            if key[0] != key[1]
            or any(gid in changed_ids for gid, _, _ in members)}


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
    return [(candidate, members) for _, _, candidate, members in scored]


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
# Canonical keys
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


def _ranks(values: list) -> list[int]:
    """Each value's rank among the sorted distinct values."""
    rank = {value: r for r, value in enumerate(sorted(set(values)))}
    return [rank[value] for value in values]


def _refine(tags: list[list[tuple[str, int]]], colors: list[int]) -> list[int]:
    # Colours are ranks 0..k-1. A new colour sorts first by the old one, so
    # cells split in place and keep their order; when no cell splits, the
    # new ranks equal the old colours.
    classes = len(set(colors))
    while classes < len(colors):
        fresh = _ranks([
            (color, tuple(sorted((tag, colors[j]) for tag, j in node_tags)))
            for color, node_tags in zip(colors, tags)
        ])
        count = max(fresh) + 1
        if count == classes:
            break
        colors, classes = fresh, count
    return colors


def refinement_colors(pattern: PatternGraph) -> list[int]:
    """Stable per-node colours from iterative neighbourhood refinement.

    A node starts as the rank of its signature among the pattern's sorted
    distinct signatures. Each round it becomes the rank of its colour plus
    the sorted (edge tag, neighbour colour) pairs around it, until the
    number of colours stops growing. Colours do not depend on numbering.
    """
    return _refine(_adjacency_tags(pattern),
                   _ranks([node.sig() for node in pattern.nodes]))


def _twins(tags: list[list[tuple[str, int]]], u: int, v: int) -> bool:
    """Whether swapping two equally labelled nodes maps the pattern onto itself."""
    def around(node: int, other: int) -> list[tuple[str, int]]:
        return sorted((tag, -1 if j == other else -2 if j == node else j)
                      for tag, j in tags[node])

    return around(u, v) == around(v, u)


def canonical_key(pattern: PatternGraph) -> str:
    """Renumbering-invariant identity string for a template.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014): refine the colours; while some cell has several
    nodes, take the first such cell and try each of its nodes as a singleton
    placed before the rest of the cell, then refine again. Each discrete
    colouring numbers the nodes; the key hashes the sorted signatures with
    the smallest edge list over those numberings. A node that is a twin of
    one already tried is skipped: swapping the two is an automorphism, so
    its branch yields the same edge lists. Equal keys mean isomorphic
    patterns.
    """
    tags = _adjacency_tags(pattern)
    sigs = [node.sig() for node in pattern.nodes]
    best = None

    def search(colors: list[int]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = {}
        for node, color in enumerate(colors):
            cells.setdefault(color, []).append(node)
        if len(cells) == len(colors):
            leaf = (sorted((colors[src], colors[dst], kind, label)
                           for src, dst, kind, label in pattern.edges),
                    sorted((colors[b], colors[a]) for b, a in pattern.map_edges))
            if best is None or leaf < best:
                best = leaf
            return
        split = min(color for color, members in cells.items() if len(members) > 1)
        tried: list[int] = []
        for node in cells[split]:
            if any(_twins(tags, other, node) for other in tried):
                continue
            tried.append(node)
            search(_refine(tags, [
                color + (color > split or (color == split and other != node))
                for other, color in enumerate(colors)
            ]))

    search(_refine(tags, _ranks(sigs)))
    payload = repr((sorted(sigs), best))
    return "cp2-" + hashlib.sha1(payload.encode()).hexdigest()


def exact_isomorphic(p: PatternGraph, q: PatternGraph) -> bool:
    """Isomorphism test: equal sizes, equal edge counts and equal canonical keys."""
    return (p.size == q.size and len(p.edges) == len(q.edges)
            and len(p.map_edges) == len(q.map_edges)
            and canonical_key(p) == canonical_key(q))


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

    ordered_seeds = sorted(
        seeds.items(), key=lambda item: (-len(item[1]), item[0])
    )

    visited: set[str] = set()
    collected: list[PatternRecord] = []
    warnings: list[str] = []

    for labels, members in ordered_seeds:
        template = PatternGraph(
            (TNode("Before", "Operation", "call", labels[0]),
             TNode("After", "Operation", "call", labels[1])),
            frozenset(), frozenset({(0, 1)}))
        instances: list[Instance] = [(gid, (b, a)) for gid, b, a in members]
        if support_of(template, instances) < cfg.min_freq:
            continue
        work = 0
        stack: list[tuple[PatternGraph, list[Instance]]] = [(template, instances)]
        while stack:
            pattern, pattern_instances = stack.pop()
            key = canonical_key(pattern)
            if key in visited:
                continue
            visited.add(key)
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
                if work + len(pattern_instances) > SEED_WORK_BOUND:
                    warnings.append(
                        f"budget exceeded for seed {labels[0]} -> {labels[1]} "
                        f"after {work} instance bindings; partial results kept")
                    break
                work += len(pattern_instances)
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
    are the larger patterns whose masks hold every node of every instance of
    p. p is dominated when one candidate has, for each instance of p, an
    instance in the same graph whose node set contains it; with no
    instances, when any larger pattern exists. A node set is an int with a
    bit per node id, far smaller than a frozenset when there are millions
    of instances. Kept patterns stay in input order.
    """
    def bulk(record: PatternRecord) -> tuple[int, int]:
        return (record.size,
                len(record.graph.edges) + len(record.graph.map_edges))

    node_sets = [
        [(gid, sum(1 << node for node in binding))
         for gid, binding in record.instances]
        for record in patterns
    ]
    holders: dict[tuple[str, int], int] = {}
    same_bulk: dict[tuple[int, int], int] = {}
    for j, record in enumerate(patterns):
        bit = 1 << j
        for key in {(gid, node) for gid, binding in record.instances
                    for node in binding}:
            holders[key] = holders.get(key, 0) | bit
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
        for gid, binding in record.instances:
            if not candidates:
                break
            for node in binding:
                candidates &= holders[gid, node]
        while candidates:
            low = candidates & -candidates
            covering = node_sets[low.bit_length() - 1]
            if all(any(gid == o_gid and nodes & o_nodes == nodes
                       for o_gid, o_nodes in covering)
                   for gid, nodes in node_sets[i]):
                break
            candidates ^= low
        if not candidates:
            keep.append(record)
    return keep


def filter_cross_project(patterns: list[PatternRecord]) -> list[PatternRecord]:
    return [record for record in patterns if len(record.project_ids) >= 2]

"""Frequent change-pattern mining over a corpus of change graphs.

Patterns start as mapped pairs of call nodes and grow one node at a time.
A growth candidate is keyed by (attachment node, edge kind+label, direction,
new node signature, version); it survives when its support, the number of
change graphs (function edits) its instances lie in, reaches ``min_freq``.
``extend`` forms the groups in one pass over the instances that also finds the
links every member's new node has to its binding; the grown template holds all
of them, so one recurring change yields one template rather than one per
spanning tree.

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
from typing import NamedTuple

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


class TNode(NamedTuple):
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

    def call_pairs(self) -> list[tuple[int, int]]:
        return _call_pairs(self.nodes, self.map_edges)


def _call_pairs(nodes, map_edges) -> list[tuple[int, int]]:
    """The map edges of a graph whose two ends are calls, sorted."""
    return sorted((b, a) for b, a in map_edges
                  if nodes[b].subkind == "call" and nodes[a].subkind == "call")


Instance = tuple[str, tuple[int, ...]]  # (change graph id, binding by template index)


@dataclass
class PatternRecord:
    """A mined template with at most one instance per change graph."""

    graph: PatternGraph
    instances: list[Instance]
    canonical_key: str
    project_ids: list[str]
    category: str = ""

    @property
    def size(self) -> int:
        return self.graph.size

    @property
    def support(self) -> int:
        """The number of change graphs the pattern occurs in."""
        return len(self.instances)


@dataclass
class PatternSet:
    patterns: list[PatternRecord]
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Corpus view over store records
# ---------------------------------------------------------------------------


class CorpusGraph:
    """One change-graph record: adjacency for matching, plus what a pattern set records."""

    def __init__(self, record: dict):
        self.id: str = record["id"]
        self.provenance: dict = record["provenance"]
        self.repo_id: str = self.provenance["repo_id"]
        self.code: dict = record.get("code", {})
        self.changed: set[int] = set(record["changed"])
        self.changed_spans: dict[str, list] = {"Before": [], "After": []}
        self.nodes: dict[int, TNode] = {}
        for node in record["nodes"]:
            self.nodes[node["id"]] = TNode(node["version"], node["kind"],
                                           node["subkind"], node["label"])
            if node["id"] in self.changed and node.get("span"):
                self.changed_spans[node["version"]].append(node["span"])
        for spans in self.changed_spans.values():
            spans.sort()
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
        self.map_call_pairs = _call_pairs(self.nodes, record["map_edges"])


def load_corpus(store) -> list[CorpusGraph]:
    """Accepts a ChangeGraphStore or an iterable of record dicts."""
    records = store.iter_records() if hasattr(store, "iter_records") else store
    graphs = [CorpusGraph(r) for r in records]
    graphs.sort(key=lambda g: g.id)
    return graphs


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def collect_seeds(corpus: list[CorpusGraph], cfg: MiningConfig | None = None):
    """Mapped call pairs grouped by (before label, after label).

    A same-label group is pruned when none of its member graphs has a changed
    node, since it could never grow into a pattern containing a change. In a
    store that ``mine`` wrote every graph has one, so only hand-built records
    are pruned. ``cfg`` is unused; it is kept so that callers may pass the
    search's config.
    """
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


def support_of(instances: list[Instance]) -> int:
    """The number of distinct change graphs among the instances."""
    return len({gid for gid, _ in instances})


def extend(pattern: PatternGraph, instances: list[Instance], corpus_index: dict,
           cfg: MiningConfig) -> list[tuple[PatternGraph, list[Instance]]]:
    """All surviving one-node growths, most frequent first.

    One pass reads the ``incident`` list of each bound node of each instance.
    Each link to an unbound neighbour files the grown instance under its
    growth key and joins the neighbour's link set as (attachment, kind, label,
    direction seen from the attachment). Once the instance is read, each group
    it joined keeps only the links it shares with that neighbour's full set.
    Only the groups whose members reach ``min_freq`` graphs get a template.

    Groups sort by falling support, then by key, which is also the order of
    the key joined by ``|`` with ``attach`` in four digits: ``attach`` stays
    below 10 000, every later field but the last (the node label) comes from
    a prefix-free vocabulary (edge kinds, edge labels, directions, versions,
    node kinds, subkinds), so the first field that differs decides both.
    """
    groups: dict[tuple, list[Instance]] = {}
    shared: dict[tuple, set[tuple[int, str, str, str]]] = {}
    for gid, binding in instances:
        graph = corpus_index[gid]
        bound = set(binding)
        links: dict[int, set[tuple[int, str, str, str]]] = {}
        joined = []
        for attach, concrete in enumerate(binding):
            for rel_kind, rel_label, direction, other in graph.incident[concrete]:
                if other in bound:
                    continue
                links.setdefault(other, set()).add(
                    (attach, rel_kind, rel_label, direction))
                key = (attach, rel_kind, rel_label, direction, graph.nodes[other])
                groups.setdefault(key, []).append((gid, binding + (other,)))
                joined.append((key, other))
        for key, other in joined:
            own = links[other]
            shared[key] = shared[key] & own if key in shared else own

    scored = []
    for key, members in groups.items():
        support = support_of(members)
        if support >= cfg.min_freq:
            scored.append((-support, key))
    scored.sort()
    return [(_grown_template(pattern, key[4], shared[key]), groups[key])
            for _, key in scored]


def _grown_template(pattern: PatternGraph, sig: TNode,
                    links: set[tuple[int, str, str, str]]) -> PatternGraph:
    """``pattern`` plus a node ``sig`` joined to it by each of ``links``."""
    new_idx = pattern.size
    edges = set(pattern.edges)
    map_edges = set(pattern.map_edges)
    for idx, rel_kind, rel_label, direction in links:
        if rel_kind == MAP:
            map_edges.add((idx, new_idx) if direction == "out" else (new_idx, idx))
        elif direction == "out":
            edges.add((idx, new_idx, rel_kind, rel_label))
        else:
            edges.add((new_idx, idx, rel_kind, rel_label))
    return PatternGraph(pattern.nodes + (sig,), frozenset(edges),
                        frozenset(map_edges))


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


def _dedup_instances(instances: list[Instance]) -> list[Instance]:
    """One reported instance per change graph, its smallest binding."""
    best: dict[str, Instance] = {}
    for instance in sorted(instances):
        best.setdefault(instance[0], instance)
    return list(best.values())


def mine(corpus: list[CorpusGraph],
         cfg: MiningConfig | None = None) -> PatternSet:
    """Depth-first pattern search over every sufficiently frequent seed group."""
    cfg = cfg or MiningConfig()
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
        if support_of(instances) < cfg.min_freq:
            continue
        work = 0
        stack: list[tuple[PatternGraph, list[Instance]]] = [(template, instances)]
        while stack:
            pattern, pattern_instances = stack.pop()
            key = canonical_key(pattern)
            if key in visited:
                continue
            visited.add(key)
            # The seed check and ``extend`` stack only frequent templates, and
            # one instance per change graph is reported: ``support_of`` many.
            if (pattern.size >= cfg.min_size
                    and next(universally_changed(pattern_instances, corpus_index,
                                                 pattern.size), None) is not None):
                collected.append(PatternRecord(
                    graph=pattern,
                    instances=_dedup_instances(pattern_instances),
                    canonical_key=key,
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

    Each record has at most one instance per change graph. The int mask
    stored under (change-graph id, node) has bit j set when pattern j binds
    that node in that graph, so the larger patterns whose bits survive the
    AND of those masks over every node of every instance of p are exactly
    the ones whose instance in each of p's graphs contains p's. p is kept
    when none survives; with no instances, when no larger pattern exists.
    Kept patterns stay in input order.
    """
    def bulk(record: PatternRecord) -> tuple[int, int]:
        return (record.size,
                len(record.graph.edges) + len(record.graph.map_edges))

    holders: dict[tuple[str, int], int] = {}
    same_bulk: dict[tuple[int, int], int] = {}
    for j, record in enumerate(patterns):
        bit = 1 << j
        for gid, binding in record.instances:
            for node in binding:
                holders[gid, node] = holders.get((gid, node), 0) | bit
        rank = bulk(record)
        same_bulk[rank] = same_bulk.get(rank, 0) | bit
    larger: dict[tuple[int, int], int] = {}
    above = 0
    for rank in sorted(same_bulk, reverse=True):
        larger[rank] = above
        above |= same_bulk[rank]

    keep = []
    for record in patterns:
        dominators = larger[bulk(record)]
        for gid, binding in record.instances:
            if not dominators:
                break
            for node in binding:
                dominators &= holders[gid, node]
        if not dominators:
            keep.append(record)
    return keep


def filter_cross_project(patterns: list[PatternRecord]) -> list[PatternRecord]:
    return [record for record in patterns if len(record.project_ids) >= 2]

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from changeminer import mining
from changeminer.cli import main as cli_main
from changeminer.history import ChangeGraphStore
from changeminer.mining import (MAP, CorpusGraph, MiningConfig, PatternGraph,
                                TNode, canonical_key, collect_seeds,
                                exact_isomorphic, extend, filter_cross_project,
                                filter_maximal, load_corpus, mine, support_of)
from changeminer.mining import PatternRecord

from _oracle import (brute_force_filter_maximal, brute_force_isomorphic,
                     oracle_pattern_keys, refinement_colors, verify_instance)
from conftest import FIG2_AFTER, FIG2_BEFORE, change_record


def synth_record(gid: str, repo: str, nodes, edges=(), maps=(), changed=()):
    """Record dict from shorthand: nodes = [(kind, subkind, label, version)]."""
    return {
        "id": gid,
        "provenance": {"repo_id": repo, "commit_hash": "c" + gid,
                       "parent_hash": "p" + gid, "file_path": "a.py",
                       "function": "m.f", "author_email_hash": "x",
                       "commit_message": ""},
        "nodes": [
            {"id": i, "kind": k, "subkind": sk, "label": lb,
             "concrete_name": None, "version": v, "span": [1, 0, 1, 1]}
            for i, (k, sk, lb, v) in enumerate(nodes)
        ],
        "edges": [{"src": s, "dst": d, "kind": k, "label": l}
                  for s, d, k, l in edges],
        "map_edges": [list(p) for p in maps],
        "changed": sorted(changed),
        "code": {},
    }


def add_update_record(gid: str, repo: str) -> dict:
    nodes = [
        ("Operation", "call", "?.add", "Before"),    # 0
        ("Data", "var", "var", "Before"),            # 1 receiver
        ("Operation", "call", "?.update", "After"),  # 2
        ("Data", "var", "var", "After"),             # 3 receiver
    ]
    edges = [(1, 0, "Data", "recv"), (3, 2, "Data", "recv")]
    maps = [(0, 2), (1, 3)]
    return synth_record(gid, repo, nodes, edges, maps, changed={0, 2})


def fig2_corpus(repos=("ra", "rb", "rc")):
    return load_corpus([
        change_record(FIG2_BEFORE, FIG2_AFTER, repo, f"c{i}")
        for i, repo in enumerate(repos)
    ])


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def test_seed_group_for_three_add_update_graphs():
    corpus = load_corpus([add_update_record(f"g{i}", f"r{i}") for i in range(3)])
    seeds = collect_seeds(corpus)
    assert ("?.add", "?.update") in seeds
    assert len(seeds[("?.add", "?.update")]) == 3


def test_low_support_group_retained_but_never_mined():
    corpus = load_corpus([add_update_record(f"g{i}", f"r{i}") for i in range(2)])
    seeds = collect_seeds(corpus)
    assert len(seeds[("?.add", "?.update")]) == 2
    result = mine(corpus, MiningConfig(min_size=2, min_freq=3))
    assert result.patterns == []


def test_unchanged_far_seed_group_pruned():
    # print<->print pair with no changed node anywhere in the graph
    record = synth_record(
        "g1", "r1",
        nodes=[("Operation", "call", "print", "Before"),
               ("Operation", "call", "print", "After")],
        maps=[(0, 1)], changed=())
    seeds = collect_seeds(load_corpus([record]))
    assert ("print", "print") not in seeds


def test_store_without_call_map_edges_gives_no_seeds():
    record = synth_record(
        "g1", "r1",
        nodes=[("Data", "var", "var", "Before"), ("Data", "var", "var", "After")],
        maps=[(0, 1)], changed={0})
    assert collect_seeds(load_corpus([record])) == {}


# ---------------------------------------------------------------------------
# Extension
# ---------------------------------------------------------------------------


def seed_pattern(label_b: str, label_a: str) -> PatternGraph:
    return PatternGraph(
        (TNode("Before", "Operation", "call", label_b),
         TNode("After", "Operation", "call", label_a)),
        frozenset(), frozenset({(0, 1)}))


def test_extension_adds_receiver_kept_by_all_instances():
    corpus = load_corpus([add_update_record(f"g{i}", f"r{i}") for i in range(3)])
    index = {g.id: g for g in corpus}
    pattern = seed_pattern("?.add", "?.update")
    instances = [(g.id, (0, 2)) for g in corpus]
    children = extend(pattern, instances, index, MiningConfig(min_size=2))
    recv_children = [
        (child, inst) for child, inst in children
        if any(label == "recv" for _, _, _, label in child.edges)
    ]
    assert recv_children
    child, inst = recv_children[0]
    assert child.size == 3
    assert len(inst) == 3


def test_growth_supported_by_too_few_instances_not_returned():
    records = [add_update_record(f"g{i}", f"r{i}") for i in range(3)]
    del records[0]["edges"][0]  # remove one before-receiver edge
    corpus = load_corpus(records)
    index = {g.id: g for g in corpus}
    pattern = seed_pattern("?.add", "?.update")
    instances = [(g.id, (0, 2)) for g in corpus]
    children = extend(pattern, instances, index, MiningConfig(min_size=2))
    before_recv = [
        child for child, _ in children
        if any(label == "recv" and child.nodes[src].version == "Before"
               for src, _, _, label in child.edges)
    ]
    assert before_recv == []


def test_closure_includes_map_edge_between_added_receivers():
    corpus = load_corpus([add_update_record(f"g{i}", f"r{i}") for i in range(3)])
    result = mine(corpus, MiningConfig(min_size=2, min_freq=3))
    assert len(result.patterns) == 1
    graph = result.patterns[0].graph
    assert graph.size == 4
    assert len(graph.map_edges) == 2  # call pair plus receiver pair


def test_closure_keeps_only_links_every_member_shares():
    # In both graphs var 2 is the receiver of the before call; its second
    # link, an argument edge, goes to the before call in g0 and to the after
    # call in g1, so the grown template holds the receiver edge alone.
    nodes = [("Operation", "call", "f", "Before"),
             ("Operation", "call", "g", "After"),
             ("Data", "var", "var", "Before")]
    corpus = load_corpus([
        synth_record("g0", "r0", nodes, [(2, 0, "Data", "recv"), (2, 0, "Data", "arg")],
                     maps=[(0, 1)], changed={0}),
        synth_record("g1", "r1", nodes, [(2, 0, "Data", "recv"), (2, 1, "Data", "arg")],
                     maps=[(0, 1)], changed={0}),
    ])
    index = {g.id: g for g in corpus}
    instances = [(g.id, (0, 1)) for g in corpus]
    children = extend(seed_pattern("f", "g"), instances, index,
                      MiningConfig(min_size=2, min_freq=2))
    assert [(child.edges, members) for child, members in children] == [
        (frozenset({(2, 0, "Data", "recv")}), [("g0", (0, 1, 2)), ("g1", (0, 1, 2))])]


def test_pattern_at_max_size_not_extended():
    corpus = load_corpus([add_update_record(f"g{i}", f"r{i}") for i in range(3)])
    result = mine(corpus, MiningConfig(min_size=2, min_freq=3, max_size=2))
    assert all(record.size <= 2 for record in result.patterns)


# ---------------------------------------------------------------------------
# Canonical keys and isomorphism
# ---------------------------------------------------------------------------


def _permuted(pattern: PatternGraph, seed: int) -> PatternGraph:
    rng = random.Random(seed)
    perm = list(range(pattern.size))
    rng.shuffle(perm)
    return _renumbered(pattern, perm)


def _renumbered(pattern: PatternGraph, perm: list[int]) -> PatternGraph:
    nodes = [None] * pattern.size
    for old, new in enumerate(perm):
        nodes[new] = pattern.nodes[old]
    edges = frozenset((perm[s], perm[d], k, l) for s, d, k, l in pattern.edges)
    maps = frozenset((perm[b], perm[a]) for b, a in pattern.map_edges)
    return PatternGraph(tuple(nodes), edges, maps)


_sig_pool = [
    TNode("Before", "Operation", "call", "f"),
    TNode("Before", "Data", "var", "var"),
    TNode("After", "Operation", "call", "g"),
    TNode("After", "Data", "var", "var"),
    TNode("Before", "Data", "literal", "0"),
]


@st.composite
def _pattern_graphs(draw):
    n = draw(st.integers(2, 7))
    nodes = tuple(draw(st.sampled_from(_sig_pool)) for _ in range(n))
    edges = set()
    for dst in range(1, n):
        src = draw(st.integers(0, dst - 1))
        label = draw(st.sampled_from(["ref", "para", "def"]))
        edges.add((src, dst, "Data", label))
    maps = set()
    for b in range(n):
        for a in range(n):
            if nodes[b].version == "Before" and nodes[a].version == "After" \
                    and nodes[b].kind == nodes[a].kind and draw(st.booleans()):
                maps.add((b, a))
    return PatternGraph(nodes, frozenset(edges), frozenset(maps))


@given(_pattern_graphs(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_canonical_key_invariant_under_renumbering(pattern, seed):
    shuffled = _permuted(pattern, seed)
    assert canonical_key(pattern) == canonical_key(shuffled)
    assert exact_isomorphic(pattern, shuffled)


def test_patterns_differing_in_one_label_get_distinct_keys():
    p = seed_pattern("?.add", "?.update")
    q = seed_pattern("?.add", "?.extend")
    assert canonical_key(p) != canonical_key(q)


def _cycle_pattern(cycle_edges: list[tuple[int, int]], n: int) -> PatternGraph:
    sig = TNode("Before", "Data", "var", "var")
    edges = set()
    for u, v in cycle_edges:
        edges.add((u, v, "Data", "ref"))
        edges.add((v, u, "Data", "ref"))
    return PatternGraph(tuple(sig for _ in range(n)), frozenset(edges),
                        frozenset())


def _cycles(lengths: list[int]) -> PatternGraph:
    sig = TNode("Before", "Data", "var", "var")
    edges, start = set(), 0
    for length in lengths:
        edges.update((start + i, start + (i + 1) % length, "Data", "ref")
                     for i in range(length))
        start += length
    return PatternGraph(tuple(sig for _ in range(start)), frozenset(edges),
                        frozenset())


def test_refinement_collision_separated_by_exact_check():
    # Two 6-cycles sharing an edge vs two 5-cycles joined by an edge: the
    # classic pair that neighbourhood refinement cannot tell apart.
    decalin = _cycle_pattern(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
         (0, 6), (6, 7), (7, 8), (8, 9), (9, 1)], 10)
    bicyclopentyl = _cycle_pattern(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 6), (6, 7), (7, 8), (8, 9), (9, 5), (0, 5)], 10)
    assert sorted(refinement_colors(decalin)) == sorted(refinement_colors(bicyclopentyl))
    assert not exact_isomorphic(decalin, bicyclopentyl)
    assert not brute_force_isomorphic(decalin, bicyclopentyl)


def test_undirected_triangle_of_equal_nodes_gets_a_key():
    # One colour class whose nodes are joined by same-tag edges.
    triangle = _cycle_pattern([(0, 1), (1, 2), (2, 0)], 3)
    assert canonical_key(triangle) == canonical_key(_permuted(triangle, 1))


def test_directed_cycle_key_ignores_numbering():
    # One colour class of nine nodes: 9! orderings, too many to try all.
    cycle = _cycles([9])
    assert len({canonical_key(_permuted(cycle, seed))
                for seed in range(20)}) == 1


def test_symmetric_graphs_get_numbering_invariant_keys():
    cube = _cycle_pattern([(i, i | 1 << bit) for i in range(16)
                           for bit in range(4) if not i & 1 << bit], 16)
    petersen = _cycle_pattern(
        [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 10)
    for graph in (cube, petersen):
        assert canonical_key(graph) == canonical_key(_permuted(graph, 7))


_cyclic_sig_pool = [
    TNode("Before", "Data", "var", "var"),
    TNode("After", "Data", "var", "var"),
]


@st.composite
def _cyclic_graphs(draw, nodes: tuple[TNode, ...]):
    """Permutation cycles (fixed points are self-loops), one- or two-way,
    plus extra edges and map edges."""
    n = len(nodes)
    edges = set()
    for _ in range(draw(st.integers(0, 2))):
        successor = draw(st.permutations(range(n)))
        label = draw(st.sampled_from(["ref", "def"]))
        two_way = draw(st.booleans())
        for u, v in enumerate(successor):
            edges.add((u, v, "Data", label))
            if two_way:
                edges.add((v, u, "Data", label))
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        label = draw(st.sampled_from(["ref", "def"]))
        edges.add((u, v, "Data", label))
        if draw(st.booleans()):
            edges.add((v, u, "Data", label))
    maps = {(b, a) for b in range(n) for a in range(n)
            if nodes[b].version == "Before" and nodes[a].version == "After"
            and draw(st.integers(0, 3)) == 0}
    return PatternGraph(nodes, frozenset(edges), frozenset(maps))


@st.composite
def _graph_pairs(draw):
    """Two graphs over one node multiset: p renumbered, p with one edge
    relabelled or one edge or map edge toggled and then renumbered, or a
    fresh draw."""
    pool = draw(st.sampled_from([_cyclic_sig_pool[:1], _cyclic_sig_pool]))
    nodes = tuple(draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=7)))
    p = draw(_cyclic_graphs(nodes))
    how = draw(st.sampled_from(["renumber", "relabel", "toggle", "fresh"]))
    if how == "fresh":
        return p, draw(_cyclic_graphs(tuple(draw(st.permutations(nodes)))))
    q = p
    if how == "relabel" and p.edges:
        src, dst, kind, label = draw(st.sampled_from(sorted(p.edges)))
        flipped = (src, dst, kind, "def" if label == "ref" else "ref")
        edges = p.edges - {(src, dst, kind, label)} | {flipped}
        q = PatternGraph(nodes, edges, p.map_edges)
    if how == "toggle":
        u = draw(st.integers(0, len(nodes) - 1))
        v = draw(st.integers(0, len(nodes) - 1))
        label = draw(st.sampled_from(["ref", "def", MAP]))
        if label == MAP:
            q = PatternGraph(nodes, p.edges, p.map_edges ^ {(u, v)})
        else:
            q = PatternGraph(nodes, p.edges ^ {(u, v, "Data", label)},
                             p.map_edges)
    return p, _permuted(q, draw(st.integers(0, 10_000)))


# 0 -def- 1 -ref- 2, two-way, with a ref self-loop on 0 and a def one on 2.
_LABELLED_PATH = PatternGraph(
    tuple(TNode("Before", "Data", "var", "var") for _ in range(3)),
    frozenset((src, dst, "Data", label) for src, dst, label in [
        (0, 0, "ref"), (0, 1, "def"), (1, 0, "def"),
        (1, 2, "ref"), (2, 1, "ref"), (2, 2, "def")]),
    frozenset())


# Refinement leaves every node of these in one class. The first pair is not
# isomorphic; node 0 of the second pair lies on cycles of different length;
# the ends of the path have the same neighbours under other labels, so they
# are not twins.
@given(_graph_pairs())
@example((_cycles([6]), _cycles([3, 3])))
@example((_cycles([4, 3]), _cycles([3, 4])))
@example((_LABELLED_PATH, _renumbered(_LABELLED_PATH, [1, 2, 0])))
@settings(max_examples=300, deadline=None)
def test_equal_keys_exactly_for_isomorphic_cyclic_graphs(pair):
    p, q = pair
    same_key = canonical_key(p) == canonical_key(q)
    assert same_key == brute_force_isomorphic(p, q)


# ---------------------------------------------------------------------------
# Mining end to end
# ---------------------------------------------------------------------------


def test_planted_fig2_corpus_yields_single_cross_project_pattern():
    result = mine(fig2_corpus(), MiningConfig())
    assert len(result.patterns) == 1
    record = result.patterns[0]
    assert record.support == 3
    assert record.project_ids == ["ra", "rb", "rc"]
    labels = {(record.graph.nodes[b].label, record.graph.nodes[a].label)
              for b, a in record.graph.call_pairs()}
    assert ("?.add", "?.update") in labels


def test_one_edit_is_one_occurrence():
    # Three symmetric ``?.strip`` call pairs around one changed call: one
    # change graph, so no pattern reaches the default min_freq of 3.
    record = change_record(
        "def f(a, b, c, s):\n"
        "    return s.startswith(a.strip(), b.strip(), c.strip())\n",
        "def f(a, b, c, s):\n"
        "    return s.endswith(a.strip(), b.strip(), c.strip())\n")
    assert len(CorpusGraph(record).map_call_pairs) == 4
    assert mine(load_corpus([record]), MiningConfig()).patterns == []


def test_every_emitted_binding_reverifies():
    corpus = fig2_corpus()
    index = {g.id: g for g in corpus}
    result = mine(corpus, MiningConfig(keep_subpatterns=True))
    assert result.patterns
    for record in result.patterns:
        for gid, binding in record.instances:
            assert verify_instance(record.graph, index[gid], binding)
        assert support_of(record.instances) == record.support
        assert any(
            all(binding[idx] in index[gid].changed
                for gid, binding in record.instances)
            for idx in range(record.graph.size))
        assert record.graph.call_pairs()


def test_threshold_monotonicity():
    corpus = fig2_corpus()
    base = mine(corpus, MiningConfig(keep_subpatterns=True))
    higher_freq = mine(corpus, MiningConfig(min_freq=4, keep_subpatterns=True))
    larger_size = mine(corpus, MiningConfig(min_size=6, keep_subpatterns=True))
    assert len(higher_freq.patterns) <= len(base.patterns)
    assert len(larger_size.patterns) <= len(base.patterns)


def test_determinism_across_runs():
    keys1 = [r.canonical_key for r in mine(fig2_corpus(), MiningConfig()).patterns]
    keys2 = [r.canonical_key for r in mine(fig2_corpus(), MiningConfig()).patterns]
    assert keys1 == keys2


def _record_with(size: int, instances, edges: int = 0) -> PatternRecord:
    sig = TNode("Before", "Operation", "call", "f")
    return PatternRecord(
        graph=PatternGraph(tuple(sig for _ in range(size)),
                           frozenset((0, 1, "Data", f"l{k}") for k in range(edges)),
                           frozenset({(0, 0)})),
        instances=instances, canonical_key=f"k{size}", project_ids=["r"])


def test_filter_maximal_drops_contained_chain():
    p = _record_with(2, [("g1", (0, 1)), ("g2", (0, 1)), ("g3", (0, 1))])
    q = _record_with(3, [("g1", (0, 1, 2)), ("g2", (0, 1, 2)), ("g3", (0, 1, 2))])
    r = _record_with(4, [("g1", (0, 1, 2, 3)), ("g2", (0, 1, 2, 3)),
                         ("g3", (0, 1, 2, 3))])
    kept = filter_maximal([p, q, r])
    assert kept == [r]


def test_filter_maximal_keeps_pattern_with_wider_coverage():
    p = _record_with(2, [("g1", (0, 1)), ("g2", (0, 1)), ("g3", (0, 1)),
                         ("g4", (0, 1)), ("g5", (0, 1))])
    q = _record_with(3, [("g1", (0, 1, 2)), ("g2", (0, 1, 2)), ("g3", (0, 1, 2))])
    kept = filter_maximal([p, q])
    assert p in kept and q in kept


def test_filter_maximal_equal_size_with_more_edges_dominates():
    loose = _record_with(3, [("g1", (0, 1, 2)), ("g2", (3, 4, 5))])
    pinned = _record_with(3, [("g1", (0, 1, 2)), ("g2", (3, 4, 5)),
                              ("g3", (0, 1, 2))], edges=1)
    assert filter_maximal([loose, pinned]) == [pinned]


def test_filter_maximal_equal_bulk_never_drops_either():
    p = _record_with(3, [("g1", (0, 1, 2))], edges=1)
    q = _record_with(3, [("g1", (0, 1, 2))], edges=1)
    kept = filter_maximal([p, q])
    assert len(kept) == 2 and kept[0] is p and kept[1] is q


@st.composite
def _filter_inputs(draw):
    """Records with at most one instance per change graph, as ``mine`` keeps."""
    records = []
    for _ in range(draw(st.integers(0, 8))):
        size = draw(st.integers(2, 4))
        instances = draw(st.dictionaries(
            st.sampled_from(["g1", "g2", "g3"]),
            st.lists(st.integers(0, 5), min_size=size,
                     max_size=size, unique=True).map(tuple),
            min_size=1))
        records.append(_record_with(size, sorted(instances.items()),
                                    edges=draw(st.integers(0, 2))))
    empty = _record_with(draw(st.integers(2, 4)), [],
                         edges=draw(st.integers(0, 2)))
    records.insert(draw(st.integers(0, len(records))), empty)
    return records


@given(_filter_inputs())
@settings(max_examples=300, deadline=None)
def test_filter_maximal_matches_pairwise_scan(records):
    kept = filter_maximal(records)
    expected = brute_force_filter_maximal(records)
    assert [id(r) for r in kept] == [id(r) for r in expected]


@st.composite
def _records_with_projects(draw):
    """Filter inputs whose project ids are the repos of their instances."""
    records = draw(_filter_inputs())
    repo_of = {gid: draw(st.sampled_from(["ra", "rb"]))
               for gid in ("g1", "g2", "g3")}
    for record in records:
        record.project_ids = sorted({repo_of[gid] for gid, _ in record.instances})
    return records


@given(_records_with_projects())
@settings(max_examples=300, deadline=None)
def test_cross_project_filter_commutes_with_maximality_filter(records):
    projects_first = filter_maximal(filter_cross_project(records))
    maximal_first = filter_cross_project(filter_maximal(records))
    assert [id(r) for r in projects_first] == [id(r) for r in maximal_first]


def test_filter_cross_project():
    multi = _record_with(2, [("g1", (0, 1))])
    multi.project_ids = ["a", "b"]
    single = _record_with(2, [("g2", (0, 1))])
    single.project_ids = ["a"]
    assert filter_cross_project([multi, single]) == [multi]


def test_work_bound_warns_and_keeps_output_byte_stable(tmp_path, monkeypatch):
    monkeypatch.setattr(mining, "SEED_WORK_BOUND", 30)
    store = ChangeGraphStore(tmp_path / "store")
    for i, repo in enumerate(("ra", "rb", "rc")):
        store.append(change_record(FIG2_BEFORE, FIG2_AFTER, repo, f"c{i}"))
    store.finalize({}, {})
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["patterns", "--store", str(store.root),
                         "--out", str(out)]) == 0
        runs.append({path.relative_to(out).as_posix(): path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()})
    assert runs[0] == runs[1]
    manifest = json.loads(runs[0]["manifest.json"])
    assert manifest["pattern_count"] == 1
    assert manifest["warnings"] == [
        f"budget exceeded for seed {seed} after 30 instance bindings; "
        "partial results kept"
        for seed in ("?.add -> ?.update", "set -> set")]


# ---------------------------------------------------------------------------
# Oracle equivalence (quick sample; the full 50-corpus run is in acceptance)
# ---------------------------------------------------------------------------


def _random_fragment(rng: random.Random) -> dict:
    """A small recurring change motif: mapped call pair plus attachments."""
    label_b = rng.choice(["f", "g", "?.h", "?.k"])
    label_a = rng.choice(["f2", "?.h2", label_b])
    changed_calls = rng.random() < 0.8 or label_b != label_a
    nodes = [("Operation", "call", label_b, "Before", changed_calls),
             ("Operation", "call", label_a, "After", changed_calls)]
    edges: list[tuple[int, int, str, str]] = []
    maps: list[tuple[int, int]] = [(0, 1)]
    attach_b, attach_a = None, None
    for version, call_idx in (("Before", 0), ("After", 1)):
        for _ in range(rng.randint(0, 2)):
            sig = rng.choice([("Data", "var", "var"),
                              ("Data", "literal", rng.choice(["0", "1"]))])
            idx = len(nodes)
            nodes.append((*sig, version, rng.random() < 0.4))
            label = rng.choice(["ref", "para", "recv", "def"])
            if rng.random() < 0.8:
                edges.append((idx, call_idx, "Data", label))
            else:
                edges.append((call_idx, idx, "Data", label))
            if version == "Before":
                attach_b = (idx, sig)
            elif attach_a is None:
                attach_a = (idx, sig)
    if attach_b and attach_a and attach_b[1] == attach_a[1] and rng.random() < 0.6:
        maps.append((attach_b[0], attach_a[0]))
    return {"nodes": nodes, "edges": edges, "maps": maps}


def random_corpus(seed: int) -> list[CorpusGraph]:
    """Tiny corpora with planted recurring fragments plus random noise."""
    rng = random.Random(seed)
    fragments = [_random_fragment(rng) for _ in range(rng.randint(2, 3))]
    records = []
    for gi in range(rng.randint(3, 6)):
        nodes: list[tuple] = []
        edges: set[tuple] = set()
        maps: set[tuple] = set()
        changed: set[int] = set()
        for fragment in rng.sample(fragments, rng.randint(1, min(2, len(fragments)))):
            if len(nodes) + len(fragment["nodes"]) > 10:
                continue
            offset = len(nodes)
            for kind, subkind, label, version, is_changed in fragment["nodes"]:
                if is_changed:
                    changed.add(len(nodes))
                nodes.append((kind, subkind, label, version))
            edges |= {(s + offset, d + offset, k, l)
                      for s, d, k, l in fragment["edges"]}
            maps |= {(b + offset, a + offset) for b, a in fragment["maps"]}
        if not nodes:
            continue
        for _ in range(rng.randint(0, 2)):  # noise nodes and edges
            if len(nodes) >= 12:
                break
            idx = len(nodes)
            version = rng.choice(["Before", "After"])
            nodes.append(("Data", "var", "var", version))
            if rng.random() < 0.5:
                changed.add(idx)
            same_side = [i for i in range(idx)
                         if nodes[i][3] == version]
            if same_side:
                other = rng.choice(same_side)
                edges.add((idx, other, "Data", rng.choice(["ref", "para"])))
        records.append(synth_record(
            f"g{gi}", f"r{gi % 2}", nodes, sorted(edges), sorted(maps), changed))
    return load_corpus(records)


_ORACLE_CFG = MiningConfig(min_size=3, min_freq=2, max_size=6,
                           keep_subpatterns=True)


def test_filter_maximal_matches_oracle_on_mined_patterns():
    # Unfiltered search output: one instance per change graph, as the
    # filter assumes; the oracle makes no such assumption.
    total = dominated = 0
    for seed in range(50):
        patterns = mine(random_corpus(seed), _ORACLE_CFG).patterns
        for record in patterns:
            gids = [gid for gid, _ in record.instances]
            assert len(gids) == len(set(gids))
        kept = filter_maximal(patterns)
        assert ([id(r) for r in kept]
                == [id(r) for r in brute_force_filter_maximal(patterns)])
        total += len(patterns)
        dominated += len(patterns) - len(kept)
    assert 0 < dominated < total


@pytest.mark.parametrize("seed", range(10))
def test_mining_matches_oracle_on_random_corpus(seed):
    corpus = random_corpus(seed)
    mined = mine(corpus, _ORACLE_CFG)
    mined_keys = {record.canonical_key for record in mined.patterns}
    oracle_keys = oracle_pattern_keys(corpus, _ORACLE_CFG)
    assert mined_keys == oracle_keys

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from changeminer.mapping import (TreeMapping, _match_bottom_up, _match_top_down,
                                 _recover_leaves, _TreeIndex, map_asts,
                                 project_mapping)
from changeminer.pdg import build_fgpdg
from changeminer.source import AstNode, parse_source

from _oracle import reference_match_bottom_up
from conftest import FIG2_AFTER, FIG2_BEFORE, build_unit


def _count_nodes(tree) -> int:
    return sum(1 for _ in tree.preorder())


def test_identical_trees_map_every_node():
    a = parse_source("def f(x):\n    return x + 1\n")
    b = parse_source("def f(x):\n    return x + 1\n")
    mapping = map_asts(a, b)
    assert len(mapping) == _count_nodes(a) == _count_nodes(b)


def test_single_node_trees_map_roots():
    mapping = map_asts(parse_source(""), parse_source(""))
    assert len(mapping) == 1


def test_disjoint_trees_map_at_most_roots():
    a = parse_source("x = 1")
    b = parse_source("def g():\n    pass\n")
    mapping = map_asts(a, b)
    assert len(mapping) <= 1
    if mapping.pairs:
        before, after = mapping.pairs[0]
        assert before.kind == after.kind == "Module"


def test_fig2_maps_renamed_call_and_shared_variables():
    unit_b, _ = build_unit(FIG2_BEFORE)
    unit_a, _ = build_unit(FIG2_AFTER)
    mapping = map_asts(unit_b.body, unit_a.body)
    call_pairs = [(b, a) for b, a in mapping.pairs if b.kind == "Call"]
    attr_calls = [
        (b, a) for b, a in call_pairs
        if b.children[0].kind == "Attribute" and a.children[0].kind == "Attribute"
    ]
    assert any(b.children[0].label == "add" and a.children[0].label == "update"
               for b, a in attr_calls)
    name_pairs = {(b.label, a.label) for b, a in mapping.pairs if b.kind == "Name"}
    assert ("collection", "collection") in name_pairs
    assert ("data", "data") in name_pairs


def test_mapping_is_injective_and_kind_preserving():
    unit_b, _ = build_unit(FIG2_BEFORE)
    unit_a, _ = build_unit(FIG2_AFTER)
    mapping = map_asts(unit_b.body, unit_a.body)
    befores = [id(b) for b, _ in mapping.pairs]
    afters = [id(a) for _, a in mapping.pairs]
    assert len(befores) == len(set(befores))
    assert len(afters) == len(set(afters))
    assert all(b.kind == a.kind for b, a in mapping.pairs)


PINNED_BEFORE = """\
def pick(items, key):
    first = lookup(items, key)
    if first is None:
        return default(items)
    result = [item.name for item in items if item.ok]
    notify(key)
    return result
"""

PINNED_AFTER = """\
def pick(items, key):
    notify(key)
    first = lookup(items, key)
    if first is None or key:
        return default(items, key)
    result = [item.name for item in items if item.ok]
    notify(key)
    return sorted(result)
"""


def test_pinned_pair_maps_to_the_recorded_pairs():
    # Every phase adds pairs: top-down pairs the before side's `notify(key)`
    # (preorder 31) with the nearer of the after side's two copies (38, not
    # 5); Dice pairs the body block and the `default(...)` call; recovery
    # pairs equal leaves; the `if` and the last `return` are each the sole
    # unmatched child of their kind under the matched body.
    unit_b, _ = build_unit(PINNED_BEFORE)
    unit_a, _ = build_unit(PINNED_AFTER)
    mapping = map_asts(unit_b.body, unit_a.body)
    position_b = {node: i for i, node in enumerate(unit_b.body.preorder())}
    position_a = {node: i for i, node in enumerate(unit_a.body.preorder())}
    assert [(position_b[b], position_a[a]) for b, a in mapping.pairs] == [
        (20, 27), (21, 28), (22, 29), (23, 30), (24, 31), (25, 32), (26, 33),
        (27, 34), (28, 35), (29, 36), (30, 37), (5, 9), (6, 10), (7, 11),
        (8, 12), (9, 13), (10, 14), (31, 38), (32, 39), (33, 40), (34, 41),
        (1, 1), (2, 2), (3, 3), (12, 17), (13, 18), (14, 19), (0, 0), (4, 4),
        (18, 24), (19, 25), (36, 45), (11, 15), (35, 42), (17, 23), (16, 22),
        (15, 21),
    ]


@pytest.mark.parametrize("before, after", [(FIG2_BEFORE, FIG2_AFTER),
                                           (PINNED_BEFORE, PINNED_AFTER)],
                         ids=["fig2", "pinned"])
def test_projection_does_not_depend_on_the_order_of_pairs(before, after):
    (unit_b, imports_b), (unit_a, imports_a) = build_unit(before), build_unit(after)
    g_b, g_a = build_fgpdg(unit_b, imports_b), build_fgpdg(unit_a, imports_a)
    mapping = map_asts(unit_b.body, unit_a.body)
    expected = project_mapping(mapping, g_b, g_a)
    assert expected
    rng = random.Random(0)
    for _ in range(20):
        pairs = list(mapping.pairs)
        rng.shuffle(pairs)
        shuffled = TreeMapping()
        for pair in pairs:
            shuffled.add(*pair)
        assert project_mapping(shuffled, g_b, g_a) == expected


def _sum_chain(first: str) -> str:
    # 297 terms: the deepest sum a function unit converts (``MAX_NESTING``).
    return "def f(a):\n    return " + " + ".join([first] + ["a"] * 296) + "\n"


def _subscript_chain(name: str) -> str:
    # 296 subscripts, as deep in ``ast`` levels as the 297-term sum.
    return "def f(a):\n    return " + name + "[0]" * 296 + "\n"


def _elif_chain(call: str) -> str:
    lines = ["def f(a):", "    if a == 0:", "        g0()"]
    for i in range(1, 100):
        lines += [f"    elif a == {i}:", f"        g{i}()"]
    lines += ["    else:", f"        {call}()"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chain, old, new", [
    (_sum_chain, "b", "c"), (_subscript_chain, "x", "y"), (_elif_chain, "h", "k"),
], ids=["sum", "subscript", "elif"])
def test_deep_chain_leaves_only_the_renamed_leaf_unmatched(chain, old, new):
    body_b, body_a = build_unit(chain(old))[0].body, build_unit(chain(new))[0].body
    mapping = map_asts(body_b, body_a)
    left_b = [n for n in body_b.preorder() if not mapping.has_before(n)]
    left_a = [n for n in body_a.preorder() if not mapping.has_after(n)]
    assert [(n.kind, n.label, n.is_leaf()) for n in left_b] == [("Name", old, True)]
    assert [(n.kind, n.label, n.is_leaf()) for n in left_a] == [("Name", new, True)]


def _leaf(kind, label):
    return AstNode(kind, label)


def _tree(spec):
    kind, label, children = spec
    node = AstNode(kind, label)
    for child in children:
        node.add(_tree(child))
    return node


def _bottom_up_pairs_roots(n1, n2, mapped) -> bool:
    """Whether bottom-up pairs the roots once the ``mapped`` children are."""
    interned: dict = {}
    partial = TreeMapping()
    for i in mapped:
        partial.add(n1.children[i], n2.children[i])
    _match_bottom_up(_TreeIndex(n1, interned), _TreeIndex(n2, interned), partial)
    return partial.after_of(n1) is n2


def test_bottom_up_pairs_at_dice_one_half():
    # 2 mapped pairs with |desc| = 3 and 5 gives 2*2/(3+5) = 0.5, the
    # threshold; with one of them, 2*1/8 = 0.25.
    n1 = _tree(("A", "", [("B", "x", []), ("B", "y", []), ("B", "z", [])]))
    n2 = _tree(("A", "", [("B", "x", []), ("B", "y", []), ("B", "q", []),
                          ("B", "r", []), ("B", "s", [])]))
    assert _bottom_up_pairs_roots(n1, n2, [0, 1])
    assert not _bottom_up_pairs_roots(n1, n2, [0])
    assert not _bottom_up_pairs_roots(n1, n2, [])


def test_bottom_up_pairs_fully_mapped_containers_only():
    n1 = _tree(("A", "", [("B", str(i), []) for i in range(4)]))
    n2 = _tree(("A", "", [("B", str(i), []) for i in range(4)]))
    assert _bottom_up_pairs_roots(n1, n2, range(4))
    assert not _bottom_up_pairs_roots(n1, n2, [])
    assert not _bottom_up_pairs_roots(_leaf("A", ""), _leaf("A", ""), [])


def test_bottom_up_pairs_from_three_of_five_mapped_children():
    # Dice is 2k/10 with k of the five children mapped: 0.4 at k = 2, 0.6 at 3.
    n1 = _tree(("A", "", [("B", str(i), []) for i in range(5)]))
    n2 = _tree(("A", "", [("B", str(i), []) for i in range(5)]))
    assert [_bottom_up_pairs_roots(n1, n2, range(k)) for k in range(6)] == \
        [False, False, False, True, True, True]


def test_bottom_up_pairs_the_nearer_of_equally_scored_candidates():
    # The before C (preorder index 5) scores 2*1/(2+2) = 0.5 against both
    # after Cs; the second (index 4) is nearer than the first (index 1).
    n1 = _tree(("R", "", [("D", "", [("L", "1", []), ("L", "2", []), ("L", "3", [])]),
                          ("C", "", [("B", "x", []), ("B", "y", [])])]))
    n2 = _tree(("R", "", [("C", "", [("B", "x", []), ("B", "q", [])]),
                          ("C", "", [("B", "y", []), ("B", "r", [])])]))
    container_b = n1.children[1]
    far_a, near_a = n2.children
    partial = TreeMapping()
    partial.add(container_b.children[0], far_a.children[0])
    partial.add(container_b.children[1], near_a.children[0])
    interned: dict = {}
    _match_bottom_up(_TreeIndex(n1, interned), _TreeIndex(n2, interned), partial)
    assert partial.after_of(container_b) is near_a


_tree_strategy = st.recursive(
    st.sampled_from([("Name", "x"), ("Name", "y"), ("Literal", "1")]).map(
        lambda kl: (kl[0], kl[1], [])),
    lambda children: st.tuples(
        st.sampled_from(["Assign", "Call", "If", "Block"]),
        st.just(""),
        st.lists(children, min_size=1, max_size=3)),
    max_leaves=12,
)


@given(_tree_strategy)
def test_self_mapping_is_total_for_random_trees(spec):
    t1, t2 = _tree(spec), _tree(spec)
    mapping = map_asts(t1, t2)
    assert len(mapping) == _count_nodes(t1)
    assert all(b.kind == a.kind and b.label == a.label for b, a in mapping.pairs)


@given(_tree_strategy, _tree_strategy)
def test_random_pairs_stay_injective(spec1, spec2):
    t1, t2 = _tree(spec1), _tree(spec2)
    mapping = map_asts(t1, t2)
    assert len({id(b) for b, _ in mapping.pairs}) == len(mapping.pairs)
    assert len({id(a) for _, a in mapping.pairs}) == len(mapping.pairs)
    assert all(b.kind == a.kind for b, a in mapping.pairs)
    # Below the roots, which are paired on kind alone, leaves pair with
    # leaves of equal kind and label.
    below_roots = [(b, a) for b, a in mapping.pairs if not (b is t1 and a is t2)]
    assert all(b.is_leaf() == a.is_leaf() for b, a in below_roots)
    assert all(b.label == a.label for b, a in below_roots if b.is_leaf())


@given(_tree_strategy, _tree_strategy)
def test_matching_stops_where_the_loop_over_both_phases_does(spec1, spec2):
    t1, t2 = _tree(spec1), _tree(spec2)
    interned: dict = {}
    i1, i2 = _TreeIndex(t1, interned), _TreeIndex(t2, interned)
    reference = TreeMapping()
    _match_top_down(i1, i2, reference)
    if not reference.has_before(t1) and not reference.has_after(t2) \
            and t1.kind == t2.kind:
        reference.add(t1, t2)
    size = None
    while size != len(reference):
        size = len(reference)
        _match_bottom_up(i1, i2, reference)
        _recover_leaves(i1, i2, reference)
    assert map_asts(t1, t2).pairs == reference.pairs


@given(_tree_strategy, _tree_strategy)
def test_bottom_up_pairs_as_the_rescanning_reference_does(spec1, spec2):
    t1, t2 = _tree(spec1), _tree(spec2)
    interned: dict = {}
    i1, i2 = _TreeIndex(t1, interned), _TreeIndex(t2, interned)
    engine, reference = TreeMapping(), TreeMapping()
    _match_top_down(i1, i2, engine)
    _match_top_down(i1, i2, reference)
    # Each round starts from the same pairs, recovered after the last one.
    while True:
        _match_bottom_up(i1, i2, engine)
        reference_match_bottom_up(i1, i2, reference)
        assert engine.pairs == reference.pairs
        _recover_leaves(i1, i2, reference)
        if not _recover_leaves(i1, i2, engine):
            break

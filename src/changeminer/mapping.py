"""Before/after tree correspondence and its projection onto dependence graphs.

Each tree is indexed once (``_TreeIndex``). Matching then runs in two
phases: a greedy top-down pass that pairs maximal isomorphic subtrees,
tallest first, then a bottom-up pass that pairs containers whose descendants
already share enough matches (Dice coefficient), interleaved with a recovery
pass that pairs remaining equal leaves under matched containers. Recovered
leaves can unlock further container matches, so bottom-up runs again after
each recovery pass that adds a pair.

Bottom-up scores each unmatched container in one pass over its descendants.
The pass collects the sorted after-tree preorder indices of their partners
and, as candidates, the unmatched same-kind ancestors of those partners. A
candidate's descendants are a range of preorder indices, so the pairs below
both containers are counted by two bisections of the sorted indices, and
the Dice coefficient is twice that count over the two descendant counts.

The matcher computes a set of pairs: ``TreeMapping.pairs`` lists them in an
order that is fixed for given trees but means nothing. Apart from the roots,
which are paired on kind alone, a leaf is paired only with a leaf of equal
kind and label: top-down pairs equal subtrees node for node, recovery pairs
the leaves of one (kind, label) group, and the other phases pair containers.
``project_mapping`` relies on this.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .source import AstNode


# Smallest subtree height the top-down phase pairs as a whole.
MIN_HEIGHT = 2
# Least Dice coefficient at which the bottom-up phase pairs two containers.
DICE_THRESHOLD = 0.5
# Most candidates compared per subtree, and leaves paired per label group.
MAX_SUBTREE_COMPARE = 100


@dataclass
class TreeMapping:
    """Injective pairing of before-tree nodes to after-tree nodes."""

    _fwd: dict[AstNode, AstNode] = field(default_factory=dict, repr=False)
    _bwd: dict[AstNode, AstNode] = field(default_factory=dict, repr=False)

    @property
    def pairs(self) -> list[tuple[AstNode, AstNode]]:
        """The (before, after) pairs, in the order they were added."""
        return list(self._fwd.items())

    def add(self, before: AstNode, after: AstNode) -> bool:
        if before in self._fwd or after in self._bwd:
            return False
        self._fwd[before] = after
        self._bwd[after] = before
        return True

    def has_before(self, node: AstNode) -> bool:
        return node in self._fwd

    def has_after(self, node: AstNode) -> bool:
        return node in self._bwd

    def after_of(self, node: AstNode) -> AstNode | None:
        return self._fwd.get(node)

    def before_of(self, node: AstNode) -> AstNode | None:
        return self._bwd.get(node)

    def __len__(self) -> int:
        return len(self._fwd)


class _TreeIndex:
    """Per-tree tables keyed by node, built from the preorder.

    A node's subtree is ``order[index:end]`` and its descendants are
    ``order[index + 1:end]``, so "is a descendant of" is a range test on
    preorder indices (as in GumTree). ``height`` is 1 at a leaf and
    ``by_height`` lists the nodes of each height in preorder; every height
    from 1 to the root's has nodes. A ``fingerprint`` is the int that
    ``interned``, a table the trees being compared share, assigns to the
    node's kind, label and children's fingerprints: equal fingerprints mean
    equal subtrees, exactly. ``parent`` maps each node but the root to its
    parent, since tree nodes keep no parent link.
    """

    def __init__(self, root: AstNode, interned: dict[tuple, int]):
        self.order = list(root.preorder())
        self.index: dict[AstNode, int] = {}
        self.end: dict[AstNode, int] = {}
        self.height: dict[AstNode, int] = {}
        self.fingerprint: dict[AstNode, int] = {}
        self.parent: dict[AstNode, AstNode] = {
            child: node for node in self.order for child in node.children}
        self.by_height: dict[int, list[AstNode]] = {}
        # Backwards through the preorder, so children come before parents.
        for i in range(len(self.order) - 1, -1, -1):
            node = self.order[i]
            children = node.children
            height = 1 + max((self.height[c] for c in children), default=0)
            self.index[node] = i
            self.end[node] = self.end[children[-1]] if children else i + 1
            self.height[node] = height
            self.fingerprint[node] = interned.setdefault(
                (node.kind, node.label, *(self.fingerprint[c] for c in children)),
                len(interned))
            self.by_height.setdefault(height, []).append(node)
        for nodes in self.by_height.values():
            nodes.reverse()

    def descendants(self, node: AstNode) -> list[AstNode]:
        """The proper descendants of ``node``, in preorder."""
        return self.order[self.index[node] + 1:self.end[node]]


def map_asts(before: AstNode, after: AstNode) -> TreeMapping:
    interned: dict[tuple, int] = {}
    t1, t2 = _TreeIndex(before, interned), _TreeIndex(after, interned)
    mapping = TreeMapping()
    _match_top_down(t1, t2, mapping)
    if not mapping.has_before(before) and not mapping.has_after(after) \
            and before.kind == after.kind:
        mapping.add(before, after)
    # A container's bottom-up outcome depends only on pairs whose before node
    # lies below it, all made earlier in postorder; so once recovery adds
    # nothing, another bottom-up pass would add nothing either.
    _match_bottom_up(t1, t2, mapping)
    while _recover_leaves(t1, t2, mapping):
        _match_bottom_up(t1, t2, mapping)
    return mapping


def _match_top_down(t1: _TreeIndex, t2: _TreeIndex,
                    mapping: TreeMapping) -> None:
    # Only whole subtrees are paired here, tallest first, so every
    # descendant of a matched node is matched and each pairing below adds
    # all the nodes of both subtrees. No node of height h lies below another,
    # so the fingerprint groups of one height can go in any order.
    top = min(max(t1.by_height), max(t2.by_height))
    for h in range(top, MIN_HEIGHT - 1, -1):
        by_fp: dict[int, tuple[list[AstNode], list[AstNode]]] = {}
        for node in t1.by_height[h]:
            if not mapping.has_before(node):
                by_fp.setdefault(t1.fingerprint[node], ([], []))[0].append(node)
        for node in t2.by_height[h]:
            if not mapping.has_after(node):
                fp = t2.fingerprint[node]
                if fp in by_fp:
                    by_fp[fp][1].append(node)
        for candidates_b, candidates_a in by_fp.values():
            # Only this loop pairs a node of the group, so ``candidates_a``
            # holds the group's unmatched after nodes once the chosen go.
            for node_b in candidates_b:
                if not candidates_a:
                    break
                node_a = min(candidates_a[:MAX_SUBTREE_COMPARE],
                             key=lambda n: abs(t1.index[node_b] - t2.index[n]))
                candidates_a.remove(node_a)
                # Equal fingerprints, equal shapes: pair node for node.
                for pair in zip(t1.order[t1.index[node_b]:t1.end[node_b]],
                                t2.order[t2.index[node_a]:t2.end[node_a]]):
                    mapping.add(*pair)


def _match_bottom_up(t1: _TreeIndex, t2: _TreeIndex,
                     mapping: TreeMapping) -> None:
    for node_b in reversed(t1.order):  # children before parents
        if node_b.is_leaf() or mapping.has_before(node_b):
            continue
        partners: list[int] = []
        candidates: list[AstNode] = []
        seen: set[AstNode] = set()
        for desc in t1.descendants(node_b):
            partner = mapping.after_of(desc)
            if partner is None:
                continue
            partners.append(t2.index[partner])
            anc = t2.parent.get(partner)
            while anc is not None and anc not in seen:
                seen.add(anc)
                if anc.kind == node_b.kind and not mapping.has_after(anc):
                    candidates.append(anc)
                anc = t2.parent.get(anc)
        partners.sort()
        size_b = t1.end[node_b] - t1.index[node_b] - 1
        ranked = []
        for node_a in candidates:
            first, end = t2.index[node_a] + 1, t2.end[node_a]
            # Dice: 2 * |mapped pairs below both| / (|desc b| + |desc a|).
            mapped = bisect_left(partners, end) - bisect_left(partners, first)
            score = 2.0 * mapped / (size_b + end - first)
            if score >= DICE_THRESHOLD:
                distance = abs(t1.index[node_b] - t2.index[node_a])
                ranked.append((-score, distance, t2.index[node_a], node_a))
        if ranked:  # preorder indices differ, so no two ranks tie
            mapping.add(node_b, min(ranked)[3])


def _recover_leaves(t1: _TreeIndex, t2: _TreeIndex,
                    mapping: TreeMapping) -> bool:
    """Pair equal leaves and sole children under matched containers.

    Returns whether a pair was added.
    """
    size = len(mapping)
    # Innermost containers claim their leaves first (postorder of before tree).
    for container_b in reversed(t1.order):
        container_a = mapping.after_of(container_b)
        if container_a is None or container_b.is_leaf():
            continue
        groups: dict[tuple[str, str], tuple[list[AstNode], list[AstNode]]] = {}
        for leaf in t1.descendants(container_b):
            if leaf.is_leaf() and not mapping.has_before(leaf):
                groups.setdefault((leaf.kind, leaf.label), ([], []))[0].append(leaf)
        for leaf in t2.descendants(container_a):
            if leaf.is_leaf() and not mapping.has_after(leaf):
                key = (leaf.kind, leaf.label)
                if key in groups:
                    groups[key][1].append(leaf)
        for leaves_b, leaves_a in groups.values():  # disjoint, in preorder
            for leaf_b, leaf_a in zip(leaves_b[:MAX_SUBTREE_COMPARE],
                                      leaves_a[:MAX_SUBTREE_COMPARE]):
                mapping.add(leaf_b, leaf_a)
        _pair_unique_children(container_b, container_a, mapping)
    return len(mapping) > size


def _pair_unique_children(container_b: AstNode, container_a: AstNode,
                          mapping: TreeMapping) -> None:
    """Pair the sole unmatched internal child of one kind on each side.

    Unambiguous container alignment under an already matched parent; it is
    what lets a rewritten call keep its identity when too few leaves survive
    for the Dice test (receiver turned into an argument, say).
    """
    def open_children(container: AstNode, matched) -> dict[str, list[AstNode]]:
        out: dict[str, list[AstNode]] = {}
        for child in container.children:
            if not child.is_leaf() and not matched(child):
                out.setdefault(child.kind, []).append(child)
        return out

    open_b = open_children(container_b, mapping.has_before)
    open_a = open_children(container_a, mapping.has_after)
    for kind, children_b in open_b.items():
        children_a = open_a.get(kind, ())
        if len(children_b) == 1 and len(children_a) == 1:
            mapping.add(children_b[0], children_a[0])


def project_mapping(tm: TreeMapping, g_before, g_after) -> list[tuple]:
    """Project an AST mapping onto two dependence graphs.

    A graph-node pair is mapped when any of their generating syntax nodes are
    mapped and the node kinds agree. For a mapping made by ``map_asts`` each
    graph node has at most one partner, so the result does not depend on the
    order of ``tm.pairs``: a node other than a variable has one syntax origin,
    which has at most one partner; a variable's origins are ``Name`` leaves,
    each paired only with a ``Name`` leaf of the same label, which is an
    origin of the one variable of that name. ``used_b`` and ``used_a`` keep
    the result injective for a hand-built mapping as well.
    """
    index_b = _origin_index(g_before)
    index_a = _origin_index(g_after)
    used_b: set[int] = set()
    used_a: set[int] = set()
    pairs = []
    for ast_b, ast_a in tm.pairs:
        fg_b = index_b.get(ast_b)
        fg_a = index_a.get(ast_a)
        if fg_b is None or fg_a is None or fg_b.kind != fg_a.kind:
            continue
        if fg_b.id in used_b or fg_a.id in used_a:
            continue
        used_b.add(fg_b.id)
        used_a.add(fg_a.id)
        pairs.append((fg_b, fg_a))
    pairs.sort(key=lambda p: (p[0].id, p[1].id))
    return pairs


def _origin_index(graph) -> dict[AstNode, object]:
    index: dict[AstNode, object] = {}
    for node in graph.nodes:
        for origin in node.origins:
            index.setdefault(origin, node)
    return index

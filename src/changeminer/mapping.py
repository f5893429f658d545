"""Before/after tree correspondence and its projection onto dependence graphs.

Matching runs in two phases: a greedy top-down pass that pairs maximal
isomorphic subtrees, then a bottom-up pass that pairs containers whose
descendants already share enough matches (Dice coefficient), interleaved with
a recovery pass that pairs remaining equal leaves under matched containers.
The bottom-up/recovery pair iterates to a fixpoint because recovered leaves
can unlock further container matches.
"""

from __future__ import annotations

import hashlib
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

    pairs: list[tuple[AstNode, AstNode]] = field(default_factory=list)
    _fwd: dict[int, AstNode] = field(default_factory=dict, repr=False)
    _bwd: dict[int, AstNode] = field(default_factory=dict, repr=False)

    def add(self, before: AstNode, after: AstNode) -> bool:
        if id(before) in self._fwd or id(after) in self._bwd:
            return False
        self.pairs.append((before, after))
        self._fwd[id(before)] = after
        self._bwd[id(after)] = before
        return True

    def has_before(self, node: AstNode) -> bool:
        return id(node) in self._fwd

    def has_after(self, node: AstNode) -> bool:
        return id(node) in self._bwd

    def after_of(self, node: AstNode) -> AstNode | None:
        return self._fwd.get(id(node))

    def before_of(self, node: AstNode) -> AstNode | None:
        return self._bwd.get(id(node))

    def __len__(self) -> int:
        return len(self.pairs)


class _TreeIndex:
    """Per-tree tables: preorder index and end, height, fingerprints.

    A node's descendants are ``order[index + 1:end]``, so "is a descendant
    of" is a range test on preorder indices (as in GumTree).
    """

    def __init__(self, root: AstNode):
        self.root = root
        self.order: list[AstNode] = []
        self.index: dict[int, int] = {}
        self.end: dict[int, int] = {}
        self.height: dict[int, int] = {}
        self.fingerprint: dict[int, str] = {}
        self._build(root)

    def _build(self, root: AstNode) -> None:
        def visit(node: AstNode) -> tuple[int, str]:
            self.index[id(node)] = len(self.order)
            self.order.append(node)
            height = 1
            child_fps = []
            for child in node.children:
                c_height, c_fp = visit(child)
                height = max(height, c_height + 1)
                child_fps.append(c_fp)
            digest = hashlib.sha1(
                "|".join([node.kind, node.label] + child_fps).encode()
            ).hexdigest()
            self.end[id(node)] = len(self.order)
            self.height[id(node)] = height
            self.fingerprint[id(node)] = digest
            return height, digest

        visit(root)

    def descendants(self, node: AstNode) -> list[AstNode]:
        """The proper descendants of ``node``, in preorder."""
        return self.order[self.index[id(node)] + 1:self.end[id(node)]]


def dice(n1: AstNode, n2: AstNode, partial: TreeMapping,
         t1: _TreeIndex | None = None, t2: _TreeIndex | None = None) -> float:
    """Descendant-overlap ratio: 2*|mapped pairs under (n1, n2)| / (|d1|+|d2|).

    ``t1`` and ``t2`` index trees that hold n1 and n2; without them, n1 and
    n2 are indexed as roots of their own trees.
    """
    t1 = t1 if t1 is not None else _TreeIndex(n1)
    t2 = t2 if t2 is not None else _TreeIndex(n2)
    first, end = t1.index[id(n1)] + 1, t1.end[id(n1)]
    d2 = t2.descendants(n2)
    mapped = 0
    for n in d2:
        counterpart = partial.before_of(n)
        if counterpart is not None and \
                first <= t1.index.get(id(counterpart), -1) < end:
            mapped += 1
    denom = (end - first) + len(d2)
    if denom == 0:
        return 0.0
    return 2.0 * mapped / denom


def map_asts(before: AstNode, after: AstNode) -> TreeMapping:
    t1, t2 = _TreeIndex(before), _TreeIndex(after)
    mapping = TreeMapping()
    _match_top_down(t1, t2, mapping)
    if not mapping.has_before(before) and not mapping.has_after(after) \
            and before.kind == after.kind:
        mapping.add(before, after)
    changed = True
    while changed:
        changed = _match_bottom_up(t1, t2, mapping)
        changed = _recover_leaves(t1, t2, mapping) or changed
    return mapping


def _map_subtrees(a: AstNode, b: AstNode, mapping: TreeMapping) -> None:
    mapping.add(a, b)
    for ca, cb in zip(a.children, b.children):
        _map_subtrees(ca, cb, mapping)


def _match_top_down(t1: _TreeIndex, t2: _TreeIndex,
                    mapping: TreeMapping) -> None:
    heights = sorted(
        {h for h in t1.height.values() if h >= MIN_HEIGHT}
        & {h for h in t2.height.values() if h >= MIN_HEIGHT},
        reverse=True,
    )
    for h in heights:
        by_fp: dict[str, tuple[list[AstNode], list[AstNode]]] = {}
        for node in t1.order:
            if t1.height[id(node)] == h and not mapping.has_before(node):
                by_fp.setdefault(t1.fingerprint[id(node)], ([], []))[0].append(node)
        for node in t2.order:
            if t2.height[id(node)] == h and not mapping.has_after(node):
                fp = t2.fingerprint[id(node)]
                if fp in by_fp:
                    by_fp[fp][1].append(node)
        for fp in sorted(by_fp):
            candidates_b, candidates_a = by_fp[fp]
            if not candidates_a:
                continue
            taken: set[int] = set()
            for node_b in candidates_b:
                best = None
                compared = 0
                for node_a in candidates_a:
                    if id(node_a) in taken or mapping.has_after(node_a):
                        continue
                    compared += 1
                    if compared > MAX_SUBTREE_COMPARE:
                        break
                    parent_bonus = (
                        node_b.parent is not None and node_a.parent is not None
                        and mapping.after_of(node_b.parent) is node_a.parent
                    )
                    distance = abs(t1.index[id(node_b)] - t2.index[id(node_a)])
                    rank = (0 if parent_bonus else 1, distance)
                    if best is None or rank < best[0]:
                        best = (rank, node_a)
                if best is not None:
                    taken.add(id(best[1]))
                    _map_subtrees(node_b, best[1], mapping)


def _match_bottom_up(t1: _TreeIndex, t2: _TreeIndex,
                     mapping: TreeMapping) -> bool:
    added = False
    for node_b in reversed(t1.order):  # children before parents
        if node_b.is_leaf() or mapping.has_before(node_b):
            continue
        candidates = _container_candidates(node_b, t1, t2, mapping)
        best = None
        for node_a in candidates:
            score = dice(node_b, node_a, mapping, t1, t2)
            if score < DICE_THRESHOLD:
                continue
            distance = abs(t1.index[id(node_b)] - t2.index[id(node_a)])
            rank = (-score, distance, t2.index[id(node_a)])
            if best is None or rank < best[0]:
                best = (rank, node_a)
        if best is not None:
            mapping.add(node_b, best[1])
            added = True
    return added


def _container_candidates(node_b: AstNode, t1: _TreeIndex, t2: _TreeIndex,
                          mapping: TreeMapping) -> list[AstNode]:
    """Unmatched same-kind ancestors of the counterparts of mapped descendants."""
    seen: set[int] = set()
    out: list[AstNode] = []
    for desc in t1.descendants(node_b):
        counterpart = mapping.after_of(desc)
        if counterpart is None:
            continue
        anc = counterpart.parent
        while anc is not None:
            if id(anc) in seen:
                break
            seen.add(id(anc))
            if anc.kind == node_b.kind and not mapping.has_after(anc):
                out.append(anc)
            anc = anc.parent
    out.sort(key=lambda n: t2.index[id(n)])
    return out


def _recover_leaves(t1: _TreeIndex, t2: _TreeIndex,
                    mapping: TreeMapping) -> bool:
    added = False
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
        for key in sorted(groups):
            leaves_b, leaves_a = groups[key]
            leaves_b.sort(key=lambda n: t1.index[id(n)])
            leaves_a.sort(key=lambda n: t2.index[id(n)])
            for leaf_b, leaf_a in zip(leaves_b[:MAX_SUBTREE_COMPARE],
                                      leaves_a[:MAX_SUBTREE_COMPARE]):
                if mapping.add(leaf_b, leaf_a):
                    added = True
        if _pair_unique_children(container_b, container_a, mapping):
            added = True
    return added


def _pair_unique_children(container_b: AstNode, container_a: AstNode,
                          mapping: TreeMapping) -> bool:
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
    added = False
    for kind in sorted(set(open_b) & set(open_a)):
        if len(open_b[kind]) == 1 and len(open_a[kind]) == 1:
            if mapping.add(open_b[kind][0], open_a[kind][0]):
                added = True
    return added


def project_mapping(tm: TreeMapping, g_before, g_after) -> list[tuple]:
    """Project an AST mapping onto two dependence graphs.

    A graph-node pair is mapped when any of their generating syntax nodes are
    mapped and the node kinds agree; the result stays injective (the earliest
    matched pair wins).
    """
    index_b = _origin_index(g_before)
    index_a = _origin_index(g_after)
    used_b: set[int] = set()
    used_a: set[int] = set()
    pairs = []
    for ast_b, ast_a in tm.pairs:
        fg_b = index_b.get(id(ast_b))
        fg_a = index_a.get(id(ast_a))
        if fg_b is None or fg_a is None or fg_b.kind != fg_a.kind:
            continue
        if fg_b.id in used_b or fg_a.id in used_a:
            continue
        used_b.add(fg_b.id)
        used_a.add(fg_a.id)
        pairs.append((fg_b, fg_a))
    pairs.sort(key=lambda p: (p[0].id, p[1].id))
    return pairs


def _origin_index(graph) -> dict[int, object]:
    index: dict[int, object] = {}
    for node in graph.nodes:
        for origin in node.origins:
            index.setdefault(id(origin), node)
    return index

"""Brute-force reference enumerator for the pattern space.

Independent of the mining engine's shortcuts: breadth-first over templates,
embeddings recomputed from scratch by backtracking, duplicates removed with a
permutation-based isomorphism test, no extension caps and no budgets. The
enumerator shares only the canonical-key function, since key sets are the
comparison surface. The module also holds helpers that only the tests call:
``has_edge``, ``has_map`` and ``verify_instance`` read ``CorpusGraph.incident``
lists, and ``refinement_colors`` is a convenience wrapper over the engine's
own ``_refine``, ``_adjacency_tags`` and ``_ranks``, not an independent
reference.

The second half is the function frontend as it was before units were built
lazily from the raw ``ast``: it walks the whole normalized tree of a file
(``parse_source``) and copies every def eagerly. The third is the ``ast`` to
normalized-tree converter as it was before it became one table: a function
per syntax kind. The fourth is the tree matcher's bottom-up phase as it was
before it scored each container in one pass: ``dice`` rescans a candidate's
descendants for every candidate, and ``reference_map_asts`` runs the
engine's other phases around it. The fifth is the git plumbing as it was
before ``git log --raw`` listed each commit's changes and one ``git cat-file
--batch`` read the blobs: ``reference_pair_modified_files`` runs one ``git
diff-tree`` per commit and one ``git cat-file blob`` per side of each file.
"""

from __future__ import annotations

import ast
import subprocess
from dataclasses import dataclass

from changeminer.history import CommitFilter, CommitInfo, _glob_to_regex
from changeminer.mapping import (DICE_THRESHOLD, TreeMapping,
                                 _match_top_down, _recover_leaves, _TreeIndex)
from changeminer.mining import (MAP, CorpusGraph, MiningConfig, PatternGraph,
                                PatternRecord, TNode, _adjacency_tags, _ranks,
                                _refine, canonical_key)
from changeminer.source import (_BINOP_SYMBOLS, _CMPOP_SYMBOLS,
                                _UNARYOP_SYMBOLS, AstNode, Span,
                                _finish, parse_module)


def has_edge(graph: CorpusGraph, src: int, dst: int, kind: str,
             label: str) -> bool:
    return (kind, label, "out", dst) in graph.incident[src]


def has_map(graph: CorpusGraph, b: int, a: int) -> bool:
    return (MAP, "", "out", a) in graph.incident[b]


def verify_instance(pattern: PatternGraph, graph: CorpusGraph,
                    binding: tuple[int, ...]) -> bool:
    """Label-preserving injective homomorphism check for one binding."""
    if len(set(binding)) != len(binding) or len(binding) != pattern.size:
        return False
    for idx, concrete in enumerate(binding):
        if concrete not in graph.nodes or graph.nodes[concrete] != pattern.nodes[idx]:
            return False
    for src, dst, kind, label in pattern.edges:
        if not has_edge(graph, binding[src], binding[dst], kind, label):
            return False
    for b, a in pattern.map_edges:
        if not has_map(graph, binding[b], binding[a]):
            return False
    return True


def refinement_colors(pattern: PatternGraph) -> list[int]:
    """Stable per-node colours from iterative neighbourhood refinement.

    A node starts as the rank of its signature among the pattern's sorted
    distinct signatures. Each round it becomes the rank of its colour plus
    the sorted (edge tag, neighbour colour) pairs around it, until the
    number of colours stops growing. Colours do not depend on numbering.
    """
    return _refine(_adjacency_tags(pattern),
                   _ranks([node.sig() for node in pattern.nodes]))


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
                if not has_edge(graph, concrete, binding[dst], kind, label):
                    return False
            if dst == idx and src in binding:
                if not has_edge(graph, binding[src], concrete, kind, label):
                    return False
        for b, a in t.map_edges:
            if b == idx and a in binding and not has_map(graph, concrete, binding[a]):
                return False
            if a == idx and b in binding and not has_map(graph, binding[b], concrete):
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


def _support(embedded) -> int:
    """The number of distinct change graphs among the embeddings."""
    return len({gid for gid, _ in embedded})


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
            support = _support(embedded)
            if support < cfg.min_freq:
                continue
            if template.size >= cfg.min_size and _universally_changed(
                    embedded, corpus_by_id, template.size):
                emitted.add(canonical_key(template))
            if template.size >= cfg.max_size:
                continue
            for child in _grow(template, embedded, corpus_by_id):
                child_support = _support(_all_embeddings(child, corpus))
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
    return FunctionUnit(qualified, params, body, def_node.span)


def _prune_nested(def_node: AstNode) -> AstNode:
    def copy(node: AstNode, is_root: bool) -> AstNode:
        out = AstNode(node.kind, node.label, span=node.span)
        if node.kind == "FunctionDef" and not is_root:
            return out  # stub: nested def belongs to its own unit
        for child in node.children:
            out.add(copy(child, False))
        return out

    root = copy(def_node, True)
    _finish(root, def_node.span)
    return root


def build_import_table(tree: AstNode) -> dict[str, str]:
    """Collect import bindings from anywhere in the tree (module or function level)."""
    table: dict[str, str] = {}
    for node in tree.preorder():
        if node.kind == "Import":
            for alias in node.children:
                asname = _asname(alias)
                if asname:
                    table[asname] = alias.label
                else:
                    root = alias.label.split(".")[0]
                    table[root] = root
        elif node.kind == "ImportFrom":
            module = node.label
            for alias in node.children:
                if alias.label == "*":
                    continue
                base = module if module.endswith(".") or not module else module + "."
                value = (base + alias.label) if module else alias.label
                table[_asname(alias) or alias.label] = value
    return table


def _asname(alias_node: AstNode) -> str | None:
    for child in alias_node.children:
        if child.kind == "As":
            return child.label
    return None


# ---------------------------------------------------------------------------
# Per-kind converter
# ---------------------------------------------------------------------------


def parse_source(text: str | bytes) -> AstNode:
    """``changeminer.source.parse_source`` through the per-kind converter."""
    root = _convert(parse_module(text))
    _finish(root, (1, 0, 1, 0))
    return root


def _span_of(node: ast.AST) -> Span | None:
    lineno = getattr(node, "lineno", None)
    if lineno is None:
        return None
    end_lineno = getattr(node, "end_lineno", None) or lineno
    col = getattr(node, "col_offset", 0)
    end_col = getattr(node, "end_col_offset", None)
    if end_col is None:
        end_col = col
    return (lineno, col, end_lineno, end_col)


def _new(kind: str, node: ast.AST | None = None, label: str = "") -> AstNode:
    span = _span_of(node) if node is not None else None
    return AstNode(kind, label, span=span or (0, 0, 0, 0))


def _block(label: str, stmts, parent: AstNode) -> None:
    if not stmts:
        return
    block = parent.add(_new("Block", label=label))
    for stmt in stmts:
        block.add(_convert(stmt))


def _convert(node: ast.AST) -> AstNode:
    handler = _HANDLERS.get(type(node).__name__, _convert_generic)
    return handler(node)


def _convert_generic(node: ast.AST) -> AstNode:
    # Fallback for syntax the explicit handlers do not cover; keeps parsing
    # total over future/rare grammar nodes.
    out = _new(type(node).__name__, node)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.expr_context, ast.operator, ast.boolop,
                              ast.unaryop, ast.cmpop)):
            continue
        out.add(_convert(child))
    return out


def _convert_module(node: ast.Module) -> AstNode:
    out = _new("Module", node)
    for stmt in node.body:
        out.add(_convert(stmt))
    return out


def _convert_functiondef(node) -> AstNode:
    out = _new("FunctionDef", node, label=node.name)
    for dec in node.decorator_list:
        out.add(_new("Decorator", dec)).add(_convert(dec))
    params = out.add(_new("Params", node.args))
    args = node.args
    for a in getattr(args, "posonlyargs", []) + args.args:
        params.add(_new("Param", a, label=a.arg))
    if args.vararg:
        params.add(_new("Param", args.vararg, label="*" + args.vararg.arg))
    for a in args.kwonlyargs:
        params.add(_new("Param", a, label=a.arg))
    if args.kwarg:
        params.add(_new("Param", args.kwarg, label="**" + args.kwarg.arg))
    for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
        params.add(_new("Default", default)).add(_convert(default))
    _block("body", node.body, out)
    return out


def _convert_classdef(node: ast.ClassDef) -> AstNode:
    out = _new("ClassDef", node, label=node.name)
    for base in list(node.bases) + list(node.keywords):
        out.add(_convert(base))
    _block("body", node.body, out)
    return out


def _convert_assign(node: ast.Assign) -> AstNode:
    out = _new("Assign", node)
    for target in node.targets:
        out.add(_convert(target))
    out.add(_convert(node.value))
    return out


def _convert_augassign(node: ast.AugAssign) -> AstNode:
    out = _new("AugAssign", node, label=_BINOP_SYMBOLS[type(node.op)] + "=")
    out.add(_convert(node.target))
    out.add(_convert(node.value))
    return out


def _convert_annassign(node: ast.AnnAssign) -> AstNode:
    out = _new("AnnAssign", node)
    out.add(_convert(node.target))
    out.add(_new("Annotation", node.annotation)).add(_convert(node.annotation))
    if node.value is not None:
        out.add(_convert(node.value))
    return out


def _convert_name(node: ast.Name) -> AstNode:
    return _new("Name", node, label=node.id)


def _convert_constant(node: ast.Constant) -> AstNode:
    value = node.value
    if value is True or value is False or value is None or value is Ellipsis:
        return _new("Constant", node, label=repr(value))
    return _new("Literal", node, label=repr(value))


def _convert_call(node: ast.Call) -> AstNode:
    out = _new("Call", node)
    out.add(_convert(node.func))
    for arg in node.args:
        out.add(_convert(arg))
    for kw in node.keywords:
        kw_node = out.add(_new("Keyword", kw.value, label=kw.arg or "**"))
        kw_node.add(_convert(kw.value))
    return out


def _convert_attribute(node: ast.Attribute) -> AstNode:
    out = _new("Attribute", node, label=node.attr)
    out.add(_convert(node.value))
    return out


def _convert_binop(node: ast.BinOp) -> AstNode:
    out = _new("BinOp", node, label=_BINOP_SYMBOLS[type(node.op)])
    out.add(_convert(node.left))
    out.add(_convert(node.right))
    return out


def _convert_unaryop(node: ast.UnaryOp) -> AstNode:
    out = _new("UnaryOp", node, label=_UNARYOP_SYMBOLS[type(node.op)])
    out.add(_convert(node.operand))
    return out


def _convert_boolop(node: ast.BoolOp) -> AstNode:
    out = _new("BoolOp", node, label="and" if isinstance(node.op, ast.And) else "or")
    for value in node.values:
        out.add(_convert(value))
    return out


def _convert_compare(node: ast.Compare) -> AstNode:
    label = " ".join(_CMPOP_SYMBOLS[type(op)] for op in node.ops)
    out = _new("Compare", node, label=label)
    out.add(_convert(node.left))
    for comparator in node.comparators:
        out.add(_convert(comparator))
    return out


def _convert_subscript(node: ast.Subscript) -> AstNode:
    out = _new("Subscript", node)
    out.add(_convert(node.value))
    out.add(_convert(node.slice))
    return out


def _convert_slice(node: ast.Slice) -> AstNode:
    out = _new("Slice", node)
    for part in (node.lower, node.upper, node.step):
        if part is not None:
            out.add(_convert(part))
    return out


def _convert_container(kind: str):
    def convert(node):
        out = _new(kind, node)
        for elt in node.elts:
            out.add(_convert(elt))
        return out
    return convert


def _convert_dict(node: ast.Dict) -> AstNode:
    out = _new("Dict", node)
    for key, value in zip(node.keys, node.values):
        if key is None:
            out.add(_new("DoubleStar", value, label="**"))
        else:
            out.add(_convert(key))
        out.add(_convert(value))
    return out


def _convert_comprehension(kind: str, parts):
    def convert(node):
        out = _new(kind, node)
        for name in parts:
            out.add(_convert(getattr(node, name)))
        for comp in node.generators:
            comp_node = out.add(_new("CompFor", comp.iter))
            comp_node.add(_convert(comp.target))
            comp_node.add(_convert(comp.iter))
            for test in comp.ifs:
                comp_node.add(_new("CompIf", test)).add(_convert(test))
        return out
    return convert


def _convert_joinedstr(node: ast.JoinedStr) -> AstNode:
    out = _new("FString", node)
    for value in node.values:
        out.add(_convert(value))
    return out


def _convert_formattedvalue(node: ast.FormattedValue) -> AstNode:
    out = _new("FormatValue", node)
    out.add(_convert(node.value))
    return out


def _convert_lambda(node: ast.Lambda) -> AstNode:
    # Parsed but opaque downstream: the body is kept for tree diffing only.
    out = _new("Lambda", node)
    out.add(_convert(node.body))
    return out


def _convert_ifexp(node: ast.IfExp) -> AstNode:
    out = _new("IfExp", node)
    out.add(_convert(node.body))
    out.add(_convert(node.test))
    out.add(_convert(node.orelse))
    return out


def _convert_if(node: ast.If) -> AstNode:
    out = _new("If", node)
    out.add(_convert(node.test))
    _block("then", node.body, out)
    _block("else", node.orelse, out)
    return out


def _convert_for(node) -> AstNode:
    out = _new("For", node)
    out.add(_convert(node.target))
    out.add(_convert(node.iter))
    _block("body", node.body, out)
    _block("else", node.orelse, out)
    return out


def _convert_while(node: ast.While) -> AstNode:
    out = _new("While", node)
    out.add(_convert(node.test))
    _block("body", node.body, out)
    _block("else", node.orelse, out)
    return out


def _convert_with(node) -> AstNode:
    out = _new("With", node)
    for item in node.items:
        item_node = out.add(_new("WithItem", item.context_expr))
        item_node.add(_convert(item.context_expr))
        if item.optional_vars is not None:
            item_node.add(_convert(item.optional_vars))
    _block("body", node.body, out)
    return out


def _handler_label(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "except"
    names = []
    for part in ([handler.type] if not isinstance(handler.type, ast.Tuple)
                 else handler.type.elts):
        try:
            names.append(ast.unparse(part))
        except Exception:
            names.append("?")
    return "except:" + ",".join(names)


def _convert_try(node: ast.Try) -> AstNode:
    out = _new("Try", node)
    _block("body", node.body, out)
    for handler in node.handlers:
        h = out.add(_new("Except", handler, label=_handler_label(handler)))
        _block("body", handler.body, h)
    _block("else", node.orelse, out)
    _block("finally", node.finalbody, out)
    return out


def _convert_match(node) -> AstNode:
    out = _new("Match", node)
    out.add(_convert(node.subject))
    for case in node.cases:
        try:
            label = ast.unparse(case.pattern)
        except Exception:
            label = "?"
        case_node = out.add(_new("Case", case.pattern, label=label))
        _block("body", case.body, case_node)
    return out


def _convert_import(node: ast.Import) -> AstNode:
    out = _new("Import", node)
    for alias in node.names:
        a = out.add(_new("ImportAlias", node, label=alias.name))
        if alias.asname:
            a.add(_new("As", node, label=alias.asname))
    return out


def _convert_importfrom(node: ast.ImportFrom) -> AstNode:
    out = _new("ImportFrom", node, label="." * node.level + (node.module or ""))
    for alias in node.names:
        a = out.add(_new("ImportAlias", node, label=alias.name))
        if alias.asname:
            a.add(_new("As", node, label=alias.asname))
    return out


def _convert_simple(kind: str, fields: tuple[str, ...] = ()):
    def convert(node):
        out = _new(kind, node)
        for name in fields:
            value = getattr(node, name, None)
            if value is None:
                continue
            if isinstance(value, list):
                for item in value:
                    out.add(_convert(item))
            else:
                out.add(_convert(value))
        return out
    return convert


def _convert_names_stmt(kind: str):
    def convert(node):
        return _new(kind, node, label=",".join(node.names))
    return convert


_HANDLERS = {
    "Module": _convert_module,
    "FunctionDef": _convert_functiondef,
    "AsyncFunctionDef": _convert_functiondef,
    "ClassDef": _convert_classdef,
    "Assign": _convert_assign,
    "AugAssign": _convert_augassign,
    "AnnAssign": _convert_annassign,
    "Name": _convert_name,
    "Constant": _convert_constant,
    "Call": _convert_call,
    "Attribute": _convert_attribute,
    "BinOp": _convert_binop,
    "UnaryOp": _convert_unaryop,
    "BoolOp": _convert_boolop,
    "Compare": _convert_compare,
    "Subscript": _convert_subscript,
    "Slice": _convert_slice,
    "List": _convert_container("List"),
    "Tuple": _convert_container("Tuple"),
    "Set": _convert_container("Set"),
    "Dict": _convert_dict,
    "ListComp": _convert_comprehension("ListComp", ("elt",)),
    "SetComp": _convert_comprehension("SetComp", ("elt",)),
    "GeneratorExp": _convert_comprehension("GenExp", ("elt",)),
    "DictComp": _convert_comprehension("DictComp", ("key", "value")),
    "JoinedStr": _convert_joinedstr,
    "FormattedValue": _convert_formattedvalue,
    "Lambda": _convert_lambda,
    "IfExp": _convert_ifexp,
    "If": _convert_if,
    "For": _convert_for,
    "AsyncFor": _convert_for,
    "While": _convert_while,
    "With": _convert_with,
    "AsyncWith": _convert_with,
    "Try": _convert_try,
    "TryStar": _convert_try,
    "Match": _convert_match,
    "Import": _convert_import,
    "ImportFrom": _convert_importfrom,
    "Expr": _convert_simple("Expr", ("value",)),
    "Return": _convert_simple("Return", ("value",)),
    "Raise": _convert_simple("Raise", ("exc", "cause")),
    "Assert": _convert_simple("Assert", ("test", "msg")),
    "Delete": _convert_simple("Del", ("targets",)),
    "Starred": _convert_simple("Starred", ("value",)),
    "Await": _convert_simple("Await", ("value",)),
    "Yield": _convert_simple("Yield", ("value",)),
    "YieldFrom": _convert_simple("YieldFrom", ("value",)),
    "NamedExpr": _convert_simple("NamedExpr", ("target", "value")),
    "Pass": _convert_simple("Pass"),
    "Break": _convert_simple("Break"),
    "Continue": _convert_simple("Continue"),
    "Global": _convert_names_stmt("Global"),
    "Nonlocal": _convert_names_stmt("Nonlocal"),
}


# ---------------------------------------------------------------------------
# Rescanning bottom-up matcher
# ---------------------------------------------------------------------------


def dice(n1: AstNode, n2: AstNode, partial: TreeMapping, t1: _TreeIndex,
         t2: _TreeIndex) -> float:
    """Descendant-overlap ratio: 2*|mapped pairs under (n1, n2)| / (|d1|+|d2|)."""
    first, end = t1.index[n1] + 1, t1.end[n1]
    d2 = t2.descendants(n2)
    mapped = 0
    for n in d2:
        counterpart = partial.before_of(n)
        if counterpart is not None and \
                first <= t1.index.get(counterpart, -1) < end:
            mapped += 1
    denom = (end - first) + len(d2)
    if denom == 0:
        return 0.0
    return 2.0 * mapped / denom


def _container_candidates(node_b: AstNode, t1: _TreeIndex, t2: _TreeIndex,
                          mapping: TreeMapping) -> list[AstNode]:
    """Unmatched same-kind ancestors of the counterparts of mapped descendants."""
    seen: set[AstNode] = set()
    out: list[AstNode] = []
    for desc in t1.descendants(node_b):
        counterpart = mapping.after_of(desc)
        if counterpart is None:
            continue
        anc = t2.parent.get(counterpart)
        while anc is not None:
            if anc in seen:
                break
            seen.add(anc)
            if anc.kind == node_b.kind and not mapping.has_after(anc):
                out.append(anc)
            anc = t2.parent.get(anc)
    return out


def reference_match_bottom_up(t1: _TreeIndex, t2: _TreeIndex,
                              mapping: TreeMapping) -> None:
    for node_b in reversed(t1.order):  # children before parents
        if node_b.is_leaf() or mapping.has_before(node_b):
            continue
        ranked = []
        for node_a in _container_candidates(node_b, t1, t2, mapping):
            score = dice(node_b, node_a, mapping, t1, t2)
            if score >= DICE_THRESHOLD:
                distance = abs(t1.index[node_b] - t2.index[node_a])
                ranked.append((-score, distance, t2.index[node_a], node_a))
        if ranked:
            mapping.add(node_b, min(ranked)[3])


def reference_map_asts(before: AstNode, after: AstNode) -> TreeMapping:
    """``map_asts`` with ``reference_match_bottom_up`` as its bottom-up phase."""
    interned: dict[tuple, int] = {}
    t1, t2 = _TreeIndex(before, interned), _TreeIndex(after, interned)
    mapping = TreeMapping()
    _match_top_down(t1, t2, mapping)
    if not mapping.has_before(before) and not mapping.has_after(after) \
            and before.kind == after.kind:
        mapping.add(before, after)
    reference_match_bottom_up(t1, t2, mapping)
    while _recover_leaves(t1, t2, mapping):
        reference_match_bottom_up(t1, t2, mapping)
    return mapping


# ---------------------------------------------------------------------------
# Per-file git plumbing
# ---------------------------------------------------------------------------


def _git(repo_path: str, *args: str) -> bytes:
    result = subprocess.run(["git", "-C", repo_path, *args],
                            capture_output=True, check=True)
    return result.stdout


def reference_pair_modified_files(repo_path: str, commit: CommitInfo,
                                  filt: CommitFilter) -> list[tuple[bytes, bytes, str]]:
    """``pair_modified_files`` from a diff-tree against the first parent."""
    # -z: each entry is ":modes blobs status" and then its path, NUL-separated
    # and unquoted.
    raw = _git(repo_path, "diff-tree", "-r", "-z", "--no-renames",
               commit.parents[0], commit.hash)
    fields = raw.decode("utf-8", errors="replace").split("\0")[:-1]
    entries = [(meta.split(), path) for meta, path in zip(fields[0::2], fields[1::2])]
    if len(entries) > filt.max_files_per_commit:
        return []
    matcher = _glob_to_regex(filt.path_glob)
    pairs = []
    for (_, _, before_blob, after_blob, status), path in entries:
        if status != "M" or not matcher.match(path):
            continue
        pairs.append((_git(repo_path, "cat-file", "blob", before_blob),
                      _git(repo_path, "cat-file", "blob", after_blob), path))
    return pairs

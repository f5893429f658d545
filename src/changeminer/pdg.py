"""Fine-grained program dependence graphs for single function revisions.

Each graph has data nodes (variables, literals, constants), operation nodes
(calls, operators, subscripts, attribute access) and control nodes (if, for,
while, try, with). Data edges carry one of {def, ref, para, recv, cond, qual};
control edges carry one of {then, else, body} and run from a control node to
the operation/control nodes it immediately dominates.

Variables are merged into one node per name (abstract label "var", concrete
identifier kept for reporting), which is what lets patterns connect related
statements and unify differently named code across projects.

The per-kind node rules live in one table, ``_NODE_RULES``; constructs with
edges of their own have a method each, and any other expression passes on its
children's flow, as any other statement walks its children.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .source import AstNode, FunctionUnit, Span, UnsupportedConstruct

DATA, OPERATION, CONTROL = "Data", "Operation", "Control"

DATA_EDGE_LABELS = frozenset({"def", "ref", "para", "recv", "cond", "qual"})
CONTROL_EDGE_LABELS = frozenset({"then", "else", "body"})

# Expression kind -> (node kind, subkind, fixed label or None for the
# expression's own label); each child's flow gets a ref edge into the node.
_NODE_RULES = {
    "Literal": (DATA, "literal", None), "Constant": (DATA, "constant", None),
    "BinOp": (OPERATION, "binop", None), "BoolOp": (OPERATION, "binop", None),
    "UnaryOp": (OPERATION, "unaryop", None),
    "Compare": (OPERATION, "compare", None),
    "List": (DATA, "literal", "[]"), "Tuple": (DATA, "literal", "()"),
    "Set": (DATA, "literal", "{}"), "Dict": (DATA, "literal", "{:}"),
    "FString": (DATA, "literal", "f''"),
}
_COMPREHENSION_LABELS = {"ListComp": "[]", "SetComp": "{}", "DictComp": "{:}",
                         "GenExp": "()"}


@dataclass(eq=False)
class FgNode:
    id: int
    kind: str  # Data | Operation | Control
    subkind: str
    label: str
    span: Span
    concrete_name: str | None = None
    origins: list[AstNode] = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class FgEdge:
    src: int
    dst: int
    kind: str  # Control | Data
    label: str


@dataclass
class Fgpdg:
    nodes: list[FgNode]
    edges: list[FgEdge]


def resolve_callee(call_subtree: AstNode, imports: dict[str, str]) -> str:
    """Label for a call: qualified path, bare name, or "?.<name>" fallback.

    Qualifier chains that resolve through the import table become dotted paths
    ("numpy.zeros"); receiver-dependent methods degrade to "?.name"; plain
    names resolve to themselves.
    """
    func = call_subtree.children[0]
    if func.kind == "Name":
        return imports.get(func.label, func.label)
    if func.kind == "Attribute":
        resolved = _resolve_chain(func, imports)
        if resolved is not None:
            return resolved
        return "?." + func.label
    return "?"


def _resolve_chain(node: AstNode, imports: dict[str, str]) -> str | None:
    parts: list[str] = []
    current = node
    while current.kind == "Attribute":
        parts.append(current.label)
        current = current.children[0]
    if current.kind != "Name" or current.label not in imports:
        return None
    parts.append(imports[current.label])
    return ".".join(reversed(parts))


def build_fgpdg(unit: FunctionUnit, imports: dict[str, str] | None = None) -> Fgpdg:
    """Build the dependence graph for one function unit.

    This is the check of which constructs can be modelled: a ``yield`` or
    ``yield from`` (outside a lambda, whose body stays opaque), a ``finally``
    block or a ``match`` statement raises UnsupportedConstruct. The one other
    refusal, of a def nested deeper than ``source.MAX_NESTING`` levels, comes
    from ``unit.body`` before the builder runs.
    """
    builder = _Builder(imports or {})
    for child in unit.body.children:
        if child.kind == "Block" and child.label == "body":
            builder.walk_block(child)
    return builder.finish()


class _Builder:
    def __init__(self, imports: dict[str, str]):
        self.imports = imports
        self.nodes: list[FgNode] = []
        self.edges: set[FgEdge] = set()
        self.vars: dict[str, FgNode] = {}
        self.control_stack: list[tuple[FgNode, str]] = []

    # -- node / edge helpers -------------------------------------------------

    def _node(self, kind: str, subkind: str, label: str, ast_node: AstNode,
              concrete: str | None = None) -> FgNode:
        node = FgNode(len(self.nodes), kind, subkind, label, ast_node.span,
                      concrete_name=concrete)
        node.origins.append(ast_node)
        self.nodes.append(node)
        if kind != DATA and self.control_stack:
            parent, branch = self.control_stack[-1]
            self.edges.add(FgEdge(parent.id, node.id, "Control", branch))
        return node

    def _var(self, ast_node: AstNode) -> FgNode:
        name = ast_node.label
        node = self.vars.get(name)
        if node is None:
            node = self._node(DATA, "var", "var", ast_node, concrete=name)
            self.vars[name] = node
        else:
            node.origins.append(ast_node)
        return node

    def _data_edge(self, src: FgNode, dst: FgNode, label: str) -> None:
        self.edges.add(FgEdge(src.id, dst.id, "Data", label))

    def _edges_into(self, sources: list[FgNode], dst: FgNode, label: str) -> None:
        for src in sources:
            self._data_edge(src, dst, label)

    # -- statements ----------------------------------------------------------

    def walk_block(self, block: AstNode) -> None:
        for stmt in block.children:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: AstNode) -> None:
        kind = stmt.kind
        if kind in ("Pass", "Break", "Continue", "Global", "Nonlocal",
                    "Import", "ImportFrom", "FunctionDef", "ClassDef", "Del"):
            # Nested defs are separate units; class bodies and imports carry
            # no function-level data flow.
            return
        if kind == "Match":
            raise UnsupportedConstruct(kind, stmt.span)
        handler = getattr(self, "_stmt_" + kind.lower(), None)
        if handler is not None:
            handler(stmt)
        else:
            for child in stmt.children:
                if child.kind == "Block":
                    self.walk_block(child)
                else:
                    self.eval_expr(child)

    def _stmt_assign(self, stmt: AstNode) -> None:
        *targets, value = stmt.children
        sources = self.eval_expr(value)
        for target in targets:
            self.assign_to(target, sources)

    def _stmt_annassign(self, stmt: AstNode) -> None:
        if len(stmt.children) == 3:  # target, Annotation, value
            self.assign_to(stmt.children[0], self.eval_expr(stmt.children[2]))

    def _stmt_augassign(self, stmt: AstNode) -> None:
        target, value = stmt.children
        op = self._node(OPERATION, "binop", stmt.label[:-1], stmt)
        target_nodes = self.eval_expr(target)
        self._edges_into(target_nodes, op, "ref")
        self._edges_into(self.eval_expr(value), op, "ref")
        if target.kind in ("Attribute", "Subscript"):
            # assign_to would evaluate the target again: a second node with
            # the same syntax origin, which the mapping can never pair.
            for node in target_nodes:
                self._data_edge(op, node, "def")
        else:
            self.assign_to(target, [op])

    def _stmt_if(self, stmt: AstNode) -> None:
        kind = stmt.kind.lower()
        control = self._node(CONTROL, kind, kind, stmt)
        self._edges_into(self.eval_expr(stmt.children[0]), control, "cond")
        self._branches(stmt, control)

    _stmt_while = _stmt_if

    def _stmt_for(self, stmt: AstNode) -> None:
        self._branches(stmt, self._loop_head(stmt))

    def _stmt_with(self, stmt: AstNode) -> None:
        control = self._node(CONTROL, "with", "with", stmt)
        for child in stmt.children:
            if child.kind == "WithItem":
                sources = self.eval_expr(child.children[0])
                self._edges_into(sources, control, "cond")
                if len(child.children) > 1:
                    self.assign_to(child.children[1], sources)
        self._branches(stmt, control)

    def _stmt_try(self, stmt: AstNode) -> None:
        self._branches(stmt, self._node(CONTROL, "try", "try", stmt))

    def _loop_head(self, loop: AstNode) -> FgNode:
        """The for node of a loop or comprehension clause, its target bound."""
        control = self._node(CONTROL, "for", "for", loop)
        target, iterable = loop.children[0], loop.children[1]
        sources = self.eval_expr(iterable)
        self._edges_into(sources, control, "cond")
        self.assign_to(target, sources)
        return control

    def _branches(self, stmt: AstNode, control: FgNode) -> None:
        # Each block runs under its own label; an except handler is a try
        # node on the ``then`` branch, with its body below it.
        for child in stmt.children:
            if child.kind == "Block":
                if child.label == "finally":
                    raise UnsupportedConstruct("finally", child.span)
                self.control_stack.append((control, child.label))
                self.walk_block(child)
                self.control_stack.pop()
            elif child.kind == "Except":
                self.control_stack.append((control, "then"))
                handler = self._node(CONTROL, "try", child.label, child)
                self.control_stack.pop()
                self._branches(child, handler)

    # -- expressions ----------------------------------------------------------

    def assign_to(self, target: AstNode, sources: list[FgNode]) -> None:
        kind = target.kind
        if kind == "Name":
            self._edges_into(sources, self._var(target), "def")
        elif kind in ("Tuple", "List"):
            for element in target.children:
                self.assign_to(element, sources)
        elif kind == "Starred":
            self.assign_to(target.children[0], sources)
        elif kind == "Attribute":
            node = self._attribute_node(target)
            if node is not None:
                self._edges_into(sources, node, "def")
        elif kind == "Subscript":
            self._edges_into(sources, self._subscript_node(target), "def")
        else:
            for src_node in self.eval_expr(target):
                self._edges_into(sources, src_node, "def")

    def eval_expr(self, expr: AstNode) -> list[FgNode]:
        kind = expr.kind
        if kind == "Name":
            return [self._var(expr)]
        rule = _NODE_RULES.get(kind)
        if rule is not None:
            node_kind, subkind, label = rule
            node = self._node(node_kind, subkind, label or expr.label, expr)
            for child in expr.children:
                self._edges_into(self.eval_expr(child), node, "ref")
            return [node]
        if kind == "Call":
            return self._eval_call(expr)
        if kind == "Attribute":
            node = self._attribute_node(expr)
            return [node] if node is not None else []
        if kind == "Subscript":
            return [self._subscript_node(expr)]
        if kind in _COMPREHENSION_LABELS:
            return [self._eval_comprehension(expr)]
        if kind == "Lambda":
            # Opaque by design: bounds graph complexity.
            return [self._node(DATA, "literal", "lambda", expr)]
        if kind == "IfExp":
            return self._eval_ifexp(expr)
        if kind == "NamedExpr":
            target, value = expr.children
            sources = self.eval_expr(value)
            self.assign_to(target, sources)
            return [self._var(target)] if target.kind == "Name" else sources
        if kind in ("Yield", "YieldFrom"):
            raise UnsupportedConstruct(kind, expr.span)
        # Any other kind (starred, await, keyword, slice, ...) passes its
        # children's flow on.
        out = []
        for child in expr.children:
            out.extend(self.eval_expr(child))
        return out

    def _eval_call(self, expr: AstNode) -> list[FgNode]:
        label = resolve_callee(expr, self.imports)
        call = self._node(OPERATION, "call", label, expr,
                          concrete=expr.children[0].label or None)
        func = expr.children[0]
        if func.kind == "Attribute" and label.startswith("?."):
            self._edges_into(self.eval_expr(func.children[0]), call, "recv")
        elif func.kind not in ("Name", "Attribute"):
            self._edges_into(self.eval_expr(func), call, "recv")
        for arg in expr.children[1:]:
            self._edges_into(self.eval_expr(arg), call, "para")
        return [call]

    def _attribute_node(self, expr: AstNode) -> FgNode | None:
        resolved = _resolve_chain(expr, self.imports)
        if resolved is not None:
            return self._node(DATA, "constant", resolved, expr)
        op = self._node(OPERATION, "attribute", expr.label, expr)
        self._edges_into(self.eval_expr(expr.children[0]), op, "qual")
        return op

    def _subscript_node(self, expr: AstNode) -> FgNode:
        op = self._node(OPERATION, "subscript", "[]", expr)
        value, index = expr.children
        self._edges_into(self.eval_expr(value), op, "qual")
        self._edges_into(self.eval_expr(index), op, "ref")
        return op

    def _eval_comprehension(self, expr: AstNode) -> FgNode:
        result = self._node(DATA, "literal", _COMPREHENSION_LABELS[expr.kind], expr)
        elements = [c for c in expr.children if c.kind != "CompFor"]
        comps = [c for c in expr.children if c.kind == "CompFor"]
        depth = 0
        for comp in comps:
            self.control_stack.append((self._loop_head(comp), "body"))
            depth += 1
            for cond in comp.children[2:]:
                if cond.kind == "CompIf":
                    test = self._node(CONTROL, "if", "if", cond)
                    self._edges_into(self.eval_expr(cond.children[0]), test, "cond")
                    self.control_stack.append((test, "body"))
                    depth += 1
        for element in elements:
            self._edges_into(self.eval_expr(element), result, "ref")
        for _ in range(depth):
            self.control_stack.pop()
        return result

    def _eval_ifexp(self, expr: AstNode) -> list[FgNode]:
        body, test, orelse = expr.children
        control = self._node(CONTROL, "if", "if", expr)
        self._edges_into(self.eval_expr(test), control, "cond")
        self.control_stack.append((control, "then"))
        out = self.eval_expr(body)
        self.control_stack.pop()
        self.control_stack.append((control, "else"))
        out.extend(self.eval_expr(orelse))
        self.control_stack.pop()
        return out

    # -- finalization ----------------------------------------------------------

    def finish(self) -> Fgpdg:
        degree: dict[int, int] = {}
        for edge in self.edges:
            degree[edge.src] = degree.get(edge.src, 0) + 1
            degree[edge.dst] = degree.get(edge.dst, 0) + 1
        kept = [n for n in self.nodes
                if n.kind != DATA or degree.get(n.id, 0) > 0]
        remap = {node.id: i for i, node in enumerate(kept)}
        for node in kept:
            node.id = remap[node.id]
        edges = sorted(
            (FgEdge(remap[e.src], remap[e.dst], e.kind, e.label)
             for e in self.edges
             if e.src in remap and e.dst in remap),
            key=lambda e: (e.src, e.dst, e.kind, e.label),
        )
        return Fgpdg(kept, edges)

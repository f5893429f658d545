"""Python source frontend: normalized syntax trees, function units, import tables.

The normalized tree is a plain labelled ordered tree. It deliberately forgets
formatting and comments so that whitespace-only edits parse to equal trees,
which in turn keeps the downstream change graphs quiet on cosmetic commits.

One table, ``_TABLE``, says how each ``ast`` class becomes a tree node. Most
rows give the node's kind, a label function and the child fields to convert
in order; a statement list becomes a labelled ``Block``. The few constructs
that make wrapper nodes or take their span from another node (parameters,
call keywords, ``**`` in dicts, comprehension clauses, annotations, with
items, match cases, imports, constants) have a function instead. A class the
table does not list becomes a node named after it, with every child node
converted, so parsing stays total over rare or future grammar.

A function unit converts its def only when it nests no deeper than
``MAX_NESTING`` levels and raises ``UnsupportedConstruct`` otherwise, so
whether a function is modelled does not depend on how deep the caller's
stack already is. ``parse_source`` converts a whole file without that bound.
"""

from __future__ import annotations

import ast
import re
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property

Span = tuple[int, int, int, int]

# Levels of the longest ast.iter_child_nodes chain of a def, the def itself
# included, that a function unit converts. Conversion and the graph builder
# recurse on the tree, at most about two frames per level, so 300 levels
# leave room for a caller nearly 400 frames deep under the default recursion
# limit of 1000.
MAX_NESTING = 300

# Levels of an except type or case pattern that gets its source text as its
# label; a deeper one is labelled "?". ast.unparse recurses about three frames
# per level, so the label does not depend on the caller's stack either.
UNPARSE_NESTING = 100

_BINOP_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitOr: "|", ast.BitXor: "^", ast.BitAnd: "&", ast.MatMult: "@",
}
_UNARYOP_SYMBOLS = {ast.UAdd: "+", ast.USub: "-", ast.Not: "not", ast.Invert: "~"}
_CMPOP_SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
    ast.GtE: ">=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in",
}


@dataclass(eq=False)
class AstNode:
    """One node of a normalized syntax tree.

    ``kind`` is a closed syntactic category ("Assign", "Call", "Literal", ...),
    ``label`` carries the identifier / lexeme / operator text where one exists,
    ``span`` is (start_line, start_col, end_line, end_col) in file coordinates.
    A node has no link to its parent, so a tree holds no reference cycle and
    is freed by reference counting alone; ``mapping._TreeIndex`` keeps a
    parent table for the tree it indexes.
    """

    kind: str
    label: str = ""
    children: list["AstNode"] = field(default_factory=list)
    span: Span = (0, 0, 0, 0)

    def add(self, child: "AstNode") -> "AstNode":
        self.children.append(child)
        return child

    def preorder(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def is_leaf(self) -> bool:
        return not self.children


def same_tree(a: AstNode, b: AstNode) -> bool:
    """Structural equality over kind/label/children (spans ignored).

    A preorder with child counts determines its tree, so the two preorders
    are compared position by position.
    """
    return all(x.kind == y.kind and x.label == y.label
               and len(x.children) == len(y.children)
               for x, y in zip(a.preorder(), b.preorder()))


class UnsupportedConstruct(Exception):
    """Raised for a function the graph layers do not model.

    The frontend raises it for a def nested deeper than ``MAX_NESTING``
    levels; the graph builder (``pdg``) for syntax it cannot represent.
    """

    def __init__(self, kind: str, span: Span):
        super().__init__(f"unsupported construct {kind} at {span}")
        self.kind = kind
        self.span = span


def _nesting(node: ast.AST) -> int:
    """Levels of the longest ``ast.iter_child_nodes`` chain from ``node``."""
    levels = 0
    level = [node]
    while level:
        levels += 1
        level = [child for parent in level for child in ast.iter_child_nodes(parent)]
    return levels


class FunctionUnit:
    """A single function or method definition extracted from one file revision.

    A unit keeps its raw ``ast`` def and the lines of its file. The normalized
    ``body`` (nested defs reduced to stubs, so no tree node belongs to two
    units) and ``params`` are built from that def on first access,
    so a unit that is never looked into is never converted. A def nested
    deeper than ``MAX_NESTING`` levels is measured, without recursion, and
    refused there with ``UnsupportedConstruct("nesting", ...)``; every other
    construct is decided by the graph builder (``pdg``).
    """

    def __init__(self, qualified_name: str,
                 node: ast.FunctionDef | ast.AsyncFunctionDef, lines: list[str]):
        self.qualified_name = qualified_name
        self.node = node
        self.lines = lines

    @cached_property
    def body(self) -> AstNode:
        if _nesting(self.node) > MAX_NESTING:
            raise UnsupportedConstruct("nesting", _span_of(self.node))
        def_node = _convert(self.node)
        _finish(def_node, def_node.span)
        return _prune_nested(def_node)

    @cached_property
    def params(self) -> list[str]:
        for child in self.body.children:
            if child.kind == "Params":
                return [p.label for p in child.children if p.kind == "Param"]
        return []

    @property
    def line_range(self) -> tuple[int, int]:
        """First and last line of the def, its decorators included."""
        node = self.node
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        return first, node.end_lineno

    def source_lines(self) -> list[str]:
        first, last = self.line_range
        return self.lines[first - 1:last]


# The parser's line model: only these end a line ("\x0c", "\x85" or U+2028,
# which str.splitlines also breaks at, do not).
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def parse_module(text: str | bytes) -> ast.Module:
    """Parse Python source into a raw ``ast.Module``.

    Invalid UTF-8 byte sequences are replaced rather than rejected, so history
    mining never aborts on one badly encoded file. Raises ``SyntaxError`` when
    the text does not parse under the Python 3 grammar. The module carries the
    text's lines as ``lines``, which function units slice for their source,
    and as ``syntax_warnings`` the number of warnings of any category that
    ``ast.parse`` raised; they are recorded, not printed.

    Under 3.11 the depth ``ast.parse`` accepts shrinks with the caller's
    stack, so a text it refuses as too deep is parsed again in a fresh
    thread, whose outcome is that of an empty stack from any caller. Every
    text that parses here also parses there. (Parsing every text in a thread
    took 10-20 % more CPU on a 2-vCPU machine.)
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    # A retry repeats the first attempt's warnings; its thread's are caught too.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            module = ast.parse(text)
        except RecursionError:
            caught.clear()
            module = _parse_in_fresh_thread(text)
    module.lines = _LINE_BREAK.split(text)
    module.syntax_warnings = len(caught)
    return module


def _parse_in_fresh_thread(text: str) -> ast.Module:
    """``ast.parse`` in a new thread; its exception is raised here."""
    outcome: list = []

    def run() -> None:
        try:
            outcome.append(ast.parse(text))
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    result = outcome.pop()
    if isinstance(result, BaseException):
        # The traceback holds this frame and run's, whose locals would lead
        # back to the exception: emptying ``outcome`` and dropping ``result``
        # leaves reference counting able to free it.
        try:
            raise result
        finally:
            del result
    return result


def parse_source(text: str | bytes) -> AstNode:
    """Parse Python source into a normalized tree rooted at a Module node.

    Decoding and errors are those of ``parse_module``.
    """
    root = _convert(parse_module(text))
    _finish(root, (1, 0, 1, 0))
    return root


# ---------------------------------------------------------------------------
# ast -> AstNode conversion
# ---------------------------------------------------------------------------


_NO_SPAN: Span = (0, 0, 0, 0)


def _span_of(node: ast.AST) -> Span:
    lineno = getattr(node, "lineno", None)
    if lineno is None:
        return _NO_SPAN
    return (lineno, node.col_offset, node.end_lineno, node.end_col_offset)


_OPERATORS = (ast.expr_context, ast.operator, ast.boolop, ast.unaryop, ast.cmpop)


def _convert(node: ast.AST) -> AstNode:
    entry = _TABLE.get(type(node).__name__)
    if entry is None:
        # Syntax the table does not list becomes a node named after its class,
        # so parsing stays total over rare or future grammar.
        children = [_convert(child) for child in ast.iter_child_nodes(node)
                    if not isinstance(child, _OPERATORS)]
        return AstNode(type(node).__name__, "", children, _span_of(node))
    if type(entry) is not tuple:
        return entry(node)
    kind, label_of, fields = entry
    children = []
    for name in fields:
        if type(name) is tuple:
            block_label, name = name
            stmts = getattr(node, name)
            if stmts:
                children.append(AstNode("Block", block_label,
                                        [_convert(stmt) for stmt in stmts]))
            continue
        value = getattr(node, name)
        if type(value) is list:
            for item in value:
                children.append(_convert(item))
        elif value is not None:
            children.append(_convert(value))
    return AstNode(kind, label_of(node) if label_of else "", children, _span_of(node))


# Children that can chain deeply (a call's callee and arguments) are converted
# by calling _convert directly: every extra stack frame per level would make a
# long chain such as ``a.b().c().d()`` hit the recursion limit sooner.


def _wrap(kind: str, node: ast.AST) -> AstNode:
    return AstNode(kind, "", [_convert(node)], _span_of(node))


def _convert_def(node) -> AstNode:
    args = node.args
    params = [AstNode("Param", a.arg, span=_span_of(a))
              for a in args.posonlyargs + args.args]
    if args.vararg:
        params.append(AstNode("Param", "*" + args.vararg.arg, span=_span_of(args.vararg)))
    params += [AstNode("Param", a.arg, span=_span_of(a)) for a in args.kwonlyargs]
    if args.kwarg:
        params.append(AstNode("Param", "**" + args.kwarg.arg, span=_span_of(args.kwarg)))
    params += [_wrap("Default", default)
               for default in args.defaults + [d for d in args.kw_defaults if d]]
    children = [_wrap("Decorator", dec) for dec in node.decorator_list]
    children.append(AstNode("Params", "", params, _span_of(args)))
    children.append(AstNode("Block", "body", [_convert(stmt) for stmt in node.body]))
    return AstNode("FunctionDef", node.name, children, _span_of(node))


def _convert_call(node: ast.Call) -> AstNode:
    children = [_convert(node.func)]
    for arg in node.args:
        children.append(_convert(arg))
    for kw in node.keywords:
        children.append(AstNode("Keyword", kw.arg or "**", [_convert(kw.value)],
                                _span_of(kw.value)))
    return AstNode("Call", "", children, _span_of(node))


def _convert_dict(node: ast.Dict) -> AstNode:
    children = []
    for key, value in zip(node.keys, node.values):
        children.append(AstNode("DoubleStar", "**", span=_span_of(value))
                        if key is None else _convert(key))
        children.append(_convert(value))
    return AstNode("Dict", "", children, _span_of(node))


def _convert_comprehension(comp: ast.comprehension) -> AstNode:
    children = [_convert(comp.target), _convert(comp.iter)]
    children += [_wrap("CompIf", test) for test in comp.ifs]
    return AstNode("CompFor", "", children, _span_of(comp.iter))


def _convert_annassign(node: ast.AnnAssign) -> AstNode:
    children = [_convert(node.target), _wrap("Annotation", node.annotation)]
    if node.value is not None:
        children.append(_convert(node.value))
    return AstNode("AnnAssign", "", children, _span_of(node))


def _convert_withitem(item: ast.withitem) -> AstNode:
    children = [_convert(item.context_expr)]
    if item.optional_vars is not None:
        children.append(_convert(item.optional_vars))
    return AstNode("WithItem", "", children, _span_of(item.context_expr))


def _convert_case(case: ast.match_case) -> AstNode:
    body = AstNode("Block", "body", [_convert(stmt) for stmt in case.body])
    return AstNode("Case", _unparse(case.pattern), [body], _span_of(case.pattern))


def _convert_import(node: ast.Import | ast.ImportFrom) -> AstNode:
    # Aliases take the statement's span.
    span = _span_of(node)
    aliases = []
    for alias in node.names:
        aliases.append(AstNode("ImportAlias", alias.name, span=span))
        if alias.asname:
            aliases[-1].children.append(AstNode("As", alias.asname, span=span))
    label = ""
    if isinstance(node, ast.ImportFrom):
        label = "." * node.level + (node.module or "")
    return AstNode(type(node).__name__, label, aliases, span)


def _convert_constant(node: ast.Constant) -> AstNode:
    value = node.value
    named = value is True or value is False or value is None or value is Ellipsis
    return AstNode("Constant" if named else "Literal", repr(value), span=_span_of(node))


def _unparse(node: ast.AST) -> str:
    return ast.unparse(node) if _nesting(node) <= UNPARSE_NESTING else "?"


def _handler_label(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "except"
    parts = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return "except:" + ",".join(_unparse(part) for part in parts)


def _names(node) -> str:
    return ",".join(node.names)


def _binop(node) -> str:
    return _BINOP_SYMBOLS[type(node.op)]


_BODY = ("body", "body")
_ELSE = ("else", "orelse")

# ast class name -> (kind, label function or None, child fields), or the
# function that converts it. A child field is an attribute (one node, or each
# node of a list; None is skipped) or a (block label, statement list) pair,
# which becomes a Block node when the list is not empty.
_TABLE = {
    "Module": ("Module", None, ("body",)),
    "FunctionDef": _convert_def,
    "AsyncFunctionDef": _convert_def,
    "ClassDef": ("ClassDef", lambda n: n.name, ("bases", "keywords", _BODY)),
    "Assign": ("Assign", None, ("targets", "value")),
    "AugAssign": ("AugAssign", lambda n: _binop(n) + "=", ("target", "value")),
    "AnnAssign": _convert_annassign,
    "Name": ("Name", lambda n: n.id, ()),
    "Constant": _convert_constant,
    "Call": _convert_call,
    "Attribute": ("Attribute", lambda n: n.attr, ("value",)),
    "BinOp": ("BinOp", _binop, ("left", "right")),
    "UnaryOp": ("UnaryOp", lambda n: _UNARYOP_SYMBOLS[type(n.op)], ("operand",)),
    "BoolOp": ("BoolOp", lambda n: "and" if isinstance(n.op, ast.And) else "or",
               ("values",)),
    "Compare": ("Compare", lambda n: " ".join(_CMPOP_SYMBOLS[type(op)] for op in n.ops),
                ("left", "comparators")),
    "Subscript": ("Subscript", None, ("value", "slice")),
    "Slice": ("Slice", None, ("lower", "upper", "step")),
    "List": ("List", None, ("elts",)),
    "Tuple": ("Tuple", None, ("elts",)),
    "Set": ("Set", None, ("elts",)),
    "Dict": _convert_dict,
    "ListComp": ("ListComp", None, ("elt", "generators")),
    "SetComp": ("SetComp", None, ("elt", "generators")),
    "GeneratorExp": ("GenExp", None, ("elt", "generators")),
    "DictComp": ("DictComp", None, ("key", "value", "generators")),
    "comprehension": _convert_comprehension,
    "JoinedStr": ("FString", None, ("values",)),
    "FormattedValue": ("FormatValue", None, ("value",)),
    # Parsed but opaque downstream: the body is kept for tree diffing only.
    "Lambda": ("Lambda", None, ("body",)),
    "IfExp": ("IfExp", None, ("body", "test", "orelse")),
    "If": ("If", None, ("test", ("then", "body"), _ELSE)),
    "For": ("For", None, ("target", "iter", _BODY, _ELSE)),
    "AsyncFor": ("For", None, ("target", "iter", _BODY, _ELSE)),
    "While": ("While", None, ("test", _BODY, _ELSE)),
    "With": ("With", None, ("items", _BODY)),
    "AsyncWith": ("With", None, ("items", _BODY)),
    "withitem": _convert_withitem,
    "Try": ("Try", None, (_BODY, "handlers", _ELSE, ("finally", "finalbody"))),
    "TryStar": ("Try", None, (_BODY, "handlers", _ELSE, ("finally", "finalbody"))),
    "ExceptHandler": ("Except", _handler_label, (_BODY,)),
    "Match": ("Match", None, ("subject", "cases")),
    "match_case": _convert_case,
    "Import": _convert_import,
    "ImportFrom": _convert_import,
    "Expr": ("Expr", None, ("value",)),
    "Return": ("Return", None, ("value",)),
    "Raise": ("Raise", None, ("exc", "cause")),
    "Assert": ("Assert", None, ("test", "msg")),
    "Delete": ("Del", None, ("targets",)),
    "Starred": ("Starred", None, ("value",)),
    "Await": ("Await", None, ("value",)),
    "Yield": ("Yield", None, ("value",)),
    "YieldFrom": ("YieldFrom", None, ("value",)),
    "NamedExpr": ("NamedExpr", None, ("target", "value")),
    "Pass": ("Pass", None, ()),
    "Break": ("Break", None, ()),
    "Continue": ("Continue", None, ()),
    "Global": ("Global", _names, ()),
    "Nonlocal": ("Nonlocal", _names, ()),
}


def _finish(node: AstNode, fallback: Span) -> Span:
    """Widen spans so every child span nests in its parent's."""
    span = node.span if node.span != (0, 0, 0, 0) else fallback
    for child in node.children:
        child_span = _finish(child, span)
        span = (
            min(span[0], child_span[0]),
            span[1] if (span[0], span[1]) <= (child_span[0], child_span[1]) else child_span[1],
            max(span[2], child_span[2]),
            span[3] if (span[2], span[3]) >= (child_span[2], child_span[3]) else child_span[3],
        )
    node.span = span
    return span


# ---------------------------------------------------------------------------
# Function extraction
# ---------------------------------------------------------------------------


# Fields holding nested statement lists, in the normalized tree's child order.
# Except handlers and match cases are clauses that each hold a body.
_BLOCK_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _child_statements(node: ast.AST):
    for name in _BLOCK_FIELDS:
        for item in getattr(node, name, ()):
            if isinstance(item, ast.stmt):
                yield item
            else:
                yield from item.body


def _statements(node: ast.AST):
    """Every statement under ``node``, in the normalized tree's preorder."""
    for stmt in _child_statements(node):
        yield stmt
        yield from _statements(stmt)


def extract_functions(module: ast.Module, module_path: str) -> list[FunctionUnit]:
    """Collect one unit per def of a ``parse_module`` tree, nested ones included.

    Qualified names are prefixed with enclosing class/function names; repeated
    names within one file get "#2", "#3" suffixes in definition order. Only
    statement lists are walked, since only they hold defs.
    """
    units: list[FunctionUnit] = []
    _collect_units(module, module_path, module.lines, units, {})
    return units


def _collect_units(node: ast.AST, prefix: str, lines: list[str],
                   units: list[FunctionUnit], name_counts: dict[str, int]) -> None:
    """Append a unit for each def under ``node``, in preorder.

    A module-level function, not one nested in ``extract_functions``: that
    one would refer to itself through its closure, which holds the units and
    so the module's tree, and leave them all as cyclic garbage.
    """
    for stmt in _child_statements(node):
        if isinstance(stmt, _DEFS):
            name = f"{prefix}.{stmt.name}" if prefix else stmt.name
            count = name_counts[name] = name_counts.get(name, 0) + 1
            qualified = name if count == 1 else f"{name}#{count}"
            units.append(FunctionUnit(qualified, stmt, lines))
            _collect_units(stmt, qualified, lines, units, name_counts)
        elif isinstance(stmt, ast.ClassDef):
            _collect_units(stmt, f"{prefix}.{stmt.name}" if prefix else stmt.name,
                           lines, units, name_counts)
        else:
            _collect_units(stmt, prefix, lines, units, name_counts)


def _prune_nested(def_node: AstNode) -> AstNode:
    """Reduce each nested def of a freshly converted def to a stub, in place.

    The stub keeps its widened span; removing children cannot widen a span,
    so ``_finish`` need not run again.
    """
    stack = list(def_node.children)
    while stack:
        node = stack.pop()
        if node.kind == "FunctionDef":
            node.children = []  # stub: nested def belongs to its own unit
        else:
            stack.extend(node.children)
    return def_node


# ---------------------------------------------------------------------------
# Import tables
# ---------------------------------------------------------------------------


def build_import_table(module: ast.Module) -> dict[str, str]:
    """Map each name an import binds anywhere in the module (module or
    function level) to the fully qualified dotted path it stands for.

    Relative imports keep their leading dots ("..util.helper"), which marks
    them as project-internal for the origin classifier.
    """
    table: dict[str, str] = {}
    for node in _statements(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                base = source if source.endswith(".") or not source else source + "."
                value = (base + alias.name) if source else alias.name
                table[alias.asname or alias.name] = value
    return table

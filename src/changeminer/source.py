"""Python source frontend: normalized syntax trees, function units, import tables.

The normalized tree is a plain labelled ordered tree. It deliberately forgets
formatting and comments so that whitespace-only edits parse to equal trees,
which in turn keeps the downstream change graphs quiet on cosmetic commits.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property

Span = tuple[int, int, int, int]

# Constructs that the graph builder does not support; a function unit whose
# (pruned) body contains one of these is kept but flagged supported=False.
UNSUPPORTED_KINDS = frozenset({"Yield", "YieldFrom", "Match"})

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
    """

    kind: str
    label: str = ""
    children: list["AstNode"] = field(default_factory=list)
    span: Span = (0, 0, 0, 0)
    parent: "AstNode | None" = field(default=None, repr=False)

    def add(self, child: "AstNode") -> "AstNode":
        child.parent = self
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
    """Structural equality over kind/label/children (spans ignored)."""
    if a.kind != b.kind or a.label != b.label or len(a.children) != len(b.children):
        return False
    return all(same_tree(x, y) for x, y in zip(a.children, b.children))


class FunctionUnit:
    """A single function or method definition extracted from one file revision.

    A unit keeps its raw ``ast`` def and the lines of its file. The normalized
    ``body`` (nested defs reduced to stubs, so no tree node belongs to two
    units), ``params``, ``supported`` and ``span`` are built from that def on
    first access, so a unit that is never looked into is never converted.
    """

    def __init__(self, qualified_name: str,
                 node: ast.FunctionDef | ast.AsyncFunctionDef, lines: list[str]):
        self.qualified_name = qualified_name
        self.node = node
        self.lines = lines

    @cached_property
    def body(self) -> AstNode:
        def_node = _convert(self.node)
        _finish(def_node, def_node.span)
        return _prune_nested(def_node)

    @cached_property
    def params(self) -> list[str]:
        for child in self.body.children:
            if child.kind == "Params":
                return [p.label for p in child.children if p.kind == "Param"]
        return []

    @cached_property
    def supported(self) -> bool:
        return _is_supported(self.body)

    @property
    def span(self) -> Span:
        return self.body.span

    @property
    def line_range(self) -> tuple[int, int]:
        """First and last line of the def, its decorators included."""
        node = self.node
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        return first, node.end_lineno

    def source_lines(self) -> list[str]:
        first, last = self.line_range
        return self.lines[first - 1:last]


@dataclass
class ImportTable:
    """Local name -> fully qualified dotted path, plus star-imported modules.

    Relative imports keep their leading dots ("..util.helper"), which marks
    them as project-internal for the origin classifier.
    """

    aliases: dict[str, str] = field(default_factory=dict)
    star_imports: list[str] = field(default_factory=list)


# The parser's line model: only these end a line ("\x0c", "\x85" or U+2028,
# which str.splitlines also breaks at, do not).
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def parse_module(text: str | bytes) -> ast.Module:
    """Parse Python source into a raw ``ast.Module``.

    Invalid UTF-8 byte sequences are replaced rather than rejected, so history
    mining never aborts on one badly encoded file. Raises ``SyntaxError`` when
    the text does not parse under the Python 3 grammar. The module carries the
    text's lines as ``lines``, which function units slice for their source.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    module = ast.parse(text)
    module.lines = _LINE_BREAK.split(text)
    return module


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


def _finish(node: AstNode, fallback: Span) -> Span:
    """Set parents and widen spans so every child span nests in its parent."""
    span = node.span if node.span != (0, 0, 0, 0) else fallback
    for child in node.children:
        child.parent = node
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
    name_counts: dict[str, int] = {}

    def disambiguate(name: str) -> str:
        count = name_counts.get(name, 0) + 1
        name_counts[name] = count
        return name if count == 1 else f"{name}#{count}"

    def walk(node: ast.AST, prefix: str) -> None:
        for stmt in _child_statements(node):
            if isinstance(stmt, _DEFS):
                raw_name = f"{prefix}.{stmt.name}" if prefix else stmt.name
                qualified = disambiguate(raw_name)
                units.append(FunctionUnit(qualified, stmt, module.lines))
                walk(stmt, qualified)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt, f"{prefix}.{stmt.name}" if prefix else stmt.name)
            else:
                walk(stmt, prefix)

    walk(module, module_path)
    return units


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


def _is_supported(body: AstNode) -> bool:
    for node in body.preorder():
        if node.kind in UNSUPPORTED_KINDS:
            return False
        if node.kind == "Block" and node.label == "finally":
            return False
    return True


# ---------------------------------------------------------------------------
# Import tables
# ---------------------------------------------------------------------------


def build_import_table(module: ast.Module) -> ImportTable:
    """Collect import bindings from anywhere in the module (module or function level)."""
    table = ImportTable()
    for node in _statements(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table.aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table.aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    if source:
                        table.star_imports.append(source)
                    continue
                base = source if source.endswith(".") or not source else source + "."
                value = (base + alias.name) if source else alias.name
                table.aliases[alias.asname or alias.name] = value
    return table

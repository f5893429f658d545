from __future__ import annotations

import ast
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import changeminer
from changeminer.mapping import _TreeIndex
from changeminer.pdg import UnsupportedConstruct, build_fgpdg
from changeminer.source import (_TABLE, UNPARSE_NESTING, build_import_table,
                                extract_functions, parse_module, parse_source,
                                same_tree)

import _oracle
from conftest import FIG2_BEFORE
from test_history import _from_depth


def test_only_source_imports_ast():
    # ``source`` is the one module that reads Python syntax.
    importers = []
    for path in sorted(Path(changeminer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m == "ast" or m.startswith("ast.") for m in modules):
                importers.append(path.name)
    assert importers == ["source.py"]


def test_minimal_assignment_shape():
    tree = parse_source("x = 1")
    assert tree.kind == "Module"
    assign = tree.children[0]
    assert assign.kind == "Assign"
    assert [(c.kind, c.label) for c in assign.children] == \
        [("Name", "x"), ("Literal", "1")]


def test_fig2_snippet_contains_for_with_attribute_call():
    tree = parse_source(FIG2_BEFORE)
    for_nodes = [n for n in tree.preorder() if n.kind == "For"]
    assert len(for_nodes) == 1
    calls = [n for n in for_nodes[0].preorder() if n.kind == "Call"]
    assert any(c.children[0].kind == "Attribute" and c.children[0].label == "add"
               for c in calls)


def test_syntax_error_carries_line():
    with pytest.raises(SyntaxError) as err:
        parse_source("def f(:")
    assert err.value.lineno == 1


def test_bytes_input_decoded_with_replacement():
    tree = parse_source(b"x = 'a'\n# \xff\xfe comment\n")
    assert tree.children[0].kind == "Assign"


def test_comment_and_whitespace_edits_parse_equal():
    original = "def f(a):\n    return a + 1\n"
    edited = "def f(a):\n\n    # adds one\n    return a  +  1\n"
    assert same_tree(parse_source(original), parse_source(edited))


def test_whitespace_edit_keeps_tree_but_literal_edit_does_not():
    assert not same_tree(parse_source("x = 1"), parse_source("x = 2"))


def test_span_containment_everywhere():
    source = (
        "@decorated\n"
        "def f(a, b=1):\n"
        "    if a:\n"
        "        return [i for i in range(b)]\n"
        "    return {x: y for x, y in items}\n"
    )
    tree = parse_source(source)
    parent = _TreeIndex(tree, {}).parent
    assert tree not in parent
    for node in tree.preorder():
        for child in node.children:
            assert (node.span[0], node.span[1]) <= (child.span[0], child.span[1])
            assert (child.span[2], child.span[3]) <= (node.span[2], node.span[3])
            assert parent[child] is node


def test_identifier_and_literal_labels_nonempty():
    tree = parse_source("value = compute('') or 0.5")
    for node in tree.preorder():
        if node.kind in ("Name", "Literal"):
            assert node.label


def test_extract_two_top_level_defs():
    units = extract_functions(parse_module("def a():\n    pass\n\ndef b():\n    pass\n"), "mod")
    assert [u.qualified_name for u in units] == ["mod.a", "mod.b"]


def test_method_qualified_name_includes_class():
    source = "class C:\n    def m(self):\n        return 1\n"
    units = extract_functions(parse_module(source), "pkg.mod")
    assert units[0].qualified_name == "pkg.mod.C.m"
    assert units[0].params == ["self"]


def test_duplicate_names_get_numbered_suffixes():
    source = (
        "def f():\n    return 1\n"
        "def f():\n    return 2\n"
        "def f():\n    return 3\n"
    )
    units = extract_functions(parse_module(source), "m")
    assert [u.qualified_name for u in units] == ["m.f", "m.f#2", "m.f#3"]


def test_nested_def_gets_own_unit_and_outer_body_is_pruned():
    source = (
        "def outer():\n"
        "    x = 1\n"
        "    def inner():\n"
        "        return x\n"
        "    return inner\n"
    )
    units = extract_functions(parse_module(source), "m")
    names = [u.qualified_name for u in units]
    assert names == ["m.outer", "m.outer.inner"]
    outer = units[0]
    stubs = [n for n in outer.body.preorder() if n.kind == "FunctionDef"]
    # the unit root plus a childless stub for the nested def
    assert len(stubs) == 2
    assert stubs[1].children == []


def test_units_have_disjoint_bodies():
    source = (
        "def outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
    )
    units = extract_functions(parse_module(source), "m")
    seen: set[int] = set()
    for unit in units:
        for node in unit.body.preorder():
            assert id(node) not in seen
            seen.add(id(node))


def _supported(unit, imports) -> bool:
    try:
        build_fgpdg(unit, imports)
    except UnsupportedConstruct:
        return False
    return True


@pytest.mark.parametrize("body,expected", [
    ("    yield x", False),
    ("    f = lambda: (yield)", True),
])
def test_supported_flag(body, expected):
    # The frontend keeps every def; only the graph builder decides support.
    tree = parse_module(f"def f(x, xs):\n{body}\n")
    units = extract_functions(tree, "m")
    assert len(units) == 1
    assert _supported(units[0], build_import_table(tree)) is expected


def test_generator_flagged_unsupported_but_kept():
    tree = parse_module("def gen():\n    yield 1\n")
    units = extract_functions(tree, "m")
    assert [u.qualified_name for u in units] == ["m.gen"]
    assert _supported(units[0], build_import_table(tree)) is False


def test_import_table_cases():
    source = (
        "import numpy as np\n"
        "import os.path\n"
        "from copy import deepcopy\n"
        "from collections import OrderedDict as OD\n"
        "from os.path import *\n"
    )
    table = build_import_table(parse_module(source))
    assert table["np"] == "numpy"
    assert table["os"] == "os"
    assert table["deepcopy"] == "copy.deepcopy"
    assert table["OD"] == "collections.OrderedDict"
    assert table.keys() == {"np", "os", "deepcopy", "OD"}


def test_relative_imports_keep_leading_dots():
    table = build_import_table(parse_module("from .util import helper\nfrom . import sibling\n"))
    assert table["helper"] == ".util.helper"
    assert table["sibling"] == ".sibling"


def test_empty_file_gives_empty_table():
    table = build_import_table(parse_module(""))
    assert table == {}


def test_import_table_is_pure_function_of_tree():
    source = "import json\nfrom copy import deepcopy\n"
    tree = parse_module(source)
    first = build_import_table(tree)
    second = build_import_table(tree)
    assert first == second


_names = st.sampled_from(["a", "b", "data", "value"])


@given(st.lists(_names, min_size=1, max_size=4), st.integers(0, 3))
def test_parse_idempotent_under_comment_insertion(names, pad):
    lines = [f"{name} = {i}" for i, name in enumerate(names)]
    plain = "\n".join(lines) + "\n"
    noisy = ("\n" * pad) + ("\n# noise\n".join(lines)) + "\n"
    assert same_tree(parse_source(plain), parse_source(noisy))


def _matches_full_tree_frontend(source: str):
    """Units and import table of ``source``, checked against the oracle's."""
    module = parse_module(source)
    units = extract_functions(module, "m")
    tree = _oracle.parse_source(source)
    expected = _oracle.extract_functions(tree, "m")
    assert [u.qualified_name for u in units] == [u.qualified_name for u in expected]
    for unit, old in zip(units, expected):
        assert unit.body.span == old.span, unit.qualified_name
        assert unit.line_range == (old.span[0], old.span[2]), unit.qualified_name
        assert same_tree(unit.body, old.body), unit.qualified_name
        assert [n.span for n in unit.body.preorder()] == \
            [n.span for n in old.body.preorder()], unit.qualified_name
        assert unit.params == old.params, unit.qualified_name
    assert build_import_table(module) == _oracle.build_import_table(tree)
    return units, build_import_table(module)


_STDLIB_FILES = sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))[:25]


@pytest.mark.skipif(not _STDLIB_FILES, reason="needs the standard library sources")
def test_units_match_the_full_tree_frontend_on_stdlib_files():
    checked = 0
    for path in _STDLIB_FILES:
        units, _ = _matches_full_tree_frontend(path.read_text(encoding="utf-8"))
        checked += len(units)
    assert checked > 500


def test_try_clauses_number_defs_in_tree_order():
    source = (
        "try:\n"
        "    import a as x, b as y\n"
        "    def f():\n        return 1\n"
        "except ImportError:\n"
        "    import c as x, d as y\n"
        "    def f():\n        return 2\n"
        "else:\n"
        "    import e as x\n"
        "    def f():\n        return 3\n"
        "finally:\n"
        "    def f():\n        return 4\n"
    )
    units, table = _matches_full_tree_frontend(source)
    assert [u.qualified_name for u in units] == ["m.f", "m.f#2", "m.f#3", "m.f#4"]
    assert [u.line_range[0] for u in units] == [3, 7, 11, 14]
    assert table == {"x": "e", "y": "d"}


def test_defs_in_match_cases_are_units():
    source = (
        "def dispatch(cmd):\n"
        "    match cmd:\n"
        "        case 'a':\n"
        "            from mod import one as pick\n"
        "            def handler():\n                return pick()\n"
        "        case _:\n"
        "            def handler():\n                return 2\n"
        "    return handler\n"
    )
    units, table = _matches_full_tree_frontend(source)
    assert [u.qualified_name for u in units] == \
        ["m.dispatch", "m.dispatch.handler", "m.dispatch.handler#2"]
    assert table == {"pick": "mod.one"}


def test_decorated_and_async_defs():
    source = (
        "@decorator\n"
        "@other.attr(1)\n"
        "async def fetch(url, *, timeout=3):\n"
        "    async with session() as s:\n"
        "        return await s.get(url)\n"
        "\n"
        "class C:\n"
        "    @property\n"
        "    def value(self):\n"
        "        return self._v\n"
        "\n"
        "    @value.setter\n"
        "    def value(self, v):\n"
        "        self._v = v\n"
    )
    units, _ = _matches_full_tree_frontend(source)
    assert [u.qualified_name for u in units] == ["m.fetch", "m.C.value", "m.C.value#2"]
    assert [u.line_range for u in units] == [(1, 5), (8, 10), (12, 14)]
    assert units[0].params == ["url", "timeout"]


def test_def_in_class_in_if_and_other_blocks():
    source = (
        "if sys.version_info >= (3, 8):\n"
        "    class Impl:\n"
        "        def run(self):\n            return 1\n"
        "else:\n"
        "    class Impl:\n"
        "        def run(self):\n            return 2\n"
        "while False:\n"
        "    def in_while():\n        pass\n"
        "with ctx():\n"
        "    def in_with():\n        pass\n"
        "for i in range(3):\n"
        "    def in_for():\n        pass\n"
        "else:\n"
        "    def in_for():\n        pass\n"
    )
    units, _ = _matches_full_tree_frontend(source)
    assert [u.qualified_name for u in units] == [
        "m.Impl.run", "m.Impl.run#2", "m.in_while", "m.in_with", "m.in_for",
        "m.in_for#2"]


def test_unit_lines_follow_the_parsers_line_breaks():
    source = "x = 1\r\ndef f():\r    s = '\x0c\u2028'\n    return s\n"
    [unit] = extract_functions(parse_module(source), "m")
    assert unit.line_range == (2, 4)
    assert unit.source_lines() == ["def f():", "    s = '\x0c\u2028'", "    return s"]


# The table-driven converter against the per-kind one it replaced.

_PLANTED = """\
from ..a import b as c
import os.path, sys as system
from . import *

counter: int
total: int = 0


@decorator
@other.attr(1, key=2)
def f(a, b=1, /, c=2, *args, d, e=3, **kwargs) -> None:
    global total, counter
    x = y = a + b * -c
    x += 1
    del x, args[0]
    if not a and b or c:
        pass
    elif a is not None:
        return
    else:
        raise ValueError("bad") from None
    for i, j in enumerate(args):
        if i:
            continue
        break
    else:
        pass
    while a < b <= c != d:
        a -= 1
    else:
        b = ...
    try:
        assert a, "message"
    except (KeyError, IndexError) as err:
        raise
    except ValueError:
        pass
    except:
        pass
    else:
        b = True
    finally:
        c = False
    with open(a) as fh, lock:
        data = fh.read()[1:2], a[::2], a[x:], a[:, 1]
    match data:
        case [1, *rest]:
            pass
        case {"k": v, **others}:
            pass
        case Point(x=0) | None:
            pass
        case _:
            pass

    def inner():
        nonlocal a
        yield a
        yield
        yield from b
    squares = [i * i for i in range(10) if i % 2 if i]
    evens = {i for i in args}
    mapping = {k: v for k, v in kwargs.items()}
    gen = (i for i in args)
    merged = {**kwargs, "a": 1, 2: b}
    label = f"{a!r:>{b}} and {c:.2f} text"
    func = lambda p, q=1: p + q
    choice = a if b else c
    if (n := len(args)) > 1:
        print(*args, sep="", **kwargs)
    return {1, 2}, [a, b], (), 1.5, 2j, b"bytes", "text"


class Point(Base, metaclass=Meta):
    x: int = 0

    def method(self):
        return self.x


async def g():
    async for item in stream():
        await item
    async with session() as s:
        pass
"""

if sys.version_info >= (3, 11):
    _PLANTED += """
try:
    pass
except* (OSError, ValueError) as group:
    pass
"""


def _preorder(tree):
    return [(n.kind, n.label, n.span, len(n.children)) for n in tree.preorder()]


def _assert_same_conversion(paths) -> None:
    assert len(paths) > 30
    for path in paths:
        text = path.read_bytes()
        assert _preorder(parse_source(text)) == \
            _preorder(_oracle.parse_source(text)), path


def test_planted_source_reaches_every_table_entry():
    kinds = {type(node).__name__ for node in ast.walk(parse_module(_PLANTED))}
    missing = set(_TABLE) - kinds
    if sys.version_info < (3, 11):
        missing.discard("TryStar")
    assert not missing
    assert "keyword" in kinds and "keyword" not in _TABLE  # the fallback
    assert _preorder(parse_source(_PLANTED)) == \
        _preorder(_oracle.parse_source(_PLANTED))


def test_long_method_chain_converts():
    # Each link of a.b().b()... nests a Call and an Attribute one level deeper.
    tree = parse_source("x = a" + ".b()" * 250 + "\n")
    assert sum(node.kind == "Call" for node in tree.preorder()) == 250


_STDLIB = Path(sysconfig.get_paths()["stdlib"])
_STDLIB_SAMPLE = sorted(_STDLIB.glob("*.py"))[::10] + \
    sorted(p for p in _STDLIB.glob("[!_]*/*.py") if "site-packages" not in p.parts)[::40]


@pytest.mark.skipif(not _STDLIB_SAMPLE, reason="needs the standard library sources")
def test_conversion_matches_the_per_kind_converter_on_stdlib_files():
    _assert_same_conversion(_STDLIB_SAMPLE)


def _installed(dist: str, package: str, step: int) -> list[Path]:
    """Every ``step``-th file of an installed package, or [] when absent."""
    for info in sorted(Path.home().glob(
            f".pyenv/versions/*/lib/python3.*/site-packages/{dist}.dist-info")):
        return sorted((info.parent / package).rglob("*.py"))[::step]
    return []


_PIP_SAMPLE = _installed("pip-23.2.1", "pip", 20)
_SETUPTOOLS_SAMPLE = _installed("setuptools-65.5.0", "setuptools", 15)


@pytest.mark.skipif(not _PIP_SAMPLE or not _SETUPTOOLS_SAMPLE,
                    reason="needs pip 23.2.1 and setuptools 65.5.0")
def test_conversion_matches_the_per_kind_converter_on_pip_and_setuptools():
    _assert_same_conversion(_PIP_SAMPLE + _SETUPTOOLS_SAMPLE)


def _labels(attributes: int) -> list[str]:
    chain = "a" + ".b" * attributes
    source = (f"def f(x):\n    try:\n        pass\n    except {chain}:\n        pass\n"
              f"    match x:\n        case {chain}:\n            pass\n")
    unit = extract_functions(parse_module(source), "m")[0]
    return [node.label for node in unit.body.preorder()
            if node.kind in ("Except", "Case")]


@pytest.mark.parametrize("attributes", [UNPARSE_NESTING - 3, UNPARSE_NESTING - 2,
                                        250, 290])
def test_except_and_case_labels_do_not_depend_on_the_callers_stack(attributes):
    direct = _labels(attributes)
    assert _from_depth(300, lambda: _labels(attributes)) == direct
    # A chain of n attributes nests n + 2 levels (its Name and Load below);
    # a case pattern adds one more (MatchValue above).
    text = "a" + ".b" * attributes
    assert direct == ["except:" + (text if attributes + 2 <= UNPARSE_NESTING else "?"),
                      text if attributes + 3 <= UNPARSE_NESTING else "?"]

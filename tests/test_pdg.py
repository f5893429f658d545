from __future__ import annotations

import pytest

from changeminer.pdg import (CONTROL_EDGE_LABELS, DATA_EDGE_LABELS,
                             UnsupportedConstruct, build_fgpdg, resolve_callee)
from changeminer.source import (build_import_table, extract_functions,
                                parse_module, parse_source)

from conftest import FIG2_BEFORE, build_unit


def graph_of(source: str):
    unit, imports = build_unit(source)
    return build_fgpdg(unit, imports)


def find_node(graph, **attrs):
    for node in graph.nodes:
        if all(getattr(node, key) == value for key, value in attrs.items()):
            return node
    raise AssertionError(f"no node with {attrs}")


def edges_between(graph, src, dst):
    return [(e.kind, e.label) for e in graph.edges
            if e.src == src.id and e.dst == dst.id]


def test_fig2_before_graph_structure():
    graph = graph_of(FIG2_BEFORE)
    for_node = find_node(graph, kind="Control", subkind="for")
    add_call = find_node(graph, subkind="call", label="?.add")
    collection = find_node(graph, subkind="var", concrete_name="collection")
    elem = find_node(graph, subkind="var", concrete_name="elem")
    data = find_node(graph, subkind="var", concrete_name="data")
    assert ("Control", "body") in edges_between(graph, for_node, add_call)
    assert ("Data", "cond") in edges_between(graph, collection, for_node)
    assert ("Data", "para") in edges_between(graph, elem, add_call)
    assert ("Data", "recv") in edges_between(graph, data, add_call)


def test_pass_body_has_zero_nodes():
    graph = graph_of("def f():\n    pass\n")
    assert graph.nodes == [] and graph.edges == []


def test_update_call_receiver_and_parameter():
    graph = graph_of("def f(data, collection):\n    data.update(collection)\n")
    call = find_node(graph, subkind="call", label="?.update")
    data = find_node(graph, subkind="var", concrete_name="data")
    collection = find_node(graph, subkind="var", concrete_name="collection")
    assert ("Data", "recv") in edges_between(graph, data, call)
    assert ("Data", "para") in edges_between(graph, collection, call)


def test_fresh_assignments_give_exactly_n_def_edges():
    graph = graph_of("def f():\n    a = 1\n    b = 2\n    c = 3\n")
    defs = [e for e in graph.edges if e.label == "def"]
    assert len(defs) == 3


def test_edge_label_closure():
    source = (
        "def f(xs, flag):\n"
        "    total = 0\n"
        "    with open('p') as handle:\n"
        "        for x in xs:\n"
        "            if flag and x > 0:\n"
        "                total += xs[x] * 2\n"
        "    try:\n"
        "        g(total, key=len(xs))\n"
        "    except ValueError:\n"
        "        total = -1\n"
        "    return [str(v) for v in xs if v]\n"
    )
    graph = graph_of(source)
    for edge in graph.edges:
        if edge.kind == "Data":
            assert edge.label in DATA_EDGE_LABELS
        else:
            assert edge.kind == "Control"
            assert edge.label in CONTROL_EDGE_LABELS


def test_control_edges_never_enter_data_nodes_and_only_leave_control():
    graph = graph_of(
        "def f(xs):\n"
        "    out = []\n"
        "    for x in xs:\n"
        "        if x:\n"
        "            out.append(x)\n"
        "    return out\n")
    by_id = {node.id: node for node in graph.nodes}
    for edge in graph.edges:
        if edge.kind == "Control":
            assert by_id[edge.src].kind == "Control"
            assert by_id[edge.dst].kind in ("Operation", "Control")


def test_determinism_two_builds_identical():
    source = "def f(a):\n    b = a + 1\n    return g(b, a)\n"
    g1, g2 = graph_of(source), graph_of(source)
    assert [(n.id, n.kind, n.subkind, n.label, n.concrete_name) for n in g1.nodes] == \
           [(n.id, n.kind, n.subkind, n.label, n.concrete_name) for n in g2.nodes]
    assert g1.edges == g2.edges


def test_resolve_callee_alias_chain():
    source = "import numpy as np\n\ndef f():\n    return np.zeros(3)\n"
    graph = graph_of(source)
    assert find_node(graph, subkind="call").label == "numpy.zeros"


def test_resolve_callee_cases():
    source = "import numpy as np\nx = np.zeros(3)\ny = obj.copy()\nz = set()\n"
    tree = parse_source(source)
    imports = build_import_table(parse_module(source))
    calls = [n for n in tree.preorder() if n.kind == "Call"]
    labels = [resolve_callee(c, imports) for c in calls]
    assert labels == ["numpy.zeros", "?.copy", "set"]


def test_resolved_module_chain_folds_into_label():
    graph = graph_of("import os\n\ndef f(p):\n    return os.path.exists(p)\n")
    call = find_node(graph, subkind="call")
    assert call.label == "os.path.exists"
    # no receiver edge for a folded module qualifier
    assert not any(e.label == "recv" for e in graph.edges)


def test_augmented_assignment_expands_to_binop_with_def():
    graph = graph_of("def f(x, y):\n    x += y\n")
    op = find_node(graph, subkind="binop", label="+")
    x = find_node(graph, subkind="var", concrete_name="x")
    assert ("Data", "def") in edges_between(graph, op, x)
    assert ("Data", "ref") in edges_between(graph, x, op)


def test_comprehension_becomes_for_control():
    graph = graph_of("def f(xs):\n    return [g(x) for x in xs]\n")
    for_node = find_node(graph, kind="Control", subkind="for")
    call = find_node(graph, subkind="call", label="g")
    assert ("Control", "body") in edges_between(graph, for_node, call)
    xs = find_node(graph, subkind="var", concrete_name="xs")
    assert ("Data", "cond") in edges_between(graph, xs, for_node)


def test_except_handler_is_nested_control_named_by_exception():
    graph = graph_of(
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError:\n"
        "        h()\n")
    try_node = find_node(graph, subkind="try", label="try")
    handler = find_node(graph, subkind="try", label="except:ValueError")
    h_call = find_node(graph, subkind="call", label="h")
    assert ("Control", "then") in edges_between(graph, try_node, handler)
    assert ("Control", "body") in edges_between(graph, handler, h_call)


def test_literals_keep_lexical_value():
    graph = graph_of("def f():\n    return g([0, 0, 0])\n")
    zeros = [n for n in graph.nodes if n.subkind == "literal" and n.label == "0"]
    assert len(zeros) == 3
    container = find_node(graph, subkind="literal", label="[]")
    call = find_node(graph, subkind="call", label="g")
    assert ("Data", "para") in edges_between(graph, container, call)


def test_variables_carry_abstract_label():
    graph = graph_of("def f(first, second):\n    return first + second\n")
    variables = [n for n in graph.nodes if n.subkind == "var"]
    assert all(n.label == "var" for n in variables)
    assert {n.concrete_name for n in variables} == {"first", "second"}


def test_unsupported_construct_raises_defensively():
    unit, imports = build_unit("def f():\n    yield 1\n")
    with pytest.raises(UnsupportedConstruct):
        build_fgpdg(unit, imports)


@pytest.mark.parametrize("body,kind", [
    ("    yield x", "Yield"),
    ("    yield from xs", "YieldFrom"),
    ("    try:\n        pass\n    finally:\n        pass", "finally"),
    ("    match x:\n        case 1:\n            pass", "Match"),
    ("    return x", None),
    ("    try:\n        pass\n    except ValueError:\n        pass", None),
    ("    f = lambda: (yield)", None),
])
def test_builder_is_the_one_unsupported_check(body, kind):
    # A lambda body is opaque to the builder, so a yield inside it is no bar.
    tree = parse_module(f"def f(x, xs):\n{body}\n")
    units = extract_functions(tree, "m")
    assert len(units) == 1
    if kind is None:
        build_fgpdg(units[0], build_import_table(tree))
        return
    with pytest.raises(UnsupportedConstruct) as err:
        build_fgpdg(units[0], build_import_table(tree))
    assert err.value.kind == kind


def test_isolated_data_nodes_dropped():
    graph = graph_of('def f():\n    """doc"""\n    g()\n')
    assert [n.label for n in graph.nodes] == ["g"]


@pytest.mark.parametrize("statement", ["obj.attr += 1", "seq[-1] += x",
                                       "total += x"])
def test_augmented_assignment_target_yields_one_node(statement):
    unit, imports = build_unit(f"def f(obj, seq, total, x):\n    {statement}\n")
    graph = build_fgpdg(unit, imports)
    parent = {child: node for node in unit.body.preorder()
              for child in node.children}
    owners: dict[int, set[int]] = {}
    for node in graph.nodes:
        for origin in node.origins:
            owners.setdefault(id(origin), set()).add(node.id)
    assert all(len(nodes) == 1 for nodes in owners.values())
    binop = find_node(graph, subkind="binop")
    targets = [node for node in graph.nodes
               if any(parent[o].kind == "AugAssign" and o is parent[o].children[0]
                      for o in node.origins)]
    assert len(targets) == 1
    assert ("Data", "ref") in edges_between(graph, targets[0], binop)
    assert ("Data", "def") in edges_between(graph, binop, targets[0])


# One async def that reaches every rule of the builder; syntax whose ``ast``
# is the same on Python 3.10 to 3.13.
_EVERY_RULE = '''\
async def every_rule(items, mapping, obj, flag):
    total = 0
    label = None
    pairs = [1, "a"], (2,), {3}, {"k": 4, **mapping}
    neg = -total if not flag else ~total
    check = 0 < total <= 10 and flag or total is None
    scale = lambda v: v * 2
    if (n := len(items)) > 3:
        total += n
    elif flag:
        label = f"n={n}"
    while total < 100:
        total = total * 2 + 1
    else:
        total -= 1
    for key, *rest in items:
        obj.count += key
        mapping[key] -= 1
    else:
        total ^= 3
    with open(items[0]) as handle, lock:
        data = await handle.read(size=10, **mapping)
    try:
        squares = {k: v ** 2 for k, v in mapping.items() if v}
        print(*items, sep="")
    except (KeyError, ValueError) as exc:
        raise RuntimeError(exc) from exc
    except OSError:
        total = ...
    else:
        head = items[1:n:2]
    width: int
    height: int = total // 2
    assert total, "total must be set"
    return [x for x in items if x], (y for y in items), {z for z in items}
'''

_PINNED_NODES = [
    ('Data', 'literal', '0', None), ('Data', 'var', 'var', 'total'),
    ('Data', 'constant', 'None', None), ('Data', 'var', 'var', 'label'),
    ('Data', 'literal', '()', None), ('Data', 'literal', '[]', None),
    ('Data', 'literal', '1', None), ('Data', 'literal', "'a'", None),
    ('Data', 'literal', '()', None), ('Data', 'literal', '2', None),
    ('Data', 'literal', '{}', None), ('Data', 'literal', '3', None),
    ('Data', 'literal', '{:}', None), ('Data', 'literal', "'k'", None),
    ('Data', 'literal', '4', None), ('Data', 'var', 'var', 'mapping'),
    ('Data', 'var', 'var', 'pairs'), ('Control', 'if', 'if', None),
    ('Operation', 'unaryop', 'not', None), ('Data', 'var', 'var', 'flag'),
    ('Operation', 'unaryop', '-', None), ('Operation', 'unaryop', '~', None),
    ('Data', 'var', 'var', 'neg'), ('Operation', 'binop', 'or', None),
    ('Operation', 'binop', 'and', None),
    ('Operation', 'compare', '< <=', None), ('Data', 'literal', '0', None),
    ('Data', 'literal', '10', None), ('Operation', 'compare', 'is', None),
    ('Data', 'constant', 'None', None), ('Data', 'var', 'var', 'check'),
    ('Data', 'literal', 'lambda', None), ('Data', 'var', 'var', 'scale'),
    ('Control', 'if', 'if', None), ('Operation', 'compare', '>', None),
    ('Operation', 'call', 'len', 'len'), ('Data', 'var', 'var', 'items'),
    ('Data', 'var', 'var', 'n'), ('Data', 'literal', '3', None),
    ('Operation', 'binop', '+', None), ('Control', 'if', 'if', None),
    ('Data', 'literal', "f''", None), ('Data', 'literal', "'n='", None),
    ('Control', 'while', 'while', None), ('Operation', 'compare', '<', None),
    ('Data', 'literal', '100', None), ('Operation', 'binop', '+', None),
    ('Operation', 'binop', '*', None), ('Data', 'literal', '2', None),
    ('Data', 'literal', '1', None), ('Operation', 'binop', '-', None),
    ('Data', 'literal', '1', None), ('Control', 'for', 'for', None),
    ('Data', 'var', 'var', 'key'), ('Data', 'var', 'var', 'rest'),
    ('Operation', 'binop', '+', None),
    ('Operation', 'attribute', 'count', None), ('Data', 'var', 'var', 'obj'),
    ('Operation', 'binop', '-', None), ('Operation', 'subscript', '[]', None),
    ('Data', 'literal', '1', None), ('Operation', 'binop', '^', None),
    ('Data', 'literal', '3', None), ('Control', 'with', 'with', None),
    ('Operation', 'call', 'open', 'open'),
    ('Operation', 'subscript', '[]', None), ('Data', 'literal', '0', None),
    ('Data', 'var', 'var', 'handle'), ('Data', 'var', 'var', 'lock'),
    ('Operation', 'call', '?.read', 'read'), ('Data', 'literal', '10', None),
    ('Data', 'var', 'var', 'data'), ('Control', 'try', 'try', None),
    ('Data', 'literal', '{:}', None), ('Control', 'for', 'for', None),
    ('Operation', 'call', '?.items', 'items'), ('Data', 'var', 'var', 'k'),
    ('Data', 'var', 'var', 'v'), ('Control', 'if', 'if', None),
    ('Operation', 'binop', '**', None), ('Data', 'literal', '2', None),
    ('Data', 'var', 'var', 'squares'), ('Operation', 'call', 'print', 'print'),
    ('Data', 'literal', "''", None),
    ('Control', 'try', 'except:KeyError,ValueError', None),
    ('Operation', 'call', 'RuntimeError', 'RuntimeError'),
    ('Data', 'var', 'var', 'exc'), ('Control', 'try', 'except:OSError', None),
    ('Data', 'constant', 'Ellipsis', None),
    ('Operation', 'subscript', '[]', None), ('Data', 'literal', '1', None),
    ('Data', 'literal', '2', None), ('Data', 'var', 'var', 'head'),
    ('Operation', 'binop', '//', None), ('Data', 'literal', '2', None),
    ('Data', 'var', 'var', 'height'), ('Data', 'literal', '()', None),
    ('Data', 'literal', '[]', None), ('Control', 'for', 'for', None),
    ('Data', 'var', 'var', 'x'), ('Control', 'if', 'if', None),
    ('Data', 'literal', '()', None), ('Control', 'for', 'for', None),
    ('Data', 'var', 'var', 'y'), ('Data', 'literal', '{}', None),
    ('Control', 'for', 'for', None), ('Data', 'var', 'var', 'z'),
]
_PINNED_EDGES = [
    (0, 1, 'Data', 'def'), (1, 20, 'Data', 'ref'), (1, 21, 'Data', 'ref'),
    (1, 25, 'Data', 'ref'), (1, 28, 'Data', 'ref'), (1, 39, 'Data', 'ref'),
    (1, 44, 'Data', 'ref'), (1, 47, 'Data', 'ref'), (1, 50, 'Data', 'ref'),
    (1, 61, 'Data', 'ref'), (1, 93, 'Data', 'ref'), (2, 3, 'Data', 'def'),
    (4, 16, 'Data', 'def'), (5, 4, 'Data', 'ref'), (6, 5, 'Data', 'ref'),
    (7, 5, 'Data', 'ref'), (8, 4, 'Data', 'ref'), (9, 8, 'Data', 'ref'),
    (10, 4, 'Data', 'ref'), (11, 10, 'Data', 'ref'), (12, 4, 'Data', 'ref'),
    (13, 12, 'Data', 'ref'), (14, 12, 'Data', 'ref'), (15, 12, 'Data', 'ref'),
    (15, 59, 'Data', 'qual'), (15, 69, 'Data', 'para'),
    (15, 75, 'Data', 'recv'), (17, 20, 'Control', 'then'),
    (17, 21, 'Control', 'else'), (18, 17, 'Data', 'cond'),
    (19, 18, 'Data', 'ref'), (19, 24, 'Data', 'ref'), (19, 40, 'Data', 'cond'),
    (20, 22, 'Data', 'def'), (21, 22, 'Data', 'def'), (23, 30, 'Data', 'def'),
    (24, 23, 'Data', 'ref'), (25, 24, 'Data', 'ref'), (26, 25, 'Data', 'ref'),
    (27, 25, 'Data', 'ref'), (28, 23, 'Data', 'ref'), (29, 28, 'Data', 'ref'),
    (31, 32, 'Data', 'def'), (33, 39, 'Control', 'then'),
    (33, 40, 'Control', 'else'), (34, 33, 'Data', 'cond'),
    (35, 37, 'Data', 'def'), (36, 35, 'Data', 'para'),
    (36, 52, 'Data', 'cond'), (36, 53, 'Data', 'def'), (36, 54, 'Data', 'def'),
    (36, 65, 'Data', 'qual'), (36, 82, 'Data', 'para'),
    (36, 89, 'Data', 'qual'), (36, 98, 'Data', 'cond'),
    (36, 99, 'Data', 'def'), (36, 102, 'Data', 'cond'),
    (36, 103, 'Data', 'def'), (36, 105, 'Data', 'cond'),
    (36, 106, 'Data', 'def'), (37, 34, 'Data', 'ref'), (37, 39, 'Data', 'ref'),
    (37, 41, 'Data', 'ref'), (37, 89, 'Data', 'ref'), (38, 34, 'Data', 'ref'),
    (39, 1, 'Data', 'def'), (41, 3, 'Data', 'def'), (42, 41, 'Data', 'ref'),
    (43, 46, 'Control', 'body'), (43, 47, 'Control', 'body'),
    (43, 50, 'Control', 'else'), (44, 43, 'Data', 'cond'),
    (45, 44, 'Data', 'ref'), (46, 1, 'Data', 'def'), (47, 46, 'Data', 'ref'),
    (48, 47, 'Data', 'ref'), (49, 46, 'Data', 'ref'), (50, 1, 'Data', 'def'),
    (51, 50, 'Data', 'ref'), (52, 55, 'Control', 'body'),
    (52, 56, 'Control', 'body'), (52, 58, 'Control', 'body'),
    (52, 59, 'Control', 'body'), (52, 61, 'Control', 'else'),
    (53, 55, 'Data', 'ref'), (53, 59, 'Data', 'ref'), (55, 56, 'Data', 'def'),
    (56, 55, 'Data', 'ref'), (57, 56, 'Data', 'qual'), (58, 59, 'Data', 'def'),
    (59, 58, 'Data', 'ref'), (60, 58, 'Data', 'ref'), (61, 1, 'Data', 'def'),
    (62, 61, 'Data', 'ref'), (63, 69, 'Control', 'body'),
    (64, 63, 'Data', 'cond'), (64, 67, 'Data', 'def'),
    (65, 64, 'Data', 'para'), (66, 65, 'Data', 'ref'),
    (67, 69, 'Data', 'recv'), (68, 63, 'Data', 'cond'),
    (69, 71, 'Data', 'def'), (70, 69, 'Data', 'para'),
    (72, 74, 'Control', 'body'), (72, 75, 'Control', 'body'),
    (72, 82, 'Control', 'body'), (72, 84, 'Control', 'then'),
    (72, 87, 'Control', 'then'), (72, 89, 'Control', 'else'),
    (73, 81, 'Data', 'def'), (74, 78, 'Control', 'body'),
    (75, 74, 'Data', 'cond'), (75, 76, 'Data', 'def'), (75, 77, 'Data', 'def'),
    (76, 73, 'Data', 'ref'), (77, 78, 'Data', 'cond'), (77, 79, 'Data', 'ref'),
    (78, 79, 'Control', 'body'), (79, 73, 'Data', 'ref'),
    (80, 79, 'Data', 'ref'), (83, 82, 'Data', 'para'),
    (84, 85, 'Control', 'body'), (86, 85, 'Data', 'para'),
    (88, 1, 'Data', 'def'), (89, 92, 'Data', 'def'), (90, 89, 'Data', 'ref'),
    (91, 89, 'Data', 'ref'), (93, 95, 'Data', 'def'), (94, 93, 'Data', 'ref'),
    (97, 96, 'Data', 'ref'), (98, 100, 'Control', 'body'),
    (99, 97, 'Data', 'ref'), (99, 100, 'Data', 'cond'),
    (101, 96, 'Data', 'ref'), (103, 101, 'Data', 'ref'),
    (104, 96, 'Data', 'ref'), (106, 104, 'Data', 'ref'),
]


def test_every_rule_builds_the_pinned_graph():
    graph = graph_of(_EVERY_RULE)
    assert [(n.kind, n.subkind, n.label, n.concrete_name)
            for n in graph.nodes] == _PINNED_NODES
    assert [(e.src, e.dst, e.kind, e.label) for e in graph.edges] == _PINNED_EDGES

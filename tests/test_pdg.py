from __future__ import annotations

import pytest

from changeminer.pdg import (CONTROL_EDGE_LABELS, DATA_EDGE_LABELS,
                             UnsupportedConstruct, build_fgpdg, resolve_callee)
from changeminer.source import parse_module, parse_source

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
    from changeminer.source import build_import_table
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
    assert unit.supported is False
    with pytest.raises(UnsupportedConstruct):
        build_fgpdg(unit, imports)


def test_isolated_data_nodes_dropped():
    graph = graph_of('def f():\n    """doc"""\n    g()\n')
    assert [n.label for n in graph.nodes] == ["g"]


@pytest.mark.parametrize("statement", ["obj.attr += 1", "seq[-1] += x",
                                       "total += x"])
def test_augmented_assignment_target_yields_one_node(statement):
    graph = graph_of(f"def f(obj, seq, total, x):\n    {statement}\n")
    owners: dict[int, set[int]] = {}
    for node in graph.nodes:
        for origin in node.origins:
            owners.setdefault(id(origin), set()).add(node.id)
    assert all(len(nodes) == 1 for nodes in owners.values())
    binop = find_node(graph, subkind="binop")
    targets = [node for node in graph.nodes
               if any(o.parent.kind == "AugAssign" and o is o.parent.children[0]
                      for o in node.origins)]
    assert len(targets) == 1
    assert ("Data", "ref") in edges_between(graph, targets[0], binop)
    assert ("Data", "def") in edges_between(graph, binop, targets[0])

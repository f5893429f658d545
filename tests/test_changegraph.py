from __future__ import annotations

import sysconfig
from collections import Counter
from pathlib import Path

import pytest

from changeminer.changegraph import Provenance, build_change_graph, mark_changed
from changeminer.history import (_rebound_names, _same_body, _same_def_text,
                                 change_graph_for_pair, match_functions,
                                 unchanged_pair)
from changeminer.mapping import map_asts, project_mapping
from changeminer.pdg import UnsupportedConstruct, build_fgpdg
from changeminer.source import build_import_table, extract_functions, parse_module

from _oracle import reference_map_asts
from conftest import FIG2_AFTER, FIG2_BEFORE, build_unit, change_graph_for

_PROV = Provenance("repo", "c1", "c0", "a.py", "m.f", "x", "")


def unit_pipeline(unit_b, imports_b, unit_a, imports_a):
    """The graph layers for one pair, without the unchanged-pair skip."""
    g_b = build_fgpdg(unit_b, imports_b)
    g_a = build_fgpdg(unit_a, imports_a)
    nm = project_mapping(map_asts(unit_b.body, unit_a.body), g_b, g_a)
    return g_b, g_a, nm


def pipeline(before_src: str, after_src: str):
    return unit_pipeline(*build_unit(before_src), *build_unit(after_src))


def test_identical_revisions_mark_nothing_changed():
    src = "def f(a):\n    return g(a) + 1\n"
    g_b, g_a, nm = pipeline(src, src)
    changed_b, changed_a = mark_changed(g_b, g_a, nm)
    assert changed_b == set() and changed_a == set()


def test_identical_revisions_build_no_change_graph():
    src = "def f(a):\n    b = g(a)\n    return b\n"
    assert change_graph_for(src, src) is None


@pytest.mark.parametrize("statement", ["obj.attr += 1", "seq[-1] += x"])
def test_augmented_assignment_to_attribute_or_item_diffs_to_nothing(statement):
    src = f"def f(obj, seq, x):\n    {statement}\n"
    assert build_change_graph(*pipeline(src, src), _PROV) is None


def test_whitespace_only_commit_builds_no_change_graph():
    before = "def f(a):\n    return g(a)\n"
    after = "def f(a):\n\n    return g( a )\n"
    assert change_graph_for(before, after) is None


def test_renamed_call_marks_both_versions_changed():
    g_b, g_a, nm = pipeline(FIG2_BEFORE, FIG2_AFTER)
    changed_b, changed_a = mark_changed(g_b, g_a, nm)
    add = next(n for n in g_b.nodes if n.label == "?.add")
    update = next(n for n in g_a.nodes if n.label == "?.update")
    assert add.id in changed_b
    assert update.id in changed_a


def test_unmapped_new_argument_is_changed():
    before = "def f(x):\n    g(x)\n"
    after = "def f(x):\n    g(x, 1)\n"
    g_b, g_a, nm = pipeline(before, after)
    _, changed_a = mark_changed(g_b, g_a, nm)
    literal = next(n for n in g_a.nodes if n.subkind == "literal")
    assert literal.id in changed_a


def test_fig2_change_graph_has_required_map_edges():
    graph = change_graph_for(FIG2_BEFORE, FIG2_AFTER)
    labels = {n["id"]: (n["label"], n["concrete_name"], n["version"])
              for n in graph["nodes"]}
    mapped = {(labels[b][:2], labels[a][:2]) for b, a in graph["map_edges"]}
    assert (("?.add", "add"), ("?.update", "update")) in mapped
    assert (("var", "collection"), ("var", "collection")) in mapped
    assert graph["changed"]


def test_map_edges_connect_matching_versions_and_kinds():
    graph = change_graph_for(FIG2_BEFORE, FIG2_AFTER)
    by_id = {n["id"]: n for n in graph["nodes"]}
    for b, a in graph["map_edges"]:
        assert by_id[b]["version"] == "Before"
        assert by_id[a]["version"] == "After"
        assert by_id[b]["kind"] == by_id[a]["kind"]


def test_context_pruning_keeps_one_hop_neighbours():
    before = (
        "def f(a, b):\n"
        "    x = first(a)\n"
        "    y = second(b)\n"
        "    z = third(x, y)\n"
        "    return checker(z)\n"
    )
    after = before.replace("checker", "verifier")
    graph = change_graph_for(before, after)
    labels_before = {(n["label"], n["concrete_name"]) for n in graph["nodes"]
                     if n["version"] == "Before"}
    # changed call, its argument var, plus 1-hop mapped neighbour of z (third)
    assert ("checker", "checker") in labels_before
    assert ("var", "z") in labels_before
    assert ("third", "third") in labels_before
    # two hops away: the argument vars of third and everything upstream
    assert ("var", "x") not in labels_before
    assert ("first", "first") not in labels_before


def test_all_map_edges_connect_surviving_nodes():
    graph = change_graph_for(FIG2_BEFORE, FIG2_AFTER)
    ids = {n["id"] for n in graph["nodes"]}
    for b, a in graph["map_edges"]:
        assert b in ids and a in ids
    for edge in graph["edges"]:
        assert edge["src"] in ids and edge["dst"] in ids


def test_node_count_bounded_by_inputs():
    g_b, g_a, nm = pipeline(FIG2_BEFORE, FIG2_AFTER)
    graph = build_change_graph(g_b, g_a, nm, _PROV)
    assert len(graph["nodes"]) <= len(g_b.nodes) + len(g_a.nodes)


def _units_of(path: Path):
    tree = parse_module(path.read_text(encoding="utf-8"))
    return extract_functions(tree, "m"), build_import_table(tree)


def _modelled(unit_b, imports_b, unit_a, imports_a):
    try:
        return unit_pipeline(unit_b, imports_b, unit_a, imports_a)
    except UnsupportedConstruct:
        return None


def test_stdlib_functions_diffed_against_themselves_build_no_change_graph():
    paths = sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))[:10]
    checked = 0
    for path in paths:
        units_b, imports_b = _units_of(path)
        units_a, imports_a = _units_of(path)
        for unit_b, unit_a in zip(units_b, units_a):
            layers = _modelled(unit_b, imports_b, unit_a, imports_a)
            if layers is None:
                continue
            checked += 1
            assert build_change_graph(*layers, _PROV) is None, \
                f"{path.name}: {unit_b.qualified_name}"
    assert checked > 100


@pytest.mark.parametrize("body, mined", [
    # The parser NFKC-normalizes identifiers: the call's name is ``file``.
    ("    return \ufb01le(p)\n", True),
    # Only the docstring names ``file``; the code never uses it.
    ('    """Read the file at p."""\n    return open(p).read()\n', False),
])
def test_rebound_name_scan_agrees_with_the_no_skip_pipeline(body, mined):
    # ``file`` is rebound and both def texts are equal, so the text tier
    # must pass each pair on to the tree tier.
    unit_b, imports_b = build_unit("from a import file\ndef f(p):\n" + body)
    unit_a, imports_a = build_unit("from b import file\ndef f(p):\n" + body)
    assert not _same_def_text(unit_b, unit_a,
                              _rebound_names(imports_b, imports_a))
    layers = unit_pipeline(unit_b, imports_b, unit_a, imports_a)
    assert (build_change_graph(*layers, _PROV) is not None) is mined
    counts = Counter()
    graph = change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, _PROV,
                                  counts)
    assert (graph is not None) is mined
    assert counts == (Counter() if mined else Counter(pairs_unchanged=1))


_PYENV = Path.home() / ".pyenv" / "versions"
_OLD_STDLIB = _PYENV / "3.11.7" / "lib" / "python3.11"
_NEW_STDLIB = _PYENV / "3.12.1" / "lib" / "python3.12"


@pytest.mark.skipif(not (_OLD_STDLIB.is_dir() and _NEW_STDLIB.is_dir()),
                    reason="needs the 3.11.7 and 3.12.1 standard libraries")
def test_unchanged_pair_skip_is_exact_on_stdlib_revisions():
    names = sorted(p.name for p in _OLD_STDLIB.glob("*.py")
                   if (_NEW_STDLIB / p.name).is_file())[:10]
    skipped = by_text = 0
    for name in names:
        try:
            units_b, imports_b = _units_of(_OLD_STDLIB / name)
            units_a, imports_a = _units_of(_NEW_STDLIB / name)
        except SyntaxError:
            continue
        rebound = _rebound_names(imports_b, imports_a)
        for unit_b, unit_a in match_functions(units_b, units_a):
            if _same_def_text(unit_b, unit_a, rebound):
                by_text += 1
                assert _same_body(unit_b, unit_a, rebound), \
                    f"{name}: {unit_b.qualified_name}"
            if not unchanged_pair(unit_b, unit_a, imports_b, imports_a):
                continue
            layers = _modelled(unit_b, imports_b, unit_a, imports_a)
            if layers is None:
                continue
            skipped += 1
            assert build_change_graph(*layers, _PROV) is None, \
                f"{name}: {unit_b.qualified_name}"
    assert skipped > 100 and by_text > 100


@pytest.mark.skipif(not (_OLD_STDLIB.is_dir() and _NEW_STDLIB.is_dir()),
                    reason="needs the 3.11.7 and 3.12.1 standard libraries")
def test_bottom_up_matches_the_rescanning_reference_on_stdlib_revisions():
    # The first ten modules whose text differs between the two revisions.
    names = sorted(p.name for p in _OLD_STDLIB.glob("*.py")
                   if (_NEW_STDLIB / p.name).is_file()
                   and p.read_bytes() != (_NEW_STDLIB / p.name).read_bytes())[:10]
    compared = 0
    for name in names:
        try:
            units_b, imports_b = _units_of(_OLD_STDLIB / name)
            units_a, imports_a = _units_of(_NEW_STDLIB / name)
        except SyntaxError:
            continue
        for unit_b, unit_a in match_functions(units_b, units_a):
            if unchanged_pair(unit_b, unit_a, imports_b, imports_a):
                continue
            try:
                body_b, body_a = unit_b.body, unit_a.body
            except UnsupportedConstruct:
                continue
            compared += 1
            assert map_asts(body_b, body_a).pairs == \
                reference_map_asts(body_b, body_a).pairs, \
                f"{name}: {unit_b.qualified_name}"
    assert compared > 30

from __future__ import annotations

import pytest

from changeminer.mining import PatternGraph, TNode, load_corpus
from changeminer.origins import (Origin, StructuralCategory, call_origin,
                                 structural_category)

from test_mining import synth_record


@pytest.mark.parametrize("label,expected", [
    ("set", Origin.BUILTIN),
    ("str", Origin.BUILTIN),
    ("?.copy", Origin.BUILTIN),
    ("?.upper", Origin.BUILTIN),
    ("copy.deepcopy", Origin.STDLIB),
    ("os.path.exists", Origin.STDLIB),
    ("random.choice", Origin.STDLIB),
    ("numpy.unique", Origin.EXTERNAL),
    ("tensorflow.zeros", Origin.EXTERNAL),
    ("?.assertNotEquals", Origin.STDLIB),
    ("?.assertNotEqual", Origin.STDLIB),
    ("totally_unknown_name", Origin.UNKNOWN),
    ("?", Origin.UNKNOWN),
    (".util.helper", Origin.PROJECT_LOCAL),
])
def test_call_origin_cases(label, expected):
    assert call_origin(label)[0] is expected


def test_call_origin_project_modules():
    assert call_origin("mypkg.util.run",
                       project_modules={"mypkg"})[0] is Origin.PROJECT_LOCAL
    assert call_origin("mypkg.util.run")[0] is Origin.EXTERNAL


def _pair_pattern(label_b: str, label_a: str,
                  instances_changed=(True, True)):
    pattern = PatternGraph(
        (TNode("Before", "Operation", "call", label_b),
         TNode("After", "Operation", "call", label_a),
         TNode("Before", "Data", "var", "var"),
         TNode("After", "Data", "var", "var")),
        frozenset({(2, 0, "Data", "recv"), (3, 1, "Data", "recv")}),
        frozenset({(0, 1), (2, 3)}))
    changed = set()
    if instances_changed[0]:
        changed.add(0)
    if instances_changed[1]:
        changed.add(1)
    record = synth_record(
        "g1", "r1",
        nodes=[("Operation", "call", label_b, "Before"),
               ("Operation", "call", label_a, "After"),
               ("Data", "var", "var", "Before"),
               ("Data", "var", "var", "After")],
        edges=[(2, 0, "Data", "recv"), (3, 1, "Data", "recv")],
        maps=[(0, 1), (2, 3)],
        changed=changed)
    corpus = load_corpus([record])
    index = {g.id: g for g in corpus}
    instances = [("g1", (0, 1, 2, 3))]
    return pattern, instances, index


@pytest.mark.parametrize("label_b,label_a,expected", [
    ("?.copy", "copy.deepcopy", StructuralCategory.MOV),
    ("os.rename", "shutil.move", StructuralCategory.MOV),
    ("set", "numpy.unique", StructuralCategory.MOV),
    ("?.add", "?.update", StructuralCategory.BUILT),
    ("os.path.exists", "os.path.isfile", StructuralCategory.STAND),
    ("random.randrange", "random.choice", StructuralCategory.STAND),
    ("?.assertNotEquals", "?.assertNotEqual", StructuralCategory.STAND),
    ("numpy.array", "numpy.zeros", StructuralCategory.EXT),
])
def test_structural_category_for_changed_pairs(label_b, label_a, expected):
    pattern, instances, index = _pair_pattern(label_b, label_a)
    assert structural_category(pattern, instances, index) is expected


def test_pattern_without_changed_calls_is_unknown():
    pattern, instances, index = _pair_pattern(
        "print", "print", instances_changed=(False, False))
    assert structural_category(pattern, instances, index) is StructuralCategory.UNKNOWN


def test_unknown_origin_anywhere_gives_unknown():
    pattern, instances, index = _pair_pattern("mystery_helper", "other_helper")
    assert structural_category(pattern, instances, index) is StructuralCategory.UNKNOWN


def test_identical_origin_multisets_never_mov():
    pattern, instances, index = _pair_pattern("os.path.exists", "os.path.isfile")
    category = structural_category(pattern, instances, index)
    assert category is not StructuralCategory.MOV


def test_category_invariant_under_instance_order():
    pattern, instances, index = _pair_pattern("?.copy", "copy.deepcopy")
    extra = synth_record(
        "g2", "r2",
        nodes=[("Operation", "call", "?.copy", "Before"),
               ("Operation", "call", "copy.deepcopy", "After"),
               ("Data", "var", "var", "Before"),
               ("Data", "var", "var", "After")],
        edges=[(2, 0, "Data", "recv"), (3, 1, "Data", "recv")],
        maps=[(0, 1), (2, 3)],
        changed={0, 1})
    index.update({g.id: g for g in load_corpus([extra])})
    both = instances + [("g2", (0, 1, 2, 3))]
    assert structural_category(pattern, both, index) == \
        structural_category(pattern, list(reversed(both)), index)


def test_totality_over_label_pool():
    labels = ["set", "?.x", "copy.deepcopy", "numpy.f", "weird", "?" ]
    for label_b in labels:
        for label_a in labels:
            pattern, instances, index = _pair_pattern(label_b, label_a)
            category = structural_category(pattern, instances, index)
            assert isinstance(category, StructuralCategory)

from __future__ import annotations

import pytest

from changeminer.changegraph import Provenance, hash_email
from changeminer.history import change_graph_for_pair
from changeminer.source import build_import_table, extract_functions, parse_module

FIG2_BEFORE = """\
def fill(collection):
    data = set()
    for elem in collection:
        data.add(elem)
    return data
"""

FIG2_AFTER = """\
def fill(collection):
    data = set()
    data.update(collection)
    return data
"""


def build_unit(source: str, index: int = 0, module: str = "m"):
    tree = parse_module(source)
    units = extract_functions(tree, module)
    return units[index], build_import_table(tree)


def change_graph_for(before_src: str, after_src: str, repo: str = "repo",
                     commit: str = "c1", path: str = "a.py"):
    unit_b, imports_b = build_unit(before_src)
    unit_a, imports_a = build_unit(after_src)
    prov = Provenance(repo, commit, commit + "p", path,
                      "m." + unit_b.qualified_name.split(".", 1)[-1],
                      hash_email("dev@example.com"), "change")
    return change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, prov)


def change_record(before_src: str, after_src: str, repo: str = "repo",
                  commit: str = "c1", path: str = "a.py") -> dict:
    record = change_graph_for(before_src, after_src, repo, commit, path)
    assert record is not None, "expected a non-empty change graph"
    return record


@pytest.fixture
def fig2_record() -> dict:
    return change_record(FIG2_BEFORE, FIG2_AFTER)

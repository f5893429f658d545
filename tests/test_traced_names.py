"""The benchmark's traced run wraps program functions by name.

``perfbench/child.py`` replaces each traced layer where its caller looks it
up. A renamed or deleted function would break the traced run, not the
program, so this test reads the benchmark's table and checks every name.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_traced_name_resolves():
    child = _load_child()
    wanted = set(child.TRACED.values())
    # Wrapped or counted by install() outside the TRACED table.
    wanted |= {("history", "match_functions"), ("mining", "collect_seeds"),
               ("mining", "filter_maximal"), ("mining", "filter_cross_project"),
               ("mining", "MiningConfig")}
    for module, attr in sorted(wanted):
        target = importlib.import_module(f"changeminer.{module}")
        assert callable(getattr(target, attr, None)), f"{module}.{attr}"
    store = importlib.import_module("changeminer.history").ChangeGraphStore
    assert set(child.STORE_METHODS) >= {"append", "finalize"}
    for method in child.STORE_METHODS:
        assert callable(getattr(store, method, None)), f"ChangeGraphStore.{method}"


def test_collect_seeds_takes_the_config_positionally():
    # The traced run calls collect_seeds(store, cfg); cfg is unused today.
    mining = importlib.import_module("changeminer.mining")
    inspect.signature(mining.collect_seeds).bind([], mining.MiningConfig())

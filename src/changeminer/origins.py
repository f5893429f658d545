"""Heuristic structural classification of patterns by where their calls live.

The category approximates a manual coding of call origins: builtin, standard
library, external library, project-local, or functionality moved between
those. It sees only resolved callee labels plus the mined project's module
roots, so it is an approximation and is labelled as such in reports.
"""

from __future__ import annotations

from enum import Enum

from .mining import CorpusGraph, Instance, PatternGraph
from .namelists import BUILTIN_NAMES, RECEIVER_METHOD_MODULES, STDLIB_MODULES


class Origin(str, Enum):
    BUILTIN = "Builtin"
    STDLIB = "StdLib"
    EXTERNAL = "External"
    PROJECT_LOCAL = "ProjectLocal"
    UNKNOWN = "Unknown"


class StructuralCategory(str, Enum):
    BUILT = "BUILT"
    STAND = "STAND"
    EXT = "EXT"
    ORIG = "ORIG"
    MOV = "MOV"
    UNKNOWN = "UNKNOWN"


def call_origin(label: str,
                project_modules: frozenset[str] | set[str] = frozenset()) -> Origin:
    """Origin of a resolved callee label.

    Receiver-dependent "?.name" labels default to builtin, except for method
    names pinned to a standard-library module (unittest assertions and kin).
    """
    return _origin_and_root(label, project_modules)[0]


def _origin_and_root(label: str,
                     project_modules: frozenset[str] | set[str]) -> tuple[Origin, str]:
    if label == "?" or not label:
        return Origin.UNKNOWN, ""
    if label.startswith("?."):
        method = label[2:]
        module = RECEIVER_METHOD_MODULES.get(method)
        if module is not None:
            return Origin.STDLIB, module
        return Origin.BUILTIN, ""
    if label.startswith("."):
        return Origin.PROJECT_LOCAL, label.lstrip(".").split(".")[0]
    root = label.split(".")[0]
    if "." not in label:
        if label in BUILTIN_NAMES:
            return Origin.BUILTIN, ""
        if label in project_modules:
            return Origin.PROJECT_LOCAL, root
        return Origin.UNKNOWN, ""
    if root in BUILTIN_NAMES and root not in STDLIB_MODULES:
        return Origin.BUILTIN, ""
    if root in STDLIB_MODULES:
        return Origin.STDLIB, root
    if root in project_modules:
        return Origin.PROJECT_LOCAL, root
    return Origin.EXTERNAL, root


def _changed_indices(pattern: PatternGraph, instances: list[Instance],
                     corpus_index: dict[str, CorpusGraph]) -> set[int]:
    changed = set()
    for idx in range(pattern.size):
        if instances and all(binding[idx] in corpus_index[gid].changed
                             for gid, binding in instances):
            changed.add(idx)
    return changed


def structural_category(pattern: PatternGraph, instances: list[Instance],
                        corpus_index: dict[str, CorpusGraph],
                        project_modules: frozenset[str] | set[str] = frozenset()) -> StructuralCategory:
    """Category of one pattern from the origins of its changed calls.

    Mapped changed call pairs carry the decision: a pair whose origin or root
    module differs across versions marks moved functionality. When no mapped
    pair is changed, the before/after multisets of unpaired changed calls are
    compared instead.
    """
    changed = _changed_indices(pattern, instances, corpus_index)
    changed_calls = {
        idx for idx in changed if pattern.nodes[idx].subkind == "call"
    }
    if not changed_calls:
        return StructuralCategory.UNKNOWN

    origin_of = {
        idx: _origin_and_root(pattern.nodes[idx].label, project_modules)
        for idx in changed_calls
    }
    if any(origin is Origin.UNKNOWN for origin, _ in origin_of.values()):
        return StructuralCategory.UNKNOWN

    changed_pairs = [
        (b, a) for b, a in pattern.call_pairs()
        if b in changed_calls or a in changed_calls
    ]
    if changed_pairs:
        shared: set[Origin] = set()
        for b, a in changed_pairs:
            origin_b = origin_of.get(b) or _origin_and_root(
                pattern.nodes[b].label, project_modules)
            origin_a = origin_of.get(a) or _origin_and_root(
                pattern.nodes[a].label, project_modules)
            if origin_b != origin_a:
                return StructuralCategory.MOV
            shared.add(origin_b[0])
        if len(shared) == 1:
            return _category_for(shared.pop())
        return StructuralCategory.UNKNOWN

    before = sorted(origin_of[i] for i in changed_calls
                    if pattern.nodes[i].version == "Before")
    after = sorted(origin_of[i] for i in changed_calls
                   if pattern.nodes[i].version == "After")
    if before != after:
        return StructuralCategory.MOV
    origins = {origin for origin, _ in origin_of.values()}
    if len(origins) == 1:
        return _category_for(origins.pop())
    return StructuralCategory.UNKNOWN


def _category_for(origin: Origin) -> StructuralCategory:
    return {
        Origin.BUILTIN: StructuralCategory.BUILT,
        Origin.STDLIB: StructuralCategory.STAND,
        Origin.EXTERNAL: StructuralCategory.EXT,
        Origin.PROJECT_LOCAL: StructuralCategory.ORIG,
    }.get(origin, StructuralCategory.UNKNOWN)

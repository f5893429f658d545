"""Mining of recurring semantic code-change patterns from Python git histories.

Pipeline: parse both revisions of every changed function, build fine-grained
program dependence graphs, map them via tree differencing, join corresponding
nodes into change graphs, then mine frequent change subgraphs seeded at mapped
function-call pairs.
"""

from importlib import import_module

from .store import TOOL_VERSION as __version__

# The module that defines each exported name. A name is imported on first
# use (PEP 562), so importing the package, or one command's modules, does
# not load the layers that only another command runs.
_EXPORTS = {
    "changegraph": ("Provenance", "build_change_graph", "mark_changed"),
    "history": ("RepoSpec", "RepoUnavailable", "change_graph_for_pair",
                "mine_repository", "read_repos_file"),
    "mapping": ("TreeMapping", "map_asts", "project_mapping"),
    "mining": ("MiningConfig", "PatternGraph", "PatternRecord", "PatternSet",
               "canonical_key", "collect_seeds", "exact_isomorphic", "extend",
               "filter_cross_project", "filter_maximal", "mine"),
    "origins": ("Origin", "StructuralCategory", "call_origin",
                "structural_category"),
    "pdg": ("FgEdge", "FgNode", "Fgpdg", "build_fgpdg", "resolve_callee"),
    "report": ("export_graph", "render_html", "stats_report",
               "write_pattern_set"),
    "source": ("AstNode", "FunctionUnit", "UnsupportedConstruct",
               "build_import_table", "extract_functions", "parse_module",
               "parse_source"),
    "store": ("ChangeGraphStore", "CommitFilter"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())

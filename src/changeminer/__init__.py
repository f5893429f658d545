"""Mining of recurring semantic code-change patterns from Python git histories.

Pipeline: parse both revisions of every changed function, build fine-grained
program dependence graphs, map them via tree differencing, join corresponding
nodes into change graphs, then mine frequent change subgraphs seeded at mapped
function-call pairs.
"""

from .changegraph import Provenance, build_change_graph, mark_changed
from .history import (ChangeGraphStore, CommitFilter, RepoSpec,
                      RepoUnavailable, change_graph_for_pair, mine_repository,
                      read_repos_file)
from .mapping import TreeMapping, map_asts, project_mapping
from .mining import (MiningConfig, PatternGraph, PatternRecord, PatternSet,
                     canonical_key, collect_seeds, exact_isomorphic, extend,
                     filter_cross_project, filter_maximal, mine)
from .origins import Origin, StructuralCategory, call_origin, structural_category
from .pdg import FgEdge, FgNode, Fgpdg, build_fgpdg, resolve_callee
from .report import export_graph, render_html, stats_report, write_pattern_set
from .source import (AstNode, FunctionUnit, ImportTable, UnsupportedConstruct,
                     build_import_table, extract_functions, parse_module,
                     parse_source)

__version__ = "0.1.0"

__all__ = [
    "AstNode", "ChangeGraphStore", "CommitFilter", "FgEdge",
    "FgNode", "Fgpdg", "FunctionUnit", "ImportTable", "MiningConfig",
    "Origin", "PatternGraph", "PatternRecord", "PatternSet", "Provenance",
    "RepoSpec", "RepoUnavailable", "StructuralCategory",
    "TreeMapping", "UnsupportedConstruct", "build_change_graph",
    "build_fgpdg", "build_import_table", "call_origin", "canonical_key",
    "change_graph_for_pair", "collect_seeds", "exact_isomorphic",
    "export_graph", "extend", "extract_functions", "filter_cross_project",
    "filter_maximal", "map_asts", "mark_changed", "mine", "mine_repository",
    "parse_module", "parse_source", "project_mapping", "read_repos_file",
    "render_html", "resolve_callee", "stats_report", "structural_category",
    "write_pattern_set",
]

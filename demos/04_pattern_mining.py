"""Mine a recurring pattern from a corpus of change graphs and export it.

Builds three change graphs that all make the same edit in different code,
mines the shared template, classifies it, and prints the Graphviz DOT view.
"""

from changeminer import (MiningConfig, Provenance, build_import_table,
                         change_graph_for_pair, export_graph,
                         extract_functions, mine, parse_module,
                         structural_category)
from changeminer.changegraph import hash_email
from changeminer.mining import load_corpus

REVISIONS = [
    ("repo-a",
     "def backup(cfg):\n    saved = cfg.copy()\n    return saved\n",
     "import copy\n\n\ndef backup(cfg):\n    saved = copy.deepcopy(cfg)\n    return saved\n"),
    ("repo-b",
     "def remember(state):\n    prev = state.copy()\n    return prev\n",
     "import copy\n\n\ndef remember(state):\n    prev = copy.deepcopy(state)\n    return prev\n"),
    ("repo-c",
     "def clone_row(row):\n    twin = row.copy()\n    return twin\n",
     "import copy\n\n\ndef clone_row(row):\n    twin = copy.deepcopy(row)\n    return twin\n"),
]


def change_record(repo, before, after):
    def build(source):
        tree = parse_module(source)
        return extract_functions(tree, "mod")[0], build_import_table(tree)

    unit_b, imports_b = build(before)
    unit_a, imports_a = build(after)
    prov = Provenance(repo, "c1" + repo, "c0" + repo, "mod.py",
                      "mod." + unit_b.qualified_name.split(".")[-1],
                      hash_email("dev@example.com"), "switch to deepcopy")
    return change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, prov)


corpus = load_corpus([change_record(*rev) for rev in REVISIONS])
result = mine(corpus, MiningConfig(min_size=4, min_freq=3))
print(f"mined {len(result.patterns)} pattern(s)\n")

index = {graph.id: graph for graph in corpus}
for record in result.patterns:
    category = structural_category(record.graph, record.instances, index)
    pairs = [(record.graph.nodes[b].label, record.graph.nodes[a].label)
             for b, a in record.graph.call_pairs()]
    print(f"pattern: {pairs}")
    print(f"  support {record.support}, size {record.size}, "
          f"projects {record.project_ids}, category {category.value}")
    print("\nGraphviz DOT (render with `dot -Tpdf`):\n")
    print(export_graph(record.graph, "dot"))

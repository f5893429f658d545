"""Join the dependence graphs of two revisions into one change graph.

The tree mapper aligns the before/after syntax trees, the alignment is
projected onto the two dependence graphs, changed nodes are marked, and the
united graph keeps changed nodes plus one hop of mapped context, with map
edges tying corresponding nodes together. `change_graph_for_pair` runs those
steps for one function pair, as `changeminer mine` does for every pair.
"""

from changeminer import (Provenance, build_import_table, change_graph_for_pair,
                         extract_functions, parse_module)
from changeminer.changegraph import hash_email

BEFORE = """\
def collect_tags(posts):
    tags = set()
    for post in posts:
        tags.add(post)
    return tags
"""

AFTER = """\
def collect_tags(posts):
    tags = set()
    tags.update(posts)
    return tags
"""


def unit_and_imports(source):
    tree = parse_module(source)
    return extract_functions(tree, "demo.tags")[0], build_import_table(tree)


unit_b, imports_b = unit_and_imports(BEFORE)
unit_a, imports_a = unit_and_imports(AFTER)

prov = Provenance("demo-repo", "deadbeef", "cafebabe", "tags.py",
                  unit_b.qualified_name, hash_email("dev@example.com"),
                  "use update instead of a loop")
change = change_graph_for_pair(unit_b, unit_a, imports_b, imports_a, prov)

print(f"change graph: {len(change.nodes)} nodes, "
      f"{len(change.map_edges)} map edges, {len(change.changed)} changed")
names = {n.id: f"{n.version[:1]}:{n.label}({n.concrete_name or ''})"
         for n in change.nodes}
for b, a in change.map_edges:
    marker = "*" if b in change.changed or a in change.changed else " "
    print(f" {marker} {names[b]} <~~> {names[a]}")
print("(* = at least one endpoint changed; "
      "the add/update pair is the interesting one)")

unchanged = change_graph_for_pair(unit_b, unit_b, imports_b, imports_b, prov)
print(f"\nthe same revision on both sides gives {unchanged}")

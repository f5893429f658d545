"""Build a fine-grained dependence graph for one function and look at it.

The graph has data nodes (variables, literals), operation nodes (calls,
operators) and control nodes (if/for/while/try/with). Data edges say how
values flow (def, ref, para, recv, cond, qual); control edges connect a
control node to the operations it dominates.
"""

from changeminer import build_fgpdg, build_import_table, extract_functions, parse_module

SOURCE = """\
import os


def read_settings(folder, name):
    path = os.path.join(folder, name)
    if os.path.exists(path):
        with open(path) as handle:
            return handle.read()
    return None
"""

tree = parse_module(SOURCE)
imports = build_import_table(tree)
unit = extract_functions(tree, "demo.settings")[0]
print(f"function: {unit.qualified_name}  params: {unit.params}")

graph = build_fgpdg(unit, imports)
print(f"\n{len(graph.nodes)} nodes:")
for node in graph.nodes:
    concrete = f"  ({node.concrete_name})" if node.concrete_name else ""
    print(f"  [{node.id:2d}] {node.kind:<9} {node.subkind:<9} {node.label}{concrete}")

print(f"\n{len(graph.edges)} edges:")
for edge in graph.edges:
    src, dst = graph.nodes[edge.src], graph.nodes[edge.dst]
    print(f"  {src.label:>15} --{edge.label:^5}--> {dst.label}"
          f"  ({edge.kind.lower()})")

# Qualifier chains that resolve through the import table fold into the call
# label, so `os.path.join(...)` is a single operation labelled os.path.join.
calls = sorted(n.label for n in graph.nodes if n.subkind == "call")
print(f"\nresolved call labels: {calls}")

"""Entry point of every changeminer child process the benchmark starts.

Usage: python child.py RESULT_JSON [--trace] -- <changeminer arguments>

Runs changeminer's CLI in this process, then writes RESULT_JSON with the
process's own peak RSS: VmHWM, the high-water mark of its own address space.
ru_maxrss, from os.wait4 or from inside, would also count the parent it was
spawned from: a child started with vfork records the parent's high-water
mark when it calls exec.

With --trace, each layer's function is replaced where its caller looks it up
(for example ``history.map_asts`` rather than ``mapping.map_asts``), so the
program itself is unchanged. Spans are kept in memory as (name, start, end,
parent) and go into RESULT_JSON with the counters that need a view inside the
process.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

# span name -> (module the caller looks it up in, attribute)
TRACED = {
    "history.list_commits": ("history", "list_commits"),
    "history.pair_modified_files": ("history", "pair_modified_files"),
    "history.graphs_for_commit": ("history", "graphs_for_commit"),
    "source.parse_source": ("history", "parse_source"),
    "source.extract_functions": ("history", "extract_functions"),
    "source.build_import_table": ("history", "build_import_table"),
    "pdg.build_fgpdg": ("history", "build_fgpdg"),
    "mapping.map_asts": ("history", "map_asts"),
    "mapping.project_mapping": ("history", "project_mapping"),
    "changegraph.build_change_graph": ("history", "build_change_graph"),
    "mining.load_corpus": ("cli", "load_corpus"),
    "mining.mine": ("cli", "mine"),
    "mining.collect_seeds": ("mining", "collect_seeds"),
    "mining.extend": ("mining", "extend"),
    "mining.canonical_key": ("mining", "canonical_key"),
    "mining.exact_isomorphic": ("mining", "exact_isomorphic"),
    "mining.support_of": ("mining", "support_of"),
    "mining.filter_maximal": ("mining", "filter_maximal"),
    "origins.structural_category": ("cli", "structural_category"),
    "report.write_pattern_set": ("cli", "write_pattern_set"),
    "report.render_html": ("cli", "render_html"),
}
# ChangeGraphStore methods that make up the store write.
STORE_METHODS = ("append", "finalize")
SPAN_NAMES = sorted([*TRACED, "history.store", "cli.main"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def install(tracer: Tracer) -> None:
    from changeminer import cli, history, mining

    modules = {"cli": cli, "history": history, "mining": mining}
    for name, (module, attr) in TRACED.items():
        target = modules[module]
        setattr(target, attr, tracer.wrap(name, getattr(target, attr)))
    for method in STORE_METHODS:
        setattr(history.ChangeGraphStore, method,
                tracer.wrap("history.store",
                            getattr(history.ChangeGraphStore, method)))

    match_functions = history.match_functions

    def counted_match(before, after):
        pairs = match_functions(before, after)
        tracer.count("history.function_pairs", len(pairs))
        return pairs
    history.match_functions = counted_match

    collect_seeds = mining.collect_seeds

    def counted_seeds(store, cfg=None):
        seeds = collect_seeds(store, cfg)
        min_freq = (cfg or mining.MiningConfig()).min_freq
        tracer.count("mining.seeds", len(seeds))
        tracer.count("mining.seeds_frequent",
                     sum(len(set(members)) >= min_freq for members in seeds.values()))
        return seeds
    mining.collect_seeds = counted_seeds

    # The search's output is the input of whichever filter runs first.
    for filter_name in ("filter_maximal", "filter_cross_project"):
        def counted_filter(patterns, _func=getattr(mining, filter_name),
                           _name=filter_name):
            kept = _func(patterns)
            tracer.count(f"search_output.{_name}", len(patterns))
            tracer.count(f"filtered.{_name}", len(kept))
            return kept
        setattr(mining, filter_name, counted_filter)


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    result_path, *rest = argv
    trace = rest[:1] == ["--trace"]
    rest = rest[1:] if trace else rest
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py RESULT_JSON [--trace] -- <changeminer arguments>")
    tracer = Tracer() if trace else None
    from changeminer import cli

    entry = cli.main
    if tracer:
        install(tracer)
        entry = tracer.wrap("cli.main", cli.main)
    try:
        return entry(rest[1:])
    finally:
        result = {"peak_rss_kb": peak_rss_kb()}
        if tracer:
            result.update(spans=tracer.spans, counters=tracer.counters)
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)


if __name__ == "__main__":
    # The benchmark's own modules sit next to this file; keep them from
    # shadowing anything the program imports.
    sys.path.pop(0)
    sys.exit(main(sys.argv[1:]))

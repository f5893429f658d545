from __future__ import annotations

import ast
import json

from changeminer.history import ChangeGraphStore
from changeminer.mining import MiningConfig, load_corpus, mine
from changeminer.report import (export_graph, graph_from_dict, graph_to_dict,
                                load_pattern_dir, pattern_dir_name,
                                render_html, stats_report, write_pattern_set)
from changeminer.mining import exact_isomorphic

from conftest import FIG2_AFTER, FIG2_BEFORE, change_record


def build_store(tmp_path, records, repos=None):
    store = ChangeGraphStore(tmp_path / "store")
    for record in records:
        store.append(record)
    store.finalize({}, repos or {})
    return store


def mined_patterns(tmp_path):
    records = [change_record(FIG2_BEFORE, FIG2_AFTER, repo, f"c{i}")
               for i, repo in enumerate(["ra", "rb", "rc"])]
    repos = {r: {"url": "x", "domain_tag": tag, "graphs": 1, "project_modules": []}
             for r, tag in [("ra", "Web"), ("rb", "Data"), ("rc", "Web")]}
    store = build_store(tmp_path, records, repos)
    corpus = load_corpus(store)
    patterns = mine(corpus, MiningConfig())
    for record in patterns.patterns:
        record.category = "BUILT"
    return {g.id: g for g in corpus}, store.manifest()["repos"], patterns


def test_dot_export_structure(tmp_path):
    *_, patterns = mined_patterns(tmp_path)
    dot = export_graph(patterns.patterns[0].graph, "dot")
    assert dot.startswith("digraph pattern {")
    assert "cluster_before" in dot and "cluster_after" in dot
    assert "style=dashed" in dot
    assert "shape=box" in dot and "shape=ellipse" in dot
    assert "shape=diamond" in dot  # the for-loop control node


def test_single_seed_pattern_dot_has_two_nodes_one_dashed_edge():
    from changeminer.mining import PatternGraph, TNode
    seed = PatternGraph(
        (TNode("Before", "Operation", "call", "?.add"),
         TNode("After", "Operation", "call", "?.update")),
        frozenset(), frozenset({(0, 1)}))
    dot = export_graph(seed, "dot")
    assert dot.count("[label=") == 2
    assert dot.count("style=dashed") == 1


def test_structured_text_round_trip(tmp_path):
    *_, patterns = mined_patterns(tmp_path)
    original = patterns.patterns[0].graph
    text = export_graph(original, "structured-text")
    parsed = graph_from_dict(json.loads(text))
    assert exact_isomorphic(original, parsed)
    assert graph_to_dict(parsed) == graph_to_dict(original)


def test_write_pattern_set_layout(tmp_path):
    corpus_index, repos, patterns = mined_patterns(tmp_path)
    out = tmp_path / "patterns"
    write_pattern_set(patterns, out, corpus_index, repos, {"min_freq": 3})
    entries = load_pattern_dir(out)
    assert len(entries) == 1
    meta = entries[0]["meta"]
    assert meta["name"] == pattern_dir_name(0)
    assert meta["support"] == 3
    assert meta["cross_project"] is True
    assert sorted(meta["project_ids"]) == ["ra", "rb", "rc"]
    assert meta["category"] == "BUILT"
    instances = entries[0]["instances"]
    assert len(instances) == 3
    for instance in instances:
        assert instance["provenance"]["repo_id"] in {"ra", "rb", "rc"}
        assert instance["code"]["Before"]["text"]
        binding = instance["binding"]
        assert len(set(binding.values())) == len(binding)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pattern_count"] == 1
    assert manifest["sample_count"] == 3


def test_html_pages_and_index(tmp_path):
    corpus_index, repos, patterns = mined_patterns(tmp_path)
    out = tmp_path / "patterns"
    write_pattern_set(patterns, out, corpus_index, repos, {})
    html_dir = tmp_path / "html"
    count = render_html(out, html_dir)
    assert count == 1
    index = (html_dir / "index.html").read_text()
    page_name = pattern_dir_name(0) + ".html"
    assert page_name in index
    page = (html_dir / page_name).read_text()
    assert page.count('class="sample"') == 3
    for repo in ("ra", "rb", "rc"):
        assert repo in page
    assert "<mark>" in page
    assert "index.html" in page


def test_html_missing_record_gets_placeholder(tmp_path):
    corpus_index, repos, patterns = mined_patterns(tmp_path)
    patterns.patterns[0].instances.append(("cg-missing", (0, 1, 2, 3)))
    out = tmp_path / "patterns"
    write_pattern_set(patterns, out, corpus_index, repos, {})
    html_dir = tmp_path / "html"
    render_html(out, html_dir)
    page = (html_dir / (pattern_dir_name(0) + ".html")).read_text()
    assert "not found in store" in page


def test_highlight_spans_multiline_statement():
    from changeminer.report import _highlight
    code = {"text": "value = compute(\n    first,\n    second,\n)", "start_line": 4}
    spans = [[4, 8, 7, 1]]
    rendered = _highlight(code, spans)
    assert rendered.startswith("<pre>value = ")
    assert "<mark>compute(\n    first,\n    second,\n)</mark>" in rendered


def test_highlight_reads_columns_as_utf8_bytes():
    from changeminer.report import _highlight
    text = 'def f(s):\n    return "é" + g(s)'
    call = next(node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Call))
    spans = [[call.lineno, call.col_offset, call.end_lineno, call.end_col_offset]]
    rendered = _highlight({"text": text, "start_line": 1}, spans)
    assert '+ <mark>g(s)</mark></pre>' in rendered


def test_stats_tables(tmp_path):
    corpus_index, repos, patterns = mined_patterns(tmp_path)
    out = tmp_path / "patterns"
    write_pattern_set(patterns, out, corpus_index, repos, {})
    report = stats_report(out)
    assert "patterns: 1" in report
    assert "samples: 3" in report
    assert "BUILT" in report
    assert "Web" in report and "Data" in report
    assert "cross-project" in report


def test_stats_lists_mov_for_moved_functionality(tmp_path):
    records = [change_record(
        "def back(cfg):\n    saved = cfg.copy()\n    return saved\n",
        "import copy\n\n\ndef back(cfg):\n    saved = copy.deepcopy(cfg)\n    return saved\n",
        repo, f"c{i}") for i, repo in enumerate(["ra", "rb", "rc"])]
    store = build_store(tmp_path, records)
    patterns = mine(load_corpus(store), MiningConfig())
    from changeminer.origins import structural_category
    corpus_index = {g.id: g for g in load_corpus(store)}
    for record in patterns.patterns:
        record.category = structural_category(
            record.graph, record.instances, corpus_index).value
    out = tmp_path / "patterns"
    write_pattern_set(patterns, out, corpus_index, {}, {})
    report = stats_report(out)
    mov_line = [line for line in report.splitlines() if line.strip().startswith("MOV")]
    assert mov_line and int(mov_line[0].split()[-1]) >= 1


def test_stats_empty_dir_all_zero(tmp_path):
    report = stats_report(tmp_path / "nothing")
    assert "patterns: 0" in report
    assert "samples: 0" in report
    assert "(none)" in report


def test_outputs_byte_identical_across_runs(tmp_path):
    corpus_index, repos, patterns = mined_patterns(tmp_path)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    write_pattern_set(patterns, out1, corpus_index, repos, {"min_freq": 3})
    write_pattern_set(patterns, out2, corpus_index, repos, {"min_freq": 3})
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
    html1, html2 = tmp_path / "h1", tmp_path / "h2"
    render_html(out1, html1)
    render_html(out2, html2)
    for rel in sorted(p.relative_to(html1) for p in html1.rglob("*.html")):
        assert (html1 / rel).read_bytes() == (html2 / rel).read_bytes()

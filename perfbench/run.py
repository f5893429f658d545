"""changeminer benchmark: stdlib-replay corpus, three workloads, traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mine-replay --seed 1 --seconds 45 --trace 0

Set-up builds the replay corpus (see corpus.py) and, for the patterns
workloads, mines the store they read with the checkout's own ``mine``. The
timed loop then runs the workload's changeminer commands as child processes,
one iteration after another, until ``--seconds`` have passed. Each child's
wall and CPU time come from ``os.wait4`` on that child alone, and its peak RSS
from the child itself (child.py). Outputs are checked by check.py, which does
not import the program.

With ``--trace 1`` the same commands also run once traced (see child.py), and
the per-layer self times and counters are printed instead of the end-to-end
metrics. The last line of standard output is always one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
from child import SPAN_NAMES  # noqa: E402

# cli.startup runs from spawning a child to its entering cli.main: interpreter
# start and the import of changeminer. The runner measures it from outside.
LAYER_SPANS = sorted([*SPAN_NAMES, "cli.startup"])

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Eight modules per repository keep three set-ups and a 45 s timed loop of
# every workload inside the time one run may take. The draw is fixed: which
# modules are in the corpus decides how much work it holds.
MODULES_PER_REPO = 8
CORPUS_SEED = 0
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

MB = 1_000_000


@dataclass
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    patterns_args: list[str] | None  # None: the workload is `mine` itself
    html: bool = False

    def settings(self) -> dict:
        """What the output check needs, read back from the patterns flags."""
        values = {"min_size": 4, "min_freq": 3, "max_size": 20,
                  "cross_project_only": False}
        args = self.patterns_args or []
        for flag, key in (("--min-size", "min_size"), ("--min-freq", "min_freq"),
                          ("--max-size", "max_size")):
            if flag in args:
                values[key] = int(args[args.index(flag) + 1])
        values["cross_project_only"] = "--cross-project-only" in args
        return values


WORKLOADS = {w.name: w for w in (
    Workload("mine-replay", None),
    Workload("patterns-wide", ["--max-size", "4"], html=True),
    Workload("patterns-deep", ["--max-size", "6", "--min-freq", "6",
                               "--keep-subpatterns", "--cross-project-only"]),
    Workload("patterns-search", ["--max-size", "5", "--min-freq", "6",
                                 "--cross-project-only"], html=True),
)}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    argv: list[str]
    status: int
    wall_s: float
    peak_rss_mb: float
    stderr: str
    start_ns: int
    end_ns: int
    user_s: float
    sys_s: float
    result: dict  # what child.py wrote: peak RSS, and spans when traced


class Runner:
    """Starts changeminer children with an isolated HOME and the checkout's src."""

    def __init__(self, work: Path, deadline: float):
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.env = corpus.git_env(work / "home")
        self.env["PYTHONPATH"] = str(SRC)
        self.deadline = deadline
        self.started = 0

    def run(self, args: list, trace: bool = False) -> Child:
        """Run one changeminer command through child.py and wait for it."""
        self.started += 1
        stdout_path = self.logs / f"{self.started:03d}.out"
        stderr_path = self.logs / f"{self.started:03d}.err"
        result_path = self.logs / f"{self.started:03d}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(result_path),
                *(["--trace"] if trace else []), "--", *map(str, args)]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.logs)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        return Child(argv, proc.returncode, (end - start) / 1e9,
                     result.get("peak_rss_kb", 0) / 1024,
                     stderr_path.read_text(errors="replace"), start, end,
                     usage.ru_utime, usage.ru_stime, result)


def _commands(workload: Workload, repos_file: Path, store: Path,
              out: Path) -> list[list[str]]:
    if workload.patterns_args is None:
        return [["mine", "--repos", repos_file, "--out", out / "store",
                 "--jobs", "1"]]
    commands = [["patterns", "--store", store, "--out", out / "patterns",
                 *workload.patterns_args]]
    if workload.html:
        commands.append(["report", "--patterns", out / "patterns",
                         "--format", "html", "--out", out / "html"])
    return commands


SUBCOMMANDS = ("mine", "patterns", "report")


def _child_problems(child: Child) -> list[str]:
    problems = []
    if child.status != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        command = next((a for a in child.argv if a in SUBCOMMANDS), "?")
        problems.append(f"{command} exited {child.status}: {tail[0]}")
    if "budget exceeded" in child.stderr:
        problems.append("search budget exceeded, output depends on machine speed")
    return problems


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU time of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Setup:
    cpu_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    heads: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    repos_file: Path | None = None
    store: Path | None = None
    store_digest: str = ""
    mine_stderr: str = ""
    problems: list[str] = field(default_factory=list)


def set_up(workload: Workload, spec: corpus.CorpusSpec, work: Path,
           runner: Runner, repeats: int) -> Setup:
    """Build the corpus (and store) `repeats` times; keep the last build."""
    setup = Setup()
    for index in range(repeats):
        root = work / f"setup-{index}"
        os.sync()
        start, start_cpu = time.perf_counter(), cpu_seconds()
        built = corpus.build_corpus(spec, root / "corpus", work / "home")
        child = None
        if workload.patterns_args is not None:
            child = runner.run(["mine", "--repos", built["repos_file"],
                                "--out", root / "store", "--jobs", "1"])
        setup.cpu_s.append(cpu_seconds() - start_cpu)
        setup.wall_s.append(time.perf_counter() - start)

        if setup.heads and built["heads"] != setup.heads:
            setup.problems.append("corpus HEADs differ between set-ups")
        setup.heads, setup.modules = built["heads"], built["modules"]
        setup.repos_file = built["repos_file"]
        if child is not None:
            setup.problems += _child_problems(child)
            digest = check.tree_digest(root / "store" / "records.jsonl")
            if setup.store_digest and digest != setup.store_digest:
                setup.problems.append("store digest differs between set-ups")
            setup.store, setup.store_digest = root / "store", digest
            setup.mine_stderr = child.stderr
    if setup.store is not None and not setup.problems:
        setup.problems += check.check_store(setup.store,
                                            check.load_records(setup.store))
    return setup


# ---------------------------------------------------------------------------
# Timed iterations
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float  # user + system time of the children and their git processes
    peak_rss_mb: float
    output_bytes: int
    digests: dict
    problems: list[str]
    children: list[Child]


def _digests(workload: Workload, out: Path) -> dict:
    if workload.patterns_args is None:
        return {"records.jsonl": check.tree_digest(out / "store" / "records.jsonl")}
    digests = {"patterns": check.tree_digest(out / "patterns")}
    if workload.html:
        digests["html"] = check.tree_digest(out / "html")
    return digests


def _check_outputs(workload: Workload, out: Path, setup: Setup) -> list[str]:
    if workload.patterns_args is None:
        store = out / "store"
        return check.check_store(store, check.load_records(store))
    records = check.load_records(setup.store)
    problems = check.check_patterns(out / "patterns", records,
                                    **workload.settings())
    if workload.html:
        problems += check.check_html(out / "html", out / "patterns")
    return problems


def iterate(workload: Workload, setup: Setup, out: Path, run_child,
            reference: dict | None) -> Iteration:
    """Run the workload's commands once into `out` and check what they wrote.

    Pattern and HTML output overwrite the previous iteration's files in place:
    deleting that much output slows the writes that follow for tens of
    seconds on some file systems. A stale file cannot go unnoticed, because
    every iteration rewrites the manifests that count the files. `mine`
    appends to an existing store, so its store is removed first.
    """
    shutil.rmtree(out / "store", ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)
    children = []
    problems: list[str] = []
    for args in _commands(workload, setup.repos_file, setup.store, out):
        child = run_child(args)
        children.append(child)
        problems += _child_problems(child)
        if child.status != 0:
            break
    digests = _digests(workload, out) if not problems else {}
    if not problems:
        if reference is None:
            problems += _check_outputs(workload, out, setup)
        elif digests != reference:
            problems.append("output digest differs from the first run")
    return Iteration(sum(c.wall_s for c in children),
                     sum(c.user_s + c.sys_s for c in children),
                     max(c.peak_rss_mb for c in children),
                     check.tree_bytes(out), digests, problems, children)


def timed_loop(workload: Workload, setup: Setup, work: Path, runner: Runner,
               seconds: float) -> list[Iteration]:
    iterations: list[Iteration] = []
    start = time.monotonic()
    while not iterations or time.monotonic() - start < seconds:
        last = iterations[-1].wall_s if iterations else 0.0
        if iterations and time.monotonic() + 2 * last > runner.deadline:
            break
        reference = iterations[0].digests if iterations else None
        # Write back earlier output first, so that no iteration pays for it.
        os.sync()
        iterations.append(iterate(workload, setup, work / "out", runner.run,
                                  reference))
        if iterations[-1].problems and not iterations[-1].digests:
            break
    return iterations


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def span_totals(spans: list[list]) -> dict[str, list]:
    """name -> [self seconds, calls]; self time excludes child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += (end - start - child_ns[index]) / 1e9
        entry[1] += 1
    return totals


def _warning_count(stderr: str, marker: str) -> int:
    return sum(1 for line in stderr.splitlines()
               if line.startswith("WARNING") and marker in line)


def traced_metrics(workload: Workload, setup: Setup, work: Path, runner: Runner,
                   untraced: list[Iteration]) -> tuple[dict, Iteration]:
    # Same directory as the untraced loop, so both overwrite in place.
    out = work / "out"
    os.sync()
    traced = iterate(workload, setup, out,
                     lambda args: runner.run(args, trace=True),
                     untraced[0].digests)
    spans: list[list] = []
    counters: dict[str, int] = {}
    exit_s = 0.0
    for child in traced.children:
        if child.status != 0:
            continue
        data = child.result
        roots = [span for span in data["spans"] if span[3] == -1]
        # The child's clock is the parent's: perf_counter is system-wide.
        spans.append(["cli.startup", child.start_ns, roots[0][1], -1])
        offset = len(spans)
        spans += [[name, start, end, parent + offset if parent >= 0 else -1]
                  for name, start, end, parent in data["spans"]]
        exit_s += (child.end_ns - roots[-1][2]) / 1e9
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
    totals = span_totals(spans)

    metrics: dict[str, tuple] = {}
    for name in LAYER_SPANS:
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")

    store = out / "store" if workload.patterns_args is None else setup.store
    mine_stderr = traced.children[0].stderr if workload.patterns_args is None \
        else setup.mine_stderr
    records = check.load_records(store)
    pairs = counters.get("history.function_pairs", 0)
    graphs = len(records) if workload.patterns_args is None else 0
    before = counters.get("search_output.filter_maximal",
                          counters.get("search_output.filter_cross_project", 0))
    metrics.update({
        "history.function_pairs": (pairs, "count"),
        "history.graph_yield": (graphs / pairs if pairs else 0.0, "ratio"),
        "history.warnings.unsupported": (_warning_count(mine_stderr, "unsupported"), "count"),
        "history.warnings.parse_failure": (_warning_count(mine_stderr, "parse failure"), "count"),
        "changegraph.store_graphs": (len(records), "count"),
        "changegraph.unchanged_text_graphs": (sum(
            1 for r in records
            if r["code"]["Before"]["text"] == r["code"]["After"]["text"]), "count"),
        "mining.seeds": (counters.get("mining.seeds", 0), "count"),
        "mining.seeds_frequent": (counters.get("mining.seeds_frequent", 0), "count"),
        "mining.patterns_before_filter": (before, "count"),
        "mining.patterns_after_filter": (
            counters.get("filtered.filter_maximal", before), "count"),
        "report.bytes_written": (traced.output_bytes, "bytes"),
    })
    covered = sum(self_s for self_s, _ in totals.values())
    untraced_median = statistics.median(it.wall_s for it in untraced)
    metrics["trace.traced_wall_s"] = (traced.wall_s, "s")
    metrics["trace.exit_s"] = (exit_s, "s")
    metrics["trace.covered_share"] = (100 * covered / traced.wall_s, "%")
    metrics["tracing_overhead_s"] = (traced.wall_s - untraced_median, "s")
    return metrics, traced


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _tool_versions() -> dict:
    git = subprocess.run(["git", "--version"], capture_output=True, text=True)
    return {"python": sys.version, "git": git.stdout.strip()}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _parse_pairs(values: list[str] | None) -> dict:
    if not values:
        return dict(corpus.DEFAULT_PAIRS)
    pairs = {}
    for value in values:
        repo_id, _, dirs = value.partition("=")
        older, _, newer = dirs.partition(",")
        if not (repo_id and older and newer):
            raise SystemExit(f"--pair wants ID=OLDER_DIR,NEWER_DIR, got {value!r}")
        pairs[repo_id] = (Path(older), Path(newer))
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the replay commits")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--modules", type=int, default=MODULES_PER_REPO,
                        help="stdlib modules replayed per repository")
    parser.add_argument("--pair", action="append", metavar="ID=OLDER,NEWER",
                        help="stdlib directories of one corpus repository "
                             "(repeatable; default: the pyenv 3.10-3.13 trees)")
    parser.add_argument("--work", type=Path, default=WORK,
                        help="scratch directory, emptied first")
    args = parser.parse_args(argv)

    if not (SRC / "changeminer" / "__init__.py").is_file():
        print(f"error: no changeminer sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = corpus.CorpusSpec(_parse_pairs(args.pair), args.modules,
                             CORPUS_SEED, args.seed)
    try:
        for older, newer in spec.pairs.values():
            corpus.changed_modules(Path(older), Path(newer))
    except corpus.StdlibMissing as exc:
        print(f"skipped {workload.name}: {exc}")
        return 0

    deadline = time.monotonic() + TIME_LIMIT_S
    # The last run's output is deleted here, before set-up, and not when it
    # ends, so that the slower writes that follow a large delete fall in
    # set-up rather than in the next run's timed loop.
    work = args.work.resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Byte-compile once, as an installed package would be, so that no
    # iteration pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "changeminer")],
                   check=True, stdout=subprocess.DEVNULL)
    runner = Runner(work, deadline)
    setup = set_up(workload, spec, work, runner,
                   1 if args.trace else SETUP_REPEATS)
    if setup.problems:
        print("error: set-up failed: " + "; ".join(setup.problems[:5]),
              file=sys.stderr)
        return 1
    iterations = timed_loop(workload, setup, work, runner, args.seconds)
    runs = list(iterations)
    if args.trace:
        metrics, traced = traced_metrics(workload, setup, work, runner, iterations)
        runs.append(traced)
    else:
        cpu = statistics.median(it.cpu_s for it in iterations)
        items = (sum(len(m) for m in setup.modules.values())
                 if workload.patterns_args is None
                 else len(check.load_records(setup.store)))
        metrics = {
            "cpu_s": (cpu, "s"),
            "peak_rss_mb": (max(it.peak_rss_mb for it in iterations), "MB"),
            "setup_s": (statistics.median(setup.cpu_s), "s"),
            "items_per_s": (items / cpu, "1/s"),
            "output_mb": (statistics.median(it.output_bytes for it in iterations) / MB, "MB"),
        }
    failed = sum(1 for run in runs if run.problems)
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "corpus": {"modules_per_repo": args.modules,
                   "corpus_seed": CORPUS_SEED,
                   "heads": setup.heads, "modules": setup.modules},
        **_tool_versions(),
        "setup": {"cpu_s": setup.cpu_s, "wall_s": setup.wall_s},
        "iterations": len(iterations),
        **{key: {"q1_median_q3": _quartiles(values), "runs": values}
           for key, values in (
               ("cpu_s", [it.cpu_s for it in iterations]),
               ("wall_s", [it.wall_s for it in iterations]),
               ("sys_s", [sum(c.sys_s for c in it.children) for it in iterations]))},
        "failed_share": failed / len(runs),
        "problems": [p for run in runs for p in run.problems][:20],
        "digests": iterations[0].digests,
    }
    (work / "result.json").write_text(json.dumps(info, indent=2) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14s} {name:40s} {value:14.6f} {unit}")
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

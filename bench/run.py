#!/usr/bin/env python3
"""End-to-end and per-module benchmark for ``bpmn2pddl check`` and ``translate``.

One run measures one workload in one process and one thread:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-module metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.

    python3 bench/run.py --workload all    # every workload, each in a fresh process
    python3 bench/run.py --smoke           # tiny sizes; checks every metric name and unit

Each item drives ``bpmn2pddl.cli.main`` exactly as the command line would,
times it from outside, and checks what it printed and wrote against known
answers. Times are scaled to a reference host speed, measured by a fixed
kernel timed between and during items (see ``REFERENCE_S``).
``bench/README.md`` lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import io
import json
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "translate", "state_space")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "verified_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
SELF_TIMES = [
    "fond_checker.solve_cyclic", "fond_checker.solve_strong", "fond_checker.verify",
    "fond_checker.explore", "fond_checker.ground", "fond_checker.traces", "fond_checker.dot",
    "fond_checker.parse_pddl", "fond_checker.analyze", "fond_checker.traces_json",
    "bpmn_parser.parse", "process_graph.build", "process_graph.validate", "process_graph.dot",
    "pddl_encoder.encode", "pddl_encoder.render", "cli.translate", "cli.main",
    "bench.readback_render",
]
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in SELF_TIMES},
    "fond_checker.ground.calls": "count",
    "fond_checker.states": "count",
    "fond_checker.transitions": "count",
    "fond_checker.outcomes_per_action": "outcomes/action",
    "fond_checker.policy_size": "count",
    "fond_checker.traces.count": "count",
    "fond_checker.explore.scan_ratio": "ratio",
    "pddl_encoder.actions": "count",
    "pddl_encoder.lines": "count",
    "pass_ms": "ms",
    "trace_overhead_pct": "%",
    "fail_share": "ratio",
}

# translate: diagram sizes (nodes) of one pass, three diagrams of each, so a
# percentile rests on several diagrams. Diagram i has 1 + i % 3 pools and
# the option combination i % 4, so every encoder path is compiled.
TRANSLATE_SIZES = [300, 500, 800, 1200, 2000] * 3
TRANSLATE_OPTIONS = [("exclusive", "any"), ("ignore", "all"), ("exclusive", "all"), ("ignore", "any")]

# state_space: (family, parameters) of one pass. The 1200-task chain is the
# shortest length at which the strong verifier's recursion overflows.
LONG_CHAIN = 1200
STATE_SPACE = [
    ("chain", LONG_CHAIN), ("chain", 600), ("chain", 300),
    ("parallel", 8, 2), ("parallel", 6, 2), ("parallel", 5, 3), ("parallel", 4, 4), ("parallel", 3, 6),
    ("inclusive", 6), ("inclusive", 5), ("inclusive", 4), ("inclusive", 3),
    ("messages", [4, 4, 4], [(0, 1, 1, 0), (1, 2, 2, 1), (0, 3, 2, 0)]),
    ("messages", [6, 6], [(0, 2, 1, 0), (0, 4, 1, 2)]),
    ("messages", [3, 3, 3, 3], [(0, 1, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0)]),
]
STATE_SPACE_TINY = [("chain", 40), ("parallel", 3, 2), ("inclusive", 3),
                    ("messages", [3, 3], [(0, 1, 1, 0)])]

_VERDICT = re.compile(
    r"^(\S+): states=(\d+) deadlocks=(\d+) strong=(\S+) strong_cyclic=(\S+) policy_size=(\d+)$",
    re.M,
)


@dataclass
class Item:
    key: str
    argv: list[str]  # cli.main arguments, without --out
    kind: str  # "corpus" | "check" | "translate"
    expect: object  # corpus-table entry, gen.Diagram, or translate counts
    stem: str = ""
    expect_error: str | None = None  # exception type of a known defect this item raises


# ---------------------------------------------------------------------------
# Items and their answers


def corpus_items(rng: random.Random, tiny: bool, table: dict) -> list[Item]:
    items = []
    for path in sorted((ROOT / "corpus").glob("*.bpmn")):
        if tiny and path.stem == "credit_scoring":
            continue
        for msg in ("ignore", "exclusive"):
            for done in ("any", "all"):
                key = f"{path.stem}/{msg}/{done}"
                argv = ["check", str(path), "--solve", "both", "--dot", "--traces",
                        "--msg-strategy", msg, "--done-mode", done]
                items.append(Item(key, argv, "corpus", table.get(key)))
    rng.shuffle(items)
    return items


def translate_items(rng: random.Random, tiny: bool, inputs: Path) -> list[Item]:
    items = []
    for i, size in enumerate([60, 120] if tiny else TRANSLATE_SIZES):
        stem = f"tr{i:02d}_{size}"
        n_pools = 1 + i % 3
        d = gen.block_structured(rng, stem, size, n_pools, shape_seed=i)
        msg, done = TRANSLATE_OPTIONS[i % len(TRANSLATE_OPTIONS)]
        path = inputs / f"{stem}.bpmn"
        path.write_text(d.xml, encoding="utf-8")
        argv = ["translate", str(path), "--msg-strategy", msg, "--done-mode", done]
        # --done-mode all adds the finish_process action and one pool_done_<pool> per pool
        all_mode = done == "all"
        expect = {"actions": d.actions + all_mode, "predicates": d.predicates + all_mode * n_pools,
                  "problems": d.problems}
        items.append(Item(stem, argv, "translate", expect, stem=stem))
    return items


def state_space_items(rng: random.Random, tiny: bool, inputs: Path) -> list[Item]:
    items = []
    for i, (family, *params) in enumerate(STATE_SPACE_TINY if tiny else STATE_SPACE):
        stem = f"ss{i:02d}_{family}"
        maker = {"chain": gen.chain, "parallel": gen.parallel, "inclusive": gen.inclusive,
                 "messages": gen.message_pools}[family]
        d = maker(rng, stem, *params)
        path = inputs / f"{stem}.bpmn"
        path.write_text(d.xml, encoding="utf-8")
        argv = ["check", str(path), "--solve", "strong", *d.args]
        # the strong verify_policy recurses once per chain step and overflows at this length
        known = "RecursionError" if family == "chain" and params[0] >= LONG_CHAIN else None
        items.append(Item(f"{stem}{params}", argv, "check", d, expect_error=known))
    return items


def make_items(workload: str, rng: random.Random, tiny: bool, inputs: Path) -> list[Item]:
    if workload == "corpus":
        table = json.loads((HERE / "corpus_expected.json").read_text(encoding="utf-8"))
        return corpus_items(rng, tiny, table)
    if workload == "translate":
        return translate_items(rng, tiny, inputs)
    return state_space_items(rng, tiny, inputs)


def warmup_items(workload: str, rng: random.Random, inputs: Path) -> list[Item]:
    """Small untimed items run during set-up, so first-call costs are paid."""
    if workload == "corpus":
        return [i for i in make_items(workload, rng, True, inputs) if i.key.startswith("order_pizza/")]
    return make_items(workload, rng, True, inputs)


def verdicts(stdout: str) -> dict[str, list]:
    return {m[1]: [int(m[2]), int(m[3]), m[4], m[5], int(m[6])] for m in _VERDICT.finditer(stdout)}


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 (16 hex digits) of the PDDL, graph DOT, policy DOT and trace
    files, each group over its files in name order."""
    groups = {"pddl": ".pddl", "graph": ".graph.dot", "policy": ".policy.dot", "traces": ".traces.json"}
    hashes = {g: hashlib.sha256() for g in groups}
    for path in sorted(out_dir.iterdir()):
        for group, suffix in groups.items():
            if path.name.endswith(suffix):
                hashes[group].update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {g: h.hexdigest()[:16] for g, h in hashes.items()}


def check_item(item: Item, code: int, stdout: str, out_dir: Path, readback) -> str | None:
    """None when every output matches its answer, else what differed."""
    if item.kind == "corpus":
        want = item.expect
        if want is None:
            return "no entry in corpus_expected.json"
        if code != want["exit"]:
            return f"exit code {code}, expected {want['exit']}"
        if verdicts(stdout) != want["variants"]:
            return f"verdicts {verdicts(stdout)}, expected {want['variants']}"
        got = digests(out_dir)
        bad = [g for g in want["sha"] if got[g] != want["sha"][g]]
        return f"output digest differs: {', '.join(bad)}" if bad else None

    if code != 0:
        return f"exit code {code}, expected 0"
    if item.kind == "check":
        d: gen.Diagram = item.expect
        got = verdicts(stdout)
        if set(got) != set(d.variants):
            return f"variants {sorted(got)}, expected {sorted(d.variants)}"
        for name, (states, deadlocks, strong, cyclic, size) in got.items():
            v = d.variants[name]
            if (states, deadlocks, strong, cyclic) != (v.states, v.deadlocks, v.strong, v.strong_cyclic):
                return f"{name}: {got[name]}, expected {v}"
            size_ok = size == v.policy_size if v.policy_size is not None else 1 <= size <= states
            if not size_ok:
                return f"{name}: policy size {size}, expected {v.policy_size}"
        return None

    want = item.expect
    domains = [parsed for name, parsed, _ in readback if name.endswith(".domain.pddl")]
    if len(domains) != 1 or len(readback) != want["problems"] + 1:
        return f"wrote {[name for name, _, _ in readback]}, expected 1 domain and {want['problems']} problems"
    changed = [name for name, _, same in readback if not same]
    if changed:
        return f"re-rendering differs for {changed}"
    got = {"actions": len(domains[0].actions), "predicates": len(domains[0].predicates)}
    if any(got[key] != want[key] for key in got):
        return f"{got}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# Running items


def import_program() -> SimpleNamespace:
    """Import bpmn2pddl afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "bpmn2pddl" or m.startswith("bpmn2pddl.")]:
        del sys.modules[name]
    cli = importlib.import_module("bpmn2pddl.cli")
    render = sys.modules["bpmn2pddl.pddl_encoder"].render_pddl
    return SimpleNamespace(cli=cli, fond_checker=sys.modules["bpmn2pddl.fond_checker"],
                           readback=SimpleNamespace(render=render))


def read_back(prog: SimpleNamespace, stem: str, out_dir: Path) -> list[tuple[str, object, bool]]:
    """Parse every file translate wrote and render it again. The render goes
    through ``prog.readback`` so that a traced pass names it apart from the
    renders translate itself makes."""
    result = []
    for path in sorted(out_dir.glob(f"{stem}.*.pddl")):
        text = path.read_text(encoding="utf-8")
        parsed = prog.fond_checker.parse_pddl(text)
        result.append((path.name, parsed, prog.readback.render(parsed) == text))
    return result


# Host speed. On a shared virtual machine the same Python code runs up to
# 1.7x slower in some periods than in others, and CPU time drifts with wall
# time. So a fixed pure-Python kernel, of the same kind of work as the
# program (hashing tuples and frozensets, dict updates, string splitting), is
# timed between items and, from a timer signal every SAMPLE_INTERVAL_S,
# during them. Every time is scaled to the speed at which the kernel takes
# REFERENCE_S, a round figure near its time on a 2.0 GHz Xeon vCPU
# (2.2-4.1 ms there). The unscaled times are printed in the report.
REFERENCE_S = 0.0025
SAMPLE_INTERVAL_S = 0.25


def reference_kernel() -> int:
    counts: dict = {}
    for i in range(3000):
        key = frozenset((i % 97, (i * 7) % 89))
        counts[key, i % 5] = counts.get((key, i % 5), 0) + 1
    words = " ".join(f"(at_{i} ?p{i % 7})" for i in range(750)).split()
    return len(counts) + len(words)


def time_kernel() -> tuple[float, float]:
    """(start, seconds) of one run of the reference kernel."""
    start = time.perf_counter()
    reference_kernel()
    return start, time.perf_counter() - start


def time_reference() -> tuple[float, float]:
    """time_kernel() between items, on a collected heap."""
    gc.collect()
    return time_kernel()


def host_speed(kernel_seconds: list[float]) -> float:
    """Speed relative to the reference host, from kernel times around a measurement."""
    return REFERENCE_S / statistics.median(kernel_seconds)


@dataclass
class Outcome:
    start: float  # perf_counter() when the item started
    end: float  # and when it ended
    seconds: float  # wall time, less the kernel runs sampled during the item
    error: str | None = None  # the item raised
    wrong: str | None = None  # the item answered, but not as expected
    speed: float = 1.0  # host_speed() around the item

    @property
    def scaled(self) -> float:
        """The item's time at the reference host speed."""
        return self.seconds * self.speed


def execute(prog: SimpleNamespace, item: Item, out_dir: Path) -> tuple[float, float, str | None, int, str, list | None]:
    """Run one item. Return its start and wall time, the exception it raised
    (as text, or None), its exit code, what it printed and, for translate,
    the files read back."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    gc.collect()  # each CLI run starts from a fresh heap; so does each item
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = prog.cli.main(item.argv + ["--out", str(out_dir)])
            readback = read_back(prog, item.stem, out_dir) if item.kind == "translate" else None
    except Exception as exc:  # RecursionError included: counted as a failed item, never retried
        return start, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"[:160], 0, "", None
    return start, time.perf_counter() - start, None, code, stdout.getvalue(), readback


def run_item(prog: SimpleNamespace, item: Item, out_dir: Path) -> Outcome:
    start, seconds, error, code, stdout, readback = execute(prog, item, out_dir)
    if error:
        # a known defect fails the item; any other exception also makes the answer wrong
        known = item.expect_error is not None and error.startswith(f"{item.expect_error}:")
        return Outcome(start, start + seconds, seconds, error=error, wrong=None if known else f"raised {error}")
    return Outcome(start, start + seconds, seconds, wrong=check_item(item, code, stdout, out_dir, readback))


def run_pass(prog, items: list[Item], outputs: Path, refs: list[tuple[float, float]],
             sample: bool = True) -> list[Outcome]:
    """Run every item once, with the reference kernel timed before the first
    item, after each one and, if `sample`, every SAMPLE_INTERVAL_S during
    each one. Every kernel run's (start, seconds) is appended to `refs`, and
    the runs during an item are taken out of its time."""
    def sample_kernel(signum, frame):
        refs.append(time_kernel())

    previous = signal.signal(signal.SIGALRM, sample_kernel)
    refs.append(time_reference())
    outcomes = []
    try:
        for i, item in enumerate(items):
            first = len(refs)
            if sample:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            try:
                o = run_item(prog, item, outputs / str(i))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            o.seconds -= sum(seconds for start, seconds in refs[first:] if o.start <= start < o.end)
            outcomes.append(o)
            refs.append(time_reference())
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcomes


def assign_speeds(outcomes: list[Outcome], refs: list[tuple[float, float]]) -> None:
    """Set each item's host speed from the median of the kernel times
    sampled during it and of the three just before and after it."""
    starts = [start for start, _ in refs]
    for o in outcomes:
        lo = max(0, bisect.bisect_left(starts, o.start) - 3)
        hi = bisect.bisect_right(starts, o.end) + 3
        o.speed = host_speed([seconds for _, seconds in refs[lo:hi]])


def set_up(workload: str, seed: int, tiny: bool, work: Path):
    """Import, generate the inputs from the seed, and warm up."""
    prog = import_program()
    inputs = work / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    items = make_items(workload, random.Random(seed), tiny, inputs)
    warm_inputs = inputs / "warm"
    warm_inputs.mkdir(exist_ok=True)
    run_pass(prog, warmup_items(workload, random.Random(seed + 1), warm_inputs), work / "warm", [], sample=False)
    return prog, items


# ---------------------------------------------------------------------------
# Measuring


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path) -> dict:
    setup_times = []  # (wall, scaled)
    for _ in range(SETUP_REPEATS):
        before = [time_reference()[1] for _ in range(3)]
        start = time.perf_counter()
        prog, items = set_up(workload, seed, tiny, work)
        wall = time.perf_counter() - start
        speed = host_speed(before + [time_reference()[1] for _ in range(3)])
        setup_times.append((wall, wall * speed))

    passes = []  # (traced, outcomes, tracer)
    refs = []  # (start, seconds) of every reference kernel run
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracing.install(tracer, prog)
        try:
            outcomes = run_pass(prog, items, work / "out", refs, sample=not traced)
        finally:
            if tracer:
                tracer.unwrap()
        passes.append((traced, outcomes, tracer))
        if time.perf_counter() >= deadline and (not trace or len(passes) >= 2):
            break

    timed = [o for _, outcomes, _ in passes for o in outcomes]
    assign_speeds(timed, refs)
    untraced = [outcomes for traced, outcomes, _ in passes if not traced]
    failures = [o for o in timed if o.error or o.wrong]
    report = {
        "workload": workload, "seed": seed, "passes": len(passes), "items_per_pass": len(items),
        "attempted": len(timed), "failed": len(failures),
        "wrong": [f"{items[i % len(items)].key}: {o.wrong}" for i, o in enumerate(timed) if o.wrong],
        "errors": sorted({f"{items[i % len(items)].key}: {o.error}" for i, o in enumerate(timed) if o.error}),
        "fail_share": len(failures) / len(timed),
    }
    plain = [o for outcomes in untraced for o in outcomes]
    report["wall"] = {  # unscaled, for the text report
        "setup_s": statistics.median(wall for wall, _ in setup_times),
        "verdict_ms.p50": statistics.median(o.seconds for o in plain) * 1000.0,
        "host_speed": statistics.median(o.speed for o in plain),
    }
    if not trace:
        times = [o.scaled for o in plain]
        report["metrics"] = {
            "setup_s": statistics.median(scaled for _, scaled in setup_times),
            # per second of summed item time: gc.collect(), clean-up and the
            # reference kernel between items are not the program's work
            "verified_per_s": sum(1 for o in plain if not (o.error or o.wrong)) / sum(times),
            "verdict_ms.p50": statistics.median(times) * 1000.0,
            # linear interpolation between the two nearest ranks ("inclusive"): on corpus,
            # "exclusive" would interpolate across the gap between two diagrams' times
            "verdict_ms.p90": statistics.quantiles(times, n=10, method="inclusive")[8] * 1000.0
            if len(times) > 1 else times[0] * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        report["metrics"] = per_layer(passes, report["fail_share"])
        write_spans(workload, seed, passes)
    return report


def per_layer(passes, fail_share: float) -> dict[str, float]:
    """Medians over traced passes of per-pass self times and counts."""
    rows = []
    for traced, outcomes, tracer in passes:
        if not traced:
            continue
        c = tracer.counts
        # spans measure wall time; scale them as the pass's item times are scaled
        speed = sum(o.scaled for o in outcomes) / sum(o.seconds for o in outcomes)
        row = {f"{name}.self_ms": 0.0 for name in SELF_TIMES}
        row.update({f"{name}.self_ms": ms * speed for name, ms in tracer.self_ms().items()})
        for name in ("fond_checker.ground.calls", "fond_checker.states", "fond_checker.transitions",
                     "fond_checker.policy_size", "fond_checker.traces.count",
                     "pddl_encoder.actions", "pddl_encoder.lines"):
            row[name] = c[name]
        row["fond_checker.outcomes_per_action"] = c["ground_outcomes"] / max(1, c["ground_actions"])
        row["fond_checker.explore.scan_ratio"] = c["applicable_pairs"] / max(1, c["scanned_pairs"])
        row["pass_ms"] = sum(o.scaled for o in outcomes) * 1000.0
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    untraced_ms = statistics.median(
        sum(o.scaled for o in outcomes) * 1000.0 for traced, outcomes, _ in passes if not traced)
    metrics["trace_overhead_pct"] = (metrics["pass_ms"] / untraced_ms - 1.0) * 100.0
    metrics["fail_share"] = fail_share
    return metrics


def write_spans(workload: str, seed: int, passes) -> None:
    """Spans of every traced pass: [name, start_s, end_s, parent index]."""
    spans = []
    for traced, _, tracer in passes:
        if traced:
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in tracer.spans]
    t0 = spans[0][1] if spans else 0.0
    for span in spans:
        span[1] -= t0
        span[2] -= t0
    path = ROOT / ".bench_run" / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")


def print_report(report: dict) -> None:
    units = {**END_TO_END, **PER_LAYER}
    print(f"workload={report['workload']} seed={report['seed']} passes={report['passes']} "
          f"items/pass={report['items_per_pass']} attempted={report['attempted']} "
          f"failed={report['failed']} fail_share={report['fail_share']:.4f} ratio")
    for name, value in report["metrics"].items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")
    wall = report["wall"]
    print(f"  unscaled: setup_s {wall['setup_s']:.4f} s, verdict_ms.p50 {wall['verdict_ms.p50']:.4f} ms; "
          f"host speed {wall['host_speed']:.3f} of the reference")
    for line in report["errors"] + report["wrong"][:10]:
        print(f"  failed: {line}")


def result_line(report: dict) -> str:
    units = {**END_TO_END, **PER_LAYER}
    return json.dumps({
        "correct": not report["wrong"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in report["metrics"].items()},
    })


# ---------------------------------------------------------------------------
# Several workloads, each in its own process


def run_children(seed: int, seconds: float, traces: list[int], tiny: bool) -> int:
    """Run every workload in a fresh process and print one table; with
    tiny sizes, also check every metric name and unit against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print("".join(proc.stdout.splitlines(keepends=True)[:-1]), end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                print(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"FAIL {workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                      f"differ from BENCHMARK.json, or an answer was wrong")
                status = 1
    print("smoke: ok" if tiny and status == 0 else f"status={status}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload once, both trace modes")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return run_children(args.seed, 0, [0, 1], tiny=True)
    if args.workload is None:
        parser.error("--workload or --smoke is required")
    if args.workload == "all":
        return run_children(args.seed, args.seconds, [args.trace], tiny=False)

    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_run" / f"work-{args.workload}-{args.seed}"
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

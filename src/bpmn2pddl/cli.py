"""Command-line pipeline: translate, check, and batch-run BPMN diagrams.

Exit codes are a stable contract: 0 success, 1 input, encoding or output
error, 2 check failure / limit exceeded (or warnings with
--warnings-as-errors). `corpus` runs `check` on each file of a directory
(same output, same policy DOT and traces files, same warnings), then
prints and writes a summary TSV; it exits 1 if any file cannot be read,
translated or written, else 2 if `check` would exit 2 on any file, else 0.
A standard output closed early (`| head`) exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from pathlib import Path

from . import fond_checker
from .bpmn_parser import ParseError, Record, parse_bpmn
from .fond_checker import Limits, LimitExceeded, SolveMode
from .pddl_encoder import (
    DoneMode,
    EncodeOptions,
    EncodingError,
    PddlDomain,
    PddlProblem,
    emit_domain,  # unused here, but bench/tracing.py wraps both names in this module
    emit_problems,
    emit_pddl,
    render_pddl,
)
from .process_graph import Diagnostic, GraphError, MessageStrategy, build_graph, export_graph_dot, validate_graph

ENV_MAX_STATES = "BPMN2PDDL_MAX_STATES"


class RunConfig(Record):
    __slots__ = __match_args__ = ("input_path", "output_dir", "msg_strategy", "done_mode", "fig4_compat",
                                  "allow_spontaneous_start", "max_inclusive_branches", "solve_mode", "limits",
                                  "write_dot", "write_traces", "warnings_as_errors")
    def __init__(self, input_path="", output_dir="out", msg_strategy=MessageStrategy.EXCLUSIVE_EMULATION,
                 done_mode=DoneMode.ANY_END, fig4_compat=False, allow_spontaneous_start=False, max_inclusive_branches=6,
                 solve_mode="both", limits=None, write_dot=False, write_traces=False, warnings_as_errors=False):
        self.input_path: str = input_path
        self.output_dir: str = output_dir
        self.msg_strategy: MessageStrategy = msg_strategy
        self.done_mode: DoneMode = done_mode
        self.fig4_compat: bool = fig4_compat
        self.allow_spontaneous_start: bool = allow_spontaneous_start
        self.max_inclusive_branches: int = max_inclusive_branches
        self.solve_mode: str = solve_mode  # strong | cyclic | both
        self.limits: Limits = Limits() if limits is None else limits
        self.write_dot: bool = write_dot
        self.write_traces: bool = write_traces
        self.warnings_as_errors: bool = warnings_as_errors

    def encode_options(self) -> EncodeOptions:
        return EncodeOptions(
            fig4_compat=self.fig4_compat,
            done_mode=self.done_mode,
            allow_spontaneous_start=self.allow_spontaneous_start,
            max_inclusive_branches=self.max_inclusive_branches,
        )

    def solve_modes(self) -> tuple[SolveMode, ...]:
        if self.solve_mode == "strong":
            return (SolveMode.STRONG,)
        if self.solve_mode == "cyclic":
            return (SolveMode.STRONG_CYCLIC,)
        return (SolveMode.STRONG, SolveMode.STRONG_CYCLIC)


class TranslationResult(Record):
    __slots__ = __match_args__ = ("stem", "graph", "diagnostics", "domain", "problems", "domain_text", "problem_texts",
                                  "n_nodes", "n_flows", "n_synthetic", "elapsed_ms")
    def __init__(self, stem, graph, diagnostics, domain, problems, domain_text, problem_texts, n_nodes, n_flows,
                 n_synthetic, elapsed_ms):
        self.stem: str = stem
        self.graph: object = graph
        self.diagnostics: list[Diagnostic] = diagnostics
        self.domain: PddlDomain = domain
        self.problems: list[PddlProblem] = problems
        self.domain_text: str = domain_text
        self.problem_texts: dict[str, str] = problem_texts  # variant -> text
        self.n_nodes: int = n_nodes
        self.n_flows: int = n_flows
        self.n_synthetic: int = n_synthetic
        self.elapsed_ms: float = elapsed_ms


def translate_file(path: str | Path, config: RunConfig | None = None) -> TranslationResult:
    """Run parse → graph → encode → render on one .bpmn file.

    The elapsed time covers exactly that span (no file writes, no checking).
    """
    config = config or RunConfig()
    path = Path(path)
    xml = path.read_bytes()  # the XML parser decodes it by its declared encoding
    stem = path.stem

    start = time.perf_counter()
    model = parse_bpmn(xml, source_name=stem)
    graph = build_graph(model, config.msg_strategy)
    diagnostics = validate_graph(graph)
    domain, problems = emit_pddl(graph, config.encode_options())  # the encoder is freed before rendering
    domain_text = render_pddl(domain)
    problem_texts = {p.variant: render_pddl(p) for p in problems}
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return TranslationResult(
        stem=stem,
        graph=graph,
        diagnostics=diagnostics,
        domain=domain,
        problems=problems,
        domain_text=domain_text,
        problem_texts=problem_texts,
        n_nodes=len(graph.nodes),
        n_flows=len(graph.flows),
        n_synthetic=sum(1 for f in graph.flows.values() if f.synthetic),
        elapsed_ms=elapsed_ms,
    )


def _write_outputs(result: TranslationResult, config: RunConfig) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{result.stem}.domain.pddl").write_text(result.domain_text, encoding="utf-8", newline="\n")
    for variant, text in result.problem_texts.items():
        (out / f"{result.stem}.{variant}.problem.pddl").write_text(text, encoding="utf-8", newline="\n")
    if config.write_dot:
        (out / f"{result.stem}.graph.dot").write_text(
            export_graph_dot(result.graph), encoding="utf-8", newline="\n"
        )


def _translate_or_report(config: RunConfig, path: str) -> tuple[TranslationResult, int] | None:
    """Translate the file at `path`, write its files and print its warnings and
    summary line. Returns the translation and its domain's line count, or None
    when the file cannot be read, translated or written."""
    try:
        result = translate_file(path, config)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except (ParseError, GraphError, EncodingError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    try:
        _write_outputs(result, config)
    except OSError as exc:
        _cannot_write(exc)
        return None
    if result.diagnostics:  # one write: on a terminal each print is a system call
        sys.stderr.write("".join(f"warning: {d.code}: {d.message}\n" for d in result.diagnostics))
    lines = result.domain_text.count("\n")
    print(
        f"{result.stem}: nodes={result.n_nodes} flows={result.n_flows} "
        f"synthetic={result.n_synthetic} predicates={len(result.domain.predicates)} "
        f"actions={len(result.domain.actions)} lines={lines} "
        f"problems={len(result.problems)} elapsed_ms={result.elapsed_ms:.1f}"
    )
    return result, lines


def cmd_translate(config: RunConfig) -> int:
    translated = _translate_or_report(config, config.input_path)
    if translated is None:
        return 1
    return 2 if config.warnings_as_errors and translated[0].diagnostics else 0


def _traces_text(payload: list[dict]) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` for the trace schema of
    :func:`fond_checker.traces_to_json`. With `indent` set, ``json.dumps``
    encodes in pure Python; here only each string goes through it, to its C
    escaper, and the fixed layout is joined around them."""
    dumps, traces = json.dumps, []
    for trace in payload:
        steps = []
        for step in trace["steps"]:
            state = ",\n          ".join(map(dumps, step["state"]))
            state = f"[\n          {state}\n        ]" if state else "[]"
            steps.append(f'      {{\n        "state": {state},\n        "action": {dumps(step["action"])},\n'
                         f'        "outcome": {step["outcome"]}\n      }}')
        body = ",\n".join(steps)
        body = f"[\n{body}\n    ]" if steps else "[]"
        traces.append(f'  {{\n    "steps": {body},\n    "terminal": {dumps(trace["terminal"])}\n  }}')
    body = ",\n".join(traces)
    return f"[\n{body}\n]\n" if traces else "[]\n"


def _check_variant(
    result: TranslationResult, problem: PddlProblem, config: RunConfig
) -> tuple[int, bool, bool] | None:
    """Analyze one variant, print its line and write its policy DOT and
    traces from the explored state space. Returns its state count and
    whether it has a strong and a strong-cyclic policy, or None when the
    policy DOT or traces cannot be written."""
    wanted = config.solve_modes()
    report = fond_checker.analyze(result.domain, problem, wanted, config.limits)
    strong_txt = _solvable_text(report.strong, SolveMode.STRONG in wanted)
    cyclic_txt = _solvable_text(report.strong_cyclic, SolveMode.STRONG_CYCLIC in wanted)
    policy = report.strong_cyclic or report.strong
    size = len(fond_checker._policy_pairs(report.space, policy)[1]) if policy else 0  # its mapped states
    print(
        f"{report.problem_name}: states={report.n_states} deadlocks={report.n_deadlocks} "
        f"strong={strong_txt} strong_cyclic={cyclic_txt} policy_size={size}"
    )
    out = Path(config.output_dir)
    try:
        if policy and config.write_dot:
            dot = fond_checker.export_policy_dot(result.domain, problem, policy, report.space)
            (out / f"{result.stem}.{problem.variant}.policy.dot").write_text(dot, encoding="utf-8", newline="\n")
        if policy and config.write_traces:
            traces = fond_checker.enumerate_traces(result.domain, problem, policy, config.limits, report.space)
            text = _traces_text(fond_checker.traces_to_json(traces))
            (out / f"{result.stem}.{problem.variant}.traces.json").write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        _cannot_write(exc)
        return None
    return report.n_states, report.strong is not None, report.strong_cyclic is not None


def _check_file(config: RunConfig, path: str) -> tuple[int, str]:
    """`check` on the file at `path`: its exit code and its row of the corpus
    summary, ``ERROR`` when the file cannot be read, translated or written.
    The row gives the largest variant's state count, whether every variant
    has a strong and a strong-cyclic policy (no, when a limit was hit), and
    the milliseconds checking took."""
    name = Path(path).name
    error = 1, f"{name}\tERROR" + "\t" * 8  # the failure row: the name and nine empty fields
    translated = _translate_or_report(config, path)
    if translated is None:
        return error
    result, lines = translated

    check_start = time.perf_counter()
    failed = False
    n_states, strong_ok, cyclic_ok = 0, True, True
    for problem in result.problems:  # one at a time: only one state space is alive
        try:
            checked = _check_variant(result, problem, config)
        except LimitExceeded as exc:
            print(f"limit exceeded on {problem.name}: {_limit_text(exc)}", file=sys.stderr)
            checked = 0, False, False
        if checked is None:
            return error
        states, strong, cyclic = checked
        n_states = max(n_states, states)
        strong_ok &= strong
        cyclic_ok &= cyclic
        failed |= not (strong or cyclic)
    check_ms = (time.perf_counter() - check_start) * 1000.0
    print(f"check elapsed_ms={check_ms:.1f}")
    code = 2 if failed or (config.warnings_as_errors and result.diagnostics) else 0
    wanted = config.solve_modes()
    row = (name, result.n_nodes, len(result.domain.predicates), len(result.domain.actions), lines,
           f"{result.elapsed_ms:.1f}", f"{check_ms:.1f}", n_states,
           _solvable_text(strong_ok, SolveMode.STRONG in wanted),
           _solvable_text(cyclic_ok, SolveMode.STRONG_CYCLIC in wanted))
    return code, "\t".join(map(str, row))


def cmd_check(config: RunConfig) -> int:
    return _check_file(config, config.input_path)[0]


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 1


def _limit_text(exc: LimitExceeded) -> str:
    got = f" (reached {exc.states}, expanded {exc.expanded}, frontier {exc.frontier}, depth {exc.depth})"
    return str(exc) if exc.states is None else f"{exc}{got}"


def _solvable_text(found, requested: bool) -> str:
    return ("yes" if found else "no") if requested else "-"


def cmd_corpus(config: RunConfig) -> int:
    """`check` on every .bpmn file of a directory, then a summary TSV. Exits
    1 when a file cannot be read, translated or written, else 2 when `check`
    would exit 2 on a file, else 0."""
    directory = Path(config.input_path)
    if not directory.is_dir():
        print(f"error: {config.input_path} is not a directory", file=sys.stderr)
        return 1
    codes, rows = {0}, []
    for path in sorted(directory.glob("*.bpmn")):
        code, row = _check_file(config, str(path))
        codes.add(code)
        rows.append(row)

    header = "file\tnodes\tpredicates\tactions\tlines\tms\tcheck_ms\tstates\tstrong\tstrong_cyclic"
    tsv = header + "\n" + "".join(row + "\n" for row in rows)
    print(tsv, end="")
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "corpus_summary.tsv").write_text(tsv, encoding="utf-8", newline="\n")
    except OSError as exc:
        return _cannot_write(exc)
    return 1 if 1 in codes else max(codes)


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every main call
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpmn2pddl",
        description="Translate BPMN 2.0 diagrams to FOND PDDL and verify them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # the options every subcommand shares
    common.add_argument("input", help="input .bpmn file (or directory for corpus)")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument(
        "--msg-strategy",
        choices=[m.value for m in MessageStrategy],
        default="exclusive",
        help="task-task message flows: ignore or emulate as exclusive branching",
    )
    common.add_argument("--done-mode", choices=[m.value for m in DoneMode], default="any")
    common.add_argument("--fig4-compat", action="store_true", help="omit :non-deterministic from :requirements")
    common.add_argument("--allow-spontaneous-start", action="store_true")
    common.add_argument("--max-inclusive-branches", type=int, default=6)
    common.add_argument("--solve", choices=["strong", "cyclic", "both"], default="both")
    common.add_argument("--max-states", type=int, default=None)
    common.add_argument("--dot", action="store_true", help="write DOT exports")
    common.add_argument("--traces", action="store_true", help="write JSON trace reports")
    common.add_argument("--warnings-as-errors", action="store_true")

    for name in ("translate", "check", "corpus"):
        sub.add_parser(name, parents=[common])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    limits = Limits()
    env_max = os.environ.get(ENV_MAX_STATES)
    if env_max is not None:
        try:
            limits.max_states = int(env_max)
        except ValueError:
            raise ValueError(f"{ENV_MAX_STATES} must be an integer") from None
    if args.max_states is not None:
        limits.max_states = args.max_states
    if limits.max_states < 1:
        name = ENV_MAX_STATES if args.max_states is None else "--max-states"
        raise ValueError(f"{name} must be a positive integer")
    return RunConfig(
        input_path=args.input,
        output_dir=args.out,
        msg_strategy=MessageStrategy(args.msg_strategy),
        done_mode=DoneMode(args.done_mode),
        fig4_compat=args.fig4_compat,
        allow_spontaneous_start=args.allow_spontaneous_start,
        max_inclusive_branches=args.max_inclusive_branches,
        solve_mode=args.solve,
        limits=limits,
        write_dot=args.dot,
        write_traces=args.traces,
        warnings_as_errors=args.warnings_as_errors,
    )


def main(argv: list[str] | None = None) -> int:
    """Run one command. The cyclic garbage collector is paused while it runs:
    a command leaves no reference cycles, so its collections would find
    nothing. It is switched back on at exit if it was on at entry."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    command = {"translate": cmd_translate, "check": cmd_check, "corpus": cmd_corpus}[args.command]
    try:
        code = command(config)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # standard output closed early, as by `| head`
        sys.stdout = open(os.devnull, "w")  # so the flush at exit has nowhere to fail
        return 1


if __name__ == "__main__":
    sys.exit(main())

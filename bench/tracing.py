"""In-memory spans around the public functions of each bpmn2pddl module.

A :class:`Tracer` replaces a module attribute with a wrapper for the length
of a traced pass. The wrapper is installed where callers look the function
up: ``cli`` imported ``parse_bpmn`` and friends by name, so those are
wrapped in ``cli``; ``fond_checker`` calls ``ground_domain``, ``explore``,
``solve`` and ``verify_policy`` as module globals, so those are wrapped in
``fond_checker``. The benchmark's own re-render of the files translate
wrote is its own span, ``bench.readback_render``, so ``pddl_encoder.*``
holds only what the program does.

Each span records its name, start, end and the index of its parent span.
A span's self time is its duration minus the time of its direct children
(one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # (name, start, end, parent)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Wrap ``module.attr``. `name` is a span name or a function of the
        call's arguments; `count(counts, args, kwargs, result)` records
        counters from a call that returned."""
        original = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                spans[idx] = (label, start, end, stack[-1] if stack else -1)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for idx, (label, start, end, _) in enumerate(self.spans):
            totals[label] += (end - start - child[idx]) * 1000.0
        return dict(totals)


def install(tracer: Tracer, prog) -> None:
    """Wrap every public function a ``check`` or ``translate`` run calls, in
    the modules of `prog`, and the benchmark's own read-back render."""
    cli, fond_checker = prog.cli, prog.fond_checker
    for attr, name in [
        ("main", "cli.main"),
        ("translate_file", "cli.translate"),
        ("parse_bpmn", "bpmn_parser.parse"),
        ("build_graph", "process_graph.build"),
        ("validate_graph", "process_graph.validate"),
        ("export_graph_dot", "process_graph.dot"),
        ("emit_domain", "pddl_encoder.encode"),
        ("emit_problems", "pddl_encoder.encode"),
    ]:
        tracer.wrap(cli, attr, name, _COUNTERS.get(attr))
    tracer.wrap(cli, "render_pddl", "pddl_encoder.render", _count_lines)
    tracer.wrap(prog.readback, "render", "bench.readback_render")
    for attr, name in [
        ("parse_pddl", "fond_checker.parse_pddl"),
        ("analyze", "fond_checker.analyze"),
        ("ground_domain", "fond_checker.ground"),
        ("explore", "fond_checker.explore"),
        ("solve", _solve_name),
        ("verify_policy", "fond_checker.verify"),
        ("enumerate_traces", "fond_checker.traces"),
        ("export_policy_dot", "fond_checker.dot"),
        ("traces_to_json", "fond_checker.traces_json"),
    ]:
        tracer.wrap(fond_checker, attr, name, _COUNTERS.get(attr))


def _solve_name(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    # solve() defaults to strong-cyclic
    return "fond_checker.solve_strong" if getattr(mode, "name", "") == "STRONG" else "fond_checker.solve_cyclic"


def _count_lines(counts, args, kwargs, text) -> None:
    counts["pddl_encoder.lines"] += text.count("\n")


def _count_domain(counts, args, kwargs, domain) -> None:
    counts["pddl_encoder.actions"] += len(domain.actions)


def _count_ground(counts, args, kwargs, actions) -> None:
    counts["fond_checker.ground.calls"] += 1
    counts["ground_actions"] += len(actions)
    counts["ground_outcomes"] += sum(len(a.outcomes) for a in actions)


def _count_explore(counts, args, kwargs, space) -> None:
    counts["fond_checker.states"] += len(space.states)
    counts["fond_checker.transitions"] += sum(len(t) for t in space.transitions)
    # applicable (state, action) pairs vs the full scan explore() makes
    counts["applicable_pairs"] += sum(len({name for name, _, _ in t}) for t in space.transitions)
    counts["scanned_pairs"] += len(space.states) * len(space.actions)


def _count_policy(counts, args, kwargs, policy) -> None:
    counts["fond_checker.policy_size"] += len(policy.mapping)


def _count_traces(counts, args, kwargs, traces) -> None:
    counts["fond_checker.traces.count"] += len(traces.traces)


_COUNTERS = {
    "emit_domain": _count_domain,
    "ground_domain": _count_ground,
    "explore": _count_explore,
    "solve": _count_policy,
    "enumerate_traces": _count_traces,
}

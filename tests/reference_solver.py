"""Reference solvers, exploration, traces, policy DOT, PDDL reader, graph
validation and marker resolution for the oracles.

These are the original quadratic solvers of ``fond_checker``, kept verbatim:
round-by-round rescans of every state until nothing changes, and a
goal-distance BFS that scans every winning state for each popped one. The
linear-time backward core must return the same ``Policy.mapping`` on every
input; ``tests/test_fond_checker.py`` compares the two.

``enumerate_traces`` and ``export_policy_dot`` are the original
re-simulating versions, also verbatim: each grounds the domain again and
applies actions to states instead of walking an explored ``StateSpace``.
The ``fond_checker`` versions must produce the same traces and DOT text.
The one change is the trace-length check ``_record`` makes before its
count check: the original checked length only on entering a state, so a
cycle trace, recorded with its closing step, could be one step longer than
``max_trace_len``.

``applicable`` and ``apply`` are the frozenset state helpers these
reference versions step with.

``ground_domain``, ``_flatten_effect`` and ``_collect_effect`` are the
original grounding, verbatim: the effect tree collected into add and delete
sets per ``oneof`` outcome, their ``product`` built into ``Outcome`` and
``GroundAction`` objects. ``fond_checker`` compiles each action straight into
bitmasks and decodes its ``ground_domain`` from them; the two must give equal
lists, and every reference version here grounds with this one.

``round_levels`` is the backward core's original strong-cyclic loop,
verbatim but for returning None where it raised ``Unsolvable`` and for its
own pair-level ``_backward``, which lists the pairs into each state from
``succs`` and ``owner`` instead of calling ``fond_checker._backward``: one
full "some outcome reaches" pass per round of the greatest fixpoint, until
the winning set is stable. ``fond_checker._cyclic_levels``
computes the same levels in one pass plus re-levelled loser waves and must
return them on every input.

``explore`` is the original frozenset explorer, verbatim but for the
record it returns (:class:`FrozenSpace`, the original ``StateSpace``
fields): a BFS that tests every action in every state with
``applicable``. The bitmask explorer must build the same state space.

``_tokenize`` and ``_read`` are the original two-pass PDDL reader, verbatim
but for its form class, here :class:`SExpr`: a character loop builds a list
of ``(token, line, col)`` tuples, then an explicit-stack pass over that list
builds a tree of forms that carry their line and column. The original
``parse_pddl`` raised ``empty input`` when the token list was empty.
Where ``reference_read`` finds no single form, ``fond_checker.parse_pddl``
must raise the same ``PddlSyntaxError`` text, line and column included.

``reference_parse_pddl`` is the list-tree reader that came next, verbatim
but for the names ``read_lists`` (its ``_read``) and
``reference_parse_pddl``, its own ``_validate_domain`` (which names an
action by its form), and ``fond_checker._position`` and ``_COMMENT``,
imported: ``read_lists`` scans the text once into plain lists and strings
that keep no positions, the ``_parse_*`` readers walk that tree, and a
node's token index is found from the tree by ``_token_index`` only for an
error. ``fond_checker.parse_pddl`` reads the tokens straight into records,
in one pass with no tree, and must return an equal record or raise the same
exception type and message as ``reference_parse_pddl``.

``validate_graph`` is the original structural check, verbatim but for its
own forward walk, ``_reachable``, the mirror of its ``_reaching``, in place
of ``process_graph._reachable_from``: one forward walk for unreachable
nodes, then one backward walk per parallel join and a loop over exclusive
splits × parallel joins × branches for ``PotentialDeadlock``.
``process_graph.validate_graph`` finds the deadlock pairs in one pass over
strongly connected components and must return the same diagnostics in the
same order.

``marker`` is the encoder's original per-use marker resolution, verbatim
but for taking the encoder as an argument and reading a join's arrival by
flow id: a branch chain walked on every call, in its original order.
``pddl_encoder._Encoder`` decides each flow's marker once, into
``markers``, and must give the same predicate for every flow.

``match_inclusive_joins`` is the encoder's original join matching,
verbatim but for taking the graph as an argument: one ``_depths`` BFS per
pool holding an inclusive join, then one more per split reachable there,
each never entering that split, so O((inclusive splits + pools) × pool
size). A join takes the dominating split of greatest BFS depth.
``pddl_encoder._Encoder._match_inclusive_joins`` computes the immediate
dominators once per pool and must return the same mapping, or raise the
same ``EncodingError`` message.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from bpmn2pddl.bpmn_parser import _GATEWAYS, NodeKind
from bpmn2pddl.fond_checker import (
    GroundAction,
    LimitExceeded,
    Limits,
    Outcome,
    PddlSyntaxError,
    Policy,
    SolveMode,
    StateSpace,
    Trace,
    TraceSet,
    Unsolvable,
    UnsupportedFeature,
    _COMMENT,
    _position,
)
from bpmn2pddl.pddl_encoder import (
    _EFFECT_WORDS,
    _UNSUPPORTED_EFFECTS,
    EffAdd,
    EffAnd,
    EffNot,
    EffOneOf,
    EncodingError,
    PddlAction,
    PddlDomain,
    PddlProblem,
)
from bpmn2pddl.process_graph import Diagnostic, ProcessGraph
from conftest import DoubleAdd


def ground_domain(domain: PddlDomain) -> list[GroundAction]:
    """Flatten effect trees into explicit nondeterministic outcomes."""
    _validate_domain(domain)
    grounded = []
    for action in domain.actions:
        grounded.append(
            GroundAction(
                name=action.name,
                pre=frozenset(action.precondition),
                outcomes=tuple(_flatten_effect(action.effect)),
            )
        )
    return grounded


def _flatten_effect(effect: EffAnd) -> list[Outcome]:
    adds, dels, groups = _collect_effect(effect)
    if not groups:
        return [Outcome(adds=frozenset(adds), dels=frozenset(dels - adds))]
    outcomes = []
    for combo in product(*groups):
        o_adds = set(adds)
        o_dels = set(dels)
        for a, d in combo:
            o_adds |= a
            o_dels |= d
        outcomes.append(Outcome(adds=frozenset(o_adds), dels=frozenset(o_dels - o_adds)))
    return outcomes


def _collect_effect(tree, inside_oneof: bool = False) -> tuple[set, set, list]:
    adds, dels, groups = set(), set(), []
    todo = [tree]  # an explicit stack, children reversed so oneof groups keep tree order
    while todo:
        node = todo.pop()
        if isinstance(node, EffAdd):
            adds.add(node.pred)
        elif isinstance(node, EffNot):
            dels.add(node.pred)
        elif isinstance(node, EffAnd):
            todo.extend(reversed(node.items))
        elif inside_oneof:
            raise UnsupportedFeature("nested oneof effects are outside the supported subset")
        else:
            groups.append([_collect_effect(o, inside_oneof=True)[:2] for o in node.outcomes])
    return adds, dels, groups


def applicable(state: frozenset, action: GroundAction) -> bool:
    return action.pre <= state


def apply(state: frozenset, action: GroundAction, outcome_index: int) -> frozenset:
    outcome = action.outcomes[outcome_index]
    return (state - outcome.dels) | outcome.adds


def reference_mapping(space: StateSpace, mode: SolveMode) -> dict[frozenset, str]:
    """The policy mapping the reference solvers extract, or :class:`Unsolvable`."""
    by_action = [_group_by_action(trs) for trs in space.transitions]
    if mode is SolveMode.STRONG:
        return _solve_strong(space, by_action)
    return _solve_strong_cyclic(space, by_action)


def round_levels(space: StateSpace) -> list[int] | None:
    """The strong-cyclic levels of the original round loop, None when unsolvable."""
    level = [0] * len(space.masks)  # the first round starts from every state
    while True:
        pending = [
            int(level[s] >= 0 and all(level[t] >= 0 for t in succs))
            for s, succs in zip(space.owner, space.succs)
        ]
        reach = _backward(space, pending)
        if reach[0] < 0:
            return None
        stable = reach.count(-1) == level.count(-1)
        level = reach
        if stable:
            return level


def _backward(space: StateSpace, pending: list[int]) -> list[int]:
    """Goal distances over the pairs whose `pending` is 1, -1 where none:
    a BFS from the goals along the pairs into each state."""
    into = [[] for _ in space.masks]
    for p, succs in enumerate(space.succs):
        for t in succs:
            into[t].append(p)
    level = [-1] * len(space.masks)
    queue = list(space.goal_states)
    for g in queue:
        level[g] = 0
    for t in queue:
        for p in into[t]:
            if pending[p] and level[s := space.owner[p]] < 0:
                level[s] = level[t] + 1
                queue.append(s)
    return level


def _group_by_action(transitions: list[tuple[str, int, int]]) -> dict[str, list[int]]:
    grouped: dict[str, list[int]] = {}
    for name, _oidx, succ in transitions:
        grouped.setdefault(name, []).append(succ)
    return grouped


def _solve_strong(space: StateSpace, by_action) -> dict[frozenset, str]:
    n = len(space.states)
    level = {s: 0 for s in space.goal_states}
    winning = set(space.goal_states)
    current = 0
    changed = True
    while changed:
        changed = False
        current += 1
        added = []
        for s in range(n):
            if s in winning:
                continue
            for name in by_action[s]:
                if all(succ in winning for succ in by_action[s][name]):
                    added.append(s)
                    break
        for s in added:
            winning.add(s)
            level[s] = current
            changed = True
    if 0 not in winning:
        raise Unsolvable(SolveMode.STRONG)

    full: dict[int, str] = {}
    for s in winning - space.goal_states:
        candidates = [
            name
            for name, succs in sorted(by_action[s].items())
            if all(succ in winning and level[succ] < level[s] for succ in succs)
        ]
        full[s] = candidates[0]
    return _restrict_to_reachable(space, full, by_action)


def _solve_strong_cyclic(space: StateSpace, by_action) -> dict[frozenset, str]:
    n = len(space.states)
    winning = set(range(n))
    while True:
        allowed: dict[int, dict[str, list[int]]] = {}
        for s in winning:
            acts = {
                name: succs
                for name, succs in by_action[s].items()
                if all(succ in winning for succ in succs)
            }
            if acts:
                allowed[s] = acts
        # states that can reach a goal through allowed actions
        reach = set(g for g in space.goal_states if g in winning)
        changed = True
        while changed:
            changed = False
            for s in winning:
                if s in reach or s not in allowed:
                    continue
                for succs in allowed[s].values():
                    if any(t in reach for t in succs):
                        reach.add(s)
                        changed = True
                        break
        if reach == winning:
            break
        winning = reach
        if 0 not in winning:
            raise Unsolvable(SolveMode.STRONG_CYCLIC)
    if 0 not in winning:
        raise Unsolvable(SolveMode.STRONG_CYCLIC)

    # fair-progress extraction: pick actions with some outcome strictly closer to goal
    level = {g: 0 for g in space.goal_states if g in winning}
    frontier = deque(level)
    allowed = {
        s: {
            name: succs
            for name, succs in by_action[s].items()
            if all(succ in winning for succ in succs)
        }
        for s in winning
    }
    while frontier:
        t = frontier.popleft()
        for s in winning:
            if s in level:
                continue
            for succs in allowed[s].values():
                if t in succs:
                    level[s] = level[t] + 1
                    frontier.append(s)
                    break
    full: dict[int, str] = {}
    for s in winning - space.goal_states:
        candidates = [
            name
            for name, succs in sorted(allowed[s].items())
            if any(succ in level and level[succ] < level[s] for succ in succs)
        ]
        full[s] = candidates[0]
    return _restrict_to_reachable(space, full, by_action)


def _restrict_to_reachable(space: StateSpace, full: dict[int, str], by_action) -> dict[frozenset, str]:
    mapping: dict[frozenset, str] = {}
    seen = {0}
    queue = deque([0])
    while queue:
        s = queue.popleft()
        if s in space.goal_states or s not in full:
            continue
        mapping[space.states[s]] = full[s]
        for succ in by_action[s][full[s]]:
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return mapping


def enumerate_traces(
    domain: PddlDomain,
    problem: PddlProblem,
    policy: Policy | None = None,
    limits: Limits | None = None,
) -> TraceSet:
    """DFS enumeration of maximal traces.

    Under a policy only the outcome branches; in all mode (policy=None)
    both the action and the outcome branch. A trace ends at the goal, in
    a deadlock, or at the first state it revisits (cycle cutoff).

    Verbatim but for the length check in :func:`_record`, which makes a
    cycle trace's closing step count against ``max_trace_len``.
    """
    limits = limits or Limits()
    actions = ground_domain(domain)
    init = frozenset(problem.init)
    goal = frozenset(problem.goal)
    result = TraceSet()

    # stack of (state, path-set, steps)
    stack: list[tuple[frozenset, frozenset, tuple]] = [(init, frozenset([init]), ())]
    while stack:
        state, path, steps = stack.pop()
        if len(steps) > limits.max_trace_len:
            raise LimitExceeded(f"trace longer than {limits.max_trace_len} steps")
        if goal <= state:
            _record(result, Trace(list(steps), "goal"), limits)
            continue
        if policy is not None:
            chosen = policy.mapping.get(state)
            applicable_actions = [a for a in actions if a.name == chosen and applicable(state, a)]
        else:
            applicable_actions = [a for a in actions if applicable(state, a)]
        if not applicable_actions:
            _record(result, Trace(list(steps), "deadlock"), limits)
            continue
        for action in applicable_actions:
            for oidx in range(len(action.outcomes)):
                succ = apply(state, action, oidx)
                new_steps = steps + ((state, action.name, oidx),)
                if succ in path:
                    _record(result, Trace(list(new_steps), "cycle"), limits)
                    continue
                stack.append((succ, path | {succ}, new_steps))
    return result


def _record(result: TraceSet, trace: Trace, limits: Limits) -> None:
    if len(trace.steps) > limits.max_trace_len:  # a cycle trace's closing step counts
        raise LimitExceeded(f"trace longer than {limits.max_trace_len} steps")
    if len(result.traces) >= limits.max_traces:
        raise LimitExceeded(f"more than {limits.max_traces} traces")
    result.traces.append(trace)


def export_policy_dot(domain: PddlDomain, problem: PddlProblem, policy: Policy) -> str:
    """DOT digraph of the policy: states labeled by their true predicates,
    edges labeled action/outcome, goal states double-circled."""
    actions = {a.name: a for a in ground_domain(domain)}
    init = frozenset(problem.init)
    goal = frozenset(problem.goal)

    order: list[frozenset] = [init]
    ids = {init: "s0"}
    queue = deque([init])
    edges: list[tuple[str, str, str]] = []
    while queue:
        state = queue.popleft()
        if goal <= state:
            continue
        name = policy.mapping.get(state)
        if name is None:
            continue
        action = actions[name]
        for oidx in range(len(action.outcomes)):
            succ = apply(state, action, oidx)
            if succ not in ids:
                ids[succ] = f"s{len(order)}"
                order.append(succ)
                queue.append(succ)
            label = name if len(action.outcomes) == 1 else f"{name}/{oidx}"
            edges.append((ids[state], ids[succ], label))

    lines = ["digraph policy {", "  rankdir=LR;"]
    for state in order:
        sid = ids[state]
        label = "\\n".join(sorted(state)) or "{}"
        shape = "doublecircle" if goal <= state else "box"
        lines.append(f'  {sid} [shape={shape} label="{label}"];')
    for src, dst, label in edges:
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class FrozenSpace:
    states: list[frozenset]
    index: dict[frozenset, int]
    transitions: list[list[tuple[str, int, int]]]  # per state: (action, outcome, successor)
    goal_states: set[int]
    deadlock_states: set[int]
    double_adds: list[DoubleAdd]
    actions: dict[str, GroundAction]


def explore(domain: PddlDomain, problem: PddlProblem, limits: Limits | None = None) -> FrozenSpace:
    """BFS over every state reachable from init via every outcome."""
    limits = limits or Limits()
    actions = ground_domain(domain)
    init = frozenset(problem.init)
    goal = frozenset(problem.goal)

    states = [init]
    index = {init: 0}
    transitions: list[list[tuple[str, int, int]]] = [[]]
    goal_states: set[int] = set()
    deadlock_states: set[int] = set()
    double_adds: list[DoubleAdd] = []

    queue = deque([0])
    while queue:
        sidx = queue.popleft()
        state = states[sidx]
        if goal <= state:
            goal_states.add(sidx)
        any_applicable = False
        for action in actions:
            if not applicable(state, action):
                continue
            any_applicable = True
            for oidx, outcome in enumerate(action.outcomes):
                for pred in outcome.adds & state:
                    double_adds.append(DoubleAdd(sidx, action.name, oidx, pred))
                succ = (state - outcome.dels) | outcome.adds
                tidx = index.get(succ)
                if tidx is None:
                    if len(states) >= limits.max_states:
                        raise LimitExceeded(f"more than {limits.max_states} states reachable")
                    tidx = len(states)
                    states.append(succ)
                    index[succ] = tidx
                    transitions.append([])
                    queue.append(tidx)
                transitions[sidx].append((action.name, oidx, tidx))
        if not any_applicable and not (goal <= state):
            deadlock_states.add(sidx)

    return FrozenSpace(
        states=states,
        index=index,
        transitions=transitions,
        goal_states=goal_states,
        deadlock_states=deadlock_states,
        double_adds=double_adds,
        actions={a.name: a for a in actions},
    )


class SExpr:
    __slots__ = ("items", "line", "col")

    def __init__(self, items: list, line: int, col: int):
        self.items = items
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens: list[tuple[str, int, int]] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in "()":
            tokens.append((c, line, col))
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and not text[i].isspace() and text[i] not in "();":
            i += 1
            col += 1
        tokens.append((text[start:i], line, start_col))
    return tokens


def _read(tokens: list[tuple[str, int, int]]) -> SExpr:
    """Read one top-level form, keeping the open forms on an explicit stack."""
    stack: list[SExpr] = []
    for pos, (tok, line, col) in enumerate(tokens):
        if tok == "(":
            stack.append(SExpr([], line, col))
            continue
        if tok == ")":
            if not stack:
                raise PddlSyntaxError("unexpected )", line, col)
            expr = stack.pop()
        else:
            expr = (tok, line, col)
        if stack:
            stack[-1].items.append(expr)
            continue
        if pos + 1 != len(tokens):
            tok, line, col = tokens[pos + 1]
            raise PddlSyntaxError(f"trailing input {tok!r}", line, col)
        if not isinstance(expr, SExpr):
            raise PddlSyntaxError("expected a parenthesized form", line, col)
        return expr
    if stack:
        raise PddlSyntaxError("missing )", stack[-1].line, stack[-1].col)
    raise PddlSyntaxError("unexpected end of input")


def reference_read(text: str) -> SExpr:
    """The tree the original ``parse_pddl`` read from `text`."""
    tokens = _tokenize(text)
    if not tokens:
        raise PddlSyntaxError("empty input")
    return _read(tokens)


class _Misplaced(Exception):
    """A syntax error: its message and the place it names, a token index for
    :func:`read_lists`, a form or a form and the index of one of its items for a
    section reader. :func:`reference_parse_pddl` raises it as a :class:`PddlSyntaxError`
    with the line and column of that place, found only then."""


def read_lists(text: str) -> list:
    """Read the one top-level form of `text` in a single scan.

    ``;`` comments are cut out, then the tokens are the parentheses and the
    whitespace-separated atoms, split at C speed. A form is a plain
    ``list`` and an atom a ``str``: no position is kept, and one is worked
    out from the tree only for an error (:func:`_token_index`). Open forms
    wait on an explicit stack, so deep nesting never recurses. Only
    whitespace and comments may follow the form.
    """
    if ";" in text:
        text = _COMMENT.sub("", text)
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    top: list = []  # the top-level items
    items, parents = top, []
    for tok in tokens:
        if tok == "(":
            form = []
            items.append(form)
            parents.append(items)
            items = form
        elif tok != ")":
            items.append(tok)
        elif parents:
            items = parents.pop()
        else:  # a ")" that closes no form
            break
    else:
        if len(top) == 1 and not parents and isinstance(top[0], list):
            return top[0]
    if len(top) > 1:
        at = _token_index(top, top, 1)
        raise _Misplaced(f"trailing input {tokens[at]!r}", at)
    if parents:
        raise _Misplaced("missing )", _token_index(top, items))
    end = _token_index(top, top, len(top))  # the tokens the top-level items take
    if end < len(tokens):
        raise _Misplaced("trailing input ')'" if top else "unexpected )", end)
    if not top:
        raise PddlSyntaxError("empty input")
    raise _Misplaced("expected a parenthesized form", 0)


def _token_index(items: list, form: list, item: int = -1) -> int:
    """The token index of item `item` of `form`, or of the ``(`` of `form`
    itself when `item` is -1, among the forms `items` read from token 0 on.
    One walk of the tree in token order counts the tokens before it, finding
    `form` by identity; an explicit stack keeps deep nesting from recursing."""
    at, stack = 0, [[items, 0]]  # each open form and the index of its next item
    while True:
        frame = stack[-1]
        node, i = frame
        if node is form and i == max(item, 0):
            return at + min(item, 0)  # the "(" is one token before item 0
        frame[1] = i + 1
        if i == len(node):
            stack.pop()  # its ")"
        elif isinstance(node[i], list):
            stack.append([node[i], 0])
        at += 1


def _sym(item: object, what: str) -> str:
    if isinstance(item, str):
        return item
    raise _Misplaced(f"expected {what}", item)


def _atom(form: list, i: int) -> str:
    """An atom of the subset, item `i` of `form`: a zero-arity predicate like (p)."""
    item = form[i]
    if isinstance(item, list) and len(item) == 1 and isinstance(item[0], str):  # the common (p)
        return item[0]
    if not isinstance(item, list) or not item:
        raise _Misplaced("expected a (predicate) atom", form, i)
    if len(item) > 1:
        raise UnsupportedFeature("predicates with arguments are outside the supported subset")
    return _sym(item[0], "a predicate name")


def reference_parse_pddl(text: str) -> PddlDomain | PddlProblem:
    """Parse a domain or problem in the emitted subset.

    The text is scanned once into a tree of plain lists and strings
    (:func:`read_lists`), which is then checked section by section. The head
    names one domain or problem. No section but ``:action`` may repeat, nor
    may a requirement flag or a predicate within its section. A domain must
    name each action once, declare every predicate it uses and give every
    ``oneof`` an outcome; a problem must have a ``:goal`` and name one
    domain in ``:domain``. Raises :class:`PddlSyntaxError` with the line
    and column of the offending token (for a domain check, of the action's
    form), worked out from the tree and the text only then, or
    :class:`UnsupportedFeature` for constructs outside the subset
    (parameters, conditional effects, numeric fluents, objects, ...).
    """
    tree = None
    try:
        tree = read_lists(text)
        return _parse_define(tree)
    except _Misplaced as exc:
        message, at, *item = exc.args
        if tree is not None:  # a section reader names a form, or a form and one of its items
            at = _token_index([tree], at, *item)
        raise PddlSyntaxError(message, *_position(text, at)) from None


def _parse_define(top: list) -> PddlDomain | PddlProblem:
    if not top or _sym(top[0], "define") != "define":
        raise _Misplaced("expected (define ...)", top)
    if len(top) < 2 or not isinstance(top[1], list) or not top[1]:
        raise _Misplaced("expected (domain NAME) or (problem NAME)", top)
    head = top[1]
    kind = _sym(head[0], "domain or problem")
    if kind == "domain":
        return _parse_domain(top)
    if kind == "problem":
        return _parse_problem(top)
    raise _Misplaced(f"expected domain or problem, got {kind!r}", head)


def _sections(top: list):
    """Each ``(:tag ...)`` section of a ``define`` form: its tag and its form."""
    for i in range(2, len(top)):
        section = top[i]
        if not isinstance(section, list) or not section:
            raise _Misplaced("expected a (:section ...)", top, i)
        yield _sym(section[0], "a section tag"), section


def _parse_domain(top: list) -> PddlDomain:
    head = top[1]
    name = _sym(head[1], "a domain name") if len(head) > 1 else ""
    if not name:
        raise _Misplaced("domain has no name", head)
    if len(head) > 2:
        raise _Misplaced("(domain NAME) takes one name", head)
    requirements: list[str] = []
    types: list[str] = []
    predicates: list[str] = []
    actions: list[PddlAction] = []
    action_forms: list[list] = []
    seen: set[str] = set()
    for tag, section in _sections(top):
        if tag == ":action":
            actions.append(_parse_action(section))
            action_forms.append(section)
            continue
        if tag == ":requirements":
            requirements = _distinct(section, [_sym(b, "a requirement flag") for b in section[1:]], "requirement")
        elif tag == ":types":
            types = [_sym(b, "a type name") for b in section[1:]]
        elif tag == ":predicates":
            predicates = _distinct(section, [_atom(section, i) for i in range(1, len(section))], "predicate")
        elif tag in (":constants", ":functions"):
            raise UnsupportedFeature(f"{tag} is outside the supported subset")
        else:
            raise _Misplaced(f"unknown domain section {tag!r}", section)
        _once(tag, section, seen)
    domain = PddlDomain(
        name=name, requirements=requirements, types=types, predicates=predicates, actions=actions
    )
    _validate_domain(domain, action_forms)
    return domain


def _once(tag: str, section: list, seen: set[str]) -> None:
    """Reject a section whose tag is in `seen`, the tags read before, then add it."""
    if tag in seen:
        raise _Misplaced(f"repeated section {tag!r}", section)
    seen.add(tag)


def _distinct(section: list, names: list[str], what: str) -> list[str]:
    """`names`, read one from each item of `section` after its tag; a name
    given twice is raised at its second item."""
    seen: set[str] = set()
    for i, n in enumerate(names, 1):
        if n in seen:
            raise _Misplaced(f"repeated {what} {n!r}", section, i)
        seen.add(n)
    return names


def _parse_action(section: list) -> PddlAction:
    if len(section) < 2:
        raise _Misplaced("action has no name", section)
    name = _sym(section[1], "an action name")
    precondition: list[str] = []
    effect: EffAnd | None = None
    seen: set[str] = set()
    for i in range(2, len(section), 2):
        key = _sym(section[i], "an action keyword")
        if i + 1 >= len(section):
            raise _Misplaced(f"{key} has no value", section)
        if key in seen:
            raise _Misplaced(f"repeated action keyword {key!r}", section, i)
        seen.add(key)
        if key == ":parameters":
            if not isinstance(section[i + 1], list) or section[i + 1]:
                raise UnsupportedFeature("action parameters are outside the supported subset")
        elif key == ":precondition":
            precondition = _parse_precondition(section, i + 1)
        elif key == ":effect":
            effect = _parse_effect_root(section, i + 1)
        else:
            raise _Misplaced(f"unknown action keyword {key!r}", section)
    if effect is None:
        raise _Misplaced(f"action {name!r} has no effect", section)
    return PddlAction(name=name, precondition=precondition, effect=effect)


def _parse_precondition(form: list, i: int) -> list[str]:
    """The precondition, item `i` of `form`: an atom or an (and ...) of atoms."""
    value = form[i]
    if not isinstance(value, list) or not value:
        raise _Misplaced("expected a precondition", form, i)
    head = value[0]
    if head == "and":
        atoms = []
        for k in range(1, len(value)):
            sub = value[k]
            if isinstance(sub, list) and sub and sub[0] == "not":
                raise UnsupportedFeature("negative preconditions are outside the supported subset")
            atoms.append(_atom(value, k))
        return atoms
    if head == "not":
        raise UnsupportedFeature("negative preconditions are outside the supported subset")
    return [_atom(form, i)]


def _parse_effect_root(form: list, i: int) -> EffAnd:
    tree = _parse_effect(form, i, inside_oneof=False)
    if isinstance(tree, EffAnd):
        return tree
    return EffAnd([tree])


def _parse_effect(form: list, i: int, inside_oneof: bool) -> EffAdd | EffNot | EffAnd | EffOneOf:
    """The effect that is item `i` of `form`."""
    value = form[i]
    if not isinstance(value, list) or not value:
        raise _Misplaced("expected an effect", form, i)
    word = value[0]
    if isinstance(word, str) and word in _UNSUPPORTED_EFFECTS:
        raise UnsupportedFeature(f"({word} ...) effects are outside the supported subset")
    if word == "and":
        # splice nested (and ...) forms into this one, so deep nesting never recurses
        items = []
        todo = [(value, k) for k in range(len(value) - 1, 0, -1)]
        while todo:
            parent, k = todo.pop()
            sub = parent[k]
            if isinstance(sub, list) and len(sub) == 1 and isinstance(sub[0], str) and sub[0] not in _EFFECT_WORDS:
                items.append(EffAdd(sub[0]))  # the common (p), read inline
            elif isinstance(sub, list) and sub and sub[0] == "and":
                todo.extend((sub, j) for j in range(len(sub) - 1, 0, -1))
            else:
                items.append(_parse_effect(parent, k, inside_oneof))
        return EffAnd(items)
    if word == "not":
        if len(value) != 2:
            raise _Misplaced("(not ...) takes one atom", value)
        return EffNot(_atom(value, 1))
    if word == "oneof":
        if inside_oneof:
            raise UnsupportedFeature("nested oneof effects are outside the supported subset")
        outcomes = [_parse_effect(value, k, inside_oneof=True) for k in range(1, len(value))]
        for o in outcomes:
            if isinstance(o, EffOneOf):
                raise UnsupportedFeature("nested oneof effects are outside the supported subset")
        return EffOneOf(outcomes)
    return EffAdd(_atom(form, i))


def _parse_problem(top: list) -> PddlProblem:
    head = top[1]
    name = _sym(head[1], "a problem name") if len(head) > 1 else ""
    if not name:
        raise _Misplaced("problem has no name", head)
    if len(head) > 2:
        raise _Misplaced("(problem NAME) takes one name", head)
    domain_name = ""
    init: list[str] = []
    goal: list[str] | None = None
    seen: set[str] = set()
    for tag, section in _sections(top):
        if tag == ":domain":
            if len(section) != 2:
                raise _Misplaced(":domain takes one name", section)
            domain_name = _sym(section[1], "a domain name")
        elif tag == ":init":
            init = [_atom(section, i) for i in range(1, len(section))]
        elif tag == ":goal":
            if len(section) != 2:
                raise _Misplaced(":goal takes one formula", section)
            goal = _parse_precondition(section, 1)
        elif tag == ":objects":
            raise UnsupportedFeature(":objects is outside the supported subset")
        else:
            raise _Misplaced(f"unknown problem section {tag!r}", section)
        _once(tag, section, seen)
    if goal is None:  # an empty goal would make any problem trivially solved
        raise _Misplaced("problem has no :goal", top)
    return PddlProblem(name=name, domain_name=domain_name, init=init, goal=goal)


def _validate_domain(domain: PddlDomain, action_forms: list[list] | None = None) -> None:
    """Check that each action is named once, declares what it uses and gives
    every ``oneof`` an outcome. With `action_forms`, the form each action
    was read from, a defect is raised at its ``(:action`` form."""

    def defect(message: str, i: int) -> Exception:
        return PddlSyntaxError(message) if action_forms is None else _Misplaced(message, action_forms[i])

    declared = set(domain.predicates)
    named: set[str] = set()
    for i, action in enumerate(domain.actions):
        if action.name in named:  # a policy names its actions
            raise defect(f"action {action.name!r} is defined twice", i)
        named.add(action.name)
        used = list(action.precondition)
        todo = [action.effect]  # an explicit stack, so deep nesting never recurses
        while todo:
            node = todo.pop()
            if isinstance(node, (EffAdd, EffNot)):
                used.append(node.pred)
            elif isinstance(node, EffAnd):
                todo.extend(node.items)
            elif node.outcomes:
                todo.extend(node.outcomes)
            else:  # grounded, it would have no outcome, which a solver reads as a sure win
                raise defect(f"action {action.name!r} has a oneof with no outcomes", i)
        for p in used:
            if p not in declared:
                raise defect(f"action {action.name!r} uses undeclared predicate {p!r}", i)


def _reachable(graph: ProcessGraph, roots: list[str]) -> set[str]:
    """Nodes reachable from `roots` (roots included) along every flow,
    synthetic ones too. One DFS along the flows, O(nodes + flows)."""
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        nid = frontier.pop()
        for fid in graph.outgoing[nid]:
            nxt = graph.flows[fid].target
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _reaching(graph: ProcessGraph, roots: list[str]) -> set[str]:
    """Nodes from which `roots` are reachable (roots included) along every
    flow, synthetic ones too. One DFS against the flows, O(nodes + flows)."""
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        nid = frontier.pop()
        for fid in graph.incoming[nid]:
            nxt = graph.flows[fid].source
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def validate_graph(graph: ProcessGraph) -> list[Diagnostic]:
    """Return structural warnings. An empty list means no findings.

    One forward walk finds the unreachable nodes. A `PotentialDeadlock` is an
    exclusive split two of whose branches reach one parallel join; one
    backward walk per join finds them: O(parallel joins × (nodes + flows))."""
    diagnostics: list[Diagnostic] = []

    reachable = _reachable(graph, [n for starts in graph.start_nodes.values() for n in starts])
    for nid in graph.nodes:
        if nid not in reachable:
            diagnostics.append(
                Diagnostic("Unreachable", (nid,), f"node {nid!r} is unreachable from every start event")
            )

    for nid, node in graph.nodes.items():
        if node.kind not in _GATEWAYS:
            continue
        if len(graph.outgoing[nid]) <= 1 and len(graph.incoming[nid]) <= 1:
            diagnostics.append(
                Diagnostic("DegenerateGateway", (nid,), f"gateway {nid!r} neither splits nor merges")
            )

    # exclusive split whose branches can meet at a parallel join: classic deadlock shape
    exclusive_splits = [
        nid
        for nid, n in graph.nodes.items()
        if n.kind in (NodeKind.EXCLUSIVE_GATEWAY, NodeKind.EVENT_BASED_GATEWAY)
        and len(graph.outgoing[nid]) >= 2
    ]
    parallel_joins = [
        nid
        for nid, n in graph.nodes.items()
        if n.kind is NodeKind.PARALLEL_GATEWAY and len(graph.incoming[nid]) >= 2
    ]
    # one backward walk per join, keeping only the branch targets it meets
    targets = {graph.flows[f].target for split in exclusive_splits for f in graph.outgoing[split]}
    feeds = {join: targets & _reaching(graph, [join]) for join in parallel_joins}
    for split in exclusive_splits:
        for join in parallel_joins:
            if sum(1 for f in graph.outgoing[split] if graph.flows[f].target in feeds[join]) >= 2:
                diagnostics.append(
                    Diagnostic(
                        "PotentialDeadlock",
                        (split, join),
                        f"parallel join {join!r} waits on branches of exclusive split {split!r}",
                    )
                )

    for fid, flow in graph.flows.items():
        if flow.synthetic and graph.nodes[flow.target].kind is NodeKind.START_EVENT:
            diagnostics.append(
                Diagnostic(
                    "MessageIntoStart",
                    (flow.source, flow.target),
                    f"message flow {fid!r} targets start event {flow.target!r}",
                )
            )

    for fid, flow in graph.flows.items():
        if not flow.synthetic and graph.nodes[flow.target].kind is NodeKind.START_EVENT:
            diagnostics.append(
                Diagnostic(
                    "SequenceFlowIntoStart",
                    (flow.source, flow.target),
                    f"sequence flow {fid!r} enters start event {flow.target!r}",
                )
            )

    return diagnostics


def marker(enc, flow_id: str) -> str:
    """The predicate representing a token on the given flow."""
    flow = enc.graph.flows[flow_id]
    src = enc.graph.nodes[flow.source]
    tgt = enc.graph.nodes[flow.target]
    if tgt.kind is NodeKind.START_EVENT:
        return enc.node_pred[flow.target]
    if flow.synthetic:
        return enc.msg[flow_id]
    if src.kind is NodeKind.START_EVENT:
        return enc.node_pred[flow.source]
    if tgt.kind in _GATEWAYS and len(enc.graph.incoming[flow.target]) >= 2:
        return enc.arr[flow_id]
    return enc.node_pred[flow.target]


def match_inclusive_joins(graph: ProcessGraph) -> dict[str, str]:
    """Pair each inclusive join with the nearest inclusive split of its
    pool that dominates it: of the splits that every path from the
    pool's start events passes, the one of greatest BFS depth. A join
    that no split dominates is an :class:`EncodingError`. One `_depths`
    walk per split and per pool holding a join: O((inclusive splits +
    pools) × pool size)."""
    joins: dict[str, list[str]] = {}  # pool -> its inclusive joins, document order
    splits: dict[str, list[str]] = {}
    for nid, node in graph.nodes.items():
        if node.kind is NodeKind.INCLUSIVE_GATEWAY:
            (joins if len(graph.incoming[nid]) >= 2 else splits).setdefault(node.pool, []).append(nid)
    mapping: dict[str, str] = {}
    for pool, pool_joins in joins.items():
        depth = _depths(graph, graph.start_nodes[pool])
        # a join's dominators nest, so the nearest one that dominates it comes last
        for split in sorted((s for s in splits.get(pool, ()) if s in depth), key=depth.__getitem__):
            around = _depths(graph, graph.start_nodes[pool], split)
            mapping.update((join, split) for join in pool_joins if join in depth and join not in around)
    missing = [join for pool_joins in joins.values() for join in pool_joins if join not in mapping]
    if missing:
        raise EncodingError(f"inclusive join {missing[0]!r} has no matching diverging inclusive gateway")
    return mapping


def _depths(graph: ProcessGraph, roots: list[str], avoid: str | None = None) -> dict[str, int]:
    """BFS distance from `roots` along the pool's own sequence flows,
    never entering `avoid`."""
    depth = dict.fromkeys(roots, 0)
    queue = list(roots)
    for nid in queue:
        for fid in graph.normal_outgoing(nid):
            target = graph.flows[fid].target
            if target != avoid and target not in depth:
                depth[target] = depth[nid] + 1
                queue.append(target)
    return depth

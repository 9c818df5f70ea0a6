"""Translate a process graph into a nondeterministic PDDL domain and problems.

Encoding summary: every flow node owns a boolean predicate; control is a
set of marker predicates that actions move around. A start event's marker
is consumed directly by its successor (start events emit no action).
Exclusive and event-based splits branch with ``oneof``; parallel splits
activate every branch; inclusive splits choose a non-empty branch subset
and track how many branches are still active with a one-hot counter
family ``count_<g>_0..n`` that the matching join drains back to zero
before releasing. Converging gateways wait on one arrival predicate per
incoming flow; message interactions synthesized into the graph carry
``msg_*`` predicates from sender to receiver. ``_Encoder`` claims every
predicate name; building the domain then resolves each flow's marker once,
into ``_Encoder.markers``, for the node encodings to look up.
``emit_problems`` claims the names only, since no problem reads a flow's
marker.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import chain, combinations

from .bpmn_parser import _EVENTS, _GATEWAYS, FlowNode, NodeKind, Record
from .process_graph import MessageStrategy, ProcessGraph


class EncodingError(Exception):
    pass


class DoneMode(Enum):
    ANY_END = "any"
    ALL_POOLS = "all"


class EncodeOptions(Record):
    __slots__ = __match_args__ = ("fig4_compat", "done_mode", "allow_spontaneous_start", "max_inclusive_branches")
    def __init__(self, fig4_compat=False, done_mode=DoneMode.ANY_END, allow_spontaneous_start=False,
                 max_inclusive_branches=6):
        self.fig4_compat: bool = fig4_compat
        self.done_mode: DoneMode = done_mode
        self.allow_spontaneous_start: bool = allow_spontaneous_start
        self.max_inclusive_branches: int = max_inclusive_branches


# ---------------------------------------------------------------------------
# PDDL abstract syntax


class EffAdd(Record):
    __slots__ = __match_args__ = ("pred",)
    def __init__(self, pred):
        self.pred: str = pred


class EffNot(Record):
    __slots__ = __match_args__ = ("pred",)
    def __init__(self, pred):
        self.pred: str = pred


class EffAnd(Record):
    __slots__ = __match_args__ = ("items",)
    def __init__(self, items):
        self.items: list[EffAdd | EffNot | EffAnd | EffOneOf] = items


class EffOneOf(Record):
    __slots__ = __match_args__ = ("outcomes",)
    def __init__(self, outcomes):
        self.outcomes: list[EffAdd | EffNot | EffAnd] = outcomes


EffectTree = EffAdd | EffNot | EffAnd | EffOneOf


class PddlAction(Record):
    __slots__ = __match_args__ = ("name", "precondition", "effect")
    def __init__(self, name, precondition, effect):
        self.name: str = name
        self.precondition: list[str] = precondition  # conjunction of positive literals
        self.effect: EffAnd = effect


class PddlDomain(Record):
    __slots__ = __match_args__ = ("name", "requirements", "types", "predicates", "actions")
    def __init__(self, name, requirements, types, predicates, actions):
        self.name: str = name
        self.requirements: list[str] = requirements
        self.types: list[str] = types
        self.predicates: list[str] = predicates
        self.actions: list[PddlAction] = actions


class PddlProblem(Record):
    __slots__ = __match_args__ = ("name", "domain_name", "init", "goal", "variant")
    def __init__(self, name, domain_name, init, goal, variant=""):
        self.name: str = name
        self.domain_name: str = domain_name
        self.init: list[str] = init
        self.goal: list[str] = goal
        self.variant: str = variant


# ---------------------------------------------------------------------------
# Identifier handling

_INVALID_CHARS = re.compile(r"[^A-Za-z0-9_]")
# words the PDDL reader takes as syntax at the head of an effect; no identifier may be one
_UNSUPPORTED_EFFECTS = frozenset({"when", "forall", "exists", "increase", "decrease", "assign", "probabilistic"})
_EFFECT_WORDS = _UNSUPPORTED_EFFECTS | {"and", "not", "oneof"}
_TASK = NodeKind.TASK  # read per node: a module global is far cheaper than an Enum member lookup


def sanitize_id(raw: str, *, lower: bool = False) -> str:
    """Turn arbitrary text into a PDDL identifier.

    Characters outside ``[A-Za-z0-9_]`` become ``_``; a leading digit gains
    the prefix ``n``; a word the reader takes as syntax (``and``, ``not``,
    ``oneof``, ``when``, ...) gains the suffix ``_``. Task-derived action
    names are lowercased, element-id predicates keep their casing.
    """
    if not raw:
        raise ValueError("cannot sanitize an empty identifier")
    if lower:
        raw = raw.lower()
    # most ids are valid already; isalnum alone would accept non-ASCII letters
    out = raw if raw.isascii() and raw.replace("_", "a").isalnum() else _INVALID_CHARS.sub("_", raw)
    if out[0].isdigit():
        out = "n" + out
    elif out in _EFFECT_WORDS:
        out += "_"
    return out


class _NameAllocator:
    """Deterministic collision resolution: repeated names get _2, _3, ..."""

    def __init__(self) -> None:
        self._next: dict[str, int] = {}  # each name taken -> the first suffix not yet tried for it

    def claim(self, name: str) -> str:
        if name not in self._next:
            self._next[name] = 2
            return name
        k = self._next[name]  # the suffixes below it are taken: only more names get taken
        while f"{name}_{k}" in self._next:
            k += 1
        self._next[name] = k + 1
        self._next[final := f"{name}_{k}"] = 2
        return final


# ---------------------------------------------------------------------------
# Encoder


class _Encoder:
    """Claims the predicate names of a graph and encodes its nodes."""

    def __init__(self, graph: ProcessGraph, options: EncodeOptions):
        # each table is filled in graph order, the order the domain declares it in
        self.graph = graph
        self.options = options
        self.preds = _NameAllocator()
        self.action_names = _NameAllocator()

        self.done = self.preds.claim("done")
        self.pool_done: dict[str, str] = {}
        if options.done_mode is DoneMode.ALL_POOLS:
            for pool in graph.pools:
                label = sanitize_id(graph.pool_names[pool], lower=True)
                self.pool_done[pool] = self.preds.claim(f"pool_done_{label}")

        self.node_pred: dict[str, str] = {}
        for nid in graph.nodes:
            self.node_pred[nid] = self.preds.claim(sanitize_id(nid))

        # members and the graph's tables as locals: an Enum member read is a slow class lookup
        nodes, incoming, flows, node_pred = graph.nodes, graph.incoming, graph.flows, self.node_pred
        claim, inclusive, start = self.preds.claim, NodeKind.INCLUSIVE_GATEWAY, NodeKind.START_EVENT
        self.counters: dict[str, list[str]] = {}  # inclusive split -> count_<g>_0..width
        for nid, node in nodes.items():
            if node.kind is not inclusive:
                continue
            if len(incoming[nid]) >= 2:
                continue  # converging side uses the matched split's counter
            width = len(graph.outgoing[nid])
            if width > options.max_inclusive_branches:
                raise EncodingError(
                    f"inclusive gateway {nid!r} has {width} branches; "
                    f"limit is {options.max_inclusive_branches}"
                )
            base = node_pred[nid]
            self.counters[nid] = [claim(f"count_{base}_{k}") for k in range(width + 1)]

        self.arr: dict[tuple[str, int], str] = {}
        for nid, node in nodes.items():
            if node.kind not in _GATEWAYS or len(incoming[nid]) < 2:
                continue
            for i, fid in enumerate(incoming[nid]):
                if nodes[flows[fid].source].kind is start:
                    continue  # the start predicate itself is the arrival marker
                self.arr[(nid, i)] = claim(f"arr_{node_pred[nid]}_{i}")

        self.msg: dict[str, str] = {}
        for fid, flow in flows.items():
            if not flow.synthetic:
                continue
            if nodes[flow.target].kind is start:
                continue  # message-start: the start predicate is the marker
            self.msg[fid] = claim(f"msg_{node_pred[flow.source]}_to_{node_pred[flow.target]}")

    # -- marker resolution ---------------------------------------------------

    def _flow_markers(self) -> dict[str, str]:
        """The predicate a token on each flow sets: the target's start
        predicate, the message, the source's start predicate, a join's
        arrival, else the target's predicate."""
        graph = self.graph
        markers: dict[str, str] = {}
        nodes, node_pred, msg, start = graph.nodes, self.node_pred, self.msg, NodeKind.START_EVENT
        for fid, flow in graph.flows.items():
            if nodes[flow.target].kind is start:
                markers[fid] = node_pred[flow.target]
            elif flow.synthetic:
                markers[fid] = msg[fid]
            elif nodes[flow.source].kind is start:
                markers[fid] = node_pred[flow.source]
            else:
                markers[fid] = node_pred[flow.target]
        for (nid, i), arrival in self.arr.items():  # a join's arrival outranks only the last rule
            fid = graph.incoming[nid][i]
            if not graph.flows[fid].synthetic:  # arr already skips flows from start events
                markers[fid] = arrival
        return markers

    def entry_markers(self, node_id: str) -> list[str]:
        """Markers a node's action consumes, incoming order."""
        return [self.markers[f] for f in self.graph.incoming[node_id]]

    def out_markers(self, node_id: str) -> list[str]:
        """Markers a node's action produces, outgoing order."""
        return [self.markers[f] for f in self.graph.outgoing[node_id]]

    def _match_inclusive_joins(self) -> dict[str, str]:
        """Pair each inclusive join with the nearest inclusive split of its
        pool that dominates it: of the splits that every path from the
        pool's start events passes, the one of greatest BFS depth. A join
        that no split dominates is an :class:`EncodingError`. One `_depths`
        walk per split and per pool holding a join: O((inclusive splits +
        pools) × pool size)."""
        graph = self.graph
        joins: dict[str, list[str]] = {}  # pool -> its inclusive joins, document order
        splits: dict[str, list[str]] = {}
        for nid, node in graph.nodes.items():
            if node.kind is NodeKind.INCLUSIVE_GATEWAY:
                (joins if len(graph.incoming[nid]) >= 2 else splits).setdefault(node.pool, []).append(nid)
        mapping: dict[str, str] = {}
        for pool, pool_joins in joins.items():
            depth = self._depths(graph.start_nodes[pool])
            # a join's dominators nest, so the nearest one that dominates it comes last
            for split in sorted((s for s in splits.get(pool, ()) if s in depth), key=depth.__getitem__):
                around = self._depths(graph.start_nodes[pool], split)
                mapping.update((join, split) for join in pool_joins if join in depth and join not in around)
        missing = [join for pool_joins in joins.values() for join in pool_joins if join not in mapping]
        if missing:
            raise EncodingError(f"inclusive join {missing[0]!r} has no matching diverging inclusive gateway")
        return mapping

    def _depths(self, roots: list[str], avoid: str | None = None) -> dict[str, int]:
        """BFS distance from `roots` along the pool's own sequence flows,
        never entering `avoid`."""
        depth = dict.fromkeys(roots, 0)
        queue = list(roots)
        for nid in queue:
            for fid in self.graph.normal_outgoing(nid):
                target = self.graph.flows[fid].target
                if target != avoid and target not in depth:
                    depth[target] = depth[nid] + 1
                    queue.append(target)
        return depth

    # -- node encodings --------------------------------------------------------

    def encode_node(self, node: FlowNode) -> list[PddlAction]:
        kind = node.kind
        if kind is _TASK:
            return [self._encode_task(node)]
        if kind in _EVENTS:
            action = self._encode_event(node)
            return [action] if action else []
        return self._encode_gateway(node)

    def _encode_task(self, node: FlowNode) -> PddlAction:
        pre = self.entry_markers(node.id)
        if not pre:
            raise EncodingError(f"task {node.id!r} has no incoming flow")
        base_adds = self.out_markers(node.id)
        name = self.action_names.claim(sanitize_id(node.name or node.id, lower=True))

        outcomes: list[list[str]] = [base_adds]
        if self.graph.msg_strategy is MessageStrategy.EXCLUSIVE_EMULATION:
            for target in self.messages_from.get(node.id, ()):
                outcomes.append(base_adds + [self._emulation_trigger(target)])

        dels = [EffNot(p) for p in pre]
        if len(outcomes) == 1:
            effect = EffAnd([*(EffAdd(p) for p in base_adds), *dels])
        else:
            effect = EffAnd([EffOneOf([_outcome(adds) for adds in outcomes]), *dels])
        return PddlAction(name=name, precondition=pre, effect=effect)

    def _emulation_trigger(self, task_id: str) -> str:
        """Entry marker forced true when a task-task message is emulated."""
        normal_in = self.graph.normal_incoming(task_id)
        if normal_in:
            return self.markers[normal_in[0]]
        return self.node_pred[task_id]

    def _encode_event(self, node: FlowNode) -> PddlAction | None:
        if node.kind is NodeKind.START_EVENT:
            if self.options.allow_spontaneous_start:
                name = self.action_names.claim(f"start_{sanitize_id(node.id)}")
                return PddlAction(
                    name=name,
                    precondition=[],
                    effect=EffAnd([EffAdd(self.node_pred[node.id])]),
                )
            return None
        pre = self.entry_markers(node.id)
        name = self.action_names.claim(f"event_{sanitize_id(node.id)}")
        dels = [EffNot(p) for p in pre]
        if node.kind is NodeKind.END_EVENT:
            if self.options.done_mode is DoneMode.ALL_POOLS:
                adds = [EffAdd(self.pool_done[node.pool])]
            else:
                adds = [EffAdd(self.done)]
            return PddlAction(name=name, precondition=pre, effect=EffAnd([*adds, *dels]))
        adds = [EffAdd(p) for p in self.out_markers(node.id)]
        return PddlAction(name=name, precondition=pre, effect=EffAnd([*adds, *dels]))

    def _encode_gateway(self, node: FlowNode) -> list[PddlAction]:
        graph = self.graph
        n_in = len(graph.incoming[node.id])
        n_out = len(graph.outgoing[node.id])
        if n_in >= 2 and n_out >= 2:
            raise EncodingError(
                f"gateway {node.id!r} both converges and diverges; split it into two gateways"
            )
        if n_in >= 2:
            return self._encode_join(node)
        return [self._encode_split(node)]

    def _encode_split(self, node: FlowNode) -> PddlAction:
        graph = self.graph
        entry = self.markers[graph.incoming[node.id][0]]
        succ = self.out_markers(node.id)
        name = self.action_names.claim(f"event_{sanitize_id(node.id)}")

        if node.kind is NodeKind.PARALLEL_GATEWAY:
            effect = EffAnd([*(EffAdd(p) for p in succ), EffNot(entry)])
            return PddlAction(name=name, precondition=[entry], effect=effect)

        if node.kind is NodeKind.INCLUSIVE_GATEWAY:
            count = self.counters[node.id]
            count0, width = count[0], len(count) - 1
            subsets = [list(c) for size in range(1, width + 1) for c in combinations(range(width), size)]
            outcomes = [_outcome([succ[i] for i in subset] + [count[len(subset)]]) for subset in subsets]
            dels = [EffNot(entry), EffNot(count0)]
            if len(outcomes) == 0:
                effect = EffAnd([EffNot(entry)])
            elif len(outcomes) == 1:
                effect = EffAnd([*_outcome_items(outcomes[0]), *dels])
            else:
                effect = EffAnd([EffOneOf(outcomes), *dels])
            return PddlAction(name=name, precondition=[entry, count0], effect=effect)

        # ExclusiveGateway and EventBasedGateway share the oneof encoding
        if len(succ) <= 1:
            effect = EffAnd([*(EffAdd(p) for p in succ), EffNot(entry)])
        else:
            effect = EffAnd([EffOneOf([EffAdd(p) for p in succ]), EffNot(entry)])
        return PddlAction(name=name, precondition=[entry], effect=effect)

    def _encode_join(self, node: FlowNode) -> list[PddlAction]:
        graph = self.graph
        base = sanitize_id(node.id)
        markers = self.entry_markers(node.id)
        succ = self.out_markers(node.id)
        succ_adds = [EffAdd(p) for p in succ]

        if node.kind is NodeKind.PARALLEL_GATEWAY:
            name = self.action_names.claim(f"event_{base}")
            effect = EffAnd([*succ_adds, *(EffNot(m) for m in markers)])
            return [PddlAction(name=name, precondition=list(markers), effect=effect)]

        if node.kind is NodeKind.INCLUSIVE_GATEWAY:
            count = self.counters[self.join_split[node.id]]
            own = self.node_pred[node.id]
            actions: list[PddlAction] = []
            for i, m in enumerate(markers):
                for k in range(1, len(count)):
                    name = self.action_names.claim(f"event_{base}_{i}_{k}")
                    adds: list[EffAdd | EffNot] = [EffAdd(count[k - 1])]
                    if k == 1:
                        adds.append(EffAdd(own))
                    effect = EffAnd([*adds, EffNot(m), EffNot(count[k])])
                    actions.append(PddlAction(name=name, precondition=[m, count[k]], effect=effect))
            release = self.action_names.claim(f"event_{base}")
            actions.append(
                PddlAction(
                    name=release,
                    precondition=[count[0], own],
                    effect=EffAnd([*succ_adds, EffNot(own)]),
                )
            )
            return actions

        # exclusive / event-based merge: one pass-through action per branch
        actions = []
        for i, m in enumerate(markers):
            name = self.action_names.claim(f"event_{base}_{i}")
            effect = EffAnd([*succ_adds, EffNot(m)])
            actions.append(PddlAction(name=name, precondition=[m], effect=effect))
        return actions

    # -- assembly ---------------------------------------------------------------

    def declared_predicates(self) -> list[str]:
        counts = chain.from_iterable(self.counters.values())
        return [*self.node_pred.values(), self.done, *self.pool_done.values(), *counts, *self.arr.values(),
                *self.msg.values()]

    def domain(self) -> PddlDomain:
        # the tables only actions read
        self.markers = self._flow_markers()
        self.messages_from: dict[str, list[str]] = {}  # task -> targets of its task-task messages, document order
        for msg in self.graph.task_task_messages:
            self.messages_from.setdefault(msg.source, []).append(msg.target)
        self.join_split = self._match_inclusive_joins()
        actions: list[PddlAction] = []
        for node in self.graph.nodes.values():
            actions.extend(self.encode_node(node))
        if self.options.done_mode is DoneMode.ALL_POOLS:
            name = self.action_names.claim("finish_process")
            actions.append(
                PddlAction(
                    name=name,
                    precondition=[self.pool_done[p] for p in self.graph.pools],
                    effect=EffAnd([EffAdd(self.done)]),
                )
            )
        requirements = [":strips", ":typing"]
        if not self.options.fig4_compat:
            requirements.append(":non-deterministic")
        return PddlDomain(
            name=sanitize_id(self.graph.source_name, lower=True),
            requirements=requirements,
            types=["task", "event", "gateway"],
            predicates=self.declared_predicates(),
            actions=actions,
        )


def _outcome(adds: list[str]) -> EffAdd | EffAnd:
    if len(adds) == 1:
        return EffAdd(adds[0])
    return EffAnd([EffAdd(p) for p in adds])


def _outcome_items(outcome: EffAdd | EffAnd) -> list:
    return outcome.items if isinstance(outcome, EffAnd) else [outcome]


# ---------------------------------------------------------------------------
# Public operations


def emit_domain(graph: ProcessGraph, options: EncodeOptions | None = None) -> PddlDomain:
    return _Encoder(graph, options or EncodeOptions()).domain()


def emit_problems(graph: ProcessGraph, options: EncodeOptions | None = None) -> list[PddlProblem]:
    """The paper's problem variants: all pools started, one pool started
    (per pool), and optionally the empty bootstrap variant."""
    options = options or EncodeOptions()
    enc = _Encoder(graph, options)  # the names only: no problem reads a flow's marker
    node_pred, start = enc.node_pred, NodeKind.START_EVENT
    zeros = [count[0] for count in enc.counters.values()]
    # (sender's start predicate, marker) of each message a start event sends;
    # a message-start's marker is its own start predicate
    start_messages = [
        (node_pred[flow.source], enc.msg.get(fid) or node_pred[flow.target])
        for fid, flow in graph.flows.items()
        if flow.synthetic and graph.nodes[flow.source].kind is start
    ]
    domain_name = sanitize_id(graph.source_name, lower=True)
    goal = [enc.done]

    def make(variant: str, start_preds: list[str]) -> PddlProblem:
        init = [*start_preds, *zeros]
        for sender, marker in start_messages:  # available whenever its sender starts
            if sender in init and marker not in init:
                init.append(marker)
        return PddlProblem(f"{domain_name}_{variant}", domain_name, init, goal, variant)

    problems: list[PddlProblem] = []
    if options.allow_spontaneous_start:
        problems.append(make("empty", []))

    all_problem = make("all_starts", [node_pred[nid] for pool in graph.pools for nid in graph.start_nodes[pool]])
    problems.append(all_problem)

    labels = _NameAllocator()
    for pool in graph.pools:
        label = labels.claim(sanitize_id(graph.pool_names[pool], lower=True))
        prob = make(f"prestarted_{label}", [node_pred[nid] for nid in graph.start_nodes[pool]])
        if set(prob.init) == set(all_problem.init):
            continue  # single-pool case collapses onto all_starts
        problems.append(prob)
    return problems


# ---------------------------------------------------------------------------
# Rendering


def render_pddl(obj: PddlDomain | PddlProblem) -> str:
    if isinstance(obj, PddlDomain):
        return _render_domain(obj)
    return _render_problem(obj)


def _render_domain(domain: PddlDomain) -> str:
    lines = [f"(define (domain {domain.name})"]
    lines.append(f"  (:requirements {' '.join(domain.requirements)})")
    lines.append(f"  (:types {' '.join(domain.types)})")
    lines.append("  (:predicates")
    for pred in domain.predicates:
        lines.append(f"    ({pred})")
    lines.append("  )")
    for action in domain.actions:
        lines.append(f"  (:action {action.name}")
        pre = action.precondition
        lines.append("    :precondition (and (" + ") (".join(pre) + "))" if pre else "    :precondition (and)")
        lines.extend(_render_effect(action.effect))
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _render_effect(effect: EffAnd) -> list[str]:
    parts = []
    for item in effect.items:  # leaves by exact type; a subclass takes the general path
        if type(item) is EffAdd:
            parts.append(f"({item.pred})")
        elif type(item) is EffNot:
            parts.append(f"(not ({item.pred}))")
        elif isinstance(item, EffOneOf):
            break
        else:
            parts.append(_inline(item))
    else:
        return [f"    :effect (and {' '.join(parts)})"]
    lines = ["    :effect (and"]
    for idx, item in enumerate(effect.items):
        last = idx == len(effect.items) - 1
        suffix = ")" if last else ""
        if isinstance(item, EffOneOf):
            lines.append("      (oneof")
            for oidx, outcome in enumerate(item.outcomes):
                close = ")" if oidx == len(item.outcomes) - 1 else ""
                lines.append(f"        {_inline(outcome)}{close}{suffix if oidx == len(item.outcomes) - 1 else ''}")
        else:
            lines.append(f"      {_inline(item)}{suffix}")
    return lines


def _inline(item: EffectTree) -> str:
    if isinstance(item, EffAdd):
        return f"({item.pred})"
    if isinstance(item, EffNot):
        return f"(not ({item.pred}))"
    parts: list[str] = []
    todo: list[EffectTree | str] = [item]  # an explicit stack, so deep nesting never recurses
    while todo:
        node = todo.pop()
        if isinstance(node, (EffAnd, EffOneOf)):
            head, kids = ("and", node.items) if isinstance(node, EffAnd) else ("oneof", node.outcomes)
            spaced = [x for kid in kids for x in (" ", kid)][1:]
            todo.extend(reversed([f"({head} ", *spaced, ")"]))
        else:
            parts.append(node if isinstance(node, str) else _inline(node))  # text, or a leaf
    return "".join(parts)


def _render_problem(problem: PddlProblem) -> str:
    init = " ".join(f"({p})" for p in problem.init)
    goal = " ".join(f"({p})" for p in problem.goal)
    lines = [
        f"(define (problem {problem.name})",
        f"  (:domain {problem.domain_name})",
        f"  (:init {init})" if init else "  (:init)",
        f"  (:goal (and {goal}))",
        ")",
    ]
    return "\n".join(lines) + "\n"

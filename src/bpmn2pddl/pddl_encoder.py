"""Translate a process graph into a nondeterministic PDDL domain and problems.

Encoding summary: every flow node owns a boolean predicate; control is a
set of marker predicates that actions move around. A start event's marker
is consumed directly by its successor (start events emit no action).
Exclusive and event-based splits branch with ``oneof``; parallel splits
activate every branch; inclusive splits choose a non-empty branch subset
and track how many branches are still active with a one-hot counter
family ``count_<g>_0..n`` that the matching join drains back to zero
before releasing. Converging gateways wait on one arrival predicate per
incoming sequence flow. Message interactions synthesized into the graph,
an end event's included, carry ``msg_*`` predicates from sender to
receiver; a join waits on a message through its ``msg_*`` predicate.
``_Encoder.__init__`` claims every predicate name and builds every table
the encodings read, each once: ``markers``, the predicate a token on each
flow sets, which the node encodings, the problems and message emulation
all read; ``messages_from``, the markers each emulated message adds; and
``join_split``, each inclusive join's split, found in one dominator pass
per pool, O(pool). One encoder serves the domain and its problems
(``emit_pddl``), and sanitizes each name text once. Every action is built
by ``_Encoder._action``, which claims its name and decides its effect's
shape.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import chain, combinations, islice

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
# read per node or flow: a module global is far cheaper than an Enum member lookup
_TASK, _START = NodeKind.TASK, NodeKind.START_EVENT


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
    raw = raw.replace(" ", "_")  # task names hold spaces: replaced here, they need no regex pass
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
    """Claims the predicate names of a graph, builds the tables its
    encodings read, and encodes its nodes."""

    def __init__(self, graph: ProcessGraph, options: EncodeOptions):
        if not graph.source_name:  # the domain and its problems are named after it
            raise EncodingError("the diagram name is empty ('')")
        # each table is filled in graph order, the order the domain declares it in
        self.graph = graph
        self.options = options
        self.preds = _NameAllocator()
        self.action_names = _NameAllocator()

        self.stems: dict[str, str] = {}  # text -> its lowercased identifier (_stem)
        self.done = self.preds.claim("done")
        self.pool_done: dict[str, str] = {}
        if options.done_mode is DoneMode.ALL_POOLS:
            for pool in graph.pools:
                self.pool_done[pool] = self.preds.claim(f"pool_done_{self._stem(graph.pool_names[pool])}")

        self.node_label: dict[str, str] = {nid: sanitize_id(nid) for nid in graph.nodes}  # its actions' name stem
        self.node_pred: dict[str, str] = {nid: self.preds.claim(label) for nid, label in self.node_label.items()}

        # members and the graph's tables as locals: an Enum member read is a slow class lookup
        nodes, incoming, flows, node_pred = graph.nodes, graph.incoming, graph.flows, self.node_pred
        claim, inclusive = self.preds.claim, NodeKind.INCLUSIVE_GATEWAY
        self.counters: dict[str, list[str]] = {}  # inclusive split -> count_<g>_0..width
        joins: dict[str, list[str]] = {}  # pool -> its inclusive joins, document order
        for nid, node in nodes.items():
            if node.kind is not inclusive:
                continue
            if len(incoming[nid]) >= 2:  # converging side uses the matched split's counter
                joins.setdefault(node.pool, []).append(nid)
                continue
            width = len(graph.outgoing[nid])
            if width > options.max_inclusive_branches:
                raise EncodingError(
                    f"inclusive gateway {nid!r} has {width} branches; "
                    f"limit is {options.max_inclusive_branches}"
                )
            base = node_pred[nid]
            self.counters[nid] = [claim(f"count_{base}_{k}") for k in range(width + 1)]

        self.arr: dict[str, str] = {}  # a join's incoming sequence flow from a non-start node -> its arrival
        for nid, node in nodes.items():
            if node.kind not in _GATEWAYS or len(incoming[nid]) < 2:
                continue
            for i, fid in enumerate(incoming[nid]):
                flow = flows[fid]
                if not flow.synthetic and nodes[flow.source].kind is not _START:
                    self.arr[fid] = claim(f"arr_{node_pred[nid]}_{i}")

        # flow -> the predicate a token on it sets: a start event target's own predicate, else the
        # flow's message, else its join arrival, else a start event source's predicate, else the target's
        self.msg: dict[str, str] = {}
        self.markers: dict[str, str] = {}
        for fid, flow in flows.items():
            source, target = flow.source, flow.target
            if nodes[target].kind is _START:  # a message-start's marker is its start
                self.markers[fid] = node_pred[target]
            elif flow.synthetic:
                self.markers[fid] = self.msg[fid] = claim(f"msg_{node_pred[source]}_to_{node_pred[target]}")
            else:
                self.markers[fid] = self.arr.get(fid) or node_pred[source if nodes[source].kind is _START else target]

        # task -> what each of its emulated messages adds, document order: the marker of the receiving
        # task's first incoming flow, a sequence flow first
        self.messages_from: dict[str, list[str]] = {}
        if graph.msg_strategy is MessageStrategy.EXCLUSIVE_EMULATION:
            for msg in graph.task_task_messages:
                entry = (graph.normal_incoming(msg.target) or incoming[msg.target])[0]
                self.messages_from.setdefault(msg.source, []).append(self.markers[entry])
        self.join_split = self._match_inclusive_joins(joins)  # inclusive join -> its split

    def _stem(self, raw: str) -> str:
        """``sanitize_id(raw, lower=True)``, computed once per text: task
        names repeat, and pool and diagram names serve domain and problems."""
        stem = self.stems.get(raw)
        if stem is None:
            stem = self.stems[raw] = sanitize_id(raw, lower=True)
        return stem

    # -- marker lookup ----------------------------------------------------------

    def entry_markers(self, node_id: str) -> list[str]:
        """Markers a node's action consumes, incoming order."""
        return [self.markers[f] for f in self.graph.incoming[node_id]]

    def out_markers(self, node_id: str) -> list[str]:
        """Markers a node's action produces, outgoing order."""
        return [self.markers[f] for f in self.graph.outgoing[node_id]]

    def _match_inclusive_joins(self, joins: dict[str, list[str]]) -> dict[str, str]:
        """Pair each inclusive join of `joins` (pool -> its joins) with the
        nearest inclusive split, a key of ``counters``, that dominates it along
        its pool's own sequence flows (none leaves the pool, so the splits
        reached are the pool's); a join with none, or unreached, is an
        :class:`EncodingError`. One pass per pool holding a join, O(pool size)
        but for the few sweeps Cooper, Harvey & Kennedy's iteration ("A simple,
        fast dominance algorithm", 2001) takes to settle: number the nodes
        breadth first from a virtual root 0 over the start events (a strict
        dominator is on every shortest path, so numbered first), iterate from
        the BFS tree, then give each node its nearest split on its dominator
        chain."""
        graph, splits = self.graph, self.counters
        outgoing, flows = graph.outgoing, graph.flows
        mapping: dict[str, str] = {}
        for pool, pool_joins in joins.items():
            order = [None, *dict.fromkeys(graph.start_nodes[pool])]  # breadth-first; 0 is the virtual root
            index = {nid: v for v, nid in enumerate(order)}
            preds = [[0] for _ in order]  # by number, the BFS parent first; a start event's parent is the root
            for u, nid in islice(enumerate(order), 1, None):
                for fid in outgoing[nid]:
                    flow = flows[fid]
                    if flow.synthetic:
                        continue
                    v = index.get(flow.target)
                    if v is None:
                        index[flow.target] = len(order)
                        order.append(flow.target)
                        preds.append([u])
                    else:
                        preds[v].append(u)
            idom = [ps[0] for ps in preds]  # the BFS tree, then the immediate dominators
            merges = [v for v, ps in enumerate(preds) if len(ps) > 1]  # a lone predecessor is the dominator
            changed = True
            while changed:
                changed = False
                for v in merges:
                    ps = preds[v]
                    new = ps[0]  # the BFS parent: the nearest common ancestor is numbered below v
                    for p in ps:  # the nearest common ancestor in the current tree, found by number
                        while p != new:
                            while p > new:
                                p = idom[p]
                            while new > p:
                                new = idom[new]
                    changed |= idom[v] != new
                    idom[v] = new
            near = [None] * len(order)  # the nearest split on each node's dominator chain, itself included
            for v in range(1, len(order)):
                near[v] = order[v] if order[v] in splits else near[idom[v]]
            for join in pool_joins:
                split = near[idom[index.get(join, 0)]]  # an unreached join takes the root's: none
                if split is None:
                    raise EncodingError(f"inclusive join {join!r} has no matching diverging inclusive gateway")
                mapping[join] = split
        return mapping

    # -- node encodings --------------------------------------------------------

    def encode_node(self, node: FlowNode) -> list[PddlAction]:
        kind = node.kind
        if kind is _TASK:
            return [self._encode_task(node)]
        if kind in _EVENTS:
            action = self._encode_event(node)
            return [action] if action else []
        return self._encode_gateway(node)

    def _action(self, name: str, pre: list[str], outcomes: list[list[str]], dels: list[str]) -> PddlAction:
        """Claim `name` and build its action: the adds of one outcome inline
        (of none, no adds), of several a ``oneof``, then the deletes."""
        if len(outcomes) > 1:
            oneof = [EffAdd(adds[0]) if len(adds) == 1 else EffAnd(list(map(EffAdd, adds))) for adds in outcomes]
            items = [EffOneOf(oneof)]
        else:
            items = list(map(EffAdd, outcomes[0])) if outcomes else []
        items += map(EffNot, dels)
        return PddlAction(self.action_names.claim(name), pre, EffAnd(items))

    def _encode_task(self, node: FlowNode) -> PddlAction:
        pre = self.entry_markers(node.id)
        if not pre:
            raise EncodingError(f"task {node.id!r} has no incoming flow")
        adds = self.out_markers(node.id)
        outcomes = [adds]
        if node.id in self.messages_from:  # one more outcome per message the task sends
            outcomes += [[*adds, sent] for sent in self.messages_from[node.id]]
        return self._action(self._stem(node.name or node.id), pre, outcomes, pre)

    def _encode_event(self, node: FlowNode) -> PddlAction | None:
        if node.kind is _START:
            if self.options.allow_spontaneous_start:
                return self._action(f"start_{self.node_label[node.id]}", [], [[self.node_pred[node.id]]], [])
            return None
        pre = self.entry_markers(node.id)
        if node.kind is NodeKind.END_EVENT:  # the process's or its pool's end, and the messages it sends
            done = self.pool_done[node.pool] if self.options.done_mode is DoneMode.ALL_POOLS else self.done
            flows = self.graph.flows
            adds = [done, *(self.markers[f] for f in self.graph.outgoing[node.id] if flows[f].synthetic)]
        else:
            adds = self.out_markers(node.id)
        return self._action(f"event_{self.node_label[node.id]}", pre, [adds], pre)

    def _encode_gateway(self, node: FlowNode) -> list[PddlAction]:
        graph = self.graph
        n_in = len(graph.incoming[node.id])
        n_out = len(graph.outgoing[node.id])
        if n_in >= 2 and n_out >= 2:
            raise EncodingError(f"gateway {node.id!r} both converges and diverges; split it into two gateways")
        if n_in >= 2:
            return self._encode_join(node)
        return [self._encode_split(node)]

    def _encode_split(self, node: FlowNode) -> PddlAction:
        entry = self.markers[self.graph.incoming[node.id][0]]
        succ = self.out_markers(node.id)
        name = f"event_{self.node_label[node.id]}"
        if node.kind is NodeKind.PARALLEL_GATEWAY:
            return self._action(name, [entry], [succ], [entry])
        if node.kind is NodeKind.INCLUSIVE_GATEWAY:
            # one outcome per non-empty branch subset, which also moves the counter to the subset's size
            count = self.counters[node.id]
            width = len(count) - 1
            outcomes = [[*(succ[i] for i in subset), count[size]]
                        for size in range(1, width + 1) for subset in combinations(range(width), size)]
            # with no branch there is no outcome, and the counter is left as it is
            return self._action(name, [entry, count[0]], outcomes, [entry, count[0]] if width else [entry])
        # ExclusiveGateway and EventBasedGateway: one outcome per branch
        return self._action(name, [entry], [[p] for p in succ], [entry])

    def _encode_join(self, node: FlowNode) -> list[PddlAction]:
        base = f"event_{self.node_label[node.id]}"
        markers = self.entry_markers(node.id)
        succ = self.out_markers(node.id)

        if node.kind is NodeKind.PARALLEL_GATEWAY:
            return [self._action(base, markers, [succ], markers)]

        if node.kind is NodeKind.INCLUSIVE_GATEWAY:
            # an arrival moves the counter down one; the last one also marks the join, which releases it
            count = self.counters[self.join_split[node.id]]
            own = self.node_pred[node.id]
            actions = []
            for i, m in enumerate(markers):
                for k in range(1, len(count)):
                    adds = [count[0], own] if k == 1 else [count[k - 1]]
                    actions.append(self._action(f"{base}_{i}_{k}", [m, count[k]], [adds], [m, count[k]]))
            actions.append(self._action(base, [count[0], own], [succ], [own]))
            return actions

        # exclusive / event-based merge: one pass-through action per branch
        return [self._action(f"{base}_{i}", [m], [succ], [m]) for i, m in enumerate(markers)]

    # -- assembly ---------------------------------------------------------------

    def declared_predicates(self) -> list[str]:
        counts = chain.from_iterable(self.counters.values())
        return [*self.node_pred.values(), self.done, *self.pool_done.values(), *counts, *self.arr.values(),
                *self.msg.values()]

    def domain(self) -> PddlDomain:
        actions: list[PddlAction] = []
        for node in self.graph.nodes.values():
            actions.extend(self.encode_node(node))
        if self.options.done_mode is DoneMode.ALL_POOLS:
            pools_done = [self.pool_done[p] for p in self.graph.pools]
            actions.append(self._action("finish_process", pools_done, [[self.done]], []))
        requirements = [":strips", ":typing"]
        if not self.options.fig4_compat:
            requirements.append(":non-deterministic")
        return PddlDomain(
            name=self._stem(self.graph.source_name),
            requirements=requirements,
            types=["task", "event", "gateway"],
            predicates=self.declared_predicates(),
            actions=actions,
        )

    def problems(self) -> list[PddlProblem]:
        """The paper's problem variants: all pools started, one pool started
        (per pool), and optionally the empty bootstrap variant. They read
        the names, and the markers of the messages start events send."""
        graph, node_pred = self.graph, self.node_pred
        zeros = [count[0] for count in self.counters.values()]
        start_messages = [  # (sender's start predicate, marker) of each message a start event sends
            (node_pred[flow.source], self.markers[fid])
            for fid, flow in graph.flows.items()
            if flow.synthetic and graph.nodes[flow.source].kind is _START
        ]
        domain_name = self._stem(graph.source_name)
        goal = [self.done]

        def make(variant: str, start_preds: list[str]) -> PddlProblem:
            init = [*start_preds, *zeros]
            for sender, marker in start_messages:  # available whenever its sender starts
                if sender in init and marker not in init:
                    init.append(marker)
            return PddlProblem(f"{domain_name}_{variant}", domain_name, init, goal, variant)

        problems: list[PddlProblem] = []
        if self.options.allow_spontaneous_start:
            problems.append(make("empty", []))

        all_problem = make("all_starts", [node_pred[nid] for pool in graph.pools for nid in graph.start_nodes[pool]])
        problems.append(all_problem)

        labels = _NameAllocator()
        for pool in graph.pools:
            label = labels.claim(self._stem(graph.pool_names[pool]))
            prob = make(f"prestarted_{label}", [node_pred[nid] for nid in graph.start_nodes[pool]])
            if set(prob.init) == set(all_problem.init):
                continue  # single-pool case collapses onto all_starts
            problems.append(prob)
        return problems


# ---------------------------------------------------------------------------
# Public operations


def emit_pddl(graph: ProcessGraph, options: EncodeOptions | None = None) -> tuple[PddlDomain, list[PddlProblem]]:
    """:func:`emit_domain` and :func:`emit_problems` from one encoder, which
    claims the names and sanitizes each text once for both."""
    enc = _Encoder(graph, options or EncodeOptions())
    return enc.domain(), enc.problems()


def emit_domain(graph: ProcessGraph, options: EncodeOptions | None = None) -> PddlDomain:
    return _Encoder(graph, options or EncodeOptions()).domain()


def emit_problems(graph: ProcessGraph, options: EncodeOptions | None = None) -> list[PddlProblem]:
    """The paper's problem variants (:meth:`_Encoder.problems`)."""
    return _Encoder(graph, options or EncodeOptions()).problems()


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
    last = len(effect.items) - 1
    for idx, item in enumerate(effect.items):
        suffix = ")" if idx == last else ""
        if isinstance(item, EffOneOf):
            lines.append("      (oneof")
            outcomes = [f"        {_inline(outcome)}" for outcome in item.outcomes]
            if outcomes:
                outcomes[-1] += ")" + suffix
            lines += outcomes
        else:
            lines.append(f"      {_inline(item)}{suffix}")
    return lines


def _inline(item: EffectTree) -> str:
    """`item` on one line. A leaf, or an ``(and ...)`` of leaves by exact
    type, takes one join; only deeper nesting takes an explicit stack."""
    if type(item) is EffAnd:
        parts: list[str] = []
        for x in item.items:
            if type(x) is EffAdd:
                parts.append(f"({x.pred})")
            elif type(x) is EffNot:
                parts.append(f"(not ({x.pred}))")
            else:
                break
        else:
            return f"(and {' '.join(parts)})"
    elif isinstance(item, EffAdd):
        return f"({item.pred})"
    elif isinstance(item, EffNot):
        return f"(not ({item.pred}))"
    parts = []
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

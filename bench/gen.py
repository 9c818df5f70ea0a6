"""Seeded BPMN generators for the benchmark.

Each generator returns a :class:`Diagram`: the BPMN XML text the program
reads, plus the answers the program must give for it. The answers come from
the generator's own structure (closed forms, or for message-coupled pools a
small search over token positions), never from the code under test.

The seed picks element ids, task names, pool names and the order of
elements in the XML. The shape of a diagram (its blocks, their sizes and the
message endpoints) is fixed by the caller's parameters, so two seeds give
the program the same amount of work.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass, field
from xml.sax.saxutils import quoteattr

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"

# Every task name sorts after "event_", the prefix of every non-task action.
# The policy's lexicographic tie-break therefore always prefers events, which
# makes the policy shape, and so its size, independent of the seed.
_VERBS = ["file", "grant", "handle", "inspect", "log", "notify", "pack", "quote",
          "rate", "review", "ship", "sign", "update", "verify", "weigh", "write"]
_OBJECTS = ["claim", "order", "invoice", "parcel", "request", "score", "report",
            "refund", "ticket", "offer", "contract", "payment"]
_POOL_NAMES = ["Customer", "Shop", "Bank", "Carrier", "Insurer", "Warehouse",
               "Supplier", "Auditor"]


@dataclass
class Variant:
    """What ``check`` must print for one problem variant."""

    states: int
    deadlocks: int
    strong: str  # "yes" | "no" | "-"
    strong_cyclic: str
    policy_size: int | None  # None: only 1 <= size <= states is checked


@dataclass
class Diagram:
    stem: str
    xml: str
    # translate answers
    actions: int = 0
    predicates: int = 0
    problems: int = 0
    # check answers, keyed by problem name
    variants: dict[str, Variant] = field(default_factory=dict)
    args: tuple[str, ...] = ()  # extra command-line flags


@dataclass
class _Pool:
    id: str
    name: str
    nodes: list[tuple[str, str, str | None]] = field(default_factory=list)  # (tag, id, name)
    flows: list[tuple[str, str, str]] = field(default_factory=list)  # (id, source, target)


class _Canvas:
    """Accumulates a diagram and the action/predicate counts the encoder
    must produce for it under the ``any`` done mode."""

    def __init__(self, rng: random.Random, stem: str, shape: random.Random | None = None):
        self.rng = rng  # names, ids, element order
        self.shape = shape or rng  # block structure
        self.stem = stem
        self.pools: list[_Pool] = []
        self.messages: list[tuple[str, str, str]] = []
        self._ids: set[str] = set()
        self.n_nodes = 0
        self.actions = 0
        self.predicates = 1  # (done)
        self.tasks: list[list[str]] = []  # per pool
        self.catch_events: list[list[str]] = []  # per pool, message receivers
        self.or_used = False

    def _id(self, prefix: str) -> str:
        while True:
            ident = f"{prefix}_{self.rng.getrandbits(28):07x}"
            if ident not in self._ids:
                self._ids.add(ident)
                return ident

    def pool(self) -> int:
        taken = {p.name for p in self.pools}
        name = self.rng.choice([n for n in _POOL_NAMES if n not in taken])
        self.pools.append(_Pool(self._id("Process"), name))
        self.tasks.append([])
        self.catch_events.append([])
        return len(self.pools) - 1

    def node(self, p: int, tag: str, actions: int, name: str | None = None) -> str:
        prefix = {"task": "Activity", "startEvent": "StartEvent", "endEvent": "EndEvent",
                  "intermediateCatchEvent": "Event"}.get(tag, "Gateway")
        nid = self._id(prefix)
        self.pools[p].nodes.append((tag, nid, name))
        self.n_nodes += 1
        self.predicates += 1
        self.actions += actions
        return nid

    def flow(self, p: int, source: str, target: str) -> None:
        self.pools[p].flows.append((self._id("Flow"), source, target))

    def task(self, p: int) -> str:
        name = f"{self.rng.choice(_VERBS)} {self.rng.choice(_OBJECTS)}"
        nid = self.node(p, "task", 1, name)
        self.tasks[p].append(nid)
        return nid

    def chain(self, p: int, n: int) -> tuple[str, str]:
        ids = [self.task(p) for _ in range(n)]
        for a, b in zip(ids, ids[1:]):
            self.flow(p, a, b)
        return ids[0], ids[-1]

    def block(self, p: int, kind: str, branches: list[tuple[str, str]]) -> tuple[str, str]:
        """Wrap branches (first, last) in a split/join pair of one kind."""
        k = len(branches)
        tag = {"xor": "exclusiveGateway", "and": "parallelGateway", "or": "inclusiveGateway"}[kind]
        split = self.node(p, tag, 1)
        join_actions = {"xor": k, "and": 1, "or": k * k + 1}[kind]
        join = self.node(p, tag, join_actions)
        self.predicates += k  # one arrival marker per join input
        if kind == "or":
            self.predicates += k + 1  # one-hot counter count_0 .. count_k
        for first, last in branches:
            self.flow(p, split, first)
            self.flow(p, last, join)
        return split, join

    def loop(self, p: int, body: tuple[str, str]) -> tuple[str, str]:
        """Retry loop: merge -> body -> decision, which exits or goes back."""
        merge = self.node(p, "exclusiveGateway", 2)
        decide = self.node(p, "exclusiveGateway", 1)
        self.predicates += 2  # arrival markers of the merge
        self.flow(p, merge, body[0])
        self.flow(p, body[1], decide)
        self.flow(p, decide, merge)
        return merge, decide

    def message(self, source: str, target: str, to_event: bool) -> None:
        self.messages.append((self._id("MessageFlow"), source, target))
        if to_event:
            self.predicates += 1  # msg_<src>_to_<tgt>

    def xml(self) -> str:
        out = [f'<?xml version="1.0" encoding="UTF-8"?>',
               f'<bpmn:definitions xmlns:bpmn="{BPMN_NS}" id="Definitions_{self.stem}" '
               f'targetNamespace="http://example.com/bpmn">',
               f'  <bpmn:collaboration id="Collaboration_{self.stem}">']
        for pool in self.pools:
            out.append(f'    <bpmn:participant id="Participant_{pool.id}" name={quoteattr(pool.name)} '
                       f'processRef="{pool.id}"/>')
        for mid, src, tgt in self.messages:
            out.append(f'    <bpmn:messageFlow id="{mid}" sourceRef="{src}" targetRef="{tgt}"/>')
        out.append("  </bpmn:collaboration>")
        for pool in self.pools:
            out.append(f'  <bpmn:process id="{pool.id}" name={quoteattr(pool.name)}>')
            elements = [
                f'    <bpmn:{tag} id="{nid}"' + (f" name={quoteattr(name)}" if name else "") + "/>"
                for tag, nid, name in pool.nodes
            ] + [
                f'    <bpmn:sequenceFlow id="{fid}" sourceRef="{src}" targetRef="{tgt}"/>'
                for fid, src, tgt in pool.flows
            ]
            self.rng.shuffle(elements)
            out.extend(elements)
            out.append("  </bpmn:process>")
        out.append("</bpmn:definitions>")
        return "\n".join(out) + "\n"

    def diagram(self, **answers) -> Diagram:
        return Diagram(stem=self.stem, xml=self.xml(), **answers)


def _pool_frame(b: _Canvas, p: int, body: tuple[str, str]) -> None:
    start = b.node(p, "startEvent", 0, "Start")
    end = b.node(p, "endEvent", 1, "End")
    b.flow(p, start, body[0])
    b.flow(p, body[1], end)


def _variant_names(b: _Canvas) -> list[str]:
    """Problem names the encoder gives: all_starts, then one per pool."""
    domain = re.sub(r"[^A-Za-z0-9_]", "_", b.stem.lower())
    names = [f"{domain}_all_starts"]
    if len(b.pools) > 1:
        names += [f"{domain}_prestarted_{p.name.lower()}" for p in b.pools]
    return names


# ---------------------------------------------------------------------------
# translate family: random block-structured diagrams


def block_structured(rng: random.Random, stem: str, target_nodes: int, n_pools: int,
                     shape_seed: int) -> Diagram:
    """Sequences, xor/and blocks, at most one inclusive block, retry loops
    and 1-3 pools joined by task-event and task-task messages. `shape_seed`
    picks the structure; `rng` only names and orders it.

    At most one inclusive block per diagram: the encoder matches an
    inclusive join to the first split, in document order, that reaches it.
    With two blocks in sequence, the element order the seed picks decides
    whether the second join gets the wrong counter, and so the verdict.
    """
    b = _Canvas(rng, stem, random.Random(shape_seed))
    shape = b.shape
    per_pool = max(8, target_nodes // n_pools)
    for _ in range(n_pools):
        b.pool()
    for p in range(n_pools):
        first = b.task(p)  # a task first, so no gateway input comes from a start event
        body_first, body_last = _sequence(b, p, per_pool - 3, depth=0)
        b.flow(p, first, body_first)
        _pool_frame(b, p, (first, body_last))
    for p in range(1, n_pools):
        for event in b.catch_events[p]:
            b.message(shape.choice(b.tasks[p - 1]), event, to_event=True)
        for _ in range(shape.randint(1, 3)):
            b.message(shape.choice(b.tasks[p - 1]), shape.choice(b.tasks[p]), to_event=False)
    return b.diagram(actions=b.actions, predicates=b.predicates,
                     problems=len(_variant_names(b)))


# Top-level segment kinds repeat in this order, so all diagrams of one size
# have about the same mix of splits, joins and loops whatever the seed: the
# program's cost then depends on the size, and the seed picks the details.
_TOP_LEVEL = ["chain", "xor", "and", "loop", "chain", "and", "catch", "xor", "or"]


def _sequence(b: _Canvas, p: int, budget: int, depth: int) -> tuple[str, str]:
    parts: list[tuple[str, str]] = []
    start = b.n_nodes
    while not parts or b.n_nodes - start < budget:
        if depth == 0:
            kind = _TOP_LEVEL[len(parts) % len(_TOP_LEVEL)]
        else:
            kind = b.shape.choice(["chain", "chain", "xor", "and"]) if depth == 1 else "chain"
        parts.append(_segment(b, p, kind, depth))
    for (_, last), (first, _) in zip(parts, parts[1:]):
        b.flow(p, last, first)
    return parts[0][0], parts[-1][1]


def _segment(b: _Canvas, p: int, kind: str, depth: int) -> tuple[str, str]:
    shape = b.shape
    if kind == "catch" and p == 0:
        kind = "chain"  # the first pool receives no messages
    if kind == "or" and b.or_used:
        kind = "and"
    if kind == "chain":
        return b.chain(p, shape.randint(1, 4))
    if kind == "catch":
        event = b.node(p, "intermediateCatchEvent", 1, "Message received")
        b.catch_events[p].append(event)
        return event, event
    if kind == "loop":
        return b.loop(p, _sequence(b, p, shape.randint(1, 6), depth + 1))
    if kind == "or":
        b.or_used = True
    k = shape.randint(2, 3 if kind == "or" else 4)
    return b.block(p, kind, [_sequence(b, p, shape.randint(1, 6), depth + 1) for _ in range(k)])


# ---------------------------------------------------------------------------
# state_space families, each with closed-form answers


def chain(rng: random.Random, stem: str, n: int) -> Diagram:
    """start -> n tasks -> end: n + 2 states, the policy maps all n + 1
    non-goal states."""
    b = _Canvas(rng, stem)
    p = b.pool()
    _pool_frame(b, p, b.chain(p, n))
    (name,) = _variant_names(b)
    return b.diagram(variants={name: Variant(n + 2, 0, "yes", "-", n + 1)})


def parallel(rng: random.Random, stem: str, width: int, depth: int) -> Diagram:
    """Parallel split of `width` branches of `depth` tasks each.

    Each branch sits at one of depth + 1 positions, so the split yields
    (depth + 1) ** width states; init, after-join and goal add 3. Every
    interleaving is a path of the same length, so the deterministic policy
    maps width * depth + 3 states.
    """
    b = _Canvas(rng, stem)
    p = b.pool()
    _pool_frame(b, p, b.block(p, "and", [b.chain(p, depth) for _ in range(width)]))
    (name,) = _variant_names(b)
    return b.diagram(variants={
        name: Variant((depth + 1) ** width + 3, 0, "yes", "-", width * depth + 3)})


def inclusive(rng: random.Random, stem: str, k: int) -> Diagram:
    """Inclusive split of k >= 2 one-task branches: 2**k - 1 outcomes.

    The join's counter forgets which branches it has already taken in, so
    a branch is either absent (not chosen, or joined), pending or arrived:
    3**k - 1 markings after the split; init, the join's release, the end
    marker and the goal add 4. The policy prefers join events over tasks
    and tasks in a fixed order, so it visits, for each non-empty branch
    set, the state right after the split and the one after its first task
    arrives: 2 * (2**k - 1) states, plus init, release and end marker.
    """
    b = _Canvas(rng, stem)
    p = b.pool()
    _pool_frame(b, p, b.block(p, "or", [b.chain(p, 1) for _ in range(k)]))
    (name,) = _variant_names(b)
    return b.diagram(variants={name: Variant(3 ** k + 3, 0, "yes", "-", 2 ** (k + 1) + 1)})


def message_pools(rng: random.Random, stem: str, lengths: list[int],
                  messages: list[tuple[int, int, int, int]]) -> Diagram:
    """Pools that are task chains, coupled by task-task messages that the
    exclusive emulation turns into a second outcome of the sender.

    `messages` holds (sender pool, sender task, receiver pool, receiver
    task), 0-based, always from a lower to a higher pool, so tokens only
    move forward and every variant is strongly solvable. State counts come
    from :func:`_token_positions`.
    """
    b = _Canvas(rng, stem)
    ids = []
    for n in lengths:
        p = b.pool()
        _pool_frame(b, p, b.chain(p, n))
        ids.append(b.tasks[p])
    for sp, st, rp, rt in messages:
        b.message(ids[sp][st], ids[rp][rt], to_event=False)
    names = _variant_names(b)
    starts = [tuple(range(len(lengths)))] + [(p,) for p in range(len(lengths))]
    variants = {}
    for name, started in zip(names, starts):
        n_states = _token_positions(lengths, messages, started)
        variants[name] = Variant(n_states, 0, "yes", "-", None)
    return b.diagram(variants=variants, args=("--msg-strategy", "exclusive"))


def _token_positions(lengths: list[int], messages: list[tuple[int, int, int, int]],
                     started: tuple[int, ...]) -> int:
    """Count reachable states of task-chain pools by direct search.

    A pool's marking is the set of token positions: position i enables the
    pool's task i, position n its end event. Firing task i moves a token
    from i to i + 1; each emulated message of task i is an extra outcome
    that also puts a token at the receiver's position. An end event removes
    its token and sets `done`.
    """
    sends: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for sp, st, rp, rt in messages:
        sends.setdefault((sp, st), []).append((rp, rt))
    init = (tuple(frozenset([0]) if p in started else frozenset() for p in range(len(lengths))), False)
    seen = {init}
    queue = deque([init])
    while queue:
        marks, done = queue.popleft()
        succs = []
        for p, pos_set in enumerate(marks):
            for pos in pos_set:
                rest = pos_set - {pos}
                if pos == lengths[p]:
                    succs.append((marks[:p] + (rest,) + marks[p + 1:], True))
                    continue
                moved = list(marks)
                moved[p] = rest | {pos + 1}
                succs.append((tuple(moved), done))
                for rp, rt in sends.get((p, pos), []):
                    extra = list(moved)
                    extra[rp] = extra[rp] | {rt}
                    succs.append((tuple(extra), done))
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return len(seen)

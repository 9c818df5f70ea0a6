"""Grounded interpreter and solver for the emitted nondeterministic domains.

Exhaustively explores the propositional state space, decides strong and
strong-cyclic solvability over the AND-OR graph, extracts deterministic
policies, and enumerates execution traces. Also parses the emitted PDDL
subset back in, so the pipeline's output can be round-tripped and checked
without an external planner.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import chain, count, islice, product, repeat
from operator import itemgetter, or_, sub

from .bpmn_parser import Record
from .pddl_encoder import (
    _EFFECT_WORDS,
    _UNSUPPORTED_EFFECTS,
    EffAdd,
    EffAnd,
    EffNot,
    EffOneOf,
    EffectTree,
    PddlAction,
    PddlDomain,
    PddlProblem,
)
from .process_graph import _dot_escape

_EFFECT_KINDS = (EffAdd, EffNot, EffAnd, EffOneOf)  # a subclass of one is compiled as that one


class PddlSyntaxError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})" if line else message)
        self.line = line
        self.col = col


class UnsupportedFeature(Exception):
    pass


class Unsolvable(Exception):
    def __init__(self, mode: SolveMode):
        super().__init__(f"no {mode.value} policy exists")
        self.mode = mode


class LimitExceeded(Exception):
    states = expanded = frontier = depth = None  # how far exploration got, set when a state limit trips


class SolveMode(Enum):
    STRONG = "strong"
    STRONG_CYCLIC = "strong-cyclic"


class Limits(Record):
    __slots__ = __match_args__ = ("max_states", "max_traces", "max_trace_len")
    def __init__(self, max_states=1_000_000, max_traces=100_000, max_trace_len=10_000):
        self.max_states: int = max_states
        self.max_traces: int = max_traces
        self.max_trace_len: int = max_trace_len


class Outcome(Record):
    __slots__ = __match_args__ = ("adds", "dels")
    __hash__, __setattr__, __delattr__ = Record._hash, Record._frozen, Record._frozen
    def __init__(self, adds: frozenset, dels: frozenset):
        object.__setattr__(self, "adds", adds)
        object.__setattr__(self, "dels", dels)


class GroundAction(Record):
    __slots__ = __match_args__ = ("name", "pre", "outcomes")
    __hash__, __setattr__, __delattr__ = Record._hash, Record._frozen, Record._frozen
    def __init__(self, name: str, pre: frozenset, outcomes: tuple[Outcome, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "outcomes", outcomes)


# ---------------------------------------------------------------------------
# PDDL subset parser


class _Misplaced(Exception):
    """A syntax error: its message and the index of the token it names. :func:`parse_pddl` raises it with
    that token's line and column, found only then, unless :func:`_structure` finds an error first."""


_TOKEN = re.compile(r"[()]|[^\s();]+|;[^\n]*")
_COMMENT = re.compile(r";[^\n]*")


def _tokens(text: str) -> list[str]:
    """The parentheses and whitespace-separated atoms of `text`, ``;`` comments cut, split at C speed."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _structure(t: list[str]) -> tuple[str, int] | None:
    """Why the tokens `t` are not one parenthesized form, as a message and a token
    index, or None if they are: one depth scan, run only when the reader is about to raise."""
    opened: list[int] = []  # the index of each "(" not yet closed
    for k, tok in enumerate(t):
        if not opened:  # at the top level: a token after token 0 follows the first item
            if tok == ")":
                return ("trailing input ')'" if k else "unexpected )"), k
            if k:
                return f"trailing input {tok!r}", k
        if tok == "(":
            opened.append(k)
        elif tok == ")":
            opened.pop()
    if opened:
        return "missing )", opened[-1]
    return None if t[0] == "(" else ("expected a parenthesized form", 0)


def _position(text: str, at: int) -> tuple[int, int]:
    """Line and column of token `at` of `text`, found by reading the tokens again, comments not counted."""
    found = (m for m in _TOKEN.finditer(text) if m[0][0] != ";")
    offset = next(islice(found, at, None)).start()
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _one_item(t: list[str], i: int) -> bool:
    """Whether exactly one item, an atom or a form, starts at token `i` before its form closes: a depth count."""
    depth = 0
    while True:
        depth += (t[i] == "(") - (t[i] == ")")
        i += 1
        if depth <= 0:
            return depth == 0 and t[i] == ")"


def _atom(t: list[str], j: int) -> str:
    """The atom of the subset at token `j`, a zero-arity predicate like (p): three tokens."""
    if t[j] == "(":
        name = t[j + 1]
        if t[j + 2] == ")" and name != "(" and name != ")":
            return name
        if name == "(" and _one_item(t, j + 1):
            raise _Misplaced("expected a predicate name", j + 1)
        if name != ")":
            raise UnsupportedFeature("predicates with arguments are outside the supported subset")
    raise _Misplaced("expected a (predicate) atom", j)


def _atoms(t: list[str], j: int) -> tuple[list[str], int]:
    """The atoms from token `j` to the end of their form: their names and the index of its ``)``."""
    names = []
    while (tok := t[j]) != ")":
        names.append(t[j + 1] if tok == "(" and t[j + 2] == ")" and t[j + 1] not in "()" else _atom(t, j))
        j += 3
    return names, j


def _names(t: list[str], j: int, what: str) -> tuple[list[str], int]:
    """The plain names from token `j` to the end of their form, and the index of its ``)``."""
    k = j
    while t[k] != ")":
        if t[k] == "(":
            raise _Misplaced(f"expected {what}", k)
        k += 1
    return t[j:k], k


def _distinct(names: list[str], at: int, width: int, what: str) -> None:
    """Raise a name of `names` given twice at its second item; item k is at token ``at + width * k``."""
    if len(set(names)) < len(names):
        first: dict[str, int] = {}  # the first k of each name: a later one returns it, not its own k
        k = next(k for k, n in enumerate(names) if first.setdefault(n, k) != k)
        raise _Misplaced(f"repeated {what} {names[k]!r}", at + width * k)


def parse_pddl(text: str) -> PddlDomain | PddlProblem:
    """Parse a domain or problem in the emitted subset.

    ``;`` comments are cut and the text split into tokens at C speed; one
    walk over the tokens with a single index builds the records, no tree.
    The head names one domain or problem. No section but ``:action`` may
    repeat, nor a requirement flag or a predicate within its section, nor a
    keyword within an action. A domain must name each action once, declare
    every predicate it uses and give every ``oneof`` an outcome; a problem
    must have a ``:goal`` and name one domain in ``:domain``. Raises
    :class:`PddlSyntaxError` at the line and column of the offending token
    (a domain check names the ``(:action``) or :class:`UnsupportedFeature`
    outside the subset (parameters, conditional effects, objects, ...).
    Only when the walk is about to raise does a depth scan look for a
    missing or unexpected ``)``, trailing input or no form: that comes first.
    """
    t = _tokens(text)
    if not t:
        raise PddlSyntaxError("empty input")
    try:
        parsed, end = _parse_define(t)
        if end < len(t):
            raise IndexError  # trailing input, which _structure names
        return parsed
    except (_Misplaced, UnsupportedFeature, IndexError) as exc:  # IndexError: the tokens ran out
        found = _structure(t)
        if found is None and type(exc) is not _Misplaced:
            raise
        message, at = found or exc.args
        raise PddlSyntaxError(message, *_position(text, at)) from None


def _parse_define(t: list[str]) -> tuple[PddlDomain | PddlProblem, int]:
    """The ``(define (domain|problem NAME) ...)`` form at token 0 and the index past it."""
    if t[0] != "(" or t[1] != "define":  # if t[0] is not "(", _structure names the error
        raise _Misplaced("expected define", 1) if t[1] == "(" else _Misplaced("expected (define ...)", 0)
    if t[2] != "(" or t[3] == ")":
        raise _Misplaced("expected (domain NAME) or (problem NAME)", 0)
    kind, name = t[3], t[4]
    if kind != "domain" and kind != "problem":
        raise _Misplaced("expected domain or problem", 3) if kind == "(" else \
            _Misplaced(f"expected domain or problem, got {kind!r}", 2)
    if name == ")" or name == "(":
        raise _Misplaced(f"{kind} has no name", 2) if name == ")" else _Misplaced(f"expected a {kind} name", 4)
    if t[5] != ")":
        raise _Misplaced(f"({kind} NAME) takes one name", 2)
    return (_parse_domain if kind == "domain" else _parse_problem)(t, name)


def _section(t: list[str], i: int) -> str:
    """The tag of the ``(:tag ...)`` section at token `i`."""
    if t[i] != "(" or t[i + 1] == ")":
        raise _Misplaced("expected a (:section ...)", i)
    if t[i + 1] == "(":
        raise _Misplaced("expected a section tag", i + 1)
    return t[i + 1]


def _once(tag: str, i: int, seen: set[str]) -> None:
    """Reject the section at token `i` if its tag is in `seen`, the tags read before; then add it."""
    if tag in seen:
        raise _Misplaced(f"repeated section {tag!r}", i)
    seen.add(tag)


def _parse_domain(t: list[str], name: str) -> tuple[PddlDomain, int]:
    requirements, types, predicates, actions, seen = [], [], [], [], set()
    action_at: list[int] = []  # the token index of each (:action
    used: list[str | None] = []  # each predicate the actions name, and None for each oneof with no outcome
    i = 6
    while t[i] != ")":
        tag = _section(t, i)
        if tag == ":action":
            action_at.append(i)
            action, i = _parse_action(t, i, used)
            actions.append(action)
            continue
        if tag == ":requirements":
            requirements, j = _names(t, i + 2, "a requirement flag")
            _distinct(requirements, i + 2, 1, "requirement")
        elif tag == ":types":
            types, j = _names(t, i + 2, "a type name")
        elif tag == ":predicates":
            predicates, j = _atoms(t, i + 2)
            _distinct(predicates, i + 2, 3, "predicate")
        elif tag in (":constants", ":functions"):
            raise UnsupportedFeature(f"{tag} is outside the supported subset")
        else:
            raise _Misplaced(f"unknown domain section {tag!r}", i)
        _once(tag, i, seen)
        i = j + 1
    domain = PddlDomain(name, requirements, types, predicates, actions)
    if not set(predicates).issuperset(used) or len({a.name for a in actions}) < len(actions):
        _validate_domain(domain, action_at)  # a defect: its walk finds the first, in its own order
    return domain, i + 1


def _parse_action(t: list[str], s: int, used: list[str | None]) -> tuple[PddlAction, int]:
    """The ``(:action ...)`` form at token `s` and the index past it; `used` as for :func:`_parse_effect`."""
    name = t[s + 2]
    if name == ")" or name == "(":
        raise _Misplaced("action has no name", s) if name == ")" else _Misplaced("expected an action name", s + 2)
    precondition, effect, seen = [], None, set()
    j = s + 3
    while (key := t[j]) != ")":
        if key == "(":
            raise _Misplaced("expected an action keyword", j)
        if t[j + 1] == ")":
            raise _Misplaced(f"{key} has no value", s)
        if key in seen:
            raise _Misplaced(f"repeated action keyword {key!r}", j)
        seen.add(key)
        if key == ":precondition":
            precondition, j = _parse_precondition(t, j + 1)
            used += precondition
        elif key == ":effect":
            effect, j = _parse_effect(t, j + 1, False, used)
        elif key == ":parameters":
            if t[j + 1] != "(" or t[j + 2] != ")":
                raise UnsupportedFeature("action parameters are outside the supported subset")
            j += 3
        else:
            raise _Misplaced(f"unknown action keyword {key!r}", s)
    if effect is None:
        raise _Misplaced(f"action {name!r} has no effect", s)
    return PddlAction(name, precondition, effect if type(effect) is EffAnd else EffAnd([effect])), j + 1


def _parse_precondition(t: list[str], i: int) -> tuple[list[str], int]:
    """The precondition at token `i`, an atom or an (and ...) of atoms: its atoms and the index past it."""
    if t[i] != "(" or t[i + 1] == ")":
        raise _Misplaced("expected a precondition", i)
    head = t[i + 1]
    if head == "and":
        atoms, j = [], i + 2
        while (tok := t[j]) != ")":
            if tok == "(" and t[j + 2] == ")" and (name := t[j + 1]) not in "()":
                atoms.append(name)  # the common (p), read inline
            elif tok == "(" and t[j + 1] == "not":
                raise UnsupportedFeature("negative preconditions are outside the supported subset")
            else:
                atoms.append(_atom(t, j))
            j += 3
        return atoms, j + 1
    if head == "not":
        raise UnsupportedFeature("negative preconditions are outside the supported subset")
    return [_atom(t, i)], i + 3


def _parse_effect(t: list[str], i: int, inside_oneof: bool, used: list[str | None]) -> tuple[EffectTree, int]:
    """The effect at token `i` and the index past it. `used` gets each
    predicate it names, and None for a ``oneof`` with no outcome."""
    if t[i] != "(" or t[i + 1] == ")":
        raise _Misplaced("expected an effect", i)
    word = t[i + 1]
    if word in _UNSUPPORTED_EFFECTS:
        raise UnsupportedFeature(f"({word} ...) effects are outside the supported subset")
    if word == "and":
        # nested (and ...) forms are spliced into this one by a depth count, so deep nesting never recurses
        items, depth, j = [], 0, i + 2  # depth: the nested (and ...) forms open
        while True:
            tok = t[j]
            if tok == ")":
                j += 1
                if not depth:
                    return EffAnd(items), j
                depth -= 1
            elif tok == "(" and t[j + 2] == ")" and (name := t[j + 1]) not in _EFFECT_WORDS and name not in "()":
                items.append(EffAdd(name))  # the common (p) and (not (p)), read inline
                used.append(name)
                j += 3
            elif tok == "(" and t[j + 1] == "not" and t[j + 2] == "(" and t[j + 4] == t[j + 5] == ")" \
                    and (name := t[j + 3]) not in "()":
                items.append(EffNot(name))
                used.append(name)
                j += 6
            elif tok == "(" and t[j + 1] == "and":
                depth += 1
                j += 2
            else:
                item, j = _parse_effect(t, j, inside_oneof, used)
                items.append(item)
    if word == "not":
        if not _one_item(t, i + 2):
            raise _Misplaced("(not ...) takes one atom", i)
        used.append(name := _atom(t, i + 2))
        return EffNot(name), i + 6
    if word == "oneof":
        if inside_oneof:
            raise UnsupportedFeature("nested oneof effects are outside the supported subset")
        outcomes, j = [], i + 2
        while t[j] != ")":
            outcome, j = _parse_effect(t, j, True, used)
            outcomes.append(outcome)
        if not outcomes:
            used.append(None)
        return EffOneOf(outcomes), j + 1
    used.append(name := _atom(t, i))
    return EffAdd(name), i + 3


def _parse_problem(t: list[str], name: str) -> tuple[PddlProblem, int]:
    domain_name, init, goal, seen = "", [], None, set()
    i = 6
    while t[i] != ")":
        tag = _section(t, i)
        if tag in (":domain", ":goal") and not _one_item(t, i + 2):
            raise _Misplaced(":domain takes one name" if tag == ":domain" else ":goal takes one formula", i)
        if tag == ":domain":
            if t[i + 2] == "(":
                raise _Misplaced("expected a domain name", i + 2)
            domain_name, j = t[i + 2], i + 3
        elif tag == ":init":
            init, j = _atoms(t, i + 2)
        elif tag == ":goal":
            goal, j = _parse_precondition(t, i + 2)
        elif tag == ":objects":
            raise UnsupportedFeature(":objects is outside the supported subset")
        else:
            raise _Misplaced(f"unknown problem section {tag!r}", i)
        _once(tag, i, seen)
        i = j + 1
    if goal is None:  # an empty goal would make any problem trivially solved
        raise _Misplaced("problem has no :goal", 0)
    return PddlProblem(name, domain_name, init, goal), i + 1


def _validate_domain(domain: PddlDomain, action_at: list[int] | None = None) -> None:
    """Check that each action is named once, declares what it uses and gives
    every ``oneof`` an outcome. With `action_at`, the token index of the
    ``(:action`` each action was read from, a defect is raised there."""

    def defect(message: str, i: int) -> Exception:
        return PddlSyntaxError(message) if action_at is None else _Misplaced(message, action_at[i])

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


# ---------------------------------------------------------------------------
# Grounding and state transitions


def ground_domain(domain: PddlDomain) -> list[GroundAction]:
    """Each action with its precondition and its nondeterministic outcomes as
    predicate sets, decoded from the records :func:`_compile` makes over the
    domain's declared predicates. :func:`explore` compiles the domain itself
    and never calls this."""
    preds = list(dict.fromkeys(domain.predicates))
    grounded = []
    for pre, name, outs in _compile(domain, {p: 1 << i for i, p in enumerate(preds)}):
        outcomes = tuple(Outcome(_decode(preds, a), _decode(preds, ~k & ~a)) for a, k in outs)
        grounded.append(GroundAction(name, _decode(preds, pre), outcomes))
    return grounded


def _compile(domain: PddlDomain, power: dict[str, int]) -> list[tuple]:
    """Compile each action of `domain` into the record ``(pre, name, outs)``
    over the bit table `power` (predicate -> its power of two): ``outs`` is
    the tuple of its outcomes' ``(add, keep)`` pairs.

    One loop over the items of each action's top-level ``(and ...)`` ORs
    each leaf (by exact type) into the common part and sets the other
    items aside. Only those, nested ``(and ...)`` and ``oneof`` forms, go
    through an explicit stack, in tree order, which ORs each atom into the
    common part or into the outcome of the ``oneof`` it sits in. The
    outcomes are the ``product`` of the ``oneof`` groups in tree order,
    each an add mask and a keep mask (the complement of its deletes), so a
    successor is ``state & keep | add`` and an add wins over a delete. A
    ``oneof`` inside a ``oneof`` is :class:`UnsupportedFeature`.

    The same walk notices the domain's defects: an atom that is not a
    declared predicate, a ``oneof`` with no outcomes, an action named
    twice. Only then does :func:`_validate_domain` walk the domain, to
    raise the first; a defect outranks a nested ``oneof``.
    """
    declared = {p: power[p] for p in domain.predicates}  # an atom not in it is a KeyError
    records = []
    try:
        for action in domain.actions:
            pre = add = dele = 0
            for p in action.precondition:
                pre |= declared[p]
            nested = []  # the top-level items that are not leaves, in tree order
            for item in action.effect.items:
                kind = type(item)
                if kind is EffAdd:
                    add |= declared[item.pred]
                elif kind is EffNot:
                    dele |= declared[item.pred]
                else:
                    nested.append(item)
            if not nested:
                records.append((pre, action.name, ((add, ~dele),)))
                continue
            parts = [[add, dele]]  # [add, delete] of the common part, then of each oneof outcome
            groups = []  # per oneof, in tree order: its outcomes' parts
            todo = [*zip(reversed(nested), repeat(0))]  # an explicit stack of (node, its part): tree order
            while todo:
                node, k = todo.pop()
                kind = type(node)
                if kind not in _EFFECT_KINDS:
                    kind = next(base for base in _EFFECT_KINDS if isinstance(node, base))
                if kind is EffAdd:
                    parts[k][0] |= declared[node.pred]
                elif kind is EffNot:
                    parts[k][1] |= declared[node.pred]
                elif kind is EffAnd:
                    todo += zip(reversed(node.items), repeat(k))
                elif k or not node.outcomes:
                    _validate_domain(domain)  # an empty oneof is a defect, and any defect outranks a nested oneof
                    raise UnsupportedFeature("nested oneof effects are outside the supported subset")
                else:
                    todo += zip(node.outcomes, count(len(parts)))
                    groups.append(group := [[0, 0] for _ in node.outcomes])
                    parts += group
            outs = []
            for combo in product(*groups):
                add, dele = parts[0]
                for x, d in combo:
                    add |= x
                    dele |= d
                outs.append((add, ~dele))
            records.append((pre, action.name, tuple(outs)))
    except KeyError:  # an undeclared atom
        _validate_domain(domain)
        raise
    if len({action.name for action in domain.actions}) < len(records):
        _validate_domain(domain)
    return records


# ---------------------------------------------------------------------------
# Exhaustive exploration


class StateSpace(Record):
    """The explored transition system, with integer bitmask states.

    State ``s`` is the int ``masks[s]``; bit ``i`` is predicate ``preds[i]``.
    Pair ``p`` is action ``name[p]`` applied in state ``owner[p]``, with each
    outcome's successor in ``succs[p]``; state ``s`` has the pairs
    ``range(first[s], first[s + 1])``, in domain order. ``rev[t]`` lists
    the transitions into ``t`` in pair order: a one-outcome pair as its
    owner state ``s``, the int the space already holds, and a multi-outcome
    pair ``p`` as ``~p``, negative, once per outcome; its first entry found
    ``t``. Successors are immutable tuples, and every one-outcome pair into
    ``t`` shares the one ``(t,)``: per state the space holds a mask, one
    int, a ``rev`` list and that tuple, per pair list entries and, for a
    multi-outcome pair, its own tuple and its ``~p``, so its size is
    O(states + transitions) with no object per one-outcome transition.
    ``actions`` maps each action name to its outcomes' add masks, in
    outcome order; the applicable-action sets :func:`explore` searches with
    are not kept. :meth:`state` decodes one state from its set bits, once,
    so the solvers, traces and DOT export decode only the states they
    touch; ``states`` and ``transitions`` decode the whole space, once, on
    first use.
    """

    # no __slots__: the views and the decoded states live in the instance's __dict__
    __match_args__ = ("masks", "preds", "owner", "name", "succs", "first", "rev", "goal_states", "deadlock_states",
                      "actions")
    def __init__(self, masks, preds, owner, name, succs, first, rev, goal_states, deadlock_states, actions):
        self.masks: list[int] = masks
        self.preds: list[str] = preds
        self.owner: list[int] = owner
        self.name: list[str] = name
        self.succs: list[tuple[int, ...]] = succs
        self.first: list[int] = first
        self.rev: list[list[int]] = rev
        self.goal_states: set[int] = goal_states
        self.deadlock_states: set[int] = deadlock_states
        self.actions: dict[str, tuple[int, ...]] = actions
        self._decoded: dict[int, frozenset] = {}

    def state(self, s: int) -> frozenset:
        """State `s` as the frozenset of its true predicates."""
        state = self._decoded.get(s)
        if state is None:
            state = self._decoded[s] = _decode(self.preds, self.masks[s])
        return state

    def moves(self, s: int) -> list[tuple[str, int, int]]:
        """The transitions of state `s`: ``(action, outcome, successor)`` in domain order."""
        pairs = range(self.first[s], self.first[s + 1])
        return [(self.name[p], o, t) for p in pairs for o, t in enumerate(self.succs[p])]

    @cached_property
    def states(self) -> list[frozenset]:
        return [self.state(s) for s in range(len(self.masks))]

    @cached_property
    def transitions(self) -> list[list[tuple[str, int, int]]]:
        return [self.moves(s) for s in range(len(self.masks))]


def _decode(preds: list[str], mask: int) -> frozenset:
    """The predicates of the set bits of `mask`: one loop that peels off its lowest bit."""
    atoms = []
    while mask:
        low = mask & -mask
        atoms.append(preds[low.bit_length() - 1])
        mask ^= low
    return frozenset(atoms)


def explore(domain: PddlDomain, problem: PddlProblem, limits: Limits | None = None) -> StateSpace:
    """BFS over every state reachable from init via every outcome.

    The domain is compiled once (:func:`_compile`) into int bitmasks over a
    bit per declared predicate, then per init or goal atom the domain
    lacks, and one loop files each action under its precondition bits. A
    state's applicable actions are an int, bit ``a`` for action ``a``, set
    when the state is found and read lowest bit first, so its pairs come
    in domain order with no precondition test. A found state inherits the
    set of the state that found it, less the users of the bits the outcome
    clears, plus the users of the bits it adds whose preconditions hold:
    exact, as preconditions are positive, and O(cleared bits + woken
    actions) per new state, read off the outcome's table (:func:`_changes`),
    built when first needed. A state a one-outcome pair finds with at most
    one true bit, as in a sequence of tasks, takes no table: its set is the
    actions that need nothing and the users of that bit it satisfies.

    Successors are immutable tuples; a state's ``(t,)`` is shared by every
    one-outcome pair into it, and its ``t`` is the state's one int object,
    which the search expands, ``rev`` lists and ``owner`` repeats. So each
    state allocates a mask, that int, a ``rev`` list and that tuple, each
    one-outcome pair only flat-list entries, each multi-outcome pair its
    tuple and one ``~p``, and ``owner`` comes from ``first`` after the
    search. O(states + transitions) steps, each a mask operation or a hash
    of a state of O(predicates / 30) machine words:
    a chain of n tasks, n + 2 states over n + 3 predicates, explores in
    O(n² / 30) word operations: 1.8, 4.4, 12.6 and 46 ms at 600, 1200, 2400
    and 4800 tasks (best of 30, GC off, Python 3.11 on a 2-vCPU Xeon VM).
    """
    limits = limits or Limits()
    power = {p: 1 << i for i, p in enumerate(dict.fromkeys([*domain.predicates, *problem.init, *problem.goal]))}
    records = _compile(domain, power)
    init, goal = sum({power[p] for p in problem.init}), sum({power[p] for p in problem.goal})
    users = [[] for _ in range(len(power) + 1)]  # i + 1 -> (pre, 1 << a) of each action a whose pre has bit i
    table, adds, always = {}, {}, 0  # 1 << a -> [name, add, keep, row, outs]; name -> add masks; pre-less actions
    add_of = itemgetter(0)
    for a, (pre, nm, outs) in enumerate(records):
        bit, m = 1 << a, pre
        if not m:
            always |= bit
        while m:
            i = m.bit_length()
            users[i] += (pre, bit),
            m ^= 1 << i - 1
        table[bit] = [nm, *outs[0], None, None if len(outs) == 1 else [[add, keep, None] for add, keep in outs]]
        adds[nm] = tuple(map(add_of, outs))

    masks, index, rev, alone = [init], {init: 0}, [[]], [(0,)]  # alone[t] is the tuple (t,) of t's one int
    woken = (bit for p, bit in _changes(init, -1, users)[1] if init & p == p)  # the users of init's bits that apply
    en = [reduce(or_, woken, always)]  # en[s]: bit a set if action a applies in state s
    name, succs, first = [], [], []
    goal_states, deadlock_states = set(), set()
    n, pairs, max_states = 1, 0, limits.max_states  # len(masks), len(name)
    for (s,), state in zip(alone, masks):  # grow while they are read: the BFS queue
        first.append(pairs)
        e = mine = en[s]
        while e:  # lowest bit first: domain order
            low = e & -e
            e ^= low
            nm, add, keep, row, outs = entry = table[low]
            name.append(nm)
            if outs is None:
                succ = state & keep | add
                t = index.setdefault(succ, n)
                if t == n:
                    if n >= max_states:
                        raise _state_limit(limits, n, s, first, rev)
                    n += 1
                    masks.append(succ)
                    rev.append([])
                    alone.append((t,))
                    if not succ & succ - 1:  # one true bit at most, as one token down a sequence: no table
                        new, wake = always, users[succ.bit_length()]
                    else:
                        if row is None:
                            row = entry[3] = _changes(add, keep, users)
                        new, wake = mine ^ (mine & row[0]), row[1]
                    for p, bit in wake:
                        if succ & p == p:
                            new |= bit
                    en.append(new)
                rev[t].append(s)
                succs.append(alone[t])
            else:
                out, q = [], ~pairs
                for entry in outs:
                    add, keep, row = entry
                    succ = state & keep | add
                    t = index.setdefault(succ, n)
                    if t == n:
                        if n >= max_states:
                            raise _state_limit(limits, n, s, first, rev)
                        n += 1
                        masks.append(succ)
                        rev.append([])
                        alone.append((t,))
                        if row is None:
                            row = entry[2] = _changes(add, keep, users)
                        new = mine ^ (mine & row[0])
                        for p, bit in row[1]:
                            if succ & p == p:
                                new |= bit
                        en.append(new)
                    rev[t].append(q)
                    out.append(t)
                succs.append(tuple(out))
            pairs += 1
        if state & goal == goal:
            goal_states.add(s)
        elif not mine:
            deadlock_states.add(s)
    first.append(pairs)
    del en, index  # before `owner` is built, so the two never add to explore's peak memory
    owner = list(chain.from_iterable(map(repeat, chain.from_iterable(alone), map(sub, first[1:], first))))
    return StateSpace(masks, list(power), owner, name, succs, first, rev, goal_states, deadlock_states, adds)


def _changes(add: int, keep: int, users: list[list[tuple[int, int]]]) -> tuple[int, list]:
    """How an outcome changes the applicable actions: the users of the bits it clears, as bits, and the
    ``(pre, 1 << a)`` of the users of the bits it adds. A bit it deletes and adds is added."""
    off, wake, m = 0, [], add | ~keep
    while m:
        i = m.bit_length()
        m ^= (low := 1 << i - 1)
        if add & low:
            wake += users[i]
        else:
            for _p, bit in users[i]:
                off |= bit
    return off, wake


def _state_limit(limits: Limits, states: int, s: int, first: list[int], rev: list[list[int]]) -> LimitExceeded:
    """The error for a search that found `states` states, more than
    `limits` allows, while expanding state `s`: how far it got, its depth
    read back along each state's first ``rev`` entry, which found it."""
    depth, u = 0, s
    while u:  # ~p names pair p, whose owner is the last u with first[u] <= p: `owner` comes after the search
        x = rev[u][0]
        depth, u = depth + 1, x if x >= 0 else bisect_right(first, ~x) - 1
    exc = LimitExceeded(f"more than {limits.max_states} states reachable")
    exc.states, exc.expanded, exc.frontier, exc.depth = states, s, states - s, depth
    return exc


# ---------------------------------------------------------------------------
# Policies


class Policy(Record):
    """`mapping` sends a state, the frozenset of its true predicates, to the action taken there. A policy
    from :func:`solve` keeps the solver's :func:`_walk` instead, with its space, and decodes `mapping` on
    first read; from then on, or once `mapping` is assigned, the dict is the policy, edits included."""

    __slots__ = ("_mapping", "kind", "_solved")
    __match_args__ = ("mapping", "kind")
    def __init__(self, mapping, kind):
        self.mapping: dict[frozenset, str] = mapping
        self.kind: SolveMode = kind

    @property
    def mapping(self) -> dict[frozenset, str]:
        if self._solved is not None:
            space, _order, chosen = self._solved
            self.mapping = {space.state(s): space.name[p] for s, p in chosen.items()}
        return self._mapping

    @mapping.setter
    def mapping(self, mapping: dict[frozenset, str]) -> None:
        self._mapping, self._solved = mapping, None


def _backward(owner: list[int], rev: list[list[int]] | dict[int, list[int]], pending: list[int] | dict[int, int],
              goals, level: list[int] | dict[int, int]) -> list[int] | dict[int, int]:
    """Backward induction from `goals` over reverse edges in the form of :attr:`StateSpace.rev`.

    `level` holds -1 for every state `rev` lists, a list or a dict, and is
    filled in and returned. A state entry ``s`` in ``rev[t]`` fires at once
    when ``t`` is popped: a one-outcome pair wins with its one successor. An
    entry ``~p`` counts pair ``p``'s `pending` counter down, once per
    outcome, and fires when it reaches 0. Starting counters at the number of
    outcomes asks for every outcome to win (strong); starting at 1 asks for
    some outcome to reach (strong-cyclic); 0 disables the pair. The first
    entry to fire gives its state, or pair ``p``'s owner, a level one above
    the state that fired it. The queue is FIFO, so levels are BFS layers:
    for "some outcome" they are goal distances, for "every outcome" 1 + the
    max over the successors of the best pair. O(states + entries),
    iterative; `pending` is consumed.
    """
    queue = list(goals)
    for g in queue:
        level[g] = 0
    for t in queue:  # grows while it is read: a FIFO
        above = level[t] + 1
        for s in rev[t]:
            if s < 0:
                c = pending[~s]
                if c != 1:
                    pending[~s] = c - 1
                    continue
                s = owner[~s]  # a fired pair stays at 1; its owner has a level from then on
            if level[s] < 0:
                level[s] = above
                queue.append(s)
    return level


def solve(
    domain: PddlDomain,
    problem: PddlProblem,
    mode: SolveMode = SolveMode.STRONG_CYCLIC,
    limits: Limits | None = None,
    space: StateSpace | None = None,
) -> Policy:
    """Decide solvability and extract a deterministic policy.

    Strong mode is one "every outcome wins" :func:`_backward` pass,
    O(states + transitions). Strong-cyclic mode, the greatest fixpoint of
    Cimatti, Pistore, Roveri & Traverso (AIJ 147, 2003), is one "some
    outcome reaches" pass plus a re-levelling per wave of losers
    (:func:`_cyclic_levels`): the same plus each wave's region. A state
    takes the first action by name whose outcomes all win with a lower
    level (strong), or that stays winning with some outcome of lower level
    (strong-cyclic); the policy keeps those pairs, one :func:`_walk` from
    the initial state, and decodes no state. Raises :class:`Unsolvable`
    when the initial state is not winning.
    """
    if space is None:
        space = explore(domain, problem, limits)

    strong = mode is SolveMode.STRONG
    level = _backward(space.owner, space.rev, list(map(len, space.succs)), space.goal_states,
                      [-1] * len(space.rev)) if strong else _cyclic_levels(space)
    if level[0] < 0:
        raise Unsolvable(mode)
    first, name, succs = space.first, space.name, space.succs

    def choose(s: int) -> int:
        """The fitting pair of winning state `s` whose action name is least: every outcome wins with a
        lower level (`strong`), or every outcome wins and some has a lower level (strong-cyclic)."""
        mine, best = level[s], None
        for p in range(first[s], first[s + 1]):
            if best is None or name[p] < name[best]:
                lower = strong  # strong: no outcome may be at or above `mine`; else some must be below
                for t in succs[p]:
                    if level[t] < 0 or strong and level[t] >= mine:
                        break
                    lower = lower or level[t] < mine
                else:
                    best = p if lower else best
        return best

    policy = Policy(None, mode)
    policy._solved = space, *_walk(space, choose)
    verify_policy(space, policy)
    return policy


def _cyclic_levels(space: StateSpace) -> list[int]:
    """Goal distances over the greatest strong-cyclic winning set, -1 off it.

    One "some outcome reaches" :func:`_backward` pass; the states it misses
    are the first wave of losers. Each wave reads ``rev`` as that pass does
    and kills the multi-outcome pairs ``~p`` with an outcome in it; a
    one-outcome pair into a loser needs no flag, as its one successor stays
    at -1 for good. A state keeps its level while some live pair of it has
    an outcome at level - 1, and is checked, by a scan of its pairs, only
    when such a support edge goes. The states left without, closed along
    support edges, form the region, re-levelled by increasing level from
    the live edges that leave it; those not reached are the next wave: one
    fixpoint round per wave (decremental shortest paths; Even & Shiloach,
    JACM 1981). O(states + transitions) for the first pass, then per wave
    the edges into it and its region times their owners' out-degree, plus
    E log E for the E edges of the heap. Stops once the initial state
    loses, with nothing set up if the first pass lost it.
    """
    owner, succs, first, rev = space.owner, space.succs, space.first, space.rev
    level = _backward(owner, rev, [1] * len(owner), space.goal_states, [-1] * len(rev))
    if level[0] < 0:
        return level
    wave, dead = [s for s, d in enumerate(level) if d < 0], set()  # dead: the killed multi-outcome pairs

    def ends(r: int) -> list[int]:  # the levels the live pairs of r lead to, once per outcome
        return [level[u] for p in range(first[r], first[r + 1]) if p not in dead for u in succs[p]]

    def into(r: int) -> list[int]:  # the owners of the live pairs into r, once per outcome
        return [x if x >= 0 else owner[~x] for x in rev[r] if x >= 0 or ~x not in dead]

    def lost(s: int) -> None:  # a support edge of s went: s joins this wave's region unless another is left
        if s not in moved and level[s] - 1 not in ends(s):
            moved.add(s)
            region.append(s)
    while wave and level[0] >= 0:
        region, moved = [], set()
        for t in wave:
            for x in rev[t]:
                if x < 0 and ~x not in dead:
                    dead.add(~x)
                    if level[s := owner[~x]] > 0 and level[s] - 1 in [level[u] for u in succs[~x]]:
                        lost(s)
        for r in region:  # grows while it is read; support edges go one level down, so no cycle
            d, level[r] = level[r], -1  # first, so the scans of the states leaning on r skip it
            for s in into(r):
                if level[s] == d + 1:
                    lost(s)
        heap = sorted((d + 1, r) for r in region for d in ends(r) if d >= 0)  # sorted, so a heap
        while heap:
            d, r = heappop(heap)
            if level[r] < 0:
                level[r] = d
                for s in into(r):
                    if level[s] < 0 and s in moved:
                        heappush(heap, (d + 1, s))
        wave = [r for r in region if level[r] < 0]
    return level


def _walk(space: StateSpace, choose) -> tuple[list[int], dict[int, int]]:
    """The states a policy reaches from the initial state, in breadth-first
    order, and the pair ``choose(s)`` takes in each non-goal one, negative
    where none. Only a taken pair's outcomes are followed. O(reached states
    + their chosen outcomes), plus the work of `choose`."""
    succs, goals = space.succs, space.goal_states
    order, seen, chosen = [0], {0}, {}
    for s in order:  # grows while it is read: the BFS queue
        if s in goals:
            continue
        p = chosen[s] = choose(s)
        if p >= 0:
            for t in succs[p]:
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return order, chosen


def _policy_pairs(space: StateSpace, policy: Policy) -> tuple[list[int], dict[int, int]]:
    """:func:`_walk` of `policy` in `space`: the solver's own walk when `space` is the one it solved,
    else the pair named by `mapping` in each reached state, -1 where the state is unmapped and -2 where
    its action does not apply there. O(reached states + their pairs)."""
    if policy._solved is not None and policy._solved[0] is space:
        return policy._solved[1:]
    first, name, mapping = space.first, space.name, policy.mapping

    def choose(s: int) -> int:
        action = mapping.get(space.state(s))
        try:
            return name.index(action, first[s], first[s + 1])
        except ValueError:  # no pair of the state's is named `action`, or it is None
            return -1 if action is None else -2
    return _walk(space, choose)


class PolicyVerificationError(Exception):
    pass


def verify_policy(space: StateSpace, policy: Policy) -> None:
    """Check closure and the mode's success guarantee on the policy graph.

    :func:`_policy_pairs` follows the policy from the initial state; in
    every reached non-goal state its action must be mapped and applicable,
    unless the state has no applicable action at all (a non-goal leaf).
    Then one :func:`_backward` pass over the policy graph alone checks the
    mode. Its reverse edges take ``rev``'s form for the chosen pairs only: a
    one-outcome pair as its owner state, a multi-outcome pair ``p`` as
    ``~p`` per outcome, with its counter in a dict. So the pairs the policy
    did not choose, which the space's ``rev`` lists as bare states too,
    cannot fire. Strong asks every outcome to win, so the initial state wins
    exactly when the policy graph has no cycle and no non-goal leaf;
    strong-cyclic asks some outcome to reach, so every reached state must
    still reach a goal. O(reached states + their chosen outcomes),
    iterative. Raises :class:`PolicyVerificationError`.
    """
    strong = policy.kind is SolveMode.STRONG
    reached, chosen = _policy_pairs(space, policy)
    rev, pending = {s: [] for s in reached}, {}  # the policy graph's reverse edges and counters
    leaves = False
    for s, p in chosen.items():  # in the order reached
        if p == -1:
            if space.first[s] < space.first[s + 1]:
                raise PolicyVerificationError(f"policy is not closed: state {sorted(space.state(s))} unmapped")
            leaves = True
        elif p == -2:
            raise PolicyVerificationError(f"policy action {policy.mapping[space.state(s)]!r} not applicable")
        elif len(ts := space.succs[p]) == 1:
            rev[ts[0]].append(s)
        else:
            pending[p], q = len(ts) if strong else 1, ~p
            for t in ts:
                rev[t].append(q)

    goals = [s for s in reached if s in space.goal_states]
    level = _backward(space.owner, rev, pending, goals, dict.fromkeys(rev, -1))
    if strong and level[0] < 0:
        raise PolicyVerificationError(f"strong policy {'reaches a non-goal leaf' if leaves else 'revisits a state'}")
    if not strong and -1 in level.values():
        raise PolicyVerificationError("strong-cyclic policy can get stuck away from the goal")


# ---------------------------------------------------------------------------
# Trace enumeration


class Trace(Record):
    __slots__ = __match_args__ = ("steps", "terminal")
    def __init__(self, steps, terminal):
        self.steps: list[tuple[frozenset, str, int]] = steps
        self.terminal: str = terminal  # "goal" | "deadlock" | "cycle"


class TraceSet(Record):
    __slots__ = __match_args__ = ("traces",)
    def __init__(self, traces=None):
        self.traces: list[Trace] = [] if traces is None else traces


def enumerate_traces(
    domain: PddlDomain,
    problem: PddlProblem,
    policy: Policy | None = None,
    limits: Limits | None = None,
    space: StateSpace | None = None,
) -> TraceSet:
    """DFS enumeration of maximal traces over the explored state space.

    Under a policy only the outcome branches: a state descends into the
    outcomes of the pair :func:`_policy_pairs` chose there. In all mode
    (policy=None) both the action and the outcome branch. A trace ends at
    the goal, in a deadlock (including a state the policy leaves unmapped
    or maps to an inapplicable action), or at the first state it revisits
    (cycle cutoff), whose closing step counts. One explicit stack holds the
    states to enter, each with the step into it, and a leave marker for
    each state a step entered; moves are taken last first. Both trace
    limits apply to each trace recorded: a trace longer than
    ``limits.max_trace_len`` steps, or more than ``limits.max_traces``
    traces, is :class:`LimitExceeded`. Without `space` the problem is
    explored first, so ``limits.max_states`` applies as well.
    """
    limits = limits or Limits()
    if space is None:
        space = explore(domain, problem, limits)
    chosen = None if policy is None else _policy_pairs(space, policy)[1]
    first, name, succs, goals = space.first, space.name, space.succs, space.goal_states
    max_len, max_traces = limits.max_trace_len, limits.max_traces
    traces: list[Trace] = []

    def record(terminal: str, steps: list[tuple[int, str, int]]) -> None:
        """Keep the trace `steps`: the one place either limit is checked, length first."""
        if len(steps) > max_len:
            raise LimitExceeded(f"trace longer than {max_len} steps")
        if len(traces) >= max_traces:
            raise LimitExceeded(f"more than {max_traces} traces")
        traces.append(Trace([(space.state(s), a, o) for s, a, o in steps], terminal))

    steps: list[tuple[int, str, int]] = []  # (state index, action, outcome) from the initial state
    on_path: set[int] = set()
    todo: list = [(0, None)]  # (a state to enter, the step into it), or the index of a state to leave
    while todo:
        entry = todo.pop()
        if type(entry) is int:  # all pushed after it is done
            on_path.remove(entry)
            steps.pop()
            continue
        s, step = entry
        on_path.add(s)
        if step:  # the initial state is entered by no step, and never left
            steps.append(step)
            todo.append(s)
        if s in goals:
            record("goal", steps)
            continue
        pairs = range(first[s], first[s + 1]) if chosen is None else () if chosen[s] < 0 else (chosen[s],)
        if not pairs:
            record("deadlock", steps)
        for p in pairs:
            for o, t in enumerate(succs[p]):
                if t in on_path:
                    record("cycle", [*steps, (s, name[p], o)])
                else:
                    todo.append((t, (s, name[p], o)))
    return TraceSet(traces)


def traces_to_json(traces: TraceSet) -> list[dict]:
    return [
        {
            "steps": [
                {"state": sorted(state), "action": action, "outcome": outcome}
                for state, action, outcome in trace.steps
            ],
            "terminal": trace.terminal,
        }
        for trace in traces.traces
    ]


# ---------------------------------------------------------------------------
# Reports and exports


class CheckReport(Record):
    __slots__ = __match_args__ = ("problem_name", "variant", "n_states", "n_deadlocks", "strong", "strong_cyclic",
                                  "space")
    def __init__(self, problem_name, variant, n_states, n_deadlocks, strong, strong_cyclic, space):
        self.problem_name: str = problem_name
        self.variant: str = variant
        self.n_states: int = n_states
        self.n_deadlocks: int = n_deadlocks
        self.strong: Policy | None = strong
        self.strong_cyclic: Policy | None = strong_cyclic
        self.space: StateSpace = space


def analyze(
    domain: PddlDomain,
    problem: PddlProblem,
    modes: tuple[SolveMode, ...] = (SolveMode.STRONG, SolveMode.STRONG_CYCLIC),
    limits: Limits | None = None,
) -> CheckReport:
    """Explore the problem once and solve it in each of `modes`, strong first;
    a mode not asked for, or with no policy, reports None."""
    space = explore(domain, problem, limits)
    policies: dict[SolveMode, Policy] = {}
    for mode in SolveMode:
        if mode in modes:
            try:
                policies[mode] = solve(domain, problem, mode, limits, space)
            except Unsolvable:
                pass
    return CheckReport(
        problem_name=problem.name,
        variant=problem.variant,
        n_states=len(space.masks),
        n_deadlocks=len(space.deadlock_states),
        strong=policies.get(SolveMode.STRONG),
        strong_cyclic=policies.get(SolveMode.STRONG_CYCLIC),
        space=space,
    )


def export_policy_dot(
    domain: PddlDomain, problem: PddlProblem, policy: Policy, space: StateSpace | None = None
) -> str:
    """DOT digraph of the policy: states labeled by their true predicates,
    edges labeled action/outcome, each name escaped, goal states
    double-circled. Node ``s<i>`` is the i-th state :func:`_policy_pairs`
    reaches in `space`, and each outcome of the pair it takes there is an
    edge; the problem is explored first when `space` is None."""
    if space is None:
        space = explore(domain, problem)
    order, chosen = _policy_pairs(space, policy)
    ids = {s: f"s{i}" for i, s in enumerate(order)}

    lines = ["digraph policy {", "  rankdir=LR;"]
    for s in order:
        label = "\\n".join(map(_dot_escape, sorted(space.state(s)))) or "{}"
        shape = "doublecircle" if s in space.goal_states else "box"
        lines.append(f'  {ids[s]} [shape={shape} label="{label}"];')
    for s, p in chosen.items():
        if p >= 0:
            name, succs = _dot_escape(space.name[p]), space.succs[p]
            for o, t in enumerate(succs):
                label = name if len(succs) == 1 else f"{name}/{o}"
                lines.append(f'  {ids[s]} -> {ids[t]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

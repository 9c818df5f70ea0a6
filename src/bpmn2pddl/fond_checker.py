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
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, islice, product, repeat
from operator import sub

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

    def atoms(m: int) -> frozenset:
        return frozenset(preds[i] for i in _bits(m))

    grounded = []
    for _a, pre, name, add, keep, outs in _compile(domain, {p: 1 << i for i, p in enumerate(preds)}):
        pairs = outs or [(add, keep)]
        grounded.append(GroundAction(name, atoms(pre), tuple(Outcome(atoms(a), atoms(~k & ~a)) for a, k in pairs)))
    return grounded


def _compile(domain: PddlDomain, power: dict[str, int]) -> list[tuple]:
    """Validate `domain` and compile each action into the record
    ``(index, pre, name, add, keep, outs)`` over the bit table `power`
    (predicate -> its power of two).

    One walk of the effect tree ORs each atom into the common part or into
    the outcome of the ``oneof`` it sits in. The outcomes are the
    ``product`` of the ``oneof`` groups in tree order, each an add mask and
    a keep mask (the complement of its deletes), so a successor is
    ``state & keep | add`` and an add wins over a delete. An action with
    one outcome has it in ``add`` and ``keep`` and ``outs`` None; any other
    has the tuple of its ``(add, keep)`` pairs in ``outs``. A ``oneof``
    inside a ``oneof`` is :class:`UnsupportedFeature`.
    """
    _validate_domain(domain)
    records = []
    for a, action in enumerate(domain.actions):
        pre = 0
        for p in action.precondition:
            pre |= power[p]
        parts = [[0, 0]]  # [add, delete] of the common part, then of each oneof outcome
        groups = []  # per oneof, in tree order: its outcomes' parts
        todo = [(action.effect, 0)]  # an explicit stack of (node, its part); children reversed: tree order
        while todo:
            node, k = todo.pop()
            if isinstance(node, EffAdd):
                parts[k][0] |= power[node.pred]
            elif isinstance(node, EffNot):
                parts[k][1] |= power[node.pred]
            elif isinstance(node, EffAnd):
                todo.extend((item, k) for item in reversed(node.items))
            elif k:
                raise UnsupportedFeature("nested oneof effects are outside the supported subset")
            else:
                todo.extend((o, len(parts) + j) for j, o in enumerate(node.outcomes))
                groups.append(group := [[0, 0] for _ in node.outcomes])
                parts += group
        outs = []
        for combo in product(*groups):
            add, dele = parts[0]
            for x, d in combo:
                add |= x
                dele |= d
            outs.append((add, ~dele))
        one = len(outs) == 1  # its (add, keep) in the record, else the outcomes' pairs
        records.append((a, pre, action.name, *outs[0], None) if one else (a, pre, action.name, 0, -1, tuple(outs)))
    return records


# ---------------------------------------------------------------------------
# Exhaustive exploration


class StateSpace(Record):
    """The explored transition system, with integer bitmask states.

    State ``s`` is the int ``masks[s]``; bit ``i`` is predicate ``preds[i]``.
    Pair ``p`` is action ``name[p]`` applied in state ``owner[p]``, with each
    outcome's successor in ``succs[p]``; state ``s`` has the pairs
    ``range(first[s], first[s + 1])``, in domain order, and ``rev[t]`` lists
    the pairs leading to ``t``, once per outcome. Successors are immutable
    tuples, and every one-outcome pair into ``t`` shares the one ``(t,)``:
    per state the space holds a mask, a ``rev`` list and that tuple, per
    pair list entries and, for a multi-outcome pair, its own tuple, so its
    size is O(states + transitions). ``actions`` maps each action name to
    its outcomes' add masks, in outcome order. :meth:`state` decodes one
    state from its set bits, once, so the solvers, traces and DOT export
    decode only the states they touch; ``states`` and ``transitions`` decode
    the whole space, once, on first use.
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
            state = self._decoded[s] = frozenset(self.preds[i] for i in _bits(self.masks[s]))
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


def _bits(mask: int):
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def explore(domain: PddlDomain, problem: PddlProblem, limits: Limits | None = None) -> StateSpace:
    """BFS over every state reachable from init via every outcome.

    The domain is compiled once, straight from its effect trees
    (:func:`_compile`), into int bitmasks over a bit per declared
    predicate, then per init or goal atom the domain lacks. Each action's
    record is filed under its marker, the precondition bit the fewest
    actions need (ties to the lowest bit), keyed by that bit's power of
    two, so a state peels its marked bits off with ``m & -m``. A state
    tests only the records filed under its set bits, plus those with no
    precondition, in domain order, so states, transitions and the solvers'
    (state, action) pairs come out in the order a scan over every action
    gives. A state with one marked bucket tests that bucket's list as it
    is, and the merged list is sorted only when the buckets, taken in bit
    order, are not already in domain order.

    Successors are immutable tuples. A state's ``(t,)`` is made when the
    state is found and shared by every one-outcome pair that leads to it;
    only a multi-outcome pair gets a tuple of its own. So each state
    allocates its mask, its ``rev`` list and that tuple, and each pair
    only entries of flat lists, and ``owner`` is expanded from ``first``
    after the search. O(states + transitions).
    """
    limits = limits or Limits()
    power = {p: 1 << i for i, p in enumerate(dict.fromkeys([*domain.predicates, *problem.init, *problem.goal]))}
    records = _compile(domain, power)
    need: dict[int, int] = {}  # precondition bit -> how many actions need it
    for record in records:
        for b in _bits(record[1]):
            need[b] = need.get(b, 0) + 1
    filed: dict[int, list[tuple]] = {}  # marker power of two (0: no precondition) -> records, in domain order
    for record in records:
        b = min(_bits(record[1]), key=need.__getitem__, default=-1)
        filed.setdefault(1 << b if b >= 0 else 0, []).append(record)
    always = filed.pop(0, [])
    markers = sum(filed)
    ordered = [*always, *chain.from_iterable(filed[k] for k in sorted(filed))] == records
    init, goal = sum({power[p] for p in problem.init}), sum({power[p] for p in problem.goal})

    masks, index, rev, alone = [init], {init: 0}, [[]], [(0,)]  # alone[t] is the tuple (t,)
    name, succs, first = [], [], []
    goal_states, deadlock_states = set(), set()
    n, pairs, max_states = 1, 0, limits.max_states  # len(masks), len(name)
    for s, state in enumerate(masks):  # grows while it is read: the BFS queue
        first.append(pairs)
        m = state & markers
        if not m:
            candidates = always
        elif not (always or m & (m - 1)):  # one marked bucket
            candidates = filed[m]
        else:
            candidates = always[:]
            while m:
                low = m & -m
                candidates += filed[low]
                m ^= low
            if not ordered:
                candidates.sort()
        for _a, pre, nm, add, keep, outs in candidates:
            if state & pre != pre:
                continue
            name.append(nm)
            if outs is None:
                succ = state & keep | add
                t = index.get(succ)
                if t is None:
                    if n >= max_states:
                        raise _state_limit(limits, n, s, first, rev)
                    t = index[succ] = n
                    n += 1
                    masks.append(succ)
                    rev.append([])
                    alone.append((t,))
                rev[t].append(pairs)
                succs.append(alone[t])
            else:
                out = []
                for add, keep in outs:
                    succ = state & keep | add
                    t = index.get(succ)
                    if t is None:
                        if n >= max_states:
                            raise _state_limit(limits, n, s, first, rev)
                        t = index[succ] = n
                        n += 1
                        masks.append(succ)
                        rev.append([])
                        alone.append((t,))
                    rev[t].append(pairs)
                    out.append(t)
                succs.append(tuple(out))
            pairs += 1
        if state & goal == goal:
            goal_states.add(s)
        elif first[s] == pairs:
            deadlock_states.add(s)
    first.append(pairs)
    owner = list(chain.from_iterable(map(repeat, range(n), map(sub, first[1:], first))))
    adds = {nm: (add,) if outs is None else tuple(x for x, _ in outs) for _a, _p, nm, add, _k, outs in records}
    return StateSpace(masks, list(power), owner, name, succs, first, rev, goal_states, deadlock_states, adds)


def _state_limit(limits: Limits, states: int, s: int, first: list[int], rev: list[list[int]]) -> LimitExceeded:
    """The error for a search that found `states` states, more than
    `limits` allows, while expanding state `s`: how far it got."""
    depth, u = 0, s
    while u:  # back along the pairs that discovered each state; pair p's owner is the last u with first[u] <= p
        depth, u = depth + 1, bisect_right(first, rev[u][0]) - 1
    exc = LimitExceeded(f"more than {limits.max_states} states reachable")
    exc.states, exc.expanded, exc.frontier, exc.depth = states, s, states - s, depth
    return exc


# ---------------------------------------------------------------------------
# Policies


class Policy(Record):
    __slots__ = __match_args__ = ("mapping", "kind")
    def __init__(self, mapping, kind):
        self.mapping: dict[frozenset, str] = mapping
        self.kind: SolveMode = kind


def _backward(owner: list[int], rev: list[list[int]], pending: list[int], goals) -> list[int]:
    """Backward induction from `goals` over (state, successor-list) pairs.

    A pair fires when its `pending` counter reaches 0; each popped successor
    decrements it once per outcome. Starting counters at the number of
    outcomes asks for every outcome to win (strong); starting at 1 asks for
    some outcome to reach (strong-cyclic); 0 disables the pair. The first
    pair to fire gives its owner a level one above the state that fired it.
    The queue is FIFO, so levels are BFS layers: for "some outcome" they are
    goal distances, for "every outcome" 1 + the max over the successors of
    the best pair. Returns the level of each state of `rev`, -1 where
    none. O(states + transitions), iterative; `pending` is consumed.
    """
    level = [-1] * len(rev)
    queue = list(goals)
    for g in queue:
        level[g] = 0
    for t in queue:  # grows while it is read: a FIFO
        above = level[t] + 1
        for p in rev[t]:
            c = pending[p]
            if c != 1:
                pending[p] = c - 1
            elif level[s := owner[p]] < 0:  # a fired pair stays at 1; its owner has a level from then on
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
    (strong-cyclic). Raises :class:`Unsolvable` when the initial state is
    not winning.
    """
    if space is None:
        space = explore(domain, problem, limits)

    if mode is SolveMode.STRONG:
        level = _backward(space.owner, space.rev, list(map(len, space.succs)), space.goal_states)

        def fits(succs: tuple[int, ...], mine: int) -> bool:
            return all(0 <= level[t] < mine for t in succs)

    else:
        level = _cyclic_levels(space)

        def fits(succs: tuple[int, ...], mine: int) -> bool:
            return all(level[t] >= 0 for t in succs) and any(level[t] < mine for t in succs)

    if level[0] < 0:
        raise Unsolvable(mode)
    policy = Policy(mapping=_extract(space, level, fits), kind=mode)
    verify_policy(space, policy)
    return policy


def _cyclic_levels(space: StateSpace) -> list[int]:
    """Goal distances over the greatest strong-cyclic winning set, -1 off it.

    One "some outcome reaches" :func:`_backward` pass; the states it misses
    are the first wave of losers. A wave disables the pairs with an outcome
    in it. A state keeps its level while it has support, a live edge into
    level - 1; the states left without, closed along support edges, form
    the region, re-levelled by increasing level from the live edges that
    leave it. Region states not reached are the next wave: one fixpoint
    round per wave (decremental shortest paths; Even & Shiloach, JACM 1981).
    O(states + transitions), plus E log E for the E edges of each wave's
    region. Stops once the initial state loses.
    """
    owner, rev, succs, first = space.owner, space.rev, space.succs, space.first
    level = _backward(owner, rev, [1] * len(owner), space.goal_states)
    wave = [s for s, d in enumerate(level) if d < 0]
    if not wave:
        return level
    live = [True] * len(owner)

    def ends(r: int) -> list[int]:  # the levels the live pairs of r lead to, once per outcome
        return [level[u] for p in range(first[r], first[r + 1]) if live[p] for u in succs[p]]

    def leaning(r: int) -> list[int]:  # the states outside the region r supports, once per edge
        return [owner[p] for p in rev[r] if live[p] and level[owner[p]] - 1 == level[r] and owner[p] not in moved]
    support = [ends(s).count(d - 1) if d > 0 else 0 for s, d in enumerate(level)]
    while wave and level[0] >= 0:
        region, moved = [], set()
        for t in wave:
            for p in rev[t]:
                if live[p] and level[s := owner[p]] > 0:
                    support[s] -= [level[u] for u in succs[p]].count(level[s] - 1)
                    if not support[s] and s not in moved:
                        moved.add(s)
                        region.append(s)
                live[p] = False
        for r in region:  # grows while it is read; support edges go one level down, so no cycle
            for s in leaning(r):
                support[s] -= 1
                if not support[s]:
                    moved.add(s)
                    region.append(s)
            level[r] = -1  # its supporters are counted down
        heap = sorted((d + 1, r) for r in region for d in ends(r) if d >= 0)  # sorted, so a heap
        while heap:
            d, r = heappop(heap)
            if level[r] < 0:
                level[r] = d
                for p in rev[r]:
                    if live[p] and level[owner[p]] < 0 and owner[p] in moved:
                        heappush(heap, (d + 1, owner[p]))
        wave = [r for r in region if level[r] < 0]
        for r in moved.difference(wave):
            support[r] = ends(r).count(level[r] - 1)
            for s in leaning(r):
                support[s] += 1
    return level


def _extract(space: StateSpace, level: list[int], fits) -> dict[frozenset, str]:
    """Choose an action for each winning state the policy reaches from init."""
    first, name, succs, goals = space.first, space.name, space.succs, space.goal_states
    mapping: dict[frozenset, str] = {}
    seen = {0}
    queue = [0]
    for s in queue:
        if s in goals:
            continue
        mine, best = level[s], None
        for p in range(first[s], first[s + 1]):  # the fitting pair whose action name is least
            if (best is None or name[p] < name[best]) and fits(succs[p], mine):
                best = p
        mapping[space.state(s)] = name[best]
        for t in succs[best]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return mapping


class PolicyVerificationError(Exception):
    pass


def verify_policy(space: StateSpace, policy: Policy) -> None:
    """Check closure and the mode's success guarantee on the policy graph.

    A breadth-first pass from the initial state follows the policy's action
    in every reached non-goal state; it must be mapped and applicable there,
    unless the state has no applicable action at all (a non-goal leaf).
    Then one :func:`_backward` pass over the space's own edges, with only
    the chosen pairs enabled, checks the mode: strong asks every outcome to
    win, so the initial state wins exactly when the policy graph has no
    cycle and no non-goal leaf; strong-cyclic asks some outcome to reach,
    so every reached state must still reach a goal. O(states + transitions),
    iterative. Raises :class:`PolicyVerificationError`.
    """
    strong = policy.kind is SolveMode.STRONG
    pending = [0] * len(space.owner)  # only the chosen pairs can fire
    seen = {0}
    reached = [0]
    leaves = False
    for s in reached:
        if s in space.goal_states:
            continue
        state = space.state(s)
        name = policy.mapping.get(state)
        mine = range(space.first[s], space.first[s + 1])
        if name is None:
            if mine:
                raise PolicyVerificationError(f"policy is not closed: state {sorted(state)} unmapped")
            leaves = True
            continue
        p = next((p for p in mine if space.name[p] == name), None)
        if p is None:
            raise PolicyVerificationError(f"policy action {name!r} not applicable")
        pending[p] = len(space.succs[p]) if strong else 1
        for t in space.succs[p]:
            if t not in seen:
                seen.add(t)
                reached.append(t)

    level = _backward(space.owner, space.rev, pending, [s for s in reached if s in space.goal_states])
    if strong and level[0] < 0:
        raise PolicyVerificationError(f"strong policy {'reaches a non-goal leaf' if leaves else 'revisits a state'}")
    if not strong and any(level[s] < 0 for s in reached):
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

    Under a policy only the outcome branches; in all mode (policy=None)
    both the action and the outcome branch. A trace ends at the goal, in
    a deadlock (including a state the policy leaves unmapped or maps to an
    inapplicable action), or at the first state it revisits (cycle
    cutoff). Without `space` the problem is explored first, so
    ``limits.max_states`` applies as well as the trace limits.
    """
    limits = limits or Limits()
    if space is None:
        space = explore(domain, problem, limits)
    result = TraceSet()

    def record(terminal: str, steps: list[tuple[int, str, int]]) -> None:
        if len(result.traces) >= limits.max_traces:
            raise LimitExceeded(f"more than {limits.max_traces} traces")
        result.traces.append(Trace([(space.state(s), a, o) for s, a, o in steps], terminal))

    def visit(s: int) -> list[tuple[str, int, int]]:
        """Record the traces that end at or right after `s`; return the moves to descend into."""
        if len(steps) > limits.max_trace_len:
            raise LimitExceeded(f"trace longer than {limits.max_trace_len} steps")
        if s in space.goal_states:
            record("goal", steps)
            return []
        moves = space.moves(s)
        if policy is not None:
            chosen = policy.mapping.get(space.state(s))
            moves = [m for m in moves if m[0] == chosen]
        if not moves:
            record("deadlock", steps)
            return []
        descend = []
        for name, oidx, t in moves:
            if t in on_path:
                record("cycle", [*steps, (s, name, oidx)])
            else:
                descend.append((name, oidx, t))
        return descend  # popped from the end, so the last move is explored first

    steps: list[tuple[int, str, int]] = []  # (state index, action, outcome) from the initial state
    on_path = {0}
    todo = [(0, visit(0))]  # per state on the path: the moves not yet descended into
    while todo:
        s, moves = todo[-1]
        if not moves:
            todo.pop()
            on_path.discard(s)
            if steps:
                steps.pop()
            continue
        name, oidx, t = moves.pop()
        steps.append((s, name, oidx))
        on_path.add(t)
        todo.append((t, visit(t)))
    return result


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
    space = explore(domain, problem, limits)
    strong = cyclic = None
    if SolveMode.STRONG in modes:
        try:
            strong = solve(domain, problem, SolveMode.STRONG, limits, space)
        except Unsolvable:
            strong = None
    if SolveMode.STRONG_CYCLIC in modes:
        try:
            cyclic = solve(domain, problem, SolveMode.STRONG_CYCLIC, limits, space)
        except Unsolvable:
            cyclic = None
    return CheckReport(
        problem_name=problem.name,
        variant=problem.variant,
        n_states=len(space.masks),
        n_deadlocks=len(space.deadlock_states),
        strong=strong,
        strong_cyclic=cyclic,
        space=space,
    )


def export_policy_dot(
    domain: PddlDomain, problem: PddlProblem, policy: Policy, space: StateSpace | None = None
) -> str:
    """DOT digraph of the policy: states labeled by their true predicates,
    edges labeled action/outcome, each name escaped, goal states
    double-circled. Walks the policy's edges in `space`, exploring the
    problem first when it is None."""
    if space is None:
        space = explore(domain, problem)

    order = [0]  # state indices in breadth-first order; state order[i] is node s<i>
    ids = {0: "s0"}
    edges: list[tuple[str, str, str]] = []
    for s in order:
        if s in space.goal_states:
            continue
        name = policy.mapping.get(space.state(s))
        moves = [(oidx, t) for a, oidx, t in space.moves(s) if a == name]
        for oidx, t in moves:
            if t not in ids:
                ids[t] = f"s{len(order)}"
                order.append(t)
            label = name if len(moves) == 1 else f"{name}/{oidx}"
            edges.append((ids[s], ids[t], label))

    lines = ["digraph policy {", "  rankdir=LR;"]
    for s in order:
        label = "\\n".join(map(_dot_escape, sorted(space.state(s)))) or "{}"
        shape = "doublecircle" if s in space.goal_states else "box"
        lines.append(f'  {ids[s]} [shape={shape} label="{label}"];')
    for src, dst, label in edges:
        lines.append(f'  {src} -> {dst} [label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

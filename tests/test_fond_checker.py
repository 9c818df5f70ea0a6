"""Tests for PDDL parsing, grounding, exploration, solving, and traces."""

from __future__ import annotations

import contextlib
import copy
import io
import random
import re
import sys
import tempfile
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpmn2pddl import cli, fond_checker
from bpmn2pddl.bpmn_parser import parse_bpmn
from bpmn2pddl.fond_checker import (
    LimitExceeded,
    Limits,
    PddlSyntaxError,
    Policy,
    PolicyVerificationError,
    SolveMode,
    Unsolvable,
    UnsupportedFeature,
    analyze,
    enumerate_traces,
    explore,
    export_policy_dot,
    ground_domain,
    parse_pddl,
    solve,
    traces_to_json,
    verify_policy,
)
from bpmn2pddl.pddl_encoder import (
    DoneMode,
    EffAdd,
    EffAnd,
    EffOneOf,
    EffNot,
    PddlAction,
    PddlDomain,
    PddlProblem,
    emit_domain,
    emit_problems,
    render_pddl,
)
from bpmn2pddl.process_graph import MessageStrategy, build_graph
from conftest import CORPUS_DIR, CORPUS_FILES, bench_module, double_adds, fixture, token_double_adds, translate
import reference_solver
from reference_solver import applicable, apply, reference_mapping, reference_read, round_levels
from test_growth import _calls
from test_process_graph import _review_chain

FIG_DOMAIN = """(define (domain credit_scoring)
(:requirements :strips :typing)
(:types task event gateway)
(:predicates
  (StartEvent_1els7eb)
  (EventBasedGateway_02s95tm)
  (IntermediateCatchEvent_0ujob24)
  (IntermediateCatchEvent_0yg7cuh)
  (ExclusiveGateway_11dldcm)
)
(:action request_credit_score
:precondition (and (StartEvent_1els7eb))
:effect (and (EventBasedGateway_02s95tm)
         (not (StartEvent_1els7eb))))
(:action event_EventBasedGateway_02s95tm
:precondition (and (EventBasedGateway_02s95tm))
:effect (and (oneof (IntermediateCatchEvent_0ujob24)
             (and (IntermediateCatchEvent_0yg7cuh)
                  (ExclusiveGateway_11dldcm)))
         (not (EventBasedGateway_02s95tm))))
)
"""

LINEAR = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:process id="P1" name="Linear">
    <bpmn:startEvent id="S1"/>
    <bpmn:task id="T1" name="work"/>
    <bpmn:endEvent id="E1"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="T1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>
  </bpmn:process>
</bpmn:definitions>"""

DIAMOND = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:process id="P1" name="Diamond">
    <bpmn:startEvent id="S1"/>
    <bpmn:parallelGateway id="Split"/>
    <bpmn:task id="B1" name="left"/>
    <bpmn:task id="B2" name="right"/>
    <bpmn:parallelGateway id="Join"/>
    <bpmn:endEvent id="E1"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="Split"/>
    <bpmn:sequenceFlow id="F2" sourceRef="Split" targetRef="B1"/>
    <bpmn:sequenceFlow id="F3" sourceRef="Split" targetRef="B2"/>
    <bpmn:sequenceFlow id="F4" sourceRef="B1" targetRef="Join"/>
    <bpmn:sequenceFlow id="F5" sourceRef="B2" targetRef="Join"/>
    <bpmn:sequenceFlow id="F6" sourceRef="Join" targetRef="E1"/>
  </bpmn:process>
</bpmn:definitions>"""


FIXTURES = (
    "inclusive_pair.bpmn",
    "loop_retry.bpmn",
    "msg_task_event.bpmn",
    "msg_task_task.bpmn",
    "xor_and_deadlock.bpmn",
)


def _pipeline(xml: str, strategy=MessageStrategy.IGNORE):
    graph = build_graph(parse_bpmn(xml), strategy)
    domain = emit_domain(graph)
    problems = emit_problems(graph)
    return domain, problems


GEN = bench_module("gen")


# the unicode characters are whitespace to str.isspace(), and only "\n" ends a line
READER_PIECES = ["(", ")", ";", "a", "b", "Z", ":", "\n", "\r\n", "\t", " ", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]

DOMAIN_WORDS = [
    "(", ")", ")", ")", "()", "(p)", "(q)", "(p ?x)", "(:requirements", ":strips", ":non-deterministic",
    "(:types", "task", "(:predicates", "(:action", "a", "b", ":parameters", ":precondition", ":effect",
    ":precondition (p)", ":effect (and", ":effect (oneof", ":effect (q)", "(and", "(not", "(oneof", "(when",
    "(:constants", "(:functions", "define", "; c\n", "\n",
]
ACTION_FRAME = "(:predicates (p) (q)) (:action a "
SECTION_WORDS = [  # heads, problem sections and whole forms, for the soups of `test_parse_matches_reference`
    "(define", "(domain", "(problem", "(:domain", "d", "(:init", "(:goal", "(:objects", "(:state", "(d)", "(p q)",
    "(:domain d)", "(:goal (p))", "(:init (p))", ":parameters ()", ":parameters (x)", "((p))", "(not (p))",
    "(oneof (p) (q))", ":effect (oneof)", "(r)", "(:action a :effect (p))", "(:predicates (p) (p))",
    "(:requirements :strips :strips)",
]
SOUP_FRAMES = ["", "(define (domain d) ", "(define (domain d) " + ACTION_FRAME, "(define (problem p) ", "(define "]


def _parse_outcome(parse, text):
    """The record `parse` reads from `text`, or the type and text of the error it raises."""
    try:
        return parse(text)
    except (PddlSyntaxError, UnsupportedFeature) as exc:
        return type(exc), str(exc)


def _balanced(frame, words):
    """`frame` and `words` joined, each unmatched ")" dropped and each open form closed."""
    depth, kept = frame.count("(") - frame.count(")"), [frame]
    for word in words:
        depth += word.count("(") - word.count(")")
        if depth < 0:
            depth = 0
            continue
        kept.append(word)
    return " ".join(kept) + ")" * depth


class TestParsePddl:
    def test_figure_action_parses_to_two_outcome_oneof(self):
        domain = parse_pddl(FIG_DOMAIN)
        assert isinstance(domain, PddlDomain)
        gateway = domain.actions[1]
        oneof = gateway.effect.items[0]
        assert isinstance(oneof, EffOneOf)
        assert len(oneof.outcomes) == 2
        grounded = ground_domain(domain)
        assert len(grounded[1].outcomes) == 2

    def test_when_rejected(self):
        text = FIG_DOMAIN.replace(
            "(and (EventBasedGateway_02s95tm)\n         (not (StartEvent_1els7eb)))",
            "(when (StartEvent_1els7eb) (EventBasedGateway_02s95tm))",
        )
        with pytest.raises(UnsupportedFeature):
            parse_pddl(text)

    def test_nested_oneof_rejected(self):
        text = (
            "(define (domain d)\n"
            "  (:predicates (a) (b) (c))\n"
            "  (:action act\n"
            "    :precondition (and (a))\n"
            "    :effect (and (oneof (oneof (b) (c)) (b)) (not (a)))\n"
            "  )\n"
            ")\n"
        )
        with pytest.raises(UnsupportedFeature):
            parse_pddl(text)

    @pytest.mark.parametrize("precondition", ["(and (p) (not (q)))", "(not (q))"])
    def test_negative_precondition_rejected(self, precondition):
        text = f"(define (domain d) (:predicates (p) (q)) (:action a :precondition {precondition} :effect (q)))"
        with pytest.raises(UnsupportedFeature, match="^negative preconditions are outside the supported subset$"):
            parse_pddl(text)

    def test_bare_delete_effect(self):
        domain = parse_pddl("(define (domain d) (:predicates (p)) (:action a :precondition (p) :effect (not (p))))")
        assert domain.actions[0].effect == EffAnd([EffNot("p")])
        (action,) = ground_domain(domain)
        assert [(set(o.adds), set(o.dels)) for o in action.outcomes] == [(set(), {"p"})]

    def test_predicate_arguments_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_pddl("(define (domain d) (:predicates (at ?x)))")

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(PddlSyntaxError, match="expected define"):
            parse_pddl("(" * 5000 + ")" * 5000)
        with pytest.raises(PddlSyntaxError, match=r"missing \) \(line 1, column 5000\)"):
            parse_pddl("(" * 5000)

    def test_deeply_nested_and_effect_is_spliced(self):
        depth = 3000
        effect = "(and " * depth + "(q) (not (p))" + ")" * depth
        text = f"(define (domain d) (:predicates (p) (q)) (:action a :precondition (p) :effect {effect}))"
        domain = parse_pddl(text)
        assert domain.actions[0].effect == EffAnd([EffAdd("q"), EffNot("p")])
        (action,) = ground_domain(domain)
        assert [(set(o.adds), set(o.dels)) for o in action.outcomes] == [({"q"}, {"p"})]
        nested = "(oneof (and (and (p)) (q)) " + "(and " * depth + "(q)" + ")" * depth + ")"
        domain = parse_pddl(text.replace(effect, f"(and {nested} (not (p)))"))
        assert domain.actions[0].effect == EffAnd(
            [EffOneOf([EffAnd([EffAdd("p"), EffAdd("q")]), EffAnd([EffAdd("q")])]), EffNot("p")]
        )

    def test_deep_effect_built_in_python_grounds_and_explores(self):
        deep = EffAnd([EffAdd("q"), EffNot("p")])
        for _ in range(3000):
            deep = EffAnd([deep])
        domain = PddlDomain("d", [":strips"], [], ["p", "q", "r"], [PddlAction("a", ["p"], deep)])
        (action,) = ground_domain(domain)
        assert [(set(o.adds), set(o.dels)) for o in action.outcomes] == [({"q"}, {"p"})]
        space = explore(domain, PddlProblem("p", "d", ["p"], ["q"]))
        assert space.states == [frozenset({"p"}), frozenset({"q"})]
        branchy = EffAnd([EffOneOf([deep, EffAnd([EffAdd("r")])])])
        domain.actions = [PddlAction("a", ["p"], branchy)]
        (action,) = ground_domain(domain)
        assert [(set(o.adds), set(o.dels)) for o in action.outcomes] == [({"q"}, {"p"}), ({"r"}, set())]
        nested = EffAnd([EffOneOf([EffAnd([EffAdd("q")]), EffAnd([deep, EffOneOf([EffAdd("r")])])])])
        domain.actions = [PddlAction("a", ["p"], nested)]
        with pytest.raises(UnsupportedFeature, match="nested oneof"):
            ground_domain(domain)

    def test_reader_error_positions(self):
        cases = [
            ("(define (domain d)\n  (:predicates (p)", "missing ) (line 2, column 3)"),
            ("(define (domain d)) )", "trailing input ')' (line 1, column 21)"),
            ("(define (domain d)) x", "trailing input 'x' (line 1, column 21)"),
            (")", "unexpected ) (line 1, column 1)"),
            ("\n  define", "expected a parenthesized form (line 2, column 3)"),
            ("x define (domain d))", "trailing input 'define' (line 1, column 3)"),
            (") define (domain d))", "unexpected ) (line 1, column 1)"),
            (") define (problem p) (:goal (p)))", "unexpected ) (line 1, column 1)"),
        ]
        for text, message in cases:
            with pytest.raises(PddlSyntaxError) as exc:
                parse_pddl(text)
            assert str(exc.value) == message

    def test_section_error_positions(self):
        domain = "(define (domain d)\n  (:predicates (p) (q))\n"
        action = domain + "  (:action a\n"
        problem = "(define (problem p)\n  (:domain d)\n"
        cases = [  # one case per positioned raise of the section readers
            ("(defin\n  (domain d))", "expected (define ...) (line 1, column 1)"),
            ("(\n  (define) (domain d))", "expected define (line 2, column 3)"),
            ("(define\n  x)", "expected (domain NAME) or (problem NAME) (line 1, column 1)"),
            ("(define\n  (task d))", "expected domain or problem, got 'task' (line 2, column 3)"),
            ("(define\n  ((domain) d))", "expected domain or problem (line 2, column 4)"),
            ("(define\n  (domain))", "domain has no name (line 2, column 3)"),
            ("(define\n  (domain (d)))", "expected a domain name (line 2, column 11)"),
            (domain + "  :requirements)", "expected a (:section ...) (line 3, column 3)"),
            (domain + "  ())", "expected a (:section ...) (line 3, column 3)"),
            (domain + "  ((:types) task))", "expected a section tag (line 3, column 4)"),
            (domain + "  (:requirements (:strips)))", "expected a requirement flag (line 3, column 18)"),
            (domain + "  (:types task (event)))", "expected a type name (line 3, column 16)"),
            (domain + "  (:predicate (p)))", "unknown domain section ':predicate' (line 3, column 3)"),
            ("(define (domain d)\n  (:predicates p))", "expected a (predicate) atom (line 2, column 16)"),
            ("(define (domain d)\n  (:predicates ()))", "expected a (predicate) atom (line 2, column 16)"),
            ("(define (domain d)\n  (:predicates ((p))))", "expected a predicate name (line 2, column 17)"),
            (domain + "  (:action))", "action has no name (line 3, column 3)"),
            (domain + "  (:action (a)))", "expected an action name (line 3, column 12)"),
            (action + "    (:precondition) (p)))", "expected an action keyword (line 4, column 5)"),
            (action + "    :precondition))", ":precondition has no value (line 3, column 3)"),
            (action + "    :precondition (p) :cost 1))", "unknown action keyword ':cost' (line 3, column 3)"),
            (action + "    :precondition (p)))", "action 'a' has no effect (line 3, column 3)"),
            (action + "    :precondition (p) :effect (and (q))\n    :effect (and (not (p)))))",
             "repeated action keyword ':effect' (line 5, column 5)"),
            (action + "    :precondition (p) :effect (q) :precondition (q)))",
             "repeated action keyword ':precondition' (line 4, column 35)"),
            (action + "    :parameters () :parameters () :effect (q)))",
             "repeated action keyword ':parameters' (line 4, column 20)"),
            (action + "    :precondition p :effect (q)))", "expected a precondition (line 4, column 19)"),
            (action + "    :precondition () :effect (q)))", "expected a precondition (line 4, column 19)"),
            (action + "    :precondition (and p) :effect (q)))", "expected a (predicate) atom (line 4, column 24)"),
            (action + "    :precondition (p) :effect q))", "expected an effect (line 4, column 31)"),
            (action + "    :effect (and (q) ())))", "expected an effect (line 4, column 22)"),
            (action + "    :effect (oneof (q) x)))", "expected an effect (line 4, column 24)"),
            (action + "    :effect (not (p) (q))))", "(not ...) takes one atom (line 4, column 13)"),
            (action + "    :effect (not p)))", "expected a (predicate) atom (line 4, column 18)"),
            ("(define\n  (problem))", "problem has no name (line 2, column 3)"),
            ("(define\n  (problem (p)))", "expected a problem name (line 2, column 12)"),
            (problem + "  init)", "expected a (:section ...) (line 3, column 3)"),
            (problem + "  ())", "expected a (:section ...) (line 3, column 3)"),
            (problem + "  (:domain (d)))", "expected a domain name (line 3, column 12)"),
            (problem + "  (:init (a) b))", "expected a (predicate) atom (line 3, column 14)"),
            (problem + "  (:goal))", ":goal takes one formula (line 3, column 3)"),
            (problem + "  (:goal (a) (b)))", ":goal takes one formula (line 3, column 3)"),
            (problem + "  (:goal g))", "expected a precondition (line 3, column 10)"),
            (problem + "  (:goal (and g)))", "expected a (predicate) atom (line 3, column 15)"),
            (problem + "  (:state (a)))", "unknown problem section ':state' (line 3, column 3)"),
            (domain + "  (:predicates (q)))", "repeated section ':predicates' (line 3, column 3)"),
            (domain + "  (:types a) (:types b))", "repeated section ':types' (line 3, column 14)"),
            (domain + "  (:requirements) (:requirements))", "repeated section ':requirements' (line 3, column 19)"),
            (problem + "  (:domain d))", "repeated section ':domain' (line 3, column 3)"),
            (problem + "  (:init (x)) (:init (y)))", "repeated section ':init' (line 3, column 15)"),
            (problem + "  (:goal (a)) (:goal (b)))", "repeated section ':goal' (line 3, column 15)"),
            ("(define (problem p)\n  (:domain))", ":domain takes one name (line 2, column 3)"),
            ("(define (problem p)\n  (:domain a b c))", ":domain takes one name (line 2, column 3)"),
            ("(define\n  (domain d e f))", "(domain NAME) takes one name (line 2, column 3)"),
            ("(define\n  (problem p q))", "(problem NAME) takes one name (line 2, column 3)"),
            ("(define (domain d)\n  (:predicates (p) (q) (p)))", "repeated predicate 'p' (line 2, column 24)"),
            ("(define (domain d)\n  (:requirements :strips :strips))",
             "repeated requirement ':strips' (line 2, column 26)"),
        ]
        got = []
        for text, _ in cases:
            with pytest.raises(PddlSyntaxError) as exc:
                parse_pddl(text)
            got.append(str(exc.value))
        assert got == [message for _, message in cases]

    @given(st.lists(st.sampled_from(READER_PIECES), max_size=60).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_reader_matches_reference(self, text):
        """Where the original character-loop reader finds no single form,
        `parse_pddl` raises the same error at the same line and column."""
        try:
            reference_read(text)
        except PddlSyntaxError as exc:
            with pytest.raises(PddlSyntaxError) as got:
                parse_pddl(text)
            assert str(got.value) == str(exc)

    def test_tokens_match_the_token_pattern(self):
        """Cutting comments and splitting at whitespace gives the tokens of
        `_TOKEN` without its comments, with every code point between atoms,
        so a token index from the reader is one `_position` can find."""
        pieces = [";c\n" if c == ord(";") else chr(c) for c in range(sys.maxunicode + 1)]
        text = "(" + "a".join(pieces) + ")"
        assert fond_checker._tokens(text) == [t for t in fond_checker._TOKEN.findall(text) if t[0] != ";"]

    def test_reader_builds_plain_lists_and_strings(self):
        """The records hold plain lists and strings, whatever the tokens were sliced from."""
        domain = parse_pddl("; header\n" + FIG_DOMAIN)
        assert type(domain.name) is str
        lists = [domain.requirements, domain.types, domain.predicates, *(a.precondition for a in domain.actions)]
        for values in lists:
            assert type(values) is list and all(type(v) is str for v in values)
        assert all(type(a.name) is str for a in domain.actions)
        todo = [a.effect for a in domain.actions]
        while todo:
            node = todo.pop()
            if isinstance(node, (EffAdd, EffNot)):
                assert type(node.pred) is str
            else:
                items = node.items if isinstance(node, EffAnd) else node.outcomes
                assert type(items) is list
                todo.extend(items)

    def test_comments(self):
        assert fond_checker._tokens("(a;b\nc)") == ["(", "a", "c", ")"]
        assert fond_checker._tokens("(a (b)) ; last line, no newline") == ["(", "a", "(", "b", ")", ")"]
        assert fond_checker._tokens("(a\r\n;b\r\n c)") == ["(", "a", "c", ")"]
        cases = [
            ("(define (domain d) ; (a) ) comment\n  (:predicates ((p))))",
             "expected a predicate name (line 2, column 17)"),
            ("(define (domain d)\r\n  (:predicates p))", "expected a (predicate) atom (line 2, column 16)"),
            ("; (x\n)", "unexpected ) (line 2, column 1)"),
            ("(define (domain d)) ; x\n y ; z", "trailing input 'y' (line 2, column 2)"),
            ("(define (domain d) ; )\n", "missing ) (line 1, column 1)"),
        ]
        got = []
        for text, _ in cases:
            with pytest.raises(PddlSyntaxError) as exc:
                parse_pddl(text)
            got.append(str(exc.value))
        assert got == [message for _, message in cases]

    def test_error_deep_in_nesting_has_its_position(self):
        depth = 5000
        frame = "  (:action a :effect "
        text = "(define (domain d) (:predicates (p))\n" + frame + "(and " * depth + "p" + ")" * depth + "))"
        with pytest.raises(PddlSyntaxError) as exc:
            parse_pddl(text)
        assert str(exc.value) == f"expected an effect (line 2, column {len(frame) + 5 * depth + 1})"

    @given(
        st.sampled_from(SOUP_FRAMES),
        st.lists(st.sampled_from(DOMAIN_WORDS + SECTION_WORDS), max_size=30),
        st.booleans(),
        st.lists(st.sampled_from(READER_PIECES), max_size=40).map("".join),
    )
    @settings(max_examples=600, deadline=None)
    def test_parse_matches_reference(self, frame, words, balance, pieces):
        """On word soups under a domain, action or problem head, balanced or
        left as drawn, the same with their first "(" made an atom or a ")",
        and on strings of reader pieces, `parse_pddl` returns a record equal
        to the list-tree reader's or raises the same exception type and
        message (line and column included)."""
        soup = _balanced(frame, words) if balance else frame + " ".join(words)
        for text in (soup, soup.replace("(", "x ", 1), soup.replace("(", ") ", 1), pieces):
            assert _parse_outcome(parse_pddl, text) == _parse_outcome(reference_solver.reference_parse_pddl, text)

    def test_parse_matches_reference_on_emitted_files(self):
        for path in [*CORPUS_FILES, *sorted(Path(fixture("")).glob("*.bpmn"))]:
            result = translate(path)
            for text in (result.domain_text, *result.problem_texts.values()):
                assert parse_pddl(text) == reference_solver.reference_parse_pddl(text), path.name

    @given(st.sampled_from(["", ACTION_FRAME]), st.lists(st.sampled_from(DOMAIN_WORDS), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_domain_fuzz_raises_only_documented_errors(self, frame, words):
        depth, kept = frame.count("(") - frame.count(")"), [frame]
        for word in words:  # drop unmatched ")" and close what stays open, so the text is one form
            depth += word.count("(") - word.count(")")
            if depth < 0:
                depth = 0
                continue
            kept.append(word)
        try:
            ground_domain(parse_pddl("(define (domain d) " + " ".join(kept) + ")" * depth + ")"))
        except (PddlSyntaxError, UnsupportedFeature):
            pass

    def test_empty_oneof_rejected(self):
        text = "(define (domain d) (:predicates (p) (g)) (:action a :precondition (p) :effect (oneof)))"
        with pytest.raises(PddlSyntaxError, match="action 'a' has a oneof with no outcomes"):
            parse_pddl(text)
        empty = PddlAction("a", ["p"], EffAnd([EffOneOf([]), EffNot("p")]))
        domain = PddlDomain("d", [":strips"], [], ["p", "g"], [empty, PddlAction("b", ["p"], EffAnd([EffAdd("g")]))])
        with pytest.raises(PddlSyntaxError, match="action 'a' has a oneof with no outcomes"):
            ground_domain(domain)

    def test_syntax_error_has_position(self):
        with pytest.raises(PddlSyntaxError) as exc:
            parse_pddl("(define (domain d)\n  (:predicates (p)")
        assert exc.value.line >= 1

    def test_undeclared_predicate_rejected(self):
        text = FIG_DOMAIN.replace("  (StartEvent_1els7eb)\n", "")
        with pytest.raises(PddlSyntaxError):
            parse_pddl(text)

    def test_duplicate_action_name_rejected(self):
        text = FIG_DOMAIN.replace("(:action event_EventBasedGateway_02s95tm", "(:action request_credit_score")
        with pytest.raises(PddlSyntaxError, match="action 'request_credit_score' is defined twice"):
            parse_pddl(text)

    def test_domain_defect_positions(self):
        """The domain checks name the (:action form when the domain was read
        from text, and only the action when it was built in Python."""
        domain = "(define (domain d)\n  (:predicates (p) (q))\n  (:action a :effect (p))\n"
        cases = [
            (domain + "    (:action a :effect (q)))", "action 'a' is defined twice (line 4, column 5)"),
            (domain + "  (:action b :precondition (r) :effect (q)))",
             "action 'b' uses undeclared predicate 'r' (line 4, column 3)"),
            (domain + "  (:action b :effect (and (q) (oneof))))",
             "action 'b' has a oneof with no outcomes (line 4, column 3)"),
        ]
        got = []
        for text, _ in cases:
            with pytest.raises(PddlSyntaxError) as exc:
                parse_pddl(text)
            got.append(str(exc.value))
        assert got == [message for _, message in cases]
        twice = PddlDomain("d", [], [], ["p"], [PddlAction("a", [], EffAnd([EffAdd("p")]))] * 2)
        with pytest.raises(PddlSyntaxError) as exc:
            ground_domain(twice)
        assert str(exc.value) == "action 'a' is defined twice" and exc.value.line == 0

    def test_comments_skipped(self):
        text = "; header comment\n" + FIG_DOMAIN
        assert isinstance(parse_pddl(text), PddlDomain)

    def test_problem_parses(self):
        text = "(define (problem p1)\n  (:domain d)\n  (:init (a) (b))\n  (:goal (and (done)))\n)\n"
        problem = parse_pddl(
            text.replace("(a) (b)", "(a) (b)")
        )
        assert isinstance(problem, PddlProblem)
        assert problem.init == ["a", "b"]
        assert problem.goal == ["done"]

    def test_problem_without_goal_rejected(self):
        with pytest.raises(PddlSyntaxError) as exc:
            parse_pddl("; no goal\n  (define (problem p) (:domain d) (:init (s)))")
        assert str(exc.value) == "problem has no :goal (line 2, column 3)"
        assert parse_pddl("(define (problem p) (:domain d) (:init (s)) (:goal (and)))").goal == []

    def test_objects_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_pddl("(define (problem p) (:domain d) (:objects x - task) (:init) (:goal (and (g))))")

    def test_round_trip_fixed_point(self):
        domain, problems = _pipeline(LINEAR)
        for obj in [domain, *problems]:
            text = render_pddl(obj)
            assert render_pddl(parse_pddl(text)) == text

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 10_000),
        st.integers(8, 200),
        st.integers(1, 3),
        st.sampled_from(["ignore", "exclusive"]),
        st.sampled_from(["any", "all"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_generated_diagrams(self, seed, shape_seed, size, pools, msg, done):
        diagram = GEN.block_structured(random.Random(seed), "gen", size, pools, shape_seed=shape_seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gen.bpmn"
            path.write_text(diagram.xml, encoding="utf-8")
            argv = ["translate", str(path), "--out", tmp, "--msg-strategy", msg, "--done-mode", done]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0
            written = sorted(Path(tmp).glob("*.pddl"))
            assert len(written) == diagram.problems + 1
            for file in written:
                text = file.read_text(encoding="utf-8")
                parsed = parse_pddl(text)
                assert render_pddl(parsed) == text
                assert reference_solver.reference_parse_pddl(text) == parsed


class TestApply:
    def test_figure_task_transition(self):
        domain = parse_pddl(FIG_DOMAIN)
        actions = {a.name: a for a in ground_domain(domain)}
        task = actions["request_credit_score"]
        state = frozenset({"StartEvent_1els7eb"})
        assert applicable(state, task)
        assert apply(state, task, 0) == frozenset({"EventBasedGateway_02s95tm"})

    def test_not_applicable_in_empty_state(self):
        domain = parse_pddl(FIG_DOMAIN)
        actions = ground_domain(domain)
        for action in actions:
            assert not applicable(frozenset(), action)

    def test_figure_gateway_outcomes(self):
        domain = parse_pddl(FIG_DOMAIN)
        actions = {a.name: a for a in ground_domain(domain)}
        gw = actions["event_EventBasedGateway_02s95tm"]
        state = frozenset({"EventBasedGateway_02s95tm"})
        assert apply(state, gw, 0) == frozenset({"IntermediateCatchEvent_0ujob24"})
        assert apply(state, gw, 1) == frozenset(
            {"IntermediateCatchEvent_0yg7cuh", "ExclusiveGateway_11dldcm"}
        )

    def test_bad_outcome_index(self):
        domain = parse_pddl(FIG_DOMAIN)
        actions = {a.name: a for a in ground_domain(domain)}
        with pytest.raises(IndexError):
            apply(frozenset({"StartEvent_1els7eb"}), actions["request_credit_score"], 1)


class TestExplore:
    def test_linear_state_count(self):
        # hand-enumerated: {start}, {end-entry}, {done} — the start marker is
        # consumed directly by the task, so there is no separate task state
        domain, (problem,) = _pipeline(LINEAR)
        space = explore(domain, problem)
        assert len(space.states) == 3
        assert space.states[0] == frozenset({"S1"})
        assert frozenset({"done"}) in space.states
        assert space.deadlock_states == set()
        assert len(space.goal_states) == 1

    def test_parallel_diamond_interleavings(self):
        domain, (problem,) = _pipeline(DIAMOND)
        space = explore(domain, problem)
        assert len(space.states) == 7
        mid_left = frozenset({"arr_Join_0", "B2"})
        mid_right = frozenset({"B1", "arr_Join_1"})
        both = frozenset({"arr_Join_0", "arr_Join_1"})
        for s in (mid_left, mid_right, both):
            assert s in space.states
        # join fires only from the full-marker state
        join_sources = {
            src
            for src, trs in enumerate(space.transitions)
            for (name, _o, _t) in trs
            if name == "event_Join"
        }
        assert join_sources == {space.states.index(both)}
        assert token_double_adds(space) == []

    def test_xor_and_pathology_deadlocks(self):
        domain, (problem,) = _pipeline(fixture("xor_and_deadlock.bpmn").read_text())
        space = explore(domain, problem)
        assert len(space.deadlock_states) >= 1

    def test_outcome_order_independent(self):
        domain, (problem,) = _pipeline(fixture("inclusive_pair.bpmn").read_text())
        reversed_domain = copy.deepcopy(domain)
        for action in reversed_domain.actions:
            for item in action.effect.items:
                if isinstance(item, EffOneOf):
                    item.outcomes.reverse()
        a = explore(domain, problem)
        b = explore(reversed_domain, problem)
        assert set(a.states) == set(b.states)

    def test_state_limit(self):
        domain, (problem,) = _pipeline(DIAMOND)
        with pytest.raises(LimitExceeded):
            explore(domain, problem, Limits(max_states=3))

    def test_double_adds_in_declaration_order(self):
        action = PddlAction("again", ["p"], EffAnd([EffAdd("p"), EffAdd("q")]))
        problem = PddlProblem(name="p", domain_name="d", init=["p", "q"], goal=["g"])
        for preds in (["p", "q", "g"], ["q", "p", "g"], ["g", "q", "p"]):
            space = explore(PddlDomain("d", [":strips"], [], preds, [action]), problem)
            order = [p for p in preds if p != "g"]
            assert double_adds(space) == [(0, "again", 0, p) for p in order]


def _brute_force_strong_exists(domain, problem) -> bool:
    """Independent oracle: enumerate every deterministic state-action mapping
    over the explored space and simulate all outcome branches."""
    space = explore(domain, problem)
    actions = {a.name: a for a in ground_domain(domain)}
    goal = frozenset(problem.goal)
    choices = []
    for state in space.states:
        if goal <= state:
            continue
        apps = sorted({name for name in actions if applicable(state, actions[name])})
        choices.append((state, apps))
    combos = 1
    for _, apps in choices:
        combos *= max(len(apps), 1)
    assert combos <= 100_000, "fixture too large for the brute-force oracle"

    def strong_ok(mapping) -> bool:
        def run(state, path):
            if goal <= state:
                return True
            if state in path or state not in mapping:
                return False
            action = actions[mapping[state]]
            return all(
                run(apply(state, action, i), path | {state})
                for i in range(len(action.outcomes))
            )

        return run(space.states[0], frozenset())

    states = [s for s, _ in choices]
    for combo in product(*[apps for _, apps in choices]):
        if strong_ok(dict(zip(states, combo))):
            return True
    return False


class TestSolve:
    def test_linear_strong(self):
        domain, (problem,) = _pipeline(LINEAR)
        policy = solve(domain, problem, SolveMode.STRONG)
        assert policy.mapping[frozenset({"S1"})] == "work"
        assert len(policy.mapping) == 2

    def test_pathology_strong_unsolvable_matches_brute_force(self):
        domain, (problem,) = _pipeline(fixture("xor_and_deadlock.bpmn").read_text())
        assert not _brute_force_strong_exists(domain, problem)
        with pytest.raises(Unsolvable):
            solve(domain, problem, SolveMode.STRONG)
        with pytest.raises(Unsolvable):
            solve(domain, problem, SolveMode.STRONG_CYCLIC)

    def test_loop_strong_unsolvable_cyclic_solvable(self):
        domain, (problem,) = _pipeline(fixture("loop_retry.bpmn").read_text())
        assert not _brute_force_strong_exists(domain, problem)
        with pytest.raises(Unsolvable):
            solve(domain, problem, SolveMode.STRONG)
        policy = solve(domain, problem, SolveMode.STRONG_CYCLIC)
        assert policy.mapping  # retry loop is winnable under fairness

    def test_diamond_strong_matches_brute_force(self):
        domain, (problem,) = _pipeline(DIAMOND)
        assert _brute_force_strong_exists(domain, problem)
        solve(domain, problem, SolveMode.STRONG)

    def test_strong_winning_implies_cyclic_winning(self):
        for name in ("inclusive_pair.bpmn", "msg_task_task.bpmn"):
            domain, problems = _pipeline(fixture(name).read_text())
            for problem in problems:
                strong = cyclic = None
                try:
                    strong = solve(domain, problem, SolveMode.STRONG)
                except Unsolvable:
                    pass
                try:
                    cyclic = solve(domain, problem, SolveMode.STRONG_CYCLIC)
                except Unsolvable:
                    pass
                if strong is not None:
                    assert cyclic is not None
                    assert set(strong.mapping) <= set(cyclic.mapping) | {
                        s for s in strong.mapping if s not in cyclic.mapping
                    }

    def test_lexicographic_tie_break(self):
        domain = PddlDomain(
            name="tie",
            requirements=[":strips", ":typing", ":non-deterministic"],
            types=["task", "event", "gateway"],
            predicates=["s", "g"],
            actions=[
                PddlAction("zeta", ["s"], EffAnd([EffAdd("g"), EffNot("s")])),
                PddlAction("alpha", ["s"], EffAnd([EffAdd("g"), EffNot("s")])),
            ],
        )
        problem = PddlProblem(name="p", domain_name="tie", init=["s"], goal=["g"])
        for mode in (SolveMode.STRONG, SolveMode.STRONG_CYCLIC):
            policy = solve(domain, problem, mode)
            assert policy.mapping[frozenset({"s"})] == "alpha"


class TestSolverDifferential:
    """Random small FOND instances cross-checked against brute-force policy
    enumeration for both solution concepts."""

    @staticmethod
    def _random_instance(rng):
        preds = [f"p{i}" for i in range(rng.randint(3, 5))]
        actions = []
        for j in range(rng.randint(2, 5)):
            pre = rng.sample(preds, rng.randint(1, 2))
            outcomes = []
            for _ in range(rng.randint(1, 2)):
                adds = rng.sample(preds, rng.randint(1, 2))
                dels = rng.sample(preds, rng.randint(0, 2))
                items = [EffAdd(p) for p in adds] + [EffNot(p) for p in dels if p not in adds]
                outcomes.append(items[0] if len(items) == 1 else EffAnd(items))
            if len(outcomes) == 1:
                effect = outcomes[0]
                effect = effect if isinstance(effect, EffAnd) else EffAnd([effect])
            else:
                effect = EffAnd([EffOneOf(outcomes)])
            actions.append(PddlAction(f"a{j}", pre, effect))
        domain = PddlDomain("rnd", [":strips"], [], preds, actions)
        problem = PddlProblem(
            name="rnd",
            domain_name="rnd",
            init=rng.sample(preds, rng.randint(1, 3)),
            goal=[rng.choice(preds)],
        )
        return domain, problem

    @staticmethod
    def _policy_graph(domain, problem, mapping):
        actions = {a.name: a for a in ground_domain(domain)}
        goal = frozenset(problem.goal)
        init = frozenset(problem.init)
        edges = {}
        seen = {init}
        stack = [init]
        while stack:
            s = stack.pop()
            if goal <= s:
                continue
            name = mapping.get(s)
            if name is None or not applicable(s, actions[name]):
                return None  # not closed
            succs = [apply(s, actions[name], i) for i in range(len(actions[name].outcomes))]
            edges[s] = succs
            for t in succs:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen, edges

    @classmethod
    def _is_strong(cls, domain, problem, mapping):
        sim = cls._policy_graph(domain, problem, mapping)
        if sim is None:
            return False
        _seen, edges = sim
        goal = frozenset(problem.goal)

        def run(s, path):
            if goal <= s:
                return True
            if s in path:
                return False
            return all(run(t, path | {s}) for t in edges[s])

        return run(frozenset(problem.init), frozenset())

    @classmethod
    def _is_cyclic(cls, domain, problem, mapping):
        sim = cls._policy_graph(domain, problem, mapping)
        if sim is None:
            return False
        seen, edges = sim
        goal = frozenset(problem.goal)
        good = {s for s in seen if goal <= s}
        changed = True
        while changed:
            changed = False
            for s in seen:
                if s in good:
                    continue
                if any(t in good for t in edges.get(s, [])):
                    good.add(s)
                    changed = True
        return seen <= good

    @classmethod
    def _brute_exists(cls, domain, problem, valid) -> bool | None:
        space = explore(domain, problem)
        if len(space.states) > 24:
            return None
        actions = {a.name: a for a in ground_domain(domain)}
        goal = frozenset(problem.goal)
        per_state = []
        for s in space.states:
            if goal <= s:
                continue
            apps = sorted(n for n, a in actions.items() if applicable(s, a))
            if apps:
                per_state.append((s, apps))
        combos = 1
        for _, apps in per_state:
            combos *= len(apps)
            if combos > 30_000:
                return None
        states = [s for s, _ in per_state]
        for combo in product(*[apps for _, apps in per_state]):
            if valid(domain, problem, dict(zip(states, combo))):
                return True
        return False

    def test_random_instances_match_brute_force(self):
        import random

        rng = random.Random(0x5EED)
        checked = 0
        for _ in range(220):
            domain, problem = self._random_instance(rng)
            try:
                expected_strong = self._brute_exists(domain, problem, self._is_strong)
                expected_cyclic = self._brute_exists(domain, problem, self._is_cyclic)
            except LimitExceeded:
                continue
            if expected_strong is None or expected_cyclic is None:
                continue
            checked += 1
            try:
                policy = solve(domain, problem, SolveMode.STRONG)
                assert expected_strong, "solver found a strong policy the oracle rules out"
                assert self._is_strong(domain, problem, policy.mapping)
            except Unsolvable:
                assert not expected_strong, "oracle found a strong policy the solver missed"
            try:
                policy = solve(domain, problem, SolveMode.STRONG_CYCLIC)
                assert expected_cyclic, "solver found a cyclic policy the oracle rules out"
                assert self._is_cyclic(domain, problem, policy.mapping)
            except Unsolvable:
                assert not expected_cyclic, "oracle found a cyclic policy the solver missed"
            if expected_strong:
                assert expected_cyclic  # strong-winning is cyclic-winning
        assert checked >= 100, f"only {checked} instances were small enough to brute-force"


def _mappings(domain, problem, space=None):
    """Per mode: the backward core's mapping and the reference solver's (None when unsolvable)."""
    space = space or explore(domain, problem)
    for mode in (SolveMode.STRONG, SolveMode.STRONG_CYCLIC):
        try:
            expected = reference_mapping(space, mode)
        except Unsolvable:
            expected = None
        try:
            got = solve(domain, problem, mode, space=space).mapping
        except Unsolvable:
            got = None
        yield mode, got, expected


class TestPolicyOracle:
    """The backward core returns the reference solvers' exact policies."""

    def test_random_instances(self):
        rng = random.Random(0x5EED)
        for i in range(220):
            domain, problem = TestSolverDifferential._random_instance(rng)
            for mode, got, expected in _mappings(domain, problem):
                assert got == expected, f"instance {i} {mode.value}"

    def test_fixtures(self):
        for name in FIXTURES:
            for strategy in MessageStrategy:
                domain, problems = _pipeline(fixture(name).read_text(), strategy)
                for problem in problems:
                    for mode, got, expected in _mappings(domain, problem):
                        assert got == expected, f"{name} {problem.variant} {mode.value}"

    def test_corpus_variants_under_1000_states(self):
        compared = 0
        for path in CORPUS_FILES:
            for strategy in MessageStrategy:
                for done_mode in DoneMode:
                    result = translate(path, strategy, done_mode=done_mode)
                    for problem in result.problems:
                        space = explore(result.domain, problem)
                        if len(space.states) >= 1000:
                            continue
                        compared += 1
                        for mode, got, expected in _mappings(result.domain, problem, space):
                            label = f"{path.stem} {strategy.value} {done_mode.value} {problem.variant}"
                            assert got == expected, f"{label} {mode.value}"
        assert compared == 58  # all but the two 6k-state credit_scoring all_starts variants


def _assert_same_levels(space, label):
    """The one-pass helper's levels are the round loop's; -1 at the initial state when that is unsolvable."""
    want = round_levels(space)
    got = fond_checker._cyclic_levels(space)
    if want is None:
        assert got[0] < 0, label
    else:
        assert got == want, label


class TestCyclicLevelsOracle:
    """Strong-cyclic levels from one backward pass plus re-levelled loser waves
    equal the stable round of the original greatest-fixpoint loop."""

    @staticmethod
    def _random_instance(rng):
        preds = [f"p{i}" for i in range(rng.randint(3, 10))]
        actions = []
        for j in range(rng.randint(2, 16)):
            outcomes = []
            for _ in range(rng.randint(1, 3)):
                dels = rng.sample(preds, rng.randint(0, 3))
                add = rng.choice(preds)
                outcomes.append(EffAnd([EffAdd(add), *(EffNot(p) for p in dels if p != add)]))
            effect = outcomes[0] if len(outcomes) == 1 else EffAnd([EffOneOf(outcomes)])
            actions.append(PddlAction(f"a{j}", rng.sample(preds, rng.randint(1, 3)), effect))
        domain = PddlDomain("rnd", [":strips"], [], preds, actions)
        init, goal = rng.sample(preds, rng.randint(1, 3)), rng.sample(preds, rng.randint(1, 2))
        return domain, PddlProblem(name="rnd", domain_name="rnd", init=init, goal=goal)

    def test_random_instances(self, monkeypatch):
        rounds = []
        backward = reference_solver._backward
        monkeypatch.setattr(reference_solver, "_backward", lambda *args: rounds.append(1) or backward(*args))
        rng = random.Random(0x5EED)
        deep = 0
        for i in range(1000):
            rounds.clear()
            _assert_same_levels(explore(*self._random_instance(rng)), f"instance {i}")
            deep += len(rounds) >= 3
        assert deep >= 50, f"only {deep} instances need 3 or more rounds"

    def test_fixtures(self):
        for name in FIXTURES:
            for strategy in MessageStrategy:
                domain, problems = _pipeline(fixture(name).read_text(), strategy)
                for problem in problems:
                    _assert_same_levels(explore(domain, problem), f"{name} {strategy.value} {problem.variant}")

    def test_every_corpus_variant(self):
        sizes = []
        for path in CORPUS_FILES:
            for strategy in MessageStrategy:
                for done_mode in DoneMode:
                    result = translate(path, strategy, done_mode=done_mode)
                    for problem in result.problems:
                        space = explore(result.domain, problem)
                        _assert_same_levels(space, f"{path.stem} {strategy.value} {done_mode.value} {problem.variant}")
                        sizes.append(len(space.masks))
        assert len(sizes) == 60
        assert sum(n > 6000 for n in sizes) == 2  # the credit_scoring all_starts variants


@pytest.mark.parametrize("n", [10, 1000])
def test_review_chain_is_one_backward_pass(n, monkeypatch):
    """A chain of n reviews needs n + 1 rounds of the fixpoint loop; the
    strong-cyclic solver gives up after its one backward pass."""
    calls = []
    backward = fond_checker._backward
    monkeypatch.setattr(fond_checker, "_backward", lambda *args: calls.append(1) or backward(*args))
    domain, (problem,) = _pipeline(_review_chain(n))
    space = explore(domain, problem)
    assert len(space.masks) == 3 * n + 6
    with pytest.raises(Unsolvable):
        solve(domain, problem, SolveMode.STRONG_CYCLIC, space=space)
    assert len(calls) == 1


class _Unlistable(list):
    """A list that may be indexed but not iterated."""

    def __iter__(self):
        raise AssertionError("iterated the successor lists")


def _credit_scoring_space(variant):
    """The explored space of a credit_scoring variant, exclusive emulation, done mode all."""
    result = translate(CORPUS_DIR / "credit_scoring.bpmn", MessageStrategy.EXCLUSIVE_EMULATION,
                       done_mode=DoneMode.ALL_POOLS)
    return explore(result.domain, next(p for p in result.problems if p.variant == variant))


def _review_chain_space(n):
    domain, (problem,) = _pipeline(_review_chain(n))
    return explore(domain, problem)


class TestCyclicWaves:
    """The strong-cyclic waves read the space's own reverse edges and index successors, never list them."""

    @staticmethod
    def _first_pass(space):
        return fond_checker._backward(space.owner, space.rev, [1] * len(space.owner), space.goal_states,
                                      [-1] * len(space.rev))

    @pytest.mark.parametrize("make", [lambda: _credit_scoring_space("prestarted_frontend"),
                                      lambda: _review_chain_space(10)], ids=["prestarted_frontend", "review_chain"])
    def test_waves_never_iterate_the_successor_lists(self, make):
        space = make()
        first = self._first_pass(space)
        assert first[0] >= 0 and -1 in first  # the first pass leaves losers and keeps the initial state: waves run
        want = round_levels(space)
        space.succs = _Unlistable(space.succs)
        got = fond_checker._cyclic_levels(space)
        assert got == want if want is not None else got[0] < 0

    def test_a_lost_first_pass_sets_nothing_up(self):
        space = _credit_scoring_space("prestarted_scoring")
        level, calls = _calls(fond_checker._cyclic_levels, space)
        assert level[0] < 0 and round_levels(space) is None
        _, backward_calls = _calls(self._first_pass, space)
        assert calls - backward_calls <= 10, (calls, backward_calls)


def _assert_same_space(domain, problem, label, want=None):
    """The bitmask explorer's views equal the seed's frozenset explorer's, `want` if given."""
    got = explore(domain, problem)
    want = want or reference_solver.explore(domain, problem)
    assert got.states == want.states, label
    assert got.transitions == want.transitions, label
    assert got.goal_states == want.goal_states, label
    assert got.deadlock_states == want.deadlock_states, label
    assert Counter(double_adds(got)) == Counter(want.double_adds), label
    power = {p: 1 << i for i, p in enumerate(got.preds)}
    assert got.actions == {a.name: tuple(sum(map(power.__getitem__, o.adds)) for o in a.outcomes)
                           for a in want.actions.values()}, label
    return got


class TestExploreOracle:
    """Bitmask exploration through inherited applicable-action sets builds the seed's state space."""

    def test_random_instances(self):
        rng = random.Random(0x5EED)
        for i in range(220):
            domain, problem = TestSolverDifferential._random_instance(rng)
            _assert_same_space(domain, problem, f"instance {i}")

    def test_fixtures(self):
        for name in FIXTURES:
            for strategy in MessageStrategy:
                domain, problems = _pipeline(fixture(name).read_text(), strategy)
                for problem in problems:
                    _assert_same_space(domain, problem, f"{name} {strategy.value} {problem.variant}")

    def test_corpus_variants_under_1000_states(self):
        compared = 0
        for path in CORPUS_FILES:
            for strategy in MessageStrategy:
                for done_mode in DoneMode:
                    result = translate(path, strategy, done_mode=done_mode)
                    for problem in result.problems:
                        if len(reference_solver.explore(result.domain, problem).states) >= 1000:
                            continue
                        compared += 1
                        label = f"{path.stem} {strategy.value} {done_mode.value} {problem.variant}"
                        _assert_same_space(result.domain, problem, label)
        assert compared == 58

    def test_corpus_variants_of_1000_states_or_more(self):
        """The corpus variants the test above leaves out, credit_scoring's large ones."""
        compared = 0
        for path in CORPUS_FILES:
            for strategy in MessageStrategy:
                for done_mode in DoneMode:
                    result = translate(path, strategy, done_mode=done_mode)
                    for problem in result.problems:
                        want = reference_solver.explore(result.domain, problem)
                        if len(want.states) < 1000:
                            continue
                        compared += 1
                        label = f"{path.stem} {strategy.value} {done_mode.value} {problem.variant}"
                        _assert_same_space(result.domain, problem, label, want)
        assert compared == 2

    @pytest.mark.parametrize("strategy", MessageStrategy)
    def test_state_space_workload_shapes(self, strategy):
        """The shapes of the benchmark's state_space workload (``STATE_SPACE`` in bench/run.py)."""
        shapes = [
            (GEN.chain, 1200), (GEN.chain, 600), (GEN.chain, 300),
            (GEN.parallel, 8, 2), (GEN.parallel, 6, 2), (GEN.parallel, 5, 3), (GEN.parallel, 4, 4),
            (GEN.parallel, 3, 6), (GEN.inclusive, 6), (GEN.inclusive, 5), (GEN.inclusive, 4), (GEN.inclusive, 3),
            (GEN.message_pools, [4, 4, 4], [(0, 1, 1, 0), (1, 2, 2, 1), (0, 3, 2, 0)]),
            (GEN.message_pools, [6, 6], [(0, 2, 1, 0), (0, 4, 1, 2)]),
            (GEN.message_pools, [3, 3, 3, 3], [(0, 1, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0)]),
        ]
        for make, *params in shapes:
            domain, problems = _pipeline(make(random.Random(1), "shape", *params).xml, strategy)
            for problem in problems:
                _assert_same_space(domain, problem, f"{make.__name__}{params} {problem.variant}")

    @pytest.mark.parametrize("make, params", [
        (GEN.parallel, (8, 2)),
        (GEN.message_pools, ([3, 3, 3, 3], [(0, 1, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0)])),
    ])
    def test_rev_keeps_no_object_per_transition(self, make, params):
        """``rev`` lists a one-outcome pair as its owner state, an int the space holds anyway, and a
        multi-outcome pair p as ~p once per outcome: at most one distinct object per state, plus one per
        outcome of a multi-outcome pair, and the transitions into each state in pair order. `owner`, the
        successor tuples and `rev` share one int per state."""
        domain, problems = _pipeline(make(random.Random(1), "layout", *params).xml, MessageStrategy.EXCLUSIVE_EMULATION)
        for problem in problems:
            space = explore(domain, problem)
            want = [[] for _ in space.masks]
            for p, succs in enumerate(space.succs):
                for t in succs:
                    want[t].append(space.owner[p] if len(succs) == 1 else ~p)
            assert space.rev == want, problem.variant
            allowed = len(space.masks) + sum(len(succs) for succs in space.succs if len(succs) > 1)
            assert len({id(x) for xs in space.rev for x in xs}) <= allowed, problem.variant
            shared = {id(x) for xs in (*space.rev, *space.succs, space.owner) for x in xs}
            assert len(shared) <= len(space.masks) + sum(len(succs) > 1 for succs in space.succs), problem.variant

    def test_bench_explore_counters(self):
        """The traced benchmark's explore counters read the same numbers from both spaces."""
        tracing = bench_module("tracing")
        domain, problems = _pipeline(fixture("msg_task_task.bpmn").read_text(), MessageStrategy.EXCLUSIVE_EMULATION)
        for problem in problems:
            got, want = Counter(), Counter()
            tracing._count_explore(got, (domain, problem), {}, explore(domain, problem))
            tracing._count_explore(want, (domain, problem), {}, reference_solver.explore(domain, problem))
            assert got == want
            assert got["fond_checker.states"] > 0 and got["applicable_pairs"] > 0


class _Add(EffAdd):
    """A subclass of a leaf, which the compile walk must still read as a leaf."""


class _Not(EffNot):
    """A subclass of a leaf, which the compile walk must still read as a leaf."""


def _random_effect(rng, preds, depth=0, inside=False) -> EffAnd:
    """A random effect tree: leaves, nested ands, and at top level oneofs
    of any width whose outcomes may add what the common part deletes."""
    items = []
    for _ in range(rng.randint(0, 4)):
        r = rng.random()
        if r < 0.35:
            items.append(EffAdd(rng.choice(preds)))
        elif r < 0.6:
            items.append(EffNot(rng.choice(preds)))
        elif r < 0.8 and depth < 3:
            items.append(_random_effect(rng, preds, depth + 1, inside))
        elif not inside:
            outcomes = [_random_effect(rng, preds, depth + 1, True) for _ in range(rng.randint(1, 3))]
            items.append(EffOneOf([o.items[0] if len(o.items) == 1 else o for o in outcomes]))
    return EffAnd(items)


def _raised(actions) -> list[tuple[type, str]]:
    """The exception type and message that `ground_domain`, the original
    grounding and `explore` raise for a domain over (p) (q) with `actions`."""
    domain = PddlDomain("d", [":strips"], [], ["p", "q"], actions)
    raised = []
    for call in (ground_domain, reference_solver.ground_domain, lambda d: explore(d, PddlProblem("p", "d", ["p"], ["q"]))):
        with pytest.raises((PddlSyntaxError, UnsupportedFeature)) as exc:
            call(domain)
        raised.append((type(exc.value), str(exc.value)))
    return raised


class TestCompile:
    """`explore` compiles the domain straight from its effect trees; `ground_domain`
    decodes the same records and equals the original grounding."""

    def test_ground_domain_equals_the_original_on_corpus_and_fixtures(self):
        domains = 0
        for path in [*CORPUS_FILES, *map(fixture, FIXTURES)]:
            for strategy in MessageStrategy:
                for done_mode in DoneMode:
                    domain = translate(path, strategy, done_mode=done_mode).domain
                    assert ground_domain(domain) == reference_solver.ground_domain(domain), path.stem
                    domains += 1
        assert domains == 4 * (len(CORPUS_FILES) + len(FIXTURES))

    def test_random_effect_trees(self):
        """Several oneofs, nested ands, adds over deletes: the grounding, the
        outcome order and the explored space all equal the originals."""
        rng = random.Random(0xC0DE)
        widths = Counter()
        for i in range(300):
            preds = [f"p{k}" for k in range(rng.randint(2, 6))]
            actions = [PddlAction(f"a{j}", rng.sample(preds, rng.randint(0, 2)), _random_effect(rng, preds))
                       for j in range(rng.randint(1, 5))]
            domain = PddlDomain("rnd", [":strips"], [], preds, actions)
            want = reference_solver.ground_domain(domain)
            assert ground_domain(domain) == want, i
            widths.update(len(a.outcomes) for a in want)
            problem = PddlProblem("rnd", "rnd", rng.sample(preds, rng.randint(0, 2)), [rng.choice(preds)])
            _assert_same_space(domain, problem, f"instance {i}")
        assert widths[1] and widths[2] and sum(n for w, n in widths.items() if w > 3) > 20

    def test_defects_raise_the_same_from_explore(self):
        def act(items, pre=("p",)):
            return PddlAction("a", list(pre), EffAnd(items))

        undeclared = (PddlSyntaxError, "action 'a' uses undeclared predicate 'r'")
        empty = (PddlSyntaxError, "action 'a' has a oneof with no outcomes")
        nested = (UnsupportedFeature, "nested oneof effects are outside the supported subset")
        cases = [
            ([act([EffAdd("q")])] * 2, (PddlSyntaxError, "action 'a' is defined twice")),
            ([act([EffAdd("q")], pre=["r"])], undeclared),
            ([act([EffAdd("r")])], undeclared),
            ([act([EffNot("r")])], undeclared),
            ([act([EffOneOf([EffAdd("q"), EffAnd([EffNot("r")])])])], undeclared),
            ([act([EffOneOf([])])], empty),
            ([act([EffNot("p"), EffOneOf([EffAdd("q"), EffOneOf([])])])], empty),
            ([act([EffOneOf([EffOneOf([EffAdd("p"), EffAdd("q")]), EffAdd("q")])])], nested),
            ([act([EffOneOf([EffAdd("q"), EffAnd([EffAnd([EffOneOf([EffAdd("p")])])])])])], nested),
            # the leaves of a flat effect, a subclass among them, and a oneof or a nested (and ...) after them
            ([act([EffAdd("q"), EffNot("r")])], undeclared),
            ([act([EffNot("p"), _Add("r"), EffAdd("q")])], undeclared),
            ([act([EffAdd("q"), EffOneOf([EffAdd("p")]), EffNot("r")])], undeclared),
            ([act([EffAdd("r"), EffOneOf([EffOneOf([EffAdd("p")])])])], undeclared),
            ([act([EffAdd("q"), EffNot("p"), EffOneOf([EffOneOf([EffAdd("p")])])])], nested),
            ([act([EffAdd("q"), EffAnd([EffOneOf([])])])], empty),
        ]
        for actions, want in cases:
            assert _raised(actions) == [want] * 3, actions

    def test_flat_effects(self):
        """The leaves of the top-level (and ...) take one loop; a leaf subclass,
        a nested (and ...) and a oneof, before or after the leaves, take the
        stack in tree order. The grounding and the space equal the originals."""
        effects = [
            [_Add("q"), _Not("p")],
            [EffAdd("q"), _Not("p"), _Add("r"), EffNot("q")],
            [EffNot("p"), EffAnd([EffAdd("q"), EffAnd([EffNot("r")])]), EffAdd("r")],
            [EffAdd("q"), EffNot("p"), EffOneOf([EffAdd("p"), EffAnd([EffAdd("r"), EffNot("q")])])],
            [EffNot("q"), EffAnd([EffOneOf([EffAdd("q"), _Add("r")])]), EffAdd("p"), EffOneOf([_Not("r"), EffAdd("r")])],
            [EffOneOf([EffAdd("q"), EffAdd("r")]), EffNot("p"), EffAnd([]), _Add("p")],
        ]
        for items in effects:
            actions = [PddlAction("a", ["p"], EffAnd(items)), PddlAction("b", ["q"], EffAnd([EffAdd("p"), _Not("q")]))]
            domain = PddlDomain("d", [":strips"], [], ["p", "q", "r"], actions)
            assert ground_domain(domain) == reference_solver.ground_domain(domain), items
            _assert_same_space(domain, PddlProblem("p", "d", ["p"], ["r"]), items)

    def test_a_later_defect_outranks_a_nested_oneof(self):
        """The compile walk stops at a nested oneof, but the defect of a later action is what is raised."""
        nested = PddlAction("n", ["p"], EffAnd([EffOneOf([EffOneOf([EffAdd("p"), EffAdd("q")]), EffAdd("q")])]))
        cases = [
            (PddlAction("a", ["p"], EffAnd([EffAdd("r")])), "action 'a' uses undeclared predicate 'r'"),
            (PddlAction("a", ["p"], EffAnd([EffOneOf([])])), "action 'a' has a oneof with no outcomes"),
            (nested, "action 'n' is defined twice"),
        ]
        for later, message in cases:
            assert _raised([nested, later]) == [(PddlSyntaxError, message)] * 3, later

    def test_undeclared_atom_the_problem_names_is_a_defect(self):
        """An atom of the problem's init or goal has a bit, yet an action that names it still needs it declared."""
        action = PddlAction("a", ["p"], EffAnd([EffAdd("q"), EffNot("x")]))
        domain = PddlDomain("d", [":strips"], [], ["p", "q"], [action])
        for init, goal in [(["p", "x"], ["q"]), (["p"], ["q", "x"])]:
            with pytest.raises(PddlSyntaxError, match="^action 'a' uses undeclared predicate 'x'$"):
                explore(domain, PddlProblem("p", "d", init, goal))

    def test_valid_domain_is_never_validated_again(self, monkeypatch):
        """`explore` and `ground_domain` notice defects in their own walk; a valid domain costs no second one."""
        calls = []
        validate = fond_checker._validate_domain
        monkeypatch.setattr(fond_checker, "_validate_domain", lambda *args: calls.append(1) or validate(*args))
        for path in [*CORPUS_FILES, *map(fixture, FIXTURES)]:
            result = translate(path)
            ground_domain(result.domain)
            for problem in result.problems:
                explore(result.domain, problem)
        assert calls == []

    def test_bit_table_and_one_outcome_oneof(self):
        """The bit table is the domain's predicates, then the problem's extra
        init and goal atoms; a one-outcome oneof compiles as one outcome."""
        domain = PddlDomain("d", [":strips"], [], ["s", "g"], [
            PddlAction("go", ["s"], EffAnd([EffNot("s"), EffOneOf([EffAnd([EffAdd("g"), EffAdd("s")])])])),
        ])
        space = explore(domain, PddlProblem("p", "d", ["x", "s"], ["g", "y", "x"]))
        assert space.preds == ["s", "g", "x", "y"]
        assert space.masks == [0b101, 0b111]
        assert space.actions == {"go": (0b11,)} and space.succs == [(1,), (1,)]


@st.composite
def _generated(draw):
    """A small diagram of one of bench/gen.py's families, seeds and sizes drawn."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["block_structured", "parallel", "inclusive", "message_pools"]))
    if family == "block_structured":
        size, pools = draw(st.integers(8, 40)), draw(st.integers(1, 2))
        return GEN.block_structured(rng, "gen", size, pools, shape_seed=draw(st.integers(0, 10**6)))
    if family == "parallel":
        return GEN.parallel(rng, "gen", draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    if family == "inclusive":
        return GEN.inclusive(rng, "gen", draw(st.integers(2, 4)))
    lengths = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    messages = []
    for _ in range(draw(st.integers(1, 2))):
        sender = draw(st.integers(0, len(lengths) - 2))
        receiver = draw(st.integers(sender + 1, len(lengths) - 1))
        messages.append((sender, draw(st.integers(0, lengths[sender] - 1)),
                         receiver, draw(st.integers(0, lengths[receiver] - 1))))
    return GEN.message_pools(rng, "gen", lengths, messages)


@given(_generated(), st.sampled_from(MessageStrategy))
@settings(max_examples=60, deadline=None)
def test_generated_diagrams_match_the_oracles(diagram, strategy):
    """The compiled explorer builds the frozenset explorer's space, or trips the
    same state limit; under 1000 states both solvers give the reference policies."""
    domain, problems = _pipeline(diagram.xml, strategy)
    limits = Limits(max_states=3000)
    for problem in problems:
        try:
            want = reference_solver.explore(domain, problem, limits)
        except LimitExceeded as exc:
            with pytest.raises(LimitExceeded, match=f"^{re.escape(str(exc))}$"):
                explore(domain, problem, limits)
            continue
        space = _assert_same_space(domain, problem, problem.variant)
        assert len(space.masks) == len(want.states)
        if len(space.masks) < 1000:
            for mode, got, expected in _mappings(domain, problem, space):
                assert got == expected, (problem.variant, mode.value)


# Tier-1 draws the same 40 diagrams on every run: a two-pool block_structured draw with parallel blocks
# explores up to the 3000-state limit per start variant, and the token game, which scans every node per
# state, takes 0.5-1.7 s on each, so fresh draws swing the test's time. Under
# --hypothesis-profile=token_game the profile's budget is drawn afresh.
TOKEN_GAME = settings.get_current_profile_name() == "token_game"


@given(_generated(), st.sampled_from(MessageStrategy))
@settings(max_examples=settings.default.max_examples if TOKEN_GAME else 40, deadline=None, derandomize=not TOKEN_GAME)
def test_generated_diagrams_match_the_token_game(diagram, strategy):
    """On every emitted problem of a generated diagram, the rendered and
    parsed domain explores to the token game's states and (state, successor)
    edges, or both pass the same 3000-state limit."""
    from token_game import TokenGame

    graph = build_graph(parse_bpmn(diagram.xml), strategy)
    domain = parse_pddl(render_pddl(emit_domain(graph)))
    problems = {frozenset(p.init): p for p in emit_problems(graph)}
    game, limits = TokenGame(graph), Limits(max_states=3000)
    starts = [[n for p in graph.pools for n in graph.start_nodes[p]]] + [graph.start_nodes[p] for p in graph.pools]
    inits = {game.initial(start_ids) for start_ids in starts}
    assert inits == problems.keys()  # one emitted problem per start variant, and no other
    for init, problem in problems.items():
        try:
            space = explore(domain, problem, limits)
        except LimitExceeded:
            with pytest.raises(RuntimeError, match="state budget exceeded"):
                game.explore(init, limits.max_states)
            continue
        states, edges, _ = game.explore(init, limits.max_states)
        assert set(space.states) == states, problem.variant
        assert {(space.states[s], space.states[t]) for s, moves in enumerate(space.transitions)
                for _a, _o, t in moves} == edges, problem.variant


def test_bench_tracing_wraps_and_restores_the_program():
    """The traced benchmark wraps functions by name, so each one it names must exist."""
    tracing = bench_module("tracing")
    tracer = tracing.Tracer()
    prog = SimpleNamespace(cli=cli, fond_checker=fond_checker, readback=SimpleNamespace(render=render_pddl))
    before = {id(module): dict(vars(module)) for module in (cli, fond_checker, prog.readback)}
    try:
        tracing.install(tracer, prog)
        patched = list(tracer._patched)
        assert patched and all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.unwrap()
    for module, attr, original in patched:
        assert getattr(module, attr) is original is before[id(module)][attr]


def _finders(space) -> list[int]:
    """Who expanded into each state: the owner of the first pair, in pair order, with it as an outcome."""
    found = [-1] * len(space.masks)
    for p, succs in enumerate(space.succs):
        for t in succs:
            if found[t] < 0:
                found[t] = space.owner[p]
    found[0] = 0
    return found


def _moves_of(space, atoms):
    """The action names applicable in the state whose true atoms are `atoms`."""
    return {name for name, _o, _t in space.transitions[space.states.index(frozenset(atoms))]}


class TestMarkerIndex:
    """Edge cases of the applicable-action sets: each state inherits the set
    of the state that found it, less the users of the bits the outcome
    clears, plus the users of the bits it adds whose preconditions hold."""

    @staticmethod
    def _space(preds, actions, init, goal, label):
        domain = PddlDomain("d", [":strips"], [], preds, [PddlAction(n, pre, EffAnd(eff)) for n, pre, eff in actions])
        return _assert_same_space(domain, PddlProblem("p", "d", init, goal), label)

    def test_two_actions_racing_for_one_bit(self):
        """`take` and `grab` both need x; whichever fires clears it, and the other leaves the set."""
        space = self._space(["x", "z", "y", "w", "g"], [
            ("take", ["x"], [EffNot("x"), EffAdd("y")]),
            ("grab", ["x", "z"], [EffNot("x"), EffNot("z"), EffAdd("w")]),
            ("end", ["y"], [EffNot("y"), EffAdd("g")]),
        ], ["x", "z"], ["g"], "race")
        assert _moves_of(space, ["x", "z"]) == {"take", "grab"}
        assert _moves_of(space, ["y", "z"]) == {"end"}
        assert _moves_of(space, ["w"]) == set()

    def test_a_bit_deleted_and_added_stays_true(self):
        """`renew` deletes and adds x: the add wins, so x's users keep their place."""
        space = self._space(["x", "y", "g"], [
            ("renew", ["x"], [EffNot("x"), EffAdd("x"), EffAdd("y")]),
            ("use", ["x"], [EffNot("x"), EffAdd("g")]),
            ("both", ["x", "y"], [EffNot("y"), EffAdd("g")]),
        ], ["x"], ["g"], "re-add")
        assert _moves_of(space, ["x", "y"]) == {"renew", "use", "both"}

    def test_woken_by_a_bit_that_was_already_true(self):
        """`again` adds q, already true, and r: `both` needs the two and joins; `stay` needs q and stays;
        `never` needs q and n, which no state holds, so waking it finds it inapplicable."""
        space = self._space(["p", "q", "r", "n", "g"], [
            ("again", ["p"], [EffNot("p"), EffAdd("q"), EffAdd("r")]),
            ("stay", ["q"], [EffAdd("q")]),
            ("both", ["q", "r"], [EffNot("q"), EffNot("r"), EffAdd("g")]),
            ("poke", ["p"], [EffAdd("q")]),
            ("never", ["q", "n"], [EffAdd("g")]),
        ], ["p", "q"], ["g"], "already true")
        assert _moves_of(space, ["p", "q"]) == {"again", "stay", "poke"}
        assert _moves_of(space, ["q", "r"]) == {"stay", "both"}

    def test_no_precondition_action_is_in_every_set(self):
        """`tick` needs nothing: it is in every state's set, also in a state holding only the bits
        the outcome that found it adds (`step`'s), which takes no table."""
        space = self._space(["a", "b", "t", "g"], [
            ("step", ["a"], [EffNot("a"), EffAdd("b")]),
            ("tick", [], [EffAdd("t")]),
            ("end", ["b", "t"], [EffNot("b"), EffNot("t"), EffAdd("g")]),
        ], ["a"], ["g"], "no precondition")
        assert all("tick" in {name for name, _o, _t in moves} for moves in space.transitions)
        assert _moves_of(space, ["b"]) == {"tick"}

    def test_oneof_outcomes_disable_different_actions(self):
        """`split`'s first outcome clears u and its second v, so each successor loses a different user."""
        space = self._space(["s", "u", "v", "g"], [
            ("split", ["s"], [EffNot("s"), EffOneOf([EffNot("u"), EffNot("v")])]),
            ("useu", ["u"], [EffNot("u"), EffAdd("g")]),
            ("usev", ["v"], [EffNot("v"), EffAdd("g")]),
        ], ["s", "u", "v"], ["g"], "oneof")
        assert _moves_of(space, ["v"]) == {"usev"}
        assert _moves_of(space, ["u"]) == {"useu"}

    def test_state_limit_sweep_on_a_parallel_space(self):
        """Every limit from 1 to n + 1 on a many-token space trips where the reference does, or not at
        all, and reports the state whose expansion found state k and its depth, read off the full space."""
        domain, (problem,) = _pipeline(GEN.parallel(random.Random(0), "par", 3, 2).xml)
        space = explore(domain, problem)
        n = len(space.masks)
        found = _finders(space)
        depth = [0] * n
        for t in range(1, n):
            depth[t] = depth[found[t]] + 1
        for k in range(1, n + 2):
            outcomes = []
            for explorer in (explore, reference_solver.explore):
                try:
                    outcomes.append(explorer(domain, problem, Limits(max_states=k)).transitions)
                except LimitExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], k
            assert isinstance(outcomes[0], str) == (k < n), k
            if k < n:
                with pytest.raises(LimitExceeded) as exc:
                    explore(domain, problem, Limits(max_states=k))
                got = exc.value
                assert (got.states, got.expanded, got.frontier, got.depth) == (
                    k, found[k], k - found[k], depth[found[k]]), k

    def test_empty_precondition_action_fires_in_every_state(self):
        from bpmn2pddl.pddl_encoder import EncodeOptions

        graph = build_graph(parse_bpmn(LINEAR), MessageStrategy.IGNORE)
        options = EncodeOptions(allow_spontaneous_start=True)
        domain = emit_domain(graph, options)
        assert next(a for a in domain.actions if a.name == "start_S1").precondition == []
        for problem in emit_problems(graph, options):
            space = _assert_same_space(domain, problem, problem.variant)
            assert all("start_S1" in {name for name, _o, _t in trs} for trs in space.transitions)

    def test_undeclared_init_and_goal_atoms(self):
        domain = PddlDomain("d", [":strips"], [], ["s", "g"], [PddlAction("go", ["s"], EffAnd([EffAdd("g"), EffNot("s")]))])
        problem = PddlProblem(name="p", domain_name="d", init=["s", "x"], goal=["g", "y"])
        space = _assert_same_space(domain, problem, "undeclared")
        assert space.states == [frozenset({"s", "x"}), frozenset({"g", "x"})]
        assert space.goal_states == set()
        for mode in SolveMode:
            with pytest.raises(Unsolvable):
                solve(domain, problem, mode, space=space)

    def test_state_limit_trips_where_the_reference_does(self):
        domain, (problem,) = _pipeline(fixture("inclusive_pair.bpmn").read_text())
        n = len(explore(domain, problem).states)
        for k in range(1, n + 2):
            outcomes = []
            for explorer in (explore, reference_solver.explore):
                try:
                    outcomes.append(explorer(domain, problem, Limits(max_states=k)).transitions)
                except LimitExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], k
            assert isinstance(outcomes[0], str) == (k < n), k

    def test_strong_analyze_leaves_views_undecoded(self):
        n = 300
        domain, (problem,) = _pipeline(_chain(n))
        report = analyze(domain, problem, (SolveMode.STRONG,))
        assert report.n_states == n + 2
        assert len(report.strong.mapping) == n + 1
        for view in ("states", "transitions"):
            assert view not in report.space.__dict__, view
        assert len(report.space._decoded) == n + 1  # the policy's states, decoded once each


class TestSharedSuccessors:
    """Successors are tuples: one per state, shared by the one-outcome pairs into
    it, and one per multi-outcome pair."""

    def test_parallel_space_allocates_one_successor_per_state(self):
        d = GEN.parallel(random.Random(1), "par", 8, 2)
        domain, (problem,) = _pipeline(d.xml)
        space = explore(domain, problem)
        assert [len(space.masks)] == [v.states for v in d.variants.values()] == [6564]
        assert all(type(x) is tuple for x in space.succs)
        multi = sum(len(x) > 1 for x in space.succs)
        assert len({id(x) for x in space.succs}) <= len(space.masks) + multi

    def test_one_outcome_and_oneof_pairs_into_one_state(self):
        """`go` and `again` lead to the state {a} that `try` may also reach; the
        space equals the reference explorer's, and `owner` expands `first`."""
        domain = PddlDomain("d", [":strips"], [], ["s", "a", "g"], [
            PddlAction("go", ["s"], EffAnd([EffAdd("a"), EffNot("s")])),
            PddlAction("try", ["s"], EffAnd([EffNot("s"), EffOneOf([EffAdd("a"), EffAdd("g")])])),
            PddlAction("again", ["s"], EffAnd([EffAdd("a"), EffNot("s")])),
            PddlAction("fin", ["a"], EffAnd([EffAdd("g"), EffNot("a")])),
        ])
        problem = PddlProblem(name="p", domain_name="d", init=["s"], goal=["g"])
        space = _assert_same_space(domain, problem, "shared")
        a, g = space.states.index(frozenset({"a"})), space.states.index(frozenset({"g"}))
        go, try_, again, fin = space.succs
        assert go == again == (a,) and go is again
        assert try_ == (a, g) and try_ is not go
        assert fin == (g,)
        first = space.first
        assert space.owner == [s for s in range(len(space.masks)) for _ in range(first[s], first[s + 1])]
        assert solve(domain, problem, SolveMode.STRONG, space=space).mapping == {
            frozenset({"s"}): "again", frozenset({"a"}): "fin"}

    def test_limit_report_finds_owners_mid_search(self):
        """Tripping at k states reports the state whose expansion found state k,
        and its breadth-first depth, read off the full space."""
        for name in ("inclusive_pair.bpmn", "xor_and_deadlock.bpmn", "msg_task_event.bpmn"):
            domain, problems = _pipeline(fixture(name).read_text())
            for problem in problems:
                space = explore(domain, problem)
                n = len(space.masks)
                found = _finders(space)
                depth = [0] * n
                for t in range(1, n):
                    depth[t] = depth[found[t]] + 1
                for k in range(1, n):
                    with pytest.raises(LimitExceeded) as exc:
                        explore(domain, problem, Limits(max_states=k))
                    got = exc.value
                    assert (got.states, got.expanded, got.frontier, got.depth) == (
                        k, found[k], k - found[k], depth[found[k]]), (name, k)


def _assert_same_exports(domain, problem, space, policy, label):
    """Traces and policy DOT from `space` equal the re-simulating reference's."""
    got = traces_to_json(enumerate_traces(domain, problem, policy, space=space))
    assert got == traces_to_json(reference_solver.enumerate_traces(domain, problem, policy)), label
    if policy is not None:
        dot = export_policy_dot(domain, problem, policy, space)
        assert dot == reference_solver.export_policy_dot(domain, problem, policy), label


class TestTraceDotOracle:
    """Traces and DOT read from the explored space match the seed's re-simulation."""

    def test_fixtures(self):
        for name in FIXTURES:
            for strategy in MessageStrategy:
                domain, problems = _pipeline(fixture(name).read_text(), strategy)
                for problem in problems:
                    space = explore(domain, problem)
                    label = f"{name} {strategy.value} {problem.variant}"
                    _assert_same_exports(domain, problem, space, None, f"{label} all")
                    for mode in SolveMode:
                        try:
                            policy = solve(domain, problem, mode, space=space)
                        except Unsolvable:
                            continue
                        _assert_same_exports(domain, problem, space, policy, f"{label} {mode.value}")

    def test_corpus_variants_under_1000_states(self):
        compared = 0
        for path in CORPUS_FILES:
            for strategy in MessageStrategy:
                for done_mode in DoneMode:
                    result = translate(path, strategy, done_mode=done_mode)
                    for problem in result.problems:
                        space = explore(result.domain, problem)
                        if len(space.states) >= 1000:
                            continue
                        for mode in SolveMode:
                            try:
                                policy = solve(result.domain, problem, mode, space=space)
                            except Unsolvable:
                                continue
                            compared += 1
                            label = f"{path.stem} {strategy.value} {done_mode.value} {problem.variant} {mode.value}"
                            _assert_same_exports(result.domain, problem, space, policy, label)
        assert compared == 80  # the 58 variants' strong and strong-cyclic policies

    def test_random_instances(self):
        """`TestSolverDifferential`'s seeded random instances: DOT and traces of each mode's policy, then
        traces only of that policy with one mapped state unmapped or mapped to an action that does not
        apply there, each mapped state in turn (the reference DOT applies a mapped action without
        checking that it applies)."""
        rng, pick = random.Random(0x5EED), random.Random(1)
        compared = broken = 0
        for _ in range(220):
            domain, problem = TestSolverDifferential._random_instance(rng)
            space = explore(domain, problem)
            names = {a.name for a in domain.actions}
            for mode in SolveMode:
                try:
                    policy = solve(domain, problem, mode, space=space)
                except Unsolvable:
                    continue
                compared += 1
                _assert_same_exports(domain, problem, space, policy, f"{mode.value} policy")
                for state in sorted(policy.mapping, key=sorted):
                    applies = {a for a, _o, _t in space.moves(space.states.index(state))}
                    wrong = pick.choice(sorted(names - applies) or ["no_such_action"])
                    unmapped = {s: a for s, a in policy.mapping.items() if s != state}
                    for mapping, error in ((unmapped, "unmapped"), (policy.mapping | {state: wrong}, "not applicable")):
                        hand_made = Policy(mapping=mapping, kind=mode)
                        with pytest.raises(PolicyVerificationError, match=error):  # the state is reached
                            verify_policy(space, hand_made)
                        got = traces_to_json(enumerate_traces(domain, problem, hand_made, space=space))
                        assert got == traces_to_json(reference_solver.enumerate_traces(domain, problem, hand_made))
                        broken += 1
        assert (compared, broken) == (296, 110)  # 42 policies map 55 states

    def test_unmapped_or_inapplicable_action_is_a_deadlock(self):
        domain, (problem,) = _pipeline(LINEAR)
        space = explore(domain, problem)
        for mapping in ({}, {frozenset(problem.init): "event_E1"}, {frozenset(problem.init): "no_such_action"}):
            policy = Policy(mapping=mapping, kind=SolveMode.STRONG)
            traces = traces_to_json(enumerate_traces(domain, problem, policy, space=space))
            assert [t["terminal"] for t in traces] == ["deadlock"]
            assert traces == traces_to_json(reference_solver.enumerate_traces(domain, problem, policy))
            assert "->" not in export_policy_dot(domain, problem, policy, space)

    def test_space_is_explored_when_not_given(self):
        domain, (problem,) = _pipeline(fixture("loop_retry.bpmn").read_text())
        policy = solve(domain, problem, SolveMode.STRONG_CYCLIC)
        _assert_same_exports(domain, problem, None, policy, "no space")
        with pytest.raises(LimitExceeded):
            enumerate_traces(domain, problem, policy, Limits(max_states=2))


class TestSolverPolicy:
    """A solver policy keeps the pair it chose per reached state; its mapping is decoded only when read."""

    def test_another_space_resolves_the_policy_through_its_mapping(self):
        """DOT and traces of a solver policy are the same from the space it was solved in (its pairs),
        from a space explored again (its mapping, decoded) and as a hand-made policy of that mapping."""
        compared = 0
        for name in ("loop_retry.bpmn", "inclusive_pair.bpmn", "msg_task_task.bpmn"):
            domain, problems = _pipeline(fixture(name).read_text())
            for problem, mode in product(problems, SolveMode):
                space = explore(domain, problem)
                try:
                    policy = solve(domain, problem, mode, space=space)
                except Unsolvable:
                    continue
                dot = export_policy_dot(domain, problem, policy, space)
                traces = traces_to_json(enumerate_traces(domain, problem, policy, space=space))
                for other, hand_made in ((explore(domain, problem), policy), (space, Policy(policy.mapping, mode))):
                    assert export_policy_dot(domain, problem, hand_made, other) == dot, name
                    assert traces_to_json(enumerate_traces(domain, problem, hand_made, space=other)) == traces, name
                assert export_policy_dot(domain, problem, policy) == dot  # explored anew
                compared += 1
        assert compared == 9

    def test_check_decodes_only_the_states_it_prints(self, tmp_path, monkeypatch, capsys):
        """`check` without --dot or --traces decodes no state: verification and policy_size read the
        solver's pairs. With both, it decodes the states a DOT label or a trace step prints."""
        decoded = []
        real = fond_checker._decode
        monkeypatch.setattr(fond_checker, "_decode", lambda preds, mask: decoded.append(mask) or real(preds, mask))
        path = str(CORPUS_FILES[0])
        assert cli.main(["check", path, "--out", str(tmp_path / "plain")]) == 0
        assert decoded == []
        plain = [line for line in capsys.readouterr().out.splitlines() if "policy_size=" in line]
        assert plain and not any(line.endswith("policy_size=0") for line in plain)
        assert cli.main(["check", path, "--dot", "--traces", "--out", str(tmp_path / "both")]) == 0
        assert decoded and [line for line in capsys.readouterr().out.splitlines() if "policy_size=" in line] == plain


def _chain(n: int) -> str:
    ids = ["S1", *(f"T{i}" for i in range(n)), "E1"]
    nodes = ['<bpmn:startEvent id="S1"/>', *(f'<bpmn:task id="T{i}"/>' for i in range(n))]
    flows = [
        f'<bpmn:sequenceFlow id="F{i}" sourceRef="{a}" targetRef="{b}"/>'
        for i, (a, b) in enumerate(zip(ids, ids[1:]))
    ]
    return (
        '<?xml version="1.0"?>\n<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">'
        '<bpmn:process id="P1" name="Chain">'
        + "".join(nodes)
        + '<bpmn:endEvent id="E1"/>'
        + "".join(flows)
        + "</bpmn:process></bpmn:definitions>"
    )


class TestVerifyPolicy:
    """Hand-made policies, one per rejection."""

    # s -go-> a -back-> s, a -fin-> g, s -dead-> d (d has no applicable action),
    # s -try-> g or t, t -spin-> t
    DOMAIN = PddlDomain(
        name="v",
        requirements=[":strips"],
        types=[],
        predicates=["s", "a", "g", "d", "t"],
        actions=[
            PddlAction("go", ["s"], EffAnd([EffAdd("a"), EffNot("s")])),
            PddlAction("back", ["a"], EffAnd([EffAdd("s"), EffNot("a")])),
            PddlAction("fin", ["a"], EffAnd([EffAdd("g"), EffNot("a")])),
            PddlAction("dead", ["s"], EffAnd([EffAdd("d"), EffNot("s")])),
            PddlAction(
                "try",
                ["s"],
                EffAnd([EffNot("s"), EffOneOf([EffAnd([EffAdd("g")]), EffAnd([EffAdd("t")])])]),
            ),
            PddlAction("spin", ["t"], EffAnd([EffAdd("t")])),
        ],
    )
    PROBLEM = PddlProblem(name="p", domain_name="v", init=["s"], goal=["g"])
    S, A, T = frozenset({"s"}), frozenset({"a"}), frozenset({"t"})

    def _verify(self, mapping, kind):
        verify_policy(explore(self.DOMAIN, self.PROBLEM), Policy(mapping, kind))

    def test_valid_policy_passes_in_both_modes(self):
        for kind in SolveMode:
            self._verify({self.S: "go", self.A: "fin"}, kind)

    def test_unmapped_state(self):
        for kind in SolveMode:
            with pytest.raises(PolicyVerificationError, match=r"not closed: state \['a'\] unmapped"):
                self._verify({self.S: "go"}, kind)

    def test_inapplicable_action(self):
        for kind in SolveMode:
            with pytest.raises(PolicyVerificationError, match="policy action 'fin' not applicable"):
                self._verify({self.S: "fin"}, kind)

    def test_strong_policy_with_cycle(self):
        with pytest.raises(PolicyVerificationError, match="strong policy revisits a state"):
            self._verify({self.S: "go", self.A: "back"}, SolveMode.STRONG)

    def test_strong_policy_into_deadlock(self):
        with pytest.raises(PolicyVerificationError, match="strong policy reaches a non-goal leaf"):
            self._verify({self.S: "dead"}, SolveMode.STRONG)

    def test_cyclic_policy_stuck_away_from_goal(self):
        # the last policy reaches the goal from init, but never from t
        for mapping in ({self.S: "go", self.A: "back"}, {self.S: "dead"}, {self.S: "try", self.T: "spin"}):
            with pytest.raises(PolicyVerificationError, match="can get stuck away from the goal"):
                self._verify(mapping, SolveMode.STRONG_CYCLIC)

    def test_verification_counts_only_chosen_pairs(self):
        """`a` leads from t straight to the goal, but the policy takes c and d round t and u instead:
        verification must not let the unchosen `a` fire t, though ``rev`` lists it as the bare state t."""
        domain = PddlDomain("c", [":strips"], [], ["s", "g", "t", "u"], [
            PddlAction("a", ["t"], EffAnd([EffAdd("g"), EffNot("t")])),
            PddlAction("b", ["s"], EffAnd([EffNot("s"), EffOneOf([EffAdd("g"), EffAdd("t")])])),
            PddlAction("c", ["t"], EffAnd([EffAdd("u"), EffNot("t")])),
            PddlAction("d", ["u"], EffAnd([EffAdd("t"), EffNot("u")])),
        ])
        space = explore(domain, PddlProblem(name="p", domain_name="c", init=["s"], goal=["g"]))
        t = space.states.index(frozenset({"t"}))
        assert t in space.rev[space.states.index(frozenset({"g"}))]  # `a`'s entry: the bare state t
        mapping = {frozenset({"s"}): "b", frozenset({"t"}): "c", frozenset({"u"}): "d"}
        with pytest.raises(PolicyVerificationError, match="strong policy revisits a state"):
            verify_policy(space, Policy(mapping, SolveMode.STRONG))
        with pytest.raises(PolicyVerificationError, match="can get stuck away from the goal"):
            verify_policy(space, Policy(mapping, SolveMode.STRONG_CYCLIC))
        for kind in SolveMode:
            verify_policy(space, Policy({**mapping, frozenset({"t"}): "a"}, kind))

    def test_retry_loop_is_cyclic_not_strong(self):
        domain, (problem,) = _pipeline(fixture("loop_retry.bpmn").read_text())
        space = explore(domain, problem)
        policy = solve(domain, problem, SolveMode.STRONG_CYCLIC, space=space)
        with pytest.raises(PolicyVerificationError, match="strong policy revisits a state"):
            verify_policy(space, Policy(policy.mapping, SolveMode.STRONG))

    def test_an_edit_to_a_solver_policy_is_the_policy(self):
        """A solver policy's mapping, once read, is what verification checks: an edit in place or an
        assignment is rejected as the same hand-made policy would be."""
        space = explore(self.DOMAIN, self.PROBLEM)
        for kind in SolveMode:
            policy = solve(self.DOMAIN, self.PROBLEM, kind, space=space)
            assert policy.mapping == {self.S: "go", self.A: "fin"}
            policy.mapping[self.S] = "fin"  # applies in a, not in s
            with pytest.raises(PolicyVerificationError, match="policy action 'fin' not applicable"):
                verify_policy(space, policy)
            policy = solve(self.DOMAIN, self.PROBLEM, kind, space=space)
            del policy.mapping[self.A]
            with pytest.raises(PolicyVerificationError, match=r"not closed: state \['a'\] unmapped"):
                verify_policy(space, policy)
            policy = solve(self.DOMAIN, self.PROBLEM, kind, space=space)
            policy.mapping = {self.S: "dead"}
            with pytest.raises(PolicyVerificationError, match="non-goal leaf|stuck away from the goal"):
                verify_policy(space, policy)

    def test_long_chain_solves_without_recursion(self):
        n = 3000
        domain, (problem,) = _pipeline(_chain(n))
        space = explore(domain, problem)
        assert len(space.states) == n + 2
        for mode in SolveMode:
            assert len(solve(domain, problem, mode, space=space).mapping) == n + 1


class TestTraces:
    def test_linear_single_trace(self):
        domain, (problem,) = _pipeline(LINEAR)
        policy = solve(domain, problem, SolveMode.STRONG)
        traces = enumerate_traces(domain, problem, policy)
        assert len(traces.traces) == 1
        assert traces.traces[0].terminal == "goal"
        assert [s[1] for s in traces.traces[0].steps] == ["work", "event_E1"]

    def test_event_gateway_two_traces(self):
        xml = fixture("loop_retry.bpmn").read_text()  # has a 2-way choice
        domain, (problem,) = _pipeline(xml)
        policy = solve(domain, problem, SolveMode.STRONG_CYCLIC)
        traces = enumerate_traces(domain, problem, policy)
        terminals = sorted(t.terminal for t in traces.traces)
        assert "goal" in terminals
        assert "cycle" in terminals  # the retry branch cuts at the revisit

    def test_event_gateway_policy_yields_exactly_two_goal_traces(self):
        from conftest import CORPUS_DIR

        xml = (CORPUS_DIR / "order_pizza_2.bpmn").read_text()
        domain, problems = _pipeline(xml)
        problem = next(p for p in problems if p.variant == "prestarted_customer")
        policy = solve(domain, problem, SolveMode.STRONG_CYCLIC)
        traces = enumerate_traces(domain, problem, policy)
        assert len(traces.traces) == 2
        assert all(t.terminal == "goal" for t in traces.traces)

    def test_inclusive_outcome_families(self):
        domain, (problem,) = _pipeline(fixture("inclusive_pair.bpmn").read_text())
        traces = enumerate_traces(domain, problem, policy=None)
        goal_traces = [t for t in traces.traces if t.terminal == "goal"]
        split_outcomes = set()
        for t in goal_traces:
            for state, action, outcome in t.steps:
                if action == "event_Split_1":
                    split_outcomes.add(outcome)
                if action == "event_Join_1":  # the release
                    assert "count_Split_1_0" in state
        assert split_outcomes == {0, 1, 2}

    def test_xor_join_either_branch_reaches_successor(self):
        xml = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:process id="P1" name="Either">
    <bpmn:startEvent id="S1"/>
    <bpmn:exclusiveGateway id="Split"/>
    <bpmn:task id="T1" name="a"/>
    <bpmn:task id="T2" name="b"/>
    <bpmn:exclusiveGateway id="Join"/>
    <bpmn:endEvent id="E1"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="Split"/>
    <bpmn:sequenceFlow id="F2" sourceRef="Split" targetRef="T1"/>
    <bpmn:sequenceFlow id="F3" sourceRef="Split" targetRef="T2"/>
    <bpmn:sequenceFlow id="F4" sourceRef="T1" targetRef="Join"/>
    <bpmn:sequenceFlow id="F5" sourceRef="T2" targetRef="Join"/>
    <bpmn:sequenceFlow id="F6" sourceRef="Join" targetRef="E1"/>
  </bpmn:process>
</bpmn:definitions>"""
        domain, (problem,) = _pipeline(xml)
        traces = enumerate_traces(domain, problem, policy=None)
        goal_traces = [t for t in traces.traces if t.terminal == "goal"]
        used = {a for t in goal_traces for (_s, a, _o) in t.steps}
        assert {"event_Join_0", "event_Join_1"} <= used
        assert all(t.terminal == "goal" for t in traces.traces)

    def test_trace_json_shape(self):
        domain, (problem,) = _pipeline(LINEAR)
        policy = solve(domain, problem, SolveMode.STRONG)
        payload = traces_to_json(enumerate_traces(domain, problem, policy))
        assert payload[0]["terminal"] == "goal"
        step = payload[0]["steps"][0]
        assert set(step) == {"state", "action", "outcome"}
        assert step["state"] == ["S1"]

    def test_trace_count_limit(self):
        domain, (problem,) = _pipeline(DIAMOND)
        with pytest.raises(LimitExceeded):
            enumerate_traces(domain, problem, None, Limits(max_traces=1))


def _run_of(n: int, end: str) -> tuple[PddlDomain, PddlProblem, Policy]:
    """A domain whose one trace takes `n` steps p0 -> p1 -> ... and ends by `end`: at the goal, in a deadlock,
    or back at p0 (a cycle, whose closing step counts); and the policy that maps each state on the way."""
    last = {"goal": "g", "deadlock": "x", "cycle": "p0"}[end]
    succ = [*(f"p{i + 1}" for i in range(n - 1)), last]
    actions = [PddlAction(f"a{i}", [f"p{i}"], EffAnd([EffAdd(t), EffNot(f"p{i}")])) for i, t in enumerate(succ)]
    domain = PddlDomain("run", [":strips"], [], [*(f"p{i}" for i in range(n)), "g", "x"], actions)
    problem = PddlProblem(name="run", domain_name="run", init=["p0"], goal=["g"])
    return domain, problem, Policy({frozenset({f"p{i}"}): f"a{i}" for i in range(n)}, SolveMode.STRONG_CYCLIC)


def _fan(n: int) -> tuple[PddlDomain, PddlProblem, Policy]:
    """A domain with one action whose `n` outcomes each reach a goal state: `n` one-step traces."""
    outcomes = [EffAnd([EffAdd("g"), EffAdd(f"m{i}")]) for i in range(n)]
    domain = PddlDomain("fan", [":strips"], [], ["s", "g", *(f"m{i}" for i in range(n))],
                        [PddlAction("split", ["s"], EffAnd([EffNot("s"), EffOneOf(outcomes)]))])
    problem = PddlProblem(name="fan", domain_name="fan", init=["s"], goal=["g"])
    return domain, problem, Policy({frozenset({"s"}): "split"}, SolveMode.STRONG)


def _traces_or_error(enumerate_, *args) -> list[dict] | str:
    """The traces `enumerate_` returns, as JSON, or the message of its :class:`LimitExceeded`."""
    try:
        return traces_to_json(enumerate_(*args))
    except LimitExceeded as exc:
        return str(exc)


TIGHT_LIMITS = [Limits(max_traces=k, max_trace_len=n) for k in range(1, 4) for n in range(1, 7)]


def _assert_same_under_tight_limits(domain, problem, space, policy, label):
    """Traces or limit message from `space` equal the reference's, under each of `TIGHT_LIMITS`."""
    for limits in TIGHT_LIMITS:
        got = _traces_or_error(enumerate_traces, domain, problem, policy, limits, space)
        assert got == _traces_or_error(reference_solver.enumerate_traces, domain, problem, policy, limits), \
            (label, limits)


class TestTraceLimits:
    """Both trace limits hold for each trace recorded, under a policy and in all mode."""

    @pytest.mark.parametrize("end", ["goal", "deadlock", "cycle"])
    @pytest.mark.parametrize("all_mode", [False, True], ids=["policy", "all"])
    def test_trace_of_n_steps_passes_and_of_n_plus_1_raises(self, end, all_mode):
        for n in (1, 2, 5):
            domain, problem, policy = _run_of(n, end)
            limits = Limits(max_trace_len=n)
            traces = enumerate_traces(domain, problem, None if all_mode else policy, limits)
            assert [(len(t.steps), t.terminal) for t in traces.traces] == [(n, end)]
            domain, problem, policy = _run_of(n + 1, end)
            with pytest.raises(LimitExceeded, match=rf"^trace longer than {n} steps$"):
                enumerate_traces(domain, problem, None if all_mode else policy, limits)
            for size in (n, n + 1):
                domain, problem, policy = _run_of(size, end)
                for chosen in (None, policy):
                    assert _traces_or_error(enumerate_traces, domain, problem, chosen, limits) == \
                        _traces_or_error(reference_solver.enumerate_traces, domain, problem, chosen, limits)

    @pytest.mark.parametrize("all_mode", [False, True], ids=["policy", "all"])
    def test_n_traces_pass_and_n_plus_1_raise(self, all_mode):
        for n in (1, 2, 5):
            domain, problem, policy = _fan(n)
            limits = Limits(max_traces=n)
            traces = enumerate_traces(domain, problem, None if all_mode else policy, limits)
            assert [(len(t.steps), t.terminal) for t in traces.traces] == [(1, "goal")] * n
            domain, problem, policy = _fan(n + 1)
            with pytest.raises(LimitExceeded, match=rf"^more than {n} traces$"):
                enumerate_traces(domain, problem, None if all_mode else policy, limits)

    def test_cycle_closing_step_counts(self):
        """`a` and `b` cycle between s and t, `c` reaches the goal: with one step allowed, the two-step
        cycle trace is a limit error, as a two-step goal trace would be."""
        domain = PddlDomain("d", [":strips"], [], ["s", "t", "g"], [
            PddlAction("a", ["s"], EffAnd([EffAdd("t"), EffNot("s")])),
            PddlAction("b", ["t"], EffAnd([EffAdd("s"), EffNot("t")])),
            PddlAction("c", ["s"], EffAnd([EffAdd("g"), EffNot("s")])),
        ])
        problem = PddlProblem(name="p", domain_name="d", init=["s"], goal=["g"])
        with pytest.raises(LimitExceeded, match=r"^trace longer than 1 steps$"):
            enumerate_traces(domain, problem, None, Limits(max_trace_len=1))
        traces = enumerate_traces(domain, problem, None, Limits(max_trace_len=2))
        assert [(len(t.steps), t.terminal) for t in traces.traces] == [(1, "goal"), (2, "cycle")]

    def test_random_instances_match_the_reference(self):
        """`TestSolverDifferential`'s seeded random instances, in all mode and under each mode's policy."""
        rng = random.Random(0x5EED)
        compared = 0
        for _ in range(220):
            domain, problem = TestSolverDifferential._random_instance(rng)
            space = explore(domain, problem)
            policies = [None]
            for mode in SolveMode:
                with contextlib.suppress(Unsolvable):
                    policies.append(solve(domain, problem, mode, space=space))
            for policy in policies:
                _assert_same_under_tight_limits(domain, problem, space, policy, "random")
                compared += 1
        assert compared == 516  # 220 all-mode runs and 296 policies

    def test_corpus_variants_match_the_reference(self):
        """Each corpus variant under each mode's policy, and in all mode where it has under 1000 states."""
        compared = 0
        for path in CORPUS_FILES:
            for strategy, done_mode in product(MessageStrategy, DoneMode):
                result = translate(path, strategy, done_mode=done_mode)
                for problem in result.problems:
                    space = explore(result.domain, problem)
                    policies = [None] if len(space.masks) < 1000 else []
                    for mode in SolveMode:
                        with contextlib.suppress(Unsolvable):
                            policies.append(solve(result.domain, problem, mode, space=space))
                    label = f"{path.stem} {strategy.value} {done_mode.value} {problem.variant}"
                    for policy in policies:
                        _assert_same_under_tight_limits(result.domain, problem, space, policy, label)
                        compared += 1
        assert compared == 142  # 58 of the 60 variants in all mode, and 84 policies


class TestPolicyDot:
    def test_chain_policy(self):
        domain, (problem,) = _pipeline(LINEAR)
        policy = solve(domain, problem, SolveMode.STRONG)
        dot = export_policy_dot(domain, problem, policy)
        assert dot.startswith("digraph policy {")
        assert dot.count("->") == 2
        assert "doublecircle" in dot

    def test_branching_policy_has_outcome_edges(self):
        domain, (problem,) = _pipeline(fixture("loop_retry.bpmn").read_text())
        policy = solve(domain, problem, SolveMode.STRONG_CYCLIC)
        dot = export_policy_dot(domain, problem, policy)
        assert "/0" in dot and "/1" in dot  # labeled outcome edges

    def test_dot_is_well_formed(self):
        domain, (problem,) = _pipeline(DIAMOND)
        policy = solve(domain, problem, SolveMode.STRONG)
        dot = export_policy_dot(domain, problem, policy)
        assert dot.count("{") == dot.count("}")
        assert dot.count('"') % 2 == 0

    def test_labels_are_escaped(self):
        """Predicate and action names are escaped in their labels, each
        predicate before the join, so quotes and backslashes stay DOT text."""
        text = r'''(define (domain d) (:predicates (a"b) (k) (g\h))
          (:action go"x :precondition (a"b) :effect (and (g\h) (not (a"b)))))'''
        domain = parse_pddl(text)
        problem = PddlProblem("p", "d", ['a"b', "k"], ["g\\h"])
        dot = export_policy_dot(domain, problem, solve(domain, problem, SolveMode.STRONG))
        assert dot.splitlines()[2:] == [
            r'  s0 [shape=box label="a\"b\nk"];',
            r'  s1 [shape=doublecircle label="g\\h\nk"];',
            r'  s0 -> s1 [label="go\"x"];',
            "}",
        ]


class TestAnalyze:
    def test_report_fields(self):
        domain, (problem,) = _pipeline(fixture("xor_and_deadlock.bpmn").read_text())
        report = analyze(domain, problem)
        assert report.n_deadlocks >= 1
        assert report.strong is None
        assert report.strong_cyclic is None
        assert report.n_states == 5

    @pytest.mark.parametrize("modes", [(SolveMode.STRONG,), (SolveMode.STRONG_CYCLIC,),
                                       (SolveMode.STRONG, SolveMode.STRONG_CYCLIC), ()])
    @pytest.mark.parametrize("name", ["inclusive_pair.bpmn", "loop_retry.bpmn", "xor_and_deadlock.bpmn"])
    def test_modes_match_separate_solves(self, name, modes):
        """Both policies, a strong-cyclic one only, and none: each field as `explore` and `solve` give it."""
        domain, (problem,) = _pipeline(fixture(name).read_text())
        report = analyze(domain, problem, modes)
        space = explore(domain, problem)
        expected = {}
        for mode in modes:
            try:
                expected[mode] = solve(domain, problem, mode, space=space)
            except Unsolvable:
                pass
        assert report.strong == expected.get(SolveMode.STRONG)
        assert report.strong_cyclic == expected.get(SolveMode.STRONG_CYCLIC)
        assert (report.problem_name, report.variant) == (problem.name, problem.variant)
        assert (report.n_states, report.n_deadlocks) == (len(space.masks), len(space.deadlock_states))
        assert report.space.masks == space.masks and report.space.succs == space.succs
        solvable = {"inclusive_pair.bpmn": set(SolveMode), "loop_retry.bpmn": {SolveMode.STRONG_CYCLIC}}
        assert expected.keys() == solvable.get(name, set()) & set(modes)


class TestEncodeModes:
    def test_all_pools_done_mode_end_to_end(self):
        from bpmn2pddl.pddl_encoder import EncodeOptions, DoneMode
        from conftest import CORPUS_DIR

        graph = build_graph(
            parse_bpmn((CORPUS_DIR / "credit_scoring.bpmn").read_text()),
            MessageStrategy.EXCLUSIVE_EMULATION,
        )
        options = EncodeOptions(done_mode=DoneMode.ALL_POOLS)
        domain = emit_domain(graph, options)
        problems = {p.variant: p for p in emit_problems(graph, options)}
        # with every pool started, the finisher can conjoin all pool_done flags
        solve(domain, problems["all_starts"], SolveMode.STRONG_CYCLIC)
        # a single started pool cannot guarantee the other pools ever finish
        with pytest.raises(Unsolvable):
            solve(domain, problems["prestarted_frontend"], SolveMode.STRONG_CYCLIC)

    def test_spontaneous_start_bootstraps_empty_variant(self):
        from bpmn2pddl.pddl_encoder import EncodeOptions

        graph = build_graph(parse_bpmn(LINEAR), MessageStrategy.IGNORE)
        options = EncodeOptions(allow_spontaneous_start=True)
        domain = emit_domain(graph, options)
        problems = {p.variant: p for p in emit_problems(graph, options)}
        assert problems["empty"].init == []
        policy = solve(domain, problems["empty"], SolveMode.STRONG_CYCLIC)
        assert policy.mapping[frozenset()] == "start_S1"

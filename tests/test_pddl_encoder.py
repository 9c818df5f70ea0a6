"""Tests for the PDDL encoding and rendering."""

from __future__ import annotations

import hashlib
import random
import re
from itertools import accumulate, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_solver
from bpmn2pddl.bpmn_parser import BpmnModel, FlowNode, MessageFlow, NodeKind, Pool, SequenceFlow, parse_bpmn
from bpmn2pddl.fond_checker import analyze, ground_domain, parse_pddl
from bpmn2pddl.pddl_encoder import (
    _EFFECT_WORDS,
    EffAdd,
    EffAnd,
    EffNot,
    EffOneOf,
    EncodeOptions,
    EncodingError,
    DoneMode,
    PddlAction,
    PddlDomain,
    _Encoder,
    emit_domain,
    emit_pddl,
    emit_problems,
    render_pddl,
    sanitize_id,
)
from bpmn2pddl.process_graph import EndEventWithOutgoing, MessageStrategy, ProcessGraph, build_graph
from conftest import CORPUS_DIR, CORPUS_FILES, FIXTURE_DIR, bench_module, digraphs, fixture, translate

GEN = bench_module("gen")

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


def _graph(xml: str, strategy=MessageStrategy.IGNORE):
    return build_graph(parse_bpmn(xml), strategy)


def _credit_graph(strategy=MessageStrategy.IGNORE):
    return build_graph(parse_bpmn((CORPUS_DIR / "credit_scoring.bpmn").read_text()), strategy)


def _actions(graph, options=None) -> dict:
    """The emitted domain's actions by name."""
    return {a.name: a for a in emit_domain(graph, options).actions}


def _actions_of(graph, prefix: str) -> list:
    """The emitted domain's actions whose names start with `prefix`, in domain order."""
    return [a for a in emit_domain(graph).actions if a.name.startswith(prefix)]


class TestSanitizeId:
    def test_task_name_lowercased(self):
        assert sanitize_id("Request credit score", lower=True) == "request_credit_score"

    def test_element_id_keeps_casing(self):
        assert sanitize_id("StartEvent_1els7eb") == "StartEvent_1els7eb"

    def test_leading_digit_and_specials(self):
        assert sanitize_id("7-Ship (fast)", lower=True) == "n7_ship__fast_"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sanitize_id("")

    @pytest.mark.parametrize("word", sorted(_EFFECT_WORDS))
    def test_syntax_word_gains_suffix(self, word):
        assert sanitize_id(word) == sanitize_id(word.upper(), lower=True) == f"{word}_"
        assert sanitize_id(f"{word}_") == f"{word}_"
        assert sanitize_id(word.upper()) == word.upper()  # the reader's words are lowercase

    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_output_is_valid_identifier(self, raw):
        out = sanitize_id(raw)
        assert out
        assert not out[0].isdigit()
        assert all(c.isalnum() or c == "_" for c in out)
        assert sanitize_id(out) == out  # idempotent on sanitized input

    @pytest.mark.parametrize("lower", [False, True])
    def test_every_code_point_as_the_regex_gives(self, lower):
        chars = list(map(chr, range(0x110000)))
        texts = [c.lower() for c in chars] if lower else chars
        # one regex pass over all of them: it replaces character for character, so each keeps its span
        replaced = re.sub(r"[^A-Za-z0-9_]", "_", "".join(texts))
        ends = list(accumulate(map(len, texts)))
        want = [replaced[end - len(text) : end] for text, end in zip(texts, ends)]
        want = ["n" + w if w[0].isdigit() else w for w in want]
        assert [sanitize_id(c, lower=lower) for c in chars] == want

    # spaces, underscores, digits, punctuation and non-ASCII letters; the Kelvin sign lowercases to ASCII "k"
    @given(st.text(st.sampled_from("aZ_ 09-.éßİΣ\u212a"), min_size=1, max_size=20), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_regex_only_rule(self, raw, lower):
        text = raw.lower() if lower else raw
        want = re.sub(r"[^A-Za-z0-9_]", "_", text)
        want = "n" + want if want[0].isdigit() else want + "_" if want in _EFFECT_WORDS else want
        assert sanitize_id(raw, lower=lower) == want

    @pytest.mark.parametrize("done_mode", list(DoneMode))
    def test_one_translation_sanitizes_each_text_once(self, monkeypatch, done_mode):
        from bpmn2pddl import pddl_encoder

        calls = []

        def counted(raw, *, lower=False):
            calls.append((raw, lower))
            return sanitize_id(raw, lower=lower)

        monkeypatch.setattr(pddl_encoder, "sanitize_id", counted)
        diagram = GEN.block_structured(random.Random(3), "gen", 300, 3, shape_seed=3)
        inputs = [p.read_bytes() for p in [*CORPUS_FILES, *sorted(FIXTURE_DIR.glob("*.bpmn"))]] + [diagram.xml]
        for xml in inputs:
            graph = _graph(xml, MessageStrategy.EXCLUSIVE_EMULATION)
            calls.clear()
            emit_pddl(graph, EncodeOptions(done_mode=done_mode))
            texts = {node.name or node.id for node in graph.nodes.values() if node.kind is NodeKind.TASK}
            lowered = [raw for raw, lower in calls if lower]
            assert sorted(raw for raw, lower in calls if not lower) == sorted(graph.nodes)
            assert len(lowered) == len(set(lowered))
            assert set(lowered) <= texts | set(graph.pool_names.values()) | {graph.source_name}
        # the generated diagram, the last input, repeats task names
        assert len(texts) < sum(node.kind is NodeKind.TASK for node in graph.nodes.values())


# a task whose id is `word`: s -> T1 -> word -> e
WORD_TASK = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:process id="P1" name="Words">
    <bpmn:startEvent id="S1"/>
    <bpmn:task id="T1" name="work"/>
    <bpmn:task id="{word}"/>
    <bpmn:endEvent id="E1"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="T1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="{word}"/>
    <bpmn:sequenceFlow id="F3" sourceRef="{word}" targetRef="E1"/>
  </bpmn:process>
</bpmn:definitions>"""


class TestSyntaxWordIds:
    """An id that is a word the PDDL reader takes as syntax is renamed, so
    the written files read back as the domain and problem that were built."""

    @pytest.mark.parametrize("word", sorted(_EFFECT_WORDS))
    def test_round_trip_keeps_states_and_verdicts(self, word):
        graph = _graph(WORD_TASK.format(word=word))
        domain, (problem,) = emit_domain(graph), emit_problems(graph)
        texts = [render_pddl(domain), render_pddl(problem)]
        read_domain, read_problem = map(parse_pddl, texts)
        assert [render_pddl(read_domain), render_pddl(read_problem)] == texts
        want, got = analyze(domain, problem), analyze(read_domain, read_problem)
        assert (want.n_states, want.n_deadlocks) == (got.n_states, got.n_deadlocks) == (4, 0)
        assert got.strong.mapping == want.strong.mapping
        assert got.strong_cyclic.mapping == want.strong_cyclic.mapping
        assert [a.name for a in domain.actions] == ["work", f"{word}_", "event_E1"]


class TestMarkers:
    """Each flow's marker, decided once in `_Encoder.markers` when the domain
    is built, is the one the original per-use branch chain gives."""

    @staticmethod
    def _assert_markers(xml, strategy: MessageStrategy) -> None:
        graph = build_graph(parse_bpmn(xml), strategy)
        enc = _Encoder(graph, EncodeOptions())
        enc.domain()
        assert enc.markers == {fid: reference_solver.marker(enc, fid) for fid in graph.flows}

    @pytest.mark.parametrize("strategy", list(MessageStrategy))
    def test_corpus_and_fixtures(self, strategy):
        for path in [*CORPUS_FILES, *sorted(FIXTURE_DIR.glob("*.bpmn"))]:
            self._assert_markers(path.read_bytes(), strategy)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 10_000), st.integers(8, 300), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_generated_diagrams(self, seed, shape_seed, size, pools):
        diagram = GEN.block_structured(random.Random(seed), "gen", size, pools, shape_seed=shape_seed)
        for strategy in MessageStrategy:
            self._assert_markers(diagram.xml, strategy)

    def test_one_translation_builds_the_marker_table_once(self, monkeypatch):
        from bpmn2pddl import pddl_encoder

        encoders, calls = [], []
        init, flow_markers = pddl_encoder._Encoder.__init__, pddl_encoder._Encoder._flow_markers

        def recorded(self, *args):
            encoders.append(self)
            init(self, *args)

        def counted(self):
            calls.append(self)
            return flow_markers(self)

        monkeypatch.setattr(pddl_encoder._Encoder, "__init__", recorded)
        monkeypatch.setattr(pddl_encoder._Encoder, "_flow_markers", counted)
        translate(fixture("msg_task_task.bpmn"))  # the domain and the problems from one encoder
        assert len(encoders) == 1
        assert calls == encoders
        assert hasattr(encoders[0], "messages_from")


class TestTaskEncoding:
    def test_figure_shape_after_start_event(self):
        graph = _credit_graph()
        action = _actions(graph)["request_credit_score"]
        assert action.precondition == ["StartEvent_1els7eb"]
        assert action.effect == EffAnd(
            [EffAdd("EventBasedGateway_02s95tm"), EffNot("StartEvent_1els7eb")]
        )

    def test_message_ignored_is_plain(self):
        graph = _graph(fixture("msg_task_task.bpmn").read_text(), MessageStrategy.IGNORE)
        action = _actions(graph)["notify_partner"]
        assert action.effect == EffAnd([EffAdd("End_a"), EffNot("Start_a")])

    def test_message_emulated_is_oneof(self):
        graph = _graph(
            fixture("msg_task_task.bpmn").read_text(), MessageStrategy.EXCLUSIVE_EMULATION
        )
        action = _actions(graph)["notify_partner"]
        oneof = action.effect.items[0]
        assert isinstance(oneof, EffOneOf)
        assert len(oneof.outcomes) == 2
        assert oneof.outcomes[0] == EffAdd("End_a")
        # the message branch keeps the normal successor and adds the target's entry
        assert oneof.outcomes[1] == EffAnd([EffAdd("End_a"), EffAdd("Task_handle")])

    def test_messages_read_once_in_document_order(self):
        """The encoder indexes the task-task messages by source in one pass;
        a task's message outcomes keep the messages' document order."""
        xml = fixture("msg_task_task.bpmn").read_text().replace(
            '    <bpmn:messageFlow id="MessageFlow_1"',
            '    <bpmn:messageFlow id="MessageFlow_0" sourceRef="Task_notify" targetRef="Task_prep"/>\n'
            '    <bpmn:messageFlow id="MessageFlow_1"',
        )
        graph = _graph(xml, MessageStrategy.EXCLUSIVE_EMULATION)
        walks = []

        class Walked(list):
            def __iter__(self):
                walks.append(len(self))
                return super().__iter__()

        graph.task_task_messages = Walked(graph.task_task_messages)
        action = _actions(graph)["notify_partner"]
        assert walks == [2]
        assert action.effect.items[0].outcomes == [
            EffAdd("End_a"),
            EffAnd([EffAdd("End_a"), EffAdd("Start_b")]),  # Task_prep's entry marker
            EffAnd([EffAdd("End_a"), EffAdd("Task_handle")]),
        ]

    def test_unnamed_task_uses_id(self):
        xml = LINEAR.replace('name="work"', "")
        graph = _graph(xml)
        assert _actions(graph)["t1"].precondition == ["S1"]

    def test_repeated_task_names_take_the_next_free_suffix(self):
        """3000 tasks named x: each repeat goes on from the suffix the last
        one took, not from _2, and x_5, taken first by a task's id, is still
        skipped."""
        n = 3000
        ids = ["S1", "x_5", *(f"T{i}" for i in range(n)), "E1"]
        tasks = ['<bpmn:task id="x_5"/>', *(f'<bpmn:task id="T{i}" name="x"/>' for i in range(n))]
        flows = "".join(f'<bpmn:sequenceFlow id="F{i}" sourceRef="{a}" targetRef="{b}"/>'
                        for i, (a, b) in enumerate(zip(ids, ids[1:])))
        xml = LINEAR.replace('<bpmn:task id="T1" name="work"/>', "".join(tasks)).replace(
            '<bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="T1"/>\n'
            '    <bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>', flows)
        names = [a.name for a in emit_domain(_graph(xml)).actions if a.name.startswith("x")]
        assert names == ["x_5", "x", *(f"x_{k}" for k in range(2, n + 2) if k != 5)]


class TestEventEncoding:
    def test_start_event_has_no_action(self):
        graph = _graph(LINEAR)
        assert list(_actions(graph)) == ["work", "event_E1"]  # S1 emits no action

    def test_end_event_sets_done(self):
        graph = _graph(LINEAR)
        action = _actions(graph)["event_E1"]
        assert action.precondition == ["E1"]
        assert action.effect == EffAnd([EffAdd("done"), EffNot("E1")])

    def test_intermediate_event_passes_through(self):
        graph = _credit_graph()
        action = _actions(graph)["event_IntermediateCatchEvent_0yg7cuh"]
        assert action.precondition == ["IntermediateCatchEvent_0yg7cuh"]
        assert action.effect == EffAnd(
            [EffAdd("ExclusiveGateway_11dldcm"), EffNot("IntermediateCatchEvent_0yg7cuh")]
        )

    def test_end_event_all_pools_mode(self):
        graph = _graph(LINEAR)
        action = _actions(graph, EncodeOptions(done_mode=DoneMode.ALL_POOLS))["event_E1"]
        assert action.effect == EffAnd([EffAdd("pool_done_linear"), EffNot("E1")])


class TestExclusiveEncoding:
    def test_event_based_gateway_oneof(self):
        graph = _credit_graph()
        action = _actions(graph)["event_EventBasedGateway_02s95tm"]
        assert action.precondition == ["EventBasedGateway_02s95tm"]
        assert action.effect == EffAnd(
            [
                EffOneOf(
                    [
                        EffAdd("IntermediateCatchEvent_0ujob24"),
                        EffAdd("IntermediateCatchEvent_0yg7cuh"),
                    ]
                ),
                EffNot("EventBasedGateway_02s95tm"),
            ]
        )

    def test_single_outgoing_is_plain(self):
        xml = LINEAR.replace(
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>',
            '<bpmn:exclusiveGateway id="G1"/>'
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="G1"/>'
            '<bpmn:sequenceFlow id="F3" sourceRef="G1" targetRef="E1"/>',
        )
        graph = _graph(xml)
        (action,) = _actions_of(graph, "event_G1")
        assert action.effect == EffAnd([EffAdd("E1"), EffNot("G1")])

    def test_xor_join_one_action_per_branch(self):
        graph = _credit_graph()
        actions = _actions_of(graph, "event_ExclusiveGateway_1lo9p0a")
        assert [a.name for a in actions] == [
            "event_ExclusiveGateway_1lo9p0a_0",
            "event_ExclusiveGateway_1lo9p0a_1",
        ]
        assert actions[0].precondition == ["arr_ExclusiveGateway_1lo9p0a_0"]
        assert actions[1].precondition == ["arr_ExclusiveGateway_1lo9p0a_1"]
        for action in actions:
            assert EffAdd("Activity_0sd3fg4") in action.effect.items

    def test_mixed_gateway_rejected(self):
        xml = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:process id="P1">
    <bpmn:startEvent id="S1"/><bpmn:startEvent id="S2"/>
    <bpmn:exclusiveGateway id="G1"/>
    <bpmn:endEvent id="E1"/><bpmn:endEvent id="E2"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="G1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="S2" targetRef="G1"/>
    <bpmn:sequenceFlow id="F3" sourceRef="G1" targetRef="E1"/>
    <bpmn:sequenceFlow id="F4" sourceRef="G1" targetRef="E2"/>
  </bpmn:process>
</bpmn:definitions>"""
        graph = _graph(xml)
        with pytest.raises(EncodingError):
            emit_domain(graph)


class TestParallelEncoding:
    def test_split_activates_all_branches(self):
        graph = _graph(fixture("xor_and_deadlock.bpmn").read_text())
        # reuse the AND-join fixture's parallel join; build a split from dispatch
        dispatch = _graph((CORPUS_DIR / "dispatch_of_goods.bpmn").read_text())
        (split,) = _actions_of(dispatch, "event_ParallelGateway_0prep")
        adds = [i for i in split.effect.items if isinstance(i, EffAdd)]
        assert {a.pred for a in adds} == {"Activity_0pack", "Activity_0label", "Activity_0insure"}
        assert EffNot("ParallelGateway_0prep") in split.effect.items

    def test_join_requires_every_marker(self):
        graph = _graph((CORPUS_DIR / "dispatch_of_goods.bpmn").read_text())
        (join,) = _actions_of(graph, "event_ParallelGateway_0ready")
        assert join.precondition == [
            "arr_ParallelGateway_0ready_0",
            "arr_ParallelGateway_0ready_1",
            "arr_ParallelGateway_0ready_2",
        ]
        dels = {i.pred for i in join.effect.items if isinstance(i, EffNot)}
        assert dels == set(join.precondition)

    def test_single_branch_split_is_pass_through(self):
        xml = LINEAR.replace(
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>',
            '<bpmn:parallelGateway id="G1"/>'
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="G1"/>'
            '<bpmn:sequenceFlow id="F3" sourceRef="G1" targetRef="E1"/>',
        )
        graph = _graph(xml)
        (action,) = _actions_of(graph, "event_G1")
        assert action.effect == EffAnd([EffAdd("E1"), EffNot("G1")])


class TestInclusiveEncoding:
    def test_split_enumerates_nonempty_subsets(self):
        graph = _graph(fixture("inclusive_pair.bpmn").read_text())
        (action,) = _actions_of(graph, "event_Split_1")
        # the split follows the start event directly, so it consumes the start marker
        assert action.precondition == ["Start_1", "count_Split_1_0"]
        oneof = action.effect.items[0]
        assert isinstance(oneof, EffOneOf)
        assert oneof.outcomes == [
            EffAnd([EffAdd("Task_a"), EffAdd("count_Split_1_1")]),
            EffAnd([EffAdd("Task_b"), EffAdd("count_Split_1_1")]),
            EffAnd([EffAdd("Task_a"), EffAdd("Task_b"), EffAdd("count_Split_1_2")]),
        ]

    def test_counter_width_matches_branches(self):
        graph = _graph(fixture("inclusive_pair.bpmn").read_text())
        count_preds = [p for p in emit_domain(graph).predicates if p.startswith("count_Split_1_")]
        assert len(count_preds) - 1 == 2  # the counter's width
        assert count_preds == ["count_Split_1_0", "count_Split_1_1", "count_Split_1_2"]

    def test_join_decrements_and_releases(self):
        graph = _graph(fixture("inclusive_pair.bpmn").read_text())
        actions = _actions_of(graph, "event_Join_1")
        # 2 branches x 2 counter levels + release
        assert len(actions) == 5
        release = actions[-1]
        assert release.precondition == ["count_Split_1_0", "Join_1"]
        assert EffAdd("End_1") in release.effect.items
        final_decrement = actions[0]
        assert final_decrement.precondition == ["arr_Join_1_0", "count_Split_1_1"]
        assert EffAdd("Join_1") in final_decrement.effect.items  # join reached on last arrival

    def test_degenerate_single_branch(self):
        xml = LINEAR.replace(
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>',
            '<bpmn:inclusiveGateway id="G1"/>'
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="G1"/>'
            '<bpmn:sequenceFlow id="F3" sourceRef="G1" targetRef="E1"/>',
        )
        graph = _graph(xml)
        (action,) = _actions_of(graph, "event_G1")
        assert action.effect == EffAnd(
            [EffAdd("E1"), EffAdd("count_G1_1"), EffNot("G1"), EffNot("count_G1_0")]
        )

    def test_branch_limit_enforced(self):
        flows = "".join(
            f'<bpmn:task id="B{i}"/>'
            f'<bpmn:sequenceFlow id="FB{i}" sourceRef="G1" targetRef="B{i}"/>'
            f'<bpmn:endEvent id="EB{i}"/>'
            f'<bpmn:sequenceFlow id="FE{i}" sourceRef="B{i}" targetRef="EB{i}"/>'
            for i in range(7)
        )
        xml = LINEAR.replace(
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>',
            '<bpmn:inclusiveGateway id="G1"/>'
            '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="G1"/>'
            f'<bpmn:sequenceFlow id="F3" sourceRef="G1" targetRef="E1"/>{flows}',
        )
        graph = _graph(xml)
        with pytest.raises(EncodingError):
            emit_domain(graph)

    def test_join_without_split_rejected(self):
        xml = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:process id="P1">
    <bpmn:startEvent id="S1"/><bpmn:startEvent id="S2"/>
    <bpmn:inclusiveGateway id="J1"/>
    <bpmn:endEvent id="E1"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="J1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="S2" targetRef="J1"/>
    <bpmn:sequenceFlow id="F3" sourceRef="J1" targetRef="E1"/>
  </bpmn:process>
</bpmn:definitions>"""
        graph = _graph(xml)
        with pytest.raises(EncodingError):
            emit_domain(graph)


@pytest.mark.parametrize(
    "kind, branches, precondition, effect",
    [
        # no branch: no outcome, and the counter is left as it is
        ("inclusiveGateway", 0, ["G1", "count_G1_0"], [EffNot("G1")]),
        ("exclusiveGateway", 0, ["G1"], [EffNot("G1")]),
        ("exclusiveGateway", 1, ["G1"], [EffAdd("E2"), EffNot("G1")]),
        ("eventBasedGateway", 0, ["G1"], [EffNot("G1")]),
        ("eventBasedGateway", 1, ["G1"], [EffAdd("E2"), EffNot("G1")]),
    ],
)
def test_degenerate_split_effects(kind, branches, precondition, effect):
    """A split with no or one outgoing flow, behind a parallel split so that its entry marker is its own."""
    branch = '<bpmn:endEvent id="E2"/><bpmn:sequenceFlow id="F5" sourceRef="G1" targetRef="E2"/>'
    xml = LINEAR.replace(
        '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>',
        f'<bpmn:parallelGateway id="P1"/><bpmn:{kind} id="G1"/>'
        '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="P1"/>'
        '<bpmn:sequenceFlow id="F3" sourceRef="P1" targetRef="E1"/>'
        '<bpmn:sequenceFlow id="F4" sourceRef="P1" targetRef="G1"/>' + branch * branches,
    )
    (action,) = _actions_of(_graph(xml), "event_G1")
    assert (action.precondition, action.effect) == (precondition, EffAnd(effect))


def _inclusive_blocks(order: list[str], flows: list[tuple[str, str]]) -> str:
    """A one-pool diagram with the given nodes (kind by name prefix) and flows."""
    def kind(n: str) -> str:
        if n.startswith(("Split", "Join")):
            return "inclusiveGateway"
        return {"S": "startEvent", "E": "endEvent", "T": "task", "X": "exclusiveGateway"}[n[0]]

    nodes = "".join(f'<bpmn:{kind(n)} id="{n}"/>' for n in order)
    seq = "".join(
        f'<bpmn:sequenceFlow id="F{i}" sourceRef="{a}" targetRef="{b}"/>' for i, (a, b) in enumerate(flows)
    )
    return (
        '<?xml version="1.0"?>\n<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"'
        f' id="D"><bpmn:process id="P1" name="Blocks">{nodes}{seq}</bpmn:process></bpmn:definitions>'
    )


def _block(i: int, entry: str, exit_: str) -> tuple[list[str], list[tuple[str, str]]]:
    split, join = f"Split_{i}", f"Join_{i}"
    nodes = [split, f"T{i}a", f"T{i}b", join]
    flows = [(entry, split), (split, f"T{i}a"), (split, f"T{i}b"),
             (f"T{i}a", join), (f"T{i}b", join), (join, exit_)]
    return nodes, flows


def _placed_blocks(places: list[int]) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and flows of inclusive blocks 1..k between S1 and E1. Block i
    goes at the end of sequence ``places[i - 1] % (2i - 1)``: 0 is the top
    level, 2j - 1 and 2j are branches a and b of an earlier block j."""
    seqs: dict[int, list] = {0: []}  # sequence -> its tasks (names) and blocks (numbers)
    for i, place in enumerate(places, 1):
        seqs[2 * i - 1], seqs[2 * i] = [f"T{i}a"], [f"T{i}b"]
        seqs[place % (2 * i - 1)].append(i)
    nodes, flows = ["S1", "E1"], []

    def chain(seq: int, entry: str, exit_: str) -> None:
        for item in seqs[seq]:
            first, last = (item, item) if isinstance(item, str) else (f"Split_{item}", f"Join_{item}")
            nodes.extend(dict.fromkeys([first, last]))
            flows.append((entry, first))
            if first != last:
                chain(2 * item - 1, first, last)
                chain(2 * item, first, last)
            entry = last
        flows.append((entry, exit_))

    chain(0, "S1", "E1")
    return nodes, flows


# An inclusive split on one branch of the exclusive split X, whose other
# branch TC enters the inclusive join directly: no split dominates Join_1.
BYPASS = _inclusive_blocks(
    ["S1", "X1", "Split_1", "T1a", "T1b", "TC", "Join_1", "E1"],
    [("S1", "X1"), ("X1", "Split_1"), ("X1", "TC"), ("Split_1", "T1a"), ("Split_1", "T1b"),
     ("T1a", "Join_1"), ("T1b", "Join_1"), ("TC", "Join_1"), ("Join_1", "E1")],
)


@st.composite
def _block_pools(draw):
    """A pool of placed inclusive blocks between S1 and E1, with extra start
    events, exclusive gateways, tasks and inclusive gateways, and extra
    flows between any two nodes, some synthetic: cycles through and around
    splits, branches around them, joins no start event reaches."""
    nodes, flows = _placed_blocks(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    more = draw(st.lists(st.sampled_from(["S", "X", "T", "Split_x", "Join_x"]), max_size=4))
    nodes += [f"{prefix}{i}" for i, prefix in enumerate(more, 90)]  # numbered clear of the blocks' names
    ends = st.sampled_from(nodes)
    extra = draw(st.lists(st.tuples(ends, ends, st.booleans()), max_size=6))

    def kind(n: str) -> NodeKind:
        if n.startswith(("Split", "Join")):
            return NodeKind.INCLUSIVE_GATEWAY
        return {"S": NodeKind.START_EVENT, "E": NodeKind.END_EVENT, "T": NodeKind.TASK,
                "X": NodeKind.EXCLUSIVE_GATEWAY}[n[0]]

    graph = ProcessGraph({n: FlowNode(n, None, kind(n), "P1") for n in nodes},
                         {n: [] for n in nodes}, {n: [] for n in nodes}, {}, [], {}, {}, ["P1"], {},
                         MessageStrategy.IGNORE, "random")
    for k, (a, b, synthetic) in enumerate([(a, b, False) for a, b in flows] + extra):
        graph.flows[f"F{k}"] = SequenceFlow(f"F{k}", a, b, synthetic)
        graph.outgoing[a].append(f"F{k}")
        graph.incoming[b].append(f"F{k}")
    graph.start_nodes["P1"] = [n for n in nodes if graph.nodes[n].kind is NodeKind.START_EVENT]
    return graph


class TestInclusiveJoinMatching:
    """Each inclusive join takes the counter of the nearest split that dominates it."""

    @staticmethod
    def _sequence(first: int) -> str:
        n1, f1 = _block(1, "S1", "Split_2")
        n2, f2 = _block(2, "Join_1", "E1")
        blocks = n1 + n2 if first == 1 else n2 + n1
        return _inclusive_blocks(["S1", *blocks, "E1"], f1[:-1] + f2)

    @staticmethod
    def _nested(outer_first: bool) -> str:
        # the outer block's first branch holds the inner block
        outer = ["Split_1", "T1b", "Join_1"]
        inner, inner_flows = _block(2, "Split_1", "Join_1")
        flows = [("S1", "Split_1"), *inner_flows, ("Split_1", "T1b"), ("T1b", "Join_1"), ("Join_1", "E1")]
        nodes = outer + inner if outer_first else inner + outer
        return _inclusive_blocks(["S1", *nodes, "E1"], flows)

    def _check(self, xml: str, joins: dict[str, str], n_states: int | None = None):
        from bpmn2pddl.fond_checker import analyze, explore
        from token_game import TokenGame

        graph = _graph(xml)
        domain = emit_domain(graph)
        (problem,) = emit_problems(graph)
        for join, split in joins.items():
            release = next(a for a in domain.actions if a.name == f"event_{join}")
            assert release.precondition == [f"count_{split}_0", join]
        report = analyze(domain, problem)
        assert report.n_deadlocks == 0
        assert report.strong is not None and report.strong_cyclic is not None
        if n_states is not None:
            assert report.n_states == n_states
        game = TokenGame(graph)
        states, _edges, _ = game.explore(game.initial(graph.start_nodes["P1"]))
        assert set(explore(domain, problem).states) == states

    def test_two_blocks_in_sequence_both_orders(self):
        # start, 3^2 states per block, the second split's entry, the end's entry and done
        for first in (1, 2):
            self._check(self._sequence(first), {"Join_1": "Split_1", "Join_2": "Split_2"}, 2 * 3**2 + 4)

    def test_nested_blocks_both_orders(self):
        for outer_first in (True, False):
            self._check(self._nested(outer_first), {"Join_1": "Split_1", "Join_2": "Split_2"})

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_placed_blocks_any_document_order(self, data):
        places = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=4), label="places")
        nodes, flows = _placed_blocks(places)
        order = data.draw(st.permutations(nodes), label="order")
        self._check(_inclusive_blocks(order, flows), {f"Join_{i}": f"Split_{i}" for i in range(1, len(places) + 1)})

    @given(_block_pools())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_on_random_pools(self, graph):
        enc = _Encoder(graph, EncodeOptions(max_inclusive_branches=len(graph.flows)))
        try:
            expected = reference_solver.match_inclusive_joins(graph)
        except EncodingError as exc:
            with pytest.raises(EncodingError, match=f"^{re.escape(str(exc))}$"):
                enc._match_inclusive_joins()
        else:
            assert enc._match_inclusive_joins() == expected

    def test_join_no_split_dominates_rejected(self):
        with pytest.raises(EncodingError, match="^inclusive join 'Join_1' has no matching diverging inclusive gateway$"):
            emit_domain(_graph(BYPASS))

    def test_translate_rejects_join_no_split_dominates(self, tmp_path, capsys):
        from bpmn2pddl.cli import main

        path = tmp_path / "bypass.bpmn"
        path.write_text(BYPASS)
        assert main(["translate", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: inclusive join 'Join_1' ")


class TestDomainAssembly:
    def test_linear_counts(self):
        graph = _graph(LINEAR)
        domain = emit_domain(graph)
        assert len(domain.actions) == 2  # task + end event
        assert len(domain.predicates) == 4  # 3 nodes + done
        assert domain.predicates == ["S1", "T1", "E1", "done"]

    def test_requirements_default_and_compat(self):
        graph = _graph(LINEAR)
        assert emit_domain(graph).requirements == [":strips", ":typing", ":non-deterministic"]
        compat = emit_domain(graph, EncodeOptions(fig4_compat=True))
        assert compat.requirements == [":strips", ":typing"]
        assert compat.types == ["task", "event", "gateway"]

    def test_every_referenced_predicate_declared(self):
        for name in ("credit_scoring.bpmn", "place_order.bpmn", "dispatch_of_goods.bpmn"):
            graph = _credit_graph() if name == "credit_scoring.bpmn" else _graph(
                (CORPUS_DIR / name).read_text()
            )
            domain = emit_domain(graph)
            declared = set(domain.predicates)
            for action in domain.actions:
                assert set(action.precondition) <= declared
                assert _preds_of(action.effect) <= declared

    def test_predicate_count_without_joins_or_messages(self):
        # spec formula applies verbatim when no converging gateways / synthetics exist
        graph = _graph((CORPUS_DIR / "order_pizza_2.bpmn").read_text())
        domain = emit_domain(graph)
        assert len(domain.predicates) == len(graph.nodes) + 1

    def test_inclusive_adds_width_plus_one(self):
        graph = _graph(fixture("inclusive_pair.bpmn").read_text())
        domain = emit_domain(graph)
        count_preds = [p for p in domain.predicates if p.startswith("count_")]
        assert len(count_preds) == 3

    def test_bootstrap_actions_only_with_flag(self):
        graph = _graph(LINEAR)
        assert not any(a.name.startswith("start_") for a in emit_domain(graph).actions)
        domain = emit_domain(graph, EncodeOptions(allow_spontaneous_start=True))
        boot = [a for a in domain.actions if a.name == "start_S1"]
        assert len(boot) == 1
        assert boot[0].precondition == []

    def test_all_pools_mode_adds_finisher(self):
        graph = _credit_graph()
        domain = emit_domain(graph, EncodeOptions(done_mode=DoneMode.ALL_POOLS))
        finisher = domain.actions[-1]
        assert finisher.name == "finish_process"
        assert finisher.precondition == [
            "pool_done_frontend",
            "pool_done_scoring",
            "pool_done_external",
        ]
        assert finisher.effect == EffAnd([EffAdd("done")])


class TestProblems:
    def test_three_pool_variants(self):
        graph = _credit_graph()
        problems = emit_problems(graph)
        assert [p.variant for p in problems] == [
            "all_starts",
            "prestarted_frontend",
            "prestarted_scoring",
            "prestarted_external",
        ]
        for p in problems:
            assert p.goal == ["done"]
            assert p.domain_name == "credit_scoring"

    def test_single_pool_deduplicates(self):
        graph = _graph(LINEAR)
        problems = emit_problems(graph)
        assert [p.variant for p in problems] == ["all_starts"]
        assert problems[0].init == ["S1"]

    def test_counters_always_in_init(self):
        graph = _graph(fixture("inclusive_pair.bpmn").read_text())
        for p in emit_problems(graph):
            assert "count_Split_1_0" in p.init

    def test_empty_variant_behind_flag(self):
        graph = _graph(LINEAR)
        problems = emit_problems(graph, EncodeOptions(allow_spontaneous_start=True))
        assert problems[0].variant == "empty"
        assert problems[0].init == []

    def test_message_sent_by_start_event_is_available_in_init(self):
        xml = fixture("msg_task_event.bpmn").read_text().replace(
            'sourceRef="Task_send" targetRef="Catch_notice"',
            'sourceRef="Start_a" targetRef="Catch_notice"',
        )
        graph = _graph(xml)
        problems = {p.variant: p for p in emit_problems(graph)}
        marker = "msg_Start_a_to_Catch_notice"
        assert marker in problems["all_starts"].init
        assert marker in problems["prestarted_sender"].init
        assert marker not in problems["prestarted_receiver"].init


class TestRendering:
    def test_byte_identical_across_runs(self):
        graph1 = _credit_graph()
        graph2 = _credit_graph()
        assert render_pddl(emit_domain(graph1)) == render_pddl(emit_domain(graph2))

    def test_oneof_rendered_inside_effect_conjunction(self):
        graph = _credit_graph()
        text = render_pddl(emit_domain(graph))
        assert "(oneof" in text
        assert text.count("(") == text.count(")")

    def test_problem_rendering(self):
        graph = _graph(LINEAR)
        (problem,) = emit_problems(graph)
        text = render_pddl(problem)
        assert "(define (problem linear_all_starts)" in text
        assert "(:domain linear)" in text
        assert "(:init (S1))" in text
        assert "(:goal (and (done)))" in text

    def test_deeply_nested_effect_renders(self):
        depth = 3000
        deep = EffAnd([EffAdd("q"), EffNot("p")])
        for _ in range(depth):
            deep = EffAnd([deep])
        inner = "(and " * depth + "(and (q) (not (p)))" + ")" * depth
        actions = [
            PddlAction("a", ["p"], EffAnd([deep])),
            PddlAction("b", ["p"], EffAnd([EffOneOf([deep, EffAnd([])]), EffNot("p")])),
        ]
        domain = PddlDomain("d", [":strips"], [], ["p", "q"], actions)
        text = render_pddl(domain)
        assert f"    :effect (and {inner})\n" in text
        assert f"      (oneof\n        {inner}\n        (and ))\n      (not (p)))\n" in text
        assert ground_domain(parse_pddl(text)) == ground_domain(domain)

    def test_leaf_subclass_renders_as_its_base(self):
        class Marked(EffAdd):
            pass

        action = PddlAction("a", ["p", "q"], EffAnd([Marked("r"), EffAdd("s"), EffNot("p")]))
        text = render_pddl(PddlDomain("d", [":strips"], [], ["p"], [action]))
        assert "    :precondition (and (p) (q))\n    :effect (and (r) (s) (not (p)))\n" in text

    def test_oneof_after_plain_items_is_laid_out_on_lines(self):
        effect = EffAnd([EffAdd("a"), EffNot("p"), EffOneOf([EffAdd("b"), EffAnd([EffAdd("c"), EffAdd("d")])])])
        text = render_pddl(PddlDomain("d", [":strips"], [], ["p"], [PddlAction("x", [], effect)]))
        assert text.endswith(
            "  (:action x\n"
            "    :precondition (and)\n"
            "    :effect (and\n"
            "      (a)\n"
            "      (not (p))\n"
            "      (oneof\n"
            "        (b)\n"
            "        (and (c) (d))))\n"
            "  )\n)\n"
        )

    def test_lf_line_endings(self):
        graph = _graph(LINEAR)
        text = render_pddl(emit_domain(graph))
        assert "\r" not in text
        assert text.endswith("\n")


def _preds_of(tree) -> set[str]:
    if isinstance(tree, EffAdd):
        return {tree.pred}
    if isinstance(tree, EffNot):
        return {tree.pred}
    if isinstance(tree, EffAnd):
        out = set()
        for i in tree.items:
            out |= _preds_of(i)
        return out
    out = set()
    for o in tree.outcomes:
        out |= _preds_of(o)
    return out


# -- golden output -------------------------------------------------------------

_MSG_TASK_EVENT = fixture("msg_task_event.bpmn").read_text()
# the start event Start_a sends both messages; the one to Start_b is a message-start
_START_MESSAGES = _MSG_TASK_EVENT.replace(
    'sourceRef="Task_send" targetRef="Catch_notice"/>',
    'sourceRef="Start_a" targetRef="Catch_notice"/>\n'
    '    <bpmn:messageFlow id="MessageFlow_2" sourceRef="Start_a" targetRef="Start_b"/>',
)
_TASK_TO_START = _MSG_TASK_EVENT.replace('"Task_send" targetRef="Catch_notice"', '"Task_send" targetRef="Start_b"')
# generated diagrams: (nodes, pools); seed and shape seed are the row's index
_GOLDEN_GEN = [(n, 1 + i % 3) for i, n in enumerate([8, 30, 90, 250] * 4)]


def _golden_inputs() -> dict[str, str | bytes]:
    paths = [*CORPUS_FILES, *sorted(FIXTURE_DIR.glob("*.bpmn"))]
    inputs = {p.stem: p.read_bytes() for p in paths}
    inputs |= {"start_messages": _START_MESSAGES, "task_to_start": _TASK_TO_START}
    for i, (size, pools) in enumerate(_GOLDEN_GEN):
        inputs[f"gen{i}"] = GEN.block_structured(random.Random(i), f"gen{i}", size, pools, shape_seed=i).xml
    return inputs


def _golden_digest(stem: str, xml: str | bytes) -> str:
    """sha256 over every rendered domain and problem file of `xml`, under
    every message strategy, done mode and spontaneous-start setting."""
    digest = hashlib.sha256()
    for strategy, done_mode, spontaneous in product(MessageStrategy, DoneMode, (False, True)):
        graph = build_graph(parse_bpmn(xml, source_name=stem), strategy)
        options = EncodeOptions(done_mode=done_mode, allow_spontaneous_start=spontaneous)
        files = [("domain", emit_domain(graph, options)), *((p.variant, p) for p in emit_problems(graph, options))]
        for name, obj in files:
            digest.update(f"{strategy.value}/{done_mode.value}/{spontaneous}/{name}\0".encode())
            digest.update(render_pddl(obj).encode())
    return digest.hexdigest()


# any change here is a change of the emitted PDDL
_GOLDEN_DIGESTS = {
    "check_inventory": "96cf74c73f957554bc6c02b9cb245c93fecab9e1d72424a8e2417f32c633d6e1",
    "credit_scoring": "138b3112a3418ef60c9ef2231e9e3eb03821f024de5b456eaff1804c3ae11ebb",
    "dispatch_of_goods": "7cd674b116708465abaf13fdcc758cff549abef4c2629b8265c168788e892ea8",
    "order_pizza": "8f90f5eed6229ca21e3700d5f0f25f716917ecfd3456b65b96235d25607f16ec",
    "order_pizza_2": "4ddda7b7833fd70dfbdacdcb9cda4ff1eb4f0efcc9ef363d3d5a3e2ecc0795e7",
    "place_order": "c3eed9e1d48674058fa38ebb44162bdad4b413ec57d535237b0725c32fdd1eb5",
    "recourse": "9d8cb3a5dcba3678d7710a2e1507f301d6eab90c2d8e4038c0b399d305fbfdc1",
    "self_serve_restaurant": "349f6fc0dd77b621b40dec55e37cf9910334cf3f3ddfd089447a93ca30e2dc21",
    "inclusive_pair": "ca1563df8e3dac9b8e7622c1ff632b5708bc3e00eee295cb4a08808e05abf3d8",
    "loop_retry": "9dde641e6080ef739a7052175fae466ff53f1611297fe1c60d31c57a32e54e8f",
    "msg_task_event": "95a88c791e3f226bf5115bde23b2c3c4f3c3c7d835d2279b171e6c6551d76bad",
    "msg_task_task": "1879fb20775ecd4b911276348f8dab63db5a18607a9d8f6019c3cad2fbc053d7",
    "xor_and_deadlock": "729cf8e2cfb0b39c95d3e41dff12bd2cd3cc4d7c057e44ef0c4a2eb018d182d3",
    "start_messages": "fd09627e644dad419259b045d80162963df54ac62474ce3f7a768e084ba00820",
    "task_to_start": "259e957d6aa12c3a685675e6f56e335813562788264cfa4a3cbc482ddb07595d",
    "gen0": "413f311a89289269528c3f3a2a118c34479a93b7ecdcb6bc942de824a747eab7",
    "gen1": "ef3a4bb3f42b42cd6b2f03170a383eecfa044f848c2e4c477aeeb1d35903aecd",
    "gen2": "770f474dbc425f5738a518a6bbe905d2fd92f9c1f978f39f822565f1ed25f518",
    "gen3": "0d33ee9dbcf8f07e46d2dcdc43df67e8a7bee9261604717c0bf8d47f1f6df2d4",
    "gen4": "fe86611dd5415ca3728c3303e49c889c749dc8978a2f21e063ff5f19e3059166",
    "gen5": "b13a7fcf8330a77e6638e6b6b5db53cef8018aad019a279666096da0928248bd",
    "gen6": "44ac9445d269e6febe52e75d287120d77c49f6859a32c458e176d9fa0e715662",
    "gen7": "389040b0b260c1d7187eeb2a56dcbba1d824d172d899ab8c8818b78ce7819eb8",
    "gen8": "eb07c3e7bdac6d3b593b6702dea611f88d3f452e70b573625bf2dcae0998091f",
    "gen9": "f6189e8f2f8a512e3cdc9b4854d5a74380f0be09db6fc2cf51d8d4b10141a414",
    "gen10": "0e4c6b961aef9d04143832f9e72bb05088651beebea4fb8324ac2440c5819cab",
    "gen11": "1e3c8d9af6cd995177617ec54a9e53024bab7d6ad81c0f4c679d32ef0bc0a77e",
    "gen12": "39ca7af9be7d404e94703bd1eb1b5f75ce9b7e17f81911062cadc94f70207d4e",
    "gen13": "4c05aa544968381a58582a8fd85598445201967c2176bb8c09ba8643f4fa514c",
    "gen14": "740777275fe316b4692b6013879effc025832516151283392ccd306dc2bb4b34",
    "gen15": "ad80d99d6a5d2a95903e8115237da4d869ced82d1f91e0dca47006a7a1434814",
}


def test_golden_output():
    got = {stem: _golden_digest(stem, xml) for stem, xml in _golden_inputs().items()}
    assert got == _GOLDEN_DIGESTS


def test_emit_pddl_equals_its_two_wrappers():
    """One encoder for the domain and the problems gives what two give."""
    for stem, xml in _golden_inputs().items():
        for strategy, done_mode, spontaneous in product(MessageStrategy, DoneMode, (False, True)):
            graph = build_graph(parse_bpmn(xml, source_name=stem), strategy)
            options = EncodeOptions(done_mode=done_mode, allow_spontaneous_start=spontaneous)
            assert emit_pddl(graph, options) == (emit_domain(graph, options), emit_problems(graph, options))


# -- message shapes --------------------------------------------------------------


def _two_pools(pool_a: list[str], pool_b: list[str], message: tuple[str, str]) -> str:
    """Pools A and B, each a chain of ``kind:id`` nodes joined by sequence flows,
    and one message flow from `message[0]` to `message[1]`."""
    def process(name: str, chain: list[str]) -> str:
        nodes = [node.split(":") for node in chain]
        lines = [f'<bpmn:{kind} id="{nid}"/>' for kind, nid in nodes]
        lines += [f'<bpmn:sequenceFlow id="F_{a}_{b}" sourceRef="{a}" targetRef="{b}"/>'
                  for (_, a), (_, b) in zip(nodes, nodes[1:])]
        return f'<bpmn:process id="Process_{name}">{"".join(lines)}</bpmn:process>'

    return ('<?xml version="1.0"?>\n<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">'
            '<bpmn:collaboration id="C">'
            '<bpmn:participant id="PA" name="A" processRef="Process_a"/>'
            '<bpmn:participant id="PB" name="B" processRef="Process_b"/>'
            f'<bpmn:messageFlow id="M1" sourceRef="{message[0]}" targetRef="{message[1]}"/>'
            f'</bpmn:collaboration>{process("a", pool_a)}{process("b", pool_b)}</bpmn:definitions>')


# a task's message into a parallel join: the join waits on msg_TA_to_J, with no arrival for it
_MESSAGE_INTO_JOIN = _two_pools(["startEvent:SA", "task:TA", "endEvent:EA"],
                                ["startEvent:SB", "task:TB", "parallelGateway:J", "endEvent:EB"], ("TA", "J"))
# an end event's message to an intermediate catch event of the other pool
_END_SENDS = _two_pools(["startEvent:SA", "task:TA", "endEvent:EA"],
                        ["startEvent:SB", "intermediateCatchEvent:CB", "endEvent:EB"], ("EA", "CB"))


class TestMessageShapes:
    """A message into a join and a message out of an end event: the verdicts
    of each variant, and the token game's states and edges."""

    # variant -> (states, deadlocks, strong, strong-cyclic, policy size)
    VERDICTS = {
        ("join", DoneMode.ANY_END): {"all_starts": (10, 0, True, True, 2), "prestarted_a": (3, 0, True, True, 2),
                                     "prestarted_b": (2, 1, False, False, 0)},
        ("join", DoneMode.ALL_POOLS): {"all_starts": (11, 0, True, True, 6), "prestarted_a": (3, 1, False, False, 0),
                                       "prestarted_b": (2, 1, False, False, 0)},
        # pool B moves once A's end event sends its message
        ("end", DoneMode.ANY_END): {"all_starts": (5, 0, True, True, 2), "prestarted_a": (3, 0, True, True, 2),
                                    "prestarted_b": (1, 1, False, False, 0)},
        ("end", DoneMode.ALL_POOLS): {"all_starts": (6, 0, True, True, 5), "prestarted_a": (3, 1, False, False, 0),
                                      "prestarted_b": (1, 1, False, False, 0)},
    }

    @pytest.mark.parametrize("shape, done_mode", list(VERDICTS))
    def test_verdicts_and_token_game(self, shape, done_mode):
        from bpmn2pddl.fond_checker import explore
        from token_game import TokenGame

        graph = _graph(_MESSAGE_INTO_JOIN if shape == "join" else _END_SENDS)
        options = EncodeOptions(done_mode=done_mode)
        domain = parse_pddl(render_pddl(emit_domain(graph, options)))
        problems = emit_problems(graph, options)
        got = {}
        for problem in problems:
            report = analyze(domain, problem)
            policy = report.strong_cyclic or report.strong
            got[problem.variant] = (report.n_states, report.n_deadlocks, report.strong is not None,
                                    report.strong_cyclic is not None, len(policy.mapping) if policy else 0)
        assert got == self.VERDICTS[shape, done_mode]

        game = TokenGame(graph, done_mode)
        starts = [[n for p in graph.pools for n in graph.start_nodes[p]], *graph.start_nodes.values()]
        for start_ids, problem in zip(starts, problems):
            init = game.initial(start_ids)
            assert init == frozenset(problem.init)
            space = explore(domain, problem)
            states, edges, _ = game.explore(init)
            assert set(space.states) == states, problem.variant
            assert {(space.states[s], space.states[t]) for s, moves in enumerate(space.transitions)
                    for _a, _o, t in moves} == edges, problem.variant

    def test_a_message_into_a_join_claims_no_arrival(self):
        domain = emit_domain(_graph(_MESSAGE_INTO_JOIN))
        assert len(domain.predicates) == 10
        assert [p for p in domain.predicates if p.startswith(("arr_", "msg_"))] == ["arr_J_0", "msg_TA_to_J"]
        assert next(a for a in domain.actions if a.name == "event_J").precondition == ["arr_J_0", "msg_TA_to_J"]

    @pytest.mark.parametrize("done_mode, done", [(DoneMode.ANY_END, "done"), (DoneMode.ALL_POOLS, "pool_done_a")])
    def test_an_end_event_sends_its_message(self, done_mode, done):
        action = _actions(_graph(_END_SENDS), EncodeOptions(done_mode=done_mode))["event_EA"]
        assert action.effect == EffAnd([EffAdd(done), EffAdd("msg_EA_to_CB"), EffNot("EA")])


def _adds_of(tree) -> set[str]:
    if isinstance(tree, EffAdd):
        return {tree.pred}
    if isinstance(tree, EffNot):
        return set()
    return set().union(*map(_adds_of, tree.items if isinstance(tree, EffAnd) else tree.outcomes))


def _assert_every_flow_is_encoded(graph, options: EncodeOptions, case: str = "") -> None:
    """Each flow's marker is set by its source's actions (for a start event,
    by the all-starts problem's init) and read by its target's (a start
    event's marker is its own predicate). Each arrival, message and
    pool-done predicate, each counter's zero and every counter of a split
    that a join matches is declared, read by some precondition or goal and
    set by some effect or init."""
    enc = _Encoder(graph, options)
    domain, problems = enc.domain(), emit_problems(graph, options)
    start = NodeKind.START_EVENT
    init = next(p.init for p in problems if p.variant == "all_starts")
    adds, reads = {}, {}
    for nid, node in graph.nodes.items():
        actions = enc.encode_node(node)  # the domain's actions again, under names claimed anew
        adds[nid] = set().union(*(_adds_of(a.effect) for a in actions))
        reads[nid] = {p for a in actions for p in a.precondition}
    for fid, flow in graph.flows.items():
        marker = enc.markers[fid]
        assert marker in (init if graph.nodes[flow.source].kind is start else adds[flow.source]), (case, fid)
        assert graph.nodes[flow.target].kind is start or marker in reads[flow.target], (case, fid)
    matched = {split: enc.counters[split] for split in enc.join_split.values()}
    tokens = {*enc.arr.values(), *enc.msg.values(), *enc.pool_done.values(),
              *(count[0] for count in enc.counters.values()), *(p for count in matched.values() for p in count)}
    consumed = {p for a in domain.actions for p in a.precondition} | {p for pr in problems for p in pr.goal}
    produced = set().union(*(_adds_of(a.effect) for a in domain.actions), *(pr.init for pr in problems))
    assert tokens <= set(domain.predicates), case
    assert tokens - consumed == set(), case
    assert tokens - produced == set(), case


@given(digraphs(well_formed=True), st.sampled_from(MessageStrategy), st.sampled_from(DoneMode), st.booleans())
@settings(max_examples=200, deadline=None)
def test_every_token_predicate_is_produced_and_consumed(drawn, strategy, done_mode, spontaneous):
    """Every flow that `build_graph` keeps is encoded, on random graphs of
    the shapes it accepts and the encoder encodes, under every option."""
    flows = drawn.flows.values()
    model = BpmnModel([Pool("p", "p", list(drawn.nodes))], drawn.nodes, [f for f in flows if not f.synthetic],
                      [MessageFlow(f.id, f.source, f.target) for f in flows if f.synthetic], "random")
    try:
        graph = build_graph(model, strategy)
    except EndEventWithOutgoing:
        assume(False)  # rejected: the end event would drop the flow, and its target could never run
    try:
        _assert_every_flow_is_encoded(graph, EncodeOptions(done_mode=done_mode, allow_spontaneous_start=spontaneous))
    except EncodingError:
        assume(False)  # a join no split dominates, a gateway that converges and diverges, a split too wide


def test_every_token_predicate_is_produced_and_consumed_on_golden_inputs():
    inputs = _golden_inputs() | {"message_into_join": _MESSAGE_INTO_JOIN, "end_sends": _END_SENDS}
    for stem, xml in inputs.items():
        for strategy, done_mode, spontaneous in product(MessageStrategy, DoneMode, (False, True)):
            graph = build_graph(parse_bpmn(xml, source_name=stem), strategy)
            options = EncodeOptions(done_mode=done_mode, allow_spontaneous_start=spontaneous)
            _assert_every_flow_is_encoded(graph, options, f"{stem}/{strategy.value}/{done_mode.value}/{spontaneous}")

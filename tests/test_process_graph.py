"""Tests for graph construction, synthetic flows, and diagnostics."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solver
from bpmn2pddl import process_graph
from bpmn2pddl.bpmn_parser import _EVENTS, parse_bpmn
from bpmn2pddl.process_graph import (
    EndEventWithOutgoing,
    IsolatedNode,
    MessageStrategy,
    MultipleIncomingNonGateway,
    MultipleOutgoingNonGateway,
    NoEndEvent,
    NoStartEvent,
    build_graph,
    export_graph_dot,
    validate_graph,
)
from conftest import CORPUS_FILES, FIXTURE_DIR, bench_module, digraphs, fixture

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


def test_linear_process():
    graph = _graph(LINEAR)
    assert graph.start_nodes == {"P1": ["S1"]}
    assert graph.end_nodes == {"P1": ["E1"]}
    assert len(graph.flows) == 2
    assert not any(f.synthetic for f in graph.flows.values())


def test_task_event_message_becomes_synthetic_flow():
    xml = fixture("msg_task_event.bpmn").read_text()
    graph = _graph(xml)
    synth = [f for f in graph.flows.values() if f.synthetic]
    assert len(synth) == 1
    assert synth[0].source == "Task_send"
    assert synth[0].target == "Catch_notice"
    assert synth[0].id in graph.incoming["Catch_notice"]
    assert graph.task_task_messages == []


def test_task_task_message_recorded_not_flowed():
    xml = fixture("msg_task_task.bpmn").read_text()
    graph = _graph(xml, MessageStrategy.IGNORE)
    assert not any(f.synthetic for f in graph.flows.values())
    assert len(graph.task_task_messages) == 1
    assert graph.task_task_messages[0].source == "Task_notify"


def test_no_end_event():
    xml = LINEAR.replace('<bpmn:endEvent id="E1"/>', '<bpmn:task id="E1"/>')
    with pytest.raises(NoEndEvent):
        _graph(xml)


def test_no_start_event():
    xml = LINEAR.replace('<bpmn:startEvent id="S1"/>', '<bpmn:task id="S1"/>')
    with pytest.raises(NoStartEvent):
        _graph(xml)


def test_isolated_node():
    xml = LINEAR.replace("</bpmn:process>", '<bpmn:task id="T9"/></bpmn:process>')
    with pytest.raises(IsolatedNode):
        _graph(xml)


def test_multiple_incoming_on_task_rejected():
    xml = LINEAR.replace(
        "</bpmn:process>",
        '<bpmn:startEvent id="S2"/><bpmn:sequenceFlow id="F3" sourceRef="S2" targetRef="T1"/>'
        "</bpmn:process>",
    )
    with pytest.raises(MultipleIncomingNonGateway):
        _graph(xml)


def test_multiple_outgoing_on_task_rejected():
    xml = LINEAR.replace(
        "</bpmn:process>",
        '<bpmn:endEvent id="E2"/><bpmn:sequenceFlow id="F3" sourceRef="T1" targetRef="E2"/>'
        "</bpmn:process>",
    )
    with pytest.raises(MultipleOutgoingNonGateway):
        _graph(xml)


# S1 -> E1 -> T1 -> E2: encoded, the end event would drop its outgoing flow and T1 would never run
END_THEN_TASK = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:process id="P1" name="EndThenTask">
    <bpmn:startEvent id="S1"/>
    <bpmn:endEvent id="E1"/>
    <bpmn:task id="T1" name="work"/>
    <bpmn:endEvent id="E2"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="E1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="E1" targetRef="T1"/>
    <bpmn:sequenceFlow id="F3" sourceRef="T1" targetRef="E2"/>
  </bpmn:process>
</bpmn:definitions>"""


def test_end_event_with_outgoing_flow_rejected():
    with pytest.raises(EndEventWithOutgoing, match="^end event 'E1' has an outgoing sequence flow$") as caught:
        _graph(END_THEN_TASK)
    assert caught.value.node_id == "E1"


@pytest.mark.parametrize("command", ["translate", "check"])
def test_end_event_with_outgoing_flow_exits_1(command, tmp_path, capsys):
    from bpmn2pddl.cli import main

    path = tmp_path / "end_then_task.bpmn"
    path.write_text(END_THEN_TASK)
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: end event 'E1' has an outgoing sequence flow\n"
    assert captured.out == ""


def test_flow_conservation():
    for name in ("msg_task_event.bpmn", "inclusive_pair.bpmn", "xor_and_deadlock.bpmn"):
        graph = _graph(fixture(name).read_text())
        n_in = sum(len(v) for v in graph.incoming.values())
        n_out = sum(len(v) for v in graph.outgoing.values())
        assert n_in == n_out == len(graph.flows)


def test_synthetic_flows_cross_pools_and_touch_an_event():
    from conftest import CORPUS_DIR

    sources = [fixture("msg_task_event.bpmn").read_text()]
    sources.append((CORPUS_DIR / "credit_scoring.bpmn").read_text())
    for xml in sources:
        graph = _graph(xml)
        for flow in graph.flows.values():
            if not flow.synthetic:
                continue
            src = graph.nodes[flow.source]
            tgt = graph.nodes[flow.target]
            assert src.pool != tgt.pool
            assert src.kind in _EVENTS or tgt.kind in _EVENTS


def test_outgoing_document_order():
    xml = fixture("xor_and_deadlock.bpmn").read_text()
    graph = _graph(xml)
    assert graph.outgoing["Split_1"] == ["Flow_2", "Flow_3"]


def test_build_graph_deterministic():
    xml = fixture("inclusive_pair.bpmn").read_text()
    assert _graph(xml) == _graph(xml)


def test_validate_linear_is_clean():
    assert validate_graph(_graph(LINEAR)) == []


def test_validate_flags_xor_to_and_join():
    graph = _graph(fixture("xor_and_deadlock.bpmn").read_text())
    codes = [d.code for d in validate_graph(graph)]
    assert "PotentialDeadlock" in codes


def _review_chain(n: int) -> str:
    """start, n tasks each followed by an exclusive review that may end the
    process, then an exclusive split X whose two branches enter the
    parallel join P: 3n + 6 nodes."""
    nodes = ['<bpmn:startEvent id="S"/>', '<bpmn:exclusiveGateway id="X"/>', '<bpmn:task id="A"/>',
             '<bpmn:task id="B"/>', '<bpmn:parallelGateway id="P"/>', '<bpmn:endEvent id="E"/>']
    flows = [("X", "A"), ("X", "B"), ("A", "P"), ("B", "P"), ("P", "E")]
    prev = "S"
    for i in range(n):
        nodes += [f'<bpmn:task id="T{i}"/>', f'<bpmn:exclusiveGateway id="R{i}"/>', f'<bpmn:endEvent id="E{i}"/>']
        flows += [(prev, f"T{i}"), (f"T{i}", f"R{i}"), (f"R{i}", f"E{i}")]
        prev = f"R{i}"
    flows.append((prev, "X"))
    seq = "".join(f'<bpmn:sequenceFlow id="F{i}" sourceRef="{a}" targetRef="{b}"/>' for i, (a, b) in enumerate(flows))
    return (
        '<?xml version="1.0"?>\n<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"'
        f' id="D"><bpmn:process id="P1">{"".join(nodes)}{seq}</bpmn:process></bpmn:definitions>'
    )


def test_validate_walks_once_per_parallel_join(monkeypatch):
    from bpmn2pddl import process_graph

    calls = []
    reachable_from = process_graph._reachable_from

    def counted(*args, **kwargs):
        calls.append(args)
        return reachable_from(*args, **kwargs)

    monkeypatch.setattr(process_graph, "_reachable_from", counted)
    counts = []
    for n in (10, 1000):
        calls.clear()
        graph = _graph(_review_chain(n))
        assert len(graph.nodes) == 3 * n + 6
        deadlocks = [d.node_ids for d in validate_graph(graph) if d.code == "PotentialDeadlock"]
        assert deadlocks == [("X", "P")]
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _join_ladder(n: int) -> str:
    """start, then n blocks in sequence, each an exclusive split Xi whose two
    tasks both enter the parallel join Pi, then an end: 4n + 2 nodes. Xi
    reaches every join from Pi on."""
    nodes = ['<bpmn:startEvent id="S"/>', '<bpmn:endEvent id="E"/>']
    flows = []
    prev = "S"
    for i in range(n):
        nodes += [f'<bpmn:exclusiveGateway id="X{i}"/>', f'<bpmn:task id="A{i}"/>', f'<bpmn:task id="B{i}"/>',
                  f'<bpmn:parallelGateway id="P{i}"/>']
        flows += [(prev, f"X{i}"), (f"X{i}", f"A{i}"), (f"X{i}", f"B{i}"), (f"A{i}", f"P{i}"), (f"B{i}", f"P{i}")]
        prev = f"P{i}"
    flows.append((prev, "E"))
    seq = "".join(f'<bpmn:sequenceFlow id="F{i}" sourceRef="{a}" targetRef="{b}"/>' for i, (a, b) in enumerate(flows))
    return (
        '<?xml version="1.0"?>\n<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"'
        f' id="D"><bpmn:process id="P1">{"".join(nodes)}{seq}</bpmn:process></bpmn:definitions>'
    )


def test_validate_walks_once(monkeypatch):
    """`validate_graph` walks the graph once, for `Unreachable`, however
    many parallel joins it has."""
    calls = []
    reachable_from = process_graph._reachable_from

    def counted(*args, **kwargs):
        calls.append(args)
        return reachable_from(*args, **kwargs)

    monkeypatch.setattr(process_graph, "_reachable_from", counted)
    for n in (10, 1000):
        calls.clear()
        deadlocks = [d.node_ids for d in validate_graph(_graph(_review_chain(n))) if d.code == "PotentialDeadlock"]
        assert deadlocks == [("X", "P")]
        assert len(calls) == 1
    calls.clear()
    graph = _graph(_join_ladder(200))
    deadlocks = [d.node_ids for d in validate_graph(graph) if d.code == "PotentialDeadlock"]
    assert deadlocks == [(f"X{i}", f"P{j}") for i in range(200) for j in range(i, 200)]
    assert len(calls) == 1


@pytest.mark.parametrize("strategy", list(MessageStrategy))
@pytest.mark.parametrize("path", [*CORPUS_FILES, *sorted(FIXTURE_DIR.glob("*.bpmn"))], ids=lambda p: p.stem)
def test_validate_matches_reference_on_files(path, strategy):
    graph = _graph(path.read_text(), strategy)
    assert validate_graph(graph) == reference_solver.validate_graph(graph)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 10_000),
    st.integers(8, 300),
    st.integers(1, 3),
    st.sampled_from(list(MessageStrategy)),
)
@settings(max_examples=40, deadline=None)
def test_validate_matches_reference_on_generated_diagrams(seed, shape_seed, size, pools, strategy):
    diagram = GEN.block_structured(random.Random(seed), "gen", size, pools, shape_seed=shape_seed)
    graph = _graph(diagram.xml, strategy)
    assert validate_graph(graph) == reference_solver.validate_graph(graph)


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_validate_matches_reference_on_random_digraphs(graph):
    assert validate_graph(graph) == reference_solver.validate_graph(graph)


def test_validate_flags_unreachable():
    xml = LINEAR.replace(
        "</bpmn:process>",
        '<bpmn:task id="T9"/><bpmn:task id="T8"/>'
        '<bpmn:sequenceFlow id="F9" sourceRef="T8" targetRef="T9"/>'
        '<bpmn:sequenceFlow id="F8" sourceRef="T9" targetRef="T8"/>'
        "</bpmn:process>",
    )
    graph = _graph(xml)
    codes = {d.code for d in validate_graph(graph)}
    assert "Unreachable" in codes


def test_validate_flags_degenerate_gateway():
    xml = LINEAR.replace(
        '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>',
        '<bpmn:exclusiveGateway id="G1"/>'
        '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="G1"/>'
        '<bpmn:sequenceFlow id="F3" sourceRef="G1" targetRef="E1"/>',
    )
    codes = {d.code for d in validate_graph(_graph(xml))}
    assert "DegenerateGateway" in codes


def test_validate_flags_message_into_start():
    xml = fixture("msg_task_event.bpmn").read_text().replace(
        'targetRef="Catch_notice"/>', 'targetRef="Start_b"/>', 1
    )
    graph = _graph(xml)
    codes = {d.code for d in validate_graph(graph)}
    assert "MessageIntoStart" in codes


def test_validate_flags_sequence_flow_into_start_after_message_into_start():
    xml = fixture("msg_task_event.bpmn").read_text().replace(
        'targetRef="Catch_notice"/>', 'targetRef="Start_b"/>', 1
    ).replace(  # Task_send -> X -> End_a or back to Start_a
        '<bpmn:sequenceFlow id="Flow_a2" sourceRef="Task_send" targetRef="End_a"/>',
        '<bpmn:exclusiveGateway id="X"/><bpmn:sequenceFlow id="Flow_a2" sourceRef="Task_send" targetRef="X"/>'
        '<bpmn:sequenceFlow id="Flow_a3" sourceRef="X" targetRef="End_a"/>'
        '<bpmn:sequenceFlow id="Back" sourceRef="X" targetRef="Start_a"/>',
    )
    graph = _graph(xml, MessageStrategy.EXCLUSIVE_EMULATION)
    got = validate_graph(graph)
    assert [(d.code, d.node_ids) for d in got] == [("MessageIntoStart", ("Task_send", "Start_b")),
                                                   ("SequenceFlowIntoStart", ("X", "Start_a"))]
    assert got == reference_solver.validate_graph(graph)


def test_dot_export():
    graph = _graph(fixture("msg_task_event.bpmn").read_text())
    dot = export_graph_dot(graph)
    assert dot.startswith("digraph process {")
    assert dot.rstrip().endswith("}")
    assert "style=dashed" in dot  # synthetic flow
    assert dot.count("->") == len(graph.flows)
    assert dot.count("{") == dot.count("}")


def test_dot_export_escapes_ids():
    """Element ids are XML attribute values, so they may hold quotes and
    backslashes; DOT gets them escaped like the labels."""
    xml = fixture("loop_retry.bpmn").read_text().replace('"Start_1"', '"S&quot;1"').replace('"Merge_1"', '"M\\1"')
    lines = export_graph_dot(_graph(xml)).splitlines()
    assert r'  "S\"1" [shape=circle label="Start"];' in lines
    assert r'  "M\\1" [shape=diamond label="M\\1"];' in lines
    assert r'  "S\"1" -> "M\\1";' in lines

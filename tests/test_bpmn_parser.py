"""Tests for the BPMN 2.0 XML parser."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpmn2pddl.bpmn_parser import (
    BpmnModel,
    DanglingReference,
    DuplicateId,
    InvalidStructure,
    MalformedXml,
    NodeKind,
    ParseError,
    UnsupportedElement,
    parse_bpmn,
)
from conftest import CORPUS_DIR, fixture

MINIMAL = """<?xml version="1.0" encoding="UTF-8"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D1">
  <bpmn:process id="P1" name="Tiny">
    <bpmn:startEvent id="S1" name="go"/>
    <bpmn:task id="T1" name="work"/>
    <bpmn:endEvent id="E1" name="stop"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="T1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>
  </bpmn:process>
</bpmn:definitions>"""


def test_minimal_process():
    model = parse_bpmn(MINIMAL)
    assert len(model.nodes) == 3
    assert len(model.sequence_flows) == 2
    assert len(model.pools) == 1
    assert model.pools[0].id == "P1"
    assert model.nodes["T1"].kind is NodeKind.TASK
    assert model.nodes["T1"].pool == "P1"


def test_three_pool_collaboration():
    xml = (CORPUS_DIR / "credit_scoring.bpmn").read_text()
    model = parse_bpmn(xml)
    assert len(model.pools) == 3
    assert [p.name for p in model.pools] == ["Frontend", "Scoring", "External"]
    assert len(model.message_flows) >= 2
    kinds = {n.kind for n in model.nodes.values()}
    assert NodeKind.EVENT_BASED_GATEWAY in kinds
    assert NodeKind.EXCLUSIVE_GATEWAY in kinds
    assert NodeKind.INTERMEDIATE_CATCH in kinds


def test_subprocess_rejected():
    xml = MINIMAL.replace('<bpmn:task id="T1" name="work"/>', '<bpmn:subProcess id="T1"/>')
    with pytest.raises(UnsupportedElement) as exc:
        parse_bpmn(xml)
    assert exc.value.tag == "subProcess"


def test_boundary_event_rejected():
    xml = MINIMAL.replace(
        '<bpmn:task id="T1" name="work"/>',
        '<bpmn:task id="T1" name="work"/><bpmn:boundaryEvent id="B1" attachedToRef="T1"/>',
    )
    with pytest.raises(UnsupportedElement):
        parse_bpmn(xml)


def test_dangling_reference():
    xml = MINIMAL.replace('targetRef="E1"', 'targetRef="Nowhere"')
    with pytest.raises(DanglingReference):
        parse_bpmn(xml)


def test_duplicate_id():
    xml = MINIMAL.replace('<bpmn:task id="T1" name="work"/>', '<bpmn:task id="S1" name="work"/>')
    with pytest.raises(DuplicateId):
        parse_bpmn(xml)


def test_malformed_xml():
    with pytest.raises(MalformedXml):
        parse_bpmn("<bpmn:definiti")


@pytest.mark.parametrize("encoding", ["bogus", "utf-32", "rot13", "idna"])
def test_unusable_declared_encoding_is_malformed(encoding):
    xml = MINIMAL.replace('encoding="UTF-8"', f'encoding="{encoding}"').encode("ascii")
    with pytest.raises(MalformedXml):
        parse_bpmn(xml)


@pytest.mark.parametrize("encoding", ["shift_jis", "euc_jp"])
def test_multi_byte_declared_encoding_is_decoded(encoding):
    """expat reads no multi-byte encoding but UTF-8/16; Python's codec does."""
    text = fixture("loop_retry.bpmn").read_text(encoding="utf-8")
    text = text.replace('encoding="UTF-8"', f'encoding="{encoding}"').replace("Attempt work", "作業")
    model = parse_bpmn(text.encode(encoding), source_name="loop_retry")
    assert model.nodes["Task_try"].name == "作業"


def test_multi_byte_declared_encoding_undecodable_is_malformed():
    xml = MINIMAL.replace('encoding="UTF-8"', 'encoding="shift_jis"').encode("ascii")
    with pytest.raises(MalformedXml):
        parse_bpmn(xml.replace(b'name="work"', b'name="\x81"'))


def test_non_bpmn_root():
    with pytest.raises(MalformedXml):
        parse_bpmn("<root/>")


def _default_namespace(xml: str) -> str:
    return xml.replace("bpmn:", "").replace("xmlns:bpmn=", "xmlns=")


def test_default_namespace_document():
    assert parse_bpmn(_default_namespace(MINIMAL)) == parse_bpmn(MINIMAL)


_TASK = '<bpmn:task id="T1" name="work"/>'
_COLLABORATION = '<bpmn:collaboration id="C"><bpmn:participant id="PA" processRef="P1"/>{}</bpmn:collaboration>'


@pytest.mark.parametrize("in_default_namespace", [False, True])
@pytest.mark.parametrize(
    "old, new, error, message",
    [
        (_TASK, '<bpmn:userTask name="work"/>', InvalidStructure, "<userTask> element without id"),
        ('<bpmn:sequenceFlow id="F1" ', "<bpmn:sequenceFlow ", InvalidStructure, "sequence flow without id"),
        ('id="F1" sourceRef="S1" targetRef="T1"', "", InvalidStructure, "sequence flow without id"),
        ('sourceRef="S1" ', "", InvalidStructure, "sequence flow 'F1' missing sourceRef/targetRef"),
        ('targetRef="E1"', "", InvalidStructure, "sequence flow 'F2' missing sourceRef/targetRef"),
        (_TASK, _TASK + '<bpmn:callActivity id="C1"/>', UnsupportedElement, "unsupported BPMN element: callActivity"),
        ('id="T1"', 'id="F2"', DuplicateId, "duplicate id 'F2'"),
    ],
)
def test_process_child_errors(old, new, error, message, in_default_namespace):
    xml = MINIMAL.replace(old, new)
    with pytest.raises(error) as exc:
        parse_bpmn(_default_namespace(xml) if in_default_namespace else xml)
    assert str(exc.value) == message


@pytest.mark.parametrize("in_default_namespace", [False, True])
@pytest.mark.parametrize(
    "flow, message",
    [
        ('<bpmn:messageFlow sourceRef="T1" targetRef="E1"/>', "message flow without id"),
        ("<bpmn:messageFlow/>", "message flow without id"),
        ('<bpmn:messageFlow id="M1" targetRef="E1"/>', "message flow 'M1' missing sourceRef/targetRef"),
        ('<bpmn:messageFlow id="M1" sourceRef="T1"/>', "message flow 'M1' missing sourceRef/targetRef"),
    ],
)
def test_message_flow_errors(flow, message, in_default_namespace):
    xml = MINIMAL.replace("<bpmn:process ", _COLLABORATION.format(flow) + "<bpmn:process ")
    with pytest.raises(InvalidStructure) as exc:
        parse_bpmn(_default_namespace(xml) if in_default_namespace else xml)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "xml, message",
    [
        (MINIMAL.replace('"T1"', '""'), "<task> element without id"),
        (MINIMAL.replace('"F1"', '""'), "sequence flow without id"),
        (MINIMAL.replace("<bpmn:process ", _COLLABORATION.format(
            '<bpmn:messageFlow id="" sourceRef="T1" targetRef="E1"/>') + "<bpmn:process "), "message flow without id"),
        (MINIMAL.replace("<bpmn:process ", _COLLABORATION.format("").replace('"PA"', '""') + "<bpmn:process "),
         "participant without id"),
        (MINIMAL.replace('id="P1" name="Tiny"', 'id=""'), "process without id"),
    ],
    ids=["flow node", "sequence flow", "message flow", "participant", "process"],
)
def test_empty_id_is_a_missing_id(xml, message):
    """BPMN types ids as xsd:ID, which cannot be empty."""
    with pytest.raises(InvalidStructure) as exc:
        parse_bpmn(xml)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "extra",
    [
        '<ext:callActivity id="X1"/><ext:task id="X2"/>',  # a foreign namespace, even with a BPMN local name
        '<task id="X3"/>',  # no namespace
        '<bpmn:textAnnotation id="A1"><bpmn:text>note</bpmn:text></bpmn:textAnnotation>',
        "<bpmn:documentation>about</bpmn:documentation>",
    ],
)
def test_process_children_skipped(extra):
    xml = MINIMAL.replace('id="D1"', 'xmlns:ext="urn:example:ext" id="D1"').replace(_TASK, _TASK + extra)
    assert parse_bpmn(xml) == parse_bpmn(MINIMAL)


def test_task_variants_normalized():
    for tag in ("userTask", "serviceTask", "sendTask", "receiveTask", "manualTask", "scriptTask"):
        xml = MINIMAL.replace("bpmn:task", f"bpmn:{tag}")
        model = parse_bpmn(xml)
        assert model.nodes["T1"].kind is NodeKind.TASK


def test_lanes_read_and_discarded():
    xml = MINIMAL.replace(
        "<bpmn:startEvent",
        '<bpmn:laneSet id="LS1"><bpmn:lane id="L1"><bpmn:flowNodeRef>T1</bpmn:flowNodeRef>'
        "</bpmn:lane></bpmn:laneSet><bpmn:startEvent",
    )
    model = parse_bpmn(xml)
    assert len(model.nodes) == 3


def test_condition_label_stored():
    xml = MINIMAL.replace(
        '<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>',
        '<bpmn:sequenceFlow id="F2" name="approved" sourceRef="T1" targetRef="E1"/>',
    )
    model = parse_bpmn(xml)
    flow = next(f for f in model.sequence_flows if f.id == "F2")
    assert flow.condition_label == "approved"
    assert not flow.synthetic


def test_condition_expression_is_the_label_of_an_unnamed_flow():
    """The first BPMN ``conditionExpression`` child labels a flow without a name; a name wins over it."""
    expression = '<bpmn:conditionExpression xsi:type="tFormalExpression">  amount\n  &gt; 5 </bpmn:conditionExpression>'
    foreign = "<ext:conditionExpression>ignored</ext:conditionExpression>"
    xml = MINIMAL.replace('id="D1"', 'xmlns:ext="urn:example:ext" '
                          'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" id="D1"')
    labels = {}
    for name in ("", ' name="approved"'):
        flow = f'<bpmn:sequenceFlow id="F2"{name} sourceRef="T1" targetRef="E1">{foreign}{expression}</bpmn:sequenceFlow>'
        model = parse_bpmn(xml.replace('<bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>', flow))
        labels[name] = model.sequence_flows[1].condition_label
    assert labels == {"": "amount > 5", ' name="approved"': "approved"}
    empty = MINIMAL.replace('targetRef="E1"/>', 'targetRef="E1"><bpmn:conditionExpression/></bpmn:sequenceFlow>')
    assert parse_bpmn(empty).sequence_flows[1].condition_label is None


def test_collaboration_children_outside_bpmn_are_skipped():
    """A foreign-namespace participant or message flow in the collaboration is not read."""
    foreign = '<ext:participant id="" processRef="P1"/><ext:messageFlow sourceRef="T1"/>'
    xml = MINIMAL.replace('id="D1"', 'xmlns:ext="urn:example:ext" id="D1"')
    model = parse_bpmn(xml.replace("<bpmn:process ", _COLLABORATION.format(foreign) + "<bpmn:process "))
    assert [(p.id, p.name, p.node_ids) for p in model.pools] == [("PA", None, ["S1", "T1", "E1"])]
    assert model.message_flows == []


_TWO_PROCESSES = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:collaboration id="C">{participants}{flows}</bpmn:collaboration>
  <bpmn:process id="P1" name="First">
    <bpmn:startEvent id="S1"/><bpmn:task id="T1"/><bpmn:endEvent id="E1"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="T1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="E1"/>
  </bpmn:process>
  <bpmn:process id="{p2}" name="Second">
    <bpmn:startEvent id="S2"/><bpmn:task id="{t2}"/><bpmn:endEvent id="E2"/>
    <bpmn:sequenceFlow id="F3" sourceRef="S2" targetRef="{t2}"/>
    <bpmn:sequenceFlow id="F4" sourceRef="{t2}" targetRef="E2"/>
  </bpmn:process>
</bpmn:definitions>"""


def _two_processes(claims: str = "PA:P1 PB:P2", flows: str = "", p2: str = "P2", t2: str = "T2") -> str:
    """Processes P1 and `p2`, and one participant per ``id:processRef`` of `claims`, named by its index."""
    participants = "".join(
        f'<bpmn:participant id="{pid}" name="N{i}" processRef="{ref}"/>'
        for i, (pid, ref) in enumerate(claim.split(":") for claim in claims.split())
    )
    return _TWO_PROCESSES.format(participants=participants, flows=flows, p2=p2, t2=t2)


def test_duplicate_message_flow_id():
    flow = '<bpmn:messageFlow id="{}" sourceRef="T1" targetRef="T2"/>'
    assert [f.id for f in parse_bpmn(_two_processes(flows=flow.format("M1"))).message_flows] == ["M1"]
    for clash in ("M1", "T2", "F3"):
        with pytest.raises(DuplicateId) as exc:
            parse_bpmn(_two_processes(flows=flow.format("M1") + flow.format(clash)))
        assert str(exc.value) == f"duplicate id {clash!r}"


@pytest.mark.parametrize(
    "xml, error, message",
    [
        (_two_processes("", p2="P1"), DuplicateId, "duplicate id 'P1'"),
        (_two_processes("PA:P1", p2="P1"), DuplicateId, "duplicate id 'P1'"),
        (_two_processes("X:P1 X:P2"), DuplicateId, "duplicate id 'X'"),
        (_two_processes("P2:P1"), DuplicateId, "duplicate id 'P2'"),  # a participant's pool and an unclaimed process
        (_two_processes("X:P1 Y:P1"), InvalidStructure, "process 'P1' is claimed by participants 'X' and 'Y'"),
        (_two_processes("X:P1 Y:P2 Z:P1"), InvalidStructure, "process 'P1' is claimed by participants 'X' and 'Z'"),
    ],
    ids=["two processes", "two processes, one claimed", "two participants", "participant and process",
         "one process, two participants", "third participant"],
)
def test_pools_with_one_id_or_process_are_rejected(xml, error, message):
    """Every pool gets its own id and its own process: BPMN types ids as xsd:ID, and a process lies in one pool."""
    with pytest.raises(error) as exc:
        parse_bpmn(xml)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "xml, pools",
    [
        (_two_processes(), [("PA", "N0", "T1"), ("PB", "N1", "T2")]),
        (_two_processes("P1:P1"), [("P1", "N0", "T1"), ("P2", "Second", "T2")]),  # a participant named as its process
        (_two_processes("PB:P2 PA:P1"), [("PB", "N0", "T2"), ("PA", "N1", "T1")]),  # participant order
        (_two_processes("PA:P1", t2="PA"), [("PA", "N0", "T1"), ("P2", "Second", "PA")]),  # a node named as a pool
        (_two_processes("X:Q Y:Q PA:P1"), [("PA", "N2", "T1"), ("P2", "Second", "T2")]),  # no such process
        (_two_processes("X: PA:P1"), [("PA", "N1", "T1"), ("P2", "Second", "T2")]),  # an empty processRef
    ],
    ids=["two participants", "participant id is its process id", "claims out of document order",
         "node id is a pool id", "participants of a missing process", "empty processRef"],
)
def test_pools_resolve(xml, pools):
    """Claimed processes give the participants' pools, in participant order, then each other process is a pool.
    `pools` names each pool's id, name and task."""
    model = parse_bpmn(xml)
    assert [(p.id, p.name, p.node_ids[1]) for p in model.pools] == pools
    assert [len(p.node_ids) for p in model.pools] == [3, 3]
    assert all(model.nodes[nid].pool == pool.id for pool in model.pools for nid in pool.node_ids)


def test_message_flows_of_pools_are_skipped():
    """A message flow from or to a pool, or to a process a participant names, is not a node interaction."""
    ends = [("PA", "T2"), ("T1", "PB"), ("P1", "T2"), ("T1", "Q"), ("PA", "Nowhere")]
    flows = "".join(f'<bpmn:messageFlow id="M{i}" sourceRef="{a}" targetRef="{b}"/>' for i, (a, b) in enumerate(ends))
    model = parse_bpmn(_two_processes("PA:P1 PB:P2 X:Q", flows=flows + '<bpmn:messageFlow id="M" sourceRef="T1" '
                                      'targetRef="T2"/>'))
    assert [f.id for f in model.message_flows] == ["M"]
    to_black_box = '<bpmn:messageFlow id="M" sourceRef="T1" targetRef="X"/>'
    for claims in ("PA:P1 X:Q", "PA:P1 X:"):  # an unclaimed process is a pool, and so is a participant without one
        black_box = _two_processes(claims, flows=to_black_box).replace(' processRef=""', "")
        assert parse_bpmn(black_box).message_flows == []
    with pytest.raises(DanglingReference):  # a reference that names no node, pool or participant
        parse_bpmn(_two_processes("PA:P1 X:Q", flows='<bpmn:messageFlow id="M" sourceRef="T1" targetRef="Nowhere"/>'))
    to_process = '<bpmn:messageFlow id="M" sourceRef="T1" targetRef="P2"/>'
    assert parse_bpmn(_two_processes("PA:P1", flows=to_process)).message_flows == []


def test_sequence_flow_across_pools_rejected():
    xml = _two_processes().replace('targetRef="T2"', 'targetRef="T1"', 1)
    with pytest.raises(InvalidStructure) as exc:
        parse_bpmn(xml)
    assert str(exc.value) == "sequence flow 'F3' crosses pools ('PB' -> 'PA')"


def test_event_definitions_ignored():
    model = parse_bpmn((CORPUS_DIR / "credit_scoring.bpmn").read_text())
    catch = model.nodes["IntermediateCatchEvent_0yg7cuh"]
    assert catch.kind is NodeKind.INTERMEDIATE_CATCH


def test_same_pool_message_flow_rejected():
    xml = """<?xml version="1.0"?>
<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">
  <bpmn:collaboration id="C">
    <bpmn:participant id="PA" name="A" processRef="P1"/>
    <bpmn:messageFlow id="M1" sourceRef="T1" targetRef="T2"/>
  </bpmn:collaboration>
  <bpmn:process id="P1">
    <bpmn:startEvent id="S1"/>
    <bpmn:task id="T1"/>
    <bpmn:task id="T2"/>
    <bpmn:endEvent id="E1"/>
    <bpmn:sequenceFlow id="F1" sourceRef="S1" targetRef="T1"/>
    <bpmn:sequenceFlow id="F2" sourceRef="T1" targetRef="T2"/>
    <bpmn:sequenceFlow id="F3" sourceRef="T2" targetRef="E1"/>
  </bpmn:process>
</bpmn:definitions>"""
    with pytest.raises(InvalidStructure):
        parse_bpmn(xml)


def test_source_name_from_stem_override():
    model = parse_bpmn(MINIMAL, source_name="my_diagram")
    assert model.source_name == "my_diagram"


def test_source_name_derived():
    model = parse_bpmn(MINIMAL)
    assert model.source_name == "Tiny"


@pytest.mark.parametrize(
    "collaboration, first, second, source_name",
    [
        (' name=" Credit\n check "', "First", "Second", "Credit check"),
        ("", "First", "Second", "First"),
        (' name="  "', "", " Second ", "Second"),
        ("", "", "", "P1"),
    ],
)
def test_source_name_derived_in_order(collaboration, first, second, source_name):
    """The collaboration's name, else the first named process, else the first process id; names are cleaned."""
    xml = _two_processes("PA:P1").replace('<bpmn:collaboration id="C"', f'<bpmn:collaboration id="C"{collaboration}')
    xml = xml.replace('name="First"', f'name="{first}"').replace('name="Second"', f'name="{second}"')
    model = parse_bpmn(xml.replace('name="N0"', 'name=" Pool\tA "'))
    assert model.source_name == source_name
    assert [p.name for p in model.pools] == ["Pool A", second.strip() or "P2"]


def test_source_name_without_processes():
    xml = '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"><collaboration id="C"/></definitions>'
    assert parse_bpmn(xml) == BpmnModel([], {}, [], [], "process")


def test_participants_without_a_process_leave_a_missing_process_id_to_the_process():
    """Black-box participants name no process, so they claim none, not even one whose id is missing."""
    black_boxes = '<bpmn:participant id="X"/><bpmn:participant id="Y"/>'
    xml = MINIMAL.replace('id="P1" name="Tiny"', "").replace(
        "<bpmn:process", f'<bpmn:collaboration id="C">{black_boxes}</bpmn:collaboration><bpmn:process')
    with pytest.raises(InvalidStructure) as exc:
        parse_bpmn(xml)
    assert str(exc.value) == "process without id"


def test_deterministic():
    a = parse_bpmn(MINIMAL)
    b = parse_bpmn(MINIMAL)
    assert a == b


def test_flows_resolve():
    model = parse_bpmn((CORPUS_DIR / "recourse.bpmn").read_text())
    for flow in model.sequence_flows:
        assert flow.source in model.nodes
        assert flow.target in model.nodes
    for flow in model.message_flows:
        assert model.nodes[flow.source].pool != model.nodes[flow.target].pool


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_never_crashes(text):
    try:
        parse_bpmn(text)
    except ParseError:
        pass


def test_mutated_corpus_never_crashes():
    rng = random.Random(20240817)
    base = MINIMAL
    alphabet = string.printable
    for _ in range(500):
        chars = list(base)
        for _ in range(rng.randint(1, 8)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars[pos] = rng.choice(alphabet)
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(alphabet))
        try:
            parse_bpmn("".join(chars))
        except ParseError:
            pass

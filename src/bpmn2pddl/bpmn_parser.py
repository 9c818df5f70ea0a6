"""Parse BPMN 2.0 XML into a typed in-memory process model.

Only the control-flow subset is read: tasks, events, gateways, sequence
flows, message flows, and pools. Lanes are parsed and discarded, diagram
interchange (``bpmndi:``) is ignored, and constructs outside the subset
(subprocesses, boundary events, data objects, ...) are rejected with a
structured error.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from enum import Enum

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
_DECLARED_ENCODING = re.compile(rb"""<\?xml\s[^>]*?encoding\s*=\s*["']([A-Za-z][\w.-]*)["']""")


class ParseError(Exception):
    """Base class for all structured parse failures."""


class MalformedXml(ParseError):
    pass


class UnsupportedElement(ParseError):
    def __init__(self, tag: str):
        super().__init__(f"unsupported BPMN element: {tag}")
        self.tag = tag


class DanglingReference(ParseError):
    def __init__(self, flow_id: str, ref: str):
        super().__init__(f"flow {flow_id!r} references unknown node {ref!r}")
        self.flow_id = flow_id
        self.ref = ref


class DuplicateId(ParseError):
    def __init__(self, element_id: str):
        super().__init__(f"duplicate id {element_id!r}")
        self.element_id = element_id


class InvalidStructure(ParseError):
    pass


class NodeKind(Enum):
    TASK = "task"
    START_EVENT = "startEvent"
    END_EVENT = "endEvent"
    INTERMEDIATE_CATCH = "intermediateCatchEvent"
    INTERMEDIATE_THROW = "intermediateThrowEvent"
    EXCLUSIVE_GATEWAY = "exclusiveGateway"
    INCLUSIVE_GATEWAY = "inclusiveGateway"
    PARALLEL_GATEWAY = "parallelGateway"
    EVENT_BASED_GATEWAY = "eventBasedGateway"

    # members are singletons, so identity hashing is exact; Enum's own hash runs Python code
    __hash__ = object.__hash__


_EVENTS = frozenset(
    (NodeKind.START_EVENT, NodeKind.END_EVENT, NodeKind.INTERMEDIATE_CATCH, NodeKind.INTERMEDIATE_THROW)
)
_GATEWAYS = frozenset(
    (NodeKind.EXCLUSIVE_GATEWAY, NodeKind.INCLUSIVE_GATEWAY, NodeKind.PARALLEL_GATEWAY, NodeKind.EVENT_BASED_GATEWAY)
)


class Record:
    """Base of the record types, plain classes with ``__slots__`` and a straight-line ``__init__``:
    ``repr``, ``==`` and copies read the fields ``__match_args__`` names, as a dataclass's do.
    Records are unhashable; the two frozen ones take ``__hash__`` and ``__setattr__`` from here."""

    __slots__ = ()
    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __reduce__(self):
        return type(self), self._values()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def _hash(self) -> int:
        return hash(self._values())

    def _frozen(self, name: str, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class FlowNode(Record):
    __slots__ = __match_args__ = ("id", "name", "kind", "pool")
    def __init__(self, id, name, kind, pool):
        self.id: str = id
        self.name: str | None = name
        self.kind: NodeKind = kind
        self.pool: str = pool


class SequenceFlow(Record):
    __slots__ = __match_args__ = ("id", "source", "target", "synthetic", "condition_label")
    def __init__(self, id, source, target, synthetic=False, condition_label=None):
        self.id: str = id
        self.source: str = source
        self.target: str = target
        self.synthetic: bool = synthetic
        self.condition_label: str | None = condition_label


class MessageFlow(Record):
    __slots__ = __match_args__ = ("id", "source", "target")
    def __init__(self, id, source, target):
        self.id: str = id
        self.source: str = source
        self.target: str = target


class Pool(Record):
    __slots__ = __match_args__ = ("id", "name", "node_ids")
    def __init__(self, id, name, node_ids=None):
        self.id: str = id
        self.name: str | None = name
        self.node_ids: list[str] = [] if node_ids is None else node_ids


class BpmnModel(Record):
    __slots__ = __match_args__ = ("pools", "nodes", "sequence_flows", "message_flows", "source_name")
    def __init__(self, pools, nodes, sequence_flows, message_flows, source_name):
        self.pools: list[Pool] = pools
        self.nodes: dict[str, FlowNode] = nodes
        self.sequence_flows: list[SequenceFlow] = sequence_flows
        self.message_flows: list[MessageFlow] = message_flows
        self.source_name: str = source_name


# Local names of the flow-node elements; the task variants are read as plain tasks.
_NODE_TAGS = dict.fromkeys(
    ("task", "sendTask", "receiveTask", "userTask", "serviceTask", "manualTask", "scriptTask"), NodeKind.TASK
) | {
    "startEvent": NodeKind.START_EVENT,
    "endEvent": NodeKind.END_EVENT,
    "intermediateCatchEvent": NodeKind.INTERMEDIATE_CATCH,
    "intermediateThrowEvent": NodeKind.INTERMEDIATE_THROW,
    "exclusiveGateway": NodeKind.EXCLUSIVE_GATEWAY,
    "inclusiveGateway": NodeKind.INCLUSIVE_GATEWAY,
    "parallelGateway": NodeKind.PARALLEL_GATEWAY,
    "eventBasedGateway": NodeKind.EVENT_BASED_GATEWAY,
}
# The same, keyed by ElementTree tag, so a process child is classified by one lookup.
_KIND_BY_TAG = {f"{{{BPMN_NS}}}{name}": kind for name, kind in _NODE_TAGS.items()}
_SEQUENCE_FLOW_TAG = f"{{{BPMN_NS}}}sequenceFlow"

# Non-control-flow elements that are legal to skip silently.
_IGNORED_TAGS = {
    "documentation",
    "extensionElements",
    "laneSet",
    "lane",
    "textAnnotation",
    "association",
    "group",
    "property",
    "monitoring",
    "auditing",
    "message",
    "signal",
    "error",
    "category",
}


def _local(tag: str) -> tuple[str, str]:
    """Split an ElementTree tag into (namespace URI, local name)."""
    if tag.startswith("{"):
        uri, _, name = tag[1:].partition("}")
        return uri, name
    return "", tag


def _clean_name(raw: str | None) -> str | None:
    if raw is None:
        return None
    name = " ".join(raw.split())
    return name or None


def _xml_root(xml_text: str | bytes) -> ET.Element:
    """`ET.fromstring`; bytes declared in a multi-byte encoding that expat
    cannot read (Shift_JIS, EUC-JP) are decoded by Python's codec of that
    name first."""
    try:
        return ET.fromstring(xml_text)
    except ValueError as exc:
        declared = isinstance(xml_text, bytes) and _DECLARED_ENCODING.match(xml_text)
        if str(exc) != "multi-byte encodings are not supported" or not declared:
            raise
        return ET.fromstring(xml_text.decode(declared.group(1).decode("ascii")))


def _flow_ends(elem: ET.Element, what: str) -> tuple[str, str, str]:
    """A flow element's id, sourceRef and targetRef; `what` names the flow kind when one is missing."""
    fid, src, tgt = elem.get("id"), elem.get("sourceRef"), elem.get("targetRef")
    if not fid:
        raise InvalidStructure(f"{what} without id")
    if src is None or tgt is None:
        raise InvalidStructure(f"{what} {fid!r} missing sourceRef/targetRef")
    return fid, src, tgt


def parse_bpmn(xml_text: str | bytes, *, source_name: str | None = None) -> BpmnModel:
    """Parse BPMN 2.0 XML text into a :class:`BpmnModel`.

    Bytes are decoded by the encoding the XML declaration names (UTF-8
    when it names none); a str is taken as already decoded.

    Each child of a process is classified by its ElementTree tag: a flow
    node by one lookup in ``_KIND_BY_TAG``, a sequence flow by
    ``_SEQUENCE_FLOW_TAG``. Any other element is skipped when it lies in a
    foreign namespace or is one of ``_IGNORED_TAGS``, and is otherwise
    rejected as :class:`UnsupportedElement` naming its local name.

    Raises a :class:`ParseError` subclass on malformed XML, unsupported
    elements, dangling flow references, duplicate ids, or structurally
    invalid flows. A process, participant, flow node or flow whose id is
    missing or empty is :class:`InvalidStructure` (BPMN types ids as
    ``xsd:ID``, which cannot be empty). Never raises anything else on str
    or bytes input.
    """
    try:
        root = _xml_root(xml_text)
    except (ET.ParseError, LookupError, ValueError) as exc:  # declared encoding unknown or undecodable
        raise MalformedXml(f"not parseable as XML: {exc}") from None

    uri, local = _local(root.tag)
    if local != "definitions" or uri != BPMN_NS:
        raise MalformedXml(
            f"root element is <{local}> in namespace {uri!r}, expected BPMN definitions"
        )

    processes: list[ET.Element] = []
    collaboration: ET.Element | None = None
    for child in root:
        curi, cname = _local(child.tag)
        if curi != BPMN_NS:
            continue
        if cname == "process":
            processes.append(child)
        elif cname == "collaboration" and collaboration is None:
            collaboration = child

    participants: list[tuple[str, str | None, str | None]] = []
    message_elems: list[ET.Element] = []
    if collaboration is not None:
        for child in collaboration:
            curi, cname = _local(child.tag)
            if curi != BPMN_NS:
                continue
            if cname == "participant":
                pid = child.get("id")
                if not pid:
                    raise InvalidStructure("participant without id")
                participants.append((pid, _clean_name(child.get("name")), child.get("processRef")))
            elif cname == "messageFlow":
                message_elems.append(child)

    pools: list[Pool] = []
    nodes: dict[str, FlowNode] = {}
    sequence_flows: list[SequenceFlow] = []
    seen_ids: set[str] = set()
    process_pool: dict[str, str] = {}  # process id -> pool id
    participant_refs = {ref for _, _, ref in participants if ref}
    for proc in processes:
        proc_id = proc.get("id")
        if not proc_id:
            raise InvalidStructure("process without id")
        process_pool[proc_id] = proc_id  # overridden below when a participant claims it

    for pid, pname, ref in participants:
        if ref is not None and ref in process_pool:
            process_pool[ref] = pid
            pools.append(Pool(id=pid, name=pname))
        # participants without a resolvable process carry no nodes; skip them

    for proc in processes:
        proc_id = proc.get("id")
        if proc_id not in participant_refs:
            pools.append(Pool(id=proc_id, name=_clean_name(proc.get("name")) or proc_id))

    pool_by_id = {p.id: p for p in pools}

    for proc in processes:
        pool_id = process_pool[proc.get("id")]
        node_ids = pool_by_id[pool_id].node_ids
        for elem in proc:
            tag = elem.tag
            kind = _KIND_BY_TAG.get(tag)
            if kind is not None:
                nid = elem.get("id")
                if not nid:
                    raise InvalidStructure(f"<{_local(tag)[1]}> element without id")
                if nid in seen_ids:
                    raise DuplicateId(nid)
                seen_ids.add(nid)
                nodes[nid] = FlowNode(nid, _clean_name(elem.get("name")), kind, pool_id)
                node_ids.append(nid)
            elif tag == _SEQUENCE_FLOW_TAG:
                fid, src, tgt = _flow_ends(elem, "sequence flow")
                if fid in seen_ids:
                    raise DuplicateId(fid)
                seen_ids.add(fid)
                label = _clean_name(elem.get("name"))
                if label is None:
                    for sub in elem:
                        if _local(sub.tag) == (BPMN_NS, "conditionExpression"):
                            label = _clean_name(sub.text)
                            break
                sequence_flows.append(SequenceFlow(fid, src, tgt, condition_label=label))
            else:
                uri, name = _local(tag)
                if uri == BPMN_NS and name not in _IGNORED_TAGS:
                    raise UnsupportedElement(name)

    for flow in sequence_flows:
        for ref in (flow.source, flow.target):
            if ref not in nodes:
                raise DanglingReference(flow.id, ref)
        if nodes[flow.source].pool != nodes[flow.target].pool:
            raise InvalidStructure(
                f"sequence flow {flow.id!r} crosses pools "
                f"({nodes[flow.source].pool!r} -> {nodes[flow.target].pool!r})"
            )

    message_flows: list[MessageFlow] = []
    for elem in message_elems:
        fid, src, tgt = _flow_ends(elem, "message flow")
        if src in pool_by_id or tgt in pool_by_id or src in participant_refs or tgt in participant_refs:
            # pool-level message flow: not a task/event interaction, skipped
            continue
        if fid in seen_ids:
            raise DuplicateId(fid)
        seen_ids.add(fid)
        for ref in (src, tgt):
            if ref not in nodes:
                raise DanglingReference(fid, ref)
        if nodes[src].pool == nodes[tgt].pool:
            raise InvalidStructure(f"message flow {fid!r} connects nodes of the same pool")
        message_flows.append(MessageFlow(id=fid, source=src, target=tgt))

    if source_name is None:
        source_name = _derive_source_name(collaboration, processes)

    return BpmnModel(
        pools=pools,
        nodes=nodes,
        sequence_flows=sequence_flows,
        message_flows=message_flows,
        source_name=source_name,
    )


def _derive_source_name(collaboration: ET.Element | None, processes: list[ET.Element]) -> str:
    if collaboration is not None:
        name = _clean_name(collaboration.get("name"))
        if name:
            return name
    for proc in processes:
        name = _clean_name(proc.get("name"))
        if name:
            return name
    for proc in processes:
        pid = proc.get("id")
        if pid:
            return pid
    return "process"

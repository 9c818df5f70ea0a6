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
# The tags of the other elements read, each selected by ElementTree under its parent.
_SEQUENCE_FLOW_TAG, _CONDITION_TAG, _PROCESS_TAG, _COLLABORATION_TAG, _PARTICIPANT_TAG, _MESSAGE_FLOW_TAG = (
    f"{{{BPMN_NS}}}{name}"
    for name in ("sequenceFlow", "conditionExpression", "process", "collaboration", "participant", "messageFlow")
)

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

    ElementTree selects the BPMN-namespace elements read: the ``process``
    children of ``definitions``, the first ``collaboration`` child, and its
    ``participant`` and ``messageFlow`` children. Each participant whose
    ``processRef`` names a process is that process's pool, in participant
    order; each process no participant claims is a pool of its own, named
    by the process. A message flow from or to a pool, a process or any
    participant (a black box, without a process, too) is skipped. Each child
    of a process is classified by its ElementTree tag: a flow node by one
    lookup in ``_KIND_BY_TAG``, a sequence flow by ``_SEQUENCE_FLOW_TAG``.
    Any other element is skipped when it lies in a foreign namespace or is
    one of ``_IGNORED_TAGS``, and is otherwise rejected as
    :class:`UnsupportedElement` naming its local name.

    Raises a :class:`ParseError` subclass on malformed XML, unsupported
    elements, dangling flow references, duplicate ids, or structurally
    invalid flows. A process, participant, flow node or flow whose id is
    missing or empty is :class:`InvalidStructure` (BPMN types ids as
    ``xsd:ID``, which cannot be empty), and so is a process claimed by two
    participants. Two processes or two pools with one id are
    :class:`DuplicateId`; pool ids may equal node ids. Never raises
    anything else on str or bytes input.
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

    processes = root.findall(_PROCESS_TAG)
    collaboration = root.find(_COLLABORATION_TAG)
    participants = [] if collaboration is None else collaboration.findall(_PARTICIPANT_TAG)
    message_elems = [] if collaboration is None else collaboration.findall(_MESSAGE_FLOW_TAG)

    # One table from process id to pool: the participants' claims first, then each unclaimed process.
    process_by_id = {proc.get("id"): proc for proc in processes}
    pool_of: dict[str, Pool] = {}
    for part in participants:
        pid, ref = part.get("id"), part.get("processRef")
        if not pid:
            raise InvalidStructure("participant without id")
        if ref in pool_of:
            raise InvalidStructure(f"process {ref!r} is claimed by participants {pool_of[ref].id!r} and {pid!r}")
        if ref and ref in process_by_id:
            pool_of[ref] = Pool(pid, _clean_name(part.get("name")))
    for proc in processes:
        proc_id = proc.get("id")
        if not proc_id:
            raise InvalidStructure("process without id")
        if process_by_id[proc_id] is not proc:
            raise DuplicateId(proc_id)
        if proc_id not in pool_of:
            pool_of[proc_id] = Pool(proc_id, _clean_name(proc.get("name")) or proc_id)
    pools = list(pool_of.values())
    pool_by_id = {pool.id: pool for pool in pools}
    if len(pool_by_id) < len(pools):
        raise DuplicateId(next(pool.id for pool in pools if pool_by_id[pool.id] is not pool))

    nodes: dict[str, FlowNode] = {}
    sequence_flows: list[SequenceFlow] = []
    seen_ids: set[str] = set()
    for proc in processes:
        pool = pool_of[proc.get("id")]
        pool_id, node_ids = pool.id, pool.node_ids
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
                label = _clean_name(elem.get("name")) or _clean_name(elem.findtext(_CONDITION_TAG))
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

    refs = {ref for part in participants for ref in (part.get("id"), part.get("processRef"))}
    pool_ends = pool_by_id.keys() | (refs - {None, ""})
    message_flows: list[MessageFlow] = []
    for elem in message_elems:
        fid, src, tgt = _flow_ends(elem, "message flow")
        if src in pool_ends or tgt in pool_ends:
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

    if source_name is None:  # the collaboration's name, else the first process name, else the first process id
        source_name = processes[0].get("id") if processes else "process"
        for elem in processes if collaboration is None else [collaboration, *processes]:
            if name := _clean_name(elem.get("name")):
                source_name = name
                break

    return BpmnModel(
        pools=pools,
        nodes=nodes,
        sequence_flows=sequence_flows,
        message_flows=message_flows,
        source_name=source_name,
    )

"""Control-flow graph construction and validation on top of the BPMN model.

Message flows touching an event become synthetic sequence flows (they take
part in control flow); task-to-task message flows are kept aside for the
encoder's message strategy. Structural rules that the PDDL encoding relies
on (one incoming / one outgoing flow on non-gateway nodes, start and end
events per pool) are enforced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bpmn_parser import BpmnModel, FlowNode, MessageFlow, NodeKind, SequenceFlow


class MessageStrategy(Enum):
    IGNORE = "ignore"
    EXCLUSIVE_EMULATION = "exclusive"


class GraphError(Exception):
    """Structural defect that prevents encoding."""


class NoStartEvent(GraphError):
    def __init__(self, pool: str):
        super().__init__(f"pool {pool!r} has no start event")
        self.pool = pool


class NoEndEvent(GraphError):
    def __init__(self, pool: str):
        super().__init__(f"pool {pool!r} has no end event")
        self.pool = pool


class IsolatedNode(GraphError):
    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} has no incoming flow and is not a start event")
        self.node_id = node_id


class MultipleIncomingNonGateway(GraphError):
    def __init__(self, node_id: str):
        super().__init__(f"non-gateway node {node_id!r} has multiple incoming sequence flows")
        self.node_id = node_id


class MultipleOutgoingNonGateway(GraphError):
    def __init__(self, node_id: str):
        super().__init__(f"non-gateway node {node_id!r} has multiple outgoing sequence flows")
        self.node_id = node_id


@dataclass
class ProcessGraph:
    nodes: dict[str, FlowNode]
    incoming: dict[str, list[str]]  # node id -> flow ids, document order
    outgoing: dict[str, list[str]]
    flows: dict[str, SequenceFlow]
    task_task_messages: list[MessageFlow]
    start_nodes: dict[str, list[str]]  # pool id -> node ids
    end_nodes: dict[str, list[str]]
    pools: list[str]
    pool_names: dict[str, str]
    msg_strategy: MessageStrategy
    source_name: str

    def normal_incoming(self, node_id: str) -> list[str]:
        return [f for f in self.incoming[node_id] if not self.flows[f].synthetic]

    def normal_outgoing(self, node_id: str) -> list[str]:
        return [f for f in self.outgoing[node_id] if not self.flows[f].synthetic]


@dataclass
class Diagnostic:
    code: str
    node_ids: tuple[str, ...]
    message: str


def build_graph(model: BpmnModel, msg_strategy: MessageStrategy = MessageStrategy.EXCLUSIVE_EMULATION) -> ProcessGraph:
    """Build the validated control-flow graph, adding synthetic flows for
    task-event message interactions.

    Raises :class:`GraphError` when a pool lacks a start or end event, a
    non-start node is unreachable by construction, or a non-gateway node
    carries more than one (non-synthetic) incoming or outgoing flow.
    """
    nodes = dict(model.nodes)
    flows: dict[str, SequenceFlow] = {}
    incoming: dict[str, list[str]] = {nid: [] for nid in nodes}
    outgoing: dict[str, list[str]] = {nid: [] for nid in nodes}

    for flow in model.sequence_flows:
        flows[flow.id] = flow
        outgoing[flow.source].append(flow.id)
        incoming[flow.target].append(flow.id)

    task_task_messages: list[MessageFlow] = []
    for msg in model.message_flows:
        src = nodes[msg.source]
        tgt = nodes[msg.target]
        if src.kind is NodeKind.TASK and tgt.kind is NodeKind.TASK:
            task_task_messages.append(msg)
            continue
        # task-event, event-task, and event-event messages become control flow
        synth = SequenceFlow(
            id=f"synth_{msg.id}",
            source=msg.source,
            target=msg.target,
            synthetic=True,
        )
        flows[synth.id] = synth
        outgoing[msg.source].append(synth.id)
        incoming[msg.target].append(synth.id)

    graph = ProcessGraph(
        nodes=nodes,
        incoming=incoming,
        outgoing=outgoing,
        flows=flows,
        task_task_messages=task_task_messages,
        start_nodes={},
        end_nodes={},
        pools=[p.id for p in model.pools],
        pool_names={p.id: (p.name or p.id) for p in model.pools},
        msg_strategy=msg_strategy,
        source_name=model.source_name,
    )

    for pool in model.pools:
        starts = [nid for nid in pool.node_ids if nodes[nid].kind is NodeKind.START_EVENT]
        ends = [nid for nid in pool.node_ids if nodes[nid].kind is NodeKind.END_EVENT]
        if not starts:
            raise NoStartEvent(pool.id)
        if not ends:
            raise NoEndEvent(pool.id)
        graph.start_nodes[pool.id] = starts
        graph.end_nodes[pool.id] = ends

    for nid, node in nodes.items():
        if node.kind is NodeKind.START_EVENT:
            continue
        if not incoming[nid]:
            raise IsolatedNode(nid)

    for nid, node in nodes.items():
        if node.kind.is_gateway:
            continue
        if len(graph.normal_incoming(nid)) > 1:
            raise MultipleIncomingNonGateway(nid)
        if len(graph.normal_outgoing(nid)) > 1:
            raise MultipleOutgoingNonGateway(nid)

    return graph


def validate_graph(graph: ProcessGraph) -> list[Diagnostic]:
    """Return structural warnings. An empty list means no findings.

    One forward walk finds the unreachable nodes. A `PotentialDeadlock` is an
    exclusive split two of whose branches reach one parallel join; one
    backward walk per join finds them: O(parallel joins × (nodes + flows))."""
    diagnostics: list[Diagnostic] = []

    reachable = _reachable_from(graph, [n for starts in graph.start_nodes.values() for n in starts])
    for nid in graph.nodes:
        if nid not in reachable:
            diagnostics.append(
                Diagnostic("Unreachable", (nid,), f"node {nid!r} is unreachable from every start event")
            )

    for nid, node in graph.nodes.items():
        if not node.kind.is_gateway:
            continue
        if len(graph.outgoing[nid]) <= 1 and len(graph.incoming[nid]) <= 1:
            diagnostics.append(
                Diagnostic("DegenerateGateway", (nid,), f"gateway {nid!r} neither splits nor merges")
            )

    # exclusive split whose branches can meet at a parallel join: classic deadlock shape
    exclusive_splits = [
        nid
        for nid, n in graph.nodes.items()
        if n.kind in (NodeKind.EXCLUSIVE_GATEWAY, NodeKind.EVENT_BASED_GATEWAY)
        and len(graph.outgoing[nid]) >= 2
    ]
    parallel_joins = [
        nid
        for nid, n in graph.nodes.items()
        if n.kind is NodeKind.PARALLEL_GATEWAY and len(graph.incoming[nid]) >= 2
    ]
    # one backward walk per join, keeping only the branch targets it meets
    targets = {graph.flows[f].target for split in exclusive_splits for f in graph.outgoing[split]}
    feeds = {join: targets & _reachable_from(graph, [join], backward=True) for join in parallel_joins}
    for split in exclusive_splits:
        for join in parallel_joins:
            if sum(1 for f in graph.outgoing[split] if graph.flows[f].target in feeds[join]) >= 2:
                diagnostics.append(
                    Diagnostic(
                        "PotentialDeadlock",
                        (split, join),
                        f"parallel join {join!r} waits on branches of exclusive split {split!r}",
                    )
                )

    for fid, flow in graph.flows.items():
        if flow.synthetic and graph.nodes[flow.target].kind is NodeKind.START_EVENT:
            diagnostics.append(
                Diagnostic(
                    "MessageIntoStart",
                    (flow.source, flow.target),
                    f"message flow {fid!r} targets start event {flow.target!r}",
                )
            )

    return diagnostics


def _reachable_from(graph: ProcessGraph, roots: list[str], backward: bool = False) -> set[str]:
    """Nodes reachable from `roots` (roots included) along every flow,
    synthetic ones too, or against the flows when `backward`. One DFS,
    O(nodes + flows)."""
    edges = graph.incoming if backward else graph.outgoing
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        nid = frontier.pop()
        for fid in edges[nid]:
            flow = graph.flows[fid]
            nxt = flow.source if backward else flow.target
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


_DOT_SHAPES = {
    NodeKind.TASK: "box",
    NodeKind.START_EVENT: "circle",
    NodeKind.END_EVENT: "doublecircle",
    NodeKind.INTERMEDIATE_CATCH: "circle",
    NodeKind.INTERMEDIATE_THROW: "circle",
    NodeKind.EXCLUSIVE_GATEWAY: "diamond",
    NodeKind.INCLUSIVE_GATEWAY: "diamond",
    NodeKind.PARALLEL_GATEWAY: "diamond",
    NodeKind.EVENT_BASED_GATEWAY: "diamond",
}


def export_graph_dot(graph: ProcessGraph) -> str:
    """Render the control-flow graph as DOT text (synthetic flows dashed)."""
    lines = ["digraph process {", "  rankdir=LR;"]
    for nid, node in graph.nodes.items():
        label = node.name or nid
        lines.append(f'  "{nid}" [shape={_DOT_SHAPES[node.kind]} label="{_dot_escape(label)}"];')
    for flow in graph.flows.values():
        style = " [style=dashed]" if flow.synthetic else ""
        lines.append(f'  "{flow.source}" -> "{flow.target}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')

"""Control-flow graph construction and validation on top of the BPMN model.

Message flows touching an event become synthetic sequence flows (they take
part in control flow); task-to-task message flows are kept aside for the
encoder's message strategy. Structural rules that the PDDL encoding relies
on (one incoming / one outgoing flow on non-gateway nodes, start and end
events per pool) are enforced here.
"""

from __future__ import annotations

from enum import Enum

from .bpmn_parser import _GATEWAYS, BpmnModel, FlowNode, MessageFlow, NodeKind, Record, SequenceFlow


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


class EndEventWithOutgoing(GraphError):
    def __init__(self, node_id: str):
        super().__init__(f"end event {node_id!r} has an outgoing sequence flow")
        self.node_id = node_id


class ProcessGraph(Record):
    __slots__ = __match_args__ = ("nodes", "incoming", "outgoing", "flows", "task_task_messages", "start_nodes",
                                  "end_nodes", "pools", "pool_names", "msg_strategy", "source_name")
    def __init__(self, nodes, incoming, outgoing, flows, task_task_messages, start_nodes, end_nodes, pools, pool_names,
                 msg_strategy, source_name):
        self.nodes: dict[str, FlowNode] = nodes
        self.incoming: dict[str, list[str]] = incoming  # node id -> flow ids, document order
        self.outgoing: dict[str, list[str]] = outgoing
        self.flows: dict[str, SequenceFlow] = flows
        self.task_task_messages: list[MessageFlow] = task_task_messages
        self.start_nodes: dict[str, list[str]] = start_nodes  # pool id -> node ids
        self.end_nodes: dict[str, list[str]] = end_nodes
        self.pools: list[str] = pools
        self.pool_names: dict[str, str] = pool_names
        self.msg_strategy: MessageStrategy = msg_strategy
        self.source_name: str = source_name

    def normal_incoming(self, node_id: str) -> list[str]:
        return [f for f in self.incoming[node_id] if not self.flows[f].synthetic]

    def normal_outgoing(self, node_id: str) -> list[str]:
        return [f for f in self.outgoing[node_id] if not self.flows[f].synthetic]


class Diagnostic(Record):
    __slots__ = __match_args__ = ("code", "node_ids", "message")
    def __init__(self, code, node_ids, message):
        self.code: str = code
        self.node_ids: tuple[str, ...] = node_ids
        self.message: str = message


def build_graph(model: BpmnModel, msg_strategy: MessageStrategy = MessageStrategy.EXCLUSIVE_EMULATION) -> ProcessGraph:
    """Build the validated control-flow graph, adding synthetic flows for
    task-event message interactions.

    Raises :class:`GraphError` when a pool lacks a start or end event, a
    non-start node is unreachable by construction, a non-gateway node carries
    more than one (non-synthetic) incoming or outgoing flow, or an end event an outgoing one.
    """
    nodes = dict(model.nodes)
    task, start, end = NodeKind.TASK, NodeKind.START_EVENT, NodeKind.END_EVENT  # locals: Enum lookups are slow
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
        if src.kind is task and tgt.kind is task:
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
        starts = [nid for nid in pool.node_ids if nodes[nid].kind is start]
        ends = [nid for nid in pool.node_ids if nodes[nid].kind is end]
        if not starts:
            raise NoStartEvent(pool.id)
        if not ends:
            raise NoEndEvent(pool.id)
        graph.start_nodes[pool.id] = starts
        graph.end_nodes[pool.id] = ends

    for nid, node in nodes.items():
        if node.kind is start:
            continue
        if not incoming[nid]:
            raise IsolatedNode(nid)

    for nid, node in nodes.items():  # a side's synthetic flows are filtered out only when it has two or more
        if node.kind in _GATEWAYS:
            continue
        if len(incoming[nid]) > 1 and len(graph.normal_incoming(nid)) > 1:
            raise MultipleIncomingNonGateway(nid)
        if node.kind is end and outgoing[nid] and graph.normal_outgoing(nid):
            raise EndEventWithOutgoing(nid)
        if len(outgoing[nid]) > 1 and len(graph.normal_outgoing(nid)) > 1:
            raise MultipleOutgoingNonGateway(nid)

    return graph


def validate_graph(graph: ProcessGraph) -> list[Diagnostic]:
    """Return structural warnings. An empty list means no findings.

    One forward walk finds the unreachable nodes. A `PotentialDeadlock` is an
    exclusive split two of whose branches reach one parallel join. Each join
    gets a bit, each node the bits of the joins it reaches (one pass over the
    strongly connected components, :func:`_join_reach`), and each split folds
    its branches' bits: O((nodes + flows) × ⌈parallel joins / 30⌉ + warnings).
    Then come the message flows into a start event, then its sequence flows in."""
    diagnostics: list[Diagnostic] = []

    reachable = _reachable_from(graph, [n for starts in graph.start_nodes.values() for n in starts])
    for nid in graph.nodes:
        if nid not in reachable:
            diagnostics.append(
                Diagnostic("Unreachable", (nid,), f"node {nid!r} is unreachable from every start event")
            )

    # an exclusive split whose branches can meet at a parallel join: the classic deadlock shape
    splits: list[str] = []
    joins: list[str] = []
    for nid, node in graph.nodes.items():
        kind = node.kind
        if kind not in _GATEWAYS:
            continue
        fan_out, fan_in = len(graph.outgoing[nid]), len(graph.incoming[nid])
        if fan_out <= 1 and fan_in <= 1:
            diagnostics.append(
                Diagnostic("DegenerateGateway", (nid,), f"gateway {nid!r} neither splits nor merges")
            )
        elif kind is NodeKind.PARALLEL_GATEWAY:
            if fan_in >= 2:
                joins.append(nid)
        elif kind is NodeKind.EXCLUSIVE_GATEWAY or kind is NodeKind.EVENT_BASED_GATEWAY:
            if fan_out >= 2:
                splits.append(nid)

    reach = _join_reach(graph, joins)
    for split in splits:
        once = twice = 0  # the joins one branch reaches, and those a second branch reaches too
        for fid in graph.outgoing[split]:
            m = reach[graph.flows[fid].target]
            twice |= once & m
            once |= m
        while twice:
            bit = twice & -twice
            twice ^= bit
            join = joins[bit.bit_length() - 1]
            diagnostics.append(
                Diagnostic(
                    "PotentialDeadlock",
                    (split, join),
                    f"parallel join {join!r} waits on branches of exclusive split {split!r}",
                )
            )

    into_start = [(fid, f) for fid, f in graph.flows.items() if graph.nodes[f.target].kind is NodeKind.START_EVENT]
    for fid, flow in into_start:
        if flow.synthetic:
            diagnostics.append(
                Diagnostic(
                    "MessageIntoStart",
                    (flow.source, flow.target),
                    f"message flow {fid!r} targets start event {flow.target!r}",
                )
            )
    for fid, flow in into_start:  # BPMN forbids the shape; it is encoded as drawn, as a loop
        if not flow.synthetic:
            message = f"sequence flow {fid!r} enters start event {flow.target!r}"
            diagnostics.append(Diagnostic("SequenceFlowIntoStart", (flow.source, flow.target), message))

    return diagnostics


def _join_reach(graph: ProcessGraph, joins: list[str]) -> dict[str, int]:
    """Map each node to the bitset of the `joins` it reaches along every flow,
    synthetic ones too (bit i for ``joins[i]``; a join reaches itself).

    One iterative Tarjan pass, so no input recurses. Each node ORs in the set
    of every successor as it inspects the flow to it, and its DFS parent ORs
    in its set as the walk returns. A successor in an emitted component has
    its final set; any other lies in the node's own component, whose members
    all return, directly or not, into its root. So when a component is
    emitted (sinks first), its root's set is complete and becomes each
    member's: O((nodes + flows) × ⌈joins / 30⌉)."""
    flows, outgoing = graph.flows, graph.outgoing
    reach = dict.fromkeys(outgoing, 0)
    if not joins:
        return reach
    for i, nid in enumerate(joins):
        reach[nid] = 1 << i
    emitted = len(reach) + 1  # the DFS number of an emitted node: above every low link
    num = dict.fromkeys(outgoing, 0)  # DFS number, 0 until visited
    low: dict[str, int] = {}
    stack: list[str] = []  # visited nodes whose component is not emitted yet
    counter = 0
    for root in outgoing:
        if num[root]:
            continue
        counter += 1
        num[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(outgoing[root]))]  # the DFS path, each node with its flows still to inspect
        while work:
            v, edges = work[-1]
            for fid in edges:
                w = flows[fid].target
                n = num[w]
                if not n:
                    counter += 1
                    num[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(outgoing[w])))
                    break
                if n < low[v]:
                    low[v] = n
                reach[v] |= reach[w]
            else:
                work.pop()
                if low[v] == num[v]:  # v roots a component: v and the stack above it
                    while True:
                        u = stack.pop()
                        reach[u] = reach[v]
                        num[u] = emitted
                        if u == v:
                            break
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    reach[parent] |= reach[v]
    return reach


def _reachable_from(graph: ProcessGraph, roots: list[str]) -> set[str]:
    """Nodes reachable from `roots` (roots included) along every flow,
    synthetic ones too. One DFS, O(nodes + flows)."""
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        nid = frontier.pop()
        for fid in graph.outgoing[nid]:
            nxt = graph.flows[fid].target
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
        lines.append(f'  "{_dot_escape(nid)}" [shape={_DOT_SHAPES[node.kind]} label="{_dot_escape(label)}"];')
    for flow in graph.flows.values():
        style = " [style=dashed]" if flow.synthetic else ""
        lines.append(f'  "{_dot_escape(flow.source)}" -> "{_dot_escape(flow.target)}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')

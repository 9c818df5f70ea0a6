"""Independent token-game interpreter over a ProcessGraph.

Differential oracle for the PDDL pipeline: simulates marker movement
directly on the graph (no PDDL syntax, rendering, parsing, or grounding
involved) and enumerates the reachable state space. Marker names mirror
the encoder's naming scheme so states can be compared set-for-set;
transition comparison is done on (state, successor) edges.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from bpmn2pddl.bpmn_parser import _EVENTS, _GATEWAYS, NodeKind
from bpmn2pddl.pddl_encoder import DoneMode, sanitize_id
from bpmn2pddl.process_graph import MessageStrategy, ProcessGraph


class _Names:
    def __init__(self) -> None:
        self.taken: set[str] = set()

    def claim(self, name: str) -> str:
        if name not in self.taken:
            self.taken.add(name)
            return name
        k = 2
        while f"{name}_{k}" in self.taken:
            k += 1
        self.taken.add(f"{name}_{k}")
        return f"{name}_{k}"


class TokenGame:
    def __init__(
        self,
        graph: ProcessGraph,
        done_mode: DoneMode = DoneMode.ANY_END,
        allow_spontaneous_start: bool = False,
    ):
        self.graph = graph
        self.done_mode = done_mode
        self.allow_spontaneous_start = allow_spontaneous_start

        names = _Names()
        self.done = names.claim("done")
        self.pool_done: dict[str, str] = {}
        if done_mode is DoneMode.ALL_POOLS:
            for pool in graph.pools:
                self.pool_done[pool] = names.claim(
                    f"pool_done_{sanitize_id(graph.pool_names[pool], lower=True)}"
                )
        self.pred = {nid: names.claim(sanitize_id(nid)) for nid in graph.nodes}
        self.counts: dict[str, list[str]] = {}
        for nid, node in graph.nodes.items():
            if node.kind is NodeKind.INCLUSIVE_GATEWAY and len(graph.incoming[nid]) < 2:
                width = len(graph.outgoing[nid])
                self.counts[nid] = [
                    names.claim(f"count_{self.pred[nid]}_{k}") for k in range(width + 1)
                ]
        self.arr: dict[tuple[str, int], str] = {}
        for nid, node in graph.nodes.items():
            if node.kind in _GATEWAYS and len(graph.incoming[nid]) >= 2:
                for i, fid in enumerate(graph.incoming[nid]):
                    flow = graph.flows[fid]
                    if flow.synthetic or graph.nodes[flow.source].kind is NodeKind.START_EVENT:
                        continue  # a message keeps its msg_* marker; a start its own predicate
                    self.arr[(nid, i)] = names.claim(f"arr_{self.pred[nid]}_{i}")
        self.msg: dict[str, str] = {}
        for fid, flow in graph.flows.items():
            if flow.synthetic and graph.nodes[flow.target].kind is not NodeKind.START_EVENT:
                self.msg[fid] = names.claim(
                    f"msg_{self.pred[flow.source]}_to_{self.pred[flow.target]}"
                )
        self.join_split = self._match_joins()

    def _match_joins(self) -> dict[str, str]:
        """Each inclusive join takes the nearest inclusive split dominating
        it from its pool's start events (the last one every path passes);
        with none, the first split in document order that reaches it. That
        fallback is no longer compared: the encoder rejects a join that no
        split dominates with an ``EncodingError``."""
        graph = self.graph

        def walk(roots, avoid=None, normal_only=True):
            """Nodes reachable from `roots` (roots included) without entering `avoid`."""
            seen = set(roots)
            frontier = list(roots)
            while frontier:
                x = frontier.pop()
                for f in graph.outgoing[x]:
                    flow = graph.flows[f]
                    if normal_only and flow.synthetic:
                        continue
                    if flow.target != avoid and flow.target not in seen:
                        seen.add(flow.target)
                        frontier.append(flow.target)
            return seen

        splits = [
            nid
            for nid, n in graph.nodes.items()
            if n.kind is NodeKind.INCLUSIVE_GATEWAY and len(graph.incoming[nid]) < 2
        ]
        mapping = {}
        for nid, node in graph.nodes.items():
            if node.kind is not NodeKind.INCLUSIVE_GATEWAY or len(graph.incoming[nid]) < 2:
                continue
            reaching = [
                s
                for s in splits
                if nid in walk([graph.flows[f].target for f in graph.outgoing[s]], normal_only=False)
            ]
            starts = graph.start_nodes[node.pool]
            dominating = [
                s for s in reaching if nid in walk(starts) and nid not in walk(starts, avoid=s)
            ]
            # of two dominators, the nearer one is dominated by the other
            for d in dominating:
                if all(o == d or d not in walk(starts, avoid=o) for o in dominating):
                    mapping[nid] = d
                    break
            else:
                if reaching:
                    mapping[nid] = reaching[0]
        return mapping

    def marker(self, fid: str) -> str:
        graph = self.graph
        flow = graph.flows[fid]
        if graph.nodes[flow.target].kind is NodeKind.START_EVENT:
            return self.pred[flow.target]
        if flow.synthetic:
            return self.msg[fid]
        if graph.nodes[flow.source].kind is NodeKind.START_EVENT:
            return self.pred[flow.source]
        tgt = graph.nodes[flow.target]
        if tgt.kind in _GATEWAYS and len(graph.incoming[flow.target]) >= 2:
            return self.arr[(flow.target, graph.incoming[flow.target].index(fid))]
        return self.pred[flow.target]

    def initial(self, start_node_ids: list[str]) -> frozenset:
        markers = {self.pred[nid] for nid in start_node_ids}
        for counts in self.counts.values():
            markers.add(counts[0])
        for fid, flow in self.graph.flows.items():
            if not flow.synthetic:
                continue
            if self.graph.nodes[flow.source].kind is not NodeKind.START_EVENT:
                continue
            if self.pred[flow.source] in markers:
                markers.add(self.marker(fid))
        return frozenset(markers)

    # -- firing ---------------------------------------------------------------

    def successors(self, state: frozenset) -> list[frozenset]:
        succs: list[frozenset] = []
        graph = self.graph
        for nid, node in graph.nodes.items():
            if node.kind is NodeKind.START_EVENT:
                if self.allow_spontaneous_start:
                    succs.append(state | {self.pred[nid]})
                continue
            if node.kind is NodeKind.TASK:
                succs.extend(self._fire_task(state, nid))
            elif node.kind in _EVENTS:
                succs.extend(self._fire_simple(state, nid, end=node.kind is NodeKind.END_EVENT))
            else:
                succs.extend(self._fire_gateway(state, nid, node.kind))
        if self.done_mode is DoneMode.ALL_POOLS:
            needed = set(self.pool_done.values())
            if needed and needed <= state:
                succs.append(state | {self.done})
        return succs

    def _ins(self, nid: str) -> list[str]:
        return [self.marker(f) for f in self.graph.incoming[nid]]

    def _outs(self, nid: str) -> list[str]:
        return [self.marker(f) for f in self.graph.outgoing[nid]]

    def _fire_task(self, state: frozenset, nid: str) -> list[frozenset]:
        ins = self._ins(nid)
        if not ins or not set(ins) <= state:
            return []
        base = (state - set(ins)) | set(self._outs(nid))
        results = [base]
        if self.graph.msg_strategy is MessageStrategy.EXCLUSIVE_EMULATION:
            for msg in self.graph.task_task_messages:
                if msg.source != nid:
                    continue
                # the receiving task's first incoming flow, a sequence flow first
                entry = (self.graph.normal_incoming(msg.target) or self.graph.incoming[msg.target])[0]
                results.append(base | {self.marker(entry)})
        return results

    def _fire_simple(self, state: frozenset, nid: str, end: bool) -> list[frozenset]:
        ins = self._ins(nid)
        if not ins or not set(ins) <= state:
            return []
        out = state - set(ins)
        if end:  # the end marker, and the messages the end event sends
            pool = self.graph.nodes[nid].pool
            done = self.pool_done[pool] if self.done_mode is DoneMode.ALL_POOLS else self.done
            sent = {self.marker(f) for f in self.graph.outgoing[nid] if self.graph.flows[f].synthetic}
            return [out | {done} | sent]
        return [out | set(self._outs(nid))]

    def _fire_gateway(self, state: frozenset, nid: str, kind: NodeKind) -> list[frozenset]:
        graph = self.graph
        ins = self._ins(nid)
        outs = self._outs(nid)
        converging = len(ins) >= 2

        if kind is NodeKind.PARALLEL_GATEWAY:
            if ins and set(ins) <= state:
                return [(state - set(ins)) | set(outs)]
            return []

        if kind is NodeKind.INCLUSIVE_GATEWAY:
            return self._fire_inclusive(state, nid, ins, outs, converging)

        # exclusive / event-based
        results = []
        if converging:
            for m in ins:
                if m in state:
                    results.append((state - {m}) | set(outs))
            return results
        if ins and ins[0] in state:
            for out in outs:
                results.append((state - {ins[0]}) | {out})
            if not outs:
                results.append(state - {ins[0]})
        return results

    def _fire_inclusive(
        self, state: frozenset, nid: str, ins: list[str], outs: list[str], converging: bool
    ) -> list[frozenset]:
        results = []
        if converging:
            counts = self.counts[self.join_split[nid]]
            own = self.pred[nid]
            for m in ins:
                if m not in state:
                    continue
                for k in range(1, len(counts)):
                    if counts[k] in state:
                        nxt = (state - {m, counts[k]}) | {counts[k - 1]}
                        if k == 1:
                            nxt = nxt | {own}
                        results.append(nxt)
            if counts[0] in state and own in state:
                results.append((state - {own}) | set(outs))
            return results
        counts = self.counts[nid]
        if not ins or ins[0] not in state or counts[0] not in state:
            return []
        base = state - {ins[0], counts[0]}
        for size in range(1, len(outs) + 1):
            for subset in combinations(range(len(outs)), size):
                results.append(base | {outs[i] for i in subset} | {counts[size]})
        if not outs:
            results.append(base | {counts[0]})
        return results

    # -- exploration ------------------------------------------------------------

    def explore(self, init: frozenset, max_states: int = 1_000_000):
        """Reachable states, (state, successor) edges, and total firing count."""
        states = {init}
        edges: set[tuple[frozenset, frozenset]] = set()
        firings = 0
        queue = deque([init])
        while queue:
            state = queue.popleft()
            for succ in self.successors(state):
                firings += 1
                edges.add((state, succ))
                if succ not in states:
                    if len(states) >= max_states:
                        raise RuntimeError("token game state budget exceeded")
                    states.add(succ)
                    queue.append(succ)
        return states, edges, firings

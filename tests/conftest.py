from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from bpmn2pddl.bpmn_parser import _GATEWAYS, FlowNode, NodeKind, SequenceFlow
from bpmn2pddl.cli import RunConfig, translate_file
from bpmn2pddl.fond_checker import StateSpace
from bpmn2pddl.pddl_encoder import DoneMode
from bpmn2pddl.process_graph import MessageStrategy, ProcessGraph

TESTS_DIR = Path(__file__).parent
FIXTURE_DIR = TESTS_DIR / "fixtures"
CORPUS_DIR = TESTS_DIR.parent / "corpus"

CORPUS_FILES = sorted(CORPUS_DIR.glob("*.bpmn"))

# The contract fuzzer's larger budget (tests/test_contract.py), for `pytest --hypothesis-profile=contract`.
settings.register_profile("contract", max_examples=3000, deadline=None)
# The token-game agreement on fresh draws (tests/test_fond_checker.py), for `--hypothesis-profile=token_game`.
settings.register_profile("token_game", max_examples=400, deadline=None)


def fixture(name: str) -> Path:
    return FIXTURE_DIR / name


def translate(
    path: Path,
    strategy: MessageStrategy = MessageStrategy.EXCLUSIVE_EMULATION,
    fig4_compat: bool = False,
    done_mode: DoneMode = DoneMode.ANY_END,
    allow_spontaneous_start: bool = False,
):
    config = RunConfig(
        msg_strategy=strategy,
        fig4_compat=fig4_compat,
        done_mode=done_mode,
        allow_spontaneous_start=allow_spontaneous_start,
    )
    return translate_file(path, config)


def bench_module(name):
    """A module of bench/, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", TESTS_DIR.parent / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@st.composite
def digraphs(draw, well_formed: bool = False):
    """A graph of any shape: any node kinds, flows between any two nodes
    (back edges, self-loops, two flows into one target), some synthetic.

    With `well_formed`, a graph that keeps the rules of
    :func:`build_graph` but one: node 0 is a start event and the last node
    an end event, the start events are the pool's start nodes, every other
    node has a sequence flow in from any node (itself included), and a
    non-gateway node has at most one sequence flow on each side. An end
    event may still have an outgoing sequence flow, which `build_graph`
    rejects."""
    kinds = draw(st.lists(st.sampled_from(list(NodeKind)), min_size=1, max_size=12))
    if well_formed:
        kinds = [NodeKind.START_EVENT, *kinds, NodeKind.END_EVENT]
    ends = st.integers(0, len(kinds) - 1)
    edges = draw(st.lists(st.tuples(ends, ends, st.booleans()), max_size=30))
    if well_formed:
        edges = _well_formed(draw, kinds, edges)
        starts = [i for i, kind in enumerate(kinds) if kind is NodeKind.START_EVENT]
    else:
        starts = draw(st.lists(ends, max_size=3, unique=True))
    nodes = {f"n{i}": FlowNode(f"n{i}", None, kind, "p") for i, kind in enumerate(kinds)}
    incoming: dict[str, list[str]] = {nid: [] for nid in nodes}
    outgoing: dict[str, list[str]] = {nid: [] for nid in nodes}
    flows = {}
    for k, (a, b, synthetic) in enumerate(edges):
        flow = SequenceFlow(f"f{k}", f"n{a}", f"n{b}", synthetic=synthetic)
        flows[flow.id] = flow
        outgoing[flow.source].append(flow.id)
        incoming[flow.target].append(flow.id)
    return ProcessGraph(nodes, incoming, outgoing, flows, [], {"p": [f"n{i}" for i in starts]}, {}, ["p"], {},
                        MessageStrategy.IGNORE, "random")


def _well_formed(draw, kinds: list[NodeKind], edges: list[tuple[int, int, bool]]) -> list[tuple[int, int, bool]]:
    """A sequence flow into each node but a start event, from a node drawn
    among those that may take one more (an end event only when no other
    may), then the drawn `edges` that keep a non-gateway node to one
    sequence flow on each side."""
    free_out = {i for i, kind in enumerate(kinds) if kind not in _GATEWAYS}  # non-gateways with no flow out yet
    free_in = set(free_out)
    kept = []
    for b, kind in enumerate(kinds):
        if kind is not NodeKind.START_EVENT:
            free = [a for a in range(len(kinds)) if kinds[a] in _GATEWAYS or a in free_out]
            a = draw(st.sampled_from([a for a in free if kinds[a] is not NodeKind.END_EVENT] or free))
            kept.append((a, b, False))
            free_out.discard(a)
            free_in.discard(b)
    for a, b, synthetic in edges:
        if synthetic or ((a in free_out or kinds[a] in _GATEWAYS) and (b in free_in or kinds[b] in _GATEWAYS)):
            kept.append((a, b, synthetic))
            if not synthetic:
                free_out.discard(a)
                free_in.discard(b)
    return kept


def pddl_tokens(text: str) -> list[str]:
    """Whitespace-normalized token stream for figure comparison."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


class DoubleAdd(NamedTuple):
    """Outcome `outcome` of `action` in state `state_index` adds `pred`, which is already true."""

    state_index: int
    action: str
    outcome: int
    pred: str


def _bits(mask: int):
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def double_adds(space: StateSpace) -> list[DoubleAdd]:
    """Every outcome that adds an atom already true, in pair, outcome and
    bit order. :func:`explore` records none; this tests each pair."""
    adds, masks, name, preds = space.actions, space.masks, space.name, space.preds
    return [DoubleAdd(s, name[p], o, preds[i]) for p, s in enumerate(space.owner)
            for o, add in enumerate(adds[name[p]]) for i in _bits(add & masks[s])]


def token_double_adds(space: StateSpace) -> list[DoubleAdd]:
    """Double-adds of the encoder's token predicates: its goal latches
    (`done`, `pool_done_*`) and counters (`count_*`) are exempt."""
    return [d for d in double_adds(space) if d.pred != "done" and not d.pred.startswith(("count_", "pool_done_"))]


@pytest.fixture(scope="session")
def credit_scoring():
    return translate(CORPUS_DIR / "credit_scoring.bpmn", strategy=MessageStrategy.IGNORE)

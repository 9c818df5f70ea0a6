from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from bpmn2pddl.cli import RunConfig, translate_file
from bpmn2pddl.fond_checker import StateSpace, _bits
from bpmn2pddl.pddl_encoder import DoneMode
from bpmn2pddl.process_graph import MessageStrategy

TESTS_DIR = Path(__file__).parent
FIXTURE_DIR = TESTS_DIR / "fixtures"
CORPUS_DIR = TESTS_DIR.parent / "corpus"

CORPUS_FILES = sorted(CORPUS_DIR.glob("*.bpmn"))


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


def pddl_tokens(text: str) -> list[str]:
    """Whitespace-normalized token stream for figure comparison."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


class DoubleAdd(NamedTuple):
    """Outcome `outcome` of `action` in state `state_index` adds `pred`, which is already true."""

    state_index: int
    action: str
    outcome: int
    pred: str


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

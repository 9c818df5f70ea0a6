"""Structural contract fuzzer: every input gets an answer or a documented error.

Each input is a corpus or fixture diagram with one or two XML edits drawn by
hypothesis: an ``id``, ``sourceRef``, ``targetRef``, ``processRef`` or
``name`` attribute dropped, emptied or given another element's value, a
``sourceRef`` or ``targetRef`` pointed at another id, an element deleted or
duplicated, or a task, gateway or event re-tagged. It runs the library path
from ``parse_bpmn`` through ``analyze``, the policy DOT and the traces,
under both message strategies and both done modes, and may raise only the
six documented errors.

Tier-1 runs a fixed budget of examples. ``pytest tests/test_contract.py
--hypothesis-profile=contract`` runs the larger budget of the ``contract``
profile that ``conftest.py`` registers.
"""

from __future__ import annotations

import contextlib
import copy
import xml.etree.ElementTree as ET
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from bpmn2pddl.bpmn_parser import _NODE_TAGS, BPMN_NS, ParseError, parse_bpmn
from bpmn2pddl.fond_checker import (
    LimitExceeded,
    Limits,
    PddlSyntaxError,
    UnsupportedFeature,
    analyze,
    enumerate_traces,
    export_policy_dot,
    parse_pddl,
    traces_to_json,
)
from bpmn2pddl.pddl_encoder import DoneMode, EncodeOptions, EncodingError, emit_pddl, render_pddl
from bpmn2pddl.process_graph import GraphError, MessageStrategy, build_graph, validate_graph
from conftest import CORPUS_FILES, FIXTURE_DIR

DOCUMENTED = (ParseError, GraphError, EncodingError, PddlSyntaxError, UnsupportedFeature, LimitExceeded)
LIMITS = Limits(max_states=3000, max_traces=200)
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in [*CORPUS_FILES, *sorted(FIXTURE_DIR.glob("*.bpmn"))]}
REF_ATTRS = ("id", "sourceRef", "targetRef", "processRef", "name")
NODE_TAGS = [f"{{{BPMN_NS}}}{name}" for name in _NODE_TAGS]  # every task, gateway and event tag
EDITS = ("drop", "empty", "duplicate", "point", "delete", "copy", "retag")
TIER1_EXAMPLES = 150  # 0.7-1.4 s on a 2-vCPU Xeon VM; the contract profile raises it


def _edit(draw, root: ET.Element, edit: str) -> None:
    """Apply one `edit` to the tree under `root`, at an element drawn among those it fits; none fits, no change."""
    elements = list(root.iter())[1:]
    if edit in ("drop", "empty", "duplicate", "point"):
        names = ("sourceRef", "targetRef") if edit == "point" else REF_ATTRS
        fits = [(e, a) for e in elements for a in names if a in e.attrib]
        if not fits:
            return
        elem, attr = draw(st.sampled_from(fits))
        if edit == "drop":
            del elem.attrib[attr]
        elif edit == "empty":
            elem.set(attr, "")
        else:  # another element's value of the same attribute, or for "point" any id
            key = "id" if edit == "point" else attr
            values = sorted({e.get(key) for e in elements if e is not elem and e.get(key) is not None})
            if values:
                elem.set(attr, draw(st.sampled_from(values)))
    elif edit == "retag":
        fits = [e for e in elements if e.tag in NODE_TAGS]
        if fits:
            draw(st.sampled_from(fits)).tag = draw(st.sampled_from(NODE_TAGS))
    elif elements:
        parent = {child: p for p in root.iter() for child in p}
        elem = draw(st.sampled_from(elements))
        if edit == "delete":
            parent[elem].remove(elem)
        else:
            parent[elem].insert(list(parent[elem]).index(elem) + 1, copy.deepcopy(elem))


@st.composite
def edited_diagrams(draw) -> str:
    """A corpus or fixture diagram with one or two structural edits, as XML text."""
    root = ET.fromstring(SOURCES[draw(st.sampled_from(sorted(SOURCES)))])
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=2)):
        _edit(draw, root, edit)
    return ET.tostring(root, encoding="unicode")


def _run(xml: str) -> None:
    """The library path on `xml` under every message strategy and done mode; documented errors end a step."""
    try:
        model = parse_bpmn(xml)
    except ParseError:
        return
    for strategy, done_mode in product(MessageStrategy, DoneMode):
        with contextlib.suppress(*DOCUMENTED):
            graph = build_graph(model, strategy)
            validate_graph(graph)
            domain, problems = emit_pddl(graph, EncodeOptions(done_mode=done_mode))
            text = render_pddl(domain)
            domain = parse_pddl(text)
            assert render_pddl(domain) == text
            for problem in problems:
                with contextlib.suppress(*DOCUMENTED):
                    text = render_pddl(problem)
                    problem = parse_pddl(text)
                    assert render_pddl(problem) == text
                    report = analyze(domain, problem, limits=LIMITS)
                    for policy in (report.strong, report.strong_cyclic):
                        if policy is not None:
                            export_policy_dot(domain, problem, policy, report.space)
                            traces_to_json(enumerate_traces(domain, problem, policy, LIMITS, report.space))


# under --hypothesis-profile=contract the profile's budget, else tier-1's
EXAMPLES = settings.default.max_examples if settings.get_current_profile_name() == "contract" else TIER1_EXAMPLES


@given(edited_diagrams())
@settings(max_examples=EXAMPLES, deadline=None)
def test_edited_diagrams_keep_the_contract(xml):
    _run(xml)

"""Structural contract fuzzer: every input gets an answer or a documented error.

Each BPMN input is a corpus or fixture diagram with one or two XML edits
drawn by hypothesis: an ``id``, ``sourceRef``, ``targetRef``, ``processRef``
or ``name`` attribute dropped, emptied or given another element's value, a
``sourceRef`` or ``targetRef`` pointed at another id, an element deleted or
duplicated, or a task, gateway or event re-tagged. It runs the library path
from ``parse_bpmn`` through ``analyze``, the policy DOT and the traces,
under both message strategies and both done modes, and may raise only the
six documented errors.

Each PDDL input is a domain and problem emitted for a corpus or fixture
diagram with one or two edits of whole forms: two atoms swapped, an atom
renamed, a leaf or a ``oneof`` outcome dropped, an action duplicated, or a
form wrapped in a ``oneof``. It runs ``parse_pddl``, ``analyze``, the
policy DOT and the traces under small limits, and may raise only
``PddlSyntaxError``, ``UnsupportedFeature`` or ``LimitExceeded``.

Tier-1 runs a fixed budget of examples. ``pytest tests/test_contract.py
--hypothesis-profile=contract`` runs the larger budget of the ``contract``
profile that ``conftest.py`` registers.
"""

from __future__ import annotations

import contextlib
import copy
import re
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
from conftest import CORPUS_FILES, FIXTURE_DIR, translate

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


# -- PDDL side --------------------------------------------------------------------------------------

PDDL_LIMITS = Limits(max_states=300, max_traces=30, max_trace_len=60)
PDDL_EDITS = ("swap", "rename", "drop_leaf", "drop_outcome", "duplicate_action", "nest_oneof")
PDDL_WORDS = {"define", "domain", "problem", "and", "oneof", "not"}  # heads that are syntax, never atoms
PDDL_TIER1_EXAMPLES = 100  # 0.3-0.5 s on a 2-vCPU Xeon VM; the contract profile raises it


def _emitted_pddl() -> list[tuple[str, str]]:
    """(domain, problem) texts of every problem emitted for a corpus or fixture diagram, with messages
    ignored in ``any`` done mode and emulated in ``all``."""
    pairs = []
    for path in [*CORPUS_FILES, *sorted(FIXTURE_DIR.glob("*.bpmn"))]:
        for strategy, done_mode in zip(MessageStrategy, DoneMode):
            with contextlib.suppress(*DOCUMENTED):  # a fixture may be an input error in one mode
                result = translate(path, strategy, done_mode=done_mode)
                pairs += [(result.domain_text, text) for text in result.problem_texts.values()]
    return pairs


PDDL_SOURCES = _emitted_pddl()


def _forms(tokens: list[str]) -> list[tuple[int, int]]:
    """The (start, end) token spans of every parenthesized form; `tokens` are balanced."""
    spans, opened = [], []
    for i, tok in enumerate(tokens):
        if tok == "(":
            opened.append(i)
        elif tok == ")":
            spans.append((opened.pop(), i + 1))
    return spans


def _edit_pddl(draw, tokens: list[str], edit: str) -> list[str]:
    """`tokens` with one whole-form `edit` applied at a place drawn among those it fits; none fits, no change."""
    spans = _forms(tokens)
    leaves = [(i, j) for i, j in spans if j - i == 3 and tokens[i + 1] not in PDDL_WORDS
              and not tokens[i + 1].startswith(":")]
    if edit in ("swap", "rename", "drop_leaf"):
        if not leaves:
            return tokens
        i, j = draw(st.sampled_from(leaves))
        if edit == "drop_leaf":  # with its (not ...) when it has one
            i, j = (i - 2, j + 1) if tokens[i - 1] == "not" else (i, j)
            return tokens[:i] + tokens[j:]
        names = sorted({tokens[k + 1] for k, _ in leaves} | {"fresh"})
        if edit == "swap":
            k, _ = draw(st.sampled_from(leaves))
            tokens[i + 1], tokens[k + 1] = tokens[k + 1], tokens[i + 1]
        else:
            tokens[i + 1] = draw(st.sampled_from(names))
        return tokens
    if edit == "drop_outcome":
        end_of, fits = dict(spans), []
        for i, _ in spans:
            k = i + 2
            while tokens[i + 1] == "oneof" and k in end_of:  # each outcome form of a oneof
                fits.append((k, end_of[k]))
                k = end_of[k]
    elif edit == "duplicate_action":
        fits = [(i, j) for i, j in spans if tokens[i + 1] == ":action"]
    else:  # a oneof outcome, or an effect form, wrapped in a oneof with a copy of a leaf
        first_effect = tokens.index(":effect") if ":effect" in tokens else len(tokens)
        fits = [(i, j) for i, j in spans if i > first_effect and tokens[i + 1] != ":action"]
    if not fits:
        return tokens
    i, j = draw(st.sampled_from(fits))
    if edit == "drop_outcome":
        return tokens[:i] + tokens[j:]
    if edit == "duplicate_action":
        return tokens[:j] + tokens[i:j] + tokens[j:]
    a, b = draw(st.sampled_from(leaves)) if leaves else (i, j)
    return tokens[:i] + ["(", "oneof", *tokens[i:j], *tokens[a:b], ")"] + tokens[j:]


@st.composite
def edited_pddl(draw) -> tuple[str, str]:
    """An emitted (domain, problem) pair with one or two whole-form edits, drawn in either text."""
    texts = list(draw(st.sampled_from(PDDL_SOURCES)))
    for edit in draw(st.lists(st.sampled_from(PDDL_EDITS), min_size=1, max_size=2)):
        which = draw(st.sampled_from((0, 0, 0, 1)))  # mostly the domain, where the actions are
        tokens = _edit_pddl(draw, re.findall(r"[()]|[^\s()]+", texts[which]), edit)
        texts[which] = " ".join(tokens)
    return texts[0], texts[1]


PDDL_EXAMPLES = settings.default.max_examples if settings.get_current_profile_name() == "contract" else PDDL_TIER1_EXAMPLES


@given(edited_pddl())
@settings(max_examples=PDDL_EXAMPLES, deadline=None)
def test_edited_pddl_keeps_the_contract(texts):
    with contextlib.suppress(PddlSyntaxError, UnsupportedFeature, LimitExceeded):
        domain, problem = map(parse_pddl, texts)
        report = analyze(domain, problem, limits=PDDL_LIMITS)
        for policy in (report.strong, report.strong_cyclic):
            if policy is not None:
                export_policy_dot(domain, problem, policy, report.space)
                traces_to_json(enumerate_traces(domain, problem, policy, PDDL_LIMITS, report.space))

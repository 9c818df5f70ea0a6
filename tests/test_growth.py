"""Linear-growth guard: every phase's work, counted in calls, at most
doubles when its input doubles.

A profile hook counts the ``call`` and ``c_call`` events of each phase on a
diagram and on one of about twice its size. The count does not depend on
host load, so the ratio is exact. Each phase is measured against its
natural size:

- the front end (``parse_bpmn``, ``build_graph``, ``emit_pddl``,
  ``render_pddl`` and ``parse_pddl``): nodes plus flows,
  but ``render_pddl`` and ``parse_pddl`` on a family whose PDDL grows
  faster than its diagram: the rendered forms (the texts' ``(`` count);
- ``validate_graph``: nodes plus flows plus the warnings it returns;
- ``explore`` and ``verify_policy``: states plus transitions;
- each solve: states plus transitions plus the atoms of the states its
  policy maps, since a policy maps decoded states;
- ``export_policy_dot`` of the strong-cyclic policy: the same, since its
  labels decode the states that policy maps.

The count ratio, scaled to a doubling of the natural size, must stay under
:data:`BOUND`. A linear phase reads about 2, a quadratic one about 4.
Trace enumeration is left out: it is exponential by design. ``explore``
also has a budget per unit of work: fewer than :data:`EXPLORE_CALLS` calls
per state plus transition at both sizes, so a per-action set-up cost that
grows with the domain, not the space, shows even where it stays linear.
"""

from __future__ import annotations

import random
import sys

import pytest

from bpmn2pddl.bpmn_parser import parse_bpmn
from bpmn2pddl.fond_checker import SolveMode, explore, export_policy_dot, parse_pddl, solve, verify_policy
from bpmn2pddl.pddl_encoder import emit_pddl, render_pddl
from bpmn2pddl.process_graph import MessageStrategy, build_graph, validate_graph
from conftest import bench_module

GEN = bench_module("gen")

BOUND = 2.3
EXPLORE_CALLS = 8


def _inclusive_blocks(k: int) -> str:
    """k two-branch inclusive blocks in sequence between one start and one
    end event: 4k + 2 nodes, one pool."""
    nodes = ['<bpmn:startEvent id="S"/>', '<bpmn:endEvent id="E"/>']
    flows, entry = [], "S"
    for i in range(k):
        split, a, b, join = f"Split_{i}", f"T{i}a", f"T{i}b", f"Join_{i}"
        nodes += [f'<bpmn:inclusiveGateway id="{split}"/>', f'<bpmn:task id="{a}"/>', f'<bpmn:task id="{b}"/>',
                  f'<bpmn:inclusiveGateway id="{join}"/>']
        flows += [(entry, split), (split, a), (split, b), (a, join), (b, join)]
        entry = join
    flows.append((entry, "E"))
    seq = "".join(f'<bpmn:sequenceFlow id="F{i}" sourceRef="{s}" targetRef="{t}"/>' for i, (s, t) in enumerate(flows))
    return ('<?xml version="1.0"?>\n<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" id="D">'
            f'<bpmn:process id="P1" name="Blocks">{"".join(nodes)}{seq}</bpmn:process></bpmn:definitions>')


CHECKER = {"explore", "solve_strong", "solve_cyclic", "verify_policy", "export_policy_dot"}

# family -> (its diagram's XML at size step 1 or 2, the phases not measured on it)
FAMILIES = {
    "chain": (lambda n: GEN.chain(random.Random(0), "chain", 100 * n).xml, set()),
    "parallel": (lambda n: GEN.parallel(random.Random(0), "parallel", 2, 8 * n).xml, set()),
    # the split's oneof has 2^k - 1 outcomes by design; inclusive_blocks doubles its PDDL linearly
    "inclusive": (lambda n: GEN.inclusive(random.Random(0), "inclusive", 3 * n).xml, {"encode"}),
    "message_pools": (lambda n: GEN.message_pools(random.Random(0), "msgs", [8 * n, 8 * n], [(0, 0, 1, 0)]).xml,
                      set()),
    # random blocks hold parallel blocks, whose state spaces grow faster than the diagram
    "block_structured": (lambda n: GEN.block_structured(random.Random(0), "blocks", 250 * n, 2, shape_seed=1).xml,
                         CHECKER),
    "inclusive_blocks": (lambda n: _inclusive_blocks(100 * n), set()),
}
# the families whose PDDL outgrows the diagram: render_pddl and parse_pddl are measured against its forms
BY_FORMS = {"inclusive"}


def _calls(fn, *args):
    """``fn(*args)`` and the number of calls it made, Python and C."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, count


def _phases(xml: str, checker: bool, by_forms: bool) -> dict[str, tuple[int, int]]:
    """Phase -> (calls, natural size) on one diagram."""
    model, parse_calls = _calls(parse_bpmn, xml)
    graph, build_calls = _calls(build_graph, model, MessageStrategy.EXCLUSIVE_EMULATION)
    size = len(graph.nodes) + len(graph.flows)
    warnings, validate_calls = _calls(validate_graph, graph)
    (domain, problems), encode_calls = _calls(emit_pddl, graph)
    texts, render_calls = _calls(lambda: [render_pddl(x) for x in [domain, *problems]])
    _, read_calls = _calls(lambda: [parse_pddl(text) for text in texts])
    pddl_size = sum(text.count("(") for text in texts) if by_forms else size
    counts = {"parse_bpmn": (parse_calls, size), "build_graph": (build_calls, size),
              "validate_graph": (validate_calls, size + len(warnings)), "encode": (encode_calls, size),
              "render_pddl": (render_calls, pddl_size), "parse_pddl": (read_calls, pddl_size)}
    if checker:
        problem = problems[0]
        space, explore_calls = _calls(explore, domain, problem)
        states = len(space.masks) + sum(map(len, space.succs))
        strong, strong_calls = _calls(solve, domain, problem, SolveMode.STRONG, None, space)
        cyclic, cyclic_calls = _calls(solve, domain, problem, SolveMode.STRONG_CYCLIC, None, space)
        _, verify_calls = _calls(verify_policy, space, cyclic)
        _, dot_calls = _calls(export_policy_dot, domain, problem, cyclic, space)
        mapped = sum(map(len, cyclic.mapping))
        counts |= {"explore": (explore_calls, states),
                   "solve_strong": (strong_calls, states + sum(map(len, strong.mapping))),
                   "solve_cyclic": (cyclic_calls, states + mapped),
                   "verify_policy": (verify_calls, states),
                   "export_policy_dot": (dot_calls, states + mapped)}
    return counts


@pytest.mark.parametrize("family", FAMILIES)
def test_every_phase_grows_linearly(family):
    make, skipped = FAMILIES[family]
    checker = not CHECKER <= skipped
    small, large = (_phases(make(n), checker, family in BY_FORMS) for n in (1, 2))
    growth = {}  # phase -> its call-count ratio, scaled to a doubling of its natural size
    for phase in small.keys() - skipped:
        (calls, size), (large_calls, large_size) = small[phase], large[phase]
        assert large_size > size, phase
        growth[phase] = round(large_calls / calls * 2 * size / large_size, 2)
    assert max(growth.values()) < BOUND, growth
    if checker:
        per_unit = [round(calls / units, 2) for calls, units in (small["explore"], large["explore"])]
        assert max(per_unit) < EXPLORE_CALLS, per_unit

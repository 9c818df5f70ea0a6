"""The record types: construction, defaults, repr, equality and hashing.

Every public record of the five modules is pinned here field by field, so a
change in how the types are defined cannot change what they do. Only
`GroundAction` and `Outcome` are frozen and hashable; every other record is
mutable and unhashable.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bpmn2pddl
from bpmn2pddl.bpmn_parser import BpmnModel, FlowNode, MessageFlow, NodeKind, Pool, Record, SequenceFlow
from bpmn2pddl.cli import RunConfig, TranslationResult
from bpmn2pddl.fond_checker import (
    CheckReport,
    GroundAction,
    Limits,
    Outcome,
    Policy,
    SolveMode,
    StateSpace,
    Trace,
    TraceSet,
    solve,
)
from bpmn2pddl.pddl_encoder import (
    DoneMode,
    EffAdd,
    EffAnd,
    EffNot,
    EffOneOf,
    EncodeOptions,
    PddlAction,
    PddlDomain,
    PddlProblem,
)
from bpmn2pddl.process_graph import Diagnostic, MessageStrategy, ProcessGraph

_FLAG = frozenset({"p"})
_OUTCOME = Outcome(frozenset({"q"}), _FLAG)


def _space() -> StateSpace:
    return StateSpace([1], ["p"], [], [], [], [0, 0], [[]], {0}, set(), {})


# (type, its fields in order with one value each, the defaults of the trailing fields,
#  the fields whose default is a fresh object per instance, the repr of the type built from the values)
RECORDS = [
    (FlowNode, {"id": "T1", "name": None, "kind": NodeKind.TASK, "pool": "P1"}, {}, (),
     "FlowNode(id='T1', name=None, kind=<NodeKind.TASK: 'task'>, pool='P1')"),
    (SequenceFlow, {"id": "F1", "source": "S1", "target": "T1", "synthetic": True, "condition_label": "yes"},
     {"synthetic": False, "condition_label": None}, (),
     "SequenceFlow(id='F1', source='S1', target='T1', synthetic=True, condition_label='yes')"),
    (MessageFlow, {"id": "M1", "source": "T1", "target": "C1"}, {}, (),
     "MessageFlow(id='M1', source='T1', target='C1')"),
    (Pool, {"id": "P1", "name": "Shop", "node_ids": ["S1"]}, {"node_ids": []}, ("node_ids",),
     "Pool(id='P1', name='Shop', node_ids=['S1'])"),
    (BpmnModel, {"pools": [], "nodes": {}, "sequence_flows": [], "message_flows": [], "source_name": "d"}, {}, (),
     "BpmnModel(pools=[], nodes={}, sequence_flows=[], message_flows=[], source_name='d')"),
    (ProcessGraph,
     {"nodes": {}, "incoming": {}, "outgoing": {}, "flows": {}, "task_task_messages": [], "start_nodes": {},
      "end_nodes": {}, "pools": ["P1"], "pool_names": {}, "msg_strategy": MessageStrategy.IGNORE,
      "source_name": "d"}, {}, (),
     "ProcessGraph(nodes={}, incoming={}, outgoing={}, flows={}, task_task_messages=[], start_nodes={}, "
     "end_nodes={}, pools=['P1'], pool_names={}, msg_strategy=<MessageStrategy.IGNORE: 'ignore'>, "
     "source_name='d')"),
    (Diagnostic, {"code": "W1", "node_ids": ("A", "B"), "message": "m"}, {}, (),
     "Diagnostic(code='W1', node_ids=('A', 'B'), message='m')"),
    (EncodeOptions,
     {"fig4_compat": True, "done_mode": DoneMode.ALL_POOLS, "allow_spontaneous_start": True,
      "max_inclusive_branches": 3},
     {"fig4_compat": False, "done_mode": DoneMode.ANY_END, "allow_spontaneous_start": False,
      "max_inclusive_branches": 6}, (),
     "EncodeOptions(fig4_compat=True, done_mode=<DoneMode.ALL_POOLS: 'all'>, allow_spontaneous_start=True, "
     "max_inclusive_branches=3)"),
    (EffAdd, {"pred": "p"}, {}, (), "EffAdd(pred='p')"),
    (EffNot, {"pred": "p"}, {}, (), "EffNot(pred='p')"),
    (EffAnd, {"items": [EffAdd("p"), EffNot("q")]}, {}, (), "EffAnd(items=[EffAdd(pred='p'), EffNot(pred='q')])"),
    (EffOneOf, {"outcomes": [EffAdd("p"), EffAnd([])]}, {}, (),
     "EffOneOf(outcomes=[EffAdd(pred='p'), EffAnd(items=[])])"),
    (PddlAction, {"name": "a", "precondition": ["p"], "effect": EffAnd([EffNot("p")])}, {}, (),
     "PddlAction(name='a', precondition=['p'], effect=EffAnd(items=[EffNot(pred='p')]))"),
    (PddlDomain, {"name": "d", "requirements": [":strips"], "types": [], "predicates": ["p"], "actions": []}, {}, (),
     "PddlDomain(name='d', requirements=[':strips'], types=[], predicates=['p'], actions=[])"),
    (PddlProblem, {"name": "x", "domain_name": "d", "init": ["p"], "goal": ["q"], "variant": "v"},
     {"variant": ""}, (),
     "PddlProblem(name='x', domain_name='d', init=['p'], goal=['q'], variant='v')"),
    (Limits, {"max_states": 5, "max_traces": 6, "max_trace_len": 7},
     {"max_states": 1_000_000, "max_traces": 100_000, "max_trace_len": 10_000}, (),
     "Limits(max_states=5, max_traces=6, max_trace_len=7)"),
    (Outcome, {"adds": frozenset({"q"}), "dels": _FLAG}, {}, (),
     "Outcome(adds=frozenset({'q'}), dels=frozenset({'p'}))"),
    (GroundAction, {"name": "a", "pre": _FLAG, "outcomes": (_OUTCOME,)}, {}, (),
     "GroundAction(name='a', pre=frozenset({'p'}), "
     "outcomes=(Outcome(adds=frozenset({'q'}), dels=frozenset({'p'})),))"),
    (StateSpace,
     {"masks": [1], "preds": ["p"], "owner": [], "name": [], "succs": [], "first": [0, 0], "rev": [[]],
      "goal_states": {0}, "deadlock_states": set(), "actions": {}}, {}, (),
     "StateSpace(masks=[1], preds=['p'], owner=[], name=[], succs=[], first=[0, 0], rev=[[]], "
     "goal_states={0}, deadlock_states=set(), actions={})"),
    (Policy, {"mapping": {_FLAG: "a"}, "kind": SolveMode.STRONG}, {}, (),
     "Policy(mapping={frozenset({'p'}): 'a'}, kind=<SolveMode.STRONG: 'strong'>)"),
    (Trace, {"steps": [(_FLAG, "a", 0)], "terminal": "goal"}, {}, (),
     "Trace(steps=[(frozenset({'p'}), 'a', 0)], terminal='goal')"),
    (TraceSet, {"traces": [Trace([], "cycle")]}, {"traces": []}, ("traces",),
     "TraceSet(traces=[Trace(steps=[], terminal='cycle')])"),
    (CheckReport,
     {"problem_name": "x", "variant": "v", "n_states": 1, "n_deadlocks": 0, "strong": None, "strong_cyclic": None,
      "space": _space()}, {}, (),
     "CheckReport(problem_name='x', variant='v', n_states=1, n_deadlocks=0, strong=None, strong_cyclic=None, "
     "space=StateSpace(masks=[1], preds=['p'], owner=[], name=[], succs=[], first=[0, 0], rev=[[]], "
     "goal_states={0}, deadlock_states=set(), actions={}))"),
    (RunConfig,
     {"input_path": "a.bpmn", "output_dir": "o", "msg_strategy": MessageStrategy.IGNORE,
      "done_mode": DoneMode.ALL_POOLS, "fig4_compat": True, "allow_spontaneous_start": True,
      "max_inclusive_branches": 2, "solve_mode": "strong", "limits": Limits(9), "write_dot": True,
      "write_traces": True, "warnings_as_errors": True},
     {"input_path": "", "output_dir": "out", "msg_strategy": MessageStrategy.EXCLUSIVE_EMULATION,
      "done_mode": DoneMode.ANY_END, "fig4_compat": False, "allow_spontaneous_start": False,
      "max_inclusive_branches": 6, "solve_mode": "both", "limits": Limits(), "write_dot": False,
      "write_traces": False, "warnings_as_errors": False}, ("limits",),
     "RunConfig(input_path='a.bpmn', output_dir='o', msg_strategy=<MessageStrategy.IGNORE: 'ignore'>, "
     "done_mode=<DoneMode.ALL_POOLS: 'all'>, fig4_compat=True, allow_spontaneous_start=True, "
     "max_inclusive_branches=2, solve_mode='strong', "
     "limits=Limits(max_states=9, max_traces=100000, max_trace_len=10000), write_dot=True, write_traces=True, "
     "warnings_as_errors=True)"),
    (TranslationResult,
     {"stem": "d", "graph": None, "diagnostics": [], "domain": None, "problems": [], "domain_text": "t",
      "problem_texts": {"v": "u"}, "n_nodes": 1, "n_flows": 2, "n_synthetic": 0, "elapsed_ms": 0.5}, {}, (),
     "TranslationResult(stem='d', graph=None, diagnostics=[], domain=None, problems=[], domain_text='t', "
     "problem_texts={'v': 'u'}, n_nodes=1, n_flows=2, n_synthetic=0, elapsed_ms=0.5)"),
]
FROZEN = (Outcome, GroundAction)
_IDS = [spec[0].__name__ for spec in RECORDS]


def _record_types(cls: type) -> set[type]:
    """The subclasses of `cls` that the package defines, at any depth."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("bpmn2pddl."):
            found.add(sub)
        found |= _record_types(sub)
    return found


def test_every_record_type_is_pinned():
    assert {spec[0] for spec in RECORDS} == _record_types(Record)


def _fields(record, values: dict) -> dict:
    """The attributes of `record` named by `values`, in that order."""
    return {name: getattr(record, name) for name in values}


@pytest.mark.parametrize("cls, values, defaults, fresh, text", RECORDS, ids=_IDS)
class TestRecord:
    def test_construction(self, cls, values, defaults, fresh, text):
        by_position = cls(*values.values())
        by_keyword = cls(**values)
        for record in (by_position, by_keyword):
            assert all(getattr(record, name) is value for name, value in values.items())
        with pytest.raises(TypeError):
            cls(*values.values(), None)  # one positional argument too many
        with pytest.raises(TypeError):
            cls(**values, unknown=None)

    def test_defaults(self, cls, values, defaults, fresh, text):
        required = [name for name in values if name not in defaults]
        assert list(values)[len(required):] == list(defaults)  # defaults trail
        record = cls(*(values[name] for name in required))
        assert _fields(record, values) == {name: values[name] for name in required} | defaults
        if required:
            with pytest.raises(TypeError):
                cls(*(values[name] for name in required[:-1]))
        other = cls(*(values[name] for name in required))
        for name in fresh:
            assert getattr(record, name) is not getattr(other, name), name

    def test_repr(self, cls, values, defaults, fresh, text):
        assert repr(cls(*values.values())) == text
        assert repr(cls(**values)) == text

    def test_equality(self, cls, values, defaults, fresh, text):
        record = cls(*values.values())
        equal = cls(**values)
        assert record == equal and not record != equal
        for name in values:
            unequal = cls(**(values | {name: object()}))
            assert record != unequal and not record == unequal, name
            assert unequal != record, name
        assert record != tuple(values.values())
        assert record.__eq__(tuple(values.values())) is NotImplemented
        assert record != object()

    def test_hashing(self, cls, values, defaults, fresh, text):
        record = cls(*values.values())
        name = next(iter(values))
        if cls not in FROZEN:
            with pytest.raises(TypeError):
                hash(record)
            setattr(record, name, "changed")  # the other records are mutable
            assert getattr(record, name) == "changed"
            return
        assert hash(record) == hash(cls(**values))
        assert {record: 1}[cls(**values)] == 1
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is values[name]

    def test_copies_and_pickles(self, cls, values, defaults, fresh, text):
        record = cls(*values.values())
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record and twin is not record


def test_records_of_different_types_are_unequal():
    assert EffAdd("p") != EffNot("p")
    assert EffAnd([]) != EffOneOf([])
    assert MessageFlow("M1", "A", "B") != SequenceFlow("M1", "A", "B")


def test_state_space_equality_ignores_its_decoded_states():
    space, other = _space(), _space()
    assert space.state(0) == frozenset({"p"})
    assert space.states == [frozenset({"p"})]
    assert space == other
    assert repr(space) == repr(other)
    assert other._decoded == {} and other._decoded is not space._decoded


def test_a_solver_policy_is_the_record_of_its_mapping():
    """A policy from `solve` keeps its pairs and decodes `mapping` on first read, which `repr`, `==`,
    copies and pickles each do: each sees the record a caller would build from that mapping."""
    # p -a-> q -b-> r
    actions = [PddlAction("a", ["p"], EffAnd([EffAdd("q"), EffNot("p")])),
               PddlAction("b", ["q"], EffAnd([EffAdd("r"), EffNot("q")]))]
    domain, problem = PddlDomain("d", [":strips"], [], ["p", "q", "r"], actions), PddlProblem("x", "d", ["p"], ["r"])
    hand_made = Policy({_FLAG: "a", frozenset({"q"}): "b"}, SolveMode.STRONG)
    views = [repr, lambda policy: policy == hand_made, lambda policy: hand_made == policy, pickle.dumps, copy.copy,
             copy.deepcopy, lambda policy: pickle.loads(pickle.dumps(policy))]
    for view in views:
        policy = solve(domain, problem, SolveMode.STRONG)
        assert view(policy) == view(hand_made)
    policy = solve(domain, problem, SolveMode.STRONG)
    assert policy.mapping is policy.mapping  # decoded once
    assert policy.mapping == hand_made.mapping and policy.kind is hand_made.kind


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    src = str(Path(bpmn2pddl.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    listing = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"], env=env,
                             capture_output=True, text=True, check=True).stdout
    return set(listing.split())


def test_import_does_not_load_dataclasses_or_inspect():
    """Importing the command line adds neither module to what a bare
    interpreter, with whatever its `site` and `.pth` files import, loads."""
    added = _modules_after("import bpmn2pddl.cli") - _modules_after("pass")
    assert "bpmn2pddl.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)

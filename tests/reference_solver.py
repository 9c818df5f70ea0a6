"""Reference strong and strong-cyclic solvers for the policy-identity oracle.

These are the original quadratic solvers of ``fond_checker``, kept verbatim:
round-by-round rescans of every state until nothing changes, and a
goal-distance BFS that scans every winning state for each popped one. The
linear-time backward core must return the same ``Policy.mapping`` on every
input; ``tests/test_fond_checker.py`` compares the two.
"""

from __future__ import annotations

from collections import deque

from bpmn2pddl.fond_checker import SolveMode, StateSpace, Unsolvable


def reference_mapping(space: StateSpace, mode: SolveMode) -> dict[frozenset, str]:
    """The policy mapping the reference solvers extract, or :class:`Unsolvable`."""
    by_action = [_group_by_action(trs) for trs in space.transitions]
    if mode is SolveMode.STRONG:
        return _solve_strong(space, by_action)
    return _solve_strong_cyclic(space, by_action)


def _group_by_action(transitions: list[tuple[str, int, int]]) -> dict[str, list[int]]:
    grouped: dict[str, list[int]] = {}
    for name, _oidx, succ in transitions:
        grouped.setdefault(name, []).append(succ)
    return grouped


def _solve_strong(space: StateSpace, by_action) -> dict[frozenset, str]:
    n = len(space.states)
    level = {s: 0 for s in space.goal_states}
    winning = set(space.goal_states)
    current = 0
    changed = True
    while changed:
        changed = False
        current += 1
        added = []
        for s in range(n):
            if s in winning:
                continue
            for name in by_action[s]:
                if all(succ in winning for succ in by_action[s][name]):
                    added.append(s)
                    break
        for s in added:
            winning.add(s)
            level[s] = current
            changed = True
    if 0 not in winning:
        raise Unsolvable(SolveMode.STRONG)

    full: dict[int, str] = {}
    for s in winning - space.goal_states:
        candidates = [
            name
            for name, succs in sorted(by_action[s].items())
            if all(succ in winning and level[succ] < level[s] for succ in succs)
        ]
        full[s] = candidates[0]
    return _restrict_to_reachable(space, full, by_action)


def _solve_strong_cyclic(space: StateSpace, by_action) -> dict[frozenset, str]:
    n = len(space.states)
    winning = set(range(n))
    while True:
        allowed: dict[int, dict[str, list[int]]] = {}
        for s in winning:
            acts = {
                name: succs
                for name, succs in by_action[s].items()
                if all(succ in winning for succ in succs)
            }
            if acts:
                allowed[s] = acts
        # states that can reach a goal through allowed actions
        reach = set(g for g in space.goal_states if g in winning)
        changed = True
        while changed:
            changed = False
            for s in winning:
                if s in reach or s not in allowed:
                    continue
                for succs in allowed[s].values():
                    if any(t in reach for t in succs):
                        reach.add(s)
                        changed = True
                        break
        if reach == winning:
            break
        winning = reach
        if 0 not in winning:
            raise Unsolvable(SolveMode.STRONG_CYCLIC)
    if 0 not in winning:
        raise Unsolvable(SolveMode.STRONG_CYCLIC)

    # fair-progress extraction: pick actions with some outcome strictly closer to goal
    level = {g: 0 for g in space.goal_states if g in winning}
    frontier = deque(level)
    allowed = {
        s: {
            name: succs
            for name, succs in by_action[s].items()
            if all(succ in winning for succ in succs)
        }
        for s in winning
    }
    while frontier:
        t = frontier.popleft()
        for s in winning:
            if s in level:
                continue
            for succs in allowed[s].values():
                if t in succs:
                    level[s] = level[t] + 1
                    frontier.append(s)
                    break
    full: dict[int, str] = {}
    for s in winning - space.goal_states:
        candidates = [
            name
            for name, succs in sorted(allowed[s].items())
            if any(succ in level and level[succ] < level[s] for succ in succs)
        ]
        full[s] = candidates[0]
    return _restrict_to_reachable(space, full, by_action)


def _restrict_to_reachable(space: StateSpace, full: dict[int, str], by_action) -> dict[frozenset, str]:
    mapping: dict[frozenset, str] = {}
    seen = {0}
    queue = deque([0])
    while queue:
        s = queue.popleft()
        if s in space.goal_states or s not in full:
            continue
        mapping[space.states[s]] = full[s]
        for succ in by_action[s][full[s]]:
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return mapping

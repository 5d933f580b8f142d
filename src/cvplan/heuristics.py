"""The planner's heuristic: goal counting.

The engine binds the problem once with make_heuristic and calls the bound
form per state.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .model import And, Constraint, Problem, State, compile_constraint


def goal_conjuncts(goal: Constraint) -> Tuple[Constraint, ...]:
    """Flatten nested conjunctions; any non-conjunction node is one conjunct."""
    if isinstance(goal, And):
        out = []
        for item in goal.items:
            out.extend(goal_conjuncts(item))
        return tuple(out)
    return (goal,)


def make_heuristic(problem: Problem) -> Callable[[State], float]:
    """The number of unsatisfied top-level goal conjuncts of a state, with
    each conjunct compiled once."""
    tests = [compile_constraint(con) for con in goal_conjuncts(problem.goal)]
    no_controls = {}

    def h(state: State) -> float:
        unsat = 0
        for holds in tests:
            if not holds(state, no_controls):
                unsat += 1
        return float(unsat)

    return h

"""The planner's heuristic: goal counting.

The engine binds the problem once with make_heuristic and calls the bound
form per state.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .model import Constraint, Problem, State, conjuncts


def goal_conjuncts(goal: Constraint) -> Tuple[Constraint, ...]:
    """Flatten nested conjunctions; any non-conjunction node is one conjunct."""
    return tuple(conjuncts(goal))


def make_heuristic(problem: Problem) -> Callable[[State], float]:
    """The number of unsatisfied top-level goal conjuncts of a state, counted
    by one function compiled per state layout."""
    counts = problem._goal_count

    def h(state: State) -> float:
        return counts[state.layout](state)

    return h

"""A frozen reference engine: the best-first loop, the three samplers and
the MCTS baseline as cvplan ran them at commit 1e36688, written on plain
Python data. tests/test_reference_engine.py checks that cvplan's engines
still make the same runs, node for node.

It reads only cvplan's public model functions (try_apply, liveness,
goal_test, state_key, make_heuristic) and sampling.snap. It draws its own
controls and enumerates its own dyadic grid, and it uses none of the
engine's data structures: its tree is plain lists, its open list a heapq
of (f, push number, uid) and its duplicate set a dict of state keys. So a
rewrite of the engine is checked against code that the rewrite did not
touch. It keeps no clock: a run ends by its expansion or trial cap.

A change that alters trajectories on purpose changes this file with it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from cvplan.model import (Decision, Problem, State, goal_test, liveness, make_heuristic,
                          state_key, try_apply)
from cvplan.sampling import snap
from cvplan.search import MctsConfig, SearchConfig

RECTIFIERS: Dict[str, Callable[[int], float]] = {
    "lin": float,
    "qua": lambda n: float(n * n),
    "log": math.log1p,
}

#: (decision, successor, trials, exhausted), as the engine's SampleOutcome
Sample = Tuple[Optional[Decision], Optional[State], int, bool]


def draw_controls(problem: Problem, unit: Callable[[], float], digits: int) -> Dict[str, float]:
    """Per control in declared order, lower + (upper - lower) * unit(),
    snapped to the 10**-digits grid."""
    return {spec.name: snap(spec.lower + (spec.upper - spec.lower) * unit(), digits)
            for spec in problem.controls}


# ---------------------------------------------------------------------------
# the dyadic grid, enumerated diagonally

def level_units(level: int) -> List[float]:
    """The units a refinement level adds, in order: 0 and 1 at level 0,
    then the odd multiples of 2**-level."""
    return [0.0, 1.0] if level == 0 else [k / 2 ** level for k in range(1, 2 ** level, 2)]


#: dims -> [the points enumerated so far, the next total level]
_DIAGONAL: Dict[int, list] = {}


def dyadic_point(dims: int, t: int) -> Tuple[float, ...]:
    """The t-th point of the dyadic grid in dims dimensions: points by the
    sum of their coordinates' levels, and within a sum in lexicographic
    order of each coordinate's (level, unit)."""
    grown = _DIAGONAL.setdefault(dims, [[], 0])
    points = grown[0]
    while len(points) <= t:
        total = grown[1]
        grown[1] += 1
        keyed = []
        for levels in itertools.product(range(total + 1), repeat=dims):
            if sum(levels) == total:
                keyed += [(tuple(zip(levels, units)), units)
                          for units in itertools.product(*map(level_units, levels))]
        points += [units for _, units in sorted(keyed)]
        if dims == 0 and len(points) <= t:
            raise IndexError("zero-dimensional enumeration has a single element")
    return points[t]


# ---------------------------------------------------------------------------
# samplers

def sample_uniform(state: State, problem: Problem, rng: random.Random,
                   budget: int, digits: int) -> Sample:
    """Up to budget draws of an action by rng.randrange; a live action's
    draw draws its controls and is one trial. Exhausted, with the rng
    untouched, when every action is dead."""
    alive = liveness(state, problem)
    if not any(alive):
        return None, None, 0, True
    trials = 0
    for _ in range(budget):
        i = rng.randrange(len(problem.actions))
        if not alive[i]:
            continue
        trials += 1
        action = problem.actions[i]
        controls = draw_controls(problem, rng.random, digits)
        successor = try_apply(state, action, controls)
        if successor is not None:
            return Decision(action.name, controls), successor, trials, False
    return None, None, trials, False


def sample_systematic(state: State, start: int, problem: Problem,
                      budget: int, digits: int) -> Sample:
    """Trial t takes decision number start + t: action number i % actions
    at the (i // actions)-th dyadic point. A dead action's decision is a
    trial that draws and checks nothing. Without controls the decisions
    run out after one per action."""
    actions, dims = problem.actions, len(problem.controls)
    if not actions or (dims == 0 and start >= len(actions)):
        return None, None, 0, True
    alive = liveness(state, problem)
    trials = 0
    while trials < budget:
        i = start + trials
        if dims == 0 and i >= len(actions):
            return None, None, trials, True
        trials += 1
        if not alive[i % len(actions)]:
            continue
        action = actions[i % len(actions)]
        controls = draw_controls(problem, iter(dyadic_point(dims, i // len(actions))).__next__,
                                 digits)
        successor = try_apply(state, action, controls)
        if successor is not None:
            return (Decision(action.name, controls), successor, trials,
                    dims == 0 and i + 1 >= len(actions))
    return None, None, trials, False


def sample_heuristic(state: State, problem: Problem, h: Callable[[State], float],
                     rng: random.Random, cfg: SearchConfig) -> Sample:
    """Up to cfg.candidates uniform draws; one of those that found a
    successor, picked by rng.choices with weights (1 / (h + eps)) ** beta,
    scaled so that the largest is 1."""
    found, trials = [], 0
    for _ in range(cfg.candidates):
        decision, successor, spent, exhausted = sample_uniform(
            state, problem, rng, cfg.reject_budget, cfg.grid_digits)
        if exhausted:
            return None, None, 0, True
        trials += spent
        if decision is not None:
            found.append((decision, successor))
    if not found:
        return None, None, trials, False
    hs = [h(successor) for _, successor in found]
    ref = (min(hs) if cfg.beta >= 0 else max(hs)) + cfg.eps
    weights = [(ref / (value + cfg.eps)) ** cfg.beta for value in hs]
    decision, successor = rng.choices(found, weights=weights)[0]
    return decision, successor, trials, False


# ---------------------------------------------------------------------------
# best-first search with delayed partial expansion

@dataclass
class Run:
    """A finished run and its tree, one list entry per node in uid order."""
    outcome: str = ""
    plan: Optional[List[Decision]] = None
    expansions: int = 0
    reexpansions: int = 0
    peak_open: int = 1
    parent: List[int] = field(default_factory=list)
    g: List[int] = field(default_factory=list)
    h: List[float] = field(default_factory=list)
    n: List[int] = field(default_factory=list)
    f: List[float] = field(default_factory=list)
    trials: List[int] = field(default_factory=list)
    states: List[State] = field(default_factory=list)
    decisions: List[Optional[Decision]] = field(default_factory=list)


def run_search(problem: Problem, cfg: SearchConfig) -> Run:
    """The best-first engine: extract the node of least f, earliest pushed
    first; stop at a goal; else take one sample, add its successor unless
    its state key was seen, and requeue the node at f = h + r(n), plus g
    in sa mode, or drop it when the sampler reports it exhausted."""
    rng = random.Random(cfg.seed)
    h_fn = make_heuristic(problem)
    rect, sa = RECTIFIERS[cfg.rectifier], cfg.mode == "sa"
    limit = cfg.expansion_limit or math.inf
    budget, digits = cfg.reject_budget, cfg.grid_digits
    if cfg.sampler == "systematic":
        def sample(state, start):
            return sample_systematic(state, start, problem, budget, digits)
    elif cfg.sampler == "uniform":
        def sample(state, start):
            return sample_uniform(state, problem, rng, budget, digits)
    else:
        def sample(state, start):
            return sample_heuristic(state, problem, h_fn, rng, cfg)

    run = Run()
    heap: List[Tuple[float, int, int]] = []
    pushes = itertools.count()

    def priority(g: int, h: float, n: int) -> float:
        return g + (h + rect(n)) if sa else h + rect(n)

    def add(parent: int, g: int, state: State, decision: Optional[Decision]) -> int:
        uid, h = len(run.parent), h_fn(state)
        for column, value in ((run.parent, parent), (run.g, g), (run.h, h), (run.n, 0),
                              (run.f, priority(g, h, 0)), (run.trials, 0),
                              (run.states, state), (run.decisions, decision)):
            column.append(value)
        heapq.heappush(heap, (run.f[uid], next(pushes), uid))
        return uid

    seen = {state_key(problem.init, problem): add(-1, 0, problem.init, None)}
    while True:
        if not heap:
            run.outcome = "exhausted"
            return run
        if run.expansions >= limit:
            run.outcome = "budget"
            return run
        uid = heapq.heappop(heap)[2]
        state = run.states[uid]
        if goal_test(state, problem.goal):
            run.outcome, run.plan = "solved", []
            while run.parent[uid] >= 0:
                run.plan.insert(0, run.decisions[uid])
                uid = run.parent[uid]
            return run
        run.expansions += 1
        run.reexpansions += run.n[uid] > 0
        decision, successor, spent, exhausted = sample(state, run.trials[uid])
        run.trials[uid] += spent
        if successor is not None:
            key = state_key(successor, problem)
            if not cfg.duplicate_detection or key not in seen:
                seen[key] = add(uid, run.g[uid] + 1, successor, decision)
        run.n[uid] += 1
        run.f[uid] = priority(run.g[uid], run.h[uid], run.n[uid])
        if not exhausted:
            heapq.heappush(heap, (run.f[uid], next(pushes), uid))
        run.peak_open = max(run.peak_open, len(heap))


# ---------------------------------------------------------------------------
# MCTS with progressive widening

class MctsNode:
    def __init__(self, state: State, decision: Optional[Decision]):
        self.state, self.decision = state, decision
        self.children: List[MctsNode] = []
        self.visits, self.reward_sum = 0, 0.0


def run_mcts(problem: Problem, cfg: MctsConfig) -> Tuple[str, Optional[List[Decision]], int]:
    """UCT with progressive widening, to cfg.trial_limit trials:
    (outcome, plan, trials)."""
    rng = random.Random(cfg.seed)
    h_fn = make_heuristic(problem)
    budget, digits = cfg.reject_budget, cfg.grid_digits
    root = MctsNode(problem.init, None)
    trials = 0

    def ucb1(parent: MctsNode, child: MctsNode) -> float:
        mean = child.reward_sum / child.visits
        return mean + cfg.c * math.sqrt(math.log(parent.visits) / child.visits)

    while trials < cfg.trial_limit:
        trials += 1
        node, path, decisions = root, [root], []
        while True:
            node.visits += 1
            if goal_test(node.state, problem.goal):
                return "solved", decisions, trials
            if len(node.children) < math.ceil(cfg.k * node.visits ** cfg.alpha):
                decision, successor, *_ = sample_uniform(node.state, problem, rng, budget, digits)
                if decision is not None:
                    child = MctsNode(successor, decision)
                    node.children.append(child)
                    child.visits += 1
                    path.append(child)
                    decisions.append(decision)
                    node = child
                    if goal_test(node.state, problem.goal):
                        return "solved", decisions, trials
                break
            if not node.children:
                break
            parent = node
            node = max(parent.children, key=lambda child: ucb1(parent, child))
            decisions.append(node.decision)
            path.append(node)

        state = node.state
        for _ in range(cfg.rollout_depth):
            decision, successor, *_ = sample_uniform(state, problem, rng, budget, digits)
            if decision is None:
                break
            state = successor
            decisions.append(decision)
            if goal_test(state, problem.goal):
                return "solved", decisions, trials
        reward = 1.0 / (1.0 + h_fn(state))
        for visited in path:
            visited.reward_sum += reward
    return "budget", None, trials

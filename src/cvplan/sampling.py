"""Decision sampling strategies over infinite decision spaces.

Three strategies produce (action, control valuation) pairs for a state:

* systematic: deterministic, derandomized. Actions rotate round-robin; control
  values follow the dyadic refinement sequence 0, 1, 1/2, 1/4, 3/4, ... mapped
  affinely onto each control box, with multi-dimensional boxes enumerated
  diagonally by total refinement level.
* uniform: action uniform over all actions, controls uniform over the box,
  rejection sampling with a bounded budget of draws.
* heuristic: draws N uniform candidates and picks one with probability
  proportional to (1 / (h(successor) + eps)) ** beta.

A call first finds the dead actions (model.liveness), which no control
value makes apply, and draws and checks nothing for them. Controls come
from the problem's compiled draw, snapped to a 10**-d grid (d = 0
disables). reject_budget bounds the decisions one call picks, dead or not.

make_sampler binds the strategy a SearchConfig names.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .model import Decision, Problem, State, round_half_away, try_apply

SAMPLER_KINDS = ("systematic", "uniform", "heuristic")

#: above this many grid digits, 10**digits is beyond the float range
_MAX_GRID_DIGITS = sys.float_info.max_10_exp

#: a sampler given a deadline reads the clock once per this many draws
_CLOCK_EVERY = 256


@dataclass(slots=True)
class SampleOutcome:
    """Result of one sampling call.

    decision/successor are None on failure, which includes a call cut short
    at its deadline. trials counts precondition checks, or for systematic
    sampling decision indices, dead actions' included. exhausted marks a
    state with no decision left to try, so that the search drops the node:
    a finite decision set fully enumerated (systematic sampling), or a
    state in which every action is dead (uniform and heuristic sampling).
    """
    decision: Optional[Decision] = None
    successor: Optional[State] = None
    trials: int = 0
    exhausted: bool = False

    @property
    def ok(self) -> bool:
        return self.decision is not None


def snap(value: float, digits: int, scale: Optional[int] = None) -> float:
    """Round a control value onto the 10**-digits grid, halves away from
    zero (0 digits: unchanged). A caller snapping many values passes
    scale = 10**digits, computed once.

    When value * 10**digits or 10**digits is beyond the float range, the grid
    is finer than the value's float spacing and the value is returned as is.
    """
    if digits <= 0 or digits > _MAX_GRID_DIGITS:
        return value
    scale = 10 ** digits if scale is None else scale
    rounded = round_half_away(value, digits, scale)
    return value if isinstance(rounded, str) else rounded / scale


# ---------------------------------------------------------------------------
# dyadic refinement sequence

def dyadic_value(i: int) -> float:
    """i-th element of 0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ...

    Both endpoints first, then the midpoints of each refinement level in
    left-to-right order. All values are exact binary fractions.
    """
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i == 0:
        return 0.0
    if i == 1:
        return 1.0
    level = (i - 1).bit_length()          # i in [2**(level-1)+1, 2**level]
    j = i - (2 ** (level - 1) + 1)        # position within the level
    return (2 * j + 1) / (2 ** level)


def _indices_at_level(level: int) -> range:
    if level == 0:
        return range(0, 2)
    return range(2 ** (level - 1) + 1, 2 ** level + 1)


def _tuples_at_level(dims: int, total: int) -> List[Tuple[int, ...]]:
    """All index tuples whose per-dimension levels sum to `total`, sorted."""
    if dims == 0:
        return [()] if total == 0 else []
    return sorted(head + (j,) for level in range(total + 1)
                  for head in _tuples_at_level(dims - 1, total - level)
                  for j in _indices_at_level(level))


#: dims -> (the tuples of the levels enumerated so far, a counter of the
#: levels): the shared enumeration prefix, which depends only on dims
_TUPLE_CACHE: Dict[int, Tuple[List[Tuple[int, ...]], Iterator[int]]] = {}


def dyadic_tuple(dims: int, t: int) -> Tuple[int, ...]:
    """t-th tuple of the diagonal enumeration of dyadic indices in `dims`."""
    if dims == 0:
        if t == 0:
            return ()
        raise IndexError("zero-dimensional enumeration has a single element")
    cache, levels = _TUPLE_CACHE.setdefault(dims, ([], itertools.count()))
    while len(cache) <= t:
        cache.extend(_tuples_at_level(dims, next(levels)))
    return cache[t]


# ---------------------------------------------------------------------------
# strategies

def sample_systematic(state: State, start: int, problem: Problem,
                      budget: int = 100, grid_digits: int = 0,
                      deadline: Optional[float] = None) -> SampleOutcome:
    """Deterministic sampling: the t-th trial steps to decision number
    start + t, until one applies or the budget runs out. A node that passes
    its cumulative trial count as start resumes where it left off. A dead
    action's decision is a trial that draws and checks nothing.

    With no control variables the decision set is finite; a call that
    reaches its end reports exhaustion. deadline, a time.perf_counter()
    value, cuts a call short as in sample_uniform.
    """
    n_actions = len(problem.actions)
    dims = len(problem.controls)
    if n_actions == 0 or (dims == 0 and start >= n_actions):
        return SampleOutcome(exhausted=True)
    alive = problem._liveness[state.layout](state)
    draw = problem._draw[grid_digits]
    trials = 0
    while trials < budget:
        i = start + trials
        if dims == 0 and i >= n_actions:
            return SampleOutcome(trials=trials, exhausted=True)
        trials += 1
        if alive[i % n_actions]:
            action = problem.actions[i % n_actions]
            mu = draw(map(dyadic_value, dyadic_tuple(dims, i // n_actions)).__next__)
            succ = try_apply(state, action, mu)
            if succ is not None:
                return SampleOutcome(Decision(action.name, mu), succ, trials,
                                     exhausted=dims == 0 and i + 1 >= n_actions)
        if not trials % _CLOCK_EVERY and deadline is not None and perf_counter() > deadline:
            break
    return SampleOutcome(trials=trials)


def sample_uniform(state: State, problem: Problem, rng: random.Random,
                   budget: int = 100, grid_digits: int = 0,
                   deadline: Optional[float] = None) -> SampleOutcome:
    """Rejection sampling: uniform action, uniform controls over the box.

    Each of up to `budget` draws picks an action uniformly over all
    actions, as rng.randrange would. A dead action's draw ends there. Any
    other draw takes, per control, rng.uniform(lower, upper), snaps it as
    snap does, and is a trial: one precondition check. The call thus has
    the law of drawing controls for every draw, while only the rng stream
    differs. With every action dead the call returns exhausted, with 0
    trials and the rng untouched.

    With a deadline, a time.perf_counter() value, the clock is read every
    _CLOCK_EVERY draws, and a call found past it fails with the trials it
    made.
    """
    alive = problem._liveness[state.layout](state)
    if not any(alive):
        return SampleOutcome(exhausted=True)
    actions, apply = problem.actions, try_apply
    n_actions = len(actions)
    bits = n_actions.bit_length()
    getrandbits, uniform01 = rng.getrandbits, rng.random
    draw = problem._draw[grid_digits]
    trials = 0
    for count in range(1, budget + 1):
        if not count % _CLOCK_EVERY and deadline is not None and perf_counter() > deadline:
            return SampleOutcome(trials=trials)
        # Random.randrange(n_actions), spelled out
        i = getrandbits(bits)
        while i >= n_actions:
            i = getrandbits(bits)
        if not alive[i]:
            continue
        trials += 1
        mu = draw(uniform01)
        action = actions[i]
        succ = apply(state, action, mu)
        if succ is not None:
            return SampleOutcome(Decision(action.name, mu), succ, trials)
    return SampleOutcome(trials=trials)


def heuristic_weights(h_values: Sequence[float], beta: float = 1.0,
                      eps: float = 1e-6) -> List[float]:
    """Candidate weights proportional to (1 / (h + eps)) ** beta, scaled so
    that the largest is 1.0, which keeps every weight finite whatever beta."""
    ref = (min(h_values) if beta >= 0 else max(h_values)) + eps
    return [(ref / (h + eps)) ** beta for h in h_values]


def heuristic_pick(h_values: Sequence[float], rng: random.Random,
                   beta: float = 1.0, eps: float = 1e-6) -> int:
    """Draw a candidate index with probability proportional to its weight."""
    weights = heuristic_weights(h_values, beta, eps)
    return rng.choices(range(len(h_values)), weights=weights, k=1)[0]


def sample_heuristic(state: State, problem: Problem, h: Callable[[State], float],
                     rng: random.Random, budget: int = 100, grid_digits: int = 0,
                     beta: float = 1.0, eps: float = 1e-6,
                     candidates: int = 10,
                     deadline: Optional[float] = None) -> SampleOutcome:
    """Draw up to `candidates` uniform candidates, pick one by heuristic weight.

    Candidates whose rejection budget runs out simply do not materialize; with
    no candidate at all the call fails. On heuristic plateaus the selection is
    uniform over the candidates. The clock is read after every candidate,
    found or not, and a call found past the deadline fails. A state where
    sample_uniform finds no action that can apply makes the call exhausted.
    """
    found: List[SampleOutcome] = []
    trials = 0
    for _ in range(candidates):
        out = sample_uniform(state, problem, rng, budget, grid_digits, deadline)
        if out.exhausted:
            return out
        trials += out.trials
        if out.ok:
            found.append(out)
        if deadline is not None and perf_counter() > deadline:
            return SampleOutcome(trials=trials)
    if not found:
        return SampleOutcome(trials=trials)
    pick = heuristic_pick([h(out.successor) for out in found], rng, beta, eps)
    chosen = found[pick]
    return SampleOutcome(chosen.decision, chosen.successor, trials)


def make_sampler(cfg, problem: Problem,
                 h: Optional[Callable[[State], float]] = None):
    """Bind the sampler a SearchConfig names to a problem:
    (state, start, rng, deadline=None) -> SampleOutcome, start being the
    trials already spent on the node (read by the systematic sampler only)."""
    budget, digits = cfg.reject_budget, cfg.grid_digits
    if cfg.sampler == "systematic":
        def sampler(state, start, rng, deadline=None):
            return sample_systematic(state, start, problem, budget, digits, deadline)
    elif cfg.sampler == "uniform":
        def sampler(state, start, rng, deadline=None):
            return sample_uniform(state, problem, rng, budget, digits, deadline)
    elif cfg.sampler == "heuristic":
        if h is None:
            raise ValueError("heuristic sampling needs a heuristic")
        def sampler(state, start, rng, deadline=None):
            return sample_heuristic(state, problem, h, rng, budget, digits,
                                    cfg.beta, cfg.eps, cfg.candidates, deadline)
    else:
        raise ValueError(f"unknown sampler kind: {cfg.sampler!r}")
    return sampler

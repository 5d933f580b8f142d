"""Decision sampling strategies over infinite decision spaces.

Three strategies produce (action, control valuation) pairs for a state:

* systematic: deterministic, derandomized. Actions rotate round-robin; control
  values follow the dyadic refinement sequence 0, 1, 1/2, 1/4, 3/4, ... mapped
  affinely onto each control box, with multi-dimensional boxes enumerated
  diagonally by total refinement level.
* uniform: action uniform over all actions, controls uniform over the box,
  rejection sampling with a bounded trial budget.
* heuristic: draws N uniform candidates and picks one with probability
  proportional to (1 / (h(successor) + eps)) ** beta.

Sampled control values can be snapped to a 10**-d grid (d = 0 disables).
make_sampler binds the strategy a SearchConfig names.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import Decision, Problem, State, round_half_away, try_apply

SAMPLER_KINDS = ("systematic", "uniform", "heuristic")

#: above this many grid digits, 10**digits is beyond the float range
_MAX_GRID_DIGITS = sys.float_info.max_10_exp


@dataclass
class NodeSamplerState:
    """Per-node sampling memory: systematic counter and exhaustion flag."""
    counter: int = 0
    exhausted: bool = False


@dataclass
class SampleOutcome:
    """Result of one sampling call.

    decision/successor are None on failure. trials counts precondition checks
    performed. exhausted marks a finite decision set that has been fully
    enumerated (systematic sampling only).
    """
    decision: Optional[Decision] = None
    successor: Optional[State] = None
    trials: int = 0
    exhausted: bool = False

    @property
    def ok(self) -> bool:
        return self.decision is not None


def snap(value: float, digits: int) -> float:
    """Round a control value onto the 10**-digits grid (0 digits: unchanged).

    When value * 10**digits or 10**digits is beyond the float range, the grid
    is finer than the value's float spacing and the value is returned as is.
    """
    if digits <= 0 or digits > _MAX_GRID_DIGITS:
        return value
    try:
        return round_half_away(value, digits) / (10 ** digits)
    except TypeError:  # value * 10**digits overflowed to its repr string
        return value


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
    out: List[Tuple[int, ...]] = []

    def build(dim: int, remaining: int, prefix: Tuple[int, ...]):
        if dim == dims - 1:
            for j in _indices_at_level(remaining):
                out.append(prefix + (j,))
            return
        for lvl in range(remaining + 1):
            for j in _indices_at_level(lvl):
                build(dim + 1, remaining - lvl, prefix + (j,))

    build(0, total, ())
    out.sort()
    return out


# shared per-dimension-count enumeration prefix; depends only on dims
_TUPLE_CACHE: Dict[int, List[Tuple[int, ...]]] = {}
_TUPLE_CACHE_LEVEL: Dict[int, int] = {}


def dyadic_tuple(dims: int, t: int) -> Tuple[int, ...]:
    """t-th tuple of the diagonal enumeration of dyadic indices in `dims`."""
    if dims == 0:
        if t == 0:
            return ()
        raise IndexError("zero-dimensional enumeration has a single element")
    cache = _TUPLE_CACHE.setdefault(dims, [])
    while len(cache) <= t:
        level = _TUPLE_CACHE_LEVEL.get(dims, 0)
        cache.extend(_tuples_at_level(dims, level))
        _TUPLE_CACHE_LEVEL[dims] = level + 1
    return cache[t]


# ---------------------------------------------------------------------------
# strategies

def _controls_for_tuple(problem: Problem, idx: Tuple[int, ...], digits: int) -> Dict[str, float]:
    mu: Dict[str, float] = {}
    for spec, j in zip(problem.controls, idx):
        value = spec.lower + dyadic_value(j) * (spec.upper - spec.lower)
        mu[spec.name] = snap(value, digits)
    return mu


def sample_systematic(state: State, node_state: NodeSamplerState, problem: Problem,
                      budget: int = 100, grid_digits: int = 0) -> SampleOutcome:
    """Deterministic sampling: advance the node's counter past inapplicable
    pairs until an applicable decision is found or the budget runs out.

    With no control variables the decision set is finite; once the counter
    passes it the node is flagged exhausted.
    """
    n_actions = len(problem.actions)
    dims = len(problem.controls)
    trials = 0
    while trials < budget:
        i = node_state.counter
        if n_actions == 0 or (dims == 0 and i >= n_actions):
            node_state.exhausted = True
            return SampleOutcome(trials=trials, exhausted=True)
        action = problem.actions[i % n_actions]
        idx = dyadic_tuple(dims, i // n_actions)
        node_state.counter += 1
        trials += 1
        mu = _controls_for_tuple(problem, idx, grid_digits)
        succ = try_apply(state, action, mu)
        if succ is not None:
            if dims == 0 and node_state.counter >= n_actions:
                node_state.exhausted = True
            return SampleOutcome(Decision(action.name, mu), succ, trials,
                                 exhausted=node_state.exhausted)
    return SampleOutcome(trials=trials)


def sample_uniform(state: State, problem: Problem, rng: random.Random,
                   budget: int = 100, grid_digits: int = 0) -> SampleOutcome:
    """Rejection sampling: uniform action, uniform controls over the box."""
    n_actions = len(problem.actions)
    if n_actions == 0:
        return SampleOutcome()
    for trial in range(1, budget + 1):
        action = problem.actions[rng.randrange(n_actions)]
        mu = {
            spec.name: snap(rng.uniform(spec.lower, spec.upper), grid_digits)
            for spec in problem.controls
        }
        succ = try_apply(state, action, mu)
        if succ is not None:
            return SampleOutcome(Decision(action.name, mu), succ, trial)
    return SampleOutcome(trials=budget)


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
                     candidates: int = 10) -> SampleOutcome:
    """Draw up to `candidates` uniform candidates, pick one by heuristic weight.

    Candidates whose rejection budget runs out simply do not materialize; with
    no candidate at all the call fails. On heuristic plateaus the selection is
    uniform over the candidates.
    """
    found: List[SampleOutcome] = []
    trials = 0
    for _ in range(candidates):
        out = sample_uniform(state, problem, rng, budget, grid_digits)
        trials += out.trials
        if out.ok:
            found.append(out)
    if not found:
        return SampleOutcome(trials=trials)
    pick = heuristic_pick([h(out.successor) for out in found], rng, beta, eps)
    chosen = found[pick]
    return SampleOutcome(chosen.decision, chosen.successor, trials)


def make_sampler(cfg, problem: Problem,
                 h: Optional[Callable[[State], float]] = None):
    """Bind the sampler a SearchConfig names to a problem:
    (state, node_state, rng) -> SampleOutcome."""
    if cfg.sampler == "systematic":
        def sampler(state, node_state, rng):
            return sample_systematic(state, node_state, problem,
                                     cfg.reject_budget, cfg.grid_digits)
    elif cfg.sampler == "uniform":
        def sampler(state, node_state, rng):
            return sample_uniform(state, problem, rng,
                                  cfg.reject_budget, cfg.grid_digits)
    elif cfg.sampler == "heuristic":
        if h is None:
            raise ValueError("heuristic sampling needs a heuristic")
        def sampler(state, node_state, rng):
            return sample_heuristic(state, problem, h, rng,
                                    cfg.reject_budget, cfg.grid_digits,
                                    cfg.beta, cfg.eps, cfg.candidates)
    else:
        raise ValueError(f"unknown sampler kind: {cfg.sampler!r}")
    return sampler

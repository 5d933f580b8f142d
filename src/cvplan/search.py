"""Best-first search with delayed partial expansion, plus an MCTS baseline.

The search keeps one node per generated state in a priority queue. Extracting
a node does not enumerate its (generally infinite) decision set; instead one
decision is drawn from the configured sampler, yielding at most one new
child, and the node goes back into the queue with its priority rectified
upward. The per-node counter n tracks how many times the node has been
partially expanded; priorities are

    sg mode:  f = h(s) + r(n)
    sa mode:  f = g + h(s) + r(n)

with g the number of actions from the root and r one of the rectifiers below
(r(0) = 0, strictly increasing). Goal states are recognized when extracted,
not when generated. Duplicate successors (by canonical state key) are
discarded, and a node the sampler reports exhausted (a finite decision set
enumerated, or a state where no action can apply) is removed instead of
reinserted, so searches over purely finite spaces terminate.

run_mcts implements the baseline: UCT with progressive widening, which caps
a node's children at ceil(k * visits**alpha) so sampling can widen the tree
gradually inside an infinite decision space.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import Decision, Problem, State, goal_test, make_heuristic, state_key
from .sampling import make_sampler, sample_uniform

#: priority rectifiers by CLI tag; each maps the partial-expansion counter
#: n >= 0 to a nonnegative increment with r(0) = 0
RECTIFIERS: Dict[str, Callable[[int], float]] = {
    "lin": lambda n: float(n),
    "qua": lambda n: float(n * n),
    "log": lambda n: math.log1p(n),
}

MODES = ("sg", "sa")

#: absolute tolerance for floating-point checks on f values
F_TOL = 1e-9


@dataclass
class SearchConfig:
    mode: str = "sg"
    rectifier: str = "log"
    #: one of sampling.SAMPLER_KINDS; beta, eps and candidates only matter
    #: for the heuristic sampler
    sampler: str = "uniform"
    beta: float = 1.0
    eps: float = 1e-6
    candidates: int = 10
    grid_digits: int = 3
    reject_budget: int = 100
    seed: int = 0
    time_limit: float = 600.0
    expansion_limit: Optional[int] = None
    duplicate_detection: bool = True


class SearchTree:
    """The best-first engine's nodes as columns indexed by uid: 0 for the
    root, then the nodes in insertion order.

    parent (-1 at the root), g, h, n, trials (the sampler's trials on the
    node, over all its expansions) and f (the priority the node was last
    queued with) are arrays. The lists layout, bool_values and num_values
    hold each node's state, and action and values its decision (None and ()
    at the root), in the order of names, the control names every sampled
    decision shares. So a node is atomics and tuples of atomics, which the
    garbage collector stops tracking.
    """

    def __init__(self, names: Tuple[str, ...]):
        self.names = names
        self.parent, self.g, self.n, self.trials = (array("q") for _ in range(4))
        self.h, self.f = array("d"), array("d")
        self.layout, self.bool_values, self.num_values = [], [], []
        self.action, self.values = [], []
        #: each node's first child and next sibling, -1 for none; built by
        #: children, again once the tree has grown
        self._first, self._sibling = array("q"), array("q")

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, parent: int, g: int, h: float, f: float, state: State,
            decision: Optional[Decision]) -> int:
        """Append a node at n = 0 and trials = 0; returns its uid."""
        self.parent.append(parent)
        self.g.append(g)
        self.h.append(h)
        self.n.append(0)
        self.trials.append(0)
        self.f.append(f)
        self.layout.append(state.layout)
        self.bool_values.append(state.bool_values)
        self.num_values.append(state.num_values)
        self.action.append(decision and decision.action)
        self.values.append(decision.values if decision else ())
        return len(self.parent) - 1

    def state(self, uid: int) -> State:
        """Node uid's state, built afresh."""
        state = object.__new__(State)
        state.layout, state.bool_values, state.num_values = (
            self.layout[uid], self.bool_values[uid], self.num_values[uid])
        return state

    def children(self, uid: int) -> List[int]:
        """Node uid's children in insertion order. The links behind them are
        built in one pass over parent, on the first call after the tree grew."""
        size, parent = len(self), self.parent
        if len(self._first) != size:
            first, sibling = array("q", [-1]) * size, array("q", [-1]) * size
            for child in range(size - 1, 0, -1):
                sibling[child] = first[parent[child]]
                first[parent[child]] = child
            self._first, self._sibling = first, sibling
        kids, child = [], self._first[uid]
        while child >= 0:
            kids.append(child)
            child = self._sibling[child]
        return kids


def _column(name: str) -> property:
    """A TreeNode field that reads and writes its node's entry of a column."""
    return property(lambda node: getattr(node.tree, name)[node.uid],
                    lambda node, value: getattr(node.tree, name).__setitem__(node.uid, value))


class TreeNode:
    """View of node uid of a SearchTree, with the fields of a tree node.
    g, h, n, f and trials read and write the tree's columns; state,
    decision and parent (None at the root) and children (in insertion
    order) are built on each read."""

    __slots__ = ("tree", "uid")

    def __init__(self, tree: SearchTree, uid: int):
        self.tree, self.uid = tree, uid

    g, h, n, f, trials = map(_column, ("g", "h", "n", "f", "trials"))

    @property
    def state(self) -> State:
        return self.tree.state(self.uid)

    @property
    def decision(self) -> Optional[Decision]:
        tree, uid = self.tree, self.uid
        action = tree.action[uid]
        return None if action is None else Decision._of(action, tree.names, tree.values[uid])

    @property
    def parent(self) -> Optional["TreeNode"]:
        parent = self.tree.parent[self.uid]
        return None if parent < 0 else TreeNode(self.tree, parent)

    @property
    def children(self) -> List["TreeNode"]:
        return [TreeNode(self.tree, child) for child in self.tree.children(self.uid)]


def f_value(g: int, h: float, n: int, mode: str, rect: Callable[[int], float]) -> float:
    """Node priority: h + r(n), plus the path cost g in sa mode."""
    base = h + rect(n)
    return g + base if mode == "sa" else base


class OpenList:
    """Min-heap of (f, insertion sequence, uid) entries: atomics, which the
    garbage collector stops tracking. Ties pop in insertion order."""

    def __init__(self):
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = itertools.count()

    def push(self, f: float, uid: int):
        heapq.heappush(self._heap, (f, next(self._seq), uid))

    def pop(self) -> int:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class SearchResult:
    """Outcome of one run.

    outcome is "solved", "exhausted" (open list emptied), "timeout" or
    "budget". plan is present iff solved. expansions counts non-goal
    extractions for the best-first engine and trials for the MCTS baseline.
    """
    outcome: str
    plan: Optional[List[Decision]]
    expansions: int
    reexpansions: int
    peak_open: int
    time_s: float
    #: tree root: for run_search a TreeNode view of the run's SearchTree,
    #: for run_mcts an MctsNode
    root: Optional[object] = None

    @property
    def reexpansion_rate(self) -> float:
        """Re-expansions as a percentage of expansions (0.0 without any)."""
        return 100.0 * self.reexpansions / self.expansions if self.expansions else 0.0


def reconstruct_plan(node: TreeNode) -> List[Decision]:
    """Decisions from the root to this node, in application order."""
    plan: List[Decision] = []
    while node.parent is not None:
        plan.append(node.decision)
        node = node.parent
    plan.reverse()
    return plan


def check_config(cfg) -> None:
    """Raise ValueError if a SearchConfig or MctsConfig cannot be run."""
    if not cfg.time_limit > 0:
        raise ValueError("time_limit must be positive")
    if cfg.reject_budget < 1:
        raise ValueError("reject_budget must be at least 1")
    if isinstance(cfg, MctsConfig):
        if not 0.0 < cfg.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not (0 < cfg.c < math.inf and 0 < cfg.k < math.inf):
            raise ValueError("c and k must be positive and finite")
        if cfg.rollout_depth < 0:
            raise ValueError("rollout_depth must be nonnegative")
        if cfg.trial_limit is not None and cfg.trial_limit <= 0:
            raise ValueError("trial_limit must be positive")
        return
    if cfg.mode not in MODES:
        raise ValueError(f"unknown mode: {cfg.mode!r}")
    if cfg.rectifier not in RECTIFIERS:
        raise ValueError(f"unknown rectifier: {cfg.rectifier!r}")
    if cfg.expansion_limit is not None and cfg.expansion_limit <= 0:
        raise ValueError("expansion_limit must be positive")
    if not 0 < cfg.eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if math.isnan(cfg.beta):
        raise ValueError("beta must be a number")
    if cfg.candidates < 1:
        raise ValueError("candidates must be at least 1")


def run_search(problem: Problem, cfg: SearchConfig,
               trace=None) -> SearchResult:
    """Run the best-first engine on a problem.

    The nodes live in one SearchTree, whose root the result holds as a
    TreeNode view; the open list holds uids. A node's State is built when it
    is extracted, and a Decision only for the plan.

    cfg.time_limit bounds sampling too: the samplers get the run's deadline
    and cut a call short once it has passed.

    trace, when given, is anything with an `append` method (a list, or a
    TraceCheck to check the run as it goes); it receives one tuple per event:
    ("extract", uid, f), ("goal", uid, hit), ("insert", uid, f),
    ("duplicate", uid), ("fail", uid), ("reinsert", uid, f), ("drop", uid).
    """
    check_config(cfg)
    rng = random.Random(cfg.seed)
    h_fn = make_heuristic(problem)
    sampler = make_sampler(cfg, problem, h_fn)
    mode, rect = cfg.mode, RECTIFIERS[cfg.rectifier]
    emit = trace.append if trace is not None else None

    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    tree = SearchTree(problem._control_names)
    gs, hs, ns, fs, trials = tree.g, tree.h, tree.n, tree.f, tree.trials
    h0 = h_fn(problem.init)
    root = tree.add(-1, 0, h0, f_value(0, h0, 0, mode, rect), problem.init, None)
    open_list = OpenList()
    open_list.push(fs[root], root)
    seen = {state_key(problem.init, problem)} if cfg.duplicate_detection else None

    expansions = 0
    reexpansions = 0
    peak_open = 1
    outcome = None
    goal_uid: Optional[int] = None

    while True:
        if len(open_list) == 0:
            outcome = "exhausted"
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            outcome = "timeout"
            break
        if cfg.expansion_limit is not None and expansions >= cfg.expansion_limit:
            outcome = "budget"
            break

        uid = open_list.pop()
        if emit:
            emit(("extract", uid, fs[uid]))

        state = tree.state(uid)
        hit = goal_test(state, problem.goal)
        if emit:
            emit(("goal", uid, hit))
        if hit:
            outcome = "solved"
            goal_uid = uid
            break

        expansions += 1
        n = ns[uid]
        if n > 0:
            reexpansions += 1

        sample = sampler(state, trials[uid], rng, deadline)
        trials[uid] += sample.trials
        if sample.ok:
            duplicate = False
            if seen is not None:
                child_key = state_key(sample.successor, problem)
                duplicate = child_key in seen
                seen.add(child_key)
            if duplicate:
                if emit:
                    emit(("duplicate", uid))
            else:
                g, h = gs[uid] + 1, h_fn(sample.successor)
                child = tree.add(uid, g, h, f_value(g, h, 0, mode, rect),
                                 sample.successor, sample.decision)
                open_list.push(fs[child], child)
                if emit:
                    emit(("insert", child, fs[child]))
        else:
            if emit:
                emit(("fail", uid))

        n = ns[uid] = n + 1
        f = fs[uid] = f_value(gs[uid], hs[uid], n, mode, rect)
        if sample.exhausted:
            if emit:
                emit(("drop", uid))
        else:
            open_list.push(f, uid)
            if emit:
                emit(("reinsert", uid, f))
        if len(open_list) > peak_open:
            peak_open = len(open_list)

    plan = reconstruct_plan(TreeNode(tree, goal_uid)) if goal_uid is not None else None
    return SearchResult(
        outcome=outcome,
        plan=plan,
        expansions=expansions,
        reexpansions=reexpansions,
        peak_open=peak_open,
        time_s=time.perf_counter() - t0,
        root=TreeNode(tree, root),
    )


# ---------------------------------------------------------------------------
# property checkers

def solution_cost_within_bound(result: SearchResult, root: TreeNode,
                               cfg: SearchConfig, tol: float = F_TOL) -> bool:
    """True iff the plan length is at most h(s0) + r(n_root) + tol.

    Only meaningful for sa mode (the bound follows from the goal node having
    been the queue minimum while the root was still queued) with a heuristic
    that is zero on goal states.
    """
    if cfg.mode != "sa":
        raise ValueError("the solution cost bound applies to sa mode only")
    if result.outcome != "solved" or result.plan is None:
        raise ValueError("result is not a solved run")
    rect = RECTIFIERS[cfg.rectifier]
    return len(result.plan) <= root.h + rect(root.n) + tol


def drifted_nodes(tree: SearchTree, cfg: SearchConfig) -> List[str]:
    """A message per node of a finished tree whose stored f is off
    f_value(g, h, n) by more than F_TOL: the events a TraceCheck sees carry
    no g or h."""
    rect = RECTIFIERS[cfg.rectifier]
    bad = []
    for uid, (g, h, n, f) in enumerate(zip(tree.g, tree.h, tree.n, tree.f)):
        expect = f_value(g, h, n, cfg.mode, rect)
        if abs(f - expect) > F_TOL:
            bad.append(f"node {uid} at f {f!r}, not {expect!r}")
    return bad


_REQUEUE = ("reinsert", "drop")
#: the event kinds allowed after each kind (a goal hit allows none)
_NEXT = {"extract": ("goal",),
         "goal": ("insert", "duplicate", "fail") + _REQUEUE,
         "insert": _REQUEUE, "duplicate": _REQUEUE, "fail": _REQUEUE,
         "reinsert": ("extract",), "drop": ("extract",)}


class TraceCheck:
    """A `trace=` sink for run_search that checks each event as it arrives.

    The grammar: per iteration one extraction, the goal test of that node, at
    most one insert, duplicate or fail, then one reinsert or drop of that
    node; a goal hit ends the trace. The priority invariants:

    - a node is extracted at the f it was last queued with;
    - a node is reinserted at f0 + r(n) within F_TOL, f0 being the f it was
      first queued with and n its partial-expansion count. In both modes
      f(g, h, n) = f(g, h, 0) + r(n), so this catches a drifting f;
    - an extracted f exceeds no f still queued (the heap order). A node's
      live ancestors are queued, so this implies the subtree bound.

    Breaches collect in `violations` as "event i: ..." strings. The queued
    f values sit in a shadow min-heap whose stale entries leave at the top,
    so in a run that keeps the heap order memory grows with the number of
    nodes, not of events.
    """

    def __init__(self, rectifier: str):
        self.rect = RECTIFIERS[rectifier]
        self.violations: List[str] = []
        #: uid -> [f0, n, queued f or None while out of the queue]
        self._nodes: Dict[int, list] = {}
        #: (queued f, uid), stale once the node's queued f differs
        self._queued: List[Tuple[float, int]] = []
        self._events = 0
        self._current: Optional[int] = None
        self._expect: Tuple[str, ...] = ("extract",)

    def _bad(self, msg: str):
        self.violations.append(f"event {self._events}: {msg}")

    def append(self, event: tuple):
        kind, uid = event[0], event[1]
        if kind not in self._expect:
            self._bad(f"{kind} where {' or '.join(self._expect) or 'no event'}"
                      f" was due")
        if kind == "insert":
            self._nodes[uid] = [event[2], 0, event[2]]
            heapq.heappush(self._queued, (event[2], uid))
        elif kind == "extract":
            self._extract(uid, event[2])
        elif uid != self._current:
            self._bad(f"{kind} of node {uid}, not the extracted one")
        if kind in _REQUEUE and uid in self._nodes:
            node = self._nodes[uid]
            node[1] += 1
            node[2] = event[2] if kind == "reinsert" else None
            expect = node[0] + self.rect(node[1])
            if node[2] is not None:
                heapq.heappush(self._queued, (node[2], uid))
                if abs(node[2] - expect) > F_TOL:
                    self._bad(f"node {uid} reinserted at f {node[2]!r}, not "
                              f"f0 + r({node[1]}) = {expect!r}")
        self._expect = () if kind == "goal" and event[2] else _NEXT.get(
            kind, self._expect)
        self._events += 1

    def _extract(self, uid: int, f: float):
        node = self._nodes.get(uid)
        if node is None:
            # the root's insertion predates the trace
            if self._nodes:
                self._bad(f"node {uid} extracted but never queued")
            node = self._nodes[uid] = [f, 0, f]
        if node[2] is None or abs(f - node[2]) > F_TOL:
            self._bad(f"node {uid} extracted at f {f!r}, queued at {node[2]!r}")
        node[2] = None
        queued = self._queued
        while queued and self._nodes[queued[0][1]][2] != queued[0][0]:
            heapq.heappop(queued)
        if queued and f > queued[0][0] + F_TOL:
            self._bad(f"node {uid} extracted at f {f!r} while node "
                      f"{queued[0][1]} is queued at f {queued[0][0]!r}")
        self._current = uid

    def finish(self) -> List[str]:
        """All violations, including a trace that stops mid-iteration."""
        if self._expect not in ((), ("extract",)):
            self._bad("trace ends mid-iteration")
        return self.violations


def validate_trace(events: Sequence[tuple], rectifier: str) -> List[str]:
    """TraceCheck's violations for a recorded run_search trace."""
    check = TraceCheck(rectifier)
    for event in events:
        check.append(event)
    return check.finish()


# ---------------------------------------------------------------------------
# MCTS with progressive widening

@dataclass
class MctsConfig:
    alpha: float = 0.3
    k: float = 1.0
    c: float = math.sqrt(2.0)
    rollout_depth: int = 50
    #: MCTS always samples uniformly; these two shape its draws
    grid_digits: int = 3
    reject_budget: int = 100
    seed: int = 0
    time_limit: float = SearchConfig.time_limit
    trial_limit: Optional[int] = None


class MctsNode:
    __slots__ = ("state", "decision", "children", "visits", "reward_sum")

    def __init__(self, state: State, decision: Optional[Decision]):
        self.state = state
        self.decision = decision
        self.children: List["MctsNode"] = []
        self.visits = 0
        self.reward_sum = 0.0


def _ucb1(parent: MctsNode, child: MctsNode, c: float) -> float:
    mean = child.reward_sum / child.visits
    return mean + c * math.sqrt(math.log(parent.visits) / child.visits)


def run_mcts(problem: Problem, cfg: MctsConfig,
             widen_violations: Optional[list] = None) -> SearchResult:
    """UCT with progressive widening; one sampled child at a time.

    A node with N visits may hold at most ceil(k * N**alpha) children; visits
    are counted on entry so a fresh node may always receive its first child.
    A trial's reward is 1 when it reaches a goal (at which point the trial's
    decision prefix is returned as the plan) and 1 / (1 + h(final)) when the
    rollout is cut off. As in run_search, sampling stops at the deadline
    that cfg.time_limit sets. widen_violations, when given, collects
    (visits, child count) pairs seen above the cap; it stays empty unless the
    widening rule is broken.
    """
    check_config(cfg)
    rng = random.Random(cfg.seed)
    h_fn = make_heuristic(problem)
    budget = cfg.reject_budget
    digits = cfg.grid_digits
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    root = MctsNode(problem.init, None)
    trials = 0
    plan: Optional[List[Decision]] = None

    def finish(out: str) -> SearchResult:
        return SearchResult(
            outcome=out, plan=plan, expansions=trials, reexpansions=0,
            peak_open=0, time_s=time.perf_counter() - t0, root=root,
        )

    while True:
        if cfg.trial_limit is not None and trials >= cfg.trial_limit:
            return finish("budget")
        if time.perf_counter() - t0 > cfg.time_limit:
            return finish("timeout")
        trials += 1

        node = root
        path = [root]
        decisions: List[Decision] = []
        # selection and expansion
        while True:
            node.visits += 1
            if goal_test(node.state, problem.goal):
                plan = decisions
                return finish("solved")
            allowed = math.ceil(cfg.k * node.visits ** cfg.alpha)
            if len(node.children) > allowed and widen_violations is not None:
                widen_violations.append((node.visits, len(node.children)))
            if len(node.children) < allowed:
                out = sample_uniform(node.state, problem, rng, budget, digits, deadline)
                if out.ok:
                    child = MctsNode(out.successor, out.decision)
                    node.children.append(child)
                    child.visits += 1
                    path.append(child)
                    decisions.append(out.decision)
                    node = child
                    if goal_test(node.state, problem.goal):
                        plan = decisions
                        return finish("solved")
                break
            if not node.children:
                break
            node = max(node.children, key=lambda ch: _ucb1(node, ch, cfg.c))
            decisions.append(node.decision)
            path.append(node)

        # rollout
        state = node.state
        reached_goal = False
        for _ in range(cfg.rollout_depth):
            out = sample_uniform(state, problem, rng, budget, digits, deadline)
            if not out.ok:
                break
            state = out.successor
            decisions.append(out.decision)
            if goal_test(state, problem.goal):
                reached_goal = True
                break
        if reached_goal:
            plan = decisions
            return finish("solved")
        reward = 1.0 / (1.0 + h_fn(state))
        for visited in path:
            visited.reward_sum += reward

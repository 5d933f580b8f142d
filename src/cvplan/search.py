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
not when generated. A node the sampler reports exhausted (a finite decision
set enumerated, or a state where no action can apply) is removed instead of
reinserted, so searches over purely finite spaces terminate. The queue,
OpenList, keeps one array of uids per queued f: f takes few distinct values,
so a queued node costs about one 4-byte slot. Duplicate successors (by
canonical state key) are discarded; uid_table finds them keeping no key,
only each node's hash, and rebuilds a node's key from the tree on a match.

run_mcts implements the baseline: UCT with progressive widening, which caps
a node's children at ceil(k * visits**alpha) so sampling can widen the tree
gradually inside an infinite decision space.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
import time
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .model import Decision, Problem, State, goal_test, make_heuristic, state_key
from .sampling import _CLOCK_EVERY, make_sampler, sample_uniform

#: priority rectifiers by CLI tag; each maps the partial-expansion counter
#: n >= 0 to a nonnegative increment with r(0) = 0
RECTIFIERS: Dict[str, Callable[[int], float]] = {
    "lin": float,
    "qua": lambda n: float(n * n),
    "log": math.log1p,
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


#: nodes per block of a SearchTree column, a power of two; node uid sits at
#: column[uid >> SHIFT][uid & MASK]
BLOCK = 4096
SHIFT, MASK = BLOCK.bit_length() - 1, BLOCK - 1


class SearchTree:
    """The best-first engine's nodes as six columns indexed by uid: 0 for
    the root, then the nodes in insertion order. Each column is a list of
    blocks of BLOCK nodes that fill by append and never move: a column
    grown as one buffer moves by realloc, and once a freed search's mmapped
    buffers have raised glibc's mmap threshold, a later search's moves
    leave holes in the heap that peak RSS keeps.

    parent (-1 at the root), g, n and trials (the sampler's trials on the
    node, over all its expansions) are array("i")s of 4-byte ints, which
    raise OverflowError past 2**31 - 1 rather than wrap; h is an array("d").
    No priority is stored: f_value(g, h, n) gives it. rows is an
    array("B") of one struct row per node, written and read bit for bit:
    the state's booleans and numerics in the problem's layout (<{b}?{n}d),
    the index of the node's action in problem.actions (i, -1 at the root)
    and the decision's values read by name, in control name order ({c}d,
    zeros at the root). So a node holds no Python object for the garbage
    collector to track. A problem whose search could leave that format
    raises ValueError naming the cause, which Problem._refusal finds once
    per problem (model.Problem normalizes the rest on construction).
    add(parent, g, h, state, decision) appends a node at n = 0 and
    trials = 0 and returns its uid; it raises KeyError, adding nothing, for
    a decision that lacks a control (an extra name is ignored). state(uid)
    and decision(uid) build node uid's state and decision.
    """

    def __init__(self, problem: Problem):
        if (cause := problem._refusal) is not None:
            raise ValueError(cause)
        names, actions, bools = problem._control_names, problem.actions, len(problem.bools)
        state_row, decision_row = (struct.Struct(f"<{bools}?{len(problem.nums)}d"),
                                   struct.Struct(f"<i{len(names)}d"))
        pack = struct.Struct(state_row.format + decision_row.format[1:]).pack
        width, at = state_row.size + decision_row.size, state_row.size
        self.parent, self.g, self.n, self.trials, self.h, self.rows = columns = (
            [], [], [], [], [], rows := [])
        #: each node's first child and next sibling, -1 for none; built by
        #: children, again once the tree has grown
        self._first, self._sibling = array("i"), array("i")
        index = {act.name: i for i, act in enumerate(actions)}
        # itemgetter returns a bare value for one name and takes no zero names
        values_of = (itemgetter(*names) if len(names) > 1 else
                     (lambda c, one=itemgetter(*names): (one(c),)) if names else lambda c: ())
        root, new, layout = (-1, (0.0,) * len(names)), object.__new__, problem.init.layout
        unpack_state, unpack_decision = state_row.unpack_from, decision_row.unpack_from

        def open_block() -> tuple:
            """Append a fresh block to every column; return add's appenders.
            Neither it nor add refers to the tree, so a dropped tree is freed
            without waiting for the cyclic collector."""
            for column, typecode in zip(columns, "iiiidB"):
                column.append(array(typecode))
            return (*(column[-1].append for column in columns[:-1]), rows[-1].frombytes)
        parents, gs, ns, trials, hs, put_row = open_block()
        size = 0

        def add(parent: int, g: int, h: float, state: State,
                decision: Optional[Decision]) -> int:
            nonlocal size, parents, gs, ns, trials, hs, put_row
            action, values = ((index[decision.action], values_of(decision.controls))
                              if decision else root)
            row = pack(*state.bool_values, *state.num_values, action, *values)
            uid = size
            if not uid & MASK and uid:
                parents, gs, ns, trials, hs, put_row = open_block()
            parents(parent)
            gs(g)
            hs(h)
            ns(0)
            trials(0)
            put_row(row)
            size = uid + 1
            return uid

        def state(uid: int) -> State:
            """Node uid's state, built afresh."""
            node, values = new(State), unpack_state(rows[uid >> SHIFT], (uid & MASK) * width)
            node.layout, node.bool_values, node.num_values = layout, values[:bools], values[bools:]
            return node

        def decision(uid: int) -> Optional[Decision]:
            """Node uid's decision, built afresh; None at the root."""
            values = unpack_decision(rows[uid >> SHIFT], (uid & MASK) * width + at)
            return None if values[0] < 0 else Decision(
                actions[values[0]].name, dict(zip(names, values[1:])))
        self.add, self.state, self.decision = add, state, decision

    def __len__(self) -> int:
        return (len(self.parent) - 1) * BLOCK + len(self.parent[-1])

    def children(self, uid: int) -> List[int]:
        """Node uid's children in insertion order. The links behind them are
        built in one pass over parent, on the first call after the tree grew."""
        size, parent = len(self), self.parent
        if len(self._first) != size:
            first, sibling = array("i", [-1]) * size, array("i", [-1]) * size
            for child in range(size - 1, 0, -1):
                up = parent[child >> SHIFT][child & MASK]
                sibling[child] = first[up]
                first[up] = child
            self._first, self._sibling = first, sibling
        kids, child = [], self._first[uid]
        while child >= 0:
            kids.append(child)
            child = self._sibling[child]
        return kids


def _column(name: str) -> property:
    """A TreeNode field that reads and writes its node's entry of a column."""
    return property(
        lambda node: getattr(node.tree, name)[node.uid >> SHIFT][node.uid & MASK],
        lambda node, value: getattr(node.tree, name)[node.uid >> SHIFT].__setitem__(
            node.uid & MASK, value))


class TreeNode:
    """View of node uid of a SearchTree, with the fields of a tree node.
    g, h, n and trials read and write the tree's columns; state,
    decision and parent (None at the root) and children (in insertion
    order) are built on each read. A uid outside range(len(tree)) raises
    IndexError."""

    __slots__ = ("tree", "uid")

    def __init__(self, tree: SearchTree, uid: int):
        if not 0 <= uid < len(tree):
            raise IndexError(f"node {uid} is not in a tree of {len(tree)} nodes")
        self.tree, self.uid = tree, uid

    g, h, n, trials = map(_column, ("g", "h", "n", "trials"))

    @property
    def state(self) -> State:
        return self.tree.state(self.uid)

    @property
    def decision(self) -> Optional[Decision]:
        return self.tree.decision(self.uid)

    @property
    def parent(self) -> Optional["TreeNode"]:
        parent = self.tree.parent[self.uid >> SHIFT][self.uid & MASK]
        return None if parent < 0 else TreeNode(self.tree, parent)

    @property
    def children(self) -> List["TreeNode"]:
        return [TreeNode(self.tree, child) for child in self.tree.children(self.uid)]


def f_value(g: int, h: float, n: int, mode: str, rect: Callable[[int], float]) -> float:
    """Node priority: h + r(n), plus the path cost g in sa mode."""
    base = h + rect(n)
    return g + base if mode == "sa" else base


class OpenList:
    """Bucket queue of uids keyed by f (Dial, CACM 1969): a dict from each
    queued f to [head, uids], the array("i") of the uids pushed at that f in
    push order, those before head popped, and a min-heap of the f values that
    have a bucket. pop takes the smallest f, and within it the earliest push.

    A bucket keeps one 4-byte slot per push since it opened, and goes, with
    its heap entry, once it empties. Every rectifier is strictly increasing,
    so a node is requeued at a larger f each time and enters a bucket at most
    once: no bucket holds more slots than the tree has nodes. A uid past
    2**31 - 1, which the tree's parent column cannot hold either, raises
    OverflowError and leaves the queue as it was."""

    def __init__(self):
        self._buckets: Dict[float, list] = {}
        self._fs: List[float] = []

    def push(self, f: float, uid: int):
        bucket = self._buckets.get(f)
        if bucket is None:
            # the array takes the uid before f enters the heap
            self._buckets[f] = [0, array("i", (uid,))]
            heapq.heappush(self._fs, f)
        else:
            bucket[1].append(uid)

    def pop(self) -> int:
        bucket = self._buckets[self._fs[0]]
        head, uids = bucket
        bucket[0] = head + 1
        if head + 1 == len(uids):
            del self._buckets[heapq.heappop(self._fs)]
        return uids[head]

    def __len__(self) -> int:
        return sum(len(uids) - head for head, uids in self._buckets.values())


def uid_table(key: Callable[[int], Hashable]) -> Callable[[Hashable], int]:
    """Duplicate detection over uids 0, 1, 2, ... keeping no key: key(uid)
    recomputes uid's key. add(k) returns the uid of an added key equal to
    k, or -1 after adding k under the next uid. The table is an array("i")
    of 4-byte uids, -1 where empty, power-of-two sized, at most two-thirds
    full (it doubles) and probed linearly from hash & mask; hashes holds
    the low 32 bits of each uid's hash in blocks of BLOCK, and keys are
    compared only where those are equal. Uids stay below 2**31, so mask
    stays below 2**32 and a stored hash places its uid as the full hash
    would. So a key costs 10 to 16 B."""
    hashes, slots, mask, size = [], array("i", [-1]) * 8, 7, 0

    def add(k: Hashable) -> int:
        nonlocal slots, mask, size
        h = hash(k) & 0xFFFFFFFF
        i = h & mask
        while (uid := slots[i]) >= 0:
            if hashes[uid >> SHIFT][uid & MASK] == h and key(uid) == k:
                return uid
            i = (i + 1) & mask
        uid = slots[i] = size
        if not uid & MASK:
            hashes.append(array("I"))
        hashes[-1].append(h)
        size = uid + 1
        if 3 * size > 2 * (mask + 1):
            mask = 2 * mask + 1
            slots = array("i", [-1]) * (mask + 1)
            for uid, h in enumerate(chain.from_iterable(hashes)):
                i = h & mask
                while slots[i] >= 0:
                    i = (i + 1) & mask
                slots[i] = uid
        return -1
    return add


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

    The nodes live in one SearchTree of the problem, whose root the result
    holds as a TreeNode view; the loop appends through its add, and the
    open list queues uids by f. A node's State is built when it is
    extracted, and a Decision only for the plan. A problem whose states
    the tree cannot hold raises ValueError.

    cfg.time_limit bounds sampling too: the samplers get the run's deadline
    and cut a call short once it has passed.

    trace, when given, is anything with an `append` method (a list, or a
    TraceCheck to check the run as it goes); it receives one tuple per event:
    ("extract", uid, f), ("goal", uid, hit), ("insert", uid, f),
    ("duplicate", uid), ("fail", uid), ("reinsert", uid, f), ("drop", uid).
    An extract event's f is recomputed from the node's g, h and n by the
    expression that queued it: f_value(g, h, n), bit for bit.
    """
    check_config(cfg)
    rng = random.Random(cfg.seed)
    h_fn = make_heuristic(problem)
    sampler = make_sampler(cfg, problem, h_fn)
    mode, rect = cfg.mode, RECTIFIERS[cfg.rectifier]
    sa, r0 = mode == "sa", rect(0)
    emit = trace.append if trace is not None else None
    clock, limit = time.perf_counter, cfg.expansion_limit or math.inf

    t0 = clock()
    deadline = t0 + cfg.time_limit
    tree = SearchTree(problem)
    add, state_at = tree.add, tree.state
    gs, hs, ns, trials = tree.g, tree.h, tree.n, tree.trials
    h0 = h_fn(problem.init)
    f0 = f_value(0, h0, 0, mode, rect)
    root = add(-1, 0, h0, problem.init, None)
    open_list = OpenList()
    push, pop = open_list.push, open_list.pop
    push(f0, root)
    seen = cfg.duplicate_detection and uid_table(lambda uid: problem._state_key(state_at(uid)))
    if seen:
        seen(state_key(problem.init, problem))

    expansions = reexpansions = 0
    peak_open = size = 1
    outcome = None
    goal_uid: Optional[int] = None

    while True:
        if not size:
            outcome = "exhausted"
            break
        if clock() > deadline:
            outcome = "timeout"
            break
        if expansions >= limit:
            outcome = "budget"
            break

        uid = pop()
        block, i = uid >> SHIFT, uid & MASK
        if emit:
            h, n = hs[block][i], ns[block][i]
            emit(("extract", uid, gs[block][i] + (h + rect(n)) if sa else h + rect(n)))

        state = state_at(uid)
        hit = goal_test(state, problem.goal)
        if emit:
            emit(("goal", uid, hit))
        if hit:
            outcome = "solved"
            goal_uid = uid
            break

        expansions += 1
        n = ns[block][i]
        if n > 0:
            reexpansions += 1

        sample = sampler(state, trials[block][i], rng, deadline)
        trials[block][i] += sample.trials
        g = gs[block][i]
        if sample.successor is not None:
            # a new key's uid in seen is the one add gives the child next
            if seen and seen(state_key(sample.successor, problem)) >= 0:
                if emit:
                    emit(("duplicate", uid))
            else:
                h = h_fn(sample.successor)
                f = g + 1 + (h + r0) if sa else h + r0
                child = add(uid, g + 1, h, sample.successor, sample.decision)
                push(f, child)
                size += 1
                if emit:
                    emit(("insert", child, f))
        else:
            if emit:
                emit(("fail", uid))

        n = ns[block][i] = n + 1
        f = g + (hs[block][i] + rect(n)) if sa else hs[block][i] + rect(n)
        if sample.exhausted:
            size -= 1
            if emit:
                emit(("drop", uid))
        else:
            push(f, uid)
            if emit:
                emit(("reinsert", uid, f))
        if size > peak_open:
            peak_open = size

    plan = reconstruct_plan(TreeNode(tree, goal_uid)) if goal_uid is not None else None
    return SearchResult(
        outcome=outcome,
        plan=plan,
        expansions=expansions,
        reexpansions=reexpansions,
        peak_open=peak_open,
        time_s=clock() - t0,
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

    - a node is extracted at the f it was last queued with. run_search
      sends f_value(g, h, n) of the node's columns as the extracted f, so
      this checks each stored g, h and n against the queued f whenever the
      node leaves the queue (a never-extracted node's f decides nothing);
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
    An integer child count is below that ceil exactly when it is below
    k * N**alpha, which the loop compares instead, so a cap beyond the float
    range is inf, not an OverflowError.
    A trial's reward is 1 when it reaches a goal (at which point the trial's
    decision prefix is returned as the plan) and 1 / (1 + h(final)) when the
    rollout is cut off. As in run_search, sampling, and a rollout every
    _CLOCK_EVERY steps, stop at the deadline that cfg.time_limit sets, and a
    problem whose actions share a name raises ValueError
    (Problem._name_clash). widen_violations, when given,
    collects (visits, child count) pairs seen above the cap; it stays empty
    unless the widening rule is broken.
    """
    check_config(cfg)
    if problem._name_clash:
        raise ValueError(problem._name_clash)
    rng = random.Random(cfg.seed)
    h_fn = make_heuristic(problem)
    budget, digits = cfg.reject_budget, cfg.grid_digits
    clock, limit = time.perf_counter, cfg.trial_limit or math.inf
    t0 = clock()
    deadline = t0 + cfg.time_limit
    root = MctsNode(problem.init, None)
    trials = 0
    plan: Optional[List[Decision]] = None

    def finish(out: str) -> SearchResult:
        return SearchResult(
            outcome=out, plan=plan, expansions=trials, reexpansions=0,
            peak_open=0, time_s=clock() - t0, root=root,
        )

    while True:
        if trials >= limit:
            return finish("budget")
        if clock() > deadline:
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
            allowed = cfg.k * node.visits ** cfg.alpha
            if len(node.children) - 1 >= allowed and widen_violations is not None:
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
        for step in range(1, cfg.rollout_depth + 1):
            if not step % _CLOCK_EVERY and clock() > deadline:
                break
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

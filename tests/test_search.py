import math
import time
import tracemalloc

import pytest

from cvplan.dsl import parse_problem
from cvplan.domains import make_counters
from cvplan.model import (
    Action, And, Cmp, Const, Decision, Effect, Problem, State, Sub, TRUE,
    Var, goal_test, replay_plan, state_key,
)
from cvplan.search import (
    RECTIFIERS, SearchConfig, SearchNode, TraceCheck, drifted_nodes, f_value,
    reconstruct_plan, run_search, solution_cost_within_bound, validate_trace,
)


def solved_goal():
    return Cmp(Sub(Var("x"), Const(-1.0)), ">=")


def impossible_problem():
    text = """(problem imp (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (> (- u u) 0)) (eff (assign x u)))
      (goal (>= (- x 1) 0)))"""
    p, diags = parse_problem(text)
    assert p is not None, diags
    return p


def finite_counter_problem(top=3, goal_at=99):
    """Zero control variables: x walks on the integers 0..top."""
    inc = Action("inc", Cmp(Sub(Var("x"), Const(float(top - 1))), "<="),
                 Effect((), (("x", Sub(Var("x"), Const(-1.0))),)))
    dec = Action("dec", Cmp(Sub(Var("x"), Const(1.0)), ">="),
                 Effect((), (("x", Sub(Var("x"), Const(1.0))),)))
    return Problem(
        name="finite", bools=(), nums=("x",), controls=(),
        actions=(inc, dec), init=State(bools={}, nums={"x": 0.0}),
        goal=Cmp(Sub(Var("x"), Const(float(goal_at))), ">="),
    )


# -- priorities ---------------------------------------------------------------

def test_f_value_examples():
    assert f_value(2, 3.0, 0, "sa", RECTIFIERS["lin"]) == 5.0
    assert f_value(0, 3.0, 2, "sg", RECTIFIERS["lin"]) == 5.0
    assert f_value(0, 0.0, 3, "sg", RECTIFIERS["log"]) == pytest.approx(
        math.log(4.0), abs=1e-12)
    assert f_value(4, 1.0, 2, "sa", RECTIFIERS["qua"]) == 9.0


def test_rectifiers_start_at_zero_and_increase():
    for rect in RECTIFIERS.values():
        assert rect(0) == 0.0
        values = [rect(n) for n in range(6)]
        assert values == sorted(values)
        assert all(b > a for a, b in zip(values, values[1:]))


# -- engine basics ------------------------------------------------------------

def test_goal_at_root():
    p = Problem("triv", (), ("x",), (), (), State(bools={}, nums={"x": 0.0}),
                solved_goal())
    result = run_search(p, SearchConfig(seed=1))
    assert result.outcome == "solved"
    assert result.plan == []
    assert result.expansions == 0
    assert result.reexpansion_rate == 0.0


def test_counters2_solved_and_replayable():
    p = make_counters(2)
    cfg = SearchConfig(mode="sg", rectifier="log",
                       sampler="uniform", seed=0,
                       expansion_limit=20000, time_limit=30.0)
    result = run_search(p, cfg)
    assert result.outcome == "solved"
    assert len(result.plan) >= 1
    end = replay_plan(p, result.plan)
    assert goal_test(end, p.goal)
    assert result.expansions >= 1
    assert result.time_s < 30.0


def test_systematic_solves_counters2():
    p = make_counters(2)
    cfg = SearchConfig(mode="sg", rectifier="log",
                       sampler="systematic", grid_digits=0,
                       seed=0, expansion_limit=20000, time_limit=30.0)
    result = run_search(p, cfg)
    assert result.outcome == "solved"
    assert goal_test(replay_plan(p, result.plan), p.goal)


def test_determinism():
    p = make_counters(2)
    cfg = SearchConfig(sampler="uniform", seed=7,
                       expansion_limit=20000, time_limit=30.0)
    a = run_search(p, cfg)
    b = run_search(p, cfg)
    assert a.outcome == b.outcome
    assert a.plan == b.plan
    assert (a.expansions, a.reexpansions, a.peak_open) == \
        (b.expansions, b.reexpansions, b.peak_open)


def test_impossible_action_hits_budget():
    p = impossible_problem()
    cfg = SearchConfig(sampler="uniform", seed=0,
                       expansion_limit=1000)
    result = run_search(p, cfg)
    assert result.outcome == "budget"
    assert result.expansions == 1000
    assert result.root.n == 1000
    assert len(result.root.children) == 0
    assert result.reexpansions == 999
    assert result.reexpansion_rate == pytest.approx(99.9)


@pytest.mark.parametrize("sampler", ["uniform", "heuristic"])
def test_dead_root_is_dropped(sampler):
    """A state where no action passes its state test has no decision to
    draw: its node is dropped on its first extraction."""
    p, diags = parse_problem("""(problem dead (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (and (<= (- u 1) 0) (>= (- x 1) 0))) (eff (assign x u)))
      (goal (>= (- x 1) 0)))""")
    assert p is not None, diags
    events = []
    result = run_search(p, SearchConfig(sampler=sampler, seed=0, expansion_limit=1000),
                        trace=events)
    assert (result.outcome, result.expansions) == ("exhausted", 1)
    assert result.root.trials == 0 and len(result.root.children) == 0
    assert events[-2:] == [("fail", 0), ("drop", 0)]
    assert validate_trace(events, "log") == []


@pytest.mark.parametrize("mode,sampler", [("sg", "uniform"), ("sg", "heuristic"),
                                          ("sg", "systematic"), ("sa", "uniform")])
def test_time_limit_cuts_a_sampling_call_short(mode, sampler):
    """A sampling call of up to a billion trials ends at the run's deadline."""
    cfg = SearchConfig(mode=mode, sampler=sampler, seed=0, time_limit=0.3,
                       reject_budget=10 ** 9)
    t0 = time.perf_counter()
    result = run_search(impossible_problem(), cfg)
    assert result.outcome == "timeout"
    assert result.expansions == 1
    assert time.perf_counter() - t0 < 0.3 + 0.5


def test_config_validation():
    p = make_counters(2)
    with pytest.raises(ValueError):
        run_search(p, SearchConfig(mode="nope"))
    with pytest.raises(ValueError):
        run_search(p, SearchConfig(rectifier="cubic"))
    with pytest.raises(ValueError):
        run_search(p, SearchConfig(time_limit=0.0))
    with pytest.raises(ValueError):
        run_search(p, SearchConfig(expansion_limit=0))


# -- finite spaces -------------------------------------------------------------

def bfs_reachable(problem):
    frontier = [problem.init]
    seen = {state_key(problem.init, problem): problem.init}
    while frontier:
        state = frontier.pop()
        for action in problem.actions:
            from cvplan.model import try_apply
            succ = try_apply(state, action, {})
            if succ is None:
                continue
            key = state_key(succ, problem)
            if key not in seen:
                seen[key] = succ
                frontier.append(succ)
    return seen


def test_finite_space_exhausts_and_matches_bfs():
    p = finite_counter_problem(top=3)
    cfg = SearchConfig(mode="sg", rectifier="lin",
                       sampler="systematic", grid_digits=0,
                       seed=0, time_limit=10.0)
    result = run_search(p, cfg)
    assert result.outcome == "exhausted"
    generated = {}
    stack = [result.root]
    while stack:
        node = stack.pop()
        generated[state_key(node.state, p)] = node.state
        stack.extend(node.children)
    oracle = bfs_reachable(p)
    assert set(generated.keys()) == set(oracle.keys())
    assert len(generated) == 4  # x in {0, 1, 2, 3}


def test_duplicate_detection_off_keeps_growing():
    p = finite_counter_problem(top=3)
    base = dict(mode="sg", rectifier="lin",
                sampler="systematic", grid_digits=0, seed=0)
    with_dup = run_search(p, SearchConfig(**base, time_limit=10.0))
    without = run_search(p, SearchConfig(**base, duplicate_detection=False,
                                         expansion_limit=200))
    assert with_dup.outcome == "exhausted"
    assert without.outcome == "budget"


# -- trace ---------------------------------------------------------------------

def run_traced(expansion_limit=400, **overrides):
    p = make_counters(2)
    cfg = SearchConfig(mode="sg", rectifier="log",
                       sampler="uniform", seed=3,
                       expansion_limit=expansion_limit, time_limit=30.0)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    trace = []
    result = run_search(p, cfg, trace=trace)
    return p, result, trace


def test_trace_is_structurally_valid():
    _, result, trace = run_traced()
    assert validate_trace(trace, "log") == []
    extracts = [e for e in trace if e[0] == "extract"]
    goals = [e for e in trace if e[0] == "goal"]
    assert len(extracts) == len(goals)
    inserts = [e for e in trace if e[0] == "insert"]
    reinserts = [e for e in trace if e[0] == "reinsert"]
    # every extraction except a terminal goal hit reinserts (no finite drops
    # in this purely continuous problem)
    terminal_hits = 1 if result.outcome == "solved" else 0
    assert len(reinserts) == len(extracts) - terminal_hits
    assert len(inserts) <= len(extracts)


def test_trace_validator_flags_corruption():
    _, _, trace = run_traced(expansion_limit=50)
    # goal test claimed on a different node
    bad = list(trace)
    idx = next(i for i, e in enumerate(bad) if e[0] == "goal")
    bad[idx] = ("goal", bad[idx][1] + 999, bad[idx][2])
    assert validate_trace(bad, "log")
    # dropped reinsert
    bad2 = [e for e in trace if e[0] != "reinsert"]
    assert validate_trace(bad2, "log")
    # non-increasing reinsert priority
    bad3 = list(trace)
    idx3 = next(i for i, e in enumerate(bad3) if e[0] == "reinsert")
    extract_f = next(e[2] for e in bad3 if e[0] == "extract")
    bad3[idx3] = ("reinsert", bad3[idx3][1], extract_f - 1.0)
    assert validate_trace(bad3, "log")
    # a trace cut off mid-iteration
    assert validate_trace(trace[:2], "log")


def test_heap_property_via_shadow():
    _, _, trace = run_traced(expansion_limit=600)
    shadow = {}
    for event in trace:
        kind = event[0]
        if kind in ("insert", "reinsert"):
            shadow[event[1]] = event[2]
        elif kind == "extract":
            uid, f = event[1], event[2]
            if shadow:  # the root's initial insertion predates the trace
                assert f <= min(shadow.values()) + 1e-15
            if uid in shadow:
                assert shadow[uid] == f
                del shadow[uid]


# -- subtree bound ---------------------------------------------------------------

@pytest.mark.parametrize("mode", ["sg", "sa"])
@pytest.mark.parametrize("rectifier", ["lin", "log"])
@pytest.mark.parametrize("sampler_kind", ["systematic", "uniform"])
def test_subtree_bound_holds_on_runs(mode, rectifier, sampler_kind):
    p = make_counters(2)
    cfg = SearchConfig(mode=mode, rectifier=rectifier,
                       sampler=sampler_kind, grid_digits=3,
                       seed=11, expansion_limit=300, time_limit=30.0)
    check = TraceCheck(rectifier)
    result = run_search(p, cfg, trace=check)
    assert result.expansions > 0
    assert check.finish() == []


def test_subtree_bound_checker_catches_corruption():
    # root queued at 5, reinserted at 5 + r_lin(1) = 6 after generating a
    # child at f 10; the child is then extracted at 10, above its root
    head = [("extract", 0, 5.0), ("goal", 0, False), ("insert", 1, 10.0)]
    tail = [("extract", 1, 10.0), ("goal", 1, False), ("fail", 1),
            ("reinsert", 1, 11.0)]
    assert len(validate_trace(head + [("reinsert", 0, 6.0)] + tail,
                              "lin")) == 1
    # a dropped ancestor is not an anchor
    assert validate_trace(head + [("drop", 0)] + tail, "lin") == []
    # a reinsertion off f0 + r(n) is a drifted priority
    assert validate_trace(head + [("reinsert", 0, 6.5)], "lin")


def test_drifted_nodes_flags_a_stale_f():
    p = make_counters(2)
    cfg = SearchConfig(mode="sa", rectifier="log", seed=3,
                       expansion_limit=200)
    result = run_search(p, cfg)
    assert drifted_nodes(result.root, cfg) == []
    child = result.root.children[0]
    child.f += 0.5
    assert len(drifted_nodes(result.root, cfg)) == 1


def test_reconstruct_plan_orders_decisions():
    root = SearchNode(0, State(bools={}, nums={"x": 0.0}), 0, 0.0,
                      None, None)
    mid = SearchNode(1, State(bools={}, nums={"x": 1.0}), 1, 0.0,
                     root, Decision("first", {"u": 1.0}))
    leaf = SearchNode(2, State(bools={}, nums={"x": 2.0}), 2, 0.0,
                      mid, Decision("second", {"u": 0.5}))
    assert reconstruct_plan(root) == []
    assert reconstruct_plan(leaf) == [
        Decision("first", {"u": 1.0}), Decision("second", {"u": 0.5})]


# -- solution cost bound ----------------------------------------------------------

def test_solution_bound_on_sa_runs():
    p = make_counters(2)
    for seed in range(3):
        cfg = SearchConfig(mode="sa", rectifier="log",
                           sampler="uniform", seed=seed,
                           expansion_limit=20000, time_limit=30.0)
        result = run_search(p, cfg)
        assert result.outcome == "solved"
        assert solution_cost_within_bound(result, result.root, cfg)
        bound = result.root.h + RECTIFIERS["log"](result.root.n)
        assert len(result.plan) <= bound + 1e-9


def test_solution_bound_negative_and_mode_guard():
    p = make_counters(2)
    cfg = SearchConfig(mode="sa", rectifier="log",
                       sampler="uniform", seed=0,
                       expansion_limit=20000, time_limit=30.0)
    result = run_search(p, cfg)
    # corrupt: pretend the root was never re-expanded and had a zero estimate
    fake_root = SearchNode(0, p.init, 0, 0.0, None, None)
    if len(result.plan) > 0:
        assert not solution_cost_within_bound(result, fake_root, cfg)
    with pytest.raises(ValueError):
        solution_cost_within_bound(result, result.root,
                                   SearchConfig(mode="sg"))
    unsolved = run_search(impossible_problem(),
                          SearchConfig(mode="sa", expansion_limit=5))
    with pytest.raises(ValueError):
        solution_cost_within_bound(unsolved, unsolved.root, cfg)


def test_node_memory_guard():
    """The memory a best-first search keeps per tree node, every node queued
    with its state: counters-6, sa-log, seed 0, 20 000 expansions."""
    cfg = SearchConfig(mode="sa", rectifier="log", seed=0, expansion_limit=20_000,
                       time_limit=120.0)
    tracemalloc.start()
    try:
        result = run_search(make_counters(6), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes, stack = 0, [result.root]
    while stack:
        nodes += 1
        stack.extend(stack.pop().children)
    assert result.expansions == 20_000
    assert peak / nodes <= 900, (peak, nodes)

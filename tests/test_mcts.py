import math
import time

import pytest

from cvplan.domains import make_counters, make_sailing
from cvplan.dsl import parse_problem
from cvplan.model import Problem, State, goal_test, replay_plan
from cvplan.search import MctsConfig, run_mcts


def trivial_problem():
    text = """(problem triv (bools) (nums (x 1.0)) (controls)
      (goal (>= (- x 1) 0)))"""
    p, diags = parse_problem(text)
    assert p is not None, diags
    return p


def hopeless_problem():
    # the rescue band sits far beyond what 50 rollout steps can reach
    return make_sailing(1, 1, d_values=[100000.0])


def test_goal_at_root_first_trial():
    result = run_mcts(trivial_problem(), MctsConfig(seed=0, trial_limit=10))
    assert result.outcome == "solved"
    assert result.plan == []
    assert result.expansions == 1  # one trial


def test_goal_at_first_widened_child():
    """A child that is a goal ends the trial at once: its one decision is
    the plan, with no rollout step after it."""
    text = """(problem one (bools) (nums (x 0.0)) (controls (u 1 2))
      (action a (pre (and)) (eff (assign x (+ x u))))
      (goal (>= (- x 1) 0)))"""
    p, diags = parse_problem(text)
    assert p is not None, diags
    result = run_mcts(p, MctsConfig(seed=0, trial_limit=10))
    assert result.outcome == "solved"
    assert [d.action for d in result.plan] == ["a"]
    assert result.expansions == 1
    assert [child.decision for child in result.root.children] == result.plan
    assert goal_test(replay_plan(p, result.plan), p.goal)


def test_counters2_solved_and_replayable():
    p = make_counters(2)
    cfg = MctsConfig(seed=4, trial_limit=20000, time_limit=30.0)
    result = run_mcts(p, cfg)
    assert result.outcome == "solved"
    assert len(result.plan) >= 1
    assert goal_test(replay_plan(p, result.plan), p.goal)


def test_determinism():
    p = make_counters(2)
    cfg = MctsConfig(seed=9, trial_limit=20000, time_limit=30.0)
    a = run_mcts(p, cfg)
    b = run_mcts(p, cfg)
    assert a.outcome == b.outcome
    assert a.plan == b.plan
    assert a.expansions == b.expansions


def test_trial_budget():
    result = run_mcts(hopeless_problem(),
                      MctsConfig(seed=0, trial_limit=200, time_limit=30.0))
    assert result.outcome == "budget"
    assert result.expansions == 200
    assert result.plan is None


def test_time_limit_cuts_a_sampling_call_short():
    """A sampling call of up to a billion trials ends at the run's deadline."""
    text = """(problem imp (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (> (- u u) 0)) (eff (assign x u)))
      (goal (>= (- x 1) 0)))"""
    p, diags = parse_problem(text)
    assert p is not None, diags
    t0 = time.perf_counter()
    result = run_mcts(p, MctsConfig(seed=0, time_limit=0.3, reject_budget=10 ** 9))
    assert result.outcome == "timeout"
    assert result.expansions == 1
    assert time.perf_counter() - t0 < 0.3 + 0.5


def test_time_limit_cuts_a_rollout_short():
    """A rollout of a million steps, each a successful draw, ends at the
    run's deadline."""
    p = make_sailing(1, 1, d_values=[1e9])
    t0 = time.perf_counter()
    result = run_mcts(p, MctsConfig(seed=0, time_limit=0.3, rollout_depth=10 ** 6))
    assert result.outcome == "timeout"
    assert result.expansions == 1
    assert time.perf_counter() - t0 < 0.3 + 0.5


def test_widening_cap_beyond_float_range():
    """k * N**alpha is inf from the eighth visit on: the root widens on every
    trial, and no ceil of it raises OverflowError."""
    violations = []
    result = run_mcts(make_counters(6), MctsConfig(k=1e308, trial_limit=500),
                      widen_violations=violations)
    assert result.outcome == "budget"
    assert len(result.root.children) == result.root.visits == 500
    assert violations == []


def test_progressive_widening_cap():
    violations = []
    p = hopeless_problem()
    cfg = MctsConfig(seed=2, trial_limit=1500, time_limit=60.0)
    result = run_mcts(p, cfg, widen_violations=violations)
    assert result.outcome == "budget"
    assert violations == []


def test_widening_allows_one_child_at_first_visit():
    # ceil(1 ** 0.3) == 1 and ceil(100 ** 0.3) == 4: the cap the loop applies
    assert math.ceil(1 ** 0.3) == 1
    assert math.ceil(100 ** 0.3) == 4


def test_config_validation():
    p = make_counters(2)
    for bad in (
        MctsConfig(alpha=0.0),
        MctsConfig(alpha=1.0),
        MctsConfig(c=0.0),
        MctsConfig(k=0.0),
        MctsConfig(k=math.inf),
        MctsConfig(c=math.nan),
        MctsConfig(rollout_depth=-1),
        MctsConfig(time_limit=0.0),
        MctsConfig(reject_budget=0),
    ):
        bad.trial_limit = 1
        with pytest.raises(ValueError):
            run_mcts(p, bad)
    for limit in (0, -3):
        with pytest.raises(ValueError, match="trial_limit"):
            run_mcts(p, MctsConfig(trial_limit=limit))


def test_tree_respects_final_visit_caps():
    violations = []
    p = make_sailing(1, 1, d_values=[300.0])
    cfg = MctsConfig(seed=5, trial_limit=2000, time_limit=60.0)
    result = run_mcts(p, cfg, widen_violations=violations)
    assert violations == []
    # children are only added below the cap and visits never decrease, so the
    # final tree must satisfy the cap at its final visit counts as well
    stack = [result.root]
    seen = 0
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        seen += 1
        assert len(node.children) <= math.ceil(cfg.k * node.visits ** cfg.alpha)
    assert seen > 1
    assert result.root.visits == 2000

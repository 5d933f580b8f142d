import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from cvplan import sampling
from cvplan.domains import default_ladder, generate
from cvplan.dsl import parse_problem
from cvplan.search import MODES, MctsConfig, SearchConfig, run_mcts, run_search
from cvplan.model import (
    Action, And, Cmp, Const, ControlVarSpec, Effect, Problem, State, Sub,
    TRUE, Var, liveness, make_heuristic, replay_plan, try_apply,
)
from cvplan.sampling import (
    SAMPLER_KINDS, dyadic_tuple, dyadic_value,
    heuristic_pick, heuristic_weights, make_sampler, sample_heuristic,
    sample_systematic, sample_uniform, snap,
)

COUNTERS_2 = """\
(problem counters-2
  (bools)
  (nums (c0 0.0) (c1 0.0))
  (controls (u 0 1))
  (action inc-c0 (pre (<= (+ c0 u) 10)) (eff (assign c0 (+ c0 u))))
  (action dec-c0 (pre (>= (- c0 u) 0))  (eff (assign c0 (- c0 u))))
  (action inc-c1 (pre (<= (+ c1 u) 10)) (eff (assign c1 (+ c1 u))))
  (action dec-c1 (pre (>= (- c1 u) 0))  (eff (assign c1 (- c1 u))))
  (goal (and (>= (- c1 (+ c0 1)) 0))))
"""


def counters():
    p, diags = parse_problem(COUNTERS_2)
    assert p is not None, diags
    return p


def no_control_problem(n_actions=2, applicable_all=True):
    pre = TRUE if applicable_all else Cmp(Sub(Var("x"), Var("x")), ">")
    actions = tuple(
        Action(f"a{i}", pre, Effect((), (("x", Add_x(i)),)))
        for i in range(n_actions)
    )
    return Problem("nc", (), ("x",), (), actions,
                   State(bools={}, nums={"x": 0.0}), TRUE)


def Add_x(i):
    from cvplan.model import Add
    return Add(Var("x"), Const(float(i + 1)))


# -- dyadic sequence ---------------------------------------------------------

def test_dyadic_value_prefix():
    want = [0.0, 1.0, 1 / 2, 1 / 4, 3 / 4, 1 / 8, 3 / 8, 5 / 8, 7 / 8,
            1 / 16, 3 / 16, 5 / 16, 7 / 16, 9 / 16, 11 / 16, 13 / 16, 15 / 16]
    assert [dyadic_value(i) for i in range(17)] == want


def test_dyadic_value_covers_each_level_exactly_once():
    seen = [Fraction(dyadic_value(i)) for i in range(2 ** 10 + 1)]
    assert len(set(seen)) == len(seen)
    # after 2**L + 1 entries every multiple of 2**-L in [0, 1] has appeared
    for level in range(0, 11):
        prefix = set(seen[: 2 ** level + 1])
        grid = {Fraction(k, 2 ** level) for k in range(2 ** level + 1)}
        assert prefix == grid
    with pytest.raises(ValueError):
        dyadic_value(-1)


def test_dyadic_tuple_one_dim_is_identity():
    assert [dyadic_tuple(1, t) for t in range(9)] == [(i,) for i in range(9)]


def test_dyadic_tuple_two_dims_diagonal():
    got = [dyadic_tuple(2, t) for t in range(17)]
    level0 = [(0, 0), (0, 1), (1, 0), (1, 1)]
    level1 = [(0, 2), (1, 2), (2, 0), (2, 1)]
    level2 = [(0, 3), (0, 4), (1, 3), (1, 4), (2, 2),
              (3, 0), (3, 1), (4, 0), (4, 1)]
    assert got == level0 + level1 + level2
    # total refinement level is monotone along the enumeration
    def total(idx):
        return sum(0 if j <= 1 else (j - 1).bit_length() for j in idx)
    totals = [total(dyadic_tuple(2, t)) for t in range(200)]
    assert totals == sorted(totals)


def test_dyadic_tuple_distinct():
    seen = {dyadic_tuple(3, t) for t in range(500)}
    assert len(seen) == 500
    assert dyadic_tuple(0, 0) == ()
    with pytest.raises(IndexError):
        dyadic_tuple(0, 1)


def test_snap():
    assert snap(0.123449, 3) == 0.123
    assert snap(0.12345, 0) == 0.12345
    assert snap(-0.9996, 3) == -1.0
    assert snap(2.0, 3) == 2.0
    # grids finer than the float range leave the value as it is
    assert snap(5.0, 308) == 5.0
    assert snap(1.5, 400) == 1.5
    # a precomputed scale gives the same grid
    for value in (0.123449, -0.9996, 0.0005, -0.0005, 1e300):
        assert snap(value, 3, 1000) == snap(value, 3)


# -- systematic --------------------------------------------------------------

def test_systematic_first_decisions_round_robin():
    p = counters()
    s = State(bools={}, nums={"c0": 5.0, "c1": 5.0})  # everything applicable
    trials = 0
    got = []
    for _ in range(8):
        out = sample_systematic(s, trials, p)
        trials += out.trials
        assert out.ok
        got.append((out.decision.action, out.decision.controls["u"]))
    assert got == [
        ("inc-c0", 0.0), ("dec-c0", 0.0), ("inc-c1", 0.0), ("dec-c1", 0.0),
        ("inc-c0", 1.0), ("dec-c0", 1.0), ("inc-c1", 1.0), ("dec-c1", 1.0),
    ]
    assert trials == 8
    out = sample_systematic(s, trials, p)
    assert (out.decision.action, out.decision.controls["u"]) == ("inc-c0", 0.5)


def test_systematic_from_init_skips_impossible_decrements():
    p = counters()
    trials = 0
    got = []
    for _ in range(6):
        out = sample_systematic(p.init, trials, p)
        trials += out.trials
        assert out.ok
        got.append((out.decision.action, out.decision.controls["u"]))
    # dec-c0/dec-c1 with u=1 are inapplicable at the all-zero initial state
    assert got == [
        ("inc-c0", 0.0), ("dec-c0", 0.0), ("inc-c1", 0.0), ("dec-c1", 0.0),
        ("inc-c0", 1.0), ("inc-c1", 1.0),
    ]
    assert trials == 7


def test_systematic_skips_inapplicable():
    p = counters()
    # from a state with c0 high, inc-c0 with u=... stays applicable; craft a
    # state where dec actions with u > 0 are the only inapplicable ones
    s = State(bools={}, nums={"c0": 10.0, "c1": 0.0})
    trials = 0
    seen = []
    for _ in range(6):
        out = sample_systematic(s, trials, p)
        trials += out.trials
        assert out.ok
        seen.append((out.decision.action, out.decision.controls["u"]))
    # i=0: inc-c0 u=0 ok (10+0<=10); i=1: dec-c0 u=0 ok; i=2: inc-c1 u=0 ok;
    # i=3: dec-c1 u=0 ok; i=4: inc-c0 u=1 fails (11>10) -> skipped;
    # i=5: dec-c0 u=1 ok
    assert seen == [
        ("inc-c0", 0.0), ("dec-c0", 0.0), ("inc-c1", 0.0), ("dec-c1", 0.0),
        ("dec-c0", 1.0), ("inc-c1", 1.0),
    ]
    assert trials == 7  # one extra trial past the failure
    assert seen.count(("inc-c0", 1.0)) == 0


def test_systematic_resumes_from_start():
    """A call from start = k draws what a fresh sampler draws after k trials:
    the first applicable decision numbered k or more."""
    text = """(problem t (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (>= (- u 0.9) 0)) (eff (assign x u)))
      (goal (and)))"""
    p, _ = parse_problem(text)
    for k in range(40):
        i = next(i for i in itertools.count(k) if dyadic_value(i) >= 0.9)
        out = sample_systematic(p.init, k, p)
        assert (out.decision.controls["u"], out.trials) == (dyadic_value(i), i + 1 - k)


def test_systematic_successor_matches_model():
    p = counters()
    out = sample_systematic(p.init, 0, p)
    expect = try_apply(p.init, p.action_by_name(out.decision.action),
                       out.decision.controls)
    assert out.successor == expect


def test_systematic_budget_failure_is_not_exhaustion():
    text = """(problem imp (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (> (- x x) 0)) (eff (assign x u)))
      (goal (and)))"""
    p, _ = parse_problem(text)
    out = sample_systematic(p.init, 0, p, budget=50)
    assert not out.ok
    assert out.trials == 50
    assert not out.exhausted


def test_systematic_finite_exhaustion():
    p = no_control_problem(n_actions=2)
    out1 = sample_systematic(p.init, 0, p)
    assert out1.ok and out1.decision.action == "a0" and not out1.exhausted
    out2 = sample_systematic(p.init, out1.trials, p)
    assert out2.ok and out2.decision.action == "a1" and out2.exhausted
    out3 = sample_systematic(p.init, out1.trials + out2.trials, p)
    assert not out3.ok and out3.exhausted and out3.trials == 0


def test_systematic_grid_snap():
    text = """(problem g (bools) (nums (x 0.0)) (controls (u 0 3))
      (action a (pre (and)) (eff (assign x u)))
      (goal (and)))"""
    p, _ = parse_problem(text)
    trials = 0
    values = []
    for _ in range(9):
        out = sample_systematic(p.init, trials, p, grid_digits=2)
        trials += out.trials
        values.append(out.decision.controls["u"])
    # 3 * dyadic sequence snapped to 0.01 grid, halves away from zero
    assert values == [0.0, 3.0, 1.5, 0.75, 2.25, 0.38, 1.13, 1.88, 2.63]


# -- uniform ------------------------------------------------------------------

def test_uniform_deterministic_under_seed():
    p = counters()
    a = sample_uniform(p.init, p, random.Random(42))
    b = sample_uniform(p.init, p, random.Random(42))
    assert a.decision == b.decision
    assert a.successor == b.successor
    assert a.trials == b.trials


def test_uniform_respects_bounds_and_model():
    text = """(problem b (bools) (nums (x 0.0)) (controls (u -2 5) (v 0 1))
      (action a (pre (and)) (eff (assign x (+ u v))))
      (goal (and)))"""
    p, _ = parse_problem(text)
    rng = random.Random(7)
    for _ in range(200):
        out = sample_uniform(p.init, p, rng)
        assert out.ok and out.trials == 1
        mu = out.decision.controls
        assert -2.0 <= mu["u"] <= 5.0
        assert 0.0 <= mu["v"] <= 1.0
        assert out.successor.nums["x"] == mu["u"] + mu["v"]


def test_uniform_budget_exhaustion():
    text = """(problem imp (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (> (- u u) 0)) (eff (assign x u)))
      (goal (and)))"""
    p, _ = parse_problem(text)
    out = sample_uniform(p.init, p, random.Random(0), budget=37)
    assert not out.ok
    assert out.trials == 37
    assert not out.exhausted


def test_uniform_counts_rejections():
    # one action applicable only when u <= 0.5: expect some rejections
    text = """(problem r (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (<= (- u 0.5) 0)) (eff (assign x u)))
      (goal (and)))"""
    p, _ = parse_problem(text)
    rng = random.Random(3)
    trials = [sample_uniform(p.init, p, rng).trials for _ in range(300)]
    assert all(t >= 1 for t in trials)
    assert max(t for t in trials) > 1
    # geometric with p=1/2: average around 2
    assert 1.5 < sum(trials) / len(trials) < 2.6


def reference_uniform(state, problem, rng, budget, digits):
    """The rejection loop before state tests: every draw takes
    rng.randrange over the actions and rng.uniform per control, snaps, and
    checks the precondition. Returns (action name, controls, trials), or
    (None, None, budget) when the budget runs out."""
    for trial in range(1, budget + 1):
        action = problem.actions[rng.randrange(len(problem.actions))]
        mu = {spec.name: snap(rng.uniform(spec.lower, spec.upper), digits)
              for spec in problem.controls}
        if try_apply(state, action, mu) is not None:
            return action.name, mu, trial
    return None, None, budget


#: preconditions that each read a control, so that no state test rejects
#: a draw and the sampler must draw what reference_uniform draws
CONTROL_PRES = ["(<= (- u v) 0)", "(>= (- u 4.5) 0)", "(<= (- (* u u) 4) 0)",
                "(>= (+ u v) 9)", "(<= (- v 0.5) 0)"]


@pytest.mark.parametrize("digits", [0, 3, 14, 16, 308, 400])
def test_uniform_draws_what_random_uniform_draws(digits):
    """The rng calls, in order, of the loop the sampler spells out. With 1,
    3 and 5 actions the spelled-out randrange must redraw; on this +-10 box
    inline snapping stops short of 16 digits, and value * 10**308 is beyond
    the float range for most values."""
    for n_actions in (1, 2, 3, 5):
        actions = "".join(f"(action a{i} (pre {pre}) (eff (assign x u)))"
                          for i, pre in enumerate(CONTROL_PRES[:n_actions]))
        p, diags = parse_problem("(problem r (bools) (nums (x 0.0)) "
                                 f"(controls (u -10 10) (v 0 1)) {actions} (goal (and)))")
        assert p is not None, diags
        got, want = random.Random(5), random.Random(5)
        for _ in range(300):
            out = sample_uniform(p.init, p, got, budget=3, grid_digits=digits)
            name = out.decision.action if out.ok else None
            mu = out.decision.controls if out.ok else None
            assert (name, mu, out.trials) == reference_uniform(p.init, p, want, 3, digits)
        assert got.random() == want.random()


# chi-square critical value, 2 degrees of freedom, significance 0.01
CHI2_CRIT_DF2 = 9.210

#: dead (x >= 1 fails at x = 0, whatever u), partly applicable (u <= 0.3)
#: and always applicable actions
DEAD_PARTLY_ALWAYS = """(problem law (bools) (nums (x 0.0)) (controls (u 0 1))
  (action dead (pre (and (<= (- u 0.5) 0) (>= (- x 1) 0))) (eff (assign x u)))
  (action partly (pre (<= (- u 0.3) 0)) (eff (assign x u)))
  (action always (pre (and)) (eff (assign x u)))
  (goal (and)))"""


def reference_systematic(state, start, problem, budget, digits):
    """The systematic loop before liveness: every decision index draws its
    controls with snap and has its precondition checked. Returns (decision,
    trials, exhausted), the decision as (action name, repr of controls) or
    None."""
    n_actions, dims = len(problem.actions), len(problem.controls)
    for trials in range(budget):
        i = start + trials
        if n_actions == 0 or (dims == 0 and i >= n_actions):
            return None, trials, True
        action = problem.actions[i % n_actions]
        mu = {spec.name: snap(float(spec.lower) + dyadic_value(j) * float(spec.upper - spec.lower),
                              digits)
              for spec, j in zip(problem.controls, dyadic_tuple(dims, i // n_actions))}
        if try_apply(state, action, mu) is not None:
            return (action.name, repr(mu)), trials + 1, dims == 0 and i + 1 >= n_actions
    return None, budget, False


@pytest.mark.parametrize("digits", [0, 2, 14, 15, 16, 308, 400])
def test_systematic_draws_what_the_reference_loop_draws(digits, monkeypatch):
    """Same decisions, trials and exhaustion as reference_systematic from
    every start up to 60, with no precondition checked for a dead action's
    index. On the +-10 box, 14 digits snap inline and 15 through snap."""
    actions = "".join(f"(action a{i} (pre {pre}) (eff (assign x u)))"
                      for i, pre in enumerate(CONTROL_PRES))
    two, diags = parse_problem("(problem r (bools) (nums (x 0.0)) "
                               f"(controls (u -10 10) (v 0 1)) {actions} (goal (and)))")
    assert two is not None, diags
    law, diags = parse_problem(DEAD_PARTLY_ALWAYS)
    assert law is not None, diags
    calls = []
    monkeypatch.setattr(sampling, "try_apply",
                        lambda *args: calls.append(1) or try_apply(*args))
    for p in (two, law):
        alive = liveness(p.init, p)
        for start in range(61):
            calls.clear()
            out = sample_systematic(p.init, start, p, budget=4, grid_digits=digits)
            got = (out.decision.action, repr(out.decision.controls)) if out.ok else None
            assert (got, out.trials, out.exhausted) == reference_systematic(
                p.init, start, p, 4, digits)
            dead = sum(not alive[i % len(alive)] for i in range(start, start + out.trials))
            assert len(calls) == out.trials - dead


def test_uniform_keeps_the_law_of_the_rejection_loop():
    """Chi-square homogeneity of the call outcome (the accepted action, or
    failure) between sample_uniform and reference_uniform, which checks the
    dead action's precondition on each draw of it."""
    p, diags = parse_problem(DEAD_PARTLY_ALWAYS)
    assert p is not None, diags
    calls, budget = 10_000, 2
    rng_got, rng_want = random.Random(0), random.Random(1)
    got, want = Counter(), Counter()
    for _ in range(calls):
        out = sample_uniform(p.init, p, rng_got, budget, 3)
        got[out.decision.action if out.ok else None] += 1
        want[reference_uniform(p.init, p, rng_want, budget, 3)[0]] += 1
    assert set(got) == set(want) == {"partly", "always", None}
    chi2 = 0.0
    for outcome in got:
        expected = (got[outcome] + want[outcome]) / 2     # equal sample sizes
        chi2 += ((got[outcome] - expected) ** 2 + (want[outcome] - expected) ** 2) / expected
    assert chi2 < CHI2_CRIT_DF2, (chi2, got, want)


def test_uniform_dead_state_is_exhausted():
    """With no action that can apply, the call is exhausted at once: no
    trial, and the rng untouched."""
    p, _ = parse_problem("""(problem dead (bools) (nums (x 0.0)) (controls (u 0 1))
      (action far (pre (and (<= (- u 0.5) 0) (>= (- x 1) 0))) (eff (assign x u)))
      (action near (pre (and (<= (- u 0.3) 0) (> x 0))) (eff (assign x u)))
      (goal (and)))""")
    rng = random.Random(3)
    before = rng.getstate()
    out = sample_uniform(p.init, p, rng)
    assert (out.ok, out.trials, out.exhausted) == (False, 0, True)
    assert rng.getstate() == before
    out = sample_heuristic(p.init, p, make_heuristic(p), rng)
    assert (out.ok, out.trials, out.exhausted) == (False, 0, True)
    assert rng.getstate() == before
    # where one action can apply, the call draws as usual
    live = State(bools={}, nums={"x": 0.5})
    out = sample_uniform(live, p, rng)
    assert out.ok and not out.exhausted and out.decision.action == "near"


def test_deadline_cuts_sampling_short():
    text = """(problem imp (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (> (- u u) 0)) (eff (assign x u)))
      (goal (and)))"""
    p, _ = parse_problem(text)
    h = make_heuristic(p)
    past = time.perf_counter() - 1.0
    calls = [
        lambda deadline: sample_uniform(p.init, p, random.Random(0), 10 ** 9, 3, deadline),
        lambda deadline: sample_systematic(p.init, 0, p, 10 ** 9, 3, deadline),
        lambda deadline: sample_heuristic(p.init, p, h, random.Random(0), 10 ** 9, 3,
                                          candidates=5, deadline=deadline),
    ]
    for call in calls:
        out = call(past)
        assert not out.ok and 0 < out.trials < 1000
    # a deadline far off draws what no deadline draws
    p = counters()
    a = sample_uniform(p.init, p, random.Random(1), 50, 3, time.perf_counter() + 600)
    b = sample_uniform(p.init, p, random.Random(1), 50, 3)
    assert (a.decision, a.trials) == (b.decision, b.trials)


def test_uniform_no_actions_fails():
    p = Problem("e", (), ("x",), (), (), State(bools={}, nums={"x": 0.0}), TRUE)
    out = sample_uniform(p.init, p, random.Random(0))
    assert not out.ok and out.trials == 0 and out.exhausted


# -- heuristic-guided ---------------------------------------------------------

def test_heuristic_weights():
    w = heuristic_weights([0.0, 1.0, 3.0], beta=1.0, eps=1.0)
    assert w == [1.0, 0.5, 0.25]
    w2 = heuristic_weights([1.0, 3.0], beta=2.0, eps=1.0)
    assert w2 == [1.0, 0.25]
    # unscaled, (1 / (0 + 1e-6)) ** 60 overflows
    assert heuristic_weights([0.0, 1.0], beta=60.0) == [1.0, 0.0]
    assert heuristic_weights([0.0, 1.0], beta=-60.0) == [0.0, 1.0]


def test_heuristic_pick_prefers_low_h():
    rng = random.Random(11)
    picks = [heuristic_pick([0.0, 5.0], rng) for _ in range(500)]
    assert picks.count(0) > 490


def test_heuristic_pick_uniform_on_plateau():
    rng = random.Random(12)
    picks = [heuristic_pick([2.0, 2.0], rng) for _ in range(2000)]
    share = picks.count(0) / 2000
    assert 0.4 < share < 0.6


def test_sample_heuristic_valid_and_deterministic():
    p = counters()
    h = make_heuristic(p)
    a = sample_heuristic(p.init, p, h, random.Random(5))
    b = sample_heuristic(p.init, p, h, random.Random(5))
    assert a.ok and a.decision == b.decision
    expect = try_apply(p.init, p.action_by_name(a.decision.action),
                       a.decision.controls)
    assert a.successor == expect
    assert a.trials >= 10  # ten candidates drawn by default


def test_sample_heuristic_fails_when_no_candidates():
    text = """(problem imp (bools) (nums (x 0.0)) (controls (u 0 1))
      (action a (pre (> (- u u) 0)) (eff (assign x u)))
      (goal (and)))"""
    p, _ = parse_problem(text)
    h = make_heuristic(p)
    out = sample_heuristic(p.init, p, h, random.Random(0), budget=5,
                           candidates=3)
    assert not out.ok
    assert out.trials == 15


# -- factory ------------------------------------------------------------------

def test_make_sampler_dispatch():
    p = counters()
    h = make_heuristic(p)
    rng = random.Random(9)
    sys_sampler = make_sampler(SearchConfig(sampler="systematic", grid_digits=0), p)
    uni_sampler = make_sampler(SearchConfig(sampler="uniform", grid_digits=0), p)
    heu_sampler = make_sampler(SearchConfig(sampler="heuristic", grid_digits=0),
                               p, h)
    assert sys_sampler(p.init, 0, rng).decision.action == "inc-c0"
    assert uni_sampler(p.init, 0, rng).ok
    assert heu_sampler(p.init, 0, rng).ok
    with pytest.raises(ValueError):
        make_sampler(SearchConfig(sampler="nope"), p)
    with pytest.raises(ValueError):
        make_sampler(SearchConfig(sampler="heuristic"), p)


def test_make_sampler_applies_grid():
    p = counters()
    sampler = make_sampler(SearchConfig(sampler="uniform", grid_digits=2), p)
    out = sampler(p.init, 0, random.Random(1))
    u = out.decision.controls["u"]
    assert abs(u * 100 - round(u * 100)) < 1e-9


# -- seeded trajectories --------------------------------------------------------

#: expansion caps per domain for the trajectory pin: small, so that the test
#: stays quick, and large enough that each engine solves some instances
TRAJECTORY_CAPS = {"counters": 400, "sailing": 300, "blockgrouping": 200, "drone": 400}


def test_seeded_trajectories_are_pinned():
    """Seed 0 on each ladder instance: every sampler at sg and sa, recording
    outcome, plan length, expansions, re-expansions, peak open and the
    plan's decisions, and one MCTS run, recording its outcome and plan (its
    other result fields are placeholders). The records hash to a fixed
    digest.

    A refactor must leave this digest as it is. Only a change that declares
    a trajectory change (and records its new bench fingerprints) may
    regenerate it: print the sha256 of `repr(records)` below and paste it.
    """
    def steps(r):
        return [(d.action, tuple(d.controls.values())) for d in r.plan or ()]

    records = []
    for spec in default_ladder():
        problem = generate(spec)
        cap = TRAJECTORY_CAPS[spec.domain]
        for sampler in SAMPLER_KINDS:
            for mode in MODES:
                r = run_search(problem, SearchConfig(mode=mode, sampler=sampler, seed=0,
                                                     expansion_limit=cap))
                records.append((r.outcome, len(r.plan or ()), r.expansions,
                                r.reexpansions, r.peak_open, steps(r)))
        r = run_mcts(problem, MctsConfig(seed=0, trial_limit=50))
        records.append((r.outcome, steps(r)))
    assert len(records) == 20 * 7
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "4b0bd0d4f4b43bd39184b17ad01086e5bc7dbcc34ea9ba0036ea6a0edfb7b3b8")

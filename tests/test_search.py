import gc
import heapq
import math
import os
import platform
import struct
import subprocess
import sys
import time
import tracemalloc
import weakref
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cvplan import sampling, search
from cvplan.dsl import parse_problem, validate
from cvplan.domains import make_counters, make_drone, make_sailing
from cvplan.model import (
    Action, Add, And, Cmp, Const, ControlVarSpec, Decision, Effect, Pow, Problem,
    State, Sub, TRUE, Var, goal_test, key_by_name, make_heuristic, replay_plan,
    state_key,
)
from cvplan.search import (
    BLOCK, RECTIFIERS, SearchConfig, SearchTree, TraceCheck, TreeNode,
    f_value, reconstruct_plan, run_search, solution_cost_within_bound,
    validate_trace,
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


def undeclared_variable_problem():
    """Its one action also assigns z, which the problem does not declare, so
    every successor would have a layout the initial state lacks."""
    u = Var("u", "control")
    step = Action("step", TRUE, Effect((), (("x", Add(Var("x"), u)), ("z", u))))
    return Problem(
        name="grow", bools=(), nums=("x",), controls=(ControlVarSpec("u", 0, 1),),
        actions=(step,), init=State(bools={}, nums={"x": 0.0}),
        goal=Cmp(Sub(Var("x"), Const(2.0)), ">="),
    )


def run_recorded(monkeypatch, problem, expansion_limit):
    """run_search at seed 0 with the sampler's successful outcomes recorded:
    returns the result, its trace and the outcome each inserted node came
    from, by uid."""
    sampled, make_sampler = [], search.make_sampler

    def recording(*args):
        inner = make_sampler(*args)

        def sampler(*a):
            out = inner(*a)
            if out.ok:
                sampled.append(out)
            return out
        return sampler

    monkeypatch.setattr(search, "make_sampler", recording)
    events = []
    result = run_search(problem, SearchConfig(seed=0, expansion_limit=expansion_limit),
                        trace=events)
    # each successful draw is inserted or discarded as a duplicate, in order
    placed = [e for e in events if e[0] in ("insert", "duplicate")]
    assert len(placed) == len(sampled)
    return result, events, {e[1]: out for e, out in zip(placed, sampled) if e[0] == "insert"}


def test_tree_view_holds_what_the_sampler_returned(monkeypatch):
    problem = make_counters(2)
    result, events, inserted = run_recorded(monkeypatch, problem, 20_000)
    assert result.outcome == "solved"
    root, tree = result.root, result.root.tree
    assert sorted(inserted) == list(range(1, len(tree)))
    assert (root.uid, root.g, root.parent, root.decision) == (0, 0, None, None)
    assert root.state == problem.init
    h = make_heuristic(problem)
    for uid, out in inserted.items():
        node = TreeNode(tree, uid)
        assert node.state == out.successor
        assert node.state.layout is out.successor.layout
        assert node.decision == out.decision
        assert (node.g, node.h) == (node.parent.g + 1, h(out.successor))
        assert node.uid in [child.uid for child in node.parent.children]
    assert not hasattr(tree, "layout") and not hasattr(root, "f")
    goal = events[-1][1]
    expected, node = [], TreeNode(tree, goal)
    while node.parent is not None:
        expected.append(inserted[node.uid].decision)
        node = node.parent
    expected.reverse()
    assert result.plan == expected == reconstruct_plan(TreeNode(tree, goal))


def assert_nodes_hold_exactly(tree, problem, inserted):
    """Every node's state and decision are the root's and the sampled ones,
    equal down to repr and the type of each value."""
    def exact(got, want):
        assert got == want and repr(got) == repr(want)
        for attr in ("bool_values", "num_values", "values"):
            if hasattr(want, attr):
                assert [type(v) for v in getattr(got, attr)] == [
                    type(v) for v in getattr(want, attr)]
    exact(TreeNode(tree, 0).state, problem.init)
    assert sorted(inserted) == list(range(1, len(tree)))
    for uid, out in inserted.items():
        exact(TreeNode(tree, uid).state, out.successor)
        exact(TreeNode(tree, uid).decision, out.decision)


def assert_row_blocks_are_arrays(tree, problem):
    """The tree's per-node columns are six lists of array blocks, and each
    block of rows is an array("B") of one row per node of the block: the
    state's booleans and numerics, the action's index and the control
    values."""
    columns = {name: value for name, value in vars(tree).items() if isinstance(value, list)}
    assert sorted(columns) == sorted(("parent", "g", "n", "trials", "h", "rows"))
    assert {type(block) for blocks in columns.values() for block in blocks} == {array}
    width = struct.calcsize(
        f"<{len(problem.bools)}?{len(problem.nums)}di{len(problem.controls)}d")
    assert {block.typecode for block in tree.rows} == {"B"}
    assert [len(block) for block in tree.rows] == [width * len(block) for block in tree.parent]


def flag_problem(init_nums=(("x", 0.0), ("y", 0.0)), flag_value=True, y_value=1.0):
    """A boolean flag that starts True, numerics x and y and a control u;
    its one action sets flag to flag_value, adds u to x and sets y to
    Const(y_value). The goal is out of reach."""
    u = Var("u", "control")
    step = Action("step", TRUE, Effect((("flag", flag_value),),
                                       (("x", Add(Var("x"), u)), ("y", Const(y_value)))))
    return Problem("flags", ("flag",), ("x", "y"), (ControlVarSpec("u", 0, 1),), (step,),
                   State(bools={"flag": True}, nums=dict(init_nums)),
                   Cmp(Sub(Var("x"), Const(1e9)), ">="))


@pytest.mark.parametrize("make_problem", [lambda: make_counters(6), lambda: make_sailing(2, 2),
                                          lambda: make_drone(2, 2), flag_problem])
def test_packed_rows_read_back_what_the_sampler_returned(monkeypatch, make_problem):
    problem = make_problem()
    result, _, inserted = run_recorded(monkeypatch, problem, 3000)
    tree = result.root.tree
    assert_row_blocks_are_arrays(tree, problem)
    assert len(tree) > 100
    assert_nodes_hold_exactly(tree, problem, inserted)
    assert all(flag is True or flag is False
               for uid in range(len(tree)) for flag in tree.state(uid).bool_values)


@pytest.mark.parametrize("changes", [
    {"init_nums": (("x", 0), ("y", 0.0))},          # an int initial numeric
    {"y_value": 1},                                 # an int constant in an effect
    {"flag_value": 1},                              # a boolean assignment of 1
    {"init_nums": (("y", 0.0), ("x", 0.0))},        # init in another order
])
def test_normalized_problems_pack_and_search_alike(monkeypatch, changes):
    """Each variant normalizes to flag_problem()'s values: its tree packs
    its rows, holds what the sampler returned, and its trace is
    flag_problem()'s event for event."""
    problem = flag_problem(**changes)
    result, events, inserted = run_recorded(monkeypatch, problem, 300)
    tree = result.root.tree
    assert_row_blocks_are_arrays(tree, problem)
    assert len(tree) > 100
    assert_nodes_hold_exactly(tree, problem, inserted)
    reference = []
    run_search(flag_problem(), SearchConfig(seed=0, expansion_limit=300), trace=reference)
    assert events == reference


def bits(values):
    """The IEEE 754 bytes of each float, so that -0.0, nan payloads and
    subnormals compare exactly."""
    return [struct.pack("<d", value) for value in values]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 2), st.data())
def test_rows_read_back_every_value_bit_for_bit(n_bools, n_nums, n_controls, data):
    """Over layouts of 0-3 booleans, 1-3 numerics and 0-2 controls, the
    nodes that add writes on either side of a block boundary read back
    from state and decision with every float's bits and each boolean the
    True or False object. add reads each control by name, whatever the
    order of the decision's dict, and a decision that misnames a control
    raises KeyError and adds no node."""
    bools = tuple(f"b{i}" for i in range(n_bools))
    nums = tuple(f"x{i}" for i in range(n_nums))
    controls = tuple(ControlVarSpec(f"u{i}", 0, 1) for i in range(n_controls))
    actions = tuple(Action(f"a{i}", TRUE, Effect()) for i in range(3))
    problem = Problem("rows", bools, nums, controls, actions,
                      State(dict.fromkeys(bools, False), dict.fromkeys(nums, 0.0)), TRUE)
    rows = data.draw(st.lists(st.tuples(
        st.lists(st.booleans(), min_size=n_bools, max_size=n_bools),
        st.lists(st.floats(), min_size=n_nums, max_size=n_nums),
        st.sampled_from(actions),
        st.lists(st.floats(), min_size=n_controls, max_size=n_controls),
        st.permutations(problem._control_names)),
        min_size=3, max_size=5))
    tree = SearchTree(problem)
    for _ in range(BLOCK - 2):
        tree.add(-1, 0, 0.0, problem.init, None)
    for flags, numbers, action, values, order in rows:
        controls = dict(zip(problem._control_names, values))
        tree.add(0, 1, 0.0, State(dict(zip(bools, flags)), dict(zip(nums, numbers))),
                 Decision(action.name, {name: controls[name] for name in order}))
    assert len(tree.rows) == 2
    if n_controls:
        misnamed = dict(zip(("w", *problem._control_names[1:]), values))
        with pytest.raises(KeyError, match="u0"):
            tree.add(0, 1, 0.0, problem.init, Decision(action.name, misnamed))
        assert len(tree) == BLOCK - 2 + len(rows)
    for uid, (flags, numbers, action, values, _) in enumerate(rows, BLOCK - 2):
        state, decision = tree.state(uid), TreeNode(tree, uid).decision
        assert state.layout is problem.init.layout
        assert all(got is want for got, want in zip(state.bool_values, flags, strict=True))
        assert bits(state.num_values) == bits(numbers)
        assert (decision.action, tuple(decision.controls)) == (action.name, problem._control_names)
        assert bits(tuple(decision.controls.values())) == bits(values)
    assert (tree.state(0).bool_values, TreeNode(tree, 0).decision) == ((False,) * n_bools, None)


def test_run_search_refuses_what_normalizing_cannot_mend():
    """States that leave the declared layout, decisions with fewer values
    than control names, and values that no float or bool equals: each is
    a ValueError that names its cause, and a validate error."""
    flags = flag_problem()
    power = Action("step", TRUE, Effect((), (("x", Pow(Var("x"), 0.5)),)))
    layout = "the initial state does not assign each declared variable exactly once"
    cases = [
        (undeclared_variable_problem(), "an effect assigns an undeclared variable"),
        (replace(flags, init=State({"flag": True}, {"x": 0.0})), layout),
        (replace(flags, nums=("x", "y", "x")), layout),
        (replace(flags, controls=flags.controls * 2), "duplicate control names: \\('u', 'u'\\)"),
        (replace(flags, init=State({"flag": 2}, {"x": 0.0, "y": 0.0})),
         "a boolean value is not True or False"),
        (flag_problem(flag_value=2), "a boolean value is not True or False"),
        (flag_problem(init_nums=(("x", 2 ** 53 + 1), ("y", 0.0))),
         "a numeric value is not a float"),
        (flag_problem(y_value=10 ** 400), "a numeric value is not a float"),
        (replace(flags, actions=(power,)), "an exponent is not an int"),
    ]
    for problem, message in cases:
        with pytest.raises(ValueError, match=message):
            run_search(problem, SearchConfig(seed=0, expansion_limit=10))
        assert any(d.severity == "error" for d in validate(problem)), message


def test_both_engines_refuse_actions_that_share_a_name():
    """Two actions named go, one adding 1 and one adding 5: a plan that
    names go replays the first, so either engine's one-step plan to x = 5
    would replay to x = 1, not a goal. Both raise ValueError before they
    search; run_mcts refuses no other cause of Problem._refusal."""
    def go(step):
        return Action("go", Cmp(Var("x"), ">="), Effect((), (("x", Add(Var("x"), Const(step))),)))
    problem = Problem("twins", (), ("x",), (), (go(1.0), go(5.0)), State({}, {"x": 0.0}),
                      And((Cmp(Sub(Var("x"), Const(5.0)), ">="),)))
    message = "duplicate action name: go"
    with pytest.raises(ValueError, match=message):
        run_search(problem, SearchConfig(seed=0, expansion_limit=100))
    with pytest.raises(ValueError, match=message):
        search.run_mcts(problem, search.MctsConfig(seed=0, trial_limit=100))
    assert message in [d.message for d in validate(problem)]
    unpackable = flag_problem(flag_value=2)
    assert unpackable._refusal == "a boolean value is not True or False"
    assert search.run_mcts(unpackable, search.MctsConfig(seed=0, trial_limit=5)).outcome == "budget"


def test_refusal_scan_runs_once_per_problem():
    """run_search reads a problem's refusal from Problem._refusal, computed
    on the first search: a second search does not scan again, as a cause
    planted in the cache after the first shows."""
    problem = make_counters(2)
    run_search(problem, SearchConfig(seed=0, expansion_limit=10))
    assert vars(problem)["_refusal"] is None
    vars(problem)["_refusal"] = "planted cause"
    with pytest.raises(ValueError, match="planted cause"):
        run_search(problem, SearchConfig(seed=0, expansion_limit=10))


def test_search_reaches_its_layers_through_module_names(monkeypatch):
    """Every heap operation goes through OpenList, and every model call,
    sampler and heuristic through the names of search and sampling, where
    a tracer can swap timing wrappers in from outside."""
    calls = Counter()

    def count(owner, name, returned=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = original(*args, **kwargs)
            return returned(out) if returned else out
        monkeypatch.setattr(owner, name, wrapper)

    def counted_sampler(inner):
        def sampler(*args):
            out = inner(*args)
            calls["trials"] += out.trials
            return out
        return sampler

    def counted_heuristic(inner):
        def h(state):
            calls["h"] += 1
            return inner(state)
        return h

    count(search.OpenList, "push")
    count(search.OpenList, "pop")
    count(search, "goal_test")
    count(search, "state_key")
    count(sampling, "try_apply")
    count(search, "make_sampler", returned=counted_sampler)
    count(search, "make_heuristic", returned=counted_heuristic)
    events = []
    result = run_search(make_counters(6), SearchConfig(mode="sa", seed=1, expansion_limit=2000),
                        trace=events)
    kinds = Counter(event[0] for event in events)
    assert kinds["extract"] == 2000
    assert calls["pop"] == calls["goal_test"] == kinds["extract"]
    assert calls["push"] == 1 + kinds["insert"] + kinds["reinsert"]
    assert calls["state_key"] == 1 + kinds["insert"] + kinds["duplicate"]
    assert calls["try_apply"] == calls["trials"] > 0
    assert calls["make_sampler"] == calls["make_heuristic"] == 1
    assert calls["h"] == 1 + kinds["insert"]
    nodes, stack = 0, [result.root]
    while stack:
        nodes += 1
        stack.extend(stack.pop().children)
    assert nodes == 1 + kinds["insert"] == len(result.root.tree)


# -- duplicate detection -------------------------------------------------------

#: key parts: hash(-1) == hash(-2) in CPython, so tuples that differ only
#: there collide; True == 1, so (True, k) and (1, k) are one key; strings
#: hash by PYTHONHASHSEED
KEY_PARTS = (-1, -2, True, 1, 0, "a", "b")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KEY_PARTS), st.integers(-40, 40)),
                min_size=100, max_size=400))
def test_uid_table_matches_a_set(stream):
    """Insert and lookup streams, as add sees them: a key seen before is a
    lookup, any other an insert under the next uid. Most streams hold at
    least 86 distinct keys, which double the table five times or more,
    from 8 slots to 256 or beyond. Keys are compared only where the low 32
    bits of their hashes are equal; with string parts under hash
    randomization, such a match can hold for unequal keys, and every
    returned uid is checked."""
    stored, probed, uids = [], [], {}

    def key(uid):
        assert hash(stored[uid]) & 0xFFFFFFFF == hash(probed[-1]) & 0xFFFFFFFF
        return stored[uid]
    add = search.uid_table(key)
    for k in stream:
        probed.append(k)
        expect = uids.get(k, -1)
        assert add(k) == expect
        if expect < 0:
            uids[k] = len(stored)
            stored.append(k)
    for k, uid in uids.items():
        probed.append(k)
        assert add(k) == uid
    assert len(stored) == len(set(stream))


def test_uid_table_finds_keys_across_hash_blocks():
    """The low 32 bits of the hashes sit in 4-byte blocks of BLOCK uids,
    and a key whose hash is in any block is found again under its uid."""
    keys = [("k", i) for i in range(2 * BLOCK + 5)]
    add = search.uid_table(keys.__getitem__)
    assert [add(k) for k in keys] == [-1] * len(keys)
    assert [add(k) for k in keys] == list(range(len(keys)))
    hashes = next(cell.cell_contents for cell in add.__closure__
                  if isinstance(cell.cell_contents, list))
    assert [(block.typecode, block.itemsize, len(block)) for block in hashes] == [
        ("I", 4, BLOCK), ("I", 4, BLOCK), ("I", 4, 5)]


def micro_grid(y0=0.0):
    """x and y step by 1e-6 between -3e-6 and 0, so that keys hold -1 and
    -2 and many paths reach one key with unequal floats; y0 = 0 (an int)
    normalizes to 0.0."""
    def step(name, sign, bound):
        pre = Cmp(Sub(Var(name), Const(bound)), "<=" if sign > 0 else ">=")
        effect = Effect((), ((name, Add(Var(name), Const(sign * 1e-6))),))
        return Action(f"{name}{sign:+d}", pre, effect)
    return Problem("grid", (), ("x", "y"), (), (step("x", 1, -0.5e-6), step("x", -1, -2.5e-6),
                                               step("y", 1, -0.5e-6), step("y", -1, -2.5e-6)),
                   State(nums={"x": 0.0, "y": y0}), Cmp(Sub(Var("x"), Const(1.0)), ">="))


def set_table(key):
    """uid_table's reference: a dict of the keys themselves to their uids."""
    uids = {}

    def add(k):
        if k in uids:
            return uids[k]
        uids[k] = len(uids)
        return -1
    return add


@pytest.mark.parametrize("make_problem,sampler", [
    (lambda: make_counters(3), "uniform"), (lambda: make_drone(2, 2), "heuristic"),
    (micro_grid, "systematic"), (micro_grid, "uniform"),
    (lambda: micro_grid(y0=0), "systematic"),
    *[(lambda changes=changes: flag_problem(**changes), "uniform") for changes in (
        {"init_nums": (("x", 0), ("y", 0.0))}, {"flag_value": 1},
        {"init_nums": (("y", 0.0), ("x", 0.0))})],
])
def test_duplicates_are_those_of_a_set_of_reference_keys(monkeypatch, make_problem, sampler):
    """Every trace event, duplicates included, equals a run that keeps a
    set of key_by_name tuples."""
    problem = make_problem()
    cfg = SearchConfig(mode="sa", sampler=sampler, seed=3, expansion_limit=3000)
    events, reference = [], []
    result = run_search(problem, cfg, trace=events)
    monkeypatch.setattr(search, "state_key", key_by_name)
    monkeypatch.setattr(search, "uid_table", set_table)
    run_search(problem, cfg, trace=reference)
    assert events == reference
    assert any(event[0] == "duplicate" for event in events)
    if make_problem is micro_grid:
        tree = result.root.tree
        keys = {key_by_name(tree.state(uid), problem) for uid in range(len(tree))}
        assert len({hash(k) for k in keys}) < len(keys) == 16


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


def test_trace_check_flags_an_extract_off_its_queued_f():
    """A node extracted at an f other than the one it was queued with, or
    while out of the queue, is a violation."""
    head = [("extract", 0, 5.0), ("goal", 0, False), ("insert", 1, 6.0),
            ("reinsert", 0, 6.0)]
    off = [("extract", 1, 5.5), ("goal", 1, False), ("drop", 1)]
    assert validate_trace(head + off, "lin") == [
        "event 4: node 1 extracted at f 5.5, queued at 6.0"]
    dropped = [("extract", 0, 5.0), ("goal", 0, False), ("drop", 0)]
    assert validate_trace(dropped + dropped, "lin") == [
        "event 3: node 0 extracted at f 5.0, queued at None"]


def test_trace_check_flags_an_extract_never_queued():
    """Once the trace has queued nodes, extracting any other node is a
    violation; only the first extraction, the root's, predates the trace."""
    head = [("extract", 0, 5.0), ("goal", 0, False), ("insert", 1, 6.0),
            ("reinsert", 0, 6.0)]
    stray = [("extract", 2, 6.0), ("goal", 2, False), ("drop", 2)]
    assert validate_trace(head + stray, "lin") == [
        "event 4: node 2 extracted but never queued"]


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


#: f values with ties, a signed zero, adjacent floats and log-rectifier steps
F_POOL = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 2.0] + [math.log1p(n) for n in range(1, 6)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.tuples(st.sampled_from(F_POOL),
                                               st.integers(0, 2**31 - 1))), max_size=200))
def test_open_list_pops_in_heap_order(ops):
    """OpenList pops the uids a heap of (f, seq, uid) pops, in its order:
    smallest f first, ties in push order. None stands for a pop. Uids are
    those the tree's 4-byte parent column holds."""
    queue, reference = search.OpenList(), []
    for seq, op in enumerate(ops):
        if op is None:
            if reference:
                assert queue.pop() == heapq.heappop(reference)[2]
        else:
            queue.push(op[0], op[1])
            heapq.heappush(reference, (op[0], seq, op[1]))
        assert len(queue) == len(reference)
    while reference:
        assert queue.pop() == heapq.heappop(reference)[2]
    assert len(queue) == 0


def test_open_list_refuses_an_overflowing_uid_unchanged():
    """A uid past 2**31 - 1 raises OverflowError, in a new bucket or a
    queued one, and the queue then pops what it held before."""
    queue = search.OpenList()
    queue.push(1.0, 3)
    queue.push(2.0, 4)
    for f in (0.5, 1.0):
        with pytest.raises(OverflowError):
            queue.push(f, 2**31)
        assert len(queue) == 2
    assert [block.itemsize for _, block in queue._buckets.values()] == [4, 4]
    assert (queue.pop(), queue.pop(), len(queue)) == (3, 4, 0)


def test_open_list_frees_emptied_buckets():
    """Popping and requeueing 3 nodes at ever larger f, as partial expansion
    does, keeps at most 3 buckets and 3 f values on the heap."""
    queue, n = search.OpenList(), [0, 0, 0]
    for uid in range(3):
        queue.push(float(uid), uid)
    for _ in range(10_000):
        uid = queue.pop()
        n[uid] += 1
        queue.push(uid + math.log1p(n[uid]), uid)
        assert len(queue._buckets) <= 3 and len(queue._fs) <= 3
    assert len(queue) == 3


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


def test_a_tree_of_three_blocks_reads_back_across_its_boundaries(monkeypatch):
    """On a tree that fills two blocks and opens a third, every node holds
    its sampled state and decision and the parent its trace shows; children
    and plans reach across the block boundaries."""
    problem = make_counters(6)
    result, events, inserted = run_recorded(monkeypatch, problem, 9000)
    tree = result.root.tree
    assert 2 * BLOCK < len(tree) < 3 * BLOCK
    assert [len(block) for block in tree.g] == [BLOCK, BLOCK, len(tree) - 2 * BLOCK]
    assert_nodes_hold_exactly(tree, problem, inserted)
    parent_of, kids = {}, {uid: [] for uid in range(len(tree))}
    for event in events:
        if event[0] == "extract":
            extracted = event[1]
        elif event[0] == "insert":
            parent_of[event[1]] = extracted
            kids[extracted].append(event[1])
    assert [TreeNode(tree, uid).parent.uid for uid in range(1, len(tree))] == [
        parent_of[uid] for uid in range(1, len(tree))]
    assert all(tree.children(uid) == kids[uid] for uid in kids)
    for uid in (BLOCK - 1, BLOCK, len(tree) - 1):
        plan, node = [], uid
        while node:
            plan.append(inserted[node].decision)
            node = parent_of[node]
        assert reconstruct_plan(TreeNode(tree, uid)) == plan[::-1]


def test_reconstruct_plan_orders_decisions():
    problem = impossible_problem()                # numeric x, control u
    tree = SearchTree(replace(problem, actions=tuple(
        replace(problem.actions[0], name=name) for name in ("first", "sibling", "second", "late"))))
    root = tree.add(-1, 0, 0.0, State(bools={}, nums={"x": 0.0}), None)
    mid = tree.add(root, 1, 0.0, State(bools={}, nums={"x": 1.0}),
                   Decision("first", {"u": 1.0}))
    sibling = tree.add(root, 1, 0.0, State(bools={}, nums={"x": 9.0}),
                       Decision("sibling", {"u": 0.0}))
    leaf = tree.add(mid, 2, 0.0, State(bools={}, nums={"x": 2.0}),
                    Decision("second", {"u": 0.5}))
    assert reconstruct_plan(TreeNode(tree, root)) == []
    assert reconstruct_plan(TreeNode(tree, leaf)) == [
        Decision("first", {"u": 1.0}), Decision("second", {"u": 0.5})]
    assert (tree.children(root), tree.children(mid), tree.children(leaf)) == (
        [mid, sibling], [leaf], [])
    # the child index follows a tree that grows after its first use
    late = tree.add(root, 1, 0.0, State(bools={}, nums={"x": 3.0}),
                    Decision("late", {"u": 0.25}))
    assert [child.uid for child in TreeNode(tree, root).children] == [mid, sibling, late]


def test_tree_node_refuses_a_uid_outside_the_tree():
    """A view of uid -1 or len(tree) raises IndexError rather than read
    another node's fields."""
    tree = SearchTree(impossible_problem())
    for x in (0.0, 1.0, 2.0):
        tree.add(-1, 0, 0.0, State(bools={}, nums={"x": x}), None)
    assert TreeNode(tree, len(tree) - 1).state == State(bools={}, nums={"x": 2.0})
    for uid in (-1, len(tree)):
        with pytest.raises(IndexError):
            TreeNode(tree, uid)


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
    fake_tree = SearchTree(p)
    fake_root = TreeNode(fake_tree, fake_tree.add(-1, 0, 0.0, p.init, None))
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
    nodes = len(result.root.tree)
    assert result.expansions == 20_000
    assert peak / nodes <= 138, (peak, nodes)


def test_integer_columns_are_four_bytes_and_overflow_loudly():
    """Each block of parent, g, n and trials holds 4-byte ints; a value past
    2**31 - 1 raises OverflowError and leaves the block as it was."""
    tree = run_search(make_counters(2), SearchConfig(seed=0, expansion_limit=50)).root.tree
    names = ("parent", "g", "n", "trials")
    assert [block.itemsize for name in names for block in getattr(tree, name)] == [4] * (
        4 * len(tree.parent))
    root = TreeNode(tree, 0)
    for name in ("trials", "n"):
        before = getattr(tree, name)[0].tobytes()
        with pytest.raises(OverflowError):
            setattr(root, name, 2 ** 31)
        assert getattr(tree, name)[0].tobytes() == before
    root.trials = 2 ** 31 - 1
    assert tree.trials[0][0] == 2 ** 31 - 1


def test_finished_search_keeps_no_tracked_object_per_node():
    """A finished tree gives the cyclic collector nothing to traverse per
    node: its columns are arrays and lists of atomics or tuples of atomics,
    which the collector stops tracking."""
    p = make_counters(6)
    run_search(p, SearchConfig(mode="sa", seed=0, expansion_limit=100))  # compile first
    gc.collect()
    before = len(gc.get_objects())
    result = run_search(p, SearchConfig(mode="sa", rectifier="log", seed=0,
                                        expansion_limit=20_000, time_limit=120.0))
    gc.collect()
    grown = len(gc.get_objects()) - before
    nodes = len(result.root.tree)
    assert result.expansions == 20_000
    assert grown / nodes < 0.05, (grown, nodes)


def test_a_finished_tree_is_freed_without_the_collector():
    """Dropping a search's result frees its tree by reference counting
    alone: a tree in a reference cycle would stay beside the next search's
    until a full collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_search(make_counters(2), SearchConfig(seed=0, expansion_limit=50))
        tree = weakref.ref(result.root.tree)
        del result
        assert tree() is None
    finally:
        if enabled:
            gc.enable()


#: two 100k-expansion counters-6 sa-log searches, seed 0 then seed 1, after a
#: warm-up; prints how far the second raises peak RSS, in KiB
SECOND_SEARCH_GROWTH = """
import resource
from cvplan.domains import make_counters
from cvplan.search import SearchConfig, run_search


def search(seed, expansions):
    cfg = SearchConfig(mode="sa", rectifier="log", seed=seed,
                       expansion_limit=expansions, time_limit=120.0)
    assert run_search(make_counters(6), cfg).expansions == expansions


search(0, 2000)
search(0, 100_000)
first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
search(1, 100_000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - first)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator")
def test_a_second_search_reuses_the_first_searchs_memory():
    """A search that follows an equal one in the same process raises peak
    RSS by less than 2 MB. Freeing the first search's mmapped buffers
    raises glibc's mmap threshold, so the second's come from the heap,
    where columns grown by realloc would leave holes; tracemalloc cannot
    see them. Runs in a fresh interpreter with the default allocators."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("MALLOC_")
           and name not in ("PYTHONMALLOC", "PYTHONDEVMODE", "PYTHONTRACEMALLOC",
                            "GLIBC_TUNABLES")}
    src = os.path.dirname(os.path.dirname(search.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", SECOND_SEARCH_GROWTH], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert int(out.stdout) < 2048, out.stdout   # ru_maxrss is in KiB on Linux

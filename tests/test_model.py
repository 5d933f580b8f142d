import copy
import dataclasses
import math
import operator
import pickle
import struct
import subprocess
import sys
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from cvplan.domains import default_ladder, generate, make_drone
from cvplan.dsl import parse_problem, serialize_problem, validate
from cvplan import codegen, model
from cvplan.model import (
    CMP_OPS, Action, Add, And, BoolEq, Cmp, Const, ControlVarSpec, Decision,
    Effect, ModelError, Mul, Neg, Not, Or, Pow, Problem, State, Sub, TRUE, Var,
    conjuncts, eval_constraint, eval_expr, goal_test, iter_constraints,
    iter_exprs, key_by_name, layout_of, liveness, make_heuristic, reads_control,
    replay_plan, round_half_away, state_key, try_apply,
)
from cvplan.search import SearchConfig, TreeNode, run_search


# ---------------------------------------------------------------------------
# reference oracle: the tree-walking interpreter the compiled code replaced

def ref_eval_expr(expr, state, controls):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            if expr.kind == "control":
                return controls[expr.name]
            return state.nums[expr.name]
        except KeyError:
            raise ModelError(f"unbound variable: {expr.name!r}") from None
    if isinstance(expr, Add):
        return ref_eval_expr(expr.lhs, state, controls) + ref_eval_expr(expr.rhs, state, controls)
    if isinstance(expr, Sub):
        return ref_eval_expr(expr.lhs, state, controls) - ref_eval_expr(expr.rhs, state, controls)
    if isinstance(expr, Mul):
        return ref_eval_expr(expr.lhs, state, controls) * ref_eval_expr(expr.rhs, state, controls)
    if isinstance(expr, Neg):
        return -ref_eval_expr(expr.arg, state, controls)
    if isinstance(expr, Pow):
        base = ref_eval_expr(expr.base, state, controls)
        try:
            return base ** expr.exponent
        except OverflowError:
            size = abs(base)
            limit = math.inf if size > 1 else 0.0 if size < 1 else size
            return -limit if base < 0 and expr.exponent % 2 == 1 else limit
    raise ModelError(f"not a numeric expression: {expr!r}")


def ref_cmp_holds(value, op):
    if op == "<":
        return value < 0
    if op == "<=":
        return value <= 0
    if op == "=":
        return value == 0
    if op == ">=":
        return value >= 0
    if op == ">":
        return value > 0
    raise ModelError(f"unknown comparison operator: {op!r}")


def ref_eval_constraint(con, state, controls):
    if isinstance(con, Cmp):
        return ref_cmp_holds(ref_eval_expr(con.expr, state, controls), con.op)
    if isinstance(con, BoolEq):
        try:
            return state.bools[con.name] is con.value
        except KeyError:
            raise ModelError(f"unbound boolean variable: {con.name!r}") from None
    if isinstance(con, And):
        return all(ref_eval_constraint(c, state, controls) for c in con.items)
    if isinstance(con, Or):
        return any(ref_eval_constraint(c, state, controls) for c in con.items)
    if isinstance(con, Not):
        return not ref_eval_constraint(con.item, state, controls)
    raise ModelError(f"not a constraint: {con!r}")


def ref_try_apply(state, action, controls):
    if not ref_eval_constraint(action.precondition, state, controls):
        return None
    new_bools = dict(state.bools)
    for name, value in action.effect.bool_assigns:
        new_bools[name] = value
    new_nums = dict(state.nums)
    for name, expr in action.effect.num_assigns:
        new_nums[name] = ref_eval_expr(expr, state, controls)
    return State(bools=new_bools, nums=new_nums)


def ref_state_key(state, digits=6):
    """The name-sorted key the flat state_key replaced."""
    return (
        tuple(sorted(state.bools.items())),
        tuple((name, round_half_away(value, digits)) for name, value in sorted(state.nums.items())),
    )


def outcome(fn, *args):
    """fn(*args), or the ModelError class when it raises one."""
    try:
        return fn(*args)
    except ModelError:
        return ModelError


def same_float(a, b) -> bool:
    """Bit-identical floats, or both nan."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and struct.pack("d", a) == struct.pack("d", b)


def same_state(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (a.bools == b.bools and list(a.nums) == list(b.nums)
            and all(same_float(a.nums[k], b.nums[k]) for k in a.nums))


def make_state(**nums):
    return State(bools={}, nums=nums)


def test_eval_expr_arithmetic():
    s = make_state(x=3.0, y=-2.0)
    mu = {"u": 0.5}
    assert eval_expr(Const(4.5), s, mu) == 4.5
    assert eval_expr(Var("x"), s, mu) == 3.0
    assert eval_expr(Var("u", "control"), s, mu) == 0.5
    assert eval_expr(Add(Var("x"), Var("y")), s, mu) == 1.0
    assert eval_expr(Sub(Var("x"), Var("y")), s, mu) == 5.0
    assert eval_expr(Mul(Var("x"), Var("y")), s, mu) == -6.0
    assert eval_expr(Neg(Var("y")), s, mu) == 2.0
    assert eval_expr(Pow(Var("y"), 3), s, mu) == -8.0
    assert eval_expr(Pow(Var("y"), 0), s, mu) == 1.0


def test_eval_expr_unbound_raises():
    with pytest.raises(ModelError):
        eval_expr(Var("z"), make_state(x=0.0), {})
    with pytest.raises(ModelError):
        eval_expr(Var("v", "control"), make_state(x=0.0), {})


def test_pow_overflow_keeps_sign():
    s = make_state(big=1e200, neg=-1e200, half=0.5, one=1.0, neg_one=-1.0,
                   neg_half=-0.5, nan=math.nan)
    assert eval_expr(Pow(Var("big"), 3), s, {}) == math.inf
    assert eval_expr(Pow(Var("neg"), 3), s, {}) == -math.inf
    assert eval_expr(Pow(Var("neg"), 2), s, {}) == math.inf
    # an exponent beyond the float range takes the limit of the power
    huge = 10 ** 400
    assert eval_expr(Pow(Var("big"), huge + 1), s, {}) == math.inf
    assert eval_expr(Pow(Var("neg"), huge + 1), s, {}) == -math.inf
    assert eval_expr(Pow(Var("half"), huge), s, {}) == 0.0
    assert eval_expr(Pow(Var("neg_half"), huge + 1), s, {}) == 0.0
    assert eval_expr(Pow(Var("one"), huge), s, {}) == 1.0
    assert eval_expr(Pow(Var("neg_one"), huge), s, {}) == 1.0
    assert eval_expr(Pow(Var("neg_one"), huge + 1), s, {}) == -1.0
    assert math.isnan(eval_expr(Pow(Var("nan"), huge), s, {}))


def test_comparisons_are_exact():
    s = make_state(x=0.1)
    # 0.1 + 0.2 is not exactly 0.3 in binary floating point
    expr = Sub(Add(Var("x"), Const(0.2)), Const(0.3))
    assert not eval_constraint(Cmp(expr, "="), s, {})
    assert eval_constraint(Cmp(expr, ">"), s, {})
    assert eval_constraint(Cmp(Sub(Var("x"), Const(0.1)), "="), s, {})


def test_constraint_connectives():
    s = State(bools={"p": True, "q": False}, nums={"x": 1.0})
    pos = Cmp(Var("x"), ">")
    neg = Cmp(Var("x"), "<")
    assert eval_constraint(And((pos, BoolEq("p", True))), s, {})
    assert not eval_constraint(And((pos, neg)), s, {})
    assert eval_constraint(Or((neg, pos)), s, {})
    assert not eval_constraint(Or(()), s, {})
    assert eval_constraint(And(()), s, {})
    assert eval_constraint(Not(neg), s, {})
    assert eval_constraint(BoolEq("q", False), s, {})
    assert eval_constraint(TRUE, s, {})


def test_apply_simultaneous_assignment():
    swap = Action("swap", TRUE, Effect((), (("x", Var("y")), ("y", Var("x")))))
    s = make_state(x=1.0, y=2.0)
    t = try_apply(s, swap, {})
    assert t.nums == {"x": 2.0, "y": 1.0}
    # the source state is untouched
    assert s.nums == {"x": 1.0, "y": 2.0}


def test_apply_checks_precondition():
    act = Action("inc", Cmp(Sub(Var("x"), Const(10.0)), "<"),
                 Effect((), (("x", Add(Var("x"), Var("u", "control"))),)))
    s = make_state(x=10.0)
    assert try_apply(s, act, {"u": 1.0}) is None
    t = try_apply(make_state(x=3.0), act, {"u": 0.25})
    assert t is not None and t.nums["x"] == 3.25


def test_bool_effects():
    act = Action("flip", BoolEq("on", False), Effect((("on", True),), ()))
    s = State(bools={"on": False}, nums={})
    t = try_apply(s, act, {})
    assert t.bools == {"on": True}
    assert try_apply(t, act, {}) is None


def test_goal_test_ignores_controls():
    goal = And((Cmp(Sub(Var("x"), Const(1.0)), ">="),))
    assert goal_test(make_state(x=1.0), goal)
    assert not goal_test(make_state(x=0.5), goal)


def test_replay_plan():
    inc = Action("inc", TRUE, Effect((), (("x", Add(Var("x"), Var("u", "control"))),)))
    p = Problem(
        name="p", bools=(), nums=("x",), controls=(ControlVarSpec("u", 0, 1),),
        actions=(inc,), init=make_state(x=0.0),
        goal=Cmp(Sub(Var("x"), Const(1.0)), ">="),
    )
    end = replay_plan(p, [Decision("inc", {"u": 0.5}), Decision("inc", {"u": 0.5})])
    assert end.nums["x"] == 1.0
    with pytest.raises(ModelError):
        replay_plan(p, [Decision("missing", {})])
    capped = Action("inc", Cmp(Sub(Var("x"), Const(10.0)), "<"), inc.effect)
    at_cap = Problem("p", (), ("x",), (ControlVarSpec("u", 0, 1),),
                     (capped,), make_state(x=10.0), p.goal)
    with pytest.raises(ModelError, match="not applicable"):
        replay_plan(at_cap, [Decision("inc", {"u": 1.0})])


def test_round_half_away():
    assert round_half_away(0.5, 0) == 1
    assert round_half_away(-0.5, 0) == -1
    assert round_half_away(1.5, 0) == 2
    assert round_half_away(2.5, 0) == 3
    assert round_half_away(-2.5, 0) == -3
    assert round_half_away(0.25, 1) == 3  # 2.5 rounds away from zero
    assert round_half_away(-0.25, 1) == -3
    assert round_half_away(1.23449, 4) == 12345
    assert round_half_away(math.inf, 6) == "inf"
    assert round_half_away(-math.inf, 6) == "-inf"
    assert round_half_away(math.nan, 6) == "nan"


def key_problem(bools=(), nums=()):
    """A problem that only declares state variables, for keying states."""
    return Problem("keys", tuple(bools), tuple(nums), (), (), State(), TRUE)


def test_state_key_rounding_and_order():
    xy = key_problem(nums=("x", "y"))
    a = State(bools={}, nums={"x": 0.123456, "y": 1.0})
    b = State(bools={}, nums={"y": 1.0, "x": 0.123456 + 1e-9})
    c = State(bools={}, nums={"x": 0.12347, "y": 1.0})
    assert state_key(a, xy) == state_key(b, xy)
    assert state_key(a, xy) != state_key(c, xy)
    p = key_problem(bools=("p",))
    d = State(bools={"p": True}, nums={})
    e = State(bools={"p": False}, nums={})
    assert state_key(d, p) != state_key(e, p)
    x = key_problem(nums=("x",))
    f = State(bools={}, nums={"x": math.inf})
    g = State(bools={}, nums={"x": -math.inf})
    assert state_key(f, x) != state_key(g, x)
    assert hash(state_key(f, x)) is not None


def test_state_key_needs_every_declared_variable():
    p = key_problem(bools=("p",), nums=("x", "y"))
    with pytest.raises(ModelError, match="'y'"):
        state_key(State(bools={"p": True}, nums={"x": 1.0}), p)
    with pytest.raises(ModelError, match="'p'"):
        state_key(State(bools={}, nums={"x": 1.0, "y": 2.0}), p)
    # a variable the problem does not declare is not part of the key
    extra = State(bools={"p": True, "q": False}, nums={"x": 1.0, "y": 2.0, "z": 3.0})
    assert key_by_name(extra, p) == (True, 1_000_000, 2_000_000)
    assert state_key(extra, p) == state_key(
        State(bools={"p": True}, nums={"x": 1.0, "y": 2.0}), p)


def test_iterators_cover_all_nodes():
    expr = Mul(Add(Var("x"), Const(1.0)), Neg(Pow(Var("u", "control"), 2)))
    kinds = [type(e).__name__ for e in iter_exprs(expr)]
    assert kinds == ["Mul", "Add", "Var", "Const", "Neg", "Pow", "Var"]
    con = Not(And((Cmp(Var("x"), ">"), Or((BoolEq("p", True),)))))
    kinds = [type(c).__name__ for c in iter_constraints(con)]
    assert kinds == ["Not", "And", "Cmp", "Or", "BoolEq"]


def test_walks_work_at_any_depth():
    """The tree walks keep their own stacks: 5000-deep trees walk in the
    order shallow ones do, and reads_control finds a control at the bottom."""
    depth = 5000
    expr = Var("u", "control")
    for _ in range(depth):
        expr = Neg(Sub(Const(1.0), expr))
    kinds = [type(e).__name__ for e in iter_exprs(expr)]
    assert kinds == ["Neg", "Sub", "Const"] * depth + ["Var"]
    con = Cmp(expr, ">")
    for _ in range(depth):
        con = Not(Or((BoolEq("p", True), con)))
    kinds = [type(c).__name__ for c in iter_constraints(con)]
    assert kinds == ["Not", "Or", "BoolEq"] * depth + ["Cmp"]
    assert reads_control(con) and not reads_control(Cmp(Var("x"), ">"))
    tests = [Cmp(Sub(Var("x"), Const(float(i))), ">") for i in range(depth)]
    nested = TRUE
    for test in reversed(tests):
        nested = And((test, nested))
    assert list(conjuncts(nested)) == tests


def test_action_by_name():
    a = Action("a", TRUE, Effect())
    p = Problem("p", (), ("x",), (), (a,), make_state(x=0.0), TRUE)
    assert p.action_by_name("a") is a
    with pytest.raises(ModelError):
        p.action_by_name("nope")


def test_replay_plan_refuses_a_shared_action_name():
    """Two actions named go, adding 1 and 5 to x: a plan step that names go
    could mean either, so replay_plan raises rather than take the first."""
    def go(step):
        return Action("go", TRUE, Effect((), (("x", Add(Var("x"), Const(step))),)))
    p = Problem("twins", (), ("x",), (), (go(1.0), go(5.0)), make_state(x=0.0), TRUE)
    for call in (lambda: p.action_by_name("go"), lambda: replay_plan(p, [Decision("go")])):
        with pytest.raises(ModelError, match="^duplicate action name: go$"):
            call()


# ---------------------------------------------------------------------------
# the goal-count heuristic

X_GE_1 = Cmp(Sub(Var("x"), Const(1.0)), ">=")
Y_GE_1 = Cmp(Sub(Var("y"), Const(1.0)), ">=")
P_TRUE = BoolEq("p", True)


def problem_with_goal(goal):
    return Problem(
        name="t", bools=("p",), nums=("x", "y"), controls=(), actions=(),
        init=State(bools={"p": False}, nums={"x": 0.0, "y": 0.0}), goal=goal,
    )


def test_conjuncts_flatten():
    nested = And((X_GE_1, And((Y_GE_1, And((P_TRUE,)))), And(())))
    assert tuple(conjuncts(nested)) == (X_GE_1, Y_GE_1, P_TRUE)
    assert tuple(conjuncts(X_GE_1)) == (X_GE_1,)
    disj = Or((X_GE_1, Y_GE_1))
    assert tuple(conjuncts(disj)) == (disj,)
    assert tuple(conjuncts(And(()))) == ()


def test_goal_count_values():
    p = problem_with_goal(And((X_GE_1, Y_GE_1, P_TRUE)))
    s0 = State(bools={"p": False}, nums={"x": 0.0, "y": 0.0})
    s1 = State(bools={"p": True}, nums={"x": 1.0, "y": 0.0})
    s2 = State(bools={"p": True}, nums={"x": 1.0, "y": 2.0})
    h = make_heuristic(p)
    assert h(s0) == 3.0
    assert h(s1) == 1.0
    assert h(s2) == 0.0


def test_goal_count_single_disjunction_is_one_conjunct():
    p = problem_with_goal(Or((X_GE_1, Y_GE_1)))
    sat = State(bools={"p": False}, nums={"x": 1.0, "y": 0.0})
    unsat = State(bools={"p": False}, nums={"x": 0.0, "y": 0.0})
    assert make_heuristic(p)(sat) == 0.0
    assert make_heuristic(p)(unsat) == 1.0


def test_goal_count_empty_goal_is_zero():
    p = problem_with_goal(And(()))
    assert make_heuristic(p)(p.init) == 0.0


def test_make_heuristic():
    p = problem_with_goal(And((X_GE_1,)))
    h = make_heuristic(p)
    assert h(State(bools={"p": False}, nums={"x": 0.0, "y": 0.0})) == 1.0


# ---------------------------------------------------------------------------
# the compiled evaluator against the reference oracle

#: names with quotes, backslashes and newlines, which reach the generated
#: source only as repr() dict keys
ODD = "q'\"\\\n"
NUMS = ("x", "y", ODD)
CONTROLS = ("u", ODD + "u")
BOOLS = ("p", ODD + "p")
MISSING = "missing"

special_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, -1e300,
                                  math.inf, -math.inf, math.nan])
values = st.one_of(special_floats, st.floats())

exprs = st.recursive(
    st.one_of(
        st.builds(Const, values),
        st.builds(Var, st.sampled_from(NUMS + (MISSING,)), st.just("state")),
        st.builds(Var, st.sampled_from(CONTROLS), st.just("control")),
    ),
    lambda kids: st.one_of(
        st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids), st.builds(Neg, kids),
        st.builds(Pow, kids, st.sampled_from([0, 1, 2, 3, 10 ** 400, 10 ** 400 + 1])),
    ),
    max_leaves=10,
)

constraints = st.recursive(
    st.one_of(
        st.builds(Cmp, exprs, st.sampled_from(CMP_OPS)),
        st.builds(BoolEq, st.sampled_from(BOOLS + (MISSING,)), st.booleans()),
    ),
    lambda kids: st.one_of(
        st.builds(And, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Or, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Not, kids),
    ),
    max_leaves=8,
)


@st.composite
def valuations(draw):
    state = State(bools={name: draw(st.booleans()) for name in BOOLS},
                  nums={name: draw(values) for name in NUMS})
    return state, {name: draw(values) for name in CONTROLS}


@settings(max_examples=400, deadline=None)
@given(exprs, valuations())
def test_compiled_expr_matches_reference(expr, valuation):
    state, controls = valuation
    got = outcome(eval_expr, expr, state, controls)
    want = outcome(ref_eval_expr, expr, state, controls)
    if want is ModelError:
        assert got is ModelError
    else:
        assert same_float(got, want), (got, want)


@settings(max_examples=400, deadline=None)
@given(constraints, valuations())
def test_compiled_constraint_matches_reference(con, valuation):
    state, controls = valuation
    got = outcome(eval_constraint, con, state, controls)
    assert got is outcome(ref_eval_constraint, con, state, controls)
    assert outcome(goal_test, state, con) is outcome(ref_eval_constraint, con, state, {})


@settings(max_examples=200, deadline=None)
@given(constraints, st.lists(st.tuples(st.sampled_from(NUMS), exprs), max_size=3),
       st.lists(st.tuples(st.sampled_from(BOOLS), st.booleans()), max_size=2),
       valuations())
def test_compiled_action_matches_reference(pre, num_assigns, bool_assigns, valuation):
    state, controls = valuation
    action = Action(ODD, pre, Effect(tuple(bool_assigns), tuple(num_assigns)))
    got = outcome(try_apply, state, action, controls)
    want = outcome(ref_try_apply, state, action, controls)
    if want is ModelError:
        assert got is ModelError
    else:
        assert same_state(got, want), (got, want)


#: 2**63 / 10**6, the magnitude past which a rounded key value leaves int64
_INT64_EDGE = 2 ** 63 / 10 ** 6

key_values = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, 4e-7, 5e-7, -5e-7, 1.5e-6, -2.5e-6, 1.0000005, 1e300,
        math.inf, -math.inf, math.nan, _INT64_EDGE, -_INT64_EDGE,
        *[math.nextafter(sign * _INT64_EDGE, toward)
          for sign in (1, -1) for toward in (0.0, sign * math.inf)]]),
    st.floats())

#: boolean slot values: the booleans, values equal to one, and a value equal
#: to neither
key_flags = st.sampled_from([True, False, 1, 0, 2])


@st.composite
def keyed_states(draw):
    """A problem declaring some of BOOLS and NUMS in any order, and two
    states over exactly those names, each in the problem's layout or in a
    shuffled one, the second often equal or close to the first."""
    bools = draw(st.lists(st.sampled_from(BOOLS), unique=True))
    nums = draw(st.lists(st.sampled_from(NUMS), unique=True))

    def layout(names):
        return draw(st.one_of(st.just(names), st.permutations(names)))

    a_bools = {name: draw(key_flags) for name in bools}
    a_nums = {name: draw(key_values) for name in nums}
    near = lambda v: st.sampled_from([v, v + 4e-7, v - 6e-7, v * (1 + 1e-15)])
    b_bools = {name: draw(st.one_of(st.just(a_bools[name]), key_flags)) for name in bools}
    b_nums = {name: draw(st.one_of(near(a_nums[name]), key_values)) for name in nums}
    a = State(bools={name: a_bools[name] for name in layout(bools)},
              nums={name: a_nums[name] for name in layout(nums)})
    b = State(bools={name: b_bools[name] for name in layout(bools)},
              nums={name: b_nums[name] for name in layout(nums)})
    return key_problem(bools, nums), a, b


@settings(max_examples=500, deadline=None)
@given(keyed_states())
def test_state_key_matches_reference(case):
    """Keys compare as key_by_name's tuples and the old name-sorted keys
    do, whichever path (compiled for the problem's layout, or by name) made
    them."""
    problem, a, b = case
    key_a, key_b = state_key(a, problem), state_key(b, problem)
    assert (key_a == key_b) is (key_by_name(a, problem) == key_by_name(b, problem))
    assert (key_a == key_b) is (ref_state_key(a) == ref_state_key(b))
    assert hash(key_a) is not None and hash(key_b) is not None


def test_key_is_the_reference_tuple():
    """The compiled key builds key_by_name's tuple, and hands the states it
    cannot round inline, or that are in another layout, to key_by_name."""
    problem = key_problem(("p",), ("x",))
    assert state_key(State(bools={"p": True}, nums={"x": 1.5}), problem) == (True, 1_500_000)
    assert state_key(State(bools={"p": 1}, nums={"x": 1.5}), problem) == (
        state_key(State(bools={"p": True}, nums={"x": 1.5}), problem))
    for bools, nums in (({"p": 2}, {"x": 1.5}), ({"p": True}, {"x": math.inf}),
                        ({"p": True}, {"x": math.nan}), ({"p": True}, {"x": 1e13})):
        state = State(bools=bools, nums=nums)
        # in the problem's layout, and in one with an undeclared variable
        for twin in (state, State(bools=bools, nums={**nums, "z": 0.0})):
            key = state_key(twin, problem)
            assert type(key) is tuple and key == key_by_name(state, problem)


def same_by_name(a, b) -> bool:
    """Both None, or the same names with bit-identical values, in any order."""
    if a is None or b is None:
        return a is b
    return (dict(a.bools) == dict(b.bools) and set(a.nums) == set(b.nums)
            and all(same_float(a.nums[k], b.nums[k]) for k in a.nums))


def ref_goal_count(goal, state):
    return float(sum(not ref_eval_constraint(c, state, {}) for c in ref_conjuncts(goal)))


@st.composite
def reordered(draw):
    """A valuation, and the same state with its names listed in a random
    order, so in a layout other than BOOLS then NUMS."""
    state, controls = draw(valuations())
    other = State(bools={name: state.bools[name] for name in draw(st.permutations(BOOLS))},
                  nums={name: state.nums[name] for name in draw(st.permutations(NUMS))})
    return state, other, controls


@settings(max_examples=300, deadline=None)
@given(exprs, constraints,
       st.lists(st.tuples(st.sampled_from(NUMS + (MISSING,)), exprs), max_size=3),
       st.lists(st.tuples(st.sampled_from(BOOLS + (MISSING,)), st.booleans()), max_size=2),
       reordered())
def test_any_layout_matches_reference(expr, con, num_assigns, bool_assigns, case):
    """Code compiled for any layout agrees with the oracle, and with the
    same state in the problem's layout. Effects may assign a name no state
    has."""
    state, other, controls = case
    action = Action(ODD, con, Effect(tuple(bool_assigns), tuple(num_assigns)))
    problem = Problem("p", BOOLS, NUMS, (), (action,), state, con)

    got = outcome(eval_expr, expr, other, controls)
    for want in (outcome(ref_eval_expr, expr, other, controls),
                 outcome(eval_expr, expr, state, controls)):
        assert got is want if want is ModelError else same_float(got, want)
    got = outcome(eval_constraint, con, other, controls)
    assert got is outcome(ref_eval_constraint, con, other, controls)
    assert got is outcome(eval_constraint, con, state, controls)

    succ = outcome(try_apply, other, action, controls)
    want = outcome(ref_try_apply, other, action, controls)
    if want is ModelError:
        assert succ is ModelError
    else:
        assert same_state(succ, want), (succ, want)
        # an assigned name the layout lacks extends it, as it extends a dict
        assert succ is None or succ.layout is want.layout
        assert same_by_name(succ, try_apply(state, action, controls))

    assert outcome(goal_test, other, con) is outcome(ref_eval_constraint, con, other, {})
    assert outcome(goal_test, other, con) is outcome(goal_test, state, con)
    count = outcome(make_heuristic(problem), other)
    assert count == outcome(ref_goal_count, con, other)
    assert count == outcome(make_heuristic(problem), state)
    assert outcome(liveness, other, problem) == outcome(liveness, state, problem)

    key = state_key(state, problem)
    assert key == state_key(other, problem)
    assert key_by_name(state, problem) == (
        *[state.bools[name] for name in BOOLS],
        *[round_half_away(state.nums[name], 6) for name in NUMS])


@settings(max_examples=400, deadline=None)
@given(st.lists(key_values, min_size=len(NUMS), max_size=len(NUMS)))
def test_inline_key_rounding_matches_round_half_away(nums):
    """A state in the problem's layout keys through the compiled function."""
    problem = key_problem(BOOLS[:1], NUMS)
    state = State(bools={BOOLS[0]: True}, nums=dict(zip(NUMS, nums)))
    assert key_by_name(state, problem) == (True, *[round_half_away(v, 6) for v in nums])
    # the same values in another layout key by name
    other = State(bools={BOOLS[0]: True}, nums=dict(reversed(list(zip(NUMS, nums)))))
    assert other.layout is not state.layout
    assert state_key(state, problem) == state_key(other, problem)


def test_state_pickles_and_copies_keep_the_layout():
    s = State(bools={"q": True, "p": False}, nums={"y": 1.0, "x": -0.0})
    for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert twin == s and twin.layout is s.layout
        assert list(twin.bools) == ["q", "p"] and list(twin.nums) == ["y", "x"]
    # equal as mappings whatever the order of the names; never hashable
    assert s == State(bools={"p": False, "q": True}, nums={"x": -0.0, "y": 1.0})
    assert s != State(bools={"p": False, "q": True}, nums={"x": -0.0, "y": 2.0})
    with pytest.raises(TypeError):
        hash(s)


def test_decision_from_a_mapping():
    d = Decision("inc", {"u": 0.5, "v": -1.0})
    assert d.action == "inc" and d.controls == {"u": 0.5, "v": -1.0}
    for empty in (Decision("noop", {}), Decision("noop")):
        assert empty.controls == {}
    assert Decision("noop") == Decision("noop", {})
    # any other mapping becomes a dict; a dict is held as given
    proxied = Decision("inc", MappingProxyType({"u": 0.5, "v": -1.0}))
    assert type(proxied.controls) is dict and proxied == d
    controls = {"u": 0.5}
    assert Decision("inc", controls).controls is controls
    # the dataclasses module sees the fields action and controls
    assert dataclasses.replace(d, action="dec") == Decision("dec", {"u": 0.5, "v": -1.0})
    assert dataclasses.asdict(d) == {"action": "inc", "controls": {"u": 0.5, "v": -1.0}}


def test_plan_and_tree_share_no_controls_dict():
    """Writing to one plan step's controls changes neither the decisions
    the search tree reads back nor the plan's other steps."""
    problem = generate(default_ladder()[5])        # sailing: two controls
    result = run_search(problem, SearchConfig(seed=1, expansion_limit=3000))
    assert result.outcome == "solved" and len(result.plan) > 1
    tree = result.root.tree
    decisions = copy.deepcopy([TreeNode(tree, uid).decision for uid in range(len(tree))])
    rest = copy.deepcopy(result.plan[1:])
    for name in problem._control_names:
        result.plan[0].controls[name] = math.inf
    assert [TreeNode(tree, uid).decision for uid in range(len(tree))] == decisions
    assert result.plan[1:] == rest


def test_decision_equality_repr_and_hash():
    d = Decision("inc", {"u": 0.5, "v": 1.0})
    assert d == Decision("inc", {"u": 0.5, "v": 1.0})
    # controls compare as dicts, whatever their order
    assert d == Decision("inc", {"v": 1.0, "u": 0.5})
    assert d != Decision("dec", {"u": 0.5, "v": 1.0})
    assert d != Decision("inc", {"u": 0.5})
    assert d != ("inc", {"u": 0.5, "v": 1.0})
    # the repr of the dataclass Decision was
    assert repr(d) == "Decision(action='inc', controls={'u': 0.5, 'v': 1.0})"
    assert repr(Decision("noop")) == "Decision(action='noop', controls={})"
    with pytest.raises(TypeError):
        hash(d)


def test_decision_pickles_and_copies():
    for d in (Decision("inc", {"u": 0.5, "v": -0.0}), Decision("noop")):
        pickled = [pickle.loads(pickle.dumps(d, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*pickled, copy.copy(d), copy.deepcopy(d)):
            assert twin == d and twin is not d


def test_sampled_decisions():
    """A sampler's decisions hold the problem's control names in declared
    order and equal the decisions the constructor builds."""
    problem = generate(default_ladder()[5])        # sailing: two controls
    result = run_search(problem, SearchConfig(seed=1, expansion_limit=3000))
    assert result.outcome == "solved" and len(result.plan) > 1
    for d in result.plan:
        assert list(d.controls) == list(problem._control_names)
        assert Decision(d.action, d.controls) == d


def test_state_views_are_read_only():
    s = State(bools={"p": True}, nums={"x": 1.0})
    assert s.nums == {"x": 1.0} and dict(s.bools) == {"p": True}
    assert "x" in s.nums and "y" not in s.nums and s.nums.get("y") is None
    for view, name in ((s.bools, "p"), (s.nums, "x")):
        with pytest.raises(TypeError):
            view[name] = 0.0
        with pytest.raises(TypeError):
            del view[name]
    assert s == State(bools={"p": True}, nums={"x": 1.0})


def test_layouts_are_interned_and_released():
    a = State(nums={"x": 1.0, "y": 2.0})
    assert a.layout is State(nums={"x": 3.0, "y": 4.0}).layout
    assert a.layout is not State(nums={"y": 2.0, "x": 1.0}).layout
    before = len(model._LAYOUTS)
    for i in range(100):
        State(nums={f"fresh{i}": 0.0})
    assert len(model._LAYOUTS) <= before


def test_unbound_names_raise_model_error():
    state = State(bools={"p": True}, nums={"x": 1.0})
    with pytest.raises(ModelError, match="unbound variable: 'y'"):
        eval_expr(Add(Var("x"), Var("y")), state, {})
    with pytest.raises(ModelError, match="unbound boolean variable: 'q'"):
        eval_constraint(And((BoolEq("p", True), BoolEq("q", True))), state, {})
    with pytest.raises(ModelError, match="unbound variable: 'u'"):
        goal_test(state, Cmp(Var("u", "control"), ">"))
    # the left operand is looked up first, as in the interpreter
    with pytest.raises(ModelError, match="'a'"):
        eval_expr(Sub(Var("a"), Mul(Var("b"), Const(2.0))), state, {})
    # short-circuiting skips the unbound name
    assert eval_constraint(Or((BoolEq("p", True), BoolEq("q", True))), state, {})


@pytest.mark.parametrize("nested", [True, False])
def test_deep_precondition_from_text(nested):
    """A 900-deep sum: the source nests no parentheses, one local per node."""
    depth = 900
    if nested:
        expr = "x"
        for _ in range(depth):
            expr = f"(+ {expr} 1.0)"
    else:
        expr = "(+ x" + " 1.0" * depth + ")"
    text = f"""(problem deep (bools) (nums (x 0.0)) (controls)
      (action a (pre (< {expr} 2000.0)) (eff (assign x {expr})))
      (goal (>= x 1.0)))"""
    p, diags = parse_problem(text)
    assert p is not None, diags
    succ = try_apply(p.init, p.actions[0], {})
    assert succ == State(bools={}, nums={"x": 900.0})
    assert try_apply(succ, p.actions[0], {}) == State(bools={}, nums={"x": 1800.0})
    assert try_apply(State({}, {"x": 1100.0}), p.actions[0], {}) is None


def test_deep_connectives():
    """and/or under or/not nested past the tokenizer's indentation limit."""
    x_pos = Cmp(Var("x"), ">")
    con = x_pos
    for i in range(110):
        con = Or((Not(x_pos), con)) if i % 2 else Not(Not(And((x_pos, con))))
    for x in (1.0, -1.0, math.nan):
        state = State({}, {"x": x})
        assert eval_constraint(con, state, {}) is ref_eval_constraint(con, state, {})


#: wrappers that leave a constraint's truth as it is: each call adds a level
SAME_TRUTH = {
    "and": lambda con, i: And((con,)),
    "or": lambda con, i: Or((con,)),
    "not-not": lambda con, i: Not(Not(con)),
    "alternating": lambda con, i: (And((con, TRUE)), Or((con,)), Not(Not(con)))[i % 3],
}


def wrapped(con, shape, depth):
    for i in range(depth):
        con = SAME_TRUTH[shape](con, i)
    return con


def deepest_indent(con):
    em = codegen._Emitter(layout_of((), ("x",)))
    em.require(con, "return False")
    return max(len(line) - len(line.lstrip(" ")) for line in em.lines)


@pytest.mark.parametrize("shape", sorted(SAME_TRUTH))
def test_connectives_at_any_depth(shape):
    """3000 levels in a precondition, a free precondition conjunct and a
    goal act as their shallow twins do, and the source indents no deeper
    than at 50 levels."""
    free, ctl, goal = (Cmp(Var("x"), ">"), Cmp(Sub(Var("x"), Var("u", "control")), ">"),
                       Cmp(Sub(Var("x"), Const(1.0)), ">"))
    eff = Effect((), (("x", Add(Var("x"), Var("u", "control"))),))

    def problem(wrap):
        act = Action("a", And((wrap(free), wrap(ctl))), eff)
        return Problem("deep", (), ("x",), (ControlVarSpec("u", 0, 1),), (act,),
                       State({}, {"x": 0.5}), And((wrap(goal),)))
    deep, shallow = problem(lambda con: wrapped(con, shape, 3000)), problem(lambda con: con)
    h_deep, h_shallow = make_heuristic(deep), make_heuristic(shallow)
    for x in (2.0, 0.75, -1.0, math.nan):
        state = State({}, {"x": x})
        for mu in ({"u": 0.5}, {"u": 0.0}):
            pre = deep.actions[0].precondition
            for con, twin in zip((pre, *pre.items), (shallow.actions[0].precondition, free, ctl)):
                assert eval_constraint(con, state, mu) is eval_constraint(twin, state, mu)
            assert same_state(try_apply(state, deep.actions[0], mu),
                              try_apply(state, shallow.actions[0], mu))
        assert goal_test(state, deep.goal) is goal_test(state, shallow.goal)
        assert h_deep(state) == h_shallow(state)
        assert liveness(state, deep) == liveness(state, shallow)
    with pytest.raises(ModelError, match="unbound variable: 'u'"):
        try_apply(State({}, {"x": 2.0}), deep.actions[0], {})
    unbound = State({}, {"y": 1.0})
    for check in (lambda: goal_test(unbound, deep.goal), lambda: h_deep(unbound),
                  lambda: liveness(unbound, deep)):
        with pytest.raises(ModelError, match="unbound variable: 'x'"):
            check()
    config = SearchConfig(seed=0, expansion_limit=2000, time_limit=30.0)
    result = run_search(deep, config)
    assert result.outcome == "solved"
    assert result.plan == run_search(shallow, config).plan
    assert validate(deep) == validate(shallow)
    for con in (free, ctl):
        assert deepest_indent(wrapped(con, shape, 50)) == deepest_indent(wrapped(con, shape, 3000))


def test_huge_exponent():
    huge = 10 ** 5000
    cases = [(Pow(Var("x"), huge), 2.0, math.inf), (Pow(Var("x"), huge + 1), -2.0, -math.inf),
             (Pow(Var("x"), huge), -2.0, math.inf), (Pow(Var("x"), huge), 0.5, 0.0),
             (Pow(Var("x"), huge + 1), -1.0, -1.0), (Pow(Var("x"), huge), math.nan, math.nan)]
    for expr, x, want in cases:
        state = State({}, {"x": x})
        assert same_float(eval_expr(expr, state, {}), want)
        assert same_float(ref_eval_expr(expr, state, {}), want)
    act = Action("a", Cmp(Sub(Pow(Var("x"), huge), Const(1.0)), ">"),
                 Effect((), (("x", Pow(Var("x"), huge + 1)),)))
    assert try_apply(State({}, {"x": -2.0}), act, {}) == State({}, {"x": -math.inf})
    assert try_apply(State({}, {"x": 0.5}), act, {}) is None


def test_odd_names_in_a_handbuilt_problem():
    x, u, flag = "x'\"\n", "u\\'", 'done"\n'
    inc = Action("inc 'it'\n\\", And((BoolEq(flag, False), Cmp(Sub(Var(x), Const(3.0)), "<"))),
                 Effect((), ((x, Add(Var(x), Var(u, "control"))),)))
    finish = Action('fin"\\', Cmp(Sub(Var(x), Const(3.0)), ">="), Effect(((flag, True),), ()))
    p = Problem("odd", (flag,), (x,), (ControlVarSpec(u, 0, 1),), (inc, finish),
                State({flag: False}, {x: 0.0}), BoolEq(flag, True))
    for state, mu in [(p.init, {u: 0.75}), (State({flag: False}, {x: 3.5}), {u: 0.0})]:
        for act in p.actions:
            assert same_state(try_apply(state, act, mu), ref_try_apply(state, act, mu))
    result = run_search(p, SearchConfig(seed=0, expansion_limit=2000, time_limit=30.0))
    assert result.outcome == "solved"
    assert goal_test(replay_plan(p, result.plan), p.goal)


def ref_conjuncts(con):
    if isinstance(con, And):
        return [c for item in con.items for c in ref_conjuncts(item)]
    return [con]


def ref_reads_control(con):
    return any(isinstance(e, Var) and e.kind == "control"
               for node in iter_constraints(con) if isinstance(node, Cmp)
               for e in iter_exprs(node.expr))


@settings(max_examples=400, deadline=None)
@given(constraints, valuations())
def test_state_test_matches_reference(pre, valuation):
    """liveness evaluates the top-level conjuncts that read no control;
    where they fail, no control value makes the action applicable."""
    state, controls = valuation
    action = Action(ODD, pre, Effect())
    problem = Problem("p", BOOLS, NUMS, (), (action,), state, TRUE)
    free = And(tuple(c for c in ref_conjuncts(pre) if not ref_reads_control(c)))
    live = outcome(liveness, state, problem)
    live = live if live is ModelError else live[0]
    assert live is outcome(ref_eval_constraint, free, state, {})
    if live is False:
        assert outcome(ref_try_apply, state, action, controls) in (None, ModelError)


def test_drone_state_tests():
    p = make_drone(4, 2, points=[(0, 0, 0), (4, 4, 4)])
    move, near, far = p.actions
    dead = State(p.init.bools, {**p.init.nums, "b": 0.0})
    assert liveness(dead, p)[0] is True   # every move conjunct reads a control
    assert liveness(p.init, p) == [True, True, False]


def test_compiled_code_stays_out_of_equality_repr_and_pickles():
    p = generate(default_ladder()[5])          # sailing: the goal has conjuncts
    text, action_hash = repr(p), hash(p.actions[0])
    run_search(p, SearchConfig(seed=0, expansion_limit=300))
    make_heuristic(p)(p.init)
    assert "_liveness" in p.__dict__ and "_control_box" in p.__dict__
    assert repr(p) == text
    assert hash(p.actions[0]) == action_hash
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and repr(copy) == text
    # the copy compiles afresh and gives the same successors
    mu = {spec.name: 0.5 for spec in p.controls}
    assert try_apply(copy.init, copy.actions[0], mu) == try_apply(p.init, p.actions[0], mu)


def test_codegen_is_imported_by_the_first_evaluation(tmp_path):
    """Importing cvplan, generating, serializing, loading and validating a
    problem compile no code generator; evaluating a goal imports it."""
    path = tmp_path / "p.plan"
    script = f"""
import sys
import cvplan
from cvplan import domains, dsl
problem = domains.generate(domains.default_ladder()[0])
with open({str(path)!r}, "w") as fh:
    fh.write(dsl.serialize_problem(problem))
loaded, diags = dsl.load_problem({str(path)!r})
assert loaded == problem and dsl.validate(loaded) == diags == []
assert "cvplan.codegen" not in sys.modules
cvplan.goal_test(loaded.init, loaded.goal)
assert "cvplan.codegen" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# normalization on construction

#: numbers a problem may be built with: floats, ints and a bool that a
#: float equals, and an int that no float equals
BUILT_NUMBERS = (0.0, -1.5, 0, 3, True, 2 ** 53 + 1)
#: boolean values: 0, 1 and 1.0 normalize to bools, 2 stays as it is
BUILT_BOOLEANS = (True, False, 0, 1, 1.0, 2)


@settings(max_examples=200, deadline=None)
@given(st.permutations(("p", "q")), st.permutations(("x", "y")),
       st.lists(st.sampled_from(BUILT_BOOLEANS), min_size=2, max_size=2),
       st.lists(st.sampled_from(BUILT_NUMBERS), min_size=2, max_size=2),
       st.lists(st.tuples(st.sampled_from(("p", "q")), st.sampled_from(BUILT_BOOLEANS)),
                max_size=2, unique_by=lambda pair: pair[0]),
       st.lists(st.tuples(st.sampled_from(("x", "y")), st.sampled_from(BUILT_NUMBERS)),
                max_size=2, unique_by=lambda pair: pair[0]))
def test_problems_normalize_to_equal_problems(bool_order, num_order, bools, nums,
                                             sets, assigns):
    """States, effects and constants keep == to the values they were built
    with and hold bools and floats wherever these equal them; a problem puts
    its init in declared order. Normalizing again changes nothing, pickles
    keep the normal form, and run_search runs the problem exactly when
    nothing was left to mend."""
    raw_bools, raw_nums = dict(zip(bool_order, bools)), dict(zip(num_order, nums))
    init = State(raw_bools, raw_nums)
    assert init.bools == raw_bools and init.nums == raw_nums
    consts = [Const(value) for _, value in assigns]
    assert [c.value for c in consts] == [value for _, value in assigns]
    u = Var("u", "control")
    step = Action("step", TRUE, Effect(tuple(sets), tuple(
        (name, Add(Var(name), Mul(c, u))) for (name, _), c in zip(assigns, consts))))
    assert step.effect.bool_assigns == tuple(sets)
    p = Problem("p", ("p", "q"), ("x", "y"), (ControlVarSpec("u", 0, 1),), (step,), init, TRUE)
    assert p.init == init and p.init.layout is layout_of(("p", "q"), ("x", "y"))
    flags = [*p.init.bool_values, *[value for _, value in step.effect.bool_assigns]]
    numbers = [*p.init.num_values, *[c.value for c in consts]]
    assert all(v is True or v is False or v == 2 for v in flags)
    assert all(type(v) is float or v == 2 ** 53 + 1 for v in numbers)
    again = dataclasses.replace(p, init=State(p.init.bools, p.init.nums),
                                actions=(dataclasses.replace(step),))
    assert again == p and repr(again) == repr(p)
    assert all(map(operator.is_, again.init.bool_values + again.init.num_values,
                   p.init.bool_values + p.init.num_values))
    assert all(map(operator.is_, [Const(c.value).value for c in consts], [c.value for c in consts]))
    assert again.actions[0].effect.bool_assigns is step.effect.bool_assigns
    copied = pickle.loads(pickle.dumps(p))
    assert copied == p and repr(copied) == repr(p)
    assert copied.init.layout is p.init.layout
    normal = 2 not in flags and 2 ** 53 + 1 not in numbers
    try:
        run_search(p, SearchConfig(seed=0, expansion_limit=20))
    except ValueError:
        assert not normal
    else:
        assert normal


def test_normal_problems_keep_their_parts():
    """A boolean assigned 1 now holds True, which BoolEq's is test accepts;
    a problem whose init is in declared order keeps its very init and
    actions, as every generated and parsed problem does."""
    act = Action("a", TRUE, Effect((("b", 1),), (("x", Add(Var("x"), Const(1))),)))
    p = Problem("p", ("b",), ("x",), (), (act,), State({"b": False}, {"x": 0}), TRUE)
    assert p.actions[0] is act and act.effect.bool_assigns == (("b", True),)
    succ = try_apply(p.init, act, {})
    assert (succ.bool_values, succ.num_values) == ((True,), (1.0,))
    assert type(succ.num_values[0]) is float
    assert eval_constraint(BoolEq("b", True), succ, {})
    generated = generate(default_ladder()[5])
    for g in (generated, parse_problem(serialize_problem(generated))[0]):
        rebuilt = Problem(*[getattr(g, f.name) for f in dataclasses.fields(g)])
        assert rebuilt.init is g.init and rebuilt.actions is g.actions
    reordered = Problem("p", ("b",), ("x", "y"), (), (), State({"b": 1}, {"y": 2, "x": 0}), TRUE)
    assert reordered.init.layout is layout_of(("b",), ("x", "y"))
    assert (reordered.init.bool_values, reordered.init.num_values) == ((True,), (0.0, 2.0))

import math

import pytest

from cvplan.model import (
    Action, Add, And, BoolEq, Cmp, Const, ControlVarSpec, Decision, Effect,
    ModelError, Mul, Neg, Not, Or, Pow, Problem, State, Sub, TRUE, Var,
    eval_constraint, eval_expr, goal_test, iter_constraints, iter_exprs,
    replay_plan, round_half_away, state_key, try_apply,
)


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


def test_state_key_rounding_and_order():
    a = State(bools={}, nums={"x": 0.123456, "y": 1.0})
    b = State(bools={}, nums={"y": 1.0, "x": 0.123456 + 1e-9})
    c = State(bools={}, nums={"x": 0.12347, "y": 1.0})
    assert state_key(a) == state_key(b)
    assert state_key(a) != state_key(c)
    d = State(bools={"p": True}, nums={})
    e = State(bools={"p": False}, nums={})
    assert state_key(d) != state_key(e)
    f = State(bools={}, nums={"x": math.inf})
    g = State(bools={}, nums={"x": -math.inf})
    assert state_key(f) != state_key(g)
    assert hash(state_key(f)) is not None


def test_iterators_cover_all_nodes():
    expr = Mul(Add(Var("x"), Const(1.0)), Neg(Pow(Var("u", "control"), 2)))
    kinds = [type(e).__name__ for e in iter_exprs(expr)]
    assert kinds == ["Mul", "Add", "Var", "Const", "Neg", "Pow", "Var"]
    con = Not(And((Cmp(Var("x"), ">"), Or((BoolEq("p", True),)))))
    kinds = [type(c).__name__ for c in iter_constraints(con)]
    assert kinds == ["Not", "And", "Cmp", "Or", "BoolEq"]


def test_action_by_name():
    a = Action("a", TRUE, Effect())
    p = Problem("p", (), ("x",), (), (a,), make_state(x=0.0), TRUE)
    assert p.action_by_name("a") is a
    with pytest.raises(ModelError):
        p.action_by_name("nope")

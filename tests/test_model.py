import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from cvplan.domains import default_ladder, generate
from cvplan.dsl import parse_problem
from cvplan.heuristics import make_heuristic
from cvplan.model import (
    CMP_OPS, Action, Add, And, BoolEq, Cmp, Const, ControlVarSpec, Decision,
    Effect, ModelError, Mul, Neg, Not, Or, Pow, Problem, State, Sub, TRUE, Var,
    eval_constraint, eval_expr, goal_test, iter_constraints, iter_exprs,
    replay_plan, round_half_away, state_key, try_apply,
)
from cvplan.search import SearchConfig, run_search


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
    assert state_key(extra, p) == (True, 1_000_000, 2_000_000)


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


key_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 4e-7, 5e-7, -5e-7, 1.0000005, 1e300,
                     math.inf, -math.inf, math.nan]),
    st.floats())


@st.composite
def keyed_states(draw):
    """A problem declaring some of BOOLS and NUMS in any order, and two
    states over exactly those names, built in any dict order, the second
    often close to the first."""
    bools = draw(st.lists(st.sampled_from(BOOLS), unique=True))
    nums = draw(st.lists(st.sampled_from(NUMS), unique=True))
    a = State(bools={name: draw(st.booleans()) for name in draw(st.permutations(bools))},
              nums={name: draw(key_values) for name in draw(st.permutations(nums))})
    near = lambda v: st.sampled_from([v, v + 4e-7, v - 6e-7, v * (1 + 1e-15)])
    b = State(bools={name: draw(st.booleans()) for name in draw(st.permutations(bools))},
              nums={name: draw(st.one_of(near(a.nums[name]), key_values))
                    for name in draw(st.permutations(nums))})
    return key_problem(bools, nums), a, b


@settings(max_examples=400, deadline=None)
@given(keyed_states())
def test_state_key_matches_reference(case):
    problem, a, b = case
    key_a, key_b = state_key(a, problem), state_key(b, problem)
    assert (key_a == key_b) is (ref_state_key(a) == ref_state_key(b))
    assert hash(key_a) is not None


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


def test_compiled_code_stays_out_of_equality_repr_and_pickles():
    p = generate(default_ladder()[5])          # sailing: the goal has conjuncts
    text, action_hash = repr(p), hash(p.actions[0])
    run_search(p, SearchConfig(seed=0, expansion_limit=300))
    make_heuristic(p)(p.init)
    assert repr(p) == text
    assert hash(p.actions[0]) == action_hash
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and repr(copy) == text
    # the copy compiles afresh and gives the same successors
    mu = {spec.name: 0.5 for spec in p.controls}
    assert try_apply(copy.init, copy.actions[0], mu) == try_apply(p.init, p.actions[0], mu)

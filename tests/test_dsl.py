import hashlib
import math
import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from cvplan.search import MctsConfig, SearchConfig, run_mcts, run_search
from cvplan.dsl import (
    _FULL, _diagnostics, _expr_interval, _fold_constraint, _iv_add, _iv_mul, _iv_pow,
    _iv_sub, _read, Diagnostic, SAtom, SList, SourceSpan, SYNTHETIC_SPAN, key_values,
    load_problem, parse_problem, serialize_plan, serialize_problem, validate,
)
from cvplan.domains import InstanceSpec, generate
from cvplan.model import (
    Add, And, BoolEq, Cmp, Const, ControlVarSpec, Decision, Effect, Action,
    CMP_OPS, Mul, Neg, Not, Or, Pow, Problem, State, Sub, TRUE, Var, iter_constraints,
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


def parse_ok(text):
    problem, diags = parse_problem(text)
    assert problem is not None, [str(d) for d in diags]
    assert not [d for d in diags if d.severity == "error"]
    return problem


def parse_err(text):
    problem, diags = parse_problem(text)
    assert problem is None
    errors = [d for d in diags if d.severity == "error"]
    assert errors
    return errors


def test_parse_counters_document():
    p = parse_ok(COUNTERS_2)
    assert p.name == "counters-2"
    assert p.bools == ()
    assert p.nums == ("c0", "c1")
    assert p.init.nums == {"c0": 0.0, "c1": 0.0}
    assert p.controls == (ControlVarSpec("u", 0, 1),)
    assert [a.name for a in p.actions] == ["inc-c0", "dec-c0", "inc-c1", "dec-c1"]

    inc = p.actions[0]
    # (<= (+ c0 u) 10) normalizes to (+ c0 u) - 10 <= 0
    assert inc.precondition == Cmp(
        Sub(Add(Var("c0"), Var("u", "control")), Const(10.0)), "<=")
    assert inc.effect.num_assigns == (
        ("c0", Add(Var("c0"), Var("u", "control"))),)
    assert inc.effect.bool_assigns == ()

    # zero right-hand side is folded away rather than subtracted
    dec = p.actions[1]
    assert dec.precondition == Cmp(Sub(Var("c0"), Var("u", "control")), ">=")

    assert p.goal == And((
        Cmp(Sub(Var("c1"), Add(Var("c0"), Const(1.0))), ">="),))


def test_minimal_document():
    p = parse_ok("(problem p (bools) (nums) (controls) (goal (and)))")
    assert p.name == "p"
    assert p.bools == () and p.nums == () and p.controls == ()
    assert p.actions == ()
    assert p.goal == And(())


def test_bool_initializers():
    p = parse_ok("(problem p (bools a (b true) (c false)) (nums) (controls) "
                 "(goal (= b true)))")
    assert p.init.bools == {"a": False, "b": True, "c": False}
    assert p.goal == BoolEq("b", True)


def test_comments_and_whitespace():
    text = "; leading comment\n(problem p ; name\n (bools)\n\t(nums)\r\n" \
           " (controls) (goal (and)) ) ; trailing"
    assert parse_ok(text).name == "p"


def test_boolean_set_effects():
    p = parse_ok("(problem p (bools done) (nums (x 1.0)) (controls) "
                 "(action fin (pre (>= x 1)) (eff (set done true) (assign x 0)))"
                 " (goal (= done true)))")
    act = p.actions[0]
    assert act.effect.bool_assigns == (("done", True),)
    assert act.effect.num_assigns == (("x", Const(0.0)),)


def test_numeric_operators_and_power():
    p = parse_ok("(problem p (bools) (nums (x 2.0)) (controls (u 0 1)) "
                 "(action a (pre (and)) (eff (assign x (* (^ x 2) (+ u 1 x)))))"
                 " (goal (and)))")
    (_, expr), = p.actions[0].effect.num_assigns
    # (+ u 1 x) folds left: ((u + 1) + x)
    assert expr == Mul(Pow(Var("x"), 2),
                       Add(Add(Var("u", "control"), Const(1.0)), Var("x")))


def test_unary_minus():
    p = parse_ok("(problem p (bools) (nums (x 1.0)) (controls) "
                 "(action a (pre (>= (- x) -5)) (eff (assign x (- x))))"
                 " (goal (and)))")
    (_, expr), = p.actions[0].effect.num_assigns
    assert expr == Neg(Var("x"))


# -- parse errors -----------------------------------------------------------

def test_error_lexical():
    errs = parse_err("(problem 9bad (bools) (nums) (controls) (goal (and)))")
    assert "expected problem name" in errs[0].message
    assert errs[0].span.line == 1 and errs[0].span.col == 10


def test_error_unbalanced():
    errs = parse_err("(problem p (bools)")
    assert any("unclosed parenthesis" in e.message for e in errs)
    errs = parse_err("(problem p (bools) (nums) (controls) (goal (and))))")
    assert any("unmatched closing parenthesis" in e.message for e in errs)


def test_error_undeclared_variable():
    errs = parse_err("(problem p (bools) (nums) (controls) (goal (>= z 0)))")
    assert "undeclared variable: z" in errs[0].message
    assert errs[0].span.line == 1


def test_error_control_in_goal():
    errs = parse_err("(problem p (bools) (nums) (controls (u 0 1)) "
                     "(goal (>= u 0)))")
    assert "control variable not allowed here: u" in errs[0].message


def test_error_non_integer_bound():
    errs = parse_err("(problem p (bools) (nums) (controls (u 0 1.5)) "
                     "(goal (and)))")
    assert "integer" in errs[0].message
    # longer than the interpreter's int digit limit, as a bound and as an
    # exponent
    errs = parse_err("(problem p (bools) (nums) (controls (u 0 1%s)) "
                     "(goal (and)))" % ("0" * 5000))
    assert "integer" in errs[0].message
    errs = parse_err("(problem p (bools) (nums (x 0)) (controls) "
                     "(goal (>= (^ x 1%s) 0)))" % ("0" * 5000))
    assert "integer" in errs[0].message


def test_error_bound_order():
    errs = parse_err("(problem p (bools) (nums) (controls (u 2 1)) "
                     "(goal (and)))")
    assert errs[0].message == "lower bound must be < upper bound"


def test_error_duplicate_declaration():
    errs = parse_err("(problem p (bools) (nums (x 0) (x 1)) (controls) "
                     "(goal (and)))")
    assert "duplicate declaration: x" in errs[0].message
    errs = parse_err("(problem p (bools x) (nums (x 0)) (controls) "
                     "(goal (and)))")
    assert "duplicate declaration: x" in errs[0].message


def test_error_assign_to_control():
    errs = parse_err("(problem p (bools) (nums) (controls (u 0 1)) "
                     "(action a (pre (and)) (eff (assign u 0))) (goal (and)))")
    assert "control variables cannot be assigned" in errs[0].message


def test_error_empty_and_multiple():
    assert "empty document" in parse_err("  ; nothing\n")[0].message
    assert "single (problem" in parse_err("(problem p (bools) (nums) "
                                          "(controls) (goal (and))) (extra)")[0].message


def test_error_spans_point_into_source():
    text = "(problem p (bools) (nums)\n  (controls (u 0 one))\n  (goal (and)))"
    errs = parse_err(text)
    span = errs[0].span
    assert text[span.start:span.end] == "one"
    assert span.line == 2


GRAMMAR_CASES = [
    # (text, message, line, column of the offending form)
    ("(problem p (bools f) (nums) (controls)\n"
     "  (action a (pre (and)) (eff (set f maybe)))\n  (goal (and)))",
     "expected true or false", 2, 37),
    ("(problem p (bools) (nums (x 0)) (controls)\n  (goal (>= (^ x) 0)))",
     "expected (^ expr int)", 2, 13),
    ("(problem p (bools) (nums (x 0)) (controls)\n  (goal (>= (^ x -1) 0)))",
     "exponent must be nonnegative", 2, 18),
    ("(problem p (bools) (nums (x 0)) (controls)\n  (goal (and (not))))",
     "not takes exactly one constraint", 2, 14),
    ("(problem p (bools f) (nums) (controls)\n"
     "  (action a (pre (and)) (eff (set f)))\n  (goal (and)))",
     "expected (set name bool)", 2, 30),
    ("(problem p (bools) (nums) (controls)\n  (goal))",
     "expected (goal constraint)", 2, 3),
]


@pytest.mark.parametrize("text, message, line, col", GRAMMAR_CASES)
def test_grammar_errors_at_their_form(text, message, line, col):
    """Each grammar message points at the form it rejects."""
    err = parse_err(text)[0]
    assert (err.message, err.span.line, err.span.col) == (message, line, col)


# -- validation -------------------------------------------------------------

def test_validate_clean_problem():
    assert validate(parse_ok(COUNTERS_2)) == []


def test_validate_unsat_precondition_warning():
    p = parse_ok("(problem p (bools) (nums (x 0.0)) (controls (u 0 1)) "
                 "(action a (pre (>= (- u 2) 0)) (eff (assign x u)))"
                 " (goal (and)))")
    warnings = [d for d in validate(p) if d.severity == "warning"]
    assert any("unsatisfiable over the control box" in w.message for w in warnings)


def test_validate_non_conjunction_goal_warning():
    p = parse_ok("(problem p (bools) (nums (x 0.0)) (controls) "
                 "(goal (>= x 1)))")
    warnings = [d for d in validate(p) if d.severity == "warning"]
    assert any("not a conjunction" in w.message for w in warnings)


def test_validate_measure_zero_equality_warning():
    p = parse_ok("(problem p (bools) (nums (x 0.0)) (controls (u 0 1)) "
                 "(action a (pre (= u 0.5)) (eff (assign x u)))"
                 " (goal (and)))")
    warnings = [d for d in validate(p) if d.severity == "warning"]
    assert any("measure-zero" in w.message for w in warnings)


def test_validate_catches_handbuilt_errors():
    p = Problem(
        name="bad", bools=(), nums=("x",), controls=(),
        actions=(Action("a", And(()), Effect((), (("y", Const(1.0)),))),),
        init=State(bools={}, nums={"x": 0.0}),
        goal=And(()),
    )
    errors = [d for d in validate(p) if d.severity == "error"]
    assert any("assign target y" in e.message for e in errors)
    p = Problem(name="big", bools=(), nums=(), actions=(), goal=And(()),
                controls=(ControlVarSpec("u", 0, 10 ** 400),), init=State())
    errors = [d for d in validate(p) if d.severity == "error"]
    assert any("control u: bounds are beyond the float range" in e.message
               for e in errors)
    text = "(problem p (bools) (nums) (controls (u 0 1%s)) (goal (and)))" % ("0" * 400)
    errs = parse_err(text)
    assert errs[0].message == "bounds are beyond the float range"
    assert text[errs[0].span.start:errs[0].span.end] == "(u 0 1%s)" % ("0" * 400)


def test_validate_refuses_non_finite_numbers():
    def problem(init=0.0, const=1.0, pre=2.0):
        act = Action("a", Cmp(Sub(Var("x"), Const(pre)), "<"),
                     Effect((), (("x", Add(Var("x"), Const(const))),)))
        return Problem("p", (), ("x",), (), (act,), State({}, {"x": init}), And(()))

    assert validate(problem()) == []
    # an int beyond the float range or that no float equals, a string and
    # None are no finite number
    for bad in (math.nan, math.inf, -math.inf, 10 ** 400, 2 ** 53 + 1, "1", None):
        (err,) = validate(problem(const=bad))
        assert err.message == "action a: not a finite number"
        (err,) = validate(problem(pre=bad))
        assert err.message == "action a precondition: not a finite number"
        (err,) = validate(problem(init=bad))
        assert err.message == "initial value of x: not a finite number"
    (err,) = validate(problem(init=math.nan))
    assert err.message == "initial value of x: not a finite number"
    # the last of two declarations gave the initial value
    text = "(problem p (bools) (nums (x 0) (x 1e999)) (controls) (goal (and)))"
    (err,) = [d for d in parse_err(text) if d.message == "not a finite number"]
    assert (err.span.start, err.span.end) == (text.index("1e999"), text.index("))"))


def test_validate_reports_deep_nesting():
    """A 3000-deep sum, deeper than the parser reaches: run_search solves
    it, validate answers as it does for the sum written shallow, and
    parse_problem gives deep text an error."""
    expr = Var("x")
    for _ in range(3000):
        expr = Add(expr, Const(1.0))

    def problem(expr):
        return Problem("deep", (), ("x",), (), (Action("a", Cmp(Sub(expr, Const(5000.0)), "<"),
                                                       Effect((), (("x", expr),))),),
                       State({}, {"x": 0.0}), Cmp(Sub(Var("x"), Const(3000.0)), ">="))
    p = problem(expr)
    assert run_search(p, SearchConfig(seed=0, expansion_limit=10)).outcome == "solved"
    assert validate(p) == validate(problem(Add(Var("x"), Const(3000.0))))
    text = "(problem p (bools) (nums (x 0)) (controls) (goal (>= %s0%s 0)))" % (
        "(+ 1 " * 3000, ")" * 3000)
    (err,) = parse_err(text)
    assert err.message == "nesting too deep"


def one_action(pre, action="a", name="p", bools=(), nums=("x",), control="u"):
    """A problem built in code around one action's precondition."""
    act = Action(action, pre, Effect((), ((nums[0], Add(Var(nums[0]), Var(control, "control"))),)))
    return Problem(name, bools, nums, (ControlVarSpec(control, 0, 1),), (act,),
                   State(dict.fromkeys(bools, False), dict.fromkeys(nums, 0.0)), And(()))


@pytest.mark.parametrize("pre, message", [
    # the interval fold would compute 0.0 ** -1 over u's box [0, 1]
    (Cmp(Pow(Var("u", "control"), -1), ">"), "exponent must be a nonnegative int"),
    # run_search computes a float power, which the text cannot hold
    (Cmp(Sub(Pow(Var("x"), 0.5), Const(1.0)), "<"), "exponent must be a nonnegative int"),
    # run_search raises codegen's ModelError on each of these
    (Cmp(Var("x"), "!="), "unknown comparison operator: '!='"),
    (Cmp(And(()), ">="), "not a numeric expression: And"),
    (And((Cmp(Var("x"), ">"), Var("x"))), "not a constraint: Var"),
    # the text cannot hold these: int() reads at most 4300 digits, and a
    # variable reads back as a state or a control variable
    (Cmp(Pow(Var("x"), 10 ** 5000), ">"), "integer literal too long"),
    (Cmp(Var("x", "ctrl"), ">"), "unknown variable kind: 'ctrl'"),
])
def test_validate_refuses_trees_the_search_cannot_run(pre, message):
    (err,) = validate(one_action(pre))
    assert err.severity == "error"
    assert err.message == f"action a precondition: {message}"


def test_validate_refuses_bools_the_text_cannot_hold():
    """The text writes a bool as true or false and a control bound as an
    int, so each of these reads back unequal or not at all."""
    p = one_action(TRUE, bools=("b",))
    (act,) = p.actions
    for problem, message in (
            (replace(p, controls=(ControlVarSpec("u", False, True),)),
             "control u: bounds must be integers"),
            (replace(p, init=State({"b": 2}, {"x": 0.0})), "initial value of b: not a boolean"),
            (replace(p, actions=(replace(act, effect=Effect((("b", 2),), ())),)),
             "action a: set value of b is not a boolean")):
        assert [(d.severity, d.message) for d in validate(problem)] == [("error", message)]


def test_validate_folds_int_constants_as_floats():
    """A constant built from an int holds a float, so its power to a
    4000-digit exponent overflows the interval fold at once, where int
    arithmetic would not finish."""
    assert validate(one_action(Cmp(Pow(Const(3), 10 ** 3999), ">"))) == []


@pytest.mark.parametrize("bad", ["and", "true", "1x", "x y", "u)"])
def test_validate_refuses_names_the_text_cannot_hold(bad):
    for problem, message in (
            (one_action(TRUE, name=bad), f"invalid problem name: {bad!r}"),
            (one_action(TRUE, bools=(bad,)), f"invalid boolean variable name: {bad!r}"),
            (one_action(TRUE, nums=(bad,)), f"invalid numeric variable name: {bad!r}"),
            (one_action(TRUE, control=bad), f"invalid control variable name: {bad!r}"),
            (one_action(TRUE, action=bad), f"invalid action name: {bad!r}")):
        (err,) = validate(problem)
        assert (err.severity, err.message) == ("error", message)


# ---------------------------------------------------------------------------
# reference oracle: the recursive interval fold the iterative one replaced

def ref_expr_interval(expr, box):
    if isinstance(expr, Const):
        return (expr.value, expr.value)
    if isinstance(expr, Var):
        if expr.kind == "control":
            return box.get(expr.name, _FULL)
        return _FULL
    if isinstance(expr, (Add, Sub, Mul)):
        combine = (_iv_add if isinstance(expr, Add)
                   else _iv_sub if isinstance(expr, Sub) else _iv_mul)
        return combine(ref_expr_interval(expr.lhs, box), ref_expr_interval(expr.rhs, box))
    if isinstance(expr, Neg):
        lo, hi = ref_expr_interval(expr.arg, box)
        return (-hi, -lo)
    if isinstance(expr, Pow):
        return _iv_pow(ref_expr_interval(expr.base, box), expr.exponent)
    return _FULL


def ref_fold_constraint(con, box):
    if isinstance(con, Cmp):
        lo, hi = ref_expr_interval(con.expr, box)
        if con.op == "<":
            if hi < 0:
                return True
            if lo >= 0:
                return False
        elif con.op == "<=":
            if hi <= 0:
                return True
            if lo > 0:
                return False
        elif con.op == "=":
            if lo == hi == 0:
                return True
            if lo > 0 or hi < 0:
                return False
        elif con.op == ">=":
            if lo >= 0:
                return True
            if hi < 0:
                return False
        elif con.op == ">":
            if lo > 0:
                return True
            if hi <= 0:
                return False
        return None
    if isinstance(con, BoolEq):
        return None
    if isinstance(con, And):
        vals = [ref_fold_constraint(c, box) for c in con.items]
        if any(v is False for v in vals):
            return False
        if all(v is True for v in vals):
            return True
        return None
    if isinstance(con, Or):
        vals = [ref_fold_constraint(c, box) for c in con.items]
        if any(v is True for v in vals):
            return True
        if all(v is False for v in vals):
            return False
        return None
    if isinstance(con, Not):
        v = ref_fold_constraint(con.item, box)
        return None if v is None else not v
    return None


#: "w" is a control the box lacks
FOLD_BOX = {"u": (0.0, 1.0), "v": (-2.0, 3.0)}

fold_exprs = st.recursive(
    st.one_of(
        st.builds(Const, st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300]),
                                   st.floats())),
        st.builds(Var, st.just("x"), st.just("state")),
        st.builds(Var, st.sampled_from(("u", "v", "w")), st.just("control")),
    ),
    lambda kids: st.one_of(
        st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids), st.builds(Neg, kids),
        st.builds(Pow, kids, st.sampled_from([0, 1, 2, 3, 10 ** 400, 10 ** 400 + 1])),
    ),
    max_leaves=12,
)

fold_constraints = st.recursive(
    st.one_of(st.builds(Cmp, fold_exprs, st.sampled_from(CMP_OPS)),
              st.builds(BoolEq, st.just("p"), st.booleans())),
    lambda kids: st.one_of(
        st.builds(And, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Or, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Not, kids),
    ),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(fold_constraints)
@example(Cmp(Mul(Const(0.0), Var("x")), "="))                 # 0 * inf widens
@example(Cmp(Sub(Pow(Var("v"), 10 ** 400), Const(1.0)), "<"))  # exponent past the floats
@example(Or((TRUE, Or(()), Not(And(())))))
def test_interval_fold_matches_reference(con):
    assert _fold_constraint(con, FOLD_BOX) is ref_fold_constraint(con, FOLD_BOX)
    for node in iter_constraints(con):
        if isinstance(node, Cmp):
            got = _expr_interval(node.expr, FOLD_BOX)
            assert repr(got) == repr(ref_expr_interval(node.expr, FOLD_BOX))


def test_serialize_writes_trees_at_any_depth():
    """serialize_problem writes a 3000-deep sum and 3000-deep and/not
    preconditions; parse_problem answers that text with a diagnostic."""
    expr = Var("x")
    conj = neg = leaf = Cmp(Sub(Var("x"), Const(1.0)), "<")
    for _ in range(3000):
        expr, conj, neg = Add(expr, Const(1.0)), And((conj,)), Not(neg)
    # the effect assigns the sum too, so the first text holds it twice
    for pre, head, count in ((Cmp(Sub(expr, Const(5000.0)), "<"), "(+ ", 6000),
                             (conj, "(and ", 3000), (neg, "(not ", 3000)):
        p = Problem("deep", (), ("x",), (), (Action("a", pre, Effect((), (("x", expr),))),),
                    State({}, {"x": 0.0}), leaf)
        text = serialize_problem(p)
        assert text.count(head) == count
        (err,) = parse_err(text)
        assert err.message == "nesting too deep"


def test_parse_reports_every_semantic_error():
    text = ("(problem p (bools b) (nums (x 0) (x 1)) (controls (u 0 1) (w 3 2))\n"
            "  (action a (pre (>= z 0)) (eff (assign u 1)))\n"
            "  (goal (and (>= u 0) (= x true))))")
    messages = [d.message for d in parse_err(text)]
    assert messages == [
        "duplicate declaration: x",
        "lower bound must be < upper bound",
        "undeclared variable: z",
        "control variables cannot be assigned: u",
        "control variable not allowed here: u",
        "not a boolean variable: x",
    ]


SPAN_CASES = [
    # braces mark the text that the error's span must cover
    ("(problem p (bools) (nums (x 0)) (controls) (goal (>= (+ x {zz}) 0)))",
     "undeclared variable: zz"),
    ("(problem p (bools b) (nums (x 0)) (controls) (goal (>= (* x {b}) 0)))",
     "boolean variable in numeric expression: b"),
    ("(problem p (bools) (nums (x 0)) (controls (u 0 1)) (goal (and (>= x {u}))))",
     "control variable not allowed here: u"),
    ("(problem p (bools) (nums (x 0)) (controls) (goal (and (= {x} true))))",
     "not a boolean variable: x"),
    ("(problem p (bools) (nums (x 0)) (controls (y 0 1) {(x 0 1)}) (goal (and)))",
     "duplicate declaration: x"),
    ("(problem p (bools) (nums) (controls (u 0 1) {(v 1 1)}) (goal (and)))",
     "lower bound must be < upper bound"),
    ("(problem p (bools) (nums (x 0)) (controls (u 0 1))"
     " (action a (pre (and)) (eff (assign x 1) (assign {u} x))) (goal (and)))",
     "control variables cannot be assigned: u"),
    ("(problem p (bools f) (nums (x 0)) (controls) (action a (pre (and))"
     " (eff (set f true) (assign x 1) (set {f} false))) (goal (and)))",
     "conflicting assignments to f"),
    ("(problem p (bools) (nums (x 0)) (controls)"
     " (action go (pre (and)) (eff)) (action {go} (pre (and)) (eff)) (goal (and)))",
     "duplicate action name: go"),
    ("(problem p (bools) (nums (x {1e999})) (controls) (goal (and)))",
     "not a finite number"),
    ("(problem p (bools) (nums (x 0)) (controls) (goal (and (>= {1e999} 0))))",
     "not a finite number"),
    ("(problem p (bools) (nums (x 0)) (controls)"
     " (action a (pre (and)) (eff (assign x (+ x {-1e999})))) (goal (and)))",
     "not a finite number"),
]


@pytest.mark.parametrize("marked, message", SPAN_CASES)
def test_semantic_error_spans(marked, message):
    """Each rule's error points at the offending name or declaration."""
    text = marked.replace("{", "").replace("}", "")
    (err,) = parse_err(text)
    assert err.message == message
    start = marked.index("{")
    assert (err.span.start, err.span.end) == (start, marked.index("}") - 1)


# ---------------------------------------------------------------------------
# reference oracle: the per-character reader, with a span per token, that
# the regex reader replaced

@dataclass(frozen=True)
class RefAtom:
    text: str
    span: SourceSpan


@dataclass(frozen=True)
class RefList:
    items: tuple
    span: SourceSpan


def ref_tokenize(text):
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, SourceSpan(i, i + 1, line, col)
            i += 1
            col += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in "() \t\r\n;":
                i += 1
                col += 1
            yield text[start:i], SourceSpan(start, i, line, start_col)


def ref_read(text):
    diags = []
    top = []
    stack = []
    for tok, span in ref_tokenize(text):
        if tok == "(":
            stack.append(([], span))
        elif tok == ")":
            if not stack:
                diags.append(Diagnostic("error", "unmatched closing parenthesis", span))
                continue
            items, open_span = stack.pop()
            node = RefList(tuple(items), SourceSpan(open_span.start, span.end,
                                                    open_span.line, open_span.col))
            (stack[-1][0] if stack else top).append(node)
        else:
            node = RefAtom(tok, span)
            (stack[-1][0] if stack else top).append(node)
    for _, open_span in stack:
        diags.append(Diagnostic("error", "unclosed parenthesis", open_span))
    return top, diags


def preorder(forms):
    """Every node of a forest, parents first, with an explicit stack."""
    stack = list(reversed(forms))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (SList, RefList)):
            stack.extend(reversed(node.items))


reader_texts = st.one_of(
    st.text(alphabet="();\n\r\t\f abcxyz019\u00e9", max_size=120),
    # a random cut spliced into a whole problem, so that the interpreter and
    # the semantic rules report at many lines and columns
    st.builds(lambda cut, junk: COUNTERS_2[:cut] + junk + COUNTERS_2[cut:],
              st.integers(0, len(COUNTERS_2)),
              st.text(alphabet="();\n\r\t\f abuxz019\u00e9", max_size=12)),
)


@settings(max_examples=600, deadline=None)
@given(reader_texts)
@example("(a\n\t(b ;c)\r\n\f\u00e9) )\n (")
def test_reader_matches_reference(text):
    """The regex reader gives the reference reader's trees and balance
    errors, and parse_problem each of its diagnostics at the span that the
    reference reader gives the same offsets."""
    forms, found = _read(text)
    ref_forms, ref_diags = ref_read(text)
    nodes, ref_nodes = list(preorder(forms)), list(preorder(ref_forms))
    spans = [d.span for d in _diagnostics(text, [("", "", n.start, n.end) for n in nodes])]

    def shape(node):    # an atom's text, a list's length
        return node.text if isinstance(node, (SAtom, RefAtom)) else len(node.items)
    assert [(shape(n), span) for n, span in zip(nodes, spans)] == \
        [(shape(n), n.span) for n in ref_nodes]
    assert _diagnostics(text, found) == ref_diags

    expected = {(0, 0): SYNTHETIC_SPAN, (0, len(text)): SourceSpan(0, len(text), 1, 1)}
    expected.update(((n.span.start, n.span.end), n.span) for n in ref_nodes)
    expected.update(((d.span.start, d.span.end), d.span) for d in ref_diags)
    for d in parse_problem(text)[1]:
        assert d.span == expected[d.span.start, d.span.end]


# -- serialization ----------------------------------------------------------

def test_round_trip_counters():
    p = parse_ok(COUNTERS_2)
    assert parse_ok(serialize_problem(p)) == p


def test_round_trip_minimal():
    p = parse_ok("(problem p (bools) (nums) (controls) (goal (and)))")
    text = serialize_problem(p)
    assert parse_ok(text) == p


def test_round_trip_nested_goal_and_negation():
    p = Problem(
        name="nested",
        bools=("flag",),
        nums=("x",),
        controls=(ControlVarSpec("u", -2, 3),),
        actions=(
            Action("a",
                   Not(And((Or((Cmp(Neg(Var("x")), "<"),
                                BoolEq("flag", False))),))),
                   Effect((("flag", True),),
                          (("x", Mul(Pow(Var("x"), 3),
                                     Neg(Var("u", "control")))),))),
        ),
        init=State(bools={"flag": True}, nums={"x": -1.5}),
        goal=And((Cmp(Sub(Var("x"), Const(2.0)), ">"), BoolEq("flag", True))),
    )
    assert validate(p) == []
    text = serialize_problem(p)
    reparsed = parse_ok(text)
    assert reparsed == p
    assert serialize_problem(reparsed) == text


#: names the text format cannot hold
INVALID_NAMES = ("and", "true", "1x", "x y", "u)")


def coded_name(name):
    """name most of the time, else a name the text cannot hold."""
    return st.sampled_from((name,) * 40 + INVALID_NAMES)


# leaves and operands repeat, so that most trees are well formed; the rest
# read an undeclared or boolean variable or hold a malformed node
coded_exprs = st.recursive(
    st.sampled_from((Var("x"), Var("y"), Var("u", "control"),
                     Const(0.0), Const(-2.5), Const(1e300), Const(3)) * 4
                    + (Var("z"), Var("b"), Var("x", "ctrl"), Const(2 ** 53 + 1), TRUE)),
    lambda kids: st.one_of(
        st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids), st.builds(Neg, kids),
        st.builds(Pow, kids, st.sampled_from((0, 1, 2, 3) * 4 + (-1, 0.5, True, 10 ** 5000)))),
    max_leaves=4)

coded_constraints = st.recursive(
    st.one_of(st.builds(Cmp, coded_exprs, st.sampled_from(CMP_OPS * 4 + ("!=",))),
              st.sampled_from((BoolEq("b", True), BoolEq("b", False)) * 4
                              + (BoolEq("x", True), Var("x")))),
    lambda kids: st.one_of(
        st.builds(And, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Or, st.lists(kids, max_size=3).map(tuple)),
        st.builds(Not, kids)),
    max_leaves=4)


#: boolean values: 0 and 1 normalize to False and True, 2 stays an error
coded_bools = st.sampled_from((True, False) * 4 + (0, 1, 2))


@st.composite
def coded_problems(draw):
    """Small problems built in code over the booleans b, the numerics x and
    y and the control u, with now and then a name the text cannot hold."""
    bools = (draw(coded_name("b")),)
    nums = (draw(coded_name("x")), draw(coded_name("y")))
    controls = (ControlVarSpec(draw(coded_name("u")), draw(st.sampled_from((-2, -1, 0, False))),
                               draw(st.sampled_from((1, 2, 3, True)))),)
    actions = tuple(
        Action(draw(coded_name(f"go-{i}")), draw(coded_constraints), Effect(
            tuple(draw(st.lists(st.tuples(st.just("b"), coded_bools), max_size=1))),
            tuple(draw(st.lists(st.tuples(st.sampled_from(("x", "y")), coded_exprs),
                                max_size=2)))))
        for i in range(draw(st.integers(0, 2))))
    init = State({bools[0]: draw(coded_bools)},
                 {name: draw(st.sampled_from((0.0, -1.5, 2))) for name in nums})
    goal = draw(st.sampled_from((TRUE, BoolEq("b", True), Cmp(Var("u", "control"), ">"),
                                 And((Cmp(Sub(Var("x"), Const(1.0)), ">="),)))))
    return Problem(draw(coded_name("p")), bools, nums, controls, actions, init, goal)


@settings(max_examples=300, deadline=None)
@given(coded_problems())
def test_validated_problems_round_trip(p):
    """validate never raises, and the text of a problem it passes reads
    back as the problem, as serialize_problem promises."""
    if any(d.severity == "error" for d in validate(p)):
        return
    problem, diags = parse_problem(serialize_problem(p))
    assert not [d for d in diags if d.severity == "error"]
    assert problem == p


def test_serialize_plan_format():
    assert serialize_plan([]) == "plan length=0\n"
    plan = [Decision("inc", {"u": 0.5}), Decision("dec", {"u": 0.25})]
    assert serialize_plan(plan) == (
        "plan length=2\n"
        "0: inc u=0.5\n"
        "1: dec u=0.25\n"
    )
    assert serialize_plan([Decision("noop", {})]) == "plan length=1\n0: noop\n"


def test_serialize_sampled_plans_unchanged():
    """Plans of every sampler and of MCTS, on domains with two and three
    controls, serialize to the text they did when decisions held a dict."""
    texts = []
    for domain, params in (("sailing", {"b": 1, "p": 1}), ("drone", {"grid": 2, "p": 1})):
        problem = generate(InstanceSpec(domain, params))
        results = [run_search(problem, SearchConfig(sampler=sampler, seed=1,
                                                     expansion_limit=3000))
                   for sampler in ("uniform", "systematic", "heuristic")]
        results.append(run_mcts(problem, MctsConfig(seed=1, trial_limit=300)))
        texts += [serialize_plan(r.plan or []) for r in results]
    assert sum(text != "plan length=0\n" for text in texts) == 7
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "ea8623ab9995dd1ef1b35505285c051dd64bdb64d61757b1384bf38ba130258c")


def test_fuzz_never_raises():
    rng = random.Random(7)
    corpus = [COUNTERS_2, "(problem p (bools) (nums) (controls) (goal (and)))"]
    alphabet = "()abcxyz019.-+*^= \n;\"\\"
    for _ in range(2000):
        base = rng.choice(corpus)
        kind = rng.randrange(3)
        if kind == 0:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(80)))
        elif kind == 1:
            cut = rng.randrange(len(base))
            text = base[:cut] + rng.choice(alphabet) + base[cut + 1:]
        else:
            i, j = sorted(rng.randrange(len(base)) for _ in range(2))
            text = base[:i] + base[j:]
        problem, diags = parse_problem(text)
        if problem is None:
            assert diags
        for d in diags:
            assert isinstance(d, Diagnostic)


def test_key_values():
    assert key_values(["a=1", "b=", "c=x=y"]) == {"a": "1", "b": "", "c": "x=y"}
    with pytest.raises(ValueError, match="expected key=value, got 'a'"):
        key_values(["a"])
    with pytest.raises(ValueError, match="duplicate key 'a'"):
        key_values(["a=1", "a=2"])


def test_load_problem(tmp_path):
    """The problem with every diagnostic, warnings too; None on any error."""
    path = tmp_path / "p.plan"
    path.write_text(COUNTERS_2.replace("(goal (and", "(goal (or"))
    problem, diags = load_problem(str(path))
    assert problem is not None
    assert [d.severity for d in diags] == ["warning"]
    path.write_text(COUNTERS_2.replace("(u 0 1)", "(u 1 0)"))
    problem, diags = load_problem(str(path))
    assert problem is None and "lower bound" in diags[0].message
    path.write_text("(problem")
    assert load_problem(str(path)) == (None, parse_problem("(problem")[1])

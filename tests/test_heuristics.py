from cvplan.heuristics import goal_conjuncts, make_heuristic
from cvplan.model import And, BoolEq, Cmp, Const, Or, Problem, State, Sub, Var

X_GE_1 = Cmp(Sub(Var("x"), Const(1.0)), ">=")
Y_GE_1 = Cmp(Sub(Var("y"), Const(1.0)), ">=")
P_TRUE = BoolEq("p", True)


def problem_with_goal(goal):
    return Problem(
        name="t", bools=("p",), nums=("x", "y"), controls=(), actions=(),
        init=State(bools={"p": False}, nums={"x": 0.0, "y": 0.0}), goal=goal,
    )


def test_goal_conjuncts_flatten():
    nested = And((X_GE_1, And((Y_GE_1, And((P_TRUE,)))), And(())))
    assert goal_conjuncts(nested) == (X_GE_1, Y_GE_1, P_TRUE)
    assert goal_conjuncts(X_GE_1) == (X_GE_1,)
    disj = Or((X_GE_1, Y_GE_1))
    assert goal_conjuncts(disj) == (disj,)
    assert goal_conjuncts(And(())) == ()


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

"""Core problem model: states, polynomial expressions, constraints, actions.

A problem couples boolean state variables, numeric state variables and a box
of continuous control variables with a set of actions. A decision is an
action together with a valuation of the control variables; applying it
rewrites the state with all effect right-hand sides evaluated in the
pre-state (simultaneous assignment). Numeric comparisons are exact, no
epsilon is applied anywhere in the semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Sequence, Tuple, Union


class ModelError(Exception):
    """Structural error: unbound variable, inapplicable decision, bad plan."""


# ---------------------------------------------------------------------------
# numeric expressions

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """Variable reference. kind is "state" (numeric state var) or "control"."""
    name: str
    kind: str = "state"


@dataclass(frozen=True)
class Add:
    lhs: "NumericExpr"
    rhs: "NumericExpr"


@dataclass(frozen=True)
class Sub:
    lhs: "NumericExpr"
    rhs: "NumericExpr"


@dataclass(frozen=True)
class Mul:
    lhs: "NumericExpr"
    rhs: "NumericExpr"


@dataclass(frozen=True)
class Neg:
    arg: "NumericExpr"


@dataclass(frozen=True)
class Pow:
    """Natural power; exponent is a fixed nonnegative integer."""
    base: "NumericExpr"
    exponent: int


NumericExpr = Union[Const, Var, Add, Sub, Mul, Neg, Pow]


# ---------------------------------------------------------------------------
# constraints

#: comparison operators, all against zero: expr op 0
CMP_OPS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True)
class Cmp:
    """Numeric comparison `expr op 0` (right-hand sides are normalized away)."""
    expr: NumericExpr
    op: str


@dataclass(frozen=True)
class BoolEq:
    """Boolean test `var = value`."""
    name: str
    value: bool


@dataclass(frozen=True)
class And:
    items: Tuple["Constraint", ...] = ()


@dataclass(frozen=True)
class Or:
    items: Tuple["Constraint", ...] = ()


@dataclass(frozen=True)
class Not:
    item: "Constraint"


Constraint = Union[Cmp, BoolEq, And, Or, Not]

TRUE = And(())


# ---------------------------------------------------------------------------
# actions and problems

@dataclass(frozen=True)
class Effect:
    """Simultaneous assignments; at most one per variable (checked upstream)."""
    bool_assigns: Tuple[Tuple[str, bool], ...] = ()
    num_assigns: Tuple[Tuple[str, NumericExpr], ...] = ()


@dataclass(frozen=True)
class Action:
    name: str
    precondition: Constraint
    effect: Effect


@dataclass(frozen=True)
class ControlVarSpec:
    """Control variable with integer bounds; valuations range over the reals."""
    name: str
    lower: int
    upper: int


@dataclass(frozen=True)
class State:
    """Total valuation of the declared boolean and numeric state variables.

    Treated as immutable: try_apply() always builds a fresh State.
    """
    bools: Dict[str, bool] = field(default_factory=dict)
    nums: Dict[str, float] = field(default_factory=dict)


#: control valuation mu: control name -> value within bounds
ControlValuation = Mapping[str, float]


@dataclass(frozen=True)
class Decision:
    """An action name paired with a control valuation."""
    action: str
    controls: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Problem:
    name: str
    bools: Tuple[str, ...]
    nums: Tuple[str, ...]
    controls: Tuple[ControlVarSpec, ...]
    actions: Tuple[Action, ...]
    init: State
    goal: Constraint

    def action_by_name(self, name: str) -> Action:
        for act in self.actions:
            if act.name == name:
                return act
        raise ModelError(f"unknown action: {name!r}")


# ---------------------------------------------------------------------------
# evaluation

def eval_expr(expr: NumericExpr, state: State, controls: ControlValuation) -> float:
    """Evaluate a polynomial expression under a state and control valuation."""
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
        return eval_expr(expr.lhs, state, controls) + eval_expr(expr.rhs, state, controls)
    if isinstance(expr, Sub):
        return eval_expr(expr.lhs, state, controls) - eval_expr(expr.rhs, state, controls)
    if isinstance(expr, Mul):
        return eval_expr(expr.lhs, state, controls) * eval_expr(expr.rhs, state, controls)
    if isinstance(expr, Neg):
        return -eval_expr(expr.arg, state, controls)
    if isinstance(expr, Pow):
        base = eval_expr(expr.base, state, controls)
        try:
            return base ** expr.exponent
        except OverflowError:
            # float ** int raises when the result or the exponent is beyond
            # the float range; the power is then at its limit: 0 below
            # magnitude 1, inf above it, and 1 and nan stay themselves
            size = abs(base)
            limit = math.inf if size > 1 else 0.0 if size < 1 else size
            return -limit if base < 0 and expr.exponent % 2 == 1 else limit
    raise ModelError(f"not a numeric expression: {expr!r}")


def _cmp_holds(value: float, op: str) -> bool:
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


def eval_constraint(con: Constraint, state: State, controls: ControlValuation) -> bool:
    """Evaluate a constraint. Comparisons are exact (no tolerance)."""
    if isinstance(con, Cmp):
        return _cmp_holds(eval_expr(con.expr, state, controls), con.op)
    if isinstance(con, BoolEq):
        try:
            return state.bools[con.name] is con.value
        except KeyError:
            raise ModelError(f"unbound boolean variable: {con.name!r}") from None
    if isinstance(con, And):
        return all(eval_constraint(c, state, controls) for c in con.items)
    if isinstance(con, Or):
        return any(eval_constraint(c, state, controls) for c in con.items)
    if isinstance(con, Not):
        return not eval_constraint(con.item, state, controls)
    raise ModelError(f"not a constraint: {con!r}")


def try_apply(state: State, action: Action, controls: ControlValuation):
    """Successor state if the precondition holds under (state, controls),
    else None."""
    if not eval_constraint(action.precondition, state, controls):
        return None
    new_bools = dict(state.bools)
    for name, value in action.effect.bool_assigns:
        new_bools[name] = value
    new_nums = dict(state.nums)
    for name, expr in action.effect.num_assigns:
        # all right-hand sides read the pre-state
        new_nums[name] = eval_expr(expr, state, controls)
    return State(bools=new_bools, nums=new_nums)


def goal_test(state: State, goal: Constraint) -> bool:
    """True iff the goal constraint holds; goals never read control variables."""
    return eval_constraint(goal, state, {})


def replay_plan(problem: Problem, plan: Sequence[Decision]) -> State:
    """Apply a decision sequence from the initial state; raises on any misstep."""
    state = problem.init
    for step in plan:
        succ = try_apply(state, problem.action_by_name(step.action), step.controls)
        if succ is None:
            raise ModelError(f"action {step.action!r} not applicable")
        state = succ
    return state


# ---------------------------------------------------------------------------
# canonical state keys

def round_half_away(value: float, digits: int):
    """Scale by 10**digits and round halves away from zero to an integer.

    Non-finite values map to their repr so keys stay hashable and distinct.
    """
    scaled = value * (10 ** digits)
    if not math.isfinite(scaled):
        return repr(scaled)
    magnitude = math.floor(abs(scaled) + 0.5)
    return magnitude if scaled >= 0 else -magnitude


def state_key(state: State, digits: int = 6):
    """Canonical hashable key: exact booleans, numerics rounded to `digits`."""
    return (
        tuple(sorted(state.bools.items())),
        tuple((name, round_half_away(value, digits)) for name, value in sorted(state.nums.items())),
    )


def iter_exprs(expr: NumericExpr) -> Iterator[NumericExpr]:
    """Yield every node of an expression tree."""
    yield expr
    if isinstance(expr, (Add, Sub, Mul)):
        yield from iter_exprs(expr.lhs)
        yield from iter_exprs(expr.rhs)
    elif isinstance(expr, Neg):
        yield from iter_exprs(expr.arg)
    elif isinstance(expr, Pow):
        yield from iter_exprs(expr.base)


def iter_constraints(con: Constraint) -> Iterator[Constraint]:
    """Yield every constraint node of a constraint tree."""
    yield con
    if isinstance(con, (And, Or)):
        for item in con.items:
            yield from iter_constraints(item)
    elif isinstance(con, Not):
        yield from iter_constraints(con.item)

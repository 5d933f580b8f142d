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
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Dict, Iterator, Mapping, Sequence, Tuple, Union


class ModelError(Exception):
    """Structural error: unbound variable, inapplicable decision, bad plan."""


class _Compiles:
    """Base of the model objects that compile to a Python function on first
    evaluation. The function is a cached_property `_compiled`, so it lives
    in the instance __dict__, out of sight of the dataclass fields and so
    of ==, hash and repr; __getstate__ keeps it out of pickles and copies.
    """

    @cached_property
    def _compiled(self):
        # imported here, so that importing cvplan does not compile the
        # code generator: the first evaluation in a search pays for it
        from .codegen import compile_node
        return compile_node(self)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


class _Numeric(_Compiles):
    """Base of the numeric expression nodes."""


class _Condition(_Compiles):
    """Base of the constraint nodes."""


# ---------------------------------------------------------------------------
# numeric expressions

@dataclass(frozen=True)
class Const(_Numeric):
    value: float


@dataclass(frozen=True)
class Var(_Numeric):
    """Variable reference. kind is "state" (numeric state var) or "control"."""
    name: str
    kind: str = "state"


@dataclass(frozen=True)
class Add(_Numeric):
    lhs: "NumericExpr"
    rhs: "NumericExpr"


@dataclass(frozen=True)
class Sub(_Numeric):
    lhs: "NumericExpr"
    rhs: "NumericExpr"


@dataclass(frozen=True)
class Mul(_Numeric):
    lhs: "NumericExpr"
    rhs: "NumericExpr"


@dataclass(frozen=True)
class Neg(_Numeric):
    arg: "NumericExpr"


@dataclass(frozen=True)
class Pow(_Numeric):
    """Natural power; exponent is a fixed nonnegative integer."""
    base: "NumericExpr"
    exponent: int


NumericExpr = Union[Const, Var, Add, Sub, Mul, Neg, Pow]


# ---------------------------------------------------------------------------
# constraints

#: comparison operators, all against zero: expr op 0
CMP_OPS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True)
class Cmp(_Condition):
    """Numeric comparison `expr op 0` (right-hand sides are normalized away)."""
    expr: NumericExpr
    op: str


@dataclass(frozen=True)
class BoolEq(_Condition):
    """Boolean test `var = value`."""
    name: str
    value: bool


@dataclass(frozen=True)
class And(_Condition):
    items: Tuple["Constraint", ...] = ()


@dataclass(frozen=True)
class Or(_Condition):
    items: Tuple["Constraint", ...] = ()


@dataclass(frozen=True)
class Not(_Condition):
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
class Action(_Compiles):
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
# evaluation: each action, constraint and expression runs as the Python
# function cvplan.codegen compiles it to on its first evaluation

_NO_CONTROLS: ControlValuation = MappingProxyType({})


def eval_expr(expr: NumericExpr, state: State, controls: ControlValuation) -> float:
    """Evaluate a polynomial expression under a state and control valuation."""
    if not isinstance(expr, _Numeric):
        raise ModelError(f"not a numeric expression: {expr!r}")
    return expr._compiled(state, controls)


def compile_constraint(con: Constraint) -> Callable[[State, ControlValuation], bool]:
    """The compiled form of con, `(state, controls) -> bool`, made on first
    use and cached on con. Comparisons are exact (no tolerance)."""
    if not isinstance(con, _Condition):
        raise ModelError(f"not a constraint: {con!r}")
    return con._compiled


def eval_constraint(con: Constraint, state: State, controls: ControlValuation) -> bool:
    """Evaluate a constraint. Comparisons are exact (no tolerance)."""
    return compile_constraint(con)(state, controls)


def try_apply(state: State, action: Action, controls: ControlValuation):
    """Successor state if the precondition holds under (state, controls),
    else None."""
    return action._compiled(state, controls)


def goal_test(state: State, goal: Constraint) -> bool:
    """True iff the goal constraint holds; goals never read control variables."""
    return goal._compiled(state, _NO_CONTROLS)


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

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
import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union


class ModelError(Exception):
    """Structural error: unbound variable, inapplicable decision, bad plan."""


class _Cached:
    """Base of the model objects that cache data derived from themselves,
    such as compiled functions, in cached_properties. These live in the
    instance __dict__, out of sight of the dataclass fields and so of ==,
    hash and repr; __getstate__ keeps them out of pickles and copies.
    """

    def __getstate__(self):
        cls = type(self)
        return {k: v for k, v in self.__dict__.items()
                if not isinstance(getattr(cls, k, None), cached_property)}


class _PerLayout(dict):
    """key -> make(key), made on the first lookup of each key, a layout or not."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[object], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        made = self[key] = self.make(key)
        return made


class _Compiles(_Cached):
    """Base of the model objects that compile to Python functions, one per
    state layout: `_compiled[layout]`, made on first evaluation. Like the
    other compiled caches, it imports cvplan.codegen on first use, so that
    importing cvplan does not compile the code generator."""

    @cached_property
    def _compiled(self) -> _PerLayout:
        from .codegen import compile_node
        return _PerLayout(partial(compile_node, self))


def _as_float(value):
    """value, or the float equal to it where value is an int or a float."""
    try:
        number = float(value) if isinstance(value, (int, float)) else value
    except OverflowError:
        return value
    return number if number == value else value


def _as_bool(value):
    """value, or the bool equal to it where value is the number 0 or 1."""
    return bool(value) if isinstance(value, (int, float)) and value in (0, 1) else value


class _Numeric(_Compiles):
    """Base of the numeric expression nodes."""


class _Condition(_Compiles):
    """Base of the constraint nodes."""


# ---------------------------------------------------------------------------
# numeric expressions

@dataclass(frozen=True)
class Const(_Numeric):
    """A constant; an int or bool value that a float equals becomes that float."""
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _as_float(self.value))


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
    """Simultaneous assignments; at most one per variable (checked upstream).
    A boolean value 0 or 1 becomes False or True."""
    bool_assigns: Tuple[Tuple[str, bool], ...] = ()
    num_assigns: Tuple[Tuple[str, NumericExpr], ...] = ()

    def __post_init__(self):
        if not all(_as_bool(value) is value for _, value in self.bool_assigns):
            object.__setattr__(self, "bool_assigns", tuple(
                (name, _as_bool(value)) for name, value in self.bool_assigns))


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


class Layout:
    """The variable names of a state, booleans and numerics, in the order
    its value tuples hold them. layout_of interns layouts, so that equal
    layouts are one object and compare by identity."""

    __slots__ = ("bools", "nums", "bool_index", "num_index", "__weakref__")

    def __init__(self, bools: Tuple[str, ...], nums: Tuple[str, ...]):
        self.bools, self.nums = bools, nums
        self.bool_index = {name: i for i, name in enumerate(bools)}
        self.num_index = {name: i for i, name in enumerate(nums)}


#: the live layouts; weak, so that layouts no state or compiled code uses go
_LAYOUTS: "weakref.WeakValueDictionary[tuple, Layout]" = weakref.WeakValueDictionary()


def layout_of(bools: Tuple[str, ...], nums: Tuple[str, ...]) -> Layout:
    """The one Layout of these boolean and numeric names, in this order."""
    key = (bools, nums)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = Layout(bools, nums)
    return layout


_EMPTY: Mapping = MappingProxyType({})


class State:
    """Total valuation of the declared boolean and numeric state variables.

    The values sit in two tuples, bool_values and num_values, in the order
    of layout: the names in the order the constructor receives them, and
    the values as _as_bool and _as_float give them, so 0 and 1 booleans
    and int numerics become bools and floats where these equal them.
    try_apply's successors keep their parent's layout. bools and nums are
    read-only proxies of fresh name -> value dicts. Immutable by contract:
    nothing assigns to a State; try_apply always builds a fresh one.
    """

    __slots__ = ("layout", "bool_values", "num_values")

    def __init__(self, bools: Mapping[str, bool] = _EMPTY,
                 nums: Mapping[str, float] = _EMPTY):
        self.layout = layout_of(tuple(bools), tuple(nums))
        self.bool_values = tuple(map(_as_bool, bools.values()))
        self.num_values = tuple(map(_as_float, nums.values()))

    @property
    def bools(self) -> Mapping[str, bool]:
        return MappingProxyType(dict(zip(self.layout.bools, self.bool_values)))

    @property
    def nums(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self.layout.nums, self.num_values)))

    def __eq__(self, other):
        if other.__class__ is not State:
            return NotImplemented
        if self.layout is other.layout:
            return (self.bool_values == other.bool_values
                    and self.num_values == other.num_values)
        return self.bools == other.bools and self.nums == other.nums

    __hash__ = None

    def __repr__(self) -> str:
        return f"State(bools={dict(self.bools)!r}, nums={dict(self.nums)!r})"

    def __reduce__(self):
        # by names, so that a pickle or copy interns its layout afresh
        return State, (dict(self.bools), dict(self.nums))


#: control valuation mu: control name -> value within bounds
ControlValuation = Mapping[str, float]


@dataclass(init=False, repr=False, eq=False)
class Decision:
    """An action name paired with a control valuation.

    The valuation sits in two tuples: names, the control names (for a
    sampled decision, its problem's one shared tuple), and values, in the
    same order. controls builds a fresh dict from them. Decisions compare
    by action and controls, and are unhashable. To the dataclasses module
    the fields are action and controls, so that replace, fields and asdict
    see a Decision as they see a dataclass of those two fields.
    """

    __slots__ = ("action", "names", "values")
    action: str
    controls: Dict[str, float]

    def __init__(self, action: str, controls: ControlValuation = _EMPTY):
        self.action = action
        self.names = tuple(controls)
        self.values = tuple(controls.values())

    @classmethod
    def _of(cls, action: str, names: Tuple[str, ...], values: tuple) -> "Decision":
        """The Decision of these slots, names shared rather than copied."""
        decision = object.__new__(cls)
        decision.action, decision.names, decision.values = action, names, values
        return decision

    @property
    def controls(self) -> Dict[str, float]:
        return dict(zip(self.names, self.values))

    def __eq__(self, other):
        if other.__class__ is not Decision:
            return NotImplemented
        return self.action == other.action and self.controls == other.controls

    __hash__ = None

    def __repr__(self) -> str:
        return f"Decision(action={self.action!r}, controls={self.controls!r})"

    def __reduce__(self):
        # every pickle protocol; a class with __slots__ alone needs 2 or more
        return Decision, (self.action, self.controls)


@dataclass(frozen=True)
class Problem(_Cached):
    """A planning problem. Its parts normalize their values on construction
    (see Const, Effect and State), and it puts an init that assigns each
    declared variable exactly once in the declared order. Each replaced
    value equals its replacement, so every == holds as before."""

    name: str
    bools: Tuple[str, ...]
    nums: Tuple[str, ...]
    controls: Tuple[ControlVarSpec, ...]
    actions: Tuple[Action, ...]
    init: State
    goal: Constraint

    def __post_init__(self):
        init, bools, nums = self.init, tuple(self.bools), tuple(self.nums)
        values, numbers = init.bools, init.nums
        if (init.layout is not layout_of(bools, nums) and {*values} == {*bools}
                and {*numbers} == {*nums} and len(values) + len(numbers) == len(bools + nums)):
            object.__setattr__(self, "init", State({k: values[k] for k in bools},
                                                   {k: numbers[k] for k in nums}))

    @cached_property
    def _liveness(self) -> _PerLayout:
        """layout -> `(state) -> [bool]`, see liveness."""
        from .codegen import compile_liveness
        return _PerLayout(partial(compile_liveness, self))

    @cached_property
    def _draw(self) -> _PerLayout:
        """grid digits -> `(u) -> control valuation`, see codegen.compile_draw."""
        from .codegen import compile_draw
        return _PerLayout(partial(compile_draw, self))

    @cached_property
    def _goal_count(self) -> _PerLayout:
        """layout -> `(state) -> float`, the number of the goal's top-level
        conjuncts that fail in state."""
        from .codegen import compile_goal_count
        return _PerLayout(partial(compile_goal_count, self.goal))

    @cached_property
    def _state_key(self) -> Callable[[State], tuple]:
        from .codegen import compile_state_key
        return compile_state_key(self)

    @cached_property
    def _control_names(self) -> Tuple[str, ...]:
        """The control names in declaration order, one tuple that every
        sampled Decision shares."""
        return tuple(spec.name for spec in self.controls)

    @cached_property
    def _name_clash(self) -> Optional[str]:
        """Why a plan, which names its actions, could replay the wrong one; or None."""
        first: Dict[str, int] = {}
        twins = [a.name for i, a in enumerate(self.actions) if first.setdefault(a.name, i) != i]
        return f"duplicate action name: {twins[0]}" if twins else None

    @cached_property
    def _refusal(self) -> Optional[str]:
        """Why search.SearchTree cannot hold this problem's nodes, or None:
        what normalizing on construction cannot mend."""
        init, names = self.init, self._control_names
        flags = [*zip(init.layout.bools, init.bool_values),
                 *[pair for act in self.actions for pair in act.effect.bool_assigns]]
        numbers = [*zip(init.layout.nums, map(Const, init.num_values)),
                   *[pair for act in self.actions for pair in act.effect.num_assigns]]
        terms = [term for _, expr in numbers for term in iter_exprs(expr)]
        for fault, cause in (
                (init.layout is not layout_of(tuple(self.bools), tuple(self.nums)),
                 "the initial state does not assign each declared variable exactly once"),
                (len(set(names)) < len(names), f"duplicate control names: {names}"),
                (self._name_clash, self._name_clash),
                (any(name not in self.bools for name, _ in flags)
                 or any(name not in self.nums for name, _ in numbers),
                 "an effect assigns an undeclared variable"),
                (any(b is not True and b is not False for _, b in flags),
                 "a boolean value is not True or False"),
                (any(type(t.value) is not float for t in terms if isinstance(t, Const)),
                 "a numeric value is not a float"),
                (any(type(t.exponent) is not int for t in terms if isinstance(t, Pow)),
                 "an exponent is not an int")):
            if fault:
                return cause
        return None

    @cached_property
    def _control_box(self) -> Tuple[Tuple[str, float, float], ...]:
        """(name, lower, upper - lower) per control, the ints converted to
        float as float arithmetic converts them (so bounds beyond the float
        range raise OverflowError)."""
        return tuple((s.name, float(s.lower), float(s.upper - s.lower)) for s in self.controls)

    def action_by_name(self, name: str) -> Action:
        for act in self.actions:
            if act.name == name:
                return act
        raise ModelError(f"unknown action: {name!r}")


# ---------------------------------------------------------------------------
# evaluation: each action, constraint and expression runs as the Python
# function cvplan.codegen compiles it to, for the state's layout, on its
# first evaluation in that layout

def eval_expr(expr: NumericExpr, state: State, controls: ControlValuation) -> float:
    """Evaluate a polynomial expression under a state and control valuation."""
    if not isinstance(expr, _Numeric):
        raise ModelError(f"not a numeric expression: {expr!r}")
    return expr._compiled[state.layout](state, controls)


def eval_constraint(con: Constraint, state: State, controls: ControlValuation) -> bool:
    """Evaluate a constraint. Comparisons are exact (no tolerance)."""
    if not isinstance(con, _Condition):
        raise ModelError(f"not a constraint: {con!r}")
    return con._compiled[state.layout](state, controls)


def try_apply(state: State, action: Action, controls: ControlValuation):
    """Successor state if the precondition holds under (state, controls),
    else None."""
    return action._compiled[state.layout](state, controls)


def liveness(state: State, problem: Problem) -> List[bool]:
    """Per action of problem, False when a top-level precondition conjunct
    that reads no control fails in state, so that no control value makes
    the action applicable; True otherwise."""
    return problem._liveness[state.layout](state)


def goal_test(state: State, goal: Constraint) -> bool:
    """True iff the goal constraint holds; goals never read control variables."""
    return goal._compiled[state.layout](state, _EMPTY)


def make_heuristic(problem: Problem) -> Callable[[State], float]:
    """The planner's heuristic, bound to problem: the number of unsatisfied
    top-level goal conjuncts of a state, counted by one function compiled
    per state layout."""
    counts = problem._goal_count
    return lambda state: counts[state.layout](state)


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

#: state keys round numerics to this many decimal digits
KEY_DIGITS = 6
_KEY_SCALE = 10 ** KEY_DIGITS


def round_half_away(value: float, digits: int, scale: Optional[int] = None):
    """Scale by 10**digits and round halves away from zero to an integer.
    A caller rounding many values passes scale = 10**digits, computed once.

    Non-finite values map to their repr so keys stay hashable and distinct.
    """
    scaled = value * (10 ** digits if scale is None else scale)
    if not math.isfinite(scaled):
        return repr(scaled)
    magnitude = math.floor(abs(scaled) + 0.5)
    return magnitude if scaled >= 0 else -magnitude


def state_key(state: State, problem: Problem) -> tuple:
    """Canonical hashable key: the tuple key_by_name(state, problem), built
    inline by a function compiled for the problem when the state is in the
    problem's layout with finite numerics, by name otherwise. The search
    stores no key: search.uid_table rebuilds a node's key from the tree."""
    return problem._state_key(state)


def key_by_name(state: State, problem: Problem) -> tuple:
    """state_key, reading each declared variable by name: the booleans in
    problem.bools order, then the numerics in problem.nums order, rounded
    to KEY_DIGITS digits as round_half_away rounds them."""
    bools, nums = state.bools, state.nums
    try:
        return (*[bools[name] for name in problem.bools],
                *[round_half_away(nums[name], KEY_DIGITS, _KEY_SCALE)
                  for name in problem.nums])
    except KeyError as exc:
        raise ModelError(f"state lacks declared variable {exc.args[0]!r}") from None


def iter_exprs(expr: NumericExpr) -> Iterator[NumericExpr]:
    """Yield every node of an expression tree, parents first, left to right;
    the walk keeps its own stack, so any depth works."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Add, Sub, Mul)):
            stack += (node.rhs, node.lhs)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)


def conjuncts(con: Constraint) -> Iterator[Constraint]:
    """con's top-level conjuncts in order, nested ands flattened."""
    stack = [con]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend(reversed(node.items))
        else:
            yield node


def iter_constraints(con: Constraint) -> Iterator[Constraint]:
    """Yield every constraint node of a constraint tree, parents first, at any depth."""
    stack = [con]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.items))
        elif isinstance(node, Not):
            stack.append(node.item)


def reads_control(con: Constraint) -> bool:
    """Whether any comparison in con reads a control variable."""
    return any(isinstance(e, Var) and e.kind == "control"
               for node in iter_constraints(con) if isinstance(node, Cmp)
               for e in iter_exprs(node.expr))

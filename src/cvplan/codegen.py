"""Compile model objects to Python functions: the one evaluator of cvplan.model.

An action compiles to `(state, controls) -> successor State or None`, a
constraint to `(state, controls) -> bool` and an expression to
`(state, controls) -> float`; a problem's liveness to `(state) -> [bool]`
and a goal's count of failed top-level conjuncts to `(state) -> float`.
Each is compiled for one state layout and reads and writes the state's
value tuples by constant index. The source is three-address code, exec'd
once per object and layout; model caches the function on the object and
imports this module on the first evaluation, so importing cvplan does not
pay for it. A problem's state key compiles once, for the problem's layout,
and its control draw once per grid.
The code does the float operations the tree spells, in the tree's order:
left operands first, `and`/`or` short-circuiting left to right, `BoolEq` as
an `is` test and `Pow` through _pow_limit. A variable that is unbound, in
the controls or in the layout, raises ModelError where its read would.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from .model import (
    _EMPTY, Action, Add, And, BoolEq, Cmp, Const, Constraint, ControlValuation,
    KEY_DIGITS, Layout, ModelError, Mul, Neg, Not, NumericExpr, Or, Pow, Problem, State,
    Sub, Var, conjuncts, key_by_name, layout_of, reads_control,
)
from .sampling import _MAX_GRID_DIGITS, snap

#: the Python spelling of each comparison against zero
_CMP_SOURCE = {"<": "<", "<=": "<=", "=": "==", ">=": ">=", ">": ">"}

#: and/or nested deeper than this under or/not moves into a helper function,
#: well below the tokenizer's limit of 100 indentation levels
_MAX_INDENT = 40


def _pow_limit(base: float, exponent: int) -> float:
    """base ** exponent where that raised OverflowError.

    float ** int raises when the result or the exponent is beyond the float
    range; the power is then at its limit: 0 below magnitude 1, inf above
    it, and 1 and nan stay themselves.
    """
    size = abs(base)
    limit = math.inf if size > 1 else 0.0 if size < 1 else size
    return -limit if base < 0 and exponent % 2 == 1 else limit


def _absent(name):
    """A read of a name that the layout lacks: fail as a dict lookup would."""
    raise KeyError(name)


def _unbound(exc: KeyError, bool_names: frozenset) -> ModelError:
    name = exc.args[0]
    kind = "boolean variable" if name in bool_names else "variable"
    return ModelError(f"unbound {kind}: {name!r}")


class _Emitter:
    """Python source for one compiled function `(state, c)` over states of
    one layout, as three-address code: each interior expression node gets a
    local of its own, so the source nests no parentheses however deep the
    tree.

    Constants, exponents and names that are not str reach the code through
    the tuple K, never as literals; str names enter only as repr() dict
    keys of c. In the body, b and n are the state's value tuples, read by
    index, and c the control valuation.
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        self.consts: list = []
        self._const_index: Dict[int, int] = {}
        self.bool_names: set = set()
        self.reads: set = set()          # which of "b" and "n" the body reads
        self.lines: List[str] = []
        self.helpers: List[List[str]] = []
        self._temps = 0

    def emit(self, indent: int, text: str):
        self.lines.append("    " * indent + text)

    def const(self, value) -> str:
        index = self._const_index.get(id(value))
        if index is None:
            index = self._const_index[id(value)] = len(self.consts)
            self.consts.append(value)
        return f"k{index}"

    def key(self, name) -> str:
        return repr(name) if type(name) is str else self.const(name)

    def read(self, name, tuple_name: str) -> str:
        """The operand that reads state variable name from b or n."""
        names = self.layout.bool_index if tuple_name == "b" else self.layout.num_index
        index = names.get(name)
        if index is None:
            return f"_absent({self.const(name)})"
        self.reads.add(tuple_name)
        return f"{tuple_name}[{index}]"

    @staticmethod
    def may_raise(operand: str) -> bool:
        """Whether evaluating operand can raise: a control read or an
        absent name. Reads by index cannot, and the state cannot change."""
        return operand.startswith(("c[", "_absent("))

    def assign(self, indent: int, source: str) -> str:
        self._temps += 1
        local = f"t{self._temps}"
        self.emit(indent, f"{local} = {source}")
        return local

    def expr(self, root: NumericExpr, indent: int) -> str:
        """Emit root's evaluation; return the operand that holds its value.

        The walk keeps its own stack, so trees of any depth compile.
        """
        operands: List[str] = []
        stack = [(root, 0)]
        while stack:
            node, phase = stack.pop()
            if isinstance(node, Const):
                operands.append(self.const(node.value))
            elif isinstance(node, Var):
                operands.append(f"c[{self.key(node.name)}]" if node.kind == "control"
                                else self.read(node.name, "n"))
            elif isinstance(node, (Add, Sub, Mul)):
                if phase == 0:
                    stack += ((node, 1), (node.lhs, 0))
                elif phase == 1:
                    # look a left-hand variable up before the right side runs
                    if self.may_raise(operands[-1]) and not isinstance(node.rhs, (Const, Var)):
                        operands.append(self.assign(indent, operands.pop()))
                    stack += ((node, 2), (node.rhs, 0))
                else:
                    rhs, lhs = operands.pop(), operands.pop()
                    op = "+" if isinstance(node, Add) else "-" if isinstance(node, Sub) else "*"
                    operands.append(self.assign(indent, f"{lhs} {op} {rhs}"))
            elif isinstance(node, Neg):
                if phase == 0:
                    stack += ((node, 1), (node.arg, 0))
                else:
                    operands.append(self.assign(indent, f"-{operands.pop()}"))
            elif isinstance(node, Pow):
                if phase == 0:
                    stack += ((node, 1), (node.base, 0))
                else:
                    base, exponent = operands.pop(), self.const(node.exponent)
                    self.emit(indent, "try:")
                    local = self.assign(indent + 1, f"{base} ** {exponent}")
                    self.emit(indent, "except OverflowError:")
                    self.emit(indent + 1, f"{local} = _pow_limit({base}, {exponent})")
                    operands.append(local)
            else:
                raise ModelError(f"not a numeric expression: {node!r}")
        return operands[0]

    def _compare(self, con: Cmp, indent: int) -> str:
        op = _CMP_SOURCE.get(con.op)
        if op is None:
            raise ModelError(f"unknown comparison operator: {con.op!r}")
        return f"{self.expr(con.expr, indent)} {op} 0"

    def _flag(self, con: BoolEq) -> str:
        self.bool_names.add(con.name)
        return f"{self.read(con.name, 'b')} is {self.const(con.value)}"

    def require(self, con: Constraint, indent: int, fail: str):
        """Emit code that runs the statement `fail` unless con holds."""
        if isinstance(con, And):
            for item in con.items:
                self.require(item, indent, fail)
        elif isinstance(con, Cmp):
            self.emit(indent, f"if not {self._compare(con, indent)}: {fail}")
        elif isinstance(con, BoolEq):
            self.emit(indent, f"if not {self._flag(con)}: {fail}")
        else:
            self.emit(indent, f"if not {self.truth(con, indent)}: {fail}")

    def truth(self, con: Constraint, indent: int) -> str:
        """Emit con's evaluation; return the local that holds its truth."""
        if isinstance(con, Cmp):
            return self.assign(indent, self._compare(con, indent))
        if isinstance(con, BoolEq):
            return self.assign(indent, self._flag(con))
        if isinstance(con, Not):
            return self.assign(indent, f"not {self.truth(con.item, indent)}")
        if not isinstance(con, (And, Or)):
            raise ModelError(f"not a constraint: {con!r}")
        if not con.items:
            return self.assign(indent, "True" if isinstance(con, And) else "False")
        if indent >= _MAX_INDENT:
            return self.assign(indent, f"{self._helper(con)}(b, n, c)")
        result = self.truth(con.items[0], indent)
        guard = f"if {result}:" if isinstance(con, And) else f"if not {result}:"
        for item in con.items[1:]:
            self.emit(indent, guard)
            item_truth = self.truth(item, indent + 1)
            self.emit(indent + 1, f"{result} = {item_truth}")
        return result

    def _helper(self, con: Constraint) -> str:
        """Name of a new function of (b, n, c) that tests con."""
        self._temps += 1
        name = f"h{self._temps}"
        outer, self.lines = self.lines, []
        self.emit(0, f"def {name}(b, n, c):")
        self.require(con, 1, "return False")
        self.emit(1, "return True")
        self.helpers.append(self.lines)
        self.lines = outer
        self.reads.update("bn")
        return name

    def build(self, params: str = "state, c") -> Callable:
        """exec the source written so far and return the function."""
        bool_names = self.const(frozenset(self.bool_names))
        src = ["def _make(K):",
               f"    {', '.join(f'k{i}' for i in range(len(self.consts)))}, = K"]
        src += ["    " + line for helper in self.helpers for line in helper]
        src.append(f"    def run({params}):")
        src += [f"        {m} = state.{'bool_values' if m == 'b' else 'num_values'}"
                for m in sorted(self.reads)]
        src.append("        try:")
        src += ["            " + line for line in self.lines]
        src += ["        except KeyError as exc:",
                f"            raise _unbound(exc, {bool_names}) from None",
                "    return run"]
        namespace = {"State": State, "_new": object.__new__, "_pow_limit": _pow_limit,
                     "_absent": _absent, "_unbound": _unbound, "_EMPTY": _EMPTY}
        exec(compile("\n".join(src), "<cvplan compiled>", "exec"), namespace)
        return namespace["_make"](tuple(self.consts))


def _compile_expr(expr: NumericExpr,
                  layout: Layout) -> Callable[[State, ControlValuation], float]:
    em = _Emitter(layout)
    em.emit(0, f"return {em.expr(expr, 0)}")
    return em.build()


def _compile_constraint(con: Constraint,
                        layout: Layout) -> Callable[[State, ControlValuation], bool]:
    em = _Emitter(layout)
    em.require(con, 0, "return False")
    em.emit(0, "return True")
    return em.build()


def _tuple(items) -> str:
    """The source of a tuple display of the operands items."""
    joined = ", ".join(items)
    return f"({joined},)" if joined else "()"


def _compile_action(action: Action,
                    layout: Layout) -> Callable[[State, ControlValuation], Optional[State]]:
    """The successor is a tuple display per value tuple, or the parent's
    tuple where the effect assigns none of its variables. An assigned name
    the layout lacks extends the successor's layout, as it would extend a
    dict: appended at its first assignment, the last assignment winning."""
    em = _Emitter(layout)
    em.require(action.precondition, 0, "return None")
    em.reads.update("bn")
    bools = {name: f"b[{i}]" for i, name in enumerate(layout.bools)}
    for name, value in action.effect.bool_assigns:
        bools[name] = em.const(value)
    nums = {name: f"n[{i}]" for i, name in enumerate(layout.nums)}
    for name, expr in action.effect.num_assigns:
        # all right-hand sides read the pre-state, evaluated in this order
        value = em.expr(expr, 0)
        nums[name] = em.assign(0, value) if em.may_raise(value) else value
    successor = layout_of(tuple(bools), tuple(nums))
    em.emit(0, "s = _new(State)")
    em.emit(0, f"s.layout = {em.const(successor)}")
    em.emit(0, f"s.bool_values = {_tuple(bools.values()) if action.effect.bool_assigns else 'b'}")
    em.emit(0, f"s.num_values = {_tuple(nums.values()) if action.effect.num_assigns else 'n'}")
    em.emit(0, "return s")
    return em.build()


def compile_liveness(problem: Problem, layout: Layout) -> Callable[[State], List[bool]]:
    """`(state) -> model.liveness(state, problem)`. An action's top-level
    precondition conjuncts that read no control become one test, which
    stops at its first failure; an action with none is True."""
    em = _Emitter(layout)
    tests = []
    for action in problem.actions:
        free = [con for con in conjuncts(action.precondition) if not reads_control(con)]
        tests.append(f"{em._helper(And(tuple(free)))}(b, n, _EMPTY)" if free else "True")
    em.emit(0, f"return [{', '.join(tests)}]")
    return em.build("state")


def compile_draw(problem: Problem, digits: int) -> Callable[..., Dict[str, float]]:
    """`(u) -> valuation`: per control of problem, in declared order,
    lower + width * u() snapped as sampling.snap snaps it to the
    10**-digits grid. While every |value| * 10**digits is within 2**52,
    float arithmetic rounds as snap does, inline."""
    box = problem._control_box
    bound = max([1.0] + [max(abs(lower), abs(lower + width)) for _, lower, width in box])
    scale = 10 ** digits if 0 < digits <= _MAX_GRID_DIGITS else None
    inline = scale is not None and bound * scale <= 2 ** 52
    em = _Emitter(layout_of((), ()))
    floor, k_scale = em.const(math.floor), em.const(float(scale) if inline else scale)
    items = []
    for name, lower, width in box:
        value = f"{em.const(lower)} + {em.const(width)} * u()"
        if inline:
            t = em.assign(0, f"({value}) * {k_scale}")
            value = f"({floor}({t} + 0.5) if {t} >= 0 else -{floor}(0.5 - {t})) / {k_scale}"
        elif scale is not None:
            value = f"{em.const(snap)}({value}, {em.const(digits)}, {k_scale})"
        items.append(f"{em.key(name)}: {em.assign(0, value)}")
    em.emit(0, f"return {{{', '.join(items)}}}")
    return em.build("u")


def compile_goal_count(goal: Constraint, layout: Layout) -> Callable[[State], float]:
    """`(state) -> float`: how many of goal's top-level conjuncts fail in
    state, each tested in order as goal_test would test it."""
    em = _Emitter(layout)
    em.emit(0, "u = 0")
    parts = list(conjuncts(goal))
    for con in parts:
        em.require(con, 0, "u += 1")
    # one float object per count, shared by every state that has it
    em.emit(0, f"return {em.const(tuple(float(u) for u in range(len(parts) + 1)))}[u]")
    return em.build("state, c=_EMPTY")


def compile_state_key(problem: Problem) -> Callable[[State], tuple]:
    """`(state) -> model.state_key(state, problem)`. A state in the
    problem's layout has its booleans as they are and each numeric rounded
    inline as round_half_away rounds a finite value; floor raises on an
    infinite or nan one, and such a state, or one in another layout, keys
    through key_by_name."""
    layout = layout_of(tuple(problem.bools), tuple(problem.nums))
    em = _Emitter(layout)
    em.reads.update("bn")
    slow = f"return {em.const(key_by_name)}(state, {em.const(problem)})"
    em.emit(0, f"if state.layout is not {em.const(layout)}: {slow}")
    scale, floor = em.const(10 ** KEY_DIGITS), em.const(math.floor)
    em.emit(0, "try:")
    rounded = []
    for i in range(len(layout.nums)):
        em.emit(1, f"s{i} = n[{i}] * {scale}")
        rounded.append(f"{floor}(s{i} + 0.5) if s{i} >= 0 else -{floor}(0.5 - s{i})")
    nums = _tuple(rounded)
    em.emit(1, f"return {('b + ' + nums if rounded else 'b') if layout.bools else nums}")
    em.emit(0, "except (OverflowError, ValueError):")
    em.emit(1, slow)
    return em.build("state")


def compile_node(node, layout: Layout) -> Callable:
    """The function an action, constraint or expression compiles to for
    states of layout."""
    if isinstance(node, Action):
        return _compile_action(node, layout)
    if isinstance(node, (Cmp, BoolEq, And, Or, Not)):
        return _compile_constraint(node, layout)
    return _compile_expr(node, layout)

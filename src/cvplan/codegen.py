"""Compile model objects to Python functions: the one evaluator of cvplan.model.

An action compiles to `(state, controls) -> successor State or None`, a
constraint to `(state, controls) -> bool` and an expression to
`(state, controls) -> float`; a problem's liveness to `(state) -> [bool]`
and a goal's count of failed top-level conjuncts to `(state) -> float`.
Each is compiled for one state layout and reads and writes the state's
value tuples by constant index. The source is three-address code that
nests no `if` in another, written by walks that keep their own stacks, so a
tree of any depth compiles. It is exec'd once per object and layout; model
caches the function on the object and imports this module on the first
evaluation, so importing cvplan does not pay for it. A problem's state key
compiles once, for the problem's layout, and its control draw once per grid.
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
    local of its own, and each line runs under no `if` or under the current
    guard, one `if` at the top level of the body, so neither parentheses nor
    indentation grow with the tree's depth.

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
        self._guard: Optional[str] = None  # the test the next lines run under
        self._block: Optional[str] = None  # the test of the open `if`, if any
        self._temps = 0

    def emit(self, text: str, depth: int = 0):
        """Append a line depth levels into the current guard's block, which
        opens when the guard changed or its local was reassigned."""
        if self._guard != self._block:
            self._block = self._guard
            if self._guard is not None:
                self.lines.append(f"if {self._guard}:")
        self.lines.append("    " * (depth + (self._guard is not None)) + text)

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

    def local(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def assign(self, source: str) -> str:
        local = self.local()
        self.emit(f"{local} = {source}")
        return local

    def expr(self, root: NumericExpr) -> str:
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
                        operands.append(self.assign(operands.pop()))
                    stack += ((node, 2), (node.rhs, 0))
                else:
                    rhs, lhs = operands.pop(), operands.pop()
                    op = "+" if isinstance(node, Add) else "-" if isinstance(node, Sub) else "*"
                    operands.append(self.assign(f"{lhs} {op} {rhs}"))
            elif isinstance(node, Neg):
                if phase == 0:
                    stack += ((node, 1), (node.arg, 0))
                else:
                    operands.append(self.assign(f"-{operands.pop()}"))
            elif isinstance(node, Pow):
                if phase == 0:
                    stack += ((node, 1), (node.base, 0))
                else:
                    base, exponent = operands.pop(), self.const(node.exponent)
                    local = self.local()
                    self.emit("try:")
                    self.emit(f"{local} = {base} ** {exponent}", 1)
                    self.emit("except OverflowError:")
                    self.emit(f"{local} = _pow_limit({base}, {exponent})", 1)
                    operands.append(local)
            else:
                raise ModelError(f"not a numeric expression: {node!r}")
        return operands[0]

    def _compare(self, con: Cmp) -> str:
        op = _CMP_SOURCE.get(con.op)
        if op is None:
            raise ModelError(f"unknown comparison operator: {con.op!r}")
        return f"{self.expr(con.expr)} {op} 0"

    def _flag(self, con: BoolEq) -> str:
        self.bool_names.add(con.name)
        return f"{self.read(con.name, 'b')} is {self.const(con.value)}"

    def require(self, con: Constraint, fail: str):
        """Emit code that runs the statement `fail` unless con holds: one
        test per top-level conjunct."""
        for item in conjuncts(con):
            test = (self._compare(item) if isinstance(item, Cmp)
                    else self._flag(item) if isinstance(item, BoolEq) else self.truth(item))
            self.emit(f"if not {test}: {fail}")

    def truth(self, root: Constraint) -> str:
        """Emit root's evaluation; return the local that holds its truth.

        The walk keeps its own stack. An and/or node's local starts, under
        no guard, as the value of the test the node runs under, negated for
        an or; each item then runs under the test `local` (`not local` for
        an or) and stores its truth there, so the items short-circuit left
        to right and a node whose own test fails leaves them all unrun.
        """
        truths: List[str] = []
        stack: list = [("visit", root, None)]
        while stack:
            step, node, self._guard = stack.pop()
            if step == "not":                    # the item of not node is done
                truths.append(self.assign(f"not {truths.pop()}"))
            elif step == "store":                # an and/or item is done; node is its local
                self.emit(f"{node} = {truths.pop()}")
                self._block = None               # the guard reads node: test it again
            elif isinstance(node, Cmp):
                truths.append(self.assign(self._compare(node)))
            elif isinstance(node, BoolEq):
                truths.append(self.assign(self._flag(node)))
            elif isinstance(node, Not):
                stack += (("not", node, self._guard), ("visit", node.item, self._guard))
            elif isinstance(node, (And, Or)):
                test = self._guard or "True"
                if isinstance(node, Or):
                    test = ("False" if test == "True" else test[4:] if test[:4] == "not "
                            else "not " + test)
                self._guard = None
                local = self.assign(test)
                truths.append(local)
                inner = local if isinstance(node, And) else f"not {local}"
                for item in reversed(node.items):
                    stack += (("store", local, inner), ("visit", item, inner))
            else:
                raise ModelError(f"not a constraint: {node!r}")
        self._guard = None
        return truths[0]

    def build(self, params: str = "state, c") -> Callable:
        """exec the source written so far and return the function."""
        bool_names = self.const(frozenset(self.bool_names))
        src = ["def _make(K):",
               f"    {', '.join(f'k{i}' for i in range(len(self.consts)))}, = K"]
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
    em.emit(f"return {em.expr(expr)}")
    return em.build()


def _compile_constraint(con: Constraint,
                        layout: Layout) -> Callable[[State, ControlValuation], bool]:
    em = _Emitter(layout)
    em.require(con, "return False")
    em.emit("return True")
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
    em.require(action.precondition, "return None")
    em.reads.update("bn")
    bools = {name: f"b[{i}]" for i, name in enumerate(layout.bools)}
    for name, value in action.effect.bool_assigns:
        bools[name] = em.const(value)
    nums = {name: f"n[{i}]" for i, name in enumerate(layout.nums)}
    for name, expr in action.effect.num_assigns:
        # all right-hand sides read the pre-state, evaluated in this order
        value = em.expr(expr)
        nums[name] = em.assign(value) if em.may_raise(value) else value
    successor = layout_of(tuple(bools), tuple(nums))
    em.emit("s = _new(State)")
    em.emit(f"s.layout = {em.const(successor)}")
    em.emit(f"s.bool_values = {_tuple(bools.values()) if action.effect.bool_assigns else 'b'}")
    em.emit(f"s.num_values = {_tuple(nums.values()) if action.effect.num_assigns else 'n'}")
    em.emit("return s")
    return em.build()


def compile_liveness(problem: Problem, layout: Layout) -> Callable[[State], List[bool]]:
    """`(state) -> model.liveness(state, problem)`. An action's top-level
    precondition conjuncts that read no control become one test, which
    stops at its first failure; an action with none is True."""
    em = _Emitter(layout)
    tests = []
    for action in problem.actions:
        free = [con for con in conjuncts(action.precondition) if not reads_control(con)]
        tests.append(em.truth(And(tuple(free))) if free else "True")
    em.emit(f"return [{', '.join(tests)}]")
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
            t = em.assign(f"({value}) * {k_scale}")
            value = f"({floor}({t} + 0.5) if {t} >= 0 else -{floor}(0.5 - {t})) / {k_scale}"
        elif scale is not None:
            value = f"{em.const(snap)}({value}, {em.const(digits)}, {k_scale})"
        items.append(f"{em.key(name)}: {em.assign(value)}")
    em.emit(f"return {{{', '.join(items)}}}")
    return em.build("u")


def compile_goal_count(goal: Constraint, layout: Layout) -> Callable[[State], float]:
    """`(state) -> float`: how many of goal's top-level conjuncts fail in
    state, each tested in order as goal_test would test it."""
    em = _Emitter(layout)
    em.emit("u = 0")
    parts = list(conjuncts(goal))
    for con in parts:
        em.require(con, "u += 1")
    # one float object per count, shared by every state that has it
    em.emit(f"return {em.const(tuple(float(u) for u in range(len(parts) + 1)))}[u]")
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
    em.emit(f"if state.layout is not {em.const(layout)}: {slow}")
    scale, floor = em.const(10 ** KEY_DIGITS), em.const(math.floor)
    em.emit("try:")
    rounded = []
    for i in range(len(layout.nums)):
        em.emit(f"s{i} = n[{i}] * {scale}", 1)
        rounded.append(f"{floor}(s{i} + 0.5) if s{i} >= 0 else -{floor}(0.5 - s{i})")
    nums = _tuple(rounded)
    em.emit(f"return {('b + ' + nums if rounded else 'b') if layout.bools else nums}", 1)
    em.emit("except (OverflowError, ValueError):")
    em.emit(slow, 1)
    return em.build("state")


def compile_node(node, layout: Layout) -> Callable:
    """The function an action, constraint or expression compiles to for
    states of layout."""
    if isinstance(node, Action):
        return _compile_action(node, layout)
    if isinstance(node, (Cmp, BoolEq, And, Or, Not)):
        return _compile_constraint(node, layout)
    return _compile_expr(node, layout)

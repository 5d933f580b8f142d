"""Compile model objects to Python functions: the one evaluator of cvplan.model.

An action compiles to `(state, controls) -> successor State or None`, a
constraint to `(state, controls) -> bool` and an expression to
`(state, controls) -> float`, and an action's state test, its top-level
precondition conjuncts that read no control, to `(state) -> bool`. The
source is three-address code, exec'd once per object; model caches the
function on the object and imports this module on the first evaluation,
so importing cvplan does not pay for it.
The code does the float operations the tree spells, in the tree's order:
left operands first, `and`/`or` short-circuiting left to right, `BoolEq` as
an `is` test and `Pow` through _pow_limit. An unbound variable raises
ModelError.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from .model import (
    Action, Add, And, BoolEq, Cmp, Const, Constraint, ControlValuation, ModelError,
    Mul, Neg, Not, NumericExpr, Or, Pow, State, Sub, Var,
)

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


def _unbound(exc: KeyError, bool_names: frozenset) -> ModelError:
    name = exc.args[0]
    kind = "boolean variable" if name in bool_names else "variable"
    return ModelError(f"unbound {kind}: {name!r}")


class _Emitter:
    """Python source for one compiled function `(state, c)`, as three-address
    code: each interior expression node gets a local of its own, so the
    source nests no parentheses however deep the tree.

    Constants, exponents and names that are not str reach the code through
    the tuple K, never as literals; str names enter only as repr() dict
    keys. In the body, b and n are the state's bools and nums and c the
    control valuation.
    """

    def __init__(self):
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
                mapping = "c" if node.kind == "control" else "n"
                if mapping == "n":
                    self.reads.add("n")
                operands.append(f"{mapping}[{self.key(node.name)}]")
            elif isinstance(node, (Add, Sub, Mul)):
                if phase == 0:
                    stack += ((node, 1), (node.lhs, 0))
                elif phase == 1:
                    # look a left-hand variable up before the right side runs
                    if operands[-1].endswith("]") and not isinstance(node.rhs, (Const, Var)):
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
        self.reads.add("b")
        self.bool_names.add(con.name)
        return f"b[{self.key(con.name)}] is {self.const(con.value)}"

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
        src += [f"        {m} = state.{'bools' if m == 'b' else 'nums'}"
                for m in sorted(self.reads)]
        src.append("        try:")
        src += ["            " + line for line in self.lines]
        src += ["        except KeyError as exc:",
                f"            raise _unbound(exc, {bool_names}) from None",
                "    return run"]
        namespace = {"State": State, "_pow_limit": _pow_limit, "_unbound": _unbound}
        exec(compile("\n".join(src), "<cvplan compiled>", "exec"), namespace)
        return namespace["_make"](tuple(self.consts))


def _compile_expr(expr: NumericExpr) -> Callable[[State, ControlValuation], float]:
    em = _Emitter()
    em.emit(0, f"return {em.expr(expr, 0)}")
    return em.build()


def _compile_constraint(con: Constraint) -> Callable[[State, ControlValuation], bool]:
    em = _Emitter()
    em.require(con, 0, "return False")
    em.emit(0, "return True")
    return em.build()


def _compile_action(action: Action) -> Callable[[State, ControlValuation], Optional[State]]:
    em = _Emitter()
    em.require(action.precondition, 0, "return None")
    em.emit(0, "nb = dict(state.bools)")
    for name, value in action.effect.bool_assigns:
        em.emit(0, f"nb[{em.key(name)}] = {em.const(value)}")
    em.emit(0, "nn = dict(state.nums)")
    for name, expr in action.effect.num_assigns:
        # all right-hand sides read the pre-state
        value = em.expr(expr, 0)
        em.emit(0, f"nn[{em.key(name)}] = {value}")
    em.emit(0, "return State(nb, nn)")
    return em.build()


def _conjuncts(con: Constraint):
    """con's top-level conjuncts in order, nested ands flattened as
    _Emitter.require flattens them."""
    if isinstance(con, And):
        for item in con.items:
            yield from _conjuncts(item)
    else:
        yield con


def _reads_control(con: Constraint) -> bool:
    stack = [con]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node.kind == "control":
                return True
        elif isinstance(node, (And, Or)):
            stack.extend(node.items)
        elif isinstance(node, Not):
            stack.append(node.item)
        elif isinstance(node, Cmp):
            stack.append(node.expr)
        elif isinstance(node, (Add, Sub, Mul)):
            stack += (node.lhs, node.rhs)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return False


def compile_state_test(action: Action) -> Optional[Callable[[State], bool]]:
    """`(state) -> bool` over the top-level precondition conjuncts of action
    that read no control, in their order; None when every conjunct reads
    one. When it is False, no control value makes action applicable."""
    free = [con for con in _conjuncts(action.precondition) if not _reads_control(con)]
    if not free:
        return None
    em = _Emitter()
    for con in free:
        em.require(con, 0, "return False")
    em.emit(0, "return True")
    # helpers for deep and/or trees take c, which these conjuncts never read
    return em.build("state, c=None")


def compile_node(node) -> Callable:
    """The function an action, constraint or expression compiles to."""
    if isinstance(node, Action):
        return _compile_action(node)
    if isinstance(node, (Cmp, BoolEq, And, Or, Not)):
        return _compile_constraint(node)
    return _compile_expr(node)

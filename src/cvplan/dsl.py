"""S-expression text format for problems: parser, validator, serializers.

Grammar (whitespace-separated s-expressions, ; starts a line comment):

    problem   := "(" "problem" NAME bools nums controls action* goal ")"
    bools     := "(" "bools"    (NAME | "(" NAME BOOL ")")* ")"
    nums      := "(" "nums"     ("(" NAME NUMBER ")")* ")"
    controls  := "(" "controls" ("(" NAME INT INT ")")* ")"
    action    := "(" "action" NAME "(" "pre" constr ")" "(" "eff" assign* ")" ")"
    goal      := "(" "goal" constr ")"
    constr    := "(" "and" constr* ")" | "(" "or" constr* ")" | "(" "not" constr ")"
               | "(" CMP expr expr ")" | "(" "=" NAME BOOL ")"
    assign    := "(" "assign" NAME expr ")" | "(" "set" NAME BOOL ")"
    expr      := NUMBER | NAME | "(" ("+"|"-"|"*") expr expr+ ")"
               | "(" "-" expr ")" | "(" "^" expr INT ")"

Booleans default to false in the initial state; numeric initials are required.
Comparisons are normalized to `expr op 0` at parse time. `(- expr)` is unary
negation (an extension used by the serializer so round-trips are total).

Parsing never raises on arbitrary input: the result is a Problem or a list of
Diagnostics with source spans.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .model import (
    Action, Add, And, BoolEq, Cmp, CMP_OPS, Const, Constraint, ControlVarSpec,
    Decision, Effect, Mul, Neg, Not, NumericExpr, Or, Pow, Problem, State, Sub,
    Var, iter_constraints, iter_exprs, reads_control,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    col: int


#: span used for diagnostics about problems built programmatically
SYNTHETIC_SPAN = SourceSpan(0, 0, 1, 1)

#: the error of a problem whose trees nest deeper than Python's recursion limit
_TOO_DEEP = "nesting too deep"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.col}: {self.severity}: {self.message}"


_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")

_KEYWORDS = {
    "problem", "bools", "nums", "controls", "action", "pre", "eff", "goal",
    "and", "or", "not", "assign", "set", "true", "false",
}


# ---------------------------------------------------------------------------
# reading: text -> token stream -> nested lists

@dataclass(frozen=True)
class SAtom:
    text: str
    span: SourceSpan


@dataclass(frozen=True)
class SList:
    items: Tuple["SExpr", ...]
    span: SourceSpan


SExpr = Union[SAtom, SList]


def _tokenize(text: str):
    """Yield ("(", span) / (")", span) / (atom_text, span); total on any input."""
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


def _read(text: str) -> Tuple[List[SExpr], List[Diagnostic]]:
    """Read all top-level s-expressions; collects balance errors."""
    diags: List[Diagnostic] = []
    top: List[SExpr] = []
    stack: List[Tuple[List[SExpr], SourceSpan]] = []
    for tok, span in _tokenize(text):
        if tok == "(":
            stack.append(([], span))
        elif tok == ")":
            if not stack:
                diags.append(Diagnostic("error", "unmatched closing parenthesis", span))
                continue
            items, open_span = stack.pop()
            node = SList(tuple(items), SourceSpan(open_span.start, span.end,
                                                  open_span.line, open_span.col))
            (stack[-1][0] if stack else top).append(node)
        else:
            node = SAtom(tok, span)
            (stack[-1][0] if stack else top).append(node)
    for _, open_span in stack:
        diags.append(Diagnostic("error", "unclosed parenthesis", open_span))
    return top, diags


# ---------------------------------------------------------------------------
# interpretation: nested lists -> Problem

class _ParseFail(Exception):
    """Internal: abort interpretation with its one error Diagnostic."""


class _Interp:
    """Reads the grammar of a (problem ...) form. The semantic rules are
    all _check's; for them the interpreter keeps declarations in order,
    repeats included, and records a span table: each declaration's span
    under ("decl", position), the last initial value of each numeric under
    ("init", name), and under id() of each Action, Const, Var, BoolEq and
    effect pair that of its name, literal, reference, test or target."""

    def __init__(self):
        self.bools: List[Tuple[str, bool]] = []
        self.nums: List[Tuple[str, float]] = []
        self.controls: List[ControlVarSpec] = []
        self.control_names: set = set()
        self.spans: Dict[object, SourceSpan] = {}

    def error(self, message: str, span: SourceSpan):
        raise _ParseFail(Diagnostic("error", message, span))

    def declare(self, decls: list, decl, span: SourceSpan):
        position = len(self.bools) + len(self.nums) + len(self.controls)
        self.spans["decl", position] = span
        decls.append(decl)

    # -- leaf helpers ------------------------------------------------------

    def expect_list(self, node: SExpr, what: str) -> SList:
        if not isinstance(node, SList):
            self.error(f"expected {what}", node.span)
        return node

    def expect_head(self, node: SExpr, keyword: str) -> SList:
        lst = self.expect_list(node, f"({keyword} ...)")
        if not lst.items or not isinstance(lst.items[0], SAtom) \
                or lst.items[0].text != keyword:
            self.error(f"expected ({keyword} ...)", lst.span)
        return lst

    def expect_name(self, node: SExpr, what: str = "name") -> str:
        if not isinstance(node, SAtom) or not _NAME_RE.match(node.text) \
                or node.text in _KEYWORDS:
            self.error(f"expected {what}", node.span)
        return node.text

    def expect_number(self, node: SExpr) -> float:
        if not isinstance(node, SAtom) or not _NUMBER_RE.match(node.text):
            self.error("expected a number", node.span)
        return float(node.text)

    def expect_int(self, node: SExpr, what: str = "an integer") -> int:
        if not isinstance(node, SAtom) or not _INT_RE.match(node.text):
            self.error(f"expected {what}", node.span)
        try:
            return int(node.text)
        except ValueError:  # beyond the interpreter's int digit limit
            self.error("integer literal too long", node.span)

    def expect_bool(self, node: SExpr) -> bool:
        if isinstance(node, SAtom) and node.text in ("true", "false"):
            return node.text == "true"
        self.error("expected true or false", node.span)

    # -- sections ----------------------------------------------------------

    def parse_bools(self, node: SExpr):
        lst = self.expect_head(node, "bools")
        for decl in lst.items[1:]:
            if isinstance(decl, SAtom):
                name = self.expect_name(decl, "boolean variable name")
                init = False
            else:
                if len(decl.items) != 2:
                    self.error("expected (name bool)", decl.span)
                name = self.expect_name(decl.items[0], "boolean variable name")
                init = self.expect_bool(decl.items[1])
            self.declare(self.bools, (name, init), decl.span)

    def parse_nums(self, node: SExpr):
        lst = self.expect_head(node, "nums")
        for decl in lst.items[1:]:
            d = self.expect_list(decl, "(name number)")
            if len(d.items) != 2:
                self.error("expected (name number)", d.span)
            name = self.expect_name(d.items[0], "numeric variable name")
            self.declare(self.nums, (name, self.expect_number(d.items[1])), d.span)
            self.spans["init", name] = d.items[1].span

    def parse_controls(self, node: SExpr):
        lst = self.expect_head(node, "controls")
        for decl in lst.items[1:]:
            d = self.expect_list(decl, "(name int int)")
            if len(d.items) != 3:
                self.error("expected (name lower upper)", d.span)
            name = self.expect_name(d.items[0], "control variable name")
            lower = self.expect_int(d.items[1], "an integer lower bound")
            upper = self.expect_int(d.items[2], "an integer upper bound")
            self.declare(self.controls, ControlVarSpec(name, lower, upper), d.span)
            self.control_names.add(name)

    # -- expressions and constraints ----------------------------------------

    def parse_expr(self, node: SExpr) -> NumericExpr:
        if isinstance(node, SAtom):
            if _NUMBER_RE.match(node.text):
                leaf = Const(float(node.text))
            else:
                leaf = Var(node.text, "control" if node.text in self.control_names else "state")
            self.spans[id(leaf)] = node.span
            return leaf
        lst = node
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected an expression", lst.span)
        head = lst.items[0].text
        args = lst.items[1:]
        if head in ("+", "-", "*"):
            if head == "-" and len(args) == 1:
                return Neg(self.parse_expr(args[0]))
            if len(args) < 2:
                self.error(f"operator {head} needs at least two arguments", lst.span)
            node_cls = {"+": Add, "-": Sub, "*": Mul}[head]
            acc = self.parse_expr(args[0])
            for arg in args[1:]:
                acc = node_cls(acc, self.parse_expr(arg))
            return acc
        if head == "^":
            if len(args) != 2:
                self.error("expected (^ expr int)", lst.span)
            base = self.parse_expr(args[0])
            exp = self.expect_int(args[1], "a nonnegative integer exponent")
            if exp < 0:
                self.error("exponent must be nonnegative", args[1].span)
            return Pow(base, exp)
        self.error(f"unknown operator: {head}", lst.items[0].span)

    def parse_constr(self, node: SExpr) -> Constraint:
        lst = self.expect_list(node, "a constraint")
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected a constraint", lst.span)
        head = lst.items[0].text
        args = lst.items[1:]
        if head == "and":
            return And(tuple(self.parse_constr(a) for a in args))
        if head == "or":
            return Or(tuple(self.parse_constr(a) for a in args))
        if head == "not":
            if len(args) != 1:
                self.error("not takes exactly one constraint", lst.span)
            return Not(self.parse_constr(args[0]))
        if head in CMP_OPS:
            # boolean test form: (= name true|false)
            if head == "=" and len(args) == 2 and isinstance(args[1], SAtom) \
                    and args[1].text in ("true", "false"):
                test = BoolEq(self.expect_name(args[0], "boolean variable name"),
                              args[1].text == "true")
                self.spans[id(test)] = args[0].span
                return test
            if len(args) != 2:
                self.error(f"comparison {head} takes two expressions", lst.span)
            lhs = self.parse_expr(args[0])
            rhs = self.parse_expr(args[1])
            if isinstance(rhs, Const) and rhs.value == 0.0:
                return Cmp(lhs, head)
            return Cmp(Sub(lhs, rhs), head)
        self.error(f"unknown constraint keyword: {head}", lst.items[0].span)

    def parse_assign(self, node: SExpr) -> tuple:
        lst = self.expect_list(node, "(assign ...) or (set ...)")
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected (assign ...) or (set ...)", lst.span)
        head = lst.items[0].text
        args = lst.items[1:]
        if head == "assign":
            if len(args) != 2:
                self.error("expected (assign name expr)", lst.span)
            pair = (self.expect_name(args[0], "numeric variable name"),
                    self.parse_expr(args[1]))
        elif head == "set":
            if len(args) != 2:
                self.error("expected (set name bool)", lst.span)
            pair = (self.expect_name(args[0], "boolean variable name"),
                    self.expect_bool(args[1]))
        else:
            self.error(f"unknown effect keyword: {head}", lst.items[0].span)
        self.spans[id(pair)] = args[0].span
        return pair

    def parse_action(self, node: SExpr) -> Action:
        lst = self.expect_head(node, "action")
        if len(lst.items) != 4:
            self.error("expected (action name (pre ...) (eff ...))", lst.span)
        name = self.expect_name(lst.items[1], "action name")
        pre_lst = self.expect_head(lst.items[2], "pre")
        if len(pre_lst.items) != 2:
            self.error("expected (pre constraint)", pre_lst.span)
        pre = self.parse_constr(pre_lst.items[1])
        eff_lst = self.expect_head(lst.items[3], "eff")
        pairs = [self.parse_assign(item) for item in eff_lst.items[1:]]
        action = Action(name, pre, Effect(
            tuple(p for p in pairs if isinstance(p[1], bool)),
            tuple(p for p in pairs if not isinstance(p[1], bool))))
        self.spans[id(action)] = lst.items[1].span
        return action

    def parse_problem_form(self, node: SExpr) -> Problem:
        lst = self.expect_head(node, "problem")
        if len(lst.items) < 6:
            self.error("expected (problem name (bools...) (nums...) "
                       "(controls...) actions... (goal ...))", lst.span)
        name = self.expect_name(lst.items[1], "problem name")
        self.parse_bools(lst.items[2])
        self.parse_nums(lst.items[3])
        self.parse_controls(lst.items[4])
        actions = tuple(self.parse_action(form) for form in lst.items[5:-1])
        goal_lst = self.expect_head(lst.items[-1], "goal")
        if len(goal_lst.items) != 2:
            self.error("expected (goal constraint)", goal_lst.span)
        return Problem(
            name=name,
            bools=tuple(n for n, _ in self.bools),
            nums=tuple(n for n, _ in self.nums),
            controls=tuple(self.controls),
            actions=actions,
            init=State(bools=dict(self.bools), nums=dict(self.nums)),
            goal=self.parse_constr(goal_lst.items[1]),
        )


def parse_problem(text: str) -> Tuple[Optional[Problem], List[Diagnostic]]:
    """Parse and check a problem document. Returns (problem, diagnostics):
    every semantic error and warning of validate's rules, each at its span
    in text, or the first error of the grammar.

    problem is None whenever any error diagnostic was produced. Never raises
    on arbitrary input.
    """
    forms, diags = _read(text)
    if diags:
        return None, diags
    span_all = SourceSpan(0, len(text), 1, 1)
    if not forms:
        return None, [Diagnostic("error", "empty document", span_all)]
    if len(forms) > 1:
        return None, [Diagnostic("error", "expected a single (problem ...) form",
                                 forms[1].span)]
    interp = _Interp()
    try:
        problem = interp.parse_problem_form(forms[0])
        diags = _check(problem, interp.spans)
    except _ParseFail as fail:
        return None, list(fail.args)
    except RecursionError:
        return None, [Diagnostic("error", _TOO_DEEP, span_all)]
    if any(d.severity == "error" for d in diags):
        return None, diags
    return problem, diags


def load_problem(path: str) -> Tuple[Optional[Problem], List[Diagnostic]]:
    """parse_problem of a file's text. An unreadable file raises OSError or
    ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def key_values(tokens: Sequence[str]) -> Dict[str, str]:
    """The text values of `key=value` tokens, in token order. Raises
    ValueError on a token without `=` and on a duplicate key."""
    values: Dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {token!r}")
        if key in values:
            raise ValueError(f"duplicate key {key!r}")
        values[key] = value
    return values


# ---------------------------------------------------------------------------
# object-level validation

_FULL = (float("-inf"), float("inf"))


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _iv_mul(a, b):
    cands = []
    for x in a:
        for y in b:
            v = x * y
            if v != v:  # 0 * inf; widen conservatively
                return _FULL
            cands.append(v)
    return (min(cands), max(cands))


def _iv_pow(a, k):
    if k == 0:
        return (1.0, 1.0)
    try:
        lo, hi = a[0] ** k, a[1] ** k
    except OverflowError:  # k is beyond the float range
        return _FULL
    if k % 2 == 1:
        return (lo, hi)
    if a[0] <= 0.0 <= a[1]:
        return (0.0, max(lo, hi))
    return (min(lo, hi), max(lo, hi))


def _expr_interval(expr: NumericExpr, box: Dict[str, Tuple[float, float]]):
    """Interval of possible values with state variables unconstrained."""
    if isinstance(expr, Const):
        return (expr.value, expr.value)
    if isinstance(expr, Var):
        if expr.kind == "control":
            return box.get(expr.name, _FULL)
        return _FULL
    if isinstance(expr, (Add, Sub, Mul)):
        combine = (_iv_add if isinstance(expr, Add)
                   else _iv_sub if isinstance(expr, Sub) else _iv_mul)
        return combine(_expr_interval(expr.lhs, box), _expr_interval(expr.rhs, box))
    if isinstance(expr, Neg):
        lo, hi = _expr_interval(expr.arg, box)
        return (-hi, -lo)
    if isinstance(expr, Pow):
        return _iv_pow(_expr_interval(expr.base, box), expr.exponent)
    return _FULL


def _fold_constraint(con: Constraint, box) -> Optional[bool]:
    """Three-valued fold: True / False only when certain, else None."""
    if isinstance(con, Cmp):
        lo, hi = _expr_interval(con.expr, box)
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
        vals = [_fold_constraint(c, box) for c in con.items]
        if any(v is False for v in vals):
            return False
        if all(v is True for v in vals):
            return True
        return None
    if isinstance(con, Or):
        vals = [_fold_constraint(c, box) for c in con.items]
        if any(v is True for v in vals):
            return True
        if all(v is False for v in vals):
            return False
        return None
    if isinstance(con, Not):
        v = _fold_constraint(con.item, box)
        return None if v is None else not v
    return None


def _finite_number(value) -> bool:
    """Whether value is an int or float that converts to a finite float."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


def _check(problem: Problem, spans: Dict[object, SourceSpan]) -> List[Diagnostic]:
    """Every semantic rule of a problem. spans is parse_problem's span table
    (see _Interp). A diagnostic whose subject has no span there, as none has
    in a problem built in code, gets SYNTHETIC_SPAN and a prefix naming the
    action, control or goal concerned."""
    diags: List[Diagnostic] = []

    def report(severity: str, key, where: str, message: str):
        span = spans.get(key)
        if span is None:
            span = SYNTHETIC_SPAN
            message = f"{where}: {message}" if where else message
        diags.append(Diagnostic(severity, message, span))

    bool_set = set(problem.bools)
    num_set = set(problem.nums)
    control_set = {c.name for c in problem.controls}

    declared: set = set()
    names = list(problem.bools) + list(problem.nums) + [c.name for c in problem.controls]
    for position, name in enumerate(names):
        if name in declared:
            report("error", ("decl", position), "", f"duplicate declaration: {name}")
        declared.add(name)
    box = {}
    for position, spec in enumerate(problem.controls, len(names) - len(problem.controls)):
        key, where = ("decl", position), f"control {spec.name}"
        if not spec.lower < spec.upper:
            report("error", key, where, "lower bound must be < upper bound")
        if not (isinstance(spec.lower, int) and isinstance(spec.upper, int)):
            report("error", key, where, "bounds must be integers")
        try:
            box[spec.name] = (float(spec.lower), float(spec.upper))
        except OverflowError:
            report("error", key, where, "bounds are beyond the float range")

    if set(problem.init.bools.keys()) != bool_set or set(problem.init.nums.keys()) != num_set:
        report("error", None, "", "initial state must assign every declared variable "
               "exactly once")
    for name, value in problem.init.nums.items():
        if not _finite_number(value):
            report("error", ("init", name), f"initial value of {name}",
                   "not a finite number")

    #: the constants reported as not finite numbers, which the fold cannot take
    not_finite: List[Const] = []

    def check_expr(expr: NumericExpr, where: str, allow_controls: bool):
        for e in iter_exprs(expr):
            if isinstance(e, Const) and not _finite_number(e.value):
                report("error", id(e), where, "not a finite number")
                not_finite.append(e)
            if not isinstance(e, Var):
                continue
            if e.kind == "control":
                if e.name not in control_set:
                    report("error", id(e), where, f"undeclared control variable: {e.name}")
                elif not allow_controls:
                    report("error", id(e), where,
                           f"control variable not allowed here: {e.name}")
            elif e.name not in num_set:
                report("error", id(e), where,
                       f"boolean variable in numeric expression: {e.name}"
                       if e.name in bool_set else f"undeclared variable: {e.name}")

    def check_constraint(con: Constraint, where: str, allow_controls: bool):
        for node in iter_constraints(con):
            if isinstance(node, BoolEq) and node.name not in bool_set:
                report("error", id(node), where,
                       f"not a boolean variable: {node.name}" if node.name in declared
                       else f"undeclared boolean variable: {node.name}")
            elif isinstance(node, Cmp):
                check_expr(node.expr, where, allow_controls)

    action_names = set()
    for act in problem.actions:
        where = f"action {act.name}"
        if act.name in action_names:
            report("error", id(act), "", f"duplicate action name: {act.name}")
        action_names.add(act.name)
        reported = len(not_finite)
        check_constraint(act.precondition, f"{where} precondition", True)
        targets = set()
        for pair in act.effect.bool_assigns + act.effect.num_assigns:
            if pair[0] in targets:
                report("error", id(pair), where, f"conflicting assignments to {pair[0]}")
            targets.add(pair[0])
        for pair in act.effect.bool_assigns:
            if pair[0] not in bool_set:
                report("error", id(pair), where,
                       f"set target {pair[0]} is not a boolean variable")
        for pair in act.effect.num_assigns:
            name, expr = pair
            if name in control_set:
                report("error", id(pair), where,
                       f"control variables cannot be assigned: {name}")
            elif name not in num_set:
                report("error", id(pair), where,
                       f"assign target {name} is not a numeric variable")
            check_expr(expr, where, True)
        if len(not_finite) == reported and _fold_constraint(act.precondition, box) is False:
            report("warning", id(act), where,
                   "precondition is unsatisfiable over the control box")
        for node in iter_constraints(act.precondition):
            if isinstance(node, Cmp) and node.op == "=" and reads_control(node):
                report("warning", id(act), where, "equality constraint on a control "
                       "variable confines sampling to a measure-zero set")

    check_constraint(problem.goal, "goal", False)
    if not isinstance(problem.goal, And):
        report("warning", None, "", "goal top level is not a conjunction; goal "
               "counting treats it as a single conjunct")
    return diags


def validate(problem: Problem) -> List[Diagnostic]:
    """Semantic checks on a Problem built in code; parse_problem makes the
    same checks on text, with spans.

    Errors: duplicate declarations, bad control bounds, partial initial
    state, a non-finite initial value or constant, references to undeclared
    or wrongly typed variables, a control in the goal, effect targets
    outside the declared sets or assigned twice, duplicate action names,
    trees nested too deep to check.
    Warnings: precondition constant-folds to false over the control box,
    non-conjunction goal top level, equality precondition on a control
    variable (rejection sampling can never hit a measure-zero set).
    """
    try:
        return _check(problem, {})
    except RecursionError:
        return [Diagnostic("error", _TOO_DEEP, SYNTHETIC_SPAN)]


# ---------------------------------------------------------------------------
# serialization

def _fmt_number(value: float) -> str:
    return repr(float(value))


def _expr_text(expr: NumericExpr) -> str:
    """expr's text, written with an explicit stack, so any depth works; a
    string on the stack is text to copy."""
    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Const):
            out.append(_fmt_number(node.value))
        elif isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, (Add, Sub, Mul)):
            out.append("(+ " if isinstance(node, Add)
                       else "(- " if isinstance(node, Sub) else "(* ")
            stack += (")", node.rhs, " ", node.lhs)
        elif isinstance(node, Neg):
            out.append("(- ")
            stack += (")", node.arg)
        elif isinstance(node, Pow):
            out.append("(^ ")
            stack += (f" {node.exponent})", node.base)
        else:
            raise TypeError(f"not a numeric expression: {node!r}")
    return "".join(out)


def _constr_text(con: Constraint) -> str:
    """con's text, written as _expr_text writes an expression's."""
    out, stack = [], [con]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Cmp):
            out.append(f"({node.op} {_expr_text(node.expr)} 0)")
        elif isinstance(node, BoolEq):
            out.append(f"(= {node.name} {'true' if node.value else 'false'})")
        elif isinstance(node, (And, Or)):
            out.append("(and" if isinstance(node, And) else "(or")
            stack.append(")")
            for item in reversed(node.items):
                stack += (item, " ")
        elif isinstance(node, Not):
            out.append("(not ")
            stack += (")", node.item)
        else:
            raise TypeError(f"not a constraint: {node!r}")
    return "".join(out)


def serialize_problem(problem: Problem) -> str:
    """Canonical text form; parse_problem(serialize_problem(p)) equals p."""
    lines = [f"(problem {problem.name}"]
    init_bools, init_nums = problem.init.bools, problem.init.nums
    bools = " ".join(
        f"({name} true)" if init_bools.get(name) else name
        for name in problem.bools
    )
    lines.append(f"  (bools{' ' + bools if bools else ''})")
    nums = " ".join(
        f"({name} {_fmt_number(init_nums[name])})" for name in problem.nums
    )
    lines.append(f"  (nums{' ' + nums if nums else ''})")
    controls = " ".join(
        f"({c.name} {c.lower} {c.upper})" for c in problem.controls
    )
    lines.append(f"  (controls{' ' + controls if controls else ''})")
    for act in problem.actions:
        effs = [f"(set {name} {'true' if value else 'false'})"
                for name, value in act.effect.bool_assigns]
        effs += [f"(assign {name} {_expr_text(expr)})"
                 for name, expr in act.effect.num_assigns]
        eff_text = " ".join(effs)
        lines.append(
            f"  (action {act.name} (pre {_constr_text(act.precondition)}) "
            f"(eff{' ' + eff_text if eff_text else ''}))"
        )
    lines.append(f"  (goal {_constr_text(problem.goal)}))")
    return "\n".join(lines) + "\n"


def serialize_plan(plan: Sequence[Decision]) -> str:
    """One header line, then `index: action name=value ...` per step."""
    lines = [f"plan length={len(plan)}"]
    for i, step in enumerate(plan):
        controls = " ".join(f"{k}={_fmt_number(v)}" for k, v in step.controls.items())
        lines.append(f"{i}: {step.action}{' ' + controls if controls else ''}")
    return "\n".join(lines) + "\n"

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

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .model import (
    Action, Add, And, BoolEq, Cmp, CMP_OPS, Const, Constraint, ControlVarSpec,
    Decision, Effect, Mul, Neg, Not, NumericExpr, Or, Pow, Problem, State, Sub,
    Var, iter_constraints, iter_exprs,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    col: int


#: span used for diagnostics about problems built programmatically
SYNTHETIC_SPAN = SourceSpan(0, 0, 1, 1)


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
    """Internal: abort interpretation after recording a diagnostic."""


class _Interp:
    def __init__(self):
        self.diags: List[Diagnostic] = []
        self.bools: Dict[str, bool] = {}
        self.nums: Dict[str, float] = {}
        self.controls: List[ControlVarSpec] = []

    def error(self, message: str, span: SourceSpan):
        self.diags.append(Diagnostic("error", message, span))
        raise _ParseFail()

    def declared(self, name: str) -> bool:
        return name in self.bools or name in self.nums or any(
            c.name == name for c in self.controls)

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
                span = decl.span
            else:
                if len(decl.items) != 2:
                    self.error("expected (name bool)", decl.span)
                name = self.expect_name(decl.items[0], "boolean variable name")
                init = self.expect_bool(decl.items[1])
                span = decl.span
            if self.declared(name):
                self.error(f"duplicate declaration: {name}", span)
            self.bools[name] = init

    def parse_nums(self, node: SExpr):
        lst = self.expect_head(node, "nums")
        for decl in lst.items[1:]:
            d = self.expect_list(decl, "(name number)")
            if len(d.items) != 2:
                self.error("expected (name number)", d.span)
            name = self.expect_name(d.items[0], "numeric variable name")
            init = self.expect_number(d.items[1])
            if self.declared(name):
                self.error(f"duplicate declaration: {name}", d.span)
            self.nums[name] = init

    def parse_controls(self, node: SExpr):
        lst = self.expect_head(node, "controls")
        for decl in lst.items[1:]:
            d = self.expect_list(decl, "(name int int)")
            if len(d.items) != 3:
                self.error("expected (name lower upper)", d.span)
            name = self.expect_name(d.items[0], "control variable name")
            lower = self.expect_int(d.items[1], "an integer lower bound")
            upper = self.expect_int(d.items[2], "an integer upper bound")
            if self.declared(name):
                self.error(f"duplicate declaration: {name}", d.span)
            if not lower < upper:
                self.error("lower bound must be < upper bound", d.span)
            self.controls.append(ControlVarSpec(name, lower, upper))

    # -- expressions and constraints ----------------------------------------

    def parse_expr(self, node: SExpr, allow_controls: bool) -> NumericExpr:
        if isinstance(node, SAtom):
            if _NUMBER_RE.match(node.text):
                return Const(float(node.text))
            name = node.text
            if name in self.nums:
                return Var(name, "state")
            if any(c.name == name for c in self.controls):
                if not allow_controls:
                    self.error(f"control variable not allowed here: {name}", node.span)
                return Var(name, "control")
            if name in self.bools:
                self.error(f"boolean variable in numeric expression: {name}", node.span)
            self.error(f"undeclared variable: {name}", node.span)
        lst = node
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected an expression", lst.span)
        head = lst.items[0].text
        args = lst.items[1:]
        if head in ("+", "-", "*"):
            if head == "-" and len(args) == 1:
                return Neg(self.parse_expr(args[0], allow_controls))
            if len(args) < 2:
                self.error(f"operator {head} needs at least two arguments", lst.span)
            node_cls = {"+": Add, "-": Sub, "*": Mul}[head]
            acc = self.parse_expr(args[0], allow_controls)
            for arg in args[1:]:
                acc = node_cls(acc, self.parse_expr(arg, allow_controls))
            return acc
        if head == "^":
            if len(args) != 2:
                self.error("expected (^ expr int)", lst.span)
            base = self.parse_expr(args[0], allow_controls)
            exp = self.expect_int(args[1], "a nonnegative integer exponent")
            if exp < 0:
                self.error("exponent must be nonnegative", args[1].span)
            return Pow(base, exp)
        self.error(f"unknown operator: {head}", lst.items[0].span)

    def parse_constr(self, node: SExpr, allow_controls: bool) -> Constraint:
        lst = self.expect_list(node, "a constraint")
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected a constraint", lst.span)
        head = lst.items[0].text
        args = lst.items[1:]
        if head == "and":
            return And(tuple(self.parse_constr(a, allow_controls) for a in args))
        if head == "or":
            return Or(tuple(self.parse_constr(a, allow_controls) for a in args))
        if head == "not":
            if len(args) != 1:
                self.error("not takes exactly one constraint", lst.span)
            return Not(self.parse_constr(args[0], allow_controls))
        if head in CMP_OPS:
            # boolean test form: (= name true|false)
            if head == "=" and len(args) == 2 and isinstance(args[1], SAtom) \
                    and args[1].text in ("true", "false"):
                name = self.expect_name(args[0], "boolean variable name")
                if name not in self.bools:
                    if self.declared(name):
                        self.error(f"not a boolean variable: {name}", args[0].span)
                    self.error(f"undeclared boolean variable: {name}", args[0].span)
                return BoolEq(name, args[1].text == "true")
            if len(args) != 2:
                self.error(f"comparison {head} takes two expressions", lst.span)
            lhs = self.parse_expr(args[0], allow_controls)
            rhs = self.parse_expr(args[1], allow_controls)
            if isinstance(rhs, Const) and rhs.value == 0.0:
                return Cmp(lhs, head)
            return Cmp(Sub(lhs, rhs), head)
        self.error(f"unknown constraint keyword: {head}", lst.items[0].span)

    def parse_assign(self, node: SExpr, targets_seen: set) -> Tuple[str, object]:
        lst = self.expect_list(node, "(assign ...) or (set ...)")
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected (assign ...) or (set ...)", lst.span)
        head = lst.items[0].text
        args = lst.items[1:]
        if head == "assign":
            if len(args) != 2:
                self.error("expected (assign name expr)", lst.span)
            name = self.expect_name(args[0], "numeric variable name")
            if name not in self.nums:
                if any(c.name == name for c in self.controls):
                    self.error(f"control variables cannot be assigned: {name}",
                               args[0].span)
                self.error(f"assignment target is not a numeric variable: {name}",
                           args[0].span)
            if name in targets_seen:
                self.error(f"conflicting assignments to {name}", args[0].span)
            targets_seen.add(name)
            return ("num", (name, self.parse_expr(args[1], True)))
        if head == "set":
            if len(args) != 2:
                self.error("expected (set name bool)", lst.span)
            name = self.expect_name(args[0], "boolean variable name")
            if name not in self.bools:
                self.error(f"set target is not a boolean variable: {name}",
                           args[0].span)
            if name in targets_seen:
                self.error(f"conflicting assignments to {name}", args[0].span)
            targets_seen.add(name)
            return ("bool", (name, self.expect_bool(args[1])))
        self.error(f"unknown effect keyword: {head}", lst.items[0].span)

    def parse_action(self, node: SExpr, names_seen: set) -> Action:
        lst = self.expect_head(node, "action")
        if len(lst.items) != 4:
            self.error("expected (action name (pre ...) (eff ...))", lst.span)
        name = self.expect_name(lst.items[1], "action name")
        if name in names_seen:
            self.error(f"duplicate action name: {name}", lst.items[1].span)
        names_seen.add(name)
        pre_lst = self.expect_head(lst.items[2], "pre")
        if len(pre_lst.items) != 2:
            self.error("expected (pre constraint)", pre_lst.span)
        pre = self.parse_constr(pre_lst.items[1], True)
        eff_lst = self.expect_head(lst.items[3], "eff")
        targets: set = set()
        bool_assigns: List[Tuple[str, bool]] = []
        num_assigns: List[Tuple[str, NumericExpr]] = []
        for item in eff_lst.items[1:]:
            kind, payload = self.parse_assign(item, targets)
            if kind == "bool":
                bool_assigns.append(payload)
            else:
                num_assigns.append(payload)
        return Action(name, pre, Effect(tuple(bool_assigns), tuple(num_assigns)))

    def parse_problem_form(self, node: SExpr) -> Problem:
        lst = self.expect_head(node, "problem")
        if len(lst.items) < 6:
            self.error("expected (problem name (bools...) (nums...) "
                       "(controls...) actions... (goal ...))", lst.span)
        name = self.expect_name(lst.items[1], "problem name")
        self.parse_bools(lst.items[2])
        self.parse_nums(lst.items[3])
        self.parse_controls(lst.items[4])
        actions: List[Action] = []
        names_seen: set = set()
        for form in lst.items[5:-1]:
            actions.append(self.parse_action(form, names_seen))
        goal_lst = self.expect_head(lst.items[-1], "goal")
        if len(goal_lst.items) != 2:
            self.error("expected (goal constraint)", goal_lst.span)
        goal = self.parse_constr(goal_lst.items[1], False)
        return Problem(
            name=name,
            bools=tuple(self.bools.keys()),
            nums=tuple(self.nums.keys()),
            controls=tuple(self.controls),
            actions=tuple(actions),
            init=State(bools=self.bools, nums=self.nums),
            goal=goal,
        )


def parse_problem(text: str) -> Tuple[Optional[Problem], List[Diagnostic]]:
    """Parse a problem document. Returns (problem, diagnostics).

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
    except _ParseFail:
        return None, interp.diags
    except RecursionError:
        return None, [Diagnostic("error", "nesting too deep", span_all)]
    return problem, interp.diags


def load_problem(path: str) -> Tuple[Optional[Problem], List[Diagnostic]]:
    """Read, parse and validate a problem file: (problem or None on any error,
    every diagnostic). An unreadable file raises OSError or ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        problem, diags = parse_problem(fh.read())
    if problem is not None:
        diags = diags + validate(problem)
        if any(d.severity == "error" for d in diags):
            problem = None
    return problem, diags


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
    if isinstance(expr, Add):
        return _iv_add(_expr_interval(expr.lhs, box), _expr_interval(expr.rhs, box))
    if isinstance(expr, Sub):
        return _iv_sub(_expr_interval(expr.lhs, box), _expr_interval(expr.rhs, box))
    if isinstance(expr, Mul):
        return _iv_mul(_expr_interval(expr.lhs, box), _expr_interval(expr.rhs, box))
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


def validate(problem: Problem) -> List[Diagnostic]:
    """Semantic checks on a Problem object (parsed or built programmatically).

    Errors: goal reading controls, effect targets outside the declared sets,
    partial initial state, duplicate declarations, bad control bounds.
    Warnings: precondition constant-folds to false over the control box,
    non-conjunction goal top level, equality precondition on a control
    variable (rejection sampling can never hit a measure-zero set).
    """
    diags: List[Diagnostic] = []
    span = SYNTHETIC_SPAN

    def err(msg):
        diags.append(Diagnostic("error", msg, span))

    def warn(msg):
        diags.append(Diagnostic("warning", msg, span))

    bool_set = set(problem.bools)
    num_set = set(problem.nums)
    control_set = {c.name for c in problem.controls}

    names = list(problem.bools) + list(problem.nums) + [c.name for c in problem.controls]
    if len(names) != len(set(names)):
        err("duplicate variable declaration")
    box = {}
    for spec in problem.controls:
        if not spec.lower < spec.upper:
            err(f"control {spec.name}: lower bound must be < upper bound")
        if not (isinstance(spec.lower, int) and isinstance(spec.upper, int)):
            err(f"control {spec.name}: bounds must be integers")
        try:
            box[spec.name] = (float(spec.lower), float(spec.upper))
        except OverflowError:
            err(f"control {spec.name}: bounds are beyond the float range")

    if set(problem.init.bools.keys()) != bool_set or set(problem.init.nums.keys()) != num_set:
        err("initial state must assign every declared variable exactly once")

    def check_refs(con: Constraint, where: str, allow_controls: bool):
        for node in iter_constraints(con):
            if isinstance(node, BoolEq) and node.name not in bool_set:
                err(f"{where}: undeclared boolean variable {node.name}")
            if isinstance(node, Cmp):
                for e in iter_exprs(node.expr):
                    if isinstance(e, Var):
                        if e.kind == "control":
                            if e.name not in control_set:
                                err(f"{where}: undeclared control variable {e.name}")
                            elif not allow_controls:
                                err(f"{where}: control variable {e.name} not allowed")
                        elif e.name not in num_set:
                            err(f"{where}: undeclared numeric variable {e.name}")

    action_names = set()
    for act in problem.actions:
        if act.name in action_names:
            err(f"duplicate action name: {act.name}")
        action_names.add(act.name)
        check_refs(act.precondition, f"action {act.name} precondition", True)
        targets = set()
        for name, _ in act.effect.bool_assigns:
            if name not in bool_set:
                err(f"action {act.name}: set target {name} is not a boolean variable")
            if name in targets:
                err(f"action {act.name}: conflicting assignments to {name}")
            targets.add(name)
        for name, expr in act.effect.num_assigns:
            if name in control_set:
                err(f"action {act.name}: control variables cannot be assigned ({name})")
            elif name not in num_set:
                err(f"action {act.name}: assign target {name} is not a numeric variable")
            if name in targets:
                err(f"action {act.name}: conflicting assignments to {name}")
            targets.add(name)
            for e in iter_exprs(expr):
                if isinstance(e, Var):
                    if e.kind == "control" and e.name not in control_set:
                        err(f"action {act.name}: undeclared control variable {e.name}")
                    if e.kind == "state" and e.name not in num_set:
                        err(f"action {act.name}: undeclared numeric variable {e.name}")
        if _fold_constraint(act.precondition, box) is False:
            warn(f"action {act.name}: precondition is unsatisfiable over the "
                 "control box")
        for node in iter_constraints(act.precondition):
            if isinstance(node, Cmp) and node.op == "=" and any(
                    isinstance(e, Var) and e.kind == "control"
                    for e in iter_exprs(node.expr)):
                warn(f"action {act.name}: equality constraint on a control "
                     "variable confines sampling to a measure-zero set")

    check_refs(problem.goal, "goal", False)
    if not isinstance(problem.goal, And):
        warn("goal top level is not a conjunction; goal counting treats it "
             "as a single conjunct")
    return diags


# ---------------------------------------------------------------------------
# serialization

def _fmt_number(value: float) -> str:
    return repr(float(value))


def _expr_text(expr: NumericExpr) -> str:
    if isinstance(expr, Const):
        return _fmt_number(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Add):
        return f"(+ {_expr_text(expr.lhs)} {_expr_text(expr.rhs)})"
    if isinstance(expr, Sub):
        return f"(- {_expr_text(expr.lhs)} {_expr_text(expr.rhs)})"
    if isinstance(expr, Mul):
        return f"(* {_expr_text(expr.lhs)} {_expr_text(expr.rhs)})"
    if isinstance(expr, Neg):
        return f"(- {_expr_text(expr.arg)})"
    if isinstance(expr, Pow):
        return f"(^ {_expr_text(expr.base)} {expr.exponent})"
    raise TypeError(f"not a numeric expression: {expr!r}")


def _constr_text(con: Constraint) -> str:
    if isinstance(con, Cmp):
        return f"({con.op} {_expr_text(con.expr)} 0)"
    if isinstance(con, BoolEq):
        return f"(= {con.name} {'true' if con.value else 'false'})"
    if isinstance(con, And):
        inner = " ".join(_constr_text(c) for c in con.items)
        return f"(and {inner})" if inner else "(and)"
    if isinstance(con, Or):
        inner = " ".join(_constr_text(c) for c in con.items)
        return f"(or {inner})" if inner else "(or)"
    if isinstance(con, Not):
        return f"(not {_constr_text(con.item)})"
    raise TypeError(f"not a constraint: {con!r}")


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

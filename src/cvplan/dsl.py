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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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

#: the error of a problem text that nests deeper than the parser's recursion reaches
_TOO_DEEP = "nesting too deep"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.col}: {self.severity}: {self.message}"


def _diagnostics(text: str, found: List[tuple]) -> List[Diagnostic]:
    """The Diagnostics of found's (severity, message, start, end) findings,
    in order: the one place that turns offsets into text into a line and a
    column. Offsets 0, 0 give SYNTHETIC_SPAN."""
    if not found:
        return []
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    diags = []
    for severity, message, start, end in found:
        line = bisect_right(line_starts, start)
        span = SourceSpan(start, end, line, start - line_starts[line - 1] + 1)
        diags.append(Diagnostic(severity, message, span))
    return diags


_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")

_KEYWORDS = {
    "problem", "bools", "nums", "controls", "action", "pre", "eff", "goal",
    "and", "or", "not", "assign", "set", "true", "false",
}


def _is_name(text) -> bool:
    """Whether text can stand in the text format as a declared name."""
    return isinstance(text, str) and _NAME_RE.match(text) is not None \
        and text not in _KEYWORDS


# ---------------------------------------------------------------------------
# reading: text -> nested lists

@dataclass(frozen=True)
class SAtom:
    text: str
    start: int
    end: int


@dataclass(frozen=True)
class SList:
    items: Tuple["SExpr", ...]
    start: int
    end: int


SExpr = SAtom | SList

#: a comment, a parenthesis or an atom; whatever lies between is whitespace
_TOKEN_RE = re.compile(r";[^\n]*|[()]|[^() \t\r\n;]+")


def _read(text: str) -> Tuple[List[SExpr], List[tuple]]:
    """Read all top-level s-expressions; balance errors become findings."""
    found: List[tuple] = []
    top = items = []
    stack: List[Tuple[List[SExpr], int]] = []     # the outer items and start of each open list
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if tok == "(":
            stack.append((items, m.start()))
            items = []
        elif tok == ")":
            if not stack:
                found.append(("error", "unmatched closing parenthesis", m.start(), m.end()))
                continue
            outer, start = stack.pop()
            outer.append(SList(tuple(items), start, m.end()))
            items = outer
        elif tok[0] != ";":
            items.append(SAtom(tok, m.start(), m.end()))
    for _, start in stack:
        found.append(("error", "unclosed parenthesis", start, start + 1))
    return top, found


# ---------------------------------------------------------------------------
# interpretation: nested lists -> Problem

class _ParseFail(Exception):
    """Internal: abort interpretation with its one error's message and node."""


class _Interp:
    """Reads the grammar of a (problem ...) form. The semantic rules are
    all _check's; for them the interpreter keeps declarations in order,
    repeats included, and records a node table: each declaration's node
    under ("decl", position), the last initial value of each numeric under
    ("init", name), and under id() of each Action, Const, Var, BoolEq and
    effect pair the node of its name, literal, reference, test or target."""

    def __init__(self):
        self.bools: List[Tuple[str, bool]] = []
        self.nums: List[Tuple[str, float]] = []
        self.controls: List[ControlVarSpec] = []
        self.control_names: set = set()
        self.nodes: Dict[object, SExpr] = {}

    def error(self, message: str, node: SExpr):
        raise _ParseFail(message, node)

    def declare(self, decls: list, decl, node: SExpr):
        position = len(self.bools) + len(self.nums) + len(self.controls)
        self.nodes["decl", position] = node
        decls.append(decl)

    # -- leaf helpers ------------------------------------------------------

    def expect_list(self, node: SExpr, what: str) -> SList:
        if not isinstance(node, SList):
            self.error(f"expected {what}", node)
        return node

    def expect_head(self, node: SExpr, keyword: str) -> SList:
        lst = self.expect_list(node, f"({keyword} ...)")
        if not lst.items or not isinstance(lst.items[0], SAtom) \
                or lst.items[0].text != keyword:
            self.error(f"expected ({keyword} ...)", lst)
        return lst

    def expect_name(self, node: SExpr, what: str = "name") -> str:
        if not isinstance(node, SAtom) or not _is_name(node.text):
            self.error(f"expected {what}", node)
        return node.text

    def expect_number(self, node: SExpr) -> float:
        if not isinstance(node, SAtom) or not _NUMBER_RE.match(node.text):
            self.error("expected a number", node)
        return float(node.text)

    def expect_int(self, node: SExpr, what: str = "an integer") -> int:
        if not isinstance(node, SAtom) or not _INT_RE.match(node.text):
            self.error(f"expected {what}", node)
        try:
            return int(node.text)
        except ValueError:  # beyond the interpreter's int digit limit
            self.error("integer literal too long", node)

    def expect_bool(self, node: SExpr) -> bool:
        if isinstance(node, SAtom) and node.text in ("true", "false"):
            return node.text == "true"
        self.error("expected true or false", node)

    # -- sections ----------------------------------------------------------

    def parse_bools(self, node: SExpr):
        lst = self.expect_head(node, "bools")
        for decl in lst.items[1:]:
            if isinstance(decl, SAtom):
                name = self.expect_name(decl, "boolean variable name")
                init = False
            else:
                if len(decl.items) != 2:
                    self.error("expected (name bool)", decl)
                name = self.expect_name(decl.items[0], "boolean variable name")
                init = self.expect_bool(decl.items[1])
            self.declare(self.bools, (name, init), decl)

    def parse_nums(self, node: SExpr):
        lst = self.expect_head(node, "nums")
        for decl in lst.items[1:]:
            d = self.expect_list(decl, "(name number)")
            if len(d.items) != 2:
                self.error("expected (name number)", d)
            name = self.expect_name(d.items[0], "numeric variable name")
            self.declare(self.nums, (name, self.expect_number(d.items[1])), d)
            self.nodes["init", name] = d.items[1]

    def parse_controls(self, node: SExpr):
        lst = self.expect_head(node, "controls")
        for decl in lst.items[1:]:
            d = self.expect_list(decl, "(name int int)")
            if len(d.items) != 3:
                self.error("expected (name lower upper)", d)
            name = self.expect_name(d.items[0], "control variable name")
            lower = self.expect_int(d.items[1], "an integer lower bound")
            upper = self.expect_int(d.items[2], "an integer upper bound")
            self.declare(self.controls, ControlVarSpec(name, lower, upper), d)
            self.control_names.add(name)

    # -- expressions and constraints ----------------------------------------

    def parse_expr(self, node: SExpr) -> NumericExpr:
        if isinstance(node, SAtom):
            if _NUMBER_RE.match(node.text):
                leaf = Const(float(node.text))
            else:
                leaf = Var(node.text, "control" if node.text in self.control_names else "state")
            self.nodes[id(leaf)] = node
            return leaf
        lst = node
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected an expression", lst)
        head = lst.items[0].text
        args = lst.items[1:]
        if head in ("+", "-", "*"):
            if head == "-" and len(args) == 1:
                return Neg(self.parse_expr(args[0]))
            if len(args) < 2:
                self.error(f"operator {head} needs at least two arguments", lst)
            node_cls = {"+": Add, "-": Sub, "*": Mul}[head]
            acc = self.parse_expr(args[0])
            for arg in args[1:]:
                acc = node_cls(acc, self.parse_expr(arg))
            return acc
        if head == "^":
            if len(args) != 2:
                self.error("expected (^ expr int)", lst)
            base = self.parse_expr(args[0])
            exp = self.expect_int(args[1], "a nonnegative integer exponent")
            if exp < 0:
                self.error("exponent must be nonnegative", args[1])
            return Pow(base, exp)
        self.error(f"unknown operator: {head}", lst.items[0])

    def parse_constr(self, node: SExpr) -> Constraint:
        lst = self.expect_list(node, "a constraint")
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected a constraint", lst)
        head = lst.items[0].text
        args = lst.items[1:]
        if head == "and":
            return And(tuple(self.parse_constr(a) for a in args))
        if head == "or":
            return Or(tuple(self.parse_constr(a) for a in args))
        if head == "not":
            if len(args) != 1:
                self.error("not takes exactly one constraint", lst)
            return Not(self.parse_constr(args[0]))
        if head in CMP_OPS:
            # boolean test form: (= name true|false)
            if head == "=" and len(args) == 2 and isinstance(args[1], SAtom) \
                    and args[1].text in ("true", "false"):
                test = BoolEq(self.expect_name(args[0], "boolean variable name"),
                              args[1].text == "true")
                self.nodes[id(test)] = args[0]
                return test
            if len(args) != 2:
                self.error(f"comparison {head} takes two expressions", lst)
            lhs = self.parse_expr(args[0])
            rhs = self.parse_expr(args[1])
            if isinstance(rhs, Const) and rhs.value == 0.0:
                return Cmp(lhs, head)
            return Cmp(Sub(lhs, rhs), head)
        self.error(f"unknown constraint keyword: {head}", lst.items[0])

    def parse_assign(self, node: SExpr) -> tuple:
        lst = self.expect_list(node, "(assign ...) or (set ...)")
        if not lst.items or not isinstance(lst.items[0], SAtom):
            self.error("expected (assign ...) or (set ...)", lst)
        head = lst.items[0].text
        args = lst.items[1:]
        if head == "assign":
            if len(args) != 2:
                self.error("expected (assign name expr)", lst)
            pair = (self.expect_name(args[0], "numeric variable name"),
                    self.parse_expr(args[1]))
        elif head == "set":
            if len(args) != 2:
                self.error("expected (set name bool)", lst)
            pair = (self.expect_name(args[0], "boolean variable name"),
                    self.expect_bool(args[1]))
        else:
            self.error(f"unknown effect keyword: {head}", lst.items[0])
        self.nodes[id(pair)] = args[0]
        return pair

    def parse_action(self, node: SExpr) -> Action:
        lst = self.expect_head(node, "action")
        if len(lst.items) != 4:
            self.error("expected (action name (pre ...) (eff ...))", lst)
        name = self.expect_name(lst.items[1], "action name")
        pre_lst = self.expect_head(lst.items[2], "pre")
        if len(pre_lst.items) != 2:
            self.error("expected (pre constraint)", pre_lst)
        pre = self.parse_constr(pre_lst.items[1])
        eff_lst = self.expect_head(lst.items[3], "eff")
        pairs = [self.parse_assign(item) for item in eff_lst.items[1:]]
        action = Action(name, pre, Effect(
            tuple(p for p in pairs if isinstance(p[1], bool)),
            tuple(p for p in pairs if not isinstance(p[1], bool))))
        self.nodes[id(action)] = lst.items[1]
        return action

    def parse_problem_form(self, node: SExpr) -> Problem:
        lst = self.expect_head(node, "problem")
        if len(lst.items) < 6:
            self.error("expected (problem name (bools...) (nums...) "
                       "(controls...) actions... (goal ...))", lst)
        name = self.expect_name(lst.items[1], "problem name")
        self.parse_bools(lst.items[2])
        self.parse_nums(lst.items[3])
        self.parse_controls(lst.items[4])
        actions = tuple(self.parse_action(form) for form in lst.items[5:-1])
        goal_lst = self.expect_head(lst.items[-1], "goal")
        if len(goal_lst.items) != 2:
            self.error("expected (goal constraint)", goal_lst)
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
    forms, found = _read(text)
    if not found and not forms:
        found = [("error", "empty document", 0, len(text))]
    elif not found and len(forms) > 1:
        found = [("error", "expected a single (problem ...) form",
                  forms[1].start, forms[1].end)]
    if found:
        return None, _diagnostics(text, found)
    interp = _Interp()
    try:
        problem = interp.parse_problem_form(forms[0])
        found = _check(problem, interp.nodes)
    except _ParseFail as fail:
        message, node = fail.args
        problem, found = None, [("error", message, node.start, node.end)]
    except RecursionError:
        problem, found = None, [("error", _TOO_DEEP, 0, len(text))]
    diags = _diagnostics(text, found)
    if any(d.severity == "error" for d in diags):
        return None, diags
    return problem, diags


def load_problem(path: str) -> Tuple[Optional[Problem], List[Diagnostic]]:
    """parse_problem of a UTF-8 file's text, byte-order mark or not. An
    unreadable file raises OSError or ValueError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    """Interval of possible values with state variables unconstrained. The
    walk meets every node after its operands and keeps their intervals on a
    stack, so any depth works."""
    values = []
    for node in reversed(list(iter_exprs(expr))):
        if isinstance(node, Const):
            values.append((node.value, node.value))
        elif isinstance(node, Var):
            values.append(box.get(node.name, _FULL) if node.kind == "control" else _FULL)
        elif isinstance(node, (Add, Sub, Mul)):
            combine = (_iv_add if isinstance(node, Add)
                       else _iv_sub if isinstance(node, Sub) else _iv_mul)
            values.append(combine(values.pop(), values.pop()))
        elif isinstance(node, Neg):
            lo, hi = values.pop()
            values.append((-hi, -lo))
        elif isinstance(node, Pow):
            values.append(_iv_pow(values.pop(), node.exponent))
        else:
            values.append(_FULL)
    return values[0]


def _fold_constraint(con: Constraint, box) -> Optional[bool]:
    """Three-valued fold: True / False only when certain, else None. The
    walk meets every node after its items and keeps their values on a
    stack, so any depth works."""
    values: List[Optional[bool]] = []
    for node in reversed(list(iter_constraints(con))):
        value = None
        if isinstance(node, Cmp):
            lo, hi = _expr_interval(node.expr, box)
            if node.op == "<":
                value = True if hi < 0 else False if lo >= 0 else None
            elif node.op == "<=":
                value = True if hi <= 0 else False if lo > 0 else None
            elif node.op == "=":
                value = True if lo == hi == 0 else False if lo > 0 or hi < 0 else None
            elif node.op == ">=":
                value = True if lo >= 0 else False if hi < 0 else None
            elif node.op == ">":
                value = True if lo > 0 else False if hi <= 0 else None
        elif isinstance(node, (And, Or)):
            items = [values.pop() for _ in node.items]
            decisive = isinstance(node, Or)     # the item value that settles the node
            if any(v is decisive for v in items):
                value = decisive
            elif None not in items:
                value = not decisive
        elif isinstance(node, Not):
            item = values.pop()
            value = None if item is None else not item
        values.append(value)
    return values[0]


def _finite_number(value) -> bool:
    """Whether value is a finite float. model turns each int that a float
    equals into that float, so an int here is one that none equals."""
    return type(value) is float and math.isfinite(value)


def _check(problem: Problem, nodes: Dict[object, SExpr]) -> List[tuple]:
    """Every semantic rule of a problem, as _diagnostics' findings. nodes is
    parse_problem's node table (see _Interp). A finding whose subject has no
    node there, as none has in a problem built in code, gets SYNTHETIC_SPAN's
    offsets and a prefix naming the action, control or goal concerned."""
    found: List[tuple] = []

    def report(severity: str, key, where: str, message: str):
        node = nodes.get(key)
        if node is None:
            found.append((severity, f"{where}: {message}" if where else message, 0, 0))
        else:
            found.append((severity, message, node.start, node.end))

    bool_set = set(problem.bools)
    num_set = set(problem.nums)
    control_set = {c.name for c in problem.controls}

    if not _is_name(problem.name):
        report("error", None, "", f"invalid problem name: {problem.name!r}")
    declared: set = set()
    names = ([(name, "boolean variable") for name in problem.bools]
             + [(name, "numeric variable") for name in problem.nums]
             + [(c.name, "control variable") for c in problem.controls])
    for position, (name, kind) in enumerate(names):
        if not _is_name(name):
            report("error", ("decl", position), "", f"invalid {kind} name: {name!r}")
        if name in declared:
            report("error", ("decl", position), "", f"duplicate declaration: {name}")
        declared.add(name)
    box = {}
    for position, spec in enumerate(problem.controls, len(names) - len(problem.controls)):
        key, where = ("decl", position), f"control {spec.name}"
        if not spec.lower < spec.upper:
            report("error", key, where, "lower bound must be < upper bound")
        if not (type(spec.lower) is int and type(spec.upper) is int):  # a bool is not
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
    for name, value in problem.init.bools.items():
        if value is not True and value is not False:
            report("error", None, f"initial value of {name}", "not a boolean")

    #: the nodes reported as errors that the fold cannot take: constants that
    #: are no finite number, exponents that are no nonnegative int, unknown
    #: comparison operators, and constraints and expressions out of place
    unfoldable: list = []

    def check_expr(expr: NumericExpr, where: str, allow_controls: bool) -> bool:
        """Reports expr's errors; returns whether it reads a control variable."""
        reads_control = False
        for e in iter_exprs(expr):
            if isinstance(e, Var):
                if e.kind not in ("state", "control"):
                    report("error", id(e), where, f"unknown variable kind: {e.kind!r}")
                elif e.kind == "control":
                    reads_control = True
                    if e.name not in control_set:
                        report("error", id(e), where,
                               f"undeclared control variable: {e.name}")
                    elif not allow_controls:
                        report("error", id(e), where,
                               f"control variable not allowed here: {e.name}")
                elif e.name not in num_set:
                    report("error", id(e), where,
                           f"boolean variable in numeric expression: {e.name}"
                           if e.name in bool_set else f"undeclared variable: {e.name}")
            elif isinstance(e, Const):
                if not _finite_number(e.value):
                    report("error", id(e), where, "not a finite number")
                    unfoldable.append(e)
            elif isinstance(e, Pow):
                if not (type(e.exponent) is int and e.exponent >= 0):
                    report("error", id(e), where, "exponent must be a nonnegative int")
                    unfoldable.append(e)
                else:
                    try:
                        str(e.exponent)   # the text holds only as many digits as int() reads
                    except ValueError:
                        report("error", id(e), where, "integer literal too long")
            elif not isinstance(e, (Add, Sub, Mul, Neg)):
                report("error", id(e), where, f"not a numeric expression: {type(e).__name__}")
                unfoldable.append(e)
        return reads_control

    def check_constraint(con: Constraint, where: str, allow_controls: bool) -> int:
        """Reports con's errors; returns its count of = comparisons reading a control."""
        equalities = 0
        for node in iter_constraints(con):
            if isinstance(node, BoolEq) and node.name not in bool_set:
                report("error", id(node), where,
                       f"not a boolean variable: {node.name}" if node.name in declared
                       else f"undeclared boolean variable: {node.name}")
            elif isinstance(node, Cmp):
                if node.op not in CMP_OPS:
                    report("error", id(node), where,
                           f"unknown comparison operator: {node.op!r}")
                    unfoldable.append(node)
                if check_expr(node.expr, where, allow_controls) and node.op == "=":
                    equalities += 1
            elif not isinstance(node, (BoolEq, And, Or, Not)):
                report("error", id(node), where, f"not a constraint: {type(node).__name__}")
                unfoldable.append(node)
        return equalities

    action_names = set()
    for act in problem.actions:
        where = f"action {act.name}"
        if not _is_name(act.name):
            report("error", id(act), "", f"invalid action name: {act.name!r}")
        if act.name in action_names:
            report("error", id(act), "", f"duplicate action name: {act.name}")
        action_names.add(act.name)
        reported = len(unfoldable)
        equalities = check_constraint(act.precondition, f"{where} precondition", True)
        targets = set()
        for pair in act.effect.bool_assigns + act.effect.num_assigns:
            if pair[0] in targets:
                report("error", id(pair), where, f"conflicting assignments to {pair[0]}")
            targets.add(pair[0])
        for pair in act.effect.bool_assigns:
            if pair[0] not in bool_set:
                report("error", id(pair), where,
                       f"set target {pair[0]} is not a boolean variable")
            if pair[1] is not True and pair[1] is not False:
                report("error", id(pair), where, f"set value of {pair[0]} is not a boolean")
        for pair in act.effect.num_assigns:
            name, expr = pair
            if name in control_set:
                report("error", id(pair), where,
                       f"control variables cannot be assigned: {name}")
            elif name not in num_set:
                report("error", id(pair), where,
                       f"assign target {name} is not a numeric variable")
            check_expr(expr, where, True)
        if len(unfoldable) == reported and _fold_constraint(act.precondition, box) is False:
            report("warning", id(act), where,
                   "precondition is unsatisfiable over the control box")
        for _ in range(equalities):
            report("warning", id(act), where, "equality constraint on a control "
                   "variable confines sampling to a measure-zero set")

    check_constraint(problem.goal, "goal", False)
    if not isinstance(problem.goal, And):
        report("warning", None, "", "goal top level is not a conjunction; goal "
               "counting treats it as a single conjunct")
    return found


def validate(problem: Problem) -> List[Diagnostic]:
    """Semantic checks on a Problem built in code; parse_problem makes the
    same checks on text, with spans.

    Errors: duplicate declarations, bad control bounds, partial initial
    state, a non-finite initial value or constant, references to undeclared
    or wrongly typed variables, a control in the goal, effect targets
    outside the declared sets or assigned twice, duplicate action names;
    and what the text cannot hold or run_search cannot run: a problem,
    variable or action name that is no name of the text format, a number
    that no float equals, a boolean value that is not True or False, a
    variable kind other than "state" and "control", an exponent that is no
    nonnegative int or has more digits than the text reads, an unknown
    comparison operator, a constraint where an expression belongs and the
    reverse.
    Warnings: precondition constant-folds to false over the control box,
    non-conjunction goal top level, equality precondition on a control
    variable (rejection sampling can never hit a measure-zero set).
    """
    return _diagnostics("", _check(problem, {}))


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
    """Canonical text form; parse_problem(serialize_problem(p)) equals p
    whenever validate(p) holds no error."""
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

"""Benchmark instance generators.

Four families, each a reconstruction of a numeric planning domain extended
with continuous control variables:

* counters: n counters moved up or down by a shared increment u; the goal
  orders them with unit gaps.
* sailing: boats on an unbounded plane; a person is rescued when the boat
  reaches a diagonal band x + y near d.
* block-grouping: blocks on a bounded grid moved by (mx, my); same-group
  blocks must end up exactly co-located.
* drone: a drone flies in a bounded box, paying battery for each move, and
  must pass near every waypoint.

All generators are deterministic given their arguments (layout randomness is
driven by an explicit seed) and produce Problems that validate cleanly.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import (
    Action, Add, And, BoolEq, Cmp, Const, Constraint, ControlVarSpec, Effect,
    Neg, NumericExpr, Pow, Problem, State, Sub, TRUE, Var,
)

#: proximity half-width for drone waypoint visits
DRONE_BAND = 0.5
#: rescue band half-width for sailing
SAILING_BAND = 25.0


def _check(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# counters

def make_counters(n: int, max_val: int = 10, u_max: int = 1) -> Problem:
    """n counters in [0, max_val], one shared increment u in [0, u_max].

    Goal: each counter exceeds its predecessor by at least 1.
    """
    _check(n >= 2, "n must be >= 2")
    _check(max_val >= n, "max_val must be >= n")
    _check(u_max >= 1, "u_max must be >= 1")
    names = [f"c{i}" for i in range(n)]
    u = Var("u", "control")
    actions: List[Action] = []
    for name in names:
        c = Var(name)
        actions.append(Action(
            f"inc-{name}",
            Cmp(Sub(Add(c, u), Const(float(max_val))), "<="),
            Effect((), ((name, Add(c, u)),)),
        ))
        actions.append(Action(
            f"dec-{name}",
            Cmp(Sub(c, u), ">="),
            Effect((), ((name, Sub(c, u)),)),
        ))
    goal = And(tuple(
        Cmp(Sub(Var(names[i + 1]), Add(Var(names[i]), Const(1.0))), ">=")
        for i in range(n - 1)
    ))
    return Problem(
        name=f"counters-{n}",
        bools=(),
        nums=tuple(names),
        controls=(ControlVarSpec("u", 0, u_max),),
        actions=tuple(actions),
        init=State(bools={}, nums={name: 0.0 for name in names}),
        goal=goal,
    )


# ---------------------------------------------------------------------------
# sailing

def make_sailing(n_boats: int, n_persons: int,
                 d_values: Optional[Sequence[float]] = None) -> Problem:
    """Boats steer by (dx, dy); person p is rescuable on the band
    |x + y - d_p| <= 25. Default rescue lines sit at d = 40, 80, 120, ...
    """
    _check(n_boats >= 1, "n_boats must be >= 1")
    _check(n_persons >= 1, "n_persons must be >= 1")
    if d_values is None:
        d_values = [40.0 * (p + 1) for p in range(n_persons)]
    d_values = [float(d) for d in d_values]
    _check(len(d_values) == n_persons, "need one d value per person")

    nums: List[str] = []
    for b in range(n_boats):
        nums += [f"x{b}", f"y{b}"]
    saved = [f"saved{p}" for p in range(n_persons)]
    dx = Var("dx", "control")
    dy = Var("dy", "control")
    actions: List[Action] = []
    for b in range(n_boats):
        xb, yb = Var(f"x{b}"), Var(f"y{b}")
        actions.append(Action(
            f"move-b{b}", TRUE,
            Effect((), ((f"x{b}", Add(xb, dx)), (f"y{b}", Add(yb, dy)))),
        ))
    for b in range(n_boats):
        xb, yb = Var(f"x{b}"), Var(f"y{b}")
        for p in range(n_persons):
            pos = Add(xb, yb)
            actions.append(Action(
                f"rescue-b{b}-p{p}",
                And((
                    Cmp(Sub(pos, Const(d_values[p] + SAILING_BAND)), "<="),
                    Cmp(Sub(pos, Const(d_values[p] - SAILING_BAND)), ">="),
                )),
                Effect(((saved[p], True),), ()),
            ))
    return Problem(
        name=f"sailing-{n_boats}-{n_persons}",
        bools=tuple(saved),
        nums=tuple(nums),
        controls=(ControlVarSpec("dx", -10, 10), ControlVarSpec("dy", -10, 10)),
        actions=tuple(actions),
        init=State(
            bools={name: False for name in saved},
            nums={name: 0.0 for name in nums},
        ),
        goal=And(tuple(BoolEq(name, True) for name in saved)),
    )


# ---------------------------------------------------------------------------
# block-grouping

def make_blockgrouping(n_blocks: int, n_groups: int, grid: int,
                       positions: Optional[Sequence[Tuple[int, int]]] = None,
                       seed: int = 0) -> Problem:
    """Blocks on [0, grid]^2 moved by (mx, my); same-group blocks must end up
    exactly co-located (group membership is round-robin by block index).
    """
    _check(n_groups >= 1, "n_groups must be >= 1")
    _check(n_blocks >= n_groups, "n_blocks must be >= n_groups")
    _check(grid >= 1, "grid must be >= 1")
    if positions is None:
        rng = random.Random(seed)
        positions = [(rng.randrange(grid + 1), rng.randrange(grid + 1))
                     for _ in range(n_blocks)]
    positions = [(float(x), float(y)) for x, y in positions]
    _check(len(positions) == n_blocks, "need one position per block")
    for x, y in positions:
        _check(0.0 <= x <= grid and 0.0 <= y <= grid,
               "positions must lie in the grid box")

    mx = Var("mx", "control")
    my = Var("my", "control")
    actions: List[Action] = []
    for i in range(n_blocks):
        xi, yi = Var(f"x{i}"), Var(f"y{i}")
        actions.append(Action(
            f"move-b{i}",
            And((
                Cmp(Add(xi, mx), ">="),
                Cmp(Sub(Add(xi, mx), Const(float(grid))), "<="),
                Cmp(Add(yi, my), ">="),
                Cmp(Sub(Add(yi, my), Const(float(grid))), "<="),
            )),
            Effect((), ((f"x{i}", Add(xi, mx)), (f"y{i}", Add(yi, my)))),
        ))
    groups: Dict[int, List[int]] = {}
    for i in range(n_blocks):
        groups.setdefault(i % n_groups, []).append(i)
    conjuncts: List[Constraint] = []
    for members in groups.values():
        for a, b in zip(members, members[1:]):
            conjuncts.append(Cmp(Sub(Var(f"x{a}"), Var(f"x{b}")), "="))
            conjuncts.append(Cmp(Sub(Var(f"y{a}"), Var(f"y{b}")), "="))
    nums: List[str] = []
    init_nums: Dict[str, float] = {}
    for i, (x, y) in enumerate(positions):
        nums += [f"x{i}", f"y{i}"]
        init_nums[f"x{i}"] = x
        init_nums[f"y{i}"] = y
    return Problem(
        name=f"blockgrouping-{n_blocks}-{n_groups}",
        bools=(),
        nums=tuple(nums),
        controls=(ControlVarSpec("mx", -grid, grid),
                  ControlVarSpec("my", -grid, grid)),
        actions=tuple(actions),
        init=State(bools={}, nums=init_nums),
        goal=And(tuple(conjuncts)),
    )


# ---------------------------------------------------------------------------
# drone

def _signed_sum(terms: Sequence[NumericExpr], signs: Tuple[int, ...]) -> NumericExpr:
    acc: Optional[NumericExpr] = None
    for term, sign in zip(terms, signs):
        signed = term if sign > 0 else Neg(term)
        acc = signed if acc is None else Add(acc, signed)
    assert acc is not None
    return acc


def make_drone(grid: int, n_points: int,
               points: Optional[Sequence[Tuple[int, int, int]]] = None,
               battery: Optional[float] = None, seed: int = 0) -> Problem:
    """A drone moves by (dx, dy, dz) inside [0, grid]^3.

    Moving needs battery at least |dx| + |dy| + |dz| (written as eight signed
    inequalities) and costs dx^2 + dy^2 + dz^2. Each waypoint is visited by a
    dedicated action requiring the drone within 0.5 per axis.
    """
    _check(grid >= 1, "grid must be >= 1")
    _check(n_points >= 1, "n_points must be >= 1")
    if points is None:
        rng = random.Random(seed)
        points = [tuple(rng.randrange(grid + 1) for _ in range(3))
                  for _ in range(n_points)]
    points = [tuple(float(c) for c in pt) for pt in points]
    _check(len(points) == n_points, "need one coordinate triple per point")
    for pt in points:
        _check(len(pt) == 3, "points are (x, y, z) triples")
        _check(all(0.0 <= c <= grid for c in pt),
               "points must lie in the grid box")
    if battery is None:
        battery = 3.0 * grid

    x, y, z, b = Var("x"), Var("y"), Var("z"), Var("b")
    dx = Var("dx", "control")
    dy = Var("dy", "control")
    dz = Var("dz", "control")
    pre: List[Constraint] = []
    # battery >= |dx| + |dy| + |dz| as the max over all sign patterns
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                pre.append(Cmp(
                    Sub(b, _signed_sum((dx, dy, dz), (sx, sy, sz))), ">="))
    for axis, delta in ((x, dx), (y, dy), (z, dz)):
        pre.append(Cmp(Add(axis, delta), ">="))
        pre.append(Cmp(Sub(Add(axis, delta), Const(float(grid))), "<="))
    cost = Add(Add(Pow(dx, 2), Pow(dy, 2)), Pow(dz, 2))
    actions: List[Action] = [Action(
        "move",
        And(tuple(pre)),
        Effect((), (
            ("x", Add(x, dx)), ("y", Add(y, dy)), ("z", Add(z, dz)),
            ("b", Sub(b, cost)),
        )),
    )]
    visited = [f"visited{k}" for k in range(n_points)]
    for k, (px, py, pz) in enumerate(points):
        band: List[Constraint] = []
        for axis, center in ((x, px), (y, py), (z, pz)):
            band.append(Cmp(Sub(axis, Const(center + DRONE_BAND)), "<="))
            band.append(Cmp(Sub(axis, Const(center - DRONE_BAND)), ">="))
        actions.append(Action(
            f"visit-p{k}", And(tuple(band)),
            Effect(((visited[k], True),), ()),
        ))
    return Problem(
        name=f"drone-{grid}-{n_points}",
        bools=tuple(visited),
        nums=("x", "y", "z", "b"),
        controls=(ControlVarSpec("dx", -1, 1), ControlVarSpec("dy", -1, 1),
                  ControlVarSpec("dz", -1, 1)),
        actions=tuple(actions),
        init=State(
            bools={name: False for name in visited},
            nums={"x": 0.0, "y": 0.0, "z": 0.0, "b": float(battery)},
        ),
        goal=And(tuple(BoolEq(name, True) for name in visited)),
    )


# ---------------------------------------------------------------------------
# instance specs and ladders

@dataclass(frozen=True)
class Generator:
    """A domain's make function, its parameters (name -> keyword of make), the
    required ones, and whether make takes the layout seed (and ids show it)."""
    make: Callable[..., Problem]
    params: Dict[str, str]
    required: Tuple[str, ...]
    seeded: bool = False


GENERATORS: Dict[str, Generator] = {
    "counters": Generator(make_counters, {"n": "n", "m": "max_val", "u": "u_max"},
                          ("n",)),
    "sailing": Generator(make_sailing, {"b": "n_boats", "p": "n_persons"}, ("b", "p")),
    "blockgrouping": Generator(make_blockgrouping,
                               {"b": "n_blocks", "g": "n_groups", "grid": "grid"},
                               ("b", "g", "grid"), seeded=True),
    "drone": Generator(make_drone, {"grid": "grid", "p": "n_points",
                                    "battery": "battery"}, ("grid", "p"), seeded=True),
}


@dataclass(frozen=True)
class InstanceSpec:
    """Domain name, integer size parameters, and a layout seed. The domain
    and parameter names must be those of GENERATORS, every parameter within
    the float range, and only a seeded domain takes a nonzero seed, else
    ValueError."""
    domain: str
    params: Dict[str, int] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        gen = GENERATORS.get(self.domain)
        _check(gen is not None, f"unknown domain {self.domain!r}")
        for key, value in self.params.items():
            _check(key in gen.params, f"{self.domain} takes no parameter {key!r};"
                   f" it takes {', '.join(gen.params)}")
            _check(abs(value) <= sys.float_info.max,
                   f"{self.domain} parameter {key!r} is beyond the float range")
        for key in gen.required:
            _check(key in self.params, f"missing parameter {key!r} for {self.domain}")
        _check(gen.seeded or self.seed == 0, f"{self.domain} takes no layout seed")

    def instance_id(self) -> str:
        parts = [f"{key}{value}" for key, value in self.params.items()]
        if GENERATORS[self.domain].seeded:
            parts.append(f"s{self.seed}")
        return f"{self.domain}/{'-'.join(parts)}"


def generate(spec: InstanceSpec) -> Problem:
    """Build the Problem described by an InstanceSpec."""
    gen = GENERATORS[spec.domain]
    kwargs = {gen.params[key]: value for key, value in spec.params.items()}
    if gen.seeded:
        kwargs["seed"] = spec.seed
    return gen.make(**kwargs)


def default_ladder() -> List[InstanceSpec]:
    """Five sizes per domain, small enough for a desk-scale suite."""
    ladder: List[InstanceSpec] = []
    for n in (2, 3, 4, 5, 6):
        ladder.append(InstanceSpec("counters", {"n": n, "m": 10, "u": 1}))
    for boats, persons in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        ladder.append(InstanceSpec("sailing", {"b": boats, "p": persons}))
    for blocks, groups, grid in ((2, 1, 4), (3, 1, 8), (4, 2, 8),
                                 (5, 2, 16), (6, 3, 16)):
        ladder.append(InstanceSpec(
            "blockgrouping", {"b": blocks, "g": groups, "grid": grid}))
    for grid, pts in ((2, 1), (2, 2), (4, 1), (4, 3), (8, 4)):
        ladder.append(InstanceSpec("drone", {"grid": grid, "p": pts}))
    return ladder

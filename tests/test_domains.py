import pytest

from cvplan.domains import (
    InstanceSpec, default_ladder, generate, make_blockgrouping, make_counters,
    make_drone, make_sailing,
)
from cvplan.dsl import parse_problem, serialize_problem, validate
from cvplan.model import (
    Cmp, Decision, goal_test, replay_plan, try_apply,
)

COUNTERS_2 = """\
(problem counters-2
  (bools)
  (nums (c0 0.0) (c1 0.0))
  (controls (u 0 1))
  (action inc-c0 (pre (<= (+ c0 u) 10)) (eff (assign c0 (+ c0 u))))
  (action dec-c0 (pre (>= (- c0 u) 0))  (eff (assign c0 (- c0 u))))
  (action inc-c1 (pre (<= (+ c1 u) 10)) (eff (assign c1 (+ c1 u))))
  (action dec-c1 (pre (>= (- c1 u) 0))  (eff (assign c1 (- c1 u))))
  (goal (and (>= (- c1 (+ c0 1)) 0))))
"""


# -- counters -----------------------------------------------------------------

def test_counters_matches_text_document():
    parsed, diags = parse_problem(COUNTERS_2)
    assert parsed is not None, diags
    assert make_counters(2, 10, 1) == parsed


def test_counters_counts():
    p2 = make_counters(2)
    assert len(p2.actions) == 4
    assert len(p2.goal.items) == 1
    p3 = make_counters(3, 10, 1)
    assert len(p3.actions) == 6
    assert len(p3.goal.items) == 2
    assert [a.name for a in p3.actions] == [
        "inc-c0", "dec-c0", "inc-c1", "dec-c1", "inc-c2", "dec-c2"]


def test_counters_hand_plan():
    p = make_counters(2)
    end = replay_plan(p, [Decision("inc-c1", {"u": 1.0})])
    assert goal_test(end, p.goal)
    assert not goal_test(p.init, p.goal)


def test_counters_argument_errors():
    with pytest.raises(ValueError):
        make_counters(1)
    with pytest.raises(ValueError):
        make_counters(3, max_val=2)
    with pytest.raises(ValueError):
        make_counters(2, u_max=0)


# -- sailing -------------------------------------------------------------------

def test_sailing_counts():
    p = make_sailing(1, 1)
    assert len(p.actions) == 2
    assert p.bools == ("saved0",)
    assert len(p.goal.items) == 1
    p2 = make_sailing(2, 3)
    assert len(p2.actions) == 2 + 2 * 3
    assert p2.nums == ("x0", "y0", "x1", "y1")


def test_sailing_rescue_in_band_at_origin():
    p = make_sailing(1, 1, d_values=[0.0])
    end = replay_plan(p, [Decision("rescue-b0-p0", {"dx": 0.0, "dy": 0.0})])
    assert goal_test(end, p.goal)


def test_sailing_far_person_unreachable_without_moving():
    p = make_sailing(1, 1, d_values=[100.0])
    rescue = p.action_by_name("rescue-b0-p0")
    # the precondition reads no control variable, so one valuation decides it
    assert try_apply(p.init, rescue, {"dx": 0.0, "dy": 0.0}) is None
    assert try_apply(p.init, rescue, {"dx": 10.0, "dy": -10.0}) is None


def test_sailing_default_layout_plan():
    p = make_sailing(1, 1)  # person on the band x + y around 40
    plan = [
        Decision("move-b0", {"dx": 10.0, "dy": 5.0}),
        Decision("rescue-b0-p0", {"dx": 0.0, "dy": 0.0}),
    ]
    end = replay_plan(p, plan)
    assert goal_test(end, p.goal)


def test_sailing_argument_errors():
    with pytest.raises(ValueError):
        make_sailing(0, 1)
    with pytest.raises(ValueError):
        make_sailing(1, 0)
    with pytest.raises(ValueError):
        make_sailing(1, 2, d_values=[1.0])


# -- block-grouping -------------------------------------------------------------

def test_blockgrouping_counts_and_groups():
    p = make_blockgrouping(2, 1, 4, positions=[(0, 0), (3, 4)])
    assert len(p.goal.items) == 2
    assert all(isinstance(c, Cmp) and c.op == "=" for c in p.goal.items)
    # round-robin membership: group 0 = blocks 0 and 2, group 1 = blocks 1 and 3
    p4 = make_blockgrouping(4, 2, 8, positions=[(0, 0)] * 4)
    assert len(p4.goal.items) == 4


def test_blockgrouping_colocated_start_satisfied():
    p = make_blockgrouping(2, 1, 4, positions=[(2, 2), (2, 2)])
    assert goal_test(p.init, p.goal)


def test_blockgrouping_one_move_plan():
    p = make_blockgrouping(2, 1, 5, positions=[(0, 0), (3, 4)])
    end = replay_plan(p, [Decision("move-b0", {"mx": 3.0, "my": 4.0})])
    assert goal_test(end, p.goal)


def test_blockgrouping_box_preserving_precondition():
    p = make_blockgrouping(2, 1, 4, positions=[(3, 3), (0, 0)])
    move = p.action_by_name("move-b0")
    assert try_apply(p.init, move, {"mx": 1.0, "my": -3.0}) is not None
    assert try_apply(p.init, move, {"mx": 2.0, "my": 0.0}) is None
    assert try_apply(p.init, move, {"mx": -4.0, "my": 0.0}) is None


def test_blockgrouping_argument_errors():
    with pytest.raises(ValueError):
        make_blockgrouping(1, 2, 4)
    with pytest.raises(ValueError):
        make_blockgrouping(2, 0, 4)
    with pytest.raises(ValueError):
        make_blockgrouping(2, 1, 4, positions=[(0, 0), (9, 0)])


def test_blockgrouping_layout_seed_determinism():
    a = make_blockgrouping(4, 2, 8, seed=3)
    b = make_blockgrouping(4, 2, 8, seed=3)
    c = make_blockgrouping(4, 2, 8, seed=4)
    assert a == b
    assert a != c


# -- drone ----------------------------------------------------------------------

def test_drone_visit_at_start():
    p = make_drone(2, 1, points=[(0, 0, 0)])
    end = replay_plan(p, [Decision("visit-p0", {"dx": 0.0, "dy": 0.0, "dz": 0.0})])
    assert goal_test(end, p.goal)


def test_drone_goal_conjunct_count():
    p = make_drone(4, 2)
    assert len(p.goal.items) == 2
    assert p.bools == ("visited0", "visited1")


def test_drone_battery_blocks_moves():
    p = make_drone(2, 1, points=[(1, 1, 1)], battery=0.0)
    move = p.action_by_name("move")
    assert try_apply(p.init, move, {"dx": 1.0, "dy": 0.0, "dz": 0.0}) is None
    assert try_apply(p.init, move, {"dx": 0.0, "dy": -0.5, "dz": 0.0}) is None
    assert try_apply(p.init, move, {"dx": 0.0, "dy": 0.0, "dz": 0.0}) is not None


def test_drone_move_costs_squared_length():
    p = make_drone(4, 1, points=[(4, 4, 4)], battery=10.0)
    end = replay_plan(p, [Decision("move", {"dx": 1.0, "dy": 0.5, "dz": 0.0})])
    assert end.nums["x"] == 1.0
    assert end.nums["y"] == 0.5
    assert end.nums["b"] == 10.0 - 1.25


def test_drone_box_bounds():
    p = make_drone(2, 1, points=[(2, 2, 2)], battery=100.0)
    move = p.action_by_name("move")
    assert try_apply(p.init, move, {"dx": -0.5, "dy": 0.0, "dz": 0.0}) is None
    state = replay_plan(p, [Decision("move", {"dx": 1.0, "dy": 1.0, "dz": 1.0})] * 2)
    assert state.nums["x"] == 2.0
    assert try_apply(state, move, {"dx": 1.0, "dy": 0.0, "dz": 0.0}) is None


def test_drone_full_mission_plan():
    p = make_drone(2, 1, points=[(2, 2, 0)], battery=10.0)
    plan = [
        Decision("move", {"dx": 1.0, "dy": 1.0, "dz": 0.0}),
        Decision("move", {"dx": 1.0, "dy": 1.0, "dz": 0.0}),
        Decision("visit-p0", {"dx": 0.0, "dy": 0.0, "dz": 0.0}),
    ]
    end = replay_plan(p, plan)
    assert goal_test(end, p.goal)
    assert end.nums["b"] == 10.0 - 4.0


def test_drone_argument_errors():
    with pytest.raises(ValueError):
        make_drone(0, 1)
    with pytest.raises(ValueError):
        make_drone(2, 0)
    with pytest.raises(ValueError):
        make_drone(2, 1, points=[(3, 0, 0)])


# -- specs and ladder --------------------------------------------------------------

def test_generate_dispatch():
    spec = InstanceSpec("counters", {"n": 2, "m": 10, "u": 1})
    assert generate(spec) == make_counters(2, 10, 1)
    assert generate(spec) == generate(spec)
    assert generate(InstanceSpec("drone", {"grid": 2, "p": 1, "battery": 5}, seed=3)) \
        == make_drone(2, 1, battery=5.0, seed=3)
    with pytest.raises(ValueError):
        generate(InstanceSpec("nope", {}))
    with pytest.raises(ValueError, match="drone takes no parameter 'battry'"):
        generate(InstanceSpec("drone", {"grid": 2, "p": 1, "battry": 1}))
    with pytest.raises(ValueError, match="missing parameter 'p' for sailing"):
        generate(InstanceSpec("sailing", {"b": 1}))


def test_instance_ids():
    assert InstanceSpec("counters", {"n": 3, "m": 10, "u": 1}).instance_id() \
        == "counters/n3-m10-u1"
    assert InstanceSpec("sailing", {"b": 2, "p": 3}).instance_id() == "sailing/b2-p3"
    assert InstanceSpec("drone", {"grid": 4, "p": 2}, seed=7).instance_id() \
        == "drone/grid4-p2-s7"


def test_default_ladder_generates_valid_problems():
    ladder = default_ladder()
    assert len(ladder) == 20
    ids = [spec.instance_id() for spec in ladder]
    assert len(set(ids)) == 20
    for spec in ladder:
        problem = generate(spec)
        diags = validate(problem)
        assert [d for d in diags if d.severity == "error"] == [], (spec, diags)
        reparsed, parse_diags = parse_problem(serialize_problem(problem))
        assert reparsed == problem, (spec, parse_diags)

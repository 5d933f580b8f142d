"""Smoke and self-tests for the benchmark; run with `python3 -m pytest bench`.

Tiny-cap versions of each workload must emit exactly the metrics that
BENCHMARK.json names, with their units, and the correctness checks must
reject corrupted plans and problems, so that they cannot pass vacuously.
"""

import dataclasses
import json
import re
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"ladder": 20, "deep-counters": 200, "mcts-ladder": 5}


def tiny(name):
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, caps=dict.fromkeys(workload.caps, TINY[name]))


@pytest.fixture(scope="module")
def ladder_setup():
    return run.setup(run.WORKLOADS["ladder"])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.match(metric["name"]), metric["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload_emits_every_named_metric(name, trace):
    info, result = run.run(name, tiny(name), seed=1, seconds=0, trace=bool(trace))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert got == expected
    for key, metric in result["metrics"].items():
        assert NAME_RE.match(key), key
        assert isinstance(metric["value"], (int, float)), key
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["fingerprint"].startswith("sha256:")
    assert info["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    # with no time to spare a run is one whole pass: ROUNDS seed sets timed,
    # or round 0 traced and untraced
    assert info["rounds"] == (1 if trace else run.ROUNDS)


def test_fingerprint_repeats_at_a_seed(ladder_setup):
    workload = tiny("ladder")
    first = run.run_round(ladder_setup, workload, seed=3, index=0)
    again = run.run_round(ladder_setup, workload, seed=3, index=0)
    other = run.run_round(ladder_setup, workload, seed=4, index=0)
    assert run.fingerprint(first.rows) == run.fingerprint(again.rows)
    assert run.fingerprint(first.rows) != run.fingerprint(other.rows)


@pytest.mark.parametrize("algorithm", ["sg-log", "sa-log", "mcts"])
def test_corrupted_plans_are_caught(ladder_setup, algorithm):
    cv = ladder_setup.cv
    problem = ladder_setup.parsed[0][0]           # counters n=2, always solved
    cfg = run.make_config(cv, algorithm, seed=0, cap=1000)
    solve = cv.search.run_mcts if algorithm == "mcts" else cv.search.run_search
    result = solve(problem, cfg)
    assert result.outcome == "solved" and result.plan
    assert run.plan_error(cv, problem, cfg, result) is None

    # the state before the last decision was goal-tested and failed
    short = dataclasses.replace(result, plan=result.plan[:-1])
    assert run.plan_error(cv, problem, cfg, short) == "plan does not reach the goal"
    renamed = [dataclasses.replace(result.plan[0], action="no-such-action")]
    wrong = dataclasses.replace(result, plan=renamed + result.plan[1:])
    assert run.plan_error(cv, problem, cfg, wrong).startswith("plan does not replay")


def test_sa_bound_violation_is_caught(ladder_setup):
    cv = ladder_setup.cv
    problem = ladder_setup.parsed[0][0]
    cfg = run.make_config(cv, "sa-log", seed=0, cap=1000)
    result = cv.search.run_search(problem, cfg)
    result.root.h = -1e9                          # a bound no plan can meet
    assert run.plan_error(cv, problem, cfg, result) == "plan is longer than the sa-mode bound"


def test_round_trip_check_flags_a_changed_problem(ladder_setup):
    assert run.round_trip_errors(ladder_setup) == []
    swapped = dataclasses.replace(
        ladder_setup, parsed=[ladder_setup.parsed[1]] + ladder_setup.parsed[1:])
    errors = run.round_trip_errors(swapped)
    assert len(errors) == 1 and "round trip changed the problem" in errors[0]


def test_trace_check_names_a_silent_hook(ladder_setup):
    workload = tiny("ladder")
    tracer = run.Tracer(ladder_setup.cv)
    run.run_round(ladder_setup, workload, seed=0, index=0, tracer=tracer)
    run.check_trace("ladder", workload, tracer)
    tracer.spans["model.state_key"][0] = 0
    with pytest.raises(run.TraceError, match="model.state_key"):
        run.check_trace("ladder", workload, tracer)


def test_wrapper_cost_is_calibrated():
    cost = run.calibrate(n=2000, repeats=3)
    assert sum(cost.timed) > 0 and sum(cost.sampling) > 0 and cost.emit > 0


def test_tracer_restores_the_planner(ladder_setup):
    cv = ladder_setup.cv
    before = (cv.sampling.try_apply, cv.search.goal_test, cv.search.make_sampler,
              cv.search.OpenList.push)
    with run.Tracer(cv):
        assert cv.sampling.try_apply is not before[0]
    assert (cv.sampling.try_apply, cv.search.goal_test, cv.search.make_sampler,
            cv.search.OpenList.push) == before

"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single `criterion NN PASS/FAIL` line with the measured
numbers baked in, so a verbose run reads as a checklist. The desk-scale
coverage suite (criteria 6 and 7) and the invariant-checked search runs
(criteria 2 and 3) are shared through module-scoped fixtures; their
parameters were tuned once on a single CPU and are pinned here.
"""

import math
import random
import statistics
import time
from collections import deque
from dataclasses import replace

import pytest

from cvplan.domains import InstanceSpec, default_ladder, generate, make_counters, make_sailing
from cvplan.dsl import parse_problem, serialize_problem
from cvplan.harness import load_suite, run_suite
from cvplan.model import (
    Action, Cmp, Const, Effect, Problem, State, Sub, Var, state_key, try_apply,
)
from cvplan.sampling import dyadic_value, heuristic_pick
from cvplan.search import (
    F_TOL,
    MctsConfig,
    SearchConfig,
    TraceCheck,
    run_mcts,
    run_search,
    solution_cost_within_bound,
    validate_trace,
)

# chi-square critical value, 9 degrees of freedom, significance 0.01
CHI2_CRIT_DF9 = 21.666


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs for criteria 2 and 3


@pytest.fixture(scope="module")
def bound_runs():
    """120 invariant-checked runs: a TraceCheck on every event. Each
    extraction carries f_value(g, h, n) of the node's columns, which the
    check compares with the f the node was queued at."""
    problems = {
        "counters-2": make_counters(2),
        "counters-3": make_counters(3),
        "sailing-1-1": make_sailing(1, 1),
    }
    runs = []
    t0 = time.perf_counter()
    for seed in range(5):
        for pname, prob in problems.items():
            for mode in ("sg", "sa"):
                for rect in ("lin", "log"):
                    for samp in ("systematic", "uniform"):
                        cfg = SearchConfig(
                            mode=mode, rectifier=rect,
                            sampler=samp, seed=seed,
                            expansion_limit=2000)
                        check = TraceCheck(rect)
                        result = run_search(prob, cfg, trace=check)
                        runs.append((pname, cfg, result, check.finish()))
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared desk-scale suite for criteria 6 and 7


DESK_LADDER = default_ladder()
DESK_CAPS = {"counters": 15000, "sailing": 8000,
             "blockgrouping": 4000, "drone": 15000}
DESK_SEEDS = (0, 1, 2)
DESK_CONFIGS = (("sg", "lin"), ("sg", "qua"), ("sg", "log"), ("sa", "log"))


@pytest.fixture(scope="module")
def desk_suite():
    """4 domains x 5 sizes x 3 seeds, uniform sampling, 60 s limit with
    per-domain expansion caps so every cell ends on a deterministic budget."""
    cells = {}
    for spec in DESK_LADDER:
        prob = generate(spec)
        iid = spec.instance_id()
        for mode, rect in DESK_CONFIGS:
            for seed in DESK_SEEDS:
                cfg = SearchConfig(
                    mode=mode, rectifier=rect,
                    sampler="uniform", seed=seed,
                    time_limit=60.0,
                    expansion_limit=DESK_CAPS[spec.domain])
                res = run_search(prob, cfg)
                cells[(iid, mode, rect, seed)] = (
                    res.outcome, len(res.plan) if res.plan else None)
    return cells


def _solved_count(cells, mode, rect):
    return sum(1 for (_, m, r, _), (out, _) in cells.items()
               if (m, r) == (mode, rect) and out == "solved")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_trace_fidelity():
    trace = []
    # seed 1 takes ~40 extractions on counters-2, so the trace exercises
    # re-insertion repeatedly instead of solving on the second extraction
    cfg = SearchConfig(mode="sg", rectifier="log",
                       sampler="uniform", seed=1,
                       time_limit=10.0)
    result = run_search(make_counters(2), cfg, trace=trace)
    violations = validate_trace(trace, "log")
    reinserts = sum(1 for e in trace if e[0] == "reinsert")
    ok = (result.outcome == "solved" and violations == []
          and reinserts >= 1 and result.time_s < 10.0)
    _report(1, ok,
            f"trace of {len(trace)} events, {result.expansions} expansions, "
            f"0 structural violations, {result.time_s:.2f}s "
            f"(validator output: {violations[:3]})")


def test_criterion_02_subtree_bound_every_iteration(bound_runs):
    runs, elapsed = bound_runs
    checked = [(name, cfg.seed, bad[:1]) for name, cfg, _, bad in runs
               if bad]
    ok = len(runs) == 120 and not checked and elapsed < 300.0
    _report(2, ok,
            f"{len(runs)} runs x 2000 expansions, tolerance {F_TOL}, "
            f"0 trace-check violations (bad: {checked[:2]}), {elapsed:.0f}s")


def test_criterion_03_solution_cost_bound(bound_runs):
    runs, _ = bound_runs
    solved_sa = [(cfg, res) for _, cfg, res, _ in runs
                 if cfg.mode == "sa" and res.outcome == "solved"]
    in_bound = [solution_cost_within_bound(res, res.root, cfg)
                for cfg, res in solved_sa]

    cfg, res = next((c, r) for c, r in solved_sa if c.rectifier == "log")
    bound = res.root.h + math.log1p(res.root.n)
    fake_plan = [res.plan[0]] * (int(bound) + 5)
    corrupted_flagged = not solution_cost_within_bound(
        replace(res, plan=fake_plan), res.root, cfg)

    ok = (len(solved_sa) >= 5 and all(in_bound) and corrupted_flagged)
    _report(3, ok,
            f"{len(solved_sa)} solved sa runs all within "
            f"h(s0) + r(n_root) + {F_TOL}; corrupted plan of "
            f"{len(fake_plan)} > bound {bound:.2f} was flagged")


def test_criterion_04_systematic_sampler_sequence():
    first_five = [dyadic_value(i) for i in range(5)]
    distinct = len({dyadic_value(i) for i in range(1025)})
    affine = [2.0 + (4.0 - 2.0) * dyadic_value(i) for i in range(3)]
    ok = (first_five == [0.0, 1.0, 0.5, 0.25, 0.75]
          and distinct == 1025 and affine == [2.0, 4.0, 3.0])
    _report(4, ok,
            f"first five {first_five}, {distinct}/1025 distinct, "
            f"affine onto [2,4] gives {affine}")


def test_criterion_05_completeness_proxy_20_seeds():
    prob = make_counters(2)
    outcomes = {}
    for rect in ("log", "lin"):
        solved = 0
        worst = 0.0
        for seed in range(20):
            cfg = SearchConfig(
                mode="sg", rectifier=rect,
                sampler="uniform", grid_digits=0,
                seed=seed, time_limit=10.0)
            res = run_search(prob, cfg)
            solved += res.outcome == "solved"
            worst = max(worst, res.time_s)
        outcomes[rect] = (solved, worst)
    ok = all(s == 20 and t < 10.0 for s, t in outcomes.values())
    _report(5, ok,
            "counters-2, ungridded uniform sampling: "
            + ", ".join(f"r_{r} {s}/20 seeds, worst {t:.2f}s"
                        for r, (s, t) in outcomes.items()))


def test_criterion_06_rectifier_coverage_trend(desk_suite):
    log_n = _solved_count(desk_suite, "sg", "log")
    lin_n = _solved_count(desk_suite, "sg", "lin")
    qua_n = _solved_count(desk_suite, "sg", "qua")
    ok = log_n >= lin_n >= qua_n
    _report(6, ok,
            f"desk suite solved counts r_log {log_n} >= r_lin {lin_n} "
            f">= r_qua {qua_n} over {len(DESK_LADDER)} instances x "
            f"{len(DESK_SEEDS)} seeds")


def test_criterion_07_quality_trend(desk_suite):
    sg_n = _solved_count(desk_suite, "sg", "log")
    sa_n = _solved_count(desk_suite, "sa", "log")
    common = [(desk_suite[(iid, "sg", "log", seed)][1],
               desk_suite[(iid, "sa", "log", seed)][1])
              for spec in DESK_LADDER for seed in DESK_SEEDS
              for iid in [spec.instance_id()]
              if desk_suite[(iid, "sg", "log", seed)][0] == "solved"
              and desk_suite[(iid, "sa", "log", seed)][0] == "solved"]
    med_sg = statistics.median(c[0] for c in common)
    med_sa = statistics.median(c[1] for c in common)
    ok = common and med_sa <= med_sg and sg_n >= sa_n
    _report(7, ok,
            f"{len(common)} commonly solved cells, median plan length "
            f"sa {med_sa} <= sg {med_sg}; coverage sg {sg_n} >= sa {sa_n}")


def test_criterion_08_plateau_selection_probabilities():
    draws = 10_000
    rng = random.Random(0)
    counts = [0] * 10
    for _ in range(draws):
        counts[heuristic_pick([3.0] * 10, rng)] += 1
    expected = draws / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)

    rng = random.Random(1)
    hits = sum(heuristic_pick([0.0, 9.0], rng, beta=1.0, eps=1.0) == 0
               for _ in range(draws))
    p_low = hits / draws
    ok = chi2 < CHI2_CRIT_DF9 and abs(p_low - 10 / 11) <= 0.02
    _report(8, ok,
            f"constant-h chi-square {chi2:.2f} < {CHI2_CRIT_DF9} (df=9, "
            f"alpha=0.01); two-candidate pick rate {p_low:.4f} vs 10/11 = "
            f"{10 / 11:.4f}")


def test_criterion_09_mcts_progressive_widening():
    # counters-6 is out of reach for random rollouts, so every seeded run
    # spends its full trial budget exercising the widening rule
    prob = make_counters(6)
    total_trials = 0
    violations = []
    over_cap = 0
    for seed in (0, 1, 2):
        cfg = MctsConfig(alpha=0.3, k=1.0, seed=seed, trial_limit=10_000)
        res = run_mcts(prob, cfg, widen_violations=violations)
        total_trials += res.expansions
        assert res.outcome in ("budget", "solved")
        stack = [res.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.visits and len(node.children) > math.ceil(
                    node.visits ** 0.3):
                over_cap += 1
    ok = violations == [] and over_cap == 0 and total_trials == 30_000
    _report(9, ok,
            f"{total_trials} trials over 3 seeds, 0 widening violations at "
            f"expansion time, 0 nodes over ceil(N^0.3) post hoc")


def _zero_control_walk(top=30):
    acts = []
    for c in ("c0", "c1"):
        acts.append(Action(
            f"inc-{c}", Cmp(Sub(Var(c), Const(float(top - 1))), "<="),
            Effect((), ((c, Sub(Var(c), Const(-1.0))),))))
        acts.append(Action(
            f"dec-{c}", Cmp(Sub(Var(c), Const(1.0)), ">="),
            Effect((), ((c, Sub(Var(c), Const(1.0))),))))
    return Problem(
        name="walk", bools=(), nums=("c0", "c1"), controls=(),
        actions=tuple(acts), init=State(bools={}, nums={"c0": 0.0, "c1": 0.0}),
        goal=Cmp(Sub(Sub(Var("c0"), Var("c1")), Const(100.0)), ">="),
    )


def test_criterion_10_finite_space_equivalence():
    prob = _zero_control_walk()

    reachable = {state_key(prob.init, prob)}
    frontier = deque([prob.init])
    while frontier:
        state = frontier.popleft()
        for action in prob.actions:
            succ = try_apply(state, action, {})
            if succ is None:
                continue
            key = state_key(succ, prob)
            if key not in reachable:
                reachable.add(key)
                frontier.append(succ)

    cfg = SearchConfig(mode="sg", rectifier="log",
                       sampler="systematic", seed=0,
                       time_limit=120.0)
    res = run_search(prob, cfg)
    generated = set()
    stack = [res.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        generated.add(state_key(node.state, prob))

    ok = (len(reachable) == 961 and res.outcome == "exhausted"
          and generated == reachable)
    _report(10, ok,
            f"{len(generated)} generated == {len(reachable)} reachable "
            f"states (31x31 grid), outcome {res.outcome!r} with no goal")


def test_criterion_11_roundtrip_and_fuzz():
    specs = list(DESK_LADDER)
    specs += [InstanceSpec("blockgrouping", {"b": 3, "g": 2, "grid": 8},
                           seed=s) for s in (1, 2)]
    specs += [InstanceSpec("drone", {"grid": 4, "p": 2}, seed=s)
              for s in (1, 2)]
    mismatches = []
    for spec in specs:
        prob = generate(spec)
        reparsed, diags = parse_problem(serialize_problem(prob))
        if reparsed != prob:
            mismatches.append((spec.instance_id(), diags))

    rng = random.Random(2026)
    alphabet = "()((-+*^=<>! \n\t;abcdefpqruvxyz0123456789._\"\\\x00\xff"
    doc = serialize_problem(make_counters(2))
    crashes = 0
    for i in range(100_000):
        if i % 5 == 4:
            a = rng.randrange(len(doc))
            b = rng.randrange(len(doc))
            text = doc[:min(a, b)] + rng.choice(alphabet) + doc[max(a, b):]
        else:
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(0, 80)))
        try:
            problem, diags = parse_problem(text)
            assert problem is None or isinstance(problem, Problem)
            assert isinstance(diags, list)
        except Exception:
            crashes += 1
    ok = mismatches == [] and crashes == 0
    _report(11, ok,
            f"{len(specs)} generated instances round-trip exactly "
            f"(bad: {mismatches[:2]}); 100000 fuzz inputs, {crashes} crashes")


DETERMINISM_SUITE = """
seeds = 0 1
time_limit = 30
expansion_limit = 4000
instance = counters n=2 m=10 u=1
instance = sailing b=1 p=1
algo = sg-log algo=sg rectifier=log sampler=uniform
algo = sa-log algo=sa rectifier=log sampler=uniform
"""


def test_criterion_12_determinism_modulo_time_s(tmp_path):
    cfg = load_suite(DETERMINISM_SUITE)
    run_suite(cfg, out_dir=str(tmp_path / "a"))
    run_suite(cfg, out_dir=str(tmp_path / "b"))

    lines_a = (tmp_path / "a" / "runs.csv").read_text().splitlines()
    lines_b = (tmp_path / "b" / "runs.csv").read_text().splitlines()
    stripped_a = [line.rsplit(",", 1)[0] for line in lines_a]
    stripped_b = [line.rsplit(",", 1)[0] for line in lines_b]
    diff = [i for i, (x, y) in enumerate(zip(stripped_a, stripped_b))
            if x != y]
    ok = (lines_a[0] == lines_b[0]
          and len(lines_a) == len(lines_b) == 9
          and diff == [])
    _report(12, ok,
            f"{len(lines_a) - 1} repeated suite cells byte-identical in "
            f"every CSV field except time_s (wall clock, exempt by design; "
            f"mismatched rows: {diff})")

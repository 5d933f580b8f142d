"""cvplan benchmark: time the planner on seeded workloads and check every plan.

Run from the repository root (no install needed; the planner is imported
from `src/`):

    python3 bench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Workloads (see bench/DESIGN.md for why each exists and what it predicts):

* ladder: the 20 `default_ladder()` instances x {sg-log, sa-log} x 4 search
  seeds, uniform sampler, a sixteenth of the desk suite's expansion caps.
* deep-counters: counters n=6 m=10 u=1, sa-log, 150 000 expansions.
* mcts-ladder: `run_mcts` over the 20 ladder instances, 400 trials each.

Every problem reaches the planner as text: generated, serialized, parsed and
validated, as `plan solve` reads it. A run times set-up several times before
and after its measured passes. A timed pass is ROUNDS rounds, round r running
every cell with search seeds from `(seed * ROUNDS + r) * k` on, k seeds per
cell (4 on the ladder, 1 elsewhere). Another pass runs only if it should fit
in `--seconds`, so the work measured does not depend on the program's speed.
Timings are medians over rounds.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, from passes of round 0 in which every cell runs with and without
bench/tracer.py's wrappers. The line before it is information: the sha256
fingerprint of round 0's seeded outcomes, coverage, the failed share and
machine facts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from tracer import SPANS, Tracer, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("model", "dsl", "domains", "sampling", "search")

#: expansion caps of the acceptance desk suite (tests/test_acceptance.py)
DESK_CAPS = {"counters": 15000, "sailing": 8000, "blockgrouping": 4000,
             "drone": 15000}
#: the ladder runs every cell with four search seeds at a sixteenth of the
#: desk caps: one seed's rejection-heavy drone trajectory can double a round's
#: trials, and four seeds per cell cut that spread by half. Every workload's
#: round takes about 7 s on a 2-CPU host, so a timed pass of three rounds fits
#: a 30 s run even when the host runs 40% slower, as it sometimes does.
LADDER_SEEDS = 4
LADDER_CAPS = {domain: cap // 16 for domain, cap in DESK_CAPS.items()}
DEEP_CAP = 150_000
MCTS_TRIALS = 400

SETUP_REPEATS = 10     # timed set-ups per run, after one untimed warm-up
ROUNDS = 3             # seed sets of a timed pass; a timed run repeats whole passes
MAX_PASSES = 100

BEST_FIRST_HOOKS = ("model.try_apply", "model.goal_test", "model.state_key",
                    "sampling.sampler", "heuristics.h", "search.open")
MCTS_HOOKS = ("model.try_apply", "model.goal_test", "sampling.sample_uniform",
              "heuristics.h")


@dataclass(frozen=True)
class Workload:
    """Instances (built from the imported cvplan), algorithms and caps.

    caps maps a domain to its expansion cap, or trial cap for "mcts". Each
    (instance, algorithm) cell runs seeds_per_cell times per round, with
    consecutive search seeds.
    """
    specs: Callable[[SimpleNamespace], list]
    algorithms: Tuple[str, ...]
    caps: Dict[str, int]
    seeds_per_cell: int = 1


def _ladder(cv):
    return cv.domains.default_ladder()


def _deep_counters(cv):
    return [cv.domains.InstanceSpec("counters", {"n": 6, "m": 10, "u": 1})]


WORKLOADS = {
    "ladder": Workload(_ladder, ("sg-log", "sa-log"), LADDER_CAPS, LADDER_SEEDS),
    "deep-counters": Workload(_deep_counters, ("sa-log",),
                              {"counters": DEEP_CAP}),
    "mcts-ladder": Workload(_ladder, ("mcts",),
                            dict.fromkeys(DESK_CAPS, MCTS_TRIALS)),
}


class TraceError(Exception):
    """The traced run missed a layer it must reach, or its counts disagree."""


# ---------------------------------------------------------------------------
# set-up: import, generate, serialize -> parse -> validate


@dataclass
class Setup:
    cv: SimpleNamespace
    specs: list
    generated: list
    parsed: list          # (problem or None, diagnostics) per instance
    seconds: Dict[str, float]


def setup(workload: Workload) -> Setup:
    """Import cvplan afresh and turn the workload's instances into parsed text.

    The modules and problems of earlier set-ups are collected first, outside
    the timing, so that each timed set-up starts like a fresh process.
    """
    for name in [m for m in sys.modules if m == "cvplan" or m.startswith("cvplan.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    importlib.import_module("cvplan")
    cv = SimpleNamespace(**{m: sys.modules[f"cvplan.{m}"] for m in MODULES})
    t1 = perf_counter()
    specs = workload.specs(cv)
    generated = [cv.domains.generate(spec) for spec in specs]
    t2 = perf_counter()
    texts = [cv.dsl.serialize_problem(problem) for problem in generated]
    t3 = perf_counter()
    parsed = [cv.dsl.parse_problem(text) for text in texts]
    t4 = perf_counter()
    parsed = [(problem, diags + cv.dsl.validate(problem) if problem is not None else diags)
              for problem, diags in parsed]
    t5 = perf_counter()
    return Setup(cv, specs, generated, parsed, {
        "setup_s": t5 - t0, "domains.generate_s": t2 - t1,
        "dsl.serialize_s": t3 - t2, "dsl.parse_s": t4 - t3, "dsl.validate_s": t5 - t4,
    })


def round_trip_errors(s: Setup) -> List[str]:
    """One message per instance whose text does not read back as itself."""
    errors = []
    for spec, original, (problem, diags) in zip(s.specs, s.generated, s.parsed):
        bad = [str(d) for d in diags if d.severity == "error"]
        if problem is None or bad:
            errors.append(f"{spec.instance_id()}: {'; '.join(bad) or 'no problem'}")
        elif problem != original:
            errors.append(f"{spec.instance_id()}: round trip changed the problem")
    return errors


# ---------------------------------------------------------------------------
# rounds


def make_config(cv, algorithm: str, seed: int, cap: int):
    if algorithm == "mcts":
        return cv.search.MctsConfig(alpha=0.3, k=1.0, c=math.sqrt(2.0),
                                    rollout_depth=50, seed=seed, trial_limit=cap)
    mode, rectifier = algorithm.split("-")
    return cv.search.SearchConfig(mode=mode, rectifier=rectifier, seed=seed,
                                  expansion_limit=cap)


def plan_error(cv, problem, cfg, result) -> Optional[str]:
    """Why a run's result is wrong, or None: solved plans must replay to a
    goal state, and sa-mode plans must respect the root bound."""
    if result.outcome != "solved":
        return None
    try:
        final = cv.model.replay_plan(problem, result.plan)
    except cv.model.ModelError as exc:
        return f"plan does not replay: {exc}"
    if not cv.model.goal_test(final, problem.goal):
        return "plan does not reach the goal"
    if getattr(cfg, "mode", None) == "sa" and not cv.search.solution_cost_within_bound(
            result, result.root, cfg):
        return "plan is longer than the sa-mode bound"
    return None


def tree_size(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@dataclass
class Search:
    """One search, timed and checked; it no longer holds the search's tree."""
    row: tuple           # (instance, algorithm, seed, outcome, plan_len, expansions)
    wall_s: float
    error: Optional[str]
    expansions: int = 0
    reexpansions: int = 0
    peak_open: int = 0
    nodes: int = 0       # search tree size; traced searches only


def one_search(cv, spec, problem, algorithm: str, cfg,
               tracer: Optional[Tracer] = None) -> Search:
    """Run one search, timing (and tracing) only the search call, then check it."""
    key = (spec.instance_id(), algorithm, cfg.seed)
    result, wall_s = None, 0.0
    try:
        t0 = perf_counter()
        with tracer or nullcontext():
            if algorithm == "mcts":
                result = cv.search.run_mcts(problem, cfg)
            else:
                result = cv.search.run_search(problem, cfg, trace=tracer and tracer.sink)
        wall_s = perf_counter() - t0
        error = plan_error(cv, problem, cfg, result)
    except Exception:
        error = traceback.format_exc()
    if result is None:
        return Search(key + ("error", -1, 0), wall_s, error)
    plan_len = len(result.plan) if result.plan is not None else -1
    return Search(key + (result.outcome, plan_len, result.expansions), wall_s, error,
                  result.expansions, result.reexpansions, result.peak_open,
                  tree_size(result.root) if tracer is not None else 0)


@dataclass
class Round:
    wall_s: float = 0.0            # summed over the untraced search calls
    traced_s: float = 0.0          # summed over the traced ones
    attempted: int = 0
    failed: int = 0
    expansions: int = 0
    reexpansions: int = 0
    solved: int = 0
    peak_open: int = 0
    rows: List[tuple] = field(default_factory=list)
    nodes: int = 0                 # largest traced search tree


def run_round(s: Setup, workload: Workload, seed: int, index: int,
              tracer: Optional[Tracer] = None) -> Round:
    """Run every cell once with the search seeds of seed set `index`.

    Untraced, the searches run back to back as in `plan suite`: the collector
    frees earlier searches' trees (their nodes form parent/child cycles) in
    the pauses of later searches, and only the round ends with a collection.
    With a tracer every cell runs twice, traced and untraced, the traced run
    first on even cells and second on odd ones, so that host drift and the
    cold first search fall on both sides of trace.overhead_s alike; and every
    search is followed by a collection outside its timing, so that it holds
    the only live tree and the peak RSS measures one tree at a time.
    """
    cv, out = s.cv, Round()
    first_seed = (seed * ROUNDS + index) * workload.seeds_per_cell
    cells = [(spec, problem, algorithm, search_seed)
             for spec, (problem, _) in zip(s.specs, s.parsed) if problem is not None
             for algorithm in workload.algorithms
             for search_seed in range(first_seed, first_seed + workload.seeds_per_cell)]

    def search(spec, problem, algorithm, cfg, traced_by=None) -> Search:
        done = one_search(cv, spec, problem, algorithm, cfg, traced_by)
        if tracer is not None:
            gc.collect()
        return done

    for i, (spec, problem, algorithm, search_seed) in enumerate(cells):
        cfg = make_config(cv, algorithm, search_seed, workload.caps[spec.domain])
        where = f"{spec.instance_id()} {algorithm} seed {search_seed}"
        traced = None
        if tracer is not None and i % 2 == 0:
            traced = search(spec, problem, algorithm, cfg, tracer)
        plain = search(spec, problem, algorithm, cfg)
        if tracer is not None and traced is None:
            traced = search(spec, problem, algorithm, cfg, tracer)
        errors = [plain.error]
        if traced is not None:
            errors.append(traced.error or (None if traced.row == plain.row else
                                           f"the tracer changed the search: {traced.row}"))
            out.attempted += 1
            out.traced_s += traced.wall_s
            out.nodes = max(out.nodes, traced.nodes)
        for error in filter(None, errors):
            print(f"bench: {where}: {error}", file=sys.stderr)
            out.failed += 1
        out.attempted += 1
        out.wall_s += plain.wall_s
        out.expansions += plain.expansions
        out.reexpansions += plain.reexpansions
        out.solved += plain.row[3] == "solved"
        out.peak_open = max(out.peak_open, plain.peak_open)
        out.rows.append(plain.row)
    gc.collect()
    return out


def _median(values, unit: str):
    """Median; counts keep a whole observed value."""
    return statistics.median_low(values) if unit == "count" else statistics.median(values)


def fingerprint(rows: List[tuple]) -> str:
    """sha256 over (instance, algorithm, seed, outcome, plan_len, expansions)."""
    text = "".join("\t".join(map(str, row)) + "\n" for row in rows)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def repeat_passes(run_pass: Callable[[], object], seconds: float) -> list:
    """Run one pass, then more while another should fit in `seconds`.

    Every pass does the same work, so a faster program gets more repeats of
    that work, never other work.
    """
    t0, done = perf_counter(), []
    while True:
        done.append(run_pass())
        elapsed = perf_counter() - t0
        if len(done) >= MAX_PASSES or elapsed + elapsed / len(done) > seconds:
            return done


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_rounds(s: Setup, workload: Workload, seed: int, seconds: float):
    """Whole passes over the ROUNDS seed sets; timings are medians over rounds."""
    passes = repeat_passes(
        lambda: [run_round(s, workload, seed, index) for index in range(ROUNDS)], seconds)
    rounds = [r for p in passes for r in p]
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "expansions_per_s": (statistics.median(r.expansions / r.wall_s for r in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return rounds, metrics


def traced_metrics(tracer: Tracer, r: Round) -> Dict[str, tuple]:
    sec = {name: tracer.seconds(name) for name in SPANS}
    calls = {name: tracer.calls(name) for name in SPANS}
    trials, sampled = tracer.trials, tracer.sampling_calls()
    inserts, duplicates = tracer.sink.counts["insert"], tracer.sink.counts["duplicate"]
    return {
        "model.try_apply_s": (sec["model.try_apply"], "s"),
        "model.try_apply_calls": (calls["model.try_apply"], "count"),
        "model.goal_test_s": (sec["model.goal_test"], "s"),
        "model.goal_test_calls": (calls["model.goal_test"], "count"),
        "model.state_key_s": (sec["model.state_key"], "s"),
        "model.state_key_calls": (calls["model.state_key"], "count"),
        "sampling.self_s": (tracer.sampling_self_s(), "s"),
        "sampling.calls": (sampled, "count"),
        "sampling.trials": (trials, "count"),
        "sampling.accept_ratio": ((sampled - tracer.fails) / trials if trials else 0.0, "ratio"),
        "sampling.fail_ratio": (tracer.fails / sampled if sampled else 0.0, "ratio"),
        "heuristics.h_s": (sec["heuristics.h"], "s"),
        "heuristics.calls": (calls["heuristics.h"], "count"),
        "search.self_s": (tracer.search_self_s(r.traced_s), "s"),
        "search.open_s": (sec["search.open"], "s"),
        "search.open_ops": (calls["search.open"], "count"),
        "search.expansions": (r.expansions, "count"),
        "search.peak_open": (r.peak_open, "count"),
        "search.dup_ratio": (duplicates / (inserts + duplicates) if inserts + duplicates else 0.0,
                             "ratio"),
        "search.reexpansion_rate": (r.reexpansions / r.expansions if r.expansions else 0.0,
                                    "ratio"),
        "runtime.gc_s": (tracer.gc_s, "s"),
        "runtime.gc_collections": (tracer.gc_collections, "count"),
        "trace.overhead_s": (r.traced_s - r.wall_s, "s"),
        "trace.wrapper_s": (tracer.wrapper_s(), "s"),
    }


def check_trace(name: str, workload: Workload, tracer: Tracer):
    """Fail loudly when a wrapped layer went unused or the counts disagree."""
    sink = tracer.sink
    needed = set()
    if "mcts" in workload.algorithms:
        needed.update(MCTS_HOOKS)
    if any(a != "mcts" for a in workload.algorithms):
        needed.update(BEST_FIRST_HOOKS)
        if sink.counts["extract"] == 0:
            raise TraceError(f"{name}: the trace= sink of run_search saw no extraction")
    for hook in sorted(needed):
        if tracer.calls(hook) == 0:
            raise TraceError(f"{name}: traced hook {hook} recorded no calls")
    applies = tracer.calls("model.try_apply")
    if tracer.trials != applies:
        raise TraceError(f"{name}: sampling.trials {tracer.trials} != "
                         f"model.try_apply_calls {applies}")
    goal_tests = tracer.calls("model.goal_test")
    if needed.issuperset(BEST_FIRST_HOOKS) and goal_tests != sink.counts["extract"]:
        raise TraceError(f"{name}: model.goal_test_calls {goal_tests} "
                         f"!= extractions {sink.counts['extract']}")


def traced_rounds(s: Setup, name: str, workload: Workload, seed: int, seconds: float):
    """Passes of seed set 0, each cell traced and untraced, until the time is spent.

    Per-layer metrics are medians over passes. The wrappers' cost per call is
    calibrated first and taken off the spans and self times. The collector
    runs after every search, so the peak RSS of the first pass less the RSS
    before it is the memory of the largest single search: bytes_per_node
    divides it by that search's node count.
    """
    cost = calibrate()
    samples: List[Dict[str, tuple]] = []

    def traced_pass():
        tracer = Tracer(s.cv, cost)
        r = run_round(s, workload, seed, 0, tracer)
        check_trace(name, workload, tracer)
        samples.append(traced_metrics(tracer, r))
        return r

    rss0 = rss_bytes()
    rounds = repeat_passes(traced_pass, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    metrics = {key: (_median([m[key][0] for m in samples], unit), unit)
               for key, (_, unit) in samples[0].items()}
    metrics["search.bytes_per_node"] = ((peak - rss0) / rounds[0].nodes, "B/node")
    return rounds, metrics


# ---------------------------------------------------------------------------
# entry point


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload; returns (info, result)."""
    load = os.getloadavg()
    setup(workload)                                  # warm-up: bytecode, caches
    times = []
    for _ in range(SETUP_REPEATS // 2):  # only the last set-up stays alive
        final = setup(workload)
        times.append(final.seconds)
    rt_errors = round_trip_errors(final)
    for error in rt_errors:
        print(f"bench: {error}", file=sys.stderr)
    if trace:
        rounds, metrics = traced_rounds(final, name, workload, seed, seconds)
    else:
        rounds, metrics = timed_rounds(final, workload, seed, seconds)
    # the other half runs after the rounds, so that the set-up times sample
    # the host's speed at both ends of the run, as the rounds' times do
    times += [setup(workload).seconds for _ in range(SETUP_REPEATS - len(times))]
    keys = (("domains.generate_s", "dsl.serialize_s", "dsl.parse_s", "dsl.validate_s")
            if trace else ("setup_s",))
    for key in keys:
        metrics[key] = (statistics.median(t[key] for t in times), "s")
    attempted = len(final.specs) + sum(r.attempted for r in rounds)
    failed = len(rt_errors) + sum(r.failed for r in rounds)
    info = {
        "workload": name, "seed": seed, "trace": int(trace), "rounds": len(rounds),
        "fingerprint": fingerprint(rounds[0].rows),
        "solved": {"value": rounds[0].solved, "unit": "count"},
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "loadavg": list(load)},
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "cvplan" / "__init__.py").is_file():
        print(f"bench: no planner sources at {SRC / 'cvplan'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        info, result = run(args.workload, WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    except TraceError as exc:
        print(f"bench: trace check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

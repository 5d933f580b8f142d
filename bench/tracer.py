"""Per-layer timing for the benchmark's traced run, from outside the planner.

The planner is not instrumented. Instead, a Tracer swaps timing wrappers
into the module-level names through which the search engine reaches each
layer, and restores the originals on exit:

* `cvplan.sampling.try_apply`: the model's precondition check and effect
  application, as called by the samplers;
* `cvplan.search.goal_test` and `cvplan.search.state_key`: the model calls
  made by the search loop;
* the callables that `cvplan.search.make_sampler` and `make_heuristic`
  return, and `cvplan.search.sample_uniform`, which MCTS calls directly;
  the sampling wrappers read `SampleOutcome.trials`;
* `cvplan.search.OpenList.push` and `pop`.

It also counts the events of `run_search`'s `trace=` sink and times the
CPython garbage collector through `gc.callbacks`. Every span excludes the
collector pauses that fall inside it, so `runtime.gc_s` is reported once,
and self times are spans minus the spans nested in them.

A wrapper costs time of its own: part falls inside the span it records and
part outside, in its caller's time. `calibrate` measures both parts per call
on wrapped no-ops, and the Tracer takes them off the spans and off the self
times of their callers, together with the cost of the `trace=` events.
"""

from __future__ import annotations

import gc
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Tuple

# span names; sampling spans contain model.try_apply, the rest are disjoint
SPANS = ("model.try_apply", "model.goal_test", "model.state_key",
         "sampling.sampler", "sampling.sample_uniform", "heuristics.h",
         "search.open")

#: spans called directly by the search loops (run_search and run_mcts)
TOP_SPANS = ("model.goal_test", "model.state_key", "sampling.sampler",
             "sampling.sample_uniform", "heuristics.h", "search.open")

#: spans whose wrapper also reads the SampleOutcome
SAMPLING_SPANS = ("sampling.sampler", "sampling.sample_uniform")


@dataclass(frozen=True)
class WrapperCost:
    """Seconds that one wrapped call adds, as (inside its span, outside it),
    for plain timing wrappers and for sampling wrappers; `emit` is the cost
    of one event sent to the `trace=` sink."""
    timed: Tuple[float, float] = (0.0, 0.0)
    sampling: Tuple[float, float] = (0.0, 0.0)
    emit: float = 0.0

    def of(self, name: str) -> Tuple[float, float]:
        return self.sampling if name in SAMPLING_SPANS else self.timed


class CountingSink:
    """A `trace=` sink for run_search that keeps only per-kind counts."""

    def __init__(self):
        self.counts: Counter = Counter()

    def append(self, event):
        self.counts[event[0]] += 1


class Tracer:
    """Context manager that wraps cvplan's layer entry points with timers.

    `cv` is the namespace of imported cvplan modules (`cv.search`,
    `cv.sampling`). Enter it around each search call, and pass `sink` as
    run_search's `trace=`; totals accumulate over every entry.
    `calls(name)` and `seconds(name)` give each span's totals, the
    seconds less the wrapper cost `cost` puts inside the span;
    `trials`/`fails` the sampling outcomes, and `gc_s`/`gc_collections` the
    collector's pauses inside the searches.
    """

    def __init__(self, cv, cost: WrapperCost = WrapperCost()):
        self.cv = cv
        self.cost = cost
        self.sink = CountingSink()
        self.spans = {name: [0, 0.0] for name in SPANS}
        self.trials = 0
        self.fails = 0
        self._gc = [0.0, 0, 0.0]      # seconds, collections, start of the current one
        self._saved = []

    @property
    def gc_s(self) -> float:
        return self._gc[0]

    @property
    def gc_collections(self) -> int:
        return self._gc[1]

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn):
        span, gc_acc = self.spans[name], self._gc

        def wrapper(*args, **kwargs):
            g0 = gc_acc[0]
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            span[1] += perf_counter() - t0 - (gc_acc[0] - g0)
            span[0] += 1
            return out
        return wrapper

    def _sampling(self, name, fn):
        timed = self._timed(name, fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.trials += out.trials
            if out.decision is None:
                self.fails += 1
            return out
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc[2] = perf_counter()
        else:
            self._gc[0] += perf_counter() - self._gc[2]
            self._gc[1] += 1

    # -- install / restore ------------------------------------------------

    def _swap(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        search, sampling = self.cv.search, self.cv.sampling
        make_heuristic, make_sampler = search.make_heuristic, search.make_sampler
        self._swap(sampling, "try_apply",
                   self._timed("model.try_apply", sampling.try_apply))
        self._swap(search, "goal_test",
                   self._timed("model.goal_test", search.goal_test))
        self._swap(search, "state_key",
                   self._timed("model.state_key", search.state_key))
        self._swap(search, "sample_uniform",
                   self._sampling("sampling.sample_uniform", search.sample_uniform))
        self._swap(search, "make_heuristic", lambda *a, **k: self._timed(
            "heuristics.h", make_heuristic(*a, **k)))
        self._swap(search, "make_sampler", lambda *a, **k: self._sampling(
            "sampling.sampler", make_sampler(*a, **k)))
        self._swap(search.OpenList, "push",
                   self._timed("search.open", search.OpenList.push))
        self._swap(search.OpenList, "pop",
                   self._timed("search.open", search.OpenList.pop))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- derived metrics --------------------------------------------------

    def seconds(self, name: str) -> float:
        calls, seconds = self.spans[name]
        return seconds - calls * self.cost.of(name)[0]

    def calls(self, name: str) -> int:
        return self.spans[name][0]

    def _outside(self, names) -> float:
        """What the wrappers of these spans added to their callers' time."""
        return sum(self.calls(n) * self.cost.of(n)[1] for n in names)

    def _events(self) -> int:
        return sum(self.sink.counts.values())

    def sampling_self_s(self) -> float:
        """Time in the samplers less the try_apply calls they make."""
        return (sum(self.seconds(n) for n in SAMPLING_SPANS) - self.seconds("model.try_apply")
                - self._outside(("model.try_apply",)))

    def sampling_calls(self) -> int:
        return sum(self.calls(n) for n in SAMPLING_SPANS)

    def search_self_s(self, search_wall_s: float) -> float:
        """Search loop time outside every wrapped layer and the collector."""
        return (search_wall_s - self.gc_s - sum(self.seconds(n) for n in TOP_SPANS)
                - self._outside(TOP_SPANS) - self._events() * self.cost.emit)

    def wrapper_s(self) -> float:
        """The calibrated cost of every wrapped call and trace= event."""
        return (sum(self.calls(n) * sum(self.cost.of(n)) for n in SPANS)
                + self._events() * self.cost.emit)


def _per_call(fn, n: int, arg) -> float:
    """Seconds per call of fn(arg, arg, arg) in a loop, less the loop's own cost."""
    t0 = perf_counter()
    for _ in range(n):
        fn(arg, arg, arg)
    t1 = perf_counter()
    for _ in range(n):
        pass
    return (2 * t1 - t0 - perf_counter()) / n


def calibrate(n: int = 20_000, repeats: int = 5) -> WrapperCost:
    """Time wrapped no-ops against plain ones, with the collector off, and
    return the medians over `repeats` of the per-call costs."""
    outcome = SimpleNamespace(trials=1, decision=None)
    event = ("extract", 0, 0.0)

    def noop(a, b, c):
        return outcome

    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            probe = Tracer(None)
            append = probe.sink.append
            plain = _per_call(noop, n, event)
            timed = _per_call(probe._timed("model.try_apply", noop), n, event)
            sampled = _per_call(probe._sampling("sampling.sampler", noop), n, event)
            emit = _per_call(lambda a, b, c: append(a), n, event) - plain
            inside_timed = probe.seconds("model.try_apply") / n - plain
            inside_sampled = probe.seconds("sampling.sampler") / n - plain
            samples.append((inside_timed, timed - plain - inside_timed,
                            inside_sampled, sampled - plain - inside_sampled, emit))
    finally:
        if enabled:
            gc.enable()
    it, ot, ism, osm, emit = (statistics.median(column) for column in zip(*samples))
    return WrapperCost(timed=(it, ot), sampling=(ism, osm), emit=emit)

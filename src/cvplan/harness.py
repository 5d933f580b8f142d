"""Batch experiment harness: suites, CSV records, and report tables.

A suite is a set of instances (generated or loaded from text files) crossed
with a set of algorithm configurations and a list of seeds. Every cell runs
as an isolated, deterministic, single-threaded search; records are flushed
to CSV incrementally, in canonical cell order, so repeated runs of the same
suite produce identical files apart from measured wall times.

runs.csv has the columns of CSV_HEADER, each a RunRecord field.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .domains import InstanceSpec, generate
from .dsl import key_values, load_problem
from .model import Problem
from .sampling import SAMPLER_KINDS
from .search import (MODES, RECTIFIERS, MctsConfig, SearchConfig, SearchResult,
                     check_config, run_mcts, run_search)

#: the runs.csv columns: RunRecord field -> (text of a value, value of a text)
_COLUMNS: Dict[str, Tuple[Callable[[object], str], Callable[[str], object]]] = {
    "instance": (str, str),
    "algorithm": (str, str),
    "seed": (str, int),
    "outcome": (str, str),
    "plan_len": (lambda v: "" if v is None else str(v),
                 lambda text: int(text) if text else None),
    "expansions": (str, int),
    "reexp_rate": ("{:.4f}".format, float),
    "time_s": ("{:.3f}".format, float),
}
CSV_HEADER = tuple(_COLUMNS)

#: rendered for a coverage cell with no solved runs
EMPTY_CELL = "0 (—)"


@dataclass(frozen=True)
class RunRecord:
    instance: str
    algorithm: str
    seed: int
    outcome: str
    plan_len: Optional[int]
    expansions: int
    reexp_rate: float
    time_s: float
    #: why an "error" cell failed, as "Type: message"; not in runs.csv
    error: str = ""

    @property
    def domain(self) -> str:
        return self.instance.split("/", 1)[0]

    def csv_row(self) -> List[str]:
        return [text(getattr(self, name)) for name, (text, _) in _COLUMNS.items()]


#: algorithm names: the best-first modes plus the MCTS baseline
ALGOS = MODES + ("mcts",)


@dataclass(frozen=True)
class Setting:
    """The config field a setting sets, its text parser, and its allowed
    values (None: whatever parses). It applies to the algos whose config
    has the field."""
    field: str
    parse: Callable[[str], object] = str
    choices: Optional[Tuple[str, ...]] = None


#: every algorithm setting of suite `algo` lines and `plan solve` flags; the
#: defaults are those of SearchConfig and MctsConfig
SETTINGS: Dict[str, Setting] = {
    "rectifier": Setting("rectifier", choices=tuple(RECTIFIERS)),
    "dup_detect": Setting("duplicate_detection", lambda raw: raw == "on",
                          ("on", "off")),
    "sampler": Setting("sampler", choices=SAMPLER_KINDS),
    "beta": Setting("beta", float),
    "eps": Setting("eps", float),
    "candidates": Setting("candidates", int),
    "grid_digits": Setting("grid_digits", int),
    "reject_budget": Setting("reject_budget", int),
    "alpha": Setting("alpha", float),
    "k": Setting("k", float),
    "c": Setting("c", float),
    "rollout_depth": Setting("rollout_depth", int),
}


def make_config(algo: str,
                raw_settings: Dict[str, str]) -> SearchConfig | MctsConfig:
    """The engine config for `algo` with the given SETTINGS keys parsed from
    their text and all other fields at their defaults. Raises ValueError on an
    unknown algo or key, a bad value, a key foreign to the algo, or a config
    the engine refuses."""
    if algo not in ALGOS:
        raise ValueError(f"unknown algo {algo!r}")
    engine = MctsConfig if algo == "mcts" else SearchConfig
    values = {} if algo == "mcts" else {"mode": algo}
    for key, raw in raw_settings.items():
        setting = SETTINGS.get(key)
        if setting is None:
            raise ValueError(f"unknown algo key {key!r}")
        if not hasattr(engine, setting.field):
            raise ValueError(f"{key} does not apply to algo {algo}")
        if setting.choices is not None and raw not in setting.choices:
            raise ValueError(f"{key} must be one of {setting.choices}, not {raw!r}")
        try:
            values[setting.field] = setting.parse(raw)
        except ValueError:
            raise ValueError(f"bad {key} value {raw!r}") from None
    config = engine(**values)
    check_config(config)
    return config


@dataclass
class AlgoSpec:
    """One named algorithm configuration."""
    algo_id: str
    config: SearchConfig | MctsConfig


@dataclass
class InstanceSource:
    """A generated instance or a problem file on disk."""
    instance_id: str
    spec: Optional[InstanceSpec] = None
    path: Optional[str] = None

    def load(self) -> Problem:
        if self.spec is not None:
            return generate(self.spec)
        assert self.path is not None
        problem, diags = load_problem(self.path)
        if problem is None:
            raise ValueError(f"{self.path}: " + "; ".join(
                str(d) for d in diags if d.severity == "error"))
        return problem


@dataclass
class SuiteConfig:
    instances: List[InstanceSource]
    algorithms: List[AlgoSpec]
    seeds: List[int] = field(default_factory=lambda: [0])
    time_limit: float = SearchConfig.time_limit
    expansion_limit: Optional[int] = None
    workers: int = 1
    #: the text load_suite read; None for a suite built in code
    source_text: Optional[str] = None


def instance_spec(domain: str, raw: Dict[str, str], seed: int) -> InstanceSpec:
    """The InstanceSpec of a domain and its parameters' text values, as
    suite `instance` lines and `plan gen -p` give them."""
    params: Dict[str, int] = {}
    for key, text in raw.items():
        try:
            params[key] = int(text)
        except ValueError:
            raise ValueError(f"invalid literal for integer parameter {key!r}: "
                             f"{text!r}") from None
    return InstanceSpec(domain, params, seed)


def _parse_algo_line(value: str) -> AlgoSpec:
    parts = value.split()
    if not parts:
        raise ValueError("algo line needs an identifier")
    raw = key_values(parts[1:])
    return AlgoSpec(algo_id=parts[0],
                    config=make_config(raw.pop("algo", SearchConfig.mode), raw))


def _parse_instance_line(value: str) -> InstanceSource:
    parts = value.split()
    if not parts:
        raise ValueError("instance line needs a domain or file")
    if parts[0] == "file":
        if len(parts) != 2:
            raise ValueError("expected `file <path>`")
        stem = os.path.splitext(os.path.basename(parts[1]))[0]
        return InstanceSource(instance_id=f"file/{stem}", path=parts[1])
    raw = key_values(parts[1:])
    seed = int(raw.pop("seed", "0"))
    spec = instance_spec(parts[0], raw, seed)
    return InstanceSource(instance_id=spec.instance_id(), spec=spec)


def load_suite(text: str) -> SuiteConfig:
    """Parse a line-oriented `key = value` suite description.

    `instance` and `algo` keys accumulate; `seeds` is a space-separated list;
    `#` starts a comment. See README for the full key set.
    """
    cfg = SuiteConfig(instances=[], algorithms=[], source_text=text)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value")
        key = key.strip()
        value = value.strip()
        try:
            if key == "instance":
                source = _parse_instance_line(value)
                if source.instance_id in [s.instance_id for s in cfg.instances]:
                    raise ValueError(f"duplicate instance {source.instance_id!r}")
                cfg.instances.append(source)
            elif key == "algo":
                spec = _parse_algo_line(value)
                if spec.algo_id in [a.algo_id for a in cfg.algorithms]:
                    raise ValueError(f"duplicate algorithm {spec.algo_id!r}")
                cfg.algorithms.append(spec)
            elif key == "seeds":
                cfg.seeds = [int(tok) for tok in value.split()]
                if not cfg.seeds:
                    raise ValueError("seeds list is empty")
                for i, seed in enumerate(cfg.seeds):
                    if seed in cfg.seeds[:i]:
                        raise ValueError(f"duplicate seed {seed}")
            elif key == "time_limit":
                cfg.time_limit = float(value)
            elif key == "expansion_limit":
                cfg.expansion_limit = None if value == "none" else int(value)
            elif key == "workers":
                cfg.workers = int(value)
            else:
                raise ValueError(f"unknown key {key!r}")
            check_suite(cfg)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not cfg.instances:
        raise ValueError("suite config declares no instances")
    if not cfg.algorithms:
        raise ValueError("suite config declares no algorithms")
    return cfg


def check_suite(cfg: SuiteConfig) -> None:
    """Raise ValueError if a suite's run-level limits or workers cannot be run."""
    check_config(SearchConfig(time_limit=cfg.time_limit, expansion_limit=cfg.expansion_limit))
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")


def run_algo(problem: Problem, config: SearchConfig | MctsConfig, seed: int,
             time_limit: float, limit: Optional[int],
             trace=None) -> SearchResult:
    """Run a configured algorithm under one cell's seed and limits; limit
    caps expansions for sg and sa and trials for mcts. trace is run_search's
    event sink, for sg and sa only: mcts emits no events. A limit of 0 or
    less raises ValueError under its suite and CLI name, expansion_limit."""
    if limit is not None and limit <= 0:
        raise ValueError("expansion_limit must be positive")
    if isinstance(config, MctsConfig):
        return run_mcts(problem, replace(config, seed=seed, time_limit=time_limit,
                                         trial_limit=limit))
    return run_search(problem, replace(config, seed=seed, time_limit=time_limit,
                                       expansion_limit=limit), trace=trace)


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cell_worker(args) -> RunRecord:
    """Run one (instance, algorithm, seed) cell."""
    problem, error, spec, seed, instance_id, time_limit, expansion_limit = args
    if problem is not None:
        try:
            result = run_algo(problem, spec.config, seed, time_limit, expansion_limit)
            return RunRecord(
                instance_id, spec.algo_id, seed, result.outcome,
                None if result.plan is None else len(result.plan),
                result.expansions, result.reexpansion_rate, result.time_s)
        except Exception as exc:
            error = _reason(exc)
    return RunRecord(instance_id, spec.algo_id, seed, "error", None, 0, 0.0, 0.0, error)


def run_suite(cfg: SuiteConfig, out_dir: Optional[str] = None,
              progress: Optional[Callable[[RunRecord], None]] = None
              ) -> List[RunRecord]:
    """Run every (instance, algorithm, seed) cell; return canonical-order records.

    With out_dir set, records stream into <out_dir>/runs.csv in canonical
    cell order as they finish (an interrupted suite loses at most the
    in-flight cells); on completion meta.txt is written next to it.
    Instances that fail to load occupy their cells with outcome "error", as
    do cells whose run raises; RunRecord.error says why.
    """
    if not cfg.instances or not cfg.algorithms:
        raise ValueError("suite needs at least one instance and one algorithm")
    check_suite(cfg)
    problems: List[Tuple[str, Optional[Problem], str]] = []
    for source in cfg.instances:
        try:
            problems.append((source.instance_id, source.load(), ""))
        except Exception as exc:
            problems.append((source.instance_id, None, _reason(exc)))

    cells = [(problem, load_error, spec, seed, instance_id, cfg.time_limit,
              cfg.expansion_limit)
             for instance_id, problem, load_error in problems
             for spec in cfg.algorithms for seed in cfg.seeds]

    stream = None
    writer = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stream = open(os.path.join(out_dir, "runs.csv"), "w",
                      encoding="utf-8", newline="")
        writer = csv.writer(stream)
        writer.writerow(CSV_HEADER)
        stream.flush()

    records: List[RunRecord] = []
    # a fork pool starts all its workers at the first submit
    workers = min(cfg.workers, len(cells))
    try:
        if workers > 1:
            # here, so that `plan solve` and `plan gen` load no process pool
            from concurrent.futures import ProcessPoolExecutor
        with (ProcessPoolExecutor(max_workers=workers)
              if workers > 1 else nullcontext()) as pool:
            # the pool's map, like the built-in one, yields in cell order
            for record in (pool.map if pool else map)(_cell_worker, cells):
                records.append(record)
                if writer is not None:
                    writer.writerow(record.csv_row())
                    stream.flush()
                if progress is not None:
                    progress(record)
    finally:
        if stream is not None:
            stream.close()

    if out_dir is not None:
        _write_meta(cfg, records, os.path.join(out_dir, "meta.txt"))
    return records


def _write_meta(cfg: SuiteConfig, records: Sequence[RunRecord], path: str):
    import hashlib  # here, so that `plan solve` and `plan gen` load no OpenSSL
    lines = [] if cfg.source_text is None else [
        f"config_sha256={hashlib.sha256(cfg.source_text.encode('utf-8')).hexdigest()}"]
    lines += [
        f"instances={len(cfg.instances)}",
        f"algorithms={' '.join(spec.algo_id for spec in cfg.algorithms)}",
        f"seeds={' '.join(str(s) for s in cfg.seeds)}",
        f"time_limit={cfg.time_limit}",
        f"expansion_limit={cfg.expansion_limit}",
        f"workers={cfg.workers}",
        f"records={len(records)}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reading runs.csv

def read_records(path: str) -> List[RunRecord]:
    """The records of a runs.csv file. A missing column, a short row or a
    value of the wrong type raises ValueError."""
    records: List[RunRecord] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                records.append(RunRecord(**{
                    name: value(row[name]) for name, (_, value) in _COLUMNS.items()}))
        except KeyError as exc:
            raise ValueError(f"{path}: no {exc.args[0]!r} column") from None
        except (csv.Error, TypeError, ValueError) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# aggregation

_GROUP_KEYS: Dict[str, Callable[[RunRecord], str]] = {
    "domain": lambda r: r.domain,
    "instance": lambda r: r.instance,
    "algorithm": lambda r: r.algorithm,
    "seed": lambda r: str(r.seed),
}


def coverage_cell(records: Sequence[RunRecord]) -> str:
    """`solved count (mean re-expansion rate over solved runs)`."""
    solved = [r for r in records if r.outcome == "solved"]
    if not solved:
        return EMPTY_CELL
    mean_rate = sum(r.reexp_rate for r in solved) / len(solved)
    return f"{len(solved)} ({mean_rate:.2f})"


def coverage_table(records: Sequence[RunRecord], row_key: str = "domain",
                   col_key: str = "algorithm"
                   ) -> Tuple[List[str], List[str], Dict[Tuple[str, str], str]]:
    """Group records and render each group with coverage_cell."""
    if not records:
        raise ValueError("no records to aggregate")
    row_of = _GROUP_KEYS[row_key]
    col_of = _GROUP_KEYS[col_key]
    groups: Dict[Tuple[str, str], List[RunRecord]] = {}
    for record in records:
        groups.setdefault((row_of(record), col_of(record)), []).append(record)
    rows = sorted({key[0] for key in groups})
    cols = sorted({key[1] for key in groups})
    cells = {
        (row, col): coverage_cell(groups.get((row, col), []))
        for row in rows for col in cols
    }
    return rows, cols, cells


def _csv_text(rows) -> str:
    """rows, each a list of field texts, as CSV text."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def coverage_csv(records: Sequence[RunRecord], row_key: str = "domain",
                 col_key: str = "algorithm") -> str:
    rows, cols, cells = coverage_table(records, row_key, col_key)
    return _csv_text([[row_key] + cols] +
                     [[row] + [cells[(row, col)] for col in cols] for row in rows])


def survival_data(records: Sequence[RunRecord]
                  ) -> Dict[str, List[Tuple[float, int]]]:
    """Per algorithm: (wall time, cumulative solved) step points."""
    series: Dict[str, List[Tuple[float, int]]] = {}
    for algo in sorted({r.algorithm for r in records}):
        times = sorted(r.time_s for r in records
                       if r.algorithm == algo and r.outcome == "solved")
        points: List[Tuple[float, int]] = []
        for count, t in enumerate(times, start=1):
            if points and points[-1][0] == t:
                points[-1] = (t, count)
            else:
                points.append((t, count))
        series[algo] = points
    return series


def survival_csv(records: Sequence[RunRecord]) -> str:
    return _csv_text([["algorithm", "time_s", "solved"]] +
                     [[algo, f"{t:.3f}", str(count)]
                      for algo, points in survival_data(records).items()
                      for t, count in points])


_METRICS: Dict[str, Callable[[RunRecord], float]] = {
    "plan_len": lambda r: float(r.plan_len if r.plan_len is not None else -1),
    "expansions": lambda r: float(r.expansions),
    "time_s": lambda r: r.time_s,
}


def pairwise_compare(records_a: Sequence[RunRecord],
                     records_b: Sequence[RunRecord], metric: str = "plan_len"
                     ) -> List[Tuple[str, int, float, float]]:
    """Rows (instance, seed, metric_a, metric_b) for cells both sides solved."""
    metric_of = _METRICS[metric]
    solved_a = {(r.instance, r.seed): r for r in records_a
                if r.outcome == "solved"}
    rows: List[Tuple[str, int, float, float]] = []
    for record in records_b:
        if record.outcome != "solved":
            continue
        other = solved_a.get((record.instance, record.seed))
        if other is None:
            continue
        rows.append((record.instance, record.seed,
                     metric_of(other), metric_of(record)))
    rows.sort()
    return rows


def compare_csv(records: Sequence[RunRecord], algo_a: str, algo_b: str,
                metric: str = "plan_len") -> str:
    rows = pairwise_compare(
        [r for r in records if r.algorithm == algo_a],
        [r for r in records if r.algorithm == algo_b], metric)
    return _csv_text([["instance", "seed", algo_a, algo_b]] +
                     [[instance, str(seed), repr(value_a), repr(value_b)]
                      for instance, seed, value_a, value_b in rows])


def best_of(records: Sequence[RunRecord], algo_ids: Sequence[str],
            new_id: Optional[str] = None) -> List[RunRecord]:
    """Merge several algorithms, keeping the best run per (instance, seed).

    Solved runs win over unsolved; among solved runs the shortest plan wins,
    with wall time then algorithm-list order breaking ties.
    """
    if not algo_ids:
        raise ValueError("best_of needs at least one algorithm id")
    merged_id = new_id or "best:" + ",".join(algo_ids)
    order = {algo: i for i, algo in enumerate(algo_ids)}
    pool: Dict[Tuple[str, int], RunRecord] = {}

    def rank(record: RunRecord):
        solved = record.outcome == "solved"
        plan = record.plan_len if record.plan_len is not None else math.inf
        return (0 if solved else 1, plan, record.time_s,
                order[record.algorithm])

    for record in records:
        if record.algorithm not in order:
            continue
        key = (record.instance, record.seed)
        if key not in pool or rank(record) < rank(pool[key]):
            pool[key] = record
    return [replace(pool[key], algorithm=merged_id)
            for key in sorted(pool.keys())]

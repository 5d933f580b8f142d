"""Command line front end: solve one instance, generate instances, run suites.

Exit codes: 0 on success (solve requires a plan), 1 when a solve run ends
without a plan or, under `--assert on`, breaks a search invariant, 2 on bad
input. main turns any OSError or ValueError into `error: ...` and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .domains import GENERATORS, generate
from .dsl import key_values, load_problem, serialize_plan, serialize_problem
from .harness import (
    ALGOS,
    SETTINGS,
    best_of,
    compare_csv,
    coverage_csv,
    instance_spec,
    load_suite,
    make_config,
    read_records,
    run_algo,
    run_suite,
    survival_csv,
)
from .search import MctsConfig, SearchConfig, TraceCheck, drifted_nodes


def _add_algo_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--algo", choices=ALGOS, default=SearchConfig.mode)
    # values stay text for make_config, which parses and checks them exactly
    # as it does for suite `algo` lines
    for key, setting in SETTINGS.items():
        owners = [c for c in (SearchConfig, MctsConfig)
                  if hasattr(c, setting.field)]
        parser.add_argument(
            "--" + key.replace("_", "-"), default=argparse.SUPPRESS,
            metavar="{" + ",".join(setting.choices) + "}"
            if setting.choices else None,
            help=f"{'/'.join(c.__name__ for c in owners)}.{setting.field}, "
                 f"default {getattr(owners[0], setting.field)!r}")
    parser.add_argument("--seed", type=int, default=SearchConfig.seed)
    parser.add_argument("--time-limit", type=float, default=SearchConfig.time_limit)
    parser.add_argument("--expansion-limit", type=int, default=None)
    parser.add_argument("--assert", dest="check",
                        choices=("on", "off"), default="off",
                        help="check search invariants on every event")


def config_from_args(args):
    """The engine config for the algorithm flags given on the command line."""
    config = make_config(args.algo, {key: getattr(args, key)
                                     for key in SETTINGS if hasattr(args, key)})
    if args.check == "on" and not isinstance(config, SearchConfig):
        raise ValueError("--assert applies to sg and sa only")
    return config


def _cmd_solve(args) -> int:
    problem, diags = load_problem(args.file)
    for diag in diags:
        print(f"{args.file}: {diag}", file=sys.stderr)
    if problem is None:
        return 2
    config = config_from_args(args)
    check = TraceCheck(config.rectifier) if args.check == "on" else None
    result = run_algo(problem, config, args.seed, args.time_limit,
                      args.expansion_limit, trace=check)
    print(f"outcome={result.outcome} expansions={result.expansions} "
          f"reexp_rate={result.reexpansion_rate:.4f} "
          f"time_s={result.time_s:.3f}", file=sys.stderr)
    breaches = (check.finish() + drifted_nodes(result.root.tree, config)
                if check is not None else [])
    for breach in breaches:
        print(f"invariant: {breach}", file=sys.stderr)
    if breaches or result.plan is None:
        return 1
    sys.stdout.write(serialize_plan(result.plan))
    return 0


def _cmd_gen(args) -> int:
    spec = instance_spec(args.domain, key_values(args.param), args.seed)
    text = serialize_problem(generate(spec))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {spec.instance_id()} to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_suite(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = load_suite(fh.read())
    if args.workers is not None:
        cfg.workers = args.workers

    def progress(record):
        reason = f" ({record.error})" if record.error else ""
        print(f"{record.instance} {record.algorithm} seed={record.seed} "
              f"-> {record.outcome}{reason}", file=sys.stderr)

    run_suite(cfg, out_dir=args.output, progress=progress)
    print(f"suite written to {args.output}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    records = read_records(f"{args.dir}/runs.csv")
    if args.best_of:
        records += best_of(records, args.best_of.split(","))
    if args.table:
        sys.stdout.write(coverage_csv(records, args.row, args.col))
    elif args.survival:
        sys.stdout.write(survival_csv(records))
    else:
        algo_a, algo_b = args.compare
        sys.stdout.write(compare_csv(records, algo_a, algo_b, args.metric))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plan",
        description="Plan with continuous control variables.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem file")
    solve.add_argument("file")
    _add_algo_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen.add_argument("domain", choices=GENERATORS)
    gen.add_argument("-p", "--param", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="integer size parameter; repeatable")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    suite = sub.add_parser("suite", help="run a benchmark suite")
    suite.add_argument("config")
    suite.add_argument("-o", "--output", required=True,
                       help="directory for runs.csv and meta.txt")
    suite.add_argument("--workers", type=int, default=None)
    suite.set_defaults(func=_cmd_suite)

    report = sub.add_parser("report", help="summarize a suite directory")
    report.add_argument("dir")
    what = report.add_mutually_exclusive_group(required=True)
    what.add_argument("--table", action="store_true",
                      help="coverage table, `solved (mean reexp rate)` cells")
    what.add_argument("--survival", action="store_true",
                      help="cumulative solved counts over wall time")
    what.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="per-cell metric pairs on commonly solved cells")
    report.add_argument("--metric", default="plan_len",
                        choices=("plan_len", "expansions", "time_s"))
    report.add_argument("--best-of", default=None, metavar="IDS",
                        help="comma-separated algorithm ids to merge into "
                             "a virtual best:IDS algorithm")
    report.add_argument("--row", default="domain",
                        choices=("domain", "instance", "algorithm", "seed"))
    report.add_argument("--col", default="algorithm",
                        choices=("domain", "instance", "algorithm", "seed"))
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

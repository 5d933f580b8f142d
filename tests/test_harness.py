import hashlib
import math
import subprocess
import sys

import pytest

from cvplan.harness import (
    CSV_HEADER,
    EMPTY_CELL,
    AlgoSpec,
    RunRecord,
    SuiteConfig,
    best_of,
    coverage_cell,
    compare_csv,
    coverage_csv,
    coverage_table,
    load_suite,
    pairwise_compare,
    read_records,
    run_suite,
    survival_csv,
    survival_data,
)
from cvplan.search import MctsConfig

SMALL_SUITE = """
# two tiny instances, two algorithms
seeds = 0 1
time_limit = 10
expansion_limit = 4000
instance = counters n=2 m=10 u=1
instance = counters n=3 m=10 u=1
algo = sg-log-u algo=sg rectifier=log sampler=uniform
algo = sa-log-u algo=sa rectifier=log sampler=uniform
"""


def make_record(**kwargs):
    base = dict(instance="counters/n2-m10-u1", algorithm="a", seed=0,
                outcome="solved", plan_len=3, expansions=10,
                reexp_rate=0.0, time_s=1.0)
    base.update(kwargs)
    return RunRecord(**base)


class TestLoadSuite:
    def test_small_suite(self):
        cfg = load_suite(SMALL_SUITE)
        assert [s.instance_id for s in cfg.instances] == [
            "counters/n2-m10-u1", "counters/n3-m10-u1"]
        assert [a.algo_id for a in cfg.algorithms] == ["sg-log-u", "sa-log-u"]
        assert cfg.seeds == [0, 1]
        assert cfg.time_limit == 10.0
        assert cfg.expansion_limit == 4000
        assert cfg.workers == 1
        assert cfg.source_text == SMALL_SUITE

    def test_algo_fields(self):
        cfg = load_suite(
            "instance = counters n=2\n"
            "algo = h algo=sa rectifier=qua sampler=heuristic beta=2.5 "
            "eps=0.01 candidates=5 grid_digits=2 reject_budget=50 "
            "dup_detect=off\n")
        spec = cfg.algorithms[0]
        assert spec.config.mode == "sa"
        assert spec.config.rectifier == "qua"
        assert spec.config.sampler == "heuristic"
        assert spec.config.beta == 2.5
        assert spec.config.eps == 0.01
        assert spec.config.candidates == 5
        assert spec.config.grid_digits == 2
        assert spec.config.reject_budget == 50
        assert not spec.config.duplicate_detection

    def test_mcts_fields(self):
        cfg = load_suite(
            "instance = counters n=2\n"
            "algo = m algo=mcts alpha=0.5 k=2 c=1.0 rollout_depth=20\n")
        spec = cfg.algorithms[0]
        assert isinstance(spec.config, MctsConfig)
        assert spec.config.alpha == 0.5
        assert spec.config.k == 2.0
        assert spec.config.c == 1.0
        assert spec.config.rollout_depth == 20

    def test_file_instance(self):
        cfg = load_suite("instance = file /tmp/some/widget.plan\n"
                         "algo = a algo=sg\n")
        src = cfg.instances[0]
        assert src.instance_id == "file/widget"
        assert src.path == "/tmp/some/widget.plan"

    def test_instance_seed_key(self):
        cfg = load_suite("instance = drone grid=4 p=2 seed=7\n"
                         "algo = a algo=sg\n")
        assert cfg.instances[0].spec.seed == 7
        assert cfg.instances[0].instance_id.endswith("-s7")

    def test_expansion_limit_none(self):
        cfg = load_suite("expansion_limit = none\n"
                         "instance = counters n=2\nalgo = a algo=sg\n")
        assert cfg.expansion_limit is None

    def test_comments_and_blanks_ignored(self):
        cfg = load_suite("# header\n\ninstance = counters n=2  # trailing\n"
                         "algo = a algo=sg\n")
        assert len(cfg.instances) == 1

    @pytest.mark.parametrize("text,fragment", [
        ("nonsense\n", "key = value"),
        ("frobnicate = 1\ninstance = counters n=2\nalgo = a algo=sg\n",
         "unknown key"),
        ("instance = martian n=2\nalgo = a algo=sg\n", "unknown domain"),
        ("instance = counters n=2\nalgo = a algo=dfs\n", "unknown algo"),
        ("instance = counters n=2\nalgo = a algo=sg frob=1\n",
         "unknown algo key"),
        ("algo = a algo=sg\n", "no instances"),
        ("instance = counters n=2\n", "no algorithms"),
        ("instance = counters n=2\nalgo = a algo=sg\nalgo = a algo=sa\n",
         "duplicate algorithm"),
        ("seeds =\ninstance = counters n=2\nalgo = a algo=sg\n", "seeds"),
        ("instance = file a b\nalgo = a algo=sg\n", "file <path>"),
        ("instance = counters n=2\nalgo = a rectifier=bogus\n",
         "line 2: rectifier must be"),
        ("instance = counters n=2\nalgo = a sampler=bogus\n",
         "line 2: sampler must be"),
        ("instance = counters n=2\nalgo = a heuristic=nope\n",
         "line 2: unknown algo key 'heuristic'"),
        ("instance = counters n=2\nalgo = a dup_detect=yes\n",
         "line 2: dup_detect must be"),
        ("instance = counters n=2\nalgo = a algo=mcts rectifier=qua\n",
         "line 2: rectifier does not apply"),
        ("instance = counters n=2\nalgo = a algo=sg alpha=0.9\n",
         "line 2: alpha does not apply"),
        ("instance = counters n=2\nalgo = a algo=mcts sampler=uniform\n",
         "line 2: sampler does not apply"),
        ("instance = counters n=2\nalgo = a algo=mcts beta=5\n",
         "line 2: beta does not apply"),
        ("instance = counters n=2\nalgo = a algo=mcts eps=3\n",
         "line 2: eps does not apply"),
        ("instance = counters n=2\nalgo = a algo=mcts candidates=99\n",
         "line 2: candidates does not apply"),
        ("instance = counters n=2\nalgo = a eps=0\n",
         "line 2: eps must be positive"),
        ("instance = counters n=2\nalgo = a reject_budget=0\n",
         "line 2: reject_budget must be at least 1"),
        ("instance = counters n=2\nalgo = a algo=mcts reject_budget=0\n",
         "line 2: reject_budget must be at least 1"),
        ("instance = counters n=2\nalgo = a candidates=0\n",
         "line 2: candidates must be at least 1"),
        ("time_limit = soon\ninstance = counters n=2\nalgo = a\n",
         "line 1: could not convert"),
        ("seeds = 0 x\ninstance = counters n=2\nalgo = a\n",
         "line 1: invalid literal"),
        ("workers = many\ninstance = counters n=2\nalgo = a\n",
         "line 1: invalid literal"),
        ("expansion_limit = lots\ninstance = counters n=2\nalgo = a\n",
         "line 1: invalid literal"),
        ("instance = counters n=two\nalgo = a\n", "line 1: invalid literal"),
        ("instance = counters n=2 seed=z\nalgo = a\n",
         "line 1: invalid literal"),
        ("time_limit = 0\ninstance = counters n=2\nalgo = a\n",
         "line 1: time_limit must be positive"),
        ("time_limit = -5\ninstance = counters n=2\nalgo = a\n",
         "line 1: time_limit must be positive"),
        ("time_limit = nan\ninstance = counters n=2\nalgo = a\n",
         "line 1: time_limit must be positive"),
        ("expansion_limit = 0\ninstance = counters n=2\nalgo = a\n",
         "line 1: expansion_limit must be positive"),
        ("workers = -3\ninstance = counters n=2\nalgo = a\n",
         "line 1: workers must be at least 1"),
        ("instance = counters n=2\nalgo = a rectifier=lin rectifier=log\n",
         "line 2: duplicate key 'rectifier'"),
        ("instance = counters n=2 n=5\nalgo = a\n", "line 1: duplicate key 'n'"),
        ("instance = drone grid=2 p=1 battry=1\nalgo = a\n",
         "line 1: drone takes no parameter 'battry'"),
        ("instance = counters n=2 seed\nalgo = a\n", "line 1: expected key=value"),
        ("instance = sailing b=1\nalgo = a\n", "line 1: missing parameter 'p'"),
        ("seeds = 0 0\ninstance = counters n=2 seed=1\nalgo = a\n",
         "line 1: duplicate seed 0"),
        ("instance = counters n=2\ninstance = counters n=2\n"
         "algo = a\n", "line 2: duplicate instance 'counters/n2'"),
        ("instance = sailing b=1 p=1\ninstance = counters n=2 seed=5\nalgo = a\n",
         "line 2: counters takes no layout seed"),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            load_suite(text)


class TestRunSuite:
    def test_record_count_is_full_product(self, tmp_path):
        cfg = load_suite(SMALL_SUITE)
        records = run_suite(cfg, out_dir=str(tmp_path))
        assert len(records) == 2 * 2 * 2

    def test_canonical_order(self, tmp_path):
        records = run_suite(load_suite(SMALL_SUITE), out_dir=str(tmp_path))
        keys = [(r.instance, r.algorithm, r.seed) for r in records]
        assert keys == [
            (inst, algo, seed)
            for inst in ("counters/n2-m10-u1", "counters/n3-m10-u1")
            for algo in ("sg-log-u", "sa-log-u")
            for seed in (0, 1)
        ]

    def test_csv_header_and_roundtrip(self, tmp_path):
        records = run_suite(load_suite(SMALL_SUITE), out_dir=str(tmp_path))
        path = tmp_path / "runs.csv"
        first_line = path.read_text().splitlines()[0]
        assert first_line == ",".join(CSV_HEADER)
        parsed = read_records(str(path))
        assert len(parsed) == len(records)
        for got, want in zip(parsed, records):
            assert got.instance == want.instance
            assert got.algorithm == want.algorithm
            assert got.seed == want.seed
            assert got.outcome == want.outcome
            assert got.plan_len == want.plan_len
            assert got.expansions == want.expansions
            assert got.reexp_rate == pytest.approx(want.reexp_rate, abs=1e-4)
            assert got.time_s == pytest.approx(want.time_s, abs=1e-3)

    def test_deterministic_modulo_time(self, tmp_path):
        cfg = load_suite(SMALL_SUITE)
        run_suite(cfg, out_dir=str(tmp_path / "a"))
        run_suite(cfg, out_dir=str(tmp_path / "b"))

        def strip_times(path):
            lines = path.read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert strip_times(tmp_path / "a" / "runs.csv") == \
            strip_times(tmp_path / "b" / "runs.csv")

    def test_unsolved_has_empty_plan_len(self, tmp_path):
        cfg = load_suite("expansion_limit = 1\n"
                         "instance = counters n=4 m=10 u=1\n"
                         "algo = a algo=sg sampler=uniform\n")
        records = run_suite(cfg, out_dir=str(tmp_path))
        assert records[0].outcome == "budget"
        assert records[0].plan_len is None
        row = (tmp_path / "runs.csv").read_text().splitlines()[1]
        assert ",budget,," in row

    def test_missing_file_yields_error_cells(self, tmp_path):
        cfg = load_suite("seeds = 0 1\n"
                         "instance = file /nonexistent/foo.plan\n"
                         "instance = counters n=2 m=10 u=1\n"
                         "algo = a algo=sg sampler=uniform\n")
        records = run_suite(cfg)
        assert len(records) == 4
        assert [r.outcome for r in records[:2]] == ["error", "error"]
        assert all(r.error.startswith("FileNotFoundError: ") and "/nonexistent/foo.plan"
                   in r.error for r in records[:2])
        assert all(r.outcome == "solved" and r.error == "" for r in records[2:])

    def test_unparseable_file_yields_error_cells(self, tmp_path):
        bad = tmp_path / "bad.plan"
        bad.write_text("(problem (:name broken)")
        cfg = load_suite(f"instance = file {bad}\nalgo = a algo=sg\n")
        records = run_suite(cfg)
        assert records[0].outcome == "error"
        assert records[0].instance == "file/bad"
        assert records[0].error.startswith(f"ValueError: {bad}: ")

    def test_engine_exception_gives_its_reason(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr("cvplan.harness.run_search", boom)
        cfg = load_suite("instance = counters n=2 m=10 u=1\n"
                         "algo = a algo=sg sampler=uniform\n")
        records = run_suite(cfg, out_dir=str(tmp_path))
        assert (records[0].outcome, records[0].error) == ("error", "RuntimeError: boom")
        # runs.csv keeps its documented columns
        header, row = (tmp_path / "runs.csv").read_text().splitlines()
        assert tuple(header.split(",")) == CSV_HEADER and "boom" not in row

    def test_file_instance_solves(self, tmp_path):
        from cvplan.domains import make_counters
        from cvplan.dsl import serialize_problem
        path = tmp_path / "c2.plan"
        path.write_text(serialize_problem(make_counters(2)))
        cfg = load_suite(f"instance = file {path}\n"
                         "algo = a algo=sg sampler=uniform\n")
        records = run_suite(cfg)
        assert records[0].outcome == "solved"

    def test_mcts_cell(self):
        cfg = load_suite("instance = counters n=2 m=10 u=1\n"
                         "algo = m algo=mcts\n"
                         "expansion_limit = 2000\n")
        records = run_suite(cfg)
        assert records[0].outcome == "solved"
        assert records[0].reexp_rate == 0.0

    def test_meta_file(self, tmp_path):
        cfg = load_suite(SMALL_SUITE)
        run_suite(cfg, out_dir=str(tmp_path))
        meta = dict(line.split("=", 1)
                    for line in (tmp_path / "meta.txt").read_text().splitlines())
        want = hashlib.sha256(SMALL_SUITE.encode()).hexdigest()
        assert meta["config_sha256"] == want
        assert meta["records"] == "8"
        assert meta["algorithms"] == "sg-log-u sa-log-u"

    def test_meta_file_of_suite_built_in_code(self, tmp_path):
        """A suite with no source text has no config hash."""
        source = load_suite(SMALL_SUITE)
        cfg = SuiteConfig(instances=source.instances[:1], algorithms=source.algorithms,
                          expansion_limit=4000)
        run_suite(cfg, out_dir=str(tmp_path))
        meta = (tmp_path / "meta.txt").read_text()
        assert "config_sha256" not in meta
        assert "records=2\n" in meta

    def test_progress_callback(self):
        seen = []
        cfg = load_suite("instance = counters n=2 m=10 u=1\n"
                         "algo = a algo=sg sampler=uniform\n")
        run_suite(cfg, progress=seen.append)
        assert len(seen) == 1
        assert seen[0].outcome == "solved"

    def test_worker_pool_matches_sequential(self, tmp_path):
        text = ("seeds = 0 1\ninstance = counters n=2 m=10 u=1\n"
                "algo = a algo=sg sampler=uniform\n")
        seq = run_suite(load_suite(text))
        par_cfg = load_suite(text + "workers = 2\n")
        par = run_suite(par_cfg, out_dir=str(tmp_path))
        assert [(r.instance, r.seed, r.outcome, r.plan_len) for r in seq] == \
            [(r.instance, r.seed, r.outcome, r.plan_len) for r in par]
        assert [r.csv_row() for r in read_records(str(tmp_path / "runs.csv"))] \
            == [r.csv_row() for r in par]

    def test_worker_pool_takes_problems_searched_in_process(self, monkeypatch):
        """Compiled code stays out of pickles: a workers = 2 run on problems
        already searched in this process gives the sequential run's records."""
        from cvplan.harness import InstanceSource
        text = ("seeds = 0 1\nexpansion_limit = 500\n"
                "instance = counters n=2 m=10 u=1\ninstance = sailing b=1 p=1\n"
                "algo = a algo=sg sampler=heuristic\nalgo = m algo=mcts\n")
        problems = {src.instance_id: src.load() for src in load_suite(text).instances}
        monkeypatch.setattr(InstanceSource, "load", lambda src: problems[src.instance_id])
        seq = run_suite(load_suite(text))
        par = run_suite(load_suite(text + "workers = 2\n"))
        key = [(r.instance, r.algorithm, r.seed, r.outcome, r.plan_len, r.expansions)
               for r in seq]
        assert key == [(r.instance, r.algorithm, r.seed, r.outcome, r.plan_len,
                        r.expansions) for r in par]
        assert "error" not in {r.outcome for r in seq}

    def test_importing_cvplan_loads_no_multiprocessing(self):
        """Only a suite run with workers > 1 imports the process pool."""
        script = "import sys, cvplan, cvplan.cli\nassert 'multiprocessing' not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_rejects_empty_suite(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(instances=[], algorithms=[]))


class TestCoverage:
    def test_cell_mean_over_solved_only(self):
        records = [
            make_record(reexp_rate=20.0),
            make_record(seed=1, reexp_rate=40.0),
            make_record(seed=2, outcome="timeout", plan_len=None,
                        reexp_rate=99.0),
        ]
        assert coverage_cell(records) == "2 (30.00)"

    def test_cell_empty(self):
        assert coverage_cell([]) == EMPTY_CELL
        assert coverage_cell([make_record(outcome="budget",
                                          plan_len=None)]) == EMPTY_CELL

    def test_table_fills_missing_groups(self):
        records = [
            make_record(instance="counters/a", algorithm="x"),
            make_record(instance="sailing/b", algorithm="y", reexp_rate=10.0),
        ]
        rows, cols, cells = coverage_table(records)
        assert rows == ["counters", "sailing"]
        assert cols == ["x", "y"]
        assert cells[("counters", "x")] == "1 (0.00)"
        assert cells[("counters", "y")] == EMPTY_CELL
        assert cells[("sailing", "y")] == "1 (10.00)"

    def test_csv_rendering(self):
        records = [make_record(instance="counters/a", algorithm="x")]
        text = coverage_csv(records)
        assert text.splitlines() == ["domain,x", "counters,1 (0.00)"]

    def test_other_group_keys(self):
        records = [make_record(seed=3)]
        rows, cols, cells = coverage_table(records, row_key="instance",
                                           col_key="seed")
        assert rows == ["counters/n2-m10-u1"]
        assert cols == ["3"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            coverage_table([])


class TestSurvival:
    def test_collapses_equal_times(self):
        records = [
            make_record(seed=0, time_s=1.0),
            make_record(seed=1, time_s=3.0),
            make_record(seed=2, time_s=3.0),
        ]
        assert survival_data(records) == {"a": [(1.0, 1), (3.0, 3)]}

    def test_unsolved_excluded(self):
        records = [
            make_record(time_s=1.0),
            make_record(seed=1, outcome="timeout", plan_len=None, time_s=0.5),
        ]
        assert survival_data(records) == {"a": [(1.0, 1)]}

    def test_algorithm_with_no_solves_present(self):
        records = [make_record(algorithm="z", outcome="budget",
                               plan_len=None)]
        assert survival_data(records) == {"z": []}


class TestPairwise:
    def test_both_solved_only(self):
        a = [make_record(algorithm="A", plan_len=4),
             make_record(algorithm="A", seed=1, outcome="timeout",
                         plan_len=None)]
        b = [make_record(algorithm="B", plan_len=6),
             make_record(algorithm="B", seed=1, plan_len=2)]
        rows = pairwise_compare(a, b, "plan_len")
        assert rows == [("counters/n2-m10-u1", 0, 4.0, 6.0)]

    def test_identical_sets_give_diagonal(self):
        a = [make_record(plan_len=4), make_record(seed=1, plan_len=7)]
        rows = pairwise_compare(a, a, "plan_len")
        assert all(x == y for _, _, x, y in rows)

    def test_metric_selection(self):
        a = [make_record(expansions=10, time_s=1.5)]
        b = [make_record(expansions=20, time_s=2.5)]
        assert pairwise_compare(a, b, "expansions")[0][2:] == (10.0, 20.0)
        assert pairwise_compare(a, b, "time_s")[0][2:] == (1.5, 2.5)


def test_report_csv_texts():
    """The three report tables as CSV text: CRLF rows, quoted commas."""
    records = [make_record(instance="counters/a", algorithm="x"),
               make_record(instance="counters/a", algorithm="a,b", plan_len=5,
                           reexp_rate=0.5, time_s=2.25)]
    assert coverage_csv(records) == 'domain,"a,b",x\r\ncounters,1 (0.50),1 (0.00)\r\n'
    assert survival_csv(records) == (
        'algorithm,time_s,solved\r\n"a,b",2.250,1\r\nx,1.000,1\r\n')
    assert compare_csv(records, "x", "a,b") == (
        'instance,seed,x,"a,b"\r\ncounters/a,0,3.0,5.0\r\n')


class TestBestOf:
    def test_prefers_solved_then_shortest(self):
        records = [
            make_record(algorithm="A", plan_len=9),
            make_record(algorithm="B", plan_len=4),
            make_record(algorithm="A", seed=1, outcome="timeout",
                        plan_len=None),
            make_record(algorithm="B", seed=1, plan_len=8),
        ]
        merged = best_of(records, ["A", "B"])
        by_seed = {r.seed: r for r in merged}
        assert by_seed[0].plan_len == 4
        assert by_seed[1].plan_len == 8
        assert all(r.algorithm == "best:A,B" for r in merged)

    def test_tie_breaks_by_listed_order(self):
        records = [
            make_record(algorithm="B", plan_len=4, time_s=1.0),
            make_record(algorithm="A", plan_len=4, time_s=1.0),
        ]
        merged = best_of(records, ["A", "B"], new_id="m")
        assert len(merged) == 1
        assert merged[0].time_s == records[1].time_s

    def test_ignores_unlisted_algorithms(self):
        records = [make_record(algorithm="A", plan_len=9),
                   make_record(algorithm="C", plan_len=1)]
        merged = best_of(records, ["A"])
        assert merged[0].plan_len == 9

    def test_all_unsolved_keeps_a_record(self):
        records = [make_record(algorithm="A", outcome="budget",
                               plan_len=None)]
        merged = best_of(records, ["A", "B"])
        assert len(merged) == 1
        assert merged[0].outcome == "budget"

    def test_rejects_empty_ids(self):
        with pytest.raises(ValueError):
            best_of([], [])


class TestWriteRecords:
    def test_formats(self):
        record = make_record(reexp_rate=12.34567, time_s=1.23456)
        assert record.csv_row()[-2:] == ["12.3457", "1.235"]

    def test_infinite_plan_never_written(self):
        assert not math.isinf(make_record().plan_len)

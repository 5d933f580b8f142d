import codecs
import heapq
import subprocess
import sys
from pathlib import Path

import pytest

import cvplan.search

from cvplan.cli import build_parser, config_from_args, main
from cvplan.dsl import parse_problem
from cvplan.harness import SETTINGS, load_suite, make_config
from cvplan.search import MctsConfig, SearchConfig

SUITE_CFG = """
seeds = 0
time_limit = 10
expansion_limit = 4000
instance = counters n=2 m=10 u=1
algo = sg-log algo=sg rectifier=log sampler=uniform
algo = sa-log algo=sa rectifier=log sampler=uniform
"""


@pytest.fixture
def counters_file(tmp_path):
    path = tmp_path / "c2.plan"
    assert main(["gen", "counters", "-p", "n=2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def suite_dir(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE_CFG)
    out = tmp_path / "out"
    assert main(["suite", str(cfg), "-o", str(out)]) == 0
    return str(out)


class TestGen:
    def test_stdout_roundtrips(self, capsys):
        assert main(["gen", "sailing", "-p", "b=1", "-p", "p=1"]) == 0
        problem, diags = parse_problem(capsys.readouterr().out)
        assert problem is not None
        assert problem.name == "sailing-1-1"

    def test_seed_changes_layout(self, capsys):
        main(["gen", "drone", "-p", "grid=4", "-p", "p=2", "--seed", "0"])
        first = capsys.readouterr().out
        main(["gen", "drone", "-p", "grid=4", "-p", "p=2", "--seed", "1"])
        assert capsys.readouterr().out != first

    def test_missing_param(self, capsys):
        assert main(["gen", "counters"]) == 2
        assert "missing parameter" in capsys.readouterr().err

    def test_bad_param_syntax(self, capsys):
        assert main(["gen", "counters", "-p", "n2"]) == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("params,fragment", [
        (["n=3", "n=4"], "duplicate key 'n'"),
        (["n=3", "k=1"], "counters takes no parameter 'k'"),
    ])
    def test_refused_params(self, capsys, params, fragment):
        argv = ["gen", "counters"]
        for param in params:
            argv += ["-p", param]
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("domain,params,key", [
        ("counters", ["n=2"], "m"),
        ("blockgrouping", ["b=2", "g=1"], "grid"),
        ("drone", ["grid=2", "p=1"], "battery"),
    ])
    def test_param_beyond_float_range(self, capsys, domain, params, key):
        argv = ["gen", domain]
        for param in params + [f"{key}={'9' * 400}"]:
            argv += ["-p", param]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: {domain} parameter {key!r} is beyond the float range\n"

    def test_stray_seed(self, capsys):
        assert main(["gen", "counters", "-p", "n=2", "--seed", "5"]) == 2
        assert "counters takes no layout seed" in capsys.readouterr().err

    def test_non_integer_param(self, capsys):
        assert main(["gen", "counters", "-p", "n=two"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_unknown_domain_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["gen", "towers"])

    def test_generator_value_error_reported(self, capsys):
        assert main(["gen", "counters", "-p", "n=0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "f.txt"
        assert main(["gen", "counters", "-p", "n=3", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSolve:
    def test_solved_prints_plan(self, counters_file, capsys):
        code = main(["solve", counters_file, "--algo", "sg",
                     "--sampler", "uniform", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("plan length=")
        assert "outcome=solved" in captured.err

    def test_budget_exit_code(self, counters_file, capsys):
        code = main(["solve", counters_file, "--expansion-limit", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "outcome=budget" in captured.err

    def test_mcts(self, counters_file, capsys):
        code = main(["solve", counters_file, "--algo", "mcts",
                     "--expansion-limit", "2000"])
        assert code == 0
        assert capsys.readouterr().out.startswith("plan length=")

    def test_mcts_cap_beyond_float_range(self, tmp_path, capsys):
        path = str(tmp_path / "c6.plan")
        assert main(["gen", "counters", "-p", "n=6", "-o", path]) == 0
        code = main(["solve", path, "--algo", "mcts", "--k", "1e308",
                     "--expansion-limit", "500"])
        assert code == 1
        assert "outcome=budget expansions=500" in capsys.readouterr().err

    def test_assertions_flag(self, counters_file):
        assert main(["solve", counters_file, "--assert", "on"]) == 0

    @pytest.mark.parametrize("mode", ["sg", "sa"])
    def test_assertions_flag_reports_a_broken_open_list(
            self, counters_file, capsys, monkeypatch, mode):
        def pop_largest(open_list):
            f = max(open_list._buckets)
            head, uids = open_list._buckets[f]
            uid = uids.pop()
            if len(uids) == head:
                del open_list._buckets[f]
                open_list._fs.remove(f)
                heapq.heapify(open_list._fs)
            return uid

        monkeypatch.setattr(cvplan.search.OpenList, "pop", pop_largest)
        code = main(["solve", counters_file, "--algo", mode, "--assert", "on",
                     "--expansion-limit", "200"])
        captured = capsys.readouterr()
        assert code == 1
        assert "invariant:" in captured.err
        assert captured.out == ""

    def test_abbreviated_flags(self, counters_file):
        assert main(["solve", counters_file, "--rect", "log", "--cand", "5",
                     "--assert", "on"]) == 0

    @pytest.mark.parametrize("flags", [
        ["--rect", "bogus"],
        ["--sampler", "bogus"],
        ["--dup-detect", "yes"],
        ["--beta", "steep"],
        ["--algo", "mcts", "--rect", "qua"],
        ["--algo", "sg", "--alpha", "0.9"],
        ["--algo", "mcts", "--sampler", "heuristic"],
        ["--algo", "mcts", "--assert", "on"],
        ["--time-limit", "0"],
        ["--algo", "mcts", "--sampler", "uniform"],
        ["--algo", "mcts", "--beta", "5"],
        ["--algo", "mcts", "--eps", "3"],
        ["--algo", "mcts", "--candidates", "99"],
        ["--eps", "0"],
        ["--reject-budget", "0"],
        ["--algo", "mcts", "--reject-budget", "0"],
        ["--candidates", "0"],
        ["--eps", "inf"],
        ["--beta", "nan"],
        ["--algo", "mcts", "--k", "inf"],
        ["--algo", "mcts", "--expansion-limit", "0"],
        ["--algo", "mcts", "--expansion-limit", "-3"],
        ["--expansion-limit", "0"],
        ["--algo", "sa", "--expansion-limit", "-1"],
    ])
    def test_bad_algo_settings(self, counters_file, capsys, flags):
        assert main(["solve", counters_file] + flags) == 2
        err = capsys.readouterr().err
        assert "error" in err
        if "--expansion-limit" in flags:
            # the suite key the flag sets, for every algorithm
            assert "error: expansion_limit must be positive" in err

    def test_systematic_without_grid(self, counters_file):
        assert main(["solve", counters_file, "--sampler", "systematic",
                     "--grid-digits", "0"]) == 0

    @pytest.mark.parametrize("domain,flags", [
        (["counters", "-p", "n=2"], ["--sampler", "heuristic", "--beta", "60"]),
        (["counters", "-p", "n=2"], ["--sampler", "heuristic", "--beta", "-60"]),
        (["counters", "-p", "n=2"], ["--grid-digits", "400"]),
        (["sailing", "-p", "b=1", "-p", "p=1"], ["--grid-digits", "308"]),
    ])
    def test_extreme_sampler_settings_run(self, tmp_path, domain, flags):
        # sampler weights and snapped values must stay within the float range
        path = str(tmp_path / "p.plan")
        assert main(["gen"] + domain + ["-o", path]) == 0
        assert main(["solve", path, "--expansion-limit", "300"] + flags) in (0, 1)

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent.plan"]) == 2
        assert "error" in capsys.readouterr().err

    def test_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.plan"
        bad.write_bytes(b"\xff\xfe(problem")
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.plan"
        bad.write_text("(problem")
        assert main(["solve", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.plan"
        bad.write_text(
            "(problem p (bools) (nums (x 0)) (controls (u 5 1)) "
            "(action a (pre (> x 0)) (eff)) (goal (> x 0)))")
        assert main(["solve", str(bad)]) == 2
        assert "lower bound" in capsys.readouterr().err


class TestByteOrderMark:
    """Problem files, suite configs and runs.csv files saved as UTF-8 with
    a byte-order mark read as they do without one."""

    def test_problem_file(self, counters_file, capsys):
        path = Path(counters_file)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert main(["solve", counters_file, "--expansion-limit", "20000"]) == 0
        assert "plan length=" in capsys.readouterr().out

    def test_suite_config(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(SUITE_CFG, encoding="utf-8-sig")
        assert main(["suite", str(cfg), "-o", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "runs.csv").exists()

    def test_runs_csv(self, suite_dir, capsys):
        main(["report", suite_dir, "--table"])
        table = capsys.readouterr().out
        runs = Path(suite_dir) / "runs.csv"
        runs.write_bytes(codecs.BOM_UTF8 + runs.read_bytes())
        assert main(["report", suite_dir, "--table"]) == 0
        assert capsys.readouterr().out == table


#: a value other than the engine default for every algorithm setting
NON_DEFAULT = {
    "rectifier": "qua", "dup_detect": "off", "sampler": "heuristic",
    "beta": "2.5", "eps": "0.01", "candidates": "5", "grid_digits": "2",
    "reject_budget": "50", "alpha": "0.5", "k": "2", "c": "1.0",
    "rollout_depth": "20",
}


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_suite_key_and_flag_set_the_same_config(key):
    # every algo whose config has the key's field
    algos = [algo for algo, engine in (("sa", SearchConfig), ("mcts", MctsConfig))
             if hasattr(engine, SETTINGS[key].field)]
    assert algos
    value = NON_DEFAULT[key]
    for algo in algos:
        suite = load_suite(f"instance = counters n=2\n"
                           f"algo = a algo={algo} {key}={value}\n")
        args = build_parser().parse_args(
            ["solve", "p.plan", "--algo", algo, "--" + key.replace("_", "-"),
             value])
        assert config_from_args(args) == suite.algorithms[0].config
        assert config_from_args(args) != make_config(algo, {})


class TestSuite:
    def test_outputs_exist(self, suite_dir, tmp_path):
        assert (tmp_path / "out" / "runs.csv").exists()
        assert (tmp_path / "out" / "meta.txt").exists()

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("nonsense\n")
        assert main(["suite", str(cfg), "-o", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        assert main(["suite", str(tmp_path / "nope.cfg"),
                     "-o", str(tmp_path / "o")]) == 2

    def test_output_under_a_file(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(SUITE_CFG)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["suite", str(cfg), "-o", str(afile / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_progress_line_gives_the_error_reason(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"instance = file {tmp_path / 'gone.plan'}\n"
                       "algo = a algo=sg\n")
        assert main(["suite", str(cfg), "-o", str(tmp_path / "o")]) == 0
        assert "file/gone a seed=0 -> error (FileNotFoundError: " in capsys.readouterr().err

    def test_workers_flag(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(SUITE_CFG)
        out = tmp_path / "out2"
        assert main(["suite", str(cfg), "-o", str(out),
                     "--workers", "2"]) == 0
        assert (out / "runs.csv").exists()

    def test_workers_below_one(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(SUITE_CFG)
        out = tmp_path / "out"
        assert main(["suite", str(cfg), "-o", str(out), "--workers", "0"]) == 2
        assert capsys.readouterr().err == "error: workers must be at least 1\n"
        assert not out.exists()


class TestReport:
    def test_table(self, suite_dir, capsys):
        assert main(["report", suite_dir, "--table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "domain,sa-log,sg-log"
        assert lines[1].startswith("counters,")

    def test_table_instance_rows(self, suite_dir, capsys):
        assert main(["report", suite_dir, "--table", "--row",
                     "instance"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(
            "counters/n2-m10-u1,")

    def test_survival(self, suite_dir, capsys):
        assert main(["report", suite_dir, "--survival"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "algorithm,time_s,solved"
        assert len(lines) >= 3

    def test_compare(self, suite_dir, capsys):
        assert main(["report", suite_dir, "--compare", "sg-log", "sa-log",
                     "--metric", "expansions"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "instance,seed,sg-log,sa-log"
        assert len(lines) == 2

    def test_best_of(self, suite_dir, capsys):
        assert main(["report", suite_dir, "--table",
                     "--best-of", "sg-log,sa-log"]) == 0
        assert "best:sg-log,sa-log" in capsys.readouterr().out

    def test_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "void"), "--table"]) == 2

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(",seed,", ",run,", 1),
        lambda text: text.replace(",0,", ",zero,", 1),
        lambda text: text.rsplit(",", 2)[0] + "\n",
    ], ids=["no-seed-column", "non-integer-seed", "short-row"])
    def test_malformed_runs_csv(self, suite_dir, capsys, edit):
        runs = f"{suite_dir}/runs.csv"
        with open(runs, encoding="utf-8") as fh:
            text = fh.read()
        with open(runs, "w", encoding="utf-8") as fh:
            fh.write(edit(text))
        capsys.readouterr()
        assert main(["report", suite_dir, "--table"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_requires_exactly_one_view(self, suite_dir):
        with pytest.raises(SystemExit):
            main(["report", suite_dir])

    @pytest.mark.parametrize("flags", [
        ["--compare", "nope", "sa-log"], ["--compare", "sg-log", "nope"],
        ["--table", "--best-of", "nope"], ["--table", "--best-of", "sa-log,nope"],
        ["--compare", "best:sa-log,nope", "sa-log", "--best-of", "sa-log,nope"],
    ], ids=["compare-first", "compare-second", "best-of-alone", "best-of-listed",
            "compare-best-of"])
    def test_unknown_algorithm_is_an_error(self, suite_dir, capsys, flags):
        capsys.readouterr()
        assert main(["report", suite_dir, *flags]) == 2
        assert capsys.readouterr() == (
            "", f"error: no runs of algorithm 'nope' in {suite_dir}/runs.csv\n")

    def test_compare_a_best_of_column(self, suite_dir, capsys):
        assert main(["report", suite_dir, "--compare", "best:sg-log,sa-log", "sa-log",
                     "--best-of", "sg-log,sa-log"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == 'instance,seed,"best:sg-log,sa-log",sa-log'
        assert len(lines) == 2


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cvplan.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout
        assert "suite" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_every_export_resolves(self):
        # a stale name in __all__ makes `from cvplan import *` raise
        assert [name for name in cvplan.__all__
                if not hasattr(cvplan, name)] == []

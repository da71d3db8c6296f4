"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import csv
import io
import json

import pytest

from repro.__main__ import build_parser, main
from repro.analysis.report import CSV_HEADER
from repro.engine import available_engines
from repro.exec import DEFAULT_SHARD_SIZE


def study_run(tmp_path, *argv):
    """``study run`` argv against a per-test store (never results/store)."""
    return ["study", "run", *argv, "--store", str(tmp_path / "store")]


class TestParser:
    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "run", "table9"])

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [["run", "fig1"], ["list"]])
    def test_removed_top_level_commands_are_invalid_choices(self, argv, capsys):
        # `study run` and `study list` are the only way to run or list
        # the experiments.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["study", "run"], ["serve"]])
    def test_help_shows_the_default_shard_width(self, command, capsys, monkeypatch):
        # The width is generated from the planner's constant, so it cannot
        # go stale when the constant changes.
        for width in (DEFAULT_SHARD_SIZE, 777):
            monkeypatch.setattr("repro.__main__.DEFAULT_SHARD_SIZE", width)
            with pytest.raises(SystemExit):
                main([*command, "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            assert f"of at most {width} runs" in help_text


def _commands(parser, prefix=()):
    """(path, parser) of every command in a parser tree, walked through its
    subparser actions, so a new command is covered without editing a test."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, command in action.choices.items():
                yield (*prefix, name), command
                yield from _commands(command, (*prefix, name))


FULL_TREE_PATHS = [path for path, _ in _commands(build_parser())]


def _exit(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that must end in SystemExit."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


class TestPrunedParser:
    """``main`` adds arguments only to the leaf its argv selects; what it
    prints must be the full ``build_parser()`` tree's, for every path."""

    def test_walk_reaches_nested_commands(self):
        assert {("engines",), ("study", "run"), ("query", "runs")} <= set(FULL_TREE_PATHS)

    @pytest.mark.parametrize(
        "path", FULL_TREE_PATHS, ids=[" ".join(path) for path in FULL_TREE_PATHS]
    )
    def test_help_and_errors_match_the_full_tree(self, path, capsys):
        full = build_parser().parse_args
        for argv in ([*path, "--help"], [*path, "--no-such-flag"]):
            assert _exit(main, argv, capsys) == _exit(full, argv, capsys), argv

    @pytest.mark.parametrize(
        "argv",
        [["--help"], [], ["stduy"], ["study", "rn"], ["query", "runs", "--where"],
         ["study", "run", "table9"], ["--", "study"], ["study", "-5", "run"]],
    )
    def test_top_level_and_unknown_commands_match_the_full_tree(self, argv, capsys):
        full = build_parser().parse_args
        assert _exit(main, argv, capsys) == _exit(full, argv, capsys)

    def test_only_the_selected_path_is_built(self):
        def with_arguments(parser):
            return {
                path
                for path, command in _commands(parser)
                if any(action.dest != "help" for action in command._actions)
            }

        pruned = build_parser(["study", "run", "fig5"])
        paths = {path for path, _ in _commands(pruned)}
        # Every top-level name, the study subcommands, nothing further down.
        assert {path for path in paths if len(path) == 1} == {
            path for path in FULL_TREE_PATHS if len(path) == 1
        }
        assert {path for path in paths if len(path) == 2} == {
            ("study", "list"), ("study", "run"), ("study", "compare"), ("study", "clean")
        }
        assert with_arguments(pruned) == {("study",), ("study", "run")}
        assert with_arguments(build_parser()) > with_arguments(pruned)


class TestRun:
    def test_run_table1(self, tmp_path, capsys):
        assert main(study_run(tmp_path, "table1")) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "finished" in output

    def test_run_fig1_with_small_campaign(self, tmp_path, capsys):
        assert main(
            study_run(tmp_path, "fig1", "--runs", "40", "--scale", "0.25", "--seed", "7")
        ) == 0
        output = capsys.readouterr().out
        assert "pWCET" in output

    def test_run_ablation_replacement_small(self, tmp_path, capsys):
        assert main(
            study_run(tmp_path, "ablation_repl", "--runs", "25", "--scale", "0.25")
        ) == 0
        assert "placement x replacement" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", ["0", "nan"])
    def test_study_run_rejects_unusable_scale(self, tmp_path, capsys, scale):
        argv = study_run(tmp_path, "fig4a", "--runs", "24", "--scale", scale)
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: --scale must be a finite number > 0")
        assert error.count("\n") == 1
        assert not (tmp_path / "store").exists()


class TestEngineSelection:
    def test_engine_choices_come_from_registry(self):
        parser = build_parser()
        args = parser.parse_args(["study", "run", "fig5", "--engine", "numpy"])
        assert args.engine == "numpy"
        assert available_engines() == ("numpy", "reference")

    def test_unregistered_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "run", "fig5", "--engine", "warp"])

    def test_run_with_numpy_engine(self, tmp_path, capsys):
        assert main(
            study_run(tmp_path, "fig5", "--runs", "20", "--scale", "0.25",
                      "--engine", "numpy")
        ) == 0
        assert "pWCET" in capsys.readouterr().out

    def test_retired_engines_fail_up_front_naming_registered_ones(
        self, tmp_path, capsys
    ):
        # A usage error (exit 2) before any campaign, naming the engines
        # that do exist.
        for name in ("fast", "jit"):
            with pytest.raises(SystemExit) as excinfo:
                main(study_run(tmp_path, "fig5", "--runs", "20", "--engine", name))
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "numpy" in err and "reference" in err
        assert not (tmp_path / "store").exists()


class TestEnginesCommand:
    def test_engines_matrix_lists_every_registered_engine(self, capsys):
        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        for name in available_engines():
            assert name in output
        assert "bit-exact" in output


class TestEstimatorSelection:
    def test_estimator_choices_come_from_registry(self):
        from repro.pwcet import available_estimators

        parser = build_parser()
        args = parser.parse_args(["study", "run", "fig5", "--estimator", "gumbel-mle"])
        assert args.estimator == "gumbel-mle"
        assert set(available_estimators()) >= {
            "gumbel-pwm",
            "gumbel-mle",
            "exponential-excess",
        }

    def test_unregistered_estimator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "run", "fig5", "--estimator", "weibull"])

    def test_run_with_exponential_excess(self, tmp_path, capsys):
        assert main(
            study_run(tmp_path, "fig5", "--runs", "20", "--scale", "0.25",
                      "--estimator", "exponential-excess")
        ) == 0
        assert "pWCET" in capsys.readouterr().out


class TestPwcetCommand:
    def test_pwcet_list(self, capsys):
        assert main(["pwcet", "list"]) == 0
        output = capsys.readouterr().out
        assert "gumbel-pwm" in output
        assert "peaks-over-threshold" in output

    def test_pwcet_compare(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["pwcet", "compare", "fig5", "--runs", "24", "--scale", "0.25",
             "--store", store]
        ) == 0
        output = capsys.readouterr().out
        assert "pWCET estimator comparison" in output
        assert "pWCET gumbel-pwm" in output
        assert "pWCET exponential-excess" in output

    def test_pwcet_compare_subset_with_bootstrap(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["pwcet", "compare", "fig5", "--runs", "24", "--scale", "0.25",
             "--store", store, "--estimators", "gumbel-pwm", "--bootstrap", "20"]
        ) == 0
        output = capsys.readouterr().out
        assert "pWCET gumbel-pwm" in output
        assert "gumbel-mle" not in output
        assert "[" in output  # confidence interval rendered

    def test_pwcet_compare_rejects_tiny_campaign(self, capsys):
        assert main(["pwcet", "compare", "fig5", "--runs", "8"]) == 2
        assert "at least" in capsys.readouterr().err

    def test_pwcet_compare_honors_singular_estimator_flag(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["pwcet", "compare", "fig5", "--runs", "24", "--scale", "0.25",
             "--store", store, "--estimator", "gumbel-mle"]
        ) == 0
        output = capsys.readouterr().out
        assert "pWCET gumbel-mle" in output
        assert "gumbel-pwm" not in output


class TestShardedExecution:
    def test_study_run_sharded_and_resume_hits_cache(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["study", "run", "fig5", "--runs", "24", "--scale", "0.25",
             "--store", store, "--shard-size", "6", "--jobs", "2"]
        ) == 0
        first = capsys.readouterr().out
        assert "shards executed" in first
        assert main(
            ["study", "run", "fig5", "--runs", "24", "--scale", "0.25",
             "--store", store, "--shard-size", "6"]
        ) == 0
        assert "full cache hit" in capsys.readouterr().out

    def test_invalid_shard_size_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["study", "run", "fig5", "--runs", "24",
                 "--store", str(tmp_path / "s"), "--shard-size", "0"]
            )

    def test_worker_drains_queue_and_exec_status_reports(self, tmp_path, capsys):
        from repro.exec import FileQueue, plan_shards, shard_task
        from repro.study.scenario import HierarchySpec, Scenario, WorkloadSpec
        from repro.study.store import ResultStore

        scenario = Scenario(
            workload=WorkloadSpec.synthetic(4 * 1024, 2),
            hierarchy=HierarchySpec(setup="rm", with_l2=False),
            runs=8,
            master_seed=5,
        )
        store = ResultStore(tmp_path / "store")
        queue = FileQueue(store.queue_root)
        for shard in plan_shards(scenario.spec_hash(), scenario.runs, 4):
            queue.enqueue(shard_task(scenario, shard, scenario.engine))
        assert main(
            ["worker", "--store", str(store.root), "--worker-id", "cli-test",
             "--max-shards", "2"]
        ) == 0
        assert "2 shard(s) executed" in capsys.readouterr().out
        assert len(store.shard_keys(scenario.spec_hash())) == 2
        assert main(["exec", "status", "--store", str(store.root)]) == 0
        status = capsys.readouterr().out
        assert "cli-test" in status
        assert "published" in status

    @pytest.mark.parametrize("ttl", ["0", "-5", "nan", "inf"])
    def test_worker_rejects_an_unusable_lease_ttl(self, tmp_path, capsys, ttl):
        # A TTL <= 0 writes leases already expired (a live owner's shard is
        # taken over and runs twice); a NaN or infinite one never expires.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--store", str(store), "--lease-ttl", ttl])
        assert excinfo.value.code == 2
        assert "--lease-ttl must be a positive, finite number" in capsys.readouterr().err
        assert not store.exists()

    def test_worker_rejects_a_missing_store(self, tmp_path, capsys):
        # A mistyped store would drain nothing and report success.
        store = tmp_path / "no-such-store"
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--store", str(store)])
        assert excinfo.value.code == 2
        assert f"--store {store} is not a directory" in capsys.readouterr().err
        assert not store.exists()

    def test_clean_analyses_only_preserves_campaigns(self, tmp_path, capsys):
        from repro.study.store import ResultStore

        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        store.save_analysis("aaa", "cfg", {"v": 1})
        assert main(["study", "clean", "--analyses-only", "--store", store_dir]) == 0
        assert "1 analysis entries" in capsys.readouterr().out
        assert store.load_analysis("aaa", "cfg") is None

    def test_clean_older_than_sweeps_by_age(self, tmp_path, capsys):
        import os
        import time

        from repro.study.store import ResultStore

        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("aaa", "00000000x000004", {"version": 1})
        old = time.time() - 8 * 86400
        path = store.analysis_path_for("aaa", "cfg")
        os.utime(path, (old, old))
        assert main(["study", "clean", "--older-than", "7d", "--store", store_dir]) == 0
        assert "swept 1" in capsys.readouterr().out
        assert store.load_analysis("aaa", "cfg") is None
        assert store.load_shard("aaa", "00000000x000004") is not None

    def test_clean_rejects_bad_age(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["study", "clean", "--older-than", "soon",
                  "--store", str(tmp_path / "s")])

    @pytest.mark.parametrize(
        "argv",
        [["study", "clean", "--older-than", "nan", "--dry-run"],
         ["serve", "--gc-age", "nan"]],
        ids=["clean", "serve"],
    )
    def test_nan_age_exits_2(self, tmp_path, argv, monkeypatch):
        from repro.service.api.server import ReproServer

        def run(server, quiet=False):
            raise AssertionError("serve started with a NaN --gc-age")

        monkeypatch.setattr(ReproServer, "run", run)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--store", str(tmp_path / "s")])
        assert excinfo.value.code == 2


class TestOutputFormats:
    def test_json_format_is_parseable_and_self_identifying(self, tmp_path, capsys):
        assert main(study_run(tmp_path, "table1", "--format", "json")) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["experiment"] == "table1"
        assert "asic" in payload["result"]
        # Progress chatter moves to stderr so stdout stays machine-readable.
        assert "finished" in captured.err
        assert "finished" not in captured.out

    def test_csv_format_emits_header_and_rows(self, tmp_path, capsys):
        assert main(study_run(tmp_path, "table1", "--format", "csv")) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        assert rows, "expected at least one data row"
        assert all(row[0] == "table1" and len(row) == 3 for row in rows)

    def test_text_format_is_default(self, tmp_path, capsys):
        assert main(study_run(tmp_path, "table1")) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "finished" in out

    def test_json_format_surfaces_discarded_runs(self, tmp_path, capsys):
        # 25 runs -> effective block size 2 -> one trailing run is discarded
        # by block-maxima grouping, and --format json must say so.
        assert main(
            study_run(tmp_path, "fig1", "--runs", "25", "--scale", "0.25",
                      "--format", "json")
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        analysis = payload["analysis"]
        assert analysis["a2time/rm"]["discarded_runs"] == 1.0
        assert analysis["a2time/rm"]["estimator"] == "gumbel-pwm"

    def test_json_format_analysis_follows_estimator(self, tmp_path, capsys):
        assert main(
            study_run(tmp_path, "fig5", "--runs", "24", "--scale", "0.25",
                      "--estimator", "exponential-excess", "--format", "json")
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        estimators = {
            entry["estimator"] for entry in payload["analysis"].values()
        }
        assert estimators == {"exponential-excess"}
        for entry in payload["analysis"].values():
            assert entry["discarded_runs"] == 0.0


class TestExecStatusFormats:
    def _seed_queue(self, tmp_path):
        from repro.exec import FileQueue, plan_shards, shard_task
        from repro.study.scenario import HierarchySpec, Scenario, WorkloadSpec
        from repro.study.store import ResultStore

        scenario = Scenario(
            workload=WorkloadSpec.synthetic(4 * 1024, 2),
            hierarchy=HierarchySpec(setup="rm", with_l2=False),
            runs=8,
            master_seed=5,
        )
        store = ResultStore(tmp_path / "store")
        queue = FileQueue(store.queue_root)
        for shard in plan_shards(scenario.spec_hash(), scenario.runs, 4):
            queue.enqueue(shard_task(scenario, shard, scenario.engine))
        return scenario, store

    def test_json_format_is_parseable_and_matches_snapshot(
        self, tmp_path, capsys
    ):
        from repro.exec.status import exec_status_snapshot

        scenario, store = self._seed_queue(tmp_path)
        assert main(
            ["worker", "--store", str(store.root), "--worker-id", "cli-json"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["exec", "status", "--store", str(store.root), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        local = exec_status_snapshot(store)
        assert payload["queue_root"] == local["queue_root"]
        assert payload["totals"] == local["totals"]
        assert payload["specs"] == local["specs"]
        # Worker telemetry carries the engine name (the heartbeat ages
        # differ between the two calls, so compare fields).  The scenario
        # names no engine, so this pins the default end to end.
        [worker] = payload["workers"]
        assert worker["owner"] == "cli-json"
        assert worker["engine"] == "numpy"

    def test_text_format_shows_the_engine_column(self, tmp_path, capsys):
        scenario, store = self._seed_queue(tmp_path)
        assert main(
            ["worker", "--store", str(store.root), "--worker-id", "cli-text"]
        ) == 0
        capsys.readouterr()
        assert main(["exec", "status", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "engine" in out
        assert "numpy" in out


class TestCleanDryRun:
    def test_dry_run_sweep_lists_without_deleting(self, tmp_path, capsys):
        from repro.study.store import ResultStore

        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        assert main(
            ["study", "clean", "--older-than", "0s", "--dry-run",
             "--store", store_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "dry run: would sweep 2 derived entries" in out
        assert "aaa" in out and "bbb" in out
        assert store.load_analysis("aaa", "cfg") is not None
        assert store.load_shard("bbb", "00000000x000004") is not None

    def test_dry_run_analyses_only_scopes_the_plan(self, tmp_path, capsys):
        from repro.study.store import ResultStore

        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        assert main(
            ["study", "clean", "--analyses-only", "--dry-run",
             "--store", store_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 1 analysis entries" in out
        assert "bbb" not in out
        assert store.load_analysis("aaa", "cfg") is not None

    def test_dry_run_full_clear_counts_like_clear(self, tmp_path, capsys):
        from repro.study.store import ResultStore

        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        assert main(
            ["study", "clean", "--dry-run", "--store", store_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 2 stored result(s)" in out
        # Nothing was deleted by the dry run; the real clear agrees on 2.
        assert main(["study", "clean", "--store", store_dir]) == 0
        assert "removed 2 stored result(s)" in capsys.readouterr().out

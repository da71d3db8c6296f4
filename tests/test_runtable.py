"""The run-table query engine (repro.study.runtable + ``repro query``).

The store is the source of truth; what these tests certify is the *join*:
every stored campaign (its published lane ranges) becomes a row (one per
analysis, a bare row without),
study provenance labels rows, every build reads the store afresh (a new
analysis shows up in the next build), filters and restricted ``where``
predicates behave, exports stay consistent with the shared formatter, and
the ``repro query`` CLI is a thin shell over all of it.
"""

import json

import pytest
from conftest import publish_range

from repro.__main__ import main
from repro.study import (
    HierarchySpec,
    ResultStore,
    RunTable,
    Scenario,
    WorkloadSpec,
    build_run_table,
)
from repro.study import runtable as runtable_module


def scenario_for(setup="rm", seed=99, runs=24):
    return Scenario(
        workload=WorkloadSpec.synthetic(4 * 1024, iterations=2),
        hierarchy=HierarchySpec.named(setup),
        runs=runs,
        master_seed=seed,
    )


def analysis_payload(estimator="gumbel", passed=True, pwcet=None):
    verdict = {"passed": passed, "statistic": 0.1, "threshold": 0.5}
    return {
        "version": 1,
        "estimator": estimator,
        "config": {"block_size": 20},
        "fit": {"location": 1.0, "scale": 2.0},
        "block_size": 20,
        "discarded_runs": 0,
        "assessment": {
            "independence": dict(verdict),
            "identical_distribution": dict(verdict),
            "gumbel_convergence": dict(verdict),
        },
        "pwcet": pwcet or {"1e-12": 1500.0, "1e-15": 1800.0},
        "pwcet_ci": {},
    }


def populate(store, setups=("rm", "hrp"), with_analyses=True):
    """Entries for each setup (+ analyses + provenance); returns spec hashes."""
    hashes = {}
    for index, setup in enumerate(setups):
        scenario = scenario_for(setup=setup, seed=100 + index)
        times = [1000 + 13 * i + 100 * index for i in range(scenario.runs)]
        # IL1 misses per main-memory access: 0.1 * (index + 1).
        counters = {
            "il1_misses": [index + 1] * scenario.runs,
            "dl1_misses": [0] * scenario.runs,
            "l2_misses": [0] * scenario.runs,
            "memory_accesses": [10] * scenario.runs,
        }
        publish_range(store, scenario, times, counters=counters, setup=setup)
        spec_hash = scenario.spec_hash()
        if with_analyses:
            store.save_analysis(
                spec_hash,
                f"a{index}",
                analysis_payload(pwcet={"1e-12": 1500.0 + index, "1e-15": 1800.0 + index}),
            )
        store.record_study("smoke", [spec_hash])
        hashes[setup] = spec_hash
    return hashes


class TestBuild:
    def test_one_row_per_analysis_with_campaign_statistics(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        hashes = populate(store, setups=("rm",))
        table = build_run_table(store)
        assert len(table.rows) == 1
        (row,) = table.rows
        assert row["study"] == "smoke"
        assert row["workload"] == "synthetic_4KB"
        assert row["setup"] == "rm"
        assert row["estimator"] == "gumbel"
        assert row["admitted"] is True
        assert row["spec_hash"] == hashes["rm"]
        assert row["analysis_hash"] == "a0"
        times = [1000 + 13 * i for i in range(24)]
        assert row["mean_cycles"] == sum(times) / len(times)
        assert row["max_cycles"] == max(times)
        assert row["il1_miss_rate"] == pytest.approx(0.1)
        assert row["pwcet"] == {"1e-12": 1500.0, "1e-15": 1800.0}

    def test_entry_without_analysis_gets_a_bare_row(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store, setups=("rm",), with_analyses=False)
        (row,) = build_run_table(store).rows
        assert row["estimator"] == ""
        assert row["admitted"] is None
        assert row["pwcet"] == {}

    def test_multiple_analyses_fan_out_to_multiple_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        hashes = populate(store, setups=("rm",))
        store.save_analysis(
            hashes["rm"], "b0", analysis_payload(estimator="exponential", passed=False)
        )
        table = build_run_table(store)
        # Rows sort by estimator within a spec: exponential before gumbel.
        assert [row["analysis_hash"] for row in table.rows] == ["b0", "a0"]
        by_hash = {row["analysis_hash"]: row for row in table.rows}
        assert by_hash["b0"]["estimator"] == "exponential"
        assert by_hash["b0"]["admitted"] is False

    def test_probabilities_are_sorted_most_extreme_last(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store)
        assert build_run_table(store).probabilities() == ["1e-12", "1e-15"]

    def test_study_provenance_is_one_marker_file_per_pair(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first, second = "a" * 64, "b" * 64
        store.record_study("fig5", [first, second])
        store.record_study("fig4a", [second])
        assert store.study_index() == {first: ["fig5"], second: ["fig4a", "fig5"]}
        markers = sorted(store.study_root.rglob("*"))
        assert [path.relative_to(store.study_root).as_posix() for path in markers] == [
            "fig4a", f"fig4a/{second}", "fig5", f"fig5/{first}", f"fig5/{second}",
        ]
        assert all(path.stat().st_size == 0 for path in markers if path.is_file())
        assert not (store.root / "studies.log").exists()

    def test_a_second_record_study_creates_and_changes_no_file(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record_study("fig5", ["a" * 64, "b" * 64])

        def state():
            return {
                path: (stat.st_ino, stat.st_mtime_ns)
                for path in store.root.rglob("*")
                for stat in [path.stat()]
            }

        before = state()
        store.record_study("fig5", ["b" * 64, "a" * 64])
        store.record_study("fig5", [])
        assert state() == before

    def test_study_names_that_are_not_one_directory_name_are_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for name in ("", ".", "..", "../x", "a/b", "a\0b"):
            with pytest.raises(ValueError, match="one directory name"):
                store.record_study(name, ["a" * 64])
        assert not (tmp_path / "x").exists() and not store.root.exists()

    def test_new_analysis_appears_in_the_next_build(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        hashes = populate(store)
        build_run_table(store)
        store.save_analysis(hashes["rm"], "zz", analysis_payload(estimator="weibull"))
        table = build_run_table(store)
        estimators = {row["analysis_hash"]: row["estimator"] for row in table.rows}
        assert estimators["zz"] == "weibull"

    def test_labels_come_from_the_stored_spec_without_rebuilding_it(
        self, tmp_path, monkeypatch
    ):
        # The labels are computed from the entry's spec dict, so the build
        # constructs no spec, and a spec this version could no longer
        # rebuild (a policy that is gone) still gets its labels.
        store = ResultStore(tmp_path / "store")
        custom = Scenario(
            workload=WorkloadSpec.eembc("a2time", scale=0.25),
            hierarchy=HierarchySpec.custom(l1_placement="hrp", l1_replacement="lru"),
            runs=24,
        )
        scenarios = [scenario_for(), scenario_for(setup="modulo"), custom]
        for scenario in scenarios:
            publish_range(store, scenario, [1000] * 24)
        gone = scenario_for(setup="hrp")
        meta = gone.spec_dict()
        meta["hierarchy"]["setup"] = "xor"
        monkeypatch.setattr(type(gone), "spec_dict", lambda self: meta)
        publish_range(store, gone, [1000] * 24, setup="s")
        monkeypatch.undo()

        def no_rebuild(self):
            raise AssertionError("the run table rebuilt a spec")

        monkeypatch.setattr(WorkloadSpec, "__post_init__", no_rebuild)
        monkeypatch.setattr(HierarchySpec, "__post_init__", no_rebuild)
        labels = {(row["workload"], row["setup"]) for row in build_run_table(store).rows}
        assert labels == {
            ("synthetic_4KB", "rm"),
            ("synthetic_4KB", "modulo"),
            ("a2time", "hrp+lru"),
            ("synthetic_4KB", "xor"),
        }


class TestFilter:
    def _table(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store)
        return build_run_table(store)

    def test_exact_match_fields(self, tmp_path):
        table = self._table(tmp_path)
        assert {row["setup"] for row in table.filter(setup="hrp").rows} == {"hrp"}
        assert table.filter(study="smoke").rows == table.rows
        assert table.filter(study="absent").rows == []
        assert table.filter(workload="synthetic_4KB", estimator="gumbel").rows == table.rows

    def test_where_predicate_with_pwcet_namespace(self, tmp_path):
        table = self._table(tmp_path)
        filtered = table.filter(where="admitted and pwcet['1e-15'] > 1800.5")
        assert [row["setup"] for row in filtered.rows] == ["hrp"]

    def test_where_syntax_error_raises_value_error(self, tmp_path):
        table = self._table(tmp_path)
        with pytest.raises(ValueError):
            table.filter(where="admitted and and")

    def test_where_unknown_name_raises_value_error(self, tmp_path):
        table = self._table(tmp_path)
        with pytest.raises(ValueError):
            table.filter(where="no_such_column > 1")

    def test_where_row_level_type_errors_drop_the_row(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store, setups=("rm",), with_analyses=False)  # admitted is None
        table = build_run_table(store)
        assert table.filter(where="admitted > 0").rows == []

    def test_where_cannot_reach_builtins(self, tmp_path):
        table = self._table(tmp_path)
        with pytest.raises(ValueError):
            table.filter(where="__import__('os').getcwd()")


class TestExport:
    def test_csv_expands_pwcet_columns(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store, setups=("rm",))
        table = build_run_table(store)
        target = tmp_path / "table.csv"
        table.to_csv(target)
        lines = target.read_text().splitlines()
        header = lines[0].split(",")
        assert "pwcet@1e-12" in header and "pwcet@1e-15" in header
        assert len(lines) == 2
        row = dict(zip(header, lines[1].split(",")))
        assert row["setup"] == "rm"
        assert float(row["pwcet@1e-15"]) == 1800.0

    def test_parquet_requires_pandas_and_pyarrow(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store, setups=("rm",))
        table = build_run_table(store)
        try:
            import pandas  # noqa: F401
            import pyarrow  # noqa: F401
        except ImportError:
            with pytest.raises(RuntimeError):
                table.to_parquet(tmp_path / "table.parquet")
        else:  # pragma: no cover - environment-dependent
            table.to_parquet(tmp_path / "table.parquet")
            assert (tmp_path / "table.parquet").is_file()

    def test_export_columns_cover_every_row_field(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store)
        table = build_run_table(store)
        headers = table.export_columns()
        for name in runtable_module.ROW_FIELDS:
            assert name in headers


class TestQueryCli:
    def test_runs_renders_a_table(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        populate(store)
        assert main(["query", "runs", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "run table: 2 row(s)" in out
        assert "rm" in out and "hrp" in out

    def test_refresh_is_accepted_and_changes_nothing(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        populate(store)
        assert main(["query", "runs", "--store", str(store.root)]) == 0
        plain = capsys.readouterr().out
        assert main(["query", "runs", "--refresh", "--store", str(store.root)]) == 0
        assert capsys.readouterr().out == plain

    def test_runs_with_filters_and_json_format(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        populate(store)
        assert (
            main(
                [
                    "query",
                    "runs",
                    "--store",
                    str(store.root),
                    "--setup",
                    "hrp",
                    "--where",
                    "admitted",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert [row["setup"] for row in rows] == ["hrp"]

    def test_bad_where_is_a_usage_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        populate(store)
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "runs", "--store", str(store.root), "--where", "syntax error ("])
        assert excinfo.value.code == 2

    def test_export_writes_csv(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        populate(store)
        target = tmp_path / "out.csv"
        assert main(["query", "export", str(target), "--store", str(store.root)]) == 0
        assert "exported 2 row(s)" in capsys.readouterr().out
        assert target.read_text().splitlines()[0].startswith("study,")

    def test_compare_joins_setups_on_workload_and_estimator(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        populate(store)
        assert (
            main(
                [
                    "query",
                    "compare",
                    "rm",
                    "hrp",
                    "--store",
                    str(store.root),
                    "--cutoff",
                    "1e-15",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "synthetic_4KB" in out
        assert "gumbel" in out
        # rm pwcet 1800.0 <= hrp 1801.0, so rm wins the comparison row.
        assert "rm" in out

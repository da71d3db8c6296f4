"""The repro.exec subsystem: planner, lane executor, drain, status.

The invariant under test everywhere: any campaign kind (seeds or layouts),
shard size, worker count and interruption pattern reads back from its
published lane ranges as a campaign **bit-exact** with serial execution —
including after SIGKILLing a run between shards and resuming.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import tempfile
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import repro
from repro.analysis.campaign import MISS_COUNTERS, run_campaign, run_layout_campaign
from repro.analysis.experiments import ExperimentSettings
from repro.engine import DEFAULT_ENGINE, NumpyEngine, available_engines
from repro.exec import executor as executor_module
from repro.exec import plan as plan_module
from repro.exec import worker as worker_module
from repro.exec import (
    DEFAULT_SHARD_SIZE,
    Shard,
    ShardReport,
    ShardRunner,
    execute_campaigns,
    plan_shards,
    publish_shard,
    resolve_jobs,
    resolve_shard_size,
    shard_key,
    shard_task,
)
from repro.exec.status import exec_status_snapshot, format_exec_status
from repro.platform.leon3 import Leon3Parameters
from repro.study import get_study, run_study
from repro.study.runner import execute_scenarios
from repro.study.scenario import (
    HierarchySpec,
    Scenario,
    WorkloadSpec,
    scenario_from_spec,
)
from repro.study.store import ResultStore
from repro.workloads import eembc as eembc_module


def _scenario(runs: int = 12, master_seed: int = 77) -> Scenario:
    """A small, fast synthetic-kernel scenario for pipeline tests."""
    return Scenario(
        workload=WorkloadSpec.synthetic(4 * 1024, 2),
        hierarchy=HierarchySpec(setup="rm", with_l2=False),
        runs=runs,
        master_seed=master_seed,
    )


#: A direct-mapped 512 B L1: small enough that shifted layouts conflict.
TINY_CACHES = Leon3Parameters(l1_size_bytes=512, l1_ways=1, l2_size_bytes=4096)


def _layout_scenario(runs: int = 6, master_seed: int = 77) -> Scenario:
    """A small deterministic layout campaign (the Fig. 4b baseline shape)."""
    return Scenario(
        workload=WorkloadSpec.eembc("matrix", scale=0.1),
        hierarchy=HierarchySpec.named("modulo", TINY_CACHES),
        runs=runs,
        master_seed=master_seed,
        campaign="layouts",
    )


def _serial(scenario: Scenario, engine: str = DEFAULT_ENGINE):
    """The reference serial campaign for ``scenario``."""
    run = run_layout_campaign if scenario.campaign == "layouts" else run_campaign
    return run(
        scenario.workload.build_trace(),
        scenario.hierarchy.config(),
        runs=scenario.runs,
        master_seed=scenario.effective_seed,
        engine=engine,
    )


def _serial_times(scenario: Scenario) -> list:
    """The reference serial execution times for ``scenario``."""
    return _serial(scenario).execution_times


def _publish_first(scenario, store, shard_size, count=None):
    """Publish the first ``count`` shards (all by default) of ``scenario``'s
    ``shard_size``-lane plan, as a run killed after them leaves the store;
    returns the whole plan."""
    shards = plan_shards(scenario.spec_hash(), scenario.runs, shard_size)
    runner = ShardRunner()
    for shard in shards[:count]:
        publish_shard(runner, store, shard_task(scenario, shard, DEFAULT_ENGINE))
    return shards


def _drain(scenarios, store, **options):
    """Drain ``scenarios`` in one :func:`execute_campaigns` call; returns
    ``{spec hash: (campaign, from_store)}`` and the call's shard report,
    summed over its campaigns."""
    resolved = execute_campaigns(scenarios, store, **options)
    total = ShardReport()
    for _, shards in resolved.values():
        if shards is not None:
            total.planned += shards.planned
            total.reused += shards.reused
            total.executed += shards.executed
    recorded = {
        spec_hash: (campaign, shards is None)
        for spec_hash, (campaign, shards) in resolved.items()
    }
    return recorded, total


def _count_pools(monkeypatch):
    """The ``max_workers`` of every process pool the executor opens from now on."""
    pools = []

    class CountingPool(executor_module.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
    return pools


def _drain_one(scenario, store, **options):
    """``(campaign, from_store, report)`` of ``scenario`` drained alone."""
    recorded, report = _drain([scenario], store, **options)
    return (*recorded[scenario.spec_hash()], report)


def _range(spec_hash, start=0, cycles=(1, 2, 3)):
    """A complete range payload of lanes ``[start, start + len(cycles))``."""
    return {
        "version": 1,
        "spec_hash": spec_hash,
        "key": shard_key(start, len(cycles)),
        "start": start,
        "count": len(cycles),
        "spec": {"runs": 3, "seed": 0},
        "setup": "s",
        "workload": "w",
        "engine": DEFAULT_ENGINE,
        "cycles": list(cycles),
    }


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

class TestPlan:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)

    @pytest.mark.parametrize(
        "runs, jobs, size",
        [
            (1000, 1, 1000),  # a cold fig5 campaign: one engine batch
            (10_000, 2, 1000),  # 10 equal shards, none wider than a batch
            (300, 1, 300),
            (24, 1, 24),  # one shard: the campaign's one engine batch
            (1000, 8, 125),  # one shard per worker
            (4, 8, 1),
        ],
    )
    def test_resolve_shard_size_default_rule(self, runs, jobs, size):
        assert resolve_shard_size(runs, jobs) == size

    def test_resolve_shard_size_explicit_is_literal(self):
        assert resolve_shard_size(100, 2, 7) == 7
        assert resolve_shard_size(10_000, 1, 1000) == 1000
        assert resolve_shard_size(12, 4, 12) == 12
        with pytest.raises(ValueError, match="shard_size"):
            resolve_shard_size(10, 2, 0)

    @given(runs=st.integers(1, 5000), jobs=st.integers(1, 16))
    @hyp_settings(max_examples=200, deadline=None)
    def test_default_plan_property(self, runs, jobs):
        shards = plan_shards("h", runs, resolve_shard_size(runs, jobs))
        lanes = [lane for shard in shards for lane in range(shard.start, shard.stop)]
        assert lanes == list(range(runs))
        widest = max(shard.count for shard in shards)
        assert widest <= DEFAULT_SHARD_SIZE
        # No worker is handed more lanes than an even split would give it.
        assert widest <= -(-runs // min(jobs, runs))

    def test_plan_around_published_shards(self):
        # Kept in lane order unless they overlap a kept one; the uncovered
        # lanes split from each range's own start; junk and out-of-range
        # keys are ignored.
        published = [
            shard_key(0, 6), shard_key(4, 4), shard_key(12, 6), shard_key(20, 9), "junk",
        ]
        shards = plan_shards("h", 24, 8, published)
        assert [(s.start, s.count) for s in shards] == [(0, 6), (6, 6), (12, 6), (18, 6)]
        assert [(s.index, s.total) for s in shards] == [(i, 4) for i in range(4)]

    @given(
        runs=st.integers(1, 200),
        size=st.integers(1, 64),
        published=st.lists(st.tuples(st.integers(0, 220), st.integers(0, 80)), max_size=8),
    )
    @hyp_settings(max_examples=200, deadline=None)
    def test_plan_around_published_property(self, runs, size, published):
        keys = {shard_key(start, count) for start, count in published}
        shards = plan_shards("h", runs, size, keys)
        lanes = [lane for shard in shards for lane in range(shard.start, shard.stop)]
        assert lanes == list(range(runs))
        assert all(shard.count <= size or shard.key in keys for shard in shards)

    def test_plan_covers_runs_exactly_once_in_order(self):
        shards = plan_shards("abc", 23, 7)
        assert [s.start for s in shards] == [0, 7, 14, 21]
        assert [s.count for s in shards] == [7, 7, 7, 2]
        assert all(s.spec_hash == "abc" for s in shards)
        assert [s.index for s in shards] == [0, 1, 2, 3]
        assert all(s.total == 4 for s in shards)

    def test_plan_is_deterministic(self):
        assert plan_shards("h", 100, 9) == plan_shards("h", 100, 9)

    def test_shard_key_is_sortable_and_unambiguous(self):
        assert shard_key(0, 7) == "00000000x000007"
        keys = [s.key for s in plan_shards("h", 200, 16)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_plan_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="runs"):
            plan_shards("h", 0, 4)
        with pytest.raises(ValueError, match="shard_size"):
            plan_shards("h", 4, 0)


# ---------------------------------------------------------------------------
# Spec round-trip (what makes shard tasks self-contained)
# ---------------------------------------------------------------------------

class TestSpecRoundTrip:
    def test_named_setup_round_trips_to_same_hash(self):
        scenario = Scenario(
            workload=WorkloadSpec.eembc("a2time", scale=0.25),
            hierarchy=HierarchySpec(setup="rm", with_l2=False),
            runs=23,
            master_seed=123,
            seed_offset=5,
        )
        rebuilt = scenario_from_spec(scenario.spec_dict())
        assert rebuilt.spec_hash() == scenario.spec_hash()
        assert rebuilt.effective_seed == scenario.effective_seed

    def test_custom_hierarchy_and_synthetic_workload_round_trip(self):
        scenario = Scenario(
            workload=WorkloadSpec.synthetic(4096, 3),
            hierarchy=HierarchySpec(
                setup="",
                l1_placement="modulo",
                l2_placement="rm",
                l1_replacement="lru",
                l2_replacement="random",
            ),
            runs=5,
            master_seed=7,
        )
        rebuilt = scenario_from_spec(scenario.spec_dict())
        assert rebuilt.spec_hash() == scenario.spec_hash()

    def test_version_mismatch_is_rejected(self):
        spec = _scenario().spec_dict()
        spec["version"] = 999
        with pytest.raises(ValueError, match="version"):
            scenario_from_spec(spec)


# ---------------------------------------------------------------------------
# Store shard entries and GC
# ---------------------------------------------------------------------------

class TestStoreShardEntries:
    def test_save_load_keys_clear(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_shard("aaa", shard_key(0, 3), _range("aaa"))
        store.save_shard("bbb", shard_key(0, 3), _range("bbb"))
        assert store.load_shard("aaa", shard_key(0, 3))["cycles"] == [1, 2, 3]
        assert store.load_shard("aaa", shard_key(3, 3)) is None
        assert store.shard_keys() == [
            ("aaa", shard_key(0, 3)),
            ("bbb", shard_key(0, 3)),
        ]
        assert store.shard_keys("aaa") == [("aaa", shard_key(0, 3))]
        assert store.clear_shards("aaa") == 1
        assert store.shard_keys() == [("bbb", shard_key(0, 3))]
        assert store.clear_shards() == 1

    def test_shard_entries_do_not_pollute_campaign_keys(self, tmp_path):
        # A spec hash lists as a campaign only once its ranges cover every
        # lane: lanes 0-2 of a 6-run campaign are not one.
        scenario = _scenario(runs=6)
        store = ResultStore(tmp_path / "store")
        _publish_first(scenario, store, shard_size=3, count=1)
        assert store.keys() == [] and store.load(scenario.spec_hash()) is None
        _publish_first(scenario, store, shard_size=3)
        assert store.keys() == [scenario.spec_hash()]

    def test_corrupt_or_mismatched_shard_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = store.save_shard("aaa", shard_key(0, 3), _range("aaa"))
        assert store.load_shard("aaa", shard_key(0, 3)) is not None
        path.write_text("{truncated")
        assert store.load_shard("aaa", shard_key(0, 3)) is None
        store.save_shard("aaa", shard_key(0, 3), dict(_range("aaa"), version=999))
        assert store.load_shard("aaa", shard_key(0, 3)) is None
        store.save_shard("aaa", shard_key(0, 3), dict(_range("aaa"), count=4))
        assert store.load_shard("aaa", shard_key(0, 3)) is None  # wrong length

    def test_sweep_age_based(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("aaa", shard_key(0, 3), _range("aaa"))
        # Nothing is old enough yet.
        assert store.sweep(older_than=3600.0) == 0
        # Age the analysis file only.
        old = time.time() - 7200
        analysis_path = store.analysis_path_for("aaa", "cfg")
        os.utime(analysis_path, (old, old))
        assert store.sweep(older_than=3600.0) == 1
        assert store.load_analysis("aaa", "cfg") is None
        assert store.load_shard("aaa", shard_key(0, 3)) is not None

    @staticmethod
    def _old_queue_files(store):
        """An older store's leftover ``queue/`` task, lease and heartbeat."""
        paths = [
            store.root / "queue" / "tasks" / f"aaa.{shard_key(0, 3)}.json",
            store.root / "queue" / "leases" / f"aaa.{shard_key(0, 3)}.lease",
            store.root / "queue" / "workers" / "host-1-0123abcd.json",
        ]
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}")
        return paths

    def test_sweep_analyses_only_leaves_shards_and_queue(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("aaa", shard_key(0, 3), _range("aaa"))
        queue_files = self._old_queue_files(store)
        old = time.time() - 7200
        for path in [*store.analysis_root.iterdir(), *store.shard_root.iterdir(), *queue_files]:
            os.utime(path, (old, old))
        assert store.sweep(older_than=3600.0, analyses_only=True) == 1
        assert store.load_shard("aaa", shard_key(0, 3)) is not None
        # The full sweep lists no published range (a result) and no queue
        # file (an older store's bookkeeping, which `study clean` removes).
        assert store.sweep_candidates(older_than=3600.0) == []
        assert store.sweep(older_than=3600.0) == 0
        assert store.shard_keys() == [("aaa", shard_key(0, 3))]
        assert all(path.exists() for path in queue_files)

    def test_clear_includes_shards_and_queue(self, tmp_path):
        # An older store's queue files are bookkeeping: removed, not counted.
        store = ResultStore(tmp_path / "store")
        store.save_shard("aaa", shard_key(0, 3), _range("aaa"))
        queue_files = self._old_queue_files(store)
        entries, bookkeeping = store.clear_candidates()
        assert entries == [store.shard_path_for("aaa", shard_key(0, 3))]
        assert bookkeeping == sorted(queue_files)
        assert store.clear() == 1
        assert store.shard_keys() == []
        assert not any(path.exists() for path in queue_files)


# ---------------------------------------------------------------------------
# Sharded execution pipeline
# ---------------------------------------------------------------------------

class TestShardedExecution:
    def test_single_worker_matches_serial(self, tmp_path):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        campaign, from_store, report = _drain_one(scenario, store, shard_size=5)
        assert campaign.execution_times == _serial_times(scenario)
        assert campaign.master_seed == scenario.effective_seed
        assert campaign.setup == scenario.display_label
        assert not from_store
        assert (report.planned, report.reused, report.executed) == (3, 0, 3)
        assert campaign.miss_summary["memory_accesses"] > 0

    def test_multiprocess_workers_match_serial(self, tmp_path):
        scenario = _scenario(runs=14)
        store = ResultStore(tmp_path / "store")
        campaign, _, report = _drain_one(scenario, store, jobs=2, shard_size=3)
        assert campaign.execution_times == _serial_times(scenario)
        assert report.executed == report.planned == 5

    def test_miss_summary_matches_in_memory_path(self, tmp_path):
        # The reassembled miss summary must be float-for-float identical to
        # the one run_campaign summarizes from the in-memory run results.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        sharded, _, _ = _drain_one(scenario, store, shard_size=4)
        assert sharded.miss_summary == _serial(scenario).miss_summary

    def test_resume_reuses_published_shards(self, tmp_path):
        # A killed run published every shard: the campaign is stored, and
        # the rerun is a store hit that plans nothing.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        _publish_first(scenario, store, shard_size=4)
        campaign, from_store, report = _drain_one(scenario, store, shard_size=4)
        assert from_store
        assert (report.planned, report.reused, report.executed) == (0, 0, 0)
        assert campaign.execution_times == _serial_times(scenario)

    def test_layout_campaign_drain_matches_serial(self, tmp_path):
        scenario = _layout_scenario()
        serial = _serial(scenario)
        assert len(set(serial.execution_times)) > 1  # layouts do vary
        for shard_size in (1, 3, scenario.runs):
            for jobs in (1, 2):
                store = ResultStore(tmp_path / f"store-{shard_size}-{jobs}")
                campaign, _, report = _drain_one(
                    scenario, store, jobs=jobs, shard_size=shard_size
                )
                assert campaign.execution_times == serial.execution_times
                assert campaign.workload == serial.workload
                assert campaign.miss_summary == {}  # layouts keep no miss counters
                assert report.executed == report.planned == -(-scenario.runs // shard_size)
        # A partial run resumes: only the missing layout ranges execute.
        store = ResultStore(tmp_path / "resumed")
        shards = _publish_first(scenario, store, shard_size=2, count=1)
        campaign, _, report = _drain_one(scenario, store, shard_size=2)
        assert (report.planned, report.reused, report.executed) == (len(shards), 1, 2)
        assert campaign.execution_times == serial.execution_times

    def test_reassembly_keeps_store_decoded_python_ints(self, tmp_path):
        # The store reads the ranges' typed columns back in lane order: the
        # execution times are Python ints and the miss summary, built from
        # the counter columns, equals the serial campaign's float for float.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        shards = _publish_first(scenario, store, shard_size=5)
        assert len(shards) == 3
        campaign = store.load(scenario.spec_hash(), [shard.key for shard in shards])
        serial = _serial(scenario)
        assert campaign.execution_times == serial.execution_times
        assert campaign.miss_summary == serial.miss_summary != {}
        assert {type(value) for value in campaign.execution_times} == {int}
        assert {type(value) for value in campaign.miss_summary.values()} == {float}
        assert set(MISS_COUNTERS) <= set(campaign.miss_summary)

    def test_exec_status_renders_published_lanes_and_engine(self, tmp_path):
        scenario = replace(_scenario(), label="partial")
        store = ResultStore(tmp_path / "store")
        _publish_first(scenario, store, shard_size=4, count=2)
        text = format_exec_status(store)
        assert scenario.spec_hash()[:12] in text
        assert "partial" in text and DEFAULT_ENGINE in text
        assert "8/12" in text  # lanes published of the campaign's runs

    def test_exec_status_lists_only_partly_published_campaigns(self, tmp_path):
        # Status reads ranges alone: a stored campaign is not listed, and a
        # partly published one shows the lanes it has published.
        finished, partial = _scenario(master_seed=1), _scenario(master_seed=2)
        store = ResultStore(tmp_path / "store")
        execute_scenarios([finished], store, shard_size=4)
        snapshot = exec_status_snapshot(store)
        assert snapshot["specs"] == {}
        assert snapshot["totals"] == {"ranges": 0, "published": 0, "runs": 0}
        assert "no partly published campaigns" in format_exec_status(store)
        _publish_first(partial, store, shard_size=4, count=1)
        snapshot = exec_status_snapshot(store)
        assert snapshot["specs"] == {
            partial.spec_hash(): {
                "workload": "synthetic_4KB",
                "setup": partial.display_label,
                "engine": DEFAULT_ENGINE,
                "runs": 12,
                "ranges": 1,
                "published": 4,
            }
        }
        assert snapshot["totals"] == {"ranges": 1, "published": 4, "runs": 12}
        assert not (store.root / "queue").exists()

    @pytest.mark.parametrize(
        "ranges, published",
        [
            ([], None),
            ([(0, 3)], 3),
            ([(0, 3), (3, 3)], 6),
            ([(3, 3), (9, 3)], 6),
            ([(0, 3), (3, 3), (6, 3), (9, 3)], None),
            # A killed 6-lane run and an 8-lane one overlap: the plan keeps
            # lanes 0-5 and needs a range starting at lane 6.
            ([(0, 6), (4, 8)], 6),
        ],
        ids=["none", "first", "two", "apart", "all", "overlapping"],
    )
    def test_exec_status_counts_the_lanes_a_rerun_reuses(self, tmp_path, ranges, published):
        # A campaign is listed exactly while its ranges do not make it up,
        # with the lanes the store's plan keeps (None: not listed).
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        runner = ShardRunner()
        for start, count in ranges:
            shard = Shard(scenario.spec_hash(), 0, 1, start, count)
            publish_shard(runner, store, shard_task(scenario, shard, DEFAULT_ENGINE))
        specs = exec_status_snapshot(store)["specs"]
        if published is None:
            assert specs == {}
            assert (store.load(scenario.spec_hash()) is None) == (not ranges)
        else:
            entry = specs[scenario.spec_hash()]
            assert (entry["published"], entry["ranges"], entry["runs"]) == (
                published, len(ranges), scenario.runs
            )
            assert store.load(scenario.spec_hash()) is None

    @pytest.mark.parametrize("shard_size", [1, 7, None])
    def test_shard_size_invariance(self, tmp_path, monkeypatch, shard_size):
        # shard_size=None exercises the planner's default rule, narrowed to
        # 5-lane shards so that 12 runs still split ([4, 4, 4]); size 7
        # yields an uneven [7, 5] split.
        monkeypatch.setattr(plan_module, "DEFAULT_SHARD_SIZE", 5)
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        campaign, _, report = _drain_one(scenario, store, shard_size=shard_size)
        assert report.planned > 1
        assert campaign.execution_times == _serial_times(scenario)

    def test_whole_campaign_shard_matches_serial(self, tmp_path):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        campaign, _, report = _drain_one(scenario, store, shard_size=scenario.runs)
        assert report.planned == 1
        assert campaign.execution_times == _serial_times(scenario)


class TestShardedExecutionProperty:
    """Hypothesis: any call (1-3 seed and layout campaigns, engine, shard
    size, worker count) is bit-exact."""

    @given(
        kinds=st.lists(st.sampled_from(["seeds", "layouts"]), min_size=1, max_size=3),
        engine=st.sampled_from(sorted(available_engines())),
        shard_size=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
        jobs=st.sampled_from([1, 2]),
    )
    @hyp_settings(max_examples=10, deadline=None)
    def test_bit_exact_for_any_partition(
        self, tmp_path_factory, kinds, engine, shard_size, jobs
    ):
        scenarios = [
            (_layout_scenario if kind == "layouts" else _scenario)(
                runs=10, master_seed=31 + index
            )
            for index, kind in enumerate(kinds)
        ]
        store = ResultStore(tmp_path_factory.mktemp("store"))
        recorded, _ = _drain(
            scenarios, store, engine=engine, jobs=jobs, shard_size=shard_size
        )
        for scenario in scenarios:
            campaign, _ = recorded[scenario.spec_hash()]
            serial = _serial(scenario, engine)
            assert campaign.execution_times == serial.execution_times
            # One miss summary for every partition: the serial one for
            # seeds, none for layouts.
            assert campaign.miss_summary == serial.miss_summary
            assert (campaign.miss_summary == {}) == (scenario.campaign == "layouts")
            # The published ranges are the stored campaign.
            assert store.load(scenario.spec_hash()) == campaign


# ---------------------------------------------------------------------------
# The lane executor
# ---------------------------------------------------------------------------

class TestShardRunner:
    def test_runner_holds_only_the_latest_campaign(self, monkeypatch):
        # A long-lived worker drains many campaigns: after tasks from two
        # specs it must have freed the first spec's simulator.
        built = []
        original = NumpyEngine.simulator

        def recording(engine, config, compiled):
            simulator = original(engine, config, compiled)
            built.append(weakref.ref(simulator))
            return simulator

        monkeypatch.setattr(NumpyEngine, "simulator", recording)
        runner = ShardRunner()
        first, second = _scenario(master_seed=1), _scenario(master_seed=2)
        for scenario in (first, second):
            for shard in plan_shards(scenario.spec_hash(), scenario.runs, 6):
                runner.execute(shard_task(scenario, shard, DEFAULT_ENGINE))
        gc.collect()
        assert len(built) == 2  # one simulator per campaign, reused across shards
        assert built[0]() is None
        assert built[1]() is not None

    def test_layout_task_runs_its_layout_range(self):
        scenario = _layout_scenario()
        shard = plan_shards(scenario.spec_hash(), scenario.runs, 4)[1]
        payload = ShardRunner().execute(shard_task(scenario, shard, DEFAULT_ENGINE))
        assert payload["cycles"] == _serial_times(scenario)[shard.start : shard.stop]
        assert "il1_misses" not in payload

    def test_seed_and_layout_tasks_of_a_workload_build_its_trace_once(
        self, monkeypatch
    ):
        # The layout shard relocates the trace the seed shard built.
        builds = []
        original = eembc_module.build_kernel_trace

        def counting(*args, **kwargs):
            builds.append(args[0].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(eembc_module, "build_kernel_trace", counting)
        layouts = _layout_scenario()
        seeds = replace(
            layouts, hierarchy=HierarchySpec.named("rm", TINY_CACHES), campaign="seeds"
        )
        runner = ShardRunner()
        for scenario in (seeds, layouts):
            shard = plan_shards(scenario.spec_hash(), scenario.runs, scenario.runs)[0]
            runner.execute(shard_task(scenario, shard, DEFAULT_ENGINE))
        assert builds == ["matrix"]

    def test_slice_outside_the_campaign_is_rejected(self):
        for scenario in (_scenario(), _layout_scenario()):
            shard = Shard(scenario.spec_hash(), 0, 1, scenario.runs - 1, 2)
            with pytest.raises(ValueError, match="outside"):
                ShardRunner().execute(shard_task(scenario, shard, DEFAULT_ENGINE))

    @pytest.mark.parametrize("throttle, slept", [("", []), ("0", []), ("0.25", [0.25])])
    def test_throttle_sleeps_before_each_shard_runs(
        self, tmp_path, monkeypatch, throttle, slept
    ):
        # REPRO_EXEC_THROTTLE is a sleep before the shard runs, so a kill
        # during it leaves the range unpublished.
        events = []
        monkeypatch.setenv("REPRO_EXEC_THROTTLE", throttle)
        monkeypatch.setattr(worker_module.time, "sleep", events.append)
        execute = ShardRunner.execute

        def recording(runner, task):
            events.append("execute")
            return execute(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", recording)
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        [shard] = plan_shards(scenario.spec_hash(), scenario.runs, scenario.runs)
        publish_shard(ShardRunner(), store, shard_task(scenario, shard, DEFAULT_ENGINE))
        assert events == [*slept, "execute"]
        assert store.load(scenario.spec_hash()).execution_times == _serial_times(scenario)

    def test_a_pool_worker_keeps_one_runner_across_its_tasks(self, tmp_path, monkeypatch):
        # publish_in_worker runs every task of a pool worker on one runner,
        # so a workload's trace is built once per worker.
        builds = []
        original = eembc_module.build_kernel_trace

        def counting(*args, **kwargs):
            builds.append(args[0].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(eembc_module, "build_kernel_trace", counting)
        monkeypatch.setattr(worker_module, "_RUNNER", None)
        scenario = _layout_scenario()
        store = ResultStore(tmp_path / "store")
        for shard in plan_shards(scenario.spec_hash(), scenario.runs, 2):
            worker_module.publish_in_worker(
                str(store.root), shard_task(scenario, shard, DEFAULT_ENGINE)
            )
        assert builds == ["matrix"]
        assert store.load(scenario.spec_hash()).execution_times == _serial_times(scenario)


# ---------------------------------------------------------------------------
# Crash-resume: SIGKILL a run between shards, resume from its ranges
# ---------------------------------------------------------------------------

class TestCrashResume:
    def test_sigkilled_worker_leaves_resumable_state(self, tmp_path):
        # A throttled `study run` process (a sleep before each shard runs)
        # is SIGKILLed once some of its ranges are published.  The rerun
        # executes only the unpublished shards and every campaign matches
        # its serial run bit for bit.
        settings = ExperimentSettings(runs=24, scale=0.25, shard_size=6)
        scenarios = get_study("fig5").plan(settings)
        store = ResultStore(tmp_path / "store")
        env = dict(os.environ, REPRO_EXEC_THROTTLE="0.5")
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", "study", "run", "fig5", "--runs", "24",
             "--scale", "0.25", "--shard-size", "6", "--store", str(store.root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 60
            while len(store.shard_keys()) < 2:
                assert run.poll() is None, "the run finished before it was killed"
                assert time.time() < deadline, "the run never published two ranges"
                time.sleep(0.02)
        finally:
            run.send_signal(signal.SIGKILL)
            run.wait()
        published = len(store.shard_keys())
        assert 2 <= published < 8  # fig5 plans 2 campaigns of 4 shards
        assert list(store.root.rglob("*.tmp")) == []  # the kill landed between writes
        report = run_study("fig5", settings, store=store).report
        assert (report.shards_planned, report.shards_reused) == (8, published)
        assert report.shards_executed == 8 - published
        for scenario in scenarios:
            campaign, serial = store.load(scenario.spec_hash()), _serial(scenario)
            assert campaign.execution_times == serial.execution_times
            assert campaign.miss_summary == serial.miss_summary
        assert not (store.root / "queue").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "published", [(0,), (1, 2), (3,), (0, 2)], ids=["first", "middle", "last", "apart"]
    )
    def test_resume_executes_only_the_unpublished_shards(self, tmp_path, jobs, published):
        # A killed run published some of the four 3-lane shards, in any
        # order (a pool finishes shards out of order).  The rerun, in this
        # process or on a pool, publishes exactly the others, in lane order,
        # and reads the campaign bit-exact.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        shards = plan_shards(scenario.spec_hash(), scenario.runs, 3)
        runner = ShardRunner()
        for index in published:
            publish_shard(runner, store, shard_task(scenario, shards[index], DEFAULT_ENGINE))
        keys = []
        campaign, from_store, report = _drain_one(
            scenario, store, jobs=jobs, shard_size=3, on_publish=lambda _, key: keys.append(key)
        )
        assert keys == [shard.key for index, shard in enumerate(shards) if index not in published]
        assert (report.planned, report.reused, report.executed) == (
            4, len(published), 4 - len(published)
        )
        assert not from_store
        assert campaign.execution_times == _serial_times(scenario)

    def test_resume_under_another_plan_executes_only_its_own(
        self, tmp_path, monkeypatch
    ):
        # A killed 3-lane run published one shard (lanes 0-2).  A rerun at
        # 4 lanes reuses it, plans lanes 3-11 around it and executes that
        # plan only: none of the old plan's other shards.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        _publish_first(scenario, store, shard_size=3, count=1)
        published = []
        save_shard = ResultStore.save_shard

        def recording(store, spec_hash, key, payload):
            published.append(key)
            return save_shard(store, spec_hash, key, payload)

        monkeypatch.setattr(ResultStore, "save_shard", recording)
        campaign, _, report = _drain_one(scenario, store, shard_size=4)
        assert sorted(published) == [shard_key(3, 4), shard_key(7, 4), shard_key(11, 1)]
        assert (report.planned, report.reused, report.executed) == (4, 1, 3)
        assert campaign.execution_times == _serial_times(scenario)

    def test_resume_at_another_size_reuses_published_lanes(self, tmp_path, monkeypatch):
        # A killed 6-lane run published 2 of its 4 shards (lanes 0-11).  The
        # resume at 8 lanes keeps them and executes lanes 12-23 only.
        scenario = _scenario(runs=24)
        store = ResultStore(tmp_path / "store")
        _publish_first(scenario, store, shard_size=6, count=2)
        executed = []
        execute = ShardRunner.execute

        def recording(runner, task):
            executed.extend(range(task["start"], task["start"] + task["count"]))
            return execute(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", recording)
        campaign, _, report = _drain_one(scenario, store, shard_size=8)
        assert sorted(executed) == list(range(12, 24))
        assert (report.planned, report.reused, report.executed) == (4, 2, 2)
        assert campaign.execution_times == _serial_times(scenario)

    def test_study_resume_executes_only_missing_shards(self, tmp_path):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")

        # "Killed" first attempt: it published two of its four shards.
        _publish_first(scenario, store, shard_size=3, count=2)
        assert len(store.shard_keys(scenario.spec_hash())) == 2

        # Rerun through the study runner: published shards are reused.
        results = execute_scenarios([scenario], store=store, shard_size=3)
        assert results.report.shards_planned == 4
        assert results.report.shards_reused == 2
        assert results.report.shards_executed == 2
        outcome = next(iter(results))
        assert outcome.campaign.execution_times == _serial_times(scenario)
        # The four published ranges are the stored campaign.
        assert len(store.shard_keys(scenario.spec_hash())) == 4
        assert store.load(scenario.spec_hash()) == outcome.campaign
        # A second rerun is a pure store hit: nothing planned or executed.
        again = execute_scenarios([scenario], store=store, shard_size=3)
        assert again.report.full_cache_hit
        assert again.report.shards_planned == 0
        assert (
            next(iter(again)).campaign.execution_times
            == outcome.campaign.execution_times
        )

    def test_interrupted_default_call_resumes(self, tmp_path, monkeypatch):
        # A default call (in this process, one shard per campaign) is
        # interrupted once its first campaign's shard is published: that
        # campaign is stored, so the rerun reads it from the store and
        # executes only the other campaign's shard.
        scenarios = [replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in (1, 2)]
        store = ResultStore(tmp_path / "store")

        def interrupted(runner, store, task):
            publish_shard(runner, store, task)
            raise KeyboardInterrupt

        monkeypatch.setattr(executor_module, "publish_shard", interrupted)
        with pytest.raises(KeyboardInterrupt):
            execute_scenarios(scenarios, store)
        monkeypatch.undo()
        assert len(store.shard_keys()) == 1
        results = execute_scenarios(scenarios, store)
        report = results.report
        assert (report.simulated, report.cache_hits) == (1, 1)
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (
            1, 0, 1
        )
        for scenario in scenarios:
            campaign = results.campaign(scenario.display_label)
            assert campaign.execution_times == _serial_times(scenario)
        assert len(store.shard_keys()) == 2  # one range per campaign

    def test_no_cache_rerun_simulates_every_lane(self, tmp_path):
        # A forced refresh after a killed run reuses none of its published
        # shards.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        _publish_first(scenario, store, shard_size=4, count=1)
        results = execute_scenarios([scenario], store, use_cache=False, shard_size=4)
        report = results.report
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (
            3, 0, 3
        )
        assert next(iter(results)).campaign.execution_times == _serial_times(scenario)

    def test_ranges_of_two_shard_sizes_load_bit_exact_with_their_label(self, tmp_path):
        # A killed 6-lane run published lanes 0-11; the rerun at 8 lanes
        # published 12-19 and 20-23.  The four ranges are one stored
        # campaign: cycles, miss summary and label as a serial run's.
        scenario = replace(_scenario(runs=24), label="two sizes")
        store = ResultStore(tmp_path / "store")
        _publish_first(scenario, store, shard_size=6, count=2)
        _drain_one(scenario, store, shard_size=8)
        keys = [key for _, key in store.shard_keys(scenario.spec_hash())]
        assert keys == [shard_key(0, 6), shard_key(6, 6), shard_key(12, 8), shard_key(20, 4)]
        stored = ResultStore(store.root).load(scenario.spec_hash())
        serial = _serial(scenario)
        assert stored.execution_times == serial.execution_times
        assert stored.miss_summary == serial.miss_summary
        assert stored.setup == "two sizes"
        assert store.keys() == [scenario.spec_hash()]

    def test_a_corrupt_range_on_the_warm_path_is_simulated_again(self, tmp_path):
        # A stored campaign one of whose ranges is truncated: the next call
        # removes that range, executes its lanes again and reads the
        # campaign bit-exact; the other ranges are reused.
        scenario = _scenario()
        spec_hash = scenario.spec_hash()
        store = ResultStore(tmp_path / "store")
        execute_scenarios([scenario], store=store, shard_size=4)
        before = {key: store.shard_path_for(spec_hash, key).read_bytes()
                  for _, key in store.shard_keys(spec_hash)}
        damaged = store.shard_path_for(spec_hash, shard_key(4, 4))
        damaged.write_bytes(damaged.read_bytes()[:-5])
        results = execute_scenarios([scenario], store=store, shard_size=4)
        report = results.report
        assert (report.simulated, report.cache_hits, report.shards_executed) == (1, 0, 1)
        assert next(iter(results)).campaign.execution_times == _serial_times(scenario)
        after = {key: store.shard_path_for(spec_hash, key).read_bytes()
                 for _, key in store.shard_keys(spec_hash)}
        assert after == before
        assert execute_scenarios([scenario], store=store).report.full_cache_hit

    def test_ranges_that_read_but_make_no_campaign_raise(self, tmp_path):
        # A range whose header claims another run count reads on its own,
        # but no campaign of the planned runs is made of it: the drain
        # raises rather than read it forever.
        scenario = _scenario()
        spec_hash = scenario.spec_hash()
        store = ResultStore(tmp_path / "store")
        store.save_shard(spec_hash, shard_key(0, 12), _range(spec_hash, cycles=range(12)))
        assert store.load_shard(spec_hash, shard_key(0, 12)) is not None
        with pytest.raises(RuntimeError, match="do not make up the campaign"):
            _drain_one(scenario, store)


class TestShardDecodes:
    """A drain stats shards until it reads the campaign, which decodes each
    published range once."""

    @staticmethod
    def _count_decodes(monkeypatch):
        """Count the store's successful range decodes from now on."""
        from repro.study import store as store_module

        decodes = []
        original = store_module._decode_entry

        def counting(blob):
            decoded = original(blob)
            decodes.append(blob)
            return decoded

        monkeypatch.setattr(store_module, "_decode_entry", counting)
        return decodes

    def test_a_cold_sharded_study_decodes_each_shard_once(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        decodes = self._count_decodes(monkeypatch)
        argv = [
            "study", "run", "fig5", "--runs", "24", "--shard-size", "6",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        # fig5 plans two campaigns of 24 runs: four 6-lane shards each.
        assert len(decodes) == len(set(decodes)) == 8
        assert main(argv) == 0  # warm, in the same process: no decode
        assert len(decodes) == 8

    def test_a_resume_over_a_corrupt_shard_converges(self, tmp_path, monkeypatch):
        scenario = _scenario()
        spec_hash = scenario.spec_hash()
        clean = ResultStore(tmp_path / "clean")
        execute_scenarios([scenario], store=clean, shard_size=3)

        store = ResultStore(tmp_path / "store")
        shards = _publish_first(scenario, store, shard_size=3, count=3)
        published = store.shard_path_for(spec_hash, shards[1].key)
        published.write_bytes(published.read_bytes()[:-5])  # truncated
        assert store.has_shard(spec_hash, shards[1].key)
        assert store.load_shard(spec_hash, shards[1].key) is None

        decodes = self._count_decodes(monkeypatch)
        results = execute_scenarios([scenario], store=store, shard_size=3)
        # The missing shard and the corrupt one execute; each of the four
        # ranges that read is decoded once.
        assert results.report.shards_executed == 2
        assert len(decodes) == len(shards)
        assert next(iter(results)).campaign.execution_times == _serial_times(scenario)
        for shard in shards:
            assert (
                store.shard_path_for(spec_hash, shard.key).read_bytes()
                == clean.shard_path_for(spec_hash, shard.key).read_bytes()
            )


# ---------------------------------------------------------------------------
# Overlapping drains of one spec (study run beside a server, or two study runs)
# ---------------------------------------------------------------------------

class TestOverlappingDrains:
    """Two drains of one spec in two processes coordinate through nothing
    but the published ranges: a range both execute lands as one file of
    identical bytes."""

    def test_a_drain_reads_the_range_a_foreign_drain_published(self, tmp_path, monkeypatch):
        # A foreign drain publishes lanes 0-3 after this drain planned.
        # This drain executes that shard too (CPU time, not a result, is
        # duplicated): the range keeps the foreign bytes, and the campaign
        # reads bit-exact.
        scenario = _scenario()
        spec_hash = scenario.spec_hash()
        store = ResultStore(tmp_path / "store")
        shards = plan_shards(spec_hash, scenario.runs, 4)
        foreign = store.shard_path_for(spec_hash, shards[0].key)
        original = ShardRunner.execute
        executed, published = [], []

        def foreign_drain_publishes_first(runner, task):
            if not published:
                foreign_task = shard_task(scenario, shards[0], DEFAULT_ENGINE)
                store.save_shard(spec_hash, shards[0].key, original(ShardRunner(), foreign_task))
                published.append(foreign.read_bytes())
            executed.append(task["key"])
            return original(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", foreign_drain_publishes_first)
        results = execute_scenarios([scenario], store, shard_size=4)
        report = results.report
        assert executed == [shard.key for shard in shards]
        assert (report.simulated, report.cache_hits) == (1, 0)
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (3, 0, 3)
        assert foreign.read_bytes() == published[0]
        outcome = next(iter(results))
        assert not outcome.from_cache
        assert outcome.campaign.execution_times == _serial_times(scenario)
        assert [key for _, key in store.shard_keys()] == [shard.key for shard in shards]


# ---------------------------------------------------------------------------
# A failing campaign does not fail the drains after it
# ---------------------------------------------------------------------------

class TestFailingCampaign:
    """A shard that raises stops its call: the ranges published before it
    stay, nothing of the failed campaign is published, and the next drain
    plans around what is there."""

    @staticmethod
    def _fail_campaign(scenario, monkeypatch):
        """Make every shard of ``scenario`` raise in ShardRunner.execute."""
        original = ShardRunner.execute

        def failing(runner, task):
            if task["spec_hash"] == scenario.spec_hash():
                raise ValueError("shard failed")
            return original(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", failing)

    @staticmethod
    def _assert_matches_serial(campaign, scenario):
        serial = _serial(scenario)
        assert campaign.execution_times == serial.execution_times
        assert campaign.miss_summary == serial.miss_summary

    def test_failed_campaign_leaves_nothing_for_the_next_drain(
        self, tmp_path, monkeypatch
    ):
        failed, good = _scenario(master_seed=1), _scenario(master_seed=2)
        store = ResultStore(tmp_path / "store")
        self._fail_campaign(failed, monkeypatch)
        with pytest.raises(ValueError, match="shard failed"):
            _drain_one(failed, store, shard_size=3)
        assert list(store.root.rglob("*")) == []
        campaign, from_store, _ = _drain_one(good, store, shard_size=3)
        assert not from_store
        self._assert_matches_serial(campaign, good)
        assert store.shard_keys(failed.spec_hash()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_rerun_after_a_failure_executes_only_the_unpublished_shards(
        self, tmp_path, monkeypatch, jobs, failing
    ):
        # Whichever campaign fails, in this process or on a pool, nothing
        # of it is published and no temporary file is left; the rerun
        # executes exactly the shards the failed call did not publish.
        scenarios = [
            replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in (1, 2, 3)
        ]
        store = ResultStore(tmp_path / "store")
        self._fail_campaign(scenarios[failing], monkeypatch)
        with pytest.raises(ValueError, match="shard failed"):
            _drain(scenarios, store, jobs=jobs, shard_size=6)
        assert store.shard_keys(scenarios[failing].spec_hash()) == []
        assert list(store.root.rglob("*.tmp")) == []
        published = len(store.shard_keys())
        if jobs == 1:
            assert published == 2 * failing  # the campaigns before it, whole
        monkeypatch.undo()
        results = execute_scenarios(scenarios, store, jobs=jobs, shard_size=6)
        assert results.report.shards_executed == 6 - published
        for scenario in scenarios:
            self._assert_matches_serial(results.campaign(scenario.display_label), scenario)

    def test_failure_inside_a_call_keeps_the_ranges_published_before_it(
        self, tmp_path, monkeypatch
    ):
        # One worker runs a, then fails on b's first shard: a's shards stay
        # published, and neither b nor c publishes anything.  A rerun reads
        # a from the store and executes b's and c's shards.
        first, failed, last = (
            replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in (1, 2, 3)
        )
        store = ResultStore(tmp_path / "store")
        self._fail_campaign(failed, monkeypatch)
        with pytest.raises(ValueError, match="shard failed"):
            _drain([first, failed, last], store, shard_size=3)
        assert len(store.shard_keys(first.spec_hash())) == 4
        assert store.shard_keys(failed.spec_hash()) == store.shard_keys(last.spec_hash()) == []
        monkeypatch.undo()
        results = execute_scenarios([first, failed, last], store, shard_size=3)
        report = results.report
        assert report.cache_hits == 1  # a's ranges are its stored campaign
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (
            8, 0, 8
        )
        for scenario in (first, failed, last):
            self._assert_matches_serial(results.campaign(scenario.display_label), scenario)


# ---------------------------------------------------------------------------
# Runner/CLI integration details
# ---------------------------------------------------------------------------

class TestRunnerIntegration:
    @staticmethod
    def _assert_storeless_call_drains_through_a_temporary_store(tmp_path, monkeypatch, **options):
        # Without a store, the call drains through a temporary store and
        # removes it.
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        scenarios = [_scenario(), _layout_scenario()]
        results = execute_scenarios(scenarios, **options)
        assert results.store is None
        assert results.report.simulated == 2
        for scenario in scenarios:
            expected = _serial(scenario)
            campaign = results.campaign(scenario.display_label)
            assert campaign.execution_times == expected.execution_times
            assert campaign.miss_summary == expected.miss_summary
        assert list(temp_root.iterdir()) == []

    def test_storeless_jobs_call_drains_through_a_temporary_store(self, tmp_path, monkeypatch):
        self._assert_storeless_call_drains_through_a_temporary_store(
            tmp_path, monkeypatch, jobs=2
        )

    def test_storeless_shard_size_call_drains_through_a_temporary_store(
        self, tmp_path, monkeypatch
    ):
        self._assert_storeless_call_drains_through_a_temporary_store(
            tmp_path, monkeypatch, shard_size=4
        )

    def test_call_drains_whole_campaigns_on_one_set_of_workers(self, tmp_path, monkeypatch):
        # Four campaigns and two workers: one shard per campaign, and one
        # process pool of two workers for the whole call.
        pools = _count_pools(monkeypatch)
        store = ResultStore(tmp_path / "store")
        scenarios = [replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in range(4)]
        results = execute_scenarios(scenarios, store, jobs=2)
        report = results.report
        assert report.shards_planned == report.shards_executed == 4
        assert pools == [2]
        for scenario in scenarios:
            assert results.campaign(scenario.display_label).execution_times == (
                _serial_times(scenario)
            )

    def test_fewer_campaigns_than_workers_split_their_lanes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenarios = [replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in range(2)]
        report = execute_scenarios(scenarios, store, jobs=4).report
        assert report.shards_planned == report.shards_executed == 4

    def test_default_call_runs_one_shard_per_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenarios = [_scenario(), _layout_scenario()]
        results = execute_scenarios(scenarios, store=store)
        report = results.report
        assert report.simulated == 2
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (2, 0, 2)
        assert len(store.shard_keys()) == 2
        assert sorted(path.name for path in store.root.iterdir()) == ["shards"]
        for scenario in scenarios:
            assert results.campaign(scenario.display_label).execution_times == (
                _serial_times(scenario)
            )

    def test_layout_campaign_with_shard_size_runs_each_shard(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = _layout_scenario()
        results = execute_scenarios([scenario], store=store, shard_size=4)
        assert results.report.shards_planned == results.report.shards_executed == 2
        assert next(iter(results)).campaign.execution_times == _serial_times(scenario)
        assert len(store.shard_keys(scenario.spec_hash())) == 2  # the stored campaign
        again = execute_scenarios([scenario], store=store, shard_size=4)
        assert again.report.full_cache_hit

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("shard_size", [None, 1, 5, 12])
    def test_on_publish_reports_each_range_the_call_publishes(
        self, tmp_path, jobs, shard_size
    ):
        # Seed and layout campaigns, any width, in this process or on a
        # pool: one call per published range, none on a warm call.
        scenarios = [_scenario(master_seed=1), _layout_scenario(master_seed=2)]
        store = ResultStore(tmp_path / "store")
        published = []
        _, report = _drain(
            scenarios, store, jobs=jobs, shard_size=shard_size,
            on_publish=lambda *pair: published.append(pair),
        )
        assert sorted(published) == store.shard_keys()
        assert len(published) == report.executed == report.planned
        _, warm = _drain(
            scenarios, store, jobs=jobs, shard_size=shard_size,
            on_publish=lambda *pair: published.append(pair),
        )
        assert (warm.planned, len(published)) == (0, report.executed)

    def test_report_summary_names_the_shards_of_a_cold_call(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = execute_scenarios([_scenario()], store=store)
        assert cold.report.summary().endswith("; 1 of 1 shards executed (0 reused)")
        warm = execute_scenarios([_scenario()], store=store)
        assert warm.report.full_cache_hit
        assert "shards" not in warm.report.summary()

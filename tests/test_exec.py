"""The repro.exec subsystem: planner, queue/leases, workers, reassembly.

The invariant under test everywhere: any campaign kind (seeds or layouts),
shard size, worker count and interruption pattern reassembles to a
campaign **bit-exact** with serial execution — including after SIGKILLing
a worker mid-shard and resuming.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import repro
from repro.analysis.campaign import (
    MISS_COUNTERS,
    run_campaign,
    run_layout_campaign,
    summarize_misses,
)
from repro.engine import DEFAULT_ENGINE, NumpyEngine, available_engines
from repro.exec import executor as executor_module
from repro.exec import plan as plan_module
from repro.exec import (
    DEFAULT_SHARD_SIZE,
    FileQueue,
    Lease,
    Shard,
    ShardRunner,
    execute_campaigns,
    plan_shards,
    read_heartbeats,
    reassemble_campaign,
    resolve_jobs,
    resolve_shard_size,
    run_worker,
    shard_key,
    shard_task,
)
from repro.exec.status import format_exec_status
from repro.exec.telemetry import WorkerHeartbeat, WorkerTelemetry
from repro.platform.leon3 import Leon3Parameters
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


def _enqueue_all(scenario, store, shard_size):
    """Plan ``scenario`` and enqueue every shard, as a coordinator would."""
    shards = plan_shards(scenario.spec_hash(), scenario.runs, shard_size)
    queue = FileQueue(store.queue_root)
    for shard in shards:
        queue.enqueue(shard_task(scenario, shard, DEFAULT_ENGINE))
    return shards, queue


def _drain(scenarios, store, **options):
    """Drain ``scenarios`` in one :func:`execute_campaigns` call; returns
    ``{spec hash: (campaign, from_store)}`` and the shard report.  Nothing
    is saved, so a campaign's entry is in the store only if another drain
    recorded it."""
    recorded = {}

    def record(scenario, campaign, from_store):
        recorded[scenario.spec_hash()] = (campaign, from_store)

    return recorded, execute_campaigns(scenarios, store, record, **options)


def _drain_one(scenario, store, **options):
    """``(campaign, from_store, report)`` of ``scenario`` drained alone."""
    recorded, report = _drain([scenario], store, **options)
    return (*recorded[scenario.spec_hash()], report)


def _published(scenario, store):
    """The reassembler's shard loader for ``scenario``'s entries in ``store``."""
    return lambda shard: store.load_shard(scenario.spec_hash(), shard.key)


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
# Queue and leases
# ---------------------------------------------------------------------------

def _task(spec_hash: str = "deadbeef", start: int = 0, count: int = 4) -> dict:
    return {
        "spec_hash": spec_hash,
        "key": shard_key(start, count),
        "start": start,
        "count": count,
    }


class TestFileQueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        queue.enqueue(_task())
        queue.enqueue(_task())
        assert queue.pending() == 1

    def test_tasks_sorted_for_deterministic_claim_order(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        for start in (8, 0, 4):
            queue.enqueue(_task(start=start))
        assert [queue.read_task(p)["start"] for p in queue.tasks()] == [0, 4, 8]

    def test_fresh_claim_is_exclusive(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        path = queue.enqueue(_task())
        assert queue.try_claim(path, "alice")
        assert not queue.try_claim(path, "bob")
        lease = queue.lease_for(path)
        assert lease.owner == "alice" and lease.active()

    def test_expired_lease_is_reclaimed(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        path = queue.enqueue(_task())
        assert queue.try_claim(path, "alice", ttl=0.0)
        # alice's lease deadline has passed; bob may take over.
        assert queue.try_claim(path, "bob")
        assert queue.lease_for(path).owner == "bob"

    def test_dead_pid_lease_is_reclaimed_without_waiting_out_ttl(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        path = queue.enqueue(_task())
        assert queue.try_claim(path, "ghost", ttl=3600.0)
        # Rewrite the lease as if it were held by a dead process on this
        # host: pid of a short-lived child that has already been reaped.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        lease_path = queue.lease_path(path)
        payload = json.loads(lease_path.read_text())
        payload["pid"] = child.pid
        lease_path.write_text(json.dumps(payload))
        assert not queue.lease_for(path).active()
        assert queue.try_claim(path, "bob")

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="zombies are read from /proc"
    )
    def test_unreaped_dead_pid_is_not_alive(self):
        # A killed worker whose parent died too stays a zombie until init
        # reaps it; meanwhile its lease and heartbeat must read as dead, or
        # a resume leaves the lease's task queued and later executes it.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        stat = Path(f"/proc/{child.pid}/stat")
        try:
            deadline = time.time() + 30
            while stat.read_text().rpartition(")")[2].split()[0] != "Z":
                assert time.time() < deadline, "the child never exited"
                time.sleep(0.01)
            host = socket.gethostname()
            assert not Lease("killed", host, child.pid, time.time() + 3600).active()
            assert not WorkerHeartbeat("killed", host, child.pid, 0.0, 0.0).alive()
            assert Lease("live", host, os.getpid(), time.time() + 3600).active()
        finally:
            child.wait()

    def test_release_only_drops_own_lease(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        path = queue.enqueue(_task())
        queue.try_claim(path, "alice")
        queue.release(path, "bob")  # not bob's to release
        assert queue.lease_for(path).owner == "alice"
        queue.release(path, "alice")
        assert queue.lease_for(path) is None

    def test_complete_retires_task_and_lease(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        path = queue.enqueue(_task())
        queue.try_claim(path, "alice")
        queue.complete(path, "alice")
        assert queue.pending() == 0
        assert queue.lease_for(path) is None


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
        payload = {"version": 1, "cycles": [1, 2, 3]}
        store.save_shard("aaa", shard_key(0, 3), payload)
        store.save_shard("bbb", shard_key(0, 3), payload)
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
        store = ResultStore(tmp_path / "store")
        store.save_shard("aaa", shard_key(0, 3), {"version": 1})
        assert store.keys() == []

    def test_corrupt_or_mismatched_shard_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = store.save_shard("aaa", shard_key(0, 3), {"version": 1})
        path.write_text("{truncated")
        assert store.load_shard("aaa", shard_key(0, 3)) is None
        store.save_shard("aaa", shard_key(0, 3), {"version": 999})
        assert store.load_shard("aaa", shard_key(0, 3)) is None

    def test_sweep_age_based(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("aaa", shard_key(0, 3), {"version": 1})
        # Nothing is old enough yet.
        assert store.sweep(older_than=3600.0) == 0
        # Age the analysis file only.
        old = time.time() - 7200
        analysis_path = store.analysis_path_for("aaa", "cfg")
        os.utime(analysis_path, (old, old))
        assert store.sweep(older_than=3600.0) == 1
        assert store.load_analysis("aaa", "cfg") is None
        assert store.load_shard("aaa", shard_key(0, 3)) is not None

    def test_sweep_analyses_only_leaves_shards_and_queue(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("aaa", shard_key(0, 3), {"version": 1})
        queue = FileQueue(store.queue_root)
        queue.enqueue(_task("aaa"))
        old = time.time() - 7200
        for root in (store.analysis_root, store.shard_root, queue.task_root):
            for path in root.iterdir():
                os.utime(path, (old, old))
        assert store.sweep(older_than=3600.0, analyses_only=True) == 1
        assert store.load_shard("aaa", shard_key(0, 3)) is not None
        assert queue.pending() == 1
        # The full sweep also collects shard and queue leftovers.
        assert store.sweep(older_than=3600.0) == 2
        assert store.shard_keys() == []
        assert queue.pending() == 0

    def test_clear_includes_shards_and_queue(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_shard("aaa", shard_key(0, 3), {"version": 1})
        FileQueue(store.queue_root).enqueue(_task("aaa"))
        store.clear()
        assert store.shard_keys() == []
        assert FileQueue(store.queue_root).pending() == 0


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
        # A killed run published every shard but recorded no campaign.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        shards, queue = _enqueue_all(scenario, store, shard_size=4)
        assert run_worker(queue.root, store.root).shards_done == len(shards)
        campaign, _, report = _drain_one(scenario, store, shard_size=4)
        assert report.executed == 0
        assert report.reused == report.planned == len(shards)
        assert campaign.execution_times == _serial_times(scenario)

    def test_layout_campaign_through_queue_matches_serial(self, tmp_path):
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
        shards, queue = _enqueue_all(scenario, store, shard_size=2)
        assert run_worker(queue.root, store.root, max_shards=1).shards_done == 1
        campaign, _, report = _drain_one(scenario, store, shard_size=2)
        assert (report.planned, report.reused, report.executed) == (len(shards), 1, 2)
        assert campaign.execution_times == serial.execution_times

    def test_reassembly_keeps_store_decoded_python_ints(self, tmp_path, monkeypatch):
        # The store decodes each shard column to a list of Python ints; the
        # reassembled execution times and per-run miss counters are those
        # ints, merged as they are, and equal to the serial campaign's.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        shards, queue = _enqueue_all(scenario, store, shard_size=5)
        assert run_worker(queue.root, store.root).shards_done == len(shards) == 3
        merged = {}

        def summarize(counters, runs):
            merged.update(counters)
            return summarize_misses(counters, runs)

        monkeypatch.setattr(executor_module, "summarize_misses", summarize)
        campaign = reassemble_campaign(scenario, shards, _published(scenario, store))
        serial = _serial(scenario)
        assert campaign.execution_times == serial.execution_times
        assert campaign.miss_summary == serial.miss_summary != {}
        assert {type(value) for value in campaign.execution_times} == {int}
        assert set(merged) == set(MISS_COUNTERS)
        for name, values in merged.items():
            assert len(values) == scenario.runs, name
            assert {type(value) for value in values} == {int}, name

    def test_reassemble_names_missing_shards(self, tmp_path):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        shards = plan_shards(scenario.spec_hash(), scenario.runs, 4)
        with pytest.raises(RuntimeError, match=shards[0].key):
            reassemble_campaign(scenario, shards, _published(scenario, store))

    @pytest.mark.parametrize("ttl", [0.0, -5.0, float("nan"), float("inf")])
    def test_worker_rejects_an_unusable_lease_ttl(self, tmp_path, ttl):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        _, queue = _enqueue_all(scenario, store, shard_size=4)
        with pytest.raises(ValueError, match="lease_ttl must be a positive, finite"):
            run_worker(queue.root, store.root, lease_ttl=ttl)
        assert not queue.lease_root.exists()  # nothing was claimed
        assert read_heartbeats(queue) == []

    def test_worker_heartbeats_recorded(self, tmp_path):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        _drain_one(scenario, store, shard_size=4)
        beats = read_heartbeats(FileQueue(store.queue_root))
        assert len(beats) == 1
        assert beats[0].finished
        assert beats[0].shards_done == 3
        assert beats[0].runs_done == scenario.runs

    def test_exec_status_renders_queue_and_workers(self, tmp_path):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        _drain_one(scenario, store, shard_size=4)
        text = format_exec_status(store)
        assert "finished" in text
        assert "runs/s" in text

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
        assert store.shard_keys() == []  # each recorded campaign drops its shards


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


# ---------------------------------------------------------------------------
# Crash-resume: SIGKILL an external worker mid-shard
# ---------------------------------------------------------------------------

class TestCrashResume:
    def test_sigkilled_worker_leaves_resumable_state(self, tmp_path):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        shards, queue = _enqueue_all(scenario, store, shard_size=4)

        # External worker, throttled so the kill lands between claiming the
        # first shard and executing it (deterministic kill-mid-shard).
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_EXEC_THROTTLE"] = "30"
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--store", str(store.root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 30
            lease_paths = [queue.lease_path(p) for p in queue.tasks()]
            while time.time() < deadline:
                if any(p.exists() for p in lease_paths):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker never claimed a shard")
        finally:
            worker.send_signal(signal.SIGKILL)
            worker.wait()

        # Killed mid-shard: nothing published, the claimed task still
        # pending, its lease held by a now-dead pid.
        assert store.shard_keys(scenario.spec_hash()) == []
        assert queue.pending() == len(shards)
        held = [p for p in queue.tasks() if queue.lease_for(p) is not None]
        assert held
        assert not queue.lease_for(held[0]).active()  # dead-pid detection

        # Resume in-process: the dead lease is reclaimed immediately (no
        # TTL wait) and the reassembled campaign is bit-exact with serial.
        stats = run_worker(queue.root, store.root, lease_ttl=3600.0)
        assert stats.shards_done == len(shards)
        campaign = reassemble_campaign(scenario, shards, _published(scenario, store))
        assert campaign.execution_times == _serial_times(scenario)

    def test_executor_waits_out_live_foreign_lease(self, tmp_path):
        # A shard leased by a live foreign owner (an attached worker, or an
        # orphaned pool worker of a killed coordinator) must not be stolen:
        # the executor waits until the lease dies, then reclaims and
        # executes the shard itself instead of failing reassembly.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        queue = FileQueue(store.queue_root)
        shards = plan_shards(scenario.spec_hash(), scenario.runs, 4)
        path = queue.enqueue(shard_task(scenario, shards[0], DEFAULT_ENGINE))
        # Live pid (this process), short deadline: active for ~1 second.
        assert queue.try_claim(path, "foreign-worker", ttl=1.0)
        campaign, _, report = _drain_one(scenario, store, shard_size=4)
        assert report.executed == report.planned == len(shards)
        assert campaign.execution_times == _serial_times(scenario)

    def test_resume_under_another_plan_executes_only_its_own(
        self, tmp_path, monkeypatch
    ):
        # A killed 3-lane run left one published shard (lanes 0-2), a task
        # under a dead (expired) lease, an unleased task and one a live
        # drain holds.  A rerun at 4 lanes reuses the published shard, plans
        # lanes 3-11 around it and executes that plan only: it retires the
        # dead and unleased old tasks and leaves the live one to its owner.
        scenario = _scenario()
        spec_hash = scenario.spec_hash()
        store = ResultStore(tmp_path / "store")
        old, queue = _enqueue_all(scenario, store, shard_size=3)
        assert run_worker(queue.root, store.root, max_shards=1).shards_done == 1
        assert queue.try_claim(queue.task_path(spec_hash, old[1].key), "dead", ttl=-1.0)
        live = queue.task_path(spec_hash, old[3].key)
        assert queue.try_claim(live, "other-drain", ttl=600.0)
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
        assert queue.tasks() == [live]
        assert list(queue.lease_root.glob("*.lease")) == [queue.lease_path(live)]

    def test_resume_at_another_size_reuses_published_lanes(self, tmp_path, monkeypatch):
        # A killed 6-lane run published 2 of its 4 shards (lanes 0-11).  The
        # resume at 8 lanes keeps them and executes lanes 12-23 only.
        scenario = _scenario(runs=24)
        store = ResultStore(tmp_path / "store")
        _, queue = _enqueue_all(scenario, store, shard_size=6)
        assert run_worker(queue.root, store.root, max_shards=2).shards_done == 2
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
        shards, queue = _enqueue_all(scenario, store, shard_size=3)

        # "Killed" first attempt: the worker exits after two of four shards.
        stats = run_worker(queue.root, store.root, max_shards=2)
        assert stats.shards_done == 2
        assert len(store.shard_keys(scenario.spec_hash())) == 2

        # Rerun through the study runner: published shards are reused.
        results = execute_scenarios([scenario], store=store, shard_size=3)
        assert results.report.shards_planned == 4
        assert results.report.shards_reused == 2
        assert results.report.shards_executed == 2
        outcome = next(iter(results))
        assert outcome.campaign.execution_times == _serial_times(scenario)
        # The final campaign entry supersedes its shards.
        assert store.shard_keys(scenario.spec_hash()) == []
        assert store.load(scenario.spec_hash()) is not None
        # A second rerun is a pure store hit: nothing planned or executed.
        again = execute_scenarios([scenario], store=store, shard_size=3)
        assert again.report.full_cache_hit
        assert again.report.shards_planned == 0
        assert (
            next(iter(again)).campaign.execution_times
            == outcome.campaign.execution_times
        )

    def test_interrupted_default_call_resumes(self, tmp_path, monkeypatch):
        # A default call (one in-process worker, one shard per campaign) is
        # interrupted once its first campaign's shard is published: the
        # rerun reuses that shard and executes only the other campaign's.
        scenarios = [replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in (1, 2)]
        store = ResultStore(tmp_path / "store")

        def interrupted(telemetry, runs):
            raise KeyboardInterrupt

        monkeypatch.setattr(WorkerTelemetry, "published", interrupted)
        with pytest.raises(KeyboardInterrupt):
            execute_scenarios(scenarios, store)
        monkeypatch.undo()
        assert len(store.shard_keys()) == 1
        results = execute_scenarios(scenarios, store)
        report = results.report
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (
            2, 1, 1
        )
        for scenario in scenarios:
            campaign = results.campaign(scenario.display_label)
            assert campaign.execution_times == _serial_times(scenario)
        assert store.shard_keys() == []

    def test_no_cache_rerun_simulates_every_lane(self, tmp_path):
        # A forced refresh after a killed run reuses none of its published
        # shards.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        _, queue = _enqueue_all(scenario, store, shard_size=4)
        assert run_worker(queue.root, store.root, max_shards=1).shards_done == 1
        results = execute_scenarios([scenario], store, use_cache=False, shard_size=4)
        report = results.report
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (
            3, 0, 3
        )
        assert next(iter(results)).campaign.execution_times == _serial_times(scenario)

    def test_a_hit_clears_the_shards_a_killed_drain_left(self, tmp_path):
        # A drain killed after it stored a campaign and before it cleared the
        # campaign's shards leaves them; the campaign's next hit, queued or
        # inline, clears them, and leaves other campaigns' shards alone.
        scenario, other = _scenario(), _scenario(master_seed=78)
        store = ResultStore(tmp_path / "store")
        shards, queue = _enqueue_all(scenario, store, shard_size=3)
        run_worker(queue.root, store.root)
        store.save(scenario, reassemble_campaign(scenario, shards, _published(scenario, store)))
        _enqueue_all(other, store, shard_size=3)
        run_worker(queue.root, store.root, max_shards=1)
        assert execute_scenarios([scenario], store=store).report.full_cache_hit
        assert store.shard_keys() == [(other.spec_hash(), shard_key(0, 3))]


class TestShardDecodes:
    """A queued drain stats shards until reassembly, which decodes each once."""

    @staticmethod
    def _count_loads(monkeypatch):
        loads = []
        original = ResultStore.load_shard

        def counting(store, spec_hash, key):
            loads.append(key)
            return original(store, spec_hash, key)

        monkeypatch.setattr(ResultStore, "load_shard", counting)
        return loads

    def test_a_cold_sharded_study_decodes_each_shard_once(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        loads = self._count_loads(monkeypatch)
        argv = [
            "study", "run", "fig5", "--runs", "24", "--shard-size", "6",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        # fig5 plans two campaigns of 24 runs: four 6-lane shards each.
        assert len(loads) == 8 and len(set(loads)) == 4

    def test_a_resume_over_a_corrupt_shard_converges(self, tmp_path, monkeypatch):
        scenario = _scenario()
        spec_hash = scenario.spec_hash()
        clean = ResultStore(tmp_path / "clean")
        execute_scenarios([scenario], store=clean, shard_size=3)

        store = ResultStore(tmp_path / "store")
        shards, queue = _enqueue_all(scenario, store, shard_size=3)
        assert run_worker(queue.root, store.root, max_shards=3).shards_done == 3
        published = store.shard_path_for(spec_hash, shards[1].key)
        published.write_bytes(published.read_bytes()[:-5])  # truncated
        assert store.has_shard(spec_hash, shards[1].key)
        assert store.load_shard(spec_hash, shards[1].key) is None

        loads = self._count_loads(monkeypatch)
        results = execute_scenarios([scenario], store=store, shard_size=3)
        # The missing shard and the corrupt one execute; the corrupt one is
        # decoded twice (before and after it is executed again).
        assert results.report.shards_executed == 2
        assert len(loads) == len(shards) + 1
        assert next(iter(results)).campaign.execution_times == _serial_times(scenario)
        assert store.path_for(spec_hash).read_bytes() == clean.path_for(spec_hash).read_bytes()
        assert store.shard_keys(spec_hash) == []


# ---------------------------------------------------------------------------
# Overlapping drains of one spec (two server jobs, or study run beside one)
# ---------------------------------------------------------------------------

class TestOverlappingDrains:
    """A drain that meets a campaign another drain recorded returns that
    entry; it never re-enqueues the shards the other drain cleared."""

    @staticmethod
    def _count_executed(monkeypatch):
        """Record the key of every shard ShardRunner executes from now on."""
        executed = []
        original = ShardRunner.execute

        def counting(runner, task):
            executed.append(task["key"])
            return original(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", counting)
        return executed

    @classmethod
    def _another_drain_records_while_waiting(cls, scenario, store, monkeypatch):
        """Lease the first of the campaign's three shards to a live foreign
        owner that, while the drain waits on it, publishes the shard,
        records the campaign and clears its shards.  Returns the keys of
        the shards the drain itself executes."""
        spec_hash = scenario.spec_hash()
        shards, queue = _enqueue_all(scenario, store, shard_size=4)
        foreign = queue.task_path(spec_hash, shards[0].key)
        assert queue.try_claim(foreign, "other-job", ttl=600)
        # The other job's execute and save are not counted below.
        other_job_execute, other_job_save = ShardRunner.execute, ResultStore.save
        executed = cls._count_executed(monkeypatch)

        def other_job_finishes(seconds):
            task = shard_task(scenario, shards[0], DEFAULT_ENGINE)
            store.save_shard(spec_hash, shards[0].key, other_job_execute(ShardRunner(), task))
            campaign = reassemble_campaign(scenario, shards, _published(scenario, store))
            other_job_save(store, scenario, campaign)
            store.clear_shards(spec_hash)
            queue.complete(foreign, "other-job")
            fake_time.sleep = time.sleep

        fake_time = SimpleNamespace(sleep=other_job_finishes)
        monkeypatch.setattr(executor_module, "time", fake_time)
        return shards, queue, executed

    def test_wait_returns_the_campaign_another_drain_recorded(
        self, tmp_path, monkeypatch
    ):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        shards, queue, executed = self._another_drain_records_while_waiting(
            scenario, store, monkeypatch
        )
        campaign, from_store, report = _drain_one(scenario, store, shard_size=4)
        assert sorted(executed) == sorted(shard.key for shard in shards[1:])
        assert campaign.execution_times == _serial_times(scenario)
        assert from_store
        assert (report.planned, report.reused, report.executed) == (3, 0, 2)
        assert queue.pending() == 0

    def test_campaign_another_drain_recorded_is_a_cache_hit(self, tmp_path, monkeypatch):
        # The study runner counts the returned campaign as a store hit and
        # does not save the entry the other drain recorded a second time.
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        self._another_drain_records_while_waiting(scenario, store, monkeypatch)
        saves = []
        monkeypatch.setattr(ResultStore, "save", lambda *args: saves.append(args))
        results = execute_scenarios([scenario], store, shard_size=4)
        report = results.report
        assert (report.simulated, report.cache_hits, report.stored) == (0, 1, 0)
        assert report.shards_executed == 2
        assert saves == []
        outcome = next(iter(results))
        assert outcome.from_cache
        assert outcome.campaign.execution_times == _serial_times(scenario)

    def test_recorded_campaign_is_returned_before_anything_is_enqueued(
        self, tmp_path, monkeypatch
    ):
        scenario = _scenario()
        store = ResultStore(tmp_path / "store")
        execute_scenarios([scenario], store, shard_size=4)
        executed = self._count_executed(monkeypatch)
        campaign, from_store, _ = _drain_one(scenario, store, shard_size=4)
        assert executed == [] and from_store
        assert campaign.execution_times == _serial_times(scenario)
        assert FileQueue(store.queue_root).pending() == 0


# ---------------------------------------------------------------------------
# A failing campaign does not fail the drains after it
# ---------------------------------------------------------------------------

class TestFailingCampaign:
    """A shard that raises retires its campaign's queued tasks, and a
    coordinator drains only its own campaign's tasks."""

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
        queue = FileQueue(store.queue_root)
        self._fail_campaign(failed, monkeypatch)
        with pytest.raises(ValueError, match="shard failed"):
            _drain_one(failed, store, shard_size=3)
        campaign, from_store, _ = _drain_one(good, store, shard_size=3)
        assert not from_store
        self._assert_matches_serial(campaign, good)
        assert queue.pending() == 0
        assert list(queue.lease_root.glob("*.lease")) == []

    def test_drain_leaves_another_campaigns_tasks_queued(self, tmp_path, monkeypatch):
        pending, good = _scenario(master_seed=1), _scenario(master_seed=2)
        store = ResultStore(tmp_path / "store")
        shards, queue = _enqueue_all(pending, store, shard_size=3)
        self._fail_campaign(pending, monkeypatch)
        campaign, _, _ = _drain_one(good, store, shard_size=3)
        self._assert_matches_serial(campaign, good)
        assert queue.tasks() == [
            queue.task_path(pending.spec_hash(), shard.key) for shard in shards
        ]

    def test_failure_inside_a_call_retires_only_its_campaign(
        self, tmp_path, monkeypatch
    ):
        # One worker drains a, then fails on b's first shard: b's tasks are
        # retired, a's shards stay published and c's tasks stay queued.  A
        # rerun reuses a's shards and executes b's and c's.
        first, failed, last = (
            replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in (1, 2, 3)
        )
        store = ResultStore(tmp_path / "store")
        queue = FileQueue(store.queue_root)
        self._fail_campaign(failed, monkeypatch)
        with pytest.raises(ValueError, match="shard failed"):
            _drain([first, failed, last], store, shard_size=3)
        assert queue.tasks(failed.spec_hash()) == []
        assert len(store.shard_keys(first.spec_hash())) == 4
        assert len(queue.tasks(last.spec_hash())) == 4
        assert list(queue.lease_root.glob("*.lease")) == []
        monkeypatch.undo()
        results = execute_scenarios([first, failed, last], store, shard_size=3)
        report = results.report
        assert (report.shards_planned, report.shards_reused, report.shards_executed) == (
            12, 4, 8
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

    def test_call_drains_whole_campaigns_on_one_set_of_workers(self, tmp_path):
        # Four campaigns and two workers: one shard per campaign, and one
        # worker process (one heartbeat) per worker for the whole call.
        store = ResultStore(tmp_path / "store")
        scenarios = [replace(_scenario(master_seed=seed), label=f"seed {seed}") for seed in range(4)]
        results = execute_scenarios(scenarios, store, jobs=2)
        report = results.report
        assert report.shards_planned == report.shards_executed == 4
        assert len(list(FileQueue(store.queue_root).worker_root.iterdir())) == 2
        assert len(read_heartbeats(FileQueue(store.queue_root))) == 2
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
        queue = FileQueue(store.queue_root)
        assert store.shard_keys() == [] and queue.tasks() == []
        assert list(queue.lease_root.glob("*")) == []
        for scenario in scenarios:
            assert results.campaign(scenario.display_label).execution_times == (
                _serial_times(scenario)
            )

    def test_layout_campaign_with_shard_size_goes_through_the_queue(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = _layout_scenario()
        results = execute_scenarios([scenario], store=store, shard_size=4)
        assert results.report.shards_planned == results.report.shards_executed == 2
        assert next(iter(results)).campaign.execution_times == _serial_times(scenario)
        assert store.shard_keys(scenario.spec_hash()) == []  # superseded by the entry
        again = execute_scenarios([scenario], store=store, shard_size=4)
        assert again.report.full_cache_hit

    def test_report_summary_names_the_shards_of_a_cold_call(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = execute_scenarios([_scenario()], store=store)
        assert cold.report.summary().endswith("; 1 of 1 shards executed (0 reused)")
        warm = execute_scenarios([_scenario()], store=store)
        assert warm.report.full_cache_hit
        assert "shards" not in warm.report.summary()

    def test_telemetry_rate_limit_always_writes_transitions(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        telemetry = WorkerTelemetry(queue, "owner-1")
        telemetry.claimed()
        telemetry.published(runs=5)
        telemetry.finish()
        (beat,) = read_heartbeats(queue)
        assert beat.shards_claimed == 1
        assert beat.shards_done == 1
        assert beat.runs_done == 5
        assert beat.finished

    def test_age_sweep_keeps_a_live_workers_heartbeat_listed(self, tmp_path):
        # A sweep must not hide a live worker whose heartbeat is fresh, even
        # when every other file of its queue directory is old.
        store = ResultStore(tmp_path / "store")
        queue = FileQueue(store.queue_root)
        worker_a = WorkerTelemetry(queue, "worker-a")
        two_hours_ago = time.time() - 7200
        for path in queue.worker_root.iterdir():
            os.utime(path, (two_hours_ago, two_hours_ago))
        worker_a.claimed()  # every state transition rewrites the heartbeat
        store.sweep(older_than=3600)
        WorkerTelemetry(queue, "worker-b")
        assert [beat.owner for beat in read_heartbeats(queue)] == ["worker-a", "worker-b"]

"""Benchmarks of the study subsystem: caching and the store tier.

``test_cache_hit_speedup`` measures resolving a study from the on-disk
result store instead of simulating it.

``test_store_roundtrip_breakdown`` measures the persistence tier itself:
cold writes, warm reads and shard reassembly through the binary columnar
format head-to-head against the JSON-era text encoding, plus the sim vs
store-I/O vs analysis split of a warm ``study run``.  The measured
breakdown is persisted to ``BENCH_study.json`` at the repo root (the
``BENCH_engine.json`` idiom) — CI asserts the JSON-vs-columnar round-trip
ratio there, not here (shared CI boxes are noisy, so in-test assertions
stay structural).
"""

import gc
import json
import os
import time
from pathlib import Path

from repro.analysis.campaign import CampaignResult
from repro.study import (
    HierarchySpec,
    ResultStore,
    Scenario,
    WorkloadSpec,
    execute_scenarios,
)

#: Machine-readable benchmark trajectory, tracked across PRs (repo root).
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_study.json"


def _emit_bench_json(path: Path, payload: dict) -> None:
    payload = dict(payload, written_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _timed(callable_, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds (gc paused while timing)."""
    best = float("inf")
    for _ in range(repeats):
        gc.disable()
        try:
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best

#: Seed-replication sweep: one scenario per seed base, all sharing the same
#: (workload, hierarchy), so the runner builds the trace once.
SWEEP_WIDTH = 8
RUNS_PER_SCENARIO = 32


def _sweep():
    workload = WorkloadSpec.eembc("a2time")
    hierarchy = HierarchySpec.named("rm")
    return [
        Scenario(
            workload=workload,
            hierarchy=hierarchy,
            runs=RUNS_PER_SCENARIO,
            master_seed=1000 * index,
            label=f"replica_{index}",
        )
        for index in range(SWEEP_WIDTH)
    ]


def test_cache_hit_speedup(tmp_path, capsys):
    """Resolving a sweep from the result store vs simulating it."""
    store = ResultStore(tmp_path / "store")
    scenarios = _sweep()
    start = time.perf_counter()
    cold = execute_scenarios(scenarios, store=store)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = execute_scenarios(scenarios, store=store)
    warm_seconds = time.perf_counter() - start
    assert warm.report.full_cache_hit
    for label in cold.labels():
        assert warm.campaign(label).execution_times == cold.campaign(label).execution_times
    with capsys.disabled():
        print(
            f"\nresult store: cold {cold_seconds:.2f}s, warm {warm_seconds:.3f}s "
            f"({cold_seconds / max(warm_seconds, 1e-9):.0f}x)"
        )


# ---------------------------------------------------------------------------
# Persistence-tier breakdown (BENCH_study.json)
# ---------------------------------------------------------------------------

#: Store-tier microbenchmark shape: entries x runs, shards per entry.
#: Large campaigns on purpose — the point of the columnar format is the
#: per-element serialization cost, so runs must dominate the fixed
#: per-file syscall cost (os.replace) that both codecs pay equally.
#: 64K runs per campaign is the high-confidence MBPTA regime (tail fits
#: at 10^-15 want 10^4..10^5 observations).
STORE_ENTRIES = 8
STORE_RUNS = 65536
SHARDS_PER_ENTRY = 4


def _synthetic_entries():
    """Deterministic (scenario, campaign, miss summary) triples — large
    enough that serialization, not hashing, dominates."""
    entries = []
    for index in range(STORE_ENTRIES):
        scenario = Scenario(
            workload=WorkloadSpec.synthetic(20480, 64),
            hierarchy=HierarchySpec.named("rm"),
            runs=STORE_RUNS,
            master_seed=1_000_000 + index,
            label=f"entry_{index}",
        )
        times = [70_000 + (index * 37 + j * 11) % 50_000 for j in range(STORE_RUNS)]
        campaign = CampaignResult(
            workload="synthetic_20KB",
            setup="rm",
            execution_times=times,
            master_seed=scenario.effective_seed,
        )
        summary = {
            "memory_accesses": 65_536.0,
            "il1_misses": 306.0,
            "dl1_misses": 2_048.0,
            "l2_misses": 512.0,
            "il1_miss_rate": 306.0 / 65_536.0,
            "dl1_miss_rate": 2_048.0 / 65_536.0,
            "l2_miss_rate": 512.0 / 65_536.0,
        }
        entries.append((scenario, campaign, summary))
    return entries


def _json_entry_payload(scenario, campaign, summary):
    """The JSON-era store entry, as the pre-columnar store wrote it."""
    return {
        "version": 1,
        "spec": scenario.spec_dict(),
        "workload": campaign.workload,
        "setup": campaign.setup,
        "master_seed": campaign.master_seed,
        "execution_times": list(campaign.execution_times),
        "miss_summary": dict(summary),
    }


def _json_save(root, scenario, campaign, summary):
    """The JSON-era ``ResultStore.save``: build the payload, dump sorted-key
    text, write via tmp + os.replace (same work the legacy store did)."""
    path = root / f"{scenario.spec_hash()}.json"
    temporary = path.with_suffix(".json.tmp")
    temporary.write_text(
        json.dumps(_json_entry_payload(scenario, campaign, summary), sort_keys=True)
    )
    os.replace(temporary, path)


def _json_load(root, name):
    """The JSON-era ``ResultStore.load``: parse + per-element coercion."""
    payload = json.loads((root / f"{name}.json").read_text())
    if payload["version"] != 1:
        return None
    return {
        "execution_times": [int(value) for value in payload["execution_times"]],
        "miss_summary": {
            str(key): float(value)
            for key, value in payload.get("miss_summary", {}).items()
        },
    }


def _json_write(root, name, payload):
    """Raw legacy shard write: sorted-key JSON text via tmp + os.replace."""
    path = root / f"{name}.json"
    temporary = path.with_suffix(".json.tmp")
    temporary.write_text(json.dumps(payload, sort_keys=True))
    os.replace(temporary, path)


def _shard_payload(scenario, campaign, start, count):
    times = campaign.execution_times[start : start + count]
    return {
        "version": 1,
        "spec_hash": scenario.spec_hash(),
        "start": start,
        "count": count,
        "workload": campaign.workload,
        "engine": "numpy",
        "cycles": list(times),
        "memory_accesses": [65_536] * count,
        "il1_misses": [306] * count,
        "dl1_misses": [2_048] * count,
        "l2_misses": [512] * count,
    }


def test_store_roundtrip_breakdown(tmp_path, capsys):
    """Columnar vs JSON persistence head-to-head; emits BENCH_study.json."""
    entries = _synthetic_entries()
    store = ResultStore(tmp_path / "store")
    json_root = tmp_path / "json_store"
    json_root.mkdir()

    # --- campaign entries: cold write + warm read, both codecs -------------
    def columnar_write():
        for scenario, campaign, summary in entries:
            store.save(scenario, campaign, summary)

    def columnar_read():
        # The store's native warm read: mmap'd zero-copy column views, the
        # form every bulk consumer (run table, MBPTA fits, reassembly)
        # actually wants.  The JSON baseline cannot serve arrays without
        # per-element parsing — that asymmetry is the tax being measured.
        for scenario, _, _ in entries:
            meta, columns = store.load_columns(scenario.spec_hash())
            assert columns["execution_times"].size == STORE_RUNS

    def columnar_read_lists():
        # The compatibility read (`load`): materializes Python ints, for
        # consumers that still want the JSON-era list contract.
        for scenario, _, _ in entries:
            assert store.load(scenario.spec_hash()) is not None

    names = [scenario.spec_hash() for scenario, _, _ in entries]

    def json_write():
        for scenario, campaign, summary in entries:
            _json_save(json_root, scenario, campaign, summary)

    def json_read():
        for name in names:
            assert _json_load(json_root, name) is not None

    columnar = {
        "cold_write_seconds": _timed(columnar_write),
        "warm_read_seconds": _timed(columnar_read),
        "warm_read_lists_seconds": _timed(columnar_read_lists),
    }
    legacy = {
        "cold_write_seconds": _timed(json_write),
        "warm_read_seconds": _timed(json_read),
    }

    # Bit-exactness across the codecs: both the compatibility read and the
    # column view decode to the same Python ints the JSON era returned.
    for scenario, campaign, _ in entries:
        stored = store.load(scenario.spec_hash())
        assert stored.execution_times == list(campaign.execution_times)
        _, columns = store.load_columns(scenario.spec_hash())
        assert columns["execution_times"].tolist() == list(campaign.execution_times)

    # --- shard publish + reassembly, both codecs ---------------------------
    shard_count = STORE_RUNS // SHARDS_PER_ENTRY
    shards = [
        (scenario, key, _shard_payload(scenario, campaign, start, shard_count))
        for scenario, campaign, _ in entries[:4]
        for key, start in (
            (f"{i * shard_count}-{(i + 1) * shard_count - 1}", i * shard_count)
            for i in range(SHARDS_PER_ENTRY)
        )
    ]

    def columnar_publish():
        for scenario, key, payload in shards:
            store.save_shard(scenario.spec_hash(), key, payload)

    def columnar_reassemble():
        for scenario, key, payload in shards:
            loaded = store.load_shard(scenario.spec_hash(), key)
            assert len(loaded["cycles"]) == payload["count"]

    def json_publish():
        for scenario, key, payload in shards:
            _json_write(json_root, f"{scenario.spec_hash()}.{key}", payload)

    def json_reassemble():
        for scenario, key, payload in shards:
            loaded = json.loads(
                (json_root / f"{scenario.spec_hash()}.{key}.json").read_text()
            )
            assert len([int(v) for v in loaded["cycles"]]) == payload["count"]

    columnar["shard_publish_seconds"] = _timed(columnar_publish)
    columnar["reassembly_seconds"] = _timed(columnar_reassemble)
    legacy["shard_publish_seconds"] = _timed(json_publish)
    legacy["reassembly_seconds"] = _timed(json_reassemble)

    # Shard round-trip is bit-exact too.
    scenario, key, payload = shards[0]
    assert store.load_shard(scenario.spec_hash(), key)["cycles"] == payload["cycles"]

    round_trip_ratio = (
        legacy["cold_write_seconds"] + legacy["warm_read_seconds"]
    ) / (columnar["cold_write_seconds"] + columnar["warm_read_seconds"])
    round_trip_lists_ratio = (
        legacy["cold_write_seconds"] + legacy["warm_read_seconds"]
    ) / (columnar["cold_write_seconds"] + columnar["warm_read_lists_seconds"])
    reassembly_ratio = (
        legacy["shard_publish_seconds"] + legacy["reassembly_seconds"]
    ) / (columnar["shard_publish_seconds"] + columnar["reassembly_seconds"])

    # --- warm `study run`: sim vs store-I/O vs analysis --------------------
    scenarios = _sweep()
    study_store = ResultStore(tmp_path / "study_store")
    start = time.perf_counter()
    execute_scenarios(scenarios, store=study_store)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = execute_scenarios(scenarios, store=study_store)
    warm_seconds = time.perf_counter() - start
    assert warm.report.full_cache_hit
    warm_study = {
        "scenarios": len(scenarios),
        "runs_per_scenario": RUNS_PER_SCENARIO,
        "cold_execute_seconds": cold_seconds,  # simulation + store writes
        "warm_execute_seconds": warm_seconds,  # pure store I/O
        "warm_speedup": cold_seconds / max(warm_seconds, 1e-9),
    }

    _emit_bench_json(
        BENCH_JSON,
        {
            "benchmark": "store-roundtrip-breakdown",
            "entries": STORE_ENTRIES,
            "runs_per_entry": STORE_RUNS,
            "shards_per_entry": SHARDS_PER_ENTRY,
            "columnar": columnar,
            "json": legacy,
            "json_vs_columnar_round_trip": round_trip_ratio,
            "json_vs_columnar_round_trip_lists": round_trip_lists_ratio,
            "json_vs_columnar_reassembly": reassembly_ratio,
            "warm_study": warm_study,
        },
    )

    with capsys.disabled():
        print(
            f"\nstore tier ({STORE_ENTRIES} entries x {STORE_RUNS} runs): "
            f"columnar write {columnar['cold_write_seconds']:.3f}s / "
            f"read {columnar['warm_read_seconds']:.3f}s, "
            f"json write {legacy['cold_write_seconds']:.3f}s / "
            f"read {legacy['warm_read_seconds']:.3f}s "
            f"-> round-trip {round_trip_ratio:.1f}x "
            f"({round_trip_lists_ratio:.1f}x to lists), "
            f"reassembly {reassembly_ratio:.1f}x; "
            f"warm study {warm_study['warm_speedup']:.0f}x"
        )
    # Structural floor only (CI asserts the >= 3x bar on BENCH_study.json,
    # where the noisy-box caveat is visible in the artifact).
    assert round_trip_ratio > 1.0
    assert BENCH_JSON.is_file()

"""The columnar result-store tier (repro.study.columnar + store format).

The codec itself is a pure function pinned by round-trip tests; what these
tests certify is the *storage contract*: columnar entries round-trip
bit-exact with the JSON era, JSON-era files are neither read nor listed
(the store is a cache; those campaigns re-simulate), corrupt or truncated
payloads read as misses and self-heal on the next save, the manifest stays
a disposable index over the entry files, and ``clear`` leaves no orphaned
files behind.
"""

import json
import threading

import numpy as np
import pytest

from repro.study import ResultStore, Scenario, WorkloadSpec, HierarchySpec
from repro.study import columnar
from repro.study.columnar import (
    COLUMNAR_SUFFIX,
    is_columnar,
    pack_entry,
    read_columns,
    read_entry,
    unpack_entry,
)
from repro.analysis.campaign import CampaignResult


def tiny_scenario(**overrides) -> Scenario:
    defaults = dict(
        workload=WorkloadSpec.synthetic(4 * 1024, iterations=2),
        hierarchy=HierarchySpec.named("rm"),
        runs=24,
        master_seed=99,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def campaign_for(scenario, times=None):
    times = times if times is not None else [1000 + 7 * i for i in range(scenario.runs)]
    return CampaignResult(
        workload="synthetic_4KB",
        setup="rm",
        execution_times=times,
        master_seed=scenario.effective_seed,
    )


MISS_SUMMARY = {"il1_miss_rate": 0.25, "dl1_miss_rate": 0.5, "l2_miss_rate": 0.125}


def json_era_payload(scenario, campaign, summary=MISS_SUMMARY):
    """A JSON-era store entry, as the pre-columnar code wrote it."""
    return {
        "version": 1,
        "spec": scenario.spec_dict(),
        "workload": campaign.workload,
        "setup": campaign.setup,
        "master_seed": campaign.master_seed,
        "execution_times": list(campaign.execution_times),
        "miss_summary": dict(summary),
    }


# ---------------------------------------------------------------------------
# Codec: round trip, dtype narrowing, corruption
# ---------------------------------------------------------------------------


class TestCodec:
    def test_round_trip_preserves_meta_and_columns_exactly(self):
        meta = {"version": 1, "spec": {"runs": 3, "nested": [1, "two"]}, "note": "x"}
        columns = {"cycles": [5, 70_000, 123], "misses": [0, 1, 2]}
        frame = pack_entry(meta, columns)
        assert is_columnar(frame)
        got_meta, got_columns = unpack_entry(frame)
        assert got_meta == meta
        assert got_columns == {"cycles": [5, 70_000, 123], "misses": [0, 1, 2]}
        # Plain Python ints, bit-exact with the JSON era.
        assert all(type(v) is int for v in got_columns["cycles"])

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([0, 255], "u1"),
            ([0, 256], "u2"),
            ([0, 0xFFFF], "u2"),
            ([0, 0x10000], "u4"),
            ([0, 0xFFFFFFFF], "u4"),
            ([0, 0x100000000], "u8"),
            ([-1, 5], "i8"),
            ([], "u1"),
        ],
    )
    def test_narrowest_sufficient_dtype(self, values, expected):
        frame = pack_entry({}, {"c": values})
        header = json.loads(
            frame[len(b"RCOL1\x00") + 4 :][
                : int.from_bytes(frame[6:10], "big")
            ].decode()
        )
        (spec,) = header["columns"]
        assert spec["dtype"] == expected
        assert spec["count"] == len(values)
        assert unpack_entry(frame)[1]["c"] == list(values)

    def test_values_beyond_int64_take_the_slow_path_but_round_trip(self):
        values = [0, 2**64 - 1]  # overflows the i8 fast path, fits u8
        meta, columns = unpack_entry(pack_entry({}, {"c": values}))
        assert columns["c"] == values

    def test_column_order_defines_payload_layout(self):
        frame = pack_entry({}, {"b": [1, 2], "a": [3]})
        _, columns = unpack_entry(frame)
        assert list(columns) == ["b", "a"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda frame: b"JUNK" + frame[4:],  # bad magic
            lambda frame: frame[:8],  # truncated header
            lambda frame: frame[:-1],  # truncated payload
            lambda frame: frame[:-1] + bytes([frame[-1] ^ 0xFF]),  # bit flip
            lambda frame: frame + b"\x00",  # trailing bytes
        ],
    )
    def test_corruption_raises_value_error(self, mutate):
        frame = pack_entry({"version": 1}, {"c": [1, 2, 70_000]})
        with pytest.raises(ValueError):
            unpack_entry(mutate(frame))

    def test_header_that_is_not_json_raises_value_error(self):
        payload = b""
        header = b"not json at all"
        frame = b"RCOL1\x00" + len(header).to_bytes(4, "big") + header + payload
        with pytest.raises(ValueError):
            unpack_entry(frame)

    def test_read_columns_is_a_zero_copy_view(self, tmp_path):
        path = tmp_path / f"entry{COLUMNAR_SUFFIX}"
        path.write_bytes(pack_entry({"version": 1}, {"c": [9, 8, 70_000]}))
        meta, arrays = read_columns(path)
        assert meta == {"version": 1}
        assert arrays["c"].tolist() == [9, 8, 70_000]
        # A view over the mapped file, not a materialized copy.
        assert arrays["c"].base is not None
        assert read_entry(path) == ({"version": 1}, {"c": [9, 8, 70_000]})


# ---------------------------------------------------------------------------
# Store: columnar entries
# ---------------------------------------------------------------------------


class TestStoreEntries:
    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        campaign = campaign_for(scenario)
        path = store.save(scenario, campaign, MISS_SUMMARY)
        assert path.suffix == COLUMNAR_SUFFIX
        stored = store.load(scenario.spec_hash())
        assert stored.execution_times == campaign.execution_times
        assert all(type(v) is int for v in stored.execution_times)
        assert stored.miss_summary == MISS_SUMMARY
        assert stored.spec == scenario.spec_dict()

    def test_corrupt_columnar_entry_is_a_miss_and_self_heals(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        campaign = campaign_for(scenario)
        store.save(scenario, campaign, MISS_SUMMARY)
        spec_hash = scenario.spec_hash()

        store.path_for(spec_hash).write_text("not a columnar frame")
        assert store.load(spec_hash) is None  # miss, never an error

        store.save(scenario, campaign, MISS_SUMMARY)  # the next save heals it
        assert store.load(spec_hash).execution_times == campaign.execution_times

    def test_json_era_entry_is_a_miss_and_unlisted(self, tmp_path):
        # Stores are caches: a valid pre-columnar entry is neither read,
        # listed nor migrated, so its campaign re-simulates bit-exactly.
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        spec_hash = scenario.spec_hash()
        store.shard_root.mkdir(parents=True)
        (store.root / f"{spec_hash}.json").write_text(
            json.dumps(json_era_payload(scenario, campaign_for(scenario)))
        )
        (store.shard_root / f"{spec_hash}.0-2.json").write_text(json.dumps(SHARD_PAYLOAD))
        assert store.load(spec_hash) is None
        assert store.load_columns(spec_hash) is None
        assert store.load_shard(spec_hash, "0-2") is None
        assert store.keys() == [] and store.shard_keys() == []
        assert not store.path_for(spec_hash).exists()


class TestLoadColumns:
    def test_columnar_entry_returns_array_views(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        campaign = campaign_for(scenario)
        store.save(scenario, campaign, MISS_SUMMARY)
        meta, columns = store.load_columns(scenario.spec_hash())
        assert meta["spec"] == scenario.spec_dict()
        assert meta["miss_summary"] == MISS_SUMMARY
        times = columns["execution_times"]
        assert isinstance(times, np.ndarray)
        assert times.tolist() == campaign.execution_times

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path / "store").load_columns("0" * 64) is None


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


SHARD_PAYLOAD = {
    "version": 1,
    "spec_hash": "abc",
    "start": 0,
    "count": 3,
    "workload": "synthetic_4KB",
    "engine": "numpy",
    "cycles": [1000, 70_000, 1002],
    "il1_misses": [3, 0, 1],
}


class TestShards:
    def test_shard_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_shard("abc", "0-2", SHARD_PAYLOAD)
        loaded = store.load_shard("abc", "0-2")
        assert loaded["cycles"] == SHARD_PAYLOAD["cycles"]
        assert loaded["il1_misses"] == SHARD_PAYLOAD["il1_misses"]
        assert loaded["workload"] == "synthetic_4KB"
        assert store.shard_path_for("abc", "0-2").suffix == COLUMNAR_SUFFIX

    def test_corrupt_shard_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_shard("abc", "0-2", SHARD_PAYLOAD)
        store.shard_path_for("abc", "0-2").write_text("garbage")
        assert store.load_shard("abc", "0-2") is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payload = dict(SHARD_PAYLOAD, version=999)
        store.save_shard("abc", "0-2", payload)
        assert store.load_shard("abc", "0-2") is None

    def test_racing_identical_publishes_all_succeed(self, tmp_path):
        # Two workers that both executed a shard (a lease-reclaim race)
        # publish identical bytes at once; neither publish may fail.
        store = ResultStore(tmp_path / "store")
        errors = []

        def publish():
            try:
                for _ in range(200):
                    store.save_shard("abc", "0-2", SHARD_PAYLOAD)
            except OSError as error:
                errors.append(error)

        threads = [threading.Thread(target=publish) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.load_shard("abc", "0-2")["cycles"] == SHARD_PAYLOAD["cycles"]


# ---------------------------------------------------------------------------
# Manifest: a disposable index, never the source of truth
# ---------------------------------------------------------------------------


class TestManifest:
    def _saved(self, tmp_path, count=3):
        store = ResultStore(tmp_path / "store")
        hashes = []
        for i in range(count):
            scenario = tiny_scenario(master_seed=100 + i)
            store.save(scenario, campaign_for(scenario), MISS_SUMMARY)
            hashes.append(scenario.spec_hash())
        return store, sorted(hashes)

    def test_keys_are_manifest_backed_and_sorted(self, tmp_path):
        store, hashes = self._saved(tmp_path)
        assert store.keys() == hashes
        assert store.manifest_path.is_file()

    def test_deleted_manifest_rebuilds_from_a_directory_scan(self, tmp_path):
        store, hashes = self._saved(tmp_path)
        store.manifest_path.unlink()
        # A fresh instance (no warm append cache) must rematerialize it.
        assert ResultStore(store.root).keys() == hashes

    def test_resave_after_another_instance_removed_it_is_listed(self, tmp_path):
        # Instance A saves, instance B removes, A saves the same key again:
        # the file exists, so A, B and a fresh instance must all list it.
        # A per-instance "already appended" cache once skipped A's second
        # "+", leaving the re-saved entry unlisted everywhere.
        root = tmp_path / "store"
        writer, remover = ResultStore(root), ResultStore(root)

        writer.save_shard("abc", "0-2", SHARD_PAYLOAD)
        assert remover.clear_shards() == 1
        writer.save_shard("abc", "0-2", SHARD_PAYLOAD)
        assert writer.shard_path_for("abc", "0-2").is_file()
        for store in (writer, remover, ResultStore(root)):
            assert store.shard_keys() == [("abc", "0-2")]

        writer.save_analysis("abc", "deadbeef", {"version": 1})
        assert remover.sweep(older_than=0.0, analyses_only=True) == 1
        writer.save_analysis("abc", "deadbeef", {"version": 1})
        for store in (writer, remover, ResultStore(root)):
            assert store.analysis_keys() == [("abc", "deadbeef")]

    def test_republish_after_removal_relists_the_key(self, tmp_path):
        # A key removed and re-added through one instance is listed again.
        store = ResultStore(tmp_path / "store")
        store.save_shard("abc", "0-2", SHARD_PAYLOAD)
        assert store.shard_keys() == [("abc", "0-2")]
        assert store.clear_shards() == 1
        assert store.shard_keys() == []
        store.save_shard("abc", "0-2", SHARD_PAYLOAD)
        assert store.shard_keys() == [("abc", "0-2")]

    def test_torn_and_foreign_lines_are_ignored(self, tmp_path):
        store, hashes = self._saved(tmp_path)
        with open(store.manifest_path, "a") as handle:
            handle.write("+ results\n")  # torn line
            handle.write("? bogus operation\n")
            handle.write("+ unknown-kind name\n")
        assert store.keys() == hashes

# ---------------------------------------------------------------------------
# GC: sweep and clear leave no orphans
# ---------------------------------------------------------------------------


def _populated_store(tmp_path):
    """A store exercising every artifact kind the format knows about."""
    from repro.study import build_run_table

    store = ResultStore(tmp_path / "store")
    scenario = tiny_scenario()
    store.save(scenario, campaign_for(scenario), MISS_SUMMARY)
    store.save_analysis(scenario.spec_hash(), "deadbeef", {"version": 1})
    store.save_shard(scenario.spec_hash(), "0-2", SHARD_PAYLOAD)
    store.record_study("smoke", [scenario.spec_hash()])
    build_run_table(store)  # materializes runtable/rows.json
    # Stray tmp files from interrupted writers, queue artifacts.
    (store.root / "orphan.rcol.tmp").write_bytes(b"")
    (store.analysis_root / "orphan.json.tmp").write_text("")
    (store.shard_root / "orphan.rcol.tmp").write_bytes(b"")
    for sub in ("tasks", "leases", "workers"):
        directory = store.queue_root / sub
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "w1.json").write_text("{}")
    return store


class TestGarbageCollection:
    def test_clear_leaves_no_orphaned_files(self, tmp_path):
        store = _populated_store(tmp_path)
        removed = store.clear()
        assert removed >= 1
        leftovers = [p for p in store.root.rglob("*") if p.is_file()]
        assert leftovers == []

    def test_sweep_covers_tmp_and_runtable_artifacts(self, tmp_path):
        store = _populated_store(tmp_path)
        assert store.sweep(older_than=0.0) > 0
        # Campaign entries are the results — a sweep never touches them —
        # and the manifest/provenance bookkeeping stays.  Everything
        # derived (analyses, shards, run-table rows, queue files, stray
        # ``*.tmp``) must be gone.
        survivors = sorted(
            p.name for p in store.root.rglob("*") if p.is_file()
        )
        scenario = tiny_scenario()
        assert survivors == sorted(
            [
                f"{scenario.spec_hash()}.rcol",
                "manifest.log",
                "studies.log",
            ]
        )

    def test_analyses_only_sweep_keeps_campaign_entries(self, tmp_path):
        store = _populated_store(tmp_path)
        keys_before = store.keys()
        store.sweep(older_than=0.0, analyses_only=True)
        assert store.keys() == keys_before
        assert store.analysis_keys() == []

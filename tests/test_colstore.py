"""The columnar result-store tier (repro.study.columnar + store format).

The codec itself is a pure function pinned by round-trip tests; what these
tests certify is the *storage contract*: a campaign stored as published
lane ranges round-trips bit-exact with the JSON era, files of older
layouts (JSON-era entries, top-level campaign entries) are neither read
nor listed (the store is a cache; those campaigns re-simulate), corrupt or
truncated ranges read as misses and self-heal on the next publish, key
listings and sweep candidates come from the files themselves (no index
file is written), a sweep never removes a range, and ``clear`` leaves no
orphaned files behind.
"""

import json
import os
import threading

import numpy as np
import pytest
from conftest import publish_range

from repro.study import ResultStore, Scenario, WorkloadSpec, HierarchySpec
from repro.study import columnar
from repro.study.columnar import COLUMNAR_SUFFIX, pack_entry, unpack_columns
from repro.analysis.campaign import CampaignResult
from repro.exec import shard_key


def unpack_entry(frame):
    """``unpack_columns`` with every column as a list of Python ints."""
    meta, arrays = unpack_columns(frame)
    return meta, {name: array.tolist() for name, array in arrays.items()}


def tiny_scenario(**overrides) -> Scenario:
    defaults = dict(
        workload=WorkloadSpec.synthetic(4 * 1024, iterations=2),
        hierarchy=HierarchySpec.named("rm"),
        runs=24,
        master_seed=99,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


#: Per-run miss counters of every lane, and the summary they make.
COUNTS = {"il1_misses": 2, "dl1_misses": 4, "l2_misses": 1, "memory_accesses": 8}
MISS_SUMMARY = {
    "il1_misses": 2.0,
    "dl1_misses": 4.0,
    "l2_misses": 1.0,
    "memory_accesses": 8.0,
    "il1_miss_rate": 0.25,
    "dl1_miss_rate": 0.5,
    "l2_miss_rate": 0.125,
}


def default_times(scenario):
    return [1000 + 7 * i for i in range(scenario.runs)]


def campaign_for(scenario, times=None):
    return CampaignResult(
        workload="synthetic_4KB",
        setup=scenario.display_label,
        execution_times=times if times is not None else default_times(scenario),
        master_seed=scenario.effective_seed,
        miss_summary=MISS_SUMMARY,
    )


def publish(store, scenario, times=None):
    """Store ``scenario``'s campaign as one published range; its path."""
    times = times if times is not None else default_times(scenario)
    counters = {name: [count] * len(times) for name, count in COUNTS.items()}
    return publish_range(store, scenario, times, counters=counters)


def range_path(store, scenario):
    """The path of ``scenario``'s one published range."""
    return store.shard_path_for(scenario.spec_hash(), shard_key(0, scenario.runs))


def json_era_payload(scenario, campaign):
    """A JSON-era store entry, as the pre-columnar code wrote it."""
    return {
        "version": 1,
        "spec": scenario.spec_dict(),
        "workload": campaign.workload,
        "setup": campaign.setup,
        "master_seed": campaign.master_seed,
        "execution_times": list(campaign.execution_times),
        "miss_summary": dict(campaign.miss_summary),
    }


# ---------------------------------------------------------------------------
# Codec: round trip, dtype narrowing, corruption
# ---------------------------------------------------------------------------


class TestCodec:
    def test_round_trip_preserves_meta_and_columns_exactly(self):
        meta = {"version": 1, "spec": {"runs": 3, "nested": [1, "two"]}, "note": "x"}
        columns = {"cycles": [5, 70_000, 123], "misses": [0, 1, 2]}
        frame = pack_entry(meta, columns)
        assert frame.startswith(b"RCOL1\x00")
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

    def test_unpack_columns_is_a_zero_copy_view(self):
        frame = pack_entry({"version": 1}, {"c": [9, 8, 70_000]})
        meta, arrays = unpack_columns(frame)
        assert meta == {"version": 1}
        assert arrays["c"].tolist() == [9, 8, 70_000]
        # A read-only view over the blob, not a materialized copy.
        assert arrays["c"].base is not None
        assert not arrays["c"].flags.writeable
        assert unpack_entry(frame) == ({"version": 1}, {"c": [9, 8, 70_000]})


# ---------------------------------------------------------------------------
# Store: columnar entries
# ---------------------------------------------------------------------------


class TestStoreEntries:
    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        campaign = campaign_for(scenario)
        path = publish(store, scenario)
        assert path.suffix == COLUMNAR_SUFFIX
        stored = store.load(scenario.spec_hash())
        assert stored == campaign
        assert all(type(v) is int for v in stored.execution_times)
        assert stored.miss_summary == MISS_SUMMARY

    def test_corrupt_columnar_entry_is_a_miss_and_self_heals(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        campaign = campaign_for(scenario)
        publish(store, scenario)
        spec_hash = scenario.spec_hash()

        range_path(store, scenario).write_text("not a columnar frame")
        assert store.load(spec_hash) is None  # miss, never an error
        assert store.keys() == []

        publish(store, scenario)  # the next publish heals it
        assert store.load(spec_hash).execution_times == campaign.execution_times

    def test_json_era_entry_is_a_miss_and_unlisted(self, tmp_path):
        # Stores are caches: a valid pre-columnar entry, and a top-level
        # campaign entry of the layout before lane ranges, are neither read,
        # listed nor migrated, so their campaign re-simulates bit-exactly.
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        spec_hash = scenario.spec_hash()
        store.shard_root.mkdir(parents=True)
        campaign = campaign_for(scenario)
        (store.root / f"{spec_hash}.json").write_text(
            json.dumps(json_era_payload(scenario, campaign))
        )
        (store.root / f"{spec_hash}{COLUMNAR_SUFFIX}").write_bytes(
            pack_entry(
                {"version": 1, "spec": scenario.spec_dict(), "setup": "rm"},
                {"execution_times": campaign.execution_times},
            )
        )
        (store.shard_root / f"{spec_hash}.0-2.json").write_text(json.dumps(SHARD_PAYLOAD))
        assert store.load(spec_hash) is None
        assert store.load_shard(spec_hash, "0-2") is None
        assert store.keys() == [] and store.shard_keys() == []
        assert spec_hash not in store

    def test_nested_save_of_one_analysis_does_not_break_the_outer_save(
        self, tmp_path, monkeypatch
    ):
        # Two jobs with overlapping specs may persist one analysis at once.
        # The inner save runs between the outer write and its replace; a
        # shared temporary name made the outer replace raise.
        from repro.study import store as store_module

        store = ResultStore(tmp_path / "store")
        real_replace = os.replace
        raced = []

        def racing_replace(source, target):
            if not raced:
                raced.append(source)
                store.save_analysis("abc", "deadbeef", {"writer": "inner"})
            real_replace(source, target)

        monkeypatch.setattr(store_module.os, "replace", racing_replace)
        store.save_analysis("abc", "deadbeef", {"writer": "outer"})
        assert store.load_analysis("abc", "deadbeef") == {"writer": "outer"}
        assert list(store.analysis_root.glob("*.tmp")) == []


class TestLoadColumns:
    """The array form a stored campaign reads as (the run table's)."""

    def test_columnar_entry_returns_array_views(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        campaign = campaign_for(scenario)
        publish(store, scenario)
        spec_hash = scenario.spec_hash()
        meta, times, summary = store._campaign(spec_hash, store.published()[spec_hash])
        assert meta["spec"] == scenario.spec_dict()
        assert meta["setup"] == scenario.display_label
        assert summary == MISS_SUMMARY
        assert isinstance(times, np.ndarray)
        assert not times.flags.writeable  # a view of the decoded file
        assert times.tolist() == campaign.execution_times

    def test_missing_key_is_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.load("0" * 64) is None
        assert store._campaign("0" * 64, []) is None


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


SHARD_PAYLOAD = {
    "version": 1,
    "spec_hash": "abc",
    "key": "0-2",
    "start": 0,
    "count": 3,
    "spec": {"runs": 3, "seed": 0},
    "setup": "rm",
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
# Listings: directory scans that always agree with the entry files
# ---------------------------------------------------------------------------


class TestManifest:
    def _saved(self, tmp_path, count=3):
        store = ResultStore(tmp_path / "store")
        hashes = []
        for i in range(count):
            scenario = tiny_scenario(master_seed=100 + i)
            publish(store, scenario)
            hashes.append(scenario.spec_hash())
        return store, sorted(hashes)

    def test_keys_are_sorted_without_an_index_file(self, tmp_path):
        store, hashes = self._saved(tmp_path)
        assert store.keys() == hashes
        assert [path.name for path in store.root.iterdir()] == ["shards"]
        key = shard_key(0, tiny_scenario().runs)
        assert sorted(path.name for path in store.shard_root.iterdir()) == [
            f"{spec_hash}.{key}{COLUMNAR_SUFFIX}" for spec_hash in hashes
        ]

    def test_files_of_a_killed_save_are_listed_and_swept(self, tmp_path):
        # A publish killed right after its atomic replace leaves the range
        # file and nothing else; every listing must still report it.  A
        # sweep takes the analysis and never the range.
        from repro.study import build_run_table
        from repro.study.store import _replace_atomically

        store, hashes = self._saved(tmp_path, count=1)
        donor = ResultStore(tmp_path / "donor")
        scenario = tiny_scenario(master_seed=200)
        spec_hash = scenario.spec_hash()
        publish(donor, scenario)
        donor.save_analysis(spec_hash, "deadbeef", {"version": 1})
        store.analysis_root.mkdir()
        for target, source in (
            (range_path(store, scenario), range_path(donor, scenario)),
            (
                store.analysis_path_for(spec_hash, "deadbeef"),
                donor.analysis_path_for(spec_hash, "deadbeef"),
            ),
        ):
            _replace_atomically(target, source.read_bytes())

        key = shard_key(0, scenario.runs)
        assert store.keys() == sorted(hashes + [spec_hash])
        assert store.analysis_keys() == [(spec_hash, "deadbeef")]
        assert (spec_hash, key) in store.shard_keys()
        assert spec_hash in {row["spec_hash"] for row in build_run_table(store).rows}
        candidates = set(store.sweep_candidates(0.0))
        assert store.analysis_path_for(spec_hash, "deadbeef") in candidates
        assert range_path(store, scenario) not in candidates

    def test_no_index_file_is_written(self, tmp_path):
        from repro.study import build_run_table

        store, (spec_hash,) = self._saved(tmp_path, count=1)
        store.save_analysis(spec_hash, "deadbeef", {"version": 1})
        store.save_shard(spec_hash, "0-2", SHARD_PAYLOAD)
        store.keys()
        store.analysis_keys()
        store.shard_keys()
        build_run_table(store)
        names = {path.name for path in store.root.rglob("*")}
        assert not names & {"manifest.log", "rows.json", "index.log"}

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

# ---------------------------------------------------------------------------
# GC: sweep and clear leave no orphans
# ---------------------------------------------------------------------------


def _populated_store(tmp_path):
    """A store exercising every artifact kind the format knows about."""
    store = ResultStore(tmp_path / "store")
    scenario = tiny_scenario()
    publish(store, scenario)
    store.save_analysis(scenario.spec_hash(), "deadbeef", {"version": 1})
    store.record_study("smoke", [scenario.spec_hash()])
    # Stray tmp files from interrupted writers, an older store's queue files.
    (store.root / "orphan.rcol.tmp").write_bytes(b"")
    (store.analysis_root / "orphan.json.tmp").write_text("")
    (store.shard_root / "orphan.rcol.tmp").write_bytes(b"")
    for sub in ("tasks", "leases", "workers"):
        directory = store.root / "queue" / sub
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
        # Published ranges are the results — a sweep never touches them —
        # and the study markers, their provenance, stay.  Everything
        # derived (analyses, stray ``*.tmp``) must be gone.  An older
        # store's queue files are not derived entries: `study clean`
        # removes them, an age sweep does not list them.
        survivors = sorted(
            p.relative_to(store.root).as_posix()
            for p in store.root.rglob("*")
            if p.is_file()
        )
        scenario = tiny_scenario()
        assert survivors == sorted(
            [
                range_path(store, scenario).relative_to(store.root).as_posix(),
                f"studies/smoke/{scenario.spec_hash()}",
                "queue/leases/w1.json",
                "queue/tasks/w1.json",
                "queue/workers/w1.json",
            ]
        )

    def test_clear_removes_an_older_stores_study_log(self, tmp_path):
        # Stores written before study markers kept provenance in one
        # ``studies.log``, and stores written before lane ranges kept each
        # campaign in a top-level ``<spec_hash>.rcol``; nothing reads
        # either, and a clear removes both (as bookkeeping, not counted).
        store = _populated_store(tmp_path)
        spec_hash = tiny_scenario().spec_hash()
        (store.root / "studies.log").write_text(f"smoke {spec_hash}\n")
        (store.root / f"{spec_hash}{COLUMNAR_SUFFIX}").write_bytes(b"RCOL1\x00")
        assert store.clear() == 2  # the range and the analysis
        assert [p for p in store.root.rglob("*") if p.is_file()] == []

    def test_analyses_only_sweep_keeps_campaign_entries(self, tmp_path):
        store = _populated_store(tmp_path)
        keys_before = store.keys()
        store.sweep(older_than=0.0, analyses_only=True)
        assert store.keys() == keys_before
        assert store.analysis_keys() == []


# ---------------------------------------------------------------------------
# The read memo: each store file decoded once per process and version
# ---------------------------------------------------------------------------


class TestReadMemo:
    @staticmethod
    def _counting(monkeypatch):
        """Count the store's entry and analysis decodes from now on."""
        from repro.study import store as store_module

        counts = {"entries": 0, "analyses": 0}
        for key, name in (("entries", "_decode_entry"), ("analyses", "_decode_analysis")):
            original = getattr(store_module, name)

            def counted(blob, key=key, original=original):
                counts[key] += 1
                return original(blob)

            monkeypatch.setattr(store_module, name, counted)
        return counts

    def test_repeated_reads_decode_once(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        publish(store, scenario)
        store.save_analysis(scenario.spec_hash(), "cfg", {"pwcet": {"1e-15": 9.5}})
        counts = self._counting(monkeypatch)
        key = shard_key(0, scenario.runs)
        for _ in range(3):
            assert store.load(scenario.spec_hash()) == campaign_for(scenario)
            assert store.load_shard(scenario.spec_hash(), key) is not None
            assert store.keys() == [scenario.spec_hash()]
            assert store.load_analysis(scenario.spec_hash(), "cfg") == {"pwcet": {"1e-15": 9.5}}
        # Another store instance over the same directory shares the memo.
        assert ResultStore(tmp_path / "store").load(scenario.spec_hash()) is not None
        assert counts == {"entries": 1, "analyses": 1}

    def test_a_replaced_entry_or_analysis_is_read_anew(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        spec_hash = scenario.spec_hash()
        publish(store, scenario)
        store.save_analysis(spec_hash, "cfg", {"writer": "first"})
        assert store.load(spec_hash) == campaign_for(scenario)
        assert store.load_analysis(spec_hash, "cfg") == {"writer": "first"}
        counts = self._counting(monkeypatch)
        times = [5 * i for i in range(scenario.runs)]
        publish(store, scenario, times)
        store.save_analysis(spec_hash, "cfg", {"writer": "second"})
        assert store.load(spec_hash).execution_times == times
        assert store.load_shard(spec_hash, shard_key(0, scenario.runs))["cycles"] == times
        assert store.load_analysis(spec_hash, "cfg") == {"writer": "second"}
        assert counts == {"entries": 1, "analyses": 1}

    def test_a_deleted_entry_or_analysis_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        spec_hash = scenario.spec_hash()
        publish(store, scenario)
        store.save_analysis(spec_hash, "cfg", {"writer": "first"})
        assert store.load(spec_hash) is not None
        assert store.load_analysis(spec_hash, "cfg") is not None
        key = shard_key(0, scenario.runs)
        # Read with the key listed before the range went away.
        assert store.load(spec_hash, [key]) is not None
        range_path(store, scenario).unlink()
        store.analysis_path_for(spec_hash, "cfg").unlink()
        assert store.load(spec_hash) is None
        assert store.load(spec_hash, [key]) is None
        assert store.load_shard(spec_hash, key) is None
        assert spec_hash not in store
        assert store.load_analysis(spec_hash, "cfg") is None

    def test_mutating_a_returned_value_does_not_change_the_next_read(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        spec_hash = scenario.spec_hash()
        payload = {"pwcet": {"1e-15": 9.5}, "config": {"probabilities": [1e-12]}}
        publish(store, scenario)
        store.save_analysis(spec_hash, "cfg", payload)

        campaign = store.load(spec_hash)
        campaign.execution_times.append(1)
        campaign.miss_summary["il1_miss_rate"] = 9.0
        assert store.load(spec_hash) == campaign_for(scenario)

        key = shard_key(0, scenario.runs)
        loaded = store.load_shard(spec_hash, key)
        loaded["spec"]["runs"] = -1
        loaded["cycles"].clear()
        loaded = store.load_shard(spec_hash, key)
        assert loaded["spec"] == scenario.spec_dict()
        assert loaded["cycles"] == default_times(scenario)
        _, times, _ = store._campaign(spec_hash, [key])
        assert not times.flags.writeable
        with pytest.raises(ValueError):
            times[0] = 0

        analysis = store.load_analysis(spec_hash, "cfg")
        analysis["pwcet"]["1e-15"] = 0.0
        analysis["config"]["probabilities"].append(0.5)
        assert store.load_analysis(spec_hash, "cfg") == payload

    def test_the_memo_stays_within_its_bound(self, tmp_path):
        from repro.study.store import ReadMemo

        memo = ReadMemo(capacity=3)
        decoded = []

        def decode(blob):
            decoded.append(blob)
            return blob

        paths = []
        for index in range(10):
            path = tmp_path / f"file{index}"
            path.write_bytes(b"%d" % index)
            paths.append(str(path))
            assert memo.read(str(path), decode) == b"%d" % index
            assert len(memo) <= 3
        assert len(decoded) == 10
        # The three most recent files are held; an older one is decoded again.
        for path in paths[-3:]:
            memo.read(path, decode)
        assert len(decoded) == 10
        memo.read(paths[0], decode)
        assert len(decoded) == 11 and len(memo) == 3

    def test_the_process_memo_is_bounded(self, tmp_path, monkeypatch):
        from repro.study.store import READ_MEMO

        monkeypatch.setattr(READ_MEMO, "capacity", 4)
        store = ResultStore(tmp_path / "store")
        for seed in range(6):
            scenario = tiny_scenario(master_seed=seed)
            publish(store, scenario)
            store.save_analysis(scenario.spec_hash(), "cfg", {"seed": seed})
            assert store.load(scenario.spec_hash()) is not None
            assert store.load_analysis(scenario.spec_hash(), "cfg") == {"seed": seed}
        assert len(READ_MEMO) <= 4

    def test_an_unreadable_file_is_not_memoized(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        spec_hash = scenario.spec_hash()
        store.shard_root.mkdir(parents=True)
        range_path(store, scenario).write_bytes(b"RCOL1\x00garbage")
        store.analysis_root.mkdir()
        store.analysis_path_for(spec_hash, "cfg").write_text("[1, 2]")
        counts = self._counting(monkeypatch)
        for _ in range(2):
            assert store.load(spec_hash) is None
            assert store.load_analysis(spec_hash, "cfg") is None
        assert counts == {"entries": 2, "analyses": 2}
        publish(store, scenario)
        assert store.load(spec_hash) == campaign_for(scenario)

"""Tests for the declarative scenario/study subsystem (``repro.study``).

Covers Sweep expansion, spec-hash stability, the on-disk result store's
hit/miss behaviour, batched execution equivalence, the ResultSet views, the
``python -m repro study`` CLI surface, and — via the golden files in
``tests/golden/`` — the byte-identical ``--format text`` output of every
paper study run through :func:`repro.study.run_study`.

Regenerate the goldens (only when an output change is intended) with::

    PYTHONPATH=src python tests/golden/generate.py
"""

import hashlib
import json
import pickle
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.__main__ import main
from repro.analysis.campaign import run_campaign
from repro.analysis.experiments import ExperimentSettings
from repro.engine import available_engines
from repro.platform.leon3 import Leon3Parameters
from repro.pwcet.protocol import MbptaConfig
from repro.study.scenario import L2_PARAMETERS, hierarchy_from_spec, scenario_from_spec
from repro.study import (
    HierarchySpec,
    ResultStore,
    Scenario,
    Study,
    Sweep,
    WorkloadSpec,
    available_studies,
    execute_scenarios,
    get_study,
    register_study,
    run_study,
    unregister_study,
)
from repro.workloads.eembc import eembc_kernel_names

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The settings the goldens were generated with (tests/golden/generate.py).
GOLDEN_SETTINGS = ExperimentSettings(runs=40, scale=0.25)


def tiny_scenario(**overrides) -> Scenario:
    """A fast synthetic scenario (~small trace, 24 runs)."""
    defaults = dict(
        workload=WorkloadSpec.synthetic(4 * 1024, iterations=2),
        hierarchy=HierarchySpec.named("rm"),
        runs=24,
        master_seed=99,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# Sweep expansion
# ---------------------------------------------------------------------------

class TestSweep:
    def test_plain_value_axis_expands_in_order(self):
        sweep = Sweep(base=tiny_scenario(), axes={"runs": [24, 32, 48]})
        assert [s.runs for s in sweep.scenarios()] == [24, 32, 48]

    def test_product_first_axis_varies_slowest(self):
        sweep = Sweep(
            base=tiny_scenario(),
            axes={
                "hierarchy": [HierarchySpec.named("rm"), HierarchySpec.named("hrp")],
                "runs": [24, 32],
            },
        )
        expanded = sweep.scenarios()
        assert [(s.hierarchy.setup, s.runs) for s in expanded] == [
            ("rm", 24), ("rm", 32), ("hrp", 24), ("hrp", 32),
        ]

    def test_mapping_values_override_several_fields(self):
        sweep = Sweep(
            base=tiny_scenario(),
            axes={
                "point": [
                    {"runs": 32, "label": "small"},
                    {"runs": 48, "label": "large"},
                ]
            },
        )
        expanded = sweep.scenarios()
        assert [(s.runs, s.label) for s in expanded] == [(32, "small"), (48, "large")]

    def test_seed_offsets_add_across_axes(self):
        sweep = Sweep(
            base=tiny_scenario(seed_offset=5),
            axes={
                "a": [{"seed_offset": 0}, {"seed_offset": 1}],
                "b": [{"seed_offset": 0}, {"seed_offset": 1000}],
            },
        )
        assert [s.seed_offset for s in sweep.scenarios()] == [5, 1005, 6, 1006]

    def test_conflicting_field_overrides_rejected(self):
        sweep = Sweep(
            base=tiny_scenario(),
            axes={"a": [{"runs": 32}], "b": [{"runs": 48}]},
        )
        with pytest.raises(ValueError, match="conflict.*runs"):
            sweep.scenarios()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep(base=tiny_scenario(), axes={"runs": []}).scenarios()


# ---------------------------------------------------------------------------
# Scenario validation and spec hashing
# ---------------------------------------------------------------------------

class TestScenarioSpec:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="quantum")
        with pytest.raises(ValueError):
            WorkloadSpec.synthetic(0, iterations=2)
        with pytest.raises(ValueError):
            tiny_scenario(runs=0)
        with pytest.raises(ValueError):
            tiny_scenario(campaign="moonphase")
        with pytest.raises(ValueError, match="only defined for eembc"):
            tiny_scenario(campaign="layouts")  # synthetic workloads have no layouts

    def test_unknown_eembc_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown EEMBC kernel 'nope'"):
            WorkloadSpec.eembc("nope")
        with pytest.raises(ValueError, match="unknown EEMBC kernel"):
            tiny_scenario(workload=WorkloadSpec(kind="eembc", name="dhrystone"))
        # Only the exact kernel name: initials or a case variant would store
        # one campaign under a second spec hash.
        for name in ("A2", "A2TIME", "A2Time"):
            with pytest.raises(ValueError, match=f"'{name}' must be named exactly: 'a2time'"):
                WorkloadSpec.eembc(name)

    @pytest.mark.parametrize(
        "parameters, message",
        [
            # Checked before CacheConfig divides by ways * line_size.
            (dict(line_size=0), "line_size must be a positive power of two"),
            (dict(line_size=-32), "line_size must be a positive power of two"),
            (dict(line_size=48), "line_size must be a positive power of two"),
            # 2**40 B in 4 ways of 32 B lines needs 38 address bits, not 32.
            (dict(l1_size_bytes=1 << 40), "address_bits too small"),
            (dict(l2_size_bytes=1 << 40), "address_bits too small"),
        ],
        ids=[
            "line_size=0",
            "line_size=-32",
            "line_size=48",
            "l1_size_bytes=2**40",
            "l2_size_bytes=2**40",
        ],
    )
    def test_unusable_geometry_rejected(self, parameters, message):
        # An invalid hierarchy fails at construction, not in a worker.
        with pytest.raises(ValueError, match=message):
            HierarchySpec.named("rm", Leon3Parameters(**parameters))

    def test_case_variant_names_rejected(self):
        # Names match exactly: "RM" would simulate the rm campaign under a
        # second spec hash (and a second store entry).
        with pytest.raises(ValueError, match=r"setup must be one of \('rm', 'hrp', 'modulo'\), got 'RM'"):
            HierarchySpec.named("RM")
        with pytest.raises(ValueError, match="l1_placement must be one of"):
            HierarchySpec.custom(l1_placement="RM")
        with pytest.raises(ValueError, match="l2_replacement must be one of"):
            HierarchySpec.custom(l2_replacement="LRU")

    def test_hash_is_stable(self):
        # Pinned literal: changing the canonical spec layout breaks every
        # stored result, so it must be a deliberate SPEC_VERSION bump.
        assert tiny_scenario().spec_hash() == (
            "e1dc49841308ef04038a1c9cc76f1b43d793dd550a9e160b7aca4d74c3bd6093"
        )

    def test_execution_knobs_do_not_change_the_hash(self):
        # The engine and the worker count are parameters of the call, not
        # scenario fields, so they cannot reach the hash; the label is
        # presentation only.
        assert not {"engine", "jobs"} & {f.name for f in fields(Scenario)}
        base = tiny_scenario()
        assert base.spec_hash() == tiny_scenario(label="renamed").spec_hash()

    def test_simulation_fields_change_the_hash(self):
        base = tiny_scenario()
        assert base.spec_hash() != tiny_scenario(runs=25).spec_hash()
        assert base.spec_hash() != tiny_scenario(master_seed=100).spec_hash()
        assert base.spec_hash() != tiny_scenario(
            hierarchy=HierarchySpec.named("hrp")
        ).spec_hash()
        assert base.spec_hash() != tiny_scenario(
            workload=WorkloadSpec.synthetic(8 * 1024, iterations=2)
        ).spec_hash()

    def test_offset_and_base_seed_hash_identically(self):
        # Only the effective seed matters, not how it is split.
        assert (
            tiny_scenario(master_seed=90, seed_offset=9).spec_hash()
            == tiny_scenario(master_seed=99).spec_hash()
        )

    def test_display_label_defaults_to_workload_and_hierarchy(self):
        assert tiny_scenario().display_label == "synthetic_4KB/rm"
        assert tiny_scenario(label="mine").display_label == "mine"

    def test_integer_eembc_scale_round_trips_its_hash(self):
        # JSON keeps 1 and 1.0 apart, and workload_from_spec rebuilds a
        # float, so the spec must hold the float too.
        scenario = tiny_scenario(workload=WorkloadSpec.eembc("a2time", 1))
        assert scenario.spec_dict()["workload"]["scale"] == 1.0
        assert isinstance(scenario.workload.scale, float)
        assert scenario_from_spec(scenario.spec_dict()).spec_hash() == (
            scenario.spec_hash()
        )
        assert scenario.spec_hash() == tiny_scenario(
            workload=WorkloadSpec.eembc("a2time", 1.0)
        ).spec_hash()

    #: Every integer field of the Python API: a builder taking its value.
    INTEGER_FIELDS = {
        "runs": lambda value: tiny_scenario(runs=value),
        "master_seed": lambda value: tiny_scenario(master_seed=value),
        "seed_offset": lambda value: tiny_scenario(seed_offset=value),
        "footprint_bytes": lambda value: WorkloadSpec.synthetic(value, iterations=2),
        "iterations": lambda value: WorkloadSpec.synthetic(4096, iterations=value),
        **{
            f.name: (lambda name: lambda value: Leon3Parameters(**{name: value}))(f.name)
            for f in fields(Leon3Parameters)
        },
    }

    @pytest.mark.parametrize("value", [True, 16.0], ids=["bool", "float"])
    @pytest.mark.parametrize("name", sorted(INTEGER_FIELDS))
    def test_integer_fields_are_checked_not_coerced(self, name, value):
        # 16.0 == 16 and True == 1, yet each hashes as another spec (or
        # fails deep in a worker), so neither is accepted.
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            self.INTEGER_FIELDS[name](value)
        self.INTEGER_FIELDS[name](16)  # the int itself is fine

    @pytest.mark.parametrize("value", [1, 0, "false", None])
    def test_with_l2_must_be_a_bool(self, value):
        # 1 == True: a coerced 1 would store the campaign under a second hash.
        with pytest.raises(ValueError, match=rf"^with_l2 must be true or false, got {value!r}$"):
            HierarchySpec(setup="rm", with_l2=value)
        with pytest.raises(ValueError, match="with_l2 must be true or false"):
            HierarchySpec.custom(with_l2=value)

    def test_l2_names_are_not_hashed_without_an_l2(self):
        # Without an L2 the L2 names simulate nothing, so they key nothing.
        plain = HierarchySpec.custom(with_l2=False)
        named = HierarchySpec.custom(with_l2=False, l2_placement="modulo", l2_replacement="lru")
        assert plain.config() == named.config()
        assert "l2_placement" not in plain.spec_dict()
        assert "l2_replacement" not in named.spec_dict()
        assert (
            tiny_scenario(hierarchy=plain).spec_hash()
            == tiny_scenario(hierarchy=named).spec_hash()
        )
        # With an L2 they do simulate, and they are still checked without.
        assert (
            tiny_scenario(hierarchy=HierarchySpec.custom()).spec_hash()
            != tiny_scenario(
                hierarchy=HierarchySpec.custom(l2_placement="modulo", l2_replacement="lru")
            ).spec_hash()
        )
        with pytest.raises(ValueError, match="l2_placement must be one of"):
            HierarchySpec.custom(with_l2=False, l2_placement="xor")

    def test_l2_parameters_are_not_hashed_without_an_l2(self):
        # No L2 reads its geometry, hit latency or write-back cost (the L1s
        # write through), so they key nothing without one.
        workload = WorkloadSpec.synthetic(4096, 2)
        variants = [
            Leon3Parameters(),
            Leon3Parameters(l2_size_bytes=32 * 1024, l2_ways=8),
            Leon3Parameters(l2_hit_cycles=20, writeback_cycles=9),
        ]
        scenarios = [
            tiny_scenario(
                workload=workload,
                hierarchy=HierarchySpec(setup="rm", parameters=parameters, with_l2=False),
            )
            for parameters in variants
        ]
        assert len({scenario.spec_hash() for scenario in scenarios}) == 1
        assert not set(L2_PARAMETERS) & set(scenarios[0].hierarchy.spec_dict()["parameters"])
        trace = workload.build_trace()
        for engine in available_engines():
            times = {
                tuple(
                    run_campaign(
                        trace, scenario.hierarchy.config(), runs=6, master_seed=3, engine=engine
                    ).execution_times
                )
                for scenario in scenarios
            }
            assert len(times) == 1, engine
        # With an L2 each of them simulates, so each keys its own campaign.
        with_l2 = {
            tiny_scenario(
                workload=workload, hierarchy=HierarchySpec(setup="rm", parameters=parameters)
            ).spec_hash()
            for parameters in variants
        }
        assert len(with_l2) == len(variants)

    def test_no_l2_parameters_round_trip_to_their_defaults(self):
        hierarchy = HierarchySpec.custom(
            parameters=Leon3Parameters(l2_size_bytes=32 * 1024, l2_hit_cycles=20),
            with_l2=False,
        )
        scenario = tiny_scenario(hierarchy=hierarchy)
        rebuilt = scenario_from_spec(json.loads(json.dumps(scenario.spec_dict())))
        assert rebuilt.hierarchy.parameters == Leon3Parameters()
        assert rebuilt.spec_dict() == scenario.spec_dict()
        assert rebuilt.spec_hash() == scenario.spec_hash()

    def test_no_l2_spec_round_trips(self):
        scenario = tiny_scenario(
            hierarchy=HierarchySpec.custom(
                l1_placement="hrp", l1_replacement="lru", l2_placement="modulo", with_l2=False
            )
        )
        spec = json.loads(json.dumps(scenario.spec_dict()))
        rebuilt = scenario_from_spec(spec)
        assert rebuilt.spec_dict() == scenario.spec_dict()
        assert rebuilt.spec_hash() == scenario.spec_hash()
        assert rebuilt.hierarchy.config() == scenario.hierarchy.config()
        # An older entry's spec still names its L2 policies: they are read
        # (and checked), and canonicalize away.
        older = dict(spec["hierarchy"], l2_placement="modulo", l2_replacement="lru")
        assert hierarchy_from_spec(older).spec_dict() == spec["hierarchy"]
        with pytest.raises(ValueError, match="l2_replacement must be one of"):
            hierarchy_from_spec(dict(older, l2_replacement="fifo"))
        # With an L2 the names stay required.
        with_l2 = HierarchySpec.custom().spec_dict()
        del with_l2["l2_placement"]
        with pytest.raises(KeyError):
            hierarchy_from_spec(with_l2)

    def test_sub_kb_footprints_get_distinct_labels(self):
        # Floor-dividing to KB must not make distinct footprints collide.
        assert WorkloadSpec.synthetic(1024, iterations=2).label == "synthetic_1KB"
        assert WorkloadSpec.synthetic(1536, iterations=2).label == "synthetic_1536B"


def _sha256_of(canonical: dict) -> str:
    """The hash of a canonical dict, computed without any instance's memo."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


_PLACEMENTS = ("modulo", "hrp", "rm")
_REPLACEMENTS = ("lru", "random")


@st.composite
def _scenarios(draw) -> Scenario:
    """Scenarios over every spec field: workloads of both kinds, named and
    custom hierarchies with and without an L2, other cache parameters."""
    if draw(st.booleans()):
        workload = WorkloadSpec.eembc(
            draw(st.sampled_from(eembc_kernel_names())),
            draw(st.sampled_from([0.25, 0.5, 1, 1.0, 2.5])),
        )
        campaign = draw(st.sampled_from(["seeds", "layouts"]))
    else:
        workload = WorkloadSpec.synthetic(
            draw(st.integers(1, 1 << 20)), draw(st.integers(1, 64))
        )
        campaign = "seeds"
    parameters = Leon3Parameters(
        l2_size_bytes=draw(st.sampled_from([32 * 1024, 128 * 1024])),
        memory_cycles=draw(st.integers(0, 100)),
    )
    with_l2 = draw(st.booleans())
    if draw(st.booleans()):
        hierarchy = HierarchySpec(
            setup=draw(st.sampled_from(["rm", "hrp", "modulo"])),
            parameters=parameters,
            with_l2=with_l2,
        )
    else:
        hierarchy = HierarchySpec.custom(
            l1_placement=draw(st.sampled_from(_PLACEMENTS)),
            l2_placement=draw(st.sampled_from(_PLACEMENTS)),
            l1_replacement=draw(st.sampled_from(_REPLACEMENTS)),
            l2_replacement=draw(st.sampled_from(_REPLACEMENTS)),
            parameters=parameters,
            with_l2=with_l2,
        )
    return Scenario(
        workload=workload,
        hierarchy=hierarchy,
        runs=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**62)),
        seed_offset=draw(st.integers(0, 10**4)),
        campaign=campaign,
    )


class TestMemoizedHashes:
    """``spec_hash()``/``analysis_hash()`` are kept per instance; a kept
    value must always equal a fresh computation."""

    #: One changed value per Scenario field.
    SCENARIO_CHANGES = {
        "workload": WorkloadSpec.eembc("tblook", 0.25),
        "hierarchy": HierarchySpec.named("hrp"),
        "runs": 31,
        "master_seed": 5,
        "seed_offset": 3,
        "campaign": "layouts",
        "label": "renamed",
    }

    #: One changed value per MbptaConfig field.
    CONFIG_CHANGES = {
        "block_size": 10,
        "fit_method": "gumbel-mle",
        "significance": 0.01,
        "exceedance_probabilities": (1e-9,),
        "bootstrap": 5,
    }

    def test_every_field_is_covered(self):
        assert set(self.SCENARIO_CHANGES) == {f.name for f in fields(Scenario)}
        assert set(self.CONFIG_CHANGES) == {f.name for f in fields(MbptaConfig)}

    def test_spec_hash_after_replace_round_trip_and_pickle(self):
        base = tiny_scenario(workload=WorkloadSpec.eembc("a2time", 0.25))
        assert base.spec_hash() == _sha256_of(base.spec_dict())  # now kept
        for name, value in self.SCENARIO_CHANGES.items():
            changed = replace(base, **{name: value})
            assert changed.spec_hash() == _sha256_of(changed.spec_dict()), name
        rebuilt = scenario_from_spec(base.spec_dict())
        assert rebuilt.spec_hash() == base.spec_hash()
        unpickled = pickle.loads(pickle.dumps(base))
        assert unpickled == base
        assert unpickled.spec_hash() == _sha256_of(unpickled.spec_dict())

    @hyp_settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_memoized_hash_is_the_canonical_sha256(self, data):
        # A hash memoized for one scenario answers for every equal one, so
        # it must equal a fresh sha256 for any spec, first call or repeat.
        scenario = data.draw(_scenarios())
        assert scenario.spec_hash() == _sha256_of(scenario.spec_dict())
        # Rebuilt from JSON: equal, but not the same objects.
        rebuilt = scenario_from_spec(json.loads(json.dumps(scenario.spec_dict())))
        assert rebuilt.workload is not scenario.workload
        assert rebuilt.spec_hash() == _sha256_of(rebuilt.spec_dict()) == scenario.spec_hash()

    def test_equal_hierarchy_specs_share_one_config(self):
        parameters = Leon3Parameters(l2_size_bytes=32 * 1024)
        first = HierarchySpec.named("rm", parameters)
        again = HierarchySpec.named("rm", Leon3Parameters(l2_size_bytes=32 * 1024))
        assert first.config() is again.config()
        assert first.config() is not HierarchySpec.named("rm").config()

    def test_analysis_hash_after_replace_and_pickle(self):
        base = MbptaConfig()
        assert base.analysis_hash() == _sha256_of(base.analysis_config())
        for name, value in self.CONFIG_CHANGES.items():
            changed = replace(base, **{name: value})
            assert changed.analysis_hash() == _sha256_of(changed.analysis_config()), name
            assert changed.analysis_hash() != base.analysis_hash(), name
        unpickled = pickle.loads(pickle.dumps(base))
        assert unpickled.analysis_hash() == _sha256_of(unpickled.analysis_config())


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        results = execute_scenarios([scenario], store=store)
        assert len(store) == 1
        stored = store.load(scenario.spec_hash())
        assert stored is not None
        assert stored.execution_times == results.campaign(
            scenario.display_label
        ).execution_times
        assert stored.miss_summary["il1_miss_rate"] >= 0.0

    def test_corrupt_entries_are_cache_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_scenario()
        execute_scenarios([scenario], store=store)
        ((_, key),) = store.shard_keys(scenario.spec_hash())
        store.shard_path_for(scenario.spec_hash(), key).write_text("{not json")
        assert store.load(scenario.spec_hash()) is None
        # ... and the runner transparently re-simulates and heals the range.
        results = execute_scenarios([scenario], store=store)
        assert results.report.cache_hits == 0
        assert store.load(scenario.spec_hash()) is not None

    def test_clear_removes_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_scenarios([tiny_scenario()], store=store)
        assert store.clear() == 1
        assert store.keys() == []
        assert store.clear() == 0  # idempotent, even without the directory


# ---------------------------------------------------------------------------
# Execution: caching, deduplication, batching
# ---------------------------------------------------------------------------

class TestExecution:
    def test_second_execution_is_a_full_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenarios = [
            tiny_scenario(),
            tiny_scenario(hierarchy=HierarchySpec.named("hrp")),
        ]
        first = execute_scenarios(scenarios, store=store)
        assert first.report.simulated == 2 and not first.report.full_cache_hit
        second = execute_scenarios(scenarios, store=store)
        assert second.report.full_cache_hit
        assert "full cache hit" in second.report.summary()
        for label in first.labels():
            assert (
                first.campaign(label).execution_times
                == second.campaign(label).execution_times
            )
            assert second[label].from_cache

    def test_use_cache_false_forces_resimulation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        execute_scenarios([tiny_scenario()], store=store)
        refreshed = execute_scenarios([tiny_scenario()], store=store, use_cache=False)
        assert refreshed.report.cache_hits == 0
        assert refreshed.report.simulated == 1

    def test_identical_specs_are_deduplicated(self):
        scenarios = [tiny_scenario(label="a"), tiny_scenario(label="b")]
        results = execute_scenarios(scenarios)
        assert len(results) == 2  # both labels present in the result set
        assert results.report.planned == 1  # ... but one unit of work
        assert results.report.simulated == 1
        assert (
            results.campaign("a").execution_times
            == results.campaign("b").execution_times
        )

    def test_warm_rerun_with_duplicates_is_a_full_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenarios = [tiny_scenario(label="a"), tiny_scenario(label="b")]
        execute_scenarios(scenarios, store=store)
        warm = execute_scenarios(scenarios, store=store)
        assert warm.report.full_cache_hit
        assert warm.report.simulated == 0

    def test_batched_execution_matches_run_campaign(self):
        # Three scenarios share (workload, hierarchy, engine): the runner
        # builds the trace once and runs each campaign as one lane range.
        # Each must be bit-exact with its own run_campaign call.
        scenarios = [
            tiny_scenario(master_seed=7, label="a"),
            tiny_scenario(master_seed=1234, runs=30, label="b"),
            tiny_scenario(master_seed=7, seed_offset=500, label="c"),
        ]
        results = execute_scenarios(scenarios)
        assert results.report.simulated == 3
        trace = scenarios[0].workload.build_trace()
        for scenario in scenarios:
            expected = run_campaign(
                trace,
                scenario.hierarchy.config(),
                runs=scenario.runs,
                master_seed=scenario.effective_seed,
            )
            got = results.campaign(scenario.label)
            assert got.execution_times == expected.execution_times

    def test_integer_eembc_scale_runs_sharded(self, tmp_path):
        # A shard task carries the spec dict, and the worker checks that
        # its rebuilt scenario hashes to the task's spec hash.
        store = ResultStore(tmp_path / "store")
        scenario = Scenario(
            workload=WorkloadSpec.eembc("a2time", 1),
            hierarchy=HierarchySpec.named("rm"),
            runs=4,
        )
        results = execute_scenarios([scenario], store, shard_size=2)
        assert results.report.shards_executed == 2
        assert store.load(scenario.spec_hash()) is not None

    def test_unknown_engine_fails_before_any_simulation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="unknown engine"):
            execute_scenarios([tiny_scenario()], store=store, engine="warp")
        assert len(store) == 0

    def test_unknown_estimator_fails_before_any_simulation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        settings = ExperimentSettings(runs=24, estimator="weibull")
        with pytest.raises(ValueError, match="unknown estimator 'weibull'"):
            run_study("fig5", settings, store=store)
        assert len(store) == 0


# ---------------------------------------------------------------------------
# ResultSet views
# ---------------------------------------------------------------------------

class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        return execute_scenarios(
            [
                tiny_scenario(label="rm"),
                tiny_scenario(hierarchy=HierarchySpec.named("hrp"), label="hrp"),
            ]
        )

    def test_table_lists_every_scenario(self, results):
        table = results.table(cutoffs=(1e-12,), title="tiny sweep")
        assert "tiny sweep" in table
        assert "rm" in table and "hrp" in table
        assert "pWCET@1e-12" in table
        assert "simulated" in table

    def test_ccdf_is_monotonic(self, results):
        points = results.ccdf("rm")
        probabilities = [probability for _, probability in points]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_compare_reports_shared_labels(self, results):
        comparison = results.compare(results)
        assert "rm" in comparison and "B/A" in comparison
        assert "1.000" in comparison  # self-comparison: all ratios are 1

    def test_compare_without_overlap_degrades_gracefully(self, results):
        other = execute_scenarios([tiny_scenario(label="other")])
        assert "no overlapping scenario labels" in results.compare(other)

    def test_miss_rates_per_scenario(self, results):
        rates = results.miss_rates()
        assert set(rates) == {"rm", "hrp"}
        for summary in rates.values():
            assert 0.0 <= summary["il1_miss_rate"] <= 1.0
            assert summary["memory_accesses"] > 0

    def test_unknown_label_raises_with_known_labels(self, results):
        with pytest.raises(KeyError, match="known labels"):
            results.campaign("nope")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario label"):
            execute_scenarios([tiny_scenario(), tiny_scenario(runs=25)])

    def test_duplicate_labels_fail_before_any_simulation(self, tmp_path, monkeypatch):
        # Four campaigns, two labels: nothing is read, simulated or stored.
        loads = []
        monkeypatch.setattr(ResultStore, "load", lambda *args: loads.append(args))
        store = ResultStore(tmp_path / "store")
        scenarios = [
            tiny_scenario(hierarchy=HierarchySpec.named(setup), master_seed=seed)
            for seed in (1, 2)
            for setup in ("rm", "hrp")
        ]
        with pytest.raises(ValueError, match="duplicate scenario label 'synthetic_4KB/rm'"):
            execute_scenarios(scenarios, store=store)
        assert loads == []
        assert len(store) == 0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestStudyRegistry:
    def test_builtin_studies_registered(self):
        assert set(available_studies()) >= {
            "table1", "table2", "fig1", "fig4a", "fig4b",
            "fig5", "avg_perf", "ablation_seg", "ablation_repl",
        }

    def test_unknown_study_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered studies"):
            get_study("fig9")

    def test_register_and_run_a_custom_study(self, tmp_path):
        study = Study(
            name="tiny_custom",
            description="one tiny scenario",
            planner=lambda settings: [tiny_scenario()],
            builder=lambda context: context.results.table(),
            min_runs=1,
        )
        try:
            register_study(study)
            with pytest.raises(ValueError, match="already registered"):
                register_study(study)
            outcome = run_study(
                "tiny_custom",
                ExperimentSettings(runs=24),
                store=ResultStore(tmp_path / "store"),
            )
            assert "synthetic_4KB/rm" in outcome.result
            assert outcome.report.simulated == 1
        finally:
            unregister_study("tiny_custom")

    def test_a_replaced_study_plans_with_its_new_planner(self):
        settings = ExperimentSettings(runs=24)
        first, second = tiny_scenario(master_seed=1), tiny_scenario(master_seed=2)

        def study(planned):
            return Study(
                name="tiny_replaced",
                description="one tiny scenario",
                planner=lambda settings: [planned],
                builder=lambda context: None,
            )

        try:
            register_study(study(first))
            assert get_study("tiny_replaced").plan(settings) == [first]
            register_study(study(second), replace=True)
            assert get_study("tiny_replaced").plan(settings) == [second]
        finally:
            unregister_study("tiny_replaced")

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a\0b"])
    def test_a_name_that_is_not_one_directory_name_is_rejected(self, name):
        # A study name names its marker directory in a store: "../x" would
        # write outside studies/.
        study = Study(
            name=name,
            description="bad name",
            planner=lambda settings: [tiny_scenario()],
            builder=lambda context: None,
        )
        with pytest.raises(ValueError, match="study name must be one directory name"):
            register_study(study)
        assert name not in available_studies()


# ---------------------------------------------------------------------------
# Golden equivalence (byte-identical --format text output)
# ---------------------------------------------------------------------------

def _golden(identifier: str) -> str:
    return (GOLDEN_DIR / f"{identifier}.txt").read_text()


class TestDriverEquivalence:
    """Each paper study, run through run_study, renders byte-identical text."""

    def test_table1(self):
        assert run_study("table1").result.format() + "\n" == _golden("table1")

    def test_fig1(self):
        result = run_study("fig1", GOLDEN_SETTINGS, benchmark="a2time").result
        assert result.format() + "\n" == _golden("fig1")

    def test_fig5(self):
        result = run_study(
            "fig5", GOLDEN_SETTINGS, footprint_bytes=20 * 1024, iterations=3
        ).result
        assert result.format() + "\n" == _golden("fig5")

    def test_ablation_seg(self):
        result = run_study(
            "ablation_seg",
            ExperimentSettings(runs=30),
            footprints=(4 * 1024, 20 * 1024),
            iterations=2,
        ).result
        assert result.format() + "\n" == _golden("ablation_seg")

    def test_ablation_repl(self):
        result = run_study(
            "ablation_repl", ExperimentSettings(runs=25, scale=0.25)
        ).result
        assert result.format() + "\n" == _golden("ablation_repl")

    @pytest.mark.parametrize(
        "estimator, golden_id",
        [
            ("gumbel-mle", "fig5_gumbel_mle"),
            ("exponential-excess", "fig5_exponential_excess"),
        ],
    )
    def test_fig5_per_estimator_baselines(self, estimator, golden_id):
        # The non-default estimators are pinned as tightly as gumbel-pwm:
        # the same fig5 campaigns projected through each one must render
        # byte-identically to its golden.
        result = run_study(
            "fig5",
            replace(GOLDEN_SETTINGS, estimator=estimator),
            footprint_bytes=20 * 1024,
            iterations=3,
        ).result
        assert result.format() + "\n" == _golden(golden_id)

    def test_ablation_seg_accepts_same_kb_bucket_footprints(self):
        # Regression: 1024 and 1536 bytes both floor to "1KB"; the labels
        # must still be distinct for the study to execute.
        result = run_study(
            "ablation_seg",
            ExperimentSettings(runs=20),
            footprints=(1024, 1536),
            iterations=2,
        ).result
        assert len(result.rows) == 2

    def test_study_path_with_store_is_also_byte_identical(self, tmp_path):
        # The cached path must render the same bytes as the simulating path.
        store = ResultStore(tmp_path / "store")
        settings = GOLDEN_SETTINGS
        first = run_study(
            "fig5", settings, store=store, footprint_bytes=20 * 1024, iterations=3
        )
        second = run_study(
            "fig5", settings, store=store, footprint_bytes=20 * 1024, iterations=3
        )
        assert second.report.full_cache_hit
        assert first.result.format() == second.result.format()
        assert first.result.format() + "\n" == _golden("fig5")


@pytest.mark.slow
class TestDriverEquivalenceFullSuite:
    """The 11-benchmark sweeps, at the goldens' reduced scale."""

    def test_table2(self):
        result = run_study("table2", GOLDEN_SETTINGS).result
        assert result.format() + "\n" == _golden("table2")

    def test_fig4a(self):
        result = run_study("fig4a", GOLDEN_SETTINGS).result
        assert result.format() + "\n" == _golden("fig4a")

    def test_fig4b(self):
        result = run_study("fig4b", GOLDEN_SETTINGS).result
        assert result.format() + "\n" == _golden("fig4b")

    def test_avg_perf(self):
        result = run_study("avg_perf", GOLDEN_SETTINGS).result
        assert result.format() + "\n" == _golden("avg_perf")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestStudyCli:
    def test_study_list(self, capsys):
        assert main(["study", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("table1", "fig5", "ablation_repl"):
            assert name in output

    def test_study_run_reports_full_cache_hit_on_repeat(self, tmp_path, capsys):
        argv = [
            "study", "run", "fig5",
            "--runs", "24", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "new results stored" in first and "pWCET" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resolved 2/2 scenarios from the result store (full cache hit)" in second
        # Identical rendered tables from cache and simulation.
        assert [l for l in first.splitlines() if "|" in l] == [
            l for l in second.splitlines() if "|" in l
        ]

    def test_study_run_no_cache_resimulates(self, tmp_path, capsys):
        argv = [
            "study", "run", "fig5",
            "--runs", "24", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--no-cache"]) == 0
        assert "full cache hit" not in capsys.readouterr().out

    def test_study_clean(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["study", "run", "fig5", "--runs", "24", "--store", store]) == 0
        capsys.readouterr()
        assert main(["study", "clean", "--store", store]) == 0
        # fig5 stores 2 campaigns plus the 2 pWCET analyses derived from them.
        assert "removed 4 stored result(s)" in capsys.readouterr().out
        assert ResultStore(store).keys() == []
        assert ResultStore(store).analysis_keys() == []

    def test_study_compare_self_is_identity(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "study", "compare", "fig5", "fig5", "--runs", "24", "--store", store,
        ]) == 0
        output = capsys.readouterr().out
        assert "study compare: A = fig5, B = fig5" in output
        assert "1.000" in output

    def test_runs_below_mbpta_minimum_is_one_line_error(self, capsys):
        assert main(["study", "run", "fig5", "--runs", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "at least 20 measurement runs" in line and "fig5" in line

    def test_runs_floor_ignores_non_mbpta_experiments(self, tmp_path, capsys):
        assert main([
            "study", "run", "table1", "--runs", "8",
            "--store", str(tmp_path / "store"),
        ]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestOneDrainPerCommand:
    """A command resolves all its studies' campaigns in one drain, and each
    study's cache line reads as if the studies had run one after another."""

    SETTINGS = ExperimentSettings(runs=24, scale=0.25)
    SMALL = ("--runs", "24", "--scale", "0.25")

    #: Each study's cache line for a cold ``study run all`` at SMALL: a
    #: campaign counts as simulated in the first study that plans it.
    COLD_ALL = {
        "ablation_repl": "simulated 4 of 4 scenarios (0 from the result store, "
        "4 new results stored); 4 of 4 shards executed (0 reused)",
        "ablation_seg": "simulated 8 of 8 scenarios (0 from the result store, "
        "8 new results stored); 8 of 8 shards executed (0 reused)",
        "avg_perf": "simulated 22 of 22 scenarios (0 from the result store, "
        "22 new results stored); 22 of 22 shards executed (0 reused)",
        "fig1": "resolved 1/1 scenarios from the result store (full cache hit)",
        "fig4a": "simulated 11 of 22 scenarios (11 from the result store, "
        "11 new results stored); 11 of 11 shards executed (0 reused)",
        "fig4b": "simulated 11 of 22 scenarios (11 from the result store, "
        "11 new results stored); 11 of 11 shards executed (0 reused)",
        "fig5": "simulated 2 of 2 scenarios (0 from the result store, "
        "2 new results stored); 2 of 2 shards executed (0 reused)",
        "table1": "no measurement campaigns (analytical study)",
        "table2": "resolved 11/11 scenarios from the result store (full cache hit)",
    }

    @staticmethod
    def _count_drains(monkeypatch):
        """The campaign count of every ``execute_campaigns`` call from now on."""
        from repro.exec import executor

        drains = []
        original = executor.execute_campaigns

        def counting(scenarios, *args, **kwargs):
            drains.append(len(scenarios))
            return original(scenarios, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_campaigns", counting)
        return drains

    @staticmethod
    def _cache_lines(output):
        """Study name -> its ``-- <study>:`` cache line."""
        lines = {}
        for line in output.splitlines():
            name, colon, summary = line[3:].partition(": ")
            if line.startswith("-- ") and colon:
                lines[name] = summary
        return lines

    @staticmethod
    def _store_bytes(root):
        """Every store file, relative path -> bytes."""
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(Path(root).rglob("*"))
            if path.is_file()
        }

    def test_a_cold_study_run_all_drains_once(self, tmp_path, monkeypatch, capsys):
        drains = self._count_drains(monkeypatch)
        store = tmp_path / "store"
        argv = ["study", "run", "all", *self.SMALL, "--store", str(store)]
        assert main(argv) == 0
        assert drains == [58]  # the union of every study's campaigns
        assert sorted(path.name for path in store.iterdir()) == ["analysis", "shards", "studies"]
        assert self._cache_lines(capsys.readouterr().out) == self.COLD_ALL
        assert main(argv) == 0  # warm: one call, every campaign a store hit
        assert drains == [58, 58]
        lines = self._cache_lines(capsys.readouterr().out)
        assert all(
            line.endswith("(full cache hit)")
            for name, line in lines.items()
            if name != "table1"
        )

    def test_a_two_worker_study_run_all_opens_one_pool(self, tmp_path, monkeypatch, capsys):
        # The whole command's campaigns go to one process pool of at most
        # two workers, whatever the number of its studies.
        from repro.exec import executor

        pools = []

        class CountingPool(executor.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", CountingPool)
        argv = ["study", "run", "all", *self.SMALL, "--jobs", "2",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        assert pools == [2]
        assert self._cache_lines(capsys.readouterr().out) == self.COLD_ALL

    def test_study_compare_drains_once(self, tmp_path, monkeypatch, capsys):
        drains = self._count_drains(monkeypatch)
        argv = ["study", "compare", "table2", "fig4a", *self.SMALL,
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        assert drains == [22]
        lines = self._cache_lines(capsys.readouterr().out)
        assert lines == {
            "table2": "simulated 11 of 11 scenarios (0 from the result store, "
            "11 new results stored); 11 of 11 shards executed (0 reused)",
            "fig4a": self.COLD_ALL["fig4a"],
        }

    @pytest.mark.parametrize("names", [("table2", "fig4a"), ("fig4a", "table2")])
    def test_a_refresh_simulates_each_shared_campaign_once(
        self, tmp_path, monkeypatch, names
    ):
        # On a warm store, --no-cache simulates each of the 22 unique
        # campaigns once; the later study reports the 11 campaigns the
        # earlier one refreshed as store hits.
        from repro.exec.worker import ShardRunner
        from repro.study import run_studies

        store = ResultStore(tmp_path / "store")
        run_studies(names, self.SETTINGS, store=store)
        executed = []
        execute = ShardRunner.execute

        def counting(runner, task):
            executed.append(task["spec_hash"])
            return execute(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", counting)
        first, later = run_studies(names, self.SETTINGS, store=store, use_cache=False)
        assert len(executed) == len(set(executed)) == 22
        planned = first.report.planned
        assert (first.report.simulated, first.report.cache_hits) == (planned, 0)
        assert later.report.cache_hits == 11
        assert later.report.simulated == later.report.planned - 11
        assert first.report.shards_executed + later.report.shards_executed == 22

    @pytest.mark.parametrize("names", [("table2", "fig4a"), ("fig4a", "table2")])
    def test_a_refresh_fits_each_analysed_campaign_once(
        self, tmp_path, monkeypatch, names
    ):
        # On a warm store, --no-cache clears each campaign's analyses with
        # its ranges, so the first study to analyse a campaign fits and
        # stores it, and a later study reads what it stored: 22 fits for
        # the 22 analysis files, as on a cold store.
        from repro.study import resultset as resultset_module
        from repro.study import run_studies

        store = ResultStore(tmp_path / "store")
        cold = run_studies(names, self.SETTINGS, store=store)
        analyses = store.analysis_keys()
        assert len(analyses) == 22
        fitted = []
        batch = resultset_module.apply_mbpta_batch

        def counting(samples, *args, **kwargs):
            fitted.extend(len(sample) for sample in samples)
            return batch(samples, *args, **kwargs)

        monkeypatch.setattr(resultset_module, "apply_mbpta_batch", counting)
        refreshed = run_studies(names, self.SETTINGS, store=store, use_cache=False)
        assert len(fitted) == len(analyses)
        assert store.analysis_keys() == analyses
        for before, after in zip(cold, refreshed):
            assert after.result.format() == before.result.format()

    def test_run_studies_matches_one_run_study_per_study(self, tmp_path):
        from repro.study import run_studies

        names = ("table2", "fig4a")
        apart = ResultStore(tmp_path / "apart")
        together = ResultStore(tmp_path / "together")
        alone = [run_study(name, self.SETTINGS, store=apart) for name in names]
        joint = run_studies(names, self.SETTINGS, store=together)
        for single, shared in zip(alone, joint):
            assert shared.study.name == single.study.name
            assert shared.result.format() == single.result.format()
            assert shared.report == single.report
        assert self._store_bytes(together.root) == self._store_bytes(apart.root)


class TestMissRateEnrichment:
    def test_json_round_trips_with_miss_rates(self, tmp_path, capsys):
        argv = [
            "study", "run", "fig5", "--runs", "24",
            "--store", str(tmp_path / "store"), "--format", "json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig5"
        assert set(payload["miss_rates"]) == {"rm", "hrp"}
        for summary in payload["miss_rates"].values():
            for key in ("il1_miss_rate", "dl1_miss_rate", "l2_miss_rate",
                        "memory_accesses"):
                assert key in summary
        # A cache hit must serve the same enriched payload.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_csv_includes_miss_rate_rows(self, tmp_path, capsys):
        argv = [
            "study", "run", "fig5", "--runs", "24",
            "--store", str(tmp_path / "store"), "--format", "csv",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "experiment,key,value"
        assert any(line.startswith("fig5,miss_rates.rm.il1_miss_rate,") for line in lines)

"""The repro.service subsystem: HTTP API, job manager, events, GC.

The invariants under test:

* the server executes jobs through the exact store + exec pipeline the
  CLI uses, so **responses are byte-identical to the CLI path** for the
  same specs (analysis payloads compare equal as canonical JSON);
* concurrent clients submitting overlapping sweeps deduplicate by spec
  hash — the overlap resolves warm with **zero simulations and zero EVT
  fits**;
* a SIGKILLed ``study run`` on the server's store does not cost a job its
  work: the job resumes from the ranges the killed run published (the
  exec crash story, observed end to end through the API).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.pwcet.registry as pwcet_registry
from repro.__main__ import main
from repro.analysis.campaign import run_campaign
from repro.analysis.experiments import ExperimentSettings
from repro.engine import DEFAULT_ENGINE
from repro.exec import ShardRunner, plan_shards, publish_shard, shard_task
from repro.exec.status import exec_status_snapshot
from repro.pwcet import MbptaConfig
from repro.service.api.server import ReproServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.services.events import EventBus, GLOBAL_CHANNEL
from repro.service.services import jobs as jobs_module
from repro.service.services.gc import GcService
from repro.service.services.jobs import BadRequest, JobManager, parse_job_request
from repro.study import get_study
from repro.study.scenario import HierarchySpec, Scenario, WorkloadSpec
from repro.study.store import ResultStore

#: The studies' analysis cutoffs (secondary, primary) — what `submit` sends.
CUTOFFS = (1e-12, 1e-15)


def _scenario(
    runs: int = 24, master_seed: int = 77, setup: str = "rm", label: str = ""
) -> Scenario:
    """A small synthetic-kernel scenario, large enough for MBPTA (>= 20)."""
    return Scenario(
        workload=WorkloadSpec.synthetic(4 * 1024, 2),
        hierarchy=HierarchySpec(setup=setup, with_l2=False),
        runs=runs,
        master_seed=master_seed,
        label=label,
    )


def _spec(scenario: Scenario) -> dict:
    return scenario.spec_dict()


#: (path into a spec, a mistyped value, the field the 400 names).
MISTYPED_FIELDS = [
    (("hierarchy", "with_l2"), "false", "with_l2"),
    (("hierarchy", "with_l2"), 0, "with_l2"),
    (("runs",), 100.9, "runs"),
    (("runs",), True, "runs"),
    (("seed",), 1.5, "seed"),
    (("seed",), "77", "seed"),
    (("hierarchy", "parameters", "l1_ways"), 4.7, "parameters.l1_ways"),
    (("workload", "iterations"), 2.0, "iterations"),
    (("workload", "footprint_bytes"), "4096", "footprint_bytes"),
    (("workload", "scale"), True, "scale"),
    (("workload", "scale"), "0.5", "scale"),
]


#: Cache geometries no engine can simulate: (parameter overrides, the
#: message of the 400).
UNUSABLE_GEOMETRIES = [
    # Checked before CacheConfig divides by ways * line_size.
    ({"line_size": 0}, "line_size must be a positive power of two, got 0"),
    ({"line_size": 48}, "line_size must be a positive power of two, got 48"),
    # 2**40 B in 4 ways of 32 B lines needs 38 address bits, not 32.
    ({"l1_size_bytes": 1 << 40}, "address_bits too small for the requested geometry: 32 < 38"),
]

#: Policy names the model does not have, as (spec field, name): the XOR
#: placement and setup, FIFO and tree-PLRU replacement.
OFF_PLATFORM_NAMES = [
    ("l1_placement", "xor"),
    ("l2_placement", "xor"),
    ("setup", "xor"),
    ("l1_replacement", "fifo"),
    ("l2_replacement", "plru"),
]

#: The values each hierarchy name field accepts.
ACCEPTED_NAMES = {
    "setup": "('rm', 'hrp', 'modulo')",
    "l1_placement": "('modulo', 'hrp', 'rm')",
    "l2_placement": "('modulo', 'hrp', 'rm')",
    "l1_replacement": "('lru', 'random')",
    "l2_replacement": "('lru', 'random')",
}


def _geometry_spec(parameters: dict) -> dict:
    """A valid spec with some cache parameters replaced."""
    spec = _spec(_scenario())
    spec["hierarchy"]["parameters"].update(parameters)
    return spec


def _mistyped_spec(path: tuple, value: object) -> dict:
    """A valid spec (eembc when ``path`` is the scale) with one field replaced."""
    scenario = _scenario()
    if path[-1] == "scale":
        scenario = replace(scenario, workload=WorkloadSpec.eembc("a2time", 0.25))
    spec = _spec(scenario)
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return spec


class _FitCounter:
    """Wraps every registered estimator to count fit/fit_batch calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in pwcet_registry.available_estimators():
            estimator = pwcet_registry.get_estimator(name)
            for method_name in ("fit", "fit_batch"):
                original = getattr(estimator.__class__, method_name)
                monkeypatch.setattr(
                    estimator.__class__,
                    method_name,
                    self._wrap(original),
                    raising=True,
                )

    def _wrap(self, original):
        counter = self

        def wrapped(estimator_self, *args, **kwargs):
            counter.calls += 1
            return original(estimator_self, *args, **kwargs)

        return wrapped


@pytest.fixture
def start_server():
    """Factory starting in-process servers on ephemeral ports.

    Yields ``start(store, **kwargs) -> (server, client)``; every started
    server is shut down (and its thread joined) at teardown.
    """
    started = []

    def start(store: ResultStore, **kwargs) -> tuple:
        kwargs.setdefault("gc_interval", 0)
        server = ReproServer(store, port=0, **kwargs)
        thread = threading.Thread(
            target=server.run, kwargs={"quiet": True}, daemon=True
        )
        thread.start()
        assert server.ready.wait(10), "server did not come up"
        client = ServiceClient(f"http://127.0.0.1:{server.bound_port}", timeout=60)
        started.append((server, thread, client))
        return server, client

    yield start
    for server, thread, client in started:
        try:
            client.shutdown()
        except ServiceError:
            pass  # already stopped by the test
        thread.join(60)
        assert not thread.is_alive(), "server thread did not shut down"


# ---------------------------------------------------------------------------
# Request parsing (no server needed)
# ---------------------------------------------------------------------------

class TestJobRequestParsing:
    def test_single_spec_round_trips_hash(self):
        scenario = _scenario()
        scenarios, _ = parse_job_request({"spec": _spec(scenario)})
        assert [s.spec_hash() for s in scenarios] == [scenario.spec_hash()]

    def test_overlapping_specs_collapse_to_one_unit_of_work(self):
        scenario = _scenario()
        scenarios, _ = parse_job_request(
            {"specs": [_spec(scenario), _spec(scenario)]}
        )
        assert len(scenarios) == 1

    def test_label_collisions_get_unique_suffixes(self):
        # Distinct hashes, identical default labels (same workload/setup,
        # different seeds) — the result set needs unique labels.
        specs = [_spec(_scenario(master_seed=seed)) for seed in (1, 2, 3)]
        scenarios, _ = parse_job_request({"specs": specs})
        labels = [s.display_label for s in scenarios]
        assert len(set(labels)) == 3

    def test_cutoffs_and_estimator_land_in_the_analysis_config(self):
        _, options = parse_job_request(
            {
                "spec": _spec(_scenario()),
                "cutoffs": list(CUTOFFS),
                "estimator": "gumbel-mle",
            }
        )
        config = options.mbpta_config()
        assert config.exceedance_probabilities == CUTOFFS
        assert config.fit_method == "gumbel-mle"

    def test_cutoff_order_is_not_part_of_the_analysis(self):
        # Ascending or repeated, the job's cutoffs are the CLI's set.
        cli = ExperimentSettings().mbpta_config()
        _, options = parse_job_request(
            {"spec": _spec(_scenario()), "cutoffs": [1e-15, 1e-12, 1e-15]}
        )
        config = options.mbpta_config()
        assert config.exceedance_probabilities == CUTOFFS
        assert config.analysis_hash() == cli.analysis_hash()

    def test_default_options_make_the_cli_analysis_config(self):
        # The CLI's default study run and a bare server job share their
        # stored analyses only if both build the same config.
        cli = ExperimentSettings().mbpta_config()
        _, options = parse_job_request({"spec": _spec(_scenario())})
        assert options.mbpta_config().analysis_hash() == cli.analysis_hash()
        _, options = parse_job_request(
            {"spec": _spec(_scenario()), "cutoffs": list(CUTOFFS)}
        )
        assert options.mbpta_config().analysis_hash() == cli.analysis_hash()

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"spec": {}, "specs": []},
            {"specs": []},
            {"specs": ["not-a-spec"]},
            {"spec": {"version": 99}},
            {"spec": 12},
            {"specs": "nope"},
        ],
    )
    def test_malformed_requests_are_rejected(self, payload):
        with pytest.raises(BadRequest):
            parse_job_request(payload)

    @pytest.mark.parametrize(
        "path, value, field",
        MISTYPED_FIELDS,
        ids=[f"{field}={value!r}" for _, value, field in MISTYPED_FIELDS],
    )
    def test_mistyped_spec_fields_are_rejected_naming_the_field(
        self, path, value, field
    ):
        # Coercing these (bool("false"), int(100.9), ...) would run another
        # scenario than the one sent.
        with pytest.raises(BadRequest, match=f"{field} must be"):
            parse_job_request({"spec": _mistyped_spec(path, value)})

    @pytest.mark.parametrize("name", ["A2", "A2TIME", "A2Time"])
    def test_inexact_eembc_name_is_rejected(self, name):
        spec = _spec(replace(_scenario(), workload=WorkloadSpec.eembc("a2time", 0.25)))
        spec["workload"]["name"] = name
        with pytest.raises(BadRequest, match=f"'{name}' must be named exactly: 'a2time'"):
            parse_job_request({"spec": spec})

    @pytest.mark.parametrize(
        "parameters, message",
        UNUSABLE_GEOMETRIES,
        ids=[next(iter(parameters)) for parameters, _ in UNUSABLE_GEOMETRIES],
    )
    def test_unusable_geometry_is_rejected(self, parameters, message):
        # Rejected while parsing: CacheConfig checks the line size before
        # it divides by it, and the address width when it builds its
        # placement geometry.
        with pytest.raises(BadRequest, match=message):
            parse_job_request({"spec": _geometry_spec(parameters)})

    @pytest.mark.parametrize(
        "options",
        [
            {"estimator": "no-such-estimator"},
            {"cutoffs": []},
            {"cutoffs": [2.0]},
            {"cutoffs": ["x"]},
            {"shard_size": 0},
            {"shard_size": "many"},
            {"jobs": -1},
            {"jobs": "abc"},
            {"jobs": [2]},
            {"engine": "no-such-engine"},
            {"engine": "fast"},
            {"engine": "jit"},
        ],
    )
    def test_bad_options_are_rejected(self, options):
        with pytest.raises(BadRequest):
            parse_job_request({"spec": _spec(_scenario()), **options})

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"shard_size": 100.9}, "shard_size"),
            ({"shard_size": "8"}, "shard_size"),
            ({"shard_size": True}, "shard_size"),
            ({"jobs": True}, "jobs"),
            ({"jobs": "3"}, "jobs"),
            ({"jobs": 2.0}, "jobs"),
            ({"cutoffs": ["1e-3"]}, "cutoffs"),
            ({"estimator": False}, "estimator"),
            ({"engine": 0}, "engine"),
        ],
        ids=["shard_size=100.9", "shard_size='8'", "shard_size=true", "jobs=true",
             "jobs='3'", "jobs=2.0", "cutoffs=['1e-3']", "estimator=false",
             "engine=0"],
    )
    def test_mistyped_options_are_rejected_naming_the_field(self, options, field):
        # Coercing these (int(100.9), int(True), float("1e-3"), false as
        # the default estimator) would run another job than the one sent.
        with pytest.raises(BadRequest, match=f"{field} must be"):
            parse_job_request({"spec": _spec(_scenario()), **options})


# ---------------------------------------------------------------------------
# Event bus
# ---------------------------------------------------------------------------

class TestEventBus:
    def test_thread_publish_reaches_loop_subscriber(self):
        async def scenario():
            bus = EventBus()
            bus.attach(asyncio.get_running_loop())
            queue = bus.subscribe("job-1")
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: bus.publish("ping", {"x": 1}, channels=["job-1"])
            )
            event = await asyncio.wait_for(queue.get(), 5)
            return event

        event = asyncio.run(scenario())
        assert event.kind == "ping"
        assert event.data == {"x": 1}

    def test_every_event_mirrors_to_the_global_channel(self):
        bus = EventBus()
        bus.publish("a", {}, channels=["one"])
        bus.publish("b", {}, channels=["two"])
        assert [e.kind for e in bus.history(GLOBAL_CHANNEL)] == ["a", "b"]
        assert [e.kind for e in bus.history("one")] == ["a"]

    def test_sequence_numbers_are_bus_wide_and_monotonic(self):
        bus = EventBus()
        events = [bus.publish("e", {}, channels=[c]) for c in "abc"]
        assert [e.seq for e in events] == [1, 2, 3]

    def test_history_is_bounded(self):
        bus = EventBus(history_limit=3)
        for index in range(10):
            bus.publish("e", {"i": index})
        kept = [e.data["i"] for e in bus.history(GLOBAL_CHANNEL)]
        assert kept == [7, 8, 9]


# ---------------------------------------------------------------------------
# Job lifecycle over HTTP
# ---------------------------------------------------------------------------

class TestJobLifecycle:
    def test_job_executes_through_the_drain_and_returns_analyses(
        self, tmp_path, start_server
    ):
        store = ResultStore(tmp_path / "store")
        _, client = start_server(store)
        rm, hrp = _scenario(setup="rm"), _scenario(setup="hrp")
        submitted = client.submit(
            {"specs": [_spec(rm), _spec(hrp)], "cutoffs": list(CUTOFFS)}
        )
        assert submitted["scenarios"] == 2
        finished = client.wait(submitted["job_id"], timeout=120)
        assert finished["state"] == "done"
        assert finished["report"]["simulated"] == 2
        # Jobs always route through the exec drain (shards were planned).
        assert finished["report"]["shards_planned"] > 0
        results = finished["results"]
        assert [r["spec_hash"] for r in results] == [
            rm.spec_hash(),
            hrp.spec_hash(),
        ]
        for entry in results:
            assert entry["source"] == "simulated"
            assert entry["runs"] == 24
            pwcet = entry["analysis"]["pwcet"]
            assert set(pwcet) == {"1e-12", "1e-15"}
        # The campaigns and analyses landed in the shared store.
        assert store.load(rm.spec_hash()) is not None
        analysis_hash = MbptaConfig(
            exceedance_probabilities=CUTOFFS
        ).analysis_hash()
        assert store.load_analysis(rm.spec_hash(), analysis_hash) is not None

    def test_small_campaigns_skip_analysis(self, tmp_path, start_server):
        _, client = start_server(ResultStore(tmp_path / "store"))
        submitted = client.submit({"spec": _spec(_scenario(runs=8))})
        finished = client.wait(submitted["job_id"], timeout=60)
        assert finished["state"] == "done"
        assert finished["results"][0]["analysis"] is None

    def test_bad_spec_is_a_400_with_the_validation_message(
        self, tmp_path, start_server
    ):
        _, client = start_server(ResultStore(tmp_path / "store"))
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"spec": {"version": 99}})
        assert excinfo.value.status == 400
        assert "version" in excinfo.value.message
        # An unknown EEMBC kernel fails validation, not a worker's trace build.
        spec = _spec(_scenario(runs=8))
        spec["workload"] = {"kind": "eembc", "name": "nope", "scale": 1.0}
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"spec": spec})
        assert excinfo.value.status == 400
        assert "unknown EEMBC kernel 'nope'" in excinfo.value.message
        # So do initials and case variants: one campaign, one spec hash.
        for name in ("A2", "A2TIME"):
            spec["workload"] = {"kind": "eembc", "name": name, "scale": 1.0}
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"spec": spec})
            assert excinfo.value.status == 400
            assert f"'{name}' must be named exactly: 'a2time'" in excinfo.value.message
        # So does a custom hierarchy no cache can be built from.
        hierarchy = HierarchySpec.custom(with_l2=False).spec_dict()
        for placement, parameters, message in (
            ("rm", {"l1_size_bytes": 100}, "is not a multiple of ways * line_size"),
            ("rm", {"l1_size_bytes": 2 * 4 * 32}, "rm placement needs at least 4 sets"),
            ("nope", {}, "placement must be one of"),
            *(("rm", parameters, message) for parameters, message in UNUSABLE_GEOMETRIES),
        ):
            spec = _spec(_scenario(runs=8))
            spec["hierarchy"] = dict(
                hierarchy,
                l1_placement=placement,
                parameters=dict(hierarchy["parameters"], **parameters),
            )
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"spec": spec})
            assert excinfo.value.status == 400
            assert message in excinfo.value.message

    def test_mistyped_spec_fields_are_a_400(self, tmp_path, start_server):
        _, client = start_server(ResultStore(tmp_path / "store"))
        for path, value, field in MISTYPED_FIELDS:
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"spec": _mistyped_spec(path, value)})
            assert excinfo.value.status == 400, (path, value)
            assert f"{field} must be" in excinfo.value.message

    @pytest.mark.parametrize(
        "field, name", OFF_PLATFORM_NAMES, ids=[f"{f}={n}" for f, n in OFF_PLATFORM_NAMES]
    )
    def test_off_platform_policy_name_is_rejected_listing_the_accepted(
        self, tmp_path, start_server, field, name
    ):
        message = f"{field} must be one of {ACCEPTED_NAMES[field]}, got {name!r}"
        with pytest.raises(ValueError) as excinfo:
            if field == "setup":
                HierarchySpec.named(name)
            else:
                HierarchySpec.custom(**{field: name})
        assert message in str(excinfo.value)
        spec = _spec(_scenario(runs=8))
        if field == "setup":
            spec["hierarchy"]["setup"] = name
        else:
            spec["hierarchy"] = dict(HierarchySpec.custom().spec_dict(), **{field: name})
        _, client = start_server(ResultStore(tmp_path / "store"))
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"spec": spec})
        assert excinfo.value.status == 400
        assert message in excinfo.value.message

    def test_unusable_scale_is_a_400(self, tmp_path, start_server):
        # Rejected at submission, not by a worker's trace build.  NaN and
        # infinity travel as the JSON tokens Python's json reads back as
        # floats; a string scale is a type error (MISTYPED_FIELDS).
        _, client = start_server(ResultStore(tmp_path / "store"))
        for scale in (0, -1, float("nan"), float("inf")):
            spec = _spec(_scenario(runs=8))
            spec["workload"] = {"kind": "eembc", "name": "a2time", "scale": scale}
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"spec": spec})
            assert excinfo.value.status == 400, scale
            assert "scale must be a finite number > 0" in excinfo.value.message

    def test_unknown_job_and_route_are_404(self, tmp_path, start_server):
        _, client = start_server(ResultStore(tmp_path / "store"))
        with pytest.raises(ServiceError) as excinfo:
            client.job("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/other")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, tmp_path, start_server):
        _, client = start_server(ResultStore(tmp_path / "store"))
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/engines", {})
        assert excinfo.value.status == 405

    def test_malformed_content_length_is_400(self, tmp_path, start_server):
        server, client = start_server(ResultStore(tmp_path / "store"))
        for length in ("abc", "-5"):
            with socket.create_connection(
                ("127.0.0.1", server.bound_port), timeout=10
            ) as connection:
                connection.sendall(
                    f"POST /v1/gc HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                    .encode("ascii")
                )
                reply = b""
                while chunk := connection.recv(4096):
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), (length, reply)
            assert "Content-Length" in json.loads(body)["error"]
        assert client.status()["service"]  # the server still answers 200

    def test_registry_endpoints_mirror_the_registries(
        self, tmp_path, start_server
    ):
        _, client = start_server(ResultStore(tmp_path / "store"))
        engines = client.engines()
        assert sorted(engines) == ["numpy", "reference"]
        assert engines["numpy"]["bit_exact"] is True
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"spec": _spec(_scenario(runs=8)), "engine": "fast"})
        assert excinfo.value.status == 400
        assert "numpy, reference" in str(excinfo.value)
        estimators = client.estimators()
        assert "gumbel-pwm" in estimators

    def test_jobs_listing_summarises_every_job(self, tmp_path, start_server):
        _, client = start_server(ResultStore(tmp_path / "store"))
        assert client.jobs() == []
        submitted = client.submit({"spec": _spec(_scenario(runs=8))})
        client.wait(submitted["job_id"], timeout=60)
        listing = client.jobs()
        assert [entry["job_id"] for entry in listing] == [submitted["job_id"]]
        assert listing[0]["state"] == "done"
        assert listing[0]["scenarios"] == 1
        assert "results" not in listing[0]  # summaries keep the listing small

    def test_manager_jobs_default_applies_unless_overridden(
        self, tmp_path, monkeypatch
    ):
        """The `repro serve --jobs` default reaches the job's one drain."""
        monkeypatch.setattr(JobManager, "_execute", lambda self, job: None)
        calls = []
        monkeypatch.setattr(
            jobs_module,
            "execute_scenarios",
            lambda scenarios, **options: calls.append(options),
        )
        manager = JobManager(ResultStore(tmp_path / "store"), EventBus(), jobs=3)
        try:
            for options in ({}, {"jobs": 2, "engine": "reference"}):
                job = manager.submit({"spec": _spec(_scenario()), **options})
                manager._execute_scenarios(job)
        finally:
            manager.shutdown()
        assert [(call["jobs"], call["engine"]) for call in calls] == [
            (3, DEFAULT_ENGINE),
            (2, "reference"),
        ]

    def test_sse_stream_replays_and_terminates(self, tmp_path, start_server):
        _, client = start_server(ResultStore(tmp_path / "store"))
        submitted = client.submit({"spec": _spec(_scenario(runs=8))})
        client.wait(submitted["job_id"], timeout=60)
        # Connect after completion: the stream replays history and closes.
        kinds = [e["event"] for e in client.events(submitted["job_id"])]
        assert kinds[0] == "job-submitted"
        assert kinds[-1] == "job-completed"
        assert "job-started" in kinds
        assert "scenario-resolved" in kinds
        seqs = [e["seq"] for e in client.events(submitted["job_id"])]
        assert seqs == sorted(seqs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("shard_size", [4, 8])
    def test_sse_stream_carries_one_event_per_published_range(
        self, tmp_path, start_server, jobs, shard_size
    ):
        # The job's own drain reports each range it publishes, in its job
        # thread or from its pool, before the job completes; a warm
        # resubmission publishes none.
        store = ResultStore(tmp_path / "store")
        _, client = start_server(store)
        scenario = _scenario(runs=8)
        payload = {"spec": _spec(scenario), "shard_size": shard_size, "jobs": jobs}
        for ranges in (store.shard_keys, list):
            job_id = client.submit(payload)["job_id"]
            client.wait(job_id, timeout=60)
            events = list(client.events(job_id))
            published = [
                (event["spec_hash"], event["shard"])
                for event in events
                if event["event"] == "shard-published"
            ]
            assert published == ranges()
            assert events[-1]["event"] == "job-completed"
        assert len(store.shard_keys()) == 8 // shard_size


# ---------------------------------------------------------------------------
# Warm overlap: the tentpole's dedupe guarantee
# ---------------------------------------------------------------------------

class TestWarmOverlap:
    def test_concurrent_overlapping_sweeps_share_work(
        self, tmp_path, start_server, monkeypatch
    ):
        """Two clients, same sweep, concurrently: one simulates, none refit.

        Phase 1 warms the store.  Phase 2 submits the identical sweep from
        two concurrent clients; both must resolve entirely from the store
        (zero simulations, zero EVT fits) with identical payloads.
        """
        store = ResultStore(tmp_path / "store")
        server, client = start_server(store)
        specs = [_spec(_scenario(setup="rm")), _spec(_scenario(setup="hrp"))]
        payload = {"specs": specs, "cutoffs": list(CUTOFFS)}
        cold = client.wait(client.submit(payload)["job_id"], timeout=120)
        assert cold["state"] == "done"
        assert cold["report"]["simulated"] == 2

        counter = _FitCounter(monkeypatch)
        second = ServiceClient(client.url, timeout=60)
        outcomes = {}

        def run(name, which_client):
            job_id = which_client.submit(payload)["job_id"]
            outcomes[name] = which_client.wait(job_id, timeout=120)

        threads = [
            threading.Thread(target=run, args=("a", client)),
            threading.Thread(target=run, args=("b", second)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150)
        assert set(outcomes) == {"a", "b"}
        for name in ("a", "b"):
            finished = outcomes[name]
            assert finished["state"] == "done"
            assert finished["report"]["full_cache_hit"] is True
            assert finished["report"]["cache_hits"] == 2
            assert finished["report"]["simulated"] == 0
            assert all(r["source"] == "store" for r in finished["results"])
        assert counter.calls == 0  # warm overlap: zero EVT fits
        # Bit-identical responses between the two concurrent clients.
        strip = lambda p: {k: v for k, v in p.items() if k in ("results", "report")}  # noqa: E731
        assert json.dumps(strip(outcomes["a"]), sort_keys=True) == json.dumps(
            strip(outcomes["b"]), sort_keys=True
        )
        # And identical to the cold run's payloads (minus the provenance
        # marker, which legitimately flips from "simulated" to "store").
        unsourced = lambda results: [  # noqa: E731
            {k: v for k, v in entry.items() if k != "source"} for entry in results
        ]
        assert json.dumps(
            unsourced(outcomes["a"]["results"]), sort_keys=True
        ) == json.dumps(unsourced(cold["results"]), sort_keys=True)

    def test_server_results_are_byte_identical_to_the_cli_path(
        self, tmp_path, start_server, monkeypatch, capsys
    ):
        """`submit` answers from the same bytes `study run` stores."""
        store_dir = tmp_path / "store"
        assert (
            main(
                ["study", "run", "fig5", "--runs", "24", "--scale", "0.05",
                 "--store", str(store_dir)]
            )
            == 0
        )
        capsys.readouterr()  # drop the CLI chatter
        store = ResultStore(store_dir)
        settings = replace(
            ExperimentSettings.from_env(), runs=24, scale=0.05
        )
        scenarios = get_study("fig5").plan(settings)
        counter = _FitCounter(monkeypatch)
        _, client = start_server(store)
        finished = client.wait(
            client.submit(
                {
                    "specs": [s.spec_dict() for s in scenarios],
                    "cutoffs": [settings.secondary_cutoff, settings.cutoff],
                }
            )["job_id"],
            timeout=60,
        )
        assert finished["state"] == "done"
        assert finished["report"]["full_cache_hit"] is True
        assert counter.calls == 0  # analyses loaded, not refit
        for scenario, entry in zip(scenarios, finished["results"]):
            spec_hash = scenario.spec_hash()
            assert entry["spec_hash"] == spec_hash
            campaign = store.load(spec_hash)
            assert entry["mean"] == campaign.mean
            assert entry["high_water_mark"] == campaign.high_water_mark
            # The analysis payload is byte-for-byte what the CLI persisted.
            persisted = store.load_analysis(
                spec_hash, settings.mbpta_config().analysis_hash()
            )
            assert persisted is not None
            assert json.dumps(entry["analysis"], sort_keys=True) == json.dumps(
                persisted, sort_keys=True
            )


    def test_reordered_cutoffs_reuse_the_cli_analyses(
        self, tmp_path, start_server, monkeypatch, capsys
    ):
        """One set of cutoffs is one analysis: a job that writes the CLI's
        cutoffs ascending, or repeats one, fits and stores nothing new."""
        store_dir = tmp_path / "store"
        assert (
            main(
                ["study", "run", "fig5", "--runs", "24", "--scale", "0.05",
                 "--store", str(store_dir)]
            )
            == 0
        )
        capsys.readouterr()  # drop the CLI chatter
        store = ResultStore(store_dir)
        analyses = store.analysis_keys()
        settings = replace(ExperimentSettings.from_env(), runs=24, scale=0.05)
        specs = [s.spec_dict() for s in get_study("fig5").plan(settings)]
        counter = _FitCounter(monkeypatch)
        _, client = start_server(store)
        for cutoffs in (
            [settings.cutoff, settings.secondary_cutoff],
            [settings.secondary_cutoff, settings.cutoff, settings.cutoff],
        ):
            finished = client.wait(
                client.submit({"specs": specs, "cutoffs": cutoffs})["job_id"],
                timeout=60,
            )
            assert finished["state"] == "done"
        assert counter.calls == 0
        assert store.analysis_keys() == analyses


class TestColdOverlap:
    def test_concurrent_cold_jobs_execute_each_shard_once(
        self, tmp_path, monkeypatch
    ):
        """Jobs sharing one cold spec, run at once (more job threads than
        cores, frequent thread switches): each planned shard executes
        exactly once, and every job returns the same campaign."""
        executed = []
        original = ShardRunner.execute

        def counting(runner, task):
            executed.append(task["key"])
            return original(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", counting)
        scenario = _scenario(runs=64)
        concurrency = (os.cpu_count() or 1) + 1
        manager = JobManager(
            ResultStore(tmp_path / "store"),
            EventBus(),
            shard_size=8,
            concurrency=concurrency,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [
                manager.submit({"spec": _spec(scenario)}) for _ in range(concurrency)
            ]
            deadline = time.time() + 120
            while not all(job.finished for job in jobs) and time.time() < deadline:
                time.sleep(0.05)
        finally:
            sys.setswitchinterval(interval)
            manager.shutdown()
        assert [job.state for job in jobs] == ["done"] * concurrency
        planned = plan_shards(scenario.spec_hash(), scenario.runs, 8)
        assert sorted(executed) == sorted(shard.key for shard in planned)
        unsourced = [
            [{k: v for k, v in entry.items() if k != "source"} for entry in job.results]
            for job in jobs
        ]
        assert all(payload == unsourced[0] for payload in unsourced)

    @pytest.mark.parametrize(
        "seeds", [((1,), (2,)), ((1, 2), (2, 3)), ((1, 2), (1, 2))],
        ids=["disjoint", "partial", "identical"],
    )
    def test_jobs_wait_only_for_the_spec_hashes_they_share(self, tmp_path, monkeypatch, seeds):
        """Two cold jobs at once: every planned shard of their union runs
        exactly once, whatever they share, and a campaign counts as
        simulated in exactly one of them."""
        executed = []
        original = ShardRunner.execute

        def counting(runner, task):
            executed.append((task["spec_hash"], task["key"]))
            return original(runner, task)

        monkeypatch.setattr(ShardRunner, "execute", counting)
        manager = JobManager(ResultStore(tmp_path / "store"), EventBus(), shard_size=8,
                             concurrency=2)
        scenarios = {seed: _scenario(runs=16, master_seed=seed) for pair in seeds for seed in pair}
        try:
            jobs = [
                manager.submit({"specs": [_spec(scenarios[seed]) for seed in pair]})
                for pair in seeds
            ]
            deadline = time.time() + 120
            while not all(job.finished for job in jobs) and time.time() < deadline:
                time.sleep(0.05)
        finally:
            manager.shutdown()
        assert [job.state for job in jobs] == ["done", "done"]
        planned = [
            (scenario.spec_hash(), shard.key)
            for scenario in scenarios.values()
            for shard in plan_shards(scenario.spec_hash(), scenario.runs, 8)
        ]
        assert sorted(executed) == sorted(planned)
        simulated = [
            entry["spec_hash"]
            for job in jobs
            for entry in job.results
            if entry["source"] == "simulated"
        ]
        assert sorted(simulated) == sorted(scenario.spec_hash() for scenario in scenarios.values())



# ---------------------------------------------------------------------------
# Crash resilience: a SIGKILLed run's published ranges serve a job
# ---------------------------------------------------------------------------

class TestCrashResilience:
    def test_job_survives_sigkilled_external_worker(
        self, tmp_path, start_server, monkeypatch
    ):
        """E2E: a job resumes from a SIGKILLed ``study run``'s ranges.

        A throttled ``study run`` process on the server's store is killed
        once some of its ranges are published.  A job for the same specs
        executes only the unpublished shards and its campaigns match their
        serial runs bit for bit; a repeat submission then resolves fully
        warm with zero EVT fits.
        """
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

        _, client = start_server(store)
        specs = [scenario.spec_dict() for scenario in scenarios]
        payload = {"specs": specs, "shard_size": 6, "cutoffs": list(CUTOFFS)}
        finished = client.wait(client.submit(payload)["job_id"], timeout=120)
        assert finished["state"] == "done"
        report = finished["report"]
        assert (report["shards_planned"], report["shards_reused"]) == (8, published)
        assert report["shards_executed"] == 8 - published
        for scenario, entry in zip(scenarios, finished["results"]):
            serial = run_campaign(
                scenario.workload.build_trace(),
                scenario.hierarchy.config(),
                runs=scenario.runs,
                master_seed=scenario.effective_seed,
            )
            assert store.load(scenario.spec_hash()).execution_times == serial.execution_times
            assert entry["mean"] == serial.mean
            assert entry["miss_summary"] == serial.miss_summary
        baseline = finished["results"]

        counter = _FitCounter(monkeypatch)
        warm = client.wait(
            client.submit({"specs": specs, "cutoffs": list(CUTOFFS)})["job_id"],
            timeout=60,
        )
        assert warm["state"] == "done"
        assert warm["report"]["full_cache_hit"] is True
        assert counter.calls == 0
        for entry, cold in zip(warm["results"], baseline):
            for key in ("mean", "high_water_mark", "runs", "analysis"):
                assert entry[key] == cold[key]


# ---------------------------------------------------------------------------
# Status and GC
# ---------------------------------------------------------------------------

class TestStatusAndGc:
    def test_status_embeds_the_exec_snapshot_and_job_counts(
        self, tmp_path, start_server
    ):
        # A killed run left half of one campaign's lanes published.
        store = ResultStore(tmp_path / "store")
        partial = _scenario(runs=8, master_seed=1)
        [shard, _] = plan_shards(partial.spec_hash(), partial.runs, 4)
        publish_shard(ShardRunner(), store, shard_task(partial, shard, DEFAULT_ENGINE))
        _, client = start_server(store)
        submitted = client.submit({"spec": _spec(_scenario(runs=8))})
        client.wait(submitted["job_id"], timeout=60)
        status = client.status()
        assert status["service"]["jobs"]["done"] == 1
        assert status["service"]["uptime_seconds"] >= 0
        # The exec section is exec_status_snapshot verbatim: the partly
        # published campaign with its engine, and not the job's stored one.
        assert status["exec"] == exec_status_snapshot(store)
        assert set(status["exec"]["specs"]) == {partial.spec_hash()}
        assert status["exec"]["specs"][partial.spec_hash()]["engine"] == "numpy"
        assert status["exec"]["totals"]["published"] == 4

    def test_gc_endpoint_plans_then_sweeps(self, tmp_path, start_server):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        _, client = start_server(store)
        plan = client.gc(older_than=0, dry_run=True)
        assert plan["dry_run"] is True
        assert any("aaa" in path for path in plan["candidates"])
        assert store.load_analysis("aaa", "cfg") is not None  # nothing deleted
        swept = client.gc(older_than=0)
        assert swept["removed"] >= 1
        assert store.load_analysis("aaa", "cfg") is None
        assert client.status()["service"]["gc"]["sweeps"] == 1

    def test_gc_service_shares_decisions_with_clean_dry_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        (store.shard_root / "bbb.00000000x000008.rcol.0123abcd.tmp").write_bytes(b"")
        service = GcService(store, EventBus(), older_than=0.0)
        # The service defaults to analyses-only (temporary files may belong
        # to a publish still running; age alone cannot tell).
        assert service.plan() == [
            str(path.relative_to(store.root))
            for path in store.sweep_candidates(0.0, analyses_only=True)
        ]
        assert service.sweep_once() == 1
        assert store.has_shard("bbb", "00000000x000004")
        # Sweeping temporary files is an explicit request; a published
        # range is a result and is never swept.
        assert service.plan(analyses_only=False) == [
            str(path.relative_to(store.root))
            for path in store.sweep_candidates(0.0, analyses_only=False)
        ]
        assert service.sweep_once(analyses_only=False) == 1
        assert service.plan(analyses_only=False) == []
        assert store.has_shard("bbb", "00000000x000004")

    def test_background_gc_never_sweeps_published_shards(
        self, tmp_path, start_server
    ):
        """A campaign outliving gc_age must not lose its published shards."""
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        _, client = start_server(store, gc_interval=0.2, gc_age=0.0)
        deadline = time.time() + 10
        while time.time() < deadline:
            if client.status()["service"]["gc"]["sweeps"] >= 1:
                break
            time.sleep(0.1)
        else:
            pytest.fail("background GC never swept")
        assert store.load_analysis("aaa", "cfg") is None
        assert store.has_shard("bbb", "00000000x000004")

    def test_gc_rejects_non_numeric_older_than(self, tmp_path, start_server):
        _, client = start_server(ResultStore(tmp_path / "store"))
        with pytest.raises(ServiceError) as excinfo:
            client.gc(older_than="soon")  # type: ignore[arg-type]
        assert excinfo.value.status == 400
        assert "older_than" in excinfo.value.message

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"older_than": True}, "older_than"),
            ({"older_than": "0"}, "older_than"),
            ({"analyses_only": "false"}, "analyses_only"),
            ({"analyses_only": 0}, "analyses_only"),
            ({"dry_run": "yes"}, "dry_run"),
        ],
        ids=["older_than=true", "older_than='0'", "analyses_only='false'",
             "analyses_only=0", "dry_run='yes'"],
    )
    def test_gc_rejects_mistyped_options_and_removes_nothing(
        self, tmp_path, start_server, options, field
    ):
        """bool("false") is True and float(True) a one-second age: a
        coerced option would sweep by another rule than the one sent."""
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        planted = [path for path in store.root.rglob("*") if path.is_file()]
        _, client = start_server(store)
        with pytest.raises(ServiceError) as excinfo:
            client.gc(**{"older_than": 0, **options})
        assert excinfo.value.status == 400
        assert f"{field} must be" in excinfo.value.message
        assert all(path.exists() for path in planted)

    @pytest.mark.parametrize(
        "older_than", [-1, "nan", float("nan")], ids=["negative", "nan-text", "nan-json"]
    )
    def test_gc_rejects_negative_or_nan_age_and_removes_nothing(
        self, tmp_path, start_server, older_than
    ):
        """A negative or NaN age would make every file old enough to sweep,
        a running publish's temporary file included."""
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        (store.shard_root / "bbb.00000000x000008.rcol.0123abcd.tmp").write_bytes(b"")
        planted = [path for path in store.root.rglob("*") if path.is_file()]
        _, client = start_server(store)
        for dry_run in (True, False):
            with pytest.raises(ServiceError) as excinfo:
                client.gc(older_than=older_than, analyses_only=False, dry_run=dry_run)
            assert excinfo.value.status == 400
            assert "older_than" in excinfo.value.message
        assert all(path.exists() for path in planted)

    def test_background_gc_loop_sweeps_periodically(
        self, tmp_path, start_server
    ):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("aaa", "cfg", {"v": 1})
        _, client = start_server(store, gc_interval=0.2, gc_age=0.0)
        deadline = time.time() + 10
        while time.time() < deadline:
            if client.status()["service"]["gc"]["sweeps"] >= 1:
                break
            time.sleep(0.1)
        else:
            pytest.fail("background GC never swept")
        assert store.load_analysis("aaa", "cfg") is None


# ---------------------------------------------------------------------------
# The CLI client surface: python -m repro submit
# ---------------------------------------------------------------------------

class TestSubmitCli:
    def test_submit_waits_and_renders_then_hits_cache(
        self, tmp_path, start_server, capsys
    ):
        store = ResultStore(tmp_path / "store")
        server, _ = start_server(store)
        url = f"http://127.0.0.1:{server.bound_port}"
        argv = ["submit", "fig5", "--runs", "24", "--scale", "0.05", "--url", url]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "job " in cold and ": done" in cold
        assert "pWCET@" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "full cache hit" in warm
        assert "source=store" in warm

    def test_submit_json_format_emits_the_job_payload(
        self, tmp_path, start_server, capsys
    ):
        store = ResultStore(tmp_path / "store")
        server, _ = start_server(store)
        url = f"http://127.0.0.1:{server.bound_port}"
        assert (
            main(
                ["submit", "fig5", "--runs", "24", "--scale", "0.05",
                 "--url", url, "--format", "json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "done"
        assert len(payload["results"]) == 2

    def test_submit_no_wait_returns_after_the_202(
        self, tmp_path, start_server, capsys
    ):
        store = ResultStore(tmp_path / "store")
        server, client = start_server(store)
        url = f"http://127.0.0.1:{server.bound_port}"
        assert (
            main(
                ["submit", "fig5", "--runs", "24", "--scale", "0.05",
                 "--url", url, "--no-wait"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out
        job_id = out.split()[1].rstrip(":")
        assert client.wait(job_id, timeout=120)["state"] == "done"

    def test_submit_follow_renders_the_event_stream(
        self, tmp_path, start_server, capsys
    ):
        store = ResultStore(tmp_path / "store")
        server, _ = start_server(store)
        url = f"http://127.0.0.1:{server.bound_port}"
        argv = ["submit", "fig5", "--runs", "24", "--scale", "0.05",
                "--url", url, "--follow"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "submitted: 2 scenario(s)" in out
        assert "started" in out
        assert "scenario " in out
        assert "completed:" in out
        # The final payload is still rendered after the stream closes.
        assert ": done" in out
        assert "pWCET@" in out

    def test_submit_follow_conflicts_with_no_wait(self, capsys):
        with pytest.raises(SystemExit):
            main(["submit", "fig5", "--runs", "24", "--follow", "--no-wait"])
        assert "--no-wait" in capsys.readouterr().err

    def test_submit_against_no_server_fails_cleanly(self, capsys):
        assert (
            main(
                ["submit", "fig5", "--runs", "24",
                 "--url", "http://127.0.0.1:9"]  # discard port: nothing listens
            )
            == 1
        )
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_validates_runs_like_the_other_surfaces(self, capsys):
        assert main(["submit", "fig5", "--runs", "4"]) == 2
        assert "at least" in capsys.readouterr().err

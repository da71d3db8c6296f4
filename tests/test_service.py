"""The repro.service subsystem: HTTP API, job manager, events, GC.

The invariants under test:

* the server executes jobs through the exact store + exec-queue pipeline
  the CLI uses, so **responses are byte-identical to the CLI path** for
  the same specs (analysis payloads compare equal as canonical JSON);
* concurrent clients submitting overlapping sweeps deduplicate by spec
  hash — the overlap resolves warm with **zero simulations and zero EVT
  fits**;
* a SIGKILLed external worker does not lose a job: its dead lease is
  reclaimed and the job completes (the exec queue's crash story, observed
  end to end through the API).
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
from repro.analysis.experiments import ExperimentSettings
from repro.exec import FileQueue, ShardRunner, plan_shards, read_heartbeats, shard_task
from repro.exec.status import exec_status_snapshot
from repro.pwcet import MbptaConfig
from repro.service.api.server import ReproServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.services.events import EventBus, GLOBAL_CHANNEL
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
        kwargs.setdefault("watch_interval", 0.05)
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
    def test_job_executes_through_queue_and_returns_analyses(
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
        # Jobs always route through the exec queue (shards were planned).
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
        # So does a custom hierarchy no cache can be built from.
        hierarchy = HierarchySpec.custom(with_l2=False).spec_dict()
        for placement, l1_size_bytes, message in (
            ("rm", 100, "is not a multiple of ways * line_size"),
            ("rm", 2 * 4 * 32, "rm placement needs at least 4 sets"),
            ("nope", 16 * 1024, "placement must be one of"),
        ):
            spec = _spec(_scenario(runs=8))
            spec["hierarchy"] = dict(
                hierarchy,
                l1_placement=placement,
                parameters=dict(hierarchy["parameters"], l1_size_bytes=l1_size_bytes),
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
        """The `repro serve --jobs` default reaches the scenarios."""
        monkeypatch.setattr(JobManager, "_execute", lambda self, job: None)
        manager = JobManager(ResultStore(tmp_path / "store"), EventBus(), jobs=3)
        try:
            defaulted = manager.submit({"spec": _spec(_scenario())})
            assert [s.jobs for s in defaulted.scenarios] == [3]
            overridden = manager.submit({"spec": _spec(_scenario()), "jobs": 2})
            assert [s.jobs for s in overridden.scenarios] == [2]
        finally:
            manager.shutdown()

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



# ---------------------------------------------------------------------------
# Crash resilience: SIGKILLed external worker, job still completes
# ---------------------------------------------------------------------------

class TestCrashResilience:
    def test_job_survives_sigkilled_external_worker(
        self, tmp_path, start_server, monkeypatch
    ):
        """E2E: kill a worker mid-shard, the job completes via lease reclaim.

        An external worker claims a shard of the job's campaign and dies
        (SIGKILL) holding the lease.  The server's own execution reclaims
        the dead-pid lease and finishes; a repeat submission then resolves
        fully warm with zero EVT fits.
        """
        scenario = _scenario(runs=24)
        store = ResultStore(tmp_path / "store")
        queue = FileQueue(store.queue_root)
        # Pre-enqueue the job's own shard plan so the external worker has
        # the real tasks to claim before the server even starts.
        shards = plan_shards(scenario.spec_hash(), scenario.runs, 4)
        for shard in shards:
            queue.enqueue(shard_task(scenario, shard, scenario.engine))

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_EXEC_THROTTLE"] = "30"  # kill lands between claim and run
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
        held = [p for p in queue.tasks() if queue.lease_for(p) is not None]
        assert held and not queue.lease_for(held[0]).active()  # dead pid

        _, client = start_server(store)
        submitted = client.submit(
            {"spec": _spec(scenario), "shard_size": 4, "cutoffs": list(CUTOFFS)}
        )
        finished = client.wait(submitted["job_id"], timeout=120)
        assert finished["state"] == "done"
        assert finished["results"][0]["source"] == "simulated"
        baseline = finished["results"][0]

        counter = _FitCounter(monkeypatch)
        warm = client.wait(
            client.submit(
                {"spec": _spec(scenario), "cutoffs": list(CUTOFFS)}
            )["job_id"],
            timeout=60,
        )
        assert warm["state"] == "done"
        assert warm["report"]["full_cache_hit"] is True
        assert counter.calls == 0
        for key in ("mean", "high_water_mark", "runs", "analysis"):
            assert warm["results"][0][key] == baseline[key]


# ---------------------------------------------------------------------------
# Status, heartbeat telemetry, GC
# ---------------------------------------------------------------------------

class TestStatusAndGc:
    def test_status_embeds_the_exec_snapshot_and_job_counts(
        self, tmp_path, start_server
    ):
        store = ResultStore(tmp_path / "store")
        _, client = start_server(store)
        submitted = client.submit({"spec": _spec(_scenario(runs=8))})
        client.wait(submitted["job_id"], timeout=60)
        status = client.status()
        assert status["service"]["jobs"]["done"] == 1
        assert status["service"]["uptime_seconds"] >= 0
        # The exec section is format_exec_status's own snapshot, verbatim
        # in shape (heartbeat ages move between calls, so compare keys).
        local = exec_status_snapshot(store)
        assert set(status["exec"]) == set(local)
        assert status["exec"]["queue_root"] == local["queue_root"]
        # The in-process queue drain left heartbeat telemetry with the
        # engine recorded; the scenario names none, so it is the default.
        workers = status["exec"]["workers"]
        assert workers and all(w["engine"] == "numpy" for w in workers)

    def test_worker_heartbeats_surface_engine_over_http(
        self, tmp_path, start_server
    ):
        store = ResultStore(tmp_path / "store")
        _, client = start_server(store)
        submitted = client.submit({"spec": _spec(_scenario(runs=8))})
        client.wait(submitted["job_id"], timeout=60)
        beats = read_heartbeats(FileQueue(store.queue_root))
        assert beats and beats[0].engine == "numpy"

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
        service = GcService(store, EventBus(), older_than=0.0)
        # The service defaults to analyses-only (published shards may belong
        # to a campaign still running; age alone cannot tell).
        assert service.plan() == [
            str(path.relative_to(store.root))
            for path in store.sweep_candidates(0.0, analyses_only=True)
        ]
        assert service.sweep_once() == 1
        assert store.load_shard("bbb", "00000000x000004") is not None
        # Sweeping shards and queue bookkeeping is an explicit request.
        assert service.plan(analyses_only=False) == [
            str(path.relative_to(store.root))
            for path in store.sweep_candidates(0.0, analyses_only=False)
        ]
        assert service.sweep_once(analyses_only=False) == 1
        assert service.plan(analyses_only=False) == []

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
        assert store.load_shard("bbb", "00000000x000004") is not None

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
        a running campaign's shards, tasks and leases included."""
        store = ResultStore(tmp_path / "store")
        scenario = _scenario(runs=8)
        store.save_analysis("aaa", "cfg", {"v": 1})
        store.save_shard("bbb", "00000000x000004", {"version": 1})
        queue = FileQueue(store.queue_root)
        [shard] = plan_shards(scenario.spec_hash(), scenario.runs, 8)
        assert queue.try_claim(queue.enqueue(shard_task(scenario, shard, scenario.engine)), "gc-test")
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

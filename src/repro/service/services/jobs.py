"""Job management for the analysis server.

A *job* is one client submission: a scenario spec or a pre-expanded sweep
(the same canonical JSON that :func:`repro.study.scenario.scenario_from_spec`
round-trips), plus analysis/execution options.  The manager validates the
request up front (bad specs fail with a clear message before a job id is
ever minted), then executes the job on a worker thread through the exact
pipeline ``study run`` uses:

* campaigns resolve from the shared content-hash
  :class:`~repro.study.store.ResultStore` first — concurrent clients
  submitting overlapping sweeps deduplicate by spec hash, and the second
  client's overlap costs zero simulations;
* cold campaigns go through the :mod:`repro.exec` file-backed work queue,
  as every campaign does, so standalone ``python -m repro worker``
  processes attached to the store drain server jobs, and a SIGKILLed
  worker's shards are reclaimed exactly as in the CLI pipeline;
* pWCET analyses route through the result set's analysis cache keyed by
  ``(spec_hash, analysis_config_hash)`` — a warm job performs **zero** EVT
  fits and returns byte-identical analysis payloads to the CLI path.

Job state lives in memory (the campaigns and analyses themselves are in
the store; a restarted server re-serves them warm), and every lifecycle
transition is published on the :class:`~repro.service.services.events.EventBus`.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ...engine import DEFAULT_ENGINE, get_engine
from ...pwcet import MBPTA_MIN_RUNS, MbptaConfig, analysis_payload, get_estimator
from ...study.runner import execute_scenarios
from ...study.resultset import ResultSet, ScenarioOutcome
from ...study.scenario import Scenario, scenario_from_spec
from ...study.store import ResultStore
from .events import EventBus

__all__ = [
    "BadRequest",
    "Job",
    "JobManager",
    "JobOptions",
    "parse_job_request",
    "scenario_payload",
]

#: States a job moves through (terminal: ``done`` / ``failed``).
JOB_STATES = ("queued", "running", "done", "failed")


class BadRequest(ValueError):
    """A job request the server must reject with HTTP 400."""


@dataclass(frozen=True)
class JobOptions:
    """Per-job overrides riding along with the submitted specs."""

    estimator: str = ""
    cutoffs: Optional[Tuple[float, ...]] = None
    engine: str = ""
    jobs: Optional[int] = None
    shard_size: Optional[int] = None

    def mbpta_config(self) -> MbptaConfig:
        """The one analysis config of the job's result set."""
        overrides: Dict[str, Any] = {}
        if self.estimator:
            overrides["fit_method"] = self.estimator
        if self.cutoffs is not None:
            overrides["exceedance_probabilities"] = self.cutoffs
        return MbptaConfig(**overrides)


def _option_int(payload: Mapping[str, object], key: str) -> Optional[int]:
    """An integer option: a JSON integer (``2``, not ``2.0``, ``"2"`` or
    ``true``), or ``None`` when absent.  Coercing would run another job
    than the one sent: ``int(100.9)`` is 100, ``int(True)`` is 1."""
    value = payload.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise BadRequest(f"{key} must be an integer, got {value!r}")
    return value


def _option_name(payload: Mapping[str, object], key: str) -> str:
    """A registry-name option: a JSON string, or ``""`` when absent or null
    (``false`` is not a name, and must not select the default)."""
    value = payload.get(key)
    if value is not None and not isinstance(value, str):
        raise BadRequest(f"{key} must be a registry name, got {value!r}")
    return value or ""


def _parse_options(payload: Mapping[str, object]) -> JobOptions:
    estimator = _option_name(payload, "estimator")
    if estimator:
        try:
            # Resolve through the config so the "pwm"/"mle" aliases work.
            get_estimator(MbptaConfig(fit_method=estimator).estimator_name)
        except ValueError as error:
            raise BadRequest(str(error)) from None
    engine = _option_name(payload, "engine")
    if engine:
        try:
            get_engine(engine)
        except ValueError as error:
            raise BadRequest(str(error)) from None
    cutoffs: Optional[Tuple[float, ...]] = None
    if payload.get("cutoffs") is not None:
        raw = payload["cutoffs"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise BadRequest("cutoffs must be a non-empty list of probabilities")
        for value in raw:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise BadRequest(f"cutoffs must be numbers, got {value!r}")
        cutoffs = tuple(float(value) for value in raw)
        if any(not 0.0 < value < 1.0 for value in cutoffs):
            raise BadRequest("cutoffs must be exceedance probabilities in (0, 1)")
    jobs = _option_int(payload, "jobs")
    if jobs is not None and jobs < 0:
        raise BadRequest(f"jobs must be >= 0 (0 = one worker per CPU), got {jobs}")
    shard_size = _option_int(payload, "shard_size")
    if shard_size is not None and shard_size < 1:
        raise BadRequest(f"shard_size must be >= 1, got {shard_size}")
    return JobOptions(
        estimator=estimator,
        cutoffs=cutoffs,
        engine=engine,
        jobs=jobs,
        shard_size=shard_size,
    )


def parse_job_request(
    payload: Mapping[str, object],
) -> Tuple[List[Scenario], JobOptions]:
    """Validate one ``POST /v1/jobs`` body into scenarios plus options.

    Accepts ``{"spec": {...}}`` for a single scenario or
    ``{"specs": [{...}, ...]}`` for a sweep.  Scenarios are rebuilt with
    :func:`scenario_from_spec` (so a bad spec fails with its own message),
    deduplicated by spec hash and given unique labels; the options apply
    to the whole job (the analysis options make its one
    :meth:`JobOptions.mbpta_config`, the engine and ``jobs`` its one
    execution).  Raises :class:`BadRequest` on anything the server should
    answer 400 to.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest("request body must be a JSON object")
    if ("spec" in payload) == ("specs" in payload):
        raise BadRequest("request must carry exactly one of 'spec' or 'specs'")
    specs = [payload["spec"]] if "spec" in payload else payload["specs"]
    if not isinstance(specs, (list, tuple)):
        raise BadRequest("'specs' must be a list of scenario specs")
    if not specs:
        raise BadRequest("a job needs at least one scenario spec")
    options = _parse_options(payload)

    scenarios: List[Scenario] = []
    seen_hashes: Dict[str, int] = {}
    seen_labels: Dict[str, int] = {}
    for index, spec in enumerate(specs):
        if not isinstance(spec, Mapping):
            raise BadRequest(f"spec #{index} is not a JSON object")
        try:
            scenario = scenario_from_spec(spec)
        except (ValueError, KeyError, TypeError) as error:
            raise BadRequest(f"spec #{index} is invalid: {error}") from None
        spec_hash = scenario.spec_hash()
        if spec_hash in seen_hashes:
            continue  # overlapping sweep entries are one unit of work
        seen_hashes[spec_hash] = index
        # Labels are presentation-only (excluded from the hash) but must be
        # unique within a result set; suffix collisions deterministically.
        label = scenario.display_label
        count = seen_labels.get(label, 0)
        seen_labels[label] = count + 1
        if count:
            scenario = replace(scenario, label=f"{label}#{count + 1}")
        scenarios.append(scenario)
    return scenarios, options


def scenario_payload(
    outcome: ScenarioOutcome, analysis: Optional[Dict[str, object]]
) -> Dict[str, object]:
    """One scenario's slice of a job response.

    ``analysis`` is the exact persisted payload
    (:func:`repro.pwcet.analysis_payload`), so clients can byte-compare it
    with what the CLI path stores for the same spec.
    """
    campaign = outcome.campaign
    return {
        "spec_hash": outcome.spec_hash,
        "label": outcome.label,
        "spec": outcome.scenario.spec_dict(),
        "workload": campaign.workload,
        "setup": campaign.setup,
        "runs": campaign.runs,
        "mean": campaign.mean,
        "high_water_mark": campaign.high_water_mark,
        "source": "store" if outcome.from_cache else "simulated",
        "miss_summary": dict(campaign.miss_summary),
        "analysis": analysis,
    }


@dataclass
class Job:
    """One submission's lifecycle, options and (eventually) results."""

    job_id: str
    scenarios: List[Scenario]
    options: JobOptions
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: str = ""
    results: List[Dict[str, object]] = field(default_factory=list)
    report_payload: Dict[str, object] = field(default_factory=dict)

    @property
    def spec_hashes(self) -> List[str]:
        return [scenario.spec_hash() for scenario in self.scenarios]

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def payload(self) -> Dict[str, object]:
        """The ``GET /v1/jobs/<id>`` response body."""
        body: Dict[str, object] = {
            "job_id": self.job_id,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "scenarios": len(self.scenarios),
            "spec_hashes": self.spec_hashes,
        }
        if self.report_payload:
            body["report"] = dict(self.report_payload)
        if self.state == "done":
            body["results"] = list(self.results)
        if self.state == "failed":
            body["error"] = self.error
        return body


class JobManager:
    """Accepts, executes and tracks jobs over a shared result store."""

    def __init__(
        self,
        store: ResultStore,
        bus: EventBus,
        jobs: int = 1,
        shard_size: Optional[int] = None,
        concurrency: int = 2,
    ) -> None:
        self.store = store
        self.bus = bus
        #: Worker processes of a job's cold campaigns (1 = the job thread
        #: drains the queue itself; external workers may always join), for
        #: every job that does not set its own ``jobs``.
        self.default_jobs = jobs
        #: Shard size of every job that does not set its own (``None`` =
        #: the planner's width).
        self.shard_size = shard_size
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, concurrency), thread_name_prefix="repro-job"
        )
        self._closed = False

    # -------------------------------------------------------------- submit

    def submit(self, payload: Mapping[str, object]) -> Job:
        """Validate a request, mint a job and schedule its execution."""
        if self._closed:
            raise RuntimeError("server is shutting down")
        scenarios, options = parse_job_request(payload)
        job = Job(job_id=uuid.uuid4().hex[:12], scenarios=scenarios, options=options)
        with self._lock:
            self._jobs[job.job_id] = job
        self.bus.publish(
            "job-submitted",
            {
                "job_id": job.job_id,
                "scenarios": len(scenarios),
                "spec_hashes": job.spec_hashes,
            },
            channels=[job.job_id],
        )
        self._pool.submit(self._execute, job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------ watching

    def channels_for_spec(self, spec_hash: Optional[str]) -> List[str]:
        """Job channels interested in a spec hash (all active jobs if None).

        This is the store watcher's routing callback: shard-publish events
        go to the jobs containing the shard's spec, heartbeat events to
        every active job.
        """
        with self._lock:
            return [
                job.job_id
                for job in self._jobs.values()
                if not job.finished
                and (spec_hash is None or spec_hash in job.spec_hashes)
            ]

    def status_snapshot(self) -> Dict[str, object]:
        """Job counts by state (embedded in ``GET /v1/status``)."""
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
            total = len(self._jobs)
        return {"total": total, **counts}

    def shutdown(self) -> None:
        """Stop accepting jobs and wait out the running ones."""
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            for job in self._jobs.values():
                if not job.finished:
                    job.state = "failed"
                    job.error = "server shut down before the job finished"
                    job.finished_at = time.time()

    # ------------------------------------------------------------- execute

    def _execute(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        self.bus.publish(
            "job-started", {"job_id": job.job_id}, channels=[job.job_id]
        )
        try:
            results = self._execute_scenarios(job)
            payloads: List[Dict[str, object]] = []
            for outcome in results:
                analysis: Optional[Dict[str, object]] = None
                if len(outcome.campaign.execution_times) >= MBPTA_MIN_RUNS:
                    # Store-cached and batch-fitted by the result set; warm
                    # outcomes load the persisted payload with zero EVT fits.
                    analysis = analysis_payload(results.mbpta(outcome.label))
                payloads.append(scenario_payload(outcome, analysis))
                self.bus.publish(
                    "scenario-resolved",
                    {
                        "job_id": job.job_id,
                        "spec_hash": outcome.spec_hash,
                        "label": outcome.label,
                        "source": "store" if outcome.from_cache else "simulated",
                    },
                    channels=[job.job_id],
                )
            report = results.report
            job.results = payloads
            job.report_payload = {
                "planned": report.planned,
                "cache_hits": report.cache_hits,
                "simulated": report.simulated,
                "stored": report.stored,
                "shards_planned": report.shards_planned,
                "shards_executed": report.shards_executed,
                "shards_reused": report.shards_reused,
                "full_cache_hit": report.full_cache_hit,
                "summary": report.summary(),
            }
            job.state = "done"
            job.finished_at = time.time()
            self.bus.publish(
                "job-completed",
                {"job_id": job.job_id, "summary": report.summary()},
                channels=[job.job_id],
            )
        except Exception as error:  # the job fails; the server must not
            job.error = f"{type(error).__name__}: {error}"
            job.state = "failed"
            job.finished_at = time.time()
            self.bus.publish(
                "job-failed",
                {"job_id": job.job_id, "error": job.error},
                channels=[job.job_id],
            )

    def _execute_scenarios(self, job: Job) -> ResultSet:
        """Run the job's scenarios through the store + exec queue, in one
        drain on the job's engine and ``jobs`` (else the server's).

        Concurrent jobs sharing a spec hash converge on the same shard
        entries, and a job that reaches a spec another job has recorded
        returns that entry instead of simulating it again (see
        :func:`repro.exec.executor.execute_campaigns`).
        """
        options = job.options
        shard_size = options.shard_size
        return execute_scenarios(
            job.scenarios,
            store=self.store,
            use_cache=True,
            engine=options.engine or DEFAULT_ENGINE,
            jobs=self.default_jobs if options.jobs is None else options.jobs,
            shard_size=self.shard_size if shard_size is None else shard_size,
            mbpta=options.mbpta_config(),
        )

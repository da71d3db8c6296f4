"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload cold_seeds --seed 1 --master-seed 20160605 \\
        --store STORE --t0 T0 --out OUT.json [--spans SPANS.json] [--setup-only]
        [--reference]

run.py starts this with every ``REPRO_*`` variable removed and
``PYTHONPATH`` pointing at the checkout's ``src``.  ``STORE`` is a fresh,
empty directory, so the result store, the placement-map disk tier
(``STORE/maps``) and the run-table row cache all start empty.  ``T0`` is
the ``time.monotonic()`` reading taken just before this process was
spawned; set-up time runs from it to the moment the first timed operation
can be issued.  ``--master-seed`` is the campaign master seed of every
simulated scenario; ``--seed`` only orders the operations (which study of
the cold operation runs first, the order of a job's specs).

The timed phase is the cold operation followed by the closed warm loop,
with the query rounds spread through that loop.  Correctness checks and
the counting of simulated work run after it, untimed.  The result is one
JSON object written to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import QUERIES, QUERY_ROUNDS, WARM_SAMPLES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent

#: Failure messages kept per repetition; the count is always exact.
MAX_MESSAGES = 10


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ops:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        """A failure found after the operation was counted (a digest check)."""
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(what)

    def merge(self, rep: dict) -> None:
        """Add a repetition's counts; a repetition that crashed is one failed op."""
        if "error" in rep:
            self.record(False, rep["error"])
            return
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.messages += rep["failures"][: MAX_MESSAGES - len(self.messages)]


def reap(process: subprocess.Popen, deadline: float, kill=None):
    """Wait for ``process``; its resource usage (``ru_maxrss`` is peak RSS).

    Past ``deadline`` the process is killed, by ``kill()`` when given.
    """
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() >= deadline:
            (kill or process.kill)()
            deadline = float("inf")
        time.sleep(0.02)


def call_cli(cli, argv):
    """Run ``repro.__main__.main(argv)`` in-process: (stdout, error or None)."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli(argv)
    except SystemExit as exit_:  # argparse rejects bad arguments this way
        code = exit_.code
    except Exception as error:
        return buffer.getvalue(), f"{type(error).__name__}: {error}"
    return buffer.getvalue(), None if code in (0, None) else f"exit code {code}"


def study_digest(study: str, text: str) -> str:
    """Digest of a study's ``--format text`` result, without the chatter.

    The ``== study`` banner and the ``-- study`` summary and timing lines
    differ between a cold and a warm run; the rendered result does not.
    """
    chatter = (f"== {study}:", f"-- {study}:", f"-- {study} finished in")
    return sha256("\n".join(line for line in text.splitlines() if not line.startswith(chatter)))


def query_round(cli, store: str, first: bool, ops: Ops, digests: dict) -> float:
    """``query runs`` + ``query compare rm hrp`` on ``store``; elapsed ms.

    The first round builds the run table from the fresh store.  Later
    rounds pass ``query runs --refresh``, which ignores the row cache, so
    every round repeats that build.
    """
    texts = []
    began = time.perf_counter()
    for query in QUERIES:
        refresh = [] if first or query[1] != "runs" else ["--refresh"]
        text, error = call_cli(cli, [*query, *refresh, "--store", store])
        texts.append((query, text, error))
    elapsed_ms = 1000.0 * (time.perf_counter() - began)
    for query, text, error in texts:
        name = " ".join(query)
        digest = sha256(text.replace(store, "<store>"))
        ops.record(
            error is None and bool(text.strip()) and digests.setdefault(name, digest) == digest,
            f"{name}: {error or 'no output, or output differs between rounds'}",
        )
    return elapsed_ms


def closed_loop(warm_op, cli, store: str, ops: Ops) -> dict:
    """One client issuing WARM_SAMPLES warm operations back to back.

    QUERY_ROUNDS query rounds are spread evenly through the loop, so the
    query figure samples the same stretch of time as the warm figures.
    ``warm_op()`` checks its own output and returns its latency in ms.
    """
    warm_ms, query_ms, digests = [], [], {}
    every = WARM_SAMPLES // QUERY_ROUNDS
    for index in range(WARM_SAMPLES):
        if index % every == 0:
            query_ms.append(query_round(cli, store, not index, ops, digests))
        warm_ms.append(warm_op())
    return {"warm_ms": warm_ms, "query_ms": query_ms, "digests": digests}


def settings_for(workload: Workload, seed: int):
    from repro.analysis.experiments import ExperimentSettings

    return ExperimentSettings(runs=workload.runs, master_seed=seed, engine="numpy", jobs=1)


def simulated_work(workload: Workload, seed: int) -> dict:
    """Unique scenarios, seed lanes, layouts and modelled memory accesses.

    Accesses are trace length x runs (seed lanes or layouts), summed over
    the unique specs the cold operation simulates.
    """
    from repro.study import get_study

    settings = settings_for(workload, seed)
    unique = {}
    for study in workload.studies:
        for scenario in get_study(study).plan(settings):
            unique.setdefault(scenario.spec_hash(), scenario)
    lengths: dict = {}
    work = {"scenarios": len(unique), "seed_lanes": 0, "layouts": 0, "accesses": 0}
    for scenario in unique.values():
        if scenario.workload not in lengths:
            lengths[scenario.workload] = len(scenario.workload.build_trace())
        kind = "layouts" if scenario.campaign == "layouts" else "seed_lanes"
        work[kind] += scenario.runs
        work["accesses"] += lengths[scenario.workload] * scenario.runs
    return work


def ordered(items, seed: int) -> list:
    """``items`` in the order ``seed`` picks."""
    return random.Random(seed).sample(list(items), len(items))


def finish(result: dict, workload: Workload, seed: int, ops: Ops) -> dict:
    result.update(
        work=simulated_work(workload, seed),
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.messages,
    )
    return result


# ------------------------------------------------------------ in-process


def run_cli_workload(args, workload: Workload, recorder) -> dict:
    from repro.__main__ import main as cli
    from repro.study import ResultStore

    ResultStore(args.store)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        return result

    ops = Ops()
    digests = {}
    study_s = {}
    start = time.perf_counter()
    for study in ordered(workload.studies, args.seed):
        began = time.perf_counter()
        text, error = call_cli(cli, workload.study_args(study, args.master_seed, args.store))
        study_s[study] = time.perf_counter() - began
        ops.record(error is None, f"study run {study}: {error}")
        digests[study] = study_digest(study, text)
    cold_s = time.perf_counter() - start
    warm_argv = workload.study_args(workload.warm_study, args.master_seed, args.store)

    def warm_op() -> float:
        began = time.perf_counter()
        text, error = call_cli(cli, warm_argv)
        elapsed_ms = 1000.0 * (time.perf_counter() - began)
        same = study_digest(workload.warm_study, text) == digests[workload.warm_study]
        ops.record(
            error is None and same,
            f"warm study run {workload.warm_study}: "
            f"{error or 'output differs from the cold run'}",
        )
        return elapsed_ms

    loop = closed_loop(warm_op, cli, args.store, ops)
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.stop()
    digests.update(loop["digests"])
    result.update(
        warm_ms=loop["warm_ms"],
        query_ms=loop["query_ms"],
        wall_s=wall_s,
        cold_job_s=cold_s,
        study_s=study_s,
        digests=digests,
    )
    return finish(result, workload, args.master_seed, ops)


# --------------------------------------------------------------- service


def results_digest(payload: dict) -> str:
    """Digest of a job's results in spec-hash order; ``source`` (store or
    simulated) aside."""
    results = [
        {key: value for key, value in entry.items() if key != "source"}
        for entry in sorted(payload.get("results", ()), key=lambda entry: entry["spec_hash"])
    ]
    return sha256(json.dumps(results, sort_keys=True))


def round_trip(client, body: dict) -> dict:
    """POST a job, follow its SSE stream to the terminal event, fetch it."""
    began = time.perf_counter()
    job_id = str(client.submit(body)["job_id"])
    events = 0
    for event in client.events(job_id, timeout=300):
        events += 1
        if event.get("event") in ("job-completed", "job-failed"):
            break
    terminal = time.perf_counter()
    payload = client.job(job_id)
    return {
        "to_terminal_s": terminal - began,
        "round_trip_s": time.perf_counter() - began,
        "events": events,
        "payload": payload,
    }


def start_server(args) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "serve.py"), "--store", args.store]
    if args.spans:
        command += ["--spans", args.spans + ".server"]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def server_url(server: subprocess.Popen, timeout: float) -> str:
    """The URL ``repro serve --port 0`` prints once it listens."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([server.stdout], [], [], 0.1)
        if ready:
            line = server.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
    raise RuntimeError("repro serve did not report a listening address")


def run_service_workload(args, workload: Workload, recorder) -> dict:
    from repro.__main__ import main as cli
    from repro.service.client import ServiceClient, ServiceError
    from repro.study import get_study

    settings = settings_for(workload, args.master_seed)
    scenarios = ordered(get_study(workload.warm_study).plan(settings), args.seed)
    body = {
        "specs": [scenario.spec_dict() for scenario in scenarios],
        "cutoffs": [settings.secondary_cutoff, settings.cutoff],
        "engine": "numpy",
        "jobs": 1,
    }
    server = start_server(args)
    result: dict = {}
    ops = Ops()
    client = None
    try:
        client = ServiceClient(server_url(server, timeout=60.0))
        deadline = time.monotonic() + 60.0
        while True:
            try:
                client.status()
                break
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)
        result["setup_s"] = time.monotonic() - args.t0
        if not args.setup_only:
            cold_results = timed_service_phase(args, client, body, cli, ops, result)
    finally:
        try:
            if client is None:
                raise ServiceError(0, "no client")
            client.shutdown()
        except ServiceError:
            server.send_signal(signal.SIGTERM)
        result["server_rss_kib"] = reap(server, time.monotonic() + 60.0).ru_maxrss
        server.stdout.close()
    if args.setup_only:
        return result
    if recorder is not None:
        recorder.stop()
    if args.reference:
        check_reference(args, workload, cli, cold_results, ops, result)
    return finish(result, workload, args.master_seed, ops)


def timed_service_phase(args, client, body: dict, cli, ops: Ops, result: dict) -> list:
    """Cold job, then the closed warm loop; fills ``result``, returns the
    cold job's per-scenario results."""
    start = time.perf_counter()
    cold = round_trip(client, body)
    payload = cold["payload"]
    report = payload.get("report", {})
    ops.record(
        payload.get("state") == "done" and report.get("simulated", 0) > 0,
        f"cold job: {payload.get('state')} {payload.get('error', '')}",
    )
    expected = results_digest(payload)

    def warm_op() -> float:
        warm = round_trip(client, body)
        again = warm["payload"]
        ops.record(
            again.get("state") == "done"
            and again.get("report", {}).get("simulated") == 0
            and results_digest(again) == expected,
            "warm job: not done, simulated again, or results differ from the cold job",
        )
        return 1000.0 * warm["round_trip_s"]

    loop = closed_loop(warm_op, cli, args.store, ops)
    wall_s = time.perf_counter() - start
    started, finished = payload.get("started_at"), payload.get("finished_at")
    result.update(
        warm_ms=loop["warm_ms"],
        query_ms=loop["query_ms"],
        wall_s=wall_s,
        cold_job_s=cold["to_terminal_s"],
        digests={"job results": expected, **loop["digests"]},
        shards=report.get("shards_executed", 0),
        client={
            "job_s": (finished - started) if started and finished else 0.0,
            "events": cold["events"],
        },
    )
    return payload.get("results", [])


def check_reference(args, workload: Workload, cli, cold_results, ops: Ops, result: dict) -> None:
    """The job's analyses must equal, byte for byte, what ``study run``
    persists for the same specs on a fresh store (run in-process here)."""
    from repro.study import ResultStore

    reference = args.store + "-ref"
    began = time.perf_counter()
    text, error = call_cli(cli, workload.study_args(workload.warm_study, args.master_seed, reference))
    result["reference_study_s"] = time.perf_counter() - began
    ops.record(error is None, f"reference study run {workload.warm_study}: {error}")
    result["digests"][workload.warm_study] = study_digest(workload.warm_study, text)
    store = ResultStore(reference)
    persisted: dict = {}
    for spec_hash, analysis_hash in store.analysis_keys():
        payload = store.load_analysis(spec_hash, analysis_hash)
        persisted.setdefault(spec_hash, set()).add(json.dumps(payload, sort_keys=True))
    for entry in cold_results:
        ops.record(
            json.dumps(entry.get("analysis"), sort_keys=True)
            in persisted.get(entry["spec_hash"], ()),
            f"job analysis for {entry['label']} differs from the payload study run persisted",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="trace, and dump spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--reference", action="store_true", help="service: check the job against study run"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    recorder = None
    if args.spans:
        from tracing import Recorder

        recorder = Recorder(f"{workload.name}:{args.master_seed}:{os.getpid()}")
        recorder.install()
    run = run_service_workload if workload.served else run_cli_workload
    result = run(args, workload, recorder)
    if recorder is not None:
        recorder.dump(args.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

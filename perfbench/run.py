"""End-to-end benchmark of the commands users run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
        [--master-seed M] [--record]

Workloads (inputs in workloads.py, reasons in BENCHMARK.json):

* ``cold_seeds``: cold ``study run`` of the eight seed-campaign studies at
  ``--runs 1000``, then ``query runs`` and ``query compare rm hrp``;
* ``cold_layouts``: cold ``study run fig4b --runs 40`` (11 seed campaigns
  and 440 deterministic layouts), then the same queries;
* ``service``: ``repro serve`` on an empty store; a client POSTs the
  ``fig5`` specs at ``--runs 1000`` and follows the job's SSE stream.

Each workload ends with a closed loop of one client re-issuing its warm
operation.  Every repetition runs in a fresh process (``rep.py``) on a
fresh store under ``perfbench/.work``, with every ``REPRO_*`` variable
removed from the environment.  ``--trace 0`` repeats the workload until
``--seconds`` is spent and reports medians of the end-to-end metrics.
``--trace 1`` runs it once untraced and once with spans around each
layer's public functions, and reports the per-layer metrics plus the
tracing overhead; the spans are written to ``perfbench/.work``.

``--master-seed`` (default 20160605, the paper's) is the campaign master
seed of every simulated scenario.  ``--seed`` orders the operations: which
study of the cold operation runs first, and so pays for the specs studies
share, and the order of a job's specs.  Simulated work depends on the
master seed (up to ~20 % between seeds), so it stays fixed and runs with
different ``--seed`` values measure the same work.  Output digests are
recorded per master seed in ``digests.json`` (``--record`` adds one).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one study invocation, query or job; it fails on an exception, a non-zero
exit, a failed job, or an output digest mismatch.  The simulator is a
model of the paper's platform on synthetic EEMBC stand-ins; it is not
validated against hardware, so no error figure is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata, util
from pathlib import Path

from rep import Ops, reap
from tracing import PER_LAYER_UNITS, layer_totals, per_layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

#: The bounded end-to-end metrics (BENCHMARK.json).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Printed with their sample counts but not bounded.  Over ten runs each on
#: a 2-CPU VM whose speed drifted by up to 2x within minutes, their spreads
#: reached 0.26 to 0.38 of the median (the largest bound allowed is 0.25):
#: the cold operation samples one stretch of that drift and the warm loop
#: and queries a shorter one.  wall_s holds all of them.
UNBOUNDED = {
    "cold_job_s": "s",
    "sim_accesses_per_s": "accesses/s",
    "query_ms": "ms",
    "warm_job_p50_ms": "ms",
    "warm_job_p90_ms": "ms",
}

#: At most this many set-up-only processes per run (at least one runs),
#: on top of each repetition's own set-up.
MAX_PROBES = 6

#: A host far slower than nominal stops starting repetitions once the next
#: one would end past this multiple of ``--seconds``.
OVERRUN = 1.25

#: Every process this benchmark starts has ended by then.
RUN_LIMIT_S = 170.0


def clean_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": util.find_spec("numba") is not None,
        "pandas_importable": util.find_spec("pandas") is not None,
    }


def wait(process: subprocess.Popen, deadline: float):
    """Reap a repetition; past ``deadline`` kill its whole process group,
    which holds the server a ``service`` repetition started."""
    usage = reap(process, deadline, kill=lambda: os.killpg(process.pid, signal.SIGKILL))
    while True:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return usage
        time.sleep(0.05)


def load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def spawn(
    workload, seeds: list, env: dict, deadline: float,
    setup_only=False, traced=False, reference=False,
):
    """One repetition in a fresh process on a fresh store; its result."""
    store = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    out, spans = store + ".out.json", store + ".spans.json"
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload.name,
        *seeds, "--store", store, "--out", out,
    ]
    if setup_only:
        command.append("--setup-only")
    if traced:
        command += ["--spans", spans]
    if reference:
        command.append("--reference")
    try:
        t0 = time.monotonic()
        process = subprocess.Popen(
            command + ["--t0", repr(t0)],
            env=env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        usage = wait(process, deadline)
        result = load_json(out) if process.returncode == 0 else None
        if result is None:
            return {"error": f"repetition exited with code {process.returncode}"}
        result["rss_mb"] = result.get("server_rss_kib", usage.ru_maxrss) / 1024.0
        if traced:
            dumps = [load_json(path) for path in (spans, spans + ".server")]
            dumps = [dump for dump in dumps if dump is not None]
            result["spans"] = [span for dump in dumps for span in dump["spans"]]
            result["skipped"] = sorted({name for dump in dumps for name in dump["skipped"]})
            result["maps"] = {}
            for dump in dumps:
                for key, value in dump["maps"].items():
                    result["maps"][key] = result["maps"].get(key, 0) + value
        return result
    finally:
        for path in (store, store + "-ref"):
            shutil.rmtree(path, ignore_errors=True)
        for path in (out, spans, spans + ".server"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def check_digests(workload, master_seed: int, reps: list, ops: Ops, record: bool) -> None:
    """Every repetition must produce the digests recorded for its master seed."""
    merged: dict = {}
    for index, rep in enumerate(reps, start=1):
        for key, digest in rep["digests"].items():
            if merged.setdefault(key, digest) != digest:
                ops.fail(f"{key}: repetition {index} output differs from repetition 1")
    known = load_json(str(DIGESTS)) or {}
    recorded = known.get(str(master_seed), {}).get(workload.name)
    if recorded is not None:
        for key, digest in sorted(recorded.items()):
            if merged.get(key) != digest:
                ops.fail(
                    f"{key}: output differs from the digest recorded for master seed {master_seed}"
                )
    if record and ops.failed == 0:
        known.setdefault(str(master_seed), {})[workload.name] = merged
        DIGESTS.write_text(json.dumps(known, indent=2, sort_keys=True) + "\n")


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def end_to_end(reps: list, setup_samples: list) -> dict:
    """Medians over repetitions; the closed-loop figures over all samples.

    query_ms is a mean: under this host's bimodal speed a median of short
    operations jumps between the modes, while a mean moves smoothly.
    """
    warm = [sample for rep in reps for sample in rep["warm_ms"]]
    rounds = [sample for rep in reps for sample in rep["query_ms"]]
    series = {
        "setup_s": setup_samples + [rep["setup_s"] for rep in reps],
        "wall_s": [rep["wall_s"] for rep in reps],
        "cold_job_s": [rep["cold_job_s"] for rep in reps],
        "sim_accesses_per_s": [rep["work"]["accesses"] / rep["cold_job_s"] for rep in reps],
        "peak_rss_mb": [rep["rss_mb"] for rep in reps],
    }
    values = {name: statistics.median(samples) for name, samples in series.items()}
    values["query_ms"] = statistics.mean(rounds)
    values["warm_job_p50_ms"] = statistics.median(warm)
    values["warm_job_p90_ms"] = statistics.quantiles(warm, n=10)[8]
    for name, unit in [*END_TO_END.items(), *UNBOUNDED.items()]:
        if name in series:
            spread = quartiles(series[name])
        elif name == "query_ms":
            spread = f"mean of {len(rounds)} query rounds"
        else:
            spread = f"{len(warm)} warm samples"
        if name in UNBOUNDED:
            spread += ", not bounded"
        print(f"  {name:<20} {values[name]:>14.6g} {unit:<11} ({spread})")
    return values


def print_work(workload, rep: dict) -> None:
    work = rep["work"]
    shards = rep.get("shards", 0)
    print(
        f"work per repetition: {work['scenarios']} scenarios, {work['seed_lanes']} seed "
        f"lanes, {work['layouts']} layouts, {shards} shards, "
        f"{work['accesses']} simulated accesses"
    )
    if "reference_study_s" in rep:
        penalty = rep["cold_job_s"] / rep["reference_study_s"]
        print(
            f"exec.queue_penalty: {penalty:.3f}x = cold_job_s {rep['cold_job_s']:.3f} s "
            f"/ in-process study run {workload.warm_study} {rep['reference_study_s']:.3f} s"
        )
    elif workload.warm_study in rep.get("study_s", {}):
        print(
            f"study run {workload.warm_study} inside the cold operation: "
            f"{rep['study_s'][workload.warm_study]:.3f} s"
        )


def print_layers(spans: list, wall_s: float) -> None:
    print(f"  {'layer':<22} {'calls':>7} {'total s':>10} {'self s':>10} {'share':>7}")
    totals = layer_totals(spans)
    for name, entry in sorted(totals.items(), key=lambda item: -item[1]["s"]):
        share = entry["s"] / wall_s if wall_s else 0.0
        print(
            f"  {name:<22} {entry['calls']:>7} {entry['s']:>10.4f} "
            f"{entry['self_s']:>10.4f} {share:>7.1%}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="orders the operations")
    parser.add_argument(
        "--master-seed", type=int, default=DEFAULT_SEED, help="campaign master seed"
    )
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="record the master seed's output digests"
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    env = clean_env()
    # Byte-compiles the sources once, so no repetition pays for it.
    warm_up = subprocess.run(
        [sys.executable, "-c", "import repro.__main__, repro.service.api.server"],
        env=env,
        timeout=120,
    )
    if warm_up.returncode != 0:
        print("perfbench: cannot import repro", file=sys.stderr)
        return 2

    info = environment()
    seeds = ["--seed", str(args.seed), "--master-seed", str(args.master_seed)]
    print(
        f"perfbench {workload.name}: seed {args.seed}, master seed {args.master_seed}, "
        f"{args.seconds:g} s, trace {args.trace}"
    )
    print("environment: " + ", ".join(f"{key} {value}" for key, value in info.items()))
    print(f"inputs: {workload.describe()}")
    print("model: unvalidated (synthetic EEMBC stand-ins); no error figure is reported")

    ops = Ops()
    if args.trace:
        plain = spawn(workload, seeds, env, deadline, reference=True)
        traced = spawn(workload, seeds, env, deadline, traced=True)
        reps = [plain, traced]
    else:
        planned = max(1, int(args.seconds // workload.rep_s))
        reps = []
        while len(reps) < planned:
            began = time.monotonic()
            reps.append(spawn(workload, seeds, env, deadline, reference=not reps))
            now = time.monotonic()
            if now - started + (now - began) > OVERRUN * args.seconds:
                break
        # Set-up-only processes fill what is left of the budget.
        setup_samples = []
        while len(setup_samples) < MAX_PROBES:
            began = time.monotonic()
            probe = spawn(workload, seeds, env, deadline, setup_only=True)
            if "error" in probe:
                ops.record(False, f"set-up: {probe['error']}")
                break
            setup_samples.append(probe["setup_s"])
            now = time.monotonic()
            if now - started + (now - began) > args.seconds:
                break
    for rep in reps:
        ops.merge(rep)
    good = [rep for rep in reps if "error" not in rep]
    if not good:
        for message in ops.messages:
            print(f"failure: {message}", file=sys.stderr)
        return 1
    check_digests(workload, args.master_seed, good, ops, args.record)
    print_work(workload, good[0])

    if args.trace:
        if len(good) < 2:
            print("failure: the traced or the untraced repetition failed", file=sys.stderr)
            return 1
        plain, traced = good
        metrics = per_layer_metrics(traced["spans"], traced["maps"], traced.get("client", {}))
        overhead = traced["wall_s"] - plain["wall_s"]
        metrics["trace.overhead_s"] = overhead
        print(f"per-layer spans of the traced repetition (wall_s {traced['wall_s']:.3f} s):")
        print_layers(traced["spans"], traced["wall_s"])
        print(
            f"tracing overhead: {overhead:+.3f} s = traced wall_s {traced['wall_s']:.3f} s "
            f"- untraced wall_s {plain['wall_s']:.3f} s"
        )
        if traced["skipped"]:
            print("not traced (absent in this revision): " + ", ".join(traced["skipped"]))
        dump = WORK / f"spans-{workload.name}-{args.master_seed}.json"
        dump.write_text(
            json.dumps(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "master_seed": args.master_seed,
                    "environment": info,
                    "overhead_s": overhead,
                    "spans": traced["spans"],
                }
            )
        )
        print(f"span dump: {dump.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        print(f"end-to-end ({len(good)} repetitions):")
        metrics = end_to_end(good, setup_samples)
        units = END_TO_END
    print(f"failed_share: {ops.failed}/{ops.attempted} = {ops.failed / ops.attempted:.6g}")
    for message in ops.messages:
        print(f"failure: {message}")
    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

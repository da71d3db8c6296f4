"""The ``python -m repro exec status`` view: queue, shards, workers.

Renders the observable state of the store's work queue from its on-disk
artifacts alone — pending tasks and active leases per spec hash from the
queue, the lane ranges those campaigns have published so far, and
per-worker heartbeat/progress telemetry — so an operator can answer "is
this campaign making progress, and who is working on it?" without
attaching to any process.  It describes the queue, not the results: a
campaign with no queued task is not listed, however many ranges it has
published (``query runs`` lists the stored campaigns).

The machine-readable form, :func:`exec_status_snapshot`, is the single
source of both renderings: ``exec status --format json`` dumps it verbatim
and the analysis server's ``GET /v1/status`` handler embeds it unchanged
(:mod:`repro.service.api.server`), so the CLI and the service never
disagree about what the queue looks like.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from ..analysis.report import format_table
from ..study.store import ResultStore
from .queue import FileQueue
from .telemetry import WorkerHeartbeat, read_heartbeats

__all__ = ["exec_status_snapshot", "format_exec_status"]


def _spec_of(stem: str) -> str:
    """The spec hash of a ``<spec_hash>.<key>`` task/entry file stem."""
    return stem.partition(".")[0]


def _worker_state(beat: WorkerHeartbeat) -> str:
    if beat.finished:
        return "finished"
    return "alive" if beat.alive() else "dead"


def exec_status_snapshot(store: ResultStore, now: float | None = None) -> Dict[str, object]:
    """The store's shard-queue state as plain data.

    One ``specs`` entry per spec hash that still has a queued task, with
    its pending, leased and published counts, and one ``workers`` entry
    per recorded heartbeat (including the engine the worker last claimed
    for).  Totals are included so dashboards do not re-aggregate.
    """
    now = time.time() if now is None else now
    queue = FileQueue(store.queue_root)

    per_spec: Dict[str, Dict[str, int]] = {}
    for task_path in queue.tasks():
        entry = per_spec.setdefault(
            _spec_of(task_path.stem), {"pending": 0, "leased": 0, "published": 0}
        )
        entry["pending"] += 1
        lease = queue.lease_for(task_path)
        if lease is not None and lease.active(now):
            entry["leased"] += 1
    for spec_hash, _key in store.shard_keys():
        if spec_hash in per_spec:
            per_spec[spec_hash]["published"] += 1

    workers: List[Dict[str, object]] = []
    for beat in read_heartbeats(queue):
        workers.append(
            {
                "owner": beat.owner,
                "host": beat.host,
                "pid": beat.pid,
                "state": _worker_state(beat),
                "engine": beat.engine,
                "shards_claimed": beat.shards_claimed,
                "shards_done": beat.shards_done,
                "runs_done": beat.runs_done,
                "runs_per_second": beat.runs_per_second,
                "heartbeat_age_seconds": beat.age(now),
            }
        )

    return {
        "queue_root": str(queue.root),
        "specs": {spec_hash: dict(counts) for spec_hash, counts in sorted(per_spec.items())},
        "totals": {
            "pending": sum(c["pending"] for c in per_spec.values()),
            "leased": sum(c["leased"] for c in per_spec.values()),
            "published": sum(c["published"] for c in per_spec.values()),
            "workers": len(workers),
        },
        "workers": workers,
    }


def format_exec_status(store: ResultStore, now: float | None = None) -> str:
    """One human-readable status report for the store's shard queue."""
    snapshot = exec_status_snapshot(store, now=now)

    lines: List[str] = [f"shard queue: {snapshot['queue_root']}"]
    specs: Dict[str, Dict[str, int]] = snapshot["specs"]  # type: ignore[assignment]
    if specs:
        rows = [
            (
                spec_hash[:12],
                counts["pending"],
                counts["leased"],
                counts["published"],
            )
            for spec_hash, counts in specs.items()
        ]
        lines.append(
            format_table(["spec", "pending", "leased", "published"], rows)
        )
    else:
        lines.append("no queued shards")

    workers: List[Dict[str, object]] = snapshot["workers"]  # type: ignore[assignment]
    if workers:
        rows = []
        for worker in workers:
            rows.append(
                (
                    worker["owner"],
                    worker["pid"],
                    worker["state"],
                    worker["engine"] or "-",
                    worker["shards_claimed"],
                    worker["shards_done"],
                    worker["runs_done"],
                    f"{worker['runs_per_second']:.1f}",
                    f"{worker['heartbeat_age_seconds']:.1f}s ago",
                )
            )
        lines.append("")
        lines.append(
            format_table(
                [
                    "worker",
                    "pid",
                    "state",
                    "engine",
                    "claimed",
                    "done",
                    "runs",
                    "runs/s",
                    "heartbeat",
                ],
                rows,
            )
        )
    else:
        lines.append("no worker heartbeats recorded")
    return "\n".join(lines)


def render_exec_status(store: ResultStore, fmt: str = "text") -> str:
    """The status report in ``text`` or machine-readable ``json`` form."""
    if fmt == "json":
        return json.dumps(exec_status_snapshot(store), indent=2, sort_keys=True)
    if fmt == "text":
        return format_exec_status(store)
    raise ValueError(f"unknown format {fmt!r}; expected 'text' or 'json'")

"""Per-worker heartbeat/progress telemetry.

Every worker maintains one JSON heartbeat file under the queue's
``workers/`` directory: shards claimed and done, runs completed, wall-clock
throughput and the time of the last beat.  ``python -m repro exec status``
renders these together with the queue and store occupancy — the system's
first observability surface, and the hook multi-host schedulers will read.

A worker writes its heartbeat on each state transition — start, claim,
publish and exit — through the store's atomic writer (temp file +
``os.replace``), so a reader never sees a torn file.

:func:`read_heartbeats` — polled by ``exec status``, the analysis
server's status endpoint and its event watcher — lists the ``workers/``
directory, so every heartbeat file on disk is reported.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..study.store import _files, _replace_atomically
from .queue import FileQueue, process_alive

__all__ = [
    "WorkerHeartbeat",
    "WorkerTelemetry",
    "read_heartbeats",
]


@dataclass
class WorkerHeartbeat:
    """One worker's last reported progress."""

    owner: str
    host: str
    pid: int
    started_at: float
    last_heartbeat: float
    shards_claimed: int = 0
    shards_done: int = 0
    runs_done: int = 0
    finished: bool = False
    #: Engine named by the worker's most recently claimed task.
    engine: str = ""

    @property
    def runs_per_second(self) -> float:
        elapsed = self.last_heartbeat - self.started_at
        return self.runs_done / elapsed if elapsed > 0 else 0.0

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the last beat (staleness indicator)."""
        return (time.time() if now is None else now) - self.last_heartbeat

    def alive(self) -> bool:
        """Best-effort liveness (same-host pid probe; remote = unknown)."""
        return not self.finished and process_alive(self.host, self.pid)

    def as_dict(self) -> Dict[str, object]:
        return {
            "owner": self.owner,
            "host": self.host,
            "pid": self.pid,
            "started_at": self.started_at,
            "last_heartbeat": self.last_heartbeat,
            "shards_claimed": self.shards_claimed,
            "shards_done": self.shards_done,
            "runs_done": self.runs_done,
            "finished": self.finished,
            "engine": self.engine,
        }


class WorkerTelemetry:
    """Maintains one worker's heartbeat file through its claim loop."""

    def __init__(self, queue: FileQueue, owner: str) -> None:
        self.queue = queue
        self.owner = owner
        now = time.time()
        self.heartbeat = WorkerHeartbeat(
            owner=owner,
            host=socket.gethostname(),
            pid=os.getpid(),
            started_at=now,
            last_heartbeat=now,
        )
        self._write()

    @property
    def path(self):
        return self.queue.worker_root / f"{self.owner}.json"

    def claimed(self, engine: str = "") -> None:
        self.heartbeat.shards_claimed += 1
        if engine:
            self.heartbeat.engine = engine
        self._write()

    def published(self, runs: int) -> None:
        self.heartbeat.shards_done += 1
        self.heartbeat.runs_done += runs
        self._write()

    def finish(self) -> None:
        self.heartbeat.finished = True
        self._write()

    def _write(self) -> None:
        self.heartbeat.last_heartbeat = time.time()
        try:
            payload = json.dumps(self.heartbeat.as_dict(), sort_keys=True)
            _replace_atomically(self.path, payload.encode())
        except OSError:
            # Telemetry must never take a worker down.
            pass


def read_heartbeats(queue: FileQueue) -> List[WorkerHeartbeat]:
    """Every readable worker heartbeat under the queue, sorted by owner."""
    beats: List[WorkerHeartbeat] = []
    for path in sorted(_files(queue.worker_root, ".json"), key=lambda path: path.stem):
        try:
            payload = json.loads(path.read_text())
            beats.append(
                WorkerHeartbeat(
                    owner=str(payload["owner"]),
                    host=str(payload["host"]),
                    pid=int(payload["pid"]),
                    started_at=float(payload["started_at"]),
                    last_heartbeat=float(payload["last_heartbeat"]),
                    shards_claimed=int(payload.get("shards_claimed", 0)),
                    shards_done=int(payload.get("shards_done", 0)),
                    runs_done=int(payload.get("runs_done", 0)),
                    finished=bool(payload.get("finished", False)),
                    engine=str(payload.get("engine", "")),
                )
            )
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return beats

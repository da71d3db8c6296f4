"""File-backed work queue with shard leases.

The queue is a directory (``<store>/queue`` by default) shared by every
worker of a campaign — the executor's worker processes and separately
launched ``python -m repro worker`` processes alike:

* ``tasks/<spec_hash>.<key>.json`` — one picklable-free JSON task per
  pending shard: the scenario's canonical spec, the engine name and the
  ``(start, count)`` lane slice.  Everything a worker on any host needs to
  rebuild the simulation.
* ``leases/<spec_hash>.<key>.lease`` — an atomically created claim marker
  holding the owner id, host, pid and an expiry deadline.  A shard is
  claimable when it has no lease, the lease has expired, or the owning
  process is provably dead (same host, pid gone or a zombie).
* ``workers/<owner>.json`` — per-worker heartbeat telemetry
  (:mod:`repro.exec.telemetry`).

Claiming is optimistic: a fresh claim hard-links a written lease file into
place (which fails if a lease exists), a stale-lease reclaim atomically
replaces the lease file and then re-reads it to confirm ownership.  The
rare double-claim race after a reclaim is harmless by construction — shard
execution is deterministic and publication into the store is an
idempotent atomic replace of identical bytes, so two workers executing the
same shard waste time but never corrupt results.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..study.store import _files, _replace_atomically

__all__ = [
    "DEFAULT_LEASE_TTL",
    "Lease",
    "FileQueue",
    "default_owner_id",
    "process_alive",
]

#: How long a claimed-but-unfinished shard stays off-limits to other
#: workers before its lease is considered stale (seconds).  Workers on the
#: same host additionally reclaim leases of dead pids immediately.
DEFAULT_LEASE_TTL = 300.0


def default_owner_id() -> str:
    """A unique worker identity: ``<host>-<pid>-<nonce>``."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def process_alive(host: str, pid: int) -> bool:
    """Best-effort liveness of a worker process; only same-host ones can be
    probed, so a remote one is assumed alive.

    A same-host pid is dead once it is gone, or while it is a zombie: a
    killed worker whose parent died too stays one until init reaps it,
    seconds later or, under an init that never reaps, for good.  Zombies
    are read from Linux's ``/proc``; elsewhere only a gone pid is dead.
    """
    if host != socket.gethostname():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The state field follows the parenthesised command name.
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except (OSError, IndexError):
        return True


@dataclass
class Lease:
    """One shard claim: who holds it and until when."""

    owner: str
    host: str
    pid: int
    deadline: float

    def expired(self, now: Optional[float] = None) -> bool:
        return (time.time() if now is None else now) >= self.deadline

    def active(self, now: Optional[float] = None) -> bool:
        """True while the lease must be respected by other workers: until it
        expires, or until its same-host owner is dead (:func:`process_alive`)."""
        return not self.expired(now) and process_alive(self.host, self.pid)


class FileQueue:
    """A directory of shard tasks, leases and worker heartbeats."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------- layout

    @property
    def task_root(self) -> Path:
        return self.root / "tasks"

    @property
    def lease_root(self) -> Path:
        return self.root / "leases"

    @property
    def worker_root(self) -> Path:
        return self.root / "workers"

    def task_path(self, spec_hash: str, key: str) -> Path:
        return self.task_root / f"{spec_hash}.{key}.json"

    def lease_path(self, task_path: Path) -> Path:
        return self.lease_root / (task_path.stem + ".lease")

    # -------------------------------------------------------------- tasks

    def enqueue(self, task: Dict[str, object]) -> Path:
        """Persist one shard task atomically; enqueueing is idempotent
        (re-enqueueing a shard overwrites the identical task file)."""
        path = self.task_path(str(task["spec_hash"]), str(task["key"]))
        _replace_atomically(path, json.dumps(task, sort_keys=True).encode())
        return path

    def tasks(self, *spec_hashes: str) -> List[Path]:
        """Pending task files in claim order: all of them, sorted; or only
        the ``spec_hashes`` campaigns' tasks, campaign by campaign in the
        order given (each campaign's in lane order)."""
        paths = sorted(_files(self.task_root, ".json"))
        if not spec_hashes:
            return paths
        rank = {spec_hash: index for index, spec_hash in enumerate(spec_hashes)}
        paths = [path for path in paths if path.name.partition(".")[0] in rank]
        return sorted(paths, key=lambda path: rank[path.name.partition(".")[0]])

    def read_task(self, path: Path) -> Optional[Dict[str, object]]:
        """The task payload, or ``None`` for vanished/corrupt files."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def pending(self) -> int:
        return len(self.tasks())

    # ------------------------------------------------------------- leases

    def lease_for(self, task_path: Path) -> Optional[Lease]:
        """The current lease on a task, or ``None`` (never raises)."""
        try:
            payload = json.loads(self.lease_path(task_path).read_text())
            return Lease(
                owner=str(payload["owner"]),
                host=str(payload["host"]),
                pid=int(payload["pid"]),
                deadline=float(payload["deadline"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def try_claim(
        self,
        task_path: Path,
        owner: str,
        ttl: float = DEFAULT_LEASE_TTL,
        now: Optional[float] = None,
    ) -> bool:
        """Attempt to lease one shard for ``owner``; True on success.

        Fresh claims hard-link a fully written lease file into place, which
        fails if a lease exists and never shows a concurrent claimant an
        empty lease it would take for a stale one.  Stale leases (expired,
        or same-host dead owner) are reclaimed by atomic replacement
        followed by a read-back to confirm this owner won any concurrent
        reclaim race.
        """
        now = time.time() if now is None else now
        self.lease_root.mkdir(parents=True, exist_ok=True)
        lease_path = self.lease_path(task_path)
        payload = json.dumps(
            {
                "owner": owner,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "deadline": now + ttl,
            },
            sort_keys=True,
        )
        temporary = lease_path.with_suffix(f".{uuid.uuid4().hex[:8]}.tmp")
        temporary.write_text(payload)
        try:
            os.link(temporary, lease_path)
            temporary.unlink()
            return True
        except FileExistsError:
            pass
        lease = self.lease_for(task_path)
        if lease is not None and lease.active(now):
            temporary.unlink()
            return False
        os.replace(temporary, lease_path)
        current = self.lease_for(task_path)
        return current is not None and current.owner == owner

    def release(self, task_path: Path, owner: str) -> None:
        """Drop ``owner``'s lease (no-op if somebody else holds it now)."""
        lease = self.lease_for(task_path)
        if lease is not None and lease.owner == owner:
            try:
                self.lease_path(task_path).unlink()
            except OSError:
                pass

    def complete(self, task_path: Path, owner: str) -> None:
        """Retire a finished (published) shard: drop its task and lease."""
        try:
            task_path.unlink()
        except OSError:
            pass
        self.release(task_path, owner)

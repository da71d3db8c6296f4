"""Campaign execution: lane ranges drained through a resumable queue.

``repro.exec`` runs every measurement campaign in the repository.  A
campaign is a range of lanes — per-run seeds on the time-randomised
platforms, memory layouts on the deterministic baseline — layered as
**planner → queue → workers → reassembler**:

* :mod:`repro.exec.plan` — split a campaign into deterministic
  ``(spec_hash, lane-range)`` **shards**;
* :mod:`repro.exec.queue` — a file-backed **work queue** with atomic shard
  leases (owner id + expiry; stale and dead-owner leases are reclaimed);
* :mod:`repro.exec.worker` — the lane executor
  (:class:`~repro.exec.worker.ShardRunner`) and the **workers** that claim
  shards, execute them through the engine registry and publish
  content-hash-keyed shard entries into the
  :class:`~repro.study.store.ResultStore`, with heartbeat telemetry
  (:mod:`repro.exec.telemetry`);
* :mod:`repro.exec.executor` — the one drain (a call's shards through the
  store's queue, or a temporary store's, drained by one set of workers,
  in the calling process when there is one) plus the **reassembler** that
  merges shards in lane order, bit-exact with serial execution for any
  shard size and worker count.

The queue is drained by the executor's worker processes and by separately
launched ``python -m repro worker`` processes attached to the same
directory.  ``python -m repro exec status`` renders queue occupancy and
worker telemetry (:mod:`repro.exec.status`).

The names below load on first use (:mod:`repro._lazy`), so ``exec
status`` loads neither the executor nor the workers.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_LEASE_TTL": "queue",
    "DEFAULT_SHARD_SIZE": "plan",
    "FileQueue": "queue",
    "Lease": "queue",
    "Shard": "plan",
    "ShardReport": "executor",
    "ShardRunner": "worker",
    "WorkerHeartbeat": "telemetry",
    "WorkerStats": "worker",
    "WorkerTelemetry": "telemetry",
    "default_owner_id": "queue",
    "exec_status_snapshot": "status",
    "execute_campaigns": "executor",
    "format_exec_status": "status",
    "render_exec_status": "status",
    "plan_shards": "plan",
    "read_heartbeats": "telemetry",
    "reassemble_campaign": "executor",
    "resolve_jobs": "plan",
    "resolve_shard_size": "plan",
    "run_worker": "worker",
    "shard_key": "plan",
    "shard_task": "worker",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

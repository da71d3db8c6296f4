"""Campaign execution: lane ranges drained inline or through a resumable queue.

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
* :mod:`repro.exec.executor` — the two drains (inline: one shard spanning
  the campaign, in the calling process; queue: shards through the store's
  queue) plus the **reassembler** that merges shards in lane order,
  bit-exact with serial execution for any shard size and worker count.

The queue is drained by the executor's worker processes and by separately
launched ``python -m repro worker`` processes attached to the same
directory.  ``python -m repro exec status`` renders queue occupancy and
worker telemetry (:mod:`repro.exec.status`).
"""

from __future__ import annotations

from .plan import (
    DEFAULT_SHARD_SIZE,
    Shard,
    plan_shards,
    resolve_jobs,
    resolve_shard_size,
    shard_key,
)
from .queue import DEFAULT_LEASE_TTL, FileQueue, Lease, default_owner_id
from .telemetry import HEARTBEAT_INTERVAL, WorkerHeartbeat, WorkerTelemetry, read_heartbeats
from .worker import ShardRunner, WorkerStats, run_worker, shard_task
from .executor import (
    ShardReport,
    execute_campaigns,
    execute_scenario_sharded,
    reassemble_campaign,
)
from .status import exec_status_snapshot, format_exec_status, render_exec_status

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_SHARD_SIZE",
    "HEARTBEAT_INTERVAL",
    "FileQueue",
    "Lease",
    "Shard",
    "ShardReport",
    "ShardRunner",
    "WorkerHeartbeat",
    "WorkerStats",
    "WorkerTelemetry",
    "default_owner_id",
    "exec_status_snapshot",
    "execute_campaigns",
    "execute_scenario_sharded",
    "format_exec_status",
    "render_exec_status",
    "plan_shards",
    "read_heartbeats",
    "reassemble_campaign",
    "resolve_jobs",
    "resolve_shard_size",
    "run_worker",
    "shard_key",
    "shard_task",
]

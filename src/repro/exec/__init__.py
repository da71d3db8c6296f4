"""Campaign execution: lane ranges planned, run and published.

``repro.exec`` runs every measurement campaign in the repository.  A
campaign is a range of lanes — per-run seeds on the time-randomised
platforms, memory layouts on the deterministic baseline — layered as
**planner → runner → drain**:

* :mod:`repro.exec.plan` — split a campaign into deterministic
  ``(spec_hash, lane-range)`` **shards**, around the ranges already
  published;
* :mod:`repro.exec.worker` — the lane executor
  (:class:`~repro.exec.worker.ShardRunner`), which executes a shard
  through the engine registry and publishes it as a content-hash-keyed
  lane range in the :class:`~repro.study.store.ResultStore`;
* :mod:`repro.exec.executor` — the one **drain**: a call's unpublished
  shards run in the calling process or on one process pool, then each
  campaign is read once its ranges are all published (the store
  concatenates them in lane order, bit-exact with serial execution for
  any shard size and worker count; there is no separate reassembler).

The published ranges are the only coordination between processes: a
killed run resumes from them, and two processes that both run a range
publish the same bytes.  ``python -m repro exec status`` lists the
campaigns whose ranges do not yet cover their lanes
(:mod:`repro.exec.status`).

The names below load on first use (:mod:`repro._lazy`), so ``exec
status`` loads neither the executor nor the workers.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_SHARD_SIZE": "plan",
    "Shard": "plan",
    "ShardReport": "executor",
    "ShardRunner": "worker",
    "exec_status_snapshot": "status",
    "execute_campaigns": "executor",
    "format_exec_status": "status",
    "render_exec_status": "status",
    "plan_shards": "plan",
    "publish_shard": "worker",
    "resolve_jobs": "plan",
    "resolve_shard_size": "plan",
    "shard_key": "plan",
    "shard_task": "worker",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

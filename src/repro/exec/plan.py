"""Shard planning: split a campaign into independent lane-range shards.

A *shard* is the unit of work in :mod:`repro.exec`: a contiguous
``(start, count)`` slice of one campaign's lanes — its per-run seeds, or
the memory layouts of a layout campaign — identified by the campaign's
**spec hash** plus the slice coordinates.  Because seeds and layouts
derive deterministically from the campaign master seed
(:func:`repro.core.prng.derive_run_seeds`,
:func:`repro.workloads.base.random_layouts`) and runs never share cache
state, any partition of the lanes can be executed in any order, by any
number of workers, on any host — and reassembling the per-shard results in
lane order reproduces the serial campaign bit-exactly.

The plan itself is pure data and deterministic: ``plan_shards(spec_hash,
runs, shard_size)`` always yields the same shards, so a crashed campaign
re-plans identically on resume and published shard entries (keyed by
``(spec_hash, shard.key)``) line up with the new plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "Shard",
    "plan_shards",
    "resolve_jobs",
    "resolve_shard_size",
    "shard_key",
]

#: Widest default shard, in lanes.  A numpy batch pays a fixed cost per
#: plan step whatever its width: a fig5 batch took 0.31 s at 32 lanes and
#: 0.38 s at 256, so 32-lane shards made a 1,000-run campaign 6.6x dearer.
#: Wider batches gain little more time but memory grows with the width:
#: 1,000-lane shards doubled the server's peak RSS (172 MB against 86 MB;
#: EXPERIMENTS.md).  Re-measure that RSS before raising the cap.
DEFAULT_SHARD_SIZE = 256


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a concrete worker count.

    ``None`` and ``0`` mean "one worker per available CPU"; positive values
    are taken literally; negative values are rejected.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs


def resolve_shard_size(
    total: int, jobs: int, shard_size: Optional[int] = None
) -> int:
    """Normalise a shard-size request for ``total`` work units.

    An explicit ``shard_size`` is taken literally.  Otherwise the lanes are
    split into equal-width shards of ``ceil(total / count)`` lanes, with
    ``count = max(jobs, ceil(total / DEFAULT_SHARD_SIZE))``: no shard is
    wider than :data:`DEFAULT_SHARD_SIZE`, nor than an even split of the
    lanes over the workers.
    """
    if shard_size is None:
        count = max(jobs, -(-total // DEFAULT_SHARD_SIZE))
        shard_size = max(1, -(-total // count))
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return shard_size


def shard_key(start: int, count: int) -> str:
    """The canonical slice identifier used in queue and store file names."""
    return f"{start:08d}x{count:06d}"


@dataclass(frozen=True)
class Shard:
    """One ``(spec_hash, lane-range)`` slice of a campaign."""

    spec_hash: str
    index: int
    total: int
    start: int
    count: int

    @property
    def stop(self) -> int:
        return self.start + self.count

    @property
    def key(self) -> str:
        """Slice identifier; with ``spec_hash`` it names the shard's files."""
        return shard_key(self.start, self.count)


def plan_shards(spec_hash: str, runs: int, shard_size: int) -> List[Shard]:
    """Split a ``runs``-run campaign into contiguous lane-range shards.

    The plan is deterministic in ``(runs, shard_size)``: resuming a
    campaign with the same shard size re-plans the exact same shards, so
    already-published shard entries are found again.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    starts = list(range(0, runs, shard_size))
    return [
        Shard(
            spec_hash=spec_hash,
            index=index,
            total=len(starts),
            start=start,
            count=min(shard_size, runs - start),
        )
        for index, start in enumerate(starts)
    ]

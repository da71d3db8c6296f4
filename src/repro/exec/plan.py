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
runs, shard_size, published)`` always yields the same shards for the same
inputs.  A resume plans around the shard entries already published (keyed
by ``(spec_hash, shard.key)``), whatever shard size published them: it
keeps them and splits only the lanes they leave uncovered, so no published
lane is simulated again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..engine.base import DEFAULT_MAX_LANES

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "Shard",
    "plan_shards",
    "resolve_jobs",
    "resolve_shard_size",
    "shard_key",
]

#: Widest default shard, in lanes: one full engine batch.  A numpy batch
#: pays a fixed cost per plan step whatever its width (a fig5 batch took
#: 0.36 s at 32 lanes and 1.04 s at 1,024), so a 1,000-run campaign is
#: cheapest as one shard.  The engine's lean batch state keeps a worker
#: running 1,024-lane fig5 batches under 80 MB of peak RSS (EXPERIMENTS.md,
#: "Shard width").
DEFAULT_SHARD_SIZE = DEFAULT_MAX_LANES


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
    total: int, split: int, shard_size: Optional[int] = None
) -> int:
    """Normalise a shard-size request for ``total`` work units.

    An explicit ``shard_size`` is taken literally.  Otherwise the lanes are
    split into equal-width shards of ``ceil(total / count)`` lanes, with
    ``count = max(split, ceil(total / DEFAULT_SHARD_SIZE))``: no shard is
    wider than :data:`DEFAULT_SHARD_SIZE`, nor than an even split of the
    lanes into ``split`` shards (the executor asks for one per worker only
    when a call has fewer campaigns than workers).
    """
    if shard_size is None:
        count = max(split, -(-total // DEFAULT_SHARD_SIZE))
        shard_size = max(1, -(-total // count))
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return shard_size


def shard_key(start: int, count: int) -> str:
    """The canonical slice identifier used in range file names."""
    return f"{start:08d}x{count:06d}"


def _parse_shard_key(key: str) -> Optional[Tuple[int, int]]:
    """The ``(start, count)`` a :func:`shard_key` names, or ``None``."""
    start, sep, count = key.partition("x")
    if not (sep and start.isdigit() and count.isdigit()):
        return None
    return int(start), int(count)


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


def plan_shards(
    spec_hash: str, runs: int, shard_size: int, published: Iterable[str] = ()
) -> List[Shard]:
    """Split a ``runs``-run campaign into contiguous lane-range shards.

    ``published`` are the keys of shard entries already in the store,
    from this plan or any other.  Taken in lane order, each one that does
    not overlap one kept before it is kept as a shard; the lanes they leave
    uncovered are split into ``shard_size``-lane shards, each uncovered
    range from its own start.  With nothing published this is the plain
    contiguous split, and a resume at the same shard size re-plans exactly
    the shards its killed run had not published.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    ranges = []
    covered = 0  # every lane below this is planned
    slices = filter(None, map(_parse_shard_key, published))
    for start, count in sorted(slices, key=lambda pair: (pair[0], -pair[1])):
        if start < covered or count < 1 or start + count > runs:
            continue
        ranges += [
            (lane, min(shard_size, start - lane))
            for lane in range(covered, start, shard_size)
        ]
        ranges.append((start, count))
        covered = start + count
    ranges += [
        (lane, min(shard_size, runs - lane)) for lane in range(covered, runs, shard_size)
    ]
    return [
        Shard(
            spec_hash=spec_hash, index=index, total=len(ranges), start=start, count=count
        )
        for index, (start, count) in enumerate(ranges)
    ]

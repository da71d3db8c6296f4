"""In-process event bus bridging worker threads to the asyncio loop.

The analysis server executes jobs on plain threads (simulation is blocking,
CPU-bound work) while HTTP handlers live on the asyncio loop.  The bus is
the seam between the two worlds: any thread may :meth:`EventBus.publish`;
subscribers are ``asyncio.Queue`` objects created on the loop and fed via
``loop.call_soon_threadsafe``, so SSE handlers await events without polling
and without locks on the hot path.

Events are addressed to **channels** — one per job id plus the global
channel ``"*"`` (every event lands there too).  Each channel keeps a
bounded replay history so a client that connects to
``GET /v1/jobs/<id>/events`` after the job started still sees the full
story: the handler replays history first, then switches to the live queue,
deduplicating by the bus-wide monotonic sequence number.

Producers: the job manager (job lifecycle events), the store watcher
(:class:`StoreWatcher` — shard-publish and worker-heartbeat events derived
by diffing the on-disk queue/store state, which is the only footprint
external ``python -m repro worker`` processes leave) and the GC service
(sweep events).
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set

from ...exec.queue import FileQueue
from ...exec.telemetry import read_heartbeats
from ...study.store import ResultStore

__all__ = ["Event", "EventBus", "StoreWatcher", "GLOBAL_CHANNEL"]

#: The channel every event is mirrored to (subscribe for a firehose view).
GLOBAL_CHANNEL = "*"

#: Replay history kept per channel (events beyond this are dropped oldest
#: first; jobs emit far fewer events than this in practice).
HISTORY_LIMIT = 1000


@dataclass(frozen=True)
class Event:
    """One bus event: a kind, a payload, and a bus-wide sequence number."""

    seq: int
    kind: str
    data: Dict[str, object]
    timestamp: float = field(default_factory=time.time)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "event": self.kind,
            "timestamp": self.timestamp,
            **self.data,
        }


class EventBus:
    """Thread-safe publish, asyncio subscribe, per-channel replay history."""

    def __init__(self, history_limit: int = HISTORY_LIMIT) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._history_limit = history_limit
        self._history: Dict[str, Deque[Event]] = {}
        self._subscribers: Dict[str, Set[asyncio.Queue]] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind the loop live subscribers run on (called at server start)."""
        self._loop = loop

    # ------------------------------------------------------------- publish

    def publish(
        self,
        kind: str,
        data: Dict[str, object],
        channels: Iterable[str] = (),
    ) -> Event:
        """Record an event and wake its channels' subscribers.

        Safe from any thread.  The event always lands on the global channel
        in addition to ``channels``.
        """
        targets: List[asyncio.Queue] = []
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, kind=kind, data=dict(data))
            for channel in set(channels) | {GLOBAL_CHANNEL}:
                history = self._history.setdefault(
                    channel, deque(maxlen=self._history_limit)
                )
                history.append(event)
                targets.extend(self._subscribers.get(channel, ()))
            loop = self._loop
        if loop is not None and targets:
            loop.call_soon_threadsafe(self._deliver, event, targets)
        return event

    @staticmethod
    def _deliver(event: Event, targets: List[asyncio.Queue]) -> None:
        for queue in targets:
            queue.put_nowait(event)

    # ----------------------------------------------------------- subscribe

    def subscribe(self, channel: str = GLOBAL_CHANNEL) -> asyncio.Queue:
        """A live queue of the channel's future events (call on the loop)."""
        queue: asyncio.Queue = asyncio.Queue()
        with self._lock:
            self._subscribers.setdefault(channel, set()).add(queue)
        return queue

    def unsubscribe(self, channel: str, queue: asyncio.Queue) -> None:
        with self._lock:
            subscribers = self._subscribers.get(channel)
            if subscribers is not None:
                subscribers.discard(queue)
                if not subscribers:
                    del self._subscribers[channel]

    def history(self, channel: str = GLOBAL_CHANNEL) -> List[Event]:
        """The channel's replayable history, oldest first."""
        with self._lock:
            return list(self._history.get(channel, ()))


class StoreWatcher:
    """Derives shard-publish and worker-heartbeat events from disk state.

    External workers communicate only through the filesystem (published
    lane ranges, heartbeat files), so the server learns about their
    progress the same way an operator running ``exec status`` would: by
    watching the store.  The first poll takes a baseline: the ranges
    already stored then publish no event.  Each later poll diffs against
    the previous listing and publishes one event per new range and per
    advanced heartbeat, routed to the jobs interested in the range's spec
    hash (resolved through ``jobs_for_spec``) plus the global channel.
    """

    def __init__(
        self,
        store: ResultStore,
        bus: EventBus,
        jobs_for_spec,
        interval: float = 0.25,
    ) -> None:
        self.store = store
        self.bus = bus
        self.jobs_for_spec = jobs_for_spec
        self.interval = interval
        self._seen_shards: Optional[Set[tuple]] = None  # before the baseline
        self._beats: Dict[str, tuple] = {}

    def poll_once(self) -> int:
        """Diff the on-disk state once; returns how many events were published."""
        published = 0
        shards = set(self.store.shard_keys())
        new = [] if self._seen_shards is None else sorted(shards - self._seen_shards)
        self._seen_shards = shards
        for spec_hash, key in new:
            self.bus.publish(
                "shard-published",
                {"spec_hash": spec_hash, "shard": key},
                channels=self.jobs_for_spec(spec_hash),
            )
            published += 1
        queue = FileQueue(self.store.queue_root)
        for beat in read_heartbeats(queue):
            fingerprint = (
                beat.last_heartbeat,
                beat.shards_claimed,
                beat.shards_done,
                beat.finished,
            )
            if self._beats.get(beat.owner) == fingerprint:
                continue
            self._beats[beat.owner] = fingerprint
            self.bus.publish(
                "worker-heartbeat",
                {
                    "owner": beat.owner,
                    "pid": beat.pid,
                    "engine": beat.engine,
                    "shards_claimed": beat.shards_claimed,
                    "shards_done": beat.shards_done,
                    "runs_done": beat.runs_done,
                    "finished": beat.finished,
                },
                channels=self.jobs_for_spec(None),
            )
            published += 1
        return published

    async def run(self, stop: asyncio.Event) -> None:
        """Poll until ``stop`` is set (the server's background task)."""
        loop = asyncio.get_running_loop()
        while not stop.is_set():
            # poll_once scans the store and queue directories on disk; run
            # it off-loop so a large store never stalls HTTP handling (or
            # the SSE streams) between polls.
            await loop.run_in_executor(None, self.poll_once)
            try:
                await asyncio.wait_for(stop.wait(), timeout=self.interval)
            except asyncio.TimeoutError:
                continue

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

Producers: the job manager (job lifecycle events, and one shard-publish
event per lane range a job's own drain publishes) and the GC service
(sweep events).
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set

__all__ = ["Event", "EventBus", "GLOBAL_CHANNEL"]

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

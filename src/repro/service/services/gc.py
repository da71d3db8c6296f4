"""Background garbage collection over the result store.

The server's GC service periodically retires *derived* store entries.
By default only pWCET analyses are swept — pure caches, rebuilt from the
campaign's lane ranges on demand.  Temporary files are only age-filtered
by :meth:`~repro.study.store.ResultStore.sweep_candidates`, so an
unattended loop could collect one a running publish still writes;
sweeping them is therefore an explicit request — ``POST /v1/gc`` with
``{"analyses_only": false}``, or ``study clean --older-than`` — made when
the operator knows no campaign is mid-flight.  Published lane ranges are
never swept: they are the results warm jobs resolve from.

Sweep decisions are made by :meth:`repro.study.store.ResultStore.sweep_candidates`
— the same single decision point behind ``python -m repro study clean
--dry-run`` — so what the service would delete is testable (and queryable
via ``POST /v1/gc`` with ``{"dry_run": true}``) without deleting anything.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from ...study.store import ResultStore
from .events import EventBus

__all__ = ["GcService", "DEFAULT_GC_AGE", "DEFAULT_GC_INTERVAL"]

#: Default minimum age (seconds) before a derived entry is eligible.
DEFAULT_GC_AGE = 3600.0

#: Default seconds between background sweeps (0 disables the loop; manual
#: ``POST /v1/gc`` sweeps keep working either way).
DEFAULT_GC_INTERVAL = 300.0


class GcService:
    """Periodic ``ResultStore.sweep`` with observable, testable decisions."""

    def __init__(
        self,
        store: ResultStore,
        bus: EventBus,
        interval: float = DEFAULT_GC_INTERVAL,
        older_than: float = DEFAULT_GC_AGE,
        analyses_only: bool = True,
    ) -> None:
        self.store = store
        self.bus = bus
        self.interval = interval
        self.older_than = older_than
        self.analyses_only = analyses_only
        self.sweeps = 0
        self.swept_total = 0
        self.last_sweep_at: Optional[float] = None

    def plan(
        self, older_than: Optional[float] = None, analyses_only: Optional[bool] = None
    ) -> List[str]:
        """What the next sweep would delete (store-relative paths, sorted)."""
        candidates = self.store.sweep_candidates(
            self.older_than if older_than is None else older_than,
            self.analyses_only if analyses_only is None else analyses_only,
        )
        root = self.store.root
        return [str(path.relative_to(root)) for path in candidates]

    def sweep_once(
        self, older_than: Optional[float] = None, analyses_only: Optional[bool] = None
    ) -> int:
        """Run one sweep now; publishes a ``gc-sweep`` event, returns count."""
        removed = self.store.sweep(
            self.older_than if older_than is None else older_than,
            self.analyses_only if analyses_only is None else analyses_only,
        )
        self.sweeps += 1
        self.swept_total += removed
        self.last_sweep_at = time.time()
        self.bus.publish("gc-sweep", {"removed": removed})
        return removed

    def status_snapshot(self) -> Dict[str, object]:
        """GC counters for ``GET /v1/status``."""
        return {
            "interval": self.interval,
            "older_than": self.older_than,
            "analyses_only": self.analyses_only,
            "sweeps": self.sweeps,
            "swept_total": self.swept_total,
            "last_sweep_at": self.last_sweep_at,
        }

    async def run(self, stop: asyncio.Event) -> None:
        """Sweep every ``interval`` seconds until ``stop`` (0 = no-op loop)."""
        if self.interval <= 0:
            await stop.wait()
            return
        loop = asyncio.get_running_loop()
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), timeout=self.interval)
                return
            except asyncio.TimeoutError:
                pass
            # Directory scan + unlinks: off-loop so a large store never
            # stalls HTTP handling.
            await loop.run_in_executor(None, self.sweep_once)

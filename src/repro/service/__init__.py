"""pWCET analysis as a service: ``python -m repro serve``.

The service subsystem turns the repository's campaign/analysis pipeline
into a long-running server, layered **api → services → exec/study**:

* :mod:`repro.service.api` — the stdlib-asyncio HTTP front end
  (:class:`~repro.service.api.server.ReproServer`): job submission and
  polling, SSE progress streams, execution status, registry endpoints;
* :mod:`repro.service.services` — the server's working parts:

  - the **job manager** (:class:`~repro.service.services.jobs.JobManager`)
    validates scenario specs, deduplicates by spec hash and executes jobs
    through the same store + exec pipeline the CLI uses, so concurrent
    clients submitting overlapping sweeps share work (the overlap
    resolves warm: zero simulations, zero EVT fits);
  - the **event bus** (:class:`~repro.service.services.events.EventBus`)
    bridges job threads to SSE subscribers;
  - the **GC service** (:class:`~repro.service.services.gc.GcService`)
    periodically sweeps derived store entries, sharing its decision logic
    with ``python -m repro study clean --dry-run``;

* :mod:`repro.service.client` — a urllib-based client
  (:class:`~repro.service.client.ServiceClient`) used by
  ``python -m repro submit`` and the test suite.

Results are byte-identical to the CLI path: the server stores and serves
the same campaign and analysis payloads ``study run`` would produce for
the same specs.
"""

from __future__ import annotations

from .client import DEFAULT_URL, ServiceClient, ServiceError

__all__ = ["DEFAULT_URL", "ServiceClient", "ServiceError"]

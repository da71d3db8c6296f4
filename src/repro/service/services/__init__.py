"""Service-layer components behind the API (see :mod:`repro.service`)."""

from __future__ import annotations

from .events import GLOBAL_CHANNEL, Event, EventBus
from .gc import DEFAULT_GC_AGE, DEFAULT_GC_INTERVAL, GcService
from .jobs import BadRequest, Job, JobManager, JobOptions, parse_job_request

__all__ = [
    "BadRequest",
    "DEFAULT_GC_AGE",
    "DEFAULT_GC_INTERVAL",
    "Event",
    "EventBus",
    "GLOBAL_CHANNEL",
    "GcService",
    "Job",
    "JobManager",
    "JobOptions",
    "parse_job_request",
]

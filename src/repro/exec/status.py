"""The ``python -m repro exec status`` view: campaigns still being published.

Renders what the store's published lane ranges say about unfinished work,
from the range files alone: one row per campaign whose ranges do not yet
make up its lanes ``[0, runs)`` (a killed run, or a drain still running),
with the lanes a rerun would reuse and the engines that published them.  A
range's header carries its spec, so nothing else is read.  A stored
campaign is not listed (``query runs`` lists those), and neither is a
campaign with no range yet.

The machine-readable form, :func:`exec_status_snapshot`, is the single
source of both renderings: ``exec status --format json`` dumps it verbatim
and the analysis server's ``GET /v1/status`` handler embeds it unchanged
(:mod:`repro.service.api.server`), so the CLI and the service never
disagree about it.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..analysis.report import format_table
from ..study.store import ResultStore
from .plan import plan_shards

__all__ = ["exec_status_snapshot", "format_exec_status", "render_exec_status"]


def exec_status_snapshot(store: ResultStore) -> Dict[str, object]:
    """The store's partly published campaigns as plain data.

    One ``specs`` entry per spec hash whose readable ranges do not make up
    its campaign: its workload, setup label, engines, runs, range count
    and ``published``, the lanes of the ranges the campaign's plan keeps
    (:func:`~repro.exec.plan.plan_shards`, as the store reads a campaign
    and a rerun reuses them).  Totals are included so dashboards do not
    re-aggregate.
    """
    specs: Dict[str, Dict[str, object]] = {}
    for spec_hash, keys in sorted(store.published().items()):
        # Package reader: copies scalars out of the shared memoized headers.
        headers = {}
        for key in keys:
            parsed = store._range(spec_hash, key)
            if parsed is not None:
                headers[key] = parsed[0]
        if not headers:
            continue
        meta = next(iter(headers.values()))
        runs = int(meta["spec"]["runs"])  # type: ignore[index]
        plan = plan_shards(spec_hash, runs, runs, headers)
        published = sum(shard.count for shard in plan if shard.key in headers)
        if published == runs:
            continue  # a stored campaign
        specs[spec_hash] = {
            "workload": meta["workload"],
            "setup": meta["setup"],
            "engine": ", ".join(sorted({str(header.get("engine")) for header in headers.values()})),
            "runs": runs,
            "ranges": len(headers),
            "published": published,
        }
    return {
        "store": str(store.root),
        "specs": specs,
        "totals": {
            name: sum(int(entry[name]) for entry in specs.values())  # type: ignore[call-overload]
            for name in ("ranges", "published", "runs")
        },
    }


def format_exec_status(store: ResultStore) -> str:
    """One human-readable report of the store's partly published campaigns."""
    snapshot = exec_status_snapshot(store)
    lines: List[str] = [f"store: {snapshot['store']}"]
    specs: Dict[str, Dict[str, object]] = snapshot["specs"]  # type: ignore[assignment]
    if not specs:
        lines.append("no partly published campaigns")
        return "\n".join(lines)
    rows = [
        (
            spec_hash[:12],
            entry["workload"],
            entry["setup"],
            entry["engine"],
            entry["ranges"],
            f"{entry['published']}/{entry['runs']}",
        )
        for spec_hash, entry in specs.items()
    ]
    lines.append(
        format_table(["spec", "workload", "setup", "engine", "ranges", "published"], rows)
    )
    return "\n".join(lines)


def render_exec_status(store: ResultStore, fmt: str = "text") -> str:
    """The status report in ``text`` or machine-readable ``json`` form."""
    if fmt == "json":
        return json.dumps(exec_status_snapshot(store), indent=2, sort_keys=True)
    if fmt == "text":
        return format_exec_status(store)
    raise ValueError(f"unknown format {fmt!r}; expected 'text' or 'json'")

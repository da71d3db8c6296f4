"""Reporting helpers: plain-text rendering plus machine-readable formats.

The benchmark harnesses print the reproduced tables and figure series to
stdout so that a bench run leaves a readable record next to the
pytest-benchmark timings.  These helpers render aligned ASCII tables and
simple textual histograms without any plotting dependency.

:func:`render_result` is the single formatter every consumer of experiment
results routes through (``python -m repro study run --format
{text,json,csv}``, ``pwcet compare``): ``text`` delegates to the result
object's ``format()`` method, ``json`` emits one JSON object per
experiment, and ``csv`` flattens the result into ``experiment,key,value``
rows (dotted key paths), so downstream tooling never scrapes the ASCII
tables.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "format_table",
    "format_histogram",
    "format_ccdf",
    "format_estimator_comparison",
    "RESULT_FORMATS",
    "QUERY_FORMATS",
    "CSV_HEADER",
    "result_to_data",
    "flatten_result",
    "render_result",
    "render_rows",
]

#: Formats accepted by :func:`render_result` (and the CLI's ``--format``).
RESULT_FORMATS = ("text", "json", "csv")

#: Formats accepted by :func:`render_rows` (``repro query --format``).
QUERY_FORMATS = ("table", "csv", "json")

#: Column names of the rows :func:`render_result` emits for ``csv``.
CSV_HEADER = "experiment,key,value"


def _stringify(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.3g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    string_rows: List[List[str]] = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append(separator)
    for row in string_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_histogram(
    samples: Sequence[float],
    bins: int = 20,
    width: int = 50,
    title: str = "",
) -> str:
    """Render a textual histogram (used for Figure 5's density plots)."""
    if not len(samples):
        raise ValueError("samples must not be empty")
    low = min(samples)
    high = max(samples)
    if high == low:
        return f"{title}\nall {len(samples)} observations equal {low:g}"
    span = (high - low) / bins
    counts = [0] * bins
    for value in samples:
        index = min(int((value - low) / span), bins - 1)
        counts[index] += 1
    peak = max(counts)
    lines = [title] if title else []
    for index, count in enumerate(counts):
        left = low + index * span
        bar = "#" * max(int(count / peak * width), 1 if count else 0)
        lines.append(f"{left:>12,.0f} | {bar} {count}")
    return "\n".join(lines)


def format_ccdf(points: Sequence[Tuple[float, float]], title: str = "") -> str:
    """Render (value, exceedance probability) pairs as a small table."""
    rows = [(f"{value:,.0f}", f"{probability:.3g}") for value, probability in points]
    return format_table(["execution time", "exceedance prob."], rows, title=title)


def format_estimator_comparison(comparison) -> str:
    """Render a :class:`repro.pwcet.EstimatorComparison` as an aligned table.

    One row per (scenario, cutoff probability); one pWCET column per
    estimator, annotated with the bootstrap confidence interval when the
    comparison was run with bootstrapping, plus the observed high-water
    mark and the per-estimator i.i.d. verdicts.
    """
    headers = ["scenario", "cutoff", "hwm"]
    headers.extend(f"pWCET {name}" for name in comparison.estimators)
    rows: List[List[str]] = []
    for label in comparison.labels:
        for cutoff in comparison.cutoffs:
            row = [label, f"{cutoff:g}", f"{comparison.hwm[label]:,.0f}"]
            for name in comparison.estimators:
                cell = comparison.cells[label][name]
                value = cell["pwcet"][cutoff]
                interval = cell["pwcet_ci"].get(cutoff)
                text = f"{value:,.0f}"
                if interval is not None:
                    text += f" [{interval[0]:,.0f}, {interval[1]:,.0f}]"
                row.append(text)
            rows.append(row)
    verdicts = []
    for name in comparison.estimators:
        failing = [
            label
            for label in comparison.labels
            if not comparison.cells[label][name]["iid_passed"]
        ]
        verdicts.append(
            f"{name}: i.i.d. ok for {len(comparison.labels) - len(failing)}/"
            f"{len(comparison.labels)} scenario(s)"
            + (f" (failing: {', '.join(failing)})" if failing else "")
        )
    table = format_table(
        headers,
        rows,
        title="pWCET estimator comparison",
    )
    return "\n".join([table, "", *verdicts])


def render_rows(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    fmt: str = "table",
    title: str = "",
) -> str:
    """Render homogeneous (headers, rows) data in one of :data:`QUERY_FORMATS`.

    The row-oriented sibling of :func:`render_result`: ``table`` is the
    aligned ASCII rendering of :func:`format_table`, ``csv`` emits a header
    line plus one row per line, and ``json`` emits a list of objects keyed
    by the headers.  ``repro query`` and any future tabular CLI route
    through here so the three formats stay consistent.
    """
    materialized = [list(row) for row in rows]
    if fmt == "table":
        return format_table(headers, materialized, title=title)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(materialized)
        return buffer.getvalue().rstrip("\n")
    if fmt == "json":
        return json.dumps(
            [dict(zip(headers, row)) for row in materialized], sort_keys=True
        )
    raise ValueError(f"unknown format {fmt!r}; expected one of {QUERY_FORMATS}")


# ---------------------------------------------------------------------------
# Machine-readable experiment output
# ---------------------------------------------------------------------------

def result_to_data(result: object) -> object:
    """Convert an experiment result object into plain JSON-able data.

    Result objects are dataclasses of dicts/lists/scalars; tuples become
    lists and non-string dict keys become strings (JSON object keys), so the
    same data structure round-trips through both ``json`` and ``csv``.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return result_to_data(dataclasses.asdict(result))
    if isinstance(result, dict):
        return {str(key): result_to_data(value) for key, value in result.items()}
    if isinstance(result, (list, tuple)):
        return [result_to_data(value) for value in result]
    if isinstance(result, (str, int, float, bool)) or result is None:
        return result
    return str(result)


def flatten_result(data: object, prefix: str = "") -> List[Tuple[str, object]]:
    """Flatten nested result data into ``(dotted.key.path, scalar)`` pairs."""
    if isinstance(data, dict):
        pairs: List[Tuple[str, object]] = []
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            pairs.extend(flatten_result(value, path))
        return pairs
    if isinstance(data, (list, tuple)):
        pairs = []
        for position, value in enumerate(data):
            path = f"{prefix}.{position}" if prefix else str(position)
            pairs.extend(flatten_result(value, path))
        return pairs
    return [(prefix, data)]


def render_result(
    identifier: str,
    result: object,
    fmt: str = "text",
    miss_rates: Dict[str, Dict[str, float]] | None = None,
    analysis: Dict[str, Dict[str, object]] | None = None,
) -> str:
    """Render one experiment result in the requested format.

    ``text`` uses the result's paper-style ``format()`` rendering; ``json``
    returns one self-identifying JSON object; ``csv`` returns
    ``experiment,key,value`` rows (without the :data:`CSV_HEADER` line, so
    multi-experiment runs can share a single header).

    ``miss_rates`` optionally carries per-scenario cache miss summaries
    (scenario label -> :attr:`repro.analysis.campaign.CampaignResult.miss_summary`
    data); ``analysis`` optionally carries per-scenario pWCET analysis
    summaries (scenario label ->
    :meth:`repro.study.ResultSet.analysis_summaries` data, including the
    estimator name and the discarded-run count of block-maxima grouping).
    The machine-readable formats include both — ``json`` under top-level
    ``"miss_rates"`` / ``"analysis"`` keys, ``csv`` as
    ``miss_rates.<scenario>.<metric>`` / ``analysis.<scenario>.<metric>``
    rows — while ``text`` ignores them so the paper-style tables stay
    byte-identical.
    """
    if fmt == "text":
        return result.format()  # type: ignore[attr-defined]
    if fmt == "json":
        payload: Dict[str, object] = {
            "experiment": identifier,
            "result": result_to_data(result),
        }
        if miss_rates:
            payload["miss_rates"] = result_to_data(miss_rates)
        if analysis:
            payload["analysis"] = result_to_data(analysis)
        return json.dumps(payload, sort_keys=True)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for key, value in flatten_result(result_to_data(result)):
            writer.writerow([identifier, key, value])
        if miss_rates:
            for key, value in flatten_result(result_to_data(miss_rates), "miss_rates"):
                writer.writerow([identifier, key, value])
        if analysis:
            for key, value in flatten_result(result_to_data(analysis), "analysis"):
                writer.writerow([identifier, key, value])
        return buffer.getvalue().rstrip("\n")
    raise ValueError(f"unknown format {fmt!r}; expected one of {RESULT_FORMATS}")

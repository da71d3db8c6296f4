"""The canonical run table: one queryable row per stored analysis.

The result store persists campaigns as published lane ranges
(``shards/<spec_hash>.<start>x<count>.rcol``) and analyses
(``analysis/<spec_hash>.<analysis_hash>.json``) as separate content-hashed
entries — ideal for caching, hostile to questions.  "In which scenarios
does hrp beat rm at 10^-15?" should not require re-running anything, nor
hand-joining files.  This module assembles the store into **one canonical
table**: a row per (study, scenario, seed group, estimator) carrying the
miss rates, the pWCET quantiles, the admission verdict and the provenance
hashes.  Campaigns without a persisted analysis still get one row
(with an empty ``estimator``), so the table always covers the whole store.

Every build lists the store itself (``shards/`` once) and reads each range
and analysis file through the store's read memo, which serves a file's
decode only while the file is unchanged, so the table always matches the
files on disk.  A spec hash whose ranges do not yet cover its campaign (a
run still draining, or killed) has no row.

Rows are plain dicts (JSON-able), exportable to CSV always and to Parquet
when pandas + pyarrow happen to be installed (they are **not**
dependencies).  Filtering supports exact-match fields and a restricted
``where`` predicate evaluated per row — ``repro query`` is a thin CLI over
:meth:`RunTable.filter`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from .scenario import hierarchy_label, workload_label
from .store import ResultStore

__all__ = [
    "ROW_FIELDS",
    "RunTable",
    "build_run_table",
]

#: The scalar columns of every row, in export order.  ``pwcet`` (a
#: probability -> cycles mapping) rides along as a dict field and expands
#: into ``pwcet@<probability>`` columns on CSV/Parquet export.
ROW_FIELDS = (
    "study",
    "workload",
    "setup",
    "label",
    "campaign",
    "runs",
    "seed",
    "mean_cycles",
    "max_cycles",
    "il1_miss_rate",
    "dl1_miss_rate",
    "l2_miss_rate",
    "estimator",
    "admitted",
    "spec_hash",
    "analysis_hash",
)


def _campaign_row(
    spec_hash: str,
    meta: Mapping[str, object],
    times,
    summary: Mapping[str, float],
) -> Dict[str, object]:
    """The analysis-independent part of a row, from one stored campaign.

    ``meta`` is the header of the campaign's range at lane 0 (its spec and
    label) and ``summary`` its miss summary.  ``times`` is the execution
    times in lane order, read-only numpy data: the cycle statistics reduce
    over it directly, without materializing Python ints.
    ``int(times.sum())`` is an exact integer (numpy accumulates integer
    columns in a 64-bit integer), so ``mean_cycles`` is bit-identical to
    the JSON-era ``sum(list)/len(list)``.
    """
    spec = meta["spec"]
    return {
        "study": "",
        "workload": workload_label(spec["workload"]),  # type: ignore[index]
        "setup": hierarchy_label(spec["hierarchy"]),  # type: ignore[index]
        "label": str(meta.get("setup", "")),
        "campaign": str(spec["campaign"]),  # type: ignore[index]
        "runs": int(spec["runs"]),  # type: ignore[index]
        "seed": int(spec["seed"]),  # type: ignore[index]
        "mean_cycles": int(times.sum()) / times.size,
        "max_cycles": int(times.max()),
        "il1_miss_rate": float(summary.get("il1_miss_rate", 0.0)),
        "dl1_miss_rate": float(summary.get("dl1_miss_rate", 0.0)),
        "l2_miss_rate": float(summary.get("l2_miss_rate", 0.0)),
        "estimator": "",
        "admitted": None,
        "spec_hash": spec_hash,
        "analysis_hash": "",
        "pwcet": {},
    }


def _analysis_fields(payload: Mapping[str, object]) -> Dict[str, object]:
    """The analysis-dependent row fields from one persisted payload."""
    assessment = payload.get("assessment")
    admitted: Optional[bool] = None
    if isinstance(assessment, dict):
        try:
            admitted = all(
                bool(assessment[test]["passed"])  # type: ignore[index]
                for test in (
                    "independence",
                    "identical_distribution",
                    "gumbel_convergence",
                )
            )
        except (KeyError, TypeError):
            admitted = None
    pwcet = payload.get("pwcet")
    quantiles: Dict[str, float] = {}
    if isinstance(pwcet, dict):
        for probability, value in pwcet.items():
            try:
                quantiles[str(probability)] = float(value)  # type: ignore[arg-type]
            except (ValueError, TypeError):
                continue
    return {
        "estimator": str(payload.get("estimator", "")),
        "admitted": admitted,
        "pwcet": quantiles,
    }


def _rows_for_spec(
    store: ResultStore,
    spec_hash: str,
    ranges: Sequence[str],
    analyses: Sequence[str],
    studies: Sequence[str],
) -> List[Dict[str, object]]:
    """Every row for one spec hash (one per analysis; one bare row if none).

    Reads the store's shared decodes (``_campaign``/``_analysis``), not
    ``load``/``load_analysis``' copies: a row takes only scalars and new
    dicts from them.
    """
    stored = store._campaign(spec_hash, ranges)
    if stored is None:
        return []
    try:
        base = _campaign_row(spec_hash, *stored)
    except (KeyError, ValueError, TypeError):
        # Malformed meta (a hand-edited or damaged header): skip the entry
        # rather than fail the whole table build.
        return []
    base["study"] = ",".join(studies)
    rows: List[Dict[str, object]] = []
    for analysis_hash in analyses:
        payload = store._analysis(spec_hash, analysis_hash)
        if payload is None:
            continue
        row = dict(base)
        row["pwcet"] = dict(base["pwcet"])  # type: ignore[arg-type]
        row.update(_analysis_fields(payload))
        row["analysis_hash"] = analysis_hash
        rows.append(row)
    if not rows:
        rows.append(base)
    return rows


def _pwcet_namespace(row: Mapping[str, object]) -> Dict[object, float]:
    """The row's pwcet mapping, addressable by string *and* float key."""
    namespace: Dict[object, float] = {}
    pwcet = row.get("pwcet")
    if isinstance(pwcet, dict):
        for probability, value in pwcet.items():
            namespace[str(probability)] = float(value)
            try:
                namespace[float(probability)] = float(value)
            except (ValueError, TypeError):
                pass
    return namespace


@dataclass
class RunTable:
    """An in-memory run table: plain-dict rows plus export/filter helpers."""

    rows: List[Dict[str, object]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def probabilities(self) -> List[str]:
        """Every pWCET probability present, as strings sorted descending
        (most probable first), defining the exported column order."""
        keys = {key for row in self.rows for key in row.get("pwcet", {})}  # type: ignore[union-attr]
        return sorted(keys, key=lambda text: -float(text))

    def filter(
        self,
        study: Optional[str] = None,
        workload: Optional[str] = None,
        setup: Optional[str] = None,
        estimator: Optional[str] = None,
        where: Optional[str] = None,
    ) -> "RunTable":
        """A new table with only the matching rows.

        Exact-match filters compare against the row field (``study``
        matches any of the row's comma-joined study names).  ``where`` is a
        Python expression evaluated per row with the row's fields as names
        (``pwcet`` addressable by string or float probability) and no
        builtins — e.g. ``"il1_miss_rate > 0.5 and admitted"``.  Rows where
        the expression errors are dropped; a malformed expression raises
        :class:`ValueError` up front.
        """
        predicate = None
        if where is not None:
            try:
                predicate = compile(where, "<where>", "eval")
            except SyntaxError as error:
                raise ValueError(f"malformed --where expression: {error}") from None
        selected = []
        for row in self.rows:
            if study is not None and study not in str(row.get("study", "")).split(","):
                continue
            if workload is not None and row.get("workload") != workload:
                continue
            if setup is not None and row.get("setup") != setup:
                continue
            if estimator is not None and row.get("estimator") != estimator:
                continue
            if predicate is not None:
                namespace = dict(row)
                namespace["pwcet"] = _pwcet_namespace(row)
                try:
                    if not eval(predicate, {"__builtins__": {}}, namespace):
                        continue
                except NameError as error:
                    raise ValueError(
                        f"unknown name in --where expression: {error}"
                    ) from None
                except (TypeError, KeyError, AttributeError, ZeroDivisionError):
                    continue
            selected.append(row)
        return RunTable(rows=selected)

    def export_columns(self) -> List[str]:
        """The flat column list: scalar fields + one per pWCET probability."""
        return list(ROW_FIELDS) + [f"pwcet@{p}" for p in self.probabilities()]

    def export_rows(self) -> List[List[object]]:
        """The rows flattened to the :meth:`export_columns` layout."""
        probabilities = self.probabilities()
        flat = []
        for row in self.rows:
            pwcet = row.get("pwcet", {})
            flat.append(
                [row.get(name, "") for name in ROW_FIELDS]
                + [pwcet.get(p, "") for p in probabilities]  # type: ignore[union-attr]
            )
        return flat

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the table as CSV; returns the path."""
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        with open(destination, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.export_columns())
            writer.writerows(self.export_rows())
        return destination

    def to_parquet(self, path: Union[str, Path]) -> Path:
        """Write the table as Parquet (requires pandas + pyarrow).

        Raises :class:`RuntimeError` with an actionable message when the
        optional stack is missing — Parquet is a convenience tier, never a
        dependency.
        """
        try:
            import pandas  # noqa: F401  (probe)

            frame = pandas.DataFrame(self.export_rows(), columns=self.export_columns())
        except ImportError:
            raise RuntimeError(
                "Parquet export needs pandas; install pandas and pyarrow or "
                "export CSV instead"
            ) from None
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        try:
            frame.to_parquet(destination)
        except ImportError:
            raise RuntimeError(
                "Parquet export needs a parquet engine; install pyarrow or "
                "export CSV instead"
            ) from None
        return destination


def build_run_table(store: ResultStore) -> RunTable:
    """Assemble the run table for ``store`` from its current entries."""
    analyses_by_spec: Dict[str, List[str]] = {}
    for spec_hash, analysis_hash in store.analysis_keys():
        analyses_by_spec.setdefault(spec_hash, []).append(analysis_hash)
    study_index = store.study_index()
    rows: List[Dict[str, object]] = []
    for spec_hash, ranges in store.published().items():
        rows.extend(
            _rows_for_spec(
                store,
                spec_hash,
                ranges,
                analyses_by_spec.get(spec_hash, []),
                study_index.get(spec_hash, []),
            )
        )
    rows.sort(
        key=lambda row: (
            str(row.get("study", "")),
            str(row.get("workload", "")),
            str(row.get("setup", "")),
            str(row.get("estimator", "")),
            str(row.get("spec_hash", "")),
        )
    )
    return RunTable(rows=rows)

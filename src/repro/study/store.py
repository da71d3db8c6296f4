"""Content-hash-keyed on-disk store for executed scenarios.

Every executed scenario lands in one file named by its spec hash
(``results/store/<sha256>.rcol`` by default) holding the canonical spec,
the campaign's per-run execution times and the per-level miss summary.
Because the file name is the hash of everything that determines the
simulation, a store lookup either returns the exact campaign the scenario
would produce or nothing — there is no invalidation logic to get wrong.
Re-running a study therefore only simulates scenarios whose spec hash is
new.

Entries use the **binary columnar format** of :mod:`repro.study.columnar`:
the per-run arrays are typed little-endian blocks (narrowest sufficient
dtype, checksummed header) instead of JSON text, which removes the
``json.dumps``/``json.loads`` serialization tax from every save and every
warm read.  Shard entries published by :mod:`repro.exec` workers use
the same format.  A JSON-era entry (``<hash>.json``) is not read: the store
is a cache, so it is a miss and the campaign re-simulates bit-exactly.

pWCET analyses are persisted alongside, under
``analysis/<spec_hash>.<analysis_config_hash>.json``: the second key is
:meth:`repro.pwcet.MbptaConfig.analysis_hash`, the hash of every
analysis-determining knob (estimator, block size, significance, cutoffs,
bootstrap count).  Analyses stay JSON — they are small irregular dicts,
and keeping them textual keeps warm analysis payloads byte-identical to
the JSON era.  A warm ``study run`` therefore resolves both the campaign
*and* its EVT analysis from disk and performs zero fits.

Key listings (:meth:`ResultStore.keys`, :meth:`analysis_keys`,
:meth:`shard_keys`) and the GC candidate lists scan the entry
directories, so they always agree with the files: a killed save leaves
either a listed entry or an unlisted ``*.tmp`` straggler.  The only
bookkeeping file is ``studies.log``, the study provenance record.

The store is deliberately forgiving: unreadable, truncated or
version-mismatched files are treated as cache misses (and overwritten by
the next save), never as errors.  Saves are atomic (write to a temporary
file, then :func:`os.replace`) so a killed run cannot leave a half-written
entry behind.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from ..analysis.campaign import CampaignResult
from . import columnar
from .scenario import SPEC_VERSION, Scenario

__all__ = [
    "DEFAULT_STORE_DIR",
    "STUDY_LOG_NAME",
    "ResultStore",
    "check_gc_age",
]

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = os.path.join("results", "store")

#: The append-only (study name, spec hash) provenance log at the store root.
STUDY_LOG_NAME = "studies.log"


def check_gc_age(seconds: float) -> float:
    """``seconds`` if it is a usable GC age, else ``ValueError``.

    An age must be finite and >= 0: a negative or NaN age would make every
    file old enough to sweep, a running campaign's shards, tasks and leases
    included.
    """
    if not 0 <= seconds < math.inf:
        raise ValueError(f"GC age must be a finite number of seconds >= 0, got {seconds}")
    return seconds


def _as_int_column(value: object) -> Optional[np.ndarray]:
    """``value`` as an integer column array, or ``None`` to keep it metadata.

    Classified with one C-level dtype probe instead of a per-element scan
    (shard publish is a hot path); the probe's array is returned so the
    packer never converts twice.  Anything that is not a clean 1-D integer
    sequence — floats mixed in, bools, nested lists, empties — stays
    header metadata, which always round-trips correctly, just less
    compactly.
    """
    if not isinstance(value, (list, tuple)) or not value:
        return None
    try:
        array = np.asarray(value)
    except (ValueError, TypeError, OverflowError):
        return None
    if array.ndim == 1 and array.dtype.kind in "iu":
        return array
    return None


def _replace_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a writer-unique temporary file.

    Two writers of one entry — workers that executed the same shard (a
    lease-reclaim race), or two jobs persisting the same analysis — write
    identical bytes; unique temporary names keep either one's replace from
    tripping over the other's.
    """
    temporary = path.with_name(f"{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    temporary.write_bytes(data)
    os.replace(temporary, path)


def _files(directory: Path, pattern: str) -> List[Path]:
    """The files in ``directory`` matching ``pattern``; none if it is absent."""
    return list(directory.glob(pattern)) if directory.is_dir() else []


class ResultStore:
    """A directory of ``<spec_hash>.rcol`` scenario results."""

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)

    # ----------------------------------------------------------- locations

    def path_for(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}{columnar.COLUMNAR_SUFFIX}"

    @property
    def study_log_path(self) -> Path:
        return self.root / STUDY_LOG_NAME

    def __contains__(self, spec_hash: str) -> bool:
        return self.load(spec_hash) is not None

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------ campaigns

    def keys(self) -> List[str]:
        """Spec hashes currently stored (sorted)."""
        return sorted(path.stem for path in _files(self.root, f"*{columnar.COLUMNAR_SUFFIX}"))

    def load(self, spec_hash: str) -> Optional[CampaignResult]:
        """The stored campaign for ``spec_hash``, or ``None`` (never raises).

        A corrupt, truncated, version-mismatched or empty entry is a miss.
        """
        try:
            meta, columns = columnar.unpack_entry(self.path_for(spec_hash).read_bytes())
            if meta["version"] != SPEC_VERSION:
                return None
            return CampaignResult(
                workload=str(meta["workload"]),
                setup=str(meta["setup"]),
                # unpack_entry yields plain Python ints: no per-element coercion.
                execution_times=columns.get("execution_times", []),
                master_seed=int(meta["master_seed"]),  # type: ignore[arg-type]
                miss_summary={
                    str(key): float(value)  # type: ignore[arg-type]
                    for key, value in meta.get("miss_summary", {}).items()  # type: ignore[union-attr]
                },
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def load_columns(
        self, spec_hash: str
    ) -> Optional[Tuple[Dict[str, object], Dict[str, np.ndarray]]]:
        """``(meta, columns)`` of one entry, columns as numpy arrays.

        The array-native sibling of :meth:`load`: the columnar file is
        memory-mapped and its blocks come back as zero-copy views — no
        per-element parsing and no Python-int materialization, which is
        what bulk readers (the run-table engine, reassembly, MBPTA fits)
        want since they hand the data straight to numpy anyway.  Returns
        ``None`` on any miss, like :meth:`load`.
        """
        try:
            meta, columns = columnar.read_columns(self.path_for(spec_hash))
        except (OSError, ValueError):
            return None
        if meta.get("version") != SPEC_VERSION:
            return None
        times = columns.get("execution_times")
        if times is None or not times.size:
            return None
        return meta, columns

    def save(self, scenario: Scenario, campaign: CampaignResult) -> Path:
        """Persist one executed scenario atomically; returns the entry path."""
        meta = {
            "version": SPEC_VERSION,
            "spec": scenario.spec_dict(),
            "workload": campaign.workload,
            "setup": campaign.setup,
            "master_seed": campaign.master_seed,
            "miss_summary": dict(campaign.miss_summary),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(scenario.spec_hash())
        columns = {"execution_times": campaign.execution_times}
        _replace_atomically(path, columnar.pack_entry(meta, columns))
        return path

    # ------------------------------------------------------- pWCET analyses

    @property
    def analysis_root(self) -> Path:
        """Directory of persisted pWCET analyses (a store subdirectory, so
        campaign entries and :meth:`keys` are unaffected)."""
        return self.root / "analysis"

    def analysis_path_for(self, spec_hash: str, analysis_hash: str) -> Path:
        return self.analysis_root / f"{spec_hash}.{analysis_hash}.json"

    def load_analysis(
        self, spec_hash: str, analysis_hash: str
    ) -> Optional[Dict[str, object]]:
        """The persisted analysis payload for the key pair, or ``None``.

        The payload is returned as plain data; interpretation (and version
        checking) belongs to :func:`repro.pwcet.analysis_from_payload`.
        Unreadable entries are misses, never errors.
        """
        try:
            payload = json.loads(self.analysis_path_for(spec_hash, analysis_hash).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def save_analysis(
        self, spec_hash: str, analysis_hash: str, payload: Dict[str, object]
    ) -> Path:
        """Persist one analysis payload atomically; returns the entry path."""
        self.analysis_root.mkdir(parents=True, exist_ok=True)
        path = self.analysis_path_for(spec_hash, analysis_hash)
        _replace_atomically(path, json.dumps(payload, sort_keys=True).encode())
        return path

    def analysis_keys(self) -> List[Tuple[str, str]]:
        """(spec_hash, analysis_hash) pairs currently stored (sorted)."""
        pairs = []
        for path in _files(self.analysis_root, "*.json"):
            spec_hash, _, analysis_hash = path.stem.partition(".")
            if analysis_hash:
                pairs.append((spec_hash, analysis_hash))
        return sorted(pairs)

    # ------------------------------------------------------- shard entries

    @property
    def shard_root(self) -> Path:
        """Directory of published shard entries (:mod:`repro.exec`), keyed
        ``<spec_hash>.<shard_key>.rcol``.  A subdirectory, so campaign
        entries and :meth:`keys` are unaffected."""
        return self.root / "shards"

    @property
    def queue_root(self) -> Path:
        """Directory of the store's shard work queue (:class:`repro.exec.FileQueue`)."""
        return self.root / "queue"

    def shard_path_for(self, spec_hash: str, key: str) -> Path:
        return self.shard_root / f"{spec_hash}.{key}{columnar.COLUMNAR_SUFFIX}"

    def save_shard(self, spec_hash: str, key: str, payload: Dict[str, object]) -> Path:
        """Publish one executed shard atomically; returns the entry path.

        The per-run counter lists become typed columns; everything else
        (version, slice bookkeeping, workload, engine) is header metadata.
        Publication is idempotent — two workers racing on a reclaimed lease
        both write the same deterministic payload, and :func:`os.replace`
        makes the last write win without torn files.
        """
        meta: Dict[str, object] = {}
        columns: Dict[str, object] = {}
        for name, value in payload.items():
            column = _as_int_column(value)
            if column is not None:
                columns[name] = column
            else:
                meta[name] = value
        self.shard_root.mkdir(parents=True, exist_ok=True)
        path = self.shard_path_for(spec_hash, key)
        _replace_atomically(path, columnar.pack_entry(meta, columns))
        return path

    def load_shard(self, spec_hash: str, key: str) -> Optional[Dict[str, object]]:
        """The published shard payload for the key pair, or ``None``.

        Unreadable, truncated or version-mismatched entries are misses,
        never errors — the shard simply gets re-executed.
        """
        try:
            meta, columns = columnar.unpack_entry(
                self.shard_path_for(spec_hash, key).read_bytes()
            )
        except (OSError, ValueError):
            return None
        if meta.get("version") != SPEC_VERSION:
            return None
        return {**meta, **columns}

    def shard_keys(self, spec_hash: Optional[str] = None) -> List[Tuple[str, str]]:
        """(spec_hash, shard_key) pairs currently published (sorted)."""
        pairs = []
        for path in _files(self.shard_root, f"*{columnar.COLUMNAR_SUFFIX}"):
            entry_hash, _, key = path.stem.partition(".")
            if key and (spec_hash is None or entry_hash == spec_hash):
                pairs.append((entry_hash, key))
        return sorted(pairs)

    def clear_shards(self, spec_hash: Optional[str] = None) -> int:
        """Delete published shard entries and leftover temporary files (all,
        or one spec hash's); returns how many entries were removed.

        Two drains that recorded one campaign both clear its shards, so an
        entry the other drain removed first is skipped; another spec's
        in-flight temporary files are left to their writers.
        """
        removed = 0
        if not self.shard_root.is_dir():
            return removed
        prefix = f"{spec_hash}.*" if spec_hash else "*"
        for path in self.shard_root.glob(f"{prefix}{columnar.COLUMNAR_SUFFIX}"):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
                removed += 1
        for path in self.shard_root.glob(f"{prefix}.tmp"):
            with contextlib.suppress(OSError):
                path.unlink()
        return removed

    # ---------------------------------------------------- study provenance

    def record_study(self, study: str, spec_hashes: Iterable[str]) -> None:
        """Append (study name, spec hash) provenance pairs (idempotent).

        ``studies.log`` is the append-only record the run table uses to
        label rows with the study they belong to; pairs already present
        are not rewritten, so repeated warm runs leave the log untouched.
        The batch is one ``os.write`` of whole lines, preceded by a newline
        when the log ends in a torn line (a kill or ENOSPC mid-append), so
        a torn line never fuses with the pairs appended after it.
        """
        wanted = {(study, spec_hash) for spec_hash in spec_hashes}
        if not wanted:
            return
        try:
            text = self.study_log_path.read_text()
        except OSError:
            text = ""
        existing: Set[Tuple[str, str]] = set()
        for line in text.splitlines():
            name, _, spec_hash = line.rpartition(" ")
            if name and spec_hash:
                existing.add((name, spec_hash))
        fresh = sorted(wanted - existing)
        if not fresh:
            return
        batch = "".join(f"{name} {spec_hash}\n" for name, spec_hash in fresh)
        if text and not text.endswith("\n"):
            batch = "\n" + batch
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            descriptor = os.open(
                self.study_log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666
            )
            try:
                os.write(descriptor, batch.encode())
            finally:
                os.close(descriptor)
        except OSError:
            pass  # provenance is advisory; never fail a run over it

    def study_index(self) -> Dict[str, List[str]]:
        """Spec hash -> sorted study names recorded against it."""
        index: Dict[str, Set[str]] = {}
        try:
            lines = self.study_log_path.read_text().splitlines()
        except OSError:
            return {}
        for line in lines:
            name, _, spec_hash = line.rpartition(" ")
            if name and spec_hash:
                index.setdefault(spec_hash, set()).add(name)
        return {spec_hash: sorted(names) for spec_hash, names in index.items()}

    # ------------------------------------------------------------------ GC

    def _queue_files(self) -> List[Path]:
        """Every task, lease and heartbeat file under the store's queue."""
        return [
            path
            for name in ("tasks", "leases", "workers")
            for path in _files(self.queue_root / name, "*")
            if path.is_file()
        ]

    def sweep_candidates(
        self,
        older_than: float,
        analyses_only: bool = False,
        now: Optional[float] = None,
    ) -> List[Path]:
        """The files an age-based sweep would delete, sorted, without
        deleting anything.

        This is the single place sweep decisions are made: :meth:`sweep`
        deletes exactly this list, ``study clean --dry-run`` prints it, and
        the analysis server's background GC service logs it — so what the
        GC *would* do is testable without side effects.  Candidates come
        from directory scans: analyses, shard entries, queue files and
        ``*.tmp`` stragglers.  ``older_than`` must pass :func:`check_gc_age`.
        """
        cutoff = (time.time() if now is None else now) - check_gc_age(older_than)
        paths = _files(self.analysis_root, "*.json") + _files(self.analysis_root, "*.tmp")
        if not analyses_only:
            paths += _files(self.shard_root, f"*{columnar.COLUMNAR_SUFFIX}")
            paths += _files(self.shard_root, "*.tmp")
            # Interrupted campaign-entry writers leave ``<hash>.rcol.*.tmp``
            # beside the results; the glob is tmp-only, entries are safe.
            paths += _files(self.root, "*.tmp")
            paths += self._queue_files()
        candidates: List[Path] = []
        for path in paths:
            try:
                if path.stat().st_mtime <= cutoff:
                    candidates.append(path)
            except OSError:
                pass  # concurrently removed — fine
        return sorted(set(candidates))

    def sweep(self, older_than: float, analyses_only: bool = False) -> int:
        """Garbage-collect derived entries older than ``older_than`` seconds.

        Analyses are always eligible (they are pure caches, rebuilt from the
        campaign entry on the next run).  Unless ``analyses_only``, published
        shard entries and leftover queue files (tasks, leases, worker
        heartbeats abandoned by a killed campaign) are swept too.  Campaign
        entries themselves are never touched — they are the results.
        Returns how many files were removed.
        """
        removed = 0
        for path in self.sweep_candidates(older_than, analyses_only=analyses_only):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue  # concurrently removed — fine
        return removed

    def clear_candidates(self) -> Tuple[List[Path], List[Path]]:
        """What :meth:`clear` would delete: ``(entries, bookkeeping)``.

        ``entries`` are the counted store entries (campaign results,
        analyses, shard entries); ``bookkeeping`` are temp files, the study
        log and queue files, removed but not counted.  Both sorted; nothing
        is deleted.
        """
        entries: List[Path] = []
        bookkeeping: List[Path] = []
        if not self.root.is_dir():
            return entries, bookkeeping
        for directory, pattern in (
            (self.root, f"*{columnar.COLUMNAR_SUFFIX}"),
            (self.analysis_root, "*.json"),
            (self.shard_root, f"*{columnar.COLUMNAR_SUFFIX}"),
        ):
            entries.extend(_files(directory, pattern))
            bookkeeping.extend(_files(directory, "*.tmp"))
        if self.study_log_path.exists():
            bookkeeping.append(self.study_log_path)
        bookkeeping.extend(self._queue_files())
        return sorted(set(entries)), sorted(set(bookkeeping))

    def clear(self) -> int:
        """Delete every stored result, analysis, shard entry, study log and
        queue file; returns how many entries were removed (each store entry
        counts as one; bookkeeping files are removed but not counted)."""
        entries, bookkeeping = self.clear_candidates()
        removed = 0
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        for path in bookkeeping:
            try:
                path.unlink()
            except OSError:
                continue
        return removed

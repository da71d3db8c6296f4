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
warm read.  JSON-era entries (``<hash>.json``) remain readable as a
**legacy tier** — they load bit-exactly and are rewritten in the columnar
format on first touch, so old stores need no migration step.  Shard
entries published by :mod:`repro.exec` workers use the same format.

pWCET analyses are persisted alongside, under
``analysis/<spec_hash>.<analysis_config_hash>.json``: the second key is
:meth:`repro.pwcet.MbptaConfig.analysis_hash`, the hash of every
analysis-determining knob (estimator, block size, significance, cutoffs,
bootstrap count).  Analyses stay JSON — they are small irregular dicts,
and keeping them textual keeps warm analysis payloads byte-identical to
the JSON era.  A warm ``study run`` therefore resolves both the campaign
*and* its EVT analysis from disk and performs zero fits.

Key listings (:meth:`ResultStore.keys`, :meth:`shard_keys`,
:meth:`analysis_keys`) are served from an append-only **manifest**
(``manifest.log``: ``+/- <kind> <name>`` lines) instead of directory
globs, so the polling consumers — ``exec status``, the analysis server's
:class:`~repro.service.services.events.StoreWatcher` — read one small
file per poll instead of enumerating the store.  The manifest is an
index, never the source of truth: :meth:`load` probes entry files
directly, a missing manifest is rebuilt by scanning the directories (how
legacy stores migrate in), and ``clear`` simply deletes it.

The store is deliberately forgiving: unreadable, truncated or
version-mismatched files are treated as cache misses (and overwritten by
the next save), never as errors.  Saves are atomic (write to a temporary
file, then :func:`os.replace`) so a killed run cannot leave a half-written
entry behind.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from ..analysis.campaign import CampaignResult
from ..engine.mapcache import adopt_map_directory
from . import columnar
from .scenario import SPEC_VERSION, Scenario

__all__ = [
    "DEFAULT_STORE_DIR",
    "MANIFEST_NAME",
    "STUDY_LOG_NAME",
    "StoredResult",
    "ResultStore",
]

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = os.path.join("results", "store")

#: The append-only key index at the store root.
MANIFEST_NAME = "manifest.log"

#: The append-only (study name, spec hash) provenance log at the store root.
STUDY_LOG_NAME = "studies.log"

#: Entry kinds tracked by the manifest.
_MANIFEST_KINDS = ("results", "analysis", "shards")


@dataclass
class StoredResult:
    """One persisted scenario execution."""

    spec_hash: str
    spec: Dict[str, object]
    workload: str
    setup: str
    master_seed: int
    execution_times: List[int]
    miss_summary: Dict[str, float] = field(default_factory=dict)

    def campaign(self) -> CampaignResult:
        """Rebuild the campaign result (without per-run detail)."""
        return CampaignResult(
            workload=self.workload,
            setup=self.setup,
            execution_times=list(self.execution_times),
            master_seed=self.master_seed,
        )


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


class ResultStore:
    """A directory of ``<spec_hash>.rcol`` scenario results."""

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        # Campaigns executed against this store cache their placement maps
        # beside the results, so resumed shards and overlapping sweeps reuse
        # maps another process already built (REPRO_MAP_CACHE_DIR wins).
        adopt_map_directory(self.map_root)

    # ----------------------------------------------------------- locations

    def path_for(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}{columnar.COLUMNAR_SUFFIX}"

    def legacy_path_for(self, spec_hash: str) -> Path:
        """Where a JSON-era campaign entry would live (the legacy tier)."""
        return self.root / f"{spec_hash}.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def study_log_path(self) -> Path:
        return self.root / STUDY_LOG_NAME

    @property
    def runtable_root(self) -> Path:
        """Directory of run-table artifacts (:mod:`repro.study.runtable`):
        the incremental row cache and any exported tables."""
        return self.root / "runtable"

    def __contains__(self, spec_hash: str) -> bool:
        return self.load(spec_hash) is not None

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------ manifest

    def _scan_manifest(self) -> Dict[str, Set[str]]:
        """Rebuild the manifest content from the directories themselves."""
        entries: Dict[str, Set[str]] = {kind: set() for kind in _MANIFEST_KINDS}
        if self.root.is_dir():
            for pattern in (f"*{columnar.COLUMNAR_SUFFIX}", "*.json"):
                for path in self.root.glob(pattern):
                    entries["results"].add(path.stem)
        if self.analysis_root.is_dir():
            for path in self.analysis_root.glob("*.json"):
                if "." in path.stem:
                    entries["analysis"].add(path.stem)
        if self.shard_root.is_dir():
            for pattern in (f"*{columnar.COLUMNAR_SUFFIX}", "*.json"):
                for path in self.shard_root.glob(pattern):
                    if "." in path.stem:
                        entries["shards"].add(path.stem)
        return entries

    def _write_manifest(self, entries: Dict[str, Set[str]]) -> None:
        lines = [
            f"+ {kind} {name}"
            for kind in _MANIFEST_KINDS
            for name in sorted(entries[kind])
        ]
        temporary = self.root / f"{MANIFEST_NAME}.tmp"
        temporary.write_text("\n".join(lines) + ("\n" if lines else ""))
        os.replace(temporary, self.manifest_path)

    def _ensure_manifest(self) -> bool:
        """Materialize the manifest from a directory scan when absent.

        This is how JSON-era stores (which predate the manifest) migrate
        in: the first listing scans once, writes the index, and every
        later listing is a single-file read.  Returns whether a manifest
        exists afterwards.
        """
        if self.manifest_path.exists():
            return True
        if not self.root.is_dir():
            return False
        try:
            self._write_manifest(self._scan_manifest())
        except OSError:
            return False
        return True

    def _manifest_read(self) -> Dict[str, Set[str]]:
        entries: Dict[str, Set[str]] = {kind: set() for kind in _MANIFEST_KINDS}
        if not self._ensure_manifest():
            return entries
        try:
            text = self.manifest_path.read_text()
        except OSError:
            return entries
        for line in text.splitlines():
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("+", "-") or parts[1] not in entries:
                continue  # torn or foreign line: the manifest is only an index
            operation, kind, name = parts
            if operation == "+":
                entries[kind].add(name)
            else:
                entries[kind].discard(name)
        return entries

    def _manifest_append(self, operation: str, kind: str, name: str) -> None:
        """Record one add/remove (append-only; single short O_APPEND write).

        Failures are swallowed: the manifest is an index over the entry
        files, never the source of truth, so a lost append degrades a
        listing, not the data — and ``clear`` rebuilds from a scan.

        Every save appends its ``+``, even for a key saved before: another
        store instance may have removed the entry since, and the manifest
        is last-op-wins, so a skipped ``+`` would leave the re-saved file
        unlisted.  Only cold saves reach here; warm paths save nothing.
        """
        if not self._ensure_manifest():
            return
        try:
            with open(self.manifest_path, "a") as handle:
                handle.write(f"{operation} {kind} {name}\n")
        except OSError:
            return

    # ------------------------------------------------------------ campaigns

    def keys(self) -> List[str]:
        """Spec hashes currently stored (sorted; manifest-backed)."""
        return sorted(self._manifest_read()["results"])

    def load(self, spec_hash: str) -> Optional[StoredResult]:
        """The stored result for ``spec_hash``, or ``None`` (never raises).

        Columnar entries are preferred; a JSON-era entry is read through
        the legacy tier and upgraded in place on this first touch.
        """
        try:
            meta, columns = columnar.unpack_entry(self.path_for(spec_hash).read_bytes())
        except (OSError, ValueError):
            return self._load_legacy(spec_hash)
        result = self._result_from_entry(spec_hash, meta, columns)
        if result is None:
            return self._load_legacy(spec_hash)
        return result

    def load_columns(
        self, spec_hash: str
    ) -> Optional[Tuple[Dict[str, object], Dict[str, np.ndarray]]]:
        """``(meta, columns)`` of one entry, columns as numpy arrays.

        The array-native sibling of :meth:`load`: the columnar file is
        memory-mapped and its blocks come back as zero-copy views — no
        per-element parsing and no Python-int materialization, which is
        what bulk readers (the run-table engine, reassembly, MBPTA fits)
        want since they hand the data straight to numpy anyway.  Legacy
        JSON entries go through the usual upgrade-on-touch tier and are
        converted once.  Returns ``None`` on any miss, like :meth:`load`.
        """
        try:
            meta, columns = columnar.read_columns(self.path_for(spec_hash))
        except (OSError, ValueError):
            meta, columns = {}, {}
        if meta.get("version") == SPEC_VERSION:
            times = columns.get("execution_times")
            if times is not None and times.size:
                return meta, columns
        result = self._load_legacy(spec_hash)
        if result is None:
            return None
        return (
            {
                "version": SPEC_VERSION,
                "spec": result.spec,
                "workload": result.workload,
                "setup": result.setup,
                "master_seed": result.master_seed,
                "miss_summary": dict(result.miss_summary),
            },
            {"execution_times": np.asarray(result.execution_times, dtype=np.int64)},
        )

    def _result_from_entry(
        self,
        spec_hash: str,
        meta: Dict[str, object],
        columns: Dict[str, List[int]],
    ) -> Optional[StoredResult]:
        try:
            if meta["version"] != SPEC_VERSION:
                return None
            result = StoredResult(
                spec_hash=spec_hash,
                spec=meta["spec"],  # type: ignore[arg-type]
                workload=str(meta["workload"]),
                setup=str(meta["setup"]),
                master_seed=int(meta["master_seed"]),  # type: ignore[arg-type]
                # unpack_entry already yields plain Python ints (bit-exact
                # with the JSON era); no per-element coercion needed here.
                execution_times=columns.get("execution_times", []),
                miss_summary={
                    str(key): float(value)  # type: ignore[arg-type]
                    for key, value in meta.get("miss_summary", {}).items()  # type: ignore[union-attr]
                },
            )
        except (ValueError, KeyError, TypeError):
            return None
        if not result.execution_times:
            return None
        return result

    def _load_legacy(self, spec_hash: str) -> Optional[StoredResult]:
        """Read a JSON-era entry; valid ones are upgraded to columnar."""
        try:
            payload = json.loads(self.legacy_path_for(spec_hash).read_text())
            if payload["version"] != SPEC_VERSION:
                return None
            result = StoredResult(
                spec_hash=spec_hash,
                spec=payload["spec"],
                workload=str(payload["workload"]),
                setup=str(payload["setup"]),
                master_seed=int(payload["master_seed"]),
                execution_times=[int(value) for value in payload["execution_times"]],
                miss_summary={
                    str(key): float(value)
                    for key, value in payload.get("miss_summary", {}).items()
                },
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if not result.execution_times:
            return None
        self._upgrade_entry(result)
        return result

    def _upgrade_entry(self, result: StoredResult) -> None:
        """Rewrite one legacy entry in the columnar format (best effort:
        a read-only store stays readable, just unmigrated)."""
        try:
            self._write_entry(
                result.spec_hash,
                {
                    "version": SPEC_VERSION,
                    "spec": result.spec,
                    "workload": result.workload,
                    "setup": result.setup,
                    "master_seed": result.master_seed,
                    "miss_summary": dict(result.miss_summary),
                },
                {"execution_times": list(result.execution_times)},
            )
            self.legacy_path_for(result.spec_hash).unlink(missing_ok=True)
        except OSError:
            pass

    def _write_entry(
        self,
        spec_hash: str,
        meta: Dict[str, object],
        columns: Dict[str, List[int]],
    ) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec_hash)
        temporary = path.with_suffix(f"{columnar.COLUMNAR_SUFFIX}.tmp")
        temporary.write_bytes(columnar.pack_entry(meta, columns))
        os.replace(temporary, path)
        self._manifest_append("+", "results", spec_hash)
        return path

    def save(
        self,
        scenario: Scenario,
        campaign: CampaignResult,
        miss_summary: Optional[Dict[str, float]] = None,
    ) -> Path:
        """Persist one executed scenario atomically; returns the entry path."""
        spec_hash = scenario.spec_hash()
        path = self._write_entry(
            spec_hash,
            {
                "version": SPEC_VERSION,
                "spec": scenario.spec_dict(),
                "workload": campaign.workload,
                "setup": campaign.setup,
                "master_seed": campaign.master_seed,
                "miss_summary": dict(miss_summary or {}),
            },
            {"execution_times": campaign.execution_times},
        )
        with contextlib.suppress(OSError):
            # A save supersedes the legacy entry; dropping it completes the
            # migration of this key.
            self.legacy_path_for(spec_hash).unlink(missing_ok=True)
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
        temporary = path.with_suffix(".json.tmp")
        temporary.write_text(json.dumps(payload, sort_keys=True))
        os.replace(temporary, path)
        self._manifest_append("+", "analysis", f"{spec_hash}.{analysis_hash}")
        return path

    def analysis_keys(self) -> List[Tuple[str, str]]:
        """(spec_hash, analysis_hash) pairs currently stored (sorted)."""
        pairs = []
        for name in self._manifest_read()["analysis"]:
            spec_hash, _, analysis_hash = name.partition(".")
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

    @property
    def map_root(self) -> Path:
        """Directory of memoized placement maps (:mod:`repro.engine.mapcache`),
        content-addressed and bit-packed.  A subdirectory, so campaign entries
        and :meth:`keys` are unaffected."""
        return self.root / "maps"

    def shard_path_for(self, spec_hash: str, key: str) -> Path:
        return self.shard_root / f"{spec_hash}.{key}{columnar.COLUMNAR_SUFFIX}"

    def legacy_shard_path_for(self, spec_hash: str, key: str) -> Path:
        """Where a JSON-era shard entry would live (the legacy tier)."""
        return self.shard_root / f"{spec_hash}.{key}.json"

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
        temporary = path.with_suffix(f"{columnar.COLUMNAR_SUFFIX}.tmp")
        temporary.write_bytes(columnar.pack_entry(meta, columns))
        os.replace(temporary, path)
        with contextlib.suppress(OSError):
            self.legacy_shard_path_for(spec_hash, key).unlink(missing_ok=True)
        self._manifest_append("+", "shards", f"{spec_hash}.{key}")
        return path

    def load_shard(self, spec_hash: str, key: str) -> Optional[Dict[str, object]]:
        """The published shard payload for the key pair, or ``None``.

        Unreadable, truncated or version-mismatched entries are misses,
        never errors — the shard simply gets re-executed.  JSON-era shard
        entries load through the legacy tier and are upgraded on touch.
        """
        try:
            meta, columns = columnar.unpack_entry(
                self.shard_path_for(spec_hash, key).read_bytes()
            )
            payload: Optional[Dict[str, object]] = {**meta, **columns}
        except (OSError, ValueError):
            payload = self._load_legacy_shard(spec_hash, key)
        if not isinstance(payload, dict) or payload.get("version") != SPEC_VERSION:
            return None
        return payload

    def _load_legacy_shard(self, spec_hash: str, key: str) -> Optional[Dict[str, object]]:
        try:
            payload = json.loads(self.legacy_shard_path_for(spec_hash, key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") == SPEC_VERSION:
            # Upgrade on first touch (save_shard drops the JSON file).
            with contextlib.suppress(OSError, ValueError, TypeError):
                self.save_shard(spec_hash, key, payload)
        return payload

    def shard_keys(self, spec_hash: Optional[str] = None) -> List[Tuple[str, str]]:
        """(spec_hash, shard_key) pairs currently published (sorted;
        manifest-backed, so pollers read one file instead of globbing)."""
        pairs = []
        for name in self._manifest_read()["shards"]:
            entry_hash, _, key = name.partition(".")
            if key and (spec_hash is None or entry_hash == spec_hash):
                pairs.append((entry_hash, key))
        return sorted(pairs)

    def clear_shards(self, spec_hash: Optional[str] = None) -> int:
        """Delete published shard entries (all, or one spec hash's); returns
        how many were removed."""
        removed = 0
        if not self.shard_root.is_dir():
            return removed
        prefix = f"{spec_hash}.*" if spec_hash else "*"
        for pattern in (f"{prefix}{columnar.COLUMNAR_SUFFIX}", f"{prefix}.json"):
            for path in self.shard_root.glob(pattern):
                path.unlink()
                removed += 1
                self._manifest_append("-", "shards", path.stem)
        for path in self.shard_root.glob("*.tmp"):
            with contextlib.suppress(OSError):
                path.unlink()
        return removed

    # ---------------------------------------------------- study provenance

    def record_study(self, study: str, spec_hashes: Iterable[str]) -> None:
        """Append (study name, spec hash) provenance pairs (idempotent).

        ``studies.log`` is the append-only record the run table uses to
        label rows with the study they belong to; pairs already present
        are not rewritten, so repeated warm runs leave the log untouched.
        """
        wanted = {(study, spec_hash) for spec_hash in spec_hashes}
        if not wanted:
            return
        existing: Set[Tuple[str, str]] = set()
        try:
            for line in self.study_log_path.read_text().splitlines():
                name, _, spec_hash = line.rpartition(" ")
                if name and spec_hash:
                    existing.add((name, spec_hash))
        except OSError:
            pass
        fresh = sorted(wanted - existing)
        if not fresh:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.study_log_path, "a") as handle:
                for name, spec_hash in fresh:
                    handle.write(f"{name} {spec_hash}\n")
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

    def _entry_paths(self, kind: str, name: str) -> Tuple[Path, ...]:
        """Where a manifest entry's file(s) may live (columnar + legacy)."""
        if kind == "analysis":
            return (self.analysis_root / f"{name}.json",)
        if kind == "shards":
            return (
                self.shard_root / f"{name}{columnar.COLUMNAR_SUFFIX}",
                self.shard_root / f"{name}.json",
            )
        return (self.path_for(name), self.legacy_path_for(name))

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
        GC *would* do is testable without side effects.  Derived entries
        are enumerated through the manifest; queue leftovers, run-table
        artifacts and ``*.tmp`` stragglers are picked up from their
        (small) directories.
        """
        cutoff = (time.time() if now is None else now) - max(0.0, older_than)
        candidates: List[Path] = []

        def consider(path: Path) -> None:
            try:
                if path.stat().st_mtime <= cutoff:
                    candidates.append(path)
            except OSError:
                pass  # concurrently removed — fine

        manifest = self._manifest_read()
        kinds = ("analysis",) if analyses_only else ("analysis", "shards")
        for kind in kinds:
            for name in manifest[kind]:
                for path in self._entry_paths(kind, name):
                    consider(path)
        straggler_roots = [self.analysis_root]
        if not analyses_only:
            straggler_roots.append(self.shard_root)
            # Interrupted campaign-entry writers leave ``<hash>.rcol.tmp``
            # beside the results; the glob is tmp-only, entries are safe.
            straggler_roots.append(self.root)
        for root in straggler_roots:
            if root.is_dir():
                for path in root.glob("*.tmp"):
                    consider(path)
        if not analyses_only:
            walk_roots = [self.queue_root / name for name in ("tasks", "leases", "workers")]
            walk_roots.append(self.runtable_root)
            for root in walk_roots:
                if not root.is_dir():
                    continue
                for path in root.iterdir():
                    if path.is_file():
                        consider(path)
        return sorted(set(candidates))

    def sweep(self, older_than: float, analyses_only: bool = False) -> int:
        """Garbage-collect derived entries older than ``older_than`` seconds.

        Analyses are always eligible (they are pure caches, rebuilt from the
        campaign entry on the next run).  Unless ``analyses_only``, published
        shard entries, run-table artifacts and leftover queue files (tasks,
        leases, worker heartbeats abandoned by a killed campaign) are swept
        too.  Campaign entries themselves are never touched — they are the
        results.  Returns how many files were removed.
        """
        removed = 0
        for path in self.sweep_candidates(older_than, analyses_only=analyses_only):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue  # concurrently removed — fine
            self._discard_swept(path)
        return removed

    def _discard_swept(self, path: Path) -> None:
        """Mirror a swept entry file into the manifest as a removal."""
        if path.suffix not in (columnar.COLUMNAR_SUFFIX, ".json"):
            return
        if path.parent == self.analysis_root:
            self._manifest_append("-", "analysis", path.stem)
        elif path.parent == self.shard_root:
            self._manifest_append("-", "shards", path.stem)

    def clear_candidates(self) -> Tuple[List[Path], List[Path]]:
        """What :meth:`clear` would delete: ``(entries, bookkeeping)``.

        ``entries`` are the counted store entries (campaign results —
        columnar and legacy — analyses, shard entries); ``bookkeeping`` are
        temp files, the manifest and study logs, run-table artifacts,
        cached placement maps and queue files, removed but not counted.
        Both sorted; nothing is deleted.  Directory scans (not the
        manifest) decide here, so a clean collects orphans the index lost
        track of.
        """
        entries: List[Path] = []
        bookkeeping: List[Path] = []
        if not self.root.is_dir():
            return entries, bookkeeping
        for directory, patterns in (
            (self.root, (f"*{columnar.COLUMNAR_SUFFIX}", "*.json")),
            (self.analysis_root, ("*.json",)),
            (self.shard_root, (f"*{columnar.COLUMNAR_SUFFIX}", "*.json")),
        ):
            if not directory.is_dir():
                continue
            for pattern in patterns:
                entries.extend(directory.glob(pattern))
            bookkeeping.extend(directory.glob("*.tmp"))
        for extra in (self.manifest_path, self.study_log_path):
            if extra.exists():
                bookkeeping.append(extra)
        for directory in (self.runtable_root, self.map_root):
            if directory.is_dir():
                bookkeeping.extend(
                    path for path in directory.iterdir() if path.is_file()
                )
        if self.queue_root.is_dir():
            for name in ("tasks", "leases", "workers"):
                subdir = self.queue_root / name
                if subdir.is_dir():
                    bookkeeping.extend(
                        path for path in subdir.iterdir() if path.is_file()
                    )
        return sorted(set(entries)), sorted(set(bookkeeping))

    def clear(self) -> int:
        """Delete every stored result, analysis, shard entry, manifest,
        run-table artifact, cached map and queue file; returns how many
        entries were removed (each store entry counts as one; bookkeeping
        files are removed but not counted)."""
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

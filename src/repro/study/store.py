"""Content-hash-keyed on-disk store for executed campaigns.

A campaign is stored as its **published lane ranges**: each executed range
of lanes is one file ``shards/<spec_hash>.<start>x<count>.rcol`` (under
``results/store/`` by default) holding the lanes' execution times, their
per-run miss counters (seed campaigns only), and a header with the
canonical spec and the planning scenario's display label.  A campaign of
N runs is stored when its ranges cover lanes [0, N): it reads as their
cycles in lane order, and its miss summary is
:func:`~repro.analysis.campaign.summarize_misses` over their counter
columns, bit-exact for any partition of the lanes.  The file name holds
the hash of everything that determines the simulation, so there is no
invalidation logic to get wrong.  A drain publishes ranges as they finish
(:mod:`repro.exec`): a killed run's ranges are results, and two drains of
one spec share them.

Ranges use the **binary columnar format** of :mod:`repro.study.columnar`:
typed little-endian columns (narrowest sufficient dtype, checksummed
header) instead of JSON text.  Files of older layouts are not read: a
JSON-era ``<hash>.json`` or a top-level ``<hash>.rcol`` campaign entry is
a miss, and its campaign re-simulates bit-exactly (the store is a cache).

pWCET analyses are persisted alongside, under
``analysis/<spec_hash>.<analysis_config_hash>.json``: the second key is
:meth:`repro.pwcet.MbptaConfig.analysis_hash`, the hash of every
analysis-determining knob (estimator, block size, significance, cutoffs,
bootstrap count).  Analyses stay JSON — they are small irregular dicts,
and keeping them textual keeps warm analysis payloads byte-identical to
the JSON era.  A warm ``study run`` therefore resolves both the campaign
*and* its EVT analysis from disk and performs zero fits.

Key listings (:meth:`ResultStore.keys`, :meth:`analysis_keys`,
:meth:`shard_keys`, :meth:`study_index`) and the GC candidate lists scan
directories, so they always agree with the files: a killed publish leaves
either a listed range or an unlisted ``*.tmp`` straggler.  Study
provenance is one empty marker file per (study, spec hash) pair,
``studies/<study>/<spec_hash>``; there is no index file.

The store is deliberately forgiving: unreadable, truncated or
version-mismatched files are treated as cache misses, never as errors.
Every file the store writes goes through :func:`_replace_atomically` (a
temporary file, then :func:`os.replace`), apart from the study markers'
exclusive creates, so a killed run cannot leave a half-written file
behind.  That also makes every publish a new inode, which is what lets a
process decode each range and analysis once (:class:`ReadMemo`): a
memoized decode is served only while the file's inode, size and
``mtime_ns`` are the ones it was read with.  The guarantee covers killed
processes and a full disk, not power loss: nothing calls ``fsync``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..analysis.campaign import MISS_COUNTERS, CampaignResult, summarize_misses
from ..exec.plan import plan_shards
from . import columnar
from .scenario import SPEC_VERSION

__all__ = [
    "DEFAULT_STORE_DIR",
    "READ_MEMO",
    "ReadMemo",
    "ResultStore",
    "check_gc_age",
    "check_study_name",
]

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = os.path.join("results", "store")


def check_study_name(name: str) -> str:
    """``name`` if it can name the study's marker directory ``studies/<name>``
    (not empty, ``.`` or ``..``, no ``/`` or NUL), else ``ValueError``."""
    if name in ("", ".", "..") or "/" in name or "\0" in name:
        raise ValueError(f"study name must be one directory name, got {name!r}")
    return name


def check_gc_age(seconds: float) -> float:
    """``seconds`` if it is a usable GC age, else ``ValueError``.

    An age must be finite and >= 0: a negative or NaN age would make every
    file old enough to sweep, a running publish's temporary files
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

    The one writer of store files: lane ranges and analyses.  Two writers
    of one file — drains in two processes that both executed a range, or
    two jobs persisting the same analysis — write identical bytes; unique
    temporary names keep either one's replace from tripping over the
    other's.  Creates the directory; a failed write (a full disk) removes
    its temporary file and leaves ``path`` as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f"{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        temporary.write_bytes(data)
    except OSError:
        with contextlib.suppress(OSError):
            temporary.unlink()
        raise
    os.replace(temporary, path)


def _names(directory: Path) -> List[str]:
    """The names in ``directory``; none if it is absent or not a directory."""
    try:
        return os.listdir(directory)
    except OSError:
        return []


def _files(directory: Path, suffix: str = "", prefix: str = "") -> List[Path]:
    """The entries of ``directory`` named ``<prefix>*<suffix>``; none if it
    is absent.  One ``os.listdir`` and two string tests per name, where a
    ``Path.glob`` compiles a matcher for each distinct pattern (one per
    spec hash for a campaign's shards)."""
    return [
        directory / name
        for name in _names(directory)
        if name.startswith(prefix) and name.endswith(suffix)
    ]


def _unlink(paths: Iterable[Path]) -> int:
    """Remove ``paths``; returns how many were removed (one removed
    concurrently, or otherwise unremovable, is skipped)."""
    removed = 0
    for path in paths:
        with contextlib.suppress(OSError):
            path.unlink()
            removed += 1
    return removed


#: How many decoded store files :data:`READ_MEMO` keeps: above the lane
#: ranges plus analyses that ``query runs`` reads on a store of every
#: study, so a repeated scan hits.
READ_MEMO_SIZE = 1024


def _file_version(stat: os.stat_result) -> Tuple[int, int, int]:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


#: A memo entry's ``parsed`` before its first :meth:`ReadMemo.parsed`.
_UNPARSED = object()


class _Held:
    """One memoized file version: its decode and, once asked for, its parse."""

    __slots__ = ("version", "value", "parsed")

    def __init__(self, version: Tuple[int, int, int], value: object) -> None:
        self.version = version
        self.value = value
        self.parsed: object = _UNPARSED


class ReadMemo:
    """Decoded store files by path, each valid while its file is unchanged.

    A hit needs one :func:`os.stat`: the memo keeps each file's inode, size
    and ``mtime_ns`` as read (``fstat`` of the handle it decoded), and
    serves the decoded value only while the path still shows all three.
    Every store write is an atomic replace, which gives the path a new
    inode, and a deleted file fails the stat, so a hit is always the
    file's current content.  An entry can also carry a parse of its
    decode (:meth:`parsed`), which lives and leaves with it.  Callers
    hand out fresh copies or read-only views of what :meth:`read` returns.
    Thread-safe; the least recently read files leave first beyond
    ``capacity``.
    """

    def __init__(self, capacity: int = READ_MEMO_SIZE) -> None:
        self.capacity = capacity
        self._values: "OrderedDict[str, _Held]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def _held(self, path: str, decode: Callable[[bytes], object]) -> _Held:
        """The current entry of ``path``, decoding the file on a miss."""
        try:
            version = _file_version(os.stat(path))
        except OSError:
            with self._lock:
                self._values.pop(path, None)
            raise
        with self._lock:
            held = self._values.get(path)
            if held is not None and held.version == version:
                self._values.move_to_end(path)
                return held
        with open(path, "rb") as handle:
            version = _file_version(os.fstat(handle.fileno()))
            held = _Held(version, decode(handle.read()))
        with self._lock:
            self._values[path] = held
            self._values.move_to_end(path)
            while len(self._values) > self.capacity:
                self._values.popitem(last=False)
        return held

    def read(self, path: str, decode: Callable[[bytes], object]) -> object:
        """``decode`` of the bytes of ``path``, decoded once per file version.

        Raises :class:`OSError` for an unreadable file and whatever
        ``decode`` raises; neither is memoized.
        """
        return self._held(path, decode).value

    def parsed(
        self,
        path: str,
        decode: Callable[[bytes], object],
        parse: Callable[[object], object],
    ) -> object:
        """``parse`` of :meth:`read`'s value, parsed once per file version.

        The parse is kept on the file's entry, so it shares the entry's
        bound and validity.  Every caller of one path must pass the same
        ``parse``, and treat its result as read-only: it is shared.
        """
        held = self._held(path, decode)
        if held.parsed is _UNPARSED:
            # Two threads may both parse; either result is the same.
            held.parsed = parse(held.value)
        return held.parsed


#: The process's one memo of decoded lane ranges and analyses.
READ_MEMO = ReadMemo()

#: A range's header meta, its columns (read-only views) and its miss summary.
_Range = Tuple[Dict[str, object], Dict[str, np.ndarray], Dict[str, float]]

#: The counter column of a range that publishes none (a layout range).
_NO_COUNTS = np.zeros(0, dtype=np.uint8)


def _decode_entry(blob: bytes) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """A lane range file as ``(meta, columns)``, columns read-only views."""
    return columnar.unpack_columns(blob)


def _parse_range(entry: Tuple[Dict[str, object], Dict[str, np.ndarray]]) -> _Range:
    """A decoded range as ``(meta, columns, summary)``, kept on its memo entry.

    ``summary`` is :func:`summarize_misses` of the range's own counters,
    so it is the campaign's when the range holds all its lanes.  Raises
    :class:`ValueError` unless the header is one this version publishes:
    the canonical spec, the workload and label, and a ``cycles`` column of
    ``count`` lanes.
    """
    meta, columns = entry
    spec = meta.get("spec")
    cycles = columns.get("cycles")
    if not (
        meta.get("version") == SPEC_VERSION
        and isinstance(spec, dict)
        and type(spec.get("runs")) is int
        and spec["runs"] >= 1
        and type(spec.get("seed")) is int
        and isinstance(meta.get("workload"), str)
        and isinstance(meta.get("setup"), str)
        and type(meta.get("start")) is int
        and cycles is not None
        and cycles.size
        and cycles.size == meta.get("count")
    ):
        raise ValueError("not a lane range of this version")
    return meta, columns, summarize_misses(columns, cycles.size)


def _decode_analysis(blob: bytes) -> Dict[str, object]:
    payload = json.loads(blob)
    if not isinstance(payload, dict):
        raise ValueError("analysis payload is not an object")
    return payload


def _fresh(value: object) -> object:
    """A copy of decoded JSON data that shares no dict or list with it."""
    if type(value) is dict:
        return {key: _fresh(item) for key, item in value.items()}  # type: ignore[union-attr]
    if type(value) is list:
        return [_fresh(item) for item in value]  # type: ignore[union-attr]
    return value


class ResultStore:
    """A directory of published lane ranges and pWCET analyses."""

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        # Warm reads open these prefixes plus a key: a small entry's read
        # took 19.5 us through a Path and 12.5 us through a string.
        self._shard_prefix = os.path.join(self.shard_root, "")
        self._analysis_prefix = os.path.join(self.analysis_root, "")

    # ----------------------------------------------------------- locations

    def _shard_file(self, spec_hash: str, key: str) -> str:
        return f"{self._shard_prefix}{spec_hash}.{key}{columnar.COLUMNAR_SUFFIX}"

    def _analysis_file(self, spec_hash: str, analysis_hash: str) -> str:
        return f"{self._analysis_prefix}{spec_hash}.{analysis_hash}.json"

    @property
    def study_root(self) -> Path:
        """Directory of study provenance markers, ``<study>/<spec_hash>``."""
        return self.root / "studies"

    def __contains__(self, spec_hash: str) -> bool:
        return self.load(spec_hash) is not None

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------ campaigns

    def keys(self) -> List[str]:
        """Spec hashes whose published ranges hold a whole campaign (sorted)."""
        return sorted(
            spec_hash
            for spec_hash, keys in self.published().items()
            if self._campaign(spec_hash, keys) is not None
        )

    def _campaign(
        self, spec_hash: str, keys: Iterable[str]
    ) -> Optional[Tuple[Dict[str, object], np.ndarray, Dict[str, float]]]:
        """``(meta, times, summary)`` of the campaign the range ``keys`` of
        ``spec_hash`` hold, or ``None``.

        The ranges that read are planned as one campaign of their spec's
        runs (:func:`~repro.exec.plan.plan_shards` keeps published ranges
        in lane order), and the campaign is stored when the plan is all
        theirs.  ``meta`` is the header of the range at lane 0.  Shared
        memo data, so only package readers that copy scalars out of it
        (the run table) may use it.
        """
        ranges: Dict[str, _Range] = {}
        for key in keys:
            parsed = self._range(spec_hash, key)
            if parsed is not None:
                ranges[key] = parsed
        if not ranges:
            return None
        parts = list(ranges.values())
        meta = parts[0][0]
        runs = meta["spec"]["runs"]  # type: ignore[index]
        if not (len(parts) == 1 and meta["start"] == 0 and meta["count"] == runs):
            plan = plan_shards(spec_hash, runs, runs, ranges)  # type: ignore[arg-type]
            if not all(shard.key in ranges for shard in plan):
                return None
            parts = [ranges[shard.key] for shard in plan]
        if len(parts) == 1:
            meta, columns, summary = parts[0]
            return meta, columns["cycles"], summary
        columns = {
            name: np.concatenate([part[1].get(name, _NO_COUNTS) for part in parts])
            for name in ("cycles",) + MISS_COUNTERS
        }
        return parts[0][0], columns["cycles"], summarize_misses(columns, runs)  # type: ignore[arg-type]

    def load(
        self, spec_hash: str, keys: Optional[Iterable[str]] = None
    ) -> Optional[CampaignResult]:
        """The stored campaign for ``spec_hash``, or ``None`` (never raises).

        ``keys`` are the spec's published range keys (default: listed
        now).  A campaign whose ranges leave a lane uncovered, or whose
        covering ranges include one that is corrupt, truncated, of another
        version or of the wrong length, is a miss.  Each range is decoded
        once per process and version (:data:`READ_MEMO`); each call builds
        a fresh result.
        """
        if keys is None:
            keys = [key for _, key in self.shard_keys(spec_hash)]
        stored = self._campaign(spec_hash, keys)
        if stored is None:
            return None
        meta, times, summary = stored
        return CampaignResult(
            workload=meta["workload"],  # type: ignore[arg-type]
            setup=meta["setup"],  # type: ignore[arg-type]
            execution_times=times.tolist(),
            master_seed=meta["spec"]["seed"],  # type: ignore[index]
            miss_summary=dict(summary),
        )

    # ------------------------------------------------------- pWCET analyses

    @property
    def analysis_root(self) -> Path:
        """Directory of persisted pWCET analyses."""
        return self.root / "analysis"

    def analysis_path_for(self, spec_hash: str, analysis_hash: str) -> Path:
        return Path(self._analysis_file(spec_hash, analysis_hash))

    def _analysis(
        self, spec_hash: str, analysis_hash: str
    ) -> Optional[Dict[str, object]]:
        """The memoized decode of one analysis file, or ``None``; shared,
        so only package readers that copy scalars out of it may use it."""
        try:
            return READ_MEMO.read(  # type: ignore[return-value]
                self._analysis_file(spec_hash, analysis_hash), _decode_analysis
            )
        except (OSError, ValueError):
            return None

    def load_analysis(
        self, spec_hash: str, analysis_hash: str
    ) -> Optional[Dict[str, object]]:
        """The persisted analysis payload for the key pair, or ``None``.

        The payload is returned as plain data, a fresh copy of the file's
        memoized decode (:data:`READ_MEMO`); interpretation (and version
        checking) belongs to :func:`repro.pwcet.analysis_from_payload`.
        Unreadable entries are misses, never errors.
        """
        payload = self._analysis(spec_hash, analysis_hash)
        return None if payload is None else _fresh(payload)  # type: ignore[return-value]

    def parsed_analysis(
        self,
        spec_hash: str,
        analysis_hash: str,
        parse: Callable[[Dict[str, object]], object],
    ) -> object:
        """``parse`` of the persisted payload, or ``None`` on a miss.

        Parsed once per file version and kept on the file's
        :data:`READ_MEMO` entry (:meth:`ReadMemo.parsed`), so the result is
        shared: the result set passes its one parse, a sample-less
        :class:`~repro.pwcet.MbptaResult` it copies per campaign.
        """
        try:
            return READ_MEMO.parsed(
                self._analysis_file(spec_hash, analysis_hash),
                _decode_analysis,
                parse,  # type: ignore[arg-type]
            )
        except (OSError, ValueError):
            return None

    def save_analysis(
        self, spec_hash: str, analysis_hash: str, payload: Dict[str, object]
    ) -> Path:
        """Persist one analysis payload atomically; returns the entry path."""
        path = self.analysis_path_for(spec_hash, analysis_hash)
        _replace_atomically(path, json.dumps(payload, sort_keys=True).encode())
        return path

    def clear_analyses(self, spec_hash: str) -> int:
        """Delete one spec hash's stored analyses, under every config (a
        forced refresh); returns how many were removed."""
        return _unlink(_files(self.analysis_root, ".json", prefix=f"{spec_hash}."))

    def analysis_keys(self) -> List[Tuple[str, str]]:
        """(spec_hash, analysis_hash) pairs currently stored (sorted)."""
        pairs = []
        for path in _files(self.analysis_root, ".json"):
            spec_hash, _, analysis_hash = path.stem.partition(".")
            if analysis_hash:
                pairs.append((spec_hash, analysis_hash))
        return sorted(pairs)

    # --------------------------------------------------------- lane ranges

    @property
    def shard_root(self) -> Path:
        """Directory of published lane ranges (:mod:`repro.exec` shards),
        keyed ``<spec_hash>.<shard_key>.rcol``."""
        return self.root / "shards"

    def shard_path_for(self, spec_hash: str, key: str) -> Path:
        return Path(self._shard_file(spec_hash, key))

    def save_shard(self, spec_hash: str, key: str, payload: Dict[str, object]) -> Path:
        """Publish one executed lane range atomically; returns its path.

        The per-run counter lists become typed columns; everything else
        (version, spec, label, slice bookkeeping, workload, engine) is
        header metadata.  Publication is idempotent — two drains that both
        executed the range write the same deterministic payload, and
        :func:`os.replace` makes the last write win without torn files.
        """
        meta: Dict[str, object] = {}
        columns: Dict[str, object] = {}
        for name, value in payload.items():
            column = _as_int_column(value)
            if column is not None:
                columns[name] = column
            else:
                meta[name] = value
        path = self.shard_path_for(spec_hash, key)
        _replace_atomically(path, columnar.pack_entry(meta, columns))
        return path

    def has_shard(self, spec_hash: str, key: str) -> bool:
        """Whether a range is published for the key pair: one stat, no
        decode.  A corrupt range counts; its reader finds it a miss."""
        return os.path.isfile(self._shard_file(spec_hash, key))

    def _range(self, spec_hash: str, key: str) -> Optional[_Range]:
        """The memoized parse of one published range, or ``None`` when it
        does not read as the range its name says (:func:`_parse_range`)."""
        try:
            parsed = READ_MEMO.parsed(
                self._shard_file(spec_hash, key), _decode_entry, _parse_range
            )
        except (OSError, ValueError):
            return None
        meta = parsed[0]  # type: ignore[index]
        if meta.get("spec_hash") != spec_hash or meta.get("key") != key:
            return None
        return parsed  # type: ignore[return-value]

    def load_shard(self, spec_hash: str, key: str) -> Optional[Dict[str, object]]:
        """One published range's header fields and columns (lists of Python
        ints), a fresh copy; ``None`` if it does not read (:meth:`_range`)."""
        parsed = self._range(spec_hash, key)
        if parsed is None:
            return None
        meta, columns, _ = parsed
        return {
            **_fresh(meta),  # type: ignore[dict-item]
            **{name: column.tolist() for name, column in columns.items()},
        }

    def shard_keys(self, spec_hash: Optional[str] = None) -> List[Tuple[str, str]]:
        """(spec_hash, shard_key) pairs currently published (sorted)."""
        prefix = f"{spec_hash}." if spec_hash else ""
        suffix = columnar.COLUMNAR_SUFFIX
        pairs = []
        for name in _names(self.shard_root):
            if name.startswith(prefix) and name.endswith(suffix):
                entry_hash, _, key = name[: -len(suffix)].partition(".")
                if key:
                    pairs.append((entry_hash, key))
        return sorted(pairs)

    def published(self) -> Dict[str, List[str]]:
        """Published range keys by spec hash, from one listing of ``shards/``."""
        ranges: Dict[str, List[str]] = {}
        for spec_hash, key in self.shard_keys():
            ranges.setdefault(spec_hash, []).append(key)
        return ranges

    def clear_shards(self, spec_hash: Optional[str] = None) -> int:
        """Delete published ranges and leftover temporary files (all, or
        one spec hash's: a forced refresh); returns how many ranges were
        removed.  Another spec's in-flight temporary files are left to
        their writers."""
        removed = 0
        prefix = f"{spec_hash}." if spec_hash else ""
        for path in _files(self.shard_root, prefix=prefix):
            if path.name.endswith(columnar.COLUMNAR_SUFFIX):
                with contextlib.suppress(FileNotFoundError):
                    path.unlink()
                    removed += 1
            elif path.name.endswith(".tmp"):
                with contextlib.suppress(OSError):
                    path.unlink()
        return removed

    # ---------------------------------------------------- study provenance

    def record_study(self, study: str, spec_hashes: Iterable[str]) -> None:
        """Mark each spec hash as planned by ``study`` (idempotent).

        A mark is the empty file ``studies/<study>/<spec_hash>``, which the
        run table reads to label rows with their study.  The study's
        directory is listed once and only the missing marks are created,
        each with an exclusive create, so a warm run creates and changes
        no file.  ``study`` must pass :func:`check_study_name`.
        """
        directory = self.study_root / check_study_name(study)
        for spec_hash in sorted(set(spec_hashes).difference(_names(directory))):
            with contextlib.suppress(OSError):  # advisory: never fail a run over it
                directory.mkdir(parents=True, exist_ok=True)
                os.close(os.open(directory / spec_hash, os.O_CREAT | os.O_EXCL, 0o666))

    def study_index(self) -> Dict[str, List[str]]:
        """Spec hash -> sorted study names marked against it."""
        index: Dict[str, List[str]] = {}
        for study in sorted(_names(self.study_root)):
            for spec_hash in _names(self.study_root / study):
                index.setdefault(spec_hash, []).append(study)
        return index

    # ------------------------------------------------------------------ GC

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
        from directory scans: analyses and ``*.tmp`` stragglers.
        ``older_than`` must pass :func:`check_gc_age`.
        """
        cutoff = (time.time() if now is None else now) - check_gc_age(older_than)
        paths = _files(self.analysis_root, ".json") + _files(self.analysis_root, ".tmp")
        if not analyses_only:
            # Interrupted writers leave ``*.tmp`` beside the ranges (and an
            # older store's writers beside its top-level entries).
            paths += _files(self.shard_root, ".tmp")
            paths += _files(self.root, ".tmp")
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
        campaign's ranges on the next run).  Unless ``analyses_only``,
        temporary files left by killed writers are swept too.  Published
        ranges are never touched — they are the results — and neither are
        study markers, their provenance.  Returns how many files were
        removed.
        """
        return _unlink(self.sweep_candidates(older_than, analyses_only=analyses_only))

    def clear_candidates(self) -> Tuple[List[Path], List[Path]]:
        """What :meth:`clear` would delete: ``(entries, bookkeeping)``.

        ``entries`` are the counted store entries (published ranges and
        analyses); ``bookkeeping`` are temp files, study markers, and an
        older store's ``studies.log``, top-level campaign entries and
        ``queue/`` task, lease and heartbeat files, removed but not
        counted.  Both sorted; nothing is deleted.
        """
        entries: List[Path] = []
        bookkeeping: List[Path] = []
        if not self.root.is_dir():
            return entries, bookkeeping
        for directory, suffix in (
            (self.shard_root, columnar.COLUMNAR_SUFFIX),
            (self.analysis_root, ".json"),
        ):
            entries.extend(_files(directory, suffix))
            bookkeeping.extend(_files(directory, ".tmp"))
        bookkeeping.extend(_files(self.root, columnar.COLUMNAR_SUFFIX))
        bookkeeping.extend(_files(self.root, ".tmp"))
        for study in _files(self.study_root):
            bookkeeping.extend(_files(study))
        legacy_log = self.root / "studies.log"
        if legacy_log.exists():
            bookkeeping.append(legacy_log)
        for name in ("tasks", "leases", "workers"):
            bookkeeping.extend(_files(self.root / "queue" / name))
        return sorted(set(entries)), sorted(set(bookkeeping))

    def clear(self) -> int:
        """Delete every published range, analysis, study marker and older
        bookkeeping file; returns how many entries were removed (each range
        and analysis counts as one; bookkeeping files are removed but not
        counted)."""
        entries, bookkeeping = self.clear_candidates()
        removed = _unlink(entries)
        _unlink(bookkeeping)
        return removed

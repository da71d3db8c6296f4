"""A kill at any store write point leaves the store old or new.

Every file write of the result store and its work queue is one of four
primitives: ``os.replace`` (in ``_replace_atomically``, the one writer of
entries, analyses, shards, tasks and heartbeats, and in a stale-lease
reclaim), the lease's ``os.link``, a study marker's exclusive ``os.open``,
and ``os.unlink``.  Run as a script, this module is a driver that wraps
those OS calls from outside the package and SIGKILLs itself just before
or just after a chosen call, during a queued run of two small campaigns
of three shards each.  After each kill:

* every listing (``keys``, ``analysis_keys``, ``shard_keys``,
  ``study_index``, ``FileQueue.tasks``) names only files that load;
* a rerun exits 0;
* the final store is byte-identical to an uninterrupted run's, apart from
  ``queue/`` and ``*.tmp`` leftovers.

The driver imports the package once and forks one child per run, so a
kill costs a run, not an interpreter start.  Each (primitive, caller)
pair is killed at its first call; with ``REPRO_KILL_EVERY_CALL=1`` in the
environment the tests pass ``--every`` and it is killed at every call.
"""

from __future__ import annotations

import errno
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.exec import FileQueue
from repro.study import ResultStore

#: Environment switch (read here only): kill at every call, not each pair's first.
EVERY_CALL_ENV = "REPRO_KILL_EVERY_CALL"

STUDY = "write_points"
RUNS = 24
SHARD_SIZE = 8

#: Every (primitive, caller) pair of an uninterrupted run, in first-call order.
WRITE_POINTS: Tuple[Tuple[str, str], ...] = (
    ("replace", "enqueue"),
    ("replace", "_write"),
    ("link", "try_claim"),
    ("unlink", "try_claim"),
    ("replace", "save_shard"),
    ("unlink", "complete"),
    ("unlink", "release"),
    ("replace", "save"),
    ("unlink", "clear_shards"),
    ("create", "record_study"),
    ("replace", "save_analysis"),
)

#: The callers of ``_replace_atomically``, each failed once with ENOSPC.
ATOMIC_WRITERS = ("enqueue", "_write", "save_shard", "save", "save_analysis")


# ---------------------------------------------------------------------------
# The driver (runs in its own interpreter)
# ---------------------------------------------------------------------------


def _plan(settings):
    from repro.study import HierarchySpec, Scenario, WorkloadSpec

    workload = WorkloadSpec.synthetic(4 * 1024, iterations=2)
    return [
        Scenario(workload=workload, hierarchy=HierarchySpec.named(setup), runs=settings.runs)
        for setup in ("rm", "hrp")
    ]


def _build(context):
    return [context.results.mbpta(label) for label in context.results.labels()]


def _module(frame) -> str:
    return frame.f_globals.get("__name__", "")


def _caller(frame) -> Optional[str]:
    """The ``repro`` function behind a primitive call (through ``pathlib``
    and ``_replace_atomically``), or ``None`` for any other caller."""
    while frame is not None and _module(frame).startswith("pathlib"):
        frame = frame.f_back
    if frame is None or not _module(frame).startswith("repro."):
        return None
    if frame.f_code.co_name == "_replace_atomically":
        frame = frame.f_back
    return frame.f_code.co_name


def _wrap_primitives(calls: List[Tuple[str, str]], kill) -> None:
    """Log every primitive call of the package to ``calls``; SIGKILL this
    process at ``kill = (index, "before" | "after")``."""

    def wrapped(primitive, real):
        def call(*args, **kwargs):
            flags = args[1] if len(args) > 1 else kwargs.get("flags", 0)
            if primitive == "create" and not flags & os.O_EXCL:
                return real(*args, **kwargs)
            caller = _caller(sys._getframe(1))
            if caller is None:
                return real(*args, **kwargs)
            index = len(calls)
            calls.append((primitive, caller))
            if kill == (index, "before"):
                os.kill(os.getpid(), signal.SIGKILL)
            result = real(*args, **kwargs)
            if kill == (index, "after"):
                os.kill(os.getpid(), signal.SIGKILL)
            return result

        return call

    for name, primitive in (("replace", "replace"), ("link", "link"), ("unlink", "unlink"),
                            ("open", "create")):
        setattr(os, name, wrapped(primitive, getattr(os, name)))
    accessor = getattr(pathlib, "_NormalAccessor", None)
    if accessor is not None:  # Python 3.10's Path.unlink holds its own os.unlink
        accessor.unlink = staticmethod(os.unlink)


def _fail_first_write(caller: str) -> None:
    """Make ``_replace_atomically``'s first temp write for ``caller`` write
    half its bytes and raise ``ENOSPC``."""
    real = pathlib.Path.write_bytes
    failed = []

    def write_bytes(self, data):
        frame = sys._getframe(1)
        if (
            not failed
            and frame.f_code.co_name == "_replace_atomically"
            and frame.f_back.f_code.co_name == caller
        ):
            failed.append(self)
            with open(self, "wb") as handle:
                handle.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
        return real(self, data)

    pathlib.Path.write_bytes = write_bytes


def _fork(body, log: Path) -> int:
    """Run ``body`` in a forked child logging to ``log``; its exit code
    (negative: the signal that ended it)."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        code = 1
        try:
            descriptor = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.dup2(descriptor, 1)
            os.dup2(descriptor, 2)
            body()
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def drive(workdir: Path, every: bool) -> None:
    """Kill runs at the write points, rerun each, and write ``results.json``."""
    from repro.analysis.experiments import ExperimentSettings
    from repro.study import Study, register_study, run_study

    register_study(
        Study(name=STUDY, description="two campaigns, three shards each",
              planner=_plan, builder=_build)
    )
    settings = ExperimentSettings(runs=RUNS, shard_size=SHARD_SIZE)

    def run(name: str, kill=None, enospc: str = "") -> int:
        def body():
            calls: List[Tuple[str, str]] = []
            _wrap_primitives(calls, kill)
            if enospc:
                _fail_first_write(enospc)
            try:
                report = run_study(STUDY, settings, store=ResultStore(workdir / name)).report
            finally:
                (workdir / f"{name}.calls.json").write_text(json.dumps(calls))
            (workdir / f"{name}.report.json").write_text(json.dumps(asdict(report)))

        return _fork(body, workdir / f"{name}.log")

    def point(name: str, kill=None, enospc: str = "") -> Dict[str, object]:
        status = run(name, kill=kill, enospc=enospc)
        shutil.copytree(workdir / name, workdir / f"{name}.interrupted")
        rerun = run(name)
        report = json.loads((workdir / f"{name}.report.json").read_text())
        return {"name": name, "status": status, "rerun": rerun, "rerun_report": report}

    if run("reference") != 0:
        raise RuntimeError((workdir / "reference.log").read_text())
    calls = [tuple(call) for call in json.loads((workdir / "reference.calls.json").read_text())]
    results: Dict[str, object] = {"calls": calls, "kills": [], "enospc": {}}
    seen = set()
    for index, (primitive, caller) in enumerate(calls):
        if not every and (primitive, caller) in seen:
            continue
        seen.add((primitive, caller))
        for when in ("before", "after"):
            outcome = point(f"kill-{index:03d}-{when}", kill=(index, when))
            outcome.update(index=index, primitive=primitive, caller=caller, when=when)
            results["kills"].append(outcome)
    for caller in ATOMIC_WRITERS:
        results["enospc"][caller] = point(f"enospc-{caller}", enospc=caller)
    (workdir / "results.json").write_text(json.dumps(results))


# ---------------------------------------------------------------------------
# The tests
# ---------------------------------------------------------------------------


def _tree(root: Path) -> Dict[str, bytes]:
    """Every file under ``root`` by relative path, without ``queue/`` and ``*.tmp``."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
        and path.relative_to(root).parts[0] != "queue"
        and not path.name.endswith(".tmp")
    }


def _listing_problems(root: Path) -> List[str]:
    """What a listing names that does not load."""
    store = ResultStore(root)
    queue = FileQueue(store.queue_root)
    problems = [f"entry {key}" for key in store.keys() if store.load(key) is None]
    problems += [f"analysis {pair}" for pair in store.analysis_keys()
                 if store.load_analysis(*pair) is None]
    problems += [f"shard {pair}" for pair in store.shard_keys()
                 if store.load_shard(*pair) is None]
    # A marker is created after its study's entries are stored.
    problems += [f"marker {studies} {key}" for key, studies in store.study_index().items()
                 if store.load(key) is None]
    problems += [f"task {path.name}" for path in queue.tasks() if queue.read_task(path) is None]
    return problems


@pytest.fixture(scope="module")
def driven(tmp_path_factory):
    """The driver's results and work directory (one driver run per module)."""
    import repro

    workdir = tmp_path_factory.mktemp("write_points")
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",  # the driver forks: keep it single-threaded
    )
    argv = [sys.executable, __file__, str(workdir)]
    if os.environ.get(EVERY_CALL_ENV) == "1":
        argv.append("--every")
    completed = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return workdir, json.loads((workdir / "results.json").read_text())


def _log(workdir: Path, name: str) -> str:
    return (workdir / f"{name}.log").read_text()


def test_the_run_reaches_every_listed_write_point(driven):
    _, results = driven
    first_calls = list(dict.fromkeys(tuple(call) for call in results["calls"]))
    assert first_calls == list(WRITE_POINTS)


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize(
    "primitive, caller", WRITE_POINTS, ids=[f"{p}-{c}" for p, c in WRITE_POINTS]
)
def test_a_kill_leaves_the_store_old_or_new(driven, primitive, caller, when):
    workdir, results = driven
    points = [
        point for point in results["kills"]
        if (point["primitive"], point["caller"], point["when"]) == (primitive, caller, when)
    ]
    assert points
    reference = _tree(workdir / "reference")
    for point in points:
        name = point["name"]
        assert point["status"] == -signal.SIGKILL, _log(workdir, name)
        assert _listing_problems(workdir / f"{name}.interrupted") == [], name
        assert point["rerun"] == 0, _log(workdir, name)
        assert _tree(workdir / name) == reference, name


def test_a_worker_killed_between_claim_and_publish_leaves_its_task(driven):
    workdir, results = driven
    point = next(
        point for point in results["kills"]
        if (point["primitive"], point["caller"], point["when"]) == ("link", "try_claim", "after")
    )
    store = ResultStore(workdir / f"{point['name']}.interrupted")
    queue = FileQueue(store.queue_root)
    leased = [path for path in queue.tasks() if queue.lease_for(path) is not None]
    assert len(leased) == 1 and len(queue.tasks()) == 2 * RUNS // SHARD_SIZE
    assert not queue.lease_for(leased[0]).active()  # its owner is dead
    spec_hash, key = leased[0].name.split(".")[:2]
    assert not store.has_shard(spec_hash, key)
    # The rerun reclaims the dead lease and executes every planned shard.
    report = point["rerun_report"]
    assert report["shards_executed"] == report["shards_planned"] == len(queue.tasks())
    assert FileQueue(workdir / point["name"] / "queue").tasks() == []


@pytest.mark.parametrize("caller", ATOMIC_WRITERS)
def test_a_full_disk_in_the_temp_write_leaves_the_store_old(driven, caller):
    workdir, results = driven
    point = results["enospc"][caller]
    name = point["name"]
    failed = workdir / f"{name}.interrupted"
    store = ResultStore(failed)
    # A heartbeat is telemetry: its failure never takes the worker down.
    assert point["status"] == (0 if caller == "_write" else 1), _log(workdir, name)
    assert list(failed.rglob("*.tmp")) == []  # the failed write removed its temp
    assert _listing_problems(failed) == []
    written = {
        "enqueue": lambda: FileQueue(store.queue_root).tasks(),
        "save_shard": store.shard_keys,
        "save": store.keys,
        "save_analysis": store.analysis_keys,
    }
    if caller in written:
        assert written[caller]() == []
    assert point["rerun"] == 0, _log(workdir, name)
    assert _tree(workdir / name) == _tree(workdir / "reference")


if __name__ == "__main__":  # pragma: no cover - the driver process
    drive(Path(sys.argv[1]), every="--every" in sys.argv[2:])

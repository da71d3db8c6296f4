"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro study list                  # registered studies
    python -m repro study run fig5 --runs 200   # cached: repeats hit the store
    python -m repro study run all --runs 100 --scale 0.5
    python -m repro study run fig5 --engine reference  # the slow oracle
    python -m repro study run fig4a --format json      # machine-readable output
    python -m repro study run all --format csv > results.csv
    python -m repro study run all --jobs 2      # 2 worker processes per study, bit-exact
    python -m repro study compare fig5 fig5     # diff two executed studies
    python -m repro study clean                 # drop the result store

    python -m repro query runs                  # the run table, zero reruns
    python -m repro query runs --study fig5 --where "admitted"
    python -m repro query export table.csv --estimator gumbel-pwm
    python -m repro query compare rm hrp --cutoff 1e-15

    python -m repro study run fig4a --estimator gumbel-mle
    python -m repro pwcet list                  # registered pWCET estimators
    python -m repro pwcet compare fig5 --runs 24  # all estimators side by side

    python -m repro study run fig5 --shard-size 8 --jobs 2   # sharded pipeline
    python -m repro worker                      # attach an external worker
    python -m repro exec status                 # queue + worker telemetry
    python -m repro exec status --format json   # machine-readable snapshot
    python -m repro study clean --analyses-only --older-than 7d
    python -m repro study clean --older-than 1h --dry-run    # plan, don't delete

    python -m repro serve --port 8765           # pWCET analysis server
    python -m repro submit fig5 --runs 100      # submit to a running server
    python -m repro submit fig5 --format json --url http://127.0.0.1:8765

Each experiment id corresponds to one table/figure of the paper (see
DESIGN.md's per-experiment index) and names a study in the registry
(:mod:`repro.study`).  ``study run`` executes through the on-disk result
store (``results/store/`` by default, override with ``--store``):
scenarios whose spec hash is already stored are loaded instead of
re-simulated, so a repeated ``study run`` is a full cache hit.

``--engine`` accepts any registered simulation engine
(:func:`repro.engine.available_engines`; ``python -m repro engines``
prints the capability matrix).  The default is the production ``numpy``
engine; ``reference`` is the slow oracle it is checked against.  Both are
bit-exact, so the flag only changes wall-clock time.  ``--estimator``
accepts any registered pWCET estimator
(:func:`repro.pwcet.available_estimators`); the default ``gumbel-pwm``
reproduces the paper's protocol, and ``python -m repro pwcet compare``
projects one experiment's campaigns through every estimator side by side
(with the vectorized batch pipeline).  ``--format`` selects
the output rendering: ``text`` (default, the same plain-text tables the
benches print), ``json`` (one object per experiment, including per-scenario
cache miss rates) or ``csv`` (``experiment,key,value`` rows) — with
non-text formats the progress chatter moves to stderr so stdout stays
machine-readable.

``study run`` executes every campaign — a range of lanes, seeds or memory
layouts — through the sharded work-queue pipeline (:mod:`repro.exec`): a
study's campaigns are planned into lane-range shards (one per campaign
by default, ``--shard-size N`` lanes each with it), drained by one set of
``--jobs`` workers (the command's own process at the default 1),
persisted shard by shard, and reassembled bit-exactly — a killed run
loses at most its in-flight shards, and rerunning it executes only the
missing ones.
``python -m repro worker`` attaches an external worker process to the same
queue, and ``python -m repro exec status`` shows queue occupancy plus
per-worker heartbeat telemetry (``--format json`` emits the same snapshot
machine-readably).

``serve`` runs the analysis server (:mod:`repro.service`): clients submit
scenario specs over HTTP, jobs execute through the same store + work-queue
pipeline (external ``worker`` processes can drain them), and overlapping
submissions deduplicate by spec hash.  ``submit`` plans an experiment
locally and sends it to a running server, waiting for (and rendering) the
result — repeated submissions are answered from the store with zero
simulations and zero EVT fits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, Union

# No command calls BLAS, but numpy's OpenBLAS starts a worker thread per
# spare CPU when numpy loads, which only slows start-up.  One thread, unless
# the caller chose; numpy is not loaded yet (DESIGN "Start-up").  Set here
# and not in repro/__init__.py: a library leaves the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The planner's default shard width (repro.exec.plan.DEFAULT_SHARD_SIZE) is
# one engine batch.  repro.engine.base defines it without loading an engine,
# so this import costs nothing; every other import of the package is made
# by the command, or the function adding a command's arguments, that needs it.
from .engine.base import DEFAULT_MAX_LANES as DEFAULT_SHARD_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analysis.experiments import ExperimentSettings
    from .study.store import ResultStore


def _add_campaign_arguments(
    parser: argparse.ArgumentParser, include_format: bool = True
) -> None:
    """The knobs shared by ``study run``/``study compare``, ``submit`` and
    ``pwcet compare``."""
    from .analysis.report import RESULT_FORMATS
    from .engine import available_engines
    from .pwcet import available_estimators

    parser.add_argument("--runs", type=int, default=None, help="measurement runs per campaign")
    parser.add_argument("--scale", type=float, default=None, help="workload iteration scale factor")
    parser.add_argument("--seed", type=int, default=None, help="campaign master seed")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="workers per study draining its campaigns through the store's "
        "work queue (1 = this process, 0 = all CPUs), each campaign one shard "
        f"of at most {DEFAULT_SHARD_SIZE} runs unless the study has fewer "
        "campaigns than workers; results are bit-exact for any value. Each "
        "worker runs whole campaigns, so studies with many campaigns gain "
        "the most: on 2 CPUs a cold 'study run all' took 3.0 s with --jobs 2 "
        "and 3.9 s with --jobs 1",
    )
    parser.add_argument(
        "--engine",
        choices=available_engines(),
        default=None,
        help="simulation engine (default 'numpy', the vectorized production "
        "engine; 'reference' is the bit-exact oracle; see "
        "'python -m repro engines')",
    )
    parser.add_argument(
        "--estimator",
        choices=available_estimators(),
        default=None,
        help="pWCET estimator (default: the protocol's gumbel-pwm; "
        "see 'python -m repro pwcet list')",
    )
    if include_format:
        parser.add_argument(
            "--format",
            choices=RESULT_FORMATS,
            default="text",
            dest="output_format",
            help="output format: plain-text tables (default), JSON objects, or "
            "experiment,key,value CSV rows",
        )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    from .study.store import DEFAULT_STORE_DIR

    parser.add_argument(
        "--store",
        default=DEFAULT_STORE_DIR,
        help=f"result store directory (default: {DEFAULT_STORE_DIR})",
    )


def _study_choices() -> Tuple[str, ...]:
    from .study.registry import available_studies

    return available_studies()


def _add_study_run_arguments(study_run: argparse.ArgumentParser) -> None:
    study_run.add_argument("study", choices=_study_choices() + ("all",))
    _add_campaign_arguments(study_run)
    _add_store_argument(study_run)
    study_run.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore stored results and published shards, simulating every "
        "run again (fresh simulations are still stored)",
    )
    study_run.add_argument(
        "--shard-size",
        type=int,
        default=None,
        dest="shard_size",
        help="N runs per shard (default: one shard per campaign of at most "
        f"{DEFAULT_SHARD_SIZE} runs, split only when a study has fewer "
        "campaigns than workers); bit-exact with serial execution for any N, "
        "and a rerun at any N reuses the shards a killed run already published",
    )


def _add_study_compare_arguments(study_compare: argparse.ArgumentParser) -> None:
    study_compare.add_argument("study_a", choices=_study_choices())
    study_compare.add_argument("study_b", choices=_study_choices())
    # The comparison is a human-facing diff table; no --format here.
    _add_campaign_arguments(study_compare, include_format=False)
    _add_store_argument(study_compare)


def _add_study_clean_arguments(study_clean: argparse.ArgumentParser) -> None:
    _add_store_argument(study_clean)
    study_clean.add_argument(
        "--analyses-only",
        action="store_true",
        help="only remove persisted pWCET analyses (campaign results stay)",
    )
    study_clean.add_argument(
        "--older-than",
        default=None,
        metavar="AGE",
        help="age-based sweep instead of a full wipe: remove derived entries "
        "(analyses; plus shard/queue leftovers unless --analyses-only) older "
        "than AGE (seconds, or a number with an s/m/h/d suffix, e.g. 7d)",
    )
    study_clean.add_argument(
        "--dry-run",
        action="store_true",
        help="list what would be removed without deleting anything "
        "(the same decision logic the server's GC service runs)",
    )


def _add_worker_arguments(worker: argparse.ArgumentParser) -> None:
    _add_store_argument(worker)
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable owner id for leases/telemetry (default: host-pid-nonce)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="seconds before an unrefreshed shard lease may be reclaimed",
    )
    worker.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="exit after executing this many shards (default: drain the queue)",
    )
    worker.add_argument(
        "--throttle",
        type=float,
        default=None,
        help="sleep this many seconds between claiming and executing a shard "
        "(load shaping; also honours REPRO_EXEC_THROTTLE)",
    )


def _add_exec_status_arguments(exec_status: argparse.ArgumentParser) -> None:
    _add_store_argument(exec_status)
    exec_status.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="text table (default) or the JSON snapshot the analysis "
        "server's /v1/status endpoint embeds",
    )


def _add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    _add_store_argument(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listen port (0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="workers per job for its cold campaigns (1 = the job's thread "
        "drains the queue itself; external workers can always join). "
        f"Each campaign is one shard of at most {DEFAULT_SHARD_SIZE} runs "
        "unless the job has fewer campaigns than workers, so each worker "
        "runs whole campaigns (see 'study run --help')",
    )
    serve.add_argument(
        "--shard-size",
        type=int,
        default=None,
        dest="shard_size",
        help="shard size for the jobs' campaigns (default: equal shards of at "
        f"most {DEFAULT_SHARD_SIZE} runs, one per campaign unless a job has "
        "fewer campaigns than workers)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=2,
        help="jobs executed concurrently (each on its own thread)",
    )
    serve.add_argument(
        "--gc-interval",
        type=float,
        default=300.0,
        dest="gc_interval",
        help="seconds between background store sweeps (0 disables the loop)",
    )
    serve.add_argument(
        "--gc-age",
        default=None,
        dest="gc_age",
        metavar="AGE",
        help="minimum age before a derived entry is swept (seconds or an "
        "s/m/h/d suffix; default 1h)",
    )


def _add_submit_arguments(submit: argparse.ArgumentParser) -> None:
    submit.add_argument("experiment", choices=_study_choices() + ("all",))
    _add_campaign_arguments(submit, include_format=False)
    submit.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="per-scenario text summary (default) or the raw job payload",
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="server base URL (default: %(default)s)",
    )
    submit.add_argument(
        "--shard-size",
        type=int,
        default=None,
        dest="shard_size",
        help="override the server's shard size for this job's campaigns",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait for the job before giving up",
    )
    submit.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between job status polls while waiting",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting for the result",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="render the server's SSE progress stream (scenario resolution, "
        "shard publishes, worker heartbeats) while waiting for the job",
    )


def _add_query_filters(command: argparse.ArgumentParser) -> None:
    _add_store_argument(command)
    command.add_argument("--study", default=None, help="only rows recorded by this study")
    command.add_argument("--workload", default=None, help="only rows for this workload label")
    command.add_argument("--setup", default=None, help="only rows for this hierarchy setup")
    command.add_argument(
        "--estimator", default=None, help="only rows analysed with this estimator"
    )
    command.add_argument(
        "--where",
        default=None,
        help="per-row Python predicate over the row fields, e.g. "
        "\"il1_miss_rate > 0.5 and admitted\" or "
        "\"pwcet['1e-15'] < 60000\"",
    )
    command.add_argument(
        "--refresh",
        action="store_true",
        help="accepted for compatibility and ignored: every query reads the store",
    )


def _add_query_format(command: argparse.ArgumentParser) -> None:
    from .analysis.report import QUERY_FORMATS

    command.add_argument(
        "--format",
        choices=QUERY_FORMATS,
        default="table",
        dest="output_format",
        help="aligned table (default), CSV, or a JSON row list",
    )


def _add_query_runs_arguments(query_runs: argparse.ArgumentParser) -> None:
    _add_query_filters(query_runs)
    query_runs.add_argument(
        "--limit", type=int, default=None, help="print at most this many rows"
    )
    _add_query_format(query_runs)


def _add_query_export_arguments(query_export: argparse.ArgumentParser) -> None:
    _add_query_filters(query_export)
    query_export.add_argument(
        "output",
        help="destination file; a .parquet suffix selects Parquet "
        "(needs pandas + pyarrow), anything else CSV",
    )


def _add_query_compare_arguments(query_compare: argparse.ArgumentParser) -> None:
    _add_query_filters(query_compare)
    query_compare.add_argument("setup_a", help="baseline setup label (e.g. rm)")
    query_compare.add_argument("setup_b", help="challenger setup label (e.g. hrp)")
    query_compare.add_argument(
        "--cutoff",
        type=float,
        default=1e-15,
        help="exceedance probability to compare at (default: %(default)g)",
    )
    _add_query_format(query_compare)


def _add_pwcet_compare_arguments(pwcet_compare: argparse.ArgumentParser) -> None:
    from .pwcet import available_estimators

    pwcet_compare.add_argument("experiment", choices=_study_choices())
    _add_campaign_arguments(pwcet_compare)
    _add_store_argument(pwcet_compare)
    pwcet_compare.add_argument(
        "--estimators",
        nargs="+",
        choices=available_estimators(),
        default=None,
        help="estimators to compare (default: all registered)",
    )
    pwcet_compare.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        help="bootstrap resamples per campaign for pWCET confidence "
        "intervals (0 disables)",
    )


#: What a command takes: a function adding a leaf's arguments, the table of
#: a command's subcommands, or None for a leaf without arguments.
_Takes = Union[None, Callable[[argparse.ArgumentParser], None], Dict[str, Tuple[str, object]]]

#: The command tree, name -> (help line, what it takes), in help order.
_COMMANDS: Dict[str, Tuple[str, _Takes]] = {
    "engines": ("print the simulation-engine capability matrix", None),
    "study": (
        "declarative studies with an on-disk result store",
        {
            "list": ("list registered studies", None),
            "run": (
                "run one study (or 'all') through the result store",
                _add_study_run_arguments,
            ),
            "compare": (
                "run two studies and compare scenarios sharing a label",
                _add_study_compare_arguments,
            ),
            "clean": (
                "delete the result store (or garbage-collect parts of it)",
                _add_study_clean_arguments,
            ),
        },
    ),
    "worker": (
        "attach one shard worker to a store's work queue (repro.exec)",
        _add_worker_arguments,
    ),
    "exec": (
        "sharded-execution introspection (repro.exec)",
        {
            "status": (
                "show queue occupancy and worker heartbeat telemetry",
                _add_exec_status_arguments,
            ),
        },
    ),
    "serve": ("run the pWCET analysis server (repro.service)", _add_serve_arguments),
    "submit": (
        "submit an experiment to a running analysis server",
        _add_submit_arguments,
    ),
    "query": (
        "query the run table assembled from a result store (zero reruns)",
        {
            "runs": (
                "list run-table rows matching the filters",
                _add_query_runs_arguments,
            ),
            "export": (
                "export the (filtered) run table to CSV or Parquet",
                _add_query_export_arguments,
            ),
            "compare": (
                "compare two hierarchy setups at a pWCET cutoff "
                "(e.g. where hrp beats rm at 1e-15), from stored analyses only",
                _add_query_compare_arguments,
            ),
        },
    ),
    "pwcet": (
        "pWCET estimator registry and cross-estimator views",
        {
            "list": ("list registered pWCET estimators", None),
            "compare": (
                "project one experiment's campaigns through several estimators",
                _add_pwcet_compare_arguments,
            ),
        },
    ),
}


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The command-line parser; the whole tree unless ``argv`` is given.

    With ``argv``, the tree is built only along the path that its leading
    words (its first words that are not options) select: every level of
    that path registers all its command names and help lines, so usage
    lines, help listings and invalid-choice errors are the full tree's, but
    only the selected leaf gets its arguments and only the selected command
    its subcommands.  Argparse hands the rest of argv to exactly that path,
    because no command above a leaf takes an option besides ``--help``.
    The full tree took 6.1 ms per call; ``study run`` alone takes about a
    third of that, and its argument choices are what load the study, engine
    and estimator registries.  :func:`main` parses with a narrower parser
    still (:func:`_path_parser`) and comes here only to print.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the Random Modulo paper (DAC 2016).",
    )
    _add_commands(parser, "command", _COMMANDS, _words(argv))
    return parser


def _words(argv: Optional[Sequence[str]]) -> Optional[List[str]]:
    """The words of argv that may name commands: those that are not options."""
    return None if argv is None else [word for word in argv if not word.startswith("-")]


def _add_commands(
    parser: argparse.ArgumentParser,
    dest: str,
    commands: Dict[str, Tuple[str, _Takes]],
    words: Optional[List[str]],
    path_only: bool = False,
) -> None:
    """Register ``commands`` under ``parser``, and below the command that
    ``words`` select (below every command when ``words`` is None); with
    ``path_only``, register the selected command alone."""
    subparsers = parser.add_subparsers(dest=dest, required=True)
    for name, (help_line, takes) in commands.items():
        selected = words is None or words[:1] == [name]
        if path_only and not selected:
            continue
        command = subparsers.add_parser(name, help=help_line)
        if takes is None or not selected:
            continue
        if isinstance(takes, dict):
            _add_commands(
                command,
                f"{name}_command",
                takes,
                None if words is None else words[1:],
                path_only,
            )
        else:
            takes(command)


class _OffPath(Exception):
    """A help request or a parse error met by a :class:`_PathParser`."""


class _PathParser(argparse.ArgumentParser):
    """A parser holding, at each level, only the command argv selects.

    It prints no text of its own, since its usage lines and command lists
    are not the full tree's.  While :func:`main` parses, a help request or
    a parse error at any level raises :class:`_OffPath`, and :func:`main`
    parses argv again with :func:`build_parser`, which prints and exits.
    Afterwards, an error a command reports through the top level's
    :meth:`error` is printed by the full tree's ``error()``.
    """

    #: Set on the top level once argv is parsed.
    parsed_argv: Optional[List[str]] = None

    def error(self, message: str) -> NoReturn:
        if self.parsed_argv is None:
            raise _OffPath(message)
        build_parser(self.parsed_argv).error(message)

    def print_help(self, file=None) -> None:
        raise _OffPath()


def _path_parser(argv: Sequence[str]) -> _PathParser:
    """The parser of the one command path argv selects: ``study run`` builds
    three parsers instead of the thirteen of :func:`build_parser` (argv)."""
    parser = _PathParser(prog="repro")
    _add_commands(parser, "command", _COMMANDS, _words(argv), path_only=True)
    return parser


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    from dataclasses import replace

    from .analysis.experiments import ExperimentSettings

    settings = ExperimentSettings.from_env()
    if args.runs is not None:
        settings = replace(settings, runs=args.runs)
    if args.scale is not None:
        settings = replace(settings, scale=args.scale)
    if args.seed is not None:
        settings = replace(settings, master_seed=args.seed)
    if args.jobs is not None:
        settings = replace(settings, jobs=args.jobs)
    if args.engine is not None:
        settings = replace(settings, engine=args.engine)
    if getattr(args, "estimator", None) is not None:
        settings = replace(settings, estimator=args.estimator)
    if getattr(args, "shard_size", None) is not None:
        settings = replace(settings, shard_size=args.shard_size)
    return settings


def _parse_age(text: str) -> float:
    """Parse an ``--older-than`` age: plain seconds or an s/m/h/d suffix."""
    from .study.store import check_gc_age

    text = text.strip().lower()
    scales = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = 1.0
    if text and text[-1] in scales:
        scale = scales[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ValueError(
            f"invalid age {text!r}; expected seconds or a number with an "
            "s/m/h/d suffix (e.g. 90, 45m, 7d)"
        ) from None
    return check_gc_age(seconds)


def _validate_run_request(targets, settings: ExperimentSettings) -> Optional[str]:
    """One-line error when the requested campaign size is unusable, else None."""
    from .pwcet.protocol import MBPTA_MIN_RUNS
    from .study.registry import get_study
    from .workloads.base import check_scale

    if settings.runs < 1:
        return f"error: --runs must be >= 1, got {settings.runs}"
    try:
        check_scale(settings.scale)
    except ValueError as error:
        return f"error: --{error}"
    for identifier in targets:
        minimum = get_study(identifier).min_runs
        if settings.runs < minimum:
            detail = (
                "the MBPTA protocol minimum"
                if minimum == MBPTA_MIN_RUNS
                else "this study's declared minimum"
            )
            return (
                f"error: experiment '{identifier}' needs at least {minimum} "
                f"measurement runs per campaign ({detail}); "
                f"got --runs {settings.runs}"
            )
    return None


def _run_one(
    identifier: str,
    settings: ExperimentSettings,
    output_format: str,
    store: ResultStore,
    use_cache: bool = True,
) -> None:
    from .analysis.report import render_result
    from .study.registry import get_study

    study = get_study(identifier)
    chatter = sys.stdout if output_format == "text" else sys.stderr
    print(f"== {identifier}: {study.description}", file=chatter)
    start = time.time()
    outcome = study.run(settings, store=store, use_cache=use_cache)
    # The paper-style text ignores the per-scenario extras; only JSON and
    # CSV pay for them.
    extras = {}
    if output_format != "text":
        extras = dict(
            miss_rates=outcome.results.miss_rates(),
            analysis=outcome.results.analysis_summaries(settings.estimator),
        )
    print(render_result(identifier, outcome.result, output_format, **extras))
    print(f"-- {identifier}: {outcome.report.summary()}", file=chatter)
    print(f"-- {identifier} finished in {time.time() - start:.1f}s\n", file=chatter)


def _resolve_targets(requested: str) -> list:
    return list(_study_choices()) if requested == "all" else [requested]


def _pwcet_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``python -m repro pwcet {list,compare}`` surface."""
    if args.pwcet_command == "list":
        from .pwcet import estimator_capabilities

        capabilities = estimator_capabilities()
        width = max(len(name) for name in capabilities)
        for name, flags in capabilities.items():
            notes = []
            notes.append("batched" if flags["supports_batch"] else "per-campaign")
            notes.append(
                "block maxima" if flags["needs_block_maxima"] else "peaks-over-threshold"
            )
            print(f"{name.ljust(width)}  {flags['description']} ({', '.join(notes)})")
        return 0

    # pwcet_command == "compare"
    from .analysis.report import CSV_HEADER, render_result
    from .pwcet import MbptaConfig
    from .study.registry import get_study
    from .study.store import ResultStore

    if args.bootstrap < 0:
        parser.error(f"--bootstrap must be >= 0, got {args.bootstrap}")
    settings = _validated_settings(parser, args, [args.experiment])
    if settings is None:
        return 2
    store = ResultStore(args.store)
    study = get_study(args.experiment)
    chatter = sys.stdout if args.output_format == "text" else sys.stderr
    print(f"== {args.experiment}: {study.description}", file=chatter)
    outcome = study.run(settings, store=store)
    print(f"-- {args.experiment}: {outcome.report.summary()}", file=chatter)
    # --estimators picks the comparison columns; a bare --estimator narrows
    # the comparison to that single estimator instead of being ignored.
    estimators = args.estimators
    if estimators is None and settings.estimator:
        estimators = [MbptaConfig(fit_method=settings.estimator).estimator_name]
    try:
        # Routed through the result set so warm comparisons reuse the
        # persisted analyses and re-fit nothing.
        comparison = outcome.results.compare_estimators(
            estimators=estimators, bootstrap=args.bootstrap
        )
    except ValueError as error:
        print(f"error: experiment '{args.experiment}': {error}", file=sys.stderr)
        return 2
    if args.output_format == "csv":
        print(CSV_HEADER)
    print(
        render_result(
            f"pwcet-compare:{args.experiment}", comparison, args.output_format
        )
    )
    return 0


def _query_table(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Build + filter the run table per the shared query flags."""
    from .study.runtable import build_run_table
    from .study.store import ResultStore

    table = build_run_table(ResultStore(args.store))
    try:
        return table.filter(
            study=args.study,
            workload=args.workload,
            setup=args.setup,
            estimator=args.estimator,
            where=args.where,
        )
    except ValueError as error:
        parser.error(str(error))


def _query_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``python -m repro query {runs,export,compare}`` surface.

    Every subcommand reads only the store — no simulations, no EVT fits.
    """
    from .analysis.report import render_rows

    if args.query_command == "runs":
        table = _query_table(parser, args)
        if args.limit is not None:
            if args.limit < 0:
                parser.error(f"--limit must be >= 0, got {args.limit}")
            table.rows = table.rows[: args.limit]
        print(
            render_rows(
                table.export_columns(),
                table.export_rows(),
                args.output_format,
                title=f"run table: {len(table)} row(s) from {args.store}",
            )
        )
        return 0

    if args.query_command == "export":
        table = _query_table(parser, args)
        try:
            if str(args.output).endswith(".parquet"):
                destination = table.to_parquet(args.output)
            else:
                destination = table.to_csv(args.output)
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"exported {len(table)} row(s) to {destination}")
        return 0

    # query_command == "compare"
    table = _query_table(parser, args)
    sides = {
        side: {
            (row["workload"], row["estimator"]): row
            for row in table.filter(setup=side).rows
            if row.get("estimator")
        }
        for side in (args.setup_a, args.setup_b)
    }

    def quantile(row: Dict[str, object]) -> Optional[float]:
        for probability, value in row.get("pwcet", {}).items():  # type: ignore[union-attr]
            try:
                matches = float(probability) == args.cutoff
            except (ValueError, TypeError):
                continue
            if matches:
                return float(value)  # type: ignore[arg-type]
        return None

    rows = []
    for key in sorted(sides[args.setup_a].keys() & sides[args.setup_b].keys()):
        value_a = quantile(sides[args.setup_a][key])
        value_b = quantile(sides[args.setup_b][key])
        if value_a is None or value_b is None:
            continue
        workload, estimator = key
        winner = args.setup_a if value_a <= value_b else args.setup_b
        rows.append(
            [
                workload,
                estimator,
                round(value_a, 3),
                round(value_b, 3),
                round(value_b / value_a, 6) if value_a else "",
                winner,
            ]
        )
    headers = [
        "workload",
        "estimator",
        f"pwcet@{args.cutoff:g} {args.setup_a}",
        f"pwcet@{args.cutoff:g} {args.setup_b}",
        "ratio b/a",
        "winner",
    ]
    print(
        render_rows(
            headers,
            rows,
            args.output_format,
            title=(
                f"{args.setup_a} vs {args.setup_b} at {args.cutoff:g}: "
                f"{len(rows)} matched scenario(s)"
            ),
        )
    )
    return 0


def _print_engine_matrix() -> None:
    """The ``engines`` command: one row per registered engine."""
    from .engine import engine_capabilities

    matrix = engine_capabilities()
    flag = lambda value: "yes" if value else "no"  # noqa: E731
    width = max(len(name) for name in matrix)
    print(f"{'engine'.ljust(width)}  batch  bit-exact")
    for name, caps in matrix.items():
        print(
            f"{name.ljust(width)}  "
            f"{flag(caps['supports_batch']).ljust(5)}  "
            f"{flag(caps['bit_exact'])}"
        )


def _validated_settings(
    parser: argparse.ArgumentParser, args: argparse.Namespace, targets
) -> Optional[ExperimentSettings]:
    """Merge env/flags and validate; prints the error and returns None if bad."""
    settings = _settings_from_args(args)
    if settings.jobs < 0:
        parser.error(f"jobs must be >= 0 (0 = one worker per CPU), got {settings.jobs}")
    if settings.shard_size is not None and settings.shard_size < 1:
        parser.error(f"shard-size must be >= 1, got {settings.shard_size}")
    problem = _validate_run_request(targets, settings)
    if problem is not None:
        print(problem, file=sys.stderr)
        return None
    return settings


def _serve_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``python -m repro serve`` surface (repro.service)."""
    from .service.api.server import ReproServer
    from .study.store import ResultStore

    if args.port < 0:
        parser.error(f"--port must be >= 0, got {args.port}")
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = one worker per CPU), got {args.jobs}")
    if args.shard_size is not None and args.shard_size < 1:
        parser.error(f"--shard-size must be >= 1, got {args.shard_size}")
    if args.concurrency < 1:
        parser.error(f"--concurrency must be >= 1, got {args.concurrency}")
    gc_age = 3600.0
    if args.gc_age is not None:
        try:
            gc_age = _parse_age(args.gc_age)
        except ValueError as error:
            parser.error(str(error))
    server = ReproServer(
        ResultStore(args.store),
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        shard_size=args.shard_size,
        concurrency=args.concurrency,
        gc_interval=args.gc_interval,
        gc_age=gc_age,
    )
    server.run()
    return 0


def _render_job_event(event: Dict[str, object]) -> None:
    """One progress line per SSE event (the ``submit --follow`` stream)."""
    kind = event.get("event")
    if kind == "job-submitted":
        print(f"submitted: {event['scenarios']} scenario(s)")
    elif kind == "job-started":
        print("started")
    elif kind == "scenario-resolved":
        print(f"scenario {event['label']}: {event['source']}")
    elif kind == "shard-published":
        print(f"shard {event['shard']} published (spec {str(event['spec_hash'])[:12]})")
    elif kind == "worker-heartbeat":
        state = "finished" if event.get("finished") else "running"
        print(
            f"worker {event['owner']} [{event.get('engine', '?')}] {state}: "
            f"{event['shards_done']}/{event['shards_claimed']} shard(s), "
            f"{event['runs_done']} run(s)"
        )
    elif kind == "job-completed":
        print(f"completed: {event.get('summary', '')}")
    elif kind == "job-failed":
        print(f"failed: {event.get('error', 'job failed')}")
    else:  # future kinds degrade to their name, not silence
        print(str(kind))


def _follow_job(client, job_id: str, timeout: float) -> Dict[str, object]:
    """Render the SSE stream until the job finishes; returns the final payload.

    The stream replays history first, so following a job that already
    finished still prints its full progress trail.  The terminal payload is
    re-fetched over the plain job endpoint — the SSE events carry progress,
    not the result body.
    """
    for event in client.events(job_id, timeout=timeout):
        _render_job_event(event)
        if event.get("event") in ("job-completed", "job-failed"):
            break
    return client.job(job_id)


def _render_submitted_job(payload: Dict[str, object]) -> None:
    """Human-readable rendering of one finished job payload."""
    print(f"job {payload['job_id']}: {payload['state']}")
    for entry in payload.get("results", ()):  # type: ignore[union-attr]
        line = (
            f"{entry['label']}: runs={entry['runs']} mean={entry['mean']:.1f} "
            f"hwm={entry['high_water_mark']} source={entry['source']}"
        )
        analysis = entry.get("analysis")
        if analysis:
            pwcet = ", ".join(
                f"pWCET@{probability}={value:.0f}"
                for probability, value in sorted(
                    analysis["pwcet"].items(),
                    key=lambda item: float(item[0]),
                    reverse=True,
                )
            )
            line += f"  {pwcet}"
        print(line)
    report = payload.get("report")
    if report:
        print(f"-- {report['summary']}")  # type: ignore[index]
    if payload["state"] == "failed":
        print(f"error: {payload.get('error', 'job failed')}", file=sys.stderr)


def _submit_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``python -m repro submit`` surface: plan locally, execute remotely."""
    from .service.client import ServiceClient, ServiceError
    from .study.registry import get_study

    if args.follow and args.no_wait:
        parser.error("--follow waits for the job; it cannot combine with --no-wait")
    targets = _resolve_targets(args.experiment)
    settings = _validated_settings(parser, args, targets)
    if settings is None:
        return 2
    specs = []
    for identifier in targets:
        specs.extend(
            scenario.spec_dict() for scenario in get_study(identifier).plan(settings)
        )
    payload: Dict[str, object] = {
        "specs": specs,
        # The studies' analysis grid (secondary + primary cutoff), so the
        # server computes — and caches — the exact analyses `study run`
        # would for the same specs.
        "cutoffs": [settings.secondary_cutoff, settings.cutoff],
    }
    if settings.estimator:
        payload["estimator"] = settings.estimator
    if args.engine is not None:
        payload["engine"] = settings.engine
    if args.jobs is not None:
        payload["jobs"] = settings.jobs
    if settings.shard_size is not None:
        payload["shard_size"] = settings.shard_size
    client = ServiceClient(args.url)
    try:
        submitted = client.submit(payload)
        job_id = str(submitted["job_id"])
        if args.no_wait:
            print(
                f"job {job_id}: {submitted['state']} "
                f"({submitted['scenarios']} scenario(s))"
            )
            return 0
        if args.follow:
            finished = _follow_job(client, job_id, timeout=args.timeout)
        else:
            finished = client.wait(job_id, timeout=args.timeout, poll=args.poll)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.output_format == "json":
        print(json.dumps(finished, indent=2, sort_keys=True))
    else:
        _render_submitted_job(finished)
    return 1 if finished["state"] == "failed" else 0


def _worker_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``python -m repro worker`` surface (repro.exec)."""
    from .exec.worker import run_worker
    from .study.store import ResultStore

    if args.max_shards is not None and args.max_shards < 1:
        parser.error(f"--max-shards must be >= 1, got {args.max_shards}")
    if args.lease_ttl is not None and not (
        math.isfinite(args.lease_ttl) and args.lease_ttl > 0
    ):
        parser.error(
            f"--lease-ttl must be a positive, finite number of seconds, got {args.lease_ttl}"
        )
    if not os.path.isdir(args.store):
        # A mistyped store would drain nothing and exit 0 after creating it.
        parser.error(f"--store {args.store} is not a directory")
    store = ResultStore(args.store)
    kwargs = {}
    if args.worker_id is not None:
        kwargs["worker_id"] = args.worker_id
    if args.lease_ttl is not None:
        kwargs["lease_ttl"] = args.lease_ttl
    if args.max_shards is not None:
        kwargs["max_shards"] = args.max_shards
    if args.throttle is not None:
        kwargs["throttle"] = args.throttle
    stats = run_worker(store.queue_root, store.root, **kwargs)
    print(stats.summary())
    return 0


def _exec_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``python -m repro exec status`` surface (the only subcommand)."""
    from .exec.status import render_exec_status
    from .study.store import ResultStore

    print(render_exec_status(ResultStore(args.store), args.output_format))
    return 0


def _study_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``python -m repro study {list,run,compare,clean}`` surface."""
    from .analysis.report import CSV_HEADER
    from .study.registry import get_study
    from .study.store import ResultStore

    if args.study_command == "list":
        names = _study_choices()
        width = max(len(name) for name in names)
        for name in names:
            study = get_study(name)
            print(f"{name.ljust(width)}  {study.description}")
        return 0

    if args.study_command == "clean":
        store = ResultStore(args.store)
        if args.older_than is not None:
            try:
                age = _parse_age(args.older_than)
            except ValueError as error:
                parser.error(str(error))
            what = "analysis entries" if args.analyses_only else "derived entries"
            if args.dry_run:
                candidates = store.sweep_candidates(
                    age, analyses_only=args.analyses_only
                )
                for path in candidates:
                    print(path.relative_to(store.root))
                print(
                    f"dry run: would sweep {len(candidates)} {what} older "
                    f"than {args.older_than} from {args.store}"
                )
            else:
                removed = store.sweep(age, analyses_only=args.analyses_only)
                print(
                    f"swept {removed} {what} older than {args.older_than} "
                    f"from {args.store}"
                )
        elif args.analyses_only:
            if args.dry_run:
                candidates = store.sweep_candidates(0.0, analyses_only=True)
                for path in candidates:
                    print(path.relative_to(store.root))
                print(
                    f"dry run: would remove {len(candidates)} analysis "
                    f"entries from {args.store}"
                )
            else:
                removed = store.sweep(0.0, analyses_only=True)
                print(f"removed {removed} analysis entries from {args.store}")
        else:
            if args.dry_run:
                entries, bookkeeping = store.clear_candidates()
                for path in entries + bookkeeping:
                    print(path.relative_to(store.root))
                print(
                    f"dry run: would remove {len(entries)} stored result(s) "
                    f"(plus {len(bookkeeping)} bookkeeping file(s)) from "
                    f"{args.store}"
                )
            else:
                removed = store.clear()
                print(f"removed {removed} stored result(s) from {args.store}")
        return 0

    store = ResultStore(args.store)

    if args.study_command == "run":
        targets = _resolve_targets(args.study)
        settings = _validated_settings(parser, args, targets)
        if settings is None:
            return 2
        if args.output_format == "csv":
            print(CSV_HEADER)
        for identifier in targets:
            _run_one(
                identifier,
                settings,
                args.output_format,
                store=store,
                use_cache=not args.no_cache,
            )
        return 0

    # study_command == "compare"
    targets = [args.study_a, args.study_b]
    settings = _validated_settings(parser, args, targets)
    if settings is None:
        return 2
    outcomes = {}
    for identifier in targets:
        print(f"== {identifier}: {get_study(identifier).description}")
        outcomes[identifier] = get_study(identifier).run(settings, store=store)
        print(f"-- {identifier}: {outcomes[identifier].report.summary()}")
    comparison = outcomes[args.study_a].results.compare(
        outcomes[args.study_b].results,
        title=f"study compare: A = {args.study_a}, B = {args.study_b}",
    )
    print(comparison)
    return 0



def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    path_parser = _path_parser(argv)
    parser: argparse.ArgumentParser = path_parser
    try:
        args = path_parser.parse_args(argv)
    except _OffPath:
        # Help and parse errors are the full tree's text: it prints and exits.
        parser = build_parser(argv)
        args = parser.parse_args(argv)
    else:
        path_parser.parsed_argv = argv

    commands = {
        "study": _study_command,
        "worker": _worker_command,
        "exec": _exec_command,
        "serve": _serve_command,
        "submit": _submit_command,
        "query": _query_command,
        "pwcet": _pwcet_command,
    }
    try:
        if args.command == "engines":
            _print_engine_matrix()
            code = 0
        else:
            code = commands[args.command](parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        if not _stdout_closed():
            raise  # another pipe or socket: a real failure
        # A closed stdout (`| head`) ends the output.  Point it at devnull,
        # so the interpreter's exit flush of what is left stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return code


def _stdout_closed() -> bool:
    """Whether stdout is a pipe whose reader has gone: it polls as an error
    (Linux) or a hang-up (macOS and the BSDs)."""
    import select

    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        gone = select.POLLERR | select.POLLHUP
        return any(events & gone for _, events in poller.poll(0))
    except (AttributeError, OSError, ValueError):  # no poll, or no file descriptor
        return False


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())

"""Micro-benchmarks of the simulation substrate itself.

These are conventional pytest-benchmark micro-benchmarks (many rounds) that
track the throughput of the pieces every experiment depends on: the numpy
campaign engine, layout campaigns, the placement hashes and the EVT fit.
They are not paper artefacts, but regressions here multiply directly into
the campaign times of every other bench.
"""

import gc
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.analysis.campaign import run_layout_campaign
from repro.cache.fastsim import CompiledTrace
from repro.core.placement import PlacementGeometry, make_placement
from repro.engine import DEFAULT_ENGINE, NumpyEngine, get_engine
from repro.engine.numpy_engine import derive_seed_arrays
from repro.platform.leon3 import platform_setup
from repro.pwcet.evt import fit_gumbel
from repro.pwcet.protocol import apply_mbpta
from repro.study.scenario import WorkloadSpec
from repro.workloads.base import random_layouts
from repro.workloads.eembc import eembc_trace

#: Batch sizes of the engine throughput rows.  The numpy engine simulates
#: all seeds of a batch as one array program, so its per-run cost falls as
#: the batch grows.
ENGINE_BATCH_RUNS = (16, 64, 256)

#: Seeds of each batch replayed on the reference oracle as well: enough to
#: catch a divergence, few enough that the slow model stays cheap.
REFERENCE_SEEDS = 4

#: Layout counts of the layout-campaign rows (``a2time`` on ``modulo``).
LAYOUT_RUNS = (40, 200)

#: Lane counts of the batch-memory rows: the old default shard width and
#: the engine's widest batch.
MEMORY_LANES = (256, 1024)

#: The batch-memory workloads (study, workload): fig5's 20 KB kernel and
#: ablation_seg's 40 KB one, the widest seed campaigns of the paper's set.
MEMORY_WORKLOADS = (
    ("fig5", WorkloadSpec.synthetic(20 * 1024, 12)),
    ("ablation_seg", WorkloadSpec.synthetic(40 * 1024, 8)),
)

#: Machine-readable benchmark trajectory, tracked across PRs (repo root).
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def _emit_bench_json(path: Path, payload: dict) -> None:
    """Merge ``payload`` into the trajectory file; each test owns its keys."""
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(payload, written_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def compiled_a2time():
    return CompiledTrace(eembc_trace("a2time"))


def test_engine_single_run(benchmark, compiled_a2time):
    simulator = NumpyEngine().simulator(platform_setup("rm"), compiled_a2time)
    result = benchmark(simulator.run, 42)
    assert result.cycles > 0


def test_engine_batch_deterministic_placement(benchmark, compiled_a2time):
    """Deterministic (modulo) placement: every lane simulated, one cycle count."""
    simulator = NumpyEngine().simulator(platform_setup("modulo"), compiled_a2time)
    results = benchmark(simulator.run_batch, list(range(8)))
    assert len({result.cycles for result in results}) == 1  # seed-insensitive


@pytest.mark.parametrize("runs", ENGINE_BATCH_RUNS)
def test_engine_batch_throughput(benchmark, compiled_a2time, runs):
    """Batch throughput of the production engine at campaign sizes."""
    simulator = NumpyEngine().simulator(platform_setup("rm"), compiled_a2time)
    seeds = list(range(runs))
    results = benchmark.pedantic(simulator.run_batch, args=(seeds,), rounds=1, iterations=1)
    assert len(results) == runs


def _timed_batch(simulator, seeds, repeats=1, warmup=0):
    """Best-of-``repeats`` wall-clock of one ``run_batch`` call.

    ``warmup`` untimed calls run first (ramping the CPU governor and filling
    every lazy cache), and the garbage collector is paused around each timed
    call after a pre-emptive collection, so a collection triggered by
    earlier garbage does not land in the row being timed.
    """
    best = None
    results = None
    for _ in range(warmup):
        results = simulator.run_batch(seeds)
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            results = simulator.run_batch(seeds)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return results, best


def _map_build_seconds(simulator, seeds):
    """Wall-clock of building every randomized placement map.

    Replays exactly what every batch pays before the plan can execute: one
    ``set_index_matrix`` per randomized cache slot over the rows that slot
    can actually index, for the batch's derived seed block.
    """
    per_cache = derive_seed_arrays(seeds)
    total = 0.0
    for slot_state, rows, (placement_seeds, _) in zip(
        simulator._slots, simulator._slot_rows, per_cache
    ):
        if slot_state is None:
            continue
        _config, policy, randomized, _static = slot_state
        if not randomized:
            continue
        lines = simulator._lines if rows is None else simulator._lines[rows]
        seed_list = [int(seed) for seed in placement_seeds]
        start = time.perf_counter()
        policy.set_index_matrix(lines, seed_list)
        total += time.perf_counter() - start
    return total


def test_plan_cold_warm_batches(compiled_a2time, capsys):
    """Cold and warm plan batches, the map-build share, and bit-exactness.

    Cold is a fresh simulator (it allocates its plan-state buffers); warm
    is one reused simulator whose buffers are pooled from its previous
    batch.  Neither memoizes placement maps: both build every map of every
    batch.  Prints the table (the EXPERIMENTS.md numbers come from here) and
    persists it to BENCH_engine.json so perf is tracked across PRs.  No
    timing assertion is made because shared CI boxes are noisy; the first
    seeds of every batch are asserted bit-exact against the reference
    oracle.
    """
    config = platform_setup("rm")
    warm_sim = NumpyEngine().simulator(config, compiled_a2time)
    reference = get_engine("reference").simulator(config, compiled_a2time)
    oracle = reference.run_batch(list(range(REFERENCE_SEEDS)))

    rows = []
    with capsys.disabled():
        print("\nnumpy engine, batch throughput (a2time, rm setup; seconds)")
        print("runs |  cold |  warm | map share | runs/s warm")
        for runs in ENGINE_BATCH_RUNS:
            seeds = list(range(runs))
            cold_sim = NumpyEngine().simulator(config, compiled_a2time)
            cold_sim.plan  # compiled on first use; keep it out of the timed batch
            cold_results, cold_seconds = _timed_batch(cold_sim, seeds)
            map_build_seconds = _map_build_seconds(cold_sim, seeds)
            # Untimed warmups plus best-of-8: the timed target is the
            # steady-state cost a campaign pays per batch, and a straggler
            # (GC pause, governor ramp) otherwise decides the row.
            warm_results, warm_seconds = _timed_batch(
                warm_sim, seeds, repeats=8, warmup=2
            )
            assert cold_results == warm_results
            assert warm_results[:REFERENCE_SEEDS] == oracle  # bit-exact, always
            row = {
                "runs": runs,
                "plan_cold_seconds": cold_seconds,
                "plan_seconds": warm_seconds,
                "map_build_seconds": map_build_seconds,
                "map_build_share": map_build_seconds / cold_seconds,
            }
            print(
                f"{runs:4d} | {cold_seconds:5.3f} | {warm_seconds:5.3f} | "
                f"{row['map_build_share']:9.0%} | {runs / warm_seconds:11.0f}"
            )
            rows.append(row)
    _emit_bench_json(
        BENCH_JSON,
        {
            "benchmark": "engine-batch-throughput",
            "workload": "a2time",
            "setup": "rm",
            "reference_seeds": REFERENCE_SEEDS,
            "rows": rows,
        },
    )


def test_layout_campaign_lanes(capsys):
    """Layout lanes against per-layout rebuilds, with identical cycles.

    Each row times ``run_layout_campaign`` (the trace relocated per lane,
    one engine batch) and the per-layout path it replaced (rebuild each
    layout's trace, compile it and run it alone) on ``a2time`` under
    ``modulo``, asserts identical cycles, and merges the rows into
    BENCH_engine.json as ``layout_rows``.  CI holds the speedup bar.
    """
    config = platform_setup("modulo")
    trace = eembc_trace("a2time")
    rows = []
    with capsys.disabled():
        print("\nlayout campaign, lanes vs per-layout rebuilds (a2time, modulo)")
        print("layouts | lanes s | rebuilt s | speedup")
        for runs in LAYOUT_RUNS:
            layouts = random_layouts(runs, master_seed=11)
            lanes_seconds = None
            for _ in range(3):
                start = time.perf_counter()
                lanes = run_layout_campaign(trace, config, runs=runs, layouts=layouts)
                elapsed = time.perf_counter() - start
                lanes_seconds = elapsed if lanes_seconds is None else min(lanes_seconds, elapsed)
            start = time.perf_counter()
            engine = get_engine(DEFAULT_ENGINE)
            rebuilt = [
                engine.simulator(
                    config,
                    CompiledTrace(eembc_trace("a2time", layout=layout), config.il1.line_size),
                )
                .run(0)
                .cycles
                for layout in layouts
            ]
            rebuild_seconds = time.perf_counter() - start
            assert lanes.execution_times == rebuilt  # bit-exact, always
            row = {
                "layouts": runs,
                "lanes_seconds": lanes_seconds,
                "rebuild_seconds": rebuild_seconds,
                "speedup": rebuild_seconds / lanes_seconds,
            }
            print(
                f"{runs:7d} | {lanes_seconds:7.3f} | {rebuild_seconds:9.3f} | "
                f"{row['speedup']:6.0f}x"
            )
            rows.append(row)
    _emit_bench_json(BENCH_JSON, {"layout_rows": rows})


def test_batch_memory(capsys):
    """Peak traced allocation per lane of one engine batch.

    Each row builds an RM simulator, compiles its plan, then traces one
    ``run_batch`` with :mod:`tracemalloc` (numpy reports its buffers to
    it), so the peak is the batch state alone: placement maps, cache
    tables, counters and results.  The rows go to BENCH_engine.json as
    ``batch_memory``; CI holds the per-lane bar.
    """
    config = platform_setup("rm")
    rows = []
    with capsys.disabled():
        print("\nnumpy engine, traced peak per batch (rm setup)")
        print("study        | workload       | lanes | peak MB | KB per lane")
        for study, workload in MEMORY_WORKLOADS:
            compiled = CompiledTrace(workload.build_trace(), config.il1.line_size)
            for lanes in MEMORY_LANES:
                simulator = NumpyEngine().simulator(config, compiled)
                simulator.plan  # compiled outside the traced batch
                gc.collect()
                tracemalloc.start()
                try:
                    results = simulator.run_batch(range(lanes))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert len(results) == lanes
                row = {
                    "study": study,
                    "workload": workload.label,
                    "lanes": lanes,
                    "peak_bytes": peak,
                    "bytes_per_lane": peak / lanes,
                }
                print(
                    f"{study:12s} | {workload.label:14s} | {lanes:5d} | "
                    f"{peak / 1e6:7.1f} | {peak / lanes / 1e3:11.1f}"
                )
                rows.append(row)
    _emit_bench_json(BENCH_JSON, {"batch_memory": rows})


@pytest.mark.parametrize("policy", ["modulo", "hrp", "rm"])
def test_placement_throughput(benchmark, policy):
    geometry = PlacementGeometry(num_sets=128, line_size=32)
    placement = make_placement(policy, geometry, seed=7)
    addresses = list(range(0x40000000, 0x40000000 + 64 * 1024, 32))

    def map_all():
        return [placement.set_index(address) for address in addresses]

    indices = benchmark(map_all)
    assert all(0 <= index < 128 for index in indices)


def test_trace_generation_throughput(benchmark):
    trace = benchmark(lambda: eembc_trace("matrix"))
    assert len(trace) > 1000


def test_gumbel_fit_throughput(benchmark):
    samples = [20000.0 + (i * 37 % 450) for i in range(1000)]
    fit = benchmark(lambda: fit_gumbel(samples, block_size=20))
    assert fit.scale > 0


def test_mbpta_protocol_throughput(benchmark):
    samples = [20000.0 + (i * 37 % 450) + (i % 7) for i in range(1000)]
    result = benchmark(lambda: apply_mbpta(samples))
    assert result.pwcet_at(1e-15) > max(samples) * 0.99

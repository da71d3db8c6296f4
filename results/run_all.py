"""Generate the reference results quoted in EXPERIMENTS.md.

Campaign execution can be parallelised with ``--jobs N`` (or ``REPRO_JOBS``):
results are bit-exact for any jobs value, only the wall-clock time changes.

    python results/run_all.py                  # serial, numpy engine
    python results/run_all.py --jobs 0         # one worker per CPU
    python results/run_all.py --engine reference   # the slow oracle
"""
import argparse, json, time
from dataclasses import replace
from repro.analysis import (ExperimentSettings, experiment_table1, experiment_table2,
    experiment_fig1, experiment_fig4a, experiment_fig4b, experiment_fig5,
    experiment_avg_performance, experiment_footprint_ablation, experiment_replacement_ablation)
from repro.engine import available_engines
from repro.workloads.synthetic import SYNTHETIC_FOOTPRINTS

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--runs", type=int, default=None,
                    help="measurement runs per campaign (default 300; overrides REPRO_RUNS/REPRO_FULL)")
parser.add_argument("--jobs", type=int, default=None,
                    help="worker processes per campaign (1 = serial, 0 = all CPUs)")
parser.add_argument("--engine", choices=available_engines(), default=None,
                    help="simulation engine (all built-in engines are bit-exact)")
args = parser.parse_args()

# Env vars refine the 300-run default; explicit command-line flags win.
s = ExperimentSettings.from_env(runs=300)
if args.runs is not None:
    s = replace(s, runs=args.runs)
if args.jobs is not None:
    s = replace(s, jobs=args.jobs)
if args.engine is not None:
    s = replace(s, engine=args.engine)
half = replace(s, runs=max(s.runs // 2, 50))

out = {}
def record(name, fn):
    t0 = time.time()
    result = fn()
    out[name] = {"seconds": round(time.time()-t0,1)}
    print("="*80); print(f"## {name}  ({out[name]['seconds']}s)"); print(result.format()); print(flush=True)
    return result

record("table1", lambda: experiment_table1())
record("table2", lambda: experiment_table2(s))
record("fig1", lambda: experiment_fig1(s))
f4a = record("fig4a", lambda: experiment_fig4a(s))
record("fig4b", lambda: experiment_fig4b(s))
record("fig5_20KB", lambda: experiment_fig5(s))
record("fig5_8KB", lambda: experiment_fig5(s, footprint_bytes=SYNTHETIC_FOOTPRINTS["fits_l1"]))
record("fig5_160KB", lambda: experiment_fig5(half, footprint_bytes=SYNTHETIC_FOOTPRINTS["exceeds_l2"], iterations=4))
record("avg_perf", lambda: experiment_avg_performance(s))
record("ablation_footprint", lambda: experiment_footprint_ablation(half))
record("ablation_replacement", lambda: experiment_replacement_ablation(half))
print("ALL DONE")

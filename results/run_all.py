"""Generate the reference results quoted in EXPERIMENTS.md.

Each artefact is a registered study run through ``run_study`` without a
result store: each call drains its campaigns in this process through a
temporary store and keeps nothing.  To spread the studies' campaigns over
worker processes and keep them, run ``python -m repro study run all
--jobs N`` (bit-exact for any N).

    python results/run_all.py                  # numpy engine
    python results/run_all.py --engine reference   # the slow oracle
"""
import argparse, json, time
from dataclasses import replace
from repro.analysis import ExperimentSettings
from repro.engine import available_engines
from repro.study import run_study
from repro.workloads.synthetic import SYNTHETIC_FOOTPRINTS

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--runs", type=int, default=None,
                    help="measurement runs per campaign (default 300; overrides REPRO_RUNS/REPRO_FULL)")
parser.add_argument("--engine", choices=available_engines(), default=None,
                    help="simulation engine (all built-in engines are bit-exact)")
args = parser.parse_args()

# Env vars refine the 300-run default; explicit command-line flags win.
s = ExperimentSettings.from_env(runs=300)
if args.runs is not None:
    s = replace(s, runs=args.runs)
if args.engine is not None:
    s = replace(s, engine=args.engine)
half = replace(s, runs=max(s.runs // 2, 50))

out = {}
def record(name, study, settings, **params):
    t0 = time.time()
    result = run_study(study, settings, **params).result
    out[name] = {"seconds": round(time.time()-t0,1)}
    print("="*80); print(f"## {name}  ({out[name]['seconds']}s)"); print(result.format()); print(flush=True)
    return result

record("table1", "table1", ExperimentSettings())
record("table2", "table2", s)
record("fig1", "fig1", s)
record("fig4a", "fig4a", s)
record("fig4b", "fig4b", s)
record("fig5_20KB", "fig5", s)
record("fig5_8KB", "fig5", s, footprint_bytes=SYNTHETIC_FOOTPRINTS["fits_l1"])
record("fig5_160KB", "fig5", half, footprint_bytes=SYNTHETIC_FOOTPRINTS["exceeds_l2"], iterations=4)
record("avg_perf", "avg_perf", s)
record("ablation_footprint", "ablation_seg", half)
record("ablation_replacement", "ablation_repl", half)
print("ALL DONE")

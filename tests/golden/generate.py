"""Regenerate the golden ``--format text`` outputs of the nine paper studies.

The goldens pin every study's ``format()`` output at the settings below,
run through :func:`repro.study.run_study` without a store; it must stay
byte-identical across refactors.  Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py
"""
from dataclasses import replace
from pathlib import Path

from repro.analysis.experiments import ExperimentSettings
from repro.study import run_study

SMALL = ExperimentSettings(runs=40, scale=0.25)
FIG5 = dict(footprint_bytes=20 * 1024, iterations=3)

#: Golden id -> (study id, settings, study parameters) at golden scale.
GOLDEN_CASES = {
    "table1": ("table1", ExperimentSettings(), {}),
    "table2": ("table2", SMALL, {}),
    "fig1": ("fig1", SMALL, {"benchmark": "a2time"}),
    "fig4a": ("fig4a", SMALL, {}),
    "fig4b": ("fig4b", SMALL, {}),
    "fig5": ("fig5", SMALL, FIG5),
    "avg_perf": ("avg_perf", SMALL, {}),
    "ablation_seg": (
        "ablation_seg",
        ExperimentSettings(runs=30),
        {"footprints": (4 * 1024, 20 * 1024), "iterations": 2},
    ),
    "ablation_repl": ("ablation_repl", ExperimentSettings(runs=25, scale=0.25), {}),
    # Per-estimator baselines: the same fig5 campaigns projected through the
    # non-default registered estimators, so estimator refactors are pinned
    # as tightly as the protocol default (gumbel-pwm, covered by fig5.txt).
    "fig5_gumbel_mle": ("fig5", replace(SMALL, estimator="gumbel-mle"), FIG5),
    "fig5_exponential_excess": (
        "fig5",
        replace(SMALL, estimator="exponential-excess"),
        FIG5,
    ),
}


def main() -> None:
    golden_dir = Path(__file__).resolve().parent
    for identifier, (study, settings, params) in GOLDEN_CASES.items():
        text = run_study(study, settings, **params).result.format()
        (golden_dir / f"{identifier}.txt").write_text(text + "\n")
        print(f"wrote {identifier}.txt ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()

"""First-class pWCET analysis subsystem.

The paper's deliverable is the pWCET curve MBPTA projects from the cache
simulation (Sections 4.2–4.3); this package makes that analysis a
subsystem symmetric with :mod:`repro.engine` and :mod:`repro.study`:

* :mod:`repro.pwcet.evt` — Gumbel fitting (scalar and vectorized batch),
  block maxima, projection curves, empirical CCDFs;
* :mod:`repro.pwcet.admission` — the Wald-Wolfowitz/KS/ET admission
  battery, scalar and vectorized over ``(n_campaigns, n_runs)`` matrices,
  with Stephens' critical-value table behind the ET p-value;
* :mod:`repro.pwcet.registry` — the estimator registry
  (:func:`register_estimator` / :func:`get_estimator`, mirroring
  :func:`repro.engine.register_engine`) with capability flags;
* :mod:`repro.pwcet.estimators` — the built-in ``gumbel-pwm`` (default,
  bit-identical to the historical protocol), ``gumbel-mle`` and the
  peaks-over-threshold ``exponential-excess`` estimators;
* :mod:`repro.pwcet.protocol` — :func:`apply_mbpta` (one campaign) and
  :func:`apply_mbpta_batch` (a whole study's campaigns in one vectorized
  pass, bit-identical to the loop), plus bootstrap confidence intervals;
* :mod:`repro.pwcet.compare` — :func:`compare_estimators` cross-views;
* :mod:`repro.pwcet.persistence` — the persisted analysis payloads keyed
  by ``(spec_hash, analysis_config_hash)`` in the result store.
"""

from __future__ import annotations

from .admission import (
    IidAssessment,
    TestResult,
    exponential_tail_batch,
    exponential_tail_test,
    identical_distribution_batch,
    identical_distribution_test,
    iid_assessment,
    iid_assessment_batch,
    ks_two_sample_test,
    stephens_critical_value,
    stephens_p_value,
    wald_wolfowitz_batch,
    wald_wolfowitz_test,
)
from .compare import EstimatorComparison, compare_estimators
from .estimators import (
    BUILTIN_ESTIMATORS,
    ExponentialExcessEstimator,
    ExponentialTailCurve,
    ExponentialTailFit,
    GumbelMleEstimator,
    GumbelPwmEstimator,
    effective_block_size,
)
from .evt import (
    EULER_MASCHERONI,
    GumbelFit,
    PWcetCurve,
    block_maxima,
    block_maxima_batch,
    discarded_run_count,
    empirical_ccdf,
    fit_gumbel,
    fit_gumbel_batch,
)
from .persistence import analysis_from_payload, analysis_payload
from .protocol import (
    ANALYSIS_VERSION,
    BOOTSTRAP_CONFIDENCE,
    DEFAULT_EXCEEDANCE_PROBABILITIES,
    MBPTA_MIN_RUNS,
    MbptaConfig,
    MbptaResult,
    apply_mbpta,
    apply_mbpta_batch,
)
from .registry import (
    Estimator,
    TailEstimate,
    available_estimators,
    estimator_capabilities,
    get_estimator,
    register_estimator,
    unregister_estimator,
)

__all__ = [
    # evt
    "EULER_MASCHERONI",
    "GumbelFit",
    "PWcetCurve",
    "block_maxima",
    "block_maxima_batch",
    "discarded_run_count",
    "empirical_ccdf",
    "fit_gumbel",
    "fit_gumbel_batch",
    # admission
    "IidAssessment",
    "TestResult",
    "exponential_tail_batch",
    "exponential_tail_test",
    "identical_distribution_batch",
    "identical_distribution_test",
    "iid_assessment",
    "iid_assessment_batch",
    "ks_two_sample_test",
    "stephens_critical_value",
    "stephens_p_value",
    "wald_wolfowitz_batch",
    "wald_wolfowitz_test",
    # protocol
    "ANALYSIS_VERSION",
    "BOOTSTRAP_CONFIDENCE",
    "DEFAULT_EXCEEDANCE_PROBABILITIES",
    "MBPTA_MIN_RUNS",
    "MbptaConfig",
    "MbptaResult",
    "apply_mbpta",
    "apply_mbpta_batch",
    # registry + estimators
    "Estimator",
    "TailEstimate",
    "available_estimators",
    "estimator_capabilities",
    "get_estimator",
    "register_estimator",
    "unregister_estimator",
    "register_builtin_estimators",
    "BUILTIN_ESTIMATORS",
    "GumbelPwmEstimator",
    "GumbelMleEstimator",
    "ExponentialExcessEstimator",
    "ExponentialTailCurve",
    "ExponentialTailFit",
    "effective_block_size",
    # compare
    "EstimatorComparison",
    "compare_estimators",
    # persistence
    "analysis_payload",
    "analysis_from_payload",
]


def register_builtin_estimators() -> None:
    """Register (idempotently) the built-in estimators."""
    for estimator in BUILTIN_ESTIMATORS:
        register_estimator(estimator, replace=True)


register_builtin_estimators()

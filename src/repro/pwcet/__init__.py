"""First-class pWCET analysis subsystem.

The paper's deliverable is the pWCET curve MBPTA projects from the cache
simulation (Sections 4.2–4.3); this package makes that analysis a
subsystem symmetric with :mod:`repro.engine` and :mod:`repro.study`:

* :mod:`repro.pwcet.evt` — Gumbel fitting and block maxima over
  ``(n_campaigns, n_runs)`` matrices, projection curves, empirical CCDFs;
* :mod:`repro.pwcet.admission` — the Wald-Wolfowitz/KS/ET admission
  battery, vectorized over ``(n_campaigns, n_runs)`` matrices, with
  Stephens' critical-value table behind the ET p-value;
* :mod:`repro.pwcet.registry` — the estimator registry
  (:func:`register_estimator` / :func:`get_estimator`, mirroring
  :func:`repro.engine.register_engine`) with capability flags;
* :mod:`repro.pwcet.estimators` — the built-in ``gumbel-pwm`` (default),
  ``gumbel-mle`` and the peaks-over-threshold ``exponential-excess``
  estimators, each fitting a whole batch at once;
* :mod:`repro.pwcet.protocol` — :func:`apply_mbpta_batch` (a whole study's
  campaigns in one vectorized pass), plus bootstrap confidence intervals;
* :mod:`repro.pwcet.compare` — :func:`compare_estimators` cross-views;
* :mod:`repro.pwcet.persistence` — the persisted analysis payloads keyed
  by ``(spec_hash, analysis_config_hash)`` in the result store.

Every statistic has one implementation, over an ``(n_campaigns, n_runs)``
matrix; the single-campaign names (:func:`apply_mbpta`,
:func:`iid_assessment`, the three tests, :func:`block_maxima`,
:func:`fit_gumbel`, :meth:`Estimator.fit`) are one-row views of their
batch forms.  The package needs numpy only: the test-suite holds the
statistics, the maximum-likelihood fit included, to scipy's.

The names below load on first use (:mod:`repro._lazy`), so a caller that
only builds an :class:`MbptaConfig` does not import the estimators (its
analysis hash does: it reads the estimator's revision).
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    # evt
    "EULER_MASCHERONI": "evt",
    "GumbelFit": "evt",
    "PWcetCurve": "evt",
    "block_maxima": "evt",
    "block_maxima_batch": "evt",
    "discarded_run_count": "evt",
    "empirical_ccdf": "evt",
    "fit_gumbel": "evt",
    "fit_gumbel_batch": "evt",
    # admission
    "IidAssessment": "admission",
    "TestResult": "admission",
    "exponential_tail_batch": "admission",
    "exponential_tail_test": "admission",
    "identical_distribution_batch": "admission",
    "identical_distribution_test": "admission",
    "iid_assessment": "admission",
    "iid_assessment_batch": "admission",
    "stephens_critical_value": "admission",
    "stephens_p_value": "admission",
    "wald_wolfowitz_batch": "admission",
    "wald_wolfowitz_test": "admission",
    # protocol
    "ANALYSIS_VERSION": "protocol",
    "BOOTSTRAP_CONFIDENCE": "protocol",
    "DEFAULT_EXCEEDANCE_PROBABILITIES": "protocol",
    "MBPTA_MIN_RUNS": "protocol",
    "MbptaConfig": "protocol",
    "MbptaResult": "protocol",
    "apply_mbpta": "protocol",
    "apply_mbpta_batch": "protocol",
    # registry
    "Estimator": "registry",
    "TailEstimate": "registry",
    "available_estimators": "registry",
    "estimator_capabilities": "registry",
    "get_estimator": "registry",
    "register_estimator": "registry",
    "unregister_estimator": "registry",
    # estimators
    "BUILTIN_ESTIMATORS": "estimators",
    "GumbelPwmEstimator": "estimators",
    "GumbelMleEstimator": "estimators",
    "ExponentialExcessEstimator": "estimators",
    "ExponentialTailCurve": "estimators",
    "ExponentialTailFit": "estimators",
    "effective_block_size": "estimators",
    # compare
    "EstimatorComparison": "compare",
    "compare_estimators": "compare",
    # persistence
    "analysis_payload": "persistence",
    "analysis_from_payload": "persistence",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Serialisation of pWCET analyses for the result store.

A persisted analysis is everything :func:`repro.pwcet.apply_mbpta` produces
*except* the raw samples (those live in the campaign's lane ranges):
the admission-test outcomes, the fitted tail parameters, the projected
pWCET values and the bootstrap intervals.  Keyed by
``(spec_hash, analysis_config_hash)`` in the
:class:`~repro.study.store.ResultStore`, a warm ``study run`` rebuilds its
:class:`~repro.pwcet.protocol.MbptaResult` objects from these payloads
without a single EVT fit.

The helpers are deliberately forgiving in the store's style: payloads that
fail to deserialise (wrong version, unknown estimator kind, missing keys)
return ``None`` and the caller recomputes and overwrites.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .admission import IidAssessment, TestResult
from .estimators import ExponentialTailCurve, ExponentialTailFit
from .evt import GumbelFit, PWcetCurve
from .protocol import ANALYSIS_VERSION, MbptaConfig, MbptaResult

__all__ = ["analysis_payload", "analysis_from_payload"]


def _test_result_payload(result: TestResult) -> Dict[str, object]:
    return {
        "name": result.name,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "passed": result.passed,
        "details": result.details,
    }


def _test_result_from_payload(payload: Dict[str, object]) -> TestResult:
    return TestResult(
        name=str(payload["name"]),
        statistic=float(payload["statistic"]),
        p_value=float(payload["p_value"]),
        passed=bool(payload["passed"]),
        details=str(payload.get("details", "")),
    )


def _fit_payload(fit: object) -> Dict[str, object]:
    if isinstance(fit, GumbelFit):
        return {
            "kind": "gumbel",
            "location": fit.location,
            "scale": fit.scale,
            "method": fit.method,
            "sample_size": fit.sample_size,
        }
    if isinstance(fit, ExponentialTailFit):
        return {
            "kind": "exponential-excess",
            "threshold": fit.threshold,
            "scale": fit.scale,
            "exceedance_rate": fit.exceedance_rate,
            "method": fit.method,
            "sample_size": fit.sample_size,
        }
    raise TypeError(f"cannot persist tail fit of type {type(fit).__name__}")


def _rebuild_fit_and_curve(payload: Dict[str, object], block_size: int):
    kind = payload["kind"]
    if kind == "gumbel":
        fit = GumbelFit(
            location=float(payload["location"]),
            scale=float(payload["scale"]),
            method=str(payload["method"]),
            sample_size=int(payload["sample_size"]),
        )
        return fit, PWcetCurve(fit=fit, block_size=block_size)
    if kind == "exponential-excess":
        fit = ExponentialTailFit(
            threshold=float(payload["threshold"]),
            scale=float(payload["scale"]),
            exceedance_rate=float(payload["exceedance_rate"]),
            method=str(payload["method"]),
            sample_size=int(payload["sample_size"]),
        )
        return fit, ExponentialTailCurve(fit=fit, block_size=block_size)
    raise ValueError(f"unknown persisted fit kind {kind!r}")


def analysis_payload(result: MbptaResult) -> Dict[str, object]:
    """The JSON-able persisted form of one analysis (samples excluded)."""
    config = result.config
    return {
        "version": ANALYSIS_VERSION,
        "estimator": result.estimator,
        "config": {
            "block_size": config.block_size,
            "fit_method": config.fit_method,
            "significance": config.significance,
            "exceedance_probabilities": list(config.exceedance_probabilities),
            "bootstrap": config.bootstrap,
        },
        "fit": _fit_payload(result.fit),
        "block_size": result.curve.block_size,
        "discarded_runs": result.discarded_runs,
        "assessment": {
            "independence": _test_result_payload(result.assessment.independence),
            "identical_distribution": _test_result_payload(
                result.assessment.identical_distribution
            ),
            "gumbel_convergence": _test_result_payload(
                result.assessment.gumbel_convergence
            ),
        },
        "pwcet": {str(probability): value for probability, value in result.pwcet.items()},
        "pwcet_ci": {
            str(probability): [low, high]
            for probability, (low, high) in result.pwcet_ci.items()
        },
    }


def analysis_from_payload(
    payload: Optional[Dict[str, object]],
    samples: Sequence[float],
) -> Optional[MbptaResult]:
    """Rebuild an :class:`MbptaResult` from a persisted payload.

    ``samples`` are the campaign's execution times (stored separately under
    the scenario's spec hash).  Returns ``None`` when the payload is
    missing, version-mismatched or malformed — callers recompute.
    """
    if payload is None:
        return None
    try:
        if payload["version"] != ANALYSIS_VERSION:
            return None
        config_data = payload["config"]
        config = MbptaConfig(
            block_size=int(config_data["block_size"]),
            fit_method=str(config_data["fit_method"]),
            significance=float(config_data["significance"]),
            exceedance_probabilities=tuple(
                float(value) for value in config_data["exceedance_probabilities"]
            ),
            bootstrap=int(config_data.get("bootstrap", 0)),
        )
        fit, curve = _rebuild_fit_and_curve(
            payload["fit"], int(payload["block_size"])
        )
        assessment_data = payload["assessment"]
        assessment = IidAssessment(
            independence=_test_result_from_payload(assessment_data["independence"]),
            identical_distribution=_test_result_from_payload(
                assessment_data["identical_distribution"]
            ),
            gumbel_convergence=_test_result_from_payload(
                assessment_data["gumbel_convergence"]
            ),
        )
        return MbptaResult(
            samples=list(samples),
            assessment=assessment,
            fit=fit,
            curve=curve,
            pwcet={
                float(probability): float(value)
                for probability, value in payload["pwcet"].items()
            },
            config=config,
            estimator=str(payload["estimator"]),
            discarded_runs=int(payload["discarded_runs"]),
            pwcet_ci={
                float(probability): (float(bounds[0]), float(bounds[1]))
                for probability, bounds in payload.get("pwcet_ci", {}).items()
            },
        )
    except (KeyError, TypeError, ValueError):
        return None

"""Declarative scenario specifications.

A :class:`Scenario` is a frozen, hashable description of **one measurement
campaign**: which workload to trace, which cache hierarchy to replay it on,
how many runs, and which seed to derive the per-run seeds from.  Scenarios
carry no behaviour beyond building their inputs — planning, deduplication,
batching and execution live in :mod:`repro.study.runner`.

Every scenario exposes a **spec hash** (:meth:`Scenario.spec_hash`): the
SHA-256 of its canonical, simulation-determining JSON form.  Two scenarios
with the same spec hash are guaranteed to produce the same campaign, so the
hash keys the on-disk result store (:mod:`repro.study.store`).  Fields that
cannot change the simulated execution times are deliberately **excluded**
from the hash:

* ``engine`` and ``jobs`` — every built-in engine is bit-exact and queued
  campaigns are reassembled in lane order, so these only trade wall-clock
  time (see :mod:`repro.engine` and :mod:`repro.exec`);
* ``label`` — presentation only.

The MBPTA protocol is post-processing applied to the stored execution
times, not part of the measurement, so a scenario carries no analysis
config: each :class:`~repro.study.resultset.ResultSet` carries one.

:class:`Sweep` expands axis grids into scenario lists: the Cartesian product
of the axes is applied to a base scenario with :func:`dataclasses.replace`.
An axis value may be a mapping of several field overrides at once, which is
how coupled axes (for example a per-benchmark seed offset) are expressed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ..cache.hierarchy import HierarchyConfig
from ..cache.trace import Trace
from ..engine import DEFAULT_ENGINE
from ..platform.leon3 import Leon3Parameters, leon3_hierarchy, platform_setup
from ..workloads.eembc import eembc_spec, eembc_trace
from ..workloads.synthetic import synthetic_vector_trace

__all__ = [
    "SPEC_VERSION",
    "WorkloadSpec",
    "HierarchySpec",
    "Scenario",
    "Sweep",
    "expand",
    "workload_from_spec",
    "hierarchy_from_spec",
    "scenario_from_spec",
]

#: Version of the canonical spec layout.  Bump whenever the meaning of a
#: spec field changes; stored results with a different version are treated
#: as cache misses and re-simulated.
SPEC_VERSION = 1

#: Campaign kinds a scenario can request.
CAMPAIGN_KINDS = ("seeds", "layouts")


def _parameters_dict(parameters: Leon3Parameters) -> Dict[str, object]:
    return {f.name: getattr(parameters, f.name) for f in fields(parameters)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """Which program trace a scenario measures.

    ``kind`` selects the workload family: ``"eembc"`` (the EEMBC Automotive
    stand-ins, parameterised by ``name`` and ``scale``) or ``"synthetic"``
    (the vector-traversal kernel, parameterised by ``footprint_bytes`` and
    ``iterations``).  Use the :meth:`eembc` / :meth:`synthetic` constructors
    rather than filling fields by hand.
    """

    kind: str
    name: str = ""
    scale: float = 1.0
    footprint_bytes: int = 0
    iterations: int = 0

    def __post_init__(self) -> None:
        if self.kind == "eembc":
            if not self.name:
                raise ValueError("eembc workload needs a benchmark name")
            # Unknown kernels and unusable scales fail here, not in a worker.
            eembc_spec(self.name).scaled(self.scale)
            # Kept as a float, so the spec dict of scale=1 is the one
            # workload_from_spec rebuilds (and hashes) from JSON.
            object.__setattr__(self, "scale", float(self.scale))
        elif self.kind == "synthetic":
            if self.footprint_bytes <= 0 or self.iterations <= 0:
                raise ValueError(
                    "synthetic workload needs positive footprint_bytes and iterations"
                )
        else:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; expected 'eembc' or 'synthetic'"
            )

    @classmethod
    def eembc(cls, name: str, scale: float = 1.0) -> "WorkloadSpec":
        """One of the 11 EEMBC Automotive stand-ins."""
        return cls(kind="eembc", name=name, scale=scale)

    @classmethod
    def synthetic(cls, footprint_bytes: int, iterations: int) -> "WorkloadSpec":
        """The synthetic vector-traversal kernel of Section 4."""
        return cls(
            kind="synthetic", footprint_bytes=footprint_bytes, iterations=iterations
        )

    @property
    def label(self) -> str:
        if self.kind == "eembc":
            return self.name
        if self.footprint_bytes % 1024 == 0:
            return f"synthetic_{self.footprint_bytes // 1024}KB"
        return f"synthetic_{self.footprint_bytes}B"  # exact, no KB collisions

    def build_trace(self) -> Trace:
        """Materialise the workload's memory-access trace."""
        if self.kind == "eembc":
            return eembc_trace(self.name, scale=self.scale)
        return synthetic_vector_trace(self.footprint_bytes, iterations=self.iterations)

    def spec_dict(self) -> Dict[str, object]:
        if self.kind == "eembc":
            return {"kind": "eembc", "name": self.name, "scale": self.scale}
        return {
            "kind": "synthetic",
            "footprint_bytes": self.footprint_bytes,
            "iterations": self.iterations,
        }


# ---------------------------------------------------------------------------
# Hierarchies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchySpec:
    """Which cache hierarchy a scenario replays on.

    Either a **named platform setup** (``setup`` in
    :data:`repro.platform.leon3.PLATFORM_SETUPS`: ``rm``, ``hrp``,
    ``modulo``, ``xor``) or a **custom LEON3 configuration** built from the
    four placement/replacement fields (``setup`` empty), mirroring
    :func:`repro.platform.leon3.leon3_hierarchy`.  ``parameters`` carries
    the cache geometry and timings and is part of the spec hash.
    """

    setup: str = ""
    l1_placement: str = "rm"
    l2_placement: str = "hrp"
    l1_replacement: str = "random"
    l2_replacement: str = "random"
    parameters: Leon3Parameters = field(default_factory=Leon3Parameters)
    with_l2: bool = True

    def __post_init__(self) -> None:
        self.config()  # an invalid hierarchy fails here, not in a worker

    @classmethod
    def named(
        cls, setup: str, parameters: Leon3Parameters | None = None
    ) -> "HierarchySpec":
        """One of the evaluation's named setups (``rm``/``hrp``/``modulo``/``xor``)."""
        return cls(setup=setup, parameters=parameters or Leon3Parameters())

    @classmethod
    def custom(
        cls,
        l1_placement: str = "rm",
        l2_placement: str = "hrp",
        l1_replacement: str = "random",
        l2_replacement: str = "random",
        parameters: Leon3Parameters | None = None,
        with_l2: bool = True,
    ) -> "HierarchySpec":
        """A custom LEON3 hierarchy (mirrors :func:`leon3_hierarchy`)."""
        return cls(
            setup="",
            l1_placement=l1_placement,
            l2_placement=l2_placement,
            l1_replacement=l1_replacement,
            l2_replacement=l2_replacement,
            parameters=parameters or Leon3Parameters(),
            with_l2=with_l2,
        )

    @property
    def label(self) -> str:
        if self.setup:
            return self.setup
        return f"{self.l1_placement}+{self.l1_replacement}"

    def config(self) -> HierarchyConfig:
        """Build the concrete :class:`HierarchyConfig`."""
        if self.setup:
            return platform_setup(
                self.setup, parameters=self.parameters, with_l2=self.with_l2
            )
        return leon3_hierarchy(
            l1_placement=self.l1_placement,
            l2_placement=self.l2_placement,
            l1_replacement=self.l1_replacement,
            l2_replacement=self.l2_replacement,
            parameters=self.parameters,
            with_l2=self.with_l2,
        )

    def spec_dict(self) -> Dict[str, object]:
        spec: Dict[str, object] = {
            "parameters": _parameters_dict(self.parameters),
            "with_l2": self.with_l2,
        }
        if self.setup:
            spec["setup"] = self.setup
        else:
            spec.update(
                l1_placement=self.l1_placement,
                l2_placement=self.l2_placement,
                l1_replacement=self.l1_replacement,
                l2_replacement=self.l2_replacement,
            )
        return spec


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One measurement campaign, declaratively.

    ``campaign`` selects the collection protocol: ``"seeds"`` varies the
    hierarchy seed across runs (time-randomised platforms), ``"layouts"``
    varies the memory layout with a fixed seed (the deterministic
    high-water-mark practice).  The effective campaign master seed is
    ``master_seed + seed_offset`` — sweeps use additive offsets to give
    every grid point an independent seed stream.

    ``engine``, ``jobs`` and ``label`` do not affect the simulated
    execution times and are excluded from :meth:`spec_hash` (see the
    module docstring).
    """

    workload: WorkloadSpec
    hierarchy: HierarchySpec
    runs: int
    master_seed: int = 20160605
    seed_offset: int = 0
    campaign: str = "seeds"
    engine: str = DEFAULT_ENGINE
    jobs: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.campaign not in CAMPAIGN_KINDS:
            raise ValueError(
                f"unknown campaign kind {self.campaign!r}; expected one of {CAMPAIGN_KINDS}"
            )
        if self.campaign == "layouts" and self.workload.kind != "eembc":
            raise ValueError(
                "layout campaigns are only defined for eembc workloads, "
                f"not {self.workload.kind!r}"
            )

    @property
    def effective_seed(self) -> int:
        """The campaign master seed actually used (base + offset)."""
        return self.master_seed + self.seed_offset

    @property
    def display_label(self) -> str:
        """The scenario's name inside a result set."""
        return self.label or f"{self.workload.label}/{self.hierarchy.label}"

    def spec_dict(self) -> Dict[str, object]:
        """Canonical, simulation-determining form (the hash input)."""
        return {
            "version": SPEC_VERSION,
            "workload": self.workload.spec_dict(),
            "hierarchy": self.hierarchy.spec_dict(),
            "campaign": self.campaign,
            "runs": self.runs,
            "seed": self.effective_seed,
        }

    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON spec; keys the result store.

        Computed once per instance and kept in its ``__dict__``: the fields
        are frozen, and :func:`dataclasses.replace` builds a new instance.
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            canonical = json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(canonical.encode("ascii")).hexdigest()
            self.__dict__["_spec_hash"] = cached
        return cached


# ---------------------------------------------------------------------------
# Spec deserialization
#
# The canonical spec dicts produced by the spec_dict() methods round-trip:
# a scenario rebuilt from its own spec dict hashes identically.  This is
# what makes shard tasks (repro.exec) self-contained — a worker in another
# process, on another host, rebuilds the exact simulation from JSON alone.
#
# Numeric and boolean fields are checked, not coerced: int() of 100.9 or
# bool() of "false" would simulate another scenario than the one sent.
# ---------------------------------------------------------------------------

def _spec_int(spec: Mapping[str, object], key: str, prefix: str = "") -> int:
    """An integer spec field: an ``int`` (JSON ``2``, not ``2.0``), not a ``bool``."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{prefix}{key} must be an integer, got {value!r}")
    return value


def workload_from_spec(spec: Mapping[str, object]) -> WorkloadSpec:
    """Rebuild a :class:`WorkloadSpec` from its canonical spec dict."""
    kind = str(spec["kind"])
    if kind == "eembc":
        scale = spec["scale"]
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise ValueError(f"scale must be a number, got {scale!r}")
        return WorkloadSpec.eembc(str(spec["name"]), scale=float(scale))
    if kind == "synthetic":
        return WorkloadSpec.synthetic(
            _spec_int(spec, "footprint_bytes"), _spec_int(spec, "iterations")
        )
    raise ValueError(f"unknown workload kind {kind!r} in spec")


def hierarchy_from_spec(spec: Mapping[str, object]) -> HierarchySpec:
    """Rebuild a :class:`HierarchySpec` from its canonical spec dict."""
    values = dict(spec["parameters"])  # type: ignore[call-overload]
    parameters = Leon3Parameters(
        **{key: _spec_int(values, key, "parameters.") for key in values}
    )
    with_l2 = spec["with_l2"]
    if not isinstance(with_l2, bool):
        raise ValueError(f"with_l2 must be true or false, got {with_l2!r}")
    if "setup" in spec:
        return HierarchySpec(
            setup=str(spec["setup"]), parameters=parameters, with_l2=with_l2
        )
    return HierarchySpec(
        setup="",
        l1_placement=str(spec["l1_placement"]),
        l2_placement=str(spec["l2_placement"]),
        l1_replacement=str(spec["l1_replacement"]),
        l2_replacement=str(spec["l2_replacement"]),
        parameters=parameters,
        with_l2=with_l2,
    )


def scenario_from_spec(spec: Mapping[str, object]) -> Scenario:
    """Rebuild a :class:`Scenario` from its canonical spec dict.

    Only simulation-determining fields are part of the spec, so the rebuilt
    scenario carries defaults for ``engine``/``jobs``/``label`` —
    by construction it has the **same spec hash** as the original.  The
    spec's effective seed becomes the master seed (offset zero), which the
    hash treats identically.
    """
    version = spec.get("version")
    if version != SPEC_VERSION:
        raise ValueError(
            f"spec version {version!r} does not match this build's "
            f"SPEC_VERSION {SPEC_VERSION}; refusing to rebuild the scenario"
        )
    return Scenario(
        workload=workload_from_spec(spec["workload"]),  # type: ignore[arg-type]
        hierarchy=hierarchy_from_spec(spec["hierarchy"]),  # type: ignore[arg-type]
        runs=_spec_int(spec, "runs"),
        master_seed=_spec_int(spec, "seed"),
        seed_offset=0,
        campaign=str(spec["campaign"]),
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

#: An axis value: either a plain value for the field named by the axis, or a
#: mapping of several Scenario field overrides applied together.
AxisValue = Union[object, Mapping[str, object]]


@dataclass
class Sweep:
    """A grid of scenarios: the Cartesian product of axes over a base.

    ``axes`` maps an axis name to its values, expanded in insertion order
    (the first axis varies slowest).  A value that is a mapping overrides
    several scenario fields at once, so coupled quantities stay on one axis::

        Sweep(
            base=Scenario(workload=..., hierarchy=..., runs=300),
            axes={
                "benchmark": [
                    {"workload": WorkloadSpec.eembc(b), "seed_offset": i, "label": b}
                    for i, b in enumerate(eembc_kernel_names())
                ],
                "hierarchy": [HierarchySpec.named("rm"), HierarchySpec.named("hrp")],
            },
        )

    When several axes override ``seed_offset`` the offsets **add** (each
    axis contributes an independent shift of the seed stream); any other
    field set by two axes is a conflict and raises ``ValueError``.
    """

    base: Scenario
    axes: Mapping[str, Sequence[AxisValue]]

    def scenarios(self) -> List[Scenario]:
        """Expand the grid into a scenario list (first axis slowest)."""
        names = list(self.axes)
        for name in names:
            if not len(self.axes[name]):
                raise ValueError(f"sweep axis {name!r} has no values")
        expanded: List[Scenario] = []
        for combination in itertools.product(*(self.axes[name] for name in names)):
            overrides: Dict[str, object] = {}
            seed_offset = self.base.seed_offset
            for axis, value in zip(names, combination):
                entries = (
                    dict(value) if isinstance(value, Mapping) else {axis: value}
                )
                for fieldname, fieldvalue in entries.items():
                    if fieldname == "seed_offset":
                        seed_offset += int(fieldvalue)  # offsets add across axes
                    elif fieldname in overrides:
                        raise ValueError(
                            f"sweep axes conflict on field {fieldname!r} "
                            f"(axis {axis!r} sets it again)"
                        )
                    else:
                        overrides[fieldname] = fieldvalue
            expanded.append(replace(self.base, seed_offset=seed_offset, **overrides))
        return expanded


def expand(plan: Union[Sweep, Sequence[Scenario]]) -> List[Scenario]:
    """Normalise a study plan (a sweep or an explicit list) to scenarios."""
    if isinstance(plan, Sweep):
        return plan.scenarios()
    return list(plan)

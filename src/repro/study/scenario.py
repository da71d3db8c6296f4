"""Declarative scenario specifications.

A :class:`Scenario` is a frozen, hashable description of **one measurement
campaign**: which workload to trace, which cache hierarchy to replay it on,
how many runs, and which seed to derive the per-run seeds from.  Scenarios
carry no behaviour beyond building their inputs — planning, deduplication,
batching and execution live in :mod:`repro.study.runner`.

Every scenario exposes a **spec hash** (:meth:`Scenario.spec_hash`): the
SHA-256 of its canonical, simulation-determining JSON form.  Two scenarios
with the same spec hash are guaranteed to produce the same campaign, so the
hash keys the on-disk result store (:mod:`repro.study.store`).  The
presentation-only ``label`` is **excluded** from the hash, and so are the
cache parameters a hierarchy without an L2 never reads.

A scenario names no engine, worker count or analysis config: engines are
bit-exact and sharded campaigns read back in lane order, and MBPTA is
post-processing of the stored execution times, so each call of
:func:`~repro.study.runner.execute_scenarios` takes all three once.

:class:`Sweep` expands axis grids into scenario lists: the Cartesian product
of the axes is applied to a base scenario with :func:`dataclasses.replace`.
An axis value may be a mapping of several field overrides at once, which is
how coupled axes (for example a per-benchmark seed offset) are expressed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from hashlib import sha256
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ..cache.hierarchy import HierarchyConfig
from ..cache.trace import Trace
from ..platform.leon3 import Leon3Parameters, leon3_hierarchy, platform_setup
from ..workloads.eembc import eembc_spec, eembc_trace
from ..workloads.synthetic import synthetic_vector_trace

__all__ = [
    "SPEC_VERSION",
    "WorkloadSpec",
    "workload_label",
    "hierarchy_label",
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

#: Distinct hierarchies and spec hashes one process keeps (see
#: :func:`_hierarchy_config` and :func:`_spec_hash`): ``study run all``
#: plans 58 distinct campaigns on 7 hierarchies, and a server keeps what
#: its clients send within these bounds.
HIERARCHY_MEMO_SIZE = 256
SPEC_HASH_MEMO_SIZE = 4096


#: The :class:`Leon3Parameters` only an L2 reads (the L1s write through),
#: left out of the spec of a hierarchy without an L2.
L2_PARAMETERS = ("l2_size_bytes", "l2_ways", "l2_hit_cycles", "writeback_cycles")


def _parameters_dict(parameters: Leon3Parameters, with_l2: bool) -> Dict[str, object]:
    return {
        f.name: getattr(parameters, f.name)
        for f in fields(parameters)
        if with_l2 or f.name not in L2_PARAMETERS
    }


def _check_int(name: str, value: object) -> None:
    """An integer field must be an ``int``, not a ``bool`` or a ``float``:
    ``7.0 == 7`` and ``True == 1``, yet their canonical JSON differs, so a
    coerced value would store one campaign under two spec hashes."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def workload_label(spec: Mapping[str, object]) -> str:
    """The display label of a canonical :meth:`WorkloadSpec.spec_dict`."""
    if spec["kind"] == "eembc":
        return str(spec["name"])
    footprint = int(spec["footprint_bytes"])  # type: ignore[call-overload]
    if footprint % 1024 == 0:
        return f"synthetic_{footprint // 1024}KB"
    return f"synthetic_{footprint}B"  # exact, no KB collisions


def hierarchy_label(spec: Mapping[str, object]) -> str:
    """The display label of a canonical :meth:`HierarchySpec.spec_dict`."""
    if "setup" in spec:
        return str(spec["setup"])
    return f"{spec['l1_placement']}+{spec['l1_replacement']}"


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
        _check_int("footprint_bytes", self.footprint_bytes)
        _check_int("iterations", self.iterations)
        if self.kind == "eembc":
            if not self.name:
                raise ValueError("eembc workload needs a benchmark name")
            # Unknown kernels and unusable scales fail here, not in a worker.
            kernel = eembc_spec(self.name)
            if kernel.name != self.name:
                # One campaign, one spec hash: no initials or case variants.
                raise ValueError(
                    f"EEMBC kernel {self.name!r} must be named exactly: {kernel.name!r}"
                )
            kernel.scaled(self.scale)
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

    @cached_property
    def label(self) -> str:
        return workload_label(self.spec_dict())

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
    ``modulo``) or a **custom LEON3 configuration** built from the four
    placement/replacement fields (``setup`` empty), mirroring
    :func:`repro.platform.leon3.leon3_hierarchy`.  Names are matched
    exactly, so one campaign has one spec hash.  ``parameters`` carries
    the cache geometry and timings and is part of the spec hash.  Without
    an L2 (``with_l2`` false) the L2 policy names are still checked, but
    they and the :data:`L2_PARAMETERS` are not part of the spec hash: they
    simulate nothing.
    """

    setup: str = ""
    l1_placement: str = "rm"
    l2_placement: str = "hrp"
    l1_replacement: str = "random"
    l2_replacement: str = "random"
    parameters: Leon3Parameters = field(default_factory=Leon3Parameters)
    with_l2: bool = True

    def __post_init__(self) -> None:
        # Checked before the memoized config: 1 == True, so a config built
        # for with_l2=True would answer for with_l2=1.
        if not isinstance(self.with_l2, bool):
            raise ValueError(f"with_l2 must be true or false, got {self.with_l2!r}")
        self.config()  # an invalid hierarchy fails here, not in a worker

    @classmethod
    def named(
        cls, setup: str, parameters: Leon3Parameters | None = None
    ) -> "HierarchySpec":
        """One of the evaluation's named setups (``rm``/``hrp``/``modulo``)."""
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

    @cached_property
    def label(self) -> str:
        return hierarchy_label(self.spec_dict())

    def config(self) -> HierarchyConfig:
        """The concrete :class:`HierarchyConfig`, built once per distinct spec."""
        return _hierarchy_config(self)

    def spec_dict(self) -> Dict[str, object]:
        spec: Dict[str, object] = {
            "parameters": _parameters_dict(self.parameters, self.with_l2),
            "with_l2": self.with_l2,
        }
        if self.setup:
            spec["setup"] = self.setup
        else:
            spec.update(
                l1_placement=self.l1_placement, l1_replacement=self.l1_replacement
            )
            if self.with_l2:
                spec.update(
                    l2_placement=self.l2_placement, l2_replacement=self.l2_replacement
                )
        return spec


@lru_cache(maxsize=HIERARCHY_MEMO_SIZE)
def _hierarchy_config(spec: HierarchySpec) -> HierarchyConfig:
    """Build and check ``spec``'s :class:`HierarchyConfig`; one per distinct spec.

    A spec and its config are frozen, and every spec field is type-checked
    on construction, so equal specs build equal configs: plans, the run
    table, the server and the shard runner share one instead of building
    three :class:`~repro.cache.cache.CacheConfig` objects per spec.  An
    invalid spec raises every time (an exception is not cached).
    """
    if spec.setup:
        return platform_setup(spec.setup, parameters=spec.parameters, with_l2=spec.with_l2)
    return leon3_hierarchy(
        l1_placement=spec.l1_placement,
        l2_placement=spec.l2_placement,
        l1_replacement=spec.l1_replacement,
        l2_replacement=spec.l2_replacement,
        parameters=spec.parameters,
        with_l2=spec.with_l2,
    )


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

    ``label`` does not affect the simulated execution times and is
    excluded from :meth:`spec_hash` (see the module docstring).
    """

    workload: WorkloadSpec
    hierarchy: HierarchySpec
    runs: int
    master_seed: int = 20160605
    seed_offset: int = 0
    campaign: str = "seeds"
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("runs", "master_seed", "seed_offset"):
            _check_int(name, getattr(self, name))
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

    def _spec_key(self) -> Tuple[WorkloadSpec, HierarchySpec, str, int, int]:
        """Every field of the spec dict besides its version."""
        return self.workload, self.hierarchy, self.campaign, self.runs, self.effective_seed

    def spec_dict(self) -> Dict[str, object]:
        """Canonical, simulation-determining form (the hash input)."""
        return _spec_dict(*self._spec_key())

    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON spec; keys the result store.

        Computed once per distinct spec (:func:`_spec_hash`), and kept in
        the instance's ``__dict__``: the fields are frozen, and
        :func:`dataclasses.replace` builds a new instance.
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            cached = self.__dict__["_spec_hash"] = _spec_hash(*self._spec_key())
        return cached


def _spec_dict(
    workload: WorkloadSpec, hierarchy: HierarchySpec, campaign: str, runs: int, seed: int
) -> Dict[str, object]:
    return {
        "version": SPEC_VERSION,
        "workload": workload.spec_dict(),
        "hierarchy": hierarchy.spec_dict(),
        "campaign": campaign,
        "runs": runs,
        "seed": seed,
    }


@lru_cache(maxsize=SPEC_HASH_MEMO_SIZE)
def _spec_hash(
    workload: WorkloadSpec, hierarchy: HierarchySpec, campaign: str, runs: int, seed: int
) -> str:
    """The spec hash of one campaign, computed once per distinct key.

    The key holds frozen values whose types are checked on construction
    (an ``int`` is never a ``bool`` or a ``float``, ``scale`` is always a
    float), so equal keys have the same canonical JSON and so the same
    hash: a warm command rebuilds its plan's scenarios and hashes none.
    """
    spec = _spec_dict(workload, hierarchy, campaign, runs, seed)
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Spec deserialization
#
# The canonical spec dicts produced by the spec_dict() methods round-trip:
# a scenario rebuilt from its own spec dict hashes identically.  This is
# what makes shard tasks (repro.exec) self-contained — a pool worker in
# another process rebuilds the exact simulation from JSON alone.
#
# Numeric and boolean fields are checked, not coerced: int() of 100.9 or
# bool() of "false" would simulate another scenario than the one sent.  The
# constructors check their own fields; _spec_int checks those whose JSON
# name they would not name (``seed``, ``parameters.*``).
# ---------------------------------------------------------------------------

def _spec_int(spec: Mapping[str, object], key: str, prefix: str = "") -> int:
    """An integer spec field: an ``int`` (JSON ``2``, not ``2.0``), not a ``bool``."""
    value = spec[key]
    _check_int(prefix + key, value)
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
            spec["footprint_bytes"], spec["iterations"]  # type: ignore[arg-type]
        )
    raise ValueError(f"unknown workload kind {kind!r} in spec")


def hierarchy_from_spec(spec: Mapping[str, object]) -> HierarchySpec:
    """Rebuild a :class:`HierarchySpec` from its canonical spec dict.

    Without an L2 the spec may omit the L2 policy names and the
    :data:`L2_PARAMETERS` (its canonical form does), which then take their
    defaults; an older entry's names are read and checked.
    """
    values = dict(spec["parameters"])  # type: ignore[call-overload]
    parameters = Leon3Parameters(
        **{key: _spec_int(values, key, "parameters.") for key in values}
    )
    with_l2 = spec["with_l2"]
    if "setup" in spec:
        return HierarchySpec(
            setup=str(spec["setup"]),
            parameters=parameters,
            with_l2=with_l2,  # type: ignore[arg-type]
        )
    # Required with an L2; a mistyped with_l2 is HierarchySpec's error.
    l2_names = {
        key: str(spec[key])
        for key in ("l2_placement", "l2_replacement")
        if key in spec or with_l2 is True
    }
    return HierarchySpec(
        setup="",
        l1_placement=str(spec["l1_placement"]),
        l1_replacement=str(spec["l1_replacement"]),
        parameters=parameters,
        with_l2=with_l2,  # type: ignore[arg-type]
        **l2_names,
    )


def scenario_from_spec(spec: Mapping[str, object]) -> Scenario:
    """Rebuild a :class:`Scenario` from its canonical spec dict.

    Only simulation-determining fields are part of the spec, so the rebuilt
    scenario carries the default (empty) ``label``, and a hierarchy without
    an L2 the default :data:`L2_PARAMETERS` — by construction it has the
    **same spec hash** as the original.  The spec's effective seed becomes
    the master seed (offset zero), which the hash treats identically.
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
        runs=spec["runs"],  # type: ignore[arg-type]
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

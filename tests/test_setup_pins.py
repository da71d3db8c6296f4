"""Pins of the campaign set-up outputs: traces, compiled traces and plans.

Every trace a study plans is pinned by a sha256 digest of its name, its
access kinds (one byte each) and its 32-bit addresses (little-endian), so
any change to a workload generator or to :func:`relocate_trace` that moves
one access shows here before it shows as a golden diff.  The compiled
trace and the plan compiler are held to their scalar rules, which live on
in this file as oracles: first-appearance line numbering, and the
singleton guard rule of :mod:`repro.engine.plan`.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentSettings
from repro.cache.cache import CacheConfig
from repro.cache.fastsim import FETCH_KIND, STORE_KIND, CompiledTrace
from repro.cache.hierarchy import HierarchyConfig, MemoryTimings
from repro.cache.trace import Trace
from repro.engine.plan import compile_plan
from repro.study.registry import get_study
from repro.workloads.base import relocate_trace
from repro.workloads.eembc import eembc_kernel_names, eembc_trace
from repro.workloads.synthetic import synthetic_vector_trace


def trace_digest(trace):
    """``(sha256 hex digest, length)`` of ``trace``'s name, kinds and addresses."""
    digest = hashlib.sha256(trace.name.encode())
    digest.update(np.asarray(trace.kinds, dtype="<u1").tobytes())
    digest.update(np.asarray(trace.addresses, dtype="<u4").tobytes())
    return digest.hexdigest(), len(trace)


EEMBC_DIGESTS = {
    ("a2time", 1.0): ("9c977d934c8a5bf97d415146f1d1bba7eae6088d700b72845fa2661886b8abce", 12240),
    ("basefp", 1.0): ("26dde9b72a880958e51993063e3f8c512628e0e2cb625c7c7e538203946a68c8", 13088),
    ("bitmnp", 1.0): ("66763700b342f96dbb66adadca3a809b72f22650fe2951855b3276c8ba3da95d", 13572),
    ("cacheb", 1.0): ("076e636cd52ec72c11c85df36dfa50b4aad2a89eb6943fe5e3763d3647aa782e", 7872),
    ("canrdr", 1.0): ("854f2823f6206a5a42acb1482b4be58775e9b5b84b3c921ce68f59b6eec0ff92", 13160),
    ("matrix", 1.0): ("8817b5ce3c322a655dd22c8bdeeb6ad34a4dfb5505d129ebcf5c933c43fbb193", 10944),
    ("pntrch", 1.0): ("4ce7872dda5670b7f8d724a16510442a16b8d28c7ef4f62511811f1a8bdbc9f8", 8568),
    ("puwmod", 1.0): ("f6d5562f73910aea18176288902ec892489021067038109920b65623ba349c09", 12324),
    ("rspeed", 1.0): ("a65dee70495d2b7a4ed34f41dd55f2fc01912be76a7327f0d4e24f5a2cf3d2e0", 11850),
    ("tblook", 1.0): ("80a458efc5be24b607a69701fc9f60f2daa70072282f461db700dc342df01f41", 11240),
    ("ttsprk", 1.0): ("32059f9eaf856e8340876c697cdc2cab0536dcc82e2ab475df471ea5aa9e115f", 11232),
    ("a2time", 0.25): ("8b3b2f605ea9d1cd730d87efe79d90b013c12931ae1ef26d8c7252182f19feed", 3060),
    ("basefp", 0.25): ("e02f9fae5ecf789b219440d511434f69e09c040e26c8e2485cb86c59aa4024d3", 3272),
    ("bitmnp", 0.25): ("424ff23dfd52ecedf657c7e6cce04a92babd4da4e4ead33f4ce4a1447fdcf719", 3132),
    ("cacheb", 0.25): ("beb801f5e7b5747232bfda09300dd683753a1f0548cf51986a5bbb0c7b0648aa", 1968),
    ("canrdr", 0.25): ("a4aad15904146b51d8e522f023f9652dcd09c2d2863fd98e7f83f4bac80af006", 3290),
    ("matrix", 0.25): ("69897700f640715eeb9477e4bcaf3f18e240c9bf11d6f5692b6bf92fe02d1ed3", 2736),
    ("pntrch", 0.25): ("817184ac8e386caf9eb5b44ea3ef197836680058e9c237b617252aa5e94c514a", 2142),
    ("puwmod", 0.25): ("2b93b4841fe5887c8a88dbf034be9a46f6964cb47f557ffca27d8a167f7e3893", 2844),
    ("rspeed", 0.25): ("c4f630c777dc6e2bf0842c762609dff57905e2a433c9d4d9c958c0d9ae24a3f3", 3160),
    ("tblook", 0.25): ("34d767a6ce324eeeb1ee8329ca0102f22209a8b74bd148484df24a2a592e3f63", 2810),
    ("ttsprk", 0.25): ("f332aff3aba1f14a837658dd586000c5faefa31f44c074880b87e9b53180c73e", 2808),
}
SYNTHETIC_DIGESTS = {
    (20480, 12): ("4e7b9ee0c35bb0dcdb544b3312a0f428771196b839b570b4b99dbe2e37112dc8", 23040),
    (4096, 8): ("a79276da39365f47a7cddf8c5ffa4ec96ab26a806093d6c32c789d9f99e08414", 3072),
    (8192, 8): ("7ce9f5aa5c6b991785fb46b4e44bb055ed6ac39107f92b2e8e9b8e3e626ad99b", 6144),
    (20480, 8): ("e21cde9322f5e02957d6aa3b65bf244ffa967855735d7726ebcdee888b25954a", 15360),
    (40960, 8): ("486ceb2dae88d0d20b30daef04ba8ae7f5f63f7b3ebadbe3ef809cdf0899dfad", 30720),
}
STORE_EVERY_DIGEST = ("96217f9bf968aabcbf439368e3627ded95e38b37295df276aeec7416b6d00b7e", 1662)
RELOCATED_DIGEST = ("046fa4e70c6b14b8c98af50d01042e95e75abdb78d5bb051e27b1bc51c189a5b", 11240)


class TestTraceDigests:
    @pytest.mark.parametrize("name, scale", sorted(EEMBC_DIGESTS))
    def test_eembc_stand_in(self, name, scale):
        assert trace_digest(eembc_trace(name, scale=scale)) == EEMBC_DIGESTS[name, scale]

    def test_every_stand_in_is_pinned(self):
        assert {name for name, _ in EEMBC_DIGESTS} == set(eembc_kernel_names())

    def test_planned_synthetic_traces(self):
        planned = {}
        for study in ("fig5", "ablation_seg"):
            for scenario in get_study(study).plan(ExperimentSettings(runs=40)):
                workload = scenario.workload
                if workload.kind == "synthetic":
                    key = (workload.footprint_bytes, workload.iterations)
                    planned[key] = trace_digest(workload.build_trace())
        assert planned == SYNTHETIC_DIGESTS

    def test_store_every_variant(self):
        trace = synthetic_vector_trace(
            4096, iterations=3, store_every=3, loads_per_element=2
        )
        assert trace_digest(trace) == STORE_EVERY_DIGEST

    def test_relocated_trace(self):
        trace = relocate_trace(eembc_trace("tblook"), code_shift=4032, data_shift=192)
        assert trace_digest(trace) == RELOCATED_DIGEST


# ----------------------------------------------------------- scalar oracles


def first_appearance(trace, line_size):
    """The compiled trace's line table and ids, one access at a time."""
    unique = {}
    ids = []
    for address in np.asarray(trace.addresses).tolist():
        line = address & ~(line_size - 1) & 0xFFFFFFFF
        ids.append(unique.setdefault(line, len(unique)))
    return list(unique), ids


def scalar_plan(config, compiled):
    """The singleton guard rule, one access at a time: ``(steps, elided,
    elided store memory accesses)``."""
    has_l2 = config.l2 is not None
    touches = [c.replacement == "lru" for c in (config.il1, config.dl1)]
    steps, elided, elided_store_mem = [], [0, 0], 0
    guards = [None, None]
    kinds = np.asarray(compiled.kinds).tolist()
    for kind, uid in zip(kinds, np.asarray(compiled.line_ids).tolist()):
        slot = 0 if kind == FETCH_KIND else 1
        is_store = kind == STORE_KIND
        sure_hit = guards[slot] == uid
        if sure_hit and not (is_store and has_l2):
            elided[slot] += 1
            elided_store_mem += is_store
            continue
        steps.append((slot, uid, is_store, sure_hit))
        if not is_store:
            guards[slot] = uid
        elif touches[slot] and not sure_hit:
            guards[slot] = None
    return steps, {"il1": elided[0], "dl1": elided[1]}, elided_store_mem


def hierarchy(replacement, with_l2):
    l1 = dict(size_bytes=256, ways=2, line_size=32, placement="rm", replacement=replacement)
    return HierarchyConfig(
        il1=CacheConfig(name="IL1", **l1),
        dl1=CacheConfig(name="DL1", **l1),
        l2=(
            CacheConfig(
                name="L2", size_bytes=1024, ways=4, line_size=32,
                placement="hrp", replacement="random",
            )
            if with_l2
            else None
        ),
        timings=MemoryTimings(),
    )


#: Access streams over a handful of lines, so that repeats, guards and
#: guard-voiding stores all occur.
streams = st.lists(
    st.tuples(st.sampled_from(["fetch", "load", "store"]), st.integers(0, 5)),
    max_size=80,
)


def stream_trace(accesses, stride=32):
    trace = Trace(name="stream")
    for kind, line in accesses:
        getattr(trace, kind)(0x4000_0000 + line * stride)
    return trace


class TestCompiledTraceOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        addresses=st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 300), max_size=60),
        line_size=st.sampled_from([4, 16, 32, 64]),
    )
    def test_first_appearance_numbering(self, addresses, line_size):
        trace = Trace(kinds=[1] * len(addresses), addresses=addresses)
        compiled = CompiledTrace(trace, line_size=line_size)
        unique, ids = first_appearance(trace, line_size)
        assert [int(line) for line in compiled.unique_lines] == unique
        assert [int(uid) for uid in compiled.line_ids] == ids
        assert [int(kind) for kind in compiled.kinds] == [1] * len(addresses)
        assert len(compiled) == len(addresses)


class TestPlanOracle:
    @pytest.mark.parametrize("replacement", ["random", "lru"])
    @pytest.mark.parametrize("with_l2", [False, True])
    @settings(max_examples=80, deadline=None)
    @given(accesses=streams, stride=st.sampled_from([8, 32]))
    def test_guard_rule(self, replacement, with_l2, accesses, stride):
        config = hierarchy(replacement, with_l2)
        compiled = CompiledTrace(stream_trace(accesses, stride), line_size=32)
        plan = compile_plan(config, compiled)
        steps, elided, elided_store_mem = scalar_plan(config, compiled)
        assert [tuple(step) for step in plan.steps] == steps
        assert plan.n_steps == len(steps)
        assert plan.n_accesses == len(accesses)
        assert plan.elided == elided
        assert plan.elided_store_memory_accesses == elided_store_mem

    @pytest.mark.parametrize("replacement", ["random", "lru"])
    @pytest.mark.parametrize("with_l2", [False, True])
    def test_guard_rule_on_a_stand_in(self, replacement, with_l2):
        config = hierarchy(replacement, with_l2)
        compiled = CompiledTrace(eembc_trace("canrdr", scale=0.25), line_size=32)
        plan = compile_plan(config, compiled)
        steps, elided, elided_store_mem = scalar_plan(config, compiled)
        assert [tuple(step) for step in plan.steps] == steps
        assert plan.elided == elided
        assert plan.elided_store_memory_accesses == elided_store_mem

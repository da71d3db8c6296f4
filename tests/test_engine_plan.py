"""Unit tests of the trace plan compiler (repro.engine.plan).

The cross-engine suite certifies that plan execution matches the
reference engine bit-exactly; these tests pin the compiler's *derived structure*
directly — which accesses are elided, where dirty bits fold, when
guarantees are dropped, and that every placement compiles to one plan — so
a regression shows up as a readable structural diff instead of a counter
mismatch three layers down.
"""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.fastsim import CompiledTrace
from repro.cache.hierarchy import HierarchyConfig, MemoryTimings
from repro.cache.trace import Trace
from repro.engine.plan import compile_plan


def make_config(
    l1_placement="modulo",
    l1_replacement="random",
    l1_write="write-through",
    with_l2=False,
    ways=2,
    num_sets=8,
):
    cache = dict(
        size_bytes=ways * 32 * num_sets, ways=ways, line_size=32,
        placement=l1_placement, replacement=l1_replacement,
        write_policy=l1_write,
    )
    l2 = (
        CacheConfig(
            name="L2", size_bytes=2048, ways=4, line_size=32,
            placement="modulo", replacement="random", write_policy="write-back",
        )
        if with_l2
        else None
    )
    return HierarchyConfig(
        il1=CacheConfig(name="IL1", **cache),
        dl1=CacheConfig(name="DL1", **cache),
        l2=l2,
        timings=MemoryTimings(),
    )


def make_trace(accesses):
    """accesses: list of ("fetch"|"load"|"store", line_number)."""
    trace = Trace(name="plan-unit")
    for kind, line in accesses:
        getattr(trace, kind)(0x40000000 + line * 32)
    return trace


def plan_for(config, accesses):
    compiled = CompiledTrace(make_trace(accesses), line_size=32)
    return compile_plan(config, compiled)


class TestSameLineRunElision:
    def test_repeated_fetches_collapse_to_one_step(self):
        plan = plan_for(make_config(), [("fetch", 0)] * 6)
        assert plan.n_steps == 1
        assert plan.elided == {"il1": 5, "dl1": 0}
        assert plan.n_accesses == 6
        assert plan.elided_fraction == pytest.approx(5 / 6)

    def test_alternating_lines_randomized_placement_never_elide(self):
        # Singleton rule: a different line always voids the guarantee.
        plan = plan_for(
            make_config(l1_placement="rm"),
            [("fetch", 0), ("fetch", 1)] * 4,
        )
        assert plan.n_steps == 8
        assert plan.elided == {"il1": 0, "dl1": 0}

    def test_alternating_lines_deterministic_placement_never_elide(self):
        # Lines 0 and 1 map (modulo) to different sets, but the singleton
        # rule reads no set map: a different line voids the guarantee here
        # too.
        plan = plan_for(
            make_config(l1_placement="modulo"),
            [("fetch", 0), ("fetch", 1)] * 4,
        )
        assert plan.n_steps == 8
        assert plan.elided == {"il1": 0, "dl1": 0}

    def test_same_set_conflict_voids_deterministic_guarantee(self):
        # Lines 0 and 8 share a set in an 8-set modulo cache: a potential
        # miss on one may evict the other, so nothing can be elided.
        plan = plan_for(
            make_config(l1_placement="modulo"),
            [("fetch", 0), ("fetch", 8)] * 4,
        )
        assert plan.n_steps == 8

    def test_slots_track_guarantees_independently(self):
        plan = plan_for(
            make_config(l1_placement="rm"),
            [("fetch", 0), ("load", 0), ("fetch", 0), ("load", 0)],
        )
        # Interleaving slots does not break the per-slot same-line runs.
        assert plan.n_steps == 2
        assert plan.elided == {"il1": 1, "dl1": 1}


class TestStoreRules:
    def test_write_through_store_never_establishes_guarantee(self):
        plan = plan_for(
            make_config(l1_write="write-through"),
            [("store", 0), ("store", 0), ("store", 0)],
        )
        # A WT store does not allocate, so no run ever forms.
        assert plan.n_steps == 3
        assert plan.elided_store_memory_accesses == 0

    def test_elided_wt_store_hit_without_l2_counts_memory_access(self):
        plan = plan_for(
            make_config(l1_write="write-through", with_l2=False),
            [("load", 0), ("store", 0), ("store", 0)],
        )
        assert plan.n_steps == 1
        assert plan.elided == {"il1": 0, "dl1": 2}
        assert plan.elided_store_memory_accesses == 2

    def test_sure_hit_wt_store_with_l2_stays_a_step(self):
        # Each one advances shared L2 state, so it cannot be elided; it is
        # flagged sure_hit so executors skip the L1 lookup.
        plan = plan_for(
            make_config(l1_write="write-through", with_l2=True),
            [("load", 0), ("store", 0), ("store", 0)],
        )
        assert plan.n_steps == 3
        assert plan.steps[1][3] and plan.steps[2][3]  # sure_hit
        assert plan.elided_store_memory_accesses == 0

    def test_write_back_store_hit_folds_dirty_bit_into_anchor(self):
        plan = plan_for(
            make_config(l1_write="write-back"),
            [("load", 0), ("store", 0), ("load", 0)],
        )
        assert plan.n_steps == 1
        anchor = plan.steps[0]
        assert not anchor[2]  # still the load...
        assert anchor[4]  # ...but dirty_after records the folded store
        assert plan.elided == {"il1": 0, "dl1": 2}


class TestLruGuardDrop:
    """A WT store to a *different* line may touch that line's LRU stamp,
    demoting the guaranteed line from MRU; the guard must be dropped."""

    def test_wt_store_to_other_line_drops_lru_guarantee(self):
        config = make_config(
            l1_placement="modulo", l1_replacement="lru",
            l1_write="write-through",
        )
        plan = plan_for(
            config,
            [("load", 0), ("store", 8), ("load", 0)],  # lines 0, 8 share a set
        )
        assert plan.n_steps == 3  # the final load is NOT elided

    def test_wt_store_keeps_random_replacement_guarantee(self):
        # Without stamps there is nothing a foreign store hit can corrupt.
        config = make_config(
            l1_placement="modulo", l1_replacement="random",
            l1_write="write-through",
        )
        plan = plan_for(
            config,
            [("load", 0), ("store", 8), ("load", 0)],
        )
        assert plan.n_steps == 2
        assert plan.elided == {"il1": 0, "dl1": 1}

    def test_sure_hit_same_line_wt_store_keeps_guarantee(self):
        # A sure-hit store to the guaranteed line itself only re-touches
        # the MRU way — stamp order is preserved, the guard survives.
        config = make_config(
            l1_placement="modulo", l1_replacement="lru",
            l1_write="write-through", with_l2=True,
        )
        plan = plan_for(
            config,
            [("load", 0), ("store", 0), ("load", 0)],
        )
        # store stays a step (L2 traffic) but the final load is elided.
        assert plan.n_steps == 2


class TestOnePlan:
    """Seed lanes and layout lanes run one plan, whatever the placement."""

    @pytest.mark.parametrize("replacement", ["lru", "random"])
    @pytest.mark.parametrize("write", ["write-through", "write-back"])
    def test_modulo_plan_is_the_rm_plan(self, replacement, write):
        # The singleton rule reads no set map, so the deterministic (modulo)
        # plan elides exactly what the randomized (rm) plan does.
        accesses = [
            (kind, line)
            for i in range(12)
            for kind, line in (("fetch", i % 3), ("fetch", 8), ("load", i % 2),
                               ("store", i % 2), ("load", 16))
        ]
        compiled = CompiledTrace(make_trace(accesses))
        modulo = make_config(l1_placement="modulo", l1_replacement=replacement,
                             l1_write=write, with_l2=True)
        rm = make_config(l1_placement="rm", l1_replacement=replacement,
                         l1_write=write, with_l2=True)
        assert compile_plan(modulo, compiled) == compile_plan(rm, compiled)


class TestPlanShape:
    def test_describe_summarises_the_plan(self):
        plan = plan_for(make_config(), [("fetch", 0)] * 4 + [("load", 1)])
        summary = plan.describe()
        assert summary["n_accesses"] == 5
        assert summary["n_steps"] == 2
        assert summary["elided"] == {"il1": 3, "dl1": 0}

    def test_empty_trace_compiles_to_empty_plan(self):
        plan = plan_for(make_config(), [])
        assert plan.n_steps == 0
        assert plan.elided_fraction == 0.0


class TestPlanCoverage:
    """Every registered replacement policy and write policy compiles."""

    @pytest.mark.parametrize("replacement", ["random", "lru", "fifo", "plru"])
    def test_all_replacement_policies_compile(self, replacement):
        config = make_config(l1_replacement=replacement)
        plan = plan_for(config, [("fetch", 0), ("fetch", 1), ("fetch", 0)])
        assert plan.n_steps >= 1

    def test_write_through_l2_compiles(self):
        config = make_config(with_l2=True)
        object.__setattr__(config.l2, "write_policy", "write-through")
        plan = plan_for(config, [("fetch", 0), ("store", 1)])
        assert plan.n_steps == 2

    def test_fifo_hits_keep_guarantees(self):
        # FIFO never reorders on a hit, so revisits stay elidable even
        # where LRU-style policies would have to keep the step.
        plan = plan_for(
            make_config(l1_replacement="fifo"),
            [("fetch", 0)] * 4,
        )
        assert plan.elided == {"il1": 3, "dl1": 0}

    def test_unknown_replacement_raises(self):
        # The plan models exactly REPLACEMENT_NAMES; anything else is
        # rejected when the config is built, before any engine sees it —
        # including case variants the reference model would have accepted.
        for name in ("LRU", "Random", "clock", "lru ", ""):
            with pytest.raises(ValueError, match="replacement must be one of"):
                make_config(l1_replacement=name)

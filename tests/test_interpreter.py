"""Tests for the TISA functional/timing interpreter."""

import pytest

from repro.cache.fastsim import CompiledTrace
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.assembler import assemble
from repro.cpu.interpreter import CoreTimings, run_program
from repro.cpu.trace import AccessKind
from repro.engine import get_engine
from repro.platform.leon3 import platform_setup


class TestFunctionalBehaviour:
    def test_arithmetic(self):
        program = assemble(
            """
            li  r1, 6
            li  r2, 7
            mul r3, r1, r2
            add r4, r3, r1
            halt
            """
        )
        result = run_program(program)
        assert result.register(3) == 42
        assert result.register(4) == 48

    def test_r0_is_hardwired_to_zero(self):
        program = assemble("li r0, 99\nadd r1, r0, r0\nhalt")
        result = run_program(program)
        assert result.register(0) == 0
        assert result.register(1) == 0

    def test_memory_roundtrip(self):
        program = assemble(
            """
            li r1, 0x40100000
            li r2, 1234
            st r2, r1, 0
            ld r3, r1, 0
            halt
            """
        )
        result = run_program(program)
        assert result.register(3) == 1234
        assert result.memory[0x40100000] == 1234

    def test_loop_sums_correctly(self):
        program = assemble(
            """
                li   r1, 0        ; acc
                li   r2, 10       ; n
            loop:
                add  r1, r1, r2
                addi r2, r2, -1
                bne  r2, r0, loop
                halt
            """
        )
        result = run_program(program)
        assert result.register(1) == sum(range(1, 11))

    def test_signed_comparison(self):
        program = assemble(
            """
                li   r1, -3
                li   r2, 2
                blt  r1, r2, ok
                li   r3, 0
                halt
            ok: li   r3, 1
                halt
            """
        )
        assert run_program(program).register(3) == 1

    def test_initial_registers_and_memory(self):
        program = assemble("ld r2, r1, 0\nhalt")
        result = run_program(
            program,
            initial_registers={1: 0x40100040},
            initial_memory={0x40100040: 77},
        )
        assert result.register(2) == 77

    def test_runaway_program_is_stopped(self):
        program = assemble("loop: jmp loop\nhalt")
        with pytest.raises(RuntimeError):
            run_program(program, max_instructions=1000)


class TestTimingBehaviour:
    def test_cycles_increase_with_hierarchy(self):
        program = assemble("li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt")
        bare = run_program(program)
        with_caches = run_program(program, hierarchy=CacheHierarchy(platform_setup("rm"), seed=1))
        assert with_caches.cycles > bare.cycles

    def test_mul_costs_more_than_add(self):
        adds = assemble("add r3, r1, r2\nhalt")
        muls = assemble("mul r3, r1, r2\nhalt")
        assert run_program(muls).cycles > run_program(adds).cycles

    def test_taken_branch_penalty(self):
        taken = assemble("li r1, 1\nbeq r0, r0, skip\nskip: halt")
        not_taken = assemble("li r1, 1\nbne r0, r0, skip\nskip: halt")
        timings = CoreTimings()
        assert (
            run_program(taken).cycles - run_program(not_taken).cycles
            == timings.taken_branch_penalty
        )

    def test_instruction_count(self):
        program = assemble("nop\nnop\nnop\nhalt")
        assert run_program(program).instructions == 4


class TestTraceRecording:
    def test_trace_contains_fetches_and_data_accesses(self):
        program = assemble(
            """
            li r1, 0x40100000
            ld r2, r1, 0
            st r2, r1, 4
            halt
            """
        )
        result = run_program(program, record_trace=True)
        counts = result.trace.counts()
        assert counts["fetches"] == result.instructions
        assert counts["loads"] == 1
        assert counts["stores"] == 1

    def test_trace_addresses_match_code_and_data(self):
        program = assemble("li r1, 0x40100000\nld r2, r1, 0\nhalt")
        result = run_program(program, record_trace=True)
        fetches = [a for a in result.trace if a.kind == AccessKind.FETCH]
        assert fetches[0].address == program.code_base
        loads = [a for a in result.trace if a.kind == AccessKind.LOAD]
        assert loads[0].address == 0x40100000

    def test_recorded_trace_replays_to_same_cycles(self):
        program = assemble(
            """
                li   r1, 0x40100000
                li   r2, 64
            loop:
                ld   r3, r1, 0
                addi r1, r1, 32
                addi r2, r2, -1
                bne  r2, r0, loop
                halt
            """
        )
        config = platform_setup("rm")
        hierarchy = CacheHierarchy(config, seed=77)
        execution = run_program(program, hierarchy=hierarchy, record_trace=True)
        # Replaying the recorded memory accesses must reproduce the memory
        # cycles exactly (the execute-stage cycles are added on top).
        compiled = CompiledTrace(execution.trace, line_size=config.il1.line_size)
        replay = get_engine("reference").simulator(config, compiled).run(77)
        assert replay.cycles == hierarchy.cycles

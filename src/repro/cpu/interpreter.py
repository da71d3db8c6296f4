"""Functional + timing interpreter for TISA programs.

The interpreter models a simple in-order core in the spirit of the LEON3:
one instruction completes before the next starts, every instruction pays its
fetch latency (served by the instruction L1), loads and stores additionally
pay the data-side latency, ALU operations take one execute cycle and taken
branches pay a small redirection penalty.

Besides producing an execution-time measurement directly, the interpreter
can record the program's memory-access :class:`~repro.cpu.trace.Trace`.  The
measurement campaigns use that recorded trace with the campaign engine, so
a workload only has to be *executed* once even when it is *measured*
thousands of times with different placement seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cache.hierarchy import CacheHierarchy
from .assembler import Program
from .isa import INSTRUCTION_SIZE, Instruction, NUM_REGISTERS, Opcode
from .trace import Trace

__all__ = ["CoreTimings", "ExecutionResult", "Interpreter", "run_program"]

_WORD_MASK = 0xFFFFFFFF


def _to_signed(value: int) -> int:
    """Interpret a 32-bit value as a signed integer."""
    value &= _WORD_MASK
    return value - (1 << 32) if value & 0x8000_0000 else value


@dataclass(frozen=True)
class CoreTimings:
    """Per-instruction-class costs of the in-order core (in cycles).

    The fetch and memory latencies themselves come from the cache hierarchy;
    these constants cover the execute stage.
    """

    alu: int = 1
    mul: int = 4
    branch: int = 1
    taken_branch_penalty: int = 2
    memory_issue: int = 1


@dataclass
class ExecutionResult:
    """Outcome of one program execution."""

    cycles: int
    instructions: int
    registers: List[int]
    memory: Dict[int, int]
    trace: Optional[Trace] = None
    halted: bool = True

    def register(self, index: int) -> int:
        """Value of register ``index`` at the end of execution."""
        return self.registers[index]


class Interpreter:
    """Executes a TISA :class:`~repro.cpu.assembler.Program`."""

    def __init__(
        self,
        program: Program,
        hierarchy: Optional[CacheHierarchy] = None,
        timings: CoreTimings = CoreTimings(),
        record_trace: bool = False,
        max_instructions: int = 5_000_000,
    ) -> None:
        self.program = program
        self.hierarchy = hierarchy
        self.timings = timings
        self.record_trace = record_trace
        self.max_instructions = max_instructions

        self.registers: List[int] = [0] * NUM_REGISTERS
        self.memory: Dict[int, int] = {}
        self.pc = program.code_base
        self.cycles = 0
        self.instruction_count = 0
        self.halted = False
        self.trace: Optional[Trace] = Trace(name=program.name) if record_trace else None

    # ------------------------------------------------------------ primitives

    def _write_register(self, index: int, value: int) -> None:
        if index != 0:  # r0 is hard-wired to zero.
            self.registers[index] = value & _WORD_MASK

    def _read_word(self, address: int) -> int:
        return self.memory.get(address & ~0x3, 0)

    def _write_word(self, address: int, value: int) -> None:
        self.memory[address & ~0x3] = value & _WORD_MASK

    def _fetch(self, address: int) -> None:
        if self.hierarchy is not None:
            self.cycles += self.hierarchy.fetch(address)
        else:
            self.cycles += 1
        if self.trace is not None:
            self.trace.fetch(address)

    def _load(self, address: int) -> int:
        if self.hierarchy is not None:
            self.cycles += self.hierarchy.load(address)
        else:
            self.cycles += 1
        if self.trace is not None:
            self.trace.load(address)
        return self._read_word(address)

    def _store(self, address: int, value: int) -> None:
        if self.hierarchy is not None:
            self.cycles += self.hierarchy.store(address)
        else:
            self.cycles += 1
        if self.trace is not None:
            self.trace.store(address)
        self._write_word(address, value)

    # -------------------------------------------------------------- stepping

    def step(self) -> bool:
        """Execute one instruction; returns False once the program halted."""
        if self.halted:
            return False
        index = self.program.index_of(self.pc)
        instruction = self.program.instructions[index]
        self._fetch(self.pc)
        self.instruction_count += 1
        next_pc = self.pc + INSTRUCTION_SIZE
        timings = self.timings
        registers = self.registers

        opcode = instruction.opcode
        if opcode == Opcode.HALT:
            self.halted = True
            self.pc = next_pc
            return False
        if opcode == Opcode.NOP:
            self.cycles += timings.alu
        elif opcode.is_alu:
            self.cycles += timings.mul if opcode == Opcode.MUL else timings.alu
            self._execute_alu(instruction)
        elif opcode == Opcode.LD:
            self.cycles += timings.memory_issue
            address = (registers[instruction.rs1] + instruction.imm) & _WORD_MASK
            self._write_register(instruction.rd, self._load(address))
        elif opcode == Opcode.ST:
            self.cycles += timings.memory_issue
            address = (registers[instruction.rs1] + instruction.imm) & _WORD_MASK
            self._store(address, registers[instruction.rs2])
        elif opcode.is_branch:
            self.cycles += timings.branch
            taken = self._branch_taken(instruction)
            if taken:
                self.cycles += timings.taken_branch_penalty
                next_pc = instruction.target if instruction.target is not None else next_pc
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"unhandled opcode {opcode}")

        self.pc = next_pc
        return True

    def _execute_alu(self, instruction: Instruction) -> None:
        registers = self.registers
        a = registers[instruction.rs1]
        opcode = instruction.opcode
        if opcode == Opcode.ADD:
            value = a + registers[instruction.rs2]
        elif opcode == Opcode.SUB:
            value = a - registers[instruction.rs2]
        elif opcode == Opcode.MUL:
            value = a * registers[instruction.rs2]
        elif opcode == Opcode.AND:
            value = a & registers[instruction.rs2]
        elif opcode == Opcode.OR:
            value = a | registers[instruction.rs2]
        elif opcode == Opcode.XOR:
            value = a ^ registers[instruction.rs2]
        elif opcode == Opcode.SLL:
            value = a << (registers[instruction.rs2] & 31)
        elif opcode == Opcode.SRL:
            value = a >> (registers[instruction.rs2] & 31)
        elif opcode == Opcode.ADDI:
            value = a + instruction.imm
        elif opcode == Opcode.ANDI:
            value = a & instruction.imm
        elif opcode == Opcode.ORI:
            value = a | instruction.imm
        elif opcode == Opcode.LUI:
            value = instruction.imm
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"unhandled ALU opcode {opcode}")
        self._write_register(instruction.rd, value)

    def _branch_taken(self, instruction: Instruction) -> bool:
        opcode = instruction.opcode
        if opcode == Opcode.JMP:
            return True
        a = _to_signed(self.registers[instruction.rs1])
        b = _to_signed(self.registers[instruction.rs2])
        if opcode == Opcode.BEQ:
            return a == b
        if opcode == Opcode.BNE:
            return a != b
        if opcode == Opcode.BLT:
            return a < b
        if opcode == Opcode.BGE:
            return a >= b
        raise NotImplementedError(f"unhandled branch opcode {opcode}")  # pragma: no cover

    # ------------------------------------------------------------------- run

    def run(self) -> ExecutionResult:
        """Run until HALT (or the instruction budget is exhausted)."""
        while not self.halted:
            if self.instruction_count >= self.max_instructions:
                raise RuntimeError(
                    f"instruction budget exceeded ({self.max_instructions}); "
                    "the program probably does not terminate"
                )
            self.step()
        return ExecutionResult(
            cycles=self.cycles,
            instructions=self.instruction_count,
            registers=list(self.registers),
            memory=dict(self.memory),
            trace=self.trace,
            halted=self.halted,
        )


def run_program(
    program: Program,
    hierarchy: Optional[CacheHierarchy] = None,
    initial_registers: Optional[Dict[int, int]] = None,
    initial_memory: Optional[Dict[int, int]] = None,
    record_trace: bool = False,
    timings: CoreTimings = CoreTimings(),
    max_instructions: int = 5_000_000,
) -> ExecutionResult:
    """Convenience wrapper around :class:`Interpreter`.

    ``initial_registers`` maps register indices to values and
    ``initial_memory`` maps word-aligned byte addresses to values.
    """
    interpreter = Interpreter(
        program,
        hierarchy=hierarchy,
        timings=timings,
        record_trace=record_trace,
        max_instructions=max_instructions,
    )
    for index, value in (initial_registers or {}).items():
        interpreter._write_register(index, value)
    for address, value in (initial_memory or {}).items():
        interpreter._write_word(address, value)
    return interpreter.run()

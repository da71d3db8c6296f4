"""A small load/store ISA used by the CPU substrate.

The paper's platform is a LEON3 (SPARC V8) core.  Re-implementing SPARC V8
is out of scope and unnecessary — what the experiments need is a processor
that fetches instructions from an instruction cache, executes simple integer
operations and issues loads/stores to a data cache.  This module defines a
minimal 32-register RISC ISA ("TISA", tiny ISA) with that shape:

* 32 general-purpose registers, ``r0`` hard-wired to zero (as in SPARC);
* 4-byte instructions, word-aligned code;
* three-operand ALU instructions, register+immediate addressing for memory,
  compare-and-branch control flow.

Programs are built with :mod:`repro.cpu.assembler` and executed by
:mod:`repro.cpu.interpreter`, which drives a
:class:`~repro.cache.hierarchy.CacheHierarchy` and can also record a
:class:`~repro.cpu.trace.Trace` for later replay in the campaign engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Optional

__all__ = ["Opcode", "Instruction", "NUM_REGISTERS", "INSTRUCTION_SIZE"]

#: Number of general-purpose registers (r0 is hard-wired to zero).
NUM_REGISTERS = 32
#: Instruction size in bytes.
INSTRUCTION_SIZE = 4


class Opcode(Enum):
    """TISA opcodes."""

    NOP = auto()
    HALT = auto()
    # ALU register-register.
    ADD = auto()
    SUB = auto()
    MUL = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    SLL = auto()
    SRL = auto()
    # ALU register-immediate.
    ADDI = auto()
    ANDI = auto()
    ORI = auto()
    LUI = auto()
    # Memory.
    LD = auto()
    ST = auto()
    # Control flow (compare-and-branch, absolute target resolved by the
    # assembler).
    BEQ = auto()
    BNE = auto()
    BLT = auto()
    BGE = auto()
    JMP = auto()

    @property
    def is_branch(self) -> bool:
        return self in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP)

    @property
    def is_memory(self) -> bool:
        return self in (Opcode.LD, Opcode.ST)

    @property
    def is_alu(self) -> bool:
        return self in (
            Opcode.ADD,
            Opcode.SUB,
            Opcode.MUL,
            Opcode.AND,
            Opcode.OR,
            Opcode.XOR,
            Opcode.SLL,
            Opcode.SRL,
            Opcode.ADDI,
            Opcode.ANDI,
            Opcode.ORI,
            Opcode.LUI,
        )


@dataclass(frozen=True)
class Instruction:
    """One decoded TISA instruction.

    Field usage by format:

    * ALU reg-reg: ``rd = rs1 <op> rs2``
    * ALU reg-imm: ``rd = rs1 <op> imm``
    * ``LD``: ``rd = mem[rs1 + imm]``
    * ``ST``: ``mem[rs1 + imm] = rs2``
    * branches: compare ``rs1`` and ``rs2``, jump to ``target`` if taken
    * ``JMP``: unconditional jump to ``target``
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("rd", "rs1", "rs2"):
            register = getattr(self, name)
            if not 0 <= register < NUM_REGISTERS:
                raise ValueError(
                    f"{self.opcode.name}: register {name}={register} out of range "
                    f"0..{NUM_REGISTERS - 1}"
                )
        if self.opcode.is_branch and self.target is None and self.label is None:
            raise ValueError(f"{self.opcode.name}: branch needs a target or a label")

    def describe(self) -> str:
        """Compact textual form (used by disassembly listings and tests)."""
        op = self.opcode.name.lower()
        if self.opcode in (Opcode.NOP, Opcode.HALT):
            return op
        if self.opcode == Opcode.JMP:
            return f"{op} {self.label or hex(self.target or 0)}"
        if self.opcode.is_branch:
            return f"{op} r{self.rs1}, r{self.rs2}, {self.label or hex(self.target or 0)}"
        if self.opcode == Opcode.LD:
            return f"{op} r{self.rd}, r{self.rs1}, {self.imm}"
        if self.opcode == Opcode.ST:
            return f"{op} r{self.rs2}, r{self.rs1}, {self.imm}"
        if self.opcode in (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.LUI):
            return f"{op} r{self.rd}, r{self.rs1}, {self.imm}"
        return f"{op} r{self.rd}, r{self.rs1}, r{self.rs2}"
